//! Differential testing of the `ChaseContext` caches: memoization is a
//! pure speedup, so a memoized backchase and a cache-disabled one must
//! produce exactly the same plan sets, and the memo must actually be
//! exercised on the paper's pipeline.

use cb_chase::{backchase_in, ChaseConfig, ChaseContext};
use pcql::Query;

fn norm(plans: &[Query]) -> Vec<Query> {
    let mut out: Vec<Query> = plans.iter().map(Query::alpha_normalized).collect();
    out.sort();
    out
}

/// Chases `q` and backchases the universal plan twice — once with the
/// caches on, once with them disabled — and asserts the outcomes are
/// identical (alpha-normalized, order-insensitive).
fn check_scenario(name: &str, catalog: &cb_catalog::Catalog, q: &Query, max_visited: usize) {
    let deps = catalog.all_constraints();
    let cfg = ChaseConfig::default();

    let mut memoized = ChaseContext::new(deps.clone(), cfg.clone());
    let mut disabled = ChaseContext::without_memo(deps, cfg);

    let u1 = memoized.chase(q).query;
    let u2 = disabled.chase(q).query;
    assert_eq!(u1, u2, "{name}: universal plans differ");

    let a = backchase_in(&mut memoized, &u1, max_visited);
    let b = backchase_in(&mut disabled, &u2, max_visited);
    assert_eq!(a.complete, b.complete, "{name}: completeness differs");
    assert_eq!(
        norm(&a.normal_forms),
        norm(&b.normal_forms),
        "{name}: normal forms differ between memoized and cache-disabled runs"
    );
    assert_eq!(
        norm(&a.visited),
        norm(&b.visited),
        "{name}: visited sets differ between memoized and cache-disabled runs"
    );
    // The memoized run must actually have reused work, and the disabled
    // context must never report a hit.
    assert!(memoized.stats().hits() > 0, "{name}: memo never hit");
    assert_eq!(disabled.stats().hits(), 0, "{name}: disabled cache hit");
}

#[test]
fn projdept_memoized_backchase_matches_cache_disabled() {
    let catalog = cb_catalog::scenarios::projdept::catalog();
    check_scenario(
        "projdept",
        &catalog,
        &cb_catalog::scenarios::projdept::query(),
        400,
    );
}

#[test]
fn projdept_mapping_only_memoized_backchase_matches_cache_disabled() {
    let catalog = cb_catalog::scenarios::projdept::catalog().without_semantic_constraints();
    check_scenario(
        "projdept (mapping-only)",
        &catalog,
        &cb_catalog::scenarios::projdept::query(),
        400,
    );
}

#[test]
fn relational_indexes_memoized_backchase_matches_cache_disabled() {
    let catalog = cb_catalog::scenarios::relational_indexes::catalog();
    check_scenario(
        "relational_indexes",
        &catalog,
        &cb_catalog::scenarios::relational_indexes::query(),
        400,
    );
}

#[test]
fn relational_views_memoized_backchase_matches_cache_disabled() {
    let catalog = cb_catalog::scenarios::relational_views::catalog();
    check_scenario(
        "relational_views",
        &catalog,
        &cb_catalog::scenarios::relational_views::query(),
        400,
    );
}

#[test]
fn projdept_pipeline_hits_the_memo() {
    // The full Algorithm-1 pipeline on ProjDept must exercise every
    // cache of its one-per-optimization context.
    let mut catalog = cb_catalog::scenarios::projdept::catalog();
    cb_catalog::scenarios::projdept::stats_for(&mut catalog, 100, 10, 20);
    let out = cb_optimizer::Optimizer::new(&catalog)
        .optimize(&cb_catalog::scenarios::projdept::query())
        .unwrap();
    let cache = out.cache;
    // The lattice nodes of one run are pairwise alpha-distinct, so the
    // chase/containment memos mostly pay off across *repeated* questions
    // — the implication memo (lookup-safety and pruning proofs repeat
    // heavily) and the parent-hom seeding are the in-run workhorses.
    assert!(
        cache.implication_hits > 0,
        "implication memo unused: {cache:?}"
    );
    assert!(cache.hits() > 0, "no memo hit at all: {cache:?}");
    assert!(cache.hit_rate() > 0.0);
    assert!(
        cache.seeded_hom_hits > 0,
        "lattice hom seeding unused: {cache:?}"
    );
}

// ---------- the chase's satisfied-trigger memo ----------

/// The three paper scenarios, each as (name, catalog, query).
fn paper_scenarios() -> Vec<(&'static str, cb_catalog::Catalog, Query)> {
    use cb_catalog::scenarios::{projdept, relational_indexes, relational_views};
    let mut pd = projdept::catalog();
    projdept::stats_for(&mut pd, 100, 10, 20);
    vec![
        ("projdept", pd, projdept::query()),
        (
            "relational_indexes",
            relational_indexes::catalog(),
            relational_indexes::query(),
        ),
        (
            "relational_views",
            relational_views::catalog(),
            relational_views::query(),
        ),
    ]
}

/// The chased query before coalescing: the input plus every step's
/// bindings and conditions, in order.
fn unreduced_chase(q: &Query, steps: &[cb_chase::ChaseStepTrace]) -> Query {
    let mut out = q.clone();
    for s in steps {
        out.from.extend(s.added_bindings.iter().cloned());
        out.where_.extend(s.added_eqs.iter().cloned());
    }
    out
}

#[test]
fn no_trigger_is_extension_checked_twice_per_chase_state() {
    // A complete chase must check every trigger of its final canonical
    // database once (the confirming scan sees them all), and the memo
    // keeps it from checking any trigger a second time — so the count is
    // exactly the number of triggers at the fixpoint.
    for (name, catalog, q) in paper_scenarios() {
        let deps = catalog.all_constraints();
        let mut ctx = ChaseContext::new(deps.clone(), ChaseConfig::default());
        let out = ctx.chase(&q);
        assert!(out.complete, "{name}: chase incomplete");
        let mut graph = cb_chase::QueryGraph::of_query(&unreduced_chase(&q, &out.steps));
        let triggers: usize = deps
            .iter()
            .map(|d| {
                cb_chase::hom::find_homomorphisms(
                    &mut graph,
                    &d.forall,
                    &d.premise,
                    &Default::default(),
                    usize::MAX,
                )
                .len()
            })
            .sum();
        assert_eq!(
            ctx.stats().trigger_checks,
            triggers as u64,
            "{name}: trigger checks vs distinct triggers at the fixpoint"
        );
    }
}

#[test]
fn trigger_checks_are_pinned_on_the_paper_scenarios() {
    // The whole sequential pipeline's trigger extension checks — a
    // deterministic work counter that wall-clock noise cannot hide. A
    // rise means the chase re-proves work it already did.
    let config = cb_optimizer::OptimizerConfig {
        threads: 1,
        ..Default::default()
    };
    let pinned = [
        ("projdept", 17_714),
        ("relational_indexes", 135),
        ("relational_views", 804),
    ];
    for ((name, catalog, q), (pinned_name, checks)) in paper_scenarios().into_iter().zip(pinned) {
        assert_eq!(name, pinned_name);
        let out = cb_optimizer::Optimizer::with_config(&catalog, config.clone())
            .optimize(&q)
            .unwrap();
        assert_eq!(out.cache.trigger_checks, checks, "{name}: {:?}", out.cache);
    }
}

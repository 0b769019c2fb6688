//! The traced run: in-memory spans and a replay of Algorithm 1 through
//! the layers' public functions.
//!
//! `Optimizer::optimize` is one opaque call, so the traced run re-drives
//! the same steps from outside: parse, pre-flight, type check, phase-1
//! chase, phase-2 lattice walk, per-candidate cleanup (implied-condition
//! pruning through a timing [`ChaseProver`] wrapper, guard elimination,
//! binding reordering), costing and pipeline verification. The replay
//! must reach `optimize()`'s best cost; the ratio of its layer time to
//! `optimize()`'s time on the same request is the replay coverage.

use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;

use cb_analyze::Analyzer;
use cb_catalog::Catalog;
use cb_chase::{
    ChaseConfig, ChaseContext, ChaseProver, ExploreAll, MustRemainAnalysis, PlanSearch,
};
use cb_optimizer::{cleanup_plan, reorder_bindings, CostModel, OptimizerConfig};
use pcql::query::Query;
use pcql::Dependency;

use crate::common::cache_delta;

/// One recorded span. Times are nanoseconds since the tracer started.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub request: usize,
}

/// Collects spans in memory; [`Tracer::write`] dumps them at exit.
pub struct Tracer {
    t0: Instant,
    pub spans: Vec<Span>,
    stack: Vec<usize>,
    pub request: usize,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            t0: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            request: 0,
        }
    }

    fn now(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    pub fn begin(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now(),
            end_ns: 0,
            parent: self.stack.last().copied(),
            request: self.request,
        });
        self.stack.push(id);
        id
    }

    pub fn end(&mut self, id: usize) {
        let popped = self.stack.pop();
        debug_assert_eq!(popped, Some(id), "spans must nest");
        self.spans[id].end_ns = self.now();
    }

    /// Self time per span name, seconds: each span's duration minus its
    /// children's.
    pub fn self_times(&self) -> BTreeMap<&'static str, (f64, u64)> {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, (f64, u64)> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let e = out.entry(s.name).or_default();
            e.0 += (s.end_ns - s.start_ns).saturating_sub(child[i]) as f64 * 1e-9;
            e.1 += 1;
        }
        out
    }

    /// Writes every span as one JSON line.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        use std::io::Write;
        let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                f,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"request\":{}}}",
                s.name, s.start_ns, s.end_ns, parent, s.request
            )?;
        }
        f.flush()
    }
}

/// A [`ChaseProver`] that times every implication and containment
/// call into the wrapped context as a span.
struct TimingProver<'a> {
    ctx: &'a mut ChaseContext,
    tracer: &'a mut Tracer,
}

impl ChaseProver for TimingProver<'_> {
    fn cfg(&self) -> &ChaseConfig {
        self.ctx.cfg()
    }
    fn implies(&mut self, sigma: &Dependency) -> bool {
        let s = self.tracer.begin("cb-chase.implication");
        let v = self.ctx.implies(sigma);
        self.tracer.end(s);
        v
    }
    fn contained_in(&mut self, q1: &Query, q2: &Query) -> bool {
        let s = self.tracer.begin("cb-chase.containment");
        let v = self.ctx.contained_in(q1, q2);
        self.tracer.end(s);
        v
    }
    fn note_seeded_hom(&mut self) {
        ChaseProver::note_seeded_hom(self.ctx);
    }
}

/// What one replayed optimization found.
#[derive(Debug, Clone, Default)]
pub struct Replay {
    pub best_cost: f64,
    /// Physical candidates costed (before deduplication).
    pub costed: usize,
    /// Candidates that reached the top-k after deduplication.
    pub useful: usize,
    pub nodes_visited: usize,
    pub chase_steps: usize,
    pub pipelines_verified: usize,
    pub walk_containment_checks: u64,
    pub walk_containment_hits: u64,
    pub implication_checks: u64,
    pub implication_hits: u64,
    pub memo_hits: u64,
    pub memo_lookups: u64,
}

/// Algorithm 1, replayed step by step with one span per layer. Mirrors
/// `Optimizer::optimize_in` for the pinned configuration (`Exhaustive`,
/// one thread, every visited physical subquery costed).
pub fn replay(
    catalog: &Catalog,
    config: &OptimizerConfig,
    ctx: &mut ChaseContext,
    text: &str,
    tr: &mut Tracer,
) -> Result<Replay, String> {
    let mut r = Replay::default();
    let s = tr.begin("pcql.parse");
    let q = pcql::parser::parse_query(text).map_err(|e| e.to_string());
    tr.end(s);
    let q = q?;

    let s = tr.begin("cb-analyze.preflight");
    let analyzer = Analyzer::new(catalog);
    let (_, mut report) = analyzer.check_catalog();
    report.merge(analyzer.check_query(&q));
    report.merge(analyzer.check_environment());
    let schema = catalog.combined_schema();
    let typed = pcql::typecheck::check_query(&schema, &q);
    tr.end(s);
    typed.map_err(|e| e.to_string())?;

    let before = ctx.stats();
    let s = tr.begin("cb-chase.chase");
    ctx.ensure_deps(&catalog.all_constraints(), &config.chase);
    let chased = ctx.chase(&q);
    tr.end(s);
    r.chase_steps = chased.steps.len();
    let universal = chased.query;

    let s = tr.begin("cb-chase.walk");
    let model = CostModel::for_catalog(catalog);
    let mut analysis = MustRemainAnalysis::new(&universal);
    let walk_before = ctx.stats();
    let out = PlanSearch::new(&universal)
        .with_max_visited(config.backchase.max_visited)
        .with_budget(config.search_budget)
        .run(ctx, &mut ExploreAll);
    let walk = cache_delta(&ctx.stats(), &walk_before);
    tr.end(s);
    r.nodes_visited = out.visited_count;
    r.walk_containment_checks = walk.containment_hits + walk.containment_misses;
    r.walk_containment_hits = walk.containment_hits;

    // Normal forms first, then every other visited physical subquery —
    // the optimizer's phased costing order.
    let nf: BTreeSet<Query> = out
        .normal_forms
        .iter()
        .map(Query::alpha_normalized)
        .collect();
    let others = out
        .visited
        .iter()
        .filter(|v| config.cost_visited && !nf.contains(&v.alpha_normalized()));
    let mut candidates: Vec<(f64, Query)> = Vec::new();
    for raw in out.normal_forms.iter().chain(others) {
        if !catalog.is_physical_query(raw) {
            continue;
        }
        let s = tr.begin("cb-optimizer.cleanup");
        let pruned = {
            let mut prover = TimingProver { ctx, tracer: tr };
            cb_optimizer::cleanup::prune_implied_conditions_in(&mut prover, raw)
        };
        let cleaned = cleanup_plan(catalog, &pruned);
        let ordered = reorder_bindings(&cleaned, &model);
        tr.end(s);
        let s = tr.begin("cb-optimizer.cost");
        let cost = model.checked_plan_cost(&ordered);
        tr.end(s);
        if let Ok(cost) = cost {
            candidates.push((cost, ordered));
        }
    }
    r.costed = candidates.len();

    let s = tr.begin("cb-optimizer.rank");
    candidates.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut seen = BTreeSet::new();
    candidates.retain(|(_, q)| seen.insert(q.alpha_normalized()));
    let _ = analysis.must_remain(&BTreeSet::new());
    tr.end(s);
    r.useful = candidates.len().min(config.k_best.max(1));
    r.best_cost = candidates.first().map(|c| c.0).ok_or("no physical plan")?;

    let s = tr.begin("cb-analyze.pipeline_verify");
    for (_, c) in &candidates {
        for joins in [false, true] {
            let pipeline = cb_engine::compile(
                c,
                cb_engine::CompileOptions {
                    hash_joins: joins,
                    merge_joins: joins,
                    ..Default::default()
                },
            );
            report.merge(analyzer.check_pipeline(&pipeline));
            r.pipelines_verified += 1;
        }
    }
    tr.end(s);

    let all = cache_delta(&ctx.stats(), &before);
    r.implication_checks = all.implication_hits + all.implication_misses;
    r.implication_hits = all.implication_hits;
    r.memo_hits = all.hits();
    r.memo_lookups = all.hits() + all.misses();
    Ok(r)
}

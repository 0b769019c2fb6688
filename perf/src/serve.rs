//! `serve_exec`: long-lived services over materialized instances of the
//! paper's three scenarios, every query variant prepared in set-up.
//! Requests follow a seeded skewed stream: `prepare` (a cache hit),
//! `compile`, `execute`. A fixed share instead loads the plan from its
//! document: `PlanRepr::render` → `parse` → `load_verified`, then
//! `execute`.

use std::collections::BTreeSet;
use std::time::Instant;

use cb_catalog::scenarios::{projdept, relational_indexes, relational_views};
use cb_catalog::Catalog;
use cb_chase::ChaseContext;
use cb_engine::{CompileOptions, Evaluator, PipelineStats, Value};
use cb_optimizer::{PlanRepr, PlanService};
use pcql::Query;

use crate::common::{check_outcome, pinned_config, reference_rows, Counters, Measured};
use crate::rng::{self, Draw};
use crate::scenarios::{self, Built};
use crate::trace::{replay, Tracer};
use crate::{LayerTally, Setup};

/// Seconds of `--seconds` per pass: `--seconds 15` gives ten passes,
/// about 10 s of requests on a 2-core host.
const PASS_S: f64 = 1.5;

/// Rounds per pass.
const PASS_ROUNDS: usize = 64;

/// Requests per variant in one round (most popular first, in the order
/// of [`variant_texts`]) and how many of them take the plan-from-disk
/// path: 32 requests, 8 from disk. The popular ProjDept query sits in
/// the middle of the latency distribution — the §4 index selections run
/// faster, the views joins and the load path slower — so the median
/// request falls inside one variant, not on the edge between two.
const WEIGHTS: [(usize, usize); 7] = [(12, 3), (6, 1), (4, 1), (3, 1), (3, 1), (2, 1), (2, 0)];

struct Variant {
    scenario: usize,
    text: String,
    query: Query,
    reference: BTreeSet<Value>,
}

struct Scenario {
    service: PlanService,
    built: Built,
}

pub struct Serve {
    scenarios: Vec<Scenario>,
    variants: Vec<Variant>,
    /// (variant, from disk), in request order.
    reqs: Vec<(usize, bool)>,
}

pub fn rounds_for(seconds: u64) -> usize {
    ((seconds as f64 / PASS_S).round() as usize).max(1) * PASS_ROUNDS
}

fn request_list(seed: u64, rounds: usize) -> Vec<(usize, bool)> {
    let mut rng = rng::fork(seed, "serve_exec/requests");
    let mut out = Vec::new();
    for _ in 0..rounds {
        let mut round = Vec::new();
        for (v, &(n, disk)) in WEIGHTS.iter().enumerate() {
            round.extend((0..n).map(|i| (v, i < disk)));
        }
        rng.shuffle(&mut round);
        out.extend(round);
    }
    out
}

/// The query variants: ProjDept's query, four selections of §4 indexes
/// and two joins of §4 views. The seed draws the selection constants.
fn variant_texts(seed: u64) -> Vec<(usize, String)> {
    let mut rng = rng::fork(seed, "serve_exec/variants");
    let mut out = vec![(0, scenarios::projdept_query_text("CitiBank"))];
    for _ in 0..4 {
        let (a, b) = (rng.range(0, 40) as i64, rng.range(0, 20) as i64);
        out.push((1, scenarios::indexes_query_text(a, b)));
    }
    out.push((2, scenarios::views_query_text()));
    out.push((
        2,
        "select struct(A = r.A, C = s.C) from R r, S s where r.B = s.B".to_string(),
    ));
    out
}

pub fn list_fingerprint(seed: u64, seconds: u64) -> u64 {
    crate::common::fingerprint(&(variant_texts(seed), request_list(seed, rounds_for(seconds))))
}

fn instances(seed: u64) -> Vec<(Catalog, Built)> {
    // Small twins from the same generators prove the generated data
    // satisfies every constraint; checking the serving-size instances
    // directly would dominate set-up.
    scenarios::projdept_instance(10, 4, 3, seed).checked(&[projdept::catalog()]);
    scenarios::rabc(300, 40, 20, seed).checked(&[relational_indexes::catalog()]);
    scenarios::rs_views(120, 0.4, seed).checked(&[relational_views::catalog()]);
    vec![
        (
            projdept::catalog(),
            scenarios::projdept_instance(200, 10, 3, seed),
        ),
        (
            relational_indexes::catalog(),
            scenarios::rabc(120_000, 40, 20, seed),
        ),
        (
            relational_views::catalog(),
            scenarios::rs_views(1500, 0.4, seed),
        ),
    ]
}

pub fn setup(seed: u64, seconds: u64) -> Setup<Serve> {
    let mut scenarios: Vec<Scenario> = instances(seed)
        .into_iter()
        .map(|(mut catalog, built)| {
            *catalog.stats_mut() = cb_engine::collect_stats(&built.instance);
            Scenario {
                service: PlanService::new(catalog, pinned_config()),
                built,
            }
        })
        .collect();
    let mut counters = Counters::default();
    let mut failures = Vec::new();
    let mut oracle_s = 0.0;
    let variants = variant_texts(seed)
        .into_iter()
        .map(|(scenario, text)| {
            let query = scenarios::parse(&text);
            let sc = &mut scenarios[scenario];
            let t = Instant::now();
            let reference = reference_rows(sc.service.catalog(), &sc.built.instance, &text);
            oracle_s += t.elapsed().as_secs_f64();
            let p = sc
                .service
                .prepare(&query)
                .unwrap_or_else(|e| panic!("preparing {text}: {e}"));
            counters.add_outcome(&p.plan.outcome);
            let (res, stats) = check_outcome(
                sc.service.catalog(),
                &sc.built.instance,
                &p.plan.outcome,
                &reference,
            );
            counters.add_exec(&stats);
            if let Err(e) = res {
                failures.push(format!("preparing {text}: {e}"));
            }
            Variant {
                scenario,
                text,
                query,
                reference,
            }
        })
        .collect();
    let materialize_s = scenarios.iter().map(|s| s.built.materialize_s).sum();
    Setup {
        state: Serve {
            scenarios,
            variants,
            reqs: request_list(seed, rounds_for(seconds)),
        },
        materialize_s,
        oracle_s,
        counters,
        failures,
    }
}

/// The engine's compile options: hash and merge joins on.
fn engine_options() -> CompileOptions {
    CompileOptions {
        hash_joins: true,
        merge_joins: true,
        ..Default::default()
    }
}

type Served = Result<(BTreeSet<Value>, PipelineStats), String>;

impl Serve {
    /// One request, untraced.
    fn serve(&mut self, v: usize, disk: bool) -> Served {
        let var = &self.variants[v];
        let sc = &mut self.scenarios[var.scenario];
        let p = sc.service.prepare(&var.query).map_err(|e| e.to_string())?;
        if !p.cache_hit {
            return Err("prepare missed the plan cache".into());
        }
        let pipeline = if disk {
            let text = p.plan.repr.render();
            let repr = PlanRepr::parse(&text).map_err(|e| e.to_string())?;
            repr.load_verified(sc.service.catalog())
                .map_err(|e| e.to_string())?
                .1
        } else {
            cb_engine::compile(&p.plan.outcome.best.query, engine_options())
        };
        let ev = Evaluator::for_catalog(sc.service.catalog(), &sc.built.instance);
        cb_engine::execute_with_stats(&ev, &pipeline).map_err(|e| e.to_string())
    }

    /// The same request with one span per layer call; the load path is
    /// `load_verified` taken apart into its parse, verify and compile.
    fn serve_traced(&mut self, v: usize, disk: bool, tr: &mut Tracer) -> Served {
        let var = &self.variants[v];
        let sc = &mut self.scenarios[var.scenario];
        let s = tr.begin("cb-optimizer.prepare_hit");
        let p = sc.service.prepare(&var.query);
        tr.end(s);
        let p = p.map_err(|e| e.to_string())?;
        let pipeline = if disk {
            let s = tr.begin("cb-optimizer.repr_render");
            let text = p.plan.repr.render();
            tr.end(s);
            let s = tr.begin("cb-optimizer.repr_parse");
            let repr = PlanRepr::parse(&text);
            tr.end(s);
            let repr = repr.map_err(|e| e.to_string())?;
            crate::tally::traced_load(tr, sc.service.catalog(), &repr)?
        } else {
            let s = tr.begin("cb-engine.compile");
            let pipeline = cb_engine::compile(&p.plan.outcome.best.query, engine_options());
            tr.end(s);
            pipeline
        };
        let s = tr.begin("cb-engine.execute");
        let ev = Evaluator::for_catalog(sc.service.catalog(), &sc.built.instance);
        let out = cb_engine::execute_with_stats(&ev, &pipeline);
        tr.end(s);
        out.map_err(|e| e.to_string())
    }

    fn check(&self, i: usize, v: usize, served: Served, m: &mut Measured) {
        let var = &self.variants[v];
        match served {
            Ok((rows, stats)) => {
                m.counters.add_exec(&stats);
                if rows != var.reference {
                    m.failures.push(format!(
                        "request {i} ({}): {} rows, reference has {}",
                        var.text,
                        rows.len(),
                        var.reference.len()
                    ));
                }
            }
            Err(e) => m.failures.push(format!("request {i} ({}): {e}", var.text)),
        }
    }

    pub fn measure(&mut self) -> Measured {
        let mut m = Measured::default();
        let reqs = self.reqs.clone();
        for (i, &(v, disk)) in reqs.iter().enumerate() {
            let t = Instant::now();
            let served = self.serve(v, disk);
            m.latencies.push(t.elapsed().as_secs_f64());
            m.classes.push(2 * v + usize::from(disk));
            self.check(i, v, served, &mut m);
        }
        m.pass_len = WEIGHTS.iter().map(|w| w.0).sum::<usize>() * PASS_ROUNDS;
        for sc in &self.scenarios {
            m.counters.add("service_hits", sc.service.stats().hits);
        }
        m
    }

    /// The traced run: every variant's preparation replayed through a
    /// fresh chase context, then the first rounds of the stream served
    /// untraced and traced.
    pub fn trace(&mut self, tr: &mut Tracer, tally: &mut LayerTally) {
        let config = pinned_config();
        let mut shadows: Vec<ChaseContext> = self
            .scenarios
            .iter()
            .map(|s| ChaseContext::new(s.service.catalog().all_constraints(), config.chase.clone()))
            .collect();
        for var in &self.variants {
            let sc = &mut self.scenarios[var.scenario];
            let root = tr.begin("prepare");
            let rep = replay(
                sc.service.catalog(),
                &config,
                &mut shadows[var.scenario],
                &var.text,
                tr,
            );
            tr.end(root);
            let p = sc.service.prepare(&var.query).ok();
            tally.optimization(p.as_ref().map(|p| &p.plan.outcome), rep.as_ref().ok());
        }
        let n = (WEIGHTS.iter().map(|w| w.0).sum::<usize>() * 20).min(self.reqs.len());
        let reqs = self.reqs[..n].to_vec();
        let mut m = Measured::default();
        for (i, &(v, disk)) in reqs.iter().enumerate() {
            tr.request = i;
            let t = Instant::now();
            let plain = self.serve(v, disk);
            let plain_s = t.elapsed().as_secs_f64();
            let t = Instant::now();
            let root = tr.begin("request");
            let traced = self.serve_traced(v, disk, tr);
            tr.end(root);
            tally.timed(plain_s, t.elapsed().as_secs_f64());
            if let Ok((rows, stats)) = &traced {
                tally.execution(rows, stats);
            }
            self.check(i, v, plain, &mut m);
            self.check(i, v, traced, &mut m);
        }
        tally.failures.extend(m.failures);
        for sc in &self.scenarios {
            tally.service_stats(&sc.service.stats());
        }
    }
}

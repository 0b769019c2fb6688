//! Per-layer accounting for the traced run: counters gathered from the
//! layers' public return values plus the span self times, folded into
//! the per-layer metrics `BENCHMARK.json` names.

use std::collections::BTreeSet;

use cb_catalog::Catalog;
use cb_engine::{Instance, Pipeline, PipelineStats, Value};
use cb_optimizer::{OptimizeOutcome, PlanRepr, PlanService, ServiceStats};

use crate::common::pinned_config;
use crate::trace::{Replay, Tracer};

#[derive(Debug, Default)]
pub struct LayerTally {
    pub optimizations: u64,
    pub degradations: u64,
    /// Replays whose best cost differs from `optimize()`'s.
    pub cost_mismatches: u64,
    pub requests: u64,
    pub plain_s: f64,
    pub traced_s: f64,
    pub replay: Replay,
    pub rows_processed: u64,
    pub rows_out: u64,
    pub tables_built: u64,
    pub sel_live: u64,
    pub sel_total: u64,
    pub service: ServiceStats,
    pub materialize_s: f64,
    pub oracle_s: f64,
    pub failures: Vec<String>,
}

/// `PlanRepr::load_verified` taken apart: parse the recorded plan text,
/// verify it against `catalog`, compile it — one span each.
pub fn traced_load(
    tr: &mut Tracer,
    catalog: &Catalog,
    repr: &PlanRepr,
) -> Result<Pipeline, String> {
    let s = tr.begin("pcql.parse");
    let q = pcql::parser::parse_query(repr.best_query_text());
    tr.end(s);
    let q = q.map_err(|e| e.to_string())?;
    let s = tr.begin("cb-analyze.load_verify");
    let report = cb_analyze::Analyzer::new(catalog).verify_loaded_plan(&q);
    tr.end(s);
    if report.has_errors() {
        return Err(format!("loaded plan rejected: {report}"));
    }
    let s = tr.begin("cb-engine.compile");
    let pipeline = cb_engine::compile(&q, cb_engine::CompileOptions::default());
    tr.end(s);
    Ok(pipeline)
}

impl LayerTally {
    /// One request timed untraced and traced.
    pub fn timed(&mut self, plain_s: f64, traced_s: f64) {
        self.requests += 1;
        self.plain_s += plain_s;
        self.traced_s += traced_s;
    }

    /// One optimization: `optimize()`'s outcome next to its replay.
    pub fn optimization(&mut self, outcome: Option<&OptimizeOutcome>, rep: Option<&Replay>) {
        self.optimizations += 1;
        let (Some(o), Some(r)) = (outcome, rep) else {
            self.failures
                .push("optimization or its replay failed".into());
            return;
        };
        self.degradations += o.degradations.len() as u64;
        if o.best.cost != r.best_cost {
            self.cost_mismatches += 1;
            self.failures.push(format!(
                "replay best cost {} != optimize() best cost {}",
                r.best_cost, o.best.cost
            ));
        }
        let t = &mut self.replay;
        t.costed += r.costed;
        t.useful += r.useful;
        t.nodes_visited += r.nodes_visited;
        t.chase_steps += r.chase_steps;
        t.pipelines_verified += r.pipelines_verified;
        t.walk_containment_checks += r.walk_containment_checks;
        t.walk_containment_hits += r.walk_containment_hits;
        t.implication_checks += r.implication_checks;
        t.implication_hits += r.implication_hits;
        t.memo_hits += r.memo_hits;
        t.memo_lookups += r.memo_lookups;
    }

    pub fn execution(&mut self, rows: &BTreeSet<Value>, s: &PipelineStats) {
        self.rows_processed += s.rows_processed();
        self.rows_out += rows.len() as u64;
        self.tables_built += s.tables_built;
        self.sel_live += s.sel_rows_live;
        self.sel_total += s.sel_rows_total;
    }

    /// The correctness oracle, traced: render and parse the plan
    /// document, load it by parts, execute, compare with the reference.
    pub fn oracle(
        &mut self,
        tr: &mut Tracer,
        catalog: &Catalog,
        instance: &Instance,
        outcome: &OptimizeOutcome,
        reference: &BTreeSet<Value>,
    ) {
        let s = tr.begin("cb-optimizer.repr_render");
        let text = PlanRepr::from_outcome(outcome).render();
        tr.end(s);
        let s = tr.begin("cb-optimizer.repr_parse");
        let repr = PlanRepr::parse(&text);
        tr.end(s);
        let result = repr.map_err(|e| e.to_string()).and_then(|repr| {
            let pipeline = traced_load(tr, catalog, &repr)?;
            let s = tr.begin("cb-engine.execute");
            let ev = cb_engine::Evaluator::for_catalog(catalog, instance);
            let out = cb_engine::execute_with_stats(&ev, &pipeline);
            tr.end(s);
            out.map_err(|e| e.to_string())
        });
        match result {
            Ok((rows, stats)) => {
                self.execution(&rows, &stats);
                if &rows != reference {
                    self.failures
                        .push(format!("plan rows differ: {}", outcome.best.query));
                }
            }
            Err(e) => self.failures.push(e),
        }
    }

    /// A prepared query asked for again: a plan-cache hit.
    pub fn prepare_hit(&mut self, tr: &mut Tracer, service: &mut PlanService, text: &str) {
        let q = crate::scenarios::parse(text);
        let s = tr.begin("cb-optimizer.prepare_hit");
        let hit = service.prepare(&q).map(|p| p.cache_hit);
        tr.end(s);
        if hit != Ok(true) {
            self.failures
                .push(format!("re-preparing {text} missed the plan cache"));
        }
    }

    pub fn service_stats(&mut self, s: &ServiceStats) {
        self.service.hits += s.hits;
        self.service.misses += s.misses;
        self.service.invalidations += s.invalidations;
    }

    /// The service layer on one cold request: prepare (a miss), prepare
    /// again (a hit), then swap in rescaled statistics, which must
    /// invalidate the cached plan.
    pub fn service_probe(&mut self, tr: &mut Tracer, catalog: &Catalog, text: &str) {
        let mut service = PlanService::new(catalog.clone(), pinned_config());
        if service.prepare(&crate::scenarios::parse(text)).is_err() {
            self.failures
                .push(format!("service could not prepare {text}"));
            return;
        }
        self.prepare_hit(tr, &mut service, text);
        let mut rescaled = catalog.clone();
        let roots: Vec<String> = catalog.physical().roots.keys().cloned().collect();
        for root in roots {
            if let Some(rs) = catalog.stats().get(&root) {
                let mut rs = rs.clone();
                rs.cardinality = rs.cardinality * 2 + 1;
                rescaled.stats_mut().set(root, rs);
            }
        }
        service.swap_catalog(rescaled);
        self.service_stats(&service.stats());
    }

    /// The per-layer metrics: `(name, value, unit)`.
    pub fn metrics(&self, tr: &Tracer) -> Vec<(String, f64, &'static str)> {
        let st = tr.self_times();
        let total = |name: &str| st.get(name).map_or(0.0, |x| x.0);
        let per_call = |name: &str| st.get(name).map_or(0.0, |x| x.0 / x.1.max(1) as f64);
        let opts = self.optimizations.max(1) as f64;
        let per_opt_ms = |name: &str| 1e3 * total(name) / opts;
        let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
        let r = &self.replay;
        // Coverage: time inside the replayed layers over `optimize()`'s
        // (or the untraced request's) time on the same requests.
        let layer_s = self.traced_s - total("request");
        let n = self.requests.max(1) as f64;
        let mut out: Vec<(String, f64, &'static str)> = vec![
            ("pcql.parse_us".into(), 1e6 * per_call("pcql.parse"), "us"),
            (
                "cb-analyze.preflight_ms".into(),
                per_opt_ms("cb-analyze.preflight"),
                "ms",
            ),
            (
                "cb-analyze.pipeline_verify_ms".into(),
                per_opt_ms("cb-analyze.pipeline_verify"),
                "ms",
            ),
            (
                "cb-analyze.pipelines_verified".into(),
                r.pipelines_verified as f64,
                "count",
            ),
            (
                "cb-analyze.load_verify_us".into(),
                1e6 * per_call("cb-analyze.load_verify"),
                "us",
            ),
            (
                "cb-chase.chase_ms".into(),
                per_opt_ms("cb-chase.chase"),
                "ms",
            ),
            ("cb-chase.chase_steps".into(), r.chase_steps as f64, "count"),
            ("cb-chase.walk_ms".into(), per_opt_ms("cb-chase.walk"), "ms"),
            (
                "cb-chase.nodes_visited".into(),
                r.nodes_visited as f64,
                "count",
            ),
            (
                "cb-chase.containment_checks".into(),
                r.walk_containment_checks as f64,
                "count",
            ),
            (
                "cb-chase.containment_hit_rate".into(),
                ratio(r.walk_containment_hits, r.walk_containment_checks),
                "ratio",
            ),
            (
                "cb-chase.implication_checks".into(),
                r.implication_checks as f64,
                "count",
            ),
            (
                "cb-chase.implication_ms".into(),
                per_opt_ms("cb-chase.implication"),
                "ms",
            ),
            (
                "cb-chase.implication_hit_rate".into(),
                ratio(r.implication_hits, r.implication_checks),
                "ratio",
            ),
            (
                "cb-chase.memo_hit_rate".into(),
                ratio(r.memo_hits, r.memo_lookups),
                "ratio",
            ),
            (
                "cb-optimizer.cleanup_ms".into(),
                per_opt_ms("cb-optimizer.cleanup"),
                "ms",
            ),
            (
                "cb-optimizer.cost_ms".into(),
                per_opt_ms("cb-optimizer.cost"),
                "ms",
            ),
            (
                "cb-optimizer.candidates_costed".into(),
                r.costed as f64,
                "count",
            ),
            (
                "cb-optimizer.useful_ratio".into(),
                ratio(r.useful as u64, r.costed as u64),
                "ratio",
            ),
            (
                "cb-optimizer.degradations".into(),
                self.degradations as f64,
                "count",
            ),
            (
                "cb-optimizer.prepare_hit_us".into(),
                1e6 * per_call("cb-optimizer.prepare_hit"),
                "us",
            ),
            (
                "cb-optimizer.service_hit_rate".into(),
                ratio(self.service.hits, self.service.hits + self.service.misses),
                "ratio",
            ),
            (
                "cb-optimizer.invalidations".into(),
                self.service.invalidations as f64,
                "count",
            ),
            (
                "cb-optimizer.repr_render_us".into(),
                1e6 * per_call("cb-optimizer.repr_render"),
                "us",
            ),
            (
                "cb-optimizer.repr_parse_us".into(),
                1e6 * per_call("cb-optimizer.repr_parse"),
                "us",
            ),
            (
                "cb-engine.compile_us".into(),
                1e6 * per_call("cb-engine.compile"),
                "us",
            ),
            (
                "cb-engine.execute_ms".into(),
                1e3 * per_call("cb-engine.execute"),
                "ms",
            ),
            (
                "cb-engine.rows_processed".into(),
                self.rows_processed as f64,
                "count",
            ),
            ("cb-engine.rows_out".into(), self.rows_out as f64, "count"),
            (
                "cb-engine.tables_built".into(),
                self.tables_built as f64,
                "count",
            ),
            (
                "cb-engine.sel_fill_rate".into(),
                if self.sel_total == 0 {
                    1.0
                } else {
                    ratio(self.sel_live, self.sel_total)
                },
                "ratio",
            ),
            ("cb-engine.materialize_s".into(), self.materialize_s, "s"),
            ("cb-engine.oracle_ms".into(), 1e3 * self.oracle_s, "ms"),
            (
                "trace.replay_coverage".into(),
                if self.plain_s > 0.0 {
                    layer_s / self.plain_s
                } else {
                    0.0
                },
                "ratio",
            ),
            (
                "trace.overhead_ms".into(),
                1e3 * (self.traced_s - self.plain_s) / n,
                "ms",
            ),
            ("trace.spans".into(), tr.spans.len() as f64, "count"),
            (
                "trace.cost_mismatches".into(),
                self.cost_mismatches as f64,
                "count",
            ),
        ];
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }
}

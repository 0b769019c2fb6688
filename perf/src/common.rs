//! What every workload shares: the pinned optimizer configuration, the
//! correctness oracle, deterministic work counters and latency
//! statistics.

use std::collections::{BTreeMap, BTreeSet};

use cb_catalog::Catalog;
use cb_chase::{BackchaseConfig, CacheStats};
use cb_engine::{Evaluator, Instance, PipelineStats, Value};
use cb_optimizer::{OptimizeOutcome, OptimizerConfig, PlanRepr};

/// The configuration `Optimizer::new` builds (`Exhaustive`,
/// `cost_visited`, `max_visited = 4096`), spelled out so that
/// `CB_SEARCH_THREADS` and `CB_MEMO_BYTES` cannot change it.
pub fn pinned_config() -> OptimizerConfig {
    OptimizerConfig {
        backchase: BackchaseConfig {
            max_visited: 4096,
            ..Default::default()
        },
        cost_visited: true,
        threads: 1,
        memo_byte_limit: None,
        ..Default::default()
    }
}

/// Reference rows: the interpreter on the *input* query.
pub fn reference_rows(catalog: &Catalog, instance: &Instance, text: &str) -> BTreeSet<Value> {
    let q = crate::scenarios::parse(text);
    Evaluator::for_catalog(catalog, instance)
        .eval_query(&q)
        .unwrap_or_else(|e| panic!("reference evaluation of {text}: {e}"))
}

/// Checks one optimization outcome against the reference rows: no
/// degradations, a physical best plan, a plan document that round-trips
/// and passes `load_verified`, and loaded-plan rows equal to the
/// reference. Returns the failure, if any, plus the execution counters.
pub fn check_outcome(
    catalog: &Catalog,
    instance: &Instance,
    outcome: &OptimizeOutcome,
    reference: &BTreeSet<Value>,
) -> (Result<(), String>, PipelineStats) {
    let mut stats = PipelineStats::default();
    let result = (|| {
        if !outcome.degradations.is_empty() {
            return Err(format!("degradations: {:?}", outcome.degradations));
        }
        if !catalog.is_physical_query(&outcome.best.query) {
            return Err(format!("best plan is not physical: {}", outcome.best.query));
        }
        let repr = PlanRepr::from_outcome(outcome);
        let parsed = PlanRepr::parse(&repr.render()).map_err(|e| format!("plan document: {e}"))?;
        if parsed != repr {
            return Err("plan document does not round-trip".into());
        }
        let (_, pipeline) = parsed
            .load_verified(catalog)
            .map_err(|e| format!("load_verified: {e}"))?;
        let ev = Evaluator::for_catalog(catalog, instance);
        let (rows, st) =
            cb_engine::execute_with_stats(&ev, &pipeline).map_err(|e| format!("execution: {e}"))?;
        stats = st;
        if &rows != reference {
            return Err(format!(
                "plan rows differ from the reference ({} vs {} rows): {}",
                rows.len(),
                reference.len(),
                outcome.best.query
            ));
        }
        Ok(())
    })();
    (result, stats)
}

/// Deterministic work counters. At `threads = 1` they must repeat
/// exactly across runs of one seed.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Counters(pub BTreeMap<&'static str, u64>);

impl Counters {
    pub fn add(&mut self, name: &'static str, v: u64) {
        *self.0.entry(name).or_default() += v;
    }

    pub fn add_outcome(&mut self, o: &OptimizeOutcome) {
        self.add("nodes_visited", o.nodes_visited as u64);
        self.add("chase_steps", o.chase_steps.len() as u64);
        self.add("candidates", o.candidates.len() as u64);
        let c = &o.cache;
        self.add(
            "containment_checks",
            c.containment_hits + c.containment_misses,
        );
        self.add(
            "implication_checks",
            c.implication_hits + c.implication_misses,
        );
        self.add("memo_hits", c.hits());
        self.add("memo_misses", c.misses());
    }

    pub fn add_exec(&mut self, s: &PipelineStats) {
        self.add("rows_processed", s.rows_processed());
    }

    pub fn render(&self) -> String {
        self.0
            .iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect::<Vec<_>>()
            .join(" ")
    }
}

/// Counter difference `after - before` of two chase-memo snapshots.
pub fn cache_delta(after: &CacheStats, before: &CacheStats) -> CacheStats {
    CacheStats {
        chase_hits: after.chase_hits - before.chase_hits,
        chase_misses: after.chase_misses - before.chase_misses,
        containment_hits: after.containment_hits - before.containment_hits,
        containment_misses: after.containment_misses - before.containment_misses,
        implication_hits: after.implication_hits - before.implication_hits,
        implication_misses: after.implication_misses - before.implication_misses,
        ..CacheStats::default()
    }
}

/// The outcome of the measured pass over a workload's request list.
#[derive(Debug, Default)]
pub struct Measured {
    /// Per-request latency, seconds, in request order.
    pub latencies: Vec<f64>,
    /// Per-request class: requests of one class do the same work.
    pub classes: Vec<usize>,
    /// Requests per pass: the list is a whole number of passes, each
    /// holding the same number of requests of every class.
    pub pass_len: usize,
    pub failures: Vec<String>,
    pub counters: Counters,
}

/// Latency statistics over the *slots* of a pass: the k-th request of
/// class c in a pass fills slot (c, k) in every pass. For the p50 and
/// the throughput each slot keeps its best time over the passes: host
/// contention only ever slows a request down, so the best of several
/// equal requests spread over the run estimates the program's own time.
///
/// The tail is taken per request, over every request of the run: the
/// highest order statistic with at least `beyond` samples and at least
/// 2% of them beyond it (p98 or above), so a stall that hits one request
/// in fifty (a periodic memo reset or eviction, allocator growth, a
/// stall every N requests) shows in it. Each time is first divided by
/// its pass's *slowdown* — the median over the pass of request time ÷
/// its slot's best time — so a slow host phase that stretches a whole
/// pass does not read as tail, while a stall that hits a minority of a
/// pass's requests does.
pub struct SlotStats {
    pub p50_ms: f64,
    pub tail_ms: f64,
    /// The percentile the tail stands for among the requests.
    pub tail_pct: f64,
    /// The same tail over the requests as run, without the per-pass
    /// correction (a diagnostic: it moves with the host).
    pub raw_tail_ms: f64,
    pub requests: usize,
    /// Samples beyond the tail.
    pub beyond: usize,
    /// Slots over their summed best times.
    pub throughput_rps: f64,
    /// Each pass's slowdown, in pass order: how host speed moved during
    /// the run (a diagnostic).
    pub pass_slowdown: Vec<f64>,
}

pub fn slot_stats(m: &Measured, beyond: usize) -> SlotStats {
    let n = m.pass_len.max(1);
    let ms: Vec<f64> = m.latencies.iter().map(|l| l * 1e3).collect();
    let mut slot_of = Vec::with_capacity(ms.len());
    for cls in m.classes.chunks(n) {
        let mut seen: BTreeMap<usize, usize> = BTreeMap::new();
        for &c in cls {
            let k = seen.entry(c).or_default();
            slot_of.push((c, *k));
            *k += 1;
        }
    }
    let mut best: BTreeMap<(usize, usize), f64> = BTreeMap::new();
    for (&l, slot) in ms.iter().zip(&slot_of) {
        let b = best.entry(*slot).or_insert(f64::INFINITY);
        *b = b.min(l);
    }
    let mut pass_slowdown = Vec::new();
    let mut corrected = Vec::with_capacity(ms.len());
    for (lat, slots) in ms.chunks(n).zip(slot_of.chunks(n)) {
        let ratios: Vec<f64> = lat.iter().zip(slots).map(|(l, s)| l / best[s]).collect();
        let slowdown = median(&ratios);
        corrected.extend(lat.iter().map(|l| l / slowdown));
        pass_slowdown.push(slowdown);
    }
    let best: Vec<f64> = best.into_values().collect();
    let beyond = beyond.max(corrected.len() / 50);
    let (tail_ms, tail_pct) = tail(&corrected, beyond);
    SlotStats {
        p50_ms: median(&best),
        tail_ms,
        tail_pct,
        raw_tail_ms: tail(&ms, beyond).0,
        requests: ms.len(),
        beyond,
        throughput_rps: 1e3 * best.len() as f64 / best.iter().sum::<f64>(),
        pass_slowdown,
    }
}

/// Fingerprint of a request list, to prove two seeds differ.
pub fn fingerprint<T: std::hash::Hash>(x: &T) -> u64 {
    use std::hash::Hasher;
    let mut h = std::collections::hash_map::DefaultHasher::new();
    x.hash(&mut h);
    h.finish()
}

/// The median of `xs` (which must be non-empty).
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The tail latency: the highest order statistic with at least
/// `beyond` samples above it, and the percentile it stands for.
pub fn tail(xs: &[f64], beyond: usize) -> (f64, f64) {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let idx = v.len().saturating_sub(beyond + 1);
    (v[idx], 100.0 * (idx + 1) as f64 / v.len() as f64)
}

//! `optimize_cold`: distinct (catalog, query) requests, each parsed and
//! optimized by a fresh `Optimizer` with a fresh `ChaseContext`.
//!
//! Each round holds one request per *shape* — a structure set and query
//! form of the generated R/S family, a `views_scenario(k)` lattice, or a
//! §4 scenario. The seed draws every request's statistics and selection
//! constants and the order within each round; the shapes are fixed, so
//! every seed asks for the same amount of search and runs stay
//! comparable across seeds.

use std::collections::{BTreeSet, HashMap};
use std::time::Instant;

use cb_catalog::Catalog;
use cb_chase::ChaseContext;
use cb_engine::Value;
use cb_optimizer::{OptimizeOutcome, Optimizer};

use crate::common::{check_outcome, pinned_config, reference_rows, Counters, Measured};
use crate::rng::{self, Draw};
use crate::scenarios::{self, Built, GenSpec};
use crate::trace::{replay, Tracer};
use crate::{LayerTally, Setup};

/// Seconds of `--seconds` per round. A round is one pass and the request
/// count is a whole number of rounds: `--seconds 15` gives nine rounds,
/// about 20 s of requests on a 2-core host.
const ROUND_S: f64 = 1.7;

#[derive(Debug, Clone, Copy, Hash)]
enum Shape {
    Gen { structures: u8, self_join: bool },
    ViewsK(usize),
    Indexes,
    Views,
}

/// Generated shapes left out of a round: the one that optimizes in
/// under half a millisecond, and the twelve that take over a quarter of
/// a second (three of them over a second). A round of the rest takes
/// about 2 s, so a run holds several rounds and times every shape
/// several times.
const SKIPPED: [(u8, bool); 13] = [
    (0b00000, false),
    (0b01111, false),
    (0b10111, false),
    (0b11011, false),
    (0b11101, false),
    (0b11111, false),
    (0b01011, true),
    (0b01111, true),
    (0b10011, true),
    (0b10111, true),
    (0b11001, true),
    (0b11011, true),
    (0b11111, true),
];

/// One round: the generated family's 64 structure sets × self-join
/// minus [`SKIPPED`], plus `views_scenario(1..=4)` and two of each §4
/// scenario.
fn round() -> Vec<Shape> {
    let mut out = Vec::new();
    for self_join in [false, true] {
        for structures in 0..32u8 {
            if !SKIPPED.contains(&(structures, self_join)) {
                out.push(Shape::Gen {
                    structures,
                    self_join,
                });
            }
        }
    }
    out.extend((1..=4).map(Shape::ViewsK));
    out.extend([Shape::Indexes, Shape::Indexes, Shape::Views, Shape::Views]);
    out
}

pub struct Request {
    /// Index of the request's shape in the round.
    pub shape: usize,
    pub catalog: Catalog,
    pub text: String,
    /// 0: the R/S instance, 1: the R(A,B,C) instance.
    pub instance: usize,
}

/// The seeded request list for `rounds` rounds.
pub fn requests(seed: u64, rounds: usize) -> Vec<Request> {
    let mut rng = rng::fork(seed, "optimize_cold");
    let mut out = Vec::new();
    for _ in 0..rounds {
        let mut pass = Vec::new();
        for (shape_idx, shape) in round().into_iter().enumerate() {
            pass.push(match shape {
                Shape::Gen {
                    structures,
                    self_join,
                } => {
                    // A fixed query form per structure set.
                    let cond = (structures.wrapping_mul(5) + 1) % 8;
                    let outm = (structures.wrapping_mul(3) + 2) % 8;
                    let g = GenSpec::draw(&mut rng, structures, cond, outm, self_join);
                    Request {
                        shape: shape_idx,
                        catalog: g.catalog(),
                        text: g.query_text(),
                        instance: 0,
                    }
                }
                Shape::ViewsK(k) => Request {
                    shape: shape_idx,
                    catalog: scenarios::views_k_catalog(k, &mut rng),
                    text: scenarios::VIEWS_K_QUERY.to_string(),
                    instance: 0,
                },
                Shape::Indexes => {
                    let catalog = scenarios::indexes_catalog(&mut rng);
                    let (a, b) = (rng.range(0, 20) as i64, rng.range(0, 15) as i64);
                    Request {
                        shape: shape_idx,
                        catalog,
                        text: scenarios::indexes_query_text(a, b),
                        instance: 1,
                    }
                }
                Shape::Views => Request {
                    shape: shape_idx,
                    catalog: scenarios::views_catalog(&mut rng),
                    text: scenarios::views_query_text(),
                    instance: 0,
                },
            });
        }
        rng.shuffle(&mut pass);
        out.extend(pass);
    }
    out
}

/// Fingerprint of the request list: every catalog's statistics and
/// every query.
pub fn list_fingerprint(seed: u64, seconds: u64) -> u64 {
    let keys: Vec<(String, String)> = requests(seed, rounds_for(seconds))
        .iter()
        .map(|r| (r.text.clone(), format!("{:?}", r.catalog.stats())))
        .collect();
    crate::common::fingerprint(&keys)
}

pub fn rounds_for(seconds: u64) -> usize {
    ((seconds as f64 / ROUND_S).round() as usize).max(1)
}

pub struct Cold {
    pub reqs: Vec<Request>,
    instances: Vec<Built>,
    reference: Vec<BTreeSet<Value>>,
}

pub fn setup(seed: u64, seconds: u64) -> Setup<Cold> {
    let reqs = requests(seed, rounds_for(seconds));
    let instances = vec![
        scenarios::rs_small(seed),
        scenarios::rabc(300, 20, 15, seed)
            .checked(&[cb_catalog::scenarios::relational_indexes::catalog()]),
    ];
    let t = Instant::now();
    let mut memo: HashMap<(usize, &str), BTreeSet<Value>> = HashMap::new();
    let reference = reqs
        .iter()
        .map(|r| {
            memo.entry((r.instance, r.text.as_str()))
                .or_insert_with(|| {
                    reference_rows(&r.catalog, &instances[r.instance].instance, &r.text)
                })
                .clone()
        })
        .collect();
    let oracle_s = t.elapsed().as_secs_f64();
    let materialize_s = instances.iter().map(|b| b.materialize_s).sum();
    Setup {
        state: Cold {
            reqs,
            instances,
            reference,
        },
        materialize_s,
        oracle_s,
        counters: Counters::default(),
        failures: Vec::new(),
    }
}

fn optimize(r: &Request) -> Result<OptimizeOutcome, String> {
    let q = pcql::parser::parse_query(&r.text).map_err(|e| e.to_string())?;
    Optimizer::with_config(&r.catalog, pinned_config())
        .optimize(&q)
        .map_err(|e| e.to_string())
}

impl Cold {
    /// One request's correctness check and work counters (untimed).
    fn check(
        &self,
        i: usize,
        outcome: Result<OptimizeOutcome, String>,
    ) -> (Result<(), String>, Counters) {
        let r = &self.reqs[i];
        let mut c = Counters::default();
        let result = outcome.and_then(|o| {
            c.add_outcome(&o);
            let (res, stats) = check_outcome(
                &r.catalog,
                &self.instances[r.instance].instance,
                &o,
                &self.reference[i],
            );
            c.add_exec(&stats);
            res
        });
        (result, c)
    }

    /// The measured pass; `between_passes` runs after each pass (untimed
    /// as far as the requests go).
    pub fn measure(&self, between_passes: &mut dyn FnMut()) -> Measured {
        let mut m = Measured {
            pass_len: round().len(),
            ..Measured::default()
        };
        let mut per_request = Vec::with_capacity(self.reqs.len());
        for (i, r) in self.reqs.iter().enumerate() {
            let t = Instant::now();
            let outcome = optimize(r);
            m.latencies.push(t.elapsed().as_secs_f64());
            m.classes.push(r.shape);
            let (res, c) = self.check(i, outcome);
            if let Err(e) = res {
                m.failures.push(format!("request {i} ({}): {e}", r.text));
            }
            for (k, v) in &c.0 {
                m.counters.add(k, *v);
            }
            per_request.push(c);
            if (i + 1) % m.pass_len == 0 {
                between_passes();
            }
        }
        // Determinism: the first requests, optimized again, must repeat
        // their work counters exactly.
        for (i, expected) in per_request.iter().enumerate().take(3) {
            let (_, again) = self.check(i, optimize(&self.reqs[i]));
            if &again != expected {
                m.failures.push(format!(
                    "request {i} is not deterministic: {} vs {}",
                    expected.render(),
                    again.render()
                ));
            }
        }
        m
    }

    /// The traced run: one round, each request optimized untraced and
    /// then replayed layer by layer.
    pub fn trace(&self, tr: &mut Tracer, tally: &mut LayerTally) {
        let n = round().len().min(self.reqs.len());
        for (i, r) in self.reqs.iter().enumerate().take(n) {
            tr.request = i;
            let t = Instant::now();
            let outcome = optimize(r);
            let plain_s = t.elapsed().as_secs_f64();
            let mut ctx = ChaseContext::new(r.catalog.all_constraints(), pinned_config().chase);
            let t = Instant::now();
            let root = tr.begin("request");
            let rep = replay(&r.catalog, &pinned_config(), &mut ctx, &r.text, tr);
            tr.end(root);
            let traced_s = t.elapsed().as_secs_f64();
            let inst = &self.instances[r.instance].instance;
            tally.timed(plain_s, traced_s);
            tally.optimization(outcome.as_ref().ok(), rep.as_ref().ok());
            if let Ok(o) = &outcome {
                tally.oracle(tr, &r.catalog, inst, o, &self.reference[i]);
            }
        }
        // The service layer on the cold mix: prepare the first requests
        // twice (a miss, then a hit) and swap in the next request's
        // statistics when the catalog shape matches.
        for r in self.reqs.iter().take(8) {
            tally.service_probe(tr, &r.catalog, &r.text);
        }
    }
}

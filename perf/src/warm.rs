//! `reoptimize_warm`: one long-lived `PlanService` per catalog family,
//! warmed in set-up. Each request swaps in reseeded statistics over the
//! same constraints and re-prepares the family's queries: the swap
//! invalidates the plan cache but keeps the chase memos, so every
//! re-preparation runs the search through the memo-hit path.

use std::collections::BTreeSet;
use std::time::Instant;

use cb_catalog::Catalog;
use cb_chase::ChaseContext;
use cb_engine::Value;
use cb_optimizer::PlanService;

use crate::common::{check_outcome, pinned_config, reference_rows, Counters, Measured};
use crate::rng::{self, Draw, Rng};
use crate::scenarios::{self, Built, GenSpec};
use crate::trace::{replay, Tracer};
use crate::{LayerTally, Setup};

/// Seconds of `--seconds` per pass: `--seconds 15` gives ten passes,
/// about 10 s of requests on a 2-core host.
const PASS_S: f64 = 1.5;

/// Rounds per pass.
const PASS_ROUNDS: usize = 6;

#[derive(Debug, Clone, Copy)]
enum Kind {
    ProjDept,
    Indexes,
    Views,
    Gen { structures: u8, self_join: bool },
}

/// ProjDept, both §4 scenarios and three generated catalogs, with the
/// requests each gets per round. The weights put the median request
/// inside the 15–20 ms cluster (§4 views and the two larger generated
/// catalogs) rather than on the edge between two families.
const FAMILIES: [(Kind, usize); 6] = [
    (Kind::ProjDept, 1),
    (Kind::Indexes, 1),
    (Kind::Views, 2),
    (
        Kind::Gen {
            structures: 0b11100,
            self_join: false,
        },
        1,
    ),
    (
        Kind::Gen {
            structures: 0b10011,
            self_join: false,
        },
        2,
    ),
    (
        Kind::Gen {
            structures: 0b11010,
            self_join: true,
        },
        2,
    ),
];

/// A fresh draw of the family's statistics (same structures, same
/// constraints).
fn draw_catalog(kind: Kind, rng: &mut Rng) -> Catalog {
    match kind {
        Kind::ProjDept => scenarios::projdept_catalog(rng),
        Kind::Indexes => scenarios::indexes_catalog(rng),
        Kind::Views => scenarios::views_catalog(rng),
        Kind::Gen {
            structures,
            self_join,
        } => gen_spec(rng, structures, self_join).catalog(),
    }
}

fn gen_spec(rng: &mut Rng, structures: u8, self_join: bool) -> GenSpec {
    let cond = (structures.wrapping_mul(5) + 1) % 8;
    let outm = (structures.wrapping_mul(3) + 2) % 8;
    GenSpec::draw(rng, structures, cond, outm, self_join)
}

fn queries(kind: Kind, rng: &mut Rng) -> Vec<String> {
    match kind {
        Kind::ProjDept => vec![scenarios::projdept_query_text("CitiBank")],
        Kind::Indexes => (0..2)
            .map(|_| {
                scenarios::indexes_query_text(rng.range(0, 20) as i64, rng.range(0, 15) as i64)
            })
            .collect(),
        Kind::Views => vec![scenarios::views_query_text()],
        Kind::Gen {
            structures,
            self_join,
        } => vec![gen_spec(rng, structures, self_join).query_text()],
    }
}

struct Family {
    service: PlanService,
    queries: Vec<String>,
    reference: Vec<BTreeSet<Value>>,
    instance: usize,
    /// The catalog the service was warmed with (the traced replay
    /// warms its own chase context with it).
    initial: Catalog,
}

pub struct Warm {
    families: Vec<Family>,
    /// (family, catalog to swap in), in request order.
    reqs: Vec<(usize, Catalog)>,
    /// 0: R/S, 1: R(A,B,C), 2: ProjDept.
    instances: Vec<Built>,
}

pub fn rounds_for(seconds: u64) -> usize {
    ((seconds as f64 / PASS_S).round() as usize).max(1) * PASS_ROUNDS
}

fn round_len() -> usize {
    FAMILIES.iter().map(|f| f.1).sum()
}

/// Each family's initial catalog and its queries.
fn family_draws(seed: u64) -> Vec<(Catalog, Vec<String>)> {
    let mut rng = rng::fork(seed, "reoptimize_warm/families");
    FAMILIES
        .iter()
        .map(|&(kind, _)| {
            let initial = draw_catalog(kind, &mut rng);
            (initial, queries(kind, &mut rng))
        })
        .collect()
}

/// The requests: every catalog's statistics differ from the ones its
/// family serves before it, so every swap invalidates the family's plans.
fn request_list(seed: u64, rounds: usize) -> Vec<(usize, Catalog)> {
    let mut rng = rng::fork(seed, "reoptimize_warm/requests");
    let mut current: Vec<String> = family_draws(seed)
        .iter()
        .map(|(c, _)| format!("{:?}", c.stats()))
        .collect();
    let mut out = Vec::new();
    for _ in 0..rounds {
        let mut order: Vec<usize> = (0..FAMILIES.len())
            .flat_map(|f| vec![f; FAMILIES[f].1])
            .collect();
        rng.shuffle(&mut order);
        for f in order {
            let catalog = loop {
                let c = draw_catalog(FAMILIES[f].0, &mut rng);
                let stats = format!("{:?}", c.stats());
                if stats != current[f] {
                    current[f] = stats;
                    break c;
                }
            };
            out.push((f, catalog));
        }
    }
    out
}

pub fn list_fingerprint(seed: u64, seconds: u64) -> u64 {
    let keys: Vec<(usize, String)> = request_list(seed, rounds_for(seconds))
        .iter()
        .map(|(f, c)| (*f, format!("{:?}", c.stats())))
        .collect();
    crate::common::fingerprint(&keys)
}

pub fn setup(seed: u64, seconds: u64) -> Setup<Warm> {
    let instances = vec![
        scenarios::rs_small(seed),
        scenarios::rabc(300, 20, 15, seed)
            .checked(&[cb_catalog::scenarios::relational_indexes::catalog()]),
        scenarios::projdept_instance(10, 4, 6, seed)
            .checked(&[cb_catalog::scenarios::projdept::catalog()]),
    ];
    let mut counters = Counters::default();
    let mut oracle_s = 0.0;
    let families = family_draws(seed)
        .into_iter()
        .zip(FAMILIES)
        .map(|((initial, queries), (kind, _))| {
            let instance = match kind {
                Kind::Indexes => 1,
                Kind::ProjDept => 2,
                _ => 0,
            };
            let t = Instant::now();
            let reference = queries
                .iter()
                .map(|q| reference_rows(&initial, &instances[instance].instance, q))
                .collect();
            oracle_s += t.elapsed().as_secs_f64();
            let mut service = PlanService::new(initial.clone(), pinned_config());
            for q in &queries {
                let p = service
                    .prepare(&scenarios::parse(q))
                    .unwrap_or_else(|e| panic!("warming {q}: {e}"));
                counters.add_outcome(&p.plan.outcome);
            }
            Family {
                service,
                queries,
                reference,
                instance,
                initial,
            }
        })
        .collect();
    let materialize_s = instances.iter().map(|b| b.materialize_s).sum();
    Setup {
        state: Warm {
            families,
            reqs: request_list(seed, rounds_for(seconds)),
            instances,
        },
        materialize_s,
        oracle_s,
        counters,
        failures: Vec::new(),
    }
}

impl Warm {
    pub fn measure(&mut self) -> Measured {
        let mut m = Measured::default();
        for (i, (f, catalog)) in self.reqs.iter().enumerate() {
            let fam = &mut self.families[*f];
            let catalog = catalog.clone();
            let t = Instant::now();
            fam.service.swap_catalog(catalog);
            let prepared: Vec<_> = fam
                .queries
                .iter()
                .map(|q| {
                    let q = pcql::parser::parse_query(q).map_err(|e| e.to_string())?;
                    fam.service.prepare(&q).map_err(|e| e.to_string())
                })
                .collect();
            m.latencies.push(t.elapsed().as_secs_f64());
            m.classes.push(*f);
            for (j, p) in prepared.into_iter().enumerate() {
                let res = p.and_then(|p| {
                    if p.cache_hit {
                        return Err("the statistics swap did not invalidate the cached plan".into());
                    }
                    m.counters.add_outcome(&p.plan.outcome);
                    let inst = &self.instances[fam.instance].instance;
                    let (res, stats) = check_outcome(
                        fam.service.catalog(),
                        inst,
                        &p.plan.outcome,
                        &fam.reference[j],
                    );
                    m.counters.add_exec(&stats);
                    res
                });
                if let Err(e) = res {
                    m.failures
                        .push(format!("request {i} query {j} ({}): {e}", fam.queries[j]));
                }
            }
        }
        m.pass_len = round_len() * PASS_ROUNDS;
        for fam in &self.families {
            let s = fam.service.stats();
            m.counters.add("service_misses", s.misses);
            m.counters.add("invalidations", s.invalidations);
        }
        m
    }

    /// The traced run: the first rounds, each request served by the
    /// service untraced and then replayed through a chase context that
    /// shadows the service's (warmed the same way, swapped the same
    /// way).
    pub fn trace(&mut self, tr: &mut Tracer, tally: &mut LayerTally) {
        let config = pinned_config();
        let mut shadows: Vec<ChaseContext> = Vec::new();
        for fam in &self.families {
            let mut ctx = ChaseContext::new(fam.initial.all_constraints(), config.chase.clone());
            let root = tr.begin("warmup");
            for q in &fam.queries {
                let _ = replay(&fam.initial, &config, &mut ctx, q, tr);
            }
            tr.end(root);
            shadows.push(ctx);
        }
        let n = (round_len() * 6).min(self.reqs.len());
        for (i, (f, catalog)) in self.reqs.iter().enumerate().take(n) {
            tr.request = i;
            let fam = &mut self.families[*f];
            let t = Instant::now();
            fam.service.swap_catalog(catalog.clone());
            let outcomes: Vec<_> = fam
                .queries
                .iter()
                .map(|q| fam.service.prepare(&scenarios::parse(q)))
                .collect();
            let plain_s = t.elapsed().as_secs_f64();
            let t = Instant::now();
            let root = tr.begin("request");
            let reps: Vec<_> = fam
                .queries
                .iter()
                .map(|q| replay(catalog, &config, &mut shadows[*f], q, tr))
                .collect();
            tr.end(root);
            let traced_s = t.elapsed().as_secs_f64();
            tally.timed(plain_s, traced_s);
            let inst = &self.instances[fam.instance].instance;
            for (j, (p, rep)) in outcomes.iter().zip(&reps).enumerate() {
                let o = p.as_ref().ok().map(|p| &p.plan.outcome);
                tally.optimization(o, rep.as_ref().ok());
                if let Some(o) = o {
                    tally.oracle(tr, fam.service.catalog(), inst, o, &fam.reference[j]);
                }
                tally.prepare_hit(tr, &mut fam.service, &fam.queries[j]);
            }
        }
        for fam in &self.families {
            tally.service_stats(&fam.service.stats());
        }
    }
}

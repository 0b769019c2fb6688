//! Catalogs, queries and instances the workloads draw from.
//!
//! * The generated R/S family mirrors `tests/generated_scenarios.rs`:
//!   `R(A,B)`, `S(B,C)`, optional secondary indexes `SA`/`SB`, primary
//!   index `IA` (which adds a key on `R.A`), views `V = π_A(R ⋈ S)` and
//!   `W = S`, seeded statistics, selections and an optional self-join.
//! * `views_scenario(k)`: `R ⋈ S` with `k` identical views `V0..V{k-1}`,
//!   the lattice family of experiments E7/E8.
//! * The paper's three scenarios: ProjDept and the two §4 catalogs.
//!
//! Every instance is built once, materialized against every catalog that
//! reads it, and checked to satisfy all of their constraints.

use cb_catalog::scenarios::{projdept, relational_indexes, relational_views};
use cb_catalog::{Catalog, RootStats};
use cb_engine::{Evaluator, Instance, Materializer};
use pcql::types::Type;
use pcql::Query;

use crate::rng::{self, Draw, Rng};

/// One point of the generated R/S space.
#[derive(Debug, Clone)]
pub struct GenSpec {
    pub sa: bool,
    pub sb: bool,
    pub pk: bool,
    pub view_join: bool,
    pub view_s: bool,
    /// Cardinalities of R, S, SA, SB, IA, V, W.
    pub cards: [u64; 7],
    /// Distinct counts of R.A, R.B, S.B, S.C.
    pub distincts: [u64; 4],
    pub fanout: f64,
    /// Bits: `r.A = c0`, `s.C = c1`, `s.B = c2`.
    pub cond_mask: u8,
    /// Bits: output `r.A`, `s.C`, `s.B`.
    pub out_mask: u8,
    pub self_join: bool,
    pub consts: [i64; 3],
}

impl GenSpec {
    /// Seeded statistics and constants over a fixed structure/query
    /// shape. The statistics span empty, tiny and large roots and
    /// inconsistent distinct counts, like the test generator's.
    pub fn draw(
        rng: &mut Rng,
        structures: u8,
        cond_mask: u8,
        out_mask: u8,
        self_join: bool,
    ) -> GenSpec {
        let mut cards = [0u64; 7];
        for c in &mut cards {
            *c = rng.pick(&[1, 5, 120, 4_000, 25_000]);
        }
        let mut distincts = [0u64; 4];
        for d in &mut distincts {
            *d = rng.pick(&[1, 3, 40, 950]);
        }
        GenSpec {
            sa: structures & 1 != 0,
            sb: structures & 2 != 0,
            pk: structures & 4 != 0,
            view_join: structures & 8 != 0,
            view_s: structures & 16 != 0,
            cards,
            distincts,
            fanout: rng.pick(&[0.5, 2.0, 40.0]),
            cond_mask,
            out_mask,
            self_join,
            consts: [
                rng.range(0, 96) as i64,
                rng.range(0, 72) as i64,
                rng.range(0, 24) as i64,
            ],
        }
    }

    pub fn catalog(&self) -> Catalog {
        let mut c = rs_base();
        if self.sa {
            c.add_secondary_index("SA", "R", "A").unwrap();
        }
        if self.sb {
            c.add_secondary_index("SB", "S", "B").unwrap();
        }
        if self.pk {
            c.add_primary_index("IA", "R", "A").unwrap();
        }
        if self.view_join {
            c.add_materialized_view("V", parse(VIEW_JOIN)).unwrap();
        }
        if self.view_s {
            c.add_materialized_view("W", parse("select struct(B = s.B, C = s.C) from S s"))
                .unwrap();
        }
        let stats = c.stats_mut();
        for (i, root) in ["R", "S", "SA", "SB", "IA", "V", "W"].iter().enumerate() {
            let mut rs = RootStats::with_cardinality(self.cards[i]);
            match *root {
                "R" => {
                    rs.distinct.insert("A".into(), self.distincts[0]);
                    rs.distinct.insert("B".into(), self.distincts[1]);
                }
                "S" => {
                    rs.distinct.insert("B".into(), self.distincts[2]);
                    rs.distinct.insert("C".into(), self.distincts[3]);
                }
                "SA" | "SB" => {
                    rs.avg_fanout.insert("".into(), self.fanout);
                }
                _ => {}
            }
            stats.set(*root, rs);
        }
        c
    }

    pub fn query_text(&self) -> String {
        let mut from = vec!["R r", "S s"];
        let mut conds = vec!["r.B = s.B".to_string()];
        if self.cond_mask & 1 != 0 {
            conds.push(format!("r.A = {}", self.consts[0]));
        }
        if self.cond_mask & 2 != 0 {
            conds.push(format!("s.C = {}", self.consts[1]));
        }
        if self.cond_mask & 4 != 0 {
            conds.push(format!("s.B = {}", self.consts[2]));
        }
        if self.self_join {
            from.push("R r2");
            conds.push("r2.A = r.A".into());
        }
        let mut outs = Vec::new();
        if self.out_mask & 1 != 0 {
            outs.push("OA = r.A");
        }
        if self.out_mask & 2 != 0 {
            outs.push("OC = s.C");
        }
        if self.out_mask & 4 != 0 || outs.is_empty() {
            outs.push("OB = s.B");
        }
        format!(
            "select struct({}) from {} where {}",
            outs.join(", "),
            from.join(", "),
            conds.join(" and ")
        )
    }
}

const VIEW_JOIN: &str = "select struct(A = r.A) from R r, S s where r.B = s.B";
const VIEWS_K_DEF: &str = "select struct(A = r.A, C = s.C) from R r, S s where r.B = s.B";

pub fn parse(text: &str) -> Query {
    pcql::parser::parse_query(text).unwrap_or_else(|e| panic!("{text}: {e}"))
}

fn rs_base() -> Catalog {
    let mut c = Catalog::new();
    c.add_logical_relation("R", [("A", Type::Int), ("B", Type::Int)]);
    c.add_logical_relation("S", [("B", Type::Int), ("C", Type::Int)]);
    c.add_direct_mapping("R");
    c.add_direct_mapping("S");
    c
}

/// `R ⋈ S` with `k` copies of the view `π_{A,C}(R ⋈ S)`, seeded
/// statistics.
pub fn views_k_catalog(k: usize, rng: &mut Rng) -> Catalog {
    let mut c = rs_base();
    for i in 0..k {
        c.add_materialized_view(&format!("V{i}"), parse(VIEWS_K_DEF))
            .unwrap();
    }
    let n_r = rng.range(100, 50_000);
    let n_s = rng.range(100, 50_000);
    let stats = c.stats_mut();
    stats.set("R", RootStats::with_cardinality(n_r));
    stats.set("S", RootStats::with_cardinality(n_s));
    for i in 0..k {
        stats.set(
            format!("V{i}"),
            RootStats::with_cardinality(rng.range(1, n_r.min(n_s))),
        );
    }
    c
}

pub const VIEWS_K_QUERY: &str = VIEWS_K_DEF;

/// §4 indexes with seeded statistics; the query's constants are seeded
/// separately by [`indexes_query_text`].
pub fn indexes_catalog(rng: &mut Rng) -> Catalog {
    let mut c = relational_indexes::catalog();
    let n = rng.range(1_000, 200_000);
    relational_indexes::stats_for(&mut c, n, rng.range(2, 500), rng.range(2, 500));
    c
}

pub fn indexes_query_text(a: i64, b: i64) -> String {
    format!("select struct(C = r.C) from R r where r.A = {a} and r.B = {b}")
}

/// §4 views with seeded statistics.
pub fn views_catalog(rng: &mut Rng) -> Catalog {
    let mut c = relational_views::catalog();
    let n_r = rng.range(100, 20_000);
    let n_s = rng.range(100, 20_000);
    relational_views::stats_for(&mut c, n_r, n_s, rng.range(1, n_r));
    c
}

pub fn views_query_text() -> String {
    relational_views::query().to_string()
}

/// ProjDept with seeded statistics at a seeded scale.
pub fn projdept_catalog(rng: &mut Rng) -> Catalog {
    let mut c = projdept::catalog();
    projdept::stats_for(
        &mut c,
        rng.range(10, 2_000),
        rng.range(2, 40),
        rng.range(2, 200),
    );
    c
}

/// The paper's query with the customer constant replaced.
pub fn projdept_query_text(customer: &str) -> String {
    format!(
        r#"select struct(PN = s, PB = p.Budg, DN = d.DName) from depts d, d.DProjs s, Proj p where s = p.PName and p.CustName = "{customer}""#
    )
}

/// Every catalog the small R/S instance serves: the full generated
/// family, `views_scenario(4)`, and §4 views.
fn rs_catalogs() -> Vec<Catalog> {
    let full = GenSpec {
        sa: true,
        sb: true,
        pk: true,
        view_join: true,
        view_s: true,
        cards: [1; 7],
        distincts: [1; 4],
        fanout: 1.0,
        cond_mask: 0,
        out_mask: 0,
        self_join: false,
        consts: [0; 3],
    };
    vec![
        full.catalog(),
        views_k_catalog(4, &mut rng::fork(0, "views_k")),
        relational_views::catalog(),
    ]
}

/// A materialized instance plus the time materializing it took.
pub struct Built {
    pub instance: Instance,
    pub materialize_s: f64,
}

impl Built {
    /// Asserts the instance satisfies every constraint of `catalogs`.
    /// The check is quadratic in places, so it runs on small instances.
    pub fn checked(self, catalogs: &[Catalog]) -> Built {
        for c in catalogs {
            let ev = Evaluator::for_catalog(c, &self.instance);
            let bad = cb_engine::violations(&ev, &c.all_constraints()).expect("constraint check");
            assert!(
                bad.is_empty(),
                "generated instance violates constraints: {bad:?}"
            );
        }
        self
    }
}

fn materialize_all(mut instance: Instance, catalogs: &[Catalog]) -> Built {
    let t = std::time::Instant::now();
    for c in catalogs {
        Materializer::new(c)
            .materialize(&mut instance)
            .expect("materialize");
    }
    Built {
        instance,
        materialize_s: t.elapsed().as_secs_f64(),
    }
}

/// The small R/S instance the cold and warm workloads check plans on,
/// checked against every catalog it serves.
pub fn rs_small(seed: u64) -> Built {
    let base = cb_engine::join_instance(&cb_engine::JoinParams {
        n_r: 96,
        n_s: 72,
        match_fraction: 0.25,
        seed,
    });
    let catalogs = rs_catalogs();
    materialize_all(base, &catalogs).checked(&catalogs)
}

/// An R/S instance for §4 views (`n × n`).
pub fn rs_views(n: usize, match_fraction: f64, seed: u64) -> Built {
    let base = cb_engine::join_instance(&cb_engine::JoinParams {
        n_r: n,
        n_s: n,
        match_fraction,
        seed,
    });
    materialize_all(base, &[relational_views::catalog()])
}

/// An `R(A,B,C)` instance for §4 indexes.
pub fn rabc(n_rows: usize, distinct_a: usize, distinct_b: usize, seed: u64) -> Built {
    let base = cb_engine::rabc_instance(&cb_engine::RabcParams {
        n_rows,
        distinct_a,
        distinct_b,
        seed,
    });
    materialize_all(base, &[relational_indexes::catalog()])
}

/// A ProjDept instance (`n_depts` × `projs_per_dept`).
pub fn projdept_instance(
    n_depts: usize,
    projs_per_dept: usize,
    n_customers: usize,
    seed: u64,
) -> Built {
    let base = cb_engine::projdept_instance(&cb_engine::ProjDeptParams {
        n_depts,
        projs_per_dept,
        n_customers,
        seed,
    });
    materialize_all(base, &[projdept::catalog()])
}

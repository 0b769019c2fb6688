//! Homomorphism (trigger / containment-mapping) search.
//!
//! A homomorphism maps the variables of a dependency side (or of a whole
//! query, for containment) into the variables of a target query such that
//!
//! * every binding `x in P` is matched by a membership fact `v in P'` of
//!   the target with `h(P) ≡ P'` (congruence modulo the target's
//!   conditions), and
//! * every equality of the source is implied by the target's congruence.
//!
//! The search is a deterministic backtracking enumeration over the
//! target's membership facts, checking equalities as soon as both sides
//! are instantiated.

use std::collections::BTreeMap;

use pcql::path::Path;
use pcql::query::{Binding, Equality};

use crate::canon::QueryGraph;

/// A variable assignment from source variables to target paths (always
/// `Path::Var` of target variables in practice).
pub type Assignment = BTreeMap<String, Path>;

/// Enumerates homomorphisms extending `init`, up to `limit` results.
pub fn find_homomorphisms(
    graph: &mut QueryGraph,
    bindings: &[Binding],
    eqs: &[Equality],
    init: &Assignment,
    limit: usize,
) -> Vec<Assignment> {
    let mut results = Vec::new();
    let mut h = init.clone();
    search(graph, bindings, eqs, &mut h, 0, limit, &mut results);
    results
}

/// Does any homomorphism extending `init` exist? Used for chase
/// applicability (extension over the existential side) and implication
/// conclusions.
pub fn extension_exists(
    graph: &mut QueryGraph,
    bindings: &[Binding],
    eqs: &[Equality],
    init: &Assignment,
) -> bool {
    !find_homomorphisms(graph, bindings, eqs, init, 1).is_empty()
}

/// Finds the first homomorphism extending `init` that `accept` approves,
/// testing at most `limit` complete assignments.
///
/// This is the streaming counterpart of [`find_homomorphisms`]: the
/// containment and chase-applicability tests need *one* witness
/// satisfying an extra condition (matching outputs, missing extension),
/// and materializing the full — worst-case exponential — homomorphism
/// set first just to scan it afterwards dominated the backchase profile.
pub fn find_matching_hom(
    graph: &mut QueryGraph,
    bindings: &[Binding],
    eqs: &[Equality],
    init: &Assignment,
    limit: usize,
    accept: &mut dyn FnMut(&mut QueryGraph, &Assignment) -> bool,
) -> Option<Assignment> {
    find_matching_hom_indexed(graph, bindings, eqs, init, limit, &mut |g, h, _| {
        accept(g, h)
    })
}

/// [`find_matching_hom`] whose `accept` also receives the indices into
/// `graph.members` of the membership facts the bindings were matched
/// to, in binding order. Facts are only ever appended, so with an empty
/// `init` these indices identify the assignment for the graph's whole
/// lifetime — the chase keys its satisfied-trigger memo on them.
pub(crate) fn find_matching_hom_indexed(
    graph: &mut QueryGraph,
    bindings: &[Binding],
    eqs: &[Equality],
    init: &Assignment,
    limit: usize,
    accept: &mut dyn FnMut(&mut QueryGraph, &Assignment, &[usize]) -> bool,
) -> Option<Assignment> {
    let mut h = init.clone();
    let mut picked = Vec::with_capacity(bindings.len());
    let mut tested = 0usize;
    search_first(
        graph,
        bindings,
        eqs,
        &mut h,
        &mut picked,
        limit,
        &mut tested,
        accept,
    )
}

#[allow(clippy::too_many_arguments)]
fn search_first(
    graph: &mut QueryGraph,
    bindings: &[Binding],
    eqs: &[Equality],
    h: &mut Assignment,
    picked: &mut Vec<usize>,
    limit: usize,
    tested: &mut usize,
    accept: &mut dyn FnMut(&mut QueryGraph, &Assignment, &[usize]) -> bool,
) -> Option<Assignment> {
    if *tested >= limit {
        return None;
    }
    let depth = picked.len();
    if depth == bindings.len() {
        *tested += 1;
        if eqs_hold(graph, eqs, h, true) && accept(graph, h, picked) {
            return Some(h.clone());
        }
        return None;
    }
    let b = &bindings[depth];
    if !b.src.free_vars().iter().all(|v| h.contains_key(v)) {
        debug_assert!(
            false,
            "unassigned pattern variables in {} (ill-scoped)",
            b.src
        );
        return None;
    }
    let src = b.src.subst(h);
    let src_class = graph.egraph.add_path(&src);
    let src_class = graph.egraph.find(src_class);
    let candidates: Vec<usize> = (0..graph.members.len())
        .filter(|&i| graph.egraph.find(graph.members[i].src_class) == src_class)
        .collect();
    for i in candidates {
        h.insert(b.var.clone(), Path::Var(graph.members[i].var.clone()));
        picked.push(i);
        if eqs_hold(graph, eqs, h, false) {
            if let Some(found) =
                search_first(graph, bindings, eqs, h, picked, limit, tested, accept)
            {
                picked.pop();
                h.remove(&b.var);
                return Some(found);
            }
        }
        picked.pop();
        h.remove(&b.var);
        if *tested >= limit {
            return None;
        }
    }
    None
}

/// Validates a *total* candidate assignment as a homomorphism without
/// searching: every binding variable must map into a membership fact over
/// a congruent source, and every equality must hold. Lets the backchase
/// seed a child subquery's containment check from its parent's witness
/// (the child's surviving variables are a subset of the parent's) and
/// skip the backtracking search entirely on success.
pub fn hom_is_valid(
    graph: &mut QueryGraph,
    bindings: &[Binding],
    eqs: &[Equality],
    h: &Assignment,
) -> bool {
    for b in bindings {
        let Some(image) = h.get(&b.var) else {
            return false;
        };
        if !b.src.free_vars().iter().all(|v| h.contains_key(v)) {
            return false;
        }
        let src = b.src.subst(h);
        if !graph.has_member(&src, image) {
            return false;
        }
    }
    eqs_hold(graph, eqs, h, true)
}

fn search(
    graph: &mut QueryGraph,
    bindings: &[Binding],
    eqs: &[Equality],
    h: &mut Assignment,
    depth: usize,
    limit: usize,
    results: &mut Vec<Assignment>,
) {
    if results.len() >= limit {
        return;
    }
    if depth == bindings.len() {
        if eqs_hold(graph, eqs, h, true) {
            results.push(h.clone());
        }
        return;
    }
    let b = &bindings[depth];
    // Dependent-binding scoping guarantees the source's pattern variables
    // were all assigned by earlier levels (or by `init`); an unassigned
    // one would capture a target variable of the same name, so bail out.
    if !b.src.free_vars().iter().all(|v| h.contains_key(v)) {
        debug_assert!(
            false,
            "unassigned pattern variables in {} (ill-scoped)",
            b.src
        );
        return;
    }
    let src = b.src.subst(h);
    let src_class = graph.egraph.add_path(&src);
    let src_class = graph.egraph.find(src_class);
    let candidates: Vec<String> = graph
        .members
        .iter()
        .filter(|m| graph.egraph.find(m.src_class) == src_class)
        .map(|m| m.var.clone())
        .collect();
    for var in candidates {
        h.insert(b.var.clone(), Path::Var(var));
        // Check the equalities that are now fully instantiated; the rest
        // wait for deeper assignments.
        if eqs_hold(graph, eqs, h, false) {
            search(graph, bindings, eqs, h, depth + 1, limit, results);
        }
        h.remove(&b.var);
        if results.len() >= limit {
            return;
        }
    }
}

/// Checks the equalities whose variables are all assigned; with
/// `require_all`, unassigned equalities fail instead of being deferred.
/// Pattern equalities mention only pattern variables (EPCD scoping), so
/// "assigned" means "present in `h`" — a query variable of the same name
/// must never leak in (that was once a capture bug).
fn eqs_hold(graph: &mut QueryGraph, eqs: &[Equality], h: &Assignment, require_all: bool) -> bool {
    for eq in eqs {
        let vars = eq.free_vars();
        let ready = vars.iter().all(|v| h.contains_key(v));
        if !ready {
            if require_all {
                return false;
            }
            continue;
        }
        let l = eq.0.subst(h);
        let r = eq.1.subst(h);
        if !graph.egraph.paths_equal(&l, &r) {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcql::parser::{parse_dependency, parse_query};

    fn graph(src: &str) -> (QueryGraph, pcql::Query) {
        let q = parse_query(src).unwrap();
        (QueryGraph::of_query(&q), q)
    }

    #[test]
    fn matches_simple_binding() {
        let (mut g, _) = graph("select x from R x, S y");
        let d = parse_dependency("d", "forall (a in R) -> a = a").unwrap();
        let homs = find_homomorphisms(&mut g, &d.forall, &d.premise, &BTreeMap::new(), 10);
        assert_eq!(homs.len(), 1);
        assert_eq!(homs[0]["a"], Path::var("x"));
    }

    #[test]
    fn respects_premise_equalities() {
        let (mut g, _) = graph(r#"select x from R x, R y where x.A = 1 and y.A = 2"#);
        // Premise x.A = 1 only matches the first binding.
        let d = parse_dependency("d", "forall (a in R) where a.A = 1 -> a = a").unwrap();
        let homs = find_homomorphisms(&mut g, &d.forall, &d.premise, &BTreeMap::new(), 10);
        assert_eq!(homs.len(), 1);
        assert_eq!(homs[0]["a"], Path::var("x"));
    }

    #[test]
    fn dependent_bindings_follow_assignments() {
        let (mut g, _) = graph("select s from depts d, d.DProjs s");
        let dep = parse_dependency("d", "forall (a in depts) (b in a.DProjs) -> a = a").unwrap();
        let homs = find_homomorphisms(&mut g, &dep.forall, &dep.premise, &BTreeMap::new(), 10);
        assert_eq!(homs.len(), 1);
        assert_eq!(homs[0]["b"], Path::var("s"));
    }

    #[test]
    fn congruent_sources_match() {
        // y ranges over e.DProjs and e = d, so a binding over d.DProjs
        // must match it.
        let (mut g, _) = graph("select y from depts d, depts e, e.DProjs y where d = e");
        let dep = parse_dependency("d", "forall (a in depts) (b in a.DProjs) -> a = a").unwrap();
        let homs = find_homomorphisms(&mut g, &dep.forall, &dep.premise, &BTreeMap::new(), 10);
        // a can be d or e; b is y in both cases.
        assert_eq!(homs.len(), 2);
        assert!(homs.iter().all(|h| h["b"] == Path::var("y")));
    }

    #[test]
    fn enumerates_all_and_respects_limit() {
        let (mut g, _) = graph("select x from R x, R y, R z");
        let d = parse_dependency("d", "forall (a in R) (b in R) -> a = a").unwrap();
        let all = find_homomorphisms(&mut g, &d.forall, &d.premise, &BTreeMap::new(), 100);
        assert_eq!(all.len(), 9);
        let some = find_homomorphisms(&mut g, &d.forall, &d.premise, &BTreeMap::new(), 4);
        assert_eq!(some.len(), 4);
    }

    #[test]
    fn extension_with_fixed_universals() {
        let (mut g, _) = graph("select p from Proj p, dom(I) i where i = p.PName");
        // With a fixed p, does an i with i = p.PName exist?
        let d = parse_dependency(
            "d",
            "forall (p in Proj) -> exists (i in dom(I)) where i = p.PName",
        )
        .unwrap();
        let init: Assignment = [("p".to_string(), Path::var("p"))].into();
        assert!(extension_exists(&mut g, &d.exists, &d.conclusion, &init));

        // But not one with i = p.Other.
        let d2 = parse_dependency(
            "d",
            "forall (p in Proj) -> exists (i in dom(I)) where i = p.Other",
        )
        .unwrap();
        assert!(!extension_exists(&mut g, &d2.exists, &d2.conclusion, &init));
    }

    #[test]
    fn no_match_when_source_absent() {
        let (mut g, _) = graph("select x from R x");
        let d = parse_dependency("d", "forall (a in S) -> a = a").unwrap();
        assert!(find_homomorphisms(&mut g, &d.forall, &d.premise, &BTreeMap::new(), 10).is_empty());
    }
}

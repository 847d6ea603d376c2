//! Model counting and satisfying-assignment enumeration.
//!
//! `sat_count` computes the number of satisfying assignments over a given
//! variable set (tuple cardinality, once relations are encoded as
//! characteristic functions). [`SatAssignments`] enumerates complete
//! assignments over a variable set — the basis for extracting the actual
//! violating tuples once a constraint is known to be violated.

use crate::error::Result;
use crate::manager::{Bdd, BddManager, Var, LEVEL_TERMINAL};
use crate::quant::VarSet;

impl BddManager {
    /// Number of satisfying assignments of `f` over the variables in `vs`.
    ///
    /// Requires `support(f) ⊆ vs`; variables in `vs` that `f` does not test
    /// contribute a factor of 2 each. Returns an `f64` because counts exceed
    /// `u64` quickly for wide variable sets.
    ///
    /// # Panics
    /// Panics (debug assertion) if `f` tests a variable outside `vs`.
    pub fn sat_count(&mut self, f: Bdd, vs: VarSet) -> f64 {
        let mut memo = std::mem::take(&mut self.sat_memo);
        if memo.count.len() < self.arena.len() {
            memo.count.resize(self.arena.len(), 0.0);
        }
        let vars = &self.varsets[vs.0 as usize].vars;
        let c = sat_count_rec(self, f, vars, &mut memo);
        memo.reset();
        self.sat_memo = memo;
        // Scale for variables above the root.
        let root_level = self.level(f);
        let above = if root_level == LEVEL_TERMINAL {
            vars.len()
        } else {
            vars.partition_point(|&v| v < root_level)
        };
        c * (above as f64).exp2()
    }

    /// One satisfying assignment of `f` restricted to the variables `f`
    /// actually tests (don't-cares omitted), or `None` if unsatisfiable.
    pub fn any_sat(&self, f: Bdd) -> Option<Vec<(Var, bool)>> {
        if f.is_false() {
            return None;
        }
        let mut path = Vec::new();
        let mut cur = f;
        while !cur.is_const() {
            let n = self.node(cur);
            // Prefer a branch that can still reach TRUE; low first for
            // lexicographically small assignments.
            if n.low != 0 {
                path.push((n.level, false));
                cur = Bdd(n.low);
            } else {
                path.push((n.level, true));
                cur = Bdd(n.high);
            }
        }
        Some(path)
    }

    /// Iterate over **all** complete satisfying assignments of `f` with
    /// respect to the variable set `vs` (don't-care variables are expanded
    /// into both values). Requires `support(f) ⊆ vs`.
    pub fn sat_assignments(&self, f: Bdd, vs: VarSet) -> SatAssignments<'_> {
        let vars = self.varsets[vs.0 as usize].vars.clone();
        SatAssignments {
            mgr: self,
            vars,
            stack: if f.is_false() {
                vec![]
            } else {
                vec![(f, 0, Vec::new())]
            },
        }
    }

    /// Enumerate at most `limit` complete satisfying assignments of `f`
    /// over `vs` alongside the **exact** model count from [`sat_count`].
    ///
    /// The pair `(assignments, total)` lets callers report "first `k` of
    /// `n`" without walking the whole (possibly astronomically large)
    /// model set: `assignments.len() < limit` iff the enumeration is
    /// exhaustive, in which case `assignments.len() as f64 == total`.
    ///
    /// [`sat_count`]: BddManager::sat_count
    pub fn sat_assignments_limited(
        &mut self,
        f: Bdd,
        vs: VarSet,
        limit: usize,
    ) -> (Vec<Vec<bool>>, f64) {
        let total = self.sat_count(f, vs);
        let assignments = self.sat_assignments(f, vs).take(limit).collect();
        (assignments, total)
    }

    /// Does the relation/function `f` contain the given tuple of values for
    /// the listed domains? Allocation-free evaluation.
    pub fn contains(
        &self,
        f: Bdd,
        domains: &[crate::fdd::DomainId],
        values: &[u64],
    ) -> Result<bool> {
        let assignment = self.tuple_assignment(domains, values)?;
        Ok(self.eval(f, |v| assignment.iter().any(|&(av, ab)| av == v && ab)))
    }
}

/// `sat_count`'s memo, indexed by node slot and reused between calls so a
/// small count in a large arena allocates nothing. Every non-terminal node
/// of an ROBDD has at least one model, so a zero slot means "not counted
/// yet"; `touched` lists the slots to zero again afterwards.
#[derive(Default)]
pub(crate) struct SatMemo {
    count: Vec<f64>,
    touched: Vec<u32>,
}

impl SatMemo {
    fn reset(&mut self) {
        for &i in &self.touched {
            self.count[i as usize] = 0.0;
        }
        self.touched.clear();
    }
}

/// Number of vars `v` in the sorted `vars` with `v >= level`.
fn vars_at_or_below(vars: &[Var], level: u32) -> usize {
    vars.len() - vars.partition_point(|&v| v < level)
}

/// Count of assignments to the variables of `vars` at or below `f`'s root
/// level; callers scale for skipped variables above it.
fn sat_count_rec(m: &BddManager, f: Bdd, vars: &[Var], memo: &mut SatMemo) -> f64 {
    if f.is_false() {
        return 0.0;
    }
    if f.is_true() {
        return 1.0;
    }
    let c = memo.count[f.0 as usize];
    if c != 0.0 {
        return c;
    }
    let n = m.node(f);
    debug_assert!(
        vars.binary_search(&n.level).is_ok(),
        "sat_count: variable {} tested by f is not in the counting set",
        n.level
    );
    let below_here = vars_at_or_below(vars, n.level) as i32;
    let mut count_side = |child: Bdd| -> f64 {
        let c = sat_count_rec(m, child, vars, memo);
        let child_level = m.level(child);
        let below_child = if child_level == LEVEL_TERMINAL {
            0
        } else {
            vars_at_or_below(vars, child_level) as i32
        };
        // Variables strictly between this node and the child are
        // unconstrained: each doubles the count.
        let skipped = below_here - 1 - below_child;
        c * (skipped as f64).exp2()
    };
    let total = count_side(Bdd(n.low)) + count_side(Bdd(n.high));
    memo.count[f.0 as usize] = total;
    memo.touched.push(f.0);
    total
}

/// Iterator over complete satisfying assignments (see
/// [`BddManager::sat_assignments`]). Yields each assignment as a vector of
/// booleans parallel to the varset's sorted variable list.
pub struct SatAssignments<'a> {
    mgr: &'a BddManager,
    vars: Vec<Var>,
    /// (node, index into vars, bits chosen so far)
    stack: Vec<(Bdd, usize, Vec<bool>)>,
}

impl Iterator for SatAssignments<'_> {
    type Item = Vec<bool>;

    fn next(&mut self) -> Option<Self::Item> {
        while let Some((node, vi, bits)) = self.stack.pop() {
            if vi == self.vars.len() {
                debug_assert!(node.is_const(), "support(f) must be within the varset");
                if node.is_true() {
                    return Some(bits);
                }
                continue;
            }
            if node.is_false() {
                continue;
            }
            let level = self.mgr.level(node);
            let var = self.vars[vi];
            if !node.is_const() && level == var {
                let n = self.mgr.node(node);
                let mut b1 = bits.clone();
                b1.push(true);
                let mut b0 = bits;
                b0.push(false);
                // Push high first so low (lexicographically smaller) pops
                // first.
                self.stack.push((Bdd(n.high), vi + 1, b1));
                self.stack.push((Bdd(n.low), vi + 1, b0));
            } else {
                // Don't-care for this variable: expand both values.
                debug_assert!(node.is_const() || level > var, "variable outside varset");
                let mut b1 = bits.clone();
                b1.push(true);
                let mut b0 = bits;
                b0.push(false);
                self.stack.push((node, vi + 1, b1));
                self.stack.push((node, vi + 1, b0));
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sat_count_simple() {
        let mut m = BddManager::new();
        let v: Vec<Var> = (0..3).map(|_| m.new_var()).collect();
        let x0 = m.var(v[0]).unwrap();
        let x1 = m.var(v[1]).unwrap();
        let f = m.and(x0, x1).unwrap();
        let vs = m.varset(&v);
        // x0 ∧ x1 over 3 vars: x2 free → 2 models.
        assert_eq!(m.sat_count(f, vs), 2.0);
        assert_eq!(m.sat_count(Bdd::TRUE, vs), 8.0);
        assert_eq!(m.sat_count(Bdd::FALSE, vs), 0.0);
    }

    #[test]
    fn sat_count_with_skipped_levels() {
        let mut m = BddManager::new();
        let v: Vec<Var> = (0..4).map(|_| m.new_var()).collect();
        let x0 = m.var(v[0]).unwrap();
        let x3 = m.var(v[3]).unwrap();
        let f = m.biimp(x0, x3).unwrap(); // skips vars 1,2
        let vs = m.varset(&v);
        // Half of 16 assignments satisfy x0 ⇔ x3.
        assert_eq!(m.sat_count(f, vs), 8.0);
    }

    #[test]
    fn sat_count_function_below_leading_vars() {
        let mut m = BddManager::new();
        let v: Vec<Var> = (0..3).map(|_| m.new_var()).collect();
        let x2 = m.var(v[2]).unwrap();
        let vs = m.varset(&v);
        // f = x2 over {x0,x1,x2}: 4 models.
        assert_eq!(m.sat_count(x2, vs), 4.0);
    }

    #[test]
    fn sat_count_memo_does_not_leak_between_calls() {
        let mut m = BddManager::new();
        let v: Vec<Var> = (0..4).map(|_| m.new_var()).collect();
        let x0 = m.var(v[0]).unwrap();
        let x2 = m.var(v[2]).unwrap();
        let f = m.and(x0, x2).unwrap();
        // The x2 node counts 1 model over {x0..x2}, 2 once x3 is counted.
        let narrow = m.varset(&v[..3]);
        let wide = m.varset(&v);
        assert_eq!(m.sat_count(f, narrow), 2.0);
        assert_eq!(m.sat_count(f, wide), 4.0);
        assert_eq!(m.sat_count(f, narrow), 2.0);
        // Nodes made after an earlier count get memo slots too.
        let x3 = m.var(v[3]).unwrap();
        let g = m.or(f, x3).unwrap();
        assert_eq!(m.sat_count(g, wide), 10.0);
    }

    #[test]
    fn any_sat_returns_valid_assignment() {
        let mut m = BddManager::new();
        let v: Vec<Var> = (0..3).map(|_| m.new_var()).collect();
        let x0 = m.var(v[0]).unwrap();
        let x1 = m.var(v[1]).unwrap();
        let nx1 = m.not(x1).unwrap();
        let f = m.and(x0, nx1).unwrap();
        let sat = m.any_sat(f).unwrap();
        assert!(m.eval(f, |var| sat.iter().any(|&(sv, sb)| sv == var && sb)));
        assert!(m.any_sat(Bdd::FALSE).is_none());
        assert_eq!(m.any_sat(Bdd::TRUE), Some(vec![]));
    }

    #[test]
    fn sat_assignments_enumerates_all_models() {
        let mut m = BddManager::new();
        let v: Vec<Var> = (0..3).map(|_| m.new_var()).collect();
        let x0 = m.var(v[0]).unwrap();
        let x2 = m.var(v[2]).unwrap();
        let f = m.or(x0, x2).unwrap();
        let vs = m.varset(&v);
        let models: Vec<Vec<bool>> = m.sat_assignments(f, vs).collect();
        // |x0 ∨ x2| over 3 vars = 6 models.
        assert_eq!(models.len(), 6);
        assert_eq!(models.len() as f64, m.sat_count(f, vs));
        for bits in &models {
            assert!(m.eval(f, |var| bits[var as usize]));
        }
        // All distinct.
        let set: std::collections::HashSet<_> = models.iter().collect();
        assert_eq!(set.len(), 6);
    }

    /// SplitMix64 — deterministic, dependency-free randomness.
    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Property: on small random relations, every assignment enumerated by
    /// `sat_assignments_limited` is `contains`-accepted, the exact total
    /// matches `sat_count`, and the bounded prefix agrees with unbounded
    /// enumeration.
    #[test]
    fn sat_assignments_limited_matches_contains_and_count() {
        let mut seed = 0x5EED_0008_u64;
        for _case in 0..40 {
            let mut m = BddManager::new();
            // Power-of-two domain sizes: every bit pattern decodes to an
            // in-range value, so assignment count == tuple count exactly.
            let d0 = m.add_domain(8).unwrap();
            let d1 = m.add_domain(4).unwrap();
            let doms = [d0, d1];
            let mut f = Bdd::FALSE;
            let mut expect = std::collections::HashSet::new();
            for _ in 0..(splitmix(&mut seed) % 12) {
                let row = [splitmix(&mut seed) % 8, splitmix(&mut seed) % 4];
                f = m.insert_row(f, &doms, &row).unwrap();
                expect.insert(row.to_vec());
            }
            let vs = m.domain_varset(&doms);
            let (all, total) = m.sat_assignments_limited(f, vs, usize::MAX);
            assert_eq!(total, expect.len() as f64);
            assert_eq!(all.len() as f64, total);
            // Enumerated ⊆ contains: decode each assignment (MSB-first per
            // domain, matching value_literals) and probe the relation.
            let vars = m.varset_vars(vs).to_vec();
            for bits in &all {
                let mut values = Vec::new();
                for &d in &doms {
                    let mut v = 0u64;
                    for &var in m.domain_vars(d) {
                        let p = vars.binary_search(&var).unwrap();
                        v = v << 1 | bits[p] as u64;
                    }
                    values.push(v);
                }
                assert!(m.contains(f, &doms, &values).unwrap());
                assert!(expect.contains(&values));
            }
            // The bounded variant yields a prefix of the unbounded order.
            let limit = (splitmix(&mut seed) % 6) as usize;
            let (some, total2) = m.sat_assignments_limited(f, vs, limit);
            assert_eq!(total2, total);
            assert_eq!(some.len(), limit.min(all.len()));
            assert_eq!(some[..], all[..some.len()]);
        }
    }

    #[test]
    fn sat_assignments_of_constants() {
        let mut m = BddManager::new();
        let v: Vec<Var> = (0..2).map(|_| m.new_var()).collect();
        let vs = m.varset(&v);
        assert_eq!(m.sat_assignments(Bdd::FALSE, vs).count(), 0);
        assert_eq!(m.sat_assignments(Bdd::TRUE, vs).count(), 4);
    }
}

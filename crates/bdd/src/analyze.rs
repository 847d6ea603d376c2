//! Structural analysis and don't-care minimization.
//!
//! [`BddManager::level_profile`] reports node counts per variable level —
//! the tool for *seeing* what a variable ordering does to an index (wide
//! levels are where an interleaved ordering pays). [`BddManager::constrain`]
//! is the Coudert–Madre generalized cofactor: minimize a function against a
//! care set, the classic way to shrink constraint BDDs when behaviour
//! outside the care set (e.g. outside the active-domain ranges) is
//! irrelevant.

use crate::cache::{OpCode, OpKind};
use crate::error::Result;
use crate::manager::{Bdd, BddManager, Var};

impl BddManager {
    /// Node count per level for the function rooted at `f`, as
    /// `(level, count)` pairs sorted by level. The sum equals
    /// [`BddManager::size`].
    pub fn level_profile(&self, f: Bdd) -> Vec<(Var, usize)> {
        let mut counts: std::collections::BTreeMap<Var, usize> = Default::default();
        let mut seen =
            std::collections::HashSet::with_hasher(crate::hash::FxBuildHasher::default());
        let mut stack = vec![f.index()];
        while let Some(i) = stack.pop() {
            if i <= 1 || !seen.insert(i) {
                continue;
            }
            let n = self.arena.get(i);
            *counts.entry(n.level).or_insert(0) += 1;
            stack.push(n.low);
            stack.push(n.high);
        }
        counts.into_iter().collect()
    }

    /// Coudert–Madre generalized cofactor `f ⇓ c` ("constrain"): a function
    /// that agrees with `f` everywhere `c` holds, chosen to have a small
    /// BDD. Satisfies `(f ⇓ c) ∧ c ≡ f ∧ c`. Useful for minimizing a
    /// constraint BDD against a care set (e.g. active-domain ranges).
    ///
    /// # Panics
    /// Debug-panics if `c` is the constant false (the care set must be
    /// non-empty).
    pub fn constrain(&mut self, f: Bdd, c: Bdd) -> Result<Bdd> {
        debug_assert!(!c.is_false(), "constrain needs a non-empty care set");
        if c.is_true() || f.is_const() {
            return Ok(f);
        }
        if f == c {
            return Ok(Bdd::TRUE);
        }
        self.count_op(OpKind::Constrain);
        if let Some(r) = self.cache.get(OpCode::Constrain, f.index(), c.index(), 0) {
            return Ok(Bdd(r));
        }
        self.depth_enter();
        let descended = self.constrain_descend(f, c);
        self.depth_exit();
        let r = descended?;
        self.cache
            .put(OpCode::Constrain, f.index(), c.index(), 0, r.index());
        Ok(r)
    }

    fn constrain_descend(&mut self, f: Bdd, c: Bdd) -> Result<Bdd> {
        let (lf, lc) = (self.level(f), self.level(c));
        let top = lf.min(lc);
        let (c0, c1) = if lc == top { self.cofactors(c) } else { (c, c) };
        if c0.is_false() {
            // The care set forces this variable to 1.
            let f1 = if lf == top { self.cofactors(f).1 } else { f };
            self.constrain(f1, c1)
        } else if c1.is_false() {
            let f0 = if lf == top { self.cofactors(f).0 } else { f };
            self.constrain(f0, c0)
        } else {
            let (f0, f1) = if lf == top { self.cofactors(f) } else { (f, f) };
            let low = self.constrain(f0, c0)?;
            let high = self.constrain(f1, c1)?;
            self.mk(top, low, high)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn level_profile_sums_to_size() {
        let mut m = BddManager::new();
        let vars: Vec<Var> = (0..5).map(|_| m.new_var()).collect();
        let mut f = Bdd::FALSE;
        for &v in &vars {
            let x = m.var(v).unwrap();
            f = m.xor(f, x).unwrap();
        }
        let profile = m.level_profile(f);
        let total: usize = profile.iter().map(|&(_, c)| c).sum();
        assert_eq!(total, m.size(f));
        // Parity over 5 vars: 1 node at the top level, 2 at each below.
        assert_eq!(profile[0], (vars[0], 1));
        for &(_, c) in &profile[1..] {
            assert_eq!(c, 2);
        }
    }

    #[test]
    fn constrain_agrees_on_care_set() {
        let mut m = BddManager::new();
        let v: Vec<Var> = (0..4).map(|_| m.new_var()).collect();
        let x0 = m.var(v[0]).unwrap();
        let x1 = m.var(v[1]).unwrap();
        let x2 = m.var(v[2]).unwrap();
        let x3 = m.var(v[3]).unwrap();
        let t = m.xor(x0, x2).unwrap();
        let f = m.imp(t, x3).unwrap();
        let care = m.and(x1, x3).unwrap();
        let g = m.constrain(f, care).unwrap();
        // (f ⇓ c) ∧ c == f ∧ c — the defining identity.
        let lhs = m.and(g, care).unwrap();
        let rhs = m.and(f, care).unwrap();
        assert_eq!(lhs, rhs);
    }

    #[test]
    fn constrain_exhaustive_identity() {
        // Check the defining identity over many (f, c) pairs built from a
        // small function space.
        let mut m = BddManager::new();
        let v: Vec<Var> = (0..3).map(|_| m.new_var()).collect();
        let x: Vec<Bdd> = v.iter().map(|&vv| m.var(vv).unwrap()).collect();
        let mut funcs = vec![x[0], x[1], x[2]];
        funcs.push(m.xor(x[0], x[1]).unwrap());
        funcs.push(m.and(x[1], x[2]).unwrap());
        funcs.push(m.or(x[0], x[2]).unwrap());
        let n0 = m.not(x[0]).unwrap();
        funcs.push(n0);
        for &f in &funcs {
            for &c in &funcs {
                if c.is_false() {
                    continue;
                }
                let g = m.constrain(f, c).unwrap();
                let lhs = m.and(g, c).unwrap();
                let rhs = m.and(f, c).unwrap();
                assert_eq!(lhs, rhs, "f={f:?} c={c:?}");
            }
        }
    }

    #[test]
    fn constrain_simplifies_against_cube_care_sets() {
        // Constraining by a cube is exactly restriction.
        let mut m = BddManager::new();
        let v: Vec<Var> = (0..3).map(|_| m.new_var()).collect();
        let x0 = m.var(v[0]).unwrap();
        let x1 = m.var(v[1]).unwrap();
        let f = m.and(x0, x1).unwrap();
        let cube = m.cube(&[(v[0], true)]).unwrap();
        let g = m.constrain(f, cube).unwrap();
        let r = m.restrict(f, cube).unwrap();
        assert_eq!(g, r);
        assert_eq!(g, x1);
    }
}

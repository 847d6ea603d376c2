//! Finite-domain blocks — BuDDy's `fdd_*` interface.
//!
//! A relational attribute with active domain `{0, …, n-1}` is encoded as a
//! block of `⌈log₂ n⌉` consecutive boolean variables, most-significant bit
//! first (Section 2.1 of the paper: "finite domain blocks"). Declaring
//! domains in a chosen order *is* choosing the attribute-level variable
//! ordering that the paper's `MaxInf-Gain` / `Prob-Converge` heuristics
//! produce: callers create one manager per candidate ordering and declare the
//! attribute domains in that order.

use crate::error::{BddError, Result};
use crate::manager::{Bdd, BddManager, Var};
use crate::quant::VarSet;
use crate::replace::ReplaceMap;

/// Handle to a finite domain (a block of boolean variables).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DomainId(pub(crate) u32);

impl DomainId {
    /// The domain's declaration index in its manager — stable for the
    /// manager's lifetime, usable as a compact cache/report key.
    pub fn index(self) -> u32 {
        self.0
    }
}

#[derive(Debug, Clone)]
pub(crate) struct Domain {
    pub(crate) size: u64,
    /// MSB first; consecutive, ascending levels.
    pub(crate) vars: Vec<Var>,
}

/// Public metadata about a domain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DomainInfo {
    /// Number of values (`0..size` are valid).
    pub size: u64,
    /// Bit width of the block (`⌈log₂ size⌉`, minimum 1).
    pub bits: u32,
    /// Level of the block's most significant variable.
    pub first_var: Var,
}

/// Bit width needed for a domain of `size` values.
pub fn bits_for(size: u64) -> u32 {
    if size <= 1 {
        1
    } else {
        64 - (size - 1).leading_zeros()
    }
}

impl BddManager {
    /// Declare a new finite domain of `size` values. The block's variables
    /// are appended after all existing variables, so declaration order fixes
    /// the attribute ordering.
    pub fn add_domain(&mut self, size: u64) -> Result<DomainId> {
        if size == 0 {
            return Err(BddError::EmptyDomain);
        }
        let bits = bits_for(size);
        let vars: Vec<Var> = (0..bits).map(|_| self.new_var()).collect();
        let id = DomainId(self.domains.len() as u32);
        self.domains.push(Domain { size, vars });
        Ok(id)
    }

    /// Metadata for a domain.
    pub fn domain_info(&self, d: DomainId) -> DomainInfo {
        let dom = &self.domains[d.0 as usize];
        DomainInfo {
            size: dom.size,
            bits: dom.vars.len() as u32,
            first_var: dom.vars[0],
        }
    }

    /// The block's variables, most significant first.
    pub fn domain_vars(&self, d: DomainId) -> &[Var] {
        &self.domains[d.0 as usize].vars
    }

    /// The literal assignment `(var, bit)` pairs encoding `value` in domain
    /// `d`, MSB first.
    pub(crate) fn value_literals(&self, d: DomainId, value: u64) -> Result<Vec<(Var, bool)>> {
        let dom = &self.domains[d.0 as usize];
        if value >= dom.size {
            return Err(BddError::ValueOutOfDomain {
                value,
                domain_size: dom.size,
            });
        }
        let k = dom.vars.len();
        Ok(dom
            .vars
            .iter()
            .enumerate()
            .map(|(j, &v)| (v, value >> (k - 1 - j) & 1 == 1))
            .collect())
    }

    /// Literal assignment for a whole tuple over `domains`.
    pub(crate) fn tuple_assignment(
        &self,
        domains: &[DomainId],
        values: &[u64],
    ) -> Result<Vec<(Var, bool)>> {
        if domains.len() != values.len() {
            return Err(BddError::ArityMismatch {
                expected: domains.len(),
                got: values.len(),
            });
        }
        let mut lits = Vec::with_capacity(domains.len() * 4);
        for (&d, &v) in domains.iter().zip(values) {
            lits.extend(self.value_literals(d, v)?);
        }
        Ok(lits)
    }

    /// The cube `x_d = value` (BuDDy's `fdd_ithvar`).
    pub fn value_cube(&mut self, d: DomainId, value: u64) -> Result<Bdd> {
        let lits = self.value_literals(d, value)?;
        self.cube(&lits)
    }

    /// The cube encoding a whole row over `domains`.
    pub fn row_cube(&mut self, domains: &[DomainId], values: &[u64]) -> Result<Bdd> {
        let lits = self.tuple_assignment(domains, values)?;
        self.cube(&lits)
    }

    /// The set-membership predicate `x_d ∈ values` as a BDD.
    pub fn value_set(&mut self, d: DomainId, values: &[u64]) -> Result<Bdd> {
        let mut cubes = Vec::with_capacity(values.len());
        for &v in values {
            cubes.push(self.value_cube(d, v)?);
        }
        self.or_many(&cubes)
    }

    /// The predicate `x_{d1} = x_{d2}` (BuDDy's `fdd_equals`). Domains of
    /// unequal width are compared on their low bits, with the wider block's
    /// extra high bits required to be zero.
    pub fn domain_eq(&mut self, d1: DomainId, d2: DomainId) -> Result<Bdd> {
        let v1 = self.domains[d1.0 as usize].vars.clone();
        let v2 = self.domains[d2.0 as usize].vars.clone();
        let common = v1.len().min(v2.len());
        let mut parts = Vec::new();
        // Extra MSBs of the wider domain must be 0 for equality to hold.
        for &v in v1[..v1.len() - common]
            .iter()
            .chain(v2[..v2.len() - common].iter())
        {
            parts.push(self.nvar(v)?);
        }
        for (&a, &b) in v1[v1.len() - common..].iter().zip(&v2[v2.len() - common..]) {
            let xa = self.var(a)?;
            let xb = self.var(b)?;
            parts.push(self.biimp(xa, xb)?);
        }
        self.and_many(&parts)
    }

    /// The range constraint `x_d < size(d)` — needed when quantifier results
    /// must be re-confined to valid attribute values.
    pub fn domain_range(&mut self, d: DomainId) -> Result<Bdd> {
        let dom = &self.domains[d.0 as usize];
        let max = dom.size - 1;
        let k = dom.vars.len();
        let vars = dom.vars.clone();
        // Build "value ≤ max" bottom-up, LSB to MSB.
        let mut acc = Bdd::TRUE;
        for j in (0..k).rev() {
            let bit = max >> (k - 1 - j) & 1 == 1;
            acc = if bit {
                // choosing 0 here makes the rest unconstrained
                self.mk(vars[j], Bdd::TRUE, acc)?
            } else {
                self.mk(vars[j], acc, Bdd::FALSE)?
            };
        }
        Ok(acc)
    }

    /// Varset covering the variables of the listed domains (for
    /// quantification and counting).
    pub fn domain_varset(&mut self, domains: &[DomainId]) -> VarSet {
        let mut vars = Vec::new();
        for &d in domains {
            vars.extend_from_slice(&self.domains[d.0 as usize].vars);
        }
        self.varset(&vars)
    }

    /// A [`ReplaceMap`] renaming each `from` block to the paired `to` block
    /// (BuDDy's `fdd_setpairs`). Blocks must have equal widths.
    pub fn domain_replace_map(&mut self, pairs: &[(DomainId, DomainId)]) -> Result<ReplaceMap> {
        let mut var_pairs = Vec::new();
        for &(from, to) in pairs {
            let fv = self.domains[from.0 as usize].vars.clone();
            let tv = self.domains[to.0 as usize].vars.clone();
            if fv.len() != tv.len() {
                return Err(BddError::DomainWidthMismatch {
                    from_bits: fv.len() as u32,
                    to_bits: tv.len() as u32,
                });
            }
            var_pairs.extend(fv.into_iter().zip(tv));
        }
        Ok(self.replace_map(&var_pairs))
    }

    /// Rename domains in one call: `f[from₁/to₁, …]`.
    pub fn replace_domains(&mut self, f: Bdd, pairs: &[(DomainId, DomainId)]) -> Result<Bdd> {
        let map = self.domain_replace_map(pairs)?;
        self.replace(f, map)
    }

    /// Number of tuples in the relation `f` over the given layout. Requires
    /// `support(f)` within the layout's variables.
    pub fn tuple_count(&mut self, f: Bdd, domains: &[DomainId]) -> Result<f64> {
        let vs = self.domain_varset(domains);
        Ok(self.sat_count(f, vs))
    }

    /// Add one tuple to a relation BDD. Average cost is the paper's
    /// "incremental maintenance" operation (Figure 4(b)).
    pub fn insert_row(&mut self, f: Bdd, domains: &[DomainId], values: &[u64]) -> Result<Bdd> {
        let cube = self.row_cube(domains, values)?;
        self.or(f, cube)
    }

    /// Remove one tuple from a relation BDD.
    pub fn delete_row(&mut self, f: Bdd, domains: &[DomainId], values: &[u64]) -> Result<Bdd> {
        let cube = self.row_cube(domains, values)?;
        self.diff(f, cube)
    }

    /// Decode up to `limit` tuples of the relation `f` over `domains` —
    /// the capped variant of [`BddManager::rows`] for potentially huge
    /// violation sets.
    pub fn rows_limited(
        &mut self,
        f: Bdd,
        domains: &[DomainId],
        limit: usize,
    ) -> Result<Vec<Vec<u64>>> {
        let mut out = self.rows_inner(f, domains, Some(limit))?;
        out.truncate(limit);
        Ok(out)
    }

    /// Decode every tuple of the relation `f` over `domains`. Assignments
    /// decoding to values outside a domain's size (possible only for
    /// functions built with complements/quantifiers, never for indexed
    /// relations) are filtered out.
    pub fn rows(&mut self, f: Bdd, domains: &[DomainId]) -> Result<Vec<Vec<u64>>> {
        self.rows_inner(f, domains, None)
    }

    fn rows_inner(
        &mut self,
        f: Bdd,
        domains: &[DomainId],
        limit: Option<usize>,
    ) -> Result<Vec<Vec<u64>>> {
        let vs = self.domain_varset(domains);
        let vars = self.varset_vars(vs).to_vec();
        // Position of each variable inside the sorted varset.
        let pos_of = |v: Var| vars.binary_search(&v).expect("domain var in varset");
        // Precompute decode plans: per domain, the positions of its bits.
        let plans: Vec<(u64, Vec<usize>)> = domains
            .iter()
            .map(|&d| {
                let dom = &self.domains[d.0 as usize];
                (dom.size, dom.vars.iter().map(|&v| pos_of(v)).collect())
            })
            .collect();
        let mut out = Vec::new();
        'outer: for bits in self.sat_assignments(f, vs) {
            let mut row = Vec::with_capacity(domains.len());
            for (size, positions) in &plans {
                let mut v = 0u64;
                for &p in positions {
                    v = v << 1 | bits[p] as u64;
                }
                if v >= *size {
                    continue 'outer;
                }
                row.push(v);
            }
            out.push(row);
            if limit.is_some_and(|l| out.len() >= l) {
                break;
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bits_for_sizes() {
        assert_eq!(bits_for(1), 1);
        assert_eq!(bits_for(2), 1);
        assert_eq!(bits_for(3), 2);
        assert_eq!(bits_for(4), 2);
        assert_eq!(bits_for(5), 3);
        assert_eq!(bits_for(281), 9);
        assert_eq!(bits_for(10894), 14);
        assert_eq!(bits_for(50), 6);
        assert_eq!(bits_for(17557), 15);
        assert_eq!(bits_for(889), 10);
    }

    #[test]
    fn paper_index_widths() {
        // Paper §5.2: (areacode, city, state) needs 9+14+6 = 29 boolean
        // variables; (city, state, zipcode) needs 14+6+15 = 35.
        assert_eq!(bits_for(281) + bits_for(10894) + bits_for(50), 29);
        assert_eq!(bits_for(10894) + bits_for(50) + bits_for(17557), 35);
    }

    #[test]
    fn add_domain_allocates_consecutive_vars() {
        let mut m = BddManager::new();
        let d1 = m.add_domain(10).unwrap();
        let d2 = m.add_domain(4).unwrap();
        assert_eq!(m.domain_vars(d1), &[0, 1, 2, 3]);
        assert_eq!(m.domain_vars(d2), &[4, 5]);
        assert_eq!(m.domain_info(d1).bits, 4);
        assert_eq!(m.domain_info(d2).size, 4);
    }

    #[test]
    fn zero_sized_domain_rejected() {
        let mut m = BddManager::new();
        assert_eq!(m.add_domain(0), Err(BddError::EmptyDomain));
    }

    #[test]
    fn value_cube_encodes_msb_first() {
        let mut m = BddManager::new();
        let d = m.add_domain(8).unwrap(); // 3 bits
        let c = m.value_cube(d, 5).unwrap(); // 101
                                             // MSB (var 0) = 1, var 1 = 0, var 2 = 1
        assert!(m.eval(c, |v| v == 0 || v == 2));
        assert!(!m.eval(c, |v| v == 0 || v == 1));
    }

    #[test]
    fn value_out_of_domain_rejected() {
        let mut m = BddManager::new();
        let d = m.add_domain(5).unwrap();
        assert!(matches!(
            m.value_cube(d, 5),
            Err(BddError::ValueOutOfDomain {
                value: 5,
                domain_size: 5
            })
        ));
    }

    #[test]
    fn value_cubes_are_disjoint_and_cover() {
        let mut m = BddManager::new();
        let d = m.add_domain(6).unwrap();
        let cubes: Vec<Bdd> = (0..6).map(|v| m.value_cube(d, v).unwrap()).collect();
        for i in 0..6 {
            for j in 0..6 {
                let both = m.and(cubes[i], cubes[j]).unwrap();
                if i == j {
                    assert_ne!(both, Bdd::FALSE);
                } else {
                    assert_eq!(both, Bdd::FALSE);
                }
            }
        }
        let any = m.or_many(&cubes).unwrap();
        let range = m.domain_range(d).unwrap();
        assert_eq!(
            any, range,
            "union of value cubes is exactly the range constraint"
        );
    }

    #[test]
    fn value_set_membership() {
        let mut m = BddManager::new();
        let d = m.add_domain(16).unwrap();
        let s = m.value_set(d, &[3, 9, 12]).unwrap();
        for v in 0..16u64 {
            let c = m.value_cube(d, v).unwrap();
            let hit = m.and(s, c).unwrap() != Bdd::FALSE;
            assert_eq!(hit, [3, 9, 12].contains(&v), "value {v}");
        }
    }

    #[test]
    fn domain_eq_same_width() {
        let mut m = BddManager::new();
        let d1 = m.add_domain(8).unwrap();
        let d2 = m.add_domain(8).unwrap();
        let eq = m.domain_eq(d1, d2).unwrap();
        for a in 0..8u64 {
            for b in 0..8u64 {
                let ca = m.value_cube(d1, a).unwrap();
                let cb = m.value_cube(d2, b).unwrap();
                let t = m.and(ca, cb).unwrap();
                let sat = m.and(eq, t).unwrap() != Bdd::FALSE;
                assert_eq!(sat, a == b, "a={a} b={b}");
            }
        }
    }

    #[test]
    fn domain_eq_mixed_width() {
        let mut m = BddManager::new();
        let d1 = m.add_domain(4).unwrap(); // 2 bits
        let d2 = m.add_domain(16).unwrap(); // 4 bits
        let eq = m.domain_eq(d1, d2).unwrap();
        for a in 0..4u64 {
            for b in 0..16u64 {
                let ca = m.value_cube(d1, a).unwrap();
                let cb = m.value_cube(d2, b).unwrap();
                let t = m.and(ca, cb).unwrap();
                let sat = m.and(eq, t).unwrap() != Bdd::FALSE;
                assert_eq!(sat, a == b, "a={a} b={b}");
            }
        }
    }

    #[test]
    fn domain_range_counts_exactly_size() {
        let mut m = BddManager::new();
        for size in [1u64, 2, 3, 5, 7, 8, 100, 281] {
            let d = m.add_domain(size).unwrap();
            let r = m.domain_range(d).unwrap();
            let vs = m.domain_varset(&[d]);
            assert_eq!(m.sat_count(r, vs), size as f64, "size {size}");
        }
    }

    #[test]
    fn replace_domains_moves_function() {
        let mut m = BddManager::new();
        let d1 = m.add_domain(10).unwrap();
        let d2 = m.add_domain(10).unwrap();
        let f = m.value_cube(d1, 7).unwrap();
        let g = m.replace_domains(f, &[(d1, d2)]).unwrap();
        let expected = m.value_cube(d2, 7).unwrap();
        assert_eq!(g, expected);
    }

    #[test]
    fn replace_domains_width_mismatch_rejected() {
        let mut m = BddManager::new();
        let d1 = m.add_domain(10).unwrap();
        let d2 = m.add_domain(100).unwrap();
        assert!(matches!(
            m.domain_replace_map(&[(d1, d2)]),
            Err(BddError::DomainWidthMismatch { .. })
        ));
    }

    #[test]
    fn insert_delete_round_trip() {
        let mut m = BddManager::new();
        let d1 = m.add_domain(20).unwrap();
        let d2 = m.add_domain(20).unwrap();
        let doms = [d1, d2];
        let mut r = Bdd::FALSE;
        r = m.insert_row(r, &doms, &[3, 4]).unwrap();
        r = m.insert_row(r, &doms, &[5, 6]).unwrap();
        assert_eq!(m.tuple_count(r, &doms).unwrap(), 2.0);
        assert!(m.contains(r, &doms, &[3, 4]).unwrap());
        // Re-inserting is idempotent.
        let r2 = m.insert_row(r, &doms, &[3, 4]).unwrap();
        assert_eq!(r, r2);
        // Delete restores.
        let r3 = m.delete_row(r2, &doms, &[5, 6]).unwrap();
        assert!(!m.contains(r3, &doms, &[5, 6]).unwrap());
        assert_eq!(m.tuple_count(r3, &doms).unwrap(), 1.0);
        // Deleting a non-member is a no-op.
        let r4 = m.delete_row(r3, &doms, &[10, 10]).unwrap();
        assert_eq!(r3, r4);
    }

    #[test]
    fn rows_decodes_tuples() {
        let mut m = BddManager::new();
        let d1 = m.add_domain(5).unwrap();
        let d2 = m.add_domain(3).unwrap();
        let doms = [d1, d2];
        let mut r = Bdd::FALSE;
        for t in [[4u64, 2], [0, 0], [2, 1]] {
            r = m.insert_row(r, &doms, &t).unwrap();
        }
        let mut rows = m.rows(r, &doms).unwrap();
        rows.sort();
        assert_eq!(rows, vec![vec![0, 0], vec![2, 1], vec![4, 2]]);
    }

    #[test]
    fn rows_filters_out_of_range_values() {
        let mut m = BddManager::new();
        let d = m.add_domain(5).unwrap(); // 3 bits: raw values 5,6,7 invalid
                                          // TRUE over the block decodes 8 assignments but only 5 valid values.
        let rows = m.rows(Bdd::TRUE, &[d]).unwrap();
        assert_eq!(rows.len(), 5);
    }
}

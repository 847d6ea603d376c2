//! Bulk construction of relation BDDs.
//!
//! Two strategies are provided (DESIGN.md decision D2):
//!
//! * [`BddManager::relation_from_rows`] — the fast path: encode every row as
//!   a packed bit string ordered by variable level, sort, deduplicate, and
//!   build the BDD bottom-up with a divide-and-conquer over the sorted set.
//!   No `apply` calls, no operation-cache traffic; node sharing falls out of
//!   the unique table. Requires the layout to fit in 64 bits (the paper's
//!   widest index is 35).
//! * [`BddManager::relation_from_rows_or_fold`] — the textbook construction
//!   `⋁ᵢ cube(tᵢ)` via size-balanced OR folding; works for any width and
//!   cross-checks the fast path in tests.

use crate::error::{BddError, Result};
use crate::fdd::DomainId;
use crate::manager::{Bdd, BddManager, Var};

impl BddManager {
    /// Build the characteristic-function BDD of a relation given as rows of
    /// domain values. Rows are deduplicated (set semantics). Picks the
    /// sorted-tuple fast path when the layout fits 64 bits, else falls back
    /// to OR folding. The nodes it adds count as kept, not as garbage
    /// ([`BddManager::collection_due`]).
    pub fn relation_from_rows(&mut self, domains: &[DomainId], rows: &[Vec<u64>]) -> Result<Bdd> {
        let live_before = self.live_nodes();
        let total_bits: usize = domains.iter().map(|&d| self.domain_vars(d).len()).sum();
        let root = if total_bits <= 64 {
            self.relation_from_rows_sorted(domains, rows)?
        } else {
            self.relation_from_rows_or_fold(domains, rows)?
        };
        self.keep_since(live_before);
        Ok(root)
    }

    /// The sorted-tuple direct construction (strategy D2, fast path).
    ///
    /// # Errors
    /// [`BddError::TupleTooWide`] if the layout exceeds 64 bits;
    /// [`BddError::DuplicateDomain`] if a domain appears twice.
    pub fn relation_from_rows_sorted(
        &mut self,
        domains: &[DomainId],
        rows: &[Vec<u64>],
    ) -> Result<Bdd> {
        let layout = self.layout(domains)?;
        if layout.levels.len() > 64 {
            return Err(BddError::TupleTooWide {
                bits: layout.levels.len() as u32,
            });
        }
        let mut keys = Vec::with_capacity(rows.len());
        for row in rows {
            keys.push(self.encode_row(&layout, domains, row)?);
        }
        keys.sort_unstable();
        keys.dedup();
        self.build_sorted(&layout.levels, &keys, 0)
    }

    /// The OR-folding construction (strategy D2, baseline/ablation path).
    pub fn relation_from_rows_or_fold(
        &mut self,
        domains: &[DomainId],
        rows: &[Vec<u64>],
    ) -> Result<Bdd> {
        // Balanced folding keeps intermediate BDDs small compared to a
        // left-to-right fold.
        let mut layer: Vec<Bdd> = Vec::with_capacity(rows.len());
        for row in rows {
            layer.push(self.row_cube(domains, row)?);
        }
        while layer.len() > 1 {
            let mut next = Vec::with_capacity(layer.len().div_ceil(2));
            for pair in layer.chunks(2) {
                next.push(if pair.len() == 2 {
                    self.or(pair[0], pair[1])?
                } else {
                    pair[0]
                });
            }
            layer = next;
        }
        Ok(layer.pop().unwrap_or(Bdd::FALSE))
    }

    /// Recursive divide-and-conquer over a sorted, deduplicated key slice.
    /// `depth` indexes into `levels`; the bit for that level sits at
    /// position `levels.len() - 1 - depth` (MSB = first-decided level).
    fn build_sorted(&mut self, levels: &[Var], keys: &[u64], depth: usize) -> Result<Bdd> {
        if keys.is_empty() {
            return Ok(Bdd::FALSE);
        }
        if depth == levels.len() {
            return Ok(Bdd::TRUE);
        }
        let bit = 1u64 << (levels.len() - 1 - depth);
        // keys are sorted, so all bit=0 keys precede bit=1 keys.
        let split = keys.partition_point(|&k| k & bit == 0);
        let low = self.build_sorted(levels, &keys[..split], depth + 1)?;
        let high = self.build_sorted(levels, &keys[split..], depth + 1)?;
        self.mk(levels[depth], low, high)
    }

    fn layout(&self, domains: &[DomainId]) -> Result<Layout> {
        // Collect (level, domain index, significance) for every variable of
        // every domain, sorted by level — the decision order of the BDD.
        let mut entries: Vec<(Var, usize, u32)> = Vec::new();
        for (di, &d) in domains.iter().enumerate() {
            let vars = self.domain_vars(d);
            let k = vars.len() as u32;
            for (j, &v) in vars.iter().enumerate() {
                entries.push((v, di, k - 1 - j as u32));
            }
        }
        entries.sort_unstable_by_key(|&(v, _, _)| v);
        for w in entries.windows(2) {
            if w[0].0 == w[1].0 {
                return Err(BddError::DuplicateDomain);
            }
        }
        Ok(Layout {
            levels: entries.iter().map(|&(v, _, _)| v).collect(),
            sources: entries.iter().map(|&(_, di, bit)| (di, bit)).collect(),
        })
    }

    fn encode_row(&self, layout: &Layout, domains: &[DomainId], row: &[u64]) -> Result<u64> {
        if row.len() != domains.len() {
            return Err(BddError::ArityMismatch {
                expected: domains.len(),
                got: row.len(),
            });
        }
        for (&d, &v) in domains.iter().zip(row) {
            let size = self.domain_info(d).size;
            if v >= size {
                return Err(BddError::ValueOutOfDomain {
                    value: v,
                    domain_size: size,
                });
            }
        }
        let n = layout.levels.len();
        let mut key = 0u64;
        for (i, &(di, bit)) in layout.sources.iter().enumerate() {
            if row[di] >> bit & 1 == 1 {
                key |= 1 << (n - 1 - i);
            }
        }
        Ok(key)
    }
}

struct Layout {
    /// Variable levels in ascending (decision) order.
    levels: Vec<Var>,
    /// For each level: (index of source domain in the layout list, bit
    /// significance within the domain's value).
    sources: Vec<(usize, u32)>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rand_rows(n: usize, doms: &[u64], seed: u64) -> Vec<Vec<u64>> {
        // Tiny deterministic LCG — keeps the unit test dependency-free.
        let mut state = seed
            .wrapping_mul(2862933555777941757)
            .wrapping_add(3037000493);
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        (0..n)
            .map(|_| doms.iter().map(|&s| next() % s).collect())
            .collect()
    }

    #[test]
    fn sorted_build_matches_or_fold() {
        let sizes = [7u64, 13, 4];
        let rows = rand_rows(500, &sizes, 42);
        let mut m1 = BddManager::new();
        let doms1: Vec<DomainId> = sizes.iter().map(|&s| m1.add_domain(s).unwrap()).collect();
        let fast = m1.relation_from_rows_sorted(&doms1, &rows).unwrap();
        let fold = m1.relation_from_rows_or_fold(&doms1, &rows).unwrap();
        assert_eq!(fast, fold, "both strategies yield the canonical BDD");
    }

    #[test]
    fn membership_agrees_with_input_set() {
        let sizes = [9u64, 5];
        let rows = rand_rows(60, &sizes, 7);
        let mut m = BddManager::new();
        let doms: Vec<DomainId> = sizes.iter().map(|&s| m.add_domain(s).unwrap()).collect();
        let r = m.relation_from_rows(&doms, &rows).unwrap();
        let set: std::collections::HashSet<&Vec<u64>> = rows.iter().collect();
        for a in 0..sizes[0] {
            for b in 0..sizes[1] {
                let t = vec![a, b];
                assert_eq!(
                    m.contains(r, &doms, &t).unwrap(),
                    set.contains(&t),
                    "tuple {t:?}"
                );
            }
        }
    }

    #[test]
    fn duplicate_rows_deduplicated() {
        let mut m = BddManager::new();
        let d = m.add_domain(10).unwrap();
        let rows = vec![vec![3], vec![3], vec![3], vec![7]];
        let r = m.relation_from_rows(&[d], &rows).unwrap();
        assert_eq!(m.tuple_count(r, &[d]).unwrap(), 2.0);
    }

    #[test]
    fn empty_relation_is_false() {
        let mut m = BddManager::new();
        let d = m.add_domain(10).unwrap();
        assert_eq!(m.relation_from_rows(&[d], &[]).unwrap(), Bdd::FALSE);
        assert_eq!(m.relation_from_rows_or_fold(&[d], &[]).unwrap(), Bdd::FALSE);
    }

    #[test]
    fn full_relation_is_range_product() {
        let mut m = BddManager::new();
        let d1 = m.add_domain(4).unwrap();
        let d2 = m.add_domain(4).unwrap();
        let rows: Vec<Vec<u64>> = (0..4)
            .flat_map(|a| (0..4).map(move |b| vec![a, b]))
            .collect();
        let r = m.relation_from_rows(&[d1, d2], &rows).unwrap();
        // Every bit pattern is valid (size 4 = 2 bits exactly) → TRUE.
        assert_eq!(r, Bdd::TRUE);
    }

    #[test]
    fn bad_rows_rejected() {
        let mut m = BddManager::new();
        let d1 = m.add_domain(5).unwrap();
        let d2 = m.add_domain(5).unwrap();
        assert!(matches!(
            m.relation_from_rows(&[d1, d2], &[vec![1]]),
            Err(BddError::ArityMismatch { .. })
        ));
        assert!(matches!(
            m.relation_from_rows(&[d1, d2], &[vec![1, 9]]),
            Err(BddError::ValueOutOfDomain { .. })
        ));
        assert!(matches!(
            m.relation_from_rows_sorted(&[d1, d1], &[vec![1, 2]]),
            Err(BddError::DuplicateDomain)
        ));
    }

    #[test]
    fn interleaved_domain_declaration_order() {
        // Declare domains, then list them to the builder in a different
        // order than declaration: layout must still follow variable levels.
        let mut m = BddManager::new();
        let d1 = m.add_domain(8).unwrap();
        let d2 = m.add_domain(8).unwrap();
        let rows = vec![vec![5u64, 2], vec![1, 7]];
        // Build with layout [d2, d1]: row values swap accordingly.
        let swapped: Vec<Vec<u64>> = rows.iter().map(|r| vec![r[1], r[0]]).collect();
        let ra = m.relation_from_rows(&[d1, d2], &rows).unwrap();
        let rb = m.relation_from_rows(&[d2, d1], &swapped).unwrap();
        assert_eq!(
            ra, rb,
            "layout order is presentational; semantics follow domains"
        );
    }

    #[test]
    fn product_relation_size_is_additive() {
        // The motivating Section 2.2 example: R = R1 × R2 gives
        // ‖BDD(R)‖ = ‖BDD(R1)‖ + ‖BDD(R2)‖ (with the right ordering).
        let sizes1 = [32u64, 32];
        let sizes2 = [32u64, 32, 32];
        let rows1 = rand_rows(40, &sizes1, 1);
        let rows2 = rand_rows(40, &sizes2, 2);
        let mut m = BddManager::new();
        let da: Vec<DomainId> = sizes1.iter().map(|&s| m.add_domain(s).unwrap()).collect();
        let db: Vec<DomainId> = sizes2.iter().map(|&s| m.add_domain(s).unwrap()).collect();
        let r1 = m.relation_from_rows(&da, &rows1).unwrap();
        let r2 = m.relation_from_rows(&db, &rows2).unwrap();
        let product = m.and(r1, r2).unwrap();
        assert_eq!(m.size(product), m.size(r1) + m.size(r2));
        // And the tuple count multiplies.
        let all: Vec<DomainId> = da.iter().chain(&db).copied().collect();
        let n1 = m.tuple_count(r1, &da).unwrap();
        let n2 = m.tuple_count(r2, &db).unwrap();
        assert_eq!(m.tuple_count(product, &all).unwrap(), n1 * n2);
    }
}

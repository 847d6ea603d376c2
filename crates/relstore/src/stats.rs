//! Information-theoretic statistics over relations (paper, Section 3).
//!
//! Implements Definition 1 — entropy `H(v̄)`, conditional entropy
//! `H(v′|v̄)`, information gain `I(v̄; v′)` — and the Φ measure of
//! Section 3.2. These drive the `MaxInf-Gain` and `Prob-Converge` variable-
//! ordering heuristics in `relcheck-core`.
//!
//! On the Φ measure: the paper writes `Φ(v̄) = Σ φ log φ` and asks for
//! orderings under which Φ "converges as rapidly as possible to 0", i.e.
//! prefixes whose membership probability φ sits near the extremes 0/1.
//! Taken literally that sum is dominated by domain-size artifacts (we
//! verified it misranks orderings badly); the faithful reading of the
//! paper's own experiment — "a random tuple is drawn, we know the prefix
//! values; how uncertain is membership?" — is the **expected residual
//! binary entropy** of membership over a uniformly random prefix cell:
//!
//! ```text
//! Φ(v̄) = (1/|dom(v̄)|) · Σ_x̄  H_b(φ(v̄ = x̄)),
//! H_b(p) = −p·log₂ p − (1−p)·log₂(1−p)
//! ```
//!
//! which is 0 exactly when every prefix resolves membership (φ ∈ {0,1},
//! the paper's `Φ(V) = 0` invariant), is non-negative, and is minimized by
//! the `argmin` of the paper's Figure 1. The paper's `Σ φ log φ` is the
//! dominant term of `−Σ H_b` up to normalization. Empirically this reading
//! reproduces the paper's headline result (Prob-Converge near-optimal on
//! product-structured relations) where the literal sum does not; see
//! EXPERIMENTS.md.
//!
//! Every statistic here is a sum over the groups of rows that agree on a
//! column prefix. The groups come from **partition refinement**: a
//! [`Partition`] holds a group id per row, and refining it by one column
//! ([`Partition::refine`]) splits each group by that column's values in
//! one linear pass over the rows, with no hashing. Each column's rows are
//! bucketed by value once ([`ValueBuckets`]), so a greedy ordering
//! heuristic that scores every remaining column against the chosen prefix
//! pays one pass per candidate. The sums add one term per group with the
//! group sizes in ascending order ([`entropy_of_sizes`],
//! [`phi_of_sizes`]), so a statistic is a deterministic function of the
//! relation's rows and does not depend on their order.

use crate::relation::Relation;

/// One column's rows bucketed by value: `rows` lists every row index with
/// equal values adjacent, and `ends[k]` is the end of the `k`-th bucket.
/// Buckets follow ascending value.
pub struct ValueBuckets {
    rows: Vec<u32>,
    ends: Vec<u32>,
}

impl ValueBuckets {
    /// Bucket the rows of `col` by value. A column whose largest code is
    /// at most a few times the row count is bucketed by counting, in
    /// `O(rows + largest code)`; a sparser one by sorting the row indices,
    /// so a code near `u32::MAX` never sizes a table.
    pub fn new(col: &[u32]) -> ValueBuckets {
        let n = u32::try_from(col.len()).expect("a relation's row count fits its u32 codes");
        let max = col.iter().copied().max().unwrap_or(0) as usize;
        if max < (col.len().saturating_mul(4)).saturating_add(1024) {
            // Counting sort: `next[v]` starts as bucket v's offset and
            // advances as its rows are placed.
            let mut next = vec![0u32; max + 1];
            for &v in col {
                next[v as usize] += 1;
            }
            let mut ends = Vec::new();
            let mut at = 0u32;
            for slot in &mut next {
                let count = *slot;
                *slot = at;
                at += count;
                if count > 0 {
                    ends.push(at);
                }
            }
            let mut rows = vec![0u32; col.len()];
            for (row, &v) in (0..n).zip(col) {
                let slot = &mut next[v as usize];
                rows[*slot as usize] = row;
                *slot += 1;
            }
            ValueBuckets { rows, ends }
        } else {
            let mut rows: Vec<u32> = (0..n).collect();
            rows.sort_unstable_by_key(|&r| col[r as usize]);
            let mut ends: Vec<u32> = (1..n)
                .filter(|&i| col[rows[i as usize] as usize] != col[rows[i as usize - 1] as usize])
                .collect();
            if n > 0 {
                ends.push(n);
            }
            ValueBuckets { rows, ends }
        }
    }
}

/// The rows of a relation grouped by their values on a column prefix:
/// row `i` is in group `group[i]`, and group `g` holds `sizes[g]` rows.
pub struct Partition {
    group: Vec<u32>,
    sizes: Vec<usize>,
}

impl Partition {
    /// The partition by the empty prefix: one group of all `rows` rows, or
    /// no group when there are none.
    pub fn whole(rows: usize) -> Partition {
        Partition {
            group: vec![0; rows],
            sizes: if rows == 0 { vec![] } else { vec![rows] },
        }
    }

    /// The partition by `cols` of `rel`'s rows: successive refinements of
    /// [`Partition::whole`], one per column.
    pub fn of(rel: &Relation, cols: &[usize]) -> Partition {
        cols.iter().fold(Partition::whole(rel.len()), |p, &c| {
            p.refine(&ValueBuckets::new(rel.col(c)))
        })
    }

    /// Split every group by one more column, given that column's rows
    /// bucketed by value: the new groups are the non-empty (value, group)
    /// cells. One pass over the rows; a dense per-group table maps each
    /// group touched within the current value bucket to its cell, and the
    /// touched list resets it before the next bucket.
    pub fn refine(&self, buckets: &ValueBuckets) -> Partition {
        assert_eq!(
            buckets.rows.len(),
            self.group.len(),
            "buckets and partition must cover the same rows"
        );
        const UNSEEN: u32 = u32::MAX;
        let mut cell = vec![UNSEEN; self.sizes.len()];
        let mut touched: Vec<usize> = Vec::new();
        let mut group = vec![0u32; self.group.len()];
        let mut sizes: Vec<usize> = Vec::new();
        let mut start = 0;
        for &end in &buckets.ends {
            for &row in &buckets.rows[start..end as usize] {
                let g = self.group[row as usize] as usize;
                if cell[g] == UNSEEN {
                    // Cell ids stay below the row count, so never UNSEEN.
                    cell[g] = sizes.len() as u32;
                    sizes.push(0);
                    touched.push(g);
                }
                let id = cell[g];
                sizes[id as usize] += 1;
                group[row as usize] = id;
            }
            for g in touched.drain(..) {
                cell[g] = UNSEEN;
            }
            start = end as usize;
        }
        Partition { group, sizes }
    }

    /// Number of groups.
    pub fn groups(&self) -> usize {
        self.sizes.len()
    }

    /// The group sizes in ascending order — the order every sum here
    /// adds its terms in.
    pub fn sorted_sizes(&self) -> Vec<usize> {
        let mut sizes = self.sizes.clone();
        sizes.sort_unstable();
        sizes
    }
}

/// Multiplicities of the distinct value combinations in the given columns,
/// in ascending order. With `cols` empty this is `[rel.len()]` for a
/// non-empty relation and `[]` otherwise.
pub fn group_sizes(rel: &Relation, cols: &[usize]) -> Vec<usize> {
    Partition::of(rel, cols).sorted_sizes()
}

/// Number of distinct value combinations in the given columns. With `cols`
/// empty this is 1 for a non-empty relation and 0 otherwise; it never
/// exceeds `rel.len()`. The planner's R4 cost gate reads it only when the
/// row counts alone do not decide the gate, because it groups every row.
pub fn distinct_count(rel: &Relation, cols: &[usize]) -> usize {
    Partition::of(rel, cols).groups()
}

/// `−Σ p·log₂ p` over groups of the given sizes out of `rows` rows, one
/// term per group in the order given (ascending, for a deterministic sum).
pub fn entropy_of_sizes(sizes: &[usize], rows: usize) -> f64 {
    let n = rows as f64;
    sizes
        .iter()
        .map(|&c| {
            let p = c as f64 / n;
            -p * p.log2()
        })
        .sum()
}

/// Entropy `H(v̄) = −Σ p(v̄=x̄) log₂ p(v̄=x̄)` with `p` the empirical
/// distribution over the relation's rows. Zero for an empty relation.
pub fn entropy(rel: &Relation, cols: &[usize]) -> f64 {
    if rel.is_empty() {
        return 0.0;
    }
    entropy_of_sizes(&group_sizes(rel, cols), rel.len())
}

/// Conditional entropy `H(target | given) = H(given ∪ target) − H(given)`
/// (chain rule).
pub fn cond_entropy(rel: &Relation, given: &[usize], target: usize) -> f64 {
    let mut all = given.to_vec();
    all.push(target);
    (entropy(rel, &all) - entropy(rel, given)).max(0.0)
}

/// Information gain `I(given; target) = H(given) − H(target | given)` —
/// exactly Definition 1 of the paper (note this is *not* symmetric mutual
/// information; it follows the paper's formula).
pub fn info_gain(rel: &Relation, given: &[usize], target: usize) -> f64 {
    entropy(rel, given) - cond_entropy(rel, given, target)
}

/// The Φ measure of Section 3.2, in the expected-residual-uncertainty
/// reading (see module docs): the mean, over a uniformly random prefix
/// cell `x̄ ∈ dom(v̄)`, of the binary entropy of the membership probability
/// `φ(v̄=x̄) = ‖R|v̄=x̄‖ / Π_{v ∉ v̄} |dom(v)|`. Zero iff every prefix cell
/// already decides membership; lower = faster convergence. The cells'
/// terms are added with the cell sizes in ascending order
/// ([`phi_of_sizes`]), so the value does not depend on row order.
///
/// `dom_sizes` gives `|dom(v)|` for **every** column of the relation
/// (aligned with the schema).
pub fn phi_measure(rel: &Relation, cols: &[usize], dom_sizes: &[u64]) -> f64 {
    assert_eq!(
        dom_sizes.len(),
        rel.arity(),
        "dom_sizes must cover every column of the relation"
    );
    phi_of_sizes(&group_sizes(rel, cols), cols, dom_sizes)
}

/// Φ of the prefix `cols` from the sizes of its observed cells, given in
/// ascending order and summed in that order. `dom_sizes` covers every
/// column of the relation. [`phi_measure`] and the `Prob-Converge`
/// heuristic both score through this one sum, so they agree bit for bit.
pub fn phi_of_sizes(sizes: &[usize], cols: &[usize], dom_sizes: &[u64]) -> f64 {
    let denom: f64 = (0..dom_sizes.len())
        .filter(|c| !cols.contains(c))
        .map(|c| dom_sizes[c] as f64)
        .product();
    let prefix_space: f64 = cols.iter().map(|&c| dom_sizes[c] as f64).product();
    let total: f64 = sizes
        .iter()
        .map(|&c| {
            let phi = c as f64 / denom;
            if phi <= 0.0 || phi >= 1.0 {
                0.0 // membership fully resolved at this cell
            } else {
                -phi * phi.log2() - (1.0 - phi) * (1.0 - phi).log2()
            }
        })
        .sum();
    // Unobserved prefix cells have φ = 0 (resolved) and contribute nothing.
    total / prefix_space
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::relation::Schema;
    use std::collections::BTreeMap;

    fn rel(rows: Vec<Vec<u32>>) -> Relation {
        let arity = rows.first().map_or(2, Vec::len);
        let cols: Vec<(String, String)> = (0..arity)
            .map(|i| (format!("c{i}"), format!("k{i}")))
            .collect();
        let refs: Vec<(&str, &str)> = cols.iter().map(|(n, c)| (n.as_str(), c.as_str())).collect();
        Relation::from_rows(Schema::new(&refs), rows).unwrap()
    }

    #[test]
    fn entropy_of_uniform_column() {
        // 4 equally frequent values → H = 2 bits.
        let r = rel(vec![vec![0, 0], vec![1, 0], vec![2, 0], vec![3, 0]]);
        assert!((entropy(&r, &[0]) - 2.0).abs() < 1e-12);
        // Constant column → H = 0.
        assert!(entropy(&r, &[1]).abs() < 1e-12);
    }

    #[test]
    fn entropy_of_skewed_column() {
        // p = (3/4, 1/4): H = 0.811278…
        let r = rel(vec![vec![0, 0], vec![0, 1], vec![0, 2], vec![1, 3]]);
        let expected = -(0.75f64 * 0.75f64.log2() + 0.25 * 0.25f64.log2());
        assert!((entropy(&r, &[0]) - expected).abs() < 1e-12);
    }

    #[test]
    fn joint_entropy_at_least_marginal() {
        let r = rel(vec![
            vec![0, 0],
            vec![0, 1],
            vec![1, 0],
            vec![1, 1],
            vec![1, 0],
        ]);
        assert!(entropy(&r, &[0, 1]) >= entropy(&r, &[0]) - 1e-12);
        assert!(entropy(&r, &[0, 1]) >= entropy(&r, &[1]) - 1e-12);
    }

    #[test]
    fn cond_entropy_zero_when_functionally_determined() {
        // col1 = col0 mod 2 → H(col1 | col0) = 0.
        let rows: Vec<Vec<u32>> = (0..8).map(|i| vec![i, i % 2]).collect();
        let r = rel(rows);
        assert!(cond_entropy(&r, &[0], 1).abs() < 1e-12);
        // But H(col0 | col1) > 0: col1 doesn't determine col0.
        assert!(cond_entropy(&r, &[1], 0) > 1.0);
    }

    #[test]
    fn info_gain_matches_definition() {
        let r = rel(vec![vec![0, 0], vec![0, 1], vec![1, 2], vec![1, 3]]);
        let ig = info_gain(&r, &[0], 1);
        let manual = entropy(&r, &[0]) - (entropy(&r, &[0, 1]) - entropy(&r, &[0]));
        assert!((ig - manual).abs() < 1e-12);
    }

    #[test]
    fn group_sizes_empty_cases() {
        let r = rel(vec![]);
        assert!(group_sizes(&r, &[0]).is_empty());
        let r2 = rel(vec![vec![1, 2], vec![3, 4]]);
        assert_eq!(group_sizes(&r2, &[]), vec![2]);
    }

    #[test]
    fn distinct_count_groups_the_selected_columns() {
        // Rows must be distinct: Relation has set semantics and dedupes.
        let r = rel(vec![vec![0, 0], vec![0, 1], vec![1, 2], vec![1, 3]]);
        assert_eq!(distinct_count(&r, &[0]), 2);
        assert_eq!(distinct_count(&r, &[0, 1]), 4);
        assert_eq!(distinct_count(&r, &[]), 1);
        let empty = rel(vec![]);
        assert_eq!(distinct_count(&empty, &[0]), 0);
    }

    #[test]
    fn phi_zero_when_fully_determined() {
        // With all columns selected, φ ∈ {0, 1} (paper: Φ(V) = 0).
        let r = rel(vec![vec![0, 1], vec![2, 3]]);
        let phi = phi_measure(&r, &[0, 1], &[4, 4]);
        assert!(phi.abs() < 1e-12);
    }

    #[test]
    fn phi_prefers_discriminating_prefixes() {
        // R = {(a, b) : b = a} over dom 4×4. Knowing column 0 leaves exactly
        // one valid completion out of 4 → φ = 1/4 per cell, 4 cells,
        // normalized by |dom(col0)| = 4: Φ = H_b(1/4).
        let rows: Vec<Vec<u32>> = (0..4).map(|i| vec![i, i]).collect();
        let r = rel(rows);
        let phi0 = phi_measure(&r, &[0], &[4, 4]);
        let hb = |p: f64| -p * p.log2() - (1.0 - p) * (1.0 - p).log2();
        assert!((phi0 - hb(0.25)).abs() < 1e-12, "got {phi0}");
    }

    #[test]
    fn phi_decreases_along_resolving_prefixes() {
        // For the diagonal relation, knowing both columns resolves
        // membership completely; knowing one leaves residual uncertainty.
        let rows: Vec<Vec<u32>> = (0..8).map(|i| vec![i, i]).collect();
        let r = rel(rows);
        let one = phi_measure(&r, &[0], &[8, 8]);
        let both = phi_measure(&r, &[0, 1], &[8, 8]);
        assert!(one > 0.0);
        assert!(both.abs() < 1e-12);
        assert!(both < one);
    }

    /// The reference grouping: count each row's key in a `BTreeMap`, then
    /// sort the counts ascending.
    fn naive_group_sizes(r: &Relation, cols: &[usize]) -> Vec<usize> {
        let mut groups: BTreeMap<Vec<u32>, usize> = BTreeMap::new();
        for i in 0..r.len() {
            *groups
                .entry(cols.iter().map(|&c| r.col(c)[i]).collect())
                .or_insert(0) += 1;
        }
        let mut sizes: Vec<usize> = groups.into_values().collect();
        sizes.sort_unstable();
        sizes
    }

    /// A seeded relation of `len` draws over `arity` columns of domain
    /// `dom` (duplicates dedupe away), from a SplitMix64 stream.
    fn seeded(arity: usize, dom: u32, len: usize, seed: u64) -> Relation {
        let mut state = seed;
        let mut next = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let rows: Vec<Vec<u32>> = (0..len)
            .map(|_| (0..arity).map(|_| (next() % dom as u64) as u32).collect())
            .collect();
        rel(rows)
    }

    #[test]
    fn group_sizes_match_a_naive_grouping_sorted_ascending() {
        for seed in 0..60u64 {
            let arity = 1 + (seed % 4) as usize;
            let dom = [2, 3, 7, 50][(seed / 4 % 4) as usize];
            let r = seeded(arity, dom, (seed as usize * 37) % 400, seed);
            // Every prefix of the schema order and of its reverse.
            let fwd: Vec<usize> = (0..arity).collect();
            let rev: Vec<usize> = (0..arity).rev().collect();
            for k in 0..=arity {
                for cols in [&fwd[..k], &rev[..k]] {
                    let got = group_sizes(&r, cols);
                    assert_eq!(
                        got,
                        naive_group_sizes(&r, cols),
                        "seed {seed} cols {cols:?}"
                    );
                    assert_eq!(distinct_count(&r, cols), got.len());
                    assert_eq!(got.iter().sum::<usize>(), r.len());
                }
            }
        }
    }

    #[test]
    fn group_sizes_of_codes_near_u32_max() {
        // Ten rows whose codes sit at the top of the u32 range: bucketing
        // them must sort, not size a table by the largest code.
        let rows: Vec<Vec<u32>> = (0..10u32)
            .map(|i| vec![u32::MAX - i % 3, u32::MAX - i, i % 2])
            .collect();
        let r = rel(rows);
        for cols in [&[0][..], &[1], &[0, 2], &[2, 0], &[0, 1, 2]] {
            assert_eq!(group_sizes(&r, cols), naive_group_sizes(&r, cols));
        }
        assert_eq!(group_sizes(&r, &[0]), vec![3, 3, 4]);
        assert_eq!(distinct_count(&r, &[1]), 10);
    }

    #[test]
    fn statistics_ignore_row_order() {
        // Reversing the rows must leave every sum bit-identical: the terms
        // are added in ascending group-size order.
        let r = seeded(4, 5, 300, 11);
        let rows: Vec<Vec<u32>> = r.rows().collect();
        let back = rel(rows.into_iter().rev().collect());
        let doms = [5, 5, 5, 5];
        for cols in [&[0][..], &[2, 1], &[3, 0, 1]] {
            assert_eq!(entropy(&r, cols).to_bits(), entropy(&back, cols).to_bits());
            assert_eq!(
                phi_measure(&r, cols, &doms).to_bits(),
                phi_measure(&back, cols, &doms).to_bits()
            );
        }
    }
}

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

use crate::relation::Relation;
use std::collections::HashMap;

/// Multiplicities of the distinct value combinations in the given columns.
pub fn group_sizes(rel: &Relation, cols: &[usize]) -> Vec<usize> {
    if cols.is_empty() {
        return if rel.is_empty() {
            vec![]
        } else {
            vec![rel.len()]
        };
    }
    // Pack each key into a u128 when the bit budget allows (it always does
    // for the paper's ≤5 attributes); otherwise fall back to vector keys.
    let widths: Vec<u32> = cols
        .iter()
        .map(|&c| {
            let max = rel.col(c).iter().copied().max().unwrap_or(0);
            (32 - (max | 1).leading_zeros()).max(1)
        })
        .collect();
    let total: u32 = widths.iter().sum();
    if total <= 128 {
        let mut groups: HashMap<u128, usize> = HashMap::with_capacity(rel.len());
        for i in 0..rel.len() {
            let mut key = 0u128;
            for (&c, &w) in cols.iter().zip(&widths) {
                key = key << w | rel.col(c)[i] as u128;
            }
            *groups.entry(key).or_insert(0) += 1;
        }
        groups.into_values().collect()
    } else {
        let mut groups: HashMap<Vec<u32>, usize> = HashMap::with_capacity(rel.len());
        for i in 0..rel.len() {
            let key: Vec<u32> = cols.iter().map(|&c| rel.col(c)[i]).collect();
            *groups.entry(key).or_insert(0) += 1;
        }
        groups.into_values().collect()
    }
}

/// Number of distinct value combinations in the given columns. With `cols`
/// empty this is 1 for a non-empty relation and 0 otherwise; it never
/// exceeds `rel.len()`. The planner's R4 cost gate reads it only when the
/// row counts alone do not decide the gate, because it groups every row.
pub fn distinct_count(rel: &Relation, cols: &[usize]) -> usize {
    group_sizes(rel, cols).len()
}

/// Entropy `H(v̄) = −Σ p(v̄=x̄) log₂ p(v̄=x̄)` with `p` the empirical
/// distribution over the relation's rows. Zero for an empty relation.
pub fn entropy(rel: &Relation, cols: &[usize]) -> f64 {
    let n = rel.len() as f64;
    if rel.is_empty() {
        return 0.0;
    }
    group_sizes(rel, cols)
        .into_iter()
        .map(|c| {
            let p = c as f64 / n;
            -p * p.log2()
        })
        .sum()
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
/// already decides membership; lower = faster convergence.
///
/// `dom_sizes` gives `|dom(v)|` for **every** column of the relation
/// (aligned with the schema).
pub fn phi_measure(rel: &Relation, cols: &[usize], dom_sizes: &[u64]) -> f64 {
    assert_eq!(
        dom_sizes.len(),
        rel.arity(),
        "dom_sizes must cover every column of the relation"
    );
    let denom: f64 = (0..rel.arity())
        .filter(|c| !cols.contains(c))
        .map(|c| dom_sizes[c] as f64)
        .product();
    let prefix_space: f64 = cols.iter().map(|&c| dom_sizes[c] as f64).product();
    let total: f64 = group_sizes(rel, cols)
        .into_iter()
        .map(|c| {
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

    #[test]
    fn wide_keys_fall_back_gracefully() {
        // Force the Vec-key path with five huge-coded columns.
        let rows: Vec<Vec<u32>> = (0..10u32).map(|i| vec![i << 20; 5]).collect();
        let r = rel(rows);
        // 5 columns × ~25 bits = 125 ≤ 128 still packs; push to 6 columns.
        let rows6: Vec<Vec<u32>> = (0..10u32).map(|i| vec![i << 24; 6]).collect();
        let r6 = rel(rows6);
        assert_eq!(group_sizes(&r, &[0, 1, 2, 3, 4]).len(), 10);
        assert_eq!(group_sizes(&r6, &[0, 1, 2, 3, 4, 5]).len(), 10);
    }
}

//! Variable-ordering heuristics (paper, Section 3).
//!
//! BDD size is extremely sensitive to the order in which attributes are
//! tested; finding the optimal order is NP-hard (Bollig & Wegener), so the
//! paper proposes two statistics-driven greedy heuristics that order the
//! *attributes* (each attribute is a block of boolean variables):
//!
//! * [`max_inf_gain`] — `MaxInf-Gain` exactly as printed in the paper's
//!   Figure 1: `v*(0) = argmin H(v)`, then `v*(i) = argmin_v I(v; ū)` with
//!   `I(v; ū) = H(v) − H(ū|v)` per Definition 1. Note the **argmin**: taken
//!   literally the algorithm picks the attribute *least* informative about
//!   the prefix. This is what we implement, because it is what reproduces
//!   the paper's own findings (MaxInf-Gain degrading badly — α > 2.5 — on
//!   product-structured relations, Figure 3(a)); the name's charitable
//!   `argmax` reading is provided separately as [`min_cond_entropy`].
//! * [`prob_converge`] — Section 3.2's `Prob-Converge`: greedily drive the
//!   Φ measure (expected residual membership uncertainty, see
//!   [`relcheck_relstore::stats::phi_measure`]) towards zero, i.e. pick
//!   prefixes that resolve tuple membership as early as possible.
//! * [`min_cond_entropy`] — **our extension**: the `argmax I(ū; v)` reading
//!   (equivalently `argmin H(v|ū)`, the straight ID3 adaptation). On
//!   product-structured relations this groups correlated attributes and is
//!   near-optimal; the ablation in `fig3` quantifies the gap.
//!
//! For the evaluation we also provide random orderings and exhaustive
//! optimal search ([`optimal_ordering`], feasible for the paper's 5
//! attributes: 120 permutations).

use crate::error::Result;
use relcheck_bdd::BddManager;
use relcheck_relstore::{stats, Relation};

/// How a relation's attribute ordering is chosen when building its index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OrderingStrategy {
    /// Declaration (schema) order — no reordering.
    Schema,
    /// A seeded random permutation.
    Random(u64),
    /// The `MaxInf-Gain` heuristic (literal Figure 1).
    MaxInfGain,
    /// The `Prob-Converge` heuristic (the paper's recommended choice).
    ProbConverge,
    /// Minimal conditional entropy — our corrected `argmax`-gain variant.
    MinCondEntropy,
    /// Prob-Converge refined by attribute-level sifting (our extension,
    /// after Rudell's dynamic reordering): never worse than
    /// [`OrderingStrategy::ProbConverge`], costs O(arity²) trial rebuilds.
    Sifted,
    /// Workload-adaptive (our extension): score the candidate shapes in
    /// [`relcheck_bdd::order`] against the per-column access weights the
    /// [`crate::index::LogicalDatabase`] records while compiling atoms,
    /// and build under the cheapest. A build with no recorded workload
    /// (e.g. the first, before any check ran) falls back to
    /// [`OrderingStrategy::ProbConverge`]; any static strategy remains the
    /// escape hatch. The ordering-invariance suite pins that the pick can
    /// never change a verdict.
    Adaptive,
}

impl OrderingStrategy {
    /// Stable machine-readable name of the strategy (seed excluded).
    pub fn name(&self) -> &'static str {
        match self {
            OrderingStrategy::Schema => "schema",
            OrderingStrategy::Random(_) => "random",
            OrderingStrategy::MaxInfGain => "max-inf-gain",
            OrderingStrategy::ProbConverge => "prob-converge",
            OrderingStrategy::MinCondEntropy => "min-cond-entropy",
            OrderingStrategy::Sifted => "sifted",
            OrderingStrategy::Adaptive => "adaptive",
        }
    }

    /// A stable fingerprint of the strategy, folded into schema
    /// fingerprints: two
    /// checkers agree on this value iff they would order indices the same
    /// way (the `Random` seed is folded in).
    pub fn fingerprint(&self) -> u64 {
        match *self {
            OrderingStrategy::Schema => 1,
            OrderingStrategy::Random(seed) => {
                2u64.wrapping_add(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15))
            }
            OrderingStrategy::MaxInfGain => 3,
            OrderingStrategy::ProbConverge => 4,
            OrderingStrategy::MinCondEntropy => 5,
            OrderingStrategy::Sifted => 6,
            OrderingStrategy::Adaptive => 7,
        }
    }

    /// Compute the column order for a relation under this strategy.
    pub fn order(&self, rel: &Relation, dom_sizes: &[u64]) -> Vec<usize> {
        match *self {
            OrderingStrategy::Schema => (0..rel.arity()).collect(),
            OrderingStrategy::Random(seed) => random_order(rel.arity(), seed),
            OrderingStrategy::MaxInfGain => max_inf_gain(rel),
            OrderingStrategy::ProbConverge => prob_converge(rel, dom_sizes),
            OrderingStrategy::MinCondEntropy => min_cond_entropy(rel),
            OrderingStrategy::Sifted => {
                let seed = prob_converge(rel, dom_sizes);
                sift_ordering(rel, dom_sizes, &seed)
                    .map(|(o, _)| o)
                    .unwrap_or(seed)
            }
            // Without workload weights (this signature has none) Adaptive
            // degrades to the paper's recommended static heuristic; the
            // weight-aware path lives in `LogicalDatabase::build_index`,
            // which holds the recorded workload.
            OrderingStrategy::Adaptive => prob_converge(rel, dom_sizes),
        }
    }
}

/// The paper's information gain between a single attribute `v` and the
/// attribute sequence `ū` (Definition 1, arguments as used in Figure 1
/// line 5): `I(v; ū) = H(v) − H(ū|v)`.
fn info_gain_v_prefix(rel: &Relation, v: usize, prefix: &[usize]) -> f64 {
    let h_v = stats::entropy(rel, &[v]);
    let mut all = prefix.to_vec();
    all.push(v);
    let h_joint = stats::entropy(rel, &all);
    // H(ū | v) = H(ū ∪ v) − H(v).
    h_v - (h_joint - h_v)
}

/// The `MaxInf-Gain` ordering, exactly as printed in Figure 1:
/// `v*(0) = argmin H(v)`, then `v*(i) = argmin_v I(v; ū)`. Ties break
/// towards the lower column index, making the result deterministic.
///
/// See the module docs: the literal `argmin` is deliberately kept because
/// it reproduces the paper's reported behaviour; [`min_cond_entropy`] is
/// the `argmax` reading.
pub fn max_inf_gain(rel: &Relation) -> Vec<usize> {
    let n = rel.arity();
    let mut remaining: Vec<usize> = (0..n).collect();
    let mut order = Vec::with_capacity(n);
    // v*(0) = argmin H(v).
    let first = *remaining
        .iter()
        .min_by(|&&a, &&b| {
            stats::entropy(rel, &[a])
                .partial_cmp(&stats::entropy(rel, &[b]))
                .unwrap()
        })
        .expect("relation has at least one column");
    order.push(first);
    remaining.retain(|&c| c != first);
    // v*(i) = argmin_v I(v; ū).
    while !remaining.is_empty() {
        let next = *remaining
            .iter()
            .min_by(|&&a, &&b| {
                info_gain_v_prefix(rel, a, &order)
                    .partial_cmp(&info_gain_v_prefix(rel, b, &order))
                    .unwrap()
            })
            .unwrap();
        order.push(next);
        remaining.retain(|&c| c != next);
    }
    order
}

/// Our corrected variant: `v*(i) = argmin H(v | prefix)` (equivalently,
/// maximize the information the prefix carries about the next attribute —
/// the straight ID3 adaptation the paper's prose describes). Near-optimal
/// on product-structured relations.
pub fn min_cond_entropy(rel: &Relation) -> Vec<usize> {
    let n = rel.arity();
    let mut remaining: Vec<usize> = (0..n).collect();
    let mut order = Vec::with_capacity(n);
    let first = *remaining
        .iter()
        .min_by(|&&a, &&b| {
            stats::entropy(rel, &[a])
                .partial_cmp(&stats::entropy(rel, &[b]))
                .unwrap()
        })
        .expect("relation has at least one column");
    order.push(first);
    remaining.retain(|&c| c != first);
    while !remaining.is_empty() {
        let next = *remaining
            .iter()
            .min_by(|&&a, &&b| {
                stats::cond_entropy(rel, &order, a)
                    .partial_cmp(&stats::cond_entropy(rel, &order, b))
                    .unwrap()
            })
            .unwrap();
        order.push(next);
        remaining.retain(|&c| c != next);
    }
    order
}

/// The `Prob-Converge` ordering (Section 3.2): greedily minimize the
/// (non-negative) Φ measure of the growing prefix.
pub fn prob_converge(rel: &Relation, dom_sizes: &[u64]) -> Vec<usize> {
    let n = rel.arity();
    let mut remaining: Vec<usize> = (0..n).collect();
    let mut order: Vec<usize> = Vec::with_capacity(n);
    while !remaining.is_empty() {
        let next = *remaining
            .iter()
            .min_by(|&&a, &&b| {
                let mut pa = order.clone();
                pa.push(a);
                let mut pb = order.clone();
                pb.push(b);
                stats::phi_measure(rel, &pa, dom_sizes)
                    .partial_cmp(&stats::phi_measure(rel, &pb, dom_sizes))
                    .unwrap()
            })
            .unwrap();
        order.push(next);
        remaining.retain(|&c| c != next);
    }
    order
}

/// Attribute-level sifting (our extension): Rudell's dynamic-reordering
/// idea [13 in the paper], adapted to this system. The paper rejects
/// node-level dynamic reordering as too expensive and requiring the BDD to
/// exist first; but at the *attribute* granularity with our sorted-tuple
/// constructor, trying a candidate ordering is a fast rebuild — so sifting
/// becomes practical: repeatedly move each attribute to its best position
/// (holding the rest fixed) until no move improves the node count.
///
/// `start` seeds the search (use [`prob_converge`]'s output); the result is
/// never worse than the seed. Cost: O(arity²) rebuilds per round.
pub fn sift_ordering(
    rel: &Relation,
    dom_sizes: &[u64],
    start: &[usize],
) -> Result<(Vec<usize>, usize)> {
    let mut best = start.to_vec();
    let mut best_size = bdd_size_for_ordering(rel, dom_sizes, &best)?;
    loop {
        let mut improved = false;
        for attr in 0..rel.arity() {
            let cur_pos = best.iter().position(|&c| c == attr).expect("permutation");
            for new_pos in 0..best.len() {
                if new_pos == cur_pos {
                    continue;
                }
                let mut cand = best.clone();
                let v = cand.remove(cur_pos);
                cand.insert(new_pos, v);
                let size = bdd_size_for_ordering(rel, dom_sizes, &cand)?;
                if size < best_size {
                    best = cand;
                    best_size = size;
                    improved = true;
                    break; // re-anchor this attribute at its new position
                }
            }
        }
        if !improved {
            return Ok((best, best_size));
        }
    }
}

/// A seeded random permutation of the columns (Fisher–Yates over a
/// SplitMix64 stream; self-contained so this crate stays dependency-free).
pub fn random_order(arity: usize, seed: u64) -> Vec<usize> {
    let mut state = seed;
    let mut next = move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    let mut order: Vec<usize> = (0..arity).collect();
    for i in (1..order.len()).rev() {
        // i + 1 ≤ arity, far below 2^32: modulo bias is negligible here and
        // the permutation only feeds the Random(seed) baseline.
        let j = (next() % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    order
}

/// All permutations of `0..arity` in lexicographic order. Factorial growth —
/// intended for the paper's 5-attribute experiments.
pub fn all_orderings(arity: usize) -> Vec<Vec<usize>> {
    assert!(
        arity <= 8,
        "exhaustive enumeration of {arity}! orderings is not sensible"
    );
    let mut out = Vec::new();
    let mut current = Vec::with_capacity(arity);
    let mut used = vec![false; arity];
    fn rec(
        arity: usize,
        current: &mut Vec<usize>,
        used: &mut Vec<bool>,
        out: &mut Vec<Vec<usize>>,
    ) {
        if current.len() == arity {
            out.push(current.clone());
            return;
        }
        for c in 0..arity {
            if !used[c] {
                used[c] = true;
                current.push(c);
                rec(arity, current, used, out);
                current.pop();
                used[c] = false;
            }
        }
    }
    rec(arity, &mut current, &mut used, &mut out);
    out
}

/// Build the relation's BDD under the given column ordering (in a fresh
/// manager) and report its node count — the quantity Figures 2 and 3 plot.
pub fn bdd_size_for_ordering(rel: &Relation, dom_sizes: &[u64], order: &[usize]) -> Result<usize> {
    let mut m = BddManager::new();
    let mut domains = vec![None; rel.arity()];
    for &col in order {
        domains[col] = Some(m.add_domain(dom_sizes[col])?);
    }
    let domains: Vec<_> = domains.into_iter().map(Option::unwrap).collect();
    let rows: Vec<Vec<u64>> = rel
        .rows()
        .map(|r| r.iter().map(|&v| v as u64).collect())
        .collect();
    let root = m.relation_from_rows(&domains, &rows)?;
    Ok(m.size(root))
}

/// Exhaustively find the optimal ordering (minimum BDD node count). Returns
/// `(ordering, size)`.
pub fn optimal_ordering(rel: &Relation, dom_sizes: &[u64]) -> Result<(Vec<usize>, usize)> {
    let mut best: Option<(Vec<usize>, usize)> = None;
    for order in all_orderings(rel.arity()) {
        let size = bdd_size_for_ordering(rel, dom_sizes, &order)?;
        if best.as_ref().is_none_or(|(_, s)| size < *s) {
            best = Some((order, size));
        }
    }
    Ok(best.expect("at least one ordering"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use relcheck_datagen::{gen_kprod, gen_random};

    #[test]
    fn all_orderings_counts_factorial() {
        assert_eq!(all_orderings(1).len(), 1);
        assert_eq!(all_orderings(3).len(), 6);
        assert_eq!(all_orderings(5).len(), 120);
        // Distinct.
        let os = all_orderings(4);
        let set: std::collections::HashSet<_> = os.iter().collect();
        assert_eq!(set.len(), 24);
    }

    #[test]
    fn random_order_is_a_permutation() {
        let o = random_order(6, 9);
        let mut sorted = o.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..6).collect::<Vec<_>>());
        assert_eq!(o, random_order(6, 9), "seeded determinism");
    }

    #[test]
    fn heuristics_return_permutations() {
        let g = gen_kprod(5, 16, 1500, 2, 3);
        for order in [
            max_inf_gain(&g.relation),
            prob_converge(&g.relation, &g.dom_sizes),
            min_cond_entropy(&g.relation),
        ] {
            let mut sorted = order.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, (0..5).collect::<Vec<_>>());
        }
    }

    #[test]
    fn prob_converge_near_optimal_on_product_structure() {
        // On a 1-PROD relation the heuristic should land within 2x of the
        // exhaustive optimum (the paper reports β < 1.5 typically).
        let g = gen_kprod(4, 12, 600, 1, 7);
        let order = prob_converge(&g.relation, &g.dom_sizes);
        let size = bdd_size_for_ordering(&g.relation, &g.dom_sizes, &order).unwrap();
        let (_, opt) = optimal_ordering(&g.relation, &g.dom_sizes).unwrap();
        assert!(
            size as f64 <= 2.0 * opt as f64,
            "prob_converge size {size} vs optimal {opt}"
        );
    }

    #[test]
    fn paper_finding_mig_degrades_pc_excels_on_products() {
        // The paper's Figure 3 headline: on 1-PROD relations the literal
        // MaxInf-Gain interleaves factors (bad), while Prob-Converge and
        // our corrected variant stay near-optimal.
        let mut mig_ratio = 0.0f64;
        let mut pc_ratio = 0.0f64;
        let mut mce_ratio = 0.0f64;
        let runs = 4;
        for seed in 0..runs {
            let g = gen_kprod(5, 64, 4000, 1, 900 + seed);
            let (_, opt) = optimal_ordering(&g.relation, &g.dom_sizes).unwrap();
            let size = |o: &[usize]| {
                bdd_size_for_ordering(&g.relation, &g.dom_sizes, o).unwrap() as f64 / opt as f64
            };
            mig_ratio += size(&max_inf_gain(&g.relation));
            pc_ratio += size(&prob_converge(&g.relation, &g.dom_sizes));
            mce_ratio += size(&min_cond_entropy(&g.relation));
        }
        let (mig, pc, mce) = (
            mig_ratio / runs as f64,
            pc_ratio / runs as f64,
            mce_ratio / runs as f64,
        );
        assert!(
            pc < 2.0,
            "Prob-Converge should be near-optimal, got {pc:.2}"
        );
        assert!(
            mce < 2.0,
            "MinCondEntropy should be near-optimal, got {mce:.2}"
        );
        assert!(
            mig > pc,
            "literal MaxInf-Gain ({mig:.2}) should trail Prob-Converge ({pc:.2})"
        );
    }

    #[test]
    fn ordering_matters_for_structured_relations() {
        let g = gen_kprod(4, 12, 600, 1, 13);
        let sizes: Vec<usize> = all_orderings(4)
            .iter()
            .map(|o| bdd_size_for_ordering(&g.relation, &g.dom_sizes, o).unwrap())
            .collect();
        let best = *sizes.iter().min().unwrap();
        let worst = *sizes.iter().max().unwrap();
        assert!(
            worst as f64 / best as f64 > 1.5,
            "structured relation must show ordering sensitivity ({best}..{worst})"
        );
    }

    #[test]
    fn ordering_barely_matters_for_random_relations() {
        let g = gen_random(4, 8, 1000, 50);
        let sizes: Vec<usize> = all_orderings(4)
            .iter()
            .map(|o| bdd_size_for_ordering(&g.relation, &g.dom_sizes, o).unwrap())
            .collect();
        let best = *sizes.iter().min().unwrap() as f64;
        let worst = *sizes.iter().max().unwrap() as f64;
        assert!(
            worst / best < 1.3,
            "random relations should be ordering-insensitive ({best}..{worst})"
        );
    }

    #[test]
    fn sifting_never_hurts_and_can_recover_from_bad_seeds() {
        let g = gen_kprod(5, 32, 3000, 1, 21);
        let (_, opt) = optimal_ordering(&g.relation, &g.dom_sizes).unwrap();
        // Seeded from Prob-Converge: at least as good as the seed.
        let pc = prob_converge(&g.relation, &g.dom_sizes);
        let pc_size = bdd_size_for_ordering(&g.relation, &g.dom_sizes, &pc).unwrap();
        let (sifted, sifted_size) = sift_ordering(&g.relation, &g.dom_sizes, &pc).unwrap();
        assert!(sifted_size <= pc_size);
        let mut check = sifted.clone();
        check.sort_unstable();
        assert_eq!(check, (0..5).collect::<Vec<_>>());
        // Seeded from the literal MaxInf-Gain (often terrible on 1-PROD):
        // sifting must close most of the gap to optimal.
        let mig = max_inf_gain(&g.relation);
        let mig_size = bdd_size_for_ordering(&g.relation, &g.dom_sizes, &mig).unwrap();
        let (_, rescued) = sift_ordering(&g.relation, &g.dom_sizes, &mig).unwrap();
        assert!(rescued <= mig_size);
        assert!(
            (rescued as f64) <= 1.5 * opt as f64,
            "sifting from {mig_size} should land near optimal {opt}, got {rescued}"
        );
    }

    #[test]
    fn strategy_dispatch() {
        let g = gen_random(3, 32, 100, 5);
        assert_eq!(
            OrderingStrategy::Schema.order(&g.relation, &g.dom_sizes),
            vec![0, 1, 2]
        );
        for s in [
            OrderingStrategy::Random(4),
            OrderingStrategy::MaxInfGain,
            OrderingStrategy::ProbConverge,
            OrderingStrategy::MinCondEntropy,
            OrderingStrategy::Sifted,
        ] {
            let mut o = s.order(&g.relation, &g.dom_sizes);
            o.sort_unstable();
            assert_eq!(o, vec![0, 1, 2]);
        }
    }
}

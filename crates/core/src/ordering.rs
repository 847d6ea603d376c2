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
use relcheck_relstore::stats::{self, Partition, ValueBuckets};
use relcheck_relstore::Relation;

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

/// The greedy prefix growth the three statistics-driven heuristics share.
/// Each step refines the chosen prefix's row partition by every remaining
/// column once and scores that candidate with `score(cols, sizes,
/// prefix_sizes)`: `cols` is the prefix with the candidate appended,
/// `sizes` the refined group sizes and `prefix_sizes` the prefix's own,
/// both ascending. The first minimum in column order wins, and its
/// refinement is the next step's prefix partition. A step costs one linear
/// pass over the rows per remaining column, an ordering `arity·(arity+1)/2`
/// passes after bucketing each column by value once.
fn greedy(
    rel: &Relation,
    mut score: impl FnMut(&[usize], &[usize], &[usize]) -> f64,
) -> Vec<usize> {
    let buckets: Vec<ValueBuckets> = (0..rel.arity())
        .map(|c| ValueBuckets::new(rel.col(c)))
        .collect();
    let mut prefix = Partition::whole(rel.len());
    let mut prefix_sizes = prefix.sorted_sizes();
    let mut remaining: Vec<usize> = (0..rel.arity()).collect();
    let mut order: Vec<usize> = Vec::with_capacity(rel.arity());
    while !remaining.is_empty() {
        let mut best: Option<(f64, usize, Partition, Vec<usize>)> = None;
        for (i, &c) in remaining.iter().enumerate() {
            let refined = prefix.refine(&buckets[c]);
            let sizes = refined.sorted_sizes();
            order.push(c);
            let s = score(&order, &sizes, &prefix_sizes);
            order.pop();
            if best.as_ref().is_none_or(|(b, ..)| s < *b) {
                best = Some((s, i, refined, sizes));
            }
        }
        let (_, i, refined, sizes) = best.expect("a column remains");
        order.push(remaining.remove(i));
        prefix = refined;
        prefix_sizes = sizes;
    }
    order
}

/// The `MaxInf-Gain` ordering, exactly as printed in Figure 1:
/// `v*(0) = argmin H(v)`, then `v*(i) = argmin_v I(v; ū)` with the paper's
/// information gain `I(v; ū) = H(v) − H(ū|v)` (Definition 1, arguments as
/// used in Figure 1 line 5). Ties break towards the lower column index.
///
/// See the module docs: the literal `argmin` is deliberately kept because
/// it reproduces the paper's reported behaviour; [`min_cond_entropy`] is
/// the `argmax` reading.
pub fn max_inf_gain(rel: &Relation) -> Vec<usize> {
    let h: Vec<f64> = (0..rel.arity())
        .map(|c| stats::entropy(rel, &[c]))
        .collect();
    greedy(rel, |cols, sizes, _| {
        let (&v, prefix) = cols.split_last().expect("cols ends in the candidate");
        if prefix.is_empty() {
            h[v]
        } else {
            // H(ū | v) = H(ū ∪ v) − H(v).
            h[v] - (stats::entropy_of_sizes(sizes, rel.len()) - h[v])
        }
    })
}

/// Our corrected variant: `v*(i) = argmin H(v | prefix)` (equivalently,
/// maximize the information the prefix carries about the next attribute —
/// the straight ID3 adaptation the paper's prose describes), starting from
/// `argmin H(v)`. Near-optimal on product-structured relations.
pub fn min_cond_entropy(rel: &Relation) -> Vec<usize> {
    greedy(rel, |cols, sizes, prefix_sizes| {
        let joint = stats::entropy_of_sizes(sizes, rel.len());
        if cols.len() == 1 {
            joint
        } else {
            (joint - stats::entropy_of_sizes(prefix_sizes, rel.len())).max(0.0)
        }
    })
}

/// The `Prob-Converge` ordering (Section 3.2): greedily minimize the
/// (non-negative) Φ measure of the growing prefix.
///
/// The chosen prefix's row partition carries across steps, so each step
/// refines it by every remaining column in one linear pass and scores the
/// candidate once from its cell sizes, through the same ascending-order
/// sum as [`stats::phi_measure`] ([`stats::phi_of_sizes`]). The pick at
/// every step is therefore bit-identical to `argmin_c phi_measure(rel,
/// prefix + [c])`, with ties going to the first minimum in column order;
/// an ordering costs `arity·(arity+1)/2` passes over the rows.
pub fn prob_converge(rel: &Relation, dom_sizes: &[u64]) -> Vec<usize> {
    assert_eq!(
        dom_sizes.len(),
        rel.arity(),
        "dom_sizes must cover every column of the relation"
    );
    greedy(rel, |cols, sizes, _| {
        stats::phi_of_sizes(sizes, cols, dom_sizes)
    })
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

    /// The definition `prob_converge` must meet: grow the prefix by the
    /// first column, in column order, that minimizes `phi_measure` of the
    /// extended prefix.
    fn greedy_phi_argmin(rel: &Relation, dom_sizes: &[u64]) -> Vec<usize> {
        let mut order: Vec<usize> = Vec::new();
        let mut remaining: Vec<usize> = (0..rel.arity()).collect();
        while !remaining.is_empty() {
            let mut best: Option<(f64, usize)> = None;
            for (i, &c) in remaining.iter().enumerate() {
                let mut cols = order.clone();
                cols.push(c);
                let phi = stats::phi_measure(rel, &cols, dom_sizes);
                if best.is_none_or(|(b, _)| phi < b) {
                    best = Some((phi, i));
                }
            }
            order.push(remaining.remove(best.unwrap().1));
        }
        order
    }

    fn coded(arity: usize, rows: Vec<Vec<u32>>) -> Relation {
        let names: Vec<(String, String)> = (0..arity)
            .map(|i| (format!("c{i}"), format!("k{i}")))
            .collect();
        let refs: Vec<(&str, &str)> = names
            .iter()
            .map(|(n, k)| (n.as_str(), k.as_str()))
            .collect();
        Relation::from_rows(relcheck_relstore::Schema::new(&refs), rows).unwrap()
    }

    #[test]
    fn prob_converge_repeats_its_pick_on_table1_r1() {
        // table1's R1 at 20k tuples before the CSV recode, over its
        // classes' domains of 100: columns 1 and 4 come within rounding of
        // each other at the third step, so summing Φ in hash order made
        // two orders come out of the same relation.
        let g = gen_kprod(5, 100, 20_000, 1, 77);
        let doms = [100; 5];
        for _ in 0..40 {
            assert_eq!(prob_converge(&g.relation, &doms), vec![3, 2, 1, 4, 0]);
        }
    }

    #[test]
    fn prob_converge_is_the_greedy_phi_argmin() {
        let mut cases = 0;
        for seed in 0..160u64 {
            let attrs = 2 + (seed % 4) as usize;
            // Domains of 2 and 3 force exact Φ ties between columns.
            let dom = [2, 3, 6, 40][(seed / 4 % 4) as usize];
            // Every attribute's domain holds at least max(dom/4, 2) values.
            let space = ((dom / 4).max(2) as usize).pow(attrs as u32);
            let tuples = ((seed as usize * 53) % 300).min(space);
            for g in [
                gen_random(attrs, dom, tuples, seed),
                gen_kprod(attrs, dom, tuples, 1 + (seed % 3) as usize, seed),
            ] {
                assert_eq!(
                    prob_converge(&g.relation, &g.dom_sizes),
                    greedy_phi_argmin(&g.relation, &g.dom_sizes),
                    "seed {seed}, {attrs} attrs over dom {dom}, {tuples} tuples"
                );
                cases += 1;
            }
        }
        // Empty, one-row and one-column relations.
        let edge = [
            (coded(3, vec![]), vec![4, 2, 3]),
            (coded(3, vec![vec![1, 0, 2]]), vec![4, 2, 3]),
            (coded(1, (0..5).map(|v| vec![v]).collect()), vec![8]),
            (coded(2, vec![vec![0, 0], vec![1, 1]]), vec![2, 2]),
        ];
        for (rel, doms) in &edge {
            assert_eq!(prob_converge(rel, doms), greedy_phi_argmin(rel, doms));
            cases += 1;
        }
        assert!(cases >= 300, "{cases} cases");
    }

    #[test]
    fn heuristics_ignore_row_order() {
        for seed in 0..6u64 {
            let g = gen_kprod(4, 12, 500, 1 + seed as usize % 2, 40 + seed);
            let rows: Vec<Vec<u32>> = g.relation.rows().collect();
            let mut shuffled = rows.clone();
            let perm = random_order(shuffled.len(), seed);
            for (i, &j) in perm.iter().enumerate() {
                shuffled[i] = rows[j].clone();
            }
            let back = coded(4, shuffled);
            assert_eq!(
                prob_converge(&g.relation, &g.dom_sizes),
                prob_converge(&back, &g.dom_sizes)
            );
            assert_eq!(max_inf_gain(&g.relation), max_inf_gain(&back));
            assert_eq!(min_cond_entropy(&g.relation), min_cond_entropy(&back));
        }
    }

    #[test]
    fn prob_converge_breaks_the_course_tie_towards_the_area_column() {
        // table1's COURSE shape: 200 unique ids over a domain of 200, and
        // 10 areas of 20 courses each over a domain of 10. Both columns
        // score Φ = H_b(0.1) exactly; the tie goes to the first minimum.
        let rows: Vec<Vec<u32>> = (0..200).map(|i| vec![i, i / 20]).collect();
        let rel = coded(2, rows);
        assert_eq!(prob_converge(&rel, &[200, 10]), vec![1, 0]);
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

//! Workload-scored candidate variable orderings.
//!
//! Pure column-order arithmetic — no manager access, no statistics over
//! tuples — so the core checker, benches, and offline tools can all score
//! candidates from *recorded workload features* (how often each column was
//! pinned or joined by past checks) without touching a relation.
//!
//! The model: a relation's index is a stack of attribute blocks; ops on a
//! column pay for every bit *above* it in the order (descents traverse the
//! prefix before reaching the block). So the cost of an ordering under a
//! workload is the weighted prefix depth — heavy columns want to sit high.
//! Three candidate shapes are scored (the classic choices for relational
//! encodings):
//!
//! * **concatenated** — schema order, untouched.
//! * **frequency** — columns sorted by descending observed weight: the
//!   greedy optimum for the prefix-depth cost model.
//! * **interleaved** — heavy and light columns woven alternately. On
//!   join-dominated workloads where two columns are co-accessed, weaving
//!   keeps co-accessed blocks adjacent instead of pushing all light
//!   columns to the bottom.
//!
//! [`choose`] scores these against the caller's static order, which
//! competes first, and returns the cheapest plus its name (for
//! telemetry/bench reporting). Verdict safety does not depend on the pick —
//! the ordering-invariance suite pins that any permutation yields the same
//! verdicts — so this module only has to be *deterministic*, never right.

/// `⌈log₂ size⌉` block width of a finite domain, matching
/// [`crate::BddManager::add_domain`]'s allocation (minimum 1 bit).
pub fn block_bits(size: u64) -> u32 {
    crate::fdd::bits_for(size)
}

/// Weighted prefix-depth cost of a candidate ordering: for each column,
/// its workload weight times the number of bits declared before its block.
/// Lower is better. `order` must be a permutation of `0..weights.len()`;
/// `bits[c]` is column `c`'s block width.
pub fn score(order: &[usize], weights: &[u64], bits: &[u32]) -> u128 {
    debug_assert_eq!(order.len(), weights.len());
    debug_assert_eq!(order.len(), bits.len());
    let mut cost: u128 = 0;
    let mut prefix_bits: u128 = 0;
    for &col in order {
        cost += u128::from(weights[col]) * prefix_bits;
        prefix_bits += u128::from(bits[col]);
    }
    cost
}

/// The three candidate orderings for a workload, in tie-break priority
/// order (earlier wins ties): concatenated, frequency, interleaved.
pub fn candidates(weights: &[u64]) -> Vec<(&'static str, Vec<usize>)> {
    let n = weights.len();
    let concatenated: Vec<usize> = (0..n).collect();
    // Descending weight, ties towards the lower column index.
    let mut by_weight: Vec<usize> = (0..n).collect();
    by_weight.sort_by_key(|&c| (std::cmp::Reverse(weights[c]), c));
    // Weave the heavy half with the light half: h0 l0 h1 l1 …
    let mut interleaved = Vec::with_capacity(n);
    let (heavy, light) = by_weight.split_at(n.div_ceil(2));
    for (i, &h) in heavy.iter().enumerate() {
        interleaved.push(h);
        if let Some(&l) = light.get(i) {
            interleaved.push(l);
        }
    }
    vec![
        ("concatenated", concatenated),
        ("frequency", by_weight),
        ("interleaved", interleaved),
    ]
}

/// Score `static_order` and every candidate under the workload and return
/// the cheapest as `(name, ordering)`. The static order competes first
/// under the name `static`, so ties (e.g. a flat or empty workload) defer
/// to it: by this cost model the pick is never worse than not adapting.
pub fn choose(
    static_order: Vec<usize>,
    weights: &[u64],
    bits: &[u32],
) -> (&'static str, Vec<usize>) {
    let mut best: Option<(&'static str, Vec<usize>, u128)> = None;
    for (name, cand) in std::iter::once(("static", static_order)).chain(candidates(weights)) {
        let s = score(&cand, weights, bits);
        if best.as_ref().is_none_or(|(_, _, bs)| s < *bs) {
            best = Some((name, cand, s));
        }
    }
    let (name, cand, _) = best.expect("the static order is always a candidate");
    (name, cand)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flat_workload_keeps_the_static_order() {
        let (name, order) = choose(vec![2, 0, 1], &[0, 0, 0], &[3, 3, 3]);
        assert_eq!(name, "static");
        assert_eq!(order, vec![2, 0, 1]);
        let (name, order) = choose(vec![0, 1, 2, 3], &[5, 5, 5, 5], &[2, 2, 2, 2]);
        assert_eq!(name, "static");
        assert_eq!(order, vec![0, 1, 2, 3]);
    }

    #[test]
    fn skewed_workload_hoists_the_hot_column() {
        // Column 2 dominates: any winner must place it first.
        let (name, order) = choose(vec![0, 1, 2, 3], &[1, 1, 100, 1], &[4, 4, 4, 4]);
        assert_eq!(order[0], 2);
        assert_eq!(name, "frequency");
    }

    #[test]
    fn candidates_are_permutations() {
        for weights in [vec![3u64, 1, 4, 1, 5], vec![0; 7], vec![9, 9]] {
            let bits = vec![2u32; weights.len()];
            for (_, cand) in candidates(&weights) {
                let mut sorted = cand.clone();
                sorted.sort_unstable();
                assert_eq!(sorted, (0..weights.len()).collect::<Vec<_>>());
                let _ = score(&cand, &weights, &bits);
            }
        }
    }

    #[test]
    fn score_prefers_heavy_first_and_is_width_aware() {
        let weights = [10u64, 1];
        let bits = [8u32, 8];
        assert!(score(&[0, 1], &weights, &bits) < score(&[1, 0], &weights, &bits));
        // A wide cold block above a hot one is worse than a narrow one.
        let widths_wide = [16u32, 4];
        let widths_narrow = [2u32, 4];
        let w = [1u64, 50];
        assert!(score(&[0, 1], &w, &widths_narrow) < score(&[0, 1], &w, &widths_wide));
    }

    #[test]
    fn choose_is_deterministic() {
        let weights = [7u64, 3, 3, 9, 0, 2];
        let bits = [3u32, 5, 2, 4, 1, 6];
        let a = choose((0..6).collect(), &weights, &bits);
        let b = choose((0..6).collect(), &weights, &bits);
        assert_eq!(a, b);
    }
}

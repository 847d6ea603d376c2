//! Ordering-invariance oracle.
//!
//! The ground truth that makes index orderings safe to tune: a relation's
//! characteristic function is *semantically* identical under every block
//! ordering — only its node count changes. For randomized relations this
//! suite pins that tuple counts and full-universe membership agree across
//! schema order, its reverse and random permutations, so any ordering a
//! strategy picks can change speed but never an answer.

use relcheck_bdd::{Bdd, BddManager, DomainId};

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Build `rows` under the given column ordering in a fresh manager.
fn build(ordering: &[usize], sizes: &[u64], rows: &[Vec<u64>]) -> (BddManager, Vec<DomainId>, Bdd) {
    let mut m = BddManager::new();
    let mut domains: Vec<Option<DomainId>> = vec![None; sizes.len()];
    for &col in ordering {
        domains[col] = Some(m.add_domain(sizes[col]).unwrap());
    }
    let domains: Vec<DomainId> = domains.into_iter().map(Option::unwrap).collect();
    let root = m.relation_from_rows(&domains, rows).unwrap();
    (m, domains, root)
}

fn random_permutation(arity: usize, seed: &mut u64) -> Vec<usize> {
    let mut p: Vec<usize> = (0..arity).collect();
    for i in (1..arity).rev() {
        let j = (splitmix(seed) % (i as u64 + 1)) as usize;
        p.swap(i, j);
    }
    p
}

#[test]
fn verdicts_and_counts_invariant_across_orderings() {
    for seed0 in 0..6u64 {
        let mut seed = 0xBDD0 + seed0;
        let arity = 2 + (splitmix(&mut seed) % 3) as usize; // 2..=4
        let sizes: Vec<u64> = (0..arity).map(|_| 4 + splitmix(&mut seed) % 29).collect();
        let n_rows = 20 + (splitmix(&mut seed) % 150) as usize;
        let rows: Vec<Vec<u64>> = (0..n_rows)
            .map(|_| sizes.iter().map(|&s| splitmix(&mut seed) % s).collect())
            .collect();
        // Reference: schema order.
        let schema: Vec<usize> = (0..arity).collect();
        let (mut m_ref, doms_ref, root_ref) = build(&schema, &sizes, &rows);
        let want_count = m_ref.tuple_count(root_ref, &doms_ref).unwrap();
        // The reversed order plus random permutations: every ordering must
        // agree exactly.
        let mut orderings: Vec<Vec<usize>> = vec![schema.iter().rev().copied().collect()];
        for _ in 0..3 {
            orderings.push(random_permutation(arity, &mut seed));
        }
        for ordering in &orderings {
            let (mut m, doms, root) = build(ordering, &sizes, &rows);
            assert_eq!(
                m.tuple_count(root, &doms).unwrap(),
                want_count,
                "seed {seed0}: count diverged under {ordering:?}"
            );
            // Membership must agree on every inserted row and on a random
            // sample of the rest of the universe (mostly negatives).
            for row in rows.iter().take(20) {
                assert!(m.contains(root, &doms, row).unwrap());
            }
            for _ in 0..60 {
                let probe: Vec<u64> = sizes.iter().map(|&s| splitmix(&mut seed) % s).collect();
                assert_eq!(
                    m.contains(root, &doms, &probe).unwrap(),
                    m_ref.contains(root_ref, &doms_ref, &probe).unwrap(),
                    "seed {seed0}: membership of {probe:?} diverged under {ordering:?}"
                );
            }
        }
    }
}

#[test]
fn snapshot_transfer_is_ordering_agnostic() {
    // Export/import across differently-ordered managers: the decoded copy
    // answers identically, so snapshot transfer is ordering-agnostic too.
    let mut seed = 7u64;
    let sizes = [32u64, 8, 50];
    let rows: Vec<Vec<u64>> = (0..120)
        .map(|_| sizes.iter().map(|&s| splitmix(&mut seed) % s).collect())
        .collect();
    let schema = vec![0, 1, 2];
    let permuted = vec![2, 0, 1];
    let (m_a, doms_a, root_a) = build(&permuted, &sizes, &rows);
    let (m_s, doms_s, root_s) = build(&schema, &sizes, &rows);
    let snap_a = m_a.export_relation(root_a, &doms_a).unwrap();
    let snap_s = m_s.export_relation(root_s, &doms_s).unwrap();
    let mut fresh_a = BddManager::new();
    let (fd_a, fr_a) = fresh_a.import_relation(&snap_a).unwrap();
    let mut fresh_s = BddManager::new();
    let (fd_s, fr_s) = fresh_s.import_relation(&snap_s).unwrap();
    assert_eq!(
        fresh_a.tuple_count(fr_a, &fd_a).unwrap(),
        fresh_s.tuple_count(fr_s, &fd_s).unwrap()
    );
    for _ in 0..100 {
        let probe: Vec<u64> = sizes.iter().map(|&s| splitmix(&mut seed) % s).collect();
        assert_eq!(
            fresh_a.contains(fr_a, &fd_a, &probe).unwrap(),
            fresh_s.contains(fr_s, &fd_s, &probe).unwrap(),
            "probe {probe:?}"
        );
    }
}

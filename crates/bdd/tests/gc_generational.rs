//! Differential test of the generational collector.
//!
//! `BddManager::gc` marks and sweeps only the nodes created since the last
//! collection whenever that collection's roots are kept; `gc_full` always
//! marks and sweeps the whole arena. Two managers run the same seeded op
//! sequence in lockstep — one collecting through each — while the root set
//! grows (young collections), has members replaced or dropped (full
//! collections) and is compacted. After every collection both must report
//! the same statistics and hold every node in the same slot, so the next
//! nodes either creates land in the same slots too.

use relcheck_bdd::{Bdd, BddManager, DomainId};

fn lcg(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *state >> 33
}

/// Run `op` on both managers; the handles it returns must be equal.
fn both(ms: &mut [BddManager; 2], op: impl Fn(&mut BddManager) -> Bdd) -> Bdd {
    let a = op(&mut ms[0]);
    let b = op(&mut ms[1]);
    assert_eq!(a, b, "the managers diverged");
    a
}

/// Walk the graphs under `roots` in both managers at once: every node must
/// sit in the same slot in each.
fn assert_same_slots(ms: &[BddManager; 2], roots: &[Bdd]) {
    let mut stack: Vec<(Bdd, Bdd)> = roots.iter().map(|&r| (r, r)).collect();
    while let Some((a, b)) = stack.pop() {
        assert_eq!(a.index(), b.index(), "a node moved");
        if a.is_const() {
            continue;
        }
        assert_eq!(ms[0].root_var(a), ms[1].root_var(b));
        let (al, ah) = ms[0].cofactors(a);
        let (bl, bh) = ms[1].cofactors(b);
        stack.push((al, bl));
        stack.push((ah, bh));
    }
}

fn random_relation(ms: &mut [BddManager; 2], doms: &[DomainId], seed: &mut u64) -> Bdd {
    let n = 1 + (lcg(seed) % 40) as usize;
    let rows: Vec<Vec<u64>> = (0..n)
        .map(|_| vec![lcg(seed) % 64, lcg(seed) % 64])
        .collect();
    both(ms, |m| m.relation_from_rows(doms, &rows).unwrap())
}

fn collect(ms: &mut [BddManager; 2], roots: &[Bdd], doms: &[DomainId], seed: &mut u64) {
    let young = ms[0].gc(roots);
    let full = ms[1].gc_full(roots);
    assert_eq!(young, full);
    assert_eq!(ms[0].live_nodes(), ms[1].live_nodes());
    assert_eq!(ms[0].arena_slots(), ms[1].arena_slots());
    assert_same_slots(ms, roots);
    // Equal free lists: the next nodes created land in the same slots.
    let probe = random_relation(ms, doms, seed);
    assert_same_slots(ms, &[probe]);
}

#[test]
fn generational_gc_matches_full_gc() {
    let mut ms = [
        BddManager::with_capacity(1 << 12),
        BddManager::with_capacity(1 << 12),
    ];
    let doms: Vec<DomainId> = (0..2)
        .map(|_| {
            let a = ms[0].add_domain(64).unwrap();
            let b = ms[1].add_domain(64).unwrap();
            assert_eq!(a, b);
            a
        })
        .collect();
    let mut roots: Vec<Bdd> = Vec::new();
    let mut seed = 20_070_415u64;
    let (mut grew, mut changed, mut compactions) = (0, 0, 0);
    for step in 0..600 {
        let f = random_relation(&mut ms, &doms, &mut seed);
        let pick = lcg(&mut seed) as usize;
        match pick % 8 {
            0..=3 => {
                roots.push(f);
                grew += 1;
            }
            4 if !roots.is_empty() => {
                let i = pick / 8 % roots.len();
                let g = roots[i];
                roots[i] = both(&mut ms, |m| m.or(g, f).unwrap());
                changed += 1;
            }
            5 if !roots.is_empty() => {
                roots.swap_remove(pick / 8 % roots.len());
                changed += 1;
            }
            _ => {} // `f` stays garbage
        }
        if step % 3 == 2 {
            collect(&mut ms, &roots, &doms, &mut seed);
        }
        if step % 97 == 96 {
            let (mut a, mut b) = (roots.clone(), roots.clone());
            assert_eq!(ms[0].compact(&mut a), ms[1].compact(&mut b));
            assert_eq!(a, b);
            roots = a;
            assert_same_slots(&ms, &roots);
            compactions += 1;
        }
    }
    assert!(grew > 100 && changed > 50 && compactions >= 5);
    assert_eq!(ms[0].stats().gc_runs, ms[1].stats().gc_runs);
}

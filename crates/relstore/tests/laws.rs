//! Relational algebra laws against brute-force set semantics, and the CSV
//! quoting round trip.
//!
//! Inputs are small random relations over `[0, 8)²` or `[0, 4)³`
//! (duplicates allowed, sometimes empty) drawn from a seeded SplitMix64
//! stream, so every run sees the same cases. The FD check and difference
//! are also held against naive pairwise references.

use relcheck_relstore::csv::parse_csv;
use relcheck_relstore::{algebra, Raw, Relation, Schema};
use std::collections::HashSet;

/// Random inputs per law.
const CASES: usize = 256;

/// SplitMix64: a seeded, dependency-free stream.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// Up to 29 pairs over `[0, 8)²`, duplicates allowed.
    fn pairs(&mut self) -> Vec<(u32, u32)> {
        let n = self.below(30);
        (0..n)
            .map(|_| (self.below(8) as u32, self.below(8) as u32))
            .collect()
    }
}

fn rel2(rows: &[(u32, u32)]) -> Relation {
    let schema = Schema::new(&[("a", "k"), ("b", "k")]);
    Relation::from_rows(schema, rows.iter().map(|&(a, b)| vec![a, b])).unwrap()
}

fn set(rows: &[(u32, u32)]) -> HashSet<(u32, u32)> {
    rows.iter().copied().collect()
}

#[test]
fn join_matches_nested_loops() {
    let mut rng = Rng(0x5E1_0001);
    for _ in 0..CASES {
        let (l, r) = (rng.pairs(), rng.pairs());
        let joined = algebra::equi_join(&rel2(&l), &rel2(&r), &[(1, 0)]).unwrap();
        let mut want = HashSet::new();
        for &(a, b) in &set(&l) {
            for &(c, d) in &set(&r) {
                if b == c {
                    want.insert(vec![a, b, c, d]);
                }
            }
        }
        assert_eq!(joined.rows().collect::<HashSet<_>>(), want, "{l:?} ⋈ {r:?}");
    }
}

#[test]
fn semi_and_anti_join_partition_the_left_side() {
    let mut rng = Rng(0x5E1_0002);
    for _ in 0..CASES {
        let (l, r) = (rng.pairs(), rng.pairs());
        let (lr, rr) = (rel2(&l), rel2(&r));
        let semi = algebra::semi_join(&lr, &rr, &[(0, 0)]).unwrap();
        let anti = algebra::anti_join(&lr, &rr, &[(0, 0)]).unwrap();
        let keys: HashSet<u32> = r.iter().map(|&(c, _)| c).collect();
        let (want_semi, want_anti): (HashSet<_>, HashSet<_>) = set(&l)
            .into_iter()
            .map(|(a, b)| vec![a, b])
            .partition(|row| keys.contains(&row[0]));
        let ctx = format!("{l:?} vs {r:?}");
        assert_eq!(semi.rows().collect::<HashSet<_>>(), want_semi, "{ctx}");
        assert_eq!(anti.rows().collect::<HashSet<_>>(), want_anti, "{ctx}");
        assert_eq!(semi.len() + anti.len(), lr.len(), "{ctx}");
    }
}

#[test]
fn union_and_difference_match_set_semantics() {
    let mut rng = Rng(0x5E1_0003);
    for _ in 0..CASES {
        let (a, b) = (rng.pairs(), rng.pairs());
        let (ra, rb) = (rel2(&a), rel2(&b));
        let (sa, sb) = (set(&a), set(&b));
        let u = algebra::union(&ra, &rb).unwrap();
        let d = algebra::difference(&ra, &rb).unwrap();
        let ctx = format!("{a:?} vs {b:?}");
        assert_eq!(u.len(), sa.union(&sb).count(), "{ctx}");
        assert_eq!(d.len(), sa.difference(&sb).count(), "{ctx}");
        // A = (A − B) ∪ (A ⋉ B on all columns).
        let common = algebra::semi_join(&ra, &rb, &[(0, 0), (1, 1)]).unwrap();
        let back = algebra::union(&d, &common).unwrap();
        assert_eq!(
            back.rows().collect::<HashSet<_>>(),
            ra.rows().collect(),
            "{ctx}"
        );
    }
}

/// Up to 11 triples over `[0, 4)³`, duplicates allowed: few enough that
/// an FD often holds, over a range small enough that keys repeat.
fn triples(rng: &mut Rng) -> Vec<Vec<u32>> {
    let n = rng.below(12);
    (0..n)
        .map(|_| (0..3).map(|_| rng.below(4) as u32).collect())
        .collect()
}

fn rel3(rows: &[Vec<u32>]) -> Relation {
    let schema = Schema::new(&[("a", "k"), ("b", "k"), ("c", "k")]);
    Relation::from_rows(schema, rows.iter().cloned()).unwrap()
}

#[test]
fn fd_violations_match_a_pairwise_reference() {
    // 1- and 2-column sides, overlapping or not.
    const FDS: [(&[usize], &[usize]); 6] = [
        (&[0], &[1]),
        (&[1], &[0]),
        (&[0], &[1, 2]),
        (&[0, 1], &[2]),
        (&[2, 0], &[1]),
        (&[0, 1], &[1, 2]),
    ];
    let mut rng = Rng(0x5E1_0004);
    let (mut violated, mut checked) = (0, 0);
    for _ in 0..CASES {
        let rows = triples(&mut rng);
        let r = rel3(&rows);
        let distinct: HashSet<Vec<u32>> = rows.iter().cloned().collect();
        for (lhs, rhs) in FDS {
            let on = |row: &[u32], cols: &[usize]| -> Vec<u32> {
                cols.iter().map(|&c| row[c]).collect()
            };
            // A row violates lhs → rhs iff another row agrees on lhs and
            // differs on rhs.
            let want: HashSet<Vec<u32>> = distinct
                .iter()
                .filter(|t| {
                    distinct
                        .iter()
                        .any(|u| on(t, lhs) == on(u, lhs) && on(t, rhs) != on(u, rhs))
                })
                .cloned()
                .collect();
            let got = algebra::fd_violations(&r, lhs, rhs).unwrap();
            let ctx = format!("{lhs:?} -> {rhs:?} on {rows:?}");
            assert_eq!(got.len(), want.len(), "{ctx}");
            assert_eq!(got.rows().collect::<HashSet<_>>(), want, "{ctx}");
            violated += !want.is_empty() as usize;
            checked += 1;
        }
    }
    assert!(
        violated * 4 >= checked && violated * 4 <= 3 * checked,
        "{violated}/{checked}"
    );
}

#[test]
fn join_on_no_columns_is_the_product() {
    let mut rng = Rng(0x5E1_0007);
    for _ in 0..CASES {
        let (l, r) = (rng.pairs(), rng.pairs());
        let (lr, rr) = (rel2(&l), rel2(&r));
        let joined = algebra::equi_join(&lr, &rr, &[]).unwrap();
        let product = algebra::product(&lr, &rr).unwrap();
        let ctx = format!("{l:?} × {r:?}");
        assert_eq!(joined.len(), product.len(), "{ctx}");
        assert_eq!(
            joined.rows().collect::<HashSet<_>>(),
            product.rows().collect(),
            "{ctx}"
        );
    }
}

#[test]
fn difference_matches_a_naive_reference() {
    let mut rng = Rng(0x5E1_0008);
    for _ in 0..CASES {
        let (a, b) = (triples(&mut rng), triples(&mut rng));
        let d = algebra::difference(&rel3(&a), &rel3(&b)).unwrap();
        let mut want: Vec<Vec<u32>> = Vec::new();
        for row in &a {
            if !b.contains(row) && !want.contains(row) {
                want.push(row.clone());
            }
        }
        // First occurrences, in the left input's order.
        assert_eq!(d.rows().collect::<Vec<_>>(), want, "{a:?} − {b:?}");
    }
}

#[test]
fn quoted_csv_fields_round_trip() {
    const ALPHABET: &[u8] = b"abcXYZ ,\"\n0189";
    let mut rng = Rng(0x5E1_0006);
    for _ in 0..CASES {
        let rows: Vec<(String, i32)> = (0..rng.below(20))
            .map(|_| {
                let len = rng.below(13);
                let s = (0..len)
                    .map(|_| ALPHABET[rng.below(ALPHABET.len())] as char)
                    .collect();
                (s, rng.next() as i32)
            })
            .collect();
        let mut text = String::new();
        for (s, i) in &rows {
            text.push_str(&format!("\"{}\",{i}\n", s.replace('"', "\"\"")));
        }
        let parsed = parse_csv(&text).unwrap();
        let want: Vec<Vec<Raw>> = rows
            .iter()
            .map(|(s, i)| vec![Raw::Str(s.clone()), Raw::Int(*i as i64)])
            .collect();
        assert_eq!(parsed, want, "{text:?}");
    }
}

#[test]
fn insert_then_delete_round_trips() {
    let mut rng = Rng(0x5E1_0007);
    for _ in 0..CASES {
        let rows = rng.pairs();
        let mut r = rel2(&rows);
        let row = [rng.below(8) as u32, rng.below(8) as u32];
        let was_there = r.contains(&row);
        let before = r.len();
        assert_eq!(r.insert(&row).unwrap(), !was_there);
        assert!(r.contains(&row));
        assert!(r.delete(&row).unwrap());
        assert!(!r.contains(&row));
        assert_eq!(
            r.len(),
            before - usize::from(was_there),
            "{rows:?} ± {row:?}"
        );
    }
}

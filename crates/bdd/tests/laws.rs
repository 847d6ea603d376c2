//! BDD algebra laws against truth tables.
//!
//! Random boolean expressions over six variables are compiled and checked
//! point by point against direct evaluation over all 64 assignments; each
//! operation the checker composes (model counting and enumeration,
//! quantification, fused quantification, renaming, restriction, relation
//! builds) must agree with the truth table it denotes, and the
//! non-constructive emptiness test must agree with the conjunction it
//! does not build. Inputs come from a seeded SplitMix64 stream, so every
//! run sees the same cases.

use relcheck_bdd::{Bdd, BddManager, DomainId, Op, Var};

const NVARS: u32 = 6;
/// Random expressions per law.
const CASES: u64 = 256;

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn below(state: &mut u64, n: u64) -> u64 {
    splitmix(state) % n
}

/// Each connective with its truth table: bit `2a + b` is `op(a, b)`.
const OPS: [(Op, u8); 8] = [
    (Op::And, 0b1000),
    (Op::Or, 0b1110),
    (Op::Xor, 0b0110),
    (Op::Nand, 0b0111),
    (Op::Nor, 0b0001),
    (Op::Imp, 0b1011),
    (Op::Biimp, 0b1001),
    (Op::Diff, 0b0100),
];

/// A random boolean expression tree.
#[derive(Debug, Clone)]
enum Expr {
    Const(bool),
    Var(Var),
    Not(Box<Expr>),
    Bin(usize, Box<Expr>, Box<Expr>),
}

impl Expr {
    /// A tree of depth at most `depth`.
    fn random(state: &mut u64, depth: u32) -> Expr {
        if depth == 0 || below(state, 10) < 3 {
            return match below(state, 4) {
                0 => Expr::Const(below(state, 2) == 1),
                _ => Expr::Var(below(state, NVARS as u64) as Var),
            };
        }
        if below(state, 3) == 0 {
            Expr::Not(Box::new(Expr::random(state, depth - 1)))
        } else {
            let op = below(state, OPS.len() as u64) as usize;
            let a = Expr::random(state, depth - 1);
            let b = Expr::random(state, depth - 1);
            Expr::Bin(op, Box::new(a), Box::new(b))
        }
    }

    fn eval(&self, bits: u32) -> bool {
        match self {
            Expr::Const(b) => *b,
            Expr::Var(v) => bits >> v & 1 == 1,
            Expr::Not(e) => !e.eval(bits),
            Expr::Bin(op, a, b) => {
                let row = 2 * a.eval(bits) as u8 + b.eval(bits) as u8;
                OPS[*op].1 >> row & 1 == 1
            }
        }
    }

    fn to_bdd(&self, m: &mut BddManager) -> Bdd {
        match self {
            Expr::Const(true) => Bdd::TRUE,
            Expr::Const(false) => Bdd::FALSE,
            Expr::Var(v) => m.var(*v).unwrap(),
            Expr::Not(e) => {
                let f = e.to_bdd(m);
                m.not(f).unwrap()
            }
            Expr::Bin(op, a, b) => {
                let fa = a.to_bdd(m);
                let fb = b.to_bdd(m);
                m.apply(OPS[*op].0, fa, fb).unwrap()
            }
        }
    }
}

/// A fresh manager over `NVARS` variables. The small operation cache keeps
/// the per-case setup cheap and makes cache collisions common.
fn manager() -> BddManager {
    let mut m = BddManager::with_capacity(1 << 10);
    for _ in 0..NVARS {
        m.new_var();
    }
    m
}

/// Run `law` on `CASES` seeded random expressions and a fresh manager.
fn for_each_expr(seed: u64, mut law: impl FnMut(&mut u64, &mut BddManager, &Expr)) {
    let mut state = seed;
    for _ in 0..CASES {
        let e = Expr::random(&mut state, 5);
        law(&mut state, &mut manager(), &e);
    }
}

fn assert_denotes(m: &BddManager, f: Bdd, want: impl Fn(u32) -> bool, what: &str) {
    for bits in 0u32..1 << NVARS {
        assert_eq!(
            m.eval(f, |v| bits >> v & 1 == 1),
            want(bits),
            "{what} at {bits:06b}"
        );
    }
}

#[test]
fn compiled_expressions_match_truth_tables() {
    for_each_expr(0xB00_0001, |_, m, e| {
        let f = e.to_bdd(m);
        assert_denotes(m, f, |bits| e.eval(bits), &format!("{e:?}"));
    });
}

#[test]
fn sat_count_and_assignments_match_truth_tables() {
    for_each_expr(0xB00_0002, |_, m, e| {
        let f = e.to_bdd(m);
        let all: Vec<Var> = (0..NVARS).collect();
        let vs = m.varset(&all);
        let want: Vec<u32> = (0u32..1 << NVARS).filter(|&bits| e.eval(bits)).collect();
        assert_eq!(m.sat_count(f, vs), want.len() as f64, "{e:?}");
        let mut got: Vec<u32> = m
            .sat_assignments(f, vs)
            .map(|bits| (0..NVARS).fold(0u32, |acc, i| acc | (bits[i as usize] as u32) << i))
            .collect();
        got.sort_unstable();
        assert_eq!(got, want, "{e:?}");
    });
}

#[test]
fn quantifiers_match_truth_tables_and_are_dual() {
    for_each_expr(0xB00_0003, |state, m, e| {
        let v = below(state, NVARS as u64) as Var;
        let f = e.to_bdd(m);
        let vs = m.varset(&[v]);
        let forall = m.forall(f, vs).unwrap();
        let exists = m.exists(f, vs).unwrap();
        let cofactors = |bits: u32| (e.eval(bits & !(1 << v)), e.eval(bits | 1 << v));
        let ctx = format!("x{v} in {e:?}");
        assert_denotes(m, forall, |b| cofactors(b).0 && cofactors(b).1, &ctx);
        assert_denotes(m, exists, |b| cofactors(b).0 || cofactors(b).1, &ctx);
        // ∀v f ≡ ¬∃v ¬f: canonicity makes the duality a handle equality.
        let nf = m.not(f).unwrap();
        let ex = m.exists(nf, vs).unwrap();
        let dual = m.not(ex).unwrap();
        assert_eq!(forall, dual, "{ctx}");
    });
}

#[test]
fn app_quantifiers_match_apply_then_quantify() {
    for_each_expr(0xB00_0004, |state, m, a| {
        let b = Expr::random(state, 5);
        let op = OPS[below(state, OPS.len() as u64) as usize].0;
        let v = below(state, NVARS as u64) as Var;
        let fa = a.to_bdd(m);
        let fb = b.to_bdd(m);
        let vs = m.varset(&[v]);
        let applied = m.apply(op, fa, fb).unwrap();
        let ctx = format!("{op:?} over x{v}: {a:?} / {b:?}");
        let fused = m.app_exists(op, fa, fb, vs).unwrap();
        assert_eq!(fused, m.exists(applied, vs).unwrap(), "∃ {ctx}");
        let fused = m.app_forall(op, fa, fb, vs).unwrap();
        assert_eq!(fused, m.forall(applied, vs).unwrap(), "∀ {ctx}");
    });
}

#[test]
fn replace_is_substitution() {
    for_each_expr(0xB00_0005, |state, m, e| {
        let mut perm: Vec<Var> = (0..NVARS).collect();
        for i in (1..perm.len()).rev() {
            perm.swap(i, below(state, i as u64 + 1) as usize);
        }
        let f = e.to_bdd(m);
        let pairs: Vec<(Var, Var)> = (0..NVARS).map(|v| (v, perm[v as usize])).collect();
        let map = m.replace_map(&pairs);
        let g = m.replace(f, map).unwrap();
        // g(x) = f(y) where y_v = x_perm(v).
        let renamed = |bits: u32| {
            let y = (0..NVARS).fold(0u32, |y, v| y | (bits >> perm[v as usize] & 1) << v);
            e.eval(y)
        };
        assert_denotes(m, g, renamed, &format!("{perm:?} on {e:?}"));
    });
}

#[test]
fn restrict_is_cofactor() {
    for_each_expr(0xB00_0006, |state, m, e| {
        let v = below(state, NVARS as u64) as Var;
        let positive = below(state, 2) == 1;
        let f = e.to_bdd(m);
        let c = m.cube(&[(v, positive)]).unwrap();
        let r = m.restrict(f, c).unwrap();
        let pinned = |bits: u32| {
            e.eval(if positive {
                bits | 1 << v
            } else {
                bits & !(1 << v)
            })
        };
        let ctx = format!("x{v}={positive} in {e:?}");
        assert_denotes(m, r, pinned, &ctx);
        assert!(!m.support(r).contains(&v), "{ctx}");
    });
}

#[test]
fn build_strategies_agree_and_rows_round_trip() {
    let mut state = 0xB00_0007;
    for case in 0..CASES {
        let mut m = BddManager::with_capacity(1 << 10);
        let sizes = [1 + below(&mut state, 16), 1 + below(&mut state, 9)];
        let doms: Vec<DomainId> = sizes.iter().map(|&s| m.add_domain(s).unwrap()).collect();
        let n = below(&mut state, 60) as usize;
        let rows: Vec<Vec<u64>> = (0..n)
            .map(|_| sizes.iter().map(|&s| below(&mut state, s)).collect())
            .collect();
        let sorted = m.relation_from_rows_sorted(&doms, &rows).unwrap();
        let folded = m.relation_from_rows_or_fold(&doms, &rows).unwrap();
        assert_eq!(sorted, folded, "case {case}: {rows:?}");
        let mut want = rows;
        want.sort();
        want.dedup();
        let mut got = m.rows(sorted, &doms).unwrap();
        got.sort();
        assert_eq!(got, want, "case {case}");
    }
}

#[test]
fn and_is_false_decides_the_built_conjunction() {
    let (mut empty, mut decided) = (0, 0);
    for_each_expr(0xB00_0008, |state, m, a| {
        let fa = a.to_bdd(m);
        let fb = Expr::random(state, 5).to_bdd(m);
        let fc = Expr::random(state, 5).to_bdd(m);
        // Constants, repeats and a complement, so the shortcuts and the
        // empty answer both come up.
        let pool = [fa, fb, fc, Bdd::TRUE, Bdd::FALSE, m.not(fa).unwrap()];
        let mut pick = || pool[below(state, pool.len() as u64) as usize];
        let ops = [fa, pick(), pick()];
        let before = m.stats();
        let got = m.and_is_false(ops[0], ops[1], ops[2]).unwrap();
        let after = m.stats();
        let ctx = format!("{ops:?} from {a:?}");
        assert_eq!(after.created_nodes, before.created_nodes, "{ctx}");
        assert_eq!(after.live_nodes, before.live_nodes, "{ctx}");
        // Every argument order gives the same answer, from the memo.
        for [i, j, k] in [[2, 1, 0], [1, 0, 2], [0, 2, 1]] {
            assert_eq!(
                m.and_is_false(ops[i], ops[j], ops[k]).unwrap(),
                got,
                "{ctx}"
            );
        }
        let fg = m.and(ops[0], ops[1]).unwrap();
        let want = m.and(fg, ops[2]).unwrap().is_false();
        assert_eq!(got, want, "{ctx}");
        empty += got as usize;
        decided += 1;
    });
    // Both answers must be exercised.
    assert!(
        empty * 8 >= decided && empty * 8 <= 7 * decided,
        "{empty}/{decided}"
    );
}

#[test]
fn and_is_false_honours_a_passed_deadline() {
    // x₀ ⊕ … ⊕ x₃₉₉ against its complement: an empty conjunction whose
    // proof visits two operand pairs per level, more than one deadline
    // stride of budget steps.
    let mut m = BddManager::new();
    let mut parity = Bdd::FALSE;
    for _ in 0..400 {
        let v = m.new_var();
        let x = m.var(v).unwrap();
        parity = m.xor(parity, x).unwrap();
    }
    let odd = m.not(parity).unwrap();
    m.set_deadline(Some(std::time::Instant::now()));
    assert!(matches!(
        m.and_is_false(parity, odd, Bdd::TRUE),
        Err(relcheck_bdd::BddError::Deadline { .. })
    ));
    m.set_deadline(None);
    assert!(m.and_is_false(parity, odd, Bdd::TRUE).unwrap());
}

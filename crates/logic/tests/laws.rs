//! The constraint language's laws: printing and parsing are mutually
//! inverse after one normalizing round, and every transformation keeps a
//! sentence's meaning (NNF also its shape, standardize-apart its binder
//! uniqueness).
//!
//! Sentences are random quantifier-free matrices over `R(x: k1, y: k2)`
//! and `S(y: k2)`, closed by quantifying their free variables (some
//! quantified subformulas negated) and evaluated on one fixed database. Two fixed cases run first; the rest come from a
//! seeded SplitMix64 stream, so every run sees the same cases.

use relcheck_datagen::SplitMix64;
use relcheck_logic::eval::eval_sentence;
use relcheck_logic::transform::{
    push_forall_down, simplify, standardize_apart, to_nnf, to_prenex, Quant,
};
use relcheck_logic::{parse, Formula, LogicError, Term};
use relcheck_relstore::{Database, Raw};

/// Random sentences per law.
const CASES: usize = 256;
const XS: [&str; 2] = ["x1", "x2"];
const YS: [&str; 2] = ["y1", "y2"];

fn r(x: &str, y: &str) -> Formula {
    Formula::atom("R", vec![Term::var(x), Term::var(y)])
}

fn s(y: &str) -> Formula {
    Formula::atom("S", vec![Term::var(y)])
}

/// A quantifier-free formula of depth at most `depth`.
fn matrix(rng: &mut SplitMix64, depth: u32) -> Formula {
    if depth == 0 || rng.gen_bool(0.3) {
        return match rng.gen_range(0..6usize) {
            0 => r(XS[rng.gen_range(0..2usize)], YS[rng.gen_range(0..2usize)]),
            1 => s(YS[rng.gen_range(0..2usize)]),
            2 => Formula::Eq(Term::var("y1"), Term::var("y2")),
            3 => {
                let c = Raw::Int(rng.gen_range(0..4u64) as i64);
                Formula::Eq(Term::var(XS[rng.gen_range(0..2usize)]), Term::Const(c))
            }
            4 => {
                let n = rng.gen_range(0..3usize);
                let vals = (0..n).map(|_| Raw::Int(rng.gen_range(0..4u64) as i64));
                Formula::InSet(Term::var("y1"), vals.collect())
            }
            _ => Formula::True,
        };
    }
    match rng.gen_range(0..4usize) {
        0 => matrix(rng, depth - 1).not(),
        1 => matrix(rng, depth - 1).and(matrix(rng, depth - 1)),
        2 => matrix(rng, depth - 1).or(matrix(rng, depth - 1)),
        _ => matrix(rng, depth - 1).implies(matrix(rng, depth - 1)),
    }
}

/// Close a matrix into a sentence: bit `i` of `pattern` picks ∃ (set) or
/// ∀ for the `i`-th of x1, x2, y1, y2, innermost first, and bit `4 + i`
/// negates the quantified formula. Variables the matrix does not use stay
/// unbound.
fn close(matrix: Formula, pattern: u8) -> Formula {
    let mut f = matrix;
    for (i, v) in XS.into_iter().chain(YS).enumerate() {
        if f.free_vars().iter().any(|fv| fv == v) {
            let vs = vec![v.to_owned()];
            f = if pattern >> i & 1 == 1 {
                Formula::Exists(vs, Box::new(f))
            } else {
                Formula::Forall(vs, Box::new(f))
            };
            if pattern >> (4 + i) & 1 == 1 {
                f = f.not();
            }
        }
    }
    f
}

/// The fixed cases, then `CASES` random sentences.
fn sentences(seed: u64) -> Vec<Formula> {
    let fixed = [
        // ∃y2 ∀y1 ∀x2. y1 = y2 ∧ ¬(R(x2, y1) → S(y1))
        (
            Formula::Eq(Term::var("y1"), Term::var("y2")).and(r("x2", "y1").implies(s("y1")).not()),
            24,
        ),
        // An empty `in` set beside a tautological implication.
        (
            r("x1", "y2")
                .and(Formula::InSet(Term::var("y1"), Vec::new()))
                .and(s("y1").implies(Formula::True)),
            0,
        ),
    ];
    let mut rng = SplitMix64::seed_from_u64(seed);
    let random = (0..CASES).map(|_| {
        let m = matrix(&mut rng, 4);
        (m, rng.gen_range(0..256u64) as u8)
    });
    fixed
        .into_iter()
        .chain(random)
        .map(|(m, p)| close(m, p))
        .collect()
}

fn db() -> Database {
    let mut db = Database::new();
    db.ensure_class_size("k1", 3);
    db.ensure_class_size("k2", 4);
    let ints = |vals: &[i64]| vals.iter().map(|&v| Raw::Int(v)).collect::<Vec<_>>();
    db.create_relation(
        "R",
        &[("a", "k1"), ("b", "k2")],
        vec![ints(&[0, 0]), ints(&[1, 2]), ints(&[2, 3]), ints(&[0, 3])],
    )
    .unwrap();
    db.create_relation("S", &[("b", "k2")], vec![ints(&[0]), ints(&[2])])
        .unwrap();
    db
}

#[test]
fn printer_parser_fixpoint() {
    for f in sentences(0x10_0001) {
        // One parse⟲print round normalizes (e.g. unary And unwraps); after
        // that, printing and parsing must be mutually inverse.
        let once = parse(&f.to_string()).unwrap();
        let twice = parse(&once.to_string()).unwrap();
        assert_eq!(once, twice, "{f}");
        assert_eq!(once.to_string(), twice.to_string(), "{f}");
    }
}

#[test]
fn transforms_preserve_semantics() {
    let db = db();
    let mut decided = 0;
    for f in sentences(0x10_0002) {
        // A variable that only meets equalities has no sort; the evaluator
        // rejects such a sentence by design.
        let Ok(want) = eval_sentence(&db, &f) else {
            continue;
        };
        decided += 1;
        for (name, g) in [
            ("nnf", to_nnf(&f)),
            ("standardize", standardize_apart(&f)),
            ("push_forall", push_forall_down(&f)),
            ("simplify", simplify(&f)),
        ] {
            match eval_sentence(&db, &g) {
                Ok(got) => assert_eq!(got, want, "{name} changed the meaning of {f}"),
                // push_forall_down can tear an equality-only conjunct from
                // its sort anchor, and simplify can erase a variable's only
                // atom occurrence; the standalone evaluator then rejects
                // what the compiler, with its global sort map, decides.
                Err(LogicError::UnsortedVariable(_))
                    if name == "push_forall" || name == "simplify" => {}
                Err(e) => panic!("{name} failed on {f}: {e}"),
            }
        }
        let p = to_prenex(&f);
        let rebuilt = p.prefix.iter().rev().fold(p.matrix, |g, (q, v)| {
            let vs = vec![v.clone()];
            match q {
                Quant::Exists => Formula::Exists(vs, Box::new(g)),
                Quant::Forall => Formula::Forall(vs, Box::new(g)),
            }
        });
        assert_eq!(eval_sentence(&db, &rebuilt).unwrap(), want, "prenex of {f}");
    }
    assert!(decided * 3 > CASES, "only {decided} sentences were sorted");
}

#[test]
fn nnf_is_negation_normal() {
    fn normal(f: &Formula) -> bool {
        match f {
            Formula::Not(inner) => matches!(
                **inner,
                Formula::Atom { .. } | Formula::Eq(..) | Formula::InSet(..)
            ),
            Formula::Implies(..) => false,
            Formula::And(fs) | Formula::Or(fs) => fs.iter().all(normal),
            Formula::Exists(_, g) | Formula::Forall(_, g) => normal(g),
            _ => true,
        }
    }
    for f in sentences(0x10_0003) {
        let g = to_nnf(&f);
        assert!(normal(&g), "not in NNF: {g}");
    }
}

#[test]
fn standardize_apart_binders_are_unique() {
    fn binders(f: &Formula, out: &mut Vec<String>) {
        match f {
            Formula::Exists(vs, g) | Formula::Forall(vs, g) => {
                out.extend(vs.iter().cloned());
                binders(g, out);
            }
            Formula::Not(g) => binders(g, out),
            Formula::And(fs) | Formula::Or(fs) => fs.iter().for_each(|g| binders(g, out)),
            Formula::Implies(a, b) => {
                binders(a, out);
                binders(b, out);
            }
            _ => {}
        }
    }
    for f in sentences(0x10_0004) {
        // Conjoin the sentence with itself to force binder collisions.
        let g = standardize_apart(&f.clone().and(f));
        let mut names = Vec::new();
        binders(&g, &mut names);
        let distinct: std::collections::HashSet<&String> = names.iter().collect();
        assert_eq!(distinct.len(), names.len(), "duplicate binders in {g}");
    }
}

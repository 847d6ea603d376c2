//! Random first-order constraints: every way the checker can decide one
//! must agree with brute-force evaluation.
//!
//! Random sentences mix atoms over `R(k1, k2)` and `S(k2, k3)`,
//! equalities, constant pins and `in` sets under ¬ ∧ ∨ → and arbitrary
//! ∀/∃ prefixes in random binding order; databases hold a handful of
//! random tuples (often none). Each sentence is checked under every
//! rewrite/join-rename corner of the plan options and under node budgets
//! of 25 and 200 live nodes — small enough to abort index builds and
//! checks, so the degradation ladder answers below the BDD rung — as well
//! as with no budget. Constraints in the SQL-translatable class are also
//! decided on the translated plan. Inputs come from seeded SplitMix64
//! streams.

use relcheck_core::checker::{Checker, CheckerOptions, Method};
use relcheck_core::{OrderingStrategy, PlanOptions};
use relcheck_datagen::SplitMix64;
use relcheck_logic::eval::eval_sentence;
use relcheck_logic::{parse, Formula, LogicError, Term};
use relcheck_relstore::{Database, Raw};

/// Active-domain sizes of classes k1, k2, k3.
const K: [u64; 3] = [4, 3, 3];
/// Variables by class: x* : k1, y* : k2, z* : k3.
const XS: [&str; 2] = ["x1", "x2"];
const YS: [&str; 2] = ["y1", "y2"];
const Z: &str = "z1";
/// Sorted random sentences, each on its own random database.
const CASES: usize = 64;

fn build_db(r: &[(u64, u64)], s: &[(u64, u64)]) -> Database {
    let mut db = Database::new();
    // Dense dictionaries: codes equal values, and every constant a
    // sentence mentions is in its class.
    for (class, size) in ["k1", "k2", "k3"].into_iter().zip(K) {
        db.ensure_class_size(class, size);
    }
    let rows = |pairs: &[(u64, u64)]| {
        pairs
            .iter()
            .map(|&(a, b)| vec![Raw::Int(a as i64), Raw::Int(b as i64)])
            .collect()
    };
    db.create_relation("R", &[("a", "k1"), ("b", "k2")], rows(r))
        .unwrap();
    db.create_relation("S", &[("c", "k2"), ("d", "k3")], rows(s))
        .unwrap();
    db
}

fn pick<'a>(rng: &mut SplitMix64, vars: &[&'a str]) -> &'a str {
    vars[rng.gen_range(0..vars.len())]
}

/// A quantifier-free formula of depth at most `depth`.
fn matrix(rng: &mut SplitMix64, depth: u32) -> Formula {
    if depth == 0 || rng.gen_bool(0.3) {
        let (x, y) = (Term::var(pick(rng, &XS)), Term::var(pick(rng, &YS)));
        return match rng.gen_range(0..6usize) {
            0 => Formula::atom("R", vec![x, y]),
            1 => Formula::atom("S", vec![y, Term::var(Z)]),
            2 => Formula::Eq(Term::var(XS[0]), Term::var(XS[1])),
            3 => Formula::Eq(Term::var(YS[0]), Term::var(YS[1])),
            4 => Formula::Eq(x, Term::Const(Raw::Int(rng.gen_range(0..K[0]) as i64))),
            _ => {
                let n = rng.gen_range(0..3usize);
                let vals = (0..n).map(|_| Raw::Int(rng.gen_range(0..K[1]) as i64));
                Formula::InSet(y, vals.collect())
            }
        };
    }
    match rng.gen_range(0..4usize) {
        0 => matrix(rng, depth - 1).not(),
        1 => matrix(rng, depth - 1).and(matrix(rng, depth - 1)),
        2 => matrix(rng, depth - 1).or(matrix(rng, depth - 1)),
        _ => matrix(rng, depth - 1).implies(matrix(rng, depth - 1)),
    }
}

/// Close a random matrix under ∀/∃ over its free variables, bound in a
/// random order.
fn sentence(rng: &mut SplitMix64) -> Formula {
    let mut f = matrix(rng, 3);
    let mut vars = f.free_vars();
    rng.shuffle(&mut vars);
    for v in vars {
        f = if rng.gen_bool(0.5) {
            Formula::Exists(vec![v], Box::new(f))
        } else {
            Formula::Forall(vec![v], Box::new(f))
        };
    }
    f
}

fn pairs(rng: &mut SplitMix64, max: usize, sizes: (u64, u64)) -> Vec<(u64, u64)> {
    let n = rng.gen_range(0..max);
    (0..n)
        .map(|_| (rng.gen_range(0..sizes.0), rng.gen_range(0..sizes.1)))
        .collect()
}

/// Every checker configuration the oracle compares against brute force:
/// the default plan under each node budget, and each rewrite/join-rename
/// corner with no budget.
fn configurations(ordering: OrderingStrategy) -> Vec<CheckerOptions> {
    let budgets = [Some(25), Some(200), None].map(|limit| (limit, PlanOptions::default()));
    let corners = [(true, true), (true, false), (false, true), (false, false)].map(
        |(rewrites, join_rename)| {
            (
                None,
                PlanOptions {
                    rewrites,
                    join_rename,
                },
            )
        },
    );
    budgets
        .into_iter()
        .chain(corners)
        .map(|(node_limit, plan)| CheckerOptions {
            node_limit,
            plan,
            ordering,
            // A small apply cache keeps the many short-lived checkers cheap.
            apply_cache_slots: Some(1 << 10),
            ..Default::default()
        })
        .collect()
}

#[test]
fn every_configuration_matches_brute_force_on_random_sentences() {
    let mut rng = SplitMix64::seed_from_u64(0xF0_2007);
    let (mut drawn, mut decided, mut violated, mut off_bdd) = (0, 0, 0, 0);
    while decided < CASES {
        drawn += 1;
        assert!(
            drawn < 8 * CASES,
            "only {decided} of {drawn} sentences were sorted"
        );
        let f = sentence(&mut rng);
        let r = pairs(&mut rng, 8, (K[0], K[1]));
        let s = pairs(&mut rng, 6, (K[1], K[2]));
        let want = match eval_sentence(&build_db(&r, &s), &f) {
            Ok(v) => v,
            // A variable that only meets equalities has no sort; every
            // path rejects such a sentence by design.
            Err(LogicError::UnsortedVariable(_)) => continue,
            Err(e) => panic!("oracle failed on {f}: {e}"),
        };
        decided += 1;
        violated += usize::from(!want);
        let ordering = if decided % 2 == 0 {
            OrderingStrategy::ProbConverge
        } else {
            OrderingStrategy::MaxInfGain
        };
        for opts in configurations(ordering) {
            let report = Checker::new(build_db(&r, &s), opts).check(&f).unwrap();
            let ctx = format!("{opts:?} on {f} with R={r:?} S={s:?}");
            assert!(report.verdict.is_decided(), "{ctx}: {:?}", report.error);
            assert_eq!(report.holds, want, "{ctx}");
            off_bdd += usize::from(report.method != Method::Bdd);
        }
    }
    // The corpus must decide both ways and reach the lower rungs.
    assert!(
        violated > 0 && violated < decided,
        "{violated} of {decided}"
    );
    assert!(off_bdd > 0, "the node budgets never forced a fallback");
}

/// Vacuous quantifiers bind variables no atom sorts: every checker
/// configuration must reject the sentence as the evaluator does, not
/// guess a verdict.
#[test]
fn unsorted_vacuous_quantifiers_are_rejected_everywhere() {
    // ∀z1 ∀x2 ∀x1 ∀y1 ∀y2. R(x1, y1), one binder per quantifier.
    let atom = Formula::atom("R", vec![Term::var("x1"), Term::var("y1")]);
    let f = ["y2", "y1", "x1", "x2", "z1"]
        .into_iter()
        .fold(atom, |g, v| {
            Formula::Forall(vec![v.to_owned()], Box::new(g))
        });
    let err = eval_sentence(&build_db(&[], &[]), &f).unwrap_err();
    assert!(matches!(err, LogicError::UnsortedVariable(_)), "{err}");
    for opts in configurations(OrderingStrategy::ProbConverge) {
        let got = Checker::new(build_db(&[], &[]), opts).check(&f);
        assert!(got.is_err(), "{opts:?}: {got:?}");
    }
}

/// Translatable constraints — joins, filters, anti-joins and ∃ — decide
/// alike on the translated SQL plan, the BDD path and brute force. The
/// first case has empty relations, an empty `in` set and the pin 0; the
/// rest are random. Each case's checker then absorbs two batches of random
/// deltas, patching its cached atoms, and decides every constraint again;
/// odd cases join by equality cubes instead of renames.
#[test]
fn translatable_constraints_decide_alike_on_sql_and_bdd() {
    let mut rng = SplitMix64::seed_from_u64(0xF0_5017);
    let mut patches = 0;
    for case in 0..CASES {
        let (r, s, set, pin) = if case == 0 {
            (Vec::new(), Vec::new(), Vec::new(), 0)
        } else {
            let n = rng.gen_range(0..3usize);
            let set: Vec<String> = (0..n).map(|_| rng.gen_range(0..K[1]).to_string()).collect();
            let r = pairs(&mut rng, 8, (K[0], K[1]));
            (
                r,
                pairs(&mut rng, 6, (K[1], K[2])),
                set,
                rng.gen_range(0..K[0]),
            )
        };
        let db = build_db(&r, &s);
        let sources = [
            format!("forall x1, y1. R(x1, y1) & x1 = {pin} -> exists z1. S(y1, z1)"),
            format!("forall x1, y1. R(x1, y1) -> y1 in {{{}}}", set.join(", ")),
            "forall x1, y1, x2, y2. R(x1, y1) & R(x2, y2) & x1 = x2 -> y1 = y2".to_owned(),
            "exists x1, y1, z1. R(x1, y1) & S(y1, z1)".to_owned(),
            "forall x1, y1. !(R(x1, y1) & y1 = 0)".to_owned(),
            "forall x1, y1. !(R(x1, y1) & !S(y1, 0))".to_owned(),
            "forall x1, y1, z1. R(x1, y1) & S(y1, z1) & !R(x1, 0) -> z1 = 1".to_owned(),
        ];
        let opts = CheckerOptions {
            plan: PlanOptions {
                join_rename: case % 2 == 0,
                ..Default::default()
            },
            apply_cache_slots: Some(1 << 10),
            ..Default::default()
        };
        let mut ck = Checker::new(db, opts);
        for batch in 0..3 {
            for _ in 0..if batch == 0 { 0 } else { 3 } {
                let (relation, sizes) = if rng.gen_bool(0.5) {
                    ("R", (K[0], K[1]))
                } else {
                    ("S", (K[1], K[2]))
                };
                let row = [rng.gen_range(0..sizes.0), rng.gen_range(0..sizes.1)].map(|v| v as u32);
                let ldb = ck.logical_db_mut();
                if rng.gen_bool(0.5) {
                    ldb.insert_tuple(relation, &row).unwrap();
                } else {
                    ldb.delete_tuple(relation, &row).unwrap();
                }
            }
            let db = ck.logical_db().db().clone();
            for src in &sources {
                let f = parse(src).unwrap();
                let want = eval_sentence(&db, &f).unwrap();
                let ctx = format!("{src} with R={r:?} S={s:?}, delta batch {batch}");
                let sql = ck.check_sql(&f).unwrap();
                assert_eq!(sql.method, Method::SqlFallback, "no SQL plan: {ctx}");
                assert_eq!(sql.holds, want, "SQL: {ctx}");
                let bdd = ck.check(&f).unwrap();
                assert_eq!(bdd.method, Method::Bdd, "{ctx}");
                assert_eq!(bdd.holds, want, "BDD: {ctx}");
            }
        }
        patches += ck.logical_db().atom_cache_patches();
    }
    assert!(patches > 0, "no delta batch patched a cached atom");
}

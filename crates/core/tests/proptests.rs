//! Differential property tests: BDD path ≡ SQL path ≡ brute-force oracle.
//!
//! Random small databases and random well-sorted constraint sentences are
//! generated; every evaluation strategy the system has (BDD with/without
//! rewrites, rename vs naive joins, SQL plans, brute force, and the full
//! checker with an aggressive node budget forcing fallbacks) must agree on
//! whether each constraint holds.
// Gated behind the off-by-default `fuzz` feature: proptest is an external
// dependency and the tier-1 verify must build with no network access. Run
// with `cargo test --features fuzz` in an environment with a vendored
// proptest.
#![cfg(feature = "fuzz")]

use proptest::prelude::*;
use relcheck_core::checker::{Checker, CheckerOptions};
use relcheck_core::exec::execute_bdd;
use relcheck_core::index::LogicalDatabase;
use relcheck_core::ordering::OrderingStrategy;
use relcheck_core::plan::PlanOptions;
use relcheck_core::planner::bdd_step;
use relcheck_logic::eval::eval_sentence;
use relcheck_logic::{Formula, Term};
use relcheck_relstore::{Database, Raw};

const K1: u64 = 4; // class k1 active-domain size
const K2: u64 = 3;
const K3: u64 = 3;

/// Variable pool with fixed sorts (so random formulas are always
/// well-sorted): x* : k1, y* : k2, z* : k3.
const XS: [&str; 2] = ["x1", "x2"];
const YS: [&str; 2] = ["y1", "y2"];
const ZS: [&str; 1] = ["z1"];

fn build_db(r_rows: &[(u64, u64)], s_rows: &[(u64, u64)]) -> Database {
    let mut db = Database::new();
    // Pre-populate the class dictionaries densely so codes == values and
    // every constant in generated formulas is resolvable.
    db.ensure_class_size("k1", K1);
    db.ensure_class_size("k2", K2);
    db.ensure_class_size("k3", K3);
    db.create_relation(
        "R",
        &[("a", "k1"), ("b", "k2")],
        r_rows
            .iter()
            .map(|&(a, b)| vec![Raw::Int(a as i64), Raw::Int(b as i64)])
            .collect(),
    )
    .unwrap();
    db.create_relation(
        "S",
        &[("c", "k2"), ("d", "k3")],
        s_rows
            .iter()
            .map(|&(c, d)| vec![Raw::Int(c as i64), Raw::Int(d as i64)])
            .collect(),
    )
    .unwrap();
    db
}

/// A quantifier-free matrix over the fixed variable pool.
fn arb_matrix() -> impl Strategy<Value = Formula> {
    let atom_r = (0usize..2, 0usize..2)
        .prop_map(|(i, j)| Formula::atom("R", vec![Term::var(XS[i]), Term::var(YS[j])]));
    let atom_s = (0usize..2, 0usize..1)
        .prop_map(|(j, k)| Formula::atom("S", vec![Term::var(YS[j]), Term::var(ZS[k])]));
    let eq_xx = Just(Formula::Eq(Term::var(XS[0]), Term::var(XS[1])));
    let eq_yy = Just(Formula::Eq(Term::var(YS[0]), Term::var(YS[1])));
    let eq_const = (0usize..2, 0..K1 as i64)
        .prop_map(|(i, c)| Formula::Eq(Term::var(XS[i]), Term::Const(Raw::Int(c))));
    let in_set =
        (0usize..2, proptest::collection::vec(0..K2 as i64, 0..3)).prop_map(|(j, vals)| {
            Formula::InSet(Term::var(YS[j]), vals.into_iter().map(Raw::Int).collect())
        });
    let leaf = prop_oneof![atom_r, atom_s, eq_xx, eq_yy, eq_const, in_set];
    leaf.prop_recursive(3, 24, 3, |inner| {
        prop_oneof![
            inner.clone().prop_map(|f| f.not()),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.and(b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.or(b)),
            (inner.clone(), inner).prop_map(|(a, b)| a.implies(b)),
        ]
    })
}

/// Close the matrix under a random quantifier pattern over all five pool
/// variables (every generated formula becomes a sentence).
fn arb_sentence() -> impl Strategy<Value = Formula> {
    (
        arb_matrix(),
        proptest::collection::vec(any::<bool>(), 5),
        any::<u8>(),
    )
        .prop_map(|(matrix, quants, order_seed)| {
            // Quantify only the variables the matrix actually uses —
            // vacuous quantification has no inferable sort (a documented
            // design decision of the sort checker).
            let free = matrix.free_vars();
            let mut vars: Vec<&str> = XS
                .iter()
                .chain(YS.iter())
                .chain(ZS.iter())
                .copied()
                .filter(|v| free.iter().any(|f| f == v))
                .collect();
            // Cheap deterministic shuffle of the binding order.
            let mut s = order_seed as u64 | 1;
            for i in (1..vars.len()).rev() {
                s = s
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                vars.swap(i, (s >> 33) as usize % (i + 1));
            }
            let mut f = matrix;
            for (v, ex) in vars.into_iter().zip(quants) {
                f = if ex {
                    Formula::Exists(vec![v.to_owned()], Box::new(f))
                } else {
                    Formula::Forall(vec![v.to_owned()], Box::new(f))
                };
            }
            f
        })
}

fn arb_rows_r() -> impl Strategy<Value = Vec<(u64, u64)>> {
    proptest::collection::vec((0..K1, 0..K2), 0..8)
}

fn arb_rows_s() -> impl Strategy<Value = Vec<(u64, u64)>> {
    proptest::collection::vec((0..K2, 0..K3), 0..6)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn bdd_variants_match_oracle(
        f in arb_sentence(),
        r_rows in arb_rows_r(),
        s_rows in arb_rows_s(),
    ) {
        let db = build_db(&r_rows, &s_rows);
        // Formulas whose variables never touch an atom have no inferable
        // sort — rejected by design across the whole stack; skip them.
        let expected = match eval_sentence(&db, &f) {
            Ok(v) => v,
            Err(relcheck_logic::LogicError::UnsortedVariable(_)) => {
                prop_assume!(false);
                unreachable!()
            }
            Err(e) => panic!("oracle failed: {e}"),
        };
        for use_rewrites in [true, false] {
            for join_rename in [true, false] {
                let mut ldb = LogicalDatabase::new(build_db(&r_rows, &s_rows));
                ldb.build_index("R", OrderingStrategy::ProbConverge).unwrap();
                ldb.build_index("S", OrderingStrategy::MaxInfGain).unwrap();
                let options = PlanOptions::from_flags(use_rewrites, join_rename);
                let step = bdd_step(ldb.db(), &f, options, &mut Vec::new());
                let got = execute_bdd(&mut ldb, &step, None).unwrap();
                prop_assert_eq!(
                    got, expected,
                    "rewrites={} rename={} formula={}", use_rewrites, join_rename, &f
                );
            }
        }
    }

    #[test]
    fn checker_with_tiny_budget_matches_oracle(
        f in arb_sentence(),
        r_rows in arb_rows_r(),
        s_rows in arb_rows_s(),
        budget in prop_oneof![Just(Some(25usize)), Just(Some(200)), Just(None)],
    ) {
        let db = build_db(&r_rows, &s_rows);
        let expected = match eval_sentence(&db, &f) {
            Ok(v) => v,
            Err(relcheck_logic::LogicError::UnsortedVariable(_)) => {
                prop_assume!(false);
                unreachable!()
            }
            Err(e) => panic!("oracle failed: {e}"),
        };
        let opts = CheckerOptions { node_limit: budget, ..Default::default() };
        let mut ck = Checker::new(build_db(&r_rows, &s_rows), opts);
        let report = ck.check(&f).unwrap();
        prop_assert_eq!(report.holds, expected, "budget={:?} formula={}", budget, &f);
    }

    #[test]
    fn sql_plan_matches_oracle_when_translatable(
        r_rows in arb_rows_r(),
        s_rows in arb_rows_s(),
        set in proptest::collection::vec(0..K2 as i64, 0..3),
        pin in 0..K1 as i64,
    ) {
        use relcheck_core::sqlgen::{violation_plan, Shape};
        use relcheck_relstore::plan::execute;
        let db = build_db(&r_rows, &s_rows);
        // A family of in-class constraints exercising joins, filters, ∃.
        let sources = [
            format!("forall x1, y1. R(x1, y1) & x1 = {pin} -> exists z1. S(y1, z1)"),
            format!(
                "forall x1, y1. R(x1, y1) -> y1 in {{{}}}",
                set.iter().map(ToString::to_string).collect::<Vec<_>>().join(", ")
            ),
            "forall x1, y1, x2, y2. R(x1, y1) & R(x2, y2) & x1 = x2 -> y1 = y2".to_owned(),
            "exists x1, y1, z1. R(x1, y1) & S(y1, z1)".to_owned(),
            "forall x1, y1. !(R(x1, y1) & y1 = 0)".to_owned(),
            // Negated atom in a denial (anti-join path).
            "forall x1, y1. !(R(x1, y1) & !S(y1, 0))".to_owned(),
            "forall x1, y1, z1. R(x1, y1) & S(y1, z1) & !R(x1, 0) -> z1 = 1".to_owned(),
        ];
        for src in &sources {
            let f = relcheck_logic::parse(src).unwrap();
            let expected = eval_sentence(&db, &f).unwrap();
            let t = violation_plan(&db, &f).unwrap_or_else(|| panic!("untranslatable {src}"));
            let out = execute(&db, &t.plan).unwrap();
            let got = match t.shape {
                Shape::Violations => out.is_empty(),
                Shape::Witnesses => !out.is_empty(),
            };
            prop_assert_eq!(got, expected, "{}", src);
        }
    }

    #[test]
    fn violation_count_matches_oracle(
        r_rows in arb_rows_r(),
        set in proptest::collection::vec(0..K2 as i64, 0..3),
    ) {
        // Count violating premise rows by brute force and compare with
        // find_violations.
        let db = build_db(&r_rows, &[]);
        let set_raws: Vec<i64> = set.clone();
        let f = relcheck_logic::parse(&format!(
            "forall x1, y1. R(x1, y1) -> y1 in {{{}}}",
            set_raws.iter().map(ToString::to_string).collect::<Vec<_>>().join(", ")
        ))
        .unwrap();
        let mut ck = Checker::new(db, CheckerOptions::default());
        let (viol, _cols) = ck.find_violations(&f).unwrap();
        let expected = r_rows
            .iter()
            .collect::<std::collections::HashSet<_>>()
            .iter()
            .filter(|&&&(_, b)| !set_raws.contains(&(b as i64)))
            .count();
        prop_assert_eq!(viol.len(), expected);
    }
}

//! Acceptance tests for the CheckPlan IR: golden plan snapshots, the
//! plan-vs-legacy differential gate, and registry re-checks after a
//! mutated database or a changed checker configuration.

use relcheck_core::checker::{Checker, CheckerOptions, Method, Verdict};
use relcheck_core::registry::{ConstraintRegistry, Verdict as Recheck};
use relcheck_core::PlanOptions;
use relcheck_logic::eval::eval_sentence;
use relcheck_logic::{parse, Formula};
use relcheck_relstore::{Database, Raw};

fn customer_db() -> Database {
    let mut db = Database::new();
    db.create_relation(
        "CUST",
        &[
            ("city", "city"),
            ("areacode", "areacode"),
            ("state", "state"),
        ],
        vec![
            vec![Raw::str("Toronto"), Raw::Int(416), Raw::str("ON")],
            vec![Raw::str("Toronto"), Raw::Int(647), Raw::str("ON")],
            vec![Raw::str("Oshawa"), Raw::Int(905), Raw::str("ON")],
            vec![Raw::str("Newark"), Raw::Int(973), Raw::str("NJ")],
            vec![Raw::str("Newark"), Raw::Int(212), Raw::str("NY")],
        ],
    )
    .unwrap();
    db.create_relation(
        "ALLOWED",
        &[("city", "city"), ("areacode", "areacode")],
        vec![
            vec![Raw::str("Toronto"), Raw::Int(416)],
            vec![Raw::str("Toronto"), Raw::Int(647)],
            vec![Raw::str("Oshawa"), Raw::Int(905)],
            vec![Raw::str("Newark"), Raw::Int(973)],
        ],
    )
    .unwrap();
    db
}

const FD: &str = "forall c, a1, s1, a2, s2. CUST(c, a1, s1) & CUST(c, a2, s2) -> s1 = s2";
const INCLUSION: &str = "forall c, a, s. CUST(c, a, s) -> ALLOWED(c, a)";
const EQUI_JOIN: &str = "forall c, a. ALLOWED(c, a) -> exists s. CUST(c, a, s)";

fn corpus() -> Vec<(&'static str, Formula)> {
    [
        ("fd-city-state", FD),
        ("inclusion", INCLUSION),
        ("allowed-served", EQUI_JOIN),
        ("nonempty", "exists c, a, s. CUST(c, a, s)"),
        (
            "toronto-codes",
            r#"forall c, a, s. CUST(c, a, s) & c = "Toronto" -> a in {416, 647}"#,
        ),
        (
            "no-ny-allowed",
            r#"!(exists c, a, s. CUST(c, a, s) & ALLOWED(c, a) & s = "NY")"#,
        ),
        (
            "state-vocabulary",
            r#"forall c, a, s. CUST(c, a, s) -> s = "ON" | s = "NJ" | s = "NY""#,
        ),
    ]
    .into_iter()
    .map(|(n, s)| (n, parse(s).unwrap()))
    .collect()
}

/// A plan's rendered text minus the fingerprint line (fingerprints are
/// deterministic but recomputed from upstream details — ordering hashes,
/// option bits — that would make the golden needlessly brittle; the
/// determinism test below covers them byte-for-byte).
fn render_sans_fingerprint(ck: &mut Checker, src: &str) -> String {
    let plan = ck.plan(&parse(src).unwrap()).unwrap();
    plan.render()
        .lines()
        .filter(|l| !l.trim_start().starts_with("fingerprint:"))
        .collect::<Vec<_>>()
        .join("\n")
}

/// Golden snapshot: the FD's five-variable ∀-block strips entirely (R1×5
/// after R3×5), the refutation body is the classic premise ∧ ¬conclusion,
/// and neither R4 nor the negation lift finds a residual block to rewrite.
#[test]
fn golden_plan_fd() {
    let mut ck = Checker::new(customer_db(), CheckerOptions::default());
    let expected = "\
plan for: forall c, a1, s1, a2, s2. ((CUST(c, a1, s1) & CUST(c, a2, s2)) -> s1 = s2)
  options: rewrites=on join-rename=on
  passes:
    1. prenex-pullup [R3] fired=5 gated=0
       before: forall c, a1, s1, a2, s2. ((CUST(c, a1, s1) & CUST(c, a2, s2)) -> s1 = s2)
       after:  forall c. forall a1. forall s1. forall a2. forall s2. ((!(CUST(c, a1, s1)) | !(CUST(c, a2, s2))) | s1 = s2)
    2. strip-leading-block [R1] fired=5 gated=0
       before: forall c. forall a1. forall s1. forall a2. forall s2. ((!(CUST(c, a1, s1)) | !(CUST(c, a2, s2))) | s1 = s2)
       after:  ((!(CUST(c, a1, s1)) | !(CUST(c, a2, s2))) | s1 = s2)
    3. refutation-nnf [--] fired=1 gated=0
       before: ((!(CUST(c, a1, s1)) | !(CUST(c, a2, s2))) | s1 = s2)
       after:  (CUST(c, a1, s1) & CUST(c, a2, s2) & !(s1 = s2))
    4. forall-pushdown [R4] fired=0 gated=0
       before: (CUST(c, a1, s1) & CUST(c, a2, s2) & !(s1 = s2))
       after:  (CUST(c, a1, s1) & CUST(c, a2, s2) & !(s1 = s2))
    5. negation-lift [--] fired=0 gated=0
       before: (CUST(c, a1, s1) & CUST(c, a2, s2) & !(s1 = s2))
       after:  (CUST(c, a1, s1) & CUST(c, a2, s2) & !(s1 = s2))
  bdd step: test=violations-empty stripped=[c, a1, s1, a2, s2] join-rename=on
    body: (CUST(c, a1, s1) & CUST(c, a2, s2) & !(s1 = s2))
  sql step: shape=violations columns=[city, areacode, state]
  ladder: bdd -> sql -> brute_force";
    assert_eq!(render_sans_fingerprint(&mut ck, FD), expected);
}

/// Golden snapshot: the inclusion dependency's refutation body is the
/// textbook anti-join `CUST ∧ ¬ALLOWED`.
#[test]
fn golden_plan_inclusion_dependency() {
    let mut ck = Checker::new(customer_db(), CheckerOptions::default());
    let expected = "\
plan for: forall c, a, s. (CUST(c, a, s) -> ALLOWED(c, a))
  options: rewrites=on join-rename=on
  passes:
    1. prenex-pullup [R3] fired=3 gated=0
       before: forall c, a, s. (CUST(c, a, s) -> ALLOWED(c, a))
       after:  forall c. forall a. forall s. (!(CUST(c, a, s)) | ALLOWED(c, a))
    2. strip-leading-block [R1] fired=3 gated=0
       before: forall c. forall a. forall s. (!(CUST(c, a, s)) | ALLOWED(c, a))
       after:  (!(CUST(c, a, s)) | ALLOWED(c, a))
    3. refutation-nnf [--] fired=1 gated=0
       before: (!(CUST(c, a, s)) | ALLOWED(c, a))
       after:  (CUST(c, a, s) & !(ALLOWED(c, a)))
    4. forall-pushdown [R4] fired=0 gated=0
       before: (CUST(c, a, s) & !(ALLOWED(c, a)))
       after:  (CUST(c, a, s) & !(ALLOWED(c, a)))
    5. negation-lift [--] fired=0 gated=0
       before: (CUST(c, a, s) & !(ALLOWED(c, a)))
       after:  (CUST(c, a, s) & !(ALLOWED(c, a)))
  bdd step: test=violations-empty stripped=[c, a, s] join-rename=on
    body: (CUST(c, a, s) & !(ALLOWED(c, a)))
  sql step: shape=violations columns=[c, a, s]
  ladder: bdd -> sql -> brute_force";
    assert_eq!(render_sans_fingerprint(&mut ck, INCLUSION), expected);
}

/// Golden snapshot: the ∀∃ equi-join keeps a residual ∀-block after R1
/// (only the outer two strip), the refutation flips it from ∃ to ∀, and
/// the cost gate lets R4 distribute it into the conjunction (the
/// estimated sum 4 + 5 beats the product 4·5 on this fixture), and the
/// negation lift folds the all-negative `∀s ¬CUST` back into `¬∃s CUST`.
#[test]
fn golden_plan_equi_join() {
    let mut ck = Checker::new(customer_db(), CheckerOptions::default());
    let expected = "\
plan for: forall c, a. (ALLOWED(c, a) -> exists s. CUST(c, a, s))
  options: rewrites=on join-rename=on
  passes:
    1. prenex-pullup [R3] fired=3 gated=0
       before: forall c, a. (ALLOWED(c, a) -> exists s. CUST(c, a, s))
       after:  forall c. forall a. exists s. (!(ALLOWED(c, a)) | CUST(c, a, s))
    2. strip-leading-block [R1] fired=2 gated=0
       before: forall c. forall a. exists s. (!(ALLOWED(c, a)) | CUST(c, a, s))
       after:  exists s. (!(ALLOWED(c, a)) | CUST(c, a, s))
    3. refutation-nnf [--] fired=1 gated=0
       before: exists s. (!(ALLOWED(c, a)) | CUST(c, a, s))
       after:  forall s. (ALLOWED(c, a) & !(CUST(c, a, s)))
    4. forall-pushdown [R4] fired=1 gated=0
       before: forall s. (ALLOWED(c, a) & !(CUST(c, a, s)))
       after:  (ALLOWED(c, a) & forall s. !(CUST(c, a, s)))
    5. negation-lift [--] fired=1 gated=0
       before: (ALLOWED(c, a) & forall s. !(CUST(c, a, s)))
       after:  (ALLOWED(c, a) & !(exists s. CUST(c, a, s)))
  bdd step: test=violations-empty stripped=[c, a] join-rename=on
    body: (ALLOWED(c, a) & !(exists s. CUST(c, a, s)))
  sql step: shape=violations columns=[c, a]
  ladder: bdd -> sql -> brute_force";
    assert_eq!(render_sans_fingerprint(&mut ck, EQUI_JOIN), expected);
}

/// Two independently-built checkers must produce byte-identical plans,
/// fingerprints included — the property `relcheck plan` and the CI
/// determinism smoke rely on.
#[test]
fn plans_are_deterministic_across_checkers() {
    for (name, f) in corpus() {
        let mut a = Checker::new(customer_db(), CheckerOptions::default());
        let mut b = Checker::new(customer_db(), CheckerOptions::default());
        assert_eq!(
            a.plan(&f).unwrap().render(),
            b.plan(&f).unwrap().render(),
            "{name}: plan text must be deterministic"
        );
    }
}

/// The differential gate: for every corpus constraint, the plan-based
/// path returns the same four-valued verdict under the default plan, with
/// every ablation switched off, and as brute force.
#[test]
fn plan_execution_matches_legacy_and_brute_force() {
    let brute = Checker::new(customer_db(), CheckerOptions::default());
    for (name, f) in corpus() {
        let expected = eval_sentence(brute.logical_db().db(), &f).unwrap();
        // Plan path under the default options and with both ablation
        // axes off.
        for plan in [
            PlanOptions::default(),
            PlanOptions {
                rewrites: false,
                join_rename: false,
            },
        ] {
            let mut ck = Checker::new(
                customer_db(),
                CheckerOptions {
                    plan,
                    ..Default::default()
                },
            );
            let report = ck.check(&f).unwrap();
            assert_eq!(report.method, Method::Bdd, "{name}: decided on rung 1");
            assert_eq!(report.holds, expected, "{name} under {plan:?}");
            assert_eq!(
                report.verdict,
                if expected {
                    Verdict::Holds
                } else {
                    Verdict::Violated
                },
                "{name} under {plan:?}"
            );
        }
    }
}

/// A registry re-check decides on the data as it is now: repairing the
/// violation between two checks of the same constraint flips the
/// verdict.
#[test]
fn registry_recheck_sees_a_mutation() {
    let mut ck = Checker::new(customer_db(), CheckerOptions::default());
    let mut reg = ConstraintRegistry::new();
    assert!(reg.register("inclusion", parse(INCLUSION).unwrap()));

    // (Newark, 212) is not ALLOWED: violated on the seed data.
    assert!(!reg.validate_all(&mut ck).unwrap()[0].1.holds);
    // Repair it by inserting the missing ALLOWED row...
    let newark = ck
        .logical_db()
        .db()
        .code("city", &Raw::str("Newark"))
        .unwrap();
    let code212 = ck
        .logical_db()
        .db()
        .code("areacode", &Raw::Int(212))
        .unwrap();
    ck.logical_db_mut()
        .insert_tuple("ALLOWED", &[newark, code212])
        .unwrap();
    // ...and the re-check must see the mutation.
    let verdicts = reg.revalidate(&mut ck, &["ALLOWED"]).unwrap();
    assert!(matches!(verdicts[0].1, Recheck::Checked { holds: true }));
}

/// `rebuild_index` and `mark_sql_only` change no tuple: registry
/// re-checks after either keep the verdict, and after `mark_sql_only`
/// the check routes around the BDD step.
#[test]
fn registry_rechecks_after_rebuild_and_sql_routing_keep_the_verdict() {
    let mut ck = Checker::new(customer_db(), CheckerOptions::default());
    let mut reg = ConstraintRegistry::new();
    assert!(reg.register("fd", parse(FD).unwrap()));

    let r1 = reg.validate_all(&mut ck).unwrap().remove(0).1;
    assert_eq!(r1.method, Method::Bdd);

    ck.rebuild_index("CUST").unwrap();
    let r2 = reg.validate_all(&mut ck).unwrap().remove(0).1;
    assert_eq!((r1.holds, r1.verdict), (r2.holds, r2.verdict));

    ck.mark_sql_only("CUST");
    let r3 = reg.validate_all(&mut ck).unwrap().remove(0).1;
    assert_eq!(
        r3.method,
        Method::SqlFallback,
        "the post-flip plan must route around the BDD step"
    );
    assert_eq!((r1.holds, r1.verdict), (r3.holds, r3.verdict));
}

/// A constraint referencing a SQL-only relation plans with no BDD step at
/// all, and the plan's declared ladder matches what executing it reports.
#[test]
fn sql_only_plans_skip_the_bdd_rung() {
    let mut ck = Checker::new(customer_db(), CheckerOptions::default());
    ck.mark_sql_only("CUST");
    let f = parse(INCLUSION).unwrap();
    let plan = ck.plan(&f).unwrap();
    assert!(plan.bdd.is_none(), "sql-only relation suppresses the step");
    assert_eq!(plan.ladder(), vec!["sql", "brute_force"]);
    let report = ck.check(&f).unwrap();
    assert_eq!(report.method, Method::SqlFallback);
    let trace = report.trace;
    assert_eq!(trace.ladder, vec!["sql"], "decided on the first rung tried");
    assert!(
        trace.passes.is_empty(),
        "no BDD step planned, so no passes ran"
    );
}

/// Per-pass firing counts surface in the trace (telemetry v4): the
/// pipeline order and the fired counters must match the plan's records.
#[test]
fn traces_carry_per_pass_firing_counts() {
    let mut ck = Checker::new(customer_db(), CheckerOptions::default());
    let report = ck.check(&parse(EQUI_JOIN).unwrap()).unwrap();
    let trace = report.trace;
    let got: Vec<(&str, u64, u64)> = trace
        .passes
        .iter()
        .map(|p| (p.pass, p.fired, p.gated))
        .collect();
    assert_eq!(
        got,
        vec![
            ("prenex-pullup", 3, 0),
            ("strip-leading-block", 2, 0),
            ("refutation-nnf", 1, 0),
            ("forall-pushdown", 1, 0),
            ("negation-lift", 1, 0),
        ]
    );
}

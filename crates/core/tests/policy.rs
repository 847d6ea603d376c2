//! Differential acceptance tests for the workload-driven decision policy:
//! an auto-advised registry must produce **verdict-identical** results to
//! the static configuration on every fixture, no matter what the advisor
//! reroutes, reseeds, or resizes.
//!
//! Three lanes mirror the engines a deployment can run:
//!
//! * serial — [`ConstraintRegistry::validate_all`] before and after
//!   [`ConstraintRegistry::apply_policy`];
//! * parallel — [`Checker::check_all_parallel`] with two worker lanes
//!   after the advice is applied, against the static serial baseline;
//! * serve — a randomized SplitMix64-seeded delta script with periodic
//!   `advise` calls under armed failpoints, diffed against a cold
//!   fault-free re-check of the shadow row-set.
//!
//! Verdict-identical means the `(name, holds, decided)` signature matches
//! exactly; the *method* (bdd vs sql) is exactly what advice is allowed to
//! change.

use relcheck_bdd::failpoint;
use relcheck_core::checker::{Checker, CheckerOptions};
use relcheck_core::ordering::OrderingStrategy;
use relcheck_core::policy::{advise, render_report, WorkloadProfile};
use relcheck_core::registry::ConstraintRegistry;
use relcheck_core::serve::ServeEngine;
use relcheck_core::store::Delta;
use relcheck_core::telemetry::validate_plan_json;
use relcheck_core::{plans_to_json, CheckPlan};
use relcheck_datagen::SplitMix64;
use relcheck_logic::{parse, Formula};
use relcheck_relstore::{Database, Raw};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Mutex;

/// Failpoint-armed tests share the process-global registry; serialize.
static GUARD: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    GUARD
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

struct FpGuard;

impl Drop for FpGuard {
    fn drop(&mut self) {
        failpoint::clear();
    }
}

/// Silence the default panic hook while faults are injected on purpose;
/// the panics are caught and folded into degradation, the noise is not.
fn quiet_panics() {
    std::panic::set_hook(Box::new(|_| {}));
}

fn restore_panics() {
    let _ = std::panic::take_hook();
}

// ---------------------------------------------------------------- fixtures

const SCHEMAS: [(&str, &[(&str, &str)]); 3] = [
    ("R", &[("x", "k"), ("y", "k")]),
    ("S", &[("x", "k")]),
    ("T", &[("z", "j")]),
];

const K_UNIVERSE: i64 = 7;
const J_UNIVERSE: i64 = 5;

type Shadow = BTreeMap<&'static str, BTreeSet<Vec<i64>>>;

fn base_shadow() -> Shadow {
    let mut shadow = Shadow::new();
    shadow.insert("R", [vec![1, 1], vec![2, 2], vec![3, 3]].into());
    shadow.insert("S", [vec![1], vec![2]].into());
    shadow.insert("T", [vec![0], vec![1]].into());
    shadow
}

/// A second fixture with a deliberately violated constraint, so the
/// differential covers failing verdicts too.
fn violated_shadow() -> Shadow {
    let mut shadow = base_shadow();
    shadow.get_mut("R").unwrap().insert(vec![2, 5]);
    shadow.get_mut("S").unwrap().insert(vec![6]);
    shadow
}

fn db_from(shadow: &Shadow) -> Database {
    let mut db = Database::new();
    for (name, columns) in SCHEMAS {
        let rows = shadow[name]
            .iter()
            .map(|row| row.iter().map(|&v| Raw::Int(v)).collect())
            .collect();
        db.create_relation(name, columns, rows).unwrap();
    }
    for v in 0..K_UNIVERSE {
        db.encode_value("k", &Raw::Int(v));
    }
    for v in 0..J_UNIVERSE {
        db.encode_value("j", &Raw::Int(v));
    }
    db
}

fn constraints() -> Vec<(String, Formula)> {
    [
        ("r-diagonal", "forall x, y. R(x, y) -> x = y"),
        ("r-covers-s", "forall x. S(x) -> exists y. R(x, y)"),
        ("t-bounded", "forall z. T(z) -> z in {0, 1, 2, 3}"),
        ("s-nonempty", "exists x. S(x)"),
    ]
    .iter()
    .map(|(name, text)| ((*name).to_owned(), parse(text).unwrap()))
    .collect()
}

fn registry() -> ConstraintRegistry {
    let mut reg = ConstraintRegistry::new();
    for (name, f) in constraints() {
        reg.register(&name, f);
    }
    reg
}

/// The differential signature: everything advice must not change.
type Signature = Vec<(String, bool, bool)>;

fn signature(reports: &[(String, relcheck_core::checker::CheckReport)]) -> Signature {
    reports
        .iter()
        .map(|(name, r)| (name.clone(), r.holds, r.verdict.is_decided()))
        .collect()
}

/// Run the static configuration and record the workload it produces.
fn static_run(shadow: &Shadow, opts: &CheckerOptions) -> (Signature, WorkloadProfile) {
    let mut ck = Checker::new(db_from(shadow), *opts);
    let mut reg = registry();
    let reports = reg.validate_all(&mut ck).unwrap();
    let profile = WorkloadProfile::record(&ck, &constraints(), &reports);
    (signature(&reports), profile)
}

/// Run a fresh checker with the recorded profile applied before checking.
fn advised_run(shadow: &Shadow, opts: &CheckerOptions, profile: &WorkloadProfile) -> Signature {
    let mut ck = Checker::new(
        db_from(shadow),
        CheckerOptions {
            apply_cache_slots: Some(profile.cache_slots()),
            ..*opts
        },
    );
    let mut reg = registry();
    reg.apply_policy(&mut ck, profile).unwrap();
    signature(&reg.validate_all(&mut ck).unwrap())
}

// ------------------------------------------------------------------ serial

#[test]
fn serial_advised_verdicts_match_static() {
    let option_sets = [
        CheckerOptions::default(),
        CheckerOptions {
            ordering: OrderingStrategy::Adaptive,
            ..Default::default()
        },
    ];
    for shadow in [base_shadow(), violated_shadow()] {
        for opts in &option_sets {
            let (static_sig, profile) = static_run(&shadow, opts);
            let advised_sig = advised_run(&shadow, opts, &profile);
            assert_eq!(
                static_sig, advised_sig,
                "advised registry changed a verdict (opts {opts:?})"
            );
            // Advice is idempotent: applying it again on the same engine
            // must not flip anything either.
            let mut ck = Checker::new(
                db_from(&shadow),
                CheckerOptions {
                    apply_cache_slots: Some(profile.cache_slots()),
                    ..*opts
                },
            );
            let mut reg = registry();
            reg.apply_policy(&mut ck, &profile).unwrap();
            reg.apply_policy(&mut ck, &profile).unwrap();
            assert_eq!(
                static_sig,
                signature(&reg.validate_all(&mut ck).unwrap()),
                "double-applied advice changed a verdict (opts {opts:?})"
            );
        }
    }
}

// ---------------------------------------------------------------- parallel

#[test]
fn parallel_advised_verdicts_match_static() {
    for shadow in [base_shadow(), violated_shadow()] {
        let (static_sig, profile) = static_run(&shadow, &CheckerOptions::default());
        let mut ck = Checker::new(
            db_from(&shadow),
            CheckerOptions {
                apply_cache_slots: Some(profile.cache_slots()),
                ..Default::default()
            },
        );
        let mut reg = registry();
        reg.apply_policy(&mut ck, &profile).unwrap();
        let reports = ck.check_all_parallel(&reg.constraints(), 2).unwrap();
        assert_eq!(
            static_sig,
            signature(&reports),
            "2-lane advised validation changed a verdict"
        );
    }
}

// ------------------------------------------------------------------- serve

fn random_delta(rng: &mut SplitMix64) -> (&'static str, Vec<i64>) {
    let relation = SCHEMAS[rng.gen_range(0usize..SCHEMAS.len())].0;
    let row = match relation {
        "R" => vec![
            rng.gen_range(0u64..K_UNIVERSE as u64) as i64,
            rng.gen_range(0u64..K_UNIVERSE as u64) as i64,
        ],
        "S" => vec![rng.gen_range(0u64..K_UNIVERSE as u64) as i64],
        _ => vec![rng.gen_range(0u64..J_UNIVERSE as u64) as i64],
    };
    (relation, row)
}

/// Cold, fault-free ground truth over the shadow rows.
fn cold_signature(shadow: &Shadow) -> Vec<(String, bool)> {
    let mut ck = Checker::new(db_from(shadow), CheckerOptions::default());
    ck.check_all(&constraints())
        .unwrap()
        .into_iter()
        .map(|(name, report)| (name, report.holds))
        .collect()
}

#[test]
fn randomized_serve_session_with_advise_under_faults_matches_cold_recheck() {
    let _lock = lock();
    let _fp = FpGuard;
    quiet_panics();
    for seed in [3u64, 88, 20070415] {
        failpoint::clear();
        let mut shadow = base_shadow();
        // Prime fault-free so the session starts from decided verdicts.
        let ck = Checker::new(db_from(&shadow), CheckerOptions::default());
        let (mut engine, _) = ServeEngine::new(ck, &constraints(), None).unwrap();

        // Arm every site at a low rate: advise must stay sound while the
        // engine degrades relations underneath it.
        let spec = failpoint::SITES
            .iter()
            .map(|s| format!("{s}=0.05"))
            .collect::<Vec<_>>()
            .join(",");
        failpoint::configure_spec(&spec, seed).unwrap();

        let mut rng = SplitMix64::seed_from_u64(seed);
        for step in 0..60 {
            let (relation, row) = random_delta(&mut rng);
            let insert = rng.gen_range(0u64..2) == 0;
            let raw: Vec<Raw> = row.iter().map(|&v| Raw::Int(v)).collect();
            let delta = if insert {
                Delta::Insert(raw)
            } else {
                Delta::Delete(raw)
            };
            // An injected fault kills the delta cleanly: atomic
            // maintenance rolls it back and the shadow stays untouched.
            if let Ok(outcome) = engine.apply(relation, &delta) {
                let rows = shadow.get_mut(relation).unwrap();
                let shadow_changed = if insert {
                    rows.insert(row.clone())
                } else {
                    rows.remove(&row)
                };
                assert_eq!(
                    outcome.changed, shadow_changed,
                    "seed {seed} step {step}: engine/shadow disagree on change"
                );
            }
            // Re-advise mid-script while faults are live: a killed advise
            // pass is legitimate, a verdict flip is not (checked below).
            if step % 9 == 4 {
                let _ = engine.advise_now();
            }
            // The differential itself runs fault-free: the faults exercise
            // the delta/advise path, the comparison must be exact.
            failpoint::clear();
            let incremental: Vec<(String, bool)> = engine
                .check_all()
                .unwrap()
                .into_iter()
                .map(|(name, v)| (name, v.holds()))
                .collect();
            assert_eq!(
                incremental,
                cold_signature(&shadow),
                "seed {seed} step {step}: advised session diverged from cold re-check"
            );
            failpoint::configure_spec(&spec, seed ^ step).unwrap();
        }
        // Fault-free advise at the end must always succeed cleanly.
        failpoint::clear();
        engine.advise_now().unwrap();
        let final_verdicts: Vec<(String, bool)> = engine
            .check_all()
            .unwrap()
            .into_iter()
            .map(|(name, v)| (name, v.holds()))
            .collect();
        assert_eq!(
            final_verdicts,
            cold_signature(&shadow),
            "seed {seed}: post-advise verdicts diverged from cold re-check"
        );
    }
    restore_panics();
}

// ----------------------------------------------------------- determinism

#[test]
fn advise_report_and_plan_json_are_deterministic() {
    let shadow = violated_shadow();
    let (_, profile) = static_run(&shadow, &CheckerOptions::default());

    let render = || {
        let mut ck = Checker::new(db_from(&shadow), CheckerOptions::default());
        let advice = advise(&profile, &mut ck, &constraints());
        render_report(&profile, &advice)
    };
    let first = render();
    assert_eq!(first, render(), "advise report is not byte-deterministic");
    assert!(first.contains("route"), "report names a route per relation");

    let plan_json = || {
        let mut ck = Checker::new(db_from(&shadow), CheckerOptions::default());
        let plans: Vec<(String, CheckPlan)> = constraints()
            .iter()
            .map(|(name, f)| (name.clone(), ck.plan(f).unwrap()))
            .collect();
        plans_to_json(&plans)
    };
    let doc = plan_json();
    assert_eq!(doc, plan_json(), "plan JSON is not byte-deterministic");
    validate_plan_json(&doc).expect("plan JSON validates against its schema");
}

//! Resilience acceptance tests for the checker: a wall-clock deadline must
//! bound any single constraint, and — the differential property — under *any* fault
//! profile every constraint either reproduces its fault-free verdict or is
//! explicitly `Degraded`/`Errored`. Never silently wrong.
//!
//! The failpoint registry is process-global, so every test in this binary
//! serializes on one mutex.

use relcheck_bdd::failpoint;
use relcheck_core::checker::{CheckReport, Checker, CheckerOptions, Method, Verdict};
use relcheck_core::ordering::OrderingStrategy;
use relcheck_core::registry::ConstraintRegistry;
use relcheck_core::telemetry::{validate_metrics_json, FallbackReason, RunBdd, RunMetrics};
use relcheck_datagen::customer::{generate, CustomerConfig};
use relcheck_logic::{parse, Formula};
use relcheck_relstore::{Database, Relation, Schema};
use std::sync::Mutex;
use std::time::Duration;

static GUARD: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    GUARD
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Silence the default panic hook while a test injects panics on purpose;
/// the panics are caught and folded into reports, the stderr noise is not.
fn quiet_panics() {
    std::panic::set_hook(Box::new(|_| {}));
}

fn restore_panics() {
    let _ = std::panic::take_hook();
}

/// A deliberately tiny customer database — small enough that even the
/// brute-force rung at the bottom of the ladder decides every battery
/// constraint in microseconds, so fault profiles that knock out both the
/// BDD and SQL paths still terminate fast.
fn mini_db() -> Database {
    let mut db = Database::new();
    for (class, size) in [("areacode", 6u64), ("city", 8), ("state", 4)] {
        db.ensure_class_size(class, size);
    }
    let mut rows: Vec<Vec<u32>> = Vec::new();
    let mut x = 9u64;
    for _ in 0..60 {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let a = ((x >> 33) % 6) as u32;
        let c = ((x >> 12) % 8) as u32;
        rows.push(vec![a, c, c % 4]);
    }
    rows.push(vec![0, 3, 2]); // breaks city→state and disagrees with the reference
    let cust = Relation::from_rows(
        Schema::new(&[
            ("areacode", "areacode"),
            ("city", "city"),
            ("state", "state"),
        ]),
        rows,
    )
    .unwrap();
    db.insert_relation("CUST", cust).unwrap();
    let cs: Vec<Vec<u32>> = (0..8u32).map(|c| vec![c, c % 4]).collect();
    db.insert_relation(
        "CITY_STATE",
        Relation::from_rows(Schema::new(&[("city", "city"), ("state", "state")]), cs).unwrap(),
    )
    .unwrap();
    db
}

fn battery() -> Vec<(String, Formula)> {
    [
        (
            "reference-agrees",
            "forall a, c, s, s2. CUST(a, c, s) & CITY_STATE(c, s2) -> s = s2",
        ),
        (
            "city-determines-state",
            "forall a1, c, s1, a2, s2. CUST(a1, c, s1) & CUST(a2, c, s2) -> s1 = s2",
        ),
        (
            "areacode-determines-state",
            "forall a, c1, s1, c2, s2. CUST(a, c1, s1) & CUST(a, c2, s2) -> s1 = s2",
        ),
        (
            "cities-are-known",
            "forall a, c, s. CUST(a, c, s) -> exists s2. CITY_STATE(c, s2)",
        ),
        (
            "reference-is-functional",
            "forall c, s1, s2. CITY_STATE(c, s1) & CITY_STATE(c, s2) -> s1 = s2",
        ),
        ("reference-nonempty", "exists c, s. CITY_STATE(c, s)"),
    ]
    .into_iter()
    .map(|(n, s)| (n.to_owned(), parse(s).unwrap()))
    .collect()
}

/// A typed error is a broken spec, not a fault: it stops the batch, and
/// the error reported is the first bad constraint's in input order.
#[test]
fn typed_errors_stop_the_batch_at_the_first_bad_constraint() {
    let battery: Vec<(String, Formula)> = [
        ("ok-1", "exists c, s. CITY_STATE(c, s)"),
        ("bad-1", "exists c. CITY_STATE(c, free_one)"),
        ("ok-2", "exists a, c, s. CUST(a, c, s)"),
        ("bad-2", "exists a, c. CUST(a, c, free_two)"),
    ]
    .into_iter()
    .map(|(n, s)| (n.to_owned(), parse(s).unwrap()))
    .collect();
    let err = Checker::new(mini_db(), CheckerOptions::default())
        .check_all(&battery)
        .unwrap_err();
    assert!(err.to_string().contains("free_one"), "{err}");
}

/// A constraint checked under a 10 ms deadline terminates — with
/// `FallbackReason::Deadline` in its trace and a verdict decided by a
/// lower rung of the ladder. The BDD path is made
/// deliberately expensive (adversarial random ordering, naive equality
/// cubes, no rewrites); row counts escalate until the compile genuinely
/// outlives the deadline on this machine.
#[test]
fn ten_ms_deadline_terminates_with_deadline_fallback() {
    let _g = lock();
    let heavy = parse(
        "forall a1, c1, s1, a2, c2, s2, a3, s3. CUST(a1, c1, s1) & CUST(a2, c2, s2) \
         & CUST(a3, c2, s3) & a1 = a2 & c1 = c2 -> s2 = s3",
    )
    .unwrap();
    for rows in [1_000usize, 4_000] {
        let data = generate(&CustomerConfig {
            rows,
            dom_sizes: [40, 120, 150, 12, 200],
            violation_rate: 0.01,
            seed: 23,
        });
        let mut db = Database::new();
        for (class, size) in [("areacode", 40u64), ("city", 150), ("state", 12)] {
            db.ensure_class_size(class, size);
        }
        let cust = Relation::from_rows(
            Schema::new(&[
                ("areacode", "areacode"),
                ("city", "city"),
                ("state", "state"),
            ]),
            data.relation.rows().map(|r| vec![r[0], r[2], r[3]]),
        )
        .unwrap();
        db.insert_relation("CUST", cust).unwrap();
        let ord = OrderingStrategy::Random(11);
        let mut ck = Checker::new(
            db,
            CheckerOptions {
                telemetry: true,
                plan: relcheck_core::PlanOptions {
                    rewrites: false,
                    join_rename: false,
                },
                ordering: ord,
                deadline: Some(Duration::from_millis(10)),
                ..Default::default()
            },
        );
        // Build the index outside the deadline window so the abort lands in
        // the compile itself, not in index construction.
        ck.logical_db_mut().build_index("CUST", ord).unwrap();
        let report = ck.check(&heavy).expect("a deadline abort is not an error");
        let trace = report.metrics.clone().expect("telemetry on");
        if matches!(trace.fallback, Some(FallbackReason::Deadline)) {
            assert_ne!(report.method, Method::Bdd, "the BDD rung was aborted");
            assert_eq!(trace.ladder.first(), Some(&"bdd"));
            assert!(
                trace.ladder.len() > 1,
                "the ladder must record the escalation: {:?}",
                trace.ladder
            );
            assert!(
                report.verdict.is_decided() || report.verdict == Verdict::Degraded,
                "got {:?}",
                report.verdict
            );
            return;
        }
        // Compile beat the deadline at this size — escalate.
    }
    panic!("BDD compile never outlived the 10ms deadline; fixture too small");
}

/// An already-expired deadline fires deterministically at the first
/// 256-step stride boundary, and the ladder still decides the constraint
/// via SQL with the abort recorded in the trace. Every variable reaches
/// the consequent, so no column is projected before the join and the
/// compile outlives the first stride.
#[test]
fn expired_deadline_walks_ladder_and_still_decides() {
    let _g = lock();
    let db = mini_db();
    let f =
        parse("forall a1, c, s1, a2, s2. CUST(a1, c, s1) & CUST(a2, c, s2) -> a1 = a2 & s1 = s2")
            .unwrap();
    let mut clean = Checker::new(
        db.clone(),
        CheckerOptions {
            telemetry: true,
            ..Default::default()
        },
    );
    let want = clean.check(&f).unwrap();
    assert_eq!(want.method, Method::Bdd);

    let mut ck = Checker::new(
        db,
        CheckerOptions {
            telemetry: true,
            deadline: Some(Duration::ZERO),
            ..Default::default()
        },
    );
    ck.logical_db_mut()
        .build_index("CUST", OrderingStrategy::ProbConverge)
        .unwrap();
    let report = ck.check(&f).unwrap();
    let trace = report.metrics.clone().unwrap();
    assert_eq!(trace.fallback, Some(FallbackReason::Deadline));
    assert!(trace.ladder.contains(&"sql") || trace.ladder.contains(&"brute_force"));
    assert!(
        report.verdict.is_decided(),
        "SQL decides what BDD could not"
    );
    assert_eq!(report.holds, want.holds, "fallback verdict must agree");
}

/// The differential property over fault profiles: for every profile, every
/// constraint's report either (a) is decided and equal to the fault-free
/// verdict, or (b) is explicitly `Degraded`/`Errored` with a recorded
/// reason — and the telemetry document stays schema-valid throughout.
#[test]
fn fault_profiles_never_silently_change_a_verdict() {
    let _g = lock();
    quiet_panics();
    let db = mini_db();
    let battery = battery();
    let opts = CheckerOptions {
        telemetry: true,
        ..Default::default()
    };
    let mut ck = Checker::new(db.clone(), opts);
    let clean: Vec<(String, CheckReport)> = ck.check_all(&battery).unwrap();
    assert!(clean.iter().any(|(_, r)| !r.holds));
    assert!(clean.iter().any(|(_, r)| r.holds));

    let check = |profile: &str, got: &[(String, CheckReport)]| {
        assert_eq!(clean.len(), got.len(), "{profile}");
        for ((wn, wr), (gn, gr)) in clean.iter().zip(got) {
            assert_eq!(wn, gn, "{profile}: order");
            if gr.verdict.is_decided() {
                assert_eq!(
                    wr.holds, gr.holds,
                    "{profile}/{wn}: a decided verdict under faults must \
                     match the fault-free run"
                );
            } else {
                assert!(
                    matches!(gr.verdict, Verdict::Degraded | Verdict::Errored),
                    "{profile}/{wn}: undecided must be explicit"
                );
                if gr.verdict == Verdict::Errored {
                    assert!(gr.error.is_some(), "{profile}/{wn}: errored says why");
                }
            }
        }
    };

    let profiles: &[(&str, u64)] = &[
        ("index-build=1", 1),
        ("apply=1", 1),
        ("sql-fallback=1", 1),
        ("apply=1,sql-fallback=1", 1),
        ("snapshot-decode=1", 1),
        (
            "index-build=0.4,snapshot-decode=0.4,apply=0.4,sql-fallback=0.4",
            3,
        ),
        (
            "index-build=0.4,snapshot-decode=0.4,apply=0.4,sql-fallback=0.4",
            17,
        ),
    ];
    for &(spec, seed) in profiles {
        failpoint::configure_spec(spec, seed).unwrap();
        let mut ck = Checker::new(db.clone(), opts);
        let before = ck.logical_db().manager().stats();
        let reports = ck.check_all(&battery);
        let bdd = RunBdd::between(&before, &ck.logical_db().manager().stats());
        let doc = reports
            .as_ref()
            .ok()
            .map(|reports| RunMetrics::from_reports(reports, Some(bdd)).to_json());
        failpoint::clear();
        check(
            &format!("{spec} seed={seed}"),
            &reports.expect("faults must degrade, not fail the run"),
        );
        validate_metrics_json(&doc.unwrap())
            .unwrap_or_else(|e| panic!("{spec} seed={seed}: invalid metrics: {e}"));
    }

    // A zero deadline is the harshest budget profile of all: everything
    // BDD-shaped aborts, yet every verdict is still decided (or explicitly
    // degraded) and still agrees with the fault-free run.
    let mut ck = Checker::new(
        db,
        CheckerOptions {
            telemetry: true,
            deadline: Some(Duration::ZERO),
            ..Default::default()
        },
    );
    let got = ck.check_all(&battery).unwrap();
    check("deadline=0", &got);
    restore_panics();
}

/// The registry path obeys the same differential contract: driving the
/// battery through a `ConstraintRegistry` under a fault profile must never
/// silently change a verdict — decided means equal to the fault-free run,
/// anything else is explicitly `Degraded`/`Errored`. After the faults
/// clear, a second validation round on the *same* registry (whatever
/// verdicts it cached while degraded) recovers every fault-free verdict.
#[test]
fn registry_path_respects_the_fault_differential() {
    let _g = lock();
    quiet_panics();
    let db = mini_db();
    let battery = battery();
    let opts = CheckerOptions {
        telemetry: true,
        ..Default::default()
    };
    let mut ck = Checker::new(db.clone(), opts);
    let clean: Vec<(String, CheckReport)> = ck.check_all(&battery).unwrap();

    let profiles: &[(&str, u64)] = &[
        ("index-build=1", 1),
        ("apply=1", 1),
        ("sql-fallback=1", 1),
        ("apply=1,sql-fallback=1", 1),
        (
            "index-build=0.4,snapshot-decode=0.4,apply=0.4,sql-fallback=0.4",
            3,
        ),
    ];
    for &(spec, seed) in profiles {
        let mut ck = Checker::new(db.clone(), opts);
        let mut reg = ConstraintRegistry::new();
        for (n, f) in &battery {
            reg.register(n, f.clone());
        }
        failpoint::configure_spec(spec, seed).unwrap();
        let faulty = reg.validate_all(&mut ck);
        failpoint::clear();
        let faulty = faulty.expect("faults must degrade, not fail the run");
        assert_eq!(clean.len(), faulty.len(), "{spec}");
        for ((wn, wr), (gn, gr)) in clean.iter().zip(&faulty) {
            assert_eq!(wn, gn, "{spec}: order");
            if gr.verdict.is_decided() {
                assert_eq!(
                    wr.holds, gr.holds,
                    "{spec}/{wn}: a decided registry verdict under faults \
                     must match the fault-free run"
                );
            } else {
                assert!(
                    matches!(gr.verdict, Verdict::Degraded | Verdict::Errored),
                    "{spec}/{wn}: undecided must be explicit"
                );
            }
        }

        // Recovery: same registry, faults gone. Every verdict is decided
        // again and equals the fault-free run — nothing cached in the
        // degraded era may leak a wrong answer.
        let recovered = reg.validate_all(&mut ck).unwrap();
        for ((wn, wr), (gn, gr)) in clean.iter().zip(&recovered) {
            assert_eq!(wn, gn, "{spec}: recovery order");
            assert!(
                gr.verdict.is_decided(),
                "{spec}/{gn}: fault-free revalidation must decide"
            );
            assert_eq!(wr.holds, gr.holds, "{spec}/{wn}: recovery verdict");
        }
    }
    restore_panics();
}

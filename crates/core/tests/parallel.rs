//! Differential and robustness tests for the parallel checking engine:
//! [`Checker::check_all_parallel`] must produce results identical (on the
//! deterministic report fields `holds` and `method`) to the serial
//! [`Checker::check_all`], for every worker count and every ordering
//! strategy — and a node-budget abort in one worker lane must degrade that
//! lane to SQL without touching any other lane.

use relcheck_core::checker::{Checker, CheckerOptions, Method};
use relcheck_core::ordering::OrderingStrategy;
use relcheck_datagen::customer::{generate, CustomerConfig};
use relcheck_datagen::gen_kprod;
use relcheck_logic::{parse, Formula};
use relcheck_relstore::{Database, Relation, Schema};

/// A miniature customer database (CUST + CITY_STATE) with a sprinkling of
/// injected violations so the battery exercises both verdicts.
fn customer_db(rows: usize, violation_rate: f64) -> Database {
    let data = generate(&CustomerConfig {
        rows,
        dom_sizes: [40, 120, 150, 12, 200],
        violation_rate,
        seed: 23,
    });
    let mut db = Database::new();
    for (class, size) in [
        ("areacode", data.dom_sizes[0]),
        ("city", data.dom_sizes[2]),
        ("state", data.dom_sizes[3]),
    ] {
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
    let cs: Vec<Vec<u32>> = (0..data.dom_sizes[2] as u32)
        .map(|c| vec![c, data.city_state[c as usize]])
        .collect();
    db.insert_relation(
        "CITY_STATE",
        Relation::from_rows(Schema::new(&[("city", "city"), ("state", "state")]), cs).unwrap(),
    )
    .unwrap();
    db
}

fn customer_battery() -> Vec<(String, Formula)> {
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

/// Compare the deterministic fields of two report lists.
fn assert_reports_match(
    want: &[(String, relcheck_core::checker::CheckReport)],
    got: &[(String, relcheck_core::checker::CheckReport)],
    context: &str,
) {
    assert_eq!(want.len(), got.len(), "{context}: length");
    for ((wn, wr), (gn, gr)) in want.iter().zip(got) {
        assert_eq!(wn, gn, "{context}: order");
        assert_eq!(wr.holds, gr.holds, "{context}: {wn} holds");
        assert_eq!(wr.method, gr.method, "{context}: {wn} method");
    }
}

#[test]
fn parallel_matches_serial_on_customer_data_across_strategies() {
    let db = customer_db(2_000, 0.01);
    let battery = customer_battery();
    let strategies = [
        OrderingStrategy::Schema,
        OrderingStrategy::Random(7),
        OrderingStrategy::MaxInfGain,
        OrderingStrategy::ProbConverge,
        OrderingStrategy::MinCondEntropy,
    ];
    for strategy in strategies {
        let opts = CheckerOptions {
            ordering: strategy,
            ..Default::default()
        };
        let mut serial = Checker::new(db.clone(), opts);
        let want = serial.check_all(&battery).unwrap();
        for threads in [1usize, 2, 8] {
            let mut ck = Checker::new(db.clone(), opts);
            let got = ck.check_all_parallel(&battery, threads).unwrap();
            assert_reports_match(&want, &got, &format!("{strategy:?}/threads={threads}"));
        }
    }
}

#[test]
fn parallel_matches_serial_on_kprod_data() {
    // Two independent k-PROD relations plus a cross-relation inclusion.
    let g1 = gen_kprod(3, 24, 1_500, 2, 301);
    let g2 = gen_kprod(3, 24, 1_500, 1, 302);
    let mut db = Database::new();
    for (i, g) in [&g1, &g2].into_iter().enumerate() {
        for (c, &size) in g.dom_sizes.iter().enumerate() {
            db.ensure_class_size(&format!("r{i}c{c}"), size);
        }
        let cols: Vec<(String, String)> = (0..3)
            .map(|c| (format!("v{c}"), format!("r{i}c{c}")))
            .collect();
        let refs: Vec<(&str, &str)> = cols.iter().map(|(n, c)| (n.as_str(), c.as_str())).collect();
        let rel = Relation::from_rows(Schema::new(&refs), g.relation.rows()).unwrap();
        db.insert_relation(if i == 0 { "P" } else { "Q" }, rel)
            .unwrap();
    }
    let battery: Vec<(String, Formula)> = [
        ("p-nonempty", "exists x, y, z. P(x, y, z)"),
        ("q-nonempty", "exists x, y, z. Q(x, y, z)"),
        (
            "p-fd",
            "forall x, y1, z1, y2, z2. P(x, y1, z1) & P(x, y2, z2) -> y1 = y2",
        ),
        (
            "q-fd",
            "forall x, y1, z1, y2, z2. Q(x, y1, z1) & Q(x, y2, z2) -> z1 = z2",
        ),
        (
            "p-col0-bound",
            "forall x, y, z. P(x, y, z) -> exists y2, z2. P(x, y2, z2)",
        ),
    ]
    .into_iter()
    .map(|(n, s)| (n.to_owned(), parse(s).unwrap()))
    .collect();
    let mut serial = Checker::new(db.clone(), CheckerOptions::default());
    let want = serial.check_all(&battery).unwrap();
    for threads in [1usize, 2, 8] {
        let mut ck = Checker::new(db.clone(), CheckerOptions::default());
        let got = ck.check_all_parallel(&battery, threads).unwrap();
        assert_reports_match(&want, &got, &format!("kprod/threads={threads}"));
    }
}

#[test]
fn lanes_fall_back_to_sql_independently() {
    // A node budget that fits the indices and the battery's projected FDs
    // but not a self-join whose every variable reaches the consequent (no
    // column is atom-local, so both CUST copies keep all their columns):
    // that lane must abort and fall back to SQL, while the other lanes stay
    // on the BDD path — no cross-worker poisoning in either direction.
    let db = customer_db(2_000, 0.01);
    let mut battery = customer_battery();
    battery.push((
        "areacode-determines-city-and-state".to_owned(),
        parse("forall a, c1, s1, c2, s2. CUST(a, c1, s1) & CUST(a, c2, s2) -> c1 = c2 & s1 = s2")
            .unwrap(),
    ));
    let opts = CheckerOptions {
        node_limit: Some(3_000),
        ..Default::default()
    };
    let mut serial = Checker::new(db.clone(), opts);
    let want = serial.check_all(&battery).unwrap();
    let methods: Vec<Method> = want.iter().map(|(_, r)| r.method).collect();
    // The fixture must actually exercise both paths for the test to mean
    // anything.
    assert!(
        methods.contains(&Method::SqlFallback),
        "the unprojectable self-join must abort: {methods:?}"
    );
    assert!(
        methods.contains(&Method::Bdd),
        "the other lanes must stay BDD: {methods:?}"
    );
    // Stress loop: repeated runs across worker counts must all agree with the serial pass — the merged report flags the
    // fallback per constraint.
    for round in 0..5 {
        for threads in [2usize, 4, 8] {
            let mut ck = Checker::new(db.clone(), opts);
            let got = ck.check_all_parallel(&battery, threads).unwrap();
            assert_reports_match(&want, &got, &format!("round={round}/threads={threads}"));
        }
    }
}

#[test]
fn worker_errors_surface_deterministically() {
    // Two constraints leave a variable free, each a different one. The
    // coordinator builds both indices without complaint, so the errors
    // only show up at check time, in two different lanes; the error
    // reported must be the one a serial pass would hit first (smallest
    // constraint index), whichever lane finishes first.
    let db = customer_db(200, 0.0);
    let battery: Vec<(String, Formula)> = [
        ("ok-1", "exists c, s. CITY_STATE(c, s)"),
        ("bad-1", "exists c. CITY_STATE(c, free_one)"),
        ("ok-2", "exists a, c, s. CUST(a, c, s)"),
        ("bad-2", "exists a, c. CUST(a, c, free_two)"),
    ]
    .into_iter()
    .map(|(n, s)| (n.to_owned(), parse(s).unwrap()))
    .collect();
    let serial = Checker::new(db.clone(), CheckerOptions::default())
        .check_all(&battery)
        .unwrap_err();
    assert!(serial.to_string().contains("free_one"), "{serial}");
    for _ in 0..5 {
        let mut ck = Checker::new(db.clone(), CheckerOptions::default());
        let err = ck.check_all_parallel(&battery, 4).unwrap_err();
        assert!(
            err.to_string().contains("free_one"),
            "expected the first bad constraint's error, got: {err}"
        );
    }
}

#[test]
fn parallel_rule_firings_match_serial_exactly() {
    // Differential telemetry test: not just the verdicts, but the exact
    // per-constraint R1–R4 firing sequences (rule identity AND count) must
    // be identical between the serial pass and every parallel
    // configuration — the rewrite pipeline is deterministic per
    // constraint, so lane placement must not change what it does.
    // Timings are deliberately excluded from the comparison.
    let db = customer_db(1_500, 0.01);
    let battery = customer_battery();
    let opts = CheckerOptions {
        telemetry: true,
        ..Default::default()
    };
    let firing_seq = |reports: &[(String, relcheck_core::checker::CheckReport)]| {
        reports
            .iter()
            .map(|(n, r)| {
                let trace = r.metrics.as_ref().expect("telemetry enabled");
                (
                    n.clone(),
                    trace
                        .rules
                        .iter()
                        .map(|f| (f.rule, f.count))
                        .collect::<Vec<_>>(),
                )
            })
            .collect::<Vec<_>>()
    };
    let mut serial = Checker::new(db.clone(), opts);
    let want_reports = serial.check_all(&battery).unwrap();
    let want = firing_seq(&want_reports);
    // The battery must actually fire rules for the test to mean anything.
    assert!(
        want.iter().any(|(_, rs)| !rs.is_empty()),
        "fixture fires no rewrite rules: {want:?}"
    );
    for threads in [1usize, 2, 8] {
        let mut ck = Checker::new(db.clone(), opts);
        let got_reports = ck.check_all_parallel(&battery, threads).unwrap();
        assert_reports_match(&want_reports, &got_reports, &format!("threads={threads}"));
        assert_eq!(
            want,
            firing_seq(&got_reports),
            "threads={threads}: rule firings diverge from serial"
        );
    }
}

#[test]
fn more_threads_than_constraints_is_fine() {
    let db = customer_db(300, 0.0);
    let battery = customer_battery();
    let mut serial = Checker::new(db.clone(), CheckerOptions::default());
    let want = serial.check_all(&battery).unwrap();
    let mut ck = Checker::new(db, CheckerOptions::default());
    let got = ck.check_all_parallel(&battery, 64).unwrap();
    assert_reports_match(&want, &got, "threads=64");
}

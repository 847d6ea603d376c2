//! End-to-end integration tests across all workspace crates: generated
//! data → logical indices → constraint checking on every evaluation path.

use relcheck::core_::checker::{Checker, CheckerOptions, Method};
use relcheck::core_::ordering::OrderingStrategy;
use relcheck::datagen::customer::{col, generate, CustomerConfig};
use relcheck::logic::eval::eval_sentence;
use relcheck::logic::parse;
use relcheck::relstore::{Database, Relation, Schema};

/// A small but realistic customer database with injected violations.
fn customer_db(violation_rate: f64) -> Database {
    let data = generate(&CustomerConfig {
        rows: 8_000,
        dom_sizes: [30, 50, 200, 15, 300],
        violation_rate,
        seed: 99,
    });
    let mut db = Database::new();
    db.ensure_class_size("areacode", 30);
    db.ensure_class_size("city", 200);
    db.ensure_class_size("state", 15);
    let ncs = Relation::from_rows(
        Schema::new(&[
            ("areacode", "areacode"),
            ("city", "city"),
            ("state", "state"),
        ]),
        data.relation
            .rows()
            .map(|r| vec![r[col::AREACODE], r[col::CITY], r[col::STATE]]),
    )
    .unwrap();
    db.insert_relation("CUST", ncs).unwrap();
    let cs: Vec<Vec<u32>> = (0..200u32)
        .map(|c| vec![c, data.city_state[c as usize]])
        .collect();
    db.insert_relation(
        "CITY_STATE",
        Relation::from_rows(Schema::new(&[("city", "city"), ("state", "state")]), cs).unwrap(),
    )
    .unwrap();
    db
}

const CONSTRAINTS: &[&str] = &[
    "forall a, c, s, s2. CUST(a, c, s) & CITY_STATE(c, s2) -> s = s2",
    "forall a1, c, s1, a2, s2. CUST(a1, c, s1) & CUST(a2, c, s2) -> s1 = s2",
    "forall c, s2. CITY_STATE(c, s2) -> exists a, s. CUST(a, c, s)",
    "exists a, c, s. CUST(a, c, s)",
    "forall a, c, s. CUST(a, c, s) -> exists s2. CITY_STATE(c, s2)",
];

#[test]
fn clean_data_satisfies_model_constraints() {
    let mut ck = Checker::new(customer_db(0.0), CheckerOptions::default());
    for src in CONSTRAINTS {
        let f = parse(src).unwrap();
        let r = ck.check(&f).unwrap();
        assert!(r.holds, "{src}");
        assert_eq!(r.method, Method::Bdd, "{src}");
    }
}

#[test]
fn dirty_data_violates_the_dependency_constraints() {
    let mut ck = Checker::new(customer_db(0.05), CheckerOptions::default());
    let reference = parse(CONSTRAINTS[0]).unwrap();
    let fd = parse(CONSTRAINTS[1]).unwrap();
    assert!(!ck.check(&reference).unwrap().holds);
    assert!(!ck.check(&fd).unwrap().holds);
    // But existence still holds.
    assert!(ck.check(&parse(CONSTRAINTS[3]).unwrap()).unwrap().holds);
}

#[test]
fn bdd_and_sql_paths_agree_on_every_constraint() {
    for rate in [0.0, 0.03] {
        let mut ck = Checker::new(customer_db(rate), CheckerOptions::default());
        for src in CONSTRAINTS {
            let f = parse(src).unwrap();
            let bdd = ck.check(&f).unwrap();
            let sql = ck.check_sql(&f).unwrap();
            assert_eq!(bdd.holds, sql.holds, "rate={rate}: {src}");
        }
    }
}

#[test]
fn all_orderings_give_the_same_answers() {
    for strategy in [
        OrderingStrategy::Schema,
        OrderingStrategy::Random(123),
        OrderingStrategy::MaxInfGain,
        OrderingStrategy::ProbConverge,
        OrderingStrategy::MinCondEntropy,
    ] {
        let opts = CheckerOptions {
            ordering: strategy,
            ..Default::default()
        };
        let mut ck = Checker::new(customer_db(0.02), opts);
        for src in CONSTRAINTS {
            let f = parse(src).unwrap();
            let got = ck.check(&f).unwrap().holds;
            let sql = ck.check_sql(&f).unwrap().holds;
            assert_eq!(got, sql, "{strategy:?}: {src}");
        }
    }
}

#[test]
fn tiny_node_budget_forces_fallback_but_stays_correct() {
    let opts = CheckerOptions {
        node_limit: Some(500),
        ..Default::default()
    };
    let mut ck = Checker::new(customer_db(0.02), opts);
    for src in CONSTRAINTS {
        let f = parse(src).unwrap();
        let constrained = ck.check(&f).unwrap();
        let sql = ck.check_sql(&f).unwrap();
        assert_eq!(constrained.holds, sql.holds, "{src}");
        assert_ne!(
            constrained.method,
            Method::Bdd,
            "500 nodes cannot index 8k rows"
        );
    }
}

#[test]
fn violations_count_matches_between_paths() {
    let mut ck = Checker::new(customer_db(0.05), CheckerOptions::default());
    let f = parse(CONSTRAINTS[0]).unwrap();
    assert!(!ck.check(&f).unwrap().holds);
    let (rows, cols) = ck.find_violations(&f).unwrap();
    assert!(!rows.is_empty());
    assert_eq!(cols.len(), rows.arity());
    // Every reported tuple really disagrees with the reference mapping.
    let ic = cols.iter().position(|c| c == "c").unwrap();
    let is = cols.iter().position(|c| c == "s").unwrap();
    let is2 = cols.iter().position(|c| c == "s2").unwrap();
    for i in 0..rows.len() {
        let r = rows.row(i);
        assert_ne!(r[is], r[is2], "row {i} should mismatch the reference");
        let _ = r[ic];
    }
}

#[test]
fn incremental_updates_flow_through_to_answers() {
    let mut ck = Checker::new(customer_db(0.0), CheckerOptions::default());
    let f = parse(CONSTRAINTS[1]).unwrap(); // city → state FD
    assert!(ck.check(&f).unwrap().holds);
    // Insert a row contradicting city 0's state.
    let state0 = {
        let rel = ck.logical_db().db().relation("CITY_STATE").unwrap();
        rel.col(1)[0]
    };
    let bad_state = (state0 + 1) % 15;
    ck.logical_db_mut()
        .insert_tuple("CUST", &[0, 0, bad_state])
        .unwrap();
    // The relation had city 0 rows with the right state (city 0 is the most
    // popular by the zipf weighting), so the FD now breaks.
    let r = ck.check(&f).unwrap();
    assert!(!r.holds, "inserted contradiction must violate the FD");
    assert_eq!(r.method, Method::Bdd);
    ck.logical_db_mut()
        .delete_tuple("CUST", &[0, 0, bad_state])
        .unwrap();
    assert!(ck.check(&f).unwrap().holds);
}

#[test]
fn checker_agrees_with_brute_force_oracle_on_small_db() {
    let mut db = Database::new();
    db.create_relation(
        "R",
        &[("x", "k"), ("y", "k")],
        (0..6)
            .map(|i| {
                vec![
                    relcheck::relstore::Raw::Int(i % 3),
                    relcheck::relstore::Raw::Int(i),
                ]
            })
            .collect(),
    )
    .unwrap();
    let sentences = [
        "forall x, y. R(x, y) -> x in {0, 1, 2}",
        "exists x, y. R(x, y) & x = y",
        "forall x, y1, y2. R(x, y1) & R(x, y2) -> y1 = y2",
        "!(exists x, y. R(x, y) & x = 5)",
    ];
    for src in sentences {
        let f = parse(src).unwrap();
        let expected = eval_sentence(&db, &f).unwrap();
        // Fresh checker per sentence keeps index state independent.
        let mut db2 = Database::new();
        db2.create_relation(
            "R",
            &[("x", "k"), ("y", "k")],
            (0..6)
                .map(|i| {
                    vec![
                        relcheck::relstore::Raw::Int(i % 3),
                        relcheck::relstore::Raw::Int(i),
                    ]
                })
                .collect(),
        )
        .unwrap();
        let mut ck = Checker::new(db2, CheckerOptions::default());
        assert_eq!(ck.check(&f).unwrap().holds, expected, "{src}");
    }
}

#[test]
fn fd_check_paths_agree_at_scale() {
    let mut ck = Checker::new(customer_db(0.02), CheckerOptions::default());
    for (lhs, rhs) in [
        (vec![0usize], vec![2usize]),
        (vec![1], vec![2]),
        (vec![2], vec![0]),
    ] {
        let bdd = ck.check_fd_bdd("CUST", &lhs, &rhs).unwrap();
        let sql = ck.check_fd_sql("CUST", &lhs, &rhs).unwrap();
        assert_eq!(bdd, sql, "FD {lhs:?} -> {rhs:?}");
    }
}

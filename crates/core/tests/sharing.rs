//! Shared-manager differential suite.
//!
//! The subgraph cache reuses compiled atom BDDs across constraints over the
//! same relations. Its safety argument — a compiled atom is a pure function
//! of the index root and its action list — is pinned here differentially:
//! `check_all` with sharing on must agree with per-constraint compilation
//! (sharing switched off through
//! `LogicalDatabase::set_subgraph_sharing(false)`) on every verdict and
//! method, serially (also across delta batches, which the shared side
//! absorbs by patching its cached atoms) and under fault injection at the
//! index-build site. The suite also covers the core half
//! of the ordering-invariance oracle: every ordering strategy yields the
//! same verdicts, also after an index is rebuilt between checks.

use relcheck_bdd::failpoint;
use relcheck_core::checker::{CheckReport, Checker, CheckerOptions, Verdict};
use relcheck_core::index::apply_actions;
use relcheck_core::ordering::OrderingStrategy;
use relcheck_core::PlanOptions;
use relcheck_datagen::customer::{generate, CustomerConfig};
use relcheck_datagen::SplitMix64;
use relcheck_logic::{parse, Formula};
use relcheck_relstore::{Database, Relation, Schema};
use std::sync::Mutex;

/// The failpoint registry is process-global: the test that arms it and
/// every test that checks while it could be armed serialize on this mutex.
static GUARD: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    GUARD
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Silence the default panic hook while faults are injected on purpose;
/// the panics are caught and folded into reports, the stderr noise is not.
fn quiet_panics() {
    std::panic::set_hook(Box::new(|_| {}));
}

fn restore_panics() {
    let _ = std::panic::take_hook();
}

fn customer_db(rows: usize, violation_rate: f64) -> Database {
    let data = generate(&CustomerConfig {
        rows,
        dom_sizes: [40, 120, 150, 12, 200],
        violation_rate,
        seed: 31,
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
    // Each city's one neighbour, never itself.
    let neighbours = (0..data.dom_sizes[2] as u32).map(|c| vec![c, (7 * c + 3) % 150]);
    db.insert_relation(
        "NEIGHBOR",
        Relation::from_rows(Schema::new(&[("a", "city"), ("b", "city")]), neighbours).unwrap(),
    )
    .unwrap();
    db
}

/// A battery deliberately heavy on repeated atom shapes: several
/// constraints join CUST with itself or CITY_STATE the same way, so the
/// subgraph cache has real sharing to exploit. Between them the atoms pin
/// constants, project atom-local columns, repeat a variable and rename
/// columns across relations.
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
        ("no-self-neighbour", "forall c. NEIGHBOR(c, c) -> false"),
        (
            "neighbours-share-a-state",
            "forall c1, c2, s. NEIGHBOR(c1, c2) & CITY_STATE(c1, s) -> CITY_STATE(c2, s)",
        ),
        (
            "areacode-7-cities-are-known",
            "forall c, s. CUST(7, c, s) -> exists s2. CITY_STATE(c, s2)",
        ),
    ]
    .into_iter()
    .map(|(n, s)| (n.to_owned(), parse(s).unwrap()))
    .collect()
}

/// A checker over `db`, compiling every atom afresh when `share` is off.
fn checker(db: Database, share: bool) -> Checker {
    checker_with(db, share, PlanOptions::default())
}

fn checker_with(db: Database, share: bool, plan: PlanOptions) -> Checker {
    let options = CheckerOptions {
        plan,
        ..Default::default()
    };
    let mut ck = Checker::new(db, options);
    ck.logical_db_mut().set_subgraph_sharing(share);
    ck
}

/// One seeded delta over interned codes: insert a random row into, or
/// delete an existing row from, one of the battery's relations. Some
/// inserted neighbour pairs are self-loops.
fn random_delta(rng: &mut SplitMix64, db: &Database) -> (bool, &'static str, Vec<u32>) {
    let relation = ["CUST", "CUST", "CITY_STATE", "NEIGHBOR"][rng.gen_range(0..4usize)];
    let rel = db.relation(relation).unwrap();
    if rng.gen_bool(0.5) && !rel.is_empty() {
        let row = rel.row(rng.gen_range(0..rel.len()));
        return (false, relation, row);
    }
    let city = rng.gen_range(0..150u64) as u32;
    let row = match relation {
        "CUST" => vec![
            rng.gen_range(0..40u64) as u32,
            city,
            rng.gen_range(0..12u64) as u32,
        ],
        "CITY_STATE" => vec![city, rng.gen_range(0..12u64) as u32],
        _ if rng.gen_bool(0.3) => vec![city, city],
        _ => vec![city, rng.gen_range(0..150u64) as u32],
    };
    (true, relation, row)
}

fn assert_same(want: &[(String, CheckReport)], got: &[(String, CheckReport)], context: &str) {
    assert_eq!(want.len(), got.len(), "{context}: length");
    for ((wn, w), (gn, g)) in want.iter().zip(got) {
        assert_eq!(wn, gn, "{context}: order");
        assert_eq!(w.verdict, g.verdict, "{context}: {wn} verdict");
        assert_eq!(w.method, g.method, "{context}: {wn} method");
    }
}

#[test]
fn sharing_matches_unshared_serially_and_actually_shares() {
    let _g = lock();
    let db = customer_db(1_500, 0.01);
    let battery = battery();
    // Rename joins, then the naive equality-cube joins (`Equal` actions).
    let naive_join = PlanOptions {
        join_rename: false,
        ..Default::default()
    };
    for plan in [PlanOptions::default(), naive_join] {
        let context = format!("join_rename={}", plan.join_rename);
        let mut unshared = checker_with(db.clone(), false, plan);
        let want = unshared.check_all(&battery).unwrap();
        let mut shared = checker_with(db.clone(), true, plan);
        let got = shared.check_all(&battery).unwrap();
        assert_same(&want, &got, &context);
        let (hits, misses) = shared.logical_db().atom_cache_stats();
        assert!(
            hits > 0,
            "{context}: the battery repeats atom shapes; sharing must fire (hits={hits}, misses={misses})"
        );
        // Delta batches between checks: the shared side patches its stale
        // atoms where the index roots changed, the unshared side compiles
        // afresh.
        let mut rng = SplitMix64::seed_from_u64(0x5AA2_E0DE);
        for round in 0..4 {
            for _ in 0..8 {
                let (insert, relation, row) = random_delta(&mut rng, shared.logical_db().db());
                for ck in [&mut unshared, &mut shared] {
                    let ldb = ck.logical_db_mut();
                    if insert {
                        ldb.insert_tuple(relation, &row).unwrap();
                    } else {
                        ldb.delete_tuple(relation, &row).unwrap();
                    }
                }
            }
            let want = unshared.check_all(&battery).unwrap();
            let got = shared.check_all(&battery).unwrap();
            assert_same(&want, &got, &format!("{context} round {round}"));
            // Every patched atom — pinned, repeated-variable and naive
            // `Equal` shapes included — is the very node a recompile builds.
            let ldb = shared.logical_db_mut();
            let fresh: Vec<_> = ldb
                .fresh_atoms()
                .into_iter()
                .map(|(rel, actions, atom)| (rel.to_owned(), actions.to_vec(), atom))
                .collect();
            for (rel, actions, atom) in fresh {
                let root = ldb.index(&rel).unwrap().root;
                let cold = apply_actions(ldb.manager_mut(), root, &actions).unwrap();
                assert_eq!(atom, cold, "{context} round {round}: {rel} {actions:?}");
            }
        }
        assert_eq!(
            unshared.logical_db().atom_cache_stats(),
            (0, 0),
            "{context}: escape hatch must not touch the cache"
        );
        assert!(
            shared.logical_db().atom_cache_patches() > 0,
            "{context}: no stale atom was patched"
        );
    }
}

#[test]
fn sharing_matches_unshared_under_index_build_faults() {
    let _g = lock();
    quiet_panics();
    let db = customer_db(900, 0.02);
    let battery = battery();
    // Fault-free reference for the resilience invariant.
    let clean = checker(db.clone(), false).check_all(&battery).unwrap();
    for seed in [3u64, 11, 27] {
        failpoint::configure_spec("index-build=0.6", seed).unwrap();
        let want = checker(db.clone(), false).check_all(&battery).unwrap();
        let got = checker(db.clone(), true).check_all(&battery).unwrap();
        failpoint::clear();
        restore_panics();
        // Same seed ⇒ same injected faults ⇒ shared and unshared must walk
        // the same ladder to the same answers.
        assert_same(&want, &got, &format!("faults seed={seed}"));
        // And the usual resilience invariant: never silently wrong.
        for ((name, r), (_, c)) in got.iter().zip(&clean) {
            match r.verdict {
                Verdict::Holds | Verdict::Violated => {
                    assert_eq!(r.verdict, c.verdict, "seed {seed}: {name} silently wrong")
                }
                Verdict::Degraded | Verdict::Errored => {}
            }
        }
    }
}

#[test]
fn every_ordering_strategy_agrees() {
    let _g = lock();
    let db = customer_db(1_000, 0.015);
    let battery = battery();
    let mut baseline = checker(db.clone(), true);
    let want = baseline.check_all(&battery).unwrap();
    for strategy in [
        OrderingStrategy::Schema,
        OrderingStrategy::Random(5),
        OrderingStrategy::MaxInfGain,
        OrderingStrategy::MinCondEntropy,
    ] {
        let mut ck = Checker::new(
            db.clone(),
            CheckerOptions {
                ordering: strategy,
                ..Default::default()
            },
        );
        let got = ck.check_all(&battery).unwrap();
        assert_same(&want, &got, strategy.name());
        // A rebuild after checks have run keeps every verdict.
        assert!(ck.rebuild_index("CUST").unwrap());
        let got = ck.check_all(&battery).unwrap();
        assert_same(&want, &got, &format!("{} after rebuild", strategy.name()));
    }
}

/// A long session keeps its arena bounded. After every battery the live
/// nodes sit within the collection rule's bound: the kept set plus its
/// garbage allowance. A delta and its inverse, each followed by the
/// battery and then an explicit collection, return the manager to the
/// same live-node count (ROBDD canonicity: the same index functions and
/// the same atom-cache entries), and the arena stops growing after the
/// first round.
#[test]
fn arena_stays_bounded_under_delta_churn() {
    let _g = lock();
    let battery = battery();
    let mut ck = checker(customer_db(1_500, 0.01), true);
    let want = ck.check_all(&battery).unwrap();
    ck.logical_db_mut().gc();
    let baseline = ck.logical_db().manager().live_nodes();
    // A tuple of interned values that CUST does not hold yet: row 0 with
    // the next state over.
    let row = {
        let cust = ck.logical_db().db().relation("CUST").unwrap();
        let state = (cust.col(2)[0] + 1) % 12;
        vec![cust.col(0)[0], cust.col(1)[0], state]
    };
    let within_rule = |ck: &Checker, what: &str| {
        let m = ck.logical_db().manager();
        let bound = m.kept_nodes() + m.garbage_allowance();
        assert!(
            m.live_nodes() <= bound,
            "{what}: {} live nodes past the rule's bound {bound}",
            m.live_nodes()
        );
    };
    let mut slots_after_round_one = None;
    for round in 0..6 {
        assert!(ck.logical_db_mut().insert_tuple("CUST", &row).unwrap());
        ck.check_all(&battery).unwrap();
        within_rule(&ck, &format!("round {round} insert"));
        assert!(ck.logical_db_mut().delete_tuple("CUST", &row).unwrap());
        let got = ck.check_all(&battery).unwrap();
        within_rule(&ck, &format!("round {round} delete"));
        assert_same(&want, &got, &format!("round {round}"));
        ck.logical_db_mut().gc();
        assert_eq!(
            ck.logical_db().manager().live_nodes(),
            baseline,
            "round {round}"
        );
        let slots = ck.logical_db().manager().arena_slots();
        let bound = *slots_after_round_one.get_or_insert(slots);
        assert!(
            slots <= bound,
            "round {round}: arena grew to {slots} slots past its round-1 size {bound}"
        );
    }
}

//! Acceptance tests for the long-lived serve engine: the differential
//! harness pinning incremental re-checking to full re-checking, and the
//! crash/restart story for store-backed sessions.
//!
//! The headline invariant: **a session's incremental verdicts are
//! byte-identical to a cold full check of the current database state** —
//! same names, same order, same outcomes — no matter which constraints
//! the dirty-set/read-set intersection let the engine skip. The harness
//! drives randomized SplitMix64-seeded delta scripts against a shadow
//! row-set and diffs every `check` against a cold serial
//! [`Checker::check_all`] over the shadow rows. Two oracles pin the atom
//! cache the incremental
//! checks patch: after every `check`, each fresh entry is the very handle
//! a cold compile of its action list returns; and a delta followed by its
//! inverse returns every index root and cached atom to its old handle.
//!
//! The crash tests reuse the failpoint idioms of `tests/store.rs`: the
//! registry is process-global, so failpoint-armed tests serialize on a
//! mutex and disarm via an RAII guard.

use relcheck_bdd::failpoint;
use relcheck_bdd::Bdd;
use relcheck_core::checker::{Checker, CheckerOptions};
use relcheck_core::index::{apply_actions, AtomAction};
use relcheck_core::registry::Verdict;
use relcheck_core::serve::{ServeActor, ServeConfig, ServeEngine, Submission, JOURNAL_RETRY_LIMIT};
use relcheck_core::store::{Delta, IndexStore};
use relcheck_datagen::SplitMix64;
use relcheck_logic::{parse, Formula};
use relcheck_relstore::{Database, Raw};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

static GUARD: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    GUARD
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Clears the global failpoint registry on drop, so an assertion failure
/// mid-test cannot leave later tests running under injected faults.
struct FpGuard;

impl Drop for FpGuard {
    fn drop(&mut self) {
        failpoint::clear();
    }
}

static DIR_SEQ: AtomicUsize = AtomicUsize::new(0);

/// A fresh, empty scratch directory unique to this test invocation.
fn scratch(tag: &str) -> PathBuf {
    let n = DIR_SEQ.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!(
        "relcheck-serve-test-{}-{tag}-{n}",
        std::process::id()
    ));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// Three relations over two value classes. `R` and `S` share class `k`
/// (so `r-covers-s` spans both), `T` sits alone on class `j` — deltas to
/// `T` must never re-check the `k`-side constraints and vice versa.
const SCHEMAS: [(&str, &[(&str, &str)]); 3] = [
    ("R", &[("x", "k"), ("y", "k")]),
    ("S", &[("x", "k")]),
    ("T", &[("z", "j")]),
];

/// Every value a delta script may mention, per class. Interned into the
/// database *before* the first index build freezes the BDD blocks, so
/// random scripts exercise incremental index maintenance rather than the
/// domain-overflow degradation path (which has its own tests).
const K_UNIVERSE: i64 = 7;
const J_UNIVERSE: i64 = 5;

/// Shadow row-set: the plain, trusted model the engine is diffed against.
type Shadow = BTreeMap<&'static str, BTreeSet<Vec<i64>>>;

fn base_shadow() -> Shadow {
    let mut shadow = Shadow::new();
    shadow.insert("R", [vec![1, 1], vec![2, 2], vec![3, 3]].into());
    shadow.insert("S", [vec![1], vec![2]].into());
    shadow.insert("T", [vec![0], vec![1]].into());
    shadow
}

/// Build a database holding exactly the shadow rows, with the full delta
/// value universe interned so constraint constants and replayed deltas
/// always have codes.
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

/// What a cold serial checker says about the shadow rows.
fn cold_serial(shadow: &Shadow) -> Vec<(String, bool)> {
    let mut ck = Checker::new(db_from(shadow), CheckerOptions::default());
    ck.check_all(&constraints())
        .unwrap()
        .into_iter()
        .map(|(name, report)| (name, report.holds))
        .collect()
}

/// One random delta drawn from the script distribution: a relation, a
/// row from the pre-interned universe, and an insert/delete coin.
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

/// Apply one delta to both the engine and the shadow, asserting the two
/// agree on whether the relation actually changed.
fn apply_both(
    engine: &mut ServeEngine,
    shadow: &mut Shadow,
    relation: &'static str,
    row: Vec<i64>,
    insert: bool,
    context: &str,
) {
    let raw: Vec<Raw> = row.iter().map(|&v| Raw::Int(v)).collect();
    let delta = if insert {
        Delta::Insert(raw)
    } else {
        Delta::Delete(raw)
    };
    let outcome = engine.apply(relation, &delta).unwrap();
    assert!(
        outcome.durable,
        "{context}: fault-free applies are always durable"
    );
    let changed = outcome.changed;
    let rows = shadow.get_mut(relation).unwrap();
    let shadow_changed = if insert {
        rows.insert(row.clone())
    } else {
        rows.remove(&row)
    };
    assert_eq!(
        changed, shadow_changed,
        "{context}: engine/shadow disagree on change for {relation} {row:?} insert={insert}"
    );
}

/// The session's incremental verdicts, flattened to the differential
/// signature (name, holds) in registration order.
fn incremental(engine: &mut ServeEngine) -> Vec<(String, bool)> {
    engine
        .check_all()
        .unwrap()
        .into_iter()
        .map(|(name, v)| (name, v.holds()))
        .collect()
}

/// The canonicity oracle: every fresh atom-cache entry is the very handle
/// a cold compile of its action list on the current index root returns
/// (ROBDD canonicity makes a correct patch indistinguishable from a
/// recompile). Returns how many entries it compared.
fn assert_atoms_canonical(engine: &mut ServeEngine, context: &str) -> usize {
    let ldb = engine.checker_mut().logical_db_mut();
    let fresh: Vec<(String, Vec<AtomAction>, Bdd)> = ldb
        .fresh_atoms()
        .into_iter()
        .map(|(rel, actions, atom)| (rel.to_owned(), actions.to_vec(), atom))
        .collect();
    for (rel, actions, atom) in &fresh {
        let root = ldb.index(rel).unwrap().root;
        let cold = apply_actions(ldb.manager_mut(), root, actions).unwrap();
        assert_eq!(*atom, cold, "{context}: {rel} {actions:?}");
    }
    fresh.len()
}

#[test]
fn differential_random_scripts_match_cold_full_recheck() {
    let _g = lock();
    let mut total_skipped = 0u64;
    let (mut compared, mut patches) = (0, 0);
    for seed in [1u64, 42, 20070415] {
        let mut rng = SplitMix64::seed_from_u64(seed);
        let mut shadow = base_shadow();
        let (mut engine, reports) = ServeEngine::new(
            Checker::new(db_from(&shadow), CheckerOptions::default()),
            &constraints(),
            None,
        )
        .unwrap();
        assert!(
            reports.iter().all(|(_, r)| r.holds),
            "seed {seed}: base state should satisfy every constraint"
        );
        for step in 0..60 {
            let context = format!("seed {seed} step {step}");
            let (relation, row) = random_delta(&mut rng);
            let insert = rng.gen_bool(0.6);
            apply_both(&mut engine, &mut shadow, relation, row, insert, &context);
            if rng.gen_bool(0.3) {
                let got = incremental(&mut engine);
                compared += assert_atoms_canonical(&mut engine, &context);
                assert_eq!(got, cold_serial(&shadow), "{context}: serial differential");
            }
        }
        // Always finish on a check so every script's endpoint is diffed.
        let got = incremental(&mut engine);
        compared += assert_atoms_canonical(&mut engine, &format!("seed {seed}: final"));
        assert_eq!(
            got,
            cold_serial(&shadow),
            "seed {seed}: final serial differential"
        );
        let stats = engine.stats();
        assert_eq!(stats.deltas, 60);
        total_skipped += stats.constraints_skipped;
        patches += engine.checker().logical_db().atom_cache_patches();
    }
    // The canonicity oracle must have seen patched atoms, not only
    // recompiled ones.
    assert!(
        compared > 0 && patches > 0,
        "{compared} compared, {patches} patched"
    );
    // The differential must have exercised the skip path, not just
    // re-checked everything every time — otherwise it proves nothing
    // about read-set-driven caching.
    assert!(
        total_skipped > 0,
        "random scripts never skipped a constraint; the differential is vacuous"
    );
}

/// The differential under faults: every failpoint site armed at a low
/// rate while random deltas stream in. A delta an injected fault kills is
/// rolled back whole, so the shadow skips it; the comparison after every
/// step runs fault-free and must be exact.
#[test]
fn faulted_random_deltas_match_cold_full_recheck() {
    let _g = lock();
    let _fp = FpGuard;
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let spec = failpoint::SITES
        .iter()
        .map(|s| format!("{s}=0.05"))
        .collect::<Vec<_>>()
        .join(",");
    let mut faulted = 0;
    for seed in [3u64, 88, 20070415] {
        failpoint::clear();
        let mut shadow = base_shadow();
        // Prime fault-free so the session starts from decided verdicts.
        let ck = Checker::new(db_from(&shadow), CheckerOptions::default());
        let (mut engine, _) = ServeEngine::new(ck, &constraints(), None).unwrap();
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
            match engine.apply(relation, &delta) {
                Ok(outcome) => {
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
                Err(_) => faulted += 1,
            }
            failpoint::clear();
            assert_eq!(
                incremental(&mut engine),
                cold_serial(&shadow),
                "seed {seed} step {step}: faulted session diverged from cold re-check"
            );
            failpoint::configure_spec(&spec, seed ^ step).unwrap();
        }
    }
    std::panic::set_hook(hook);
    assert!(
        faulted > 0,
        "no delta was ever faulted; the lane is vacuous"
    );
}

/// Every index root and fresh cached atom of a session, by handle.
type Handles = (Vec<(String, Bdd)>, HashMap<(String, Vec<AtomAction>), Bdd>);

fn handles(engine: &ServeEngine) -> Handles {
    let ldb = engine.checker().logical_db();
    let roots = SCHEMAS
        .iter()
        .map(|(name, _)| (name.to_string(), ldb.index(name).unwrap().root))
        .collect();
    let atoms = ldb
        .fresh_atoms()
        .into_iter()
        .map(|(rel, actions, atom)| ((rel.to_owned(), actions.to_vec()), atom))
        .collect();
    (roots, atoms)
}

/// The inverse-delta oracle: insert a tuple, check, delete it, check. With
/// no collection in between (so no node changes its handle), every index
/// root and every cached atom — patched twice, or fresh again because its
/// root is back — is back to the handle it had before the insert.
#[test]
fn inverse_delta_restores_roots_and_patched_atoms() {
    let _g = lock();
    let shadow = base_shadow();
    let (mut engine, _) = ServeEngine::new(
        Checker::new(db_from(&shadow), CheckerOptions::default()),
        &constraints(),
        None,
    )
    .unwrap();
    let gc_runs = |engine: &ServeEngine| engine.checker().logical_db().manager().stats().gc_runs;
    for (relation, row) in [
        ("R", vec![4, 5]),
        ("R", vec![6, 6]),
        ("S", vec![5]),
        ("T", vec![4]),
    ] {
        let before = handles(&engine);
        let collections = gc_runs(&engine);
        let raw: Vec<Raw> = row.iter().map(|&v| Raw::Int(v)).collect();
        assert!(
            engine
                .apply(relation, &Delta::Insert(raw.clone()))
                .unwrap()
                .changed
        );
        incremental(&mut engine);
        assert_ne!(
            handles(&engine).0,
            before.0,
            "{relation} {row:?}: the root moved"
        );
        assert!(engine.apply(relation, &Delta::Delete(raw)).unwrap().changed);
        incremental(&mut engine);
        assert_eq!(
            gc_runs(&engine),
            collections,
            "{relation} {row:?}: no collection in between"
        );
        // A delta can reorder query-domain allocation (relations sort by
        // size), so the session may hold extra entries; none it had before
        // may differ. (Growing S flips the join orientation of
        // `r-covers-s`, so that round looks up other atoms after the
        // insert, and the old ones are fresh again after the delete.)
        let (roots, atoms) = handles(&engine);
        assert_eq!(
            roots, before.0,
            "{relation} {row:?}: roots after the inverse"
        );
        for (key, atom) in &before.1 {
            assert_eq!(atoms.get(key), Some(atom), "{relation} {row:?}: {key:?}");
        }
    }
    assert!(
        engine.checker().logical_db().atom_cache_patches() > 0,
        "no atom was patched"
    );
}

/// The customer schema of the soak test: 148 known cities of 150, 500
/// phone numbers, 40 area codes and 12 states. City `c` has area code
/// `c mod 40`, and the area code decides the state, so the clean rows
/// satisfy the whole battery.
const SOAK_CITIES: u64 = 150;
const SOAK_KNOWN_CITIES: i64 = 148;
const SOAK_NUMBERS: u64 = 500;
const SOAK_AREACODES: i64 = 40;
const SOAK_STATES: i64 = 12;

fn soak_state(city: i64) -> i64 {
    city % SOAK_AREACODES * 7 % SOAK_STATES
}

/// A clean customer row: a known city, any number.
fn soak_row(rng: &mut SplitMix64) -> Vec<i64> {
    let city = rng.gen_range(0..SOAK_KNOWN_CITIES as u64) as i64;
    let number = rng.gen_range(0..SOAK_NUMBERS) as i64;
    vec![city % SOAK_AREACODES, number, city, soak_state(city)]
}

/// Rows the soak toggles in and out, each breaking part of the battery:
/// an unknown city; a city in the wrong state; an area code whose state
/// differs from its city's.
fn soak_bad_rows() -> [Vec<i64>; 3] {
    [
        vec![0, 0, 149, soak_state(149)],
        vec![3, 1, 3, (soak_state(3) + 1) % SOAK_STATES],
        vec![6, 2, 45, soak_state(45)],
    ]
}

fn soak_db(cust: &BTreeSet<Vec<i64>>) -> Database {
    let mut db = Database::new();
    let raw = |row: &[i64]| row.iter().map(|&v| Raw::Int(v)).collect::<Vec<_>>();
    db.create_relation(
        "CUST",
        &[
            ("areacode", "areacode"),
            ("number", "number"),
            ("city", "city"),
            ("state", "state"),
        ],
        cust.iter().map(|r| raw(r)).collect(),
    )
    .unwrap();
    db.create_relation(
        "CITY_STATE",
        &[("city", "city"), ("state", "state")],
        (0..SOAK_KNOWN_CITIES)
            .map(|c| raw(&[c, soak_state(c)]))
            .collect(),
    )
    .unwrap();
    for (class, size) in [
        ("areacode", SOAK_AREACODES as u64),
        ("number", SOAK_NUMBERS),
        ("city", SOAK_CITIES),
        ("state", SOAK_STATES as u64),
    ] {
        for v in 0..size as i64 {
            db.encode_value(class, &Raw::Int(v));
        }
    }
    db
}

fn soak_battery() -> Vec<(String, Formula)> {
    [
        (
            "reference-agrees",
            "forall a, n, c, s, s2. CUST(a, n, c, s) & CITY_STATE(c, s2) -> s = s2",
        ),
        (
            "city-determines-state",
            "forall a1, n1, c, s1, a2, n2, s2. CUST(a1, n1, c, s1) & CUST(a2, n2, c, s2) -> s1 = s2",
        ),
        (
            "areacode-determines-state",
            "forall a, n1, c1, s1, n2, c2, s2. CUST(a, n1, c1, s1) & CUST(a, n2, c2, s2) -> s1 = s2",
        ),
        (
            "cities-are-known",
            "forall a, n, c, s. CUST(a, n, c, s) -> exists s2. CITY_STATE(c, s2)",
        ),
    ]
    .iter()
    .map(|(name, text)| ((*name).to_owned(), parse(text).unwrap()))
    .collect()
}

/// A session's live nodes, the collection rule's bound on them (kept plus
/// the garbage allowance) and its collections so far.
fn soak_counts(engine: &ServeEngine) -> (usize, usize, u64) {
    let m = engine.checker().logical_db().manager();
    (
        m.live_nodes(),
        m.kept_nodes() + m.garbage_allowance(),
        m.stats().gc_runs,
    )
}

/// After one soak request: the live nodes sit within the rule's bound, and
/// a request that did not collect grew the arena by its live-node growth.
fn after_request(
    engine: &ServeEngine,
    before: (usize, usize, u64),
    largest_growth: &mut usize,
    context: &str,
) {
    let (live, bound, runs) = soak_counts(engine);
    if runs == before.2 {
        *largest_growth = (*largest_growth).max(live.saturating_sub(before.0));
    }
    assert!(
        live <= bound,
        "{context}: {live} live nodes past the rule's bound {bound}"
    );
}

/// The soak bound: 1,024 seeded CUST inserts and deletes, a check after
/// every 8th. One delta in ten toggles a row that breaks part of the
/// battery, so verdicts flip both ways. Every check equals a cold serial
/// `check_all`; after every
/// request the live nodes sit within the collection rule's bound, so the
/// arena never grows past the widest bound plus the largest growth of one
/// request; and the rule really collects.
#[test]
fn soak_keeps_the_arena_within_the_collection_rule() {
    let _g = lock();
    let mut rng = SplitMix64::seed_from_u64(0x50A4);
    let mut cust: BTreeSet<Vec<i64>> = (0..1_000).map(|_| soak_row(&mut rng)).collect();
    let battery = soak_battery();
    let (mut engine, _) = ServeEngine::new(
        Checker::new(soak_db(&cust), CheckerOptions::default()),
        &battery,
        None,
    )
    .unwrap();
    let gc_runs_at_start = soak_counts(&engine).2;
    let (mut widest_bound, mut largest_growth) = (0, 0);
    for step in 0..1_024 {
        let before = soak_counts(&engine);
        widest_bound = widest_bound.max(before.1);
        let (row, insert) = if rng.gen_bool(0.1) {
            let row = soak_bad_rows()[rng.gen_range(0..3u64) as usize].clone();
            let insert = !cust.contains(&row);
            (row, insert)
        } else if rng.gen_bool(0.5) {
            (soak_row(&mut rng), true)
        } else {
            let n = rng.gen_range(0..cust.len() as u64) as usize;
            (cust.iter().nth(n).unwrap().clone(), false)
        };
        let raw = row.iter().map(|&v| Raw::Int(v)).collect();
        let delta = if insert {
            Delta::Insert(raw)
        } else {
            Delta::Delete(raw)
        };
        let changed = engine.apply("CUST", &delta).unwrap().changed;
        let shadow_changed = if insert {
            cust.insert(row)
        } else {
            cust.remove(&row)
        };
        assert_eq!(changed, shadow_changed, "step {step}");
        after_request(
            &engine,
            before,
            &mut largest_growth,
            &format!("step {step} delta"),
        );
        if step % 8 == 7 {
            let before = soak_counts(&engine);
            let got: Vec<(String, bool)> = engine
                .check_all()
                .unwrap()
                .into_iter()
                .map(|(name, v)| (name, v.holds()))
                .collect();
            let cold: Vec<(String, bool)> = Checker::new(soak_db(&cust), CheckerOptions::default())
                .check_all(&battery)
                .unwrap()
                .into_iter()
                .map(|(name, report)| (name, report.holds))
                .collect();
            assert_eq!(got, cold, "step {step}: session diverged from a cold check");
            after_request(
                &engine,
                before,
                &mut largest_growth,
                &format!("step {step} check"),
            );
        }
    }
    let runs = soak_counts(&engine).2;
    assert!(runs > gc_runs_at_start, "the collection rule never fired");
    let peak = engine.checker().logical_db().manager().stats().peak_nodes;
    assert!(
        peak <= widest_bound + largest_growth,
        "arena peak {peak} past the widest bound {widest_bound} \
         plus the largest growth of one request {largest_growth}"
    );
}

#[test]
fn store_backed_script_survives_clean_restart() {
    let _g = lock();
    let dir = scratch("restart");
    let mut shadow = base_shadow();

    // Session 1: store-backed script with a clean shutdown (write_back).
    {
        let mut ck = Checker::new(db_from(&shadow), CheckerOptions::default());
        let mut store = IndexStore::open(&dir).unwrap();
        store.warm_start(&mut ck).unwrap();
        let (mut engine, _) = ServeEngine::new(ck, &constraints(), Some(store)).unwrap();
        let mut rng = SplitMix64::seed_from_u64(7);
        for step in 0..12 {
            let (relation, row) = random_delta(&mut rng);
            let insert = rng.gen_bool(0.6);
            apply_both(
                &mut engine,
                &mut shadow,
                relation,
                row,
                insert,
                &format!("restart step {step}"),
            );
        }
        assert_eq!(incremental(&mut engine), cold_serial(&shadow));
        engine.finish().unwrap();
    }

    // Session 2: warm start over the base database must reconstruct the
    // final session-1 state and answer exactly like a cold checker on it.
    let mut ck = Checker::new(db_from(&base_shadow()), CheckerOptions::default());
    let mut store = IndexStore::open(&dir).unwrap();
    store.warm_start(&mut ck).unwrap();
    let (mut engine, reports) = ServeEngine::new(ck, &constraints(), Some(store)).unwrap();
    let primed: Vec<(String, bool)> = reports.into_iter().map(|(n, r)| (n, r.holds)).collect();
    assert_eq!(
        primed,
        cold_serial(&shadow),
        "warm-started baseline diverged"
    );
    // And the first incremental check answers everything from cache.
    let verdicts = engine.check_all().unwrap();
    assert!(verdicts
        .iter()
        .all(|(_, v)| matches!(v, Verdict::Cached { .. })));
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn torn_journal_append_loses_only_the_unacknowledged_delta() {
    let _g = lock();
    let dir = scratch("torn");

    // Session 1: build the cache over the base rows.
    {
        let mut ck = Checker::new(db_from(&base_shadow()), CheckerOptions::default());
        let mut store = IndexStore::open(&dir).unwrap();
        store.warm_start(&mut ck).unwrap();
        let (mut engine, _) = ServeEngine::new(ck, &constraints(), Some(store)).unwrap();
        engine.finish().unwrap();
    }

    // Session 2: one acknowledged delta, then a journal append that tears
    // on every attempt (p=1 fails regardless of the retry-varied key).
    // The retry budget runs dry, so the engine applies the delta
    // rows-only, reports it non-durable, and degrades the relation to the
    // SQL rung — the session keeps answering exactly, but the delta is
    // NOT journaled. The session then dies without write_back.
    {
        let mut ck = Checker::new(db_from(&base_shadow()), CheckerOptions::default());
        let mut store = IndexStore::open(&dir).unwrap();
        store.warm_start(&mut ck).unwrap();
        let (mut engine, _) = ServeEngine::new(ck, &constraints(), Some(store)).unwrap();
        // Acknowledged: R(1,2) breaks the diagonal.
        assert!(
            engine
                .apply("R", &Delta::Insert(vec![Raw::Int(1), Raw::Int(2)]))
                .unwrap()
                .durable
        );
        let verdicts: BTreeMap<String, Verdict> = engine.check_all().unwrap().into_iter().collect();
        assert!(matches!(
            verdicts["r-diagonal"],
            Verdict::Checked {
                verdict: relcheck_core::checker::Verdict::Violated
            }
        ));

        let _fp = FpGuard;
        failpoint::configure_spec("journal-append=1", 20070415).unwrap();
        // Unjournaled: deleting R(1,2) restores the diagonal in the live
        // session, but every append attempt tears, so the outcome is
        // exact-but-not-durable and the live verdict still flips.
        let outcome = engine
            .apply("R", &Delta::Delete(vec![Raw::Int(1), Raw::Int(2)]))
            .unwrap();
        assert!(outcome.changed);
        assert!(
            !outcome.durable,
            "exhausted retries must surrender durability"
        );
        assert_eq!(outcome.retries, JOURNAL_RETRY_LIMIT);
        assert_eq!(engine.journal_retries(), JOURNAL_RETRY_LIMIT);
        assert!(engine.dirty().contains("R"));
        let verdicts: BTreeMap<String, Verdict> = engine.check_all().unwrap().into_iter().collect();
        assert!(
            verdicts["r-diagonal"].holds(),
            "rows-only delta must still flip the live verdict"
        );
        // Crash: drop without finish().
    }

    // Session 3: warm start must replay the acknowledged delta, find no
    // torn tail (retry attempts truncate their own debris), and answer
    // exactly like the fault-free prefix — r-diagonal is violated again
    // because the delete was never journaled.
    let mut oracle = base_shadow();
    oracle.get_mut("R").unwrap().insert(vec![1, 2]);
    let mut ck = Checker::new(db_from(&base_shadow()), CheckerOptions::default());
    let mut store = IndexStore::open(&dir).unwrap();
    store.warm_start(&mut ck).unwrap();
    assert_eq!(
        store.stats.journal_replayed, 1,
        "exactly the acknowledged delta replays"
    );
    let (engine, reports) = ServeEngine::new(ck, &constraints(), Some(store)).unwrap();
    let primed: Vec<(String, bool)> = reports.into_iter().map(|(n, r)| (n, r.holds)).collect();
    assert_eq!(
        primed,
        cold_serial(&oracle),
        "post-crash verdicts diverged from fault-free run"
    );
    assert!(!primed.iter().find(|(n, _)| n == "r-diagonal").unwrap().1);
    drop(engine);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn flaky_journal_appends_retry_to_durability_and_replay_cleanly() {
    let _g = lock();
    let dir = scratch("flaky");
    let mut shadow = base_shadow();

    // Session 1: a delta script under a journal that tears transiently.
    // Attempt 0 uses the legacy per-relation key, retries re-key per
    // (sequence, attempt) — so a relation whose first attempt fires
    // deterministically still converges within the retry budget.
    {
        let mut ck = Checker::new(db_from(&shadow), CheckerOptions::default());
        let mut store = IndexStore::open(&dir).unwrap();
        store.warm_start(&mut ck).unwrap();
        let (mut engine, _) = ServeEngine::new(ck, &constraints(), Some(store)).unwrap();
        let fp = FpGuard;
        failpoint::configure_spec("journal-append=0.4", 11).unwrap();
        let mut rng = SplitMix64::seed_from_u64(3);
        for step in 0..16 {
            let (relation, row) = random_delta(&mut rng);
            let insert = rng.gen_bool(0.6);
            // apply_both asserts every outcome is durable: under this
            // seed the budget always suffices, so flakiness is absorbed
            // invisibly to the client.
            apply_both(
                &mut engine,
                &mut shadow,
                relation,
                row,
                insert,
                &format!("flaky step {step}"),
            );
        }
        assert!(
            engine.journal_retries() > 0,
            "seed 11 must exercise the retry path, else the test is vacuous"
        );
        assert_eq!(incremental(&mut engine), cold_serial(&shadow));
        drop(fp);
        engine.finish().unwrap();
    }

    // Session 2: the journal the retries produced must replay to exactly
    // the script's endpoint — no duplicated or half-written records from
    // the failed attempts (each retry truncates its own torn tail).
    let mut ck = Checker::new(db_from(&base_shadow()), CheckerOptions::default());
    let mut store = IndexStore::open(&dir).unwrap();
    store.warm_start(&mut ck).unwrap();
    let (_engine, reports) = ServeEngine::new(ck, &constraints(), Some(store)).unwrap();
    let primed: Vec<(String, bool)> = reports.into_iter().map(|(n, r)| (n, r.holds)).collect();
    assert_eq!(
        primed,
        cold_serial(&shadow),
        "restart after flaky session diverged"
    );
    let _ = fs::remove_dir_all(&dir);
}

/// Drive one scripted line through a [`ServeClient`], asserting it was
/// admitted (single sequential submitters can never overfill the queue).
fn submit_ok(client: &relcheck_core::ServeClient, line: &str) -> Vec<String> {
    match client.submit(line) {
        Submission::Reply(reply) => reply.lines,
        other => panic!("sequential submit was not admitted: {other:?}"),
    }
}

#[test]
fn actor_replies_are_byte_identical_to_the_direct_engine() {
    let _g = lock();
    // Timing-free script: deltas (valid, no-op, malformed), full and
    // single checks, unknown commands. `stats` is excluded — its reply
    // embeds wall-clock micros and is legitimately run-dependent.
    let script = [
        "+R:1,2",
        "check",
        "# annotated pause",
        "",
        "-R:1,2",
        "-R:6,6", // absent row: applied=false
        "check r-diagonal",
        "+BOGUS:1",
        "not-a-command",
        "+R:malformed", // arity mismatch: typed err reply
        "check",
        "quit",
    ];
    let direct: Vec<String> = {
        let (mut engine, _) = ServeEngine::new(
            Checker::new(db_from(&base_shadow()), CheckerOptions::default()),
            &constraints(),
            None,
        )
        .unwrap();
        script
            .iter()
            .flat_map(|line| engine.handle_line(line).lines)
            .collect()
    };
    // Same script through the actor: the replies are the engine's own.
    let (engine, _) = ServeEngine::new(
        Checker::new(db_from(&base_shadow()), CheckerOptions::default()),
        &constraints(),
        None,
    )
    .unwrap();
    let actor = ServeActor::spawn(engine, ServeConfig::default());
    let client = actor.client();
    let via_actor: Vec<String> = script
        .iter()
        .flat_map(|line| submit_ok(&client, line))
        .collect();
    assert_eq!(via_actor, direct, "actor replies diverged");
    // After quit the session drains: later submits are turned away.
    assert!(client.is_draining());
    assert!(matches!(client.submit("check"), Submission::Closed));
    drop(client);
    let (_engine, overload) = actor.shutdown();
    assert_eq!(overload.admitted, script.len() as u64);
    assert_eq!(overload.rejected, 0);
    assert_eq!(overload.retries, 0);
    assert_eq!(overload.drained, 0);
}

#[test]
fn a_sql_only_relation_enters_the_ladder_at_sql_and_keeps_the_verdict() {
    let _g = lock();
    let mut shadow = base_shadow();
    shadow.get_mut("R").unwrap().insert(vec![1, 2]); // breaks r-diagonal
    let diagonal = parse("forall x, y. R(x, y) -> x = y").unwrap();
    let mut ck = Checker::new(db_from(&shadow), CheckerOptions::default());
    let baseline = ck.check(&diagonal).unwrap();
    assert_eq!(baseline.trace.ladder, ["bdd"]);
    assert!(!baseline.holds);
    // What serve does on a domain overflow: the plan has no BDD step, so
    // the walk starts at SQL, says why, and decides the same verdict.
    ck.mark_sql_only("R");
    let routed = ck.check(&diagonal).unwrap();
    assert_eq!(routed.trace.ladder, ["sql"]);
    assert!(matches!(
        routed.trace.fallback,
        Some(relcheck_core::FallbackReason::UnindexedRelation)
    ));
    assert_eq!(routed.verdict, baseline.verdict);
}

#[test]
fn contention_never_changes_the_rung() {
    let _g = lock();
    const CLIENTS: usize = 4;
    const ROUNDS: usize = 500;
    let (engine, _) = ServeEngine::new(
        Checker::new(db_from(&base_shadow()), CheckerOptions::default()),
        &constraints(),
        None,
    )
    .unwrap();
    // A one-deep queue: any second request in flight is a backlog.
    let cfg = ServeConfig {
        queue_depth: 1,
        ..ServeConfig::default()
    };
    let actor = ServeActor::spawn(engine, cfg);
    let workers: Vec<_> = (0..CLIENTS)
        .map(|_| {
            let client = actor.client();
            std::thread::spawn(move || {
                let (mut certs, mut busy) = (Vec::new(), 0u64);
                for _ in 0..ROUNDS {
                    match client.submit("certify") {
                        Submission::Reply(reply) => {
                            certs.extend(reply.lines.into_iter().filter(|l| l.starts_with('{')))
                        }
                        Submission::Busy { .. } => busy += 1,
                        Submission::Closed => panic!("session closed under load"),
                    }
                }
                (certs, busy)
            })
        })
        .collect();
    let (mut certs, mut busy) = (Vec::new(), 0);
    for worker in workers {
        let (c, b) = worker.join().unwrap();
        certs.extend(c);
        busy += b;
    }
    let (_engine, overload) = actor.shutdown();
    assert_eq!(
        overload.admitted + overload.rejected,
        (CLIENTS * ROUNDS) as u64
    );
    assert_eq!(overload.rejected, busy);
    // Every admitted certify decides each constraint on the BDD rung, as
    // an uncontended one does: admission never picks the rung.
    assert_eq!(
        certs.len() as u64,
        overload.admitted * constraints().len() as u64
    );
    for cert in &certs {
        assert!(cert.contains("\"rung\":\"bdd\""), "{cert}");
    }
}

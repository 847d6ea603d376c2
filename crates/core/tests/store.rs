//! Crash-safety acceptance tests for the persistent index store: the
//! warm-start differential (a warm checker answers exactly like a cold
//! one), journaled incremental maintenance with compaction, and — the
//! robustness core — corruption fuzzing: truncations, bit flips, torn
//! tails, stale fingerprints, domain growth, and failpoint-injected
//! partial writes must all be *detected* (typed recovery records, never a
//! panic) and *recovered* (rebuild from base data, never a wrong verdict).
//! Every damage case also runs `IndexStore::verify` first and checks that
//! it reports exactly what the warm start then does.
//!
//! The failpoint registry is process-global, so every test serializes on
//! one mutex (cheap: each test runs in milliseconds on these tiny
//! relations).

use relcheck_bdd::{decode_frame, encode_frame, failpoint, ExportedRelation};
use relcheck_core::checker::{self, Checker, CheckerOptions};
use relcheck_core::ordering::OrderingStrategy;
use relcheck_core::registry::{ConstraintRegistry, Verdict};
use relcheck_core::store::{
    encode_journal_record, journal_file_name, journal_header, segment_file_name, Delta, IndexStore,
    VerifyOutcome, MANIFEST_MAGIC, SEGMENT_MAGIC, SEGMENT_VERSION,
};
use relcheck_core::telemetry::recovery_reason;
use relcheck_core::CoreError;
use relcheck_relstore::{Database, Raw};
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
        "relcheck-store-test-{}-{tag}-{n}",
        std::process::id()
    ));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// The working database: customers and a reference table sharing the
/// `city`/`area` classes. One customer row (Toronto, 212) is absent from
/// the reference, so `cust-in-ref` is violated out of the box — a live
/// signal that recovered verdicts really track the data.
fn base_rows() -> Vec<Vec<Raw>> {
    vec![
        vec![Raw::str("Toronto"), Raw::Int(416)],
        vec![Raw::str("Toronto"), Raw::Int(647)],
        vec![Raw::str("Newark"), Raw::Int(973)],
        vec![Raw::str("Toronto"), Raw::Int(212)],
    ]
}

fn make_db(cust_rows: Vec<Vec<Raw>>) -> Database {
    let mut db = Database::new();
    db.create_relation("CUST", &[("city", "city"), ("area", "area")], cust_rows)
        .unwrap();
    db.create_relation(
        "REF",
        &[("city", "city"), ("area", "area")],
        vec![
            vec![Raw::str("Toronto"), Raw::Int(416)],
            vec![Raw::str("Toronto"), Raw::Int(647)],
            vec![Raw::str("Newark"), Raw::Int(973)],
        ],
    )
    .unwrap();
    db
}

const CONSTRAINTS: [&str; 2] = [
    "forall c, a. CUST(c, a) -> REF(c, a)",
    "forall c, a. REF(c, a) -> exists b. CUST(c, b)",
];

fn checker(db: Database) -> Checker {
    Checker::new(db, CheckerOptions::default())
}

/// All constraint verdicts, in order — the differential signature.
fn verdicts(ck: &mut Checker) -> Vec<bool> {
    CONSTRAINTS
        .iter()
        .map(|c| ck.check(&relcheck_logic::parse(c).unwrap()).unwrap().holds)
        .collect()
}

/// What a cold start over `cust_rows` answers; every recovery path must
/// reproduce this exactly.
fn cold_verdicts(cust_rows: Vec<Vec<Raw>>) -> Vec<bool> {
    verdicts(&mut checker(make_db(cust_rows)))
}

/// Populate `dir` from the base database and return the cold verdicts.
fn build_cache(dir: &std::path::Path) -> Vec<bool> {
    let mut ck = checker(make_db(base_rows()));
    let mut store = IndexStore::open(dir).unwrap();
    store.warm_start(&mut ck).unwrap();
    let v = verdicts(&mut ck);
    store.write_back(&mut ck).unwrap();
    assert_eq!(store.stats.write_failures, 0);
    v
}

fn reasons(store: &IndexStore) -> Vec<&'static str> {
    store.stats.recoveries.iter().map(|r| r.reason).collect()
}

/// Every journal file's length, `None` where there is none.
fn journal_lens(dir: &std::path::Path) -> Vec<Option<u64>> {
    ["CUST", "REF"]
        .iter()
        .map(|r| {
            fs::metadata(dir.join(journal_file_name(r)))
                .ok()
                .map(|m| m.len())
        })
        .collect()
}

/// `verify` on a checker from `make`, then a warm start on another: the
/// two must agree. A relation with recoveries gets the same reasons from
/// both; one without is a verify hit exactly when the warm start adopted
/// it, so the verify misses are the warm start's misses that rebuilt
/// nothing (no relation missing from the manifest here has a damaged
/// journal). `verify` leaves every journal's length as it was. Returns
/// the warm-started checker and store.
fn verified_warm_start(dir: &std::path::Path, make: impl Fn() -> Checker) -> (Checker, IndexStore) {
    let before = journal_lens(dir);
    let outcomes = IndexStore::open(dir).unwrap().verify(&mut make()).unwrap();
    assert_eq!(journal_lens(dir), before, "verify changed a journal");
    let mut ck = make();
    let mut store = IndexStore::open(dir).unwrap();
    store.warm_start(&mut ck).unwrap();
    let mut not_cached = 0;
    for (name, outcome) in &outcomes {
        let warm: Vec<&str> = store
            .stats
            .recoveries
            .iter()
            .filter(|r| r.relation == *name)
            .map(|r| r.reason)
            .collect();
        let verified: Vec<&str> = match outcome {
            VerifyOutcome::Hit { .. } => Vec::new(),
            VerifyOutcome::NotCached => {
                not_cached += 1;
                Vec::new()
            }
            VerifyOutcome::Recover(recs) => {
                assert!(!recs.is_empty());
                recs.iter().map(|r| r.reason).collect()
            }
        };
        assert_eq!(verified, warm, "{name}: verify said {outcome:?}");
    }
    assert_eq!(
        not_cached,
        store.stats.misses - store.stats.rebuilds,
        "verify misses {outcomes:?}, warm start {:?}",
        store.stats
    );
    (ck, store)
}

fn base_checker() -> Checker {
    checker(make_db(base_rows()))
}

#[test]
fn warm_start_matches_cold_and_hits_cleanly() {
    let _g = lock();
    let dir = scratch("warm");
    let cold = build_cache(&dir);
    assert_eq!(cold, vec![false, true]);

    let mut ck = checker(make_db(base_rows()));
    let mut store = IndexStore::open(&dir).unwrap();
    store.warm_start(&mut ck).unwrap();
    assert_eq!(
        (store.stats.hits, store.stats.misses, store.stats.rebuilds),
        (2, 0, 0)
    );
    assert_eq!(store.stats.journal_replayed, 0);
    assert!(store.stats.recoveries.is_empty());
    assert_eq!(verdicts(&mut ck), cold);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn journaled_apply_replays_and_compacts() {
    let _g = lock();
    let dir = scratch("journal");
    build_cache(&dir);

    // Session 2: warm hit, then two durable deltas — the journal record
    // lands (fsynced) before the in-memory state changes. Deleting the
    // rogue (Toronto, 212) row flips `cust-in-ref` to holding.
    let mut ck = checker(make_db(base_rows()));
    let mut store = IndexStore::open(&dir).unwrap();
    store.warm_start(&mut ck).unwrap();
    let del = Delta::Delete(vec![Raw::str("Toronto"), Raw::Int(212)]);
    let ins = Delta::Insert(vec![Raw::str("Newark"), Raw::Int(416)]);
    assert!(store.journaled_apply(&mut ck, "CUST", &del).unwrap());
    assert!(store.journaled_apply(&mut ck, "CUST", &ins).unwrap());
    let expected_rows = vec![
        vec![Raw::str("Toronto"), Raw::Int(416)],
        vec![Raw::str("Toronto"), Raw::Int(647)],
        vec![Raw::str("Newark"), Raw::Int(973)],
        vec![Raw::str("Newark"), Raw::Int(416)],
    ];
    let want = cold_verdicts(expected_rows.clone());
    assert_eq!(want, vec![false, true]); // (Newark,416) is not in REF
    assert_eq!(verdicts(&mut ck), want);
    // Deliberately NO write_back: the segment on disk still predates the
    // two journal records (seg_seq = 0).

    // Session 3: the hit replays both records through incremental
    // maintenance, then write_back compacts them into a fresh segment.
    let mut ck = checker(make_db(base_rows()));
    let mut store = IndexStore::open(&dir).unwrap();
    store.warm_start(&mut ck).unwrap();
    assert_eq!(store.stats.hits, 2);
    assert_eq!(store.stats.journal_replayed, 2);
    assert_eq!(verdicts(&mut ck), want);
    store.write_back(&mut ck).unwrap();

    // Session 4: compacted — the segment folds the journal, nothing to
    // replay, same verdicts.
    let mut ck = checker(make_db(base_rows()));
    let mut store = IndexStore::open(&dir).unwrap();
    store.warm_start(&mut ck).unwrap();
    assert_eq!(store.stats.hits, 2);
    assert_eq!(store.stats.journal_replayed, 0);
    assert!(store.stats.recoveries.is_empty());
    assert_eq!(verdicts(&mut ck), want);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn segment_truncation_always_detected_and_recovered() {
    let _g = lock();
    let dir = scratch("seg-trunc");
    let cold = build_cache(&dir);
    let seg = dir.join(segment_file_name("CUST"));
    let original = fs::read(&seg).unwrap();
    for cut in [
        0,
        1,
        7,
        original.len() / 4,
        original.len() / 2,
        original.len() - 1,
    ] {
        fs::write(&seg, &original[..cut]).unwrap();
        let (mut ck, store) = verified_warm_start(&dir, base_checker);
        assert_eq!(store.stats.rebuilds, 1, "cut at {cut} went undetected");
        assert_eq!(store.stats.hits, 1); // REF is untouched
        assert_eq!(reasons(&store), vec![recovery_reason::SEGMENT_CORRUPT]);
        assert!(
            store.stats.recoveries[0].detail.contains("offset"),
            "recovery detail should locate the damage: {}",
            store.stats.recoveries[0].detail
        );
        assert_eq!(verdicts(&mut ck), cold, "cut at {cut} changed a verdict");
        fs::write(&seg, &original).unwrap();
    }
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn segment_bit_flips_always_detected_and_recovered() {
    let _g = lock();
    let dir = scratch("seg-flip");
    let cold = build_cache(&dir);
    let seg = dir.join(segment_file_name("CUST"));
    let original = fs::read(&seg).unwrap();
    // Sample byte positions across the whole file (header, meta, payload);
    // the stride is coprime with 8 so the flipped bit index varies too.
    for pos in (0..original.len()).step_by(5) {
        let mut corrupt = original.clone();
        corrupt[pos] ^= 1 << (pos % 8);
        fs::write(&seg, &corrupt).unwrap();
        let (mut ck, store) = verified_warm_start(&dir, base_checker);
        assert_eq!(
            store.stats.rebuilds, 1,
            "bit flip at byte {pos} went undetected"
        );
        assert_eq!(reasons(&store), vec![recovery_reason::SEGMENT_CORRUPT]);
        assert_eq!(
            verdicts(&mut ck),
            cold,
            "bit flip at byte {pos} changed a verdict"
        );
    }
    fs::write(&seg, &original).unwrap();
    let _ = fs::remove_dir_all(&dir);
}

/// Append raw bytes to a relation's journal, creating it (with a valid
/// header) if needed — simulating appends from a previous session.
fn append_journal_bytes(dir: &std::path::Path, relation: &str, bytes: &[u8]) {
    let path = dir.join(journal_file_name(relation));
    let mut buf = if path.exists() {
        fs::read(&path).unwrap()
    } else {
        journal_header(relation)
    };
    buf.extend_from_slice(bytes);
    fs::write(&path, buf).unwrap();
}

#[test]
fn torn_journal_tail_is_truncated_and_replay_keeps_prefix() {
    let _g = lock();
    let dir = scratch("jnl-torn");
    build_cache(&dir);
    let del = Delta::Delete(vec![Raw::str("Toronto"), Raw::Int(212)]);
    let ins = Delta::Insert(vec![Raw::str("Newark"), Raw::Int(416)]);
    append_journal_bytes(&dir, "CUST", &encode_journal_record(&del));
    let partial = encode_journal_record(&ins);
    append_journal_bytes(&dir, "CUST", &partial[..partial.len() / 2]);

    // The torn tail is discarded; the intact first record replays. The
    // half-written insert was never acknowledged, so the expected state
    // is base-minus-(Toronto,212) — which makes every constraint hold.
    let want = cold_verdicts(base_rows()[..3].to_vec());
    assert_eq!(want, vec![true, true]);
    let (mut ck, store) = verified_warm_start(&dir, base_checker);
    assert_eq!(reasons(&store), vec![recovery_reason::JOURNAL_TORN]);
    assert_eq!(store.stats.journal_replayed, 1);
    assert_eq!(store.stats.hits, 2);
    assert_eq!(verdicts(&mut ck), want);

    // The truncation was persisted: a fresh scan is clean.
    let mut ck = checker(make_db(base_rows()));
    let mut store = IndexStore::open(&dir).unwrap();
    store.warm_start(&mut ck).unwrap();
    assert!(store.stats.recoveries.is_empty());
    assert_eq!(verdicts(&mut ck), want);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn journal_bit_flip_discards_the_damaged_suffix() {
    let _g = lock();
    let dir = scratch("jnl-flip");
    build_cache(&dir);
    let del = Delta::Delete(vec![Raw::str("Toronto"), Raw::Int(212)]);
    let ins = Delta::Insert(vec![Raw::str("Newark"), Raw::Int(416)]);
    append_journal_bytes(&dir, "CUST", &encode_journal_record(&del));
    append_journal_bytes(&dir, "CUST", &encode_journal_record(&ins));
    // Flip one bit inside the *first* record's body: everything from the
    // damage onward is untrusted, so no record survives.
    let path = dir.join(journal_file_name("CUST"));
    let mut bytes = fs::read(&path).unwrap();
    let hdr = journal_header("CUST").len();
    bytes[hdr + 10] ^= 0x10;
    fs::write(&path, bytes).unwrap();

    let cold = cold_verdicts(base_rows());
    let (mut ck, store) = verified_warm_start(&dir, base_checker);
    assert_eq!(reasons(&store), vec![recovery_reason::JOURNAL_CORRUPT]);
    assert_eq!(store.stats.journal_replayed, 0);
    assert_eq!(verdicts(&mut ck), cold);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn stale_fingerprint_forces_rebuild() {
    let _g = lock();
    let dir = scratch("stale");
    build_cache(&dir);
    // The base CSV gained a row since the cache was written: the cached
    // CUST segment is stale; REF is unchanged and still hits.
    let mut grown = base_rows();
    grown.push(vec![Raw::str("Newark"), Raw::Int(647)]);
    let cold = cold_verdicts(grown.clone());
    let (mut ck, store) = verified_warm_start(&dir, || checker(make_db(grown.clone())));
    assert_eq!(reasons(&store), vec![recovery_reason::STALE_FINGERPRINT]);
    assert_eq!((store.stats.hits, store.stats.rebuilds), (1, 1));
    assert_eq!(verdicts(&mut ck), cold);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn ordering_change_invalidates_segments() {
    let _g = lock();
    let dir = scratch("ordering");
    build_cache(&dir); // default ordering (ProbConverge)
    let max_inf_gain = || {
        Checker::new(
            make_db(base_rows()),
            CheckerOptions {
                ordering: OrderingStrategy::MaxInfGain,
                ..Default::default()
            },
        )
    };
    let cold = verdicts(&mut max_inf_gain());
    let (mut ck, store) = verified_warm_start(&dir, max_inf_gain);
    assert_eq!(store.stats.hits, 0);
    assert_eq!(store.stats.rebuilds, 2);
    assert!(reasons(&store)
        .iter()
        .all(|r| *r == recovery_reason::STALE_FINGERPRINT));
    assert_eq!(verdicts(&mut ck), cold);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_manifest_opens_empty_and_self_heals() {
    let _g = lock();
    let dir = scratch("manifest");
    let cold = build_cache(&dir);
    let path = dir.join("manifest");
    let mut bytes = fs::read(&path).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    fs::write(&path, &bytes).unwrap();

    let mut ck = checker(make_db(base_rows()));
    let mut store = IndexStore::open(&dir).unwrap();
    assert_eq!(reasons(&store), vec![recovery_reason::MANIFEST_CORRUPT]);
    assert_eq!(store.stats.recoveries[0].relation, "*");
    store.warm_start(&mut ck).unwrap();
    assert_eq!((store.stats.hits, store.stats.misses), (0, 2));
    assert_eq!(verdicts(&mut ck), cold);
    store.write_back(&mut ck).unwrap();

    // The rebuild re-committed a clean manifest: warm again.
    let mut ck = checker(make_db(base_rows()));
    let mut store = IndexStore::open(&dir).unwrap();
    store.warm_start(&mut ck).unwrap();
    assert!(store.stats.recoveries.is_empty());
    assert_eq!(store.stats.hits, 2);
    assert_eq!(verdicts(&mut ck), cold);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn torn_segment_write_recovers_on_next_open() {
    let _g = lock();
    let _fp = FpGuard;
    let dir = scratch("fp-seg");
    let cold = cold_verdicts(base_rows());

    // A kill mid-segment-write: half the bytes land at the final path,
    // but the manifest (the commit point) already names the segment.
    failpoint::configure_spec("segment-write=1", 0xC0FFEE).unwrap();
    let mut ck = checker(make_db(base_rows()));
    let mut store = IndexStore::open(&dir).unwrap();
    store.warm_start(&mut ck).unwrap();
    store.write_back(&mut ck).unwrap();
    assert_eq!(store.stats.write_failures, 2);
    failpoint::clear();

    let (mut ck, mut store) = verified_warm_start(&dir, base_checker);
    assert_eq!(store.stats.rebuilds, 2);
    assert!(reasons(&store)
        .iter()
        .all(|r| *r == recovery_reason::SEGMENT_CORRUPT));
    assert_eq!(verdicts(&mut ck), cold);
    store.write_back(&mut ck).unwrap();
    assert_eq!(store.stats.write_failures, 0);

    let mut ck = checker(make_db(base_rows()));
    let mut store = IndexStore::open(&dir).unwrap();
    store.warm_start(&mut ck).unwrap();
    assert_eq!(store.stats.hits, 2);
    assert_eq!(verdicts(&mut ck), cold);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn torn_journal_append_is_never_acknowledged() {
    let _g = lock();
    let _fp = FpGuard;
    let dir = scratch("fp-jnl");
    let cold = build_cache(&dir);

    failpoint::configure_spec("journal-append=1", 0xC0FFEE).unwrap();
    let mut ck = checker(make_db(base_rows()));
    let mut store = IndexStore::open(&dir).unwrap();
    store.warm_start(&mut ck).unwrap();
    let del = Delta::Delete(vec![Raw::str("Toronto"), Raw::Int(212)]);
    let err = store.journaled_apply(&mut ck, "CUST", &del).unwrap_err();
    assert_eq!(
        err,
        CoreError::FaultInjected {
            site: failpoint::JOURNAL_APPEND
        }
    );
    failpoint::clear();

    // The delta failed before acknowledgment, so recovery must converge
    // on the *original* state: torn tail truncated, verdicts unchanged.
    let (mut ck, store) = verified_warm_start(&dir, base_checker);
    assert_eq!(reasons(&store), vec![recovery_reason::JOURNAL_TORN]);
    assert_eq!(store.stats.hits, 2);
    assert_eq!(store.stats.journal_replayed, 0);
    assert_eq!(verdicts(&mut ck), cold);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn torn_manifest_commit_recovers_on_next_open() {
    let _g = lock();
    let _fp = FpGuard;
    let dir = scratch("fp-manifest");
    let cold = cold_verdicts(base_rows());

    failpoint::configure_spec("manifest-write=1", 0xC0FFEE).unwrap();
    let mut ck = checker(make_db(base_rows()));
    let mut store = IndexStore::open(&dir).unwrap();
    store.warm_start(&mut ck).unwrap();
    store.write_back(&mut ck).unwrap();
    assert!(store.stats.write_failures >= 1);
    failpoint::clear();

    let mut ck = checker(make_db(base_rows()));
    let mut store = IndexStore::open(&dir).unwrap();
    assert_eq!(reasons(&store), vec![recovery_reason::MANIFEST_CORRUPT]);
    store.warm_start(&mut ck).unwrap();
    assert_eq!(store.stats.misses, 2);
    assert_eq!(verdicts(&mut ck), cold);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn journaled_value_outside_the_frozen_domain_rebuilds_wider() {
    let _g = lock();
    let dir = scratch("overflow");
    build_cache(&dir);
    // A previous session journaled a brand-new city: the cached segments'
    // city blocks are one value too narrow for the post-replay domain.
    let ins = Delta::Insert(vec![Raw::str("Ottawa"), Raw::Int(416)]);
    append_journal_bytes(&dir, "CUST", &encode_journal_record(&ins));

    let mut with_ottawa = base_rows();
    with_ottawa.push(vec![Raw::str("Ottawa"), Raw::Int(416)]);
    let cold = cold_verdicts(with_ottawa);
    let (mut ck, mut store) = verified_warm_start(&dir, base_checker);
    assert!(
        reasons(&store).contains(&recovery_reason::DOMAIN_OVERFLOW),
        "expected a domain-overflow recovery, got {:?}",
        store.stats.recoveries
    );
    assert_eq!(verdicts(&mut ck), cold);
    store.write_back(&mut ck).unwrap();

    // The rebuilt segments use the widened domain: clean hits now.
    let mut ck = checker(make_db(base_rows()));
    let mut store = IndexStore::open(&dir).unwrap();
    store.warm_start(&mut ck).unwrap();
    assert_eq!(store.stats.hits, 2);
    assert!(store.stats.recoveries.is_empty());
    assert_eq!(verdicts(&mut ck), cold);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn in_process_overflow_is_journaled_but_typed() {
    let _g = lock();
    let dir = scratch("overflow-live");
    build_cache(&dir);
    let mut ck = checker(make_db(base_rows()));
    let mut store = IndexStore::open(&dir).unwrap();
    store.warm_start(&mut ck).unwrap();
    let ins = Delta::Insert(vec![Raw::str("Ottawa"), Raw::Int(416)]);
    let err = store.journaled_apply(&mut ck, "CUST", &ins).unwrap_err();
    assert!(matches!(err, CoreError::DomainOverflow { .. }), "got {err}");
    // Journal-first means the record is already durable; the next warm
    // start folds it in by rebuilding with wider blocks.
    let mut with_ottawa = base_rows();
    with_ottawa.push(vec![Raw::str("Ottawa"), Raw::Int(416)]);
    let cold = cold_verdicts(with_ottawa);
    let mut ck = checker(make_db(base_rows()));
    let mut store = IndexStore::open(&dir).unwrap();
    store.warm_start(&mut ck).unwrap();
    assert!(reasons(&store).contains(&recovery_reason::DOMAIN_OVERFLOW));
    assert_eq!(verdicts(&mut ck), cold);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn gc_removes_orphans_and_keeps_the_live_cache() {
    let _g = lock();
    let dir = scratch("gc");
    let cold = build_cache(&dir);
    fs::write(dir.join("GHOST-0000000000000000.seg"), b"junk").unwrap();
    fs::write(dir.join("GHOST-0000000000000000.jnl"), b"junk").unwrap();
    fs::write(dir.join("leftover.seg.tmp"), b"junk").unwrap();

    let mut store = IndexStore::open(&dir).unwrap();
    let known = vec!["CUST".to_owned(), "REF".to_owned()];
    let removed = store.gc(&known).unwrap();
    assert_eq!(
        removed,
        vec![
            "GHOST-0000000000000000.jnl".to_owned(),
            "GHOST-0000000000000000.seg".to_owned(),
            "leftover.seg.tmp".to_owned(),
        ]
    );
    assert!(dir.join(segment_file_name("CUST")).exists());

    let mut ck = checker(make_db(base_rows()));
    let mut store = IndexStore::open(&dir).unwrap();
    store.warm_start(&mut ck).unwrap();
    assert_eq!(store.stats.hits, 2);
    assert_eq!(verdicts(&mut ck), cold);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn verify_reports_each_failure_mode_read_only() {
    let _g = lock();
    let dir = scratch("verify");
    let verify = |ck: &mut Checker| IndexStore::open(&dir).unwrap().verify(ck).unwrap();
    let reasons_of = |outcomes: Vec<(String, VerifyOutcome)>, name: &str| -> Vec<&str> {
        match outcomes.into_iter().find(|(n, _)| n == name).unwrap().1 {
            VerifyOutcome::Recover(recs) => recs.iter().map(|r| r.reason).collect(),
            other => panic!("{name}: expected recoveries, got {other:?}"),
        }
    };

    assert!(verify(&mut base_checker())
        .iter()
        .all(|(_, o)| *o == VerifyOutcome::NotCached));
    build_cache(&dir);
    assert!(verify(&mut base_checker()).iter().all(|(_, o)| *o
        == VerifyOutcome::Hit {
            seg_seq: 0,
            journal: 0
        }));

    // Stale: the database grew a row.
    let mut grown = base_rows();
    grown.push(vec![Raw::str("Newark"), Raw::Int(647)]);
    assert_eq!(
        reasons_of(verify(&mut checker(make_db(grown))), "CUST"),
        vec![recovery_reason::STALE_FINGERPRINT]
    );

    // Corrupt: flip a byte mid-segment.
    let seg = dir.join(segment_file_name("CUST"));
    let original = fs::read(&seg).unwrap();
    let mut corrupt = original.clone();
    let mid = corrupt.len() / 2;
    corrupt[mid] ^= 0x04;
    fs::write(&seg, &corrupt).unwrap();
    assert_eq!(
        reasons_of(verify(&mut base_checker()), "CUST"),
        vec![recovery_reason::SEGMENT_CORRUPT]
    );

    // Missing: the manifest references a file that is gone.
    fs::remove_file(&seg).unwrap();
    assert_eq!(
        reasons_of(verify(&mut base_checker()), "CUST"),
        vec![recovery_reason::SEGMENT_MISSING]
    );

    // Torn journal: verify reports it and — read-only — repairs nothing.
    let rec = encode_journal_record(&Delta::Delete(vec![Raw::str("Toronto"), Raw::Int(212)]));
    append_journal_bytes(&dir, "REF", &rec[..rec.len() / 2]);
    let lens = journal_lens(&dir);
    assert_eq!(
        reasons_of(verify(&mut base_checker()), "REF"),
        vec![recovery_reason::JOURNAL_TORN]
    );
    assert_eq!(journal_lens(&dir), lens);
    let _ = fs::remove_dir_all(&dir);
}

/// A crash between a segment's rename and the manifest commit leaves a
/// segment that folds a journal record the old manifest does not know
/// about. Verify and warm start both call it corrupt, and the rebuild
/// still replays the acknowledged record.
#[test]
fn manifest_rolled_back_behind_its_segment_rebuilds() {
    let _g = lock();
    let dir = scratch("rollback");
    build_cache(&dir);
    let manifest = fs::read(dir.join("manifest")).unwrap();

    let mut ck = base_checker();
    let mut store = IndexStore::open(&dir).unwrap();
    store.warm_start(&mut ck).unwrap();
    let del = Delta::Delete(vec![Raw::str("Toronto"), Raw::Int(212)]);
    assert!(store.journaled_apply(&mut ck, "CUST", &del).unwrap());
    store.write_back(&mut ck).unwrap();
    assert_eq!(store.stats.write_failures, 0);
    fs::write(dir.join("manifest"), &manifest).unwrap();

    let (mut ck, store) = verified_warm_start(&dir, base_checker);
    assert_eq!(reasons(&store), vec![recovery_reason::SEGMENT_CORRUPT]);
    assert_eq!(
        store.stats.recoveries[0].detail,
        "segment meta disagrees with the manifest"
    );
    assert_eq!((store.stats.hits, store.stats.rebuilds), (1, 1));
    assert_eq!(verdicts(&mut ck), cold_verdicts(base_rows()[..3].to_vec()));
    let _ = fs::remove_dir_all(&dir);
}

/// A cache written before segments moved to version 2: each segment
/// framed as version 1 around the old payload (relation name, column
/// ordering, then the exported relation), beside a journal of two
/// acknowledged records. Journals and the manifest kept version 1, so the
/// warm start rebuilds both segments and replays both records.
#[test]
fn a_version_1_segment_is_rebuilt_and_its_journal_kept() {
    let _g = lock();
    let dir = scratch("format1");
    build_cache(&dir);
    let manifest = fs::read(dir.join("manifest")).unwrap();
    assert!(decode_frame(&manifest, MANIFEST_MAGIC, 1).is_ok());
    assert_eq!(journal_header("CUST")[8..12], 1u32.to_le_bytes());
    for name in ["CUST", "REF"] {
        let path = dir.join(segment_file_name(name));
        let bytes = fs::read(&path).unwrap();
        let (meta, payload) = decode_frame(&bytes, SEGMENT_MAGIC, SEGMENT_VERSION).unwrap();
        let rel = ExportedRelation::decode(payload).unwrap();
        let mut ordering = vec![0u32; rel.slots.len()];
        for (col, &slot) in rel.slots.iter().enumerate() {
            ordering[slot] = col as u32;
        }
        let mut old = (name.len() as u32).to_le_bytes().to_vec();
        old.extend_from_slice(name.as_bytes());
        old.extend_from_slice(&(ordering.len() as u32).to_le_bytes());
        for col in ordering {
            old.extend_from_slice(&col.to_le_bytes());
        }
        old.extend_from_slice(payload);
        fs::write(&path, encode_frame(SEGMENT_MAGIC, 1, meta, &old)).unwrap();
    }
    // Each record moves a verdict, so a lost one would show.
    let records = [
        Delta::Delete(vec![Raw::str("Toronto"), Raw::Int(212)]),
        Delta::Delete(vec![Raw::str("Newark"), Raw::Int(973)]),
    ];
    for d in &records {
        append_journal_bytes(&dir, "CUST", &encode_journal_record(d));
    }
    let lens = journal_lens(&dir);
    let want = cold_verdicts(base_rows()[..2].to_vec());
    assert_eq!(want, vec![true, false]);

    let (mut ck, mut store) = verified_warm_start(&dir, base_checker);
    assert_eq!(
        reasons(&store),
        vec![recovery_reason::SEGMENT_CORRUPT; 2],
        "{:?}",
        store.stats.recoveries
    );
    assert!(store
        .stats
        .recoveries
        .iter()
        .all(|r| r.detail.contains("unsupported format version")));
    assert_eq!(store.stats.rebuilds, 2);
    assert_eq!(verdicts(&mut ck), want);
    assert_eq!(journal_lens(&dir), lens, "a journal record was dropped");
    store.write_back(&mut ck).unwrap();

    // The rebuilt segments fold both records: clean hits, nothing replayed.
    let (mut ck, store) = verified_warm_start(&dir, base_checker);
    assert_eq!(store.stats.hits, 2);
    assert_eq!(store.stats.journal_replayed, 0);
    assert!(store.stats.recoveries.is_empty());
    assert_eq!(verdicts(&mut ck), want);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn registry_revalidates_exactly_the_touched_constraints() {
    let _g = lock();
    let dir = scratch("registry");
    let mut ck = checker(make_db(base_rows()));
    let mut store = IndexStore::open(&dir).unwrap();
    store.warm_start(&mut ck).unwrap();

    let mut reg = ConstraintRegistry::new();
    assert!(reg.register(
        "cust-in-ref",
        relcheck_logic::parse(CONSTRAINTS[0]).unwrap()
    ));
    assert!(reg.register(
        "ref-covered",
        relcheck_logic::parse(CONSTRAINTS[1]).unwrap()
    ));
    reg.validate_all(&mut ck).unwrap();

    // One durable delta to CUST: the CUST-reading constraints re-check
    // (the rogue row is gone, so cust-in-ref now holds)…
    let del = Delta::Delete(vec![Raw::str("Toronto"), Raw::Int(212)]);
    store.journaled_apply(&mut ck, "CUST", &del).unwrap();
    let round = reg.revalidate(&mut ck, &["CUST"]).unwrap();
    let by_name: std::collections::HashMap<_, _> = round.into_iter().collect();
    assert!(matches!(
        by_name["cust-in-ref"],
        Verdict::Checked {
            verdict: checker::Verdict::Holds
        }
    ));
    assert!(matches!(by_name["ref-covered"], Verdict::Checked { .. }));
    store.write_back(&mut ck).unwrap();

    // …and the delta survives the restart: a fresh warm start agrees.
    let want = cold_verdicts(base_rows()[..3].to_vec());
    let mut ck = checker(make_db(base_rows()));
    let mut store = IndexStore::open(&dir).unwrap();
    store.warm_start(&mut ck).unwrap();
    assert_eq!(verdicts(&mut ck), want);
    let _ = fs::remove_dir_all(&dir);
}

//! Chaos soak: long-running randomized serve sessions under fault
//! injection at every failpoint site, with tight node budgets and
//! deadlines — and after every certify pass, the trust-but-verify
//! invariants:
//!
//! 1. every *decided* verdict's certificate independently re-checks
//!    (both the engine's built-in audit and this test's own call through
//!    the JSON round-trip), and
//! 2. every tampered certificate is rejected.
//!
//! Operational faults (an injected error mid-certify, a failed delta)
//! are expected and tolerated; a decided-but-unauditable certificate is
//! the one thing that must never happen.
//!
//! The failpoint registry is process-global, so the tests serialize on
//! one mutex. The quick soak runs three fixed seeds in CI; the extended
//! soak (`--ignored`) keeps cycling fresh seeds until the
//! `RELCHECK_CHAOS_SOAK_MS` budget (default 10 s) runs out.

use relcheck_bdd::failpoint;
use relcheck_core::certify::{parse_bundle, verify_certificate, AuditError, Certificate};
use relcheck_core::checker::{Checker, CheckerOptions, Verdict};
use relcheck_core::serve::{ServeActor, ServeClient, ServeConfig, ServeEngine, Submission};
use relcheck_core::store::IndexStore;
use relcheck_logic::{parse, Formula};
use relcheck_relstore::{Database, Raw};
use std::collections::BTreeSet;
use std::sync::Mutex;
use std::time::{Duration, Instant};

static GUARD: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    GUARD
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn quiet_panics() {
    std::panic::set_hook(Box::new(|_| {}));
}

fn restore_panics() {
    let _ = std::panic::take_hook();
}

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

const CITIES: [&str; 4] = ["Toronto", "Newark", "Ithaca", "Boston"];
const AREAS: [i64; 6] = [416, 647, 905, 212, 973, 607];
const STATES: [&str; 4] = ["ON", "NY", "NJ", "MA"];

/// Every pool value appears in the base data, so the frozen BDD domains
/// cover the whole delta vocabulary — except the deliberately novel
/// values some deltas inject to exercise the overflow-degradation path.
fn chaos_db() -> Database {
    let mut db = Database::new();
    let mut rows = Vec::new();
    for (i, &c) in CITIES.iter().enumerate() {
        for (j, &a) in AREAS.iter().enumerate() {
            rows.push(vec![
                Raw::str(c),
                Raw::Int(a),
                Raw::str(STATES[(i + j) % STATES.len()]),
            ]);
        }
    }
    db.create_relation(
        "CUST",
        &[
            ("city", "city"),
            ("areacode", "areacode"),
            ("state", "state"),
        ],
        rows,
    )
    .unwrap();
    db.create_relation(
        "CITY_STATE",
        &[("city", "city"), ("state", "state")],
        CITIES
            .iter()
            .enumerate()
            .map(|(i, &c)| vec![Raw::str(c), Raw::str(STATES[i % STATES.len()])])
            .collect(),
    )
    .unwrap();
    db
}

fn battery() -> Vec<(String, Formula)> {
    [
        (
            "toronto-prefixes",
            r#"forall c, a, s. CUST(c, a, s) & c = "Toronto" -> a in {416, 647, 905}"#,
        ),
        (
            "city-determines-state",
            "forall c, a1, s1, a2, s2. CUST(c, a1, s1) & CUST(c, a2, s2) -> s1 = s2",
        ),
        (
            "reference-agrees",
            "forall c, a, s, s2. CUST(c, a, s) & CITY_STATE(c, s2) -> s = s2",
        ),
        (
            "cities-are-known",
            "forall c, a, s. CUST(c, a, s) -> exists s2. CITY_STATE(c, s2)",
        ),
    ]
    .into_iter()
    .map(|(n, s)| (n.to_owned(), parse(s).unwrap()))
    .collect()
}

#[derive(Debug, Default)]
struct SoakStats {
    certified: usize,
    decided: usize,
    undecided: usize,
    tampered: usize,
    faults: usize,
}

/// Tamper one field of a decided certificate and assert the auditor
/// rejects it — through the JSON path, exactly like a doctored bundle on
/// disk. Modes: fingerprint flip, verdict flip, witness-value rewrite.
fn tamper_rejected(
    db: &Database,
    battery: &[(String, Formula)],
    cert: &Certificate,
    mode: u64,
    ctx: &str,
) {
    let mut t = cert.clone();
    match mode % 3 {
        0 => t.constraint_fp ^= 1,
        1 => {
            t.verdict = if t.verdict == Verdict::Violated {
                Verdict::Holds
            } else {
                Verdict::Violated
            }
        }
        _ => match t.witnesses.as_mut().and_then(|w| w.tuples.first_mut()) {
            Some(tuple) => tuple[0] = Raw::Int(9_999_983),
            None => t.constraint_fp ^= 1,
        },
    }
    let json = t.to_json();
    let parsed = parse_bundle(&json).unwrap_or_else(|e| panic!("{ctx}: tampered parse: {e}"));
    assert!(
        verify_certificate(db, battery, &parsed[0]).is_err(),
        "{ctx}: tampered certificate (mode {}) survived the audit:\n{json}",
        mode % 3
    );
}

/// One randomized serve session: prime fault-free, arm every failpoint
/// site, then interleave deltas (mostly in-domain, occasionally novel →
/// overflow degradation), incremental checks, and certify passes with
/// the audit invariants asserted after each certificate.
fn soak(seed: u64, steps: usize, store_dir: Option<&std::path::Path>) -> SoakStats {
    let battery = battery();
    let opts = CheckerOptions {
        node_limit: Some(3_000),
        deadline: Some(Duration::from_millis(50)),
        ..Default::default()
    };
    let mut checker = Checker::new(chaos_db(), opts);
    let store = store_dir.map(|dir| {
        let mut s = IndexStore::open(dir).unwrap();
        s.warm_start(&mut checker).unwrap();
        s
    });
    let (mut engine, reports) = ServeEngine::new(checker, &battery, store).unwrap();
    for (name, report) in &reports {
        assert!(report.verdict.is_decided(), "fault-free priming: {name}");
    }

    // Arm after priming: the soak is about the *session* under chaos.
    let p = 0.05 + (seed % 3) as f64 * 0.05;
    let spec = failpoint::SITES
        .iter()
        .map(|s| format!("{s}={p}"))
        .collect::<Vec<_>>()
        .join(",");
    failpoint::configure_spec(&spec, seed).unwrap();

    let mut rng = seed ^ 0xC4A0_5EED;
    let mut stats = SoakStats::default();
    for step in 0..steps {
        match splitmix(&mut rng) % 8 {
            0..=3 => {
                let r = splitmix(&mut rng);
                let novel = r.is_multiple_of(16);
                let sign = if r.is_multiple_of(3) { '-' } else { '+' };
                let line = if novel {
                    format!("{sign}CUST:Atlantis,999,XX")
                } else if r.is_multiple_of(5) {
                    format!(
                        "{sign}CITY_STATE:{},{}",
                        CITIES[(r >> 8) as usize % CITIES.len()],
                        STATES[(r >> 16) as usize % STATES.len()],
                    )
                } else {
                    format!(
                        "{sign}CUST:{},{},{}",
                        CITIES[(r >> 8) as usize % CITIES.len()],
                        AREAS[(r >> 16) as usize % AREAS.len()],
                        STATES[(r >> 24) as usize % STATES.len()],
                    )
                };
                // Both `ok delta` and `err delta` (an injected fault) are
                // legitimate; atomic maintenance means a failed delta
                // leaves the row store and the index consistent, which
                // the next certify pass will prove.
                let reply = engine.handle_line(&line);
                if reply.lines.iter().any(|l| l.starts_with("err")) {
                    stats.faults += 1;
                }
            }
            4 => {
                let _ = engine.handle_line("check");
            }
            5 => {
                let name = &battery[splitmix(&mut rng) as usize % battery.len()].0;
                let _ = engine.handle_line(&format!("check {name}"));
            }
            _ => {
                for (name, _) in &battery {
                    match engine.certify_one(name) {
                        // An injected fault killed this certify attempt —
                        // no certificate, no claim, nothing to audit.
                        Err(_) => stats.faults += 1,
                        Ok(None) => unreachable!("registered constraint"),
                        Ok(Some((cert, audit))) => {
                            stats.certified += 1;
                            let ctx = format!("seed {seed:#x} step {step} {name}");
                            let parsed = parse_bundle(&cert.to_json())
                                .unwrap_or_else(|e| panic!("{ctx}: round-trip: {e}"));
                            assert_eq!(parsed[0], cert, "{ctx}: round-trip drift");
                            if cert.verdict.is_decided() {
                                stats.decided += 1;
                                assert!(
                                    audit.is_none(),
                                    "{ctx}: decided certificate failed its audit: {audit:?}"
                                );
                                let db = engine.checker().logical_db().db();
                                verify_certificate(db, &battery, &parsed[0])
                                    .unwrap_or_else(|e| panic!("{ctx}: independent audit: {e}"));
                                let mode = splitmix(&mut rng);
                                tamper_rejected(db, &battery, &cert, mode, &ctx);
                                stats.tampered += 1;
                            } else {
                                stats.undecided += 1;
                                let db = engine.checker().logical_db().db();
                                assert!(
                                    matches!(
                                        verify_certificate(db, &battery, &parsed[0]),
                                        Err(AuditError::Unauditable { .. })
                                    ),
                                    "{ctx}: undecided certificate must be unauditable"
                                );
                            }
                        }
                    }
                }
            }
        }
    }
    failpoint::clear();
    stats
}

/// The CI soak: three fixed seeds (one per fault probability tier, one
/// with a durable store so the journal/segment/manifest sites fire too),
/// each long enough to exercise every invariant.
#[test]
fn chaos_soak_three_seeds() {
    let _g = lock();
    quiet_panics();
    for (i, seed) in [0xC0FFEE_u64, 0xBEEF01, 0x5EED33].into_iter().enumerate() {
        let store_dir = (i == 1).then(|| {
            std::env::temp_dir().join(format!("relcheck-chaos-{}-{seed:x}", std::process::id()))
        });
        let stats = soak(seed, 96, store_dir.as_deref());
        if let Some(dir) = &store_dir {
            let _ = std::fs::remove_dir_all(dir);
        }
        assert!(
            stats.decided > 0,
            "seed {seed:#x}: the soak never audited a decided verdict: {stats:?}"
        );
        assert!(
            stats.tampered > 0,
            "seed {seed:#x}: the soak never exercised tamper rejection: {stats:?}"
        );
    }
    restore_panics();
}

/// One CUST row, as a concurrent client's shadow tracks it.
type Row = (String, i64, String);

/// What one concurrent client did: the final state of the rows it owns,
/// and its admission bookkeeping (cross-checked against the actor's
/// overload counters after shutdown).
struct ClientOutcome {
    owned: BTreeSet<Row>,
    replies: u64,
    busy: u64,
}

/// One concurrent client session. Client `id` owns exactly the CUST rows
/// with areacode `AREAS[id]` — ownership is disjoint, so however the
/// actor interleaves the clients, each row's final presence is decided
/// by its owner's last delta and the endpoint is deterministic.
///
/// The shadow is updated from the engine's *reply* (`applied=true`), not
/// from intent: an injected fault that rejects a delta leaves both the
/// engine and the shadow unchanged, so the oracle survives chaos.
fn concurrent_client(client: ServeClient, id: usize, steps: usize, seed: u64) -> ClientOutcome {
    let area = AREAS[id];
    let mut owned: BTreeSet<Row> = CITIES
        .iter()
        .enumerate()
        .map(|(i, &c)| {
            let j = AREAS.iter().position(|&a| a == area).unwrap();
            (
                c.to_owned(),
                area,
                STATES[(i + j) % STATES.len()].to_owned(),
            )
        })
        .collect();
    let mut rng_state = seed ^ (id as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let (mut replies, mut busy) = (0u64, 0u64);
    let names = [
        "toronto-prefixes",
        "city-determines-state",
        "reference-agrees",
        "cities-are-known",
    ];
    for _ in 0..steps {
        let r = splitmix(&mut rng_state);
        let mut delta_row: Option<(bool, Row)> = None;
        let line = match r % 8 {
            0..=4 => {
                let insert = !r.is_multiple_of(3);
                let row: Row = if id == 0 && r.is_multiple_of(17) {
                    // Novel city: exercises overflow degradation while
                    // staying inside client 0's ownership region.
                    ("Atlantis".to_owned(), area, "XX".to_owned())
                } else {
                    (
                        CITIES[(r >> 8) as usize % CITIES.len()].to_owned(),
                        area,
                        STATES[(r >> 16) as usize % STATES.len()].to_owned(),
                    )
                };
                let sign = if insert { '+' } else { '-' };
                let line = format!("{sign}CUST:{},{},{}", row.0, row.1, row.2);
                delta_row = Some((insert, row));
                line
            }
            5 => "check".to_owned(),
            6 => format!("check {}", names[(r >> 32) as usize % names.len()]),
            // Hostile garbage mid-stream: must come back as a typed err.
            _ => "definitely-not-a-command".to_owned(),
        };
        let reply = loop {
            match client.submit(&line) {
                Submission::Reply(reply) => break reply,
                Submission::Busy { retry_after_ms } => {
                    busy += 1;
                    std::thread::sleep(Duration::from_micros(200 * retry_after_ms.min(5)));
                }
                // Drained under us (a disconnecting peer's quit) — not
                // reachable in this harness, but a client must cope.
                Submission::Closed => {
                    return ClientOutcome {
                        owned,
                        replies,
                        busy,
                    }
                }
            }
        };
        replies += 1;
        assert!(!reply.lines.is_empty(), "client {id}: empty reply");
        if line.starts_with("defin") {
            assert!(
                reply.lines.iter().all(|l| l.starts_with("err ")),
                "client {id}: garbage not err-typed: {:?}",
                reply.lines
            );
        }
        if let Some((insert, row)) = delta_row {
            let applied = reply
                .lines
                .iter()
                .any(|l| l.starts_with("ok delta") && l.contains("applied=true"));
            if applied {
                if insert {
                    owned.insert(row);
                } else {
                    owned.remove(&row);
                }
            }
        }
    }
    ClientOutcome {
        owned,
        replies,
        busy,
    }
}

/// The tentpole invariant under concurrency: N clients hammer one actor
/// through a deliberately tiny queue with every failpoint armed, some
/// disconnecting early — and the session's final decided verdicts are
/// identical to a cold, serial, fault-free check of the same endpoint,
/// with every certificate still auditing. Overload accounting is
/// cross-checked against what the clients actually observed.
#[test]
fn concurrent_sessions_serialize_to_the_fault_free_verdicts() {
    let _g = lock();
    quiet_panics();
    let battery = battery();
    let dir = std::env::temp_dir().join(format!("relcheck-chaos-conc-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut checker = Checker::new(chaos_db(), CheckerOptions::default());
    let mut store = IndexStore::open(&dir).unwrap();
    store.warm_start(&mut checker).unwrap();
    let (engine, reports) = ServeEngine::new(checker, &battery, Some(store)).unwrap();
    assert!(reports.iter().all(|(_, r)| r.verdict.is_decided()));

    // Queue bound 2 against 4 clients: contention is the point. Every
    // admitted check walks the full ladder from the BDD rung, so the
    // armed failpoints hit the BDD engine too.
    let cfg = ServeConfig {
        queue_depth: 2,
        ..ServeConfig::default()
    };
    let actor = ServeActor::spawn(engine, cfg);
    let p = 0.03;
    let spec = failpoint::SITES
        .iter()
        .map(|s| format!("{s}={p}"))
        .collect::<Vec<_>>()
        .join(",");
    failpoint::configure_spec(&spec, 0xC0C0_A11E).unwrap();

    let handles: Vec<_> = (0..4)
        .map(|id| {
            let client = actor.client();
            // Client 3 disconnects early, mid-session.
            let steps = if id == 3 { 12 } else { 48 };
            std::thread::spawn(move || concurrent_client(client, id, steps, 0x5EED_C0DE))
        })
        .collect();
    let outcomes: Vec<ClientOutcome> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    failpoint::clear();

    // Fault-free endpoint check through the same admission path, then a
    // graceful quit.
    let main_client = actor.client();
    let Submission::Reply(final_check) = main_client.submit("check") else {
        panic!("endpoint check was not admitted on an idle queue");
    };
    assert!(final_check
        .lines
        .last()
        .is_some_and(|l| l.starts_with("ok check ")));
    let Submission::Reply(bye) = main_client.submit("quit") else {
        panic!("quit was not admitted on an idle queue");
    };
    assert!(bye.quit);
    drop(main_client);
    let (mut engine, overload) = actor.shutdown();

    // Admission accounting: every reply a client received was admitted
    // exactly once, every Busy was rejected exactly once.
    let client_replies: u64 = outcomes.iter().map(|o| o.replies).sum();
    let client_busy: u64 = outcomes.iter().map(|o| o.busy).sum();
    assert_eq!(overload.admitted, client_replies + 2, "admitted != replies");
    assert_eq!(overload.rejected, client_busy, "rejected != busy replies");

    // The deterministic endpoint: base rows for unowned areacodes plus
    // each client's final owned set, CITY_STATE untouched.
    let owned_areas: BTreeSet<i64> = (0..4).map(|id| AREAS[id]).collect();
    let mut final_rows: BTreeSet<Row> = BTreeSet::new();
    for (i, &c) in CITIES.iter().enumerate() {
        for (j, &a) in AREAS.iter().enumerate() {
            if !owned_areas.contains(&a) {
                final_rows.insert((c.to_owned(), a, STATES[(i + j) % STATES.len()].to_owned()));
            }
        }
    }
    for o in &outcomes {
        final_rows.extend(o.owned.iter().cloned());
    }
    let mut cold_db = Database::new();
    cold_db
        .create_relation(
            "CUST",
            &[
                ("city", "city"),
                ("areacode", "areacode"),
                ("state", "state"),
            ],
            final_rows
                .iter()
                .map(|(c, a, s)| vec![Raw::str(c), Raw::Int(*a), Raw::str(s)])
                .collect(),
        )
        .unwrap();
    cold_db
        .create_relation(
            "CITY_STATE",
            &[("city", "city"), ("state", "state")],
            CITIES
                .iter()
                .enumerate()
                .map(|(i, &c)| vec![Raw::str(c), Raw::str(STATES[i % STATES.len()])])
                .collect(),
        )
        .unwrap();
    let mut cold = Checker::new(cold_db, CheckerOptions::default());
    let oracle: Vec<(String, bool)> = cold
        .check_all(&battery)
        .unwrap()
        .into_iter()
        .map(|(n, r)| {
            assert!(r.verdict.is_decided(), "cold oracle undecided on {n}");
            (n, r.holds)
        })
        .collect();
    let got: Vec<(String, bool)> = engine
        .check_all()
        .unwrap()
        .into_iter()
        .map(|(n, v)| (n, v.holds()))
        .collect();
    assert_eq!(
        got, oracle,
        "session endpoint diverged from fault-free cold check"
    );

    // Certificates still audit at the endpoint.
    for (name, _) in &battery {
        let (cert, audit) = engine.certify_one(name).unwrap().unwrap();
        assert!(cert.verdict.is_decided(), "{name}: endpoint cert undecided");
        assert!(audit.is_none(), "{name}: endpoint audit failed: {audit:?}");
        let parsed = parse_bundle(&cert.to_json()).unwrap();
        verify_certificate(engine.checker().logical_db().db(), &battery, &parsed[0])
            .unwrap_or_else(|e| panic!("{name}: independent endpoint audit: {e}"));
    }
    engine.finish().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
    restore_panics();
}

/// The extended soak: keeps spinning fresh seeds until the
/// `RELCHECK_CHAOS_SOAK_MS` wall-clock budget (default 10 s) is spent.
/// Run with `cargo test -p relcheck-core --test chaos -- --ignored`.
#[test]
#[ignore = "wall-clock soak; CI runs it explicitly via scripts/ci.sh"]
fn chaos_soak_extended() {
    let _g = lock();
    quiet_panics();
    let budget_ms: u64 = std::env::var("RELCHECK_CHAOS_SOAK_MS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(10_000);
    let deadline = Instant::now() + Duration::from_millis(budget_ms);
    let mut seed = 0x50AC_0001_u64;
    let mut rounds = 0usize;
    let mut decided = 0usize;
    let mut tampered = 0usize;
    while Instant::now() < deadline {
        let stats = soak(seed, 64, None);
        decided += stats.decided;
        tampered += stats.tampered;
        rounds += 1;
        seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
    }
    restore_panics();
    assert!(rounds > 0 && decided > 0 && tampered > 0);
    println!("soak: {rounds} round(s), {decided} decided audit(s), {tampered} tamper rejection(s)");
}

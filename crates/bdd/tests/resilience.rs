//! Resilience tests for the BDD engine: wall-clock deadline aborts, the
//! `apply` failpoint, and byte-level fuzzing of the snapshot decoders.
//!
//! The failpoint registry is process-global, so every test in this binary
//! that touches a `BddManager` serializes on one mutex — a test that arms
//! `apply=1` must not bleed into a concurrently running deadline test.

use relcheck_bdd::{failpoint, Bdd, BddError, BddManager, ExportedBdd, ExportedRelation};
use std::sync::Mutex;
use std::time::Instant;

static GUARD: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    GUARD
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Build an XOR chain over `n` fresh variables — enough distinct subproblems
/// that a binary op over two such chains costs hundreds of budget steps.
fn xor_chain(m: &mut BddManager, vars: &[relcheck_bdd::Var]) -> Bdd {
    let mut f = Bdd::FALSE;
    for &v in vars {
        let x = m.var(v).unwrap();
        f = m.xor(f, x).unwrap();
    }
    f
}

#[test]
fn expired_deadline_aborts_and_manager_recovers() {
    let _g = lock();
    let mut m = BddManager::new();
    let vars: Vec<_> = (0..32).map(|_| m.new_var()).collect();
    // Interleave supports so and(f, g) explores ~|f|·|g| subproblems —
    // comfortably past the 256-step stride between deadline checks.
    let evens: Vec<_> = vars.iter().copied().step_by(2).collect();
    let odds: Vec<_> = vars.iter().copied().skip(1).step_by(2).collect();
    let f = xor_chain(&mut m, &evens);
    let g = xor_chain(&mut m, &odds);

    m.set_deadline(Some(Instant::now()));
    let err = m.and(f, g).expect_err("expired deadline must abort");
    match err {
        BddError::Deadline { steps } => assert!(steps > 0),
        other => panic!("expected Deadline, got {other:?}"),
    }

    // Disarm and the identical operation succeeds — the abort poisons
    // nothing, the manager stays usable.
    m.set_deadline(None);
    let h = m
        .and(f, g)
        .expect("manager must recover after a deadline abort");
    assert!(!h.is_const());
}

#[test]
fn future_deadline_does_not_abort() {
    let _g = lock();
    let mut m = BddManager::new();
    let vars: Vec<_> = (0..16).map(|_| m.new_var()).collect();
    m.set_deadline(Some(Instant::now() + std::time::Duration::from_secs(600)));
    let f = xor_chain(&mut m, &vars[..8]);
    let g = xor_chain(&mut m, &vars[8..]);
    assert!(m.and(f, g).is_ok(), "a generous deadline must not fire");
    m.set_deadline(None);
}

#[test]
fn apply_failpoint_aborts_and_manager_recovers() {
    let _g = lock();
    failpoint::configure_spec("apply=1", 7).unwrap();
    let mut m = BddManager::new();
    let r = m.new_var();
    let err = (|| -> relcheck_bdd::Result<Bdd> {
        let x = m.var(r)?;
        let y = m.not(x)?;
        m.and(x, y)
    })()
    .expect_err("armed apply failpoint must abort the operation");
    match err {
        BddError::FaultInjected { site } => assert_eq!(site, "apply"),
        other => panic!("expected FaultInjected, got {other:?}"),
    }
    assert!(
        failpoint::fired_counts()
            .iter()
            .any(|&(site, n)| site == failpoint::APPLY && n > 0),
        "the firing must be recorded for telemetry"
    );

    failpoint::clear();
    let x = m.var(r).unwrap();
    let y = m.not(x).unwrap();
    assert!(
        m.and(x, y).unwrap().is_false(),
        "manager must compute correctly once the failpoint is disarmed"
    );
}

/// Round-trip a snapshot, then attack the byte buffer: truncate it at every
/// length and flip every bit. The decoder must never panic, and every
/// accepted mutant must still satisfy the format's structural invariants
/// (checked by re-encoding and re-decoding).
#[test]
fn exported_bdd_decode_survives_truncation_and_bit_flips() {
    let _g = lock();
    let mut m = BddManager::new();
    let vars: Vec<_> = (0..6).map(|_| m.new_var()).collect();
    let f = xor_chain(&mut m, &vars);
    let snapshot = m.export(f);
    let bytes = snapshot.to_bytes();
    assert_eq!(ExportedBdd::decode(&bytes).unwrap(), snapshot);

    for len in 0..bytes.len() {
        let e = ExportedBdd::decode(&bytes[..len])
            .expect_err("every proper truncation must be rejected");
        assert!(e.offset <= len, "offset {} past buffer of {len}", e.offset);
    }
    for i in 0..bytes.len() * 8 {
        let mut mutant = bytes.clone();
        mutant[i / 8] ^= 1 << (i % 8);
        if let Ok(decoded) = ExportedBdd::decode(&mutant) {
            // A surviving mutant must still be structurally sound.
            assert_eq!(ExportedBdd::decode(&decoded.to_bytes()).unwrap(), decoded);
        }
    }
}

#[test]
fn exported_relation_decode_survives_truncation_and_bit_flips() {
    let _g = lock();
    let mut m = BddManager::new();
    let d1 = m.add_domain(5).unwrap();
    let d2 = m.add_domain(3).unwrap();
    let mut f = Bdd::FALSE;
    for (a, b) in [(0u64, 1u64), (2, 0), (4, 2)] {
        f = m.insert_row(f, &[d1, d2], &[a, b]).unwrap();
    }
    let snapshot = m.export_relation(f, &[d1, d2]).unwrap();
    let bytes = snapshot.to_bytes();
    assert_eq!(ExportedRelation::decode(&bytes).unwrap(), snapshot);

    for len in 0..bytes.len() {
        ExportedRelation::decode(&bytes[..len])
            .expect_err("every proper truncation must be rejected");
    }
    for i in 0..bytes.len() * 8 {
        let mut mutant = bytes.clone();
        mutant[i / 8] ^= 1 << (i % 8);
        if let Ok(decoded) = ExportedRelation::decode(&mutant) {
            assert_eq!(
                ExportedRelation::decode(&decoded.to_bytes()).unwrap(),
                decoded
            );
        }
    }
}

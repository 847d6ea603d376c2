//! Acceptance tests for violation certificates: every decided verdict's
//! certificate must survive the independent naive re-check, the JSON
//! round-trip must be byte-stable, and any tampering — witness values,
//! verdicts, formula text, fingerprints, counts — must be rejected with a
//! *typed* error, never silently accepted.

use relcheck_core::certify::{
    bundle_to_json, emit_certificate, emit_certificates, parse_bundle, verify_bundle,
    verify_certificate, AuditError, Certificate, CERTIFICATE_VERSION,
};
use relcheck_core::checker::{Checker, CheckerOptions, Verdict};
use relcheck_core::registry::ConstraintRegistry;
use relcheck_core::telemetry::FallbackReason;
use relcheck_logic::{parse, Formula};
use relcheck_relstore::{Database, Raw};

/// The worked example from the paper: Toronto area codes, a reference
/// city→state table, and a handful of constraints with known verdicts.
fn phones_db() -> Database {
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
            vec![Raw::str("Toronto"), Raw::Int(212), Raw::str("ON")], // bad prefix
            vec![Raw::str("Newark"), Raw::Int(973), Raw::str("NJ")],
            vec![Raw::str("Newark"), Raw::Int(973), Raw::str("NY")], // state conflict
            vec![Raw::str("Ithaca"), Raw::Int(607), Raw::str("NY")],
        ],
    )
    .unwrap();
    db.create_relation(
        "CITY_STATE",
        &[("city", "city"), ("state", "state")],
        vec![
            vec![Raw::str("Toronto"), Raw::str("ON")],
            vec![Raw::str("Newark"), Raw::str("NJ")],
            vec![Raw::str("Ithaca"), Raw::str("NY")],
        ],
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

/// Check every battery constraint and emit its certificate.
fn emit_all(witness_limit: usize) -> (Database, Vec<(String, Formula)>, Vec<Certificate>) {
    let db = phones_db();
    let battery = battery();
    let mut checker = Checker::new(db.clone(), CheckerOptions::default());
    let mut registry = ConstraintRegistry::new();
    for (n, f) in &battery {
        assert!(registry.register(n, f.clone()));
    }
    let reports = registry.validate_all(&mut checker).unwrap();
    let certs = emit_certificates(&mut checker, &battery, &reports, witness_limit).unwrap();
    (db, battery, certs)
}

/// Every decided verdict — Violated with witnesses, Violated truncated,
/// Holds — self-verifies under the independent naive re-checker.
#[test]
fn every_decided_certificate_self_verifies() {
    let (db, battery, certs) = emit_all(10);
    assert_eq!(certs.len(), battery.len());
    let violated: Vec<_> = certs
        .iter()
        .filter(|c| c.verdict == Verdict::Violated)
        .collect();
    assert_eq!(violated.len(), 3, "the fixture plants three violations");
    for c in &violated {
        let w = c
            .witnesses
            .as_ref()
            .expect("BDD-decided violations carry witnesses");
        assert!(!w.tuples.is_empty());
        assert!(!w.truncated, "limit 10 covers the whole violation set");
        assert_eq!(w.total, w.tuples.len() as f64);
    }
    for (name, res) in verify_bundle(&db, &battery, &certs) {
        let outcome = res.unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(outcome.recounted || outcome.verdict == Verdict::Holds);
    }
}

/// A witness limit of 1 truncates the enumeration; the certificate says
/// so, records the exact total, and still verifies (the auditor checks
/// the carried prefix and recounts the total independently).
#[test]
fn truncated_witnesses_still_verify_with_exact_total() {
    let (db, battery, certs) = emit_all(1);
    let cds = certs
        .iter()
        .find(|c| c.constraint == "city-determines-state")
        .unwrap();
    let w = cds.witnesses.as_ref().unwrap();
    assert_eq!(w.tuples.len(), 1);
    assert!(w.truncated);
    assert!(
        w.total > 1.0,
        "Newark conflicts both ways: total {}",
        w.total
    );
    let outcome = verify_certificate(&db, &battery, cds).unwrap();
    assert_eq!(outcome.witnesses_checked, 1);
    assert!(outcome.recounted);
}

/// Satellite: emit → serialize → parse → serialize must be byte-stable,
/// and the parsed structures must equal the originals.
#[test]
fn json_round_trip_is_byte_stable() {
    for limit in [0usize, 1, 10] {
        let (_, _, certs) = emit_all(limit);
        let json = bundle_to_json(&certs);
        let parsed = parse_bundle(&json).unwrap();
        assert_eq!(parsed, certs, "limit {limit}");
        assert_eq!(bundle_to_json(&parsed), json, "limit {limit}");
        // Single-certificate documents round-trip too.
        for c in &certs {
            let one = c.to_json();
            let back = parse_bundle(&one).unwrap();
            assert_eq!(back.len(), 1);
            assert_eq!(&back[0], c);
            assert_eq!(back[0].to_json(), one);
        }
    }
}

/// Satellite: a bit-flip inside a witness tuple — rendering a value that
/// is not even in the attribute's active domain — is rejected with the
/// typed `WitnessValueUnknown` error, through the full JSON path.
#[test]
fn witness_value_bit_flip_is_rejected() {
    let (db, battery, certs) = emit_all(10);
    let json = bundle_to_json(&certs);
    assert!(json.contains(r#"{"int":212}"#), "fixture witness changed?");
    let tampered = json.replace(r#"{"int":212}"#, r#"{"int":213}"#);
    assert_ne!(tampered, json);
    let certs = parse_bundle(&tampered).unwrap();
    let failures: Vec<_> = verify_bundle(&db, &battery, &certs)
        .into_iter()
        .filter_map(|(n, r)| r.err().map(|e| (n, e)))
        .collect();
    assert_eq!(failures.len(), 1, "exactly the tampered certificate fails");
    assert!(
        matches!(failures[0].1, AuditError::WitnessValueUnknown { .. }),
        "got {:?}",
        failures[0].1
    );
}

/// A witness swapped for a real-but-satisfying tuple is caught by the
/// per-witness falsification check, not just domain membership.
#[test]
fn satisfying_witness_is_rejected() {
    let (db, battery, certs) = emit_all(10);
    let mut cert = certs
        .iter()
        .find(|c| c.constraint == "toronto-prefixes")
        .unwrap()
        .clone();
    // (Toronto, 416, ON) is a perfectly legal customer row — it does not
    // falsify the constraint, so it cannot be a witness.
    cert.witnesses.as_mut().unwrap().tuples[0] =
        vec![Raw::str("Toronto"), Raw::Int(416), Raw::str("ON")];
    match verify_certificate(&db, &battery, &cert) {
        Err(AuditError::WitnessNotViolating { index: 0, .. }) => {}
        other => panic!("expected WitnessNotViolating, got {other:?}"),
    }
}

/// A forged verdict — Holds claimed for a violated constraint, and the
/// reverse — is caught by full re-evaluation.
#[test]
fn forged_verdicts_are_rejected() {
    let (db, battery, certs) = emit_all(10);
    let mut violated = certs
        .iter()
        .find(|c| c.constraint == "toronto-prefixes")
        .unwrap()
        .clone();
    violated.verdict = Verdict::Holds;
    violated.witnesses = None;
    match verify_certificate(&db, &battery, &violated) {
        Err(AuditError::VerdictMismatch {
            claimed: Verdict::Holds,
            reevaluated_holds: false,
            ..
        }) => {}
        other => panic!("expected VerdictMismatch, got {other:?}"),
    }
    let mut holds = certs
        .iter()
        .find(|c| c.constraint == "cities-are-known")
        .unwrap()
        .clone();
    holds.verdict = Verdict::Violated;
    match verify_certificate(&db, &battery, &holds) {
        Err(AuditError::VerdictMismatch {
            claimed: Verdict::Violated,
            reevaluated_holds: true,
            ..
        }) => {}
        other => panic!("expected VerdictMismatch, got {other:?}"),
    }
}

/// Tampering with the formula text or the fingerprint breaks the
/// fingerprint chain; substituting a different registered constraint's
/// formula (fingerprint-consistent!) is caught by the registry cross-check.
#[test]
fn formula_and_fingerprint_tampering_is_rejected() {
    let (db, battery, certs) = emit_all(10);
    let base = certs
        .iter()
        .find(|c| c.constraint == "toronto-prefixes")
        .unwrap();

    let mut edited = base.clone();
    edited.formula = edited.formula.replace("416", "417");
    assert!(matches!(
        verify_certificate(&db, &battery, &edited),
        Err(AuditError::FingerprintMismatch { .. })
    ));

    let mut fp = base.clone();
    fp.constraint_fp ^= 1;
    assert!(matches!(
        verify_certificate(&db, &battery, &fp),
        Err(AuditError::FingerprintMismatch { .. })
    ));

    // A self-consistent formula+fingerprint pair that is not the
    // registered constraint: the claim is about the wrong sentence.
    let mut swapped = base.clone();
    let donor = certs
        .iter()
        .find(|c| c.constraint == "cities-are-known")
        .unwrap();
    swapped.formula = donor.formula.clone();
    swapped.constraint_fp = donor.constraint_fp;
    assert!(matches!(
        verify_certificate(&db, &battery, &swapped),
        Err(AuditError::FormulaMismatch { .. })
    ));

    let mut unknown = base.clone();
    unknown.constraint = "no-such-constraint".to_owned();
    assert!(matches!(
        verify_certificate(&db, &battery, &unknown),
        Err(AuditError::UnknownConstraint(_))
    ));
}

/// An inflated or deflated witness total fails the independent recount.
#[test]
fn tampered_total_fails_recount() {
    let (db, battery, certs) = emit_all(10);
    let mut cert = certs
        .iter()
        .find(|c| c.constraint == "city-determines-state")
        .unwrap()
        .clone();
    let w = cert.witnesses.as_mut().unwrap();
    w.total += 1.0;
    w.truncated = true; // keep the document internally consistent
    match verify_certificate(&db, &battery, &cert) {
        Err(AuditError::CountMismatch {
            claimed, actual, ..
        }) => {
            assert_eq!(claimed, actual + 1.0);
        }
        other => panic!("expected CountMismatch, got {other:?}"),
    }
}

/// Undecided verdicts are never silently verified: a Degraded or Errored
/// certificate is a typed `Unauditable` rejection.
#[test]
fn undecided_certificates_are_unauditable() {
    let (db, battery, certs) = emit_all(10);
    for verdict in [Verdict::Degraded, Verdict::Errored] {
        let mut cert = certs[0].clone();
        cert.verdict = verdict;
        cert.witnesses = None;
        cert.rung = if verdict == Verdict::Degraded {
            "degraded".to_owned()
        } else {
            "errored".to_owned()
        };
        match verify_certificate(&db, &battery, &cert) {
            Err(AuditError::Unauditable { verdict: v, .. }) => assert_eq!(v, verdict),
            other => panic!("expected Unauditable, got {other:?}"),
        }
    }
}

/// Malformed documents fail parsing with typed errors: bad version, bad
/// rung vocabulary, non-JSON, wrong shapes.
#[test]
fn malformed_documents_are_rejected_at_parse_time() {
    let (_, _, certs) = emit_all(10);
    let one = certs[0].to_json();

    let bad_version = one.replace(
        &format!(r#""certificate_version":{CERTIFICATE_VERSION}"#),
        r#""certificate_version":99"#,
    );
    assert!(matches!(
        parse_bundle(&bad_version),
        Err(AuditError::UnsupportedVersion(99))
    ));

    let bad_rung = one.replace(r#""rung":"bdd""#, r#""rung":"warp-drive""#);
    assert!(matches!(
        parse_bundle(&bad_rung),
        Err(AuditError::Field { .. })
    ));

    let bad_verdict = one.replace(r#""verdict":"violated""#, r#""verdict":"maybe""#);
    assert!(matches!(
        parse_bundle(&bad_verdict),
        Err(AuditError::Field { .. })
    ));

    assert!(matches!(parse_bundle("not json"), Err(AuditError::Json(_))));
    assert!(matches!(parse_bundle("42"), Err(AuditError::Json(_))));
}

/// Witness attachment is limited to formulas whose violation set is
/// keyed by the syntactic leading universals; a constraint that is not
/// ∀-prefixed still certifies (witness-free) and still verifies.
#[test]
fn non_forall_prefixed_constraints_certify_witness_free() {
    let db = phones_db();
    let f = parse("exists c, a, s. CUST(c, a, s) & a = 212").unwrap();
    let battery = vec![("some-212".to_owned(), f.clone())];
    let mut checker = Checker::new(db.clone(), CheckerOptions::default());
    let report = checker.check(&f).unwrap();
    assert_eq!(report.verdict, Verdict::Holds);
    let cert = emit_certificate(&mut checker, "some-212", &f, &report, 10).unwrap();
    assert!(cert.witnesses.is_none());
    verify_certificate(&db, &battery, &cert).unwrap();
}

/// A node-limit abort on the BDD rung falls straight to SQL, and the
/// check certifies as `sql`, the rung its trace ends on. The node limit
/// is set to exactly what the check needs over the indices, and
/// unreferenced nodes are left in the arena first: the BDD attempt trips
/// the limit, and the abort's collection frees the garbage, so the next
/// check fits on the BDD rung.
#[test]
fn a_node_limit_abort_falls_to_sql_and_certifies_as_sql() {
    let db = phones_db();
    let battery = battery();
    let (name, f) = &battery[1]; // city-determines-state: violated
    let ready = |limit: Option<usize>| {
        let mut ck = Checker::new(
            db.clone(),
            CheckerOptions {
                node_limit: limit,
                ..Default::default()
            },
        );
        for rel in ["CUST", "CITY_STATE"] {
            ck.ensure_index(rel).unwrap();
        }
        ck.logical_db_mut().gc();
        let kept = ck.logical_db().manager().live_nodes();
        (ck, kept)
    };
    // What the check adds over the indices, collection-free.
    let (mut probe, kept) = ready(None);
    let gc_runs = probe.logical_db().manager().stats().gc_runs;
    let clean = probe.check(f).unwrap();
    assert_eq!(clean.trace.ladder, vec!["bdd"]);
    assert_eq!(probe.logical_db().manager().stats().gc_runs, gc_runs);
    let need = probe.logical_db().manager().live_nodes() - kept;

    let (mut ck, kept_again) = ready(Some(kept + need));
    assert_eq!(kept_again, kept);
    // Garbage: the parity of the first three variables, referenced by
    // nothing.
    let m = ck.logical_db_mut().manager_mut();
    let mut parity = relcheck_bdd::Bdd::FALSE;
    for v in 0..3 {
        let x = m.var(v).unwrap();
        parity = m.xor(parity, x).unwrap();
    }
    assert!(m.live_nodes() > kept, "garbage left in the arena");
    let report = ck.check(f).unwrap();
    assert_eq!(report.trace.ladder, vec!["bdd", "sql"]);
    assert_eq!(
        report.trace.fallback,
        Some(FallbackReason::NodeLimit {
            limit: 49,
            live: 49
        })
    );
    assert_eq!(report.verdict, Verdict::Violated);

    let cert = emit_certificate(&mut ck, name, f, &report, 10).unwrap();
    assert_eq!(cert.rung, "sql");
    verify_certificate(&db, &battery, &cert).unwrap();

    let next = ck.check(f).unwrap();
    assert_eq!(next.trace.ladder, vec!["bdd"]);
    assert_eq!(next.verdict, Verdict::Violated);
}

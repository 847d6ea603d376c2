//! Invariant-driven tests for the telemetry subsystem.
//!
//! Three families:
//!
//! * **Conservation and algebra** — per-op-kind `calls == cache_hits +
//!   cache_misses`, per-kind sums equal the global cache counters,
//!   counters are monotone across checks, and [`StatsDelta`] is exactly
//!   additive: the deltas of two sequential checks sum to the delta of
//!   the combined window.
//! * **Golden rewrite traces** — an FD, an inclusion dependency, and an
//!   equi-join-with-∃ constraint must fire exactly the R1–R4 sequence
//!   checked in below. These pin the §4 pipeline: a refactor that changes
//!   which rules fire (or how often) must update the goldens consciously.
//! * **Schema round-trip** — the metrics JSON of a real run parses and
//!   validates, and its run-level `bdd` block is the Σ of the per-check
//!   trace deltas.

use relcheck_bdd::{OpKind, StatsDelta};
use relcheck_core::checker::{Checker, CheckerOptions, Method};
use relcheck_core::telemetry::{
    validate_metrics_json, RewriteRule, RuleFiring, RunBdd, RunMetrics,
};
use relcheck_logic::{parse, Formula};
use relcheck_relstore::{Database, Raw};

fn customer_db() -> Database {
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
            vec![Raw::str("Toronto"), Raw::Int(647), Raw::str("ON")],
            vec![Raw::str("Oshawa"), Raw::Int(905), Raw::str("ON")],
            vec![Raw::str("Newark"), Raw::Int(973), Raw::str("NJ")],
            vec![Raw::str("Newark"), Raw::Int(212), Raw::str("NY")],
        ],
    )
    .unwrap();
    db.create_relation(
        "ALLOWED",
        &[("city", "city"), ("areacode", "areacode")],
        vec![
            vec![Raw::str("Toronto"), Raw::Int(416)],
            vec![Raw::str("Toronto"), Raw::Int(647)],
            vec![Raw::str("Oshawa"), Raw::Int(905)],
            vec![Raw::str("Newark"), Raw::Int(973)],
        ],
    )
    .unwrap();
    db
}

fn battery() -> Vec<(String, Formula)> {
    [
        (
            "fd-city-state",
            "forall c, a1, s1, a2, s2. CUST(c, a1, s1) & CUST(c, a2, s2) -> s1 = s2",
        ),
        (
            "inclusion",
            "forall c, a, s. CUST(c, a, s) -> ALLOWED(c, a)",
        ),
        (
            "allowed-served",
            "forall c, a. ALLOWED(c, a) -> exists s. CUST(c, a, s)",
        ),
        ("nonempty", "exists c, a, s. CUST(c, a, s)"),
    ]
    .into_iter()
    .map(|(n, s)| (n.to_owned(), parse(s).unwrap()))
    .collect()
}

fn telemetry_checker() -> Checker {
    Checker::new(
        customer_db(),
        CheckerOptions {
            telemetry: true,
            ..Default::default()
        },
    )
}

/// Every window of BDD work must satisfy `calls == hits + misses` per op
/// kind (the counter sits exactly at the cache-lookup site), and the
/// per-kind counters must sum to the global cache totals.
fn assert_conservation(d: &StatsDelta, context: &str) {
    let mut hits = 0;
    let mut misses = 0;
    for kind in OpKind::ALL {
        let s = d.ops[kind.index()];
        assert_eq!(
            s.calls,
            s.cache_hits + s.cache_misses,
            "{context}: {} violates calls == hits + misses",
            kind.name()
        );
        hits += s.cache_hits;
        misses += s.cache_misses;
    }
    assert_eq!(hits, d.cache_hits, "{context}: Σ kind hits == cache_hits");
    assert_eq!(
        misses, d.cache_misses,
        "{context}: Σ kind misses == cache_misses"
    );
}

#[test]
fn per_kind_conservation_holds_in_every_trace() {
    let mut ck = telemetry_checker();
    for (name, f) in battery() {
        let report = ck.check(&f).unwrap();
        let trace = report.metrics.expect("telemetry enabled");
        assert_eq!(
            trace.method, report.method,
            "{name}: trace is self-contained"
        );
        assert_conservation(&trace.bdd, &name);
        assert_eq!(report.method, Method::Bdd, "{name}");
        let applied = trace.bdd.ops[OpKind::Apply.index()].calls;
        if name == "nonempty" {
            // R1's O(1) case: ∃c,a,s. CUST(c,a,s) projects every column of
            // the index, and that projection decides it with no
            // conjunction left to test.
            assert_eq!(applied, 0, "{name}: {:?}", trace.bdd.ops);
        } else {
            assert!(applied > 0, "{name}: a ∀ check tests a conjunction");
        }
        assert!(
            trace.timings.total >= trace.timings.eval,
            "{name}: timing nesting"
        );
    }
    // The same laws hold on the whole-manager snapshot.
    let stats = ck.logical_db().manager().stats();
    assert_conservation(&stats.delta_since(&Default::default()), "manager snapshot");
    assert!(stats.depth_hwm > 0, "recursion must have descended");
    assert!(stats.peak_nodes > 0);
}

#[test]
fn counters_are_monotone_across_checks() {
    let mut ck = telemetry_checker();
    let mut prev = ck.logical_db().manager().stats();
    for (name, f) in battery() {
        ck.check(&f).unwrap();
        let cur = ck.logical_db().manager().stats();
        assert!(cur.created_nodes >= prev.created_nodes, "{name}");
        assert!(cur.cache_hits >= prev.cache_hits, "{name}");
        assert!(cur.cache_misses >= prev.cache_misses, "{name}");
        assert!(cur.gc_runs >= prev.gc_runs, "{name}");
        assert!(cur.depth_hwm >= prev.depth_hwm, "{name}");
        assert!(cur.peak_nodes >= prev.peak_nodes, "{name}");
        for kind in OpKind::ALL {
            let (c, p) = (cur.ops[kind.index()], prev.ops[kind.index()]);
            assert!(c.calls >= p.calls, "{name}: {}", kind.name());
            assert!(c.cache_hits >= p.cache_hits, "{name}: {}", kind.name());
            assert!(c.cache_misses >= p.cache_misses, "{name}: {}", kind.name());
        }
        prev = cur;
    }
}

#[test]
fn deltas_of_sequential_checks_sum_to_combined_delta() {
    let cs = battery();
    // One checker, windows around each check.
    let mut ck = telemetry_checker();
    let s0 = ck.logical_db().manager().stats();
    ck.check(&cs[0].1).unwrap();
    let s1 = ck.logical_db().manager().stats();
    ck.check(&cs[1].1).unwrap();
    let s2 = ck.logical_db().manager().stats();
    let d_first = s1.delta_since(&s0);
    let d_second = s2.delta_since(&s1);
    let d_combined = s2.delta_since(&s0);
    assert_eq!(
        d_first + d_second,
        d_combined,
        "StatsDelta is exactly additive"
    );
    // The per-check traces are those same windows.
    let mut ck2 = telemetry_checker();
    let t0 = ck2.check(&cs[0].1).unwrap().metrics.unwrap();
    let t1 = ck2.check(&cs[1].1).unwrap().metrics.unwrap();
    assert_eq!(
        t0.bdd + t1.bdd,
        d_combined,
        "traces tile the manager timeline"
    );
}

/// `peak_nodes` is the arena high-water mark, not a live count: it bounds
/// every later arena occupancy from above and never moves when GC or
/// compaction shrinks the arena underneath it. (Regression: it used to
/// track nodes net of the free list, so a sweep could *lower* the
/// reported peak.)
#[test]
fn peak_nodes_is_an_arena_high_water_mark() {
    let mut ck = telemetry_checker();
    for (_, f) in battery() {
        ck.check(&f).unwrap();
        let m = ck.logical_db().manager();
        assert!(
            m.stats().peak_nodes >= m.arena_slots(),
            "peak must dominate current arena occupancy"
        );
    }
    let peak = ck.logical_db().manager().stats().peak_nodes;
    assert!(peak > 0);
    // A sweep frees nodes in place; the peak must not follow them down.
    ck.logical_db_mut().gc();
    assert_eq!(ck.logical_db().manager().stats().peak_nodes, peak);
    // Compaction physically shrinks the arena below the peak; the peak
    // still reports the worst case this workload ever reached.
    let stats = ck.logical_db_mut().compact();
    let m = ck.logical_db().manager();
    assert_eq!(m.arena_slots(), m.live_nodes());
    assert_eq!(
        m.stats().peak_nodes,
        peak,
        "compaction lowered the high-water mark (reclaimed {})",
        stats.reclaimed_slots
    );
    assert!(peak >= m.arena_slots());
    // And the battery still answers afterwards: handles were remapped.
    for (name, f) in battery() {
        assert!(ck.check(&f).is_ok(), "{name}: check failed after compact");
    }
}

fn firings(ck: &mut Checker, src: &str) -> Vec<(RewriteRule, u64)> {
    let f = parse(src).unwrap();
    let report = ck.check(&f).unwrap();
    assert_eq!(report.method, Method::Bdd);
    report
        .metrics
        .unwrap()
        .rules
        .iter()
        .map(|RuleFiring { rule, count }| (*rule, *count))
        .collect()
}

#[test]
fn golden_rewrite_trace_functional_dependency() {
    let mut ck = telemetry_checker();
    let got = firings(
        &mut ck,
        "forall c, a1, s1, a2, s2. CUST(c, a1, s1) & CUST(c, a2, s2) -> s1 = s2",
    );
    // R3: prenex pull-up leaves a 5-variable prefix. R1: the whole leading
    // ∀ block is eliminated (validity test). No ∀ survives the negation, so
    // R4 stays silent. R2: the first CUST atom claims its own column
    // domains (identity rename — no firing); the second is renamed on one
    // fresh variable (s2). a1 and a2 occur nowhere else, so their columns
    // are projected away, not renamed; c re-uses the claimed column.
    let want = vec![
        (RewriteRule::R3PrenexPullup, 5),
        (RewriteRule::R1LeadingBlock, 5),
        (RewriteRule::R2JoinRename, 1),
    ];
    assert_eq!(got, want, "FD golden trace");
}

#[test]
fn golden_rewrite_trace_inclusion_dependency() {
    let mut ck = telemetry_checker();
    let got = firings(&mut ck, "forall c, a, s. CUST(c, a, s) -> ALLOWED(c, a)");
    // CUST is the larger relation, so its atom claims the column domains;
    // the ALLOWED atom is renamed on both positions (c, a).
    let want = vec![
        (RewriteRule::R3PrenexPullup, 3),
        (RewriteRule::R1LeadingBlock, 3),
        (RewriteRule::R2JoinRename, 2),
    ];
    assert_eq!(got, want, "inclusion-dependency golden trace");
}

#[test]
fn golden_rewrite_trace_equijoin_with_existential() {
    let mut ck = telemetry_checker();
    let got = firings(
        &mut ck,
        "forall c, a. ALLOWED(c, a) -> exists s. CUST(c, a, s)",
    );
    // Prefix ∀c ∀a ∃s (R3 × 3); only the ∀ block is stripped (R1 × 2).
    // Negating the remainder turns ∃s into ∀s over a conjunction, which
    // Rule 5 distributes (R4 × 1). CUST (larger) claims its columns, so
    // the ALLOWED atom renames both of its positions (R2 × 2).
    let want = vec![
        (RewriteRule::R3PrenexPullup, 3),
        (RewriteRule::R1LeadingBlock, 2),
        (RewriteRule::R4ForallPushdown, 1),
        (RewriteRule::R2JoinRename, 2),
    ];
    assert_eq!(got, want, "equi-join golden trace");
}

#[test]
fn disabled_telemetry_attaches_no_trace() {
    let mut ck = Checker::new(customer_db(), CheckerOptions::default());
    for (name, f) in battery() {
        let report = ck.check(&f).unwrap();
        assert!(report.metrics.is_none(), "{name}: no trace when disabled");
    }
}

#[test]
fn run_bdd_block_sums_the_traces_and_json_validates() {
    let mut ck = telemetry_checker();
    let before = ck.logical_db().manager().stats();
    let reports = ck.check_all(&battery()).unwrap();
    let after = ck.logical_db().manager().stats();
    let run = RunBdd::between(&before, &after);
    // Every manager operation of the batch happens inside some check, so
    // the run's delta is exactly the sum of the per-check trace deltas.
    let mut sum = StatsDelta::default();
    for (name, r) in &reports {
        sum += r.metrics.as_ref().unwrap().bdd;
        assert_conservation(&r.metrics.as_ref().unwrap().bdd, name);
    }
    assert_eq!(run.delta, sum);
    assert_conservation(&run.delta, "run");
    assert!(run.delta.created_nodes > 0, "the battery built indices");
    assert_eq!(
        (run.peak_nodes, run.depth_hwm),
        (after.peak_nodes, after.depth_hwm)
    );
    // The emitted JSON survives its own validator (which re-checks the
    // per-kind conservation law from the text) and carries the marks.
    let doc = RunMetrics::from_reports(&reports, Some(run)).to_json();
    validate_metrics_json(&doc).unwrap();
    let parsed = relcheck_core::telemetry::parse_json(&doc).unwrap();
    let bdd = parsed.get("bdd").unwrap();
    assert_eq!(
        bdd.get("peak_nodes").unwrap().as_int(),
        Some(after.peak_nodes as i64)
    );
    assert_eq!(
        bdd.get("created_nodes").unwrap().as_int(),
        Some(run.delta.created_nodes as i64)
    );
}

#[test]
fn metrics_json_reflects_report_content() {
    let mut ck = telemetry_checker();
    let reports = ck.check_all(&battery()).unwrap();
    let doc = RunMetrics::from_reports(&reports, None).to_json();
    validate_metrics_json(&doc).unwrap();
    let parsed = relcheck_core::telemetry::parse_json(&doc).unwrap();
    let cs = parsed.get("constraints").unwrap().as_arr().unwrap();
    assert_eq!(cs.len(), reports.len());
    for (c, (name, report)) in cs.iter().zip(&reports) {
        assert_eq!(c.get("name").unwrap().as_str(), Some(name.as_str()));
        let method = c.get("method").unwrap().as_str().unwrap();
        let want = match report.method {
            Method::Bdd => "bdd",
            Method::SqlFallback => "sql_fallback",
            Method::BruteForce => "brute_force",
            Method::Aborted => "aborted",
        };
        assert_eq!(method, want, "{name}");
        let rules = c
            .get("trace")
            .unwrap()
            .get("rules")
            .unwrap()
            .as_arr()
            .unwrap();
        assert_eq!(
            rules.len(),
            report.metrics.as_ref().unwrap().rules.len(),
            "{name}: rule firings round-trip"
        );
    }
}

#[test]
fn node_limit_fallback_is_reported_in_the_trace() {
    let mut ck = Checker::new(
        customer_db(),
        CheckerOptions {
            node_limit: Some(18),
            telemetry: true,
            ..Default::default()
        },
    );
    let f = parse(r#"forall c, a, s. CUST(c, a, s) & c = "Newark" -> s = "NJ""#).unwrap();
    let report = ck.check(&f).unwrap();
    assert_eq!(report.method, Method::SqlFallback);
    let trace = report.metrics.unwrap();
    // The ladder records both BDD attempts (the GC-and-retry also busted
    // the budget) before the SQL rung decided the check.
    assert_eq!(trace.ladder, vec!["bdd", "gc_retry", "sql"]);
    match trace.fallback {
        Some(relcheck_core::telemetry::FallbackReason::RetryExhausted { limit, live }) => {
            assert_eq!(limit, 18);
            assert!(live >= limit, "the abort fired at or past the budget");
        }
        other => panic!("expected a retry-exhausted fallback reason, got {other:?}"),
    }
}

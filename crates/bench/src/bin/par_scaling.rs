//! Parallel constraint-checking scaling: serial vs 1/2/4/8 workers.
//!
//! Runs the customer-workload constraint battery end to end (index
//! construction + identification of violated constraints) through the
//! serial [`Checker::check_all`] and through
//! [`Checker::check_all_parallel`] at increasing worker counts: a
//! coordinator builds each index once and ships it to the workers as a
//! manager-independent snapshot.
//!
//! Besides the human-readable table, the binary emits one machine-readable
//! JSON line (prefix `PAR_SCALING_JSON`) with the median timings and the
//! speedup at 4 workers, for CI trend tracking.
//!
//! Speedup is bounded by the machine: on a single-core host every "worker"
//! shares one CPU, so the parallel engine can only break even (the run
//! reports the honest number rather than a synthetic one). Verdict
//! equality with the serial pass is asserted on every configuration.
//!
//! The run also measures the cost of the telemetry switch itself: the
//! serial battery is re-timed with `CheckerOptions::telemetry` on, the
//! overhead is printed honestly, and a generous noise bound (1.5× plus a
//! 25 ms absolute allowance) is asserted — disabled-mode counters are
//! plain integers, so the two configurations should be indistinguishable
//! up to timing noise.
//!
//! Flags: `--rows N` (customer rows, default 100000), `--samples N`
//! (timed repetitions per configuration, default 3), `--metrics PATH`
//! (write the metrics JSON of a 4-worker telemetry run,
//! the same document `relcheck run --metrics` emits).

use relcheck_bench::{arg_str, arg_usize, ms, Table};
use relcheck_core::checker::{Checker, CheckerOptions};
use relcheck_core::telemetry::{validate_metrics_json, RunMetrics};
use relcheck_datagen::customer::{generate, CustomerConfig};
use relcheck_logic::{parse, Formula};
use relcheck_relstore::{Database, Relation, Schema};
use std::time::{Duration, Instant};

fn build_db(rows: usize) -> Database {
    let data = generate(&CustomerConfig {
        rows,
        dom_sizes: [100, 889, 2000, 40, 3000],
        violation_rate: 0.001,
        seed: 11,
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

fn constraints() -> Vec<(String, Formula)> {
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
    ]
    .into_iter()
    .map(|(n, s)| (n.to_owned(), parse(s).unwrap()))
    .collect()
}

/// Median of `samples` timed runs of `f`.
fn median_time(samples: usize, mut f: impl FnMut()) -> Duration {
    let mut times: Vec<Duration> = (0..samples)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed()
        })
        .collect();
    times.sort_unstable();
    times[times.len() / 2]
}

fn main() {
    let rows = arg_usize("--rows", 100_000);
    let samples = arg_usize("--samples", 3).max(1);
    let db = build_db(rows);
    let battery = constraints();
    println!(
        "Parallel scaling: {} constraints over {} customer rows ({samples} samples/config, median)\n",
        battery.len(),
        rows
    );

    let mut serial_verdicts: Vec<(String, bool)> = Vec::new();
    let t_serial = median_time(samples, || {
        let mut ck = Checker::new(db.clone(), CheckerOptions::default());
        let reports = ck.check_all(&battery).unwrap();
        serial_verdicts = reports.into_iter().map(|(n, r)| (n, r.holds)).collect();
    });

    let worker_counts = [1usize, 2, 4, 8];
    let mut t = Table::new(&["configuration", "time (ms)", "speedup vs serial"]);
    t.row(&["serial".to_owned(), ms(t_serial), "1.00".to_owned()]);
    let mut snapshot_ms = Vec::new();
    for &workers in &worker_counts {
        let mut verdicts: Vec<(String, bool)> = Vec::new();
        let elapsed = median_time(samples, || {
            let mut ck = Checker::new(db.clone(), CheckerOptions::default());
            let reports = ck.check_all_parallel(&battery, workers).unwrap();
            verdicts = reports.into_iter().map(|(n, r)| (n, r.holds)).collect();
        });
        assert_eq!(
            verdicts, serial_verdicts,
            "parallel run must match serial verdicts"
        );
        t.row(&[
            format!("{workers} workers"),
            ms(elapsed),
            format!("{:.2}", t_serial.as_secs_f64() / elapsed.as_secs_f64()),
        ]);
        snapshot_ms.push(elapsed.as_secs_f64() * 1e3);
    }
    t.print();

    let speedup4 = t_serial.as_secs_f64() * 1e3 / snapshot_ms[2];
    println!(
        "\nPAR_SCALING_JSON {{\"rows\":{rows},\"constraints\":{},\"serial_ms\":{:.1},\
         \"snapshot_ms\":{{\"1\":{:.1},\"2\":{:.1},\"4\":{:.1},\"8\":{:.1}}},\
         \"speedup4\":{speedup4:.2}}}",
        battery.len(),
        t_serial.as_secs_f64() * 1e3,
        snapshot_ms[0],
        snapshot_ms[1],
        snapshot_ms[2],
        snapshot_ms[3],
    );
    println!(
        "\nNote: wall-clock speedup tops out at the number of physical cores; on a\n\
         single-core host the parallel engine can only break even, and the verdict-\n\
         equality assertion (not the speedup) is the correctness signal."
    );

    // Telemetry-switch overhead: the same serial battery with per-check
    // traces captured. Counters tick unconditionally either way; the
    // switch only adds clock reads and trace allocation, so the medians
    // should agree up to timing noise.
    let telemetry_opts = CheckerOptions {
        telemetry: true,
        ..Default::default()
    };
    let t_telemetry = median_time(samples, || {
        let mut ck = Checker::new(db.clone(), telemetry_opts);
        let reports = ck.check_all(&battery).unwrap();
        assert!(reports.iter().all(|(_, r)| r.metrics.is_some()));
    });
    println!(
        "\nTelemetry overhead (serial battery): off {} ms, on {} ms ({:+.1}%)",
        ms(t_serial),
        ms(t_telemetry),
        (t_telemetry.as_secs_f64() / t_serial.as_secs_f64() - 1.0) * 100.0
    );
    assert!(
        t_telemetry <= t_serial.mul_f64(1.5) + Duration::from_millis(25),
        "telemetry overhead beyond noise bounds: on={t_telemetry:?} off={t_serial:?}"
    );

    // Optional: emit the machine-readable metrics document of a 4-worker
    // telemetry run — the same schema `relcheck run --metrics` writes.
    if let Some(path) = arg_str("--metrics") {
        let mut ck = Checker::new(db.clone(), telemetry_opts);
        let (reports, fleet) = ck.check_all_parallel_telemetry(&battery, 4).unwrap();
        let doc = RunMetrics::from_reports(&reports, Some(fleet), 4).to_json();
        validate_metrics_json(&doc).expect("emitted metrics must be schema-valid");
        std::fs::write(&path, doc).expect("write metrics file");
        println!("metrics written to {path}");
    }
}

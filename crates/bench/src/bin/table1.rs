//! Table 1 — variable-ordering gain on end-to-end constraint checking.
//!
//! For Q1–Q5 (see `relcheck_bench::queries`), compare:
//!
//! * **SQL** — the translated relational plan (paper's baseline);
//! * **BDD: random** — logical indices built under a random attribute
//!   ordering;
//! * **BDD: optimized** — indices built with `Prob-Converge`;
//! * **BDD: no rewrites** — the optimized ordering with the planner's
//!   rewrite pipeline switched off (`PlanOptions { rewrites: false, .. }`),
//!   the paper's "straight-forward evaluation" ablation.
//!
//! Index construction is done up-front (indices are persistent); the table
//! reports per-query checking time, as in the paper. Each BDD cell starts
//! cold: the atom cache is shed and the manager collected (which also
//! empties its operation cache) before the cell's check, so no query
//! reuses the memo of the queries before it. Expected shape:
//! random ordering gains up to ~2x over SQL; the optimized ordering pushes
//! the overall gain to 4–6x.
//!
//! Flags: `--tuples N` (default 100000), `--metrics PATH` (write the
//! metrics JSON of a telemetry-enabled `check_all` over Q1–Q5 under the
//! optimized ordering — the same document `relcheck run --metrics`
//! emits). With `--metrics` the binary also times that battery, index
//! builds included, with telemetry off and on (median of
//! `OVERHEAD_SAMPLES` interleaved runs each), prints the overhead and
//! asserts it stays within 1.5× plus 25 ms: the counters tick either way,
//! and the switch only adds clock reads and trace allocation.

use relcheck_bench::{arg_str, arg_usize, ms, queries, timed, Table};
use relcheck_core::checker::{Checker, CheckerOptions, Method};
use relcheck_core::ordering::OrderingStrategy;
use relcheck_core::telemetry::{validate_metrics_json, RunBdd, RunMetrics};
use relcheck_core::PlanOptions;
use std::time::Duration;

/// Timed runs per telemetry setting in the `--metrics` overhead check.
const OVERHEAD_SAMPLES: usize = 5;

fn main() {
    let tuples = arg_usize("--tuples", 100_000);
    println!("Table 1: SQL vs BDD(random ordering) vs BDD(Prob-Converge), {tuples} tuples\n");
    let qs = queries::queries();
    let mut rows: Vec<Vec<String>> = vec![
        vec!["SQL".to_owned()],
        vec!["BDD: random".to_owned()],
        vec!["BDD: optimized".to_owned()],
        vec!["BDD: no rewrites".to_owned()],
        vec!["index sizes (nodes)".to_owned()],
    ];
    // SQL baseline.
    {
        let mut ck = Checker::new(queries::build(tuples, 77), CheckerOptions::default());
        for (_, q) in &qs {
            let (r, t) = timed(|| ck.check_sql(q).unwrap());
            assert_ne!(r.method, Method::Bdd);
            rows[0].push(ms(t));
        }
    }
    // BDD paths: the two orderings, plus a rewrite-ablation row (the
    // optimized ordering with the pass pipeline switched off — the
    // "straight-forward evaluation" the paper improves upon).
    for (row_idx, strategy, plan) in [
        (1, OrderingStrategy::Random(3), PlanOptions::default()),
        (2, OrderingStrategy::ProbConverge, PlanOptions::default()),
        (
            3,
            OrderingStrategy::ProbConverge,
            PlanOptions {
                rewrites: false,
                join_rename: true,
            },
        ),
    ] {
        let opts = CheckerOptions {
            ordering: strategy,
            plan,
            ..Default::default()
        };
        let mut ck = Checker::new(queries::build(tuples, 77), opts);
        // Pre-build indices (they are the persistent logical index).
        for rel in ["R1", "R2", "STUDENT", "COURSE", "TAKES"] {
            ck.ensure_index(rel).unwrap();
        }
        let mut sizes = String::new();
        for (name, q) in &qs {
            let ldb = ck.logical_db_mut();
            ldb.shed_atom_cache();
            ldb.gc();
            let (r, t) = timed(|| ck.check(q).unwrap());
            let cell = if r.method == Method::Bdd {
                ms(t)
            } else {
                format!("{} (fallback)", ms(t))
            };
            rows[row_idx].push(cell);
            let _ = name;
        }
        sizes.push_str(&ck.logical_db().index_size().to_string());
        if row_idx == 1 {
            rows[4].push(format!("random: {sizes}"));
        } else if row_idx == 2 {
            rows[4].push(format!("optimized: {sizes}"));
        }
        while rows[4].len() < qs.len() + 1 {
            rows[4].push(String::new());
        }
    }
    let mut t = Table::new(&["Approach", "Q1", "Q2", "Q3", "Q4", "Q5"]);
    for row in rows.iter().take(4) {
        t.row(row);
    }
    t.print();
    println!("\n(time in milliseconds)");
    println!("{}", rows[4].join("  "));
    println!(
        "\nPaper expectation (Table 1): SQL slowest; BDD with random ordering ~2x faster;\n\
         BDD with the Prob-Converge ordering 4-6x faster than SQL. Index under random\n\
         ordering is up to ~5x larger than under the optimized ordering."
    );

    // Optional: the telemetry-overhead check, then the machine-readable
    // metrics of a telemetry-enabled pass under the optimized ordering
    // (same schema as `relcheck run --metrics`).
    if let Some(path) = arg_str("--metrics") {
        let db = queries::build(tuples, 77);
        let battery: Vec<(String, relcheck_logic::Formula)> = qs
            .iter()
            .map(|(n, q)| ((*n).to_owned(), q.clone()))
            .collect();
        let run = |telemetry: bool| {
            let opts = CheckerOptions {
                ordering: OrderingStrategy::ProbConverge,
                telemetry,
                ..Default::default()
            };
            let mut ck = Checker::new(db.clone(), opts);
            let before = ck.logical_db().manager().stats();
            let (reports, t) = timed(|| ck.check_all(&battery).unwrap());
            let bdd = RunBdd::between(&before, &ck.logical_db().manager().stats());
            assert!(reports
                .iter()
                .all(|(_, r)| r.metrics.is_some() == telemetry));
            (reports, bdd, t)
        };
        let (mut off, mut on) = (Vec::new(), Vec::new());
        let mut last = None;
        for _ in 0..OVERHEAD_SAMPLES {
            off.push(run(false).2);
            let (reports, bdd, t) = run(true);
            on.push(t);
            last = Some((reports, bdd));
        }
        let (t_off, t_on) = (median(off), median(on));
        println!(
            "\nTelemetry overhead (Q1-Q5 from a fresh checker, median of {OVERHEAD_SAMPLES}): \
             off {} ms, on {} ms ({:+.1}%)",
            ms(t_off),
            ms(t_on),
            (t_on.as_secs_f64() / t_off.as_secs_f64() - 1.0) * 100.0
        );
        assert!(
            t_on <= t_off.mul_f64(1.5) + Duration::from_millis(25),
            "telemetry overhead beyond noise bounds: on={t_on:?} off={t_off:?}"
        );
        let (reports, bdd) = last.expect("at least one sample");
        let doc = RunMetrics::from_reports(&reports, Some(bdd)).to_json();
        validate_metrics_json(&doc).expect("emitted metrics must be schema-valid");
        std::fs::write(&path, doc).expect("write metrics file");
        println!("\nmetrics written to {path}");
    }
}

/// The median of a set of timings.
fn median(mut times: Vec<Duration>) -> Duration {
    times.sort_unstable();
    times[times.len() / 2]
}

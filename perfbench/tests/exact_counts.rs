//! The counts a traced run prints as exact — per-op BDD op counts and
//! nodes created, the ladder rung of each constraint, journal bytes —
//! must repeat exactly across runs with the same seed, and every op must
//! pass its correctness check. Small inputs and a fixed op count keep
//! this fast.

use relcheck_perfbench::{run, Config, Workload};
use std::path::PathBuf;

fn exact_counts(workload: Workload, attempt: u32) -> Vec<(String, String)> {
    let work_dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("exact-{}-{attempt}", workload.name()));
    let ctx = run(Config {
        workload,
        seed: 7,
        seconds: 0.0,
        trace: true,
        ref_nominal_ms: 0.6,
        io_ref_nominal_ms: 0.2,
        max_ops: Some(if workload == Workload::Serve { 30 } else { 8 }),
        small: true,
        work_dir: work_dir.clone(),
    })
    .unwrap_or_else(|f| panic!("{} run failed: {}", workload.name(), f.msg));
    let _ = std::fs::remove_dir_all(&work_dir);
    assert_eq!(ctx.out.failed, 0, "{}: failed ops", workload.name());
    assert!(ctx.out.attempted > 0);
    ctx.out.exact
}

fn repeats(workload: Workload, min_entries: usize) {
    let first = exact_counts(workload, 1);
    let second = exact_counts(workload, 2);
    assert!(
        first.len() >= min_entries,
        "{}: expected at least {min_entries} exact counts, got {first:?}",
        workload.name()
    );
    assert_eq!(first, second, "{}: exact counts moved", workload.name());
}

#[test]
fn batch_counts_repeat() {
    // Three ops' BDD counts plus one rung per constraint.
    repeats(Workload::Batch, 3 + 5);
}

#[test]
fn table1_counts_repeat() {
    repeats(Workload::Table1, 3 + 5);
}

#[test]
fn fallback_counts_repeat() {
    repeats(Workload::Fallback, 3 + 5);
}

#[test]
fn serve_counts_repeat() {
    // Three checks' BDD counts plus the journal size after 27 requests.
    repeats(Workload::Serve, 3 + 1);
}

//! Parallel constraint checking with per-worker BDD managers.
//!
//! The serial [`Checker`] funnels every constraint through one shared
//! [`relcheck_bdd::BddManager`]. That keeps index sharing trivial but leaves
//! multi-core machines idle: hash-consing makes the manager inherently
//! single-writer, so BDD work cannot be parallelized *within* one manager
//! without locking every node allocation. This module takes the other
//! route, the one the paper's per-constraint independence invites: give
//! each worker thread its **own** manager and its own clone of the
//! dictionary-encoded [`Database`], partition the constraint set between
//! workers by the relations each constraint reads, and merge the reports
//! back into input order.
//!
//! The logical indices travel as snapshots: the coordinator
//! ([`Checker::check_all_parallel`]) builds each referenced index once and
//! ships it to the workers as a manager-independent [`IndexSnapshot`]
//! (the [`relcheck_bdd::ExportedRelation`] form), so tuple construction
//! runs once per relation no matter how many lanes read it.
//!
//! Every lane keeps the paper's full evaluation strategy independently: a
//! node-budget abort in one worker garbage-collects and falls back to SQL
//! *in that lane only*, without poisoning any other worker's manager.
//! Verdicts (`holds`) are identical to the serial path. `method` can
//! legitimately differ right at the node-budget edge: a per-worker manager
//! holds only its batch's indices, so a constraint that busts a *shared*
//! manager's budget may fit in a dedicated one (and vice versa is
//! impossible — a worker never holds more live nodes than the serial
//! checker at the same point). Timing fields (`elapsed`, `live_nodes`)
//! describe the lane that ran the check.
//!
//! Only `std::thread` is used — scoped threads, no external runtime.

use crate::checker::{panic_message, CheckReport, Checker, CheckerOptions};
use crate::error::{CoreError, Result};
use crate::index::IndexSnapshot;
use crate::telemetry::{FleetTelemetry, WorkerTelemetry};
use relcheck_bdd::{failpoint, BddError, StatsDelta};
use relcheck_logic::Formula;
use relcheck_relstore::Database;
use std::collections::HashSet;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// The read-set signature of a constraint: the relations its formula
/// references, sorted and deduplicated. This is the exact signature the
/// lane partitioner groups by, exported so other layers (the registry's
/// dependency tracking, the serve engine's dirty-set intersection) make
/// the same skip/recheck decisions the parallel scheduler makes.
pub fn read_set(f: &Formula) -> Vec<String> {
    let mut sig = Checker::referenced_relations(f);
    sig.sort_unstable();
    sig
}

/// Partition constraint indices `0..constraints.len()` into at most
/// `threads` batches. Constraints with the same read-set signature (the
/// sorted list of relations they reference) are grouped so a worker can
/// serve a whole group from one set of indices; groups larger than
/// `⌈n/threads⌉` are split so one hot signature cannot serialize the run.
/// Chunks go largest-first to the least-loaded batch (ties to the lowest
/// batch), which is deterministic; each batch is returned sorted so a
/// worker executes its lane in input order.
pub(crate) fn partition(constraints: &[(String, Formula)], threads: usize) -> Vec<Vec<usize>> {
    let n = constraints.len();
    if n == 0 {
        return Vec::new();
    }
    let threads = threads.clamp(1, n);
    // Group by read-set signature, in order of first occurrence.
    let mut groups: Vec<(Vec<String>, Vec<usize>)> = Vec::new();
    for (i, (_, f)) in constraints.iter().enumerate() {
        let sig = read_set(f);
        match groups.iter_mut().find(|(s, _)| *s == sig) {
            Some((_, members)) => members.push(i),
            None => groups.push((sig, vec![i])),
        }
    }
    let cap = n.div_ceil(threads);
    let mut chunks: Vec<Vec<usize>> = Vec::new();
    for (_, members) in groups {
        for c in members.chunks(cap) {
            chunks.push(c.to_vec());
        }
    }
    // Greedy bin-packing: biggest chunks first, ties broken by the chunk's
    // first constraint index so the result is independent of HashMap-style
    // iteration order anywhere upstream.
    chunks.sort_by(|a, b| b.len().cmp(&a.len()).then(a[0].cmp(&b[0])));
    let mut batches: Vec<Vec<usize>> = vec![Vec::new(); threads];
    for chunk in chunks {
        let target = (0..threads)
            .min_by_key(|&t| (batches[t].len(), t))
            .expect("threads >= 1");
        batches[target].extend(chunk);
    }
    batches.retain(|b| !b.is_empty());
    for b in &mut batches {
        b.sort_unstable();
    }
    batches
}

/// What one worker lane hands back: the completed reports (tagged with
/// their constraint index), the lane's BDD-work totals, and the first
/// error, if any, tagged likewise.
struct LaneResult {
    reports: Vec<(usize, CheckReport)>,
    /// All BDD work in the lane's private manager, imports included.
    bdd: StatsDelta,
    peak_nodes: usize,
    depth_hwm: u32,
    err: Option<(usize, CoreError)>,
}

/// One worker lane: a private checker over a database clone, seeded with
/// the coordinator's SQL-only set and any snapshots its batch reads.
/// Returns the completed reports plus the first error (tagged with its
/// constraint index) if one occurred.
fn run_batch(
    db: &Database,
    opts: CheckerOptions,
    sql_only: &HashSet<String>,
    snapshots: &[IndexSnapshot],
    constraints: &[(String, Formula)],
    batch: &[usize],
    lane: usize,
) -> LaneResult {
    // Fault-injection site: simulate a lane whose thread dies on arrival.
    // The panic unwinds into the catch in `run`, which turns the whole
    // batch into `Errored` reports without touching any other lane.
    if failpoint::enabled() && failpoint::should_fail(failpoint::LANE_SPAWN, lane as u64) {
        panic!(
            "injected fault at failpoint site '{}' (lane {lane})",
            failpoint::LANE_SPAWN
        );
    }
    let mut ck = Checker::new(db.clone(), opts);
    // Baseline before imports, so the lane's delta owns its index-transfer
    // work and fleet totals stay an honest sum of everything done.
    let baseline = ck.logical_db().manager().stats();
    let lane_result = |ck: &Checker, reports, err| {
        let after = ck.logical_db().manager().stats();
        LaneResult {
            reports,
            bdd: after.delta_since(&baseline),
            peak_nodes: after.peak_nodes,
            depth_hwm: after.depth_hwm,
            err,
        }
    };
    for name in sql_only {
        ck.mark_sql_only(name);
    }
    // Adopt only the snapshots this lane actually reads — importing the
    // rest would waste node budget on indices the batch never touches.
    let needed: HashSet<String> = batch
        .iter()
        .flat_map(|&i| Checker::referenced_relations(&constraints[i].1))
        .collect();
    for snap in snapshots {
        if !needed.contains(&snap.relation) {
            continue;
        }
        if let Err(e) = ck.logical_db_mut().import_index(snap) {
            match e {
                // Mirror `ensure_index`: a budget abort — node limit,
                // deadline, or injected decode fault — makes the relation
                // SQL-only for this lane instead of failing the run.
                CoreError::Bdd(
                    BddError::NodeLimit { .. }
                    | BddError::Deadline { .. }
                    | BddError::FaultInjected { .. },
                ) => {
                    ck.logical_db_mut().gc();
                    ck.mark_sql_only(&snap.relation);
                }
                other => return lane_result(&ck, Vec::new(), Some((batch[0], other))),
            }
        }
    }
    let mut out = Vec::with_capacity(batch.len());
    for &i in batch {
        // Same panic guard as the serial `check_all`: one exploding
        // constraint yields an `Errored` report, the rest of the batch
        // still runs on the same lane checker.
        match ck.check_guarded(&constraints[i].1) {
            Ok(report) => out.push((i, report)),
            Err(e) => return lane_result(&ck, out, Some((i, e))),
        }
    }
    lane_result(&ck, out, None)
}

/// Fan a constraint set out over scoped worker threads and merge the
/// reports back into input order.
///
/// Failure semantics (deterministic in both dimensions):
///
/// * A **panicking** lane — its thread died, or the `lane-spawn`
///   failpoint fired — is absorbed: every constraint of that batch gets a
///   [`crate::checker::Verdict::Errored`] report carrying the panic
///   payload, and every other lane completes untouched.
/// * A **typed error** (a constraint with free variables, a corrupt
///   snapshot) still fails the run, and the error attached to the smallest constraint index
///   wins across all lanes — the same error a serial pass would have hit
///   first.
pub(crate) fn run(
    db: &Database,
    opts: CheckerOptions,
    sql_only: &HashSet<String>,
    snapshots: &[IndexSnapshot],
    constraints: &[(String, Formula)],
    threads: usize,
) -> Result<(Vec<(String, CheckReport)>, FleetTelemetry)> {
    let batches = partition(constraints, threads);
    let results: Vec<std::result::Result<LaneResult, String>> = std::thread::scope(|s| {
        let handles: Vec<_> = batches
            .iter()
            .enumerate()
            .map(|(lane, batch)| {
                s.spawn(move || {
                    catch_unwind(AssertUnwindSafe(|| {
                        run_batch(db, opts, sql_only, snapshots, constraints, batch, lane)
                    }))
                    .map_err(panic_message)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|p| Err(panic_message(p))))
            .collect()
    });
    let mut merged: Vec<Option<CheckReport>> = vec![None; constraints.len()];
    let mut first_err: Option<(usize, CoreError)> = None;
    let mut workers = Vec::with_capacity(results.len());
    for (lane, result) in results.into_iter().enumerate() {
        let result = match result {
            Ok(r) => r,
            Err(payload) => {
                // Poisoned lane: synthesize `Errored` reports for its whole
                // batch. The lane did no attributable BDD work we can
                // still read, so its telemetry counters stay zero and the
                // fleet totals remain an honest per-worker sum.
                for &i in &batches[lane] {
                    merged[i] = Some(CheckReport::errored(payload.clone(), opts.telemetry));
                }
                workers.push(WorkerTelemetry {
                    worker: lane,
                    constraints: batches[lane].clone(),
                    bdd: StatsDelta::default(),
                    peak_nodes: 0,
                    depth_hwm: 0,
                });
                continue;
            }
        };
        for (i, r) in result.reports {
            merged[i] = Some(r);
        }
        if let Some((at, e)) = result.err {
            if first_err.as_ref().is_none_or(|(best, _)| at < *best) {
                first_err = Some((at, e));
            }
        }
        // Lanes come back in batch order (the spawn order), so worker
        // numbering is deterministic regardless of thread scheduling.
        workers.push(WorkerTelemetry {
            worker: lane,
            constraints: batches[lane].clone(),
            bdd: result.bdd,
            peak_nodes: result.peak_nodes,
            depth_hwm: result.depth_hwm,
        });
    }
    if let Some((_, e)) = first_err {
        return Err(e);
    }
    let reports = constraints
        .iter()
        .zip(merged)
        .map(|((name, _), r)| {
            // Every constraint is assigned to exactly one batch, and every
            // lane outcome above fills its batch; a gap would be a
            // partition bug — degrade to an Errored report, never panic.
            let r = r.unwrap_or_else(|| {
                CheckReport::errored(
                    "internal: constraint missing from every lane's reports".to_owned(),
                    opts.telemetry,
                )
            });
            (name.clone(), r)
        })
        .collect();
    Ok((reports, FleetTelemetry::from_workers(workers)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use relcheck_logic::parse;
    use relcheck_relstore::Raw;

    fn named(pairs: &[(&str, &str)]) -> Vec<(String, Formula)> {
        pairs
            .iter()
            .map(|(n, f)| (n.to_string(), parse(f).unwrap()))
            .collect()
    }

    #[test]
    fn partition_covers_each_constraint_once() {
        let cs = named(&[
            ("a", "exists x. R(x)"),
            ("b", "exists x. S(x)"),
            ("c", "forall x. R(x) -> S(x)"),
            ("d", "exists x. R(x)"),
            ("e", "exists x. T(x)"),
        ]);
        for threads in 1..=8 {
            let batches = partition(&cs, threads);
            assert!(batches.len() <= threads.min(cs.len()));
            let mut all: Vec<usize> = batches.iter().flatten().copied().collect();
            all.sort_unstable();
            assert_eq!(all, vec![0, 1, 2, 3, 4], "threads={threads}");
            for b in &batches {
                assert!(b.windows(2).all(|w| w[0] < w[1]), "batches stay sorted");
            }
        }
    }

    #[test]
    fn partition_groups_shared_read_sets() {
        // a and d read exactly {R}; with two lanes they should ride
        // together so one worker serves both from one index.
        let cs = named(&[
            ("a", "exists x. R(x)"),
            ("b", "exists x. S(x)"),
            ("c", "exists x. T(x)"),
            ("d", "forall x. R(x) -> R(x)"),
        ]);
        let batches = partition(&cs, 2);
        let lane_of = |i: usize| batches.iter().position(|b| b.contains(&i)).unwrap();
        assert_eq!(lane_of(0), lane_of(3), "same signature, same lane");
    }

    #[test]
    fn partition_splits_oversized_groups() {
        // Every constraint reads {R}: one signature, but four lanes should
        // still all get work.
        let cs: Vec<(String, Formula)> = (0..8)
            .map(|i| (format!("c{i}"), parse("exists x. R(x)").unwrap()))
            .collect();
        let batches = partition(&cs, 4);
        assert_eq!(batches.len(), 4);
        assert!(batches.iter().all(|b| b.len() == 2));
    }

    #[test]
    fn partition_is_deterministic() {
        let cs = named(&[
            ("a", "exists x. R(x)"),
            ("b", "exists x. S(x)"),
            ("c", "forall x. R(x) -> S(x)"),
            ("d", "exists x. T(x)"),
            ("e", "exists x. R(x)"),
            ("f", "exists x. S(x)"),
        ]);
        let first = partition(&cs, 3);
        for _ in 0..10 {
            assert_eq!(partition(&cs, 3), first);
        }
    }

    #[test]
    fn parallel_matches_serial_on_a_small_database() {
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
                vec![Raw::str("Oshawa"), Raw::Int(905), Raw::str("ON")],
                vec![Raw::str("Newark"), Raw::Int(973), Raw::str("NJ")],
                vec![Raw::str("Newark"), Raw::Int(212), Raw::str("NY")],
            ],
        )
        .unwrap();
        let cs = named(&[
            (
                "holds",
                r#"forall c, a, s. CUST(c, a, s) & c = "Toronto" -> s = "ON""#,
            ),
            (
                "breaks",
                r#"forall c, a, s. CUST(c, a, s) & c = "Newark" -> s = "NJ""#,
            ),
            ("nonempty", r#"exists c, a, s. CUST(c, a, s)"#),
        ]);
        let mut serial = Checker::new(db.clone(), CheckerOptions::default());
        let want = serial.check_all(&cs).unwrap();
        for threads in [1usize, 2, 3, 8] {
            let mut ck = Checker::new(db.clone(), CheckerOptions::default());
            let got = ck.check_all_parallel(&cs, threads).unwrap();
            assert_eq!(got.len(), want.len());
            for ((wn, wr), (gn, gr)) in want.iter().zip(&got) {
                assert_eq!(wn, gn, "order preserved");
                assert_eq!(wr.holds, gr.holds, "{wn} with {threads} threads");
                assert_eq!(wr.method, gr.method, "{wn} with {threads} threads");
            }
        }
    }

    #[test]
    fn empty_constraint_set_is_fine() {
        let mut ck = Checker::new(Database::new(), CheckerOptions::default());
        assert!(ck.check_all_parallel(&[], 4).unwrap().is_empty());
        assert!(partition(&[], 4).is_empty());
    }
}

//! The four workloads and the counters they share.

pub mod batch;
pub mod checks;
pub mod serve;

use crate::data::Battery;
use crate::trace::Tracer;
use crate::Failure;
use relcheck::bdd::{ManagerStats, OpKind};
use relcheck::core_::{Checker, CheckerOptions, Method};
use relcheck::relstore::Database;

/// Main ops whose BDD counts are printed as exact counts.
pub const EXACT_OPS: usize = 3;

/// BDD work of one op, from two manager snapshots. Returns the exact-count
/// rendering and records the per-layer counters when tracing.
pub fn bdd_counts(tr: &mut Tracer, before: &ManagerStats, after: &ManagerStats) -> String {
    let d = after.delta_since(before);
    let calls = |kinds: &[OpKind]| -> u64 { kinds.iter().map(|k| d.ops[k.index()].calls).sum() };
    let apply = calls(&[
        OpKind::Apply,
        OpKind::Not,
        OpKind::Ite,
        OpKind::Restrict,
        OpKind::Constrain,
    ]);
    let quant = calls(&[
        OpKind::Exists,
        OpKind::Forall,
        OpKind::AppExists,
        OpKind::AppForall,
    ]);
    let replace = calls(&[OpKind::Replace]);
    let lookups = d.cache_hits + d.cache_misses;
    tr.count("bdd.apply_calls", apply as f64);
    tr.count("bdd.quant_calls", quant as f64);
    tr.count("bdd.replace_calls", replace as f64);
    tr.count("bdd.nodes_created", d.created_nodes as f64);
    if lookups > 0 {
        tr.count("bdd.cache_hit_rate", d.cache_hits as f64 / lookups as f64);
    }
    format!(
        "apply={apply} quant={quant} replace={replace} created={} cache_hits={} cache_misses={}",
        d.created_nodes, d.cache_hits, d.cache_misses
    )
}

/// Shared-subgraph atom-cache hit rate between two `(hits, misses)`
/// snapshots, recorded as a per-op counter.
pub fn atom_counts(tr: &mut Tracer, before: (u64, u64), after: (u64, u64)) {
    let hits = after.0 - before.0;
    let lookups = hits + after.1 - before.1;
    if lookups > 0 {
        tr.count("index.atom_cache_hit_rate", hits as f64 / lookups as f64);
    }
}

/// The independent reference: each constraint decided by the SQL path
/// (`Checker::check_sql`) on a checker that never builds an index.
pub fn sql_reference(db: &Database, battery: &Battery) -> Result<Vec<bool>, Failure> {
    let mut ck = Checker::new(db.clone(), CheckerOptions::default());
    battery
        .iter()
        .map(|(_, f)| {
            let r = ck.check_sql(f).map_err(Failure::error)?;
            if !r.verdict.is_decided() {
                return Err(Failure::error("SQL reference undecided"));
            }
            Ok(r.holds)
        })
        .collect()
}

/// Ladder rung name of a report's method.
pub fn rung(m: Method) -> &'static str {
    match m {
        Method::Bdd => "bdd",
        Method::SqlFallback => "sql",
        Method::BruteForce => "brute-force",
        Method::Aborted => "aborted",
    }
}

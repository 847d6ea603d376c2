//! End-to-end telemetry: per-constraint traces, the run's BDD totals, and
//! the stable metrics JSON schema.
//!
//! The paper's argument is that logical indices let the checker *decide*
//! where time goes — BDD vs SQL fallback, which rewrite rules fired, how
//! the ordering strategy shaped node counts. This module makes those
//! decisions observable:
//!
//! * [`CheckTrace`] — what one [`crate::checker::Checker::check`] call did:
//!   phase timings, rewrite-rule firings (R1–R4, in application order),
//!   index build-vs-reuse, the ladder rungs walked with the reason for
//!   leaving the BDD path, and the [`StatsDelta`] of BDD work. Every
//!   [`crate::checker::CheckReport`] carries one.
//! * [`RunBdd`] — the BDD work of a whole batch or session, read off the
//!   one shared manager before and after it.
//! * [`RunMetrics`] — the machine-readable report emitted by
//!   `relcheck run --metrics <path.json>` and the bench binaries. The
//!   schema is documented in `DESIGN.md` and validated by
//!   [`validate_metrics_json`] (used by `relcheck metrics-check` and the
//!   CI smoke step). Everything here is std-only: the writer and the
//!   parser are hand-rolled.
//!
//! Each flat counter block lists its fields once, in a `counters()` table
//! that both the writer and the validator read, and every closed
//! vocabulary (rungs, passes, rules, methods, verdicts, provenances,
//! fallback reasons) is defined once next to its producer.
//!
//! Overhead discipline: counters are plain integers maintained by
//! `relcheck-bdd` unconditionally, and a trace adds a few clock reads, two
//! counter snapshots and a handful of small allocations per check — cheap
//! enough that there is no switch to turn it off (DESIGN.md §5d).

use crate::checker::{rung, CheckReport, Method, Verdict};
use crate::planner::pass;
use relcheck_bdd::{ManagerStats, OpKind, OpStats, StatsDelta};
use std::time::Duration;

/// The metrics document's `schema_version`: the one version the writer
/// emits and the validator accepts.
const SCHEMA_VERSION: i64 = 13;

/// The rewrite rules of the paper's Section 4 pipeline, numbered as the
/// telemetry schema reports them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RewriteRule {
    /// R1 — leading-quantifier-block elimination (§4.1): the outer ∀/∃
    /// block is dropped and the check becomes an O(1) validity /
    /// satisfiability test. Count = number of binders stripped.
    R1LeadingBlock,
    /// R2 — rename-based equi-join (§4.2): a relation atom's columns are
    /// renamed into query domains instead of conjoining equality BDDs.
    /// One firing per atom, count = number of non-identity renames.
    R2JoinRename,
    /// R3 — quantifier pull-up / prenex conversion (§4.3, Equations 3–4).
    /// Count = length of the resulting quantifier prefix.
    R3PrenexPullup,
    /// R4 — universal push-down over conjunction (Rule 5): count = number
    /// of ∀ blocks actually distributed across a conjunction.
    R4ForallPushdown,
}

impl RewriteRule {
    /// Every rule, in paper order.
    pub(crate) const ALL: [RewriteRule; 4] = [
        RewriteRule::R1LeadingBlock,
        RewriteRule::R2JoinRename,
        RewriteRule::R3PrenexPullup,
        RewriteRule::R4ForallPushdown,
    ];

    /// Stable machine-readable name (`"R1"` … `"R4"`).
    pub fn name(self) -> &'static str {
        match self {
            RewriteRule::R1LeadingBlock => "R1",
            RewriteRule::R2JoinRename => "R2",
            RewriteRule::R3PrenexPullup => "R3",
            RewriteRule::R4ForallPushdown => "R4",
        }
    }
}

/// One rewrite-rule firing, recorded in application order. Only firings
/// with `count > 0` are recorded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RuleFiring {
    /// Which rule fired.
    pub rule: RewriteRule,
    /// Rule-specific magnitude (see [`RewriteRule`] variants).
    pub count: u64,
}

/// How a referenced relation's index was obtained for this check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IndexProvenance {
    /// Built during this check (first reference).
    Built,
    /// Already present in the manager; reused.
    Reused,
    /// Over the node budget (now or previously): permanently SQL-only.
    SqlOnly,
}

impl IndexProvenance {
    /// Every provenance.
    pub(crate) const ALL: [IndexProvenance; 3] = [
        IndexProvenance::Built,
        IndexProvenance::Reused,
        IndexProvenance::SqlOnly,
    ];

    /// Stable machine-readable name.
    pub fn name(self) -> &'static str {
        match self {
            IndexProvenance::Built => "built",
            IndexProvenance::Reused => "reused",
            IndexProvenance::SqlOnly => "sql_only",
        }
    }
}

/// Index provenance for one relation referenced by a check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IndexEvent {
    /// Relation name.
    pub relation: String,
    /// Build vs reuse vs budget-out.
    pub provenance: IndexProvenance,
}

/// Why the BDD path was not (or could not be) taken.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FallbackReason {
    /// BDD construction aborted on the live-node budget (the paper's
    /// size-threshold strategy).
    NodeLimit {
        /// The configured budget.
        limit: usize,
        /// Live nodes at the abort.
        live: usize,
    },
    /// A referenced relation is SQL-only (its index busted the budget).
    UnindexedRelation,
    /// The per-check wall-clock deadline expired mid-recursion
    /// ([`relcheck_bdd::BddError::Deadline`]).
    Deadline,
    /// The check was killed outright — a caught panic payload or an
    /// injected-fault description (`relcheck run --fail-spec`).
    Panic(String),
    /// The admission governor shed this request: under overload the serve
    /// engine enters the ladder at the SQL rung (still exact, just
    /// cheaper on memory) instead of building BDDs.
    Overload,
}

impl FallbackReason {
    /// One value of every variant (payloads empty), so the validator can
    /// walk the reason vocabulary.
    const VARIANTS: [FallbackReason; 5] = [
        FallbackReason::NodeLimit { limit: 0, live: 0 },
        FallbackReason::UnindexedRelation,
        FallbackReason::Deadline,
        FallbackReason::Panic(String::new()),
        FallbackReason::Overload,
    ];

    /// Stable machine-readable name (the schema's `reason` field).
    pub(crate) fn name(&self) -> &'static str {
        match self {
            FallbackReason::NodeLimit { .. } => "node_limit",
            FallbackReason::UnindexedRelation => "unindexed_relation",
            FallbackReason::Deadline => "deadline",
            FallbackReason::Panic(_) => "panic",
            FallbackReason::Overload => "overload",
        }
    }
}

/// Wall-clock phase breakdown of one check. The whole check, post-check
/// collection included, is the report's `elapsed`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseTimings {
    /// Ensuring every referenced index exists (build or reuse).
    pub index: Duration,
    /// Compile + decide (BDD path and/or SQL fallback).
    pub eval: Duration,
}

impl PhaseTimings {
    /// The `timings` block's fields, in schema order.
    fn counters(&self) -> [(&'static str, u64); 2] {
        [
            ("index_ns", nanos(self.index)),
            ("eval_ns", nanos(self.eval)),
        ]
    }
}

fn nanos(d: Duration) -> u64 {
    d.as_nanos() as u64
}

/// The counters of a `bdd` block, in schema order (the per-op entries
/// follow them, see [`op_counters`]).
fn delta_counters(d: &StatsDelta) -> [(&'static str, u64); 4] {
    [
        ("created_nodes", d.created_nodes),
        ("cache_hits", d.cache_hits),
        ("cache_misses", d.cache_misses),
        ("gc_runs", d.gc_runs),
    ]
}

/// The counters of one `ops` entry of a `bdd` block, in schema order.
fn op_counters(s: &OpStats) -> [(&'static str, u64); 3] {
    [
        ("calls", s.calls),
        ("cache_hits", s.cache_hits),
        ("cache_misses", s.cache_misses),
    ]
}

/// One planner pass, as recorded in a check trace: how often it fired and
/// how often its cost gate declined it. Mirrors
/// [`crate::plan::PassRecord`] minus the before/after formula snapshots
/// (those stay in the plan; the trace carries only the counters).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PassStat {
    /// Stable pass name (one of [`crate::planner::pass`]).
    pub pass: &'static str,
    /// The paper rewrite rule the pass implements, if any.
    pub rule: Option<RewriteRule>,
    /// How many times the pass's rewrite applied.
    pub fired: u64,
    /// How many candidate sites the cost gate declined.
    pub gated: u64,
}

/// Structured trace of one check: every
/// [`crate::checker::CheckReport::trace`] holds one. The report's
/// `method` and `elapsed` are not repeated here.
#[derive(Debug, Clone)]
pub struct CheckTrace {
    /// Rewrite-rule firings in application order (R3 prenex, R1 strip,
    /// R4 push-down, then R2 per compiled atom). Empty on the SQL path.
    pub rules: Vec<RuleFiring>,
    /// Planner passes run for this check, in pipeline order, with fired
    /// and cost-gate-declined counts. Empty when the BDD step was not
    /// planned (SQL-only relations, errored checks).
    pub passes: Vec<PassStat>,
    /// Per-relation index provenance, in reference order.
    pub index_events: Vec<IndexEvent>,
    /// Why the BDD path was abandoned, if it was.
    pub fallback: Option<FallbackReason>,
    /// Degradation-ladder rungs traversed, in order (one of
    /// [`crate::checker::rung`]; `errored` for a check killed by a panic).
    pub ladder: Vec<&'static str>,
    /// Phase timings.
    pub timings: PhaseTimings,
    /// BDD work performed by this check (monotone-counter delta).
    pub bdd: StatsDelta,
}

/// The BDD work of a whole run: the counter delta between two snapshots
/// of the run's manager, plus the manager's high-water marks at the end.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunBdd {
    /// Every counter's growth over the run, index builds included.
    pub delta: StatsDelta,
    /// The manager's arena high-water mark (live nodes plus free holes).
    pub peak_nodes: usize,
    /// The manager's recursion-depth high-water mark.
    pub depth_hwm: u32,
}

impl RunBdd {
    /// The work done between the `before` and `after` snapshots.
    pub fn between(before: &ManagerStats, after: &ManagerStats) -> RunBdd {
        RunBdd {
            delta: after.delta_since(before),
            peak_nodes: after.peak_nodes,
            depth_hwm: after.depth_hwm,
        }
    }

    /// The high-water marks, written ahead of the delta's counters.
    fn marks(&self) -> [(&'static str, u64); 2] {
        [
            ("peak_nodes", self.peak_nodes as u64),
            ("depth_hwm", u64::from(self.depth_hwm)),
        ]
    }
}

/// Run-level degradation summary: how many constraints came back without
/// a decided verdict, plus the fault-injection evidence when failpoints
/// were armed.
#[derive(Debug, Clone, Default)]
pub struct DegradationSummary {
    /// Constraints whose verdict was `degraded`.
    pub degraded: usize,
    /// Constraints whose verdict was `errored`.
    pub errored: usize,
    /// Constraints that left the straight BDD path (trace has a fallback
    /// reason).
    pub fallbacks: usize,
    /// Failpoint evidence: `(seed, fired counts per site)`, present iff
    /// the registry was armed when the report was assembled.
    pub failpoints: Option<(u64, Vec<(&'static str, u64)>)>,
}

impl DegradationSummary {
    /// The `degradation` block's counters, in schema order.
    fn counters(&self) -> [(&'static str, u64); 3] {
        [
            ("degraded", self.degraded as u64),
            ("errored", self.errored as u64),
            ("fallbacks", self.fallbacks as u64),
        ]
    }
}

/// Closed vocabulary of index-store recovery reasons. The metrics
/// validator rejects anything outside this list, so a new failure mode
/// must be named here (and documented in DESIGN.md §5d) before it can
/// ship.
pub mod recovery_reason {
    /// The manifest failed frame or structural validation.
    pub const MANIFEST_CORRUPT: &str = "manifest_corrupt";
    /// A segment file failed its checksum or decode.
    pub const SEGMENT_CORRUPT: &str = "segment_corrupt";
    /// The manifest referenced a segment file that is not on disk.
    pub const SEGMENT_MISSING: &str = "segment_missing";
    /// A journal record in the body of the journal failed its CRC.
    pub const JOURNAL_CORRUPT: &str = "journal_corrupt";
    /// The journal ended in a partial record (torn append); the tail was
    /// discarded. This alone does not force a rebuild.
    pub const JOURNAL_TORN: &str = "journal_torn";
    /// The base CSV (or a sibling sharing an attribute class) changed
    /// since the segment was written.
    pub const STALE_FINGERPRINT: &str = "stale_fingerprint";
    /// Journaled values need a wider BDD block than the segment has.
    pub const DOMAIN_OVERFLOW: &str = "domain_overflow";
    /// Replaying a journal record through incremental maintenance failed.
    pub const REPLAY_FAILED: &str = "replay_failed";
    /// Every legal reason, for validation.
    pub const ALL: [&str; 8] = [
        MANIFEST_CORRUPT,
        SEGMENT_CORRUPT,
        SEGMENT_MISSING,
        JOURNAL_CORRUPT,
        JOURNAL_TORN,
        STALE_FINGERPRINT,
        DOMAIN_OVERFLOW,
        REPLAY_FAILED,
    ];
}

/// One recovery event from the persistent index store: something on disk
/// was unusable, the store said why, and the run carried on correctly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryRecord {
    /// Relation whose cache entry was affected.
    pub relation: String,
    /// One of [`recovery_reason`]'s constants.
    pub reason: &'static str,
    /// Human-readable specifics (decode offset, fingerprints, …).
    pub detail: String,
}

/// Persistent-index-store counters for one run (`index_cache` in the
/// schema). `None` on `RunMetrics` means the run had no `--index-cache`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IndexCacheMetrics {
    /// Relations warm-started from a valid cached segment.
    pub hits: u64,
    /// Relations with no usable cache entry (built from scratch).
    pub misses: u64,
    /// Relations whose cache entry existed but was unusable — a subset of
    /// the misses, each explained by a [`RecoveryRecord`].
    pub rebuilds: u64,
    /// Journaled tuple deltas replayed through incremental maintenance.
    pub journal_replayed: u64,
    /// Best-effort cache writes that failed (the run continues; the cache
    /// just stays cold for those relations).
    pub write_failures: u64,
    /// Every recovery event, in detection order.
    pub recoveries: Vec<RecoveryRecord>,
}

impl IndexCacheMetrics {
    /// The `index_cache` block's counters, in schema order (the
    /// `recoveries` list follows them).
    fn counters(&self) -> [(&'static str, u64); 5] {
        [
            ("hits", self.hits),
            ("misses", self.misses),
            ("rebuilds", self.rebuilds),
            ("journal_replayed", self.journal_replayed),
            ("write_failures", self.write_failures),
        ]
    }
}

/// Session counters for a `relcheck serve` run (`serve` in the schema).
/// `None` on `RunMetrics` means the run was a batch job.
///
/// `checks`, `constraints_checked`, `constraints_skipped`, and the
/// dirty-set gauges count only protocol `check` requests; the priming
/// validation that warms the session is accounted separately in
/// `full_ns`, so `incremental_ns` vs `full_ns` compares delta-driven
/// re-checking against the cold full pass on the same session.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeMetrics {
    /// Protocol commands handled (deltas + checks + stats + quit).
    pub requests: u64,
    /// Tuple deltas applied (acknowledged, i.e. journaled when a store
    /// is attached).
    pub deltas: u64,
    /// `check` requests served.
    pub checks: u64,
    /// Constraints re-checked across all `check` requests (their
    /// read-set intersected the dirty set, or their verdict was stale).
    pub constraints_checked: u64,
    /// Constraints answered from the registry's cached verdict.
    pub constraints_skipped: u64,
    /// Largest dirty-relation set any `check` request saw.
    pub dirty_peak: u64,
    /// Sum of dirty-set sizes over all `check` requests (divide by
    /// `checks` for the mean).
    pub dirty_total: u64,
    /// Wall-clock nanoseconds spent serving `check` requests.
    pub incremental_ns: u64,
    /// Wall-clock nanoseconds of the initial full validation that primed
    /// the verdict cache.
    pub full_ns: u64,
}

impl ServeMetrics {
    /// The `serve` block's fields, in schema order.
    fn counters(&self) -> [(&'static str, u64); 9] {
        [
            ("requests", self.requests),
            ("deltas", self.deltas),
            ("checks", self.checks),
            ("constraints_checked", self.constraints_checked),
            ("constraints_skipped", self.constraints_skipped),
            ("dirty_peak", self.dirty_peak),
            ("dirty_total", self.dirty_total),
            ("incremental_ns", self.incremental_ns),
            ("full_ns", self.full_ns),
        ]
    }
}

/// Certificate audit counters (`audit` in the schema). `None` on
/// [`RunMetrics`] means the run did not emit or verify certificates.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AuditMetrics {
    /// Certificates emitted.
    pub emitted: u64,
    /// Certificates that passed independent re-checking.
    pub verified: u64,
    /// Certificates rejected by the re-checker (tampering or an engine
    /// bug) — any nonzero value here is an incident.
    pub failed: u64,
    /// Witness tuples carried across all emitted certificates (bounded
    /// per certificate by `--witness-limit`).
    pub witnesses: u64,
}

impl AuditMetrics {
    /// The `audit` block's fields, in schema order.
    fn counters(&self) -> [(&'static str, u64); 4] {
        [
            ("emitted", self.emitted),
            ("verified", self.verified),
            ("failed", self.failed),
            ("witnesses", self.witnesses),
        ]
    }
}

/// Admission-governor counters for a `relcheck serve` run (`overload` in
/// the schema). `None` on [`RunMetrics`] means the run was a batch job.
/// Conservation: `shed <= admitted` and `drained <= admitted`
/// (`metrics-check` enforces both).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OverloadMetrics {
    /// Requests accepted onto the engine queue (Normal + Shed tiers).
    pub admitted: u64,
    /// Admitted requests served at the Shed tier: the ladder entered at
    /// the SQL rung ([`FallbackReason::Overload`]) instead of BDD.
    pub shed: u64,
    /// Requests turned away with a `busy <retry-after-ms>` reply because
    /// the bounded queue was full (the engine never saw them).
    pub rejected: u64,
    /// Journal-append retries that eventually succeeded (transient store
    /// faults absorbed before the rows-only degrade would have fired).
    pub retries: u64,
    /// Checks whose service time overran the hard deadline — the armed
    /// watchdog escalated them down the ladder instead of hanging.
    pub watchdog_fires: u64,
    /// Queued requests still served after drain began (`quit`/SIGTERM):
    /// the graceful-drain path finishes in-flight work, never drops it.
    pub drained: u64,
}

impl OverloadMetrics {
    /// The `overload` block's fields, in schema order.
    fn counters(&self) -> [(&'static str, u64); 6] {
        [
            ("admitted", self.admitted),
            ("shed", self.shed),
            ("rejected", self.rejected),
            ("retries", self.retries),
            ("watchdog_fires", self.watchdog_fires),
            ("drained", self.drained),
        ]
    }
}

/// The top-level machine-readable report (`schema_version` 13). See
/// `DESIGN.md` for field meanings and stability guarantees.
#[derive(Debug, Clone, Default)]
pub struct RunMetrics {
    /// The named check reports, in input order.
    pub constraints: Vec<(String, CheckReport)>,
    /// The run's BDD work; `None` when it never touched the BDD engine
    /// (`relcheck run --sql`).
    pub bdd: Option<RunBdd>,
    /// Degraded/errored counts and fault-injection evidence.
    pub degradation: DegradationSummary,
    /// Persistent index store counters; `None` when the run did not use
    /// `--index-cache`. Assembled by the caller after `from_reports`.
    pub index_cache: Option<IndexCacheMetrics>,
    /// Serve-session counters; `None` for batch runs. Assembled by the
    /// caller after `from_reports`.
    pub serve: Option<ServeMetrics>,
    /// Certificate audit counters; `None` when the run did not certify.
    /// Assembled by the caller after `from_reports`.
    pub audit: Option<AuditMetrics>,
    /// Admission-governor counters; `None` for batch runs. Assembled by
    /// the caller after `from_reports`.
    pub overload: Option<OverloadMetrics>,
}

impl RunMetrics {
    /// Assemble a report from named check reports (input order preserved).
    /// Captures the failpoint registry's fired counts if it is armed.
    pub fn from_reports(reports: &[(String, CheckReport)], bdd: Option<RunBdd>) -> RunMetrics {
        let count =
            |keep: &dyn Fn(&CheckReport) -> bool| reports.iter().filter(|(_, r)| keep(r)).count();
        let degradation = DegradationSummary {
            degraded: count(&|r| r.verdict == Verdict::Degraded),
            errored: count(&|r| r.verdict == Verdict::Errored),
            fallbacks: count(&|r| r.trace.fallback.is_some()),
            failpoints: relcheck_bdd::failpoint::armed_seed()
                .map(|seed| (seed, relcheck_bdd::failpoint::fired_counts())),
        };
        RunMetrics {
            constraints: reports.to_vec(),
            bdd,
            degradation,
            ..RunMetrics::default()
        }
    }

    /// Render the schema-version-13 JSON document.
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.obj_open();
        w.key("schema_version");
        w.raw(&SCHEMA_VERSION.to_string());
        w.key("tool");
        w.string("relcheck");
        w.key("constraints");
        w.arr_open();
        for (name, report) in &self.constraints {
            write_constraint(&mut w, name, report);
        }
        w.arr_close();
        write_nullable(&mut w, "bdd", self.bdd.as_ref(), |w, b| {
            write_delta(w, &b.marks(), &b.delta)
        });
        w.key("degradation");
        write_degradation(&mut w, &self.degradation);
        write_nullable(
            &mut w,
            "index_cache",
            self.index_cache.as_ref(),
            write_index_cache,
        );
        for (key, counters) in [
            ("serve", self.serve.map(|b| b.counters().to_vec())),
            ("audit", self.audit.map(|b| b.counters().to_vec())),
            ("overload", self.overload.map(|b| b.counters().to_vec())),
        ] {
            write_nullable(&mut w, key, counters.as_ref(), |w, c| {
                write_counter_block(w, c)
            });
        }
        w.obj_close();
        w.finish()
    }
}

/// Write `counters` as `"name":value` members of the open object.
fn write_counters(w: &mut JsonWriter, counters: &[(&str, u64)]) {
    for (k, v) in counters {
        w.key(k);
        w.raw(&v.to_string());
    }
}

/// Write a flat counter block as its own object.
fn write_counter_block(w: &mut JsonWriter, counters: &[(&str, u64)]) {
    w.obj_open();
    write_counters(w, counters);
    w.obj_close();
}

/// Write `key` with `value` rendered by `write`, or `null` when absent.
fn write_nullable<T>(
    w: &mut JsonWriter,
    key: &str,
    value: Option<&T>,
    write: impl FnOnce(&mut JsonWriter, &T),
) {
    w.key(key);
    match value {
        None => w.raw("null"),
        Some(v) => write(w, v),
    }
}

fn write_index_cache(w: &mut JsonWriter, ic: &IndexCacheMetrics) {
    w.obj_open();
    write_counters(w, &ic.counters());
    w.key("recoveries");
    w.arr_open();
    for r in &ic.recoveries {
        w.obj_open();
        w.key("relation");
        w.string(&r.relation);
        w.key("reason");
        w.string(r.reason);
        w.key("detail");
        w.string(&r.detail);
        w.obj_close();
    }
    w.arr_close();
    w.obj_close();
}

fn write_degradation(w: &mut JsonWriter, d: &DegradationSummary) {
    w.obj_open();
    write_counters(w, &d.counters());
    write_nullable(
        w,
        "failpoints",
        d.failpoints.as_ref(),
        |w, (seed, fired)| {
            w.obj_open();
            // As a string: u64 seeds can exceed the i64 range our parser
            // (and many consumers) give JSON integers.
            w.key("seed");
            w.string(&seed.to_string());
            w.key("fired");
            w.arr_open();
            for (site, count) in fired {
                w.obj_open();
                w.key("site");
                w.string(site);
                w.key("count");
                w.raw(&count.to_string());
                w.obj_close();
            }
            w.arr_close();
            w.obj_close();
        },
    );
    w.obj_close();
}

fn write_constraint(w: &mut JsonWriter, name: &str, r: &CheckReport) {
    w.obj_open();
    w.key("name");
    w.string(name);
    w.key("holds");
    w.bool(r.holds);
    w.key("verdict");
    w.string(r.verdict.name());
    write_nullable(w, "error", r.error.as_ref(), |w, e| w.string(e));
    w.key("method");
    w.string(r.method.name());
    w.key("elapsed_ns");
    w.raw(&nanos(r.elapsed).to_string());
    w.key("trace");
    write_trace(w, &r.trace);
    w.obj_close();
}

fn write_trace(w: &mut JsonWriter, t: &CheckTrace) {
    w.obj_open();
    w.key("rules");
    w.arr_open();
    for r in &t.rules {
        w.obj_open();
        w.key("rule");
        w.string(r.rule.name());
        w.key("count");
        w.raw(&r.count.to_string());
        w.obj_close();
    }
    w.arr_close();
    w.key("passes");
    w.arr_open();
    for p in &t.passes {
        w.obj_open();
        w.key("pass");
        w.string(p.pass);
        write_nullable(w, "rule", p.rule.as_ref(), |w, r| w.string(r.name()));
        w.key("fired");
        w.raw(&p.fired.to_string());
        w.key("gated");
        w.raw(&p.gated.to_string());
        w.obj_close();
    }
    w.arr_close();
    w.key("index_events");
    w.arr_open();
    for e in &t.index_events {
        w.obj_open();
        w.key("relation");
        w.string(&e.relation);
        w.key("provenance");
        w.string(e.provenance.name());
        w.obj_close();
    }
    w.arr_close();
    write_nullable(w, "fallback", t.fallback.as_ref(), write_fallback);
    w.key("ladder");
    w.arr_open();
    for rung in &t.ladder {
        w.string(rung);
    }
    w.arr_close();
    w.key("timings");
    write_counter_block(w, &t.timings.counters());
    w.key("bdd");
    write_delta(w, &[], &t.bdd);
    w.obj_close();
}

fn write_fallback(w: &mut JsonWriter, fb: &FallbackReason) {
    w.obj_open();
    w.key("reason");
    w.string(fb.name());
    match fb {
        FallbackReason::NodeLimit { limit, live } => {
            w.key("limit");
            w.raw(&limit.to_string());
            w.key("live");
            w.raw(&live.to_string());
        }
        FallbackReason::Panic(msg) => {
            w.key("message");
            w.string(msg);
        }
        FallbackReason::UnindexedRelation | FallbackReason::Deadline | FallbackReason::Overload => {
        }
    }
    w.obj_close();
}

/// Write a `bdd` block: `lead` counters, then the delta's counters and
/// its per-op entries.
fn write_delta(w: &mut JsonWriter, lead: &[(&str, u64)], d: &StatsDelta) {
    w.obj_open();
    write_counters(w, lead);
    write_counters(w, &delta_counters(d));
    w.key("ops");
    w.arr_open();
    for (kind, s) in OpKind::ALL.iter().zip(&d.ops) {
        w.obj_open();
        w.key("op");
        w.string(kind.name());
        write_counters(w, &op_counters(s));
        w.obj_close();
    }
    w.arr_close();
    w.obj_close();
}

/// A tiny JSON emitter that tracks commas so callers write keys and values
/// in order without bookkeeping. Shared with the certificate writer
/// (`crate::certify`), which needs the same byte-stable output.
pub(crate) struct JsonWriter {
    out: String,
    need_comma: Vec<bool>,
}

impl JsonWriter {
    pub(crate) fn new() -> JsonWriter {
        JsonWriter {
            out: String::new(),
            need_comma: vec![false],
        }
    }

    fn pre_value(&mut self) {
        if let Some(top) = self.need_comma.last_mut() {
            if *top {
                self.out.push(',');
            }
            *top = true;
        }
    }

    pub(crate) fn obj_open(&mut self) {
        self.pre_value();
        self.out.push('{');
        self.need_comma.push(false);
    }

    pub(crate) fn obj_close(&mut self) {
        self.need_comma.pop();
        self.out.push('}');
    }

    pub(crate) fn arr_open(&mut self) {
        self.pre_value();
        self.out.push('[');
        self.need_comma.push(false);
    }

    pub(crate) fn arr_close(&mut self) {
        self.need_comma.pop();
        self.out.push(']');
    }

    pub(crate) fn key(&mut self, k: &str) {
        self.pre_value();
        self.out.push('"');
        self.out.push_str(k);
        self.out.push_str("\":");
        // The value that follows must not emit another comma.
        if let Some(top) = self.need_comma.last_mut() {
            *top = false;
        }
    }

    pub(crate) fn string(&mut self, s: &str) {
        self.pre_value();
        self.out.push('"');
        for ch in s.chars() {
            match ch {
                '"' => self.out.push_str("\\\""),
                '\\' => self.out.push_str("\\\\"),
                '\n' => self.out.push_str("\\n"),
                '\r' => self.out.push_str("\\r"),
                '\t' => self.out.push_str("\\t"),
                c if (c as u32) < 0x20 => {
                    self.out.push_str(&format!("\\u{:04x}", c as u32));
                }
                c => self.out.push(c),
            }
        }
        self.out.push('"');
    }

    pub(crate) fn bool(&mut self, b: bool) {
        self.raw(if b { "true" } else { "false" });
    }

    pub(crate) fn raw(&mut self, v: &str) {
        self.pre_value();
        self.out.push_str(v);
    }

    pub(crate) fn finish(self) -> String {
        self.out
    }
}

/// A parsed JSON value — just enough to validate the metrics schema
/// offline (std-only; used by `relcheck metrics-check` and the test
/// suite).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer (counters; anything without `.`/`e`).
    Int(i64),
    /// A non-integer number.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in document order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object field lookup.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The integer value, if this is an integer.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Json::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }
}

/// Deepest array/object nesting [`parse_json`] accepts. Our documents nest
/// at most 8 levels; the cap turns a hostile `[[[[…` into an error
/// instead of a stack overflow.
const MAX_DEPTH: usize = 64;

/// Parse a JSON document (strict enough for round-tripping our own
/// output; rejects trailing garbage and nesting deeper than 64 levels).
pub fn parse_json(text: &str) -> std::result::Result<Json, String> {
    let mut pos = 0usize;
    let v = parse_value(text, &mut pos, 0)?;
    skip_ws(text.as_bytes(), &mut pos);
    if pos != text.len() {
        return Err(format!("trailing input at byte {pos}"));
    }
    Ok(v)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_value(text: &str, pos: &mut usize, depth: usize) -> std::result::Result<Json, String> {
    let b = text.as_bytes();
    skip_ws(b, pos);
    if matches!(b.get(*pos), Some(b'{' | b'[')) && depth >= MAX_DEPTH {
        return Err(format!(
            "nesting deeper than {MAX_DEPTH} levels at byte {pos}"
        ));
    }
    match b.get(*pos) {
        None => Err("unexpected end of input".to_owned()),
        Some(b'{') => {
            *pos += 1;
            let mut fields = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(fields));
            }
            loop {
                skip_ws(b, pos);
                let key = match parse_value(text, pos, depth + 1)? {
                    Json::Str(s) => s,
                    other => return Err(format!("object key must be a string, got {other:?}")),
                };
                skip_ws(b, pos);
                if b.get(*pos) != Some(&b':') {
                    return Err(format!("expected ':' at byte {pos}"));
                }
                *pos += 1;
                let val = parse_value(text, pos, depth + 1)?;
                fields.push((key, val));
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(fields));
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {pos}")),
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(text, pos, depth + 1)?);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {pos}")),
                }
            }
        }
        Some(b'"') => {
            *pos += 1;
            let mut s = String::new();
            loop {
                // Copy the run of unescaped bytes up to the next quote or
                // backslash in one slice: both are ASCII, so the run ends
                // on a character boundary.
                let run = b[*pos..]
                    .iter()
                    .position(|&c| c == b'"' || c == b'\\')
                    .ok_or("unterminated string")?;
                s.push_str(&text[*pos..*pos + run]);
                *pos += run + 1;
                if b[*pos - 1] == b'"' {
                    return Ok(Json::Str(s));
                }
                match b.get(*pos) {
                    Some(b'"') => s.push('"'),
                    Some(b'\\') => s.push('\\'),
                    Some(b'/') => s.push('/'),
                    Some(b'n') => s.push('\n'),
                    Some(b'r') => s.push('\r'),
                    Some(b't') => s.push('\t'),
                    Some(b'u') => {
                        let hex = text.get(*pos + 1..*pos + 5).ok_or("truncated \\u escape")?;
                        let code = u32::from_str_radix(hex, 16).map_err(|e| e.to_string())?;
                        s.push(char::from_u32(code).ok_or("bad \\u escape")?);
                        *pos += 4;
                    }
                    other => return Err(format!("bad escape {other:?}")),
                }
                *pos += 1;
            }
        }
        Some(b't') if b[*pos..].starts_with(b"true") => {
            *pos += 4;
            Ok(Json::Bool(true))
        }
        Some(b'f') if b[*pos..].starts_with(b"false") => {
            *pos += 5;
            Ok(Json::Bool(false))
        }
        Some(b'n') if b[*pos..].starts_with(b"null") => {
            *pos += 4;
            Ok(Json::Null)
        }
        Some(_) => {
            let start = *pos;
            if b.get(*pos) == Some(&b'-') {
                *pos += 1;
            }
            while *pos < b.len()
                && matches!(b[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
            {
                *pos += 1;
            }
            let s = &text[start..*pos];
            if s.is_empty() {
                return Err(format!("unexpected character at byte {start}"));
            }
            if s.bytes().all(|c| c.is_ascii_digit() || c == b'-') {
                s.parse::<i64>().map(Json::Int).map_err(|e| e.to_string())
            } else {
                s.parse::<f64>().map(Json::Float).map_err(|e| e.to_string())
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Validation. The accessors below name the full path of a missing or
// mistyped field in their error; the metrics and plan validators share
// them.
// ---------------------------------------------------------------------------

type Check<T> = std::result::Result<T, String>;

/// `at.name`, or just `name` at the document root.
fn join(at: &str, name: &str) -> String {
    if at.is_empty() {
        name.to_owned()
    } else {
        format!("{at}.{name}")
    }
}

/// Field `name` of `v`, read by `read`; an error naming `kind` when it is
/// missing or of the wrong type.
fn expect<'a, T>(
    v: &'a Json,
    at: &str,
    name: &str,
    kind: &str,
    read: impl FnOnce(&'a Json) -> Option<T>,
) -> Check<T> {
    v.get(name)
        .and_then(read)
        .ok_or_else(|| format!("{}: expected {kind}", join(at, name)))
}

fn field<'a>(v: &'a Json, at: &str, name: &str) -> Check<&'a Json> {
    expect(v, at, name, "a value", Some)
}

fn string<'a>(v: &'a Json, at: &str, name: &str) -> Check<&'a str> {
    expect(v, at, name, "a string", Json::as_str)
}

fn array<'a>(v: &'a Json, at: &str, name: &str) -> Check<&'a [Json]> {
    expect(v, at, name, "an array", Json::as_arr)
}

fn boolean(v: &Json, at: &str, name: &str) -> Check<()> {
    expect(v, at, name, "a boolean", |j| {
        matches!(j, Json::Bool(_)).then_some(())
    })
}

/// A counter: present, an integer, and `>= 0`.
fn count(v: &Json, at: &str, name: &str) -> Check<u64> {
    let n = expect(v, at, name, "an integer", Json::as_int)?;
    u64::try_from(n).map_err(|_| format!("{} = {n} < 0", join(at, name)))
}

/// A field the writer always emits, possibly as `null` (`Ok(None)`).
fn nullable<'a>(v: &'a Json, at: &str, name: &str) -> Check<Option<&'a Json>> {
    match field(v, at, name)? {
        Json::Null => Ok(None),
        x => Ok(Some(x)),
    }
}

/// `got` must be one of `vocabulary`.
fn member<'a>(
    at: &str,
    what: &str,
    got: &str,
    vocabulary: impl IntoIterator<Item = &'a str>,
) -> Check<()> {
    if vocabulary.into_iter().any(|w| w == got) {
        Ok(())
    } else {
        Err(format!("{at}: unknown {what} {got:?}"))
    }
}

/// Validated counter values, looked up by field name.
struct Counters(Vec<(String, u64)>);

impl std::ops::Index<&str> for Counters {
    type Output = u64;

    fn index(&self, name: &str) -> &u64 {
        let (_, n) = self
            .0
            .iter()
            .find(|(k, _)| k == name)
            .unwrap_or_else(|| panic!("counter {name:?} is not in the block's table"));
        n
    }
}

/// Check every field of a block's counter `table` (present, integer,
/// `>= 0`) and return the values.
fn read_counters<T: Default, const N: usize>(
    v: &Json,
    at: &str,
    table: fn(&T) -> [(&'static str, u64); N],
) -> Check<Counters> {
    table(&T::default())
        .iter()
        .map(|&(name, _)| Ok((name.to_owned(), count(v, at, name)?)))
        .collect::<Check<_>>()
        .map(Counters)
}

/// Check a `bdd` block: its counters and one entry per op kind, each
/// conserving `calls == cache_hits + cache_misses`, whose hits and misses
/// sum to the block's `cache_hits` and `cache_misses`.
fn check_delta_block(v: &Json, at: &str) -> Check<()> {
    let totals = read_counters(v, at, delta_counters)?;
    let ops = array(v, at, "ops")?;
    if ops.len() != OpKind::ALL.len() {
        return Err(format!(
            "{at}: ops must list all {} kinds, got {}",
            OpKind::ALL.len(),
            ops.len()
        ));
    }
    let (mut hits, mut misses) = (0, 0);
    for (o, kind) in ops.iter().zip(OpKind::ALL) {
        let want = kind.name();
        let oat = format!("{at}.ops[{want}]");
        let got = string(o, &oat, "op")?;
        if got != want {
            return Err(format!("{oat}: expected op {want:?}, got {got:?}"));
        }
        let c = read_counters(o, &oat, op_counters)?;
        if c["calls"] != c["cache_hits"] + c["cache_misses"] {
            return Err(format!(
                "{oat}: violates calls == hits + misses ({} != {} + {})",
                c["calls"], c["cache_hits"], c["cache_misses"]
            ));
        }
        hits += c["cache_hits"];
        misses += c["cache_misses"];
    }
    for (name, sum) in [("cache_hits", hits), ("cache_misses", misses)] {
        if sum != totals[name] {
            return Err(format!(
                "{at}: the ops' {name} sum to {sum}, not {at}.{name} = {}",
                totals[name]
            ));
        }
    }
    Ok(())
}

/// Check one planner pass entry (trace or plan): a known pass name, a
/// known rule or `null`, and non-negative `fired`/`gated` counts.
fn check_pass(p: &Json, at: &str) -> Check<()> {
    let name = string(p, at, "pass")?;
    member(at, "pass", name, pass::ALL)?;
    if let Some(rule) = nullable(p, at, "rule")? {
        let rule = rule
            .as_str()
            .ok_or(format!("{at}: pass {name:?} has a non-string rule"))?;
        member(at, "rule", rule, RewriteRule::ALL.map(RewriteRule::name))?;
    }
    count(p, at, "fired")?;
    count(p, at, "gated")?;
    Ok(())
}

/// The method a report whose ladder ended on `last` carries.
fn rung_method(last: &str) -> Method {
    match last {
        rung::BDD => Method::Bdd,
        rung::SQL => Method::SqlFallback,
        rung::BRUTE_FORCE => Method::BruteForce,
        _ => Method::Aborted,
    }
}

/// Check a constraint's trace; its ladder's last rung must agree with the
/// constraint's `method`. Returns whether the trace records a fallback.
fn check_trace(t: &Json, at: &str, method: &str) -> Check<bool> {
    for (i, r) in array(t, at, "rules")?.iter().enumerate() {
        let rat = format!("{at}.rules[{i}]");
        let name = string(r, &rat, "rule")?;
        member(&rat, "rule", name, RewriteRule::ALL.map(RewriteRule::name))?;
        if count(r, &rat, "count")? == 0 {
            return Err(format!("{rat}: rule {name:?} has count 0"));
        }
    }
    for (i, p) in array(t, at, "passes")?.iter().enumerate() {
        check_pass(p, &format!("{at}.passes[{i}]"))?;
    }
    for (i, e) in array(t, at, "index_events")?.iter().enumerate() {
        let eat = format!("{at}.index_events[{i}]");
        string(e, &eat, "relation")?;
        let provenance = string(e, &eat, "provenance")?;
        member(
            &eat,
            "provenance",
            provenance,
            IndexProvenance::ALL.map(IndexProvenance::name),
        )?;
    }
    let fallback = nullable(t, at, "fallback")?;
    if let Some(fb) = fallback {
        let fat = join(at, "fallback");
        let reason = string(fb, &fat, "reason")?;
        let variant = FallbackReason::VARIANTS
            .into_iter()
            .find(|r| r.name() == reason)
            .ok_or(format!("{fat}: unknown reason {reason:?}"))?;
        match variant {
            FallbackReason::NodeLimit { .. } => {
                count(fb, &fat, "limit")?;
                count(fb, &fat, "live")?;
            }
            FallbackReason::Panic(_) => {
                string(fb, &fat, "message")?;
            }
            FallbackReason::UnindexedRelation
            | FallbackReason::Deadline
            | FallbackReason::Overload => {}
        }
    }
    // A walk visits each rung at most once, in ladder order.
    let ladder = array(t, at, "ladder")?;
    let mut prev = None;
    for r in ladder {
        let name = r
            .as_str()
            .ok_or(format!("{at}.ladder: rung must be a string"))?;
        let pos = rung::ALL
            .iter()
            .position(|&known| known == name)
            .ok_or(format!("{at}.ladder: unknown rung {name:?}"))?;
        if prev.is_some_and(|p| pos <= p) {
            return Err(format!(
                "{at}.ladder: rung {name:?} is out of order or repeated"
            ));
        }
        prev = Some(pos);
    }
    let last = ladder
        .last()
        .and_then(Json::as_str)
        .ok_or(format!("{at}.ladder: a check walks at least one rung"))?;
    if rung_method(last).name() != method {
        return Err(format!(
            "{at}.ladder ends on {last:?}, which disagrees with method {method:?}"
        ));
    }
    read_counters(
        field(t, at, "timings")?,
        &join(at, "timings"),
        PhaseTimings::counters,
    )?;
    check_delta_block(field(t, at, "bdd")?, &join(at, "bdd"))?;
    Ok(fallback.is_some())
}

/// Validate a metrics document against the current schema (the one
/// [`RunMetrics::to_json`] writes; any other `schema_version` is
/// rejected): required fields and types, closed vocabularies, per-op
/// conservation laws and each block's conservation rules.
pub fn validate_metrics_json(text: &str) -> std::result::Result<(), String> {
    let doc = parse_json(text)?;
    let version = expect(&doc, "", "schema_version", "an integer", Json::as_int)?;
    if version != SCHEMA_VERSION {
        return Err(format!(
            "unsupported schema_version {version} (expected {SCHEMA_VERSION})"
        ));
    }
    string(&doc, "", "tool")?;
    let constraints = array(&doc, "", "constraints")?;
    let mut fallbacks = 0;
    for (i, c) in constraints.iter().enumerate() {
        let at = format!("constraints[{i}]");
        string(c, &at, "name")?;
        boolean(c, &at, "holds")?;
        let verdict = string(c, &at, "verdict")?;
        member(&at, "verdict", verdict, Verdict::ALL.map(Verdict::name))?;
        if let Some(e) = nullable(c, &at, "error")? {
            e.as_str()
                .ok_or(format!("{at}.error: expected null or a string"))?;
        }
        let method = string(c, &at, "method")?;
        member(&at, "method", method, Method::ALL.map(Method::name))?;
        count(c, &at, "elapsed_ns")?;
        let trace = field(c, &at, "trace")?;
        if *trace == Json::Null {
            return Err(format!("{at}.trace: every constraint carries a trace"));
        }
        fallbacks += u64::from(check_trace(trace, &join(&at, "trace"), method)?);
    }

    if let Some(bdd) = nullable(&doc, "", "bdd")? {
        read_counters(bdd, "bdd", RunBdd::marks)?;
        check_delta_block(bdd, "bdd")?;
    }

    let deg = field(&doc, "", "degradation")?;
    let c = read_counters(deg, "degradation", DegradationSummary::counters)?;
    // Counts (named after the verdict they tally) must agree with the
    // per-constraint verdicts.
    for name in [Verdict::Degraded.name(), Verdict::Errored.name()] {
        let tally = constraints
            .iter()
            .filter(|c| c.get("verdict").and_then(Json::as_str) == Some(name))
            .count() as u64;
        if c[name] != tally {
            return Err(format!(
                "degradation.{name} = {} but {tally} constraints report verdict {name:?}",
                c[name]
            ));
        }
    }
    if c["fallbacks"] != fallbacks {
        return Err(format!(
            "degradation.fallbacks = {} but {fallbacks} traces record a fallback",
            c["fallbacks"]
        ));
    }
    if let Some(fp) = nullable(deg, "degradation", "failpoints")? {
        string(fp, "degradation.failpoints", "seed")?;
        for (i, s) in array(fp, "degradation.failpoints", "fired")?
            .iter()
            .enumerate()
        {
            let at = format!("degradation.failpoints.fired[{i}]");
            string(s, &at, "site")?;
            count(s, &at, "count")?;
        }
    }

    if let Some(ic) = nullable(&doc, "", "index_cache")? {
        let c = read_counters(ic, "index_cache", IndexCacheMetrics::counters)?;
        let recoveries = array(ic, "index_cache", "recoveries")?;
        for (i, r) in recoveries.iter().enumerate() {
            let at = format!("index_cache.recoveries[{i}]");
            string(r, &at, "relation")?;
            member(
                &at,
                "reason",
                string(r, &at, "reason")?,
                recovery_reason::ALL,
            )?;
            string(r, &at, "detail")?;
        }
        // Conservation: every rebuild is explained by a recovery record
        // (some records — e.g. a salvaged torn journal tail — do not force
        // a rebuild, so ≤ rather than =).
        if c["rebuilds"] > recoveries.len() as u64 {
            return Err(format!(
                "index_cache.rebuilds = {} exceeds the {} recovery record(s)",
                c["rebuilds"],
                recoveries.len()
            ));
        }
    }

    let serve = nullable(&doc, "", "serve")?
        .map(|sv| read_counters(sv, "serve", ServeMetrics::counters))
        .transpose()?;
    if let Some(c) = &serve {
        // Conservation: the peak dirty-set size is one of the sizes summed
        // into the total, and every delta/check is a request.
        if c["dirty_peak"] > c["dirty_total"] {
            return Err(format!(
                "serve.dirty_peak = {} exceeds dirty_total = {}",
                c["dirty_peak"], c["dirty_total"]
            ));
        }
        if c["deltas"] + c["checks"] > c["requests"] {
            return Err(format!(
                "serve.deltas + serve.checks = {} exceeds requests = {}",
                c["deltas"] + c["checks"],
                c["requests"]
            ));
        }
    }

    if let Some(au) = nullable(&doc, "", "audit")? {
        let c = read_counters(au, "audit", AuditMetrics::counters)?;
        // Conservation: in an emitting run every verification outcome
        // refers to an emitted certificate. A verify-only run reports
        // emitted = 0 and its verified/failed tallies stand alone.
        if c["emitted"] > 0 && c["verified"] + c["failed"] > c["emitted"] {
            return Err(format!(
                "audit.verified + audit.failed = {} exceeds emitted = {}",
                c["verified"] + c["failed"],
                c["emitted"]
            ));
        }
    }

    if let Some(ov) = nullable(&doc, "", "overload")? {
        let c = read_counters(ov, "overload", OverloadMetrics::counters)?;
        // Conservation: shed requests are a subset of admitted ones
        // (rejected requests never reach the engine), and the drain phase
        // only serves requests that were already admitted.
        for name in ["shed", "drained"] {
            if c[name] > c["admitted"] {
                return Err(format!(
                    "overload.{name} = {} exceeds admitted = {}",
                    c[name], c["admitted"]
                ));
            }
        }
        // Every engine-visible request was admitted by the governor (the
        // engine skips blank/comment lines, so <=, not ==).
        if let Some(sv) = &serve {
            if sv["requests"] > c["admitted"] {
                return Err(format!(
                    "serve.requests = {} exceeds overload.admitted = {}",
                    sv["requests"], c["admitted"]
                ));
            }
        }
    }

    Ok(())
}

/// Every element of array field `name` must be a string.
fn strings(v: &Json, at: &str, name: &str) -> Check<()> {
    for s in array(v, at, name)? {
        s.as_str()
            .ok_or(format!("{}: entries must be strings", join(at, name)))?;
    }
    Ok(())
}

/// Validate a `relcheck plan --json` document (schema version 2, kind
/// `"plan"`): required fields and types, pass/rule/ladder vocabulary,
/// hex-string fingerprints, and that the emitted ladder matches the
/// presence of the bdd/sql steps.
pub fn validate_plan_json(text: &str) -> std::result::Result<(), String> {
    let doc = parse_json(text)?;
    let version = expect(&doc, "", "schema_version", "an integer", Json::as_int)?;
    if version != crate::plan::PLAN_SCHEMA_VERSION {
        return Err(format!("unsupported plan schema_version {version}"));
    }
    let kind = string(&doc, "", "kind")?;
    if kind != "plan" {
        return Err(format!("kind must be \"plan\", got {kind:?}"));
    }
    for (i, p) in array(&doc, "", "plans")?.iter().enumerate() {
        let at = format!("plans[{i}]");
        string(p, &at, "name")?;
        string(p, &at, "constraint")?;
        for name in ["constraint_fp", "schema_fp"] {
            let fp = string(p, &at, name)?;
            if fp.len() != 16 || !fp.bytes().all(|b| b.is_ascii_hexdigit()) {
                return Err(format!("{at}: {name} must be 16 hex digits, got {fp:?}"));
            }
        }
        let opts = field(p, &at, "options")?;
        for (name, _) in crate::plan::PlanOptions::default().flags() {
            boolean(opts, &join(&at, "options"), name)?;
        }
        for (j, pass) in array(p, &at, "passes")?.iter().enumerate() {
            let pat = format!("{at}.passes[{j}]");
            check_pass(pass, &pat)?;
            string(pass, &pat, "before")?;
            string(pass, &pat, "after")?;
        }
        let bdd = nullable(p, &at, "bdd")?;
        if let Some(bdd) = bdd {
            let bat = join(&at, "bdd");
            let test = string(bdd, &bat, "test")?;
            member(
                &bat,
                "test",
                test,
                crate::plan::BddTest::ALL.map(|t| t.name()),
            )?;
            strings(bdd, &bat, "stripped")?;
            boolean(bdd, &bat, "join_rename")?;
        }
        let sql = nullable(p, &at, "sql")?;
        if let Some(sql) = sql {
            let sat = join(&at, "sql");
            string(sql, &sat, "shape")?;
            strings(sql, &sat, "columns")?;
        }
        strings(p, &at, "ladder")?;
        let got: Vec<&str> = array(p, &at, "ladder")?
            .iter()
            .filter_map(Json::as_str)
            .collect();
        let want = crate::plan::ladder_for(bdd.is_some(), sql.is_some());
        if got != want {
            return Err(format!(
                "{at}: ladder {got:?} does not match steps (want {want:?})"
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_round_trip() {
        let text = r#"{"a": [1, 2.5, "x\n", true, null], "b": {"c": -7}}"#;
        let v = parse_json(text).unwrap();
        assert_eq!(v.get("b").unwrap().get("c").unwrap().as_int(), Some(-7));
        let arr = v.get("a").unwrap().as_arr().unwrap();
        assert_eq!(arr[0].as_int(), Some(1));
        assert_eq!(arr[1], Json::Float(2.5));
        assert_eq!(arr[2].as_str(), Some("x\n"));
        assert_eq!(arr[3], Json::Bool(true));
        assert_eq!(arr[4], Json::Null);
    }

    #[test]
    fn json_rejects_trailing_garbage() {
        assert!(parse_json("{} extra").is_err());
        assert!(parse_json("[1,").is_err());
        assert!(parse_json("").is_err());
    }

    #[test]
    fn json_strings_decode_escapes_around_multibyte_runs() {
        let v = parse_json(r#""Mötley \"Crüe\"é\\ ok\t✓""#).unwrap();
        assert_eq!(v.as_str(), Some("Mötley \"Crüe\"é\\ ok\t✓"));
        assert!(parse_json(r#""unterminated"#).is_err());
        assert!(parse_json(r#""dangling \"#).is_err());
        assert!(parse_json(r#""bad \q escape""#).is_err());
        assert!(parse_json(r#""short \u12""#).is_err());
    }

    #[test]
    fn json_parses_a_long_string_in_linear_time() {
        // Each unescaped run is copied as one slice; re-validating the
        // rest of the document per character made this quadratic.
        let name = "a".repeat(400_000);
        let doc = RunMetrics {
            constraints: vec![(
                name.clone(),
                report(
                    Verdict::Holds,
                    None,
                    Method::Bdd,
                    trace(None, vec!["bdd"], 1),
                ),
            )],
            ..RunMetrics::default()
        }
        .to_json();
        let start = std::time::Instant::now();
        validate_metrics_json(&doc).unwrap();
        let parsed = parse_json(&doc).unwrap();
        let got = parsed.get("constraints").unwrap().as_arr().unwrap()[0]
            .get("name")
            .unwrap()
            .as_str()
            .unwrap();
        assert_eq!(got, name);
        assert!(
            start.elapsed() < Duration::from_secs(2),
            "parsing a 400 kB string took {:?}",
            start.elapsed()
        );
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        let deep = "[".repeat(200_000);
        let err = parse_json(&deep).unwrap_err();
        assert!(err.contains("nesting"), "{err}");
        // Every entry point that parses outside input returns the error.
        assert!(validate_metrics_json(&deep)
            .unwrap_err()
            .contains("nesting"));
        assert!(validate_plan_json(&deep).unwrap_err().contains("nesting"));
        let objects = "{\"k\":".repeat(200_000);
        assert!(matches!(
            crate::certify::parse_bundle(&objects),
            Err(crate::certify::AuditError::Json(e)) if e.contains("nesting")
        ));
        // The cap sits well above the deepest document we write.
        let ok = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        parse_json(&ok).unwrap();
        let over = format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        assert!(parse_json(&over).is_err());
    }

    #[test]
    fn writer_escapes_strings() {
        let mut w = JsonWriter::new();
        w.obj_open();
        w.key("k");
        w.string("a\"b\\c\nd");
        w.obj_close();
        let text = w.finish();
        let v = parse_json(&text).unwrap();
        assert_eq!(v.get("k").unwrap().as_str(), Some("a\"b\\c\nd"));
    }

    #[test]
    fn empty_metrics_document_validates() {
        validate_metrics_json(&RunMetrics::default().to_json()).unwrap();
    }

    #[test]
    fn validator_rejects_other_schema_versions() {
        // The validator reads exactly the version the writer emits: no
        // document of an older (or future) schema is accepted.
        let doc = golden_metrics().to_json();
        validate_metrics_json(&doc).unwrap();
        for version in (1..=12).chain([14]) {
            let other = doc.replace(
                "\"schema_version\":13",
                &format!("\"schema_version\":{version}"),
            );
            let err = validate_metrics_json(&other).unwrap_err();
            assert!(err.contains("schema_version"), "v{version}: {err}");
        }
        // A block an older schema lacked is still required.
        for block in ["serve", "audit", "overload"] {
            let stripped = RunMetrics::default()
                .to_json()
                .replace(&format!(",\"{block}\":null"), "");
            let err = validate_metrics_json(&stripped).unwrap_err();
            assert!(err.contains(block), "{block}: {err}");
        }
    }

    #[test]
    fn plan_validator_rejects_other_schema_versions() {
        let mut db = relcheck_relstore::Database::new();
        db.create_relation(
            "R",
            &[("a", "d")],
            vec![vec![relcheck_relstore::Raw::Int(1)]],
        )
        .unwrap();
        let f = relcheck_logic::parse("forall x. R(x) -> x = 1").unwrap();
        let plan = crate::planner::plan_check(
            &db,
            &f,
            crate::plan::PlanOptions::default(),
            &Default::default(),
            0,
        );
        let doc = crate::plan::plans_to_json(&[("c".to_owned(), plan)]);
        validate_plan_json(&doc).unwrap();
        for version in [1, 3] {
            let other = doc.replace(
                "\"schema_version\":2",
                &format!("\"schema_version\":{version}"),
            );
            assert_ne!(other, doc, "v{version}: rewrite matched nothing");
            let err = validate_plan_json(&other).unwrap_err();
            assert!(err.contains("schema_version"), "v{version}: {err}");
        }
    }

    #[test]
    fn validator_rejects_off_vocabulary_names() {
        let doc = golden_metrics().to_json();
        for (from, to) in [
            ("\"verdict\":\"holds\"", "\"verdict\":\"fine\""),
            ("\"method\":\"bdd\"", "\"method\":\"magic\""),
            ("\"rule\":\"R2\"", "\"rule\":\"R5\""),
            ("\"pass\":\"refutation-nnf\"", "\"pass\":\"inline\""),
            ("\"provenance\":\"reused\"", "\"provenance\":\"borrowed\""),
            ("\"reason\":\"deadline\"", "\"reason\":\"bored\""),
            ("\"degraded\"]", "\"given_up\"]"),
        ] {
            let bad = doc.replacen(from, to, 1);
            assert_ne!(bad, doc, "{from} not in the golden document");
            let err = validate_metrics_json(&bad).unwrap_err();
            assert!(err.contains("unknown"), "{from}: {err}");
        }
    }

    #[test]
    fn validator_rejects_removed_rungs_and_disordered_ladders() {
        // Schema 12's retry rung and its reason are no longer vocabulary,
        // and a ladder visits each rung at most once, in ladder order.
        let doc = golden_metrics().to_json();
        for (from, to, want) in [
            (
                "\"ladder\":[\"bdd\",\"sql\"]",
                "\"ladder\":[\"bdd\",\"gc_retry\",\"sql\"]",
                "unknown rung \"gc_retry\"",
            ),
            (
                "\"reason\":\"node_limit\"",
                "\"reason\":\"retry_exhausted\"",
                "unknown reason \"retry_exhausted\"",
            ),
            (
                "\"ladder\":[\"bdd\",\"sql\"]",
                "\"ladder\":[\"sql\",\"bdd\"]",
                "rung \"bdd\" is out of order or repeated",
            ),
            (
                "\"ladder\":[\"bdd\",\"sql\"]",
                "\"ladder\":[\"bdd\",\"sql\",\"sql\"]",
                "rung \"sql\" is out of order or repeated",
            ),
        ] {
            let bad = doc.replacen(from, to, 1);
            assert_ne!(bad, doc, "{from} not in the golden document");
            let err = validate_metrics_json(&bad).unwrap_err();
            assert!(err.contains(want), "{to}: {err}");
        }
    }

    #[test]
    fn validator_checks_counter_tables() {
        // Every field of a counter table is required, integral and >= 0.
        let doc = golden_metrics().to_json();
        for (from, to) in [
            ("\"requests\":9,", ""),
            ("\"witnesses\":12", "\"witnesses\":\"12\""),
            ("\"watchdog_fires\":1", "\"watchdog_fires\":-1"),
            ("\"index_ns\":101,", ""),
            ("\"gc_runs\":1,", "\"gc_runs\":-1,"),
            ("\"fallbacks\":6", "\"fallbacks\":1.5"),
            ("\"limit\":500,", ""),
        ] {
            let bad = doc.replacen(from, to, 1);
            assert_ne!(bad, doc, "{from} not in the golden document");
            assert!(validate_metrics_json(&bad).is_err(), "{from} -> {to}");
        }
    }

    #[test]
    fn index_cache_metrics_validate_and_conserve() {
        let mut m = RunMetrics {
            index_cache: Some(IndexCacheMetrics {
                hits: 1,
                misses: 2,
                rebuilds: 1,
                journal_replayed: 5,
                write_failures: 0,
                recoveries: vec![RecoveryRecord {
                    relation: "R".to_owned(),
                    reason: recovery_reason::SEGMENT_CORRUPT,
                    detail: "checksum mismatch at offset 20".to_owned(),
                }],
            }),
            ..RunMetrics::default()
        };
        validate_metrics_json(&m.to_json()).unwrap();
        // A rebuild with no recovery record explaining it must fail.
        m.index_cache.as_mut().unwrap().rebuilds = 2;
        let err = validate_metrics_json(&m.to_json()).unwrap_err();
        assert!(err.contains("rebuilds"), "{err}");
        // An off-vocabulary reason must fail (hand-edit the JSON: the
        // typed constructor cannot produce one).
        m.index_cache.as_mut().unwrap().rebuilds = 1;
        let doc = m.to_json().replace("segment_corrupt", "gremlins");
        let err = validate_metrics_json(&doc).unwrap_err();
        assert!(err.contains("unknown reason"), "{err}");
        // The writer always emits the field, so it is required.
        let doc = m.to_json();
        let stripped = doc.replace(
            &doc[doc.find(",\"index_cache\"").unwrap()..doc.rfind('}').unwrap()],
            "",
        );
        let err = validate_metrics_json(&stripped).unwrap_err();
        assert!(err.contains("index_cache"), "{err}");
    }

    fn serve_counters() -> ServeMetrics {
        ServeMetrics {
            requests: 5,
            deltas: 2,
            checks: 2,
            constraints_checked: 3,
            constraints_skipped: 5,
            dirty_peak: 2,
            dirty_total: 3,
            incremental_ns: 10,
            full_ns: 20,
        }
    }

    #[test]
    fn serve_metrics_validate_and_conserve() {
        let mut m = RunMetrics {
            serve: Some(serve_counters()),
            ..RunMetrics::default()
        };
        validate_metrics_json(&m.to_json()).unwrap();
        // The peak dirty-set size is one of the summed sizes: peak >
        // total cannot happen in a faithful document.
        m.serve.as_mut().unwrap().dirty_peak = 9;
        let err = validate_metrics_json(&m.to_json()).unwrap_err();
        assert!(err.contains("dirty_peak"), "{err}");
        m.serve.as_mut().unwrap().dirty_peak = 2;
        // Every delta and check is a request.
        m.serve.as_mut().unwrap().requests = 1;
        let err = validate_metrics_json(&m.to_json()).unwrap_err();
        assert!(err.contains("requests"), "{err}");
        m.serve.as_mut().unwrap().requests = 5;
        // The writer always emits the field, so it is required.
        let doc = m.to_json();
        let stripped = doc.replace(
            &doc[doc.find(",\"serve\"").unwrap()..doc.rfind('}').unwrap()],
            "",
        );
        let err = validate_metrics_json(&stripped).unwrap_err();
        assert!(err.contains("serve"), "{err}");
        // Batch runs carry it as null; that validates.
        m.serve = None;
        validate_metrics_json(&m.to_json()).unwrap();
    }

    #[test]
    fn validator_checks_overload_block() {
        let mut m = RunMetrics {
            serve: Some(serve_counters()),
            overload: Some(OverloadMetrics {
                admitted: 6,
                shed: 2,
                rejected: 3,
                retries: 1,
                watchdog_fires: 0,
                drained: 1,
            }),
            ..RunMetrics::default()
        };
        validate_metrics_json(&m.to_json()).unwrap();
        // Shed requests are a subset of admitted ones.
        m.overload.as_mut().unwrap().shed = 9;
        let err = validate_metrics_json(&m.to_json()).unwrap_err();
        assert!(err.contains("overload.shed"), "{err}");
        m.overload.as_mut().unwrap().shed = 2;
        // The drain phase only serves admitted requests.
        m.overload.as_mut().unwrap().drained = 9;
        let err = validate_metrics_json(&m.to_json()).unwrap_err();
        assert!(err.contains("overload.drained"), "{err}");
        m.overload.as_mut().unwrap().drained = 1;
        // Every engine-visible request went through admission.
        m.serve.as_mut().unwrap().requests = 9;
        m.serve.as_mut().unwrap().constraints_skipped = 9;
        let err = validate_metrics_json(&m.to_json()).unwrap_err();
        assert!(err.contains("overload.admitted"), "{err}");
        m.serve.as_mut().unwrap().requests = 5;
        // The writer always emits the field, even as null; batch runs
        // carry it as null and that validates.
        m.overload = None;
        let doc = m.to_json();
        validate_metrics_json(&doc).unwrap();
        let stripped = doc.replace(",\"overload\":null", "");
        let err = validate_metrics_json(&stripped).unwrap_err();
        assert!(err.contains("overload"), "{err}");
    }

    #[test]
    fn validator_checks_audit_block() {
        let mut m = RunMetrics {
            audit: Some(AuditMetrics {
                emitted: 3,
                verified: 3,
                failed: 0,
                witnesses: 7,
            }),
            ..RunMetrics::default()
        };
        validate_metrics_json(&m.to_json()).unwrap();
        // Every verification outcome refers to an emitted certificate.
        m.audit.as_mut().unwrap().failed = 2;
        let err = validate_metrics_json(&m.to_json()).unwrap_err();
        assert!(err.contains("audit.verified"), "{err}");
        // Verify-only runs report emitted = 0; tallies stand alone.
        m.audit = Some(AuditMetrics {
            emitted: 0,
            verified: 4,
            failed: 1,
            witnesses: 0,
        });
        validate_metrics_json(&m.to_json()).unwrap();
        // The writer always emits the field, even as null.
        m.audit = None;
        let doc = m.to_json();
        let stripped = doc.replace(",\"audit\":null", "");
        let err = validate_metrics_json(&stripped).unwrap_err();
        assert!(err.contains("audit"), "{err}");
        validate_metrics_json(&doc).unwrap();
    }

    #[test]
    fn validator_rejects_a_run_bdd_block_that_breaks_conservation() {
        let mut bdd = RunBdd {
            peak_nodes: 10,
            depth_hwm: 3,
            ..RunBdd::default()
        };
        bdd.delta.ops[0].calls = 2;
        bdd.delta.ops[0].cache_hits = 1;
        bdd.delta.ops[0].cache_misses = 1;
        bdd.delta.cache_hits = 1;
        bdd.delta.cache_misses = 1;
        let good = RunMetrics {
            bdd: Some(bdd),
            ..RunMetrics::default()
        };
        validate_metrics_json(&good.to_json()).unwrap();
        let mut bad = good.clone();
        bad.bdd.as_mut().unwrap().delta.ops[0].calls += 1;
        let err = validate_metrics_json(&bad.to_json()).unwrap_err();
        assert!(err.contains("bdd.ops[apply]"), "{err}");
        // The ops' hits and misses sum to the block's totals.
        let mut bad = good.clone();
        bad.bdd.as_mut().unwrap().delta.cache_misses += 1;
        let err = validate_metrics_json(&bad.to_json()).unwrap_err();
        assert!(err.contains("bdd: the ops' cache_misses sum to 1"), "{err}");
        // The high-water marks are required counters of the block.
        let doc = good.to_json().replace("\"depth_hwm\":3,", "");
        let err = validate_metrics_json(&doc).unwrap_err();
        assert!(err.contains("bdd.depth_hwm"), "{err}");
    }

    #[test]
    fn validator_requires_one_trace_per_constraint_that_agrees_with_it() {
        let golden = golden_metrics();
        validate_metrics_json(&golden.to_json()).unwrap();
        // A constraint without a trace.
        let one = RunMetrics {
            constraints: vec![golden.constraints[0].clone()],
            ..RunMetrics::default()
        };
        let doc = one.to_json();
        validate_metrics_json(&doc).unwrap();
        let (head, tail) = doc.split_at(doc.find("\"trace\":").unwrap());
        let rest = &tail[tail.find("}],\"bdd\"").unwrap()..];
        let err = validate_metrics_json(&format!("{head}\"trace\":null{rest}")).unwrap_err();
        assert!(err.contains("constraints[0].trace"), "{err}");
        // The ladder's last rung names the method: `bdd` is no SQL answer.
        let mut bad = golden.clone();
        bad.constraints[0].1.method = Method::SqlFallback;
        let err = validate_metrics_json(&bad.to_json()).unwrap_err();
        assert!(
            err.contains("constraints[0].trace.ladder ends on \"bdd\""),
            "{err}"
        );
        // Nor may an undecided check end on a deciding rung.
        let mut bad = golden.clone();
        bad.constraints[4].1.trace.ladder.pop();
        let err = validate_metrics_json(&bad.to_json()).unwrap_err();
        assert!(err.contains("disagrees with method \"aborted\""), "{err}");
        // Every check walks a rung.
        let mut bad = golden.clone();
        bad.constraints[0].1.trace.ladder.clear();
        let err = validate_metrics_json(&bad.to_json()).unwrap_err();
        assert!(err.contains("at least one rung"), "{err}");
    }

    #[test]
    fn validator_counts_the_fallbacks_the_traces_record() {
        let mut m = golden_metrics();
        m.degradation.fallbacks = 5;
        let err = validate_metrics_json(&m.to_json()).unwrap_err();
        assert!(
            err.contains("degradation.fallbacks = 5 but 6 traces record a fallback"),
            "{err}"
        );
        m.degradation.fallbacks = 6;
        m.constraints[0].1.trace.fallback = Some(FallbackReason::Deadline);
        let err = validate_metrics_json(&m.to_json()).unwrap_err();
        assert!(err.contains("but 7 traces"), "{err}");
    }

    #[test]
    fn validator_sums_a_trace_blocks_ops_to_its_totals() {
        let mut m = golden_metrics();
        m.constraints[1].1.trace.bdd.cache_hits += 1;
        let err = validate_metrics_json(&m.to_json()).unwrap_err();
        assert!(
            err.contains("constraints[1].trace.bdd: the ops' cache_hits sum to 65"),
            "{err}"
        );
    }

    /// A `bdd` delta whose counters all derive from `seed` and which
    /// keeps both conservation laws.
    fn delta(seed: u64) -> StatsDelta {
        let mut d = StatsDelta {
            created_nodes: 10 * seed,
            gc_runs: seed,
            ..Default::default()
        };
        for (i, op) in d.ops.iter_mut().enumerate() {
            let i = i as u64;
            op.cache_hits = seed + i;
            op.cache_misses = i;
            op.calls = seed + 2 * i;
            d.cache_hits += op.cache_hits;
            d.cache_misses += op.cache_misses;
        }
        d
    }

    /// A trace with a full planner record, the given fallback and ladder.
    fn trace(fallback: Option<FallbackReason>, ladder: Vec<&'static str>, seed: u64) -> CheckTrace {
        CheckTrace {
            rules: vec![
                RuleFiring {
                    rule: RewriteRule::R3PrenexPullup,
                    count: 2,
                },
                RuleFiring {
                    rule: RewriteRule::R1LeadingBlock,
                    count: 1,
                },
                RuleFiring {
                    rule: RewriteRule::R4ForallPushdown,
                    count: 1,
                },
                RuleFiring {
                    rule: RewriteRule::R2JoinRename,
                    count: 3,
                },
            ],
            passes: vec![
                PassStat {
                    pass: "prenex-pullup",
                    rule: Some(RewriteRule::R3PrenexPullup),
                    fired: 2,
                    gated: 0,
                },
                PassStat {
                    pass: "refutation-nnf",
                    rule: None,
                    fired: 1,
                    gated: 0,
                },
                PassStat {
                    pass: "forall-pushdown",
                    rule: Some(RewriteRule::R4ForallPushdown),
                    fired: 1,
                    gated: 1,
                },
            ],
            index_events: vec![
                IndexEvent {
                    relation: "CUST".to_owned(),
                    provenance: IndexProvenance::Built,
                },
                IndexEvent {
                    relation: "ALLOWED".to_owned(),
                    provenance: IndexProvenance::Reused,
                },
                IndexEvent {
                    relation: "BIG".to_owned(),
                    provenance: IndexProvenance::SqlOnly,
                },
            ],
            fallback,
            ladder,
            timings: PhaseTimings {
                index: Duration::from_nanos(100 + seed),
                eval: Duration::from_nanos(200 + seed),
            },
            bdd: delta(seed),
        }
    }

    fn report(
        verdict: Verdict,
        error: Option<&str>,
        method: Method,
        trace: CheckTrace,
    ) -> CheckReport {
        CheckReport {
            holds: verdict != Verdict::Violated,
            verdict,
            error: error.map(str::to_owned),
            method,
            elapsed: Duration::from_nanos(1234),
            live_nodes: 0,
            trace,
        }
    }

    /// One document exercising every block the writer can emit: all
    /// optional blocks present, a run-level `bdd` block, armed-failpoint
    /// evidence, an index-cache recovery, all five fallback reasons, a
    /// pass with no paper rule, and every ladder rung.
    fn golden_metrics() -> RunMetrics {
        let named = |name: &str, report| (name.to_owned(), report);
        RunMetrics {
            constraints: vec![
                named(
                    "stays-on-bdd",
                    report(
                        Verdict::Holds,
                        None,
                        Method::Bdd,
                        trace(None, vec!["bdd"], 1),
                    ),
                ),
                named(
                    "node-limit",
                    report(
                        Verdict::Violated,
                        None,
                        Method::SqlFallback,
                        trace(
                            Some(FallbackReason::NodeLimit {
                                limit: 500,
                                live: 501,
                            }),
                            vec!["bdd", "sql"],
                            2,
                        ),
                    ),
                ),
                named(
                    "unindexed",
                    report(
                        Verdict::Holds,
                        None,
                        Method::SqlFallback,
                        trace(Some(FallbackReason::UnindexedRelation), vec!["sql"], 3),
                    ),
                ),
                named(
                    "deadline",
                    report(
                        Verdict::Holds,
                        None,
                        Method::BruteForce,
                        trace(
                            Some(FallbackReason::Deadline),
                            vec!["bdd", "sql", "brute_force"],
                            4,
                        ),
                    ),
                ),
                named(
                    "degraded",
                    report(
                        Verdict::Degraded,
                        Some("every rung failed"),
                        Method::Aborted,
                        trace(
                            Some(FallbackReason::NodeLimit {
                                limit: 500,
                                live: 777,
                            }),
                            vec!["bdd", "sql", "brute_force", "degraded"],
                            5,
                        ),
                    ),
                ),
                named(
                    "panicked",
                    report(
                        Verdict::Errored,
                        Some("injected \"fault\"\n"),
                        Method::Aborted,
                        trace(
                            Some(FallbackReason::Panic("injected \"fault\"\n".to_owned())),
                            vec!["errored"],
                            6,
                        ),
                    ),
                ),
                named(
                    "shed",
                    report(
                        Verdict::Violated,
                        None,
                        Method::SqlFallback,
                        trace(Some(FallbackReason::Overload), vec!["sql"], 7),
                    ),
                ),
            ],
            bdd: Some(RunBdd {
                delta: delta(3),
                peak_nodes: 250,
                depth_hwm: 9,
            }),
            degradation: DegradationSummary {
                degraded: 1,
                errored: 1,
                fallbacks: 6,
                failpoints: Some((u64::MAX, vec![("apply", 3), ("index-build", 0)])),
            },
            index_cache: Some(IndexCacheMetrics {
                hits: 1,
                misses: 2,
                rebuilds: 1,
                journal_replayed: 4,
                write_failures: 1,
                recoveries: vec![
                    RecoveryRecord {
                        relation: "CUST".to_owned(),
                        reason: recovery_reason::SEGMENT_CORRUPT,
                        detail: "checksum mismatch at offset 20".to_owned(),
                    },
                    RecoveryRecord {
                        relation: "ALLOWED".to_owned(),
                        reason: recovery_reason::JOURNAL_TORN,
                        detail: "tail of 7 bytes discarded".to_owned(),
                    },
                ],
            }),
            serve: Some(ServeMetrics {
                requests: 9,
                deltas: 4,
                checks: 3,
                constraints_checked: 5,
                constraints_skipped: 7,
                dirty_peak: 2,
                dirty_total: 4,
                incremental_ns: 1500,
                full_ns: 9000,
            }),
            audit: Some(AuditMetrics {
                emitted: 8,
                verified: 7,
                failed: 1,
                witnesses: 12,
            }),
            overload: Some(OverloadMetrics {
                admitted: 11,
                shed: 2,
                rejected: 3,
                retries: 1,
                watchdog_fires: 1,
                drained: 2,
            }),
        }
    }

    /// The metrics bytes are pinned: this literal must only change
    /// together with `schema_version`.
    #[test]
    fn golden_metrics_document_bytes() {
        let doc = golden_metrics().to_json();
        validate_metrics_json(&doc).unwrap();
        assert_eq!(doc, GOLDEN_METRICS);
    }

    const GOLDEN_METRICS: &str = concat!(
        r#"{"schema_version":13,"tool":"relcheck","constraints":["#,
        r#"{"name":"stays-on-bdd","holds":true,"verdict":"holds","error":null,"method":"bdd","elapsed_ns":1234,"#,
        r#""trace":{"rules":[{"rule":"R3","count":2},{"rule":"R1","count":1},{"rule":"R4","count":1},{"rule":"R2","count":3}],"#,
        r#""passes":[{"pass":"prenex-pullup","rule":"R3","fired":2,"gated":0},{"pass":"refutation-nnf","rule":null,"fired":1,"gated":0},{"pass":"forall-pushdown","rule":"R4","fired":1,"gated":1}],"#,
        r#""index_events":[{"relation":"CUST","provenance":"built"},{"relation":"ALLOWED","provenance":"reused"},{"relation":"BIG","provenance":"sql_only"}],"#,
        r#""fallback":null,"ladder":["bdd"],"timings":{"index_ns":101,"eval_ns":201},"#,
        r#""bdd":{"created_nodes":10,"cache_hits":55,"cache_misses":45,"gc_runs":1,"ops":[{"op":"apply","calls":1,"cache_hits":1,"cache_misses":0},{"op":"not","calls":3,"cache_hits":2,"cache_misses":1},{"op":"ite","calls":5,"cache_hits":3,"cache_misses":2},"#,
        r#"{"op":"exists","calls":7,"cache_hits":4,"cache_misses":3},{"op":"forall","calls":9,"cache_hits":5,"cache_misses":4},{"op":"app_exists","calls":11,"cache_hits":6,"cache_misses":5},{"op":"app_forall","calls":13,"cache_hits":7,"cache_misses":6},"#,
        r#"{"op":"replace","calls":15,"cache_hits":8,"cache_misses":7},{"op":"restrict","calls":17,"cache_hits":9,"cache_misses":8},{"op":"constrain","calls":19,"cache_hits":10,"cache_misses":9}]}}},"#,
        r#"{"name":"node-limit","holds":false,"verdict":"violated","error":null,"method":"sql_fallback","elapsed_ns":1234,"#,
        r#""trace":{"rules":[{"rule":"R3","count":2},{"rule":"R1","count":1},{"rule":"R4","count":1},{"rule":"R2","count":3}],"#,
        r#""passes":[{"pass":"prenex-pullup","rule":"R3","fired":2,"gated":0},{"pass":"refutation-nnf","rule":null,"fired":1,"gated":0},{"pass":"forall-pushdown","rule":"R4","fired":1,"gated":1}],"#,
        r#""index_events":[{"relation":"CUST","provenance":"built"},{"relation":"ALLOWED","provenance":"reused"},{"relation":"BIG","provenance":"sql_only"}],"#,
        r#""fallback":{"reason":"node_limit","limit":500,"live":501},"ladder":["bdd","sql"],"timings":{"index_ns":102,"eval_ns":202},"#,
        r#""bdd":{"created_nodes":20,"cache_hits":65,"cache_misses":45,"gc_runs":2,"ops":[{"op":"apply","calls":2,"cache_hits":2,"cache_misses":0},{"op":"not","calls":4,"cache_hits":3,"cache_misses":1},{"op":"ite","calls":6,"cache_hits":4,"cache_misses":2},"#,
        r#"{"op":"exists","calls":8,"cache_hits":5,"cache_misses":3},{"op":"forall","calls":10,"cache_hits":6,"cache_misses":4},{"op":"app_exists","calls":12,"cache_hits":7,"cache_misses":5},{"op":"app_forall","calls":14,"cache_hits":8,"cache_misses":6},"#,
        r#"{"op":"replace","calls":16,"cache_hits":9,"cache_misses":7},{"op":"restrict","calls":18,"cache_hits":10,"cache_misses":8},{"op":"constrain","calls":20,"cache_hits":11,"cache_misses":9}]}}},"#,
        r#"{"name":"unindexed","holds":true,"verdict":"holds","error":null,"method":"sql_fallback","elapsed_ns":1234,"#,
        r#""trace":{"rules":[{"rule":"R3","count":2},{"rule":"R1","count":1},{"rule":"R4","count":1},{"rule":"R2","count":3}],"#,
        r#""passes":[{"pass":"prenex-pullup","rule":"R3","fired":2,"gated":0},{"pass":"refutation-nnf","rule":null,"fired":1,"gated":0},{"pass":"forall-pushdown","rule":"R4","fired":1,"gated":1}],"#,
        r#""index_events":[{"relation":"CUST","provenance":"built"},{"relation":"ALLOWED","provenance":"reused"},{"relation":"BIG","provenance":"sql_only"}],"#,
        r#""fallback":{"reason":"unindexed_relation"},"ladder":["sql"],"timings":{"index_ns":103,"eval_ns":203},"#,
        r#""bdd":{"created_nodes":30,"cache_hits":75,"cache_misses":45,"gc_runs":3,"ops":[{"op":"apply","calls":3,"cache_hits":3,"cache_misses":0},{"op":"not","calls":5,"cache_hits":4,"cache_misses":1},{"op":"ite","calls":7,"cache_hits":5,"cache_misses":2},"#,
        r#"{"op":"exists","calls":9,"cache_hits":6,"cache_misses":3},{"op":"forall","calls":11,"cache_hits":7,"cache_misses":4},{"op":"app_exists","calls":13,"cache_hits":8,"cache_misses":5},{"op":"app_forall","calls":15,"cache_hits":9,"cache_misses":6},"#,
        r#"{"op":"replace","calls":17,"cache_hits":10,"cache_misses":7},{"op":"restrict","calls":19,"cache_hits":11,"cache_misses":8},{"op":"constrain","calls":21,"cache_hits":12,"cache_misses":9}]}}},"#,
        r#"{"name":"deadline","holds":true,"verdict":"holds","error":null,"method":"brute_force","elapsed_ns":1234,"#,
        r#""trace":{"rules":[{"rule":"R3","count":2},{"rule":"R1","count":1},{"rule":"R4","count":1},{"rule":"R2","count":3}],"#,
        r#""passes":[{"pass":"prenex-pullup","rule":"R3","fired":2,"gated":0},{"pass":"refutation-nnf","rule":null,"fired":1,"gated":0},{"pass":"forall-pushdown","rule":"R4","fired":1,"gated":1}],"#,
        r#""index_events":[{"relation":"CUST","provenance":"built"},{"relation":"ALLOWED","provenance":"reused"},{"relation":"BIG","provenance":"sql_only"}],"#,
        r#""fallback":{"reason":"deadline"},"ladder":["bdd","sql","brute_force"],"timings":{"index_ns":104,"eval_ns":204},"#,
        r#""bdd":{"created_nodes":40,"cache_hits":85,"cache_misses":45,"gc_runs":4,"ops":[{"op":"apply","calls":4,"cache_hits":4,"cache_misses":0},{"op":"not","calls":6,"cache_hits":5,"cache_misses":1},{"op":"ite","calls":8,"cache_hits":6,"cache_misses":2},"#,
        r#"{"op":"exists","calls":10,"cache_hits":7,"cache_misses":3},{"op":"forall","calls":12,"cache_hits":8,"cache_misses":4},{"op":"app_exists","calls":14,"cache_hits":9,"cache_misses":5},{"op":"app_forall","calls":16,"cache_hits":10,"cache_misses":6},"#,
        r#"{"op":"replace","calls":18,"cache_hits":11,"cache_misses":7},{"op":"restrict","calls":20,"cache_hits":12,"cache_misses":8},{"op":"constrain","calls":22,"cache_hits":13,"cache_misses":9}]}}},"#,
        r#"{"name":"degraded","holds":true,"verdict":"degraded","error":"every rung failed","method":"aborted","elapsed_ns":1234,"#,
        r#""trace":{"rules":[{"rule":"R3","count":2},{"rule":"R1","count":1},{"rule":"R4","count":1},{"rule":"R2","count":3}],"#,
        r#""passes":[{"pass":"prenex-pullup","rule":"R3","fired":2,"gated":0},{"pass":"refutation-nnf","rule":null,"fired":1,"gated":0},{"pass":"forall-pushdown","rule":"R4","fired":1,"gated":1}],"#,
        r#""index_events":[{"relation":"CUST","provenance":"built"},{"relation":"ALLOWED","provenance":"reused"},{"relation":"BIG","provenance":"sql_only"}],"#,
        r#""fallback":{"reason":"node_limit","limit":500,"live":777},"ladder":["bdd","sql","brute_force","degraded"],"timings":{"index_ns":105,"eval_ns":205},"#,
        r#""bdd":{"created_nodes":50,"cache_hits":95,"cache_misses":45,"gc_runs":5,"ops":[{"op":"apply","calls":5,"cache_hits":5,"cache_misses":0},{"op":"not","calls":7,"cache_hits":6,"cache_misses":1},{"op":"ite","calls":9,"cache_hits":7,"cache_misses":2},"#,
        r#"{"op":"exists","calls":11,"cache_hits":8,"cache_misses":3},{"op":"forall","calls":13,"cache_hits":9,"cache_misses":4},{"op":"app_exists","calls":15,"cache_hits":10,"cache_misses":5},{"op":"app_forall","calls":17,"cache_hits":11,"cache_misses":6},"#,
        r#"{"op":"replace","calls":19,"cache_hits":12,"cache_misses":7},{"op":"restrict","calls":21,"cache_hits":13,"cache_misses":8},{"op":"constrain","calls":23,"cache_hits":14,"cache_misses":9}]}}},"#,
        r#"{"name":"panicked","holds":true,"verdict":"errored","error":"injected \"fault\"\n","method":"aborted","elapsed_ns":1234,"#,
        r#""trace":{"rules":[{"rule":"R3","count":2},{"rule":"R1","count":1},{"rule":"R4","count":1},{"rule":"R2","count":3}],"#,
        r#""passes":[{"pass":"prenex-pullup","rule":"R3","fired":2,"gated":0},{"pass":"refutation-nnf","rule":null,"fired":1,"gated":0},{"pass":"forall-pushdown","rule":"R4","fired":1,"gated":1}],"#,
        r#""index_events":[{"relation":"CUST","provenance":"built"},{"relation":"ALLOWED","provenance":"reused"},{"relation":"BIG","provenance":"sql_only"}],"#,
        r#""fallback":{"reason":"panic","message":"injected \"fault\"\n"},"ladder":["errored"],"timings":{"index_ns":106,"eval_ns":206},"#,
        r#""bdd":{"created_nodes":60,"cache_hits":105,"cache_misses":45,"gc_runs":6,"ops":[{"op":"apply","calls":6,"cache_hits":6,"cache_misses":0},{"op":"not","calls":8,"cache_hits":7,"cache_misses":1},{"op":"ite","calls":10,"cache_hits":8,"cache_misses":2},"#,
        r#"{"op":"exists","calls":12,"cache_hits":9,"cache_misses":3},{"op":"forall","calls":14,"cache_hits":10,"cache_misses":4},{"op":"app_exists","calls":16,"cache_hits":11,"cache_misses":5},{"op":"app_forall","calls":18,"cache_hits":12,"cache_misses":6},"#,
        r#"{"op":"replace","calls":20,"cache_hits":13,"cache_misses":7},{"op":"restrict","calls":22,"cache_hits":14,"cache_misses":8},{"op":"constrain","calls":24,"cache_hits":15,"cache_misses":9}]}}},"#,
        r#"{"name":"shed","holds":false,"verdict":"violated","error":null,"method":"sql_fallback","elapsed_ns":1234,"#,
        r#""trace":{"rules":[{"rule":"R3","count":2},{"rule":"R1","count":1},{"rule":"R4","count":1},{"rule":"R2","count":3}],"#,
        r#""passes":[{"pass":"prenex-pullup","rule":"R3","fired":2,"gated":0},{"pass":"refutation-nnf","rule":null,"fired":1,"gated":0},{"pass":"forall-pushdown","rule":"R4","fired":1,"gated":1}],"#,
        r#""index_events":[{"relation":"CUST","provenance":"built"},{"relation":"ALLOWED","provenance":"reused"},{"relation":"BIG","provenance":"sql_only"}],"#,
        r#""fallback":{"reason":"overload"},"ladder":["sql"],"timings":{"index_ns":107,"eval_ns":207},"#,
        r#""bdd":{"created_nodes":70,"cache_hits":115,"cache_misses":45,"gc_runs":7,"ops":[{"op":"apply","calls":7,"cache_hits":7,"cache_misses":0},{"op":"not","calls":9,"cache_hits":8,"cache_misses":1},{"op":"ite","calls":11,"cache_hits":9,"cache_misses":2},"#,
        r#"{"op":"exists","calls":13,"cache_hits":10,"cache_misses":3},{"op":"forall","calls":15,"cache_hits":11,"cache_misses":4},{"op":"app_exists","calls":17,"cache_hits":12,"cache_misses":5},{"op":"app_forall","calls":19,"cache_hits":13,"cache_misses":6},"#,
        r#"{"op":"replace","calls":21,"cache_hits":14,"cache_misses":7},{"op":"restrict","calls":23,"cache_hits":15,"cache_misses":8},{"op":"constrain","calls":25,"cache_hits":16,"cache_misses":9}]}}}],"#,
        r#""bdd":{"peak_nodes":250,"depth_hwm":9,"created_nodes":30,"cache_hits":75,"cache_misses":45,"gc_runs":3,"ops":[{"op":"apply","calls":3,"cache_hits":3,"cache_misses":0},{"op":"not","calls":5,"cache_hits":4,"cache_misses":1},{"op":"ite","calls":7,"cache_hits":5,"cache_misses":2},"#,
        r#"{"op":"exists","calls":9,"cache_hits":6,"cache_misses":3},{"op":"forall","calls":11,"cache_hits":7,"cache_misses":4},{"op":"app_exists","calls":13,"cache_hits":8,"cache_misses":5},{"op":"app_forall","calls":15,"cache_hits":9,"cache_misses":6},"#,
        r#"{"op":"replace","calls":17,"cache_hits":10,"cache_misses":7},{"op":"restrict","calls":19,"cache_hits":11,"cache_misses":8},{"op":"constrain","calls":21,"cache_hits":12,"cache_misses":9}]},"#,
        r#""degradation":{"degraded":1,"errored":1,"fallbacks":6,"failpoints":{"seed":"18446744073709551615","fired":[{"site":"apply","count":3},{"site":"index-build","count":0}]}},"#,
        r#""index_cache":{"hits":1,"misses":2,"rebuilds":1,"journal_replayed":4,"write_failures":1,"#,
        r#""recoveries":[{"relation":"CUST","reason":"segment_corrupt","detail":"checksum mismatch at offset 20"},{"relation":"ALLOWED","reason":"journal_torn","detail":"tail of 7 bytes discarded"}]},"#,
        r#""serve":{"requests":9,"deltas":4,"checks":3,"constraints_checked":5,"constraints_skipped":7,"dirty_peak":2,"dirty_total":4,"incremental_ns":1500,"full_ns":9000},"#,
        r#""audit":{"emitted":8,"verified":7,"failed":1,"witnesses":12},"#,
        r#""overload":{"admitted":11,"shed":2,"rejected":3,"retries":1,"watchdog_fires":1,"drained":2}}"#,
    );
}

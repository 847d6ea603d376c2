//! Workload-driven decision policy: the telemetry loop, closed.
//!
//! This module holds the routing rules that need more than one line —
//! BDD-vs-SQL routing ([`bdd_route_allowed`], which the planner calls) and
//! admission shedding ([`admission_should_shed`], which [`crate::serve`]
//! calls) — and feeds the routing and apply-cache decisions back from
//! observed telemetry. The adaptive ordering pick is
//! [`relcheck_bdd::order::choose`], the rule
//! [`crate::index::LogicalDatabase::build_index`] applies too. The
//! one-line rules stay at their only callers: a shed check skips the BDD
//! rungs in [`Checker::check`], and [`Checker::new`] takes the apply-cache
//! size from `CheckerOptions::apply_cache_slots` or
//! [`DEFAULT_CACHE_SLOTS`].
//!
//! * [`WorkloadProfile`] — a deterministic, persistable record of what the
//!   check workload actually did: per-relation column-access weights
//!   (from the executor's [`crate::index::LogicalDatabase::record_column_use`]
//!   stream), per-relation routing outcomes (how often checks reading the
//!   relation decided on the BDD vs. the SQL rung), row and index-node
//!   counts, and the manager's peak node population
//!   ([`relcheck_bdd::ManagerStats`]). Only integer counters — no wall
//!   times — so the profile, and everything derived from it, is
//!   byte-deterministic.
//! * [`advise`] — the cost model: per-relation [`IndexAdvice`] (keep the
//!   BDD index, or route to SQL; which ordering candidate the recorded
//!   weights favour; predicted vs. observed costs) and per-constraint
//!   [`RoutePolicy`] (the ladder entry rung the advice implies).
//! * [`apply_advice`] — the auto mode: applies an [`Advice`] to a live
//!   [`Checker`] strictly through the epoch-bumping invalidation paths
//!   ([`Checker::mark_sql_only`], [`Checker::rebuild_index`]), so every
//!   cached verdict that the advice could affect is retired and
//!   **no verdict can change** — only the path that decides it.
//!
//! The profile is persisted in the `--index-cache` directory with the same
//! atomic write-temp/fsync/rename + CRC framing as the store manifest;
//! corruption decodes to a typed error and the caller falls back to a cold
//! profile, never a panic.

use crate::checker::{rung, CheckReport, Checker, Method};
use crate::error::{CoreError, Result};
use crate::telemetry::PolicyMetrics;
use relcheck_bdd::{decode_frame, encode_frame};
use relcheck_bdd::{order, DecodeError};
use relcheck_logic::Formula;
use std::collections::{BTreeMap, HashSet};
use std::fs;
use std::path::Path;
use std::time::Duration;

/// Magic bytes of a persisted workload profile file.
pub const PROFILE_MAGIC: [u8; 4] = *b"RCWP";
/// Format version of the persisted profile frame.
pub const PROFILE_FORMAT: u32 = 2;
/// File name of the profile inside an `--index-cache` directory.
pub const PROFILE_FILE: &str = "workload.profile";

/// Default apply-cache slot count a manager gets with no recorded
/// workload — [`relcheck_bdd::BddManager::new`]'s own default.
pub const DEFAULT_CACHE_SLOTS: usize = 1 << 18;
/// Bounds on the workload-sized apply-cache (slots, power of two).
pub const MIN_CACHE_SLOTS: usize = 1 << 12;
/// Upper bound on the workload-sized apply-cache.
pub const MAX_CACHE_SLOTS: usize = 1 << 22;

/// One relation's recorded workload: a mix of monotone counters (check
/// routing, column weights) and latest-observation state (row count, index
/// node count).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RelationProfile {
    /// Row count at the last recording.
    pub rows: u64,
    /// Node count of the relation's BDD index at the last recording
    /// (0 = no index was materialized).
    pub index_nodes: u64,
    /// Per-column access weights, schema order (the
    /// [`crate::index::LogicalDatabase::record_column_use`] stream).
    pub weights: Vec<u64>,
    /// Checks reading this relation that decided on the BDD rung.
    pub bdd_checks: u64,
    /// Checks reading this relation that decided on the SQL or brute-force
    /// rung.
    pub sql_checks: u64,
}

/// A deterministic record of an observed check workload (see module docs).
///
/// All fields are integers: two profiles recorded from the same check
/// sequence are equal, and every artifact derived from a profile (the
/// advise report, the applied advice) is byte-deterministic.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WorkloadProfile {
    /// Constraint checks folded into this profile.
    pub checks: u64,
    /// Peak live-node population of the BDD manager.
    pub peak_nodes: u64,
    /// Per-relation profiles, keyed by relation name (sorted — the map is
    /// a `BTreeMap` precisely so encoding and reporting are
    /// deterministic).
    pub relations: BTreeMap<String, RelationProfile>,
}

impl WorkloadProfile {
    /// Record a profile from a live checker and the reports of the checks
    /// that ran on it. `constraints` pairs each report's name with its
    /// formula so routing outcomes can be attributed to the relations the
    /// constraint reads; reports with no matching constraint (or vice
    /// versa) simply contribute nothing.
    ///
    /// Manager counters are cumulative over the checker's lifetime, so
    /// record **once per process** and [`WorkloadProfile::merge`] into a
    /// profile persisted by earlier runs — merging two recordings taken
    /// from the same live checker would double-count.
    pub fn record(
        checker: &Checker,
        constraints: &[(String, Formula)],
        reports: &[(String, CheckReport)],
    ) -> WorkloadProfile {
        let ldb = checker.logical_db();
        let mut relations: BTreeMap<String, RelationProfile> = BTreeMap::new();
        let names: Vec<String> = ldb.db().relation_names().map(str::to_owned).collect();
        for name in &names {
            let rows = ldb.db().relation(name).map_or(0, |r| r.len() as u64);
            let index_nodes = ldb
                .index(name)
                .map_or(0, |idx| ldb.manager().size(idx.root) as u64);
            let weights = ldb
                .column_weights(name)
                .map_or_else(Vec::new, <[u64]>::to_vec);
            relations.insert(
                name.clone(),
                RelationProfile {
                    rows,
                    index_nodes,
                    weights,
                    bdd_checks: 0,
                    sql_checks: 0,
                },
            );
        }
        for (name, report) in reports {
            let Some((_, formula)) = constraints.iter().find(|(n, _)| n == name) else {
                continue;
            };
            let bucket = match report.method {
                Method::Bdd => 0,
                Method::SqlFallback | Method::BruteForce => 1,
                Method::Aborted => continue,
            };
            for rel in crate::parallel::read_set(formula) {
                let p = relations.entry(rel).or_default();
                if bucket == 0 {
                    p.bdd_checks += 1;
                } else {
                    p.sql_checks += 1;
                }
            }
        }
        WorkloadProfile {
            checks: reports.len() as u64,
            peak_nodes: ldb.manager().stats().peak_nodes as u64,
            relations,
        }
    }

    /// Merge a newer recording into this profile: monotone counters add
    /// (saturating), peaks take the max, and latest-observation state
    /// (rows, index nodes) takes `newer`'s value when it observed one.
    pub fn merge(&mut self, newer: &WorkloadProfile) {
        self.checks = self.checks.saturating_add(newer.checks);
        self.peak_nodes = self.peak_nodes.max(newer.peak_nodes);
        for (name, theirs) in &newer.relations {
            let ours = self.relations.entry(name.clone()).or_default();
            ours.rows = theirs.rows;
            if theirs.index_nodes > 0 {
                ours.index_nodes = theirs.index_nodes;
            }
            if ours.weights.len() < theirs.weights.len() {
                ours.weights.resize(theirs.weights.len(), 0);
            }
            for (a, b) in ours.weights.iter_mut().zip(&theirs.weights) {
                *a = a.saturating_add(*b);
            }
            ours.bdd_checks = ours.bdd_checks.saturating_add(theirs.bdd_checks);
            ours.sql_checks = ours.sql_checks.saturating_add(theirs.sql_checks);
        }
    }

    /// The apply-cache slot count this workload justifies: roughly twice
    /// the observed peak live-node population, rounded up to a power of
    /// two and clamped to [[`MIN_CACHE_SLOTS`], [`MAX_CACHE_SLOTS`]]. With
    /// no recorded peak the fixed default stands.
    pub fn cache_slots(&self) -> usize {
        if self.peak_nodes == 0 {
            return DEFAULT_CACHE_SLOTS;
        }
        let want = (self.peak_nodes as usize).saturating_mul(2);
        want.next_power_of_two()
            .clamp(MIN_CACHE_SLOTS, MAX_CACHE_SLOTS)
    }

    /// Serialize into the checksummed [`encode_frame`] format used by the
    /// persistent index store. Deterministic: equal profiles encode to
    /// identical bytes.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut p = Vec::new();
        let w64 = |p: &mut Vec<u8>, v: u64| p.extend_from_slice(&v.to_le_bytes());
        let w32 = |p: &mut Vec<u8>, v: u32| p.extend_from_slice(&v.to_le_bytes());
        w64(&mut p, self.checks);
        w64(&mut p, self.peak_nodes);
        w32(&mut p, self.relations.len() as u32);
        for (name, r) in &self.relations {
            w32(&mut p, name.len() as u32);
            p.extend_from_slice(name.as_bytes());
            w64(&mut p, r.rows);
            w64(&mut p, r.index_nodes);
            w64(&mut p, r.bdd_checks);
            w64(&mut p, r.sql_checks);
            w32(&mut p, r.weights.len() as u32);
            for &w in &r.weights {
                w64(&mut p, w);
            }
        }
        encode_frame(PROFILE_MAGIC, PROFILE_FORMAT, &[], &p)
    }

    /// Decode a persisted profile. Truncation, bit flips, wrong file
    /// types, and structural lies all surface as
    /// [`CoreError::SnapshotDecode`] with the offending byte offset —
    /// never a panic.
    pub fn from_bytes(bytes: &[u8]) -> Result<WorkloadProfile> {
        let (_, payload) = decode_frame(bytes, PROFILE_MAGIC, PROFILE_FORMAT)
            .map_err(CoreError::SnapshotDecode)?;
        let mut r = Reader {
            buf: payload,
            off: 0,
        };
        let checks = r.u64()?;
        let peak_nodes = r.u64()?;
        let nrel = r.u32()? as usize;
        let mut relations = BTreeMap::new();
        for _ in 0..nrel {
            let name = r.string()?;
            let rows = r.u64()?;
            let index_nodes = r.u64()?;
            let bdd_checks = r.u64()?;
            let sql_checks = r.u64()?;
            let nweights = r.u32()? as usize;
            if nweights > payload.len() {
                return r.fail("weight count exceeds the payload");
            }
            let mut weights = Vec::with_capacity(nweights);
            for _ in 0..nweights {
                weights.push(r.u64()?);
            }
            if relations
                .insert(
                    name,
                    RelationProfile {
                        rows,
                        index_nodes,
                        weights,
                        bdd_checks,
                        sql_checks,
                    },
                )
                .is_some()
            {
                return r.fail("profile repeats a relation");
            }
        }
        if r.off != payload.len() {
            return r.fail("trailing bytes after the profile");
        }
        Ok(WorkloadProfile {
            checks,
            peak_nodes,
            relations,
        })
    }

    /// Load the profile persisted in an index-cache directory. A missing
    /// file is `Ok(None)` (cold profile); unreadable or corrupt files are
    /// typed errors the caller reports and then proceeds cold from.
    pub fn load(dir: &Path) -> Result<Option<WorkloadProfile>> {
        let path = dir.join(PROFILE_FILE);
        if !path.exists() {
            return Ok(None);
        }
        let bytes = fs::read(&path).map_err(|e| CoreError::Io {
            op: "read",
            path: path.display().to_string(),
            message: e.to_string(),
        })?;
        WorkloadProfile::from_bytes(&bytes).map(Some)
    }

    /// Persist the profile with the index store's atomic discipline
    /// (write a temporary file, fsync, rename): a crash at any point leaves
    /// either the old profile or the new one, never a torn file at the
    /// final path.
    pub fn save(&self, dir: &Path) -> Result<()> {
        let io_err = |op: &'static str, path: &Path, e: std::io::Error| CoreError::Io {
            op,
            path: path.display().to_string(),
            message: e.to_string(),
        };
        fs::create_dir_all(dir).map_err(|e| io_err("create", dir, e))?;
        crate::store::write_atomic(dir, PROFILE_FILE, &self.to_bytes())
            .map_err(|e| io_err("write", &dir.join(PROFILE_FILE), e))
    }
}

/// Little-endian cursor over a profile payload with typed-error bounds
/// checks.
struct Reader<'a> {
    buf: &'a [u8],
    off: usize,
}

impl Reader<'_> {
    fn fail<T>(&self, reason: &'static str) -> Result<T> {
        Err(CoreError::SnapshotDecode(DecodeError {
            offset: self.off,
            reason,
        }))
    }

    fn take(&mut self, n: usize) -> Result<&[u8]> {
        let Some(end) = self.off.checked_add(n) else {
            return self.fail("profile length overflows");
        };
        if end > self.buf.len() {
            return self.fail("profile payload truncated");
        }
        let s = &self.buf[self.off..end];
        self.off = end;
        Ok(s)
    }

    fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn string(&mut self) -> Result<String> {
        let n = self.u32()? as usize;
        if n > self.buf.len() {
            return self.fail("string length exceeds the payload");
        }
        let bytes = self.take(n)?.to_vec();
        match String::from_utf8(bytes) {
            Ok(s) => Ok(s),
            Err(_) => self.fail("relation name is not UTF-8"),
        }
    }
}

// ---------------------------------------------------------------------------
// The routing rules the planner, serve, and index call.
// ---------------------------------------------------------------------------

/// The planner's BDD-vs-SQL routing rule: a constraint may enter the
/// ladder at the BDD rung only if **no** relation it reads is marked
/// SQL-only — one over-budget relation sinks the whole BDD step, because a
/// partial compile would still need that relation's index.
pub fn bdd_route_allowed<'a, I>(reads: I, sql_only: &HashSet<String>) -> bool
where
    I: IntoIterator<Item = &'a str>,
{
    !reads.into_iter().any(|r| sql_only.contains(r))
}

/// The serve-layer admission rule: shed a request to the SQL tier when the
/// queue is more than half full or the previous request ran at or over the
/// shed threshold. Written as `depth > queue_depth / 2` (the same predicate
/// as `2·depth > queue_depth` on integers) so no depth can overflow it.
pub fn admission_should_shed(
    depth: usize,
    queue_depth: usize,
    last_latency: Duration,
    shed_threshold: Duration,
) -> bool {
    depth > queue_depth / 2 || last_latency >= shed_threshold
}

// ---------------------------------------------------------------------------
// The cost model: profile -> advice.
// ---------------------------------------------------------------------------

/// Where a relation's checks should be routed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Route {
    /// Keep (or build) the BDD logical index.
    Bdd,
    /// Route checks reading this relation to the SQL rung.
    Sql,
}

impl Route {
    /// Stable machine-readable name: the ladder rung the route enters at.
    pub fn name(self) -> &'static str {
        match self {
            Route::Bdd => rung::BDD,
            Route::Sql => rung::SQL,
        }
    }
}

/// Per-relation advice: the route, the ordering candidate the recorded
/// weights favour, and the predicted/observed costs behind the call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IndexAdvice {
    /// The relation.
    pub relation: String,
    /// Recommended routing.
    pub route: Route,
    /// The ordering candidate the recorded weights favour
    /// (`"static"` / `"concatenated"` / `"frequency"` / `"interleaved"`).
    pub ordering: &'static str,
    /// Predicted cost of the BDD path: index nodes (measured when an index
    /// was materialized, a `rows x total-bits` upper bound otherwise)
    /// plus the weighted prefix-depth score of the best ordering.
    pub predicted_bdd_cost: u128,
    /// Predicted cost of the SQL path: cell visits for every observed
    /// check reading the relation (`checks x rows x arity`).
    pub predicted_sql_cost: u128,
    /// Observed checks that decided on the BDD rung.
    pub observed_bdd_checks: u64,
    /// Observed checks that decided on the SQL or brute-force rung.
    pub observed_sql_checks: u64,
    /// Measured index node count (0 = never materialized).
    pub index_nodes: u64,
    /// Row count the prediction used.
    pub rows: u64,
    /// The recorded column weights the ordering pick was scored against.
    pub weights: Vec<u64>,
}

/// Per-constraint routing policy implied by the relation advice.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoutePolicy {
    /// The constraint name.
    pub constraint: String,
    /// The ladder entry rung the advice implies (`"bdd"` or `"sql"`).
    pub entry_rung: &'static str,
}

/// The advisor's complete output for one workload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Advice {
    /// Per-relation advice, sorted by relation name.
    pub relations: Vec<IndexAdvice>,
    /// Per-constraint routing, in the caller's constraint order.
    pub routes: Vec<RoutePolicy>,
    /// Recommended apply-cache slot count
    /// ([`WorkloadProfile::cache_slots`]).
    pub cache_slots: usize,
}

impl Advice {
    /// The advised SQL-only relation set.
    pub fn sql_routed(&self) -> HashSet<String> {
        self.relations
            .iter()
            .filter(|a| a.route == Route::Sql)
            .map(|a| a.relation.clone())
            .collect()
    }

    /// Fold the advice (and optionally what applying it did) into the
    /// metrics-schema `policy` block.
    pub fn metrics(
        &self,
        profile: &WorkloadProfile,
        applied: Option<&AppliedAdvice>,
    ) -> PolicyMetrics {
        let advised_sql = self
            .relations
            .iter()
            .filter(|a| a.route == Route::Sql)
            .count() as u64;
        PolicyMetrics {
            relations: self.relations.len() as u64,
            advised_bdd: self.relations.len() as u64 - advised_sql,
            advised_sql,
            applied_sql_only: applied.map_or(0, |a| a.sql_marked.len() as u64),
            applied_rebuilds: applied.map_or(0, |a| a.rebuilt.len() as u64),
            reseeded: applied.map_or(0, |a| a.reseeded),
            readvises: 0,
            cache_slots: self.cache_slots as u64,
            profile_checks: profile.checks,
        }
    }
}

/// Run the cost model: produce per-relation [`IndexAdvice`] for every
/// relation in the checker's database and per-constraint [`RoutePolicy`]
/// for each `(name, formula)` pair, from the recorded profile.
///
/// Deterministic: integer arithmetic only, relations visited in sorted
/// order, ties in the ordering scores resolved by candidate position.
pub fn advise(
    profile: &WorkloadProfile,
    checker: &mut Checker,
    constraints: &[(String, Formula)],
) -> Advice {
    let cold = RelationProfile::default();
    let mut names: Vec<String> = checker
        .logical_db()
        .db()
        .relation_names()
        .map(str::to_owned)
        .collect();
    names.sort();
    let mut relations = Vec::with_capacity(names.len());
    for name in &names {
        let prof = profile.relations.get(name).unwrap_or(&cold);
        let Some(rel) = checker.logical_db().db().relation(name).ok().cloned() else {
            continue;
        };
        let rows = if prof.rows > 0 {
            prof.rows
        } else {
            rel.len() as u64
        };
        let classes: Vec<String> = rel
            .schema()
            .columns()
            .iter()
            .map(|c| c.class.clone())
            .collect();
        let dom_sizes: Vec<u64> = classes
            .iter()
            .map(|class| checker.logical_db_mut().class_domain_size(class))
            .collect();
        let bits: Vec<u32> = dom_sizes.iter().map(|&s| order::block_bits(s)).collect();
        let total_bits: u128 = bits.iter().map(|&b| b as u128).sum();
        let mut weights = prof.weights.clone();
        weights.resize(rel.arity(), 0);
        let static_order = checker.options().ordering.order(&rel, &dom_sizes);
        let (ordering, best_order) = order::choose(static_order, &weights, &bits);
        let traverse = order::score(&best_order, &weights, &bits);
        let build: u128 = if prof.index_nodes > 0 {
            prof.index_nodes as u128
        } else {
            (rows as u128).saturating_mul(total_bits)
        };
        let predicted_bdd_cost = build.saturating_add(traverse);
        let touches = prof.bdd_checks + prof.sql_checks;
        let predicted_sql_cost = (touches.max(1) as u128)
            .saturating_mul(rows as u128)
            .saturating_mul(rel.arity() as u128);
        // Route to SQL only on observed evidence: the relation was read by
        // at least one check, and either the engine always ended on the
        // SQL rung without ever materializing an index (a budget-busted
        // build), or the model predicts the SQL path cheaper by at least
        // 2x. The margin is hysteresis: the two cost formulas are
        // heuristic and not unit-calibrated, so a near-tie must not
        // discard a live index (marking SQL-only is one-way).
        let always_fell_back =
            touches > 0 && prof.bdd_checks == 0 && prof.sql_checks > 0 && prof.index_nodes == 0;
        let route = if checker.is_sql_only(name)
            || always_fell_back
            || (touches > 0 && predicted_sql_cost.saturating_mul(2) < predicted_bdd_cost)
        {
            Route::Sql
        } else {
            Route::Bdd
        };
        relations.push(IndexAdvice {
            relation: name.clone(),
            route,
            ordering,
            predicted_bdd_cost,
            predicted_sql_cost,
            observed_bdd_checks: prof.bdd_checks,
            observed_sql_checks: prof.sql_checks,
            index_nodes: prof.index_nodes,
            rows,
            weights,
        });
    }
    let sql_routed: HashSet<String> = relations
        .iter()
        .filter(|a| a.route == Route::Sql)
        .map(|a| a.relation.clone())
        .collect();
    let routes = constraints
        .iter()
        .map(|(name, formula)| {
            let reads = crate::parallel::read_set(formula);
            let entry_rung = if bdd_route_allowed(reads.iter().map(String::as_str), &sql_routed) {
                rung::BDD
            } else {
                rung::SQL
            };
            RoutePolicy {
                constraint: name.clone(),
                entry_rung,
            }
        })
        .collect();
    Advice {
        relations,
        routes,
        cache_slots: profile.cache_slots(),
    }
}

/// What [`apply_advice`] actually did to the checker.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AppliedAdvice {
    /// Relations newly marked SQL-only (each bumped the epoch).
    pub sql_marked: Vec<String>,
    /// Indexed relations rebuilt because the advised ordering pick differs
    /// from the current one (each bumped the epoch).
    pub rebuilt: Vec<String>,
    /// Relations whose recorded weights were seeded into the live
    /// workload so future adaptive (re)builds score against them.
    pub reseeded: u64,
}

/// Apply an [`Advice`] to a live checker — the `--route auto` mode.
///
/// Every mutation goes through the epoch-bumping invalidation paths, so
/// registry verdicts that the advice could affect are retired and
/// re-derived; routing can therefore never change a verdict.
/// The application is deliberately conservative: relations already marked
/// SQL-only stay SQL-only (un-degrading is not supported by the checker),
/// and index rebuilds happen only under [`crate::ordering::OrderingStrategy::Adaptive`],
/// where the seeded weights change which ordering a rebuild picks.
pub fn apply_advice(checker: &mut Checker, advice: &Advice) -> Result<AppliedAdvice> {
    let mut applied = AppliedAdvice::default();
    let adaptive = matches!(
        checker.options().ordering,
        crate::ordering::OrderingStrategy::Adaptive
    );
    for a in &advice.relations {
        // Seed recorded weights by topping the live counters up to the
        // profile's values — never by adding on top of them. A warm
        // checker whose live weights already cover the profile is left
        // untouched, so re-advising is idempotent instead of inflating
        // the very weights the next recording would capture.
        let live = checker
            .logical_db()
            .column_weights(&a.relation)
            .map_or_else(Vec::new, <[u64]>::to_vec);
        let top_up: Vec<u64> = a
            .weights
            .iter()
            .enumerate()
            .map(|(i, &w)| w.saturating_sub(live.get(i).copied().unwrap_or(0)))
            .collect();
        if top_up.iter().any(|&w| w > 0) {
            checker
                .logical_db_mut()
                .record_column_use(&a.relation, &top_up);
            applied.reseeded += 1;
        }
        match a.route {
            Route::Sql => {
                if !checker.is_sql_only(&a.relation) {
                    checker.mark_sql_only(&a.relation);
                    applied.sql_marked.push(a.relation.clone());
                }
            }
            Route::Bdd => {
                let pick = checker.logical_db().adaptive_pick(&a.relation);
                let indexed = checker.logical_db().has_index(&a.relation);
                if adaptive && indexed && pick != Some(a.ordering) {
                    checker.rebuild_index(&a.relation)?;
                    applied.rebuilt.push(a.relation.clone());
                }
            }
        }
    }
    Ok(applied)
}

/// Render the advise report: one line per relation and per constraint,
/// integers only — byte-identical across runs for a fixed recorded
/// profile.
pub fn render_report(profile: &WorkloadProfile, advice: &Advice) -> String {
    let mut out = String::new();
    let push = |out: &mut String, s: String| {
        out.push_str(&s);
        out.push('\n');
    };
    push(
        &mut out,
        format!(
            "workload profile: checks={} peak-nodes={}",
            profile.checks, profile.peak_nodes
        ),
    );
    push(&mut out, "relation advice:".to_owned());
    for a in &advice.relations {
        push(
            &mut out,
            format!(
                "  {:<24} route={:<4} ordering={:<12} rows={} index-nodes={} predicted bdd={} sql={} observed bdd/sql={}/{}",
                a.relation,
                a.route.name(),
                a.ordering,
                a.rows,
                a.index_nodes,
                a.predicted_bdd_cost,
                a.predicted_sql_cost,
                a.observed_bdd_checks,
                a.observed_sql_checks
            ),
        );
    }
    push(&mut out, "constraint routes:".to_owned());
    for r in &advice.routes {
        push(
            &mut out,
            format!("  {:<32} entry={}", r.constraint, r.entry_rung),
        );
    }
    let sql = advice
        .relations
        .iter()
        .filter(|a| a.route == Route::Sql)
        .count();
    push(
        &mut out,
        format!(
            "apply-cache: {} slots (default {}; from peak {} live nodes)",
            advice.cache_slots, DEFAULT_CACHE_SLOTS, profile.peak_nodes
        ),
    );
    let verdict = if sql == 0 && advice.cache_slots == DEFAULT_CACHE_SLOTS {
        "no-win: the static configuration already matches the advice; applying it changes nothing"
    } else {
        "win predicted: applying this advice changes routing and/or cache sizing (verdicts unchanged by construction)"
    };
    push(
        &mut out,
        format!(
            "summary: {} relations -> {} bdd, {} sql-only; {}",
            advice.relations.len(),
            advice.relations.len() - sql,
            sql,
            verdict
        ),
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checker::CheckerOptions;
    use relcheck_relstore::{Database, Raw};

    fn small_db() -> Database {
        let mut db = Database::new();
        db.create_relation(
            "R",
            &[("x", "k"), ("y", "k")],
            vec![
                vec![Raw::Int(1), Raw::Int(1)],
                vec![Raw::Int(2), Raw::Int(2)],
            ],
        )
        .unwrap();
        db.create_relation(
            "S",
            &[("x", "k")],
            vec![vec![Raw::Int(1)], vec![Raw::Int(2)]],
        )
        .unwrap();
        db
    }

    fn constraints() -> Vec<(String, Formula)> {
        vec![
            (
                "r-diagonal".to_owned(),
                relcheck_logic::parse("forall x, y. R(x, y) -> x = y").unwrap(),
            ),
            (
                "s-nonempty".to_owned(),
                relcheck_logic::parse("exists x. S(x)").unwrap(),
            ),
        ]
    }

    fn recorded_profile() -> WorkloadProfile {
        let mut checker = Checker::new(small_db(), CheckerOptions::default());
        let cs = constraints();
        let reports: Vec<(String, CheckReport)> = cs
            .iter()
            .map(|(n, f)| (n.clone(), checker.check(f).unwrap()))
            .collect();
        WorkloadProfile::record(&checker, &cs, &reports)
    }

    #[test]
    fn profile_round_trips_through_bytes() {
        let p = recorded_profile();
        assert_eq!(p.checks, 2);
        assert!(p.relations.contains_key("R"));
        let bytes = p.to_bytes();
        let q = WorkloadProfile::from_bytes(&bytes).unwrap();
        assert_eq!(p, q);
        assert_eq!(bytes, q.to_bytes(), "encoding is deterministic");
    }

    #[test]
    fn corrupt_profiles_decode_to_typed_errors() {
        let p = recorded_profile();
        let mut bytes = p.to_bytes();
        // Flip a payload bit: CRC failure.
        let last = bytes.len() - 1;
        bytes[last] ^= 0x40;
        assert!(matches!(
            WorkloadProfile::from_bytes(&bytes),
            Err(CoreError::SnapshotDecode(_))
        ));
        // Truncate inside the header.
        assert!(matches!(
            WorkloadProfile::from_bytes(&p.to_bytes()[..10]),
            Err(CoreError::SnapshotDecode(_))
        ));
        // Wrong magic.
        let mut wrong = p.to_bytes();
        wrong[0] = b'X';
        assert!(matches!(
            WorkloadProfile::from_bytes(&wrong),
            Err(CoreError::SnapshotDecode(_))
        ));
    }

    /// A profile in the previous on-disk format (1), which also carried
    /// op-cache, plan-cache and per-op counters that no decision read.
    fn format1_profile_bytes() -> Vec<u8> {
        let mut p = Vec::new();
        for v in [3u64, 100, 40, 60, 1, 2] {
            p.extend_from_slice(&v.to_le_bytes());
        }
        p.extend_from_slice(&(relcheck_bdd::OP_KINDS as u32).to_le_bytes());
        for _ in 0..relcheck_bdd::OP_KINDS {
            p.extend_from_slice(&7u64.to_le_bytes());
        }
        p.extend_from_slice(&0u32.to_le_bytes());
        encode_frame(PROFILE_MAGIC, 1, &[], &p)
    }

    #[test]
    fn format1_profiles_decode_to_a_typed_error() {
        match WorkloadProfile::from_bytes(&format1_profile_bytes()) {
            Err(CoreError::SnapshotDecode(e)) => {
                assert_eq!(e.reason, "unsupported format version");
            }
            other => panic!("format-1 profile decoded to {other:?}"),
        }
    }

    #[test]
    fn persistence_survives_a_restart_and_missing_files_are_cold() {
        let dir = std::env::temp_dir().join(format!("relcheck-policy-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        assert!(WorkloadProfile::load(&dir).unwrap().is_none(), "cold start");
        let p = recorded_profile();
        p.save(&dir).unwrap();
        let q = WorkloadProfile::load(&dir).unwrap().expect("persisted");
        assert_eq!(p, q);
        // Corruption: typed error, not a panic.
        fs::write(dir.join(PROFILE_FILE), b"garbage").unwrap();
        assert!(matches!(
            WorkloadProfile::load(&dir),
            Err(CoreError::SnapshotDecode(_))
        ));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn merge_adds_counters_and_keeps_latest_state() {
        let mut a = recorded_profile();
        let checks = a.checks;
        let b = recorded_profile();
        a.merge(&b);
        assert_eq!(a.checks, checks * 2);
        let ra = &a.relations["R"];
        let rb = &b.relations["R"];
        assert_eq!(ra.rows, rb.rows, "rows are latest-observation state");
        assert!(ra.weights.iter().zip(&rb.weights).all(|(x, y)| x >= y));
    }

    #[test]
    fn advice_is_deterministic_and_reports_are_byte_identical() {
        let p = recorded_profile();
        let cs = constraints();
        let mut c1 = Checker::new(small_db(), CheckerOptions::default());
        let mut c2 = Checker::new(small_db(), CheckerOptions::default());
        let a1 = advise(&p, &mut c1, &cs);
        let a2 = advise(&p, &mut c2, &cs);
        assert_eq!(a1, a2);
        assert_eq!(render_report(&p, &a1), render_report(&p, &a2));
        assert_eq!(a1.routes.len(), 2);
    }

    #[test]
    fn applying_advice_never_changes_verdicts() {
        let p = recorded_profile();
        let cs = constraints();
        let mut plain = Checker::new(small_db(), CheckerOptions::default());
        let baseline: Vec<bool> = cs
            .iter()
            .map(|(_, f)| plain.check(f).unwrap().holds)
            .collect();
        let mut auto = Checker::new(small_db(), CheckerOptions::default());
        let advice = advise(&p, &mut auto, &cs);
        let epoch_before = auto.epoch();
        let applied = apply_advice(&mut auto, &advice).unwrap();
        if !applied.sql_marked.is_empty() || !applied.rebuilt.is_empty() {
            assert!(auto.epoch() > epoch_before, "mutations bump the epoch");
        }
        let advised: Vec<bool> = cs
            .iter()
            .map(|(_, f)| auto.check(f).unwrap().holds)
            .collect();
        assert_eq!(baseline, advised);
    }

    #[test]
    fn routing_rules_match_their_former_inline_forms() {
        let sql_only: HashSet<String> = ["R".to_owned()].into_iter().collect();
        assert!(!bdd_route_allowed(["R", "S"], &sql_only));
        assert!(bdd_route_allowed(["S"], &sql_only));
        assert!(bdd_route_allowed(std::iter::empty(), &sql_only));
        let ms = Duration::from_millis;
        assert!(admission_should_shed(33, 64, ms(0), ms(500)));
        assert!(!admission_should_shed(32, 64, ms(0), ms(500)));
        assert!(admission_should_shed(0, 64, ms(500), ms(500)));
        // Odd bounds round the same way as `2·depth > queue_depth`, and a
        // depth at the top of the range sheds rather than overflowing.
        assert!(admission_should_shed(33, 65, ms(0), ms(500)));
        assert!(!admission_should_shed(32, 65, ms(0), ms(500)));
        assert!(admission_should_shed(usize::MAX, 64, ms(0), ms(500)));
        assert!(!admission_should_shed(0, usize::MAX, ms(0), ms(500)));
    }

    #[test]
    fn cache_slots_scale_with_peak_and_stay_bounded() {
        let mut p = WorkloadProfile::default();
        assert_eq!(p.cache_slots(), DEFAULT_CACHE_SLOTS);
        p.peak_nodes = 157_587;
        assert_eq!(p.cache_slots(), 1 << 19);
        p.peak_nodes = 1;
        assert_eq!(p.cache_slots(), MIN_CACHE_SLOTS);
        p.peak_nodes = u64::MAX / 4;
        assert_eq!(p.cache_slots(), MAX_CACHE_SLOTS);
    }
}

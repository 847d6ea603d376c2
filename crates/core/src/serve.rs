//! Long-lived incremental check engine behind a line protocol.
//!
//! The paper's pitch is *fast identification* of violations as data
//! changes; a cold `relcheck run` per update batch throws the warm state
//! away each time. [`ServeEngine`] is the session-oriented alternative:
//! it keeps the relation store, the BDD manager and its logical indices,
//! the compiled-atom cache, and (optionally) the persistent
//! [`IndexStore`] alive across requests, and re-checks **only the
//! constraints whose read-set intersects the relations dirtied since the
//! last check** — everything else answers from the registry's cached
//! verdict. The skip decision is [`ConstraintRegistry::revalidate`]'s,
//! over the relations each constraint's atoms name.
//!
//! The protocol is line-oriented (stdin or a unix socket in the CLI):
//!
//! ```text
//! +REL:v1,v2,…      insert one tuple (the store's journal syntax)
//! -REL:v1,v2,…      delete one tuple
//! check [NAME]      revalidate (everything, or one constraint)
//! certify [NAME]    re-check and emit audited violation certificates
//! stats             session counters
//! quit              end the session
//! ```
//!
//! Durability: with a store attached, deltas flow through
//! [`IndexStore::journaled_apply`] — journal-first with fsync — so a
//! killed session warm-starts to exactly the acknowledged state. A
//! transiently failing append is retried with bounded deterministic
//! backoff ([`IndexStore::journaled_apply_retrying`]); if the retry
//! budget runs dry the delta is served rows-only — exact but not durable
//! — and the reply says so (`durable=false`). A delta value outside a
//! frozen BDD block's domain cannot be folded into the index in-place;
//! the engine degrades that relation to the SQL rung
//! ([`Checker::mark_sql_only`], which retires cached verdicts) and keeps
//! serving correct answers until a restart rebuilds wider blocks.
//! Per-request deadlines ride the existing degradation ladder: every
//! re-check goes through the checker's per-constraint panic guard, whose
//! deadline, node-budget, and panic handling are unchanged.
//!
//! Concurrency: the engine itself is single-threaded on purpose — one
//! [`ServeActor`] thread owns it and serializes every request off a
//! **bounded** queue, so verdict-order determinism is structural, not
//! locked-in. Sessions (one thread per connection in the CLI) talk to it
//! through cloned [`ServeClient`] handles whose `submit` runs admission
//! control: a request either joins the queue, and its checks walk the
//! full ladder from the BDD rung like `relcheck run`, or, when the queue
//! is full, is rejected with a typed `busy <retry-after-ms>` reply without
//! ever touching the engine. `quit` (or the CLI's SIGTERM handler) starts
//! a graceful drain: queued requests are finished, new ones see a closed
//! session, and the actor hands the engine back for the final journal
//! flush and metrics emission.

use crate::certify::{emit_certificate, verify_certificate, Certificate, DEFAULT_WITNESS_LIMIT};
use crate::checker::{panic_message, CheckReport, Checker};
use crate::error::{CoreError, Result};
use crate::registry::{ConstraintRegistry, Verdict};
use crate::store::{Delta, IndexStore};
use crate::telemetry::{AuditMetrics, OverloadMetrics, ServeMetrics};
use relcheck_logic::Formula;
use relcheck_relstore::{Raw, StoreError};
use std::collections::BTreeSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, SyncSender, TrySendError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// One parsed protocol command.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// `+REL:v,…` / `-REL:v,…` — apply one tuple delta.
    Delta(String, Delta),
    /// `check` / `check NAME` — revalidate and report verdicts.
    Check(Option<String>),
    /// `certify` / `certify NAME` — re-check, emit certificates, and
    /// report each one's independent audit result.
    Certify(Option<String>),
    /// `stats` — session counters.
    Stats,
    /// `quit` — end the session.
    Quit,
}

/// Parse a `+REL:v1,v2,...` / `-REL:v1,v2,...` delta argument — the
/// store's journal syntax, shared by the protocol, `relcheck index
/// apply`, and scripts. Values that parse as integers become
/// [`Raw::Int`]; everything else is a string.
pub fn parse_delta(arg: &str) -> std::result::Result<(String, Delta), String> {
    let bad = || format!("bad delta {arg:?} (expected +REL:v1,v2,... or -REL:v1,v2,...)");
    let rest = arg
        .strip_prefix('+')
        .or_else(|| arg.strip_prefix('-'))
        .ok_or_else(bad)?;
    let (relation, values) = rest.split_once(':').ok_or_else(bad)?;
    if relation.is_empty() || values.is_empty() {
        return Err(bad());
    }
    let row: Vec<Raw> = values
        .split(',')
        .map(|v| match v.parse::<i64>() {
            Ok(i) => Raw::Int(i),
            Err(_) => Raw::Str(v.to_owned()),
        })
        .collect();
    let delta = if arg.starts_with('+') {
        Delta::Insert(row)
    } else {
        Delta::Delete(row)
    };
    Ok((relation.to_owned(), delta))
}

/// Parse one protocol line. Blank lines and `#` comments are no-ops
/// (`Ok(None)`), so scripted sessions can be annotated.
pub fn parse_command(line: &str) -> std::result::Result<Option<Command>, String> {
    let line = line.trim();
    if line.is_empty() || line.starts_with('#') {
        return Ok(None);
    }
    if line.starts_with('+') || line.starts_with('-') {
        let (relation, delta) = parse_delta(line)?;
        return Ok(Some(Command::Delta(relation, delta)));
    }
    let mut parts = line.split_whitespace();
    let cmd = parts.next().expect("non-empty line has a first token");
    let command = match cmd {
        "check" => Command::Check(parts.next().map(str::to_owned)),
        "certify" => Command::Certify(parts.next().map(str::to_owned)),
        "stats" => Command::Stats,
        "quit" => Command::Quit,
        other => {
            return Err(format!(
                "unknown command {other:?} \
                 (try +REL:v,... -REL:v,... check [name] certify [name] stats quit)"
            ))
        }
    };
    if parts.next().is_some() {
        return Err(format!("trailing arguments after {cmd:?}"));
    }
    Ok(Some(command))
}

/// Decode one raw protocol line from the wire before it reaches
/// [`parse_command`]: cap the length (a slowloris or binary stream must
/// not buffer unbounded), reject embedded NULs and invalid UTF-8 with a
/// typed message, and strip the trailing newline. Shared by the CLI's
/// socket sessions and the protocol fuzz suite, so hardening and tests
/// see the same code path.
pub fn sanitize_line(bytes: &[u8], max_line_bytes: usize) -> std::result::Result<String, String> {
    if bytes.len() > max_line_bytes {
        return Err(format!(
            "line exceeds {max_line_bytes} bytes (got {})",
            bytes.len()
        ));
    }
    if bytes.contains(&0) {
        return Err("line contains a NUL byte".to_owned());
    }
    match std::str::from_utf8(bytes) {
        Ok(s) => Ok(s.trim_end_matches(['\r', '\n']).to_owned()),
        Err(e) => Err(format!("line is not valid UTF-8: {e}")),
    }
}

/// The engine's answer to one protocol line.
#[derive(Debug, Clone, Default)]
pub struct Reply {
    /// Lines to write back to the client.
    pub lines: Vec<String>,
    /// Whether the session should end.
    pub quit: bool,
}

/// What [`ServeEngine::apply`] did with one delta.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ApplyOutcome {
    /// Whether the relation actually changed (duplicate inserts and
    /// deletes of absent tuples don't).
    pub changed: bool,
    /// Whether the delta is durably journaled. `false` only on the
    /// retry-exhausted path: the delta is applied rows-only and the
    /// relation degraded to the SQL rung, so answers stay exact but a
    /// crash before the next successful write-back loses the delta.
    pub durable: bool,
    /// Journal-append retries spent before the append succeeded (0 when
    /// storeless or first-try).
    pub retries: u64,
}

/// Journal-append retry budget for the serve path (see
/// [`IndexStore::journaled_apply_retrying`]).
pub const JOURNAL_RETRY_LIMIT: u64 = 3;

/// What [`ServeEngine::policy_metrics`] would return; nothing constructs
/// it. Exists only for perfbench's `serve.readvises` read, and goes with
/// that figure at the next change to perfbench.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PolicyMetrics {
    /// Always 0: no session re-advises.
    pub readvises: u64,
}

/// The long-lived incremental check engine (see module docs).
pub struct ServeEngine {
    checker: Checker,
    registry: ConstraintRegistry,
    store: Option<IndexStore>,
    /// Relations dirtied by deltas since the last full check, in sorted
    /// order (so `stats` output and revalidation order are deterministic).
    dirty: BTreeSet<String>,
    stats: ServeMetrics,
    /// Witness cap for `certify` replies.
    witness_limit: usize,
    audit: AuditMetrics,
    /// Journal-append retries absorbed across the session (the overload
    /// block's `retries` counter).
    journal_retries: u64,
}

impl ServeEngine {
    /// Build a session over a warm checker (callers warm-start the store
    /// before handing it over) and prime the verdict cache with one full
    /// validation — its reports are returned so the caller can print the
    /// baseline, and its wall-clock cost lands in
    /// [`ServeMetrics::full_ns`] as the incremental-vs-full yardstick.
    /// Duplicate constraint names are rejected.
    pub fn new(
        checker: Checker,
        constraints: &[(String, Formula)],
        store: Option<IndexStore>,
    ) -> Result<(ServeEngine, Vec<(String, CheckReport)>)> {
        let mut engine = ServeEngine {
            checker,
            registry: ConstraintRegistry::new(),
            store,
            dirty: BTreeSet::new(),
            stats: ServeMetrics::default(),
            witness_limit: DEFAULT_WITNESS_LIMIT,
            audit: AuditMetrics::default(),
            journal_retries: 0,
        };
        for (name, f) in constraints {
            if !engine.registry.register(name, f.clone()) {
                return Err(CoreError::Store(StoreError::DuplicateRelation(format!(
                    "constraint {name}"
                ))));
            }
        }
        let start = Instant::now();
        let reports = engine.registry.validate_all(&mut engine.checker)?;
        engine.stats.full_ns = start.elapsed().as_nanos() as u64;
        Ok((engine, reports))
    }

    /// Apply one tuple delta and mark its relation dirty. With a store
    /// attached the delta is durably journaled first, retrying transient
    /// append failures with bounded backoff
    /// ([`IndexStore::journaled_apply_retrying`]); if the retry budget
    /// runs dry the delta is applied rows-only (exact, not durable) and
    /// the relation degraded to the SQL rung rather than lost or left
    /// half-applied. Without a store the delta goes straight through
    /// incremental index maintenance. The outcome reports what happened
    /// ([`ApplyOutcome`]).
    pub fn apply(&mut self, relation: &str, delta: &Delta) -> Result<ApplyOutcome> {
        let arity = self.checker.logical_db().db().relation(relation)?.arity();
        if delta.values().len() != arity {
            return Err(CoreError::Store(StoreError::ArityMismatch {
                expected: arity,
                got: delta.values().len(),
            }));
        }
        let outcome = match self.store.as_mut() {
            Some(store) => {
                let (retries, result) = store.journaled_apply_retrying(
                    &mut self.checker,
                    relation,
                    delta,
                    JOURNAL_RETRY_LIMIT,
                );
                self.journal_retries += retries;
                match result {
                    Ok(changed) => ApplyOutcome {
                        changed,
                        durable: true,
                        retries,
                    },
                    // The delta is journaled (durable) but its value does
                    // not fit the frozen BDD block: degrade rather than
                    // lose it.
                    Err(CoreError::DomainOverflow { .. }) => ApplyOutcome {
                        changed: self.degrade_overflow(relation, delta)?,
                        durable: true,
                        retries,
                    },
                    // Retry budget exhausted on a transient append
                    // failure: the journal never acknowledged the delta,
                    // so serve it rows-only and route the relation to the
                    // SQL rung — index and journal can no longer diverge,
                    // and the client is told durability was lost.
                    Err(CoreError::FaultInjected { .. }) | Err(CoreError::Io { .. }) => {
                        ApplyOutcome {
                            changed: self.degrade_overflow(relation, delta)?,
                            durable: false,
                            retries,
                        }
                    }
                    Err(e) => return Err(e),
                }
            }
            // Store-less: the same live path, with the same degradation
            // of a value outside a frozen block.
            None => ApplyOutcome {
                changed: match delta.apply(self.checker.logical_db_mut(), relation) {
                    Err(CoreError::DomainOverflow { .. }) => {
                        self.degrade_overflow(relation, delta)?
                    }
                    other => other?,
                },
                durable: true,
                retries: 0,
            },
        };
        self.dirty.insert(relation.to_owned());
        self.stats.deltas += 1;
        // The replaced index paths are garbage: a run of deltas with no
        // check between them must not grow the arena without bound.
        self.checker.logical_db_mut().collect_if_due();
        Ok(outcome)
    }

    /// A delta value outside a frozen BDD block: the block cannot grow
    /// in-place, so apply the delta rows-only and route the relation to
    /// the SQL rung. `mark_sql_only` bumps the invalidation epoch, which
    /// retires the cached verdicts of constraints reading it, so the
    /// session keeps serving correct (if slower) answers; the next warm
    /// start re-interns the journal and rebuilds wider blocks.
    fn degrade_overflow(&mut self, relation: &str, delta: &Delta) -> Result<bool> {
        let (row, _) = delta.encode(self.checker.logical_db_mut(), relation)?;
        let rel = self
            .checker
            .logical_db_mut()
            .db_mut()
            .relation_mut(relation)?;
        let changed = match delta {
            Delta::Insert(_) => rel.insert(&row)?,
            Delta::Delete(_) => rel.delete(&row)?,
        };
        self.checker.mark_sql_only(relation);
        Ok(changed)
    }

    /// Serve a `check`: re-verify exactly the constraints whose read-set
    /// intersects the accumulated dirty set (plus anything unvalidated or
    /// epoch-stale), answer the rest from cache, then clear the dirty
    /// set. Returns `(name, verdict)` in registration order.
    pub fn check_all(&mut self) -> Result<Vec<(String, Verdict)>> {
        let start = Instant::now();
        self.note_check();
        let touched: Vec<&str> = self.dirty.iter().map(String::as_str).collect();
        let verdicts = self.registry.revalidate(&mut self.checker, &touched)?;
        self.dirty.clear();
        for (_, v) in &verdicts {
            match v {
                Verdict::Checked { .. } => self.stats.constraints_checked += 1,
                Verdict::Cached { .. } => self.stats.constraints_skipped += 1,
            }
        }
        self.stats.incremental_ns += start.elapsed().as_nanos() as u64;
        Ok(verdicts)
    }

    /// Serve a `check NAME`: the named constraint re-checks only if
    /// dirty-intersecting/stale, from cache otherwise. The dirty set is
    /// **not** consumed — other constraints keep their pending dirtiness
    /// for the next full check. `None` for an unknown name.
    pub fn check_one(&mut self, name: &str) -> Result<Option<Verdict>> {
        let start = Instant::now();
        self.note_check();
        let touched: Vec<&str> = self.dirty.iter().map(String::as_str).collect();
        let verdict = self
            .registry
            .revalidate_one(&mut self.checker, name, &touched)?;
        match verdict {
            Some(Verdict::Checked { .. }) => self.stats.constraints_checked += 1,
            Some(Verdict::Cached { .. }) => self.stats.constraints_skipped += 1,
            None => {}
        }
        self.stats.incremental_ns += start.elapsed().as_nanos() as u64;
        Ok(verdict)
    }

    /// Every registered constraint as `(name, formula)` — the spec the
    /// audit re-checker verifies certificates against.
    fn constraint_list(&self) -> Vec<(String, Formula)> {
        self.registry
            .names()
            .iter()
            .map(|n| {
                (
                    (*n).to_owned(),
                    self.registry.formula(n).expect("listed name").clone(),
                )
            })
            .collect()
    }

    /// Re-check one constraint **fresh** (never from the verdict cache — a
    /// certificate must describe the data as it is now), emit its
    /// certificate, and immediately audit it with the independent
    /// re-checker. Returns `None` for an unknown name;
    /// otherwise the certificate plus the audit rejection, if any
    /// (undecided verdicts are not audited — they are uncertifiable by
    /// construction and the certificate says so).
    pub fn certify_one(
        &mut self,
        name: &str,
    ) -> Result<Option<(Certificate, Option<crate::certify::AuditError>)>> {
        let Some(f) = self.registry.formula(name).cloned() else {
            return Ok(None);
        };
        let report = self.checker.check_guarded(&f)?;
        let cert = emit_certificate(&mut self.checker, name, &f, &report, self.witness_limit)?;
        self.audit.emitted += 1;
        if let Some(w) = &cert.witnesses {
            self.audit.witnesses += w.tuples.len() as u64;
        }
        let audit = if cert.verdict.is_decided() {
            let constraints = self.constraint_list();
            match verify_certificate(self.checker.logical_db().db(), &constraints, &cert) {
                Ok(_) => {
                    self.audit.verified += 1;
                    None
                }
                Err(e) => {
                    self.audit.failed += 1;
                    Some(e)
                }
            }
        } else {
            None
        };
        Ok(Some((cert, audit)))
    }

    fn note_check(&mut self) {
        self.stats.checks += 1;
        self.stats.dirty_peak = self.stats.dirty_peak.max(self.dirty.len() as u64);
        self.stats.dirty_total += self.dirty.len() as u64;
    }

    /// Handle one protocol line. Errors are folded into `err …` reply
    /// lines — a bad command or a failed delta never ends the session.
    pub fn handle_line(&mut self, line: &str) -> Reply {
        let command = match parse_command(line) {
            Ok(Some(command)) => command,
            Ok(None) => return Reply::default(),
            Err(e) => {
                self.stats.requests += 1;
                return Reply {
                    lines: vec![format!("err {e}")],
                    quit: false,
                };
            }
        };
        self.stats.requests += 1;
        let mut reply = Reply::default();
        match command {
            Command::Delta(relation, delta) => {
                let sign = match delta {
                    Delta::Insert(_) => '+',
                    Delta::Delete(_) => '-',
                };
                match self.apply(&relation, &delta) {
                    // The durable marker appears only on the degraded
                    // path, so fault-free replies stay byte-identical to
                    // every earlier protocol version.
                    Ok(out) => reply.lines.push(format!(
                        "ok delta {sign}{relation} applied={} dirty={}{}",
                        out.changed,
                        self.dirty.len(),
                        if out.durable { "" } else { " durable=false" }
                    )),
                    Err(e) => reply.lines.push(format!("err delta {sign}{relation}: {e}")),
                }
            }
            Command::Check(None) => {
                let dirty = self.dirty.len();
                match self.check_all() {
                    Ok(verdicts) => {
                        let mut checked = 0;
                        let mut skipped = 0;
                        for (name, v) in &verdicts {
                            reply.lines.push(render_verdict(name, v));
                            match v {
                                Verdict::Checked { .. } => checked += 1,
                                Verdict::Cached { .. } => skipped += 1,
                            }
                        }
                        reply.lines.push(format!(
                            "ok check checked={checked} skipped={skipped} dirty={dirty}"
                        ));
                    }
                    Err(e) => reply.lines.push(format!("err check: {e}")),
                }
            }
            Command::Check(Some(name)) => match self.check_one(&name) {
                Ok(Some(v)) => {
                    reply.lines.push(render_verdict(&name, &v));
                    reply.lines.push(format!(
                        "ok check checked={} skipped={} dirty={}",
                        matches!(v, Verdict::Checked { .. }) as u8,
                        matches!(v, Verdict::Cached { .. }) as u8,
                        self.dirty.len()
                    ));
                }
                Ok(None) => reply.lines.push(format!("err unknown constraint {name:?}")),
                Err(e) => reply.lines.push(format!("err check {name}: {e}")),
            },
            Command::Certify(name) => {
                let targets: Vec<String> = match &name {
                    Some(n) => vec![n.clone()],
                    None => self
                        .registry
                        .names()
                        .iter()
                        .map(|n| (*n).to_owned())
                        .collect(),
                };
                let (mut emitted, mut witnesses, mut failed) = (0u64, 0u64, 0u64);
                for t in targets {
                    match self.certify_one(&t) {
                        Ok(Some((cert, audit))) => {
                            emitted += 1;
                            if let Some(w) = &cert.witnesses {
                                witnesses += w.tuples.len() as u64;
                            }
                            reply.lines.push(cert.to_json());
                            if let Some(e) = audit {
                                failed += 1;
                                reply.lines.push(format!("err certify {t}: {e}"));
                            }
                        }
                        Ok(None) => reply.lines.push(format!("err unknown constraint {t:?}")),
                        Err(e) => reply.lines.push(format!("err certify {t}: {e}")),
                    }
                }
                reply.lines.push(format!(
                    "ok certify emitted={emitted} witnesses={witnesses} failed={failed}"
                ));
            }
            Command::Stats => {
                let s = &self.stats;
                let mgr = self.checker.logical_db().manager();
                reply.lines.push(format!(
                    "ok stats requests={} deltas={} checks={} checked={} skipped={} \
                     dirty={} dirty_peak={} full_us={} incremental_us={} \
                     live_nodes={} kept_nodes={} gc_runs={}",
                    s.requests,
                    s.deltas,
                    s.checks,
                    s.constraints_checked,
                    s.constraints_skipped,
                    self.dirty.len(),
                    s.dirty_peak,
                    s.full_ns / 1_000,
                    s.incremental_ns / 1_000,
                    mgr.live_nodes(),
                    mgr.kept_nodes(),
                    mgr.stats().gc_runs,
                ));
            }
            Command::Quit => {
                reply.lines.push("ok bye".to_owned());
                reply.quit = true;
            }
        }
        reply
    }

    /// Flush durable state on clean shutdown: compact applied journal
    /// records into fresh segments. Skipping this (a killed session)
    /// costs the next warm start replay time, never correctness.
    pub fn finish(&mut self) -> Result<()> {
        if let Some(store) = self.store.as_mut() {
            store.write_back(&mut self.checker)?;
        }
        Ok(())
    }

    /// Session counters so far.
    pub fn stats(&self) -> ServeMetrics {
        self.stats
    }

    /// Certificate audit counters accumulated by `certify` requests.
    pub fn audit_stats(&self) -> AuditMetrics {
        self.audit
    }

    /// Journal-append retries absorbed across the session (see
    /// [`ApplyOutcome::retries`]).
    pub fn journal_retries(&self) -> u64 {
        self.journal_retries
    }

    /// Always `None`: the session runs no workload advisor. Exists only
    /// for perfbench's `serve.readvises` read, and goes with that figure
    /// at the next change to perfbench.
    pub fn policy_metrics(&self) -> Option<PolicyMetrics> {
        None
    }

    /// Cap the number of witness tuples each certificate carries
    /// (default [`DEFAULT_WITNESS_LIMIT`]).
    pub fn set_witness_limit(&mut self, limit: usize) {
        self.witness_limit = limit;
    }

    /// The relations dirtied since the last full check.
    pub fn dirty(&self) -> &BTreeSet<String> {
        &self.dirty
    }

    /// The session's registry (read-sets, cached verdicts).
    pub fn registry(&self) -> &ConstraintRegistry {
        &self.registry
    }

    /// The warm checker.
    pub fn checker(&self) -> &Checker {
        &self.checker
    }

    /// Mutable access to the warm checker — maintenance paths
    /// (`rebuild_index`, `mark_sql_only`) route verdict invalidation
    /// through the checker's epoch, so out-of-band mutations stay safe
    /// as long as they end in one of those calls.
    pub fn checker_mut(&mut self) -> &mut Checker {
        &mut self.checker
    }

    /// The attached persistent store, if any.
    pub fn store(&self) -> Option<&IndexStore> {
        self.store.as_ref()
    }
}

/// Tunables for the serving layer: queue bound, session cap and
/// timeouts. All but the watchdog ceiling are `relcheck serve` flags.
#[derive(Debug, Clone, Copy)]
pub struct ServeConfig {
    /// Bound of the actor's request queue; a `try_send` against a full
    /// queue is rejected (`busy` reply, engine untouched).
    pub queue_depth: usize,
    /// Maximum concurrent socket sessions; further connections are
    /// turned away with a `busy` line.
    pub max_sessions: usize,
    /// Per-connection idle cap: a client that sends nothing for this
    /// long is disconnected (slowloris cannot pin a session thread).
    pub idle_timeout: Duration,
    /// Longest raw protocol line accepted from a socket before the
    /// session replies with a typed error instead of buffering on.
    pub max_line_bytes: usize,
    /// Watchdog ceiling: every request is dispatched with at most this
    /// much wall-clock deadline, so a stuck check escalates down the
    /// ladder to `Degraded` instead of hanging the actor. A tighter
    /// user-configured `--deadline-ms` wins.
    pub hard_deadline: Duration,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            queue_depth: 64,
            max_sessions: 8,
            idle_timeout: Duration::from_secs(30),
            max_line_bytes: 64 * 1024,
            hard_deadline: Duration::from_secs(4),
        }
    }
}

/// One queued request: the raw line and the channel its reply goes back
/// on.
struct Request {
    line: String,
    reply: SyncSender<Reply>,
}

/// State shared between the actor thread and every client handle: the
/// last service time (a rejected client's backoff hint) and the
/// admission counters.
struct ActorShared {
    last_service_ns: AtomicU64,
    admitted: AtomicU64,
    rejected: AtomicU64,
    draining: AtomicBool,
}

/// What a [`ServeClient::submit`] came back with.
#[derive(Debug, Clone)]
pub enum Submission {
    /// The request was admitted and served.
    Reply(Reply),
    /// The bounded queue was full. The engine never saw the
    /// request; the client should wait roughly `retry_after_ms` and try
    /// again (the protocol line is `busy <retry-after-ms>`).
    Busy {
        /// Suggested client backoff — the last request's service time,
        /// floored at 1ms.
        retry_after_ms: u64,
    },
    /// The session is draining or the engine is gone; no reply will ever
    /// come. The connection should close.
    Closed,
}

/// A cloneable handle submitting protocol lines to a [`ServeActor`].
/// Each `submit` either queues the line and blocks until the engine's
/// reply comes back, or returns at once when the queue is full.
#[derive(Clone)]
pub struct ServeClient {
    tx: SyncSender<Request>,
    shared: Arc<ActorShared>,
    cfg: ServeConfig,
}

impl ServeClient {
    /// Submit one protocol line through admission control.
    pub fn submit(&self, line: &str) -> Submission {
        if self.shared.draining.load(Ordering::Acquire) {
            return Submission::Closed;
        }
        let (reply_tx, reply_rx) = mpsc::sync_channel(1);
        let req = Request {
            line: line.to_owned(),
            reply: reply_tx,
        };
        match self.tx.try_send(req) {
            Ok(()) => {
                self.shared.admitted.fetch_add(1, Ordering::AcqRel);
                match reply_rx.recv() {
                    Ok(reply) => Submission::Reply(reply),
                    // The actor dropped the request (hard shutdown racing
                    // the drain window); never served, session over.
                    Err(_) => Submission::Closed,
                }
            }
            Err(TrySendError::Full(_)) => {
                self.shared.rejected.fetch_add(1, Ordering::AcqRel);
                let last_ns = self.shared.last_service_ns.load(Ordering::Acquire);
                Submission::Busy {
                    retry_after_ms: (last_ns / 1_000_000).max(1),
                }
            }
            Err(TrySendError::Disconnected(_)) => Submission::Closed,
        }
    }

    /// Whether the session is draining (quit seen or shutdown begun).
    /// Accept loops poll this to stop taking connections.
    pub fn is_draining(&self) -> bool {
        self.shared.draining.load(Ordering::Acquire)
    }

    /// The config the actor runs with.
    pub fn config(&self) -> &ServeConfig {
        &self.cfg
    }
}

/// The engine actor: a single thread owning the [`ServeEngine`], fed by
/// a bounded queue of requests from any number of [`ServeClient`]s (see
/// module docs for the overload model).
pub struct ServeActor {
    tx: Option<SyncSender<Request>>,
    shared: Arc<ActorShared>,
    join: Option<JoinHandle<(ServeEngine, u64, u64)>>,
    cfg: ServeConfig,
}

impl ServeActor {
    /// Move the engine onto its actor thread and start serving.
    pub fn spawn(engine: ServeEngine, cfg: ServeConfig) -> ServeActor {
        let (tx, rx) = mpsc::sync_channel(cfg.queue_depth.max(1));
        let shared = Arc::new(ActorShared {
            last_service_ns: AtomicU64::new(0),
            admitted: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            draining: AtomicBool::new(false),
        });
        let loop_shared = Arc::clone(&shared);
        let join = std::thread::Builder::new()
            .name("relcheck-serve-engine".to_owned())
            .spawn(move || engine_loop(engine, rx, loop_shared, cfg))
            .expect("spawn engine actor thread");
        ServeActor {
            tx: Some(tx),
            shared,
            join: Some(join),
            cfg,
        }
    }

    /// A new client handle for this actor.
    pub fn client(&self) -> ServeClient {
        ServeClient {
            tx: self
                .tx
                .clone()
                .expect("actor accepts clients until shutdown"),
            shared: Arc::clone(&self.shared),
            cfg: self.cfg,
        }
    }

    /// Stop the actor: close the queue (a drain, if `quit` has not
    /// already drained it), join the thread, and hand back the engine —
    /// still warm, ready for `finish()` — plus the session's overload
    /// counters.
    pub fn shutdown(mut self) -> (ServeEngine, OverloadMetrics) {
        drop(self.tx.take());
        let (engine, watchdog_fires, drained) = self
            .join
            .take()
            .expect("shutdown runs once")
            .join()
            .expect("engine actor thread never panics (requests are unwind-isolated)");
        let overload = OverloadMetrics {
            admitted: self.shared.admitted.load(Ordering::Acquire),
            rejected: self.shared.rejected.load(Ordering::Acquire),
            retries: engine.journal_retries(),
            watchdog_fires,
            drained,
            ..OverloadMetrics::default()
        };
        (engine, overload)
    }
}

/// Serve one admitted request on the actor thread: arm the watchdog
/// deadline and run the line unwind-isolated. Returns the reply and the
/// service time.
fn service_request(
    engine: &mut ServeEngine,
    req: &Request,
    deadline: Option<Duration>,
) -> (Reply, Duration) {
    engine.checker_mut().set_deadline(deadline);
    let start = Instant::now();
    let outcome = catch_unwind(AssertUnwindSafe(|| engine.handle_line(&req.line)));
    let elapsed = start.elapsed();
    let reply = match outcome {
        Ok(reply) => reply,
        Err(payload) => {
            // The checker's panic guard already unwind-isolates checks;
            // this catches everything else (a parse or bookkeeping bug)
            // so one poisoned request cannot take down every session.
            // Clear any armed manager deadline and release the request's
            // scratch before the next request.
            let ldb = engine.checker_mut().logical_db_mut();
            ldb.manager_mut().set_deadline(None);
            ldb.release_scratch();
            Reply {
                lines: vec![format!(
                    "err internal: request failed: {}",
                    panic_message(payload)
                )],
                quit: false,
            }
        }
    };
    (reply, elapsed)
}

/// The actor thread body: serialize requests, publish each service time
/// for the reject path's backoff hint, and drain gracefully on `quit` or
/// queue close. Returns
/// the engine and the (watchdog_fires, drained) counters.
fn engine_loop(
    mut engine: ServeEngine,
    rx: Receiver<Request>,
    shared: Arc<ActorShared>,
    cfg: ServeConfig,
) -> (ServeEngine, u64, u64) {
    // The watchdog ceiling: a tighter user deadline wins, and the
    // original option is restored before the engine is handed back.
    let base_deadline = engine.checker().options().deadline;
    let deadline = Some(base_deadline.map_or(cfg.hard_deadline, |d| d.min(cfg.hard_deadline)));
    let mut watchdog_fires = 0u64;
    let mut drained = 0u64;
    while let Ok(req) = rx.recv() {
        let (reply, elapsed) = service_request(&mut engine, &req, deadline);
        if elapsed >= cfg.hard_deadline {
            watchdog_fires += 1;
        }
        shared
            .last_service_ns
            .store(elapsed.as_nanos() as u64, Ordering::Release);
        let quit = reply.quit;
        if quit {
            // Stop admitting *before* the goodbye is visible, so a client
            // that saw `ok bye` can never slip another request in.
            shared.draining.store(true, Ordering::Release);
        }
        // A client that hung up before its reply is not an error.
        let _ = req.reply.send(reply);
        if quit {
            // Graceful drain: finish every request already admitted.
            while let Ok(queued) = rx.try_recv() {
                let (reply, _) = service_request(&mut engine, &queued, deadline);
                let _ = queued.reply.send(reply);
                drained += 1;
            }
            break;
        }
    }
    // Queue closed without a quit (stdin EOF, or the CLI shutting down
    // after SIGTERM): nothing left to drain, same graceful exit.
    shared.draining.store(true, Ordering::Release);
    engine.checker_mut().set_deadline(base_deadline);
    (engine, watchdog_fires, drained)
}

/// One verdict line: aligned like `relcheck run`'s report, status word
/// included, so scripted sessions can diff name/status pairs against a
/// batch run and an undecided check never reads as `ok`.
fn render_verdict(name: &str, v: &Verdict) -> String {
    let status = v.verdict().label();
    let source = match v {
        Verdict::Checked { .. } => "checked",
        Verdict::Cached { .. } => "cached",
    };
    format!("{name:<32} {status:<9} ({source})")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checker::CheckerOptions;
    use crate::checker::Verdict::{Holds, Violated};
    use relcheck_logic::parse;
    use relcheck_relstore::Database;

    fn engine() -> ServeEngine {
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
        let checker = Checker::new(db, CheckerOptions::default());
        let constraints = vec![
            (
                "r-diagonal".to_owned(),
                parse("forall x, y. R(x, y) -> x = y").unwrap(),
            ),
            (
                "r-covers-s".to_owned(),
                parse("forall x. S(x) -> exists y. R(x, y)").unwrap(),
            ),
            ("s-nonempty".to_owned(), parse("exists x. S(x)").unwrap()),
        ];
        let (engine, reports) = ServeEngine::new(checker, &constraints, None).unwrap();
        assert!(reports.iter().all(|(_, r)| r.holds));
        engine
    }

    #[test]
    fn parse_command_covers_the_protocol() {
        assert_eq!(parse_command("").unwrap(), None);
        assert_eq!(parse_command("  # comment").unwrap(), None);
        assert_eq!(
            parse_command("+R:1,2").unwrap(),
            Some(Command::Delta(
                "R".to_owned(),
                Delta::Insert(vec![Raw::Int(1), Raw::Int(2)])
            ))
        );
        assert_eq!(
            parse_command("-S:Toronto").unwrap(),
            Some(Command::Delta(
                "S".to_owned(),
                Delta::Delete(vec![Raw::str("Toronto")])
            ))
        );
        assert_eq!(parse_command("check").unwrap(), Some(Command::Check(None)));
        assert_eq!(
            parse_command("check r-diagonal").unwrap(),
            Some(Command::Check(Some("r-diagonal".to_owned())))
        );
        assert_eq!(parse_command("stats").unwrap(), Some(Command::Stats));
        assert_eq!(parse_command("quit").unwrap(), Some(Command::Quit));
        assert!(parse_command("bogus").is_err());
        assert!(parse_command("check a b").is_err());
        assert!(parse_command("advise").is_err());
        assert!(parse_command("+R").is_err());
    }

    #[test]
    fn skip_iff_read_set_disjoint_from_dirty_set() {
        let mut e = engine();
        // Delta on S: exactly the S-readers re-check; the R-only
        // constraint answers from cache.
        e.apply("S", &Delta::Insert(vec![Raw::Int(1)])).unwrap();
        let verdicts = e.check_all().unwrap();
        let by_name: std::collections::HashMap<_, _> = verdicts.into_iter().collect();
        assert!(matches!(
            by_name["r-diagonal"],
            Verdict::Cached { verdict: Holds }
        ));
        assert!(matches!(
            by_name["r-covers-s"],
            Verdict::Checked { verdict: Holds }
        ));
        assert!(matches!(
            by_name["s-nonempty"],
            Verdict::Checked { verdict: Holds }
        ));
        let s = e.stats();
        assert_eq!(s.constraints_checked, 2);
        assert_eq!(s.constraints_skipped, 1);
    }

    #[test]
    fn spanning_constraint_is_never_skipped() {
        let mut e = engine();
        // r-covers-s reads both relations: any delta re-checks it.
        for delta in ["+R:3,3", "+S:2"] {
            let (rel, d) = parse_delta(delta).unwrap();
            e.apply(&rel, &d).unwrap();
            let verdicts = e.check_all().unwrap();
            let by_name: std::collections::HashMap<_, _> = verdicts.into_iter().collect();
            assert!(
                matches!(by_name["r-covers-s"], Verdict::Checked { .. }),
                "spanning constraint skipped after {delta}"
            );
        }
    }

    #[test]
    fn empty_delta_answers_everything_from_cache() {
        let mut e = engine();
        let verdicts = e.check_all().unwrap();
        assert!(verdicts
            .iter()
            .all(|(_, v)| matches!(v, Verdict::Cached { .. })));
        let s = e.stats();
        assert_eq!(s.constraints_skipped, 3);
        assert_eq!(s.constraints_checked, 0);
        assert_eq!(s.dirty_peak, 0);
    }

    #[test]
    fn check_one_leaves_other_dirtiness_pending() {
        let mut e = engine();
        e.apply("R", &Delta::Insert(vec![Raw::Int(1), Raw::Int(2)]))
            .unwrap();
        let v = e.check_one("r-diagonal").unwrap().unwrap();
        assert!(matches!(v, Verdict::Checked { verdict: Violated }));
        // The dirty set survives a targeted check…
        assert!(e.dirty().contains("R"));
        // …so the next full check still re-checks the other R-reader.
        let verdicts = e.check_all().unwrap();
        let by_name: std::collections::HashMap<_, _> = verdicts.into_iter().collect();
        assert!(matches!(by_name["r-covers-s"], Verdict::Checked { .. }));
        assert!(e.dirty().is_empty());
        assert!(e.check_one("no-such").unwrap().is_none());
    }

    #[test]
    fn protocol_session_end_to_end() {
        let mut e = engine();
        let r = e.handle_line("+R:1,2");
        assert_eq!(r.lines, vec!["ok delta +R applied=true dirty=1"]);
        let r = e.handle_line("check");
        assert_eq!(
            r.lines.last().unwrap(),
            "ok check checked=2 skipped=1 dirty=1"
        );
        assert!(r
            .lines
            .iter()
            .any(|l| l.starts_with("r-diagonal") && l.contains("VIOLATED")));
        let r = e.handle_line("check s-nonempty");
        assert_eq!(
            r.lines.last().unwrap(),
            "ok check checked=0 skipped=1 dirty=0"
        );
        let r = e.handle_line("+R:9,9");
        // Arity is fine; applying the same tuple twice changes nothing.
        assert_eq!(r.lines, vec!["ok delta +R applied=true dirty=1"]);
        let r = e.handle_line("+R:9");
        assert!(r.lines[0].starts_with("err delta +R:"), "{:?}", r.lines);
        let r = e.handle_line("nonsense");
        assert!(r.lines[0].starts_with("err unknown command"));
        let r = e.handle_line("stats");
        assert!(r.lines[0].starts_with("ok stats requests=7 deltas=2 checks=2"));
        let mgr = e.checker().logical_db().manager();
        assert!(
            r.lines[0].ends_with(&format!(
                " live_nodes={} kept_nodes={} gc_runs={}",
                mgr.live_nodes(),
                mgr.kept_nodes(),
                mgr.stats().gc_runs
            )),
            "{:?}",
            r.lines
        );
        let r = e.handle_line("quit");
        assert!(r.quit);
        assert_eq!(r.lines, vec!["ok bye"]);
    }

    #[test]
    fn a_check_that_errors_replies_errored_and_is_not_cached() {
        let mut e = engine();
        // R(1, 2) breaks the diagonal; the check then dies before its
        // emptiness test, so it decides nothing.
        let r = e.handle_line("+R:1,2");
        assert_eq!(r.lines, vec!["ok delta +R applied=true dirty=1"]);
        crate::exec::PANIC_BEFORE_TEST.with(|armed| armed.set(true));
        let r = e.handle_line("check r-diagonal");
        assert_eq!(
            r.lines[0],
            format!("{:<32} {:<9} (checked)", "r-diagonal", "ERRORED")
        );
        // Nothing was cached, so the next check re-checks and decides.
        let r = e.handle_line("check r-diagonal");
        assert_eq!(
            r.lines[0],
            format!("{:<32} {:<9} (checked)", "r-diagonal", "VIOLATED")
        );
    }

    #[test]
    fn maintenance_through_the_engine_retires_stale_verdicts() {
        let mut e = engine();
        // Out-of-band row mutation + rebuild (what store recovery does):
        // no delta marks R dirty, but the epoch-based invalidation must
        // force a re-check anyway.
        let one = e
            .checker()
            .logical_db()
            .db()
            .code("k", &Raw::Int(1))
            .unwrap();
        let two = e
            .checker()
            .logical_db()
            .db()
            .code("k", &Raw::Int(2))
            .unwrap();
        e.checker_mut()
            .logical_db_mut()
            .db_mut()
            .relation_mut("R")
            .unwrap()
            .insert(&[one, two])
            .unwrap();
        e.checker_mut().rebuild_index("R").unwrap();
        let verdicts = e.check_all().unwrap();
        let by_name: std::collections::HashMap<_, _> = verdicts.into_iter().collect();
        assert!(matches!(
            by_name["r-diagonal"],
            Verdict::Checked { verdict: Violated }
        ));
        assert!(matches!(
            by_name["s-nonempty"],
            Verdict::Cached { verdict: Holds }
        ));
    }

    #[test]
    fn overflow_degrades_to_sql_and_stays_correct() {
        let mut e = engine();
        // Value 7 was never interned; the frozen "k" block cannot hold it.
        e.apply("S", &Delta::Insert(vec![Raw::Int(7)])).unwrap();
        assert!(e.checker().is_sql_only("S"));
        let verdicts = e.check_all().unwrap();
        let by_name: std::collections::HashMap<_, _> = verdicts.into_iter().collect();
        // S(7) has no covering R tuple: the spanning constraint breaks,
        // and the verdict is decided correctly on the SQL rung.
        assert!(matches!(
            by_name["r-covers-s"],
            Verdict::Checked { verdict: Violated }
        ));
        assert!(matches!(
            by_name["s-nonempty"],
            Verdict::Checked { verdict: Holds }
        ));
        assert!(matches!(
            by_name["r-diagonal"],
            Verdict::Cached { verdict: Holds }
        ));
    }
}

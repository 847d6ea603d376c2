//! The constraint checker: BDD-first with SQL fallback.
//!
//! [`Checker`] is the system the paper evaluates. Registering a database
//! builds (lazily, per referenced relation) BDD logical indices under a
//! configurable variable-ordering strategy and node budget. Each
//! [`Checker::check`] call:
//!
//! 1. tries the **BDD path** — the rewrite pipeline plus compiled BDD
//!    manipulation of Section 4;
//! 2. on a budget abort (`BddError::NodeLimit`, a deadline or an injected
//!    fault), releases the aborted work's scratch and **falls back to
//!    SQL** (the translated violation plan of [`crate::sqlgen`]), exactly
//!    the paper's thresholding strategy;
//! 3. for constraint shapes outside the SQL translator's class, or when
//!    the SQL rung fails, falls back to brute-force active-domain
//!    evaluation as a last resort.
//!
//! The ladder is the only routing decision: no cost model predicts BDD
//! size (Theorem 2 makes that NP-hard). A check enters at the SQL rung
//! only when a relation it reads is SQL-only (its index build ran over
//! budget, or [`Checker::mark_sql_only`] marked it, as serve does on a
//! domain overflow), when the serve governor sheds it
//! ([`Checker::set_shed_load`]), or when the caller asks for the SQL
//! baseline ([`Checker::check_sql`]). All three walk the same ladder.
//!
//! Once violated constraints are identified, [`Checker::find_violations`]
//! runs the SQL plan to materialize the offending tuples, and
//! [`Checker::find_violations_counted`] enumerates them from the
//! violation BDD with an exact count — the paper's "first identify
//! violated constraints fast, then focus on the tuples".

use crate::error::{CoreError, Result};
use crate::index::LogicalDatabase;
use crate::ordering::OrderingStrategy;
use crate::plan::{fnv1a, formula_fingerprint, BddStep, BddTest, CheckPlan, PlanOptions, SqlStep};
use crate::sqlgen::{self, Shape};
use crate::telemetry::{
    CheckTrace, FallbackReason, IndexEvent, IndexProvenance, PassStat, PhaseTimings, RuleFiring,
};
use relcheck_bdd::{failpoint, BddError, ManagerStats, StatsDelta};
use relcheck_logic::eval::eval_sentence;
use relcheck_logic::Formula;
use relcheck_relstore::plan::execute;
use relcheck_relstore::Relation;
use std::collections::{HashMap, HashSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// Checker configuration.
#[derive(Debug, Clone, Copy)]
pub struct CheckerOptions {
    /// Live-node budget for the shared BDD manager. `None` = unlimited.
    /// The paper settles on 10⁶ nodes (Section 5.2).
    pub node_limit: Option<usize>,
    /// The plan configuration every check plans under: the §4.4 rewrite
    /// pipeline and rename-join, the paper's two ablation axes.
    pub plan: PlanOptions,
    /// Variable-ordering strategy for index construction.
    pub ordering: OrderingStrategy,
    /// Per-constraint wall-clock budget. Armed at the start of every
    /// [`Checker::check`] call; the BDD recursion polls it (see
    /// [`relcheck_bdd::BddManager::set_deadline`]) and aborts with
    /// [`BddError::Deadline`], which escalates down the degradation ladder
    /// exactly like a node-budget abort. `None` = no deadline.
    pub deadline: Option<Duration>,
    /// BDD apply-cache slot count. `None` = the default
    /// ([`crate::index::DEFAULT_CACHE_SLOTS`]). Sizing only affects
    /// memoization hit rates, never verdicts.
    pub apply_cache_slots: Option<usize>,
}

impl Default for CheckerOptions {
    fn default() -> Self {
        CheckerOptions {
            node_limit: Some(1_000_000),
            plan: PlanOptions::default(),
            ordering: OrderingStrategy::ProbConverge,
            deadline: None,
            apply_cache_slots: None,
        }
    }
}

/// The degradation ladder's rung names, as traces, plans and
/// certificates report them (DESIGN.md §6).
pub mod rung {
    /// Rung 1: the paper's BDD path.
    pub const BDD: &str = "bdd";
    /// Rung 2: the pre-translated SQL plan.
    pub const SQL: &str = "sql";
    /// Rung 3: brute-force active-domain evaluation.
    pub const BRUTE_FORCE: &str = "brute_force";
    /// Rung 4: every rung failed; the verdict is degraded.
    pub const DEGRADED: &str = "degraded";
    /// The check died (panic or injected fault) before any rung answered.
    pub const ERRORED: &str = "errored";
    /// Every rung, in ladder order.
    pub const ALL: [&str; 5] = [BDD, SQL, BRUTE_FORCE, DEGRADED, ERRORED];
}

/// How a check was ultimately decided.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Method {
    /// Decided on the BDD logical indices.
    Bdd,
    /// BDD path aborted (node budget or unindexed relation); decided by the
    /// translated SQL plan.
    SqlFallback,
    /// Neither path applied; decided by brute-force active-domain
    /// enumeration.
    BruteForce,
    /// No path produced an answer: the check panicked, was killed by an
    /// injected fault, or exhausted every rung of the degradation ladder.
    /// Only [`Verdict::Degraded`] / [`Verdict::Errored`] reports carry it.
    Aborted,
}

impl Method {
    /// Every method.
    pub(crate) const ALL: [Method; 4] = [
        Method::Bdd,
        Method::SqlFallback,
        Method::BruteForce,
        Method::Aborted,
    ];

    /// Stable machine-readable name (the metrics schema's `method`). A
    /// method that is one rung's answer carries that rung's name.
    pub(crate) fn name(self) -> &'static str {
        match self {
            Method::Bdd => rung::BDD,
            Method::SqlFallback => "sql_fallback",
            Method::BruteForce => rung::BRUTE_FORCE,
            Method::Aborted => "aborted",
        }
    }
}

/// What a check actually established. [`CheckReport::holds`] collapses
/// this to a boolean for the common case; the verdict keeps the undecided
/// outcomes distinguishable so a failed check is never silently read as a
/// clean one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Decided: the constraint holds.
    Holds,
    /// Decided: the constraint is violated.
    Violated,
    /// Undecided: every rung of the degradation ladder failed (see
    /// `DESIGN.md` §6). The error string says why the last rung failed.
    Degraded,
    /// Undecided: the check died (panic or injected fault) before any rung
    /// could answer. The error string carries the panic payload.
    Errored,
}

impl Verdict {
    /// Every verdict.
    pub(crate) const ALL: [Verdict; 4] = [
        Verdict::Holds,
        Verdict::Violated,
        Verdict::Degraded,
        Verdict::Errored,
    ];

    /// Stable machine-readable name (`"holds"`, `"violated"`, `"degraded"`,
    /// `"errored"`). The undecided verdicts share the name of the ladder
    /// rung that produces them.
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Holds => "holds",
            Verdict::Violated => "violated",
            Verdict::Degraded => rung::DEGRADED,
            Verdict::Errored => rung::ERRORED,
        }
    }

    /// The status word `relcheck run` and `serve` print: `ok`,
    /// `VIOLATED`, `DEGRADED` or `ERRORED`.
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Holds => "ok",
            Verdict::Violated => "VIOLATED",
            Verdict::Degraded => "DEGRADED",
            Verdict::Errored => "ERRORED",
        }
    }

    /// True for [`Verdict::Holds`] / [`Verdict::Violated`] — the check
    /// produced a real answer.
    pub fn is_decided(self) -> bool {
        matches!(self, Verdict::Holds | Verdict::Violated)
    }
}

/// Outcome of one constraint check.
#[derive(Debug, Clone)]
pub struct CheckReport {
    /// Does the constraint hold? Meaningful only when
    /// [`CheckReport::verdict`] is decided; undecided reports carry `true`
    /// here so legacy consumers that only look at `holds` do not misread a
    /// failed check as a violation.
    pub holds: bool,
    /// What the check established (decided vs degraded vs errored).
    pub verdict: Verdict,
    /// Why the check could not decide, when `verdict` is undecided.
    pub error: Option<String>,
    /// Which evaluation path decided it.
    pub method: Method,
    /// Wall-clock time for the decision.
    pub elapsed: Duration,
    /// Live BDD nodes after the check, after the collection that runs
    /// when garbage has piled up past the manager's allowance.
    pub live_nodes: usize,
    /// What the check did: the ladder it walked and why, the planner's
    /// rule firings and passes, index provenance, phase timings and BDD
    /// work. Every report carries one.
    pub trace: CheckTrace,
}

impl CheckReport {
    /// A report for a check that died before any ladder rung could answer
    /// (a caught panic or an injected fault): verdict
    /// [`Verdict::Errored`], with the payload preserved in `error` and in
    /// the trace's [`FallbackReason::Panic`]. The check still ran, so it
    /// keeps its wall time, its BDD work `bdd` and the live nodes it left.
    pub(crate) fn errored(
        message: String,
        elapsed: Duration,
        bdd: StatsDelta,
        live_nodes: usize,
    ) -> CheckReport {
        CheckReport {
            holds: true,
            verdict: Verdict::Errored,
            trace: trace(
                None,
                Some(FallbackReason::Panic(message.clone())),
                vec![rung::ERRORED],
                PhaseTimings::default(),
                bdd,
            ),
            error: Some(message),
            method: Method::Aborted,
            elapsed,
            live_nodes,
        }
    }
}

/// Build a check's trace: the one constructor the ladder walk and
/// [`CheckReport::errored`] share. `planned` carries the check's plan,
/// the executor's R2 firings and the index provenance; the paths that run
/// no plan pass `None` and record only the ladder, the fallback reason,
/// the timings and the BDD work.
fn trace(
    planned: Option<(&CheckPlan, Vec<RuleFiring>, Vec<IndexEvent>)>,
    fallback: Option<FallbackReason>,
    ladder: Vec<&'static str>,
    timings: PhaseTimings,
    bdd: StatsDelta,
) -> CheckTrace {
    let (rules, passes, index_events) = match planned {
        Some((plan, mut r2, index_events)) => {
            // Plan-level R3/R1/R4 firings in application order, then the
            // executor's R2 events.
            let mut rules = plan.rule_firings();
            rules.append(&mut r2);
            let passes = plan
                .passes
                .iter()
                .map(|p| PassStat {
                    pass: p.pass,
                    rule: p.rule,
                    fired: p.fired,
                    gated: p.gated,
                })
                .collect();
            (rules, passes, index_events)
        }
        None => Default::default(),
    };
    CheckTrace {
        rules,
        passes,
        index_events,
        fallback,
        ladder,
        timings,
        bdd,
    }
}

/// Render a caught panic payload as a string for an `Errored` report.
pub(crate) fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic with non-string payload".to_owned()
    }
}

/// The budget-style aborts the degradation ladder absorbs; anything else
/// propagates as a hard error. The persistent index store reuses this
/// classification: a warm-start build that aborts on budget routes the
/// relation to SQL-only exactly like a cold build would.
pub(crate) fn budget_abort(e: &CoreError) -> Option<BddError> {
    match e {
        CoreError::Bdd(
            b @ (BddError::NodeLimit { .. }
            | BddError::Deadline { .. }
            | BddError::FaultInjected { .. }),
        ) => Some(b.clone()),
        _ => None,
    }
}

/// Map an absorbed abort to the trace-level reason it records.
fn abort_reason(b: &BddError) -> FallbackReason {
    match b {
        BddError::NodeLimit { limit, live } => FallbackReason::NodeLimit {
            limit: *limit,
            live: *live,
        },
        BddError::Deadline { .. } => FallbackReason::Deadline,
        other => FallbackReason::Panic(other.to_string()),
    }
}

/// A bounded violation sample with an exact total, produced by
/// [`Checker::find_violations_counted`] for certificate emission: the
/// outer-∀ variable names in prefix order, their inferred attribute
/// classes, up to `limit` witness rows of dictionary codes, and the exact
/// number of violating assignments counted on the violation BDD itself.
#[derive(Debug, Clone, PartialEq)]
pub struct CountedViolations {
    /// Outer universal variable names, prefix order.
    pub vars: Vec<String>,
    /// Attribute class of each variable (parallel to `vars`).
    pub classes: Vec<String>,
    /// Up to `limit` violating rows of dictionary codes.
    pub rows: Vec<Vec<u32>>,
    /// Exact violating-assignment count (`rows.len() as f64` iff
    /// enumeration was exhaustive).
    pub total: f64,
}

impl CountedViolations {
    /// The witness rows as values, each code decoded in its variable's
    /// class dictionary.
    pub fn decode(&self, db: &relcheck_relstore::Database) -> Vec<Vec<relcheck_relstore::Raw>> {
        self.rows
            .iter()
            .map(|row| {
                row.iter()
                    .zip(&self.classes)
                    .map(|(&code, class)| {
                        db.dict(class).expect("indexed class").decode(code).clone()
                    })
                    .collect()
            })
            .collect()
    }
}

/// Index details inside an [`Explanation`].
#[derive(Debug, Clone)]
pub struct IndexInfo {
    /// The relation.
    pub relation: String,
    /// Node count of its BDD index (0 if SQL-only).
    pub nodes: usize,
    /// Attribute ordering the index was declared with.
    pub ordering: Vec<usize>,
    /// True if the index build busted the node budget.
    pub sql_only: bool,
}

/// The BDD step of a plan as [`Checker::explain`] reports it.
#[derive(Debug, Clone)]
pub struct BddStepInfo {
    /// The leading quantifiers of the formula domains are allocated over
    /// (the prenex form, unless the plan skips that pass), outermost first.
    pub prenex_prefix: Vec<String>,
    /// The formula under that prefix (quantifier-free after prenexing).
    pub matrix: String,
    /// How many leading quantifiers the §4.1 rule eliminates.
    pub stripped_leading: usize,
    /// Which O(1) test decides the constraint.
    pub mode: &'static str,
    /// The formula the BDD compiler actually processes (after negation,
    /// push-down, simplification).
    pub compiled_body: String,
}

impl BddStepInfo {
    fn of(step: &BddStep) -> BddStepInfo {
        let mut prefix = Vec::new();
        let mut matrix = &step.alloc;
        loop {
            let (q, vs, g) = match matrix {
                Formula::Forall(vs, g) => ("∀", vs, g),
                Formula::Exists(vs, g) => ("∃", vs, g),
                _ => break,
            };
            prefix.extend(vs.iter().map(|v| format!("{q}{v}")));
            matrix = g;
        }
        BddStepInfo {
            prenex_prefix: prefix,
            matrix: matrix.to_string(),
            stripped_leading: step.stripped.len(),
            mode: match step.test {
                BddTest::ViolationsEmpty => {
                    "validity, tested by refutation (violation set must be empty)"
                }
                BddTest::Satisfiable => "satisfiability (compiled BDD must be non-false)",
            },
            compiled_body: step.body.to_string(),
        }
    }
}

/// EXPLAIN output for a constraint (see [`Checker::explain`]).
#[derive(Debug, Clone)]
pub struct Explanation {
    /// The plan's BDD step, or `None` when the plan skips it because a
    /// relation the constraint reads is SQL-only.
    pub bdd: Option<BddStepInfo>,
    /// Per-relation index details.
    pub indices: Vec<IndexInfo>,
    /// The SQL fallback plan, if the constraint is in the translatable
    /// class.
    pub sql_plan: Option<String>,
}

impl std::fmt::Display for Explanation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.bdd {
            Some(b) => {
                writeln!(f, "prenex prefix : {}", b.prenex_prefix.join(" "))?;
                writeln!(f, "matrix        : {}", b.matrix)?;
                writeln!(
                    f,
                    "leading quant : {} eliminated -> {}",
                    b.stripped_leading, b.mode
                )?;
                writeln!(f, "compiled body : {}", b.compiled_body)?;
            }
            None => writeln!(
                f,
                "bdd step      : skipped (a relation it reads is SQL-only)"
            )?,
        }
        for i in &self.indices {
            if i.sql_only {
                writeln!(f, "index {}: SQL-only (over node budget)", i.relation)?;
            } else {
                writeln!(
                    f,
                    "index {}: {} nodes, ordering {:?}",
                    i.relation, i.nodes, i.ordering
                )?;
            }
        }
        match &self.sql_plan {
            Some(p) => writeln!(f, "sql fallback  : {p}"),
            None => writeln!(f, "sql fallback  : (untranslatable; brute force)"),
        }
    }
}

/// Where a check enters the degradation ladder.
enum Entry<'p> {
    /// [`Checker::check`]: the plan's BDD step (when it has one and the
    /// governor did not shed the check), then its SQL step. The trace
    /// records the plan's passes and the index provenance.
    Plan(&'p CheckPlan, Vec<IndexEvent>),
    /// [`Checker::check_sql`]: the SQL rung, with the translated step
    /// when the constraint has one.
    Sql(Option<&'p SqlStep>),
}

/// The constraint-checking system (see module docs).
pub struct Checker {
    ldb: LogicalDatabase,
    opts: CheckerOptions,
    /// Relations whose index build exceeded the budget: permanently
    /// SQL-only (paper: "we do not materialize the BDD").
    sql_only: HashSet<String>,
    /// Explicit invalidation epoch: bumped whenever the environment
    /// changes in a way tuple counters cannot see ([`Checker::rebuild_index`],
    /// [`Checker::mark_sql_only`]); folded into the schema fingerprint.
    epoch: u64,
    /// Per-relation record of the epoch at which the relation was last
    /// explicitly invalidated (`rebuild_index` / `mark_sql_only`). This
    /// map lets verdict caches (the registry) retire cached verdicts, but
    /// only for constraints that actually read the invalidated relation.
    invalidated: HashMap<String, u64>,
    /// When set, checks enter the degradation ladder at the SQL rung
    /// instead of building BDDs ([`FallbackReason::Overload`]). Flipped
    /// per-request by the serve admission governor; never affects the
    /// verdict, only the path that decides it.
    shed_load: bool,
}

impl Checker {
    /// Wrap a database. Indices are built lazily as constraints reference
    /// relations.
    pub fn new(db: relcheck_relstore::Database, opts: CheckerOptions) -> Checker {
        let slots = opts
            .apply_cache_slots
            .unwrap_or(crate::index::DEFAULT_CACHE_SLOTS);
        let mut ldb = LogicalDatabase::with_cache_slots(db, slots);
        ldb.manager_mut().set_node_limit(opts.node_limit);
        Checker {
            ldb,
            opts,
            sql_only: HashSet::new(),
            epoch: 0,
            invalidated: HashMap::new(),
            shed_load: false,
        }
    }

    /// Access the underlying logical database (indices, manager, data).
    pub fn logical_db(&self) -> &LogicalDatabase {
        &self.ldb
    }

    /// Mutable access (e.g. for incremental maintenance).
    pub fn logical_db_mut(&mut self) -> &mut LogicalDatabase {
        &mut self.ldb
    }

    /// The active options.
    pub fn options(&self) -> &CheckerOptions {
        &self.opts
    }

    /// Enter (or leave) load-shedding mode: while set, checks skip the
    /// BDD rung and enter the ladder at SQL, recorded in the trace as
    /// [`FallbackReason::Overload`]. The SQL and brute-force rungs decide
    /// the same verdict the full ladder would, so shedding trades memory
    /// headroom for per-check speed without ever changing an answer.
    pub fn set_shed_load(&mut self, shed: bool) {
        self.shed_load = shed;
    }

    /// Replace the per-check wall-clock deadline. The serve watchdog uses
    /// this to arm a hard ceiling on every request it dispatches so a
    /// stuck check escalates down the ladder instead of hanging the
    /// engine actor.
    pub fn set_deadline(&mut self, deadline: Option<Duration>) {
        self.opts.deadline = deadline;
    }

    /// Force index construction for a relation now (otherwise lazy).
    /// Returns false if the relation went over budget and is SQL-only.
    pub fn ensure_index(&mut self, name: &str) -> Result<bool> {
        if self.sql_only.contains(name) {
            return Ok(false);
        }
        if self.ldb.has_index(name) {
            return Ok(true);
        }
        // A lazy first-time build does not bump the epoch: materializing
        // an index changes no verdict, so verdicts cached before the build
        // stay valid. (A budget abort inside still lands the relation in
        // `sql_only`, which the schema fingerprint covers.)
        self.build_index_now(name)
    }

    /// Build a fresh index for a relation right now, replacing any index it
    /// already has — the persistent store's recovery path, where a cached
    /// index turned out to be unusable partway through adoption. Budget
    /// aborts route the relation to SQL-only exactly like
    /// [`Checker::ensure_index`] would.
    pub fn rebuild_index(&mut self, name: &str) -> Result<bool> {
        // An explicit rebuild — recovery, or budget-out — changes the
        // environment out of band: bump the epoch, and record the relation
        // so verdict caches reading it retire their verdicts.
        self.epoch += 1;
        self.invalidated.insert(name.to_owned(), self.epoch);
        self.build_index_now(name)
    }

    fn build_index_now(&mut self, name: &str) -> Result<bool> {
        match self.ldb.build_index(name, self.opts.ordering) {
            Ok(_) => Ok(true),
            // A budget abort — node limit, deadline, or injected fault —
            // makes the relation SQL-only instead of failing the check:
            // every later reference routes through the fallback ladder.
            Err(e) if budget_abort(&e).is_some() => {
                self.ldb.release_scratch();
                self.sql_only.insert(name.to_owned());
                Ok(false)
            }
            Err(e) => Err(e),
        }
    }

    /// Mark a relation permanently SQL-only, as if its index build had
    /// busted the node budget. `serve` uses this when a delta value falls
    /// outside a frozen BDD block, so the relation keeps answering on the
    /// SQL rung until a restart rebuilds wider blocks.
    pub fn mark_sql_only(&mut self, name: &str) {
        // The sql_only set is part of the schema fingerprint, but bump the
        // epoch too so the invalidation does not depend on set contents
        // alone (e.g. mark, unmark-by-rebuild, re-mark round trips).
        self.epoch += 1;
        self.invalidated.insert(name.to_owned(), self.epoch);
        self.sql_only.insert(name.to_owned());
    }

    /// The current invalidation epoch (see [`Checker::rebuild_index`]).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The epoch at which `name` was last explicitly invalidated via
    /// [`Checker::rebuild_index`] or [`Checker::mark_sql_only`], or 0 if it
    /// never was. A verdict cached at epoch `e` is stale for any constraint
    /// reading a relation whose invalidation epoch exceeds `e` — the usual
    /// trigger is maintenance that mutated rows out-of-band (the store's
    /// recovery path) before rebuilding the index.
    pub fn relation_invalidation_epoch(&self, name: &str) -> u64 {
        self.invalidated.get(name).copied().unwrap_or(0)
    }

    /// Is this relation on the permanent SQL-only list?
    pub fn is_sql_only(&self, name: &str) -> bool {
        self.sql_only.contains(name)
    }

    pub(crate) fn referenced_relations(f: &Formula) -> Vec<String> {
        fn go(f: &Formula, out: &mut Vec<String>) {
            match f {
                Formula::Atom { relation, .. } if !out.contains(relation) => {
                    out.push(relation.clone());
                }
                Formula::Atom { .. } => {}
                Formula::Not(g) => go(g, out),
                Formula::And(fs) | Formula::Or(fs) => fs.iter().for_each(|g| go(g, out)),
                Formula::Implies(a, b) => {
                    go(a, out);
                    go(b, out);
                }
                Formula::Exists(_, g) | Formula::Forall(_, g) => go(g, out),
                _ => {}
            }
        }
        let mut out = Vec::new();
        go(f, &mut out);
        out
    }

    /// The fingerprint of everything a [`CheckPlan`] depends on besides the
    /// constraint itself: data version, invalidation epoch, ordering
    /// strategy, plan options, and the SQL-only set — the
    /// [`CheckPlan::schema_fp`] a plan and a certificate record. Any tuple
    /// mutation, index rebuild, or routing change produces a different
    /// fingerprint.
    pub fn schema_fingerprint(&self) -> u64 {
        let mut bytes = Vec::with_capacity(32 + 16 * self.sql_only.len());
        bytes.extend_from_slice(&self.ldb.data_version().to_le_bytes());
        bytes.extend_from_slice(&self.epoch.to_le_bytes());
        bytes.extend_from_slice(&self.opts.ordering.fingerprint().to_le_bytes());
        bytes.extend_from_slice(&self.opts.plan.bits().to_le_bytes());
        let mut names: Vec<&str> = self.sql_only.iter().map(String::as_str).collect();
        names.sort_unstable();
        for n in names {
            bytes.extend_from_slice(n.as_bytes());
            bytes.push(0);
        }
        fnv1a(&bytes)
    }

    /// Reject a constraint no rung could read: one with free variables or
    /// naming an unknown relation. Both are typed errors, never a
    /// degraded verdict.
    fn reject_malformed(&self, f: &Formula) -> Result<()> {
        let free = f.free_vars();
        if !free.is_empty() {
            return Err(CoreError::Logic(relcheck_logic::LogicError::FreeVariables(
                free,
            )));
        }
        for relation in Self::referenced_relations(f) {
            self.ldb.db().relation(&relation)?;
        }
        Ok(())
    }

    /// The preamble of every entry point that plans a constraint: reject a
    /// malformed one, then index every relation the constraint reads (or
    /// find it SQL-only). Returns one [`IndexEvent`] per relation, in
    /// reference order.
    fn prepare(&mut self, f: &Formula) -> Result<Vec<IndexEvent>> {
        self.reject_malformed(f)?;
        Self::referenced_relations(f)
            .into_iter()
            .map(|relation| {
                let had = self.ldb.has_index(&relation);
                let provenance = if !self.ensure_index(&relation)? {
                    IndexProvenance::SqlOnly
                } else if had {
                    IndexProvenance::Reused
                } else {
                    IndexProvenance::Built
                };
                Ok(IndexEvent {
                    relation,
                    provenance,
                })
            })
            .collect()
    }

    /// Build (without executing) the [`CheckPlan`] for a constraint under
    /// the current options — what `relcheck plan` prints. Ensures the
    /// referenced indices exist first, exactly as a check would, so the
    /// plan's BDD/SQL routing and fingerprints match what
    /// [`Checker::check`] will do next.
    pub fn plan(&mut self, f: &Formula) -> Result<CheckPlan> {
        self.prepare(f)?;
        let fp = self.schema_fingerprint();
        Ok(crate::planner::plan_check(
            self.ldb.db(),
            f,
            self.opts.plan,
            &self.sql_only,
            fp,
        ))
    }

    /// The `(constraint fingerprint, schema fingerprint)` pair a
    /// certificate stamps: what was checked, and against which data and
    /// configuration. Ensures referenced indices first, as a check does —
    /// a budget-out build lands its relation in the SQL-only set the
    /// schema fingerprint covers — so the pair matches the check's plan.
    pub fn certificate_fingerprints(&mut self, f: &Formula) -> Result<(u64, u64)> {
        self.prepare(f)?;
        Ok((formula_fingerprint(f), self.schema_fingerprint()))
    }

    /// Decide a constraint. See module docs for the strategy; the full
    /// degradation ladder (`DESIGN.md` §6) is BDD → SQL plan → brute
    /// force → [`Verdict::Degraded`]. Every check plans fresh.
    pub fn check(&mut self, f: &Formula) -> Result<CheckReport> {
        // Arm the per-check wall-clock budget. The deadline lives in the
        // manager so the BDD recursion can poll it; clear it on every exit
        // path so later manager work is unaffected.
        let armed = self.opts.deadline.map(|d| Instant::now() + d);
        self.ldb.manager_mut().set_deadline(armed);
        let report = self.check_inner(f);
        self.ldb.manager_mut().set_deadline(None);
        report
    }

    /// [`Checker::check`] behind the per-constraint panic guard: a
    /// constraint that panics (a compiler bug, an injected fault) yields a
    /// [`Verdict::Errored`] report carrying the payload instead of
    /// unwinding into the caller. Typed errors still propagate. Every
    /// batch path — [`Checker::check_all`], the registry, serve
    /// `certify` — checks through this one guard.
    pub(crate) fn check_guarded(&mut self, f: &Formula) -> Result<CheckReport> {
        let start = Instant::now();
        let before = self.ldb.manager().stats();
        match catch_unwind(AssertUnwindSafe(|| self.check(f))) {
            Ok(result) => result,
            Err(payload) => {
                // The manager's tables are structurally sound at any
                // unwind point (no unsafe code); disarm the deadline and
                // drop scratch so the next check starts clean. That
                // cleanup is the check's work too, so the report's window
                // closes after it.
                self.ldb.manager_mut().set_deadline(None);
                self.ldb.release_scratch();
                Ok(CheckReport::errored(
                    panic_message(payload),
                    start.elapsed(),
                    self.ldb.manager().stats().delta_since(&before),
                    self.ldb.manager().live_nodes(),
                ))
            }
        }
    }

    fn check_inner(&mut self, f: &Formula) -> Result<CheckReport> {
        let start = Instant::now();
        let before = self.ldb.manager().stats();
        let index_events = self.prepare(f)?;
        let index_time = start.elapsed();
        // Plan after ensuring indices: a budget-out build lands its
        // relation in `sql_only`, which the plan's routing and its schema
        // fingerprint both read.
        let plan = crate::planner::plan_check(
            self.ldb.db(),
            f,
            self.opts.plan,
            &self.sql_only,
            self.schema_fingerprint(),
        );
        debug_assert_eq!(
            plan.bdd.is_some(),
            index_events
                .iter()
                .all(|e| e.provenance != IndexProvenance::SqlOnly),
            "plan routing must agree with index state"
        );
        self.walk_ladder(
            f,
            Entry::Plan(&plan, index_events),
            start,
            before,
            index_time,
        )
    }

    /// The degradation ladder (`DESIGN.md` §6), walked once per check
    /// from `entry`: the BDD rung, then SQL, then brute force, and
    /// `degraded` when no rung decided. A budget abort on the BDD rung
    /// releases its scratch and falls to SQL; a failing SQL rung falls to
    /// brute force. Only a hard (non-budget) error on the BDD rung
    /// propagates. The report's window opened at `start`, with the
    /// manager's counters at `before`.
    fn walk_ladder(
        &mut self,
        f: &Formula,
        entry: Entry<'_>,
        start: Instant,
        before: ManagerStats,
        index: Duration,
    ) -> Result<CheckReport> {
        let eval_start = Instant::now();
        let (bdd, sql, mut fallback, planned) = match entry {
            Entry::Plan(plan, events) => {
                let (bdd, fallback) = match &plan.bdd {
                    None => (None, Some(FallbackReason::UnindexedRelation)),
                    // The admission governor shed this check: skip the BDD
                    // rung's node-heavy intermediates and enter at SQL,
                    // which decides the same verdict.
                    Some(_) if self.shed_load => (None, Some(FallbackReason::Overload)),
                    Some(step) => (Some(step), None),
                };
                (bdd, plan.sql.as_ref(), fallback, Some((plan, events)))
            }
            Entry::Sql(step) => (None, step, None, None),
        };
        // R2 firings from the executor. They survive a budget abort on
        // purpose: they record the renames the BDD attempt performed before
        // defaulting to SQL. (R1/R3/R4 firings live in the plan's passes.)
        let mut r2: Vec<RuleFiring> = Vec::new();
        let mut ladder: Vec<&'static str> = Vec::new();
        let mut errors: Vec<String> = Vec::new();
        let mut decided: Option<(bool, Method)> = None;
        if let Some(step) = bdd {
            // Rung 1: the paper's BDD path — execute the plan's BDD step.
            ladder.push(rung::BDD);
            match crate::exec::execute_bdd(&mut self.ldb, step, &mut r2) {
                Ok(h) => decided = Some((h, Method::Bdd)),
                Err(e) => {
                    let Some(abort) = budget_abort(&e) else {
                        return Err(e);
                    };
                    self.ldb.release_scratch();
                    fallback = Some(abort_reason(&abort));
                }
            }
        }
        if decided.is_none() {
            // Rung 2: the pre-translated SQL step (paper §4's "default to
            // SQL" strategy). The rung is recorded even when the
            // constraint is outside the translatable class — the ladder
            // logs rungs tried, not rungs that answered.
            ladder.push(rung::SQL);
            match self.sql_rung(f, sql) {
                Ok(answer) => decided = answer.map(|h| (h, Method::SqlFallback)),
                Err(e) => errors.push(e.to_string()),
            }
        }
        if decided.is_none() {
            // Rung 3: brute-force active-domain evaluation.
            ladder.push(rung::BRUTE_FORCE);
            match eval_sentence(self.ldb.db(), f) {
                Ok(h) => decided = Some((h, Method::BruteForce)),
                Err(e) => errors.push(e.to_string()),
            }
        }
        let (holds, method, verdict) = match decided {
            Some((h, m)) => (h, m, if h { Verdict::Holds } else { Verdict::Violated }),
            None => {
                // Rung 4: every rung failed. Surface an explicit Degraded
                // verdict instead of an answer we don't have.
                ladder.push(rung::DEGRADED);
                (true, Method::Aborted, Verdict::Degraded)
            }
        };
        let eval = eval_start.elapsed();
        self.ldb.collect_if_due();
        let bdd = self.ldb.manager().stats().delta_since(&before);
        Ok(CheckReport {
            holds,
            verdict,
            error: (!errors.is_empty()).then(|| errors.join("; ")),
            method,
            elapsed: start.elapsed(),
            live_nodes: self.ldb.manager().live_nodes(),
            trace: trace(
                planned.map(|(plan, events)| (plan, r2, events)),
                fallback,
                ladder,
                PhaseTimings { index, eval },
                bdd,
            ),
        })
    }

    /// The SQL rung: execute the pre-translated step. `Ok(None)` means
    /// the constraint is outside the translatable class (the walk then
    /// brute-forces).
    fn sql_rung(&mut self, f: &Formula, step: Option<&SqlStep>) -> Result<Option<bool>> {
        if failpoint::enabled() {
            let key = failpoint::key_str(&f.to_string());
            if failpoint::should_fail(failpoint::SQL_FALLBACK, key) {
                return Err(CoreError::Bdd(BddError::FaultInjected {
                    site: failpoint::SQL_FALLBACK,
                }));
            }
        }
        step.map(|s| crate::exec::execute_sql(self.ldb.db(), s))
            .transpose()
    }

    /// Decide a constraint strictly via the SQL path (the paper's baseline;
    /// used by the benchmark harness for the BDD-vs-SQL comparisons): the
    /// ladder entered at the SQL rung with the constraint's translated
    /// violation plan. Builds no index and runs no planner pass.
    pub fn check_sql(&mut self, f: &Formula) -> Result<CheckReport> {
        let start = Instant::now();
        let before = self.ldb.manager().stats();
        self.reject_malformed(f)?;
        let step =
            sqlgen::violation_plan(self.ldb.db(), f).map(|translated| SqlStep { translated });
        self.walk_ladder(f, Entry::Sql(step.as_ref()), start, before, Duration::ZERO)
    }

    /// Check many named constraints, returning each report. This is the
    /// paper's headline workflow: quickly identify *which* constraints are
    /// violated on *which* tables.
    /// Each check runs behind the checker's panic guard: a constraint that
    /// panics yields a [`Verdict::Errored`] report, and the rest of the
    /// batch still runs.
    /// Typed errors (unknown relation, malformed constraint) still abort
    /// the batch, matching the single-check contract.
    pub fn check_all(
        &mut self,
        constraints: &[(String, Formula)],
    ) -> Result<Vec<(String, CheckReport)>> {
        constraints
            .iter()
            .map(|(name, f)| Ok((name.clone(), self.check_guarded(f)?)))
            .collect()
    }

    /// Materialize up to `limit` violating assignments **on the BDD path**,
    /// with provenance for certificates: build the violation-set BDD
    /// (premise ∧ ¬conclusion over the outer ∀ variables,
    /// [`crate::exec::violations_bdd`]), count it exactly with
    /// [`tuple_count`] (domain ranges are conjoined into it, so the count
    /// never includes out-of-range encodings) and enumerate up to `limit`
    /// rows of dictionary codes, without touching SQL. Returns `None` when
    /// the constraint is not ∀-prefixed, a referenced relation is SQL-only,
    /// or the node budget aborts (callers then use
    /// [`Checker::find_violations`]).
    ///
    /// [`tuple_count`]: relcheck_bdd::BddManager::tuple_count
    pub fn find_violations_counted(
        &mut self,
        f: &Formula,
        limit: usize,
    ) -> Result<Option<CountedViolations>> {
        let events = self.prepare(f)?;
        if events
            .iter()
            .any(|e| e.provenance == IndexProvenance::SqlOnly)
        {
            return Ok(None);
        }
        let result = match self.counted_violations(f, limit) {
            Err(e) if budget_abort(&e).is_some() => {
                self.ldb.release_scratch();
                Ok(None)
            }
            other => other,
        };
        self.ldb.collect_if_due();
        result
    }

    /// The BDD work of [`Checker::find_violations_counted`], budget aborts
    /// propagated.
    fn counted_violations(
        &mut self,
        f: &Formula,
        limit: usize,
    ) -> Result<Option<CountedViolations>> {
        let Some(vs) = crate::exec::violations_bdd(&mut self.ldb, f, self.opts.plan)? else {
            return Ok(None);
        };
        let doms: Vec<_> = vs.vars.iter().map(|(_, d, _)| *d).collect();
        let mgr = self.ldb.manager_mut();
        let total = mgr.tuple_count(vs.bdd, &doms)?;
        let rows = mgr
            .rows_limited(vs.bdd, &doms, limit)?
            .into_iter()
            .map(|r| r.into_iter().map(|v| v as u32).collect())
            .collect();
        let (vars, classes) = vs.vars.into_iter().map(|(v, _, c)| (v, c)).unzip();
        Ok(Some(CountedViolations {
            vars,
            classes,
            rows,
            total,
        }))
    }

    /// Check the functional dependency `lhs → rhs` on a relation via BDD
    /// projection (the paper's Figure 5(b) strategy): existentially
    /// quantify everything but `lhs ∪ rhs` to get `B₁`, then also quantify
    /// `rhs` to get `B₂`; the FD holds iff both projections have the same
    /// tuple count (each `lhs` group maps to exactly one `rhs` value).
    /// Answers with [`Checker::check_fd_sql`] when the index is over budget
    /// or the projections abort on it (after releasing their scratch, as
    /// [`Checker::find_violations_counted`] does).
    pub fn check_fd_bdd(&mut self, relation: &str, lhs: &[usize], rhs: &[usize]) -> Result<bool> {
        if !self.ensure_index(relation)? {
            return self.check_fd_sql(relation, lhs, rhs);
        }
        let result = match self.fd_projections_agree(relation, lhs, rhs) {
            Err(e) if budget_abort(&e).is_some() => {
                self.ldb.release_scratch();
                return self.check_fd_sql(relation, lhs, rhs);
            }
            other => other,
        };
        self.ldb.collect_if_due();
        result
    }

    /// The BDD work of [`Checker::check_fd_bdd`], budget aborts propagated.
    fn fd_projections_agree(
        &mut self,
        relation: &str,
        lhs: &[usize],
        rhs: &[usize],
    ) -> Result<bool> {
        let idx = self.ldb.index(relation).expect("just ensured").clone();
        let arity = idx.domains.len();
        let others: Vec<_> = (0..arity)
            .filter(|c| !lhs.contains(c) && !rhs.contains(c))
            .map(|c| idx.domains[c])
            .collect();
        let lhs_doms: Vec<_> = lhs.iter().map(|&c| idx.domains[c]).collect();
        let rhs_doms: Vec<_> = rhs.iter().map(|&c| idx.domains[c]).collect();
        let mgr = self.ldb.manager_mut();
        let vs_others = mgr.domain_varset(&others);
        let b1 = mgr.exists(idx.root, vs_others)?;
        let vs_rhs = mgr.domain_varset(&rhs_doms);
        let b2 = mgr.exists(b1, vs_rhs)?;
        let pair_doms: Vec<_> = lhs_doms.iter().chain(&rhs_doms).copied().collect();
        let n1 = mgr.tuple_count(b1, &pair_doms)?;
        let n2 = mgr.tuple_count(b2, &lhs_doms)?;
        Ok(n1 == n2)
    }

    /// The SQL group-by formulation of the same FD check (baseline).
    pub fn check_fd_sql(&self, relation: &str, lhs: &[usize], rhs: &[usize]) -> Result<bool> {
        Ok(
            relcheck_relstore::algebra::fd_violations(self.ldb.db().relation(relation)?, lhs, rhs)?
                .is_empty(),
        )
    }

    /// EXPLAIN-style description of how a constraint would be evaluated:
    /// the BDD step of the plan [`Checker::check`] would run (prefix,
    /// stripped block, test and compiled body), the indices involved, and
    /// the SQL fallback plan (if the constraint is translatable). Ensures
    /// indices exist (so node counts are real) but runs no check.
    pub fn explain(&mut self, f: &Formula) -> Result<Explanation> {
        let plan = self.plan(f)?;
        let indices = Self::referenced_relations(f)
            .into_iter()
            .map(|relation| match self.ldb.index(&relation) {
                Some(idx) if !self.sql_only.contains(&relation) => IndexInfo {
                    nodes: self.ldb.manager().size(idx.root),
                    ordering: idx.ordering.clone(),
                    sql_only: false,
                    relation,
                },
                _ => IndexInfo {
                    relation,
                    nodes: 0,
                    ordering: vec![],
                    sql_only: true,
                },
            })
            .collect();
        Ok(Explanation {
            bdd: plan.bdd.as_ref().map(BddStepInfo::of),
            indices,
            sql_plan: plan.sql.map(|s| format!("{:?}", s.translated.plan)),
        })
    }

    /// Materialize the violating tuples of a constraint (the follow-up step
    /// once `check` reports a violation). Output columns are the premise
    /// variables in join order; use
    /// [`relcheck_relstore::Database::decode_row`] to render them.
    pub fn find_violations(&mut self, f: &Formula) -> Result<(Relation, Vec<String>)> {
        match sqlgen::violation_plan(self.ldb.db(), f) {
            Some(t) if t.shape == Shape::Violations => {
                let out = execute(self.ldb.db(), &t.plan)?;
                Ok((out, t.columns))
            }
            Some(_) => Err(CoreError::UnsupportedForViolationQuery(
                "existential constraints have witnesses, not violating tuples".to_owned(),
            )),
            None => Err(CoreError::UnsupportedForViolationQuery(format!(
                "no relational plan for: {f}"
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::{validate_metrics_json, RunBdd, RunMetrics};
    use relcheck_logic::parse;
    use relcheck_relstore::{Database, Raw};

    fn db() -> Database {
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
        db
    }

    #[test]
    fn check_uses_bdd_path() {
        let mut ck = Checker::new(db(), CheckerOptions::default());
        let f = parse(r#"forall c, a, s. CUST(c, a, s) & c = "Toronto" -> s = "ON""#).unwrap();
        let r = ck.check(&f).unwrap();
        assert!(r.holds);
        assert_eq!(r.method, Method::Bdd);
    }

    #[test]
    fn a_panicking_check_errors_and_leaves_the_checker_clean() {
        let mut ck = Checker::new(
            db(),
            CheckerOptions {
                deadline: Some(Duration::from_secs(60)),
                ..Default::default()
            },
        );
        let fd = parse("forall c, a1, s1, a2, s2. CUST(c, a1, s1) & CUST(c, a2, s2) -> s1 = s2")
            .unwrap();
        let first = ck.check_guarded(&fd).unwrap();
        assert_eq!(first.verdict, Verdict::Violated);
        assert!(
            !ck.ldb.fresh_atoms().is_empty(),
            "the check cached its atoms"
        );
        let stats_before = ck.ldb.manager().stats();
        let gc_before = stats_before.gc_runs;
        crate::exec::PANIC_BEFORE_TEST.with(|armed| armed.set(true));
        let r = ck.check_guarded(&fd).unwrap();
        assert_eq!(r.verdict, Verdict::Errored);
        // The check ran before it died, and the guard's cleanup is its
        // work too: the report's window covers both.
        assert!(r.elapsed > Duration::ZERO);
        assert_eq!(
            r.trace.bdd,
            ck.ldb.manager().stats().delta_since(&stats_before)
        );
        assert!(r.trace.bdd.gc_runs > 0, "the guard's collection is inside");
        assert_eq!(r.live_nodes, ck.ldb.manager().live_nodes());
        assert_eq!(r.method, Method::Aborted);
        let message = "injected panic before the emptiness test";
        assert_eq!(r.error.as_deref(), Some(message));
        let trace = r.trace;
        assert_eq!(trace.ladder, vec![rung::ERRORED]);
        assert!(
            matches!(&trace.fallback, Some(FallbackReason::Panic(m)) if m == message),
            "{:?}",
            trace.fallback
        );
        assert_eq!(ck.ldb.manager().deadline(), None, "deadline disarmed");
        assert!(ck.ldb.fresh_atoms().is_empty(), "atom cache shed");
        assert!(ck.ldb.manager().stats().gc_runs > gc_before, "collected");
        // The next check decides normally, on the BDD rung.
        let next = ck.check_guarded(&fd).unwrap();
        assert_eq!(next.verdict, Verdict::Violated);
        assert_eq!(next.method, Method::Bdd);
        assert_eq!(ck.ldb.manager().deadline(), None);

        // In a batch, the run's BDD block stays the sum of the traces even
        // when a check errors, and the metrics document validates.
        let battery = vec![("panics".to_owned(), fd.clone()), ("after".to_owned(), fd)];
        let mut ck = Checker::new(db(), CheckerOptions::default());
        let before = ck.ldb.manager().stats();
        crate::exec::PANIC_BEFORE_TEST.with(|armed| armed.set(true));
        let reports = ck.check_all(&battery).unwrap();
        let run = RunBdd::between(&before, &ck.ldb.manager().stats());
        assert_eq!(reports[0].1.verdict, Verdict::Errored);
        assert_eq!(reports[1].1.verdict, Verdict::Violated);
        let mut sum = StatsDelta::default();
        for (_, r) in &reports {
            sum += r.trace.bdd;
        }
        assert_eq!(run.delta, sum);
        validate_metrics_json(&RunMetrics::from_reports(&reports, Some(run)).to_json()).unwrap();
    }

    #[test]
    fn node_limit_falls_back_to_sql() {
        let opts = CheckerOptions {
            node_limit: Some(18),
            ..Default::default()
        };
        let mut ck = Checker::new(db(), opts);
        let f = parse(r#"forall c, a, s. CUST(c, a, s) & c = "Newark" -> s = "NJ""#).unwrap();
        let r = ck.check(&f).unwrap();
        assert!(!r.holds);
        assert_eq!(r.method, Method::SqlFallback);
        // And the checker stays usable.
        let g = parse(r#"exists c, a, s. CUST(c, a, s) & s = "NY""#).unwrap();
        assert!(ck.check(&g).unwrap().holds);
    }

    #[test]
    fn untranslatable_falls_back_to_brute_force() {
        let opts = CheckerOptions {
            node_limit: Some(18),
            ..Default::default()
        };
        let mut ck = Checker::new(db(), opts);
        // Disjunctive premise: out of the SQL class.
        let f =
            parse(r#"forall c, a, s. CUST(c, a, s) | CUST(c, a, s) -> s in {"ON", "NJ", "NY"}"#)
                .unwrap();
        let r = ck.check(&f).unwrap();
        assert!(r.holds);
        assert_eq!(r.method, Method::BruteForce);
    }

    #[test]
    fn check_all_reports_violated_constraints() {
        let mut ck = Checker::new(db(), CheckerOptions::default());
        let constraints = vec![
            (
                "toronto-areacodes".to_owned(),
                parse(r#"forall c, a, s. CUST(c, a, s) & c = "Toronto" -> a in {416, 647}"#)
                    .unwrap(),
            ),
            (
                "newark-in-nj".to_owned(),
                parse(r#"forall c, a, s. CUST(c, a, s) & c = "Newark" -> s = "NJ""#).unwrap(),
            ),
            (
                "fd-areacode-state".to_owned(),
                parse(
                    r#"forall c1, a, s1, c2, s2.
                         CUST(c1, a, s1) & CUST(c2, a, s2) -> s1 = s2"#,
                )
                .unwrap(),
            ),
        ];
        let reports = ck.check_all(&constraints).unwrap();
        let violated: Vec<&str> = reports
            .iter()
            .filter(|(_, r)| !r.holds)
            .map(|(n, _)| n.as_str())
            .collect();
        assert_eq!(violated, vec!["newark-in-nj"]);
        assert!(reports.iter().all(|(_, r)| r.method == Method::Bdd));
    }

    #[test]
    fn find_violations_returns_decoded_tuples() {
        let mut ck = Checker::new(db(), CheckerOptions::default());
        let f = parse(r#"forall c, a, s. CUST(c, a, s) & c = "Newark" -> s = "NJ""#).unwrap();
        assert!(!ck.check(&f).unwrap().holds);
        let (rows, cols) = ck.find_violations(&f).unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(cols.len(), 3);
        let decoded = ck.logical_db().db().decode_row(&rows, &rows.row(0));
        assert!(decoded.contains(&Raw::str("NY")));
    }

    #[test]
    fn find_violations_rejects_existentials() {
        let mut ck = Checker::new(db(), CheckerOptions::default());
        let f = parse(r#"exists c, a, s. CUST(c, a, s)"#).unwrap();
        assert!(matches!(
            ck.find_violations(&f),
            Err(CoreError::UnsupportedForViolationQuery(_))
        ));
    }

    #[test]
    fn explain_describes_the_pipeline() {
        let mut ck = Checker::new(db(), CheckerOptions::default());
        let f =
            parse(r#"forall c, a, s. CUST(c, a, s) & c = "Toronto" -> exists a2. CUST(c, a2, s)"#)
                .unwrap();
        let e = ck.explain(&f).unwrap();
        let step = e.bdd.as_ref().expect("every relation indexed");
        assert_eq!(step.stripped_leading, 3, "the ∀ block is eliminated");
        assert!(step.mode.contains("validity"));
        assert_eq!(e.indices.len(), 1);
        assert_eq!(e.indices[0].relation, "CUST");
        assert!(!e.indices[0].sql_only);
        assert!(e.indices[0].nodes > 0);
        assert!(e.sql_plan.is_some(), "in the translatable class");
        let rendered = format!("{e}");
        assert!(rendered.contains("prenex prefix"));
        assert!(rendered.contains("CUST"));
        // Existential constraint: satisfiability mode.
        let g = parse("exists c, a, s. CUST(c, a, s)").unwrap();
        let e = ck.explain(&g).unwrap();
        assert!(e.bdd.unwrap().mode.contains("satisfiability"));
    }

    /// `ONE` (1 row), `R(x, y)` (50 rows) and `S(x)` (20 rows) over one
    /// class.
    fn probe_db() -> Database {
        let mut db = Database::new();
        db.create_relation("ONE", &[("v", "k")], vec![vec![Raw::Int(0)]])
            .unwrap();
        let r = (0..50)
            .map(|i| vec![Raw::Int(i % 20), Raw::Int(i % 7)])
            .collect();
        db.create_relation("R", &[("x", "k"), ("y", "k")], r)
            .unwrap();
        let s = (0..20).map(|i| vec![Raw::Int(i)]).collect();
        db.create_relation("S", &[("x", "k")], s).unwrap();
        db
    }

    #[test]
    fn explain_reports_the_body_the_check_compiles() {
        // The R4 gate declines to push ∀y past S(x) (Σ 20 + 1 + 1 > Π 20),
        // so the check compiles ∀y over the whole conjunction; an ungated
        // explanation would report `S(x) & forall y. (...)` instead.
        let mut ck = Checker::new(probe_db(), CheckerOptions::default());
        let f = parse("exists x. S(x) & forall y. ONE(y) & y = x").unwrap();
        let plan = ck.plan(&f).unwrap();
        let step = plan.bdd.as_ref().expect("every relation indexed");
        let push = plan.passes.iter().find(|p| p.pass == "forall-pushdown");
        assert_eq!(push.map(|p| p.gated), Some(1));
        let e = ck.explain(&f).unwrap();
        assert_eq!(e.bdd.unwrap().compiled_body, step.body.to_string());
    }

    #[test]
    fn explain_reports_a_skipped_bdd_step() {
        let opts = CheckerOptions {
            node_limit: Some(4),
            ..Default::default()
        };
        let mut ck = Checker::new(probe_db(), opts);
        let f = parse("forall x, y. R(x, y) -> S(x)").unwrap();
        let e = ck.explain(&f).unwrap();
        assert!(e.indices.iter().any(|i| i.sql_only));
        assert!(e.bdd.is_none());
        assert!(format!("{e}").contains("bdd step      : skipped"));
        assert!(ck.plan(&f).unwrap().bdd.is_none());
    }

    #[test]
    fn bdd_violation_enumeration_matches_sql_path() {
        let mut ck = Checker::new(db(), CheckerOptions::default());
        let f = parse(r#"forall c, a, s. CUST(c, a, s) & c = "Toronto" -> a in {416}"#).unwrap();
        assert!(!ck.check(&f).unwrap().holds);
        let CountedViolations {
            vars: names,
            rows: mut bdd_rows,
            ..
        } = ck
            .find_violations_counted(&f, 100)
            .unwrap()
            .expect("∀-prefixed constraint");
        // SQL path for the same constraint.
        let (sql_rel, sql_cols) = ck.find_violations(&f).unwrap();
        assert_eq!(bdd_rows.len(), sql_rel.len());
        // Align column orders and compare the tuple sets.
        let perm: Vec<usize> = sql_cols
            .iter()
            .map(|c| names.iter().position(|n| n == c).unwrap())
            .collect();
        for row in &mut bdd_rows {
            *row = perm.iter().map(|&i| row[i]).collect();
        }
        let mut sql_rows: Vec<Vec<u32>> = sql_rel.rows().collect();
        bdd_rows.sort();
        sql_rows.sort();
        assert_eq!(bdd_rows, sql_rows);
    }

    #[test]
    fn bdd_violation_enumeration_respects_limit() {
        let mut ck = Checker::new(db(), CheckerOptions::default());
        // Everything violates this (no Toronto customer has areacode 905).
        let f = parse(r#"forall c, a, s. CUST(c, a, s) -> a = 905"#).unwrap();
        let rows = ck.find_violations_counted(&f, 2).unwrap().unwrap().rows;
        assert_eq!(rows.len(), 2, "limit must cap the enumeration");
        let all = ck.find_violations_counted(&f, 100).unwrap().unwrap().rows;
        assert_eq!(all.len(), 4, "four of five rows violate");
    }

    #[test]
    fn bdd_violation_enumeration_declines_existentials() {
        let mut ck = Checker::new(db(), CheckerOptions::default());
        let f = parse(r#"exists c, a, s. CUST(c, a, s)"#).unwrap();
        assert!(ck.find_violations_counted(&f, 10).unwrap().is_none());
    }

    #[test]
    fn fd_check_bdd_matches_sql() {
        let mut ck = Checker::new(db(), CheckerOptions::default());
        // areacode → state holds in the fixture; city → state does not
        // (Newark maps to NJ and NY).
        for (lhs, rhs, expected) in [
            (vec![1usize], vec![2usize], true),
            (vec![0], vec![2], false),
            (vec![0, 1], vec![2], true),
            (vec![2], vec![0], false),
        ] {
            let via_bdd = ck.check_fd_bdd("CUST", &lhs, &rhs).unwrap();
            let via_sql = ck.check_fd_sql("CUST", &lhs, &rhs).unwrap();
            assert_eq!(via_bdd, via_sql, "lhs={lhs:?} rhs={rhs:?}");
            assert_eq!(via_bdd, expected, "lhs={lhs:?} rhs={rhs:?}");
        }
    }

    #[test]
    fn free_variables_rejected() {
        let mut ck = Checker::new(db(), CheckerOptions::default());
        let f = parse("CUST(c, a, s)").unwrap();
        assert!(matches!(ck.check(&f), Err(CoreError::Logic(_))));
        assert!(matches!(ck.check_sql(&f), Err(CoreError::Logic(_))));
        // An unknown relation is a typed error on either entry too.
        let g = parse("forall x. NOPE(x) -> x = 1").unwrap();
        assert!(ck.check(&g).is_err());
        assert!(ck.check_sql(&g).is_err());
    }

    #[test]
    fn incremental_maintenance_changes_answers() {
        let mut ck = Checker::new(db(), CheckerOptions::default());
        let f = parse(r#"forall c, a, s. CUST(c, a, s) & c = "Oshawa" -> a in {905}"#).unwrap();
        assert!(ck.check(&f).unwrap().holds);
        // Insert a violating tuple (Oshawa, 416, ON) using existing codes.
        let city = ck
            .logical_db()
            .db()
            .code("city", &Raw::str("Oshawa"))
            .unwrap();
        let ac = ck
            .logical_db()
            .db()
            .code("areacode", &Raw::Int(416))
            .unwrap();
        let st = ck.logical_db().db().code("state", &Raw::str("ON")).unwrap();
        ck.logical_db_mut()
            .insert_tuple("CUST", &[city, ac, st])
            .unwrap();
        let r = ck.check(&f).unwrap();
        assert!(!r.holds, "inserted tuple must violate");
        assert_eq!(r.method, Method::Bdd);
        // Delete it: constraint holds again.
        ck.logical_db_mut()
            .delete_tuple("CUST", &[city, ac, st])
            .unwrap();
        assert!(ck.check(&f).unwrap().holds);
    }

    #[test]
    fn all_option_combinations_agree() {
        let f =
            parse(r#"forall c, a, s. CUST(c, a, s) -> exists c2, s2. CUST(c2, a, s2)"#).unwrap();
        for rewrites in [true, false] {
            for join_rename in [true, false] {
                let opts = CheckerOptions {
                    plan: PlanOptions {
                        rewrites,
                        join_rename,
                    },
                    ..Default::default()
                };
                let mut ck = Checker::new(db(), opts);
                assert!(
                    ck.check(&f).unwrap().holds,
                    "rewrites={rewrites} rename={join_rename}"
                );
            }
        }
    }
}

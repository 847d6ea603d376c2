//! Constraint registry with dependency-driven re-validation.
//!
//! The paper's motivation is *dynamic* databases: schemas and contents
//! evolve, and after each batch of updates one wants to know which
//! constraints broke — without re-checking the ones that cannot have been
//! affected. A [`ConstraintRegistry`] tracks named constraints, which
//! relations each one reads, and the last verdict; after updates, only the
//! constraints touching a modified relation are re-checked (the BDD
//! indices themselves are maintained incrementally by
//! [`crate::index::LogicalDatabase`]).

use crate::checker::{panic_message, CheckReport, Checker};
use crate::error::Result;
use crate::plan::CheckPlan;
use crate::telemetry::PlanCacheMetrics;
use relcheck_logic::Formula;
use std::collections::{HashMap, HashSet};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// A registered constraint.
#[derive(Debug, Clone)]
struct Entry {
    name: String,
    formula: Formula,
    reads: HashSet<String>,
    last: Option<bool>,
    /// [`Checker::epoch`] at the moment `last` was cached. A verdict is
    /// stale — even with an empty touched set — once any relation in
    /// `reads` has been explicitly invalidated (`rebuild_index` /
    /// `mark_sql_only`) at a later epoch: those maintenance paths mutate
    /// rows and indices out-of-band, so the cached boolean may no longer
    /// describe the data.
    validated_epoch: u64,
}

impl Entry {
    /// Must this entry be re-checked given the touched-relation set?
    fn dirty(&self, checker: &Checker, touched: &HashSet<&str>) -> bool {
        self.last.is_none()
            || self.reads.iter().any(|r| {
                touched.contains(r.as_str())
                    || checker.relation_invalidation_epoch(r) > self.validated_epoch
            })
    }
}

/// Verdict source in a [`ConstraintRegistry::revalidate`] report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Re-checked this round (a relation it reads changed).
    Checked {
        /// Whether the constraint holds now.
        holds: bool,
    },
    /// Untouched by the update set; the cached verdict still applies.
    Cached {
        /// The cached result.
        holds: bool,
    },
}

impl Verdict {
    /// The boolean outcome regardless of provenance.
    pub fn holds(&self) -> bool {
        match *self {
            Verdict::Checked { holds } | Verdict::Cached { holds } => holds,
        }
    }
}

/// Named constraints with dependency tracking (see module docs).
///
/// ```
/// use relcheck_core::checker::{Checker, CheckerOptions};
/// use relcheck_core::registry::{ConstraintRegistry, Verdict};
/// use relcheck_logic::parse;
/// use relcheck_relstore::{Database, Raw};
///
/// let mut db = Database::new();
/// db.create_relation("R", &[("x", "k")], vec![vec![Raw::Int(1)]]).unwrap();
/// db.create_relation("S", &[("x", "k")], vec![vec![Raw::Int(1)]]).unwrap();
/// let mut checker = Checker::new(db, CheckerOptions::default());
///
/// let mut registry = ConstraintRegistry::new();
/// registry.register("r-in-s", parse("forall x. R(x) -> S(x)").unwrap());
/// registry.register("s-nonempty", parse("exists x. S(x)").unwrap());
/// registry.validate_all(&mut checker).unwrap();
///
/// // An update touches only R: the S-only constraint is served from cache.
/// let verdicts = registry.revalidate(&mut checker, &["R"]).unwrap();
/// assert!(matches!(verdicts[0].1, Verdict::Checked { holds: true }));
/// assert!(matches!(verdicts[1].1, Verdict::Cached { holds: true }));
/// ```
#[derive(Debug, Default)]
pub struct ConstraintRegistry {
    entries: Vec<Entry>,
    /// Compiled plans keyed by `(constraint fingerprint, schema
    /// fingerprint)`. The schema fingerprint covers the data version,
    /// the checker's epoch (bumped by `rebuild_index`/`mark_sql_only`),
    /// the ordering strategy, and the plan options, so any change that
    /// could invalidate a plan changes the key and the stale entry is
    /// simply never looked up again (and is pruned on the next insert
    /// for the same constraint).
    plans: HashMap<(u64, u64), CheckPlan>,
    plan_stats: PlanCacheMetrics,
}

impl ConstraintRegistry {
    /// Empty registry.
    pub fn new() -> ConstraintRegistry {
        ConstraintRegistry::default()
    }

    /// Register a constraint. Returns false (and ignores the call) if the
    /// name is already taken.
    pub fn register(&mut self, name: &str, formula: Formula) -> bool {
        if self.entries.iter().any(|e| e.name == name) {
            return false;
        }
        // The exact signature the parallel partitioner groups by, so the
        // registry's skip/recheck decisions agree with lane scheduling.
        let reads = crate::parallel::read_set(&formula).into_iter().collect();
        self.entries.push(Entry {
            name: name.to_owned(),
            formula,
            reads,
            last: None,
            validated_epoch: 0,
        });
        true
    }

    /// The relations a registered constraint reads (its read-set
    /// signature, from [`crate::parallel::read_set`]).
    pub fn read_set(&self, name: &str) -> Option<&HashSet<String>> {
        self.entries
            .iter()
            .find(|e| e.name == name)
            .map(|e| &e.reads)
    }

    /// Names in registration order.
    pub fn names(&self) -> Vec<&str> {
        self.entries.iter().map(|e| e.name.as_str()).collect()
    }

    /// The formula behind a name.
    pub fn formula(&self, name: &str) -> Option<&Formula> {
        self.entries
            .iter()
            .find(|e| e.name == name)
            .map(|e| &e.formula)
    }

    /// Check one constraint through the plan cache: a cached
    /// [`CheckPlan`] whose `(constraint, schema)` fingerprints still match
    /// is handed to the checker and skips planning entirely; otherwise the
    /// freshly-planned result is cached for next time. Runs behind the
    /// same panic guard as [`Checker::check_all`], so a poisoned
    /// constraint yields an `Errored` report instead of tearing down the
    /// batch.
    pub fn check_cached(&mut self, checker: &mut Checker, f: &Formula) -> Result<CheckReport> {
        let key = checker.plan_key(f)?;
        let cached = self.plans.get(&key);
        if cached.is_some() {
            self.plan_stats.hits += 1;
        } else {
            self.plan_stats.misses += 1;
        }
        match catch_unwind(AssertUnwindSafe(|| checker.check_planned(f, cached))) {
            Ok(Ok((report, plan))) => {
                // Keep at most one plan per constraint: drop entries for
                // this constraint under dead schema fingerprints.
                let live = (plan.constraint_fp, plan.schema_fp);
                self.plans.retain(|k, _| k.0 != live.0 || k.1 == live.1);
                self.plans.insert(live, plan);
                Ok(report)
            }
            Ok(Err(e)) => Err(e),
            Err(payload) => {
                // Same recovery as `Checker::check_all`: the manager's
                // tables are structurally sound at any unwind point;
                // disarm the deadline and drop scratch.
                let telemetry = checker.options().telemetry;
                checker.logical_db_mut().manager_mut().set_deadline(None);
                checker.logical_db_mut().gc();
                Ok(CheckReport::errored(panic_message(payload), telemetry))
            }
        }
    }

    /// Plan-cache hit/miss counters accumulated by
    /// [`ConstraintRegistry::check_cached`] (and everything routed through
    /// it: [`ConstraintRegistry::validate_all`],
    /// [`ConstraintRegistry::revalidate`]).
    pub fn plan_cache_stats(&self) -> PlanCacheMetrics {
        self.plan_stats
    }

    /// Validate everything, caching verdicts. Returns `(name, report)` in
    /// registration order.
    pub fn validate_all(&mut self, checker: &mut Checker) -> Result<Vec<(String, CheckReport)>> {
        let mut out = Vec::with_capacity(self.entries.len());
        for i in 0..self.entries.len() {
            let formula = self.entries[i].formula.clone();
            let report = self.check_cached(checker, &formula)?;
            let epoch = checker.epoch();
            let e = &mut self.entries[i];
            // Undecided verdicts (degraded/errored) are never cached: the
            // constraint stays dirty and is re-checked next round.
            e.last = report.verdict.is_decided().then_some(report.holds);
            e.validated_epoch = epoch;
            out.push((e.name.clone(), report));
        }
        Ok(out)
    }

    /// [`ConstraintRegistry::validate_all`] spread across `threads` worker
    /// threads via [`Checker::check_all_parallel`]: constraints are batched
    /// by the relations they read, each worker checks its batch on a
    /// private BDD manager, and the merged reports (identical verdicts, in
    /// registration order) refresh the cache exactly as the serial pass
    /// would.
    pub fn validate_all_parallel(
        &mut self,
        checker: &mut Checker,
        threads: usize,
    ) -> Result<Vec<(String, CheckReport)>> {
        let constraints: Vec<(String, Formula)> = self
            .entries
            .iter()
            .map(|e| (e.name.clone(), e.formula.clone()))
            .collect();
        let reports = checker.check_all_parallel(&constraints, threads)?;
        let epoch = checker.epoch();
        for (e, (_, r)) in self.entries.iter_mut().zip(&reports) {
            e.last = r.verdict.is_decided().then_some(r.holds);
            e.validated_epoch = epoch;
        }
        Ok(reports)
    }

    /// Re-check entry `i` if it is dirty with respect to `touched` (or
    /// epoch-stale, or never validated); otherwise return its cached
    /// verdict untouched.
    fn revalidate_entry(
        &mut self,
        checker: &mut Checker,
        i: usize,
        touched: &HashSet<&str>,
    ) -> Result<Verdict> {
        let e = &self.entries[i];
        if !e.dirty(checker, touched) {
            return Ok(Verdict::Cached {
                holds: e.last.expect("clean entries have a cached verdict"),
            });
        }
        let formula = e.formula.clone();
        let report = self.check_cached(checker, &formula)?;
        let epoch = checker.epoch();
        let e = &mut self.entries[i];
        e.last = report.verdict.is_decided().then_some(report.holds);
        e.validated_epoch = epoch;
        Ok(Verdict::Checked {
            holds: report.holds,
        })
    }

    /// After updates to `touched` relations, re-check only the constraints
    /// reading any of them; the rest report their cached verdict.
    /// Constraints never validated before are always checked, as are
    /// constraints whose cached verdict predates an explicit invalidation
    /// ([`Checker::rebuild_index`] / [`Checker::mark_sql_only`]) of a
    /// relation they read.
    pub fn revalidate(
        &mut self,
        checker: &mut Checker,
        touched: &[&str],
    ) -> Result<Vec<(String, Verdict)>> {
        let touched: HashSet<&str> = touched.iter().copied().collect();
        let mut out = Vec::with_capacity(self.entries.len());
        for i in 0..self.entries.len() {
            let verdict = self.revalidate_entry(checker, i, &touched)?;
            out.push((self.entries[i].name.clone(), verdict));
        }
        Ok(out)
    }

    /// [`ConstraintRegistry::revalidate`] for a single named constraint:
    /// re-checked only if its read-set intersects `touched` (or it is
    /// stale/unvalidated), answered from cache otherwise. Other entries
    /// are left exactly as they are — in particular their dirtiness with
    /// respect to `touched` is not consumed. Returns `None` for an
    /// unknown name.
    pub fn revalidate_one(
        &mut self,
        checker: &mut Checker,
        name: &str,
        touched: &[&str],
    ) -> Result<Option<Verdict>> {
        let Some(i) = self.entries.iter().position(|e| e.name == name) else {
            return Ok(None);
        };
        let touched: HashSet<&str> = touched.iter().copied().collect();
        self.revalidate_entry(checker, i, &touched).map(Some)
    }

    /// Apply a batch of tuple deltas through the persistent store's
    /// journaled incremental-maintenance path, then revalidate exactly
    /// the constraints reading a touched relation. Each delta is durable
    /// (journal-first with fsync) before it is applied, so a crash
    /// between the apply and the next check loses no acknowledged
    /// update — the next warm start replays the journal.
    pub fn revalidate_after_deltas(
        &mut self,
        checker: &mut Checker,
        store: &mut crate::store::IndexStore,
        deltas: &[(String, crate::store::Delta)],
    ) -> Result<Vec<(String, Verdict)>> {
        let mut touched: Vec<&str> = Vec::new();
        for (relation, delta) in deltas {
            store.journaled_apply(checker, relation, delta)?;
            if !touched.contains(&relation.as_str()) {
                touched.push(relation);
            }
        }
        self.revalidate(checker, &touched)
    }

    /// The registered `(name, formula)` pairs in registration order —
    /// the constraint list the workload advisor scores entry rungs for.
    pub fn constraints(&self) -> Vec<(String, Formula)> {
        self.entries
            .iter()
            .map(|e| (e.name.clone(), e.formula.clone()))
            .collect()
    }

    /// Run the workload-driven advisor over this registry's constraints
    /// and apply its advice to the checker — the `--route auto` / serve
    /// `advise` entry point. Any route change goes through
    /// [`Checker::mark_sql_only`] / [`Checker::rebuild_index`], which
    /// bump the invalidation epoch, so every cached verdict reading a
    /// re-routed relation is retired on the next revalidate and the
    /// schema fingerprint of every affected plan changes: applying
    /// advice can re-route but never lets a stale verdict or plan
    /// survive the switch.
    pub fn apply_policy(
        &mut self,
        checker: &mut Checker,
        profile: &crate::policy::WorkloadProfile,
    ) -> Result<(crate::policy::Advice, crate::policy::AppliedAdvice)> {
        let constraints = self.constraints();
        let advice = crate::policy::advise(profile, checker, &constraints);
        let applied = crate::policy::apply_advice(checker, &advice)?;
        Ok((advice, applied))
    }

    /// Currently-cached verdicts (`None` = never validated).
    pub fn cached(&self) -> HashMap<String, Option<bool>> {
        self.entries
            .iter()
            .map(|e| (e.name.clone(), e.last))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checker::CheckerOptions;
    use relcheck_logic::parse;
    use relcheck_relstore::{Database, Raw};

    fn setup() -> (Checker, ConstraintRegistry) {
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
        let ck = Checker::new(db, CheckerOptions::default());
        let mut reg = ConstraintRegistry::new();
        assert!(reg.register(
            "r-diagonal",
            parse("forall x, y. R(x, y) -> x = y").unwrap()
        ));
        assert!(reg.register(
            "r-covers-s",
            parse("forall x. S(x) -> exists y. R(x, y)").unwrap()
        ));
        assert!(reg.register("s-nonempty", parse("exists x. S(x)").unwrap()));
        (ck, reg)
    }

    #[test]
    fn duplicate_names_rejected() {
        let (_, mut reg) = setup();
        assert!(!reg.register("r-diagonal", parse("exists x. S(x)").unwrap()));
        assert_eq!(reg.names().len(), 3);
    }

    #[test]
    fn validate_all_caches_verdicts() {
        let (mut ck, mut reg) = setup();
        let reports = reg.validate_all(&mut ck).unwrap();
        assert_eq!(reports.len(), 3);
        assert!(reports.iter().all(|(_, r)| r.holds));
        assert!(reg.cached().values().all(|v| *v == Some(true)));
    }

    #[test]
    fn revalidate_only_touches_dependents() {
        let (mut ck, mut reg) = setup();
        reg.validate_all(&mut ck).unwrap();
        // Break R's diagonal property via the incremental index.
        let one = ck.logical_db().db().code("k", &Raw::Int(1)).unwrap();
        let two = ck.logical_db().db().code("k", &Raw::Int(2)).unwrap();
        ck.logical_db_mut().insert_tuple("R", &[one, two]).unwrap();
        let verdicts = reg.revalidate(&mut ck, &["R"]).unwrap();
        let by_name: HashMap<_, _> = verdicts.into_iter().collect();
        assert!(matches!(
            by_name["r-diagonal"],
            Verdict::Checked { holds: false }
        ));
        assert!(matches!(
            by_name["r-covers-s"],
            Verdict::Checked { holds: true }
        ));
        // s-nonempty does not read R: cached.
        assert!(matches!(
            by_name["s-nonempty"],
            Verdict::Cached { holds: true }
        ));
    }

    #[test]
    fn rebuild_index_retires_cached_verdicts() {
        let (mut ck, mut reg) = setup();
        reg.validate_all(&mut ck).unwrap();
        // Mutate rows out-of-band — the store's recovery path writes
        // straight into the relation without touching data versions —
        // then rebuild the index. The registry sees no touched set;
        // only the invalidation epoch says the cache is stale.
        let one = ck.logical_db().db().code("k", &Raw::Int(1)).unwrap();
        let two = ck.logical_db().db().code("k", &Raw::Int(2)).unwrap();
        ck.logical_db_mut()
            .db_mut()
            .relation_mut("R")
            .unwrap()
            .insert(&[one, two])
            .unwrap();
        ck.rebuild_index("R").unwrap();
        let verdicts = reg.revalidate(&mut ck, &[]).unwrap();
        let by_name: HashMap<_, _> = verdicts.into_iter().collect();
        assert!(matches!(
            by_name["r-diagonal"],
            Verdict::Checked { holds: false }
        ));
        // A constraint not reading R keeps its cache.
        assert!(matches!(
            by_name["s-nonempty"],
            Verdict::Cached { holds: true }
        ));
    }

    #[test]
    fn mark_sql_only_retires_cached_verdicts() {
        let (mut ck, mut reg) = setup();
        reg.validate_all(&mut ck).unwrap();
        ck.mark_sql_only("R");
        let verdicts = reg.revalidate(&mut ck, &[]).unwrap();
        let by_name: HashMap<_, _> = verdicts.into_iter().collect();
        // Everything reading R re-checks (now via the SQL rung); the
        // S-only constraint still answers from cache.
        assert!(matches!(
            by_name["r-diagonal"],
            Verdict::Checked { holds: true }
        ));
        assert!(matches!(
            by_name["r-covers-s"],
            Verdict::Checked { holds: true }
        ));
        assert!(matches!(
            by_name["s-nonempty"],
            Verdict::Cached { holds: true }
        ));
    }

    #[test]
    fn revalidate_one_checks_only_the_named_constraint() {
        let (mut ck, mut reg) = setup();
        reg.validate_all(&mut ck).unwrap();
        let one = ck.logical_db().db().code("k", &Raw::Int(1)).unwrap();
        let two = ck.logical_db().db().code("k", &Raw::Int(2)).unwrap();
        ck.logical_db_mut().insert_tuple("R", &[one, two]).unwrap();
        // The named constraint re-checks against the touched set…
        let v = reg
            .revalidate_one(&mut ck, "r-diagonal", &["R"])
            .unwrap()
            .unwrap();
        assert!(matches!(v, Verdict::Checked { holds: false }));
        // …without consuming other entries' dirtiness: a later full
        // revalidate over the same touched set still re-checks them.
        let verdicts = reg.revalidate(&mut ck, &["R"]).unwrap();
        let by_name: HashMap<_, _> = verdicts.into_iter().collect();
        assert!(matches!(by_name["r-covers-s"], Verdict::Checked { .. }));
        assert!(reg
            .revalidate_one(&mut ck, "no-such", &[])
            .unwrap()
            .is_none());
    }

    #[test]
    fn apply_policy_routes_through_epoch_invalidation() {
        let (mut ck, mut reg) = setup();
        let before = reg.validate_all(&mut ck).unwrap();
        // A profile that always fell back on R forces an SQL route for
        // it; the application must bump the epoch so the next
        // revalidate re-checks everything reading R.
        let mut profile = crate::policy::WorkloadProfile::default();
        profile.relations.insert(
            "R".to_owned(),
            crate::policy::RelationProfile {
                rows: 3,
                sql_checks: 4,
                ..Default::default()
            },
        );
        let (advice, applied) = reg.apply_policy(&mut ck, &profile).unwrap();
        assert!(advice.sql_routed().contains("R"));
        assert_eq!(applied.sql_marked, vec!["R".to_owned()]);
        assert!(ck.is_sql_only("R"));
        let verdicts = reg.revalidate(&mut ck, &[]).unwrap();
        let by_name: HashMap<_, _> = verdicts.into_iter().collect();
        assert!(matches!(by_name["r-diagonal"], Verdict::Checked { .. }));
        assert!(matches!(by_name["s-nonempty"], Verdict::Cached { .. }));
        // Routing never changes a verdict.
        for (name, r) in &before {
            assert_eq!(by_name[name].holds(), r.holds, "{name}");
        }
    }

    #[test]
    fn unvalidated_constraints_always_check() {
        let (mut ck, mut reg) = setup();
        // No validate_all first: everything is dirty even with no touches.
        let verdicts = reg.revalidate(&mut ck, &[]).unwrap();
        assert!(verdicts
            .iter()
            .all(|(_, v)| matches!(v, Verdict::Checked { .. })));
        // Second pass with no touches: everything cached.
        let verdicts = reg.revalidate(&mut ck, &[]).unwrap();
        assert!(verdicts
            .iter()
            .all(|(_, v)| matches!(v, Verdict::Cached { .. })));
        assert!(verdicts.iter().all(|(_, v)| v.holds()));
    }
}

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

use crate::checker::{self, CheckReport, Checker};
use crate::error::Result;
use relcheck_logic::Formula;
use std::collections::{HashMap, HashSet};

/// A registered constraint.
#[derive(Debug, Clone)]
struct Entry {
    name: String,
    formula: Formula,
    /// The read-set: every relation an atom of `formula` names.
    reads: HashSet<String>,
    /// The last decided verdict (undecided ones are never cached).
    last: Option<checker::Verdict>,
    /// [`Checker::epoch`] at the moment `last` was cached. A verdict is
    /// stale — even with an empty touched set — once any relation in
    /// `reads` has been explicitly invalidated (`rebuild_index` /
    /// `mark_sql_only`) at a later epoch: those maintenance paths mutate
    /// rows and indices out-of-band, so the cached verdict may no longer
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
        /// What the check established, undecided outcomes included.
        verdict: checker::Verdict,
    },
    /// Untouched by the update set; the cached verdict still applies.
    Cached {
        /// The cached result, always decided.
        verdict: checker::Verdict,
    },
}

impl Verdict {
    /// What the check established, regardless of provenance.
    pub fn verdict(&self) -> checker::Verdict {
        match *self {
            Verdict::Checked { verdict } | Verdict::Cached { verdict } => verdict,
        }
    }

    /// The boolean outcome regardless of provenance. Like
    /// [`CheckReport::holds`], an undecided check reads as holding; ask
    /// [`Verdict::verdict`] to tell them apart.
    pub fn holds(&self) -> bool {
        self.verdict() != checker::Verdict::Violated
    }
}

/// Named constraints with dependency tracking (see module docs).
///
/// ```
/// use relcheck_core::checker::{self, Checker, CheckerOptions};
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
/// let holds = checker::Verdict::Holds;
/// assert_eq!(verdicts[0].1, Verdict::Checked { verdict: holds });
/// assert_eq!(verdicts[1].1, Verdict::Cached { verdict: holds });
/// ```
#[derive(Debug, Default)]
pub struct ConstraintRegistry {
    entries: Vec<Entry>,
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
        let reads = Checker::referenced_relations(&formula)
            .into_iter()
            .collect();
        self.entries.push(Entry {
            name: name.to_owned(),
            formula,
            reads,
            last: None,
            validated_epoch: 0,
        });
        true
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

    /// Validate everything, caching verdicts. Returns `(name, report)` in
    /// registration order.
    pub fn validate_all(&mut self, checker: &mut Checker) -> Result<Vec<(String, CheckReport)>> {
        let mut out = Vec::with_capacity(self.entries.len());
        for i in 0..self.entries.len() {
            let report = checker.check_guarded(&self.entries[i].formula)?;
            let epoch = checker.epoch();
            let e = &mut self.entries[i];
            // Undecided verdicts (degraded/errored) are never cached: the
            // constraint stays dirty and is re-checked next round.
            e.last = report.verdict.is_decided().then_some(report.verdict);
            e.validated_epoch = epoch;
            out.push((e.name.clone(), report));
        }
        Ok(out)
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
                verdict: e.last.expect("clean entries have a cached verdict"),
            });
        }
        let report = checker.check_guarded(&e.formula)?;
        let epoch = checker.epoch();
        let e = &mut self.entries[i];
        e.last = report.verdict.is_decided().then_some(report.verdict);
        e.validated_epoch = epoch;
        Ok(Verdict::Checked {
            verdict: report.verdict,
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

    /// Currently-cached verdicts (`None` = never validated).
    pub fn cached(&self) -> HashMap<String, Option<bool>> {
        self.entries
            .iter()
            .map(|e| (e.name.clone(), e.last.map(|v| v == checker::Verdict::Holds)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checker::CheckerOptions;
    use crate::checker::Verdict::{Holds, Violated};
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
            Verdict::Checked { verdict: Violated }
        ));
        assert!(matches!(
            by_name["r-covers-s"],
            Verdict::Checked { verdict: Holds }
        ));
        // s-nonempty does not read R: cached.
        assert!(matches!(
            by_name["s-nonempty"],
            Verdict::Cached { verdict: Holds }
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
            Verdict::Checked { verdict: Violated }
        ));
        // A constraint not reading R keeps its cache.
        assert!(matches!(
            by_name["s-nonempty"],
            Verdict::Cached { verdict: Holds }
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
            Verdict::Checked { verdict: Holds }
        ));
        assert!(matches!(
            by_name["r-covers-s"],
            Verdict::Checked { verdict: Holds }
        ));
        assert!(matches!(
            by_name["s-nonempty"],
            Verdict::Cached { verdict: Holds }
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
        assert!(matches!(v, Verdict::Checked { verdict: Violated }));
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

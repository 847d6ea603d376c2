#![warn(missing_docs)]

//! # relcheck-core — BDD logical indices and the constraint checker
//!
//! The primary contribution of *"Fast Identification of Relational
//! Constraint Violations"* (ICDE 2007): given a set of relations and a set
//! of user-defined first-order constraints, decide **which constraints are
//! violated** — fast, by manipulating ROBDD *logical indices* instead of
//! running SQL — and only then drill into the violating tuples.
//!
//! The pieces, mapped to the paper:
//!
//! * [`ordering`] — the variable-ordering heuristics of Section 3:
//!   [`ordering::max_inf_gain`] (information gain, ID3-style) and
//!   [`ordering::prob_converge`] (the Φ measure), plus random and
//!   exhaustive-optimal orderings for the Figure 2/3 experiments.
//! * [`index`] — [`index::LogicalDatabase`]: one shared [`relcheck_bdd::BddManager`]
//!   holding a BDD index per relation (built with a chosen attribute
//!   ordering, incrementally maintainable) plus pooled *query domains* that
//!   constraint variables are compiled into.
//! * [`planner`] and [`exec`] — the FOL → BDD compiler implementing the
//!   Section 4 evaluation strategy: the planner rewrites a formula into a
//!   [`plan::CheckPlan`] (prenex conversion, leading-quantifier
//!   elimination, ∀ push-down), the executor runs it with rename-based
//!   equi-joins (the naive equality-cube strategy kept for ablation) and
//!   fused `appex`/`appall` quantification, all under a node-budget.
//! * [`sqlgen`] — the Formula → relational-plan translator used for the SQL
//!   baseline and for the fallback when a BDD exceeds the node threshold.
//! * [`checker`] — [`checker::Checker`], the user-facing API:
//!   [`checker::Checker::check`] (which constraints are violated),
//!   [`checker::Checker::find_violations`] and
//!   [`checker::Checker::find_violations_counted`] (the offending tuples,
//!   from the SQL plan or the violation BDD), with per-check
//!   method/size/timing reports. Its degradation ladder is the one place
//!   a check is routed to BDD or SQL: the BDD rung first, SQL past the
//!   node budget, as in the paper, then brute force. `check_sql` walks
//!   the same ladder from its SQL rung.
//! * [`serve`] — [`serve::ServeEngine`], the long-lived session engine
//!   behind `relcheck serve`: deltas dirty relations, and each check
//!   re-verifies only the constraints whose read-set intersects the
//!   dirty set — the paper's "fast identification" applied to a
//!   *changing* database instead of a cold batch.
//!
//! ```
//! use relcheck_core::checker::{Checker, CheckerOptions};
//! use relcheck_relstore::{Database, Raw};
//! use relcheck_logic::parse;
//!
//! let mut db = Database::new();
//! db.create_relation(
//!     "CUST",
//!     &[("city", "city"), ("areacode", "areacode")],
//!     vec![
//!         vec![Raw::str("Toronto"), Raw::Int(416)],
//!         vec![Raw::str("Toronto"), Raw::Int(212)], // bad prefix
//!     ],
//! ).unwrap();
//! let mut checker = Checker::new(db, CheckerOptions::default());
//! let c = parse(r#"forall c, a. CUST(c, a) & c = "Toronto" -> a in {416, 647}"#).unwrap();
//! let report = checker.check(&c).unwrap();
//! assert!(!report.holds);
//! ```

pub mod certify;
pub mod checker;
mod error;
pub mod exec;
pub mod index;
pub mod ordering;
pub mod plan;
pub mod planner;
pub mod registry;
pub mod serve;
pub mod sqlgen;
pub mod store;
pub mod telemetry;

pub use certify::{AuditError, AuditOutcome, Certificate, Witnesses};
pub use checker::{CheckReport, Checker, CheckerOptions, Method, Verdict};
pub use error::{CoreError, Result};
pub use index::LogicalDatabase;
pub use ordering::OrderingStrategy;
pub use plan::{plans_to_json, CheckPlan, PlanOptions};
pub use registry::ConstraintRegistry;
pub use serve::{ApplyOutcome, ServeActor, ServeClient, ServeConfig, ServeEngine, Submission};
pub use store::{Delta, IndexStore, VerifyOutcome};
pub use telemetry::{
    AuditMetrics, CheckTrace, DegradationSummary, FallbackReason, IndexCacheMetrics,
    OverloadMetrics, PassStat, RecoveryRecord, RewriteRule, RuleFiring, RunBdd, RunMetrics,
    ServeMetrics,
};

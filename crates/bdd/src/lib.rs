#![warn(missing_docs)]

//! # relcheck-bdd — a from-scratch ROBDD engine with a finite-domain layer
//!
//! This crate implements the Reduced Ordered Binary Decision Diagram (ROBDD)
//! substrate that the ICDE 2007 paper *"Fast Identification of Relational
//! Constraint Violations"* builds its logical indices on. The paper used the
//! BuDDy C library; this crate re-implements the relevant surface in safe
//! Rust:
//!
//! * a hash-consed shared node store (every logically equivalent function has
//!   exactly one node — Bryant's canonicity, Fact 1 of the paper);
//! * the classic `apply` algorithm for the binary connectives, plus `not` and
//!   `ite`, all memoized through a direct-mapped operation cache;
//! * `restrict` (cofactor by a partial assignment), `replace` (variable
//!   renaming, the workhorse of the paper's equi-join rewrite rule), and
//!   existential/universal quantification over variable sets;
//! * the fused quantification operators [`BddManager::app_exists`] /
//!   [`BddManager::app_forall`] (BuDDy's `bdd_appex` / `bdd_appall`), which the
//!   paper's quantifier pull-up/push-down rewrite rules target;
//! * model counting, satisfying-assignment enumeration and cube extraction;
//! * mark–sweep garbage collection with free-list reuse, so long-running
//!   checkers can bound their memory;
//! * a configurable **node limit**: every allocating operation returns
//!   [`Result`] and aborts with [`BddError::NodeLimit`] once the live node
//!   count exceeds the limit — this is the paper's "monitor the size and
//!   default to SQL" strategy (Section 4).
//!
//! On top of the boolean kernel, the [`fdd`] module provides *finite-domain
//! blocks* (BuDDy's `fdd_*` interface): an attribute with an active domain of
//! size `n` is encoded as `⌈log₂ n⌉` consecutive boolean variables, and
//! relations become characteristic functions over those blocks (Section 2.2
//! of the paper).
//!
//! ## Quick example
//!
//! ```
//! use relcheck_bdd::BddManager;
//!
//! let mut m = BddManager::new();
//! let d = m.add_domain(10).unwrap();          // attribute with |dom| = 10
//! let e = m.add_domain(10).unwrap();
//! // the relation {(3, 4), (7, 2)}
//! let r = m.relation_from_rows(&[d, e], &[vec![3, 4], vec![7, 2]]).unwrap();
//! assert!(m.contains(r, &[d, e], &[3, 4]).unwrap());
//! assert!(!m.contains(r, &[d, e], &[3, 2]).unwrap());
//! assert_eq!(m.tuple_count(r, &[d, e]).unwrap(), 2.0);
//! ```

mod analyze;
mod apply;
mod build;
mod cache;
mod error;
pub mod failpoint;
pub mod fdd;
mod hash;
mod manager;
mod quant;
mod replace;
mod sat;
mod serialize;

pub use cache::{OpKind, OP_KINDS};
pub use error::{BddError, Result};
pub use fdd::{DomainId, DomainInfo};
pub use manager::{
    Bdd, BddManager, CompactStats, GcStats, ManagerStats, OpStats, StatsDelta, Var,
    DEFAULT_CACHE_SLOTS, MIN_GARBAGE, NODE_BYTES,
};
pub use quant::VarSet;
pub use replace::ReplaceMap;
pub use sat::SatAssignments;
pub use serialize::{
    crc32, decode_frame, encode_frame, DecodeError, ExportedBdd, ExportedRelation, FRAME_HEADER_LEN,
};

/// Binary boolean connectives accepted by [`BddManager::apply`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Op {
    /// Conjunction `f ∧ g`.
    And,
    /// Disjunction `f ∨ g`.
    Or,
    /// Exclusive or `f ⊕ g`.
    Xor,
    /// Negated conjunction `¬(f ∧ g)`.
    Nand,
    /// Negated disjunction `¬(f ∨ g)`.
    Nor,
    /// Implication `f ⇒ g`.
    Imp,
    /// Biimplication `f ⇔ g`.
    Biimp,
    /// Difference `f ∧ ¬g` (set minus on characteristic functions).
    Diff,
}

impl Op {
    /// Evaluate the connective on two boolean constants.
    #[inline]
    pub fn eval(self, a: bool, b: bool) -> bool {
        match self {
            Op::And => a && b,
            Op::Or => a || b,
            Op::Xor => a ^ b,
            Op::Nand => !(a && b),
            Op::Nor => !(a || b),
            Op::Imp => !a || b,
            Op::Biimp => a == b,
            Op::Diff => a && !b,
        }
    }
}

//! Unified error type for the checker stack.

use relcheck_bdd::BddError;
use relcheck_logic::LogicError;
use relcheck_relstore::StoreError;
use std::fmt;

/// Errors surfaced by index construction and constraint checking.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CoreError {
    /// Propagated BDD-engine error. `NodeLimit` is handled internally by the
    /// fallback machinery and only escapes when no fallback applies.
    Bdd(BddError),
    /// Propagated relational-engine error.
    Store(StoreError),
    /// Propagated constraint-language error.
    Logic(LogicError),
    /// `find_violations` was asked for tuples of a constraint shape the SQL
    /// translator does not cover.
    UnsupportedForViolationQuery(String),
    /// The compiler needed a relation's BDD index but none was built.
    MissingIndex(String),
    /// A filesystem operation in the persistent index store failed.
    /// `std::io::Error` is neither `Clone` nor `Eq`, so the store captures
    /// the operation, path, and rendered message instead.
    Io {
        /// What was being attempted (`"open"`, `"write"`, `"rename"`, …).
        op: &'static str,
        /// The path involved.
        path: String,
        /// The rendered `std::io::Error`.
        message: String,
    },
    /// A journaled value belongs to a domain the cached index cannot
    /// represent: replaying it would need a wider BDD block than the
    /// segment was built with. The store answers this by rebuilding.
    DomainOverflow {
        /// Relation whose cached index is too narrow.
        relation: String,
        /// The attribute class that outgrew its block.
        class: String,
    },
    /// `relcheck index` was asked about a relation with no cache entry.
    NotCached(String),
    /// An armed failpoint fired outside any BDD work: on the SQL rung or
    /// at the journal append. Sites that simulate a failing BDD build or
    /// import (`apply`, `index-build`, `snapshot-decode`) report
    /// [`BddError::FaultInjected`], which the ladder absorbs as a budget
    /// abort.
    FaultInjected {
        /// The failpoint site that fired.
        site: &'static str,
    },
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::Bdd(e) => write!(f, "bdd: {e}"),
            CoreError::Store(e) => write!(f, "store: {e}"),
            CoreError::Logic(e) => write!(f, "logic: {e}"),
            CoreError::UnsupportedForViolationQuery(what) => {
                write!(
                    f,
                    "cannot enumerate violations for this constraint shape: {what}"
                )
            }
            CoreError::MissingIndex(rel) => {
                write!(f, "no BDD index built for relation {rel:?}")
            }
            CoreError::Io { op, path, message } => {
                write!(f, "index store: cannot {op} {path}: {message}")
            }
            CoreError::DomainOverflow { relation, class } => write!(
                f,
                "cached index for {relation:?} cannot represent new {class:?} values (domain overflow)"
            ),
            CoreError::NotCached(rel) => {
                write!(f, "no cached index for relation {rel:?}")
            }
            CoreError::FaultInjected { site } => {
                write!(f, "injected fault at failpoint site '{site}'")
            }
        }
    }
}

impl std::error::Error for CoreError {}

impl From<BddError> for CoreError {
    fn from(e: BddError) -> Self {
        CoreError::Bdd(e)
    }
}

impl From<StoreError> for CoreError {
    fn from(e: StoreError) -> Self {
        CoreError::Store(e)
    }
}

impl From<LogicError> for CoreError {
    fn from(e: LogicError) -> Self {
        CoreError::Logic(e)
    }
}

/// Convenience alias.
pub type Result<T> = std::result::Result<T, CoreError>;

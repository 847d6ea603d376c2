//! Error type for BDD operations.
//!
//! The only recoverable failure the engine reports is exceeding the
//! configured node limit; it is the signal the constraint checker uses to
//! abandon BDD evaluation and fall back to SQL (paper, Section 4). A few
//! usage errors (bad domain values, oversized domains) are also surfaced
//! rather than panicking so that callers driving the engine from user input
//! can degrade gracefully.

use std::fmt;

/// Errors produced by [`crate::BddManager`] operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BddError {
    /// Allocating one more node would exceed the configured limit. The
    /// in-flight operation was aborted before that allocation; the manager
    /// remains usable (garbage from the aborted operation can be reclaimed
    /// with [`crate::BddManager::gc`]).
    NodeLimit {
        /// The limit that was in force.
        limit: usize,
        /// Live nodes at the moment the operation aborted.
        live: usize,
    },
    /// A value outside `0..domain_size` was used with a finite domain.
    ValueOutOfDomain {
        /// The offending value.
        value: u64,
        /// The size of the domain it was used with.
        domain_size: u64,
    },
    /// A domain was declared with size zero.
    EmptyDomain,
    /// The total bit width of a tuple layout exceeds what the engine packs
    /// into a single machine word (64 bits) for sorted-tuple construction.
    TupleTooWide {
        /// Total bits required.
        bits: u32,
    },
    /// A row passed to a relation builder has the wrong arity.
    ArityMismatch {
        /// Number of domains in the layout.
        expected: usize,
        /// Number of values supplied.
        got: usize,
    },
    /// A domain rename paired two domains of different bit widths.
    DomainWidthMismatch {
        /// Bit width of the source domain.
        from_bits: u32,
        /// Bit width of the target domain.
        to_bits: u32,
    },
    /// The same domain was used for two different columns of one relation
    /// layout — each column needs its own variable block.
    DuplicateDomain,
    /// An imported snapshot references a variable that the accompanying
    /// layout metadata does not cover, so there is no target variable to
    /// map it to.
    UnmappedVariable {
        /// The snapshot variable with no mapping.
        var: u32,
    },
    /// The wall-clock deadline armed by [`crate::BddManager::set_deadline`]
    /// passed while an operation was in flight. The operation was aborted
    /// cooperatively at a recursion boundary; the manager remains usable
    /// (exactly like a node-limit abort) and the caller is expected to
    /// escalate down its degradation ladder.
    Deadline {
        /// Budget steps (memoized recursive calls) taken before the abort.
        steps: u64,
    },
    /// A [`crate::failpoint`] site fired. Only ever produced under an
    /// explicitly configured fault-injection profile — production runs with
    /// the registry disabled can never see this variant.
    FaultInjected {
        /// The failpoint site that fired (see [`crate::failpoint::SITES`]).
        site: &'static str,
    },
}

impl fmt::Display for BddError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BddError::NodeLimit { limit, live } => write!(
                f,
                "BDD node limit reached: {live} live nodes; the next allocation would exceed the limit of {limit}"
            ),
            BddError::ValueOutOfDomain { value, domain_size } => write!(
                f,
                "value {value} out of range for finite domain of size {domain_size}"
            ),
            BddError::EmptyDomain => write!(f, "finite domains must have at least one value"),
            BddError::TupleTooWide { bits } => write!(
                f,
                "tuple layout needs {bits} bits; sorted-tuple construction packs into 64"
            ),
            BddError::ArityMismatch { expected, got } => {
                write!(
                    f,
                    "row arity mismatch: layout has {expected} domains, row has {got} values"
                )
            }
            BddError::DomainWidthMismatch { from_bits, to_bits } => write!(
                f,
                "domain rename requires equal bit widths, got {from_bits} vs {to_bits}"
            ),
            BddError::DuplicateDomain => {
                write!(f, "a relation layout listed the same domain twice")
            }
            BddError::UnmappedVariable { var } => {
                write!(
                    f,
                    "snapshot references variable {var} outside the exported layout"
                )
            }
            BddError::Deadline { steps } => write!(
                f,
                "BDD deadline exceeded: operation aborted after {steps} budget steps"
            ),
            BddError::FaultInjected { site } => {
                write!(f, "injected fault at failpoint site '{site}'")
            }
        }
    }
}

impl std::error::Error for BddError {}

/// Convenience alias used throughout the crate.
pub type Result<T> = std::result::Result<T, BddError>;

#[cfg(test)]
mod tests {
    use crate::{BddError, BddManager};

    #[test]
    fn node_limit_message_names_the_allocation_that_would_exceed_it() {
        // `mk` refuses the allocation that would take the live count past
        // the limit, so at the abort the live count equals the limit.
        let mut m = BddManager::new();
        let v: Vec<_> = (0..2).map(|_| m.new_var()).collect();
        m.set_node_limit(Some(1));
        m.var(v[0]).unwrap();
        let err = m.var(v[1]).unwrap_err();
        assert_eq!(err, BddError::NodeLimit { limit: 1, live: 1 });
        assert_eq!(
            err.to_string(),
            "BDD node limit reached: 1 live nodes; the next allocation would exceed the limit of 1"
        );
    }
}

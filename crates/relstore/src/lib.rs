#![warn(missing_docs)]

//! # relcheck-relstore — in-memory relational engine and statistics
//!
//! The relational substrate under the ICDE 2007 constraint-violation system:
//!
//! * **dictionary-encoded columnar relations** with set semantics
//!   ([`Relation`]): attribute values are interned per *attribute class*
//!   (shared dictionaries), so equality across columns and relations is code
//!   equality — exactly the precondition for the BDD finite-domain encoding;
//! * a **relational algebra** ([`algebra`]) with hash-based select / project
//!   / join / anti-join / union / difference / product and functional-
//!   dependency checking — the operators the paper's "SQL approach" baseline
//!   is built from;
//! * a small **logical plan language and executor** ([`plan`]) so violation
//!   queries can be composed and run like the paper's SQL statements;
//! * **information-theoretic statistics** ([`stats`]): entropy, conditional
//!   entropy, information gain, and the paper's Φ measure — the inputs to
//!   the `MaxInf-Gain` and `Prob-Converge` variable-ordering heuristics
//!   (Section 3).
//!
//! ```
//! use relcheck_relstore::{Database, Raw};
//!
//! let mut db = Database::new();
//! db.create_relation(
//!     "phones",
//!     &[("city", "city"), ("areacode", "areacode")],
//!     vec![
//!         vec![Raw::str("Toronto"), Raw::Int(416)],
//!         vec![Raw::str("Toronto"), Raw::Int(647)],
//!         vec![Raw::str("Oshawa"), Raw::Int(905)],
//!     ],
//! ).unwrap();
//! assert_eq!(db.relation("phones").unwrap().len(), 3);
//! ```

pub mod algebra;
mod catalog;
pub mod csv;
mod error;
mod hash;
pub mod plan;
mod relation;
pub mod stats;
mod value;

pub use catalog::Database;
pub use error::{Result, StoreError};
pub use relation::{Relation, Schema};
pub use value::{Dict, Raw};

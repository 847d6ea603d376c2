//! Logical query plans and their executor — the "SQL approach".
//!
//! The paper's baseline expresses each constraint as a SQL query whose
//! result set is the violating tuples (Section 1's `SELECT … WHERE NOT
//! EXISTS …` example). We model that with a small composable plan language
//! executed by [`execute`]; the `relcheck-core` checker compiles first-order
//! constraints into these plans when it falls back from BDD evaluation.

use crate::algebra;
use crate::catalog::Database;
use crate::error::{Result, StoreError};
use crate::relation::Relation;
use crate::value::Raw;
use std::collections::HashSet;

/// A logical plan node. Leaf scans name relations in a [`Database`];
/// selections carry raw values that are resolved against the class
/// dictionaries at execution time (an un-interned value simply selects
/// nothing).
#[derive(Debug, Clone)]
pub enum Plan {
    /// Scan a named base relation.
    Scan(String),
    /// σ column = value.
    SelectEq {
        /// Input plan.
        input: Box<Plan>,
        /// Column index in the input.
        col: usize,
        /// Raw comparison value.
        value: Raw,
    },
    /// σ column ∈ values.
    SelectIn {
        /// Input plan.
        input: Box<Plan>,
        /// Column index in the input.
        col: usize,
        /// Raw membership set.
        values: Vec<Raw>,
    },
    /// σ column ≠ value.
    SelectNeq {
        /// Input plan.
        input: Box<Plan>,
        /// Column index in the input.
        col: usize,
        /// Raw comparison value.
        value: Raw,
    },
    /// σ column ∉ values.
    SelectNotIn {
        /// Input plan.
        input: Box<Plan>,
        /// Column index in the input.
        col: usize,
        /// Raw exclusion set.
        values: Vec<Raw>,
    },
    /// σ column-a = column-b (within one input).
    SelectColEq {
        /// Input plan.
        input: Box<Plan>,
        /// First column.
        left: usize,
        /// Second column.
        right: usize,
    },
    /// σ column-a ≠ column-b (within one input).
    SelectColNeq {
        /// Input plan.
        input: Box<Plan>,
        /// First column.
        left: usize,
        /// Second column.
        right: usize,
    },
    /// π onto the listed columns.
    Project {
        /// Input plan.
        input: Box<Plan>,
        /// Columns to keep, in output order.
        cols: Vec<usize>,
    },
    /// Hash equi-join on `(left_col, right_col)` pairs.
    Join {
        /// Left input.
        left: Box<Plan>,
        /// Right input.
        right: Box<Plan>,
        /// Join-column pairs.
        pairs: Vec<(usize, usize)>,
    },
    /// `NOT EXISTS`: rows of `left` with no partner in `right`.
    AntiJoin {
        /// Left input (kept side).
        left: Box<Plan>,
        /// Right input (filter side).
        right: Box<Plan>,
        /// Join-column pairs.
        pairs: Vec<(usize, usize)>,
    },
    /// Set union.
    Union {
        /// Left input.
        left: Box<Plan>,
        /// Right input.
        right: Box<Plan>,
    },
    /// Set difference.
    Diff {
        /// Left input.
        left: Box<Plan>,
        /// Right input.
        right: Box<Plan>,
    },
    /// Cartesian product.
    Product {
        /// Left input.
        left: Box<Plan>,
        /// Right input.
        right: Box<Plan>,
    },
    /// Rows violating the functional dependency `lhs → rhs` in the input.
    FdViolations {
        /// Input plan.
        input: Box<Plan>,
        /// Determinant columns.
        lhs: Vec<usize>,
        /// Dependent columns.
        rhs: Vec<usize>,
    },
}

impl Plan {
    /// Leaf scan.
    pub fn scan(name: &str) -> Plan {
        Plan::Scan(name.to_owned())
    }

    /// Chain a σ column = value.
    pub fn select_eq(self, col: usize, value: Raw) -> Plan {
        Plan::SelectEq {
            input: Box::new(self),
            col,
            value,
        }
    }

    /// Chain a σ column ∈ values.
    pub fn select_in(self, col: usize, values: Vec<Raw>) -> Plan {
        Plan::SelectIn {
            input: Box::new(self),
            col,
            values,
        }
    }

    /// Chain a projection.
    pub fn project(self, cols: Vec<usize>) -> Plan {
        Plan::Project {
            input: Box::new(self),
            cols,
        }
    }

    /// Join with another plan.
    pub fn join(self, right: Plan, pairs: Vec<(usize, usize)>) -> Plan {
        Plan::Join {
            left: Box::new(self),
            right: Box::new(right),
            pairs,
        }
    }

    /// Anti-join with another plan.
    pub fn anti_join(self, right: Plan, pairs: Vec<(usize, usize)>) -> Plan {
        Plan::AntiJoin {
            left: Box::new(self),
            right: Box::new(right),
            pairs,
        }
    }
}

/// Execute a plan against a database, materializing every operator's output
/// (the paper's baseline is a straightforward iterator-free executor; all
/// comparisons here are BDD-vs-SQL on equal footing, both in memory).
pub fn execute(db: &Database, plan: &Plan) -> Result<Relation> {
    match plan {
        Plan::Scan(name) => Ok(db.relation(name)?.clone()),
        Plan::SelectEq { input, col, value } => {
            let rel = execute(db, input)?;
            if *col >= rel.arity() {
                return Err(StoreError::ColumnOutOfRange {
                    index: *col,
                    arity: rel.arity(),
                });
            }
            let class = rel.schema().class_of(*col).to_owned();
            match db.code(&class, value) {
                Some(code) => algebra::select_eq(&rel, *col, code),
                None => Ok(Relation::new(rel.schema().clone())),
            }
        }
        Plan::SelectIn { input, col, values } => {
            let rel = execute(db, input)?;
            if *col >= rel.arity() {
                return Err(StoreError::ColumnOutOfRange {
                    index: *col,
                    arity: rel.arity(),
                });
            }
            let class = rel.schema().class_of(*col).to_owned();
            let codes: HashSet<u32> = values.iter().filter_map(|v| db.code(&class, v)).collect();
            algebra::select_in(&rel, *col, &codes)
        }
        Plan::SelectNeq { input, col, value } => {
            let rel = execute(db, input)?;
            if *col >= rel.arity() {
                return Err(StoreError::ColumnOutOfRange {
                    index: *col,
                    arity: rel.arity(),
                });
            }
            let class = rel.schema().class_of(*col).to_owned();
            match db.code(&class, value) {
                Some(code) => Ok(rel.retain_rows(|i| rel.col(*col)[i] != code)),
                // Value never interned: nothing can equal it.
                None => Ok(rel),
            }
        }
        Plan::SelectNotIn { input, col, values } => {
            let rel = execute(db, input)?;
            if *col >= rel.arity() {
                return Err(StoreError::ColumnOutOfRange {
                    index: *col,
                    arity: rel.arity(),
                });
            }
            let class = rel.schema().class_of(*col).to_owned();
            let codes: HashSet<u32> = values.iter().filter_map(|v| db.code(&class, v)).collect();
            Ok(rel.retain_rows(|i| !codes.contains(&rel.col(*col)[i])))
        }
        Plan::SelectColEq { input, left, right } => {
            let rel = execute(db, input)?;
            for &c in [left, right] {
                if c >= rel.arity() {
                    return Err(StoreError::ColumnOutOfRange {
                        index: c,
                        arity: rel.arity(),
                    });
                }
            }
            Ok(rel.retain_rows(|i| rel.col(*left)[i] == rel.col(*right)[i]))
        }
        Plan::SelectColNeq { input, left, right } => {
            let rel = execute(db, input)?;
            for &c in [left, right] {
                if c >= rel.arity() {
                    return Err(StoreError::ColumnOutOfRange {
                        index: c,
                        arity: rel.arity(),
                    });
                }
            }
            Ok(rel.retain_rows(|i| rel.col(*left)[i] != rel.col(*right)[i]))
        }
        Plan::Project { input, cols } => {
            let rel = execute(db, input)?;
            algebra::project(&rel, cols)
        }
        Plan::Join { left, right, pairs } => {
            let l = execute(db, left)?;
            let r = execute(db, right)?;
            algebra::equi_join(&l, &r, pairs)
        }
        Plan::AntiJoin { left, right, pairs } => {
            let l = execute(db, left)?;
            let r = execute(db, right)?;
            algebra::anti_join(&l, &r, pairs)
        }
        Plan::Union { left, right } => {
            let l = execute(db, left)?;
            let r = execute(db, right)?;
            algebra::union(&l, &r)
        }
        Plan::Diff { left, right } => {
            let l = execute(db, left)?;
            let r = execute(db, right)?;
            algebra::difference(&l, &r)
        }
        Plan::Product { left, right } => {
            let l = execute(db, left)?;
            let r = execute(db, right)?;
            algebra::product(&l, &r)
        }
        Plan::FdViolations { input, lhs, rhs } => {
            let rel = execute(db, input)?;
            algebra::fd_violations(&rel, lhs, rhs)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn phone_db() -> Database {
        let mut db = Database::new();
        db.create_relation(
            "customers",
            &[
                ("city", "city"),
                ("areacode", "areacode"),
                ("state", "state"),
            ],
            vec![
                vec![Raw::str("Toronto"), Raw::Int(416), Raw::str("ON")],
                vec![Raw::str("Toronto"), Raw::Int(647), Raw::str("ON")],
                vec![Raw::str("Toronto"), Raw::Int(212), Raw::str("ON")], // violation
                vec![Raw::str("Newark"), Raw::Int(973), Raw::str("NJ")],
                vec![Raw::str("Newark"), Raw::Int(973), Raw::str("NY")], // FD violation
            ],
        )
        .unwrap();
        db
    }

    #[test]
    fn scan_and_select() {
        let db = phone_db();
        let plan = Plan::scan("customers").select_eq(0, Raw::str("Toronto"));
        let out = execute(&db, &plan).unwrap();
        assert_eq!(out.len(), 3);
    }

    #[test]
    fn select_unknown_value_yields_empty() {
        let db = phone_db();
        let plan = Plan::scan("customers").select_eq(0, Raw::str("Nowhere"));
        assert!(execute(&db, &plan).unwrap().is_empty());
    }

    #[test]
    fn membership_constraint_as_plan() {
        // Violations of: city='Toronto' ⇒ areacode ∈ {416, 647}.
        let db = phone_db();
        let toronto = Plan::scan("customers").select_eq(0, Raw::str("Toronto"));
        let ok = toronto
            .clone()
            .select_in(1, vec![Raw::Int(416), Raw::Int(647)]);
        let violations = Plan::Diff {
            left: Box::new(toronto),
            right: Box::new(ok),
        };
        let out = execute(&db, &violations).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(db.decode_row(&out, &out.row(0))[1], Raw::Int(212));
    }

    #[test]
    fn anti_join_not_exists() {
        let mut db = phone_db();
        db.create_relation(
            "allowed",
            &[("city", "city"), ("areacode", "areacode")],
            vec![
                vec![Raw::str("Toronto"), Raw::Int(416)],
                vec![Raw::str("Toronto"), Raw::Int(647)],
                vec![Raw::str("Newark"), Raw::Int(973)],
            ],
        )
        .unwrap();
        let plan = Plan::scan("customers").anti_join(Plan::scan("allowed"), vec![(0, 0), (1, 1)]);
        let out = execute(&db, &plan).unwrap();
        assert_eq!(out.len(), 1); // only the 212 row
    }

    #[test]
    fn fd_violation_plan() {
        let db = phone_db();
        let plan = Plan::FdViolations {
            input: Box::new(Plan::scan("customers")),
            lhs: vec![1],
            rhs: vec![2],
        };
        let out = execute(&db, &plan).unwrap();
        // areacode → state broken by 973 → {NJ, NY}: two rows.
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn select_col_eq() {
        let mut db = Database::new();
        db.create_relation(
            "pairs",
            &[("x", "k"), ("y", "k")],
            vec![
                vec![Raw::Int(1), Raw::Int(1)],
                vec![Raw::Int(1), Raw::Int(2)],
                vec![Raw::Int(3), Raw::Int(3)],
            ],
        )
        .unwrap();
        let plan = Plan::SelectColEq {
            input: Box::new(Plan::scan("pairs")),
            left: 0,
            right: 1,
        };
        assert_eq!(execute(&db, &plan).unwrap().len(), 2);
    }

    #[test]
    fn negated_selections() {
        let db = phone_db();
        let neq = Plan::SelectNeq {
            input: Box::new(Plan::scan("customers")),
            col: 0,
            value: Raw::str("Toronto"),
        };
        assert_eq!(execute(&db, &neq).unwrap().len(), 2);
        // Unknown value: nothing equals it, everything survives.
        let neq_unknown = Plan::SelectNeq {
            input: Box::new(Plan::scan("customers")),
            col: 0,
            value: Raw::str("Nowhere"),
        };
        assert_eq!(execute(&db, &neq_unknown).unwrap().len(), 5);
        let notin = Plan::SelectNotIn {
            input: Box::new(Plan::scan("customers")),
            col: 1,
            values: vec![Raw::Int(416), Raw::Int(647)],
        };
        assert_eq!(execute(&db, &notin).unwrap().len(), 3);
    }

    #[test]
    fn select_col_neq() {
        let mut db = Database::new();
        db.create_relation(
            "pairs",
            &[("x", "k"), ("y", "k")],
            vec![
                vec![Raw::Int(1), Raw::Int(1)],
                vec![Raw::Int(1), Raw::Int(2)],
            ],
        )
        .unwrap();
        let plan = Plan::SelectColNeq {
            input: Box::new(Plan::scan("pairs")),
            left: 0,
            right: 1,
        };
        let out = execute(&db, &plan).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out.row(0), vec![0, 1]); // codes of (1, 2)
    }

    #[test]
    fn unknown_relation_propagates() {
        let db = Database::new();
        assert!(matches!(
            execute(&db, &Plan::scan("ghost")),
            Err(StoreError::UnknownRelation(_))
        ));
    }

    #[test]
    fn union_and_product_plans() {
        let db = phone_db();
        let toronto = Plan::scan("customers").select_eq(0, Raw::str("Toronto"));
        let newark = Plan::scan("customers").select_eq(0, Raw::str("Newark"));
        let u = Plan::Union {
            left: Box::new(toronto.clone()),
            right: Box::new(newark),
        };
        assert_eq!(execute(&db, &u).unwrap().len(), 5);
        // Idempotent union.
        let uu = Plan::Union {
            left: Box::new(toronto.clone()),
            right: Box::new(toronto.clone()),
        };
        assert_eq!(execute(&db, &uu).unwrap().len(), 3);
        let p = Plan::Product {
            left: Box::new(toronto.clone().project(vec![1])),
            right: Box::new(Plan::scan("customers").project(vec![0])),
        };
        // 3 Toronto area codes × 2 distinct cities.
        assert_eq!(execute(&db, &p).unwrap().len(), 6);
    }

    #[test]
    fn join_project_pipeline() {
        let mut db = phone_db();
        db.create_relation(
            "state_names",
            &[("state", "state"), ("full", "statename")],
            vec![
                vec![Raw::str("ON"), Raw::str("Ontario")],
                vec![Raw::str("NJ"), Raw::str("New Jersey")],
            ],
        )
        .unwrap();
        let plan = Plan::scan("customers")
            .join(Plan::scan("state_names"), vec![(2, 0)])
            .project(vec![0, 4]);
        let out = execute(&db, &plan).unwrap();
        // Toronto→Ontario, Newark→New Jersey (NY row has no partner).
        assert_eq!(out.len(), 2);
    }
}

//! Project spec files for the `relcheck` CLI.
//!
//! A spec file declares tables (CSV-backed) and named constraints:
//!
//! ```text
//! # comments and blank lines are ignored
//! table CUSTOMERS from data/customers.csv header with
//!     city:city, areacode:areacode, state:state
//!
//! constraint toronto-prefixes:
//!     forall c, a, s. CUSTOMERS(c, a, s) & c = "Toronto" -> a in {416, 647, 905}
//! ```
//!
//! Grammar (line-oriented; a declaration continues onto following lines
//! until the next `table`/`constraint` keyword):
//!
//! ```text
//! table <NAME> from <PATH> [header] with <col>:<class> (, <col>:<class>)*
//! constraint <NAME>: <FORMULA>
//! ```

use relcheck_logic::{parse as parse_formula, Formula};
use std::fmt;

/// A table declaration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableDecl {
    /// Relation name.
    pub name: String,
    /// CSV path, relative to the spec file.
    pub path: String,
    /// Skip the first CSV row.
    pub has_header: bool,
    /// `(column, class)` pairs.
    pub columns: Vec<(String, String)>,
}

/// A named constraint.
#[derive(Debug, Clone)]
pub struct ConstraintDecl {
    /// Constraint name (for reports).
    pub name: String,
    /// The parsed sentence.
    pub formula: Formula,
}

/// A parsed spec file.
#[derive(Debug, Clone, Default)]
pub struct Spec {
    /// Tables, in declaration order.
    pub tables: Vec<TableDecl>,
    /// Constraints, in declaration order.
    pub constraints: Vec<ConstraintDecl>,
}

/// Spec parse error with 1-based line number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecError {
    /// Line of the offending declaration.
    pub line: usize,
    /// Description.
    pub message: String,
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "spec error at line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for SpecError {}

/// Parse a spec document.
pub fn parse_spec(text: &str) -> Result<Spec, SpecError> {
    // Gather declarations: a declaration starts at a line beginning with
    // `table` or `constraint` and spans until the next such line.
    let mut decls: Vec<(usize, String)> = Vec::new();
    for (i, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let starts_decl = line.starts_with("table ") || line.starts_with("constraint ");
        if starts_decl {
            decls.push((i + 1, line.to_owned()));
        } else {
            match decls.last_mut() {
                Some((_, body)) => {
                    body.push(' ');
                    body.push_str(line);
                }
                None => {
                    return Err(SpecError {
                        line: i + 1,
                        message: "expected a `table` or `constraint` declaration".to_owned(),
                    })
                }
            }
        }
    }
    let mut spec = Spec::default();
    for (line, decl) in decls {
        if let Some(rest) = decl.strip_prefix("table ") {
            spec.tables.push(parse_table(line, rest)?);
        } else if let Some(rest) = decl.strip_prefix("constraint ") {
            let c = parse_constraint(line, rest)?;
            // Names key reports, certificates and the serve registry, so
            // every run mode rejects a repeat here, once.
            if spec.constraints.iter().any(|d| d.name == c.name) {
                return Err(SpecError {
                    line,
                    message: format!("duplicate constraint name {:?}", c.name),
                });
            }
            spec.constraints.push(c);
        }
    }
    Ok(spec)
}

fn parse_table(line: usize, rest: &str) -> Result<TableDecl, SpecError> {
    let err = |message: String| SpecError { line, message };
    let (name, rest) = rest
        .split_once(" from ")
        .ok_or_else(|| err("table declaration needs `from <path>`".to_owned()))?;
    let (path_part, cols_part) = rest
        .split_once(" with ")
        .ok_or_else(|| err("table declaration needs `with <col>:<class>, …`".to_owned()))?;
    let mut path = path_part.trim();
    let mut has_header = false;
    if let Some(stripped) = path.strip_suffix(" header") {
        path = stripped.trim();
        has_header = true;
    }
    if path.is_empty() {
        return Err(err("empty CSV path".to_owned()));
    }
    let mut columns = Vec::new();
    for part in cols_part.split(',') {
        let part = part.trim();
        if part.is_empty() {
            continue;
        }
        let (col, class) = part
            .split_once(':')
            .ok_or_else(|| err(format!("column spec {part:?} must be <col>:<class>")))?;
        columns.push((col.trim().to_owned(), class.trim().to_owned()));
    }
    if columns.is_empty() {
        return Err(err("table needs at least one column".to_owned()));
    }
    Ok(TableDecl {
        name: name.trim().to_owned(),
        path: path.to_owned(),
        has_header,
        columns,
    })
}

fn parse_constraint(line: usize, rest: &str) -> Result<ConstraintDecl, SpecError> {
    let (name, body) = rest.split_once(':').ok_or_else(|| SpecError {
        line,
        message: "constraint declaration needs `<name>: <formula>`".to_owned(),
    })?;
    let formula = parse_formula(body.trim()).map_err(|e| SpecError {
        line,
        message: format!("in constraint {:?}: {e}", name.trim()),
    })?;
    Ok(ConstraintDecl {
        name: name.trim().to_owned(),
        formula,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"
# phone data quality project
table CUSTOMERS from data/customers.csv header with
    city:city, areacode:areacode, state:state

table CITY_STATE from data/reference.csv with city:city, state:state

constraint toronto-prefixes:
    forall c, a, s. CUSTOMERS(c, a, s) & c = "Toronto" -> a in {416, 647, 905}

constraint reference-agrees:
    forall c, a, s, s2.
        CUSTOMERS(c, a, s) & CITY_STATE(c, s2) -> s = s2
"#;

    #[test]
    fn parses_tables_and_constraints() {
        let spec = parse_spec(SAMPLE).unwrap();
        assert_eq!(spec.tables.len(), 2);
        assert_eq!(spec.constraints.len(), 2);
        let t = &spec.tables[0];
        assert_eq!(t.name, "CUSTOMERS");
        assert_eq!(t.path, "data/customers.csv");
        assert!(t.has_header);
        assert_eq!(t.columns.len(), 3);
        assert_eq!(t.columns[1], ("areacode".to_owned(), "areacode".to_owned()));
        assert!(!spec.tables[1].has_header);
        assert_eq!(spec.constraints[0].name, "toronto-prefixes");
        assert!(spec.constraints[1].formula.is_sentence());
    }

    #[test]
    fn multiline_declarations_join() {
        let spec = parse_spec(
            "constraint x:\n  forall a.\n  R(a) ->\n  a in {1}\ntable R from r.csv with a:k",
        )
        .unwrap();
        assert_eq!(spec.constraints.len(), 1);
        assert_eq!(spec.tables.len(), 1);
    }

    #[test]
    fn reports_errors_with_line_numbers() {
        let err = parse_spec("table T with a:k").unwrap_err();
        assert_eq!(err.line, 1);
        assert!(err.message.contains("from"));
        let err = parse_spec("\n\nnonsense first").unwrap_err();
        assert_eq!(err.line, 3);
        let err = parse_spec("constraint broken: forall . R(x)").unwrap_err();
        assert!(err.message.contains("broken"));
    }

    #[test]
    fn duplicate_constraint_names_rejected_at_the_second_declaration() {
        let err = parse_spec(
            "constraint dup: exists x. R(x)

constraint other: exists x. R(x)
             constraint dup:
  forall x. R(x) -> x = x",
        )
        .unwrap_err();
        assert_eq!(err.line, 4);
        assert!(err.message.contains("duplicate constraint name \"dup\""));
    }

    #[test]
    fn missing_column_class_rejected() {
        let err = parse_spec("table T from t.csv with a").unwrap_err();
        assert!(err.message.contains("<col>:<class>"));
    }
}

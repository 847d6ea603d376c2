//! Minimal CSV ingestion — loading real tables into the catalog.
//!
//! Supports the common CSV dialect: comma separator, `"`-quoted fields
//! with `""` escapes, optional header row, `\n`/`\r\n` line endings. A
//! `\r` outside quotes that does not start a `\r\n` is an error.
//! Fields that parse as `i64` become [`Raw::Int`], everything else
//! [`Raw::Str`] — matching how the paper's phone/zip attributes are
//! naturally numeric while cities and states are strings. Use
//! [`parse_csv`] for the raw rows or
//! [`crate::Database::create_relation_from_csv`] to load, dictionary-encode
//! and deduplicate in one pass; both are sinks over the one tokenizer.

use crate::catalog::{Database, Staged};
use crate::error::{Result, StoreError};
use crate::relation::{Relation, Schema};
use crate::value::Raw;

/// A parse failure, with 1-based line number and (when known) the 1-based
/// column of the offending character on that line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CsvError {
    /// Line where the problem was found. For arity errors this is the line
    /// the row *starts* on — robust to quoted fields spanning newlines and
    /// to skipped blank lines.
    pub line: usize,
    /// Column of the offending character, when a single character is to
    /// blame (stray quote, invalid byte). `None` for whole-row problems.
    pub column: Option<usize>,
    /// Description.
    pub message: String,
}

impl std::fmt::Display for CsvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.column {
            Some(col) => write!(
                f,
                "CSV error at line {}, column {col}: {}",
                self.line, self.message
            ),
            None => write!(f, "CSV error at line {}: {}", self.line, self.message),
        }
    }
}

impl std::error::Error for CsvError {}

/// Parse CSV bytes into raw rows, rejecting invalid UTF-8 with the line
/// and column of the first bad byte instead of panicking or lossily
/// substituting. Use this for data read straight off disk or a socket.
pub fn parse_csv_bytes(bytes: &[u8]) -> std::result::Result<Vec<Vec<Raw>>, CsvError> {
    parse_csv(utf8(bytes)?)
}

/// The bytes as text, or the position of the first byte that is not
/// UTF-8. The whole document is checked before any of it is tokenized.
fn utf8(bytes: &[u8]) -> std::result::Result<&str, CsvError> {
    std::str::from_utf8(bytes).map_err(|e| {
        let prefix = &bytes[..e.valid_up_to()];
        let line = 1 + prefix.iter().filter(|&&b| b == b'\n').count();
        let line_start = prefix
            .iter()
            .rposition(|&b| b == b'\n')
            .map_or(0, |i| i + 1);
        CsvError {
            line,
            column: Some(prefix.len() - line_start + 1),
            message: format!(
                "invalid UTF-8 (byte 0x{:02X} at offset {})",
                bytes[e.valid_up_to()],
                e.valid_up_to()
            ),
        }
    })
}

/// Parse CSV text into raw rows. Empty lines are skipped. All rows must
/// have the same arity.
pub fn parse_csv(text: &str) -> std::result::Result<Vec<Vec<Raw>>, CsvError> {
    #[derive(Default)]
    struct RawRows {
        rows: Vec<Vec<Raw>>,
        row: Vec<Raw>,
    }
    impl FieldSink for RawRows {
        fn field(&mut self, _col: usize, text: &str, quoted: bool) {
            self.row.push(match int_value(text, quoted) {
                Some(i) => Raw::Int(i),
                None => Raw::Str(text.to_owned()),
            });
        }
        fn end_row(&mut self, _len: usize) {
            self.rows.push(std::mem::take(&mut self.row));
        }
    }
    let mut sink = RawRows::default();
    tokenize(text, &mut sink)?;
    Ok(sink.rows)
}

/// The integer an unquoted field spells, surrounding whitespace allowed.
/// A quoted field is always a string.
fn int_value(text: &str, quoted: bool) -> Option<i64> {
    if quoted {
        None
    } else {
        text.trim().parse().ok()
    }
}

/// What [`tokenize`] delivers, row by row.
trait FieldSink {
    /// Field `col` (0-based) of the current row, unescaped; `quoted` when
    /// the field opened with a quote.
    fn field(&mut self, col: usize, text: &str, quoted: bool);
    /// The current row ended after `len` fields.
    fn end_row(&mut self, len: usize);
}

/// The one CSV tokenizer: a byte-level state machine over `text` that
/// hands each field to `sink` as a slice, copying only quoted fields.
/// Empty lines are skipped. Once a row's arity differs from the first
/// row's, the sink hears nothing more but tokenizing goes on, so that a
/// malformed character anywhere in the text is reported in its place.
fn tokenize(text: &str, sink: &mut impl FieldSink) -> std::result::Result<(), CsvError> {
    let bytes = text.as_bytes();
    // The physical line, and the byte offset it starts at: a column is
    // counted in characters, and only for an error.
    let mut line = 1usize;
    let mut line_start = 0usize;
    let mut row = RowState::default();
    let mut any_field = false;
    // The current field. Unquoted, it is `text[start..]` up to its
    // delimiter. Quoted, it is unescaped into `unquoted`, and `text[seg..]`
    // is the part not yet copied.
    let mut start = 0usize;
    let mut seg = 0usize;
    let mut quoted = false;
    let mut in_quotes = false;
    let mut unquoted = String::new();
    // Line, line start and offset of the open quote.
    let mut quote_open = (1usize, 0usize, 0usize);
    let mut i = 0;
    while i < bytes.len() {
        let b = bytes[i];
        if !any_field && b != b'\n' && b != b'\r' {
            row.start_line = line;
        }
        match b {
            b'"' if in_quotes => {
                unquoted.push_str(&text[seg..i]);
                if bytes.get(i + 1) == Some(&b'"') {
                    unquoted.push('"');
                    i += 1;
                } else {
                    in_quotes = false;
                }
                seg = i + 1;
            }
            b'"' if !quoted && i == start => {
                // Opening quote at the start of a field.
                in_quotes = true;
                quoted = true;
                any_field = true;
                quote_open = (line, line_start, i);
                unquoted.clear();
                seg = i + 1;
            }
            b'"' => {
                return Err(error_at(
                    text,
                    (line, line_start, i),
                    "quote inside an unquoted field",
                ))
            }
            b'\r' if !in_quotes && bytes.get(i + 1) != Some(&b'\n') => {
                return Err(error_at(
                    text,
                    (line, line_start, i),
                    "bare carriage return outside a quoted field",
                ))
            }
            // The `\n` that follows ends the field.
            b'\r' if !in_quotes => {}
            b',' | b'\n' if !in_quotes => {
                if b == b',' || any_field {
                    // A `\r` before the `\n` ends the field.
                    let end = if b == b'\n' && bytes[..i].ends_with(b"\r") {
                        i - 1
                    } else {
                        i
                    };
                    let value = if quoted {
                        unquoted.push_str(&text[seg..end]);
                        &unquoted
                    } else {
                        &text[start..end]
                    };
                    row.field(sink, value, quoted);
                }
                quoted = false;
                start = i + 1;
                if b == b',' {
                    any_field = true;
                } else {
                    if any_field {
                        row.end(sink);
                    }
                    any_field = false;
                    line += 1;
                    line_start = i + 1;
                }
            }
            // A newline inside quotes is data.
            b'\n' => {
                line += 1;
                line_start = i + 1;
            }
            _ => any_field = true,
        }
        i += 1;
    }
    if in_quotes {
        return Err(error_at(text, quote_open, "unterminated quoted field"));
    }
    if any_field {
        let value = if quoted {
            unquoted.push_str(&text[seg..]);
            &unquoted
        } else {
            &text[start..]
        };
        row.field(sink, value, quoted);
        row.end(sink);
    }
    match row.ragged {
        Some(e) => Err(e),
        None => Ok(()),
    }
}

/// The tokenizer's row bookkeeping: where the row starts, its fields so
/// far, and the arity check against the first row.
#[derive(Default)]
struct RowState {
    /// Line the current row starts on — robust to quoted newlines and
    /// skipped blank lines.
    start_line: usize,
    len: usize,
    arity: Option<usize>,
    /// The first row whose arity differs from the first row's.
    ragged: Option<CsvError>,
}

impl RowState {
    fn field(&mut self, sink: &mut impl FieldSink, text: &str, quoted: bool) {
        if self.ragged.is_none() {
            sink.field(self.len, text, quoted);
        }
        self.len += 1;
    }

    fn end(&mut self, sink: &mut impl FieldSink) {
        match self.arity {
            None => self.arity = Some(self.len),
            Some(arity) if arity != self.len && self.ragged.is_none() => {
                self.ragged = Some(CsvError {
                    line: self.start_line,
                    column: None,
                    message: format!("expected {arity} fields, found {}", self.len),
                });
            }
            _ => {}
        }
        if self.ragged.is_none() {
            sink.end_row(self.len);
        }
        self.len = 0;
    }
}

/// An error at byte `at` of the line that starts at byte `line_start`.
fn error_at(text: &str, (line, line_start, at): (usize, usize, usize), message: &str) -> CsvError {
    CsvError {
        line,
        column: Some(text[line_start..at].chars().count() + 1),
        message: message.to_owned(),
    }
}

/// The catalog's sink: interns each data field into its column's class
/// dictionary and appends the code to a flat row buffer.
struct Encoder<'a> {
    staged: &'a mut Staged,
    flat: &'a mut Vec<u32>,
    arity: usize,
    header: bool,
    /// Rows ended so far, the header included.
    rows: usize,
    /// The data rows' field count, when it is not the schema's arity.
    mismatch: Option<usize>,
}

impl FieldSink for Encoder<'_> {
    fn field(&mut self, col: usize, text: &str, quoted: bool) {
        if (self.header && self.rows == 0) || col >= self.arity || self.mismatch.is_some() {
            return;
        }
        let dict = self.staged.dict(col);
        self.flat.push(match int_value(text, quoted) {
            Some(i) => dict.encode_int(i),
            None => dict.encode_str(text),
        });
    }

    fn end_row(&mut self, len: usize) {
        if !(self.header && self.rows == 0) && len != self.arity && self.mismatch.is_none() {
            self.mismatch = Some(len);
        }
        self.rows += 1;
    }
}

impl Database {
    /// Load a CSV document as a new relation. `columns` declares
    /// `(name, class)` pairs as in [`Database::create_relation`]; when
    /// `has_header` is set the first row is skipped (after arity
    /// validation) and none of its values is interned. The document is
    /// tokenized, dictionary-encoded and deduplicated in one pass; a
    /// failed load leaves the database unchanged.
    pub fn create_relation_from_csv(
        &mut self,
        name: &str,
        columns: &[(&str, &str)],
        csv_text: &str,
        has_header: bool,
    ) -> Result<&Relation> {
        let schema = Schema::new(columns);
        let arity = schema.arity();
        self.load(name, schema, |staged, flat| {
            let mut encoder = Encoder {
                staged,
                flat,
                arity,
                header: has_header,
                rows: 0,
                mismatch: None,
            };
            tokenize(csv_text, &mut encoder).map_err(|e| csv_store_error(name, e))?;
            match encoder.mismatch {
                Some(got) => Err(StoreError::ArityMismatch {
                    expected: arity,
                    got,
                }),
                None => Ok(encoder.rows - usize::from(has_header && encoder.rows > 0)),
            }
        })
    }

    /// Like [`Database::create_relation_from_csv`] but starting from raw
    /// bytes, so invalid UTF-8 read straight off disk surfaces as a typed
    /// [`StoreError::Csv`] with line/column diagnostics instead of needing
    /// a lossy or panicking conversion first.
    pub fn create_relation_from_csv_bytes(
        &mut self,
        name: &str,
        columns: &[(&str, &str)],
        csv_bytes: &[u8],
        has_header: bool,
    ) -> Result<&Relation> {
        let text = utf8(csv_bytes).map_err(|e| csv_store_error(name, e))?;
        self.create_relation_from_csv(name, columns, text, has_header)
    }
}

/// Lift a parser-level [`CsvError`] into the catalog's typed error,
/// preserving the position diagnostics.
fn csv_store_error(relation: &str, e: CsvError) -> StoreError {
    StoreError::Csv {
        relation: relation.to_owned(),
        line: e.line,
        column: e.column,
        message: e.message,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_simple_rows() {
        let rows = parse_csv("Toronto,416,ON\nOshawa,905,ON\n").unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(
            rows[0],
            vec![Raw::str("Toronto"), Raw::Int(416), Raw::str("ON")]
        );
    }

    #[test]
    fn no_trailing_newline() {
        let rows = parse_csv("a,1\nb,2").unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[1], vec![Raw::str("b"), Raw::Int(2)]);
    }

    #[test]
    fn quoted_fields_with_commas_and_escapes() {
        let rows = parse_csv("\"New York, NY\",1\n\"say \"\"hi\"\"\",2\n").unwrap();
        assert_eq!(rows[0][0], Raw::str("New York, NY"));
        assert_eq!(rows[1][0], Raw::str("say \"hi\""));
    }

    #[test]
    fn quoted_numbers_stay_strings() {
        let rows = parse_csv("\"416\",416\n").unwrap();
        assert_eq!(rows[0][0], Raw::str("416"));
        assert_eq!(rows[0][1], Raw::Int(416));
    }

    #[test]
    fn crlf_and_blank_lines() {
        let rows = parse_csv("a,1\r\n\r\nb,2\r\n").unwrap();
        assert_eq!(rows.len(), 2);
    }

    #[test]
    fn bare_carriage_return_rejected_with_position() {
        // A CR-only file must not load as the one row `x, 1y, 2`.
        let err = parse_csv("x,1\ry,2\r").unwrap_err();
        assert!(err.message.contains("bare carriage return"));
        assert_eq!((err.line, err.column), (1, Some(4)));
        let err = parse_csv("a,1\n\"é\",b\rc\n").unwrap_err();
        assert_eq!(
            (err.line, err.column),
            (2, Some(6)),
            "columns count characters"
        );
        let mut db = Database::new();
        assert!(matches!(
            db.create_relation_from_csv("r", &[("c", "c")], "a\rb\n", false),
            Err(StoreError::Csv {
                line: 1,
                column: Some(2),
                ..
            })
        ));
        // CRLF line endings and a CR inside quotes stay valid.
        let rows = parse_csv("\"a\rb\",1\r\n").unwrap();
        assert_eq!(rows, vec![vec![Raw::str("a\rb"), Raw::Int(1)]]);
    }

    #[test]
    fn newline_inside_quotes_is_data() {
        let rows = parse_csv("\"two\nlines\",1\n").unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0][0], Raw::str("two\nlines"));
    }

    #[test]
    fn ragged_rows_rejected() {
        let err = parse_csv("a,b\nc\n").unwrap_err();
        assert!(err.message.contains("expected 2 fields"));
        assert_eq!(err.line, 2);
        assert_eq!(err.column, None);
    }

    #[test]
    fn arity_error_reports_physical_start_line() {
        // Row 2 starts on physical line 4: a blank line and a quoted
        // newline both shift physical lines past the row index.
        let err = parse_csv("\"a\nb\",1\n\nc\n").unwrap_err();
        assert!(err.message.contains("expected 2 fields, found 1"));
        assert_eq!(err.line, 4, "line of the short row, not its row index");
    }

    #[test]
    fn unterminated_quote_rejected() {
        let err = parse_csv("\"oops,1\n").unwrap_err();
        assert!(err.message.contains("unterminated"));
        assert_eq!((err.line, err.column), (1, Some(1)), "where it opened");
    }

    #[test]
    fn stray_quote_reports_line_and_column() {
        let err = parse_csv("a,1\nbad\"field,2\n").unwrap_err();
        assert!(err.message.contains("quote inside an unquoted field"));
        assert_eq!((err.line, err.column), (2, Some(4)));
    }

    #[test]
    fn reopened_quote_after_closing_rejected_with_position() {
        // `"x" "` — a second quote once the quoted field already closed.
        let err = parse_csv("\"x\" \"y,1\n").unwrap_err();
        assert!(err.message.contains("quote inside an unquoted field"));
        assert_eq!((err.line, err.column), (1, Some(5)));
    }

    #[test]
    fn invalid_utf8_rejected_with_position() {
        let err = parse_csv_bytes(b"a,1\nb,\xFF2\n").unwrap_err();
        assert!(err.message.contains("invalid UTF-8"));
        assert_eq!((err.line, err.column), (2, Some(3)));
        // And a clean byte stream parses identically to the str path.
        assert_eq!(
            parse_csv_bytes(b"a,1\nb,2\n").unwrap(),
            parse_csv("a,1\nb,2\n").unwrap()
        );
    }

    #[test]
    fn database_loads_csv_with_header() {
        let mut db = Database::new();
        let rel = db
            .create_relation_from_csv(
                "phones",
                &[("city", "city"), ("areacode", "areacode")],
                "city,areacode\nToronto,416\nOshawa,905\n",
                true,
            )
            .unwrap();
        assert_eq!(rel.len(), 2);
        assert_eq!(
            db.class_size("city"),
            2,
            "header skipped before dictionary encoding"
        );
    }

    #[test]
    fn database_csv_errors_are_typed_with_position() {
        let mut db = Database::new();
        let err = db
            .create_relation_from_csv("phones", &[("c", "c")], "ok\nbad\"q\n", false)
            .unwrap_err();
        match err {
            StoreError::Csv {
                relation,
                line,
                column,
                message,
            } => {
                assert_eq!(relation, "phones");
                assert_eq!((line, column), (2, Some(4)));
                assert!(message.contains("quote inside an unquoted field"));
            }
            other => panic!("expected StoreError::Csv, got {other:?}"),
        }
    }

    #[test]
    fn database_loads_csv_bytes_and_rejects_bad_utf8() {
        let mut db = Database::new();
        let rel = db
            .create_relation_from_csv_bytes(
                "phones",
                &[("city", "city"), ("areacode", "areacode")],
                b"city,areacode\nToronto,416\n",
                true,
            )
            .unwrap();
        assert_eq!(rel.len(), 1);
        let err = db
            .create_relation_from_csv_bytes("bad", &[("c", "c")], b"a\n\xFF\n", false)
            .unwrap_err();
        match err {
            StoreError::Csv {
                relation,
                line,
                column,
                message,
            } => {
                assert_eq!(relation, "bad");
                assert_eq!((line, column), (2, Some(1)));
                assert!(message.contains("invalid UTF-8"));
            }
            other => panic!("expected StoreError::Csv, got {other:?}"),
        }
    }

    #[test]
    fn database_rejects_wrong_arity_csv() {
        let mut db = Database::new();
        let err =
            db.create_relation_from_csv("phones", &[("city", "city")], "Toronto,416\n", false);
        assert!(matches!(err, Err(StoreError::ArityMismatch { .. })));
    }
}

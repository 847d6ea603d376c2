//! CSV ingest: the one-pass load (`create_relation_from_csv_bytes`) against
//! the raw-row path (`parse_csv_bytes`, header dropped, then
//! `create_relation`), and the rule that a failed load changes nothing.

use relcheck_relstore::csv::parse_csv_bytes;
use relcheck_relstore::{Database, Raw, StoreError};

const COLUMNS: [(&str, &str); 3] = [("city", "city"), ("code", "code"), ("note", "city")];
const CLASSES: [&str; 3] = ["city", "code", "other"];

/// A database that already holds values of the classes the loads use, so
/// new codes must continue the existing dictionaries.
fn base() -> Database {
    let mut db = Database::new();
    db.create_relation(
        "BASE",
        &[("city", "city"), ("code", "code")],
        vec![
            vec![Raw::str("Toronto"), Raw::Int(416)],
            vec![Raw::str("7"), Raw::Int(-3)],
        ],
    )
    .unwrap();
    db
}

/// The load the one-pass path must agree with.
fn load_via_rows(
    db: &mut Database,
    name: &str,
    doc: &[u8],
    header: bool,
) -> Result<(), StoreError> {
    let mut rows = parse_csv_bytes(doc).map_err(|e| StoreError::Csv {
        relation: name.to_owned(),
        line: e.line,
        column: e.column,
        message: e.message,
    })?;
    if header && !rows.is_empty() {
        rows.remove(0);
    }
    db.create_relation(name, &COLUMNS, rows).map(|_| ())
}

/// Everything a load can change: relation names, dictionary presence,
/// and every dictionary's values in code order.
fn snapshot(db: &Database) -> (Vec<String>, Vec<Option<Vec<Raw>>>) {
    let mut names: Vec<String> = db.relation_names().map(str::to_owned).collect();
    names.sort();
    let dicts = CLASSES
        .iter()
        .map(|&c| {
            db.dict(c)
                .map(|d| (0..d.len() as u32).map(|i| d.decode(i).clone()).collect())
        })
        .collect();
    (names, dicts)
}

/// Load `doc` both ways into fresh copies of [`base`] and compare.
fn check(doc: &[u8], header: bool) -> Result<(), StoreError> {
    let mut one_pass = base();
    let mut via_rows = base();
    let before = snapshot(&one_pass);
    let got = one_pass
        .create_relation_from_csv_bytes("R", &COLUMNS, doc, header)
        .map(|_| ());
    let want = load_via_rows(&mut via_rows, "R", doc, header);
    let doc_text = String::from_utf8_lossy(doc);
    assert_eq!(got, want, "error for {doc_text:?} (header {header})");
    assert_eq!(
        snapshot(&one_pass),
        snapshot(&via_rows),
        "dictionaries for {doc_text:?}"
    );
    if got.is_err() {
        assert_eq!(
            snapshot(&one_pass),
            before,
            "failed load changed the db: {doc_text:?}"
        );
        return got;
    }
    let (a, b) = (one_pass.relation("R")?, via_rows.relation("R")?);
    assert_eq!(
        a.rows().collect::<Vec<_>>(),
        b.rows().collect::<Vec<_>>(),
        "codes and row order for {doc_text:?}"
    );
    for class in CLASSES {
        assert_eq!(one_pass.class_size(class), via_rows.class_size(class));
    }
    assert_eq!(
        one_pass.relation_fingerprint("R")?,
        via_rows.relation_fingerprint("R")?
    );
    got
}

#[test]
fn fixed_corpus_agrees_with_the_raw_row_path() {
    let ok: &[(&[u8], bool)] = &[
        (
            b"\"New York, NY\",212,\"said \"\"hi\"\"\"\nToronto,416,x\n",
            false,
        ),
        (b"a,1,b\r\n\r\nc,2,d\r\n\n", false),
        (b"city,code,note\nToronto,416,\"416\"\n", true),
        (b"city,code,note\n", true),
        (b"city,code\n", true), // header-only: its arity is never checked
        (b"", true),
        (b"\n\r\n\n", false),
        (b"a,1,b\nc,2,d", false),
        (b"x, 7 ,\" 7 \"\nx,+5,-0\nx,-0,0\n", false),
        (b"x,9223372036854775807,y\nx,9223372036854775808,y\n", false),
        (b"x,-9223372036854775809,\"\"\nx,,\n", false),
        (b"a,1,b\na,1,b\nc,2,d\na,1,b\n", false),
        (b"\"two\nlines\",1,\"cr\rinside\"\n", false),
        (b"\"x\" y,1,\"\"z\n", false),
        ("é,1,ü\nToronto,416,é\n".as_bytes(), true),
    ];
    for &(doc, header) in ok {
        check(doc, header).unwrap_or_else(|e| panic!("{doc:?}: {e}"));
    }
    let bad: &[(&[u8], bool)] = &[
        (b"a,1,b\nc,2\n", false),
        (b"a,1\nc,2\n", false),
        (b"h1,h2\na,1\n", true),
        (b"a,1,b\nbad\"q,2,c\n", false),
        (b"\"x\" \"y,1,2\n", false),
        (b"\"oops,1,2\n", false),
        (b"a,1,b\nc,2\nd,3,\"e\n", false), // unterminated beats ragged
        (b"a,1,b\nc,2\nd,3,e\"\n", false), // stray quote beats ragged
        (b"a,1\nb,2,3\n", false),          // ragged beats the schema arity
        (b"x,1,a\ry,2,b\r", false),
        (b"a,1,b\nc,\xFF2,d\n", false),
        (b"a,\"1\nb,\xFF\n", false), // invalid UTF-8 beats everything
        (b"h\"1,h2,h3\na,1,b\n", true),
    ];
    for &(doc, header) in bad {
        assert!(check(doc, header).is_err(), "{doc:?} should fail");
    }
}

#[test]
fn an_error_after_many_valid_rows_rolls_back_every_value() {
    let mut doc = String::from("city,code,note\n");
    for i in 0..5_000 {
        doc.push_str(&format!("city{i},{i},\"n,{}\"\n", i % 7));
    }
    for tail in ["oops\"\n", "a,1\n", "a,1,b\rc\n", "\"open,1,2\n"] {
        let mut d = doc.clone();
        d.push_str(tail);
        assert!(check(d.as_bytes(), true).is_err(), "{tail:?}");
    }
    let mut d = doc.into_bytes();
    d.extend_from_slice(b"x,1,\xC3\n");
    assert!(check(&d, true).is_err());
}

/// SplitMix64: a seeded, dependency-free stream for the generator below.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// Fields drawn from the dialect's corners; the last few are malformed.
const FIELDS: [&[u8]; 24] = [
    b"Toronto",
    b"Oshawa",
    b"416",
    b" 7 ",
    b"+5",
    b"-0",
    b"0",
    b"9223372036854775808",
    b"\"416\"",
    b"\" 7 \"",
    b"\"a,b\"",
    b"\"say \"\"hi\"\"\"",
    b"\"\"",
    b"",
    b"\"two\nlines\"",
    b"\"cr\r\"",
    "é".as_bytes(),
    b"x y",
    b"\"q\" tail",
    b"7",
    b"a\"b",
    b"\xFF",
    b"\"open",
    b"bare\rcr",
];

/// A random document: mostly 3-field rows with repeats, sometimes a
/// ragged row or a malformed field.
fn document(rng: &mut Rng) -> Vec<u8> {
    let mut doc = Vec::new();
    let rows = rng.below(12);
    let mut prev: Vec<u8> = Vec::new();
    for r in 0..rows {
        let mut row = Vec::new();
        if r > 0 && rng.below(4) == 0 {
            row = prev.clone(); // a duplicate row
        } else {
            let arity = if rng.below(20) == 0 {
                2 + rng.below(3)
            } else {
                3
            };
            for f in 0..arity {
                if f > 0 {
                    row.push(b',');
                }
                let pool = if rng.below(15) == 0 {
                    FIELDS.len()
                } else {
                    FIELDS.len() - 4
                };
                row.extend_from_slice(FIELDS[rng.below(pool)]);
            }
        }
        doc.extend_from_slice(&row);
        prev = row;
        let last = r + 1 == rows;
        if !(last && rng.below(3) == 0) {
            doc.extend_from_slice(if rng.below(3) == 0 { b"\r\n" } else { b"\n" });
        }
        if !last && rng.below(6) == 0 {
            doc.extend_from_slice(b"\n");
        }
    }
    doc
}

#[test]
fn seeded_documents_agree_with_the_raw_row_path() {
    let mut rng = Rng(20_070_415);
    let (mut loaded, mut failed) = (0, 0);
    for _ in 0..2_000 {
        let doc = document(&mut rng);
        match check(&doc, rng.below(2) == 0) {
            Ok(()) => loaded += 1,
            Err(_) => failed += 1,
        }
    }
    // The corpus must exercise both outcomes to mean anything.
    assert!(
        loaded > 200 && failed > 200,
        "loaded {loaded}, failed {failed}"
    );
}

#[test]
fn failed_loads_leave_the_database_unchanged() {
    let failures: &[&[u8]] = &[
        b"Ottawa,613,x\nbad\"q,1,2\n",
        b"Ottawa,613,x\nHull,819\n",
        b"Ottawa,613\nHull,819\n",
        b"Ottawa,613,x\rHull,819,y\n",
        b"Ottawa,613,x\n\xFF\n",
    ];
    for &doc in failures {
        let mut db = base();
        let before = snapshot(&db);
        let sizes: Vec<u64> = CLASSES.iter().map(|c| db.class_size(c)).collect();
        assert!(db
            .create_relation_from_csv_bytes("R", &COLUMNS, doc, false)
            .is_err());
        assert_eq!(snapshot(&db), before, "{doc:?}");
        let after: Vec<u64> = CLASSES.iter().map(|c| db.class_size(c)).collect();
        assert_eq!(after, sizes);
        assert!(db.relation("R").is_err());
    }
    // A class the failed load would have created stays absent.
    let mut fresh = Database::new();
    assert!(fresh
        .create_relation_from_csv_bytes("R", &[("a", "new"), ("b", "new2")], b"x,1\ny\n", false)
        .is_err());
    assert!(fresh.dict("new").is_none() && fresh.dict("new2").is_none());
    assert_eq!(fresh.relation_names().count(), 0);
    // A name already taken fails after the whole document was read, and
    // rolls back what the read interned.
    let mut db = base();
    let before = snapshot(&db);
    let err = db
        .create_relation_from_csv_bytes(
            "BASE",
            &[("city", "city"), ("code", "code")],
            b"Hull,819\n",
            false,
        )
        .unwrap_err();
    assert_eq!(err, StoreError::DuplicateRelation("BASE".to_owned()));
    assert_eq!(snapshot(&db), before);
}

#[test]
fn header_values_are_never_interned() {
    let mut db = base();
    db.create_relation_from_csv_bytes(
        "R",
        &COLUMNS,
        b"HeaderCity,9999,HeaderNote\nOttawa,613,x\n",
        true,
    )
    .unwrap();
    assert_eq!(db.code("city", &Raw::str("HeaderCity")), None);
    assert_eq!(db.code("city", &Raw::str("HeaderNote")), None);
    assert_eq!(db.code("code", &Raw::Int(9999)), None);
    assert!(db.code("city", &Raw::str("Ottawa")).is_some());
    // A header-only document creates an empty relation and no class.
    db.create_relation_from_csv_bytes("H", &[("h", "other")], b"h\n", true)
        .unwrap();
    assert_eq!(db.relation("H").unwrap().len(), 0);
    assert!(db.dict("other").is_none());
}

//! The database catalog: named relations plus per-class dictionaries.

use crate::error::{Result, StoreError};
use crate::relation::{Relation, Schema};
use crate::value::{Dict, Raw};
use std::collections::HashMap;

/// The class dictionaries of one relation, taken out of the catalog while
/// a load interns into them (see [`Database::load`]).
pub(crate) struct Staged {
    classes: Vec<StagedClass>,
    /// Index into `classes` of each column's class.
    slot: Vec<usize>,
}

struct StagedClass {
    class: String,
    dict: Dict,
    /// The dictionary's size before the load, to roll back to.
    len_before: usize,
    /// Whether the catalog had the dictionary before the load.
    existed: bool,
}

impl Staged {
    /// The dictionary of column `col`'s class.
    pub(crate) fn dict(&mut self, col: usize) -> &mut Dict {
        &mut self.classes[self.slot[col]].dict
    }
}

/// A collection of named [`Relation`]s sharing attribute-class
/// dictionaries. All raw values enter through [`Database::create_relation`]
/// (or [`Database::encode_value`]), which keeps codes consistent across
/// every column of a class.
///
/// `Clone` is cheap relative to index construction (columnar `Vec`s and
/// dictionaries) and is what lets the parallel checker hand each worker its
/// own copy of the data without sharing mutable state.
#[derive(Debug, Clone, Default)]
pub struct Database {
    dicts: HashMap<String, Dict>,
    relations: HashMap<String, Relation>,
}

impl Database {
    /// An empty database.
    pub fn new() -> Database {
        Database::default()
    }

    /// Create a relation from raw rows. Columns are `(name, class)` pairs;
    /// raw values are interned into the class dictionaries.
    pub fn create_relation(
        &mut self,
        name: &str,
        columns: &[(&str, &str)],
        rows: Vec<Vec<Raw>>,
    ) -> Result<&Relation> {
        if self.relations.contains_key(name) {
            return Err(StoreError::DuplicateRelation(name.to_owned()));
        }
        let schema = Schema::new(columns);
        let arity = schema.arity();
        self.load(name, schema, |staged, flat| {
            for row in &rows {
                if row.len() != arity {
                    return Err(StoreError::ArityMismatch {
                        expected: arity,
                        got: row.len(),
                    });
                }
                for (i, v) in row.iter().enumerate() {
                    flat.push(staged.dict(i).encode(v));
                }
            }
            Ok(rows.len())
        })
    }

    /// Create relation `name` from the rows `encode` interns into the
    /// staged class dictionaries and appends to a flat buffer, one code per
    /// column; `encode` returns the row count. The load is atomic: on any
    /// error, `name` taken included, every dictionary is as it was before.
    pub(crate) fn load(
        &mut self,
        name: &str,
        schema: Schema,
        encode: impl FnOnce(&mut Staged, &mut Vec<u32>) -> Result<usize>,
    ) -> Result<&Relation> {
        let mut staged = self.stage(&schema);
        let mut flat = Vec::new();
        let encoded = encode(&mut staged, &mut flat).and_then(|n| {
            if self.relations.contains_key(name) {
                Err(StoreError::DuplicateRelation(name.to_owned()))
            } else {
                Ok(n)
            }
        });
        self.unstage(staged, encoded.is_ok());
        let rel = Relation::from_flat(schema, &flat, encoded?);
        Ok(self.relations.entry(name.to_owned()).or_insert(rel))
    }

    /// Take the dictionaries of `schema`'s classes out of the catalog,
    /// resolving each column's class once.
    fn stage(&mut self, schema: &Schema) -> Staged {
        let mut staged = Staged {
            classes: Vec::new(),
            slot: Vec::with_capacity(schema.arity()),
        };
        for col in schema.columns() {
            let slot = match staged.classes.iter().position(|c| c.class == col.class) {
                Some(slot) => slot,
                None => {
                    let taken = self.dicts.remove(&col.class);
                    let existed = taken.is_some();
                    let dict = taken.unwrap_or_default();
                    staged.classes.push(StagedClass {
                        class: col.class.clone(),
                        len_before: dict.len(),
                        dict,
                        existed,
                    });
                    staged.classes.len() - 1
                }
            };
            staged.slot.push(slot);
        }
        staged
    }

    /// Put staged dictionaries back: with what the load interned when
    /// `keep` is set, as they were otherwise. A class the catalog did not
    /// have comes back only if it gained a value, as when values are
    /// interned one by one.
    fn unstage(&mut self, staged: Staged, keep: bool) {
        for mut c in staged.classes {
            if !keep {
                c.dict.truncate(c.len_before);
            }
            if c.existed || !c.dict.is_empty() {
                self.dicts.insert(c.class, c.dict);
            }
        }
    }

    /// Register an already-encoded relation. The caller is responsible for
    /// having encoded its codes through this database's dictionaries (e.g.
    /// synthetic generators that mint integer codes directly should also
    /// pre-size the dictionaries via [`Database::ensure_class_size`]).
    pub fn insert_relation(&mut self, name: &str, rel: Relation) -> Result<()> {
        if self.relations.contains_key(name) {
            return Err(StoreError::DuplicateRelation(name.to_owned()));
        }
        self.relations.insert(name.to_owned(), rel);
        Ok(())
    }

    /// Replace or insert a relation unconditionally.
    pub fn put_relation(&mut self, name: &str, rel: Relation) {
        self.relations.insert(name.to_owned(), rel);
    }

    /// Look up a relation.
    pub fn relation(&self, name: &str) -> Result<&Relation> {
        self.relations
            .get(name)
            .ok_or_else(|| StoreError::UnknownRelation(name.to_owned()))
    }

    /// Mutable access to a relation.
    pub fn relation_mut(&mut self, name: &str) -> Result<&mut Relation> {
        self.relations
            .get_mut(name)
            .ok_or_else(|| StoreError::UnknownRelation(name.to_owned()))
    }

    /// Names of all relations (unordered).
    pub fn relation_names(&self) -> impl Iterator<Item = &str> {
        self.relations.keys().map(String::as_str)
    }

    /// The dictionary for an attribute class, if it exists.
    pub fn dict(&self, class: &str) -> Option<&Dict> {
        self.dicts.get(class)
    }

    /// Intern a raw value into a class dictionary.
    pub fn encode_value(&mut self, class: &str, v: &Raw) -> u32 {
        self.dicts.entry(class.to_owned()).or_default().encode(v)
    }

    /// Code of a raw value if already interned.
    pub fn code(&self, class: &str, v: &Raw) -> Option<u32> {
        self.dicts.get(class).and_then(|d| d.code(v))
    }

    /// Active-domain size of a class (0 if the class is unknown). This is
    /// the `|dom|` that sizes the BDD finite-domain block for the class.
    pub fn class_size(&self, class: &str) -> u64 {
        self.dicts.get(class).map_or(0, |d| d.len() as u64)
    }

    /// Make sure a class dictionary has at least `size` codes by interning
    /// the integers `0..size` that are not yet present. Synthetic generators
    /// that mint dense integer codes use this to keep `code == value`.
    pub fn ensure_class_size(&mut self, class: &str, size: u64) {
        let dict = self.dicts.entry(class.to_owned()).or_default();
        for v in 0..size as i64 {
            dict.encode_int(v);
        }
    }

    /// A 64-bit fingerprint of everything a relation's logical index
    /// depends on: arity, column names and classes, the *current size* of
    /// each referenced class dictionary (which fixes the BDD block widths),
    /// row count, and the full columnar code matrix. Order-dependent and
    /// deterministic, so the same spec loading the same CSV bytes always
    /// fingerprints identically — and a changed CSV (or a changed sibling
    /// that grew a shared class dictionary) changes the fingerprint. The
    /// persistent index store records this next to each cached segment to
    /// detect stale caches.
    pub fn relation_fingerprint(&self, name: &str) -> Result<u64> {
        fn mix(state: u64, v: u64) -> u64 {
            // SplitMix64 finalizer over a running combine: cheap, good
            // avalanche, and std-only.
            let mut z = state
                .rotate_left(7)
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(v);
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
        fn mix_str(state: u64, s: &str) -> u64 {
            let mut h = mix(state, s.len() as u64);
            for chunk in s.as_bytes().chunks(8) {
                let mut buf = [0u8; 8];
                buf[..chunk.len()].copy_from_slice(chunk);
                h = mix(h, u64::from_le_bytes(buf));
            }
            h
        }
        fn mix_raw(state: u64, v: &Raw) -> u64 {
            match v {
                Raw::Int(i) => mix(mix(state, 1), *i as u64),
                Raw::Str(s) => mix_str(mix(state, 2), s),
            }
        }
        let rel = self.relation(name)?;
        let schema = rel.schema();
        let mut h = mix_str(0x5EED_1DE0_F1D0_0001, name);
        h = mix(h, schema.arity() as u64);
        for col in schema.columns() {
            h = mix_str(h, &col.name);
            h = mix_str(h, &col.class);
            let size = self.class_size(&col.class);
            h = mix(h, size);
            // The raw↔code mapping, in code order: a renamed value that
            // happens to land on the same code must still change the print.
            if let Some(dict) = self.dict(&col.class) {
                for code in 0..size as u32 {
                    h = mix_raw(h, dict.decode(code));
                }
            }
        }
        h = mix(h, rel.len() as u64);
        for i in 0..schema.arity() {
            for &code in rel.col(i) {
                h = mix(h, code as u64);
            }
        }
        Ok(h)
    }

    /// Decode one row of a relation back to raw values (for reporting
    /// violating tuples).
    pub fn decode_row(&self, rel: &Relation, row: &[u32]) -> Vec<Raw> {
        row.iter()
            .enumerate()
            .map(|(i, &c)| self.dicts[rel.schema().class_of(i)].decode(c).clone())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn create_relation_interns_values() {
        let mut db = Database::new();
        db.create_relation(
            "r",
            &[("city", "city"), ("state", "state")],
            vec![
                vec![Raw::str("Toronto"), Raw::str("ON")],
                vec![Raw::str("Oshawa"), Raw::str("ON")],
            ],
        )
        .unwrap();
        assert_eq!(db.class_size("city"), 2);
        assert_eq!(db.class_size("state"), 1);
        assert_eq!(db.relation("r").unwrap().len(), 2);
    }

    #[test]
    fn classes_are_shared_across_relations() {
        let mut db = Database::new();
        db.create_relation("r1", &[("c", "city")], vec![vec![Raw::str("Toronto")]])
            .unwrap();
        db.create_relation(
            "r2",
            &[("home", "city")],
            vec![vec![Raw::str("Toronto")], vec![Raw::str("Ottawa")]],
        )
        .unwrap();
        // Same raw value gets the same code in both relations.
        let c1 = db.relation("r1").unwrap().col(0)[0];
        let codes2 = db.relation("r2").unwrap().col(0).to_vec();
        assert!(codes2.contains(&c1));
        assert_eq!(db.class_size("city"), 2);
    }

    #[test]
    fn duplicate_relation_rejected() {
        let mut db = Database::new();
        db.create_relation("r", &[("a", "ca")], vec![]).unwrap();
        assert!(matches!(
            db.create_relation("r", &[("a", "ca")], vec![]),
            Err(StoreError::DuplicateRelation(_))
        ));
    }

    #[test]
    fn unknown_relation_error() {
        let db = Database::new();
        assert!(matches!(
            db.relation("nope"),
            Err(StoreError::UnknownRelation(_))
        ));
    }

    #[test]
    fn ensure_class_size_mints_dense_codes() {
        let mut db = Database::new();
        db.ensure_class_size("k", 5);
        assert_eq!(db.class_size("k"), 5);
        assert_eq!(db.code("k", &Raw::Int(3)), Some(3));
    }

    #[test]
    fn fingerprint_is_deterministic_and_content_sensitive() {
        let build = |rows: Vec<Vec<Raw>>| {
            let mut db = Database::new();
            db.create_relation("r", &[("city", "city"), ("st", "state")], rows)
                .unwrap();
            db.relation_fingerprint("r").unwrap()
        };
        let rows = || {
            vec![
                vec![Raw::str("Toronto"), Raw::str("ON")],
                vec![Raw::str("Oshawa"), Raw::str("ON")],
            ]
        };
        assert_eq!(build(rows()), build(rows()), "same content, same print");
        let mut changed = rows();
        changed[1][0] = Raw::str("Ottawa");
        assert_ne!(build(rows()), build(changed), "changed cell changes print");
        let mut shorter = rows();
        shorter.pop();
        assert_ne!(build(rows()), build(shorter), "row count changes print");
        assert!(
            Database::new().relation_fingerprint("r").is_err(),
            "unknown relation is a typed error"
        );
    }

    #[test]
    fn fingerprint_sees_sibling_growing_a_shared_class() {
        // A sibling relation interning new values into a shared class
        // changes the class's domain size — and therefore the BDD block
        // width — so the fingerprint must change even though this
        // relation's own rows did not.
        let mut db = Database::new();
        db.create_relation("r", &[("c", "city")], vec![vec![Raw::str("Toronto")]])
            .unwrap();
        let before = db.relation_fingerprint("r").unwrap();
        db.create_relation("s", &[("c", "city")], vec![vec![Raw::str("Ottawa")]])
            .unwrap();
        let after = db.relation_fingerprint("r").unwrap();
        assert_ne!(before, after);
    }

    #[test]
    fn decode_row_round_trips() {
        let mut db = Database::new();
        db.create_relation(
            "r",
            &[("city", "city"), ("ac", "areacode")],
            vec![vec![Raw::str("Toronto"), Raw::Int(416)]],
        )
        .unwrap();
        let rel = db.relation("r").unwrap();
        let row = rel.row(0);
        let rel_clone = rel.clone();
        assert_eq!(
            db.decode_row(&rel_clone, &row),
            vec![Raw::str("Toronto"), Raw::Int(416)]
        );
    }
}

//! Dictionary-encoded columnar relations with set semantics.
//!
//! A [`Relation`] stores `u32` dictionary codes column-by-column. Rows are
//! deduplicated at construction (a relation is a *set* of tuples, matching
//! the BDD characteristic-function semantics). Mutation (`insert`/`delete`)
//! lazily builds a row index so the paper's incremental-maintenance
//! experiments (Figure 4(b)) run against both representations.

use crate::error::{Result, StoreError};
use crate::hash::CodeSet;
use std::collections::HashSet;

/// A column declaration: name plus the attribute class whose dictionary the
/// column's values are encoded with.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Column {
    /// Column name, unique within the schema.
    pub name: String,
    /// Attribute class (dictionary) name.
    pub class: String,
}

/// An ordered list of columns.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Schema {
    cols: Vec<Column>,
}

impl Schema {
    /// Build a schema from `(name, class)` pairs.
    pub fn new(cols: &[(&str, &str)]) -> Schema {
        Schema {
            cols: cols
                .iter()
                .map(|&(n, c)| Column {
                    name: n.to_owned(),
                    class: c.to_owned(),
                })
                .collect(),
        }
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.cols.len()
    }

    /// The columns in order.
    pub fn columns(&self) -> &[Column] {
        &self.cols
    }

    /// Index of the column with the given name.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.cols.iter().position(|c| c.name == name)
    }

    /// Class of column `i`.
    pub fn class_of(&self, i: usize) -> &str {
        &self.cols[i].class
    }

    /// A schema with the listed columns only (projection).
    pub fn project(&self, indices: &[usize]) -> Schema {
        Schema {
            cols: indices.iter().map(|&i| self.cols[i].clone()).collect(),
        }
    }

    /// Concatenation of two schemas (join/product output). Name clashes are
    /// disambiguated with a `.r` suffix on the right side.
    pub fn concat(&self, other: &Schema) -> Schema {
        let mut cols = self.cols.clone();
        for c in &other.cols {
            let name = if self.index_of(&c.name).is_some() {
                format!("{}.r", c.name)
            } else {
                c.name.clone()
            };
            cols.push(Column {
                name,
                class: c.class.clone(),
            });
        }
        Schema { cols }
    }
}

/// A set of tuples over a [`Schema`], stored columnar as dictionary codes.
#[derive(Debug, Clone, Default)]
pub struct Relation {
    schema: Schema,
    cols: Vec<Vec<u32>>,
    len: usize,
    /// Lazily built row index for membership/mutation.
    index: Option<HashSet<Vec<u32>>>,
}

impl Relation {
    /// An empty relation over the schema.
    pub fn new(schema: Schema) -> Relation {
        let arity = schema.arity();
        Relation {
            schema,
            cols: vec![Vec::new(); arity],
            len: 0,
            index: None,
        }
    }

    /// Build from coded rows, deduplicating (set semantics).
    pub fn from_rows(schema: Schema, rows: impl IntoIterator<Item = Vec<u32>>) -> Result<Relation> {
        let arity = schema.arity();
        let rows = rows.into_iter();
        let mut flat = Vec::with_capacity(rows.size_hint().0 * arity);
        let mut n = 0;
        for row in rows {
            if row.len() != arity {
                return Err(StoreError::ArityMismatch {
                    expected: arity,
                    got: row.len(),
                });
            }
            flat.extend_from_slice(&row);
            n += 1;
        }
        Ok(Relation::from_flat(schema, &flat, n))
    }

    /// Build from `n` coded rows laid end to end in `flat` (`arity` codes
    /// each), keeping the first occurrence of every row in input order.
    /// The dedup hashes row slices of the buffer, so no row is copied
    /// before it is known to be new.
    pub(crate) fn from_flat(schema: Schema, flat: &[u32], n: usize) -> Relation {
        let arity = schema.arity();
        let mut rel = Relation::new(schema);
        if arity == 0 {
            // Every row is the empty tuple.
            rel.len = n.min(1);
            return rel;
        }
        debug_assert_eq!(flat.len(), n * arity);
        let mut seen: CodeSet<&[u32]> = CodeSet::with_capacity_and_hasher(n, Default::default());
        for row in flat.chunks_exact(arity) {
            if seen.insert(row) {
                rel.push_unchecked(row);
            }
        }
        rel
    }

    /// The rows at the positions `keep` accepts, in order, copied column by
    /// column. A subset of a set is a set, so unlike
    /// [`Relation::from_rows`] this needs no dedup pass and materializes no
    /// row — the fast path of every filtering operator.
    pub(crate) fn retain_rows(&self, mut keep: impl FnMut(usize) -> bool) -> Relation {
        let at: Vec<usize> = (0..self.len).filter(|&i| keep(i)).collect();
        Relation {
            schema: self.schema.clone(),
            cols: self
                .cols
                .iter()
                .map(|c| at.iter().map(|&i| c[i]).collect())
                .collect(),
            len: at.len(),
            index: None,
        }
    }

    /// Row `i` of `left` followed by row `j` of `right`, for every listed
    /// `(i, j)`, over the concatenated schema. Distinct pairs of rows of
    /// two sets give distinct rows, so this needs no dedup pass either.
    pub(crate) fn concat_rows(
        left: &Relation,
        right: &Relation,
        pairs: &[(usize, usize)],
    ) -> Relation {
        let lcols = left
            .cols
            .iter()
            .map(|c| pairs.iter().map(|&(i, _)| c[i]).collect());
        let rcols = right
            .cols
            .iter()
            .map(|c| pairs.iter().map(|&(_, j)| c[j]).collect());
        Relation {
            schema: left.schema.concat(&right.schema),
            cols: lcols.chain(rcols).collect(),
            len: pairs.len(),
            index: None,
        }
    }

    fn push_unchecked(&mut self, row: &[u32]) {
        for (col, &v) in self.cols.iter_mut().zip(row) {
            col.push(v);
        }
        self.len += 1;
    }

    /// The relation's schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of tuples.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if there are no tuples.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.schema.arity()
    }

    /// The codes of column `i`.
    pub fn col(&self, i: usize) -> &[u32] {
        &self.cols[i]
    }

    /// Materialize row `i`.
    pub fn row(&self, i: usize) -> Vec<u32> {
        self.cols.iter().map(|c| c[i]).collect()
    }

    /// Iterate over all rows (materializing each).
    pub fn rows(&self) -> impl Iterator<Item = Vec<u32>> + '_ {
        (0..self.len).map(move |i| self.row(i))
    }

    /// Distinct codes appearing in column `i` (the column's own active
    /// domain, which can be smaller than its class dictionary).
    pub fn distinct(&self, i: usize) -> usize {
        let set: HashSet<u32> = self.cols[i].iter().copied().collect();
        set.len()
    }

    fn ensure_index(&mut self) {
        if self.index.is_none() {
            self.index = Some(self.rows().collect());
        }
    }

    /// Membership test (builds the row index on first use).
    pub fn contains(&mut self, row: &[u32]) -> bool {
        self.ensure_index();
        self.index.as_ref().unwrap().contains(row)
    }

    /// Insert a tuple; returns false if it was already present.
    pub fn insert(&mut self, row: &[u32]) -> Result<bool> {
        if row.len() != self.schema.arity() {
            return Err(StoreError::ArityMismatch {
                expected: self.schema.arity(),
                got: row.len(),
            });
        }
        self.ensure_index();
        if !self.index.as_mut().unwrap().insert(row.to_vec()) {
            return Ok(false);
        }
        self.push_unchecked(row);
        Ok(true)
    }

    /// Delete a tuple; returns false if it was absent. O(n) on hit (the
    /// columnar store swap-removes the row).
    pub fn delete(&mut self, row: &[u32]) -> Result<bool> {
        if row.len() != self.schema.arity() {
            return Err(StoreError::ArityMismatch {
                expected: self.schema.arity(),
                got: row.len(),
            });
        }
        self.ensure_index();
        if !self.index.as_mut().unwrap().remove(row) {
            return Ok(false);
        }
        let pos = (0..self.len)
            .find(|&i| self.cols.iter().zip(row).all(|(c, &v)| c[i] == v))
            .expect("index said the row exists");
        for c in &mut self.cols {
            c.swap_remove(pos);
        }
        self.len -= 1;
        Ok(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema2() -> Schema {
        Schema::new(&[("a", "ca"), ("b", "cb")])
    }

    #[test]
    fn schema_lookup() {
        let s = schema2();
        assert_eq!(s.arity(), 2);
        assert_eq!(s.index_of("b"), Some(1));
        assert_eq!(s.index_of("z"), None);
        assert_eq!(s.class_of(0), "ca");
    }

    #[test]
    fn schema_project_and_concat() {
        let s = schema2();
        let p = s.project(&[1]);
        assert_eq!(p.columns()[0].name, "b");
        let c = s.concat(&schema2());
        assert_eq!(c.arity(), 4);
        assert_eq!(c.columns()[2].name, "a.r", "clashing names disambiguated");
    }

    #[test]
    fn retain_and_concat_keep_rows_in_order() {
        let r = Relation::from_rows(schema2(), vec![vec![1, 2], vec![3, 4], vec![5, 6]]).unwrap();
        let kept = r.retain_rows(|i| i != 1);
        assert_eq!(kept.rows().collect::<Vec<_>>(), [vec![1, 2], vec![5, 6]]);
        let joined = Relation::concat_rows(&r, &kept, &[(2, 0), (0, 1)]);
        assert_eq!(joined.arity(), 4);
        assert_eq!(
            joined.rows().collect::<Vec<_>>(),
            [vec![5, 6, 1, 2], vec![1, 2, 5, 6]]
        );
    }

    #[test]
    fn from_rows_dedupes() {
        let r = Relation::from_rows(schema2(), vec![vec![1, 2], vec![1, 2], vec![3, 4]]).unwrap();
        assert_eq!(r.len(), 2);
        assert_eq!(r.col(0), &[1, 3]);
    }

    #[test]
    fn from_rows_rejects_bad_arity() {
        assert!(matches!(
            Relation::from_rows(schema2(), vec![vec![1]]),
            Err(StoreError::ArityMismatch {
                expected: 2,
                got: 1
            })
        ));
    }

    #[test]
    fn insert_and_delete() {
        let mut r = Relation::new(schema2());
        assert!(r.insert(&[1, 2]).unwrap());
        assert!(!r.insert(&[1, 2]).unwrap());
        assert!(r.insert(&[5, 6]).unwrap());
        assert_eq!(r.len(), 2);
        assert!(r.contains(&[1, 2]));
        assert!(r.delete(&[1, 2]).unwrap());
        assert!(!r.delete(&[1, 2]).unwrap());
        assert!(!r.contains(&[1, 2]));
        assert_eq!(r.len(), 1);
        assert_eq!(r.row(0), vec![5, 6]);
    }

    #[test]
    fn distinct_counts_column_values() {
        let r = Relation::from_rows(schema2(), vec![vec![1, 9], vec![2, 9], vec![1, 8]]).unwrap();
        assert_eq!(r.distinct(0), 2);
        assert_eq!(r.distinct(1), 2);
    }

    #[test]
    fn rows_iterates_in_storage_order() {
        let r = Relation::from_rows(schema2(), vec![vec![1, 2], vec![3, 4]]).unwrap();
        let rows: Vec<Vec<u32>> = r.rows().collect();
        assert_eq!(rows, vec![vec![1, 2], vec![3, 4]]);
    }
}

//! Relational algebra operators over [`Relation`]s.
//!
//! These hash-based operators are what the paper's "SQL approach" compiles
//! to: selections, projections, equi-joins, anti-joins (`NOT EXISTS`),
//! unions/differences/products, and the group-by style functional-dependency
//! check used for `areacode → state` (Figure 5(b)).
//!
//! The keyed operators (join, semi/anti-join, difference, FD check) gather
//! each input's key columns once into a flat row-major buffer and hash
//! `&[u32]` slices of it with an FxHash-style hasher, so no row allocates
//! a key and no key pays for SipHash. Matching rows come out in the same
//! order as from a per-row `Vec` key table.

use crate::error::{Result, StoreError};
use crate::hash::{CodeMap, CodeSet};
use crate::relation::Relation;
use std::collections::HashSet;

/// σ: rows whose column `col` equals `code`.
pub fn select_eq(rel: &Relation, col: usize, code: u32) -> Result<Relation> {
    check_col(rel, col)?;
    let c = rel.col(col);
    Ok(rel.retain_rows(|i| c[i] == code))
}

/// σ: rows whose column `col` is in `codes`.
pub fn select_in(rel: &Relation, col: usize, codes: &HashSet<u32>) -> Result<Relation> {
    check_col(rel, col)?;
    let c = rel.col(col);
    Ok(rel.retain_rows(|i| codes.contains(&c[i])))
}

/// π: project onto the listed columns, deduplicating.
pub fn project(rel: &Relation, cols: &[usize]) -> Result<Relation> {
    for &c in cols {
        check_col(rel, c)?;
    }
    let mut flat = Vec::with_capacity(rel.len() * cols.len());
    push_rows(rel, cols, &mut flat);
    Ok(Relation::from_flat(
        rel.schema().project(cols),
        &flat,
        rel.len(),
    ))
}

/// Append every row of `rel`, restricted to `cols`, to a flat row buffer.
fn push_rows(rel: &Relation, cols: &[usize], flat: &mut Vec<u32>) {
    let cols: Vec<&[u32]> = cols.iter().map(|&c| rel.col(c)).collect();
    for i in 0..rel.len() {
        flat.extend(cols.iter().map(|c| c[i]));
    }
}

/// The key columns of every row of a relation, gathered once into one
/// row-major buffer: row `i`'s key is the `i`-th slice of `width` codes.
struct Keys {
    flat: Vec<u32>,
    width: usize,
}

impl Keys {
    fn gather(rel: &Relation, cols: &[usize]) -> Keys {
        let mut flat = Vec::with_capacity(rel.len() * cols.len());
        push_rows(rel, cols, &mut flat);
        Keys {
            flat,
            width: cols.len(),
        }
    }

    #[inline]
    fn row(&self, i: usize) -> &[u32] {
        &self.flat[i * self.width..(i + 1) * self.width]
    }
}

/// End of a [`equi_join`] row chain.
const END: usize = usize::MAX;

/// ⋈: hash equi-join on the given `(left_col, right_col)` pairs. The output
/// schema is the concatenation of both inputs. The smaller side is used as
/// the build side.
pub fn equi_join(left: &Relation, right: &Relation, pairs: &[(usize, usize)]) -> Result<Relation> {
    for &(l, r) in pairs {
        check_col(left, l)?;
        check_col(right, r)?;
        let (lc, rc) = (left.schema().class_of(l), right.schema().class_of(r));
        if lc != rc {
            return Err(StoreError::ClassMismatch {
                left: lc.to_owned(),
                right: rc.to_owned(),
            });
        }
    }
    // Build on the smaller input to bound the hash table.
    let (build, probe, build_is_left) = if left.len() <= right.len() {
        (left, right, true)
    } else {
        (right, left, false)
    };
    let (build_cols, probe_cols): (Vec<usize>, Vec<usize>) = pairs
        .iter()
        .map(|&(l, r)| if build_is_left { (l, r) } else { (r, l) })
        .unzip();
    let (bk, pk) = (
        Keys::gather(build, &build_cols),
        Keys::gather(probe, &probe_cols),
    );
    // The table maps a key to its first build row; `next` chains the rows
    // of one key in ascending order.
    let mut first: CodeMap<&[u32], usize> =
        CodeMap::with_capacity_and_hasher(build.len(), Default::default());
    let mut next = vec![END; build.len()];
    for i in (0..build.len()).rev() {
        if let Some(later) = first.insert(bk.row(i), i) {
            next[i] = later;
        }
    }
    let mut matched = Vec::new();
    for j in 0..probe.len() {
        let mut i = first.get(pk.row(j)).copied().unwrap_or(END);
        while i != END {
            matched.push(if build_is_left { (i, j) } else { (j, i) });
            i = next[i];
        }
    }
    Ok(Relation::concat_rows(left, right, &matched))
}

/// ⋉: rows of `left` that have at least one join partner in `right`.
pub fn semi_join(left: &Relation, right: &Relation, pairs: &[(usize, usize)]) -> Result<Relation> {
    join_filter(left, right, pairs, true)
}

/// ▷: rows of `left` with **no** join partner in `right` — the `NOT EXISTS`
/// of the paper's violation queries.
pub fn anti_join(left: &Relation, right: &Relation, pairs: &[(usize, usize)]) -> Result<Relation> {
    join_filter(left, right, pairs, false)
}

fn join_filter(
    left: &Relation,
    right: &Relation,
    pairs: &[(usize, usize)],
    keep_matching: bool,
) -> Result<Relation> {
    for &(l, r) in pairs {
        check_col(left, l)?;
        check_col(right, r)?;
        let (lc, rc) = (left.schema().class_of(l), right.schema().class_of(r));
        if lc != rc {
            return Err(StoreError::ClassMismatch {
                left: lc.to_owned(),
                right: rc.to_owned(),
            });
        }
    }
    let (lcols, rcols): (Vec<usize>, Vec<usize>) = pairs.iter().copied().unzip();
    let (lk, rk) = (Keys::gather(left, &lcols), Keys::gather(right, &rcols));
    let keys: CodeSet<&[u32]> = (0..right.len()).map(|i| rk.row(i)).collect();
    Ok(left.retain_rows(|i| keys.contains(lk.row(i)) == keep_matching))
}

/// ∪: set union (schemas must have equal arity; the left schema wins).
pub fn union(left: &Relation, right: &Relation) -> Result<Relation> {
    if left.arity() != right.arity() {
        return Err(StoreError::ArityMismatch {
            expected: left.arity(),
            got: right.arity(),
        });
    }
    let all: Vec<usize> = (0..left.arity()).collect();
    let mut flat = Vec::with_capacity((left.len() + right.len()) * all.len());
    push_rows(left, &all, &mut flat);
    push_rows(right, &all, &mut flat);
    Ok(Relation::from_flat(
        left.schema().clone(),
        &flat,
        left.len() + right.len(),
    ))
}

/// −: set difference.
pub fn difference(left: &Relation, right: &Relation) -> Result<Relation> {
    if left.arity() != right.arity() {
        return Err(StoreError::ArityMismatch {
            expected: left.arity(),
            got: right.arity(),
        });
    }
    let all: Vec<usize> = (0..left.arity()).collect();
    let (lk, rk) = (Keys::gather(left, &all), Keys::gather(right, &all));
    let rset: CodeSet<&[u32]> = (0..right.len()).map(|i| rk.row(i)).collect();
    Ok(left.retain_rows(|i| !rset.contains(lk.row(i))))
}

/// ×: Cartesian product.
pub fn product(left: &Relation, right: &Relation) -> Result<Relation> {
    let all: Vec<(usize, usize)> = (0..left.len())
        .flat_map(|i| (0..right.len()).map(move |j| (i, j)))
        .collect();
    Ok(Relation::concat_rows(left, right, &all))
}

/// The rows violating the functional dependency `lhs → rhs`: every row whose
/// `lhs` group maps to more than one distinct `rhs` value. This is the SQL
/// group-by/having formulation the paper benchmarks in Figure 5(b).
pub fn fd_violations(rel: &Relation, lhs: &[usize], rhs: &[usize]) -> Result<Relation> {
    for &c in lhs.iter().chain(rhs) {
        check_col(rel, c)?;
    }
    let (lk, rk) = (Keys::gather(rel, lhs), Keys::gather(rel, rhs));
    // A row's group is the first row with its lhs key; the group is bad
    // once one of its rows disagrees with that first row's rhs.
    let mut first: CodeMap<&[u32], usize> =
        CodeMap::with_capacity_and_hasher(rel.len(), Default::default());
    let mut group = Vec::with_capacity(rel.len());
    let mut bad = vec![false; rel.len()];
    for i in 0..rel.len() {
        let g = *first.entry(lk.row(i)).or_insert(i);
        if rk.row(g) != rk.row(i) {
            bad[g] = true;
        }
        group.push(g);
    }
    Ok(rel.retain_rows(|i| bad[group[i]]))
}

fn check_col(rel: &Relation, col: usize) -> Result<()> {
    if col >= rel.arity() {
        Err(StoreError::ColumnOutOfRange {
            index: col,
            arity: rel.arity(),
        })
    } else {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::relation::Schema;

    fn rel(rows: Vec<Vec<u32>>) -> Relation {
        Relation::from_rows(Schema::new(&[("a", "k"), ("b", "k")]), rows).unwrap()
    }

    #[test]
    fn select_eq_filters() {
        let r = rel(vec![vec![1, 2], vec![1, 3], vec![2, 2]]);
        let s = select_eq(&r, 0, 1).unwrap();
        assert_eq!(s.len(), 2);
        assert!(s.rows().all(|row| row[0] == 1));
    }

    #[test]
    fn select_in_filters() {
        let r = rel(vec![vec![1, 2], vec![5, 3], vec![9, 2]]);
        let codes: HashSet<u32> = [1, 9].into_iter().collect();
        let s = select_in(&r, 0, &codes).unwrap();
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn project_dedupes() {
        let r = rel(vec![vec![1, 2], vec![1, 3], vec![2, 2]]);
        let p = project(&r, &[0]).unwrap();
        assert_eq!(p.len(), 2);
        assert_eq!(p.arity(), 1);
    }

    #[test]
    fn equi_join_matches_nested_loops() {
        let l = rel(vec![vec![1, 10], vec![2, 20], vec![3, 30]]);
        let r = rel(vec![vec![1, 100], vec![1, 101], vec![3, 300], vec![4, 400]]);
        let j = equi_join(&l, &r, &[(0, 0)]).unwrap();
        let mut got: Vec<Vec<u32>> = j.rows().collect();
        got.sort();
        assert_eq!(
            got,
            vec![
                vec![1, 10, 1, 100],
                vec![1, 10, 1, 101],
                vec![3, 30, 3, 300],
            ]
        );
        assert_eq!(j.arity(), 4);
    }

    #[test]
    fn join_rejects_class_mismatch() {
        let l = rel(vec![vec![1, 2]]);
        let r = Relation::from_rows(Schema::new(&[("x", "other")]), vec![vec![1]]).unwrap();
        assert!(matches!(
            equi_join(&l, &r, &[(0, 0)]),
            Err(StoreError::ClassMismatch { .. })
        ));
    }

    #[test]
    fn semi_and_anti_join_partition() {
        let l = rel(vec![vec![1, 10], vec![2, 20], vec![3, 30]]);
        let r = rel(vec![vec![1, 0], vec![3, 0]]);
        let semi = semi_join(&l, &r, &[(0, 0)]).unwrap();
        let anti = anti_join(&l, &r, &[(0, 0)]).unwrap();
        assert_eq!(semi.len(), 2);
        assert_eq!(anti.len(), 1);
        assert_eq!(anti.row(0), vec![2, 20]);
        assert_eq!(semi.len() + anti.len(), l.len());
    }

    #[test]
    fn union_difference() {
        let a = rel(vec![vec![1, 1], vec![2, 2]]);
        let b = rel(vec![vec![2, 2], vec![3, 3]]);
        assert_eq!(union(&a, &b).unwrap().len(), 3);
        let d = difference(&a, &b).unwrap();
        assert_eq!(d.len(), 1);
        assert_eq!(d.row(0), vec![1, 1]);
    }

    #[test]
    fn product_multiplies() {
        let a = rel(vec![vec![1, 1], vec![2, 2]]);
        let b = rel(vec![vec![5, 5], vec![6, 6], vec![7, 7]]);
        let p = product(&a, &b).unwrap();
        assert_eq!(p.len(), 6);
        assert_eq!(p.arity(), 4);
    }

    #[test]
    fn fd_check_finds_violations() {
        // a → b violated by key 1 (maps to 2 and 3).
        let r = rel(vec![vec![1, 2], vec![1, 3], vec![2, 2]]);
        let v = fd_violations(&r, &[0], &[1]).unwrap();
        assert_eq!(v.len(), 2);
        assert!(v.rows().all(|row| row[0] == 1));
        // b → a holds? b=2 maps to a∈{1,2} → violated too.
        assert!(!fd_violations(&r, &[1], &[0]).unwrap().is_empty());
        // FD on a clean relation holds.
        let clean = rel(vec![vec![1, 2], vec![2, 2], vec![3, 4]]);
        assert!(fd_violations(&clean, &[0], &[1]).unwrap().is_empty());
    }

    #[test]
    fn column_bounds_checked() {
        let r = rel(vec![vec![1, 2]]);
        assert!(matches!(
            select_eq(&r, 5, 0),
            Err(StoreError::ColumnOutOfRange { index: 5, arity: 2 })
        ));
        assert!(project(&r, &[0, 9]).is_err());
    }
}

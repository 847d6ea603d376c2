//! Relational algebra operators over [`Relation`]s.
//!
//! These hash-based operators are what the paper's "SQL approach" compiles
//! to: selections, projections, equi-joins, anti-joins (`NOT EXISTS`),
//! unions/differences/products, and the group-by style functional-dependency
//! check used for `areacode → state` (Figure 5(b)).

use crate::error::{Result, StoreError};
use crate::relation::Relation;
use std::collections::{HashMap, HashSet};

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
    let key = |rel: &Relation, i: usize, on_left: bool| -> Vec<u32> {
        pairs
            .iter()
            .map(|&(l, r)| rel.col(if on_left { l } else { r })[i])
            .collect()
    };
    let mut table: HashMap<Vec<u32>, Vec<usize>> = HashMap::new();
    for i in 0..build.len() {
        table
            .entry(key(build, i, build_is_left))
            .or_default()
            .push(i);
    }
    let mut matched = Vec::new();
    for j in 0..probe.len() {
        if let Some(matches) = table.get(&key(probe, j, !build_is_left)) {
            for &i in matches {
                matched.push(if build_is_left { (i, j) } else { (j, i) });
            }
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
    let mut keys: HashSet<Vec<u32>> = HashSet::new();
    for i in 0..right.len() {
        let row = right.row(i);
        keys.insert(pairs.iter().map(|&(_, r)| row[r]).collect());
    }
    Ok(left.retain_rows(|i| {
        let key: Vec<u32> = pairs.iter().map(|&(l, _)| left.col(l)[i]).collect();
        keys.contains(&key) == keep_matching
    }))
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
    let rset: HashSet<Vec<u32>> = right.rows().collect();
    Ok(left.retain_rows(|i| !rset.contains(&left.row(i))))
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
    let mut seen: HashMap<Vec<u32>, Vec<u32>> = HashMap::new();
    let mut bad_keys: HashSet<Vec<u32>> = HashSet::new();
    for row in rel.rows() {
        let key: Vec<u32> = lhs.iter().map(|&c| row[c]).collect();
        let val: Vec<u32> = rhs.iter().map(|&c| row[c]).collect();
        match seen.get(&key) {
            None => {
                seen.insert(key, val);
            }
            Some(prev) if *prev != val => {
                bad_keys.insert(key);
            }
            Some(_) => {}
        }
    }
    Ok(rel.retain_rows(|i| {
        let key: Vec<u32> = lhs.iter().map(|&c| rel.col(c)[i]).collect();
        bad_keys.contains(&key)
    }))
}

/// Does the functional dependency `lhs → rhs` hold?
pub fn fd_holds(rel: &Relation, lhs: &[usize], rhs: &[usize]) -> Result<bool> {
    Ok(fd_violations(rel, lhs, rhs)?.is_empty())
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
        assert!(!fd_holds(&r, &[0], &[1]).unwrap());
        let v = fd_violations(&r, &[0], &[1]).unwrap();
        assert_eq!(v.len(), 2);
        assert!(v.rows().all(|row| row[0] == 1));
        // b → a holds? b=2 maps to a∈{1,2} → violated too.
        assert!(!fd_holds(&r, &[1], &[0]).unwrap());
        // FD on a clean relation holds.
        let clean = rel(vec![vec![1, 2], vec![2, 2], vec![3, 4]]);
        assert!(fd_holds(&clean, &[0], &[1]).unwrap());
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

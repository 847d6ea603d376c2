//! Logical indices: one shared BDD manager over a relational database.
//!
//! A [`LogicalDatabase`] wraps a [`Database`] together with a single
//! [`BddManager`]. Each indexed relation gets one finite-domain block per
//! column — declared in the order chosen by an [`OrderingStrategy`], since
//! declaration order *is* the BDD variable order — and its characteristic
//! function as the index root. Constraint compilation additionally draws
//! *query domains* from per-class pools: the finite domains that first-order
//! variables are renamed into (the paper's rename-based equi-join,
//! Section 4.2).

use crate::error::{CoreError, Result};
use crate::ordering::OrderingStrategy;
use relcheck_bdd::{failpoint, Bdd, BddError, BddManager, DomainId, ExportedRelation, GcStats};
use relcheck_relstore::Database;
use std::collections::HashMap;

/// Default apply-cache slot count of a [`LogicalDatabase`]'s manager —
/// [`relcheck_bdd::BddManager::new`]'s own default.
pub use relcheck_bdd::DEFAULT_CACHE_SLOTS;

/// A built index over one relation.
#[derive(Debug, Clone)]
pub struct RelIndex {
    /// Finite-domain block per column, in **schema order** (regardless of
    /// the variable ordering used to declare them).
    pub domains: Vec<DomainId>,
    /// Root of the characteristic-function BDD.
    pub root: Bdd,
    /// The column ordering the blocks were declared in.
    pub ordering: Vec<usize>,
}

/// One argument's resolved effect on a relation index — the
/// manager-independent shape of what [`apply_actions`] does to compile an
/// atom. A compiled atom is a pure function of the index root plus its
/// action list, so `(relation, actions)` keys the shared-subgraph cache:
/// two constraints mentioning the same `R(x, y)` shape resolve to equal
/// keys and reuse one compiled BDD instead of re-running the restricts and
/// renames per constraint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AtomAction {
    /// Pin a column block to a dictionary code (constant argument).
    Pin(DomainId, u64),
    /// Existentially project a column block away on the index's own
    /// domain, before any rename (an atom-local variable of an emptiness
    /// or satisfiability test).
    Project(DomainId),
    /// Rename a column block into a variable's query domain (§4.2).
    Rename(DomainId, DomainId),
    /// Conjoin equality with another domain, then project the column block
    /// away: a repeated variable's extra column against its representative
    /// column, or (naive join strategy) a column against its variable's
    /// domain.
    Equal(DomainId, DomainId),
}

/// A cached compiled atom and the index root of its relation it was
/// compiled at.
#[derive(Debug, Clone, Copy)]
struct CachedAtom {
    index_root: Bdd,
    result: Bdd,
}

/// The column blocks an action list projects away on the index's own
/// domains. Every other column is *kept*: conjoining a function of the
/// kept columns commutes with every step of [`apply_actions`], which is
/// what makes a patched atom exact (DESIGN §5e).
fn projected(actions: &[AtomAction]) -> Vec<DomainId> {
    actions
        .iter()
        .filter_map(|a| match a {
            AtomAction::Project(d) => Some(*d),
            _ => None,
        })
        .collect()
}

/// Run an atom's action list on `f`, in the one order both a cold compile
/// and a patch use: pin constants (restrict), project atom-local columns,
/// equate repeated or naively joined columns and project them away, then
/// rename the surviving columns into their variables' domains.
pub fn apply_actions(
    mgr: &mut BddManager,
    f: Bdd,
    actions: &[AtomAction],
) -> relcheck_bdd::Result<Bdd> {
    let mut cur = f;
    // 1. Pin constants (restrict: removes the block's variables).
    for a in actions {
        if let AtomAction::Pin(d, code) = a {
            let cube = mgr.value_cube(*d, *code)?;
            cur = mgr.restrict(cur, cube)?;
        }
    }
    // 2. Project atom-local columns on the index's own domains, so the
    //    rename below only moves the columns that survive.
    let projected = projected(actions);
    if !projected.is_empty() {
        let vs = mgr.domain_varset(&projected);
        cur = mgr.exists(cur, vs)?;
    }
    // 3. Equate repeated variables' extra columns with their
    //    representatives (and, under the naive strategy, move columns by
    //    equality cubes), then project those column blocks away. This runs
    //    before the rename, while every column is still its own.
    let mut quantify_out = Vec::new();
    for a in actions {
        if let AtomAction::Equal(col_dom, other) = a {
            let eq = mgr.domain_eq(*col_dom, *other)?;
            cur = mgr.and(cur, eq)?;
            quantify_out.push(*col_dom);
        }
    }
    if !quantify_out.is_empty() {
        let vs = mgr.domain_varset(&quantify_out);
        cur = mgr.exists(cur, vs)?;
    }
    // 4. Rename the surviving columns into their variables' domains — the
    //    §4.2 rewrite: one linear-cost pass instead of equality
    //    conjunctions.
    let renames: Vec<(DomainId, DomainId)> = actions
        .iter()
        .filter_map(|a| match a {
            AtomAction::Rename(from, to) => Some((*from, *to)),
            _ => None,
        })
        .collect();
    if !renames.is_empty() {
        cur = mgr.replace_domains(cur, &renames)?;
    }
    Ok(cur)
}

/// A database plus its BDD logical indices.
pub struct LogicalDatabase {
    mgr: BddManager,
    db: Database,
    indices: HashMap<String, RelIndex>,
    class_sizes: HashMap<String, u64>,
    query_pools: HashMap<String, Vec<DomainId>>,
    version: u64,
    atom_cache: HashMap<(String, Vec<AtomAction>), CachedAtom>,
    atom_hits: u64,
    atom_misses: u64,
    atom_patches: u64,
    sharing: bool,
}

impl LogicalDatabase {
    /// Wrap a database. No indices are built yet. The manager gets
    /// [`DEFAULT_CACHE_SLOTS`] apply-cache slots.
    pub fn new(db: Database) -> LogicalDatabase {
        LogicalDatabase::with_cache_slots(db, DEFAULT_CACHE_SLOTS)
    }

    /// Wrap a database with an explicitly-sized BDD apply-cache
    /// ([`crate::checker::CheckerOptions::apply_cache_slots`]).
    pub fn with_cache_slots(db: Database, cache_slots: usize) -> LogicalDatabase {
        LogicalDatabase {
            mgr: BddManager::with_capacity(cache_slots),
            db,
            indices: HashMap::new(),
            class_sizes: HashMap::new(),
            query_pools: HashMap::new(),
            version: 0,
            atom_cache: HashMap::new(),
            atom_hits: 0,
            atom_misses: 0,
            atom_patches: 0,
            sharing: true,
        }
    }

    /// Enable or disable the shared-subgraph atom cache (enabled by
    /// default). Disabling drops every cached entry — the baseline side of
    /// the sharing differential tests.
    pub fn set_subgraph_sharing(&mut self, on: bool) {
        self.sharing = on;
        if !on {
            self.atom_cache.clear();
        }
    }

    /// The atom `actions` over `relation`'s current index root
    /// ([`apply_actions`]), through the shared-subgraph cache.
    ///
    /// An entry compiled at the relation's current index root is a hit. An
    /// entry compiled at an older root is patched: with `Kc` the tuples on
    /// which the two roots differ, projected onto the atom's kept columns,
    /// and `K = apply_actions(Kc)`, the atom becomes `(A ∧ ¬K) ∨
    /// apply_actions(root ∧ Kc)` — the very node a recompile builds (DESIGN
    /// §5e). An atom that keeps no column, or that has no entry, compiles
    /// from the root.
    pub fn compile_atom(&mut self, relation: &str, actions: Vec<AtomAction>) -> Result<Bdd> {
        let idx = self
            .indices
            .get(relation)
            .ok_or_else(|| CoreError::MissingIndex(relation.to_owned()))?;
        let root = idx.root;
        if !self.sharing {
            return Ok(apply_actions(&mut self.mgr, root, &actions)?);
        }
        let key = (relation.to_owned(), actions);
        let cached = self.atom_cache.get(&key).copied();
        if let Some(c) = cached.filter(|c| c.index_root == root) {
            self.atom_hits += 1;
            return Ok(c.result);
        }
        self.atom_misses += 1;
        let projected = projected(&key.1);
        let mgr = &mut self.mgr;
        let result = match cached {
            Some(c) if projected.len() < idx.domains.len() => {
                self.atom_patches += 1;
                // Hash-consing shares every unchanged path of the two
                // roots, so the xor only walks the touched tuples.
                let touched = mgr.xor(c.index_root, root)?;
                // `K = P(Kc) = P(touched)`, as `P` projects the same
                // columns. Without pins its ∃ is the very call that builds
                // `Kc` next, which then comes from the operation cache.
                let k = apply_actions(mgr, touched, &key.1)?;
                let vs = mgr.domain_varset(&projected);
                let kc = mgr.exists(touched, vs)?;
                let inside = mgr.and(root, kc)?;
                let inside = apply_actions(mgr, inside, &key.1)?;
                let outside = mgr.diff(c.result, k)?;
                mgr.or(outside, inside)?
            }
            _ => apply_actions(mgr, root, &key.1)?,
        };
        self.atom_cache.insert(
            key,
            CachedAtom {
                index_root: root,
                result,
            },
        );
        Ok(result)
    }

    /// `(hits, misses)` observed by the shared-subgraph atom cache. A
    /// patched lookup counts as a miss.
    pub fn atom_cache_stats(&self) -> (u64, u64) {
        (self.atom_hits, self.atom_misses)
    }

    /// Stale atom-cache entries patched instead of recompiled (a subset of
    /// the misses).
    pub fn atom_cache_patches(&self) -> u64 {
        self.atom_patches
    }

    /// The atom-cache entries compiled at their relation's current index
    /// root: `(relation, action list, compiled atom)`. Each equals
    /// [`apply_actions`] on that root.
    pub fn fresh_atoms(&self) -> Vec<(&str, &[AtomAction], Bdd)> {
        self.atom_cache
            .iter()
            .filter(|((rel, _), c)| self.indices[rel].root == c.index_root)
            .map(|((rel, key), c)| (rel.as_str(), key.as_slice(), c.result))
            .collect()
    }

    /// Drop every shared-subgraph cache entry, keeping sharing enabled —
    /// the memory-pressure valve. The degradation ladder sheds the cache
    /// on any node-budget abort before its GC-retry, so a tight budget
    /// behaves exactly like an unshared manager instead of failing checks
    /// that would fit without the cache's pinned roots.
    pub fn shed_atom_cache(&mut self) {
        self.atom_cache.clear();
    }

    /// Forget a relation's atom-cache entries: its index was just
    /// (re)built or adopted, so no entry's root is an earlier version of
    /// the new one.
    fn reset_atoms(&mut self, relation: &str) {
        self.atom_cache.retain(|(rel, _), _| rel != relation);
    }

    /// A monotone counter bumped by every operation that can change what a
    /// check observes: tuple inserts/deletes, index imports (which adopt
    /// externally-built content), and any grant of raw mutable database
    /// access. Building an index from the relation's own rows does *not*
    /// bump it — materialization changes no verdict. Schema fingerprints
    /// and certificates record it: two calls returning the same value
    /// mean no data change happened in between.
    pub fn data_version(&self) -> u64 {
        self.version
    }

    /// The underlying database.
    pub fn db(&self) -> &Database {
        &self.db
    }

    /// Mutable access to the underlying database. The persistent index
    /// store uses this to replay journal records that *predate* a cached
    /// segment: those deltas are already folded into the segment's BDD, so
    /// only the relation rows (and dictionaries) need them re-applied —
    /// going through [`LogicalDatabase::insert_tuple`] would double-apply
    /// them to the index. Cached atoms survive it: they are a function of
    /// the index roots, which raw row access cannot move.
    pub fn db_mut(&mut self) -> &mut Database {
        // Conservatively assume the caller mutates: raw access can change
        // rows without going through insert/delete, so a fingerprint taken
        // before it must not match one taken after.
        self.version += 1;
        &mut self.db
    }

    /// The shared BDD manager.
    pub fn manager(&self) -> &BddManager {
        &self.mgr
    }

    /// Mutable access to the manager (query compilation needs it).
    pub fn manager_mut(&mut self) -> &mut BddManager {
        &mut self.mgr
    }

    /// The finite-domain size used for an attribute class: the class
    /// dictionary's active-domain size, widened to cover any raw codes in
    /// already-registered relations. Frozen once first used (BDD blocks
    /// cannot grow).
    pub fn class_domain_size(&mut self, class: &str) -> u64 {
        if let Some(&s) = self.class_sizes.get(class) {
            return s;
        }
        let mut size = self.db.class_size(class).max(1);
        for name in self
            .db
            .relation_names()
            .map(str::to_owned)
            .collect::<Vec<_>>()
        {
            let rel = self.db.relation(&name).expect("name enumerated");
            for (i, col) in rel.schema().columns().iter().enumerate() {
                if col.class == class {
                    let max = rel.col(i).iter().copied().max().map_or(0, |m| m as u64 + 1);
                    size = size.max(max);
                }
            }
        }
        self.class_sizes.insert(class.to_owned(), size);
        size
    }

    /// Is this relation indexed?
    pub fn has_index(&self, name: &str) -> bool {
        self.indices.contains_key(name)
    }

    /// The index for a relation (must have been built).
    pub fn index(&self, name: &str) -> Option<&RelIndex> {
        self.indices.get(name)
    }

    /// Build (or rebuild) the BDD index for a relation using the given
    /// ordering strategy. Fails with `BddError::NodeLimit` if the manager's
    /// node limit is exceeded — the caller should then mark the relation
    /// SQL-only (paper: "we do not materialize the BDD").
    pub fn build_index(&mut self, name: &str, strategy: OrderingStrategy) -> Result<&RelIndex> {
        if failpoint::enabled()
            && failpoint::should_fail(failpoint::INDEX_BUILD, failpoint::key_str(name))
        {
            return Err(CoreError::Bdd(BddError::FaultInjected {
                site: failpoint::INDEX_BUILD,
            }));
        }
        let rel = self.db.relation(name)?.clone();
        let dom_sizes: Vec<u64> = rel
            .schema()
            .columns()
            .iter()
            .map(|c| self.class_domain_size(&c.class))
            .collect();
        let ordering = strategy.order(&rel, &dom_sizes);
        let mut domains: Vec<Option<DomainId>> = vec![None; rel.arity()];
        for &col in &ordering {
            domains[col] = Some(self.mgr.add_domain(dom_sizes[col])?);
        }
        let domains: Vec<DomainId> = domains.into_iter().map(Option::unwrap).collect();
        let rows: Vec<Vec<u64>> = rel
            .rows()
            .map(|r| r.iter().map(|&v| v as u64).collect())
            .collect();
        let root = self.mgr.relation_from_rows(&domains, &rows)?;
        self.reset_atoms(name);
        self.indices.insert(
            name.to_owned(),
            RelIndex {
                domains,
                root,
                ordering,
            },
        );
        // No version bump: the index is derived from the relation's current
        // rows, so every verdict is unchanged by its materialization.
        Ok(&self.indices[name])
    }

    /// Insert a tuple into both the relation and its BDD index (if built).
    /// This is the paper's incremental-maintenance operation (Figure 4(b)).
    ///
    /// The index is maintained **before** the row store: `insert_row` is
    /// idempotent (set union), so doing it first means a failure — an
    /// injected fault, a node-budget abort — leaves both representations
    /// untouched instead of tearing them apart. A torn delta would make
    /// the BDD ladder and the naive re-checker disagree, which the audit
    /// path treats as an engine bug.
    pub fn insert_tuple(&mut self, name: &str, row: &[u32]) -> Result<bool> {
        self.db.relation(name)?; // surface unknown relations before any work
        if let Some(idx) = self.indices.get(name) {
            let domains = idx.domains.clone();
            let root = idx.root;
            let values: Vec<u64> = row.iter().map(|&v| v as u64).collect();
            let new_root = self.mgr.insert_row(root, &domains, &values)?;
            self.indices.get_mut(name).expect("just read").root = new_root;
        }
        let fresh = self.db.relation_mut(name)?.insert(row)?;
        if fresh {
            self.version += 1;
        }
        Ok(fresh)
    }

    /// Delete a tuple from both representations. Index first, like
    /// [`insert_tuple`](Self::insert_tuple) — `delete_row` is idempotent
    /// (set difference), so a failed maintenance step changes nothing.
    pub fn delete_tuple(&mut self, name: &str, row: &[u32]) -> Result<bool> {
        self.db.relation(name)?;
        if let Some(idx) = self.indices.get(name) {
            let domains = idx.domains.clone();
            let root = idx.root;
            let values: Vec<u64> = row.iter().map(|&v| v as u64).collect();
            let new_root = self.mgr.delete_row(root, &domains, &values)?;
            self.indices.get_mut(name).expect("just read").root = new_root;
        }
        let existed = self.db.relation_mut(name)?.delete(row)?;
        if existed {
            self.version += 1;
        }
        Ok(existed)
    }

    /// Get the `slot`-th query domain of an attribute class, allocating it
    /// (and any earlier slots) on first use. All pool domains of a class
    /// share its frozen size, so renames between relation blocks and query
    /// blocks are always width-compatible.
    pub fn query_domain(&mut self, class: &str, slot: usize) -> Result<DomainId> {
        let size = self.class_domain_size(class);
        let pool = self.query_pools.entry(class.to_owned()).or_default();
        while pool.len() <= slot {
            // Borrow dance: allocate outside the entry borrow.
            let d = {
                let mgr = &mut self.mgr;
                mgr.add_domain(size)
            };
            match d {
                Ok(d) => pool.push(d),
                Err(e) => return Err(CoreError::Bdd(e)),
            }
        }
        Ok(pool[slot])
    }

    /// Export a built index as a manager-independent [`ExportedRelation`]
    /// (or `None` if the relation has no index): the payload of the index
    /// store's segments, which another [`LogicalDatabase`] over the same
    /// data adopts via [`LogicalDatabase::import_index`].
    pub fn export_index(&self, name: &str) -> Option<ExportedRelation> {
        let idx = self.indices.get(name)?;
        self.mgr.export_relation(idx.root, &idx.domains).ok()
    }

    /// Adopt relation `name`'s index exported from another manager:
    /// declare fresh finite-domain blocks, rebuild the characteristic
    /// function, and install it as this database's index for the
    /// relation. The export must come from a [`LogicalDatabase`] over the
    /// same (dictionary-encoded) data — the block sizes freeze the
    /// attribute-class domain sizes here exactly as a local
    /// [`LogicalDatabase::build_index`] would, so later query-domain pools
    /// stay width-compatible. [`LogicalDatabase::build_index`] declares
    /// the blocks in ordering order, so the ordering is the inverse of the
    /// slot table.
    pub fn import_index(&mut self, name: &str, rel: &ExportedRelation) -> Result<()> {
        if failpoint::enabled()
            && failpoint::should_fail(failpoint::SNAPSHOT_DECODE, failpoint::key_str(name))
        {
            return Err(CoreError::Bdd(BddError::FaultInjected {
                site: failpoint::SNAPSHOT_DECODE,
            }));
        }
        let (domains, root) = self.mgr.import_relation(rel)?;
        let classes: Vec<String> = self
            .db
            .relation(name)?
            .schema()
            .columns()
            .iter()
            .map(|c| c.class.clone())
            .collect();
        for (class, &d) in classes.iter().zip(&domains) {
            let size = self.mgr.domain_info(d).size;
            self.class_sizes.entry(class.clone()).or_insert(size);
        }
        let mut ordering = vec![0; rel.slots.len()];
        for (col, &slot) in rel.slots.iter().enumerate() {
            ordering[slot] = col;
        }
        self.reset_atoms(name);
        self.indices.insert(
            name.to_owned(),
            RelIndex {
                domains,
                root,
                ordering,
            },
        );
        self.version += 1;
        Ok(())
    }

    /// Garbage-collect everything except the index roots and the
    /// shared-subgraph cache entries, each with the index root it was
    /// compiled at (a stale entry's patch reads it).
    pub fn gc(&mut self) -> GcStats {
        let mut roots: Vec<Bdd> = self.indices.values().map(|i| i.root).collect();
        roots.extend(
            self.atom_cache
                .values()
                .flat_map(|c| [c.index_root, c.result]),
        );
        self.mgr.gc(&roots)
    }

    /// [`LogicalDatabase::gc`], but only when the manager's collection rule
    /// ([`BddManager::collection_due`]) says garbage has piled up. The
    /// checker calls this after every check, so the next check still finds
    /// this one's nodes and operation cache.
    pub fn collect_if_due(&mut self) {
        if self.mgr.collection_due() {
            self.gc();
        }
    }

    /// Squeeze freed slots out of the manager's arena, rewriting the index
    /// roots and atom cache to the relocated handles. Unlike
    /// [`LogicalDatabase::gc`] this *shrinks* the arena (and restores its
    /// cache-line density after churn), but it invalidates any [`Bdd`]
    /// handle not owned by this database — callers must not hold BDDs
    /// across it.
    pub fn compact(&mut self) -> relcheck_bdd::CompactStats {
        let names: Vec<String> = {
            let mut n: Vec<String> = self.indices.keys().cloned().collect();
            n.sort_unstable();
            n
        };
        let keys: Vec<(String, Vec<AtomAction>)> = self.atom_cache.keys().cloned().collect();
        let mut roots: Vec<Bdd> = names.iter().map(|n| self.indices[n].root).collect();
        let cache_start = roots.len();
        roots.extend(keys.iter().flat_map(|k| {
            let c = self.atom_cache[k];
            [c.index_root, c.result]
        }));
        let stats = self.mgr.compact(&mut roots);
        for (n, r) in names.iter().zip(&roots[..cache_start]) {
            self.indices.get_mut(n).expect("key enumerated").root = *r;
        }
        for (k, r) in keys.iter().zip(roots[cache_start..].chunks(2)) {
            let c = self.atom_cache.get_mut(k).expect("key enumerated");
            c.index_root = r[0];
            c.result = r[1];
        }
        stats
    }

    /// Total node count of all index roots (shared nodes counted once) —
    /// the memory figure of Figure 4(c).
    pub fn index_size(&self) -> usize {
        let roots: Vec<Bdd> = self.indices.values().map(|i| i.root).collect();
        self.mgr.size_shared(&roots)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use relcheck_relstore::Raw;

    fn db() -> Database {
        let mut db = Database::new();
        db.create_relation(
            "R",
            &[("city", "city"), ("areacode", "areacode")],
            vec![
                vec![Raw::str("Toronto"), Raw::Int(416)],
                vec![Raw::str("Toronto"), Raw::Int(647)],
                vec![Raw::str("Oshawa"), Raw::Int(905)],
                vec![Raw::str("Newark"), Raw::Int(973)],
            ],
        )
        .unwrap();
        db
    }

    #[test]
    fn build_index_and_count() {
        let mut ldb = LogicalDatabase::new(db());
        ldb.build_index("R", OrderingStrategy::Schema).unwrap();
        let idx = ldb.index("R").unwrap().clone();
        let count = {
            let mgr = ldb.manager_mut();
            mgr.tuple_count(idx.root, &idx.domains).unwrap()
        };
        assert_eq!(count, 4.0);
        assert!(ldb.index_size() > 0);
    }

    #[test]
    fn index_respects_ordering_strategy() {
        let mut ldb = LogicalDatabase::new(db());
        ldb.build_index("R", OrderingStrategy::ProbConverge)
            .unwrap();
        let idx = ldb.index("R").unwrap();
        let mut o = idx.ordering.clone();
        o.sort_unstable();
        assert_eq!(o, vec![0, 1]);
        // Domains are stored in schema order regardless of declaration.
        assert_eq!(idx.domains.len(), 2);
    }

    #[test]
    fn insert_and_delete_maintain_both_sides() {
        let mut ldb = LogicalDatabase::new(db());
        ldb.build_index("R", OrderingStrategy::Schema).unwrap();
        // Insert a new (city=Oshawa, areacode=416) pair using existing codes.
        let city = ldb.db().code("city", &Raw::str("Oshawa")).unwrap();
        let ac = ldb.db().code("areacode", &Raw::Int(416)).unwrap();
        assert!(ldb.insert_tuple("R", &[city, ac]).unwrap());
        assert!(!ldb.insert_tuple("R", &[city, ac]).unwrap(), "idempotent");
        let idx = ldb.index("R").unwrap().clone();
        let contains = ldb
            .manager()
            .contains(idx.root, &idx.domains, &[city as u64, ac as u64])
            .unwrap();
        assert!(contains);
        assert_eq!(ldb.db().relation("R").unwrap().len(), 5);
        // Delete it again.
        assert!(ldb.delete_tuple("R", &[city, ac]).unwrap());
        let idx = ldb.index("R").unwrap().clone();
        assert!(!ldb
            .manager()
            .contains(idx.root, &idx.domains, &[city as u64, ac as u64])
            .unwrap());
        assert_eq!(ldb.db().relation("R").unwrap().len(), 4);
    }

    #[test]
    fn query_domains_are_pooled_and_width_compatible() {
        let mut ldb = LogicalDatabase::new(db());
        ldb.build_index("R", OrderingStrategy::Schema).unwrap();
        let q0 = ldb.query_domain("city", 0).unwrap();
        let q0_again = ldb.query_domain("city", 0).unwrap();
        assert_eq!(q0, q0_again, "pool slots are stable");
        let q1 = ldb.query_domain("city", 1).unwrap();
        assert_ne!(q0, q1);
        // Rename from the relation's city block into the query domain works
        // (equal widths).
        let idx = ldb.index("R").unwrap().clone();
        let mgr = ldb.manager_mut();
        let moved = mgr.replace_domains(idx.root, &[(idx.domains[0], q0)]);
        assert!(moved.is_ok());
    }

    #[test]
    fn gc_keeps_index_roots() {
        let mut ldb = LogicalDatabase::new(db());
        ldb.build_index("R", OrderingStrategy::Schema).unwrap();
        let idx = ldb.index("R").unwrap().clone();
        // Create garbage.
        {
            let mgr = ldb.manager_mut();
            let d = idx.domains[1];
            let _junk = mgr.value_set(d, &[0, 1, 2]).unwrap();
        }
        let stats = ldb.gc();
        assert!(stats.freed > 0);
        let count = {
            let mgr = ldb.manager_mut();
            mgr.tuple_count(idx.root, &idx.domains).unwrap()
        };
        assert_eq!(count, 4.0, "index root survives GC");
    }

    #[test]
    fn index_snapshot_transfers_between_logical_databases() {
        let data = db();
        let mut src = LogicalDatabase::new(data.clone());
        src.build_index("R", OrderingStrategy::ProbConverge)
            .unwrap();
        let snap = src.export_index("R").unwrap();
        assert!(src.export_index("missing").is_none());

        let mut dst = LogicalDatabase::new(data);
        dst.import_index("R", &snap).unwrap();
        assert!(dst.has_index("R"));
        let idx = dst.index("R").unwrap().clone();
        assert_eq!(idx.ordering, src.index("R").unwrap().ordering);
        assert_eq!(
            dst.manager_mut()
                .tuple_count(idx.root, &idx.domains)
                .unwrap(),
            4.0
        );
        // The adopted index supports incremental maintenance like a
        // locally-built one.
        let city = dst.db().code("city", &Raw::str("Oshawa")).unwrap();
        let ac = dst.db().code("areacode", &Raw::Int(416)).unwrap();
        assert!(dst.insert_tuple("R", &[city, ac]).unwrap());
        let idx = dst.index("R").unwrap().clone();
        assert!(dst
            .manager()
            .contains(idx.root, &idx.domains, &[city as u64, ac as u64])
            .unwrap());
        // Class sizes froze to the imported block sizes: query domains are
        // width-compatible with the adopted blocks.
        let q = dst.query_domain("city", 0).unwrap();
        assert!(dst
            .manager_mut()
            .replace_domains(idx.root, &[(idx.domains[0], q)])
            .is_ok());
    }

    #[test]
    fn import_recovers_the_ordering_from_the_slot_table() {
        let mut data = Database::new();
        data.create_relation(
            "T",
            &[("a", "a"), ("b", "b"), ("c", "c")],
            (0..12i64)
                .map(|i| vec![Raw::Int(i % 5), Raw::Int(i % 3), Raw::Int(i % 7)])
                .collect(),
        )
        .unwrap();
        let mut seen = std::collections::BTreeSet::new();
        for seed in 0..12 {
            let mut src = LogicalDatabase::new(data.clone());
            src.build_index("T", OrderingStrategy::Random(seed))
                .unwrap();
            let mut dst = LogicalDatabase::new(data.clone());
            dst.import_index("T", &src.export_index("T").unwrap())
                .unwrap();
            let ordering = src.index("T").unwrap().ordering.clone();
            assert_eq!(dst.index("T").unwrap().ordering, ordering);
            seen.insert(ordering);
        }
        assert!(seen.len() > 2, "the seeds cover several orderings");
    }

    /// Differential property: any interleaving of inserts and deletes,
    /// followed by a check, must agree with a from-scratch rebuild of the
    /// final relation state — both at the characteristic-function level
    /// (membership of every tuple in the code universe) and at the verdict
    /// level (an FD check through the real checker path). This is the
    /// insert/delete symmetry the journal-replay recovery path leans on.
    #[test]
    fn interleaved_maintenance_matches_from_scratch_rebuild() {
        use crate::checker::{Checker, CheckerOptions};
        use std::collections::BTreeSet;

        fn splitmix(state: &mut u64) -> u64 {
            *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = *state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        let cities = ["Toronto", "Oshawa", "Newark"];
        let areacodes = [416i64, 647, 905, 973];
        for seed in 0..8u64 {
            let mut ldb = LogicalDatabase::new(db());
            ldb.build_index("R", OrderingStrategy::ProbConverge)
                .unwrap();
            // Reference model: the rows the relation should hold.
            let mut model: BTreeSet<[u32; 2]> = {
                let rel = ldb.db().relation("R").unwrap();
                (0..rel.len())
                    .map(|i| {
                        let r = rel.row(i);
                        [r[0], r[1]]
                    })
                    .collect()
            };
            let mut rng = seed.wrapping_mul(0x1234_5678_9ABC_DEF1) | 1;
            for _ in 0..60 {
                let city = cities[(splitmix(&mut rng) % 3) as usize];
                let ac = areacodes[(splitmix(&mut rng) % 4) as usize];
                let row = [
                    ldb.db().code("city", &Raw::str(city)).unwrap(),
                    ldb.db().code("areacode", &Raw::Int(ac)).unwrap(),
                ];
                if splitmix(&mut rng).is_multiple_of(2) {
                    let fresh = ldb.insert_tuple("R", &row).unwrap();
                    assert_eq!(fresh, model.insert(row), "seed {seed}: insert echo");
                } else {
                    let existed = ldb.delete_tuple("R", &row).unwrap();
                    assert_eq!(existed, model.remove(&row), "seed {seed}: delete echo");
                }
            }
            // (a) Characteristic function == model, over the whole universe.
            let idx = ldb.index("R").unwrap().clone();
            for c in 0..cities.len() as u32 {
                for a in 0..areacodes.len() as u32 {
                    let got = ldb
                        .manager()
                        .contains(idx.root, &idx.domains, &[c as u64, a as u64])
                        .unwrap();
                    assert_eq!(
                        got,
                        model.contains(&[c, a]),
                        "seed {seed}: membership of ({c},{a}) diverged"
                    );
                }
            }
            // (b) Verdict differential through the real checker path: the
            // maintained database and a from-scratch database over the
            // final rows must agree on an FD check.
            let final_rows: Vec<Vec<Raw>> = model
                .iter()
                .map(|r| {
                    let rel = ldb.db().relation("R").unwrap();
                    ldb.db().decode_row(rel, r)
                })
                .collect();
            let mut fresh_db = Database::new();
            fresh_db
                .create_relation(
                    "R",
                    &[("city", "city"), ("areacode", "areacode")],
                    final_rows,
                )
                .unwrap();
            let mut warm = Checker::new(ldb.db().clone(), CheckerOptions::default());
            let mut cold = Checker::new(fresh_db, CheckerOptions::default());
            // city → areacode (functional dependency on column 0 ⇒ 1) and
            // its reverse; deletions can flip either verdict.
            for (lhs, rhs) in [(0usize, 1usize), (1, 0)] {
                let w = warm.check_fd_bdd("R", &[lhs], &[rhs]).unwrap();
                let c = cold.check_fd_bdd("R", &[lhs], &[rhs]).unwrap();
                assert_eq!(w, c, "seed {seed}: FD {lhs}->{rhs} verdict diverged");
            }
        }
    }

    #[test]
    fn atom_cache_hits_and_invalidates() {
        let mut ldb = LogicalDatabase::new(db());
        ldb.build_index("R", OrderingStrategy::Schema).unwrap();
        let idx = ldb.index("R").unwrap().clone();
        let q = ldb.query_domain("city", 0).unwrap();
        let key = vec![AtomAction::Rename(idx.domains[0], q)];
        let cold = |ldb: &mut LogicalDatabase| {
            let root = ldb.index("R").unwrap().root;
            apply_actions(ldb.manager_mut(), root, &key).unwrap()
        };
        let compiled = ldb.compile_atom("R", key.clone()).unwrap();
        assert_eq!(compiled, cold(&mut ldb), "a cold cache compiles");
        assert_eq!(ldb.compile_atom("R", key.clone()).unwrap(), compiled);
        // The cached root survives GC.
        ldb.gc();
        assert_eq!(ldb.compile_atom("R", key.clone()).unwrap(), compiled);
        // An insert makes the entry stale: the next lookup patches it into
        // the very node a cold compile builds.
        let city = ldb.db().code("city", &Raw::str("Oshawa")).unwrap();
        let ac = ldb.db().code("areacode", &Raw::Int(416)).unwrap();
        assert!(ldb.insert_tuple("R", &[city, ac]).unwrap());
        let patched = ldb.compile_atom("R", key.clone()).unwrap();
        assert_ne!(patched, compiled);
        assert_eq!(patched, cold(&mut ldb));
        assert_eq!(ldb.atom_cache_stats(), (2, 2));
        assert_eq!(ldb.atom_cache_patches(), 1);
        // A rebuild invalidates the relation's entries outright.
        ldb.build_index("R", OrderingStrategy::Schema).unwrap();
        assert!(ldb.atom_cache.is_empty());
        // Disabling sharing compiles without the cache and stops counting.
        ldb.set_subgraph_sharing(false);
        let idx = ldb.index("R").unwrap().clone();
        let key = vec![AtomAction::Rename(idx.domains[0], q)];
        let fresh = ldb.compile_atom("R", key.clone()).unwrap();
        assert_eq!(
            fresh,
            apply_actions(ldb.manager_mut(), idx.root, &key).unwrap()
        );
        assert!(ldb.atom_cache.is_empty());
        assert_eq!(ldb.atom_cache_stats(), (2, 2));
    }

    /// A long delta burst with no check in between adds no cache entry. A
    /// burst that nets to nothing returns the index root to its handle, so
    /// the next check only hits; a burst that moves it patches each stale
    /// atom once, and the verdicts equal a cold `check_all`.
    #[test]
    fn delta_bursts_without_checks() {
        use crate::checker::{Checker, CheckerOptions};
        let battery: Vec<(String, relcheck_logic::Formula)> = [
            "forall c, a1, a2. R(c, a1) & R(c, a2) -> a1 = a2",
            "forall c, a. R(c, a) -> exists a2. R(c, a2) & !(a = a2)",
        ]
        .iter()
        .map(|src| (src.to_string(), relcheck_logic::parse(src).unwrap()))
        .collect();
        let holds = |ck: &mut Checker| -> Vec<bool> {
            let reports = ck.check_all(&battery).unwrap();
            reports.into_iter().map(|(_, r)| r.holds).collect()
        };
        let mut ck = Checker::new(db(), CheckerOptions::default());
        holds(&mut ck);
        let entries = ck.logical_db().atom_cache.len();
        assert!(entries > 0);
        let code =
            |ck: &Checker, class: &str, v: Raw| ck.logical_db().db().code(class, &v).unwrap();
        let oshawa_416 = [
            code(&ck, "city", Raw::str("Oshawa")),
            code(&ck, "areacode", Raw::Int(416)),
        ];
        let toronto_647 = [
            code(&ck, "city", Raw::str("Toronto")),
            code(&ck, "areacode", Raw::Int(647)),
        ];
        for i in 0..640 {
            let ldb = ck.logical_db_mut();
            if i % 2 == 0 {
                assert!(ldb.insert_tuple("R", &oshawa_416).unwrap());
            } else {
                assert!(ldb.delete_tuple("R", &oshawa_416).unwrap());
            }
            assert_eq!(ldb.atom_cache.len(), entries);
        }
        let first = ck.logical_db().atom_cache_stats();
        holds(&mut ck);
        let (hits, misses) = ck.logical_db().atom_cache_stats();
        assert_eq!(misses, first.1, "the root is back: every lookup hits");
        assert!(hits > first.0);
        for i in 0..641 {
            let ldb = ck.logical_db_mut();
            if i % 2 == 0 {
                ldb.insert_tuple("R", &oshawa_416).unwrap();
                ldb.delete_tuple("R", &toronto_647).unwrap();
            } else {
                ldb.delete_tuple("R", &oshawa_416).unwrap();
                ldb.insert_tuple("R", &toronto_647).unwrap();
            }
            assert_eq!(ldb.atom_cache.len(), entries);
        }
        let got = holds(&mut ck);
        let ldb = ck.logical_db();
        assert_eq!(
            ldb.atom_cache_patches(),
            entries as u64,
            "one patch per atom"
        );
        assert_eq!(ldb.atom_cache.len(), entries);
        let mut cold = Checker::new(ldb.db().clone(), CheckerOptions::default());
        assert_eq!(got, holds(&mut cold));
    }

    #[test]
    fn compact_preserves_indices_and_atom_cache() {
        let mut ldb = LogicalDatabase::new(db());
        ldb.build_index("R", OrderingStrategy::Schema).unwrap();
        // Populate a cache entry and plenty of garbage.
        let idx = ldb.index("R").unwrap().clone();
        let q = ldb.query_domain("city", 0).unwrap();
        let key = vec![AtomAction::Rename(idx.domains[0], q)];
        let _junk = ldb
            .manager_mut()
            .value_set(idx.domains[1], &[0, 1, 2, 3])
            .unwrap();
        ldb.compile_atom("R", key.clone()).unwrap();
        let stats = ldb.compact();
        assert!(stats.reclaimed_slots > 0, "garbage squeezed out");
        // Index root still answers membership over the whole universe.
        let idx = ldb.index("R").unwrap().clone();
        assert_eq!(
            ldb.manager_mut()
                .tuple_count(idx.root, &idx.domains)
                .unwrap(),
            4.0
        );
        // The cache entry was remapped, not dropped: a lookup still hits,
        // and the remapped handle equals a fresh compile of the same atom.
        let cached = ldb.compile_atom("R", key.clone()).unwrap();
        assert_eq!(ldb.atom_cache_stats(), (1, 1), "entry survives");
        let fresh = ldb
            .manager_mut()
            .replace_domains(idx.root, &[(idx.domains[0], q)])
            .unwrap();
        assert_eq!(cached, fresh);
    }

    #[test]
    fn node_limit_fails_index_build() {
        let mut ldb = LogicalDatabase::new(db());
        ldb.manager_mut().set_node_limit(Some(2));
        let err = ldb.build_index("R", OrderingStrategy::Schema);
        assert!(matches!(
            err,
            Err(CoreError::Bdd(relcheck_bdd::BddError::NodeLimit { .. }))
        ));
        // Recoverable: raise the limit and retry.
        ldb.manager_mut().set_node_limit(None);
        ldb.gc();
        assert!(ldb.build_index("R", OrderingStrategy::Schema).is_ok());
    }
}

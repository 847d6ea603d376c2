//! The BDD manager: shared node store, unique table, GC, and node limits.
//!
//! All BDDs live inside one [`BddManager`]; a [`Bdd`] handle is just an index
//! into the manager's node arena. Handles are `Copy` and cheap, but they are
//! only valid for the manager that produced them, and they do **not** keep
//! nodes alive across [`BddManager::gc`] — callers pass the set of roots they
//! still care about to `gc` explicitly. This mirrors how the constraint
//! checker uses the engine: it knows exactly which relation indices and
//! intermediate results are live at any point.

use crate::cache::{OpCache, OpKind, OP_KINDS};
use crate::error::{BddError, Result};
use crate::fdd::Domain;
use crate::hash::FxHashMap;
use crate::quant::VarSetData;

/// A boolean variable, identified by its level in the (fixed) global order.
/// Variable `0` is tested first (nearest the root).
pub type Var = u32;

/// Size in bytes of one BDD node in this implementation (the paper's BuDDy
/// build used 20 bytes per node; ours packs into 12 — three `u32` lanes of
/// the struct-of-arrays arena).
pub const NODE_BYTES: usize = 3 * std::mem::size_of::<u32>();

/// Operation-cache slot count of [`BddManager::new`].
pub const DEFAULT_CACHE_SLOTS: usize = 1 << 18;

/// The floor of the collection rule ([`BddManager::collection_due`]): no
/// collection is due for fewer garbage nodes than this, about 0.8 MB of
/// arena at [`NODE_BYTES`] per node.
pub const MIN_GARBAGE: usize = 1 << 16;

/// Under a node limit, a collection is due once the nodes above the kept
/// set exceed this fraction (`1/n`) of the headroom `limit − kept`.
const BUDGET_HEADROOM_SHARE: usize = 8;

/// Sentinel level for the two terminal nodes.
pub(crate) const LEVEL_TERMINAL: u32 = u32::MAX;

/// Poison level of a free-list slot: a sweep writes it into every slot it
/// frees, so stale handles fail fast in debug runs and a full collection
/// can tell free slots from live ones without consulting the free list.
const LEVEL_FREE: u32 = LEVEL_TERMINAL - 1;

/// A handle to a BDD node (and thereby to the boolean function rooted
/// there). `Copy`-able; valid only within the manager that created it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Bdd(pub(crate) u32);

impl Bdd {
    /// The constant-false BDD (empty relation).
    pub const FALSE: Bdd = Bdd(0);
    /// The constant-true BDD (full relation).
    pub const TRUE: Bdd = Bdd(1);

    /// Is this the constant `false`?
    #[inline]
    pub fn is_false(self) -> bool {
        self.0 == 0
    }

    /// Is this the constant `true`?
    #[inline]
    pub fn is_true(self) -> bool {
        self.0 == 1
    }

    /// Is this either terminal?
    #[inline]
    pub fn is_const(self) -> bool {
        self.0 <= 1
    }

    /// Raw index, exposed for diagnostics and cache keys.
    #[inline]
    pub fn index(self) -> u32 {
        self.0
    }
}

#[derive(Debug, Clone, Copy)]
pub(crate) struct Node {
    pub(crate) level: u32,
    pub(crate) low: u32,
    pub(crate) high: u32,
}

/// The node store, laid out struct-of-arrays: three parallel `u32` vectors
/// instead of one `Vec<Node>`. The hot loops of `apply`/`quant` spend most
/// of their reads on *levels alone* (the top-variable comparison that
/// steers the simultaneous descent), so giving levels their own contiguous
/// array triples the number of nodes whose steering data fits in one cache
/// line; lows and highs are only touched on the cofactor that is actually
/// taken.
#[derive(Debug, Default)]
pub(crate) struct NodeArena {
    levels: Vec<u32>,
    lows: Vec<u32>,
    highs: Vec<u32>,
}

impl NodeArena {
    /// Arena with the two terminals pre-seeded at slots 0 and 1.
    fn with_terminals() -> NodeArena {
        NodeArena {
            levels: vec![LEVEL_TERMINAL, LEVEL_TERMINAL],
            lows: vec![0, 1],
            highs: vec![0, 1],
        }
    }

    /// Total slots, terminals included.
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.levels.len()
    }

    /// The level lane alone — the only field the descent steering reads.
    #[inline]
    pub(crate) fn level(&self, i: u32) -> u32 {
        self.levels[i as usize]
    }

    /// Materialize one slot as a [`Node`] (gathers all three lanes).
    #[inline]
    pub(crate) fn get(&self, i: u32) -> Node {
        let i = i as usize;
        Node {
            level: self.levels[i],
            low: self.lows[i],
            high: self.highs[i],
        }
    }

    /// Overwrite one slot.
    #[inline]
    fn set(&mut self, i: u32, level: u32, low: u32, high: u32) {
        let i = i as usize;
        self.levels[i] = level;
        self.lows[i] = low;
        self.highs[i] = high;
    }

    /// Append a slot, returning its index.
    #[inline]
    fn push(&mut self, level: u32, low: u32, high: u32) -> u32 {
        let i = self.levels.len() as u32;
        self.levels.push(level);
        self.lows.push(low);
        self.highs.push(high);
        i
    }

    /// Drop every slot at index `new_len` and beyond.
    fn truncate(&mut self, new_len: usize) {
        self.levels.truncate(new_len);
        self.lows.truncate(new_len);
        self.highs.truncate(new_len);
    }
}

/// How many budget steps pass between wall-clock reads: recursion
/// boundaries are hit every few hundred nanoseconds, so probing the clock
/// on every step would dominate; a stride of 256 bounds deadline overshoot
/// to well under a millisecond while keeping `Instant::now` off the
/// hot path.
const DEADLINE_STRIDE: u64 = 256;

/// Statistics returned by [`BddManager::gc`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GcStats {
    /// Nodes reclaimed by this sweep.
    pub freed: usize,
    /// Live nodes after the sweep.
    pub live: usize,
}

/// Statistics returned by [`BddManager::compact`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CompactStats {
    /// Live nodes after compaction (equals the arena occupancy: the free
    /// list is empty once compaction finishes).
    pub live: usize,
    /// Arena slots released back to the allocator (dead nodes plus the
    /// free-list holes that compaction squeezed out).
    pub reclaimed_slots: usize,
    /// Live nodes that changed index (and therefore had their unique-table
    /// entries rewritten).
    pub relocated: usize,
}

/// Per-operation-kind counters: how often one recursive algorithm consulted
/// the operation cache, and with what outcome. By construction every counted
/// call performs exactly one cache probe, so the conservation law
/// `calls == cache_hits + cache_misses` holds per kind (constant-operand
/// shortcuts return before the call is counted).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpStats {
    /// Memoized (cache-probing) invocations of this operation kind.
    pub calls: u64,
    /// Cache probes that found a memoized result.
    pub cache_hits: u64,
    /// Cache probes that missed and forced recomputation.
    pub cache_misses: u64,
}

/// Cumulative manager statistics (see [`BddManager::stats`]).
#[derive(Debug, Clone, Copy, Default)]
pub struct ManagerStats {
    /// Nodes currently live (excluding the two terminals).
    pub live_nodes: usize,
    /// High-water mark of [`BddManager::arena_slots`]: live nodes plus
    /// free-list holes, so it never falls when a collection frees nodes.
    pub peak_nodes: usize,
    /// Total nodes ever created (counting re-creations after GC).
    pub created_nodes: u64,
    /// Operation-cache hits.
    pub cache_hits: u64,
    /// Operation-cache misses.
    pub cache_misses: u64,
    /// Number of GC sweeps performed.
    pub gc_runs: u64,
    /// Number of boolean variables allocated.
    pub num_vars: u32,
    /// High-water mark of recursion depth across all operations.
    pub depth_hwm: u32,
    /// Per-kind breakdown, indexed by [`OpKind::index`] in [`OpKind::ALL`]
    /// order.
    pub ops: [OpStats; OP_KINDS],
}

impl ManagerStats {
    /// The difference between this snapshot and an earlier one, covering
    /// only the monotone counters (peaks and high-water marks are left out
    /// because they do not subtract or sum meaningfully).
    pub fn delta_since(&self, before: &ManagerStats) -> StatsDelta {
        let mut ops = [OpStats::default(); OP_KINDS];
        for (i, d) in ops.iter_mut().enumerate() {
            d.calls = self.ops[i].calls - before.ops[i].calls;
            d.cache_hits = self.ops[i].cache_hits - before.ops[i].cache_hits;
            d.cache_misses = self.ops[i].cache_misses - before.ops[i].cache_misses;
        }
        StatsDelta {
            created_nodes: self.created_nodes - before.created_nodes,
            cache_hits: self.cache_hits - before.cache_hits,
            cache_misses: self.cache_misses - before.cache_misses,
            gc_runs: self.gc_runs - before.gc_runs,
            ops,
        }
    }
}

/// Monotone-counter difference between two [`ManagerStats`] snapshots.
/// Deltas are additive: the delta of work A followed by work B equals
/// `delta(A) + delta(B)` exactly, which the telemetry test suite asserts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StatsDelta {
    /// Nodes created during the window.
    pub created_nodes: u64,
    /// Operation-cache hits during the window.
    pub cache_hits: u64,
    /// Operation-cache misses during the window.
    pub cache_misses: u64,
    /// GC sweeps during the window.
    pub gc_runs: u64,
    /// Per-kind call/hit/miss deltas, indexed like [`ManagerStats::ops`].
    pub ops: [OpStats; OP_KINDS],
}

impl std::ops::Add for StatsDelta {
    type Output = StatsDelta;
    fn add(self, rhs: StatsDelta) -> StatsDelta {
        let mut out = self;
        out += rhs;
        out
    }
}

impl std::ops::AddAssign for StatsDelta {
    fn add_assign(&mut self, rhs: StatsDelta) {
        self.created_nodes += rhs.created_nodes;
        self.cache_hits += rhs.cache_hits;
        self.cache_misses += rhs.cache_misses;
        self.gc_runs += rhs.gc_runs;
        for (a, b) in self.ops.iter_mut().zip(rhs.ops.iter()) {
            a.calls += b.calls;
            a.cache_hits += b.cache_hits;
            a.cache_misses += b.cache_misses;
        }
    }
}

/// The shared-node BDD store. See the [crate-level docs](crate) for an
/// overview and the paper mapping.
pub struct BddManager {
    pub(crate) arena: NodeArena,
    unique: FxHashMap<(u32, u32, u32), u32>,
    free: Vec<u32>,
    /// Roots of the last collection, as sorted distinct slots. While each
    /// of them is again a root, that collection's survivors all survive the
    /// next one (see [`BddManager::gc`]).
    gc_roots: Vec<u32>,
    /// Arena length at the end of the last collection: every slot from
    /// here on was created since.
    young_from: usize,
    /// Free-list slots `mk` has reused since the last collection.
    reused: Vec<u32>,
    /// Live nodes at the end of the last collection, plus the nodes bulk
    /// builds added since: what the collection rule does not count as
    /// garbage (see [`BddManager::collection_due`]).
    kept_nodes: usize,
    pub(crate) cache: OpCache,
    num_vars: u32,
    node_limit: Option<usize>,
    deadline: Option<std::time::Instant>,
    /// Monotone count of budget probes (one per memoized recursive call).
    /// Doubles as the deterministic key for the `apply` failpoint site.
    budget_steps: u64,
    pub(crate) domains: Vec<Domain>,
    pub(crate) varsets: Vec<VarSetData>,
    pub(crate) varset_lookup: FxHashMap<Vec<Var>, u32>,
    pub(crate) replace_maps: Vec<Vec<Var>>,
    pub(crate) replace_lookup: FxHashMap<Vec<Var>, u32>,
    peak_nodes: usize,
    created_nodes: u64,
    gc_runs: u64,
    op_calls: [u64; OP_KINDS],
    cur_depth: u32,
    depth_hwm: u32,
    /// `sat_count`'s memo, kept between calls (see [`crate::sat`]).
    pub(crate) sat_memo: crate::sat::SatMemo,
}

impl Default for BddManager {
    fn default() -> Self {
        Self::new()
    }
}

impl BddManager {
    /// Create a manager with [`DEFAULT_CACHE_SLOTS`] operation-cache slots.
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_CACHE_SLOTS)
    }

    /// Create a manager with a caller-chosen operation-cache size (slots,
    /// rounded up to a power of two).
    pub fn with_capacity(cache_slots: usize) -> Self {
        BddManager {
            arena: NodeArena::with_terminals(),
            unique: FxHashMap::default(),
            free: Vec::new(),
            gc_roots: Vec::new(),
            young_from: 2,
            reused: Vec::new(),
            kept_nodes: 0,
            cache: OpCache::new(cache_slots),
            num_vars: 0,
            node_limit: None,
            deadline: None,
            budget_steps: 0,
            domains: Vec::new(),
            varsets: Vec::new(),
            varset_lookup: FxHashMap::default(),
            replace_maps: Vec::new(),
            replace_lookup: FxHashMap::default(),
            peak_nodes: 0,
            created_nodes: 0,
            gc_runs: 0,
            op_calls: [0; OP_KINDS],
            cur_depth: 0,
            depth_hwm: 0,
            sat_memo: Default::default(),
        }
    }

    /// Count one memoized invocation of `kind`. Call sites place this
    /// immediately before the cache probe so the per-kind conservation law
    /// `calls == hits + misses` holds exactly.
    #[inline]
    pub(crate) fn count_op(&mut self, kind: OpKind) {
        self.op_calls[kind.index()] += 1;
    }

    /// Enter one recursion level; updates the depth high-water mark.
    #[inline]
    pub(crate) fn depth_enter(&mut self) {
        self.cur_depth += 1;
        if self.cur_depth > self.depth_hwm {
            self.depth_hwm = self.cur_depth;
        }
    }

    /// Leave one recursion level. Must run even on error paths (call sites
    /// capture the recursive result before `?`).
    #[inline]
    pub(crate) fn depth_exit(&mut self) {
        self.cur_depth -= 1;
    }

    /// Set (or clear) the live-node limit. When the limit is exceeded the
    /// in-flight operation aborts with [`BddError::NodeLimit`] — the paper's
    /// size-threshold strategy for falling back to SQL.
    pub fn set_node_limit(&mut self, limit: Option<usize>) {
        self.node_limit = limit;
    }

    /// Arm (or clear) the cooperative wall-clock deadline. Once the instant
    /// passes, any in-flight memoized operation aborts with
    /// [`BddError::Deadline`] at its next recursion boundary (checked every
    /// 256 steps, so overshoot is bounded and small).
    pub fn set_deadline(&mut self, deadline: Option<std::time::Instant>) {
        self.deadline = deadline;
    }

    /// The armed deadline, if any.
    pub fn deadline(&self) -> Option<std::time::Instant> {
        self.deadline
    }

    /// The cooperative cancellation probe, called at every memoized
    /// recursion boundary *before* the call is counted (so an abort never
    /// breaks the `calls == hits + misses` conservation law). Checks the
    /// `apply` failpoint site (keyed by the monotone step counter) and,
    /// every [`DEADLINE_STRIDE`] steps, the wall-clock deadline.
    #[inline]
    pub(crate) fn budget_check(&mut self) -> Result<()> {
        self.budget_steps += 1;
        if crate::failpoint::enabled()
            && crate::failpoint::should_fail(crate::failpoint::APPLY, self.budget_steps)
        {
            return Err(BddError::FaultInjected {
                site: crate::failpoint::APPLY,
            });
        }
        if let Some(deadline) = self.deadline {
            if self.budget_steps.is_multiple_of(DEADLINE_STRIDE)
                && std::time::Instant::now() >= deadline
            {
                return Err(BddError::Deadline {
                    steps: self.budget_steps,
                });
            }
        }
        Ok(())
    }

    /// Number of live (reachable-or-not, but unreclaimed) nodes, excluding
    /// the two terminals.
    #[inline]
    pub fn live_nodes(&self) -> usize {
        self.arena.len() - 2 - self.free.len()
    }

    /// Live nodes the collection rule counts as kept: those the last
    /// collection kept, plus those [`BddManager::relation_from_rows`] and
    /// [`BddManager::import_relation`] built since.
    #[inline]
    pub fn kept_nodes(&self) -> usize {
        self.kept_nodes
    }

    /// How many nodes may pile up above the kept set before a collection is
    /// due: as many as are kept (the arena may double), and at least
    /// [`MIN_GARBAGE`]. Under a node limit, at most an eighth of the
    /// headroom `limit − kept`, since garbage counts toward the limit.
    pub fn garbage_allowance(&self) -> usize {
        let doubling = self.kept_nodes.max(MIN_GARBAGE);
        match self.node_limit {
            Some(limit) => {
                doubling.min(limit.saturating_sub(self.kept_nodes) / BUDGET_HEADROOM_SHARE)
            }
            None => doubling,
        }
    }

    /// The collection rule: is a [`BddManager::gc`] due? True once the live
    /// nodes above the kept set exceed [`BddManager::garbage_allowance`].
    /// Like BuDDy, which collects only when its node table runs out, the
    /// rule lets garbage pile up so that the operation cache survives
    /// from one operation to the next. It reads node counts only, never a
    /// clock, so a seeded run collects at the same points every time.
    pub fn collection_due(&self) -> bool {
        self.live_nodes().saturating_sub(self.kept_nodes) > self.garbage_allowance()
    }

    /// Count the nodes made since the live count was `live_before` as kept:
    /// a fresh relation is not garbage.
    pub(crate) fn keep_since(&mut self, live_before: usize) {
        self.kept_nodes += self.live_nodes().saturating_sub(live_before);
    }

    /// Total arena slots currently allocated, excluding the two terminals
    /// (live nodes plus free-list holes). [`ManagerStats::peak_nodes`] is
    /// the monotone high-water mark of this value.
    #[inline]
    pub fn arena_slots(&self) -> usize {
        self.arena.len() - 2
    }

    /// Number of boolean variables allocated so far.
    #[inline]
    pub fn num_vars(&self) -> u32 {
        self.num_vars
    }

    /// Allocate a fresh boolean variable at the next (deepest) level.
    pub fn new_var(&mut self) -> Var {
        let v = self.num_vars;
        self.num_vars += 1;
        v
    }

    /// The BDD of the literal `x_v` (true iff variable `v` is set).
    pub fn var(&mut self, v: Var) -> Result<Bdd> {
        debug_assert!(v < self.num_vars, "variable {v} not allocated");
        self.mk(v, Bdd::FALSE, Bdd::TRUE)
    }

    /// The BDD of the negative literal `¬x_v`.
    pub fn nvar(&mut self, v: Var) -> Result<Bdd> {
        debug_assert!(v < self.num_vars, "variable {v} not allocated");
        self.mk(v, Bdd::TRUE, Bdd::FALSE)
    }

    #[inline]
    pub(crate) fn node(&self, f: Bdd) -> Node {
        self.arena.get(f.0)
    }

    /// Level of the root node (`LEVEL_TERMINAL` for constants). Reads only
    /// the arena's level lane — this is the steering probe of every
    /// simultaneous descent, and the reason the arena is struct-of-arrays.
    #[inline]
    pub(crate) fn level(&self, f: Bdd) -> u32 {
        self.arena.level(f.0)
    }

    /// The variable tested at the root, if `f` is not a constant.
    pub fn root_var(&self, f: Bdd) -> Option<Var> {
        let l = self.level(f);
        (l != LEVEL_TERMINAL).then_some(l)
    }

    /// Low (else) and high (then) cofactors at the root. Constants cofactor
    /// to themselves.
    pub fn cofactors(&self, f: Bdd) -> (Bdd, Bdd) {
        let n = self.node(f);
        (Bdd(n.low), Bdd(n.high))
    }

    /// Hash-consing constructor: returns the canonical node for
    /// `(level, low, high)`, applying the ROBDD reduction rules.
    pub(crate) fn mk(&mut self, level: u32, low: Bdd, high: Bdd) -> Result<Bdd> {
        if low == high {
            return Ok(low);
        }
        debug_assert!(
            self.level(low) > level && self.level(high) > level,
            "mk would violate variable order: level {level}, children at {} and {}",
            self.level(low),
            self.level(high)
        );
        let key = (level, low.0, high.0);
        if let Some(&idx) = self.unique.get(&key) {
            return Ok(Bdd(idx));
        }
        if let Some(limit) = self.node_limit {
            if self.live_nodes() >= limit {
                return Err(BddError::NodeLimit {
                    limit,
                    live: self.live_nodes(),
                });
            }
        }
        let idx = match self.free.pop() {
            Some(i) => {
                self.arena.set(i, level, low.0, high.0);
                self.reused.push(i);
                i
            }
            None => self.arena.push(level, low.0, high.0),
        };
        self.unique.insert(key, idx);
        self.created_nodes += 1;
        // Arena high-water mark, not the live count: compaction and GC can
        // shrink occupancy, but the peak must stay the honest footprint
        // ceiling (monotone, so telemetry snapshots never see it move
        // backwards mid-run).
        self.peak_nodes = self.peak_nodes.max(self.arena_slots());
        Ok(Bdd(idx))
    }

    /// Evaluate `f` under a total assignment given as a closure from
    /// variable to boolean. Allocation-free.
    pub fn eval(&self, f: Bdd, assignment: impl Fn(Var) -> bool) -> bool {
        let mut cur = f;
        loop {
            if cur.is_const() {
                return cur.is_true();
            }
            let n = self.node(cur);
            cur = if assignment(n.level) {
                Bdd(n.high)
            } else {
                Bdd(n.low)
            };
        }
    }

    /// Number of nodes in the (shared) graph rooted at `f`, excluding
    /// terminals. This is the "BDD size" the paper reports.
    pub fn size(&self, f: Bdd) -> usize {
        if f.is_const() {
            return 0;
        }
        let mut seen =
            std::collections::HashSet::with_hasher(crate::hash::FxBuildHasher::default());
        let mut stack = vec![f.0];
        while let Some(i) = stack.pop() {
            if i <= 1 || !seen.insert(i) {
                continue;
            }
            let n = self.arena.get(i);
            stack.push(n.low);
            stack.push(n.high);
        }
        seen.len()
    }

    /// Combined node count of several roots, counting shared nodes once —
    /// what an index set actually occupies.
    pub fn size_shared(&self, roots: &[Bdd]) -> usize {
        let mut seen =
            std::collections::HashSet::with_hasher(crate::hash::FxBuildHasher::default());
        let mut stack: Vec<u32> = roots.iter().map(|b| b.0).collect();
        while let Some(i) = stack.pop() {
            if i <= 1 || !seen.insert(i) {
                continue;
            }
            let n = self.arena.get(i);
            stack.push(n.low);
            stack.push(n.high);
        }
        seen.len()
    }

    /// The set of variables appearing in `f`, sorted ascending.
    pub fn support(&self, f: Bdd) -> Vec<Var> {
        let mut seen =
            std::collections::HashSet::with_hasher(crate::hash::FxBuildHasher::default());
        let mut vars = std::collections::BTreeSet::new();
        let mut stack = vec![f.0];
        while let Some(i) = stack.pop() {
            if i <= 1 || !seen.insert(i) {
                continue;
            }
            let n = self.arena.get(i);
            vars.insert(n.level);
            stack.push(n.low);
            stack.push(n.high);
        }
        vars.into_iter().collect()
    }

    /// Mark-and-sweep garbage collection. Every node not reachable from
    /// `roots` is reclaimed onto the free list, in ascending slot order; the
    /// operation cache is invalidated (node indices may be recycled).
    ///
    /// The collection is generational when every root of the previous
    /// collection (or [`BddManager::compact`]) is again among `roots` — the
    /// steady state while no delta moves an index root. The previous
    /// survivors are then all still reachable, and a node never points at
    /// a younger one, so only the nodes created since — slots appended past
    /// the previous arena length and free-list slots `mk` reused — are
    /// marked and swept.
    /// Otherwise every occupied slot is. Either way the same nodes are
    /// freed, in the same order.
    pub fn gc(&mut self, roots: &[Bdd]) -> GcStats {
        let root_slots = sorted_slots(roots);
        let young = is_sorted_subset(&self.gc_roots, &root_slots);
        self.collect(roots, root_slots, young)
    }

    /// [`BddManager::gc`] that always marks and sweeps every occupied slot:
    /// the reference the generational path is tested against.
    #[doc(hidden)]
    pub fn gc_full(&mut self, roots: &[Bdd]) -> GcStats {
        self.collect(roots, sorted_slots(roots), false)
    }

    /// Mark from `roots` through the young slots (or every occupied slot)
    /// and free the candidates left unmarked.
    fn collect(&mut self, roots: &[Bdd], root_slots: Vec<u32>, young: bool) -> GcStats {
        let len = self.arena.len() as u32;
        let candidates: Vec<u32> = if young {
            let mut slots = std::mem::take(&mut self.reused);
            slots.sort_unstable();
            slots.extend(self.young_from as u32..len);
            slots
        } else {
            (2..len)
                .filter(|&i| self.arena.level(i) != LEVEL_FREE)
                .collect()
        };
        let live = self.mark(roots, &candidates);
        let mut freed = 0;
        for &i in &candidates {
            if !live[i as usize] {
                let n = self.arena.get(i);
                self.unique.remove(&(n.level, n.low, n.high));
                self.arena.set(i, LEVEL_FREE, 0, 0);
                self.free.push(i);
                freed += 1;
            }
        }
        self.finish_collection(root_slots);
        GcStats {
            freed,
            live: self.live_nodes(),
        }
    }

    /// Record `root_slots` as the roots of the collection just done: the
    /// nodes created from here on are the next collection's young ones.
    fn finish_collection(&mut self, root_slots: Vec<u32>) {
        self.gc_roots = root_slots;
        self.young_from = self.arena.len();
        self.reused.clear();
        self.kept_nodes = self.live_nodes();
        self.cache.invalidate();
        self.gc_runs += 1;
    }

    /// Reachability from `roots` through the `candidates` slots: false
    /// exactly at the candidates no root reaches. Every other slot reads
    /// true and is not descended into.
    fn mark(&self, roots: &[Bdd], candidates: &[u32]) -> Vec<bool> {
        let mut live = vec![true; self.arena.len()];
        for &i in candidates {
            live[i as usize] = false;
        }
        let mut stack: Vec<u32> = roots.iter().map(|b| b.0).collect();
        while let Some(i) = stack.pop() {
            if live[i as usize] {
                continue;
            }
            live[i as usize] = true;
            let n = self.arena.get(i);
            stack.push(n.low);
            stack.push(n.high);
        }
        live
    }

    /// In-place arena compaction: slide every node reachable from `roots`
    /// down into the lowest-numbered slots (preserving their relative
    /// order), rewrite all child pointers and unique-table entries,
    /// truncate the arena, and empty the free list. Unreachable nodes are
    /// reclaimed as a side effect — compaction subsumes a
    /// [`BddManager::gc`] sweep (and counts as one in
    /// [`ManagerStats::gc_runs`]; the next `gc` is young if it keeps
    /// these roots).
    ///
    /// The handles in `roots` are **remapped in place**; every other
    /// outstanding [`Bdd`] handle is invalidated, exactly like handles not
    /// passed to `gc`. The operation cache is invalidated (indices moved),
    /// and [`ManagerStats::peak_nodes`] is untouched: it is the monotone
    /// arena high-water mark, not the post-compaction occupancy.
    pub fn compact(&mut self, roots: &mut [Bdd]) -> CompactStats {
        let slots_before = self.arena.len();
        let all: Vec<u32> = (2..slots_before as u32).collect();
        let marked = self.mark(roots, &all);
        // Destination of every live slot. A child may sit above its parent
        // (`mk` reuses the highest freed slot first), so `remap` is filled
        // completely before any node is rewritten. Live nodes keep their
        // relative order, so `remap[i] <= i`: a slot is read before any
        // write can land on it.
        let mut remap: Vec<u32> = vec![0; slots_before];
        let mut next: u32 = 2;
        let mut relocated = 0usize;
        remap[1] = 1;
        for i in 2..slots_before {
            if marked[i] {
                remap[i] = next;
                if next as usize != i {
                    relocated += 1;
                }
                next += 1;
            }
        }
        self.unique.clear();
        for i in 2..slots_before {
            if !marked[i] {
                continue;
            }
            let n = self.arena.get(i as u32);
            let (level, low, high) = (n.level, remap[n.low as usize], remap[n.high as usize]);
            self.arena.set(remap[i], level, low, high);
            self.unique.insert((level, low, high), remap[i]);
        }
        self.arena.truncate(next as usize);
        self.free.clear();
        for r in roots.iter_mut() {
            *r = Bdd(remap[r.0 as usize]);
        }
        self.finish_collection(sorted_slots(roots));
        CompactStats {
            live: self.live_nodes(),
            reclaimed_slots: slots_before - next as usize,
            relocated,
        }
    }

    /// Snapshot of cumulative statistics.
    pub fn stats(&self) -> ManagerStats {
        let mut ops = [OpStats::default(); OP_KINDS];
        for (i, kind) in OpKind::ALL.iter().enumerate() {
            ops[i] = OpStats {
                calls: self.op_calls[i],
                cache_hits: self.cache.kind_hits(*kind),
                cache_misses: self.cache.kind_misses(*kind),
            };
        }
        ManagerStats {
            live_nodes: self.live_nodes(),
            peak_nodes: self.peak_nodes,
            created_nodes: self.created_nodes,
            cache_hits: self.cache.hits(),
            cache_misses: self.cache.misses(),
            gc_runs: self.gc_runs,
            num_vars: self.num_vars,
            depth_hwm: self.depth_hwm,
            ops,
        }
    }
}

/// The slots of `roots`, sorted and deduplicated.
fn sorted_slots(roots: &[Bdd]) -> Vec<u32> {
    let mut slots: Vec<u32> = roots.iter().map(|b| b.0).collect();
    slots.sort_unstable();
    slots.dedup();
    slots
}

/// Is every element of sorted `sub` also in sorted `sup`?
fn is_sorted_subset(sub: &[u32], sup: &[u32]) -> bool {
    let mut rest = sup.iter();
    sub.iter().all(|x| rest.any(|y| y == x))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn terminals_are_fixed() {
        let m = BddManager::new();
        assert!(Bdd::FALSE.is_false());
        assert!(Bdd::TRUE.is_true());
        assert!(Bdd::TRUE.is_const() && Bdd::FALSE.is_const());
        assert_eq!(m.live_nodes(), 0);
        assert_eq!(m.size(Bdd::TRUE), 0);
    }

    #[test]
    fn mk_reduces_equal_children() {
        let mut m = BddManager::new();
        let v = m.new_var();
        let f = m.mk(v, Bdd::TRUE, Bdd::TRUE).unwrap();
        assert_eq!(f, Bdd::TRUE);
        assert_eq!(m.live_nodes(), 0);
    }

    #[test]
    fn mk_is_hash_consed() {
        let mut m = BddManager::new();
        let v = m.new_var();
        let a = m.var(v).unwrap();
        let b = m.var(v).unwrap();
        assert_eq!(a, b);
        assert_eq!(m.live_nodes(), 1);
    }

    #[test]
    fn var_and_nvar_evaluate() {
        let mut m = BddManager::new();
        let v = m.new_var();
        let x = m.var(v).unwrap();
        let nx = m.nvar(v).unwrap();
        assert!(m.eval(x, |_| true));
        assert!(!m.eval(x, |_| false));
        assert!(!m.eval(nx, |_| true));
        assert!(m.eval(nx, |_| false));
    }

    #[test]
    fn node_limit_aborts_and_recovers() {
        let mut m = BddManager::new();
        for _ in 0..8 {
            m.new_var();
        }
        m.set_node_limit(Some(3));
        // Building x0 ∧ x1 ∧ ... eventually needs more than 3 nodes.
        let mut err = None;
        let mut acc = Bdd::TRUE;
        for v in 0..8 {
            let x = match m.var(v) {
                Ok(x) => x,
                Err(e) => {
                    err = Some(e);
                    break;
                }
            };
            match m.and(acc, x) {
                Ok(f) => acc = f,
                Err(e) => {
                    err = Some(e);
                    break;
                }
            }
        }
        assert!(matches!(err, Some(BddError::NodeLimit { limit: 3, .. })));
        // Manager remains usable after raising the limit.
        m.set_node_limit(None);
        let x = m.var(7).unwrap();
        let y = m.var(6).unwrap();
        let f = m.and(x, y).unwrap();
        assert!(m.eval(f, |_| true));
    }

    #[test]
    fn gc_reclaims_unrooted_nodes() {
        let mut m = BddManager::new();
        let v0 = m.new_var();
        let v1 = m.new_var();
        let x = m.var(v0).unwrap();
        let y = m.var(v1).unwrap();
        let keep = m.and(x, y).unwrap();
        let _dead = m.or(x, y).unwrap();
        let before = m.live_nodes();
        let stats = m.gc(&[keep]);
        assert!(stats.freed > 0);
        assert_eq!(stats.live, before - stats.freed);
        // keep is still correct.
        assert!(m.eval(keep, |_| true));
        assert!(!m.eval(keep, |v| v == v0));
    }

    #[test]
    fn gc_reuses_freed_slots() {
        let mut m = BddManager::new();
        let v0 = m.new_var();
        let v1 = m.new_var();
        let x = m.var(v0).unwrap();
        let y = m.var(v1).unwrap();
        let _dead = m.and(x, y).unwrap();
        m.gc(&[x, y]);
        let arena_len = m.arena.len();
        // New allocation should reuse the freed slot, not grow the arena.
        let f = m.or(x, y).unwrap();
        assert_eq!(m.arena.len(), arena_len);
        assert!(m.eval(f, |v| v == v0));
    }

    #[test]
    fn compact_remaps_roots_and_preserves_semantics() {
        let mut m = BddManager::new();
        let v0 = m.new_var();
        let v1 = m.new_var();
        let v2 = m.new_var();
        let x = m.var(v0).unwrap();
        let y = m.var(v1).unwrap();
        let z = m.var(v2).unwrap();
        // Garbage first so live nodes end up at high indices.
        for _ in 0..4 {
            let j = m.xor(x, y).unwrap();
            let _ = m.and(j, z).unwrap();
        }
        m.gc(&[x, y, z]);
        let keep_a = m.and(x, y).unwrap();
        let keep_b = m.or(keep_a, z).unwrap();
        let size_a = m.size(keep_a);
        let size_b = m.size(keep_b);
        let mut roots = [keep_a, keep_b];
        let stats = m.compact(&mut roots);
        assert_eq!(stats.live, m.live_nodes());
        assert_eq!(stats.live + 2, m.arena.len(), "free list squeezed out");
        let (keep_a, keep_b) = (roots[0], roots[1]);
        // Same functions, same structure.
        assert_eq!(m.size(keep_a), size_a);
        assert_eq!(m.size(keep_b), size_b);
        for bits in 0..8u32 {
            let assign = |v: Var| bits >> v & 1 == 1;
            assert_eq!(m.eval(keep_a, assign), assign(v0) && assign(v1));
            assert_eq!(
                m.eval(keep_b, assign),
                (assign(v0) && assign(v1)) || assign(v2)
            );
        }
        // The compacted manager keeps hash-consing correctly: rebuilding a
        // kept function returns the (remapped) canonical node.
        let xa = m.var(v0).unwrap();
        let xb = m.var(v1).unwrap();
        let again = m.and(xa, xb).unwrap();
        assert_eq!(again, keep_a);
    }

    #[test]
    fn compact_handles_parents_below_their_children() {
        let mut m = BddManager::new();
        let vars: Vec<Var> = (0..3).map(|_| m.new_var()).collect();
        // Five garbage nodes at slots 2..=6; the sweep frees them all, and
        // `mk` reuses the highest freed slot first.
        for &v in &vars[..2] {
            m.var(v).unwrap();
            m.nvar(v).unwrap();
        }
        m.var(vars[2]).unwrap();
        m.gc(&[]);
        // Built bottom-up, so each parent lands one slot below its child.
        let x2 = m.var(vars[2]).unwrap();
        let f = m.mk(vars[1], Bdd::FALSE, x2).unwrap();
        let g = m.mk(vars[0], f, Bdd::TRUE).unwrap();
        assert_eq!((g.0, f.0, x2.0), (4, 5, 6));
        let vs = m.varset(&vars);
        let count = m.sat_count(g, vs);
        let frame = m.export(g).to_bytes();
        let mut roots = [g];
        let stats = m.compact(&mut roots);
        assert_eq!(stats.relocated, 3);
        assert_eq!(roots[0], Bdd(2));
        assert_eq!(m.sat_count(roots[0], vs), count);
        assert_eq!(m.export(roots[0]).to_bytes(), frame);
    }

    #[test]
    fn compact_is_idempotent_and_keeps_peak() {
        let mut m = BddManager::new();
        let d = {
            for _ in 0..6 {
                m.new_var();
            }
            let mut acc = Bdd::TRUE;
            for v in 0..6 {
                let x = m.var(v).unwrap();
                acc = m.and(acc, x).unwrap();
            }
            acc
        };
        let _junk = {
            let a = m.var(0).unwrap();
            let b = m.var(5).unwrap();
            m.xor(a, b).unwrap()
        };
        let peak_before = m.stats().peak_nodes;
        let mut roots = [d];
        let first = m.compact(&mut roots);
        assert!(first.reclaimed_slots > 0);
        let second = m.compact(&mut roots);
        assert_eq!(second.reclaimed_slots, 0, "second pass finds nothing");
        assert_eq!(second.relocated, 0);
        assert_eq!(m.stats().peak_nodes, peak_before, "peak is monotone");
        assert!(m.eval(roots[0], |_| true));
    }

    #[test]
    fn double_gc_does_not_double_free() {
        let mut m = BddManager::new();
        let v0 = m.new_var();
        let v1 = m.new_var();
        let x = m.var(v0).unwrap();
        let y = m.var(v1).unwrap();
        let _dead = m.and(x, y).unwrap();
        m.gc(&[x, y]);
        let free_after_first = m.free.len();
        m.gc(&[x, y]);
        assert_eq!(m.free.len(), free_after_first);
    }

    #[test]
    fn size_counts_distinct_nodes() {
        let mut m = BddManager::new();
        let v0 = m.new_var();
        let v1 = m.new_var();
        let x = m.var(v0).unwrap();
        let y = m.var(v1).unwrap();
        let f = m.and(x, y).unwrap();
        // x0 ∧ x1 is two internal nodes.
        assert_eq!(m.size(f), 2);
        assert_eq!(m.size_shared(&[f, y]), 2); // y is shared inside f
    }

    #[test]
    fn support_reports_used_vars() {
        let mut m = BddManager::new();
        let vars: Vec<Var> = (0..4).map(|_| m.new_var()).collect();
        let x0 = m.var(vars[0]).unwrap();
        let x2 = m.var(vars[2]).unwrap();
        let f = m.xor(x0, x2).unwrap();
        assert_eq!(m.support(f), vec![vars[0], vars[2]]);
        assert!(m.support(Bdd::TRUE).is_empty());
    }

    #[test]
    fn stats_track_peak_and_cache() {
        let mut m = BddManager::new();
        let v0 = m.new_var();
        let v1 = m.new_var();
        let x = m.var(v0).unwrap();
        let y = m.var(v1).unwrap();
        let _f = m.and(x, y).unwrap();
        let _g = m.and(x, y).unwrap(); // cache hit
        let s = m.stats();
        assert!(s.peak_nodes >= s.live_nodes);
        assert!(s.cache_hits >= 1);
        assert_eq!(s.num_vars, 2);
    }

    /// Make garbage, one unrooted cube of a 2²⁴-value domain at a time,
    /// until more than `target` nodes are live. A cube adds at most 24.
    fn pile_up(m: &mut BddManager, d: crate::DomainId, next: &mut u64, target: usize) {
        while m.live_nodes() <= target {
            m.insert_row(Bdd::FALSE, &[d], &[*next]).unwrap();
            *next += 1;
        }
    }

    /// A two-column relation of `n` distinct seeded rows over 2¹⁶-value
    /// domains, built through [`BddManager::relation_from_rows`].
    fn relation(m: &mut BddManager, n: u64) -> (Bdd, [crate::DomainId; 2]) {
        let a = m.add_domain(1 << 16).unwrap();
        let b = m.add_domain(1 << 16).unwrap();
        let rows: Vec<Vec<u64>> = (0..n)
            .map(|i| {
                vec![
                    i.wrapping_mul(40_503) % (1 << 16),
                    i.wrapping_mul(7_919) % (1 << 16),
                ]
            })
            .collect();
        (m.relation_from_rows(&[a, b], &rows).unwrap(), [a, b])
    }

    #[test]
    fn collection_waits_for_the_floor() {
        let mut m = BddManager::new();
        let d = m.add_domain(1 << 24).unwrap();
        let mut next = 0;
        assert_eq!((m.kept_nodes(), m.garbage_allowance()), (0, MIN_GARBAGE));
        pile_up(&mut m, d, &mut next, MIN_GARBAGE - 25);
        assert!(!m.collection_due(), "{} live", m.live_nodes());
        pile_up(&mut m, d, &mut next, MIN_GARBAGE);
        assert!(m.collection_due(), "{} live", m.live_nodes());
        let runs = m.stats().gc_runs;
        m.gc(&[]);
        assert_eq!(m.stats().gc_runs, runs + 1);
        assert_eq!(m.kept_nodes(), 0);
        assert!(!m.collection_due());
    }

    #[test]
    fn a_fresh_build_is_not_garbage() {
        let mut m = BddManager::new();
        let (r, doms) = relation(&mut m, 40_000);
        assert!(m.live_nodes() > 2 * MIN_GARBAGE, "{} live", m.live_nodes());
        assert_eq!(m.kept_nodes(), m.live_nodes());
        assert!(!m.collection_due());
        // An imported relation is not garbage either.
        let exported = m.export_relation(r, &doms).unwrap();
        let mut w = BddManager::new();
        w.import_relation(&exported).unwrap();
        assert_eq!(w.kept_nodes(), w.live_nodes());
        assert_eq!(w.live_nodes(), m.size(r));
        assert!(!w.collection_due());
    }

    #[test]
    fn collection_waits_for_the_arena_to_double() {
        let mut m = BddManager::new();
        let (r, _) = relation(&mut m, 40_000);
        let kept = m.size(r);
        let d = m.add_domain(1 << 24).unwrap();
        let mut next = 0;
        // Garbage the size of the floor is not enough once more is kept.
        pile_up(&mut m, d, &mut next, kept + MIN_GARBAGE);
        assert!(!m.collection_due());
        assert_eq!(m.garbage_allowance(), kept);
        pile_up(&mut m, d, &mut next, 2 * kept - 25);
        assert!(
            !m.collection_due(),
            "{} live of {kept} kept",
            m.live_nodes()
        );
        pile_up(&mut m, d, &mut next, 2 * kept);
        assert!(m.collection_due(), "{} live of {kept} kept", m.live_nodes());
        m.gc(&[r]);
        assert_eq!(m.kept_nodes(), kept);
        assert!(!m.collection_due());
    }

    #[test]
    fn a_node_budget_collects_at_an_eighth_of_its_headroom() {
        let mut m = BddManager::new();
        let (r, _) = relation(&mut m, 500);
        let kept = m.kept_nodes();
        let limit = kept + 8_000;
        m.set_node_limit(Some(limit));
        assert_eq!(m.garbage_allowance(), 1_000);
        let d = m.add_domain(1 << 24).unwrap();
        let mut next = 0;
        pile_up(&mut m, d, &mut next, kept + 1_000 - 25);
        assert!(
            !m.collection_due(),
            "{} live of {kept} kept",
            m.live_nodes()
        );
        pile_up(&mut m, d, &mut next, kept + 1_000);
        assert!(m.collection_due(), "{} live of {kept} kept", m.live_nodes());
        // Without the budget the same garbage sits below the floor.
        m.set_node_limit(None);
        assert!(!m.collection_due());
        m.set_node_limit(Some(limit));
        m.gc(&[r]);
        assert!(!m.collection_due());
        // A kept set at the limit leaves no room for garbage at all.
        m.set_node_limit(Some(kept));
        assert_eq!(m.garbage_allowance(), 0);
    }
}

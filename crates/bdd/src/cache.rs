//! Direct-mapped operation cache (BuDDy-style).
//!
//! Every recursive BDD algorithm is memoized through a single fixed-size,
//! direct-mapped cache: a hash of the operation code and its (up to three)
//! operands selects a slot, and a colliding insert simply overwrites. This
//! trades a small amount of recomputation for O(1) lookup with no
//! allocation on the hot path — the standard design in production BDD
//! packages. The cache must be invalidated whenever node indices are
//! recycled (i.e. after garbage collection); that costs O(1), because
//! each entry carries the generation it was written in.

use crate::hash::mix3;

/// Operation codes for cache keys. Binary connectives use the low bits of
/// their [`crate::Op`] discriminant offset into the `APPLY` block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum OpCode {
    /// `apply(op, f, g)`; the connective is encoded in the code itself.
    Apply(u8),
    /// `not(f)`.
    Not,
    /// `ite(f, g, h)`.
    Ite,
    /// `exists(f, varset)`.
    Exists,
    /// `forall(f, varset)`.
    Forall,
    /// `app_exists(op, f, g, varset)`.
    AppExists(u8),
    /// `app_forall(op, f, g, varset)`.
    AppForall(u8),
    /// `replace(f, map)`.
    Replace,
    /// `restrict(f, cube)`.
    Restrict,
    /// `constrain(f, care)` — Coudert–Madre generalized cofactor.
    Constrain,
    /// `and_is_false(f, g, h)`: the result word is 1 if the conjunction is
    /// empty, 0 if it has a satisfying path (never a node handle).
    AndIsFalse,
}

/// Bits of an entry's op word that hold the [`OpCode`]; the bits above
/// hold the cache generation the entry was written in.
const CODE_BITS: u32 = 12;

/// Generations before the tag wraps and the slots must really be emptied.
const GENERATIONS: u32 = 1 << (32 - CODE_BITS);

impl OpCode {
    /// A nonzero code below `1 << CODE_BITS`.
    #[inline]
    fn encode(self) -> u32 {
        match self {
            OpCode::Apply(op) => 0x100 | op as u32,
            OpCode::Not => 0x200,
            OpCode::Ite => 0x300,
            OpCode::Exists => 0x400,
            OpCode::Forall => 0x500,
            OpCode::AppExists(op) => 0x600 | op as u32,
            OpCode::AppForall(op) => 0x700 | op as u32,
            OpCode::Replace => 0x800,
            OpCode::Restrict => 0x900,
            OpCode::Constrain => 0xA00,
            OpCode::AndIsFalse => 0xB00,
        }
    }

    /// The telemetry bucket this code falls into (binary connectives of one
    /// family share a bucket regardless of the concrete connective).
    #[inline]
    pub(crate) fn kind(self) -> OpKind {
        match self {
            OpCode::Apply(_) | OpCode::AndIsFalse => OpKind::Apply,
            OpCode::Not => OpKind::Not,
            OpCode::Ite => OpKind::Ite,
            OpCode::Exists => OpKind::Exists,
            OpCode::Forall => OpKind::Forall,
            OpCode::AppExists(_) => OpKind::AppExists,
            OpCode::AppForall(_) => OpKind::AppForall,
            OpCode::Replace => OpKind::Replace,
            OpCode::Restrict => OpKind::Restrict,
            OpCode::Constrain => OpKind::Constrain,
        }
    }
}

/// The kinds of memoized BDD operations, as reported by
/// [`crate::ManagerStats`]. Each kind aggregates one recursive algorithm:
/// `Apply` covers every binary connective, `AppExists`/`AppForall` the fused
/// apply-quantify operators, and so on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpKind {
    /// Binary connectives (`and`, `or`, `imp`, …) via `apply`, and the
    /// non-constructive conjunction test `and_is_false`.
    Apply,
    /// Negation.
    Not,
    /// If-then-else.
    Ite,
    /// Existential quantification.
    Exists,
    /// Universal quantification.
    Forall,
    /// Fused `∃x̄ (f op g)` (BuDDy `bdd_appex`).
    AppExists,
    /// Fused `∀x̄ (f op g)` (BuDDy `bdd_appall`).
    AppForall,
    /// Variable renaming.
    Replace,
    /// Restriction by a cube.
    Restrict,
    /// Coudert–Madre generalized cofactor.
    Constrain,
}

/// Number of [`OpKind`] variants (array-table size).
pub const OP_KINDS: usize = 10;

impl OpKind {
    /// Every kind, in stable (serialization) order.
    pub const ALL: [OpKind; OP_KINDS] = [
        OpKind::Apply,
        OpKind::Not,
        OpKind::Ite,
        OpKind::Exists,
        OpKind::Forall,
        OpKind::AppExists,
        OpKind::AppForall,
        OpKind::Replace,
        OpKind::Restrict,
        OpKind::Constrain,
    ];

    /// Stable machine-readable name (used in metrics schemas).
    pub fn name(self) -> &'static str {
        match self {
            OpKind::Apply => "apply",
            OpKind::Not => "not",
            OpKind::Ite => "ite",
            OpKind::Exists => "exists",
            OpKind::Forall => "forall",
            OpKind::AppExists => "app_exists",
            OpKind::AppForall => "app_forall",
            OpKind::Replace => "replace",
            OpKind::Restrict => "restrict",
            OpKind::Constrain => "constrain",
        }
    }

    /// Index into per-kind tables (`0..OP_KINDS`, order of [`OpKind::ALL`]).
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }
}

#[derive(Clone, Copy)]
struct Entry {
    op: u32,
    a: u32,
    b: u32,
    c: u32,
    result: u32,
}

const EMPTY: Entry = Entry {
    op: 0,
    a: 0,
    b: 0,
    c: 0,
    result: u32::MAX,
};

/// The direct-mapped cache. `a`, `b` are operand node indices; `c` carries a
/// third operand (for `ite`), an interned varset id (quantification), or an
/// interned map id (`replace`).
pub(crate) struct OpCache {
    slots: Vec<Entry>,
    mask: u64,
    /// Tag of the current generation: an entry hits only if it was written
    /// since the last [`OpCache::invalidate`].
    generation: u32,
    hits: [u64; OP_KINDS],
    misses: [u64; OP_KINDS],
}

impl OpCache {
    /// `capacity` is rounded up to the next power of two, minimum 1024.
    pub(crate) fn new(capacity: usize) -> Self {
        let cap = capacity.next_power_of_two().max(1024);
        OpCache {
            slots: vec![EMPTY; cap],
            mask: (cap - 1) as u64,
            generation: 0,
            hits: [0; OP_KINDS],
            misses: [0; OP_KINDS],
        }
    }

    /// Slot of a key; hashes the untagged code, so a key's slot does not
    /// depend on the generation.
    #[inline]
    fn index(&self, code: u32, a: u32, b: u32, c: u32) -> usize {
        ((mix3(a, b, c) ^ (code as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)) & self.mask) as usize
    }

    #[inline]
    fn tagged(&self, code: u32) -> u32 {
        code | self.generation << CODE_BITS
    }

    #[inline]
    pub(crate) fn get(&mut self, op: OpCode, a: u32, b: u32, c: u32) -> Option<u32> {
        let kind = op.kind().index();
        let code = op.encode();
        let op = self.tagged(code);
        let e = &self.slots[self.index(code, a, b, c)];
        if e.result != u32::MAX && e.op == op && e.a == a && e.b == b && e.c == c {
            self.hits[kind] += 1;
            Some(e.result)
        } else {
            self.misses[kind] += 1;
            None
        }
    }

    #[inline]
    pub(crate) fn put(&mut self, op: OpCode, a: u32, b: u32, c: u32, result: u32) {
        let code = op.encode();
        let idx = self.index(code, a, b, c);
        self.slots[idx] = Entry {
            op: self.tagged(code),
            a,
            b,
            c,
            result,
        };
    }

    /// Drop all entries. Must be called whenever node indices may be reused
    /// (after a GC sweep) — a stale hit would silently corrupt results.
    /// Starting a new generation retires every entry at once; only when the
    /// tag wraps, and an old tag could match again, are the slots emptied.
    pub(crate) fn invalidate(&mut self) {
        self.generation = (self.generation + 1) % GENERATIONS;
        if self.generation == 0 {
            self.slots.fill(EMPTY);
        }
    }

    /// Total hits across all operation kinds.
    pub(crate) fn hits(&self) -> u64 {
        self.hits.iter().sum()
    }

    /// Total misses across all operation kinds.
    pub(crate) fn misses(&self) -> u64 {
        self.misses.iter().sum()
    }

    /// Hits for one operation kind.
    pub(crate) fn kind_hits(&self, kind: OpKind) -> u64 {
        self.hits[kind.index()]
    }

    /// Misses for one operation kind.
    pub(crate) fn kind_misses(&self, kind: OpKind) -> u64 {
        self.misses[kind.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip() {
        let mut c = OpCache::new(1024);
        assert_eq!(c.get(OpCode::Apply(0), 5, 7, 0), None);
        c.put(OpCode::Apply(0), 5, 7, 0, 42);
        assert_eq!(c.get(OpCode::Apply(0), 5, 7, 0), Some(42));
    }

    #[test]
    fn distinguishes_op_codes() {
        let mut c = OpCache::new(1024);
        c.put(OpCode::Apply(0), 5, 7, 0, 42);
        // Same operands, different op: must not hit (it may have been
        // overwritten, but it must never return 42 for the wrong op).
        assert_ne!(c.get(OpCode::Apply(1), 5, 7, 0), Some(42));
        assert_ne!(c.get(OpCode::Exists, 5, 7, 0), Some(42));
    }

    #[test]
    fn distinguishes_third_operand() {
        let mut c = OpCache::new(1024);
        c.put(OpCode::Ite, 5, 7, 9, 42);
        assert_ne!(c.get(OpCode::Ite, 5, 7, 10), Some(42));
    }

    #[test]
    fn invalidate_clears_everything() {
        let mut c = OpCache::new(1024);
        for i in 0..500u32 {
            c.put(OpCode::Not, i, 0, 0, i + 1);
        }
        c.invalidate();
        for i in 0..500u32 {
            assert_eq!(c.get(OpCode::Not, i, 0, 0), None);
        }
    }

    #[test]
    fn no_stale_hit_across_the_tag_wrap() {
        let mut c = OpCache::new(1024);
        c.put(OpCode::Not, 3, 0, 0, 4);
        // A full cycle of generations brings the tag back to the one the
        // entry was written with; the refill at the wrap must have dropped it.
        for _ in 0..GENERATIONS {
            c.invalidate();
        }
        assert_eq!(c.generation, 0);
        assert_eq!(c.get(OpCode::Not, 3, 0, 0), None);
        c.put(OpCode::Not, 3, 0, 0, 4);
        assert_eq!(c.get(OpCode::Not, 3, 0, 0), Some(4));
    }

    #[test]
    fn every_code_fits_below_the_tag() {
        let codes = [
            OpCode::Apply(u8::MAX),
            OpCode::Not,
            OpCode::Ite,
            OpCode::Exists,
            OpCode::Forall,
            OpCode::AppExists(u8::MAX),
            OpCode::AppForall(u8::MAX),
            OpCode::Replace,
            OpCode::Restrict,
            OpCode::Constrain,
            OpCode::AndIsFalse,
        ];
        for code in codes {
            let e = code.encode();
            assert!(e != 0 && e < 1 << CODE_BITS, "{code:?} encodes to {e:#x}");
        }
    }

    #[test]
    fn capacity_rounds_to_power_of_two() {
        let c = OpCache::new(1000);
        assert_eq!(c.slots.len(), 1024);
        let c = OpCache::new(0);
        assert_eq!(c.slots.len(), 1024);
    }

    #[test]
    fn counts_hits_and_misses() {
        let mut c = OpCache::new(1024);
        c.get(OpCode::Not, 1, 0, 0);
        c.put(OpCode::Not, 1, 0, 0, 9);
        c.get(OpCode::Not, 1, 0, 0);
        assert_eq!(c.hits(), 1);
        assert_eq!(c.misses(), 1);
    }
}

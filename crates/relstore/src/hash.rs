//! A fast hasher for the algebra's hash tables.
//!
//! Join, anti-join, difference and FD keys are short `&[u32]` slices of
//! dictionary codes. SipHash (std's default) costs more than the probe
//! itself on keys that small, so the operators hash with an FxHash-style
//! multiply-rotate over 64-bit words, as rustc does for its own tables.
//! The keys are codes the store interned, so HashDoS is not a concern.

use std::hash::{BuildHasherDefault, Hasher};

/// FxHash's 64-bit multiplier.
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// An FxHash-style streaming hasher.
#[derive(Default, Clone, Copy)]
pub(crate) struct CodeHasher(u64);

impl CodeHasher {
    #[inline]
    fn mix(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for CodeHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    /// A `[u32]` key arrives here as its length, then as one byte slice;
    /// both are mixed eight bytes at a time.
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            self.mix(u64::from_le_bytes(w.try_into().expect("8-byte chunk")));
        }
        let tail = words.remainder();
        if !tail.is_empty() {
            let mut buf = [0u8; 8];
            buf[..tail.len()].copy_from_slice(tail);
            self.mix(u64::from_le_bytes(buf));
        }
    }
}

/// `BuildHasher` for [`CodeHasher`].
pub(crate) type CodeBuildHasher = BuildHasherDefault<CodeHasher>;

/// A `HashMap` keyed with [`CodeHasher`].
pub(crate) type CodeMap<K, V> = std::collections::HashMap<K, V, CodeBuildHasher>;

/// A `HashSet` keyed with [`CodeHasher`].
pub(crate) type CodeSet<K> = std::collections::HashSet<K, CodeBuildHasher>;

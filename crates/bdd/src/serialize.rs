//! Persistence for BDDs.
//!
//! Logical indices are long-lived (the whole point of the paper is to keep
//! them around between validation passes), so the engine can [`export`] a
//! function into a compact, manager-independent form and [`import`] it into
//! another manager — e.g. to persist an index across process restarts, or
//! to move it into a manager with a different variable layout via the
//! `var_map` hook.
//!
//! [`export`]: BddManager::export
//! [`import`]: BddManager::import

use crate::error::{BddError, Result};
use crate::fdd::{bits_for, DomainId};
use crate::hash::FxHashMap;
use crate::manager::{Bdd, BddManager, Var};

/// Why a byte-level snapshot decode was rejected. Decoding never panics on
/// hostile input — truncation, bit flips, and structural lies all surface
/// as a typed error naming the offending byte offset, so callers (index
/// files read from disk) can report the corruption and degrade instead of
/// crashing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeError {
    /// Byte offset at (or just past) which the input stopped making sense.
    pub offset: usize,
    /// Human-readable description of the structural violation.
    pub reason: &'static str,
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "snapshot decode failed at byte {}: {}",
            self.offset, self.reason
        )
    }
}

impl std::error::Error for DecodeError {}

type DecodeResult<T> = std::result::Result<T, DecodeError>;

fn decode_err<T>(offset: usize, reason: &'static str) -> DecodeResult<T> {
    Err(DecodeError { offset, reason })
}

/// CRC-32 (IEEE 802.3, the `cksum`/zlib polynomial), table-driven. The
/// persistent index store checksums every segment, journal record, and
/// manifest with this; a hand-rolled implementation keeps the workspace
/// free of external crates.
pub fn crc32(bytes: &[u8]) -> u32 {
    const TABLE: [u32; 256] = {
        let mut table = [0u32; 256];
        let mut i = 0;
        while i < 256 {
            let mut c = i as u32;
            let mut k = 0;
            while k < 8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
                k += 1;
            }
            table[i] = c;
            i += 1;
        }
        table
    };
    let mut crc = 0xFFFF_FFFFu32;
    for &b in bytes {
        crc = TABLE[((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
    }
    !crc
}

/// Byte length of the fixed [`encode_frame`] header that precedes the meta
/// and payload sections: magic (4) + version (4) + meta length (4) +
/// payload length (8) + CRC-32 (4).
pub const FRAME_HEADER_LEN: usize = 24;

/// Wrap `meta ++ payload` in a checksummed, versioned frame:
/// `magic(4) | version(4, LE) | meta_len(4, LE) | payload_len(8, LE) |
/// crc32(meta ++ payload)(4, LE) | meta | payload`.
///
/// The persistent index store uses this for segment and manifest files:
/// `meta` holds small fixed headers (fingerprints, sequence numbers) that
/// must be readable without decoding the payload, and the CRC covers both
/// sections so a bit flip anywhere is detected by [`decode_frame`].
pub fn encode_frame(magic: [u8; 4], version: u32, meta: &[u8], payload: &[u8]) -> Vec<u8> {
    let mut crc_input = Vec::with_capacity(meta.len() + payload.len());
    crc_input.extend_from_slice(meta);
    crc_input.extend_from_slice(payload);
    let mut out = Vec::with_capacity(FRAME_HEADER_LEN + crc_input.len());
    out.extend_from_slice(&magic);
    out.extend_from_slice(&version.to_le_bytes());
    out.extend_from_slice(&(meta.len() as u32).to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(&crc32(&crc_input).to_le_bytes());
    out.extend_from_slice(&crc_input);
    out
}

/// Inverse of [`encode_frame`]: validate magic, version, section lengths,
/// and the CRC, returning `(meta, payload)` slices into `bytes`. Every
/// failure is a typed [`DecodeError`] with the offset where the input
/// stopped making sense — truncation, bit flips, wrong file type, and
/// future format versions are all distinguished, never panicked on.
pub fn decode_frame(bytes: &[u8], magic: [u8; 4], version: u32) -> DecodeResult<(&[u8], &[u8])> {
    if bytes.len() < FRAME_HEADER_LEN {
        return decode_err(bytes.len(), "frame header truncated");
    }
    if bytes[0..4] != magic {
        return decode_err(0, "bad magic (not this file type)");
    }
    let got_version = u32::from_le_bytes(bytes[4..8].try_into().unwrap());
    if got_version != version {
        return decode_err(4, "unsupported format version");
    }
    let meta_len = u32::from_le_bytes(bytes[8..12].try_into().unwrap()) as usize;
    let payload_len = u64::from_le_bytes(bytes[12..20].try_into().unwrap());
    let crc = u32::from_le_bytes(bytes[20..24].try_into().unwrap());
    let body_len = (meta_len as u64).saturating_add(payload_len);
    if bytes.len() as u64 - FRAME_HEADER_LEN as u64 != body_len {
        return decode_err(bytes.len(), "frame body length disagrees with the header");
    }
    let body = &bytes[FRAME_HEADER_LEN..];
    if crc32(body) != crc {
        return decode_err(20, "frame checksum mismatch");
    }
    Ok((&body[..meta_len], &body[meta_len..]))
}

/// A manager-independent BDD snapshot: nodes in bottom-up topological
/// order. Entry `i` describes node `i + 2`; references `0` and `1` are the
/// terminals, references `r ≥ 2` point at entry `r - 2`. The root is the
/// last entry (or a terminal for constant functions).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExportedBdd {
    /// `(variable, low-ref, high-ref)` triples, children before parents.
    pub nodes: Vec<(Var, u32, u32)>,
    /// The root reference (0 = false, 1 = true, `r ≥ 2` = node `r - 2`).
    pub root: u32,
}

impl ExportedBdd {
    /// Number of internal nodes in the snapshot.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True for constant functions.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Serialize into a byte buffer (little-endian u32 triples after an
    /// 8-byte header) — handy for writing an index to disk without pulling
    /// in a serialization framework.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(8 + self.nodes.len() * 12);
        out.extend_from_slice(&(self.nodes.len() as u32).to_le_bytes());
        out.extend_from_slice(&self.root.to_le_bytes());
        for &(v, lo, hi) in &self.nodes {
            out.extend_from_slice(&v.to_le_bytes());
            out.extend_from_slice(&lo.to_le_bytes());
            out.extend_from_slice(&hi.to_le_bytes());
        }
        out
    }

    /// Inverse of [`ExportedBdd::to_bytes`] with a typed rejection reason.
    /// Every structural invariant of the format is validated — node count
    /// vs payload length, children-precede-parents topology, root range —
    /// so arbitrary bytes can never panic or produce an unsound snapshot.
    pub fn decode(bytes: &[u8]) -> DecodeResult<ExportedBdd> {
        if bytes.len() < 8 {
            return decode_err(bytes.len(), "header truncated (need 8 bytes)");
        }
        let n = u32::from_le_bytes(bytes[0..4].try_into().unwrap()) as usize;
        let root = u32::from_le_bytes(bytes[4..8].try_into().unwrap());
        let expect = (n as u64) * 12 + 8;
        if bytes.len() as u64 != expect {
            return decode_err(bytes.len(), "payload length disagrees with node count");
        }
        let mut nodes = Vec::with_capacity(n);
        for i in 0..n {
            let off = 8 + i * 12;
            let v = u32::from_le_bytes(bytes[off..off + 4].try_into().unwrap());
            let lo = u32::from_le_bytes(bytes[off + 4..off + 8].try_into().unwrap());
            let hi = u32::from_le_bytes(bytes[off + 8..off + 12].try_into().unwrap());
            // Children must precede parents.
            if (lo >= 2 && lo - 2 >= i as u32) || (hi >= 2 && hi - 2 >= i as u32) {
                return decode_err(off, "child reference at or after its parent");
            }
            nodes.push((v, lo, hi));
        }
        if root >= 2 && root - 2 >= n as u32 {
            return decode_err(4, "root reference outside the node table");
        }
        Ok(ExportedBdd { nodes, root })
    }
}

/// A manager-independent snapshot of a relation BDD *together with its
/// finite-domain layout*, so another manager — typically a later process
/// warm-starting from an index file — can rebuild both the domains and the
/// function without re-running tuple construction.
///
/// `blocks` lists the layout's domains in ascending source-variable order
/// (i.e. declaration order); `slots[i]` says which block the caller's `i`-th
/// domain became, so [`BddManager::import_relation`] can hand back domain
/// handles in the caller's original order. Everything here is plain owned
/// data, so it serializes to bytes and back without reference to either
/// manager.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExportedRelation {
    /// The function, children before parents (see [`ExportedBdd`]).
    pub bdd: ExportedBdd,
    /// `(domain size, source variables MSB-first)` per block, ascending by
    /// source variable.
    pub blocks: Vec<(u64, Vec<Var>)>,
    /// For each input domain position, the index of its block in `blocks`.
    pub slots: Vec<usize>,
}

impl ExportedRelation {
    /// Serialize into a byte buffer: block table, slot table, then the
    /// [`ExportedBdd`] payload, all little-endian.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&(self.blocks.len() as u32).to_le_bytes());
        for (size, vars) in &self.blocks {
            out.extend_from_slice(&size.to_le_bytes());
            out.extend_from_slice(&(vars.len() as u32).to_le_bytes());
            for &v in vars {
                out.extend_from_slice(&v.to_le_bytes());
            }
        }
        for &s in &self.slots {
            out.extend_from_slice(&(s as u32).to_le_bytes());
        }
        out.extend_from_slice(&self.bdd.to_bytes());
        out
    }

    /// Inverse of [`ExportedRelation::to_bytes`] with a typed rejection
    /// reason: truncated buffers, zero-sized domains, block widths that
    /// disagree with the domain size, non-ascending variables, or a slot
    /// table that is not a permutation of the blocks.
    pub fn decode(bytes: &[u8]) -> DecodeResult<ExportedRelation> {
        let mut off = 0usize;
        let take_u32 = |off: &mut usize| -> DecodeResult<u32> {
            match bytes.get(*off..*off + 4) {
                Some(w) => {
                    let v = u32::from_le_bytes(w.try_into().unwrap());
                    *off += 4;
                    Ok(v)
                }
                None => decode_err(*off, "buffer truncated inside a u32 field"),
            }
        };
        let take_u64 = |off: &mut usize| -> DecodeResult<u64> {
            match bytes.get(*off..*off + 8) {
                Some(w) => {
                    let v = u64::from_le_bytes(w.try_into().unwrap());
                    *off += 8;
                    Ok(v)
                }
                None => decode_err(*off, "buffer truncated inside a u64 field"),
            }
        };
        let nblocks = take_u32(&mut off)? as usize;
        let mut blocks = Vec::with_capacity(nblocks.min(1 << 16));
        let mut prev: Option<Var> = None;
        for _ in 0..nblocks {
            let size = take_u64(&mut off)?;
            if size == 0 {
                return decode_err(off - 8, "zero-sized domain block");
            }
            let nvars = take_u32(&mut off)? as usize;
            if nvars != bits_for(size) as usize {
                return decode_err(off - 4, "block width disagrees with domain size");
            }
            let mut vars = Vec::with_capacity(nvars);
            for _ in 0..nvars {
                let v = take_u32(&mut off)?;
                // The flattened variable sequence must ascend strictly —
                // that is what guarantees a monotone map on import.
                if prev.is_some_and(|p| p >= v) {
                    return decode_err(off - 4, "block variables not strictly ascending");
                }
                prev = Some(v);
                vars.push(v);
            }
            blocks.push((size, vars));
        }
        let mut slots = Vec::with_capacity(nblocks);
        let mut seen = vec![false; nblocks];
        for _ in 0..nblocks {
            let s = take_u32(&mut off)? as usize;
            if s >= nblocks || seen[s] {
                return decode_err(off - 4, "slot table is not a permutation of the blocks");
            }
            seen[s] = true;
            slots.push(s);
        }
        let bdd = ExportedBdd::decode(&bytes[off..]).map_err(|e| DecodeError {
            offset: off + e.offset,
            reason: e.reason,
        })?;
        Ok(ExportedRelation { bdd, blocks, slots })
    }
}

impl BddManager {
    /// Snapshot the function rooted at `f` into a manager-independent form.
    pub fn export(&self, f: Bdd) -> ExportedBdd {
        if f.is_const() {
            return ExportedBdd {
                nodes: vec![],
                root: f.index(),
            };
        }
        // Post-order traversal so children are emitted before parents.
        let mut refs: FxHashMap<u32, u32> = FxHashMap::default();
        refs.insert(0, 0);
        refs.insert(1, 1);
        let mut nodes = Vec::new();
        let mut stack = vec![(f.index(), false)];
        while let Some((idx, expanded)) = stack.pop() {
            if refs.contains_key(&idx) {
                continue;
            }
            let n = self.node(Bdd(idx));
            if expanded {
                let lo = refs[&n.low];
                let hi = refs[&n.high];
                refs.insert(idx, nodes.len() as u32 + 2);
                nodes.push((n.level, lo, hi));
            } else {
                stack.push((idx, true));
                stack.push((n.high, false));
                stack.push((n.low, false));
            }
        }
        ExportedBdd {
            nodes,
            root: refs[&f.index()],
        }
    }

    /// Rebuild an exported function in this manager. `var_map` translates
    /// the snapshot's variables into this manager's (identity is typical;
    /// any monotone map works directly, non-monotone maps are rejected by
    /// the ordering invariant).
    ///
    /// # Panics
    /// Debug-panics if `var_map` breaks the variable order (children at or
    /// above parents).
    pub fn import(&mut self, e: &ExportedBdd, var_map: impl Fn(Var) -> Var) -> Result<Bdd> {
        let mut built: Vec<Bdd> = Vec::with_capacity(e.nodes.len());
        let resolve = |r: u32, built: &[Bdd]| -> Bdd {
            match r {
                0 => Bdd::FALSE,
                1 => Bdd::TRUE,
                _ => built[(r - 2) as usize],
            }
        };
        for &(v, lo, hi) in &e.nodes {
            let low = resolve(lo, &built);
            let high = resolve(hi, &built);
            let node = self.mk(var_map(v), low, high)?;
            built.push(node);
        }
        Ok(resolve(e.root, &built))
    }

    /// Snapshot a relation BDD together with its finite-domain layout.
    /// `domains` is the relation's layout in schema order; the snapshot
    /// records enough metadata for [`BddManager::import_relation`] to
    /// re-declare equivalent domains in a *fresh* manager and rebuild the
    /// function there.
    pub fn export_relation(&self, f: Bdd, domains: &[DomainId]) -> Result<ExportedRelation> {
        // Order blocks by their position in the variable order (declaration
        // order); re-declaring them in that same order in the target manager
        // makes the variable map monotone, which `import` requires.
        let mut order: Vec<usize> = (0..domains.len()).collect();
        order.sort_by_key(|&i| self.domain_info(domains[i]).first_var);
        for w in order.windows(2) {
            if domains[w[0]] == domains[w[1]] {
                return Err(BddError::DuplicateDomain);
            }
        }
        let blocks: Vec<(u64, Vec<Var>)> = order
            .iter()
            .map(|&i| {
                let d = domains[i];
                (self.domain_info(d).size, self.domain_vars(d).to_vec())
            })
            .collect();
        let mut slots = vec![0usize; domains.len()];
        for (block_idx, &input_pos) in order.iter().enumerate() {
            slots[input_pos] = block_idx;
        }
        Ok(ExportedRelation {
            bdd: self.export(f),
            blocks,
            slots,
        })
    }

    /// Rebuild an exported relation in this manager: declare one fresh
    /// domain per block (appended after any existing variables) and import
    /// the function with the induced variable map. Returns the new domain
    /// handles in the *caller's original schema order* plus the rebuilt
    /// root. Like [`BddManager::relation_from_rows`], the nodes it adds
    /// count as kept, not as garbage.
    ///
    /// Fails with [`BddError::UnmappedVariable`] if the snapshot's function
    /// mentions a variable outside the exported layout.
    pub fn import_relation(&mut self, e: &ExportedRelation) -> Result<(Vec<DomainId>, Bdd)> {
        let mut var_map: FxHashMap<Var, Var> = FxHashMap::default();
        let mut new_doms = Vec::with_capacity(e.blocks.len());
        for (size, src_vars) in &e.blocks {
            let d = self.add_domain(*size)?;
            let dst_vars = self.domain_vars(d);
            if dst_vars.len() != src_vars.len() {
                return Err(BddError::DomainWidthMismatch {
                    from_bits: src_vars.len() as u32,
                    to_bits: dst_vars.len() as u32,
                });
            }
            for (&s, &t) in src_vars.iter().zip(dst_vars) {
                var_map.insert(s, t);
            }
            new_doms.push(d);
        }
        // Validate coverage up front: `import`'s var_map hook cannot fail.
        for &(v, _, _) in &e.bdd.nodes {
            if !var_map.contains_key(&v) {
                return Err(BddError::UnmappedVariable { var: v });
            }
        }
        let live_before = self.live_nodes();
        let root = self.import(&e.bdd, |v| var_map[&v])?;
        self.keep_since(live_before);
        let doms_in_schema_order = e.slots.iter().map(|&s| new_doms[s]).collect();
        Ok((doms_in_schema_order, root))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_relation(m: &mut BddManager) -> (Vec<crate::fdd::DomainId>, Bdd) {
        let d1 = m.add_domain(9).unwrap();
        let d2 = m.add_domain(5).unwrap();
        let rows: Vec<Vec<u64>> = (0..20u64).map(|i| vec![(i * 7) % 9, (i * 3) % 5]).collect();
        let r = m.relation_from_rows(&[d1, d2], &rows).unwrap();
        (vec![d1, d2], r)
    }

    #[test]
    fn export_import_round_trip_same_manager() {
        let mut m = BddManager::new();
        let (_, r) = sample_relation(&mut m);
        let e = m.export(r);
        assert_eq!(e.len(), m.size(r));
        let back = m.import(&e, |v| v).unwrap();
        assert_eq!(back, r, "canonicity: identical function, identical node");
    }

    #[test]
    fn export_import_across_managers() {
        let mut m1 = BddManager::new();
        let (doms, r) = sample_relation(&mut m1);
        let e = m1.export(r);
        let mut m2 = BddManager::new();
        let d1 = m2.add_domain(9).unwrap();
        let d2 = m2.add_domain(5).unwrap();
        let back = m2.import(&e, |v| v).unwrap();
        // Same tuples decodable in the new manager.
        let mut rows1 = m1.rows(r, &doms).unwrap();
        let mut rows2 = m2.rows(back, &[d1, d2]).unwrap();
        rows1.sort();
        rows2.sort();
        assert_eq!(rows1, rows2);
    }

    #[test]
    fn import_with_variable_shift() {
        let mut m1 = BddManager::new();
        let (_, r) = sample_relation(&mut m1);
        let e = m1.export(r);
        let mut m2 = BddManager::new();
        // Burn a leading block, then import shifted past it.
        let _pad = m2.add_domain(16).unwrap(); // 4 vars
        let d1 = m2.add_domain(9).unwrap();
        let d2 = m2.add_domain(5).unwrap();
        let back = m2.import(&e, |v| v + 4).unwrap();
        let count = m2.tuple_count(back, &[d1, d2]).unwrap();
        assert_eq!(count, 20.0);
    }

    #[test]
    fn constants_export_trivially() {
        let mut m = BddManager::new();
        for c in [Bdd::TRUE, Bdd::FALSE] {
            let e = m.export(c);
            assert!(e.is_empty());
            assert_eq!(m.import(&e, |v| v).unwrap(), c);
        }
    }

    #[test]
    fn byte_round_trip() {
        let mut m = BddManager::new();
        let (_, r) = sample_relation(&mut m);
        let e = m.export(r);
        let bytes = e.to_bytes();
        let decoded = ExportedBdd::decode(&bytes).unwrap();
        assert_eq!(e, decoded);
    }

    #[test]
    fn decode_rejects_malformed_input() {
        assert!(ExportedBdd::decode(&[]).is_err());
        assert!(ExportedBdd::decode(&[0; 7]).is_err());
        // Count says 1 node but no payload.
        let mut bad = Vec::new();
        bad.extend_from_slice(&1u32.to_le_bytes());
        bad.extend_from_slice(&2u32.to_le_bytes());
        assert!(ExportedBdd::decode(&bad).is_err());
        // Forward reference (child at or after parent).
        let mut fwd = Vec::new();
        fwd.extend_from_slice(&1u32.to_le_bytes());
        fwd.extend_from_slice(&2u32.to_le_bytes());
        fwd.extend_from_slice(&0u32.to_le_bytes()); // var
        fwd.extend_from_slice(&2u32.to_le_bytes()); // low: self-reference
        fwd.extend_from_slice(&1u32.to_le_bytes());
        assert!(ExportedBdd::decode(&fwd).is_err());
        // Root out of range.
        let mut bad_root = Vec::new();
        bad_root.extend_from_slice(&0u32.to_le_bytes());
        bad_root.extend_from_slice(&9u32.to_le_bytes());
        assert!(ExportedBdd::decode(&bad_root).is_err());
    }

    #[test]
    fn relation_round_trip_into_fresh_manager() {
        let mut m1 = BddManager::new();
        let (doms, r) = sample_relation(&mut m1);
        let e = m1.export_relation(r, &doms).unwrap();
        // The target manager already has unrelated variables — the induced
        // var_map is a genuine shift, not the identity.
        let mut m2 = BddManager::new();
        let _pad = m2.add_domain(100).unwrap();
        let (doms2, r2) = m2.import_relation(&e).unwrap();
        let mut rows1 = m1.rows(r, &doms).unwrap();
        let mut rows2 = m2.rows(r2, &doms2).unwrap();
        rows1.sort();
        rows2.sort();
        assert_eq!(rows1, rows2);
        // Full-oracle check: membership agrees on every point of the
        // domain product, not just on the decoded rows.
        for a in 0..9u64 {
            for b in 0..5u64 {
                assert_eq!(
                    m1.contains(r, &doms, &[a, b]).unwrap(),
                    m2.contains(r2, &doms2, &[a, b]).unwrap(),
                    "tuple ({a},{b})"
                );
            }
        }
    }

    #[test]
    fn relation_export_preserves_schema_order() {
        // Schema order ≠ declaration order: the layout lists the
        // later-declared domain first. The snapshot must hand back handles
        // in schema order regardless.
        let mut m1 = BddManager::new();
        let d1 = m1.add_domain(9).unwrap();
        let d2 = m1.add_domain(5).unwrap();
        let rows: Vec<Vec<u64>> = (0..15u64).map(|i| vec![(i * 2) % 5, (i * 7) % 9]).collect();
        // Layout [d2, d1]: column 0 lives in d2's block, column 1 in d1's.
        let r = m1.relation_from_rows(&[d2, d1], &rows).unwrap();
        let e = m1.export_relation(r, &[d2, d1]).unwrap();
        let mut m2 = BddManager::new();
        let (doms2, r2) = m2.import_relation(&e).unwrap();
        assert_eq!(m2.domain_info(doms2[0]).size, 5);
        assert_eq!(m2.domain_info(doms2[1]).size, 9);
        let mut rows1 = m1.rows(r, &[d2, d1]).unwrap();
        let mut rows2 = m2.rows(r2, &doms2).unwrap();
        rows1.sort();
        rows2.sort();
        assert_eq!(rows1, rows2);
    }

    #[test]
    fn relation_byte_round_trip() {
        let mut m = BddManager::new();
        let (doms, r) = sample_relation(&mut m);
        let e = m.export_relation(r, &doms).unwrap();
        let decoded = ExportedRelation::decode(&e.to_bytes()).unwrap();
        assert_eq!(e, decoded);
        // And the decoded form is actually usable.
        let mut m2 = BddManager::new();
        let (doms2, r2) = m2.import_relation(&decoded).unwrap();
        assert_eq!(
            m2.tuple_count(r2, &doms2).unwrap(),
            m.tuple_count(r, &doms).unwrap()
        );
    }

    #[test]
    fn relation_decode_rejects_malformed_input() {
        assert!(ExportedRelation::decode(&[]).is_err());
        let mut m = BddManager::new();
        let (doms, r) = sample_relation(&mut m);
        let good = m.export_relation(r, &doms).unwrap();
        // Zero-sized domain.
        let mut e = good.clone();
        e.blocks[0].0 = 0;
        assert!(ExportedRelation::decode(&e.to_bytes()).is_err());
        // Width disagrees with the size.
        let mut e = good.clone();
        e.blocks[0].0 = 1000;
        assert!(ExportedRelation::decode(&e.to_bytes()).is_err());
        // Non-ascending variables (blocks swapped without renumbering).
        let mut e = good.clone();
        e.blocks.swap(0, 1);
        assert!(ExportedRelation::decode(&e.to_bytes()).is_err());
        // Slot table not a permutation.
        let mut e = good.clone();
        e.slots[1] = e.slots[0];
        assert!(ExportedRelation::decode(&e.to_bytes()).is_err());
        // Truncated payload.
        let bytes = good.to_bytes();
        assert!(ExportedRelation::decode(&bytes[..bytes.len() - 1]).is_err());
    }

    #[test]
    fn relation_export_rejects_duplicate_domains() {
        let mut m = BddManager::new();
        let d = m.add_domain(4).unwrap();
        assert!(matches!(
            m.export_relation(Bdd::FALSE, &[d, d]),
            Err(BddError::DuplicateDomain)
        ));
    }

    #[test]
    fn relation_import_rejects_uncovered_variables() {
        let mut m1 = BddManager::new();
        let (doms, r) = sample_relation(&mut m1);
        // Export claiming the layout is only the first column: the function
        // still mentions the second block's variables.
        let e = m1.export_relation(r, &doms[..1]).unwrap();
        let mut m2 = BddManager::new();
        assert!(matches!(
            m2.import_relation(&e),
            Err(BddError::UnmappedVariable { .. })
        ));
    }

    #[test]
    fn crc32_matches_reference_vector() {
        // The canonical IEEE 802.3 check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn frame_roundtrip_and_header_len() {
        let enc = encode_frame(*b"TEST", 7, b"meta", b"payload-bytes");
        assert_eq!(enc.len(), FRAME_HEADER_LEN + 4 + 13);
        let (meta, payload) = decode_frame(&enc, *b"TEST", 7).unwrap();
        assert_eq!(meta, b"meta");
        assert_eq!(payload, b"payload-bytes");
        // Empty sections are legal.
        let empty = encode_frame(*b"TEST", 7, b"", b"");
        let (m, p) = decode_frame(&empty, *b"TEST", 7).unwrap();
        assert!(m.is_empty() && p.is_empty());
    }

    #[test]
    fn frame_rejects_wrong_magic_and_version() {
        let enc = encode_frame(*b"TEST", 7, b"m", b"p");
        let e = decode_frame(&enc, *b"OTHR", 7).unwrap_err();
        assert_eq!(e.offset, 0);
        assert!(e.reason.contains("magic"));
        let e = decode_frame(&enc, *b"TEST", 8).unwrap_err();
        assert_eq!(e.offset, 4);
        assert!(e.reason.contains("version"));
    }

    #[test]
    fn frame_rejects_every_truncation() {
        let enc = encode_frame(*b"TEST", 1, b"abc", b"defghij");
        for cut in 0..enc.len() {
            let e = decode_frame(&enc[..cut], *b"TEST", 1).unwrap_err();
            assert!(e.offset <= cut, "offset {} beyond cut {cut}", e.offset);
        }
    }

    #[test]
    fn frame_detects_every_single_bit_flip() {
        let enc = encode_frame(*b"TEST", 1, b"abc", b"defghij");
        for byte in 0..enc.len() {
            for bit in 0..8u8 {
                let mut bad = enc.clone();
                bad[byte] ^= 1 << bit;
                assert!(
                    decode_frame(&bad, *b"TEST", 1).is_err(),
                    "undetected flip at byte {byte} bit {bit}"
                );
            }
        }
    }

    #[test]
    fn frame_rejects_length_mismatch() {
        let mut enc = encode_frame(*b"TEST", 1, b"abc", b"defghij");
        enc.push(0); // trailing garbage
        let e = decode_frame(&enc, *b"TEST", 1).unwrap_err();
        assert!(e.reason.contains("length"));
    }
}

//! Crash-safe persistent index store.
//!
//! Indices are expensive to build and cheap to maintain (the paper's
//! Figure 4(b) incremental-maintenance argument); this module makes them
//! cheap to *reuse across runs* by persisting each relation's logical
//! index durably and recovering it on open. Three kinds of file live in
//! the cache directory:
//!
//! - **Segments** (`NAME-HASH.seg`): one relation's [`IndexSnapshot`]
//!   inside a checksummed, versioned frame whose meta block records the
//!   base-data fingerprint, the ordering tag, and `seg_seq` — how many
//!   journal records the snapshot already folds in. Written via
//!   write-temp + fsync + atomic-rename.
//! - **Journals** (`NAME-HASH.jnl`): an append-only log of tuple deltas,
//!   one CRC-framed record per insert/delete, holding **raw values** (not
//!   dictionary codes — codes minted in a previous session are not
//!   reconstructible from the base CSV, raw values always are). Appends
//!   are journal-first: the record is fsynced before the in-memory
//!   database or index sees the delta.
//! - **The manifest** (`manifest`): the commit point. A frame listing,
//!   per relation, which segment is current plus the fingerprint and
//!   `seg_seq` it must agree with. Committed via write-temp + fsync +
//!   atomic-rename + directory fsync; a crash before the rename leaves
//!   the previous manifest (and a consistent, if older, cache) in place.
//!
//! Recovery is paranoid and rebuild-happy: torn writes, truncation, bit
//! flips, stale fingerprints, and domain growth are all detected by the
//! typed [`DecodeError`] machinery (or per-record CRCs) and answered by
//! auto-rebuilding from the base data already loaded in the [`Checker`].
//! Every such event is recorded as a [`RecoveryRecord`] in
//! [`IndexStore::stats`] — never a panic, and never a wrong verdict: a
//! warm start that cannot trust the disk degrades to exactly what a cold
//! start would compute. Reads are paranoid; writes are best-effort (a
//! failed segment or manifest write increments `write_failures` and the
//! run carries on — the cache just stays cold).
//!
//! Every write-path syscall site is guarded by a [`failpoint`] so crash
//! recovery is tested deterministically: an armed site leaves a *torn*
//! file (a partial write at the final path — modelling post-rename data
//! loss, the strictest case a reader must survive) before erroring.

use crate::checker::Checker;
use crate::error::{CoreError, Result};
use crate::index::{IndexSnapshot, LogicalDatabase};
use crate::ordering::OrderingStrategy;
use crate::telemetry::{recovery_reason, IndexCacheMetrics, RecoveryRecord};
use relcheck_bdd::{crc32, decode_frame, encode_frame, failpoint, BddError, DecodeError};
use relcheck_relstore::{Database, Raw};
use std::collections::BTreeMap;
use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::time::Duration;

/// Magic for segment files.
pub const SEGMENT_MAGIC: [u8; 4] = *b"RCS1";
/// Magic for the manifest.
pub const MANIFEST_MAGIC: [u8; 4] = *b"RCM1";
/// Magic opening a journal file's header.
pub const JOURNAL_MAGIC: [u8; 4] = *b"RCJ1";
/// On-disk format version shared by all three file kinds.
pub const FORMAT_VERSION: u32 = 1;

/// One tuple delta, in raw (pre-dictionary) values.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Delta {
    /// Insert this tuple.
    Insert(Vec<Raw>),
    /// Delete this tuple.
    Delete(Vec<Raw>),
}

impl Delta {
    /// The tuple either way.
    pub fn values(&self) -> &[Raw] {
        match self {
            Delta::Insert(v) | Delta::Delete(v) => v,
        }
    }

    /// Dictionary-encode the tuple for relation `name` (interning is
    /// idempotent), with each column's attribute class.
    pub(crate) fn encode(
        &self,
        ldb: &mut LogicalDatabase,
        name: &str,
    ) -> Result<(Vec<u32>, Vec<String>)> {
        let classes: Vec<String> = ldb
            .db()
            .relation(name)?
            .schema()
            .columns()
            .iter()
            .map(|c| c.class.clone())
            .collect();
        let row = self
            .values()
            .iter()
            .zip(&classes)
            .map(|(v, class)| ldb.db_mut().encode_value(class, v))
            .collect();
        Ok((row, classes))
    }

    /// Apply the delta to relation `name` through incremental index
    /// maintenance — the one live path, journaled or not. A value whose
    /// code falls outside the index's frozen block is refused with the
    /// typed [`CoreError::DomainOverflow`] before anything changes; the
    /// caller degrades the relation.
    pub(crate) fn apply(&self, ldb: &mut LogicalDatabase, name: &str) -> Result<bool> {
        let (row, classes) = self.encode(ldb, name)?;
        if ldb.has_index(name) {
            for (code, class) in row.iter().zip(&classes) {
                if u64::from(*code) >= ldb.class_domain_size(class) {
                    return Err(CoreError::DomainOverflow {
                        relation: name.to_owned(),
                        class: class.clone(),
                    });
                }
            }
        }
        match self {
            Delta::Insert(_) => ldb.insert_tuple(name, &row),
            Delta::Delete(_) => ldb.delete_tuple(name, &row),
        }
    }

    fn kind_byte(&self) -> u8 {
        match self {
            Delta::Insert(_) => 0,
            Delta::Delete(_) => 1,
        }
    }
}

/// What `index verify` reports per relation — read-only, no repairs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VerifyStatus {
    /// Segment and journal are healthy.
    Ok {
        /// Journal records the segment folds in.
        seg_seq: u64,
        /// Readable journal records on disk.
        journal: u64,
    },
    /// No manifest entry for this relation.
    NotCached,
    /// The base data changed since the segment was written.
    Stale,
    /// Manifest references a segment that is not on disk.
    SegmentMissing,
    /// The segment failed frame or structural validation.
    SegmentCorrupt {
        /// Offset where decoding stopped making sense.
        offset: usize,
        /// Why.
        reason: String,
    },
    /// The journal ends in a partial record (recoverable by truncation).
    JournalTorn {
        /// Readable records before the tear.
        valid: u64,
    },
    /// A journal record in the body failed its CRC.
    JournalCorrupt {
        /// Byte offset of the bad record.
        offset: usize,
        /// Readable records before it.
        valid: u64,
    },
}

impl std::fmt::Display for VerifyStatus {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VerifyStatus::Ok { seg_seq, journal } => {
                write!(
                    f,
                    "ok (segment folds {seg_seq} of {journal} journal records)"
                )
            }
            VerifyStatus::NotCached => write!(f, "not cached"),
            VerifyStatus::Stale => write!(f, "stale (base data changed)"),
            VerifyStatus::SegmentMissing => write!(f, "segment file missing"),
            VerifyStatus::SegmentCorrupt { offset, reason } => {
                write!(f, "segment corrupt at offset {offset}: {reason}")
            }
            VerifyStatus::JournalTorn { valid } => {
                write!(f, "journal torn after {valid} record(s)")
            }
            VerifyStatus::JournalCorrupt { offset, valid } => {
                write!(
                    f,
                    "journal corrupt at offset {offset} ({valid} record(s) readable)"
                )
            }
        }
    }
}

/// One manifest entry: which segment is current for a relation and what
/// it must agree with.
#[derive(Debug, Clone, PartialEq, Eq)]
struct ManifestEntry {
    segment: String,
    base_fp: u64,
    ordering_tag: u64,
    seg_seq: u64,
}

/// How a journal scan ended.
#[derive(Debug, Clone, PartialEq, Eq)]
enum JournalTail {
    /// Every byte accounted for.
    Clean,
    /// No journal file (equivalent to an empty journal).
    Missing,
    /// Partial record at the tail; `valid_bytes` is the healthy prefix.
    Torn { valid_bytes: u64 },
    /// A record in the body failed validation at `offset`.
    Corrupt {
        offset: usize,
        reason: &'static str,
        valid_bytes: u64,
    },
}

/// The durable index store for one cache directory. See the module docs
/// for the on-disk formats and the recovery decision tree.
pub struct IndexStore {
    dir: PathBuf,
    manifest: BTreeMap<String, ManifestEntry>,
    /// Counters and recovery events for the current session; the CLI
    /// copies this into the metrics document's `index_cache` section.
    pub stats: IndexCacheMetrics,
    /// Base-data fingerprints captured by `warm_start` *before* journal
    /// values were interned — what `write_back` stamps into segments.
    base_fps: BTreeMap<String, u64>,
    /// Readable journal records per relation, as of the last scan.
    journal_counts: BTreeMap<String, u64>,
    /// Relations whose segment must be (re)written by `write_back`:
    /// misses, rebuilds, and hits that replayed journal records
    /// (compaction). Clean hits are not dirty.
    dirty: BTreeMap<String, bool>,
    ordering_tag: u64,
}

/// The ordering tag stamped into segments: two sessions agree on it iff
/// they build indices with the same [`OrderingStrategy`].
pub fn ordering_tag(strategy: OrderingStrategy) -> u64 {
    failpoint::key_str(&format!("{strategy:?}"))
}

fn io_err(op: &'static str, path: &Path, e: &std::io::Error) -> CoreError {
    CoreError::Io {
        op,
        path: path.display().to_string(),
        message: e.to_string(),
    }
}

/// Journal-append failures worth retrying: injected faults (the chaos
/// model for a flaky disk) and real I/O errors. Anything else — arity or
/// schema problems, domain overflow — is deterministic and retrying
/// cannot help.
fn transient_append_failure(e: &CoreError) -> bool {
    matches!(
        e,
        CoreError::Bdd(BddError::FaultInjected { .. }) | CoreError::Io { .. }
    )
}

/// Keep file names portable: alphanumerics pass, everything else becomes
/// `_`, and a hash of the exact name disambiguates collisions.
fn sanitize(name: &str) -> String {
    name.chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect()
}

/// Segment file name for a relation.
pub fn segment_file_name(relation: &str) -> String {
    format!(
        "{}-{:016x}.seg",
        sanitize(relation),
        failpoint::key_str(relation)
    )
}

/// Journal file name for a relation.
pub fn journal_file_name(relation: &str) -> String {
    format!(
        "{}-{:016x}.jnl",
        sanitize(relation),
        failpoint::key_str(relation)
    )
}

/// Encode one journal record (length-prefixed, CRC-framed). Public so
/// corruption tests can hand-craft journals byte by byte.
pub fn encode_journal_record(delta: &Delta) -> Vec<u8> {
    let mut body = Vec::new();
    body.push(delta.kind_byte());
    let values = delta.values();
    body.extend_from_slice(&(values.len() as u32).to_le_bytes());
    for v in values {
        match v {
            Raw::Int(i) => {
                body.push(0);
                body.extend_from_slice(&i.to_le_bytes());
            }
            Raw::Str(s) => {
                body.push(1);
                body.extend_from_slice(&(s.len() as u32).to_le_bytes());
                body.extend_from_slice(s.as_bytes());
            }
        }
    }
    let mut out = Vec::with_capacity(8 + body.len());
    out.extend_from_slice(&(body.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(&body).to_le_bytes());
    out.extend_from_slice(&body);
    out
}

fn decode_journal_record(body: &[u8]) -> std::result::Result<Delta, &'static str> {
    let kind = *body.first().ok_or("record body empty")?;
    let arity_bytes = body.get(1..5).ok_or("record truncated inside arity")?;
    let arity = u32::from_le_bytes(arity_bytes.try_into().unwrap()) as usize;
    let mut off = 5usize;
    let mut values = Vec::with_capacity(arity.min(1 << 12));
    for _ in 0..arity {
        let tag = *body.get(off).ok_or("record truncated inside a value tag")?;
        off += 1;
        match tag {
            0 => {
                let w = body
                    .get(off..off + 8)
                    .ok_or("record truncated inside an int value")?;
                values.push(Raw::Int(i64::from_le_bytes(w.try_into().unwrap())));
                off += 8;
            }
            1 => {
                let w = body
                    .get(off..off + 4)
                    .ok_or("record truncated inside a string length")?;
                let len = u32::from_le_bytes(w.try_into().unwrap()) as usize;
                off += 4;
                let s = body
                    .get(off..off.checked_add(len).ok_or("string length overflows")?)
                    .ok_or("record truncated inside a string value")?;
                let s = std::str::from_utf8(s).map_err(|_| "string value is not UTF-8")?;
                values.push(Raw::Str(s.to_owned()));
                off += len;
            }
            _ => return Err("unknown value tag"),
        }
    }
    if off != body.len() {
        return Err("record body longer than its values");
    }
    match kind {
        0 => Ok(Delta::Insert(values)),
        1 => Ok(Delta::Delete(values)),
        _ => Err("unknown record kind"),
    }
}

/// Journal header: magic, version, relation name, CRC over both. Public
/// (like [`encode_journal_record`]) so corruption tests can hand-craft
/// journal files byte by byte.
pub fn journal_header(relation: &str) -> Vec<u8> {
    let mut body = Vec::new();
    body.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    body.extend_from_slice(&(relation.len() as u32).to_le_bytes());
    body.extend_from_slice(relation.as_bytes());
    let mut out = Vec::with_capacity(8 + body.len());
    out.extend_from_slice(&JOURNAL_MAGIC);
    out.extend_from_slice(&crc32(&body).to_le_bytes());
    out.extend_from_slice(&body);
    out
}

/// Scan a journal file: the readable record prefix plus how the file
/// ends. Read-only — truncation repairs are the caller's decision.
fn scan_journal(path: &Path, relation: &str) -> (Vec<Delta>, JournalTail) {
    let bytes = match fs::read(path) {
        Ok(b) => b,
        Err(_) => return (Vec::new(), JournalTail::Missing),
    };
    let header = journal_header(relation);
    if bytes.len() < header.len() {
        return (Vec::new(), JournalTail::Torn { valid_bytes: 0 });
    }
    if bytes[..header.len()] != header[..] {
        return (
            Vec::new(),
            JournalTail::Corrupt {
                offset: 0,
                reason: "journal header mismatch",
                valid_bytes: 0,
            },
        );
    }
    let mut records = Vec::new();
    let mut off = header.len();
    while off < bytes.len() {
        let Some(w) = bytes.get(off..off + 4) else {
            return (
                records,
                JournalTail::Torn {
                    valid_bytes: off as u64,
                },
            );
        };
        let len = u32::from_le_bytes(w.try_into().unwrap()) as usize;
        let Some(crc_w) = bytes.get(off + 4..off + 8) else {
            return (
                records,
                JournalTail::Torn {
                    valid_bytes: off as u64,
                },
            );
        };
        let crc = u32::from_le_bytes(crc_w.try_into().unwrap());
        let Some(body) = bytes.get(off + 8..off + 8 + len) else {
            // Tail shorter than the record claims: torn append.
            return (
                records,
                JournalTail::Torn {
                    valid_bytes: off as u64,
                },
            );
        };
        if crc32(body) != crc {
            return (
                records,
                JournalTail::Corrupt {
                    offset: off,
                    reason: "journal record checksum mismatch",
                    valid_bytes: off as u64,
                },
            );
        }
        match decode_journal_record(body) {
            Ok(d) => records.push(d),
            Err(reason) => {
                return (
                    records,
                    JournalTail::Corrupt {
                        offset: off,
                        reason,
                        valid_bytes: off as u64,
                    },
                )
            }
        }
        off += 8 + len;
    }
    (records, JournalTail::Clean)
}

/// Segment meta block: relation name, base fingerprint, ordering tag,
/// `seg_seq`.
fn encode_segment_meta(relation: &str, base_fp: u64, ordering_tag: u64, seg_seq: u64) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&(relation.len() as u32).to_le_bytes());
    out.extend_from_slice(relation.as_bytes());
    out.extend_from_slice(&base_fp.to_le_bytes());
    out.extend_from_slice(&ordering_tag.to_le_bytes());
    out.extend_from_slice(&seg_seq.to_le_bytes());
    out
}

fn decode_segment_meta(meta: &[u8]) -> std::result::Result<(String, u64, u64, u64), DecodeError> {
    let fail = |offset, reason| Err(DecodeError { offset, reason });
    let Some(w) = meta.get(0..4) else {
        return fail(0, "segment meta truncated inside the name length");
    };
    let name_len = u32::from_le_bytes(w.try_into().unwrap()) as usize;
    let Some(name) = meta.get(4..4 + name_len) else {
        return fail(4, "segment meta truncated inside the relation name");
    };
    let Ok(name) = std::str::from_utf8(name) else {
        return fail(4, "segment relation name is not UTF-8");
    };
    let rest = &meta[4 + name_len..];
    if rest.len() != 24 {
        return fail(4 + name_len, "segment meta has the wrong trailer length");
    }
    let base_fp = u64::from_le_bytes(rest[0..8].try_into().unwrap());
    let ordering_tag = u64::from_le_bytes(rest[8..16].try_into().unwrap());
    let seg_seq = u64::from_le_bytes(rest[16..24].try_into().unwrap());
    Ok((name.to_owned(), base_fp, ordering_tag, seg_seq))
}

fn encode_manifest(entries: &BTreeMap<String, ManifestEntry>) -> Vec<u8> {
    let mut payload = Vec::new();
    payload.extend_from_slice(&(entries.len() as u32).to_le_bytes());
    for (name, e) in entries {
        payload.extend_from_slice(&(name.len() as u32).to_le_bytes());
        payload.extend_from_slice(name.as_bytes());
        payload.extend_from_slice(&(e.segment.len() as u32).to_le_bytes());
        payload.extend_from_slice(e.segment.as_bytes());
        payload.extend_from_slice(&e.base_fp.to_le_bytes());
        payload.extend_from_slice(&e.ordering_tag.to_le_bytes());
        payload.extend_from_slice(&e.seg_seq.to_le_bytes());
    }
    encode_frame(MANIFEST_MAGIC, FORMAT_VERSION, &[], &payload)
}

fn decode_manifest(
    bytes: &[u8],
) -> std::result::Result<BTreeMap<String, ManifestEntry>, DecodeError> {
    let (_, payload) = decode_frame(bytes, MANIFEST_MAGIC, FORMAT_VERSION)?;
    let fail = |offset, reason| Err(DecodeError { offset, reason });
    let Some(w) = payload.get(0..4) else {
        return fail(0, "manifest truncated inside the entry count");
    };
    let count = u32::from_le_bytes(w.try_into().unwrap()) as usize;
    let mut off = 4usize;
    let read_str = |off: &mut usize| -> std::result::Result<String, DecodeError> {
        let w = payload.get(*off..*off + 4).ok_or(DecodeError {
            offset: *off,
            reason: "manifest truncated inside a string length",
        })?;
        let len = u32::from_le_bytes(w.try_into().unwrap()) as usize;
        *off += 4;
        let s = payload.get(*off..*off + len).ok_or(DecodeError {
            offset: *off,
            reason: "manifest truncated inside a string",
        })?;
        let s = std::str::from_utf8(s).map_err(|_| DecodeError {
            offset: *off,
            reason: "manifest string is not UTF-8",
        })?;
        *off += len;
        Ok(s.to_owned())
    };
    let mut out = BTreeMap::new();
    for _ in 0..count {
        let name = read_str(&mut off)?;
        let segment = read_str(&mut off)?;
        let Some(w) = payload.get(off..off + 24) else {
            return fail(off, "manifest truncated inside an entry trailer");
        };
        let base_fp = u64::from_le_bytes(w[0..8].try_into().unwrap());
        let ordering_tag = u64::from_le_bytes(w[8..16].try_into().unwrap());
        let seg_seq = u64::from_le_bytes(w[16..24].try_into().unwrap());
        off += 24;
        if out
            .insert(
                name,
                ManifestEntry {
                    segment,
                    base_fp,
                    ordering_tag,
                    seg_seq,
                },
            )
            .is_some()
        {
            return fail(off, "manifest repeats a relation");
        }
    }
    if off != payload.len() {
        return fail(off, "manifest payload longer than its entries");
    }
    Ok(out)
}

/// Per-relation decision after probing the cache.
enum Decision {
    Hit(Box<IndexSnapshot>, u64),
    Miss,
    Rebuild(RecoveryRecord),
}

impl IndexStore {
    /// Open (or create) a cache directory and load its manifest. A
    /// corrupt manifest is a recovery event, not an error: the store
    /// opens empty and every relation becomes a miss.
    pub fn open(dir: impl Into<PathBuf>) -> Result<IndexStore> {
        let dir = dir.into();
        fs::create_dir_all(&dir).map_err(|e| io_err("create", &dir, &e))?;
        let mut store = IndexStore {
            dir,
            manifest: BTreeMap::new(),
            stats: IndexCacheMetrics::default(),
            base_fps: BTreeMap::new(),
            journal_counts: BTreeMap::new(),
            dirty: BTreeMap::new(),
            ordering_tag: 0,
        };
        let path = store.manifest_path();
        match fs::read(&path) {
            Err(_) => {} // first run: no manifest yet
            Ok(bytes) => match decode_manifest(&bytes) {
                Ok(m) => store.manifest = m,
                Err(e) => store.stats.recoveries.push(RecoveryRecord {
                    relation: "*".to_owned(),
                    reason: recovery_reason::MANIFEST_CORRUPT,
                    detail: format!("offset {}: {}", e.offset, e.reason),
                }),
            },
        }
        Ok(store)
    }

    /// The cache directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn manifest_path(&self) -> PathBuf {
        self.dir.join("manifest")
    }

    /// Warm-start a checker from the cache: load each cached index whose
    /// fingerprint, frame, and domain layout all check out, replay its
    /// journal through incremental maintenance, and rebuild everything
    /// else from the base data. On return the checker holds an index (or
    /// a SQL-only marker) for every relation, and verdicts are identical
    /// to what a cold start over the same logical state would produce.
    ///
    /// Call [`IndexStore::write_back`] afterwards to persist what was
    /// built and compact replayed journals into fresh segments.
    pub fn warm_start(&mut self, ck: &mut Checker) -> Result<()> {
        self.ordering_tag = ordering_tag(ck.options().ordering);
        let mut names: Vec<String> = ck
            .logical_db()
            .db()
            .relation_names()
            .map(str::to_owned)
            .collect();
        names.sort();

        // Phase 1 — fingerprints, *before* journal values widen any
        // dictionary: segments are stamped with the base-CSV state.
        for name in &names {
            let fp = ck.logical_db().db().relation_fingerprint(name)?;
            self.base_fps.insert(name.clone(), fp);
        }

        // Phase 2 — scan journals, repairing torn tails and truncating
        // away corrupt suffixes (the records before the damage stay).
        let mut journals: BTreeMap<String, Vec<Delta>> = BTreeMap::new();
        for name in &names {
            let path = self.dir.join(journal_file_name(name));
            let (mut records, tail) = scan_journal(&path, name);
            match tail {
                JournalTail::Clean | JournalTail::Missing => {}
                JournalTail::Torn { valid_bytes } => {
                    self.repair_journal(name, &path, &records, valid_bytes);
                    self.stats.recoveries.push(RecoveryRecord {
                        relation: name.clone(),
                        reason: recovery_reason::JOURNAL_TORN,
                        detail: format!(
                            "partial record discarded; {} record(s) retained",
                            records.len()
                        ),
                    });
                }
                JournalTail::Corrupt {
                    offset,
                    reason,
                    valid_bytes,
                } => {
                    self.repair_journal(name, &path, &records, valid_bytes);
                    self.stats.recoveries.push(RecoveryRecord {
                        relation: name.clone(),
                        reason: recovery_reason::JOURNAL_CORRUPT,
                        detail: format!(
                            "offset {offset}: {reason}; {} record(s) retained",
                            records.len()
                        ),
                    });
                }
            }
            // A record whose arity disagrees with the schema is corruption
            // the CRC cannot catch (it protects bytes, not meaning).
            let arity = ck.logical_db().db().relation(name)?.arity();
            if let Some(bad) = records.iter().position(|d| d.values().len() != arity) {
                records.truncate(bad);
                let keep: Vec<u8> = {
                    let mut buf = journal_header(name);
                    for d in &records {
                        buf.extend_from_slice(&encode_journal_record(d));
                    }
                    buf
                };
                let _ = fs::write(&path, keep);
                self.stats.recoveries.push(RecoveryRecord {
                    relation: name.clone(),
                    reason: recovery_reason::JOURNAL_CORRUPT,
                    detail: format!("record {bad} has the wrong arity; suffix discarded"),
                });
            }
            self.journal_counts
                .insert(name.clone(), records.len() as u64);
            journals.insert(name.clone(), records);
        }

        // Phase 3 — intern every journaled value so dictionaries (and the
        // class sizes frozen next) cover the post-replay state uniformly.
        for name in &names {
            let classes: Vec<String> = ck
                .logical_db()
                .db()
                .relation(name)?
                .schema()
                .columns()
                .iter()
                .map(|c| c.class.clone())
                .collect();
            for d in &journals[name] {
                for (i, v) in d.values().iter().enumerate() {
                    ck.logical_db_mut().db_mut().encode_value(&classes[i], v);
                }
            }
        }

        // Phase 4 — freeze all class sizes before importing any segment,
        // so a shared class cannot be frozen narrow by one relation's
        // import and then overflowed by a sibling's journal.
        for name in &names {
            let classes: Vec<String> = ck
                .logical_db()
                .db()
                .relation(name)?
                .schema()
                .columns()
                .iter()
                .map(|c| c.class.clone())
                .collect();
            for class in classes {
                ck.logical_db_mut().class_domain_size(&class);
            }
        }

        // Phase 5 — per relation: adopt the cached segment or rebuild.
        for name in &names {
            let records = journals.remove(name).unwrap_or_default();
            let decision = self.decide(ck, name, records.len() as u64)?;
            match decision {
                Decision::Hit(snap, seg_seq) => {
                    self.adopt(ck, name, &snap, seg_seq, &records)?;
                }
                Decision::Miss => {
                    self.rebuild(ck, name, &records, false)?;
                }
                Decision::Rebuild(rec) => {
                    self.stats.recoveries.push(rec);
                    self.rebuild(ck, name, &records, true)?;
                }
            }
        }
        Ok(())
    }

    /// Truncate a journal back to its healthy prefix (best-effort; if the
    /// rewrite fails the next open will just re-detect the damage).
    fn repair_journal(&mut self, name: &str, path: &Path, records: &[Delta], valid_bytes: u64) {
        let rewrite = if valid_bytes >= journal_header(name).len() as u64 {
            // Healthy header: truncate in place.
            fs::OpenOptions::new()
                .write(true)
                .open(path)
                .and_then(|f| f.set_len(valid_bytes))
        } else {
            // Header itself damaged: rewrite from the decoded records.
            let mut buf = journal_header(name);
            for d in records {
                buf.extend_from_slice(&encode_journal_record(d));
            }
            fs::write(path, buf)
        };
        if rewrite.is_err() {
            self.stats.write_failures += 1;
        }
    }

    /// Probe manifest + segment for one relation. Does not touch the
    /// checker's indices; domain-width checks happen here too since the
    /// class sizes are already frozen.
    fn decide(&mut self, ck: &mut Checker, name: &str, journal_len: u64) -> Result<Decision> {
        let Some(entry) = self.manifest.get(name).cloned() else {
            return Ok(Decision::Miss);
        };
        let fp = self.base_fps[name];
        let rebuild = |reason, detail: String| {
            Ok(Decision::Rebuild(RecoveryRecord {
                relation: name.to_owned(),
                reason,
                detail,
            }))
        };
        if entry.base_fp != fp {
            return rebuild(
                recovery_reason::STALE_FINGERPRINT,
                format!(
                    "segment fp {:016x}, base data fp {:016x}",
                    entry.base_fp, fp
                ),
            );
        }
        if entry.ordering_tag != self.ordering_tag {
            return rebuild(
                recovery_reason::STALE_FINGERPRINT,
                "ordering strategy changed since the segment was written".to_owned(),
            );
        }
        let seg_path = self.dir.join(&entry.segment);
        let bytes = match fs::read(&seg_path) {
            Ok(b) => b,
            Err(e) => {
                return rebuild(
                    recovery_reason::SEGMENT_MISSING,
                    format!("{}: {e}", seg_path.display()),
                )
            }
        };
        let (meta, payload) = match decode_frame(&bytes, SEGMENT_MAGIC, FORMAT_VERSION) {
            Ok(mp) => mp,
            Err(e) => {
                return rebuild(
                    recovery_reason::SEGMENT_CORRUPT,
                    format!("offset {}: {}", e.offset, e.reason),
                )
            }
        };
        let (seg_name, seg_fp, seg_tag, seg_seq) = match decode_segment_meta(meta) {
            Ok(m) => m,
            Err(e) => {
                return rebuild(
                    recovery_reason::SEGMENT_CORRUPT,
                    format!("meta offset {}: {}", e.offset, e.reason),
                )
            }
        };
        if seg_name != name
            || seg_fp != entry.base_fp
            || seg_tag != entry.ordering_tag
            || seg_seq != entry.seg_seq
        {
            return rebuild(
                recovery_reason::SEGMENT_CORRUPT,
                "segment meta disagrees with the manifest".to_owned(),
            );
        }
        if seg_seq > journal_len {
            return rebuild(
                recovery_reason::JOURNAL_CORRUPT,
                format!(
                    "segment folds {seg_seq} journal record(s) but only {journal_len} are readable"
                ),
            );
        }
        let snap = match IndexSnapshot::from_bytes(payload) {
            Ok(s) => s,
            Err(CoreError::SnapshotDecode(e)) => {
                return rebuild(
                    recovery_reason::SEGMENT_CORRUPT,
                    format!("snapshot offset {}: {}", e.offset, e.reason),
                )
            }
            Err(e) => return Err(e),
        };
        if snap.relation != name {
            return rebuild(
                recovery_reason::SEGMENT_CORRUPT,
                "snapshot names a different relation".to_owned(),
            );
        }
        // Domain-width check against the frozen class sizes: a journaled
        // value from a class that outgrew its block cannot be replayed
        // into this snapshot.
        let classes: Vec<String> = ck
            .logical_db()
            .db()
            .relation(name)?
            .schema()
            .columns()
            .iter()
            .map(|c| c.class.clone())
            .collect();
        if snap.rel.slots.len() != classes.len() {
            return rebuild(
                recovery_reason::SEGMENT_CORRUPT,
                "snapshot arity disagrees with the schema".to_owned(),
            );
        }
        for (i, class) in classes.iter().enumerate() {
            let need = ck.logical_db_mut().class_domain_size(class);
            let have = snap.rel.blocks[snap.rel.slots[i]].0;
            if have != need {
                return rebuild(
                    recovery_reason::DOMAIN_OVERFLOW,
                    format!("class {class:?} needs domain size {need}, segment block holds {have}"),
                );
            }
        }
        Ok(Decision::Hit(Box::new(snap), seg_seq))
    }

    /// Adopt a validated snapshot and replay its journal. Records older
    /// than `seg_seq` are already folded into the snapshot's BDD, so they
    /// re-apply to the relation rows only; newer records go through full
    /// incremental maintenance. Any replay failure degrades to a rebuild.
    fn adopt(
        &mut self,
        ck: &mut Checker,
        name: &str,
        snap: &IndexSnapshot,
        seg_seq: u64,
        records: &[Delta],
    ) -> Result<()> {
        if let Err(e) = ck.logical_db_mut().import_index(snap) {
            // Injected faults and budget aborts degrade to a rebuild;
            // anything else is a genuine bug worth surfacing.
            if crate::checker::budget_abort(&e).is_none() {
                return Err(e);
            }
            self.stats.recoveries.push(RecoveryRecord {
                relation: name.to_owned(),
                reason: recovery_reason::SEGMENT_CORRUPT,
                detail: format!("import failed: {e}"),
            });
            return self.rebuild(ck, name, records, true);
        }
        for (i, d) in records.iter().enumerate() {
            let (row, _) = d.encode(ck.logical_db_mut(), name)?;
            let result = if (i as u64) < seg_seq {
                // Rows-only: the index already contains this delta.
                let rel = ck.logical_db_mut().db_mut().relation_mut(name)?;
                match d {
                    Delta::Insert(_) => rel.insert(&row).map(|_| ()),
                    Delta::Delete(_) => rel.delete(&row).map(|_| ()),
                }
                .map_err(CoreError::from)
            } else {
                self.stats.journal_replayed += 1;
                match d {
                    Delta::Insert(_) => ck.logical_db_mut().insert_tuple(name, &row).map(|_| ()),
                    Delta::Delete(_) => ck.logical_db_mut().delete_tuple(name, &row).map(|_| ()),
                }
            };
            if let Err(e) = result {
                // Finish the remaining records rows-only, then rebuild the
                // index from the rows: state first, index second.
                self.stats.recoveries.push(RecoveryRecord {
                    relation: name.to_owned(),
                    reason: recovery_reason::REPLAY_FAILED,
                    detail: format!("record {i}: {e}"),
                });
                for d in &records[i..] {
                    let (row, _) = d.encode(ck.logical_db_mut(), name)?;
                    let rel = ck.logical_db_mut().db_mut().relation_mut(name)?;
                    let _ = match d {
                        Delta::Insert(_) => rel.insert(&row),
                        Delta::Delete(_) => rel.delete(&row),
                    };
                }
                ck.rebuild_index(name)?;
                self.stats.misses += 1;
                self.stats.rebuilds += 1;
                self.dirty.insert(name.to_owned(), true);
                return Ok(());
            }
        }
        self.stats.hits += 1;
        if !records[seg_seq as usize..].is_empty() {
            // Replayed records get compacted into a fresh segment.
            self.dirty.insert(name.to_owned(), true);
        }
        Ok(())
    }

    /// Build (or rebuild) from base data: replay the whole journal into
    /// the relation rows, then build the index fresh.
    fn rebuild(
        &mut self,
        ck: &mut Checker,
        name: &str,
        records: &[Delta],
        was_rebuild: bool,
    ) -> Result<()> {
        for d in records {
            let (row, _) = d.encode(ck.logical_db_mut(), name)?;
            let rel = ck.logical_db_mut().db_mut().relation_mut(name)?;
            let _ = match d {
                Delta::Insert(_) => rel.insert(&row)?,
                Delta::Delete(_) => rel.delete(&row)?,
            };
        }
        ck.ensure_index(name)?;
        self.stats.misses += 1;
        if was_rebuild {
            self.stats.rebuilds += 1;
        }
        self.dirty.insert(name.to_owned(), true);
        Ok(())
    }

    /// Durably journal one delta, then apply it through incremental
    /// maintenance. Journal-first: if the process dies after the append,
    /// the next open replays the record; if it dies mid-append, the torn
    /// tail is truncated and the delta was never acknowledged. A value
    /// outside the index's frozen domain is journaled but not applied —
    /// the typed [`CoreError::DomainOverflow`] tells the caller to reopen
    /// (the next warm start rebuilds with wider blocks).
    pub fn journaled_apply(&mut self, ck: &mut Checker, name: &str, delta: &Delta) -> Result<bool> {
        self.append_delta(name, delta)?;
        self.apply_after_journal(ck, name, delta)
    }

    /// [`IndexStore::journaled_apply`] with bounded deterministic
    /// retry-with-backoff around the journal append — the serve engine's
    /// resilience path. A transient append failure (injected fault or I/O
    /// error) first has its torn tail truncated back to the pre-append
    /// length — the caller is alive and repairing, unlike the kill -9
    /// model plain [`IndexStore::append_delta`] preserves — then the
    /// append retries after a short exponential backoff, up to
    /// `max_retries` times. Returns the retries spent alongside the
    /// apply result; on `Err` the delta was never acknowledged and the
    /// caller decides how to degrade.
    pub fn journaled_apply_retrying(
        &mut self,
        ck: &mut Checker,
        name: &str,
        delta: &Delta,
        max_retries: u64,
    ) -> (u64, Result<bool>) {
        let path = self.dir.join(journal_file_name(name));
        let mut retries = 0u64;
        loop {
            let pre_len = fs::metadata(&path).map(|m| m.len()).ok();
            // Decorrelate the failpoint key per (acknowledged-record
            // sequence, attempt): the registry decides purely from
            // (seed, site, key), so retrying under the original key
            // would fail identically forever.
            let key = if retries == 0 {
                failpoint::key_str(name)
            } else {
                let seq = self.journal_counts.get(name).copied().unwrap_or(0);
                failpoint::key_str(&format!("{name}#{seq}#retry{retries}"))
            };
            match self.append_delta_keyed(name, delta, key) {
                Ok(()) => break,
                Err(e) if retries < max_retries && transient_append_failure(&e) => {
                    self.truncate_journal_to(name, pre_len);
                    std::thread::sleep(Duration::from_millis(1 << retries.min(3)));
                    retries += 1;
                }
                Err(e) => {
                    // Give up — but still roll back the torn tail: the
                    // caller stays alive, and a later successful append
                    // landing after torn bytes would truncate away an
                    // *acknowledged* record on the next replay.
                    self.truncate_journal_to(name, pre_len);
                    return (retries, Err(e));
                }
            }
        }
        (retries, self.apply_after_journal(ck, name, delta))
    }

    /// Roll a relation's journal back to a known-good length after a
    /// failed append left a torn tail (`None` = the append created the
    /// file, so remove it). Best-effort: recovery's replay truncates torn
    /// tails anyway; this just keeps the live file appendable.
    fn truncate_journal_to(&self, name: &str, len: Option<u64>) {
        let path = self.dir.join(journal_file_name(name));
        match len {
            Some(len) => {
                if let Ok(f) = fs::OpenOptions::new().write(true).open(&path) {
                    let _ = f.set_len(len);
                    let _ = f.sync_all();
                }
            }
            None => {
                let _ = fs::remove_file(&path);
            }
        }
    }

    /// The post-append half of [`IndexStore::journaled_apply`]: apply the
    /// delta ([`Delta::apply`]) and mark the relation dirty.
    fn apply_after_journal(&mut self, ck: &mut Checker, name: &str, delta: &Delta) -> Result<bool> {
        let changed = delta.apply(ck.logical_db_mut(), name)?;
        // The segment on disk no longer folds the whole journal; a
        // write-back will compact the applied records into a fresh one.
        self.dirty.insert(name.to_owned(), true);
        Ok(changed)
    }

    /// Append one delta record to a relation's journal and fsync it. The
    /// `journal-append` failpoint models a kill -9 mid-append: half the
    /// record lands on disk and the append reports failure (the delta is
    /// *not* acknowledged, matching what the next open will conclude).
    pub fn append_delta(&mut self, name: &str, delta: &Delta) -> Result<()> {
        self.append_delta_keyed(name, delta, failpoint::key_str(name))
    }

    /// [`IndexStore::append_delta`] with an explicit failpoint key — the
    /// retry path varies the key per attempt so a deterministic fault
    /// decision does not condemn every retry (see
    /// [`IndexStore::journaled_apply_retrying`]).
    fn append_delta_keyed(&mut self, name: &str, delta: &Delta, fp_key: u64) -> Result<()> {
        let path = self.dir.join(journal_file_name(name));
        if !path.exists() {
            let mut f = fs::File::create(&path).map_err(|e| io_err("create", &path, &e))?;
            f.write_all(&journal_header(name))
                .and_then(|()| f.sync_all())
                .map_err(|e| io_err("write", &path, &e))?;
        }
        let record = encode_journal_record(delta);
        let mut f = fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .map_err(|e| io_err("open", &path, &e))?;
        if failpoint::enabled() && failpoint::should_fail(failpoint::JOURNAL_APPEND, fp_key) {
            let _ = f.write_all(&record[..record.len() / 2]);
            let _ = f.sync_all();
            return Err(CoreError::Bdd(BddError::FaultInjected {
                site: failpoint::JOURNAL_APPEND,
            }));
        }
        f.write_all(&record)
            .and_then(|()| f.sync_all())
            .map_err(|e| io_err("write", &path, &e))?;
        *self.journal_counts.entry(name.to_owned()).or_insert(0) += 1;
        Ok(())
    }

    /// Persist every index built or compacted this session: fresh
    /// segments (write-temp + fsync + atomic-rename) for dirty relations,
    /// then one atomic manifest commit. Write failures are best-effort —
    /// counted in `stats.write_failures`, never fatal.
    pub fn write_back(&mut self, ck: &mut Checker) -> Result<()> {
        let mut names: Vec<String> = ck
            .logical_db()
            .db()
            .relation_names()
            .map(str::to_owned)
            .collect();
        names.sort();
        let mut changed = false;
        for name in &names {
            if !self.dirty.get(name).copied().unwrap_or(false) {
                continue;
            }
            if ck.is_sql_only(name) || !ck.logical_db().has_index(name) {
                // Nothing durable to offer: drop any stale entry.
                if self.manifest.remove(name).is_some() {
                    changed = true;
                }
                continue;
            }
            let Some(snap) = ck.logical_db().export_index(name) else {
                self.stats.write_failures += 1;
                continue;
            };
            let seg_seq = self.journal_counts.get(name).copied().unwrap_or(0);
            let base_fp = self.base_fps.get(name).copied().unwrap_or(0);
            let meta = encode_segment_meta(name, base_fp, self.ordering_tag, seg_seq);
            let bytes = encode_frame(SEGMENT_MAGIC, FORMAT_VERSION, &meta, &snap.to_bytes());
            let seg_name = segment_file_name(name);
            match self.write_segment(name, &seg_name, &bytes) {
                Ok(()) => {
                    self.manifest.insert(
                        name.clone(),
                        ManifestEntry {
                            segment: seg_name,
                            base_fp,
                            ordering_tag: self.ordering_tag,
                            seg_seq,
                        },
                    );
                    changed = true;
                }
                Err(injected) => {
                    self.stats.write_failures += 1;
                    if injected {
                        // The fault model is "the process believed this
                        // write completed": commit the manifest entry so
                        // the next open exercises torn-segment recovery.
                        self.manifest.insert(
                            name.clone(),
                            ManifestEntry {
                                segment: seg_name,
                                base_fp,
                                ordering_tag: self.ordering_tag,
                                seg_seq,
                            },
                        );
                        changed = true;
                    }
                }
            }
        }
        if changed {
            self.commit_manifest();
        }
        Ok(())
    }

    /// Write one segment file. Returns `Err(injected)` on failure, where
    /// `injected` says whether the failure was a deliberate failpoint
    /// (which leaves a torn file at the final path) or a real I/O error.
    fn write_segment(
        &mut self,
        relation: &str,
        seg_name: &str,
        bytes: &[u8],
    ) -> std::result::Result<(), bool> {
        let final_path = self.dir.join(seg_name);
        if failpoint::enabled()
            && failpoint::should_fail(failpoint::SEGMENT_WRITE, failpoint::key_str(relation))
        {
            let _ = fs::write(&final_path, &bytes[..bytes.len() / 2]);
            return Err(true);
        }
        let tmp = self.dir.join(format!("{seg_name}.tmp"));
        let write = || -> std::io::Result<()> {
            let mut f = fs::File::create(&tmp)?;
            f.write_all(bytes)?;
            f.sync_all()?;
            fs::rename(&tmp, &final_path)?;
            sync_dir(&self.dir);
            Ok(())
        };
        write().map_err(|_| {
            let _ = fs::remove_file(&tmp);
            false
        })
    }

    /// Commit the manifest atomically. The `manifest-write` failpoint
    /// models the worst commit crash: a torn manifest at the final path
    /// (as if the rename landed but the data did not).
    fn commit_manifest(&mut self) {
        let bytes = encode_manifest(&self.manifest);
        let final_path = self.manifest_path();
        if failpoint::enabled() && failpoint::should_fail(failpoint::MANIFEST_WRITE, 0) {
            let _ = fs::write(&final_path, &bytes[..bytes.len() / 2]);
            self.stats.write_failures += 1;
            return;
        }
        let tmp = self.dir.join("manifest.tmp");
        let write = || -> std::io::Result<()> {
            let mut f = fs::File::create(&tmp)?;
            f.write_all(&bytes)?;
            f.sync_all()?;
            fs::rename(&tmp, &final_path)?;
            sync_dir(&self.dir);
            Ok(())
        };
        if write().is_err() {
            let _ = fs::remove_file(&tmp);
            self.stats.write_failures += 1;
        }
    }

    /// Read-only health report for every relation in `db` (plus manifest
    /// entries for relations the database no longer has, reported as
    /// stale). Performs no repairs and no truncation.
    pub fn verify(&self, db: &Database, strategy: OrderingStrategy) -> Vec<(String, VerifyStatus)> {
        let tag = ordering_tag(strategy);
        let mut names: Vec<String> = db.relation_names().map(str::to_owned).collect();
        names.sort();
        let mut out = Vec::new();
        for name in &names {
            out.push((name.clone(), self.verify_one(db, name, tag)));
        }
        out
    }

    fn verify_one(&self, db: &Database, name: &str, tag: u64) -> VerifyStatus {
        let jnl_path = self.dir.join(journal_file_name(name));
        let (records, tail) = scan_journal(&jnl_path, name);
        match tail {
            JournalTail::Torn { .. } => {
                return VerifyStatus::JournalTorn {
                    valid: records.len() as u64,
                }
            }
            JournalTail::Corrupt { offset, .. } => {
                return VerifyStatus::JournalCorrupt {
                    offset,
                    valid: records.len() as u64,
                }
            }
            JournalTail::Clean | JournalTail::Missing => {}
        }
        let Some(entry) = self.manifest.get(name) else {
            return VerifyStatus::NotCached;
        };
        let fp = match db.relation_fingerprint(name) {
            Ok(fp) => fp,
            Err(_) => return VerifyStatus::Stale,
        };
        if entry.base_fp != fp || entry.ordering_tag != tag {
            return VerifyStatus::Stale;
        }
        let seg_path = self.dir.join(&entry.segment);
        let bytes = match fs::read(&seg_path) {
            Ok(b) => b,
            Err(_) => return VerifyStatus::SegmentMissing,
        };
        let corrupt = |e: DecodeError| VerifyStatus::SegmentCorrupt {
            offset: e.offset,
            reason: e.reason.to_owned(),
        };
        let (meta, payload) = match decode_frame(&bytes, SEGMENT_MAGIC, FORMAT_VERSION) {
            Ok(mp) => mp,
            Err(e) => return corrupt(e),
        };
        let (seg_name, seg_fp, seg_tag, seg_seq) = match decode_segment_meta(meta) {
            Ok(m) => m,
            Err(e) => return corrupt(e),
        };
        if seg_name != name || seg_fp != entry.base_fp || seg_tag != entry.ordering_tag {
            return VerifyStatus::SegmentCorrupt {
                offset: 0,
                reason: "segment meta disagrees with the manifest".to_owned(),
            };
        }
        if seg_seq > records.len() as u64 {
            return VerifyStatus::JournalCorrupt {
                offset: 0,
                valid: records.len() as u64,
            };
        }
        match IndexSnapshot::from_bytes(payload) {
            Ok(_) => VerifyStatus::Ok {
                seg_seq,
                journal: records.len() as u64,
            },
            Err(CoreError::SnapshotDecode(e)) => corrupt(e),
            Err(_) => VerifyStatus::SegmentCorrupt {
                offset: 0,
                reason: "snapshot rejected".to_owned(),
            },
        }
    }

    /// Remove cache files that belong to no known relation: segments the
    /// manifest does not reference, journals of unknown relations, and
    /// leftover temp files. Returns the removed file names.
    pub fn gc(&mut self, known_relations: &[String]) -> Result<Vec<String>> {
        let live_segments: std::collections::HashSet<&str> =
            self.manifest.values().map(|e| e.segment.as_str()).collect();
        let live_journals: std::collections::HashSet<String> = known_relations
            .iter()
            .map(|n| journal_file_name(n))
            .collect();
        let mut removed = Vec::new();
        let entries = fs::read_dir(&self.dir).map_err(|e| io_err("read", &self.dir, &e))?;
        for entry in entries.flatten() {
            let file_name = entry.file_name().to_string_lossy().into_owned();
            if file_name == "manifest" {
                continue;
            }
            let junk = if file_name.ends_with(".tmp") {
                true
            } else if file_name.ends_with(".seg") {
                !live_segments.contains(file_name.as_str())
            } else if file_name.ends_with(".jnl") {
                !live_journals.contains(&file_name)
            } else {
                false
            };
            if junk && fs::remove_file(entry.path()).is_ok() {
                removed.push(file_name);
            }
        }
        removed.sort();
        // Manifest entries whose relation no longer exists go too.
        let stale: Vec<String> = self
            .manifest
            .keys()
            .filter(|n| !known_relations.contains(n))
            .cloned()
            .collect();
        if !stale.is_empty() {
            for n in &stale {
                self.manifest.remove(n);
            }
            self.commit_manifest();
        }
        Ok(removed)
    }
}

/// fsync a directory so a rename inside it is durable (best-effort — not
/// every platform supports opening directories).
fn sync_dir(dir: &Path) {
    if let Ok(d) = fs::File::open(dir) {
        let _ = d.sync_all();
    }
}

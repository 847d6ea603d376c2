//! Crash-safe persistent index store.
//!
//! Indices are expensive to build and cheap to maintain (the paper's
//! Figure 4(b) incremental-maintenance argument); this module makes them
//! cheap to *reuse across runs* by persisting each relation's logical
//! index durably and recovering it on open. Three kinds of file live in
//! the cache directory:
//!
//! - **Segments** (`NAME-HASH.seg`): one relation's index as an
//!   [`ExportedRelation`] inside a checksummed, versioned frame whose meta
//!   block records the relation name, the base-data fingerprint, the
//!   ordering tag, and `seg_seq` — how many journal records the index
//!   already folds in. Written via write-temp + fsync + atomic-rename.
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
//! run carries on — the cache just stays cold). One function,
//! `IndexStore::decide`, holds the segment checks: warm start acts on its
//! answer, and [`IndexStore::verify`] (`relcheck index verify`) reports it
//! without the repairs.
//!
//! Every write-path syscall site is guarded by a [`failpoint`] so crash
//! recovery is tested deterministically: an armed site leaves a *torn*
//! file (a partial write at the final path — modelling post-rename data
//! loss, the strictest case a reader must survive) before erroring.

use crate::checker::Checker;
use crate::error::{CoreError, Result};
use crate::index::LogicalDatabase;
use crate::ordering::OrderingStrategy;
use crate::telemetry::{recovery_reason, IndexCacheMetrics, RecoveryRecord};
use relcheck_bdd::{crc32, decode_frame, encode_frame, failpoint, DecodeError, ExportedRelation};
use relcheck_relstore::Raw;
use std::collections::BTreeMap;
use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::time::Duration;

/// Magic for segment files.
pub const SEGMENT_MAGIC: [u8; 4] = *b"RCS1";
/// Magic for the manifest.
pub const MANIFEST_MAGIC: [u8; 4] = *b"RCM1";
/// File name of the manifest inside the cache directory.
const MANIFEST_FILE: &str = "manifest";
/// Magic opening a journal file's header.
pub const JOURNAL_MAGIC: [u8; 4] = *b"RCJ1";
/// On-disk format version of journal headers and the manifest.
pub const FORMAT_VERSION: u32 = 1;
/// On-disk format version of segments: 2 since the payload became the
/// bare [`ExportedRelation`]. A version-1 segment fails its frame check and
/// is rebuilt (`segment_corrupt`); journals and the manifest stay at
/// [`FORMAT_VERSION`], so no acknowledged journal record is lost.
pub const SEGMENT_VERSION: u32 = 2;

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

/// What [`IndexStore::warm_start`] would do with one relation, as
/// [`IndexStore::verify`] reports it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VerifyOutcome {
    /// A clean hit: the segment is adopted with no recovery.
    Hit {
        /// Journal records the segment folds in.
        seg_seq: u64,
        /// Readable journal records on disk.
        journal: u64,
    },
    /// No manifest entry: the index is built from the base data.
    NotCached,
    /// Warm start would record these recoveries and repair or rebuild.
    Recover(Vec<RecoveryRecord>),
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
    /// Every byte accounted for (no journal file is an empty journal).
    Clean,
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
    matches!(e, CoreError::FaultInjected { .. } | CoreError::Io { .. })
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
        Err(_) => return (Vec::new(), JournalTail::Clean),
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

/// One relation's journal as warm start's phase 2 finds it: the records
/// it keeps, the recoveries it records, and the repairs that make the file
/// match.
struct JournalScan {
    records: Vec<Delta>,
    recoveries: Vec<RecoveryRecord>,
    /// Tail damage: cut the file back to this many healthy bytes.
    truncate_to: Option<u64>,
    /// A record has the wrong arity: rewrite the file from `records`.
    rewrite: bool,
}

/// Phase 2's detection: scan a journal and keep its healthy record
/// prefix. A record whose arity disagrees with the schema is damage the
/// CRC cannot catch (it protects bytes, not meaning). Writes nothing.
fn check_journal(path: &Path, name: &str, arity: usize) -> JournalScan {
    let (mut records, tail) = scan_journal(path, name);
    let mut recoveries = Vec::new();
    let mut record = |reason, detail| {
        recoveries.push(RecoveryRecord {
            relation: name.to_owned(),
            reason,
            detail,
        })
    };
    let truncate_to = match tail {
        JournalTail::Clean => None,
        JournalTail::Torn { valid_bytes } => {
            record(
                recovery_reason::JOURNAL_TORN,
                format!(
                    "partial record discarded; {} record(s) retained",
                    records.len()
                ),
            );
            Some(valid_bytes)
        }
        JournalTail::Corrupt {
            offset,
            reason,
            valid_bytes,
        } => {
            record(
                recovery_reason::JOURNAL_CORRUPT,
                format!(
                    "offset {offset}: {reason}; {} record(s) retained",
                    records.len()
                ),
            );
            Some(valid_bytes)
        }
    };
    let bad = records.iter().position(|d| d.values().len() != arity);
    if let Some(bad) = bad {
        records.truncate(bad);
        record(
            recovery_reason::JOURNAL_CORRUPT,
            format!("record {bad} has the wrong arity; suffix discarded"),
        );
    }
    JournalScan {
        records,
        recoveries,
        truncate_to,
        rewrite: bad.is_some(),
    }
}

/// What warm start's phases 1–4 find for one relation.
struct Probe {
    name: String,
    base_fp: u64,
    journal: JournalScan,
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
    Hit(ExportedRelation, u64),
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

    fn manifest_path(&self) -> PathBuf {
        self.dir.join(MANIFEST_FILE)
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
        let probes = self.probe(ck)?;
        // Phase 2's repairs: truncate torn tails and corrupt suffixes (the
        // records before the damage stay).
        for p in &probes {
            let path = self.dir.join(journal_file_name(&p.name));
            if let Some(valid_bytes) = p.journal.truncate_to {
                self.repair_journal(&p.name, &path, valid_bytes);
            }
            if p.journal.rewrite {
                let _ = rewrite_journal(&path, &p.name, &p.journal.records);
            }
            self.stats
                .recoveries
                .extend(p.journal.recoveries.iter().cloned());
            self.base_fps.insert(p.name.clone(), p.base_fp);
            self.journal_counts
                .insert(p.name.clone(), p.journal.records.len() as u64);
        }

        // Phase 5 — per relation: adopt the cached segment or rebuild.
        for p in probes {
            let (name, records) = (&p.name, &p.journal.records);
            match self.decide(ck, name, p.base_fp, self.ordering_tag, records.len() as u64)? {
                Decision::Hit(rel, seg_seq) => self.adopt(ck, name, &rel, seg_seq, records)?,
                Decision::Miss => self.rebuild(ck, name, records, false)?,
                Decision::Rebuild(rec) => {
                    self.stats.recoveries.push(rec);
                    self.rebuild(ck, name, records, true)?;
                }
            }
        }
        Ok(())
    }

    /// Warm start's phases 1–4, shared with [`IndexStore::verify`]: they
    /// read the cache and widen `ck`'s dictionaries, and write no file.
    fn probe(&self, ck: &mut Checker) -> Result<Vec<Probe>> {
        let mut names: Vec<String> = ck
            .logical_db()
            .db()
            .relation_names()
            .map(str::to_owned)
            .collect();
        names.sort();
        let mut probes = Vec::with_capacity(names.len());
        for name in names {
            let db = ck.logical_db().db();
            // Phase 1 — fingerprints, *before* journal values widen any
            // dictionary: segments are stamped with the base-CSV state.
            let base_fp = db.relation_fingerprint(&name)?;
            // Phase 2 — scan the journal down to its healthy prefix.
            let arity = db.relation(&name)?.arity();
            let journal = check_journal(&self.dir.join(journal_file_name(&name)), &name, arity);
            probes.push(Probe {
                name,
                base_fp,
                journal,
            });
        }

        // Phase 3 — intern every journaled value so dictionaries (and the
        // class sizes frozen next) cover the post-replay state uniformly.
        for p in &probes {
            let classes = column_classes(ck, &p.name)?;
            for d in &p.journal.records {
                for (i, v) in d.values().iter().enumerate() {
                    ck.logical_db_mut().db_mut().encode_value(&classes[i], v);
                }
            }
        }

        // Phase 4 — freeze all class sizes before importing any segment,
        // so a shared class cannot be frozen narrow by one relation's
        // import and then overflowed by a sibling's journal.
        for p in &probes {
            for class in column_classes(ck, &p.name)? {
                ck.logical_db_mut().class_domain_size(&class);
            }
        }
        Ok(probes)
    }

    /// Truncate a journal back to its healthy prefix (best-effort; if the
    /// rewrite fails the next open will just re-detect the damage).
    fn repair_journal(&mut self, name: &str, path: &Path, valid_bytes: u64) {
        let rewrite = if valid_bytes >= journal_header(name).len() as u64 {
            // Healthy header: truncate in place.
            fs::OpenOptions::new()
                .write(true)
                .open(path)
                .and_then(|f| f.set_len(valid_bytes))
        } else {
            // Header itself damaged (so no record was readable): rewrite
            // the bare header.
            rewrite_journal(path, name, &[])
        };
        if rewrite.is_err() {
            self.stats.write_failures += 1;
        }
    }

    /// Probe manifest + segment for one relation — the store's one segment
    /// check, which both [`IndexStore::warm_start`] and
    /// [`IndexStore::verify`] act on. Does not touch the checker's indices;
    /// domain-width checks happen here too since the class sizes are
    /// already frozen.
    fn decide(
        &self,
        ck: &mut Checker,
        name: &str,
        base_fp: u64,
        ordering_tag: u64,
        journal_len: u64,
    ) -> Result<Decision> {
        let Some(entry) = self.manifest.get(name) else {
            return Ok(Decision::Miss);
        };
        let rebuild = |reason, detail: String| {
            Ok(Decision::Rebuild(RecoveryRecord {
                relation: name.to_owned(),
                reason,
                detail,
            }))
        };
        if entry.base_fp != base_fp {
            return rebuild(
                recovery_reason::STALE_FINGERPRINT,
                format!(
                    "segment fp {:016x}, base data fp {:016x}",
                    entry.base_fp, base_fp
                ),
            );
        }
        if entry.ordering_tag != ordering_tag {
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
        let (meta, payload) = match decode_frame(&bytes, SEGMENT_MAGIC, SEGMENT_VERSION) {
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
        let rel = match ExportedRelation::decode(payload) {
            Ok(r) => r,
            Err(e) => {
                return rebuild(
                    recovery_reason::SEGMENT_CORRUPT,
                    format!("payload offset {}: {}", e.offset, e.reason),
                )
            }
        };
        // Domain-width check against the frozen class sizes: a journaled
        // value from a class that outgrew its block cannot be replayed
        // into this index.
        let classes = column_classes(ck, name)?;
        if rel.slots.len() != classes.len() {
            return rebuild(
                recovery_reason::SEGMENT_CORRUPT,
                "segment arity disagrees with the schema".to_owned(),
            );
        }
        for (i, class) in classes.iter().enumerate() {
            let need = ck.logical_db_mut().class_domain_size(class);
            let have = rel.blocks[rel.slots[i]].0;
            if have != need {
                return rebuild(
                    recovery_reason::DOMAIN_OVERFLOW,
                    format!("class {class:?} needs domain size {need}, segment block holds {have}"),
                );
            }
        }
        Ok(Decision::Hit(rel, seg_seq))
    }

    /// Adopt a validated segment and replay its journal. Records older
    /// than `seg_seq` are already folded into the segment's BDD, so they
    /// re-apply to the relation rows only; newer records go through full
    /// incremental maintenance. Any maintenance failure degrades to a
    /// rebuild.
    fn adopt(
        &mut self,
        ck: &mut Checker,
        name: &str,
        rel: &ExportedRelation,
        seg_seq: u64,
        records: &[Delta],
    ) -> Result<()> {
        if let Err(e) = ck.logical_db_mut().import_index(name, rel) {
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
        // `decide` guarantees `seg_seq <= records.len()`.
        let folded = seg_seq as usize;
        replay_rows(ck, name, &records[..folded])?;
        for (i, d) in records.iter().enumerate().skip(folded) {
            let (row, _) = d.encode(ck.logical_db_mut(), name)?;
            self.stats.journal_replayed += 1;
            let result = match d {
                Delta::Insert(_) => ck.logical_db_mut().insert_tuple(name, &row),
                Delta::Delete(_) => ck.logical_db_mut().delete_tuple(name, &row),
            };
            if let Err(e) = result {
                // Finish the remaining records rows-only, then rebuild the
                // index from the rows: state first, index second.
                self.stats.recoveries.push(RecoveryRecord {
                    relation: name.to_owned(),
                    reason: recovery_reason::REPLAY_FAILED,
                    detail: format!("record {i}: {e}"),
                });
                replay_rows(ck, name, &records[i..])?;
                ck.rebuild_index(name)?;
                self.stats.misses += 1;
                self.stats.rebuilds += 1;
                self.dirty.insert(name.to_owned(), true);
                return Ok(());
            }
        }
        self.stats.hits += 1;
        if records.len() > folded {
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
        replay_rows(ck, name, records)?;
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
            return Err(CoreError::FaultInjected {
                site: failpoint::JOURNAL_APPEND,
            });
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
            let Some(rel) = ck.logical_db().export_index(name) else {
                self.stats.write_failures += 1;
                continue;
            };
            let seg_seq = self.journal_counts.get(name).copied().unwrap_or(0);
            let base_fp = self.base_fps.get(name).copied().unwrap_or(0);
            let meta = encode_segment_meta(name, base_fp, self.ordering_tag, seg_seq);
            let bytes = encode_frame(SEGMENT_MAGIC, SEGMENT_VERSION, &meta, &rel.to_bytes());
            let seg_name = segment_file_name(name);
            let written = self.write_segment(name, &seg_name, &bytes);
            if written.is_err() {
                self.stats.write_failures += 1;
            }
            // A real I/O error commits no entry. An injected one does: its
            // fault model is "the process believed this write completed",
            // so the next open exercises torn-segment recovery.
            if written != Err(false) {
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
        if failpoint::enabled()
            && failpoint::should_fail(failpoint::SEGMENT_WRITE, failpoint::key_str(relation))
        {
            let _ = fs::write(self.dir.join(seg_name), &bytes[..bytes.len() / 2]);
            return Err(true);
        }
        write_atomic(&self.dir, seg_name, bytes).map_err(|_| false)
    }

    /// Commit the manifest atomically. The `manifest-write` failpoint
    /// models the worst commit crash: a torn manifest at the final path
    /// (as if the rename landed but the data did not).
    fn commit_manifest(&mut self) {
        let bytes = encode_manifest(&self.manifest);
        if failpoint::enabled() && failpoint::should_fail(failpoint::MANIFEST_WRITE, 0) {
            let _ = fs::write(self.manifest_path(), &bytes[..bytes.len() / 2]);
            self.stats.write_failures += 1;
            return;
        }
        if write_atomic(&self.dir, MANIFEST_FILE, &bytes).is_err() {
            self.stats.write_failures += 1;
        }
    }

    /// What [`IndexStore::warm_start`] would do with each of `ck`'s
    /// relations, in name order: warm start's phases 1–4 and its
    /// per-relation decision, without the repairs, imports and replays —
    /// `verify` writes no file. `ck` is a throwaway checker built with the
    /// ordering to verify against: its dictionaries take the journaled
    /// values and its class sizes freeze, as a warm start's would.
    /// Manifest entries of relations the database no longer has are not
    /// reported; [`IndexStore::gc`] drops them.
    pub fn verify(&self, ck: &mut Checker) -> Result<Vec<(String, VerifyOutcome)>> {
        let tag = ordering_tag(ck.options().ordering);
        let mut out = Vec::new();
        for p in self.probe(ck)? {
            let journal = p.journal.records.len() as u64;
            let mut recoveries = p.journal.recoveries;
            let outcome = match self.decide(ck, &p.name, p.base_fp, tag, journal)? {
                Decision::Hit(_, seg_seq) if recoveries.is_empty() => {
                    VerifyOutcome::Hit { seg_seq, journal }
                }
                Decision::Miss if recoveries.is_empty() => VerifyOutcome::NotCached,
                Decision::Rebuild(rec) => {
                    recoveries.push(rec);
                    VerifyOutcome::Recover(recoveries)
                }
                Decision::Hit(..) | Decision::Miss => VerifyOutcome::Recover(recoveries),
            };
            out.push((p.name, outcome));
        }
        Ok(out)
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
            if file_name == MANIFEST_FILE {
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

/// Replace `dir/name` atomically: write `dir/name.tmp`, fsync it, rename
/// it over the final path, then fsync the directory so the rename is
/// durable (best-effort — not every platform supports opening
/// directories). A crash at any point leaves the old file or the new one
/// at the final path, never a torn one; on failure the temp file is
/// removed.
pub(crate) fn write_atomic(dir: &Path, name: &str, bytes: &[u8]) -> std::io::Result<()> {
    let tmp = dir.join(format!("{name}.tmp"));
    let write = || -> std::io::Result<()> {
        let mut f = fs::File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
        fs::rename(&tmp, dir.join(name))?;
        if let Ok(d) = fs::File::open(dir) {
            let _ = d.sync_all();
        }
        Ok(())
    };
    write().inspect_err(|_| {
        let _ = fs::remove_file(&tmp);
    })
}

/// Rewrite a relation's journal as its header plus `records` — the
/// healthy prefix recovery keeps.
fn rewrite_journal(path: &Path, name: &str, records: &[Delta]) -> std::io::Result<()> {
    let mut buf = journal_header(name);
    for d in records {
        buf.extend_from_slice(&encode_journal_record(d));
    }
    fs::write(path, buf)
}

/// The attribute class of each of a relation's columns, schema order.
fn column_classes(ck: &Checker, name: &str) -> Result<Vec<String>> {
    Ok(ck
        .logical_db()
        .db()
        .relation(name)?
        .schema()
        .columns()
        .iter()
        .map(|c| c.class.clone())
        .collect())
}

/// Re-apply journal records to a relation's rows only, leaving its index
/// alone. Row errors propagate: the only error `Relation::insert` and
/// `Relation::delete` return is an arity mismatch, and warm start's phase
/// 2 has already truncated every such record away.
fn replay_rows(ck: &mut Checker, name: &str, records: &[Delta]) -> Result<()> {
    for d in records {
        let (row, _) = d.encode(ck.logical_db_mut(), name)?;
        let rel = ck.logical_db_mut().db_mut().relation_mut(name)?;
        match d {
            Delta::Insert(_) => rel.insert(&row)?,
            Delta::Delete(_) => rel.delete(&row)?,
        };
    }
    Ok(())
}

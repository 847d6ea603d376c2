//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span records its name, start, end, parent span and op id; spans stay
//! in memory and are written out as JSON lines when the run ends. Counters
//! (BDD op counts, cache hit rates, …) are recorded per op at the same
//! boundaries. With tracing off every call is a plain pass-through, so the
//! untraced ops run exactly the same calls without the clock reads.

use crate::host::median;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Op id the first set-up's spans are filed under (the later set-ups
/// count down from it).
pub const SETUP_OP: u64 = u64::MAX;

struct Span {
    name: &'static str,
    op: u64,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

/// Handle of an open span (see [`Tracer::begin`]).
#[must_use]
pub struct Open(Option<usize>);

/// The span and counter recorder of one run.
pub struct Tracer {
    on: bool,
    origin: Instant,
    op: u64,
    spans: Vec<Span>,
    stack: Vec<usize>,
    counters: Vec<(u64, &'static str, f64)>,
}

impl Tracer {
    /// A recorder; `on = false` records nothing.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            origin: Instant::now(),
            op: SETUP_OP,
            spans: Vec::new(),
            stack: Vec::new(),
            counters: Vec::new(),
        }
    }

    /// Whether spans are being recorded right now.
    pub fn on(&self) -> bool {
        self.on
    }

    /// Switch recording on or off (traced and untraced ops interleave in a
    /// traced run, which measures the tracing overhead).
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    /// File subsequent spans and counters under this op id.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span; close it with [`Tracer::end`] (or [`Tracer::end_as`]).
    pub fn begin(&mut self, name: &'static str) -> Open {
        if !self.on {
            return Open(None);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            op: self.op,
            parent: self.stack.last().copied(),
            start_ns: self.now_ns(),
            end_ns: 0,
        });
        self.stack.push(idx);
        Open(Some(idx))
    }

    /// Close a span.
    pub fn end(&mut self, open: Open) {
        if let Some(idx) = open.0 {
            let end = self.now_ns();
            self.spans[idx].end_ns = end;
            self.stack.retain(|&i| i != idx);
        }
    }

    /// Close a span under a name decided only after the call returned
    /// (a check is filed by the ladder rung that decided it).
    pub fn end_as(&mut self, open: Open, name: &'static str) {
        if let Some(idx) = open.0 {
            self.spans[idx].name = name;
        }
        self.end(open);
    }

    /// Time one leaf call.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let open = self.begin(name);
        let out = f();
        self.end(open);
        out
    }

    /// Record a per-op counter (only while tracing).
    pub fn count(&mut self, name: &'static str, value: f64) {
        if self.on {
            self.counters.push((self.op, name, value));
        }
    }

    /// Per-layer figures: for every span name `x`, `x_ms`, the median over
    /// ops of the op's total self time in that layer; for every counter,
    /// the median over ops of its value. A span's self time is its
    /// duration minus the part covered by its child spans.
    pub fn layers(&self) -> BTreeMap<String, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns.saturating_sub(s.start_ns);
            }
        }
        let mut per_op: BTreeMap<String, BTreeMap<u64, f64>> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let own = s
                .end_ns
                .saturating_sub(s.start_ns)
                .saturating_sub(child_ns[i]);
            *per_op
                .entry(format!("{}_ms", s.name))
                .or_default()
                .entry(s.op)
                .or_default() += own as f64 / 1e6;
        }
        for &(op, name, v) in &self.counters {
            *per_op
                .entry(name.to_owned())
                .or_default()
                .entry(op)
                .or_default() += v;
        }
        per_op
            .into_iter()
            .map(|(name, ops)| {
                let vals: Vec<f64> = ops.into_values().collect();
                (name, median(&vals))
            })
            .collect()
    }

    /// Write every span as one JSON line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let op = if s.op > SETUP_OP - crate::SETUP_REPS as u64 {
                "\"setup\"".to_owned()
            } else {
                s.op.to_string()
            };
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"op\":{op},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

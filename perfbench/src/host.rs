//! Host normalisation and small statistics helpers.
//!
//! The benchmark runs on a shared 2-vCPU guest whose co-tenants slow a
//! fixed CPU loop 1.5–2.5× in episodes of seconds to minutes. Every op
//! latency is therefore reported twice: raw, and multiplied by `K / r`,
//! where `r` is the time of a fixed reference kernel taken just before the
//! op and `K` is a constant nominal reference time passed on the command
//! line (fixed in `BENCHMARK.json`). Ops bound by CPU and memory use a
//! table-probe kernel ([`HostRef`], `--ref-nominal-ms`); the serve workload's
//! deltas, bound by one fsync each, use a synced append ([`IoRef`],
//! `--io-ref-nominal-ms`), because the shared disk's latency drifts on its
//! own and a CPU kernel cannot see it.

use std::hint::black_box;
use std::time::Instant;

/// Slots of the table the reference kernel probes: 4 MiB of `u32`, twice
/// the 2 MiB per-core L2.
const REF_SLOTS: usize = 1 << 20;
/// Probes per reference sample (≈0.5 ms on the reference host).
const REF_PROBES: usize = 40_000;

/// The CPU reference: random read-modify-write probes into a table larger
/// than L2, with a data-dependent branch on every probe — the access
/// pattern of the BDD unique table and operation caches, written here so
/// that no change to relcheck changes the kernel. Every sample probes the
/// same address sequence.
///
/// A dependent-load pointer chase over an 8 MiB buffer was tried first. In
/// nine 20-s windows on the reference host the Q1–Q5 battery's median
/// moved 41→66 ms (spread 26%), the chase's only 8%, leaving an 18% spread
/// after normalisation; this kernel moved 23% with the battery
/// (correlation 0.97 across windows) and left 7%.
pub struct HostRef {
    table: Vec<u32>,
}

impl HostRef {
    /// A zeroed table, touched once so no sample pays its page faults.
    pub fn new() -> HostRef {
        let mut host = HostRef {
            table: vec![0; REF_SLOTS],
        };
        host.sample_ms();
        host
    }

    /// One reference sample, in milliseconds.
    pub fn sample_ms(&mut self) -> f64 {
        let start = Instant::now();
        let mask = self.table.len() - 1;
        let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
        let mut acc: u32 = 0;
        for _ in 0..REF_PROBES {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let slot = &mut self.table[(x as usize) & mask];
            let v = *slot;
            if v & 1 == 0 {
                *slot = v.wrapping_add(acc | 1);
                acc = acc.wrapping_add(v);
            } else {
                acc ^= v.rotate_left(5);
            }
        }
        black_box(acc);
        start.elapsed().as_secs_f64() * 1e3
    }
}

impl Default for HostRef {
    fn default() -> Self {
        HostRef::new()
    }
}

/// The disk reference: append 64 bytes to a file in the scratch directory
/// and `sync_all` it, the same kind of write an acknowledged delta makes.
pub struct IoRef {
    file: std::fs::File,
}

impl IoRef {
    /// Create (truncate) the reference file.
    pub fn create(path: &std::path::Path) -> std::io::Result<IoRef> {
        let file = std::fs::OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(true)
            .open(path)?;
        Ok(IoRef { file })
    }

    /// One reference sample, in milliseconds.
    pub fn sample_ms(&mut self) -> std::io::Result<f64> {
        use std::io::Write;
        let start = Instant::now();
        self.file.write_all(&[0x5a; 64])?;
        self.file.sync_all()?;
        Ok(start.elapsed().as_secs_f64() * 1e3)
    }
}

/// Median of a sample (0 for an empty one).
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Linear-interpolated quantile `q ∈ [0, 1]` (0 for an empty sample).
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The highest whole percentile with at least ten samples beyond it, and
/// its value: the tail figure a sample of this size supports. `None`
/// below 20 samples, where even the median has fewer than ten beyond it
/// on one side.
pub fn supported_tail(xs: &[f64]) -> Option<(u32, f64)> {
    if xs.len() < 20 {
        return None;
    }
    let n = xs.len() as f64;
    let p = (100.0 * (1.0 - 10.0 / n)).floor().clamp(50.0, 99.0) as u32;
    Some((p, quantile(xs, f64::from(p) / 100.0)))
}

/// Peak resident set size of this process (VmHWM), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

//! Deterministic fault injection for resilience testing.
//!
//! A *failpoint* is a named site in the engine or the checker where a fault
//! can be injected at runtime — no compile-time feature, no rebuild. The
//! registry is process-global and **off by default**: the only cost an
//! unconfigured production run pays is one relaxed atomic load per probe
//! ([`enabled`]), which is free next to the hash-consing work around it.
//!
//! Decisions are *stateless and keyed*: whether site `s` fires on its
//! `k`-th opportunity is a pure function of `(seed, s, k)` through the
//! SplitMix64 finalizer — the same mixer the workload generators use, so
//! the whole workspace shares one PRNG pedigree. Statelessness is the
//! point: the decision does not depend on thread interleaving or on how
//! many *other* sites probed in between, so a fault profile reproduces
//! bit-for-bit from run to run, and a test can aim a fault at exactly one
//! relation by keying on its name.
//!
//! Sites (see [`SITES`]): `index-build`, `snapshot-decode`, `apply`,
//! `sql-fallback`, plus the persistent-index-store write path
//! (`segment-write`, `journal-append`, `manifest-write`). The CLI exposes
//! the registry as `relcheck run --fail-spec 'site=p[,site=p...]'
//! --fail-seed N`.
//!
//! Probes at `Result` sites return [`crate::BddError::FaultInjected`];
//! the store's write-path sites simulate a kill -9 mid-syscall: the
//! probing code deliberately leaves a *torn* file (a partial write at the
//! final path) before erroring, so crash recovery is exercised against
//! exactly the artifacts a real crash would leave.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

/// Failpoint site: logical-index construction (`LogicalDatabase::build_index`).
pub const INDEX_BUILD: &str = "index-build";
/// Failpoint site: importing an index snapshot into a manager (the index
/// store's warm start).
pub const SNAPSHOT_DECODE: &str = "snapshot-decode";
/// Failpoint site: the BDD recursion budget probe (apply/ite/quantify).
pub const APPLY: &str = "apply";
/// Failpoint site: entry to the SQL fallback evaluator.
pub const SQL_FALLBACK: &str = "sql-fallback";
/// Failpoint site: writing an index segment file in the persistent store.
/// Fires as a torn write: half the bytes land at the final path.
pub const SEGMENT_WRITE: &str = "segment-write";
/// Failpoint site: appending a delta record to a tuple journal. Fires as a
/// torn append: a partial record lands at the journal tail.
pub const JOURNAL_APPEND: &str = "journal-append";
/// Failpoint site: committing the store manifest. Fires as a torn write at
/// the final manifest path, bypassing the write-temp/rename protocol.
pub const MANIFEST_WRITE: &str = "manifest-write";

/// Every site name the registry accepts, in catalog order.
pub const SITES: [&str; 7] = [
    INDEX_BUILD,
    SNAPSHOT_DECODE,
    APPLY,
    SQL_FALLBACK,
    SEGMENT_WRITE,
    JOURNAL_APPEND,
    MANIFEST_WRITE,
];

static ENABLED: AtomicBool = AtomicBool::new(false);
static REGISTRY: Mutex<Option<Registry>> = Mutex::new(None);

#[derive(Debug, Clone)]
struct Registry {
    seed: u64,
    /// `(site, probability)`, indexed parallel to [`SITES`]; absent sites
    /// carry probability 0.
    probs: [f64; SITES.len()],
    /// How often each site has actually fired since configuration.
    fired: [u64; SITES.len()],
}

fn site_index(site: &str) -> Option<usize> {
    SITES.iter().position(|&s| s == site)
}

/// SplitMix64 finalizer (Steele–Lea–Flood mixing constants, identical to
/// `datagen::rng`). Used as a keyed hash, not a sequential stream.
#[inline]
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Hash an arbitrary string into a stable failpoint key — used to key
/// decisions on relation or constraint names.
pub fn key_str(s: &str) -> u64 {
    let mut h = 0x9E37_79B9_7F4A_7C15u64;
    for chunk in s.as_bytes().chunks(8) {
        let mut word = [0u8; 8];
        word[..chunk.len()].copy_from_slice(chunk);
        h = mix(h ^ u64::from_le_bytes(word)).wrapping_add(chunk.len() as u64);
    }
    mix(h)
}

/// The pure decision function: does `site` fire on opportunity `key` under
/// `seed` with probability `p`? Exposed for tests; [`should_fail`] is the
/// probing entry point.
pub fn decide(seed: u64, site: &str, key: u64, p: f64) -> bool {
    if p <= 0.0 {
        return false;
    }
    if p >= 1.0 {
        return true;
    }
    let h = mix(mix(seed ^ key_str(site)) ^ key);
    // 53-bit uniform in [0,1), same construction as SplitMix64::gen_f64.
    let unit = (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
    unit < p
}

/// Parse a `--fail-spec` string: comma-separated `site=probability` pairs,
/// e.g. `"index-build=1"` or `"apply=0.01,sql-fallback=1"`. Site names must
/// come from [`SITES`]; probabilities must lie in `[0, 1]`.
pub fn parse_spec(spec: &str) -> Result<Vec<(String, f64)>, String> {
    let mut out = Vec::new();
    for part in spec.split(',') {
        let part = part.trim();
        if part.is_empty() {
            continue;
        }
        let (site, prob) = part
            .split_once('=')
            .ok_or_else(|| format!("fail-spec entry '{part}' is not of the form site=prob"))?;
        let site = site.trim();
        if site_index(site).is_none() {
            return Err(format!(
                "unknown failpoint site '{site}' (known: {})",
                SITES.join(", ")
            ));
        }
        let p: f64 = prob
            .trim()
            .parse()
            .map_err(|_| format!("fail-spec probability '{prob}' is not a number"))?;
        if !(0.0..=1.0).contains(&p) {
            return Err(format!("fail-spec probability {p} outside [0, 1]"));
        }
        out.push((site.to_owned(), p));
    }
    if out.is_empty() {
        return Err("fail-spec configured no sites".to_owned());
    }
    Ok(out)
}

/// Arm the registry with a parsed profile and a seed. Replaces any previous
/// configuration and resets the fired counters.
pub fn configure(sites: &[(String, f64)], seed: u64) -> Result<(), String> {
    let mut probs = [0.0; SITES.len()];
    for (site, p) in sites {
        let i = site_index(site).ok_or_else(|| format!("unknown failpoint site '{site}'"))?;
        if !(0.0..=1.0).contains(p) {
            return Err(format!("fail-spec probability {p} outside [0, 1]"));
        }
        probs[i] = *p;
    }
    *REGISTRY.lock().unwrap() = Some(Registry {
        seed,
        probs,
        fired: [0; SITES.len()],
    });
    ENABLED.store(true, Ordering::SeqCst);
    Ok(())
}

/// Convenience: parse a `--fail-spec` string and arm the registry.
pub fn configure_spec(spec: &str, seed: u64) -> Result<(), String> {
    configure(&parse_spec(spec)?, seed)
}

/// Disarm the registry entirely. Fired counters are discarded.
pub fn clear() {
    ENABLED.store(false, Ordering::SeqCst);
    *REGISTRY.lock().unwrap() = None;
}

/// Is any fault profile armed? One relaxed atomic load — this is the hot
/// path's entire cost when fault injection is off.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Probe `site` with deterministic `key`. Returns `true` (and bumps the
/// site's fired counter) iff the armed profile fires here. Always `false`
/// when the registry is disarmed.
pub fn should_fail(site: &'static str, key: u64) -> bool {
    if !enabled() {
        return false;
    }
    let mut guard = REGISTRY.lock().unwrap();
    let Some(reg) = guard.as_mut() else {
        return false;
    };
    let Some(i) = site_index(site) else {
        return false;
    };
    if decide(reg.seed, site, key, reg.probs[i]) {
        reg.fired[i] += 1;
        true
    } else {
        false
    }
}

/// Snapshot of `(site, fired count)` for every catalog site under the
/// current configuration. Empty when disarmed. Feeds the telemetry
/// `degradation` section so CI can assert each site actually fired.
pub fn fired_counts() -> Vec<(&'static str, u64)> {
    let guard = REGISTRY.lock().unwrap();
    match guard.as_ref() {
        Some(reg) => SITES
            .iter()
            .enumerate()
            .map(|(i, &s)| (s, reg.fired[i]))
            .collect(),
        None => Vec::new(),
    }
}

/// The armed seed, if any — recorded into emitted metrics for replay.
pub fn armed_seed() -> Option<u64> {
    REGISTRY.lock().unwrap().as_ref().map(|r| r.seed)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The registry is process-global; tests that arm it must not overlap.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    fn locked() -> std::sync::MutexGuard<'static, ()> {
        TEST_LOCK.lock().unwrap_or_else(|p| p.into_inner())
    }

    #[test]
    fn disarmed_registry_never_fires() {
        let _g = locked();
        clear();
        assert!(!enabled());
        for site in SITES {
            assert!(!should_fail(site, 0));
        }
        assert!(fired_counts().is_empty());
        assert_eq!(armed_seed(), None);
    }

    #[test]
    fn decisions_are_deterministic_and_keyed() {
        // Pure function: same inputs, same answer; different keys decorrelate.
        assert_eq!(decide(7, APPLY, 3, 0.5), decide(7, APPLY, 3, 0.5));
        assert!(decide(7, APPLY, 3, 1.0));
        assert!(!decide(7, APPLY, 3, 0.0));
        let hits = (0..10_000u64)
            .filter(|&k| decide(7, APPLY, k, 0.25))
            .count();
        assert!((2000..3000).contains(&hits), "p=0.25 fired {hits}/10000");
        // Site name participates in the hash.
        let a: Vec<bool> = (0..64).map(|k| decide(7, APPLY, k, 0.5)).collect();
        let b: Vec<bool> = (0..64).map(|k| decide(7, SQL_FALLBACK, k, 0.5)).collect();
        assert_ne!(a, b);
    }

    #[test]
    fn armed_registry_fires_and_counts() {
        let _g = locked();
        configure(&[(INDEX_BUILD.to_owned(), 1.0)], 42).unwrap();
        assert!(enabled());
        assert_eq!(armed_seed(), Some(42));
        assert!(should_fail(INDEX_BUILD, 1));
        assert!(should_fail(INDEX_BUILD, 2));
        assert!(!should_fail(APPLY, 1), "unlisted sites stay at p=0");
        let counts = fired_counts();
        let build = counts.iter().find(|(s, _)| *s == INDEX_BUILD).unwrap();
        assert_eq!(build.1, 2);
        clear();
        assert!(!should_fail(INDEX_BUILD, 3));
    }

    #[test]
    fn spec_parsing_round_trip_and_rejects() {
        let spec = parse_spec("index-build=1, apply=0.25").unwrap();
        assert_eq!(spec.len(), 2);
        assert_eq!(spec[0], (INDEX_BUILD.to_owned(), 1.0));
        assert_eq!(spec[1], (APPLY.to_owned(), 0.25));
        assert!(parse_spec("bogus-site=1").is_err());
        assert!(parse_spec("apply=2.0").is_err());
        assert!(parse_spec("apply").is_err());
        assert!(parse_spec("apply=zzz").is_err());
        assert!(parse_spec("").is_err());
    }

    #[test]
    fn key_str_is_stable_and_spreads() {
        assert_eq!(key_str("CUSTOMERS"), key_str("CUSTOMERS"));
        assert_ne!(key_str("CUSTOMERS"), key_str("ORDERS"));
        assert_ne!(key_str("a"), key_str("aa"));
        // Padding must not collide a short name with its NUL-extension.
        assert_ne!(key_str("ab"), key_str("ab\0"));
    }
}

#![warn(missing_docs)]

//! # relcheck-bench — the experiment harness
//!
//! One binary per table/figure of the paper's evaluation (Section 5):
//!
//! | target      | reproduces                                                    |
//! |-------------|---------------------------------------------------------------|
//! | `fig2`      | Fig 2(a) ordering effect; 2(b,c) heuristic rankings           |
//! | `fig3`      | Fig 3(a,b) α/β histograms; 3(c) accuracy comparison           |
//! | `fig4`      | Fig 4(a,b,c) index build time / update time / node count      |
//! | `fig5`      | Fig 5(a) join & implication constraints; 5(b) FD check        |
//! | `fig6`      | Fig 6(a) join rewrite; 6(b) ∃ pull-up; 6(c) ∀ push-down       |
//! | `table1`    | Table 1: Q1–Q5, SQL vs BDD-random vs BDD-optimized            |
//! | `threshold` | §5.2 node-buffer fill times (10³ … 10⁷ nodes)                 |
//! | `dynamic`   | update-stream re-validation: SQL vs BDD vs BDD+registry       |
//! | `par_scaling` | serial vs parallel constraint checking at 1/2/4/8 workers   |
//!
//! Run with `cargo run -p relcheck-bench --release --bin <target> [-- args]`.
//! Each binary accepts `--tuples N` (and prints its defaults) so the
//! paper-scale experiment and a quick smoke run are both one command away.
//! Self-timed micro-benchmarks (`benches/microbench.rs`) cover the same
//! rewrite ablations; `cargo bench -p relcheck-bench` runs them.

pub mod queries;

use std::time::{Duration, Instant};

/// Time a closure once, returning (result, wall-clock duration).
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let r = f();
    (r, start.elapsed())
}

/// Milliseconds with one decimal, for table cells.
pub fn ms(d: Duration) -> String {
    format!("{:.1}", d.as_secs_f64() * 1e3)
}

/// Seconds with two decimals.
pub fn secs(d: Duration) -> String {
    format!("{:.2}", d.as_secs_f64())
}

/// Parse `--flag value` style integer arguments, with a default when the
/// flag is absent. A value that is missing or not an integer prints a
/// message naming the flag and exits with status 2.
pub fn arg_usize(name: &str, default: usize) -> usize {
    let args: Vec<String> = std::env::args().collect();
    parse_usize_arg(&args, name, default).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2)
    })
}

/// The parsing behind [`arg_usize`], over an explicit argument list.
fn parse_usize_arg(args: &[String], name: &str, default: usize) -> Result<usize, String> {
    let Some(i) = args.iter().position(|a| a == name) else {
        return Ok(default);
    };
    let value = args.get(i + 1).map_or("", String::as_str);
    value
        .parse()
        .map_err(|_| format!("{name} expects a non-negative integer, got {value:?}"))
}

/// Parse `--flag value` style string arguments (e.g. `--metrics out.json`).
pub fn arg_str(name: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

/// First free-standing (non `--` prefixed, non-value) argument, e.g. the
/// subfigure selector `a` / `b` / `c`.
pub fn arg_selector() -> Option<String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut skip_next = false;
    for a in args {
        if skip_next {
            skip_next = false;
            continue;
        }
        if a.starts_with("--") {
            skip_next = true;
            continue;
        }
        return Some(a);
    }
    None
}

/// Fixed-width text table printer.
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// New table with the given column headers.
    pub fn new(headers: &[&str]) -> Table {
        Table {
            headers: headers.iter().map(|s| (*s).to_owned()).collect(),
            rows: vec![],
        }
    }

    /// Append a row (must match the header count).
    pub fn row(&mut self, cells: &[String]) {
        assert_eq!(cells.len(), self.headers.len());
        self.rows.push(cells.to_vec());
    }

    /// Render to stdout.
    pub fn print(&self) {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, c) in widths.iter_mut().zip(row) {
                *w = (*w).max(c.len());
            }
        }
        let line = |cells: &[String]| {
            let parts: Vec<String> = cells
                .iter()
                .zip(&widths)
                .map(|(c, w)| format!("{c:>w$}", w = w))
                .collect();
            println!("  {}", parts.join("  "));
        };
        line(&self.headers);
        println!(
            "  {}",
            widths
                .iter()
                .map(|w| "-".repeat(*w))
                .collect::<Vec<_>>()
                .join("  ")
        );
        for row in &self.rows {
            line(row);
        }
    }
}

/// Simple text histogram: counts per bin over [lo, hi) with an overflow
/// bin, matching the paper's Figure 3 binning (threshold at `hi`).
pub fn histogram(values: &[f64], lo: f64, hi: f64, bins: usize) -> Vec<(String, usize)> {
    let width = (hi - lo) / bins as f64;
    let mut counts = vec![0usize; bins + 1];
    for &v in values {
        if v >= hi {
            counts[bins] += 1;
        } else if v >= lo {
            counts[((v - lo) / width) as usize] += 1;
        }
    }
    let mut out = Vec::new();
    for (i, &c) in counts.iter().enumerate().take(bins) {
        let a = lo + i as f64 * width;
        out.push((format!("[{:.2},{:.2})", a, a + width), c));
    }
    out.push((format!("≥{hi:.2}"), counts[bins]));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_bins_and_overflow() {
        let h = histogram(&[1.0, 1.1, 1.4, 2.4, 9.0], 1.0, 2.5, 3);
        assert_eq!(h.len(), 4);
        let total: usize = h.iter().map(|&(_, c)| c).sum();
        assert_eq!(total, 5);
        assert_eq!(h[3].1, 1, "9.0 lands in the overflow bin");
        assert_eq!(h[0].1, 3, "1.0, 1.1, 1.4 in the first bin");
    }

    #[test]
    fn table_accepts_matching_rows() {
        let mut t = Table::new(&["a", "b"]);
        t.row(&["1".into(), "2".into()]);
        t.print();
    }

    #[test]
    fn usize_args_parse_or_name_the_flag() {
        let args: Vec<String> = ["table1", "--tuples", "2000", "--samples", "10k", "--rows"]
            .map(String::from)
            .to_vec();
        assert_eq!(parse_usize_arg(&args, "--tuples", 7), Ok(2000));
        assert_eq!(parse_usize_arg(&args, "--seed", 7), Ok(7), "absent flag");
        let err = parse_usize_arg(&args, "--samples", 7).unwrap_err();
        assert!(err.contains("--samples") && err.contains("10k"), "{err}");
        let err = parse_usize_arg(&args, "--rows", 7).unwrap_err();
        assert!(err.contains("--rows"), "missing value: {err}");
    }

    #[test]
    fn timed_measures_something() {
        let (v, d) = timed(|| 21 * 2);
        assert_eq!(v, 42);
        assert!(d.as_nanos() > 0);
    }
}

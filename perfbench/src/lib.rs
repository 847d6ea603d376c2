//! relcheck's end-to-end benchmark (see README.md).
//!
//! Four seeded workloads, each made of many short ops timed from outside
//! around calls into relcheck's public API — the same calls `relcheck
//! run` and `relcheck serve` make. Every op latency is reported raw and
//! host-normalised ([`host`]); the gated figures are normalised medians.
//! A traced run ([`trace`]) adds spans around each layer call and reports
//! per-layer figures.

pub mod data;
pub mod host;
pub mod trace;
pub mod workloads;

use host::HostRef;
use std::path::PathBuf;
use std::time::Instant;
use trace::{Tracer, SETUP_OP};

/// Set-ups per run; `setup_s` is their host-normalised median.
pub const SETUP_REPS: usize = 3;

/// The workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `relcheck run` from CSV + spec: cold, and warm-started from a store.
    Batch,
    /// Q1–Q5 on warm indices at 100k R1 tuples.
    Table1,
    /// The customer battery under a node limit that sends one FD down the
    /// degradation ladder to the SQL rung.
    Fallback,
    /// An open-loop delta/check stream against a `ServeActor`.
    Serve,
}

impl Workload {
    /// Parse a `--workload` name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Some(match name {
            "batch" => Workload::Batch,
            "table1" => Workload::Table1,
            "fallback" => Workload::Fallback,
            "serve" => Workload::Serve,
            _ => return None,
        })
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Batch => "batch",
            Workload::Table1 => "table1",
            Workload::Fallback => "fallback",
            Workload::Serve => "serve",
        }
    }

    /// Names of the main and side op kinds.
    pub fn kinds(self) -> (&'static str, &'static str) {
        match self {
            Workload::Batch => ("run", "cached_run"),
            Workload::Table1 => ("check", "witnesses"),
            Workload::Fallback => ("check", "sql_check"),
            Workload::Serve => ("check", "delta"),
        }
    }
}

/// One run's settings.
#[derive(Debug, Clone)]
pub struct Config {
    /// Which workload.
    pub workload: Workload,
    /// Input seed: the same seed gives the same inputs.
    pub seed: u64,
    /// Measured-phase length.
    pub seconds: f64,
    /// Record spans and per-layer figures.
    pub trace: bool,
    /// `K`: the nominal pointer-chase time CPU-bound latencies are scaled to.
    pub ref_nominal_ms: f64,
    /// The nominal synced-append time fsync-bound latencies are scaled to.
    pub io_ref_nominal_ms: f64,
    /// Stop after this many ops instead of after `seconds` (tests).
    pub max_ops: Option<usize>,
    /// Shrink every input (tests).
    pub small: bool,
    /// Scratch directory for stores, CSVs and spans.
    pub work_dir: PathBuf,
}

/// One timed op.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Side op (`false` = main op).
    pub side: bool,
    /// Wall time of the op.
    pub raw_ms: f64,
    /// Reference-kernel time taken just before the op.
    pub ref_ms: f64,
    /// `ref_ms` is a disk-reference sample ([`host::IoRef`]), not a
    /// pointer-chase one.
    pub io: bool,
    /// Whether the op ran with spans on.
    pub traced: bool,
}

impl Sample {
    /// The host-normalised latency: `raw · K / r`, with the nominal time
    /// of the kernel that took `r`.
    pub fn normalised_ms(&self, cfg: &Config) -> f64 {
        let nominal = if self.io {
            cfg.io_ref_nominal_ms
        } else {
            cfg.ref_nominal_ms
        };
        self.raw_ms * nominal / self.ref_ms
    }
}

/// Everything a run measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Timed ops.
    pub samples: Vec<Sample>,
    /// Ops attempted.
    pub attempted: u64,
    /// Ops that errored, answered wrongly, were refused (`busy`) or lost
    /// durability (`durable=false`).
    pub failed: u64,
    /// Ops whose verdicts disagreed with the independent reference.
    pub wrong: u64,
    /// Wall time of each set-up, in seconds, with the reference-kernel
    /// sample (ms) taken just before it.
    pub setup_s: Vec<(f64, f64)>,
    /// Per-layer figures computed by the workload itself (traced runs).
    pub layers: Vec<(String, f64)>,
    /// Counts that repeat exactly for a fixed seed.
    pub exact: Vec<(String, String)>,
    /// Diagnostic lines.
    pub notes: Vec<String>,
}

/// Why an op failed.
#[derive(Debug)]
pub struct Failure {
    /// The op answered, but not what the reference says.
    pub wrong: bool,
    /// What happened.
    pub msg: String,
}

impl Failure {
    /// An error from the program.
    pub fn error(msg: impl std::fmt::Display) -> Failure {
        Failure {
            wrong: false,
            msg: msg.to_string(),
        }
    }

    /// A verdict that disagrees with the reference.
    pub fn wrong(msg: impl Into<String>) -> Failure {
        Failure {
            wrong: true,
            msg: msg.into(),
        }
    }
}

/// The state a workload runs against.
pub struct Ctx {
    /// Settings.
    pub cfg: Config,
    /// Reference kernel.
    pub host: HostRef,
    /// Span recorder.
    pub tr: Tracer,
    /// Measurements.
    pub out: Outcome,
}

impl Ctx {
    /// A context for one run.
    pub fn new(cfg: Config) -> Ctx {
        let tr = Tracer::new(cfg.trace);
        Ctx {
            cfg,
            host: HostRef::new(),
            tr,
            out: Outcome::default(),
        }
    }

    /// Count one failed op (and print the first few).
    pub fn fail(&mut self, f: Failure) {
        self.out.failed += 1;
        if f.wrong {
            self.out.wrong += 1;
        }
        if self.out.failed <= 5 {
            eprintln!("perfbench: failed op: {}", f.msg);
        }
    }

    /// Run the set-up `SETUP_REPS` times, recording each one's wall time
    /// and a reference sample taken just before it, and keep the last
    /// result (earlier ones are dropped first, so only
    /// one set-up's state is alive at a time).
    pub fn setups<S>(
        &mut self,
        mut setup: impl FnMut(&mut Ctx, usize) -> Result<S, Failure>,
    ) -> Result<S, Failure> {
        let mut last = None;
        for rep in 0..SETUP_REPS {
            drop(last.take());
            self.tr.set_op(SETUP_OP - rep as u64);
            let ref_ms = self.host.sample_ms();
            let start = Instant::now();
            let s = setup(self, rep)?;
            self.out
                .setup_s
                .push((start.elapsed().as_secs_f64(), ref_ms));
            last = Some(s);
        }
        Ok(last.expect("SETUP_REPS > 0"))
    }

    /// Whether the measured phase is over after `done` ops.
    pub fn finished(&self, start: Instant, done: usize) -> bool {
        match self.cfg.max_ops {
            Some(max) => done >= max,
            None => start.elapsed().as_secs_f64() >= self.cfg.seconds,
        }
    }
}

/// A workload whose ops run one after another on this thread, main and
/// side ops alternating.
pub trait Serial {
    /// Run one op and check its answers.
    fn op(&mut self, side: bool, tr: &mut Tracer) -> Result<(), Failure>;

    /// Traced runs only, after the timed op: extra calls that time layers
    /// the op reaches only from inside a public function.
    fn probe(&mut self, _side: bool, _tr: &mut Tracer) -> Result<(), Failure> {
        Ok(())
    }
}

/// The measured phase of a serial workload. Each op is preceded by a
/// reference-kernel sample; in a traced run, op pairs alternate between
/// traced and untraced so the difference is the tracing overhead.
pub fn serial_loop(ctx: &mut Ctx, w: &mut impl Serial) {
    let start = Instant::now();
    let mut i = 0usize;
    while !ctx.finished(start, i) {
        let side = i % 2 == 1;
        let traced = ctx.cfg.trace && (i / 2).is_multiple_of(2);
        ctx.tr.set_on(traced);
        ctx.tr.set_op(i as u64);
        let ref_ms = ctx.host.sample_ms();
        let root = ctx.tr.begin(if side { "op.side" } else { "op.main" });
        let t0 = Instant::now();
        let res = w.op(side, &mut ctx.tr);
        let raw_ms = t0.elapsed().as_secs_f64() * 1e3;
        ctx.tr.end(root);
        ctx.out.attempted += 1;
        match res {
            Ok(()) => ctx.out.samples.push(Sample {
                side,
                raw_ms,
                ref_ms,
                io: false,
                traced,
            }),
            Err(f) => ctx.fail(f),
        }
        if traced {
            if let Err(f) = w.probe(side, &mut ctx.tr) {
                ctx.fail(f);
            }
        }
        i += 1;
    }
    ctx.tr.set_on(ctx.cfg.trace);
}

/// Run one workload end to end.
pub fn run(cfg: Config) -> Result<Ctx, Failure> {
    let mut ctx = Ctx::new(cfg);
    std::fs::create_dir_all(&ctx.cfg.work_dir).map_err(Failure::error)?;
    match ctx.cfg.workload {
        Workload::Batch => workloads::batch::run(&mut ctx)?,
        Workload::Table1 => workloads::checks::run(&mut ctx, false)?,
        Workload::Fallback => workloads::checks::run(&mut ctx, true)?,
        Workload::Serve => workloads::serve::run(&mut ctx)?,
    }
    Ok(ctx)
}

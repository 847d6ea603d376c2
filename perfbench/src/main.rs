//! `perfbench --workload NAME --seed N --seconds S --trace 0|1
//! --ref-nominal-ms K --io-ref-nominal-ms K_IO`: run one workload and
//! print its metrics.
//!
//! Diagnostics (raw medians and tails, host reference, exact counts,
//! error rate) come first; the last line is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}` whose metrics are the
//! end-to-end set (`--trace 0`) or the per-layer set (`--trace 1`) that
//! `BENCHMARK.json` declares. Exits non-zero, printing no result, when the
//! run cannot complete.

use relcheck_perfbench::host::{median, peak_rss_mb, supported_tail};
use relcheck_perfbench::{run, Config, Ctx, Workload};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

/// Per-layer metrics of a traced run, with units, in `BENCHMARK.json`
/// order: the times every workload reaches, and counts and ratios (which
/// read 0 where a workload never reaches the layer). Times of layers only
/// some workloads reach (ingest, store, serve engine, ladder, …) are
/// printed as `layer` lines, not reported here: a time that reads 0 on
/// every run of a workload is not a measurement.
const PER_LAYER: &[(&str, &str)] = &[
    ("planner.plan_ms", "ms"),
    ("exec.bdd_check_ms", "ms"),
    ("sql.check_ms", "ms"),
    ("index.live_nodes", "count"),
    ("bdd.apply_calls", "count"),
    ("bdd.quant_calls", "count"),
    ("bdd.replace_calls", "count"),
    ("bdd.nodes_created", "count"),
    ("bdd.cache_hit_rate", "ratio"),
    ("index.atom_cache_hit_rate", "ratio"),
    ("ladder.fallbacks", "count"),
    ("ladder.wasted_node_share", "ratio"),
    ("registry.recheck_share", "ratio"),
    ("store.journal_bytes_per_delta", "bytes"),
    ("serve.readvises", "count"),
    ("host.ref_ms_p50", "ms"),
    ("raw.main_ms_p50", "ms"),
    ("raw.side_ms_p50", "ms"),
    ("trace.overhead_ms", "ms"),
];

fn usage() -> String {
    "usage: perfbench --workload batch|table1|fallback|serve --seed N --seconds S \
     --trace 0|1 --ref-nominal-ms K --io-ref-nominal-ms K_IO"
        .to_owned()
}

fn parse_args() -> Result<Config, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut flags: BTreeMap<&str, &str> = BTreeMap::new();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            flag @ ("--workload"
            | "--seed"
            | "--seconds"
            | "--trace"
            | "--ref-nominal-ms"
            | "--io-ref-nominal-ms") => {
                let v = args
                    .get(i + 1)
                    .ok_or_else(|| format!("{flag} needs a value"))?;
                flags.insert(flag, v);
                i += 1;
            }
            other => return Err(format!("unknown argument {other:?}\n{}", usage())),
        }
        i += 1;
    }
    let get = |k: &str| {
        flags
            .get(k)
            .copied()
            .ok_or_else(|| format!("missing {k}\n{}", usage()))
    };
    let workload = Workload::from_name(get("--workload")?)
        .ok_or_else(|| format!("unknown workload\n{}", usage()))?;
    let num = |k: &str| -> Result<f64, String> {
        get(k)?
            .parse::<f64>()
            .ok()
            .filter(|v| v.is_finite() && *v >= 0.0)
            .ok_or_else(|| format!("{k} expects a non-negative number"))
    };
    let seed: u64 = get("--seed")?
        .parse()
        .map_err(|_| "--seed expects an integer".to_owned())?;
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        _ => return Err("--trace expects 0 or 1".to_owned()),
    };
    let ref_nominal_ms = num("--ref-nominal-ms")?;
    let io_ref_nominal_ms = num("--io-ref-nominal-ms")?;
    if ref_nominal_ms <= 0.0 || io_ref_nominal_ms <= 0.0 {
        return Err("nominal reference times must be positive".to_owned());
    }
    Ok(Config {
        workload,
        seed,
        seconds: num("--seconds")?,
        trace,
        ref_nominal_ms,
        io_ref_nominal_ms,
        max_ops: None,
        small: false,
        work_dir: PathBuf::from(".bench_work").join(format!(
            "{}-{}",
            workload.name(),
            std::process::id()
        )),
    })
}

fn json_metric(name: &str, value: f64, unit: &str) -> String {
    let value = if value.is_finite() { value } else { 0.0 };
    format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
}

fn report(ctx: &Ctx) -> String {
    let cfg = &ctx.cfg;
    let out = &ctx.out;
    let (main_kind, side_kind) = cfg.workload.kinds();
    // Gated latencies: untraced ops only, host-normalised.
    let pick = |side: bool, traced: bool, norm: bool| -> Vec<f64> {
        out.samples
            .iter()
            .filter(|s| s.side == side && s.traced == traced)
            .map(|s| if norm { s.normalised_ms(cfg) } else { s.raw_ms })
            .collect()
    };
    let kernel_refs = |io: bool| -> Vec<f64> {
        out.samples
            .iter()
            .filter(|s| s.io == io)
            .map(|s| s.ref_ms)
            .collect()
    };
    let host_ref = median(&kernel_refs(false));
    let io_ref = median(&kernel_refs(true));
    println!(
        "perfbench {} seed={} seconds={} trace={} K={} ms K_io={} ms",
        cfg.workload.name(),
        cfg.seed,
        cfg.seconds,
        u8::from(cfg.trace),
        cfg.ref_nominal_ms,
        cfg.io_ref_nominal_ms,
    );
    let mut norm_p50 = [0.0; 2];
    let mut raw_p50 = [0.0; 2];
    for (side, kind) in [(false, main_kind), (true, side_kind)] {
        let norm = pick(side, false, true);
        let raw = pick(side, false, false);
        norm_p50[usize::from(side)] = median(&norm);
        raw_p50[usize::from(side)] = median(&raw);
        let tail =
            supported_tail(&raw).map_or("too few samples for a tail".to_owned(), |(p, v)| {
                format!(
                    "raw.{kind}_ms_p{p}={v:.4} ({} beyond)",
                    raw.len() - (raw.len() * p as usize) / 100
                )
            });
        println!(
            "  {kind:<11} n={:<5} {kind}_ms_p50={:.4} (normalised)  raw.{kind}_ms_p50={:.4}  {tail}",
            norm.len(),
            norm_p50[usize::from(side)],
            raw_p50[usize::from(side)],
        );
    }
    // Set-up time is host-normalised like every latency.
    let setups: Vec<f64> = out
        .setup_s
        .iter()
        .map(|(s, r)| s * cfg.ref_nominal_ms / r)
        .collect();
    let raw_setups: Vec<f64> = out.setup_s.iter().map(|(s, _)| *s).collect();
    let setup_s = median(&setups);
    let rss = peak_rss_mb();
    println!(
        "  host.ref_ms_p50={host_ref:.4}  host.io_ref_ms_p50={io_ref:.4}  setup_s={setup_s:.4} \
         (normalised median; raw {raw_setups:?})  peak_rss_mb={rss:.1}"
    );
    println!(
        "  error_rate={} ({} failed of {} attempted, {} wrong answers)",
        out.failed as f64 / out.attempted.max(1) as f64,
        out.failed,
        out.attempted,
        out.wrong
    );
    for note in &out.notes {
        println!("  {note}");
    }
    for (name, value) in &out.exact {
        println!("  exact {name}: {value}");
    }
    let metrics: Vec<String> = if cfg.trace {
        let mut layers = ctx.tr.layers();
        for (n, v) in &out.layers {
            layers.insert(n.clone(), *v);
        }
        layers.insert("host.ref_ms_p50".to_owned(), host_ref);
        if io_ref > 0.0 {
            layers.insert("host.io_ref_ms_p50".to_owned(), io_ref);
        }
        layers.insert("raw.main_ms_p50".to_owned(), raw_p50[0]);
        layers.insert("raw.side_ms_p50".to_owned(), raw_p50[1]);
        let traced = median(&pick(false, true, true));
        let overhead = traced - norm_p50[0];
        layers.insert("trace.overhead_ms".to_owned(), overhead);
        println!(
            "  tracing overhead: traced {main_kind} p50 {traced:.4} ms − untraced {:.4} ms = {overhead:.4} ms",
            norm_p50[0]
        );
        for (n, v) in &layers {
            println!("  layer {n} = {v}");
        }
        if let Err(e) = ctx
            .tr
            .write_jsonl(&PathBuf::from(".bench_out").join(format!(
                "spans-{}-seed{}.jsonl",
                cfg.workload.name(),
                cfg.seed
            )))
        {
            eprintln!("perfbench: could not write spans: {e}");
        }
        PER_LAYER
            .iter()
            .map(|(name, unit)| json_metric(name, layers.get(*name).copied().unwrap_or(0.0), unit))
            .collect()
    } else {
        vec![
            json_metric("main_ms_p50", norm_p50[0], "ms"),
            json_metric("side_ms_p50", norm_p50[1], "ms"),
            json_metric("setup_s", setup_s, "s"),
            json_metric("peak_rss_mb", rss, "MB"),
        ]
    };
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.wrong == 0,
        out.attempted,
        out.failed,
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let cfg = match parse_args() {
        Ok(c) => c,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let work_dir = cfg.work_dir.clone();
    let result = run(cfg);
    let _ = std::fs::remove_dir_all(&work_dir);
    let _ = std::fs::remove_dir(".bench_work");
    match result {
        Ok(ctx) if ctx.out.attempted > 0 => {
            let line = report(&ctx);
            println!("{line}");
            ExitCode::SUCCESS
        }
        Ok(_) => {
            eprintln!("perfbench: no op completed");
            ExitCode::FAILURE
        }
        Err(f) => {
            eprintln!("perfbench: {}", f.msg);
            ExitCode::FAILURE
        }
    }
}

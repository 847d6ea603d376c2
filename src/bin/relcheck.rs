//! `relcheck` — command-line constraint validation.
//!
//! ```text
//! relcheck run <spec-file> [--limit N] [--sql] [--ordering STRATEGY]
//!                          [--metrics PATH] [--deadline-ms N] [--index-cache DIR]
//!                          [--fail-spec SPEC] [--fail-seed N]
//!                          [--certify PATH] [--witness-limit N]
//! relcheck explain <spec-file> <constraint-name>
//! relcheck plan <spec-file> [constraint-name] [--ordering STRATEGY] [--json]
//! relcheck audit emit <spec-file> <bundle.json> [--witness-limit N] [--ordering STRATEGY]
//! relcheck audit verify <spec-file> <bundle.json>
//! relcheck metrics-check <metrics.json>
//! relcheck index <build|verify|repair|gc|apply> <spec-file> --index-cache DIR
//!                [deltas...] [--ordering STRATEGY] [--fail-spec SPEC] [--fail-seed N]
//! relcheck serve <spec-file> [--index-cache DIR] [--socket PATH] [--ordering STRATEGY]
//!                [--metrics PATH] [--deadline-ms N] [--fail-spec SPEC] [--fail-seed N]
//!                [--witness-limit N] [--max-sessions N] [--queue-depth N]
//!                [--idle-timeout-ms N]
//! relcheck connect <socket-path>
//! ```
//!
//! The spec file declares CSV-backed tables and named first-order
//! constraints (see [`relcheck::spec`]). `run` loads everything, identifies
//! the violated constraints on BDD logical indices (or, with `--sql`, on
//! the same degradation ladder entered at its SQL rung), prints a report, lists up to `--limit` violating tuples per
//! violated constraint, and exits non-zero if anything is violated.
//! Orderings: `prob-converge` (default), `max-inf-gain`, `min-cond-entropy`,
//! `schema`, `random`. `--metrics PATH` writes the machine-readable run
//! report, with every check's trace (the schema in DESIGN.md), to PATH;
//! `metrics-check` validates such a file against the schema and its
//! conservation laws.
//!
//! Resilience controls: `--deadline-ms N` bounds the wall-clock time any
//! single constraint may spend inside the BDD engine — a constraint that
//! exceeds it walks the degradation ladder (SQL fallback, brute force)
//! instead of stalling the run. `--fail-spec 'site=p,...'` arms the
//! deterministic fault-injection registry (sites: `index-build`,
//! `snapshot-decode`, `apply`, `sql-fallback`,
//! `segment-write`, `journal-append`, `manifest-write`) with firing
//! probability `p`, seeded by `--fail-seed N` (default 0). Constraints that
//! cannot be decided under injected faults report `DEGRADED`/`ERRORED`
//! verdicts; only genuine `VIOLATED` verdicts make the exit code non-zero.
//!
//! Certificates: `run --certify PATH` writes a JSON bundle of one
//! [`relcheck::core_::Certificate`] per constraint (witness tuples for
//! violations, capped at `--witness-limit`, default 10) and self-verifies
//! each decided certificate with the independent naive re-checker before
//! exiting. `audit emit` produces the same bundle stand-alone; `audit
//! verify` re-checks a bundle against the spec's CSVs using only the
//! first-order interpreter — no planner, no rewrites, no BDDs — and exits
//! 1 if any certificate fails the audit (tampered witnesses, forged
//! verdicts, stale fingerprints). Undecided (`DEGRADED`/`ERRORED`)
//! certificates are reported as unauditable rather than silently passed.
//!
//! `plan` prints the compiled [`relcheck::core_::CheckPlan`] for one (or
//! every) constraint without executing it: the rewrite passes that ran,
//! the formula before and after each one, the cost-gate decisions, and
//! the degradation-ladder rungs the plan would execute; `--json` emits
//! the same plans as one machine-readable document. The output is
//! deterministic — two invocations on the same spec emit byte-identical
//! plans.
//!
//! Persistence: `--index-cache DIR` warm-starts the run from a durable
//! on-disk index store (building and persisting whatever is missing or
//! unusable); verdicts are identical to a cold run. The `index`
//! subcommands manage the same store directly: `build` populates it,
//! `verify` runs warm start's own segment checks without its repairs and
//! prints, per relation, a clean hit, `not cached`, or the recoveries a
//! warm start would record (the metrics `index_cache` reasons), exiting 0
//! only when every relation would be a clean hit; `repair` rebuilds
//! anything broken, `gc` removes orphaned files, and `apply` durably
//! journals tuple deltas (`+REL:v1,v2,...` inserts, `-REL:v1,v2,...`
//! deletes) and folds them into the cached indices via incremental
//! maintenance.
//!
//! `serve` keeps everything warm across requests: it loads the spec,
//! primes every constraint once, then reads a line-oriented command
//! protocol from stdin (or a unix socket with `--socket PATH`) —
//! `+REL:v,…` / `-REL:v,…` tuple deltas, `check [name]`, `certify
//! [name]`, `stats`, `quit`. Each check re-verifies only the constraints
//! whose read-set intersects the relations dirtied since the last check;
//! the rest answer from cached verdicts. `certify` re-checks the named
//! (or every) constraint fresh, emits its certificate as a JSON line,
//! and self-verifies it with the naive re-checker. With `--index-cache
//! DIR` deltas are journaled durably before being applied (transient
//! append failures retry with bounded backoff; exhaustion degrades the
//! delta rows-only and the reply carries `durable=false`), so a killed
//! session warm-starts to the acknowledged state. `--metrics PATH`
//! writes the metrics document (with the `serve`, `audit`, and
//! `overload` blocks) on shutdown. The exit code reflects the final
//! verdicts: 0 when nothing is violated.
//!
//! Overload resilience: every request — stdin or socket — flows through
//! a single engine-actor thread behind a bounded queue
//! (`--queue-depth`). Socket mode serves up to `--max-sessions`
//! concurrent connections, each on its own panic-isolated thread with an
//! idle cap (`--idle-timeout-ms`) and a line-length cap, so a slowloris
//! or garbage stream cannot wedge anyone else. Admission either queues
//! a request, whose checks then walk the full ladder from the BDD rung
//! exactly as `run`'s do, or rejects it with a typed `busy
//! <retry-after-ms>` line when the queue is full. A watchdog bounds every
//! request at 4 s of wall clock, tightened by `--deadline-ms`, so a stuck
//! check walks down the ladder instead of hanging the actor. `quit` (or
//! SIGTERM in socket mode) drains gracefully: in-flight requests finish,
//! the journal flushes, and the final metrics are emitted. `connect` is
//! the matching scriptable client: stdin lines go to the socket, replies
//! to stdout.

use relcheck::core_::certify::{
    bundle_to_json, emit_certificates, parse_bundle, verify_bundle, AuditError, Certificate,
    DEFAULT_WITNESS_LIMIT,
};
use relcheck::core_::checker::{CheckReport, Checker, CheckerOptions, Verdict};
use relcheck::core_::ordering::OrderingStrategy;
use relcheck::core_::plan::plans_to_json;
use relcheck::core_::serve::{
    parse_delta, ServeActor, ServeClient, ServeConfig, ServeEngine, Submission,
};
use relcheck::core_::store::{Delta, IndexStore, VerifyOutcome};
use relcheck::core_::telemetry::{
    validate_metrics_json, validate_plan_json, AuditMetrics, RecoveryRecord, RunBdd, RunMetrics,
};
use relcheck::core_::CoreError;
use relcheck::logic::Formula;
use relcheck::relstore::{Database, Raw};
use relcheck::spec::{parse_spec, Spec};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(clean) => {
            if clean {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(msg) => {
            eprintln!("relcheck: {msg}");
            ExitCode::from(2)
        }
    }
}

fn usage() -> String {
    "usage:\n  relcheck run <spec-file> [--limit N] [--sql] [--ordering STRATEGY] \
     [--metrics PATH] [--deadline-ms N] [--index-cache DIR] \
     [--fail-spec SPEC] [--fail-seed N] [--certify PATH] [--witness-limit N]\n  \
     relcheck explain <spec-file> <constraint-name>\n  \
     relcheck plan <spec-file> [constraint-name] [--ordering STRATEGY] [--json]\n  \
     relcheck audit emit <spec-file> <bundle.json> [--witness-limit N] [--ordering STRATEGY]\n  \
     relcheck audit verify <spec-file> <bundle.json>\n  \
     relcheck metrics-check <metrics.json>\n  \
     relcheck index <build|verify|repair|gc|apply> <spec-file> --index-cache DIR \
     [+REL:v1,v2 | -REL:v1,v2 ...] [--ordering STRATEGY] [--fail-spec SPEC] [--fail-seed N]\n  \
     relcheck serve <spec-file> [--index-cache DIR] [--socket PATH] [--ordering STRATEGY] \
     [--metrics PATH] [--deadline-ms N] [--fail-spec SPEC] [--fail-seed N] [--witness-limit N] \
     [--max-sessions N] [--queue-depth N] [--idle-timeout-ms N]\n  \
     relcheck connect <socket-path>"
        .to_owned()
}

fn run(args: &[String]) -> Result<bool, String> {
    let cmd = args.first().ok_or_else(usage)?;
    match cmd.as_str() {
        "run" => cmd_run(&args[1..]),
        "explain" => cmd_explain(&args[1..]).map(|()| true),
        "plan" => cmd_plan(&args[1..]).map(|()| true),
        "audit" => cmd_audit(&args[1..]),
        "metrics-check" => cmd_metrics_check(&args[1..]).map(|()| true),
        "index" => cmd_index(&args[1..]),
        "serve" => cmd_serve(&args[1..]),
        "connect" => cmd_connect(&args[1..]),
        _ => Err(usage()),
    }
}

/// One subcommand's arguments, checked against the flags its usage line
/// lists, so a mistyped flag is an error instead of a silent default.
struct Args<'a> {
    positional: Vec<&'a str>,
    /// Each flag given, with its value (`None` for a switch).
    flags: Vec<(&'a str, Option<&'a str>)>,
}

impl<'a> Args<'a> {
    /// Split `args` into positionals and flags. Each flag listed in
    /// `value_flags` (whitespace-separated) takes the next argument as its
    /// value, and each listed in `switches` none. Any other `--` argument,
    /// a value flag with no value after it, or more than `max_positional`
    /// positionals (paths, names, `+REL:…` / `-REL:…` deltas) is an error
    /// that names the argument.
    fn parse(
        args: &'a [String],
        value_flags: &str,
        switches: &str,
        max_positional: usize,
    ) -> Result<Self, String> {
        let mut out = Args {
            positional: Vec::new(),
            flags: Vec::new(),
        };
        let mut iter = args.iter().map(String::as_str).peekable();
        while let Some(arg) = iter.next() {
            if !arg.starts_with("--") {
                if out.positional.len() == max_positional {
                    return Err(format!("unexpected argument {arg:?}\n{}", usage()));
                }
                out.positional.push(arg);
            } else if switches.split_whitespace().any(|f| f == arg) {
                out.flags.push((arg, None));
            } else if value_flags.split_whitespace().any(|f| f == arg) {
                let value = iter
                    .next_if(|v| !v.starts_with("--"))
                    .ok_or_else(|| format!("{arg} expects a value"))?;
                out.flags.push((arg, Some(value)));
            } else {
                return Err(format!("unknown flag {arg}\n{}", usage()));
            }
        }
        Ok(out)
    }

    /// The `i`-th positional argument; its absence is a usage error.
    fn positional(&self, i: usize) -> Result<&'a str, String> {
        self.positional.get(i).copied().ok_or_else(usage)
    }

    fn value(&self, flag: &str) -> Option<&'a str> {
        self.flags
            .iter()
            .find(|(f, _)| *f == flag)
            .and_then(|&(_, v)| v)
    }

    fn has(&self, flag: &str) -> bool {
        self.flags.iter().any(|(f, _)| *f == flag)
    }

    /// The value of a numeric flag, if it was given.
    fn number<T: std::str::FromStr>(&self, flag: &str) -> Result<Option<T>, String> {
        self.value(flag)
            .map(|v| {
                v.parse()
                    .map_err(|_| format!("{flag} expects a number, got {v:?}"))
            })
            .transpose()
    }

    /// `--ordering`, Prob-Converge when absent.
    fn ordering(&self) -> Result<OrderingStrategy, String> {
        self.value("--ordering")
            .map_or(Ok(OrderingStrategy::ProbConverge), ordering_from)
    }

    /// `--fail-spec` armed with `--fail-seed` (default 0), if given.
    fn arm_failpoints(&self) -> Result<(), String> {
        let seed = self.number("--fail-seed")?.unwrap_or(0);
        if let Some(spec) = self.value("--fail-spec") {
            relcheck::bdd::failpoint::configure_spec(spec, seed)
                .map_err(|e| format!("--fail-spec: {e}"))?;
            // Injected panics are caught and folded into verdicts; keep
            // the default hook from spraying backtraces for faults we
            // asked for.
            std::panic::set_hook(Box::new(|_| {}));
        }
        Ok(())
    }

    fn witness_limit(&self) -> Result<usize, String> {
        Ok(self
            .number("--witness-limit")?
            .unwrap_or(DEFAULT_WITNESS_LIMIT))
    }
}

fn ordering_from(name: &str) -> Result<OrderingStrategy, String> {
    Ok(match name {
        "prob-converge" => OrderingStrategy::ProbConverge,
        "max-inf-gain" => OrderingStrategy::MaxInfGain,
        "min-cond-entropy" => OrderingStrategy::MinCondEntropy,
        "schema" => OrderingStrategy::Schema,
        "random" => OrderingStrategy::Random(0xBDD),
        other => return Err(format!("unknown ordering {other:?}")),
    })
}

/// Load the spec and its CSV tables into a database.
fn load(spec_path: &str) -> Result<(Spec, Database), String> {
    load_with(spec_path, true)
}

/// [`load`] without the per-table progress lines — for commands whose
/// stdout must be a single machine-readable document (`plan --json`).
fn load_quiet(spec_path: &str) -> Result<(Spec, Database), String> {
    load_with(spec_path, false)
}

fn load_with(spec_path: &str, verbose: bool) -> Result<(Spec, Database), String> {
    let text =
        std::fs::read_to_string(spec_path).map_err(|e| format!("cannot read {spec_path}: {e}"))?;
    let spec = parse_spec(&text).map_err(|e| e.to_string())?;
    if spec.tables.is_empty() {
        return Err("spec declares no tables".to_owned());
    }
    let base: PathBuf = Path::new(spec_path)
        .parent()
        .map(Path::to_path_buf)
        .unwrap_or_default();
    let mut db = Database::new();
    for t in &spec.tables {
        let csv_path = base.join(&t.path);
        let csv = std::fs::read(&csv_path)
            .map_err(|e| format!("cannot read {}: {e}", csv_path.display()))?;
        let columns: Vec<(&str, &str)> = t
            .columns
            .iter()
            .map(|(c, k)| (c.as_str(), k.as_str()))
            .collect();
        db.create_relation_from_csv_bytes(&t.name, &columns, &csv, t.has_header)
            .map_err(|e| format!("loading table {}: {e}", t.name))?;
        if verbose {
            println!(
                "loaded {:<16} {:>8} rows from {}",
                t.name,
                db.relation(&t.name).map_err(|e| e.to_string())?.len(),
                csv_path.display()
            );
        }
    }
    Ok((spec, db))
}

fn cmd_run(args: &[String]) -> Result<bool, String> {
    let args = Args::parse(
        args,
        "--limit --ordering --metrics --deadline-ms --index-cache \
         --fail-spec --fail-seed --certify --witness-limit",
        "--sql",
        1,
    )?;
    let spec_path = args.positional(0)?;
    let limit: usize = args.number("--limit")?.unwrap_or(10);
    let force_sql = args.has("--sql");
    let ordering = args.ordering()?;
    let index_cache = args.value("--index-cache").map(str::to_owned);
    if force_sql && index_cache.is_some() {
        return Err("--sql and --index-cache cannot be combined".to_owned());
    }
    let metrics_path = args.value("--metrics").map(str::to_owned);
    let certify_path = args.value("--certify").map(str::to_owned);
    let witness_limit = args.witness_limit()?;
    let deadline = args
        .number("--deadline-ms")?
        .map(std::time::Duration::from_millis);
    args.arm_failpoints()?;
    if force_sql && certify_path.is_some() {
        // Certificate witnesses come off the violation BDD; a pure-SQL
        // run has none to enumerate from.
        return Err("--sql and --certify cannot be combined".to_owned());
    }
    let (spec, db) = load(spec_path)?;
    if spec.constraints.is_empty() {
        return Err("spec declares no constraints".to_owned());
    }
    let opts = CheckerOptions {
        ordering,
        deadline,
        ..Default::default()
    };
    let mut checker = Checker::new(db, opts);
    let mut store = match &index_cache {
        Some(dir) => {
            let mut s =
                IndexStore::open(dir).map_err(|e| format!("opening index cache {dir}: {e}"))?;
            s.warm_start(&mut checker)
                .map_err(|e| format!("warm-starting from {dir}: {e}"))?;
            for rec in &s.stats.recoveries {
                println!(
                    "index-cache: recovered {:?} ({}): {}",
                    rec.relation, rec.reason, rec.detail
                );
            }
            println!(
                "index-cache: {} hit(s), {} miss(es), {} rebuild(s), {} journal record(s) replayed",
                s.stats.hits, s.stats.misses, s.stats.rebuilds, s.stats.journal_replayed
            );
            Some(s)
        }
        None => None,
    };
    let run_constraints: Vec<(String, Formula)> = spec
        .constraints
        .iter()
        .map(|c| (c.name.clone(), c.formula.clone()))
        .collect();
    println!();
    let before = checker.logical_db().manager().stats();
    let reports = if force_sql {
        run_constraints
            .iter()
            .map(|(name, f)| Ok((name.clone(), checker.check_sql(f)?)))
            .collect::<Result<Vec<_>, CoreError>>()
    } else {
        checker.check_all(&run_constraints)
    }
    .map_err(|e| format!("checking constraints: {e}"))?;
    let bdd =
        (!force_sql).then(|| RunBdd::between(&before, &checker.logical_db().manager().stats()));
    if let Some(store) = &mut store {
        store
            .write_back(&mut checker)
            .map_err(|e| format!("writing back index cache: {e}"))?;
        if store.stats.write_failures > 0 {
            eprintln!(
                "relcheck: warning: {} index-cache write(s) failed; the next run starts cold(er)",
                store.stats.write_failures
            );
        }
    }
    // Emit + self-verify certificates before the metrics document so the
    // audit counters land in its `audit` block.
    let mut audit_metrics = None;
    let mut audit_failures = Vec::new();
    if let Some(path) = &certify_path {
        let certs = emit_certificates(&mut checker, &run_constraints, &reports, witness_limit)
            .map_err(|e| format!("emitting certificates: {e}"))?;
        let (stats, failures) = self_verify(checker.logical_db().db(), &run_constraints, &certs);
        std::fs::write(path, bundle_to_json(&certs))
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        println!(
            "certificates: {} emitted ({} witness tuple(s)), {} self-verified, {} failed; \
             written to {path}",
            stats.emitted, stats.witnesses, stats.verified, stats.failed
        );
        audit_metrics = Some(stats);
        audit_failures = failures;
    }
    if let Some(path) = &metrics_path {
        let mut metrics = RunMetrics::from_reports(&reports, bdd);
        if let Some(store) = &store {
            metrics.index_cache = Some(store.stats.clone());
        }
        metrics.audit = audit_metrics;
        let doc = metrics.to_json();
        debug_assert!(validate_metrics_json(&doc).is_ok());
        std::fs::write(path, &doc).map_err(|e| format!("cannot write {path}: {e}"))?;
        println!("metrics written to {path}");
    }
    if !audit_failures.is_empty() {
        // A fresh certificate failing its own audit is an engine bug or
        // a torn write, never a data problem — surface it as a hard error.
        return Err(format!(
            "certificate self-verification failed:\n  {}",
            audit_failures.join("\n  ")
        ));
    }
    let mut clean = true;
    let mut violated = Vec::new();
    for (c, (name, report)) in spec.constraints.iter().zip(&reports) {
        print_report_line(name, report);
        // Only a proven violation flips the exit code; `DEGRADED` and
        // `ERRORED` mean "undecided under faults", not "violated".
        if report.verdict == Verdict::Violated {
            clean = false;
            violated.push(c);
        }
    }
    let undecided = reports
        .iter()
        .filter(|(_, r)| !r.verdict.is_decided())
        .count();
    if undecided > 0 {
        println!("\n{undecided} constraint(s) undecided (degraded or errored) — rerun fault-free to decide them");
    }
    for c in violated {
        println!("\nviolating tuples of {:?} (up to {limit}):", c.name);
        if let Err(e) = print_violating_tuples(&mut checker, &c.formula, limit) {
            println!("  (cannot enumerate: {e})");
        }
    }
    Ok(clean)
}

/// Print up to `limit` violating tuples of a violated constraint, their
/// column names, and how many more there are. The SQL violation plan
/// answers when the constraint has one; a ∀ constraint outside the
/// translator's class falls back to the violation BDD's witnesses, the
/// ones certificates carry.
fn print_violating_tuples(
    checker: &mut Checker,
    f: &Formula,
    limit: usize,
) -> Result<(), CoreError> {
    let (cols, tuples, total) = match checker.find_violations(f) {
        Ok((rows, cols)) => {
            let db = checker.logical_db().db();
            let tuples: Vec<Vec<Raw>> = (0..rows.len().min(limit))
                .map(|i| db.decode_row(&rows, &rows.row(i)))
                .collect();
            (cols, tuples, rows.len() as f64)
        }
        Err(e @ CoreError::UnsupportedForViolationQuery(_)) => {
            let Some(cv) = checker.find_violations_counted(f, limit)? else {
                return Err(e);
            };
            let tuples = cv.decode(checker.logical_db().db());
            (cv.vars, tuples, cv.total)
        }
        Err(e) => return Err(e),
    };
    println!("  columns: {}", cols.join(", "));
    for t in &tuples {
        let values: Vec<String> = t.iter().map(ToString::to_string).collect();
        println!("  ({})", values.join(", "));
    }
    if total > tuples.len() as f64 {
        println!("  … and {} more", total - tuples.len() as f64);
    }
    Ok(())
}

/// One verdict line of the `run`/`serve` baseline report.
fn print_report_line(name: &str, report: &CheckReport) {
    println!(
        "{:<32} {:<9} via {:?} in {:.2?}",
        name,
        report.verdict.label(),
        report.method,
        report.elapsed
    );
    if let Some(err) = &report.error {
        println!("{:<32} ^ {err}", "");
    }
}

/// Self-verify freshly emitted certificates with the independent naive
/// re-checker and fold the outcomes into audit metrics. Undecided
/// (degraded/errored) certificates are unauditable by design and count
/// in neither the verified nor the failed bucket.
fn self_verify(
    db: &Database,
    constraints: &[(String, Formula)],
    certs: &[Certificate],
) -> (AuditMetrics, Vec<String>) {
    let mut stats = AuditMetrics {
        emitted: certs.len() as u64,
        witnesses: certs
            .iter()
            .filter_map(|c| c.witnesses.as_ref())
            .map(|w| w.tuples.len() as u64)
            .sum(),
        ..Default::default()
    };
    let mut failures = Vec::new();
    for (name, res) in verify_bundle(db, constraints, certs) {
        match res {
            Ok(_) => stats.verified += 1,
            Err(AuditError::Unauditable { .. }) => {}
            Err(e) => {
                stats.failed += 1;
                failures.push(format!("{name}: {e}"));
            }
        }
    }
    (stats, failures)
}

/// `relcheck audit <emit|verify>`: stand-alone certificate production and
/// the independent re-check (see the module docs for the trust model).
fn cmd_audit(args: &[String]) -> Result<bool, String> {
    let sub = args.first().ok_or_else(usage)?.as_str();
    let rest = &args[1..];
    match sub {
        "emit" => {
            let rest = Args::parse(rest, "--witness-limit --ordering", "", 2)?;
            let spec_path = rest.positional(0)?;
            let out_path = rest
                .positional(1)
                .map_err(|_| "audit emit: output bundle path is required".to_owned())?;
            let witness_limit = rest.witness_limit()?;
            let ordering = rest.ordering()?;
            let (spec, db) = load(spec_path)?;
            if spec.constraints.is_empty() {
                return Err("spec declares no constraints".to_owned());
            }
            let mut checker = Checker::new(
                db,
                CheckerOptions {
                    ordering,
                    ..Default::default()
                },
            );
            let constraints: Vec<(String, Formula)> = spec
                .constraints
                .iter()
                .map(|c| (c.name.clone(), c.formula.clone()))
                .collect();
            let reports = checker
                .check_all(&constraints)
                .map_err(|e| format!("checking constraints: {e}"))?;
            let certs = emit_certificates(&mut checker, &constraints, &reports, witness_limit)
                .map_err(|e| format!("emitting certificates: {e}"))?;
            println!();
            for (cert, (_, report)) in certs.iter().zip(&reports) {
                let w = cert.witnesses.as_ref().map_or(0, |w| w.tuples.len());
                println!(
                    "{:<32} {:<9} rung={} witnesses={}",
                    cert.constraint,
                    report.verdict.name(),
                    cert.rung,
                    w
                );
            }
            let (stats, failures) = self_verify(checker.logical_db().db(), &constraints, &certs);
            std::fs::write(out_path, bundle_to_json(&certs))
                .map_err(|e| format!("cannot write {out_path}: {e}"))?;
            println!(
                "\ncertificates: {} emitted ({} witness tuple(s)), {} self-verified, {} failed; \
                 written to {out_path}",
                stats.emitted, stats.witnesses, stats.verified, stats.failed
            );
            if !failures.is_empty() {
                return Err(format!(
                    "certificate self-verification failed:\n  {}",
                    failures.join("\n  ")
                ));
            }
            Ok(true)
        }
        "verify" => {
            let rest = Args::parse(rest, "", "", 2)?;
            let spec_path = rest.positional(0)?;
            let bundle_path = rest
                .positional(1)
                .map_err(|_| "audit verify: bundle path is required".to_owned())?;
            let (spec, db) = load(spec_path)?;
            let constraints: Vec<(String, Formula)> = spec
                .constraints
                .iter()
                .map(|c| (c.name.clone(), c.formula.clone()))
                .collect();
            let text = std::fs::read_to_string(bundle_path)
                .map_err(|e| format!("cannot read {bundle_path}: {e}"))?;
            let certs = parse_bundle(&text).map_err(|e| format!("parsing {bundle_path}: {e}"))?;
            println!();
            let mut verified = 0usize;
            let mut unauditable = 0usize;
            let mut failed = 0usize;
            for (name, res) in verify_bundle(&db, &constraints, &certs) {
                match res {
                    Ok(o) => {
                        verified += 1;
                        println!(
                            "{:<32} ok        verdict={} witnesses={} recounted={}",
                            name,
                            o.verdict.name(),
                            o.witnesses_checked,
                            o.recounted
                        );
                    }
                    Err(AuditError::Unauditable { verdict, .. }) => {
                        // Undecided verdicts never silently pass: they are
                        // named here and excluded from "verified".
                        unauditable += 1;
                        println!("{:<32} unauditable ({})", name, verdict.name());
                    }
                    Err(e) => {
                        failed += 1;
                        println!("{name:<32} FAILED    {e}");
                    }
                }
            }
            println!(
                "\naudit: {} certificate(s) — {verified} verified, {unauditable} unauditable, \
                 {failed} failed",
                certs.len()
            );
            Ok(failed == 0)
        }
        other => Err(format!("unknown audit subcommand {other:?}\n{}", usage())),
    }
}

/// `relcheck serve`: the long-lived incremental check session (see the
/// module docs for the protocol).
fn cmd_serve(args: &[String]) -> Result<bool, String> {
    let args = Args::parse(
        args,
        "--index-cache --socket --ordering --metrics --deadline-ms --fail-spec --fail-seed \
         --witness-limit --max-sessions --queue-depth --idle-timeout-ms",
        "",
        1,
    )?;
    let spec_path = args.positional(0)?;
    let ordering = args.ordering()?;
    let metrics_path = args.value("--metrics").map(str::to_owned);
    let deadline = args
        .number("--deadline-ms")?
        .map(std::time::Duration::from_millis);
    args.arm_failpoints()?;
    let index_cache = args.value("--index-cache").map(str::to_owned);
    let socket = args.value("--socket").map(str::to_owned);
    let witness_limit = args.witness_limit()?;
    let mut cfg = ServeConfig::default();
    for (flag, slot) in [
        ("--max-sessions", &mut cfg.max_sessions),
        ("--queue-depth", &mut cfg.queue_depth),
    ] {
        if let Some(n) = args.number(flag)? {
            if n == 0 {
                return Err(format!("{flag} expects a number >= 1"));
            }
            *slot = n;
        }
    }
    if let Some(ms) = args.number("--idle-timeout-ms")? {
        cfg.idle_timeout = std::time::Duration::from_millis(ms);
    }
    let (spec, db) = load(spec_path)?;
    if spec.constraints.is_empty() {
        return Err("spec declares no constraints".to_owned());
    }
    let opts = CheckerOptions {
        ordering,
        deadline,
        ..Default::default()
    };
    let mut checker = Checker::new(db, opts);
    let store = match &index_cache {
        Some(dir) => {
            let mut s =
                IndexStore::open(dir).map_err(|e| format!("opening index cache {dir}: {e}"))?;
            s.warm_start(&mut checker)
                .map_err(|e| format!("warm-starting from {dir}: {e}"))?;
            for rec in &s.stats.recoveries {
                println!(
                    "index-cache: recovered {:?} ({}): {}",
                    rec.relation, rec.reason, rec.detail
                );
            }
            println!(
                "index-cache: {} hit(s), {} miss(es), {} rebuild(s), {} journal record(s) replayed",
                s.stats.hits, s.stats.misses, s.stats.rebuilds, s.stats.journal_replayed
            );
            Some(s)
        }
        None => None,
    };
    let constraints: Vec<(String, relcheck::logic::Formula)> = spec
        .constraints
        .iter()
        .map(|c| (c.name.clone(), c.formula.clone()))
        .collect();
    let before = checker.logical_db().manager().stats();
    let (mut engine, reports) = ServeEngine::new(checker, &constraints, store)
        .map_err(|e| format!("priming the session: {e}"))?;
    engine.set_witness_limit(witness_limit);
    println!();
    for (name, report) in &reports {
        print_report_line(name, report);
    }
    println!(
        "\nserving {} constraint(s) over {} relation(s); commands: \
         +REL:v,... -REL:v,... check [name] certify [name] stats quit",
        reports.len(),
        engine.checker().logical_db().db().relation_names().count()
    );
    // The engine moves onto its actor thread; stdin and socket sessions
    // alike talk to it through admission-controlled client handles.
    let actor = ServeActor::spawn(engine, cfg);
    let client = actor.client();
    let served = match &socket {
        Some(path) => serve_socket(&client, path),
        None => serve_stdio(&client),
    };
    drop(client);
    let (mut engine, overload) = actor.shutdown();
    served?;
    engine
        .finish()
        .map_err(|e| format!("writing back index cache: {e}"))?;
    if let Some(path) = &metrics_path {
        let after = engine.checker().logical_db().manager().stats();
        let mut metrics =
            RunMetrics::from_reports(&reports, Some(RunBdd::between(&before, &after)));
        metrics.index_cache = engine.store().map(|s| s.stats.clone());
        metrics.serve = Some(engine.stats());
        metrics.audit = Some(engine.audit_stats());
        metrics.overload = Some(overload);
        let doc = metrics.to_json();
        debug_assert!(validate_metrics_json(&doc).is_ok());
        std::fs::write(path, &doc).map_err(|e| format!("cannot write {path}: {e}"))?;
        println!("metrics written to {path}");
    }
    // The exit code reflects the final verdicts: any constraint whose
    // last decided verdict is "violated" makes the session non-clean.
    Ok(engine
        .registry()
        .cached()
        .values()
        .all(|v| *v != Some(false)))
}

/// Drive a serve session over stdin/stdout (the scripted-pipeline mode).
/// A single sequential client cannot overfill the queue, so replies are
/// byte-identical to the pre-actor engine loop.
fn serve_stdio(client: &ServeClient) -> Result<(), String> {
    use std::io::{BufRead, Write};
    let stdin = std::io::stdin();
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    for line in stdin.lock().lines() {
        let line = line.map_err(|e| format!("reading stdin: {e}"))?;
        match client.submit(&line) {
            Submission::Reply(reply) => {
                for l in &reply.lines {
                    writeln!(out, "{l}").map_err(|e| format!("writing stdout: {e}"))?;
                }
                out.flush().map_err(|e| format!("writing stdout: {e}"))?;
                if reply.quit {
                    break;
                }
            }
            Submission::Busy { retry_after_ms } => {
                writeln!(out, "busy {retry_after_ms}")
                    .map_err(|e| format!("writing stdout: {e}"))?;
                out.flush().map_err(|e| format!("writing stdout: {e}"))?;
            }
            Submission::Closed => break,
        }
    }
    Ok(())
}

/// SIGTERM latch for graceful drain in socket mode. The handler only
/// flips an atomic (async-signal-safe); the accept loop polls it and
/// turns it into a synthetic `quit`.
#[cfg(unix)]
mod sigterm {
    use std::sync::atomic::{AtomicBool, Ordering};

    static RECEIVED: AtomicBool = AtomicBool::new(false);

    extern "C" fn on_sigterm(_signum: i32) {
        RECEIVED.store(true, Ordering::SeqCst);
    }

    /// Install the handler (idempotent). Uses the libc `signal` symbol
    /// directly — the workspace links no libc crate.
    pub fn install() {
        extern "C" {
            fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
        }
        const SIGTERM: i32 = 15;
        // SAFETY: installing an async-signal-safe handler for a signal
        // this process owns; the handler touches only a static atomic.
        unsafe {
            signal(SIGTERM, on_sigterm);
        }
    }

    /// Whether SIGTERM has arrived since `install`.
    pub fn received() -> bool {
        RECEIVED.load(Ordering::SeqCst)
    }
}

/// Serve over a unix socket: up to `--max-sessions` concurrent clients,
/// each on its own panic-isolated session thread feeding the shared
/// engine actor. `quit` from any client — or SIGTERM — drains the
/// session gracefully; extra connections beyond the cap get a `busy`
/// line and are closed.
#[cfg(unix)]
fn serve_socket(client: &ServeClient, path: &str) -> Result<(), String> {
    use std::io::Write;
    use std::os::unix::net::{UnixListener, UnixStream};
    // Unlink-then-bind is not atomic: probing with a connect first keeps
    // a live server's socket safe — only a dead socket (connection
    // refused) may be reclaimed.
    if std::fs::metadata(path).is_ok() {
        match UnixStream::connect(path) {
            Ok(_) => {
                return Err(format!(
                    "already serving: a live relcheck session owns {path}"
                ))
            }
            Err(_) => {
                std::fs::remove_file(path)
                    .map_err(|e| format!("removing stale socket {path}: {e}"))?;
            }
        }
    }
    let listener = UnixListener::bind(path).map_err(|e| format!("binding {path}: {e}"))?;
    listener
        .set_nonblocking(true)
        .map_err(|e| format!("configuring {path}: {e}"))?;
    println!("listening on {path}");
    sigterm::install();
    let mut sessions: Vec<std::thread::JoinHandle<()>> = Vec::new();
    loop {
        if client.is_draining() {
            break;
        }
        if sigterm::received() {
            // Graceful drain: the synthetic quit finishes everything
            // already admitted before the actor stops.
            let _ = client.submit("quit");
            break;
        }
        sessions.retain(|h| !h.is_finished());
        match listener.accept() {
            Ok((stream, _)) => {
                if sessions.len() >= client.config().max_sessions {
                    let mut stream = stream;
                    let _ = writeln!(stream, "busy 1000");
                    continue; // dropped: over the session cap
                }
                let session_client = client.clone();
                sessions.push(std::thread::spawn(move || {
                    // One poisoned session must not take down the
                    // listener or any other client.
                    let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        session_loop(&session_client, stream)
                    }));
                }));
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(std::time::Duration::from_millis(20));
            }
            Err(e) => {
                let _ = std::fs::remove_file(path);
                return Err(format!("accepting on {path}: {e}"));
            }
        }
    }
    for h in sessions {
        let _ = h.join();
    }
    let _ = std::fs::remove_file(path);
    Ok(())
}

/// How one bounded line read ended (see [`read_line_bounded`]).
#[cfg(unix)]
enum LineRead {
    /// A complete line is in the buffer.
    Line,
    /// Clean end of stream.
    Eof,
    /// The line exceeded the cap before a newline arrived.
    TooLong,
    /// Nothing arrived for the idle timeout.
    IdleTimeout,
    /// The session is draining; stop reading.
    Draining,
    /// Read error (client vanished).
    Gone,
}

/// Read one `\n`-terminated line with a hard byte cap, slicing the
/// blocking read into short timeouts so idle tracking and drain checks
/// stay responsive. The cap fires *during* the read — a slowloris
/// feeding an endless line is cut off at the cap, not buffered.
#[cfg(unix)]
fn read_line_bounded<R: std::io::BufRead>(
    reader: &mut R,
    buf: &mut Vec<u8>,
    client: &ServeClient,
    slice: std::time::Duration,
) -> LineRead {
    use std::io::ErrorKind;
    let cfg = client.config();
    let mut idle = std::time::Duration::ZERO;
    loop {
        match reader.fill_buf() {
            Ok([]) => return LineRead::Eof,
            Ok(chunk) => {
                idle = std::time::Duration::ZERO;
                let (take, done) = match chunk.iter().position(|b| *b == b'\n') {
                    Some(pos) => (pos + 1, true),
                    None => (chunk.len(), false),
                };
                buf.extend_from_slice(&chunk[..take]);
                reader.consume(take);
                // +1 for the newline sanitize_line strips again.
                if buf.len() > cfg.max_line_bytes + 1 {
                    return LineRead::TooLong;
                }
                if done {
                    return LineRead::Line;
                }
            }
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                idle += slice;
                if client.is_draining() {
                    return LineRead::Draining;
                }
                if idle >= cfg.idle_timeout {
                    return LineRead::IdleTimeout;
                }
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => return LineRead::Gone,
        }
    }
}

/// One socket session: bounded reads, typed protocol errors for garbage
/// input, admission-controlled submits, and a clean goodbye on drain.
#[cfg(unix)]
fn session_loop(client: &ServeClient, stream: std::os::unix::net::UnixStream) {
    use relcheck::core_::serve::sanitize_line;
    use std::io::{BufReader, Write};
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let slice = std::time::Duration::from_millis(50);
    let _ = read_half.set_read_timeout(Some(slice));
    let mut reader = BufReader::new(read_half);
    let mut writer = stream;
    let mut buf: Vec<u8> = Vec::new();
    loop {
        buf.clear();
        match read_line_bounded(&mut reader, &mut buf, client, slice) {
            LineRead::Line => {}
            LineRead::Eof | LineRead::Gone => return,
            LineRead::TooLong => {
                let _ = writeln!(
                    writer,
                    "err line exceeds {} bytes, closing",
                    client.config().max_line_bytes
                );
                return;
            }
            LineRead::IdleTimeout => {
                let _ = writeln!(writer, "err idle timeout, closing");
                return;
            }
            LineRead::Draining => {
                let _ = writeln!(writer, "err session draining, closing");
                return;
            }
        }
        let line = match sanitize_line(&buf, client.config().max_line_bytes) {
            Ok(line) => line,
            Err(e) => {
                if writeln!(writer, "err {e}").is_err() {
                    return;
                }
                continue;
            }
        };
        match client.submit(&line) {
            Submission::Reply(reply) => {
                for l in &reply.lines {
                    if writeln!(writer, "{l}").is_err() {
                        return;
                    }
                }
                if writer.flush().is_err() || reply.quit {
                    return;
                }
            }
            Submission::Busy { retry_after_ms } => {
                if writeln!(writer, "busy {retry_after_ms}").is_err() || writer.flush().is_err() {
                    return;
                }
            }
            Submission::Closed => return,
        }
    }
}

#[cfg(not(unix))]
fn serve_socket(_client: &ServeClient, _path: &str) -> Result<(), String> {
    Err("--socket is only supported on unix platforms".to_owned())
}

/// Scriptable client for a `relcheck serve --socket` session: stdin
/// lines go to the socket, replies stream to stdout. On stdin EOF the
/// write half shuts down and remaining replies drain before exit.
#[cfg(unix)]
fn cmd_connect(args: &[String]) -> Result<bool, String> {
    use std::io::{BufRead, BufReader, Write};
    use std::os::unix::net::UnixStream;
    let path = Args::parse(args, "", "", 1)?.positional(0)?;
    let stream = UnixStream::connect(path).map_err(|e| format!("connecting {path}: {e}"))?;
    let read_half = stream
        .try_clone()
        .map_err(|e| format!("cloning socket: {e}"))?;
    let printer = std::thread::spawn(move || {
        let stdout = std::io::stdout();
        let mut out = stdout.lock();
        for line in BufReader::new(read_half).lines() {
            let Ok(line) = line else { break };
            if writeln!(out, "{line}").is_err() {
                break;
            }
            let _ = out.flush();
        }
    });
    let mut writer = stream;
    let stdin = std::io::stdin();
    for line in stdin.lock().lines() {
        let line = line.map_err(|e| format!("reading stdin: {e}"))?;
        if writeln!(writer, "{line}").is_err() {
            break; // server gone; drain what it already sent
        }
    }
    let _ = writer.shutdown(std::net::Shutdown::Write);
    let _ = printer.join();
    Ok(true)
}

#[cfg(not(unix))]
fn cmd_connect(_args: &[String]) -> Result<bool, String> {
    Err("connect is only supported on unix platforms".to_owned())
}

/// Manage the persistent index store directly: `build`, `verify`,
/// `repair`, `gc`, `apply` (see the module docs).
fn cmd_index(args: &[String]) -> Result<bool, String> {
    let sub = args.first().ok_or_else(usage)?.as_str();
    // Only `apply` takes positionals after the spec: its deltas.
    let max_positional = if sub == "apply" { usize::MAX } else { 1 };
    let rest = Args::parse(
        &args[1..],
        "--index-cache --ordering --fail-spec --fail-seed",
        "",
        max_positional,
    )?;
    let spec_path = rest
        .positional(0)
        .ok()
        .filter(|a| !a.starts_with('-') && !a.starts_with('+'))
        .ok_or_else(usage)?;
    let dir = rest
        .value("--index-cache")
        .ok_or_else(|| "index: --index-cache DIR is required".to_owned())?;
    let ordering = rest.ordering()?;
    rest.arm_failpoints()?;
    let (_spec, db) = load(spec_path)?;
    let opts = CheckerOptions {
        ordering,
        ..Default::default()
    };
    let mut checker = Checker::new(db, opts);
    match sub {
        "verify" => {
            let store =
                IndexStore::open(dir).map_err(|e| format!("opening index cache {dir}: {e}"))?;
            let outcomes = store
                .verify(&mut checker)
                .map_err(|e| format!("verifying {dir}: {e}"))?;
            // A corrupt manifest is a store-wide recovery (relation `*`),
            // recorded when the store opens.
            let print = |rec: &RecoveryRecord| {
                println!("{:<24} {}: {}", rec.relation, rec.reason, rec.detail);
            };
            store.stats.recoveries.iter().for_each(print);
            let mut clean = store.stats.recoveries.is_empty();
            for (relation, outcome) in &outcomes {
                match outcome {
                    VerifyOutcome::Hit { seg_seq, journal } => println!(
                        "{relation:<24} ok (segment folds {seg_seq} of {journal} journal records)"
                    ),
                    VerifyOutcome::NotCached => println!("{relation:<24} not cached"),
                    VerifyOutcome::Recover(recs) => recs.iter().for_each(print),
                }
                clean &= matches!(outcome, VerifyOutcome::Hit { .. });
            }
            Ok(clean)
        }
        "gc" => {
            let db = checker.logical_db().db();
            let known: Vec<String> = db.relation_names().map(str::to_owned).collect();
            let mut store =
                IndexStore::open(dir).map_err(|e| format!("opening index cache {dir}: {e}"))?;
            let removed = store.gc(&known).map_err(|e| format!("gc: {e}"))?;
            if removed.is_empty() {
                println!("index-cache: nothing to collect");
            } else {
                for f in &removed {
                    println!("removed {f}");
                }
            }
            Ok(true)
        }
        "build" | "repair" | "apply" => {
            // All three share the same durable core: (optionally) journal
            // the requested deltas, then warm-start — which adopts, replays,
            // or rebuilds every relation as needed — and persist the result.
            let mut store =
                IndexStore::open(dir).map_err(|e| format!("opening index cache {dir}: {e}"))?;
            if sub == "apply" {
                let deltas: Vec<(String, Delta)> = rest.positional[1..]
                    .iter()
                    .map(|a| parse_delta(a))
                    .collect::<Result<_, _>>()?;
                if deltas.is_empty() {
                    return Err(
                        "index apply: no deltas given (+REL:v1,v2 or -REL:v1,v2)".to_owned()
                    );
                }
                for (relation, delta) in &deltas {
                    let rel = checker.logical_db().db().relation(relation);
                    let arity = rel.map_err(|e| e.to_string())?.arity();
                    if delta.values().len() != arity {
                        return Err(format!(
                            "delta for {relation:?} has {} value(s); the relation has arity {arity}",
                            delta.values().len()
                        ));
                    }
                    store
                        .append_delta(relation, delta)
                        .map_err(|e| format!("journaling delta for {relation:?}: {e}"))?;
                    println!(
                        "journaled {}{relation}({})",
                        if matches!(delta, Delta::Insert(_)) {
                            "+"
                        } else {
                            "-"
                        },
                        delta
                            .values()
                            .iter()
                            .map(ToString::to_string)
                            .collect::<Vec<_>>()
                            .join(", ")
                    );
                }
            }
            store
                .warm_start(&mut checker)
                .map_err(|e| format!("warm-starting from {dir}: {e}"))?;
            store
                .write_back(&mut checker)
                .map_err(|e| format!("writing back index cache: {e}"))?;
            for rec in &store.stats.recoveries {
                println!(
                    "recovered {:?} ({}): {}",
                    rec.relation, rec.reason, rec.detail
                );
            }
            println!(
                "index-cache {dir}: {} hit(s), {} miss(es), {} rebuild(s), {} journal record(s) replayed, {} write failure(s)",
                store.stats.hits,
                store.stats.misses,
                store.stats.rebuilds,
                store.stats.journal_replayed,
                store.stats.write_failures
            );
            Ok(store.stats.write_failures == 0)
        }
        other => Err(format!("unknown index subcommand {other:?}\n{}", usage())),
    }
}

/// Validate a metrics JSON document against the documented schema and
/// its conservation laws.
fn cmd_metrics_check(args: &[String]) -> Result<(), String> {
    let path = Args::parse(args, "", "", 1)?.positional(0)?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    validate_metrics_json(&text).map_err(|e| format!("{path}: {e}"))?;
    println!("{path}: valid metrics document");
    Ok(())
}

/// Print the compiled check plan for one constraint (or, with no name
/// given, every constraint in the spec) without executing it.
fn cmd_plan(args: &[String]) -> Result<(), String> {
    let args = Args::parse(args, "--ordering", "--json", 2)?;
    let spec_path = args.positional(0)?;
    let target = args.positional.get(1).copied();
    let json = args.has("--json");
    let ordering = args.ordering()?;
    // JSON mode prints exactly one machine-readable line to stdout.
    let (spec, db) = if json {
        load_quiet(spec_path)?
    } else {
        load(spec_path)?
    };
    let mut checker = Checker::new(
        db,
        CheckerOptions {
            ordering,
            ..Default::default()
        },
    );
    let selected: Vec<_> = match target {
        Some(name) => {
            let c = spec
                .constraints
                .iter()
                .find(|c| c.name == name)
                .ok_or_else(|| format!("no constraint named {name:?} in the spec"))?;
            vec![c]
        }
        None => spec.constraints.iter().collect(),
    };
    if selected.is_empty() {
        return Err("spec declares no constraints".to_owned());
    }
    if json {
        let plans = selected
            .iter()
            .map(|c| {
                checker
                    .plan(&c.formula)
                    .map(|p| (c.name.clone(), p))
                    .map_err(|e| e.to_string())
            })
            .collect::<Result<Vec<_>, String>>()?;
        let doc = plans_to_json(&plans);
        validate_plan_json(&doc).map_err(|e| format!("emitted plan document invalid: {e}"))?;
        println!("{doc}");
        return Ok(());
    }
    for c in selected {
        let plan = checker.plan(&c.formula).map_err(|e| e.to_string())?;
        println!("\nconstraint {:?}: {}", c.name, c.formula);
        println!("{}", plan.render());
    }
    Ok(())
}

fn cmd_explain(args: &[String]) -> Result<(), String> {
    let args = Args::parse(args, "", "", 2)?;
    let spec_path = args.positional(0)?;
    let target = args.positional(1)?;
    let (spec, db) = load(spec_path)?;
    let c = spec
        .constraints
        .iter()
        .find(|c| c.name == target)
        .ok_or_else(|| format!("no constraint named {target:?} in the spec"))?;
    let mut checker = Checker::new(db, CheckerOptions::default());
    let e = checker.explain(&c.formula).map_err(|e| e.to_string())?;
    println!("\nconstraint {:?}: {}", c.name, c.formula);
    println!("{e}");
    Ok(())
}

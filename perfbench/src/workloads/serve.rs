//! `serve`: an open-loop delta/check stream against a `ServeActor`.
//!
//! Two threads: this generator and the actor's engine thread. The data is
//! the customer database (100k generated rows) with a durable
//! `IndexStore` in the scratch directory, flushed with the shipped policy
//! (one fsync per acknowledged delta). A seeded schedule sends CUST
//! insert/delete deltas, with one full `check` after every 8 deltas, at
//! exponentially distributed gaps whose mean keeps the engine busy about
//! a third of the time. Each request is timed from its scheduled send to
//! its reply, so a request that waits behind a slow one is charged the
//! wait; the generator's lateness is reported beside it. The host
//! reference is sampled in the gaps, while no request is outstanding.
//!
//! The traced run replays the sent requests twice on copies of the
//! session: once through `ServeEngine::handle_line` (engine time per
//! request kind), once through the constituent public calls (journal
//! append, index maintenance, registry revalidation, planning).

use super::{atom_counts, bdd_counts, EXACT_OPS};
use crate::data::{customer_battery, customer_db, Battery};
use crate::host::{median, supported_tail, IoRef};
use crate::trace::Tracer;
use crate::{Ctx, Failure, Sample};
use relcheck::core_::serve::parse_delta;
use relcheck::core_::store::journal_file_name;
use relcheck::core_::{
    Checker, CheckerOptions, ConstraintRegistry, Delta, IndexStore, ServeActor, ServeConfig,
    ServeEngine, Submission,
};
use relcheck::datagen::rng::SplitMix64;
use relcheck::relstore::Raw;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Generated customer rows (before duplicates collapse).
const ROWS: usize = 100_000;
/// Mean scheduled gap between requests. Between gaps a check takes
/// ≈50 ms of engine time (≈27 ms back to back: idle gaps cool the caches)
/// and a delta ≈0.1 ms, so one 9-request cycle is ≈55 ms of engine work
/// per ≈160 ms of schedule: the engine is busy about a third of the time.
const MEAN_GAP_MS: f64 = 18.0;
/// Deltas between two full checks.
const DELTAS_PER_CHECK: u64 = 8;
/// Gap the host references are taken in: they end about 1 ms before the
/// request is due (≈0.6 ms pointer chase + ≈0.2 ms synced append).
const REF_ROOM: Duration = Duration::from_millis(2);
/// Per-layer replays stop after this many requests (keeps traced runs
/// within their time limit).
const REPLAY_MAX: usize = 2_000;

/// The seeded request stream: CUST deltas over interned values (so no
/// delta widens a frozen BDD domain), one `check` after every 8 deltas.
struct Stream {
    rng: SplitMix64,
    city_state: Vec<u32>,
    /// Tuples inserted and not yet deleted.
    pool: Vec<[u32; 3]>,
    sent: u64,
}

impl Stream {
    fn new(seed: u64, city_state: Vec<u32>) -> Stream {
        Stream {
            rng: SplitMix64::seed_from_u64(seed ^ 0x5E5E_0000),
            city_state,
            pool: Vec::new(),
            sent: 0,
        }
    }

    /// Next request line, its gap from the previous one (ms), and whether
    /// it is a check.
    fn next(&mut self) -> (String, f64, bool) {
        let gap = -(1.0 - self.rng.gen_f64()).ln() * MEAN_GAP_MS;
        self.sent += 1;
        if self.sent.is_multiple_of(DELTAS_PER_CHECK + 1) {
            return ("check".to_owned(), gap, true);
        }
        let line = if !self.pool.is_empty() && self.rng.gen_bool(0.5) {
            let i = self.rng.gen_range(0..self.pool.len() as u64) as usize;
            let [a, c, s] = self.pool.swap_remove(i);
            format!("-CUST:{a},{c},{s}")
        } else {
            let a = self.rng.gen_range(0..100u64) as u32;
            let c = self.rng.gen_range(0..self.city_state.len() as u64) as u32;
            // Mostly consistent with the reference table, like the base
            // data (which has a 0.1% violation rate).
            let s = if self.rng.gen_bool(0.99) {
                self.city_state[c as usize]
            } else {
                self.rng.gen_range(0..40u64) as u32
            };
            self.pool.push([a, c, s]);
            format!("+CUST:{a},{c},{s}")
        };
        (line, gap, false)
    }
}

/// A primed session: checker warm-started from a fresh durable store.
fn session(ctx: &mut Ctx, rows: usize, dir: &Path) -> Result<(Checker, IndexStore), Failure> {
    let _ = std::fs::remove_dir_all(dir);
    let db = customer_db(rows, 0.001, ctx.cfg.seed);
    let mut ck = Checker::new(db, CheckerOptions::default());
    let mut store = IndexStore::open(dir).map_err(Failure::error)?;
    ctx.tr
        .span("store.warm_start", || store.warm_start(&mut ck))
        .map_err(Failure::error)?;
    Ok((ck, store))
}

fn city_state(ck: &Checker) -> Result<Vec<u32>, Failure> {
    let rel = ck
        .logical_db()
        .db()
        .relation("CITY_STATE")
        .map_err(Failure::error)?;
    let mut cs = vec![0u32; rel.len()];
    for i in 0..rel.len() {
        let row = rel.row(i);
        cs[row[0] as usize] = row[1];
    }
    Ok(cs)
}

/// Sleep, then spin, until `due`.
fn wait_until(due: Instant) {
    loop {
        let now = Instant::now();
        if now >= due {
            return;
        }
        let left = due - now;
        if left > Duration::from_micros(400) {
            std::thread::sleep(left - Duration::from_micros(300));
        } else {
            std::hint::spin_loop();
        }
    }
}

/// Verdicts (`name → holds`) from a full check reply.
fn verdicts(lines: &[String], battery: &Battery) -> Option<Vec<bool>> {
    battery
        .iter()
        .map(|(name, _)| {
            lines.iter().find_map(|l| {
                let mut parts = l.split_whitespace();
                (parts.next() == Some(name.as_str())).then(|| parts.next() == Some("ok"))
            })
        })
        .collect()
}

/// Run the `serve` workload.
pub fn run(ctx: &mut Ctx) -> Result<(), Failure> {
    let rows = if ctx.cfg.small { 20_000 } else { ROWS };
    let battery = customer_battery();
    let store_dir = ctx.cfg.work_dir.join("serve-store");
    let engine = ctx.setups(|ctx, _| {
        let (ck, store) = session(ctx, rows, &store_dir)?;
        let (engine, _) = ctx
            .tr
            .span("serve.prime", || {
                ServeEngine::new(ck, &battery, Some(store))
            })
            .map_err(Failure::error)?;
        Ok(engine)
    })?;
    let mut stream = Stream::new(ctx.cfg.seed, city_state(engine.checker())?);
    let actor = ServeActor::spawn(engine, ServeConfig::default());
    let client = actor.client();

    // Each sent request with its scheduled offset from the start.
    let mut sent: Vec<(String, Duration)> = Vec::new();
    // Per request: is_check, send→reply ms.
    let mut actor_ms: Vec<(bool, f64)> = Vec::new();
    let mut late_ms: Vec<f64> = Vec::new();
    let mut busy_ms = 0.0;
    let mut io_ref = IoRef::create(&ctx.cfg.work_dir.join("io-ref")).map_err(Failure::error)?;
    let mut last_ref = ctx.host.sample_ms();
    let mut last_io_ref = io_ref.sample_ms().map_err(Failure::error)?;
    let start = Instant::now();
    let mut due = start;
    let mut i = 0usize;
    while !ctx.finished(start, i) {
        let (line, gap, is_check) = stream.next();
        due += Duration::from_secs_f64(gap / 1e3);
        // Both references are sampled at the end of the gap before a
        // request, while none is outstanding, if the gap has room.
        if Instant::now() + REF_ROOM < due {
            wait_until(due - REF_ROOM);
            last_ref = ctx.host.sample_ms();
            last_io_ref = io_ref.sample_ms().map_err(Failure::error)?;
        }
        wait_until(due);
        let traced = ctx.cfg.trace && (i / 2).is_multiple_of(2);
        ctx.tr.set_on(traced);
        ctx.tr.set_op(i as u64);
        let open = ctx.tr.begin(if is_check { "op.main" } else { "op.side" });
        let send = Instant::now();
        let sub = client.submit(&line);
        let done = Instant::now();
        ctx.tr.end(open);
        ctx.out.attempted += 1;
        let to_ms = |d: Duration| d.as_secs_f64() * 1e3;
        late_ms.push(to_ms(send - due));
        actor_ms.push((is_check, to_ms(done - send)));
        busy_ms += to_ms(done - send);
        sent.push((line.clone(), due - start));
        i += 1;
        let failure = match &sub {
            Submission::Reply(r) => r
                .lines
                .iter()
                .find(|l| l.starts_with("err") || l.contains("durable=false"))
                .map(|l| format!("{line}: {l}")),
            Submission::Busy { retry_after_ms } => Some(format!("{line}: busy {retry_after_ms}")),
            Submission::Closed => Some(format!("{line}: session closed")),
        };
        if let Some(msg) = failure {
            ctx.fail(Failure::error(msg));
            if matches!(sub, Submission::Closed) {
                break;
            }
            continue;
        }
        // A check is CPU-bound; a delta waits on one fsync.
        ctx.out.samples.push(Sample {
            side: !is_check,
            raw_ms: to_ms(done - due),
            ref_ms: if is_check { last_ref } else { last_io_ref },
            io: !is_check,
            traced,
        });
    }
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    ctx.tr.set_on(ctx.cfg.trace);
    ctx.tr.set_op(i as u64);

    // Correctness: the session's final verdicts against a cold SQL check
    // of the final row set.
    let final_check = match client.submit("check") {
        Submission::Reply(r) => verdicts(&r.lines, &battery),
        _ => None,
    };
    let _ = client.submit("quit");
    drop(client);
    let (engine, overload) = actor.shutdown();
    let final_db = engine.checker().logical_db().db().clone();
    let reference = ctx
        .tr
        .span("sql.check", || super::sql_reference(&final_db, &battery))?;
    match final_check {
        Some(v) if v == reference => {}
        other => ctx.fail(Failure::wrong(format!(
            "final verdicts {other:?}, cold SQL reference {reference:?}"
        ))),
    }
    let deltas = engine.stats().deltas;
    let journal_bytes = std::fs::metadata(store_dir.join(journal_file_name("CUST")))
        .map(|m| m.len())
        .unwrap_or(0);
    let readvises = engine.policy_metrics().map_or(0, |p| p.readvises);
    drop(engine);

    let checks_n = actor_ms.iter().filter(|(c, _)| *c).count();
    ctx.out.notes.push(format!(
        "serve: {} requests ({} checks, {} deltas) in {:.0} ms, engine busy {:.1}% \
         (send-to-reply time / wall), mean scheduled gap {MEAN_GAP_MS} ms \
         ({:.0} requests/s), {} shed, {} rejected, {readvises} re-advises",
        sent.len(),
        checks_n,
        sent.len() - checks_n,
        wall_ms,
        100.0 * busy_ms / wall_ms.max(1e-9),
        1e3 / MEAN_GAP_MS,
        overload.shed,
        overload.rejected,
    ));
    let mut late_note = format!("serve.gen_late_ms p50 {:.4}", median(&late_ms));
    if let Some((p, v)) = supported_tail(&late_ms) {
        late_note += &format!(", p{p} {v:.4} (n={})", late_ms.len());
    }
    ctx.out.notes.push(late_note);
    ctx.out
        .layers
        .push(("serve.gen_late_ms".to_owned(), median(&late_ms)));
    ctx.out
        .layers
        .push(("serve.readvises".to_owned(), readvises as f64));
    if deltas > 0 {
        ctx.out.layers.push((
            "store.journal_bytes_per_delta".to_owned(),
            journal_bytes as f64 / deltas as f64,
        ));
    }
    let _ = std::fs::remove_dir_all(&store_dir);

    if ctx.cfg.trace {
        let sent = &sent[..sent.len().min(REPLAY_MAX)];
        replay_engine(ctx, rows, &battery, sent, &actor_ms)?;
        replay_layers(ctx, rows, &battery, sent)?;
    }
    Ok(())
}

/// Replay the requests, on their schedule, through
/// `ServeEngine::handle_line` on a copy of the session: engine time per
/// kind, queue wait (actor latency minus engine time), and the exact
/// counts. Replays keep the schedule's idle gaps because they matter: a
/// check after an idle gap takes about twice as long as back to back.
fn replay_engine(
    ctx: &mut Ctx,
    rows: usize,
    battery: &Battery,
    sent: &[(String, Duration)],
    actor_ms: &[(bool, f64)],
) -> Result<(), Failure> {
    let dir = ctx.cfg.work_dir.join("serve-replay-engine");
    let was_on = ctx.tr.on();
    ctx.tr.set_on(false);
    let (ck, store) = session(ctx, rows, &dir)?;
    ctx.tr.set_on(was_on);
    let (mut engine, _) = ServeEngine::new(ck, battery, Some(store)).map_err(Failure::error)?;
    let mut engine_ms: [Vec<f64>; 2] = [Vec::new(), Vec::new()];
    let mut checks = 0usize;
    let exact_requests = EXACT_OPS * (DELTAS_PER_CHECK as usize + 1);
    let start = Instant::now();
    for (i, (line, due)) in sent.iter().enumerate() {
        wait_until(start + *due);
        let is_check = line == "check";
        let before = engine.checker().logical_db().manager().stats();
        let t0 = Instant::now();
        let reply = engine.handle_line(line);
        engine_ms[usize::from(is_check)].push(t0.elapsed().as_secs_f64() * 1e3);
        if reply.lines.iter().any(|l| l.starts_with("err")) {
            return Err(Failure::error(format!("replay {line}: {:?}", reply.lines)));
        }
        if is_check && checks < EXACT_OPS {
            let mut quiet = Tracer::new(false);
            let after = engine.checker().logical_db().manager().stats();
            let counts = bdd_counts(&mut quiet, &before, &after);
            ctx.out.exact.push((format!("op{checks}.bdd"), counts));
            checks += 1;
        }
        if i + 1 == exact_requests {
            let bytes = std::fs::metadata(dir.join(journal_file_name("CUST")))
                .map(|m| m.len())
                .unwrap_or(0);
            ctx.out.exact.push((
                format!("journal_bytes_after_{exact_requests}_requests"),
                bytes.to_string(),
            ));
        }
    }
    drop(engine);
    let _ = std::fs::remove_dir_all(&dir);
    for (kind, is_check) in [("delta", false), ("check", true)] {
        let engine_p50 = median(&engine_ms[usize::from(is_check)]);
        let actor: Vec<f64> = actor_ms
            .iter()
            .filter(|(c, _)| *c == is_check)
            .map(|(_, ms)| *ms)
            .collect();
        ctx.out
            .layers
            .push((format!("serve.engine_ms.{kind}"), engine_p50));
        ctx.out.layers.push((
            format!("serve.queue_wait_ms.{kind}"),
            median(&actor) - engine_p50,
        ));
    }
    Ok(())
}

/// Replay the requests, on their schedule, through the public calls
/// `handle_line` makes: `IndexStore::append_delta` +
/// `LogicalDatabase::insert_tuple` / `delete_tuple` for a delta,
/// `ConstraintRegistry::revalidate` for a check (plus a planning probe).
fn replay_layers(
    ctx: &mut Ctx,
    rows: usize,
    battery: &Battery,
    sent: &[(String, Duration)],
) -> Result<(), Failure> {
    let dir: PathBuf = ctx.cfg.work_dir.join("serve-replay-layers");
    let was_on = ctx.tr.on();
    ctx.tr.set_on(false);
    let (mut ck, mut store) = session(ctx, rows, &dir)?;
    ctx.tr.set_on(was_on);
    let mut registry = ConstraintRegistry::new();
    for (name, f) in battery {
        registry.register(name, f.clone());
    }
    registry.validate_all(&mut ck).map_err(Failure::error)?;
    let mut dirty = false;
    let start = Instant::now();
    for (i, (line, due)) in sent.iter().enumerate() {
        wait_until(start + *due);
        ctx.tr.set_op(i as u64);
        let tr = &mut ctx.tr;
        if line == "check" {
            let touched: &[&str] = if dirty { &["CUST"] } else { &[] };
            let before = ck.logical_db().manager().stats();
            let atoms_before = ck.logical_db().atom_cache_stats();
            let answers = tr
                .span("exec.bdd_check", || registry.revalidate(&mut ck, touched))
                .map_err(Failure::error)?;
            bdd_counts(tr, &before, &ck.logical_db().manager().stats());
            atom_counts(tr, atoms_before, ck.logical_db().atom_cache_stats());
            let checked = answers
                .iter()
                .filter(|(_, v)| matches!(v, relcheck::core_::registry::Verdict::Checked { .. }))
                .count();
            tr.count(
                "registry.recheck_share",
                checked as f64 / answers.len().max(1) as f64,
            );
            for (_, f) in battery {
                tr.span("planner.plan", || ck.plan(f))
                    .map_err(Failure::error)?;
            }
            dirty = false;
            continue;
        }
        let (relation, delta) = parse_delta(line).map_err(Failure::error)?;
        let db = ck.logical_db().db();
        let rel = db.relation(&relation).map_err(Failure::error)?;
        let row: Vec<u32> = rel
            .schema()
            .columns()
            .iter()
            .zip(delta.values())
            .map(|(c, v): (_, &Raw)| db.code(&c.class, v))
            .collect::<Option<_>>()
            .ok_or_else(|| Failure::error(format!("{line}: value not interned")))?;
        tr.span("store.append", || store.append_delta(&relation, &delta))
            .map_err(Failure::error)?;
        tr.span("index.maintain", || match &delta {
            Delta::Insert(_) => ck.logical_db_mut().insert_tuple(&relation, &row),
            Delta::Delete(_) => ck.logical_db_mut().delete_tuple(&relation, &row),
        })
        .map_err(Failure::error)?;
        dirty = true;
    }
    ctx.out.layers.push((
        "index.live_nodes".to_owned(),
        ck.logical_db().index_size() as f64,
    ));
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
    Ok(())
}

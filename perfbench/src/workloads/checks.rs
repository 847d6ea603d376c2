//! `table1` and `fallback`: a constraint battery on warm indices.
//!
//! The main op checks the battery through `Checker::check` (the BDD path
//! with its degradation ladder). The side op of `table1` enumerates up to
//! 10 witnesses and counts every violating assignment of each violated
//! query on its violation BDD (`Checker::find_violations_counted`, what
//! `relcheck run --certify` does after the checks); the side op of
//! `fallback` checks the battery through `Checker::check_sql` (`relcheck
//! run --sql`, the paper's SQL baseline). Verdicts and counts are compared
//! against an SQL reference computed on an index-free checker during
//! set-up.
//!
//! `fallback` caps the BDD manager below the `areacode-determines-state`
//! FD's unbounded peak (88,922 nodes) and above the index size (≈5.9k
//! nodes), so that check leaves the BDD rung for the SQL rung on every op.

use super::{atom_counts, bdd_counts, rung, sql_reference, EXACT_OPS};
use crate::data::{customer_battery, customer_db, table1_battery, table1_db, Battery};
use crate::trace::Tracer;
use crate::{serial_loop, Ctx, Failure, Serial};
use relcheck::core_::{Checker, CheckerOptions, Method};
use std::time::Instant;

/// `CheckerOptions::node_limit` of the `fallback` workload.
pub const FALLBACK_NODE_LIMIT: usize = 50_000;

/// Witnesses enumerated per violated query (`--witness-limit`'s default).
const WITNESS_LIMIT: usize = 10;

struct Checks {
    ck: Checker,
    battery: Battery,
    reference: Vec<bool>,
    /// Violating-assignment count per violated constraint, taken once in
    /// set-up; `Some` selects the witness side op (`table1`), `None` the
    /// SQL one.
    witness_counts: Option<Vec<f64>>,
    /// Rung and wall time (ms, traced ops only) of each constraint in the
    /// last main op, plus the nodes its check created.
    last: Vec<(Method, f64, u64)>,
    /// Nodes created by the whole last main op.
    last_created: u64,
    main_ops: usize,
    exact: Vec<(String, String)>,
}

impl Serial for Checks {
    fn op(&mut self, side: bool, tr: &mut Tracer) -> Result<(), Failure> {
        if let (true, Some(counts)) = (side, &self.witness_counts) {
            for (((name, f), holds), want) in self.battery.iter().zip(&self.reference).zip(counts) {
                if *holds {
                    continue;
                }
                let found = tr
                    .span("bdd.sat_enum", || {
                        self.ck.find_violations_counted(f, WITNESS_LIMIT)
                    })
                    .map_err(Failure::error)?
                    .ok_or_else(|| Failure::error(format!("witnesses {name}: no violation BDD")))?;
                // The SQL reference says the query is violated, so there
                // must be witnesses, as many as in set-up.
                let listed = found.rows.len() as f64;
                if found.total < 1.0
                    || found.total != *want
                    || listed != want.min(WITNESS_LIMIT as f64)
                {
                    return Err(Failure::wrong(format!(
                        "witnesses {name}: {listed} of {} listed, {want} in set-up",
                        found.total
                    )));
                }
            }
            return Ok(());
        }
        if side {
            for ((name, f), want) in self.battery.iter().zip(&self.reference) {
                let r = tr
                    .span("sql.check", || self.ck.check_sql(f))
                    .map_err(Failure::error)?;
                if !r.verdict.is_decided() || r.holds != *want {
                    return Err(Failure::wrong(format!(
                        "sql_check {name}: holds={}",
                        r.holds
                    )));
                }
            }
            return Ok(());
        }
        let op_before = self.ck.logical_db().manager().stats();
        let atoms_before = self.ck.logical_db().atom_cache_stats();
        self.last.clear();
        let mut fallbacks = 0u64;
        for ((name, f), want) in self.battery.iter().zip(&self.reference) {
            let created_before = self.ck.logical_db().manager().stats().created_nodes;
            let t0 = tr.on().then(Instant::now);
            let open = tr.begin("exec.check");
            let res = self.ck.check(f);
            let bdd = matches!(&res, Ok(r) if r.method == Method::Bdd);
            tr.end_as(
                open,
                if bdd {
                    "exec.bdd_check"
                } else {
                    "ladder.check"
                },
            );
            let r = res.map_err(Failure::error)?;
            fallbacks += u64::from(r.method == Method::SqlFallback);
            let ms = t0.map_or(0.0, |t| t.elapsed().as_secs_f64() * 1e3);
            let created = self.ck.logical_db().manager().stats().created_nodes - created_before;
            self.last.push((r.method, ms, created));
            if !r.verdict.is_decided() || r.holds != *want {
                return Err(Failure::wrong(format!(
                    "check {name}: verdict {} holds={} via {}",
                    r.verdict.name(),
                    r.holds,
                    rung(r.method)
                )));
            }
        }
        let op_after = self.ck.logical_db().manager().stats();
        self.last_created = op_after.created_nodes - op_before.created_nodes;
        let counts = bdd_counts(tr, &op_before, &op_after);
        atom_counts(tr, atoms_before, self.ck.logical_db().atom_cache_stats());
        tr.count("ladder.fallbacks", fallbacks as f64);
        if self.main_ops < EXACT_OPS {
            self.exact
                .push((format!("op{}.bdd", self.main_ops), counts));
        }
        self.main_ops += 1;
        Ok(())
    }

    /// Planning, and the SQL rung alone for every constraint that fell
    /// back: what the ladder would have cost had it gone straight to SQL.
    fn probe(&mut self, side: bool, tr: &mut Tracer) -> Result<(), Failure> {
        if side {
            return Ok(());
        }
        let mut wasted_nodes = 0u64;
        for ((_, f), (method, check_ms, created)) in self.battery.iter().zip(&self.last) {
            tr.span("planner.plan", || self.ck.plan(f))
                .map_err(Failure::error)?;
            if *method == Method::SqlFallback {
                let t0 = Instant::now();
                tr.span("ladder.sql_rung", || self.ck.check_sql(f))
                    .map_err(Failure::error)?;
                let sql_ms = t0.elapsed().as_secs_f64() * 1e3;
                tr.count("ladder.wasted_ms", check_ms - sql_ms);
                wasted_nodes += created;
            }
        }
        if self.last_created > 0 {
            tr.count(
                "ladder.wasted_node_share",
                wasted_nodes as f64 / self.last_created as f64,
            );
        }
        Ok(())
    }
}

/// Run `table1` (`fallback = false`) or `fallback`.
pub fn run(ctx: &mut Ctx, fallback: bool) -> Result<(), Failure> {
    let mut w = ctx.setups(|ctx, _| {
        let seed = ctx.cfg.seed;
        let (db, battery, opts) = if fallback {
            let rows = if ctx.cfg.small { 20_000 } else { 100_000 };
            let opts = CheckerOptions {
                node_limit: Some(FALLBACK_NODE_LIMIT),
                ..Default::default()
            };
            (customer_db(rows, 0.001, seed), customer_battery(), opts)
        } else {
            let tuples = if ctx.cfg.small { 3_000 } else { 100_000 };
            (
                table1_db(tuples, seed),
                table1_battery(),
                CheckerOptions::default(),
            )
        };
        let reference = ctx.tr.span("sql.check", || sql_reference(&db, &battery))?;
        let mut names: Vec<String> = db.relation_names().map(str::to_owned).collect();
        names.sort();
        let mut ck = Checker::new(db, opts);
        for name in &names {
            ctx.tr
                .span("index.build", || ck.ensure_index(name))
                .map_err(Failure::error)?;
        }
        let mut w = Checks {
            ck,
            battery,
            reference,
            witness_counts: None,
            last: Vec::new(),
            last_created: 0,
            main_ops: 0,
            exact: Vec::new(),
        };
        // Warm-up: one battery fills the atom cache and apply cache the
        // way every later op finds them.
        let was_on = ctx.tr.on();
        ctx.tr.set_on(false);
        w.op(false, &mut ctx.tr)?;
        if !fallback {
            let mut counts = Vec::new();
            for ((name, f), holds) in w.battery.iter().zip(&w.reference) {
                counts.push(match holds {
                    true => 0.0,
                    false => {
                        w.ck.find_violations_counted(f, WITNESS_LIMIT)
                            .map_err(Failure::error)?
                            .ok_or_else(|| Failure::error(format!("{name}: no violation BDD")))?
                            .total
                    }
                });
            }
            w.witness_counts = Some(counts);
        }
        ctx.tr.set_on(was_on);
        w.main_ops = 0;
        w.exact.clear();
        Ok(w)
    })?;
    serial_loop(ctx, &mut w);
    for ((name, _), (method, _, _)) in w.battery.iter().zip(&w.last) {
        w.exact
            .push((format!("rung.{name}"), rung(*method).to_owned()));
    }
    ctx.out.exact.append(&mut w.exact);
    ctx.out.layers.push((
        "index.live_nodes".to_owned(),
        w.ck.logical_db().index_size() as f64,
    ));
    ctx.out.notes.push(format!(
        "arena peak {} nodes, {} relations indexed",
        w.ck.logical_db().manager().stats().peak_nodes,
        w.ck.logical_db().db().relation_names().count()
    ));
    Ok(())
}

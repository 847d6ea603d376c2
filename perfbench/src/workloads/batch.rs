//! `batch`: what `relcheck run` does, from a spec and CSV files on disk.
//!
//! The main op is a cold run: parse the spec, ingest the CSVs, build every
//! index, validate Q1–Q5 through a `ConstraintRegistry`, and list up to 10
//! violating tuples per violated constraint. The side op is the same run
//! warm-started from an index store filled during set-up (`relcheck run
//! --index-cache`): `IndexStore::open` + `warm_start` replace the builds.
//! The R1 relation has 20k tuples, so a cold op stays well under 200 ms.

use super::{atom_counts, bdd_counts, rung, sql_reference, EXACT_OPS};
use crate::data::{table1_battery, table1_db, write_project, Battery};
use crate::trace::Tracer;
use crate::{serial_loop, Ctx, Failure, Serial};
use relcheck::core_::{Checker, CheckerOptions, ConstraintRegistry, IndexStore, Method};
use relcheck::relstore::Database;
use relcheck::spec::{parse_spec, Spec};
use std::hint::black_box;
use std::path::PathBuf;

/// Violating tuples listed per violated constraint (`relcheck run`'s
/// default `--limit`).
const LIST_LIMIT: usize = 10;

struct Batch {
    dir: PathBuf,
    spec_path: String,
    store_dir: PathBuf,
    battery: Battery,
    /// Reference verdict and violating-tuple count per constraint.
    reference: Vec<(bool, usize)>,
    /// The last op's checker, for the traced run's planning probe.
    last: Option<Checker>,
    last_rungs: Vec<Method>,
    main_ops: usize,
    exact: Vec<(String, String)>,
}

impl Batch {
    /// Parse the spec and ingest its CSV files, as `relcheck run` loads
    /// a project.
    fn load(&self, tr: &mut Tracer) -> Result<(Spec, Checker), Failure> {
        let text = std::fs::read_to_string(&self.spec_path).map_err(Failure::error)?;
        let spec = parse_spec(&text).map_err(Failure::error)?;
        let mut db = Database::new();
        for t in &spec.tables {
            let csv = std::fs::read(self.dir.join(&t.path)).map_err(Failure::error)?;
            let columns: Vec<(&str, &str)> = t
                .columns
                .iter()
                .map(|(c, k)| (c.as_str(), k.as_str()))
                .collect();
            tr.span("relstore.ingest", || {
                db.create_relation_from_csv_bytes(&t.name, &columns, &csv, t.has_header)
                    .map(|_| ())
            })
            .map_err(Failure::error)?;
        }
        Ok((spec, Checker::new(db, CheckerOptions::default())))
    }

    /// One `relcheck run`, cold or warm-started from the store.
    fn run_once(&mut self, cached: bool, tr: &mut Tracer) -> Result<Checker, Failure> {
        let (spec, mut ck) = self.load(tr)?;
        let mut store = None;
        if cached {
            let mut s = IndexStore::open(&self.store_dir).map_err(Failure::error)?;
            tr.span("store.warm_start", || s.warm_start(&mut ck))
                .map_err(Failure::error)?;
            if s.stats.hits as usize != spec.tables.len() {
                return Err(Failure::error(format!(
                    "index store served {} of {} relations",
                    s.stats.hits,
                    spec.tables.len()
                )));
            }
            store = Some(s);
        } else {
            for t in &spec.tables {
                tr.span("index.build", || ck.ensure_index(&t.name))
                    .map_err(Failure::error)?;
            }
        }
        let mut registry = ConstraintRegistry::new();
        for c in &spec.constraints {
            registry.register(&c.name, c.formula.clone());
        }
        let atoms_before = ck.logical_db().atom_cache_stats();
        let before = ck.logical_db().manager().stats();
        let reports = tr
            .span("exec.bdd_check", || registry.validate_all(&mut ck))
            .map_err(Failure::error)?;
        let counts = bdd_counts(tr, &before, &ck.logical_db().manager().stats());
        atom_counts(tr, atoms_before, ck.logical_db().atom_cache_stats());
        // A fresh registry checks every constraint: the share is 1 here
        // and below 1 only when deltas leave some constraints clean.
        tr.count("registry.recheck_share", 1.0);
        tr.count(
            "ladder.fallbacks",
            reports
                .iter()
                .filter(|(_, r)| r.method == Method::SqlFallback)
                .count() as f64,
        );
        self.last_rungs = reports.iter().map(|(_, r)| r.method).collect();
        for ((name, r), (want, want_rows)) in reports.iter().zip(&self.reference) {
            if !r.verdict.is_decided() || r.holds != *want {
                return Err(Failure::wrong(format!("{name}: holds={}", r.holds)));
            }
            if r.holds {
                continue;
            }
            let f = &spec
                .constraints
                .iter()
                .find(|c| &c.name == name)
                .expect("registry reports registered names")
                .formula;
            let (rows, _cols) = tr
                .span("sql.find_violations", || ck.find_violations(f))
                .map_err(Failure::error)?;
            if rows.len() != *want_rows {
                return Err(Failure::wrong(format!(
                    "{name}: {} violating tuples, reference {want_rows}",
                    rows.len()
                )));
            }
            for i in 0..rows.len().min(LIST_LIMIT) {
                let decoded = ck.logical_db().db().decode_row(&rows, &rows.row(i));
                black_box(decoded.iter().map(ToString::to_string).collect::<Vec<_>>());
            }
        }
        if let Some(mut s) = store {
            tr.span("store.write_back", || s.write_back(&mut ck))
                .map_err(Failure::error)?;
        }
        if !cached && self.main_ops < EXACT_OPS {
            self.exact
                .push((format!("op{}.bdd", self.main_ops), counts));
        }
        Ok(ck)
    }
}

impl Serial for Batch {
    fn op(&mut self, side: bool, tr: &mut Tracer) -> Result<(), Failure> {
        let ck = self.run_once(side, tr)?;
        if !side {
            self.main_ops += 1;
        }
        self.last = Some(ck);
        Ok(())
    }

    fn probe(&mut self, _side: bool, tr: &mut Tracer) -> Result<(), Failure> {
        if let Some(ck) = self.last.as_mut() {
            for (_, f) in &self.battery {
                tr.span("planner.plan", || ck.plan(f))
                    .map_err(Failure::error)?;
            }
        }
        Ok(())
    }
}

/// Run the `batch` workload.
pub fn run(ctx: &mut Ctx) -> Result<(), Failure> {
    let mut w = ctx.setups(|ctx, _| {
        let tuples = if ctx.cfg.small { 2_000 } else { 20_000 };
        let db = table1_db(tuples, ctx.cfg.seed);
        let battery = table1_battery();
        let dir = ctx.cfg.work_dir.join("batch");
        let _ = std::fs::remove_dir_all(&dir);
        let spec_path = write_project(&db, &battery, &dir).map_err(Failure::error)?;
        let verdicts = ctx.tr.span("sql.check", || sql_reference(&db, &battery))?;
        let mut ref_ck = Checker::new(db, CheckerOptions::default());
        let mut reference = Vec::new();
        for ((_, f), holds) in battery.iter().zip(verdicts) {
            let rows = if holds {
                0
            } else {
                ref_ck.find_violations(f).map_err(Failure::error)?.0.len()
            };
            reference.push((holds, rows));
        }
        drop(ref_ck);
        let store_dir = dir.join("index-cache");
        let mut w = Batch {
            dir,
            spec_path,
            store_dir,
            battery,
            reference,
            last: None,
            last_rungs: Vec::new(),
            main_ops: 0,
            exact: Vec::new(),
        };
        // Fill the store the way a first `relcheck run --index-cache`
        // does: warm start (all misses, so every index is built) and
        // write back.
        let was_on = ctx.tr.on();
        ctx.tr.set_on(false);
        let (_, mut ck) = w.load(&mut ctx.tr)?;
        let mut store = IndexStore::open(&w.store_dir).map_err(Failure::error)?;
        store.warm_start(&mut ck).map_err(Failure::error)?;
        store.write_back(&mut ck).map_err(Failure::error)?;
        drop(ck);
        // Warm-up: one op of each kind, untimed.
        w.op(false, &mut ctx.tr)?;
        w.op(true, &mut ctx.tr)?;
        ctx.tr.set_on(was_on);
        w.main_ops = 0;
        w.exact.clear();
        Ok(w)
    })?;
    serial_loop(ctx, &mut w);
    for ((name, _), m) in w.battery.iter().zip(&w.last_rungs) {
        w.exact.push((format!("rung.{name}"), rung(*m).to_owned()));
    }
    ctx.out.exact.append(&mut w.exact);
    if let Some(ck) = &w.last {
        ctx.out.layers.push((
            "index.live_nodes".to_owned(),
            ck.logical_db().index_size() as f64,
        ));
    }
    let _ = std::fs::remove_dir_all(&w.dir);
    Ok(())
}

//! Update-stream re-validation — the paper's motivating scenario, measured.
//!
//! "Databases however are primarily dynamic… Being able to identify
//! constraints that are violated within and across tables is highly
//! important." This binary quantifies the full workflow the paper argues
//! for: a constraint battery is re-validated after every batch of updates,
//! comparing
//!
//! * **SQL recheck** — run every constraint's violation query per batch
//!   (the traditional approach);
//! * **BDD recheck** — incremental index maintenance + full BDD
//!   re-identification per batch;
//! * **BDD + registry** — ditto, but only constraints reading an updated
//!   relation are re-checked (cached verdicts otherwise).
//!
//! Flags: `--rows N` (customer rows, default 200000), `--batches N`
//! (default 20), `--batch-size N` (updates per batch, default 100).

use relcheck_bench::{arg_usize, ms, Table};
use relcheck_core::checker::{Checker, CheckerOptions};
use relcheck_core::registry::ConstraintRegistry;
use relcheck_datagen::customer::{generate, CustomerConfig};
use relcheck_datagen::rng::SplitMix64;
use relcheck_logic::{parse, Formula};
use relcheck_relstore::{Database, Relation, Schema};
use std::time::{Duration, Instant};

fn build_db(rows: usize) -> (Database, Vec<u64>) {
    let data = generate(&CustomerConfig {
        rows,
        dom_sizes: [100, 889, 2000, 40, 3000],
        violation_rate: 0.0,
        seed: 11,
    });
    let mut db = Database::new();
    for (class, size) in [
        ("areacode", data.dom_sizes[0]),
        ("city", data.dom_sizes[2]),
        ("state", data.dom_sizes[3]),
    ] {
        db.ensure_class_size(class, size);
    }
    let ncs = Relation::from_rows(
        Schema::new(&[
            ("areacode", "areacode"),
            ("city", "city"),
            ("state", "state"),
        ]),
        data.relation.rows().map(|r| vec![r[0], r[2], r[3]]),
    )
    .unwrap();
    db.insert_relation("CUST", ncs).unwrap();
    let cs: Vec<Vec<u32>> = (0..data.dom_sizes[2] as u32)
        .map(|c| vec![c, data.city_state[c as usize]])
        .collect();
    db.insert_relation(
        "CITY_STATE",
        Relation::from_rows(Schema::new(&[("city", "city"), ("state", "state")]), cs).unwrap(),
    )
    .unwrap();
    (
        db,
        vec![data.dom_sizes[0], data.dom_sizes[2], data.dom_sizes[3]],
    )
}

fn constraints() -> Vec<(String, Formula)> {
    [
        (
            "reference-agrees",
            "forall a, c, s, s2. CUST(a, c, s) & CITY_STATE(c, s2) -> s = s2",
        ),
        (
            "city-determines-state",
            "forall a1, c, s1, a2, s2. CUST(a1, c, s1) & CUST(a2, c, s2) -> s1 = s2",
        ),
        (
            "areacode-determines-state",
            "forall a, c1, s1, c2, s2. CUST(a, c1, s1) & CUST(a, c2, s2) -> s1 = s2",
        ),
        (
            "cities-are-known",
            "forall a, c, s. CUST(a, c, s) -> exists s2. CITY_STATE(c, s2)",
        ),
        // Reads only the (static) reference table: a registry cache hit on
        // every batch.
        (
            "reference-is-functional",
            "forall c, s1, s2. CITY_STATE(c, s1) & CITY_STATE(c, s2) -> s1 = s2",
        ),
    ]
    .into_iter()
    .map(|(n, s)| (n.to_owned(), parse(s).unwrap()))
    .collect()
}

/// Random insert/delete pairs against CUST (restoring rows so the dataset
/// doesn't drift and all three runs see identical work).
fn apply_batch(ck: &mut Checker, rng: &mut SplitMix64, dom: &[u64], size: usize) {
    for _ in 0..size {
        let row = [
            rng.gen_range(0..dom[0]) as u32,
            rng.gen_range(0..dom[1]) as u32,
            rng.gen_range(0..dom[2]) as u32,
        ];
        let fresh = ck.logical_db_mut().insert_tuple("CUST", &row).unwrap();
        if fresh {
            ck.logical_db_mut().delete_tuple("CUST", &row).unwrap();
        }
    }
}

fn main() {
    let rows = arg_usize("--rows", 200_000);
    let batches = arg_usize("--batches", 20);
    let batch_size = arg_usize("--batch-size", 100);
    let cs = constraints();
    println!(
        "Dynamic re-validation: {} constraints, {batches} batches x {batch_size} updates, {rows} rows\n",
        cs.len()
    );

    let mut table = Table::new(&[
        "strategy",
        "maintain/batch (ms)",
        "validate/batch (ms)",
        "total (ms)",
    ]);
    // Verdicts per strategy; all three must agree batch-by-batch.
    let mut verdict_log: Vec<Vec<bool>> = Vec::new();

    // --- SQL recheck per batch ---
    {
        let (db, dom) = build_db(rows);
        let mut ck = Checker::new(db, CheckerOptions::default());
        let mut rng = SplitMix64::seed_from_u64(5);
        let (mut t_upd, mut t_val) = (Duration::ZERO, Duration::ZERO);
        for _ in 0..batches {
            let t0 = Instant::now();
            apply_batch(&mut ck, &mut rng, &dom, batch_size);
            t_upd += t0.elapsed();
            let t0 = Instant::now();
            let mut vs = Vec::new();
            for (_, f) in &cs {
                vs.push(ck.check_sql(f).unwrap().holds);
            }
            t_val += t0.elapsed();
            verdict_log.push(vs);
        }
        table.row(&[
            "SQL recheck".into(),
            ms(t_upd / batches as u32),
            ms(t_val / batches as u32),
            ms(t_upd + t_val),
        ]);
    }

    // --- BDD recheck per batch ---
    {
        let (db, dom) = build_db(rows);
        let opts = CheckerOptions {
            gc_between_checks: false,
            ..Default::default()
        };
        let mut ck = Checker::new(db, opts);
        for rel in ["CUST", "CITY_STATE"] {
            ck.ensure_index(rel).unwrap();
        }
        let mut rng = SplitMix64::seed_from_u64(5);
        let (mut t_upd, mut t_val) = (Duration::ZERO, Duration::ZERO);
        #[allow(clippy::needless_range_loop)] // batch indexes verdict_log and times
        for batch in 0..batches {
            let t0 = Instant::now();
            apply_batch(&mut ck, &mut rng, &dom, batch_size);
            t_upd += t0.elapsed();
            let t0 = Instant::now();
            let mut vs = Vec::new();
            for (_, f) in &cs {
                vs.push(ck.check(f).unwrap().holds);
            }
            t_val += t0.elapsed();
            assert_eq!(vs, verdict_log[batch], "BDD vs SQL verdicts");
            // Reclaim scratch occasionally; sweeping every batch would
            // throw away the operation cache that makes re-identification
            // cheap.
            if batch % 8 == 7 {
                ck.logical_db_mut().gc();
            }
        }
        table.row(&[
            "BDD recheck".into(),
            ms(t_upd / batches as u32),
            ms(t_val / batches as u32),
            ms(t_upd + t_val),
        ]);
    }

    // --- BDD + dependency registry ---
    {
        let (db, dom) = build_db(rows);
        let opts = CheckerOptions {
            gc_between_checks: false,
            ..Default::default()
        };
        let mut ck = Checker::new(db, opts);
        for rel in ["CUST", "CITY_STATE"] {
            ck.ensure_index(rel).unwrap();
        }
        let mut reg = ConstraintRegistry::new();
        for (n, f) in &cs {
            reg.register(n, f.clone());
        }
        reg.validate_all(&mut ck).unwrap();
        let mut rng = SplitMix64::seed_from_u64(5);
        let (mut t_upd, mut t_val) = (Duration::ZERO, Duration::ZERO);
        #[allow(clippy::needless_range_loop)] // batch indexes verdict_log and times
        for batch in 0..batches {
            let t0 = Instant::now();
            apply_batch(&mut ck, &mut rng, &dom, batch_size);
            t_upd += t0.elapsed();
            let t0 = Instant::now();
            let verdicts = reg.revalidate(&mut ck, &["CUST"]).unwrap();
            let vs: Vec<bool> = verdicts.iter().map(|(_, v)| v.holds()).collect();
            t_val += t0.elapsed();
            assert_eq!(vs, verdict_log[batch], "registry vs SQL verdicts");
            if batch % 8 == 7 {
                ck.logical_db_mut().gc();
            }
        }
        table.row(&[
            "BDD + registry".into(),
            ms(t_upd / batches as u32),
            ms(t_val / batches as u32),
            ms(t_upd + t_val),
        ]);
    }

    table.print();

    println!(
        "\nExpected shape: per-update maintenance is microseconds either way (SQL keeps a\n\
         hash index, the BDD updates incrementally); the validation column is where the\n\
         logical index pays — identification on warm canonical BDDs costs microseconds\n\
         per constraint while SQL re-joins the relation every batch, and the registry\n\
         additionally skips constraints whose relations did not change."
    );
}

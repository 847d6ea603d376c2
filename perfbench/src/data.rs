//! Seeded inputs: the Table 1 database (R1/R2 plus the curriculum schema)
//! and the customer database, their constraint batteries, and the CSV +
//! spec rendering the batch workload feeds to the `relcheck run` path.

use relcheck::datagen::curriculum::{populate, CurriculumConfig};
use relcheck::datagen::customer::{generate, CustomerConfig};
use relcheck::datagen::gen_kprod;
use relcheck::datagen::rng::SplitMix64;
use relcheck::logic::{parse, Formula};
use relcheck::relstore::{Database, Raw, Relation, Schema};
use relcheck_bench::queries;
use std::fmt::Write as _;
use std::path::Path;

/// Named constraints, in check order.
pub type Battery = Vec<(String, Formula)>;

/// R1's structure seed: the legacy `table1` experiment's (`BENCH_table1.json`,
/// seed 77). R1's random product structure — attribute domain sizes and
/// the partition into factors — moves the battery's cost 2.5× from one
/// seed to the next (≈35 against ≈87 ms on the reference host), so it is
/// held fixed and the workload seed draws the rest of the data.
pub const R1_STRUCTURE_SEED: u64 = 77;

/// The customer model's seed: the legacy `par_scaling`/`dynamic`
/// experiments' (seed 11). The model (each city's and area code's state)
/// sets the FD checks' BDD sizes, so it is held fixed and the workload
/// seed draws which rows violate it.
pub const CUSTOMER_MODEL_SEED: u64 = 11;

/// The Table 1 database at `tuples` R1 tuples: R1 from the legacy
/// generator and structure seed, R2 its `(v0, v1)` projection crossed with
/// `u ∈ {0, 1}` (so Q4 holds), and the curriculum schema drawn from
/// `seed` (which students are CS, what they take, which 3 violate Q5).
pub fn table1_db(tuples: usize, seed: u64) -> Database {
    let g1 = gen_kprod(5, 100, tuples, 1, R1_STRUCTURE_SEED);
    let mut db = Database::new();
    for i in 0..5 {
        db.ensure_class_size(&format!("a{i}"), 100);
    }
    db.ensure_class_size("u", 16);
    let r1_rows: Vec<Vec<u32>> = g1.relation.rows().collect();
    let r2_rows: Vec<Vec<u32>> = r1_rows
        .iter()
        .flat_map(|r| (0..2u32).map(move |u| vec![r[0], r[1], u]))
        .collect();
    let r1 = Schema::new(&[
        ("v0", "a0"),
        ("v1", "a1"),
        ("v2", "a2"),
        ("v3", "a3"),
        ("v4", "a4"),
    ]);
    let r2 = Schema::new(&[("v0", "a0"), ("v1", "a1"), ("u", "u")]);
    db.put_relation("R1", sorted(r1, r1_rows));
    db.put_relation("R2", sorted(r2, r2_rows));
    populate(
        &mut db,
        &CurriculumConfig {
            students: (tuples / 20).max(100),
            violating_students: 3,
            seed,
            ..Default::default()
        },
    );
    canonical(db)
}

/// Q1–Q5 (see `relcheck_bench::queries`).
pub fn table1_battery() -> Battery {
    queries::queries()
        .into_iter()
        .map(|(n, q)| (n.to_owned(), q))
        .collect()
}

/// A relation with its rows in sorted order. Generators collect rows in
/// hash sets, whose iteration order differs from process to process; the
/// order rows reach the index builder (and CSV code assignment) moves the
/// BDD op counts, so every relation is stored sorted.
fn sorted(schema: Schema, mut rows: Vec<Vec<u32>>) -> Relation {
    rows.sort_unstable();
    rows.dedup();
    Relation::from_rows(schema, rows).expect("rows match their schema")
}

/// `db` with every relation's rows sorted (codes are already canonical:
/// each generator interns values in a seed-determined order).
fn canonical(mut db: Database) -> Database {
    let names: Vec<String> = db.relation_names().map(str::to_owned).collect();
    for name in names {
        let rel = db.relation(&name).expect("listed relation exists");
        let rel = sorted(rel.schema().clone(), rel.rows().collect());
        db.put_relation(&name, rel);
    }
    db
}

/// The customer database of the legacy `par_scaling`/`dynamic`
/// experiments: `CUST(areacode, city, state)` projected from `rows`
/// generated customer rows (duplicates collapse, so 100k rows leave ≈4.8k
/// tuples) plus the `CITY_STATE` reference table. The model is the legacy
/// one; `seed` picks the `violation_rate` share of rows whose state (and
/// area code, drawn from the new state's) is scrambled, as the generator
/// itself does. Classes are dense integers (`code == value`), so protocol
/// deltas can name values directly.
pub fn customer_db(rows: usize, violation_rate: f64, seed: u64) -> Database {
    let data = generate(&CustomerConfig {
        rows,
        dom_sizes: [100, 889, 2000, 40, 3000],
        violation_rate: 0.0,
        seed: CUSTOMER_MODEL_SEED,
    });
    let mut rng = SplitMix64::seed_from_u64(seed);
    let n_state = data.dom_sizes[3];
    let cust_rows: Vec<Vec<u32>> = data
        .relation
        .rows()
        .map(|r| {
            let (mut areacode, mut state) = (r[0], r[3]);
            if rng.gen_bool(violation_rate) {
                state = rng.gen_range(0..n_state) as u32;
                let acs = &data.state_areacodes[state as usize];
                areacode = acs[rng.gen_range(0..acs.len() as u64) as usize];
            }
            vec![areacode, r[2], state]
        })
        .collect();
    let mut db = Database::new();
    for (class, size) in [
        ("areacode", data.dom_sizes[0]),
        ("city", data.dom_sizes[2]),
        ("state", data.dom_sizes[3]),
    ] {
        db.ensure_class_size(class, size);
    }
    let cust = Schema::new(&[
        ("areacode", "areacode"),
        ("city", "city"),
        ("state", "state"),
    ]);
    db.put_relation("CUST", sorted(cust, cust_rows));
    let cs: Vec<Vec<u32>> = (0..data.dom_sizes[2] as u32)
        .map(|c| vec![c, data.city_state[c as usize]])
        .collect();
    let city_state = Schema::new(&[("city", "city"), ("state", "state")]);
    db.put_relation("CITY_STATE", sorted(city_state, cs));
    db
}

/// The five-constraint customer battery of the legacy `par_scaling` and
/// `dynamic` experiments.
pub fn customer_battery() -> Battery {
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
        (
            "reference-is-functional",
            "forall c, s1, s2. CITY_STATE(c, s1) & CITY_STATE(c, s2) -> s1 = s2",
        ),
    ]
    .into_iter()
    .map(|(n, s)| (n.to_owned(), parse(s).expect("battery formulas parse")))
    .collect()
}

/// Write every relation of `db` as `<NAME>.csv` under `dir`, plus a
/// `checks.spec` declaring the tables and `battery`. Returns the spec path.
pub fn write_project(db: &Database, battery: &Battery, dir: &Path) -> std::io::Result<String> {
    std::fs::create_dir_all(dir)?;
    let mut names: Vec<&str> = db.relation_names().collect();
    names.sort_unstable();
    let mut spec = String::new();
    for name in names {
        let rel = db.relation(name).expect("listed relation exists");
        let mut csv = String::new();
        for i in 0..rel.len() {
            let row = rel.row(i);
            let fields: Vec<String> = db
                .decode_row(rel, &row)
                .into_iter()
                .map(|v| match v {
                    Raw::Int(i) => i.to_string(),
                    Raw::Str(s) => format!("\"{s}\""),
                })
                .collect();
            csv.push_str(&fields.join(","));
            csv.push('\n');
        }
        std::fs::write(dir.join(format!("{name}.csv")), csv)?;
        let cols: Vec<String> = rel
            .schema()
            .columns()
            .iter()
            .map(|c| format!("{}:{}", c.name, c.class))
            .collect();
        writeln!(
            spec,
            "table {name} from {name}.csv with {}",
            cols.join(", ")
        )
        .expect("writing to a String");
    }
    for (name, f) in battery {
        writeln!(spec, "constraint {name}: {f}").expect("writing to a String");
    }
    let path = dir.join("checks.spec");
    std::fs::write(&path, spec)?;
    Ok(path.to_string_lossy().into_owned())
}

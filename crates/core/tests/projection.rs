//! Early projection of atom-local variables on the check path.
//!
//! A stripped leading-block variable that occurs once, in an atom of the
//! body's top-level conjunction, has its column projected away on the
//! index's own domains before the atom is renamed into query domains.
//! Two families pin it:
//!
//! * **Differential** — random conjunctive ∀ and ∃ constraints (repeated
//!   variables `T(x, x)`, constants in and out of the active domain,
//!   variables shared with `=`/`!=`/`in` conjuncts, ∃ nested under ∀, empty
//!   relations) must get the same verdict from [`Checker::check`] on the
//!   BDD rung, from the naive-join BDD variant, from the SQL path and from
//!   the brute-force evaluator.
//! * **Regression guard** — the customer FD `areacode-determines-state`
//!   stays on the BDD rung under a node budget that the unprojected
//!   self-join outgrows, and witness enumeration (which projects like the
//!   check, then conjoins the projected atoms back in whole) still counts
//!   the same violations, within the budget and with the check's column
//!   use.

use relcheck_core::checker::{Checker, CheckerOptions, Method};
use relcheck_core::PlanOptions;
use relcheck_datagen::customer::{generate, CustomerConfig};
use relcheck_datagen::SplitMix64;
use relcheck_logic::eval::eval_sentence;
use relcheck_logic::{parse, Formula};
use relcheck_relstore::{Database, Raw, Relation, Schema};

/// Attribute classes and their active-domain sizes.
const CLASSES: [(&str, u64); 3] = [("k1", 4), ("k2", 3), ("k3", 3)];
/// Relations as `(name, column classes)`; `T` has two columns of one class
/// so the generator can repeat a variable inside an atom.
const RELS: [(&str, [usize; 2]); 3] = [("R", [0, 1]), ("S", [1, 2]), ("T", [0, 0])];
/// Outer (∀ / ∃-prefix) variables per class.
const POOL: [&[&str]; 3] = [&["x1", "x2", "x3"], &["y1", "y2"], &["z1", "z2"]];
/// The variable a nested ∃ binds, per class (never an outer variable).
const INNER: [&str; 3] = ["u1", "v1", "w1"];

fn random_db(rng: &mut SplitMix64) -> Database {
    let mut db = Database::new();
    for (class, size) in CLASSES {
        db.ensure_class_size(class, size);
    }
    for (name, cols) in RELS {
        let n = if rng.gen_bool(0.2) {
            0
        } else {
            rng.gen_range(1..8usize)
        };
        let rows = (0..n)
            .map(|_| {
                cols.iter()
                    .map(|&k| Raw::Int(rng.gen_range(0..CLASSES[k].1) as i64))
                    .collect()
            })
            .collect();
        db.create_relation(
            name,
            &[("c0", CLASSES[cols[0]].0), ("c1", CLASSES[cols[1]].0)],
            rows,
        )
        .unwrap();
    }
    db
}

/// Random constraint text over [`RELS`] and [`POOL`].
struct Gen<'r> {
    rng: &'r mut SplitMix64,
    /// Outer variables placed in an atom so far, with their class.
    used: Vec<(&'static str, usize)>,
}

impl Gen<'_> {
    fn constant(&mut self, class: usize) -> String {
        // One constant in five lies outside the active domain.
        if self.rng.gen_bool(0.2) {
            "9".to_owned()
        } else {
            self.rng.gen_range(0..CLASSES[class].1).to_string()
        }
    }

    fn outer_var(&mut self, class: usize) -> &'static str {
        let pool = POOL[class];
        let v = pool[self.rng.gen_range(0..pool.len())];
        if !self.used.contains(&(v, class)) {
            self.used.push((v, class));
        }
        v
    }

    /// An atom whose arguments are outer variables or constants; `inner`
    /// puts the nested ∃ variable at one position of its class.
    fn atom(&mut self, inner: Option<usize>) -> String {
        let (name, cols) = match inner {
            Some(class) => {
                let fits: Vec<_> = RELS.iter().filter(|(_, c)| c.contains(&class)).collect();
                *fits[self.rng.gen_range(0..fits.len())]
            }
            None => RELS[self.rng.gen_range(0..RELS.len())],
        };
        let inner_at = inner.map(|class| {
            let at: Vec<usize> = (0..2).filter(|&i| cols[i] == class).collect();
            at[self.rng.gen_range(0..at.len())]
        });
        let args: Vec<String> = (0..2)
            .map(|i| {
                if inner_at == Some(i) {
                    INNER[cols[i]].to_owned()
                } else if self.rng.gen_bool(0.15) {
                    self.constant(cols[i])
                } else {
                    self.outer_var(cols[i]).to_owned()
                }
            })
            .collect();
        format!("{name}({})", args.join(", "))
    }

    /// A comparison or set-membership conjunct over variables already
    /// placed in atoms (so every variable keeps an inferable sort).
    fn filter(&mut self) -> Option<String> {
        if self.used.is_empty() {
            return None;
        }
        let (v, class) = self.used[self.rng.gen_range(0..self.used.len())];
        let peers: Vec<&str> = self
            .used
            .iter()
            .filter(|&&(w, k)| k == class && w != v)
            .map(|&(w, _)| w)
            .collect();
        Some(match self.rng.gen_range(0..4usize) {
            0 if !peers.is_empty() => format!("{v} = {}", peers[0]),
            1 if !peers.is_empty() => format!("{v} != {}", peers[0]),
            2 => {
                let a = self.constant(class);
                let b = self.constant(class);
                format!("{v} in {{{a}, {b}}}")
            }
            _ => format!("{v} = {}", self.constant(class)),
        })
    }

    /// One to three atoms plus up to two filters.
    fn conjunction(&mut self) -> String {
        let mut parts: Vec<String> = (0..self.rng.gen_range(1..=3usize))
            .map(|_| self.atom(None))
            .collect();
        for _ in 0..self.rng.gen_range(0..=2usize) {
            parts.extend(self.filter());
        }
        parts.join(" & ")
    }

    /// The consequent of a ∀ constraint: a denial, a comparison, an atom,
    /// or an ∃ nested under the ∀ (the Q4/Q5 shapes).
    fn conclusion(&mut self) -> String {
        match self.rng.gen_range(0..4usize) {
            0 => "false".to_owned(),
            1 => self.filter().unwrap_or_else(|| "false".to_owned()),
            2 => self.atom(None),
            _ => {
                let class = self.rng.gen_range(0..CLASSES.len());
                let mut body = self.atom(Some(class));
                if self.rng.gen_bool(0.5) {
                    body = format!("{body} & {}", self.atom(Some(class)));
                }
                if self.rng.gen_bool(0.3) {
                    let c = self.constant(class);
                    body = format!("{body} & {} != {c}", INNER[class]);
                }
                format!("exists {}. {body}", INNER[class])
            }
        }
    }

    /// A closed constraint: every free variable of the matrix is bound by
    /// the leading block (∀ over an implication, or ∃ over a conjunction).
    fn sentence(&mut self) -> Formula {
        self.used.clear();
        let (quant, matrix) = if self.rng.gen_bool(0.7) {
            let premise = self.conjunction();
            ("forall", format!("{premise} -> {}", self.conclusion()))
        } else {
            ("exists", self.conjunction())
        };
        let free = parse(&matrix).unwrap().free_vars();
        if free.is_empty() {
            return parse(&matrix).unwrap();
        }
        parse(&format!("{quant} {}. ({matrix})", free.join(", "))).unwrap()
    }
}

/// Does some bound variable occur exactly once, inside an atom? A proxy
/// for "the check path has an atom-local variable to project".
fn has_single_use_atom_var(f: &Formula) -> bool {
    let text = f.to_string();
    let idents: Vec<&str> = text
        .split(|c: char| !c.is_ascii_alphanumeric())
        .filter(|s| !s.is_empty())
        .collect();
    POOL.iter()
        .flat_map(|p| p.iter())
        .any(|v| idents.iter().filter(|&&s| s == *v).count() == 2) // binder + one use
}

#[test]
fn projected_checks_agree_with_sql_and_brute_force() {
    let mut rng = SplitMix64::seed_from_u64(0x5EED_2007);
    let (mut checked, mut with_local) = (0usize, 0usize);
    for round in 0..40 {
        let db = random_db(&mut rng);
        let mut ck = Checker::new(db.clone(), CheckerOptions::default());
        let mut naive = Checker::new(
            db.clone(),
            CheckerOptions {
                plan: PlanOptions {
                    join_rename: false,
                    ..PlanOptions::default()
                },
                ..Default::default()
            },
        );
        let mut sql = Checker::new(db.clone(), CheckerOptions::default());
        let mut gen = Gen {
            rng: &mut rng,
            used: Vec::new(),
        };
        for _ in 0..15 {
            let f = gen.sentence();
            let want = eval_sentence(&db, &f).unwrap();
            let ctx = format!("round {round}: {f}");
            let got = ck.check(&f).unwrap();
            assert_eq!(got.method, Method::Bdd, "{ctx}");
            assert_eq!(got.holds, want, "{ctx}: BDD vs brute force");
            let got = naive.check(&f).unwrap();
            assert_eq!(got.holds, want, "{ctx}: naive-join BDD vs brute force");
            let got = sql.check_sql(&f).unwrap();
            assert_eq!(got.holds, want, "{ctx}: SQL vs brute force");
            checked += 1;
            with_local += has_single_use_atom_var(&f) as usize;
        }
    }
    // The generator must actually produce projectable shapes.
    assert!(
        with_local * 4 >= checked,
        "only {with_local} of {checked} constraints have a single-use atom variable"
    );
}

const AREACODE_DETERMINES_STATE: &str =
    "forall a, c1, s1, c2, s2. CUST(a, c1, s1) & CUST(a, c2, s2) -> s1 = s2";

/// 20k generated customer rows (≈3.3k CUST tuples) with the model sizes
/// of the benchmark's customer workload.
fn customer_db() -> Database {
    let data = generate(&CustomerConfig {
        rows: 20_000,
        dom_sizes: [100, 889, 2000, 40, 3000],
        violation_rate: 0.01,
        seed: 23,
    });
    let mut db = Database::new();
    for (class, size) in [
        ("areacode", data.dom_sizes[0]),
        ("city", data.dom_sizes[2]),
        ("state", data.dom_sizes[3]),
    ] {
        db.ensure_class_size(class, size);
    }
    let cust = Relation::from_rows(
        Schema::new(&[
            ("areacode", "areacode"),
            ("city", "city"),
            ("state", "state"),
        ]),
        data.relation.rows().map(|r| vec![r[0], r[2], r[3]]),
    )
    .unwrap();
    db.insert_relation("CUST", cust).unwrap();
    db
}

#[test]
fn areacode_fd_stays_on_bdd_rung_under_a_tight_budget() {
    let db = customer_db();
    let f = parse(AREACODE_DETERMINES_STATE).unwrap();
    // On this fixture a fresh checker needs 14.1k live nodes for the check
    // with the unshared columns (c1, c2) projected first, and 48.2k when
    // both CUST copies are renamed whole. 30k sits between the two.
    let mut tight = Checker::new(
        db.clone(),
        CheckerOptions {
            node_limit: Some(30_000),
            ..Default::default()
        },
    );
    let report = tight.check(&f).unwrap();
    assert_eq!(
        report.method,
        Method::Bdd,
        "the FD must not need the ladder"
    );
    assert!(!report.holds, "the fixture's scrambled rows break the FD");

    // Witness enumeration recovers the full violation set from the
    // projected one: the count is the one measured before projection
    // existed.
    let mut ck = Checker::new(
        db,
        CheckerOptions {
            node_limit: None,
            ..Default::default()
        },
    );
    let counted = ck
        .find_violations_counted(&f, 10)
        .unwrap()
        .expect("unlimited budget");
    assert_eq!(counted.total, 7326.0);
    assert_eq!(counted.vars, ["a", "c1", "s1", "c2", "s2"]);
}

#[test]
fn fd_projection_answers_from_sql_when_the_budget_aborts_it() {
    // areacode → state on CUST: the index fits, its two projections do not.
    let mut ck = Checker::new(customer_db(), CheckerOptions::default());
    assert!(ck.ensure_index("CUST").unwrap());
    let before = ck.logical_db().manager().live_nodes();
    ck.logical_db_mut()
        .manager_mut()
        .set_node_limit(Some(before + 100));
    let want = ck.check_fd_sql("CUST", &[0], &[2]).unwrap();
    assert!(!want, "the fixture's scrambled rows break the FD");
    assert_eq!(ck.check_fd_bdd("CUST", &[0], &[2]).unwrap(), want);
    assert!(ck.logical_db().manager().live_nodes() <= before);
}

#[test]
fn certify_order_witnesses_fit_the_fallback_budget() {
    // The certify order: check, then enumerate. The witness step hits the
    // check's projected atoms in the atom cache and only adds the whole
    // atoms back, so it peaks below the unprojected compile's 48,433.
    let f = parse(AREACODE_DETERMINES_STATE).unwrap();
    let mut ck = Checker::new(
        customer_db(),
        CheckerOptions {
            node_limit: Some(50_000),
            ..Default::default()
        },
    );
    assert!(!ck.check(&f).unwrap().holds);
    let counted = ck
        .find_violations_counted(&f, 10)
        .unwrap()
        .expect("within the budget");
    assert_eq!(counted.total, 7326.0);
    let peak = ck.logical_db().manager().stats().peak_nodes;
    assert!(peak <= 48_433, "witness peak {peak}");
}

#[test]
fn a_budget_abort_in_the_witness_recovery_yields_none() {
    // 30k fits the projected check (and the witness step's projected
    // compile, served from its atoms) but not the whole atoms conjoined
    // back in: the abort surfaces as "no BDD witnesses", not as an error.
    let f = parse(AREACODE_DETERMINES_STATE).unwrap();
    let mut ck = Checker::new(
        customer_db(),
        CheckerOptions {
            node_limit: Some(30_000),
            ..Default::default()
        },
    );
    assert!(!ck.check(&f).unwrap().holds);
    let live = ck.logical_db().manager().live_nodes();
    assert!(ck.find_violations_counted(&f, 10).unwrap().is_none());
    assert!(ck.logical_db().manager().live_nodes() <= live);
}

#[test]
fn witnesses_record_the_same_column_use_as_the_check() {
    // The witness step compiles each projected atom a second time, whole;
    // that compile must not feed the adaptive ordering again.
    let city_determines_state =
        "forall a1, c, s1, a2, s2. CUST(a1, c, s1) & CUST(a2, c, s2) -> s1 = s2";
    for src in [AREACODE_DETERMINES_STATE, city_determines_state] {
        let f = parse(src).unwrap();
        let mut ck = Checker::new(customer_db(), CheckerOptions::default());
        let weights = |ck: &Checker| {
            let w = ck.logical_db().column_weights("CUST");
            w.map_or(vec![0; 3], <[u64]>::to_vec)
        };
        let w0 = weights(&ck);
        ck.check(&f).unwrap();
        let w1 = weights(&ck);
        ck.find_violations_counted(&f, 10)
            .unwrap()
            .expect("no budget");
        let w2 = weights(&ck);
        let delta =
            |a: &[u64], b: &[u64]| -> Vec<u64> { a.iter().zip(b).map(|(x, y)| y - x).collect() };
        assert_eq!(delta(&w1, &w2), delta(&w0, &w1), "{src}");
        assert!(delta(&w0, &w1).iter().any(|&d| d > 0), "{src}");
    }
}

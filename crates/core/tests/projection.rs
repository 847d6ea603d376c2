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
//!
//! An inner `∃x̄. R(…)` that uses each bound variable once in its one atom
//! is compiled the same way: as the atom with those columns projected, an
//! atom-cache entry. Two more families pin that:
//!
//! * **Laws** — on seeded random databases, each inner-∃ shape (one
//!   variable, a nested chain, a pinned constant beside the projected
//!   column, a variable repeated inside the atom, ∃ under `Or`/`Implies`,
//!   a cached entry patched after deltas) must give the same verdict and
//!   `find_violations_counted` total as the general `app_exists` route.
//!   The route is picked by the formula alone: padding the ∃ body with the
//!   tautology `v = v` makes it a conjunction, which the rule leaves alone.
//!   The reference checker runs with subgraph sharing off.
//! * **Count guard** — on the benchmark's customer model, under its
//!   50,000-node limit, no battery after the warm-up collects, and the
//!   third one creates no node.

use relcheck_core::checker::{Checker, CheckerOptions, Method};
use relcheck_core::index::{apply_actions, AtomAction};
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

/// Attribute classes, relations and constraint templates of the inner-∃
/// laws. `U` and `W` add a third column, so a chain can bind two
/// variables and a constant can sit beside a projected column; `T` and `W`
/// repeat a class, so a bound variable can occur twice in one atom.
const LAW_RELS: [(&str, &[usize]); 5] = [
    ("R", &[0, 1]),
    ("S", &[1, 2]),
    ("T", &[0, 0]),
    ("U", &[0, 1, 2]),
    ("W", &[0, 0, 1]),
];

fn law_db(rng: &mut SplitMix64) -> Database {
    let mut db = Database::new();
    for (class, size) in CLASSES {
        db.ensure_class_size(class, size);
    }
    for (name, cols) in LAW_RELS {
        let n = if rng.gen_bool(0.15) {
            0
        } else {
            rng.gen_range(1..10usize)
        };
        let rows = (0..n)
            .map(|_| {
                cols.iter()
                    .map(|&k| Raw::Int(rng.gen_range(0..CLASSES[k].1) as i64))
                    .collect()
            })
            .collect();
        let schema: Vec<(String, &str)> = cols
            .iter()
            .enumerate()
            .map(|(i, &k)| (format!("c{i}"), CLASSES[k].0))
            .collect();
        let schema: Vec<(&str, &str)> = schema.iter().map(|(c, k)| (c.as_str(), *k)).collect();
        db.create_relation(name, &schema, rows).unwrap();
    }
    db
}

/// One law case: a constraint template whose `{}` is an inner ∃, written
/// as `(binders, atom)`. The projected side fills in `exists binders.
/// atom`, the reference side `exists binders. (atom & v = v)` with `v` the
/// first binder; a `#` in the atom is replaced by a random constant.
struct Law {
    name: &'static str,
    template: &'static str,
    binders: &'static str,
    atom: &'static str,
}

const LAWS: [Law; 8] = [
    Law {
        name: "single",
        template: "forall x, y. R(x, y) -> {}",
        binders: "z",
        atom: "S(y, z)",
    },
    Law {
        name: "single-top",
        template: "forall y, z. S(y, z) -> {}",
        binders: "x",
        atom: "R(x, y)",
    },
    Law {
        name: "chain",
        template: "forall y, z. S(y, z) -> {}",
        binders: "x. exists w",
        atom: "U(x, y, w)",
    },
    Law {
        name: "pinned",
        template: "forall x, y. R(x, y) -> {}",
        binders: "w",
        atom: "U(x, #, w)",
    },
    Law {
        name: "repeated",
        template: "forall x, y. R(x, y) -> {}",
        binders: "u",
        atom: "W(u, u, y)",
    },
    Law {
        name: "repeated-alone",
        template: "forall x, y. R(x, y) -> {}",
        binders: "u",
        atom: "T(u, u)",
    },
    Law {
        name: "under-or",
        template: "forall x, y. R(x, y) -> ({} | T(x, x))",
        binders: "z",
        atom: "S(y, z)",
    },
    Law {
        name: "under-implies",
        template: "forall x. ({} -> T(x, x))",
        binders: "y",
        atom: "R(x, y)",
    },
];

impl Law {
    /// The projected and the padded (reference) constraint, with `#`
    /// replaced by `constant`.
    fn pair(&self, constant: &str) -> (Formula, Formula) {
        let atom = self.atom.replace('#', constant);
        let projected = format!("exists {}. {atom}", self.binders);
        let v = &self.binders[..1];
        let padded = format!("exists {}. ({atom} & {v} = {v})", self.binders);
        let fill = |inner: &str| parse(&self.template.replace("{}", inner)).unwrap();
        (fill(&projected), fill(&padded))
    }

    /// The relation of the ∃ atom.
    fn relation(&self) -> &'static str {
        &self.atom[..1]
    }
}

/// Checkers over `db`: projected (atom sharing on) and reference
/// (sharing off), each with the planner's rewrites on and off. Without
/// rewrites the constraint compiles as written, so the ∃ stays under its
/// `Or`/`Implies` instead of being pulled into the prefix.
fn law_checkers(db: &Database) -> [[Checker; 2]; 2] {
    let options = |rewrites| CheckerOptions {
        plan: PlanOptions {
            rewrites,
            ..PlanOptions::default()
        },
        ..Default::default()
    };
    [true, false].map(|rewrites| {
        let projected = Checker::new(db.clone(), options(rewrites));
        let mut reference = Checker::new(db.clone(), options(rewrites));
        reference.logical_db_mut().set_subgraph_sharing(false);
        [projected, reference]
    })
}

/// Does `ck`'s atom cache hold a current entry for `relation` that
/// projects a column?
fn has_projected_atom(ck: &Checker, relation: &str) -> bool {
    ck.logical_db()
        .fresh_atoms()
        .iter()
        .any(|(rel, actions, _)| {
            *rel == relation && actions.iter().any(|a| matches!(a, AtomAction::Project(_)))
        })
}

/// Check the projected constraint `f` on `projected` and the padded `g` on
/// `reference`: both verdicts must equal `want`, and with the rewrites on
/// the witness totals must be equal.
fn assert_law(
    [projected, reference]: &mut [Checker; 2],
    f: &Formula,
    g: &Formula,
    want: bool,
    ctx: &str,
) {
    let got = projected.check(f).unwrap();
    assert_eq!(got.method, Method::Bdd, "{ctx}");
    assert_eq!(got.holds, want, "{ctx}: projected vs brute force");
    let got = reference.check(g).unwrap();
    assert_eq!(got.holds, want, "{ctx}: app_exists route vs brute force");
    if projected.options().plan.rewrites {
        let total = |ck: &mut Checker, f: &Formula| {
            ck.find_violations_counted(f, 10)
                .unwrap()
                .map(|v| (v.total, v.vars))
        };
        let (p, r) = (total(projected, f), total(reference, g));
        assert_eq!(p, r, "{ctx}: witness totals");
        if !want {
            assert!(p.is_some_and(|(t, _)| t >= 1.0), "{ctx}: no witness");
        }
    }
}

#[test]
fn inner_exists_projection_matches_the_app_exists_route() {
    let mut rng = SplitMix64::seed_from_u64(0xE715_7A70);
    let mut projected = [0usize; LAWS.len()];
    for round in 0..30 {
        let db = law_db(&mut rng);
        let mut checkers = law_checkers(&db);
        for (k, law) in LAWS.iter().enumerate() {
            let constant = rng.gen_range(0..4u64).to_string();
            let (f, g) = law.pair(&constant);
            let want = eval_sentence(&db, &f).unwrap();
            assert_eq!(
                eval_sentence(&db, &g).unwrap(),
                want,
                "{f}: padding is a tautology"
            );
            for pair in checkers.iter_mut() {
                let ctx = format!(
                    "round {round} {} (rewrites {}): {f}",
                    law.name,
                    pair[0].options().plan.rewrites
                );
                assert_law(pair, &f, &g, want, &ctx);
                projected[k] += has_projected_atom(&pair[0], law.relation()) as usize;
            }
        }
    }
    for (law, n) in LAWS.iter().zip(projected) {
        if law.name.starts_with("repeated") {
            assert_eq!(
                n, 0,
                "{}: a repeated bound variable was projected",
                law.name
            );
        } else {
            assert!(
                n > 0,
                "{}: the ∃ atom was never compiled projected",
                law.name
            );
        }
    }
}

/// Seeded deltas on one law relation: delete existing rows or insert
/// random ones (codes equal values: every class was interned densely).
fn law_deltas(rng: &mut SplitMix64, db: &Database) -> Vec<(bool, &'static str, Vec<u32>)> {
    let (name, cols) = LAW_RELS[rng.gen_range(0..LAW_RELS.len())];
    let rel = db.relation(name).unwrap();
    (0..2)
        .map(|_| {
            if rng.gen_bool(0.5) && !rel.is_empty() {
                return (false, name, rel.row(rng.gen_range(0..rel.len())));
            }
            let row = cols
                .iter()
                .map(|&k| rng.gen_range(0..CLASSES[k].1) as u32)
                .collect();
            (true, name, row)
        })
        .collect()
}

/// The action lists of `ck`'s current atom-cache entries over `U`. Which
/// ones a check uses depends on the relation sizes: the largest relation
/// keeps its columns, so a delta can move `y`'s domain and change the key.
fn u_entries(ck: &Checker) -> Vec<Vec<AtomAction>> {
    ck.logical_db()
        .fresh_atoms()
        .into_iter()
        .filter(|(rel, _, _)| *rel == "U")
        .map(|(_, actions, _)| actions.to_vec())
        .collect()
}

#[test]
fn a_projected_entry_patched_after_deltas_matches_the_app_exists_route() {
    let mut rng = SplitMix64::seed_from_u64(0xDE17_A5ED);
    let chain = LAWS.iter().position(|l| l.name == "chain").unwrap();
    let mut patched = 0;
    for round in 0..20 {
        let db = law_db(&mut rng);
        let [mut pair, _] = law_checkers(&db);
        let laws: Vec<(Formula, Formula)> = LAWS
            .iter()
            .map(|law| law.pair(&rng.gen_range(0..3u64).to_string()))
            .collect();
        for step in 0..6 {
            let u_root = pair[0].logical_db().index("U").map(|i| i.root);
            let stale = u_entries(&pair[0]);
            if step > 0 {
                for (insert, relation, row) in law_deltas(&mut rng, pair[0].logical_db().db()) {
                    for ck in pair.iter_mut() {
                        let ldb = ck.logical_db_mut();
                        if insert {
                            ldb.insert_tuple(relation, &row).unwrap();
                        } else {
                            ldb.delete_tuple(relation, &row).unwrap();
                        }
                    }
                }
            }
            let u_moved = step > 0 && pair[0].logical_db().index("U").map(|i| i.root) != u_root;
            for (k, (law, (f, g))) in LAWS.iter().zip(&laws).enumerate() {
                let want = eval_sentence(pair[0].logical_db().db(), f).unwrap();
                let ctx = format!("round {round} step {step} {}: {f}", law.name);
                let before = pair[0].logical_db().atom_cache_patches();
                assert_law(&mut pair, f, g, want, &ctx);
                // Only U changed, and U occurs only in the chain's ∃: when
                // the chain compiled a U entry it had cached before the
                // deltas, that stale projected entry was patched.
                if k == chain && u_moved && u_entries(&pair[0]).iter().any(|a| stale.contains(a)) {
                    assert!(
                        pair[0].logical_db().atom_cache_patches() > before,
                        "{ctx}: the stale ∃ entry was not patched"
                    );
                    patched += 1;
                }
            }
            // Every cached atom, patched or not, is the node a recompile
            // of its actions on the current root builds.
            let ldb = pair[0].logical_db_mut();
            let fresh: Vec<_> = ldb
                .fresh_atoms()
                .into_iter()
                .map(|(rel, actions, atom)| (rel.to_owned(), actions.to_vec(), atom))
                .collect();
            for (rel, actions, atom) in fresh {
                let root = ldb.index(&rel).unwrap().root;
                let cold = apply_actions(ldb.manager_mut(), root, &actions).unwrap();
                assert_eq!(atom, cold, "round {round} step {step}: {rel} {actions:?}");
            }
        }
    }
    assert!(patched >= 5, "only {patched} deltas moved U");
}

/// The benchmark's customer database (`perfbench` `fallback`): CUST
/// projected from `rows` customer rows of the fixed model (seed 11), with
/// a 0.1% share of rows scrambled by `seed`, plus the CITY_STATE
/// reference table. Codes equal values.
fn benchmark_customer_db(rows: usize, seed: u64) -> Database {
    let data = generate(&CustomerConfig {
        rows,
        dom_sizes: [100, 889, 2000, 40, 3000],
        violation_rate: 0.0,
        seed: 11,
    });
    let mut rng = SplitMix64::seed_from_u64(seed);
    let n_state = data.dom_sizes[3];
    let mut cust: Vec<Vec<u32>> = data
        .relation
        .rows()
        .map(|r| {
            let (mut areacode, mut state) = (r[0], r[3]);
            if rng.gen_bool(0.001) {
                state = rng.gen_range(0..n_state) as u32;
                let acs = &data.state_areacodes[state as usize];
                areacode = acs[rng.gen_range(0..acs.len() as u64) as usize];
            }
            vec![areacode, r[2], state]
        })
        .collect();
    cust.sort_unstable();
    cust.dedup();
    let mut db = Database::new();
    for (class, size) in [
        ("areacode", data.dom_sizes[0]),
        ("city", data.dom_sizes[2]),
        ("state", data.dom_sizes[3]),
    ] {
        db.ensure_class_size(class, size);
    }
    let schema = Schema::new(&[
        ("areacode", "areacode"),
        ("city", "city"),
        ("state", "state"),
    ]);
    db.put_relation("CUST", Relation::from_rows(schema, cust).unwrap());
    let city_state: Vec<Vec<u32>> = (0..data.dom_sizes[2] as u32)
        .map(|c| vec![c, data.city_state[c as usize]])
        .collect();
    let schema = Schema::new(&[("city", "city"), ("state", "state")]);
    db.put_relation(
        "CITY_STATE",
        Relation::from_rows(schema, city_state).unwrap(),
    );
    db
}

/// The benchmark's five-constraint customer battery, in its check order.
const CUSTOMER_BATTERY: [&str; 5] = [
    "forall a, c, s, s2. CUST(a, c, s) & CITY_STATE(c, s2) -> s = s2",
    "forall a1, c, s1, a2, s2. CUST(a1, c, s1) & CUST(a2, c, s2) -> s1 = s2",
    AREACODE_DETERMINES_STATE,
    "forall a, c, s. CUST(a, c, s) -> exists s2. CITY_STATE(c, s2)",
    "forall c, s1, s2. CITY_STATE(c, s1) & CITY_STATE(c, s2) -> s1 = s2",
];

#[test]
fn warm_customer_battery_builds_nothing_and_never_collects() {
    // 100k rows and a 50,000-node limit, as in the benchmark. The
    // garbage allowance is then ≈5.5k nodes. Compiled through
    // `app_exists`, `cities-are-known`'s inner ∃ builds ≈4.3k unrooted
    // nodes per check, so every battery would collect once, and the
    // collection would retire the operation cache the next battery needs.
    let battery: Vec<Formula> = CUSTOMER_BATTERY.iter().map(|s| parse(s).unwrap()).collect();
    let mut ck = Checker::new(
        benchmark_customer_db(100_000, 1),
        CheckerOptions {
            node_limit: Some(50_000),
            ..Default::default()
        },
    );
    for relation in ["CITY_STATE", "CUST"] {
        assert!(ck.ensure_index(relation).unwrap());
    }
    let run_battery = |ck: &mut Checker| {
        let before = ck.logical_db().manager().stats();
        for f in &battery {
            let r = ck.check(f).unwrap();
            assert_eq!(r.method, Method::Bdd, "{f}");
        }
        let after = ck.logical_db().manager().stats();
        (
            after.created_nodes - before.created_nodes,
            after.gc_runs - before.gc_runs,
        )
    };
    // The warm-up compiles every atom cold and collects along the way;
    // its last collection retires the operation cache, so the second
    // battery still rebuilds the FD checks' ≈1.1k nodes.
    run_battery(&mut ck);
    let (_, collections) = run_battery(&mut ck);
    assert_eq!(collections, 0, "the second battery collected");
    let (created, collections) = run_battery(&mut ck);
    assert_eq!(
        (created, collections),
        (0, 0),
        "a warm battery must create no node and never collect"
    );
}

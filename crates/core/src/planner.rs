//! Formula → [`CheckPlan`]: the pure pass manager.
//!
//! This is the front half of the FOL → BDD compiler, structured so
//! the paper's §4.4 rewrite pipeline is a fixed sequence of discrete
//! passes, run together or not at all ([`PlanOptions::rewrites`]), whose
//! effects are recorded in the plan:
//!
//! 1. `prenex-pullup` (R3): quantifier pull-up into prenex normal form;
//! 2. `strip-leading-block` (R1): leading-quantifier-block elimination,
//!    choosing the validity / satisfiability test;
//! 3. `refutation-nnf` (validity only): negate and renormalize, so the BDD
//!    built is the *violation set* rather than a near-complement;
//! 4. `forall-pushdown` (R4 / Rule 5): distribute universal blocks over
//!    conjunctions, **cost-gated** on `relstore::stats` cardinalities;
//! 5. `negation-lift` (validity only): fold a ∀ block whose relational
//!    atoms are all negative back into `¬∃`, so the compiler complements
//!    one projection instead of every negated atom. It is exact by De
//!    Morgan on every domain and adds no atom complement, so it runs
//!    ungated.
//!
//! Nothing here touches a BDD manager: planning is pure and total, which is
//! what makes plans deterministic and `relcheck plan` side-effect free. The
//! back half — [`CheckPlan`] → verdict — lives in [`crate::exec`].
//!
//! [`bdd_step`] is the only place a formula becomes a BDD step: the check,
//! the witness path ([`crate::exec::violations_bdd`]) and
//! [`crate::checker::Checker::explain`] all read the step it builds.

use crate::plan::{
    formula_fingerprint, BddStep, BddTest, CheckPlan, PassRecord, PlanOptions, SqlStep,
};
use crate::sqlgen;
use crate::telemetry::RewriteRule;
use relcheck_logic::transform::{
    eliminate_leading_block, push_forall_down_gated, simplify, standardize_apart, to_nnf,
    to_prenex, CheckMode, PassEffect, Prenex, Quant,
};
use relcheck_logic::{Formula, Term};
use relcheck_relstore::{stats, Database, Relation};

/// The planner's pass names, as plans and check traces report them.
pub mod pass {
    /// R3: quantifier pull-up into prenex normal form.
    pub const PRENEX_PULLUP: &str = "prenex-pullup";
    /// R1: leading-quantifier-block elimination.
    pub const STRIP_LEADING_BLOCK: &str = "strip-leading-block";
    /// Negate and renormalize a validity-test body (no paper rule).
    pub const REFUTATION_NNF: &str = "refutation-nnf";
    /// R4: universal push-down across conjunctions.
    pub const FORALL_PUSHDOWN: &str = "forall-pushdown";
    /// Fold an all-negative ∀ block into `¬∃` (validity only; no paper rule).
    pub const NEGATION_LIFT: &str = "negation-lift";
    /// Every pass, in pipeline order.
    pub const ALL: [&str; 5] = [
        PRENEX_PULLUP,
        STRIP_LEADING_BLOCK,
        REFUTATION_NNF,
        FORALL_PUSHDOWN,
        NEGATION_LIFT,
    ];
}
use std::collections::HashSet;

/// Build the complete [`CheckPlan`] for a constraint: run the rewrite
/// passes (recording each one's effect), prepare the BDD execution step —
/// unless a referenced relation is marked SQL-only — and pre-translate the
/// SQL fallback. `schema_fp` is the caller's environment fingerprint
/// ([`crate::checker::Checker::schema_fingerprint`]); the planner stamps it
/// into the plan so the cache can refuse stale entries.
pub fn plan_check(
    db: &Database,
    f: &Formula,
    options: PlanOptions,
    sql_only: &HashSet<String>,
    schema_fp: u64,
) -> CheckPlan {
    let mut passes = Vec::new();
    let mut atoms = Vec::new();
    collect_atoms(f, &mut atoms);
    // The BDD-vs-SQL routing rule is owned by `policy` (one over-budget
    // relation sinks the whole BDD step); the planner only applies it.
    let route_bdd =
        crate::policy::bdd_route_allowed(atoms.iter().map(|(rel, _)| rel.as_str()), sql_only);
    let bdd = route_bdd.then(|| bdd_step(db, f, options, &mut passes));
    let sql = sqlgen::violation_plan(db, f).map(|translated| SqlStep { translated });
    CheckPlan {
        constraint: f.to_string(),
        constraint_fp: formula_fingerprint(f),
        schema_fp,
        options,
        passes,
        bdd,
        sql,
    }
}

/// Run the rewrite passes on one formula and assemble the prepared BDD
/// step. Appends one [`PassRecord`] per pass that ran (even when it fired
/// zero times — the record is the evidence the pass was consulted).
/// [`crate::exec::execute_bdd`] decides the step.
pub fn bdd_step(
    db: &Database,
    f: &Formula,
    options: PlanOptions,
    passes: &mut Vec<PassRecord>,
) -> BddStep {
    if !options.rewrites {
        // The paper's "straight-forward evaluation" baseline: standardize
        // apart and compile literally, leading quantifiers included.
        let g = standardize_apart(f);
        return BddStep {
            alloc: g.clone(),
            body: g,
            stripped: Vec::new(),
            test: BddTest::Satisfiable,
            join_rename: options.join_rename,
        };
    }
    let p = to_prenex(f);
    let whole = rebuild(&p);
    passes.push(PassRecord {
        pass: pass::PRENEX_PULLUP,
        rule: Some(RewriteRule::R3PrenexPullup),
        fired: p.prefix.len() as u64,
        gated: 0,
        before: f.to_string(),
        after: whole.to_string(),
    });
    let (mode, rest) = eliminate_leading_block(&p);
    let stripped: Vec<String> = p.prefix[..p.prefix.len() - rest.prefix.len()]
        .iter()
        .map(|(_, v)| v.clone())
        .collect();
    let remainder = rebuild(&rest);
    passes.push(PassRecord {
        pass: pass::STRIP_LEADING_BLOCK,
        rule: Some(RewriteRule::R1LeadingBlock),
        fired: stripped.len() as u64,
        gated: 0,
        before: whole.to_string(),
        after: remainder.to_string(),
    });
    let (body, test) = match mode {
        CheckMode::Validity => {
            // Compile the violation set by refutation: ¬body in NNF keeps
            // implication-shaped constraints as small premise ∧ ¬conclusion
            // conjunctions instead of near-complement disjunctions.
            let negated = simplify(&to_nnf(&remainder.clone().not()));
            passes.push(PassRecord {
                pass: pass::REFUTATION_NNF,
                rule: None,
                fired: 1,
                gated: 0,
                before: remainder.to_string(),
                after: negated.to_string(),
            });
            let pushed = apply_pushdown_pass(db, &negated, passes);
            (
                apply_negation_lift_pass(&pushed, passes),
                BddTest::ViolationsEmpty,
            )
        }
        CheckMode::Satisfiability => (
            apply_pushdown_pass(db, &remainder, passes),
            BddTest::Satisfiable,
        ),
    };
    BddStep {
        alloc: whole,
        body,
        stripped,
        test,
        join_rename: options.join_rename,
    }
}

/// Run the cost-gated ∀-push-down pass (Rule 5), simplify, and record its
/// effect.
fn apply_pushdown_pass(db: &Database, f: &Formula, passes: &mut Vec<PassRecord>) -> Formula {
    let mut eff = PassEffect::default();
    let out = push_forall_down_gated(
        f,
        &mut |vs, parts| pushdown_pays_off(db, vs, parts),
        &mut eff,
    );
    let out = simplify(&out);
    passes.push(PassRecord {
        pass: pass::FORALL_PUSHDOWN,
        rule: Some(RewriteRule::R4ForallPushdown),
        fired: eff.fired,
        gated: eff.gated,
        before: f.to_string(),
        after: out.to_string(),
    });
    out
}

/// Run the `negation-lift` pass and record its effect: every outermost
/// `∀ȳ φ` whose relational atoms all occur negatively (and that has at
/// least one) becomes `¬∃ȳ ψ`, with `ψ` the simplified NNF of `¬φ`.
///
/// Refutation NNF pushed each ¬ down to the atoms, so the compiler would
/// complement every negated atom — the whole relation index — and then
/// quantify. Lifted, it builds `∃ȳ ψ` with the fused `app_exists` and
/// complements that projection once. `∀ȳ φ ≡ ¬∃ȳ ¬φ` holds on every
/// domain, empty ones included, and every variable stays confined to its
/// range by its own binder, so the rewrite is exact. It drops the atoms'
/// complements and adds one of the projection `∃ȳ A`. Without complement
/// edges (DESIGN D1) that has as many nodes as the `∀ȳ ¬A` the pushed-down
/// shape built anyway, so it costs more only where `∃ȳ A` is larger than
/// `A` itself: there is no gate and no option.
fn apply_negation_lift_pass(f: &Formula, passes: &mut Vec<PassRecord>) -> Formula {
    let mut fired = 0;
    let out = lift_negation(f, &mut fired);
    passes.push(PassRecord {
        pass: pass::NEGATION_LIFT,
        rule: None,
        fired,
        gated: 0,
        before: f.to_string(),
        after: out.to_string(),
    });
    out
}

fn lift_negation(f: &Formula, fired: &mut u64) -> Formula {
    match f {
        Formula::Forall(vs, g) => {
            let (mut positive, mut negative) = (0, 0);
            count_atom_polarity(g, false, &mut positive, &mut negative);
            if negative > 0 && positive == 0 {
                *fired += 1;
                let psi = simplify(&to_nnf(&g.as_ref().clone().not()));
                Formula::Exists(vs.clone(), Box::new(psi)).not()
            } else {
                Formula::Forall(vs.clone(), Box::new(lift_negation(g, fired)))
            }
        }
        Formula::Exists(vs, g) => Formula::Exists(vs.clone(), Box::new(lift_negation(g, fired))),
        Formula::And(fs) => Formula::And(fs.iter().map(|g| lift_negation(g, fired)).collect()),
        Formula::Or(fs) => Formula::Or(fs.iter().map(|g| lift_negation(g, fired)).collect()),
        other => other.clone(),
    }
}

/// Count the relational atoms of `f` that occur positively and negatively
/// (under an odd number of negations, an implication's premise counting
/// as one), with `negated` the polarity `f` itself occurs at.
fn count_atom_polarity(f: &Formula, negated: bool, positive: &mut u32, negative: &mut u32) {
    match f {
        Formula::Atom { .. } if negated => *negative += 1,
        Formula::Atom { .. } => *positive += 1,
        Formula::Not(g) => count_atom_polarity(g, !negated, positive, negative),
        Formula::And(fs) | Formula::Or(fs) => fs
            .iter()
            .for_each(|g| count_atom_polarity(g, negated, positive, negative)),
        Formula::Implies(a, b) => {
            count_atom_polarity(a, !negated, positive, negative);
            count_atom_polarity(b, negated, positive, negative);
        }
        Formula::Exists(_, g) | Formula::Forall(_, g) => {
            count_atom_polarity(g, negated, positive, negative)
        }
        Formula::True | Formula::False | Formula::Eq(..) | Formula::InSet(..) => {}
    }
}

/// The R4 cost gate: distribute `∀x̄ (φ₁ ∧ … ∧ φₙ)` only when the estimated
/// total size of the per-conjunct sub-BDDs is no larger than the estimated
/// size of the undistributed conjunction.
///
/// Estimates come from [`relcheck_relstore::stats`] cardinalities: after
/// quantifying the block's variables out of a conjunct, each atom
/// contributes at most `distinct_count` over its columns *not* bound to a
/// block variable; undistributed, each atom contributes up to its full row
/// count. Products within a conjunct, summed across conjuncts, against the
/// product over all atoms — `Σᵢ Πₐ distinct ≤ Πₐ ‖R‖` fires the rule.
/// Saturating `u128` arithmetic; a conjunct with no relational atoms counts
/// as 1 on both sides. Both outcomes are semantics-preserving, so a bad
/// estimate costs only time, never correctness.
///
/// A distinct count never exceeds its relation's row count, so each
/// conjunct's `after` is at most its `full`: when `Σᵢ fullᵢ ≤ Πᵢ fullᵢ`
/// already holds the rule fires without scanning a relation. The distinct
/// counts are taken only when that size bound does not decide, which needs
/// a conjunct whose `full` is 1 (no known atom, or only ≤1-row relations).
fn pushdown_pays_off(db: &Database, vs: &[String], parts: &[Formula]) -> bool {
    let conjuncts: Vec<Vec<(&Relation, Vec<Term>)>> = parts
        .iter()
        .map(|part| {
            let mut atoms = Vec::new();
            collect_atoms(part, &mut atoms);
            atoms
                .into_iter()
                .filter_map(|(name, args)| Some((db.relation(&name).ok()?, args)))
                .collect()
        })
        .collect();
    let fulls: Vec<u128> = conjuncts
        .iter()
        .map(|atoms| {
            atoms.iter().fold(1u128, |full, (rel, _)| {
                full.saturating_mul(rel.len().max(1) as u128)
            })
        })
        .collect();
    let product = fulls.iter().fold(1u128, |p, &f| p.saturating_mul(f));
    if fulls.iter().fold(0u128, |s, &f| s.saturating_add(f)) <= product {
        return true;
    }
    let block: HashSet<&str> = vs.iter().map(String::as_str).collect();
    let sum = conjuncts.iter().fold(0u128, |sum, atoms| {
        let after = atoms.iter().fold(1u128, |after, (rel, args)| {
            let kept: Vec<usize> = args
                .iter()
                .enumerate()
                .filter_map(|(i, t)| match t {
                    Term::Var(v) if block.contains(v.as_str()) => None,
                    _ => Some(i),
                })
                .collect();
            after.saturating_mul(stats::distinct_count(rel, &kept).max(1) as u128)
        });
        sum.saturating_add(after)
    });
    sum <= product
}

/// Reassemble a prenex form into a formula.
fn rebuild(p: &Prenex) -> Formula {
    let mut f = p.matrix.clone();
    for (q, v) in p.prefix.iter().rev() {
        f = match q {
            Quant::Exists => Formula::Exists(vec![v.clone()], Box::new(f)),
            Quant::Forall => Formula::Forall(vec![v.clone()], Box::new(f)),
        };
    }
    f
}

/// Collect every relational atom `(relation, args)` in the formula.
pub(crate) fn collect_atoms(f: &Formula, out: &mut Vec<(String, Vec<Term>)>) {
    match f {
        Formula::Atom { relation, args } => out.push((relation.clone(), args.clone())),
        Formula::Not(g) => collect_atoms(g, out),
        Formula::And(fs) | Formula::Or(fs) => fs.iter().for_each(|g| collect_atoms(g, out)),
        Formula::Implies(a, b) => {
            collect_atoms(a, out);
            collect_atoms(b, out);
        }
        Formula::Exists(_, g) | Formula::Forall(_, g) => collect_atoms(g, out),
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use relcheck_relstore::Raw;

    fn customer_db() -> Database {
        let mut db = Database::new();
        db.create_relation(
            "CUST",
            &[
                ("city", "city"),
                ("areacode", "areacode"),
                ("state", "state"),
            ],
            vec![
                vec![Raw::str("Toronto"), Raw::Int(416), Raw::str("ON")],
                vec![Raw::str("Toronto"), Raw::Int(647), Raw::str("ON")],
                vec![Raw::str("Oshawa"), Raw::Int(905), Raw::str("ON")],
                vec![Raw::str("Newark"), Raw::Int(973), Raw::str("NJ")],
                vec![Raw::str("Newark"), Raw::Int(212), Raw::str("NY")],
            ],
        )
        .unwrap();
        db.create_relation(
            "ALLOWED",
            &[("city", "city"), ("areacode", "areacode")],
            vec![
                vec![Raw::str("Toronto"), Raw::Int(416)],
                vec![Raw::str("Toronto"), Raw::Int(647)],
                vec![Raw::str("Oshawa"), Raw::Int(905)],
                vec![Raw::str("Newark"), Raw::Int(973)],
            ],
        )
        .unwrap();
        db
    }

    #[test]
    fn plan_records_passes_in_pipeline_order() {
        let db = customer_db();
        let f =
            relcheck_logic::parse("forall c, a. ALLOWED(c, a) -> exists s. CUST(c, a, s)").unwrap();
        let plan = plan_check(
            &db,
            &f,
            PlanOptions::default(),
            &HashSet::new(),
            0xfeed_beef,
        );
        let names: Vec<&str> = plan.passes.iter().map(|p| p.pass).collect();
        assert_eq!(
            names,
            [
                "prenex-pullup",
                "strip-leading-block",
                "refutation-nnf",
                "forall-pushdown",
                "negation-lift"
            ]
        );
        assert_eq!(plan.schema_fp, 0xfeed_beef);
        let step = plan.bdd.as_ref().expect("bdd step");
        assert_eq!(step.test, BddTest::ViolationsEmpty);
        assert_eq!(step.stripped, ["c", "a"]);
        assert!(plan.sql.is_some(), "inclusion shape translates to SQL");
    }

    #[test]
    fn cost_gate_fires_when_distribution_is_estimated_smaller() {
        // ∀s over ALLOWED(c,a) ∧ ¬CUST(c,a,s): Σ = 4 + 5 = 9 ≤ Π = 4·5 = 20.
        let db = customer_db();
        let f =
            relcheck_logic::parse("forall c, a. ALLOWED(c, a) -> exists s. CUST(c, a, s)").unwrap();
        let mut passes = Vec::new();
        bdd_step(&db, &f, PlanOptions::default(), &mut passes);
        let push = passes.iter().find(|p| p.pass == "forall-pushdown").unwrap();
        assert_eq!((push.fired, push.gated), (1, 0));
    }

    #[test]
    fn cost_gate_declines_when_distribution_is_estimated_larger() {
        // The violation body is R(x) ∧ ∀y (¬S(x,y) ∧ ¬(y = 1)). With one S
        // row the size bound cannot decide (Σ = 1 + 1 > Π = 1·1), so the
        // distinct counts do: S has one x value, Σ = 1 + 1 > Π = 1, gated.
        let mut db = Database::new();
        db.create_relation(
            "R",
            &[("a", "d")],
            vec![vec![Raw::Int(1)], vec![Raw::Int(2)]],
        )
        .unwrap();
        db.create_relation(
            "S",
            &[("a", "d"), ("b", "d")],
            vec![vec![Raw::Int(1), Raw::Int(1)]],
        )
        .unwrap();
        let f = relcheck_logic::parse("forall x. R(x) -> exists y. S(x, y) | y = 1").unwrap();
        let mut passes = Vec::new();
        bdd_step(&db, &f, PlanOptions::default(), &mut passes);
        let push = passes.iter().find(|p| p.pass == "forall-pushdown").unwrap();
        assert_eq!((push.fired, push.gated), (0, 1));
    }

    /// The gate as it was before the size bound: distinct counts for every
    /// atom of every conjunct, on every call.
    fn full_scan_gate(db: &Database, vs: &[String], parts: &[Formula]) -> bool {
        let block: HashSet<&str> = vs.iter().map(String::as_str).collect();
        let mut sum: u128 = 0;
        let mut product: u128 = 1;
        for part in parts {
            let mut atoms = Vec::new();
            collect_atoms(part, &mut atoms);
            let (mut after, mut full) = (1u128, 1u128);
            for (rel_name, args) in &atoms {
                let Ok(rel) = db.relation(rel_name) else {
                    continue;
                };
                let kept: Vec<usize> = args
                    .iter()
                    .enumerate()
                    .filter_map(|(i, t)| match t {
                        Term::Var(v) if block.contains(v.as_str()) => None,
                        _ => Some(i),
                    })
                    .collect();
                after = after.saturating_mul(stats::distinct_count(rel, &kept).max(1) as u128);
                full = full.saturating_mul(rel.len().max(1) as u128);
            }
            sum = sum.saturating_add(after);
            product = product.saturating_mul(full);
        }
        sum <= product
    }

    /// Whether `Σ fullᵢ ≤ Π fullᵢ` alone fires the gate.
    fn size_bound_decides(db: &Database, parts: &[Formula]) -> bool {
        let fulls = parts.iter().map(|part| {
            let mut atoms = Vec::new();
            collect_atoms(part, &mut atoms);
            atoms
                .iter()
                .filter_map(|(name, _)| db.relation(name).ok())
                .fold(1u128, |f, rel| f.saturating_mul(rel.len().max(1) as u128))
        });
        let (sum, product) = fulls.fold((0u128, 1u128), |(s, p), f| {
            (s.saturating_add(f), p.saturating_mul(f))
        });
        sum <= product
    }

    #[test]
    fn cost_gate_matches_the_full_scan_formula() {
        use relcheck_datagen::SplitMix64;
        const VARS: [&str; 4] = ["x", "y", "z", "w"];
        const SIZES: [usize; 8] = [0, 1, 1, 2, 3, 5, 17, 64];
        let mut rng = SplitMix64::seed_from_u64(0x9a7e);
        let (mut declined, mut scanned_fired) = (0, 0);
        for _ in 0..400 {
            // Relations of random arity and size; small value ranges make
            // the projections repeat, so distinct counts fall below ‖R‖.
            let mut db = Database::new();
            let mut arities = Vec::new();
            for r in 0..3 {
                let arity = rng.gen_range(1..4usize);
                let cols: Vec<(String, &str)> =
                    (0..arity).map(|c| (format!("c{c}"), "d")).collect();
                let cols: Vec<(&str, &str)> = cols.iter().map(|(c, d)| (c.as_str(), *d)).collect();
                let rows = (0..SIZES[rng.gen_range(0..SIZES.len())])
                    .map(|_| {
                        (0..arity)
                            .map(|_| Raw::Int(rng.gen_range(0..9u64) as i64))
                            .collect()
                    })
                    .collect();
                db.create_relation(&format!("R{r}"), &cols, rows).unwrap();
                arities.push(arity);
            }
            let term = |rng: &mut SplitMix64| {
                if rng.gen_bool(0.2) {
                    Term::Const(Raw::Int(rng.gen_range(0..9u64) as i64))
                } else {
                    Term::var(VARS[rng.gen_range(0..VARS.len())])
                }
            };
            // Conjuncts of up to eight atoms (so products can saturate),
            // some atomless, some naming a relation the database lacks.
            let parts: Vec<Formula> = (0..rng.gen_range(1..5usize))
                .map(|_| {
                    let mut conj: Vec<Formula> = (0..rng.gen_range(0..9usize))
                        .map(|_| {
                            if rng.gen_bool(0.1) {
                                return Formula::atom("MISSING", vec![term(&mut rng)]);
                            }
                            let r = rng.gen_range(0..arities.len());
                            let args = (0..arities[r]).map(|_| term(&mut rng)).collect();
                            let atom = Formula::atom(&format!("R{r}"), args);
                            if rng.gen_bool(0.5) {
                                atom.not()
                            } else {
                                atom
                            }
                        })
                        .collect();
                    conj.push(Formula::Eq(term(&mut rng), term(&mut rng)));
                    Formula::And(conj)
                })
                .collect();
            let vs: Vec<String> = VARS
                .iter()
                .filter(|_| rng.gen_bool(0.5))
                .map(|v| v.to_string())
                .collect();
            let want = full_scan_gate(&db, &vs, &parts);
            assert_eq!(
                pushdown_pays_off(&db, &vs, &parts),
                want,
                "block {vs:?} over {parts:?}"
            );
            declined += usize::from(!want);
            scanned_fired += usize::from(want && !size_bound_decides(&db, &parts));
        }
        // Both outcomes of the distinct-count fallback are exercised.
        assert!(
            declined > 0 && scanned_fired > 0,
            "{declined} {scanned_fired}"
        );
    }

    /// Plan `src` and return its BDD body and `negation-lift` record.
    fn lifted(db: &Database, src: &str) -> (Formula, PassRecord) {
        let f = relcheck_logic::parse(src).unwrap();
        let mut passes = Vec::new();
        let step = bdd_step(db, &f, PlanOptions::default(), &mut passes);
        let lift = passes.pop().unwrap();
        assert_eq!(lift.pass, pass::NEGATION_LIFT);
        assert_eq!(lift.after, step.body.to_string());
        (step.body, lift)
    }

    fn parsed(src: &str) -> Formula {
        relcheck_logic::parse(src).unwrap()
    }

    #[test]
    fn negation_lift_folds_the_q5_and_q4_shapes() {
        let mut db = Database::new();
        let rel = |db: &mut Database, name: &str, cols: &[(&str, &str)], rows: &[&[i64]]| {
            let rows = rows
                .iter()
                .map(|r| r.iter().map(|&v| Raw::Int(v)).collect())
                .collect();
            db.create_relation(name, cols, rows).unwrap();
        };
        rel(
            &mut db,
            "STUDENT",
            &[("s", "student"), ("dept", "dept"), ("year", "year")],
            &[&[1, 1, 1], &[2, 1, 2], &[3, 2, 1]],
        );
        rel(
            &mut db,
            "COURSE",
            &[("k", "course"), ("title", "title")],
            &[&[1, 1], &[2, 2]],
        );
        rel(
            &mut db,
            "TAKES",
            &[("s", "student"), ("k", "course")],
            &[&[1, 1], &[2, 2], &[3, 1]],
        );
        let two = [&[1, 1, 1][..], &[2, 2, 2]];
        rel(&mut db, "R1", &[("a", "a"), ("b", "b"), ("c", "c")], &two);
        rel(&mut db, "R2", &[("a", "a"), ("b", "b"), ("u", "u")], &two);
        // Q5: R4 splits the ∀k off STUDENT, and the lift folds ¬ back above
        // the ∃k: TAKES is no longer complemented.
        let (body, lift) = lifted(
            &db,
            "forall s, z. STUDENT(s, 1, z) -> exists k. (COURSE(k, 1) & TAKES(s, k))",
        );
        assert_eq!((lift.fired, lift.gated), (1, 0));
        assert_eq!(
            body,
            parsed("STUDENT(s, 1, z) & !(exists k. COURSE(k, 1) & TAKES(s, k))")
        );
        // Q4: once R4 splits ∀u off R1, the inclusion dependency's ∀u ¬R2
        // becomes ¬∃u R2.
        let (body, lift) = lifted(&db, "forall a, b, c. R1(a, b, c) -> exists u. R2(a, b, u)");
        assert_eq!(lift.fired, 1);
        assert_eq!(body, parsed("R1(a, b, c) & !(exists u. R2(a, b, u))"));
        // An FD has no ∀ left to fold: the record is there, unfired.
        let (_, lift) = lifted(
            &db,
            "forall a, b, c1, c2. R1(a, b, c1) & R1(a, b, c2) -> c1 = c2",
        );
        assert_eq!(lift.fired, 0);
        assert_eq!(lift.before, lift.after);
    }

    #[test]
    fn negation_lift_declines_a_positive_atom_or_a_comparison_only_body() {
        for src in [
            "forall y. !S(x, y) | T(y)",
            "forall y. !(y = 1)",
            "forall y. !(y in {1, 2}) & !(x = y)",
        ] {
            let f = parsed(src);
            let mut fired = 0;
            assert_eq!(lift_negation(&f, &mut fired), f, "{src}");
            assert_eq!(fired, 0, "{src}");
        }
    }

    #[test]
    fn negation_lift_takes_the_outermost_match_and_recurses_otherwise() {
        let cases = [
            // The outer block qualifies: one fold, the inner ∀z goes with it.
            (
                "forall y. !R(x, y) | (forall z. !S(y, z))",
                "!(exists y. R(x, y) & (exists z. S(y, z)))",
                1,
            ),
            // The outer block keeps a positive atom: the inner one folds.
            (
                "forall y. R(x, y) & (forall z. !S(y, z) | !(z = 1))",
                "forall y. R(x, y) & !(exists z. S(y, z) & z = 1)",
                1,
            ),
            // Through ∃, ∧ and ∨, each qualifying block once.
            (
                "exists w. (forall y. !R(w, y)) | (T(w) & forall z. !S(w, z))",
                "exists w. !(exists y. R(w, y)) | (T(w) & !(exists z. S(w, z)))",
                2,
            ),
        ];
        for (src, want, n) in cases {
            let mut fired = 0;
            assert_eq!(
                lift_negation(&parsed(src), &mut fired),
                parsed(want),
                "{src}"
            );
            assert_eq!(fired, n, "{src}");
        }
    }

    #[test]
    fn sql_only_relation_suppresses_the_bdd_step() {
        let db = customer_db();
        let f = relcheck_logic::parse("forall c, a, s. CUST(c, a, s) -> ALLOWED(c, a)").unwrap();
        let sql_only: HashSet<String> = ["CUST".to_owned()].into_iter().collect();
        let plan = plan_check(&db, &f, PlanOptions::default(), &sql_only, 0);
        assert!(plan.bdd.is_none());
        assert!(plan.passes.is_empty(), "no passes run when BDD is skipped");
        assert_eq!(plan.ladder(), ["sql", "brute_force"]);
    }

    #[test]
    fn planning_is_deterministic() {
        let db = customer_db();
        let f = relcheck_logic::parse(
            "forall c, a1, s1, a2, s2. CUST(c, a1, s1) & CUST(c, a2, s2) -> s1 = s2",
        )
        .unwrap();
        let a = plan_check(&db, &f, PlanOptions::default(), &HashSet::new(), 7).render();
        let b = plan_check(&db, &f, PlanOptions::default(), &HashSet::new(), 7).render();
        assert_eq!(a, b, "same inputs must render byte-identical plans");
    }
}

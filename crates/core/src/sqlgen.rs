//! Formula → relational-plan translation: the "SQL approach".
//!
//! The paper's baseline expresses each constraint as a SQL query returning
//! the violating tuples (the `SELECT … WHERE NOT EXISTS` of Section 1).
//! [`violation_plan`] performs that translation for the broad class the
//! paper's constraints live in — **tuple-generating and denial
//! constraints**:
//!
//! ```text
//! ∀x̄ ( premise  →  conclusion )          premise: ≥1 atoms + comparisons
//! ∀x̄ ¬( conjunction )                    denial
//! ∃x̄  ( conjunction )                    existence
//! ```
//!
//! where `conclusion` is a conjunction of comparisons, of atoms, or an
//! ∃-quantified conjunction of both, and every ∀ variable it mentions also
//! occurs in the premise. The result plan's output is the set of
//! violating premise rows (for the ∃ form: the witnesses — empty means
//! violated, so callers must interpret by [`Shape`]). Constraints outside
//! the class yield `None`; the checker then resorts to brute-force
//! evaluation.

use relcheck_logic::transform::{simplify, standardize_apart};
use relcheck_logic::{Formula, Term};
use relcheck_relstore::plan::Plan;
use relcheck_relstore::{Database, Raw};
use std::collections::HashMap;

/// What the produced plan computes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// Output rows are violations: constraint holds iff the result is empty.
    Violations,
    /// Output rows are witnesses of an existential: constraint holds iff
    /// the result is **non-empty**.
    Witnesses,
}

/// A translated constraint: plan plus interpretation, plus the premise
/// variable names in output-column order. Except for the FD fast path
/// (whose output is base-relation rows), the plan projects its output onto
/// exactly these variables, one column each.
#[derive(Debug, Clone)]
pub struct Translated {
    /// The executable plan.
    pub plan: Plan,
    /// How to read its output.
    pub shape: Shape,
    /// Variable name of each output column (post-projection).
    pub columns: Vec<String>,
}

/// One comparison literal usable as a selection.
#[derive(Debug, Clone)]
enum Cmp {
    EqConst(String, Raw),
    NeqConst(String, Raw),
    EqVar(String, String),
    NeqVar(String, String),
    In(String, Vec<Raw>),
    NotIn(String, Vec<Raw>),
    /// Constant-only comparison already decided.
    Decided(bool),
}

impl Cmp {
    /// The comparison that holds exactly where this one does not.
    fn negated(&self) -> Cmp {
        match self.clone() {
            Cmp::EqConst(v, raw) => Cmp::NeqConst(v, raw),
            Cmp::NeqConst(v, raw) => Cmp::EqConst(v, raw),
            Cmp::EqVar(x, y) => Cmp::NeqVar(x, y),
            Cmp::NeqVar(x, y) => Cmp::EqVar(x, y),
            Cmp::In(v, vals) => Cmp::NotIn(v, vals),
            Cmp::NotIn(v, vals) => Cmp::In(v, vals),
            Cmp::Decided(b) => Cmp::Decided(!b),
        }
    }
}

/// σ_cmp over `input`, whose columns `var_cols` names; `None` if the
/// comparison mentions a variable the input does not bind.
fn select_cmp(input: Plan, cmp: &Cmp, var_cols: &HashMap<String, usize>) -> Option<Plan> {
    Some(match cmp {
        Cmp::Decided(true) => input,
        // Select nothing: empty IN-set.
        Cmp::Decided(false) => Plan::SelectIn {
            input: Box::new(input),
            col: 0,
            values: vec![],
        },
        Cmp::EqConst(v, raw) => input.select_eq(*var_cols.get(v)?, raw.clone()),
        Cmp::NeqConst(v, raw) => Plan::SelectNeq {
            input: Box::new(input),
            col: *var_cols.get(v)?,
            value: raw.clone(),
        },
        Cmp::EqVar(x, y) => Plan::SelectColEq {
            input: Box::new(input),
            left: *var_cols.get(x)?,
            right: *var_cols.get(y)?,
        },
        Cmp::NeqVar(x, y) => Plan::SelectColNeq {
            input: Box::new(input),
            left: *var_cols.get(x)?,
            right: *var_cols.get(y)?,
        },
        Cmp::In(v, vals) => input.select_in(*var_cols.get(v)?, vals.clone()),
        Cmp::NotIn(v, vals) => Plan::SelectNotIn {
            input: Box::new(input),
            col: *var_cols.get(v)?,
            values: vals.clone(),
        },
    })
}

/// A flattened conjunction: positive atoms, negated atoms, comparisons.
struct Conj {
    atoms: Vec<(String, Vec<Term>)>,
    neg_atoms: Vec<(String, Vec<Term>)>,
    cmps: Vec<Cmp>,
}

fn flatten_conj(f: &Formula) -> Option<Conj> {
    let mut atoms = Vec::new();
    let mut neg_atoms = Vec::new();
    let mut cmps = Vec::new();
    fn go(
        f: &Formula,
        atoms: &mut Vec<(String, Vec<Term>)>,
        neg_atoms: &mut Vec<(String, Vec<Term>)>,
        cmps: &mut Vec<Cmp>,
    ) -> bool {
        match f {
            Formula::True => true,
            Formula::False => {
                cmps.push(Cmp::Decided(false));
                true
            }
            Formula::And(fs) => fs.iter().all(|g| go(g, atoms, neg_atoms, cmps)),
            Formula::Atom { relation, args } => {
                atoms.push((relation.clone(), args.clone()));
                true
            }
            Formula::Eq(a, b) => {
                cmps.push(match (a, b) {
                    (Term::Var(x), Term::Var(y)) => Cmp::EqVar(x.clone(), y.clone()),
                    (Term::Var(x), Term::Const(c)) | (Term::Const(c), Term::Var(x)) => {
                        Cmp::EqConst(x.clone(), c.clone())
                    }
                    (Term::Const(c), Term::Const(d)) => Cmp::Decided(c == d),
                });
                true
            }
            Formula::InSet(Term::Var(x), vals) => {
                cmps.push(Cmp::In(x.clone(), vals.clone()));
                true
            }
            Formula::InSet(Term::Const(c), vals) => {
                cmps.push(Cmp::Decided(vals.contains(c)));
                true
            }
            Formula::Not(g) => match &**g {
                Formula::Atom { relation, args } => {
                    neg_atoms.push((relation.clone(), args.clone()));
                    true
                }
                Formula::Eq(a, b) => {
                    cmps.push(match (a, b) {
                        (Term::Var(x), Term::Var(y)) => Cmp::NeqVar(x.clone(), y.clone()),
                        (Term::Var(x), Term::Const(c)) | (Term::Const(c), Term::Var(x)) => {
                            Cmp::NeqConst(x.clone(), c.clone())
                        }
                        (Term::Const(c), Term::Const(d)) => Cmp::Decided(c != d),
                    });
                    true
                }
                Formula::InSet(Term::Var(x), vals) => {
                    cmps.push(Cmp::NotIn(x.clone(), vals.clone()));
                    true
                }
                Formula::InSet(Term::Const(c), vals) => {
                    cmps.push(Cmp::Decided(!vals.contains(c)));
                    true
                }
                _ => false,
            },
            _ => false,
        }
    }
    if go(f, &mut atoms, &mut neg_atoms, &mut cmps) {
        Some(Conj {
            atoms,
            neg_atoms,
            cmps,
        })
    } else {
        None
    }
}

/// Join the conjunction's atoms left-to-right, apply its comparisons, and
/// return the plan plus the output column of each variable.
fn build_conj_plan(db: &Database, conj: &Conj) -> Option<(Plan, HashMap<String, usize>)> {
    if conj.atoms.is_empty() {
        return None;
    }
    let mut var_cols: HashMap<String, usize> = HashMap::new();
    let mut plan: Option<Plan> = None;
    let mut width = 0usize;
    for (rel_name, args) in &conj.atoms {
        let rel = db.relation(rel_name).ok()?;
        if rel.arity() != args.len() {
            return None;
        }
        let mut atom_plan = Plan::scan(rel_name);
        let mut atom_vars: HashMap<String, usize> = HashMap::new();
        for (i, t) in args.iter().enumerate() {
            match t {
                Term::Const(raw) => {
                    atom_plan = atom_plan.select_eq(i, raw.clone());
                }
                Term::Var(v) => match atom_vars.get(v) {
                    // Repeated variable within the atom: column equality.
                    Some(&j) => {
                        atom_plan = Plan::SelectColEq {
                            input: Box::new(atom_plan),
                            left: j,
                            right: i,
                        };
                    }
                    None => {
                        atom_vars.insert(v.clone(), i);
                    }
                },
            }
        }
        match plan.take() {
            None => {
                plan = Some(atom_plan);
                for (v, i) in atom_vars {
                    var_cols.insert(v, i);
                }
                width = rel.arity();
            }
            Some(left) => {
                // Equi-join on shared variables (empty pairs = product).
                let pairs: Vec<(usize, usize)> = atom_vars
                    .iter()
                    .filter_map(|(v, &i)| var_cols.get(v).map(|&l| (l, i)))
                    .collect();
                plan = Some(left.join(atom_plan, pairs));
                for (v, i) in atom_vars {
                    var_cols.entry(v).or_insert(width + i);
                }
                width += rel.arity();
            }
        }
    }
    let mut plan = plan.expect("at least one atom");
    for cmp in &conj.cmps {
        plan = select_cmp(plan, cmp, &var_cols)?;
    }
    // Negated atoms: anti-join against each, on the shared variables.
    // Every variable of a negated atom must be bound by the positive part
    // (else the negation is not a safe filter), and constant positions are
    // pinned on the filter side.
    for (rel_name, args) in &conj.neg_atoms {
        let rel = db.relation(rel_name).ok()?;
        if rel.arity() != args.len() {
            return None;
        }
        let mut filter = Plan::scan(rel_name);
        let mut pairs: Vec<(usize, usize)> = Vec::new();
        let mut seen: HashMap<&str, usize> = HashMap::new();
        for (i, t) in args.iter().enumerate() {
            match t {
                Term::Const(raw) => {
                    filter = filter.select_eq(i, raw.clone());
                }
                Term::Var(v) => {
                    if let Some(&j) = seen.get(v.as_str()) {
                        filter = Plan::SelectColEq {
                            input: Box::new(filter),
                            left: j,
                            right: i,
                        };
                    } else {
                        seen.insert(v, i);
                        pairs.push((*var_cols.get(v)?, i));
                    }
                }
            }
        }
        if pairs.is_empty() {
            // No shared variables: ¬R(consts) is a constant condition —
            // out of this translator's class.
            return None;
        }
        plan = plan.anti_join(filter, pairs);
    }
    Some((plan, var_cols))
}

/// Translate a constraint sentence into an executable plan, if it falls in
/// the supported class.
pub fn violation_plan(db: &Database, f: &Formula) -> Option<Translated> {
    let f = simplify(&standardize_apart(f));
    // Strip the outer ∀ block (possibly several nested binders).
    let mut body = &f;
    let mut outer_forall = false;
    while let Formula::Forall(_, inner) = body {
        outer_forall = true;
        body = inner;
    }
    if !outer_forall {
        // ∃x̄ conj — existence constraint.
        let mut ex_body = &f;
        let mut saw_exists = false;
        while let Formula::Exists(_, inner) = ex_body {
            saw_exists = true;
            ex_body = inner;
        }
        if !saw_exists {
            return None;
        }
        let conj = flatten_conj(ex_body)?;
        let (plan, var_cols) = build_conj_plan(db, &conj)?;
        let (cols, columns) = projection(&var_cols);
        return Some(Translated {
            plan: plan.project(cols),
            shape: Shape::Witnesses,
            columns,
        });
    }
    // ∀x̄ body: body is an implication, a denial, or bare comparisons.
    let (premise, conclusion): (&Formula, Option<&Formula>) = match body {
        Formula::Implies(p, c) => (p, Some(c)),
        Formula::Not(inner) => (inner, None),
        _ => return None,
    };
    // Functional-dependency pattern: a self-join premise whose conclusion
    // equates the non-key columns compiles to the group-by plan a real SQL
    // optimizer would pick (the paper's Figure 5(b) formulation), instead
    // of materializing the quadratic self-join.
    if let Some(conclusion) = conclusion {
        if let Some(t) = fd_plan(db, premise, conclusion) {
            return Some(t);
        }
    }
    let pconj = flatten_conj(premise)?;
    let (premise_plan, pvars) = build_conj_plan(db, &pconj)?;
    let (proj_cols, columns) = projection(&pvars);

    let Some(conclusion) = conclusion else {
        // Denial: every premise row is a violation.
        return Some(Translated {
            plan: premise_plan.project(proj_cols),
            shape: Shape::Violations,
            columns,
        });
    };

    // A ∀ variable only the conclusion mentions is universal there, but the
    // plans below would read it existentially: out of class.
    if conclusion
        .free_vars()
        .iter()
        .any(|v| !pvars.contains_key(v))
    {
        return None;
    }
    // Conclusion: ∃ȳ conj, or a bare conj.
    let mut concl_body = conclusion;
    while let Formula::Exists(_, inner) = concl_body {
        concl_body = inner;
    }
    let cconj = flatten_conj(concl_body)?;
    if cconj.atoms.is_empty() {
        // Pure comparisons: violations = premise − σ_conclusion(premise). A
        // single comparison selects its negation instead, so the premise
        // runs once and no difference is taken.
        let plan = if let [cmp] = cconj.cmps.as_slice() {
            select_cmp(premise_plan, &cmp.negated(), &pvars)?
        } else {
            let mut satisfied = premise_plan.clone();
            for cmp in &cconj.cmps {
                satisfied = select_cmp(satisfied, cmp, &pvars)?;
            }
            Plan::Diff {
                left: Box::new(premise_plan),
                right: Box::new(satisfied),
            }
        };
        return Some(Translated {
            plan: plan.project(proj_cols),
            shape: Shape::Violations,
            columns,
        });
    }
    // Conclusion with atoms: anti-join the premise against the conclusion
    // join on the variables they share.
    let (concl_plan, cvars) = build_conj_plan(db, &cconj)?;
    let pairs: Vec<(usize, usize)> = pvars
        .iter()
        .filter_map(|(v, &l)| cvars.get(v).map(|&r| (l, r)))
        .collect();
    if pairs.is_empty() {
        return None; // decoupled conclusion — out of class
    }
    let plan = premise_plan.anti_join(concl_plan, pairs).project(proj_cols);
    Some(Translated {
        plan,
        shape: Shape::Violations,
        columns,
    })
}

/// Detect `∀… R(l̄, x̄, ō) ∧ R(l̄, ȳ, ō') → x̄ = ȳ` and compile it to a
/// group-by FD check. Returns `None` when the shape doesn't match.
fn fd_plan(db: &Database, premise: &Formula, conclusion: &Formula) -> Option<Translated> {
    let pconj = flatten_conj(premise)?;
    if pconj.atoms.len() != 2 || !pconj.cmps.is_empty() || !pconj.neg_atoms.is_empty() {
        return None;
    }
    let (r1, args1) = &pconj.atoms[0];
    let (r2, args2) = &pconj.atoms[1];
    if r1 != r2 || args1.len() != args2.len() {
        return None;
    }
    let rel = db.relation(r1).ok()?;
    if rel.arity() != args1.len() {
        return None;
    }
    // All arguments must be variables; positions partition into shared
    // (lhs) and differing.
    let mut lhs = Vec::new();
    let mut differing: Vec<(usize, &str, &str)> = Vec::new();
    for (i, (t1, t2)) in args1.iter().zip(args2).enumerate() {
        match (t1, t2) {
            (Term::Var(a), Term::Var(b)) if a == b => lhs.push(i),
            (Term::Var(a), Term::Var(b)) => differing.push((i, a, b)),
            _ => return None,
        }
    }
    if lhs.is_empty() {
        return None;
    }
    // Variables must not repeat across positions (else it's not a plain FD).
    let mut seen = std::collections::HashSet::new();
    for t in args1.iter().chain(args2) {
        if let Term::Var(v) = t {
            if !lhs
                .iter()
                .any(|&i| matches!(&args1[i], Term::Var(x) if x == v))
                && !seen.insert(v)
            {
                return None;
            }
        }
    }
    // Conclusion: conjunction of equalities pairing differing positions.
    let cconj = flatten_conj(conclusion)?;
    if !cconj.atoms.is_empty() || cconj.cmps.is_empty() {
        return None;
    }
    let mut rhs = Vec::new();
    for cmp in &cconj.cmps {
        let Cmp::EqVar(x, y) = cmp else { return None };
        let pos = differing
            .iter()
            .find(|(_, a, b)| (a == x && b == y) || (a == y && b == x))?;
        rhs.push(pos.0);
    }
    let columns = rel
        .schema()
        .columns()
        .iter()
        .map(|c| c.name.clone())
        .collect();
    Some(Translated {
        plan: Plan::FdViolations {
            input: Box::new(Plan::scan(r1)),
            lhs,
            rhs,
        },
        shape: Shape::Violations,
        columns,
    })
}

/// Output projection: one column per variable, ordered by the variable's
/// first column in the join output. Returns `(column indices, names)`.
fn projection(var_cols: &HashMap<String, usize>) -> (Vec<usize>, Vec<String>) {
    let mut cols: Vec<(&String, &usize)> = var_cols.iter().collect();
    cols.sort_by_key(|&(_, &i)| i);
    (
        cols.iter().map(|&(_, &i)| i).collect(),
        cols.into_iter().map(|(v, _)| v.clone()).collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use relcheck_logic::eval::eval_sentence;
    use relcheck_logic::parse;
    use relcheck_relstore::plan::execute;

    fn db() -> Database {
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

    fn holds_via_plan(db: &Database, src: &str) -> Option<bool> {
        let f = parse(src).unwrap();
        let t = violation_plan(db, &f)?;
        let out = execute(db, &t.plan).unwrap();
        Some(match t.shape {
            Shape::Violations => out.is_empty(),
            Shape::Witnesses => !out.is_empty(),
        })
    }

    #[test]
    fn plan_agrees_with_oracle() {
        let db = db();
        for src in [
            r#"forall c, a, s. CUST(c, a, s) & c = "Toronto" -> a in {416, 647}"#,
            r#"forall c, a, s. CUST(c, a, s) & c = "Toronto" -> a in {416}"#,
            r#"forall c, a, s. CUST(c, a, s) & c = "Newark" -> s = "NJ""#,
            r#"forall c, a, s. CUST(c, a, s) -> ALLOWED(c, a)"#,
            r#"forall c, a. ALLOWED(c, a) -> exists s. CUST(c, a, s)"#,
            r#"forall c1, a, s1, c2, s2. CUST(c1, a, s1) & CUST(c2, a, s2) -> s1 = s2"#,
            r#"forall c, a1, s1, a2, s2. CUST(c, a1, s1) & CUST(c, a2, s2) -> s1 = s2"#,
            r#"exists c, a, s. CUST(c, a, s) & s = "NY""#,
            r#"exists c, a, s. CUST(c, a, s) & s = "QC""#,
            r#"forall c, a, s. !(CUST(c, a, s) & s = "NY")"#,
            r#"forall c, a, s. CUST(c, a, s) & a != 973 -> s != "NJ""#,
        ] {
            let f = parse(src).unwrap();
            let expected = eval_sentence(&db, &f).unwrap();
            let got = holds_via_plan(&db, src).unwrap_or_else(|| panic!("untranslatable: {src}"));
            assert_eq!(got, expected, "{src}");
        }
    }

    #[test]
    fn violating_rows_are_the_right_ones() {
        let db = db();
        let f = parse(r#"forall c, a, s. CUST(c, a, s) -> ALLOWED(c, a)"#).unwrap();
        let t = violation_plan(&db, &f).unwrap();
        assert_eq!(t.shape, Shape::Violations);
        let out = execute(&db, &t.plan).unwrap();
        assert_eq!(out.len(), 1);
        let decoded = db.decode_row(&out, &out.row(0));
        assert_eq!(decoded[0], Raw::str("Newark"));
        assert_eq!(decoded[1], Raw::Int(212));
    }

    #[test]
    fn out_of_class_shapes_return_none() {
        let db = db();
        for src in [
            // Disjunctive premise.
            r#"forall c, a, s. CUST(c, a, s) | ALLOWED(c, a) -> s = "ON""#,
            // Negated atom in premise.
            r#"forall c, a, s. !CUST(c, a, s) -> ALLOWED(c, a)"#,
            // No atoms at all.
            r#"forall c, a, s. CUST(c, a, s) -> exists c2, a2, s2. CUST(c2, a2, s2) & s2 = "QC""#,
        ] {
            let f = parse(src).unwrap();
            // The third has a decoupled conclusion (no shared vars).
            assert!(violation_plan(&db, &f).is_none(), "{src}");
        }
    }

    #[test]
    fn negated_atoms_translate_to_anti_joins() {
        let db = db();
        for src in [
            // Denial with a negated atom: customers outside ALLOWED with
            // state ON... (sanity: some Toronto rows are allowed).
            r#"forall c, a, s. CUST(c, a, s) & !ALLOWED(c, a) -> s = "NY""#,
            // Negated atom inside an existence check.
            r#"exists c, a, s. CUST(c, a, s) & !ALLOWED(c, a)"#,
            // Negated atom with a constant position.
            r#"forall c, a, s. !(CUST(c, a, s) & !ALLOWED("Toronto", a))"#,
        ] {
            let f = parse(src).unwrap();
            let expected = eval_sentence(&db, &f).unwrap();
            let t = violation_plan(&db, &f).unwrap_or_else(|| panic!("untranslatable: {src}"));
            let out = execute(&db, &t.plan).unwrap();
            let got = match t.shape {
                Shape::Violations => out.is_empty(),
                Shape::Witnesses => !out.is_empty(),
            };
            assert_eq!(got, expected, "{src}");
        }
        // A negated atom sharing no variables with the positive part is
        // out of class.
        let f = parse(r#"forall c, a, s. CUST(c, a, s) & !ALLOWED("Toronto", 416) -> s = "ON""#)
            .unwrap();
        assert!(violation_plan(&db, &f).is_none());
    }

    #[test]
    fn fd_pattern_compiles_to_group_by() {
        let db = db();
        let f = parse("forall c1, a, s1, c2, s2. CUST(c1, a, s1) & CUST(c2, a, s2) -> s1 = s2")
            .unwrap();
        let t = violation_plan(&db, &f).unwrap();
        assert!(
            matches!(t.plan, Plan::FdViolations { ref lhs, ref rhs, .. }
                if lhs == &vec![1] && rhs == &vec![2]),
            "expected an FdViolations plan, got {:?}",
            t.plan
        );
        // areacode → state holds in the fixture.
        assert!(execute(&db, &t.plan).unwrap().is_empty());
        // And the violated FD (city → state) produces the Newark rows.
        let g = parse("forall c, a1, s1, a2, s2. CUST(c, a1, s1) & CUST(c, a2, s2) -> s1 = s2")
            .unwrap();
        let t = violation_plan(&db, &g).unwrap();
        assert!(matches!(t.plan, Plan::FdViolations { .. }));
        assert_eq!(execute(&db, &t.plan).unwrap().len(), 2);
    }

    #[test]
    fn fd_pattern_rejects_near_misses() {
        let db = db();
        // Conclusion pairing a variable with itself / constants involved:
        // must fall back to the generic translator, not the FD plan.
        for src in [
            // premise has a constant
            r#"forall a, s1, c2, s2. CUST("Toronto", a, s1) & CUST(c2, a, s2) -> s1 = s2"#,
            // different relations
            r#"forall c, a, s1, a2. CUST(c, a, s1) & ALLOWED(c, a2) -> a = a2"#,
        ] {
            let f = parse(src).unwrap();
            if let Some(t) = violation_plan(&db, &f) {
                assert!(
                    !matches!(t.plan, Plan::FdViolations { .. }),
                    "{src} must not use the FD fast path"
                );
            }
        }
    }

    #[test]
    fn repeated_variable_in_atom_becomes_col_eq() {
        let mut db = Database::new();
        db.create_relation(
            "PAIR",
            &[("a", "k"), ("b", "k")],
            vec![
                vec![Raw::Int(1), Raw::Int(1)],
                vec![Raw::Int(1), Raw::Int(2)],
            ],
        )
        .unwrap();
        let f = parse("exists x. PAIR(x, x)").unwrap();
        let t = violation_plan(&db, &f).unwrap();
        let out = execute(&db, &t.plan).unwrap();
        assert_eq!(t.shape, Shape::Witnesses);
        assert_eq!(out.len(), 1);
    }
}

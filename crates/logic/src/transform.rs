//! Formula transformations — the rewrite rules of Section 4.
//!
//! The pipeline the paper prescribes (§4.4) before building any BDD:
//!
//! 1. **standardize apart** bound variables (unique names, a prerequisite
//!    for capture-free quantifier movement);
//! 2. convert to **prenex normal form** ([`to_prenex`]) — this *is* the
//!    quantifier pull-up rule for both ∃ (Rule 3 / Equation 3) and ∀
//!    (Equation 4);
//! 3. **eliminate the leading quantifier block** ([`eliminate_leading_block`],
//!    §4.1): a leading ∀-block turns the check into a validity test
//!    (`BDD = TRUE`?), a leading ∃-block into a satisfiability test
//!    (`BDD ≠ FALSE`?) — both O(1) on an ROBDD;
//! 4. **push remaining ∀ into conjunctions** ([`push_forall_down`],
//!    Rule 5): `∀x (φ₁ ∧ φ₂) ⇒ ∀x φ₁ ∧ ∀x φ₂`, because `∀x φᵢ` is usually a
//!    much smaller BDD than `φᵢ`.

use crate::ast::Formula;
use std::collections::HashSet;

/// A quantifier kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Quant {
    /// Existential.
    Exists,
    /// Universal.
    Forall,
}

/// A prenex-normal-form formula: quantifier prefix plus quantifier-free
/// matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct Prenex {
    /// Outermost-first quantifier prefix.
    pub prefix: Vec<(Quant, String)>,
    /// Quantifier-free matrix.
    pub matrix: Formula,
}

/// What test decides the (quantifier-stripped) constraint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckMode {
    /// Constraint holds iff the compiled BDD is TRUE (leading ∀ dropped).
    Validity,
    /// Constraint holds iff the compiled BDD is not FALSE (leading ∃
    /// dropped, or no quantifiers at all).
    Satisfiability,
}

/// Rename bound variables so each binder introduces a globally unique name.
/// Free variables are untouched, and the **first** binder of each name keeps
/// it (so the common case — a sentence whose binders are already distinct —
/// is the identity, and user-chosen names survive into reports).
pub fn standardize_apart(f: &Formula) -> Formula {
    let mut counter = 0usize;
    let mut used: HashSet<String> = f.free_vars().into_iter().collect();
    rename(f, &mut counter, &used.clone(), &mut used)
}

fn fresh(base: &str, counter: &mut usize, used: &mut HashSet<String>) -> String {
    loop {
        *counter += 1;
        let cand = format!("{base}_{counter}");
        if used.insert(cand.clone()) {
            return cand;
        }
    }
}

fn rename(
    f: &Formula,
    counter: &mut usize,
    _all: &HashSet<String>,
    used: &mut HashSet<String>,
) -> Formula {
    match f {
        Formula::Exists(vs, g) | Formula::Forall(vs, g) => {
            let mut body = (**g).clone();
            let mut new_vs = Vec::with_capacity(vs.len());
            let mut seen_here: HashSet<&String> = HashSet::new();
            for v in vs {
                // First binder of a name keeps it; later binders (siblings,
                // nested scopes, duplicates in one binder) are freshened.
                let nv = if used.insert(v.clone()) {
                    v.clone()
                } else {
                    fresh(v, counter, used)
                };
                if seen_here.insert(v) && nv != *v {
                    body = body.rename_free(v, &nv);
                }
                new_vs.push(nv);
            }
            let body = rename(&body, counter, _all, used);
            match f {
                Formula::Exists(..) => Formula::Exists(new_vs, Box::new(body)),
                _ => Formula::Forall(new_vs, Box::new(body)),
            }
        }
        Formula::Not(g) => Formula::Not(Box::new(rename(g, counter, _all, used))),
        Formula::And(fs) => {
            Formula::And(fs.iter().map(|g| rename(g, counter, _all, used)).collect())
        }
        Formula::Or(fs) => Formula::Or(fs.iter().map(|g| rename(g, counter, _all, used)).collect()),
        Formula::Implies(a, b) => Formula::Implies(
            Box::new(rename(a, counter, _all, used)),
            Box::new(rename(b, counter, _all, used)),
        ),
        other => other.clone(),
    }
}

/// Negation normal form: `Implies` desugared, negations pushed onto atoms,
/// quantifiers flipped under negation.
pub fn to_nnf(f: &Formula) -> Formula {
    nnf(f, false)
}

fn nnf(f: &Formula, neg: bool) -> Formula {
    match f {
        Formula::True => {
            if neg {
                Formula::False
            } else {
                Formula::True
            }
        }
        Formula::False => {
            if neg {
                Formula::True
            } else {
                Formula::False
            }
        }
        Formula::Atom { .. } | Formula::Eq(..) | Formula::InSet(..) => {
            if neg {
                f.clone().not()
            } else {
                f.clone()
            }
        }
        Formula::Not(g) => nnf(g, !neg),
        Formula::And(fs) => {
            let parts = fs.iter().map(|g| nnf(g, neg)).collect();
            if neg {
                Formula::Or(parts)
            } else {
                Formula::And(parts)
            }
        }
        Formula::Or(fs) => {
            let parts = fs.iter().map(|g| nnf(g, neg)).collect();
            if neg {
                Formula::And(parts)
            } else {
                Formula::Or(parts)
            }
        }
        Formula::Implies(a, b) => {
            // a → b ≡ ¬a ∨ b, and ¬(a → b) ≡ a ∧ ¬b: each side once.
            let na = nnf(a, !neg);
            let nb = nnf(b, neg);
            if neg {
                Formula::And(vec![na, nb])
            } else {
                Formula::Or(vec![na, nb])
            }
        }
        Formula::Exists(vs, g) => {
            let body = Box::new(nnf(g, neg));
            if neg {
                Formula::Forall(vs.clone(), body)
            } else {
                Formula::Exists(vs.clone(), body)
            }
        }
        Formula::Forall(vs, g) => {
            let body = Box::new(nnf(g, neg));
            if neg {
                Formula::Exists(vs.clone(), body)
            } else {
                Formula::Forall(vs.clone(), body)
            }
        }
    }
}

/// Convert to prenex normal form. Internally standardizes apart and
/// converts to NNF, so any sentence is accepted. This implements the
/// quantifier pull-up of §4.3 (Equations 3 and 4 read left-to-right).
pub fn to_prenex(f: &Formula) -> Prenex {
    let f = standardize_apart(f);
    let f = to_nnf(&f);
    let mut prefix = Vec::new();
    let matrix = pull(&f, &mut prefix);
    Prenex { prefix, matrix }
}

fn pull(f: &Formula, prefix: &mut Vec<(Quant, String)>) -> Formula {
    match f {
        Formula::Exists(vs, g) => {
            prefix.extend(vs.iter().map(|v| (Quant::Exists, v.clone())));
            pull(g, prefix)
        }
        Formula::Forall(vs, g) => {
            prefix.extend(vs.iter().map(|v| (Quant::Forall, v.clone())));
            pull(g, prefix)
        }
        Formula::And(fs) => Formula::And(fs.iter().map(|g| pull(g, prefix)).collect()),
        Formula::Or(fs) => Formula::Or(fs.iter().map(|g| pull(g, prefix)).collect()),
        // NNF leaves only literals below here.
        other => other.clone(),
    }
}

/// Drop the leading quantifier block of one kind (§4.1). Returns the check
/// mode the caller must apply to the remaining formula:
/// `∀x₁∀x₂∃x₃ φ ↦ (Validity, ∃x₃ φ)`; `∃x̄∀y ψ ↦ (Satisfiability, ∀y ψ)`.
pub fn eliminate_leading_block(p: &Prenex) -> (CheckMode, Prenex) {
    match p.prefix.first() {
        None => (CheckMode::Satisfiability, p.clone()),
        Some(&(q, _)) => {
            let block_len = p.prefix.iter().take_while(|&&(k, _)| k == q).count();
            let mode = if q == Quant::Forall {
                CheckMode::Validity
            } else {
                CheckMode::Satisfiability
            };
            (
                mode,
                Prenex {
                    prefix: p.prefix[block_len..].to_vec(),
                    matrix: p.matrix.clone(),
                },
            )
        }
    }
}

/// Rule 5: distribute universal quantification over conjunction, assigning
/// to each conjunct only the variables it actually uses:
/// `∀x̄ (φ₁ ∧ φ₂) ⇒ ∀x̄₁ φ₁ ∧ ∀x̄₂ φ₂`. Applied recursively.
///
/// Note: the output can bind the same name in several sibling conjuncts.
/// That is deliberate — all copies denote the *same* sorted variable, and
/// the BDD compiler keeps one global variable→domain map — but it means a
/// pushed-down formula is not always independently re-analyzable: a
/// conjunct like `∀y. y = z` has no atom to anchor `y`'s sort once torn
/// from its siblings, so [`crate::infer_sorts`] (after a fresh
/// standardize-apart) may conservatively reject it. Consumers should infer
/// sorts **before** pushing down, as the compiler does.
pub fn push_forall_down(f: &Formula) -> Formula {
    push_forall_down_gated(f, &mut |_, _| true, &mut PassEffect::default())
}

/// Effect record of one gated transform pass: how often the rule actually
/// rewrote a site, and how often its cost gate declined an applicable one.
/// This is the per-pass evidence the planner folds into a `CheckPlan`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PassEffect {
    /// Sites the rule rewrote.
    pub fired: u64,
    /// Applicable sites the gate declined (left untouched).
    pub gated: u64,
}

/// [`push_forall_down`] with a **cost gate**: at every applicable
/// site — a universal block directly over a conjunction — the `gate`
/// callback is consulted with the block's variables and the conjuncts.
/// Returning `true` distributes the block (Rule 5) exactly as
/// [`push_forall_down`] would; returning `false` leaves the block in place
/// (still recursing into the conjuncts). Both outcomes are
/// semantics-preserving; the gate only chooses the cheaper *shape*. The
/// firing/declining tallies land in `eff`.
pub fn push_forall_down_gated(
    f: &Formula,
    gate: &mut dyn FnMut(&[String], &[Formula]) -> bool,
    eff: &mut PassEffect,
) -> Formula {
    match f {
        Formula::Forall(vs, g) => {
            let body = push_forall_down_gated(g, gate, eff);
            match body {
                Formula::And(parts) => {
                    if gate(vs, &parts) {
                        eff.fired += 1;
                        let new_parts = parts
                            .into_iter()
                            .map(|p| {
                                let free: HashSet<String> = p.free_vars().into_iter().collect();
                                let mine: Vec<String> =
                                    vs.iter().filter(|v| free.contains(*v)).cloned().collect();
                                let p = push_forall_down_gated(&p, gate, eff);
                                if mine.is_empty() {
                                    p
                                } else {
                                    Formula::Forall(mine, Box::new(p))
                                }
                            })
                            .collect();
                        Formula::And(new_parts)
                    } else {
                        eff.gated += 1;
                        Formula::Forall(vs.clone(), Box::new(Formula::And(parts)))
                    }
                }
                other => Formula::Forall(vs.clone(), Box::new(other)),
            }
        }
        Formula::Exists(vs, g) => {
            Formula::Exists(vs.clone(), Box::new(push_forall_down_gated(g, gate, eff)))
        }
        Formula::Not(g) => Formula::Not(Box::new(push_forall_down_gated(g, gate, eff))),
        Formula::And(fs) => Formula::And(
            fs.iter()
                .map(|g| push_forall_down_gated(g, gate, eff))
                .collect(),
        ),
        Formula::Or(fs) => Formula::Or(
            fs.iter()
                .map(|g| push_forall_down_gated(g, gate, eff))
                .collect(),
        ),
        Formula::Implies(a, b) => Formula::Implies(
            Box::new(push_forall_down_gated(a, gate, eff)),
            Box::new(push_forall_down_gated(b, gate, eff)),
        ),
        other => other.clone(),
    }
}

/// Flatten nested n-ary connectives, drop boolean units, reduce empty
/// set-membership to `false`, and drop vacuous quantifiers. Keeps the AST
/// small and normal between rewrite steps.
pub fn simplify(f: &Formula) -> Formula {
    match f {
        Formula::InSet(_, vals) if vals.is_empty() => Formula::False,
        Formula::And(fs) => {
            let mut parts = Vec::new();
            for g in fs {
                match simplify(g) {
                    Formula::True => {}
                    Formula::False => return Formula::False,
                    Formula::And(inner) => parts.extend(inner),
                    other => parts.push(other),
                }
            }
            match parts.len() {
                0 => Formula::True,
                1 => parts.pop().unwrap(),
                _ => Formula::And(parts),
            }
        }
        Formula::Or(fs) => {
            let mut parts = Vec::new();
            for g in fs {
                match simplify(g) {
                    Formula::False => {}
                    Formula::True => return Formula::True,
                    Formula::Or(inner) => parts.extend(inner),
                    other => parts.push(other),
                }
            }
            match parts.len() {
                0 => Formula::False,
                1 => parts.pop().unwrap(),
                _ => Formula::Or(parts),
            }
        }
        Formula::Not(g) => match simplify(g) {
            Formula::True => Formula::False,
            Formula::False => Formula::True,
            Formula::Not(inner) => *inner,
            other => other.not(),
        },
        Formula::Implies(a, b) => {
            let (sa, sb) = (simplify(a), simplify(b));
            match (&sa, &sb) {
                (Formula::False, _) | (_, Formula::True) => Formula::True,
                (Formula::True, _) => sb,
                _ => sa.implies(sb),
            }
        }
        Formula::Exists(vs, g) => match simplify(g) {
            c @ (Formula::True | Formula::False) => c,
            other => {
                // Drop binders whose variable no longer occurs (sound:
                // active domains are never empty). Simplification can
                // create such vacuous quantifiers, and downstream sort
                // inference would reject them.
                let free = other.free_vars();
                let vs: Vec<String> = vs.iter().filter(|v| free.contains(v)).cloned().collect();
                if vs.is_empty() {
                    other
                } else {
                    Formula::Exists(vs, Box::new(other))
                }
            }
        },
        Formula::Forall(vs, g) => match simplify(g) {
            c @ (Formula::True | Formula::False) => c,
            other => {
                let free = other.free_vars();
                let vs: Vec<String> = vs.iter().filter(|v| free.contains(v)).cloned().collect();
                if vs.is_empty() {
                    other
                } else {
                    Formula::Forall(vs, Box::new(other))
                }
            }
        },
        other => other.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse;

    #[test]
    fn standardize_apart_makes_binders_unique() {
        let f = parse("(exists x. R(x)) & (exists x. S(x))").unwrap();
        let g = standardize_apart(&f);
        let mut names = Vec::new();
        fn binders(f: &Formula, out: &mut Vec<String>) {
            match f {
                Formula::Exists(vs, g) | Formula::Forall(vs, g) => {
                    out.extend(vs.clone());
                    binders(g, out);
                }
                Formula::And(fs) | Formula::Or(fs) => fs.iter().for_each(|x| binders(x, out)),
                Formula::Not(x) => binders(x, out),
                Formula::Implies(a, b) => {
                    binders(a, out);
                    binders(b, out);
                }
                _ => {}
            }
        }
        binders(&g, &mut names);
        let set: HashSet<&String> = names.iter().collect();
        assert_eq!(
            set.len(),
            names.len(),
            "binder names must be unique: {names:?}"
        );
    }

    #[test]
    fn nnf_pushes_negation_through_quantifiers() {
        let f = parse("!(forall x. R(x))").unwrap();
        let g = to_nnf(&f);
        match g {
            Formula::Exists(_, body) => assert!(matches!(*body, Formula::Not(_))),
            other => panic!("expected exists, got {other}"),
        }
    }

    #[test]
    fn nnf_desugars_implication() {
        let f = parse("R(x) -> S(x)").unwrap();
        let g = to_nnf(&f);
        match g {
            Formula::Or(parts) => {
                assert!(matches!(parts[0], Formula::Not(_)));
                assert!(matches!(parts[1], Formula::Atom { .. }));
            }
            other => panic!("{other}"),
        }
    }

    #[test]
    fn nnf_negated_implication() {
        let f = parse("!(R(x) -> S(x))").unwrap();
        let g = to_nnf(&f);
        // ¬(a→b) = a ∧ ¬b
        match g {
            Formula::And(parts) => {
                assert!(matches!(parts[0], Formula::Atom { .. }));
                assert!(matches!(parts[1], Formula::Not(_)));
            }
            other => panic!("{other}"),
        }
    }

    #[test]
    fn nnf_is_linear_on_a_deep_negated_implication_chain() {
        // ¬(A → (A → … → A)) with 48 arrows is A ∧ (A ∧ … (A ∧ ¬A)). Each
        // side of a negated implication is converted once, so this takes
        // 48 steps, not 2⁴⁸.
        const DEPTH: usize = 48;
        let a = Formula::atom("A", vec![crate::Term::var("c")]);
        let chain = (0..DEPTH).fold(a.clone(), |g, _| a.clone().implies(g));
        let mut g = to_nnf(&chain.not());
        for level in 0..DEPTH {
            let Formula::And(mut parts) = g else {
                panic!("level {level}: expected a conjunction, got {g}");
            };
            assert_eq!(parts.len(), 2, "level {level}");
            assert_eq!(parts[0], a, "level {level}");
            g = parts.pop().unwrap();
        }
        assert_eq!(g, a.not());
    }

    #[test]
    fn prenex_of_paper_formula_matches_equation_2() {
        // ∀xS ∃z (STUDENT ⇒ ∃xC (...)) pulls to ∀xS ∃z ∃xC (...)
        let f = parse(
            r#"forall s. (exists z. STUDENT(s, "CS", z)) ->
                 exists k. (COURSE(k, "Programming") & TAKES(s, k))"#,
        )
        .unwrap();
        let p = to_prenex(&f);
        assert_eq!(p.prefix.len(), 3);
        assert_eq!(p.prefix[0].0, Quant::Forall);
        // the ∃z under negation flips to ∀ in NNF: ¬∃z STUDENT → ∀z ¬STUDENT
        assert_eq!(p.prefix[1].0, Quant::Forall);
        assert_eq!(p.prefix[2].0, Quant::Exists);
        assert!(p.matrix.free_vars().len() == 3);
    }

    #[test]
    fn prenex_matrix_is_quantifier_free() {
        let f = parse("forall x. (exists y. R(x, y)) | (forall z. S(x, z))").unwrap();
        let p = to_prenex(&f);
        fn has_quant(f: &Formula) -> bool {
            match f {
                Formula::Exists(..) | Formula::Forall(..) => true,
                Formula::Not(g) => has_quant(g),
                Formula::And(fs) | Formula::Or(fs) => fs.iter().any(has_quant),
                Formula::Implies(a, b) => has_quant(a) || has_quant(b),
                _ => false,
            }
        }
        assert!(!has_quant(&p.matrix));
        assert_eq!(p.prefix.len(), 3);
    }

    #[test]
    fn eliminate_leading_forall_block() {
        let f = parse("forall x, y. exists z. R(x, y) & S(y, z)").unwrap();
        let p = to_prenex(&f);
        let (mode, rest) = eliminate_leading_block(&p);
        assert_eq!(mode, CheckMode::Validity);
        assert_eq!(rest.prefix.len(), 1);
        assert_eq!(rest.prefix[0].0, Quant::Exists);
    }

    #[test]
    fn eliminate_leading_exists_block() {
        let f = parse("exists x, y. R(x, y)").unwrap();
        let p = to_prenex(&f);
        let (mode, rest) = eliminate_leading_block(&p);
        assert_eq!(mode, CheckMode::Satisfiability);
        assert!(rest.prefix.is_empty());
    }

    #[test]
    fn strip_ground_formula() {
        let f = parse(r#""a" = "a""#).unwrap();
        let p = to_prenex(&f);
        let (mode, rest) = eliminate_leading_block(&p);
        assert_eq!(mode, CheckMode::Satisfiability);
        assert_eq!(rest.matrix, p.matrix);
    }

    #[test]
    fn push_forall_distributes_over_conjunction() {
        let f = parse("forall x. R(x) & S(x) & T(y)").unwrap();
        let g = push_forall_down(&f);
        match g {
            Formula::And(parts) => {
                assert_eq!(parts.len(), 3);
                assert!(matches!(parts[0], Formula::Forall(..)));
                assert!(matches!(parts[1], Formula::Forall(..)));
                // T(y) doesn't mention x: no quantifier wrapped around it.
                assert!(matches!(parts[2], Formula::Atom { .. }));
            }
            other => panic!("{other}"),
        }
    }

    #[test]
    fn push_forall_keeps_disjunction_intact() {
        let f = parse("forall x. R(x) | S(x)").unwrap();
        let g = push_forall_down(&f);
        assert!(
            matches!(g, Formula::Forall(..)),
            "∀ does not distribute over ∨"
        );
    }

    #[test]
    fn simplify_flattens_and_prunes() {
        let f = parse("(R(x) & true) & (S(x) & (T(x) & true))").unwrap();
        match simplify(&f) {
            Formula::And(parts) => assert_eq!(parts.len(), 3),
            other => panic!("{other}"),
        }
        assert_eq!(simplify(&parse("R(x) & false").unwrap()), Formula::False);
        assert_eq!(simplify(&parse("R(x) | true").unwrap()), Formula::True);
        assert_eq!(simplify(&parse("!!R(x)").unwrap()), parse("R(x)").unwrap());
        assert_eq!(simplify(&parse("false -> R(x)").unwrap()), Formula::True);
        assert_eq!(simplify(&parse("exists x. true").unwrap()), Formula::True);
    }
}

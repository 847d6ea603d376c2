//! [`CheckPlan`](crate::plan::CheckPlan) → verdict: the plan executor.
//!
//! The back half of the FOL → BDD compiler: given a prepared
//! [`BddStep`] or [`SqlStep`] (built fresh by [`crate::planner`] for every
//! check), run it against the live database. This
//! is the only module on the check path that touches a BDD manager, so the
//! degradation ladder in [`crate::checker`] can treat every rung as "execute
//! a different node of the same plan" rather than re-deriving the query.
//!
//! A check decides without building the set it tests: [`execute_bdd`]
//! compiles the body's top-level conjuncts one by one and asks the kernel
//! whether their conjunction is empty
//! ([`relcheck_bdd::BddManager::and_is_false`]), which creates no node.
//! The witness path ([`violations_bdd`]) needs the set itself, so it
//! builds it: it asks the planner for a violation-set step, compiles it
//! with the same compiler as the check, and conjoins each projected atom
//! back in whole.
//!
//! Domain hygiene (carried over from the monolith): BDD blocks of
//! `⌈log₂ n⌉` bits can encode values ≥ `n`. Relation indices never contain
//! such codes, but complements introduced by negation do, so a quantifier
//! over a general body confines its variables with the block's range
//! constraint, and the final test confines every stripped variable that no
//! positive top-level atom already confines. An `∃x̄` over a single atom
//! that uses each of `x̄` once conjoins no range: the atom already confines
//! them, so it projects their columns away on the index instead
//! (`Compiler::compile_quant`). This keeps BDD answers identical to
//! active-domain semantics (the brute-force oracle in `relcheck-logic`).

use crate::error::{CoreError, Result};
use crate::index::{AtomAction, LogicalDatabase};
use crate::plan::{BddStep, BddTest, PlanOptions, SqlStep};
use crate::planner::{bdd_step, collect_atoms};
use crate::sqlgen::Shape;
use crate::telemetry::{RewriteRule, RuleFiring};
use relcheck_bdd::{Bdd, DomainId, Op};
use relcheck_logic::{infer_sorts, Formula, Term};
use relcheck_relstore::plan::execute;
use relcheck_relstore::Database;
use std::collections::HashMap;

/// Execute a plan's BDD step against the live indices and apply the step's
/// O(1) test — without building the set it tests.
///
/// Both tests ask one question: is `ranges ∧ c₁ ∧ … ∧ cₙ` empty, over the
/// body's top-level conjuncts `cᵢ`? Each conjunct is compiled on its own,
/// and a FALSE one answers at once. The rest go to
/// [`relcheck_bdd::BddManager::and_is_false`], which walks their
/// conjunction for one satisfying path and builds no node; past three
/// operands the leading ones are conjoined first. Only the ranges of
/// stripped variables that no positive top-level atom mentions are
/// conjoined: an index holds no out-of-range code, so an atom implies the
/// ranges of its variables (DESIGN §5b F6).
///
/// Every relation mentioned must already have an index built (the
/// [`crate::checker::Checker`] guarantees this). Propagates
/// `BddError::NodeLimit` if the manager's node budget is exhausted — the
/// signal to fall to the next rung. One R2 event is appended to `rules`
/// per atom compiled with ≥ 1 rename (the plan-level R1/R3/R4 firings are
/// already recorded in the plan's passes).
pub fn execute_bdd(
    ldb: &mut LogicalDatabase,
    step: &BddStep,
    rules: &mut Vec<RuleFiring>,
) -> Result<bool> {
    let mut c = Compiler::for_step(ldb, step, rules)?;
    let mut ops = vec![c.ranges(&unconfined(step))?];
    for g in conjuncts(&step.body) {
        let x = c.compile(g)?;
        if x.is_false() {
            return Ok(step.test == BddTest::ViolationsEmpty);
        }
        ops.push(x);
    }
    ops.retain(|x| !x.is_true());
    #[cfg(test)]
    if PANIC_BEFORE_TEST.with(|armed| armed.replace(false)) {
        panic!("injected panic before the emptiness test");
    }
    let mgr = c.ldb.manager_mut();
    while ops.len() > 3 {
        let first = ops.remove(0);
        ops[0] = mgr.and(first, ops[0])?;
    }
    ops.resize(3, Bdd::TRUE);
    let empty = mgr.and_is_false(ops[0], ops[1], ops[2])?;
    Ok(match step.test {
        BddTest::ViolationsEmpty => empty,
        BddTest::Satisfiable => !empty,
    })
}

#[cfg(test)]
thread_local! {
    /// Armed, the next [`execute_bdd`] on this thread panics once its
    /// operands are compiled: the test-only site that drives the checker's
    /// panic guard.
    pub(crate) static PANIC_BEFORE_TEST: std::cell::Cell<bool> =
        const { std::cell::Cell::new(false) };
}

/// The top-level conjuncts of a check body (the whole body if it is not a
/// conjunction).
fn conjuncts(body: &Formula) -> &[Formula] {
    match body {
        Formula::And(fs) => fs.as_slice(),
        f => std::slice::from_ref(f),
    }
}

/// The stripped variables whose ranges a step must conjoin: those that no
/// positive top-level atom of its body mentions. An index holds no code
/// outside its columns' domains, so such an atom confines its variables —
/// renamed, equated or projected — and conjoining their ranges would
/// change nothing (DESIGN §5b F6).
fn unconfined(step: &BddStep) -> Vec<String> {
    let mut confined: Vec<&String> = Vec::new();
    for g in conjuncts(&step.body) {
        if let Formula::Atom { args, .. } = g {
            confined.extend(args.iter().filter_map(|t| match t {
                Term::Var(v) => Some(v),
                Term::Const(_) => None,
            }));
        }
    }
    step.stripped
        .iter()
        .filter(|v| !confined.contains(v))
        .cloned()
        .collect()
}

/// The atom-local variables of a check body: stripped leading-block
/// variables that occur exactly once in `body`, inside an atom that is a
/// top-level conjunct (or the whole body). The O(1) test only asks whether
/// `∃stripped. body` is satisfiable, and `∃v.(A ∧ B) = (∃v.A) ∧ B` when `v`
/// is absent from `B`, so such an atom may project the variable's column
/// away before renaming anything — early quantification (Burch, Clarke and
/// Long 1991). A self-join FD's unshared columns are the common case.
fn atom_local_vars(body: &Formula, stripped: &[String]) -> Vec<String> {
    fn count<'f>(f: &'f Formula, n: &mut HashMap<&'f str, usize>) {
        let mut term = |t: &'f Term| {
            if let Term::Var(v) = t {
                *n.entry(v.as_str()).or_insert(0) += 1;
            }
        };
        match f {
            Formula::True | Formula::False => {}
            Formula::Atom { args, .. } => args.iter().for_each(term),
            Formula::Eq(a, b) => {
                term(a);
                term(b);
            }
            Formula::InSet(t, _) => term(t),
            Formula::Not(g) | Formula::Exists(_, g) | Formula::Forall(_, g) => count(g, n),
            Formula::And(fs) | Formula::Or(fs) => fs.iter().for_each(|g| count(g, n)),
            Formula::Implies(a, b) => {
                count(a, n);
                count(b, n);
            }
        }
    }
    let mut occurrences = HashMap::new();
    count(body, &mut occurrences);
    let mut local = Vec::new();
    for g in conjuncts(body) {
        if let Formula::Atom { args, .. } = g {
            for t in args {
                if let Term::Var(v) = t {
                    if occurrences[v.as_str()] == 1 && stripped.contains(v) {
                        local.push(v.clone());
                    }
                }
            }
        }
    }
    local
}

/// The atom of `∃vs. body` and the variables bound over it, when `body`
/// is one atom behind zero or more further `∃`s and each bound variable
/// occurs in it exactly once — the shape [`Compiler::compile_quant`]
/// compiles by projecting the bound columns. A repeated bound variable
/// (`∃x. T(x, x)`) needs its equality first, so it takes the general route.
fn projectable_atom<'f>(
    vs: &'f [String],
    body: &'f Formula,
) -> Option<(&'f str, &'f [Term], Vec<&'f String>)> {
    let mut bound: Vec<&String> = vs.iter().collect();
    let mut g = body;
    while let Formula::Exists(more, inner) = g {
        bound.extend(more);
        g = inner;
    }
    let Formula::Atom { relation, args } = g else {
        return None;
    };
    let uses = |v: &String| {
        args.iter()
            .filter(|t| matches!(t, Term::Var(w) if w == v))
            .count()
    };
    bound
        .iter()
        .all(|v| uses(v) == 1)
        .then_some((relation.as_str(), args.as_slice(), bound))
}

/// Execute a plan's pre-translated SQL step: run the relational plan and
/// interpret the result per its shape.
pub fn execute_sql(db: &Database, step: &SqlStep) -> Result<bool> {
    let out = execute(db, &step.translated.plan)?;
    Ok(match step.translated.shape {
        Shape::Violations => out.is_empty(),
        Shape::Witnesses => !out.is_empty(),
    })
}

/// A materialized violation set: the BDD over the constraint's outer ∀
/// variables, plus per-variable metadata for decoding.
pub struct ViolationSet {
    /// Characteristic function of the violating assignments.
    pub bdd: Bdd,
    /// `(variable name, its finite domain, its attribute class)` for every
    /// outer ∀ variable (every stripped variable), in prefix order.
    pub vars: Vec<(String, DomainId, String)>,
}

/// Build the violating-assignment BDD of a ∀-prefixed constraint (the BDD
/// counterpart of the SQL violation query). Returns `None` for constraints
/// that do not start with a universal block (existentials have witnesses,
/// not violations). The step comes from [`crate::planner::bdd_step`] with
/// the rewrites forced on — enumeration needs the violation-set shape
/// whether or not the check plan ran them — but the options' join
/// strategy is honoured.
///
/// The step compiles with the check's compiler, atom-local columns
/// projected, and is built: `P = ranges ∧ body[A ↦ ∃l.A]`, over the ranges
/// the check conjoins ([`execute_bdd`]). Since `A ⇒ ∃l.A`, the violation
/// set is `V = P ∧ A` for every such atom `A`: each one is compiled again
/// whole and conjoined in body order, which also confines its local
/// variables. ROBDD canonicity makes
/// `V` the very node an unprojected compile with every range conjoined
/// would build, without its unpruned joins.
pub fn violations_bdd(
    ldb: &mut LogicalDatabase,
    f: &Formula,
    options: PlanOptions,
) -> Result<Option<ViolationSet>> {
    let forced = PlanOptions {
        rewrites: true,
        ..options
    };
    let step = bdd_step(ldb.db(), f, forced, &mut Vec::new());
    if step.test != BddTest::ViolationsEmpty {
        return Ok(None);
    }
    // Witness enumeration reports no rule firings; a check already did.
    let mut unreported = Vec::new();
    let mut c = Compiler::for_step(ldb, &step, &mut unreported)?;
    let phi = c.compile(&step.body)?;
    let ranges = c.ranges(&unconfined(&step))?;
    let mut bdd = c.ldb.manager_mut().and(ranges, phi)?;
    let local = std::mem::take(&mut c.local);
    for atom in conjuncts(&step.body) {
        if bdd.is_false() {
            break;
        }
        let Formula::Atom { args, .. } = atom else {
            continue;
        };
        if args
            .iter()
            .any(|t| matches!(t, Term::Var(v) if local.contains(v)))
        {
            let a = c.compile(atom)?;
            bdd = c.ldb.manager_mut().and(bdd, a)?;
        }
    }
    let vars = step
        .stripped
        .iter()
        .map(|v| (v.clone(), c.var_doms[v], c.sorts[v].clone()))
        .collect();
    Ok(Some(ViolationSet { bdd, vars }))
}

/// Assign every first-order variable a finite domain.
///
/// This is where the paper's rename rule (§4.2) pays off or doesn't: the
/// expensive case is renaming a *large* relation index into fresh query
/// domains. The paper renames R2 into R1's variables — i.e. the big
/// relation keeps its own blocks. We generalize that: walking the
/// formula's atoms **largest relation first** (positions in the relation's
/// own index ordering), each variable *claims the column domain of its
/// first unclaimed occurrence*. The biggest atom then compiles with an
/// identity rename (free), and only smaller atoms are moved. Variables that
/// cannot claim a domain (repeats, conflicts, equality-only variables) draw
/// from per-class query-domain pools in visit order, which keeps those
/// renames order-preserving too.
pub(crate) fn allocate_query_domains(
    ldb: &mut LogicalDatabase,
    f: &Formula,
    sorts: &HashMap<String, String>,
) -> Result<HashMap<String, DomainId>> {
    // Gather atoms, largest relation first.
    let mut atoms: Vec<(String, Vec<Term>)> = Vec::new();
    collect_atoms(f, &mut atoms);
    atoms.sort_by_key(|(rel, _)| std::cmp::Reverse(ldb.db().relation(rel).map_or(0, |r| r.len())));
    let mut out: HashMap<String, DomainId> = HashMap::new();
    let mut claimed: std::collections::HashSet<DomainId> = std::collections::HashSet::new();
    let mut visit_order: Vec<String> = Vec::new();
    for (relation, args) in &atoms {
        let Some(idx) = ldb.index(relation) else {
            continue;
        };
        let positions = idx.ordering.clone();
        let domains = idx.domains.clone();
        for &i in &positions {
            if let Some(Term::Var(v)) = args.get(i) {
                if !visit_order.contains(v) {
                    visit_order.push(v.clone());
                }
                if !out.contains_key(v) && claimed.insert(domains[i]) {
                    out.insert(v.clone(), domains[i]);
                }
            }
        }
    }
    // Remaining variables (couldn't claim, or appear in no atom): pooled
    // query domains, allocated in visit order then by name.
    let mut rest: Vec<&String> = sorts.keys().filter(|v| !visit_order.contains(v)).collect();
    rest.sort_unstable();
    let all: Vec<String> = visit_order
        .iter()
        .cloned()
        .chain(rest.into_iter().cloned())
        .collect();
    let mut slot_of_class: HashMap<&str, usize> = HashMap::new();
    for var in &all {
        if out.contains_key(var) {
            continue;
        }
        let class = sorts[var].as_str();
        let slot = slot_of_class.entry(class).or_insert(0);
        out.insert(var.clone(), ldb.query_domain(class, *slot)?);
        *slot += 1;
    }
    Ok(out)
}

/// The recursive FOL → BDD compiler over a fixed variable→domain map.
struct Compiler<'a> {
    ldb: &'a mut LogicalDatabase,
    var_doms: HashMap<String, DomainId>,
    sorts: HashMap<String, String>,
    /// Compile equi-joins by renaming (R2) instead of equality cubes.
    join_rename: bool,
    /// Atom-local variables ([`atom_local_vars`]): their columns are
    /// projected away instead of renamed.
    local: Vec<String>,
    /// R2 firing sink: one event per atom compiled with ≥ 1 rename.
    rules: &'a mut Vec<RuleFiring>,
}

impl<'a> Compiler<'a> {
    /// A compiler for `step`: query domains allocated over its `alloc`
    /// formula, atom-local variables found in its body.
    fn for_step(
        ldb: &'a mut LogicalDatabase,
        step: &BddStep,
        rules: &'a mut Vec<RuleFiring>,
    ) -> Result<Self> {
        let sorts = infer_sorts(ldb.db(), &step.alloc)?;
        let var_doms = allocate_query_domains(ldb, &step.alloc, &sorts)?;
        Ok(Compiler {
            ldb,
            var_doms,
            sorts,
            join_rename: step.join_rename,
            local: atom_local_vars(&step.body, &step.stripped),
            rules,
        })
    }

    fn compile(&mut self, f: &Formula) -> Result<Bdd> {
        match f {
            Formula::True => Ok(Bdd::TRUE),
            Formula::False => Ok(Bdd::FALSE),
            Formula::Atom { relation, args } => self.compile_atom(relation, args, &[]),
            Formula::Eq(a, b) => self.compile_eq(a, b),
            Formula::InSet(t, vals) => self.compile_in_set(t, vals),
            Formula::Not(g) => {
                let x = self.compile(g)?;
                Ok(self.ldb.manager_mut().not(x)?)
            }
            Formula::And(fs) => {
                let mut acc = Bdd::TRUE;
                for g in fs {
                    let x = self.compile(g)?;
                    acc = self.ldb.manager_mut().and(acc, x)?;
                    if acc.is_false() {
                        break;
                    }
                }
                Ok(acc)
            }
            Formula::Or(fs) => {
                let mut acc = Bdd::FALSE;
                for g in fs {
                    let x = self.compile(g)?;
                    acc = self.ldb.manager_mut().or(acc, x)?;
                    if acc.is_true() {
                        break;
                    }
                }
                Ok(acc)
            }
            Formula::Implies(a, b) => {
                let fa = self.compile(a)?;
                let fb = self.compile(b)?;
                Ok(self.ldb.manager_mut().imp(fa, fb)?)
            }
            Formula::Exists(vs, g) => self.compile_quant(vs, g, true),
            Formula::Forall(vs, g) => self.compile_quant(vs, g, false),
        }
    }

    /// Conjunction of range constraints for the listed variables' domains.
    fn ranges_doms(&mut self, doms: &[DomainId]) -> Result<Bdd> {
        let mut acc = Bdd::TRUE;
        for &d in doms {
            let mgr = self.ldb.manager_mut();
            let r = mgr.domain_range(d)?;
            acc = mgr.and(acc, r)?;
        }
        Ok(acc)
    }

    fn ranges(&mut self, vars: &[String]) -> Result<Bdd> {
        let doms: Vec<DomainId> = vars.iter().map(|v| self.var_doms[v]).collect();
        self.ranges_doms(&doms)
    }

    /// `∃vs. body` or `∀vs. body`, with `body`'s free variables in their
    /// query domains.
    ///
    /// An `∃` whose body is one atom, possibly behind more `∃`s (R3 leaves
    /// `∃a. ∃s. R(c, a, s)`), and which uses every bound variable exactly
    /// once in it, is that atom with the bound columns projected away on
    /// the index's own domains before any rename: early quantification
    /// inside the atom. Its ranges are not conjoined: an index holds no
    /// out-of-range code, so `∃x̄.(A ∧ ranges(x̄)) = ∃x̄.A` (DESIGN §5b F6),
    /// and ROBDD canonicity makes the result the node the general route
    /// builds. Unlike that route's unrooted `app_exists` result, it is an
    /// atom-cache entry: kept across collections and patched after a
    /// delta.
    fn compile_quant(&mut self, vs: &[String], body: &Formula, is_exists: bool) -> Result<Bdd> {
        if is_exists {
            if let Some((relation, args, bound)) = projectable_atom(vs, body) {
                return self.compile_atom(relation, args, &bound);
            }
        }
        let phi = self.compile(body)?;
        let doms: Vec<DomainId> = vs.iter().map(|v| self.var_doms[v]).collect();
        let ranges = self.ranges_doms(&doms)?;
        let mgr = self.ldb.manager_mut();
        let varset = mgr.domain_varset(&doms);
        // Fused apply+quantify (BuDDy's bdd_appex / bdd_appall).
        if is_exists {
            Ok(mgr.app_exists(Op::And, phi, ranges, varset)?)
        } else {
            Ok(mgr.app_forall(Op::Imp, ranges, phi, varset)?)
        }
    }

    /// The atom `relation(args)`, with the columns of atom-local variables
    /// and of `bound` (an enclosing `∃`'s variables, each used once here)
    /// projected away.
    fn compile_atom(&mut self, relation: &str, args: &[Term], bound: &[&String]) -> Result<Bdd> {
        let idx = self
            .ldb
            .index(relation)
            .ok_or_else(|| CoreError::MissingIndex(relation.to_owned()))?
            .clone();
        // Resolve argument actions against the database. The action list
        // is also the subgraph cache key: the compiled BDD is a pure
        // function of (index root, actions), so equal lists reuse one
        // compilation.
        let mut actions: Vec<AtomAction> = Vec::with_capacity(args.len());
        {
            let db = self.ldb.db();
            let rel = db.relation(relation)?;
            let mut moves = Vec::new();
            for (i, t) in args.iter().enumerate() {
                let col_dom = idx.domains[i];
                match t {
                    Term::Const(raw) => {
                        let class = rel.schema().class_of(i);
                        match db.code(class, raw) {
                            // A constant outside the active domain: the atom
                            // is unsatisfiable.
                            None => return Ok(Bdd::FALSE),
                            Some(code) => actions.push(AtomAction::Pin(col_dom, code as u64)),
                        }
                    }
                    Term::Var(v) if self.local.contains(v) || bound.contains(&v) => {
                        // Nothing else reads it: the test or the ∃
                        // discards it.
                        actions.push(AtomAction::Project(col_dom));
                    }
                    Term::Var(v) => {
                        let var_dom = self.var_doms[v];
                        // The variable's representative column: the one it
                        // claimed, if that is in this atom, else its first
                        // occurrence. Its other occurrences are equated
                        // with it while every column is still in place.
                        let at: Vec<usize> = (0..args.len())
                            .filter(|&j| matches!(&args[j], Term::Var(w) if w == v))
                            .collect();
                        let rep = at
                            .iter()
                            .copied()
                            .find(|&j| idx.domains[j] == var_dom)
                            .unwrap_or(at[0]);
                        if i != rep {
                            actions.push(AtomAction::Equal(col_dom, idx.domains[rep]));
                        } else if var_dom == col_dom {
                            // The variable claimed this very column: the
                            // atom already speaks its language.
                        } else if self.join_rename || idx.domains.contains(&var_dom) {
                            // A target among the index's own columns may
                            // still be occupied by another variable; only
                            // the simultaneous rename moves both safely.
                            moves.push(AtomAction::Rename(col_dom, var_dom));
                        } else {
                            // The naive equality-cube strategy.
                            actions.push(AtomAction::Equal(col_dom, var_dom));
                        }
                    }
                }
            }
            actions.extend(moves);
        }
        let renames = actions
            .iter()
            .filter(|a| matches!(a, AtomAction::Rename(..)))
            .count();
        let atom = self.ldb.compile_atom(relation, actions)?;
        // The R2 rewrite fired whether the atom was compiled, patched or
        // served from the cache: telemetry stays identical to a cold
        // compile.
        if renames > 0 {
            self.rules.push(RuleFiring {
                rule: RewriteRule::R2JoinRename,
                count: renames as u64,
            });
        }
        Ok(atom)
    }

    fn compile_eq(&mut self, a: &Term, b: &Term) -> Result<Bdd> {
        match (a, b) {
            (Term::Const(x), Term::Const(y)) => Ok(if x == y { Bdd::TRUE } else { Bdd::FALSE }),
            (Term::Var(v), Term::Var(w)) => {
                let (dv, dw) = (self.var_doms[v], self.var_doms[w]);
                Ok(self.ldb.manager_mut().domain_eq(dv, dw)?)
            }
            (Term::Var(v), Term::Const(raw)) | (Term::Const(raw), Term::Var(v)) => {
                let dv = self.var_doms[v];
                // The variable's class dictates constant resolution.
                let code = {
                    let class = self.class_of_var(v)?;
                    self.ldb.db().code(&class, raw)
                };
                match code {
                    None => Ok(Bdd::FALSE),
                    Some(c) => Ok(self.ldb.manager_mut().value_cube(dv, c as u64)?),
                }
            }
        }
    }

    fn compile_in_set(&mut self, t: &Term, vals: &[relcheck_relstore::Raw]) -> Result<Bdd> {
        match t {
            Term::Const(raw) => Ok(if vals.contains(raw) {
                Bdd::TRUE
            } else {
                Bdd::FALSE
            }),
            Term::Var(v) => {
                let dv = self.var_doms[v];
                let codes: Vec<u64> = {
                    let class = self.class_of_var(v)?;
                    let db = self.ldb.db();
                    vals.iter()
                        .filter_map(|raw| db.code(&class, raw).map(|c| c as u64))
                        .collect()
                };
                Ok(self.ldb.manager_mut().value_set(dv, &codes)?)
            }
        }
    }

    /// A variable's attribute class, from the inferred sorts.
    fn class_of_var(&self, v: &str) -> Result<String> {
        Ok(self.sorts[v].clone())
    }
}

#[cfg(test)]
mod tests {
    use super::{atom_local_vars, execute_bdd, violations_bdd};
    use crate::error::{CoreError, Result};
    use crate::index::LogicalDatabase;
    use crate::ordering::OrderingStrategy;
    use crate::plan::PlanOptions;
    use relcheck_datagen::SplitMix64;
    use relcheck_logic::eval::{eval_sentence, EvalContext};
    use relcheck_logic::transform::{to_prenex, Quant};
    use relcheck_logic::{parse, Formula};
    use relcheck_relstore::{Database, Raw};

    /// Plan `f` under `options` and decide it on the BDD path.
    fn decide(l: &mut LogicalDatabase, f: &Formula, options: PlanOptions) -> Result<bool> {
        let step = crate::planner::bdd_step(l.db(), f, options, &mut Vec::new());
        execute_bdd(l, &step, &mut Vec::new())
    }

    fn local(body: &str, stripped: &[&str]) -> Vec<String> {
        let stripped: Vec<String> = stripped.iter().map(|s| s.to_string()).collect();
        atom_local_vars(&parse(body).unwrap(), &stripped)
    }

    #[test]
    fn atom_local_vars_follow_the_selection_rule() {
        let fd = ["a", "c1", "s1", "c2", "s2"];
        assert_eq!(
            local("CUST(a, c1, s1) & CUST(a, c2, s2) & !(s1 = s2)", &fd),
            ["c1", "c2"]
        );
        // A lone atom body: every stripped variable in it.
        assert_eq!(local("R(x, y)", &["x", "y"]), ["x", "y"]);
        // Repeated inside one atom.
        assert!(local("R(x, x)", &["x"]).is_empty());
        // Shared with an `=` or `in` conjunct.
        assert_eq!(local("R(x, y) & x = 1", &["x", "y"]), ["y"]);
        assert_eq!(local("R(x, y) & y in {1, 2}", &["x", "y"]), ["x"]);
        // Under a negation or a nested quantifier: not a top-level atom.
        assert_eq!(local("!(R(x, y)) & S(y, z)", &["x", "y", "z"]), ["z"]);
        assert_eq!(local("R(x, y) & exists w. S(y, w)", &["x", "y"]), ["x"]);
        // Not stripped: never projected.
        assert!(local("R(x, y)", &[]).is_empty());
    }

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

    fn ldb() -> LogicalDatabase {
        let mut l = LogicalDatabase::new(customer_db());
        l.build_index("CUST", OrderingStrategy::ProbConverge)
            .unwrap();
        l.build_index("ALLOWED", OrderingStrategy::ProbConverge)
            .unwrap();
        l
    }

    const SENTENCES: &[&str] = &[
        // Satisfied set-membership implication.
        r#"forall c, a, s. CUST(c, a, s) & c = "Toronto" -> a in {416, 647}"#,
        // Violated set-membership implication.
        r#"forall c, a, s. CUST(c, a, s) & c = "Toronto" -> a in {416}"#,
        // Satisfied implication city → state.
        r#"forall c, a, s. CUST(c, a, s) & c = "Toronto" -> s = "ON""#,
        // Violated: Newark maps to two states.
        r#"forall c, a, s. CUST(c, a, s) & c = "Newark" -> s = "NJ""#,
        // Inclusion dependency (violated: (Newark, 212) not allowed).
        r#"forall c, a, s. CUST(c, a, s) -> ALLOWED(c, a)"#,
        // Existence (satisfied).
        r#"exists c, a, s. CUST(c, a, s) & s = "NY""#,
        // Existence (violated).
        r#"exists c, a, s. CUST(c, a, s) & s = "QC""#,
        // FD areacode → state as FOL (satisfied: each code one state).
        r#"forall c1, a, s1, c2, s2. CUST(c1, a, s1) & CUST(c2, a, s2) -> s1 = s2"#,
        // FD city → state (violated by Newark).
        r#"forall c, a1, s1, a2, s2. CUST(c, a1, s1) & CUST(c, a2, s2) -> s1 = s2"#,
        // ∀∃ with join: every allowed pair has a customer.
        r#"forall c, a. ALLOWED(c, a) -> exists s. CUST(c, a, s)"#,
        // Mixed quantifiers with negation.
        r#"!(exists c, a, s. CUST(c, a, s) & ALLOWED(c, a) & s = "NY")"#,
        // Universally-quantified disjunction.
        r#"forall c, a, s. CUST(c, a, s) -> s = "ON" | s = "NJ" | s = "NY""#,
        // Constant outside active domain.
        r#"exists a, s. CUST("Nowhere", a, s)"#,
        // Ground sentence.
        r#""CS" = "CS""#,
    ];

    /// The violation set of `f` as `(vars with classes, sorted rows, exact
    /// count)`, or `None` when `f` has no leading ∀ block.
    type Witnesses = (Vec<(String, String)>, Vec<Vec<u64>>, f64);

    fn witnesses(l: &mut LogicalDatabase, f: &Formula, options: PlanOptions) -> Option<Witnesses> {
        let vs = violations_bdd(l, f, options).unwrap()?;
        let doms: Vec<_> = vs.vars.iter().map(|(_, d, _)| *d).collect();
        let mgr = l.manager_mut();
        let mut rows = mgr.rows_limited(vs.bdd, &doms, usize::MAX).unwrap();
        rows.sort();
        let total = mgr.tuple_count(vs.bdd, &doms).unwrap();
        let vars = vs.vars.into_iter().map(|(v, _, c)| (v, c)).collect();
        Some((vars, rows, total))
    }

    /// Every plan configuration: rewrites on/off × join rename on/off.
    const CONFIGS: [PlanOptions; 4] = [
        PlanOptions {
            rewrites: true,
            join_rename: true,
        },
        PlanOptions {
            rewrites: true,
            join_rename: false,
        },
        PlanOptions {
            rewrites: false,
            join_rename: true,
        },
        PlanOptions {
            rewrites: false,
            join_rename: false,
        },
    ];

    #[test]
    fn every_plan_option_combination_matches_brute_force() {
        // Every configuration must be semantics-preserving on the whole
        // sentence corpus, and the witness path must build the same
        // violation set under each (ROBDD canonicity: equality is exact).
        let mut reference: Vec<Option<Witnesses>> = Vec::new();
        for (n, options) in CONFIGS.into_iter().enumerate() {
            let mut l = ldb();
            for (i, src) in SENTENCES.iter().enumerate() {
                let f = parse(src).unwrap();
                let expected = eval_sentence(l.db(), &f).unwrap();
                let got = decide(&mut l, &f, options).unwrap();
                assert_eq!(got, expected, "options={options:?}: {src}");
                let w = witnesses(&mut l, &f, options);
                if src.starts_with("exists") {
                    assert!(w.is_none(), "options={options:?}: {src}");
                }
                if n == 0 {
                    reference.push(w);
                } else {
                    assert_eq!(w, reference[i], "options={options:?}: {src}");
                }
                l.gc();
            }
        }
    }

    /// The violation set of `f` by naive enumeration: every assignment of
    /// its leading ∀ block over the active domain under which the rest of
    /// its prenex form is false, in lexicographic order. `None` without a
    /// leading ∀ block.
    fn brute_witnesses(db: &Database, f: &Formula) -> Option<Witnesses> {
        let p = to_prenex(f);
        let n = p
            .prefix
            .iter()
            .take_while(|(q, _)| *q == Quant::Forall)
            .count();
        if n == 0 {
            return None;
        }
        let rest = p.prefix[n..].iter().rev().fold(p.matrix, |g, (q, v)| {
            let vs = vec![v.clone()];
            match q {
                Quant::Exists => Formula::Exists(vs, Box::new(g)),
                Quant::Forall => Formula::Forall(vs, Box::new(g)),
            }
        });
        // `to_prenex` and the evaluator standardize apart alike, so the
        // sentence's sorts name the prefix variables.
        let sorts = EvalContext::new(db, f).unwrap().sorts().clone();
        let ctx = EvalContext::open(db, &rest).unwrap();
        let vars: Vec<(String, String)> = p.prefix[..n]
            .iter()
            .map(|(_, v)| (v.clone(), sorts[v].clone()))
            .collect();
        let sizes: Vec<u64> = vars.iter().map(|(_, c)| db.class_size(c)).collect();
        let mut rows = Vec::new();
        let mut row = vec![0u64; n];
        'odometer: loop {
            let env = vars
                .iter()
                .zip(&row)
                .map(|((v, _), &code)| (v.clone(), code as u32))
                .collect();
            if !ctx.eval_with(&env) {
                rows.push(row.clone());
            }
            for i in (0..n).rev() {
                row[i] += 1;
                if row[i] < sizes[i] {
                    continue 'odometer;
                }
                row[i] = 0;
            }
            break;
        }
        let total = rows.len() as f64;
        Some((vars, rows, total))
    }

    /// ∀ constraints over [`random_db`]'s relations, covering every shape
    /// the witness path's recovery conjunction handles.
    const WITNESS_CORPUS: &[&str] = &[
        // Self-join FD a → c: two atoms with a local column (b1, b2).
        "forall a, b1, c1, b2, c2. U(a, b1, c1) & U(a, b2, c2) -> c1 = c2",
        // Self-join FD with no local column.
        "forall x, y1, y2. S(x, y1) & S(x, y2) -> y1 = y2",
        // ∀…∃ inclusions with a local premise column.
        "forall x, y. S(x, y) -> exists z. R(x, z)",
        "forall a, b, c. U(a, b, c) -> exists w. S(a, w) & T(c)",
        // Constant pins: in and out of the active domain, and by `=`/`in`.
        "forall b, c. U(1, b, c) -> T(c)",
        "forall b, c. U(9, b, c) -> false",
        "forall x, y. S(x, y) & x = 2 -> y in {0, 1}",
        // A repeated variable, with and without a local neighbour.
        "forall x, y. R(x, x) & S(x, y) -> T(y)",
        "forall x, y. R(x, x) & S(x, y) -> false",
        // Atoms whose every column is local.
        "forall x, y, z. R(x, y) -> !T(z)",
        "forall x, y, z. R(x, y) & T(z) -> S(x, z)",
        // Four conjuncts, one more than the emptiness test takes.
        "forall x, y. R(x, x) & S(x, y) & T(y) -> U(x, x, y)",
        // A variable no positive atom confines: its range is conjoined.
        "forall x, y. !R(x, x) -> S(x, y)",
    ];

    /// Small random relations `R(k, k)`, `S(k, m)`, `T(m)`, `U(k, k, m)`
    /// over classes of 4 and 3 values; one relation in five is empty.
    fn random_db(rng: &mut SplitMix64) -> Database {
        const SIZES: [(&str, u64); 2] = [("k", 4), ("m", 3)];
        const RELS: [(&str, &[usize]); 4] = [
            ("R", &[0, 0]),
            ("S", &[0, 1]),
            ("T", &[1]),
            ("U", &[0, 0, 1]),
        ];
        let mut db = Database::new();
        for (class, size) in SIZES {
            db.ensure_class_size(class, size);
        }
        for (name, cols) in RELS {
            let n = if rng.gen_bool(0.2) {
                0
            } else {
                rng.gen_range(1..10usize)
            };
            let rows = (0..n)
                .map(|_| {
                    cols.iter()
                        .map(|&k| Raw::Int(rng.gen_range(0..SIZES[k].1) as i64))
                        .collect()
                })
                .collect();
            let names = ["c0", "c1", "c2"];
            let schema: Vec<(&str, &str)> = cols
                .iter()
                .enumerate()
                .map(|(i, &k)| (names[i], SIZES[k].0))
                .collect();
            db.create_relation(name, &schema, rows).unwrap();
        }
        db
    }

    #[test]
    fn witnesses_match_brute_force_enumeration() {
        let strategies = &CONFIGS[..2];
        let mut l = ldb();
        for src in SENTENCES {
            let f = parse(src).unwrap();
            let want = brute_witnesses(l.db(), &f);
            for &options in strategies {
                assert_eq!(witnesses(&mut l, &f, options), want, "{options:?}: {src}");
                l.gc();
            }
        }
        let mut rng = SplitMix64::seed_from_u64(0x5EED_0020);
        let mut violated = 0;
        for round in 0..30 {
            let mut l = LogicalDatabase::new(random_db(&mut rng));
            for rel in ["R", "S", "T", "U"] {
                l.build_index(rel, OrderingStrategy::ProbConverge).unwrap();
            }
            for src in WITNESS_CORPUS {
                let f = parse(src).unwrap();
                let want = brute_witnesses(l.db(), &f).unwrap();
                violated += !want.1.is_empty() as usize;
                for &options in strategies {
                    let got = witnesses(&mut l, &f, options);
                    assert_eq!(
                        got.as_ref(),
                        Some(&want),
                        "round {round}, {options:?}: {src}"
                    );
                    l.gc();
                }
            }
        }
        // The corpus must exercise non-empty violation sets.
        assert!(violated * 3 >= 30 * WITNESS_CORPUS.len(), "{violated}");
    }

    #[test]
    fn checks_match_brute_force_on_random_databases() {
        let mut rng = SplitMix64::seed_from_u64(0x5EED_0031);
        let mut held = 0;
        for round in 0..30 {
            let mut l = LogicalDatabase::new(random_db(&mut rng));
            for rel in ["R", "S", "T", "U"] {
                l.build_index(rel, OrderingStrategy::ProbConverge).unwrap();
            }
            for src in WITNESS_CORPUS {
                let f = parse(src).unwrap();
                let want = eval_sentence(l.db(), &f).unwrap();
                held += want as usize;
                for options in CONFIGS {
                    let got = decide(&mut l, &f, options).unwrap();
                    assert_eq!(got, want, "round {round}, {options:?}: {src}");
                }
            }
        }
        // Both verdicts must come up.
        let checks = 30 * WITNESS_CORPUS.len();
        assert!(
            held * 8 >= checks && held * 8 <= 7 * checks,
            "{held}/{checks}"
        );
    }

    #[test]
    fn lifted_negation_witnesses_match_brute_force() {
        // Q5's shape. Five courses and six students: neither class fills
        // its block, so the complement of the lifted ∃k carries codes
        // outside both domains, which the ranges must cut away. Students
        // 2 and 3 are the violators: 2 takes no programming course, 3
        // takes nothing.
        let mut db = Database::new();
        let ints = |rows: &[&[i64]]| -> Vec<Vec<Raw>> {
            rows.iter()
                .map(|r| r.iter().map(|&v| Raw::Int(v)).collect())
                .collect()
        };
        let student = [("s", "student"), ("dept", "dept"), ("year", "year")];
        let students: &[&[i64]] = &[
            &[1, 1, 2007],
            &[2, 1, 2008],
            &[3, 1, 2007],
            &[4, 1, 2009],
            &[5, 2, 2008],
            &[6, 2, 2009],
        ];
        db.create_relation("STUDENT", &student, ints(students))
            .unwrap();
        let courses: &[&[i64]] = &[&[10, 1], &[11, 2], &[12, 1], &[13, 2], &[14, 3]];
        db.create_relation("COURSE", &[("k", "course"), ("t", "title")], ints(courses))
            .unwrap();
        let takes: &[&[i64]] = &[&[1, 10], &[2, 11], &[2, 14], &[4, 12], &[5, 13], &[6, 10]];
        db.create_relation("TAKES", &[("s", "student"), ("k", "course")], ints(takes))
            .unwrap();
        let mut l = LogicalDatabase::new(db);
        for rel in ["STUDENT", "COURSE", "TAKES"] {
            l.build_index(rel, OrderingStrategy::ProbConverge).unwrap();
        }
        let f = parse("forall s, z. STUDENT(s, 1, z) -> exists k. (COURSE(k, 1) & TAKES(s, k))")
            .unwrap();
        let step = crate::planner::bdd_step(l.db(), &f, PlanOptions::default(), &mut Vec::new());
        assert_eq!(
            step.body,
            parse("STUDENT(s, 1, z) & !(exists k. COURSE(k, 1) & TAKES(s, k))").unwrap(),
            "the check compiles the lifted negation"
        );
        let want = brute_witnesses(l.db(), &f).unwrap();
        assert_eq!(want.1.len(), 2, "{want:?}");
        for options in &CONFIGS[..2] {
            assert!(!decide(&mut l, &f, *options).unwrap(), "{options:?}");
            assert_eq!(
                witnesses(&mut l, &f, *options).as_ref(),
                Some(&want),
                "{options:?}"
            );
            l.gc();
        }
    }

    #[test]
    fn repeated_variable_in_atom() {
        // R(x, x): which cities are their own... use a self-pair relation.
        let mut db = Database::new();
        db.create_relation(
            "PAIR",
            &[("a", "k"), ("b", "k")],
            vec![
                vec![Raw::Int(1), Raw::Int(1)],
                vec![Raw::Int(1), Raw::Int(2)],
                vec![Raw::Int(3), Raw::Int(3)],
            ],
        )
        .unwrap();
        let mut l = LogicalDatabase::new(db);
        l.build_index("PAIR", OrderingStrategy::Schema).unwrap();
        for (src, expected) in [
            ("exists x. PAIR(x, x)", true),
            ("forall x, y. PAIR(x, y) -> x = y", false),
            ("exists x, y. PAIR(x, y) & !(x = y)", true),
        ] {
            let f = parse(src).unwrap();
            assert_eq!(eval_sentence(l.db(), &f).unwrap(), expected, "oracle {src}");
            for opts in [CONFIGS[0], CONFIGS[3]] {
                assert_eq!(decide(&mut l, &f, opts).unwrap(), expected, "{src}");
            }
        }
    }

    #[test]
    fn node_limit_propagates() {
        let mut l = ldb();
        let budget = l.manager().live_nodes() + 2;
        l.manager_mut().set_node_limit(Some(budget));
        let f = parse(SENTENCES[4]).unwrap();
        let err = decide(&mut l, &f, PlanOptions::default());
        assert!(matches!(
            err,
            Err(CoreError::Bdd(relcheck_bdd::BddError::NodeLimit { .. }))
        ));
    }
}

//! The explicit **CheckPlan IR** — the artifact between "formula in" and
//! "verdict out".
//!
//! The paper's Section 4 strategy is a tiny query optimizer: rewrite rules
//! R1–R4 applied in a deliberate order, then execution by BDD operations or
//! a SQL fallback. This module makes that pipeline a first-class value: a
//! [`CheckPlan`] records which rewrite passes ran (with per-pass firing
//! counts and before/after formulas), the prepared BDD execution step, and
//! the pre-translated SQL fallback step. Plans are produced by the pure
//! pass manager in [`crate::planner`] (fresh for every check), executed by
//! [`crate::exec`], and pretty-printed by `relcheck plan`.

use crate::checker::rung;
use crate::sqlgen::Translated;
use crate::telemetry::{RewriteRule, RuleFiring};
use relcheck_logic::Formula;

/// The plan configuration along the paper's two ablation axes (Table 1):
/// the §4.4 rewrite pipeline as one unit, and rename-join.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlanOptions {
    /// Run the §4.4 rewrite pipeline: R3 prenex pull-up, R1 leading-block
    /// elimination, refutation-NNF and the cost-gated R4 push-down, in
    /// that order. Off, the planner standardizes apart and compiles the
    /// formula literally (Table 1's "no rewrites" row).
    pub rewrites: bool,
    /// R2: compile equi-joins by renaming (§4.2) instead of conjoining
    /// equality BDDs. An execution-time strategy; fires once per atom.
    pub join_rename: bool,
}

impl Default for PlanOptions {
    fn default() -> Self {
        PlanOptions {
            rewrites: true,
            join_rename: true,
        }
    }
}

impl PlanOptions {
    /// The options packed into a bitmask — folded into schema
    /// fingerprints, so plans built under different options carry
    /// different fingerprints. `rewrites` sets bits 0–3 and 5 and
    /// `join_rename` bit 4: the values fingerprints, plan goldens and
    /// certificates were stamped with when each pass had its own bit.
    pub fn bits(&self) -> u64 {
        (if self.rewrites { 0b10_1111 } else { 0 }) | (u64::from(self.join_rename) << 4)
    }

    /// The options by schema name, in `relcheck plan --json` order.
    pub(crate) fn flags(&self) -> [(&'static str, bool); 2] {
        [
            ("rewrites", self.rewrites),
            ("join_rename", self.join_rename),
        ]
    }

    fn describe(&self) -> String {
        let onoff = |b: bool| if b { "on" } else { "off" };
        format!(
            "rewrites={} join-rename={}",
            onoff(self.rewrites),
            onoff(self.join_rename),
        )
    }
}

/// One rewrite pass's effect on the formula: what it was called, which
/// paper rule it implements (if any), how often it fired, how often its
/// cost gate declined an applicable site, and the formula before/after.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PassRecord {
    /// Stable pass name (one of [`crate::planner::pass`]).
    pub pass: &'static str,
    /// The paper rule this pass implements, when it maps to one.
    pub rule: Option<RewriteRule>,
    /// Number of sites the pass rewrote.
    pub fired: u64,
    /// Number of applicable sites the cost gate declined.
    pub gated: u64,
    /// The formula text entering the pass.
    pub before: String,
    /// The formula text leaving the pass.
    pub after: String,
}

/// How the compiled BDD decides the sentence (paper R1): as a violation
/// test (leading ∀-block: the violation set must be empty) or as a
/// satisfiability test (everything else: the compiled body must not be
/// `FALSE`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BddTest {
    /// Compile the refutation body; the constraint holds iff the violating
    /// set (body ∧ ranges of the stripped ∀ variables) is `FALSE`.
    ViolationsEmpty,
    /// Compile the body directly; the constraint holds iff the result
    /// (∧ ranges of any stripped variables) is not `FALSE`.
    Satisfiable,
}

impl BddTest {
    /// Every test.
    pub(crate) const ALL: [BddTest; 2] = [BddTest::ViolationsEmpty, BddTest::Satisfiable];

    /// Stable machine-readable name.
    pub(crate) fn name(self) -> &'static str {
        match self {
            BddTest::ViolationsEmpty => "violations-empty",
            BddTest::Satisfiable => "satisfiable",
        }
    }
}

/// The prepared BDD execution step of a plan: everything
/// [`crate::exec::execute_bdd`] needs, with no BDD manager involved yet.
#[derive(Debug, Clone)]
pub struct BddStep {
    /// The full (prenex) formula domain allocation is computed over —
    /// §4.2's largest-relation-first claiming walks this.
    pub alloc: Formula,
    /// The rewritten body to compile.
    pub body: Formula,
    /// Names of the leading-block variables R1 stripped, in prefix order.
    pub stripped: Vec<String>,
    /// How the compiled BDD decides the sentence.
    pub test: BddTest,
    /// Compile equi-join atoms by renaming (R2).
    pub join_rename: bool,
}

/// The prepared SQL-fallback step: the violation/witness query already
/// translated, so the degradation ladder executes a plan node instead of
/// re-deriving the query.
#[derive(Debug, Clone)]
pub struct SqlStep {
    /// The translated relational query (plan + result shape + columns).
    pub translated: Translated,
}

/// A complete, serializable check plan: the IR the whole compile path now
/// flows through.
#[derive(Debug, Clone)]
pub struct CheckPlan {
    /// The original constraint text (the formula's display form).
    pub constraint: String,
    /// FNV-1a fingerprint of the constraint text — the first of the
    /// fingerprint pair a certificate stamps.
    pub constraint_fp: u64,
    /// Fingerprint of everything else a plan depends on: data version,
    /// SQL-only set, ordering strategy, option bits, and the checker's
    /// explicit invalidation epoch
    /// ([`crate::checker::Checker::schema_fingerprint`]).
    pub schema_fp: u64,
    /// The options the plan was built under.
    pub options: PlanOptions,
    /// The rewrite passes that ran, in order, with their effects.
    pub passes: Vec<PassRecord>,
    /// The BDD execution step, or `None` if a referenced relation is
    /// marked SQL-only (the ladder then starts at the SQL rung).
    pub bdd: Option<BddStep>,
    /// The pre-translated SQL fallback, or `None` if the constraint shape
    /// has no SQL translation.
    pub sql: Option<SqlStep>,
}

impl CheckPlan {
    /// The plan-level R1/R3/R4 rule firings in application order, ready to
    /// seed a [`crate::telemetry::CheckTrace`]'s rule list (R2 events are
    /// appended by the executor, once per renamed atom).
    pub fn rule_firings(&self) -> Vec<RuleFiring> {
        pass_rule_firings(&self.passes)
    }

    /// The execution ladder this plan implies, rung names matching the
    /// checker's `CheckTrace::ladder` vocabulary.
    pub fn ladder(&self) -> Vec<&'static str> {
        ladder_for(self.bdd.is_some(), self.sql.is_some())
    }

    /// Deterministic pretty-printer: same plan → byte-identical text (CI
    /// asserts this across runs). Shown by `relcheck plan`.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let push = |out: &mut String, s: &str| {
            out.push_str(s);
            out.push('\n');
        };
        push(&mut out, &format!("plan for: {}", self.constraint));
        push(
            &mut out,
            &format!(
                "  fingerprint: constraint={:016x} schema={:016x}",
                self.constraint_fp, self.schema_fp
            ),
        );
        push(&mut out, &format!("  options: {}", self.options.describe()));
        if self.passes.is_empty() {
            push(&mut out, "  passes: (none)");
        } else {
            push(&mut out, "  passes:");
            for (i, p) in self.passes.iter().enumerate() {
                let rule = p.rule.map_or("--", |r| r.name());
                push(
                    &mut out,
                    &format!(
                        "    {}. {} [{}] fired={} gated={}",
                        i + 1,
                        p.pass,
                        rule,
                        p.fired,
                        p.gated
                    ),
                );
                push(&mut out, &format!("       before: {}", p.before));
                push(&mut out, &format!("       after:  {}", p.after));
            }
        }
        match &self.bdd {
            Some(step) => {
                let test = step.test.name();
                push(
                    &mut out,
                    &format!(
                        "  bdd step: test={} stripped=[{}] join-rename={}",
                        test,
                        step.stripped.join(", "),
                        if step.join_rename { "on" } else { "off" },
                    ),
                );
                push(&mut out, &format!("    body: {}", step.body));
            }
            None => push(&mut out, "  bdd step: none (relation marked sql-only)"),
        }
        match &self.sql {
            Some(step) => {
                let shape = format!("{:?}", step.translated.shape).to_lowercase();
                push(
                    &mut out,
                    &format!(
                        "  sql step: shape={} columns=[{}]",
                        shape,
                        step.translated.columns.join(", ")
                    ),
                );
            }
            None => push(&mut out, "  sql step: none (shape not translatable)"),
        }
        push(
            &mut out,
            &format!("  ladder: {}", self.ladder().join(" -> ")),
        );
        out
    }
}

/// The plan document's `schema_version`: the one version
/// [`plans_to_json`] writes and [`crate::telemetry::validate_plan_json`]
/// accepts.
pub(crate) const PLAN_SCHEMA_VERSION: i64 = 2;

/// Render a set of named plans as a machine-readable JSON document —
/// the `relcheck plan --json` output. Same plans → byte-identical text
/// (same discipline as [`CheckPlan::render`] and the metrics emitter);
/// fingerprints are emitted as 16-digit hex strings because they are
/// full-width u64 values. Validated by
/// [`crate::telemetry::validate_plan_json`].
pub fn plans_to_json(plans: &[(String, CheckPlan)]) -> String {
    use crate::telemetry::JsonWriter;
    let mut w = JsonWriter::new();
    w.obj_open();
    w.key("schema_version");
    w.raw(&PLAN_SCHEMA_VERSION.to_string());
    w.key("kind");
    w.string("plan");
    w.key("plans");
    w.arr_open();
    for (name, p) in plans {
        w.obj_open();
        w.key("name");
        w.string(name);
        w.key("constraint");
        w.string(&p.constraint);
        w.key("constraint_fp");
        w.string(&format!("{:016x}", p.constraint_fp));
        w.key("schema_fp");
        w.string(&format!("{:016x}", p.schema_fp));
        w.key("options");
        w.obj_open();
        for (flag, on) in p.options.flags() {
            w.key(flag);
            w.bool(on);
        }
        w.obj_close();
        w.key("passes");
        w.arr_open();
        for pass in &p.passes {
            w.obj_open();
            w.key("pass");
            w.string(pass.pass);
            w.key("rule");
            match pass.rule {
                Some(r) => w.string(r.name()),
                None => w.raw("null"),
            }
            w.key("fired");
            w.raw(&pass.fired.to_string());
            w.key("gated");
            w.raw(&pass.gated.to_string());
            w.key("before");
            w.string(&pass.before);
            w.key("after");
            w.string(&pass.after);
            w.obj_close();
        }
        w.arr_close();
        w.key("bdd");
        match &p.bdd {
            Some(step) => {
                w.obj_open();
                w.key("test");
                w.string(step.test.name());
                w.key("stripped");
                w.arr_open();
                for v in &step.stripped {
                    w.string(v);
                }
                w.arr_close();
                w.key("join_rename");
                w.bool(step.join_rename);
                w.obj_close();
            }
            None => w.raw("null"),
        }
        w.key("sql");
        match &p.sql {
            Some(step) => {
                w.obj_open();
                w.key("shape");
                w.string(&format!("{:?}", step.translated.shape).to_lowercase());
                w.key("columns");
                w.arr_open();
                for c in &step.translated.columns {
                    w.string(c);
                }
                w.arr_close();
                w.obj_close();
            }
            None => w.raw("null"),
        }
        w.key("ladder");
        w.arr_open();
        for rung in p.ladder() {
            w.string(rung);
        }
        w.arr_close();
        w.obj_close();
    }
    w.arr_close();
    w.obj_close();
    w.finish()
}

/// The ladder a plan with (or without) a BDD step and a SQL step implies.
pub(crate) fn ladder_for(has_bdd: bool, has_sql: bool) -> Vec<&'static str> {
    let mut rungs = Vec::new();
    if has_bdd {
        rungs.push(rung::BDD);
    }
    if has_sql {
        rungs.push(rung::SQL);
    }
    rungs.push(rung::BRUTE_FORCE);
    rungs
}

/// The R1/R3/R4 firings a pass list implies, in application order: one
/// [`RuleFiring`] per pass that maps to a paper rule and fired at least
/// once (zero-fire passes are evidence the pass ran, not rule events).
pub fn pass_rule_firings(passes: &[PassRecord]) -> Vec<RuleFiring> {
    passes
        .iter()
        .filter_map(|p| {
            p.rule.filter(|_| p.fired > 0).map(|rule| RuleFiring {
                rule,
                count: p.fired,
            })
        })
        .collect()
}

/// FNV-1a over a byte string — the repo-standard dependency-free stable
/// hash, used for constraint and schema fingerprints.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A formula's stable fingerprint: FNV-1a over its display form (the
/// parser/printer round-trips, so this is canonical enough for cache
/// keying — a false miss merely replans).
pub fn formula_fingerprint(f: &Formula) -> u64 {
    fnv1a(f.to_string().as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn option_bits_keep_the_six_switch_values() {
        let bits = |rewrites, join_rename| {
            PlanOptions {
                rewrites,
                join_rename,
            }
            .bits()
        };
        assert_eq!(PlanOptions::default().bits(), 63);
        assert_eq!(bits(true, false), 47);
        assert_eq!(bits(false, true), 16);
        assert_eq!(bits(false, false), 0);
    }

    #[test]
    fn fnv1a_is_stable() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), fnv1a(b"a"));
        assert_ne!(fnv1a(b"a"), fnv1a(b"b"));
    }
}

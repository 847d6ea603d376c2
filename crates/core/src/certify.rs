//! Violation certificates and the independent audit re-checker.
//!
//! A [`Certificate`] packages everything needed to re-establish a verdict
//! without trusting the BDD engine: the constraint's formula (re-parseable
//! concrete syntax), the planner's constraint/schema fingerprints, the
//! data version, the verdict with the degradation-ladder rung that decided
//! it, and — for `Violated` — witness tuples enumerated from the violation
//! BDD via [`sat_assignments`] with the **exact** violation total from
//! [`sat_count`].
//!
//! The re-checker ([`verify_certificate`]) is deliberately primitive: it
//! evaluates the original FOL formula with the naive active-domain
//! interpreter ([`relcheck_logic::eval`]) directly over the relstore rows
//! — no planner, no rewrites, no BDDs — so a bug anywhere in the fast
//! path (or a tampered certificate) surfaces as a typed [`AuditError`]
//! instead of being silently trusted.
//!
//! Trust model, per verdict (see `DESIGN.md` §8):
//!
//! * `Violated` + witnesses — each witness substitution is checked to
//!   falsify the quantifier-stripped matrix, and when the assignment
//!   space is small enough the exact violation total is independently
//!   recounted.
//! * `Violated` without witnesses — the full sentence is re-evaluated and
//!   must come out false.
//! * `Holds` — audited by full re-evaluation (cost: active-domain
//!   enumeration); there is no witness-sized shortcut for a universal
//!   claim.
//! * `Degraded` / `Errored` — **uncertifiable**: verification returns
//!   [`AuditError::Unauditable`], never a silent pass.
//!
//! [`sat_assignments`]: relcheck_bdd::BddManager::sat_assignments
//! [`sat_count`]: relcheck_bdd::BddManager::sat_count

use crate::checker::{rung, CheckReport, Checker, Method, Verdict};
use crate::error::Result;
use crate::plan::formula_fingerprint;
use crate::telemetry::{parse_json, Json, JsonWriter};
use relcheck_logic::eval::{eval_sentence, EvalContext};
use relcheck_logic::{parse, Formula};
use relcheck_relstore::{Database, Raw};
use std::collections::HashMap;
use std::fmt;

/// Format version written into every certificate.
pub const CERTIFICATE_VERSION: i64 = 1;

/// Witness-enumeration cap when the caller does not pass
/// `--witness-limit`.
pub const DEFAULT_WITNESS_LIMIT: usize = 10;

/// Above this many candidate assignments the verifier skips the exact
/// recount (per-witness checks still run); below it the claimed total is
/// re-derived by exhaustive enumeration.
const RECOUNT_BOUND: f64 = 200_000.0;

/// Witness tuples attached to a `Violated` certificate.
#[derive(Debug, Clone, PartialEq)]
pub struct Witnesses {
    /// The constraint's leading universal variables, prefix order.
    pub vars: Vec<String>,
    /// Attribute class of each variable (parallel to `vars`).
    pub classes: Vec<String>,
    /// Exact number of violating assignments ([`sat_count`] over the
    /// violation BDD, domain ranges conjoined).
    ///
    /// [`sat_count`]: relcheck_bdd::BddManager::sat_count
    pub total: f64,
    /// True iff `tuples` is a strict prefix of the violation set
    /// (`tuples.len() < total`).
    pub truncated: bool,
    /// Up to `--witness-limit` violating tuples, decoded to raw values
    /// (parallel to `vars`).
    pub tuples: Vec<Vec<Raw>>,
}

/// A serializable, independently re-checkable record of one verdict.
#[derive(Debug, Clone, PartialEq)]
pub struct Certificate {
    /// Constraint name, as registered.
    pub constraint: String,
    /// The constraint's formula in re-parseable concrete syntax.
    pub formula: String,
    /// Planner fingerprint of the formula ([`formula_fingerprint`]).
    pub constraint_fp: u64,
    /// Planner fingerprint of the schema/options the check ran under
    /// ([`Checker::schema_fingerprint`]). Provenance only: it depends on
    /// engine state (index epochs) the auditor cannot recompute.
    pub schema_fp: u64,
    /// The logical database's data version at emission. Provenance only,
    /// like `schema_fp`.
    pub data_version: u64,
    /// The verdict being certified.
    pub verdict: Verdict,
    /// The degradation-ladder rung that decided it (one of
    /// [`crate::checker::rung`]).
    pub rung: String,
    /// Witness tuples; present only on `Violated` certificates whose
    /// violation set was enumerable on the BDD path.
    pub witnesses: Option<Witnesses>,
}

/// What went wrong while parsing or verifying a certificate. Every
/// variant is a *typed* rejection: the audit never reports a bare
/// boolean, so tampering and engine bugs stay distinguishable.
#[derive(Debug, Clone, PartialEq)]
pub enum AuditError {
    /// The document is not well-formed JSON.
    Json(String),
    /// A required field is missing or has the wrong type/value.
    Field {
        /// Where in the document (e.g. `certs[2].witnesses.total`).
        path: String,
        /// What was expected there.
        expected: String,
    },
    /// The certificate's format version is not supported.
    UnsupportedVersion(i64),
    /// The certificate names a constraint the spec does not define.
    UnknownConstraint(String),
    /// The embedded formula text does not parse.
    Formula {
        /// The certificate's constraint name.
        constraint: String,
        /// Parser diagnostic.
        message: String,
    },
    /// The embedded formula does not hash to the embedded
    /// `constraint_fp` — the formula text or the fingerprint was altered.
    FingerprintMismatch {
        /// The certificate's constraint name.
        constraint: String,
        /// Fingerprint claimed by the certificate.
        claimed: u64,
        /// Fingerprint of the embedded formula text.
        actual: u64,
    },
    /// The embedded formula is not the constraint registered under this
    /// name in the spec being audited against.
    FormulaMismatch {
        /// The certificate's constraint name.
        constraint: String,
    },
    /// A witness tuple has the wrong arity, or `vars`/`classes` lengths
    /// disagree.
    WitnessShape {
        /// The certificate's constraint name.
        constraint: String,
        /// Index of the offending tuple (`usize::MAX` for the header).
        index: usize,
    },
    /// The witness variables are not the constraint's leading universal
    /// variables.
    WitnessVarsMismatch {
        /// The certificate's constraint name.
        constraint: String,
    },
    /// A witness value is not in its class's active domain — it cannot
    /// occur in any relation row, so it cannot be part of a genuine
    /// violation (the classic single-byte tamper).
    WitnessValueUnknown {
        /// The certificate's constraint name.
        constraint: String,
        /// Index of the offending tuple.
        index: usize,
        /// The variable whose value is unknown.
        var: String,
        /// The rendered value.
        value: String,
    },
    /// A claimed witness does **not** falsify the constraint's matrix
    /// under the naive interpreter.
    WitnessNotViolating {
        /// The certificate's constraint name.
        constraint: String,
        /// Index of the offending tuple.
        index: usize,
    },
    /// The claimed exact violation total disagrees with the independent
    /// recount.
    CountMismatch {
        /// The certificate's constraint name.
        constraint: String,
        /// Total claimed by the certificate.
        claimed: f64,
        /// Total from exhaustive re-enumeration.
        actual: f64,
    },
    /// Re-evaluating the full sentence contradicts the certified verdict.
    VerdictMismatch {
        /// The certificate's constraint name.
        constraint: String,
        /// The certified verdict.
        claimed: Verdict,
        /// What the naive interpreter found (`true` = holds).
        reevaluated_holds: bool,
    },
    /// `Degraded`/`Errored` verdicts carry no decidable claim; they are
    /// explicitly not auditable and never silently pass.
    Unauditable {
        /// The certificate's constraint name.
        constraint: String,
        /// The undecided verdict.
        verdict: Verdict,
    },
    /// The naive interpreter itself rejected the formula (unknown
    /// relation, sort conflict, …) — the certificate cannot be about this
    /// database.
    Eval {
        /// The certificate's constraint name.
        constraint: String,
        /// The interpreter diagnostic.
        message: String,
    },
}

impl fmt::Display for AuditError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AuditError::Json(m) => write!(f, "malformed certificate document: {m}"),
            AuditError::Field { path, expected } => {
                write!(f, "certificate field {path}: expected {expected}")
            }
            AuditError::UnsupportedVersion(v) => {
                write!(f, "unsupported certificate_version {v}")
            }
            AuditError::UnknownConstraint(c) => {
                write!(f, "certificate names unknown constraint {c:?}")
            }
            AuditError::Formula {
                constraint,
                message,
            } => write!(
                f,
                "{constraint}: embedded formula does not parse: {message}"
            ),
            AuditError::FingerprintMismatch {
                constraint,
                claimed,
                actual,
            } => write!(
                f,
                "{constraint}: formula hashes to {actual:#018x}, certificate claims {claimed:#018x}"
            ),
            AuditError::FormulaMismatch { constraint } => write!(
                f,
                "{constraint}: embedded formula is not the registered constraint"
            ),
            AuditError::WitnessShape { constraint, index } => {
                write!(f, "{constraint}: witness tuple {index} has the wrong shape")
            }
            AuditError::WitnessVarsMismatch { constraint } => write!(
                f,
                "{constraint}: witness variables are not the leading universals"
            ),
            AuditError::WitnessValueUnknown {
                constraint,
                index,
                var,
                value,
            } => write!(
                f,
                "{constraint}: witness tuple {index} binds {var} to {value:?}, \
                 which is outside its active domain"
            ),
            AuditError::WitnessNotViolating { constraint, index } => write!(
                f,
                "{constraint}: witness tuple {index} does not falsify the constraint matrix"
            ),
            AuditError::CountMismatch {
                constraint,
                claimed,
                actual,
            } => write!(
                f,
                "{constraint}: certificate claims {claimed} violations, recount found {actual}"
            ),
            AuditError::VerdictMismatch {
                constraint,
                claimed,
                reevaluated_holds,
            } => write!(
                f,
                "{constraint}: certified verdict {} but naive re-evaluation says holds={}",
                claimed.name(),
                reevaluated_holds
            ),
            AuditError::Unauditable {
                constraint,
                verdict,
            } => write!(
                f,
                "{constraint}: verdict {} is undecided and cannot be audited",
                verdict.name()
            ),
            AuditError::Eval {
                constraint,
                message,
            } => write!(f, "{constraint}: re-evaluation failed: {message}"),
        }
    }
}

impl std::error::Error for AuditError {}

/// What an accepted certificate was checked against.
#[derive(Debug, Clone, PartialEq)]
pub struct AuditOutcome {
    /// The constraint.
    pub constraint: String,
    /// The certified verdict.
    pub verdict: Verdict,
    /// Witness substitutions individually re-checked.
    pub witnesses_checked: usize,
    /// Whether the exact violation total was independently recounted
    /// (false when the assignment space exceeded the recount bound or
    /// the certificate carried no witnesses).
    pub recounted: bool,
}

/// The leading block of universal variables, syntactically — no
/// rewriting, so it matches what an auditor sees in the formula text.
fn leading_forall_vars(f: &Formula) -> Vec<String> {
    let mut out = Vec::new();
    let mut cur = f;
    while let Formula::Forall(vs, g) = cur {
        out.extend(vs.iter().cloned());
        cur = g;
    }
    out
}

/// The formula with its leading universal block stripped — the matrix a
/// witness substitution must falsify.
fn skip_leading_foralls(f: &Formula) -> &Formula {
    let mut cur = f;
    while let Formula::Forall(_, g) = cur {
        cur = g;
    }
    cur
}

/// The ladder rung that decided a report: the trace's last rung when
/// telemetry was on, otherwise reconstructed from method + verdict.
fn rung_name(report: &CheckReport) -> &'static str {
    if let Some(t) = &report.metrics {
        if let Some(last) = t.ladder.last() {
            return last;
        }
    }
    match (report.verdict, report.method) {
        (Verdict::Degraded, _) => rung::DEGRADED,
        (Verdict::Errored, _) | (_, Method::Aborted) => rung::ERRORED,
        (_, Method::Bdd) => rung::BDD,
        (_, Method::SqlFallback) => rung::SQL,
        (_, Method::BruteForce) => rung::BRUTE_FORCE,
    }
}

/// Emit a certificate for one checked constraint.
///
/// For `Violated` verdicts this enumerates up to `witness_limit` witness
/// tuples from the violation BDD — but only attaches them when the
/// violation set's variables are exactly the formula's syntactic leading
/// universals (rewrites can rename or reorder them; a certificate must
/// stay auditable from its own text). A budget abort or non-∀-prefixed
/// shape simply yields a witness-free certificate, which the auditor
/// re-checks by full re-evaluation instead.
pub fn emit_certificate(
    checker: &mut Checker,
    name: &str,
    f: &Formula,
    report: &CheckReport,
    witness_limit: usize,
) -> Result<Certificate> {
    let (constraint_fp, schema_fp) = checker.certificate_fingerprints(f)?;
    let witnesses = if report.verdict == Verdict::Violated {
        match checker.find_violations_counted(f, witness_limit)? {
            Some(cv) if cv.vars == leading_forall_vars(f) => {
                let tuples = cv.decode(checker.logical_db().db());
                Some(Witnesses {
                    truncated: (tuples.len() as f64) < cv.total,
                    vars: cv.vars,
                    classes: cv.classes,
                    total: cv.total,
                    tuples,
                })
            }
            _ => None,
        }
    } else {
        None
    };
    // After certificate_fingerprints/find_violations_counted: the
    // certificate records the state it was checked against.
    let data_version = checker.logical_db().data_version();
    Ok(Certificate {
        constraint: name.to_owned(),
        formula: f.to_string(),
        constraint_fp,
        schema_fp,
        data_version,
        verdict: report.verdict,
        rung: rung_name(report).to_owned(),
        witnesses,
    })
}

/// Emit certificates for a whole run of reports (e.g. the output of
/// [`crate::registry::ConstraintRegistry::validate_all`]).
pub fn emit_certificates(
    checker: &mut Checker,
    constraints: &[(String, Formula)],
    reports: &[(String, CheckReport)],
    witness_limit: usize,
) -> Result<Vec<Certificate>> {
    let by_name: HashMap<&str, &Formula> =
        constraints.iter().map(|(n, f)| (n.as_str(), f)).collect();
    let mut out = Vec::with_capacity(reports.len());
    for (name, report) in reports {
        let f = by_name
            .get(name.as_str())
            .expect("report names come from the constraint list");
        out.push(emit_certificate(checker, name, f, report, witness_limit)?);
    }
    Ok(out)
}

/// Verify one certificate against the database and spec constraints with
/// the naive interpreter only. See the module docs for the per-verdict
/// trust model.
pub fn verify_certificate(
    db: &Database,
    constraints: &[(String, Formula)],
    cert: &Certificate,
) -> std::result::Result<AuditOutcome, AuditError> {
    let constraint = cert.constraint.clone();
    let registered = constraints
        .iter()
        .find(|(n, _)| *n == cert.constraint)
        .map(|(_, f)| f)
        .ok_or_else(|| AuditError::UnknownConstraint(constraint.clone()))?;
    let f = parse(&cert.formula).map_err(|e| AuditError::Formula {
        constraint: constraint.clone(),
        message: e.to_string(),
    })?;
    let actual_fp = formula_fingerprint(&f);
    if actual_fp != cert.constraint_fp {
        return Err(AuditError::FingerprintMismatch {
            constraint,
            claimed: cert.constraint_fp,
            actual: actual_fp,
        });
    }
    if formula_fingerprint(registered) != cert.constraint_fp {
        return Err(AuditError::FormulaMismatch { constraint });
    }
    match cert.verdict {
        Verdict::Degraded | Verdict::Errored => Err(AuditError::Unauditable {
            constraint,
            verdict: cert.verdict,
        }),
        Verdict::Holds => {
            let holds = eval_sentence(db, &f).map_err(|e| AuditError::Eval {
                constraint: constraint.clone(),
                message: e.to_string(),
            })?;
            if !holds {
                return Err(AuditError::VerdictMismatch {
                    constraint,
                    claimed: Verdict::Holds,
                    reevaluated_holds: false,
                });
            }
            Ok(AuditOutcome {
                constraint,
                verdict: Verdict::Holds,
                witnesses_checked: 0,
                recounted: false,
            })
        }
        Verdict::Violated => match &cert.witnesses {
            Some(w) => verify_witnesses(db, &f, w, constraint),
            None => {
                let holds = eval_sentence(db, &f).map_err(|e| AuditError::Eval {
                    constraint: constraint.clone(),
                    message: e.to_string(),
                })?;
                if holds {
                    return Err(AuditError::VerdictMismatch {
                        constraint,
                        claimed: Verdict::Violated,
                        reevaluated_holds: true,
                    });
                }
                Ok(AuditOutcome {
                    constraint,
                    verdict: Verdict::Violated,
                    witnesses_checked: 0,
                    recounted: false,
                })
            }
        },
    }
}

fn verify_witnesses(
    db: &Database,
    f: &Formula,
    w: &Witnesses,
    constraint: String,
) -> std::result::Result<AuditOutcome, AuditError> {
    if w.vars != leading_forall_vars(f) {
        return Err(AuditError::WitnessVarsMismatch { constraint });
    }
    if w.classes.len() != w.vars.len() {
        return Err(AuditError::WitnessShape {
            constraint,
            index: usize::MAX,
        });
    }
    let matrix = skip_leading_foralls(f);
    let ctx = match EvalContext::open(db, matrix) {
        Ok(ctx) => ctx,
        // The matrix alone may not determine every variable's sort (a
        // variable used only against constants). Fall back to the
        // witness-free audit: the full sentence must still be false.
        Err(_) => {
            let holds = eval_sentence(db, f).map_err(|e| AuditError::Eval {
                constraint: constraint.clone(),
                message: e.to_string(),
            })?;
            if holds {
                return Err(AuditError::VerdictMismatch {
                    constraint,
                    claimed: Verdict::Violated,
                    reevaluated_holds: true,
                });
            }
            return Ok(AuditOutcome {
                constraint,
                verdict: Verdict::Violated,
                witnesses_checked: 0,
                recounted: false,
            });
        }
    };
    // The interpreter inferred its own sorts; the certificate's classes
    // must agree, or witness codes would be looked up in the wrong
    // dictionaries.
    for (v, class) in w.vars.iter().zip(&w.classes) {
        if ctx.sorts().get(v) != Some(class) {
            return Err(AuditError::WitnessVarsMismatch { constraint });
        }
    }
    for (i, tuple) in w.tuples.iter().enumerate() {
        if tuple.len() != w.vars.len() {
            return Err(AuditError::WitnessShape {
                constraint,
                index: i,
            });
        }
        let mut env = HashMap::with_capacity(w.vars.len());
        for ((v, class), raw) in w.vars.iter().zip(&w.classes).zip(tuple) {
            let code = db
                .code(class, raw)
                .ok_or_else(|| AuditError::WitnessValueUnknown {
                    constraint: constraint.clone(),
                    index: i,
                    var: v.clone(),
                    value: raw.to_string(),
                })?;
            env.insert(v.clone(), code);
        }
        if ctx.eval_with(&env) {
            return Err(AuditError::WitnessNotViolating {
                constraint,
                index: i,
            });
        }
    }
    // A non-empty verified witness list already proves the violation; an
    // empty one (witness_limit 0) still needs the full-sentence check.
    if w.tuples.is_empty() && w.total > 0.0 {
        let holds = eval_sentence(db, f).map_err(|e| AuditError::Eval {
            constraint: constraint.clone(),
            message: e.to_string(),
        })?;
        if holds {
            return Err(AuditError::VerdictMismatch {
                constraint,
                claimed: Verdict::Violated,
                reevaluated_holds: true,
            });
        }
    }
    // Exact recount when the assignment space is small enough: walk the
    // active-domain product of the witness variables and count falsifying
    // assignments.
    let space: f64 = w
        .classes
        .iter()
        .map(|c| db.class_size(c).max(1) as f64)
        .product();
    let mut recounted = false;
    if space <= RECOUNT_BOUND {
        let sizes: Vec<u32> = w
            .classes
            .iter()
            .map(|c| db.class_size(c).max(1) as u32)
            .collect();
        let mut codes = vec![0u32; w.vars.len()];
        let mut count = 0f64;
        loop {
            let env: HashMap<String, u32> =
                w.vars.iter().cloned().zip(codes.iter().copied()).collect();
            if !ctx.eval_with(&env) {
                count += 1.0;
            }
            // Odometer increment over the mixed-radix code vector.
            let mut pos = w.vars.len();
            loop {
                if pos == 0 {
                    break;
                }
                pos -= 1;
                codes[pos] += 1;
                if codes[pos] < sizes[pos] {
                    break;
                }
                codes[pos] = 0;
                if pos == 0 {
                    pos = usize::MAX;
                    break;
                }
            }
            if pos == usize::MAX || w.vars.is_empty() {
                break;
            }
        }
        if count != w.total {
            return Err(AuditError::CountMismatch {
                constraint,
                claimed: w.total,
                actual: count,
            });
        }
        recounted = true;
    }
    // Internal consistency of the header itself.
    if w.truncated != ((w.tuples.len() as f64) < w.total) {
        return Err(AuditError::Field {
            path: format!("{constraint}.witnesses.truncated"),
            expected: "truncated == (tuples.len() < total)".to_owned(),
        });
    }
    Ok(AuditOutcome {
        constraint,
        verdict: Verdict::Violated,
        witnesses_checked: w.tuples.len(),
        recounted,
    })
}

// ---------------------------------------------------------------------
// JSON round trip (hand-rolled, std-only, byte-stable)
// ---------------------------------------------------------------------

/// `u64` fingerprints travel as JSON strings: the parser (and many
/// consumers) give JSON integers only `i64` range. Matches the metrics
/// schema's failpoint-seed precedent.
fn write_u64_str(w: &mut JsonWriter, v: u64) {
    w.string(&v.to_string());
}

/// Exact violation totals travel as strings too: they are `f64` counts
/// that can exceed every integer type, and a string round-trips
/// byte-identically.
fn format_total(t: f64) -> String {
    if t >= 0.0 && t == t.trunc() && t <= u64::MAX as f64 {
        format!("{}", t as u64)
    } else {
        format!("{t}")
    }
}

fn write_raw_value(w: &mut JsonWriter, raw: &Raw) {
    w.obj_open();
    match raw {
        Raw::Int(i) => {
            w.key("int");
            w.raw(&i.to_string());
        }
        Raw::Str(s) => {
            w.key("str");
            w.string(s);
        }
    }
    w.obj_close();
}

fn write_certificate(w: &mut JsonWriter, cert: &Certificate) {
    w.obj_open();
    w.key("certificate_version");
    w.raw(&CERTIFICATE_VERSION.to_string());
    w.key("constraint");
    w.string(&cert.constraint);
    w.key("formula");
    w.string(&cert.formula);
    w.key("constraint_fp");
    write_u64_str(w, cert.constraint_fp);
    w.key("schema_fp");
    write_u64_str(w, cert.schema_fp);
    w.key("data_version");
    w.raw(&cert.data_version.to_string());
    w.key("verdict");
    w.string(cert.verdict.name());
    w.key("rung");
    w.string(&cert.rung);
    w.key("witnesses");
    match &cert.witnesses {
        None => w.raw("null"),
        Some(ws) => {
            w.obj_open();
            w.key("vars");
            w.arr_open();
            for v in &ws.vars {
                w.string(v);
            }
            w.arr_close();
            w.key("classes");
            w.arr_open();
            for c in &ws.classes {
                w.string(c);
            }
            w.arr_close();
            w.key("total");
            w.string(&format_total(ws.total));
            w.key("truncated");
            w.bool(ws.truncated);
            w.key("tuples");
            w.arr_open();
            for tuple in &ws.tuples {
                w.arr_open();
                for raw in tuple {
                    write_raw_value(w, raw);
                }
                w.arr_close();
            }
            w.arr_close();
            w.obj_close();
        }
    }
    w.obj_close();
}

impl Certificate {
    /// Render one certificate as a JSON object.
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        write_certificate(&mut w, self);
        w.finish()
    }
}

/// Render a bundle of certificates as a JSON array — the `--certify` /
/// `audit emit` file format.
pub fn bundle_to_json(certs: &[Certificate]) -> String {
    let mut w = JsonWriter::new();
    w.arr_open();
    for c in certs {
        write_certificate(&mut w, c);
    }
    w.arr_close();
    w.finish()
}

fn field_err(path: &str, expected: &str) -> AuditError {
    AuditError::Field {
        path: path.to_owned(),
        expected: expected.to_owned(),
    }
}

fn get_str(v: &Json, at: &str, field: &str) -> std::result::Result<String, AuditError> {
    v.get(field)
        .and_then(Json::as_str)
        .map(str::to_owned)
        .ok_or_else(|| field_err(&format!("{at}.{field}"), "string"))
}

fn get_u64_str(v: &Json, at: &str, field: &str) -> std::result::Result<u64, AuditError> {
    get_str(v, at, field)?
        .parse::<u64>()
        .map_err(|_| field_err(&format!("{at}.{field}"), "u64-as-string"))
}

fn parse_raw_value(v: &Json, at: &str) -> std::result::Result<Raw, AuditError> {
    match (v.get("int"), v.get("str")) {
        (Some(Json::Int(i)), None) => Ok(Raw::Int(*i)),
        (None, Some(Json::Str(s))) => Ok(Raw::Str(s.clone())),
        _ => Err(field_err(at, "{\"int\": n} or {\"str\": s}")),
    }
}

fn certificate_from_json(v: &Json, at: &str) -> std::result::Result<Certificate, AuditError> {
    let version = v
        .get("certificate_version")
        .and_then(Json::as_int)
        .ok_or_else(|| field_err(&format!("{at}.certificate_version"), "integer"))?;
    if version != CERTIFICATE_VERSION {
        return Err(AuditError::UnsupportedVersion(version));
    }
    let constraint = get_str(v, at, "constraint")?;
    let formula = get_str(v, at, "formula")?;
    let constraint_fp = get_u64_str(v, at, "constraint_fp")?;
    let schema_fp = get_u64_str(v, at, "schema_fp")?;
    let data_version = v
        .get("data_version")
        .and_then(Json::as_int)
        .filter(|n| *n >= 0)
        .ok_or_else(|| field_err(&format!("{at}.data_version"), "non-negative integer"))?
        as u64;
    let verdict = v.get("verdict").and_then(Json::as_str);
    let verdict = Verdict::ALL
        .into_iter()
        .find(|known| Some(known.name()) == verdict)
        .ok_or_else(|| field_err(&format!("{at}.verdict"), "holds|violated|degraded|errored"))?;
    let rung = get_str(v, at, "rung")?;
    if !rung::ALL.contains(&rung.as_str()) {
        return Err(field_err(&format!("{at}.rung"), "a known ladder rung"));
    }
    let witnesses = match v.get("witnesses") {
        None => return Err(field_err(&format!("{at}.witnesses"), "object or null")),
        Some(Json::Null) => None,
        Some(ws) => {
            let wat = format!("{at}.witnesses");
            let strings = |field: &str| -> std::result::Result<Vec<String>, AuditError> {
                ws.get(field)
                    .and_then(Json::as_arr)
                    .ok_or_else(|| field_err(&format!("{wat}.{field}"), "array"))?
                    .iter()
                    .map(|s| {
                        s.as_str()
                            .map(str::to_owned)
                            .ok_or_else(|| field_err(&format!("{wat}.{field}[]"), "string"))
                    })
                    .collect()
            };
            let vars = strings("vars")?;
            let classes = strings("classes")?;
            let total = get_str(ws, &wat, "total")?
                .parse::<f64>()
                .map_err(|_| field_err(&format!("{wat}.total"), "numeric string"))?;
            let truncated = match ws.get("truncated") {
                Some(Json::Bool(b)) => *b,
                _ => return Err(field_err(&format!("{wat}.truncated"), "boolean")),
            };
            let tuples = ws
                .get("tuples")
                .and_then(Json::as_arr)
                .ok_or_else(|| field_err(&format!("{wat}.tuples"), "array"))?
                .iter()
                .enumerate()
                .map(|(i, t)| {
                    t.as_arr()
                        .ok_or_else(|| field_err(&format!("{wat}.tuples[{i}]"), "array"))?
                        .iter()
                        .map(|rv| parse_raw_value(rv, &format!("{wat}.tuples[{i}][]")))
                        .collect::<std::result::Result<Vec<Raw>, AuditError>>()
                })
                .collect::<std::result::Result<Vec<Vec<Raw>>, AuditError>>()?;
            Some(Witnesses {
                vars,
                classes,
                total,
                truncated,
                tuples,
            })
        }
    };
    Ok(Certificate {
        constraint,
        formula,
        constraint_fp,
        schema_fp,
        data_version,
        verdict,
        rung,
        witnesses,
    })
}

/// Parse a certificate bundle: a JSON array of certificates, or a single
/// certificate object.
pub fn parse_bundle(text: &str) -> std::result::Result<Vec<Certificate>, AuditError> {
    let doc = parse_json(text).map_err(AuditError::Json)?;
    match &doc {
        Json::Arr(items) => items
            .iter()
            .enumerate()
            .map(|(i, v)| certificate_from_json(v, &format!("certs[{i}]")))
            .collect(),
        Json::Obj(_) => Ok(vec![certificate_from_json(&doc, "cert")?]),
        _ => Err(AuditError::Json(
            "expected a certificate object or array".to_owned(),
        )),
    }
}

/// Verify a whole bundle, returning each certificate's outcome in order.
pub fn verify_bundle(
    db: &Database,
    constraints: &[(String, Formula)],
    certs: &[Certificate],
) -> Vec<(String, std::result::Result<AuditOutcome, AuditError>)> {
    certs
        .iter()
        .map(|c| (c.constraint.clone(), verify_certificate(db, constraints, c)))
        .collect()
}

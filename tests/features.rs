//! Integration tests for the extension features: the spec-file pipeline,
//! registry-driven re-validation, EXPLAIN, BDD drill-down, and index
//! persistence — each exercised end to end through the public facade.

use relcheck::bdd::{BddManager, ExportedBdd};
use relcheck::core_::checker::{Checker, CheckerOptions, CountedViolations};
use relcheck::core_::registry::{ConstraintRegistry, Verdict};
use relcheck::relstore::{Database, Raw};
use relcheck::spec::parse_spec;

const SPEC: &str = r#"
table CUSTOMERS from customers.csv header with
    city:city, areacode:areacode, state:state
table CITY_STATE from reference.csv with city:city, state:state

constraint toronto-prefixes:
    forall c, a, s. CUSTOMERS(c, a, s) & c = "Toronto" -> a in {416, 647, 905}
constraint reference-agrees:
    forall c, a, s, s2. CUSTOMERS(c, a, s) & CITY_STATE(c, s2) -> s = s2
"#;

const CUSTOMERS_CSV: &str = "\
city,areacode,state
Toronto,416,ON
Toronto,212,ON
Newark,973,NJ
Newark,973,NY
";

const REFERENCE_CSV: &str = "Toronto,ON\nNewark,NJ\n";

/// Build the database the way the CLI does: spec + CSV text.
fn spec_db() -> (Vec<(String, relcheck::logic::Formula)>, Database) {
    let spec = parse_spec(SPEC).unwrap();
    let mut db = Database::new();
    for t in &spec.tables {
        let csv = match t.path.as_str() {
            "customers.csv" => CUSTOMERS_CSV,
            "reference.csv" => REFERENCE_CSV,
            other => panic!("unexpected table path {other}"),
        };
        let columns: Vec<(&str, &str)> = t
            .columns
            .iter()
            .map(|(c, k)| (c.as_str(), k.as_str()))
            .collect();
        db.create_relation_from_csv(&t.name, &columns, csv, t.has_header)
            .unwrap();
    }
    let constraints = spec
        .constraints
        .into_iter()
        .map(|c| (c.name, c.formula))
        .collect();
    (constraints, db)
}

#[test]
fn spec_pipeline_end_to_end() {
    let (constraints, db) = spec_db();
    let mut ck = Checker::new(db, CheckerOptions::default());
    let reports = ck.check_all(&constraints).unwrap();
    let verdicts: Vec<(String, bool)> = reports.into_iter().map(|(n, r)| (n, r.holds)).collect();
    assert_eq!(
        verdicts,
        vec![
            ("toronto-prefixes".to_owned(), false), // 212 row
            ("reference-agrees".to_owned(), false), // Newark/NY row
        ]
    );
    // Drill into the first violation and decode it.
    let (rows, cols) = ck.find_violations(&constraints[0].1).unwrap();
    assert_eq!(rows.len(), 1);
    let ia = cols.iter().position(|c| c == "a").unwrap();
    let decoded = ck.logical_db().db().decode_row(&rows, &rows.row(0));
    assert_eq!(decoded[ia], Raw::Int(212));
}

#[test]
fn bdd_and_sql_drilldowns_agree_on_spec_constraints() {
    let (constraints, db) = spec_db();
    let mut ck = Checker::new(db, CheckerOptions::default());
    for (name, f) in &constraints {
        let CountedViolations {
            vars: names,
            rows: mut bdd_rows,
            ..
        } = ck
            .find_violations_counted(f, 1000)
            .unwrap()
            .unwrap_or_else(|| panic!("{name} should be ∀-prefixed"));
        let (sql_rel, sql_cols) = ck.find_violations(f).unwrap();
        assert_eq!(bdd_rows.len(), sql_rel.len(), "{name}");
        let perm: Vec<usize> = sql_cols
            .iter()
            .map(|c| names.iter().position(|n| n == c).unwrap())
            .collect();
        for row in &mut bdd_rows {
            *row = perm.iter().map(|&i| row[i]).collect();
        }
        let mut sql_rows: Vec<Vec<u32>> = sql_rel.rows().collect();
        bdd_rows.sort();
        sql_rows.sort();
        assert_eq!(bdd_rows, sql_rows, "{name}");
    }
}

#[test]
fn explain_runs_for_spec_constraints() {
    let (constraints, db) = spec_db();
    let mut ck = Checker::new(db, CheckerOptions::default());
    for (name, f) in &constraints {
        let e = ck.explain(f).unwrap();
        assert!(e.bdd.as_ref().unwrap().stripped_leading > 0, "{name}");
        assert!(e.sql_plan.is_some(), "{name} is in the SQL class");
        assert!(!format!("{e}").is_empty());
    }
}

#[test]
fn registry_over_spec_constraints() {
    let (constraints, db) = spec_db();
    let mut ck = Checker::new(db, CheckerOptions::default());
    let mut reg = ConstraintRegistry::new();
    for (name, f) in &constraints {
        assert!(reg.register(name, f.clone()));
    }
    reg.validate_all(&mut ck).unwrap();
    // Touch only CITY_STATE: the customers-only constraint stays cached.
    let verdicts = reg.revalidate(&mut ck, &["CITY_STATE"]).unwrap();
    let by_name: std::collections::HashMap<_, _> = verdicts.into_iter().collect();
    assert!(matches!(
        by_name["toronto-prefixes"],
        Verdict::Cached { holds: false }
    ));
    assert!(matches!(
        by_name["reference-agrees"],
        Verdict::Checked { holds: false }
    ));
}

#[test]
fn index_persistence_round_trip() {
    // Build an index, export it, import into a fresh manager with the same
    // layout, and verify the function is intact — the save/restore story
    // for long-lived logical indices.
    let (_, db) = spec_db();
    let mut ck = Checker::new(db, CheckerOptions::default());
    ck.ensure_index("CUSTOMERS").unwrap();
    let idx = ck.logical_db().index("CUSTOMERS").unwrap().clone();
    let snapshot = ck.logical_db().manager().export(idx.root);
    let bytes = snapshot.to_bytes();

    // "Restart": rebuild the same domain layout in a fresh manager.
    let decoded = ExportedBdd::from_bytes(&bytes).unwrap();
    let mut m2 = BddManager::new();
    let mut doms2 = Vec::new();
    {
        let m1 = ck.logical_db().manager();
        // Recreate domains in declaration order with identical sizes.
        let mut infos: Vec<_> = (0..idx.domains.len())
            .map(|i| (idx.domains[i], m1.domain_info(idx.domains[i])))
            .collect();
        infos.sort_by_key(|&(_, info)| info.first_var);
        for (_, info) in &infos {
            doms2.push((m2.add_domain(info.size).unwrap(), info.first_var));
        }
    }
    let root2 = m2.import(&decoded, |v| v).unwrap();
    // Tuple counts agree.
    let schema_order: Vec<_> = {
        // match idx.domains (schema order) to the new manager's domains via
        // first_var ordering
        idx.domains
            .iter()
            .map(|&d| {
                let fv = ck.logical_db().manager().domain_info(d).first_var;
                doms2.iter().find(|&&(_, v)| v == fv).unwrap().0
            })
            .collect()
    };
    let n_old = {
        let mgr = ck.logical_db_mut().manager_mut();
        mgr.tuple_count(idx.root, &idx.domains).unwrap()
    };
    let n_new = m2.tuple_count(root2, &schema_order).unwrap();
    assert_eq!(n_old, n_new);
    assert_eq!(n_new, 4.0, "four distinct customer rows");
}

#[test]
fn level_profiles_reflect_ordering_quality() {
    // A structured relation under a good vs bad ordering: the profile
    // total (== size) must differ, and every profile sums to size.
    use relcheck::core_::ordering::OrderingStrategy;
    use relcheck::datagen::gen_kprod;
    use relcheck::relstore::Relation;
    let g = gen_kprod(4, 32, 2000, 1, 5);
    let sizes: Vec<usize> = [OrderingStrategy::ProbConverge, OrderingStrategy::Random(1)]
        .into_iter()
        .map(|strategy| {
            let mut db = Database::new();
            for (i, &s) in g.dom_sizes.iter().enumerate() {
                db.ensure_class_size(&format!("v{i}"), s);
            }
            let rel = Relation::from_rows(g.relation.schema().clone(), g.relation.rows()).unwrap();
            db.insert_relation("R", rel).unwrap();
            let opts = CheckerOptions {
                ordering: strategy,
                ..Default::default()
            };
            let mut ck = Checker::new(db, opts);
            ck.ensure_index("R").unwrap();
            let idx = ck.logical_db().index("R").unwrap().clone();
            let mgr = ck.logical_db().manager();
            let profile = mgr.level_profile(idx.root);
            let total: usize = profile.iter().map(|&(_, c)| c).sum();
            assert_eq!(total, mgr.size(idx.root));
            total
        })
        .collect();
    assert!(
        sizes[0] <= sizes[1],
        "Prob-Converge ({}) should not lose to random ({})",
        sizes[0],
        sizes[1]
    );
}

#[test]
fn cli_spec_in_repo_is_valid() {
    // The shipped demo spec must stay parseable and well-typed.
    let text = std::fs::read_to_string(
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("testdata/phones.spec"),
    )
    .unwrap();
    let spec = parse_spec(&text).unwrap();
    assert_eq!(spec.tables.len(), 2);
    assert_eq!(spec.constraints.len(), 4);
    for c in &spec.constraints {
        assert!(c.formula.is_sentence(), "{} must be a sentence", c.name);
    }
}

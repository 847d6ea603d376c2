//! The `relcheck` binary end to end: run modes agree on what a spec
//! may declare, a file an older build left in the index cache never
//! changes a run, and `run` lists the violations it finds.

use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};

/// A fresh scratch project holding `testdata/phones.spec` (with `extra`
/// appended) and the CSV files it loads.
fn project(tag: &str, extra: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("relcheck-cli-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let testdata = Path::new(env!("CARGO_MANIFEST_DIR")).join("testdata");
    for csv in ["customers.csv", "reference.csv"] {
        std::fs::copy(testdata.join(csv), dir.join(csv)).unwrap();
    }
    let spec = std::fs::read_to_string(testdata.join("phones.spec")).unwrap();
    std::fs::write(dir.join("phones.spec"), spec + extra).unwrap();
    dir
}

fn relcheck(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_relcheck"))
        .args(args)
        .stdin(Stdio::null())
        .output()
        .unwrap()
}

/// The verdict lines of a `run` report, per-constraint timings stripped.
fn verdicts(out: &Output) -> Vec<String> {
    String::from_utf8_lossy(&out.stdout)
        .lines()
        .filter(|l| l.contains(" via "))
        .map(|l| l.rsplit_once(" in ").map_or(l, |(head, _)| head).to_owned())
        .collect()
}

#[test]
fn every_run_mode_rejects_a_repeated_constraint_name() {
    let dir = project(
        "dup",
        "\nconstraint toronto-prefixes:\n    forall c, s2. CITY_STATE(c, s2) -> c = c\n",
    );
    let spec = dir.join("phones.spec");
    let spec = spec.to_str().unwrap();
    for args in [
        vec!["run", spec],
        vec!["run", spec, "--sql"],
        vec!["serve", spec],
    ] {
        let out = relcheck(&args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(
            stderr.contains("line 19") && stderr.contains("duplicate constraint name"),
            "{args:?}: {stderr}"
        );
        assert!(verdicts(&out).is_empty(), "{args:?} printed reports");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Older builds saved a workload profile next to the index segments.
/// A cache directory still holding one warm-starts like a clean cache:
/// the file is neither read, rewritten nor warned about.
#[test]
fn a_leftover_workload_profile_in_the_index_cache_is_ignored() {
    let dir = project("profile", "");
    let spec = dir.join("phones.spec");
    let spec = spec.to_str().unwrap();
    let mut warm = Vec::new();
    for (tag, leftover) in [("clean", None), ("leftover", Some(&b"RCWP\x02garbage"[..]))] {
        let cache = dir.join(tag);
        let cache = cache.to_str().unwrap();
        relcheck(&["run", spec, "--index-cache", cache]);
        if let Some(bytes) = leftover {
            std::fs::write(Path::new(cache).join("workload.profile"), bytes).unwrap();
        }
        let out = relcheck(&["run", spec, "--index-cache", cache]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        // phones.spec plants violations: exit 1, and nothing on stderr.
        assert_eq!(out.status.code(), Some(1), "{tag}: {stderr}");
        assert!(stderr.is_empty(), "{tag}: {stderr}");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            stdout.contains("index-cache: 2 hit(s), 0 miss(es)"),
            "{tag}: {stdout}"
        );
        if let Some(bytes) = leftover {
            let kept = std::fs::read(Path::new(cache).join("workload.profile")).unwrap();
            assert_eq!(kept, bytes, "the run rewrote the leftover profile");
        }
        warm.push(verdicts(&out));
    }
    assert_eq!(warm[0].len(), 4);
    assert_eq!(warm[0], warm[1]);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A violated ∀ constraint the SQL translator has no plan for still has
/// its violating tuples listed: `run` falls back to the violation BDD's
/// witnesses, the ones `--certify` writes.
#[test]
fn run_lists_violations_that_only_the_bdd_path_can_enumerate() {
    let dir = std::env::temp_dir().join(format!("relcheck-cli-or-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let testdata = Path::new(env!("CARGO_MANIFEST_DIR")).join("testdata");
    std::fs::copy(testdata.join("reference.csv"), dir.join("reference.csv")).unwrap();
    let spec = dir.join("or.spec");
    std::fs::write(
        &spec,
        "table CITY_STATE from reference.csv with city:city, state:state\n\n\
         constraint or-shape:\n    \
         forall c, s. CITY_STATE(c, s) -> c = \"Toronto\" | s = \"ON\"\n",
    )
    .unwrap();
    let out = relcheck(&["run", spec.to_str().unwrap()]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(1), "{stdout}");
    assert!(!stdout.contains("cannot enumerate"), "{stdout}");
    assert!(
        stdout.contains("  columns: c, s\n  (Newark, NJ)\n"),
        "{stdout}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// `run --sql` walks the same ladder as plain `run`: a failing SQL rung
/// falls to brute force, so every constraint is still decided.
#[test]
fn run_sql_falls_to_brute_force_when_the_sql_rung_fails() {
    let spec = Path::new(env!("CARGO_MANIFEST_DIR")).join("testdata/phones.spec");
    let out = relcheck(&[
        "run",
        spec.to_str().unwrap(),
        "--sql",
        "--fail-spec",
        "sql-fallback=1",
    ]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stdout}{stderr}");
    let lines = verdicts(&out);
    assert_eq!(lines.len(), 4, "{stdout}");
    assert!(
        lines.iter().all(|l| l.ends_with("via BruteForce")),
        "{lines:#?}"
    );
}

#[test]
fn unknown_flags_and_missing_values_are_usage_errors() {
    let spec = Path::new(env!("CARGO_MANIFEST_DIR")).join("testdata/phones.spec");
    let spec = spec.to_str().unwrap();
    // `run` checks every constraint in one pass over one BDD manager; the
    // worker-count flag older builds took is a usage error, not ignored.
    let threads = ["--", "threads"].concat();
    let unknown_threads = format!("unknown flag {threads}");
    for (args, names) in [
        (
            vec![
                "run",
                spec,
                "--limt",
                "1",
                "--ordring",
                "bogus",
                "--deadlin-ms",
                "1",
            ],
            "unknown flag --limt",
        ),
        (vec!["run", spec, "--metrics"], "--metrics expects a value"),
        (
            vec!["run", spec, "--metrics", "--sql"],
            "--metrics expects a value",
        ),
        (
            vec!["plan", spec, "--ordering"],
            "--ordering expects a value",
        ),
        (
            vec!["run", spec, "--ordering", "sifted"],
            "unknown ordering \"sifted\"",
        ),
        (
            vec!["run", spec, "--ordering", "adaptive"],
            "unknown ordering \"adaptive\"",
        ),
        (vec!["run", spec, "extra"], "unexpected argument \"extra\""),
        (vec!["run", spec, "--route", "auto"], "unknown flag --route"),
        (
            vec!["run", spec, threads.as_str(), "2"],
            unknown_threads.as_str(),
        ),
        (vec!["advise", spec], "usage:"),
    ] {
        let out = relcheck(&args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(names), "{args:?}: {stderr}");
        assert!(verdicts(&out).is_empty(), "{args:?} ran the checks");
        assert!(out.stdout.is_empty(), "{args:?} printed a plan or a report");
    }
}

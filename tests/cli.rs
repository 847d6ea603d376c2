//! The `relcheck` binary end to end: run modes agree on what a spec
//! may declare, and a profile written by an older build never stops a
//! run.

use relcheck::bdd::{encode_frame, OP_KINDS};
use relcheck::core_::policy::{WorkloadProfile, PROFILE_FILE, PROFILE_MAGIC};
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

/// `(name, status)` of every verdict line of a `run` report.
fn verdicts(out: &Output) -> Vec<(String, String)> {
    String::from_utf8_lossy(&out.stdout)
        .lines()
        .filter(|l| l.contains(" via "))
        .map(|l| {
            let mut words = l.split_whitespace();
            let name = words.next().unwrap().to_owned();
            (name, words.next().unwrap().to_owned())
        })
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
        vec!["run", spec, "--threads", "1"],
        vec!["run", spec, "--threads", "2"],
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

/// A profile in the previous on-disk format (1), which also carried
/// op-cache, plan-cache and per-op counters.
fn format1_profile_bytes() -> Vec<u8> {
    let mut p = Vec::new();
    for v in [4u64, 5000, 40, 60, 1, 3] {
        p.extend_from_slice(&v.to_le_bytes());
    }
    p.extend_from_slice(&(OP_KINDS as u32).to_le_bytes());
    for _ in 0..OP_KINDS {
        p.extend_from_slice(&9u64.to_le_bytes());
    }
    p.extend_from_slice(&0u32.to_le_bytes());
    encode_frame(PROFILE_MAGIC, 1, &[], &p)
}

#[test]
fn auto_routing_over_a_format1_profile_warns_and_starts_cold() {
    let dir = project("profile", "");
    let spec = dir.join("phones.spec");
    let spec = spec.to_str().unwrap();
    let cache = dir.join("cache");
    std::fs::create_dir_all(&cache).unwrap();
    std::fs::write(cache.join(PROFILE_FILE), format1_profile_bytes()).unwrap();

    let auto = relcheck(&[
        "run",
        spec,
        "--route",
        "auto",
        "--index-cache",
        cache.to_str().unwrap(),
    ]);
    let stderr = String::from_utf8_lossy(&auto.stderr);
    assert!(
        stderr.contains("workload profile unreadable") && stderr.contains("starting cold"),
        "{stderr}"
    );
    // Cold: no advice from the old file, and the default apply cache.
    let stdout = String::from_utf8_lossy(&auto.stdout);
    assert!(
        stdout.contains("0 sql-routed") && stdout.contains("apply cache 262144 slot(s)"),
        "{stdout}"
    );
    // phones.spec plants violations: exit 1, with the static run's verdicts.
    assert_eq!(auto.status.code(), Some(1), "{stderr}");
    let baseline = relcheck(&["run", spec]);
    assert_eq!(verdicts(&auto), verdicts(&baseline));
    assert_eq!(verdicts(&auto).len(), 4);
    // The run re-recorded the profile in the current format.
    let saved = WorkloadProfile::load(&cache)
        .unwrap()
        .expect("profile saved");
    assert_eq!(saved.checks, 4);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn unknown_flags_and_missing_values_are_usage_errors() {
    let spec = Path::new(env!("CARGO_MANIFEST_DIR")).join("testdata/phones.spec");
    let spec = spec.to_str().unwrap();
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
        (vec!["run", spec, "extra"], "unexpected argument \"extra\""),
    ] {
        let out = relcheck(&args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(names), "{args:?}: {stderr}");
        assert!(verdicts(&out).is_empty(), "{args:?} ran the checks");
        assert!(out.stdout.is_empty(), "{args:?} printed a plan or a report");
    }
}

//! End-to-end tests of the `results` binary's front end: a bad argument
//! is a usage error before anything runs, and an unwritable `results/`
//! is a failure, not a silent success.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// A fresh, empty working directory for one case.
fn workdir(case: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("results_cli").join(case);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("work dir created");
    dir
}

fn results(dir: &Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_results"))
        .args(args)
        .current_dir(dir)
        .output()
        .expect("results runs")
}

#[test]
fn bad_arguments_exit_2_and_write_nothing() {
    for (case, args) in [
        ("non_numeric_seed", &["--seed", "7x"][..]),
        ("missing_seed_value", &["--seed"][..]),
        ("unknown_flag", &["--sed", "7"][..]),
        ("repeated_seed", &["--seed", "7", "--seed", "8"][..]),
    ] {
        let dir = workdir(case);
        let out = results(&dir, args);
        assert_eq!(out.status.code(), Some(2), "{case}: {}", String::from_utf8_lossy(&out.stderr));
        assert!(String::from_utf8_lossy(&out.stderr).contains("usage"), "{case}");
        assert!(out.stdout.is_empty(), "{case}: a simulation ran");
        assert!(!dir.join("results").exists(), "{case}: results/ created");
    }
}

#[test]
fn unwritable_results_dir_exits_1_before_simulating() {
    let dir = workdir("results_is_a_file");
    std::fs::write(dir.join("results"), "not a directory").expect("blocker written");
    let out = results(&dir, &[]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("cannot create results/"), "{stderr}");
    // Nothing was simulated: the tables would be on stdout.
    assert!(out.stdout.is_empty(), "{}", String::from_utf8_lossy(&out.stdout));
}

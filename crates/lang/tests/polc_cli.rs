//! End-to-end tests of the `polc` binary: the `verify` subcommand with
//! its JSON output, the code registry, and which subcommands take which
//! flags.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn polc(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_polc"))
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .expect("polc runs")
}

fn fixture(name: &str) -> String {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../examples/lint")
        .join(name)
        .to_string_lossy()
        .into_owned()
}

fn contract(name: &str) -> String {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../crates/core/contracts")
        .join(name)
        .to_string_lossy()
        .into_owned()
}

#[test]
fn verify_reports_system_and_writes_json() {
    let json_path = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("verify.json");
    let out = polc(&[
        "verify",
        "--json",
        &json_path.to_string_lossy(),
        &contract("proof_of_location.pol"),
        &contract("proof_of_location_v2.pol"),
    ]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}\n{}", String::from_utf8_lossy(&out.stderr));
    assert!(stdout.contains("aggregate conservation holds"), "{stdout}");

    let json = std::fs::read_to_string(&json_path).expect("JSON written");
    assert!(json.contains("\"theorems_checked\": 42"), "{json}");
    assert!(json.contains("\"theorems_checked\": 52"), "{json}");
    assert!(json.contains("\"failures\": 0}"), "{json}");
    assert!(json.contains("\"aggregate_conserved\": true"), "{json}");
}

#[test]
fn codes_registry_includes_the_system_codes() {
    let out = polc(&["codes"]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    for code in ["L0008", "X0501", "X0502", "X0503", "X0504"] {
        assert!(stdout.contains(code), "missing {code} in:\n{stdout}");
    }
}

#[test]
fn gas_certifies_the_v2_contract() {
    let out = polc(&["gas", &contract("proof_of_location_v2.pol")]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}\n{}", String::from_utf8_lossy(&out.stderr));
    assert!(stdout.contains("contract proof_of_location_v2"), "{stdout}");
    // Every API, view and closeContract carries a certified (non-⊤)
    // bound on both backends...
    for method in [
        "insert_data",
        "insert_money",
        "verify",
        "set_reward_gap",
        "view_position",
        "closeContract",
    ] {
        assert!(stdout.contains(method), "missing {method} in:\n{stdout}");
    }
    assert!(!stdout.contains('⊤'), "uncertified method:\n{stdout}");
    // ...and every AVM bound fits the per-call budget, so no method is
    // flagged against its budget.
    assert!(!stdout.contains("!avm-budget"), "{stdout}");
    assert!(!stdout.contains("!block-budget"), "{stdout}");
}

#[test]
fn gas_writes_machine_readable_bounds() {
    let json_path = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("gas_bounds.json");
    let out = polc(&[
        "gas",
        "--json",
        &json_path.to_string_lossy(),
        &contract("proof_of_location.pol"),
        &contract("proof_of_location_v2.pol"),
    ]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));

    let json = std::fs::read_to_string(&json_path).expect("JSON written");
    assert!(json.contains("\"contracts\": ["), "{json}");
    assert!(json.contains("\"name\": \"proof_of_location\""), "{json}");
    assert!(json.contains("\"name\": \"proof_of_location_v2\""), "{json}");
    assert!(json.contains("\"block_gas_budget\": 30000000"), "{json}");
    assert!(json.contains("\"avm_call_budget\": 700"), "{json}");
    // Affine constructor bounds and constant call bounds both render;
    // nothing degrades to ⊤ on the shipped contracts.
    assert!(json.contains("\"form\": \"affine\""), "{json}");
    assert!(json.contains("\"form\": \"const\""), "{json}");
    assert!(!json.contains("\"form\": \"top\""), "{json}");
}

#[test]
fn gas_rejects_unparseable_and_unchecked_input() {
    let bogus = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("bogus.pol");
    std::fs::write(&bogus, "contract {").expect("fixture written");
    let out = polc(&["gas", &bogus.to_string_lossy()]);
    assert_eq!(out.status.code(), Some(2), "parse errors exit 2");
}

#[test]
fn flags_outside_their_subcommand_are_usage_errors() {
    let v1 = contract("proof_of_location.pol");
    let json_path = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("misplaced_flag.json");
    let _ = std::fs::remove_file(&json_path);
    let json = json_path.to_string_lossy().into_owned();
    for args in [
        &["codes", "--json", &json][..],
        &["lint", "--json", &json, &fixture("relational_guard.pol")][..],
        &["gas", "--json", &json, "--json", &json, &v1][..],
        &["gas", "--bogus", &v1][..],
        &["lint", "--no-relational", &fixture("relational_guard.pol")][..],
        &["verify", "--no-relational", &v1][..],
    ] {
        let out = polc(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.starts_with("usage: polc"), "{args:?}: {stderr}");
    }
    assert!(!json_path.exists(), "a rejected --json still wrote its file");
}

#[test]
fn json_without_a_path_is_a_usage_error() {
    let v1 = contract("proof_of_location.pol");
    for args in [
        &["gas", &v1, "--json"][..],
        &["summaries", &v1, "--json"][..],
        &["verify", &v1, "--json"][..],
        &["verify", "--json", "--json", &v1][..],
    ] {
        let out = polc(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.starts_with("usage: polc"), "{args:?}: {stderr}");
    }
}

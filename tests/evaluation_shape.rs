//! Evaluation-shape tests: small versions of the Chapter-5 runs whose
//! qualitative conclusions must hold on every build. (The full tables
//! and figures come from `cargo run --release -p pol-bench --bin results`.)

use pol_bench as bench;
use pol_chainsim::presets;
use pol_core::system::OpKind;
use pol_crowdsense::simulation::{self, SimulationConfig};

#[test]
fn figure_5_1_values_are_exact() {
    // Fig. 5.1 prints the gas certificates, figure for figure.
    let analysis = bench::conservative_analysis();
    let bounds = pol_lang::gas::certify(&pol_core::contract::pol_program()).unwrap();
    let deploy = (bounds.constructor_evm.worst_case(), bounds.constructor_avm.worst_case());
    assert_eq!((Some(analysis.evm_deploy_gas), Some(analysis.avm_create_cost)), deploy);
    assert_eq!(analysis.apis.len(), 3);
    for api in &analysis.apis {
        let m = bounds.methods.iter().find(|m| m.name == api.name).unwrap();
        let certified = (m.evm.worst_case(), m.avm.worst_case());
        assert_eq!((Some(api.evm_gas), Some(api.avm_cost)), certified, "{}", api.name);
    }
    assert_eq!(analysis.theorems, 42, "Fig. 2.11: 42 theorems");
    assert!(analysis.verified);
}

#[test]
fn eight_user_shape_holds_across_networks() {
    let config = SimulationConfig { users: 8, seed: 7, ..Default::default() };
    let goerli = simulation::run(&presets::goerli(), &config).unwrap();
    let mumbai = simulation::run(&presets::mumbai(), &config).unwrap();
    let algo = simulation::run(&presets::algorand_testnet(), &config).unwrap();

    // Who wins, per the paper's conclusions.
    assert!(
        goerli.deploy_stats().mean_s > algo.deploy_stats().mean_s,
        "Goerli deploys slower than Algorand"
    );
    assert!(
        goerli.attach_stats().mean_s > algo.attach_stats().mean_s,
        "Goerli attaches slower than Algorand"
    );
    assert!(algo.attach_stats().mean_s < mumbai.attach_stats().mean_s, "Algorand attach fastest");
    // Stability: Algorand's dispersion is an order of magnitude below
    // Goerli's.
    assert!(algo.deploy_stats().std_s * 5.0 < goerli.deploy_stats().std_s + 1.0);
    // Rough magnitudes (generous bands around Tables 5.1/5.3).
    let algo_deploy = algo.deploy_stats().mean_s;
    assert!((25.0..35.0).contains(&algo_deploy), "Algorand deploy ≈29 s, got {algo_deploy}");
    let algo_attach = algo.attach_stats().mean_s;
    assert!((12.0..18.0).contains(&algo_attach), "Algorand attach ≈14.5 s, got {algo_attach}");
}

#[test]
fn fee_regimes_match_the_paper() {
    let config = SimulationConfig { users: 8, seed: 9, ..Default::default() };
    let goerli = simulation::run(&presets::goerli(), &config).unwrap();
    let algo = simulation::run(&presets::algorand_testnet(), &config).unwrap();

    // Algorand fees are flat and deterministic: 8 × 0.001 Algo deploy,
    // 4 × 0.001 Algo attach.
    assert_eq!(algo.mean_fee(OpKind::Deploy).base_units(), 8_000);
    assert_eq!(algo.mean_fee(OpKind::Attach).base_units(), 4_000);

    // Goerli deploys cost tens of euros; Algorand fractions of a cent
    // (the paper's headline cost comparison).
    assert!(goerli.mean_fee(OpKind::Deploy).as_eur() > 1.0);
    assert!(algo.mean_fee(OpKind::Deploy).as_eur() < 0.01);
}

#[test]
fn connector_tx_counts() {
    let config = SimulationConfig { users: 8, seed: 11, ..Default::default() };
    let goerli = simulation::run(&presets::goerli(), &config).unwrap();
    let algo = simulation::run(&presets::algorand_testnet(), &config).unwrap();
    for m in &goerli.measurements {
        let expect = if m.kind == OpKind::Deploy { 3 } else { 2 };
        assert_eq!(m.txs, expect, "EVM connector script");
    }
    for m in &algo.measurements {
        let expect = if m.kind == OpKind::Deploy { 8 } else { 4 };
        assert_eq!(m.txs, expect, "Algorand connector script");
    }
}

#[test]
fn shape_report_passes_on_16_users() {
    let results = bench::run_all(16, 21);
    let checks = bench::shape_report(&results);
    assert_eq!(checks.len(), 6);
    for (name, ok) in checks {
        assert!(ok, "shape check failed: {name}");
    }
}

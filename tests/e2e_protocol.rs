//! End-to-end protocol tests across crates: the same scenario on both VM
//! families, with observable-equivalence checks between them.

use proof_of_location as pol;

use pol::chainsim::presets;
use pol::chainsim::VmKind;
use pol::core::system::{OpKind, PolSystem, SystemConfig};

const BASE: (f64, f64) = (44.4949, 11.3426);

fn build(vm: VmKind, max_users: u64, seed: u64) -> PolSystem {
    let preset = match vm {
        VmKind::Evm => presets::devnet_evm(),
        VmKind::Avm => presets::devnet_algo(),
    };
    let config = SystemConfig { max_users, seed, ..SystemConfig::default() };
    PolSystem::new(preset.build(seed), config)
}

/// Runs the canonical 4-user scenario and returns observables:
/// (rewards per prover, hypercube CID count, residue returned to creator).
fn run_scenario(vm: VmKind) -> (Vec<u128>, usize, bool) {
    let mut system = build(vm, 4, 9);
    let witness = system.register_witness(BASE.0, BASE.1).unwrap();
    let mut provers = Vec::new();
    for i in 0..4 {
        let p = system.register_prover(BASE.0 + 0.00001 * i as f64, BASE.1).unwrap();
        provers.push(p);
    }
    let mut area = None;
    for (i, &p) in provers.iter().enumerate() {
        let out = system.submit_report(p, witness, format!("report {i}").into_bytes()).unwrap();
        if i == 0 {
            assert_eq!(out.kind, OpKind::Deploy);
        } else {
            assert_eq!(out.kind, OpKind::Attach);
        }
        area = Some(out.area);
    }
    let area = area.unwrap();

    let balances_before: Vec<u128> =
        provers.iter().map(|&p| system.chain().balance(system.prover(p).unwrap().wallet)).collect();
    assert_eq!(system.run_verifier(&area).unwrap(), 4);
    let rewards: Vec<u128> = provers
        .iter()
        .zip(&balances_before)
        .map(|(&p, before)| system.chain().balance(system.prover(p).unwrap().wallet) - before)
        .collect();

    let cids = system.hypercube.record(&area).unwrap().unwrap().cids.len();
    let closed = system.close_area(&area).is_ok();
    (rewards, cids, closed)
}

#[test]
fn scenario_on_evm() {
    let (rewards, cids, closed) = run_scenario(VmKind::Evm);
    assert!(rewards.iter().all(|&r| r == SystemConfig::default().reward));
    assert_eq!(cids, 4);
    assert!(closed);
}

#[test]
fn scenario_on_avm() {
    let (rewards, cids, closed) = run_scenario(VmKind::Avm);
    assert!(rewards.iter().all(|&r| r == SystemConfig::default().reward));
    assert_eq!(cids, 4);
    assert!(closed);
}

#[test]
fn cross_vm_observable_equivalence() {
    // One agnostic source, two machines: the protocol-level observables
    // must agree exactly.
    let evm = run_scenario(VmKind::Evm);
    let avm = run_scenario(VmKind::Avm);
    assert_eq!(evm.0, avm.0, "rewards must match across VMs");
    assert_eq!(evm.1, avm.1, "hypercube records must match across VMs");
    assert_eq!(evm.2, avm.2, "closability must match across VMs");
}

#[test]
fn two_areas_get_two_contracts() {
    let mut system = build(VmKind::Avm, 1, 5);
    let bologna = system.register_prover(44.4949, 11.3426).unwrap();
    let milan = system.register_prover(45.4642, 9.19).unwrap();
    let w_bologna = system.register_witness(44.49491, 11.34261).unwrap();
    let w_milan = system.register_witness(45.46421, 9.19001).unwrap();
    let out1 = system.submit_report(bologna, w_bologna, b"a".to_vec()).unwrap();
    let out2 = system.submit_report(milan, w_milan, b"b".to_vec()).unwrap();
    assert_ne!(out1.area, out2.area);
    assert_ne!(out1.contract, out2.contract);
    assert_eq!(out1.kind, OpKind::Deploy);
    assert_eq!(out2.kind, OpKind::Deploy);
    assert_eq!(system.factory().instances().len(), 2);
    assert_eq!(system.hypercube.record_count(), 2);
}

#[test]
fn fifth_user_rejected_when_seats_full() {
    let mut system = build(VmKind::Avm, 4, 6);
    let witness = system.register_witness(BASE.0, BASE.1).unwrap();
    for i in 0..4 {
        let p = system.register_prover(BASE.0 + 0.00001 * i as f64, BASE.1).unwrap();
        system.submit_report(p, witness, b"r".to_vec()).unwrap();
    }
    let fifth = system.register_prover(BASE.0, BASE.1 + 0.00002).unwrap();
    let err = system.submit_report(fifth, witness, b"late".to_vec()).unwrap_err();
    // The attach phase is over; the insert reverts on-chain.
    assert!(matches!(err, pol::core::PolError::Ledger(_)), "{err:?}");
}

#[test]
fn report_latencies_follow_chain_cadence() {
    // On the simulated Algorand testnet, the deploy script is 8 rounds
    // and the attach script 4 rounds — ±jitter.
    let config = SystemConfig { max_users: 2, ..SystemConfig::default() };
    let mut system = PolSystem::new(presets::algorand_testnet().build(77), config);
    let p1 = system.register_prover(BASE.0, BASE.1).unwrap();
    let p2 = system.register_prover(BASE.0, BASE.1 + 0.00001).unwrap();
    let w = system.register_witness(BASE.0 + 0.00001, BASE.1).unwrap();
    let deploy = system.submit_report(p1, w, b"a".to_vec()).unwrap();
    let attach = system.submit_report(p2, w, b"b".to_vec()).unwrap();
    let round = 3_630.0;
    let d = deploy.latency_ms as f64;
    let a = attach.latency_ms as f64;
    assert!((d - 8.0 * round).abs() < 8.0 * 500.0, "deploy {d} ms");
    assert!((a - 4.0 * round).abs() < 4.0 * 500.0, "attach {a} ms");
}

#[test]
fn witness_reward_extension_pays_both_parties() {
    // The §2.8 future-work variant: prover AND witness are rewarded.
    let config =
        SystemConfig { max_users: 1, witness_reward: Some(250_000), ..SystemConfig::default() };
    let mut system = PolSystem::new(presets::devnet_algo().build(13), config);
    let p = system.register_prover(BASE.0, BASE.1).unwrap();
    let w = system.register_witness(BASE.0, BASE.1 + 0.00001).unwrap();
    let out = system.submit_report(p, w, b"report".to_vec()).unwrap();

    let prover_wallet = system.prover(p).unwrap().wallet;
    let witness_wallet =
        pol::ledger::Address::from_public_key(&system.witness_identity(w).unwrap().signing.public);
    let prover_before = system.chain().balance(prover_wallet);
    let witness_before = system.chain().balance(witness_wallet);
    assert_eq!(system.run_verifier(&out.area).unwrap(), 1);
    assert_eq!(
        system.chain().balance(prover_wallet) - prover_before,
        SystemConfig::default().reward,
        "prover reward"
    );
    assert_eq!(
        system.chain().balance(witness_wallet) - witness_before,
        250_000,
        "witness reward (§2.8)"
    );
}

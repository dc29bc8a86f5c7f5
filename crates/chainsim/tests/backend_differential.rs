//! Differential test across state backends and execution modes: the same
//! seeded workload must produce byte-identical receipts and the same
//! authenticated state root on every `pol-store` backend, sequentially
//! and in parallel — six runs, one digest.

use pol_chainsim::{presets, Chain, ExecutionMode};
use pol_ledger::{StateKey, Transaction};
use pol_store::{MemoryBackend, StateBackend, TrieBackend, WalBackend};
use std::path::PathBuf;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pol-chainsim-bd-{}-{}", tag, std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A conflict-heavy transfer workload: four accounts paying each other in
/// a ring over several rounds, so the parallel path actually speculates,
/// conflicts and recovers.
fn run_workload(mut chain: Chain, mode: ExecutionMode) -> (Vec<String>, [u8; 32], u128) {
    chain.set_execution_mode(mode);
    let mut accounts = Vec::new();
    for _ in 0..4 {
        accounts.push(chain.create_funded_account(10u128.pow(19)));
    }
    let mut ids = Vec::new();
    for round in 0..3u64 {
        for (i, (kp, addr)) in accounts.iter().enumerate() {
            let to = accounts[(i + 1) % accounts.len()].1;
            let (max_fee, prio) = chain.suggested_fees();
            let tx = Transaction::transfer(*addr, to, 100 + u128::from(round), round)
                .with_fees(max_fee, prio)
                .signed(kp);
            ids.push(chain.submit(tx).unwrap());
        }
    }
    let receipts = ids.into_iter().map(|id| format!("{:?}", chain.await_tx(id).unwrap())).collect();
    (receipts, chain.state_digest(), chain.total_burned())
}

#[test]
fn all_backends_and_modes_agree() {
    let preset = presets::devnet_evm();
    let modes = [ExecutionMode::Sequential, ExecutionMode::Parallel { workers: 4 }];
    let mut results = Vec::new();
    for (mi, &mode) in modes.iter().enumerate() {
        let mem = preset.build_with_backend(21, Box::new(MemoryBackend::new()));
        results.push(("memory", run_workload(mem, mode)));
        let trie = preset.build_with_backend(21, Box::new(TrieBackend::new()));
        results.push(("trie", run_workload(trie, mode)));
        let dir = temp_dir(&format!("mode{mi}"));
        let wal = preset.build_with_backend(21, Box::new(WalBackend::open(&dir, 4).unwrap()));
        results.push(("wal", run_workload(wal, mode)));
        let _ = std::fs::remove_dir_all(&dir);
    }
    let (_, reference) = &results[0];
    for (name, run) in &results[1..] {
        assert_eq!(run.0, reference.0, "receipts diverge on backend {name}");
        assert_eq!(run.1, reference.1, "state root diverges on backend {name}");
        assert_eq!(run.2, reference.2, "burn diverges on backend {name}");
    }
}

#[test]
fn trie_backend_proves_chain_state() {
    let preset = presets::devnet_evm();
    let mut chain = preset.build_with_backend(33, Box::new(TrieBackend::new()));
    let (alice, alice_addr) = chain.create_funded_account(10u128.pow(18));
    let (_, bob_addr) = chain.create_funded_account(0);
    let (max_fee, prio) = chain.suggested_fees();
    let tx = Transaction::transfer(alice_addr, bob_addr, 4_321, 0)
        .with_fees(max_fee, prio)
        .signed(&alice);
    chain.submit_and_wait(tx).unwrap();
    assert_eq!(chain.state_backend_name(), "trie");

    let root = chain.state_digest();
    let key = StateKey::Balance(bob_addr);
    let proof = chain.prove_state(&key).expect("trie backend proves");
    let recovered = pol_store::verify_proof(&root, &pol_ledger::codec::encode_key(&key), &proof)
        .expect("inclusion proof verifies against the block digest");
    let value = recovered.expect("bob's balance is present");
    assert_eq!(pol_ledger::codec::decode_value(&value).unwrap().as_u128(), Some(4_321));

    // A key never touched yields a valid exclusion proof.
    let absent = StateKey::AppProgram(999_999);
    let proof = chain.prove_state(&absent).expect("exclusion proofs exist");
    let recovered = pol_store::verify_proof(&root, &pol_ledger::codec::encode_key(&absent), &proof)
        .expect("exclusion proof verifies");
    assert_eq!(recovered, None);
}

#[test]
fn wal_backend_survives_chain_restart() {
    let dir = temp_dir("restart");
    let preset = presets::devnet_evm();
    let (root_before, alice_addr, balance_before) = {
        let mut chain = preset.build_with_backend(55, Box::new(WalBackend::open(&dir, 2).unwrap()));
        let (alice, alice_addr) = chain.create_funded_account(10u128.pow(18));
        let (_, bob_addr) = chain.create_funded_account(0);
        let (max_fee, prio) = chain.suggested_fees();
        let tx = Transaction::transfer(alice_addr, bob_addr, 9_999, 0)
            .with_fees(max_fee, prio)
            .signed(&alice);
        chain.submit_and_wait(tx).unwrap();
        (chain.state_digest(), alice_addr, chain.balance(alice_addr))
    };
    // "Restart": reopen the log into a fresh chain. Replay must restore
    // the identical root and the typed balances.
    let reopened = WalBackend::open(&dir, 2).unwrap();
    assert_eq!(reopened.root(), root_before);
    let chain = preset.build_with_backend(56, Box::new(reopened));
    assert_eq!(chain.state_digest(), root_before);
    assert_eq!(chain.balance(alice_addr), balance_before);
    let _ = std::fs::remove_dir_all(&dir);
}

/// An AVM program persists only as its content digest, so a reopened log
/// cannot restore it: the chain must refuse the log rather than come back
/// with the app's state but without its program.
#[test]
#[should_panic(expected = "cannot restore: 070000000000000001")] // `StateKey::AppProgram(1)`
fn wal_restart_refuses_an_unrestorable_program() {
    use pol_avm::opcode::AvmOp::{PushInt, Return};
    let dir = temp_dir("avm-restart");
    let preset = presets::devnet_algo();
    {
        let mut chain = preset.build_with_backend(57, Box::new(WalBackend::open(&dir, 2).unwrap()));
        let (alice, _) = chain.create_funded_account(10_000_000);
        let program = pol_avm::AvmProgram::new(vec![PushInt(1), Return]);
        chain.deploy_app(&alice, program, vec![]).unwrap();
    }
    let reopened = WalBackend::open(&dir, 2).unwrap();
    let _ = std::fs::remove_dir_all(&dir);
    preset.build_with_backend(58, Box::new(reopened));
}

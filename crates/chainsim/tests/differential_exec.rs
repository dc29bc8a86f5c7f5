//! Differential test of the optimistic-parallel block executor: random
//! transaction batches — transfers, EVM contract calls, AVM app calls —
//! must produce byte-identical receipts, burn totals and world-state
//! digests under [`ExecutionMode::Sequential`] and
//! [`ExecutionMode::Parallel`], across every chain preset, seed and
//! worker count. The workloads are deliberately conflict-heavy (shared
//! balance keys, one shared contract/app, plus a read-modify-write hot
//! counter every action can hammer) so the validate-and-re-execute path
//! is exercised, not just the embarrassingly-parallel one.

use pol_avm::opcode::AvmOp;
use pol_avm::AvmProgram;
use pol_chainsim::{presets, ChainPreset, ExecStats, ExecutionMode, VmKind};
use pol_evm::assembler::Asm;
use pol_evm::opcode::Op;
use pol_ledger::{ContractId, Transaction};
use proptest::prelude::*;

/// One randomly generated client action.
#[derive(Debug, Clone, Copy)]
enum Action {
    /// Move value between two of the funded accounts.
    Transfer { from: usize, to: usize, value: u128 },
    /// Hit the shared contract (EVM: store `value` at `slot`; AVM:
    /// increment the global counter keyed by `slot`).
    Invoke { user: usize, slot: u8, value: u8 },
    /// Read-modify-write the single hot counter (EVM: `storage[0] +=
    /// value`, which SLoads before it SStores, so every pair of these
    /// conflicts; AVM: bump the slot-0 global counter).
    HotIncrement { user: usize, value: u8 },
}

enum Target {
    Evm { shared: ContractId, hot: ContractId },
    App(u64),
}

fn preset_for(idx: usize) -> ChainPreset {
    match idx % 4 {
        0 => presets::devnet_evm(),
        1 => presets::goerli(),
        2 => presets::mumbai(),
        _ => presets::devnet_algo(),
    }
}

/// Runs the whole workload on a fresh chain and returns everything
/// observable: receipt debug strings (in submission order), the burn
/// total, the world-state digest and the executor counters.
fn run(
    preset_idx: usize,
    seed: u64,
    actions: &[Action],
    mode: ExecutionMode,
) -> (Vec<String>, u128, [u8; 32], ExecStats) {
    let mut chain = preset_for(preset_idx).build(seed);
    chain.set_execution_mode(mode);
    const USERS: usize = 4;
    let mut users = Vec::new();
    for _ in 0..USERS {
        users.push(chain.create_funded_account(10u128.pow(20)));
    }

    // One shared contract so invocations conflict on its state, plus (on
    // EVM chains) a hot counter whose read-modify-write forces every
    // concurrent increment through the re-execution path.
    let target = match chain.config.vm {
        VmKind::Evm => {
            // runtime: SSTORE(calldata[0..32], calldata[32..64])
            let runtime = Asm::new()
                .push_u64(32)
                .op(Op::CallDataLoad)
                .push_u64(0)
                .op(Op::CallDataLoad)
                .op(Op::SStore)
                .op(Op::Stop)
                .build();
            let receipt =
                chain.deploy_evm(&users[0].0, Asm::deploy_wrapper(&runtime), 5_000_000).unwrap();
            let shared = receipt.created.expect("deployed");
            // hot counter runtime: storage[0] += calldata[0..32]
            let hot_runtime = Asm::new()
                .push_u64(0)
                .op(Op::SLoad)
                .push_u64(0)
                .op(Op::CallDataLoad)
                .op(Op::Add)
                .push_u64(0)
                .op(Op::SStore)
                .op(Op::Stop)
                .build();
            let receipt = chain
                .deploy_evm(&users[0].0, Asm::deploy_wrapper(&hot_runtime), 5_000_000)
                .unwrap();
            Target::Evm { shared, hot: receipt.created.expect("deployed") }
        }
        VmKind::Avm => {
            // Increment the global counter named by arg 0 (reads the old
            // value first, so concurrent calls on one key conflict).
            let program = AvmProgram::new(vec![
                AvmOp::TxnArg(0),
                AvmOp::TxnArg(0),
                AvmOp::AppGlobalGet,
                AvmOp::Pop,
                AvmOp::PushInt(1),
                AvmOp::Add,
                AvmOp::AppGlobalPut,
                AvmOp::PushInt(1),
                AvmOp::Return,
            ]);
            let receipt = chain.deploy_app(&users[0].0, program, vec![]).unwrap();
            Target::App(receipt.created.and_then(|c| c.as_app()).expect("created"))
        }
    };

    // Submit the whole batch first so blocks carry several transactions,
    // then await the receipts in submission order.
    let mut ids = Vec::new();
    for action in actions {
        match *action {
            Action::Transfer { from, to, value } => {
                let (kp, addr) = &users[from % USERS];
                let to_addr = users[to % USERS].1;
                let (max_fee, prio) = chain.suggested_fees();
                let tx = Transaction::transfer(*addr, to_addr, value, chain.next_nonce(*addr))
                    .with_fees(max_fee, prio)
                    .signed(kp);
                ids.push(chain.submit(tx).unwrap());
            }
            Action::Invoke { user, slot, value } => {
                let kp = &users[user % USERS].0;
                match target {
                    Target::Evm { shared, .. } => {
                        let mut data = vec![0u8; 64];
                        data[31] = slot % 4;
                        data[63] = value;
                        ids.push(chain.submit_call_evm(kp, shared, data, 0, 1_000_000).unwrap());
                    }
                    Target::App(app_id) => {
                        ids.push(
                            chain.submit_call_app(kp, app_id, vec![vec![slot % 4]], 0).unwrap(),
                        );
                    }
                }
            }
            Action::HotIncrement { user, value } => {
                let kp = &users[user % USERS].0;
                match target {
                    Target::Evm { hot, .. } => {
                        let mut data = vec![0u8; 32];
                        data[31] = value;
                        ids.push(chain.submit_call_evm(kp, hot, data, 0, 1_000_000).unwrap());
                    }
                    Target::App(app_id) => {
                        ids.push(chain.submit_call_app(kp, app_id, vec![vec![0]], 0).unwrap());
                    }
                }
            }
        }
    }
    let receipts = ids.into_iter().map(|id| format!("{:?}", chain.await_tx(id).unwrap())).collect();
    (receipts, chain.total_burned(), chain.state_digest(), chain.exec_stats())
}

/// Counter invariants every parallel run must satisfy regardless of the
/// workload: speculation can only add to committed work, and a conflict
/// can only be observed on a speculation that actually ran. Where no
/// arrived transaction can be deferred for block gas — every preset but
/// the EVM chains under background congestion — there is also an upper
/// bound on wasted work: every speculation either commits or is
/// discarded by exactly one conflict, so nothing re-executes without
/// having lost a validation. (A congestion spike can leave a Goerli or
/// Mumbai block with less gas than a call provisions, and a speculation
/// dropped because its transaction waits for the next block is neither.)
fn assert_stats_invariants(preset_idx: usize, stats: &ExecStats) {
    assert!(
        stats.speculative_runs >= stats.committed_txs,
        "fewer speculations than commits: {stats:?}"
    );
    assert!(
        stats.conflicts <= stats.speculative_runs,
        "more conflicts than speculations: {stats:?}"
    );
    // A stale speculation is re-executed in place and commits: one
    // validation, hence at most one conflict, per committed transaction.
    assert!(
        stats.conflicts <= stats.committed_txs,
        "a transaction conflicted more than once: {stats:?}"
    );
    let config = preset_for(preset_idx).config;
    let can_defer = config.vm == VmKind::Evm && config.congestion.mean > 0.0;
    assert!(
        can_defer || stats.speculative_runs <= stats.committed_txs + stats.conflicts,
        "a speculation re-executed without a conflict: {stats:?}"
    );
    assert!(
        can_defer || stats.speculative_runs <= 2 * stats.committed_txs,
        "a transaction executed more than twice: {stats:?}"
    );
}

fn action_strategy() -> impl Strategy<Value = Action> {
    prop_oneof![
        (0..4usize, 0..4usize, 1..500u128).prop_map(|(from, to, value)| Action::Transfer {
            from,
            to,
            value
        }),
        (0..4usize, any::<u8>(), any::<u8>()).prop_map(|(user, slot, value)| Action::Invoke {
            user,
            slot,
            value
        }),
        (0..4usize, any::<u8>()).prop_map(|(user, value)| Action::HotIncrement { user, value }),
    ]
}

fn hot_action_strategy() -> impl Strategy<Value = Action> {
    (0..4usize, any::<u8>()).prop_map(|(user, value)| Action::HotIncrement { user, value })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The parallel executor is observably identical to the sequential
    /// oracle for every preset, seed, worker count and action batch.
    #[test]
    fn parallel_executor_matches_sequential(
        preset_idx in 0..4usize,
        seed in any::<u64>(),
        workers in 2..9usize,
        actions in proptest::collection::vec(action_strategy(), 1..24),
    ) {
        let (seq_receipts, seq_burned, seq_digest, _) =
            run(preset_idx, seed, &actions, ExecutionMode::Sequential);
        let (par_receipts, par_burned, par_digest, par_stats) =
            run(preset_idx, seed, &actions, ExecutionMode::Parallel { workers });
        prop_assert_eq!(seq_receipts, par_receipts);
        prop_assert_eq!(seq_burned, par_burned);
        prop_assert_eq!(seq_digest, par_digest);
        assert_stats_invariants(preset_idx, &par_stats);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Hot-key preset: every action is a read-modify-write on the same
    /// counter, so validation failures and in-place re-executions fire
    /// on essentially every parallel block. The scan must stay
    /// byte-identical to the oracle and re-execute only what conflicted.
    #[test]
    fn hot_key_recovery_matches_sequential(
        preset_idx in 0..4usize,
        seed in any::<u64>(),
        workers in 2..9usize,
        actions in proptest::collection::vec(hot_action_strategy(), 4..20),
    ) {
        let (seq_receipts, seq_burned, seq_digest, _) =
            run(preset_idx, seed, &actions, ExecutionMode::Sequential);
        let (par_receipts, par_burned, par_digest, par_stats) =
            run(preset_idx, seed, &actions, ExecutionMode::Parallel { workers });
        prop_assert_eq!(&seq_receipts, &par_receipts);
        prop_assert_eq!(seq_burned, par_burned);
        prop_assert_eq!(seq_digest, par_digest);
        assert_stats_invariants(preset_idx, &par_stats);
    }
}

//! Differential test of the pre-decoded code cache: randomly generated
//! contracts (including dead bytes, invalid opcodes and truncated PUSH
//! immediates after the terminal op) and call storms must produce
//! byte-identical receipts, burn totals and world-state digests whether
//! programs are served from the shared [`pol_evm::CodeCache`] or
//! fresh-decoded on every execution — under Sequential, Parallel and
//! ParallelStatic modes, with the commit-time access sanitizer armed.
//! AVM programs carry their derived rows themselves, so on the AVM
//! preset the cache toggle is inert and the three modes are what is
//! compared.
//!
//! On EVM presets a run may first *redeploy at the same address*: a
//! deployment of other code whose constructor reverts shares a block with
//! the real one. A failed deploy leaves `DeployCount` where it was, so
//! both target one address, and the program the calls then run must be
//! the one that was installed, in every mode and with or without the
//! cache.

use pol_avm::opcode::AvmOp;
use pol_avm::AvmProgram;
use pol_chainsim::{presets, ChainPreset, ExecStats, ExecutionMode, VmKind};
use pol_evm::assembler::Asm;
use pol_evm::opcode::Op;
use pol_ledger::address::contract_address;
use pol_ledger::{ContractId, Transaction};
use proptest::prelude::*;

/// The deployed call target: one generated contract or app per run.
enum Target {
    Contract(ContractId),
    App(u64),
}

/// One randomly parameterised code snippet; a contract is a
/// concatenation of these, so every generated program still terminates.
#[derive(Debug, Clone, Copy)]
struct Snippet {
    kind: u8,
    a: u8,
    b: u8,
}

/// Builds a random-but-terminating EVM runtime: the snippet bodies, a
/// `STOP`, then the raw parameter bytes as dead code — which the
/// pre-decoder must preserve (as `Invalid`/`TruncatedPush` instructions)
/// without rejecting the program.
fn evm_runtime(snippets: &[Snippet]) -> Vec<u8> {
    let mut asm = Asm::new();
    for s in snippets {
        asm = match s.kind % 6 {
            0 => asm.push_u64(u64::from(s.a)).push_u64(u64::from(s.b)).op(Op::Add).op(Op::Pop),
            1 => asm.push_u64(u64::from(s.a)).push_u64(u64::from(s.b)).op(Op::Mul).op(Op::Pop),
            2 => asm.push_u64(u64::from(s.b)).push_u64(u64::from(s.a % 16)).op(Op::SStore),
            3 => asm
                .push_u64(u64::from(s.a))
                .push_u64(0)
                .op(Op::MStore)
                .push_u64(32)
                .push_u64(0)
                .op(Op::Keccak256)
                .op(Op::Pop),
            4 => asm.push_u64(u64::from(s.a)).dup(1).swap(1).op(Op::Pop).op(Op::Pop),
            _ => {
                // A bounded countdown loop: JUMPDEST resolution and the
                // fused PUSH+JUMPI path.
                let top = asm.new_label();
                asm.push_u64(u64::from(s.a % 4) + 1)
                    .bind(top)
                    .push_u64(1)
                    .swap(1)
                    .op(Op::Sub)
                    .dup(1)
                    .jump_if(top)
                    .op(Op::Pop)
            }
        };
    }
    let mut code = asm.op(Op::Stop).build();
    for s in snippets {
        code.push(s.a);
        code.push(s.b);
    }
    code
}

/// Builds a random-but-approving AVM program from the same snippets:
/// scratch traffic, global-state round trips and forward branches, then
/// an unconditional approve.
fn avm_program(snippets: &[Snippet]) -> AvmProgram {
    let mut ops = Vec::new();
    for (idx, s) in snippets.iter().enumerate() {
        match s.kind % 4 {
            0 => ops.extend([
                AvmOp::PushInt(u64::from(s.a)),
                AvmOp::Store(s.b % 8),
                AvmOp::Load(s.b % 8),
                AvmOp::Pop,
            ]),
            1 => ops.extend([
                AvmOp::PushInt(u64::from(s.a)),
                AvmOp::PushInt(u64::from(s.b)),
                AvmOp::Add,
                AvmOp::Pop,
            ]),
            2 => ops.extend([
                AvmOp::PushBytes(vec![s.a % 4]),
                AvmOp::PushInt(u64::from(s.b)),
                AvmOp::AppGlobalPut,
            ]),
            _ => {
                // Forward branch over a dead push: pre-resolved targets.
                let label = 100 + idx;
                ops.extend([
                    AvmOp::PushInt(1),
                    AvmOp::Bnz(label),
                    AvmOp::PushInt(u64::from(s.a)),
                    AvmOp::Pop,
                    AvmOp::Label(label),
                ]);
            }
        }
    }
    ops.push(AvmOp::PushInt(1));
    ops.push(AvmOp::Return);
    AvmProgram::new(ops)
}

fn preset_for(idx: usize) -> ChainPreset {
    match idx % 4 {
        0 => presets::devnet_evm(),
        1 => presets::goerli(),
        2 => presets::mumbai(),
        _ => presets::devnet_algo(),
    }
}

/// Deploys the generated contract (after a failed deployment of other
/// code at the same address when `redeploy` is set) and runs the call
/// storm, returning everything observable plus the executor counters.
fn run(
    preset_idx: usize,
    seed: u64,
    snippets: &[Snippet],
    calls: &[u8],
    redeploy: bool,
    mode: ExecutionMode,
    cached: bool,
) -> (Vec<String>, u128, [u8; 32], ExecStats) {
    let mut chain = preset_for(preset_idx).build(seed);
    chain.set_execution_mode(mode);
    chain.set_code_cache_enabled(cached);
    chain.set_access_sanitizer(true);
    const USERS: usize = 3;
    let mut users = Vec::new();
    for _ in 0..USERS {
        users.push(chain.create_funded_account(10u128.pow(20)));
    }

    let mut ids = Vec::new();
    let target = match chain.config.vm {
        VmKind::Evm => {
            let runtime = evm_runtime(snippets);
            let (deployer, from) = &users[0];
            if redeploy {
                // Same runtime behind one more `JUMPDEST`: other bytes, and
                // every jump target in them one off.
                let other = [&[Op::JumpDest as u8][..], &runtime[..]].concat();
                let reverting = Asm::new().push_u64(0).push_u64(0).op(Op::Revert).build();
                let (max_fee, priority) = chain.suggested_fees();
                let failing = Transaction::create(
                    *from,
                    Asm::initcode(&reverting, &other),
                    chain.next_nonce(*from),
                )
                .with_gas_limit(5_000_000)
                .with_fees(max_fee, priority)
                .signed(deployer);
                ids.push(chain.submit(failing).unwrap());
            }
            let receipt =
                chain.deploy_evm(deployer, Asm::deploy_wrapper(&runtime), 5_000_000).unwrap();
            let created = receipt.created.expect("deployed");
            assert_eq!(created, ContractId::Evm(contract_address(from, 0)), "address reused");
            for failed in &ids {
                let receipt = chain.poll_receipt(*failed).expect("both deployments share a block");
                assert_eq!(receipt.created, None, "the other code must not deploy");
            }
            Target::Contract(created)
        }
        VmKind::Avm => {
            let receipt = chain.deploy_app(&users[0].0, avm_program(snippets), vec![]).unwrap();
            Target::App(receipt.created.and_then(|c| c.as_app()).expect("created"))
        }
    };

    for &call in calls {
        let kp = &users[usize::from(call) % USERS].0;
        match target {
            Target::Contract(contract) => {
                let data = vec![call; 32];
                ids.push(chain.submit_call_evm(kp, contract, data, 0, 1_000_000).unwrap());
            }
            Target::App(app_id) => {
                ids.push(chain.submit_call_app(kp, app_id, vec![vec![call]], 0).unwrap());
            }
        }
    }
    let receipts = ids.into_iter().map(|id| format!("{:?}", chain.await_tx(id).unwrap())).collect();
    (receipts, chain.total_burned(), chain.state_digest(), chain.exec_stats())
}

fn snippet_strategy() -> impl Strategy<Value = Snippet> {
    (any::<u8>(), any::<u8>(), any::<u8>()).prop_map(|(kind, a, b)| Snippet { kind, a, b })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Serving programs from the code cache is observationally invisible:
    /// every mode, cached or fresh-decoding, matches the sequential
    /// fresh-decode oracle byte for byte — and the cache actually serves
    /// hits on the cached runs.
    #[test]
    fn code_cache_is_observationally_invisible(
        preset_idx in 0..4usize,
        seed in any::<u64>(),
        workers in 2..6usize,
        snippets in proptest::collection::vec(snippet_strategy(), 1..8),
        calls in proptest::collection::vec(any::<u8>(), 2..12),
        redeploy in any::<bool>(),
    ) {
        let case = |mode, cached| run(preset_idx, seed, &snippets, &calls, redeploy, mode, cached);
        let oracle = case(ExecutionMode::Sequential, false);
        prop_assert_eq!(oracle.3.code_cache_hits, 0, "disabled cache must never hit");

        let runs = [
            case(ExecutionMode::Sequential, true),
            case(ExecutionMode::Parallel { workers }, true),
            case(ExecutionMode::Parallel { workers }, false),
            case(ExecutionMode::ParallelStatic { workers }, true),
            case(ExecutionMode::ParallelStatic { workers }, false),
        ];
        for (receipts, burned, digest, stats) in runs {
            prop_assert_eq!(&oracle.0, &receipts);
            prop_assert_eq!(oracle.1, burned);
            prop_assert_eq!(oracle.2, digest);
            if stats.code_cache_misses > 0 || stats.code_cache_hits > 0 {
                prop_assert!(
                    stats.decode_ns > 0,
                    "decoding happened but no decode time was recorded: {:?}",
                    stats
                );
            }
        }

        // The cached sequential run replays the same program for every
        // call after the first: on an EVM chain it must have hit the
        // cache; an AVM chain never consults it.
        let cached_seq = case(ExecutionMode::Sequential, true);
        if preset_for(preset_idx).config.vm == VmKind::Evm {
            prop_assert!(
                cached_seq.3.code_cache_hits > 0,
                "repeated calls never hit the cache: {:?}",
                cached_seq.3
            );
        } else {
            prop_assert_eq!(cached_seq.3.code_cache_hits + cached_seq.3.code_cache_misses, 0);
        }
    }
}

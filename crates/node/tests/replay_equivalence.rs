//! Differential property: the node's admission layer is *transparent*.
//!
//! Random interleavings of valid, underfunded, stale-nonce, bad-signature,
//! overflow-fee and out-of-order submissions are driven through a
//! [`NodeService`]; the chain must end in exactly the state produced by
//! sequentially replaying only the transactions the chain accepted (the
//! service's admitted log) on a fresh chain with the identical virtual
//! -time schedule. Admission control may *refuse* traffic, but it must
//! never *change* what the accepted traffic computes — and a rejected or
//! parked transaction must leave no trace in committed state.
//!
//! Also pins the parking contract: a transaction parked on a nonce gap is
//! included exactly once if its gap fills, and every admitted transaction
//! holds a terminal receipt after a graceful drain (zero lost).
//!
//! Every case runs twice, under `execution = sequential` (the node's
//! default) and under `execution = parallel`. The replay chain is always
//! sequential, so the second run is also the node-level Sequential ≡
//! Parallel check, whatever the default happens to be.
//!
//! Determinism notes (why replay is exact on `devnet_evm`): rejected
//! submissions return before any chain mutation or RNG draw, propagation
//! delay is fixed at zero (no draw), blocks sit on a jitter-free slot
//! grid, and per-block background draws are count-constant — so two
//! chains built from the same seed that accept the same transactions at
//! the same virtual times produce byte-identical state.

use pol_chainsim::{presets, Chain};
use pol_crypto::ed25519::Keypair;
use pol_ledger::{Address, Transaction, TxId};
use pol_node::{Admission, NodeConfig, NodeService, TxTerminal};
use proptest::prelude::*;

const USERS: usize = 3;
const FUND: u128 = 1_000_000_000_000_000_000_000; // 10^21 base units

/// One submission in the generated interleaving.
#[derive(Debug, Clone, Copy)]
struct Op {
    user: usize,
    /// 0 valid transfer · 1 gap pair · 2 lone gap · 3 nonce-zero
    /// (valid or stale depending on history) · 4 overflow fee cap ·
    /// 5 underfunded · 6 unsigned.
    kind: usize,
    /// Virtual milliseconds since the previous submission.
    gap_ms: u64,
}

fn ops_strategy() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(
        (0..USERS, 0usize..7, 0u64..400).prop_map(|(user, kind, gap_ms)| Op { user, kind, gap_ms }),
        1..28,
    )
}

/// Builds the chain and its funded users; called identically for the
/// service run and the replay so both draw the same account keys from
/// the same RNG stream.
fn build_chain(seed: u64) -> (Chain, Vec<(Keypair, Address)>) {
    let mut chain = presets::devnet_evm().build(seed);
    let users = (0..USERS).map(|_| chain.create_funded_account(FUND)).collect();
    (chain, users)
}

/// One generated interleaving through a node executing blocks in the
/// `execution` mode, against the sequential replay of what it admitted.
fn check_replay(ops: &[Op], seed: u64, execution: &str) {
    // --- Service run: the full admission gauntlet. -----------------
    let config = NodeConfig { execution: execution.to_string(), ..NodeConfig::default() };
    let (mut chain, users) = build_chain(seed);
    chain.set_execution_mode(config.execution_mode().unwrap());
    let mut service = NodeService::new(chain, &config);
    // (parked id, releasing filler id) pairs that must both confirm.
    let mut filled_gaps: Vec<(TxId, TxId)> = Vec::new();
    let mut admitted_ids: Vec<TxId> = Vec::new();
    let mut t = 0u64;
    for op in ops {
        t += op.gap_ms;
        let (kp, from) = &users[op.user];
        let to = users[(op.user + 1) % USERS].1;
        service.run_until(t);
        let (max_fee, prio) = service.chain().suggested_fees();
        let next = service.chain().next_nonce(*from);
        let mut submit = |service: &mut NodeService, tx: Transaction| {
            let result = service.submit_at(t, tx);
            if let Ok(admission) = &result {
                admitted_ids.push(admission.id());
            }
            result
        };
        match op.kind {
            0 => {
                let tx =
                    Transaction::transfer(*from, to, 3, next).with_fees(max_fee, prio).signed(kp);
                submit(&mut service, tx).expect("funded in-order transfer admits");
            }
            1 => {
                // Out-of-order pair: nonce+1 parks, the filler frees it.
                let ahead = Transaction::transfer(*from, to, 5, next + 1)
                    .with_fees(max_fee, prio)
                    .signed(kp);
                let filler =
                    Transaction::transfer(*from, to, 7, next).with_fees(max_fee, prio).signed(kp);
                let parked = submit(&mut service, ahead);
                let released = submit(&mut service, filler);
                if let (Ok(Admission::Parked(p)), Ok(Admission::Queued(q))) = (parked, released) {
                    filled_gaps.push((p, q));
                }
            }
            2 => {
                // Lone gap: parks now; a later op may or may not fill it.
                let tx = Transaction::transfer(*from, to, 11, next + 1)
                    .with_fees(max_fee, prio)
                    .signed(kp);
                let _ = submit(&mut service, tx);
            }
            3 => {
                // Valid the first time a user appears, stale afterwards.
                let tx =
                    Transaction::transfer(*from, to, 13, 0).with_fees(max_fee, prio).signed(kp);
                let _ = submit(&mut service, tx);
            }
            4 => {
                let tx =
                    Transaction::transfer(*from, to, 1, next).with_fees(u128::MAX, prio).signed(kp);
                prop_assert!(submit(&mut service, tx).is_err(), "overflow cap must refuse");
            }
            5 => {
                let tx = Transaction::transfer(*from, to, FUND.saturating_mul(10), next)
                    .with_fees(max_fee, prio)
                    .signed(kp);
                prop_assert!(submit(&mut service, tx).is_err(), "underfunded must refuse");
            }
            _ => {
                let tx = Transaction::transfer(*from, to, 1, next).with_fees(max_fee, prio);
                prop_assert!(submit(&mut service, tx).is_err(), "unsigned must refuse");
            }
        }
    }
    service.run_until(t + 500);
    let report = service.shutdown();

    // --- Terminal-receipt invariants. ------------------------------
    prop_assert_eq!(report.lost, 0, "graceful drain may lose nothing");
    prop_assert_eq!(
        service.admitted(),
        service.confirmed() + service.dropped(),
        "every admitted tx has a terminal receipt"
    );
    for id in &admitted_ids {
        prop_assert!(service.terminal(*id).is_some(), "admitted {id:?} lacks a terminal");
    }
    for (parked, filler) in &filled_gaps {
        for id in [parked, filler] {
            prop_assert!(
                matches!(service.terminal(*id), Some(TxTerminal::Confirmed(_))),
                "filled-gap tx {id:?} must confirm exactly once"
            );
        }
    }

    // --- Filtered sequential replay. -------------------------------
    // The admitted log holds exactly the chain-accepted transactions,
    // in chain order, stamped with their submission-time clock.
    let log: Vec<(u64, Transaction)> = service.admitted_log().to_vec();
    // Every chain-accepted tx confirms (zero lost), and only
    // chain-accepted txs confirm: the log is exactly the confirmed set.
    prop_assert_eq!(log.len() as u64, service.confirmed());
    let final_now = service.chain().now_ms();
    let (mut replay, _same_users) = build_chain(seed);
    for (at_ms, tx) in &log {
        replay.advance_to(*at_ms);
        replay.submit(tx.clone()).expect("the filtered sequence must replay cleanly in order");
    }
    replay.advance_to(final_now);
    prop_assert_eq!(
        replay.state_digest(),
        service.chain().state_digest(),
        "admission layering changed committed state"
    );
    prop_assert_eq!(replay.total_burned(), service.chain().total_burned());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn admission_interleavings_replay_to_identical_state(
        ops in ops_strategy(),
        seed in 0u64..500,
    ) {
        for execution in ["sequential", "parallel"] {
            check_replay(&ops, seed, execution);
        }
    }
}

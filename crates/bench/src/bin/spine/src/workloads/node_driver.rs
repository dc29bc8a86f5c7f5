//! What the two node workloads share: the open-schedule driver loop
//! over `NodeService`, the expected-outcome judge, the sequential-twin
//! output oracle and the twin replays behind the per-layer numbers.

use super::Outcome;
use crate::gen::Fingerprint;
use crate::layers::{
    self, Admission, AdmissionError, DevChain, ExecStats, LedgerError, Mode, Node, Terminal, Tx,
    TxId,
};
use crate::stats::{self, SEGMENTS};
use crate::trace::{Tracer, NO_OP};
use std::time::Instant;

/// Why admission is expected to refuse a transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Refusal {
    BadSignature,
    FeeOverflow,
    Underfunded,
    OverBudget,
}

/// The outcome an operation is generated to have.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expect {
    /// Queued at once, then confirmed with a success receipt.
    Confirm,
    /// Parked on a nonce gap, released by a later transaction, confirmed.
    ParkThenConfirm,
    /// Refused at admission with this typed class.
    Refuse(Refusal),
}

/// What admission actually did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Observed {
    Queued,
    Parked,
    Refused(Option<Refusal>),
}

/// Buckets an admission result; refusals outside the four generated
/// classes (queue full, stale nonce, …) are `Refused(None)` and can
/// never match an expectation.
pub fn classify(result: &Result<Admission, AdmissionError>) -> Observed {
    match result {
        Ok(Admission::Queued(_)) => Observed::Queued,
        Ok(Admission::Parked(_)) => Observed::Parked,
        Err(AdmissionError::Rejected(e)) => Observed::Refused(match e {
            LedgerError::BadSignature => Some(Refusal::BadSignature),
            LedgerError::FeeOverflow { .. } => Some(Refusal::FeeOverflow),
            LedgerError::InsufficientBalance { .. } => Some(Refusal::Underfunded),
            LedgerError::GasOverBudget { .. } => Some(Refusal::OverBudget),
            _ => None,
        }),
        Err(_) => Observed::Refused(None),
    }
}

/// Whether the admission step went as generated (the terminal receipt is
/// judged separately, after the drain).
pub fn admission_matches(expect: Expect, observed: Observed) -> bool {
    match expect {
        Expect::Confirm => observed == Observed::Queued,
        Expect::ParkThenConfirm => observed == Observed::Parked,
        Expect::Refuse(class) => observed == Observed::Refused(Some(class)),
    }
}

/// One pre-signed operation of the schedule.
#[derive(Clone)]
pub struct NodeOp {
    pub tx: Tx,
    pub id: TxId,
    /// Virtual arrival time.
    pub at_ms: u64,
    pub expect: Expect,
}

/// Fingerprint of a schedule: every signed byte, arrival and expectation.
pub fn fingerprint(ops: &[NodeOp]) -> u64 {
    let mut fp = Fingerprint::default();
    for op in ops {
        fp.update(&layers::tx_signing_bytes(&op.tx));
        fp.update(&op.at_ms.to_le_bytes());
        fp.update(format!("{:?}", op.expect).as_bytes());
    }
    fp.value()
}

/// Raw measurements of one pass over the schedule.
pub struct NodeRun {
    /// Wall µs of each `submit_at`.
    pub op_us: Vec<f64>,
    /// Wall ms of each `run_until` step (or drain) that committed
    /// transactions.
    pub block_ms: Vec<f64>,
    pub seg_wall_s: [f64; SEGMENTS],
    pub seg_confirmable: [f64; SEGMENTS],
    pub observed: Vec<Observed>,
    pub lost: usize,
    pub wall_s: f64,
    /// Wall inside block production that committed transactions.
    pub busy_block_s: f64,
}

/// Drives the schedule: catch block production up to the arrival time
/// (timed as block production), then submit (timed as admission), so a
/// block never hides inside an admission sample. Ends with the graceful
/// drain, charged to the last segment.
pub fn drive(node: &mut Node, ops: &[NodeOp], tracer: &mut Tracer) -> NodeRun {
    let mut run = NodeRun {
        op_us: Vec::with_capacity(ops.len()),
        block_ms: Vec::with_capacity(ops.len() / 32 + 16),
        seg_wall_s: [0.0; SEGMENTS],
        seg_confirmable: [0.0; SEGMENTS],
        observed: Vec::with_capacity(ops.len()),
        lost: 0,
        wall_s: 0.0,
        busy_block_s: 0.0,
    };
    let started = Instant::now();
    tracer.enter("spine.measure", NO_OP);
    let mut committed = node.exec_stats().committed_txs;
    for (seg, range) in stats::segment_bounds(ops.len()).into_iter().enumerate() {
        let seg_start = Instant::now();
        for i in range {
            let op = &ops[i];
            if node.now_ms() < op.at_ms {
                let t = Instant::now();
                tracer.enter("node.run_until", NO_OP);
                node.run_until(op.at_ms);
                tracer.exit();
                run.note_block(node, t, &mut committed);
            }
            let tx = op.tx.clone();
            let t = Instant::now();
            tracer.enter("node.submit_at", i as u32);
            let result = node.submit_at(op.at_ms, tx);
            tracer.exit();
            run.op_us.push(t.elapsed().as_secs_f64() * 1e6);
            run.observed.push(classify(&result));
            if !matches!(op.expect, Expect::Refuse(_)) {
                run.seg_confirmable[seg] += 1.0;
            }
        }
        if seg + 1 == SEGMENTS {
            let t = Instant::now();
            tracer.enter("node.shutdown", NO_OP);
            run.lost = node.shutdown().lost;
            tracer.exit();
            run.note_block(node, t, &mut committed);
        }
        run.seg_wall_s[seg] = seg_start.elapsed().as_secs_f64();
    }
    tracer.exit();
    run.wall_s = started.elapsed().as_secs_f64();
    run
}

impl NodeRun {
    /// Records a block-production step if it committed transactions.
    fn note_block(&mut self, node: &Node, started: Instant, committed: &mut u64) {
        let elapsed = started.elapsed().as_secs_f64();
        let now = node.exec_stats().committed_txs;
        if now > *committed {
            self.block_ms.push(elapsed * 1e3);
            self.busy_block_s += elapsed;
            *committed = now;
        }
    }
}

/// Terminal receipts of the operations generated to confirm.
pub struct Judged {
    pub attempted: u64,
    pub failed: u64,
    pub confirmed_gas: u64,
    pub confirmed: u64,
}

/// Compares every operation's admission and terminal state with its
/// expectation.
pub fn judge(node: &Node, ops: &[NodeOp], run: &NodeRun) -> Judged {
    let mut judged = Judged {
        attempted: ops.len() as u64,
        failed: run.lost as u64,
        confirmed_gas: 0,
        confirmed: 0,
    };
    for (op, observed) in ops.iter().zip(&run.observed) {
        let mut ok = admission_matches(op.expect, *observed);
        if ok && !matches!(op.expect, Expect::Refuse(_)) {
            match node.terminal(op.id) {
                Terminal::Confirmed(receipt) if layers::receipt_ok(&receipt) => {
                    judged.confirmed += 1;
                    judged.confirmed_gas += receipt.gas_used;
                }
                _ => ok = false,
            }
        }
        if !ok {
            judged.failed += 1;
        }
    }
    judged
}

/// Fills the end-to-end metrics every node workload reports.
pub fn push_e2e(out: &mut Outcome, node: &Node, run: &NodeRun, judged: &Judged) {
    let rates = stats::segment_rates(&run.seg_confirmable, &run.seg_wall_s);
    out.push_op_metrics(rates, run.op_us.clone());
    let blocks = stats::sorted(run.block_ms.clone());
    out.push("block_p50_ms", stats::nearest_rank(&blocks, 50.0), "ms");
    out.push("block_mgas_s", judged.confirmed_gas as f64 / 1e6 / run.busy_block_s, "Mgas/s");
    let latency = node.latency_summary();
    out.push("confirm_p50_vms", latency.p50_ms as f64, "vms");
    out.push("confirm_p99_vms", latency.p99_ms as f64, "vms");
    out.push("gas_per_op", judged.confirmed_gas as f64 / judged.confirmed.max(1) as f64, "gas");
    out.push("failed_share", judged.failed as f64 / judged.attempted.max(1) as f64, "share");
    out.attempted = judged.attempted;
    out.failed = judged.failed;

    let mut fp = Fingerprint::default();
    fp.update(&node.state_digest());
    fp.update(&judged.confirmed_gas.to_le_bytes());
    fp.update(&latency.p50_ms.to_le_bytes());
    fp.update(&latency.p99_ms.to_le_bytes());
    fp.update(&latency.max_ms.to_le_bytes());
    fp.update(&judged.confirmed.to_le_bytes());
    out.virtual_fp = fp.value();
}

/// The output oracle: replay the admitted log on a `Sequential` twin
/// built by the same set-up and require the same state digest, burn,
/// receipt statuses and gas, and `admitted == confirmed + dropped` with
/// nothing lost.
pub fn oracle(out: &mut Outcome, node: &Node, run: &NodeRun, mut twin: DevChain) {
    let (admitted, confirmed, dropped) = node.counts();
    out.check(
        "drain: admitted == confirmed + dropped, zero lost",
        run.lost == 0 && admitted == confirmed + dropped,
        format!("admitted {admitted}, confirmed {confirmed}, dropped {dropped}, lost {}", run.lost),
    );
    twin.set_mode(Mode::Sequential);
    let log = node.admitted_log();
    let mut replay_ok = true;
    for (at_ms, tx) in log {
        twin.advance_to(*at_ms);
        replay_ok &= twin.submit(tx.clone()).is_ok();
    }
    twin.advance_to(node.now_ms());
    out.check("twin: admitted log replays cleanly", replay_ok, format!("{} txs", log.len()));
    out.check(
        "twin: Sequential state_digest equals the node's",
        twin.state_digest() == node.state_digest() && twin.total_burned() == node.total_burned(),
        format!("burned {} vs {}", twin.total_burned(), node.total_burned()),
    );
    let mut mismatched = 0usize;
    let mut twin_gas = 0u64;
    let mut node_gas = 0u64;
    for (_, tx) in log {
        let id = layers::tx_id(tx);
        match (twin.receipt(id), node.terminal(id)) {
            (Some(t), Terminal::Confirmed(n)) => {
                twin_gas += t.gas_used;
                node_gas += n.gas_used;
                if t.status != n.status || t.gas_used != n.gas_used {
                    mismatched += 1;
                }
            }
            _ => mismatched += 1,
        }
    }
    out.check(
        "twin: receipt statuses and gas_per_op equal",
        mismatched == 0 && twin_gas == node_gas,
        format!("{mismatched} receipts differ; gas {twin_gas} vs {node_gas}"),
    );
}

/// Counter deltas of one replay.
pub struct Replay {
    pub submit_us: Vec<f64>,
    /// Wall of `advance_to` calls that committed transactions.
    pub block_s: f64,
    pub txs: u64,
    pub stats: ExecStats,
    pub clamps: u64,
    pub digest: [u8; 32],
}

/// Feeds the first `limit` entries of an admitted log to a twin chain,
/// timing `Chain::submit` and block production separately.
pub fn replay(
    mut twin: DevChain,
    log: &[(u64, Tx)],
    limit: usize,
    tracer: &mut Tracer,
    label: &'static str,
) -> Replay {
    let log = &log[..limit.min(log.len())];
    let mut submit_us = Vec::with_capacity(log.len());
    let mut block_s = 0.0;
    tracer.enter(label, NO_OP);
    let before = twin.exec_stats().committed_txs;
    let mut committed = before;
    let mut produce = |twin: &mut DevChain, tracer: &mut Tracer, target: u64| {
        let t = Instant::now();
        tracer.enter("chainsim.step_block", NO_OP);
        twin.advance_to(target);
        tracer.exit();
        let elapsed = t.elapsed().as_secs_f64();
        let now = twin.exec_stats().committed_txs;
        if now > committed {
            block_s += elapsed;
            committed = now;
        }
    };
    for (i, (at_ms, tx)) in log.iter().enumerate() {
        if twin.now_ms() < *at_ms {
            produce(&mut twin, tracer, *at_ms);
        }
        let tx = tx.clone();
        let t = Instant::now();
        tracer.enter("chainsim.submit", i as u32);
        let result = twin.submit(tx);
        tracer.exit();
        submit_us.push(t.elapsed().as_secs_f64() * 1e6);
        assert!(result.is_ok(), "twin refused a transaction the node's chain accepted");
    }
    // Two more slots commit whatever the prefix left in the mempool.
    let end = twin.now_ms() + 200;
    produce(&mut twin, tracer, end);
    tracer.exit();
    let stats = twin.exec_stats();
    Replay {
        submit_us,
        block_s,
        txs: stats.committed_txs - before,
        stats,
        clamps: twin.gas_precheck_clamps(),
        digest: twin.state_digest(),
    }
}

impl Replay {
    pub fn block_us_per_tx(&self) -> f64 {
        self.block_s * 1e6 / self.txs.max(1) as f64
    }
}

/// Share of the log the paired mode twins replay: each needs its own
/// pass of `Chain::submit` (two signature checks' worth of the node's
/// cost per transaction), so they get a prefix, the default twin the
/// whole log.
pub const MODE_TWIN_SHARE: f64 = 0.2;

/// The per-layer numbers of a node workload, from the traced pass over
/// the real service plus twin replays of its admitted log.
pub fn layer_metrics(
    out: &mut Outcome,
    node: &Node,
    run: &NodeRun,
    ops: &[NodeOp],
    tracer: &mut Tracer,
    mut build_twin: impl FnMut(layers::Backend) -> DevChain,
) {
    let log = node.admitted_log().to_vec();

    // pol-crypto / pol-ledger: direct calls over the submitted set.
    let sample: Vec<&NodeOp> = ops.iter().step_by((ops.len() / 2000).max(1)).collect();
    let mut verify_us = Vec::with_capacity(sample.len());
    let mut txid_us = Vec::with_capacity(sample.len());
    tracer.enter("twin.crypto", NO_OP);
    for (i, op) in sample.iter().enumerate() {
        let t = Instant::now();
        tracer.enter("crypto.verify", i as u32);
        std::hint::black_box(layers::verify_signature(&op.tx));
        tracer.exit();
        verify_us.push(t.elapsed().as_secs_f64() * 1e6);
        let t = Instant::now();
        tracer.enter("ledger.txid", i as u32);
        std::hint::black_box(layers::tx_id(&op.tx));
        tracer.exit();
        txid_us.push(t.elapsed().as_secs_f64() * 1e6);
    }
    tracer.exit();
    let verify = stats::median(&verify_us);
    out.layer("crypto.verify_us", verify, "us");
    out.layer("ledger.txid_us", stats::median(&txid_us), "us");

    // pol-chainsim: the default-mode twin over the whole log.
    let default =
        replay(build_twin(layers::Backend::Memory), &log, usize::MAX, tracer, "twin.default");
    let submit_at = stats::median(&run.op_us);
    let chain_submit = stats::median(&default.submit_us);
    out.layer("node.sigcheck_share", 2.0 * verify / submit_at, "share");
    out.layer("node.submit_self_us", submit_at - chain_submit, "us");
    out.layer("chainsim.submit_us", chain_submit, "us");
    out.layer("chainsim.admit_self_us", chain_submit - verify, "us");
    out.layer("chainsim.clamp_share", default.clamps as f64 / log.len().max(1) as f64, "share");
    out.check(
        "twin: default-mode replay lands on the node's state_digest",
        default.digest == node.state_digest(),
        "",
    );

    // pol-node block side: tick minus the chain's own block production.
    let tick_s =
        (tracer.total_ns("node.run_until") + tracer.total_ns("node.shutdown")) as f64 / 1e9;
    let committed = default.txs.max(1) as f64;
    out.layer("node.tick_self_us", (tick_s - default.block_s) * 1e6 / committed, "us");
    let parked = run.observed.iter().filter(|o| **o == Observed::Parked).count();
    out.layer("node.parked_share", parked as f64 / ops.len().max(1) as f64, "share");
    let r = node.rejections();
    for (class, count) in [
        ("bad_signature", r.bad_signature),
        ("fee_overflow", r.fee_overflow),
        ("underfunded", r.underfunded),
        ("over_budget", r.over_budget),
        ("other", r.total() - r.bad_signature - r.fee_overflow - r.underfunded - r.over_budget),
    ] {
        out.layer(format!("node.rejected.{class}"), count as f64, "count");
    }

    // Executor counters of the default twin.
    let s = default.stats;
    out.layer("chainsim.block_us_per_tx", default.block_us_per_tx(), "us");
    out.layer("chainsim.exec_us_per_tx", s.committed_exec_ns as f64 / 1e3 / committed, "us");
    out.layer("chainsim.validation_us_per_tx", s.validation_ns as f64 / 1e3 / committed, "us");
    out.layer("chainsim.decode_us_per_tx", s.decode_ns as f64 / 1e3 / committed, "us");
    let wasted = 1.0 - s.committed_txs as f64 / (s.speculative_runs.max(1)) as f64;
    out.layer("chainsim.wasted_exec_share", wasted.max(0.0), "share");
    out.layer("chainsim.conflicts_per_tx", s.conflicts as f64 / committed, "1/tx");
    out.layer("chainsim.revalidations_per_tx", s.revalidations as f64 / committed, "1/tx");
    out.layer("chainsim.static_lane_share", s.static_lanes as f64 / committed, "share");
    let seeded = (s.static_gas_seeded + s.default_seeded).max(1) as f64;
    out.layer("chainsim.cert_seeded_share", s.static_gas_seeded as f64 / seeded, "share");
    let lookups = (s.code_cache_hits + s.code_cache_misses).max(1) as f64;
    out.layer("ledger.code_cache_hit_share", s.code_cache_hits as f64 / lookups, "share");

    // Paired mode twins over the same log prefix: same digest, other cost.
    let prefix = ((log.len() as f64 * MODE_TWIN_SHARE) as usize).max(1);
    use layers::Backend::{Memory, Trie};
    // (suffix, span, backend, mode other than the node's default, code cache)
    let pairs = [
        ("seq", "twin.seq", Memory, Some(Mode::Sequential), true),
        ("par", "twin.par", Memory, Some(Mode::Parallel), true),
        ("static", "twin.static", Memory, Some(Mode::ParallelStatic), true),
        ("nocache", "twin.nocache", Memory, None, false),
        ("trie", "twin.trie", Trie, None, true),
    ];
    let mut digests = Vec::new();
    for (name, label, backend, mode, code_cache) in pairs {
        let mut twin = build_twin(backend);
        if let Some(mode) = mode {
            twin.set_mode(mode);
        }
        if !code_cache {
            twin.set_code_cache(false);
        }
        let r = replay(twin, &log, prefix, tracer, label);
        out.layer(format!("chainsim.block_us_per_tx_{name}"), r.block_us_per_tx(), "us");
        digests.push((name, r.digest));
    }
    let agree = digests.windows(2).all(|w| w[0].1 == w[1].1);
    out.check(
        "twins: seq, par, static, nocache and trie agree on state_digest",
        agree,
        digests
            .iter()
            .map(|(n, d)| format!("{n}:{:02x}{:02x}", d[0], d[1]))
            .collect::<Vec<_>>()
            .join(" "),
    );

    // Where the measured wall went, and how much of it no span covers.
    let admission_s = tracer.total_ns("node.submit_at") as f64 / 1e9;
    out.layer("node.admission_wall_share", admission_s / run.wall_s, "share");
    out.layer("node.block_wall_share", tick_s / run.wall_s, "share");
    let gap = super::sum_gap_share(tracer, "spine.measure");
    out.layer("spine.sum_gap_share", gap, "share");
    out.check(
        "spans cover the measured wall (sum_gap_share <= 0.10)",
        gap <= 0.10,
        format!("{gap:.4}"),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::Address;

    fn rejected(e: LedgerError) -> Result<Admission, AdmissionError> {
        Err(AdmissionError::Rejected(e))
    }

    #[test]
    fn classifier_buckets_every_adversarial_class() {
        let id = TxId([0; 32]);
        assert_eq!(classify(&Ok(Admission::Queued(id))), Observed::Queued);
        assert_eq!(classify(&Ok(Admission::Parked(id))), Observed::Parked);
        assert_eq!(
            classify(&rejected(LedgerError::BadSignature)),
            Observed::Refused(Some(Refusal::BadSignature))
        );
        assert_eq!(
            classify(&rejected(LedgerError::FeeOverflow {
                value: 1,
                gas_limit: 21_000,
                max_fee_per_gas: u128::MAX
            })),
            Observed::Refused(Some(Refusal::FeeOverflow))
        );
        assert_eq!(
            classify(&rejected(LedgerError::InsufficientBalance {
                address: Address::ZERO,
                needed: 2,
                available: 1
            })),
            Observed::Refused(Some(Refusal::Underfunded))
        );
        assert_eq!(
            classify(&rejected(LedgerError::GasOverBudget { certified: 9, gas_limit: 1 })),
            Observed::Refused(Some(Refusal::OverBudget))
        );
        // Refusals nobody generated never satisfy an expectation.
        assert_eq!(
            classify(&rejected(LedgerError::BadNonce { expected: 1, got: 0 })),
            Observed::Refused(None)
        );
        assert_eq!(
            classify(&Err(AdmissionError::QueueFull { capacity: 1 })),
            Observed::Refused(None)
        );
    }

    #[test]
    fn expectations_accept_only_their_own_outcome() {
        let classes = [
            Refusal::BadSignature,
            Refusal::FeeOverflow,
            Refusal::Underfunded,
            Refusal::OverBudget,
        ];
        for class in classes {
            for other in classes {
                assert_eq!(
                    admission_matches(Expect::Refuse(class), Observed::Refused(Some(other))),
                    class == other
                );
            }
            assert!(!admission_matches(Expect::Refuse(class), Observed::Queued));
            assert!(!admission_matches(Expect::Refuse(class), Observed::Refused(None)));
            assert!(!admission_matches(Expect::Confirm, Observed::Refused(Some(class))));
        }
        assert!(admission_matches(Expect::Confirm, Observed::Queued));
        assert!(!admission_matches(Expect::Confirm, Observed::Parked));
        assert!(admission_matches(Expect::ParkThenConfirm, Observed::Parked));
        assert!(!admission_matches(Expect::ParkThenConfirm, Observed::Queued));
    }
}

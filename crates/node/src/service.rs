//! The long-lived node service: a continuous run loop over a simulated
//! chain.
//!
//! [`NodeService`] owns a [`Chain`] and drives it on its block cadence
//! (virtual clock), fronting the chain's strict-nonce mempool with the
//! admission policy of [`crate::mempool`]: a hard bound on open work,
//! per-sender nonce-gap parking, and typed refusals. It harvests
//! receipts with the non-blocking [`Chain::poll_receipt`] — the loop
//! never busy-waits inside `await_tx` — and guarantees the *drain
//! invariant*: every admitted transaction reaches a terminal state
//! (confirmed or dropped) by the time [`NodeService::shutdown`] returns,
//! unless the drain block limit is hit (those are reported as `lost`,
//! and a healthy run has zero).

use crate::config::{ConfigError, NodeConfig};
use crate::mempool::{Admission, AdmissionError, ParkingLot, RejectionCounts};
use crate::metrics::{LatencySummary, MetricsSnapshot};
use pol_chainsim::Chain;
use pol_ledger::{LedgerError, Receipt, Transaction, TxId, VerifiedTx};
use std::collections::HashMap;

/// Nonce-gap transactions parked per sender before admission refuses.
const MAX_PARKED_PER_SENDER: usize = 16;
/// Virtual milliseconds between metrics snapshots.
const METRICS_INTERVAL_MS: u64 = 10_000;
/// Blocks the shutdown drain may produce before declaring stragglers
/// lost.
const DRAIN_BLOCK_LIMIT: u64 = 10_000;

/// Why an admitted transaction was dropped instead of confirmed.
#[derive(Debug, Clone, PartialEq)]
pub enum DropReason {
    /// Parked on a nonce gap that never filled before shutdown.
    UnfilledNonceGap,
    /// The chain refused the transaction when its gap filled (state had
    /// changed since parking, e.g. the sender spent its balance).
    UnparkRejected(LedgerError),
}

/// Terminal state of an admitted transaction.
#[derive(Debug, Clone)]
pub enum TxTerminal {
    /// Included and confirmed; the receipt is final.
    Confirmed(Receipt),
    /// Never executed; the reason is final.
    Dropped(DropReason),
}

/// Outcome of a graceful shutdown drain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DrainReport {
    /// Blocks produced while draining.
    pub drained_blocks: u64,
    /// Parked transactions dropped because their nonce gap never filled.
    pub dropped_parked: usize,
    /// Admitted transactions still without a terminal receipt when the
    /// drain block limit was hit. Zero on a healthy run.
    pub lost: usize,
}

/// The long-lived node service. See the module docs.
pub struct NodeService {
    chain: Chain,
    capacity: usize,
    parking: ParkingLot,
    /// Admitted-but-not-terminal: id → virtual admission time.
    pending: HashMap<TxId, u64>,
    terminals: HashMap<TxId, TxTerminal>,
    latencies_ms: Vec<u64>,
    rejections: RejectionCounts,
    admitted: u64,
    confirmed: u64,
    dropped: u64,
    snapshots: Vec<MetricsSnapshot>,
    next_snapshot_ms: u64,
    draining: bool,
    /// Transactions the chain accepted, in submission order with their
    /// submission-time virtual clock — the ground truth for differential
    /// replay tests.
    admitted_log: Vec<(u64, Transaction)>,
}

impl NodeService {
    /// Wraps an already-built chain (accounts funded, contracts deployed)
    /// in a service configured by `config`.
    pub fn new(chain: Chain, config: &NodeConfig) -> NodeService {
        let next_snapshot_ms = chain.now_ms() + METRICS_INTERVAL_MS;
        NodeService {
            chain,
            capacity: config.mempool_capacity.max(1),
            parking: ParkingLot::new(),
            pending: HashMap::new(),
            terminals: HashMap::new(),
            latencies_ms: Vec::new(),
            rejections: RejectionCounts::default(),
            admitted: 0,
            confirmed: 0,
            dropped: 0,
            snapshots: Vec::new(),
            next_snapshot_ms,
            draining: false,
            admitted_log: Vec::new(),
        }
    }

    /// Builds the configured chain preset and wraps it.
    ///
    /// # Errors
    ///
    /// Propagates [`ConfigError`] for an unknown preset or execution
    /// mode.
    pub fn from_config(config: &NodeConfig) -> Result<NodeService, ConfigError> {
        let mut chain = config.preset()?.build(config.seed);
        chain.set_execution_mode(config.execution_mode()?);
        Ok(NodeService::new(chain, config))
    }

    /// Submits `tx`, arriving at virtual time `at_ms`. The run loop first
    /// catches block production up to `at_ms` (a transaction cannot jump
    /// the slot grid), then applies admission policy: capacity check,
    /// signature check, nonce-gap parking, chain submission. Filling a
    /// gap releases the sender's parked successors in nonce order.
    ///
    /// # Errors
    ///
    /// A typed [`AdmissionError`] for every refusal; each is also
    /// bucketed into the rejection counters.
    pub fn submit_at(&mut self, at_ms: u64, tx: Transaction) -> Result<Admission, AdmissionError> {
        match self.admit(at_ms, tx) {
            Ok(admission) => Ok(admission),
            Err(e) => {
                self.rejections.record(&e);
                Err(e)
            }
        }
    }

    fn admit(&mut self, at_ms: u64, tx: Transaction) -> Result<Admission, AdmissionError> {
        if self.draining {
            return Err(AdmissionError::ShuttingDown);
        }
        self.run_until(at_ms);
        if self.chain.mempool_depth() + self.parking.len() >= self.capacity {
            return Err(AdmissionError::QueueFull { capacity: self.capacity });
        }
        // The one signature check of the admission path, before parking:
        // garbage must not occupy parking slots waiting for a gap to fill,
        // and what parks or queues from here on carries the proof.
        let verified = VerifiedTx::new(tx)?;
        let now = self.chain.now_ms();
        let sender = verified.tx().from;
        let id = verified.id();
        if verified.tx().nonce > self.chain.next_nonce(sender) {
            self.parking.park(verified, now, MAX_PARKED_PER_SENDER)?;
            self.pending.insert(id, now);
            self.admitted += 1;
            return Ok(Admission::Parked(id));
        }
        self.chain.submit_verified(verified.clone())?;
        self.pending.insert(id, now);
        self.admitted += 1;
        self.admitted_log.push((now, verified.into_tx()));
        self.unpark_ready(sender);
        Ok(Admission::Queued(id))
    }

    /// Releases the sender's parked transactions while each fills the
    /// next nonce gap. The chain bumps its pending nonce at submission,
    /// so a released transaction can itself release the next.
    fn unpark_ready(&mut self, sender: pol_ledger::Address) {
        loop {
            let next = self.chain.next_nonce(sender);
            let Some((parked, parked_admit_ms)) = self.parking.take_ready(sender, next) else {
                break;
            };
            let id = parked.id();
            match self.chain.submit_verified(parked.clone()) {
                Ok(_) => {
                    // Keeps its original admission time: queue wait in
                    // parking counts toward confirmation latency.
                    self.pending.insert(id, parked_admit_ms);
                    self.admitted_log.push((self.chain.now_ms(), parked.into_tx()));
                }
                Err(e) => {
                    self.pending.remove(&id);
                    self.terminals.insert(id, TxTerminal::Dropped(DropReason::UnparkRejected(e)));
                    self.dropped += 1;
                    // The chain nonce did not advance, so no later parked
                    // transaction of this sender can be ready.
                    break;
                }
            }
        }
    }

    /// One run-loop iteration: produce the next block, harvest newly
    /// confirmable receipts, and capture a metrics snapshot when one is
    /// due.
    pub(crate) fn tick(&mut self) {
        self.chain.step_block();
        self.harvest();
        if self.chain.now_ms() >= self.next_snapshot_ms {
            let snapshot = self.snapshot_now();
            self.snapshots.push(snapshot);
            self.next_snapshot_ms = self.chain.now_ms() + METRICS_INTERVAL_MS;
        }
    }

    /// Runs the loop until the virtual clock reaches `target_ms`.
    pub fn run_until(&mut self, target_ms: u64) {
        while self.chain.now_ms() < target_ms {
            self.tick();
        }
    }

    fn harvest(&mut self) {
        if self.pending.is_empty() {
            return;
        }
        let ready: Vec<(TxId, u64, Receipt)> = self
            .pending
            .iter()
            .filter_map(|(id, admit)| Some((*id, *admit, self.chain.poll_receipt(*id)?)))
            .collect();
        for (id, admit_ms, receipt) in ready {
            self.pending.remove(&id);
            self.latencies_ms.push(receipt.confirmed_ms.saturating_sub(admit_ms));
            self.terminals.insert(id, TxTerminal::Confirmed(receipt));
            self.confirmed += 1;
        }
    }

    /// Gracefully shuts down: refuse new work, drop parked transactions
    /// whose gaps can no longer fill, then keep producing blocks until
    /// every pending transaction has a terminal receipt (or the drain
    /// block limit trips).
    pub fn shutdown(&mut self) -> DrainReport {
        self.draining = true;
        // No new submissions can arrive, so an unfilled gap is permanent:
        // drop the stragglers now rather than spin the drain loop.
        let stranded = self.parking.drain_all();
        let dropped_parked = stranded.len();
        for (parked, _) in stranded {
            self.pending.remove(&parked.id());
            self.terminals.insert(parked.id(), TxTerminal::Dropped(DropReason::UnfilledNonceGap));
            self.dropped += 1;
        }
        let mut drained_blocks = 0u64;
        while !self.pending.is_empty() && drained_blocks < DRAIN_BLOCK_LIMIT {
            self.tick();
            drained_blocks += 1;
        }
        DrainReport { drained_blocks, dropped_parked, lost: self.pending.len() }
    }

    /// Captures the current metrics snapshot (also recorded periodically
    /// by [`NodeService::tick`]).
    pub(crate) fn snapshot_now(&self) -> MetricsSnapshot {
        let height = self.chain.height();
        let last_block_gas_used = self.chain.block(height).map(|b| b.gas_used).unwrap_or_default();
        let gas_limit = self.chain.config.gas_limit;
        MetricsSnapshot {
            at_ms: self.chain.now_ms(),
            height,
            mempool_depth: self.chain.mempool_depth(),
            parked: self.parking.len(),
            in_flight: self.pending.len(),
            base_fee: self.chain.base_fee(),
            last_block_gas_used,
            block_fullness: if gas_limit == 0 {
                0.0
            } else {
                last_block_gas_used as f64 / gas_limit as f64
            },
            admitted: self.admitted,
            confirmed: self.confirmed,
            dropped: self.dropped,
            rejected: self.rejections,
            exec: self.chain.exec_stats(),
            latency: self.latency_summary(),
        }
    }

    /// Latency summary over every confirmation so far.
    pub fn latency_summary(&self) -> LatencySummary {
        LatencySummary::from_samples(&self.latencies_ms)
    }

    /// The underlying chain (read-only).
    pub fn chain(&self) -> &Chain {
        &self.chain
    }

    /// The underlying chain, mutable — for pre-traffic setup (funding
    /// accounts, deploying contracts) before the open workload starts.
    pub fn chain_mut(&mut self) -> &mut Chain {
        &mut self.chain
    }

    /// Terminal state of an admitted transaction, if reached.
    pub fn terminal(&self, id: TxId) -> Option<&TxTerminal> {
        self.terminals.get(&id)
    }

    /// Cumulative admissions (queued + parked).
    pub fn admitted(&self) -> u64 {
        self.admitted
    }

    /// Cumulative confirmed terminals.
    pub fn confirmed(&self) -> u64 {
        self.confirmed
    }

    /// Cumulative dropped terminals.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Cumulative refusals by class.
    pub fn rejections(&self) -> RejectionCounts {
        self.rejections
    }

    /// Periodic snapshots captured so far, oldest first.
    pub fn snapshots(&self) -> &[MetricsSnapshot] {
        &self.snapshots
    }

    /// Chain-accepted transactions in submission order, each with the
    /// virtual time the chain saw it — the ground truth a differential
    /// replay must reproduce.
    pub fn admitted_log(&self) -> &[(u64, Transaction)] {
        &self.admitted_log
    }
}

impl std::fmt::Debug for NodeService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NodeService")
            .field("now_ms", &self.chain.now_ms())
            .field("admitted", &self.admitted)
            .field("confirmed", &self.confirmed)
            .field("dropped", &self.dropped)
            .field("in_flight", &self.pending.len())
            .field("parked", &self.parking.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pol_chainsim::presets;
    use pol_crypto::ed25519::Keypair;
    use pol_ledger::Address;

    fn service_with_accounts(n: usize) -> (NodeService, Vec<(Keypair, Address)>) {
        let config = NodeConfig::default();
        let mut chain = presets::devnet_evm().build(config.seed);
        let accounts = (0..n).map(|_| chain.create_funded_account(10u128.pow(21))).collect();
        (NodeService::new(chain, &config), accounts)
    }

    fn transfer(service: &NodeService, kp: &Keypair, from: Address, nonce: u64) -> Transaction {
        let (max_fee, prio) = service.chain().suggested_fees();
        Transaction::transfer(from, Address::ZERO, 1, nonce).with_fees(max_fee, prio).signed(kp)
    }

    #[test]
    fn nonce_gap_parks_then_releases_when_filled() {
        let (mut service, accounts) = service_with_accounts(1);
        let (kp, addr) = &accounts[0];
        let ahead = transfer(&service, kp, *addr, 2);
        let ahead_id = ahead.id();
        assert!(matches!(service.submit_at(0, ahead), Ok(Admission::Parked(_))));
        assert_eq!(service.snapshot_now().parked, 1);

        // Filling nonces 0 and 1 releases the parked nonce-2 transaction.
        assert!(matches!(
            service.submit_at(100, transfer(&service, kp, *addr, 0)),
            Ok(Admission::Queued(_))
        ));
        assert!(matches!(
            service.submit_at(100, transfer(&service, kp, *addr, 1)),
            Ok(Admission::Queued(_))
        ));
        assert_eq!(service.snapshot_now().parked, 0, "gap filled, parking empty");
        assert_eq!(service.admitted(), 3);

        let report = service.shutdown();
        assert_eq!(report.lost, 0);
        assert_eq!(report.dropped_parked, 0);
        assert_eq!(service.confirmed(), 3);
        assert!(matches!(service.terminal(ahead_id), Some(TxTerminal::Confirmed(_))));
        assert_eq!(service.latency_summary().count, 3);
    }

    #[test]
    fn capacity_refuses_with_queue_full() {
        let config = NodeConfig { mempool_capacity: 2, ..NodeConfig::default() };
        let mut chain = presets::devnet_evm().build(config.seed);
        let (kp, addr) = chain.create_funded_account(10u128.pow(21));
        let mut service = NodeService::new(chain, &config);
        for nonce in 0..2 {
            let tx = transfer(&service, &kp, addr, nonce);
            service.submit_at(0, tx).unwrap();
        }
        let tx = transfer(&service, &kp, addr, 2);
        assert!(matches!(service.submit_at(0, tx), Err(AdmissionError::QueueFull { capacity: 2 })));
        assert_eq!(service.rejections().queue_full, 1);
        assert_eq!(service.shutdown().lost, 0);
    }

    #[test]
    fn bad_signature_and_overflow_are_bucketed() {
        let (mut service, accounts) = service_with_accounts(1);
        let (kp, addr) = &accounts[0];

        let unsigned = Transaction::transfer(*addr, Address::ZERO, 1, 0);
        assert!(matches!(
            service.submit_at(0, unsigned),
            Err(AdmissionError::Rejected(LedgerError::BadSignature))
        ));

        let overflow =
            Transaction::transfer(*addr, Address::ZERO, 1, 0).with_fees(u128::MAX, 0).signed(kp);
        assert!(matches!(
            service.submit_at(0, overflow),
            Err(AdmissionError::Rejected(LedgerError::FeeOverflow { .. }))
        ));
        let counts = service.rejections();
        assert_eq!((counts.bad_signature, counts.fee_overflow, counts.total()), (1, 1, 2));
        assert_eq!(service.admitted(), 0, "rejections are not admissions");
    }

    #[test]
    fn call_below_its_gas_certificate_is_bucketed_over_budget() {
        let (mut service, accounts) = service_with_accounts(1);
        let (kp, addr) = &accounts[0];
        let sink = pol_ledger::ContractId::Evm(Address([0xce; 20]));
        service.chain_mut().register_gas_resolver(sink, Box::new(|_| Some(50_000)));
        let (max_fee, prio) = service.chain().suggested_fees();
        let starved = Transaction::call(*addr, sink, Vec::new(), 0, 0)
            .with_gas_limit(49_999)
            .with_fees(max_fee, prio)
            .signed(kp);
        assert!(matches!(
            service.submit_at(0, starved),
            Err(AdmissionError::Rejected(LedgerError::GasOverBudget {
                certified: 50_000,
                gas_limit: 49_999
            }))
        ));
        let counts = service.rejections();
        assert_eq!((counts.over_budget, counts.total()), (1, 1));
        assert_eq!(service.snapshot_now().parked, 0);
        assert_eq!((service.admitted(), service.pending.len()), (0, 0));
    }

    #[test]
    fn bad_signature_ahead_of_its_nonce_never_parks() {
        let (mut service, accounts) = service_with_accounts(1);
        let (kp, addr) = &accounts[0];
        // Nonce 3 would park if it were genuine; the signature covers value 1.
        let mut forged = transfer(&service, kp, *addr, 3);
        forged.value = 2;
        assert!(matches!(
            service.submit_at(0, forged),
            Err(AdmissionError::Rejected(LedgerError::BadSignature))
        ));
        let counts = service.rejections();
        assert_eq!((counts.bad_signature, counts.total()), (1, 1));
        assert_eq!(service.snapshot_now().parked, 0, "garbage occupies no parking slot");
        assert_eq!((service.admitted(), service.pending.len()), (0, 0));
    }

    #[test]
    fn parked_transaction_of_a_drained_sender_drops_at_release() {
        let (mut service, accounts) = service_with_accounts(1);
        let (kp, addr) = &accounts[0];
        let (max_fee, prio) = service.chain().suggested_fees();
        let worst_fee = 21_000 * max_fee;
        let send = |value: u128, nonce: u64| {
            Transaction::transfer(*addr, Address::ZERO, value, nonce)
                .with_fees(max_fee, prio)
                .signed(kp)
        };
        // Nonce 2 parks while the sender can still afford it.
        let parked = send(10u128.pow(20), 2);
        let parked_id = parked.id();
        assert!(matches!(service.submit_at(0, parked), Ok(Admission::Parked(_))));
        // Nonce 0 spends all but three worst-case fees, and executes.
        let drain = send(service.chain().balance(*addr) - 3 * worst_fee, 0);
        assert!(matches!(service.submit_at(0, drain), Ok(Admission::Queued(_))));
        service.run_until(1_000);
        assert!(service.chain().balance(*addr) < 10u128.pow(20));
        // Nonce 1 is still affordable and fills the gap; the release of
        // nonce 2 is refused by the chain's balance check, not re-verified
        // and not lost.
        assert!(matches!(service.submit_at(1_000, send(1, 1)), Ok(Admission::Queued(_))));
        assert!(matches!(
            service.terminal(parked_id),
            Some(TxTerminal::Dropped(DropReason::UnparkRejected(
                LedgerError::InsufficientBalance { .. }
            )))
        ));
        assert_eq!(service.snapshot_now().parked, 0);
        assert_eq!(service.shutdown().lost, 0);
        assert_eq!((service.admitted(), service.confirmed(), service.dropped()), (3, 2, 1));
        assert_eq!(service.rejections().total(), 0, "a drop at release is not a refusal");
    }

    #[test]
    fn shutdown_drops_unfilled_gaps_and_refuses_new_work() {
        let (mut service, accounts) = service_with_accounts(1);
        let (kp, addr) = &accounts[0];
        let stranded = transfer(&service, kp, *addr, 7);
        let stranded_id = stranded.id();
        service.submit_at(0, stranded).unwrap();
        let filled = transfer(&service, kp, *addr, 0);
        service.submit_at(50, filled).unwrap();

        let report = service.shutdown();
        assert_eq!(report.dropped_parked, 1);
        assert_eq!(report.lost, 0);
        assert!(matches!(
            service.terminal(stranded_id),
            Some(TxTerminal::Dropped(DropReason::UnfilledNonceGap))
        ));
        // The drain invariant: admitted == confirmed + dropped.
        assert_eq!(service.admitted(), service.confirmed() + service.dropped());
        assert_eq!(service.pending.len(), 0);

        let late = transfer(&service, kp, *addr, 1);
        assert!(matches!(service.submit_at(9999, late), Err(AdmissionError::ShuttingDown)));
        assert_eq!(service.rejections().shutting_down, 1);
    }

    #[test]
    fn run_loop_captures_periodic_snapshots() {
        let config = NodeConfig::default();
        let chain = presets::devnet_evm().build(config.seed);
        let mut service = NodeService::new(chain, &config);
        service.run_until(4 * METRICS_INTERVAL_MS + 100);
        // devnet blocks every 100 ms → a snapshot at each interval's end.
        assert_eq!(service.snapshots().len(), 4, "{}", service.snapshots().len());
        let heights: Vec<u64> = service.snapshots().iter().map(|s| s.height).collect();
        assert!(heights.windows(2).all(|w| w[0] < w[1]), "{heights:?}");
    }
}

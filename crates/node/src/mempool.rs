//! Bounded mempool ingestion: admission control, typed rejections and
//! nonce-gap parking.
//!
//! The simulated [`Chain`](pol_chainsim::Chain) keeps a strict-nonce,
//! unbounded mempool — correct for closed-loop benchmarks, but a
//! long-lived node fronts it with policy: a hard capacity on open work,
//! per-sender parking for transactions that arrive ahead of their nonce,
//! and a typed error for every refusal so clients can distinguish
//! back-pressure from permanent rejection.

use pol_ledger::{Address, LedgerError, TxId, VerifiedTx};
use std::collections::BTreeMap;

/// A successful admission outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// The transaction entered the chain's mempool and will be included.
    Queued(TxId),
    /// The transaction arrived ahead of its sender's next nonce and is
    /// parked until the gap fills.
    Parked(TxId),
}

impl Admission {
    /// The transaction id, whichever lane it took.
    pub fn id(&self) -> TxId {
        match self {
            Admission::Queued(id) | Admission::Parked(id) => *id,
        }
    }
}

/// Why the node refused a submission.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AdmissionError {
    /// The node's open-work bound (queued + parked) is exhausted —
    /// transient back-pressure, retry later.
    QueueFull {
        /// The configured capacity that is exhausted.
        capacity: usize,
    },
    /// The sender already parks its per-sender quota of nonce-gap
    /// transactions.
    ParkingFull {
        /// The sender whose quota is exhausted.
        sender: Address,
        /// The per-sender parking capacity.
        capacity: usize,
    },
    /// A transaction with this sender and nonce is already parked.
    AlreadyParked {
        /// The sender of the duplicate.
        sender: Address,
        /// The duplicated nonce.
        nonce: u64,
    },
    /// The chain rejected the transaction outright (bad signature,
    /// underfunded, fee overflow, stale nonce, …) — permanent for this
    /// transaction as signed.
    Rejected(LedgerError),
    /// The node is draining for shutdown and admits nothing new.
    ShuttingDown,
}

impl std::fmt::Display for AdmissionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AdmissionError::QueueFull { capacity } => {
                write!(f, "mempool at capacity ({capacity}); retry later")
            }
            AdmissionError::ParkingFull { sender, capacity } => {
                write!(f, "sender {sender} already parks {capacity} nonce-gap transactions")
            }
            AdmissionError::AlreadyParked { sender, nonce } => {
                write!(f, "sender {sender} already parks a transaction with nonce {nonce}")
            }
            AdmissionError::Rejected(e) => write!(f, "rejected by chain: {e}"),
            AdmissionError::ShuttingDown => write!(f, "node is draining for shutdown"),
        }
    }
}

impl std::error::Error for AdmissionError {}

impl From<LedgerError> for AdmissionError {
    fn from(e: LedgerError) -> AdmissionError {
        AdmissionError::Rejected(e)
    }
}

/// Rejections bucketed by class, for the metrics surface.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RejectionCounts {
    /// Transient back-pressure: the open-work bound was exhausted.
    pub queue_full: u64,
    /// Per-sender parking quota exhausted.
    pub parking_full: u64,
    /// Duplicate (sender, nonce) already parked.
    pub already_parked: u64,
    /// Signature did not verify.
    pub bad_signature: u64,
    /// Stale nonce (below the sender's next).
    pub bad_nonce: u64,
    /// Worst-case fee exceeded the sender's balance.
    pub underfunded: u64,
    /// Fee arithmetic overflowed `u128` — the adversarial caps the
    /// overflow fixes turn into typed rejections.
    pub fee_overflow: u64,
    /// Fee cap below the protocol minimum.
    pub fee_too_low: u64,
    /// Certified calls provisioned below their static worst-case gas
    /// certificate — provably over budget, refused before execution.
    pub over_budget: u64,
    /// Submissions refused because the node was draining.
    pub shutting_down: u64,
    /// Anything else the chain refused.
    pub other: u64,
}

impl RejectionCounts {
    /// Buckets one refusal.
    pub(crate) fn record(&mut self, error: &AdmissionError) {
        match error {
            AdmissionError::QueueFull { .. } => self.queue_full += 1,
            AdmissionError::ParkingFull { .. } => self.parking_full += 1,
            AdmissionError::AlreadyParked { .. } => self.already_parked += 1,
            AdmissionError::ShuttingDown => self.shutting_down += 1,
            AdmissionError::Rejected(e) => match e {
                LedgerError::BadSignature => self.bad_signature += 1,
                LedgerError::BadNonce { .. } => self.bad_nonce += 1,
                LedgerError::InsufficientBalance { .. } => self.underfunded += 1,
                LedgerError::FeeOverflow { .. } => self.fee_overflow += 1,
                LedgerError::FeeTooLow { .. } => self.fee_too_low += 1,
                LedgerError::GasOverBudget { .. } => self.over_budget += 1,
                _ => self.other += 1,
            },
        }
    }

    /// Total refusals across every class.
    pub fn total(&self) -> u64 {
        self.queue_full
            + self.parking_full
            + self.already_parked
            + self.bad_signature
            + self.bad_nonce
            + self.underfunded
            + self.fee_overflow
            + self.fee_too_low
            + self.over_budget
            + self.shutting_down
            + self.other
    }
}

/// Nonce-gap parking: transactions that arrived ahead of their sender's
/// next nonce, keyed `(sender, nonce)` and released in nonce order as
/// gaps fill. Only signature-checked transactions park — garbage cannot
/// occupy a slot, and a released transaction is not checked again.
#[derive(Debug, Default)]
pub(crate) struct ParkingLot {
    by_sender: BTreeMap<Address, BTreeMap<u64, (VerifiedTx, u64)>>,
    count: usize,
}

impl ParkingLot {
    /// An empty lot.
    pub(crate) fn new() -> ParkingLot {
        ParkingLot::default()
    }

    /// Parked transactions across all senders.
    pub(crate) fn len(&self) -> usize {
        self.count
    }

    /// Parks `tx` (admitted at virtual time `admit_ms`) under its sender,
    /// bounded by `per_sender` slots.
    ///
    /// # Errors
    ///
    /// [`AdmissionError::ParkingFull`] when the sender's quota is
    /// exhausted, [`AdmissionError::AlreadyParked`] on a duplicate
    /// `(sender, nonce)`.
    pub(crate) fn park(
        &mut self,
        tx: VerifiedTx,
        admit_ms: u64,
        per_sender: usize,
    ) -> Result<(), AdmissionError> {
        let (sender, nonce) = (tx.tx().from, tx.tx().nonce);
        let slot = self.by_sender.entry(sender).or_default();
        if slot.contains_key(&nonce) {
            return Err(AdmissionError::AlreadyParked { sender, nonce });
        }
        if slot.len() >= per_sender {
            return Err(AdmissionError::ParkingFull { sender, capacity: per_sender });
        }
        slot.insert(nonce, (tx, admit_ms));
        self.count += 1;
        Ok(())
    }

    /// Removes and returns the parked transaction of `sender` with
    /// exactly nonce `next`, if present — the gap just filled.
    pub(crate) fn take_ready(&mut self, sender: Address, next: u64) -> Option<(VerifiedTx, u64)> {
        let slot = self.by_sender.get_mut(&sender)?;
        let entry = slot.remove(&next)?;
        if slot.is_empty() {
            self.by_sender.remove(&sender);
        }
        self.count -= 1;
        Some(entry)
    }

    /// Empties the lot, returning everything still parked (shutdown path:
    /// gaps that never filled).
    pub(crate) fn drain_all(&mut self) -> Vec<(VerifiedTx, u64)> {
        let mut out = Vec::with_capacity(self.count);
        for (_, slot) in std::mem::take(&mut self.by_sender) {
            out.extend(slot.into_values());
        }
        self.count = 0;
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pol_crypto::ed25519::Keypair;
    use pol_ledger::Transaction;

    fn tx(seed: u8, nonce: u64) -> VerifiedTx {
        let kp = Keypair::from_seed(&[seed; 32]);
        let from = Address::from_public_key(&kp.public);
        VerifiedTx::new(Transaction::transfer(from, Address::ZERO, 1, nonce).signed(&kp)).unwrap()
    }

    #[test]
    fn parks_and_releases_in_nonce_order() {
        let mut lot = ParkingLot::new();
        let (a2, a1) = (tx(1, 2), tx(1, 1));
        let sender = a1.tx().from;
        lot.park(a2, 10, 4).unwrap();
        lot.park(a1, 20, 4).unwrap();
        assert_eq!(lot.len(), 2);
        assert!(lot.take_ready(sender, 0).is_none(), "no nonce-0 parked");
        let (ready, admit) = lot.take_ready(sender, 1).unwrap();
        assert_eq!((ready.tx().nonce, admit), (1, 20));
        let (ready, _) = lot.take_ready(sender, 2).unwrap();
        assert_eq!(ready.tx().nonce, 2);
        assert_eq!(lot.len(), 0);
    }

    #[test]
    fn per_sender_quota_and_duplicates_are_typed() {
        let mut lot = ParkingLot::new();
        lot.park(tx(1, 5), 0, 1).unwrap();
        assert!(matches!(
            lot.park(tx(1, 5), 0, 8),
            Err(AdmissionError::AlreadyParked { nonce: 5, .. })
        ));
        assert!(matches!(
            lot.park(tx(1, 6), 0, 1),
            Err(AdmissionError::ParkingFull { capacity: 1, .. })
        ));
        // Another sender is unaffected by the first sender's quota.
        lot.park(tx(2, 5), 0, 1).unwrap();
        assert_eq!(lot.drain_all().len(), 2);
        assert_eq!(lot.len(), 0);
    }

    #[test]
    fn rejection_counts_bucket_by_class() {
        let mut counts = RejectionCounts::default();
        counts.record(&AdmissionError::QueueFull { capacity: 1 });
        counts.record(&AdmissionError::ShuttingDown);
        counts.record(&AdmissionError::Rejected(LedgerError::BadSignature));
        counts.record(&AdmissionError::Rejected(LedgerError::FeeOverflow {
            value: 1,
            gas_limit: 2,
            max_fee_per_gas: u128::MAX,
        }));
        counts.record(&AdmissionError::Rejected(LedgerError::GasOverBudget {
            certified: 130_000,
            gas_limit: 30_000,
        }));
        assert_eq!(counts.queue_full, 1);
        assert_eq!(counts.shutting_down, 1);
        assert_eq!(counts.bad_signature, 1);
        assert_eq!(counts.fee_overflow, 1);
        assert_eq!(counts.over_budget, 1);
        assert_eq!(counts.total(), 5);
    }
}

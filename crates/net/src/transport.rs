//! The seam between the overlay layers and the network: a [`Transport`]
//! trait with a zero-latency default and a fault-injecting simulation.

use crate::link::LinkModel;
use crate::retry::RetryPolicy;
use crate::sim::NetSim;
use crate::stats::TransportStats;
use crate::{MessageClass, NodeId};
use parking_lot::Mutex;

/// Why an exchange ultimately failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransportError {
    /// Every attempt timed out: the destination is unreachable (lost
    /// messages, a partition, or churn) as far as the sender can tell.
    Timeout {
        /// Sender.
        from: NodeId,
        /// Destination.
        to: NodeId,
        /// Attempts made before giving up.
        attempts: u32,
    },
}

impl std::fmt::Display for TransportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransportError::Timeout { from, to, attempts } => {
                write!(f, "{from} -> {to}: no response after {attempts} attempts")
            }
        }
    }
}

impl std::error::Error for TransportError {}

/// How the DHT and DFS layers move a message between two endpoints.
///
/// `deliver` models one acknowledged exchange: it returns the virtual time
/// the exchange consumed (microseconds), or a timeout after the retry
/// policy is exhausted. Implementations keep interior state behind `&self`
/// so an `Arc<Hypercube>`-style shared overlay can hold one transport.
pub trait Transport {
    /// Delivers one message from `from` to `to`, retrying per the
    /// implementation's policy.
    ///
    /// # Errors
    ///
    /// [`TransportError::Timeout`] when every attempt failed.
    fn deliver(&self, from: NodeId, to: NodeId, class: MessageClass)
        -> Result<u64, TransportError>;

    /// Current virtual time, microseconds (0 for non-simulated
    /// transports).
    fn now_us(&self) -> u64 {
        0
    }
}

/// The historical zero-latency in-memory "network": every delivery
/// succeeds instantly. Routing through this transport is bit-for-bit
/// identical to the pre-transport code path.
#[derive(Debug, Clone, Copy, Default)]
pub struct DirectTransport;

impl Transport for DirectTransport {
    fn deliver(
        &self,
        _from: NodeId,
        _to: NodeId,
        _class: MessageClass,
    ) -> Result<u64, TransportError> {
        Ok(0)
    }
}

/// Configures and builds a [`SimTransport`].
#[derive(Debug, Clone)]
pub struct SimTransportBuilder {
    seed: u64,
    link: LinkModel,
    retry: RetryPolicy,
}

impl SimTransportBuilder {
    /// Sets the default link model for every pair of nodes.
    pub fn link(mut self, link: LinkModel) -> SimTransportBuilder {
        self.link = link;
        self
    }

    /// Sets the retry policy applied to every exchange.
    pub fn retry(mut self, retry: RetryPolicy) -> SimTransportBuilder {
        self.retry = retry;
        self
    }

    /// Builds the transport.
    pub fn build(self) -> SimTransport {
        SimTransport { sim: Mutex::new(NetSim::new(self.seed, self.link)), retry: self.retry }
    }
}

/// A [`Transport`] that routes every exchange through the discrete-event
/// simulator: latency is sampled from the link model, losses trigger the
/// retry policy (timeout + backoff in virtual time), and everything is
/// recorded in [`TransportStats`].
#[derive(Debug)]
pub struct SimTransport {
    sim: Mutex<NetSim>,
    retry: RetryPolicy,
}

impl SimTransport {
    /// Starts building a transport seeded with `seed`.
    pub fn builder(seed: u64) -> SimTransportBuilder {
        SimTransportBuilder { seed, link: LinkModel::lan(), retry: RetryPolicy::default() }
    }

    /// Marks a node online/offline (churn).
    pub fn set_online(&self, node: NodeId, online: bool) {
        self.sim.lock().set_online(node, online);
    }

    /// Installs a bidirectional partition (see `NetSim::partition`).
    pub fn partition(&self, island: impl IntoIterator<Item = NodeId>) {
        self.sim.lock().partition(island);
    }

    /// Heals any active partition.
    pub fn heal(&self) {
        self.sim.lock().heal();
    }

    /// Overrides the link model between two nodes, both directions.
    pub fn set_link_symmetric(&self, a: NodeId, b: NodeId, model: LinkModel) {
        self.sim.lock().set_link_symmetric(a, b, model);
    }

    /// A snapshot of the accumulated statistics.
    pub fn stats(&self) -> TransportStats {
        self.sim.lock().stats().clone()
    }
}

impl Transport for SimTransport {
    fn deliver(
        &self,
        from: NodeId,
        to: NodeId,
        class: MessageClass,
    ) -> Result<u64, TransportError> {
        let mut sim = self.sim.lock();
        let start = sim.now_us();
        for attempt in 1..=self.retry.max_attempts.max(1) {
            if attempt > 1 {
                sim.stats_mut().class_mut(class).retried += 1;
                let backoff = self.retry.backoff_for(attempt, sim.rng_mut());
                sim.advance_by(backoff);
            }
            match sim.send(from, to, class) {
                Ok(id) => {
                    // Drain the queue up to (and including) our message.
                    // Unrelated arrivals (duplicates of earlier exchanges)
                    // are delivered along the way.
                    let mut arrived = false;
                    while let Some(delivery) = sim.step() {
                        if delivery.message.id == id {
                            arrived = true;
                            break;
                        }
                    }
                    if arrived {
                        return Ok(sim.now_us() - start);
                    }
                    // Scheduled but lost at arrival (destination churned
                    // out mid-flight): the sender only sees silence.
                    sim.advance_by(self.retry.timeout_us);
                }
                Err(_) => sim.advance_by(self.retry.timeout_us),
            }
        }
        sim.stats_mut().class_mut(class).timed_out += 1;
        Err(TransportError::Timeout { from, to, attempts: self.retry.max_attempts.max(1) })
    }

    fn now_us(&self) -> u64 {
        self.sim.lock().now_us()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::Latency;

    #[test]
    fn direct_transport_is_free_and_infallible() {
        let t = DirectTransport;
        for i in 0..100 {
            assert_eq!(t.deliver(NodeId(0), NodeId(i), MessageClass::DhtLookup), Ok(0));
        }
        assert_eq!(t.now_us(), 0);
    }

    #[test]
    fn sim_transport_charges_latency() {
        let t = SimTransport::builder(1)
            .link(LinkModel { latency: Latency::Fixed(2_000), ..LinkModel::ideal() })
            .build();
        let latency = t.deliver(NodeId(0), NodeId(1), MessageClass::DhtLookup).unwrap();
        assert_eq!(latency, 2_000);
        assert_eq!(t.now_us(), 2_000);
    }

    #[test]
    fn losses_retry_then_succeed_or_time_out() {
        // 100% loss: every attempt drops, the exchange times out, and the
        // virtual clock shows timeout × attempts plus the backoffs.
        let retry = RetryPolicy {
            timeout_us: 1_000,
            base_backoff_us: 100,
            multiplier: 2.0,
            max_backoff_us: 10_000,
            max_attempts: 3,
            jitter_frac: 0.0,
        };
        let t = SimTransport::builder(2)
            .link(LinkModel::ideal().with_drop_prob(1.0))
            .retry(retry)
            .build();
        let err = t.deliver(NodeId(0), NodeId(1), MessageClass::DfsRequest).unwrap_err();
        assert_eq!(err, TransportError::Timeout { from: NodeId(0), to: NodeId(1), attempts: 3 });
        assert_eq!(t.now_us(), 3 * 1_000 + 100 + 200);
        let stats = t.stats();
        let class = stats.class(MessageClass::DfsRequest);
        assert_eq!(class.sent, 3);
        assert_eq!(class.retried, 2);
        assert_eq!(class.timed_out, 1);
    }

    #[test]
    fn partial_loss_eventually_delivers() {
        let t = SimTransport::builder(3)
            .link(LinkModel::lan().with_drop_prob(0.5))
            .retry(RetryPolicy { max_attempts: 16, ..RetryPolicy::default() })
            .build();
        let mut delivered = 0;
        for i in 0..50 {
            if t.deliver(NodeId(i), NodeId(i + 1), MessageClass::DhtStore).is_ok() {
                delivered += 1;
            }
        }
        assert!(delivered >= 45, "with 16 attempts at 50% loss, almost all succeed");
        let stats = t.stats();
        assert!(stats.class(MessageClass::DhtStore).retried > 0);
    }

    #[test]
    fn partitioned_destination_times_out_then_heals() {
        let t = SimTransport::builder(4).link(LinkModel::ideal()).build();
        t.partition([NodeId(0)]);
        assert!(t.deliver(NodeId(0), NodeId(1), MessageClass::Control).is_err());
        t.heal();
        assert!(t.deliver(NodeId(0), NodeId(1), MessageClass::Control).is_ok());
    }

    #[test]
    fn deterministic_across_identical_transports() {
        let run = |seed| {
            let t = SimTransport::builder(seed).link(LinkModel::lan().with_drop_prob(0.1)).build();
            let mut log = Vec::new();
            for i in 0..40u64 {
                log.push(t.deliver(NodeId(i % 5), NodeId((i + 2) % 5), MessageClass::DhtLookup));
            }
            (log, t.now_us())
        };
        assert_eq!(run(7), run(7));
    }
}

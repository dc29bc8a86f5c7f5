//! The seam between the overlay layers and the network: a [`Transport`]
//! trait with a zero-latency default and a fault-injecting simulation.

use crate::link::LinkModel;
use crate::retry::RetryPolicy;
use crate::stats::TransportStats;
use crate::{MessageClass, NodeId};
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashSet;

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
    /// Sets the link model every pair of nodes shares.
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
        let network = Network {
            now_us: 0,
            rng: StdRng::seed_from_u64(self.seed),
            link: self.link,
            offline: HashSet::new(),
            partition: None,
            stats: TransportStats::default(),
        };
        SimTransport { network: Mutex::new(network), retry: self.retry }
    }
}

/// The simulated network: a virtual clock, the one RNG every sample
/// draws from, the fault state and the counters.
///
/// Time moves only when an attempt delivers, times out or backs off, so
/// two networks built with the same seed and driven by the same calls
/// have identical histories.
#[derive(Debug)]
struct Network {
    /// Virtual time, microseconds; nothing here reads the wall clock.
    now_us: u64,
    rng: StdRng,
    link: LinkModel,
    /// Churned-out nodes: they neither send nor receive.
    offline: HashSet<NodeId>,
    /// Active partition: nodes in the set reach only each other, nodes
    /// outside it likewise, until healed.
    partition: Option<HashSet<NodeId>>,
    stats: TransportStats,
}

impl Network {
    /// Whether churn and the partition let `from` reach `to`.
    fn reachable(&self, from: NodeId, to: NodeId) -> bool {
        !self.offline.contains(&from)
            && !self.offline.contains(&to)
            && self
                .partition
                .as_ref()
                .is_none_or(|island| island.contains(&from) == island.contains(&to))
    }

    /// Sends one message now: on arrival the clock advances by its
    /// sampled latency and `true` is returned; a message lost to churn, a
    /// partition or the link leaves the clock where it is.
    fn attempt(&mut self, from: NodeId, to: NodeId, class: MessageClass) -> bool {
        self.stats.class_mut(class).sent += 1;
        if !self.reachable(from, to) || self.link.sample_drop(&mut self.rng) {
            self.stats.class_mut(class).dropped += 1;
            return false;
        }
        let arrival_us = self.now_us.saturating_add(self.link.sample_latency_us(&mut self.rng));
        let counters = self.stats.class_mut(class);
        counters.delivered += 1;
        counters.latency.record(arrival_us - self.now_us);
        self.now_us = arrival_us;
        true
    }
}

/// A [`Transport`] that simulates every exchange: latency is sampled from
/// the link model, losses trigger the retry policy (timeout + backoff in
/// virtual time), and everything is recorded in [`TransportStats`].
#[derive(Debug)]
pub struct SimTransport {
    network: Mutex<Network>,
    retry: RetryPolicy,
}

impl SimTransport {
    /// Starts building a transport seeded with `seed`.
    pub fn builder(seed: u64) -> SimTransportBuilder {
        SimTransportBuilder { seed, link: LinkModel::lan(), retry: RetryPolicy::default() }
    }

    /// Marks a node online/offline (churn).
    pub fn set_online(&self, node: NodeId, online: bool) {
        let mut network = self.network.lock();
        if online {
            network.offline.remove(&node);
        } else {
            network.offline.insert(node);
        }
    }

    /// Installs a bidirectional partition: nodes in `island` can only
    /// talk among themselves, everyone else only among themselves.
    /// Replaces any previous partition.
    pub fn partition(&self, island: impl IntoIterator<Item = NodeId>) {
        self.network.lock().partition = Some(island.into_iter().collect());
    }

    /// Heals any active partition.
    pub fn heal(&self) {
        self.network.lock().partition = None;
    }

    /// A snapshot of the accumulated statistics.
    pub fn stats(&self) -> TransportStats {
        self.network.lock().stats.clone()
    }
}

impl Transport for SimTransport {
    fn deliver(
        &self,
        from: NodeId,
        to: NodeId,
        class: MessageClass,
    ) -> Result<u64, TransportError> {
        let mut network = self.network.lock();
        let start = network.now_us;
        let attempts = self.retry.max_attempts.max(1);
        for attempt in 1..=attempts {
            if attempt > 1 {
                network.stats.class_mut(class).retried += 1;
                let backoff = self.retry.backoff_for(attempt, &mut network.rng);
                network.now_us = network.now_us.saturating_add(backoff);
            }
            if network.attempt(from, to, class) {
                return Ok(network.now_us - start);
            }
            // The sender only sees silence.
            network.now_us = network.now_us.saturating_add(self.retry.timeout_us);
        }
        network.stats.class_mut(class).timed_out += 1;
        Err(TransportError::Timeout { from, to, attempts })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::Latency;

    impl SimTransport {
        fn now_us(&self) -> u64 {
            self.network.lock().now_us
        }
    }

    /// One attempt per exchange, so each `deliver` is one message.
    fn single_shot(seed: u64, link: LinkModel) -> SimTransport {
        SimTransport::builder(seed)
            .link(link)
            .retry(RetryPolicy { max_attempts: 1, ..RetryPolicy::default() })
            .build()
    }

    #[test]
    fn direct_transport_is_free_and_infallible() {
        let t = DirectTransport;
        for i in 0..100 {
            assert_eq!(t.deliver(NodeId(0), NodeId(i), MessageClass::DhtLookup), Ok(0));
        }
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
        let t = single_shot(5, LinkModel::ideal());
        t.partition([NodeId(0), NodeId(1)]);
        assert!(t.deliver(NodeId(0), NodeId(2), MessageClass::Control).is_err());
        assert!(t.deliver(NodeId(2), NodeId(1), MessageClass::Control).is_err());
        // Intra-island traffic still flows, both sides.
        assert!(t.deliver(NodeId(0), NodeId(1), MessageClass::Control).is_ok());
        assert!(t.deliver(NodeId(2), NodeId(3), MessageClass::Control).is_ok());
        t.heal();
        assert!(t.deliver(NodeId(0), NodeId(2), MessageClass::Control).is_ok());
        assert!(t.deliver(NodeId(2), NodeId(1), MessageClass::Control).is_ok());
        let control = t.stats().class(MessageClass::Control);
        assert_eq!((control.sent, control.delivered, control.dropped), (6, 4, 2));
    }

    #[test]
    fn churned_out_node_cannot_send_or_receive() {
        let t = single_shot(6, LinkModel::ideal());
        t.set_online(NodeId(9), false);
        assert!(t.deliver(NodeId(9), NodeId(1), MessageClass::Control).is_err());
        assert!(t.deliver(NodeId(1), NodeId(9), MessageClass::Control).is_err());
        assert!(t.deliver(NodeId(1), NodeId(2), MessageClass::Control).is_ok());
        t.set_online(NodeId(9), true);
        assert!(t.deliver(NodeId(1), NodeId(9), MessageClass::Control).is_ok());
        assert_eq!(t.stats().class(MessageClass::Control).dropped, 2);
    }

    #[test]
    fn full_loss_drops_everything() {
        let t = single_shot(8, LinkModel::ideal().with_drop_prob(1.0));
        for _ in 0..10 {
            assert!(t.deliver(NodeId(0), NodeId(1), MessageClass::DhtLookup).is_err());
        }
        let stats = t.stats().class(MessageClass::DhtLookup);
        assert_eq!(stats.sent, 10);
        assert_eq!(stats.dropped, 10);
        assert_eq!(stats.delivered, 0);
        assert_eq!(stats.latency.count, 0);
    }

    #[test]
    fn deterministic_across_identical_transports() {
        let run = |seed| {
            let t = SimTransport::builder(seed).link(LinkModel::lan().with_drop_prob(0.1)).build();
            let mut log = Vec::new();
            for i in 0..40u64 {
                log.push(t.deliver(NodeId(i % 5), NodeId((i + 2) % 5), MessageClass::DhtLookup));
            }
            (log, t.now_us(), t.stats())
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8), "different seed, different history");
    }
}

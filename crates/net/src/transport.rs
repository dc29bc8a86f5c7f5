//! The seam between the overlay layers and the network: a [`Transport`]
//! trait with a zero-latency default and a fault-injecting simulation.

use crate::stats::TransportStats;
use crate::NodeId;
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;
use std::ops::RangeInclusive;

/// The simulated link's one-way delay before jitter, microseconds: uniform
/// over a LAN's range.
const LINK_LATENCY_US: RangeInclusive<u64> = 200..=500;
/// Jitter added to every delivered message, uniform in `[0, this]` µs.
const LINK_JITTER_US: u64 = 50;
/// How long a sender waits for a response before declaring an attempt
/// lost, microseconds.
const TIMEOUT_US: u64 = 250_000;
/// Attempts per exchange, the first try included.
pub const MAX_ATTEMPTS: u32 = 4;
/// Backoff before the second attempt, microseconds; it doubles for each
/// further attempt.
const BASE_BACKOFF_US: u64 = 50_000;

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
/// the exchange consumed (microseconds), or a timeout after the retries
/// are exhausted. Implementations keep interior state behind `&self` so
/// an `Arc<Hypercube>`-style shared overlay can hold one transport.
pub trait Transport {
    /// Delivers one message from `from` to `to`, retrying per the
    /// implementation's policy.
    ///
    /// # Errors
    ///
    /// [`TransportError::Timeout`] when every attempt failed.
    fn deliver(&self, from: NodeId, to: NodeId) -> Result<u64, TransportError>;
}

/// The historical zero-latency in-memory "network": every delivery
/// succeeds instantly and neither endpoint is read. Routing through this
/// transport is bit-for-bit identical to the pre-transport code path.
#[derive(Debug, Clone, Copy, Default)]
pub struct DirectTransport;

impl Transport for DirectTransport {
    fn deliver(&self, _from: NodeId, _to: NodeId) -> Result<u64, TransportError> {
        Ok(0)
    }
}

/// Samples one delivered message's propagation delay: the link's delay,
/// then its jitter.
fn sample_latency_us(rng: &mut StdRng) -> u64 {
    rng.gen_range(LINK_LATENCY_US) + rng.gen_range(0..=LINK_JITTER_US)
}

/// The jitter-free backoff before attempt number `attempt`, from 2 (the
/// first retry) to [`MAX_ATTEMPTS`].
fn base_backoff_us(attempt: u32) -> u64 {
    BASE_BACKOFF_US << (attempt - 2)
}

/// Samples the backoff before attempt `attempt`: the base plus up to a
/// quarter of it, decorrelating synchronized retries.
fn sample_backoff_us(attempt: u32, rng: &mut StdRng) -> u64 {
    let base = base_backoff_us(attempt);
    base + rng.gen_range(0..=base / 4)
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
    /// Probability the link silently drops a message.
    drop_prob: f64,
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
    /// partition or the link leaves the clock where it is. The link's drop
    /// is drawn only for a reachable destination on a lossy link.
    fn attempt(&mut self, from: NodeId, to: NodeId) -> bool {
        self.stats.sent += 1;
        let lost = !self.reachable(from, to)
            || (self.drop_prob > 0.0 && self.rng.gen_bool(self.drop_prob));
        if lost {
            self.stats.dropped += 1;
            return false;
        }
        let latency_us = sample_latency_us(&mut self.rng);
        self.stats.delivered += 1;
        self.stats.latency.record(latency_us);
        self.now_us = self.now_us.saturating_add(latency_us);
        true
    }
}

/// A [`Transport`] that simulates every exchange: latency is sampled from
/// the LAN link, losses trigger the retry schedule (timeout + backoff in
/// virtual time), and everything is recorded in [`TransportStats`].
#[derive(Debug)]
pub struct SimTransport {
    network: Mutex<Network>,
}

impl SimTransport {
    /// A transport seeded with `seed` whose link drops each message with
    /// probability `drop_prob`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 ≤ drop_prob ≤ 1`.
    pub fn new(seed: u64, drop_prob: f64) -> SimTransport {
        assert!((0.0..=1.0).contains(&drop_prob), "drop_prob {drop_prob} not a probability");
        let network = Network {
            now_us: 0,
            rng: StdRng::seed_from_u64(seed),
            drop_prob,
            offline: HashSet::new(),
            partition: None,
            stats: TransportStats::default(),
        };
        SimTransport { network: Mutex::new(network) }
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
    fn deliver(&self, from: NodeId, to: NodeId) -> Result<u64, TransportError> {
        let mut network = self.network.lock();
        let start = network.now_us;
        for attempt in 1..=MAX_ATTEMPTS {
            if attempt > 1 {
                network.stats.retried += 1;
                let backoff = sample_backoff_us(attempt, &mut network.rng);
                network.now_us = network.now_us.saturating_add(backoff);
            }
            if network.attempt(from, to) {
                return Ok(network.now_us - start);
            }
            // The sender only sees silence.
            network.now_us = network.now_us.saturating_add(TIMEOUT_US);
        }
        network.stats.timed_out += 1;
        Err(TransportError::Timeout { from, to, attempts: MAX_ATTEMPTS })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl SimTransport {
        fn now_us(&self) -> u64 {
            self.network.lock().now_us
        }
    }

    /// The lowest and highest one-way latency the link can sample.
    const LATENCY_BOUNDS_US: RangeInclusive<u64> =
        *LINK_LATENCY_US.start()..=*LINK_LATENCY_US.end() + LINK_JITTER_US;

    #[test]
    fn direct_transport_is_free_and_infallible() {
        let t = DirectTransport;
        for i in 0..100 {
            assert_eq!(t.deliver(NodeId(0), NodeId(i)), Ok(0));
        }
    }

    #[test]
    fn latency_stays_within_the_link_and_jitter() {
        let mut rng = StdRng::seed_from_u64(2);
        let samples: Vec<u64> = (0..1000).map(|_| sample_latency_us(&mut rng)).collect();
        assert!(samples.iter().all(|l| LATENCY_BOUNDS_US.contains(l)), "{samples:?}");
        assert!(samples.iter().any(|&l| l < 260) && samples.iter().any(|&l| l > 490));
    }

    #[test]
    fn sim_transport_charges_latency() {
        let t = SimTransport::new(1, 0.0);
        let latency = t.deliver(NodeId(0), NodeId(1)).unwrap();
        assert!(LATENCY_BOUNDS_US.contains(&latency), "{latency}");
        assert_eq!(t.now_us(), latency);
        let stats = t.stats();
        assert_eq!((stats.sent, stats.delivered, stats.dropped, stats.retried), (1, 1, 0, 0));
        assert_eq!(stats.latency.count, 1);
    }

    #[test]
    fn backoff_doubles_from_its_base() {
        assert_eq!(base_backoff_us(2), 50_000);
        assert_eq!(base_backoff_us(3), 100_000);
        assert_eq!(base_backoff_us(4), 200_000);
    }

    #[test]
    fn backoff_jitter_is_bounded_and_deterministic() {
        let schedule = |seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            (2..=MAX_ATTEMPTS).map(|n| sample_backoff_us(n, &mut rng)).collect::<Vec<_>>()
        };
        let sched_a = schedule(11);
        assert_eq!(sched_a, schedule(11), "same seed, same schedule");
        for (attempt, &waited) in (2..).zip(&sched_a) {
            let base = base_backoff_us(attempt);
            assert!((base..=base + base / 4).contains(&waited), "{attempt}: {waited}");
        }
    }

    #[test]
    fn losses_retry_then_time_out() {
        // 100% loss: every attempt drops, the exchange times out, and the
        // virtual clock shows the timeout per attempt plus the backoffs.
        let t = SimTransport::new(2, 1.0);
        let err = t.deliver(NodeId(0), NodeId(1)).unwrap_err();
        assert_eq!(
            err,
            TransportError::Timeout { from: NodeId(0), to: NodeId(1), attempts: MAX_ATTEMPTS }
        );
        let waits = u64::from(MAX_ATTEMPTS) * TIMEOUT_US;
        let backoffs: u64 = (2..=MAX_ATTEMPTS).map(base_backoff_us).sum();
        assert!((waits + backoffs..=waits + backoffs * 5 / 4).contains(&t.now_us()));
        let stats = t.stats();
        assert_eq!(stats.sent, u64::from(MAX_ATTEMPTS));
        assert_eq!(stats.retried, u64::from(MAX_ATTEMPTS) - 1);
        assert_eq!(stats.timed_out, 1);
    }

    #[test]
    fn partial_loss_eventually_delivers() {
        // At 50% loss one exchange fails only when all four attempts drop
        // (1 in 16); this seed loses one of fifty.
        let t = SimTransport::new(3, 0.5);
        let delivered = (0..50).filter(|&i| t.deliver(NodeId(i), NodeId(i + 1)).is_ok()).count();
        assert_eq!(delivered, 49);
        let stats = t.stats();
        assert_eq!(stats.timed_out, 1);
        assert!(stats.retried > 0);
    }

    #[test]
    fn partitioned_destination_times_out_then_heals() {
        let t = SimTransport::new(5, 0.0);
        t.partition([NodeId(0), NodeId(1)]);
        assert!(t.deliver(NodeId(0), NodeId(2)).is_err());
        assert!(t.deliver(NodeId(2), NodeId(1)).is_err());
        // Intra-island traffic still flows, both sides.
        assert!(t.deliver(NodeId(0), NodeId(1)).is_ok());
        assert!(t.deliver(NodeId(2), NodeId(3)).is_ok());
        t.heal();
        assert!(t.deliver(NodeId(0), NodeId(2)).is_ok());
        assert!(t.deliver(NodeId(2), NodeId(1)).is_ok());
        let s = t.stats();
        // Each cut exchange drops all four attempts; each other one
        // delivers on its first.
        assert_eq!((s.sent, s.delivered, s.dropped, s.timed_out), (12, 4, 8, 2));
    }

    #[test]
    fn churned_out_node_cannot_send_or_receive() {
        let t = SimTransport::new(6, 0.0);
        t.set_online(NodeId(9), false);
        assert!(t.deliver(NodeId(9), NodeId(1)).is_err());
        assert!(t.deliver(NodeId(1), NodeId(9)).is_err());
        assert!(t.deliver(NodeId(1), NodeId(2)).is_ok());
        t.set_online(NodeId(9), true);
        assert!(t.deliver(NodeId(1), NodeId(9)).is_ok());
        assert_eq!(t.stats().dropped, 2 * u64::from(MAX_ATTEMPTS));
    }

    #[test]
    fn full_loss_drops_everything() {
        let t = SimTransport::new(8, 1.0);
        for _ in 0..10 {
            assert!(t.deliver(NodeId(0), NodeId(1)).is_err());
        }
        let stats = t.stats();
        assert_eq!(stats.sent, 10 * u64::from(MAX_ATTEMPTS));
        assert_eq!(stats.dropped, stats.sent);
        assert_eq!(stats.delivered, 0);
        assert_eq!(stats.latency.count, 0);
    }

    #[test]
    fn deterministic_across_identical_transports() {
        let run = |seed| {
            let t = SimTransport::new(seed, 0.1);
            let mut log = Vec::new();
            for i in 0..40u64 {
                log.push(t.deliver(NodeId(i % 5), NodeId((i + 2) % 5)));
            }
            (log, t.now_us(), t.stats())
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8), "different seed, different history");
    }

    #[test]
    #[should_panic(expected = "not a probability")]
    fn rejects_bad_probability() {
        let _ = SimTransport::new(1, 1.5);
    }
}

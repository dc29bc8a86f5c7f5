//! The discrete-event simulator: a virtual clock plus an ordered queue of
//! in-flight messages, with per-link FIFO delivery, partitions and churn.

use crate::clock::VirtualClock;
use crate::link::LinkModel;
use crate::stats::TransportStats;
use crate::{MessageClass, NodeId};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, HashSet};

/// A message in flight (or delivered).
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Message {
    /// Unique, monotonically increasing id (doubles as the tie-breaker
    /// making event order total and deterministic).
    pub id: u64,
    /// Sender.
    pub from: NodeId,
    /// Destination.
    pub to: NodeId,
    /// Protocol role (stats key).
    pub class: MessageClass,
    /// Virtual send time, microseconds.
    pub sent_at_us: u64,
    /// Whether this copy was created by link duplication.
    pub duplicate: bool,
}

/// A delivered message with its arrival time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Delivery {
    /// The message.
    pub message: Message,
    /// Arrival time, microseconds.
    pub at_us: u64,
}

/// Why a send attempt failed immediately (before entering the queue).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SendError {
    /// The sender is offline (churned out).
    SenderOffline(NodeId),
    /// The destination is offline; the message is silently lost.
    ReceiverOffline(NodeId),
    /// A partition separates the two endpoints.
    Partitioned,
    /// The link's loss model dropped the message.
    Lost,
}

#[derive(Debug, Clone, PartialEq, Eq)]
struct Scheduled {
    arrival_us: u64,
    seq: u64,
    message: Message,
}

impl Ord for Scheduled {
    fn cmp(&self, other: &Scheduled) -> std::cmp::Ordering {
        (self.arrival_us, self.seq).cmp(&(other.arrival_us, other.seq))
    }
}

impl PartialOrd for Scheduled {
    fn partial_cmp(&self, other: &Scheduled) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// The deterministic discrete-event network simulator.
///
/// All randomness flows from the constructor seed through one [`StdRng`],
/// and ties in the event queue are broken by send order, so two simulators
/// built with the same seed and driven by the same call sequence produce
/// identical histories.
#[derive(Debug)]
pub(crate) struct NetSim {
    clock: VirtualClock,
    rng: StdRng,
    next_id: u64,
    queue: BinaryHeap<Reverse<Scheduled>>,
    /// Per-link floor keeping delivery FIFO: a message may not overtake an
    /// earlier message on the same directed link.
    link_floor: HashMap<(NodeId, NodeId), u64>,
    default_link: LinkModel,
    link_overrides: HashMap<(NodeId, NodeId), LinkModel>,
    offline: HashSet<NodeId>,
    /// Active partition as a 2-coloring: nodes in the set cannot exchange
    /// messages with nodes outside it (bidirectional), until healed.
    partition: Option<HashSet<NodeId>>,
    stats: TransportStats,
}

impl NetSim {
    /// Creates a simulator with every node online and `default_link`
    /// behaviour on all links.
    pub(crate) fn new(seed: u64, default_link: LinkModel) -> NetSim {
        NetSim {
            clock: VirtualClock::new(),
            rng: StdRng::seed_from_u64(seed),
            next_id: 0,
            queue: BinaryHeap::new(),
            link_floor: HashMap::new(),
            default_link,
            link_overrides: HashMap::new(),
            offline: HashSet::new(),
            partition: None,
            stats: TransportStats::default(),
        }
    }

    /// Current virtual time, microseconds.
    pub(crate) fn now_us(&self) -> u64 {
        self.clock.now_us()
    }

    /// Advances the clock without delivering anything (idle waiting, e.g.
    /// a sender sitting out a retry backoff).
    pub(crate) fn advance_by(&mut self, delta_us: u64) {
        self.clock.advance_by(delta_us);
    }

    /// Overrides both directions between `a` and `b`.
    pub(crate) fn set_link_symmetric(&mut self, a: NodeId, b: NodeId, model: LinkModel) {
        self.link_overrides.insert((a, b), model);
        self.link_overrides.insert((b, a), model);
    }

    /// Marks a node online/offline (churn). Offline nodes neither send nor
    /// receive; messages already in flight to them are dropped on arrival.
    pub(crate) fn set_online(&mut self, node: NodeId, online: bool) {
        if online {
            self.offline.remove(&node);
        } else {
            self.offline.insert(node);
        }
    }

    /// Installs a bidirectional partition: nodes in `island` can only talk
    /// among themselves, everyone else only among themselves. Replaces any
    /// previous partition.
    pub(crate) fn partition(&mut self, island: impl IntoIterator<Item = NodeId>) {
        self.partition = Some(island.into_iter().collect());
    }

    /// Removes the partition.
    pub(crate) fn heal(&mut self) {
        self.partition = None;
    }

    /// Whether the fault state (churn + partition) currently allows
    /// `from → to` traffic.
    pub(crate) fn can_reach(&self, from: NodeId, to: NodeId) -> bool {
        if self.offline.contains(&from) || self.offline.contains(&to) {
            return false;
        }
        match &self.partition {
            Some(island) => island.contains(&from) == island.contains(&to),
            None => true,
        }
    }

    fn link_for(&self, from: NodeId, to: NodeId) -> LinkModel {
        self.link_overrides.get(&(from, to)).copied().unwrap_or(self.default_link)
    }

    /// Attempts to send one message now. On success the message (plus any
    /// duplicate the link injects) joins the event queue and its id is
    /// returned; on failure the loss is recorded in the statistics.
    pub(crate) fn send(
        &mut self,
        from: NodeId,
        to: NodeId,
        class: MessageClass,
    ) -> Result<u64, SendError> {
        self.stats.class_mut(class).sent += 1;
        self.stats.peer_mut(from).sent += 1;
        let fail = if self.offline.contains(&from) {
            Some(SendError::SenderOffline(from))
        } else if self.offline.contains(&to) {
            Some(SendError::ReceiverOffline(to))
        } else if !self.can_reach(from, to) {
            Some(SendError::Partitioned)
        } else {
            let link = self.link_for(from, to);
            if link.sample_drop(&mut self.rng) {
                Some(SendError::Lost)
            } else {
                None
            }
        };
        if let Some(err) = fail {
            self.stats.class_mut(class).dropped += 1;
            self.stats.peer_mut(from).dropped += 1;
            return Err(err);
        }

        let link = self.link_for(from, to);
        let id = self.schedule(from, to, class, &link, false);
        if link.sample_duplicate(&mut self.rng) {
            self.stats.class_mut(class).duplicated += 1;
            self.schedule(from, to, class, &link, true);
        }
        Ok(id)
    }

    fn schedule(
        &mut self,
        from: NodeId,
        to: NodeId,
        class: MessageClass,
        link: &LinkModel,
        duplicate: bool,
    ) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        let latency = link.sample_latency_us(&mut self.rng);
        let naive_arrival = self.clock.now_us().saturating_add(latency);
        // FIFO per directed link: never overtake an earlier message.
        let floor = self.link_floor.get(&(from, to)).copied().unwrap_or(0);
        let arrival_us = naive_arrival.max(floor);
        self.link_floor.insert((from, to), arrival_us);
        let message = Message { id, from, to, class, sent_at_us: self.clock.now_us(), duplicate };
        self.queue.push(Reverse(Scheduled { arrival_us, seq: id, message }));
        id
    }

    /// Delivers the next in-flight message, advancing the clock to its
    /// arrival. Messages whose destination churned offline after the send
    /// are dropped (recorded, clock still advances). Returns `None` when
    /// the queue is idle.
    pub(crate) fn step(&mut self) -> Option<Delivery> {
        while let Some(Reverse(event)) = self.queue.pop() {
            self.clock.advance_to(event.arrival_us);
            if self.offline.contains(&event.message.to) {
                self.stats.class_mut(event.message.class).dropped += 1;
                continue;
            }
            self.stats.class_mut(event.message.class).delivered += 1;
            self.stats.peer_mut(event.message.to).received += 1;
            if !event.message.duplicate {
                let elapsed = event.arrival_us - event.message.sent_at_us;
                self.stats.class_mut(event.message.class).latency.record(elapsed);
            }
            return Some(Delivery { message: event.message, at_us: event.arrival_us });
        }
        None
    }

    /// Read access to the accumulated statistics.
    pub(crate) fn stats(&self) -> &TransportStats {
        &self.stats
    }

    /// Mutable access to the statistics (for callers layering their own
    /// accounting, e.g. retry loops marking `retried`/`timed_out`).
    pub(crate) fn stats_mut(&mut self) -> &mut TransportStats {
        &mut self.stats
    }

    /// Exclusive access to the simulator's RNG (all transport randomness
    /// flows through it, keeping runs reproducible).
    pub(crate) fn rng_mut(&mut self) -> &mut StdRng {
        &mut self.rng
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::Latency;

    fn fixed(us: u64) -> LinkModel {
        LinkModel { latency: Latency::Fixed(us), ..LinkModel::ideal() }
    }

    #[test]
    fn deliveries_come_out_in_time_order() {
        let mut sim = NetSim::new(1, LinkModel::ideal());
        sim.set_link_symmetric(NodeId(0), NodeId(1), fixed(500));
        sim.set_link_symmetric(NodeId(0), NodeId(2), fixed(100));
        sim.set_link_symmetric(NodeId(0), NodeId(3), fixed(300));
        sim.send(NodeId(0), NodeId(1), MessageClass::Control).unwrap();
        sim.send(NodeId(0), NodeId(2), MessageClass::Control).unwrap();
        sim.send(NodeId(0), NodeId(3), MessageClass::Control).unwrap();
        let order: Vec<u64> = std::iter::from_fn(|| sim.step()).map(|d| d.message.to.0).collect();
        assert_eq!(order, vec![2, 3, 1], "nearest destination first");
        assert_eq!(sim.now_us(), 500, "clock ends at the last arrival");
    }

    #[test]
    fn clock_is_monotonic_across_steps() {
        let mut sim = NetSim::new(2, LinkModel::lan());
        for i in 0..20 {
            sim.send(NodeId(0), NodeId(i % 5 + 1), MessageClass::Control).unwrap();
        }
        let mut last = 0;
        while let Some(d) = sim.step() {
            assert!(d.at_us >= last);
            last = d.at_us;
        }
    }

    #[test]
    fn same_link_is_fifo_even_with_jittery_latency() {
        // High jitter would let later sends sample shorter latencies; the
        // per-link floor must keep arrival order equal to send order.
        let mut sim = NetSim::new(3, LinkModel::ideal());
        sim.set_link_symmetric(
            NodeId(7),
            NodeId(8),
            LinkModel {
                latency: Latency::Uniform { lo_us: 10, hi_us: 10_000 },
                ..LinkModel::ideal()
            },
        );
        let ids: Vec<u64> = (0..50)
            .map(|_| sim.send(NodeId(7), NodeId(8), MessageClass::Control).unwrap())
            .collect();
        let delivered: Vec<u64> = std::iter::from_fn(|| sim.step()).map(|d| d.message.id).collect();
        assert_eq!(delivered, ids, "FIFO per link");
    }

    #[test]
    fn ties_break_by_send_order() {
        let mut sim = NetSim::new(4, fixed(100));
        let a = sim.send(NodeId(0), NodeId(1), MessageClass::Control).unwrap();
        let b = sim.send(NodeId(2), NodeId(3), MessageClass::Control).unwrap();
        let order: Vec<u64> = std::iter::from_fn(|| sim.step()).map(|d| d.message.id).collect();
        assert_eq!(order, vec![a, b]);
    }

    #[test]
    fn partition_blocks_both_directions_until_heal() {
        let mut sim = NetSim::new(5, LinkModel::ideal());
        sim.partition([NodeId(0), NodeId(1)]);
        assert_eq!(
            sim.send(NodeId(0), NodeId(2), MessageClass::Control),
            Err(SendError::Partitioned)
        );
        assert_eq!(
            sim.send(NodeId(2), NodeId(1), MessageClass::Control),
            Err(SendError::Partitioned)
        );
        // Intra-island traffic still flows, both sides.
        assert!(sim.send(NodeId(0), NodeId(1), MessageClass::Control).is_ok());
        assert!(sim.send(NodeId(2), NodeId(3), MessageClass::Control).is_ok());
        sim.heal();
        assert!(sim.send(NodeId(0), NodeId(2), MessageClass::Control).is_ok());
        assert!(sim.send(NodeId(2), NodeId(1), MessageClass::Control).is_ok());
    }

    #[test]
    fn churned_out_node_cannot_send_or_receive() {
        let mut sim = NetSim::new(6, LinkModel::ideal());
        sim.set_online(NodeId(9), false);
        assert_eq!(
            sim.send(NodeId(9), NodeId(1), MessageClass::Control),
            Err(SendError::SenderOffline(NodeId(9)))
        );
        assert_eq!(
            sim.send(NodeId(1), NodeId(9), MessageClass::Control),
            Err(SendError::ReceiverOffline(NodeId(9)))
        );
        sim.set_online(NodeId(9), true);
        assert!(sim.send(NodeId(1), NodeId(9), MessageClass::Control).is_ok());
    }

    #[test]
    fn churn_mid_flight_drops_at_arrival() {
        let mut sim = NetSim::new(7, fixed(1_000));
        sim.send(NodeId(0), NodeId(1), MessageClass::Control).unwrap();
        sim.set_online(NodeId(1), false);
        assert!(sim.step().is_none(), "message lost to churn");
        assert_eq!(sim.now_us(), 1_000, "clock still advanced");
        assert_eq!(sim.stats().class(MessageClass::Control).dropped, 1);
    }

    #[test]
    fn full_loss_drops_everything() {
        let mut sim = NetSim::new(8, LinkModel::ideal().with_drop_prob(1.0));
        for _ in 0..10 {
            assert_eq!(
                sim.send(NodeId(0), NodeId(1), MessageClass::DhtLookup),
                Err(SendError::Lost)
            );
        }
        let stats = sim.stats().class(MessageClass::DhtLookup);
        assert_eq!(stats.sent, 10);
        assert_eq!(stats.dropped, 10);
        assert_eq!(stats.delivered, 0);
    }

    #[test]
    fn duplication_delivers_twice_but_counts_once_in_latency() {
        let mut sim = NetSim::new(9, LinkModel { duplicate_prob: 1.0, ..fixed(50) });
        sim.send(NodeId(0), NodeId(1), MessageClass::DfsBlock).unwrap();
        let deliveries: Vec<Delivery> = std::iter::from_fn(|| sim.step()).collect();
        assert_eq!(deliveries.len(), 2);
        assert!(deliveries.iter().any(|d| d.message.duplicate));
        let stats = sim.stats().class(MessageClass::DfsBlock);
        assert_eq!(stats.delivered, 2);
        assert_eq!(stats.duplicated, 1);
        assert_eq!(stats.latency.count, 1, "duplicates don't skew latency");
    }

    #[test]
    fn identical_seeds_identical_histories() {
        let run = |seed: u64| -> Vec<(u64, u64)> {
            let mut sim = NetSim::new(seed, LinkModel::lan().with_drop_prob(0.2));
            for i in 0..100u64 {
                let _ = sim.send(NodeId(i % 7), NodeId((i + 1) % 7), MessageClass::DhtLookup);
            }
            std::iter::from_fn(|| sim.step()).map(|d| (d.message.id, d.at_us)).collect()
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42), run(43), "different seed, different history");
    }
}

//! A deterministic simulated network transport with fault injection.
//!
//! The paper's PoL architecture is a P2P overlay — a hypercube DHT keyed
//! by location codes plus an IPFS-like file store — but the sibling crates
//! model those layers as zero-latency in-memory calls. This crate supplies
//! the missing instrument: a simulated message transport with a virtual
//! clock and fault models, so the overlay's behaviour under loss, churn
//! and partitions can be measured instead of assumed.
//!
//! * [`transport::Transport`] — the seam the DHT and DFS layers call
//!   through: [`transport::DirectTransport`] preserves the historical
//!   zero-latency behaviour bit-for-bit, while [`transport::SimTransport`]
//!   simulates every hop over one fixed LAN link (200–500 µs one way plus
//!   0–50 µs jitter) and one retry schedule (a 250 ms timeout,
//!   [`transport::MAX_ATTEMPTS`] attempts, backoff from 50 ms doubling,
//!   up to 25 % jitter); only the drop probability is chosen per
//!   transport. Each `deliver` is one synchronous exchange: an attempt is
//!   lost to churn, a partition or the link (the sender waits out the
//!   timeout, backs off and retries) or arrives after a sampled latency,
//!   all in virtual microseconds drawn from one seeded RNG, so every run
//!   is reproducible from its seed.
//! * [`stats::TransportStats`] — the transport's counters and its latency
//!   histogram (p50/p95/p99).
//!
//! # Examples
//!
//! ```
//! use pol_net::transport::{SimTransport, Transport};
//! use pol_net::NodeId;
//!
//! let net = SimTransport::new(7, 0.05);
//! let latency = net.deliver(NodeId(0), NodeId(1))?;
//! assert!(latency > 0);
//! # Ok::<(), pol_net::transport::TransportError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod stats;
pub mod transport;

pub use stats::TransportStats;

/// Identifier of a simulated network endpoint.
///
/// The DHT maps hypercube keys to `NodeId(key.index())`; the DFS maps
/// `PeerId(n)` to `NodeId(n)`. The spaces only meet when a caller chooses
/// to share one transport between layers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u64);

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "node-{}", self.0)
    }
}

//! A deterministic simulated network transport with fault injection.
//!
//! The paper's PoL architecture is a P2P overlay — a hypercube DHT keyed
//! by location codes plus an IPFS-like file store — but the sibling crates
//! model those layers as zero-latency in-memory calls. This crate supplies
//! the missing instrument: a simulated message transport with a virtual
//! clock and fault models, so the overlay's behaviour under loss, churn
//! and partitions can be measured instead of assumed.
//!
//! * [`link::LinkModel`] — the latency distribution (fixed, uniform),
//!   jitter and drop probability every link shares.
//! * [`retry::RetryPolicy`] — timeout + exponential backoff with
//!   deterministic seeded jitter.
//! * [`stats::TransportStats`] — per-message-class counters with latency
//!   histograms (p50/p95/p99).
//! * [`transport::Transport`] — the seam the DHT and DFS layers call
//!   through: [`transport::DirectTransport`] preserves the historical
//!   zero-latency behaviour bit-for-bit, while [`transport::SimTransport`]
//!   simulates every hop. Each `deliver` is one synchronous exchange: an
//!   attempt is lost to churn, a partition or the link (the sender waits
//!   out the timeout, backs off and retries) or arrives after a sampled
//!   latency, all in virtual microseconds drawn from one seeded RNG, so
//!   every run is reproducible from its seed.
//!
//! # Examples
//!
//! ```
//! use pol_net::link::LinkModel;
//! use pol_net::retry::RetryPolicy;
//! use pol_net::transport::{SimTransport, Transport};
//! use pol_net::{MessageClass, NodeId};
//!
//! let net = SimTransport::builder(7)
//!     .link(LinkModel::lan().with_drop_prob(0.05))
//!     .retry(RetryPolicy::default())
//!     .build();
//! let latency = net.deliver(NodeId(0), NodeId(1), MessageClass::DhtLookup)?;
//! assert!(latency > 0);
//! # Ok::<(), pol_net::transport::TransportError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod link;
pub mod retry;
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

/// The protocol role of a message, used to key transport statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum MessageClass {
    /// One hop of a DHT lookup.
    DhtLookup,
    /// One hop of a DHT store/registration.
    DhtStore,
    /// A DFS block request.
    DfsRequest,
    /// A DFS block response.
    DfsBlock,
    /// Anything else (control traffic, tests).
    Control,
}

impl MessageClass {
    /// Stable lowercase name, used in CSV output.
    pub(crate) fn as_str(&self) -> &'static str {
        match self {
            MessageClass::DhtLookup => "dht_lookup",
            MessageClass::DhtStore => "dht_store",
            MessageClass::DfsRequest => "dfs_request",
            MessageClass::DfsBlock => "dfs_block",
            MessageClass::Control => "control",
        }
    }
}

impl std::fmt::Display for MessageClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

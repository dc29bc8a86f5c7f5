//! A distributed hash table with hypercube topology, keyed by Open Location
//! Codes.
//!
//! The paper stores *verified* location reports off-chain in a DHT whose
//! 2^r logical nodes form an r-dimensional hypercube (after Joung et al.):
//! node IDs are r-bit strings, neighbours differ in exactly one bit, and
//! lookups route greedily by Hamming distance, guaranteeing delivery within
//! r hops. Each node is responsible for the location keys that hash to its
//! ID (via the [`pol_geo::rbit`] dual encoding) and stores, per OLC, the
//! smart-contract id deployed for that area plus the CIDs of verified
//! reports ("garbage-in": only verifiers insert content).
//!
//! # Examples
//!
//! ```
//! use pol_hypercube::Hypercube;
//! use pol_geo::{olc, Coordinates};
//!
//! let dht = Hypercube::new(6);
//! let code = olc::encode(Coordinates::new(44.4949, 11.3426)?, 10)?;
//! assert!(dht.find_contract(&code)?.is_none());
//! dht.register_contract(&code, "app:7")?;
//! assert_eq!(dht.find_contract(&code)?.as_deref(), Some("app:7"));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub(crate) mod content;
pub(crate) mod network;
pub mod query;
pub mod routing;

pub use content::LocationRecord;
pub use network::{Hypercube, NetworkStats, HOP_BUCKETS};
pub use routing::RoutingError;

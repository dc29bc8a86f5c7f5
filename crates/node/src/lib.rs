//! `pol-node` — the long-lived proof-of-location node service.
//!
//! Where `pol-chainsim` models a chain and `pol-bench` measures closed
//! scenarios end-to-end, this crate runs the chain *as a service*: a
//! continuous run loop on the block cadence, an ingestion front door
//! with bounded admission and nonce-gap parking, `--key value`
//! configuration over built-in defaults and a periodic metrics surface.
//! The `pol-node` binary wires these together; the benchmark's
//! `report-storm` and `area-hotspot` workloads drive the same
//! [`NodeService`] under an open arrival schedule.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub(crate) mod arrivals;
pub(crate) mod config;
pub(crate) mod mempool;
pub(crate) mod metrics;
pub(crate) mod service;

pub use arrivals::PoissonArrivals;
pub use config::{ConfigError, NodeConfig};
pub use mempool::{Admission, AdmissionError, RejectionCounts};
pub use metrics::{LatencySummary, MetricsSnapshot};
pub use service::{DrainReport, DropReason, NodeService, TxTerminal};

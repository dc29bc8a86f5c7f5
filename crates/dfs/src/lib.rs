//! An IPFS-like distributed file store.
//!
//! The paper stores report payloads (title, description, images) on IPFS
//! and keeps only the resulting CIDs on-chain and in the hypercube. This
//! crate reproduces the semantics the architecture depends on:
//!
//! * content addressing — a [`Cid`] is derived from the SHA-256 of the
//!   content (CIDv1, raw codec, base32), so data cannot be swapped without
//!   changing its identifier;
//! * a provider record per block — content is served while at least one
//!   peer hosts it, and *disappears from the network* when the last host
//!   unpins and garbage-collects it (the IPFS incentive problem the paper
//!   calls out in §1.5).
//!
//! # Examples
//!
//! ```
//! use pol_dfs::DfsNetwork;
//!
//! let dfs = DfsNetwork::new();
//! let peer = dfs.create_peer();
//! let cid = dfs.add(peer, b"oily spots on the river".to_vec())?;
//! assert_eq!(dfs.get(&cid)?, b"oily spots on the river");
//! # Ok::<(), pol_dfs::DfsError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub(crate) mod cid;
pub(crate) mod store;

pub use cid::Cid;
pub use store::{DfsNetwork, PeerId};

/// Errors raised by the distributed file store.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DfsError {
    /// No provider currently hosts the content.
    NotFound(String),
    /// The referenced peer does not exist.
    UnknownPeer(u64),
    /// A CID string failed to parse or its digest check failed.
    BadCid(String),
    /// Providers exist for the content but none answered before the
    /// transport's retry policy was exhausted — distinct from
    /// [`DfsError::NotFound`]'s "nobody hosts it".
    Unreachable {
        /// The content being fetched.
        cid: String,
        /// Distinct providers that were tried and timed out.
        providers_tried: u32,
    },
}

impl std::fmt::Display for DfsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DfsError::NotFound(cid) => write!(f, "content {cid} has no providers"),
            DfsError::UnknownPeer(id) => write!(f, "unknown peer {id}"),
            DfsError::BadCid(s) => write!(f, "malformed cid {s:?}"),
            DfsError::Unreachable { cid, providers_tried } => {
                write!(f, "content {cid}: all {providers_tried} providers unreachable")
            }
        }
    }
}

impl std::error::Error for DfsError {}

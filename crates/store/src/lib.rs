//! `pol-store` — pluggable persistent state backends with Merkleized
//! commitments and crash-restart recovery.
//!
//! The chain simulator's `WorldState` journals every committed mutation
//! onto a [`StateBackend`]: an untyped, byte-oriented key/value store
//! with batch-atomic commits, a block-boundary flush hook and an
//! *authenticated root* — the commitment `state_digest()` publishes per
//! block. Three implementations ship:
//!
//! * [`MemoryBackend`] — the historical in-memory map, extracted behind
//!   the trait and kept as the default. Its root is recomputed from
//!   scratch on demand.
//! * [`WalBackend`] — an append-only write-ahead log with periodic
//!   snapshots. Every commit is one length-prefixed, checksummed record;
//!   [`WalBackend::open`] replays snapshot + log and tolerates a torn
//!   tail (a crash mid-write loses at most the interrupted commit,
//!   never corrupts the prefix).
//! * [`TrieBackend`] — a copy-on-write binary Merkle trie over
//!   `sha256(key)` paths whose leaves hold the only copy of the entries.
//!   A commit only records its batch; [`StateBackend::flush_block`]
//!   settles the block's writes — the last write to each key, applied
//!   subtree by subtree across the host's cores, each value and node they
//!   dirtied hashed once — and the root and proofs read the memoised
//!   hashes. Read mid-block, the root, proofs and entries settle a copy
//!   and leave the pending writes to the flush. Every key yields an inclusion proof (or an exclusion proof when
//!   absent) checkable by the standalone [`verify_proof`] function with
//!   nothing but the root.
//!
//! All three backends produce the **same root for the same contents**:
//! the root is defined as the canonical Merkle-trie commitment over the
//! current entry set, which the trie keeps up to date node by node and
//! the other two recompute via `trie::scratch_root`. That is what lets the
//! differential CI gate assert byte-identical `state_digest()` values
//! across backends and across sequential/parallel execution.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub(crate) mod memory;
pub(crate) mod trie;
pub(crate) mod wal;

pub use memory::MemoryBackend;
pub use trie::{verify_proof, MerkleProof, ProofClaim, ProofError, TrieBackend, EMPTY_ROOT};
pub use wal::WalBackend;

/// One mutation of a commit batch: `Some` writes the value, `None`
/// deletes the key.
pub type BatchEntry = (Vec<u8>, Option<Vec<u8>>);

/// Errors surfaced by the storage layer.
#[derive(Debug)]
pub enum StoreError {
    /// An underlying I/O operation failed.
    Io(std::io::Error),
    /// A persisted artifact failed validation (bad magic, checksum or
    /// framing) beyond what torn-tail recovery can absorb.
    Corrupt(String),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "storage i/o error: {e}"),
            StoreError::Corrupt(msg) => write!(f, "corrupt storage artifact: {msg}"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> StoreError {
        StoreError::Io(e)
    }
}

/// A persistent (or persistable) key/value state store with batch-atomic
/// commits and an authenticated root commitment.
///
/// Keys and values are opaque byte strings; the typed layer
/// (`pol-ledger::state::codec`) owns the canonical encoding. The
/// contract every implementation must honour (pinned by the shared
/// conformance suite):
///
/// * [`StateBackend::commit`] applies a batch atomically — after a
///   crash, either the whole batch is visible or none of it is;
/// * [`StateBackend::root`] is a pure function of the current entry
///   set — equal contents give equal roots on *every* backend;
/// * [`StateBackend::flush_block`] marks a block boundary: the WAL's
///   durability and snapshot policy, the trie's settle of the block's
///   writes (structure and hashes); a no-op for the memory backend. It never changes
///   what [`StateBackend::root`] or [`StateBackend::prove`] return.
pub trait StateBackend: Send + Sync {
    /// A short static name ("memory", "wal", "trie") for reports.
    fn name(&self) -> &'static str;

    /// Applies one batch of puts/deletes atomically.
    ///
    /// # Errors
    ///
    /// I/O failure on persistent backends.
    fn commit(&mut self, batch: &[BatchEntry]) -> Result<(), StoreError>;

    /// The authenticated commitment over the current contents: the
    /// canonical binary-Merkle-trie root over `sha256(key)` paths (see
    /// `trie::scratch_root`). Empty store ⇒ [`EMPTY_ROOT`].
    fn root(&self) -> [u8; 32];

    /// Marks a block boundary at `height` (snapshot/durability hook; the
    /// trie applies and hashes the block's writes here).
    ///
    /// # Errors
    ///
    /// I/O failure on persistent backends.
    fn flush_block(&mut self, height: u64) -> Result<(), StoreError> {
        let _ = height;
        Ok(())
    }

    /// A snapshot of every entry, sorted by key (restore, conformance
    /// and explorer paths — not a hot-path API).
    fn entries(&self) -> Vec<(Vec<u8>, Vec<u8>)>;

    /// An inclusion/exclusion proof for `key` against [`StateBackend::root`],
    /// where the backend supports proving (the Merkle trie does; the
    /// others return `None`).
    fn prove(&self, key: &[u8]) -> Option<MerkleProof> {
        let _ = key;
        None
    }
}

//! Consensus substrates for the simulated chains.
//!
//! Two families, mirroring §1.4 of the paper:
//!
//! * [`pos`] — slot-based proof of stake as on post-merge Ethereum: one
//!   proposer per 12-second slot, a sampled attestation committee, and
//!   probabilistic finality after a configurable number of confirmations
//!   (Polygon runs the same machinery with faster slots);
//! * [`ppos`] — Algorand's *pure* proof of stake: every account privately
//!   evaluates a VRF on the round seed (cryptographic sortition), the
//!   lowest-output selected account leads the round, a sampled committee
//!   certifies it, and blocks are final immediately — the property behind
//!   the flat, low-variance latencies in the paper's Table 5.1–5.4.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod pos;
pub mod ppos;
pub(crate) mod stake;

pub use stake::{StakeRegistry, Validator};

/// Errors raised by consensus operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConsensusError {
    /// The registry holds no validators.
    EmptyRegistry,
    /// Committee certification did not reach the required threshold.
    NotCertified {
        /// Weight that voted for the block.
        voted: u64,
        /// Weight required.
        required: u64,
    },
}

impl std::fmt::Display for ConsensusError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConsensusError::EmptyRegistry => write!(f, "no validators registered"),
            ConsensusError::NotCertified { voted, required } => {
                write!(f, "certification failed: {voted} of required {required} weight")
            }
        }
    }
}

impl std::error::Error for ConsensusError {}

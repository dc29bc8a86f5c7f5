//! Validator stake for the simulated chains.
//!
//! A chain holds one [`StakeRegistry`] and picks each block's proposer
//! from it with a stake-weighted draw ([`StakeRegistry::by_stake_point`])
//! over a hash chain. Every network does the same: the latency and fee
//! shapes of the paper's Tables 5.1–5.4 come from block cadence, jitter
//! and missed slots, never from who proposes a block.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub(crate) mod stake;

pub use stake::{StakeRegistry, Validator};

//! Discrete-event simulation of the blockchain networks the paper
//! evaluates on: Ethereum Ropsten and Goerli, Polygon Mumbai, and the
//! Algorand testnet.
//!
//! Each [`Chain`] owns a virtual clock, a mempool, a fee market, account
//! balances and a virtual machine ([`pol_evm`] or [`pol_avm`]). Blocks are
//! produced on the chain's cadence (12-second proof-of-stake slots on the
//! Ethereum networks, ~2-second blocks on Polygon, ~3.6-second instantly
//! final rounds on Algorand); inclusion competes with a stochastic
//! background-congestion process through the EIP-1559 fee market, which is
//! what produces the latency/fee distributions of the paper's Chapter 5.
//!
//! [`presets`] holds the calibrated per-network configurations,
//! `executor` the sequential and optimistic-parallel block executors,
//! `facts` the registry of compile-time access and gas facts they
//! consult, and [`explorer`] a block-explorer view of a contract's
//! history.
//!
//! # Examples
//!
//! ```
//! use pol_chainsim::presets;
//! use pol_ledger::Transaction;
//!
//! let mut chain = presets::algorand_testnet().build(7);
//! let (alice, alice_addr) = chain.create_funded_account(10_000_000);
//! let (_, bob_addr) = chain.create_funded_account(0);
//! let tx = Transaction::transfer(alice_addr, bob_addr, 5_000, 0).signed(&alice);
//! let id = chain.submit(tx)?;
//! let receipt = chain.await_tx(id)?;
//! assert!(receipt.status.is_success());
//! assert!(receipt.latency_ms() > 0);
//! # Ok::<(), pol_ledger::LedgerError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub(crate) mod chain;
pub(crate) mod congestion;
pub(crate) mod executor;
pub mod explorer;
pub(crate) mod facts;
pub mod feemarket;
pub mod presets;

pub use chain::{Chain, ChainConfig, VmKind};
pub use congestion::CongestionModel;
pub use executor::{ExecStats, ExecutionMode};
pub use facts::{AccessQuery, CallQuery, GasQuery};
pub use presets::ChainPreset;

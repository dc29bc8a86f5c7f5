//! Common ledger types shared by the virtual machines, consensus layers and
//! the chain simulator: addresses, currency units, transactions, blocks,
//! accounts and receipts.
//!
//! The types are deliberately chain-neutral — the same [`Transaction`] flows
//! through the EVM-style chains (Ropsten, Goerli, Mumbai) and the AVM-style
//! chain (Algorand); the per-chain semantics (gas market vs. flat fees) are
//! applied by `pol-chainsim`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod access;
pub mod address;
pub(crate) mod block;
pub mod codec;
pub(crate) mod receipt;
pub mod state;
pub(crate) mod tx;
pub mod units;

pub use access::{AccessClaims, KeyClaim};
pub use address::{Address, ContractId};
pub use block::{Block, BlockHash};
pub use receipt::{Receipt, TxStatus};
pub use state::{Overlay, ReadSet, StateBlob, StateKey, StateValue, WorldState, WriteSet};
pub use tx::{Transaction, TxId, TxKind, VerifiedTx};
pub use units::{Amount, Currency};

/// Errors surfaced by ledger-level operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LedgerError {
    /// The sender's balance cannot cover value plus fees.
    InsufficientBalance {
        /// Address whose balance was insufficient.
        address: Address,
        /// What the transaction needed (base units).
        needed: u128,
        /// What the account held (base units).
        available: u128,
    },
    /// A transaction nonce did not match the account's next nonce.
    BadNonce {
        /// Expected account nonce.
        expected: u64,
        /// Nonce carried by the transaction.
        got: u64,
    },
    /// The referenced account does not exist.
    UnknownAccount(Address),
    /// The referenced contract or application does not exist.
    UnknownContract(ContractId),
    /// Transaction was rejected by the fee market (fee cap below base fee).
    FeeTooLow {
        /// The sender's maximum fee per gas.
        max_fee: u128,
        /// The prevailing base fee per gas.
        base_fee: u128,
    },
    /// A transaction signature was missing or invalid.
    BadSignature,
    /// The transaction's worst-case fee arithmetic (`value + gas_limit ×
    /// max_fee_per_gas`) does not fit in a `u128`. Such a transaction can
    /// never pay what it promises: wrapping arithmetic would let it slip
    /// past the balance precheck, so it is rejected outright.
    FeeOverflow {
        /// Value the transaction moves (base units).
        value: u128,
        /// Gas the transaction may buy.
        gas_limit: u64,
        /// Fee cap per gas (base units).
        max_fee_per_gas: u128,
    },
    /// A certified contract call provisioned less gas than its static
    /// worst-case certificate proves it may need. The call is provably
    /// over budget — admission rejects it before execution instead of
    /// letting it burn its whole limit and revert out-of-gas.
    GasOverBudget {
        /// The proven worst-case gas of this exact call.
        certified: u64,
        /// What the transaction provisioned.
        gas_limit: u64,
    },
    /// Execution failed inside a virtual machine.
    ExecutionFailed(String),
}

impl std::fmt::Display for LedgerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LedgerError::InsufficientBalance { address, needed, available } => write!(
                f,
                "insufficient balance for {address}: needed {needed}, available {available}"
            ),
            LedgerError::BadNonce { expected, got } => {
                write!(f, "bad nonce: expected {expected}, got {got}")
            }
            LedgerError::UnknownAccount(a) => write!(f, "unknown account {a}"),
            LedgerError::UnknownContract(c) => write!(f, "unknown contract {c}"),
            LedgerError::FeeTooLow { max_fee, base_fee } => {
                write!(f, "fee cap {max_fee} below base fee {base_fee}")
            }
            LedgerError::BadSignature => write!(f, "missing or invalid transaction signature"),
            LedgerError::FeeOverflow { value, gas_limit, max_fee_per_gas } => write!(
                f,
                "fee arithmetic overflow: value {value} + {gas_limit} gas × {max_fee_per_gas} \
                 per gas exceeds u128"
            ),
            LedgerError::GasOverBudget { certified, gas_limit } => write!(
                f,
                "gas limit {gas_limit} below the static worst-case certificate {certified}: \
                 the call is provably over budget"
            ),
            LedgerError::ExecutionFailed(msg) => write!(f, "execution failed: {msg}"),
        }
    }
}

impl std::error::Error for LedgerError {}

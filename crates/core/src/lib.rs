//! The Proof-of-Location system — the paper's primary contribution.
//!
//! Users prove presence in an area **without trusted infrastructure**:
//! nearby *witnesses* (reached over short-range radio) authenticate the
//! prover's DID, then sign a proof binding the prover's identity,
//! location area (Open Location Code), a replay-protection nonce and the
//! content identifier of the report being filed. The prover submits the
//! proof to the area's smart contract (deployed on demand through a
//! factory and indexed in the hypercube DHT); a permissioned *verifier*
//! — designated by the Certification Authority — validates entries,
//! rewards honest provers from the contract balance, and feeds the
//! verified report CIDs into the hypercube ("garbage-in").
//!
//! * [`proof`] — location-proof construction and verification;
//! * [`actors`] — Prover, Witness, Certification Authority (the verifier
//!   is a wallet of the [`system`] holding the authority's witness list);
//! * `proximity` — the simulated Bluetooth neighbourhood;
//! * `replay` — nonce tracking against replayed proofs;
//! * [`contract`] — the PoL contract written in the blockchain-agnostic
//!   language, plus a typed client for it;
//! * [`factory`] — the factory pattern for per-area contract instances;
//! * [`system`] — the fully wired deployment over a simulated chain,
//!   hypercube, DFS and DID registry.
//!
//! # Examples
//!
//! ```
//! use pol_core::system::{PolSystem, SystemConfig};
//! use pol_chainsim::presets;
//!
//! let config = SystemConfig { max_users: 1, ..SystemConfig::default() };
//! let mut system = PolSystem::new(presets::devnet_algo().build(7), config);
//! let prover = system.register_prover(44.4949, 11.3426)?;
//! let witness = system.register_witness(44.4950, 11.3427)?;
//! let outcome = system.submit_report(prover, witness, b"waste piles by the river".to_vec())?;
//! let verified = system.run_verifier(&outcome.area)?;
//! assert_eq!(verified, 1);
//! # Ok::<(), pol_core::PolError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod actors;
pub mod contract;
pub mod factory;
pub mod proof;
pub(crate) mod proximity;
pub(crate) mod replay;
pub mod system;

pub use proof::ProofRequest;
pub use system::{PolSystem, SystemConfig};

/// Errors raised by the proof-of-location protocol.
#[derive(Debug)]
pub enum PolError {
    /// Location encoding failed.
    Geo(pol_geo::GeoError),
    /// Identity operations failed (resolution, authentication).
    Did(pol_did::DidError),
    /// The prover is out of the witness's radio range.
    OutOfRange {
        /// Measured distance, metres.
        distance_m: f64,
        /// Radio range, metres.
        range_m: f64,
    },
    /// The nonce was already consumed (replay attack).
    ReplayDetected(u64),
    /// A witness signature did not verify or the witness is unknown.
    BadProof(String),
    /// Chain interaction failed.
    Ledger(pol_ledger::LedgerError),
    /// Compiler pipeline failure.
    Lang(pol_lang::LangError),
    /// Distributed storage failure.
    Dfs(pol_dfs::DfsError),
    /// Hypercube routing failure.
    Routing(pol_hypercube::RoutingError),
    /// Caller is not authorised for the operation.
    NotAuthorized(String),
    /// Referenced actor or area does not exist.
    Unknown(String),
}

impl std::fmt::Display for PolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PolError::Geo(e) => write!(f, "geo: {e}"),
            PolError::Did(e) => write!(f, "did: {e}"),
            PolError::OutOfRange { distance_m, range_m } => {
                write!(f, "prover {distance_m:.1} m away exceeds radio range {range_m:.1} m")
            }
            PolError::ReplayDetected(nonce) => write!(f, "nonce {nonce} already consumed"),
            PolError::BadProof(msg) => write!(f, "bad proof: {msg}"),
            PolError::Ledger(e) => write!(f, "ledger: {e}"),
            PolError::Lang(e) => write!(f, "lang: {e}"),
            PolError::Dfs(e) => write!(f, "dfs: {e}"),
            PolError::Routing(e) => write!(f, "routing: {e}"),
            PolError::NotAuthorized(msg) => write!(f, "not authorized: {msg}"),
            PolError::Unknown(msg) => write!(f, "unknown: {msg}"),
        }
    }
}

impl std::error::Error for PolError {}

impl From<pol_geo::GeoError> for PolError {
    fn from(e: pol_geo::GeoError) -> Self {
        PolError::Geo(e)
    }
}
impl From<pol_did::DidError> for PolError {
    fn from(e: pol_did::DidError) -> Self {
        PolError::Did(e)
    }
}
impl From<pol_ledger::LedgerError> for PolError {
    fn from(e: pol_ledger::LedgerError) -> Self {
        PolError::Ledger(e)
    }
}
impl From<pol_lang::LangError> for PolError {
    fn from(e: pol_lang::LangError) -> Self {
        PolError::Lang(e)
    }
}
impl From<pol_dfs::DfsError> for PolError {
    fn from(e: pol_dfs::DfsError) -> Self {
        PolError::Dfs(e)
    }
}
impl From<pol_hypercube::RoutingError> for PolError {
    fn from(e: pol_hypercube::RoutingError) -> Self {
        PolError::Routing(e)
    }
}

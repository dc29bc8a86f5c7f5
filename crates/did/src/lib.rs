//! Self-sovereign identity: Decentralized IDentifiers for the
//! proof-of-location actors.
//!
//! Per §1.6 of the paper, users are identified by DIDs rather than
//! accounts at an identity provider. This crate implements the `did:pol`
//! method:
//!
//! * a [`Did`] is derived from the controller's Ed25519 public key,
//! * a [`DidDocument`] publishes the verification (Ed25519) and key
//!   agreement (X25519) keys,
//! * documents live in a [`registry::DidRegistry`] — the *verifiable data
//!   registry* (on a real deployment, a blockchain) used for resolution,
//! * [`auth`] implements the challenge–response protocol of Fig. 2.4 by
//!   which a witness authenticates a prover before issuing a location
//!   proof, and
//! * `vc` implements the Verifiable Credentials the Certification
//!   Authority issues to witnesses and verifiers (the paper's future-work
//!   extension, included here).
//!
//! # Examples
//!
//! ```
//! use pol_did::Identity;
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let mut rng = StdRng::seed_from_u64(7);
//! let alice = Identity::generate(&mut rng);
//! assert!(alice.did.as_str().starts_with("did:pol:"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod auth;
pub(crate) mod did;
pub(crate) mod document;
pub(crate) mod identity;
pub(crate) mod registry;
pub(crate) mod vc;

pub use did::Did;
pub use document::DidDocument;
pub use identity::Identity;
pub use registry::DidRegistry;
pub use vc::{Credential, Role};

/// Errors raised by identity operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DidError {
    /// A string is not a valid `did:pol` identifier.
    BadDid(String),
    /// Resolution failed: the DID is not registered.
    NotRegistered(String),
    /// A registration or credential signature did not verify.
    BadSignature,
    /// The DID does not match the document's keys.
    KeyMismatch,
    /// A challenge response did not match the expected nonce.
    ChallengeFailed,
}

impl std::fmt::Display for DidError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DidError::BadDid(s) => write!(f, "malformed did {s:?}"),
            DidError::NotRegistered(s) => write!(f, "did {s} is not registered"),
            DidError::BadSignature => write!(f, "signature verification failed"),
            DidError::KeyMismatch => write!(f, "document keys do not match the did"),
            DidError::ChallengeFailed => write!(f, "challenge-response authentication failed"),
        }
    }
}

impl std::error::Error for DidError {}

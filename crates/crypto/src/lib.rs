//! From-scratch cryptographic substrate for the proof-of-location system.
//!
//! The paper's implementation leans on wallet tooling and the Reach runtime
//! for all cryptography; this crate provides the equivalent primitives with
//! no external dependencies (other than [`rand`] for key generation):
//!
//! * [`sha256`](mod@sha256) / [`sha512`](mod@sha512) — FIPS 180-4 hash
//!   functions,
//! * `keccak` — Keccak-256 as used by the EVM and Ethereum addresses,
//! * [`ed25519`] — RFC 8032 signatures over edwards25519,
//! * [`x25519`] — RFC 7748 Diffie–Hellman, used by [`sealed`] boxes for the
//!   DID challenge–response authentication.
//!
//! # Examples
//!
//! ```
//! use pol_crypto::ed25519::Keypair;
//!
//! let kp = Keypair::from_seed(&[7u8; 32]);
//! let sig = kp.sign(b"location proof");
//! assert!(kp.public.verify(b"location proof", &sig));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod base32;
pub mod bigint;
pub mod ed25519;
pub mod field25519;
pub mod hex;
pub(crate) mod keccak;
pub mod scalar;
pub mod sealed;
pub mod sha256;
pub mod sha512;
pub mod x25519;

pub use keccak::keccak256;
pub use sha256::sha256;
pub(crate) use sha512::sha512;

/// Error raised by cryptographic operations on malformed inputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CryptoError {
    /// A byte string could not be decoded as a curve point.
    InvalidPoint,
    /// A scalar was not canonical (not reduced modulo the group order).
    NonCanonicalScalar,
    /// A signature failed verification.
    BadSignature,
    /// Encrypted payload failed authentication or was truncated.
    BadCiphertext,
    /// A hex or base32 string contained invalid characters or length.
    BadEncoding,
}

impl std::fmt::Display for CryptoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CryptoError::InvalidPoint => write!(f, "invalid curve point encoding"),
            CryptoError::NonCanonicalScalar => write!(f, "non-canonical scalar"),
            CryptoError::BadSignature => write!(f, "signature verification failed"),
            CryptoError::BadCiphertext => write!(f, "ciphertext failed authentication"),
            CryptoError::BadEncoding => write!(f, "invalid string encoding"),
        }
    }
}

impl std::error::Error for CryptoError {}

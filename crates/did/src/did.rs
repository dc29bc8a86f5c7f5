//! The `did:pol` identifier.

use crate::DidError;
use pol_crypto::ed25519::PublicKey;
use pol_crypto::{base32, sha256};
use serde::{Deserialize, Serialize};

const METHOD_PREFIX: &str = "did:pol:";
/// Length of the method-specific identifier (base32 of a 20-byte digest).
const ID_LEN: usize = 32;

/// A decentralized identifier under the `did:pol` method.
///
/// The method-specific identifier is the base32 encoding of the first 20
/// bytes of `SHA-256(public key)`, binding the DID to its controlling
/// Ed25519 key.
///
/// # Examples
///
/// ```
/// use pol_did::{Did, Identity};
///
/// let did = Identity::from_seed(1).did;
/// assert_eq!(did, did.as_str().parse::<Did>()?);
/// # Ok::<(), pol_did::DidError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
#[serde(transparent)]
pub struct Did(String);

impl Did {
    /// Derives the DID controlled by an Ed25519 public key.
    pub(crate) fn from_public_key(pk: &PublicKey) -> Did {
        let digest = sha256(&pk.0);
        Did(format!("{METHOD_PREFIX}{}", base32::encode(&digest[..20])))
    }

    /// The full identifier string.
    pub fn as_str(&self) -> &str {
        &self.0
    }

    /// Whether `pk` is the key this DID was derived from.
    pub fn is_controlled_by(&self, pk: &PublicKey) -> bool {
        Did::from_public_key(pk) == *self
    }

    /// A compact numeric digest of the DID, used where the smart contract
    /// needs a `UInt` map key (§4.1.1 of the paper notes Algorand maps are
    /// integer-keyed; the contract stores this digest instead of the full
    /// string).
    pub fn numeric_id(&self) -> u64 {
        let digest = sha256(self.0.as_bytes());
        let mut b = [0u8; 8];
        b.copy_from_slice(&digest[..8]);
        u64::from_le_bytes(b)
    }
}

impl std::fmt::Display for Did {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::str::FromStr for Did {
    type Err = DidError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let bad = || DidError::BadDid(s.to_string());
        let id = s.strip_prefix(METHOD_PREFIX).ok_or_else(bad)?;
        if id.len() != ID_LEN || base32::decode(id).is_err() {
            return Err(bad());
        }
        Ok(Did(s.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pol_crypto::ed25519::Keypair;

    #[test]
    fn derivation_binds_key() {
        let kp = Keypair::from_seed(&[1u8; 32]);
        let other = Keypair::from_seed(&[2u8; 32]);
        let did = Did::from_public_key(&kp.public);
        assert!(did.is_controlled_by(&kp.public));
        assert!(!did.is_controlled_by(&other.public));
    }

    #[test]
    fn parse_round_trip() {
        let did = Did::from_public_key(&Keypair::from_seed(&[3u8; 32]).public);
        let parsed: Did = did.as_str().parse().unwrap();
        assert_eq!(parsed, did);
    }

    #[test]
    fn rejects_wrong_method_and_length() {
        assert!("did:btcr:xyz".parse::<Did>().is_err());
        assert!("did:pol:short".parse::<Did>().is_err());
        assert!("did:pol:UPPERCASEUPPERCASEUPPERCASEUPPE!".parse::<Did>().is_err());
        assert!("".parse::<Did>().is_err());
    }

    #[test]
    fn numeric_ids_differ() {
        let a = Did::from_public_key(&Keypair::from_seed(&[4u8; 32]).public);
        let b = Did::from_public_key(&Keypair::from_seed(&[5u8; 32]).public);
        assert_ne!(a.numeric_id(), b.numeric_id());
        assert_eq!(a.numeric_id(), a.numeric_id());
    }
}

//! DID documents: the public keys and metadata a DID resolves to.

use crate::did::Did;
use crate::DidError;
use pol_crypto::ed25519::PublicKey;
use pol_crypto::hex;
use serde::{Deserialize, Serialize};

/// A DID document (Fig. 1.8 of the paper): the resolvable description of
/// a DID, carrying the verification and key-agreement keys.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DidDocument {
    /// The DID the document describes.
    pub id: Did,
    /// Controller of the document (usually `id` itself).
    pub controller: Did,
    /// Ed25519 verification key, hex-encoded.
    pub verification_key: String,
    /// X25519 key-agreement key, hex-encoded, used by the challenge
    /// protocol.
    pub agreement_key: String,
    /// Creation timestamp (simulation milliseconds).
    pub created_ms: u64,
}

impl DidDocument {
    /// Builds a self-controlled document for the given keys.
    pub(crate) fn new(
        verification_key: &PublicKey,
        agreement_key: &[u8; 32],
        created_ms: u64,
    ) -> DidDocument {
        let id = Did::from_public_key(verification_key);
        DidDocument {
            controller: id.clone(),
            id,
            verification_key: hex::encode(&verification_key.0),
            agreement_key: hex::encode(agreement_key),
            created_ms,
        }
    }

    /// Decodes the Ed25519 verification key.
    ///
    /// # Errors
    ///
    /// Returns [`DidError::KeyMismatch`] if the stored key is malformed or
    /// does not derive the document's DID.
    pub(crate) fn verification_public_key(&self) -> Result<PublicKey, DidError> {
        let pk = self.signing_public_key()?;
        if !self.id.is_controlled_by(&pk) {
            return Err(DidError::KeyMismatch);
        }
        Ok(pk)
    }

    /// Decodes the Ed25519 verification key without checking that it
    /// derives the DID.
    ///
    /// # Errors
    ///
    /// Returns [`DidError::KeyMismatch`] on malformed hex.
    pub(crate) fn signing_public_key(&self) -> Result<PublicKey, DidError> {
        PublicKey::from_hex(&self.verification_key).map_err(|_| DidError::KeyMismatch)
    }

    /// Decodes the X25519 agreement key.
    ///
    /// # Errors
    ///
    /// Returns [`DidError::KeyMismatch`] if the stored key is malformed.
    pub(crate) fn agreement_public_key(&self) -> Result<[u8; 32], DidError> {
        hex::decode_array(&self.agreement_key).map_err(|_| DidError::KeyMismatch)
    }

    /// The canonical byte form signed during registration.
    pub(crate) fn canonical_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(self.id.as_str().as_bytes());
        out.push(0);
        out.extend_from_slice(self.controller.as_str().as_bytes());
        out.push(0);
        out.extend_from_slice(self.verification_key.as_bytes());
        out.push(0);
        out.extend_from_slice(self.agreement_key.as_bytes());
        out.push(0);
        out.extend_from_slice(&self.created_ms.to_le_bytes());
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pol_crypto::ed25519::Keypair;
    use pol_crypto::x25519::XKeypair;

    #[test]
    fn keys_round_trip() {
        let kp = Keypair::from_seed(&[1u8; 32]);
        let xkp = XKeypair::from_seed(&[2u8; 32]);
        let doc = DidDocument::new(&kp.public, &xkp.public, 0);
        assert_eq!(doc.verification_public_key().unwrap(), kp.public);
        assert_eq!(doc.agreement_public_key().unwrap(), xkp.public);
    }

    #[test]
    fn mismatched_key_rejected() {
        let kp = Keypair::from_seed(&[1u8; 32]);
        let other = Keypair::from_seed(&[9u8; 32]);
        let xkp = XKeypair::from_seed(&[2u8; 32]);
        let mut doc = DidDocument::new(&kp.public, &xkp.public, 0);
        doc.verification_key = pol_crypto::hex::encode(&other.public.0);
        assert_eq!(doc.verification_public_key(), Err(DidError::KeyMismatch));
    }

    #[test]
    fn canonical_bytes_distinguish_documents() {
        let kp = Keypair::from_seed(&[1u8; 32]);
        let xkp = XKeypair::from_seed(&[2u8; 32]);
        let d1 = DidDocument::new(&kp.public, &xkp.public, 0);
        let d2 = DidDocument::new(&kp.public, &xkp.public, 1);
        assert_ne!(d1.canonical_bytes(), d2.canonical_bytes());
    }
}

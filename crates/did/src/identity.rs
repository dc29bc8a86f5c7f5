//! A complete user identity: signing keys, agreement keys and DID.

use crate::did::Did;
use crate::document::DidDocument;
use pol_crypto::ed25519::Keypair;
use pol_crypto::x25519::XKeypair;

/// Everything a proof-of-location actor controls: an Ed25519 keypair (for
/// signatures and the DID), an X25519 keypair (for challenge decryption),
/// and the derived DID.
#[derive(Debug, Clone)]
pub struct Identity {
    /// Signing keys.
    pub signing: Keypair,
    /// Key-agreement keys.
    pub agreement: XKeypair,
    /// The derived decentralized identifier.
    pub did: Did,
}

impl Identity {
    /// Generates a fresh identity.
    pub fn generate<R: rand::RngCore>(rng: &mut R) -> Identity {
        let signing = Keypair::generate(rng);
        let agreement = XKeypair::generate(rng);
        let did = Did::from_public_key(&signing.public);
        Identity { signing, agreement, did }
    }

    /// Derives an identity deterministically from a seed (tests and
    /// reproducible simulations).
    pub fn from_seed(seed: u64) -> Identity {
        let mut ed_seed = [0u8; 32];
        ed_seed[..8].copy_from_slice(&seed.to_le_bytes());
        ed_seed[8] = 0xed;
        let mut x_seed = [0u8; 32];
        x_seed[..8].copy_from_slice(&seed.to_le_bytes());
        x_seed[8] = 0x25;
        let signing = Keypair::from_seed(&ed_seed);
        let agreement = XKeypair::from_seed(&x_seed);
        let did = Did::from_public_key(&signing.public);
        Identity { signing, agreement, did }
    }

    /// Produces this identity's DID document.
    pub(crate) fn document(&self, created_ms: u64) -> DidDocument {
        DidDocument::new(&self.signing.public, &self.agreement.public, created_ms)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_identities_are_deterministic() {
        let a = Identity::from_seed(7);
        let b = Identity::from_seed(7);
        assert_eq!(a.did, b.did);
        assert_eq!(a.signing.public, b.signing.public);
    }

    #[test]
    fn distinct_seeds_distinct_dids() {
        assert_ne!(Identity::from_seed(1).did, Identity::from_seed(2).did);
    }

    #[test]
    fn document_matches_identity() {
        let id = Identity::from_seed(3);
        let doc = id.document(0);
        assert_eq!(doc.id, id.did);
        assert_eq!(doc.verification_public_key().unwrap(), id.signing.public);
    }
}

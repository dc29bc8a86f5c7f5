//! DID challenge–response authentication (Fig. 2.4 of the paper).
//!
//! Protocol: the witness resolves the prover's DID, encrypts a random
//! nonce to the document's key-agreement key, and sends the ciphertext as
//! a challenge. The prover decrypts it with the matching secret key and
//! returns the nonce, proving control of the DID.

use crate::document::DidDocument;
use crate::identity::Identity;
use crate::DidError;
use pol_crypto::sealed;

/// Size of the random challenge nonce.
pub(crate) const NONCE_LEN: usize = 32;

/// A challenge issued by an authenticator (witness).
#[derive(Debug, Clone)]
pub struct Challenge {
    /// The sealed nonce, decryptable only by the DID controller.
    pub ciphertext: Vec<u8>,
    expected: [u8; NONCE_LEN],
}

/// The response a prover returns.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChallengeResponse {
    /// The decrypted nonce.
    pub nonce: Vec<u8>,
}

impl Challenge {
    /// Creates a challenge for the controller of `document`.
    ///
    /// # Errors
    ///
    /// Returns [`DidError::KeyMismatch`] if the document's agreement key is
    /// malformed or a low-order point, to which no challenge can be sealed.
    pub fn issue<R: rand::RngCore>(
        rng: &mut R,
        document: &DidDocument,
    ) -> Result<Challenge, DidError> {
        let agreement_pk = document.agreement_public_key()?;
        let mut nonce = [0u8; NONCE_LEN];
        rng.fill_bytes(&mut nonce);
        let ciphertext =
            sealed::seal(rng, &agreement_pk, &nonce).map_err(|_| DidError::KeyMismatch)?;
        Ok(Challenge { ciphertext, expected: nonce })
    }

    /// Checks a response against the expected nonce.
    pub fn verify(&self, response: &ChallengeResponse) -> bool {
        response.nonce.as_slice() == self.expected
    }
}

/// Produces the response to a challenge using the prover's identity.
///
/// # Errors
///
/// Returns [`DidError::ChallengeFailed`] when the ciphertext cannot be
/// decrypted with this identity's agreement key — i.e. the challenge was
/// not addressed to this DID.
pub fn respond(
    identity: &Identity,
    challenge_ciphertext: &[u8],
) -> Result<ChallengeResponse, DidError> {
    let nonce = sealed::open(&identity.agreement, challenge_ciphertext)
        .map_err(|_| DidError::ChallengeFailed)?;
    Ok(ChallengeResponse { nonce })
}

/// End-to-end helper: authenticate `claimed` (who must control `document`)
/// by a full challenge round-trip, as the witness does before computing a
/// location proof.
///
/// # Errors
///
/// Returns [`DidError::ChallengeFailed`] when the responder cannot prove
/// control.
pub fn authenticate<R: rand::RngCore>(
    rng: &mut R,
    document: &DidDocument,
    responder: &Identity,
) -> Result<(), DidError> {
    let challenge = Challenge::issue(rng, document)?;
    let response = respond(responder, &challenge.ciphertext)?;
    if challenge.verify(&response) {
        Ok(())
    } else {
        Err(DidError::ChallengeFailed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pol_crypto::x25519::XKeypair;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn legitimate_controller_authenticates() {
        let mut rng = StdRng::seed_from_u64(1);
        let alice = Identity::generate(&mut rng);
        let doc = alice.document(0);
        assert!(authenticate(&mut rng, &doc, &alice).is_ok());
    }

    #[test]
    fn impostor_fails() {
        let mut rng = StdRng::seed_from_u64(2);
        let alice = Identity::generate(&mut rng);
        let mallory = Identity::generate(&mut rng);
        let doc = alice.document(0);
        assert_eq!(authenticate(&mut rng, &doc, &mallory), Err(DidError::ChallengeFailed));
    }

    /// A document whose agreement key is a low-order point (u = 0 or 1)
    /// would key its challenge by a zero shared secret, which a responder
    /// with the zero secret also computes: no challenge is issued to it.
    #[test]
    fn low_order_agreement_key_authenticates_nobody() {
        let mut rng = StdRng::seed_from_u64(5);
        let alice = Identity::generate(&mut rng);
        for u in [0u8, 1] {
            let mut low_order = [0u8; 32];
            low_order[0] = u;
            let mut doc = alice.document(0);
            doc.agreement_key = pol_crypto::hex::encode(&low_order);
            let mut anyone = Identity::generate(&mut rng);
            anyone.agreement = XKeypair { secret: [0u8; 32], public: low_order };
            assert_eq!(authenticate(&mut rng, &doc, &anyone), Err(DidError::KeyMismatch));
        }
    }

    #[test]
    fn tampered_response_rejected() {
        let mut rng = StdRng::seed_from_u64(3);
        let alice = Identity::generate(&mut rng);
        let doc = alice.document(0);
        let challenge = Challenge::issue(&mut rng, &doc).unwrap();
        let mut response = respond(&alice, &challenge.ciphertext).unwrap();
        response.nonce[0] ^= 1;
        assert!(!challenge.verify(&response));
    }

    #[test]
    fn challenges_are_unique() {
        let mut rng = StdRng::seed_from_u64(4);
        let alice = Identity::generate(&mut rng);
        let doc = alice.document(0);
        let c1 = Challenge::issue(&mut rng, &doc).unwrap();
        let c2 = Challenge::issue(&mut rng, &doc).unwrap();
        assert_ne!(c1.ciphertext, c2.ciphertext);
    }
}

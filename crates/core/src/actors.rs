//! The system's actors: Prover, Witness and the Certification Authority
//! (§2.1). The verifier is the authority's witness list in the hands of a
//! wallet; `PolSystem` holds that wallet.

use crate::proof::{LocationProof, ProofRequest};
use crate::proximity::RadioChannel;
use crate::replay::NonceRegistry;
use crate::PolError;
use pol_crypto::ed25519::{Keypair, PublicKey};
use pol_did::{auth, Credential, DidRegistry, Identity, Role};
use pol_geo::Coordinates;
use pol_ledger::Address;

/// A mobile user who wants their location attested.
#[derive(Debug)]
pub struct Prover {
    /// The prover's full identity (signing keys, agreement keys, DID).
    pub identity: Identity,
    /// Current position (what the GPS reports).
    pub position: Coordinates,
    /// The wallet address rewards are sent to.
    pub wallet: Address,
}

impl Prover {
    /// Creates a prover at a position.
    pub fn new(identity: Identity, position: Coordinates) -> Prover {
        let wallet = Address::from_public_key(&identity.signing.public);
        Prover { identity, position, wallet }
    }

    /// The prover's wallet keypair (shared with the identity).
    pub(crate) fn wallet_keys(&self) -> &Keypair {
        &self.identity.signing
    }
}

/// A nearby user empowered to attest others' presence.
#[derive(Debug)]
pub struct Witness {
    /// The witness identity.
    pub identity: Identity,
    /// The witness's own position.
    pub position: Coordinates,
    /// Its credential from the Certification Authority.
    pub credential: Credential,
    nonces: NonceRegistry,
    radio: RadioChannel,
}

impl Witness {
    /// Creates a credentialed witness.
    pub fn new(identity: Identity, position: Coordinates, credential: Credential) -> Witness {
        Witness {
            identity,
            position,
            credential,
            nonces: NonceRegistry::new(),
            radio: RadioChannel::default(),
        }
    }

    /// Step 1 of the protocol: a prover asks for a nonce to embed in its
    /// request (replay protection, §2.3.1.1).
    pub fn issue_nonce(&mut self) -> u64 {
        self.nonces.issue()
    }

    /// Steps 2–4: the witness authenticates the prover's DID by
    /// challenge–response against the resolved DID document (Fig. 2.4),
    /// checks radio-range proximity, consumes the nonce, and issues the
    /// signed location proof.
    ///
    /// `responder` stands in for the prover's device answering the
    /// challenge.
    ///
    /// # Errors
    ///
    /// * [`PolError::OutOfRange`] — the prover is not physically nearby;
    /// * [`PolError::ReplayDetected`] — the request nonce was reused;
    /// * [`PolError::Did`] — resolution or challenge failure;
    /// * [`PolError::BadProof`] — the request's area is not where the
    ///   witness is.
    pub fn attest<R: rand::RngCore>(
        &mut self,
        rng: &mut R,
        registry: &DidRegistry,
        request: ProofRequest,
        responder: &Identity,
        prover_position: &Coordinates,
    ) -> Result<LocationProof, PolError> {
        // Physical proximity via the radio channel.
        self.radio.require_in_range(&self.position, prover_position)?;
        // The claimed area must be where the witness actually is: a
        // 10-digit OLC cell (~14 m) always lies within radio range of an
        // honest witness, so a spoofed code from another city fails.
        let area_center = request.olc.decode().center();
        if self.position.distance_m(&area_center) > self.radio.range_m {
            return Err(PolError::BadProof(format!(
                "witness at {} is outside the claimed area {}",
                self.position, request.olc
            )));
        }
        // DID authentication (challenge–response).
        let document = registry.resolve(&request.did)?;
        auth::authenticate(rng, &document, responder)?;
        // One-shot nonce.
        self.nonces.consume(request.nonce)?;
        Ok(LocationProof::issue(&self.identity.signing, request))
    }
}

/// The Certification Authority: whitelists witnesses and designates
/// verifiers, issuing Verifiable Credentials for both.
#[derive(Debug)]
pub struct CertificationAuthority {
    /// The authority's identity.
    pub identity: Identity,
    witnesses: Vec<PublicKey>,
}

impl CertificationAuthority {
    /// Creates an authority.
    pub fn new(identity: Identity) -> CertificationAuthority {
        CertificationAuthority { identity, witnesses: Vec::new() }
    }

    /// Enrols a witness: records its public key and issues a credential.
    pub fn enroll_witness(&mut self, subject: &Identity, now_ms: u64) -> Credential {
        self.witnesses.push(subject.signing.public);
        Credential::issue(&self.identity.signing, subject.did.clone(), Role::Witness, now_ms)
    }

    /// The current witness public-key list, which the authority
    /// distributes to the verifiers it designates (§2.3.1.2).
    pub(crate) fn witness_list(&self) -> &[PublicKey] {
        &self.witnesses
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proof::ProofRequest;
    use pol_dfs::Cid;
    use pol_geo::olc;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup() -> (CertificationAuthority, DidRegistry, Prover, Witness, StdRng) {
        let rng = StdRng::seed_from_u64(42);
        let mut ca = CertificationAuthority::new(Identity::from_seed(1000));
        let registry = DidRegistry::new();
        let prover_pos = Coordinates::new(44.4949, 11.3426).unwrap();
        let prover = Prover::new(Identity::from_seed(1), prover_pos);
        registry.register_identity(&prover.identity, 0).unwrap();
        let witness_id = Identity::from_seed(2);
        let credential = ca.enroll_witness(&witness_id, 0);
        let witness_pos = prover_pos.offset_m(5.0, 5.0).unwrap();
        let witness = Witness::new(witness_id, witness_pos, credential);
        (ca, registry, prover, witness, rng)
    }

    fn request(prover: &Prover, nonce: u64) -> ProofRequest {
        ProofRequest {
            did: prover.identity.did.clone(),
            olc: olc::encode(prover.position, 10).unwrap(),
            nonce,
            cid: Cid::for_content(b"report"),
            wallet: prover.wallet,
        }
    }

    #[test]
    fn full_attestation_flow() {
        let (ca, registry, prover, mut witness, mut rng) = setup();
        let nonce = witness.issue_nonce();
        let req = request(&prover, nonce);
        let proof =
            witness.attest(&mut rng, &registry, req, &prover.identity, &prover.position).unwrap();
        assert!(proof.verify(ca.witness_list()).is_ok());
    }

    #[test]
    fn distant_prover_rejected() {
        let (_, registry, prover, mut witness, mut rng) = setup();
        let nonce = witness.issue_nonce();
        let req = request(&prover, nonce);
        let far_away = Coordinates::new(45.4642, 9.19).unwrap();
        let err =
            witness.attest(&mut rng, &registry, req, &prover.identity, &far_away).unwrap_err();
        assert!(matches!(err, PolError::OutOfRange { .. }));
    }

    #[test]
    fn impostor_fails_did_auth() {
        let (_, registry, prover, mut witness, mut rng) = setup();
        let nonce = witness.issue_nonce();
        let req = request(&prover, nonce);
        let impostor = Identity::from_seed(66);
        let err =
            witness.attest(&mut rng, &registry, req, &impostor, &prover.position).unwrap_err();
        assert!(matches!(err, PolError::Did(_)), "{err:?}");
    }

    #[test]
    fn replayed_nonce_rejected() {
        let (_, registry, prover, mut witness, mut rng) = setup();
        let nonce = witness.issue_nonce();
        let req = request(&prover, nonce);
        witness
            .attest(&mut rng, &registry, req.clone(), &prover.identity, &prover.position)
            .unwrap();
        let err = witness
            .attest(&mut rng, &registry, req, &prover.identity, &prover.position)
            .unwrap_err();
        assert!(matches!(err, PolError::ReplayDetected(_)));
    }

    #[test]
    fn spoofed_area_rejected() {
        // The prover claims a Milan OLC while the witness sits in Bologna.
        let (_, registry, prover, mut witness, mut rng) = setup();
        let nonce = witness.issue_nonce();
        let mut req = request(&prover, nonce);
        req.olc = olc::encode(Coordinates::new(45.4642, 9.19).unwrap(), 10).unwrap();
        let err = witness
            .attest(&mut rng, &registry, req, &prover.identity, &prover.position)
            .unwrap_err();
        assert!(matches!(err, PolError::BadProof(_)), "{err:?}");
    }
}

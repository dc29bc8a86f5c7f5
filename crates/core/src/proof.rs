//! Location proofs: request, construction, wire entry, verification.
//!
//! A proof binds four things (§2.3.1.1): the prover's **DID**, the
//! **area** (Open Location Code — hashing the location prevents the
//! prover from replaying the proof into another area's contract), a
//! **nonce** chosen by the witness (replay protection, §2.3.1.1), and
//! the **CID** of the report data (so the report cannot be swapped after
//! attestation). The witness signs the digest with its private key;
//! verification (§2.3.1.2, formulas 2.1–2.2) recomputes the digest and
//! checks the signature against the Certification Authority's witness
//! list.

use pol_crypto::ed25519::{Keypair, PublicKey, Signature};
use pol_crypto::keccak256;
use pol_dfs::Cid;
use pol_did::Did;
use pol_geo::OlcCode;
use pol_ledger::Address;

use crate::PolError;

/// The request a prover broadcasts to nearby witnesses over Bluetooth.
#[derive(Debug, Clone)]
pub struct ProofRequest {
    /// The prover's decentralized identifier.
    pub did: Did,
    /// The area the prover claims to be in.
    pub olc: OlcCode,
    /// Witness-supplied nonce (the prover echoes it back).
    pub nonce: u64,
    /// CID of the already-uploaded report data.
    pub cid: Cid,
    /// The prover's wallet, for the reward.
    pub wallet: Address,
}

impl ProofRequest {
    /// The digest the witness signs:
    /// `keccak(did ‖ olc ‖ nonce ‖ cid ‖ wallet)`.
    pub(crate) fn digest(&self) -> [u8; 32] {
        let mut preimage = Vec::with_capacity(128);
        preimage.extend_from_slice(self.did.as_str().as_bytes());
        preimage.push(0);
        preimage.extend_from_slice(self.olc.as_str().as_bytes());
        preimage.push(0);
        preimage.extend_from_slice(&self.nonce.to_be_bytes());
        preimage.extend_from_slice(self.cid.as_str().as_bytes());
        preimage.push(0);
        preimage.extend_from_slice(&self.wallet.0);
        keccak256(&preimage)
    }
}

/// A signed location proof, as returned by a witness.
#[derive(Debug, Clone)]
pub struct LocationProof {
    /// The request the proof covers.
    pub request: ProofRequest,
    /// `keccak` digest of the request (what is committed on-chain).
    pub proof_hash: [u8; 32],
    /// The issuing witness's public key.
    pub witness: PublicKey,
    /// The witness signature over `proof_hash`.
    pub signature: Signature,
}

impl LocationProof {
    /// Signs a request with the witness keypair (formula 2.1).
    pub fn issue(witness: &Keypair, request: ProofRequest) -> LocationProof {
        let proof_hash = request.digest();
        let signature = witness.sign(&proof_hash);
        LocationProof { request, proof_hash, witness: witness.public, signature }
    }

    /// Verifies the proof against a witness whitelist (formula 2.2 plus
    /// the §2.3.1.2 checks).
    ///
    /// # Errors
    ///
    /// [`PolError::BadProof`] when the digest does not match the request,
    /// the witness is not whitelisted, the witness is the prover
    /// themselves (self-attestation), or the signature fails.
    pub fn verify(&self, whitelisted_witnesses: &[PublicKey]) -> Result<(), PolError> {
        if self.request.digest() != self.proof_hash {
            return Err(PolError::BadProof("digest does not match request".into()));
        }
        if !whitelisted_witnesses.contains(&self.witness) {
            return Err(PolError::BadProof("witness not on the authority's list".into()));
        }
        if self.request.did.is_controlled_by(&self.witness) {
            return Err(PolError::BadProof("prover cannot witness their own proof".into()));
        }
        if !self.witness.verify(&self.proof_hash, &self.signature) {
            return Err(PolError::BadProof("witness signature invalid".into()));
        }
        Ok(())
    }
}

/// Capacity reserved for one map entry's raw payload in the contract.
pub const ENTRY_CAPACITY: usize = 224;
/// CID strings are padded to this width inside an entry.
pub(crate) const CID_WIDTH: usize = ENTRY_CAPACITY - 156;

/// The concatenated record a prover submits to the contract (§2.4): the
/// proof hash, the witness signature and key, the reward wallet, the
/// nonce and the CID.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SubmittedEntry {
    /// Digest of the proof request.
    pub proof_hash: [u8; 32],
    /// Witness signature over the digest.
    pub signature: Signature,
    /// The issuing witness's public key (checked against the authority's
    /// list by the verifier).
    pub witness: PublicKey,
    /// Reward wallet.
    pub wallet: Address,
    /// Witness nonce.
    pub nonce: u64,
    /// Report CID.
    pub cid: Cid,
}

impl SubmittedEntry {
    /// Builds the entry from a proof.
    pub fn from_proof(proof: &LocationProof) -> SubmittedEntry {
        SubmittedEntry {
            proof_hash: proof.proof_hash,
            signature: proof.signature,
            witness: proof.witness,
            wallet: proof.request.wallet,
            nonce: proof.request.nonce,
            cid: proof.request.cid.clone(),
        }
    }

    /// Serializes to the fixed [`ENTRY_CAPACITY`]-byte wire form.
    ///
    /// # Panics
    ///
    /// Panics if the CID exceeds `CID_WIDTH` characters (impossible for
    /// CIDv1/SHA-256 identifiers).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(ENTRY_CAPACITY);
        out.extend_from_slice(&self.proof_hash);
        out.extend_from_slice(&self.signature.to_bytes());
        out.extend_from_slice(&self.witness.0);
        out.extend_from_slice(&self.wallet.0);
        out.extend_from_slice(&self.nonce.to_be_bytes());
        let cid = self.cid.as_str().as_bytes();
        assert!(cid.len() <= CID_WIDTH, "cid too long");
        out.extend_from_slice(cid);
        out.resize(ENTRY_CAPACITY, 0);
        out
    }

    /// Parses the wire form.
    ///
    /// # Errors
    ///
    /// [`PolError::BadProof`] on truncated or malformed entries.
    pub fn from_bytes(bytes: &[u8]) -> Result<SubmittedEntry, PolError> {
        if bytes.len() < 156 {
            return Err(PolError::BadProof("entry truncated".into()));
        }
        let mut proof_hash = [0u8; 32];
        proof_hash.copy_from_slice(&bytes[..32]);
        let mut sig = [0u8; 64];
        sig.copy_from_slice(&bytes[32..96]);
        let signature = Signature::from_bytes(&sig)
            .map_err(|e| PolError::BadProof(format!("signature: {e}")))?;
        let mut witness = [0u8; 32];
        witness.copy_from_slice(&bytes[96..128]);
        let mut wallet = [0u8; 20];
        wallet.copy_from_slice(&bytes[128..148]);
        let mut nonce_bytes = [0u8; 8];
        nonce_bytes.copy_from_slice(&bytes[148..156]);
        let cid_field = &bytes[156..];
        let cid_end = cid_field.iter().position(|&b| b == 0).unwrap_or(cid_field.len());
        let cid_str = std::str::from_utf8(&cid_field[..cid_end])
            .map_err(|_| PolError::BadProof("cid not utf-8".into()))?;
        let cid = Cid::parse(cid_str).map_err(|e| PolError::BadProof(format!("cid: {e}")))?;
        Ok(SubmittedEntry {
            proof_hash,
            signature,
            witness: PublicKey(witness),
            wallet: Address(wallet),
            nonce: u64::from_be_bytes(nonce_bytes),
            cid,
        })
    }

    /// Re-derives and checks the proof digest from its context, then
    /// verifies the witness signature against the whitelist — the full
    /// §2.3.1.2 verification, from on-chain data plus the DID directory.
    ///
    /// # Errors
    ///
    /// [`PolError::BadProof`] on any mismatch.
    pub fn verify_against(
        &self,
        did: &Did,
        olc: &OlcCode,
        whitelisted_witnesses: &[PublicKey],
    ) -> Result<(), PolError> {
        let request = ProofRequest {
            did: did.clone(),
            olc: olc.clone(),
            nonce: self.nonce,
            cid: self.cid.clone(),
            wallet: self.wallet,
        };
        let proof = LocationProof {
            request,
            proof_hash: self.proof_hash,
            witness: self.witness,
            signature: self.signature,
        };
        proof.verify(whitelisted_witnesses)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pol_did::Identity;
    use pol_geo::{olc, Coordinates};

    fn request(prover: &Identity, nonce: u64) -> ProofRequest {
        let olc = olc::encode(Coordinates::new(44.4949, 11.3426).unwrap(), 10).unwrap();
        ProofRequest {
            did: prover.did.clone(),
            olc,
            nonce,
            cid: Cid::for_content(b"report"),
            wallet: Address::from_public_key(&prover.signing.public),
        }
    }

    #[test]
    fn issue_and_verify() {
        let prover = Identity::from_seed(1);
        let witness = Identity::from_seed(2);
        let proof = LocationProof::issue(&witness.signing, request(&prover, 7));
        assert!(proof.verify(&[witness.signing.public]).is_ok());
    }

    #[test]
    fn unlisted_witness_rejected() {
        let prover = Identity::from_seed(1);
        let witness = Identity::from_seed(2);
        let other = Identity::from_seed(3);
        let proof = LocationProof::issue(&witness.signing, request(&prover, 7));
        assert!(matches!(proof.verify(&[other.signing.public]), Err(PolError::BadProof(_))));
    }

    #[test]
    fn self_attestation_rejected() {
        // A prover whose key is whitelisted as witness cannot sign their
        // own proof (§2.3.1.2: the verifier checks the prover and witness
        // keys differ).
        let prover = Identity::from_seed(4);
        let proof = LocationProof::issue(&prover.signing, request(&prover, 1));
        assert!(matches!(proof.verify(&[prover.signing.public]), Err(PolError::BadProof(_))));
    }

    #[test]
    fn tampered_request_rejected() {
        let prover = Identity::from_seed(1);
        let witness = Identity::from_seed(2);
        let mut proof = LocationProof::issue(&witness.signing, request(&prover, 7));
        proof.request.nonce = 8; // replay with a different nonce
        assert!(matches!(proof.verify(&[witness.signing.public]), Err(PolError::BadProof(_))));
    }

    #[test]
    fn digest_binds_every_field() {
        let prover = Identity::from_seed(1);
        let base = request(&prover, 7);
        let mut other = base.clone();
        other.cid = Cid::for_content(b"different report");
        assert_ne!(base.digest(), other.digest());
        let mut other = base.clone();
        other.nonce = 8;
        assert_ne!(base.digest(), other.digest());
        let mut other = base.clone();
        other.olc = olc::encode(Coordinates::new(45.4642, 9.19).unwrap(), 10).unwrap();
        assert_ne!(base.digest(), other.digest());
    }

    #[test]
    fn entry_round_trip() {
        let prover = Identity::from_seed(1);
        let witness = Identity::from_seed(2);
        let proof = LocationProof::issue(&witness.signing, request(&prover, 9));
        let entry = SubmittedEntry::from_proof(&proof);
        let bytes = entry.to_bytes();
        assert_eq!(bytes.len(), ENTRY_CAPACITY);
        assert_eq!(SubmittedEntry::from_bytes(&bytes).unwrap(), entry);
    }

    #[test]
    fn truncated_entry_rejected() {
        assert!(matches!(SubmittedEntry::from_bytes(&[0u8; 50]), Err(PolError::BadProof(_))));
    }
}

//! Anonymous public-key encryption ("sealed boxes") over X25519.
//!
//! Used by the DID challenge–response authentication: a witness encrypts a
//! random challenge to the public key found in the prover's DID document;
//! only the controller of the matching secret key can recover it.
//!
//! Construction: an ephemeral X25519 keypair is generated per message; the
//! shared secret is hashed (with both public keys) into a key from which a
//! SHA-512-based keystream and a MAC key are derived. Wire format:
//! `ephemeral_pk (32) ‖ ciphertext ‖ tag (32)`.

use crate::sha512::Sha512;
use crate::x25519::XKeypair;
use crate::CryptoError;

/// Overhead added to every plaintext: ephemeral key plus MAC tag.
pub(crate) const OVERHEAD: usize = 64;

/// Encrypts `plaintext` so only the holder of the secret key matching
/// `recipient_pk` can read it.
///
/// # Errors
///
/// Returns [`CryptoError::InvalidPoint`] when `recipient_pk` is a
/// low-order point, whose shared secret is zero whatever the ephemeral key.
pub fn seal<R: rand::RngCore>(
    rng: &mut R,
    recipient_pk: &[u8; 32],
    plaintext: &[u8],
) -> Result<Vec<u8>, CryptoError> {
    let ephemeral = XKeypair::generate(rng);
    let shared = shared_secret(&ephemeral, recipient_pk)?;
    let (enc_key, mac_key) = derive_keys(&shared, &ephemeral.public, recipient_pk);
    let mut out = Vec::with_capacity(plaintext.len() + OVERHEAD);
    out.extend_from_slice(&ephemeral.public);
    out.extend_from_slice(&xor_keystream(&enc_key, plaintext));
    let tag = mac(&mac_key, &out[32..]);
    out.extend_from_slice(&tag);
    Ok(out)
}

/// Decrypts a sealed box with the recipient keypair.
///
/// # Errors
///
/// Returns [`CryptoError::BadCiphertext`] when the message is truncated or
/// fails authentication, and [`CryptoError::InvalidPoint`] when its
/// ephemeral key is a low-order point.
pub fn open(recipient: &XKeypair, sealed: &[u8]) -> Result<Vec<u8>, CryptoError> {
    if sealed.len() < OVERHEAD {
        return Err(CryptoError::BadCiphertext);
    }
    let mut epk = [0u8; 32];
    epk.copy_from_slice(&sealed[..32]);
    let body = &sealed[32..sealed.len() - 32];
    let tag = &sealed[sealed.len() - 32..];
    let shared = shared_secret(recipient, &epk)?;
    let (enc_key, mac_key) = derive_keys(&shared, &epk, &recipient.public);
    let expect = mac(&mac_key, body);
    if !ct_eq(&expect, tag) {
        return Err(CryptoError::BadCiphertext);
    }
    Ok(xor_keystream(&enc_key, body))
}

/// The X25519 output with `peer`, refused when it is all zero (RFC 7748
/// §6.1): a low-order peer key yields zero for every secret, so nothing
/// derived from it is secret.
fn shared_secret(own: &XKeypair, peer: &[u8; 32]) -> Result<[u8; 32], CryptoError> {
    let shared = own.diffie_hellman(peer);
    if ct_eq(&shared, &[0u8; 32]) {
        return Err(CryptoError::InvalidPoint);
    }
    Ok(shared)
}

fn derive_keys(shared: &[u8; 32], epk: &[u8; 32], rpk: &[u8; 32]) -> ([u8; 32], [u8; 32]) {
    let mut h = Sha512::new();
    h.update(b"pol-sealed-box-v1");
    h.update(shared);
    h.update(epk);
    h.update(rpk);
    let digest = h.finalize();
    let mut enc = [0u8; 32];
    let mut mac = [0u8; 32];
    enc.copy_from_slice(&digest[..32]);
    mac.copy_from_slice(&digest[32..]);
    (enc, mac)
}

fn xor_keystream(key: &[u8; 32], data: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(data.len());
    for (block_idx, chunk) in data.chunks(64).enumerate() {
        let mut h = Sha512::new();
        h.update(key);
        h.update(&(block_idx as u64).to_le_bytes());
        let ks = h.finalize();
        for (i, &b) in chunk.iter().enumerate() {
            out.push(b ^ ks[i]);
        }
    }
    out
}

fn mac(key: &[u8; 32], data: &[u8]) -> [u8; 32] {
    let mut h = Sha512::new();
    h.update(b"pol-sealed-mac-v1");
    h.update(key);
    h.update(data);
    let digest = h.finalize();
    let mut out = [0u8; 32];
    out.copy_from_slice(&digest[..32]);
    out
}

fn ct_eq(a: &[u8], b: &[u8]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    let mut diff = 0u8;
    for (x, y) in a.iter().zip(b) {
        diff |= x ^ y;
    }
    diff == 0
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn round_trip() {
        let mut rng = StdRng::seed_from_u64(1);
        let recipient = XKeypair::generate(&mut rng);
        let msg = b"challenge: 0xdeadbeef";
        let boxed = seal(&mut rng, &recipient.public, msg).unwrap();
        assert_eq!(open(&recipient, &boxed).unwrap(), msg);
    }

    #[test]
    fn empty_plaintext() {
        let mut rng = StdRng::seed_from_u64(2);
        let recipient = XKeypair::generate(&mut rng);
        let boxed = seal(&mut rng, &recipient.public, b"").unwrap();
        assert_eq!(boxed.len(), OVERHEAD);
        assert_eq!(open(&recipient, &boxed).unwrap(), b"");
    }

    #[test]
    fn wrong_recipient_fails() {
        let mut rng = StdRng::seed_from_u64(3);
        let recipient = XKeypair::generate(&mut rng);
        let other = XKeypair::generate(&mut rng);
        let boxed = seal(&mut rng, &recipient.public, b"secret").unwrap();
        assert_eq!(open(&other, &boxed), Err(CryptoError::BadCiphertext));
    }

    /// u = 0 and u = 1 are low-order points: a box to either would be
    /// keyed by a zero shared secret, so neither end accepts one.
    #[test]
    fn low_order_keys_refused_at_both_ends() {
        let mut rng = StdRng::seed_from_u64(7);
        let recipient = XKeypair::generate(&mut rng);
        for u in [0u8, 1] {
            let mut low_order = [0u8; 32];
            low_order[0] = u;
            assert_eq!(seal(&mut rng, &low_order, b"nonce"), Err(CryptoError::InvalidPoint));
            let mut boxed = low_order.to_vec();
            boxed.extend_from_slice(&[0u8; 37]);
            assert_eq!(open(&recipient, &boxed), Err(CryptoError::InvalidPoint));
        }
    }

    #[test]
    fn tampering_detected() {
        let mut rng = StdRng::seed_from_u64(4);
        let recipient = XKeypair::generate(&mut rng);
        let mut boxed = seal(&mut rng, &recipient.public, b"secret value").unwrap();
        let mid = boxed.len() / 2;
        boxed[mid] ^= 0x01;
        assert_eq!(open(&recipient, &boxed), Err(CryptoError::BadCiphertext));
    }

    #[test]
    fn truncated_rejected() {
        let recipient = XKeypair::from_seed(&[5u8; 32]);
        assert_eq!(open(&recipient, &[0u8; 63]), Err(CryptoError::BadCiphertext));
    }

    #[test]
    fn large_multiblock_message() {
        let mut rng = StdRng::seed_from_u64(6);
        let recipient = XKeypair::generate(&mut rng);
        let msg: Vec<u8> = (0..1000).map(|i| (i % 256) as u8).collect();
        let boxed = seal(&mut rng, &recipient.public, &msg).unwrap();
        assert_eq!(open(&recipient, &boxed).unwrap(), msg);
    }
}

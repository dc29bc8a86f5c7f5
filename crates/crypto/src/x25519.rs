//! RFC 7748 X25519 Diffie–Hellman over Curve25519 (Montgomery form).

use crate::ed25519::Point;
use crate::field25519::Fe;

/// An X25519 keypair for key agreement.
#[derive(Clone)]
pub struct XKeypair {
    /// Clamped secret scalar.
    pub secret: [u8; 32],
    /// Public u-coordinate.
    pub public: [u8; 32],
}

impl std::fmt::Debug for XKeypair {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "XKeypair(public: {})", crate::hex::encode(&self.public))
    }
}

impl XKeypair {
    /// Derives a keypair from a 32-byte seed (the seed is clamped). The
    /// public key is X25519(secret, 9), computed as the u-coordinate of
    /// `[secret]B` on the birationally equivalent Edwards curve, whose
    /// fixed-base comb is cheaper than a ladder.
    pub fn from_seed(seed: &[u8; 32]) -> XKeypair {
        let secret = clamp(*seed);
        let public = Point::mul_base(&secret).montgomery_u();
        XKeypair { secret, public }
    }

    /// Generates a fresh keypair from the given random source.
    pub fn generate<R: rand::RngCore>(rng: &mut R) -> XKeypair {
        let mut seed = [0u8; 32];
        rng.fill_bytes(&mut seed);
        XKeypair::from_seed(&seed)
    }

    /// Computes the shared secret with a peer public key.
    pub fn diffie_hellman(&self, peer_public: &[u8; 32]) -> [u8; 32] {
        scalar_mult(&self.secret, peer_public)
    }
}

/// Clamps a scalar per RFC 7748 §5.
pub(crate) fn clamp(mut k: [u8; 32]) -> [u8; 32] {
    k[0] &= 248;
    k[31] &= 127;
    k[31] |= 64;
    k
}

/// The X25519 function: multiplies the point with u-coordinate `u` by the
/// (already clamped or raw) scalar `k` using the Montgomery ladder.
pub(crate) fn scalar_mult(k: &[u8; 32], u: &[u8; 32]) -> [u8; 32] {
    let x1 = Fe::from_bytes(u);
    let mut x2 = Fe::ONE;
    let mut z2 = Fe::ZERO;
    let mut x3 = x1;
    let mut z3 = Fe::ONE;
    let mut swap = 0u8;
    for t in (0..255).rev() {
        let k_t = (k[t / 8] >> (t % 8)) & 1;
        swap ^= k_t;
        if swap == 1 {
            core::mem::swap(&mut x2, &mut x3);
            core::mem::swap(&mut z2, &mut z3);
        }
        swap = k_t;

        let a = x2.add(&z2);
        let aa = a.square();
        let b = x2.sub(&z2);
        let bb = b.square();
        let e = aa.sub(&bb);
        let c = x3.add(&z3);
        let d = x3.sub(&z3);
        let da = d.mul(&a);
        let cb = c.mul(&b);
        x3 = da.add(&cb).square();
        z3 = x1.mul(&da.sub(&cb).square());
        x2 = aa.mul(&bb);
        z2 = e.mul(&aa.add(&e.mul_small(121665)));
    }
    if swap == 1 {
        core::mem::swap(&mut x2, &mut x3);
        core::mem::swap(&mut z2, &mut z3);
    }
    x2.mul(&z2.invert()).to_bytes()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hex;

    /// The Montgomery ladder base point u = 9.
    const BASEPOINT: [u8; 32] = {
        let mut b = [0u8; 32];
        b[0] = 9;
        b
    };

    #[test]
    fn keygen_matches_the_ladder_from_u_9() {
        for seed in [[0u8; 32], [0xff; 32], [7; 32]] {
            let kp = XKeypair::from_seed(&seed);
            assert_eq!(kp.public, scalar_mult(&kp.secret, &BASEPOINT));
        }
    }

    #[test]
    fn rfc7748_vector_1() {
        let k: [u8; 32] =
            hex::decode_array("a546e36bf0527c9d3b16154b82465edd62144c0ac1fc5a18506a2244ba449ac4")
                .unwrap();
        let u: [u8; 32] =
            hex::decode_array("e6db6867583030db3594c1a424b15f7c726624ec26b3353b10a903a6d0ab1c4c")
                .unwrap();
        assert_eq!(
            hex::encode(&scalar_mult(&clamp(k), &u)),
            "c3da55379de9c6908e94ea4df28d084f32eccf03491c71f754b4075577a28552"
        );
    }

    #[test]
    fn rfc7748_alice_bob_agreement() {
        let alice = XKeypair::from_seed(
            &hex::decode_array("77076d0a7318a57d3c16c17251b26645df4c2f87ebc0992ab177fba51db92c2a")
                .unwrap(),
        );
        let bob = XKeypair::from_seed(
            &hex::decode_array("5dab087e624a8a4b79e17f8b83800ee66f3bb1292618b6fd1c2f8b27ff88e0eb")
                .unwrap(),
        );
        assert_eq!(
            hex::encode(&alice.public),
            "8520f0098930a754748b7ddcb43ef75a0dbf3a0d26381af4eba4a98eaa9b4e6a"
        );
        assert_eq!(
            hex::encode(&bob.public),
            "de9edb7d7b7dc1b4d35b61c2ece435373f8343c85b78674dadfc7e146f882b4f"
        );
        let shared_a = alice.diffie_hellman(&bob.public);
        let shared_b = bob.diffie_hellman(&alice.public);
        assert_eq!(shared_a, shared_b);
        assert_eq!(
            hex::encode(&shared_a),
            "4a5d9d5ba4ce2de1728e3bf480350f25e07e21c947d19e3376f09b3c1e161742"
        );
    }

    #[test]
    fn agreement_is_symmetric_for_random_seeds() {
        for i in 0..4u8 {
            let a = XKeypair::from_seed(&[i + 1; 32]);
            let b = XKeypair::from_seed(&[i + 101; 32]);
            assert_eq!(a.diffie_hellman(&b.public), b.diffie_hellman(&a.public));
        }
    }
}

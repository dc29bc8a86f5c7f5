//! Arithmetic modulo the Ed25519 group order
//! ℓ = 2^252 + 27742317777372353535851937790883648493.

use crate::bigint::{self, U256};

/// The group order ℓ as little-endian `u64` limbs.
pub const L: U256 =
    [0x5812_631a_5cf5_d3ed, 0x14de_f9de_a2f7_9cd6, 0x0000_0000_0000_0000, 0x1000_0000_0000_0000];

/// Reduces a 512-bit little-endian value modulo ℓ.
pub fn reduce64(bytes: &[u8; 64]) -> [u8; 32] {
    let wide = bigint::from_le_bytes64(bytes);
    bigint::to_le_bytes32(&bigint::reduce512(&wide, &L))
}

/// Computes `(a * b + c) mod ℓ` over little-endian 32-byte scalars.
pub fn muladd(a: &[u8; 32], b: &[u8; 32], c: &[u8; 32]) -> [u8; 32] {
    let ab = bigint::mul256(&bigint::from_le_bytes32(a), &bigint::from_le_bytes32(b));
    let ab_mod = bigint::reduce512(&ab, &L);
    let c_mod = bigint::reduce512(&bigint::widen(&bigint::from_le_bytes32(c)), &L);
    let (sum, carry) = bigint::add256(&ab_mod, &c_mod);
    let mut wide = bigint::widen(&sum);
    if carry {
        wide[4] = 1;
    }
    bigint::to_le_bytes32(&bigint::reduce512(&wide, &L))
}

/// Whether a little-endian 32-byte scalar is already reduced below ℓ.
pub fn is_canonical(s: &[u8; 32]) -> bool {
    bigint::cmp256(&bigint::from_le_bytes32(s), &L) == core::cmp::Ordering::Less
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn l_reduces_to_zero() {
        let l_bytes = bigint::to_le_bytes32(&L);
        let mut wide = [0u8; 64];
        wide[..32].copy_from_slice(&l_bytes);
        assert_eq!(reduce64(&wide), [0u8; 32]);
        assert!(!is_canonical(&l_bytes));
    }

    #[test]
    fn l_minus_one_is_canonical() {
        let (lm1, _) = bigint::sub256(&L, &[1, 0, 0, 0]);
        let bytes = bigint::to_le_bytes32(&lm1);
        assert!(is_canonical(&bytes));
        let mut wide = [0u8; 64];
        wide[..32].copy_from_slice(&bytes);
        assert_eq!(reduce64(&wide), bytes);
    }

    #[test]
    fn muladd_small_values() {
        let mut a = [0u8; 32];
        let mut b = [0u8; 32];
        let mut c = [0u8; 32];
        a[0] = 3;
        b[0] = 5;
        c[0] = 7;
        let mut expect = [0u8; 32];
        expect[0] = 22;
        assert_eq!(muladd(&a, &b, &c), expect);
    }

    #[test]
    fn reduce64_matches_modular_identity() {
        // (ℓ + 5) mod ℓ == 5
        let (l5, carry) = bigint::add256(&L, &[5, 0, 0, 0]);
        assert!(!carry);
        let mut wide = [0u8; 64];
        wide[..32].copy_from_slice(&bigint::to_le_bytes32(&l5));
        let mut expect = [0u8; 32];
        expect[0] = 5;
        assert_eq!(reduce64(&wide), expect);
    }
}

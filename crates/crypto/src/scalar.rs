//! Arithmetic modulo the Ed25519 group order
//! ℓ = 2^252 + 27742317777372353535851937790883648493.
//!
//! Reduction folds instead of dividing: ℓ = 2^252 + δ with δ < 2^125, so
//! 2^252 ≡ −δ and every 21-bit limb at or above 2^252 adds a multiple of
//! −δ's six limbs twelve places lower (ref10's `sc_reduce`/`sc_muladd`).

use crate::bigint::{self, U256};

/// The group order ℓ as little-endian `u64` limbs.
pub const L: U256 =
    [0x5812_631a_5cf5_d3ed, 0x14de_f9de_a2f7_9cd6, 0x0000_0000_0000_0000, 0x1000_0000_0000_0000];

/// −δ = 2^252 − ℓ in signed radix 2^21.
const MINUS_DELTA: [i64; 6] = [666_643, 470_296, 654_183, -997_805, 136_657, -683_901];

/// Splits a little-endian integer into `N` limbs of 21 bits; the last
/// limb takes every bit above.
fn limbs<const N: usize>(bytes: &[u8]) -> [i64; N] {
    core::array::from_fn(|i| {
        let (byte, shift) = (21 * i / 8, 21 * i % 8);
        let mut word = [0u8; 8];
        let end = bytes.len().min(byte + 8);
        word[..end - byte].copy_from_slice(&bytes[byte..end]);
        let bits = u64::from_le_bytes(word) >> shift;
        (if i + 1 == N { bits } else { bits & ((1 << 21) - 1) }) as i64
    })
}

/// Moves limb `i`'s bits past 21 into limb `i + 1`, leaving it in
/// [−2^20, 2^20).
fn carry_centred(s: &mut [i64; 24], i: usize) {
    let carry = (s[i] + (1 << 20)) >> 21;
    s[i + 1] += carry;
    s[i] -= carry << 21;
}

/// Moves limb `i`'s bits past 21 into limb `i + 1`, leaving it in
/// [0, 2^21).
fn carry_down(s: &mut [i64; 24], i: usize) {
    let carry = s[i] >> 21;
    s[i + 1] += carry;
    s[i] -= carry << 21;
}

/// Replaces limb `i` ≥ 12, worth `s[i]·2^(21(i−12))·2^252`, with
/// `s[i]·2^(21(i−12))·(−δ)`.
fn fold(s: &mut [i64; 24], i: usize) {
    for (j, c) in MINUS_DELTA.iter().enumerate() {
        s[i - 12 + j] += s[i] * c;
    }
    s[i] = 0;
}

/// Reduces 24 signed radix-2^21 limbs, as `reduce64` and `muladd` hand
/// them over (within ref10's bounds), to the canonical 32-byte scalar.
fn reduce_limbs(mut s: [i64; 24]) -> [u8; 32] {
    for i in (18..24).rev() {
        fold(&mut s, i);
    }
    for i in (6..17).step_by(2).chain((7..16).step_by(2)) {
        carry_centred(&mut s, i);
    }
    for i in (12..18).rev() {
        fold(&mut s, i);
    }
    for i in (0..11).step_by(2).chain((1..12).step_by(2)) {
        carry_centred(&mut s, i);
    }
    fold(&mut s, 12);
    for i in 0..12 {
        carry_down(&mut s, i);
    }
    fold(&mut s, 12);
    for i in 0..11 {
        carry_down(&mut s, i);
    }
    // Limbs 0..=10 are now in [0, 2^21) and the value is below ℓ < 2^253.
    let mut out = [0u8; 32];
    let (mut acc, mut bits, mut pos) = (0u64, 0, 0);
    for &limb in &s[..12] {
        acc |= (limb as u64) << bits;
        bits += 21;
        while bits >= 8 {
            out[pos] = acc as u8;
            acc >>= 8;
            bits -= 8;
            pos += 1;
        }
    }
    out[pos] = acc as u8;
    out
}

/// Reduces a 512-bit little-endian value modulo ℓ.
pub fn reduce64(bytes: &[u8; 64]) -> [u8; 32] {
    reduce_limbs(limbs(bytes))
}

/// Computes `(a * b + c) mod ℓ` over little-endian 32-byte scalars.
pub fn muladd(a: &[u8; 32], b: &[u8; 32], c: &[u8; 32]) -> [u8; 32] {
    let (a, b) = (limbs::<12>(a), limbs::<12>(b));
    let mut s = [0i64; 24];
    s[..12].copy_from_slice(&limbs::<12>(c));
    for (i, ai) in a.iter().enumerate() {
        for (j, bj) in b.iter().enumerate() {
            s[i + j] += ai * bj;
        }
    }
    for i in (0..23).step_by(2).chain((1..22).step_by(2)) {
        carry_centred(&mut s, i);
    }
    reduce_limbs(s)
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

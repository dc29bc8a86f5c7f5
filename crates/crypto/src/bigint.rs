//! Minimal fixed-width big-integer helpers (256/512 bits, little-endian
//! `u64` limbs) backing the EVM's word arithmetic and the scalar
//! canonicality check.

/// 256-bit unsigned integer as four little-endian `u64` limbs.
pub type U256 = [u64; 4];
/// 512-bit unsigned integer as eight little-endian `u64` limbs.
pub(crate) type U512 = [u64; 8];

/// Compares two 256-bit integers.
pub fn cmp256(a: &U256, b: &U256) -> core::cmp::Ordering {
    for i in (0..4).rev() {
        match a[i].cmp(&b[i]) {
            core::cmp::Ordering::Equal => continue,
            other => return other,
        }
    }
    core::cmp::Ordering::Equal
}

/// Adds two 256-bit integers, returning the sum and the carry bit.
pub fn add256(a: &U256, b: &U256) -> (U256, bool) {
    let mut out = [0u64; 4];
    let mut carry = false;
    for i in 0..4 {
        let (s1, c1) = a[i].overflowing_add(b[i]);
        let (s2, c2) = s1.overflowing_add(u64::from(carry));
        out[i] = s2;
        carry = c1 || c2;
    }
    (out, carry)
}

/// Subtracts `b` from `a` (mod 2^256), returning the difference and the
/// borrow bit.
pub fn sub256(a: &U256, b: &U256) -> (U256, bool) {
    let mut out = [0u64; 4];
    let mut borrow = false;
    for i in 0..4 {
        let (d1, b1) = a[i].overflowing_sub(b[i]);
        let (d2, b2) = d1.overflowing_sub(u64::from(borrow));
        out[i] = d2;
        borrow = b1 || b2;
    }
    (out, borrow)
}

/// Multiplies two 256-bit integers into a 512-bit product.
pub fn mul256(a: &U256, b: &U256) -> U512 {
    let mut out = [0u64; 8];
    for i in 0..4 {
        let mut carry: u128 = 0;
        for j in 0..4 {
            let t = u128::from(a[i]) * u128::from(b[j]) + u128::from(out[i + j]) + carry;
            out[i + j] = t as u64;
            carry = t >> 64;
        }
        out[i + 4] = carry as u64;
    }
    out
}

/// Reduces a 512-bit integer modulo a non-zero 256-bit modulus using binary
/// long division.
///
/// # Panics
///
/// Panics if `m` is zero.
pub fn reduce512(x: &U512, m: &U256) -> U256 {
    assert!(m.iter().any(|&w| w != 0), "modulus must be non-zero");
    let mut r: U256 = [0; 4];
    for i in (0..512).rev() {
        // r = (r << 1) | bit(x, i), reducing on overflow or r >= m.
        let carry = r[3] >> 63;
        r[3] = (r[3] << 1) | (r[2] >> 63);
        r[2] = (r[2] << 1) | (r[1] >> 63);
        r[1] = (r[1] << 1) | (r[0] >> 63);
        r[0] <<= 1;
        r[0] |= (x[i / 64] >> (i % 64)) & 1;
        if carry == 1 || cmp256(&r, m) != core::cmp::Ordering::Less {
            let (d, _) = sub256(&r, m);
            r = d;
        }
    }
    r
}

/// Converts 32 little-endian bytes into a [`U256`].
pub fn from_le_bytes32(bytes: &[u8; 32]) -> U256 {
    let mut out = [0u64; 4];
    for (i, limb) in out.iter_mut().enumerate() {
        let mut b = [0u8; 8];
        b.copy_from_slice(&bytes[i * 8..i * 8 + 8]);
        *limb = u64::from_le_bytes(b);
    }
    out
}

/// Serializes a [`U256`] to 32 little-endian bytes.
pub fn to_le_bytes32(x: &U256) -> [u8; 32] {
    let mut out = [0u8; 32];
    for (i, limb) in x.iter().enumerate() {
        out[i * 8..i * 8 + 8].copy_from_slice(&limb.to_le_bytes());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mul_then_reduce_small() {
        let a: U256 = [7, 0, 0, 0];
        let b: U256 = [9, 0, 0, 0];
        let m: U256 = [5, 0, 0, 0];
        assert_eq!(reduce512(&mul256(&a, &b), &m), [3, 0, 0, 0]); // 63 mod 5
    }

    #[test]
    fn reduce_handles_msb_overflow() {
        // x = 2^511, m = 2^255 + 1: forces the carry path.
        let mut x: U512 = [0; 8];
        x[7] = 1 << 63;
        let mut m: U256 = [1, 0, 0, 0];
        m[3] = 1 << 63;
        let r = reduce512(&x, &m);
        // 2^511 mod (2^255 + 1): 2^511 = (2^255+1-1)^2... just check r < m.
        assert_eq!(cmp256(&r, &m), core::cmp::Ordering::Less);
    }

    #[test]
    fn add_sub_round_trip() {
        let a: U256 = [u64::MAX, 1, 2, 3];
        let b: U256 = [5, 6, 7, 8];
        let (s, c) = add256(&a, &b);
        assert!(!c);
        let (d, bo) = sub256(&s, &b);
        assert!(!bo);
        assert_eq!(d, a);
    }

    #[test]
    fn byte_round_trip() {
        let bytes: [u8; 32] = core::array::from_fn(|i| i as u8);
        assert_eq!(to_le_bytes32(&from_le_bytes32(&bytes)), bytes);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_modulus_panics() {
        reduce512(&[0; 8], &[0; 4]);
    }
}

//! Arithmetic in GF(2^255 − 19) with five 51-bit limbs.
#![allow(clippy::needless_range_loop)] // limb indexing mirrors the reference implementation

const MASK: u64 = (1 << 51) - 1;

/// An element of the field GF(2^255 − 19).
///
/// Internal limbs are kept loosely reduced (below ~2^52); [`Fe::to_bytes`]
/// performs the final freeze into canonical form.
#[derive(Clone, Copy, Debug)]
pub struct Fe(pub(crate) [u64; 5]);

impl Fe {
    /// The additive identity.
    pub const ZERO: Fe = Fe([0; 5]);
    /// The multiplicative identity.
    pub const ONE: Fe = Fe([1, 0, 0, 0, 0]);

    /// Deserializes 32 little-endian bytes, ignoring the top bit.
    pub fn from_bytes(bytes: &[u8; 32]) -> Fe {
        let load = |off: usize| -> u64 {
            let mut b = [0u8; 8];
            b.copy_from_slice(&bytes[off..off + 8]);
            u64::from_le_bytes(b)
        };
        Fe([
            load(0) & MASK,
            (load(6) >> 3) & MASK,
            (load(12) >> 6) & MASK,
            (load(19) >> 1) & MASK,
            (load(24) >> 12) & MASK,
        ])
    }

    /// Serializes to 32 little-endian bytes in canonical (frozen) form.
    pub fn to_bytes(self) -> [u8; 32] {
        let mut t = self.reduce_limbs().0;
        // Freeze: determine whether t >= p and conditionally subtract p.
        let mut q = (t[0] + 19) >> 51;
        q = (t[1] + q) >> 51;
        q = (t[2] + q) >> 51;
        q = (t[3] + q) >> 51;
        q = (t[4] + q) >> 51;
        t[0] += 19 * q;
        let mut carry = t[0] >> 51;
        t[0] &= MASK;
        for i in 1..5 {
            t[i] += carry;
            carry = t[i] >> 51;
            t[i] &= MASK;
        }
        // carry (the 2^255 bit) is discarded, completing reduction mod 2^255−19.
        let mut out = [0u8; 32];
        let words = [
            t[0] | (t[1] << 51),
            (t[1] >> 13) | (t[2] << 38),
            (t[2] >> 26) | (t[3] << 25),
            (t[3] >> 39) | (t[4] << 12),
        ];
        for (i, w) in words.iter().enumerate() {
            out[i * 8..i * 8 + 8].copy_from_slice(&w.to_le_bytes());
        }
        out
    }

    /// Field addition.
    pub fn add(&self, rhs: &Fe) -> Fe {
        let mut out = [0u64; 5];
        for i in 0..5 {
            out[i] = self.0[i] + rhs.0[i];
        }
        Fe(out).reduce_limbs()
    }

    /// Field subtraction (adds 2p before subtracting to avoid underflow).
    pub fn sub(&self, rhs: &Fe) -> Fe {
        const TWO_P: [u64; 5] = [
            0x000f_ffff_ffff_ffda,
            0x000f_ffff_ffff_fffe,
            0x000f_ffff_ffff_fffe,
            0x000f_ffff_ffff_fffe,
            0x000f_ffff_ffff_fffe,
        ];
        let mut out = [0u64; 5];
        for i in 0..5 {
            out[i] = self.0[i] + TWO_P[i] - rhs.0[i];
        }
        Fe(out).reduce_limbs()
    }

    /// Field negation.
    pub(crate) fn neg(&self) -> Fe {
        Fe::ZERO.sub(self)
    }

    /// Field multiplication.
    pub fn mul(&self, rhs: &Fe) -> Fe {
        let a = &self.0;
        let b = &rhs.0;
        let m = |x: u64, y: u64| u128::from(x) * u128::from(y);
        let b1_19 = b[1] * 19;
        let b2_19 = b[2] * 19;
        let b3_19 = b[3] * 19;
        let b4_19 = b[4] * 19;
        let r0 = m(a[0], b[0]) + m(a[1], b4_19) + m(a[2], b3_19) + m(a[3], b2_19) + m(a[4], b1_19);
        let r1 = m(a[0], b[1]) + m(a[1], b[0]) + m(a[2], b4_19) + m(a[3], b3_19) + m(a[4], b2_19);
        let r2 = m(a[0], b[2]) + m(a[1], b[1]) + m(a[2], b[0]) + m(a[3], b4_19) + m(a[4], b3_19);
        let r3 = m(a[0], b[3]) + m(a[1], b[2]) + m(a[2], b[1]) + m(a[3], b[0]) + m(a[4], b4_19);
        let r4 = m(a[0], b[4]) + m(a[1], b[3]) + m(a[2], b[2]) + m(a[3], b[1]) + m(a[4], b[0]);
        Fe::carry_wide([r0, r1, r2, r3, r4])
    }

    /// Field squaring: the fifteen distinct limb products of `mul(self, self)`
    /// with the ten cross terms doubled once.
    pub fn square(&self) -> Fe {
        let a = &self.0;
        let m = |x: u64, y: u64| u128::from(x) * u128::from(y);
        let a0_2 = a[0] * 2;
        let a1_2 = a[1] * 2;
        let a1_38 = a[1] * 38;
        let a2_38 = a[2] * 38;
        let a3_38 = a[3] * 38;
        let a3_19 = a[3] * 19;
        let a4_19 = a[4] * 19;
        let r0 = m(a[0], a[0]) + m(a1_38, a[4]) + m(a2_38, a[3]);
        let r1 = m(a0_2, a[1]) + m(a2_38, a[4]) + m(a3_19, a[3]);
        let r2 = m(a0_2, a[2]) + m(a[1], a[1]) + m(a3_38, a[4]);
        let r3 = m(a0_2, a[3]) + m(a1_2, a[2]) + m(a4_19, a[4]);
        let r4 = m(a0_2, a[4]) + m(a1_2, a[3]) + m(a[2], a[2]);
        Fe::carry_wide([r0, r1, r2, r3, r4])
    }

    /// `self^(2^n)`: `n` successive squarings.
    fn square_n(&self, n: u32) -> Fe {
        let mut r = *self;
        for _ in 0..n {
            r = r.square();
        }
        r
    }

    /// Multiplies by a small scalar constant.
    pub(crate) fn mul_small(&self, k: u32) -> Fe {
        let mut wide = [0u128; 5];
        for i in 0..5 {
            wide[i] = u128::from(self.0[i]) * u128::from(k);
        }
        Fe::carry_wide(wide)
    }

    /// Raises to the power encoded by `exp` (32 little-endian bytes,
    /// square-and-multiply from the most significant bit).
    pub fn pow(&self, exp: &[u8; 32]) -> Fe {
        let mut result = Fe::ONE;
        let mut started = false;
        for byte_idx in (0..32).rev() {
            for bit in (0..8).rev() {
                if started {
                    result = result.square();
                }
                if (exp[byte_idx] >> bit) & 1 == 1 {
                    result = if started { result.mul(self) } else { *self };
                    started = true;
                }
            }
        }
        if started {
            result
        } else {
            Fe::ONE
        }
    }

    /// The shared head of the two fixed-exponent addition chains:
    /// `(self^(2^250 − 1), self^11)` in 249 squarings and 10 multiplies.
    fn pow_2_250_1(&self) -> (Fe, Fe) {
        let z2 = self.square();
        let z9 = z2.square_n(2).mul(self);
        let z11 = z9.mul(&z2);
        let z_5_0 = z11.square().mul(&z9); // 2^5 − 1
        let z_10_0 = z_5_0.square_n(5).mul(&z_5_0);
        let z_20_0 = z_10_0.square_n(10).mul(&z_10_0);
        let z_40_0 = z_20_0.square_n(20).mul(&z_20_0);
        let z_50_0 = z_40_0.square_n(10).mul(&z_10_0);
        let z_100_0 = z_50_0.square_n(50).mul(&z_50_0);
        let z_200_0 = z_100_0.square_n(100).mul(&z_100_0);
        (z_200_0.square_n(50).mul(&z_50_0), z11)
    }

    /// Multiplicative inverse (x^(p−2)); returns zero for zero.
    pub fn invert(&self) -> Fe {
        // p − 2 = 2^255 − 21 = (2^250 − 1)·2^5 + 11.
        let (z_250_0, z11) = self.pow_2_250_1();
        z_250_0.square_n(5).mul(&z11)
    }

    /// Raises to (p − 5)/8 = 2^252 − 3, the exponent used by square-root
    /// extraction during point decompression.
    pub fn pow_p58(&self) -> Fe {
        // 2^252 − 3 = (2^250 − 1)·2^2 + 1.
        let (z_250_0, _) = self.pow_2_250_1();
        z_250_0.square_n(2).mul(self)
    }

    /// Whether the canonical encoding is odd (the "sign" bit of x).
    pub(crate) fn is_negative(&self) -> bool {
        self.to_bytes()[0] & 1 == 1
    }

    /// Whether this element is zero.
    pub fn is_zero(&self) -> bool {
        self.to_bytes() == [0u8; 32]
    }

    /// Constant √−1 = 2^((p−1)/4) in the field, needed during decompression.
    pub(crate) fn sqrt_m1() -> Fe {
        Fe([1718705420411056, 234908883556509, 2233514472574048, 2117202627021982, 765476049583133])
    }

    /// Carries five wide product columns down to limbs below 2^51 + 2^10.
    /// Callers pass sums of at most five products of limbs below 2^52 (one
    /// factor possibly ×19 or ×38), so the carry out of the top column is
    /// below 2^54 and its fold-back ×19 fits a `u64`.
    fn carry_wide(mut r: [u128; 5]) -> Fe {
        let mut out = [0u64; 5];
        for i in 0..4 {
            r[i + 1] += r[i] >> 51;
            out[i] = r[i] as u64 & MASK;
        }
        out[4] = r[4] as u64 & MASK;
        out[0] += (r[4] >> 51) as u64 * 19;
        out[1] += out[0] >> 51;
        out[0] &= MASK;
        Fe(out)
    }

    /// Weak reduction: every limb sheds its carry to the next at once, the
    /// top one folding back ×19. Limbs come out below 2^51 + 2^13, which
    /// every operation accepts and `to_bytes` freezes.
    fn reduce_limbs(self) -> Fe {
        let r = self.0;
        Fe([
            (r[0] & MASK) + (r[4] >> 51) * 19,
            (r[1] & MASK) + (r[0] >> 51),
            (r[2] & MASK) + (r[1] >> 51),
            (r[3] & MASK) + (r[2] >> 51),
            (r[4] & MASK) + (r[3] >> 51),
        ])
    }
}

impl PartialEq for Fe {
    fn eq(&self, other: &Self) -> bool {
        self.to_bytes() == other.to_bytes()
    }
}

impl Eq for Fe {}

#[cfg(test)]
mod tests {
    use super::*;

    fn fe(n: u64) -> Fe {
        Fe([n & MASK, n >> 51, 0, 0, 0])
    }

    #[test]
    fn add_sub_identities() {
        let a = fe(12345);
        assert_eq!(a.add(&Fe::ZERO), a);
        assert_eq!(a.sub(&a), Fe::ZERO);
        assert_eq!(a.neg().add(&a), Fe::ZERO);
    }

    #[test]
    fn mul_matches_small_products() {
        assert_eq!(fe(6).mul(&fe(7)), fe(42));
        assert_eq!(fe(1 << 30).mul(&fe(1 << 30)), fe(1 << 60));
    }

    #[test]
    fn inverse() {
        let a = fe(987654321);
        assert_eq!(a.mul(&a.invert()), Fe::ONE);
        assert_eq!(Fe::ZERO.invert(), Fe::ZERO);
    }

    #[test]
    fn sqrt_m1_squares_to_minus_one() {
        let i = Fe::sqrt_m1();
        assert_eq!(i.square(), Fe::ONE.neg());
        // The limbs are the canonical bytes from the Ed25519 reference.
        const BYTES: [u8; 32] = [
            0xb0, 0xa0, 0x0e, 0x4a, 0x27, 0x1b, 0xee, 0xc4, 0x78, 0xe4, 0x2f, 0xad, 0x06, 0x18,
            0x43, 0x2f, 0xa7, 0xd7, 0xfb, 0x3d, 0x99, 0x00, 0x4d, 0x2b, 0x0b, 0xdf, 0xc1, 0x4f,
            0x80, 0x24, 0x83, 0x2b,
        ];
        assert_eq!(i.0, Fe::from_bytes(&BYTES).0);
    }

    #[test]
    fn bytes_round_trip() {
        let mut bytes = [0u8; 32];
        bytes[0] = 42;
        bytes[15] = 7;
        bytes[31] = 0x12;
        let a = Fe::from_bytes(&bytes);
        assert_eq!(a.to_bytes(), bytes);
    }

    #[test]
    fn freeze_reduces_p_to_zero() {
        // p itself must serialize as zero.
        let mut p_bytes = [0xffu8; 32];
        p_bytes[0] = 0xed;
        p_bytes[31] = 0x7f;
        let p = Fe::from_bytes(&p_bytes); // from_bytes masks the top bit but p < 2^255
        assert_eq!(p.to_bytes(), [0u8; 32]);
    }

    #[test]
    fn mul_small_matches_mul() {
        let a = fe(0xdeadbeef);
        assert_eq!(a.mul_small(121666), a.mul(&fe(121666)));
    }
}

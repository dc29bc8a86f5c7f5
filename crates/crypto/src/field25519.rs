//! Arithmetic in GF(2^255 − 19) with five 51-bit limbs.
#![allow(clippy::needless_range_loop)] // limb indexing mirrors the reference implementation

use crate::bigint;

const MASK: u64 = (1 << 51) - 1;

/// The low 62 bits of a word: one limb of the signed radix-2^62 form that
/// [`Fe::invert`] works in.
const M62: u64 = u64::MAX >> 2;
/// p in signed 62-bit limbs, sparse: −19 + 128·2^248.
const P62: [i64; 5] = [-19, 0, 0, 0, 128];
/// p⁻¹ mod 2^62, which picks the multiple of p that makes each update of
/// the Bézout coefficients divisible by 2^62.
const P_INV62: u64 = 0x3943_5e50_d794_35e5;

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

    /// `self^(2^250 − 1)` in 249 squarings and 10 multiplies.
    fn pow_2_250_1(&self) -> Fe {
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
        z_200_0.square_n(50).mul(&z_50_0)
    }

    /// Multiplicative inverse; returns zero for zero.
    ///
    /// Variable time, by Bernstein and Yang's divsteps ("Fast constant-time
    /// gcd computation and modular inversion", TCHES 2019) as
    /// libsecp256k1's `modinv64_var` batches them: f = p and g = x run
    /// through divsteps 62 at a time, each batch one 2×2 matrix applied to
    /// (f, g) and to the Bézout coefficients (d, e) mod p, until g = 0.
    /// Then f = ±1 and d·x ≡ f, so ±d is the inverse.
    pub fn invert(&self) -> Fe {
        let mut d = [0i64; 5];
        let mut e = [1, 0, 0, 0, 0];
        let mut f = P62;
        let mut g = to_signed62(&self.to_bytes());
        let mut len = 5;
        let mut eta = -1;
        loop {
            let t = divsteps_62(&mut eta, f[0] as u64, g[0] as u64);
            update_de(&mut d, &mut e, &t);
            update_fg(&mut f[..len], &mut g[..len], &t);
            if g[..len].iter().all(|&limb| limb == 0) {
                break;
            }
            // f and g shrink: once both top limbs are only sign, fold them
            // into the limb below.
            let (f_top, g_top) = (f[len - 1], g[len - 1]);
            if len > 1 && matches!(f_top, 0 | -1) && matches!(g_top, 0 | -1) {
                f[len - 2] |= ((f_top as u64) << 62) as i64;
                g[len - 2] |= ((g_top as u64) << 62) as i64;
                len -= 1;
            }
        }
        from_signed62(normalize62(d, f[len - 1] < 0))
    }

    /// Raises to (p − 5)/8 = 2^252 − 3, the exponent used by square-root
    /// extraction during point decompression.
    pub fn pow_p58(&self) -> Fe {
        // 2^252 − 3 = (2^250 − 1)·2^2 + 1.
        self.pow_2_250_1().square_n(2).mul(self)
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

/// The matrix of a batch of 62 divsteps: 2^62·(f′, g′) = (u·f + v·g, q·f + r·g).
struct Transition {
    u: i64,
    v: i64,
    q: i64,
    r: i64,
}

fn wide(a: i64, b: i64) -> i128 {
    i128::from(a) * i128::from(b)
}

/// A canonical field element's bytes as five signed 62-bit limbs.
fn to_signed62(bytes: &[u8; 32]) -> [i64; 5] {
    let w = bigint::from_le_bytes32(bytes);
    [
        w[0] & M62,
        (w[0] >> 62 | w[1] << 2) & M62,
        (w[1] >> 60 | w[2] << 4) & M62,
        (w[2] >> 58 | w[3] << 6) & M62,
        w[3] >> 56,
    ]
    .map(|limb| limb as i64)
}

/// Limbs in [0, 2^62) of a value in [0, p) back to a field element.
fn from_signed62(limbs: [i64; 5]) -> Fe {
    let l = limbs.map(|limb| limb as u64);
    let w =
        [l[0] | l[1] << 62, l[1] >> 2 | l[2] << 60, l[2] >> 4 | l[3] << 58, l[3] >> 6 | l[4] << 56];
    Fe::from_bytes(&bigint::to_le_bytes32(&w))
}

/// 62 divsteps on the low words of f and g (f odd), with η = −δ. Runs of
/// zero bits in g are shifted out at once, and each odd step cancels up
/// to six (after a swap) or four low bits of g with one multiple of f.
fn divsteps_62(eta: &mut i64, f0: u64, g0: u64) -> Transition {
    let (mut u, mut v, mut q, mut r) = (1u64, 0u64, 0u64, 1u64);
    let (mut f, mut g) = (f0, g0);
    let mut left = 62;
    loop {
        // A sentinel bit stops the count at the steps left.
        let zeros = (g | u64::MAX << left).trailing_zeros();
        g >>= zeros;
        u <<= zeros;
        v <<= zeros;
        *eta -= i64::from(zeros);
        left -= zeros;
        if left == 0 {
            break;
        }
        let swapped = *eta < 0;
        if swapped {
            *eta = -*eta;
            (f, g) = (g, f.wrapping_neg());
            (u, q) = (q, u.wrapping_neg());
            (v, r) = (r, v.wrapping_neg());
        }
        // No more than the steps left, and no more than η + 1 before the
        // sign of η flips again.
        let limit = (*eta + 1).min(i64::from(left)) as u32;
        let w = if swapped {
            let mask = u64::MAX >> (64 - limit) & 63;
            f.wrapping_mul(g).wrapping_mul(f.wrapping_mul(f).wrapping_sub(2)) & mask
        } else {
            let mask = u64::MAX >> (64 - limit) & 15;
            let f_inv4 = f.wrapping_add((f.wrapping_add(1) & 4) << 1);
            f_inv4.wrapping_neg().wrapping_mul(g) & mask
        };
        g = g.wrapping_add(f.wrapping_mul(w));
        q = q.wrapping_add(u.wrapping_mul(w));
        r = r.wrapping_add(v.wrapping_mul(w));
    }
    Transition { u: u as i64, v: v as i64, q: q as i64, r: r as i64 }
}

/// (d, e) ← t·(d, e) / 2^62 mod p. Inputs and outputs lie in (−2p, p); the
/// multiple of p added makes the low 62 bits zero, so the division is a
/// shift.
fn update_de(d: &mut [i64; 5], e: &mut [i64; 5], t: &Transition) {
    let (sd, se) = (d[4] >> 63, e[4] >> 63);
    let mut md = (t.u & sd) + (t.v & se);
    let mut me = (t.q & sd) + (t.r & se);
    let mut cd = wide(t.u, d[0]) + wide(t.v, e[0]);
    let mut ce = wide(t.q, d[0]) + wide(t.r, e[0]);
    md -= (P_INV62.wrapping_mul(cd as u64).wrapping_add(md as u64) & M62) as i64;
    me -= (P_INV62.wrapping_mul(ce as u64).wrapping_add(me as u64) & M62) as i64;
    cd += wide(P62[0], md);
    ce += wide(P62[0], me);
    debug_assert!(cd as u64 & M62 == 0 && ce as u64 & M62 == 0);
    cd >>= 62;
    ce >>= 62;
    for i in 1..5 {
        cd += wide(t.u, d[i]) + wide(t.v, e[i]) + wide(P62[i], md);
        ce += wide(t.q, d[i]) + wide(t.r, e[i]) + wide(P62[i], me);
        d[i - 1] = (cd as u64 & M62) as i64;
        e[i - 1] = (ce as u64 & M62) as i64;
        cd >>= 62;
        ce >>= 62;
    }
    d[4] = cd as i64;
    e[4] = ce as i64;
}

/// (f, g) ← t·(f, g) / 2^62 over their `len` live limbs; the low 62 bits
/// are zero by construction of t.
fn update_fg(f: &mut [i64], g: &mut [i64], t: &Transition) {
    let len = f.len();
    let mut cf = wide(t.u, f[0]) + wide(t.v, g[0]);
    let mut cg = wide(t.q, f[0]) + wide(t.r, g[0]);
    debug_assert!(cf as u64 & M62 == 0 && cg as u64 & M62 == 0);
    cf >>= 62;
    cg >>= 62;
    for i in 1..len {
        cf += wide(t.u, f[i]) + wide(t.v, g[i]);
        cg += wide(t.q, f[i]) + wide(t.r, g[i]);
        f[i - 1] = (cf as u64 & M62) as i64;
        g[i - 1] = (cg as u64 & M62) as i64;
        cf >>= 62;
        cg >>= 62;
    }
    f[len - 1] = cf as i64;
    g[len - 1] = cg as i64;
}

/// d in (−2p, p), negated when f ended at −1, brought into [0, p) with
/// limbs in [0, 2^62).
fn normalize62(mut d: [i64; 5], negate: bool) -> [i64; 5] {
    let carry = |d: &mut [i64; 5]| {
        for i in 0..4 {
            d[i + 1] += d[i] >> 62;
            d[i] &= M62 as i64;
        }
    };
    let add_p_if_negative = |d: &mut [i64; 5]| {
        if d[4] < 0 {
            for (limb, p) in d.iter_mut().zip(P62) {
                *limb += p;
            }
        }
    };
    add_p_if_negative(&mut d);
    if negate {
        d = d.map(|limb| -limb);
    }
    carry(&mut d);
    add_p_if_negative(&mut d);
    carry(&mut d);
    d
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
        assert_eq!(P_INV62.wrapping_mul(P62[0] as u64) & M62, 1);
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

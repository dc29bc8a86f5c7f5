//! The 256-bit machine word.

use pol_crypto::bigint::{self, U256};

/// A 256-bit unsigned integer, the EVM stack word.
///
/// Stored as four little-endian `u64` limbs; all arithmetic wraps modulo
/// 2^256 as the EVM specifies.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Word(pub U256);

impl Word {
    /// Zero.
    pub const ZERO: Word = Word([0; 4]);
    /// One.
    pub const ONE: Word = Word([1, 0, 0, 0]);

    /// Builds a word from a `u64`.
    pub fn from_u64(v: u64) -> Word {
        Word([v, 0, 0, 0])
    }

    /// Builds a word from a `u128`.
    pub fn from_u128(v: u128) -> Word {
        Word([v as u64, (v >> 64) as u64, 0, 0])
    }

    /// Truncates to `u64` (low limb).
    pub fn as_u64(&self) -> u64 {
        self.0[0]
    }

    /// Truncates to `u128` (low two limbs).
    pub fn as_u128(&self) -> u128 {
        u128::from(self.0[0]) | (u128::from(self.0[1]) << 64)
    }

    /// Whether the value fits in a `u64`.
    pub(crate) fn fits_u64(&self) -> bool {
        self.0[1] == 0 && self.0[2] == 0 && self.0[3] == 0
    }

    /// Whether the value fits in a `u128`.
    pub(crate) fn fits_u128(&self) -> bool {
        self.0[2] == 0 && self.0[3] == 0
    }

    /// Whether the word is zero.
    pub fn is_zero(&self) -> bool {
        self.0 == [0; 4]
    }

    /// Big-endian 32-byte encoding (the EVM memory/calldata form).
    pub fn to_be_bytes(&self) -> [u8; 32] {
        let mut out = [0u8; 32];
        for (i, limb) in self.0.iter().enumerate() {
            out[32 - 8 * (i + 1)..32 - 8 * i].copy_from_slice(&limb.to_be_bytes());
        }
        out
    }

    /// Parses a big-endian 32-byte encoding.
    pub fn from_be_bytes(bytes: &[u8; 32]) -> Word {
        let mut limbs = [0u64; 4];
        for (i, limb) in limbs.iter_mut().enumerate() {
            let mut b = [0u8; 8];
            b.copy_from_slice(&bytes[32 - 8 * (i + 1)..32 - 8 * i]);
            *limb = u64::from_be_bytes(b);
        }
        Word(limbs)
    }

    /// Parses a big-endian slice of at most 32 bytes (right-aligned).
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is longer than 32.
    pub fn from_be_slice(bytes: &[u8]) -> Word {
        assert!(bytes.len() <= 32, "word overflow");
        let mut buf = [0u8; 32];
        buf[32 - bytes.len()..].copy_from_slice(bytes);
        Word::from_be_bytes(&buf)
    }

    /// Wrapping addition.
    pub fn wrapping_add(&self, rhs: &Word) -> Word {
        Word(bigint::add256(&self.0, &rhs.0).0)
    }

    /// Wrapping subtraction.
    pub fn wrapping_sub(&self, rhs: &Word) -> Word {
        Word(bigint::sub256(&self.0, &rhs.0).0)
    }

    /// Wrapping multiplication (low 256 bits of the product).
    pub fn wrapping_mul(&self, rhs: &Word) -> Word {
        let wide = bigint::mul256(&self.0, &rhs.0);
        Word([wide[0], wide[1], wide[2], wide[3]])
    }

    /// Division; the EVM defines `x / 0 = 0`.
    pub fn div(&self, rhs: &Word) -> Word {
        if rhs.is_zero() {
            return Word::ZERO;
        }
        let (q, _) = divmod(&self.0, &rhs.0);
        Word(q)
    }

    /// Remainder; the EVM defines `x % 0 = 0`.
    pub fn rem(&self, rhs: &Word) -> Word {
        if rhs.is_zero() {
            return Word::ZERO;
        }
        let (_, r) = divmod(&self.0, &rhs.0);
        Word(r)
    }

    /// Unsigned comparison.
    pub fn cmp_u(&self, rhs: &Word) -> std::cmp::Ordering {
        bigint::cmp256(&self.0, &rhs.0)
    }

    /// Bitwise AND.
    pub fn and(&self, rhs: &Word) -> Word {
        Word(std::array::from_fn(|i| self.0[i] & rhs.0[i]))
    }

    /// Bitwise OR.
    pub fn or(&self, rhs: &Word) -> Word {
        Word(std::array::from_fn(|i| self.0[i] | rhs.0[i]))
    }

    /// Bitwise XOR.
    pub fn xor(&self, rhs: &Word) -> Word {
        Word(std::array::from_fn(|i| self.0[i] ^ rhs.0[i]))
    }

    /// Bitwise NOT.
    pub fn not(&self) -> Word {
        Word(std::array::from_fn(|i| !self.0[i]))
    }

    /// Left shift; shifts of 256 or more yield zero (EVM `SHL`).
    pub fn shl(&self, shift: &Word) -> Word {
        if !shift.fits_u64() || shift.as_u64() >= 256 {
            return Word::ZERO;
        }
        let n = shift.as_u64() as usize;
        let (limb_shift, bit_shift) = (n / 64, n % 64);
        let mut out = [0u64; 4];
        for i in (0..4).rev() {
            if i >= limb_shift {
                let mut v = self.0[i - limb_shift] << bit_shift;
                if bit_shift > 0 && i > limb_shift {
                    v |= self.0[i - limb_shift - 1] >> (64 - bit_shift);
                }
                out[i] = v;
            }
        }
        Word(out)
    }

    /// Logical right shift; shifts of 256 or more yield zero (EVM `SHR`).
    pub fn shr(&self, shift: &Word) -> Word {
        if !shift.fits_u64() || shift.as_u64() >= 256 {
            return Word::ZERO;
        }
        let n = shift.as_u64() as usize;
        let (limb_shift, bit_shift) = (n / 64, n % 64);
        let mut out = [0u64; 4];
        for (i, slot) in out.iter_mut().enumerate() {
            if i + limb_shift < 4 {
                let mut v = self.0[i + limb_shift] >> bit_shift;
                if bit_shift > 0 && i + limb_shift + 1 < 4 {
                    v |= self.0[i + limb_shift + 1] << (64 - bit_shift);
                }
                *slot = v;
            }
        }
        Word(out)
    }

    /// `(self + rhs) mod m` without intermediate overflow; zero modulus
    /// yields zero (EVM `ADDMOD`).
    pub fn add_mod(&self, rhs: &Word, m: &Word) -> Word {
        if m.is_zero() {
            return Word::ZERO;
        }
        let (sum, carry) = pol_crypto::bigint::add256(&self.0, &rhs.0);
        let mut wide = [0u64; 8];
        wide[..4].copy_from_slice(&sum);
        wide[4] = u64::from(carry);
        Word(pol_crypto::bigint::reduce512(&wide, &m.0))
    }

    /// `(self × rhs) mod m` over the full 512-bit product; zero modulus
    /// yields zero (EVM `MULMOD`).
    pub fn mul_mod(&self, rhs: &Word, m: &Word) -> Word {
        if m.is_zero() {
            return Word::ZERO;
        }
        let wide = pol_crypto::bigint::mul256(&self.0, &rhs.0);
        Word(pol_crypto::bigint::reduce512(&wide, &m.0))
    }

    /// Wrapping exponentiation by square-and-multiply (EVM `EXP`).
    pub fn pow(&self, exponent: &Word) -> Word {
        let mut result = Word::ONE;
        let mut base = *self;
        for limb_idx in 0..4 {
            let mut e = exponent.0[limb_idx];
            // Skip trailing zero limbs cheaply.
            if e == 0 && exponent.0[limb_idx..].iter().all(|&l| l == 0) {
                break;
            }
            for _ in 0..64 {
                if e & 1 == 1 {
                    result = result.wrapping_mul(&base);
                }
                base = base.wrapping_mul(&base);
                e >>= 1;
            }
        }
        result
    }

    /// Number of significant bytes (the EVM `EXP` gas metric).
    pub(crate) fn byte_len(&self) -> u64 {
        let bytes = self.to_be_bytes();
        (32 - bytes.iter().take_while(|&&b| b == 0).count()) as u64
    }
}

/// Binary long division of 256-bit integers.
fn divmod(a: &U256, m: &U256) -> (U256, U256) {
    let mut quotient = [0u64; 4];
    let mut remainder = [0u64; 4];
    for i in (0..256).rev() {
        // remainder = (remainder << 1) | bit(a, i)
        remainder[3] = (remainder[3] << 1) | (remainder[2] >> 63);
        remainder[2] = (remainder[2] << 1) | (remainder[1] >> 63);
        remainder[1] = (remainder[1] << 1) | (remainder[0] >> 63);
        remainder[0] = (remainder[0] << 1) | ((a[i / 64] >> (i % 64)) & 1);
        if bigint::cmp256(&remainder, m) != std::cmp::Ordering::Less {
            remainder = bigint::sub256(&remainder, m).0;
            quotient[i / 64] |= 1 << (i % 64);
        }
    }
    (quotient, remainder)
}

impl std::fmt::Debug for Word {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Word(0x{})", pol_crypto::hex::encode(&self.to_be_bytes()))
    }
}

impl std::fmt::Display for Word {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.fits_u64() {
            write!(f, "{}", self.as_u64())
        } else {
            write!(f, "0x{}", pol_crypto::hex::encode(&self.to_be_bytes()))
        }
    }
}

impl From<u64> for Word {
    fn from(v: u64) -> Word {
        Word::from_u64(v)
    }
}

impl From<u128> for Word {
    fn from(v: u128) -> Word {
        Word::from_u128(v)
    }
}

impl From<pol_ledger::Address> for Word {
    fn from(a: pol_ledger::Address) -> Word {
        Word::from_be_slice(&a.0)
    }
}

impl Word {
    /// Interprets the low 20 bytes as an address.
    pub fn to_address(&self) -> pol_ledger::Address {
        let bytes = self.to_be_bytes();
        let mut out = [0u8; 20];
        out.copy_from_slice(&bytes[12..]);
        pol_ledger::Address(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_bytes() {
        let w = Word::from_u128(0x1234_5678_9abc_def0_1122_3344_5566_7788);
        assert_eq!(Word::from_be_bytes(&w.to_be_bytes()), w);
    }

    #[test]
    fn arithmetic_wraps() {
        let max = Word::ZERO.not();
        assert_eq!(max.wrapping_add(&Word::ONE), Word::ZERO);
        assert_eq!(Word::ZERO.wrapping_sub(&Word::ONE), max);
    }

    #[test]
    fn mul_small() {
        assert_eq!(
            Word::from_u64(1 << 40).wrapping_mul(&Word::from_u64(1 << 40)),
            Word::from_u128(1u128 << 80)
        );
    }

    #[test]
    fn div_rem() {
        let a = Word::from_u128(1_000_000_000_000_000_007);
        let b = Word::from_u64(1_000_000);
        assert_eq!(a.div(&b), Word::from_u64(1_000_000_000_000));
        assert_eq!(a.rem(&b), Word::from_u64(7));
        assert_eq!(a.div(&Word::ZERO), Word::ZERO);
        assert_eq!(a.rem(&Word::ZERO), Word::ZERO);
    }

    #[test]
    fn div_large() {
        // (2^200) / (2^100) == 2^100
        let mut a = [0u64; 4];
        a[3] = 1 << (200 - 192);
        let mut b = [0u64; 4];
        b[1] = 1 << (100 - 64);
        let q = Word(a).div(&Word(b));
        let mut expect = [0u64; 4];
        expect[1] = 1 << (100 - 64);
        assert_eq!(q, Word(expect));
    }

    #[test]
    fn address_round_trip() {
        let a = pol_ledger::Address([0xab; 20]);
        assert_eq!(Word::from(a).to_address(), a);
    }

    #[test]
    fn ordering() {
        assert_eq!(Word::from_u64(1).cmp_u(&Word::from_u64(2)), std::cmp::Ordering::Less);
        let big = Word([0, 0, 0, 1]);
        assert_eq!(big.cmp_u(&Word::from_u64(u64::MAX)), std::cmp::Ordering::Greater);
    }
}

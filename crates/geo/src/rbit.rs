//! The dual encoding from Open Location Codes to hypercube node IDs.
//!
//! Following Zichichi et al. (and §1.3.1 of the paper), an OLC is mapped to
//! an *r-bit string* naming the DHT node responsible for its area:
//!
//! 1. the code's significant digits are split into five two-character
//!    segments, each zero-padded to the full code width at its original
//!    position (`6PH57VP3+PR` → `6P00000000`, `00H5000000`, …);
//! 2. each segment is hashed and reduced modulo *r* to select one bit;
//! 3. the per-segment one-hot strings are combined with XOR.
//!
//! Nearby areas share code prefixes, so they share segments and land on
//! nearby (low-Hamming-distance) hypercube nodes.

use crate::olc::OlcCode;
use pol_crypto::sha256;

/// Maximum supported hypercube dimensionality.
pub(crate) const MAX_DIMENSIONS: u8 = 32;

/// An r-bit hypercube key derived from a location code.
///
/// # Examples
///
/// ```
/// use pol_geo::{olc::OlcCode, rbit};
///
/// let code: OlcCode = "6PH57VP3+PR".parse()?;
/// let key = rbit::encode(&code, 6);
/// assert!(key.index() < 64);
/// # Ok::<(), pol_geo::GeoError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RBitKey {
    bits: u32,
    r: u8,
}

impl RBitKey {
    /// Creates a key from raw bits, masking to `r` dimensions.
    ///
    /// # Panics
    ///
    /// Panics if `r` is zero or exceeds `MAX_DIMENSIONS`.
    pub fn from_bits(bits: u32, r: u8) -> RBitKey {
        assert!(r > 0 && r <= MAX_DIMENSIONS, "r must be in 1..={MAX_DIMENSIONS}");
        let mask = if r == 32 { u32::MAX } else { (1u32 << r) - 1 };
        RBitKey { bits: bits & mask, r }
    }

    /// The raw bit pattern.
    pub fn bits(&self) -> u32 {
        self.bits
    }

    /// The node index (the bit pattern read as an unsigned integer).
    pub fn index(&self) -> u64 {
        u64::from(self.bits)
    }

    /// The number of dimensions `r`.
    pub fn dimensions(&self) -> u8 {
        self.r
    }

    /// The key obtained by flipping dimension `dim`.
    ///
    /// # Panics
    ///
    /// Panics if `dim >= r`.
    pub fn flip(&self, dim: u8) -> RBitKey {
        assert!(dim < self.r, "dimension out of range");
        RBitKey { bits: self.bits ^ (1 << dim), r: self.r }
    }

    /// Iterates over the `r` neighbouring keys (one bit flipped each).
    pub fn neighbors(&self) -> impl Iterator<Item = RBitKey> + '_ {
        (0..self.r).map(move |d| self.flip(d))
    }
}

impl std::fmt::Display for RBitKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for i in (0..self.r).rev() {
            write!(f, "{}", (self.bits >> i) & 1)?;
        }
        Ok(())
    }
}

/// Splits a code's significant digits into the zero-padded two-character
/// segments prescribed by the encoding (step 1 above).
pub fn segments(code: &OlcCode) -> Vec<String> {
    let digits = code.significant_digits();
    let width = digits.len();
    digits
        .as_bytes()
        .chunks(2)
        .enumerate()
        .map(|(i, pair)| {
            let mut seg = String::with_capacity(width);
            for _ in 0..i * 2 {
                seg.push('0');
            }
            for &b in pair {
                seg.push(b as char);
            }
            while seg.len() < width {
                seg.push('0');
            }
            seg
        })
        .collect()
}

/// Encodes an OLC into the `r`-dimensional hypercube key.
///
/// # Panics
///
/// Panics if `r` is zero or exceeds `MAX_DIMENSIONS`.
pub fn encode(code: &OlcCode, r: u8) -> RBitKey {
    assert!(r > 0 && r <= MAX_DIMENSIONS, "r must be in 1..={MAX_DIMENSIONS}");
    let mut bits = 0u32;
    for seg in segments(code) {
        let digest = sha256(seg.as_bytes());
        // Interpret the first 8 digest bytes as a big-endian integer mod r.
        let mut val = [0u8; 8];
        val.copy_from_slice(&digest[..8]);
        let bit = (u64::from_be_bytes(val) % u64::from(r)) as u32;
        // NOTE: the paper specifies XOR here; its own worked example is
        // internally inconsistent (two identical segments would cancel),
        // but we follow the specification text.
        bits ^= 1 << bit;
    }
    RBitKey::from_bits(bits, r)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::olc;
    use crate::Coordinates;

    fn code(s: &str) -> OlcCode {
        s.parse().unwrap()
    }

    #[test]
    fn deterministic() {
        let c = code("6PH57VP3+PR");
        assert_eq!(encode(&c, 6), encode(&c, 6));
    }

    #[test]
    fn segments_match_paper_shape() {
        let segs = segments(&code("6PH57VP3+PR"));
        assert_eq!(
            segs,
            vec!["6P00000000", "00H5000000", "00007V0000", "000000P300", "00000000PR"]
        );
    }

    #[test]
    fn key_within_range() {
        for r in 1..=16u8 {
            let k = encode(&code("8FPHF8WV+X2"), r);
            assert!(k.index() < (1u64 << r));
            assert_eq!(k.dimensions(), r);
        }
    }

    #[test]
    fn nearby_areas_share_prefix_hit_nearby_nodes() {
        // Two adjacent 10-digit cells share the first four segments, so
        // their keys differ by at most two bit flips.
        let a = olc::encode(Coordinates::new(44.49490, 11.34260).unwrap(), 10).unwrap();
        let b = olc::encode(Coordinates::new(44.49490, 11.34274).unwrap(), 10).unwrap();
        assert_ne!(a, b);
        assert_eq!(a.significant_digits()[..8], b.significant_digits()[..8]);
        let ka = encode(&a, 8);
        let kb = encode(&b, 8);
        assert!((ka.index() ^ kb.index()).count_ones() <= 2, "{ka} vs {kb}");
    }

    #[test]
    fn neighbors_have_hamming_one() {
        let k = encode(&code("6PH57VP3+PR"), 6);
        let n: Vec<_> = k.neighbors().collect();
        assert_eq!(n.len(), 6);
        for nb in n {
            assert_eq!((k.index() ^ nb.index()).count_ones(), 1);
        }
    }

    #[test]
    fn display_is_binary_of_width_r() {
        let k = RBitKey::from_bits(0b1010, 6);
        assert_eq!(k.to_string(), "001010");
    }

    #[test]
    fn from_bits_masks() {
        assert_eq!(RBitKey::from_bits(0b111111, 4).bits(), 0b1111);
    }
}

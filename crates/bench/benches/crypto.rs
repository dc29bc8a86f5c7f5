//! Micro-benchmarks of the cryptographic substrate.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use pol_crypto::ed25519::{Keypair, Point};
use pol_crypto::field25519::Fe;
use pol_crypto::sha256::{sha256_x16, sha256_x16_short};
use pol_crypto::x25519::XKeypair;
use pol_crypto::{keccak256, scalar, sealed, sha256};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

fn hashes(c: &mut Criterion) {
    let mut group = c.benchmark_group("hash");
    for size in [32usize, 1024] {
        let data = vec![0xa5u8; size];
        group.throughput(Throughput::Bytes(size as u64));
        group.bench_function(format!("sha256/{size}"), |b| b.iter(|| sha256(black_box(&data))));
        group.bench_function(format!("keccak256/{size}"), |b| {
            b.iter(|| keccak256(black_box(&data)))
        });
    }
    // A trie node's 65-byte preimage alone and sixteen at a time. Both
    // rows count messages, so their rates compare directly; the x16 row
    // returns all sixteen digests, so no lane can be optimised away.
    let nodes: [[u8; 65]; 16] =
        core::array::from_fn(|l| core::array::from_fn(|i| (65 * l + i) as u8));
    group.throughput(Throughput::Elements(1));
    group.bench_function("sha256/65", |b| b.iter(|| sha256(black_box(&nodes[0]))));
    group.throughput(Throughput::Elements(16));
    group.bench_function("sha256-x16/65", |b| b.iter(|| sha256_x16(black_box(&nodes))));
    // A trie leaf's value, as the ledger encodes an EVM storage word
    // (tag byte and 32 bytes), alone and sixteen at a time.
    let values: [[u8; 33]; 16] =
        core::array::from_fn(|l| core::array::from_fn(|i| (33 * l + i) as u8 ^ 0x5a));
    group.throughput(Throughput::Elements(1));
    group.bench_function("sha256/33", |b| b.iter(|| sha256(black_box(&values[0]))));
    group.throughput(Throughput::Elements(16));
    group.bench_function("sha256-x16/33", |b| {
        b.iter(|| sha256_x16_short(black_box(core::array::from_fn(|l| &values[l][..]))))
    });
    group.finish();
}

fn signatures(c: &mut Criterion) {
    let kp = Keypair::from_seed(&[7u8; 32]);
    let msg = [0x5au8; 96];
    let sig = kp.sign(&msg);
    c.bench_function("ed25519/sign", |b| b.iter(|| kp.sign(black_box(&msg))));
    // One key over and over: verify finds it prepared.
    c.bench_function("ed25519/verify", |b| {
        b.iter(|| assert!(kp.public.verify(black_box(&msg), &sig)))
    });
    // More keys than verify keeps prepared, in a cycle: every call meets
    // its key as if for the first time.
    let signed: Vec<_> = (0..600u16)
        .map(|i| {
            let mut seed = [0x6bu8; 32];
            seed[..2].copy_from_slice(&i.to_le_bytes());
            let kp = Keypair::from_seed(&seed);
            (kp.public, kp.sign(&msg))
        })
        .collect();
    c.bench_function("ed25519/verify-cold", |b| {
        let mut cycle = signed.iter().cycle();
        b.iter(|| {
            let (key, sig) = cycle.next().unwrap();
            assert!(key.verify(black_box(&msg), sig))
        })
    });
    // The decoding half of a first verification.
    c.bench_function("ed25519/decompress", |b| {
        b.iter(|| Point::decompress(black_box(&kp.public.0)).unwrap())
    });
    c.bench_function("ed25519/keygen", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            let mut seed = [0u8; 32];
            seed[..8].copy_from_slice(&i.to_le_bytes());
            Keypair::from_seed(black_box(&seed))
        })
    });
}

/// One row per operation a signature, a key or a sealed box is built
/// from: the field inverse, the fixed-base `[k]B` and the compression of
/// its result, the two X25519 uses, and the two scalar reductions.
fn operations(c: &mut Criterion) {
    let wide: [u8; 64] = core::array::from_fn(|i| (i as u8).wrapping_mul(151) ^ 0xa5);
    let k = scalar::reduce64(&wide);
    let x = Fe::from_bytes(&k);
    c.bench_function("field/invert", |b| b.iter(|| black_box(&x).invert()));
    c.bench_function("ed25519/mul_base", |b| b.iter(|| Point::mul_base(black_box(&k))));
    let k_b = Point::mul_base(&k);
    c.bench_function("ed25519/compress", |b| b.iter(|| black_box(&k_b).compress()));
    c.bench_function("x25519/keygen", |b| b.iter(|| XKeypair::from_seed(black_box(&k))));
    let (alice, bob) = (XKeypair::from_seed(&[1u8; 32]), XKeypair::from_seed(&[2u8; 32]));
    c.bench_function("x25519/dh", |b| b.iter(|| alice.diffie_hellman(black_box(&bob.public))));
    c.bench_function("scalar/reduce64", |b| b.iter(|| scalar::reduce64(black_box(&wide))));
    c.bench_function("scalar/muladd", |b| {
        b.iter(|| scalar::muladd(black_box(&k), black_box(&k), black_box(&k)))
    });
}

fn boxes(c: &mut Criterion) {
    let recipient = XKeypair::from_seed(&[4u8; 32]);
    let payload = [0x11u8; 32];
    c.bench_function("sealed/seal+open", |b| {
        b.iter_batched(
            || StdRng::seed_from_u64(1),
            |mut rng| {
                let boxed = sealed::seal(&mut rng, &recipient.public, black_box(&payload)).unwrap();
                sealed::open(&recipient, &boxed).unwrap()
            },
            BatchSize::SmallInput,
        )
    });
}

criterion_group!(benches, hashes, signatures, operations, boxes);
criterion_main!(benches);

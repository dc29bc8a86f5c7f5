//! RFC 8032 Ed25519 signatures over the edwards25519 curve.
//!
//! Used throughout the proof-of-location system: witnesses sign location
//! proofs, DID controllers prove key possession, and every transaction is
//! signed by its sender.

use crate::field25519::Fe;
use crate::sha512::Sha512;
use crate::{bigint, hex, scalar, CryptoError};
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

/// The curve constant d = −121665/121666.
const D: Fe =
    Fe([929955233495203, 466365720129213, 1662059464998953, 2033849074728123, 1442794654840575]);

/// 2d, the factor of the T₁T₂ term in the addition law.
const D2: Fe =
    Fe([1859910466990425, 932731440258426, 1072319116312658, 1815898335770999, 633789495995903]);

/// The standard base point B: y = 4/5, x even.
const BASE: Point = Point {
    x: Fe([1738742601995546, 1146398526822698, 2070867633025821, 562264141797630, 587772402128613]),
    y: Fe([1801439850948184, 1351079888211148, 450359962737049, 900719925474099, 1801439850948198]),
    z: Fe::ONE,
    t: Fe([1841354044333475, 16398895984059, 755974180946558, 900171276175154, 1821297809914039]),
};

/// wNAF width for the operand of `scalar_mul`, and the eight odd multiples
/// its digits index.
const VAR_WIDTH: usize = 5;
const VAR_ENTRIES: usize = 1 << (VAR_WIDTH - 2);
/// wNAF width for a key in `verify`, and the four odd multiples per chunk
/// its digits index.
const KEY_WIDTH: usize = 4;
const KEY_ENTRIES: usize = 1 << (KEY_WIDTH - 2);
/// wNAF width for the base point, and its 64 odd multiples per chunk.
const BASE_WIDTH: usize = 8;
const BASE_ENTRIES: usize = 1 << (BASE_WIDTH - 2);

/// `verify` splits both of its scalars into eight chunks of 32 digit
/// positions; the carry digit at position 256 belongs to the top chunk.
const CHUNKS: usize = 8;
const CHUNK_BITS: usize = 32;
/// The most keys `verify` keeps prepared (3.75 KiB each); a full memo is
/// cleared.
const PREPARED_KEYS: usize = 512;

/// The fixed-base comb reads a scalar as an 8 × 32 bit matrix (bit 32i + c
/// in tooth i, column c) and splits the columns into two blocks of 16.
const COMB_TEETH: usize = 8;
const COMB_BLOCKS: usize = 2;
const COMB_SPACING: usize = 16;
const COMB_TOOTH_BITS: usize = COMB_BLOCKS * COMB_SPACING;
/// The non-empty subsets of the teeth, one table entry each per block.
const COMB_ENTRIES: usize = (1 << COMB_TEETH) - 1;

/// A point on edwards25519 in extended homogeneous coordinates
/// (X : Y : Z : T) with x = X/Z, y = Y/Z, xy = T/Z.
#[derive(Clone, Copy, Debug)]
pub struct Point {
    x: Fe,
    y: Fe,
    z: Fe,
    t: Fe,
}

/// A point prepared as an addend, (Y+X, Y−X, 2Z, 2dT): the four products
/// of the addition law that depend on one operand only.
#[derive(Clone, Copy)]
struct Cached {
    y_plus_x: Fe,
    y_minus_x: Fe,
    z2: Fe,
    t2d: Fe,
}

/// A point prepared as an addend with Z = 1, (y+x, y−x, 2dxy): the cached
/// form without its Z, so an addition costs one product fewer. Every
/// table of odd multiples or subset sums holds this form.
#[derive(Clone, Copy)]
struct Affine {
    y_plus_x: Fe,
    y_minus_x: Fe,
    xy2d: Fe,
}

impl Affine {
    /// Negating (x, y) swaps y+x with y−x and flips xy.
    fn neg(&self) -> Affine {
        Affine { y_plus_x: self.y_minus_x, y_minus_x: self.y_plus_x, xy2d: self.xy2d.neg() }
    }
}

/// A sum or a double before its last four products: the point
/// (EF : GH : FG : EH). Doubling reads X, Y and Z only, so a result that
/// is doubled next never forms T = EH.
#[derive(Clone, Copy)]
struct Completed {
    e: Fe,
    f: Fe,
    g: Fe,
    h: Fe,
}

impl Completed {
    /// The neutral element (0 : 1 : 1 : 0).
    const IDENTITY: Completed = Completed { e: Fe::ZERO, f: Fe::ONE, g: Fe::ONE, h: Fe::ONE };

    fn to_extended(self) -> Point {
        Point {
            x: self.e.mul(&self.f),
            y: self.g.mul(&self.h),
            z: self.f.mul(&self.g),
            t: self.e.mul(&self.h),
        }
    }

    fn double(self) -> Completed {
        double_xyz(&self.e.mul(&self.f), &self.g.mul(&self.h), &self.f.mul(&self.g))
    }

    fn add_affine(self, rhs: &Affine) -> Completed {
        self.to_extended().add_affine(rhs)
    }
}

/// The doubling law on (X : Y : Z); it does not need T.
fn double_xyz(x: &Fe, y: &Fe, z: &Fe) -> Completed {
    let a = x.square();
    let b = y.square();
    let c = z.square().mul_small(2);
    let h = a.add(&b);
    let e = h.sub(&x.add(y).square());
    let g = a.sub(&b);
    let f = c.add(&g);
    Completed { e, f, g, h }
}

/// The signed digits of a scalar in width-w non-adjacent form, one per
/// bit position 0..=256.
type Naf = [i8; 257];

/// Recodes a 256-bit little-endian scalar in width-`w` non-adjacent
/// form: Σ dᵢ·2^i = k, every dᵢ zero or odd with |dᵢ| < 2^(w−1), and at
/// most one non-zero digit in any `w` consecutive positions. Any 32
/// bytes are a valid input: a carry out of bit 255 lands on digit 256.
fn wnaf(k: &[u8; 32], w: usize) -> Naf {
    let k = bigint::from_le_bytes32(k);
    // One spare limb, so a window starting below bit 256 may read past it.
    let limbs = [k[0], k[1], k[2], k[3], 0];
    let width = 1i32 << w;
    let mut naf = [0i8; 257];
    let mut carry = 0i32;
    let mut pos = 0;
    while pos < naf.len() {
        let (idx, bit) = (pos / 64, pos % 64);
        let mut bits = limbs[idx] >> bit;
        if bit + w > 64 {
            bits |= limbs[idx + 1] << (64 - bit);
        }
        let window = carry + (bits & (width as u64 - 1)) as i32;
        if window & 1 == 0 {
            pos += 1;
            continue;
        }
        // An odd window is this position's digit: taken as is when it is
        // below 2^(w−1), else as window − 2^w with a carry into the next.
        // Within w−1 positions of the top the bits above 255 are zero, so
        // the window is below 2^(w−1) and the last carry is always spent.
        carry = i32::from(window >= width / 2);
        naf[pos] = (window - carry * width) as i8;
        pos += w;
    }
    naf
}

/// P, 3P, 5P, …, (2N−1)P.
fn odd_multiples<const N: usize>(p: &Point) -> [Point; N] {
    let p2 = p.double().to_cached();
    let mut multiple = *p;
    core::array::from_fn(|i| {
        if i > 0 {
            multiple = multiple.add_cached(&p2).to_extended();
        }
        multiple
    })
}

/// The odd multiples of [2^(32i)]P for each chunk i.
fn chunk_multiples<const N: usize>(p: &Point) -> [[Point; N]; CHUNKS] {
    let mut row = *p;
    core::array::from_fn(|i| {
        if i > 0 {
            row = row.double_n(CHUNK_BITS);
        }
        odd_multiples(&row)
    })
}

/// Every point of `rows` as an affine addend, the whole set normalised
/// with one inversion (Montgomery's trick): the product of every Z is
/// inverted once, and each 1/Z is recovered from it with two products.
fn batch_to_affine<const N: usize, const M: usize>(rows: &[[Point; N]; M]) -> [[Affine; N]; M] {
    let points = rows.as_flattened();
    // First Z₀·…·Zᵢ₋₁ at each i, then 1/Zᵢ in its place, last point first.
    let mut zinv = Vec::with_capacity(points.len());
    let mut product = Fe::ONE;
    for p in points {
        zinv.push(product);
        product = product.mul(&p.z);
    }
    let mut inv = product.invert();
    for (z, p) in zinv.iter_mut().zip(points).rev() {
        *z = inv.mul(z);
        inv = inv.mul(&p.z);
    }
    core::array::from_fn(|i| core::array::from_fn(|j| rows[i][j].to_affine(&zinv[i * N + j])))
}

/// The odd multiples B, 3B, …, 127B of [2^(32i)]B for each chunk i
/// (60 KiB), built on first use.
fn base_tables() -> &'static [[Affine; BASE_ENTRIES]; CHUNKS] {
    static TABLES: OnceLock<[[Affine; BASE_ENTRIES]; CHUNKS]> = OnceLock::new();
    TABLES.get_or_init(|| batch_to_affine(&chunk_multiples(&BASE)))
}

/// A key as `verify` reads it: −A, −3A, −5A, −7A and the same multiples
/// of −[2^(32i)]A for each chunk i (3.75 KiB).
type PreparedKey = [[Affine; KEY_ENTRIES]; CHUNKS];

/// The process-wide memo of prepared keys, by their exact bytes.
fn prepared_keys() -> &'static Mutex<HashMap<[u8; 32], Arc<PreparedKey>>> {
    static MEMO: OnceLock<Mutex<HashMap<[u8; 32], Arc<PreparedKey>>>> = OnceLock::new();
    MEMO.get_or_init(Mutex::default)
}

/// The prepared form of the key encoded by `bytes`, or `None`, and nothing
/// kept, when it does not decompress. A key is prepared outside the lock,
/// and a memo holding `PREPARED_KEYS` keys is cleared before the next
/// insert. Each update is one whole insert or clear, so a map whose lock
/// was poisoned still holds only correct tables and is used as it is.
fn prepared_key(bytes: &[u8; 32]) -> Option<Arc<PreparedKey>> {
    let memo = prepared_keys();
    if let Some(key) = memo.lock().unwrap_or_else(PoisonError::into_inner).get(bytes) {
        return Some(Arc::clone(key));
    }
    let key = Arc::new(batch_to_affine(&chunk_multiples(&Point::decompress(bytes).ok()?.neg())));
    let mut memo = memo.lock().unwrap_or_else(PoisonError::into_inner);
    if memo.len() >= PREPARED_KEYS {
        memo.clear();
    }
    memo.insert(*bytes, Arc::clone(&key));
    Some(key)
}

/// A recoded scalar's digits by chunk: digit p sits in chunk
/// min(p / 32, 7) at offset p − 32·chunk, so only the top chunk has a
/// digit at offset 32, the carry out of bit 255.
type ChunkedNaf = [[i8; CHUNK_BITS + 1]; CHUNKS];

fn chunked(naf: &Naf) -> ChunkedNaf {
    let mut chunks = [[0i8; CHUNK_BITS + 1]; CHUNKS];
    for (p, &digit) in naf.iter().enumerate() {
        let chunk = (p / CHUNK_BITS).min(CHUNKS - 1);
        chunks[chunk][p - chunk * CHUNK_BITS] = digit;
    }
    chunks
}

/// Σ [kᵢ]Pᵢ in one interleaved pass (Straus): the doublings are shared,
/// and each term adds a table entry, or its negation, where its digits
/// are non-zero. Each term is a row of wNAF digits, all rows the same
/// length, and the odd multiples of its point.
fn multi_scalar_mul(terms: &[(&[i8], &[Affine])]) -> Point {
    let len = terms.first().map_or(0, |(digits, _)| digits.len());
    let used = |offset: &usize| terms.iter().any(|(digits, _)| digits[*offset] != 0);
    let top = (0..len).rev().find(used).unwrap_or(0);
    let mut acc = Completed::IDENTITY;
    for offset in (0..=top).rev() {
        for (digits, table) in terms {
            let digit = digits[offset];
            if digit != 0 {
                let entry = &table[usize::from(digit.unsigned_abs() / 2)];
                acc = acc.add_affine(&if digit > 0 { *entry } else { entry.neg() });
            }
        }
        if offset > 0 {
            acc = acc.double();
        }
    }
    acc.to_extended()
}

/// `[k]P + [s]B` for the point P whose chunk tables are `key`, as sixteen
/// Straus terms. Each scalar's digits are split by `chunked`, so with kᵢ
/// and sᵢ the digits of chunk i it is Σ [kᵢ]([2^(32i)]P) + [sᵢ]([2^(32i)]B),
/// the same group element, for at most 31 doublings when k, s < 2^253
/// (32 with a carry digit) instead of about 253.
fn split_double_scalar_mul(k: &[u8; 32], key: &PreparedKey, s: &[u8; 32]) -> Point {
    let k = chunked(&wnaf(k, KEY_WIDTH));
    let s = chunked(&wnaf(s, BASE_WIDTH));
    let base = base_tables();
    let terms: [(&[i8], &[Affine]); 2 * CHUNKS] = core::array::from_fn(|i| {
        if i < CHUNKS {
            (&k[i][..], &key[i][..])
        } else {
            (&s[i - CHUNKS][..], &base[i - CHUNKS][..])
        }
    });
    multi_scalar_mul(&terms)
}

/// The comb's table (510 entries, 60 KiB), built on first use: for block
/// j, entry m − 1 is Σ 2^(32i + 16j)·B over the teeth i set in the mask m.
fn comb_table() -> &'static [[Affine; COMB_ENTRIES]; COMB_BLOCKS] {
    static TABLE: OnceLock<[[Affine; COMB_ENTRIES]; COMB_BLOCKS]> = OnceLock::new();
    TABLE.get_or_init(|| {
        batch_to_affine(&core::array::from_fn(|block| {
            let mut tooth = BASE.double_n(block * COMB_SPACING);
            let mut sums = [Point::identity(); 1 << COMB_TEETH];
            for i in 0..COMB_TEETH {
                for mask in 0..1 << i {
                    sums[mask | 1 << i] = sums[mask].add(&tooth);
                }
                tooth = tooth.double_n(COMB_TOOTH_BITS);
            }
            core::array::from_fn(|m| sums[m + 1])
        }))
    })
}

/// The comb's column at `bit` (below 32): bit `bit + 32i` of `k` as bit i
/// of a subset mask.
fn comb_mask(k: &[u8; 32], bit: usize) -> usize {
    let mut mask = 0;
    for i in 0..COMB_TEETH {
        let n = bit + i * COMB_TOOTH_BITS;
        if n < 256 && (k[n / 8] >> (n % 8)) & 1 == 1 {
            mask |= 1 << i;
        }
    }
    mask
}

impl Point {
    /// The neutral element (0, 1).
    pub fn identity() -> Point {
        Point { x: Fe::ZERO, y: Fe::ONE, z: Fe::ONE, t: Fe::ZERO }
    }

    /// The standard base point B with y = 4/5.
    pub fn base() -> Point {
        BASE
    }

    fn to_cached(self) -> Cached {
        Cached {
            y_plus_x: self.y.add(&self.x),
            y_minus_x: self.y.sub(&self.x),
            z2: self.z.mul_small(2),
            t2d: self.t.mul(&D2),
        }
    }

    /// This point as an affine addend, given 1/Z.
    fn to_affine(self, zinv: &Fe) -> Affine {
        let x = self.x.mul(zinv);
        let y = self.y.mul(zinv);
        Affine { y_plus_x: y.add(&x), y_minus_x: y.sub(&x), xy2d: x.mul(&y).mul(&D2) }
    }

    /// The unified, complete addition law against a prepared addend.
    fn add_cached(&self, rhs: &Cached) -> Completed {
        let a = self.y.sub(&self.x).mul(&rhs.y_minus_x);
        let b = self.y.add(&self.x).mul(&rhs.y_plus_x);
        let c = self.t.mul(&rhs.t2d);
        let d = self.z.mul(&rhs.z2);
        Completed { e: b.sub(&a), f: d.sub(&c), g: d.add(&c), h: b.add(&a) }
    }

    /// The same law against an affine addend, whose Z = 1 turns the
    /// product Z₁·2Z₂ into 2Z₁.
    fn add_affine(&self, rhs: &Affine) -> Completed {
        let a = self.y.sub(&self.x).mul(&rhs.y_minus_x);
        let b = self.y.add(&self.x).mul(&rhs.y_plus_x);
        let c = self.t.mul(&rhs.xy2d);
        let d = self.z.add(&self.z);
        Completed { e: b.sub(&a), f: d.sub(&c), g: d.add(&c), h: b.add(&a) }
    }

    /// Point addition (unified, complete formulas).
    pub fn add(&self, rhs: &Point) -> Point {
        self.add_cached(&rhs.to_cached()).to_extended()
    }

    /// Point doubling.
    pub fn double(&self) -> Point {
        double_xyz(&self.x, &self.y, &self.z).to_extended()
    }

    /// `[2^n]P` by n doublings, of which only the last forms T.
    fn double_n(&self, n: usize) -> Point {
        if n == 0 {
            return *self;
        }
        (1..n).fold(double_xyz(&self.x, &self.y, &self.z), |acc, _| acc.double()).to_extended()
    }

    /// Negation: (x, y) → (−x, y).
    pub(crate) fn neg(&self) -> Point {
        Point { x: self.x.neg(), y: self.y, z: self.z, t: self.t.neg() }
    }

    /// Scalar multiplication by a little-endian 32-byte scalar (any 256-bit
    /// value, reduced or not). Variable-time, like everything in this
    /// simulation's substrate.
    pub fn scalar_mul(&self, k: &[u8; 32]) -> Point {
        let [table] = batch_to_affine(&[odd_multiples::<VAR_ENTRIES>(self)]);
        multi_scalar_mul(&[(&wnaf(k, VAR_WIDTH), &table)])
    }

    /// `[k]B` for the base point B and any 256-bit `k`, by a fixed-base
    /// comb (Lim–Lee): column t of each block selects one subset sum, so
    /// the 32 columns cost 15 doublings and at most 32 additions.
    pub fn mul_base(k: &[u8; 32]) -> Point {
        let table = comb_table();
        let mut acc = Completed::IDENTITY;
        for t in (0..COMB_SPACING).rev() {
            for (block, entries) in table.iter().enumerate() {
                let mask = comb_mask(k, block * COMB_SPACING + t);
                if mask != 0 {
                    acc = acc.add_affine(&entries[mask - 1]);
                }
            }
            if t > 0 {
                acc = acc.double();
            }
        }
        acc.to_extended()
    }

    /// The u-coordinate (Z + Y)/(Z − Y) of this point's image on
    /// Curve25519 under RFC 7748 §4.1's birational map, which takes B to
    /// u = 9.
    pub(crate) fn montgomery_u(&self) -> [u8; 32] {
        self.z.add(&self.y).mul(&self.z.sub(&self.y).invert()).to_bytes()
    }

    /// Compresses to the 32-byte encoding: y with the sign of x in bit 255.
    pub fn compress(&self) -> [u8; 32] {
        let zinv = self.z.invert();
        let x = self.x.mul(&zinv);
        let y = self.y.mul(&zinv);
        let mut out = y.to_bytes();
        if x.is_negative() {
            out[31] |= 0x80;
        }
        out
    }

    /// Decompresses a 32-byte encoding.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::InvalidPoint`] when the encoding does not
    /// correspond to a curve point.
    pub fn decompress(bytes: &[u8; 32]) -> Result<Point, CryptoError> {
        let sign = bytes[31] >> 7;
        let y = Fe::from_bytes(bytes);
        let y2 = y.square();
        let u = y2.sub(&Fe::ONE);
        let v = y2.mul(&D).add(&Fe::ONE);
        // Candidate root of u/v: (u v^3) (u v^7)^((p−5)/8).
        let v3 = v.square().mul(&v);
        let v7 = v3.square().mul(&v);
        let mut x = u.mul(&v3).mul(&u.mul(&v7).pow_p58());
        let vx2 = v.mul(&x.square());
        if vx2 != u {
            if vx2 == u.neg() {
                x = x.mul(&Fe::sqrt_m1());
            } else {
                return Err(CryptoError::InvalidPoint);
            }
        }
        if x.is_zero() && sign == 1 {
            return Err(CryptoError::InvalidPoint);
        }
        if x.is_negative() != (sign == 1) {
            x = x.neg();
        }
        Ok(Point { x, y, z: Fe::ONE, t: x.mul(&y) })
    }

    /// Whether two points are equal as projective points.
    pub fn ct_eq(&self, other: &Point) -> bool {
        // x1 z2 == x2 z1 and y1 z2 == y2 z1
        self.x.mul(&other.z) == other.x.mul(&self.z) && self.y.mul(&other.z) == other.y.mul(&self.z)
    }
}

impl PartialEq for Point {
    fn eq(&self, other: &Self) -> bool {
        self.ct_eq(other)
    }
}

impl Eq for Point {}

/// An Ed25519 public key (compressed point).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PublicKey(pub [u8; 32]);

/// An Ed25519 secret key (32-byte seed).
#[derive(Clone)]
pub struct SecretKey {
    seed: [u8; 32],
}

/// An Ed25519 signature (R ‖ s).
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Signature {
    /// Compressed nonce commitment R.
    pub r: [u8; 32],
    /// Response scalar s.
    pub s: [u8; 32],
}

/// A signing keypair.
#[derive(Clone)]
pub struct Keypair {
    /// Secret half.
    pub secret: SecretKey,
    /// Public half.
    pub public: PublicKey,
}

impl std::fmt::Debug for PublicKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "PublicKey({})", hex::encode(&self.0))
    }
}

impl std::fmt::Display for PublicKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&hex::encode(&self.0))
    }
}

impl std::fmt::Debug for SecretKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "SecretKey(..)")
    }
}

impl std::fmt::Debug for Signature {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Signature({})", hex::encode(&self.to_bytes()))
    }
}

impl std::fmt::Debug for Keypair {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Keypair(public: {})", self.public)
    }
}

impl Signature {
    /// Serializes to the 64-byte wire form R ‖ s.
    pub fn to_bytes(&self) -> [u8; 64] {
        let mut out = [0u8; 64];
        out[..32].copy_from_slice(&self.r);
        out[32..].copy_from_slice(&self.s);
        out
    }

    /// Parses the 64-byte wire form.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::NonCanonicalScalar`] when s ≥ ℓ, which also
    /// rejects signature malleability.
    pub fn from_bytes(bytes: &[u8; 64]) -> Result<Signature, CryptoError> {
        let mut r = [0u8; 32];
        let mut s = [0u8; 32];
        r.copy_from_slice(&bytes[..32]);
        s.copy_from_slice(&bytes[32..]);
        if !scalar::is_canonical(&s) {
            return Err(CryptoError::NonCanonicalScalar);
        }
        Ok(Signature { r, s })
    }
}

impl SecretKey {
    /// Builds a secret key from a 32-byte seed.
    pub(crate) fn from_seed(seed: &[u8; 32]) -> SecretKey {
        SecretKey { seed: *seed }
    }

    fn expand(&self) -> ([u8; 32], [u8; 32]) {
        let h = crate::sha512(&self.seed);
        let mut a = [0u8; 32];
        a.copy_from_slice(&h[..32]);
        a[0] &= 248;
        a[31] &= 63;
        a[31] |= 64;
        let mut prefix = [0u8; 32];
        prefix.copy_from_slice(&h[32..]);
        (a, prefix)
    }
}

impl Keypair {
    /// Derives the keypair deterministically from a 32-byte seed.
    pub fn from_seed(seed: &[u8; 32]) -> Keypair {
        let secret = SecretKey::from_seed(seed);
        let (a, _) = secret.expand();
        let public = PublicKey(Point::mul_base(&a).compress());
        Keypair { secret, public }
    }

    /// Generates a fresh keypair from the given random source.
    pub fn generate<R: rand::RngCore>(rng: &mut R) -> Keypair {
        let mut seed = [0u8; 32];
        rng.fill_bytes(&mut seed);
        Keypair::from_seed(&seed)
    }

    /// Produces the deterministic RFC 8032 signature of `message`.
    pub fn sign(&self, message: &[u8]) -> Signature {
        let (a, prefix) = self.secret.expand();
        let mut h = Sha512::new();
        h.update(&prefix);
        h.update(message);
        let r = scalar::reduce64(&h.finalize());
        let r_point = Point::mul_base(&r).compress();
        let mut h = Sha512::new();
        h.update(&r_point);
        h.update(&self.public.0);
        h.update(message);
        let k = scalar::reduce64(&h.finalize());
        let s = scalar::muladd(&k, &a, &r);
        Signature { r: r_point, s }
    }
}

impl PublicKey {
    /// Verifies `signature` over `message`: s is canonical, R and the key A
    /// both decompress, and the cofactorless equation `[s]B = R + [k]A` holds
    /// with k = H(R ‖ A ‖ M) mod ℓ. The equation is evaluated as
    /// `[s]B − [k]A == R`: one multi-scalar multiplication with both
    /// scalars split into eight 32-bit chunks, whose result P is compressed
    /// and compared with `r`, R's bytes with y reduced mod p and R's sign
    /// bit kept. Small-order keys and R are not singled out. A key's tables
    /// are built on its first verification and kept in a bounded
    /// process-wide memo.
    ///
    /// Comparing encodings decides as decompressing R and comparing points
    /// did. If `r` decompresses to a point Q, then `compress(Q) == r`:
    /// `decompress` takes the x whose parity is R's sign bit and refuses
    /// x = 0 with the bit set, so Q's encoding is y mod p with that bit.
    /// Since compression is injective on points, P == Q exactly when
    /// `compress(P) == r`. If `r` does not decompress, no point has an
    /// encoding equal to it, and both ways refuse. A non-canonical y ≥ p
    /// decompresses as y − p, which the reduction in `r` matches; k still
    /// hashes R's original bytes.
    ///
    /// Returns `false` for invalid points, non-canonical scalars, or a
    /// failed group equation — never panics on malformed input.
    pub fn verify(&self, message: &[u8], signature: &Signature) -> bool {
        if !scalar::is_canonical(&signature.s) {
            return false;
        }
        let Some(key) = prepared_key(&self.0) else {
            return false;
        };
        let mut h = Sha512::new();
        h.update(&signature.r);
        h.update(&self.0);
        h.update(message);
        let k = scalar::reduce64(&h.finalize());
        let mut r = Fe::from_bytes(&signature.r).to_bytes();
        r[31] |= signature.r[31] & 0x80;
        split_double_scalar_mul(&k, &key, &signature.s).compress() == r
    }

    /// Parses a public key from its lowercase hex encoding.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::BadEncoding`] for malformed hex.
    pub fn from_hex(s: &str) -> Result<PublicKey, CryptoError> {
        Ok(PublicKey(hex::decode_array(s)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hex;

    fn seed(s: &str) -> [u8; 32] {
        hex::decode_array(s).unwrap()
    }

    #[test]
    fn rfc8032_test1_empty_message() {
        let kp = Keypair::from_seed(&seed(
            "9d61b19deffd5a60ba844af492ec2cc44449c5697b326919703bac031cae7f60",
        ));
        assert_eq!(
            hex::encode(&kp.public.0),
            "d75a980182b10ab7d54bfed3c964073a0ee172f3daa62325af021a68f707511a"
        );
        let sig = kp.sign(b"");
        assert_eq!(
            hex::encode(&sig.to_bytes()),
            "e5564300c360ac729086e2cc806e828a84877f1eb8e5d974d873e06522490155\
             5fb8821590a33bacc61e39701cf9b46bd25bf5f0595bbe24655141438e7a100b"
        );
        assert!(kp.public.verify(b"", &sig));
    }

    #[test]
    fn rfc8032_test2_one_byte() {
        let kp = Keypair::from_seed(&seed(
            "4ccd089b28ff96da9db6c346ec114e0f5b8a319f35aba624da8cf6ed4fb8a6fb",
        ));
        assert_eq!(
            hex::encode(&kp.public.0),
            "3d4017c3e843895a92b70aa74d1b7ebc9c982ccf2ec4968cc0cd55f12af4660c"
        );
        let sig = kp.sign(&[0x72]);
        assert_eq!(
            hex::encode(&sig.to_bytes()),
            "92a009a9f0d4cab8720e820b5f642540a2b27b5416503f8fb3762223ebdb69da\
             085ac1e43e15996e458f3613d0f11d8c387b2eaeb4302aeeb00d291612bb0c00"
        );
    }

    #[test]
    fn rfc8032_test3_two_bytes() {
        let kp = Keypair::from_seed(&seed(
            "c5aa8df43f9f837bedb7442f31dcb7b166d38535076f094b85ce3a2e0b4458f7",
        ));
        let sig = kp.sign(&[0xaf, 0x82]);
        assert_eq!(
            hex::encode(&sig.to_bytes()),
            "6291d657deec24024827e69c3abe01a30ce548a284743a445e3680d7db5ac3ac\
             18ff9b538d16f290ae67f760984dc6594a7c15e9716ed28dc027beceea1ec40a"
        );
        assert!(kp.public.verify(&[0xaf, 0x82], &sig));
    }

    /// The 1023-byte message of RFC 8032 section 7.1 "TEST 1024".
    const RFC8032_MSG_1024: &str =
        "08b8b2b733424243760fe426a4b54908632110a66c2f6591eabd3345e3e4eb98\
         fa6e264bf09efe12ee50f8f54e9f77b1e355f6c50544e23fb1433ddf73be84d8\
         79de7c0046dc4996d9e773f4bc9efe5738829adb26c81b37c93a1b270b20329d\
         658675fc6ea534e0810a4432826bf58c941efb65d57a338bbd2e26640f89ffbc\
         1a858efcb8550ee3a5e1998bd177e93a7363c344fe6b199ee5d02e82d522c4fe\
         ba15452f80288a821a579116ec6dad2b3b310da903401aa62100ab5d1a36553e\
         06203b33890cc9b832f79ef80560ccb9a39ce767967ed628c6ad573cb116dbef\
         efd75499da96bd68a8a97b928a8bbc103b6621fcde2beca1231d206be6cd9ec7\
         aff6f6c94fcd7204ed3455c68c83f4a41da4af2b74ef5c53f1d8ac70bdcb7ed1\
         85ce81bd84359d44254d95629e9855a94a7c1958d1f8ada5d0532ed8a5aa3fb2\
         d17ba70eb6248e594e1a2297acbbb39d502f1a8c6eb6f1ce22b3de1a1f40cc24\
         554119a831a9aad6079cad88425de6bde1a9187ebb6092cf67bf2b13fd65f270\
         88d78b7e883c8759d2c4f5c65adb7553878ad575f9fad878e80a0c9ba63bcbcc\
         2732e69485bbc9c90bfbd62481d9089beccf80cfe2df16a2cf65bd92dd597b07\
         07e0917af48bbb75fed413d238f5555a7a569d80c3414a8d0859dc65a46128ba\
         b27af87a71314f318c782b23ebfe808b82b0ce26401d2e22f04d83d1255dc51a\
         ddd3b75a2b1ae0784504df543af8969be3ea7082ff7fc9888c144da2af58429e\
         c96031dbcad3dad9af0dcbaaaf268cb8fcffead94f3c7ca495e056a9b47acdb7\
         51fb73e666c6c655ade8297297d07ad1ba5e43f1bca32301651339e22904cc8c\
         42f58c30c04aafdb038dda0847dd988dcda6f3bfd15c4b4c4525004aa06eeff8\
         ca61783aacec57fb3d1f92b0fe2fd1a85f6724517b65e614ad6808d6f6ee34df\
         f7310fdc82aebfd904b01e1dc54b2927094b2db68d6f903b68401adebf5a7e08\
         d78ff4ef5d63653a65040cf9bfd4aca7984a74d37145986780fc0b16ac451649\
         de6188a7dbdf191f64b5fc5e2ab47b57f7f7276cd419c17a3ca8e1b939ae49e4\
         88acba6b965610b5480109c8b17b80e1b7b750dfc7598d5d5011fd2dcc5600a3\
         2ef5b52a1ecc820e308aa342721aac0943bf6686b64b2579376504ccc493d97e\
         6aed3fb0f9cd71a43dd497f01f17c0e2cb3797aa2a2f256656168e6c496afc5f\
         b93246f6b1116398a346f1a641f3b041e989f7914f90cc2c7fff357876e506b5\
         0d334ba77c225bc307ba537152f3f1610e4eafe595f6d9d90d11faa933a15ef1\
         369546868a7f3a45a96768d40fd9d03412c091c6315cf4fde7cb68606937380d\
         b2eaaa707b4c4185c32eddcdd306705e4dc1ffc872eeee475a64dfac86aba41c\
         0618983f8741c5ef68d3a101e8a3b8cac60c905c15fc910840b94c00a0b9d0";

    #[test]
    fn rfc8032_test_1024_bytes() {
        let kp = Keypair::from_seed(&seed(
            "f5e5767cf153319517630f226876b86c8160cc583bc013744c6bf255f5cc0ee5",
        ));
        assert_eq!(
            hex::encode(&kp.public.0),
            "278117fc144c72340f67d0f2316e8386ceffbf2b2428c9c51fef7c597f1d426e"
        );
        let msg = hex::decode(RFC8032_MSG_1024).unwrap();
        assert_eq!(msg.len(), 1023);
        let sig = kp.sign(&msg);
        assert_eq!(
            hex::encode(&sig.to_bytes()),
            "0aab4c900501b3e24d7cdf4663326a3a87df5e4843b2cbdb67cbf6e460fec350\
             aa5371b1508f9f4528ecea23c436d94b5e8fcd4f681e30a6ac00a9704a188a03"
        );
        assert!(kp.public.verify(&msg, &sig));
    }

    #[test]
    fn rfc8032_test_sha_abc() {
        let kp = Keypair::from_seed(&seed(
            "833fe62409237b9d62ec77587520911e9a759cec1d19755b7da901b96dca3d42",
        ));
        assert_eq!(
            hex::encode(&kp.public.0),
            "ec172b93ad5e563bf4932c70e1245034c35467ef2efd4d64ebf819683467e2bf"
        );
        let msg = crate::sha512(b"abc");
        let sig = kp.sign(&msg);
        assert_eq!(
            hex::encode(&sig.to_bytes()),
            "dc2a4459e7369633a52b1bf277839a00201009a3efbf3ecb69bea2186c26b589\
             09351fc9ac90b3ecfdfbc7c66431e0303dca179c138ac17ad9bef1177331a704"
        );
        assert!(kp.public.verify(&msg, &sig));
    }

    #[test]
    fn tampered_message_rejected() {
        let kp = Keypair::from_seed(&[1u8; 32]);
        let sig = kp.sign(b"hello");
        assert!(!kp.public.verify(b"hellO", &sig));
    }

    #[test]
    fn wrong_key_rejected() {
        let kp1 = Keypair::from_seed(&[1u8; 32]);
        let kp2 = Keypair::from_seed(&[2u8; 32]);
        let sig = kp1.sign(b"hello");
        assert!(!kp2.public.verify(b"hello", &sig));
    }

    #[test]
    fn malleable_s_rejected() {
        let kp = Keypair::from_seed(&[3u8; 32]);
        let sig = kp.sign(b"msg");
        // Add ℓ to s: same point equation, non-canonical encoding.
        let l_bytes = crate::bigint::to_le_bytes32(&crate::scalar::L);
        let (s_plus_l, _) = crate::bigint::add256(
            &crate::bigint::from_le_bytes32(&sig.s),
            &crate::bigint::from_le_bytes32(&l_bytes),
        );
        let forged = Signature { r: sig.r, s: crate::bigint::to_le_bytes32(&s_plus_l) };
        assert!(!kp.public.verify(b"msg", &forged));
        assert_eq!(Signature::from_bytes(&forged.to_bytes()), Err(CryptoError::NonCanonicalScalar));
    }

    /// The eight small-order encodings, then the non-canonical (y ≥ p) and
    /// x = 0-with-sign encodings. Beside each: whether it decompresses, and
    /// for which of the sixteen taken as R (first row = top bit) the signature
    /// (R, s = 0) over "edge" verifies under it as the key. All three columns
    /// were recorded from the double-and-add verifier this one replaced.
    const EDGE_ENCODINGS: [(&str, bool, u16); 16] = [
        // identity (0, 1), order 1
        ("0100000000000000000000000000000000000000000000000000000000000000", true, 0x8020),
        // (0, −1), order 2
        ("ecffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f", true, 0x4000),
        // (√−1, 0), order 4
        ("0000000000000000000000000000000000000000000000000000000000000000", true, 0x2000),
        // (−√−1, 0), order 4
        ("0000000000000000000000000000000000000000000000000000000000000080", true, 0x4080),
        // order 8
        ("26e8958fc2b227b045c3f489f2ef98f0d5dfac05d3c63339b13802886d53fc05", true, 0x4040),
        // order 8
        ("26e8958fc2b227b045c3f489f2ef98f0d5dfac05d3c63339b13802886d53fc85", true, 0x0480),
        // order 8
        ("c7176a703d4dd84fba3c0b760d10670f2a2053fa2c39ccc64ec7fd7792ac037a", true, 0x0020),
        // order 8
        ("c7176a703d4dd84fba3c0b760d10670f2a2053fa2c39ccc64ec7fd7792ac03fa", true, 0x0a20),
        // y = p ≡ 0, non-canonical, order 4
        ("edffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f", true, 0x2000),
        // y = p ≡ 0 with the sign bit, order 4
        ("edffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff", true, 0x0020),
        // y = p + 1 ≡ 1, non-canonical identity
        ("eeffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f", true, 0x8020),
        // y = p + 1 ≡ 1, x = 0 with the sign bit
        ("eeffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff", false, 0x0000),
        // y = 2^255 − 1 ≡ 18, non-canonical
        ("ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f", true, 0x0000),
        // y = 2^255 − 1 ≡ 18 with the sign bit
        ("ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff", true, 0x0000),
        // y = 1, x = 0 with the sign bit
        ("0100000000000000000000000000000000000000000000000000000000000080", false, 0x0000),
        // y = −1, x = 0 with the sign bit
        ("ecffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff", false, 0x0000),
    ];

    #[test]
    fn edge_vector_decisions_match_the_recorded_verifier() {
        let kp = Keypair::from_seed(&[5u8; 32]);
        let msg = b"edge";
        let sig = kp.sign(msg);
        assert_eq!(
            hex::encode(&sig.to_bytes()),
            "1a8ab45ccd0691f96b55477cfc59dc11478383bb0ac36a6cfbebc7cd80bf5333\
             a0da4e086420e40c9274d56bc624e69ed51706f0c9adbbae663d847547064003"
        );
        assert!(kp.public.verify(msg, &sig));

        // Boundary values of s under an honest key and R.
        let l = bigint::to_le_bytes32(&scalar::L);
        let l_minus_1 = bigint::to_le_bytes32(&bigint::sub256(&scalar::L, &[1, 0, 0, 0]).0);
        for s in [[0u8; 32], l_minus_1, l] {
            assert!(!kp.public.verify(msg, &Signature { r: sig.r, s }), "s = {}", hex::encode(&s));
        }

        let decode = |e: &str| -> [u8; 32] { hex::decode_array(e).unwrap() };
        // Twice, the second time in reverse order, so every key that
        // decompresses decides again from its prepared tables.
        for (encoding, decompresses, accepted_r) in
            EDGE_ENCODINGS.into_iter().chain(EDGE_ENCODINGS.into_iter().rev())
        {
            let bytes = decode(encoding);
            assert_eq!(Point::decompress(&bytes).is_ok(), decompresses, "decompress {encoding}");
            // Never a substitute for an honest R or an honest key.
            for s in [sig.s, [0u8; 32]] {
                assert!(!kp.public.verify(msg, &Signature { r: bytes, s }), "as R: {encoding}");
            }
            assert!(!PublicKey(bytes).verify(msg, &sig), "as key: {encoding}");
            // With s = 0 the equation is R = −[k]A inside the small subgroup,
            // which a cofactorless verifier that singles out no small-order
            // point accepts wherever it happens to hold.
            for (j, (r, _, _)) in EDGE_ENCODINGS.iter().enumerate() {
                let forged = Signature { r: decode(r), s: [0u8; 32] };
                let accepted = accepted_r & (0x8000 >> j) != 0;
                assert_eq!(
                    PublicKey(bytes).verify(msg, &forged),
                    accepted,
                    "key {encoding}, R {r}"
                );
            }
        }
    }

    #[test]
    fn curve_constants_match_their_encodings() {
        // d = −121665/121666 and B = (x, 4/5) as RFC 8032 section 5.1 spells them.
        let d = Fe::from_bytes(&seed(
            "a3785913ca4deb75abd841414d0a700098e879777940c78c73fe6f2bee6c0352",
        ));
        assert_eq!(D.0, d.0);
        assert_eq!(D2.0, Fe::from_bytes(&d.add(&d).to_bytes()).0);
        let b = Point::decompress(&seed(
            "5866666666666666666666666666666666666666666666666666666666666666",
        ))
        .unwrap();
        let limbs = |f: Fe| Fe::from_bytes(&f.to_bytes()).0;
        assert_eq!(
            (BASE.x.0, BASE.y.0, BASE.z.0, BASE.t.0),
            (limbs(b.x), limbs(b.y), limbs(b.z), limbs(b.t))
        );
        assert_eq!(BASE.y.mul_small(5), Fe([4, 0, 0, 0, 0]));
        assert!(!BASE.x.is_negative());
    }

    #[test]
    fn point_algebra() {
        let b = Point::base();
        assert_eq!(b.add(&b), b.double());
        assert_eq!(b.add(&b.neg()), Point::identity());
        let mut k = [0u8; 32];
        k[0] = 5;
        let five_b = b.scalar_mul(&k);
        let manual = b.double().double().add(&b);
        assert_eq!(five_b, manual);
    }

    /// However many keys arrive, the memo never holds more than its bound,
    /// and a key that does not decompress is never kept.
    #[test]
    fn memo_holds_at_most_its_bound() {
        for i in 0..PREPARED_KEYS as u16 + 8 {
            let mut seed = [0x5eu8; 32];
            seed[..2].copy_from_slice(&i.to_le_bytes());
            assert!(prepared_key(&Keypair::from_seed(&seed).public.0).is_some());
            assert!(prepared_keys().lock().unwrap().len() <= PREPARED_KEYS);
        }
        let mut seven = [0u8; 32];
        seven[0] = 7;
        assert!(prepared_key(&seven).is_none());
        assert!(!prepared_keys().lock().unwrap().contains_key(&seven));
    }

    /// `[k]P` by MSB-first double-and-add over the public group law.
    fn double_and_add(p: &Point, k: &[u8; 32]) -> Point {
        (0..256).rev().fold(Point::identity(), |acc, n| {
            let acc = acc.double();
            if (k[n / 8] >> (n % 8)) & 1 == 1 {
                acc.add(p)
            } else {
                acc
            }
        })
    }

    fn order_8_point() -> Point {
        Point::decompress(&hex::decode_array(EDGE_ENCODINGS[4].0).unwrap()).unwrap()
    }

    /// The split equation is `[k]P + [s]B` for scalars with the bits on
    /// both sides of every chunk boundary and at the top set (2^256 − 1
    /// puts a carry digit at 256), on a key with and without a torsion
    /// component.
    #[test]
    fn split_equation_matches_double_and_add() {
        let with_bits = |bits: &[usize]| {
            let mut k = [0u8; 32];
            for &n in bits {
                k[n / 8] |= 1 << (n % 8);
            }
            k
        };
        let l_minus_1 = bigint::to_le_bytes32(&bigint::sub256(&scalar::L, &[1, 0, 0, 0]).0);
        let boundaries: Vec<usize> =
            (1..CHUNKS).flat_map(|i| [CHUNK_BITS * i - 1, CHUNK_BITS * i]).collect();
        let mut scalars = vec![[0u8; 32], l_minus_1, [0xff; 32]];
        scalars.extend(boundaries.iter().chain(&[252, 255]).map(|&n| with_bits(&[n])));
        let a = Point::decompress(&Keypair::from_seed(&[6u8; 32]).public.0).unwrap();
        let s_b: Vec<Point> = scalars.iter().map(|s| double_and_add(&BASE, s)).collect();
        for p in [a, a.add(&order_8_point())] {
            let key = batch_to_affine(&chunk_multiples(&p));
            for k in &scalars {
                let k_p = double_and_add(&p, k);
                for (s, s_b) in scalars.iter().zip(&s_b) {
                    let what = [k, s].map(|v| hex::encode(v));
                    assert!(split_double_scalar_mul(k, &key, s).ct_eq(&k_p.add(s_b)), "{what:?}");
                }
            }
        }
    }

    /// One batched inversion gives every entry the affine coordinates
    /// X/Z, Y/Z that a per-point inversion does, the identity included:
    /// a small-order key's chunk multiples past the first are all it.
    #[test]
    fn batched_affine_matches_per_point_inversion() {
        let a = Point::decompress(&Keypair::from_seed(&[6u8; 32]).public.0).unwrap();
        for p in [order_8_point(), a.add(&order_8_point())] {
            let rows = chunk_multiples::<KEY_ENTRIES>(&p);
            let affine = batch_to_affine(&rows);
            for (point, entry) in rows.as_flattened().iter().zip(affine.as_flattened()) {
                let zinv = point.z.invert();
                let (x, y) = (point.x.mul(&zinv), point.y.mul(&zinv));
                assert_eq!(entry.y_plus_x, y.add(&x));
                assert_eq!(entry.y_minus_x, y.sub(&x));
                assert_eq!(entry.xy2d, x.mul(&y).mul(&D2));
            }
        }
        let identities = chunk_multiples::<KEY_ENTRIES>(&order_8_point())
            .as_flattened()
            .iter()
            .filter(|q| **q == Point::identity())
            .count();
        assert_eq!(identities, (CHUNKS - 1) * KEY_ENTRIES);
    }

    #[test]
    fn decompress_rejects_garbage() {
        // y = 2^255 − 20 = p − 1 is the order-2 point (0, −1): on the curve
        // with the sign bit clear, refused (x = 0 cannot be negative) with
        // it set.
        let mut bytes = [0xffu8; 32];
        bytes[31] = 0x7f;
        bytes[0] = 0xec;
        let order_two = Point::decompress(&bytes).unwrap();
        assert_eq!(order_two.double(), Point::identity());
        assert_ne!(order_two, Point::identity());
        bytes[31] = 0xff;
        assert_eq!(Point::decompress(&bytes).unwrap_err(), CryptoError::InvalidPoint);
        // A known-bad encoding: y = 7 is not on the curve.
        let mut seven = [0u8; 32];
        seven[0] = 7;
        assert_eq!(Point::decompress(&seven).unwrap_err(), CryptoError::InvalidPoint);
    }

    #[test]
    fn signature_round_trip_bytes() {
        let kp = Keypair::from_seed(&[9u8; 32]);
        let sig = kp.sign(b"round trip");
        let parsed = Signature::from_bytes(&sig.to_bytes()).unwrap();
        assert_eq!(parsed, sig);
    }
}

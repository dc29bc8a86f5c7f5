//! Seeded input generation: the benchmark's own generator (so a change
//! to any crate cannot change the inputs), a Zipf sampler for area skew
//! and a weighted mix sampler for traffic classes.

/// SplitMix64 — one `u64` of state, full period, good enough to draw
/// workloads from and trivially reproducible.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// An independent stream for one purpose (`label`) of one seed.
    pub fn fork(seed: u64, label: &str) -> Rng {
        let mut h = seed ^ 0x9E37_79B9_7F4A_7C15;
        for b in label.bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
        let mut rng = Rng(h);
        rng.next_u64();
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias is below 2⁻⁴⁰ for
    /// every `n` the workloads use.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn fill(&mut self, dest: &mut [u8]) {
        for chunk in dest.chunks_mut(8) {
            let word = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&word[..chunk.len()]);
        }
    }

    pub fn bytes<const N: usize>(&mut self) -> [u8; N] {
        let mut out = [0u8; N];
        self.fill(&mut out);
        out
    }
}

/// Zipf(s) over ranks `0..n`: rank `k` is drawn with weight `1/(k+1)^s`.
#[derive(Debug, Clone)]
pub struct Zipf {
    cumulative: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Zipf {
        let mut total = 0.0;
        let cumulative: Vec<f64> = (0..n)
            .map(|k| {
                total += 1.0 / ((k + 1) as f64).powf(s);
                total
            })
            .collect();
        Zipf { cumulative: cumulative.iter().map(|c| c / total).collect() }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cumulative.partition_point(|c| *c <= u).min(self.cumulative.len() - 1)
    }
}

/// Weighted choice among a fixed list of classes.
#[derive(Debug, Clone)]
pub struct Mix<T: Copy> {
    classes: Vec<(T, f64)>,
}

impl<T: Copy> Mix<T> {
    /// `weights` need not sum to one.
    pub fn new(weights: &[(T, f64)]) -> Mix<T> {
        let total: f64 = weights.iter().map(|(_, w)| w).sum();
        let mut acc = 0.0;
        let classes = weights
            .iter()
            .map(|(class, w)| {
                acc += w / total;
                (*class, acc)
            })
            .collect();
        Mix { classes }
    }

    pub fn sample(&self, rng: &mut Rng) -> T {
        let u = rng.unit();
        let idx = self.classes.partition_point(|(_, c)| *c <= u).min(self.classes.len() - 1);
        self.classes[idx].0
    }
}

/// FNV-1a over a byte stream — the fingerprint `--check-determinism`
/// compares generated inputs by.
#[derive(Debug, Clone, Copy)]
pub struct Fingerprint(u64);

impl Default for Fingerprint {
    fn default() -> Fingerprint {
        Fingerprint(0xCBF2_9CE4_8422_2325)
    }
}

impl Fingerprint {
    pub fn update(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 = (self.0 ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    pub fn value(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_streams_repeat_per_seed_and_differ_across_seeds_and_labels() {
        let draw = |mut r: Rng| (0..8).map(|_| r.next_u64()).collect::<Vec<_>>();
        assert_eq!(draw(Rng::fork(1, "a")), draw(Rng::fork(1, "a")));
        assert_ne!(draw(Rng::fork(1, "a")), draw(Rng::fork(2, "a")));
        assert_ne!(draw(Rng::fork(1, "a")), draw(Rng::fork(1, "b")));
        let mut r = Rng::fork(3, "t");
        assert!((0..1000).all(|_| r.below(7) < 7));
        assert!((0..1000).all(|_| (0.0..1.0).contains(&r.unit())));
    }

    #[test]
    fn zipf_is_reproducible_skewed_and_seed_dependent() {
        let zipf = Zipf::new(8, 1.0);
        let draw = |seed| {
            let mut rng = Rng::fork(seed, "t");
            (0..4000).map(|_| zipf.sample(&mut rng)).collect::<Vec<_>>()
        };
        let a = draw(11);
        assert_eq!(a, draw(11));
        assert_ne!(a, draw(12));
        let count = |k| a.iter().filter(|x| **x == k).count() as f64;
        // H(8) ≈ 2.718: rank 0 draws ≈ 36.8 %, rank 7 ≈ 4.6 %.
        assert!((count(0) / 4000.0 - 0.368).abs() < 0.03, "{}", count(0));
        assert!((count(7) / 4000.0 - 0.046).abs() < 0.015, "{}", count(7));
        assert!(a.iter().all(|k| *k < 8));
    }

    #[test]
    fn mix_follows_its_weights_and_its_seed() {
        let mix = Mix::new(&[('r', 80.0), ('v', 15.0), ('x', 5.0)]);
        let draw = |seed| {
            let mut rng = Rng::fork(seed, "t");
            (0..10_000).map(|_| mix.sample(&mut rng)).collect::<String>()
        };
        let a = draw(5);
        assert_eq!(a, draw(5));
        assert_ne!(a, draw(6));
        let share = |c| a.chars().filter(|x| *x == c).count() as f64 / 10_000.0;
        assert!((share('r') - 0.80).abs() < 0.02);
        assert!((share('v') - 0.15).abs() < 0.02);
        assert!((share('x') - 0.05).abs() < 0.01);
    }

    #[test]
    fn fingerprint_separates_inputs() {
        let fp = |bytes: &[u8]| {
            let mut f = Fingerprint::default();
            f.update(bytes);
            f.value()
        };
        assert_eq!(fp(b"abc"), fp(b"abc"));
        assert_ne!(fp(b"abc"), fp(b"abd"));
    }
}

//! Link behaviour: latency distributions and message loss.

use rand::rngs::StdRng;
use rand::Rng;

/// One-way propagation delay distribution of a link.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Latency {
    /// Every message takes exactly this long, microseconds.
    Fixed(u64),
    /// Uniform in `[lo_us, hi_us]`.
    Uniform {
        /// Lower bound, microseconds.
        lo_us: u64,
        /// Upper bound, microseconds.
        hi_us: u64,
    },
}

/// The link model every pair of nodes shares: latency plus the drop
/// probability.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkModel {
    /// Base one-way delay distribution.
    pub latency: Latency,
    /// Additional uniform jitter in `[0, jitter_us]` added per message.
    pub jitter_us: u64,
    /// Probability a message is silently dropped.
    pub drop_prob: f64,
}

impl Default for LinkModel {
    fn default() -> LinkModel {
        LinkModel::lan()
    }
}

impl LinkModel {
    /// An ideal link: zero latency, no faults.
    pub fn ideal() -> LinkModel {
        LinkModel { latency: Latency::Fixed(0), jitter_us: 0, drop_prob: 0.0 }
    }

    /// A datacenter-ish link: 200–500 µs, lossless.
    pub fn lan() -> LinkModel {
        LinkModel {
            latency: Latency::Uniform { lo_us: 200, hi_us: 500 },
            jitter_us: 50,
            drop_prob: 0.0,
        }
    }

    /// Returns the model with the drop probability replaced.
    ///
    /// # Panics
    ///
    /// Panics unless `0 ≤ p ≤ 1`.
    pub fn with_drop_prob(mut self, p: f64) -> LinkModel {
        assert!((0.0..=1.0).contains(&p), "drop_prob {p} not a probability");
        self.drop_prob = p;
        self
    }

    /// Samples one message's propagation delay.
    pub(crate) fn sample_latency_us(&self, rng: &mut StdRng) -> u64 {
        let base = match self.latency {
            Latency::Fixed(us) => us,
            Latency::Uniform { lo_us, hi_us } => {
                if hi_us > lo_us {
                    rng.gen_range(lo_us..=hi_us)
                } else {
                    lo_us
                }
            }
        };
        let jitter = if self.jitter_us > 0 { rng.gen_range(0..=self.jitter_us) } else { 0 };
        base.saturating_add(jitter)
    }

    /// Samples whether a message is dropped.
    pub(crate) fn sample_drop(&self, rng: &mut StdRng) -> bool {
        self.drop_prob > 0.0 && rng.gen_bool(self.drop_prob)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn fixed_latency_is_exact() {
        let mut rng = StdRng::seed_from_u64(1);
        let link = LinkModel { latency: Latency::Fixed(777), jitter_us: 0, drop_prob: 0.0 };
        for _ in 0..10 {
            assert_eq!(link.sample_latency_us(&mut rng), 777);
        }
    }

    #[test]
    fn uniform_latency_in_bounds() {
        let mut rng = StdRng::seed_from_u64(2);
        let link = LinkModel {
            latency: Latency::Uniform { lo_us: 100, hi_us: 200 },
            jitter_us: 10,
            drop_prob: 0.0,
        };
        for _ in 0..1000 {
            let l = link.sample_latency_us(&mut rng);
            assert!((100..=210).contains(&l), "latency {l} out of bounds");
        }
    }

    #[test]
    fn drop_probability_respected_at_extremes() {
        let mut rng = StdRng::seed_from_u64(4);
        let lossless = LinkModel::lan();
        let lossy = LinkModel::lan().with_drop_prob(1.0);
        assert!(!(0..100).any(|_| lossless.sample_drop(&mut rng)));
        assert!((0..100).all(|_| lossy.sample_drop(&mut rng)));
    }

    #[test]
    fn same_seed_same_samples() {
        let link = LinkModel::lan().with_drop_prob(0.3);
        let mut a = StdRng::seed_from_u64(9);
        let mut b = StdRng::seed_from_u64(9);
        for _ in 0..100 {
            assert_eq!(link.sample_latency_us(&mut a), link.sample_latency_us(&mut b));
            assert_eq!(link.sample_drop(&mut a), link.sample_drop(&mut b));
        }
    }

    #[test]
    #[should_panic(expected = "not a probability")]
    fn rejects_bad_probability() {
        let _ = LinkModel::lan().with_drop_prob(1.5);
    }
}

//! The background-load process driving fee and latency variance.
//!
//! Public testnets share block space with everyone else; the paper's
//! measurements attribute the high and unstable Goerli/Mumbai latencies to
//! network congestion. We model the *load factor* — the fraction of each
//! block consumed by background traffic — as a mean-reverting random walk
//! clamped to `[0, max_load]`, seeded per run for reproducibility.

use rand::Rng;

/// A mean-reverting congestion process.
#[derive(Debug, Clone)]
pub struct CongestionModel {
    /// Long-run mean load (0 = idle network, 1 = always-full blocks).
    pub mean: f64,
    /// Step volatility of the random walk.
    pub volatility: f64,
    /// Mean-reversion strength per block.
    pub reversion: f64,
    /// Upper clamp on load.
    pub max_load: f64,
    current: f64,
}

impl CongestionModel {
    /// Creates a process starting at its mean.
    pub fn new(mean: f64, volatility: f64) -> CongestionModel {
        CongestionModel { mean, volatility, reversion: 0.2, max_load: 1.0, current: mean }
    }

    /// A calm network (devnets).
    pub(crate) fn calm() -> CongestionModel {
        CongestionModel::new(0.0, 0.0)
    }

    /// Advances one block, returning the new load factor.
    pub fn step<R: Rng>(&mut self, rng: &mut R) -> f64 {
        let noise: f64 = rng.gen_range(-1.0..1.0) * self.volatility;
        let pull = self.reversion * (self.mean - self.current);
        self.current = (self.current + pull + noise).clamp(0.0, self.max_load);
        self.current
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn stays_in_bounds() {
        let mut model = CongestionModel::new(0.6, 0.5);
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..1000 {
            let load = model.step(&mut rng);
            assert!((0.0..=1.0).contains(&load));
        }
    }

    #[test]
    fn reverts_to_mean() {
        let mut model = CongestionModel::new(0.5, 0.1);
        model.current = 1.0;
        let mut rng = StdRng::seed_from_u64(2);
        let avg: f64 = (0..2000).map(|_| model.step(&mut rng)).sum::<f64>() / 2000.0;
        assert!((0.3..0.7).contains(&avg), "long-run average {avg}");
    }

    #[test]
    fn calm_is_flat_zero() {
        let mut model = CongestionModel::calm();
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..10 {
            assert_eq!(model.step(&mut rng), 0.0);
        }
    }
}

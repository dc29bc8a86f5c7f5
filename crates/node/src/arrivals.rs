//! Open-workload arrival processes.
//!
//! A sustained-load harness must model *open* arrivals — requests land on
//! the node at times drawn from the environment, independent of how fast
//! the node confirms them — or congestion collapse is invisible (a closed
//! loop self-throttles). [`PoissonArrivals`] draws exponential
//! inter-arrival gaps on the virtual clock.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A Poisson arrival process on the virtual clock.
#[derive(Debug)]
pub struct PoissonArrivals {
    rng: StdRng,
    rate_per_ms: f64,
    now_ms: f64,
}

impl PoissonArrivals {
    /// A process producing on average `rate_per_s` arrivals per virtual
    /// second, starting at time 0. Deterministic for a given `seed`.
    ///
    /// # Panics
    ///
    /// If `rate_per_s` is not strictly positive and finite.
    pub fn new(seed: u64, rate_per_s: f64) -> PoissonArrivals {
        assert!(
            rate_per_s.is_finite() && rate_per_s > 0.0,
            "arrival rate must be positive, got {rate_per_s}"
        );
        PoissonArrivals {
            rng: StdRng::seed_from_u64(seed),
            rate_per_ms: rate_per_s / 1000.0,
            now_ms: 0.0,
        }
    }

    /// Draws the next arrival time, in whole virtual milliseconds.
    /// Strictly non-decreasing; consecutive arrivals may share a
    /// millisecond at high rates.
    pub fn next_arrival_ms(&mut self) -> u64 {
        // Inverse-CDF sampling: gap = -ln(1 - U) / λ with U ∈ [0, 1).
        let u: f64 = self.rng.gen();
        let gap = -(1.0 - u).ln() / self.rate_per_ms;
        self.now_ms += gap;
        self.now_ms as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_rate_is_respected() {
        let mut arrivals = PoissonArrivals::new(7, 100.0);
        let mut last = 0;
        let mut count = 0u64;
        loop {
            let at = arrivals.next_arrival_ms();
            assert!(at >= last, "arrivals must be ordered");
            last = at;
            if at > 10_000 {
                break;
            }
            count += 1;
        }
        // 100 tx/s over 10 virtual seconds ≈ 1000 arrivals; Poisson noise
        // keeps this within ±20 % with overwhelming probability.
        assert!((800..=1200).contains(&count), "{count} arrivals in 10s at 100/s");
    }

    #[test]
    fn deterministic_per_seed() {
        let a: Vec<u64> = {
            let mut p = PoissonArrivals::new(42, 10.0);
            (0..50).map(|_| p.next_arrival_ms()).collect()
        };
        let b: Vec<u64> = {
            let mut p = PoissonArrivals::new(42, 10.0);
            (0..50).map(|_| p.next_arrival_ms()).collect()
        };
        assert_eq!(a, b, "same seed, same schedule");
    }

    #[test]
    #[should_panic(expected = "arrival rate must be positive")]
    fn zero_rate_panics() {
        let _ = PoissonArrivals::new(1, 0.0);
    }
}

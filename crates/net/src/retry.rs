//! Request retry: timeout, exponential backoff, deterministic jitter.

use rand::rngs::StdRng;
use rand::Rng;

/// When and how often a sender retries an unacknowledged message.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// How long the sender waits for a response before declaring an
    /// attempt lost, microseconds.
    pub timeout_us: u64,
    /// Backoff before the second attempt, microseconds; each further
    /// attempt multiplies it by `multiplier`.
    pub base_backoff_us: u64,
    /// Exponential growth factor between attempts.
    pub multiplier: f64,
    /// Upper bound on a single backoff, microseconds.
    pub max_backoff_us: u64,
    /// Total attempts (first try included). At least 1.
    pub max_attempts: u32,
    /// Fraction of each backoff added as uniform jitter in
    /// `[0, jitter_frac × backoff]`, decorrelating synchronized retries.
    pub jitter_frac: f64,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            timeout_us: 250_000,
            base_backoff_us: 50_000,
            multiplier: 2.0,
            max_backoff_us: 1_600_000,
            max_attempts: 4,
            jitter_frac: 0.25,
        }
    }
}

impl RetryPolicy {
    /// The deterministic (jitter-free) backoff before attempt number
    /// `attempt` (2-based: the first retry is attempt 2).
    pub(crate) fn base_backoff_for(&self, attempt: u32) -> u64 {
        if attempt < 2 || self.base_backoff_us == 0 {
            return 0;
        }
        let factor = self.multiplier.max(1.0).powi(attempt as i32 - 2);
        ((self.base_backoff_us as f64) * factor).min(self.max_backoff_us as f64) as u64
    }

    /// Samples the jittered backoff before attempt `attempt`.
    pub(crate) fn backoff_for(&self, attempt: u32, rng: &mut StdRng) -> u64 {
        let base = self.base_backoff_for(attempt);
        if base == 0 || self.jitter_frac <= 0.0 {
            return base;
        }
        let jitter_cap = ((base as f64) * self.jitter_frac) as u64;
        base + if jitter_cap > 0 { rng.gen_range(0..=jitter_cap) } else { 0 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn backoff_grows_exponentially_then_caps() {
        let policy = RetryPolicy {
            timeout_us: 1000,
            base_backoff_us: 100,
            multiplier: 2.0,
            max_backoff_us: 350,
            max_attempts: 5,
            jitter_frac: 0.0,
        };
        assert_eq!(policy.base_backoff_for(1), 0, "first attempt is immediate");
        assert_eq!(policy.base_backoff_for(2), 100);
        assert_eq!(policy.base_backoff_for(3), 200);
        assert_eq!(policy.base_backoff_for(4), 350, "capped");
        assert_eq!(policy.base_backoff_for(5), 350, "stays capped");
    }

    #[test]
    fn jitter_is_bounded_and_deterministic() {
        let policy = RetryPolicy { jitter_frac: 0.5, ..RetryPolicy::default() };
        let schedule = |seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            (1..=policy.max_attempts).map(|n| policy.backoff_for(n, &mut rng)).collect::<Vec<_>>()
        };
        let sched_a = schedule(11);
        let sched_b = schedule(11);
        assert_eq!(sched_a, sched_b, "same seed, same schedule");
        for (attempt, &waited) in sched_a.iter().enumerate() {
            let base = policy.base_backoff_for(attempt as u32 + 1);
            assert!(waited >= base);
            assert!(waited <= base + base / 2, "jitter beyond 50% of base");
        }
    }
}

//! Transport observability: counters and a latency histogram.

/// Number of power-of-two latency buckets (covers up to ~2^39 µs ≈ 6 days).
pub(crate) const LATENCY_BUCKETS: usize = 40;

/// A fixed-bucket log₂ histogram of latencies in microseconds.
///
/// Bucket `i` counts samples in `[2^i, 2^(i+1))` µs (bucket 0 also takes
/// zero). Quantiles are resolved to a bucket's upper edge, so they are
/// conservative (never under-reported) and the histogram needs no
/// allocation or sorting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LatencyHistogram {
    buckets: [u64; LATENCY_BUCKETS],
    pub(crate) count: u64,
    max_us: u64,
}

impl Default for LatencyHistogram {
    fn default() -> LatencyHistogram {
        LatencyHistogram { buckets: [0; LATENCY_BUCKETS], count: 0, max_us: 0 }
    }
}

impl LatencyHistogram {
    /// Records one latency sample.
    pub(crate) fn record(&mut self, latency_us: u64) {
        let bucket = if latency_us <= 1 { 0 } else { (63 - latency_us.leading_zeros()) as usize }
            .min(LATENCY_BUCKETS - 1);
        self.buckets[bucket] += 1;
        self.count += 1;
        self.max_us = self.max_us.max(latency_us);
    }

    /// The latency at quantile `q` (`0 < q ≤ 1`), resolved to the upper
    /// edge of the bucket holding that rank (and clamped to the observed
    /// maximum). Returns 0 when empty.
    pub(crate) fn quantile_us(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                if i + 1 >= LATENCY_BUCKETS {
                    // The clamp bucket has no meaningful upper edge.
                    return self.max_us;
                }
                return ((1u64 << (i + 1)) - 1).min(self.max_us);
            }
        }
        self.max_us
    }

    /// Median latency, microseconds.
    pub fn p50_us(&self) -> u64 {
        self.quantile_us(0.50)
    }

    /// 95th percentile latency, microseconds.
    pub fn p95_us(&self) -> u64 {
        self.quantile_us(0.95)
    }

    /// 99th percentile latency, microseconds.
    pub fn p99_us(&self) -> u64 {
        self.quantile_us(0.99)
    }
}

/// The transport's counters, accumulated over every exchange.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TransportStats {
    /// Send attempts (each retry counts).
    pub sent: u64,
    /// Messages that reached their destination.
    pub delivered: u64,
    /// Messages lost to the link, a partition or an offline node.
    pub dropped: u64,
    /// Retransmissions performed after a timeout.
    pub retried: u64,
    /// Exchanges abandoned after the final attempt timed out.
    pub timed_out: u64,
    /// One-way latencies of the delivered messages (retry waits excluded).
    pub latency: LatencyHistogram,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_on_known_distribution() {
        let mut h = LatencyHistogram::default();
        // 90 fast samples (~100 µs), 10 slow (~100 ms).
        for _ in 0..90 {
            h.record(100);
        }
        for _ in 0..10 {
            h.record(100_000);
        }
        assert_eq!(h.count, 100);
        assert!(h.p50_us() < 200, "median in the fast bucket, got {}", h.p50_us());
        assert!(h.p95_us() >= 65_536, "p95 in the slow bucket, got {}", h.p95_us());
        assert_eq!(h.max_us, 100_000);
        assert!(h.p99_us() <= h.max_us);
    }

    #[test]
    fn empty_histogram_is_all_zero() {
        let h = LatencyHistogram::default();
        assert_eq!(h.p50_us(), 0);
        assert_eq!(h.p99_us(), 0);
    }

    #[test]
    fn zero_and_one_fall_in_first_bucket() {
        let mut h = LatencyHistogram::default();
        h.record(0);
        h.record(1);
        assert_eq!(h.count, 2);
        assert!(h.p50_us() <= 1);
    }

    #[test]
    fn huge_sample_clamps_to_last_bucket() {
        let mut h = LatencyHistogram::default();
        h.record(u64::MAX);
        assert_eq!(h.count, 1);
        assert_eq!(h.p99_us(), u64::MAX);
    }
}

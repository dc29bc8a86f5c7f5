//! Periodic metrics snapshots: the node's monitoring surface.
//!
//! The run loop captures a [`MetricsSnapshot`] every 10 s of virtual
//! time — mempool depth, base fee, block fullness, cumulative executor
//! counters and a confirmation latency summary — so sustained-load runs
//! can be plotted as a time series rather than a single end-of-run
//! aggregate.

use crate::mempool::RejectionCounts;
use pol_chainsim::ExecStats;

/// Confirmation-latency summary over a set of samples (nearest-rank
/// percentiles).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LatencySummary {
    /// Number of samples summarised.
    pub count: usize,
    /// Arithmetic mean, milliseconds.
    pub mean_ms: f64,
    /// 50th percentile (median), milliseconds.
    pub p50_ms: u64,
    /// 95th percentile, milliseconds.
    pub p95_ms: u64,
    /// 99th percentile, milliseconds.
    pub p99_ms: u64,
    /// Worst observed, milliseconds.
    pub max_ms: u64,
}

impl LatencySummary {
    /// Summarises `samples` (admission→confirmation, milliseconds).
    /// Returns the zero summary for an empty slice.
    pub(crate) fn from_samples(samples: &[u64]) -> LatencySummary {
        if samples.is_empty() {
            return LatencySummary::default();
        }
        let mut sorted = samples.to_vec();
        sorted.sort_unstable();
        let sum: u128 = sorted.iter().map(|&s| u128::from(s)).sum();
        LatencySummary {
            count: sorted.len(),
            mean_ms: sum as f64 / sorted.len() as f64,
            p50_ms: percentile(&sorted, 50),
            p95_ms: percentile(&sorted, 95),
            p99_ms: percentile(&sorted, 99),
            max_ms: *sorted.last().expect("non-empty"),
        }
    }
}

/// Nearest-rank percentile over an ascending-sorted slice: the smallest
/// sample with at least `p`% of the distribution at or below it.
pub(crate) fn percentile(sorted: &[u64], p: u64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (u128::from(p) * sorted.len() as u128).div_ceil(100).max(1);
    sorted[(rank as usize - 1).min(sorted.len() - 1)]
}

/// One point on the node's monitoring time series.
#[derive(Debug, Clone)]
pub struct MetricsSnapshot {
    /// Virtual time of capture, milliseconds.
    pub at_ms: u64,
    /// Chain height at capture.
    pub height: u64,
    /// Transactions queued in the chain's mempool.
    pub mempool_depth: usize,
    /// Transactions parked on nonce gaps.
    pub parked: usize,
    /// Admitted transactions without a terminal receipt yet.
    pub in_flight: usize,
    /// Current base fee, base units per gas.
    pub base_fee: u128,
    /// Gas used by the latest block.
    pub last_block_gas_used: u64,
    /// Latest block's gas used over the block gas limit, in `[0, 1]`.
    pub block_fullness: f64,
    /// Cumulative admissions (queued + parked).
    pub admitted: u64,
    /// Cumulative confirmed terminals.
    pub confirmed: u64,
    /// Cumulative dropped terminals.
    pub dropped: u64,
    /// Cumulative refusals by class.
    pub rejected: RejectionCounts,
    /// Cumulative block-executor counters.
    pub exec: ExecStats,
    /// Latency summary over every confirmation so far.
    pub latency: LatencySummary,
}

impl std::fmt::Display for MetricsSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "t={}ms h={} pool={} parked={} in_flight={} base_fee={} full={:.0}% \
             admitted={} confirmed={} dropped={} rejected={} p50={}ms p99={}ms",
            self.at_ms,
            self.height,
            self.mempool_depth,
            self.parked,
            self.in_flight,
            self.base_fee,
            self.block_fullness * 100.0,
            self.admitted,
            self.confirmed,
            self.dropped,
            self.rejected.total(),
            self.latency.p50_ms,
            self.latency.p99_ms,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_are_nearest_rank() {
        let sorted: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&sorted, 50), 50);
        assert_eq!(percentile(&sorted, 95), 95);
        assert_eq!(percentile(&sorted, 99), 99);
        assert_eq!(percentile(&sorted, 100), 100);
        assert_eq!(percentile(&[7], 99), 7);
        assert_eq!(percentile(&[], 50), 0);
    }

    #[test]
    fn summary_from_samples() {
        let s = LatencySummary::from_samples(&[30, 10, 20, 40]);
        assert_eq!(s.count, 4);
        assert!((s.mean_ms - 25.0).abs() < f64::EPSILON);
        assert_eq!(s.p50_ms, 20);
        assert_eq!(s.max_ms, 40);
        assert_eq!(LatencySummary::from_samples(&[]).count, 0);
    }

    #[test]
    fn snapshot_formats_one_line() {
        let snap = MetricsSnapshot {
            at_ms: 1000,
            height: 5,
            mempool_depth: 3,
            parked: 1,
            in_flight: 4,
            base_fee: 1_000_000_000,
            last_block_gas_used: 15_000_000,
            block_fullness: 0.5,
            admitted: 10,
            confirmed: 6,
            dropped: 0,
            rejected: RejectionCounts::default(),
            exec: ExecStats::default(),
            latency: LatencySummary::from_samples(&[100, 200]),
        };
        let line = snap.to_string();
        assert!(line.contains("h=5"), "{line}");
        assert!(line.contains("full=50%"), "{line}");
        assert!(!line.contains('\n'));
    }
}

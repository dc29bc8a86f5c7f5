//! Sample statistics: nearest-rank percentiles with the
//! ten-samples-beyond rule, the five equal-count segments a measured
//! phase is cut into, and the quiet quartile and spread over segments.

/// Segments a measured phase is cut into.
pub const SEGMENTS: usize = 5;

/// Samples that must lie beyond a percentile before it is reported.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of an ascending slice (`p` in `0..=100`).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn nearest_rank(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The percentile, or `None` when fewer than [`MIN_BEYOND`] samples lie
/// strictly beyond its rank — a tail read off a handful of samples is a
/// property of those samples, not of the system.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (((p / 100.0) * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    (sorted.len() - rank >= MIN_BEYOND).then(|| sorted[rank - 1])
}

/// Sorts samples ascending (total order; the benchmark never produces NaN).
pub fn sorted(mut samples: Vec<f64>) -> Vec<f64> {
    samples.sort_by(f64::total_cmp);
    samples
}

/// Median of a non-empty set (mean of the middle pair for even counts).
pub fn median(samples: &[f64]) -> f64 {
    let s = sorted(samples.to_vec());
    let n = s.len();
    assert!(n > 0, "median of no samples");
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// The quiet quartile: the value a quarter of the segments did better
/// than. Other tenants of the host only ever slow a segment down, so the
/// fastest quarter of a run is the part they disturbed least, and its
/// boundary stays put until they have disturbed three quarters of the
/// run — a median moves once they reach half. For rates (`higher_is_better`)
/// it is the upper quartile, for times the lower (nearest rank).
pub fn quiet_quartile(samples: &[f64], higher_is_better: bool) -> f64 {
    nearest_rank(&sorted(samples.to_vec()), if higher_is_better { 75.0 } else { 25.0 })
}

/// Spread of per-segment values: min and max show how far single
/// segments strayed from the middle one.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spread {
    pub min: f64,
    pub median: f64,
    pub max: f64,
}

impl Spread {
    pub fn of(values: &[f64]) -> Spread {
        let s = sorted(values.to_vec());
        Spread { min: s[0], median: median(&s), max: s[s.len() - 1] }
    }

    /// `(max − min) ÷ median`.
    pub fn relative(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.max - self.min) / self.median
        }
    }
}

/// Index ranges of `SEGMENTS` equal-count segments over `n` items; the
/// remainder goes to the leading segments so sizes differ by at most 1.
pub fn segment_bounds(n: usize) -> Vec<std::ops::Range<usize>> {
    let base = n / SEGMENTS;
    let extra = n % SEGMENTS;
    let mut start = 0;
    (0..SEGMENTS)
        .map(|i| {
            let len = base + usize::from(i < extra);
            let range = start..start + len;
            start += len;
            range
        })
        .collect()
}

/// Per-segment rates (`work ÷ seconds`).
pub fn segment_rates(work: &[f64], seconds: &[f64]) -> Vec<f64> {
    work.iter().zip(seconds).map(|(w, s)| w / s.max(1e-12)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_the_ceiling_rank() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(nearest_rank(&s, 50.0), 50.0);
        assert_eq!(nearest_rank(&s, 99.0), 99.0);
        assert_eq!(nearest_rank(&s, 100.0), 100.0);
        assert_eq!(nearest_rank(&s, 0.0), 1.0);
        assert_eq!(nearest_rank(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        // p99 of 1 000 samples has exactly ten beyond rank 990.
        let s: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&s, 99.0), Some(990.0));
        // One sample fewer and only nine lie beyond it.
        assert_eq!(percentile(&s[..999], 99.0), None);
        // The median of 20 samples has ten beyond; of 19, nine.
        assert_eq!(percentile(&s[..20], 50.0), Some(10.0));
        assert_eq!(percentile(&s[..19], 50.0), None);
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn quiet_quartile_ignores_the_slow_three_quarters() {
        // Eight segments; five of them disturbed to half speed or worse.
        let rates = [100.0, 99.0, 40.0, 101.0, 50.0, 45.0, 30.0, 48.0];
        assert_eq!(quiet_quartile(&rates, true), 99.0);
        assert_eq!(median(&rates), 49.0);
        let times = [10.0, 25.0, 11.0, 30.0, 12.0, 28.0, 22.0, 27.0];
        assert_eq!(quiet_quartile(&times, false), 11.0);
    }

    #[test]
    fn segments_cover_every_item_once() {
        for n in [0, 1, 4, 5, 7, 103] {
            let bounds = segment_bounds(n);
            assert_eq!(bounds.len(), SEGMENTS);
            assert_eq!(bounds[0].start, 0);
            assert_eq!(bounds[SEGMENTS - 1].end, n);
            for w in bounds.windows(2) {
                assert_eq!(w[0].end, w[1].start);
                assert!(w[0].len() >= w[1].len() && w[0].len() - w[1].len() <= 1);
            }
        }
    }

    #[test]
    fn segment_median_and_spread() {
        let rates = segment_rates(&[10.0, 10.0, 10.0, 10.0, 10.0], &[1.0, 2.0, 0.5, 1.0, 4.0]);
        let spread = Spread::of(&rates);
        assert_eq!(spread, Spread { min: 2.5, median: 10.0, max: 20.0 });
        assert_eq!(spread.relative(), 1.75);
        assert_eq!(median(&[3.0, 1.0, 2.0, 4.0]), 2.5);
    }
}

//! Estimators over per-segment samples.
//!
//! The host this benchmark was sized on slows for seconds at a time, so a
//! whole-run median of identical segments moves ±17 % between back-to-back
//! runs of the same code while the fastest tenth of segments moves ±3 %
//! (README, "Estimator"). Every gated timing is therefore a *quiet
//! decile*: the mean over the best tenth of identical segments.

/// Which direction of a metric is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Rates and useful-work counts.
    Higher,
    /// Times, memory and cost counts.
    Lower,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// A copy of `values` in ascending order.
///
/// # Panics
///
/// Panics on NaN: every sample is a measured time, rate or count.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
    v
}

/// Percentile `q ∈ [0, 1]` of an ascending slice, linearly interpolated
/// between the two nearest ranks (`q = 0.5` of `[1, 2, 3, 4]` is 2.5).
///
/// # Panics
///
/// Panics if `sorted` is empty.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Median of an unsorted sample.
pub fn median(values: &[f64]) -> f64 {
    percentile(&sorted(values), 0.5)
}

/// How many of `n` segments the quiet decile averages: a tenth, but at
/// least 3 (and never more than there are).
pub fn decile_len(n: usize) -> usize {
    (n / 10).max(3).min(n)
}

/// Mean over the best tenth of `values` (see [`decile_len`]).
///
/// # Panics
///
/// Panics if `values` is empty.
pub fn quiet_decile(values: &[f64], better: Better) -> f64 {
    let mut v = sorted(values);
    if better == Better::Higher {
        v.reverse();
    }
    let k = decile_len(v.len());
    v[..k].iter().sum::<f64>() / k as f64
}

/// Distance between the first and third quartile as a percentage of the
/// median — the host-noise gauge over identical segments.
pub fn spread_pct(values: &[f64]) -> f64 {
    let v = sorted(values);
    let mid = percentile(&v, 0.5);
    if mid == 0.0 {
        return 0.0;
    }
    100.0 * (percentile(&v, 0.75) - percentile(&v, 0.25)) / mid
}

/// The highest percentile, capped at p99, that still has at least ten of
/// `n` samples beyond it.
pub fn tail_quantile(n: usize) -> f64 {
    if n < 20 {
        return 0.5;
    }
    (1.0 - 10.0 / n as f64).min(0.99)
}

/// Quantile `q` of a nanosecond sample buffer, in microseconds. Reorders
/// the buffer (selection, not a full sort).
///
/// # Panics
///
/// Panics if `samples` is empty.
pub fn quantile_us(samples: &mut [u32], q: f64) -> f64 {
    assert!(!samples.is_empty(), "quantile of an empty sample");
    let k = ((samples.len() - 1) as f64 * q.clamp(0.0, 1.0)).round() as usize;
    let (_, v, _) = samples.select_nth_unstable(k);
    f64::from(*v) / 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_ranks() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 0.5), 2.5);
        assert_eq!(percentile(&v, 1.0), 4.0);
        assert_eq!(percentile(&v, 0.25), 1.75);
        assert_eq!(percentile(&[7.0], 0.9), 7.0);
    }

    #[test]
    fn median_sorts_first() {
        assert_eq!(median(&[9.0, 1.0, 5.0]), 5.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn decile_is_a_tenth_but_at_least_three() {
        assert_eq!(decile_len(1), 1);
        assert_eq!(decile_len(2), 2);
        assert_eq!(decile_len(12), 3);
        assert_eq!(decile_len(30), 3);
        assert_eq!(decile_len(100), 10);
        assert_eq!(decile_len(159), 15);
    }

    #[test]
    fn quiet_decile_takes_the_best_end() {
        // 40 values 1..=40: a tenth is 4.
        let v: Vec<f64> = (1..=40).map(f64::from).collect();
        assert_eq!(
            quiet_decile(&v, Better::Higher),
            (40.0 + 39.0 + 38.0 + 37.0) / 4.0
        );
        assert_eq!(
            quiet_decile(&v, Better::Lower),
            (1.0 + 2.0 + 3.0 + 4.0) / 4.0
        );
        // Five values: the floor of three applies.
        let w = [10.0, 50.0, 30.0, 20.0, 40.0];
        assert_eq!(quiet_decile(&w, Better::Higher), 40.0);
        assert_eq!(quiet_decile(&w, Better::Lower), 20.0);
        // A slow spell in most segments does not move the estimate.
        let mut noisy = vec![100.0; 10];
        noisy.extend(vec![60.0; 90]);
        assert_eq!(quiet_decile(&noisy, Better::Higher), 100.0);
    }

    #[test]
    fn spread_is_iqr_over_median() {
        // Quartiles of 1..=5 are 2 and 4, median 3.
        let v = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert!((spread_pct(&v) - 100.0 * 2.0 / 3.0).abs() < 1e-9);
        assert_eq!(spread_pct(&[2.0, 2.0, 2.0]), 0.0);
    }

    #[test]
    fn tail_quantile_keeps_ten_samples_beyond() {
        assert_eq!(tail_quantile(10), 0.5);
        assert_eq!(tail_quantile(100), 0.9);
        assert_eq!(tail_quantile(1000), 0.99);
        assert_eq!(tail_quantile(1_000_000), 0.99);
    }

    #[test]
    fn quantile_us_selects_in_nanoseconds() {
        let mut ns = [5_000u32, 1_000, 3_000, 2_000, 4_000];
        assert_eq!(quantile_us(&mut ns, 0.5), 3.0);
        assert_eq!(quantile_us(&mut ns, 1.0), 5.0);
        assert_eq!(quantile_us(&mut ns, 0.0), 1.0);
    }
}

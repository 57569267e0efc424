//! Flow arrival processes (Sec. V-B).
//!
//! An [`ArrivalPattern`] is the whole description of an arrival process.
//! What a process remembers between two arrivals — the fixed grid's
//! index, MMPP's modulation state — is an [`ArrivalCursor`] that the
//! caller keeps per source, so a pattern (and its trace) is read in place
//! by every simulation that plays it.

use crate::trace::Trace;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// The four arrival patterns of the evaluation, as serializable data.
/// Play one with [`ArrivalPattern::cursor`] and
/// [`ArrivalPattern::next_arrival`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ArrivalPattern {
    /// Deterministic arrivals every `interval` time units: `interval`,
    /// `2·interval`, … (the paper's *fixed* pattern, interval 10).
    ///
    /// The cursor tracks the arrival index as an integer, so every
    /// returned time is exactly `k · interval` in one multiplication —
    /// long sequential runs cannot drift off the grid the way repeated
    /// `t + interval` float sums (or re-deriving `k` from an
    /// already-rounded `t`) can.
    Fixed {
        /// Inter-arrival interval.
        interval: f64,
    },
    /// Poisson arrivals: i.i.d. exponential inter-arrival times (the paper
    /// uses mean 10).
    Poisson {
        /// Mean inter-arrival time.
        mean: f64,
    },
    /// Two-state Markov-modulated Poisson process (Fig. 6c): exponential
    /// arrivals whose mean switches between `mean0` and `mean1`; every
    /// `period` time units the state flips with probability `prob` (paper:
    /// means 12/8, period 100, probability 5 %). Thanks to the
    /// memorylessness of the exponential distribution, sampling piecewise
    /// per modulation segment is exact.
    Mmpp {
        /// Mean inter-arrival time in state 0.
        mean0: f64,
        /// Mean inter-arrival time in state 1.
        mean1: f64,
        /// Time between switch checks.
        period: f64,
        /// Switch probability per check.
        prob: f64,
    },
    /// Trace-driven arrivals: an inhomogeneous Poisson process whose rate
    /// follows `trace` (piecewise-constant rate bins) times `scale`,
    /// wrapping around at the end of the trace. Substitutes for the
    /// paper's real-world Abilene traces (Fig. 6d); load a real rate
    /// series with [`Trace::from_csv`].
    Trace {
        /// The rate trace to follow.
        trace: Trace,
        /// Scales all trace rates (e.g. to calibrate mean load).
        scale: f64,
    },
}

/// Where one source is in the playback of its [`ArrivalPattern`]: the
/// fixed grid's next index and MMPP's modulation state. Poisson and
/// trace-driven arrivals are memoryless and leave it untouched. Start one
/// with [`ArrivalPattern::cursor`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ArrivalCursor {
    /// Fixed: index of the next scheduled arrival; arrival `k` occurs at
    /// `k · interval`.
    next_k: u64,
    /// MMPP: in state 1 (mean `mean1`) rather than state 0.
    high: bool,
    /// MMPP: time of the next switch check.
    next_check: f64,
}

/// Samples an exponential inter-arrival time with the given mean.
fn sample_exp<R: Rng + ?Sized>(mean: f64, rng: &mut R) -> f64 {
    // Inverse-CDF sampling; `gen` yields [0,1), so `1 - u` is in (0,1].
    let u: f64 = rng.gen();
    -mean * (1.0 - u).ln()
}

impl ArrivalPattern {
    /// The paper's fixed pattern (interval 10).
    pub fn paper_fixed() -> Self {
        ArrivalPattern::Fixed { interval: 10.0 }
    }

    /// The paper's Poisson pattern (mean 10).
    pub fn paper_poisson() -> Self {
        ArrivalPattern::Poisson { mean: 10.0 }
    }

    /// The paper's MMPP pattern (means 12/8, period 100, probability 0.05).
    pub fn paper_mmpp() -> Self {
        ArrivalPattern::Mmpp {
            mean0: 12.0,
            mean1: 8.0,
            period: 100.0,
            prob: 0.05,
        }
    }

    /// The bundled synthetic diurnal trace calibrated to mean rate ≈ 0.1
    /// (mean inter-arrival ≈ 10, matching the other patterns' load).
    pub fn paper_trace() -> Self {
        ArrivalPattern::Trace {
            trace: Trace::synthetic_abilene(),
            scale: 1.0,
        }
    }

    /// Short lowercase name, as used in experiment CLIs (`fixed`, `poisson`,
    /// `mmpp`, `trace`).
    pub fn name(&self) -> &'static str {
        match self {
            ArrivalPattern::Fixed { .. } => "fixed",
            ArrivalPattern::Poisson { .. } => "poisson",
            ArrivalPattern::Mmpp { .. } => "mmpp",
            ArrivalPattern::Trace { .. } => "trace",
        }
    }

    /// The names [`ArrivalPattern::paper_by_name`] accepts, as a usage line
    /// spells them.
    pub const PAPER_NAMES: &'static str = "fixed|poisson|mmpp|trace";

    /// The paper's pattern called `name` (one of
    /// [`ArrivalPattern::PAPER_NAMES`]): the inverse of
    /// [`ArrivalPattern::name`] over the four `paper_*` patterns. `None`
    /// for any other name.
    pub fn paper_by_name(name: &str) -> Option<Self> {
        match name {
            "fixed" => Some(ArrivalPattern::paper_fixed()),
            "poisson" => Some(ArrivalPattern::paper_poisson()),
            "mmpp" => Some(ArrivalPattern::paper_mmpp()),
            "trace" => Some(ArrivalPattern::paper_trace()),
            _ => None,
        }
    }

    /// Checks the parameters: the interval, means, switch period and trace
    /// scale finite and positive, the switch probability in `[0, 1]`.
    ///
    /// # Errors
    ///
    /// Returns a message naming the first parameter out of range.
    pub fn validate(&self) -> Result<(), String> {
        let positive = |what: &str, v: f64| {
            if v.is_finite() && v > 0.0 {
                Ok(())
            } else {
                Err(format!(
                    "{} arrivals: {what} {v} must be finite and > 0",
                    self.name()
                ))
            }
        };
        match self {
            ArrivalPattern::Fixed { interval } => positive("interval", *interval),
            ArrivalPattern::Poisson { mean } => positive("mean", *mean),
            ArrivalPattern::Mmpp {
                mean0,
                mean1,
                period,
                prob,
            } => {
                positive("mean0", *mean0)?;
                positive("mean1", *mean1)?;
                positive("switch period", *period)?;
                if (0.0..=1.0).contains(prob) {
                    Ok(())
                } else {
                    Err(format!(
                        "mmpp arrivals: switch probability {prob} must be in [0, 1]"
                    ))
                }
            }
            ArrivalPattern::Trace { scale, .. } => positive("scale", *scale),
        }
    }

    /// A cursor at the start of playback (time 0, MMPP in state 0).
    pub fn cursor(&self) -> ArrivalCursor {
        ArrivalCursor {
            next_k: 1,
            high: false,
            next_check: match self {
                ArrivalPattern::Mmpp { period, .. } => *period,
                _ => f64::INFINITY,
            },
        }
    }

    /// Returns the absolute time of the next arrival strictly after `now`,
    /// advancing `cursor`; `f64::INFINITY` if no further arrival occurs
    /// (an all-zero trace).
    ///
    /// `now` may jump backwards or forwards between calls: the fixed grid
    /// resyncs, and MMPP first takes every switch check it missed.
    /// `self` must pass [`ArrivalPattern::validate`] (a zero interval, for
    /// one, never yields an arrival), and `cursor` must come from
    /// [`ArrivalPattern::cursor`] on the same pattern.
    pub fn next_arrival<R: Rng + ?Sized>(
        &self,
        cursor: &mut ArrivalCursor,
        now: f64,
        rng: &mut R,
    ) -> f64 {
        debug_assert!(self.validate().is_ok(), "{:?}", self.validate());
        match *self {
            ArrivalPattern::Fixed { interval } => {
                // Grid point of arrival index `k` (one rounding).
                let grid = |k: u64| k as f64 * interval;
                // Fast path: sequential playback. `now` sits in the window
                // [previous arrival, next arrival): hand out the scheduled
                // grid point and advance the integer index — no division,
                // no drift.
                let next = cursor.next_k;
                if grid(next) > now && grid(next - 1) <= now {
                    cursor.next_k += 1;
                    return grid(next);
                }
                // Resync: the caller jumped (or rewound) in time. Find the
                // minimal k with k·interval strictly after `now`, starting
                // from the float estimate and correcting both ways so
                // division rounding can neither skip nor double-count a
                // grid point.
                let mut k = ((now / interval).floor().max(0.0) as u64).saturating_add(1);
                while k > 1 && grid(k - 1) > now {
                    k -= 1;
                }
                while grid(k) <= now {
                    k += 1;
                }
                cursor.next_k = k + 1;
                grid(k)
            }
            ArrivalPattern::Poisson { mean } => now + sample_exp(mean, rng),
            ArrivalPattern::Mmpp {
                mean0,
                mean1,
                period,
                prob,
            } => {
                let mut t = now;
                loop {
                    // Catch up on missed switch checks (e.g. long silent
                    // stretch).
                    while t >= cursor.next_check {
                        if rng.gen::<f64>() < prob {
                            cursor.high = !cursor.high;
                        }
                        cursor.next_check += period;
                    }
                    let mean = if cursor.high { mean1 } else { mean0 };
                    let candidate = t + sample_exp(mean, rng);
                    if candidate < cursor.next_check {
                        return candidate;
                    }
                    // Arrival would land beyond the next potential switch:
                    // advance to the boundary and resample (exact due to
                    // memorylessness).
                    t = cursor.next_check;
                }
            }
            ArrivalPattern::Trace { ref trace, scale } => {
                let mut t = now;
                // Bound the search to a generous number of cycles: an
                // all-zero trace yields no arrivals.
                let horizon = t + 1000.0 * trace.duration();
                while t < horizon {
                    let rate = trace.rate_at(t) * scale;
                    let bin_end = trace.bin_end(t);
                    if rate <= 0.0 {
                        t = bin_end;
                        continue;
                    }
                    let candidate = t + sample_exp(1.0 / rate, rng);
                    if candidate < bin_end {
                        return candidate;
                    }
                    t = bin_end;
                }
                f64::INFINITY
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(42)
    }

    /// Plays `pattern` sequentially from `start` for `n` arrivals.
    fn sequence(pattern: &ArrivalPattern, start: f64, n: usize) -> Vec<f64> {
        let mut cursor = pattern.cursor();
        let mut r = rng();
        let mut t = start;
        (0..n)
            .map(|_| {
                t = pattern.next_arrival(&mut cursor, t, &mut r);
                t
            })
            .collect()
    }

    fn fixed(interval: f64) -> ArrivalPattern {
        ArrivalPattern::Fixed { interval }
    }

    fn trace(rates: Vec<f64>, bin_width: f64) -> ArrivalPattern {
        ArrivalPattern::Trace {
            trace: Trace::new(rates, bin_width).unwrap(),
            scale: 1.0,
        }
    }

    #[test]
    fn fixed_interval_hits_multiples() {
        let p = fixed(10.0);
        let mut c = p.cursor();
        let mut r = rng();
        assert_eq!(p.next_arrival(&mut c, 0.0, &mut r), 10.0);
        assert_eq!(p.next_arrival(&mut c, 10.0, &mut r), 20.0);
        assert_eq!(p.next_arrival(&mut c, 14.5, &mut r), 20.0);
    }

    #[test]
    fn fixed_interval_strictly_advances() {
        let ts = sequence(&fixed(3.0), 0.0, 100);
        assert!(ts.windows(2).all(|w| w[1] > w[0]));
        assert!((ts[99] - 300.0).abs() < 1e-9);
    }

    /// Regression: with a binary-unrepresentable interval (0.1), 1000
    /// sequential arrivals must stay exactly on the integer grid
    /// `k · interval` — no skipped or doubled grid points, no accumulated
    /// `t + interval` float drift.
    #[test]
    fn fixed_interval_no_drift_on_unrepresentable_interval() {
        let ts = sequence(&fixed(0.1), 0.0, 1000);
        for (k, t) in (1..=1000u64).zip(&ts) {
            assert_eq!(
                t.to_bits(),
                (k as f64 * 0.1).to_bits(),
                "arrival {k} drifted off the grid: got {t}"
            );
        }
        assert!((ts[999] - 100.0).abs() < 1e-9);
    }

    /// Regression: querying exactly at a grid point must return the next
    /// grid point (strictly-after contract), never the same one again and
    /// never `t + interval` drift — including far from zero.
    #[test]
    fn fixed_interval_exact_boundary_values() {
        let p = fixed(0.1);
        let mut c = p.cursor();
        let mut r = rng();
        // Jump straight to a large exact-ish boundary.
        let boundary = 700.0 * 0.1;
        let next = p.next_arrival(&mut c, boundary, &mut r);
        assert!(next > boundary);
        assert_eq!(next.to_bits(), (701.0_f64 * 0.1).to_bits());
        // Rewinding mid-grid re-serves the strictly-next point.
        assert_eq!(p.next_arrival(&mut c, 14.55, &mut r), 146.0 * 0.1);
        // A hair below a grid point still yields that grid point.
        let just_below = 700.0 * 0.1 - 1e-12;
        assert_eq!(
            p.next_arrival(&mut c, just_below, &mut r).to_bits(),
            (700.0_f64 * 0.1).to_bits()
        );
    }

    /// A fresh cursor replays the same sequence from the start; the
    /// pattern itself holds no playback state.
    #[test]
    fn fresh_cursor_replays_sequence() {
        let p = fixed(3.0);
        let first = sequence(&p, 0.0, 5);
        assert_eq!(first, sequence(&p, 0.0, 5));
        assert_eq!(first, vec![3.0, 6.0, 9.0, 12.0, 15.0]);
    }

    /// The per-source state stays three words, whatever the pattern.
    #[test]
    fn cursor_is_small() {
        assert!(std::mem::size_of::<ArrivalCursor>() <= 24);
    }

    #[test]
    fn poisson_mean_close_to_target() {
        let ts = sequence(&ArrivalPattern::paper_poisson(), 0.0, 20_000);
        let mean = ts[19_999] / 20_000.0;
        assert!((mean - 10.0).abs() < 0.3, "empirical mean {mean}");
    }

    #[test]
    fn poisson_interarrivals_strictly_positive() {
        let ts = sequence(&ArrivalPattern::Poisson { mean: 1.0 }, 5.0, 1000);
        assert!(ts[0] > 5.0);
        assert!(ts.windows(2).all(|w| w[1] > w[0]));
    }

    #[test]
    fn mmpp_rate_between_state_rates() {
        let ts = sequence(&ArrivalPattern::paper_mmpp(), 0.0, 20_000);
        let mean = ts[19_999] / 20_000.0;
        // Stationary mean inter-arrival is the harmonic-ish mixture of 12
        // and 8: strictly inside (8, 12).
        assert!(mean > 8.0 && mean < 12.0, "empirical mean {mean}");
    }

    #[test]
    fn mmpp_actually_switches_state() {
        let p = ArrivalPattern::Mmpp {
            mean0: 100.0,
            mean1: 0.1,
            period: 10.0,
            prob: 0.5,
        };
        let mut c = p.cursor();
        assert_eq!((c.high, c.next_check), (false, 10.0));
        let mut r = rng();
        let mut t = 0.0;
        let mut saw_state1 = false;
        for _ in 0..200 {
            t = p.next_arrival(&mut c, t, &mut r);
            saw_state1 |= c.high;
        }
        assert!(saw_state1, "MMPP never left state 0");
    }

    #[test]
    fn mmpp_zero_switch_prob_behaves_like_poisson() {
        let p = ArrivalPattern::Mmpp {
            mean0: 10.0,
            mean1: 1.0,
            period: 100.0,
            prob: 0.0,
        };
        let ts = sequence(&p, 0.0, 10_000);
        let mean = ts[9_999] / 10_000.0;
        assert!((mean - 10.0).abs() < 0.4, "empirical mean {mean}");
    }

    #[test]
    fn trace_driven_follows_rate_changes() {
        // Two bins: silent then busy.
        let p = trace(vec![0.0, 1.0], 100.0);
        let mut c = p.cursor();
        let mut r = rng();
        let first = p.next_arrival(&mut c, 0.0, &mut r);
        assert!(first >= 100.0, "no arrivals in the silent bin, got {first}");
        let mut count_busy = 0;
        let mut t = first;
        while t < 200.0 {
            count_busy += 1;
            t = p.next_arrival(&mut c, t, &mut r);
        }
        // Rate 1.0 over 100 time units -> ~100 arrivals.
        assert!((60..150).contains(&count_busy), "{count_busy}");
    }

    #[test]
    fn trace_driven_wraps_around() {
        let t = sequence(&trace(vec![1.0], 10.0), 25.0, 1)[0];
        assert!(t > 25.0 && t.is_finite());
    }

    #[test]
    fn all_zero_trace_yields_no_arrivals() {
        assert_eq!(
            sequence(&trace(vec![0.0, 0.0], 1.0), 0.0, 1),
            vec![f64::INFINITY]
        );
    }

    #[test]
    fn every_paper_pattern_arrives_after_zero() {
        for pattern in [
            ArrivalPattern::paper_fixed(),
            ArrivalPattern::paper_poisson(),
            ArrivalPattern::paper_mmpp(),
            ArrivalPattern::paper_trace(),
        ] {
            pattern.validate().unwrap();
            let t = sequence(&pattern, 0.0, 1)[0];
            assert!(t > 0.0 && t.is_finite(), "{}", pattern.name());
        }
    }

    #[test]
    fn pattern_names_round_trip() {
        for n in ["fixed", "poisson", "mmpp", "trace"] {
            assert_eq!(ArrivalPattern::paper_by_name(n).map(|p| p.name()), Some(n));
        }
        assert_eq!(ArrivalPattern::paper_by_name("Poisson"), None);
    }

    #[test]
    fn validate_rejects_each_bad_parameter() {
        let mmpp = |mean0, mean1, period, prob| ArrivalPattern::Mmpp {
            mean0,
            mean1,
            period,
            prob,
        };
        let scaled = |scale| ArrivalPattern::Trace {
            trace: Trace::synthetic_abilene(),
            scale,
        };
        for (bad, name) in [
            (fixed(0.0), "interval"),
            (fixed(f64::INFINITY), "interval"),
            (ArrivalPattern::Poisson { mean: -1.0 }, "mean"),
            (ArrivalPattern::Poisson { mean: f64::NAN }, "mean"),
            (mmpp(0.0, 8.0, 100.0, 0.05), "mean0"),
            (mmpp(12.0, f64::NAN, 100.0, 0.05), "mean1"),
            (mmpp(12.0, 8.0, 0.0, 0.05), "switch period"),
            (mmpp(12.0, 8.0, 100.0, 1.5), "switch probability"),
            (mmpp(12.0, 8.0, 100.0, -0.1), "switch probability"),
            (mmpp(12.0, 8.0, 100.0, f64::NAN), "switch probability"),
            (scaled(0.0), "scale"),
            (scaled(f64::INFINITY), "scale"),
        ] {
            let err = bad.validate().unwrap_err();
            assert!(err.contains(name), "{bad:?}: {err}");
        }
        mmpp(12.0, 8.0, 100.0, 0.0).validate().unwrap();
        mmpp(12.0, 8.0, 100.0, 1.0).validate().unwrap();
    }

    #[test]
    fn pattern_names() {
        assert_eq!(ArrivalPattern::paper_fixed().name(), "fixed");
        assert_eq!(ArrivalPattern::paper_poisson().name(), "poisson");
        assert_eq!(ArrivalPattern::paper_mmpp().name(), "mmpp");
        assert_eq!(ArrivalPattern::paper_trace().name(), "trace");
    }

    #[test]
    fn pattern_serde_round_trip() {
        let p = ArrivalPattern::paper_mmpp();
        let json = serde_json::to_string(&p).unwrap();
        let back: ArrivalPattern = serde_json::from_str(&json).unwrap();
        assert_eq!(p, back);
    }
}

//! Piecewise-constant traffic rate traces.
//!
//! The paper's Fig. 6d drives ingress traffic from real-world Abilene
//! traces (SNDlib). Those traces are not redistributable here, so
//! [`Trace::synthetic_abilene`] generates a deterministic stand-in with the
//! properties the experiment depends on — non-stationary load with a
//! diurnal swing and short bursts (see DESIGN.md §2). Real rate series can
//! be loaded with [`Trace::from_csv`].

use serde::{Deserialize, Serialize};
use std::fmt;

/// Errors raised while constructing or parsing a [`Trace`].
#[derive(Debug, Clone, PartialEq)]
pub enum TraceError {
    /// The trace has no bins.
    Empty,
    /// A rate is negative or non-finite.
    InvalidRate(f64),
    /// The bin width is not finite and positive.
    InvalidBinWidth(f64),
    /// A CSV line could not be parsed.
    Parse {
        /// 1-based line number.
        line: usize,
        /// The field that failed to parse as a rate (after column
        /// selection and trimming) — what the parser actually rejected.
        field: String,
        /// The raw offending line, for locating it in the source file.
        content: String,
    },
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::Empty => write!(f, "trace has no bins"),
            TraceError::InvalidRate(r) => write!(f, "invalid rate {r}: must be finite and ≥ 0"),
            TraceError::InvalidBinWidth(w) => {
                write!(f, "invalid bin width {w}: must be finite and > 0")
            }
            TraceError::Parse {
                line,
                field,
                content,
            } => {
                write!(
                    f,
                    "cannot parse rate field {field:?} on trace line {line}: {content:?}"
                )
            }
        }
    }
}

impl std::error::Error for TraceError {}

/// A piecewise-constant arrival-rate series: `rates[i]` holds for
/// `t ∈ [i·bin_width, (i+1)·bin_width)`; playback wraps cyclically.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Trace {
    rates: Vec<f64>,
    bin_width: f64,
}

// Deserialization goes through `Trace::new`, so a trace read from a
// config holds the same invariants as one built in code.
impl Deserialize for Trace {
    fn from_value(value: &serde::Value) -> Result<Self, serde::Error> {
        let obj = value
            .as_object()
            .ok_or_else(|| serde::Error::new("Trace: expected object"))?;
        let rates = serde::field(obj, "rates", "Trace")?;
        let bin_width = serde::field(obj, "bin_width", "Trace")?;
        Trace::new(rates, bin_width).map_err(|e| serde::Error::new(format!("Trace: {e}")))
    }
}

impl Trace {
    /// Creates a trace from rate bins.
    ///
    /// # Errors
    ///
    /// Returns an error if `rates` is empty, any rate is negative or
    /// non-finite, or `bin_width` is not finite and positive.
    pub fn new(rates: Vec<f64>, bin_width: f64) -> Result<Self, TraceError> {
        if rates.is_empty() {
            return Err(TraceError::Empty);
        }
        if !bin_width.is_finite() || bin_width <= 0.0 {
            return Err(TraceError::InvalidBinWidth(bin_width));
        }
        if let Some(&bad) = rates.iter().find(|r| !r.is_finite() || **r < 0.0) {
            return Err(TraceError::InvalidRate(bad));
        }
        Ok(Trace { rates, bin_width })
    }

    /// Parses a rate series from CSV text: one rate per line, or
    /// `time,rate` pairs (the time column is ignored; bins are assumed
    /// uniform at `bin_width`). Blank lines and `#` comments are skipped;
    /// a non-numeric first data line (a column header like `time,rate`)
    /// is skipped explicitly; trailing commas (`"5,"`) are tolerated by
    /// taking the last *non-empty* field of each line.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::Parse`] naming both the rejected field and
    /// the raw offending line, plus all [`Trace::new`] errors.
    pub fn from_csv(text: &str, bin_width: f64) -> Result<Self, TraceError> {
        let mut rates = Vec::new();
        let mut saw_data_line = false;
        for (i, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let first_data_line = !saw_data_line;
            saw_data_line = true;
            // Last non-empty comma-separated field: the rate column of a
            // `time,rate` pair, the whole line when there is no comma, and
            // still the rate when the line carries a trailing comma.
            let field = line
                .rsplit(',')
                .map(str::trim)
                .find(|f| !f.is_empty())
                .unwrap_or("");
            match field.parse::<f64>() {
                Ok(rate) => rates.push(rate),
                // Only the very first data line gets header forgiveness.
                Err(_) if first_data_line => {}
                Err(_) => {
                    return Err(TraceError::Parse {
                        line: i + 1,
                        field: field.to_string(),
                        content: raw.to_string(),
                    });
                }
            }
        }
        Trace::new(rates, bin_width)
    }

    /// The deterministic synthetic Abilene-like trace used for Fig. 6d:
    /// 200 bins of width 100 time units (two "days" of 10 000 steps each)
    /// with a diurnal sinusoid around mean rate 0.1 (mean inter-arrival 10,
    /// matching the other patterns' load) plus recurring short bursts.
    ///
    /// # Panics
    ///
    /// Never: every bin is finite and non-negative by construction.
    pub fn synthetic_abilene() -> Self {
        let bins = 200usize;
        let day = 100.0; // bins per synthetic day
        let mut rates = Vec::with_capacity(bins);
        for i in 0..bins {
            let phase = 2.0 * std::f64::consts::PI * (i as f64) / day;
            // Diurnal swing: ±50 % around the base rate.
            let mut rate = 0.1 * (1.0 + 0.5 * phase.sin());
            // Deterministic bursts every 17 bins: 80 % extra load.
            if i % 17 == 0 {
                rate *= 1.8;
            }
            // Quiet dips every 23 bins.
            if i % 23 == 0 {
                rate *= 0.4;
            }
            rates.push(rate);
        }
        #[allow(clippy::expect_used, reason = "the documented # Panics contract")]
        Trace::new(rates, 100.0).expect("synthetic trace is valid by construction")
    }

    /// Number of bins.
    pub fn num_bins(&self) -> usize {
        self.rates.len()
    }

    /// Width of each bin in time units.
    pub fn bin_width(&self) -> f64 {
        self.bin_width
    }

    /// Total duration of one playback cycle.
    pub fn duration(&self) -> f64 {
        self.bin_width * self.rates.len() as f64
    }

    /// The rate at absolute time `t` (wrapping cyclically).
    pub fn rate_at(&self, t: f64) -> f64 {
        let cycle = self.duration();
        let within = t.rem_euclid(cycle);
        let idx = ((within / self.bin_width) as usize).min(self.rates.len() - 1);
        self.rates[idx]
    }

    /// The end time of the bin containing `t` (absolute, non-wrapped), i.e.
    /// the next time the rate may change.
    pub fn bin_end(&self, t: f64) -> f64 {
        (t / self.bin_width).floor() * self.bin_width + self.bin_width
    }

    /// Mean rate over one cycle.
    pub fn mean_rate(&self) -> f64 {
        self.rates.iter().sum::<f64>() / self.rates.len() as f64
    }

    /// Peak rate over one cycle.
    pub fn peak_rate(&self) -> f64 {
        self.rates.iter().copied().fold(0.0, f64::max)
    }

    /// The raw rate bins.
    pub fn rates(&self) -> &[f64] {
        &self.rates
    }

    /// Returns a copy with every rate multiplied by `factor`.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is negative or non-finite.
    pub fn scaled(&self, factor: f64) -> Self {
        assert!(
            factor.is_finite() && factor >= 0.0,
            "scale factor must be finite and ≥ 0, got {factor}"
        );
        Trace {
            rates: self.rates.iter().map(|r| r * factor).collect(),
            bin_width: self.bin_width,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_empty_and_invalid() {
        assert_eq!(Trace::new(vec![], 1.0), Err(TraceError::Empty));
        assert_eq!(
            Trace::new(vec![1.0], 0.0),
            Err(TraceError::InvalidBinWidth(0.0))
        );
        assert_eq!(
            Trace::new(vec![1.0, -2.0], 1.0),
            Err(TraceError::InvalidRate(-2.0))
        );
    }

    #[test]
    fn rate_lookup_and_wrapping() {
        let t = Trace::new(vec![1.0, 2.0, 3.0], 10.0).unwrap();
        assert_eq!(t.rate_at(0.0), 1.0);
        assert_eq!(t.rate_at(15.0), 2.0);
        assert_eq!(t.rate_at(29.9), 3.0);
        // Wraps: t=31 is bin 0 of the next cycle.
        assert_eq!(t.rate_at(31.0), 1.0);
        assert_eq!(t.duration(), 30.0);
    }

    #[test]
    fn bin_end_is_next_boundary() {
        let t = Trace::new(vec![1.0, 2.0], 10.0).unwrap();
        assert_eq!(t.bin_end(0.0), 10.0);
        assert_eq!(t.bin_end(9.999), 10.0);
        assert_eq!(t.bin_end(10.0), 20.0);
        assert_eq!(t.bin_end(25.0), 30.0);
    }

    #[test]
    fn csv_parsing_both_shapes() {
        let t = Trace::from_csv("# comment\n1.0\n\n2.5\n", 5.0).unwrap();
        assert_eq!(t.rates(), &[1.0, 2.5]);
        let t2 = Trace::from_csv("0,1.0\n5,2.5\n", 5.0).unwrap();
        assert_eq!(t2.rates(), &[1.0, 2.5]);
    }

    #[test]
    fn csv_reports_offending_line_and_field() {
        let err = Trace::from_csv("1.0\nnot-a-number\n", 1.0).unwrap_err();
        assert_eq!(
            err,
            TraceError::Parse {
                line: 2,
                field: "not-a-number".into(),
                content: "not-a-number".into()
            }
        );
        // In a time,rate pair the *field* names what the parser rejected,
        // while content still carries the whole raw line.
        let err = Trace::from_csv("0,1.0\n5,oops\n", 1.0).unwrap_err();
        assert_eq!(
            err,
            TraceError::Parse {
                line: 2,
                field: "oops".into(),
                content: "5,oops".into()
            }
        );
        let msg = err.to_string();
        assert!(msg.contains("\"oops\""), "{msg}");
        assert!(msg.contains("line 2"), "{msg}");
    }

    /// A non-numeric first data line is a column header and is skipped —
    /// but header forgiveness applies to that line only.
    #[test]
    fn csv_skips_header_line() {
        let t = Trace::from_csv("time,rate\n0,1.0\n5,2.5\n", 5.0).unwrap();
        assert_eq!(t.rates(), &[1.0, 2.5]);
        // Comments/blanks before the header don't consume the forgiveness.
        let t = Trace::from_csv("# source: x\n\nrate\n3.0\n", 5.0).unwrap();
        assert_eq!(t.rates(), &[3.0]);
        // A second non-numeric line is a real error.
        let err = Trace::from_csv("time,rate\n0,1.0\nbad\n", 5.0).unwrap_err();
        assert!(matches!(err, TraceError::Parse { line: 3, .. }), "{err}");
        // Header-only input yields an empty trace error, not a parse error.
        assert_eq!(Trace::from_csv("time,rate\n", 5.0), Err(TraceError::Empty));
    }

    /// Trailing commas leave an empty last field; the parser must fall
    /// back to the last non-empty one.
    #[test]
    fn csv_tolerates_trailing_comma() {
        let t = Trace::from_csv("5,\n2.5,\n", 1.0).unwrap();
        assert_eq!(t.rates(), &[5.0, 2.5]);
        let t = Trace::from_csv("0,1.5,\n", 1.0).unwrap();
        assert_eq!(t.rates(), &[1.5]);
        // All-empty fields still fail (line 2: not the header).
        let err = Trace::from_csv("1.0\n,,\n", 1.0).unwrap_err();
        assert_eq!(
            err,
            TraceError::Parse {
                line: 2,
                field: "".into(),
                content: ",,".into()
            }
        );
    }

    /// `rate_at` at exact bin and cycle boundaries: a boundary belongs to
    /// the bin it opens, and the cycle end wraps to bin 0 — never an
    /// out-of-range index.
    #[test]
    fn rate_at_exact_boundaries_wrap() {
        let t = Trace::new(vec![1.0, 2.0, 3.0], 10.0).unwrap();
        // Interior bin boundaries open the next bin.
        assert_eq!(t.rate_at(10.0), 2.0);
        assert_eq!(t.rate_at(20.0), 3.0);
        // The exact cycle boundary wraps to bin 0, as does every multiple.
        assert_eq!(t.rate_at(30.0), 1.0);
        assert_eq!(t.rate_at(60.0), 1.0);
        assert_eq!(t.rate_at(90.0), 1.0);
        // Just below the cycle end stays in the last bin.
        assert_eq!(t.rate_at(30.0 - 1e-9), 3.0);
        // Negative times wrap backwards into the cycle and always land on
        // a real bin (the clamp guards rem_euclid rounding at the edge).
        for &neg in &[-1e-18, -0.5, -10.0, -30.0] {
            let r = t.rate_at(neg);
            assert!(t.rates().contains(&r), "rate_at({neg}) = {r}");
        }
        assert_eq!(t.rate_at(-0.5), 3.0);
    }

    #[test]
    fn synthetic_trace_properties() {
        let t = Trace::synthetic_abilene();
        assert_eq!(t.num_bins(), 200);
        // Mean load calibrated near 0.1 flows per time unit.
        let mean = t.mean_rate();
        assert!((mean - 0.1).abs() < 0.02, "mean rate {mean}");
        // Bursty: peak well above mean.
        assert!(t.peak_rate() > 1.5 * mean);
        // Deterministic.
        assert_eq!(t, Trace::synthetic_abilene());
    }

    #[test]
    fn scaling() {
        let t = Trace::new(vec![1.0, 2.0], 1.0).unwrap().scaled(0.5);
        assert_eq!(t.rates(), &[0.5, 1.0]);
        assert_eq!(t.mean_rate(), 0.75);
    }

    /// A trace read from JSON passes `Trace::new`'s checks: an empty or
    /// zero-width one is an error, not a trace that never arrives.
    #[test]
    fn deserialization_rejects_what_new_rejects() {
        for (json, want) in [
            (r#"{"rates":[],"bin_width":10.0}"#, "no bins"),
            (r#"{"rates":[1.0],"bin_width":0.0}"#, "bin width"),
            (r#"{"rates":[1.0,-2.0],"bin_width":1.0}"#, "rate -2"),
            (r#"{"rates":[1.0]}"#, "bin_width"),
        ] {
            let err = serde_json::from_str::<Trace>(json).unwrap_err();
            assert!(err.to_string().contains(want), "{json}: {err}");
        }
        let t: Trace = serde_json::from_str(r#"{"rates":[1.0,2.0],"bin_width":5.0}"#).unwrap();
        assert_eq!(t, Trace::new(vec![1.0, 2.0], 5.0).unwrap());
    }

    #[test]
    fn serde_round_trip() {
        let t = Trace::synthetic_abilene();
        let json = serde_json::to_string(&t).unwrap();
        let back: Trace = serde_json::from_str(&json).unwrap();
        assert_eq!(t.bin_width(), back.bin_width());
        assert_eq!(t.num_bins(), back.num_bins());
        for (a, b) in t.rates().iter().zip(back.rates()) {
            // JSON text round-trips floats to within an ulp, not bit-exactly.
            assert!((a - b).abs() <= f64::EPSILON * a.abs());
        }
    }
}

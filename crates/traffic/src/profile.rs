//! Per-flow parameter profiles.

use serde::{Deserialize, Serialize};

/// The per-flow parameters of the base scenario (Sec. V-A1): data rate
/// `λ_f`, duration `δ_f`, and deadline `τ_f` (maximum acceptable
/// end-to-end delay, relative to arrival).
///
/// # Example
///
/// ```
/// use dosco_traffic::FlowProfile;
///
/// let p = FlowProfile::paper_default();
/// assert_eq!((p.rate, p.duration, p.deadline), (1.0, 1.0, 100.0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FlowProfile {
    /// Data rate `λ_f`.
    pub rate: f64,
    /// Flow duration `δ_f` (how long the flow transmits).
    pub duration: f64,
    /// Deadline `τ_f`: maximum acceptable end-to-end delay.
    pub deadline: f64,
}

impl FlowProfile {
    /// Creates a flow profile.
    ///
    /// # Panics
    ///
    /// Panics if [`FlowProfile::validate`] rejects the parameters.
    pub fn new(rate: f64, duration: f64, deadline: f64) -> Self {
        let profile = FlowProfile {
            rate,
            duration,
            deadline,
        };
        if let Err(e) = profile.validate() {
            panic!("{e}");
        }
        profile
    }

    /// Checks the parameters: rate and duration finite and ≥ 0, the
    /// deadline finite and > 0. The fields are public, so a profile built
    /// as a struct literal or read from a config is checked here, not in
    /// [`FlowProfile::new`].
    ///
    /// # Errors
    ///
    /// Returns a message naming the first parameter out of range.
    pub fn validate(&self) -> Result<(), String> {
        let FlowProfile {
            rate,
            duration,
            deadline,
        } = *self;
        if !(rate.is_finite() && rate >= 0.0) {
            return Err(format!("flow rate {rate} must be finite and ≥ 0"));
        }
        if !(duration.is_finite() && duration >= 0.0) {
            return Err(format!("flow duration {duration} must be finite and ≥ 0"));
        }
        if !(deadline.is_finite() && deadline > 0.0) {
            return Err(format!("flow deadline {deadline} must be finite and > 0"));
        }
        Ok(())
    }

    /// The paper's base scenario: unit rate and duration, deadline 100.
    pub fn paper_default() -> Self {
        FlowProfile::new(1.0, 1.0, 100.0)
    }

    /// Returns a copy with a different deadline (Sec. V-C sweeps
    /// `τ_f ∈ {20, 30, 40, 50}`).
    ///
    /// # Panics
    ///
    /// Panics if `deadline` is not finite and positive.
    pub fn with_deadline(self, deadline: f64) -> Self {
        FlowProfile::new(self.rate, self.duration, deadline)
    }
}

impl Default for FlowProfile {
    fn default() -> Self {
        FlowProfile::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_values() {
        let p = FlowProfile::paper_default();
        assert_eq!(p, FlowProfile::default());
        assert_eq!(p.rate, 1.0);
        assert_eq!(p.duration, 1.0);
        assert_eq!(p.deadline, 100.0);
    }

    #[test]
    fn with_deadline_sweeps() {
        for d in [20.0, 30.0, 40.0, 50.0] {
            let p = FlowProfile::paper_default().with_deadline(d);
            assert_eq!(p.deadline, d);
            assert_eq!(p.rate, 1.0);
        }
    }

    #[test]
    #[should_panic(expected = "deadline")]
    fn rejects_zero_deadline() {
        FlowProfile::new(1.0, 1.0, 0.0);
    }

    #[test]
    #[should_panic(expected = "rate")]
    fn rejects_nan_rate() {
        FlowProfile::new(f64::NAN, 1.0, 1.0);
    }

    #[test]
    fn validate_names_each_bad_field() {
        for (rate, duration, deadline, name) in [
            (-1.0, 1.0, 100.0, "rate"),
            (f64::INFINITY, 1.0, 100.0, "rate"),
            (1.0, -0.5, 100.0, "duration"),
            (1.0, f64::NAN, 100.0, "duration"),
            (1.0, 1.0, 0.0, "deadline"),
            (1.0, 1.0, f64::INFINITY, "deadline"),
        ] {
            let bad = FlowProfile {
                rate,
                duration,
                deadline,
            };
            let err = bad.validate().unwrap_err();
            assert!(err.contains(name), "{bad:?}: {err}");
        }
        // Zero rate and duration are allowed (a flow that loads nothing).
        FlowProfile::new(0.0, 0.0, 1.0);
    }
}

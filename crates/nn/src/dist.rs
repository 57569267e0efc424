//! Categorical policy head: sampling, log-probabilities, entropy, and the
//! policy-gradient logit gradients used by the actor-critic algorithms.
//!
//! One rule turns a row of log-probabilities into an action, greedy
//! ([`greedy_action`]) or drawn ([`sample_action`]); [`Categorical`] runs it
//! on its stored rows, and a decision runs it on [`log_softmax`] of a logit
//! row without building a distribution. Both see the same log-probability
//! bits, so both choose the same action.

use crate::matrix::Matrix;
use rand::Rng;

/// Numerically stable log-softmax of one logit row, element by element:
/// `l − max − ln Σ exp(l − max)`. Allocates nothing.
pub fn log_softmax(logits: &[f32]) -> impl ExactSizeIterator<Item = f32> + '_ {
    let max = logits.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let log_sum: f32 = logits.iter().map(|&l| (l - max).exp()).sum::<f32>().ln();
    logits.iter().map(move |&l| l - max - log_sum)
}

/// Numerically stable per-row log-softmax.
pub fn log_softmax_row(logits: &[f32]) -> Vec<f32> {
    log_softmax(logits).collect()
}

/// Per-row softmax probabilities.
pub fn softmax_row(logits: &[f32]) -> Vec<f32> {
    log_softmax(logits).map(f32::exp).collect()
}

/// The most likely action of one row of log-probabilities (greedy
/// inference, Sec. IV-C2). Among equal log-probabilities the last one
/// wins.
///
/// # Panics
///
/// Panics if the row is empty, or if a log-probability is NaN (logits that
/// were not finite): such a row has no most likely action.
#[allow(
    clippy::expect_used,
    reason = "the documented # Panics contract of the greedy rule"
)]
pub fn greedy_action(log_probs: impl IntoIterator<Item = f32>) -> usize {
    log_probs
        .into_iter()
        .enumerate()
        .max_by(|a, b| a.1.partial_cmp(&b.1).expect("log-probs are finite"))
        .map(|(i, _)| i)
        .expect("non-empty action space")
}

/// One inverse-CDF draw from one row of log-probabilities: a single
/// `gen::<f32>()`, then the first action whose cumulative probability
/// exceeds it; the last action if rounding leaves the sum below the draw.
///
/// # Panics
///
/// Panics if the row is empty.
pub fn sample_action<R: Rng + ?Sized>(
    log_probs: impl IntoIterator<Item = f32>,
    rng: &mut R,
) -> usize {
    let u: f32 = rng.gen();
    let mut acc = 0.0;
    let mut last = None;
    for (i, lp) in log_probs.into_iter().enumerate() {
        acc += lp.exp();
        if u < acc {
            return i;
        }
        last = Some(i);
    }
    match last {
        Some(i) => i, // guard against f32 rounding
        None => panic!("non-empty action space"),
    }
}

/// A batch categorical distribution parameterized by logits
/// (`batch × num_actions`).
///
/// # Example
///
/// ```
/// use dosco_nn::dist::Categorical;
/// use dosco_nn::matrix::Matrix;
/// use rand::SeedableRng;
///
/// let logits = Matrix::from_rows(&[&[0.0, 10.0]]);
/// let dist = Categorical::new(&logits);
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// assert_eq!(dist.sample(&mut rng), vec![1]); // near-certain action 1
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Categorical {
    log_probs: Matrix,
}

impl Categorical {
    /// Builds the distribution from raw logits.
    pub fn new(logits: &Matrix) -> Self {
        let mut log_probs = Matrix::zeros(logits.rows(), logits.cols());
        for r in 0..logits.rows() {
            for (o, lp) in log_probs
                .row_mut(r)
                .iter_mut()
                .zip(log_softmax(logits.row(r)))
            {
                *o = lp;
            }
        }
        Categorical { log_probs }
    }

    /// Number of actions.
    pub fn num_actions(&self) -> usize {
        self.log_probs.cols()
    }

    /// Batch size.
    pub fn batch(&self) -> usize {
        self.log_probs.rows()
    }

    /// Per-row probabilities.
    pub fn probs(&self) -> Matrix {
        self.log_probs.map(f32::exp)
    }

    /// Samples one action per row (inverse-CDF).
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> Vec<usize> {
        (0..self.batch()).map(|r| self.sample_row(r, rng)).collect()
    }

    /// Samples one action for a single row — the per-row counterpart of
    /// [`Categorical::sample`], for callers holding one RNG stream per
    /// row (e.g. per-node agents sharing a batched forward pass). Given
    /// the same RNG state, this draws exactly what `sample` would draw
    /// for that row: one `gen::<f32>()` and the same inverse-CDF walk.
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of range.
    pub fn sample_row<R: Rng + ?Sized>(&self, row: usize, rng: &mut R) -> usize {
        sample_action(self.log_probs.row(row).iter().copied(), rng)
    }

    /// The most likely action per row ([`greedy_action`] on each row).
    ///
    /// # Panics
    ///
    /// Panics if a row has no actions, or if a log-probability is NaN
    /// (logits that were not finite): such a row has no most likely
    /// action.
    pub fn argmax(&self) -> Vec<usize> {
        (0..self.batch())
            .map(|r| greedy_action(self.log_probs.row(r).iter().copied()))
            .collect()
    }

    /// Log-probability of the given action per row.
    ///
    /// # Panics
    ///
    /// Panics if `actions.len() != batch` or an action is out of range.
    pub fn log_prob(&self, actions: &[usize]) -> Vec<f32> {
        assert_eq!(actions.len(), self.batch(), "one action per row required");
        actions
            .iter()
            .enumerate()
            .map(|(r, &a)| self.log_probs.get(r, a))
            .collect()
    }

    /// Per-row entropy `H = −Σ π log π`.
    pub fn entropy(&self) -> Vec<f32> {
        (0..self.batch())
            .map(|r| {
                self.log_probs
                    .row(r)
                    .iter()
                    .map(|&lp| {
                        let p = lp.exp();
                        if p > 0.0 {
                            -p * lp
                        } else {
                            0.0
                        }
                    })
                    .sum()
            })
            .collect()
    }

    /// Gradient of the A2C actor loss w.r.t. the logits:
    /// `L = −(1/B) Σ_b [ adv_b · log π(a_b) + β · H_b ]`.
    ///
    /// Per row: `adv · (π − onehot(a)) + β · π ⊙ (log π + H)`, divided by
    /// the batch size.
    ///
    /// # Panics
    ///
    /// Panics on length mismatches.
    pub fn policy_gradient_logits(
        &self,
        actions: &[usize],
        advantages: &[f32],
        entropy_coef: f32,
    ) -> Matrix {
        assert_eq!(actions.len(), self.batch(), "one action per row required");
        assert_eq!(
            advantages.len(),
            self.batch(),
            "one advantage per row required"
        );
        let b = self.batch() as f32;
        let entropies = self.entropy();
        let mut out = Matrix::zeros(self.batch(), self.num_actions());
        for r in 0..self.batch() {
            let lp = self.log_probs.row(r);
            let h = entropies[r];
            let adv = advantages[r];
            let row = out.row_mut(r);
            for (j, (&l, o)) in lp.iter().zip(row.iter_mut()).enumerate() {
                let p = l.exp();
                let pg = adv * (p - if j == actions[r] { 1.0 } else { 0.0 });
                let ent = entropy_coef * p * (l + h);
                *o = (pg + ent) / b;
            }
        }
        out
    }

    /// Fisher-sampled logit gradients for K-FAC's `G` factor: per row,
    /// `(π − onehot(a'))` with `a'` drawn from the model's own
    /// distribution (Wu et al., NeurIPS 2017 — avoids the empirical
    /// Fisher). Scaled by `1/B`.
    pub fn fisher_sample_logits<R: Rng + ?Sized>(&self, rng: &mut R) -> Matrix {
        let sampled = self.sample(rng);
        let b = self.batch() as f32;
        let mut out = self.probs();
        for (r, &a) in sampled.iter().enumerate() {
            let v = out.get(r, a);
            out.set(r, a, v - 1.0);
        }
        out.scale_in_place(1.0 / b);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn softmax_sums_to_one() {
        let p = softmax_row(&[1.0, 2.0, 3.0]);
        let sum: f32 = p.iter().sum();
        assert!((sum - 1.0).abs() < 1e-6);
        assert!(p[2] > p[1] && p[1] > p[0]);
    }

    #[test]
    fn log_softmax_stable_for_large_logits() {
        let lp = log_softmax_row(&[1000.0, 0.0]);
        assert!(lp[0] > -1e-3);
        assert!(lp[1] < -900.0);
        assert!(lp.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn uniform_entropy_is_log_k() {
        let logits = Matrix::from_rows(&[&[0.0, 0.0, 0.0, 0.0]]);
        let d = Categorical::new(&logits);
        let h = d.entropy()[0];
        assert!((h - 4.0f32.ln()).abs() < 1e-5);
    }

    #[test]
    fn sampling_follows_probabilities() {
        let logits = Matrix::from_rows(&[&[0.0, (3.0f32).ln()]]); // p = [0.25, 0.75]
        let d = Categorical::new(&logits);
        let mut rng = StdRng::seed_from_u64(3);
        let n = 20_000;
        let mut ones = 0;
        for _ in 0..n {
            if d.sample(&mut rng)[0] == 1 {
                ones += 1;
            }
        }
        let frac = ones as f32 / n as f32;
        assert!((frac - 0.75).abs() < 0.02, "{frac}");
    }

    /// `sample_row` with per-row RNG clones reproduces the batch `sample`
    /// draw-for-draw.
    #[test]
    fn sample_row_matches_batch_sample() {
        let logits = Matrix::from_rows(&[&[0.3, -0.2, 0.8], &[1.5, 0.0, -1.0], &[0.0, 0.0, 0.0]]);
        let d = Categorical::new(&logits);
        let mut batch_rng = StdRng::seed_from_u64(17);
        // The batch path draws row 0, then row 1, then row 2 from one
        // stream; replay the same stream positions per row.
        let mut row_rng = StdRng::seed_from_u64(17);
        let batch = d.sample(&mut batch_rng);
        let rows: Vec<usize> = (0..3).map(|r| d.sample_row(r, &mut row_rng)).collect();
        assert_eq!(batch, rows);
    }

    #[test]
    fn argmax_and_log_prob() {
        let logits = Matrix::from_rows(&[&[0.1, 2.0, -1.0], &[5.0, 0.0, 0.0]]);
        let d = Categorical::new(&logits);
        assert_eq!(d.argmax(), vec![1, 0]);
        let lp = d.log_prob(&[1, 0]);
        assert!(lp.iter().all(|&v| v < 0.0));
        // Most likely action has the highest log prob in its row.
        assert!(lp[0] > d.log_prob(&[0, 0])[0]);
    }

    /// The analytic logit gradient must match finite differences of the
    /// actor loss.
    #[test]
    fn policy_gradient_matches_finite_differences() {
        let logits = vec![0.4f32, -0.3, 1.1];
        let action = 2usize;
        let adv = -0.7f32;
        let beta = 0.01f32;
        let loss = |lg: &[f32]| -> f32 {
            let d = Categorical::new(&Matrix::row_vector(lg));
            -(adv * d.log_prob(&[action])[0] + beta * d.entropy()[0])
        };
        let d = Categorical::new(&Matrix::row_vector(&logits));
        let grad = d.policy_gradient_logits(&[action], &[adv], beta);
        let eps = 1e-3;
        for j in 0..3 {
            let mut up = logits.clone();
            up[j] += eps;
            let mut down = logits.clone();
            down[j] -= eps;
            let numeric = (loss(&up) - loss(&down)) / (2.0 * eps);
            let analytic = grad.get(0, j);
            assert!(
                (numeric - analytic).abs() < 1e-3,
                "logit {j}: numeric {numeric} vs analytic {analytic}"
            );
        }
    }

    #[test]
    fn fisher_sample_rows_sum_to_zero() {
        // (π − onehot) sums to 0 per row — a quick structural invariant.
        let logits = Matrix::from_rows(&[&[0.2, -0.4, 0.9], &[1.0, 1.0, 1.0]]);
        let d = Categorical::new(&logits);
        let mut rng = StdRng::seed_from_u64(9);
        let g = d.fisher_sample_logits(&mut rng);
        for r in 0..2 {
            let s: f32 = g.row(r).iter().sum();
            assert!(s.abs() < 1e-6, "row {r} sums to {s}");
        }
    }

    #[test]
    #[should_panic(expected = "one action per row")]
    fn log_prob_rejects_wrong_length() {
        let d = Categorical::new(&Matrix::from_rows(&[&[0.0, 0.0]]));
        d.log_prob(&[0, 1]);
    }
}

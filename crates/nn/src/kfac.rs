//! Kronecker-factored approximate curvature (K-FAC) preconditioning.
//!
//! ACKTR (Wu et al., NeurIPS 2017 \[38\]) trains actor and critic with a
//! natural-gradient step: per dense layer, the Fisher information matrix is
//! approximated as the Kronecker product `F ≈ A ⊗ G` of the input
//! second-moment matrix `A = E[ā āᵀ]` (with a homogeneous coordinate
//! folding in the bias) and the pre-activation gradient second-moment
//! matrix `G = E[g gᵀ]`, where the `g` are sampled from the model's own
//! predictive distribution (not the empirical loss gradient). The
//! preconditioned update is `Δ = A⁻¹ ∇ G⁻¹`, rescaled so the quadratic
//! KL estimate stays inside a trust region (Sec. IV-C2: KL clip 0.001).
//!
//! Both factors are symmetric, and `xᵀx` is symmetric bit for bit, so each
//! factor keeps only its upper triangle: the moving average blends and
//! stores that triangle row by row, and
//! [`crate::linalg::damped_inverse`] reads nothing else. The strict lower
//! triangle of a factor is stale and unread. A step
//! whose natural gradient is not finite is refused with
//! [`LinalgError::NonFinite`] before any weight moves.

use crate::linalg::{damped_inverse_into, LinalgError};
use crate::matrix::Matrix;
use crate::mlp::{ForwardCache, Gradients, Mlp};
use serde::{Deserialize, Serialize};

/// K-FAC hyperparameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct KfacConfig {
    /// Base learning rate η (the paper uses 0.25).
    pub lr: f32,
    /// Trust region δ on the quadratic KL estimate (the paper uses 0.001).
    pub kl_clip: f32,
    /// Tikhonov damping λ added to both factors before inversion.
    pub damping: f64,
    /// Exponential moving-average decay for the factors.
    pub stat_decay: f32,
    /// Recompute the damped inverses every this many steps.
    pub inverse_period: u32,
    /// Global gradient-norm clip applied before preconditioning (the paper
    /// uses 0.5).
    pub max_grad_norm: f32,
}

impl Default for KfacConfig {
    fn default() -> Self {
        KfacConfig {
            lr: 0.25,
            kl_clip: 0.001,
            damping: 0.01,
            stat_decay: 0.95,
            inverse_period: 20,
            max_grad_norm: 0.5,
        }
    }
}

/// Per-layer Kronecker factors (upper triangles only) and their cached
/// inverses.
#[derive(Debug, Clone)]
struct LayerFactors {
    /// `A = E[ā āᵀ]`, `(in+1) × (in+1)` with the homogeneous coordinate.
    a: Matrix,
    /// `G = E[g gᵀ]`, `out × out`.
    g: Matrix,
    /// `(A + λI)⁻¹` as of the last refresh, inverted in place.
    a_inv: Matrix,
    /// `(G + λI)⁻¹` as of the last refresh, inverted in place.
    g_inv: Matrix,
    initialized: bool,
    /// This layer's natural gradient `A⁻¹ ∇ G⁻¹` in the homogeneous
    /// `(in+1) × out` layout: written by the preconditioning half of
    /// [`Kfac::step`], applied once the trust-region scale over all
    /// layers is known.
    nat: Matrix,
}

/// K-FAC natural-gradient optimizer state for one [`Mlp`].
///
/// Usage per update:
/// 1. [`Kfac::update_stats`] with the forward cache and *Fisher-sampled*
///    per-layer pre-activation gradients (see
///    [`crate::dist::Categorical::fisher_sample_logits`] for policy heads),
/// 2. [`Kfac::step`] with the true loss gradients.
///
/// The intermediates of both are as large as a factor (264 KB at the
/// paper's width), so they live here and are reused by every layer and
/// every update instead of being allocated per product; a refresh inverts
/// into the inverses it already holds.
///
/// Only a refreshing step reads the factors ([`Kfac::step_refreshes`]),
/// so before any other step the statistics of its batch may as well be
/// blended after it: the same bits either way.
#[derive(Debug, Clone)]
pub struct Kfac {
    config: KfacConfig,
    layers: Vec<LayerFactors>,
    steps: u32,
    /// A layer's input batch with the homogeneous ones column.
    xe: Matrix,
    /// The upper triangle of one batch's `xᵀx`.
    gram: Matrix,
    /// A layer's `[dW; db]`, norm-clipped.
    grad: Matrix,
    /// `A⁻¹ · grad`.
    half: Matrix,
    /// The `f64` work of one inversion ([`damped_inverse_into`]).
    work: Vec<f64>,
}

impl Kfac {
    /// Creates K-FAC state shaped for `net`.
    ///
    /// # Panics
    ///
    /// Panics if `config.inverse_period` is 0, which would invert the
    /// factors once and never refresh them.
    pub fn new(net: &Mlp, config: KfacConfig) -> Self {
        assert!(
            config.inverse_period > 0,
            "KfacConfig::inverse_period must be at least 1 (0 would invert once and never refresh)"
        );
        let layers = net
            .layers()
            .iter()
            .map(|l| LayerFactors {
                a: Matrix::identity(l.inputs() + 1),
                g: Matrix::identity(l.outputs()),
                a_inv: Matrix::default(),
                g_inv: Matrix::default(),
                initialized: false,
                nat: Matrix::zeros(l.inputs() + 1, l.outputs()),
            })
            .collect();
        let scratch = || Matrix::zeros(0, 0);
        Kfac {
            config,
            layers,
            steps: 0,
            xe: scratch(),
            gram: scratch(),
            grad: scratch(),
            half: scratch(),
            work: Vec::new(),
        }
    }

    /// The configuration.
    pub fn config(&self) -> &KfacConfig {
        &self.config
    }

    /// Overwrites the base learning rate (for decay schedules).
    pub fn set_lr(&mut self, lr: f32) {
        self.config.lr = lr;
    }

    /// Whether the next [`Kfac::step`] recomputes the inverses from the
    /// factors — the first step and every `inverse_period`-th after it,
    /// the only steps that read the factors.
    pub fn step_refreshes(&self) -> bool {
        self.steps.is_multiple_of(self.config.inverse_period)
    }

    /// Updates the running Kronecker factors from one batch: `A` from the
    /// cached layer inputs, `G` from `fisher_grads` (per-layer `batch × out`
    /// pre-activation gradients sampled from the model distribution — e.g.
    /// [`Mlp::backward_preact`] of Fisher-sampled output gradients).
    ///
    /// # Panics
    ///
    /// Panics on layer-count or shape mismatches.
    pub fn update_stats(&mut self, cache: &ForwardCache, fisher_grads: &[Matrix]) {
        assert_eq!(
            fisher_grads.len(),
            self.layers.len(),
            "one Fisher gradient batch per layer required"
        );
        let _span = dosco_obs::span(dosco_obs::SpanKind::KfacStats);
        let Kfac { layers, xe, gram, .. } = self;
        for ((factors, x), g) in layers.iter_mut().zip(&cache.inputs).zip(fisher_grads) {
            let batch = x.rows() as f32;
            assert!(batch > 0.0, "empty batch");
            assert_eq!(g.rows(), x.rows(), "Fisher gradient batch size mismatch");
            let decay = factors.initialized.then_some(self.config.stat_decay);
            // Extend inputs with the homogeneous coordinate for the bias.
            let width = x.cols() + 1;
            xe.reshape(x.rows(), width);
            for (e, row) in xe
                .as_mut_slice()
                .chunks_exact_mut(width)
                .zip(x.as_slice().chunks_exact(x.cols()))
            {
                e[..x.cols()].copy_from_slice(row);
                e[x.cols()] = 1.0;
            }
            blend_second_moment(&mut factors.a, xe, gram, 1.0 / batch, decay);
            // fisher_grads carry 1/batch scaling from the sampler; the
            // second moment needs Σ g gᵀ · batch to undo the square of it.
            blend_second_moment(&mut factors.g, g, gram, batch, decay);
            factors.initialized = true;
        }
    }

    fn refresh_inverses(&mut self) -> Result<(), LinalgError> {
        let _span = dosco_obs::span(dosco_obs::SpanKind::KfacInversion);
        let Kfac {
            config,
            layers,
            work,
            ..
        } = self;
        for f in layers {
            damped_inverse_into(&f.a, config.damping, &mut f.a_inv, work)?;
            damped_inverse_into(&f.g, config.damping, &mut f.g_inv, work)?;
        }
        Ok(())
    }

    /// Applies one natural-gradient step for the true loss `grads`.
    ///
    /// Combines each layer's `[dW; db]` into the homogeneous layout,
    /// preconditions with `A⁻¹ · ∇ · G⁻¹`, computes the trust-region scale
    /// `η = min(lr, √(2δ / Δᵀ∇))`, and updates `net`.
    ///
    /// # Errors
    ///
    /// Propagates [`LinalgError`] if a factor inversion fails (increase
    /// damping), and returns [`LinalgError::NonFinite`] if the natural
    /// gradient's `Δᵀ∇` is NaN or infinite. Either way `net` is left
    /// untouched.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatches between `net`, `grads`, and this state.
    pub fn step(&mut self, net: &mut Mlp, grads: &Gradients) -> Result<(), LinalgError> {
        assert_eq!(grads.layers.len(), self.layers.len(), "layer count mismatch");
        let clip = grads.clip_factor(self.config.max_grad_norm);
        // A failed refresh leaves `steps` where it was, so the next step
        // refreshes again.
        if self.step_refreshes() {
            self.refresh_inverses()?;
        }
        self.steps += 1;

        // Precondition every layer; accumulate Δᵀ∇ ≈ ΔᵀFΔ for the trust
        // region (exact when F Δ = ∇).
        let mut quad = 0.0f64;
        {
            let _span = dosco_obs::span(dosco_obs::SpanKind::KfacPrecondition);
            let Kfac { layers, grad, half, .. } = self;
            for (factors, g) in layers.iter_mut().zip(&grads.layers) {
                // Homogeneous gradient: (in+1) × out with db as the last row.
                let (rows, cols) = (g.dw.rows() + 1, g.dw.cols());
                grad.reshape(rows, cols);
                let (dw, db) = grad.as_mut_slice().split_at_mut(g.dw.as_slice().len());
                dw.copy_from_slice(g.dw.as_slice());
                db.copy_from_slice(&g.db);
                if let Some(factor) = clip {
                    grad.scale_in_place(factor);
                }
                half.reshape(rows, cols);
                factors.a_inv.matmul_into(grad, half);
                half.matmul_into(&factors.g_inv, &mut factors.nat);
                quad += f64::from(factors.nat.dot(grad));
            }
        }
        // `f64::max` would turn a NaN into 0.0 and so skip the trust region
        // and write NaN into every weight at the full rate.
        if !quad.is_finite() {
            return Err(LinalgError::NonFinite);
        }
        let quad = quad.max(0.0);
        let eta = if quad > 0.0 {
            (f64::from(2.0 * self.config.kl_clip) / quad)
                .sqrt()
                .min(f64::from(self.config.lr)) as f32
        } else {
            self.config.lr
        };
        for (i, factors) in self.layers.iter().enumerate() {
            net.apply_homogeneous_update(i, &factors.nat, -eta);
        }
        Ok(())
    }
}

/// One factor's moving average, `factor ← decay·factor + (1 − decay)·
/// scale·xᵀx` (just the new term while `decay` is `None`: the first batch
/// replaces the identity), on the upper triangle only. `xᵀx` is symmetric
/// bit for bit, so only its upper triangle is computed (into `gram`),
/// blended row by row, and stored; the strict lower triangle of `factor`
/// is never written again, and [`crate::linalg::damped_inverse`] never
/// reads it.
fn blend_second_moment(
    factor: &mut Matrix,
    x: &Matrix,
    gram: &mut Matrix,
    scale: f32,
    decay: Option<f32>,
) {
    let n = x.cols();
    assert_eq!((factor.rows(), factor.cols()), (n, n), "factor shape mismatch");
    gram.reshape(n, n);
    x.gram_upper_into(gram);
    for (i, (f, new)) in factor
        .as_mut_slice()
        .chunks_exact_mut(n)
        .zip(gram.as_slice().chunks_exact(n))
        .enumerate()
    {
        for (f, &g) in f[i..].iter_mut().zip(&new[i..]) {
            let fresh = g * scale;
            *f = match decay {
                Some(d) => *f * d + (1.0 - d) * fresh,
                None => fresh,
            };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mlp::{Activation, LayerGrads};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(13)
    }

    /// With identity factors (before any stats), K-FAC reduces to clipped,
    /// trust-region-scaled gradient descent and must decrease a regression
    /// loss.
    #[test]
    fn kfac_descends_regression_loss() {
        let mut net = Mlp::new(&[2, 16, 1], Activation::Tanh, &mut rng());
        let x = Matrix::from_rows(&[
            &[0.0, 0.1],
            &[0.5, -0.5],
            &[-0.8, 0.3],
            &[0.9, 0.9],
        ]);
        let y = Matrix::from_rows(&[&[0.2], &[-0.3], &[0.5], &[0.9]]);
        let loss = |net: &Mlp| {
            let d = net.forward(&x).sub(&y);
            d.dot(&d) / (2.0 * x.rows() as f32)
        };
        let mut kfac = Kfac::new(&net, KfacConfig::default());
        let mut r = rng();
        let initial = loss(&net);
        for _ in 0..200 {
            let cache = net.forward_cached(&x);
            let dout = cache.output.sub(&y).scaled(1.0 / x.rows() as f32);
            let grads = net.backward(&cache, &dout);
            // Fisher sampling for a regression (Gaussian) head: g = out − t
            // with t ~ N(out, 1), i.e. standard-normal noise.
            use rand::Rng as _;
            let fisher_out = Matrix::from_fn(x.rows(), 1, |_, _| {
                let u1: f32 = r.gen_range(1e-6..1.0);
                let u2: f32 = r.gen();
                ((-2.0 * u1.ln()).sqrt() * (2.0 * std::f32::consts::PI * u2).cos())
                    / x.rows() as f32
            });
            kfac.update_stats(&cache, &net.backward_preact(&cache, &fisher_out));
            kfac.step(&mut net, &grads).unwrap();
        }
        let fin = loss(&net);
        assert!(fin < 0.2 * initial, "loss {initial} -> {fin}");
    }

    /// The trust region bounds the update: for a huge gradient, the applied
    /// step must be much smaller than lr · |nat-grad|.
    #[test]
    fn trust_region_limits_step_size() {
        let mut net = Mlp::new(&[1, 1], Activation::Identity, &mut rng());
        let before = net.layers()[0].weights().get(0, 0);
        let mut kfac = Kfac::new(&net, KfacConfig::default());
        let grads = Gradients {
            layers: vec![LayerGrads {
                dw: Matrix::from_rows(&[&[1e4]]),
                db: vec![0.0],
                preact_grads: Matrix::zeros(0, 0),
            }],
        };
        kfac.step(&mut net, &grads).unwrap();
        let delta = (net.layers()[0].weights().get(0, 0) - before).abs();
        // Norm clip bounds the gradient at 0.5; trust region shrinks the
        // step to sqrt(2*0.001/quad): for quad = 0.25 that is ~0.089·0.5.
        assert!(delta < 0.1, "step {delta} too large");
        assert!(delta > 0.0, "step did not move");
    }

    /// A NaN gradient makes `Δᵀ∇` NaN, which `f64::max` turns into 0.0:
    /// applied, the step would skip the trust region and write NaN into
    /// every weight at the full rate. It is refused and no weight moves.
    #[test]
    fn non_finite_natural_gradient_is_refused_and_weights_stay() {
        let mut net = Mlp::new(&[2, 3], Activation::Identity, &mut rng());
        let before: Vec<u32> = net.flat_params().iter().map(|v| v.to_bits()).collect();
        let mut kfac = Kfac::new(&net, KfacConfig::default());
        let mut dw = Matrix::zeros(2, 3);
        dw.set(1, 2, f32::NAN);
        let grads = Gradients {
            layers: vec![LayerGrads {
                dw,
                db: vec![0.1; 3],
                preact_grads: Matrix::zeros(0, 0),
            }],
        };
        assert_eq!(kfac.step(&mut net, &grads), Err(LinalgError::NonFinite));
        let after: Vec<u32> = net.flat_params().iter().map(|v| v.to_bits()).collect();
        assert_eq!(before, after);
    }

    /// The blend `blend_second_moment` replaced, kept as its reference: the
    /// upper triangle of `xᵀx` blended and each value mirrored to `(j, i)`.
    fn blend_full_symmetric(factor: &mut Matrix, x: &Matrix, scale: f32, decay: Option<f32>) {
        let n = x.cols();
        let mut gram = Matrix::zeros(n, n);
        x.gram_upper_into(&mut gram);
        let (f, new) = (factor.as_mut_slice(), gram.as_slice());
        for i in 0..n {
            for j in i..n {
                let fresh = new[i * n + j] * scale;
                let v = match decay {
                    Some(d) => f[i * n + j] * d + (1.0 - d) * fresh,
                    None => fresh,
                };
                f[i * n + j] = v;
                f[j * n + i] = v;
            }
        }
    }

    /// Over 25 updates with decay, the upper triangle of the one-triangle
    /// blend — diagonal included — holds the full symmetric blend's bits,
    /// at a width off every tile boundary and at the paper's 256 and 257.
    #[test]
    fn upper_triangle_blend_matches_the_full_symmetric_blend() {
        use rand::Rng as _;
        let mut r = rng();
        let mut gram = Matrix::zeros(0, 0);
        for n in [17, 256, 257] {
            let (mut factor, mut reference) = (Matrix::identity(n), Matrix::identity(n));
            for update in 0..25 {
                let x = Matrix::from_fn(16, n, |_, _| r.gen_range(-2.0f32..2.0));
                let decay = (update > 0).then_some(0.95);
                blend_second_moment(&mut factor, &x, &mut gram, 1.0 / 16.0, decay);
                blend_full_symmetric(&mut reference, &x, 1.0 / 16.0, decay);
                for i in 0..n {
                    for j in i..n {
                        assert_eq!(
                            factor.get(i, j).to_bits(),
                            reference.get(i, j).to_bits(),
                            "n = {n}, update {update}, ({i}, {j})"
                        );
                    }
                }
            }
        }
    }

    /// On a pure linear least-squares problem, the Fisher equals the
    /// Gauss-Newton matrix, so preconditioning should accelerate
    /// convergence versus plain SGD at the same nominal step budget.
    #[test]
    fn kfac_beats_sgd_on_ill_conditioned_problem() {
        use crate::optim::tests::Sgd;
        use crate::optim::Optimizer;
        // Ill-conditioned inputs: one feature scaled 10x.
        let x = Matrix::from_rows(&[
            &[10.0, 0.1],
            &[-10.0, 0.2],
            &[10.0, -0.3],
            &[-10.0, -0.1],
        ]);
        let y = Matrix::from_rows(&[&[1.1], &[-0.8], &[0.7], &[-1.2]]);
        let train = |use_kfac: bool| -> f32 {
            let mut net = Mlp::new(&[2, 1], Activation::Identity, &mut rng());
            let mut kfac = Kfac::new(
                &net,
                KfacConfig {
                    lr: 0.5,
                    kl_clip: 0.01,
                    damping: 1e-3,
                    stat_decay: 0.9,
                    inverse_period: 5,
                    max_grad_norm: 1e9,
                },
            );
            let mut sgd = Sgd::new(0.004, 0.0); // near the stability limit
            let mut r = rng();
            // 300 steps: enough for K-FAC's trust-region-bounded updates to
            // cross from any Xavier init to the optimum, while SGD is still
            // stuck in the ill-conditioned direction (rate 1 − lr·λ_min).
            for _ in 0..300 {
                let cache = net.forward_cached(&x);
                let dout = cache.output.sub(&y).scaled(1.0 / x.rows() as f32);
                let grads = net.backward(&cache, &dout);
                if use_kfac {
                    use rand::Rng as _;
                    let fisher_out = Matrix::from_fn(x.rows(), 1, |_, _| {
                        let u1: f32 = r.gen_range(1e-6..1.0);
                        let u2: f32 = r.gen();
                        ((-2.0 * u1.ln()).sqrt()
                            * (2.0 * std::f32::consts::PI * u2).cos())
                            / x.rows() as f32
                    });
                    kfac.update_stats(&cache, &net.backward_preact(&cache, &fisher_out));
                    kfac.step(&mut net, &grads).unwrap();
                } else {
                    sgd.step(&mut net, &grads);
                }
            }
            let d = net.forward(&x).sub(&y);
            d.dot(&d) / (2.0 * x.rows() as f32)
        };
        let kfac_loss = train(true);
        let sgd_loss = train(false);
        assert!(
            kfac_loss < sgd_loss,
            "kfac {kfac_loss} should beat sgd {sgd_loss}"
        );
    }

    /// `steps.is_multiple_of(0)` holds only at step 0, so a zero period
    /// would silently freeze the first inverses.
    #[test]
    #[should_panic(expected = "KfacConfig::inverse_period must be at least 1")]
    fn rejects_zero_inverse_period() {
        let net = Mlp::new(&[2, 3], Activation::Identity, &mut rng());
        let _ = Kfac::new(
            &net,
            KfacConfig {
                inverse_period: 0,
                ..KfacConfig::default()
            },
        );
    }

    /// Only a refreshing step reads the factors, so blending a batch's
    /// statistics after any other step — as ACKTR does, behind the next
    /// rollout — moves no bit: 45 updates at the default period cross
    /// three refreshes, with every kept buffer reused throughout.
    #[test]
    fn statistics_blended_after_a_non_refreshing_step_move_no_bit() {
        use rand::Rng as _;
        let x = Matrix::from_fn(16, 5, |r, c| ((r * 7 + c * 3) % 11) as f32 / 5.0 - 1.0);
        let train = |after: bool| {
            let mut net = Mlp::new(&[5, 9, 3], Activation::Tanh, &mut rng());
            let mut kfac = Kfac::new(&net, KfacConfig::default());
            let mut r = rng();
            let mut refreshes = 0;
            for _ in 0..45 {
                let cache = net.forward_cached(&x);
                let grads = net.backward(&cache, &cache.output.scaled(1.0 / 16.0));
                let fisher_out = Matrix::from_fn(16, 3, |_, _| r.gen_range(-0.1f32..0.1));
                let fisher = net.backward_preact(&cache, &fisher_out);
                let blend_first = !after || kfac.step_refreshes();
                refreshes += usize::from(kfac.step_refreshes());
                if blend_first {
                    kfac.update_stats(&cache, &fisher);
                }
                kfac.step(&mut net, &grads).unwrap();
                if !blend_first {
                    kfac.update_stats(&cache, &fisher);
                }
            }
            assert_eq!(refreshes, 3);
            net.flat_params()
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<_>>()
        };
        assert_eq!(train(false), train(true));
    }

    #[test]
    fn factors_track_input_statistics() {
        let net = Mlp::new(&[2, 3], Activation::Identity, &mut rng());
        let mut kfac = Kfac::new(&net, KfacConfig::default());
        let x = Matrix::from_rows(&[&[2.0, 0.0], &[2.0, 0.0]]);
        let cache = net.forward_cached(&x);
        let fisher = Matrix::zeros(2, 3);
        kfac.update_stats(&cache, &[fisher]);
        // A = mean of [2,0,1]ᵀ[2,0,1] = [[4,0,2],[0,0,0],[2,0,1]].
        let a = &kfac.layers[0].a;
        assert_eq!(a.get(0, 0), 4.0);
        assert_eq!(a.get(0, 2), 2.0);
        assert_eq!(a.get(2, 2), 1.0);
        assert_eq!(a.get(1, 1), 0.0);
    }
}

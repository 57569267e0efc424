//! Multi-layer perceptrons with manual forward/backward passes.
//!
//! The paper's actor and critic are 2×256 tanh MLPs (Sec. V-A2). This
//! module provides exactly that family: dense layers, tanh hidden
//! activations, a linear output head, and explicit gradient structures that
//! optimizers and K-FAC consume.

use crate::matrix::Matrix;
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::cell::RefCell;

/// Hidden-layer activation functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Activation {
    /// Hyperbolic tangent (the paper's choice).
    Tanh,
    /// Rectified linear unit.
    Relu,
    /// No activation (linear network).
    Identity,
}

impl Activation {
    /// Applies the activation in place so the forward pass can reuse the
    /// pre-activation buffer instead of allocating.
    pub(crate) fn apply_in_place(self, z: &mut Matrix) {
        let _span = dosco_obs::span(dosco_obs::SpanKind::Activation);
        match self {
            Activation::Tanh => crate::tanh::tanh_in_place(z.as_mut_slice()),
            Activation::Relu => {
                for v in z.as_mut_slice() {
                    *v = v.max(0.0);
                }
            }
            Activation::Identity => {}
        }
    }

    /// Derivative expressed in terms of the *activation output* `a`
    /// (cheap for tanh: `1 − a²`).
    fn derivative_from_output(self, a: f32) -> f32 {
        match self {
            Activation::Tanh => 1.0 - a * a,
            Activation::Relu => {
                if a > 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
            Activation::Identity => 1.0,
        }
    }
}

/// One dense (fully connected) layer: `z = x·W + b` with `W: in × out`.
#[derive(Debug, PartialEq, Serialize, Deserialize)]
pub struct Dense {
    pub(crate) w: Matrix,
    pub(crate) b: Vec<f32>,
}

/// `clone_from` copies into the allocations it already has.
impl Clone for Dense {
    fn clone(&self) -> Self {
        Dense {
            w: self.w.clone(),
            b: self.b.clone(),
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.w.clone_from(&source.w);
        self.b.clone_from(&source.b);
    }
}

impl Dense {
    /// Xavier-initialized layer.
    pub fn new<R: Rng + ?Sized>(inputs: usize, outputs: usize, rng: &mut R) -> Self {
        Dense {
            w: Matrix::xavier_uniform(inputs, outputs, rng),
            b: vec![0.0; outputs],
        }
    }

    /// Input dimension.
    pub fn inputs(&self) -> usize {
        self.w.rows()
    }

    /// Output dimension.
    pub fn outputs(&self) -> usize {
        self.w.cols()
    }

    /// The weight matrix.
    pub fn weights(&self) -> &Matrix {
        &self.w
    }

    /// The bias vector.
    pub fn bias(&self) -> &[f32] {
        &self.b
    }

    /// `z = x·W + b` into a preallocated `z` (`x.rows() × outputs`).
    fn forward_into(&self, x: &Matrix, z: &mut Matrix) {
        x.matmul_into(&self.w, z);
        z.add_row_broadcast(&self.b);
    }
}

/// Gradients for one dense layer, plus the per-sample pre-activation
/// gradients K-FAC needs for its `G` factor.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct LayerGrads {
    /// `∂L/∂W` (same shape as the weights).
    pub dw: Matrix,
    /// `∂L/∂b`.
    pub db: Vec<f32>,
    /// Per-sample gradients w.r.t. the layer's pre-activations
    /// (`batch × out`), *before* batch reduction.
    pub preact_grads: Matrix,
}

/// Gradients for a whole [`Mlp`], one entry per layer (input-side first).
/// The default is empty; [`Mlp::backward_into`] shapes it.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Gradients {
    /// Per-layer gradients.
    pub layers: Vec<LayerGrads>,
}

impl Gradients {
    /// Global L2 norm over all weight and bias gradients.
    pub fn global_norm(&self) -> f32 {
        let mut sq = 0.0f32;
        for l in &self.layers {
            sq += l.dw.dot(&l.dw);
            sq += l.db.iter().map(|v| v * v).sum::<f32>();
        }
        sq.sqrt()
    }

    /// The factor [`Gradients::clip_global_norm`] would scale by, `None`
    /// when the global norm is already within `max_norm`.
    pub fn clip_factor(&self, max_norm: f32) -> Option<f32> {
        let norm = self.global_norm();
        (norm > max_norm && norm != 0.0).then(|| max_norm / norm)
    }

    /// Scales all gradients so the global norm is at most `max_norm`
    /// (gradient clipping; ACKTR uses 0.5). Returns the applied factor.
    pub fn clip_global_norm(&mut self, max_norm: f32) -> f32 {
        let Some(factor) = self.clip_factor(max_norm) else {
            return 1.0;
        };
        for l in &mut self.layers {
            l.dw.scale_in_place(factor);
            for b in &mut l.db {
                *b *= factor;
            }
        }
        factor
    }

    /// Element-wise sum with another gradient set (e.g. joint actor losses).
    ///
    /// # Panics
    ///
    /// Panics on layer-shape mismatch.
    pub fn add(&mut self, other: &Gradients) {
        assert_eq!(
            self.layers.len(),
            other.layers.len(),
            "layer count mismatch"
        );
        for (a, b) in self.layers.iter_mut().zip(&other.layers) {
            a.dw.add_scaled(&b.dw, 1.0);
            for (x, y) in a.db.iter_mut().zip(&b.db) {
                *x += y;
            }
        }
    }
}

/// Intermediate activations stored by [`Mlp::forward_cached`], needed for
/// backpropagation and the K-FAC `A` factors. The default is empty;
/// [`Mlp::forward_cached_into`] shapes it.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ForwardCache {
    /// `inputs[i]`: the input batch fed to layer `i` (the activation output
    /// of layer `i−1`, or the network input for `i = 0`).
    pub inputs: Vec<Matrix>,
    /// The final output (linear head).
    pub output: Matrix,
}

/// A multi-layer perceptron with a linear output head.
///
/// # Example
///
/// ```
/// use dosco_nn::mlp::{Activation, Mlp};
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// // The paper's actor shape: obs 16 -> 256 -> 256 -> 4 actions.
/// let net = Mlp::new(&[16, 256, 256, 4], Activation::Tanh, &mut rng);
/// let obs = dosco_nn::matrix::Matrix::zeros(1, 16);
/// let logits = net.forward(&obs);
/// assert_eq!((logits.rows(), logits.cols()), (1, 4));
/// ```
#[derive(Debug, PartialEq, Serialize, Deserialize)]
pub struct Mlp {
    layers: Vec<Dense>,
    activation: Activation,
}

/// `clone_from` copies every layer into the allocations it already has —
/// how the runtime writes a network into a snapshot it reuses.
impl Clone for Mlp {
    fn clone(&self) -> Self {
        Mlp {
            layers: self.layers.clone(),
            activation: self.activation,
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.layers.clone_from(&source.layers);
        self.activation = source.activation;
    }
}

thread_local! {
    /// [`Mlp::forward_row`]'s input, output and hidden buffers, kept per
    /// thread: a decision would otherwise allocate all three.
    static ROW_FORWARD: RefCell<[Matrix; 3]> = RefCell::new(Default::default());
}

impl Mlp {
    /// Builds an MLP with the given layer sizes (`sizes[0]` inputs,
    /// `sizes.last()` outputs) and hidden activation.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two sizes are given or any size is zero.
    pub fn new<R: Rng + ?Sized>(sizes: &[usize], activation: Activation, rng: &mut R) -> Self {
        assert!(
            sizes.len() >= 2,
            "an MLP needs at least input and output sizes"
        );
        assert!(sizes.iter().all(|&s| s > 0), "layer sizes must be positive");
        let layers = sizes
            .windows(2)
            .map(|w| Dense::new(w[0], w[1], rng))
            .collect();
        Mlp { layers, activation }
    }

    /// The paper's 2×256 tanh architecture for `inputs` observations and
    /// `outputs` heads (Sec. V-A2).
    pub fn paper_arch<R: Rng + ?Sized>(inputs: usize, outputs: usize, rng: &mut R) -> Self {
        Mlp::new(&[inputs, 256, 256, outputs], Activation::Tanh, rng)
    }

    /// Input dimension.
    pub fn inputs(&self) -> usize {
        self.layers[0].inputs()
    }

    /// Output dimension.
    ///
    /// # Panics
    ///
    /// Panics if the network has no layers, which [`Mlp::new`] never
    /// builds.
    #[allow(
        clippy::expect_used,
        reason = "the documented # Panics contract of outputs"
    )]
    pub fn outputs(&self) -> usize {
        self.layers.last().expect("at least one layer").outputs()
    }

    /// The layers (input-side first).
    pub fn layers(&self) -> &[Dense] {
        &self.layers
    }

    /// The hidden activation.
    pub fn activation(&self) -> Activation {
        self.activation
    }

    /// Total number of scalar parameters.
    pub fn num_params(&self) -> usize {
        self.layers
            .iter()
            .map(|l| l.w.rows() * l.w.cols() + l.b.len())
            .sum()
    }

    /// Forward pass for a batch (`batch × inputs` → `batch × outputs`).
    ///
    /// # Panics
    ///
    /// Panics if `x.cols()` does not match the input dimension.
    pub fn forward(&self, x: &Matrix) -> Matrix {
        let mut out = Matrix::default();
        self.forward_into(x, &mut out, &mut Matrix::default());
        out
    }

    /// [`Mlp::forward`] into `out`, with `scratch` holding the hidden
    /// activations between layers. Both are reshaped as the pass needs and
    /// keep their allocations, so a caller that keeps them from one
    /// forward to the next allocates nothing once they are shaped.
    ///
    /// # Panics
    ///
    /// Panics if `x.cols()` does not match the input dimension.
    pub fn forward_into(&self, x: &Matrix, out: &mut Matrix, scratch: &mut Matrix) {
        let last = self.layers.len() - 1;
        for (i, layer) in self.layers.iter().enumerate() {
            // The layers alternate between the two buffers so that the
            // last one writes `out`; the first reads `x`.
            let (z, h) = if (last - i).is_multiple_of(2) {
                (&mut *out, &*scratch)
            } else {
                (&mut *scratch, &*out)
            };
            let input = if i == 0 { x } else { h };
            z.reshape(input.rows(), layer.outputs());
            layer.forward_into(input, z);
            if i != last {
                self.activation.apply_in_place(z);
            }
        }
    }

    /// The forward pass of one observation, its output row handed to `f`:
    /// a decision's forward. It runs through buffers this thread keeps
    /// from one call to the next, so once they are shaped it allocates
    /// nothing. The output row holds the bits of row 0 of
    /// [`Mlp::forward`] on [`Matrix::row_vector`]`(obs)`.
    ///
    /// # Panics
    ///
    /// Panics if `obs.len()` does not match the input dimension, or if
    /// `f` itself calls `forward_row` (the thread's buffers are in use).
    pub fn forward_row<T>(&self, obs: &[f32], f: impl FnOnce(&[f32]) -> T) -> T {
        ROW_FORWARD.with(|cell| {
            let [x, out, scratch] = &mut *cell.borrow_mut();
            x.reshape(1, obs.len());
            x.as_mut_slice().copy_from_slice(obs);
            self.forward_into(x, out, scratch);
            f(out.row(0))
        })
    }

    /// Forward pass that records the per-layer inputs for backpropagation.
    pub fn forward_cached(&self, x: &Matrix) -> ForwardCache {
        let mut cache = ForwardCache::default();
        self.forward_cached_into(x, &mut cache);
        cache
    }

    /// [`Mlp::forward_cached`] into `cache`, reusing its buffers: a cache
    /// kept from one update to the next allocates nothing once shaped.
    pub fn forward_cached_into(&self, x: &Matrix, cache: &mut ForwardCache) {
        let n = self.layers.len();
        cache.inputs.resize_with(n, Matrix::default);
        cache.inputs[0].clone_from(x);
        for (i, layer) in self.layers.iter().enumerate() {
            // Layer `i` reads input `i` and writes input `i + 1`, or the
            // output after the last layer.
            let (done, next) = cache.inputs.split_at_mut(i + 1);
            let z = next.first_mut().unwrap_or(&mut cache.output);
            z.reshape(done[i].rows(), layer.outputs());
            layer.forward_into(&done[i], z);
            if i + 1 != n {
                self.activation.apply_in_place(z);
            }
        }
    }

    /// Backpropagates `dout = ∂L/∂output` (`batch × outputs`, already
    /// including any `1/batch` normalization) through the cached forward
    /// pass. Returns per-layer gradients.
    ///
    /// # Panics
    ///
    /// Panics if `dout`'s shape does not match the cached output.
    pub fn backward(&self, cache: &ForwardCache, dout: &Matrix) -> Gradients {
        let mut grads = Gradients::default();
        self.backward_into(cache, dout, &mut grads);
        grads
    }

    /// [`Mlp::backward`] into `grads`, reusing its buffers: at the paper's
    /// width each hidden layer's `dW` is 256 KiB, which gradients kept
    /// from one update to the next allocate once.
    ///
    /// # Panics
    ///
    /// Panics if `dout`'s shape does not match the cached output.
    pub fn backward_into(&self, cache: &ForwardCache, dout: &Matrix, grads: &mut Gradients) {
        grads
            .layers
            .resize_with(self.layers.len(), LayerGrads::default);
        self.preact_deltas_into(cache, dout, &mut grads.layers, |l| &mut l.preact_grads);
        for (l, input) in grads.layers.iter_mut().zip(&cache.inputs) {
            l.dw.reshape(input.cols(), l.preact_grads.cols());
            input.transpose_matmul_into(&l.preact_grads, &mut l.dw);
            l.preact_grads.column_sums_into(&mut l.db);
        }
    }

    /// Like [`Mlp::backward`], additionally returning `∂L/∂input`
    /// (`batch × inputs`) — needed e.g. to chain a critic's action gradient
    /// into an actor (DDPG).
    ///
    /// # Panics
    ///
    /// Panics if `dout`'s shape does not match the cached output.
    pub fn backward_with_input_grad(
        &self,
        cache: &ForwardCache,
        dout: &Matrix,
    ) -> (Gradients, Matrix) {
        let grads = self.backward(cache, dout);
        // `δ_0 · W_0ᵀ`: one more step of the recursion.
        let dinput = grads.layers[0]
            .preact_grads
            .matmul_transpose(&self.layers[0].w);
        (grads, dinput)
    }

    /// The per-sample pre-activation gradients of every layer (input-side
    /// first, each `batch × out`) for `dout = ∂L/∂output`: the part of
    /// [`Mlp::backward`] that K-FAC's Fisher statistics read, without the
    /// weight and bias gradients they never look at.
    ///
    /// # Panics
    ///
    /// Panics if `dout`'s shape does not match the cached output.
    pub fn backward_preact(&self, cache: &ForwardCache, dout: &Matrix) -> Vec<Matrix> {
        let mut deltas = Vec::new();
        self.backward_preact_into(cache, dout, &mut deltas);
        deltas
    }

    /// [`Mlp::backward_preact`] into `deltas`, reusing its buffers.
    ///
    /// # Panics
    ///
    /// Panics if `dout`'s shape does not match the cached output.
    pub fn backward_preact_into(
        &self,
        cache: &ForwardCache,
        dout: &Matrix,
        deltas: &mut Vec<Matrix>,
    ) {
        deltas.resize_with(self.layers.len(), Matrix::default);
        self.preact_deltas_into(cache, dout, deltas, |d| d);
    }

    /// The backward recursion itself, `δ_last = dout`, `δ_{i−1} = (δ_i ·
    /// W_iᵀ) ⊙ act′`, into the matrix `delta` picks out of each of `out`'s
    /// per-layer entries.
    fn preact_deltas_into<T>(
        &self,
        cache: &ForwardCache,
        dout: &Matrix,
        out: &mut [T],
        delta: fn(&mut T) -> &mut Matrix,
    ) {
        assert_eq!(
            (dout.rows(), dout.cols()),
            (cache.output.rows(), cache.output.cols()),
            "dout shape mismatch"
        );
        let last = self.layers.len() - 1;
        delta(&mut out[last]).clone_from(dout);
        for i in (1..self.layers.len()).rev() {
            let (below, from) = out.split_at_mut(i);
            let (from, to) = (delta(&mut from[0]), delta(&mut below[i - 1]));
            to.reshape(from.rows(), self.layers[i].inputs());
            from.matmul_transpose_into(&self.layers[i].w, to);
            // cache.inputs[i] is the activation output of layer i-1:
            // chain through the activation derivative, in place on the
            // input gradient (no intermediate derivative matrix).
            let act = self.activation;
            for (d, &a) in to.as_mut_slice().iter_mut().zip(cache.inputs[i].as_slice()) {
                *d *= act.derivative_from_output(a);
            }
        }
    }

    /// Polyak averaging toward `source`: `θ ← τ·θ_source + (1−τ)·θ`.
    /// Used for DDPG target networks.
    ///
    /// # Panics
    ///
    /// Panics if the architectures differ.
    pub fn soft_update_from(&mut self, source: &Mlp, tau: f32) {
        assert_eq!(
            self.layers.len(),
            source.layers.len(),
            "soft update requires identical architectures"
        );
        for (dst, src) in self.layers.iter_mut().zip(&source.layers) {
            assert_eq!(
                (dst.w.rows(), dst.w.cols()),
                (src.w.rows(), src.w.cols()),
                "soft update requires identical architectures"
            );
            dst.w.scale_in_place(1.0 - tau);
            dst.w.add_scaled(&src.w, tau);
            for (b, &s) in dst.b.iter_mut().zip(&src.b) {
                *b = (1.0 - tau) * *b + tau * s;
            }
        }
    }

    /// Serializes every parameter into one flat vector, layer by layer
    /// (input-side first), weights row-major then bias: what the weight
    /// fingerprints hash and FedAvg tests compare.
    pub fn flat_params(&self) -> Vec<f32> {
        let mut out = Vec::with_capacity(self.num_params());
        for layer in &self.layers {
            out.extend_from_slice(layer.w.as_slice());
            out.extend_from_slice(&layer.b);
        }
        out
    }

    /// `[W; b] ← [W; b] + scale · update` for layer `i`, with `update` in
    /// K-FAC's homogeneous `(in + 1) × out` layout (bias as the last row).
    /// Element for element the arithmetic of [`Mlp::apply_update`].
    pub(crate) fn apply_homogeneous_update(&mut self, i: usize, update: &Matrix, scale: f32) {
        let layer = &mut self.layers[i];
        assert_eq!(
            (update.rows(), update.cols()),
            (layer.inputs() + 1, layer.outputs()),
            "homogeneous update shape mismatch"
        );
        let (dw, db) = update.as_slice().split_at(layer.w.as_slice().len());
        for (w, &d) in layer.w.as_mut_slice().iter_mut().zip(dw) {
            *w += scale * d;
        }
        for (b, &d) in layer.b.iter_mut().zip(db) {
            *b += scale * d;
        }
    }

    /// Applies an additive update: `W ← W + scale · dW`, `b ← b + scale ·
    /// db` for every layer (pass `scale = -lr` for plain gradient descent).
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn apply_update(&mut self, grads: &Gradients, scale: f32) {
        assert_eq!(
            grads.layers.len(),
            self.layers.len(),
            "layer count mismatch"
        );
        for (layer, g) in self.layers.iter_mut().zip(&grads.layers) {
            layer.w.add_scaled(&g.dw, scale);
            for (b, &d) in layer.b.iter_mut().zip(&g.db) {
                *b += scale * d;
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
        StdRng::seed_from_u64(7)
    }

    #[test]
    fn forward_shapes() {
        let net = Mlp::paper_arch(16, 4, &mut rng());
        assert_eq!(net.inputs(), 16);
        assert_eq!(net.outputs(), 4);
        assert_eq!(net.layers().len(), 3);
        let out = net.forward(&Matrix::zeros(5, 16));
        assert_eq!((out.rows(), out.cols()), (5, 4));
        assert_eq!(
            net.num_params(),
            16 * 256 + 256 + 256 * 256 + 256 + 256 * 4 + 4
        );
    }

    #[test]
    fn forward_cached_matches_forward() {
        let net = Mlp::new(&[3, 8, 2], Activation::Tanh, &mut rng());
        let x = Matrix::from_rows(&[&[0.1, -0.4, 0.7], &[1.0, 0.0, -1.0]]);
        let cache = net.forward_cached(&x);
        assert_eq!(cache.output, net.forward(&x));
        assert_eq!(cache.inputs.len(), 2);
        assert_eq!(cache.inputs[0], x);
    }

    /// Central-difference gradient check on a scalar loss L = sum(output²)/2.
    #[test]
    fn backward_matches_finite_differences() {
        let mut net = Mlp::new(&[4, 6, 3], Activation::Tanh, &mut rng());
        let x = Matrix::from_rows(&[&[0.3, -0.2, 0.9, 0.1], &[-0.5, 0.8, 0.0, 0.4]]);
        let cache = net.forward_cached(&x);
        // dL/dout = out for L = 0.5 Σ out².
        let grads = net.backward(&cache, &cache.output);

        let loss = |net: &Mlp| -> f64 {
            let out = net.forward(&x);
            0.5 * out
                .as_slice()
                .iter()
                .map(|&v| f64::from(v) * f64::from(v))
                .sum::<f64>()
        };
        let eps = 1e-3f32;
        // Check a sample of weight coordinates in every layer.
        for li in 0..2 {
            for &(r, c) in &[(0usize, 0usize), (1, 2), (3, 1)] {
                if r >= net.layers[li].w.rows() || c >= net.layers[li].w.cols() {
                    continue;
                }
                let orig = net.layers[li].w.get(r, c);
                net.layers[li].w.set(r, c, orig + eps);
                let up = loss(&net);
                net.layers[li].w.set(r, c, orig - eps);
                let down = loss(&net);
                net.layers[li].w.set(r, c, orig);
                let numeric = ((up - down) / (2.0 * f64::from(eps))) as f32;
                let analytic = grads.layers[li].dw.get(r, c);
                assert!(
                    (numeric - analytic).abs() < 2e-2_f32.max(0.05 * analytic.abs()),
                    "layer {li} w[{r},{c}]: numeric {numeric} vs analytic {analytic}"
                );
            }
            // And a bias coordinate.
            let orig = net.layers[li].b[0];
            net.layers[li].b[0] = orig + eps;
            let up = loss(&net);
            net.layers[li].b[0] = orig - eps;
            let down = loss(&net);
            net.layers[li].b[0] = orig;
            let numeric = ((up - down) / (2.0 * f64::from(eps))) as f32;
            let analytic = grads.layers[li].db[0];
            assert!(
                (numeric - analytic).abs() < 2e-2,
                "layer {li} b[0]: numeric {numeric} vs analytic {analytic}"
            );
        }
    }

    /// The `_into` forms return the allocating forms' bits into buffers
    /// kept across calls — of another batch size in between — and a
    /// same-shaped call writes into the allocations the last one left.
    #[test]
    fn into_forms_match_and_reuse_their_buffers() {
        let net = Mlp::new(&[3, 16, 16, 2], Activation::Tanh, &mut rng());
        let batch =
            |rows: usize| Matrix::from_fn(rows, 3, |r, c| ((r * 5 + c) % 7) as f32 / 3.0 - 1.0);
        let (mut cache, mut grads, mut deltas) = Default::default();
        let mut starts = Vec::new();
        for rows in [8, 3, 8, 8] {
            let x = batch(rows);
            net.forward_cached_into(&x, &mut cache);
            assert_eq!(cache, net.forward_cached(&x));
            let dout = cache.output.scaled(0.5);
            net.backward_into(&cache, &dout, &mut grads);
            assert_eq!(grads, net.backward(&cache, &dout));
            net.backward_preact_into(&cache, &dout, &mut deltas);
            assert_eq!(deltas, net.backward_preact(&cache, &dout));
            starts.push([
                cache.inputs[1].as_slice().as_ptr(),
                grads.layers[1].dw.as_slice().as_ptr(),
                deltas[1].as_slice().as_ptr(),
            ]);
        }
        assert_eq!(starts[2], starts[3]);
    }

    #[test]
    fn gradient_descent_reduces_loss() {
        // Fit y = [x0 + x1, x0 - x1] with a small tanh net.
        let mut net = Mlp::new(&[2, 16, 2], Activation::Tanh, &mut rng());
        let x = Matrix::from_rows(&[&[0.1, 0.2], &[-0.3, 0.5], &[0.7, -0.1], &[0.0, 0.4]]);
        let y = Matrix::from_rows(&[&[0.3, -0.1], &[0.2, -0.8], &[0.6, 0.8], &[0.4, -0.4]]);
        let loss = |net: &Mlp| {
            let d = net.forward(&x).sub(&y);
            d.dot(&d) / (2.0 * x.rows() as f32)
        };
        let initial = loss(&net);
        for _ in 0..300 {
            let cache = net.forward_cached(&x);
            let dout = cache.output.sub(&y).scaled(1.0 / x.rows() as f32);
            let grads = net.backward(&cache, &dout);
            net.apply_update(&grads, -0.1);
        }
        let finl = loss(&net);
        assert!(finl < initial * 0.05, "loss {initial} -> {finl}");
    }

    #[test]
    fn clip_global_norm() {
        let net = Mlp::new(&[2, 3, 1], Activation::Tanh, &mut rng());
        let x = Matrix::from_rows(&[&[10.0, -10.0]]);
        let cache = net.forward_cached(&x);
        let mut grads = net.backward(&cache, &cache.output.scaled(100.0));
        let before = grads.global_norm();
        assert!(before > 0.5);
        let factor = grads.clip_global_norm(0.5);
        assert!(factor < 1.0);
        assert!((grads.global_norm() - 0.5).abs() < 1e-3);
        // Clipping below the norm is a no-op.
        assert_eq!(grads.clip_global_norm(10.0), 1.0);
    }

    #[test]
    fn relu_and_identity_activations() {
        let mut m = Matrix::from_rows(&[&[-1.0, 2.0]]);
        Activation::Relu.apply_in_place(&mut m);
        assert_eq!(m, Matrix::from_rows(&[&[0.0, 2.0]]));
        assert_eq!(Activation::Identity.derivative_from_output(5.0), 1.0);
        assert_eq!(Activation::Relu.derivative_from_output(0.0), 0.0);
        assert_eq!(Activation::Relu.derivative_from_output(3.0), 1.0);
    }

    #[test]
    fn serde_round_trip_preserves_outputs() {
        let net = Mlp::paper_arch(8, 3, &mut rng());
        let json = serde_json::to_string(&net).unwrap();
        let back: Mlp = serde_json::from_str(&json).unwrap();
        let x = Matrix::from_rows(&[&[0.1; 8]]);
        // f32 values survive JSON round-trips closely enough for identical
        // argmax decisions; check elementwise closeness.
        let (a, b) = (net.forward(&x), back.forward(&x));
        for (u, v) in a.as_slice().iter().zip(b.as_slice()) {
            assert!((u - v).abs() < 1e-6);
        }
    }

    #[test]
    #[should_panic(expected = "at least input and output")]
    fn rejects_single_size() {
        Mlp::new(&[4], Activation::Tanh, &mut rng());
    }

    /// The input gradient must match finite differences of L = 0.5 Σ out².
    #[test]
    fn input_gradient_matches_finite_differences() {
        let net = Mlp::new(&[3, 5, 2], Activation::Tanh, &mut rng());
        let x = vec![0.2f32, -0.6, 0.4];
        let loss = |x: &[f32]| -> f32 {
            let out = net.forward(&Matrix::row_vector(x));
            0.5 * out.as_slice().iter().map(|&v| v * v).sum::<f32>()
        };
        let cache = net.forward_cached(&Matrix::row_vector(&x));
        let (_, dinput) = net.backward_with_input_grad(&cache, &cache.output);
        let eps = 1e-3;
        for j in 0..3 {
            let mut up = x.clone();
            up[j] += eps;
            let mut down = x.clone();
            down[j] -= eps;
            let numeric = (loss(&up) - loss(&down)) / (2.0 * eps);
            let analytic = dinput.get(0, j);
            assert!(
                (numeric - analytic).abs() < 1e-2,
                "input {j}: numeric {numeric} vs analytic {analytic}"
            );
        }
    }
}

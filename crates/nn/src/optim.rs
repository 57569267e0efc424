//! First-order optimizers: RMSprop and Adam (plain SGD with momentum lives
//! in this module's tests, as the baseline a K-FAC test beats).
//!
//! RMSprop is the base optimizer named in the paper's hyperparameters
//! (Sec. V-A2); Adam supports the ablations. All optimizers are
//! stateful per-network and apply updates through [`Mlp::apply_update`]'s
//! additive interface — they construct a preconditioned gradient and step
//! `θ ← θ − lr · precond(g)`.

use crate::matrix::Matrix;
use crate::mlp::{Gradients, LayerGrads, Mlp};
use serde::{Deserialize, Serialize};

/// A first-order optimizer over an [`Mlp`]'s parameters.
///
/// State is lazily shaped on the first [`Optimizer::step`]; using one
/// optimizer instance across differently shaped networks is a logic error
/// and panics.
pub trait Optimizer {
    /// Applies one update step for `grads` to `net`.
    ///
    /// # Panics
    ///
    /// Panics if `grads` does not match `net`'s layer shapes.
    fn step(&mut self, net: &mut Mlp, grads: &Gradients);

    /// The current learning rate.
    fn learning_rate(&self) -> f32;

    /// Overwrites the learning rate (e.g. for linear decay schedules).
    fn set_learning_rate(&mut self, lr: f32);
}

/// Per-layer auxiliary buffers shaped like the gradients.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Slot {
    w: Matrix,
    b: Vec<f32>,
}

fn zero_slots_like(grads: &Gradients) -> Vec<Slot> {
    grads
        .layers
        .iter()
        .map(|g| Slot {
            w: Matrix::zeros(g.dw.rows(), g.dw.cols()),
            b: vec![0.0; g.db.len()],
        })
        .collect()
}

fn check_shapes(slots: &[Slot], grads: &Gradients) {
    assert_eq!(
        slots.len(),
        grads.layers.len(),
        "optimizer/layer count mismatch"
    );
    for (s, g) in slots.iter().zip(&grads.layers) {
        assert_eq!(
            (s.w.rows(), s.w.cols(), s.b.len()),
            (g.dw.rows(), g.dw.cols(), g.db.len()),
            "optimizer state shape mismatch"
        );
    }
}

/// RMSprop (Tieleman & Hinton): divides gradients by a running RMS of
/// their magnitude. The paper's base optimizer (Sec. V-A2).
#[derive(Debug, Clone)]
pub struct RmsProp {
    lr: f32,
    decay: f32,
    eps: f32,
    mean_square: Option<Vec<Slot>>,
}

impl RmsProp {
    /// Creates RMSprop with learning rate `lr`, squared-gradient decay
    /// `decay` (typical 0.99), and stabilizer `eps`.
    ///
    /// # Panics
    ///
    /// Panics for invalid parameters.
    pub fn new(lr: f32, decay: f32, eps: f32) -> Self {
        assert!(lr.is_finite() && lr > 0.0, "learning rate must be positive");
        assert!((0.0..1.0).contains(&decay), "decay must be in [0, 1)");
        assert!(eps > 0.0, "eps must be positive");
        RmsProp {
            lr,
            decay,
            eps,
            mean_square: None,
        }
    }

    /// RMSprop with common defaults (decay 0.99, eps 1e-5).
    pub fn with_lr(lr: f32) -> Self {
        RmsProp::new(lr, 0.99, 1e-5)
    }
}

impl Optimizer for RmsProp {
    fn step(&mut self, net: &mut Mlp, grads: &Gradients) {
        let ms = self
            .mean_square
            .get_or_insert_with(|| zero_slots_like(grads));
        check_shapes(ms, grads);
        let mut update_layers = Vec::with_capacity(grads.layers.len());
        for (m, g) in ms.iter_mut().zip(&grads.layers) {
            let mut dw = Matrix::zeros(g.dw.rows(), g.dw.cols());
            for ((mv, &gv), out) in
                m.w.as_mut_slice()
                    .iter_mut()
                    .zip(g.dw.as_slice())
                    .zip(dw.as_mut_slice())
            {
                *mv = self.decay * *mv + (1.0 - self.decay) * gv * gv;
                *out = gv / (mv.sqrt() + self.eps);
            }
            let mut db = vec![0.0; g.db.len()];
            for ((mv, &gv), out) in m.b.iter_mut().zip(&g.db).zip(db.iter_mut()) {
                *mv = self.decay * *mv + (1.0 - self.decay) * gv * gv;
                *out = gv / (mv.sqrt() + self.eps);
            }
            update_layers.push(LayerGrads {
                dw,
                db,
                preact_grads: Matrix::zeros(0, 0),
            });
        }
        net.apply_update(
            &Gradients {
                layers: update_layers,
            },
            -self.lr,
        );
    }

    fn learning_rate(&self) -> f32 {
        self.lr
    }

    fn set_learning_rate(&mut self, lr: f32) {
        self.lr = lr;
    }
}

/// Adam (Kingma & Ba) with bias correction.
#[derive(Debug, Clone)]
pub struct Adam {
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    t: u64,
    m: Option<Vec<Slot>>,
    v: Option<Vec<Slot>>,
}

impl Adam {
    /// Creates Adam with the given hyperparameters.
    ///
    /// # Panics
    ///
    /// Panics for invalid parameters.
    pub fn new(lr: f32, beta1: f32, beta2: f32, eps: f32) -> Self {
        assert!(lr.is_finite() && lr > 0.0, "learning rate must be positive");
        assert!((0.0..1.0).contains(&beta1), "beta1 must be in [0, 1)");
        assert!((0.0..1.0).contains(&beta2), "beta2 must be in [0, 1)");
        assert!(eps > 0.0, "eps must be positive");
        Adam {
            lr,
            beta1,
            beta2,
            eps,
            t: 0,
            m: None,
            v: None,
        }
    }

    /// Adam with the canonical defaults (β1 0.9, β2 0.999, eps 1e-8).
    pub fn with_lr(lr: f32) -> Self {
        Adam::new(lr, 0.9, 0.999, 1e-8)
    }
}

impl Optimizer for Adam {
    fn step(&mut self, net: &mut Mlp, grads: &Gradients) {
        self.t += 1;
        let m = self.m.get_or_insert_with(|| zero_slots_like(grads));
        let v = self.v.get_or_insert_with(|| zero_slots_like(grads));
        check_shapes(m, grads);
        let bc1 = 1.0 - self.beta1.powi(self.t as i32);
        let bc2 = 1.0 - self.beta2.powi(self.t as i32);
        let mut update_layers = Vec::with_capacity(grads.layers.len());
        for ((ms, vs), g) in m.iter_mut().zip(v.iter_mut()).zip(&grads.layers) {
            let mut dw = Matrix::zeros(g.dw.rows(), g.dw.cols());
            for (((mv, vv), &gv), out) in
                ms.w.as_mut_slice()
                    .iter_mut()
                    .zip(vs.w.as_mut_slice())
                    .zip(g.dw.as_slice())
                    .zip(dw.as_mut_slice())
            {
                *mv = self.beta1 * *mv + (1.0 - self.beta1) * gv;
                *vv = self.beta2 * *vv + (1.0 - self.beta2) * gv * gv;
                *out = (*mv / bc1) / ((*vv / bc2).sqrt() + self.eps);
            }
            let mut db = vec![0.0; g.db.len()];
            for (((mv, vv), &gv), out) in
                ms.b.iter_mut()
                    .zip(vs.b.iter_mut())
                    .zip(&g.db)
                    .zip(db.iter_mut())
            {
                *mv = self.beta1 * *mv + (1.0 - self.beta1) * gv;
                *vv = self.beta2 * *vv + (1.0 - self.beta2) * gv * gv;
                *out = (*mv / bc1) / ((*vv / bc2).sqrt() + self.eps);
            }
            update_layers.push(LayerGrads {
                dw,
                db,
                preact_grads: Matrix::zeros(0, 0),
            });
        }
        net.apply_update(
            &Gradients {
                layers: update_layers,
            },
            -self.lr,
        );
    }

    fn learning_rate(&self) -> f32 {
        self.lr
    }

    fn set_learning_rate(&mut self, lr: f32) {
        self.lr = lr;
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::mlp::Activation;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Stochastic gradient descent with optional momentum: the baseline
    /// K-FAC's ill-conditioning test beats, and nothing else.
    #[derive(Debug, Clone)]
    pub(crate) struct Sgd {
        lr: f32,
        momentum: f32,
        velocity: Option<Vec<Slot>>,
    }

    impl Sgd {
        /// SGD with the given learning rate and momentum (0 disables).
        pub(crate) fn new(lr: f32, momentum: f32) -> Self {
            assert!(lr.is_finite() && lr > 0.0, "learning rate must be positive");
            assert!(
                (0.0..1.0).contains(&momentum),
                "momentum must be in [0, 1), got {momentum}"
            );
            Sgd {
                lr,
                momentum,
                velocity: None,
            }
        }
    }

    impl Optimizer for Sgd {
        fn step(&mut self, net: &mut Mlp, grads: &Gradients) {
            if self.momentum == 0.0 {
                net.apply_update(grads, -self.lr);
                return;
            }
            let velocity = self.velocity.get_or_insert_with(|| zero_slots_like(grads));
            check_shapes(velocity, grads);
            let mut update_layers = Vec::with_capacity(grads.layers.len());
            for (v, g) in velocity.iter_mut().zip(&grads.layers) {
                v.w.scale_in_place(self.momentum);
                v.w.add_scaled(&g.dw, 1.0);
                for (vb, &gb) in v.b.iter_mut().zip(&g.db) {
                    *vb = self.momentum * *vb + gb;
                }
                update_layers.push(LayerGrads {
                    dw: v.w.clone(),
                    db: v.b.clone(),
                    preact_grads: Matrix::zeros(0, 0),
                });
            }
            net.apply_update(
                &Gradients {
                    layers: update_layers,
                },
                -self.lr,
            );
        }

        fn learning_rate(&self) -> f32 {
            self.lr
        }

        fn set_learning_rate(&mut self, lr: f32) {
            self.lr = lr;
        }
    }

    fn rng() -> StdRng {
        StdRng::seed_from_u64(11)
    }

    /// Regression task: y = sin-ish mapping; all optimizers must reduce the
    /// loss substantially.
    fn train_with(optimizer: &mut dyn Optimizer, steps: usize) -> (f32, f32) {
        let mut net = Mlp::new(&[2, 24, 1], Activation::Tanh, &mut rng());
        let x = Matrix::from_rows(&[
            &[0.0, 0.1],
            &[0.5, -0.5],
            &[-0.8, 0.3],
            &[0.9, 0.9],
            &[-0.2, -0.9],
            &[0.4, 0.7],
        ]);
        let y = Matrix::from_rows(&[&[0.1], &[0.0], &[-0.5], &[0.9], &[-0.6], &[0.55]]);
        let loss = |net: &Mlp| {
            let d = net.forward(&x).sub(&y);
            d.dot(&d) / (2.0 * x.rows() as f32)
        };
        let initial = loss(&net);
        for _ in 0..steps {
            let cache = net.forward_cached(&x);
            let dout = cache.output.sub(&y).scaled(1.0 / x.rows() as f32);
            let grads = net.backward(&cache, &dout);
            optimizer.step(&mut net, &grads);
        }
        (initial, loss(&net))
    }

    #[test]
    fn sgd_converges() {
        let (i, f) = train_with(&mut Sgd::new(0.3, 0.0), 400);
        assert!(f < 0.1 * i, "{i} -> {f}");
    }

    #[test]
    fn sgd_momentum_converges() {
        let (i, f) = train_with(&mut Sgd::new(0.1, 0.9), 400);
        assert!(f < 0.1 * i, "{i} -> {f}");
    }

    #[test]
    fn rmsprop_converges() {
        let (i, f) = train_with(&mut RmsProp::with_lr(0.01), 400);
        assert!(f < 0.1 * i, "{i} -> {f}");
    }

    #[test]
    fn adam_converges() {
        let (i, f) = train_with(&mut Adam::with_lr(0.02), 400);
        assert!(f < 0.1 * i, "{i} -> {f}");
    }

    #[test]
    fn learning_rate_accessors() {
        let mut o = RmsProp::with_lr(0.25);
        assert_eq!(o.learning_rate(), 0.25);
        o.set_learning_rate(0.1);
        assert_eq!(o.learning_rate(), 0.1);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn rejects_zero_lr() {
        Sgd::new(0.0, 0.0);
    }

    #[test]
    fn rmsprop_normalizes_gradient_scale() {
        // With RMSprop, huge and tiny gradients produce comparably sized
        // steps (approximately lr-sized) after warmup.
        let mut net = Mlp::new(&[1, 1], Activation::Identity, &mut rng());
        let w0 = net.layers()[0].weights().get(0, 0);
        let mut opt = RmsProp::new(0.01, 0.0, 1e-8); // decay 0 -> pure sign
        let g = Gradients {
            layers: vec![LayerGrads {
                dw: Matrix::from_rows(&[&[1e6]]),
                db: vec![0.0],
                preact_grads: Matrix::zeros(0, 0),
            }],
        };
        opt.step(&mut net, &g);
        let step1 = (net.layers()[0].weights().get(0, 0) - w0).abs();
        assert!((step1 - 0.01).abs() < 1e-4, "step {step1}");
    }
}

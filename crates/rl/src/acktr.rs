//! ACKTR: actor-critic using Kronecker-factored trust regions
//! (Wu et al., NeurIPS 2017 \[38\]) — the paper's training algorithm
//! (Sec. IV-C2).
//!
//! The update is the A2C gradient preconditioned per layer by K-FAC
//! natural-gradient factors, with the step size rescaled to respect a KL
//! trust region. The Fisher factors are estimated from gradients sampled
//! from the model's own predictive distribution: categorical sampling for
//! the actor, unit-Gaussian sampling for the critic's value head.

use crate::a2c::{policy_gradients, value_gradients, Buffers, ValueBatch};
use crate::learner::{ActorCritic, CollectParams, UpdateRule};
use crate::rollout::Rollout;
use crate::trainer::Helper;
use dosco_nn::kfac::{Kfac, KfacConfig};
use dosco_nn::matrix::Matrix;
use dosco_nn::mlp::Mlp;
use rand::rngs::StdRng;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// ACKTR hyperparameters (paper values in Sec. V-A2 as defaults).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AcktrConfig {
    /// Discount factor γ (paper: 0.99).
    pub gamma: f32,
    /// GAE λ (1.0 = plain n-step returns).
    pub gae_lambda: f32,
    /// Natural-gradient learning rate (paper: 0.25).
    pub lr: f32,
    /// Entropy bonus coefficient (paper: 0.01).
    pub ent_coef: f32,
    /// Value-loss coefficient (paper: 0.25).
    pub vf_coef: f32,
    /// Global gradient-norm clip (paper: 0.5).
    pub max_grad_norm: f32,
    /// KL trust region (paper: 0.001).
    pub kl_clip: f32,
    /// K-FAC damping.
    pub damping: f64,
    /// K-FAC factor moving-average decay.
    pub stat_decay: f32,
    /// Recompute factor inverses every this many updates.
    pub inverse_period: u32,
    /// Steps collected per env per update.
    pub n_steps: usize,
    /// Hidden layer sizes (paper: [256, 256]).
    pub hidden: [usize; 2],
    /// Normalize advantages per batch.
    pub normalize_advantages: bool,
    /// Linearly decay the learning rate to 10 % of its initial value over
    /// the training horizon (stable-baselines' ACKTR default schedule).
    pub lr_decay: bool,
}

impl Default for AcktrConfig {
    fn default() -> Self {
        AcktrConfig {
            gamma: 0.99,
            gae_lambda: 1.0,
            lr: 0.25,
            ent_coef: 0.01,
            vf_coef: 0.25,
            max_grad_norm: 0.5,
            kl_clip: 0.001,
            damping: 0.01,
            stat_decay: 0.95,
            inverse_period: 20,
            n_steps: 16,
            hidden: [256, 256],
            normalize_advantages: false,
            lr_decay: true,
        }
    }
}

impl AcktrConfig {
    fn kfac(&self) -> KfacConfig {
        KfacConfig {
            lr: self.lr,
            kl_clip: self.kl_clip,
            damping: self.damping,
            stat_decay: self.stat_decay,
            inverse_period: self.inverse_period,
            max_grad_norm: self.max_grad_norm,
        }
    }
}

/// One network's K-FAC state and the buffers its half of every update
/// reuses: the loss gradient's forward cache and gradients, and the
/// pre-activation gradients of the Fisher sample. The cache's layer inputs
/// and those gradients are the statistics' input, which the half keeps
/// until they are blended. The loss's own pre-activation gradients are
/// spent once `dW` and `db` are formed, so the Fisher sample's borrow
/// their buffers and hand them back when blended.
#[derive(Debug)]
struct KfacSide {
    kfac: Kfac,
    buf: Buffers,
    fisher: Vec<Matrix>,
}

impl KfacSide {
    fn new(net: &Mlp, config: KfacConfig) -> Self {
        KfacSide {
            kfac: Kfac::new(net, config),
            buf: Buffers::default(),
            fisher: Vec::new(),
        }
    }

    /// Blends the kept batch's Fisher statistics into the factors.
    fn blend(&mut self) {
        self.kfac.update_stats(&self.buf.cache, &self.fisher);
        for (layer, fisher) in self.buf.grads.layers.iter_mut().zip(self.fisher.drain(..)) {
            layer.preact_grads = fisher;
        }
    }

    /// The Fisher backward of `fisher_out` (`∂L/∂output` sampled from the
    /// model) and the natural-gradient step for the kept loss gradients —
    /// with the statistics blended first when `blend` is set.
    fn fisher_and_step(&mut self, net: &mut Mlp, fisher_out: &Matrix, blend: bool, which: &str) {
        let spent = self.buf.grads.layers.iter_mut();
        self.fisher
            .extend(spent.map(|layer| std::mem::take(&mut layer.preact_grads)));
        net.backward_preact_into(&self.buf.cache, fisher_out, &mut self.fisher);
        if blend {
            self.blend();
        }
        if let Err(e) = self.kfac.step(net, &self.buf.grads) {
            panic!("{which} K-FAC step failed: {e}");
        }
    }
}

/// Both networks' K-FAC sides and the critic's batch: home between
/// updates, or on the learner's helper thread while the statistics of the
/// last update blend there.
#[derive(Debug)]
struct Sides {
    actor: KfacSide,
    critic: KfacSide,
    batch: ValueBatch,
}

/// The ACKTR update: per network, the A2C gradient, Fisher-factor
/// statistics from model-sampled gradients, and one K-FAC
/// natural-gradient step under the KL trust region — the critic's on the
/// learner's helper thread beside the actor's (`Helper::join`).
///
/// Only a step that refreshes the inverses reads the factors
/// ([`Kfac::step_refreshes`]; 1 update in `inverse_period`). On every
/// other update both networks' statistics are blended after the steps, as
/// one job left on the helper while the next batch is collected; the next
/// update collects it before it touches either `Kfac`. The Fisher sample
/// and its backward still run before the step, because they read the
/// pre-step weights.
#[derive(Debug)]
pub struct KfacStep {
    config: AcktrConfig,
    /// The learning rate of the next step; it reaches the two `Kfac`s when
    /// the update has them back.
    lr: f32,
    /// `None` while an update or the statistics have them.
    sides: Option<Sides>,
}

/// The ACKTR agent.
pub type Acktr = ActorCritic<KfacStep>;

impl UpdateRule for KfacStep {
    type Config = AcktrConfig;

    fn new(config: AcktrConfig, actor: &Mlp, critic: &Mlp) -> Self {
        KfacStep {
            config,
            lr: config.lr,
            sides: Some(Sides {
                actor: KfacSide::new(actor, config.kfac()),
                critic: KfacSide::new(critic, config.kfac()),
                batch: ValueBatch::default(),
            }),
        }
    }

    fn config(&self) -> &AcktrConfig {
        &self.config
    }

    fn hidden(config: &AcktrConfig) -> [usize; 2] {
        config.hidden
    }

    fn collect_params(&self) -> CollectParams {
        CollectParams {
            n_steps: self.config.n_steps,
            gamma: self.config.gamma,
            gae_lambda: self.config.gae_lambda,
        }
    }

    fn lr_schedule(&self) -> Option<f32> {
        self.config.lr_decay.then_some(self.config.lr)
    }

    fn set_lr(&mut self, lr: f32) {
        self.lr = lr;
    }

    /// `rng` drives the Fisher-factor sampling; for bit-identical training
    /// it must be the same stream that collected the rollout.
    fn update(
        &mut self,
        actor: &mut Mlp,
        mut critic: Mlp,
        rollout: &mut Rollout,
        rng: &mut StdRng,
        helper: &mut Helper,
    ) -> Mlp {
        if let Some(sides) = helper.finish::<Sides>() {
            self.sides = Some(sides);
        }
        let Sides {
            actor: mut actor_side,
            critic: mut critic_side,
            mut batch,
        } = self
            .sides
            .take()
            .expect("the K-FAC sides are back once the statistics are blended");
        actor_side.kfac.set_lr(self.lr);
        critic_side.kfac.set_lr(self.lr);
        if self.config.normalize_advantages {
            rollout.normalize_advantages();
        }
        let (rollout, c) = (&*rollout, self.config);

        // Every draw is taken here, before the halves part, in the order
        // of one serial update: the actor's Fisher samples — one
        // `gen::<f32>()` per row, drawn by the actor half from its copy of
        // the stream — then the critic's noise.
        let rows = rollout.actions.len();
        let mut actor_rng = rng.clone();
        for _ in 0..rows {
            let _: f32 = rng.gen();
        }
        // Critic value head: Gaussian likelihood ⇒ Fisher gradient is
        // standard normal noise (Wu et al., Sec. 3).
        let critic_fisher_out = Matrix::from_fn(rows, 1, |_, _| {
            let u1: f32 = rng.gen_range(1e-6..1.0f32);
            let u2: f32 = rng.gen();
            ((-2.0 * u1.ln()).sqrt() * (2.0 * std::f32::consts::PI * u2).cos()) / rows as f32
        });

        // A refreshing step reads this batch's statistics, so they blend
        // inline, before it. The two `Kfac`s step in lockstep.
        let blend = actor_side.kfac.step_refreshes();
        debug_assert_eq!(blend, critic_side.kfac.step_refreshes());
        batch.copy_from(rollout);
        let (actor_side, (critic, critic_side, batch)) = helper.join(
            || {
                let dist = policy_gradients(actor, rollout, c.ent_coef, &mut actor_side.buf);
                let fisher_out = dist.fisher_sample_logits(&mut actor_rng);
                actor_side.fisher_and_step(actor, &fisher_out, blend, "actor");
                actor_side
            },
            move || {
                value_gradients(&critic, &batch, c.vf_coef, &mut critic_side.buf);
                critic_side.fisher_and_step(&mut critic, &critic_fisher_out, blend, "critic");
                (critic, critic_side, batch)
            },
        );
        let mut sides = Sides {
            actor: actor_side,
            critic: critic_side,
            batch,
        };
        if blend {
            self.sides = Some(sides);
        } else {
            helper.start(move || {
                sides.actor.blend();
                sides.critic.blend();
                sides
            });
        }
        critic
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::testenvs::Corridor;
    use crate::env::Env;

    #[test]
    fn learns_corridor() {
        let mut envs: Vec<Box<dyn Env>> = (0..4).map(|_| Box::new(Corridor::new(6)) as _).collect();
        let cfg = AcktrConfig {
            n_steps: 8,
            hidden: [32, 32],
            ..AcktrConfig::default()
        };
        let mut agent = Acktr::new(1, 2, cfg, 3);
        let stats = agent.train(&mut envs, 15_000);
        for pos in [0.0f32, 0.25, 0.5, 0.75] {
            assert_eq!(agent.act_greedy(&[pos]), 1, "at pos {pos}");
        }
        let early = stats.mean_rewards[..10].iter().sum::<f32>() / 10.0;
        assert!(stats.tail_mean(10) > early);
    }

    #[test]
    fn deterministic_under_seed() {
        let train = |seed| {
            let mut envs: Vec<Box<dyn Env>> =
                vec![Box::new(Corridor::new(5)), Box::new(Corridor::new(5))];
            let cfg = AcktrConfig {
                hidden: [8, 8],
                ..AcktrConfig::default()
            };
            let mut agent = Acktr::new(1, 2, cfg, seed);
            agent.train(&mut envs, 400).mean_rewards
        };
        assert_eq!(train(7), train(7));
        assert_ne!(train(7), train(8));
    }

    #[test]
    fn paper_defaults_match_section_v() {
        let cfg = AcktrConfig::default();
        assert_eq!(cfg.gamma, 0.99);
        assert_eq!(cfg.lr, 0.25);
        assert_eq!(cfg.ent_coef, 0.01);
        assert_eq!(cfg.vf_coef, 0.25);
        assert_eq!(cfg.max_grad_norm, 0.5);
        assert_eq!(cfg.kl_clip, 0.001);
        assert_eq!(cfg.hidden, [256, 256]);
    }
}

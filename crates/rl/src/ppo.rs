//! Proximal policy optimization with a clipped surrogate objective
//! (Schulman et al. \[41\]).
//!
//! The paper cites PPO alongside TRPO as the family of gradual-update
//! policy-gradient methods that ACKTR belongs to; this implementation
//! serves as the ablation alternative to ACKTR's natural gradient.

use crate::a2c::{Buffers, CriticSide};
use crate::learner::{ActorCritic, CollectParams, UpdateRule};
use crate::rollout::Rollout;
use crate::trainer::{self, Helper};
use dosco_nn::matrix::Matrix;
use dosco_nn::mlp::Mlp;
use dosco_nn::optim::{Adam, Optimizer};
use dosco_nn::Categorical;
use rand::rngs::StdRng;
use serde::{Deserialize, Serialize};

/// PPO hyperparameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PpoConfig {
    /// Discount factor γ.
    pub gamma: f32,
    /// GAE λ.
    pub gae_lambda: f32,
    /// Adam learning rate.
    pub lr: f32,
    /// Clip range ε.
    pub clip: f32,
    /// Entropy bonus coefficient.
    pub ent_coef: f32,
    /// Value-loss coefficient.
    pub vf_coef: f32,
    /// Global gradient-norm clip.
    pub max_grad_norm: f32,
    /// Steps collected per env per update.
    pub n_steps: usize,
    /// Optimization epochs per collected batch.
    pub epochs: usize,
    /// Hidden layer sizes.
    pub hidden: [usize; 2],
}

impl Default for PpoConfig {
    fn default() -> Self {
        PpoConfig {
            gamma: 0.99,
            gae_lambda: 0.95,
            lr: 3e-3,
            clip: 0.2,
            ent_coef: 0.01,
            vf_coef: 0.5,
            max_grad_norm: 0.5,
            n_steps: 32,
            epochs: 4,
            hidden: [64, 64],
        }
    }
}

/// The PPO update: `epochs` clipped-surrogate Adam steps on the actor
/// and, side by side with them on the learner's helper thread
/// (`trainer::join`), `epochs` value-loss Adam steps on the critic, each
/// pass over the whole rollout. Draws no randomness.
#[derive(Debug)]
pub struct ClippedSurrogateEpochs {
    config: PpoConfig,
    actor_opt: Adam,
    actor_buf: Buffers,
    /// `None` only while the critic half runs.
    critic: Option<CriticSide<Adam>>,
}

/// The PPO agent.
pub type Ppo = ActorCritic<ClippedSurrogateEpochs>;

/// Gradient of the clipped surrogate + entropy loss w.r.t. the logits.
///
/// `L = −(1/B) Σ [ min(ρ·A, clip(ρ, 1±ε)·A) + β·H ]` with
/// `ρ = π(a)/π_old(a)`. The gradient of the min term is
/// `ρ·A · ∇log π(a)` when the unclipped branch is active, else zero.
pub(crate) fn ppo_logit_gradients(
    dist: &Categorical,
    actions: &[usize],
    advantages: &[f32],
    old_log_probs: &[f32],
    clip: f32,
    ent_coef: f32,
) -> Matrix {
    let b = actions.len() as f32;
    let lp = dist.log_prob(actions);
    let entropies = dist.entropy();
    let probs = dist.probs();
    let k = dist.num_actions();
    let mut out = Matrix::zeros(actions.len(), k);
    for r in 0..actions.len() {
        let ratio = (lp[r] - old_log_probs[r]).exp();
        let adv = advantages[r];
        // Unclipped branch active iff ρ·A ≤ clip(ρ)·A.
        let clipped_ratio = ratio.clamp(1.0 - clip, 1.0 + clip);
        let active = ratio * adv <= clipped_ratio * adv + 1e-12;
        let h = entropies[r];
        let row = out.row_mut(r);
        for (j, slot) in row.iter_mut().enumerate().take(k) {
            let p = probs.get(r, j);
            let onehot = if j == actions[r] { 1.0 } else { 0.0 };
            // ∇logits of −ρ·A·log-prob term: ρ·A·(π − onehot).
            let pg = if active {
                ratio * adv * (p - onehot)
            } else {
                0.0
            };
            // Entropy ascent (loss includes −β·H): β·π(logπ + H).
            let lpj = if p > 0.0 { p.ln() } else { 0.0 };
            let ent = ent_coef * p * (lpj + h);
            *slot = (pg + ent) / b;
        }
    }
    out
}

impl UpdateRule for ClippedSurrogateEpochs {
    type Config = PpoConfig;

    fn new(config: PpoConfig, _actor: &Mlp, _critic: &Mlp) -> Self {
        ClippedSurrogateEpochs {
            config,
            actor_opt: Adam::with_lr(config.lr),
            actor_buf: Buffers::default(),
            critic: Some(CriticSide::new(Adam::with_lr(config.lr))),
        }
    }

    fn config(&self) -> &PpoConfig {
        &self.config
    }

    fn hidden(config: &PpoConfig) -> [usize; 2] {
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
        None // PPO applies no internal decay
    }

    /// # Panics
    ///
    /// Never: the critic side is away only inside `update`, which puts
    /// it back before returning.
    #[allow(clippy::expect_used, reason = "the documented # Panics contract")]
    fn set_lr(&mut self, lr: f32) {
        self.actor_opt.set_learning_rate(lr);
        self.critic
            .as_mut()
            .expect("the critic side is back once an update returns")
            .opt
            .set_learning_rate(lr);
    }

    /// # Panics
    ///
    /// Never: the critic side is taken here and put back before this
    /// returns, and the helper's job returns it.
    fn update(
        &mut self,
        actor: &mut Mlp,
        mut critic: Mlp,
        rollout: &mut Rollout,
        _rng: &mut StdRng,
        helper: &mut Helper,
    ) -> Mlp {
        rollout.normalize_advantages();
        let (rollout, c) = (&*rollout, self.config);
        #[allow(clippy::expect_used, reason = "the documented # Panics contract")]
        let mut side = self
            .critic
            .take()
            .expect("the critic side is back once an update returns");
        side.batch.copy_from(rollout);
        let (actor_opt, buf) = (&mut self.actor_opt, &mut self.actor_buf);
        let ((), (critic, side)) = trainer::join(
            helper,
            || {
                // Old log-probs under the collection policy.
                actor.forward_cached_into(&rollout.obs, &mut buf.cache);
                let old_lp = Categorical::new(&buf.cache.output).log_prob(&rollout.actions);
                for _ in 0..c.epochs {
                    actor.forward_cached_into(&rollout.obs, &mut buf.cache);
                    let dlogits = ppo_logit_gradients(
                        &Categorical::new(&buf.cache.output),
                        &rollout.actions,
                        &rollout.advantages,
                        &old_lp,
                        c.clip,
                        c.ent_coef,
                    );
                    actor.backward_into(&buf.cache, &dlogits, &mut buf.grads);
                    buf.grads.clip_global_norm(c.max_grad_norm);
                    actor_opt.step(actor, &buf.grads);
                }
            },
            move || {
                for _ in 0..c.epochs {
                    side.value_step(&mut critic, c.vf_coef, c.max_grad_norm);
                }
                (critic, side)
            },
        );
        self.critic = Some(side);
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
        let cfg = PpoConfig {
            hidden: [32, 32],
            ..PpoConfig::default()
        };
        let mut agent = Ppo::new(1, 2, cfg, 3);
        agent.train(&mut envs, 20_000);
        for pos in [0.0f32, 0.25, 0.5, 0.75] {
            assert_eq!(agent.act_greedy(&[pos]), 1, "at pos {pos}");
        }
    }

    /// The PPO logit gradient reduces to the vanilla policy gradient when
    /// old == new policy (ρ = 1, unclipped).
    #[test]
    fn gradient_matches_pg_at_ratio_one() {
        let logits = Matrix::from_rows(&[&[0.3, -0.2, 0.8]]);
        let dist = Categorical::new(&logits);
        let actions = [1usize];
        let advs = [0.7f32];
        let old_lp = dist.log_prob(&actions);
        let ppo_grad = ppo_logit_gradients(&dist, &actions, &advs, &old_lp, 0.2, 0.01);
        let pg_grad = dist.policy_gradient_logits(&actions, &advs, 0.01);
        for j in 0..3 {
            assert!(
                (ppo_grad.get(0, j) - pg_grad.get(0, j)).abs() < 1e-6,
                "logit {j}"
            );
        }
    }

    /// Once the ratio exceeds 1+ε with positive advantage, the policy
    /// gradient contribution vanishes (only entropy remains).
    #[test]
    fn gradient_clips_large_ratios() {
        let logits = Matrix::from_rows(&[&[2.0, 0.0]]);
        let dist = Categorical::new(&logits);
        let actions = [0usize];
        let advs = [1.0f32];
        // Pretend the old policy gave this action much lower probability.
        let old_lp = [dist.log_prob(&actions)[0] - 1.0]; // ratio = e ≈ 2.72
        let grad = ppo_logit_gradients(&dist, &actions, &advs, &old_lp, 0.2, 0.0);
        assert_eq!(grad.get(0, 0), 0.0);
        assert_eq!(grad.get(0, 1), 0.0);
    }
}

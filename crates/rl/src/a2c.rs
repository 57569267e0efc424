//! Synchronous advantage actor-critic (A2C) with RMSprop.
//!
//! A2C is the synchronous variant of A3C (Mnih et al. [39]) that ACKTR
//! extends: n-step rollouts from `l` parallel environments, a categorical
//! actor, a state-value critic trained by temporal difference, and an
//! entropy bonus. This is the "plain gradient" half of the paper's
//! training algorithm and an ablation point versus ACKTR.

use crate::env::Env;
use crate::learner::train_serial;
use crate::rollout::Rollout;
use dosco_nn::matrix::Matrix;
use dosco_nn::mlp::{Gradients, Mlp};
use dosco_nn::optim::{Optimizer, RmsProp};
use dosco_nn::Categorical;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// A2C hyperparameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct A2cConfig {
    /// Discount factor γ (paper: 0.99).
    pub gamma: f32,
    /// GAE λ (1.0 = plain n-step returns).
    pub gae_lambda: f32,
    /// RMSprop learning rate.
    pub lr: f32,
    /// Entropy bonus coefficient (paper: 0.01).
    pub ent_coef: f32,
    /// Value-loss coefficient (paper: 0.25).
    pub vf_coef: f32,
    /// Global gradient-norm clip (paper: 0.5).
    pub max_grad_norm: f32,
    /// Steps collected per env per update.
    pub n_steps: usize,
    /// Hidden layer sizes for actor and critic (paper: [256, 256]).
    pub hidden: [usize; 2],
    /// Normalize advantages per batch.
    pub normalize_advantages: bool,
    /// Linearly decay the learning rate to 10 % of its initial value over
    /// the training horizon.
    pub lr_decay: bool,
}

impl Default for A2cConfig {
    fn default() -> Self {
        A2cConfig {
            gamma: 0.99,
            gae_lambda: 1.0,
            lr: 7e-3,
            ent_coef: 0.01,
            vf_coef: 0.25,
            max_grad_norm: 0.5,
            n_steps: 16,
            hidden: [256, 256],
            normalize_advantages: false,
            lr_decay: false,
        }
    }
}

/// Per-update training statistics.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct TrainStats {
    /// Mean reward per transition, one entry per update.
    pub mean_rewards: Vec<f32>,
    /// Total environment transitions consumed.
    pub total_steps: usize,
}

impl TrainStats {
    /// Mean reward over the last `k` updates (converged performance probe).
    pub fn tail_mean(&self, k: usize) -> f32 {
        if self.mean_rewards.is_empty() {
            return 0.0;
        }
        let tail = &self.mean_rewards[self.mean_rewards.len().saturating_sub(k)..];
        tail.iter().sum::<f32>() / tail.len() as f32
    }
}

/// The A2C agent: actor + critic + optimizer state.
#[derive(Debug)]
pub struct A2c {
    actor: Mlp,
    critic: Mlp,
    actor_opt: RmsProp,
    critic_opt: RmsProp,
    config: A2cConfig,
    rng: StdRng,
}

/// Computes actor and critic gradients for one rollout batch — shared by
/// A2C (RMSprop step) and ACKTR (K-FAC step).
pub(crate) fn actor_critic_gradients(
    actor: &Mlp,
    critic: &Mlp,
    rollout: &Rollout,
    ent_coef: f32,
    vf_coef: f32,
) -> (
    Gradients,
    Gradients,
    dosco_nn::mlp::ForwardCache,
    dosco_nn::mlp::ForwardCache,
) {
    let batch = rollout.actions.len() as f32;
    // Actor: policy gradient with entropy bonus on the logits.
    let actor_cache = actor.forward_cached(&rollout.obs);
    let dist = Categorical::new(&actor_cache.output);
    let dlogits = dist.policy_gradient_logits(&rollout.actions, &rollout.advantages, ent_coef);
    let actor_grads = actor.backward(&actor_cache, &dlogits);
    // Critic: 0.5·vf_coef·(v − ret)² per sample.
    let critic_cache = critic.forward_cached(&rollout.obs);
    let mut dv = Matrix::zeros(rollout.actions.len(), 1);
    for i in 0..rollout.actions.len() {
        dv.set(i, 0, vf_coef * (critic_cache.output.get(i, 0) - rollout.returns[i]) / batch);
    }
    let critic_grads = critic.backward(&critic_cache, &dv);
    (actor_grads, critic_grads, actor_cache, critic_cache)
}

impl A2c {
    /// Creates an A2C agent for `obs_dim`-dimensional observations and
    /// `num_actions` discrete actions, with all randomness derived from
    /// `seed`.
    pub fn new(obs_dim: usize, num_actions: usize, config: A2cConfig, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let actor = Mlp::new(
            &[obs_dim, config.hidden[0], config.hidden[1], num_actions],
            dosco_nn::Activation::Tanh,
            &mut rng,
        );
        let critic = Mlp::new(
            &[obs_dim, config.hidden[0], config.hidden[1], 1],
            dosco_nn::Activation::Tanh,
            &mut rng,
        );
        A2c {
            actor,
            critic,
            actor_opt: RmsProp::with_lr(config.lr),
            critic_opt: RmsProp::with_lr(config.lr),
            config,
            rng,
        }
    }

    /// The actor network (the deployable policy).
    pub fn actor(&self) -> &Mlp {
        &self.actor
    }

    /// The critic network.
    pub fn critic(&self) -> &Mlp {
        &self.critic
    }

    /// The configuration.
    pub fn config(&self) -> &A2cConfig {
        &self.config
    }

    /// Overwrites the current learning rate (external schedules).
    pub fn set_lr(&mut self, lr: f32) {
        self.actor_opt.set_learning_rate(lr);
        self.critic_opt.set_learning_rate(lr);
    }

    /// Greedy (argmax) action for a single observation — the inference
    /// mode of the deployed distributed agents.
    ///
    /// # Panics
    ///
    /// Panics if `obs.len()` does not match the observation dimension.
    pub fn act_greedy(&self, obs: &[f32]) -> usize {
        let logits = self.actor.forward(&Matrix::row_vector(obs));
        Categorical::new(&logits).argmax()[0]
    }

    /// Trains for (at least) `total_steps` environment transitions across
    /// the parallel `envs` (Alg. 1 ln. 3–12). Returns per-update stats.
    ///
    /// # Panics
    ///
    /// Panics if `envs` is empty or env dimensions mismatch the networks.
    pub fn train(&mut self, envs: &mut [Box<dyn Env>], total_steps: usize) -> TrainStats {
        train_serial(self, envs, total_steps)
    }

    /// One update from a collected rollout — what both [`A2c::train`] and
    /// the actor–learner runtime apply per batch. The RNG parameter is
    /// unused (the A2C update draws no randomness) but part of the shared
    /// learner signature.
    pub fn update_batch(&mut self, rollout: &mut Rollout, _rng: &mut StdRng) {
        if self.config.normalize_advantages {
            rollout.normalize_advantages();
        }
        self.update(rollout);
    }

    /// Moves the sampling RNG out of the agent so an external collection
    /// loop (the runtime's actor thread) can continue the same stream;
    /// pair with [`A2c::restore_rng`]. The agent is left with a
    /// placeholder stream and must not sample until restored.
    pub fn take_rng(&mut self) -> StdRng {
        std::mem::replace(&mut self.rng, StdRng::seed_from_u64(0))
    }

    /// Restores the sampling RNG after [`A2c::take_rng`].
    pub fn restore_rng(&mut self, rng: StdRng) {
        self.rng = rng;
    }

    fn update(&mut self, rollout: &Rollout) {
        let (mut actor_grads, mut critic_grads, _, _) = actor_critic_gradients(
            &self.actor,
            &self.critic,
            rollout,
            self.config.ent_coef,
            self.config.vf_coef,
        );
        actor_grads.clip_global_norm(self.config.max_grad_norm);
        critic_grads.clip_global_norm(self.config.max_grad_norm);
        self.actor_opt.step(&mut self.actor, &actor_grads);
        self.critic_opt.step(&mut self.critic, &critic_grads);
    }

    /// Replaces the actor (e.g. loading a saved policy).
    ///
    /// # Panics
    ///
    /// Panics if dimensions mismatch.
    pub fn set_actor(&mut self, actor: Mlp) {
        assert_eq!(actor.inputs(), self.actor.inputs(), "obs dim mismatch");
        assert_eq!(actor.outputs(), self.actor.outputs(), "action dim mismatch");
        self.actor = actor;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::testenvs::Corridor;

    #[test]
    fn learns_corridor() {
        let mut envs: Vec<Box<dyn Env>> = (0..4).map(|_| Box::new(Corridor::new(6)) as _).collect();
        let cfg = A2cConfig {
            lr: 0.02,
            n_steps: 8,
            hidden: [32, 32],
            ..A2cConfig::default()
        };
        // Seed 1 converges under the workspace StdRng stream (most seeds
        // do; a rare unlucky init can lock into the all-left optimum).
        let mut agent = A2c::new(1, 2, cfg, 1);
        let stats = agent.train(&mut envs, 20_000);
        // Converged policy: always go right, from anywhere in the corridor.
        for pos in [0.0f32, 0.25, 0.5, 0.75] {
            assert_eq!(agent.act_greedy(&[pos]), 1, "at pos {pos}");
        }
        // Reward improved over training.
        let early = stats.mean_rewards[..10].iter().sum::<f32>() / 10.0;
        let late = stats.tail_mean(10);
        assert!(late > early, "reward did not improve: {early} -> {late}");
    }

    #[test]
    fn deterministic_under_seed() {
        let train = |seed| {
            let mut envs: Vec<Box<dyn Env>> =
                vec![Box::new(Corridor::new(5)), Box::new(Corridor::new(5))];
            let cfg = A2cConfig {
                hidden: [8, 8],
                ..A2cConfig::default()
            };
            let mut agent = A2c::new(1, 2, cfg, seed);
            agent.train(&mut envs, 500).mean_rewards
        };
        assert_eq!(train(1), train(1));
        assert_ne!(train(1), train(2));
    }

    #[test]
    fn tail_mean_handles_short_histories() {
        let stats = TrainStats {
            mean_rewards: vec![1.0, 3.0],
            total_steps: 2,
        };
        assert_eq!(stats.tail_mean(10), 2.0);
        assert_eq!(TrainStats::default().tail_mean(5), 0.0);
    }

    #[test]
    #[should_panic(expected = "obs dim mismatch")]
    fn set_actor_checks_shape() {
        let mut agent = A2c::new(
            3,
            2,
            A2cConfig {
                hidden: [4, 4],
                ..A2cConfig::default()
            },
            0,
        );
        let mut rng = StdRng::seed_from_u64(0);
        let wrong = Mlp::new(&[5, 4, 2], dosco_nn::Activation::Tanh, &mut rng);
        agent.set_actor(wrong);
    }
}

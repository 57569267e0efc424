//! n-step rollout collection across parallel environments, with
//! bootstrapped discounted returns and generalized advantage estimation.

use crate::env::Env;
use dosco_nn::dist::{log_softmax, sample_action};
use dosco_nn::matrix::Matrix;
use dosco_nn::mlp::Mlp;
use rand::rngs::StdRng;

/// One collected mini-batch (`n_steps × n_envs` transitions, flattened
/// time-major: index `t * n_envs + e`).
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Rollout {
    /// Observations (`B × obs_dim`).
    pub obs: Matrix,
    /// Sampled actions.
    pub actions: Vec<usize>,
    /// Immediate rewards.
    pub rewards: Vec<f32>,
    /// Episode-termination flags.
    pub dones: Vec<bool>,
    /// Critic value estimates at collection time.
    pub values: Vec<f32>,
    /// Bootstrapped discounted returns (targets for the critic).
    pub returns: Vec<f32>,
    /// Advantages (targets for the actor).
    pub advantages: Vec<f32>,
    /// Parallel env count (for reshaping).
    pub n_envs: usize,
    /// Steps per env.
    pub n_steps: usize,
    /// Sum of rewards in this batch (monitoring).
    pub reward_sum: f32,
}

/// Maintains the current observation of each parallel env between batches.
#[derive(Debug)]
pub struct RolloutCollector {
    current_obs: Vec<Vec<f32>>,
}

impl RolloutCollector {
    /// Resets all `envs` and records their initial observations.
    pub fn new(envs: &mut [Box<dyn Env>]) -> Self {
        let current_obs = envs.iter_mut().map(|e| e.reset()).collect();
        RolloutCollector { current_obs }
    }

    /// Collects `n_steps` transitions from every env under the current
    /// `actor` policy, evaluating states with `critic`, and computes
    /// returns/advantages with discount `gamma` and GAE parameter
    /// `gae_lambda` (1.0 = plain n-step returns).
    ///
    /// # Panics
    ///
    /// Panics if `envs` is empty or observation sizes mismatch the actor.
    #[allow(clippy::too_many_arguments)] // established trainer-facing API
    pub fn collect(
        &mut self,
        envs: &mut [Box<dyn Env>],
        actor: &Mlp,
        critic: &Mlp,
        n_steps: usize,
        gamma: f32,
        gae_lambda: f32,
        rng: &mut StdRng,
    ) -> Rollout {
        assert!(!envs.is_empty(), "need at least one environment");
        let _span = dosco_obs::span(dosco_obs::SpanKind::RolloutCollect);
        let n_envs = envs.len();
        let obs_dim = actor.inputs();
        let batch = n_steps * n_envs;
        let mut obs = Matrix::zeros(batch, obs_dim);
        let mut actions = Vec::with_capacity(batch);
        let mut rewards = Vec::with_capacity(batch);
        let mut dones = Vec::with_capacity(batch);
        let mut values = Vec::with_capacity(batch);
        let mut reward_sum = 0.0;

        // The parallel envs' observations, batched for one forward pass
        // per step, and the forwards' buffers: kept from step to step.
        let mut step_obs = Matrix::zeros(n_envs, obs_dim);
        let (mut logits, mut vals, mut hidden) =
            (Matrix::default(), Matrix::default(), Matrix::default());
        let mut acts = Vec::with_capacity(n_envs);
        for t in 0..n_steps {
            for (e, o) in self.current_obs.iter().enumerate() {
                assert_eq!(o.len(), obs_dim, "observation length mismatch");
                step_obs.row_mut(e).copy_from_slice(o);
            }
            actor.forward_into(&step_obs, &mut logits, &mut hidden);
            acts.clear();
            acts.extend((0..n_envs).map(|e| sample_action(log_softmax(logits.row(e)), rng)));
            critic.forward_into(&step_obs, &mut vals, &mut hidden);
            for (e, env) in envs.iter_mut().enumerate() {
                let r = env.step(acts[e]);
                let idx = t * n_envs + e;
                obs.row_mut(idx)
                    .copy_from_slice(self.current_obs[e].as_slice());
                actions.push(acts[e]);
                rewards.push(r.reward);
                reward_sum += r.reward;
                dones.push(r.done);
                values.push(vals.get(e, 0));
                self.current_obs[e] = r.obs;
            }
        }

        // Bootstrap values for the observations after the last step.
        for (e, o) in self.current_obs.iter().enumerate() {
            step_obs.row_mut(e).copy_from_slice(o);
        }
        critic.forward_into(&step_obs, &mut vals, &mut hidden);

        // GAE / bootstrapped returns, per env, backwards in time.
        let mut advantages = vec![0.0f32; batch];
        let mut returns = vec![0.0f32; batch];
        for e in 0..n_envs {
            let mut gae = 0.0f32;
            let mut next_value = vals.get(e, 0);
            for t in (0..n_steps).rev() {
                let idx = t * n_envs + e;
                let non_terminal = if dones[idx] { 0.0 } else { 1.0 };
                let delta = rewards[idx] + gamma * next_value * non_terminal - values[idx];
                gae = delta + gamma * gae_lambda * non_terminal * gae;
                advantages[idx] = gae;
                returns[idx] = gae + values[idx];
                next_value = values[idx];
            }
        }

        Rollout {
            obs,
            actions,
            rewards,
            dones,
            values,
            returns,
            advantages,
            n_envs,
            n_steps,
            reward_sum,
        }
    }
}

impl Rollout {
    /// Mean reward per transition in the batch.
    pub fn mean_reward(&self) -> f32 {
        self.reward_sum / (self.n_envs * self.n_steps) as f32
    }

    /// Normalizes advantages to zero mean / unit variance (a common
    /// variance-reduction step; optional in the algorithms).
    pub fn normalize_advantages(&mut self) {
        let n = self.advantages.len() as f32;
        let mean: f32 = self.advantages.iter().sum::<f32>() / n;
        let var: f32 = self
            .advantages
            .iter()
            .map(|a| (a - mean) * (a - mean))
            .sum::<f32>()
            / n;
        let std = var.sqrt().max(1e-6);
        for a in &mut self.advantages {
            *a = (*a - mean) / std;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::testenvs::Corridor;
    use crate::env::Env;
    use dosco_nn::mlp::Activation;
    use rand::SeedableRng;

    fn actor_critic(obs: usize, acts: usize) -> (Mlp, Mlp) {
        let mut rng = StdRng::seed_from_u64(5);
        (
            Mlp::new(&[obs, 8, acts], Activation::Tanh, &mut rng),
            Mlp::new(&[obs, 8, 1], Activation::Tanh, &mut rng),
        )
    }

    #[test]
    fn collects_expected_batch_shape() {
        let mut envs: Vec<Box<dyn Env>> =
            vec![Box::new(Corridor::new(5)), Box::new(Corridor::new(5))];
        let (actor, critic) = actor_critic(1, 2);
        let mut col = RolloutCollector::new(&mut envs);
        let mut rng = StdRng::seed_from_u64(1);
        let r = col.collect(&mut envs, &actor, &critic, 8, 0.99, 1.0, &mut rng);
        assert_eq!(r.obs.rows(), 16);
        assert_eq!(r.actions.len(), 16);
        assert_eq!(r.returns.len(), 16);
        assert_eq!((r.n_envs, r.n_steps), (2, 8));
    }

    /// With γ = 0, returns equal immediate rewards and advantages equal
    /// reward − value.
    #[test]
    fn gamma_zero_returns_are_rewards() {
        let mut envs: Vec<Box<dyn Env>> = vec![Box::new(Corridor::new(4))];
        let (actor, critic) = actor_critic(1, 2);
        let mut col = RolloutCollector::new(&mut envs);
        let mut rng = StdRng::seed_from_u64(2);
        let r = col.collect(&mut envs, &actor, &critic, 6, 0.0, 1.0, &mut rng);
        for i in 0..r.returns.len() {
            assert!((r.returns[i] - r.rewards[i]).abs() < 1e-6);
            assert!((r.advantages[i] - (r.rewards[i] - r.values[i])).abs() < 1e-6);
        }
    }

    /// Returns satisfy the Bellman recursion within an episode:
    /// ret_t = r_t + γ·ret_{t+1} (λ = 1, single env, no done in between).
    #[test]
    fn returns_follow_bellman_recursion() {
        let mut envs: Vec<Box<dyn Env>> = vec![Box::new(Corridor::new(50))];
        let (actor, critic) = actor_critic(1, 2);
        let mut col = RolloutCollector::new(&mut envs);
        let mut rng = StdRng::seed_from_u64(3);
        let gamma = 0.9;
        let r = col.collect(&mut envs, &actor, &critic, 10, gamma, 1.0, &mut rng);
        for t in 0..9 {
            if r.dones[t] {
                continue;
            }
            let lhs = r.returns[t];
            let rhs = r.rewards[t] + gamma * r.returns[t + 1];
            assert!((lhs - rhs).abs() < 1e-5, "t={t}: {lhs} vs {rhs}");
        }
    }

    /// Terminal transitions do not bootstrap across episode boundaries.
    #[test]
    fn done_cuts_bootstrap() {
        // Corridor of 2: action 1 terminates immediately with +1.
        let mut envs: Vec<Box<dyn Env>> = vec![Box::new(Corridor::new(2))];
        let (actor, critic) = actor_critic(1, 2);
        let mut col = RolloutCollector::new(&mut envs);
        let mut rng = StdRng::seed_from_u64(4);
        let r = col.collect(&mut envs, &actor, &critic, 20, 0.99, 1.0, &mut rng);
        for t in 0..20 {
            if r.dones[t] {
                // Return at a terminal step is exactly the reward.
                assert!((r.returns[t] - r.rewards[t]).abs() < 1e-5);
            }
        }
    }

    /// Collecting the same seeded setup twice yields bit-for-bit identical
    /// rollouts: the shared RNG only feeds action sampling, and each env
    /// owns its own stream.
    #[test]
    fn collection_is_deterministic() {
        let run = || {
            let mut envs: Vec<Box<dyn Env>> = (0..6)
                .map(|i| Box::new(Corridor::new(3 + i)) as Box<dyn Env>)
                .collect();
            let (actor, critic) = actor_critic(1, 2);
            let mut col = RolloutCollector::new(&mut envs);
            let mut rng = StdRng::seed_from_u64(9);
            col.collect(&mut envs, &actor, &critic, 16, 0.99, 0.95, &mut rng)
        };
        assert_eq!(run(), run(), "same seed must reproduce exactly");
    }

    #[test]
    fn normalize_advantages_zero_mean_unit_std() {
        let mut envs: Vec<Box<dyn Env>> = vec![Box::new(Corridor::new(6))];
        let (actor, critic) = actor_critic(1, 2);
        let mut col = RolloutCollector::new(&mut envs);
        let mut rng = StdRng::seed_from_u64(6);
        let mut r = col.collect(&mut envs, &actor, &critic, 32, 0.99, 0.95, &mut rng);
        r.normalize_advantages();
        let n = r.advantages.len() as f32;
        let mean: f32 = r.advantages.iter().sum::<f32>() / n;
        let var: f32 = r.advantages.iter().map(|a| a * a).sum::<f32>() / n;
        assert!(mean.abs() < 1e-5);
        assert!((var - 1.0).abs() < 1e-3);
    }
}

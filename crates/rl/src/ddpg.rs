//! Deep deterministic policy gradient (Lillicrap et al.) for continuous
//! action spaces.
//!
//! Used by the centralized DRL baseline (Sec. V-A3, ref \[10\]): its rule
//! updates are continuous scheduling/placement weights, learned here with
//! a deterministic actor, a Q critic over `(s, a)`, target networks with
//! Polyak averaging, a uniform replay buffer, and Ornstein-Uhlenbeck
//! exploration noise.

use crate::env::ContinuousEnv;
use dosco_nn::matrix::Matrix;
use dosco_nn::mlp::Mlp;
use dosco_nn::optim::{Adam, Optimizer};
use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// DDPG hyperparameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DdpgConfig {
    /// Discount factor γ.
    pub gamma: f32,
    /// Actor Adam learning rate.
    pub actor_lr: f32,
    /// Critic Adam learning rate.
    pub critic_lr: f32,
    /// Polyak averaging rate τ for the target networks.
    pub tau: f32,
    /// Replay buffer capacity.
    pub buffer_capacity: usize,
    /// Minibatch size.
    pub batch_size: usize,
    /// Random-action steps before learning starts.
    pub warmup: usize,
    /// OU noise mean-reversion rate θ.
    pub ou_theta: f32,
    /// OU noise volatility σ.
    pub ou_sigma: f32,
    /// Hidden layer sizes.
    pub hidden: [usize; 2],
}

impl Default for DdpgConfig {
    fn default() -> Self {
        DdpgConfig {
            gamma: 0.99,
            actor_lr: 1e-3,
            critic_lr: 1e-2,
            tau: 0.01,
            buffer_capacity: 50_000,
            batch_size: 64,
            warmup: 256,
            ou_theta: 0.15,
            ou_sigma: 0.2,
            hidden: [64, 64],
        }
    }
}

/// One replay transition.
#[derive(Debug, Clone, PartialEq)]
struct Transition {
    obs: Vec<f32>,
    action: Vec<f32>,
    reward: f32,
    next_obs: Vec<f32>,
    done: bool,
}

/// Fixed-capacity uniform replay buffer (ring).
#[derive(Debug)]
pub struct ReplayBuffer {
    data: Vec<Transition>,
    capacity: usize,
    head: usize,
}

impl ReplayBuffer {
    /// Creates an empty buffer.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "replay buffer capacity must be positive");
        ReplayBuffer {
            data: Vec::with_capacity(capacity.min(1 << 16)),
            capacity,
            head: 0,
        }
    }

    /// Current number of stored transitions (bounded by capacity).
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    fn push(&mut self, t: Transition) {
        if self.data.len() < self.capacity {
            self.data.push(t);
        } else {
            self.data[self.head] = t;
            self.head = (self.head + 1) % self.capacity;
        }
    }

    fn sample_indices(&self, n: usize, rng: &mut StdRng) -> Vec<usize> {
        (0..n).map(|_| rng.gen_range(0..self.data.len())).collect()
    }
}

/// The DDPG agent.
#[derive(Debug)]
pub struct Ddpg {
    actor: Mlp,
    critic: Mlp,
    target_actor: Mlp,
    target_critic: Mlp,
    actor_opt: Adam,
    critic_opt: Adam,
    buffer: ReplayBuffer,
    config: DdpgConfig,
    obs_dim: usize,
    action_dim: usize,
    noise: Vec<f32>,
    rng: StdRng,
    steps: usize,
}

impl Ddpg {
    /// Creates a DDPG agent with all randomness derived from `seed`.
    pub fn new(obs_dim: usize, action_dim: usize, config: DdpgConfig, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let actor = Mlp::new(
            &[obs_dim, config.hidden[0], config.hidden[1], action_dim],
            dosco_nn::Activation::Tanh,
            &mut rng,
        );
        let critic = Mlp::new(
            &[
                obs_dim + action_dim,
                config.hidden[0],
                config.hidden[1],
                1,
            ],
            dosco_nn::Activation::Tanh,
            &mut rng,
        );
        let target_actor = actor.clone();
        let target_critic = critic.clone();
        Ddpg {
            actor,
            critic,
            target_actor,
            target_critic,
            actor_opt: Adam::with_lr(config.actor_lr),
            critic_opt: Adam::with_lr(config.critic_lr),
            buffer: ReplayBuffer::new(config.buffer_capacity),
            config,
            obs_dim,
            action_dim,
            noise: vec![0.0; action_dim],
            rng,
            steps: 0,
        }
    }

    /// The deterministic actor.
    pub fn actor(&self) -> &Mlp {
        &self.actor
    }

    /// The replay buffer (diagnostics).
    pub fn buffer(&self) -> &ReplayBuffer {
        &self.buffer
    }

    fn randn(rng: &mut StdRng) -> f32 {
        let u1: f32 = rng.gen_range(1e-6..1.0f32);
        let u2: f32 = rng.gen();
        (-2.0 * u1.ln()).sqrt() * (2.0 * std::f32::consts::PI * u2).cos()
    }

    /// Deterministic policy output `tanh(μ(s)) ∈ [-1, 1]ᵈ` (no noise).
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub fn act(&self, obs: &[f32]) -> Vec<f32> {
        assert_eq!(obs.len(), self.obs_dim, "observation length mismatch");
        self.actor
            .forward(&Matrix::row_vector(obs))
            .row(0)
            .iter()
            .map(|&v| dosco_nn::tanh(v))
            .collect()
    }

    /// Policy output with OU exploration noise, clamped to `[-1, 1]`.
    pub fn act_noisy(&mut self, obs: &[f32]) -> Vec<f32> {
        let mut a = self.act(obs);
        for (ai, ni) in a.iter_mut().zip(self.noise.iter_mut()) {
            *ni += self.config.ou_theta * (0.0 - *ni)
                + self.config.ou_sigma * Self::randn(&mut self.rng);
            *ai = (*ai + *ni).clamp(-1.0, 1.0);
        }
        a
    }

    /// Stores a transition and, past warmup, performs one gradient update.
    pub fn observe(
        &mut self,
        obs: Vec<f32>,
        action: Vec<f32>,
        reward: f32,
        next_obs: Vec<f32>,
        done: bool,
    ) {
        self.buffer.push(Transition {
            obs,
            action,
            reward,
            next_obs,
            done,
        });
        self.steps += 1;
        if self.buffer.len() >= self.config.warmup.max(self.config.batch_size) {
            self.update();
        }
    }

    fn update(&mut self) {
        let n = self.config.batch_size;
        let idx = self.buffer.sample_indices(n, &mut self.rng);
        let od = self.obs_dim;
        let ad = self.action_dim;
        let mut obs = Matrix::zeros(n, od);
        let mut next_obs = Matrix::zeros(n, od);
        let mut sa = Matrix::zeros(n, od + ad);
        let mut rewards = Vec::with_capacity(n);
        let mut dones = Vec::with_capacity(n);
        for (r, &i) in idx.iter().enumerate() {
            let t = &self.buffer.data[i];
            obs.row_mut(r).copy_from_slice(&t.obs);
            next_obs.row_mut(r).copy_from_slice(&t.next_obs);
            sa.row_mut(r)[..od].copy_from_slice(&t.obs);
            sa.row_mut(r)[od..].copy_from_slice(&t.action);
            rewards.push(t.reward);
            dones.push(t.done);
        }

        // Critic target: y = r + γ(1−d)·Q'(s', tanh(μ'(s'))).
        let next_a = self.target_actor.forward(&next_obs).map(dosco_nn::tanh);
        let mut next_sa = Matrix::zeros(n, od + ad);
        for r in 0..n {
            next_sa.row_mut(r)[..od].copy_from_slice(next_obs.row(r));
            next_sa.row_mut(r)[od..].copy_from_slice(next_a.row(r));
        }
        let next_q = self.target_critic.forward(&next_sa);
        let critic_cache = self.critic.forward_cached(&sa);
        let mut dq = Matrix::zeros(n, 1);
        for r in 0..n {
            let y = rewards[r]
                + self.config.gamma * if dones[r] { 0.0 } else { next_q.get(r, 0) };
            dq.set(r, 0, (critic_cache.output.get(r, 0) - y) / n as f32);
        }
        let critic_grads = self.critic.backward(&critic_cache, &dq);
        self.critic_opt.step(&mut self.critic, &critic_grads);

        // Actor: maximize Q(s, tanh(μ(s))) — chain the critic's action
        // gradient through tanh into the actor.
        let actor_cache = self.actor.forward_cached(&obs);
        let a = actor_cache.output.map(dosco_nn::tanh);
        let mut sa_pi = Matrix::zeros(n, od + ad);
        for r in 0..n {
            sa_pi.row_mut(r)[..od].copy_from_slice(obs.row(r));
            sa_pi.row_mut(r)[od..].copy_from_slice(a.row(r));
        }
        let q_cache = self.critic.forward_cached(&sa_pi);
        let dout = Matrix::from_fn(n, 1, |_, _| -1.0 / n as f32); // ascend Q
        let (_, dinput) = self.critic.backward_with_input_grad(&q_cache, &dout);
        // Take the action part and chain through tanh'(z) = 1 − tanh²(z).
        let mut da_pre = Matrix::zeros(n, ad);
        for r in 0..n {
            for c in 0..ad {
                let t = a.get(r, c);
                da_pre.set(r, c, dinput.get(r, od + c) * (1.0 - t * t));
            }
        }
        let actor_grads = self.actor.backward(&actor_cache, &da_pre);
        self.actor_opt.step(&mut self.actor, &actor_grads);

        // Target network Polyak updates.
        self.target_actor.soft_update_from(&self.actor, self.config.tau);
        self.target_critic
            .soft_update_from(&self.critic, self.config.tau);
    }

    /// Convenience training loop over a [`ContinuousEnv`]: act noisily,
    /// observe, repeat for `total_steps`. Returns the reward history.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch with the environment.
    pub fn train(&mut self, env: &mut dyn ContinuousEnv, total_steps: usize) -> Vec<f32> {
        assert_eq!(env.obs_dim(), self.obs_dim, "obs dim mismatch");
        assert_eq!(env.action_dim(), self.action_dim, "action dim mismatch");
        let mut rewards = Vec::with_capacity(total_steps);
        let mut obs = env.reset();
        for _ in 0..total_steps {
            let action = if self.steps < self.config.warmup {
                (0..self.action_dim)
                    .map(|_| self.rng.gen_range(-1.0..1.0))
                    .collect()
            } else {
                self.act_noisy(&obs)
            };
            let r = env.step(&action);
            rewards.push(r.reward);
            let next = if r.done { env.reset() } else { r.obs.clone() };
            self.observe(obs, action, r.reward, r.obs, r.done);
            obs = next;
        }
        rewards
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::testenvs::TargetMatch;

    #[test]
    fn replay_buffer_ring_semantics() {
        let mut b = ReplayBuffer::new(3);
        assert!(b.is_empty());
        for i in 0..5 {
            b.push(Transition {
                obs: vec![i as f32],
                action: vec![0.0],
                reward: 0.0,
                next_obs: vec![0.0],
                done: false,
            });
        }
        assert_eq!(b.len(), 3);
        // Oldest entries overwritten: remaining obs are {3, 4, 2}.
        let vals: Vec<f32> = b.data.iter().map(|t| t.obs[0]).collect();
        assert!(vals.contains(&4.0) && vals.contains(&3.0) && vals.contains(&2.0));
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn replay_rejects_zero_capacity() {
        ReplayBuffer::new(0);
    }

    #[test]
    fn learns_target_matching() {
        // Optimal action is 0.6; reward = −(a − 0.6)².
        let mut env = TargetMatch { target: 0.6 };
        let cfg = DdpgConfig {
            hidden: [16, 16],
            warmup: 64,
            batch_size: 32,
            buffer_capacity: 4_096,
            ..DdpgConfig::default()
        };
        let mut agent = Ddpg::new(1, 1, cfg, 9);
        agent.train(&mut env, 3_000);
        let a = agent.act(&[0.6])[0];
        assert!((a - 0.6).abs() < 0.15, "learned action {a}");
    }

    #[test]
    fn actions_bounded() {
        let mut agent = Ddpg::new(
            2,
            3,
            DdpgConfig {
                hidden: [8, 8],
                ..DdpgConfig::default()
            },
            1,
        );
        for _ in 0..50 {
            let a = agent.act_noisy(&[0.5, -0.5]);
            assert_eq!(a.len(), 3);
            assert!(a.iter().all(|v| (-1.0..=1.0).contains(v)), "{a:?}");
        }
    }

    #[test]
    fn deterministic_under_seed() {
        let run = |seed| {
            let mut env = TargetMatch { target: -0.2 };
            let mut agent = Ddpg::new(
                1,
                1,
                DdpgConfig {
                    hidden: [8, 8],
                    warmup: 16,
                    batch_size: 8,
                    ..DdpgConfig::default()
                },
                seed,
            );
            agent.train(&mut env, 200)
        };
        assert_eq!(run(4), run(4));
        assert_ne!(run(4), run(5));
    }
}

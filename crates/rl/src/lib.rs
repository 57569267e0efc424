//! Reinforcement-learning algorithms on the [`dosco_nn`] substrate.
//!
//! The paper trains its distributed agents with **ACKTR** (actor-critic
//! using Kronecker-factored trust regions, Wu et al. \[38\]) over `l`
//! parallel environment copies, selecting the best of `k` random seeds
//! (Sec. IV-C2, Alg. 1). This crate implements that pipeline plus the
//! algorithms needed by the baselines and ablations:
//!
//! - [`env`](mod@env): Gym-style [`env::Env`] (discrete actions) and
//!   [`env::ContinuousEnv`] traits,
//! - [`rollout`]: n-step rollout collection across parallel envs with
//!   bootstrapped returns and GAE,
//! - [`learner`]: the [`Learner`] trait a training loop drives,
//!   [`ActorCritic`] — the one agent (two MLPs, a sampling RNG stream)
//!   that implements it, parameterised by an [`UpdateRule`] — and
//!   [`train_serial`], the one serial collect → update loop behind
//!   `train`,
//! - [`a2c`], [`acktr`], [`ppo`]: each algorithm's hyperparameters and
//!   its rule — a clipped RMSprop step (the A3C update of \[39\],
//!   synchronous variant); that gradient through K-FAC natural-gradient
//!   steps under a KL trust region, the paper's training algorithm; PPO's
//!   clipped-surrogate epochs, as an ablation alternative. [`A2c`],
//!   [`Acktr`] and [`Ppo`] name the agent under each rule,
//! - [`ddpg`]: deep deterministic policy gradient (replay buffer, target
//!   networks, OU exploration noise) — used by the centralized baseline's
//!   continuous rule-update policy,
//! - [`trainer`]: multi-seed training with best-agent selection
//!   (Alg. 1 ln. 13) over [`trainer::fan_out`], the scoped-thread
//!   fork–join every seed-level loop in the workspace shares, and the
//!   fork–join of one update's actor and critic halves.
//!
//! # Example
//!
//! ```
//! use dosco_rl::a2c::{A2c, A2cConfig};
//! use dosco_rl::env::{Env, StepResult};
//!
//! // A two-armed bandit: action 1 pays off.
//! struct Bandit;
//! impl Env for Bandit {
//!     fn obs_dim(&self) -> usize { 1 }
//!     fn num_actions(&self) -> usize { 2 }
//!     fn reset(&mut self) -> Vec<f32> { vec![0.0] }
//!     fn step(&mut self, action: usize) -> StepResult {
//!         StepResult { obs: vec![0.0], reward: if action == 1 { 1.0 } else { 0.0 }, done: true }
//!     }
//! }
//!
//! let mut envs: Vec<Box<dyn Env>> = vec![Box::new(Bandit), Box::new(Bandit)];
//! let cfg = A2cConfig { lr: 0.05, hidden: [16, 16], ..A2cConfig::default() };
//! let mut agent = A2c::new(1, 2, cfg, 0);
//! agent.train(&mut envs, 4_000);
//! assert_eq!(agent.act_greedy(&[0.0]), 1);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![warn(missing_debug_implementations)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod a2c;
pub mod acktr;
pub mod ddpg;
pub mod env;
pub mod learner;
pub mod ppo;
pub mod rollout;
pub mod trainer;

pub use a2c::{A2c, A2cConfig};
pub use acktr::{Acktr, AcktrConfig};
pub use ddpg::{Ddpg, DdpgConfig};
pub use env::{ContinuousEnv, Env, StepResult};
pub use learner::{train_serial, train_serial_with, ActorCritic, CollectParams, Learner, UpdateRule};
pub use ppo::{Ppo, PpoConfig};
pub use trainer::{train_multi_seed, SeedResult};

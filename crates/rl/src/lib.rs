//! Reinforcement-learning algorithms on the [`dosco_nn`] substrate.
//!
//! The paper trains its distributed agents with **ACKTR** (actor-critic
//! using Kronecker-factored trust regions, Wu et al. [38]) over `l`
//! parallel environment copies, selecting the best of `k` random seeds
//! (Sec. IV-C2, Alg. 1). This crate implements that pipeline plus the
//! algorithms needed by the baselines and ablations:
//!
//! - [`env`]: Gym-style [`env::Env`] (discrete actions) and
//!   [`env::ContinuousEnv`] traits,
//! - [`rollout`]: n-step rollout collection across parallel envs with
//!   bootstrapped returns and GAE,
//! - [`a2c`]: synchronous advantage actor-critic (the A3C update of [39],
//!   synchronous variant) with RMSprop,
//! - [`acktr`]: A2C with K-FAC natural gradients and a KL trust region —
//!   the paper's training algorithm,
//! - [`ppo`]: PPO-clip, as an ablation alternative,
//! - [`learner`]: the [`Learner`] trait the three algorithms above
//!   implement and [`train_serial`], the one serial collect → update loop
//!   behind their `train` methods,
//! - [`ddpg`]: deep deterministic policy gradient (replay buffer, target
//!   networks, OU exploration noise) — used by the centralized baseline's
//!   continuous rule-update policy,
//! - [`trainer`]: multi-seed training with best-agent selection
//!   (Alg. 1 ln. 13) over [`trainer::fan_out`], the scoped-thread
//!   fork–join every seed-level loop in the workspace shares.
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

pub mod a2c;
pub mod acktr;
pub mod ddpg;
pub mod env;
pub mod learner;
pub mod ppo;
pub mod rollout;
pub mod schedule;
pub mod trainer;

pub use a2c::{A2c, A2cConfig};
pub use acktr::{Acktr, AcktrConfig};
pub use ddpg::{Ddpg, DdpgConfig};
pub use env::{ContinuousEnv, Env, StepResult};
pub use learner::{train_serial, CollectParams, Learner};
pub use ppo::{Ppo, PpoConfig};
pub use trainer::{train_multi_seed, SeedResult};

//! Distributed online service coordination using deep reinforcement
//! learning — the paper's primary contribution (Sec. IV).
//!
//! A separate DRL agent sits at every network node and controls each
//! incoming flow locally: process it here (implicitly scaling/placing
//! component instances) or forward it to a neighbor (scheduling +
//! routing). Agents are trained **centrally** — one shared policy learns
//! from the pooled experience of all nodes (Fig. 4a) — and deployed
//! **distributedly**: each node gets a copy of the trained network and
//! decides alone, from local observations only (Fig. 4b).
//!
//! - [`observe`]: the POMDP observation adapter (Sec. IV-B1) — flow
//!   attributes, link/node utilization, delays to egress, and instance
//!   availability, all normalized to `[-1, 1]` and padded to the network
//!   degree `Δ_G`,
//! - [`reward`]: the shaped reward (Sec. IV-B3) — ±10 for
//!   completion/drop, `+1/n_s` per traversed instance, `−d_l/D_G` per
//!   hop, `−1/D_G` per idle hold,
//! - [`gymenv`]: the Gym-style environment adapter over
//!   [`dosco_simnet::Simulation`] (Fig. 5),
//! - [`policy`]: trained, serializable coordination policies and the
//!   distributed per-node agents,
//! - [`train`]: centralized training (ACKTR by default, A2C/PPO as
//!   ablations) over parallel environments and multiple seeds with
//!   best-agent selection (Alg. 1),
//! - [`eval`]: evaluation runs reporting the paper's success-ratio
//!   objective,
//! - [`federated`]: the Sec. IV-C1 design alternative built out — fully
//!   distributed per-node training with optional FedAvg synchronization.
//!
//! # Example: train at toy scale and deploy
//!
//! ```no_run
//! use dosco_core::train::{train_distributed, Algorithm, TrainConfig};
//! use dosco_simnet::ScenarioConfig;
//!
//! let scenario = ScenarioConfig::paper_base(2);
//! let cfg = TrainConfig {
//!     algorithm: Algorithm::Acktr,
//!     total_steps: 20_000,
//!     seeds: vec![0, 1],
//!     ..TrainConfig::default()
//! };
//! let trained = train_distributed(&scenario, &cfg);
//! let metrics = dosco_core::eval::evaluate(&trained.policy, &scenario, 7);
//! println!("success ratio: {:.3}", metrics.success_ratio());
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]
#![cfg_attr(not(test), deny(clippy::expect_used))]
#![warn(missing_debug_implementations)]

pub mod eval;
pub mod federated;
pub mod gymenv;
pub mod observe;
pub mod policy;
pub mod reward;
pub mod train;

pub use gymenv::CoordEnv;
pub use observe::ObservationAdapter;
pub use policy::{per_node_seed, CoordinationPolicy, DistributedAgents};
pub use reward::RewardConfig;
pub use train::{train_distributed, Algorithm, TrainConfig, TrainedPolicy};

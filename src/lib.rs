//! # dosco — Distributed Online Service Coordination
//!
//! Facade crate re-exporting the whole workspace: a Rust reproduction of
//! *"Distributed Online Service Coordination Using Deep Reinforcement
//! Learning"* (Schneider, Qarawlus, Karl — IEEE ICDCS 2021).
//!
//! See the `README.md` for a tour and `examples/` for runnable scenarios.

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub use dosco_baselines as baselines;
pub use dosco_chaos as chaos;
pub use dosco_core as core;
pub use dosco_ctl as ctl;
pub use dosco_net as net;
pub use dosco_nn as nn;
pub use dosco_obs as obs;
pub use dosco_rl as rl;
pub use dosco_runtime as runtime;
pub use dosco_serve as serve;
pub use dosco_simnet as simnet;
pub use dosco_topology as topology;
pub use dosco_traffic as traffic;

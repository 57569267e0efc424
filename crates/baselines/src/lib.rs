//! The compared algorithms from the paper's evaluation (Sec. V-A3):
//!
//! - [`sp::ShortestPath`] — the greedy "SP" baseline that processes every
//!   flow along the shortest path from ingress to egress,
//! - [`gcasp::Gcasp`] — a reimplementation of the fully distributed
//!   heuristic of ref \[11\] ("every node for itself"): local-first
//!   processing, shortest-path orientation, dynamic rerouting around
//!   saturated nodes and links,
//! - [`central`] — the centralized DRL approach of ref \[10\]: a single
//!   agent observing *delayed* global monitoring snapshots, periodically
//!   emitting coarse forwarding/placement rules that all flows follow
//!   along shortest paths, trained with DDPG.
//!
//! All three implement [`dosco_simnet::Coordinator`] and run on the same
//! simulator and scenarios as the distributed DRL approach.

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]
#![warn(missing_debug_implementations)]

pub mod central;
pub mod gcasp;
pub mod sp;

pub use central::{train_central, CentralConfig, CentralPolicy, CentralizedCoordinator};
pub use gcasp::Gcasp;
pub use sp::{sp_action, ShortestPath};

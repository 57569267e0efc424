//! Actor–learner training runtime: channel-based experience transport and
//! versioned policy hand-off.
//!
//! The paper trains one logically centralized network over experience
//! pooled from many per-node agents (Sec. IV-C1). Following the dataflow
//! designs of MSRL (Zhu et al., 2022) and SRL (Mei et al., 2023), this
//! crate puts explicit channel boundaries between collection and learning:
//!
//! - one **rollout actor** owns the parallel environments and ships each
//!   completed [`dosco_rl::rollout::Rollout`] with the agent's RNG over a
//!   [`dosco_net`] transport channel;
//! - one **learner** runs the A2C/ACKTR/PPO update via the [`Learner`]
//!   trait and hands the versioned [`PolicySnapshot`] and the RNG back.
//!
//! The two run in lockstep, so a run is **bit-identical** to the serial
//! training loop (proven by test) whether the channels are in-process or
//! loopback TCP. An overlapped mode
//! existed once and lost to lockstep in every measured configuration: the
//! learner dominates the cycle, so overlapping collection buys little.
//!
//! Shutdown is graceful: the learner drops the reply channel, drains the
//! experience channel, joins the actor, restores the agent RNG, and
//! re-raises any actor panic. [`RuntimeReport`] surfaces the runtime
//! counters (batches produced/consumed/in-flight, snapshots published,
//! channel wait times) for the bench plumbing. A serving run receives a
//! [`PolicySnapshot`] through `dosco_serve`'s hub, not through this crate.

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![warn(missing_debug_implementations)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]
#![cfg_attr(not(test), deny(clippy::expect_used))]

pub mod config;
pub mod counters;
pub mod driver;
pub mod snapshot;
pub mod wire;

pub use config::RuntimeConfig;
pub use counters::RuntimeReport;
pub use dosco_rl::learner::{CollectParams, Learner};
pub use driver::{train, train_with_transport, RuntimeOutcome};
pub use snapshot::PolicySnapshot;
pub use wire::{ExperienceBatch, SyncReply};

//! Actor–learner training runtime: channel-based experience transport and
//! versioned policy broadcast.
//!
//! The paper trains one logically centralized network over experience
//! pooled from many per-node agents (Sec. IV-C1), but a serial
//! `RolloutCollector::collect` → update cycle never overlaps collection
//! with learning. Following the dataflow designs of MSRL (Zhu et al.,
//! 2022) and SRL (Mei et al., 2023), this crate decouples the two behind
//! explicit channel boundaries:
//!
//! - N **rollout actors**, each owning a shard of the parallel
//!   environments, stream completed [`dosco_rl::rollout::Rollout`] batches
//!   over a bounded MPSC channel (`crossbeam::channel::bounded`) — the
//!   channel capacity is the backpressure knob;
//! - one **learner** aggregates batches into minibatches, runs the
//!   A2C/ACKTR/PPO update via the [`Learner`] trait, and publishes
//!   versioned [`PolicySnapshot`]s through a shared [`snapshot`] slot that
//!   actors pick up at batch boundaries;
//! - a configurable **staleness bound** ([`RuntimeConfig::max_staleness`])
//!   limits how far a batch's collection policy may lag behind the learner,
//!   enforced by a stale-synchronous-parallel clock gate over the actors.
//!
//! Two modes ([`Mode`]):
//!
//! - [`Mode::Sync`]: one actor in lockstep with the learner, circulating
//!   the agent's RNG with each batch — **bit-identical** to the serial
//!   training loop (proven by test);
//! - [`Mode::Async`]: overlapped collection and learning for throughput,
//!   with per-actor RNG streams and bounded policy staleness.
//!
//! Shutdown is graceful in both modes: the learner closes the policy slot
//! and clock gate, drains the experience channel, joins every actor, and
//! re-raises any actor panic. [`RuntimeReport`] surfaces the runtime
//! counters (batches produced/consumed/in-flight, snapshots published,
//! staleness statistics, channel-full stalls) for the bench plumbing.

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![warn(missing_debug_implementations)]

pub mod config;
pub mod counters;
pub mod driver;
pub mod remote;
pub mod snapshot;
pub mod wire;

pub use config::{Mode, RuntimeConfig};
pub use counters::RuntimeReport;
pub use driver::{train, train_cancellable, train_with_transport, RuntimeOutcome};
pub use dosco_rl::learner::{CollectParams, Learner};
pub use remote::{run_actor, run_learner_server, LearnerServer};
pub use snapshot::{PolicySlot, PolicySnapshot, SlotInfo};
pub use wire::{ActorCtrl, ExperienceBatch, LearnerHello, SyncReply};

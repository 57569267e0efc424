//! Sharded serving fabric for trained coordination policies — the
//! deployment phase of the paper (Fig. 4b) built as a real inference
//! plane rather than an in-process loop.
//!
//! [`DistributedAgents`](dosco_core::DistributedAgents) answers one
//! decision at a time with one un-batched MLP forward per decision. This
//! crate partitions the topology's nodes across worker **shards**, each a
//! thread of the serving process behind a bounded in-process mailbox (the
//! vendored crossbeam channels); a frontend
//! drives many concurrent episodes — the serving load — and each shard
//! batches the decision requests queued at its mailbox into matrix
//! forwards, handing half of the rows left at an epoch's barrier to the
//! frontend's otherwise idle thread. Three properties make it
//! production-shaped:
//!
//! - **Policy hot-swap** ([`fabric`]): the fabric subscribes to the
//!   training runtime's versioned
//!   [`PolicySlot`](dosco_runtime::PolicySlot), the one door for a
//!   fabric-wide publish. The frontend polls the slot version at every
//!   epoch boundary and broadcasts the new weights to all shards at that
//!   boundary, so every shard switches at the same epoch and version
//!   accounting stays exact ([`ServeReport::decisions_by_version`]).
//!   A [`ControlQueue`] lands a snapshot on a subset of shards (canary,
//!   rollback) through the same boundary swap.
//! - **Graceful degradation** ([`fault`]): a shard is down when an
//!   epoch-scripted window kills it or when it is written off (its thread
//!   ended, broke the protocol or left a barrier unanswered). Decisions for its nodes fall back to the [`dosco_baselines`]
//!   shortest-path coordinator — a killed shard until its window ends
//!   and it respawns on the latest snapshot published to it — and every
//!   decision is counted as batched or fallback, never silently lost
//!   ([`ServeReport::conserved`]).
//! - **Determinism contract**: per-node RNG streams
//!   ([`dosco_core::per_node_seed`]) live with the shard that owns the
//!   node, and batches are ordered by a globally monotonic request id.
//!   A 1-shard run is bit-identical to an N-shard run, and a greedy
//!   1-episode run is bit-identical to the in-process
//!   `DistributedAgents` deployment (proven by test). The keystone is
//!   that a B-row batched forward is bitwise identical to B single-row
//!   forwards (property-tested in `dosco_nn`).
//!
//! Everything is instrumented through `dosco_obs`: queue-depth gauges,
//! a batch-size histogram, per-decision latency spans (`DOSCO_SPANS=1`),
//! and fallback/swap counters.

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]
#![cfg_attr(not(test), deny(clippy::expect_used))]
#![warn(missing_debug_implementations)]

pub mod control;
pub mod fabric;
pub mod fault;
mod shard;
pub mod status;

pub use control::{ControlQueue, PublishCmd};
pub use fabric::{serve, serve_with, ServeConfig, ServeOutcome, ServeReport, GATHER_STALL};
pub use fault::FaultScript;
pub use status::{FabricStatus, StatusBoard};

//! Sharded serving fabric for trained coordination policies — the
//! deployment phase of the paper (Fig. 4b) built as a real inference
//! plane rather than an in-process loop.
//!
//! [`DistributedAgents`](dosco_core::DistributedAgents) answers one
//! decision at a time with one un-batched MLP forward per decision. This
//! crate partitions the topology's nodes across worker **shards**
//! (bounded mailboxes over the vendored crossbeam channels); a frontend
//! drives many concurrent episodes — the serving load — and each shard
//! batches the decision requests queued at its mailbox into a *single*
//! matrix forward per epoch. Three properties make it production-shaped:
//!
//! - **Policy hot-swap** ([`fabric`]): the fabric subscribes to the
//!   training runtime's versioned
//!   [`PolicySlot`](dosco_runtime::PolicySlot). The frontend polls the
//!   slot version at every epoch boundary and broadcasts the new weights
//!   to all shards at that boundary, so every shard switches at the same
//!   epoch and version accounting stays exact
//!   ([`ServeReport::decisions_by_version`]).
//! - **Graceful degradation** ([`fault`]): an epoch-scripted fault hook
//!   kills or delays a shard. Decisions for its nodes fall back to the
//!   [`dosco_baselines`] shortest-path coordinator until the shard
//!   recovers and re-syncs to the latest published snapshot — every
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
#![warn(missing_debug_implementations)]

pub mod control;
pub mod fabric;
pub mod fault;
pub mod remote;
pub mod shard;
pub mod status;

pub use control::{ControlQueue, PublishCmd, PublishScope};
pub use fabric::{serve, serve_with, ServeConfig, ServeOutcome, ServeReport, GATHER_STALL};
pub use fault::{FaultKind, FaultScript, FaultWindow};
pub use remote::{run_remote_shard, FrontendServer, ShardInit};
pub use shard::{shard_of, DecisionRequest, DecisionResponse, ShardMsg};
pub use status::{FabricStatus, StatusBoard};

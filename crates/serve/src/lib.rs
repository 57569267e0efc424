//! Serving fabric for trained coordination policies — the deployment
//! phase of the paper (Fig. 4b) built as a real inference plane rather
//! than an in-process loop.
//!
//! [`DistributedAgents`](dosco_core::DistributedAgents) answers one
//! decision at a time with one un-batched MLP forward per decision. This
//! crate drives many concurrent episodes — the serving load — through
//! one epoch loop ([`fabric`]): each epoch observes every episode's next
//! decision into stacked rows, runs one batched forward per policy in
//! use (the back half of a batch on the call's helper thread while a
//! core is free for it), and chooses and applies every action in
//! episode order. The topology's nodes are partitioned into node groups
//! (the report's *shards*), each with its own policy version and up/down
//! state. Three properties make it production-shaped:
//!
//! - **Policy hot-swap**: the fabric subscribes to the training runtime's
//!   versioned [`PolicySlot`](dosco_runtime::PolicySlot), the one door
//!   for a fabric-wide publish. The loop polls the slot version at every
//!   epoch boundary, so every group switches at the same epoch and
//!   version accounting stays exact
//!   ([`ServeReport::decisions_by_version`]). A [`ControlQueue`] lands a
//!   snapshot on a subset of groups (canary, rollback) through the same
//!   boundary.
//! - **Graceful degradation** ([`fault`]): a group is down while an
//!   epoch-scripted window kills it, or for good once its policy returns
//!   a non-finite logit. Decisions for its nodes fall back to the
//!   [`dosco_baselines`] shortest-path coordinator — a killed group until
//!   its window ends and it comes back on the latest snapshot published
//!   to it — and every decision is counted as batched or fallback, never
//!   silently lost ([`ServeReport::conserved`]).
//! - **Determinism contract**: per-node RNG streams
//!   ([`dosco_core::per_node_seed`]) are drawn in episode order, the
//!   order a lockstep deployment decides in. A 1-group run is
//!   bit-identical to an N-group run, and a greedy 1-episode run is
//!   bit-identical to the in-process `DistributedAgents` deployment
//!   (proven by test). The keystone is that a B-row batched forward is
//!   bitwise identical to B single-row forwards (property-tested in
//!   `dosco_nn`), whichever thread runs which rows.
//!
//! Everything is instrumented through `dosco_obs`: batch-depth gauges,
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
mod helper;
pub mod status;

pub use control::{ControlQueue, PublishCmd};
pub use fabric::{serve, serve_with, ServeConfig, ServeOutcome, ServeReport};
pub use fault::FaultScript;
pub use status::{FabricStatus, StatusBoard};

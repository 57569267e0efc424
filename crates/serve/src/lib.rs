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
//! - **Policy hot-swap** ([`hub`]): a [`PolicySlot`] is the one door for
//!   a snapshot into a run. [`PolicySlot::publish`] lands one on every
//!   group (following a learner, promoting a canary) and
//!   [`PolicySlot::publish_to`] on a subset (a canary, its rollback).
//!   Both land at the next epoch boundary, the directed ones after the
//!   broadcast, so groups switch at an epoch and version accounting
//!   stays exact ([`ServeReport::decisions_by_version`]).
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

pub mod fabric;
pub mod fault;
mod helper;
pub mod hub;
pub mod status;

pub use dosco_runtime::PolicySnapshot;
pub use fabric::{serve, serve_with, ServeConfig, ServeOutcome, ServeReport};
pub use fault::FaultScript;
pub use hub::{PolicySlot, SlotInfo};
pub use status::{FabricStatus, StatusBoard};

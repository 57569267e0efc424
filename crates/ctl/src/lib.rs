//! The coordinator / control plane for the serving fabric: everything an
//! operator touches that is *not* on the decision hot path.
//!
//! Three pillars:
//!
//! - **Ops HTTP surface** ([`http`]): a dependency-free HTTP/1.1 server
//!   on `std::net::TcpListener` (bounded worker threads, no async)
//!   exposing `GET /metrics` (the full `dosco_obs` registry as
//!   deterministic JSON), `GET /snapshot` (published policy version and
//!   registry head), `GET /shards` (the fabric's live
//!   [`FabricStatus`](dosco_serve::FabricStatus)), `GET /healthz`, and
//!   background training jobs ([`jobs`]: `POST /jobs/train`, `GET /jobs`,
//!   `POST /jobs/{id}/stop`) whose episodes fold into `/metrics`.
//! - **Versioned policy registry** ([`registry`]): an on-disk store of
//!   [`CoordinationPolicy`](dosco_core::CoordinationPolicy) artifacts
//!   with a manifest (version, parent, algorithm, checksum, creation
//!   step), an append-only promotion log, and integrity verification on
//!   every load — both the artifact's own checksummed header and the
//!   manifest's independent record must agree.
//! - **Canary lifecycle** ([`canary`]): publish a candidate snapshot to
//!   a shard subset, compare per-version decision accounting and flow
//!   metrics over an epoch window, then promote (broadcast to all
//!   shards) or roll back (republish the incumbent) — every transition
//!   delivered through the fabric's epoch-boundary swap path, so version
//!   accounting stays exact under canarying too.
//!
//! Cost model: the control plane rides entirely on what a fabric reads
//! at its epoch boundaries (the [`PolicySlot`](dosco_serve::PolicySlot)
//! hub, a [`StatusBoard`](dosco_serve::StatusBoard)); a boundary with
//! nothing published pays one atomic load for the hub and nothing per
//! decision.

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]
#![cfg_attr(not(test), deny(clippy::expect_used))]
#![warn(missing_debug_implementations)]

pub mod canary;
pub mod http;
pub mod jobs;
pub mod registry;
pub mod state;

pub use canary::{
    run_canary, CanaryConfig, CanaryDecision, CanaryOutcome, CanaryReport, CanaryStats,
    ThresholdJudge,
};
pub use http::{CtlConfig, CtlServer};
pub use jobs::{JobManager, JobView, TrainJobSpec};
pub use registry::{ArtifactMeta, PolicyRegistry, PromotionRecord};
pub use state::{CtlState, HealthResponse, ShardsResponse, SnapshotResponse};

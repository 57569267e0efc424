//! Deterministic substrate fault injection for the coordination simulator.
//!
//! Real substrate networks churn: links cut, nodes reboot, capacity
//! degrades, delay spikes. This crate makes that churn a first-class,
//! *reproducible* input to [`dosco_simnet::Simulation`]:
//!
//! * [`ChurnSchedule`] — a scripted timeline of [`ChurnAction`]s plus
//!   optional seeded stochastic generators ([`StochasticChurn`]:
//!   per-link/per-node MTBF/MTTR failure processes, capacity-degradation
//!   and delay-spike modes). [`ChurnSchedule::compile`] validates it
//!   against a concrete [`dosco_topology::Topology`] (typed
//!   [`ChurnError`]s, never panics) and expands it into the flat
//!   [`ChurnTimeline`] the simulator executes.
//! * [`resilience_report`] — reconstructs, from the simulator's event
//!   stream, the time-windowed success ratio before/during/after each
//!   fault, quantifying how a coordination policy degrades and recovers.
//!
//! Everything is deterministic: the same schedule, topology, horizon and
//! seed always compile to the same timeline (byte-identical under serde),
//! and [`ChurnSchedule::none`] compiles to the empty timeline, which the
//! simulator treats bit-identically to no churn at all.

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]
#![cfg_attr(not(test), deny(clippy::expect_used))]

pub mod report;
pub mod schedule;

pub use report::{resilience_report, FaultWindow, ResilienceReport};
pub use schedule::{ChurnError, ChurnSchedule, DegradeProcess, FailureProcess, StochasticChurn};

// Re-export the simulator-side vocabulary so downstream crates need only
// one import path for churn configuration.
pub use dosco_simnet::{ChurnAction, ChurnStats, ChurnTimeline, TransitPolicy};

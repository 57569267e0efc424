//! Discrete-event flow-level network simulator for online service
//! coordination.
//!
//! This crate is the Rust counterpart of the paper's `coord-sim` substrate
//! (Sec. IV-C3): it simulates a substrate network processing many partially
//! overlapping flows through chained service components, under the fluid
//! model of Sec. III:
//!
//! - flows arrive at ingress nodes following a configurable
//!   [`dosco_traffic::ArrivalPattern`],
//! - whenever a flow's head arrives at a node (or finishes a component), the
//!   node must decide to process it locally or forward it to a neighbor —
//!   the simulator surfaces these moments as [`DecisionPoint`]s and a
//!   [`Coordinator`] answers with an [`Action`],
//! - processing a flow occupies `r_c(λ_f)` node capacity from processing
//!   start until the flow's tail leaves the instance; forwarding occupies
//!   `λ_f` link capacity for the link traversal,
//! - capacity violations, invalid actions, and expired deadlines drop the
//!   flow; reaching the egress fully processed within the deadline is a
//!   success (objective `o_f`, Eq. 1),
//! - component instances are created implicitly by the first local
//!   processing (scaling/placement derived from scheduling, Sec. IV-A),
//!   pay a startup delay, and are reaped after an idle timeout.
//!
//! The simulator is policy-agnostic and supports both control styles:
//! *inversion of control* via [`Simulation::run`] with a [`Coordinator`]
//! (heuristics, deployed agents) and *step-wise control* via
//! [`Simulation::next_decision`] / [`Simulation::apply`] (RL training
//! loops). All activity is also reported as a stream of [`SimEvent`]s so
//! reward functions can be computed outside the simulator; [`journey`]
//! folds that stream into one record per flow (where it went, what ended
//! it), and [`metrics::WindowedStats`] into a rolling success ratio.
//!
//! Everything above is driven by one scheduler, [`EventQueue`]: a monotone
//! radix heap over the ordered bits of the `f64` clock, with O(1)
//! cancellation. Its pop order — time-ascending, FIFO among equal times —
//! is the determinism contract the golden suites pin, and it relies on the
//! one law the simulator keeps at its single scheduling door: no event is
//! scheduled in the past.
//!
//! # Example
//!
//! ```
//! use dosco_simnet::{coordinator::AlwaysLocal, ScenarioConfig, Simulation};
//!
//! let config = ScenarioConfig::paper_base(2); // Abilene, 2 ingress nodes
//! let mut sim = Simulation::new(config, 7);
//! let metrics = sim.run(&mut AlwaysLocal).clone();
//! assert!(metrics.arrived > 0);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![warn(missing_debug_implementations)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]
#![cfg_attr(not(test), deny(clippy::expect_used))]

pub mod churn;
pub mod config;
pub mod coordinator;
pub mod event;
pub mod flow;
pub mod journey;
pub mod metrics;
pub mod queue;
pub mod service;
pub mod sim;
pub mod slab;
mod substrate;

pub use churn::{ChurnAction, ChurnStats, ChurnTimeline, TransitPolicy};
pub use config::{IngressSpec, ScenarioConfig};
pub use coordinator::{Action, Coordinator, DecisionPoint, EventLog};
pub use event::{DropReason, SimEvent};
pub use flow::{Flow, FlowId, FlowKey};
pub use metrics::{Metrics, WindowedStats};
pub use queue::{EventKey, EventQueue};
pub use service::{Component, ComponentId, Service, ServiceCatalog, ServiceId};
pub use sim::Simulation;
pub use slab::{Slab, SlotKey};

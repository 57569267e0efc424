//! The decision interface between the simulator and coordination policies.

use crate::flow::FlowId;
use crate::service::ComponentId;
use crate::sim::Simulation;
use dosco_topology::NodeId;
use serde::{Deserialize, Serialize};

/// A coordination action for one flow at one node (Sec. IV-B2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Action {
    /// Process the flow locally (`a = 0`); for fully processed flows this
    /// holds the flow at the node for one time step.
    Local,
    /// Forward the flow to the node's `i`-th neighbor (`a = i + 1`), with
    /// `i` 0-based. Indices at or beyond the node's degree are *invalid*
    /// and drop the flow with a penalty.
    Forward(usize),
}

impl Action {
    /// Decodes the paper's integer action `a ∈ {0, 1, …, Δ_G}`:
    /// 0 → [`Action::Local`], `a` → [`Action::Forward`]`(a - 1)`.
    pub fn from_index(a: usize) -> Self {
        if a == 0 {
            Action::Local
        } else {
            Action::Forward(a - 1)
        }
    }
}

/// A pending coordination decision: flow `f`'s head is at node `v` at time
/// `t`, requesting component `c_f` (or `None` when fully processed), and
/// the coordinator must choose an [`Action`].
///
/// All richer context (utilizations, instances, shortest paths) is read
/// from the [`Simulation`] accessors.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DecisionPoint {
    /// The flow needing a decision.
    pub flow: FlowId,
    /// The node where the flow's head is.
    pub node: NodeId,
    /// Current simulation time.
    pub time: f64,
    /// The requested component `c_f`, or `None` if fully processed.
    pub component: Option<ComponentId>,
}

/// A coordination policy: answers every [`DecisionPoint`] with an
/// [`Action`]. Implemented by the distributed DRL agents, the heuristics,
/// and the centralized baseline.
pub trait Coordinator {
    /// Chooses the action for a pending decision. `sim` provides read-only
    /// access to all locally observable state.
    fn decide(&mut self, sim: &Simulation, dp: &DecisionPoint) -> Action;

    /// Notification hook invoked with the events generated since the last
    /// decision (before `decide`). Default: ignore.
    fn observe(&mut self, _sim: &Simulation, _events: &[crate::event::SimEvent]) {}
}

/// Wraps any coordinator and records every [`SimEvent`](crate::SimEvent)
/// the simulator streams to it, in order. [`Simulation::run`] drains the
/// event buffer into the coordinator's `observe` hook, so a full-episode
/// event trace (for resilience reports or journey reconstruction) needs a
/// recording wrapper like this one.
#[derive(Debug, Clone, Default)]
pub struct EventLog<C> {
    inner: C,
    events: Vec<crate::event::SimEvent>,
}

impl<C> EventLog<C> {
    /// Wraps `inner`, starting with an empty log.
    pub fn new(inner: C) -> Self {
        EventLog {
            inner,
            events: Vec::new(),
        }
    }

    /// All events recorded so far, in emission order.
    pub fn events(&self) -> &[crate::event::SimEvent] {
        &self.events
    }

    /// Consumes the wrapper, returning the recorded events.
    pub fn into_events(self) -> Vec<crate::event::SimEvent> {
        self.events
    }

    /// The wrapped coordinator.
    pub fn inner(&self) -> &C {
        &self.inner
    }
}

impl<C: Coordinator> Coordinator for EventLog<C> {
    fn decide(&mut self, sim: &Simulation, dp: &DecisionPoint) -> Action {
        self.inner.decide(sim, dp)
    }

    fn observe(&mut self, sim: &Simulation, events: &[crate::event::SimEvent]) {
        self.events.extend_from_slice(events);
        self.inner.observe(sim, events);
    }
}

/// Trivial coordinator processing every flow locally and holding processed
/// flows forever. Useful for tests: flows complete only if ingress ==
/// egress; otherwise they expire.
#[derive(Debug, Clone, Copy, Default)]
pub struct AlwaysLocal;

impl Coordinator for AlwaysLocal {
    fn decide(&mut self, _sim: &Simulation, _dp: &DecisionPoint) -> Action {
        Action::Local
    }
}

/// Uniform-random coordinator over the full action space `{0..Δ_G}`
/// (including invalid actions). This is the behavior of an untrained DRL
/// policy and a useful lower bound in tests.
#[derive(Debug)]
pub struct RandomCoordinator {
    rng: rand::rngs::StdRng,
}

impl RandomCoordinator {
    /// Creates a random coordinator with the given seed.
    pub fn new(seed: u64) -> Self {
        RandomCoordinator {
            rng: <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(seed),
        }
    }
}

impl Coordinator for RandomCoordinator {
    fn decide(&mut self, sim: &Simulation, _dp: &DecisionPoint) -> Action {
        use rand::Rng;
        let a = self.rng.gen_range(0..=sim.network_degree());
        Action::from_index(a)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn action_index_decoding() {
        assert_eq!(Action::from_index(0), Action::Local);
        assert_eq!(Action::from_index(1), Action::Forward(0));
        assert_eq!(Action::from_index(4), Action::Forward(3));
    }

    #[test]
    fn action_serde() {
        let a = Action::Forward(2);
        let json = serde_json::to_string(&a).unwrap();
        assert_eq!(serde_json::from_str::<Action>(&json).unwrap(), a);
    }
}

//! Per-flow journey reconstruction from the event stream.
//!
//! Aggregate metrics answer "how many flows succeeded"; journeys answer
//! *why* an individual flow succeeded or died: which nodes it visited,
//! where it was processed, how long each leg took, and what terminated
//! it. Built purely from [`SimEvent`]s, so it works with any coordinator.

use crate::event::{DropReason, SimEvent};
use crate::flow::FlowId;
use crate::service::ComponentId;
use dosco_topology::NodeId;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// One step of a flow's journey.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Leg {
    /// Processed component `component` at `node`, finishing at `time`.
    Processed {
        /// Hosting node.
        node: NodeId,
        /// The traversed component.
        component: ComponentId,
        /// Completion time of the processing.
        time: f64,
    },
    /// Forwarded from `from` to `to` at `time`.
    Forwarded {
        /// Sending node.
        from: NodeId,
        /// Receiving node.
        to: NodeId,
        /// Forwarding time.
        time: f64,
    },
    /// Held (fully processed) at `node` at `time`.
    Held {
        /// Holding node.
        node: NodeId,
        /// Hold time.
        time: f64,
    },
}

/// How a journey ended.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Outcome {
    /// Completed at the egress within the deadline.
    Completed {
        /// End-to-end delay.
        e2e_delay: f64,
    },
    /// Dropped.
    Dropped {
        /// Why.
        reason: DropReason,
        /// Node where the drop happened.
        node: NodeId,
    },
    /// Still in flight when recording stopped.
    InFlight,
}

/// The reconstructed journey of one flow.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Journey {
    /// The flow.
    pub flow: FlowId,
    /// Ingress node.
    pub ingress: NodeId,
    /// Arrival time.
    pub arrival: f64,
    /// The legs, in order.
    pub legs: Vec<Leg>,
    /// How it ended.
    pub outcome: Outcome,
}

impl Journey {
    /// Number of link traversals.
    pub fn hops(&self) -> usize {
        self.legs
            .iter()
            .filter(|l| matches!(l, Leg::Forwarded { .. }))
            .count()
    }

    /// Number of processed components.
    pub fn processings(&self) -> usize {
        self.legs
            .iter()
            .filter(|l| matches!(l, Leg::Processed { .. }))
            .count()
    }

    /// The node sequence visited (ingress first).
    pub fn path(&self) -> Vec<NodeId> {
        let mut path = vec![self.ingress];
        for leg in &self.legs {
            if let Leg::Forwarded { to, .. } = leg {
                path.push(*to);
            }
        }
        path
    }
}

/// Builds [`Journey`]s incrementally from event batches.
#[derive(Debug, Clone, Default)]
pub struct JourneyLog {
    journeys: HashMap<FlowId, Journey>,
}

impl JourneyLog {
    /// Creates an empty log.
    pub fn new() -> Self {
        JourneyLog::default()
    }

    /// Ingests a batch of events (in order).
    pub fn ingest(&mut self, events: &[SimEvent]) {
        for ev in events {
            match *ev {
                SimEvent::FlowArrived { flow, node, time } => {
                    self.journeys.insert(
                        flow,
                        Journey {
                            flow,
                            ingress: node,
                            arrival: time,
                            legs: Vec::new(),
                            outcome: Outcome::InFlight,
                        },
                    );
                }
                SimEvent::InstanceTraversed {
                    flow,
                    node,
                    component,
                    time,
                    ..
                } => {
                    if let Some(j) = self.journeys.get_mut(&flow) {
                        j.legs.push(Leg::Processed {
                            node,
                            component,
                            time,
                        });
                    }
                }
                SimEvent::Forwarded {
                    flow,
                    from,
                    to,
                    time,
                    ..
                } => {
                    if let Some(j) = self.journeys.get_mut(&flow) {
                        j.legs.push(Leg::Forwarded { from, to, time });
                    }
                }
                SimEvent::Held { flow, node, time } => {
                    if let Some(j) = self.journeys.get_mut(&flow) {
                        j.legs.push(Leg::Held { node, time });
                    }
                }
                SimEvent::FlowCompleted {
                    flow, e2e_delay, ..
                } => {
                    if let Some(j) = self.journeys.get_mut(&flow) {
                        j.outcome = Outcome::Completed { e2e_delay };
                    }
                }
                SimEvent::FlowDropped {
                    flow, reason, node, ..
                } => {
                    if let Some(j) = self.journeys.get_mut(&flow) {
                        j.outcome = Outcome::Dropped { reason, node };
                    }
                }
                SimEvent::InstanceStarted { .. }
                | SimEvent::InstanceStopped { .. }
                | SimEvent::ChurnApplied { .. } => {}
            }
        }
    }

    /// The journey of one flow, if observed.
    pub fn journey(&self, flow: FlowId) -> Option<&Journey> {
        self.journeys.get(&flow)
    }

    /// All journeys (unordered).
    pub fn iter(&self) -> impl Iterator<Item = &Journey> {
        self.journeys.values()
    }

    /// Number of recorded journeys.
    pub fn len(&self) -> usize {
        self.journeys.len()
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.journeys.is_empty()
    }

    /// Journeys that ended in a drop for `reason` (forensics).
    pub fn dropped_for(&self, reason: DropReason) -> Vec<&Journey> {
        self.journeys
            .values()
            .filter(|j| matches!(j.outcome, Outcome::Dropped { reason: r, .. } if r == reason))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ScenarioConfig;
    use crate::coordinator::Coordinator;
    use crate::sim::Simulation;
    use dosco_traffic::ArrivalPattern;

    fn run_and_log() -> (JourneyLog, crate::metrics::Metrics) {
        let cfg = ScenarioConfig::paper_base(2)
            .with_pattern(ArrivalPattern::paper_poisson())
            .with_horizon(1_000.0);
        let mut sim = Simulation::new(cfg, 4);
        let mut log = JourneyLog::new();
        let mut c = crate::coordinator::RandomCoordinator::new(7);
        let mut events = Vec::new();
        while let Some(dp) = sim.next_decision() {
            sim.drain_events_into(&mut events);
            log.ingest(&events);
            let a = c.decide(&sim, &dp);
            sim.apply(a);
        }
        sim.drain_events_into(&mut events);
        log.ingest(&events);
        (log, sim.metrics().clone())
    }

    #[test]
    fn journeys_match_metrics() {
        let (log, m) = run_and_log();
        assert_eq!(log.len() as u64, m.arrived);
        let completed = log
            .iter()
            .filter(|j| matches!(j.outcome, Outcome::Completed { .. }))
            .count() as u64;
        let dropped = log
            .iter()
            .filter(|j| matches!(j.outcome, Outcome::Dropped { .. }))
            .count() as u64;
        assert_eq!(completed, m.completed);
        assert_eq!(dropped, m.dropped_total());
        let hops: u64 = log.iter().map(|j| j.hops() as u64).sum();
        assert_eq!(hops, m.forwards);
    }

    #[test]
    fn paths_are_connected_node_sequences() {
        let (log, _) = run_and_log();
        for j in log.iter() {
            let path = j.path();
            assert_eq!(path[0], j.ingress);
            // Each consecutive pair in the path must be joined by a
            // Forwarded leg whose `from` matches the previous node.
            let mut prev = j.ingress;
            for leg in &j.legs {
                if let Leg::Forwarded { from, to, .. } = leg {
                    assert_eq!(*from, prev, "flow {} teleported", j.flow);
                    prev = *to;
                }
            }
        }
    }

    #[test]
    fn drop_forensics_filter() {
        let (log, m) = run_and_log();
        for reason in DropReason::ALL {
            assert_eq!(
                log.dropped_for(reason).len() as u64,
                m.dropped_for(reason),
                "{reason}"
            );
        }
    }

    #[test]
    fn completed_journeys_processed_full_chain() {
        let (log, _) = run_and_log();
        for j in log.iter() {
            if matches!(j.outcome, Outcome::Completed { .. }) {
                assert_eq!(j.processings(), 3, "video service has 3 components");
            }
        }
    }

    #[test]
    fn serde_round_trip() {
        let (log, _) = run_and_log();
        let j = log.iter().next().expect("at least one journey").clone();
        let json = serde_json::to_string(&j).unwrap();
        let back: Journey = serde_json::from_str(&json).unwrap();
        assert_eq!(back, j);
    }
}

//! GCASP: the fully distributed heuristic of ref \[11\]
//! ("Every node for itself: fully distributed service coordination").
//!
//! Like the distributed DRL approach, GCASP observes and controls flows
//! locally at every node. Its hand-written rules: greedily process
//! requested components at the current node when capacity allows
//! (capacity-aware local-first), otherwise forward toward the egress
//! along shortest paths, dynamically rerouting around saturated links and
//! nodes — preferring neighbors that (a) have a usable link, (b) could
//! process the flow, and (c) lie toward the egress (Sec. V-A3/V-B).

use dosco_simnet::{Action, Coordinator, DecisionPoint, FlowId, Simulation};
use dosco_topology::NodeId;
use std::collections::HashMap;

/// The GCASP coordinator.
///
/// Keeps one piece of per-flow soft state — the node the flow came from —
/// to discourage immediate ping-pong between two saturated nodes (the
/// published heuristic's TTL/blacklist mechanism, simplified).
#[derive(Debug, Clone, Default)]
pub struct Gcasp {
    prev_node: HashMap<FlowId, NodeId>,
}

impl Gcasp {
    /// Creates the GCASP coordinator.
    pub fn new() -> Self {
        Gcasp::default()
    }

    /// Ranks forwarding candidates: usable link first, then processing
    /// capacity at the neighbor, then not bouncing back, then the smallest
    /// delay to the egress. Returns the best neighbor index, if any link
    /// can carry the flow.
    fn best_neighbor(
        &self,
        sim: &Simulation,
        dp: &DecisionPoint,
        demand: f64,
        egress: NodeId,
        rate: f64,
    ) -> Option<usize> {
        let topo = sim.topology();
        let sp = sim.shortest_paths();
        let prev = self.prev_node.get(&dp.flow).copied();
        let mut best: Option<(usize, (bool, bool, f64))> = None;
        for (idx, &(n, l)) in topo.neighbors(dp.node).iter().enumerate() {
            if sim.link_free(l) < rate {
                continue; // saturated link: reroute around it
            }
            let can_process = sim.node_free(n) >= demand;
            let bounce = prev == Some(n);
            let delay = sim.link_delay(l) + sp.delay(n, egress);
            // Sort key (max-better): (can_process, !bounce, -delay).
            let key = (can_process, !bounce, -delay);
            if best
                .as_ref()
                .is_none_or(|(_, bk)| key > *bk)
            {
                best = Some((idx, key));
            }
        }
        best.map(|(idx, _)| idx)
    }
}

impl Coordinator for Gcasp {
    fn decide(&mut self, sim: &Simulation, dp: &DecisionPoint) -> Action {
        let flow = sim.flow(dp.flow).expect("decision refers to a live flow");
        let egress = flow.egress;
        let rate = flow.rate;
        if dp.component.is_some() {
            let demand = sim.requested_resources(dp.flow);
            // Local-first: grab free capacity where the flow already is.
            if sim.node_free(dp.node) >= demand {
                self.prev_node.remove(&dp.flow);
                return Action::Local;
            }
            // Otherwise search the neighborhood for compute resources.
            match self.best_neighbor(sim, dp, demand, egress, rate) {
                Some(idx) => {
                    self.prev_node.insert(dp.flow, dp.node);
                    Action::Forward(idx)
                }
                // Every outgoing link is saturated: the local (failing)
                // processing attempt is the only move left.
                None => Action::Local,
            }
        } else {
            // Fully processed: head for the egress, rerouting around
            // saturated links (demand 0 makes capacity moot).
            match self.best_neighbor(sim, dp, 0.0, egress, rate) {
                Some(idx) => {
                    self.prev_node.insert(dp.flow, dp.node);
                    Action::Forward(idx)
                }
                None => Action::Local, // hold and retry next step
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dosco_simnet::{DropReason, ScenarioConfig, Simulation};
    use dosco_traffic::ArrivalPattern;

    #[test]
    fn completes_flows_on_roomy_network() {
        let mut cfg = ScenarioConfig::paper_base(2)
            .with_pattern(ArrivalPattern::Fixed { interval: 50.0 })
            .with_horizon(2_000.0);
        cfg.topology.scale_capacities(1000.0, 1000.0);
        let mut sim = Simulation::new(cfg, 1);
        let m = sim.run(&mut Gcasp::new()).clone();
        assert!(m.completed > 0);
        assert_eq!(m.dropped_total(), 0);
    }

    #[test]
    fn never_invalid_actions() {
        let cfg = ScenarioConfig::paper_base(5)
            .with_pattern(ArrivalPattern::paper_mmpp())
            .with_horizon(2_000.0);
        let mut sim = Simulation::new(cfg, 3);
        let m = sim.run(&mut Gcasp::new()).clone();
        assert_eq!(m.dropped_for(DropReason::InvalidAction), 0);
    }

    /// GCASP's defining edge over SP: when the shortest path lacks
    /// compute, it searches elsewhere and completes more flows.
    #[test]
    fn beats_sp_when_shortest_path_lacks_compute() {
        use crate::sp::ShortestPath;
        // Base scenario with default random capacities: many nodes on the
        // shortest paths cannot host instances (cap < 1).
        let cfg = ScenarioConfig::paper_base(3)
            .with_pattern(ArrivalPattern::paper_poisson())
            .with_horizon(5_000.0);
        let run = |c: &mut dyn Coordinator| {
            let mut sim = Simulation::new(cfg.clone(), 7);
            sim.run(c).clone()
        };
        let sp = run(&mut ShortestPath::new());
        let gc = run(&mut Gcasp::new());
        assert!(
            gc.success_ratio() >= sp.success_ratio(),
            "GCASP {} should be at least SP {}",
            gc.success_ratio(),
            sp.success_ratio()
        );
    }

    /// Neighbours are ranked by the *effective* first hop, the same epoch
    /// as the shortest-path remainder: a delay spike on the nominally
    /// shorter one must flip the choice.
    #[test]
    fn ranks_neighbours_by_effective_first_hop_delay() {
        use dosco_simnet::{ChurnAction, ChurnTimeline, IngressSpec, ServiceCatalog, ServiceId};
        use dosco_topology::{LinkId, TopologyBuilder};
        use dosco_traffic::FlowProfile;
        // Diamond 0 -> {1, 2} -> 3: via 1 costs 1 + 1, via 2 costs 2 + 1.
        // The ingress has no compute, so GCASP must pick a neighbour.
        let mut b = TopologyBuilder::new("diamond");
        let v: Vec<NodeId> = [0.0, 10.0, 10.0, 10.0]
            .iter()
            .map(|&cap| b.add_node("n", cap))
            .collect();
        for (a, z, delay) in [(0, 1, 1.0), (0, 2, 2.0), (1, 3, 1.0), (2, 3, 1.0)] {
            b.add_link(v[a], v[z], delay, 10.0).unwrap();
        }
        let cfg = ScenarioConfig {
            topology: b.build().unwrap(),
            catalog: ServiceCatalog::paper_video_service(),
            ingresses: vec![IngressSpec {
                node: v[0],
                pattern: ArrivalPattern::Fixed { interval: 10.0 },
                service: ServiceId(0),
                egress: v[3],
                profile: FlowProfile::paper_default(),
            }],
            horizon: 50.0,
            hold_delay: 1.0,
            capacity_seed: 0,
        };
        let first_choice = |timeline: ChurnTimeline| {
            let mut sim = Simulation::with_churn(cfg.clone(), 1, timeline);
            let dp = sim.next_decision().expect("a flow arrives at t=10");
            assert_eq!(dp.node, v[0]);
            Gcasp::new().decide(&sim, &dp)
        };
        assert_eq!(first_choice(ChurnTimeline::none()), Action::Forward(0));
        let spike = ChurnAction::DelaySpike {
            link: LinkId(0),
            factor: 5.0,
        };
        assert_eq!(
            first_choice(ChurnTimeline::none().at(1.0, spike)),
            Action::Forward(1),
            "via 1 now costs 5 + 1, via 2 still 2 + 1"
        );
    }

    /// The bounce-avoidance memory clears once a flow processes locally.
    #[test]
    fn prev_node_state_is_bounded() {
        let cfg = ScenarioConfig::paper_base(2)
            .with_pattern(ArrivalPattern::paper_poisson())
            .with_horizon(2_000.0);
        let mut sim = Simulation::new(cfg, 5);
        let mut g = Gcasp::new();
        sim.run(&mut g);
        // Soft state never exceeds the number of flows seen.
        assert!(g.prev_node.len() as u64 <= sim.metrics().arrived);
    }
}

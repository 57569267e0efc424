//! The greedy shortest-path baseline "SP" (Sec. V-A3).
//!
//! SP tries to process all flows along the shortest path from ingress to
//! egress: process the requested component at the current node whenever
//! its free capacity allows, otherwise move on along the shortest path.
//! It neither balances load nor routes around bottlenecks, so it "relies
//! on sufficient resources along the shortest path and thus easily drops
//! flows" (Sec. V-B).

use dosco_simnet::{Action, Coordinator, DecisionPoint, Simulation};

/// The SP coordinator. Stateless: every decision is derived from the
/// precomputed shortest paths and current local capacities.
#[derive(Debug, Clone, Copy, Default)]
pub struct ShortestPath;

impl ShortestPath {
    /// Creates the SP coordinator.
    pub fn new() -> Self {
        ShortestPath
    }

    /// Index of `hop` in `node`'s neighbor list, as a forward action. A
    /// shortest-path next hop is always a neighbor; were it not, the flow
    /// would be processed in place.
    fn forward_to(
        sim: &Simulation,
        node: dosco_topology::NodeId,
        hop: dosco_topology::NodeId,
    ) -> Action {
        sim.topology()
            .neighbor_index(node, hop)
            .map_or(Action::Local, Action::Forward)
    }
}

/// One-shot SP decision without holding a coordinator: SP is stateless,
/// so a single decision can be answered from the simulation alone. This
/// is the degradation path of the `dosco_serve` fabric — when a node's
/// inference shard is down, its decisions fall back to shortest-path
/// coordination until the shard recovers.
pub fn sp_action(sim: &Simulation, dp: &DecisionPoint) -> Action {
    ShortestPath::new().decide(sim, dp)
}

impl Coordinator for ShortestPath {
    fn decide(&mut self, sim: &Simulation, dp: &DecisionPoint) -> Action {
        // The simulator decides only for live flows; a decision point
        // whose flow is gone is answered in place.
        let Some(flow) = sim.flow(dp.flow) else {
            return Action::Local;
        };
        if dp.component.is_some() {
            // Process here if the node can take it; otherwise continue
            // along the shortest path and try the next node.
            let demand = sim.requested_resources(dp.flow);
            if sim.node_free(dp.node) >= demand {
                return Action::Local;
            }
            match sim.shortest_paths().next_hop(dp.node, flow.egress) {
                Some(hop) => Self::forward_to(sim, dp.node, hop),
                // Already at the egress with no capacity left: processing
                // locally is the only (failing) option.
                None => Action::Local,
            }
        } else {
            // Fully processed: head straight to the egress.
            match sim.shortest_paths().next_hop(dp.node, flow.egress) {
                Some(hop) => Self::forward_to(sim, dp.node, hop),
                None => Action::Local, // at egress; simulator completes it
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dosco_simnet::{DropReason, ScenarioConfig, Simulation};
    use dosco_topology::NodeId;
    use dosco_traffic::ArrivalPattern;

    /// With ample capacities, SP completes every flow at the minimum
    /// possible end-to-end delay.
    #[test]
    fn completes_flows_on_roomy_network() {
        let mut cfg = ScenarioConfig::paper_base(2)
            .with_pattern(ArrivalPattern::Fixed { interval: 50.0 })
            .with_horizon(2_000.0);
        cfg.topology.scale_capacities(1000.0, 1000.0);
        let mut sim = Simulation::new(cfg, 1);
        let m = sim.run(&mut ShortestPath::new()).clone();
        assert!(m.completed > 0);
        assert_eq!(m.dropped_total(), 0);
        // e2e = 15 ms processing + path delay; v1 (NY) is one ~1.6 ms hop,
        // v2 (Chicago) ~7.4 ms: average far below the 100 ms deadline and
        // around the paper's 21 ms (Fig. 7).
        let avg = m.avg_e2e_delay().unwrap();
        assert!(avg > 15.0 && avg < 26.0, "avg e2e {avg}");
    }

    /// With tight capacity on the shortest path, SP drops instead of
    /// routing around (its defining weakness).
    #[test]
    fn drops_on_congested_shortest_path() {
        // High load (one flow per ms per ingress) so concurrent flows
        // overlap on the shared NY->DC link; plenty of compute so the
        // only bottleneck is link capacity.
        let mut cfg = ScenarioConfig::paper_base(3)
            .with_pattern(ArrivalPattern::Fixed { interval: 1.0 })
            .with_horizon(3_000.0);
        cfg.topology.scale_capacities(1000.0, 1.0);
        for l in 0..cfg.topology.num_links() {
            assert!(cfg.topology.link(dosco_topology::LinkId(l)).capacity <= 5.0);
        }
        let mut sim = Simulation::new(cfg, 1);
        let m = sim.run(&mut ShortestPath::new()).clone();
        assert!(
            m.dropped_for(DropReason::LinkCapacity) > 0,
            "expected link-capacity drops, got {m:?}"
        );
    }

    /// SP never emits invalid actions.
    #[test]
    fn never_invalid() {
        let cfg = ScenarioConfig::paper_base(5)
            .with_pattern(ArrivalPattern::paper_mmpp())
            .with_horizon(2_000.0);
        let mut sim = Simulation::new(cfg, 2);
        let m = sim.run(&mut ShortestPath::new()).clone();
        assert_eq!(m.dropped_for(DropReason::InvalidAction), 0);
    }

    /// The first flow from v1 (New York) is processed at the ingress and
    /// forwarded straight to Washington DC.
    #[test]
    fn follows_shortest_path_hops() {
        let mut cfg = ScenarioConfig::paper_base(1).with_horizon(100.0);
        cfg.topology.scale_capacities(1000.0, 1000.0);
        let mut sim = Simulation::new(cfg, 1);
        let mut sp = ShortestPath::new();
        // First decision: flow at v1 requesting FW, capacity fine -> Local.
        let dp = sim.next_decision().unwrap();
        assert_eq!(dp.node, NodeId(0));
        assert_eq!(sp.decide(&sim, &dp), Action::Local);
    }
}

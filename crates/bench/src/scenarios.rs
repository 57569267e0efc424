//! Evaluation scenario construction (Sec. V-A1).

use crate::report::bad_flag;
use dosco_simnet::ScenarioConfig;
use dosco_topology::{NodeId, Topology};
use dosco_traffic::ArrivalPattern;
use rand::SeedableRng;

/// The base scenario with `num_ingress` ingress nodes and the given
/// arrival pattern (defaults to the paper's otherwise: Abilene, video
/// service, deadline 100, egress v8).
pub fn base_scenario(num_ingress: usize, pattern: ArrivalPattern, horizon: f64) -> ScenarioConfig {
    ScenarioConfig::paper_base(num_ingress)
        .with_pattern(pattern)
        .with_horizon(horizon)
}

/// A scenario on an arbitrary topology (Sec. V-E): random capacities as in
/// the base scenario (nodes U(0,2), links U(1,5)), Poisson traffic at the
/// two lowest-id nodes (the paper's "node IDs v1 and v2"), egress `v8`,
/// the paper service, deadline 100.
///
/// # Panics
///
/// Panics if the topology has fewer than 9 nodes (needs `v8`). The
/// scenario it builds is otherwise valid by construction.
#[allow(clippy::expect_used, reason = "the documented # Panics contract")]
pub fn topology_scenario(mut topology: Topology, horizon: f64) -> ScenarioConfig {
    assert!(
        topology.num_nodes() >= 9,
        "scalability scenario needs at least 9 nodes for egress v8"
    );
    let capacity_seed = 0xD05C0;
    let mut rng = rand::rngs::StdRng::seed_from_u64(capacity_seed);
    topology.assign_random_capacities(&mut rng, (0.0, 2.0), (1.0, 5.0));
    let base = ScenarioConfig::paper_base(2);
    let mut ingresses = base.ingresses.clone();
    ingresses[0].node = NodeId(0);
    ingresses[1].node = NodeId(1);
    for ing in &mut ingresses {
        ing.egress = NodeId(7);
        ing.pattern = ArrivalPattern::paper_poisson();
    }
    let cfg = ScenarioConfig {
        topology,
        catalog: base.catalog,
        ingresses,
        horizon,
        hold_delay: 1.0,
        capacity_seed,
    };
    cfg.validate().expect("topology scenario is valid");
    cfg
}

/// A flow-churn stress scenario for the million-flow simulation core:
/// **every** node is an ingress emitting a flow each `interval` time
/// units toward the node two ids over (`(v + 2) mod n`), and the single
/// service component pins each flow inside the network for `dwell` time
/// units of processing. Steady-state concurrency is therefore
/// `≈ n / interval · dwell` live flows, reached after one dwell period.
///
/// The scenario is built so nothing ever drops and no capacity math
/// interferes with the storage/scheduling measurement:
///
/// - flows have zero data rate and the component zero resource demand,
///   so node and link capacity checks always pass,
/// - the deadline is effectively infinite,
/// - the component's idle timeout is `2 · interval`, so instances stay
///   warm under periodic arrivals but still exercise the timeout-probe
///   push/cancel path whenever traffic at a node goes quiet.
///
/// Every flow still runs the full decision loop (process at the ingress,
/// then shortest-path forwards to the egress), so throughput numbers
/// measure the event queue, the flow slab, and the coordinator — not
/// drop shortcuts.
///
/// # Panics
///
/// Panics if the topology has fewer than 3 nodes. The catalog and the
/// scenario it builds are otherwise valid by construction.
#[allow(clippy::expect_used, reason = "the documented # Panics contract")]
pub fn churn_scenario(
    topology: Topology,
    interval: f64,
    dwell: f64,
    horizon: f64,
) -> ScenarioConfig {
    use dosco_simnet::service::{Component, Service, ServiceCatalog, ServiceId};
    use dosco_traffic::FlowProfile;

    let n = topology.num_nodes();
    assert!(n >= 3, "churn scenario needs at least 3 nodes, got {n}");
    let component = Component {
        name: "Churn".to_string(),
        processing_delay: dwell,
        resource_per_rate: 0.0,
        resource_fixed: 0.0,
        startup_delay: 0.0,
        idle_timeout: 2.0 * interval,
    };
    let catalog = ServiceCatalog::new(
        vec![component],
        vec![Service {
            name: "churn-chain".to_string(),
            chain: vec![dosco_simnet::service::ComponentId(0)],
        }],
    )
    .expect("single-component churn catalog is valid");
    let profile = FlowProfile::new(0.0, 1.0, 1e12);
    let ingresses = (0..n)
        .map(|v| dosco_simnet::IngressSpec {
            node: NodeId(v),
            pattern: ArrivalPattern::Fixed { interval },
            service: ServiceId(0),
            egress: NodeId((v + 2) % n),
            profile,
        })
        .collect();
    let cfg = ScenarioConfig {
        topology,
        catalog,
        ingresses,
        horizon,
        hold_delay: 1.0,
        capacity_seed: 0,
    };
    cfg.validate().expect("churn scenario is valid");
    cfg
}

/// Parses the four pattern names used on experiment CLIs; an unknown name
/// is a usage error ([`bad_flag`]: one line on stderr, exit code 2).
pub fn pattern_by_name(name: &str) -> ArrivalPattern {
    ArrivalPattern::paper_by_name(name)
        .unwrap_or_else(|| bad_flag("--pattern", "fixed|poisson|mmpp|trace", name))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dosco_topology::zoo;

    #[test]
    fn base_scenario_shape() {
        let s = base_scenario(3, ArrivalPattern::paper_poisson(), 1_000.0);
        assert_eq!(s.ingresses.len(), 3);
        assert_eq!(s.horizon, 1_000.0);
        s.validate().unwrap();
    }

    #[test]
    fn topology_scenarios_for_all_zoo_networks() {
        for topo in zoo::all() {
            let s = topology_scenario(topo, 500.0);
            s.validate().unwrap();
            assert_eq!(s.ingresses.len(), 2);
            assert_eq!(s.ingresses[0].node, NodeId(0));
            assert_eq!(s.ingresses[1].egress, NodeId(7));
        }
    }

    #[test]
    fn churn_scenario_reaches_target_concurrency() {
        use dosco_simnet::Simulation;
        // 11 nodes / interval 1 × dwell 50 ≈ 550 concurrent at steady
        // state — the same construction the million-flow report scales up.
        let cfg = churn_scenario(zoo::abilene(), 1.0, 50.0, 120.0);
        cfg.validate().unwrap();
        assert_eq!(cfg.ingresses.len(), 11);
        let mut sim = Simulation::new(cfg, 1);
        sim.run(&mut dosco_baselines::ShortestPath::new());
        let m = sim.metrics();
        assert_eq!(m.dropped.values().sum::<u64>(), 0, "churn flows never drop");
        assert!(
            sim.peak_live_flows() >= 500,
            "peak live flows {} below the n/interval*dwell estimate",
            sim.peak_live_flows()
        );
        assert!(m.completed > 0);
    }
}

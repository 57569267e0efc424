//! Simulator corner cases beyond the unit tests.

use dosco_simnet::coordinator::AlwaysLocal;
use dosco_simnet::{
    Action, Component, ComponentId, Coordinator, DropReason, IngressSpec, ScenarioConfig, Service,
    ServiceCatalog, ServiceId, Simulation,
};
use dosco_topology::{generators, NodeId};
use dosco_traffic::{ArrivalPattern, FlowProfile};

fn single_component_scenario(ingress: NodeId, egress: NodeId) -> ScenarioConfig {
    let mut topology = generators::line(3, 1.0, 10.0);
    topology.scale_capacities(10.0, 1.0);
    let catalog = ServiceCatalog::new(
        vec![Component::paper_default("c")],
        vec![Service {
            name: "s".into(),
            chain: vec![ComponentId(0)],
        }],
    )
    .unwrap();
    ScenarioConfig {
        topology,
        catalog,
        ingresses: vec![IngressSpec {
            node: ingress,
            pattern: ArrivalPattern::Fixed { interval: 20.0 },
            service: ServiceId(0),
            egress,
            profile: FlowProfile::new(1.0, 1.0, 100.0),
        }],
        horizon: 200.0,
        hold_delay: 1.0,
        capacity_seed: 0,
    }
}

#[test]
fn ingress_equals_egress_completes_in_place() {
    // Flow arrives at its egress: processing locally then the simulator
    // auto-completes without any forwarding.
    let cfg = single_component_scenario(NodeId(1), NodeId(1));
    let mut sim = Simulation::new(cfg, 1);
    let m = sim.run(&mut AlwaysLocal).clone();
    assert!(m.completed > 0);
    assert_eq!(m.forwards, 0);
    assert_eq!(m.dropped_total(), 0);
    // e2e = exactly the 5 ms processing delay.
    assert!((m.avg_e2e_delay().unwrap() - 5.0).abs() < 1e-9);
}

#[test]
fn flow_processed_at_egress_after_arrival() {
    // Egress nodes are ordinary nodes: a flow still needing its component
    // when reaching the egress processes there, then completes.
    struct ForwardThenLocal;
    impl Coordinator for ForwardThenLocal {
        fn decide(&mut self, _sim: &Simulation, dp: &dosco_simnet::DecisionPoint) -> Action {
            if dp.component.is_some() && dp.node != NodeId(2) {
                // Push unprocessed flows toward the egress first.
                Action::Forward(if dp.node == NodeId(0) { 0 } else { 1 })
            } else {
                Action::Local
            }
        }
    }
    let cfg = single_component_scenario(NodeId(0), NodeId(2));
    let mut sim = Simulation::new(cfg, 1);
    let m = sim.run(&mut ForwardThenLocal).clone();
    assert!(m.completed > 0);
    // Processing happened at the egress: 2 hops + 5 ms processing.
    assert!((m.avg_e2e_delay().unwrap() - 7.0).abs() < 1e-9);
}

#[test]
fn zero_rate_flow_needs_no_capacity() {
    let mut cfg = single_component_scenario(NodeId(0), NodeId(0));
    cfg.ingresses[0].profile = FlowProfile::new(0.0, 1.0, 100.0);
    // Even a zero-capacity node can process a zero-rate flow.
    cfg.topology.scale_capacities(0.0, 1.0);
    let mut sim = Simulation::new(cfg, 1);
    let m = sim.run(&mut AlwaysLocal).clone();
    assert!(m.completed > 0);
    assert_eq!(m.dropped_for(DropReason::NodeCapacity), 0);
}

#[test]
fn hold_delay_governs_requery_cadence() {
    // A fully processed flow held at a non-egress node is re-queried
    // every `hold_delay`; with deadline 100 and hold 5, that's ~19 holds
    // before expiry.
    let mut cfg = single_component_scenario(NodeId(0), NodeId(2));
    cfg.hold_delay = 5.0;
    cfg.horizon = 150.0;
    let mut sim = Simulation::new(cfg, 1);
    let m = sim.run(&mut AlwaysLocal).clone();
    assert_eq!(m.completed, 0);
    assert!(m.dropped_for(DropReason::DeadlineExpired) >= 1);
    // The first flow (arrives t=20, processed by t=25, expires t=120)
    // alone is held (120-25)/5 = 19 times; later flows add more. With
    // hold_delay 1.0 the count would be ~5x higher.
    assert!(m.holds >= 19, "{} holds", m.holds);
    assert!(m.holds <= 120, "{} holds (cadence too fine?)", m.holds);
}

#[test]
fn flows_expire_even_when_never_queried_again() {
    // A flow forwarded into a dead end (degree-1 leaf with no capacity)
    // still terminates by deadline expiry at its next decision.
    let mut cfg = single_component_scenario(NodeId(0), NodeId(2));
    cfg.topology.scale_capacities(0.0, 1.0); // no node can process
    cfg.horizon = 300.0;
    let mut sim = Simulation::new(cfg, 1);
    let m = sim.run(&mut AlwaysLocal).clone();
    // AlwaysLocal on a capacity-less node -> immediate node-capacity drop.
    assert_eq!(m.completed, 0);
    assert!(m.dropped_for(DropReason::NodeCapacity) > 0);
}

#[test]
fn long_duration_flows_saturate_links() {
    // Duration 50 ≫ inter-arrival 20: overlapping flows exceed the
    // link capacity of 1 and drop.
    struct AlwaysForward;
    impl Coordinator for AlwaysForward {
        fn decide(&mut self, _sim: &Simulation, dp: &dosco_simnet::DecisionPoint) -> Action {
            if dp.node == NodeId(0) {
                Action::Forward(0)
            } else {
                Action::Local
            }
        }
    }
    let mut cfg = single_component_scenario(NodeId(0), NodeId(2));
    cfg.ingresses[0].profile = FlowProfile::new(1.0, 50.0, 100.0);
    cfg.topology.scale_capacities(10.0, 0.1); // link caps 0.1*10 = 1.0
    let mut sim = Simulation::new(cfg, 1);
    let m = sim.run(&mut AlwaysForward).clone();
    assert!(
        m.dropped_for(DropReason::LinkCapacity) > 0,
        "overlapping long flows must exceed the unit link: {m:?}"
    );
}

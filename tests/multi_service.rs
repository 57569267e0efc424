//! Multi-service scenarios: the paper focuses its evaluation on one
//! service "for simplicity" but states the approach was "successfully
//! tested with multiple services" — these tests exercise that path across
//! the workspace.

use dosco::baselines::Gcasp;
use dosco::core::observe::ObservationAdapter;
use dosco::simnet::{
    Action, Component, ComponentId, Coordinator, IngressSpec, ScenarioConfig, Service,
    ServiceCatalog, ServiceId, Simulation,
};
use dosco::topology::zoo;
use dosco::traffic::{ArrivalPattern, FlowProfile};

/// Two services over a shared component pool: video (FW→IDS→Video) and a
/// short web service (FW→Cache).
fn two_service_catalog() -> ServiceCatalog {
    let components = vec![
        Component::paper_default("FW"),
        Component::paper_default("IDS"),
        Component::paper_default("Video"),
        Component {
            name: "Cache".into(),
            processing_delay: 2.0,
            ..Component::paper_default("Cache")
        },
    ];
    let services = vec![
        Service {
            name: "video".into(),
            chain: vec![ComponentId(0), ComponentId(1), ComponentId(2)],
        },
        Service {
            name: "web".into(),
            chain: vec![ComponentId(0), ComponentId(3)],
        },
    ];
    ServiceCatalog::new(components, services).unwrap()
}

fn two_service_scenario() -> ScenarioConfig {
    let mut base = ScenarioConfig::paper_base(2);
    base.catalog = two_service_catalog();
    base.ingresses = vec![
        IngressSpec {
            node: zoo::ABILENE_INGRESS[0],
            pattern: ArrivalPattern::paper_poisson(),
            service: ServiceId(0),
            egress: zoo::ABILENE_EGRESS,
            profile: FlowProfile::paper_default(),
        },
        IngressSpec {
            node: zoo::ABILENE_INGRESS[1],
            pattern: ArrivalPattern::paper_poisson(),
            service: ServiceId(1),
            egress: zoo::ABILENE_EGRESS,
            profile: FlowProfile::new(1.0, 1.0, 60.0),
        },
    ];
    base.horizon = 1_500.0;
    base.validate().unwrap();
    base
}

#[test]
fn gcasp_coordinates_two_services() {
    let mut sim = Simulation::new(two_service_scenario(), 5);
    let m = sim.run(&mut Gcasp::new()).clone();
    assert!(m.arrived > 100);
    assert!(m.completed > 0, "some flows of both services must complete");
    assert_eq!(m.arrived, m.completed + m.dropped_total() + m.in_flight());
}

#[test]
fn flows_of_different_services_have_different_chain_lengths() {
    let mut sim = Simulation::new(two_service_scenario(), 5);
    let mut seen = std::collections::HashSet::new();
    let mut g = Gcasp::new();
    while let Some(dp) = sim.next_decision() {
        if let Some(f) = sim.flow(dp.flow) {
            seen.insert((f.service, f.chain_len));
        }
        let a = g.decide(&sim, &dp);
        sim.apply(a);
        if seen.len() == 2 {
            break;
        }
    }
    assert!(seen.contains(&(ServiceId(0), 3)));
    assert!(seen.contains(&(ServiceId(1), 2)));
}

#[test]
fn observations_track_the_requested_component_per_service() {
    // The X (instance availability) slice must follow the *flow's own*
    // requested component: a placed Cache instance is visible to web
    // flows but not to video flows requesting IDS.
    let mut scenario = two_service_scenario();
    scenario.topology.scale_capacities(100.0, 1.0);
    let mut sim = Simulation::new(scenario, 5);
    let adapter = ObservationAdapter::new(sim.network_degree());
    let deg = adapter.degree();
    let x_self = 2 + deg + (deg + 1) + deg;
    let mut checked = 0;
    while let Some(dp) = sim.next_decision() {
        let obs = adapter.observe(&sim, &dp);
        if let Some(c) = dp.component {
            let expect = if sim.has_instance(dp.node, c) {
                1.0
            } else {
                0.0
            };
            assert_eq!(obs[x_self], expect);
            checked += 1;
        }
        sim.apply(Action::Local);
        if checked > 200 {
            break;
        }
    }
    assert!(checked > 50);
}

#[test]
fn catalog_reports_per_service_processing_delays() {
    let cat = two_service_catalog();
    assert_eq!(cat.total_processing_delay(ServiceId(0)), 15.0);
    assert_eq!(cat.total_processing_delay(ServiceId(1)), 7.0);
    assert_eq!(cat.num_components(), 4);
    assert_eq!(cat.num_services(), 2);
}

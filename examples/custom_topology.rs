//! Coordinating services on a custom network: build a topology by hand
//! (or load a Topology Zoo GraphML file), define a bespoke service chain,
//! and watch the simulator's event stream while a heuristic coordinates.
//!
//! ```text
//! cargo run --release --example custom_topology
//! ```

use dosco::baselines::Gcasp;
use dosco::simnet::{
    Component, ComponentId, IngressSpec, ScenarioConfig, Service, ServiceCatalog, ServiceId,
    SimEvent, Simulation,
};
use dosco::topology::TopologyBuilder;
use dosco::traffic::{ArrivalPattern, FlowProfile};

fn main() {
    // A small metro network: two access sites, two aggregation sites, one
    // core data center. Delays from geography, capacities hand-assigned.
    let mut b = TopologyBuilder::new("metro");
    let access_a = b.add_node_at("access-a", 0.5, 52.52, 13.40); // Berlin
    let access_b = b.add_node_at("access-b", 0.5, 52.40, 13.07); // Potsdam
    let agg_1 = b.add_node_at("agg-1", 2.0, 52.48, 13.37);
    let agg_2 = b.add_node_at("agg-2", 2.0, 52.45, 13.29);
    let core = b.add_node_at("core-dc", 8.0, 52.46, 13.52);
    for (x, y, cap) in [
        (access_a, agg_1, 4.0),
        (access_b, agg_2, 4.0),
        (agg_1, agg_2, 6.0),
        (agg_1, core, 10.0),
        (agg_2, core, 10.0),
    ] {
        b.add_link_geo(x, y, cap, 5.0).expect("valid link");
    }
    let topology = b.build().expect("valid topology");

    // A two-component service: lightweight firewall at the edge, heavy
    // transcoder that only the bigger sites can host.
    let catalog = ServiceCatalog::new(
        vec![
            Component {
                name: "edge-fw".into(),
                processing_delay: 1.0,
                resource_per_rate: 0.2,
                resource_fixed: 0.0,
                startup_delay: 0.5,
                idle_timeout: 50.0,
            },
            Component {
                name: "transcoder".into(),
                processing_delay: 8.0,
                resource_per_rate: 1.5,
                resource_fixed: 0.0,
                startup_delay: 2.0,
                idle_timeout: 100.0,
            },
        ],
        vec![Service {
            name: "secured-streaming".into(),
            chain: vec![ComponentId(0), ComponentId(1)],
        }],
    )
    .expect("valid catalog");

    let scenario = ScenarioConfig {
        topology,
        catalog,
        ingresses: vec![
            IngressSpec {
                node: access_a,
                pattern: ArrivalPattern::Poisson { mean: 8.0 },
                service: ServiceId(0),
                egress: core,
                profile: FlowProfile::new(1.0, 2.0, 60.0),
            },
            IngressSpec {
                node: access_b,
                pattern: ArrivalPattern::Mmpp {
                    mean0: 12.0,
                    mean1: 4.0,
                    period: 50.0,
                    prob: 0.1,
                },
                service: ServiceId(0),
                egress: core,
                profile: FlowProfile::new(1.0, 2.0, 60.0),
            },
        ],
        horizon: 500.0,
        hold_delay: 1.0,
        capacity_seed: 0,
    };
    scenario.validate().expect("consistent scenario");

    // Run under the GCASP heuristic and narrate the event stream.
    let mut sim = Simulation::new(scenario, 11);
    let mut gcasp = Gcasp::new();
    let mut printed = 0;
    let mut events = Vec::new();
    loop {
        sim.drain_events_into(&mut events);
        for ev in events.drain(..) {
            if printed < 25 {
                match ev {
                    SimEvent::FlowArrived { flow, node, time } => {
                        println!("[{time:7.2} ms] {flow} arrived at {node}");
                    }
                    SimEvent::InstanceStarted {
                        node,
                        component,
                        time,
                    } => {
                        println!("[{time:7.2} ms] instance of {component} placed at {node}");
                    }
                    SimEvent::InstanceTraversed {
                        flow,
                        node,
                        component,
                        ..
                    } => {
                        println!("             {flow} processed {component} at {node}");
                    }
                    SimEvent::FlowCompleted {
                        flow,
                        e2e_delay,
                        time,
                        ..
                    } => {
                        println!("[{time:7.2} ms] {flow} completed, e2e {e2e_delay:.2} ms");
                    }
                    SimEvent::FlowDropped {
                        flow, reason, time, ..
                    } => {
                        println!("[{time:7.2} ms] {flow} dropped ({reason})");
                    }
                    _ => continue,
                }
                printed += 1;
            }
        }
        use dosco::simnet::Coordinator;
        let Some(dp) = sim.next_decision() else { break };
        let action = gcasp.decide(&sim, &dp);
        sim.apply(action);
    }

    let m = sim.metrics();
    println!(
        "\nepisode done: {} arrived, {} completed, {} dropped, success ratio {:.3}",
        m.arrived,
        m.completed,
        m.dropped_total(),
        m.success_ratio()
    );
    println!(
        "instances started: {}, stopped after idling: {}",
        m.instances_started, m.instances_stopped
    );
}

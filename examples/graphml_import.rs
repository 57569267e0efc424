//! Load a real Internet Topology Zoo GraphML file (if you have one) or
//! fall back to an embedded sample, then run the full coordination
//! pipeline on it.
//!
//! ```text
//! cargo run --release --example graphml_import -- [path/to/topology.graphml]
//! ```

use dosco::baselines::{Gcasp, ShortestPath};
use dosco::simnet::{Coordinator, Simulation};
use dosco::topology::{graphml, stats::TopologyRow};
use rand::SeedableRng;

/// A miniature Topology-Zoo-style document (a slice of Abilene) used when
/// no file is given on the command line.
const SAMPLE: &str = r#"<?xml version="1.0" encoding="utf-8"?>
<graphml xmlns="http://graphml.graphdrawing.org/xmlns">
  <key attr.name="Latitude" attr.type="double" for="node" id="d29"/>
  <key attr.name="Longitude" attr.type="double" for="node" id="d32"/>
  <key attr.name="label" attr.type="string" for="node" id="d33"/>
  <graph edgedefault="undirected">
    <node id="0"><data key="d29">40.71</data><data key="d32">-74.01</data><data key="d33">NewYork</data></node>
    <node id="1"><data key="d29">41.88</data><data key="d32">-87.63</data><data key="d33">Chicago</data></node>
    <node id="2"><data key="d29">38.91</data><data key="d32">-77.04</data><data key="d33">WashingtonDC</data></node>
    <node id="3"><data key="d29">33.75</data><data key="d32">-84.39</data><data key="d33">Atlanta</data></node>
    <node id="4"><data key="d29">39.77</data><data key="d32">-86.16</data><data key="d33">Indianapolis</data></node>
    <node id="5"><data key="d29">39.10</data><data key="d32">-94.58</data><data key="d33">KansasCity</data></node>
    <node id="6"><data key="d29">29.76</data><data key="d32">-95.37</data><data key="d33">Houston</data></node>
    <node id="7"><data key="d29">39.74</data><data key="d32">-104.99</data><data key="d33">Denver</data></node>
    <node id="8"><data key="d29">47.61</data><data key="d32">-122.33</data><data key="d33">Seattle</data></node>
    <edge source="0" target="1"/>
    <edge source="0" target="2"/>
    <edge source="1" target="4"/>
    <edge source="2" target="3"/>
    <edge source="3" target="4"/>
    <edge source="3" target="6"/>
    <edge source="4" target="5"/>
    <edge source="5" target="6"/>
    <edge source="5" target="7"/>
    <edge source="7" target="8"/>
  </graph>
</graphml>"#;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let (xml, name) = match args.get(1) {
        Some(path) => (
            std::fs::read_to_string(path).expect("readable GraphML file"),
            path.clone(),
        ),
        None => (SAMPLE.to_string(), "embedded sample".to_string()),
    };
    let mut topology = graphml::parse(&xml, &name).expect("valid GraphML");
    println!("loaded {}", TopologyRow::of(&topology));

    // Assign the paper's random capacities and build the base workload.
    let mut rng = rand::rngs::StdRng::seed_from_u64(1);
    topology.assign_random_capacities(&mut rng, (0.5, 2.0), (1.0, 5.0));
    let scenario = dosco_bench_like_scenario(topology);

    for (label, coordinator) in [
        ("GCASP", Box::new(Gcasp::new()) as Box<dyn Coordinator>),
        ("SP", Box::new(ShortestPath::new())),
    ] {
        let mut c = coordinator;
        let mut sim = Simulation::new(scenario.clone(), 3);
        let m = sim.run(c.as_mut()).clone();
        println!(
            "{label:<6} success {:.3} ({} flows, avg e2e {})",
            m.success_ratio(),
            m.arrived,
            m.avg_e2e_delay()
                .map_or("-".to_string(), |d| format!("{d:.1} ms")),
        );
    }
}

/// Poisson traffic between the two lowest-degree... simply the first two
/// nodes, egress at the last node.
fn dosco_bench_like_scenario(topology: dosco::topology::Topology) -> dosco::simnet::ScenarioConfig {
    use dosco::simnet::{IngressSpec, ScenarioConfig, ServiceCatalog, ServiceId};
    use dosco::topology::NodeId;
    use dosco::traffic::{ArrivalPattern, FlowProfile};
    let egress = NodeId(topology.num_nodes() - 1);
    let scenario = ScenarioConfig {
        topology,
        catalog: ServiceCatalog::paper_video_service(),
        ingresses: vec![
            IngressSpec {
                node: NodeId(0),
                pattern: ArrivalPattern::paper_poisson(),
                service: ServiceId(0),
                egress,
                profile: FlowProfile::paper_default(),
            },
            IngressSpec {
                node: NodeId(1),
                pattern: ArrivalPattern::paper_poisson(),
                service: ServiceId(0),
                egress,
                profile: FlowProfile::paper_default(),
            },
        ],
        horizon: 3_000.0,
        hold_delay: 1.0,
        capacity_seed: 1,
    };
    scenario.validate().expect("consistent scenario");
    scenario
}

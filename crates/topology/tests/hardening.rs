//! Parser and loader hardening: malformed, degenerate, or disconnected
//! topology inputs must surface typed errors (or documented lenient
//! handling), never panic. Churn configuration compiles schedules against
//! these topologies, so a bad file has to fail loudly at load time.

use dosco_topology::graphml::{self, GraphmlError};
use dosco_topology::{zoo, NodeId, TopologyBuilder, TopologyError};

fn doc(body: &str) -> String {
    format!(
        r#"<?xml version="1.0"?>
<graphml>
  <key attr.name="Latitude" attr.type="double" for="node" id="d29"/>
  <key attr.name="Longitude" attr.type="double" for="node" id="d32"/>
  <graph edgedefault="undirected">
{body}
  </graph>
</graphml>"#
    )
}

#[test]
fn missing_coordinates_fall_back_to_default_delay() {
    // Node 1 has no coordinates at all; node 2 only a latitude. Both are
    // documented Zoo quirks: the parser keeps the node and gives its
    // links the 1 ms default delay instead of erroring or panicking.
    let xml = doc(
        r#"    <node id="0"><data key="d29">40.0</data><data key="d32">-74.0</data></node>
    <node id="1"/>
    <node id="2"><data key="d29">41.0</data></node>
    <edge source="0" target="1"/>
    <edge source="1" target="2"/>
    <edge source="0" target="2"/>"#,
    );
    let topo = graphml::parse(&xml, "partial-coords").unwrap();
    assert_eq!(topo.num_nodes(), 3);
    assert_eq!(topo.num_links(), 3);
    assert_eq!(topo.node(NodeId(1)).position, None);
    assert_eq!(
        topo.node(NodeId(2)).position,
        None,
        "lat without lon is no position"
    );
    for l in topo.links() {
        assert!(l.delay.is_finite() && l.delay > 0.0);
    }
    assert_eq!(
        topo.link(topo.link_between(NodeId(0), NodeId(1)).unwrap())
            .delay,
        1.0
    );
}

#[test]
fn duplicate_edges_and_self_loops_collapse() {
    let xml = doc(r#"    <node id="a"/>
    <node id="b"/>
    <edge source="a" target="b"/>
    <edge source="b" target="a"/>
    <edge source="a" target="b"/>
    <edge source="a" target="a"/>"#);
    let topo = graphml::parse(&xml, "dupes").unwrap();
    assert_eq!(topo.num_nodes(), 2);
    assert_eq!(
        topo.num_links(),
        1,
        "parallel edges and self-loops collapse"
    );
}

#[test]
fn edge_to_unknown_node_is_a_typed_error() {
    let xml = doc(r#"    <node id="a"/>
    <edge source="a" target="ghost"/>"#);
    let err = graphml::parse(&xml, "ghost").unwrap_err();
    assert_eq!(err, GraphmlError::UnknownNodeRef("ghost".into()));
    assert!(err.to_string().contains("ghost"));
}

#[test]
fn truncated_or_non_xml_input_is_a_typed_error() {
    for src in [
        "<graphml><graph><node id=",
        "not xml at all <",
        "<graphml></graphml>",
    ] {
        match graphml::parse(src, "bad") {
            Err(GraphmlError::Syntax(..)) | Err(GraphmlError::NoGraph) => {}
            other => panic!("{src:?} parsed to {other:?}"),
        }
    }
}

#[test]
fn empty_graph_is_a_typed_error() {
    let xml = doc("");
    let err = graphml::parse(&xml, "empty").unwrap_err();
    assert_eq!(err, GraphmlError::Topology(TopologyError::Empty));
}

#[test]
fn disconnected_zoo_file_loads_but_fails_require_connected() {
    // Two islands: {a, b} and {c, d}. Parsing succeeds (the file is
    // well-formed), but scenario loading must reject it with the typed
    // Disconnected error before a simulation ever sees it.
    let xml = doc(r#"    <node id="a"/>
    <node id="b"/>
    <node id="c"/>
    <node id="d"/>
    <edge source="a" target="b"/>
    <edge source="c" target="d"/>"#);
    let topo = graphml::parse(&xml, "islands").unwrap();
    assert!(!topo.is_connected());
    assert_eq!(topo.require_connected(), Err(TopologyError::Disconnected));
    assert_eq!(
        TopologyError::Disconnected.to_string(),
        "topology is not connected"
    );
}

#[test]
fn builder_rejects_degenerate_links_with_typed_errors() {
    let mut b = TopologyBuilder::new("t");
    let a = b.add_node("a", 1.0);
    let c = b.add_node("c", 1.0);
    assert_eq!(b.add_link(a, a, 1.0, 1.0), Err(TopologyError::SelfLoop(a)));
    assert_eq!(
        b.add_link(a, NodeId(9), 1.0, 1.0),
        Err(TopologyError::UnknownNode(NodeId(9)))
    );
    b.add_link(a, c, 1.0, 1.0).unwrap();
    assert_eq!(
        b.add_link(c, a, 2.0, 2.0),
        Err(TopologyError::DuplicateLink(c, a))
    );
    assert!(matches!(
        b.add_link(a, c, f64::NAN, 1.0),
        Err(TopologyError::InvalidValue(_))
    ));
}

#[test]
fn all_zoo_presets_are_connected_and_round_trip() {
    for topo in zoo::all() {
        topo.require_connected()
            .unwrap_or_else(|e| panic!("{}: {e}", topo.name()));
        let xml = graphml::write(&topo);
        let back = graphml::parse(&xml, topo.name()).unwrap();
        assert_eq!(back.num_nodes(), topo.num_nodes(), "{}", topo.name());
        assert_eq!(back.num_links(), topo.num_links(), "{}", topo.name());
        back.require_connected().unwrap();
    }
}

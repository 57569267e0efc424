//! Minimal GraphML parser for the Internet Topology Zoo subset.
//!
//! The paper's evaluation topologies come from the Internet Topology Zoo
//! [Knight et al., JSAC 2011], distributed as GraphML files. This module
//! parses exactly the subset those files use — `<key>` declarations,
//! `<node>`/`<edge>` elements, and `<data>` values for node latitude and
//! longitude — with a small hand-rolled XML tokenizer (no external XML
//! dependency). Link delays are derived from node positions at ≈5 µs/km
//! when both endpoints have coordinates, matching the paper's
//! "derive link delay from the distance between connected nodes".
//!
//! # Example
//!
//! ```
//! const SAMPLE: &str = r#"<?xml version="1.0"?>
//! <graphml>
//!   <key attr.name="Latitude" attr.type="double" for="node" id="d29"/>
//!   <key attr.name="Longitude" attr.type="double" for="node" id="d32"/>
//!   <graph edgedefault="undirected">
//!     <node id="0"><data key="d29">40.71</data><data key="d32">-74.01</data></node>
//!     <node id="1"><data key="d29">41.88</data><data key="d32">-87.63</data></node>
//!     <edge source="0" target="1"/>
//!   </graph>
//! </graphml>"#;
//!
//! let topo = dosco_topology::graphml::parse(SAMPLE, "sample")?;
//! assert_eq!(topo.num_nodes(), 2);
//! assert_eq!(topo.num_links(), 1);
//! # Ok::<(), dosco_topology::graphml::GraphmlError>(())
//! ```

use crate::generators::US_PER_KM;
use crate::graph::{NodeId, Topology, TopologyBuilder, TopologyError};
use std::collections::HashMap;
use std::fmt;

/// Errors raised while parsing GraphML.
#[derive(Debug, Clone, PartialEq)]
pub enum GraphmlError {
    /// Malformed XML at the given byte offset.
    Syntax(usize, String),
    /// An `<edge>` references an undeclared node id.
    UnknownNodeRef(String),
    /// Structural error while assembling the topology.
    Topology(TopologyError),
    /// The document contains no `<graph>` element.
    NoGraph,
}

impl fmt::Display for GraphmlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphmlError::Syntax(pos, what) => write!(f, "XML syntax error at byte {pos}: {what}"),
            GraphmlError::UnknownNodeRef(id) => write!(f, "edge references unknown node {id:?}"),
            GraphmlError::Topology(e) => write!(f, "invalid topology: {e}"),
            GraphmlError::NoGraph => write!(f, "document contains no <graph> element"),
        }
    }
}

impl std::error::Error for GraphmlError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            GraphmlError::Topology(e) => Some(e),
            _ => None,
        }
    }
}

impl From<TopologyError> for GraphmlError {
    fn from(e: TopologyError) -> Self {
        GraphmlError::Topology(e)
    }
}

/// One XML event produced by the tokenizer.
#[derive(Debug, Clone, PartialEq)]
enum Event {
    /// `<name attr=... >` — `self_closing` for `<name ... />`.
    Open {
        name: String,
        attrs: HashMap<String, String>,
        self_closing: bool,
    },
    /// `</name>`
    Close(String),
    /// Text between tags (entity-decoded, possibly whitespace).
    Text(String),
}

/// A minimal, forgiving XML tokenizer for the GraphML subset: elements,
/// attributes, text, comments, processing instructions, and DOCTYPE. No
/// namespaces, CDATA, or DTD expansion.
struct Tokenizer<'a> {
    src: &'a str,
    pos: usize,
}

impl<'a> Tokenizer<'a> {
    fn new(src: &'a str) -> Self {
        Tokenizer { src, pos: 0 }
    }

    fn rest(&self) -> &'a str {
        &self.src[self.pos..]
    }

    fn error(&self, what: impl Into<String>) -> GraphmlError {
        GraphmlError::Syntax(self.pos, what.into())
    }

    fn next_event(&mut self) -> Result<Option<Event>, GraphmlError> {
        loop {
            if self.pos >= self.src.len() {
                return Ok(None);
            }
            let rest = self.rest();
            if let Some(stripped) = rest.strip_prefix("<!--") {
                let end = stripped
                    .find("-->")
                    .ok_or_else(|| self.error("unterminated comment"))?;
                self.pos += 4 + end + 3;
                continue;
            }
            if rest.starts_with("<?") {
                let end = rest
                    .find("?>")
                    .ok_or_else(|| self.error("unterminated processing instruction"))?;
                self.pos += end + 2;
                continue;
            }
            if rest.starts_with("<!") {
                let end = rest
                    .find('>')
                    .ok_or_else(|| self.error("unterminated declaration"))?;
                self.pos += end + 1;
                continue;
            }
            if let Some(stripped) = rest.strip_prefix("</") {
                let end = stripped
                    .find('>')
                    .ok_or_else(|| self.error("unterminated closing tag"))?;
                let name = stripped[..end].trim().to_string();
                self.pos += 2 + end + 1;
                return Ok(Some(Event::Close(name)));
            }
            if rest.starts_with('<') {
                return self.parse_open_tag().map(Some);
            }
            // Text up to the next tag.
            let end = rest.find('<').unwrap_or(rest.len());
            let text = decode_entities(&rest[..end]);
            self.pos += end;
            if text.trim().is_empty() {
                continue;
            }
            return Ok(Some(Event::Text(text)));
        }
    }

    fn parse_open_tag(&mut self) -> Result<Event, GraphmlError> {
        debug_assert!(self.rest().starts_with('<'));
        self.pos += 1;
        let name = self.parse_name()?;
        let mut attrs = HashMap::new();
        loop {
            self.skip_ws();
            let rest = self.rest();
            if let Some(_stripped) = rest.strip_prefix("/>") {
                self.pos += 2;
                return Ok(Event::Open {
                    name,
                    attrs,
                    self_closing: true,
                });
            }
            if rest.starts_with('>') {
                self.pos += 1;
                return Ok(Event::Open {
                    name,
                    attrs,
                    self_closing: false,
                });
            }
            if rest.is_empty() {
                return Err(self.error("unterminated opening tag"));
            }
            let key = self.parse_name()?;
            self.skip_ws();
            if !self.rest().starts_with('=') {
                return Err(self.error(format!("expected '=' after attribute {key:?}")));
            }
            self.pos += 1;
            self.skip_ws();
            let quote = self
                .rest()
                .chars()
                .next()
                .ok_or_else(|| self.error("unterminated attribute value"))?;
            if quote != '"' && quote != '\'' {
                return Err(self.error("attribute value must be quoted"));
            }
            self.pos += 1;
            let rest = self.rest();
            let end = rest
                .find(quote)
                .ok_or_else(|| self.error("unterminated attribute value"))?;
            attrs.insert(key, decode_entities(&rest[..end]));
            self.pos += end + 1;
        }
    }

    fn parse_name(&mut self) -> Result<String, GraphmlError> {
        let rest = self.rest();
        let end = rest
            .find(|c: char| c.is_whitespace() || c == '>' || c == '/' || c == '=')
            .unwrap_or(rest.len());
        if end == 0 {
            return Err(self.error("expected a name"));
        }
        let name = rest[..end].to_string();
        self.pos += end;
        Ok(name)
    }

    fn skip_ws(&mut self) {
        let rest = self.rest();
        let trimmed = rest.trim_start();
        self.pos += rest.len() - trimmed.len();
    }
}

fn decode_entities(s: &str) -> String {
    s.replace("&lt;", "<")
        .replace("&gt;", ">")
        .replace("&quot;", "\"")
        .replace("&apos;", "'")
        .replace("&amp;", "&")
}

/// Parses a Topology Zoo GraphML document into a [`Topology`].
///
/// Node latitude/longitude `<data>` values (declared via
/// `<key attr.name="Latitude"/Longitude" for="node">`) become node
/// positions; link delays are derived from great-circle distance at
/// ≈5 µs/km when both endpoints have positions, and default to 1 ms
/// otherwise. All capacities default to 1 (assign per scenario). Duplicate
/// edges and self-loops, which occur in some Zoo files, are skipped.
///
/// # Errors
///
/// Returns a [`GraphmlError`] for malformed XML, edges referencing unknown
/// nodes, or documents without a `<graph>`.
pub fn parse(xml: &str, name: &str) -> Result<Topology, GraphmlError> {
    let mut tok = Tokenizer::new(xml);
    // key id -> attr.name (node keys only)
    let mut node_keys: HashMap<String, String> = HashMap::new();
    let mut ids: HashMap<String, NodeId> = HashMap::new();
    let mut raw_ids: Vec<String> = Vec::new();
    let mut positions: Vec<(Option<f64>, Option<f64>)> = Vec::new();
    let mut labels: Vec<Option<String>> = Vec::new();
    let mut edges: Vec<(NodeId, NodeId)> = Vec::new();
    let mut saw_graph = false;

    // Parsing state: inside which node, and the pending <data> key.
    let mut current_node: Option<NodeId> = None;
    let mut current_data_key: Option<String> = None;

    while let Some(ev) = tok.next_event()? {
        match ev {
            Event::Open {
                name: tag,
                attrs,
                self_closing,
            } => match tag.as_str() {
                "graph" => saw_graph = true,
                "key" if attrs.get("for").map(String::as_str) == Some("node") => {
                    if let (Some(id), Some(attr_name)) = (attrs.get("id"), attrs.get("attr.name")) {
                        node_keys.insert(id.clone(), attr_name.clone());
                    }
                }
                "node" => {
                    let raw = attrs
                        .get("id")
                        .cloned()
                        .ok_or_else(|| GraphmlError::Syntax(0, "<node> without id".into()))?;
                    let v = NodeId(raw_ids.len());
                    ids.insert(raw.clone(), v);
                    raw_ids.push(raw);
                    positions.push((None, None));
                    labels.push(None);
                    if !self_closing {
                        current_node = Some(v);
                    }
                }
                "edge" => {
                    let s = attrs
                        .get("source")
                        .ok_or_else(|| GraphmlError::Syntax(0, "<edge> without source".into()))?;
                    let t = attrs
                        .get("target")
                        .ok_or_else(|| GraphmlError::Syntax(0, "<edge> without target".into()))?;
                    let sv = *ids
                        .get(s)
                        .ok_or_else(|| GraphmlError::UnknownNodeRef(s.clone()))?;
                    let tv = *ids
                        .get(t)
                        .ok_or_else(|| GraphmlError::UnknownNodeRef(t.clone()))?;
                    edges.push((sv, tv));
                }
                "data" if current_node.is_some() && !self_closing => {
                    current_data_key = attrs.get("key").cloned();
                }
                _ => {}
            },
            Event::Close(tag) => match tag.as_str() {
                "node" => current_node = None,
                "data" => current_data_key = None,
                _ => {}
            },
            Event::Text(text) => {
                if let (Some(v), Some(key)) = (current_node, current_data_key.as_ref()) {
                    match node_keys.get(key).map(String::as_str) {
                        Some("Latitude") => {
                            if let Ok(lat) = text.trim().parse::<f64>() {
                                positions[v.0].0 = Some(lat);
                            }
                        }
                        Some("Longitude") => {
                            if let Ok(lon) = text.trim().parse::<f64>() {
                                positions[v.0].1 = Some(lon);
                            }
                        }
                        Some("label") | Some("Label") => {
                            labels[v.0] = Some(text.trim().to_string());
                        }
                        _ => {}
                    }
                }
            }
        }
    }
    if !saw_graph {
        return Err(GraphmlError::NoGraph);
    }

    // Re-add nodes with positions and labels: rebuild the builder so the
    // geo-delay helper sees positions.
    let mut b = TopologyBuilder::new(name);
    for (i, (lat, lon)) in positions.iter().enumerate() {
        let label = labels[i].clone().unwrap_or_else(|| raw_ids[i].clone());
        match (lat, lon) {
            (Some(la), Some(lo)) => {
                b.add_node_at(label, 1.0, *la, *lo);
            }
            _ => {
                b.add_node(label, 1.0);
            }
        }
    }
    let mut seen: Vec<(NodeId, NodeId)> = Vec::new();
    for (s, t) in edges {
        if s == t {
            continue; // some Zoo files carry self-loops; skip them
        }
        let key = if s < t { (s, t) } else { (t, s) };
        if seen.contains(&key) {
            continue; // parallel edges collapse to one
        }
        seen.push(key);
        let both_positioned = positions[s.0].0.is_some()
            && positions[s.0].1.is_some()
            && positions[t.0].0.is_some()
            && positions[t.0].1.is_some();
        if both_positioned {
            b.add_link_geo(s, t, 1.0, US_PER_KM)?;
        } else {
            b.add_link(s, t, 1.0, 1.0)?;
        }
    }
    Ok(b.build()?)
}

/// Serializes a topology to Topology-Zoo-style GraphML (node positions and
/// labels included). The output round-trips through [`parse`]: node order,
/// names, positions, and edges are preserved; capacities and delays are
/// re-derived on load (GraphML carries geometry, not capacities).
pub fn write(topo: &Topology) -> String {
    fn escape(s: &str) -> String {
        s.replace('&', "&amp;")
            .replace('<', "&lt;")
            .replace('>', "&gt;")
            .replace('"', "&quot;")
    }
    let mut out = String::new();
    out.push_str("<?xml version=\"1.0\" encoding=\"utf-8\"?>\n");
    out.push_str("<graphml xmlns=\"http://graphml.graphdrawing.org/xmlns\">\n");
    out.push_str("  <key attr.name=\"Latitude\" attr.type=\"double\" for=\"node\" id=\"d29\"/>\n");
    out.push_str("  <key attr.name=\"Longitude\" attr.type=\"double\" for=\"node\" id=\"d32\"/>\n");
    out.push_str("  <key attr.name=\"label\" attr.type=\"string\" for=\"node\" id=\"d33\"/>\n");
    out.push_str("  <graph edgedefault=\"undirected\">\n");
    for v in topo.node_ids() {
        let node = topo.node(v);
        out.push_str(&format!("    <node id=\"{}\">\n", v.0));
        if let Some((lat, lon)) = node.position {
            out.push_str(&format!("      <data key=\"d29\">{lat}</data>\n"));
            out.push_str(&format!("      <data key=\"d32\">{lon}</data>\n"));
        }
        out.push_str(&format!(
            "      <data key=\"d33\">{}</data>\n",
            escape(&node.name)
        ));
        out.push_str("    </node>\n");
    }
    for l in topo.links() {
        out.push_str(&format!(
            "    <edge source=\"{}\" target=\"{}\"/>\n",
            l.a.0, l.b.0
        ));
    }
    out.push_str("  </graph>\n</graphml>\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"<?xml version="1.0" encoding="utf-8"?>
<!-- A tiny Topology-Zoo-like file -->
<graphml xmlns="http://graphml.graphdrawing.org/xmlns">
  <key attr.name="Latitude" attr.type="double" for="node" id="d29"/>
  <key attr.name="Longitude" attr.type="double" for="node" id="d32"/>
  <key attr.name="label" attr.type="string" for="node" id="d33"/>
  <graph edgedefault="undirected">
    <node id="0">
      <data key="d29">40.71</data>
      <data key="d32">-74.01</data>
      <data key="d33">New &amp; York</data>
    </node>
    <node id="1">
      <data key="d29">41.88</data>
      <data key="d32">-87.63</data>
      <data key="d33">Chicago</data>
    </node>
    <node id="2"/>
    <edge source="0" target="1"/>
    <edge source="1" target="2"/>
    <edge source="2" target="1"/>
    <edge source="2" target="2"/>
  </graph>
</graphml>"#;

    #[test]
    fn parses_sample() {
        let t = parse(SAMPLE, "sample").unwrap();
        assert_eq!(t.num_nodes(), 3);
        // Duplicate edge and self-loop dropped.
        assert_eq!(t.num_links(), 2);
        assert_eq!(t.node(NodeId(0)).name, "New & York");
        assert_eq!(t.node(NodeId(2)).name, "2");
    }

    #[test]
    fn geo_delay_used_when_positions_available() {
        let t = parse(SAMPLE, "sample").unwrap();
        let l = t.link_between(NodeId(0), NodeId(1)).unwrap();
        // NY-Chicago ~1150 km -> ~5.7 ms.
        let d = t.link(l).delay;
        assert!(d > 4.0 && d < 8.0, "{d}");
        // Link to the position-less node gets the 1 ms default.
        let l2 = t.link_between(NodeId(1), NodeId(2)).unwrap();
        assert_eq!(t.link(l2).delay, 1.0);
    }

    #[test]
    fn rejects_unknown_edge_ref() {
        let xml =
            r#"<graphml><graph><node id="0"/><edge source="0" target="9"/></graph></graphml>"#;
        assert_eq!(
            parse(xml, "x"),
            Err(GraphmlError::UnknownNodeRef("9".into()))
        );
    }

    #[test]
    fn rejects_document_without_graph() {
        assert_eq!(
            parse("<graphml></graphml>", "x"),
            Err(GraphmlError::NoGraph)
        );
    }

    #[test]
    fn rejects_unterminated_tag() {
        assert!(matches!(
            parse("<graphml><graph><node id=\"0\"", "x"),
            Err(GraphmlError::Syntax(..))
        ));
    }

    #[test]
    fn tokenizer_handles_entities_and_quotes() {
        let xml = r#"<graphml><graph><node id='a&amp;b'/><node id="c"/><edge source='a&amp;b' target="c"/></graph></graphml>"#;
        let t = parse(xml, "q").unwrap();
        assert_eq!(t.num_nodes(), 2);
        assert_eq!(t.num_links(), 1);
        assert_eq!(t.node(NodeId(0)).name, "a&b");
    }

    #[test]
    fn write_round_trips_through_parse() {
        let original = crate::zoo::abilene();
        let xml = write(&original);
        let back = parse(&xml, original.name()).unwrap();
        assert_eq!(back.num_nodes(), original.num_nodes());
        assert_eq!(back.num_links(), original.num_links());
        for v in original.node_ids() {
            assert_eq!(back.node(v).name, original.node(v).name);
            let (a, b) = (
                back.node(v).position.unwrap(),
                original.node(v).position.unwrap(),
            );
            assert!((a.0 - b.0).abs() < 1e-9 && (a.1 - b.1).abs() < 1e-9);
        }
        for l in original.links() {
            assert!(back.link_between(l.a, l.b).is_some());
            // Geo-derived delay is re-derived identically.
            let rl = back.link(back.link_between(l.a, l.b).unwrap());
            assert!((rl.delay - l.delay).abs() < 1e-9);
        }
    }

    #[test]
    fn write_escapes_names() {
        let mut b = crate::TopologyBuilder::new("esc");
        b.add_node("a<&>\"b", 1.0);
        let t = b.build().unwrap();
        let xml = write(&t);
        assert!(xml.contains("a&lt;&amp;&gt;&quot;b"));
        let back = parse(&xml, "esc").unwrap();
        assert_eq!(back.node(crate::NodeId(0)).name, "a<&>\"b");
    }

    #[test]
    fn skips_doctype_and_pi() {
        let xml = "<?xml version=\"1.0\"?><!DOCTYPE graphml><graphml><graph><node id=\"0\"/></graph></graphml>";
        let t = parse(xml, "d").unwrap();
        assert_eq!(t.num_nodes(), 1);
    }
}

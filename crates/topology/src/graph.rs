//! The substrate network graph `G = (V, L)`.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifier of a substrate node `v ∈ V`.
///
/// Node ids are dense indices `0..num_nodes`, so they can be used directly to
/// index per-node state vectors.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct NodeId(pub usize);

/// Identifier of an undirected substrate link `l ∈ L`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct LinkId(pub usize);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

impl fmt::Display for LinkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "l{}", self.0)
    }
}

/// A substrate node with generic compute capacity `cap_v` (Sec. III-A).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Node {
    /// Human-readable name (e.g. the city in a backbone topology).
    pub name: String,
    /// Generic compute capacity `cap_v ≥ 0`.
    pub capacity: f64,
    /// Optional geographic position `(latitude, longitude)` in degrees,
    /// used to derive link delays from distance.
    pub position: Option<(f64, f64)>,
}

/// An undirected link with propagation delay `d_l` and a maximum data rate
/// `cap_l` shared in both directions (Sec. III-A).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Link {
    /// One endpoint.
    pub a: NodeId,
    /// The other endpoint.
    pub b: NodeId,
    /// Propagation delay `d_l` in milliseconds.
    pub delay: f64,
    /// Maximum data rate `cap_l`, shared in both directions.
    pub capacity: f64,
}

impl Link {
    /// Returns the endpoint opposite to `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is not an endpoint of this link.
    pub fn other(&self, v: NodeId) -> NodeId {
        if v == self.a {
            self.b
        } else if v == self.b {
            self.a
        } else {
            panic!("{v} is not an endpoint of link ({}, {})", self.a, self.b)
        }
    }
}

/// Errors raised while constructing a [`Topology`].
#[derive(Debug, Clone, PartialEq)]
pub enum TopologyError {
    /// A link references a node id that was never added.
    UnknownNode(NodeId),
    /// A link connects a node to itself.
    SelfLoop(NodeId),
    /// The same node pair is connected by more than one link.
    DuplicateLink(NodeId, NodeId),
    /// A capacity or delay is negative or non-finite.
    InvalidValue(String),
    /// The topology has no nodes.
    Empty,
    /// The topology is not connected (some node pair is unreachable).
    Disconnected,
}

impl fmt::Display for TopologyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TopologyError::UnknownNode(v) => write!(f, "link references unknown node {v}"),
            TopologyError::SelfLoop(v) => write!(f, "self-loop at node {v}"),
            TopologyError::DuplicateLink(a, b) => {
                write!(f, "duplicate link between {a} and {b}")
            }
            TopologyError::InvalidValue(what) => write!(f, "invalid value: {what}"),
            TopologyError::Empty => write!(f, "topology has no nodes"),
            TopologyError::Disconnected => write!(f, "topology is not connected"),
        }
    }
}

impl std::error::Error for TopologyError {}

/// The undirected substrate network `G = (V, L)`.
///
/// Construct one with [`TopologyBuilder`], from the [`crate::zoo`] presets,
/// the [`crate::generators`], or [`crate::graphml::parse`].
///
/// # Example
///
/// ```
/// use dosco_topology::{Topology, TopologyBuilder};
///
/// # fn main() -> Result<(), dosco_topology::TopologyError> {
/// let mut b = TopologyBuilder::new("triangle");
/// let v0 = b.add_node("a", 1.0);
/// let v1 = b.add_node("b", 1.0);
/// let v2 = b.add_node("c", 1.0);
/// b.add_link(v0, v1, 1.0, 5.0)?;
/// b.add_link(v1, v2, 1.0, 5.0)?;
/// b.add_link(v2, v0, 1.0, 5.0)?;
/// let topo: Topology = b.build()?;
/// assert_eq!(topo.degree(v0), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Topology {
    name: String,
    nodes: Vec<Node>,
    links: Vec<Link>,
    /// adjacency: for each node, `(neighbor, link)` pairs sorted by neighbor id.
    adj: Vec<Vec<(NodeId, LinkId)>>,
}

impl Topology {
    /// The topology's name (e.g. `"Abilene"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of nodes `|V|`.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Number of undirected links `|L|`.
    pub fn num_links(&self) -> usize {
        self.links.len()
    }

    /// All nodes, indexable by [`NodeId`].
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// All links, indexable by [`LinkId`].
    pub fn links(&self) -> &[Link] {
        &self.links
    }

    /// The node with id `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn node(&self, v: NodeId) -> &Node {
        &self.nodes[v.0]
    }

    /// The link with id `l`.
    ///
    /// # Panics
    ///
    /// Panics if `l` is out of range.
    pub fn link(&self, l: LinkId) -> &Link {
        &self.links[l.0]
    }

    /// Iterator over all node ids `0..|V|`.
    pub fn node_ids(&self) -> impl ExactSizeIterator<Item = NodeId> {
        (0..self.nodes.len()).map(NodeId)
    }

    /// Iterator over all link ids `0..|L|`.
    pub fn link_ids(&self) -> impl ExactSizeIterator<Item = LinkId> {
        (0..self.links.len()).map(LinkId)
    }

    /// The neighbors `V_v` of node `v` with the connecting links `L_v`,
    /// sorted by neighbor id. The *i*-th entry is the node's *i*-th neighbor
    /// as addressed by DRL action `a = i + 1` (Sec. IV-B2).
    pub fn neighbors(&self, v: NodeId) -> &[(NodeId, LinkId)] {
        &self.adj[v.0]
    }

    /// Degree of node `v`, i.e. `|V_v|`.
    pub fn degree(&self, v: NodeId) -> usize {
        self.adj[v.0].len()
    }

    /// The network degree `Δ_G`: the maximum node degree. Observation and
    /// action space sizes depend only on this (Sec. IV-B).
    pub fn network_degree(&self) -> usize {
        self.adj.iter().map(Vec::len).max().unwrap_or(0)
    }

    /// Position of `hop` in `v`'s neighbor list — the index a forward
    /// action addresses it by — if the two are adjacent.
    pub fn neighbor_index(&self, v: NodeId, hop: NodeId) -> Option<usize> {
        self.adj[v.0].iter().position(|&(n, _)| n == hop)
    }

    /// The link between `a` and `b`, if any.
    pub fn link_between(&self, a: NodeId, b: NodeId) -> Option<LinkId> {
        self.adj[a.0].iter().find(|(n, _)| *n == b).map(|&(_, l)| l)
    }

    /// Maximum link capacity over the outgoing links `L_v` of `v`.
    ///
    /// Used to normalize the link-utilization observation `R_v^L`
    /// (Sec. IV-B1b). Returns 0.0 for isolated nodes.
    pub fn max_outgoing_link_capacity(&self, v: NodeId) -> f64 {
        self.adj[v.0]
            .iter()
            .map(|&(_, l)| self.links[l.0].capacity)
            .fold(0.0, f64::max)
    }

    /// Maximum node capacity over *all* nodes, used to normalize the
    /// node-utilization observation `R_v^V` (Sec. IV-B1c).
    pub fn max_node_capacity(&self) -> f64 {
        self.nodes.iter().map(|n| n.capacity).fold(0.0, f64::max)
    }

    /// Node capacities in node-id order — the denominators for
    /// utilization telemetry sampled against per-node usage vectors.
    pub fn node_capacities(&self) -> impl ExactSizeIterator<Item = f64> + '_ {
        self.nodes.iter().map(|n| n.capacity)
    }

    /// Link capacities in link-id order (see [`Self::node_capacities`]).
    pub fn link_capacities(&self) -> impl ExactSizeIterator<Item = f64> + '_ {
        self.links.iter().map(|l| l.capacity)
    }

    /// Whether the graph is connected (every node reachable from node 0).
    pub fn is_connected(&self) -> bool {
        if self.nodes.is_empty() {
            return true;
        }
        let mut seen = vec![false; self.nodes.len()];
        let mut stack = vec![NodeId(0)];
        seen[0] = true;
        let mut count = 1;
        while let Some(v) = stack.pop() {
            for &(n, _) in &self.adj[v.0] {
                if !seen[n.0] {
                    seen[n.0] = true;
                    count += 1;
                    stack.push(n);
                }
            }
        }
        count == self.nodes.len()
    }

    /// Errors with [`TopologyError::Disconnected`] unless the graph is
    /// connected. Scenario loaders call this to reject Topology-Zoo files
    /// with isolated islands up front (a disconnected substrate would make
    /// some ingress/egress pairs unreachable by construction) instead of
    /// failing later inside a simulation.
    pub fn require_connected(&self) -> Result<(), TopologyError> {
        if self.is_connected() {
            Ok(())
        } else {
            Err(TopologyError::Disconnected)
        }
    }

    /// Overwrites node and link capacities with uniformly random values, as
    /// in the paper's base scenario (node capacity `U(lo,hi)`, link capacity
    /// `U(lo,hi)`; Sec. V-A1).
    ///
    /// Uses the provided RNG so scenarios stay reproducible under a seed.
    pub fn assign_random_capacities<R: rand::Rng>(
        &mut self,
        rng: &mut R,
        node_range: (f64, f64),
        link_range: (f64, f64),
    ) {
        for n in &mut self.nodes {
            n.capacity = rng.gen_range(node_range.0..=node_range.1);
        }
        for l in &mut self.links {
            l.capacity = rng.gen_range(link_range.0..=link_range.1);
        }
    }

    /// Scales every node and link capacity by the given factors. Useful for
    /// load-scaling ablations.
    pub fn scale_capacities(&mut self, node_factor: f64, link_factor: f64) {
        for n in &mut self.nodes {
            n.capacity *= node_factor;
        }
        for l in &mut self.links {
            l.capacity *= link_factor;
        }
    }
}

/// Incremental builder for [`Topology`] (non-consuming for node/link adds,
/// consuming `build`).
#[derive(Debug, Clone)]
pub struct TopologyBuilder {
    name: String,
    nodes: Vec<Node>,
    links: Vec<Link>,
}

impl TopologyBuilder {
    /// Starts a new, empty topology with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        TopologyBuilder {
            name: name.into(),
            nodes: Vec::new(),
            links: Vec::new(),
        }
    }

    /// Adds a node and returns its id.
    pub fn add_node(&mut self, name: impl Into<String>, capacity: f64) -> NodeId {
        let id = NodeId(self.nodes.len());
        self.nodes.push(Node {
            name: name.into(),
            capacity,
            position: None,
        });
        id
    }

    /// Adds a node with a geographic position and returns its id.
    pub fn add_node_at(
        &mut self,
        name: impl Into<String>,
        capacity: f64,
        lat: f64,
        lon: f64,
    ) -> NodeId {
        let id = self.add_node(name, capacity);
        self.nodes[id.0].position = Some((lat, lon));
        id
    }

    /// Adds an undirected link between `a` and `b`.
    ///
    /// # Errors
    ///
    /// Returns an error for unknown endpoints, self-loops, duplicate links,
    /// or negative/non-finite delay or capacity.
    pub fn add_link(
        &mut self,
        a: NodeId,
        b: NodeId,
        delay: f64,
        capacity: f64,
    ) -> Result<LinkId, TopologyError> {
        if a.0 >= self.nodes.len() {
            return Err(TopologyError::UnknownNode(a));
        }
        if b.0 >= self.nodes.len() {
            return Err(TopologyError::UnknownNode(b));
        }
        if a == b {
            return Err(TopologyError::SelfLoop(a));
        }
        if !delay.is_finite() || delay < 0.0 {
            return Err(TopologyError::InvalidValue(format!(
                "link delay {delay} must be finite and ≥ 0"
            )));
        }
        if !capacity.is_finite() || capacity < 0.0 {
            return Err(TopologyError::InvalidValue(format!(
                "link capacity {capacity} must be finite and ≥ 0"
            )));
        }
        if self
            .links
            .iter()
            .any(|l| (l.a == a && l.b == b) || (l.a == b && l.b == a))
        {
            return Err(TopologyError::DuplicateLink(a, b));
        }
        let id = LinkId(self.links.len());
        self.links.push(Link {
            a,
            b,
            delay,
            capacity,
        });
        Ok(id)
    }

    /// Adds an undirected link whose delay is derived from the great-circle
    /// distance between the endpoints' geographic positions, at
    /// `us_per_km` microseconds per kilometer (≈5 µs/km in fiber).
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError::InvalidValue`] if either endpoint has no
    /// position, plus all errors of [`TopologyBuilder::add_link`].
    pub fn add_link_geo(
        &mut self,
        a: NodeId,
        b: NodeId,
        capacity: f64,
        us_per_km: f64,
    ) -> Result<LinkId, TopologyError> {
        let pa = self
            .nodes
            .get(a.0)
            .and_then(|n| n.position)
            .ok_or_else(|| TopologyError::InvalidValue(format!("node {a} has no position")))?;
        let pb = self
            .nodes
            .get(b.0)
            .and_then(|n| n.position)
            .ok_or_else(|| TopologyError::InvalidValue(format!("node {b} has no position")))?;
        let km = great_circle_km(pa, pb);
        let delay_ms = km * us_per_km / 1000.0;
        self.add_link(a, b, delay_ms, capacity)
    }

    /// Validates and builds the topology.
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError::Empty`] if no nodes were added, or
    /// [`TopologyError::InvalidValue`] for invalid node capacities.
    pub fn build(self) -> Result<Topology, TopologyError> {
        if self.nodes.is_empty() {
            return Err(TopologyError::Empty);
        }
        for (i, n) in self.nodes.iter().enumerate() {
            if !n.capacity.is_finite() || n.capacity < 0.0 {
                return Err(TopologyError::InvalidValue(format!(
                    "node {} capacity {} must be finite and ≥ 0",
                    NodeId(i),
                    n.capacity
                )));
            }
        }
        let mut adj: Vec<Vec<(NodeId, LinkId)>> = vec![Vec::new(); self.nodes.len()];
        for (i, l) in self.links.iter().enumerate() {
            adj[l.a.0].push((l.b, LinkId(i)));
            adj[l.b.0].push((l.a, LinkId(i)));
        }
        for a in &mut adj {
            a.sort_by_key(|&(n, _)| n);
        }
        Ok(Topology {
            name: self.name,
            nodes: self.nodes,
            links: self.links,
            adj,
        })
    }
}

/// Great-circle distance in kilometers between two `(lat, lon)` points in
/// degrees (haversine formula, mean Earth radius 6371 km).
pub fn great_circle_km(a: (f64, f64), b: (f64, f64)) -> f64 {
    const R: f64 = 6371.0;
    let (la1, lo1) = (a.0.to_radians(), a.1.to_radians());
    let (la2, lo2) = (b.0.to_radians(), b.1.to_radians());
    let dla = la2 - la1;
    let dlo = lo2 - lo1;
    let h = (dla / 2.0).sin().powi(2) + la1.cos() * la2.cos() * (dlo / 2.0).sin().powi(2);
    2.0 * R * h.sqrt().asin()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> Topology {
        let mut b = TopologyBuilder::new("triangle");
        let v0 = b.add_node("a", 1.0);
        let v1 = b.add_node("b", 2.0);
        let v2 = b.add_node("c", 3.0);
        b.add_link(v0, v1, 1.0, 5.0).unwrap();
        b.add_link(v1, v2, 2.0, 4.0).unwrap();
        b.add_link(v2, v0, 3.0, 3.0).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn builds_triangle() {
        let t = triangle();
        assert_eq!(t.num_nodes(), 3);
        assert_eq!(t.num_links(), 3);
        assert_eq!(t.network_degree(), 2);
        assert!(t.is_connected());
        assert_eq!(t.max_node_capacity(), 3.0);
    }

    #[test]
    fn neighbor_index_addresses_the_neighbor_list() {
        let t = triangle();
        for v in t.node_ids() {
            for (i, &(n, _)) in t.neighbors(v).iter().enumerate() {
                assert_eq!(t.neighbor_index(v, n), Some(i));
            }
            assert_eq!(t.neighbor_index(v, v), None);
        }
    }

    #[test]
    fn capacity_iterators_follow_id_order() {
        let t = triangle();
        let nodes: Vec<f64> = t.node_capacities().collect();
        assert_eq!(nodes, vec![1.0, 2.0, 3.0]);
        let links: Vec<f64> = t.link_capacities().collect();
        assert_eq!(links, vec![5.0, 4.0, 3.0]);
        assert_eq!(t.node_capacities().len(), t.num_nodes());
        assert_eq!(t.link_capacities().len(), t.num_links());
    }

    #[test]
    fn neighbors_sorted_by_id() {
        let t = triangle();
        let n: Vec<NodeId> = t.neighbors(NodeId(2)).iter().map(|&(v, _)| v).collect();
        assert_eq!(n, vec![NodeId(0), NodeId(1)]);
    }

    #[test]
    fn link_other_endpoint() {
        let t = triangle();
        let l = t.link(LinkId(0));
        assert_eq!(l.other(NodeId(0)), NodeId(1));
        assert_eq!(l.other(NodeId(1)), NodeId(0));
    }

    #[test]
    #[should_panic(expected = "not an endpoint")]
    fn link_other_panics_for_non_endpoint() {
        let t = triangle();
        t.link(LinkId(0)).other(NodeId(2));
    }

    #[test]
    fn rejects_self_loop() {
        let mut b = TopologyBuilder::new("t");
        let v0 = b.add_node("a", 1.0);
        assert_eq!(
            b.add_link(v0, v0, 1.0, 1.0),
            Err(TopologyError::SelfLoop(v0))
        );
    }

    #[test]
    fn rejects_duplicate_link_either_direction() {
        let mut b = TopologyBuilder::new("t");
        let v0 = b.add_node("a", 1.0);
        let v1 = b.add_node("b", 1.0);
        b.add_link(v0, v1, 1.0, 1.0).unwrap();
        assert!(matches!(
            b.add_link(v1, v0, 1.0, 1.0),
            Err(TopologyError::DuplicateLink(..))
        ));
    }

    #[test]
    fn rejects_unknown_node() {
        let mut b = TopologyBuilder::new("t");
        let v0 = b.add_node("a", 1.0);
        assert_eq!(
            b.add_link(v0, NodeId(7), 1.0, 1.0),
            Err(TopologyError::UnknownNode(NodeId(7)))
        );
    }

    #[test]
    fn rejects_negative_delay_and_capacity() {
        let mut b = TopologyBuilder::new("t");
        let v0 = b.add_node("a", 1.0);
        let v1 = b.add_node("b", 1.0);
        assert!(matches!(
            b.add_link(v0, v1, -1.0, 1.0),
            Err(TopologyError::InvalidValue(_))
        ));
        assert!(matches!(
            b.add_link(v0, v1, 1.0, f64::NAN),
            Err(TopologyError::InvalidValue(_))
        ));
    }

    #[test]
    fn rejects_empty_topology() {
        assert_eq!(
            TopologyBuilder::new("e").build().unwrap_err(),
            TopologyError::Empty
        );
    }

    #[test]
    fn rejects_invalid_node_capacity() {
        let mut b = TopologyBuilder::new("t");
        b.add_node("a", f64::INFINITY);
        assert!(matches!(b.build(), Err(TopologyError::InvalidValue(_))));
    }

    #[test]
    fn disconnected_graph_detected() {
        let mut b = TopologyBuilder::new("t");
        b.add_node("a", 1.0);
        b.add_node("b", 1.0);
        let t = b.build().unwrap();
        assert!(!t.is_connected());
    }

    #[test]
    fn geo_link_delay_positive_and_symmetricish() {
        let mut b = TopologyBuilder::new("geo");
        let ny = b.add_node_at("NewYork", 1.0, 40.71, -74.01);
        let chi = b.add_node_at("Chicago", 1.0, 41.88, -87.63);
        let l = b.add_link_geo(ny, chi, 5.0, 5.0).unwrap();
        let t = b.build().unwrap();
        let d = t.link(l).delay;
        // NY-Chicago is ~1150 km -> ~5.7 ms at 5 us/km.
        assert!(d > 4.0 && d < 8.0, "delay {d}");
    }

    #[test]
    fn random_capacities_within_range() {
        use rand::SeedableRng;
        let mut t = triangle();
        let mut rng = rand::rngs::StdRng::seed_from_u64(42);
        t.assign_random_capacities(&mut rng, (0.0, 2.0), (1.0, 5.0));
        for n in t.nodes() {
            assert!((0.0..=2.0).contains(&n.capacity));
        }
        for l in t.links() {
            assert!((1.0..=5.0).contains(&l.capacity));
        }
    }

    #[test]
    fn scale_capacities() {
        let mut t = triangle();
        t.scale_capacities(2.0, 0.5);
        assert_eq!(t.node(NodeId(1)).capacity, 4.0);
        assert_eq!(t.link(LinkId(0)).capacity, 2.5);
    }

    #[test]
    fn great_circle_known_distance() {
        // London (51.5, -0.12) to Paris (48.85, 2.35) ~ 343 km.
        let d = great_circle_km((51.5, -0.12), (48.85, 2.35));
        assert!((330.0..360.0).contains(&d), "{d}");
    }

    #[test]
    fn serde_round_trip() {
        let t = triangle();
        let json = serde_json::to_string(&t).unwrap();
        let back: Topology = serde_json::from_str(&json).unwrap();
        assert_eq!(t, back);
    }
}

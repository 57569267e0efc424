//! Synthetic topology generators.
//!
//! Besides simple shapes for tests (line, ring, star, grid), this module
//! provides [`random_geometric`] graphs and [`reconstruct_degree_profile`],
//! which deterministically builds a connected graph matching an exact
//! node/edge count and min/max degree — used by [`crate::zoo`] to
//! reconstruct the Table I topologies whose GraphML files are not bundled.

use crate::graph::{great_circle_km, NodeId, Topology, TopologyBuilder, TopologyError};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Default fiber propagation speed used to derive delays: ~5 µs per km.
pub const US_PER_KM: f64 = 5.0;

/// A path graph `0 — 1 — … — n-1` with uniform link delay and capacity.
///
/// # Panics
///
/// Panics if `n == 0`. The links it adds are valid by construction, so
/// building cannot fail otherwise.
#[allow(clippy::expect_used, reason = "the documented # Panics contract")]
pub fn line(n: usize, delay: f64, capacity: f64) -> Topology {
    assert!(n > 0, "line topology needs at least one node");
    let mut b = TopologyBuilder::new(format!("line-{n}"));
    let ids: Vec<NodeId> = (0..n).map(|i| b.add_node(format!("n{i}"), 1.0)).collect();
    for w in ids.windows(2) {
        b.add_link(w[0], w[1], delay, capacity)
            .expect("line links are valid by construction");
    }
    b.build().expect("line topology is non-empty")
}

/// A ring graph with uniform link delay and capacity.
///
/// # Panics
///
/// Panics if `n < 3`. The links it adds are valid by construction, so
/// building cannot fail otherwise.
#[allow(clippy::expect_used, reason = "the documented # Panics contract")]
pub fn ring(n: usize, delay: f64, capacity: f64) -> Topology {
    assert!(n >= 3, "ring topology needs at least three nodes");
    let mut b = TopologyBuilder::new(format!("ring-{n}"));
    let ids: Vec<NodeId> = (0..n).map(|i| b.add_node(format!("n{i}"), 1.0)).collect();
    for i in 0..n {
        b.add_link(ids[i], ids[(i + 1) % n], delay, capacity)
            .expect("ring links are valid by construction");
    }
    b.build().expect("ring topology is non-empty")
}

/// A star graph: node 0 is the hub, nodes `1..=leaves` are leaves.
///
/// # Panics
///
/// Panics if `leaves == 0`. The links it adds are valid by construction,
/// so building cannot fail otherwise.
#[allow(clippy::expect_used, reason = "the documented # Panics contract")]
pub fn star(leaves: usize, delay: f64, capacity: f64) -> Topology {
    assert!(leaves > 0, "star topology needs at least one leaf");
    let mut b = TopologyBuilder::new(format!("star-{leaves}"));
    let hub = b.add_node("hub", 1.0);
    for i in 0..leaves {
        let leaf = b.add_node(format!("leaf{i}"), 1.0);
        b.add_link(hub, leaf, delay, capacity)
            .expect("star links are valid by construction");
    }
    b.build().expect("star topology is non-empty")
}

/// A `rows × cols` grid graph with uniform link delay and capacity.
///
/// # Panics
///
/// Panics if `rows == 0 || cols == 0`. The links it adds are valid by
/// construction, so building cannot fail otherwise.
#[allow(clippy::expect_used, reason = "the documented # Panics contract")]
pub fn grid(rows: usize, cols: usize, delay: f64, capacity: f64) -> Topology {
    assert!(rows > 0 && cols > 0, "grid needs positive dimensions");
    let mut b = TopologyBuilder::new(format!("grid-{rows}x{cols}"));
    let mut ids = Vec::with_capacity(rows * cols);
    for r in 0..rows {
        for c in 0..cols {
            ids.push(b.add_node(format!("n{r}-{c}"), 1.0));
        }
    }
    for r in 0..rows {
        for c in 0..cols {
            let i = r * cols + c;
            if c + 1 < cols {
                b.add_link(ids[i], ids[i + 1], delay, capacity)
                    .expect("grid links are valid by construction");
            }
            if r + 1 < rows {
                b.add_link(ids[i], ids[i + cols], delay, capacity)
                    .expect("grid links are valid by construction");
            }
        }
    }
    b.build().expect("grid topology is non-empty")
}

/// A random geometric graph: `n` nodes placed uniformly in a
/// `[0, side_km] × [0, side_km]` square (encoded as small lat/lon offsets),
/// connected when within `radius_km`; extra nearest-neighbor links are added
/// until the graph is connected. Deterministic for a given seed.
///
/// # Errors
///
/// Returns an error if `n == 0`.
///
/// # Panics
///
/// Never: a disconnected graph always has a pair of nodes in different
/// components, and every node is placed with a position.
#[allow(
    clippy::expect_used,
    reason = "the documented # Panics construction invariants"
)]
pub fn random_geometric(
    n: usize,
    side_km: f64,
    radius_km: f64,
    seed: u64,
) -> Result<Topology, TopologyError> {
    if n == 0 {
        return Err(TopologyError::Empty);
    }
    let mut rng = StdRng::seed_from_u64(seed);
    // ~111 km per degree of latitude; keep the square near the equator so
    // longitude scales the same way.
    let deg_per_km = 1.0 / 111.0;
    let mut b = TopologyBuilder::new(format!("geo-{n}-{seed}"));
    let mut pos = Vec::with_capacity(n);
    for i in 0..n {
        let x = rng.gen_range(0.0..side_km);
        let y = rng.gen_range(0.0..side_km);
        let (lat, lon) = (y * deg_per_km, x * deg_per_km);
        pos.push((lat, lon));
        b.add_node_at(format!("n{i}"), 1.0, lat, lon);
    }
    for i in 0..n {
        for j in (i + 1)..n {
            if great_circle_km(pos[i], pos[j]) <= radius_km {
                b.add_link_geo(NodeId(i), NodeId(j), 1.0, US_PER_KM)?;
            }
        }
    }
    let mut topo = b.build()?;
    // Connect components by repeatedly linking the closest cross-component
    // pair. Rebuilding the builder each round is fine at these sizes.
    while !topo.is_connected() {
        let comp = component_labels(&topo);
        let mut best: Option<(usize, usize, f64)> = None;
        for i in 0..n {
            for j in (i + 1)..n {
                if comp[i] != comp[j] {
                    let d = great_circle_km(pos[i], pos[j]);
                    if best.is_none_or(|(_, _, bd)| d < bd) {
                        best = Some((i, j, d));
                    }
                }
            }
        }
        let (i, j, _) = best.expect("disconnected graph must have a cross-component pair");
        let mut b = TopologyBuilder::new(topo.name().to_string());
        for k in 0..n {
            let node = topo.node(NodeId(k));
            let (lat, lon) = node.position.expect("geometric nodes have positions");
            b.add_node_at(node.name.clone(), node.capacity, lat, lon);
        }
        for l in topo.links() {
            b.add_link(l.a, l.b, l.delay, l.capacity)?;
        }
        b.add_link_geo(NodeId(i), NodeId(j), 1.0, US_PER_KM)?;
        topo = b.build()?;
    }
    Ok(topo)
}

fn component_labels(topo: &Topology) -> Vec<usize> {
    let n = topo.num_nodes();
    let mut label = vec![usize::MAX; n];
    let mut next = 0;
    for s in 0..n {
        if label[s] != usize::MAX {
            continue;
        }
        let mut stack = vec![NodeId(s)];
        label[s] = next;
        while let Some(v) = stack.pop() {
            for &(w, _) in topo.neighbors(v) {
                if label[w.0] == usize::MAX {
                    label[w.0] = next;
                    stack.push(w);
                }
            }
        }
        next += 1;
    }
    label
}

/// Specification for [`reconstruct_degree_profile`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DegreeProfile {
    /// Number of nodes.
    pub nodes: usize,
    /// Number of undirected edges.
    pub edges: usize,
    /// Exact minimum degree the output must have.
    pub min_degree: usize,
    /// Exact maximum degree the output must have.
    pub max_degree: usize,
}

/// Deterministically builds a connected graph with an **exact** node count,
/// edge count, minimum degree, and maximum degree.
///
/// Used to reconstruct the Table I topologies (BT Europe, China Telecom,
/// Interroute) whose full GraphML files are not redistributed here: node 0
/// becomes the single hub with `max_degree`, a seeded spanning tree connects
/// everything, designated leaf nodes keep `min_degree`, and remaining edges
/// are placed pseudo-randomly under the degree caps.
///
/// Nodes receive synthetic positions in a `span_km`-sized square so link
/// delays can be derived from distance like the real data.
///
/// # Errors
///
/// Returns [`TopologyError::InvalidValue`] if the profile is infeasible
/// (e.g. fewer edges than `nodes - 1`, or `max_degree >= nodes`).
pub fn reconstruct_degree_profile(
    name: &str,
    profile: DegreeProfile,
    span_km: f64,
    seed: u64,
) -> Result<Topology, TopologyError> {
    let DegreeProfile {
        nodes: n,
        edges: m,
        min_degree,
        max_degree,
    } = profile;
    if n < 2 || m < n - 1 {
        return Err(TopologyError::InvalidValue(format!(
            "infeasible profile: {n} nodes, {m} edges"
        )));
    }
    if max_degree >= n || max_degree < 2 {
        return Err(TopologyError::InvalidValue(format!(
            "max degree {max_degree} infeasible for {n} nodes"
        )));
    }
    if min_degree != 1 {
        return Err(TopologyError::InvalidValue(
            "reconstruction currently supports min degree 1 only".to_string(),
        ));
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let deg_per_km = 1.0 / 111.0;
    let mut b = TopologyBuilder::new(name);
    let mut pos = Vec::with_capacity(n);
    for i in 0..n {
        let x = rng.gen_range(0.0..span_km);
        let y = rng.gen_range(0.0..span_km);
        let (lat, lon) = (y * deg_per_km, x * deg_per_km);
        pos.push((lat, lon));
        b.add_node_at(format!("n{i}"), 1.0, lat, lon);
    }
    let mut deg = vec![0usize; n];
    let add = |b: &mut TopologyBuilder, deg: &mut Vec<usize>, i: usize, j: usize| {
        b.add_link_geo(NodeId(i), NodeId(j), 1.0, US_PER_KM)
            .inspect(|_| {
                deg[i] += 1;
                deg[j] += 1;
            })
    };

    // 1. Star around the hub: node 0 gets exactly `max_degree` neighbors.
    for i in 1..=max_degree {
        add(&mut b, &mut deg, 0, i)?;
    }
    // 2. Attach the remaining nodes to random earlier non-hub nodes to keep
    //    the graph connected (spanning tree). Cap attachment targets one
    //    below the hub degree so the hub stays the unique maximum.
    for i in (max_degree + 1)..n {
        let target = loop {
            let t = rng.gen_range(1..i);
            if deg[t] < max_degree - 1 {
                break t;
            }
        };
        add(&mut b, &mut deg, target, i)?;
    }
    // 3. The most recently attached node(s) serve as guaranteed degree-1
    //    leaves; never touch the last one again.
    let leaf = n - 1;
    // 4. Place remaining edges among non-hub, non-leaf nodes under the cap.
    let mut placed = (n - 1) as isize;
    let want = m as isize;
    let mut attempts = 0usize;
    while placed < want {
        attempts += 1;
        if attempts > 200_000 {
            return Err(TopologyError::InvalidValue(format!(
                "could not place {m} edges under degree cap {max_degree}"
            )));
        }
        let i = rng.gen_range(1..n);
        let j = rng.gen_range(1..n);
        if i == j || i == leaf || j == leaf {
            continue;
        }
        if deg[i] >= max_degree - 1 || deg[j] >= max_degree - 1 {
            continue;
        }
        if add(&mut b, &mut deg, i, j).is_err() {
            continue; // duplicate edge; retry
        }
        placed += 1;
    }
    let topo = b.build()?;
    debug_assert!(topo.is_connected());
    Ok(topo)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::DegreeStats;

    #[test]
    fn line_has_n_minus_one_links() {
        let t = line(5, 1.0, 1.0);
        assert_eq!(t.num_nodes(), 5);
        assert_eq!(t.num_links(), 4);
        assert_eq!(t.network_degree(), 2);
        assert!(t.is_connected());
    }

    #[test]
    fn ring_degrees_all_two() {
        let t = ring(6, 1.0, 1.0);
        let s = DegreeStats::of(&t);
        assert_eq!((s.min, s.max), (2, 2));
        assert!(t.is_connected());
    }

    #[test]
    fn star_hub_degree() {
        let t = star(7, 1.0, 1.0);
        assert_eq!(t.network_degree(), 7);
        assert_eq!(DegreeStats::of(&t).min, 1);
    }

    #[test]
    fn grid_shape() {
        let t = grid(3, 4, 1.0, 1.0);
        assert_eq!(t.num_nodes(), 12);
        // 3*(4-1) horizontal + (3-1)*4 vertical = 9 + 8 = 17
        assert_eq!(t.num_links(), 17);
        assert!(t.is_connected());
    }

    #[test]
    fn random_geometric_connected_and_deterministic() {
        let a = random_geometric(20, 500.0, 150.0, 7).unwrap();
        let b = random_geometric(20, 500.0, 150.0, 7).unwrap();
        assert!(a.is_connected());
        assert_eq!(a, b);
        let c = random_geometric(20, 500.0, 150.0, 8).unwrap();
        assert_ne!(a, c);
    }

    #[test]
    fn reconstruct_matches_profile_exactly() {
        let profile = DegreeProfile {
            nodes: 24,
            edges: 37,
            min_degree: 1,
            max_degree: 13,
        };
        let t = reconstruct_degree_profile("bt-like", profile, 1500.0, 1).unwrap();
        assert_eq!(t.num_nodes(), 24);
        assert_eq!(t.num_links(), 37);
        let s = DegreeStats::of(&t);
        assert_eq!((s.min, s.max), (1, 13));
        assert!(t.is_connected());
    }

    #[test]
    fn reconstruct_rejects_infeasible() {
        let bad = DegreeProfile {
            nodes: 10,
            edges: 5,
            min_degree: 1,
            max_degree: 3,
        };
        assert!(reconstruct_degree_profile("bad", bad, 100.0, 1).is_err());
    }

    #[test]
    fn reconstruct_link_delays_positive() {
        let profile = DegreeProfile {
            nodes: 12,
            edges: 15,
            min_degree: 1,
            max_degree: 5,
        };
        let t = reconstruct_degree_profile("t", profile, 800.0, 3).unwrap();
        for l in t.links() {
            assert!(l.delay > 0.0);
        }
    }
}

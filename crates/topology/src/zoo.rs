//! The real-world topologies of the paper's evaluation (Table I).
//!
//! - [`abilene`] reproduces the Abilene / Internet2 backbone **exactly**
//!   (11 nodes, 14 links) from public Internet Topology Zoo data, with link
//!   delays derived from great-circle distances as in the paper.
//! - [`bt_europe`], [`china_telecom`], and [`interroute`] are deterministic
//!   statistical reconstructions matching Table I exactly (node count, edge
//!   count, min/max/avg degree); the original GraphML files are not
//!   redistributed here, but [`crate::graphml::parse`] loads them if you have
//!   them. See DESIGN.md §2 for the substitution rationale.
//!
//! Node indexing follows the paper's convention: the paper's node `v_k`
//! is [`NodeId`]`(k - 1)`. On Abilene, the evaluation uses ingress nodes
//! `v1..v5` ([`ABILENE_INGRESS`]) and egress `v8` ([`ABILENE_EGRESS`]).
//! The assignment of cities to `v1..v11` is chosen to reproduce the
//! behavioral facts the paper states about them: `v1..v3` are close
//! together with overlapping shortest paths to the egress (north-east:
//! Chicago, Indianapolis, New York → Washington DC), `v4` (Houston) and
//! `v5` (Seattle) are farther away with non-overlapping paths, the
//! shortest-path end-to-end delay from `v1`/`v2` plus 3×5 ms processing is
//! ≈21–23 ms as in Fig. 7, and no `v1`/`v2` flow can beat a 20 ms
//! deadline (Fig. 7's leftmost point).

use crate::generators::{reconstruct_degree_profile, DegreeProfile, US_PER_KM};
use crate::graph::{NodeId, Topology, TopologyBuilder};
use crate::stats::TopologyRow;

/// The paper's five candidate ingress nodes on Abilene (`v1..v5`).
///
/// `v1..v3` (Chicago, Indianapolis, New York) are close together so their
/// shortest paths to the egress overlap and compete for shared resources;
/// `v4` (Houston) and `v5` (Seattle) are farther away with disjoint
/// shortest paths (Sec. V-B).
pub const ABILENE_INGRESS: [NodeId; 5] = [NodeId(0), NodeId(1), NodeId(2), NodeId(3), NodeId(4)];

/// The paper's egress node on Abilene (`v8` = Washington DC).
pub const ABILENE_EGRESS: NodeId = NodeId(7);

/// The Abilene (Internet2) backbone: 11 US cities, 14 links.
///
/// Degrees: min 2, max 3, avg 2.55 — matching Table I. Link delays are
/// derived from great-circle distance at ≈5 µs/km; default capacities are 1,
/// to be overwritten per scenario
/// (e.g. [`Topology::assign_random_capacities`]).
///
/// # Example
///
/// ```
/// use dosco_topology::{stats::DegreeStats, zoo};
///
/// let t = zoo::abilene();
/// assert_eq!(t.num_nodes(), 11);
/// assert_eq!(t.num_links(), 14);
/// assert_eq!(DegreeStats::of(&t).max, 3);
/// ```
///
/// # Panics
///
/// Never: the cities are placed with positions and the link list joins
/// distinct pairs, so building is valid by construction.
#[allow(clippy::expect_used, reason = "the documented # Panics contract")]
pub fn abilene() -> Topology {
    let mut b = TopologyBuilder::new("Abilene");
    // Order encodes the paper's v1..v11 (see module docs).
    let chicago = b.add_node_at("Chicago", 1.0, 41.88, -87.63); // v1
    let indianapolis = b.add_node_at("Indianapolis", 1.0, 39.77, -86.16); // v2
    let newyork = b.add_node_at("NewYork", 1.0, 40.71, -74.01); // v3
    let houston = b.add_node_at("Houston", 1.0, 29.76, -95.37); // v4
    let seattle = b.add_node_at("Seattle", 1.0, 47.61, -122.33); // v5
    let denver = b.add_node_at("Denver", 1.0, 39.74, -104.99); // v6
    let kansascity = b.add_node_at("KansasCity", 1.0, 39.10, -94.58); // v7
    let washington = b.add_node_at("WashingtonDC", 1.0, 38.91, -77.04); // v8 (egress)
    let sunnyvale = b.add_node_at("Sunnyvale", 1.0, 37.37, -122.04); // v9
    let atlanta = b.add_node_at("Atlanta", 1.0, 33.75, -84.39); // v10
    let losangeles = b.add_node_at("LosAngeles", 1.0, 34.05, -118.24); // v11

    let pairs = [
        (seattle, sunnyvale),
        (seattle, denver),
        (sunnyvale, losangeles),
        (sunnyvale, denver),
        (losangeles, houston),
        (denver, kansascity),
        (kansascity, houston),
        (kansascity, indianapolis),
        (houston, atlanta),
        (indianapolis, chicago),
        (indianapolis, atlanta),
        (chicago, newyork),
        (atlanta, washington),
        (newyork, washington),
    ];
    for (a, bb) in pairs {
        b.add_link_geo(a, bb, 1.0, US_PER_KM)
            .expect("Abilene links are valid by construction");
    }
    b.build().expect("Abilene is non-empty")
}

/// BT Europe: 24 nodes, 37 edges, degree 1/13/3.08 (Table I).
///
/// Deterministic statistical reconstruction (hub-dominated European
/// backbone); see the module docs for the substitution rationale.
///
/// # Panics
///
/// Never: the degree profile is feasible, which the zoo tests pin.
#[allow(clippy::expect_used, reason = "the documented # Panics contract")]
pub fn bt_europe() -> Topology {
    reconstruct_degree_profile(
        "BT Europe",
        DegreeProfile {
            nodes: 24,
            edges: 37,
            min_degree: 1,
            max_degree: 13,
        },
        2500.0,
        0xB7_E0,
    )
    .expect("BT Europe profile is feasible")
}

/// China Telecom: 42 nodes, 66 edges, degree 1/20/3.14 (Table I).
///
/// The paper highlights this network as *highly skewed* in node degree,
/// which blows up the observation/action space (Δ_G = 20); the
/// reconstruction preserves exactly that skew.
///
/// # Panics
///
/// Never: the degree profile is feasible, which the zoo tests pin.
#[allow(clippy::expect_used, reason = "the documented # Panics contract")]
pub fn china_telecom() -> Topology {
    reconstruct_degree_profile(
        "China Telecom",
        DegreeProfile {
            nodes: 42,
            edges: 66,
            min_degree: 1,
            max_degree: 20,
        },
        4000.0,
        0xC11A,
    )
    .expect("China Telecom profile is feasible")
}

/// Interroute: 110 nodes, 158 edges, degree 1/7/2.87 (Table I).
///
/// # Panics
///
/// Never: the degree profile is feasible, which the zoo tests pin.
#[allow(clippy::expect_used, reason = "the documented # Panics contract")]
pub fn interroute() -> Topology {
    reconstruct_degree_profile(
        "Interroute",
        DegreeProfile {
            nodes: 110,
            edges: 158,
            min_degree: 1,
            max_degree: 7,
        },
        3000.0,
        0x1417,
    )
    .expect("Interroute profile is feasible")
}

/// All four evaluation topologies in Table I order.
pub fn all() -> Vec<Topology> {
    vec![abilene(), bt_europe(), china_telecom(), interroute()]
}

/// The rows of Table I, computed from the bundled topologies.
pub fn table1() -> Vec<TopologyRow> {
    all().iter().map(TopologyRow::of).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paths::ShortestPaths;
    use crate::stats::DegreeStats;

    #[test]
    fn abilene_matches_table1() {
        let t = abilene();
        assert_eq!(t.num_nodes(), 11);
        assert_eq!(t.num_links(), 14);
        let s = DegreeStats::of(&t);
        assert_eq!((s.min, s.max), (2, 3));
        assert!((s.avg - 2.545).abs() < 0.01);
        assert!(t.is_connected());
    }

    #[test]
    fn bt_europe_matches_table1() {
        let t = bt_europe();
        assert_eq!(t.num_nodes(), 24);
        assert_eq!(t.num_links(), 37);
        let s = DegreeStats::of(&t);
        assert_eq!((s.min, s.max), (1, 13));
        assert!((s.avg - 3.083).abs() < 0.01);
        assert!(t.is_connected());
    }

    #[test]
    fn china_telecom_matches_table1() {
        let t = china_telecom();
        assert_eq!(t.num_nodes(), 42);
        assert_eq!(t.num_links(), 66);
        let s = DegreeStats::of(&t);
        assert_eq!((s.min, s.max), (1, 20));
        assert!((s.avg - 66.0 * 2.0 / 42.0).abs() < 0.01);
        assert!(t.is_connected());
    }

    #[test]
    fn interroute_matches_table1() {
        let t = interroute();
        assert_eq!(t.num_nodes(), 110);
        assert_eq!(t.num_links(), 158);
        let s = DegreeStats::of(&t);
        assert_eq!((s.min, s.max), (1, 7));
        assert!((s.avg - 2.872).abs() < 0.01);
        assert!(t.is_connected());
    }

    #[test]
    fn abilene_ingress_geography() {
        let t = abilene();
        let sp = ShortestPaths::compute(&t);
        // v1 (Chicago) transits New York (v3): overlapping resources in
        // the north-east cluster.
        let p1 = sp.path(NodeId(0), ABILENE_EGRESS).unwrap();
        assert!(
            p1.contains(&NodeId(2)),
            "Chicago should transit NY, got {p1:?}"
        );
        // v3 (New York) is one hop from the egress (Washington DC).
        assert_eq!(
            sp.path(NodeId(2), ABILENE_EGRESS),
            Some(vec![ABILENE_EGRESS])
        );
        // v4 (Houston) goes the disjoint southern way via Atlanta.
        let p4 = sp.path(NodeId(3), ABILENE_EGRESS).unwrap();
        assert!(
            p4.contains(&NodeId(9)),
            "Houston should transit Atlanta, got {p4:?}"
        );
        assert!(!p4.contains(&NodeId(2)));
        // v5 (Seattle) is far away.
        let d5 = sp.delay(NodeId(4), ABILENE_EGRESS);
        assert!(d5 > 2.0 * sp.delay(NodeId(0), ABILENE_EGRESS));
    }

    #[test]
    fn abilene_v1_v2_sp_delay_matches_fig7() {
        // Fig. 7: SP end-to-end delay is ~21 ms with 15 ms total
        // processing, so the mean v1/v2 path delay must be ~5-9 ms — and
        // no v1/v2 flow may beat a 20 ms deadline (min path delay > 5 ms).
        let t = abilene();
        let sp = ShortestPaths::compute(&t);
        let d1 = sp.delay(NodeId(0), ABILENE_EGRESS);
        let d2 = sp.delay(NodeId(1), ABILENE_EGRESS);
        let mean = (d1 + d2) / 2.0;
        assert!(mean > 5.0 && mean < 9.5, "mean v1/v2 path delay {mean} ms");
        assert!(d1.min(d2) > 5.0, "τ=20 must be infeasible: {d1} {d2}");
    }

    #[test]
    fn zoo_is_deterministic() {
        assert_eq!(bt_europe(), bt_europe());
        assert_eq!(china_telecom(), china_telecom());
        assert_eq!(interroute(), interroute());
    }

    #[test]
    fn table1_has_four_rows_in_paper_order() {
        let rows = table1();
        let names: Vec<&str> = rows.iter().map(|r| r.name.as_str()).collect();
        assert_eq!(
            names,
            vec!["Abilene", "BT Europe", "China Telecom", "Interroute"]
        );
    }
}

//! Property-based tests for the topology substrate.

use dosco_topology::generators::{self, DegreeProfile};
use dosco_topology::paths::ShortestPaths;
use dosco_topology::stats::DegreeStats;
use dosco_topology::{LinkId, NodeId, Topology, TopologyBuilder};
use proptest::prelude::*;

/// Applies one packed churn op to the masks (the vendored proptest has no
/// tuple strategies): kind, entity index, delay factor.
fn churn_op(
    topo: &Topology,
    op: u64,
    node_up: &mut [bool],
    link_up: &mut [bool],
    delays: &mut [f64],
) {
    let (kind, idx, factor) = (op % 4, (op / 4) as usize % 64, 1 + (op / 256) % 5);
    match kind {
        0 => {
            let i = idx % link_up.len();
            link_up[i] = !link_up[i];
        }
        1 => {
            let i = idx % node_up.len();
            node_up[i] = !node_up[i];
        }
        2 => {
            let i = idx % delays.len();
            delays[i] = topo.link(LinkId(i)).delay * factor as f64;
        }
        _ => {
            // Explicit restore: entity up, nominal delay.
            let i = idx % link_up.len();
            link_up[i] = true;
            delays[i] = topo.link(LinkId(i)).delay;
        }
    }
}

proptest! {
    /// Shortest-path delays on any connected random geometric graph satisfy
    /// the triangle inequality and are symmetric.
    #[test]
    fn shortest_paths_metric(seed in 0u64..50, n in 5usize..25) {
        let topo = generators::random_geometric(n, 300.0, 120.0, seed).unwrap();
        let sp = ShortestPaths::compute(&topo);
        for a in topo.node_ids() {
            for b in topo.node_ids() {
                prop_assert!((sp.delay(a, b) - sp.delay(b, a)).abs() < 1e-9);
                for c in topo.node_ids() {
                    prop_assert!(sp.delay(a, c) <= sp.delay(a, b) + sp.delay(b, c) + 1e-9);
                }
            }
        }
    }

    /// Walking next-hop chains always reaches the destination and the hop
    /// delays sum to the reported shortest-path delay.
    #[test]
    fn next_hops_reach_destination(seed in 0u64..50, n in 4usize..20) {
        let topo = generators::random_geometric(n, 300.0, 120.0, seed).unwrap();
        let sp = ShortestPaths::compute(&topo);
        for s in topo.node_ids() {
            for t in topo.node_ids() {
                let path = sp.path(s, t).expect("connected graph");
                let mut total = 0.0;
                let mut cur = s;
                for &hop in &path {
                    let l = topo.link_between(cur, hop).expect("consecutive hops adjacent");
                    total += topo.link(l).delay;
                    cur = hop;
                }
                prop_assert_eq!(cur, t);
                prop_assert!((total - sp.delay(s, t)).abs() < 1e-9);
            }
        }
    }

    /// The degree-profile reconstruction hits its stats exactly whenever it
    /// reports success, for arbitrary feasible profiles.
    #[test]
    fn reconstruction_matches_profile(
        seed in 0u64..20,
        n in 8usize..40,
        extra in 0usize..20,
        hub in 3usize..7,
    ) {
        prop_assume!(hub < n - 2);
        let profile = DegreeProfile {
            nodes: n,
            edges: (n - 1) + extra,
            min_degree: 1,
            max_degree: hub,
        };
        if let Ok(t) = generators::reconstruct_degree_profile("p", profile, 500.0, seed) {
            prop_assert_eq!(t.num_nodes(), n);
            prop_assert_eq!(t.num_links(), n - 1 + extra);
            let s = DegreeStats::of(&t);
            prop_assert_eq!(s.min, 1);
            prop_assert_eq!(s.max, hub);
            prop_assert!(t.is_connected());
        }
    }

    /// Neighbor lists are sorted, deduplicated, and mutual.
    #[test]
    fn adjacency_consistent(seed in 0u64..50, n in 3usize..25) {
        let topo = generators::random_geometric(n, 300.0, 100.0, seed).unwrap();
        for v in topo.node_ids() {
            let neigh = topo.neighbors(v);
            for w in neigh.windows(2) {
                prop_assert!(w[0].0 < w[1].0, "sorted and deduped");
            }
            for &(u, l) in neigh {
                prop_assert_ne!(u, v);
                prop_assert_eq!(topo.link(l).other(v), u);
                prop_assert!(topo.neighbors(u).iter().any(|&(x, _)| x == v));
            }
        }
        let max_deg = topo.node_ids().map(|v| topo.degree(v)).max().unwrap();
        prop_assert_eq!(max_deg, topo.network_degree());
    }

    /// Node id round-trip through `Display` stays parseable.
    #[test]
    fn node_id_display(idx in 0usize..1000) {
        let v = NodeId(idx);
        prop_assert_eq!(v.to_string(), format!("v{idx}"));
    }

    /// The churn fast path: after an arbitrary sequence of link/node
    /// removals, restores, and delay overrides, `compute_masked` on the
    /// original topology equals a fresh `compute` on a topology with the
    /// dead entities physically removed and the overridden delays baked
    /// in — including disconnected pairs, which must stay unreachable.
    #[test]
    fn masked_paths_equal_fresh_compute_on_mutated_topology(
        seed in 0u64..30,
        n in 5usize..16,
        ops in proptest::collection::vec(0u64..1_000_000, 0..24),
    ) {
        let topo = generators::random_geometric(n, 300.0, 120.0, seed).unwrap();
        let mut node_up = vec![true; topo.num_nodes()];
        let mut link_up = vec![true; topo.num_links()];
        let mut delays: Vec<f64> = topo.link_ids().map(|l| topo.link(l).delay).collect();
        for &op in &ops {
            churn_op(&topo, op, &mut node_up, &mut link_up, &mut delays);
        }
        prop_assume!(node_up.iter().any(|&u| u));
        let masked = ShortestPaths::compute_masked(&topo, &node_up, &link_up, &delays);

        // Reference: rebuild the surviving substrate from scratch.
        let mut b = TopologyBuilder::new("mutated");
        let mut map: Vec<Option<NodeId>> = vec![None; topo.num_nodes()];
        for v in topo.node_ids() {
            if node_up[v.0] {
                let node = topo.node(v);
                map[v.0] = Some(b.add_node(node.name.clone(), node.capacity));
            }
        }
        for l in topo.link_ids() {
            if !link_up[l.0] {
                continue;
            }
            let link = topo.link(l);
            if let (Some(a), Some(t)) = (map[link.a.0], map[link.b.0]) {
                b.add_link(a, t, delays[l.0], link.capacity).unwrap();
            }
        }
        let fresh = ShortestPaths::compute(&b.build().unwrap());

        for a in topo.node_ids() {
            for t in topo.node_ids() {
                let got = masked.delay(a, t);
                match (map[a.0], map[t.0]) {
                    (Some(fa), Some(ft)) => {
                        let want = fresh.delay(fa, ft);
                        if want.is_finite() {
                            prop_assert!(
                                (got - want).abs() < 1e-9,
                                "delay({a}, {t}): masked {got} vs fresh {want}"
                            );
                        } else {
                            prop_assert!(
                                got.is_infinite(),
                                "disconnected pair ({a}, {t}) must stay unreachable, got {got}"
                            );
                        }
                    }
                    _ if a == t => prop_assert_eq!(got, 0.0, "self delay survives failure"),
                    _ => prop_assert!(
                        got.is_infinite(),
                        "pair ({a}, {t}) touches a dead node, got {got}"
                    ),
                }
            }
        }
    }

    /// Resumable rows: re-masks interleaved with partial reads leave a
    /// table that answers every pair exactly like an eager
    /// `compute_masked` of the final masks — whichever rows were read, and
    /// however far each was settled, under an earlier mask, and in
    /// whatever order (repeats included) the final reads then arrive.
    #[test]
    fn remasks_and_partial_reads_equal_eager_masked_compute(
        seed in 0u64..30,
        n in 5usize..16,
        ops in proptest::collection::vec(0u64..1_000_000, 0..24),
        reads in proptest::collection::vec(0usize..256, 0..64),
    ) {
        let topo = generators::random_geometric(n, 300.0, 120.0, seed).unwrap();
        let mut node_up = vec![true; topo.num_nodes()];
        let mut link_up = vec![true; topo.num_links()];
        let mut delays: Vec<f64> = topo.link_ids().map(|l| topo.link(l).delay).collect();
        let mut sp = ShortestPaths::compute(&topo);
        for &op in &ops {
            // Two ops in three re-mask, every op then reads 0–2 pairs.
            if op % 3 != 0 {
                churn_op(&topo, op / 3, &mut node_up, &mut link_up, &mut delays);
                sp.remask(&node_up, &link_up, &delays);
            }
            for read in 0..(op / 1_000) % 3 {
                let pair = (op / 7 + 13 * read) as usize;
                let (s, t) = (NodeId(pair % n), NodeId(pair / n % n));
                sp.delay(s, t);
                sp.next_hop(t, s);
            }
        }
        let eager = ShortestPaths::compute_masked(&topo, &node_up, &link_up, &delays);
        for pair in reads {
            let (s, t) = (NodeId(pair % n), NodeId(pair / n % n));
            prop_assert_eq!(sp.next_hop(s, t), eager.next_hop(s, t), "next_hop({}, {})", s, t);
            prop_assert_eq!(sp.delay(s, t), eager.delay(s, t), "delay({}, {})", s, t);
        }
        for s in topo.node_ids() {
            for t in topo.node_ids() {
                prop_assert_eq!(sp.delay(s, t), eager.delay(s, t), "delay({}, {})", s, t);
                prop_assert_eq!(sp.next_hop(s, t), eager.next_hop(s, t), "next_hop({}, {})", s, t);
            }
        }
    }
    /// Fault-local re-masks: whichever rows a fault keeps, every read
    /// between faults answers exactly what an eager `compute_masked` of
    /// the masks in force at that moment answers — the delay to the bit
    /// and the next hop — on grids (equal delays, so ties everywhere),
    /// rings, lines, stars and geometric graphs.
    #[test]
    fn every_read_between_faults_equals_compute_masked_of_the_current_masks(
        shape in 0u64..5,
        seed in 0u64..30,
        ops in proptest::collection::vec(0u64..1_000_000, 1..32),
    ) {
        let size = 4 + (seed % 5) as usize;
        let topo = match shape {
            0 => generators::grid(3, size, 1.0, 1.0),
            1 => generators::ring(size + 2, 2.0, 1.0),
            2 => generators::line(size, 1.5, 1.0),
            3 => generators::star(size, 1.0, 1.0),
            _ => generators::random_geometric(size + 4, 300.0, 120.0, seed).unwrap(),
        };
        let n = topo.num_nodes();
        let mut node_up = vec![true; n];
        let mut link_up = vec![true; topo.num_links()];
        let mut delays: Vec<f64> = topo.link_ids().map(|l| topo.link(l).delay).collect();
        let mut sp = ShortestPaths::compute(&topo);
        for &op in &ops {
            // Three ops in four change the masks; every op then reads
            // 1–4 pairs, each checked against the masks in force.
            if op % 4 != 0 {
                churn_op(&topo, op / 4, &mut node_up, &mut link_up, &mut delays);
                sp.remask(&node_up, &link_up, &delays);
            }
            let eager = ShortestPaths::compute_masked(&topo, &node_up, &link_up, &delays);
            for read in 0..1 + (op / 1_000) % 4 {
                let pair = (op / 5 + 17 * read) as usize;
                let (s, t) = (NodeId(pair % n), NodeId(pair / n % n));
                let (got, want) = (sp.delay(s, t), eager.delay(s, t));
                prop_assert_eq!(got.to_bits(), want.to_bits(), "delay({}, {}): {} vs {}", s, t, got, want);
                prop_assert_eq!(sp.next_hop(s, t), eager.next_hop(s, t), "next_hop({}, {})", s, t);
            }
        }
    }
}

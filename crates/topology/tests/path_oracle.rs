//! The repaired path table against its oracle, at depth.
//!
//! `ShortestPaths::remask` repairs every row in place; `compute_masked`
//! runs a fresh Dijkstra from every source. After every operation of a
//! random churn script, every read of the repaired table — the delay to
//! the bit and the next hop — must equal a fresh `compute_masked` of the
//! masks in force. Shapes: grids, rings, lines and stars of equal delays
//! (ties everywhere) and geometric graphs (distinct delays). Operations:
//! link and node toggles, delay spikes (×2 ties a unit link with every
//! two-hop detour), restores, and zero or tiny spikes (×0, ×1e-300), after
//! which the table must fall back to recomputing.
//!
//! The deep run is `#[ignore]`d and meant for release builds:
//!
//! ```text
//! cargo test --release -p dosco-topology --test path_oracle -- --include-ignored
//! ```

use dosco_topology::generators;
use dosco_topology::paths::ShortestPaths;
use dosco_topology::Topology;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Spike factors: ordinary, tie-making, and order-breaking ones.
const FACTORS: [f64; 7] = [0.5, 1.5, 2.0, 3.0, 4.0, 0.0, 1e-300];

fn shape(case: u64, rng: &mut StdRng) -> Topology {
    let size = rng.gen_range(3..9);
    match case % 5 {
        0 => generators::grid(rng.gen_range(2..6), size, 1.0, 1.0),
        1 => generators::ring(size + 2, 2.0, 1.0),
        2 => generators::line(size, 1.5, 1.0),
        3 => generators::star(size, 1.0, 1.0),
        _ => generators::random_geometric(size + 6, 300.0, 120.0, case)
            .expect("a non-empty geometric graph"),
    }
}

/// Runs `ops` random operations on one random topology, checking every
/// read after each against a fresh `compute_masked`.
fn check_case(case: u64, ops: usize) {
    let mut rng = StdRng::seed_from_u64(case);
    let topo = shape(case, &mut rng);
    let (n, m) = (topo.num_nodes(), topo.num_links());
    let nominal: Vec<f64> = topo.link_ids().map(|l| topo.link(l).delay).collect();
    let (mut node_up, mut link_up, mut delays) = (vec![true; n], vec![true; m], nominal.clone());
    let mut sp = ShortestPaths::compute(&topo);
    let mut check = |op: usize, node_up: &[bool], link_up: &[bool], delays: &[f64]| {
        sp.remask(node_up, link_up, delays);
        let eager = ShortestPaths::compute_masked(&topo, node_up, link_up, delays);
        for s in topo.node_ids() {
            for t in topo.node_ids() {
                let (got, want) = (sp.delay(s, t), eager.delay(s, t));
                assert_eq!(
                    got.to_bits(),
                    want.to_bits(),
                    "case {case} op {op}: delay({s}, {t}) {got} vs {want}"
                );
                assert_eq!(
                    sp.next_hop(s, t),
                    eager.next_hop(s, t),
                    "case {case} op {op}: next_hop({s}, {t})"
                );
            }
        }
    };
    for op in 0..ops {
        let (l, v) = (rng.gen_range(0..m), rng.gen_range(0..n));
        match rng.gen_range(0..20) {
            0..=7 => link_up[l] = !link_up[l],
            8..=11 => node_up[v] = !node_up[v],
            12..=15 => delays[l] = nominal[l] * FACTORS[rng.gen_range(0..5)],
            16 => {
                // An order-breaking spike, restored by the next re-mask,
                // so that most of the script exercises the repair.
                delays[l] = nominal[l] * FACTORS[rng.gen_range(5..7)];
                check(op, &node_up, &link_up, &delays);
                delays[l] = nominal[l];
            }
            _ => (link_up[l], delays[l]) = (true, nominal[l]),
        }
        check(op, &node_up, &link_up, &delays);
    }
}

#[test]
fn repaired_reads_equal_compute_masked_on_a_few_scripts() {
    for case in 0..40 {
        check_case(case, 30);
    }
}

#[test]
#[ignore = "thousands of scripts: run in release with --include-ignored"]
fn repaired_reads_equal_compute_masked_on_thousands_of_scripts() {
    for case in 1_000..11_000 {
        check_case(case, 60);
    }
}

//! Regenerates **Fig. 9**: scalability on large real-world topologies.
//!
//! - `--part success` (Fig. 9a): percentage of successful flows on
//!   Abilene, BT Europe, China Telecom, and Interroute (Poisson traffic at
//!   v1/v2, egress v8).
//! - `--part latency` (Fig. 9b): per-decision inference time of the
//!   distributed agent (invariant in network size, ~O(Δ_G)) versus the
//!   centralized agent (scales with the network size).
//!
//! ```text
//! cargo run -p dosco-bench --release --bin fig9 -- --part success
//! cargo run -p dosco-bench --release --bin fig9 -- --part latency
//! ```

use dosco_bench::report::{print_series, SeriesPoint};
use dosco_bench::runner::{train_central_drl, train_dist_drl_cached, Algo, ExpBudget};
use dosco_bench::scenarios::topology_scenario;
use dosco_core::ObservationAdapter;
use dosco_topology::zoo;
use std::time::Instant;

fn part_success(budget: &ExpBudget) {
    let mut points = Vec::new();
    for topo in zoo::all() {
        let name = topo.name().to_string();
        let scenario = topology_scenario(topo, budget.horizon);
        let key = format!("fig9-{}", name.replace(' ', "_"));
        let dist = train_dist_drl_cached(&key, &scenario, budget);
        let central = train_central_drl(&scenario, budget);
        for algo in [
            Algo::DistDrl(dist),
            Algo::CentralDrl(central),
            Algo::Gcasp,
            Algo::Sp,
        ] {
            let stats = algo.evaluate(&scenario, &budget.eval_seeds);
            eprintln!(
                "[fig9a] {name:<14} {:<10} {:.3} ± {:.3}",
                algo.name(),
                stats.mean_success,
                stats.std_success
            );
            points.push(SeriesPoint {
                algo: algo.name(),
                x: name.clone(),
                stats,
            });
        }
    }
    print_series(
        "Fig 9a",
        "successful flows on large topologies",
        &points,
        false,
    );
}

/// Measures per-decision wall-clock times by timing repeated inference
/// calls on representative observations.
fn part_latency(budget: &ExpBudget) {
    println!("\n== Fig 9b — per-decision inference time (ms, log scale in the paper) ==");
    println!(
        "{:<14} {:>8} {:>6} {:>14} {:>14}",
        "network", "nodes", "Δ_G", "DistDRL (ms)", "CentralDRL (ms)"
    );
    println!("csv-header: figure,network,nodes,degree,dist_ms,central_ms");
    for topo in zoo::all() {
        let name = topo.name().to_string();
        let nodes = topo.num_nodes();
        let degree = topo.network_degree();
        let scenario = topology_scenario(topo, budget.horizon);
        let key = format!("fig9-{}", name.replace(' ', "_"));
        let dist = train_dist_drl_cached(&key, &scenario, budget);
        let central = train_central_drl(&scenario, budget);

        // Distributed decision: one local observation -> one forward pass.
        let adapter = ObservationAdapter::new(degree);
        let obs = vec![0.1f32; adapter.obs_dim()];
        let reps = 2_000u32;
        let t = Instant::now();
        let mut sink = 0usize;
        for _ in 0..reps {
            sink = sink.wrapping_add(dist.act(&obs));
        }
        let dist_ms = t.elapsed().as_secs_f64() * 1000.0 / f64::from(reps);

        // Centralized decision: the rule update over the global snapshot
        // (the cost every flow pays when the central agent decides per
        // flow; scales with the network size).
        let snapshot = vec![0.5f32; nodes];
        let t = Instant::now();
        for _ in 0..reps {
            sink = sink.wrapping_add(central.rules_for(&snapshot).len());
        }
        let central_ms = t.elapsed().as_secs_f64() * 1000.0 / f64::from(reps);
        std::hint::black_box(sink);

        println!("{name:<14} {nodes:>8} {degree:>6} {dist_ms:>14.4} {central_ms:>14.4}");
        println!("csv: fig9b,{name},{nodes},{degree},{dist_ms:.5},{central_ms:.5}");
    }
}

fn main() {
    let (flags, budget) = ExpBudget::with_flags("--part", "").unwrap_or_else(|e| e.exit());
    let part = flags
        .value("--part", "success|latency|all", |p: &String| {
            ["success", "latency", "all"].contains(&p.as_str())
        })
        .unwrap_or_else(|e| e.exit())
        .unwrap_or_else(|| "success".into());
    if part != "latency" {
        part_success(&budget);
    }
    if part != "success" {
        part_latency(&budget);
    }
}

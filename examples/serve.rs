//! Serving-plane quickstart: train a coordination policy briefly, publish
//! it to the versioned policy hub, and serve concurrent episodes through
//! the sharded `dosco_serve` inference fabric — with a policy hot-swap
//! landing mid-run and one shard killed and recovered under traffic.
//!
//! ```text
//! cargo run --release --example serve
//! ```
//!
//! Set `DOSCO_SPANS=1` for per-decision latency spans and batch-forward
//! timings in the printed observability report.
//!
//! What to look for in the output:
//! - the swap is picked up at a deterministic epoch boundary and every
//!   decision is attributed to the version that produced it,
//! - during the kill window, shard 0's nodes are served by the
//!   shortest-path fallback — counted, never dropped,
//! - the respawned shard comes back at the *published* version, and the
//!   conservation check (batched + fallback == total) holds.

use dosco::core::policy::PolicyMetadata;
use dosco::core::{CoordEnv, CoordinationPolicy, RewardConfig};
use dosco::rl::a2c::{A2c, A2cConfig};
use dosco::rl::Env;
use dosco::serve::{serve_with, FaultScript, PolicySlot, PolicySnapshot, ServeConfig};
use dosco::simnet::ScenarioConfig;
use dosco::traffic::ArrivalPattern;
use std::sync::Arc;

fn main() {
    if let Err(e) = dosco::obs::init_from_env() {
        eprintln!("{e}");
        std::process::exit(2);
    }

    let scenario = ScenarioConfig::paper_base(2)
        .with_pattern(ArrivalPattern::paper_poisson())
        .with_horizon(500.0);
    let degree = scenario.topology.network_degree();
    let (obs_dim, num_actions) = (4 * degree + 4, degree + 1);

    // Train briefly: enough for a real (if rough) policy, fast enough for
    // an example.
    println!("training A2C for 4,000 transitions ...");
    let mut agent = A2c::new(
        obs_dim,
        num_actions,
        A2cConfig {
            n_steps: 16,
            hidden: [64, 64],
            ..A2cConfig::default()
        },
        0,
    );
    let mut envs: Vec<Box<dyn Env>> = (0..4)
        .map(|i| {
            Box::new(CoordEnv::new(
                scenario.clone(),
                RewardConfig::default(),
                2_000 + i,
                None,
            )) as Box<dyn Env>
        })
        .collect();
    let stats = agent.train(&mut envs, 4_000);
    println!(
        "  trained {} steps, tail mean reward {:.4}",
        stats.total_steps,
        stats.tail_mean(10)
    );

    // The hub starts at version 0 with the *untrained* initial weights —
    // the serving fabric subscribes here, exactly as it would to a live
    // learner. We publish the trained weights mid-run as version 1.
    let untrained = A2c::new(obs_dim, num_actions, A2cConfig::default(), 0);
    let hub = PolicySlot::new(PolicySnapshot {
        version: 0,
        actor: untrained.actor().clone(),
        critic: untrained.critic().clone(),
    });
    let trained = Arc::new(PolicySnapshot {
        version: 1,
        actor: agent.actor().clone(),
        critic: agent.critic().clone(),
    });

    // The policy argument fixes the observation contract (padded degree);
    // with a hub attached the served weights come from the hub.
    let contract =
        CoordinationPolicy::new(untrained.actor().clone(), degree, PolicyMetadata::default());

    // 4 shards over the topology's nodes; shard 0 is killed for epochs
    // 30..45 — its nodes degrade to shortest-path until it respawns.
    let cfg = ServeConfig::new(4).with_faults(FaultScript::new().kill(0, 30, 45));
    println!(
        "serving 6 episodes across {} shards (hot-swap at epoch 20, shard 0 down 30..45) ...",
        cfg.num_shards
    );
    let outcome = serve_with(
        &contract,
        Some(&hub),
        &scenario,
        &[1, 2, 3, 4, 5, 6],
        &cfg,
        |epoch| {
            if epoch == 20 {
                hub.publish(Arc::clone(&trained));
            }
        },
    );

    let r = &outcome.report;
    println!("serve report:");
    println!("  epochs                {}", r.epochs);
    println!("  decisions             {}", r.decisions);
    println!("  batched               {}", r.batched_decisions);
    println!("  SP fallbacks          {}", r.fallback_decisions);
    println!("  hot-swaps             {}", r.swaps);
    println!(
        "  shard kills/respawns  {}/{}",
        r.shard_kills, r.shard_respawns
    );
    println!("  max batch rows        {}", r.max_batch_rows);
    println!("  final version         {}", r.final_version);
    println!("  shard versions        {:?}", r.shard_versions);
    for &(v, n) in &r.decisions_by_version {
        println!("  decisions @ v{v}       {n}");
    }
    assert!(r.conserved(), "batched + fallback must equal total");
    println!("conservation holds: batched + fallback == decisions");
    assert!(
        r.shard_versions.iter().all(|&v| v == r.final_version),
        "every shard re-synced to the published version"
    );

    for (i, m) in outcome.metrics.iter().enumerate() {
        println!(
            "  episode {i}: {} flows arrived, success ratio {:.3}",
            m.arrived,
            m.success_ratio()
        );
    }

    // Serve-plane view of the metrics registry: counters, the batch-size
    // histogram, and (under DOSCO_SPANS=1) batched-forward span timings.
    let obs = dosco::obs::report();
    println!("\nobservability (serve_* metrics):");
    for c in obs.counters.iter().filter(|c| c.name.starts_with("serve_")) {
        println!("  counter {:<24} {}", c.name, c.value);
    }
    for g in obs.gauges.iter().filter(|g| g.name.contains("serve")) {
        println!("  gauge   {:<24} {}", g.name, g.value);
    }
    if let Some(h) = obs.histograms.iter().find(|h| h.name == "serve_batch_size") {
        println!(
            "  hist    {:<24} count {} mean {:.2}",
            h.name,
            h.count,
            if h.count > 0 {
                h.sum / h.count as f64
            } else {
                0.0
            }
        );
    }
    for s in obs.spans.iter().filter(|s| s.name.starts_with("serve_")) {
        if s.count > 0 {
            println!(
                "  span    {:<24} count {} total {:.2} ms max {:.3} ms",
                s.name, s.count, s.total_ms, s.max_ms
            );
        }
    }
}

//! The serve oracle at depth: many episodes, every shard count, greedy
//! and stochastic, and the fault and hot-swap scripts of
//! `fault_injection.rs` and `hot_swap.rs` at four times their horizon.
//! A paper-width actor, and the back half of every batch of four rows or
//! more forwarded as the helper's part throughout.
//!
//! `#[ignore]`d: it runs in release from `scripts/check.sh`
//! (`cargo test --release -p dosco-serve --test serve_oracle --
//! --include-ignored`).

use dosco_core::policy::PolicyMetadata;
use dosco_core::{CoordinationPolicy, DistributedAgents};
use dosco_nn::mlp::{Activation, Mlp};
use dosco_serve::{serve, serve_with, FaultScript, PolicySlot, PolicySnapshot, ServeConfig};
use dosco_simnet::{Coordinator, Metrics, ScenarioConfig, Simulation};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

fn scenario(horizon: f64) -> ScenarioConfig {
    ScenarioConfig::paper_base(2).with_horizon(horizon)
}

fn actor(degree: usize, seed: u64) -> Mlp {
    Mlp::paper_arch(4 * degree + 4, degree + 1, &mut StdRng::seed_from_u64(seed))
}

fn snap(degree: usize, version: u64, seed: u64) -> Arc<PolicySnapshot> {
    let critic = Mlp::new(
        &[4 * degree + 4, 24, 1],
        Activation::Tanh,
        &mut StdRng::seed_from_u64(seed + 1),
    );
    Arc::new(PolicySnapshot {
        version,
        actor: actor(degree, seed),
        critic,
    })
}

/// The in-process deployment of a multi-episode serve: the episodes step
/// in lockstep, one decision each per epoch in episode order, through
/// one set of per-node agents — so a stochastic deployment's node streams
/// advance in the fabric's request order. `swap(epoch)` may replace the
/// deployment at the start of an epoch, as a hub publish does.
fn lockstep(
    scenario: &ScenarioConfig,
    seeds: &[u64],
    mut agents: DistributedAgents,
    mut swap: impl FnMut(u64) -> Option<DistributedAgents>,
) -> Vec<Metrics> {
    let mut sims: Vec<Simulation> = seeds
        .iter()
        .map(|&s| Simulation::new(scenario.clone(), s))
        .collect();
    let mut events = Vec::new();
    for epoch in 0.. {
        if let Some(swapped) = swap(epoch) {
            agents = swapped;
        }
        let mut decided = false;
        for sim in &mut sims {
            sim.drain_events_into(&mut events);
            if let Some(dp) = sim.next_decision() {
                let action = agents.decide(sim, &dp);
                sim.apply(action);
                decided = true;
            }
        }
        if !decided {
            break;
        }
    }
    sims.iter().map(|s| s.metrics().clone()).collect()
}

/// 64 episodes on 1, 2 and 4 shards, greedy and stochastic: every
/// episode equals the in-process deployment's, and the one-shard serves
/// hand rows to the helper.
#[test]
#[ignore = "release depth run; scripts/check.sh runs it"]
fn sixty_four_episodes_on_every_shard_count_equal_the_in_process_deployment() {
    let scenario = scenario(500.0);
    let degree = scenario.topology.network_degree();
    let nodes = scenario.topology.num_nodes();
    let p = CoordinationPolicy::new(actor(degree, 21), degree, PolicyMetadata::default());
    let seeds: Vec<u64> = (0..64).map(|e| 500 + e).collect();
    for stochastic in [None, Some(17)] {
        let agents = match stochastic {
            Some(seed) => DistributedAgents::deploy_stochastic(&p, nodes, seed),
            None => DistributedAgents::deploy(&p, nodes),
        };
        let expected = lockstep(&scenario, &seeds, agents, |_| None);
        for shards in [1, 2, 4] {
            let mut cfg = ServeConfig::new(shards);
            cfg.stochastic_seed = stochastic;
            let out = serve(&p, None, &scenario, &seeds, &cfg);
            let r = &out.report;
            let what = format!("{shards} shards, stochastic seed {stochastic:?}");
            assert!(r.conserved(), "{what}: {r:?}");
            assert_eq!(r.fallback_decisions, 0, "{what}");
            if shards == 1 {
                assert!(r.helped_rows > 0, "{what}: {r:?}");
            }
            for (e, (got, want)) in out.metrics.iter().zip(&expected).enumerate() {
                assert_eq!(got, want, "{what}: episode {e} (seed {})", seeds[e]);
            }
            assert_eq!(out.metrics.len(), expected.len(), "{what}");
        }
    }
}

/// `fault_injection.rs`' kill window with a publish before it, at four
/// times its horizon: the killed shard's decisions fall back, it respawns
/// at the published version, and both versions' decisions add up to the
/// batched total.
#[test]
#[ignore = "release depth run; scripts/check.sh runs it"]
fn kill_window_and_swap_at_four_times_the_horizon_conserve_every_decision() {
    let scenario = scenario(1600.0);
    let degree = scenario.topology.network_degree();
    let p = CoordinationPolicy::new(actor(degree, 11), degree, PolicyMetadata::default());
    let hub = PolicySlot::new(PolicySnapshot::clone(&snap(degree, 0, 11)));
    let v1 = snap(degree, 1, 99);
    let cfg = ServeConfig::new(4).with_faults(FaultScript::new().kill(0, 12, 20));
    let out = serve_with(&p, Some(&hub), &scenario, &[3, 7, 13, 29], &cfg, |epoch| {
        if epoch == 8 {
            hub.publish(Arc::clone(&v1));
        }
    });
    let r = &out.report;
    assert!(r.conserved(), "{r:?}");
    assert!(r.fallback_decisions > 0, "{r:?}");
    assert_eq!(
        (r.shard_kills, r.shard_respawns, r.swaps),
        (1, 1, 1),
        "{r:?}"
    );
    assert!(r.shard_versions.iter().all(|&v| v == 1), "{r:?}");
    let (v0, v1) = (r.decisions_at_version(0), r.decisions_at_version(1));
    assert!(v0 > 0 && v1 > v0, "{r:?}");
    assert_eq!(v0 + v1, r.batched_decisions, "{r:?}");
}

/// `hot_swap.rs`' six hub publishes on consecutive epochs, at four times
/// its horizon, on one shard and on four: every decision is attributed
/// to the version it was served under — each episode equals an
/// in-process deployment that swaps at the same epochs, so a handed-over
/// row is answered under the version its shard serves.
#[test]
#[ignore = "release depth run; scripts/check.sh runs it"]
fn rapid_hub_publishes_at_four_times_the_horizon_serve_every_version_exactly() {
    const K: u64 = 6;
    let scenario = scenario(1600.0);
    let degree = scenario.topology.network_degree();
    let nodes = scenario.topology.num_nodes();
    let snaps: Vec<Arc<PolicySnapshot>> = (0..=K).map(|v| snap(degree, v, 40 + v)).collect();
    let policy_of = |s: &PolicySnapshot| {
        CoordinationPolicy::new(s.actor.clone(), degree, PolicyMetadata::default())
    };
    let seeds: Vec<u64> = (0..16).map(|e| 3 + 10 * e).collect();
    // Version `epoch - 3` lands at the boundary of epochs 4..4 + K.
    let deploy = |v: u64| DistributedAgents::deploy(&policy_of(&snaps[v as usize]), nodes);
    let expected = lockstep(&scenario, &seeds, deploy(0), |epoch| {
        (4..4 + K).contains(&epoch).then(|| deploy(epoch - 3))
    });
    for shards in [1, 4] {
        let hub = PolicySlot::new(PolicySnapshot::clone(&snaps[0]));
        let contract = policy_of(&snaps[0]);
        let cfg = ServeConfig::new(shards);
        let out = serve_with(&contract, Some(&hub), &scenario, &seeds, &cfg, |epoch| {
            if (4..4 + K).contains(&epoch) {
                hub.publish(Arc::clone(&snaps[(epoch - 3) as usize]));
            }
        });
        let r = &out.report;
        assert!(r.conserved(), "{shards} shards: {r:?}");
        assert_eq!(r.swaps, K, "{shards} shards: {r:?}");
        assert_eq!(r.batched_decisions, r.decisions, "{shards} shards: {r:?}");
        assert!(r.decisions_at_version(0) > 0, "{shards} shards: {r:?}");
        assert!(r.decisions_at_version(K) > 0, "{shards} shards: {r:?}");
        for v in 1..K {
            // One epoch: at most one decision per episode.
            let n = r.decisions_at_version(v);
            assert!(
                (1..=seeds.len() as u64).contains(&n),
                "{shards} shards, v{v}: {r:?}"
            );
        }
        let by_version: u64 = (0..=K).map(|v| r.decisions_at_version(v)).sum();
        assert_eq!(by_version, r.batched_decisions, "{shards} shards: {r:?}");
        assert_eq!(out.metrics, expected, "{shards} shards");
    }
}

//! Graceful degradation and policy hot-swap under scripted faults.
//!
//! The contract under test: a down shard's decisions fall back to
//! shortest-path coordination (counted, never lost), a recovered shard
//! re-syncs to the latest published snapshot version, and version
//! accounting stays exact across the swap.

use dosco_core::policy::PolicyMetadata;
use dosco_core::CoordinationPolicy;
use dosco_nn::mlp::{Activation, Mlp};
use dosco_serve::{serve, serve_with, FaultScript, PolicySlot, PolicySnapshot, ServeConfig};
use dosco_simnet::ScenarioConfig;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

fn scenario() -> ScenarioConfig {
    ScenarioConfig::paper_base(2).with_horizon(400.0)
}

fn actor(degree: usize, seed: u64) -> Mlp {
    let mut rng = StdRng::seed_from_u64(seed);
    Mlp::new(
        &[4 * degree + 4, 24, degree + 1],
        Activation::Tanh,
        &mut rng,
    )
}

fn critic(degree: usize, seed: u64) -> Mlp {
    let mut rng = StdRng::seed_from_u64(seed);
    Mlp::new(&[4 * degree + 4, 24, 1], Activation::Tanh, &mut rng)
}

fn policy(degree: usize, seed: u64) -> CoordinationPolicy {
    CoordinationPolicy::new(actor(degree, seed), degree, PolicyMetadata::default())
}

/// Kill a shard mid-run while a hot-swap lands during the outage:
/// fallbacks cover the outage, nothing is lost, and the respawned shard
/// resumes at the *published* (post-swap) version.
#[test]
fn killed_shard_falls_back_and_recovers_at_published_version() {
    let scenario = scenario();
    let degree = scenario.topology.network_degree();
    let p = policy(degree, 11);
    let hub = PolicySlot::new(PolicySnapshot {
        version: 0,
        actor: actor(degree, 11),
        critic: critic(degree, 12),
    });
    let v1 = Arc::new(PolicySnapshot {
        version: 1,
        actor: actor(degree, 99),
        critic: critic(degree, 12),
    });

    let cfg = ServeConfig::new(4).with_faults(FaultScript::new().kill(0, 12, 20));
    let out = serve_with(&p, Some(&hub), &scenario, &[3, 7, 13, 29], &cfg, |epoch| {
        // Publish the new snapshot from the epoch hook: the swap lands
        // deterministically at epoch 8, inside no fault window, so the
        // killed shard (down epochs 12..20) misses nothing — but its
        // respawn must still come up at version 1.
        if epoch == 8 {
            hub.publish(Arc::clone(&v1));
        }
    });

    let r = &out.report;
    assert!(r.conserved(), "unaccounted decisions: {r:?}");
    assert!(
        r.fallback_decisions > 0,
        "the kill window produced no fallbacks — shard 0 owns ingress node 0, \
         which decides every epoch: {r:?}"
    );
    assert!(r.batched_decisions > 0);
    assert_eq!(r.shard_kills, 1, "{r:?}");
    assert_eq!(r.shard_respawns, 1, "{r:?}");
    assert_eq!(r.swaps, 1, "{r:?}");
    assert_eq!(r.final_version, 1);
    assert!(
        r.shard_versions.iter().all(|&v| v == 1),
        "every shard (including the respawn) must end re-synced to v1: {r:?}"
    );
    // Version accounting: decisions served before epoch 8 ran at v0,
    // after at v1 — both must show up, summing to the batched total.
    assert_eq!(r.decisions_by_version.len(), 2, "{r:?}");
    assert!(r.decisions_by_version.iter().any(|&(v, n)| v == 0 && n > 0));
    assert!(r.decisions_by_version.iter().any(|&(v, n)| v == 1 && n > 0));
    let by_version: u64 = r.decisions_by_version.iter().map(|&(_, n)| n).sum();
    assert_eq!(by_version, r.batched_decisions);
}

/// A fault-free run with a hub serves the hub's snapshot — and an
/// untouched hub means zero swaps and a single version bucket.
#[test]
fn hub_without_publishes_serves_initial_snapshot() {
    let scenario = scenario();
    let degree = scenario.topology.network_degree();
    let p = policy(degree, 11);
    let hub = PolicySlot::new(PolicySnapshot {
        version: 5,
        actor: actor(degree, 11),
        critic: critic(degree, 12),
    });
    let out = serve_with(
        &p,
        Some(&hub),
        &scenario,
        &[3],
        &ServeConfig::new(2),
        |_| {},
    );
    let r = &out.report;
    assert_eq!(r.swaps, 0);
    assert_eq!(r.final_version, 5);
    assert_eq!(r.decisions_by_version, vec![(5, r.batched_decisions)]);
    assert!(r.conserved());
}

/// The degraded outcome is still a real outcome: the same scenario under
/// a permanent kill of every shard serves entirely from the SP fallback
/// and completes every episode.
#[test]
fn total_outage_serves_entirely_from_fallback() {
    let scenario = scenario();
    let p = policy(scenario.topology.network_degree(), 11);
    let cfg = ServeConfig::new(2).with_faults(FaultScript::new().kill(0, 0, u64::MAX).kill(
        1,
        0,
        u64::MAX,
    ));
    let out = serve(&p, None, &scenario, &[4], &cfg);
    let r = &out.report;
    assert!(r.conserved());
    assert_eq!(r.batched_decisions, 0, "{r:?}");
    assert_eq!(r.decisions, r.fallback_decisions);
    assert!(r.decisions > 0);
}

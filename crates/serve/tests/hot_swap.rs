//! Rapid hot-swap stress: many versions published in quick succession,
//! with and without a mid-canary shard kill.
//!
//! The contracts under test:
//! - **Conservation**: `decisions_by_version` sums exactly to the
//!   batched total, and batched + fallback equals total decisions — no
//!   decision is lost or double-counted across any number of swaps.
//! - **Monotone version observation per shard**: under hub broadcasts
//!   (monotonically versioned), a shard's observed version never moves
//!   backwards — including across a kill/respawn, because respawns
//!   re-sync to the shard's desired policy.

use dosco_core::policy::PolicyMetadata;
use dosco_core::CoordinationPolicy;
use dosco_nn::mlp::{Activation, Mlp};
use dosco_serve::{
    serve_with, FabricStatus, FaultScript, PolicySlot, PolicySnapshot, ServeConfig, StatusBoard,
};
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

fn snap(degree: usize, version: u64, seed: u64) -> Arc<PolicySnapshot> {
    Arc::new(PolicySnapshot {
        version,
        actor: actor(degree, seed),
        critic: critic(degree, seed + 1),
    })
}

/// Asserts every shard's observed version sequence is non-decreasing
/// across the sampled epoch snapshots.
fn assert_monotone_versions(samples: &[FabricStatus]) {
    // The first sample precedes the first boundary (an empty board).
    let num_shards = samples.last().map_or(0, |s| s.report.shard_versions.len());
    assert!(num_shards > 0, "no boundary was sampled");
    for shard in 0..num_shards {
        let mut last = 0u64;
        for s in samples {
            if s.report.shard_versions.is_empty() {
                continue; // pre-first-boundary snapshot
            }
            let v = s.report.shard_versions[shard];
            assert!(
                v >= last,
                "shard {shard} observed version {v} after {last} at epoch {}",
                s.report.epochs
            );
            last = v;
        }
    }
}

/// K versions published on consecutive epochs: every batched decision is
/// attributed to exactly one version, the buckets sum to the batched
/// total, and per-shard version observation is monotone.
#[test]
fn rapid_hub_publishes_conserve_decisions_and_stay_monotone() {
    let scenario = scenario();
    let degree = scenario.topology.network_degree();
    let contract = CoordinationPolicy::new(actor(degree, 1), degree, PolicyMetadata::default());
    let hub = PolicySlot::new(PolicySnapshot {
        version: 0,
        actor: actor(degree, 1),
        critic: critic(degree, 2),
    });
    let board = Arc::new(StatusBoard::new());
    let cfg = ServeConfig::new(4).with_status(Arc::clone(&board));

    const K: u64 = 6;
    let mut samples: Vec<FabricStatus> = Vec::new();
    let out = serve_with(
        &contract,
        Some(&hub),
        &scenario,
        &[3, 7, 13, 29],
        &cfg,
        |epoch| {
            // The board holds the previous boundary's state here.
            samples.push(board.snapshot());
            // Publish a new version every epoch for K consecutive epochs.
            if (4..4 + K).contains(&epoch) {
                hub.publish(snap(degree, epoch - 3, 40 + epoch));
            }
        },
    );

    let r = &out.report;
    assert!(r.conserved(), "{r:?}");
    assert_eq!(r.fallback_decisions, 0, "no faults scripted: {r:?}");
    assert_eq!(r.swaps, K, "every publish lands as one swap: {r:?}");
    assert_eq!(r.final_version, K);
    assert!(r.shard_versions.iter().all(|&v| v == K), "{r:?}");
    // Conservation across the version buckets.
    let by_version: u64 = r.decisions_by_version.iter().map(|&(_, n)| n).sum();
    assert_eq!(by_version, r.batched_decisions);
    assert_eq!(r.batched_decisions, r.decisions);
    // Per-shard accounting also sums to the batched total.
    assert_eq!(r.shard_batched.iter().sum::<u64>(), r.batched_decisions);
    // Versions observed in the buckets are exactly a prefix-free subset
    // of 0..=K in ascending order (BTreeMap ordering).
    let versions: Vec<u64> = r.decisions_by_version.iter().map(|&(v, _)| v).collect();
    assert!(versions.windows(2).all(|w| w[0] < w[1]), "{versions:?}");
    assert!(versions.iter().all(|&v| v <= K), "{versions:?}");
    // The first and last published versions certainly served decisions
    // (epochs 0..4 ran v0; everything after the burst ran vK).
    assert!(out
        .report
        .decisions_by_version
        .iter()
        .any(|&(v, n)| v == 0 && n > 0));
    assert!(out
        .report
        .decisions_by_version
        .iter()
        .any(|&(v, n)| v == K && n > 0));
    assert_monotone_versions(&samples);
}

/// The same contracts under a mid-canary shard kill: a candidate is
/// published to a shard subset, the canary shard is killed inside the
/// window, and the fabric still conserves decisions, keeps per-shard
/// version observation monotone, and respawns the canary shard at the
/// *candidate* version (its desired policy), not the incumbent.
#[test]
fn mid_canary_shard_kill_conserves_and_respawns_at_candidate() {
    let scenario = scenario();
    let degree = scenario.topology.network_degree();
    let contract = CoordinationPolicy::new(actor(degree, 1), degree, PolicyMetadata::default());
    let hub = PolicySlot::new(PolicySnapshot {
        version: 3,
        actor: actor(degree, 1),
        critic: critic(degree, 2),
    });
    let board = Arc::new(StatusBoard::new());
    const CANARY: usize = 1;
    const CANDIDATE: u64 = 9;
    let cfg = ServeConfig::new(4)
        .with_status(Arc::clone(&board))
        .with_faults(FaultScript::new().kill(CANARY, 10, 16));

    let mut samples: Vec<FabricStatus> = Vec::new();
    let out = serve_with(
        &contract,
        Some(&hub),
        &scenario,
        &[3, 7, 13, 29],
        &cfg,
        |epoch| {
            samples.push(board.snapshot());
            if epoch == 6 {
                hub.publish_to(snap(degree, CANDIDATE, 77), &[CANARY]);
            }
        },
    );

    let r = &out.report;
    assert!(r.conserved(), "{r:?}");
    assert_eq!(r.directed_publishes, 1, "{r:?}");
    assert_eq!(r.shard_kills, 1, "{r:?}");
    assert_eq!(r.shard_respawns, 1, "{r:?}");
    assert!(
        r.fallback_decisions > 0,
        "the kill window must degrade the canary shard's nodes: {r:?}"
    );
    // Fallbacks are attributed to the killed canary shard only.
    assert_eq!(r.shard_fallback[CANARY], r.fallback_decisions, "{r:?}");
    // The respawn came back at the candidate, not the incumbent.
    assert_eq!(r.shard_versions[CANARY], CANDIDATE, "{r:?}");
    for (i, &v) in r.shard_versions.iter().enumerate() {
        if i != CANARY {
            assert_eq!(v, 3, "non-canary shard {i} must stay incumbent: {r:?}");
        }
    }
    // The incumbent stays the fabric-wide current version throughout.
    assert_eq!(r.final_version, 3);
    // Both versions served decisions, summing to the batched total.
    assert!(r.decisions_by_version.iter().any(|&(v, n)| v == 3 && n > 0));
    assert!(r
        .decisions_by_version
        .iter()
        .any(|&(v, n)| v == CANDIDATE && n > 0));
    let by_version: u64 = r.decisions_by_version.iter().map(|&(_, n)| n).sum();
    assert_eq!(by_version, r.batched_decisions);
    assert_eq!(r.decisions, r.batched_decisions + r.fallback_decisions);
    assert_monotone_versions(&samples);
}

/// A broadcast and a directed publish made from one hook call land at the
/// same boundary, the directive after the broadcast: from that boundary
/// on, the directed group runs the directive's version and every other
/// group the broadcast's.
#[test]
fn a_directive_wins_over_a_broadcast_at_the_same_boundary() {
    let scenario = scenario();
    let degree = scenario.topology.network_degree();
    let contract = CoordinationPolicy::new(actor(degree, 1), degree, PolicyMetadata::default());
    let hub = PolicySlot::new(PolicySnapshot {
        version: 0,
        actor: actor(degree, 1),
        critic: critic(degree, 2),
    });
    let board = Arc::new(StatusBoard::new());
    const AT: u64 = 5;
    const DIRECTED: usize = 1;
    let cfg = ServeConfig::new(4).with_status(Arc::clone(&board));

    let mut samples: Vec<FabricStatus> = Vec::new();
    let out = serve_with(
        &contract,
        Some(&hub),
        &scenario,
        &[3, 7, 13, 29],
        &cfg,
        |epoch| {
            samples.push(board.snapshot());
            if epoch == AT {
                hub.publish(snap(degree, 1, 50));
                hub.publish_to(snap(degree, 2, 60), &[DIRECTED]);
            }
        },
    );
    samples.push(board.snapshot());

    let expected = |epoch: u64| -> Vec<u64> {
        (0..4)
            .map(|g| match (epoch >= AT, g == DIRECTED) {
                (false, _) => 0,
                (true, true) => 2,
                (true, false) => 1,
            })
            .collect()
    };
    let sampled: Vec<&FabricStatus> = samples
        .iter()
        .filter(|s| !s.report.shard_versions.is_empty())
        .collect();
    assert!(
        sampled.iter().any(|s| s.report.epochs == AT),
        "boundary {AT} was not sampled"
    );
    for s in sampled {
        assert_eq!(
            s.report.shard_versions,
            expected(s.report.epochs),
            "at epoch {}",
            s.report.epochs
        );
    }
    let r = &out.report;
    assert!(r.conserved(), "{r:?}");
    assert_eq!(r.swaps, 1, "{r:?}");
    assert_eq!(r.directed_publishes, 1, "{r:?}");
    assert_eq!(r.final_version, 1, "{r:?}");
    assert_eq!(r.shard_versions, vec![1, 2, 1, 1], "{r:?}");
    assert!(r.decisions_at_version(0) > 0, "{r:?}");
    assert!(r.decisions_at_version(1) > 0, "{r:?}");
    assert!(r.decisions_at_version(2) > 0, "{r:?}");
}

//! End-to-end canary lifecycle against the real serving fabric.
//!
//! The keystone test uses a candidate with **identical weights** to the
//! incumbent (only the version differs): the canary machinery must be
//! metrics-invisible — every episode's `Metrics` exactly equals a run
//! with no canary at all — while the version accounting still splits
//! decisions exactly between incumbent and candidate buckets.

use dosco_core::policy::PolicyMetadata;
use dosco_core::CoordinationPolicy;
use dosco_ctl::{run_canary, CanaryConfig, CanaryDecision, CanaryStats, ThresholdJudge};
use dosco_nn::mlp::{Activation, Mlp};
use dosco_serve::{serve, PolicySnapshot, ServeConfig};
use dosco_simnet::ScenarioConfig;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

const SEEDS: &[u64] = &[3, 7, 13, 29];
const SHARDS: usize = 4;
const CANARY_SHARDS: &[usize] = &[1, 2];
const INCUMBENT: u64 = 1;
const CANDIDATE: u64 = 2;

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

fn snapshot(version: u64, actor: Mlp, degree: usize) -> Arc<PolicySnapshot> {
    Arc::new(PolicySnapshot {
        version,
        actor,
        critic: critic(degree, 99),
    })
}

/// The no-canary baseline: the same weights served hub-less.
fn baseline(degree: usize) -> dosco_serve::ServeOutcome {
    let policy = CoordinationPolicy::new(actor(degree, 1), degree, PolicyMetadata::default());
    serve(&policy, None, &scenario(), SEEDS, &ServeConfig::new(SHARDS))
}

/// Shared assertions: exact two-bucket accounting over the whole run.
fn assert_exact_two_bucket_accounting(r: &dosco_serve::ServeReport) {
    assert!(r.conserved(), "{r:?}");
    assert_eq!(r.fallback_decisions, 0, "no faults scripted: {r:?}");
    let versions: Vec<u64> = r.decisions_by_version.iter().map(|&(v, _)| v).collect();
    assert_eq!(versions, vec![INCUMBENT, CANDIDATE], "{r:?}");
    let total: u64 = r.decisions_by_version.iter().map(|&(_, n)| n).sum();
    assert_eq!(total, r.batched_decisions, "buckets sum exactly: {r:?}");
    assert!(
        r.decisions_by_version.iter().all(|&(_, n)| n > 0),
        "both versions served: {r:?}"
    );
}

/// Window stats are internally exact: candidate + incumbent deltas cover
/// every decision applied during the window.
fn assert_exact_window_accounting(stats: &CanaryStats) {
    assert_eq!(stats.incumbent_version, INCUMBENT);
    assert_eq!(stats.candidate_version, CANDIDATE);
    assert!(stats.candidate_decisions() > 0, "{stats:?}");
    assert!(stats.incumbent_decisions() > 0, "{stats:?}");
    assert_eq!(
        stats.candidate_decisions() + stats.incumbent_decisions(),
        stats.window_decisions(),
        "every window decision is attributed to exactly one version: {stats:?}"
    );
}

/// Promote path with an identical-weights candidate: the fabric
/// converges on the candidate version everywhere, the decision buckets
/// split exactly, and the episode metrics are *bit-identical* to a run
/// that never canaried (for every shard, canary or not).
#[test]
fn promote_converges_all_shards_and_is_metrics_invisible() {
    let scenario = scenario();
    let degree = scenario.topology.network_degree();
    let base = baseline(degree);

    let out = run_canary(
        snapshot(INCUMBENT, actor(degree, 1), degree),
        snapshot(CANDIDATE, actor(degree, 1), degree),
        &scenario,
        SEEDS,
        &ServeConfig::new(SHARDS),
        &CanaryConfig::new(CANARY_SHARDS.to_vec(), 4, 6),
        |stats| ThresholdJudge::default().decide(stats),
    );

    assert_eq!(out.report.decision, Some(CanaryDecision::Promote));
    assert_exact_window_accounting(out.report.stats.as_ref().unwrap());
    let r = &out.serve.report;
    assert_exact_two_bucket_accounting(r);
    // Promotion converged every shard on the candidate.
    assert_eq!(r.final_version, CANDIDATE, "{r:?}");
    assert!(
        r.shard_versions.iter().all(|&v| v == CANDIDATE),
        "promotion reaches every shard: {r:?}"
    );
    // One targeted publish (the canary) + one hub swap (the promote).
    assert_eq!(r.directed_publishes, 1, "{r:?}");
    assert_eq!(r.swaps, 1, "{r:?}");
    // Identical weights ⇒ identical decisions ⇒ exactly equal Metrics,
    // per episode, canary shards and non-canary shards alike.
    assert_eq!(out.serve.metrics, base.metrics);
    assert_eq!(r.decisions, base.report.decisions);
    assert_eq!(r.batched_decisions, base.report.batched_decisions);
}

/// Rollback path: the incumbent is restored on the canary shards, the
/// fabric ends fully on the incumbent, and metrics are again exactly the
/// no-canary baseline.
#[test]
fn rollback_restores_the_incumbent_everywhere() {
    let scenario = scenario();
    let degree = scenario.topology.network_degree();
    let base = baseline(degree);

    let out = run_canary(
        snapshot(INCUMBENT, actor(degree, 1), degree),
        snapshot(CANDIDATE, actor(degree, 1), degree),
        &scenario,
        SEEDS,
        &ServeConfig::new(SHARDS),
        &CanaryConfig::new(CANARY_SHARDS.to_vec(), 4, 6),
        |_| CanaryDecision::Rollback,
    );

    assert_eq!(out.report.decision, Some(CanaryDecision::Rollback));
    assert_exact_window_accounting(out.report.stats.as_ref().unwrap());
    let r = &out.serve.report;
    assert_exact_two_bucket_accounting(r);
    // The incumbent is restored everywhere; the fabric-wide current
    // version never moved.
    assert_eq!(r.final_version, INCUMBENT, "{r:?}");
    assert!(
        r.shard_versions.iter().all(|&v| v == INCUMBENT),
        "rollback restores every shard: {r:?}"
    );
    // Two targeted publishes: candidate out, incumbent back.
    assert_eq!(r.directed_publishes, 2, "{r:?}");
    assert_eq!(r.swaps, 0, "no hub publish on the rollback path: {r:?}");
    assert_eq!(out.serve.metrics, base.metrics);
}

/// A genuinely different candidate still promotes cleanly: conservation
/// and convergence hold even when decisions actually change.
#[test]
fn divergent_candidate_promotes_with_exact_accounting() {
    let scenario = scenario();
    let degree = scenario.topology.network_degree();

    let out = run_canary(
        snapshot(INCUMBENT, actor(degree, 1), degree),
        snapshot(CANDIDATE, actor(degree, 77), degree),
        &scenario,
        SEEDS,
        &ServeConfig::new(SHARDS),
        &CanaryConfig::new(vec![0], 3, 5),
        |_| CanaryDecision::Promote,
    );

    assert_eq!(out.report.decision, Some(CanaryDecision::Promote));
    let r = &out.serve.report;
    assert!(r.conserved(), "{r:?}");
    assert_eq!(r.final_version, CANDIDATE);
    assert!(r.shard_versions.iter().all(|&v| v == CANDIDATE));
    let total: u64 = r.decisions_by_version.iter().map(|&(_, n)| n).sum();
    assert_eq!(total, r.batched_decisions);
    let stats = out.report.stats.as_ref().unwrap();
    assert!(stats.candidate_decisions() > 0);
}

/// Episodes ending before the window completes: no verdict, no
/// transition — and the run still conserves.
#[test]
fn unfinished_window_applies_no_transition() {
    let scenario = ScenarioConfig::paper_base(1).with_horizon(60.0);
    let degree = scenario.topology.network_degree();

    let out = run_canary(
        snapshot(INCUMBENT, actor(degree, 1), degree),
        snapshot(CANDIDATE, actor(degree, 1), degree),
        &scenario,
        &[5],
        &ServeConfig::new(2),
        // A window far past the short horizon.
        &CanaryConfig::new(vec![0], 2, 100_000),
        |_| CanaryDecision::Promote,
    );

    assert_eq!(out.report.decision, None);
    assert!(out.report.stats.is_none());
    let r = &out.serve.report;
    assert!(r.conserved(), "{r:?}");
    // The candidate landed (targeted publish) but was never judged.
    assert_eq!(r.directed_publishes, 1, "{r:?}");
    assert_eq!(r.final_version, INCUMBENT, "{r:?}");
}

/// The driver rejects a candidate that reuses the incumbent's version:
/// the two would be indistinguishable in the accounting.
#[test]
#[should_panic(expected = "version distinct from the incumbent")]
fn rejects_version_collisions() {
    let scenario = scenario();
    let degree = scenario.topology.network_degree();
    run_canary(
        snapshot(3, actor(degree, 1), degree),
        snapshot(3, actor(degree, 2), degree),
        &scenario,
        SEEDS,
        &ServeConfig::new(SHARDS),
        &CanaryConfig::new(vec![0], 1, 1),
        |_| CanaryDecision::Promote,
    );
}

/// A canary on a shard the fabric does not have would route no candidate
/// decision and be judged on nothing: the driver rejects it up front.
#[test]
#[should_panic(expected = "canary shard 4 is not one of the fabric's 4 shards")]
fn rejects_canary_shards_the_fabric_does_not_have() {
    let scenario = scenario();
    let degree = scenario.topology.network_degree();
    run_canary(
        snapshot(INCUMBENT, actor(degree, 1), degree),
        snapshot(CANDIDATE, actor(degree, 1), degree),
        &scenario,
        SEEDS,
        &ServeConfig::new(SHARDS),
        &CanaryConfig::new(vec![SHARDS], 10, 30),
        |_| CanaryDecision::Promote,
    );
}

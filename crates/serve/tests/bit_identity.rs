//! The fabric's determinism contract: shard count never changes a
//! decision, and the fabric reproduces the in-process deployment
//! bit-for-bit.
//!
//! `Metrics` derives `PartialEq` over `f32` fields, so equality here is
//! bitwise equality of every episode outcome — not "close enough".

use dosco_core::policy::PolicyMetadata;
use dosco_core::{CoordinationPolicy, DistributedAgents};
use dosco_nn::mlp::{Activation, Mlp};
use dosco_serve::{serve, ServeConfig};
use dosco_simnet::{ScenarioConfig, Simulation};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn policy(degree: usize) -> CoordinationPolicy {
    let mut rng = StdRng::seed_from_u64(11);
    let actor = Mlp::new(
        &[4 * degree + 4, 24, degree + 1],
        Activation::Tanh,
        &mut rng,
    );
    CoordinationPolicy::new(actor, degree, PolicyMetadata::default())
}

fn scenario() -> ScenarioConfig {
    ScenarioConfig::paper_base(2).with_horizon(400.0)
}

/// Greedy serving: 1 shard == 4 shards == the per-decision
/// `DistributedAgents` deployment, on every episode.
#[test]
fn greedy_one_shard_four_shards_and_in_process_agree() {
    let scenario = scenario();
    let p = policy(scenario.topology.network_degree());
    let seeds = [3u64, 7, 13, 29];

    let one = serve(&p, None, &scenario, &seeds, &ServeConfig::new(1));
    let four = serve(&p, None, &scenario, &seeds, &ServeConfig::new(4));
    assert_eq!(
        one.metrics, four.metrics,
        "shard count changed an episode outcome"
    );
    assert_eq!(one.report.decisions, four.report.decisions);
    assert!(one.report.conserved() && four.report.conserved());
    assert!(one.report.decisions > 0, "horizon produced no decisions");

    // The per-decision baseline (dosco_core::eval::evaluate drives the
    // same greedy DistributedAgents loop).
    let baseline: Vec<_> = seeds
        .iter()
        .map(|&s| dosco_core::eval::evaluate(&p, &scenario, s))
        .collect();
    assert_eq!(
        four.metrics, baseline,
        "batched serving diverged from per-decision inference"
    );
}

/// Stochastic serving: the per-node RNG streams make shard count
/// irrelevant, and a single-episode run reproduces the in-process
/// stochastic deployment draw for draw.
#[test]
fn stochastic_serving_is_shard_count_invariant_and_matches_in_process() {
    let scenario = scenario();
    let p = policy(scenario.topology.network_degree());
    let seed = 7u64;
    let cfg = |shards| ServeConfig::new(shards).with_stochastic_seed(seed);

    let one = serve(&p, None, &scenario, &[5], &cfg(1));
    let three = serve(&p, None, &scenario, &[5], &cfg(3));
    assert_eq!(
        one.metrics, three.metrics,
        "stochastic serving must be shard-count invariant"
    );

    let mut agents = DistributedAgents::deploy_stochastic(&p, scenario.topology.num_nodes(), seed);
    let mut sim = Simulation::new(scenario.clone(), 5);
    sim.run(&mut agents);
    assert_eq!(
        one.metrics[0],
        *sim.metrics(),
        "serve fabric diverged from DistributedAgents::deploy_stochastic"
    );
}

/// Multi-episode stochastic runs stay shard-count invariant too: each
/// node's stream advances in global request-id order regardless of which
/// shard holds it.
#[test]
fn stochastic_multi_episode_shard_count_invariance() {
    let scenario = scenario();
    let p = policy(scenario.topology.network_degree());
    let seeds = [101u64, 202, 303];
    let cfg = |shards| ServeConfig::new(shards).with_stochastic_seed(9);

    let one = serve(&p, None, &scenario, &seeds, &cfg(1));
    let four = serve(&p, None, &scenario, &seeds, &cfg(4));
    assert_eq!(one.metrics, four.metrics);
    assert_eq!(one.report.decisions, four.report.decisions);
}

/// Substrate churn during serving stays deterministic and shard-count
/// invariant: the timeline executes inside each episode's simulator, so
/// shard partitioning cannot reorder faults relative to decisions. An
/// empty timeline is bit-identical to no churn at all.
#[test]
fn churn_serving_is_deterministic_and_shard_count_invariant() {
    use dosco_chaos::{ChurnAction, ChurnSchedule};
    use dosco_topology::{LinkId, NodeId};

    let scenario = scenario();
    let p = policy(scenario.topology.network_degree());
    let seeds = [3u64, 7];
    let timeline = ChurnSchedule::none()
        .at(100.0, ChurnAction::LinkDown(LinkId(2)))
        .at(180.0, ChurnAction::NodeDown(NodeId(4)))
        .at(250.0, ChurnAction::LinkUp(LinkId(2)))
        .at(320.0, ChurnAction::NodeUp(NodeId(4)))
        .compile(&scenario.topology, scenario.horizon, 0)
        .expect("valid schedule");
    let cfg = |shards| ServeConfig::new(shards).with_churn(timeline.clone());

    let one = serve(&p, None, &scenario, &seeds, &cfg(1));
    let four = serve(&p, None, &scenario, &seeds, &cfg(4));
    assert_eq!(
        one.metrics, four.metrics,
        "churn serving must be shard-count invariant"
    );
    let again = serve(&p, None, &scenario, &seeds, &cfg(4));
    assert_eq!(four.metrics, again.metrics, "same seed, same timeline");

    // Empty timeline == no churn, bit for bit.
    let empty = ServeConfig::new(2).with_churn(dosco_chaos::ChurnTimeline::none());
    let plain = serve(&p, None, &scenario, &seeds, &ServeConfig::new(2));
    let with_empty = serve(&p, None, &scenario, &seeds, &empty);
    assert_eq!(plain.metrics, with_empty.metrics);
}

/// The helper's half is used and exact: on one shard, the back half of
/// every batch of four rows or more is forwarded as the helper's part —
/// and every episode still equals the per-decision deployment's, greedy
/// and stochastic.
#[test]
fn one_shard_hands_rows_to_the_frontend_and_still_agrees_with_in_process() {
    let scenario = scenario();
    let degree = scenario.topology.network_degree();
    let mut rng = StdRng::seed_from_u64(11);
    let actor = Mlp::paper_arch(4 * degree + 4, degree + 1, &mut rng);
    let p = CoordinationPolicy::new(actor, degree, PolicyMetadata::default());
    let seeds: Vec<u64> = (1..=8).collect();

    let greedy = serve(&p, None, &scenario, &seeds, &ServeConfig::new(1));
    assert!(greedy.report.conserved());
    assert!(greedy.report.helped_rows > 0, "{:?}", greedy.report);
    let baseline: Vec<_> = seeds
        .iter()
        .map(|&s| dosco_core::eval::evaluate(&p, &scenario, s))
        .collect();
    assert_eq!(greedy.metrics, baseline);

    let cfg = ServeConfig::new(1).with_stochastic_seed(4);
    let one = serve(&p, None, &scenario, &[5], &cfg);
    let mut agents = DistributedAgents::deploy_stochastic(&p, scenario.topology.num_nodes(), 4);
    let mut sim = Simulation::new(scenario.clone(), 5);
    sim.run(&mut agents);
    assert_eq!(one.metrics[0], *sim.metrics());
    let stochastic = serve(&p, None, &scenario, &seeds, &cfg);
    assert!(stochastic.report.helped_rows > 0, "{:?}", stochastic.report);
    assert_eq!(
        stochastic.metrics,
        serve(
            &p,
            None,
            &scenario,
            &seeds,
            &ServeConfig::new(3).with_stochastic_seed(4)
        )
        .metrics
    );
}

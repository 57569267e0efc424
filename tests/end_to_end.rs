//! End-to-end integration: train → persist → reload → deploy → evaluate,
//! across all crates, at toy scale.

use dosco::core::eval::{evaluate, evaluate_draws};
use dosco::core::policy::CoordinationPolicy;
use dosco::core::train::{train_distributed, Algorithm, TrainConfig};
use dosco::core::DistributedAgents;
use dosco::simnet::{ScenarioConfig, Simulation};
use dosco::traffic::ArrivalPattern;
use dosco_rl::a2c::A2cConfig;

fn toy_train_config() -> TrainConfig {
    TrainConfig {
        algorithm: Algorithm::A2c, // cheapest algorithm for CI-scale tests
        total_steps: 1_500,
        n_envs: 2,
        seeds: vec![0, 1],
        a2c: A2cConfig {
            hidden: [12, 12],
            ..A2cConfig::default()
        },
        eval_horizon: 400.0,
        checkpoints: 2,
        ..TrainConfig::default()
    }
}

#[test]
fn train_save_load_deploy_round_trip() {
    let scenario = ScenarioConfig::paper_base(2)
        .with_pattern(ArrivalPattern::paper_poisson())
        .with_horizon(500.0);
    let trained = train_distributed(&scenario, &toy_train_config());

    // Persist and reload the policy artifact.
    let path = std::env::temp_dir().join("dosco-e2e-policy.json");
    trained.policy.save(&path).unwrap();
    let reloaded = CoordinationPolicy::load(&path).unwrap();
    std::fs::remove_file(&path).ok();

    // The reloaded policy drives the exact same simulation outcome.
    let a = evaluate(&trained.policy, &scenario, 77);
    let b = evaluate(&reloaded, &scenario, 77);
    assert_eq!(a, b);
    assert!(a.arrived > 0);
}

#[test]
fn distributed_agents_count_matches_decisions() {
    let scenario = ScenarioConfig::paper_base(1).with_horizon(400.0);
    let trained = train_distributed(&scenario, &toy_train_config());
    let mut agents = DistributedAgents::deploy(&trained.policy, scenario.topology.num_nodes());
    let mut sim = Simulation::new(scenario, 5);
    let metrics = sim.run(&mut agents).clone();
    let per_node: u64 = agents.decisions_per_node().iter().sum();
    assert_eq!(per_node, metrics.decisions);
}

#[test]
fn seed_aggregation_is_reproducible() {
    let scenario = ScenarioConfig::paper_base(2)
        .with_pattern(ArrivalPattern::paper_mmpp())
        .with_horizon(400.0);
    let trained = train_distributed(&scenario, &toy_train_config());
    let run = || {
        let stats = evaluate_draws(&scenario, &[1, 2, 3], |s, _| {
            Box::new(DistributedAgents::deploy(
                &trained.policy,
                s.topology.num_nodes(),
            ))
        });
        (stats.mean_success, stats.std_success)
    };
    let (m1, s1) = run();
    let (m2, s2) = run();
    assert_eq!(m1, m2);
    assert_eq!(s1, s2);
}

#[test]
fn all_algorithms_produce_valid_policies() {
    let scenario = ScenarioConfig::paper_base(1).with_horizon(300.0);
    for algorithm in [Algorithm::Acktr, Algorithm::A2c, Algorithm::Ppo] {
        let mut cfg = toy_train_config();
        cfg.algorithm = algorithm;
        cfg.total_steps = 600;
        cfg.seeds = vec![0];
        cfg.acktr.hidden = [12, 12];
        cfg.ppo.hidden = [12, 12];
        let trained = train_distributed(&scenario, &cfg);
        assert_eq!(trained.policy.metadata.algorithm, algorithm.name());
        let m = evaluate(&trained.policy, &scenario, 3);
        assert!(m.arrived > 0, "{}", algorithm.name());
    }
}

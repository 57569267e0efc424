//! `line-4`: the smallest scenario on which a learner must visibly learn.
//! A path n0–n1–n2–n3 with node capacities 1, 2, 2 and 0.5 and links of
//! delay 2 and capacity 5 carries the paper's video service from n0 to
//! n3 under Poisson arrivals. GCASP and SP both complete every flow of
//! it, so a policy that learns anything reaches them within a few
//! thousand steps.
//!
//! Each case trains one seed with `train::train_seed` on four `CoordEnv`s
//! on the canonical capacities (no per-episode re-draw), then scores the
//! greedy policy with `eval::evaluate` on the first five evaluation seeds
//! of the same canonical draw, aggregated by `EvalStats`.

use dosco::baselines::Gcasp;
use dosco::core::eval::{eval_seeds, evaluate, EvalStats};
use dosco::core::policy::PolicyMetadata;
use dosco::core::train::{train_seed, Algorithm, TrainConfig};
use dosco::core::{CoordEnv, CoordinationPolicy};
use dosco::rl::Env;
use dosco::simnet::{IngressSpec, ScenarioConfig, ServiceCatalog, ServiceId, Simulation};
use dosco::topology::TopologyBuilder;
use dosco::traffic::{ArrivalPattern, FlowProfile};
use std::ops::ControlFlow;

/// The `line-4` harness scenario.
fn line4() -> ScenarioConfig {
    let mut b = TopologyBuilder::new("line-4");
    let nodes: Vec<_> = [1.0, 2.0, 2.0, 0.5]
        .iter()
        .enumerate()
        .map(|(i, &capacity)| b.add_node(format!("n{i}"), capacity))
        .collect();
    for pair in nodes.windows(2) {
        b.add_link(pair[0], pair[1], 2.0, 5.0).expect("a path link");
    }
    ScenarioConfig {
        topology: b.build().expect("a connected path"),
        catalog: ServiceCatalog::paper_video_service(),
        ingresses: vec![IngressSpec {
            node: nodes[0],
            pattern: ArrivalPattern::paper_poisson(),
            service: ServiceId(0),
            egress: nodes[3],
            profile: FlowProfile::paper_default(),
        }],
        horizon: 2_000.0,
        hold_delay: 1.0,
        capacity_seed: 0,
    }
}

/// Greedy success of the policy `config` trains from `seed` on `line-4`.
fn trained_greedy(config: &TrainConfig, seed: u64) -> EvalStats {
    let scenario = line4();
    let mut envs: Vec<Box<dyn Env>> = (0..4)
        .map(|i| {
            let env_seed = seed.wrapping_mul(1_000_003).wrapping_add(i);
            let env = CoordEnv::new(scenario.clone(), config.reward, env_seed, None);
            Box::new(env.with_fixed_capacities()) as Box<dyn Env>
        })
        .collect();
    let (learner, _) = train_seed(config, &mut envs, seed, |_, _, _| ControlFlow::Continue(()));
    let degree = scenario.topology.network_degree();
    let policy =
        CoordinationPolicy::new(learner.actor().clone(), degree, PolicyMetadata::default());
    EvalStats::from_metrics(
        eval_seeds(5)
            .iter()
            .map(|&s| evaluate(&policy, &scenario, s))
            .collect(),
    )
}

/// GCASP's success on the same episodes.
fn gcasp() -> f64 {
    let scenario = line4();
    let episodes = eval_seeds(5)
        .iter()
        .map(|&s| {
            Simulation::new(scenario.clone(), s)
                .run(&mut Gcasp::new())
                .clone()
        })
        .collect();
    EvalStats::from_metrics(episodes).mean_success
}

fn assert_learns(config: &TrainConfig, seed: u64) {
    let (learned, target) = (trained_greedy(config, seed), gcasp() - 0.05);
    assert!(
        learned.mean_success >= target,
        "{} seed {seed} at {} steps: greedy {:.3} < GCASP − 0.05 = {target:.3} ({:?})",
        config.algorithm.name(),
        config.total_steps,
        learned.mean_success,
        learned
            .metrics
            .iter()
            .map(|m| m.success_ratio())
            .collect::<Vec<_>>(),
    );
}

#[test]
fn gcasp_completes_every_flow() {
    assert_eq!(gcasp(), 1.0);
}

#[test]
fn default_ppo_learns_line4() {
    let config = TrainConfig {
        algorithm: Algorithm::Ppo,
        total_steps: 8_000,
        ..TrainConfig::default()
    };
    assert_learns(&config, 0);
}

#[test]
#[ignore = "item 1: greedy 0.014 at 8k steps, 0.000 at 40k (PPO: 0.952 at 8k)"]
fn paper_acktr_learns_line4() {
    let config = TrainConfig {
        total_steps: 8_000,
        ..TrainConfig::default()
    };
    assert_learns(&config, 0);
}

//! Workspace-spanning property tests.

use dosco::core::observe::ObservationAdapter;
use dosco::core::policy::{CoordinationPolicy, PolicyMetadata};
use dosco::core::{CoordEnv, RewardConfig};
use dosco::nn::{Activation, Mlp};
use dosco::rl::Env;
use dosco::simnet::{Action, ScenarioConfig, SimEvent, Simulation};
use dosco::traffic::ArrivalPattern;
use proptest::prelude::*;
use rand::SeedableRng;

fn random_policy(degree: usize, seed: u64) -> CoordinationPolicy {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let actor = Mlp::new(
        &[4 * degree + 4, 12, degree + 1],
        Activation::Tanh,
        &mut rng,
    );
    CoordinationPolicy::new(actor, degree, PolicyMetadata::default())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// A policy JSON round-trip makes identical decisions on arbitrary
    /// in-range observations.
    #[test]
    fn policy_json_round_trip_decisions(
        seed in 0u64..500,
        obs in prop::collection::vec(-1.0f32..1.0, 16),
    ) {
        let p = random_policy(3, seed);
        let q = CoordinationPolicy::from_json(&p.to_json().unwrap()).unwrap();
        prop_assert_eq!(p.act(&obs), q.act(&obs));
        prop_assert!(p.act(&obs) < 4);
    }

    /// Per-event rewards are bounded by the terminal magnitudes, for any
    /// event the simulator can emit.
    #[test]
    fn event_rewards_bounded(sim_seed in 0u64..200, policy_seed in 0u64..200) {
        let scenario = ScenarioConfig::paper_base(2)
            .with_pattern(ArrivalPattern::paper_poisson())
            .with_horizon(600.0);
        let reward = RewardConfig::default();
        let mut sim = Simulation::new(scenario, sim_seed);
        let diameter = sim.diameter();
        let policy = random_policy(3, policy_seed);
        let adapter = ObservationAdapter::new(3);
        let mut events = Vec::new();
        while let Some(dp) = sim.next_decision() {
            let obs = adapter.observe(&sim, &dp);
            sim.apply(Action::from_index(policy.act(&obs)));
            sim.drain_events_into(&mut events);
            for ev in events.drain(..) {
                let r = reward.event_reward(&ev, diameter);
                prop_assert!((-10.0..=10.0).contains(&r), "{ev:?} -> {r}");
                if matches!(ev, SimEvent::Forwarded { .. } | SimEvent::Held { .. }) {
                    prop_assert!(r <= 0.0);
                }
                if matches!(ev, SimEvent::InstanceTraversed { .. }) {
                    prop_assert!(r > 0.0 && r <= 1.0);
                }
            }
        }
    }

    /// The observation adapter stays in range on every zoo topology, with
    /// the adapter padded to that topology's degree.
    #[test]
    fn observations_valid_on_all_topologies(seed in 0u64..50, topo_idx in 0usize..4) {
        let topo = dosco::topology::zoo::all().swap_remove(topo_idx);
        let scenario = dosco_bench::scenarios::topology_scenario(topo, 250.0);
        let degree = scenario.topology.network_degree();
        let adapter = ObservationAdapter::new(degree);
        let policy = random_policy(degree, seed);
        let mut sim = Simulation::new(scenario, seed);
        let mut checked = 0;
        while let Some(dp) = sim.next_decision() {
            let obs = adapter.observe(&sim, &dp);
            prop_assert_eq!(obs.len(), 4 * degree + 4);
            for &v in &obs {
                prop_assert!((-1.0..=1.0).contains(&v) && v.is_finite());
            }
            sim.apply(Action::from_index(policy.act(&obs)));
            checked += 1;
            if checked > 400 {
                break;
            }
        }
        prop_assert!(checked > 0);
    }

    /// Success ratios of any coordinator on any base scenario stay within
    /// [0, 1] and the metrics identity holds.
    #[test]
    fn metrics_identity_under_random_policies(
        seed in 0u64..300,
        ingress in 1usize..=5,
    ) {
        let scenario = ScenarioConfig::paper_base(ingress)
            .with_pattern(ArrivalPattern::paper_mmpp())
            .with_horizon(700.0);
        let policy = random_policy(3, seed);
        let mut agents =
            dosco::core::DistributedAgents::deploy(&policy, scenario.topology.num_nodes());
        let mut sim = Simulation::new(scenario, seed);
        let m = sim.run(&mut agents).clone();
        prop_assert!((0.0..=1.0).contains(&m.success_ratio()));
        prop_assert_eq!(m.arrived, m.completed + m.dropped_total() + m.in_flight());
    }
}

/// The fold-equality law: the simulator's counters are exactly what its
/// own event stream says happened. Fold every drained event, count the
/// `apply` calls, and the result equals `sim.metrics()` — and, under
/// churn, `sim.churn_stats()` in every field but `instances_lost` (an
/// `InstanceStopped` does not say whether a node failure caused it).
/// Random actions, static and churned substrates, several seeds.
#[test]
fn counters_are_a_fold_over_the_event_stream() {
    use dosco::chaos::{ChurnAction, ChurnSchedule, ChurnStats, StochasticChurn};
    use dosco::simnet::Metrics;
    use rand::Rng;

    let scenario = ScenarioConfig::paper_base(3)
        .with_pattern(ArrivalPattern::paper_poisson())
        .with_horizon(1_500.0);
    let schedule = ChurnSchedule::none()
        .at(200.0, ChurnAction::LinkDown(dosco::topology::LinkId(1)))
        .at(300.0, ChurnAction::NodeDown(dosco::topology::NodeId(4)))
        .at(600.0, ChurnAction::LinkUp(dosco::topology::LinkId(1)))
        .at(700.0, ChurnAction::NodeUp(dosco::topology::NodeId(4)))
        .with_stochastic(
            StochasticChurn::default()
                .with_link_failures(800.0, 60.0)
                .with_node_failures(1_000.0, 80.0),
        );
    let (mut drops, mut churn_events) = (0u64, 0u64);
    for seed in 0..5u64 {
        for churned in [false, true] {
            let timeline = if churned {
                schedule
                    .compile(&scenario.topology, scenario.horizon, seed)
                    .unwrap()
            } else {
                dosco::simnet::ChurnTimeline::none()
            };
            let mut sim = Simulation::with_churn(scenario.clone(), seed, timeline);
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0x5eed);
            let degree = sim.network_degree();
            let (mut m, mut c) = (Metrics::new(), ChurnStats::default());
            let mut events = Vec::new();
            loop {
                let next = sim.next_decision();
                sim.drain_events_into(&mut events);
                for ev in &events {
                    m.record(ev);
                    c.record(ev);
                }
                if next.is_none() {
                    break;
                }
                sim.apply(Action::from_index(rng.gen_range(0..=degree)));
                m.decisions += 1;
            }
            assert_eq!(&m, sim.metrics(), "seed {seed} churn {churned}");
            drops += m.dropped_total();
            match sim.churn_stats() {
                Some(stats) => {
                    c.instances_lost = stats.instances_lost;
                    assert_eq!(&c, stats, "seed {seed}");
                    assert!(c.flows_killed_link + c.flows_killed_node > 0, "seed {seed}");
                    churn_events += c.events_applied;
                }
                None => assert!(!churned && c == ChurnStats::default(), "seed {seed}"),
            }
        }
    }
    assert!(
        drops > 0 && churn_events > 20,
        "{drops} drops, {churn_events} churn events"
    );
}

/// The reward-conservation law: over one full episode the step rewards
/// add up to what the episode's `Metrics` say happened — every terminal
/// ±10 and every shaping term is credited to exactly one step, under any
/// policy, on a static substrate and under churn. Random actions, three
/// full episodes per environment seed.
#[test]
fn episode_rewards_add_up_to_the_episode_metrics() {
    use dosco::chaos::{ChurnAction, ChurnSchedule, StochasticChurn};
    use rand::Rng;
    let scenario = ScenarioConfig::paper_base(2)
        .with_pattern(ArrivalPattern::paper_poisson())
        .with_horizon(400.0);
    let churn = ChurnSchedule::none()
        .at(100.0, ChurnAction::LinkDown(dosco::topology::LinkId(0)))
        .at(200.0, ChurnAction::LinkUp(dosco::topology::LinkId(0)))
        .with_stochastic(StochasticChurn::default().with_node_failures(1_000.0, 50.0));
    // `hop_scale: 0`: the hop penalty is the one term `Metrics` cannot
    // recompute (it weighs each forward by its link's delay).
    let shaped = RewardConfig {
        hop_scale: 0.0,
        ..RewardConfig::default()
    };
    let diameter = Simulation::new(scenario.clone(), 0).diameter();
    for env_seed in 0..4u64 {
        for churned in [false, true] {
            for (reward, exact) in [(RewardConfig::sparse_only(), true), (shaped, false)] {
                let mut env = CoordEnv::new(scenario.clone(), reward, env_seed, None);
                if churned {
                    env = env.with_churn(churn.clone());
                }
                let mut rng = rand::rngs::StdRng::seed_from_u64(env_seed);
                env.reset();
                for episode in 0..3 {
                    let mut total = 0.0f64;
                    loop {
                        let step = env.step(rng.gen_range(0..env.num_actions()));
                        total += f64::from(step.reward);
                        if step.done {
                            break;
                        }
                    }
                    let m = env.finished_metrics().expect("an episode just ended");
                    let terminal = 10.0 * m.completed as f64 - 10.0 * m.dropped_total() as f64;
                    let label = format!("seed {env_seed} churn {churned} episode {episode}: {m:?}");
                    assert!(m.completed + m.dropped_total() > 0, "{label}");
                    if exact {
                        assert_eq!(total, terminal, "{label}");
                    } else {
                        // The video service chains three components.
                        let expected =
                            terminal + m.processings as f64 / 3.0 - m.holds as f64 / diameter;
                        assert!(
                            (total - expected).abs() < 1e-3,
                            "{total} vs {expected}, {label}"
                        );
                    }
                }
            }
        }
    }
}

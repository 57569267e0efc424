//! End-to-end churn: train under a stochastic fault process, then replay
//! a pinned fault timeline under DRL and both heuristic baselines and
//! check that every coordinator's success ratio degrades during the
//! outage and recovers after repair — the resilience contract of the
//! chaos subsystem — plus determinism and conservation through faults.

use dosco::baselines::{Gcasp, ShortestPath};
use dosco::chaos::{
    resilience_report, ChurnAction, ChurnSchedule, DegradeProcess, ResilienceReport,
    StochasticChurn,
};
use dosco::core::eval::evaluate_under_churn;
use dosco::core::policy::fnv1a64;
use dosco::core::train::{train_distributed, Algorithm, TrainConfig};
use dosco::simnet::{
    Action, Coordinator, DecisionPoint, EventLog, Metrics, ScenarioConfig, SimEvent, Simulation,
};
use dosco::topology::zoo::ABILENE_EGRESS;
use dosco_rl::a2c::A2cConfig;

const EVAL_SEED: u64 = 4242;
const WINDOW: usize = 64;

/// Fault timeline pinned by the acceptance criteria: the egress node dies
/// at t=600 and is repaired at t=900.
fn fault_timeline(scenario: &ScenarioConfig) -> dosco::simnet::ChurnTimeline {
    ChurnSchedule::none()
        .at(600.0, ChurnAction::NodeDown(ABILENE_EGRESS))
        .at(900.0, ChurnAction::NodeUp(ABILENE_EGRESS))
        .compile(&scenario.topology, scenario.horizon, 0)
        .expect("valid schedule")
}

fn run_coordinator<C: Coordinator>(
    scenario: &ScenarioConfig,
    coordinator: C,
) -> (Metrics, Vec<SimEvent>, usize) {
    let mut log = EventLog::new(coordinator);
    let mut sim = Simulation::with_churn(scenario.clone(), EVAL_SEED, fault_timeline(scenario));
    let metrics = sim.run(&mut log).clone();
    let live = sim.live_flows();
    (metrics, log.into_events(), live)
}

/// The single fault window must show a dip-and-recover trajectory.
fn assert_degrades_and_recovers(name: &str, report: &ResilienceReport) {
    assert_eq!(report.windows.len(), 1, "{name}: one pinned fault");
    let w = &report.windows[0];
    assert_eq!(w.action, "node-down", "{name}");
    assert_eq!(w.target, ABILENE_EGRESS.0 as u64, "{name}");
    assert_eq!(w.fault_time, 600.0, "{name}");
    assert_eq!(w.repair_time, Some(900.0), "{name}");
    let before = w.before.unwrap_or_else(|| panic!("{name}: before ratio"));
    let during = w.during.unwrap_or_else(|| panic!("{name}: during ratio"));
    let after = w.after.unwrap_or_else(|| panic!("{name}: after ratio"));
    assert!(
        during < before,
        "{name}: success ratio must degrade during the outage \
         (before {before:.3}, during {during:.3})"
    );
    assert!(
        after > during,
        "{name}: success ratio must recover after repair \
         (during {during:.3}, after {after:.3})"
    );
}

fn assert_conservation(name: &str, metrics: &Metrics, live_at_end: usize) {
    assert_eq!(
        metrics.arrived,
        metrics.completed + metrics.dropped_total() + live_at_end as u64,
        "{name}: every arrived flow completes, drops, or survives to the horizon"
    );
}

#[test]
fn drl_and_baselines_degrade_and_recover_around_pinned_fault() {
    let scenario = ScenarioConfig::paper_base(2).with_horizon(1_500.0);

    // Train under stochastic churn (toy budget, same shape as
    // examples/chaos.rs but A2C-sized for CI).
    let churn = ChurnSchedule::none()
        .with_stochastic(StochasticChurn::default().with_link_failures(2_000.0, 100.0));
    let config = TrainConfig {
        algorithm: Algorithm::A2c,
        total_steps: 2_000,
        n_envs: 2,
        seeds: vec![0, 1],
        a2c: A2cConfig {
            hidden: [12, 12],
            ..A2cConfig::default()
        },
        eval_horizon: 400.0,
        checkpoints: 2,
        fixed_capacity_training: true,
        churn,
        ..TrainConfig::default()
    };
    let trained = train_distributed(&scenario, &config);

    // DRL replay through the manual loop and through the public
    // `evaluate_under_churn` entry point: same seed + same timeline =>
    // exact-equal metrics and an identical event stream, twice.
    let agents =
        dosco::core::DistributedAgents::deploy(&trained.policy, scenario.topology.num_nodes());
    let (drl_metrics, drl_events, drl_live) = run_coordinator(&scenario, agents);
    let (drl_metrics2, drl_events2) = evaluate_under_churn(
        &trained.policy,
        &scenario,
        EVAL_SEED,
        fault_timeline(&scenario),
    );
    assert_eq!(drl_metrics, drl_metrics2);
    assert_eq!(drl_events, drl_events2);

    let (gcasp_metrics, gcasp_events, gcasp_live) = run_coordinator(&scenario, Gcasp::new());
    let (sp_metrics, sp_events, sp_live) = run_coordinator(&scenario, ShortestPath::new());

    // All three coordinators terminate flows through the fault, and every
    // flow is accounted for through fault and repair.
    for (name, metrics, events, live) in [
        ("drl", &drl_metrics, &drl_events, drl_live),
        ("gcasp", &gcasp_metrics, &gcasp_events, gcasp_live),
        ("sp", &sp_metrics, &sp_events, sp_live),
    ] {
        assert!(metrics.arrived > 100, "{name}: traffic flowed");
        assert_conservation(name, metrics, live);
        assert_degrades_and_recovers(name, &resilience_report(events, WINDOW));
    }

    // The fault is visible in the episode metrics too: node-failure drops
    // happened, and both heuristics lose flows they would otherwise carry.
    assert!(
        gcasp_events.iter().any(|e| matches!(
            e,
            SimEvent::FlowDropped {
                reason: dosco::simnet::DropReason::NodeFailure,
                ..
            }
        )),
        "egress death must kill flows at the node"
    );
}

/// Shortest-path coordination that reads the whole path table (its
/// diameter) after every fault, where plain SP reads only the pairs its
/// decisions need.
struct SettleEveryRow(ShortestPath);

impl Coordinator for SettleEveryRow {
    fn decide(&mut self, sim: &Simulation, dp: &DecisionPoint) -> Action {
        self.0.decide(sim, dp)
    }

    fn observe(&mut self, sim: &Simulation, events: &[SimEvent]) {
        if events
            .iter()
            .any(|e| matches!(e, SimEvent::ChurnApplied { .. }))
        {
            sim.shortest_paths().diameter();
        }
    }
}

/// Which pairs of the path table are read after a fault, and in which
/// order, never shows: on the 10x10 unit-delay grid, where every shortest
/// path ties with others until a delay spike breaks some of the ties, an
/// SP episode under stochastic link failures is the same episode —
/// metrics, churn counters, event stream — whether it reads only its own
/// pairs or the whole table after each fault. The rows are repaired in
/// place at every fault, so a read can only load; while rows were lazy
/// searches, this pinned that a row stopped at its target answered as a
/// finished one.
#[test]
fn partial_path_rows_run_the_same_episode_as_forced_rows() {
    let topology = dosco::topology::generators::grid(10, 10, 1.0, 1.0);
    let scenario = dosco_bench::scenarios::churn_scenario(topology, 10.0, 100.0, 600.0);
    let timeline = ChurnSchedule::none()
        .with_stochastic(
            StochasticChurn::default()
                .with_link_failures(500.0, 50.0)
                .with_delay_spikes(DegradeProcess {
                    mean_interval: 500.0,
                    duration: 50.0,
                    factor_min: 1.5,
                    factor_max: 4.0,
                }),
        )
        .compile(&scenario.topology, scenario.horizon, 3)
        .expect("valid schedule");
    fn episode<C: Coordinator>(
        scenario: &ScenarioConfig,
        timeline: &dosco::simnet::ChurnTimeline,
        coordinator: C,
    ) -> (Metrics, dosco::simnet::ChurnStats, usize, u64) {
        let mut log = EventLog::new(coordinator);
        let mut sim = Simulation::with_churn(scenario.clone(), 7, timeline.clone());
        let metrics = sim.run(&mut log).clone();
        let stats = *sim.churn_stats().expect("churn was active");
        let stream: String = log
            .events()
            .iter()
            .map(|e| serde_json::to_string(e).expect("event serializes") + "\n")
            .collect();
        (
            metrics,
            stats,
            log.events().len(),
            fnv1a64(stream.as_bytes()),
        )
    }

    let partial = episode(&scenario, &timeline, ShortestPath::new());
    let forced = episode(&scenario, &timeline, SettleEveryRow(ShortestPath::new()));
    assert_eq!(partial, forced);

    let (metrics, stats, ..) = partial;
    assert!(
        stats.sp_recomputes > 50,
        "failures affect routing: {stats:?}"
    );
    assert!(stats.flows_killed_link > 0, "in-transit victims exist");
    assert!(metrics.completed > 1_000, "service survives between faults");
}

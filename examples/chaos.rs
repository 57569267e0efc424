//! Dynamic substrate: train a coordinator *under churn*, then watch how
//! it rides out a pinned fault timeline compared to the heuristic
//! baselines.
//!
//! ```text
//! cargo run --release --example chaos
//! ```
//!
//! Three stages:
//!
//! 1. Train the distributed DRL policy with stochastic link failures and
//!    node degradations injected into every training episode
//!    (`TrainConfig::churn`).
//! 2. Compile one *scripted* fault timeline — the egress node dies at
//!    t=600 and is repaired at t=900 — and replay the identical timeline
//!    under DRL, GCASP, and SP coordination.
//! 3. Print each coordinator's resilience report: the windowed success
//!    ratio before the fault, during the outage, and after repair.

use dosco::baselines::{Gcasp, ShortestPath};
use dosco::chaos::{resilience_report, ChurnAction, ChurnSchedule, StochasticChurn};
use dosco::core::eval::evaluate_under_churn;
use dosco::core::train::{train_distributed, Algorithm, TrainConfig};
use dosco::simnet::{Coordinator, EventLog, ScenarioConfig, SimEvent, Simulation};
use dosco::traffic::ArrivalPattern;

fn main() {
    let scenario = ScenarioConfig::paper_base(2)
        .with_pattern(ArrivalPattern::paper_poisson())
        .with_horizon(1_500.0);

    // Stage 1: training under stochastic churn. Mild rates — each link
    // fails every ~2 s on average and comes back after ~100 ms; nodes
    // suffer occasional transient capacity throttles. The policy sees
    // detours and re-instantiation instead of memorizing one static
    // substrate.
    let churn = ChurnSchedule::none().with_stochastic(
        StochasticChurn::default()
            .with_link_failures(2_000.0, 100.0)
            .with_node_degrades(dosco::chaos::DegradeProcess {
                mean_interval: 1_500.0,
                duration: 100.0,
                factor_min: 0.5,
                factor_max: 0.8,
            }),
    );
    println!("training distributed DRL agents under churn (toy budget) ...");
    let config = TrainConfig {
        algorithm: Algorithm::Acktr,
        total_steps: 24_000,
        n_envs: 4,
        seeds: vec![0, 1],
        eval_horizon: 1_000.0,
        churn,
        fixed_capacity_training: true,
        ..TrainConfig::default()
    };
    let trained = train_distributed(&scenario, &config);
    println!(
        "best seed: {} (selection score {:.3})",
        trained.policy.metadata.seed, trained.policy.metadata.score
    );

    // Stage 2: one pinned fault — the egress node goes dark for 300 ms.
    // Every coordinator replays the exact same compiled timeline.
    let egress = dosco::topology::zoo::ABILENE_EGRESS;
    let fault = ChurnSchedule::none()
        .at(600.0, ChurnAction::NodeDown(egress))
        .at(900.0, ChurnAction::NodeUp(egress));
    let timeline = fault
        .compile(&scenario.topology, scenario.horizon, 0)
        .expect("valid schedule");
    let eval_seed = 4242;
    const WINDOW: usize = 64;

    let report = |name: &str, events: &[SimEvent]| {
        let r = resilience_report(events, WINDOW);
        for w in &r.windows {
            println!(
                "{name:<16} {} v{} at t={:.0}: before {}  during {}  after {}",
                w.action,
                w.target,
                w.fault_time,
                fmt(w.before),
                fmt(w.during),
                fmt(w.after),
            );
        }
        println!(
            "{name:<16} overall success ratio {} over {} terminations",
            fmt(r.overall),
            r.terminations
        );
    };

    let (drl_metrics, drl_events) =
        evaluate_under_churn(&trained.policy, &scenario, eval_seed, timeline.clone());

    // Baselines run the same simulation directly, with an event log
    // wrapped around them for the resilience report.
    let (gcasp_metrics, gcasp_events) =
        run_baseline(&scenario, eval_seed, timeline.clone(), Gcasp::new());
    let (sp_metrics, sp_events) =
        run_baseline(&scenario, eval_seed, timeline.clone(), ShortestPath::new());

    println!("\nfault timeline: {egress} down at t=600, repaired at t=900\n");
    report("distributed DRL", &drl_events);
    report("GCASP", &gcasp_events);
    report("SP", &sp_events);

    println!(
        "\nepisode success ratio  DRL {:.3} | GCASP {:.3} | SP {:.3}",
        drl_metrics.success_ratio(),
        gcasp_metrics.success_ratio(),
        sp_metrics.success_ratio()
    );
}

fn run_baseline<C: Coordinator>(
    scenario: &ScenarioConfig,
    seed: u64,
    timeline: dosco::simnet::ChurnTimeline,
    coordinator: C,
) -> (dosco::simnet::Metrics, Vec<SimEvent>) {
    let mut log = EventLog::new(coordinator);
    let mut sim = Simulation::with_churn(scenario.clone(), seed, timeline);
    let metrics = sim.run(&mut log).clone();
    (metrics, log.into_events())
}

fn fmt(v: Option<f64>) -> String {
    v.map_or("   -".to_string(), |r| format!("{r:.2}"))
}

//! Cross-algorithm integration: the four compared coordinators run on the
//! same scenarios and their qualitative relationships hold.

use dosco::baselines::central::{train_central, CentralConfig, CentralizedCoordinator};
use dosco::baselines::{Gcasp, ShortestPath};
use dosco::simnet::{Coordinator, DropReason, Metrics, ScenarioConfig, Simulation};
use dosco::traffic::ArrivalPattern;
use dosco_rl::ddpg::DdpgConfig;

fn run(coordinator: &mut dyn Coordinator, scenario: &ScenarioConfig, seed: u64) -> Metrics {
    let mut sim = Simulation::new(scenario.clone(), seed);
    sim.run(coordinator).clone()
}

#[test]
fn heuristics_complete_flows_at_low_load() {
    // One ingress, slow fixed arrivals: both heuristics should have an
    // easy time (Fig. 6a leftmost points).
    let scenario = ScenarioConfig::paper_base(1)
        .with_pattern(ArrivalPattern::Fixed { interval: 40.0 })
        .with_horizon(4_000.0);
    for (name, mut c) in [
        ("gcasp", Box::new(Gcasp::new()) as Box<dyn Coordinator>),
        ("sp", Box::new(ShortestPath::new())),
    ] {
        let m = run(c.as_mut(), &scenario, 1);
        assert!(
            m.success_ratio() > 0.9,
            "{name} got {:.3} at trivial load",
            m.success_ratio()
        );
    }
}

#[test]
fn gcasp_at_least_matches_sp_across_loads() {
    // GCASP degrades no worse than SP as load grows (the paper's Fig. 6
    // consistently shows GCASP ≥ SP).
    for ingress in [2, 3, 4, 5] {
        let scenario = ScenarioConfig::paper_base(ingress)
            .with_pattern(ArrivalPattern::paper_poisson())
            .with_horizon(3_000.0);
        let g = run(&mut Gcasp::new(), &scenario, 9);
        let s = run(&mut ShortestPath::new(), &scenario, 9);
        assert!(
            g.success_ratio() >= s.success_ratio() - 0.02,
            "ingress {ingress}: GCASP {:.3} vs SP {:.3}",
            g.success_ratio(),
            s.success_ratio()
        );
    }
}

#[test]
fn deadline_20_kills_every_flow() {
    // Fig. 7: with τ = 20 all flows drop — 15 ms processing plus any
    // path delay exceeds 20 ms.
    let scenario = ScenarioConfig::paper_base(2)
        .with_pattern(ArrivalPattern::paper_poisson())
        .with_horizon(2_000.0)
        .with_deadline(20.0);
    for mut c in [
        Box::new(Gcasp::new()) as Box<dyn Coordinator>,
        Box::new(ShortestPath::new()),
    ] {
        let m = run(c.as_mut(), &scenario, 4);
        assert_eq!(m.completed, 0);
    }
}

#[test]
fn sp_e2e_delay_is_deadline_invariant() {
    // Fig. 7: SP always takes the shortest path, so its average delay
    // stays fixed (~21 ms) once the deadline admits any flow at all.
    let mut delays = Vec::new();
    for deadline in [30.0, 40.0, 50.0] {
        let scenario = ScenarioConfig::paper_base(2)
            .with_pattern(ArrivalPattern::paper_poisson())
            .with_horizon(3_000.0)
            .with_deadline(deadline);
        let m = run(&mut ShortestPath::new(), &scenario, 6);
        if let Some(d) = m.avg_e2e_delay() {
            delays.push(d);
        }
    }
    assert!(delays.len() >= 2, "SP should complete flows at τ ≥ 30");
    let min = delays.iter().cloned().fold(f64::INFINITY, f64::min);
    let max = delays.iter().cloned().fold(0.0, f64::max);
    assert!(
        max - min < 2.0,
        "SP delay should be deadline-invariant, got {delays:?}"
    );
    assert!(
        (15.0..27.0).contains(&min),
        "SP e2e ≈ 21 ms, got {delays:?}"
    );
}

#[test]
fn central_baseline_full_pipeline() {
    let scenario = ScenarioConfig::paper_base(2)
        .with_pattern(ArrivalPattern::paper_poisson())
        .with_horizon(1_500.0);
    let policy = train_central(
        &scenario,
        &CentralConfig {
            train_steps: 60,
            ddpg: DdpgConfig {
                hidden: [8, 8],
                warmup: 16,
                batch_size: 8,
                ..DdpgConfig::default()
            },
            ..CentralConfig::default()
        },
    );
    let mut coordinator = CentralizedCoordinator::new(policy);
    let m = run(&mut coordinator, &scenario, 8);
    assert!(m.arrived > 0);
    assert_eq!(m.dropped_for(DropReason::InvalidAction), 0);
    assert!(
        coordinator.rule_updates > 5,
        "rules must refresh periodically"
    );
}

#[test]
fn scalability_scenarios_run_on_all_topologies() {
    use dosco::topology::zoo;
    for topo in zoo::all() {
        let name = topo.name().to_string();
        let scenario = dosco_bench::scenarios::topology_scenario(topo, 400.0);
        let m = run(&mut Gcasp::new(), &scenario, 2);
        assert!(m.arrived > 0, "{name}: traffic must flow");
        assert_eq!(
            m.arrived,
            m.completed + m.dropped_total() + m.in_flight(),
            "{name}: conservation"
        );
    }
}

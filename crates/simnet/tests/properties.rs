//! Property-based tests for the simulator's global invariants.

use dosco_simnet::coordinator::RandomCoordinator;
use dosco_simnet::{Action, Coordinator, ScenarioConfig, SimEvent, Simulation};
use dosco_traffic::ArrivalPattern;
use proptest::prelude::*;

fn base(num_ingress: usize, pattern: ArrivalPattern, horizon: f64) -> ScenarioConfig {
    ScenarioConfig::paper_base(num_ingress)
        .with_pattern(pattern)
        .with_horizon(horizon)
}

fn patterns() -> impl Strategy<Value = ArrivalPattern> {
    prop_oneof![
        Just(ArrivalPattern::paper_fixed()),
        Just(ArrivalPattern::paper_poisson()),
        Just(ArrivalPattern::paper_mmpp()),
        Just(ArrivalPattern::paper_trace()),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every arriving flow terminates at most once: completions + drops +
    /// in-flight always equals arrivals, under arbitrary (random) policies,
    /// seeds, load levels, and traffic patterns.
    #[test]
    fn flow_conservation(
        seed in 0u64..1000,
        policy_seed in 0u64..1000,
        num_ingress in 1usize..=5,
        pattern in patterns(),
    ) {
        let cfg = base(num_ingress, pattern, 1_500.0);
        let mut sim = Simulation::new(cfg, seed);
        let mut rc = RandomCoordinator::new(policy_seed);
        sim.run(&mut rc);
        let m = sim.metrics();
        prop_assert_eq!(
            m.arrived,
            m.completed + m.dropped_total() + sim.live_flows() as u64
        );
    }

    /// Node and link utilization stay within [0, capacity + ε] at every
    /// decision point, and time never runs backwards.
    #[test]
    fn utilization_bounded_and_time_monotonic(
        seed in 0u64..1000,
        policy_seed in 0u64..1000,
        num_ingress in 1usize..=5,
    ) {
        let cfg = base(num_ingress, ArrivalPattern::paper_poisson(), 1_000.0);
        let mut sim = Simulation::new(cfg, seed);
        let mut rc = RandomCoordinator::new(policy_seed);
        let mut last_t = 0.0;
        while let Some(dp) = sim.next_decision() {
            prop_assert!(dp.time >= last_t);
            last_t = dp.time;
            for v in sim.topology().node_ids() {
                let used = sim.node_used(v);
                let cap = sim.topology().node(v).capacity;
                prop_assert!(used >= 0.0 && used <= cap + 1e-6,
                    "node {v} used {used} cap {cap}");
            }
            for l in sim.topology().link_ids() {
                let used = sim.link_used(l);
                let cap = sim.topology().link(l).capacity;
                prop_assert!(used >= 0.0 && used <= cap + 1e-6,
                    "link used {used} cap {cap}");
            }
            let a = rc.decide(&sim, &dp);
            sim.apply(a);
        }
    }

    /// Event stream consistency: each flow id appears in exactly one
    /// terminal event (completed xor dropped), never both; completions
    /// respect deadlines.
    #[test]
    fn terminal_events_unique(
        seed in 0u64..1000,
        policy_seed in 0u64..1000,
        pattern in patterns(),
    ) {
        let cfg = base(3, pattern, 1_500.0);
        let mut sim = Simulation::new(cfg, seed);
        let mut rc = RandomCoordinator::new(policy_seed);
        let mut terminal = std::collections::HashMap::new();
        let mut deadline = 0.0;
        let mut events = Vec::new();
        while let Some(dp) = sim.next_decision() {
            deadline = sim
                .flow(dp.flow)
                .map(|f| f.deadline)
                .unwrap_or(deadline);
            let a = rc.decide(&sim, &dp);
            sim.apply(a);
            sim.drain_events_into(&mut events);
            for ev in events.drain(..) {
                match ev {
                    SimEvent::FlowCompleted { flow, e2e_delay, .. } => {
                        prop_assert!(terminal.insert(flow, "done").is_none());
                        prop_assert!(e2e_delay <= deadline + 1e-9);
                    }
                    SimEvent::FlowDropped { flow, .. } => {
                        prop_assert!(terminal.insert(flow, "drop").is_none());
                    }
                    _ => {}
                }
            }
        }
    }

    /// The same seed pair reproduces the exact same metrics.
    #[test]
    fn determinism(seed in 0u64..100, policy_seed in 0u64..100) {
        let run = || {
            let cfg = base(2, ArrivalPattern::paper_mmpp(), 800.0);
            let mut sim = Simulation::new(cfg, seed);
            let mut rc = RandomCoordinator::new(policy_seed);
            sim.run(&mut rc).clone()
        };
        prop_assert_eq!(run(), run());
    }

    /// A coordinator that only ever picks valid forwards and local
    /// processing never triggers invalid-action drops.
    #[test]
    fn valid_actions_never_invalid_drop(seed in 0u64..200) {
        struct ValidOnly(RandomCoordinator);
        impl Coordinator for ValidOnly {
            fn decide(&mut self, sim: &Simulation, dp: &dosco_simnet::DecisionPoint) -> Action {
                match self.0.decide(sim, dp) {
                    Action::Forward(i) if i >= sim.topology().degree(dp.node) => Action::Local,
                    a => a,
                }
            }
        }
        let cfg = base(2, ArrivalPattern::paper_poisson(), 1_000.0);
        let mut sim = Simulation::new(cfg, seed);
        let mut c = ValidOnly(RandomCoordinator::new(seed));
        sim.run(&mut c);
        prop_assert_eq!(
            sim.metrics().dropped_for(dosco_simnet::DropReason::InvalidAction),
            0
        );
    }
}

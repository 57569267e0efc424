//! `/metrics`' churn series are a fold of `ChurnStats`: each churned
//! simulation adds its totals once, when it is dropped — two simulations
//! fold twice, not once per event.
//!
//! The registry is process-global, so this is the only test in its
//! binary.

use dosco::baselines::Gcasp;
use dosco::obs::registry::{counter_value, gauge_value};
use dosco::obs::{CounterKind, GaugeKind};
use dosco::simnet::{
    ChurnAction, ChurnStats, ChurnTimeline, DropReason, Metrics, ScenarioConfig, Simulation,
};
use dosco::topology::{LinkId, NodeId};

const SERIES: [CounterKind; 6] = [
    CounterKind::ChurnEventsApplied,
    CounterKind::ChurnSpRecomputes,
    CounterKind::ChurnFlowsKilled,
    CounterKind::ChurnInstancesLost,
    CounterKind::DropLinkFailure,
    CounterKind::DropNodeFailure,
];

fn series() -> [u64; 6] {
    SERIES.map(counter_value)
}

/// What one simulation should add to [`SERIES`].
fn expected(stats: &ChurnStats, metrics: &Metrics) -> [u64; 6] {
    [
        stats.events_applied,
        stats.sp_recomputes,
        stats.flows_killed_link + stats.flows_killed_node,
        stats.instances_lost,
        metrics.dropped_for(DropReason::LinkFailure),
        metrics.dropped_for(DropReason::NodeFailure),
    ]
}

/// A GCASP episode on Abilene under `entries`, run to its horizon.
fn churned(seed: u64, entries: Vec<(f64, ChurnAction)>) -> (Simulation, ChurnStats, Metrics) {
    let scenario = ScenarioConfig::paper_base(2).with_horizon(600.0);
    let mut sim = Simulation::with_churn(scenario, seed, ChurnTimeline::new(entries));
    let metrics = sim.run(&mut Gcasp::new()).clone();
    let stats = *sim.churn_stats().expect("a timeline is installed");
    (sim, stats, metrics)
}

fn minus(a: [u64; 6], b: [u64; 6]) -> [u64; 6] {
    std::array::from_fn(|i| a[i] - b[i])
}

#[test]
fn churned_simulations_fold_their_stats_once_each() {
    let start = series();
    let (first, stats_a, metrics_a) = churned(
        3,
        vec![
            (100.0, ChurnAction::LinkDown(LinkId(2))),
            (150.0, ChurnAction::NodeDown(NodeId(0))),
            (200.0, ChurnAction::LinkUp(LinkId(2))),
            (300.0, ChurnAction::NodeUp(NodeId(0))),
            (
                350.0,
                ChurnAction::DegradeNodeCapacity {
                    node: NodeId(1),
                    factor: 0.5,
                },
            ),
            (
                400.0,
                ChurnAction::DelaySpike {
                    link: LinkId(0),
                    factor: 3.0,
                },
            ),
        ],
    );
    let (second, stats_b, metrics_b) = churned(
        7,
        vec![
            (50.0, ChurnAction::NodeDown(NodeId(1))),
            (250.0, ChurnAction::NodeUp(NodeId(1))),
        ],
    );
    assert_eq!(stats_a.events_applied, 6);
    assert_eq!(stats_b.events_applied, 2);
    assert!(
        stats_a.flows_killed_node + stats_b.flows_killed_node > 0,
        "a failed ingress kills flows: {stats_a:?} {stats_b:?}"
    );
    assert!(
        stats_a.instances_lost + stats_b.instances_lost > 0,
        "GCASP places instances at the failed nodes: {stats_a:?} {stats_b:?}"
    );
    assert_eq!(series(), start, "nothing is counted while episodes run");

    drop(first);
    let one = expected(&stats_a, &metrics_a);
    assert_eq!(minus(series(), start), one, "the first fold");
    assert_eq!(gauge_value(GaugeKind::TopoVersion), 6.0);

    drop(second);
    let two = expected(&stats_b, &metrics_b);
    let total: [u64; 6] = std::array::from_fn(|i| one[i] + two[i]);
    assert_eq!(minus(series(), start), total, "the second fold");
    assert_eq!(gauge_value(GaugeKind::TopoVersion), 2.0);
    assert_eq!(
        total[2],
        stats_a.flows_killed_link
            + stats_a.flows_killed_node
            + stats_b.flows_killed_link
            + stats_b.flows_killed_node
    );
}

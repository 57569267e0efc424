//! `/metrics`' drop-cause series are a fold of `Metrics`: a static,
//! untraced episode adds exactly its own drop counts, once, when the
//! simulation is dropped.
//!
//! The registry is process-global, so this is the only test in its
//! binary.

use dosco::obs::registry::counter_value;
use dosco::obs::CounterKind;
use dosco::simnet::coordinator::AlwaysLocal;
use dosco::simnet::{DropReason, ScenarioConfig, Simulation};

fn drop_counter(reason: DropReason) -> CounterKind {
    match reason {
        DropReason::NodeCapacity => CounterKind::DropNodeCapacity,
        DropReason::LinkCapacity => CounterKind::DropLinkCapacity,
        DropReason::DeadlineExpired => CounterKind::DropDeadlineExpired,
        DropReason::InvalidAction => CounterKind::DropInvalidAction,
        DropReason::LinkFailure => CounterKind::DropLinkFailure,
        DropReason::NodeFailure => CounterKind::DropNodeFailure,
    }
}

fn drops() -> Vec<u64> {
    DropReason::ALL
        .iter()
        .map(|&r| counter_value(drop_counter(r)))
        .collect()
}

#[test]
fn untraced_static_episode_folds_its_drops_once() {
    assert!(!dosco::obs::trace_enabled());
    let before = drops();
    let mut sim = Simulation::new(ScenarioConfig::paper_base(3).with_horizon(2_000.0), 5);
    let metrics = sim.run(&mut AlwaysLocal).clone();
    assert!(
        metrics.dropped_for(DropReason::NodeCapacity) > 0,
        "processing everything at the ingress overloads it: {metrics:?}"
    );
    assert_eq!(drops(), before, "nothing is counted while the episode runs");
    drop(sim);
    let after = drops();
    for (i, reason) in DropReason::ALL.into_iter().enumerate() {
        assert_eq!(
            after[i] - before[i],
            metrics.dropped_for(reason),
            "{reason:?}"
        );
    }
}

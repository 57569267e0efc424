//! Churn trace determinism: a traced episode on a churning substrate
//! renders a byte-identical JSONL stream across same-seed runs, and the
//! stream carries the `ChurnApplied` events with monotonic topology
//! versions. This is the `DOSCO_TRACE` contract extended to faults —
//! `scripts/check.sh` gates on it.

use dosco::baselines::ShortestPath;
use dosco::chaos::{ChurnAction, ChurnSchedule, StochasticChurn};
use dosco::obs::JsonlRecorder;
use dosco::simnet::{ScenarioConfig, Simulation};
use dosco::topology::{LinkId, NodeId};
use std::sync::Arc;

/// One traced SP episode under a mixed scripted + stochastic schedule;
/// returns the rendered JSONL trace. The recorder is uninstalled before
/// returning so global state never leaks between invocations.
fn traced_churn_run() -> String {
    let recorder = Arc::new(JsonlRecorder::new("/tmp/unused-chaos-trace.jsonl"));
    dosco::obs::install_recorder(recorder.clone());

    let scenario = ScenarioConfig::paper_base(2).with_horizon(600.0);
    let timeline = ChurnSchedule::none()
        .at(100.0, ChurnAction::LinkDown(LinkId(2)))
        .at(200.0, ChurnAction::LinkUp(LinkId(2)))
        .at(250.0, ChurnAction::NodeDown(NodeId(5)))
        .at(400.0, ChurnAction::NodeUp(NodeId(5)))
        .with_stochastic(StochasticChurn::default().with_link_failures(2_000.0, 100.0))
        .compile(&scenario.topology, scenario.horizon, 21)
        .expect("valid schedule");
    let mut sim = Simulation::with_churn(scenario, 13, timeline);
    sim.run(&mut ShortestPath::new());

    dosco::obs::uninstall_recorder();
    recorder.render()
}

#[test]
fn churn_traces_are_byte_identical_and_carry_churn_events() {
    let first = traced_churn_run();
    let second = traced_churn_run();
    assert_eq!(
        first, second,
        "same seed + same schedule must render byte-identical traces"
    );

    let lines: Vec<&str> = first.lines().collect();
    assert!(lines.len() > 3, "expected a non-trivial trace");
    for line in &lines {
        let _: serde::Value = serde_json::from_str(line).expect("every line parses");
    }
    let churn_lines = lines.iter().filter(|l| l.contains("ChurnApplied")).count();
    assert!(
        churn_lines >= 4,
        "all scripted churn events must be traced, got {churn_lines}"
    );
    // The scripted link failure is in the stream with its action label.
    assert!(
        first.contains("link-down"),
        "trace must carry the stable action label"
    );
}

//! End-to-end observability contract: a traced training run produces a
//! schema-versioned JSONL event stream in which every line parses, and
//! two runs with the same seed render byte-identical traces.
//!
//! The runtime's actor and learner run in lockstep, so the trace is
//! deterministic; in-memory `JsonlRecorder::render` rather than temp
//! files keeps the test hermetic.

use dosco::core::{CoordEnv, RewardConfig};
use dosco::obs::{JsonlRecorder, Stream};
use dosco::rl::a2c::{A2c, A2cConfig};
use dosco::rl::Env;
use dosco::runtime::{train, RuntimeConfig};
use dosco::simnet::ScenarioConfig;
use dosco::traffic::ArrivalPattern;
use std::sync::Arc;

/// One short runtime training run with `recorder` installed; returns
/// the rendered trace. The recorder is uninstalled before returning so
/// the global state never leaks between invocations.
fn traced_training_run() -> String {
    let recorder = Arc::new(JsonlRecorder::new("/tmp/unused-obs-trace.jsonl"));
    dosco::obs::install_recorder(recorder.clone());

    // Short horizon so the training envs cycle through complete episodes
    // (EpisodeEnd events) within the small step budget.
    let scenario = ScenarioConfig::paper_base(1)
        .with_pattern(ArrivalPattern::paper_poisson())
        .with_horizon(60.0);
    let degree = scenario.topology.network_degree();
    let (obs_dim, num_actions) = (4 * degree + 4, degree + 1);
    let mut envs: Vec<Box<dyn Env>> = (0..2)
        .map(|i| {
            Box::new(CoordEnv::new(
                scenario.clone(),
                RewardConfig::default(),
                500 + i,
                None,
            )) as Box<dyn Env>
        })
        .collect();
    let cfg = A2cConfig {
        n_steps: 8,
        hidden: [32, 32],
        ..A2cConfig::default()
    };
    let mut agent = A2c::new(obs_dim, num_actions, cfg, 0);
    let outcome = train(&mut agent, &mut envs, 96, &RuntimeConfig::sync());
    assert!(outcome.stats.total_steps >= 96);

    dosco::obs::uninstall_recorder();
    recorder.render()
}

#[test]
fn traced_runs_are_byte_identical_and_parseable() {
    let first = traced_training_run();
    let second = traced_training_run();
    assert_eq!(first, second, "same-seed traces must be byte-identical");

    let lines: Vec<&str> = first.lines().collect();
    assert!(lines.len() > 3, "expected a non-trivial trace");

    // Header: schema version + stream/event counts matching the body.
    let header: serde::Value = serde_json::from_str(lines[0]).expect("header parses");
    let obj = header.as_object().expect("header is an object");
    let get = |k: &str| {
        obj.iter()
            .find(|(key, _)| key == k)
            .map(|(_, v)| v)
            .unwrap_or_else(|| panic!("header field {k}"))
    };
    assert_eq!(
        get("schema").as_u64(),
        Some(u64::from(dosco::obs::SCHEMA_VERSION))
    );
    assert_eq!(get("events").as_u64(), Some(lines.len() as u64 - 1));

    // Body: every line is one JSON object with stream / seq / event, and
    // per-stream sequence numbers are contiguous from zero.
    let mut next_seq: std::collections::BTreeMap<String, u64> = Default::default();
    let mut saw_episode_end = false;
    for line in &lines[1..] {
        let v: serde::Value = serde_json::from_str(line).expect("event line parses");
        let obj = v.as_object().expect("event line is an object");
        let field = |k: &str| {
            obj.iter()
                .find(|(key, _)| key == k)
                .map(|(_, v)| v)
                .unwrap_or_else(|| panic!("event field {k}"))
        };
        let stream = field("stream").as_str().expect("stream label").to_string();
        let seq = field("seq").as_u64().expect("seq number");
        let expected = next_seq.entry(stream).or_insert(0);
        assert_eq!(seq, *expected, "per-stream seq must be contiguous");
        *expected += 1;
        let event = field("event").as_object().expect("event payload");
        assert_eq!(event.len(), 1, "events are single-variant objects");
        if event[0].0 == "EpisodeEnd" {
            saw_episode_end = true;
        }
    }
    assert!(saw_episode_end, "training episodes must emit EpisodeEnd");
    assert!(
        next_seq.keys().any(|s| s.starts_with("sim:")),
        "expected at least one per-episode sim stream"
    );
    assert!(
        next_seq.contains_key(&Stream::learner().label()),
        "expected the learner stream (batches + snapshots)"
    );
}

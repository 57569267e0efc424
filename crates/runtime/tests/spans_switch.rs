//! The runtime's channel and publish spans obey the span switch: a
//! training run records none of them while spans are disarmed (the
//! default) and one per batch once they are armed. The runtime's own
//! counters measure either way.
//!
//! The registry and the switch are process-global, so this is the only
//! test in its binary.

use dosco_obs::registry::span_snapshot;
use dosco_obs::SpanKind;
use dosco_rl::a2c::{A2c, A2cConfig};
use dosco_rl::env::{Env, StepResult};
use dosco_runtime::{train, RuntimeConfig, RuntimeOutcome};

/// A two-action counter that ends an episode every eight steps.
struct Tick(usize);

impl Env for Tick {
    fn obs_dim(&self) -> usize {
        1
    }

    fn num_actions(&self) -> usize {
        2
    }

    fn reset(&mut self) -> Vec<f32> {
        self.0 = 0;
        vec![0.0]
    }

    fn step(&mut self, action: usize) -> StepResult {
        self.0 += 1;
        StepResult {
            obs: vec![self.0 as f32 / 8.0],
            reward: action as f32,
            done: self.0.is_multiple_of(8),
        }
    }
}

const SPANS: [SpanKind; 3] = [
    SpanKind::ChannelSend,
    SpanKind::ChannelRecv,
    SpanKind::SnapshotPublish,
];

fn run() -> RuntimeOutcome {
    let mut envs: Vec<Box<dyn Env>> = vec![Box::new(Tick(0)), Box::new(Tick(3))];
    let cfg = A2cConfig {
        n_steps: 8,
        hidden: [8, 8],
        ..A2cConfig::default()
    };
    let mut agent = A2c::new(1, 2, cfg, 0);
    train(&mut agent, &mut envs, 64, &RuntimeConfig::sync())
}

fn counts() -> [u64; 3] {
    SPANS.map(|k| span_snapshot(k).0)
}

#[test]
fn channel_and_publish_spans_follow_the_switch() {
    assert!(!dosco_obs::spans_enabled());
    let disarmed = run();
    let r = &disarmed.report;
    assert_eq!(r.batches_consumed, 4, "{r:?}");
    assert_eq!(r.snapshots_published, 4, "{r:?}");
    assert_eq!(counts(), [0, 0, 0], "disarmed spans record nothing");

    dosco_obs::set_spans_enabled(true);
    let armed = run();
    dosco_obs::set_spans_enabled(false);
    let r = &armed.report;
    assert_eq!(
        counts(),
        [
            r.batches_produced,
            r.batches_consumed,
            r.snapshots_published
        ],
        "one span per batch: {r:?}"
    );
    assert_eq!(counts(), [4, 4, 4]);
}

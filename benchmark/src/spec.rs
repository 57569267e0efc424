//! The names this benchmark reports: workloads, end-to-end metrics and
//! per-layer metrics. `BENCHMARK.json` at the repository root lists the
//! same names (pinned by `tests/contract.rs`).

use crate::stats::Better::{self, Higher, Lower};

/// `(name, why)` of each workload.
pub const WORKLOADS: [(&str, &str); 5] = [
    (
        "decide-abilene",
        "per-decision observe+act loop on the paper's base scenario: batch-1 forward is ~97% of it, so it isolates nn+core and bypasses serve, net, runtime and churn",
    ),
    (
        "serve-abilene",
        "same policy and scenario through the 1-shard serving fabric with 16 concurrent episodes: mailbox, flush barrier and batched forward do the work that decide-abilene skips",
    ),
    (
        "sim-grid-static",
        "shortest-path coordinator on a 10x10 grid with 100k live flows: event queue, flow slab and flow lifecycle do all the work, no NN; peak memory is the simulator's",
    ),
    (
        "sim-grid-churn",
        "same grid at 10k live flows under stochastic link failures: fault application, victim scans and masked path recomputes, which sim-grid-static never runs",
    ),
    (
        "train-inproc",
        "sync actor-learner ACKTR training, paper hyper-parameters, in-process channel: the rl update with nn backward and K-FAC is ~93% of it; its traced run also prices the same training over loopback TCP",
    ),
];

/// One end-to-end metric: `(name, unit, better, bound)`.
pub type EndToEnd = (&'static str, &'static str, Better, f64);

/// The gated metrics, reported by every workload with `--trace 0`.
pub const END_TO_END: [EndToEnd; 4] = [
    ("setup_s", "s", Lower, 0.25),
    ("decisions_per_s", "1/s", Higher, 0.25),
    ("decision_p50_us", "us", Lower, 0.25),
    ("peak_rss_mb", "MB", Lower, 0.15),
];

/// One per-layer metric: `(name, unit, better)`.
pub type PerLayer = (&'static str, &'static str, Better);

/// The per-layer metrics, reported by every workload with `--trace 1`
/// (0 where the workload never calls the layer). `_s` times are per
/// segment; counts are per segment and repeat exactly for a given seed.
pub const PER_LAYER: [PerLayer; 67] = [
    ("topology.paths_compute_us", "us", Lower),
    ("topology.paths_masked_us", "us", Lower),
    ("chaos.compile_us", "us", Lower),
    ("chaos.timeline_events", "count", Lower),
    ("simnet.next_decision_s", "s", Lower),
    ("simnet.apply_s", "s", Lower),
    ("simnet.run_self_s", "s", Lower),
    ("simnet.queue_push_pop_ns", "ns", Lower),
    ("simnet.decisions", "count", Higher),
    ("simnet.events", "count", Higher),
    ("simnet.flows", "count", Higher),
    ("simnet.peak_live_flows", "count", Lower),
    ("simnet.peak_queued_events", "count", Lower),
    ("simnet.flow_slab_capacity", "count", Lower),
    ("simnet.churn_events_applied", "count", Higher),
    ("simnet.sp_recomputes", "count", Lower),
    ("simnet.events_per_s", "1/s", Higher),
    ("simnet.flows_per_s", "1/s", Higher),
    ("simnet.churn_cost_x", "x", Lower),
    ("baselines.sp_decide_s", "s", Lower),
    ("core.observe_s", "s", Lower),
    ("core.observe_ns", "ns", Lower),
    ("core.act_s", "s", Lower),
    ("core.act_us", "us", Lower),
    ("core.decide_p99_us", "us", Lower),
    ("core.env_step_s", "s", Lower),
    ("core.env_reset_s", "s", Lower),
    ("core.env_steps", "count", Higher),
    ("core.policy_load_us", "us", Lower),
    ("nn.forward_b1_us", "us", Lower),
    ("nn.forward_b4_us", "us", Lower),
    ("nn.forward_b16_us", "us", Lower),
    ("nn.fwd_bwd_b64_us", "us", Lower),
    ("nn.forward_flops", "count", Lower),
    ("rl.update_s", "s", Lower),
    ("rl.updates", "count", Higher),
    ("rl.collect_self_s", "s", Lower),
    ("runtime.recv_wait_s", "s", Lower),
    ("runtime.send_wait_s", "s", Lower),
    ("runtime.publish_s", "s", Lower),
    ("runtime.batches", "count", Higher),
    ("runtime.snapshots", "count", Higher),
    ("runtime.cycle_p50_us", "us", Lower),
    ("net.encode_batch_us", "us", Lower),
    ("net.decode_batch_us", "us", Lower),
    ("net.batch_bytes", "count", Lower),
    ("net.encode_reply_us", "us", Lower),
    ("net.decode_reply_us", "us", Lower),
    ("net.reply_bytes", "count", Lower),
    ("net.frame_us", "us", Lower),
    ("net.loopback_rtt_us", "us", Lower),
    ("net.inproc_rtt_us", "us", Lower),
    ("net.socket_train_x", "x", Lower),
    ("serve.epochs", "count", Lower),
    ("serve.epoch_p50_us", "us", Lower),
    ("serve.epoch_p99_us", "us", Lower),
    ("serve.mean_batch_rows", "count", Higher),
    ("serve.max_batch_rows", "count", Higher),
    ("serve.fallback_decisions", "count", Lower),
    ("serve.loop_decisions_per_s", "1/s", Higher),
    ("serve.vs_loop_x", "x", Higher),
    ("serve.two_shard_x", "x", Higher),
    ("bench.segments", "count", Higher),
    ("bench.segment_spread_pct", "%", Lower),
    ("bench.timer_ns", "ns", Lower),
    ("bench.trace_overhead_pct", "%", Lower),
    ("bench.accounted_pct", "%", Higher),
];

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    /// Whether `name` fits the contract's name rule: starts with a letter or
    /// digit, then at most 63 more of letters, digits, `_`, `.` and `-`.
    fn valid_name(name: &str) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
        name.len() <= 64
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
            && name.chars().all(ok)
    }

    #[test]
    fn names_fit_the_contract_and_are_used_once() {
        let mut seen = BTreeSet::new();
        let names = WORKLOADS
            .iter()
            .map(|w| w.0)
            .chain(END_TO_END.iter().map(|m| m.0))
            .chain(PER_LAYER.iter().map(|m| m.0));
        for name in names {
            assert!(valid_name(name), "{name:?} breaks the name rule");
            assert!(seen.insert(name), "{name:?} is used twice");
        }
        assert!(!valid_name(".hidden"));
        assert!(!valid_name("has space"));
        assert!(!valid_name(""));
    }

    #[test]
    fn whys_and_units_fit_the_contract() {
        for (name, why) in WORKLOADS {
            assert!(
                why.len() <= 200 && !why.contains('\n'),
                "{name}: why too long"
            );
        }
        let unit_ok = |u: &str| {
            !u.is_empty()
                && u.len() <= 16
                && u.chars()
                    .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
        };
        for (name, unit, _, bound) in END_TO_END {
            assert!(unit_ok(unit), "{name}: unit {unit:?}");
            assert!(bound > 0.0 && bound <= 0.25, "{name}: bound {bound}");
        }
        for (name, unit, _) in PER_LAYER {
            assert!(unit_ok(unit), "{name}: unit {unit:?}");
        }
    }
}

//! `serve-abilene`: the same policy and scenario as `decide-abilene`,
//! answered by the sharded serving fabric — one shard, sixteen concurrent
//! episodes, one batched forward per epoch. The frontend and the shard
//! are the host's two busy threads.

use crate::harness::{fingerprint, Layers, Segment, TraceCtx, Workload};
use crate::probes;
use crate::scenario;
use crate::stats;
use dosco_core::CoordinationPolicy;
use dosco_serve::{serve_with, ServeConfig, ServeOutcome, ServeReport};
use dosco_simnet::{Metrics, ScenarioConfig};
use std::path::Path;
use std::time::Instant;

/// Episode length of one segment.
const HORIZON: f64 = 500.0;
/// Horizon of the set-up's smallest unit of work.
const SETUP_HORIZON: f64 = 20.0;
/// Concurrent episodes, hence the most rows one epoch can batch.
const EPISODES: u64 = 16;

/// See the module docs.
#[derive(Debug)]
pub struct Serve {
    scenario: ScenarioConfig,
    policy: CoordinationPolicy,
    seeds: Vec<u64>,
    epoch_ns: Vec<u32>,
    last: Vec<Metrics>,
    last_report: ServeReport,
    /// Sum of the last segment's epoch times.
    last_epoch_s: f64,
}

impl Serve {
    /// Serves every episode of `scenario` through `shards` shards,
    /// stamping each epoch boundary.
    fn serve(&mut self, scenario: &ScenarioConfig, shards: usize) -> (ServeOutcome, Instant) {
        self.epoch_ns.clear();
        let start = Instant::now();
        let mut last = start;
        let epoch_ns = &mut self.epoch_ns;
        let outcome = serve_with(
            &self.policy,
            None,
            scenario,
            &self.seeds,
            &ServeConfig::new(shards),
            |epoch| {
                let now = Instant::now();
                if epoch > 0 {
                    epoch_ns.push(u32::try_from((now - last).as_nanos()).unwrap_or(u32::MAX));
                }
                last = now;
            },
        );
        (outcome, start)
    }
}

impl Workload for Serve {
    fn setup(seed: u64) -> Self {
        let scenario = scenario::abilene(HORIZON);
        let policy = scenario::random_policy(&scenario);
        let mut w = Serve {
            scenario,
            policy,
            seeds: (0..EPISODES)
                .map(|e| seed.wrapping_mul(1_000) + e)
                .collect(),
            epoch_ns: Vec::new(),
            last: Vec::new(),
            last_report: ServeReport::default(),
            last_epoch_s: 0.0,
        };
        let unit = w.scenario.clone().with_horizon(SETUP_HORIZON);
        w.serve(&unit, 1);
        w
    }

    fn segment(&mut self, mut trace: Option<TraceCtx<'_>>) -> Segment {
        let span = trace
            .as_mut()
            .map(|t| t.tracer.open("serve.serve_with", t.root));
        let scenario = self.scenario.clone();
        let (outcome, start) = self.serve(&scenario, 1);
        let busy: u64 = self.epoch_ns.iter().map(|&ns| u64::from(ns)).sum();
        self.last_epoch_s = busy as f64 / 1e9;
        if let (Some(t), Some(id)) = (trace.as_mut(), span) {
            t.tracer.close(id);
            let start_ns = t.tracer.at(start);
            let end_ns = t.tracer.now();
            t.tracer.push(
                "serve.epoch",
                id,
                start_ns,
                end_ns,
                busy,
                self.epoch_ns.len() as u64,
            );
        }
        let report = &outcome.report;
        let p50_us = stats::quantile_us(&mut self.epoch_ns, 0.5);
        if let Some(t) = trace.as_mut() {
            let n = self.epoch_ns.len();
            let tail = stats::quantile_us(&mut self.epoch_ns, stats::tail_quantile(n));
            t.layers.record("serve.epochs", report.epochs as f64);
            t.layers.record("serve.epoch_p50_us", p50_us);
            t.layers.record("serve.epoch_p99_us", tail);
            t.layers.record(
                "serve.mean_batch_rows",
                report.batched_decisions as f64 / report.epochs.max(1) as f64,
            );
            t.layers
                .record("serve.max_batch_rows", report.max_batch_rows as f64);
            t.layers
                .record("serve.fallback_decisions", report.fallback_decisions as f64);
            t.layers.record("simnet.decisions", report.decisions as f64);
            let flows: u64 = outcome.metrics.iter().map(|m| m.arrived).sum();
            t.layers.record("simnet.flows", flows as f64);
        }
        let segment = Segment {
            decisions: report.decisions,
            failed: report.fallback_decisions,
            fingerprint: fingerprint(&outcome.metrics),
            p50_us,
        };
        self.last = outcome.metrics;
        self.last_report = outcome.report;
        segment
    }

    fn reference(&mut self) -> Result<u64, String> {
        if !self.last_report.conserved() {
            return Err(format!(
                "serve report not conserved: {} decisions, {} batched + {} fallback",
                self.last_report.decisions,
                self.last_report.batched_decisions,
                self.last_report.fallback_decisions
            ));
        }
        let reference: Vec<Metrics> = self
            .seeds
            .iter()
            .map(|&s| dosco_core::eval::evaluate(&self.policy, &self.scenario, s))
            .collect();
        if let Some(e) = (0..reference.len()).find(|&e| self.last.get(e) != Some(&reference[e])) {
            return Err(format!(
                "episode {e} (seed {}) served metrics differ from eval::evaluate's",
                self.seeds[e]
            ));
        }
        Ok(fingerprint(&reference))
    }

    fn probes(&mut self, layers: &mut Layers, _out_dir: &Path) {
        let observations =
            scenario::record_observations(&self.scenario, &self.policy, self.seeds[0], 16);
        probes::forward(layers, self.policy.actor(), &observations, &[1, 16]);

        // The per-decision loop over the same episodes, and the same
        // serve call on two shards (three busy threads: informational on
        // a host with fewer than three cores).
        let scenario = self.scenario.clone();
        let decisions = self.last_report.decisions as f64;
        let one_shard = probes::best_of(1, || self.serve(&scenario, 1).0.report.decisions);
        let two_shards = probes::best_of(1, || self.serve(&scenario, 2).0.report.decisions);
        let per_decision = probes::best_of(1, || {
            self.seeds
                .iter()
                .map(|&s| dosco_core::eval::evaluate(&self.policy, &scenario, s).decisions)
                .sum::<u64>()
        });
        layers.record("serve.loop_decisions_per_s", decisions / per_decision);
        layers.record("serve.vs_loop_x", per_decision / one_shard);
        layers.record("serve.two_shard_x", one_shard / two_shards);

        // What the forward pass explains of an epoch, and what is left
        // for the mailbox, the flush barrier and stepping the episodes.
        let epochs = layers.get("serve.epochs").unwrap_or(0.0);
        let epoch_s = self.last_epoch_s;
        let forward_s = layers.get("nn.forward_b16_us").unwrap_or(0.0) * 1e-6 * epochs;
        if epoch_s > 0.0 {
            layers.note(format!(
                "serve: {epochs:.0} epochs took {epoch_s:.4} s per segment; nn.forward_b16_us x \
                 serve.epochs explains {forward_s:.4} s ({:.1} %), leaving {:.1} % unattributed \
                 (mailbox, flush barrier, stepping {EPISODES} episodes)",
                100.0 * forward_s / epoch_s,
                100.0 * (1.0 - forward_s / epoch_s),
            ));
        }
    }
}

//! `decide-abilene`: the paper's per-decision latency. A manual
//! `next_decision → observe → act → apply` loop over one episode of the
//! base scenario, one decision at a time on one thread.

use crate::harness::{fingerprint, in_span, Layers, Segment, TraceCtx, Workload};
use crate::probes;
use crate::scenario;
use crate::stats;
use crate::trace::BlockAcc;
use dosco_core::{CoordinationPolicy, ObservationAdapter};
use dosco_simnet::{Action, Metrics, ScenarioConfig, SimEvent, Simulation};
use std::path::Path;
use std::time::Instant;

/// Episode length of one segment.
const HORIZON: f64 = 5_000.0;
/// Decisions of the set-up's smallest unit of work.
const SETUP_DECISIONS: u64 = 256;

const SPANS: [&str; 4] = [
    "simnet.next_decision",
    "core.observe",
    "core.act",
    "simnet.apply",
];

/// See the module docs.
#[derive(Debug)]
pub struct Decide {
    scenario: ScenarioConfig,
    policy: CoordinationPolicy,
    adapter: ObservationAdapter,
    seed: u64,
    events: Vec<SimEvent>,
    latency_ns: Vec<u32>,
    last: Metrics,
}

impl Decide {
    /// One episode, stopping after `limit` decisions. Times `observe` +
    /// `act` per decision; with `trace`, also the simulator calls around
    /// them.
    fn episode(&mut self, limit: u64, mut trace: Option<TraceCtx<'_>>) -> Segment {
        let mut sim = in_span(&mut trace, "simnet.new", || {
            Simulation::new(self.scenario.clone(), self.seed)
        });
        self.latency_ns.clear();
        let traced = trace.is_some();
        let mut acc = [BlockAcc::default(); 4];
        let mut block_start = trace.as_ref().map_or(0, |t| t.tracer.now());
        let mut events = 0u64;
        let mut decisions = 0u64;
        while decisions < limit {
            let t0 = Instant::now();
            sim.drain_events_into(&mut self.events);
            events += self.events.len() as u64;
            let Some(dp) = sim.next_decision() else { break };
            let t1 = Instant::now();
            let obs = self.adapter.observe(&sim, &dp);
            let t2 = if traced { Instant::now() } else { t1 };
            let action = self.policy.act(&obs);
            let t3 = Instant::now();
            sim.apply(Action::from_index(action));
            self.latency_ns
                .push(u32::try_from((t3 - t1).as_nanos()).unwrap_or(u32::MAX));
            decisions += 1;
            if let Some(t) = trace.as_mut() {
                let t4 = Instant::now();
                for (a, (start, end)) in
                    acc.iter_mut().zip([(t0, t1), (t1, t2), (t2, t3), (t3, t4)])
                {
                    a.add(start, end);
                }
                if acc[0].full() {
                    for (a, name) in acc.iter_mut().zip(SPANS) {
                        a.flush(t.tracer, name, t.root, block_start);
                    }
                    block_start = t.tracer.now();
                }
            }
        }
        self.last = sim.metrics().clone();
        if let Some(t) = trace.as_mut() {
            for (a, name) in acc.iter_mut().zip(SPANS) {
                a.flush(t.tracer, name, t.root, block_start);
            }
            let n = self.latency_ns.len();
            let tail = stats::quantile_us(&mut self.latency_ns, stats::tail_quantile(n));
            t.layers.record("core.decide_p99_us", tail);
            t.layers
                .record("simnet.decisions", self.last.decisions as f64);
            t.layers.record("simnet.events", events as f64);
            t.layers.record("simnet.flows", self.last.arrived as f64);
            t.layers
                .record("simnet.peak_live_flows", sim.peak_live_flows() as f64);
            t.layers
                .record("simnet.peak_queued_events", sim.peak_queued_events() as f64);
            t.layers
                .record("simnet.flow_slab_capacity", sim.flow_slab_capacity() as f64);
        }
        Segment {
            decisions,
            failed: 0,
            fingerprint: fingerprint(&self.last),
            p50_us: stats::quantile_us(&mut self.latency_ns, 0.5),
        }
    }
}

impl Workload for Decide {
    fn setup(seed: u64) -> Self {
        let scenario = scenario::abilene(HORIZON);
        let policy = scenario::random_policy(&scenario);
        let mut w = Decide {
            adapter: policy.adapter(),
            scenario,
            policy,
            seed,
            events: Vec::new(),
            latency_ns: Vec::new(),
            last: Metrics::new(),
        };
        w.episode(SETUP_DECISIONS, None);
        w
    }

    fn segment(&mut self, trace: Option<TraceCtx<'_>>) -> Segment {
        self.episode(u64::MAX, trace)
    }

    fn reference(&mut self) -> Result<u64, String> {
        let reference = dosco_core::eval::evaluate(&self.policy, &self.scenario, self.seed);
        if reference != self.last {
            return Err(format!(
                "manual loop metrics {:?} differ from eval::evaluate's {reference:?}",
                self.last
            ));
        }
        Ok(fingerprint(&reference))
    }

    fn probes(&mut self, layers: &mut Layers, out_dir: &Path) {
        let decisions = layers.get("simnet.decisions").unwrap_or(1.0);
        for (per_decision, total, scale) in [
            ("core.observe_ns", "core.observe_s", 1e9),
            ("core.act_us", "core.act_s", 1e6),
        ] {
            let total = layers.get(total).unwrap_or(0.0);
            layers.record(per_decision, total * scale / decisions);
        }
        probes::paths_compute(layers, &self.scenario.topology);
        let observations =
            scenario::record_observations(&self.scenario, &self.policy, self.seed, 16);
        probes::forward(layers, self.policy.actor(), &observations, &[1]);
        probes::policy_load(layers, &self.policy, out_dir);
    }
}

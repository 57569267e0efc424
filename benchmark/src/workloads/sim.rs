//! `sim-grid-static` and `sim-grid-churn`: `Simulation::run` under the
//! shortest-path coordinator on a 10×10 grid. No NN: the simulator's
//! queue, slab and flow lifecycle do the work — plus, with churn, fault
//! application, victim scans and masked path recomputes.

use crate::harness::{fingerprint, in_span, Layers, Segment, TraceCtx, Workload};
use crate::probes;
use crate::scenario;
use crate::stats;
use crate::trace::{BlockAcc, SpanId, Tracer, BLOCK};
use dosco_baselines::ShortestPath;
use dosco_chaos::{ChurnSchedule, StochasticChurn};
use dosco_simnet::{
    Action, ChurnStats, ChurnTimeline, Coordinator, DecisionPoint, Metrics, ScenarioConfig,
    SimEvent, Simulation,
};
use dosco_topology::paths::ShortestPaths;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// Flow dwell time: `100 / interval · DWELL` flows are live.
const DWELL: f64 = 1_000.0;
/// Horizon of the set-up's smallest unit of work.
const SETUP_HORIZON: f64 = 20.0;
/// Link failure process of the churn workload.
const MTBF: f64 = 500.0;
const MTTR: f64 = 50.0;
/// Churn events after which the traced run captures the up/down masks
/// for the masked-recompute probe (a few links are down by then).
const MASK_EPOCH: u64 = 10;

/// The substrate state at one churn epoch.
#[derive(Debug, Clone)]
struct Masks {
    node_up: Vec<bool>,
    link_up: Vec<bool>,
    delays: Vec<f64>,
}

/// The shortest-path coordinator, timed from outside: one wall-clock
/// stamp per [`BLOCK`] decisions (a single SP decision is ~50 ns, below
/// timer resolution), and with a tracer every `decide` call.
struct TimedSp<'a> {
    inner: ShortestPath,
    decisions: u64,
    events: u64,
    block_start: Instant,
    latency_ns: &'a mut Vec<u32>,
    trace: Option<(&'a mut Tracer, SpanId)>,
    acc: BlockAcc,
    block_start_ns: u64,
    masks: Option<Masks>,
}

impl Coordinator for TimedSp<'_> {
    fn decide(&mut self, sim: &Simulation, dp: &DecisionPoint) -> Action {
        let action = match self.trace.as_mut() {
            None => self.inner.decide(sim, dp),
            Some((tracer, parent)) => {
                let start = Instant::now();
                let action = self.inner.decide(sim, dp);
                self.acc.add(start, Instant::now());
                if self.acc.full() {
                    self.acc
                        .flush(tracer, "baselines.sp_decide", *parent, self.block_start_ns);
                    self.block_start_ns = tracer.now();
                }
                if self.masks.is_none() && sim.topo_version() >= MASK_EPOCH {
                    let topo = sim.topology();
                    self.masks = Some(Masks {
                        node_up: topo.node_ids().map(|v| sim.is_node_up(v)).collect(),
                        link_up: topo.link_ids().map(|l| sim.is_link_up(l)).collect(),
                        delays: topo.link_ids().map(|l| sim.link_delay(l)).collect(),
                    });
                }
                action
            }
        };
        self.decisions += 1;
        if self.decisions.is_multiple_of(BLOCK as u64) {
            let now = Instant::now();
            let per_decision = (now - self.block_start).as_nanos() / BLOCK as u128;
            self.latency_ns
                .push(u32::try_from(per_decision).unwrap_or(u32::MAX));
            self.block_start = now;
        }
        action
    }

    fn observe(&mut self, _sim: &Simulation, events: &[SimEvent]) {
        self.events += events.len() as u64;
    }
}

/// What the last segment left behind, for the conservation checks.
#[derive(Debug, Clone, Default)]
struct Last {
    metrics: Metrics,
    live: u64,
    churn: Option<ChurnStats>,
}

impl Last {
    fn fingerprint(&self) -> u64 {
        fingerprint(&(&self.metrics, self.live, &self.churn))
    }
}

/// See the module docs. `CHURN` selects the workload.
#[derive(Debug)]
pub struct SimGrid<const CHURN: bool> {
    scenario: ScenarioConfig,
    timeline: Option<ChurnTimeline>,
    seed: u64,
    latency_ns: Vec<u32>,
    last: Last,
    masks: Option<Masks>,
}

impl<const CHURN: bool> SimGrid<CHURN> {
    /// Mean inter-arrival time per ingress: 100k live flows static, 10k
    /// under churn (the scenario behind ROADMAP's "churn costs 32×").
    const INTERVAL: f64 = if CHURN { 10.0 } else { 1.0 };
    /// Episode length of one segment.
    const HORIZON: f64 = 1_500.0;

    fn schedule() -> ChurnSchedule {
        ChurnSchedule::none()
            .with_stochastic(StochasticChurn::default().with_link_failures(MTBF, MTTR))
    }

    fn simulation(
        &self,
        scenario: &ScenarioConfig,
        timeline: Option<&ChurnTimeline>,
    ) -> Simulation {
        match timeline {
            Some(t) => Simulation::with_churn(scenario.clone(), self.seed, t.clone()),
            None => Simulation::new(scenario.clone(), self.seed),
        }
    }

    /// One episode of `scenario` under SP.
    fn episode(
        &mut self,
        scenario: &ScenarioConfig,
        timeline: Option<&ChurnTimeline>,
        mut trace: Option<TraceCtx<'_>>,
    ) -> Segment {
        let mut sim = in_span(&mut trace, "simnet.new", || {
            self.simulation(scenario, timeline)
        });
        let mut latency_ns = std::mem::take(&mut self.latency_ns);
        latency_ns.clear();
        let run_span = trace.as_mut().map(|t| t.tracer.open("simnet.run", t.root));
        let block_start_ns = trace.as_ref().map_or(0, |t| t.tracer.now());
        let mut sp = TimedSp {
            inner: ShortestPath::new(),
            decisions: 0,
            events: 0,
            block_start: Instant::now(),
            latency_ns: &mut latency_ns,
            trace: trace
                .as_mut()
                .zip(run_span)
                .map(|(t, id)| (&mut *t.tracer, id)),
            acc: BlockAcc::default(),
            block_start_ns,
            masks: None,
        };
        sim.run(&mut sp);
        if let Some((tracer, parent)) = sp.trace.as_mut() {
            sp.acc
                .flush(tracer, "baselines.sp_decide", *parent, sp.block_start_ns);
            tracer.close(*parent);
        }
        let (events, masks) = (sp.events, sp.masks.take());
        self.latency_ns = latency_ns;
        if masks.is_some() {
            self.masks = masks;
        }
        self.last = Last {
            metrics: sim.metrics().clone(),
            live: sim.live_flows() as u64,
            churn: sim.churn_stats().copied(),
        };
        if let (Some(t), Some(run)) = (trace.as_mut(), run_span) {
            t.layers
                .record("simnet.run_self_s", t.tracer.self_ns(run) as f64 / 1e9);
            t.layers
                .record("simnet.decisions", self.last.metrics.decisions as f64);
            t.layers.record("simnet.events", events as f64);
            t.layers
                .record("simnet.flows", self.last.metrics.arrived as f64);
            t.layers
                .record("simnet.peak_live_flows", sim.peak_live_flows() as f64);
            t.layers
                .record("simnet.peak_queued_events", sim.peak_queued_events() as f64);
            t.layers
                .record("simnet.flow_slab_capacity", sim.flow_slab_capacity() as f64);
            if let Some(c) = &self.last.churn {
                t.layers
                    .record("simnet.churn_events_applied", c.events_applied as f64);
                t.layers
                    .record("simnet.sp_recomputes", c.sp_recomputes as f64);
            }
        }
        let p50_us = if self.latency_ns.is_empty() {
            0.0
        } else {
            stats::quantile_us(&mut self.latency_ns, 0.5)
        };
        Segment {
            decisions: self.last.metrics.decisions,
            failed: 0,
            fingerprint: self.last.fingerprint(),
            p50_us,
        }
    }
}

impl<const CHURN: bool> Workload for SimGrid<CHURN> {
    fn setup(seed: u64) -> Self {
        let scenario = scenario::grid(Self::INTERVAL, DWELL, Self::HORIZON);
        let timeline = CHURN.then(|| {
            Self::schedule()
                .compile(&scenario.topology, scenario.horizon, seed ^ 0xC0A5)
                .expect("link-failure schedule is valid")
        });
        let mut w = SimGrid {
            scenario,
            timeline,
            seed,
            latency_ns: Vec::new(),
            last: Last::default(),
            masks: None,
        };
        let mut unit = w.scenario.clone();
        unit.horizon = SETUP_HORIZON;
        let timeline = w.timeline.clone();
        w.episode(&unit, timeline.as_ref(), None);
        w
    }

    fn segment(&mut self, trace: Option<TraceCtx<'_>>) -> Segment {
        let (scenario, timeline) = (self.scenario.clone(), self.timeline.clone());
        self.episode(&scenario, timeline.as_ref(), trace)
    }

    fn reference(&mut self) -> Result<u64, String> {
        let Last {
            metrics,
            live,
            churn,
        } = &self.last;
        let ended = metrics.completed + metrics.dropped_total() + live;
        if metrics.arrived != ended {
            return Err(format!(
                "conservation broken: {} flows arrived, {ended} completed, dropped or live",
                metrics.arrived
            ));
        }
        match (&self.timeline, churn) {
            (None, _) if metrics.dropped_total() != 0 => {
                return Err(format!(
                    "{} flows dropped on a static substrate with zero demand",
                    metrics.dropped_total()
                ));
            }
            (Some(t), Some(c)) if c.events_applied != t.len() as u64 => {
                return Err(format!(
                    "{} churn events applied of a timeline of {}",
                    c.events_applied,
                    t.len()
                ));
            }
            (Some(_), None) => return Err("churn timeline installed but no churn stats".into()),
            _ => {}
        }
        // No second implementation of the simulator exists to compare
        // against: the laws above are the reference, and every timed
        // segment must then repeat the warm-up bit for bit.
        Ok(self.last.fingerprint())
    }

    fn probes(&mut self, layers: &mut Layers, _out_dir: &Path) {
        let topo = &self.scenario.topology;
        probes::paths_compute(layers, topo);
        probes::queue_push_pop(layers, self.seed);
        let Some(timeline) = self.timeline.clone() else {
            return;
        };
        layers.record("chaos.timeline_events", timeline.len() as f64);
        let compile = probes::best_of(5, || {
            Self::schedule().compile(topo, self.scenario.horizon, black_box(self.seed))
        });
        layers.record("chaos.compile_us", compile * 1e6);
        if let Some(m) = &self.masks {
            let masked = probes::best_of(10, || {
                ShortestPaths::compute_masked(topo, &m.node_up, &m.link_up, black_box(&m.delays))
            });
            layers.record("topology.paths_masked_us", masked * 1e6);
        }
        // The same episode with the timeline off: what churn costs.
        let scenario = self.scenario.clone();
        let cost = probes::back_to_back_ratio(|churn| {
            self.episode(&scenario, churn.then_some(&timeline), None);
        });
        layers.record("simnet.churn_cost_x", cost);
    }
}

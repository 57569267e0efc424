//! Utilization probing: time-series recording of node/link utilization
//! and live-flow counts while any coordinator runs.
//!
//! Wrap a coordinator in a [`Probe`] to sample the network state at a
//! fixed period — the raw material for utilization plots, bottleneck
//! analysis, and load-balance diagnostics that the figures aggregate away.

use crate::coordinator::{Action, Coordinator, DecisionPoint};
use crate::sim::Simulation;
use serde::{Deserialize, Serialize};

/// One utilization sample.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Sample {
    /// Sample time.
    pub time: f64,
    /// Per-node utilization fraction `r_v(t) / cap_v` (1.0 for zero-
    /// capacity nodes).
    pub node_util: Vec<f64>,
    /// Per-link utilization fraction `r_l(t) / cap_l`.
    pub link_util: Vec<f64>,
    /// Flows currently in the network.
    pub live_flows: usize,
    /// Placed component instances.
    pub instances: usize,
}

/// Records [`Sample`]s at a fixed period while delegating all decisions to
/// an inner coordinator.
///
/// # Example
///
/// ```
/// use dosco_simnet::{coordinator::AlwaysLocal, probe::Probe, ScenarioConfig, Simulation};
///
/// let mut probe = Probe::new(AlwaysLocal, 50.0);
/// let mut sim = Simulation::new(ScenarioConfig::paper_base(1).with_horizon(500.0), 1);
/// sim.run(&mut probe);
/// assert!(!probe.samples().is_empty());
/// ```
#[derive(Debug, Clone)]
pub struct Probe<C> {
    inner: C,
    period: f64,
    next_sample: f64,
    samples: Vec<Sample>,
    /// Keep only the most recent `n` samples when set; unbounded otherwise.
    window: Option<usize>,
}

impl<C> Probe<C> {
    /// Wraps `inner`, sampling every `period` time units (at the first
    /// decision at or after each boundary).
    ///
    /// # Panics
    ///
    /// Panics if `period` is not finite and positive.
    pub fn new(inner: C, period: f64) -> Self {
        assert!(
            period.is_finite() && period > 0.0,
            "sample period must be finite and positive, got {period}"
        );
        Probe {
            inner,
            period,
            next_sample: 0.0,
            samples: Vec::new(),
            window: None,
        }
    }

    /// Bounds recording to the most recent `window` samples (oldest are
    /// evicted), so memory stays constant on arbitrarily long episodes —
    /// the probing analog of [`crate::metrics::WindowedStats`].
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    pub fn with_window(mut self, window: usize) -> Self {
        assert!(window > 0, "sample window must be positive");
        self.window = Some(window);
        self
    }

    /// The recorded samples (the most recent `window` of them when
    /// bounded), oldest first.
    pub fn samples(&self) -> &[Sample] {
        &self.samples
    }

    /// The wrapped coordinator.
    pub fn inner(&self) -> &C {
        &self.inner
    }

    /// Unwraps into the inner coordinator and the samples.
    pub fn into_parts(self) -> (C, Vec<Sample>) {
        (self.inner, self.samples)
    }

    /// Peak node utilization across all samples and nodes.
    pub fn peak_node_utilization(&self) -> f64 {
        self.samples
            .iter()
            .flat_map(|s| s.node_util.iter().copied())
            .fold(0.0, f64::max)
    }

    /// Mean node utilization across all samples and nodes.
    pub fn mean_node_utilization(&self) -> f64 {
        let (sum, count) = self
            .samples
            .iter()
            .flat_map(|s| s.node_util.iter().copied())
            .fold((0.0, 0usize), |(s, c), v| (s + v, c + 1));
        if count == 0 {
            0.0
        } else {
            sum / count as f64
        }
    }

    fn take_sample(&mut self, sim: &Simulation) {
        let topo = sim.topology();
        let node_util = topo
            .node_ids()
            .map(|v| {
                let cap = sim.node_capacity(v);
                if cap <= 0.0 {
                    1.0
                } else {
                    (sim.node_used(v) / cap).clamp(0.0, 1.0)
                }
            })
            .collect();
        let link_util = topo
            .link_ids()
            .map(|l| {
                let cap = sim.link_capacity(l);
                if cap <= 0.0 {
                    1.0
                } else {
                    (sim.link_used(l) / cap).clamp(0.0, 1.0)
                }
            })
            .collect();
        if let Some(w) = self.window {
            // Eviction is O(window) but runs once per sample period — noise
            // next to the per-sample utilization scan itself.
            while self.samples.len() >= w {
                self.samples.remove(0);
            }
        }
        self.samples.push(Sample {
            time: sim.time(),
            node_util,
            link_util,
            live_flows: sim.live_flows(),
            instances: sim.num_instances(),
        });
    }
}

impl<C: Coordinator> Coordinator for Probe<C> {
    fn decide(&mut self, sim: &Simulation, dp: &DecisionPoint) -> Action {
        if sim.time() >= self.next_sample {
            self.take_sample(sim);
            self.next_sample = sim.time() + self.period;
        }
        self.inner.decide(sim, dp)
    }

    fn observe(&mut self, sim: &Simulation, events: &[crate::event::SimEvent]) {
        self.inner.observe(sim, events);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ScenarioConfig;
    use crate::coordinator::RandomCoordinator;

    #[test]
    fn samples_cover_episode_at_period() {
        let cfg = ScenarioConfig::paper_base(2)
            .with_pattern(dosco_traffic::ArrivalPattern::paper_poisson())
            .with_horizon(1_000.0);
        let mut probe = Probe::new(RandomCoordinator::new(1), 100.0);
        let mut sim = Simulation::new(cfg, 1);
        sim.run(&mut probe);
        let n = probe.samples().len();
        assert!((8..=12).contains(&n), "{n} samples over 1000/100");
        // Times are increasing and at least a period apart.
        for w in probe.samples().windows(2) {
            assert!(w[1].time - w[0].time >= 100.0 - 1e-9);
        }
    }

    #[test]
    fn utilization_fractions_bounded() {
        let cfg = ScenarioConfig::paper_base(3)
            .with_pattern(dosco_traffic::ArrivalPattern::paper_poisson())
            .with_horizon(800.0);
        let mut probe = Probe::new(RandomCoordinator::new(2), 50.0);
        let mut sim = Simulation::new(cfg, 2);
        sim.run(&mut probe);
        for s in probe.samples() {
            assert_eq!(s.node_util.len(), 11);
            assert_eq!(s.link_util.len(), 14);
            for &u in s.node_util.iter().chain(&s.link_util) {
                assert!((0.0..=1.0).contains(&u));
            }
        }
        assert!(probe.peak_node_utilization() >= probe.mean_node_utilization());
    }

    /// Utilization is measured against the *effective* capacity: halving
    /// a node's capacity doubles the utilization of an unchanged load.
    #[test]
    fn degraded_capacity_doubles_utilization_of_the_same_load() {
        use crate::churn::{ChurnAction, ChurnTimeline};
        use crate::coordinator::AlwaysLocal;
        // AlwaysLocal processes every flow at its ingress whatever the
        // capacity, so both runs put the same load on node 0.
        let mut cfg = ScenarioConfig::paper_base(1).with_horizon(500.0);
        cfg.topology.scale_capacities(100.0, 1.0);
        // Long flows, so the sampled decisions find earlier ones loaded.
        cfg.ingresses[0].profile = dosco_traffic::FlowProfile::new(1.0, 30.0, 100.0);
        let ingress = cfg.ingresses[0].node;
        let run = |timeline: ChurnTimeline| {
            let mut probe = Probe::new(AlwaysLocal, 50.0);
            Simulation::with_churn(cfg.clone(), 1, timeline).run(&mut probe);
            let utils = probe.samples().iter().map(|s| s.node_util[ingress.0]);
            utils.collect::<Vec<f64>>()
        };
        let nominal = run(ChurnTimeline::none());
        let halved = run(ChurnTimeline::none().at(
            0.0,
            ChurnAction::DegradeNodeCapacity {
                node: ingress,
                factor: 0.5,
            },
        ));
        assert!(nominal.iter().any(|&u| u > 0.0 && u < 0.5), "{nominal:?}");
        let doubled: Vec<f64> = nominal.iter().map(|u| 2.0 * u).collect();
        assert_eq!(halved, doubled);
    }

    #[test]
    fn into_parts_returns_inner() {
        let probe = Probe::new(RandomCoordinator::new(3), 10.0);
        let (_inner, samples) = probe.into_parts();
        assert!(samples.is_empty());
    }

    #[test]
    fn window_bounds_samples_and_keeps_newest() {
        let cfg = ScenarioConfig::paper_base(2)
            .with_pattern(dosco_traffic::ArrivalPattern::paper_poisson())
            .with_horizon(1_000.0);
        let mut unbounded = Probe::new(RandomCoordinator::new(1), 100.0);
        Simulation::new(cfg.clone(), 1).run(&mut unbounded);
        let mut windowed = Probe::new(RandomCoordinator::new(1), 100.0).with_window(3);
        Simulation::new(cfg, 1).run(&mut windowed);
        assert!(unbounded.samples().len() > 3);
        assert_eq!(windowed.samples().len(), 3);
        // The windowed probe holds exactly the tail of the unbounded run.
        let tail = &unbounded.samples()[unbounded.samples().len() - 3..];
        assert_eq!(windowed.samples(), tail);
    }

    #[test]
    #[should_panic(expected = "sample window")]
    fn rejects_zero_window() {
        let _ = Probe::new(RandomCoordinator::new(0), 1.0).with_window(0);
    }

    #[test]
    #[should_panic(expected = "sample period")]
    fn rejects_zero_period() {
        Probe::new(RandomCoordinator::new(0), 0.0);
    }
}

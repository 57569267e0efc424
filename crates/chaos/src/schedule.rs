//! Churn schedules: scripted timelines plus seeded stochastic generators,
//! compiled against a concrete topology into a [`ChurnTimeline`].
//!
//! Compilation is a pure function of `(schedule, topology, horizon, seed)`
//! and is where all validation lives: the simulator's own loader panics on
//! malformed timelines (programming errors), while [`ChurnSchedule::compile`]
//! returns typed [`ChurnError`]s for anything a config file could get wrong.
//!
//! Determinism contract: every stochastic process draws from its own RNG
//! stream keyed by `(seed, process kind, entity id)`, entities are visited
//! in dense-id order, and the merge into one timeline uses the simulator's
//! stable time sort — so the compiled timeline never depends on iteration
//! or thread scheduling, only on the inputs.

use dosco_simnet::{ChurnAction, ChurnTimeline, TransitPolicy};
use dosco_topology::{LinkId, NodeId, Topology};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::fmt;

/// A malformed churn schedule, detected at compile time.
#[derive(Debug, Clone, PartialEq)]
pub enum ChurnError {
    /// A scripted action targets a node outside the topology.
    UnknownNode {
        /// The out-of-range node.
        node: NodeId,
        /// Nodes in the topology.
        num_nodes: usize,
    },
    /// A scripted action targets a link outside the topology.
    UnknownLink {
        /// The out-of-range link.
        link: LinkId,
        /// Links in the topology.
        num_links: usize,
    },
    /// A scripted event time is NaN, infinite, or negative.
    BadTime {
        /// The offending time.
        time: f64,
    },
    /// A degradation/spike factor is NaN, infinite, or negative.
    BadFactor {
        /// The offending factor.
        factor: f64,
    },
    /// A stochastic process parameter is not a positive finite number.
    BadProcess {
        /// Which parameter (e.g. `link_failures.mtbf`).
        param: &'static str,
        /// The offending value.
        value: f64,
    },
    /// A stochastic factor range has `min > max`.
    BadFactorRange {
        /// Lower bound.
        min: f64,
        /// Upper bound.
        max: f64,
    },
}

impl fmt::Display for ChurnError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChurnError::UnknownNode { node, num_nodes } => {
                write!(
                    f,
                    "churn targets {node} but the topology has {num_nodes} nodes"
                )
            }
            ChurnError::UnknownLink { link, num_links } => {
                write!(
                    f,
                    "churn targets {link} but the topology has {num_links} links"
                )
            }
            ChurnError::BadTime { time } => {
                write!(f, "churn event time {time} is not finite and non-negative")
            }
            ChurnError::BadFactor { factor } => {
                write!(f, "churn factor {factor} is not finite and non-negative")
            }
            ChurnError::BadProcess { param, value } => {
                write!(
                    f,
                    "stochastic churn parameter {param} = {value} must be positive and finite"
                )
            }
            ChurnError::BadFactorRange { min, max } => {
                write!(
                    f,
                    "stochastic churn factor range [{min}, {max}] is inverted"
                )
            }
        }
    }
}

impl std::error::Error for ChurnError {}

/// An alternating failure/repair renewal process for one entity class.
///
/// Each entity (every link, or every node) independently alternates
/// between up-phases with exponentially distributed length (`mtbf`) and
/// down-phases with exponentially distributed length (`mttr`).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FailureProcess {
    /// Mean time between failures (mean up-phase length).
    pub mtbf: f64,
    /// Mean time to repair (mean down-phase length).
    pub mttr: f64,
}

/// A transient degradation process for one entity class: events arrive
/// with exponentially distributed inter-arrival times; each draws a factor
/// uniformly from `[factor_min, factor_max]`, holds it for `duration`,
/// then restores the nominal value (factor 1).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DegradeProcess {
    /// Mean inter-arrival time of degradation events per entity.
    pub mean_interval: f64,
    /// How long each degradation lasts before restoration.
    pub duration: f64,
    /// Lower bound of the uniform factor draw.
    pub factor_min: f64,
    /// Upper bound of the uniform factor draw.
    pub factor_max: f64,
}

/// Seeded stochastic churn generators. All processes are optional;
/// [`StochasticChurn::default`] generates nothing.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct StochasticChurn {
    /// Per-link failure/repair process.
    pub link_failures: Option<FailureProcess>,
    /// Per-node failure/repair process.
    pub node_failures: Option<FailureProcess>,
    /// Per-link transient capacity degradation (factor < 1 throttles).
    pub link_degrades: Option<DegradeProcess>,
    /// Per-node transient capacity degradation.
    pub node_degrades: Option<DegradeProcess>,
    /// Per-link transient delay spikes (factor > 1 slows).
    pub delay_spikes: Option<DegradeProcess>,
}

impl StochasticChurn {
    /// Adds a per-link failure process.
    pub fn with_link_failures(mut self, mtbf: f64, mttr: f64) -> Self {
        self.link_failures = Some(FailureProcess { mtbf, mttr });
        self
    }

    /// Adds a per-node failure process.
    pub fn with_node_failures(mut self, mtbf: f64, mttr: f64) -> Self {
        self.node_failures = Some(FailureProcess { mtbf, mttr });
        self
    }

    /// Adds a per-link capacity-degradation process.
    pub fn with_link_degrades(mut self, p: DegradeProcess) -> Self {
        self.link_degrades = Some(p);
        self
    }

    /// Adds a per-node capacity-degradation process.
    pub fn with_node_degrades(mut self, p: DegradeProcess) -> Self {
        self.node_degrades = Some(p);
        self
    }

    /// Adds a per-link delay-spike process.
    pub fn with_delay_spikes(mut self, p: DegradeProcess) -> Self {
        self.delay_spikes = Some(p);
        self
    }

    fn is_none(&self) -> bool {
        self.link_failures.is_none()
            && self.node_failures.is_none()
            && self.link_degrades.is_none()
            && self.node_degrades.is_none()
            && self.delay_spikes.is_none()
    }

    fn validate(&self) -> Result<(), ChurnError> {
        let positive = |param: &'static str, value: f64| {
            if value.is_finite() && value > 0.0 {
                Ok(())
            } else {
                Err(ChurnError::BadProcess { param, value })
            }
        };
        if let Some(p) = self.link_failures {
            positive("link_failures.mtbf", p.mtbf)?;
            positive("link_failures.mttr", p.mttr)?;
        }
        if let Some(p) = self.node_failures {
            positive("node_failures.mtbf", p.mtbf)?;
            positive("node_failures.mttr", p.mttr)?;
        }
        for (name, p) in [
            ("link_degrades", self.link_degrades),
            ("node_degrades", self.node_degrades),
            ("delay_spikes", self.delay_spikes),
        ] {
            let Some(p) = p else { continue };
            // The param label names the group; the value pins the culprit.
            positive(name, p.mean_interval)?;
            positive(name, p.duration)?;
            for factor in [p.factor_min, p.factor_max] {
                if !factor.is_finite() || factor < 0.0 {
                    return Err(ChurnError::BadFactor { factor });
                }
            }
            if p.factor_min > p.factor_max {
                return Err(ChurnError::BadFactorRange {
                    min: p.factor_min,
                    max: p.factor_max,
                });
            }
        }
        Ok(())
    }
}

/// A churn schedule: scripted events, optional stochastic generators, and
/// the in-transit policy. Compile it against a topology to obtain the
/// [`ChurnTimeline`] a [`dosco_simnet::Simulation`] executes.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct ChurnSchedule {
    /// Scripted `(time, action)` events, in any order.
    pub scripted: Vec<(f64, ChurnAction)>,
    /// Optional stochastic generators.
    pub stochastic: Option<StochasticChurn>,
    /// What happens to flows in transit on a link that fails.
    pub transit: TransitPolicy,
}

impl ChurnSchedule {
    /// The empty schedule. Compiles to [`ChurnTimeline::none`], which the
    /// simulator treats bit-identically to a churn-free run.
    pub fn none() -> Self {
        ChurnSchedule::default()
    }

    /// A purely scripted schedule.
    pub fn scripted(entries: Vec<(f64, ChurnAction)>) -> Self {
        ChurnSchedule {
            scripted: entries,
            ..ChurnSchedule::default()
        }
    }

    /// Appends one scripted event (builder style).
    pub fn at(mut self, time: f64, action: ChurnAction) -> Self {
        self.scripted.push((time, action));
        self
    }

    /// Sets the stochastic generators.
    pub fn with_stochastic(mut self, stochastic: StochasticChurn) -> Self {
        self.stochastic = Some(stochastic);
        self
    }

    /// Sets the in-transit policy for link failures.
    pub fn with_transit(mut self, transit: TransitPolicy) -> Self {
        self.transit = transit;
        self
    }

    /// Whether this schedule can generate any event at all.
    pub fn is_none(&self) -> bool {
        self.scripted.is_empty() && self.stochastic.is_none_or(|s| s.is_none())
    }

    /// Validates the schedule against `topology` and expands it into the
    /// flat timeline of events within `[0, horizon]`. `seed` drives the
    /// stochastic generators only; a purely scripted schedule compiles
    /// identically under every seed.
    pub fn compile(
        &self,
        topology: &Topology,
        horizon: f64,
        seed: u64,
    ) -> Result<ChurnTimeline, ChurnError> {
        let num_nodes = topology.num_nodes();
        let num_links = topology.num_links();
        let mut entries: Vec<(f64, ChurnAction)> = Vec::new();

        for &(time, action) in &self.scripted {
            if !time.is_finite() || time < 0.0 {
                return Err(ChurnError::BadTime { time });
            }
            match action {
                ChurnAction::NodeDown(v)
                | ChurnAction::NodeUp(v)
                | ChurnAction::DegradeNodeCapacity { node: v, .. } => {
                    if v.0 >= num_nodes {
                        return Err(ChurnError::UnknownNode { node: v, num_nodes });
                    }
                }
                ChurnAction::LinkDown(l)
                | ChurnAction::LinkUp(l)
                | ChurnAction::DegradeLinkCapacity { link: l, .. }
                | ChurnAction::DelaySpike { link: l, .. } => {
                    if l.0 >= num_links {
                        return Err(ChurnError::UnknownLink { link: l, num_links });
                    }
                }
            }
            if let Some(factor) = action.factor() {
                if !factor.is_finite() || factor < 0.0 {
                    return Err(ChurnError::BadFactor { factor });
                }
            }
            if time <= horizon {
                entries.push((time, action));
            }
        }

        if let Some(stochastic) = &self.stochastic {
            stochastic.validate()?;
            if let Some(p) = stochastic.link_failures {
                for l in topology.link_ids() {
                    gen_failures(
                        &mut entries,
                        stream_rng(seed, 1, l.0 as u64),
                        p,
                        horizon,
                        ChurnAction::LinkDown(l),
                        ChurnAction::LinkUp(l),
                    );
                }
            }
            if let Some(p) = stochastic.node_failures {
                for v in topology.node_ids() {
                    gen_failures(
                        &mut entries,
                        stream_rng(seed, 2, v.0 as u64),
                        p,
                        horizon,
                        ChurnAction::NodeDown(v),
                        ChurnAction::NodeUp(v),
                    );
                }
            }
            if let Some(p) = stochastic.link_degrades {
                for l in topology.link_ids() {
                    gen_degrades(
                        &mut entries,
                        stream_rng(seed, 3, l.0 as u64),
                        p,
                        horizon,
                        |factor| ChurnAction::DegradeLinkCapacity { link: l, factor },
                    );
                }
            }
            if let Some(p) = stochastic.node_degrades {
                for v in topology.node_ids() {
                    gen_degrades(
                        &mut entries,
                        stream_rng(seed, 4, v.0 as u64),
                        p,
                        horizon,
                        |factor| ChurnAction::DegradeNodeCapacity { node: v, factor },
                    );
                }
            }
            if let Some(p) = stochastic.delay_spikes {
                for l in topology.link_ids() {
                    gen_degrades(
                        &mut entries,
                        stream_rng(seed, 5, l.0 as u64),
                        p,
                        horizon,
                        |factor| ChurnAction::DelaySpike { link: l, factor },
                    );
                }
            }
        }

        // ChurnTimeline::new sorts stably by time, so the deterministic
        // generation order above breaks ties deterministically.
        Ok(ChurnTimeline::new(entries).with_transit(self.transit))
    }
}

/// One RNG stream per `(seed, process kind, entity)`: adding a process or
/// an entity never perturbs the draws of the others.
fn stream_rng(seed: u64, kind: u64, entity: u64) -> StdRng {
    let mixed = (seed ^ (kind << 56) ^ entity)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .rotate_left(31)
        .wrapping_mul(0xBF58_476D_1CE4_E5B9);
    StdRng::seed_from_u64(mixed)
}

/// Exponential draw with the given mean; `1 - u ∈ (0, 1]` keeps `ln` finite.
fn exp(rng: &mut StdRng, mean: f64) -> f64 {
    -mean * (1.0 - rng.gen::<f64>()).ln()
}

fn gen_failures(
    entries: &mut Vec<(f64, ChurnAction)>,
    mut rng: StdRng,
    p: FailureProcess,
    horizon: f64,
    down: ChurnAction,
    up: ChurnAction,
) {
    let mut t = 0.0;
    loop {
        t += exp(&mut rng, p.mtbf);
        if t > horizon {
            return;
        }
        entries.push((t, down));
        t += exp(&mut rng, p.mttr);
        if t > horizon {
            return; // still down at the horizon: no repair event
        }
        entries.push((t, up));
    }
}

fn gen_degrades(
    entries: &mut Vec<(f64, ChurnAction)>,
    mut rng: StdRng,
    p: DegradeProcess,
    horizon: f64,
    make: impl Fn(f64) -> ChurnAction,
) {
    let mut t = 0.0;
    loop {
        t += exp(&mut rng, p.mean_interval);
        if t > horizon {
            return;
        }
        let factor = p.factor_min + (p.factor_max - p.factor_min) * rng.gen::<f64>();
        entries.push((t, make(factor)));
        t += p.duration;
        if t > horizon {
            return;
        }
        entries.push((t, make(1.0))); // restore nominal
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dosco_topology::generators;

    fn topo() -> Topology {
        generators::line(4, 1.0, 10.0)
    }

    #[test]
    fn none_compiles_to_empty_timeline() {
        let tl = ChurnSchedule::none().compile(&topo(), 1_000.0, 7).unwrap();
        assert!(tl.is_empty());
        assert!(ChurnSchedule::none().is_none());
    }

    #[test]
    fn scripted_entries_are_sorted_and_filtered_to_horizon() {
        let s = ChurnSchedule::none()
            .at(50.0, ChurnAction::LinkDown(LinkId(0)))
            .at(10.0, ChurnAction::NodeDown(NodeId(1)))
            .at(999.0, ChurnAction::NodeUp(NodeId(1)));
        let tl = s.compile(&topo(), 100.0, 0).unwrap();
        assert_eq!(
            tl.entries(),
            &[
                (10.0, ChurnAction::NodeDown(NodeId(1))),
                (50.0, ChurnAction::LinkDown(LinkId(0))),
            ]
        );
    }

    #[test]
    fn scripted_compile_is_seed_independent() {
        let s = ChurnSchedule::scripted(vec![(5.0, ChurnAction::LinkDown(LinkId(2)))]);
        assert_eq!(
            s.compile(&topo(), 10.0, 1).unwrap(),
            s.compile(&topo(), 10.0, 999).unwrap()
        );
    }

    #[test]
    fn unknown_targets_are_typed_errors() {
        let t = topo(); // 4 nodes, 3 links
        let e = ChurnSchedule::none()
            .at(1.0, ChurnAction::LinkDown(LinkId(3)))
            .compile(&t, 10.0, 0)
            .unwrap_err();
        assert_eq!(
            e,
            ChurnError::UnknownLink {
                link: LinkId(3),
                num_links: 3
            }
        );
        let e = ChurnSchedule::none()
            .at(1.0, ChurnAction::NodeDown(NodeId(4)))
            .compile(&t, 10.0, 0)
            .unwrap_err();
        assert_eq!(
            e,
            ChurnError::UnknownNode {
                node: NodeId(4),
                num_nodes: 4
            }
        );
        assert!(e.to_string().contains("4 nodes"));
    }

    #[test]
    fn bad_times_and_factors_are_typed_errors() {
        let t = topo();
        let e = ChurnSchedule::none()
            .at(-1.0, ChurnAction::LinkDown(LinkId(0)))
            .compile(&t, 10.0, 0)
            .unwrap_err();
        assert_eq!(e, ChurnError::BadTime { time: -1.0 });
        let e = ChurnSchedule::none()
            .at(
                1.0,
                ChurnAction::DelaySpike {
                    link: LinkId(0),
                    factor: f64::NAN,
                },
            )
            .compile(&t, 10.0, 0)
            .unwrap_err();
        assert!(matches!(e, ChurnError::BadFactor { .. }));
    }

    #[test]
    fn bad_process_params_are_typed_errors() {
        let t = topo();
        let s = ChurnSchedule::none()
            .with_stochastic(StochasticChurn::default().with_link_failures(0.0, 5.0));
        let e = s.compile(&t, 10.0, 0).unwrap_err();
        assert_eq!(
            e,
            ChurnError::BadProcess {
                param: "link_failures.mtbf",
                value: 0.0
            }
        );

        let s = ChurnSchedule::none().with_stochastic(
            StochasticChurn::default().with_delay_spikes(DegradeProcess {
                mean_interval: 10.0,
                duration: 1.0,
                factor_min: 3.0,
                factor_max: 2.0,
            }),
        );
        let e = s.compile(&t, 10.0, 0).unwrap_err();
        assert_eq!(e, ChurnError::BadFactorRange { min: 3.0, max: 2.0 });
    }

    #[test]
    fn stochastic_compile_is_deterministic_per_seed() {
        let s = ChurnSchedule::none()
            .with_stochastic(
                StochasticChurn::default()
                    .with_link_failures(200.0, 30.0)
                    .with_node_failures(500.0, 50.0)
                    .with_delay_spikes(DegradeProcess {
                        mean_interval: 300.0,
                        duration: 40.0,
                        factor_min: 2.0,
                        factor_max: 6.0,
                    }),
            )
            .with_transit(TransitPolicy::Deliver);
        let a = s.compile(&topo(), 5_000.0, 42).unwrap();
        let b = s.compile(&topo(), 5_000.0, 42).unwrap();
        assert_eq!(a, b);
        assert!(!a.is_empty(), "5 horizons worth of MTBF should fire");
        assert_eq!(a.transit(), TransitPolicy::Deliver);
        let c = s.compile(&topo(), 5_000.0, 43).unwrap();
        assert_ne!(a, c, "different seed, different draws");
    }

    #[test]
    fn stochastic_failures_alternate_down_up_per_entity() {
        let s = ChurnSchedule::none()
            .with_stochastic(StochasticChurn::default().with_link_failures(100.0, 20.0));
        let tl = s.compile(&topo(), 10_000.0, 7).unwrap();
        for l in topo().link_ids() {
            let mut down = false;
            let mut last = 0.0;
            for &(t, a) in tl.entries() {
                match a {
                    ChurnAction::LinkDown(x) if x == l => {
                        assert!(!down, "{l} failed while already down");
                        assert!(t >= last);
                        down = true;
                        last = t;
                    }
                    ChurnAction::LinkUp(x) if x == l => {
                        assert!(down, "{l} repaired while up");
                        assert!(t >= last);
                        down = false;
                        last = t;
                    }
                    _ => {}
                }
            }
        }
        assert!(tl.entries().iter().all(|&(t, _)| t <= 10_000.0));
    }

    #[test]
    fn degrades_restore_nominal_after_duration() {
        let s = ChurnSchedule::none().with_stochastic(
            StochasticChurn::default().with_node_degrades(DegradeProcess {
                mean_interval: 100.0,
                duration: 10.0,
                factor_min: 0.2,
                factor_max: 0.8,
            }),
        );
        let tl = s.compile(&topo(), 2_000.0, 3).unwrap();
        assert!(!tl.is_empty());
        let mut restores = 0;
        for &(_, a) in tl.entries() {
            if let ChurnAction::DegradeNodeCapacity { factor, .. } = a {
                if factor == 1.0 {
                    restores += 1;
                } else {
                    assert!((0.2..=0.8).contains(&factor), "factor {factor}");
                }
            }
        }
        assert!(restores > 0, "restore events present");
    }

    #[test]
    fn serde_round_trip() {
        let s = ChurnSchedule::none()
            .at(5.0, ChurnAction::NodeDown(NodeId(0)))
            .with_stochastic(StochasticChurn::default().with_link_failures(100.0, 10.0));
        let json = serde_json::to_string(&s).unwrap();
        let back: ChurnSchedule = serde_json::from_str(&json).unwrap();
        assert_eq!(back, s);
    }
}

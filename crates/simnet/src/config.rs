//! Scenario configuration: topology + services + traffic.

use crate::service::{ServiceCatalog, ServiceId};
use dosco_topology::{zoo, NodeId, Topology};
use dosco_traffic::{ArrivalPattern, FlowProfile};
use serde::{Deserialize, Serialize};

/// Traffic entering at one ingress node: an arrival process plus the
/// per-flow parameters (requested service, egress, rate/duration/deadline).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct IngressSpec {
    /// The ingress node `v^in`.
    pub node: NodeId,
    /// Flow arrival pattern at this ingress.
    pub pattern: ArrivalPattern,
    /// The service that flows from this ingress request.
    pub service: ServiceId,
    /// Egress node `v^eg` for flows from this ingress.
    pub egress: NodeId,
    /// Per-flow rate/duration/deadline.
    pub profile: FlowProfile,
}

/// A complete simulation scenario.
///
/// Build the paper's base scenario with [`ScenarioConfig::paper_base`] and
/// customize from there; the struct's fields are public plain data.
///
/// # Example
///
/// ```
/// use dosco_simnet::ScenarioConfig;
/// use dosco_traffic::ArrivalPattern;
///
/// let mut cfg = ScenarioConfig::paper_base(3);
/// cfg.horizon = 5_000.0;
/// for ing in &mut cfg.ingresses {
///     ing.pattern = ArrivalPattern::paper_poisson();
/// }
/// assert_eq!(cfg.ingresses.len(), 3);
/// cfg.validate().unwrap();
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioConfig {
    /// The substrate network (capacities already assigned).
    pub topology: Topology,
    /// Components and services.
    pub catalog: ServiceCatalog,
    /// Traffic sources.
    pub ingresses: Vec<IngressSpec>,
    /// Episode length `T` in simulation time units.
    pub horizon: f64,
    /// How long a fully processed flow is held when the agent keeps it at a
    /// node (Sec. IV-B2: "stays at the node for one time step").
    pub hold_delay: f64,
    /// Seed for the scenario's random capacity assignment, recorded for
    /// reproducibility (the simulation RNG seed is passed separately).
    pub capacity_seed: u64,
}

/// Errors raised by [`ScenarioConfig::validate`].
#[derive(Debug, Clone, PartialEq)]
pub enum ConfigError {
    /// An ingress or egress node id is out of range.
    UnknownNode(NodeId),
    /// An ingress references an unknown service.
    UnknownService(ServiceId),
    /// A parameter is out of range: the horizon or hold delay, or an
    /// ingress's arrival pattern or flow profile.
    InvalidValue(String),
    /// There are no ingresses.
    NoIngress,
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::UnknownNode(v) => write!(f, "unknown node {v}"),
            ConfigError::UnknownService(s) => write!(f, "unknown service {s}"),
            ConfigError::InvalidValue(w) => write!(f, "invalid value: {w}"),
            ConfigError::NoIngress => write!(f, "scenario has no ingress"),
        }
    }
}

impl std::error::Error for ConfigError {}

impl ScenarioConfig {
    /// The paper's base scenario (Sec. V-A1): Abilene topology with node
    /// capacities ~U(0,2) and link capacities ~U(1,5) (seeded), the
    /// 3-component video service, `num_ingress ∈ 1..=5` ingress nodes
    /// (`v1..v5`) with fixed arrivals every 10 time units, single egress
    /// `v8`, unit flow rate and duration, deadline 100, horizon 20 000.
    ///
    /// # Panics
    ///
    /// Panics if `num_ingress` is not in `1..=5`.
    pub fn paper_base(num_ingress: usize) -> Self {
        assert!(
            (1..=5).contains(&num_ingress),
            "the base scenario defines ingress nodes v1..v5, got {num_ingress}"
        );
        let capacity_seed = 0xD05C0;
        let mut topology = zoo::abilene();
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(capacity_seed);
        topology.assign_random_capacities(&mut rng, (0.0, 2.0), (1.0, 5.0));
        let catalog = ServiceCatalog::paper_video_service();
        let ingresses = zoo::ABILENE_INGRESS[..num_ingress]
            .iter()
            .map(|&node| IngressSpec {
                node,
                pattern: ArrivalPattern::paper_fixed(),
                service: ServiceId(0),
                egress: zoo::ABILENE_EGRESS,
                profile: FlowProfile::paper_default(),
            })
            .collect();
        ScenarioConfig {
            topology,
            catalog,
            ingresses,
            horizon: 20_000.0,
            hold_delay: 1.0,
            capacity_seed,
        }
    }

    /// Replaces every ingress's arrival pattern.
    pub fn with_pattern(mut self, pattern: ArrivalPattern) -> Self {
        for ing in &mut self.ingresses {
            ing.pattern = pattern.clone();
        }
        self
    }

    /// Replaces every ingress's flow deadline (Sec. V-C).
    ///
    /// # Panics
    ///
    /// Panics if `deadline` is not finite and positive.
    pub fn with_deadline(mut self, deadline: f64) -> Self {
        for ing in &mut self.ingresses {
            ing.profile = ing.profile.with_deadline(deadline);
        }
        self
    }

    /// Re-draws the random capacity assignment from `seed` (nodes U(0,2),
    /// links U(1,5), the base scenario's ranges) and records the seed: the
    /// one per-seed draw that training episodes and the paper's random-
    /// seed evaluation protocol share, so both see the same distribution.
    pub fn with_capacity_draw(mut self, seed: u64) -> Self {
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(seed ^ 0xCAB5);
        self.topology
            .assign_random_capacities(&mut rng, (0.0, 2.0), (1.0, 5.0));
        self.capacity_seed = seed;
        self
    }

    /// Replaces the episode horizon.
    pub fn with_horizon(mut self, horizon: f64) -> Self {
        self.horizon = horizon;
        self
    }

    /// Checks internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] for out-of-range nodes or services, a
    /// non-positive horizon/hold delay, an arrival pattern or flow profile
    /// parameter out of range ([`ArrivalPattern::validate`],
    /// [`FlowProfile::validate`]), or an empty ingress list.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.ingresses.is_empty() {
            return Err(ConfigError::NoIngress);
        }
        if !self.horizon.is_finite() || self.horizon <= 0.0 {
            return Err(ConfigError::InvalidValue(format!(
                "horizon {} must be finite and > 0",
                self.horizon
            )));
        }
        if !self.hold_delay.is_finite() || self.hold_delay <= 0.0 {
            return Err(ConfigError::InvalidValue(format!(
                "hold delay {} must be finite and > 0",
                self.hold_delay
            )));
        }
        let n = self.topology.num_nodes();
        for (i, ing) in self.ingresses.iter().enumerate() {
            if let Err(e) = ing.pattern.validate().and_then(|()| ing.profile.validate()) {
                return Err(ConfigError::InvalidValue(format!("ingress {i}: {e}")));
            }
            if ing.node.0 >= n {
                return Err(ConfigError::UnknownNode(ing.node));
            }
            if ing.egress.0 >= n {
                return Err(ConfigError::UnknownNode(ing.egress));
            }
            if ing.service.0 >= self.catalog.num_services() {
                return Err(ConfigError::UnknownService(ing.service));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_base_is_valid() {
        for k in 1..=5 {
            let cfg = ScenarioConfig::paper_base(k);
            cfg.validate().unwrap();
            assert_eq!(cfg.ingresses.len(), k);
            assert_eq!(cfg.horizon, 20_000.0);
            assert_eq!(cfg.topology.name(), "Abilene");
        }
    }

    #[test]
    fn base_capacities_within_paper_ranges() {
        let cfg = ScenarioConfig::paper_base(1);
        for node in cfg.topology.nodes() {
            assert!((0.0..=2.0).contains(&node.capacity));
        }
        for link in cfg.topology.links() {
            assert!((1.0..=5.0).contains(&link.capacity));
        }
    }

    #[test]
    fn base_is_deterministic() {
        assert_eq!(ScenarioConfig::paper_base(3), ScenarioConfig::paper_base(3));
    }

    #[test]
    #[should_panic(expected = "v1..v5")]
    fn base_rejects_six_ingresses() {
        ScenarioConfig::paper_base(6);
    }

    #[test]
    fn with_helpers() {
        let cfg = ScenarioConfig::paper_base(2)
            .with_pattern(ArrivalPattern::paper_poisson())
            .with_deadline(30.0)
            .with_horizon(1_000.0);
        for ing in &cfg.ingresses {
            assert_eq!(ing.pattern.name(), "poisson");
            assert_eq!(ing.profile.deadline, 30.0);
        }
        assert_eq!(cfg.horizon, 1_000.0);
    }

    #[test]
    fn validation_catches_bad_nodes_and_services() {
        let mut cfg = ScenarioConfig::paper_base(1);
        cfg.ingresses[0].node = NodeId(99);
        assert_eq!(cfg.validate(), Err(ConfigError::UnknownNode(NodeId(99))));

        let mut cfg = ScenarioConfig::paper_base(1);
        cfg.ingresses[0].service = ServiceId(5);
        assert_eq!(
            cfg.validate(),
            Err(ConfigError::UnknownService(ServiceId(5)))
        );

        let mut cfg = ScenarioConfig::paper_base(1);
        cfg.horizon = -1.0;
        assert!(matches!(cfg.validate(), Err(ConfigError::InvalidValue(_))));

        let mut cfg = ScenarioConfig::paper_base(1);
        cfg.ingresses.clear();
        assert_eq!(cfg.validate(), Err(ConfigError::NoIngress));
    }

    /// Every parameter the simulator's arrival playback and flow spawning
    /// rely on is a typed error here, not a panic (or a hang) later in
    /// `Simulation::new`.
    #[test]
    fn validation_catches_bad_arrival_and_profile_parameters() {
        let mmpp = |mean0, mean1, period, prob| ArrivalPattern::Mmpp {
            mean0,
            mean1,
            period,
            prob,
        };
        let patterns = [
            ArrivalPattern::Fixed { interval: 0.0 },
            ArrivalPattern::Fixed { interval: f64::NAN },
            ArrivalPattern::Poisson { mean: -10.0 },
            mmpp(f64::INFINITY, 8.0, 100.0, 0.05),
            mmpp(12.0, 0.0, 100.0, 0.05),
            mmpp(12.0, 8.0, -100.0, 0.05),
            mmpp(12.0, 8.0, 100.0, 2.0),
            ArrivalPattern::Trace {
                trace: dosco_traffic::Trace::synthetic_abilene(),
                scale: 0.0,
            },
        ];
        for pattern in patterns {
            let cfg = ScenarioConfig::paper_base(2).with_pattern(pattern.clone());
            let err = cfg.validate().unwrap_err();
            assert!(
                matches!(&err, ConfigError::InvalidValue(w) if w.starts_with("ingress 0")),
                "{pattern:?}: {err}"
            );
        }
        let profile = FlowProfile::paper_default();
        for bad in [
            FlowProfile {
                rate: f64::NAN,
                ..profile
            },
            FlowProfile {
                duration: -1.0,
                ..profile
            },
            FlowProfile {
                deadline: 0.0,
                ..profile
            },
        ] {
            let mut cfg = ScenarioConfig::paper_base(2);
            cfg.ingresses[1].profile = bad;
            let err = cfg.validate().unwrap_err();
            assert!(
                matches!(&err, ConfigError::InvalidValue(w) if w.starts_with("ingress 1")),
                "{bad:?}: {err}"
            );
        }
    }

    /// A scenario read from JSON cannot smuggle in an empty or zero-width
    /// trace: it fails to parse instead of running with no traffic.
    #[test]
    fn config_with_empty_trace_does_not_deserialize() {
        let cfg = ScenarioConfig::paper_base(1).with_pattern(ArrivalPattern::paper_trace());
        let json = serde_json::to_string(&cfg).unwrap();
        assert!(serde_json::from_str::<ScenarioConfig>(&json).is_ok());
        let rates = json.find("\"rates\":[").unwrap() + "\"rates\":[".len();
        let close = rates + json[rates..].find(']').unwrap();
        let empty = format!("{}{}", &json[..rates], &json[close..]);
        assert!(serde_json::from_str::<ScenarioConfig>(&empty).is_err());
    }
}

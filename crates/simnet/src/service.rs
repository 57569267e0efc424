//! Services and their chained components (Sec. III-A).

use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifier of a service component `c ∈ C` (dense index into the
/// [`ServiceCatalog`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct ComponentId(pub usize);

/// Identifier of a service `s ∈ S` (dense index into the
/// [`ServiceCatalog`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct ServiceId(pub usize);

impl fmt::Display for ComponentId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "c{}", self.0)
    }
}

impl fmt::Display for ServiceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// A service component (e.g. a VNF or microservice).
///
/// Processing a flow `f` at an instance of this component incurs
/// `processing_delay` and occupies `resources(λ_f)` node capacity for the
/// time the flow traverses the instance. New instances pay `startup_delay`
/// before processing begins (Sec. IV-A: `d_c^up`), and idle instances are
/// removed after `idle_timeout` (Sec. IV-A: `δ_c`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Component {
    /// Human-readable name (e.g. `"FW"`, `"IDS"`, `"Video"`).
    pub name: String,
    /// Processing delay `d_c` in milliseconds.
    pub processing_delay: f64,
    /// Resource demand per unit of flow data rate: `r_c(λ) = fixed +
    /// per_rate · λ` (the paper's base scenario uses `r_c(λ) = λ`).
    pub resource_per_rate: f64,
    /// Load-independent part of the resource demand.
    pub resource_fixed: f64,
    /// Startup delay `d_c^up` paid when a new instance is placed.
    pub startup_delay: f64,
    /// Idle timeout `δ_c` after which unused instances are removed.
    pub idle_timeout: f64,
}

impl Component {
    /// A component with the paper's base-scenario parameters: 5 ms
    /// processing delay, resources linear in load (`r_c(λ) = λ`), zero
    /// startup delay, idle timeout 20.
    pub fn paper_default(name: impl Into<String>) -> Self {
        Component {
            name: name.into(),
            processing_delay: 5.0,
            resource_per_rate: 1.0,
            resource_fixed: 0.0,
            startup_delay: 0.0,
            idle_timeout: 20.0,
        }
    }

    /// The resource demand `r_c(λ)` for a flow of data rate `λ`.
    pub fn resources(&self, rate: f64) -> f64 {
        self.resource_fixed + self.resource_per_rate * rate
    }
}

/// A service: an ordered chain of components flows must traverse
/// (`s = (n_s, C_s)`, Sec. III-A).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Service {
    /// Human-readable name.
    pub name: String,
    /// The component chain `C_s = ⟨c_1, …, c_{n_s}⟩`.
    pub chain: Vec<ComponentId>,
}

impl Service {
    /// The chain length `n_s`.
    pub fn len(&self) -> usize {
        self.chain.len()
    }

    /// Whether the chain is empty (never true for validated catalogs).
    pub fn is_empty(&self) -> bool {
        self.chain.is_empty()
    }
}

/// Errors raised while validating a [`ServiceCatalog`].
#[derive(Debug, Clone, PartialEq)]
pub enum CatalogError {
    /// A service chain references an unknown component.
    UnknownComponent(ServiceId, ComponentId),
    /// A service chain is empty.
    EmptyChain(ServiceId),
    /// A component parameter is negative or non-finite.
    InvalidComponent(ComponentId, String),
    /// The catalog contains no services.
    NoServices,
}

impl fmt::Display for CatalogError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CatalogError::UnknownComponent(s, c) => {
                write!(f, "service {s} references unknown component {c}")
            }
            CatalogError::EmptyChain(s) => write!(f, "service {s} has an empty chain"),
            CatalogError::InvalidComponent(c, what) => {
                write!(f, "component {c} invalid: {what}")
            }
            CatalogError::NoServices => write!(f, "catalog contains no services"),
        }
    }
}

impl std::error::Error for CatalogError {}

/// All components and services available in a scenario.
///
/// # Example
///
/// ```
/// use dosco_simnet::service::ServiceCatalog;
///
/// let catalog = ServiceCatalog::paper_video_service();
/// let s = catalog.service(dosco_simnet::ServiceId(0));
/// assert_eq!(s.len(), 3); // FW -> IDS -> Video
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServiceCatalog {
    components: Vec<Component>,
    services: Vec<Service>,
}

impl ServiceCatalog {
    /// Builds a validated catalog.
    ///
    /// # Errors
    ///
    /// Returns a [`CatalogError`] if any service chain is empty or
    /// references unknown components, any component has negative or
    /// non-finite parameters, or there are no services.
    pub fn new(components: Vec<Component>, services: Vec<Service>) -> Result<Self, CatalogError> {
        if services.is_empty() {
            return Err(CatalogError::NoServices);
        }
        for (i, c) in components.iter().enumerate() {
            let id = ComponentId(i);
            for (what, v) in [
                ("processing delay", c.processing_delay),
                ("resource per rate", c.resource_per_rate),
                ("fixed resources", c.resource_fixed),
                ("startup delay", c.startup_delay),
                ("idle timeout", c.idle_timeout),
            ] {
                if !v.is_finite() || v < 0.0 {
                    return Err(CatalogError::InvalidComponent(
                        id,
                        format!("{what} {v} must be finite and ≥ 0"),
                    ));
                }
            }
        }
        for (i, s) in services.iter().enumerate() {
            let sid = ServiceId(i);
            if s.chain.is_empty() {
                return Err(CatalogError::EmptyChain(sid));
            }
            for &c in &s.chain {
                if c.0 >= components.len() {
                    return Err(CatalogError::UnknownComponent(sid, c));
                }
            }
        }
        Ok(ServiceCatalog {
            components,
            services,
        })
    }

    /// The paper's evaluation service: video streaming with
    /// `C_s = ⟨FW, IDS, Video⟩`, all components at the base parameters
    /// (Sec. V-A1). The service has id `ServiceId(0)`.
    pub fn paper_video_service() -> Self {
        let components = vec![
            Component::paper_default("FW"),
            Component::paper_default("IDS"),
            Component::paper_default("Video"),
        ];
        let services = vec![Service {
            name: "video-streaming".into(),
            chain: vec![ComponentId(0), ComponentId(1), ComponentId(2)],
        }];
        #[allow(
            clippy::expect_used,
            reason = "a fixed, valid catalog, built by every test that uses the paper scenario"
        )]
        ServiceCatalog::new(components, services).expect("paper service is valid")
    }

    /// Number of distinct components `|C|`.
    pub fn num_components(&self) -> usize {
        self.components.len()
    }

    /// Number of services `|S|`.
    pub fn num_services(&self) -> usize {
        self.services.len()
    }

    /// The component with id `c`.
    ///
    /// # Panics
    ///
    /// Panics if `c` is out of range.
    pub fn component(&self, c: ComponentId) -> &Component {
        &self.components[c.0]
    }

    /// The service with id `s`.
    ///
    /// # Panics
    ///
    /// Panics if `s` is out of range.
    pub fn service(&self, s: ServiceId) -> &Service {
        &self.services[s.0]
    }

    /// All components.
    pub fn components(&self) -> &[Component] {
        &self.components
    }

    /// All services.
    pub fn services(&self) -> &[Service] {
        &self.services
    }

    /// The `i`-th component in service `s`'s chain, or `None` past the end
    /// (the flow is fully processed, `c_f = ∅`).
    pub fn component_at(&self, s: ServiceId, chain_pos: usize) -> Option<ComponentId> {
        self.services[s.0].chain.get(chain_pos).copied()
    }

    /// Minimum end-to-end processing delay of service `s` (sum of its
    /// components' processing delays, excluding startup delays).
    pub fn total_processing_delay(&self, s: ServiceId) -> f64 {
        self.services[s.0]
            .chain
            .iter()
            .map(|&c| self.components[c.0].processing_delay)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_service_shape() {
        let cat = ServiceCatalog::paper_video_service();
        assert_eq!(cat.num_components(), 3);
        assert_eq!(cat.num_services(), 1);
        let s = cat.service(ServiceId(0));
        assert_eq!(s.len(), 3);
        assert_eq!(cat.total_processing_delay(ServiceId(0)), 15.0);
        assert_eq!(cat.component(ComponentId(0)).name, "FW");
    }

    #[test]
    fn component_resources_linear() {
        let c = Component::paper_default("x");
        assert_eq!(c.resources(0.0), 0.0);
        assert_eq!(c.resources(2.5), 2.5);
        let affine = Component {
            resource_fixed: 0.5,
            ..Component::paper_default("y")
        };
        assert_eq!(affine.resources(2.0), 2.5);
    }

    #[test]
    fn chain_walk_terminates_with_none() {
        let cat = ServiceCatalog::paper_video_service();
        assert_eq!(cat.component_at(ServiceId(0), 0), Some(ComponentId(0)));
        assert_eq!(cat.component_at(ServiceId(0), 2), Some(ComponentId(2)));
        assert_eq!(cat.component_at(ServiceId(0), 3), None);
    }

    #[test]
    fn rejects_empty_chain() {
        let comps = vec![Component::paper_default("a")];
        let err = ServiceCatalog::new(
            comps,
            vec![Service {
                name: "bad".into(),
                chain: vec![],
            }],
        )
        .unwrap_err();
        assert_eq!(err, CatalogError::EmptyChain(ServiceId(0)));
    }

    #[test]
    fn rejects_unknown_component() {
        let comps = vec![Component::paper_default("a")];
        let err = ServiceCatalog::new(
            comps,
            vec![Service {
                name: "bad".into(),
                chain: vec![ComponentId(5)],
            }],
        )
        .unwrap_err();
        assert_eq!(
            err,
            CatalogError::UnknownComponent(ServiceId(0), ComponentId(5))
        );
    }

    #[test]
    fn rejects_invalid_component_params() {
        let mut c = Component::paper_default("a");
        c.processing_delay = -1.0;
        let err = ServiceCatalog::new(
            vec![c],
            vec![Service {
                name: "s".into(),
                chain: vec![ComponentId(0)],
            }],
        )
        .unwrap_err();
        assert!(matches!(err, CatalogError::InvalidComponent(..)));
    }

    #[test]
    fn rejects_empty_catalog() {
        assert_eq!(
            ServiceCatalog::new(vec![], vec![]).unwrap_err(),
            CatalogError::NoServices
        );
    }

    #[test]
    fn serde_round_trip() {
        let cat = ServiceCatalog::paper_video_service();
        let json = serde_json::to_string(&cat).unwrap();
        let back: ServiceCatalog = serde_json::from_str(&json).unwrap();
        assert_eq!(cat, back);
    }
}

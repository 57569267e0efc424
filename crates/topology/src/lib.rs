//! Substrate network topologies for online service coordination.
//!
//! This crate models the undirected substrate network `G = (V, L)` from
//! Sec. III-A of the paper: nodes with generic compute capacity, links with
//! propagation delay and a shared bidirectional data-rate capacity. It also
//! provides:
//!
//! - [`zoo`]: the four real-world topologies of the evaluation (Table I) —
//!   Abilene reproduced exactly from public Internet Topology Zoo data, and
//!   BT Europe / China Telecom / Interroute as deterministic statistical
//!   reconstructions matching the paper's published size and degree figures,
//! - [`generators`]: synthetic graph generators (line, ring, star, grid,
//!   random geometric) for tests and ablations,
//! - [`graphml`]: a minimal parser for the Topology Zoo GraphML subset so
//!   real data files can be dropped in,
//! - [`paths`]: all-pairs shortest path delays and next-hop tables, which
//!   the coordination algorithms precompute (Sec. IV-B1d).
//!
//! # Example
//!
//! ```
//! use dosco_topology::zoo;
//!
//! let topo = zoo::abilene();
//! assert_eq!(topo.num_nodes(), 11);
//! assert_eq!(topo.num_links(), 14);
//! let sp = dosco_topology::paths::ShortestPaths::compute(&topo);
//! // Every node reaches every other node in this connected backbone.
//! assert!(sp.diameter() > 0.0);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]
#![cfg_attr(not(test), deny(clippy::expect_used))]
#![warn(missing_debug_implementations)]

pub mod generators;
pub mod graph;
pub mod graphml;
pub mod paths;
pub mod stats;
pub mod zoo;

pub use graph::{LinkId, NodeId, Topology, TopologyBuilder, TopologyError};
pub use paths::ShortestPaths;
pub use stats::DegreeStats;

//! The repeatable benchmark of the dosco workspace: five named workloads,
//! four gated end-to-end metrics, and a per-layer budget measured from
//! outside each crate's public functions. See `README.md`.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod harness;
pub mod probes;
pub mod scenario;
pub mod spec;
pub mod stats;
pub mod trace;
pub mod workloads;

use harness::Outcome;
use std::path::Path;
use workloads::{decide::Decide, serve::Serve, sim::SimGrid, train::Train};

/// Runs the workload called `name`, or returns `None` for an unknown name.
pub fn run_workload(
    name: &str,
    seed: u64,
    seconds: f64,
    traced: bool,
    out_dir: &Path,
) -> Option<Outcome> {
    Some(match name {
        "decide-abilene" => harness::run::<Decide>(seed, seconds, traced, out_dir),
        "serve-abilene" => harness::run::<Serve>(seed, seconds, traced, out_dir),
        "sim-grid-static" => harness::run::<SimGrid<false>>(seed, seconds, traced, out_dir),
        "sim-grid-churn" => harness::run::<SimGrid<true>>(seed, seconds, traced, out_dir),
        "train-inproc" => harness::run::<Train>(seed, seconds, traced, out_dir),
        _ => return None,
    })
}

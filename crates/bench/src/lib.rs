//! Experiment harness shared by the table/figure reproduction binaries.
//!
//! Every evaluation figure compares the same four algorithms
//! (Sec. V-A3) on scenario variations of the Abilene base scenario:
//! the **distributed DRL** approach (the paper's contribution), the
//! **centralized DRL** baseline, the **GCASP** heuristic, and greedy
//! **SP**. This crate packages scenario construction, training, running,
//! and table printing so each `src/bin/figN.rs` binary stays a thin
//! parameter sweep.

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]
#![cfg_attr(not(test), deny(clippy::expect_used))]
#![warn(missing_debug_implementations)]

pub mod report;
pub mod runner;
pub mod scenarios;

pub use report::{print_series, SeriesPoint};
pub use runner::{Algo, ExpBudget};
pub use scenarios::base_scenario;

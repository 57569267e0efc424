//! Flow arrival processes and traffic traces.
//!
//! The paper evaluates four increasingly realistic flow arrival patterns at
//! each ingress node (Sec. V-B):
//!
//! 1. **Fixed** — one flow every 10 time steps ([`arrival::FixedInterval`]),
//! 2. **Poisson** — exponential inter-arrival times, mean 10
//!    ([`arrival::Poisson`]),
//! 3. **MMPP** — a two-state Markov-modulated Poisson process switching
//!    between mean inter-arrival 12 and 8 every 100 steps with 5 %
//!    probability ([`arrival::Mmpp`]),
//! 4. **Trace-driven** — real-world traffic traces for the Abilene network
//!    ([`arrival::TraceDriven`] over a [`trace::Trace`]; a bundled synthetic
//!    diurnal trace substitutes for the SNDlib data, see DESIGN.md §2).
//!
//! [`profile::FlowProfile`] carries the per-flow parameters of the base
//! scenario (data rate λ_f, duration δ_f, deadline τ_f).
//!
//! # Example
//!
//! ```
//! use dosco_traffic::arrival::{ArrivalProcess, Poisson};
//! use rand::SeedableRng;
//!
//! let mut p = Poisson::new(10.0);
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let t1 = p.next_arrival(0.0, &mut rng);
//! let t2 = p.next_arrival(t1, &mut rng);
//! assert!(t2 > t1 && t1 > 0.0);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]
#![warn(missing_debug_implementations)]

pub mod arrival;
pub mod profile;
pub mod trace;

pub use arrival::{ArrivalPattern, ArrivalProcess, FixedInterval, Mmpp, Poisson, TraceDriven};
pub use profile::FlowProfile;
pub use trace::Trace;

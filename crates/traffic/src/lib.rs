//! Flow arrival processes and traffic traces.
//!
//! The paper evaluates four increasingly realistic flow arrival patterns at
//! each ingress node (Sec. V-B), the four arms of [`ArrivalPattern`]:
//!
//! 1. **Fixed** — one flow every 10 time steps,
//! 2. **Poisson** — exponential inter-arrival times, mean 10,
//! 3. **MMPP** — a two-state Markov-modulated Poisson process switching
//!    between mean inter-arrival 12 and 8 every 100 steps with 5 %
//!    probability,
//! 4. **Trace-driven** — real-world traffic traces for the Abilene network
//!    (an inhomogeneous Poisson process over a [`trace::Trace`]; a bundled
//!    synthetic diurnal trace substitutes for the SNDlib data, see
//!    DESIGN.md §2).
//!
//! A pattern is plain data; a source playing it keeps an
//! [`ArrivalCursor`] for the little state a pattern carries between
//! arrivals.
//!
//! [`profile::FlowProfile`] carries the per-flow parameters of the base
//! scenario (data rate λ_f, duration δ_f, deadline τ_f).
//!
//! # Example
//!
//! ```
//! use dosco_traffic::ArrivalPattern;
//! use rand::SeedableRng;
//!
//! let pattern = ArrivalPattern::paper_poisson();
//! let mut cursor = pattern.cursor();
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let t1 = pattern.next_arrival(&mut cursor, 0.0, &mut rng);
//! let t2 = pattern.next_arrival(&mut cursor, t1, &mut rng);
//! assert!(t2 > t1 && t1 > 0.0);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]
#![cfg_attr(not(test), deny(clippy::expect_used))]
#![warn(missing_debug_implementations)]

pub mod arrival;
pub mod profile;
pub mod trace;

pub use arrival::{ArrivalCursor, ArrivalPattern};
pub use profile::FlowProfile;
pub use trace::Trace;

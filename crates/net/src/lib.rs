//! `dosco_net`: the pluggable transport layer under the actor–learner and
//! serve planes.
//!
//! The paper's coordination system is distributed by design; this crate is
//! what lets the runtime and serve dataflows span OS processes without the
//! algorithms changing (the SRL/MSRL lesson: abstract the transport under
//! the dataflow, not the dataflow itself). It provides:
//!
//! - [`transport`] — the [`Transport`]/[`Tx`]/[`Rx`] traits: typed bounded
//!   channels with crossbeam's exact backpressure, disconnect, and
//!   shutdown-drain semantics, plus the [`InProcess`] implementation that
//!   *is* the original crossbeam wiring (bit-identical by construction).
//! - [`socket`] — the same contract over TCP: a bounded queue + writer
//!   thread per sender, a reader thread + bounded queue per receiver, and
//!   the [`SocketLoopback`] transport that pairs them over `127.0.0.1` for
//!   equivalence testing.
//! - [`frame`] — the length-prefixed, FNV-1a-checksummed wire frame.
//! - [`codec`] — a bit-exact binary encoding of the vendored serde
//!   [`serde::Value`] tree (floats travel as raw IEEE-754 bits).
//! - [`config`] — validated `DOSCO_NET_*` environment configuration, plus
//!   [`connect_with_retry`] (bounded exponential backoff + connect
//!   timeout).
//!
//! Traffic is observable through the `net_*` counters and the
//! `net_encode`/`net_decode` span timers in `dosco_obs`.

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod codec;
pub mod config;
pub mod frame;
pub mod socket;
pub mod transport;

pub use codec::{decode_msg, encode_msg, CodecError};
pub use config::{backoff_delay, connect_with_retry, NetConfig, NetError};
pub use frame::{read_frame, write_frame, FrameError};
pub use socket::{receiver_on, sender_on, SocketLoopback, Wire};
pub use transport::{BoxRx, BoxTx, InProcess, Rx, Transport, Tx};

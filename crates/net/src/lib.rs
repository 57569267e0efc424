//! `dosco_net`: the pluggable transport layer under the actor–learner
//! runtime.
//!
//! The runtime's lockstep channels are typed channels behind one trait,
//! so the same dataflow runs over in-process queues or TCP without the
//! algorithms changing
//! (the SRL/MSRL lesson: abstract the transport under the dataflow, not
//! the dataflow itself). Every plane runs in one process: the socket
//! transport is the runtime's socket ≡ channel contract and the
//! benchmark's loopback probes, not a deployment. It provides:
//!
//! - [`transport`] — the [`Transport`]/[`Tx`]/[`Rx`] traits: typed bounded
//!   channels with crossbeam's exact backpressure, disconnect, and
//!   shutdown-drain semantics, plus the [`InProcess`] implementation that
//!   *is* the original crossbeam wiring (bit-identical by construction).
//! - [`socket`] — the same contract over TCP: a bounded queue + writer
//!   thread per sender, a reader thread + bounded queue per receiver, and
//!   the [`SocketLoopback`] transport that pairs them over `127.0.0.1`.
//! - [`frame`] — the length-prefixed, FNV-1a-checksummed wire frame.
//! - [`codec`] — a bit-exact binary encoding of the vendored serde
//!   [`serde::Value`] tree (floats travel as raw IEEE-754 bits).
//!
//! Traffic is observable through the `net_*` counters and the
//! `net_encode`/`net_decode` span timers in `dosco_obs`.

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]
#![cfg_attr(not(test), deny(clippy::expect_used))]

pub mod codec;
pub mod frame;
pub mod socket;
pub mod transport;

pub use codec::{decode_msg, encode_msg, CodecError};
pub use frame::{read_frame, write_frame, FrameError};
pub use socket::{receiver_on, sender_on, SocketLoopback, Wire};
pub use transport::{BoxRx, BoxTx, InProcess, Rx, Transport, Tx};

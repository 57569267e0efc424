//! Multi-process actor–learner deployment over `dosco_net` sockets.
//!
//! One learner process runs [`run_learner_server`]: it binds, accepts the
//! actor's TCP connection, hands it a [`LearnerHello`] (collect params,
//! initial snapshot, agent RNG state), and then runs the *same*
//! [`crate::driver::run_learner_loop`] the in-process driver uses — only
//! the transport differs, so the arithmetic cannot drift. The actor
//! process runs [`run_actor`]: connect (with the `dosco_net` retry
//! policy), then the in-process actor loop over the socket.
//!
//! One TCP stream carries both directions:
//!
//! ```text
//!  learner process                       actor process
//!  ┌─────────────────────┐   hello,     ┌──────────────────┐
//!  │ run_learner_loop    │──SyncReply──▶│ actor loop       │
//!  │                     │◀─────────────│                  │
//!  └─────────────────────┘  Experience  └──────────────────┘
//! ```
//!
//! The exchange is lockstep exactly as in-process: the actor sends its
//! batch with the agent RNG inside and blocks until the learner's
//! [`SyncReply`] carries the post-update snapshot and RNG back. A
//! 1-learner + 1-actor deployment over loopback is therefore bit-identical
//! to [`crate::train`] (pinned by test). The learner treats the actor as
//! untrusted: a batch that breaks the lockstep protocol ends the run with
//! [`NetError::Protocol`] instead of a panic.

use std::net::TcpListener;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use dosco_net::{
    connect_with_retry, read_frame, receiver_on, sender_on, write_frame, BoxRx, BoxTx, NetConfig,
    NetError,
};
use dosco_rl::env::Env;
use dosco_rl::learner::Learner;
use rand::rngs::StdRng;

use crate::config::RuntimeConfig;
use crate::counters::Counters;
use crate::driver::{actor_loop, drain, run_learner_loop, RuntimeOutcome};
use crate::snapshot::PolicySnapshot;
use crate::wire::{ExperienceBatch, LearnerHello, SyncReply};

fn io_protocol(what: &str, e: &dyn std::fmt::Display) -> NetError {
    NetError::Protocol(format!("{what}: {e}"))
}

/// The accepted actor connection, wired for duplex traffic. `batches` is
/// declared first so it drops first: shutting the socket down unblocks a
/// reply write the actor never reads.
struct ActorConn {
    batches: BoxRx<ExperienceBatch>,
    replies: BoxTx<SyncReply>,
}

fn accept_actor(listener: &TcpListener, hello: &LearnerHello) -> Result<ActorConn, NetError> {
    let (stream, _) = listener
        .accept()
        .map_err(|e| io_protocol("accept actor connection", &e))?;
    let _ = stream.set_nodelay(true);
    let read_half = stream
        .try_clone()
        .map_err(|e| io_protocol("clone actor stream", &e))?;
    let mut hello_half = stream
        .try_clone()
        .map_err(|e| io_protocol("clone actor stream", &e))?;
    write_frame(&mut hello_half, &dosco_net::encode_msg(hello))
        .map_err(|e| io_protocol("send LearnerHello", &e))?;
    Ok(ActorConn {
        batches: receiver_on(read_half, 1),
        replies: sender_on(stream, 1),
    })
}

/// The learner end of a multi-process deployment, bound but not yet
/// serving. Splitting bind from [`LearnerServer::run`] lets a caller bind
/// `127.0.0.1:0` and hand the resolved [`LearnerServer::local_addr`] to
/// the actor process.
#[derive(Debug)]
pub struct LearnerServer {
    listener: TcpListener,
}

impl LearnerServer {
    /// Binds the learner's listening socket.
    ///
    /// # Errors
    ///
    /// [`NetError::Protocol`] naming the bind failure.
    pub fn bind(addr: &str) -> Result<Self, NetError> {
        let listener =
            TcpListener::bind(addr).map_err(|e| io_protocol("bind learner listener", &e))?;
        Ok(LearnerServer { listener })
    }

    /// The bound address (`host:port`), with any ephemeral port resolved.
    ///
    /// # Panics
    ///
    /// Panics if the OS cannot report the local address of a bound socket.
    #[must_use]
    pub fn local_addr(&self) -> String {
        self.listener
            .local_addr()
            .expect("bound listener has an address")
            .to_string()
    }

    /// Accepts one actor connection, handshakes, and trains for
    /// `total_steps` transitions exactly as [`crate::train`] would — same
    /// learner loop, same counters, same shutdown drain (a batch in flight
    /// is consumed until the actor disconnects, recovering the agent RNG
    /// from it).
    ///
    /// `cancel`, when provided, stops the learner at the next batch
    /// boundary.
    ///
    /// # Errors
    ///
    /// [`NetError`] if accepting or the handshake fails, if the actor
    /// sends a batch that breaks the lockstep protocol (no RNG, a version
    /// other than the learner's, or a rollout whose fields disagree in
    /// length or do not fit the policy), or if it disconnects holding the
    /// agent RNG. The learner's RNG is not recovered on error.
    pub fn run<L: Learner>(
        &self,
        learner: &mut L,
        total_steps: usize,
        _config: &RuntimeConfig,
        cancel: Option<&AtomicBool>,
    ) -> Result<RuntimeOutcome, NetError> {
        let hello = LearnerHello {
            params: learner.collect_params(),
            snapshot: PolicySnapshot {
                version: 0,
                actor: learner.actor().clone(),
                critic: learner.critic().clone(),
            },
            rng: learner.take_rng().state(),
        };
        let conn = accept_actor(&self.listener, &hello)?;
        let counters = Counters::default();
        let (stats, final_rng) = run_learner_loop(
            learner,
            conn.batches.as_ref(),
            conn.replies.as_ref(),
            total_steps,
            &counters,
            cancel,
        )
        .map_err(NetError::Protocol)?;

        // Shutdown: dropping the reply sender FINs the actor's control
        // stream; the actor exits, its batch stream closes, and the drain
        // runs until then — recovering a queued RNG exactly like the
        // in-process drain.
        drop(conn.replies);
        let final_rng = drain(conn.batches.as_ref(), &counters).or(final_rng);
        let rng = final_rng.ok_or_else(|| {
            NetError::Protocol(format!(
                "actor disconnected holding the agent RNG ({})",
                conn.batches.fault().as_deref().unwrap_or("clean close")
            ))
        })?;
        learner.restore_rng(rng);
        Ok(RuntimeOutcome {
            report: counters.report(),
            stats,
        })
    }
}

/// Binds `addr` and serves one training run: `LearnerServer::bind` +
/// [`LearnerServer::run`] in one call, for role entrypoints whose address
/// is fully specified up front.
///
/// # Errors
///
/// As [`LearnerServer::bind`] and [`LearnerServer::run`].
pub fn run_learner_server<L: Learner>(
    learner: &mut L,
    total_steps: usize,
    config: &RuntimeConfig,
    addr: &str,
    cancel: Option<&AtomicBool>,
) -> Result<RuntimeOutcome, NetError> {
    LearnerServer::bind(addr)?.run(learner, total_steps, config, cancel)
}

/// Runs one actor process: dial the learner at `addr` (using `net`'s
/// retry/timeout policy), handshake, then run the in-process actor loop
/// over the socket until the learner hangs up. Returns the number of
/// batches sent.
///
/// The process mirrors the in-process actor thread bit for bit: the agent
/// RNG rides inside every batch and comes back with each [`SyncReply`].
///
/// # Errors
///
/// [`NetError`] if the connection or handshake fails.
pub fn run_actor(
    envs: &mut [Box<dyn Env>],
    addr: &str,
    net: &NetConfig,
) -> Result<u64, NetError> {
    assert!(!envs.is_empty(), "need at least one environment");
    let mut stream = connect_with_retry(addr, net.retries, net.timeout)?;
    let payload = read_frame(&mut stream).map_err(|e| io_protocol("read LearnerHello", &e))?;
    let hello: LearnerHello =
        dosco_net::decode_msg(&payload).map_err(|e| io_protocol("decode LearnerHello", &e))?;
    let read_half = stream
        .try_clone()
        .map_err(|e| io_protocol("clone learner stream", &e))?;
    let replies: BoxRx<SyncReply> = receiver_on(read_half, net.capacity);
    let batches: BoxTx<ExperienceBatch> = sender_on(stream, net.capacity);
    let counters = Counters::default();
    actor_loop(
        hello.params,
        &counters,
        envs,
        batches.as_ref(),
        replies.as_ref(),
        Arc::new(hello.snapshot),
        StdRng::from_state(hello.rng),
    );
    Ok(counters.batches_produced.load(Ordering::Relaxed))
}

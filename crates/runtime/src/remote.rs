//! Multi-process actor–learner deployment over `dosco_net` sockets.
//!
//! One learner process runs [`run_learner_server`]: it binds, accepts one
//! TCP connection per actor, hands each a [`LearnerHello`] (mode, collect
//! params, initial snapshot, RNG state in sync mode), and then runs the
//! *same* [`crate::driver::run_learner_loop`] the in-process driver uses —
//! only the transport differs, so the arithmetic cannot drift. Actor
//! processes run [`run_actor`]: connect (with the `dosco_net` retry
//! policy), mirror an in-process actor thread, and stream
//! [`ExperienceBatch`] frames back.
//!
//! Per-connection wiring (one TCP stream, both directions):
//!
//! ```text
//!  learner process                       actor process
//!  ┌─────────────────────┐   hello,     ┌──────────────────┐
//!  │ run_learner_loop    │   ActorCtrl  │ collect loop     │
//!  │  ◀─ fan-in channel ─┼──────────────┼─▶ ctrl receiver  │
//!  │  forwarder / conn   │◀─────────────┼── batch sender   │
//!  └─────────────────────┘  Experience  └──────────────────┘
//! ```
//!
//! **Sync mode** is lockstep exactly as in-process: the single actor sends
//! its batch with the circulating RNG inside and blocks until the
//! learner's [`ActorCtrl::Reply`] carries the post-update snapshot and RNG
//! back. A 1-learner + 1-actor sync deployment over loopback is therefore
//! bit-identical to [`crate::train`] (pinned by test).
//!
//! **Async mode** replaces the in-process clock gate with a per-actor
//! *version window*: an actor blocks once it has sent more than
//! [`LearnerHello::skew`] batches past the last snapshot version it has
//! seen. Unlike the in-process SSP gate, socket queues and kernel buffers
//! hold additional in-flight batches, so deployments should budget
//! [`crate::RuntimeConfig::max_staleness`] with headroom above
//! `min_staleness_bound()` — the learner still asserts the bound on every
//! batch it consumes.

use std::net::TcpListener;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::thread::JoinHandle;

use crossbeam::channel::{self, TryRecvError};
use dosco_net::{
    connect_with_retry, read_frame, receiver_on, sender_on, write_frame, BoxRx, BoxTx, NetConfig,
    NetError, Rx,
};
use dosco_rl::env::Env;
use dosco_rl::learner::Learner;
use dosco_rl::rollout::RolloutCollector;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::config::{Mode, RuntimeConfig};
use crate::counters::Counters;
use crate::driver::{run_learner_loop, RuntimeOutcome};
use crate::snapshot::PolicySnapshot;
use crate::wire::{ActorCtrl, ExperienceBatch, LearnerHello};

fn io_protocol(what: &str, e: &dyn std::fmt::Display) -> NetError {
    NetError::Protocol(format!("{what}: {e}"))
}

/// One accepted actor connection, wired for duplex traffic.
struct ActorConn {
    ctrl: BoxTx<ActorCtrl>,
    batches: BoxRx<ExperienceBatch>,
}

fn accept_actor(
    listener: &TcpListener,
    hello: &LearnerHello,
    capacity: usize,
) -> Result<ActorConn, NetError> {
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
        ctrl: sender_on::<ActorCtrl>(stream, capacity),
        batches: receiver_on::<ExperienceBatch>(read_half, capacity),
    })
}

/// The learner end of a multi-process deployment, bound but not yet
/// serving. Splitting bind from [`LearnerServer::run`] lets a caller bind
/// `127.0.0.1:0` and hand the resolved [`LearnerServer::local_addr`] to
/// the actor processes.
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

    /// Accepts `n_actors` connections ([`RuntimeConfig::n_actors`]; sync
    /// mode forces one), handshakes each, and trains for `total_steps`
    /// transitions exactly as [`crate::train`] would — same learner loop,
    /// same counters, same shutdown drain (in-flight batches are consumed
    /// until every actor disconnects, recovering a circulating RNG if one
    /// is queued).
    ///
    /// `cancel`, when provided, stops the learner at the next batch
    /// boundary.
    ///
    /// # Errors
    ///
    /// [`NetError`] if accepting or the handshake fails.
    ///
    /// # Panics
    ///
    /// As [`crate::train`]: invalid configuration, a violated staleness
    /// bound, or (pathologically, e.g. an actor killed mid-lockstep) an
    /// unrecoverable agent RNG.
    pub fn run<L: Learner>(
        &self,
        learner: &mut L,
        total_steps: usize,
        config: &RuntimeConfig,
        cancel: Option<&AtomicBool>,
    ) -> Result<RuntimeOutcome, NetError> {
        run_on_listener(&self.listener, learner, total_steps, config, cancel)
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

fn run_on_listener<L: Learner>(
    listener: &TcpListener,
    learner: &mut L,
    total_steps: usize,
    config: &RuntimeConfig,
    cancel: Option<&AtomicBool>,
) -> Result<RuntimeOutcome, NetError> {
    config.validate().expect("invalid runtime configuration");
    let sync = config.mode == Mode::Sync;
    let n_actors = if sync { 1 } else { config.n_actors.max(1) };
    let params = learner.collect_params();
    let skew = if sync { 0 } else { config.round_skew() };

    let snapshot0 = PolicySnapshot {
        version: 0,
        actor: learner.actor().clone(),
        critic: learner.critic().clone(),
    };
    let agent_rng = learner.take_rng();
    // Sync mode hands the whole RNG stream to the single actor via the
    // hello; async mode keeps it learner-side for every update.
    let (hello_rng, mut final_rng) = if sync {
        (Some(agent_rng.state()), None)
    } else {
        (None, Some(agent_rng))
    };

    let mut ctrl_txs: Vec<BoxTx<ActorCtrl>> = Vec::with_capacity(n_actors);
    let mut conn_rxs: Vec<BoxRx<ExperienceBatch>> = Vec::with_capacity(n_actors);
    for idx in 0..n_actors {
        let hello = LearnerHello {
            mode: config.mode,
            params,
            actor_index: idx as u64,
            actor_seed: config.actor_seed,
            skew,
            snapshot: snapshot0.clone(),
            rng: hello_rng,
        };
        let conn = accept_actor(listener, &hello, config.channel_capacity)?;
        ctrl_txs.push(conn.ctrl);
        conn_rxs.push(conn.batches);
    }

    // Fan the per-connection streams into the single bounded channel the
    // learner loop consumes (same capacity knob as the in-process driver).
    let (fan_tx, fan_rx) = channel::bounded::<ExperienceBatch>(config.channel_capacity);
    let forwarders: Vec<JoinHandle<()>> = conn_rxs
        .into_iter()
        .map(|rx| {
            let fan_tx = fan_tx.clone();
            std::thread::Builder::new()
                .name("dosco-learner-fanin".into())
                .spawn(move || {
                    while let Ok(batch) = rx.recv() {
                        if fan_tx.send(batch).is_err() {
                            return;
                        }
                    }
                })
                .expect("spawn dosco-learner-fanin")
        })
        .collect();
    drop(fan_tx); // disconnect now tracks the forwarders alone
    let fan_rx = dosco_net::rx_from_channel(fan_rx);

    let counters = Counters::default();
    let stats = run_learner_loop(
        learner,
        fan_rx.as_ref(),
        config,
        total_steps,
        &counters,
        &mut final_rng,
        cancel,
        |snap| {
            if !sync {
                // Sync mode carries the snapshot in the lockstep Reply.
                for tx in &ctrl_txs {
                    let _ = tx.send(ActorCtrl::Publish((*snap).clone()));
                }
            }
        },
        |snap, rng| {
            let state = rng.state();
            ctrl_txs[0]
                .send(ActorCtrl::Reply {
                    snapshot: (*snap).clone(),
                    rng: state,
                })
                .map_err(|_| StdRng::from_state(state))
        },
    );

    // Shutdown: dropping the ctrl senders FINs every actor's control
    // stream; actors exit, their batch streams close, and the drain below
    // runs until the last forwarder hangs up — recovering a queued
    // circulating RNG exactly like the in-process drain.
    drop(ctrl_txs);
    while let Ok(batch) = fan_rx.recv() {
        Counters::inc(&counters.batches_drained);
        if batch.rng.is_some() {
            final_rng = batch.rng;
        }
    }
    for h in forwarders {
        let _ = h.join();
    }

    learner.restore_rng(final_rng.expect("the runtime recovers the agent RNG at shutdown"));
    Ok(RuntimeOutcome {
        report: counters.report(config.mode.name(), n_actors, config.max_staleness),
        stats,
    })
}

/// Runs one actor process: dial the learner at `addr` (using `net`'s
/// retry/timeout policy), handshake, then collect rollouts over `envs` and
/// stream them back until the learner hangs up. Returns the number of
/// batches sent.
///
/// In sync mode this process mirrors the in-process lockstep actor
/// bit-for-bit: the circulating RNG rides inside every batch and comes
/// back with each [`ActorCtrl::Reply`]. In async mode the actor derives
/// the same per-actor RNG stream as an in-process actor thread
/// (`actor_seed` + index) and throttles itself to the hello's version
/// window.
///
/// # Errors
///
/// [`NetError`] if the connection or handshake fails, or the learner
/// violates the control protocol.
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
    let ctrl: BoxRx<ActorCtrl> = receiver_on(read_half, net.capacity);
    let batches: BoxTx<ExperienceBatch> = sender_on(stream, net.capacity);

    match hello.mode {
        Mode::Sync => run_sync_actor(envs, &hello, ctrl.as_ref(), batches.as_ref()),
        Mode::Async => run_async_actor(envs, &hello, ctrl.as_ref(), batches.as_ref()),
    }
}

/// Lockstep: collect under the current snapshot, ship batch + RNG, block
/// for the reply. Control-stream disconnect is the normal exit (the
/// learner finished and kept the RNG after its final update).
fn run_sync_actor(
    envs: &mut [Box<dyn Env>],
    hello: &LearnerHello,
    ctrl: &dyn Rx<ActorCtrl>,
    batches: &dyn dosco_net::Tx<ExperienceBatch>,
) -> Result<u64, NetError> {
    let state = hello
        .rng
        .ok_or_else(|| NetError::Protocol("sync-mode hello carried no RNG state".into()))?;
    let mut rng = StdRng::from_state(state);
    let mut snap = Arc::new(hello.snapshot.clone());
    let mut collector = RolloutCollector::new(envs);
    let mut sent = 0u64;
    loop {
        let rollout = collector.collect(
            envs,
            &snap.actor,
            &snap.critic,
            hello.params.n_steps,
            hello.params.gamma,
            hello.params.gae_lambda,
            &mut rng,
        );
        let batch = ExperienceBatch {
            rollout,
            version: snap.version,
            rng: Some(rng),
        };
        if batches.send(batch).is_err() {
            return Ok(sent); // learner gone mid-send
        }
        sent += 1;
        match ctrl.recv() {
            Ok(ActorCtrl::Reply {
                snapshot,
                rng: state,
            }) => {
                snap = Arc::new(snapshot);
                rng = StdRng::from_state(state);
            }
            Ok(ActorCtrl::Publish(_)) => {
                return Err(NetError::Protocol(
                    "unexpected Publish on a sync-mode control stream".into(),
                ))
            }
            Err(_) => return Ok(sent), // clean finish: learner kept the RNG
        }
    }
}

/// Overlapped: keep collecting under the freshest snapshot seen, throttled
/// by the version window (the remote stand-in for the in-process SSP
/// gate).
fn run_async_actor(
    envs: &mut [Box<dyn Env>],
    hello: &LearnerHello,
    ctrl: &dyn Rx<ActorCtrl>,
    batches: &dyn dosco_net::Tx<ExperienceBatch>,
) -> Result<u64, NetError> {
    // Identical derivation to an in-process actor thread, so a remote actor
    // at index i draws the same action stream its in-process twin would.
    let mut rng = StdRng::seed_from_u64(
        hello
            .actor_seed
            .wrapping_add(hello.actor_index.wrapping_mul(0x9E37_79B9_7F4A_7C15) + 1),
    );
    let mut snap = Arc::new(hello.snapshot.clone());
    let mut collector = RolloutCollector::new(envs);
    let mut sent = 0u64;
    loop {
        // Drain every published snapshot without blocking, keeping the
        // freshest; then block only while outside the version window.
        loop {
            match ctrl.try_recv() {
                Ok(ActorCtrl::Publish(s)) => {
                    if s.version > snap.version {
                        snap = Arc::new(s);
                    }
                }
                Ok(ActorCtrl::Reply { .. }) => {
                    return Err(NetError::Protocol(
                        "unexpected Reply on an async-mode control stream".into(),
                    ))
                }
                Err(TryRecvError::Empty) => break,
                Err(TryRecvError::Disconnected) => return Ok(sent),
            }
        }
        while sent.saturating_sub(snap.version) > hello.skew {
            match ctrl.recv() {
                Ok(ActorCtrl::Publish(s)) => {
                    if s.version > snap.version {
                        snap = Arc::new(s);
                    }
                }
                Ok(ActorCtrl::Reply { .. }) => {
                    return Err(NetError::Protocol(
                        "unexpected Reply on an async-mode control stream".into(),
                    ))
                }
                Err(_) => return Ok(sent),
            }
        }
        let rollout = collector.collect(
            envs,
            &snap.actor,
            &snap.critic,
            hello.params.n_steps,
            hello.params.gamma,
            hello.params.gae_lambda,
            &mut rng,
        );
        let batch = ExperienceBatch {
            rollout,
            version: snap.version,
            rng: None,
        };
        if batches.send(batch).is_err() {
            return Ok(sent);
        }
        sent += 1;
    }
}

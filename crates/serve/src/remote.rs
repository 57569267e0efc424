//! Multi-process serving: a frontend that drives the epoch loop over
//! real TCP connections to shard *processes*.
//!
//! The deployment mirrors the in-process fabric exactly — same
//! [`serve_core`] epoch loop, same [`run_shard`] worker body — with the
//! launcher swapped: instead of spawning a scoped thread per shard, the
//! [`FrontendServer`] hands each accepted connection a [`ShardInit`]
//! frame and speaks [`ShardMsg`] / `Vec<DecisionResponse>` over the
//! framed, checksummed `dosco_net` socket channels. Hot-swap, targeted
//! control publishes, and status boards all work unchanged (a
//! [`ShardMsg::Swap`] simply crosses the wire); the decisions served are
//! bit-identical to the in-process fabric (pinned by test).
//!
//! One deliberate restriction: fault injection is rejected. Killing a
//! shard *process* cannot be respawned from inside the frontend (process
//! lifecycle belongs to the operator), so a non-empty
//! [`FaultScript`](crate::FaultScript) returns an error instead of
//! silently degrading.

use crate::fabric::{serve_core, ServeConfig, ServeOutcome, ShardHandle, ShardLauncher};
use crate::shard::{run_shard, DecisionResponse, ShardMsg, ShardWorker};
use crossbeam::channel::{self, Sender};
use dosco_core::CoordinationPolicy;
use dosco_net::{
    connect_with_retry, read_frame, receiver_on, rx_from_channel, sender_on, write_frame,
    NetConfig, NetError,
};
use dosco_runtime::PolicySlot;
use dosco_simnet::{ScenarioConfig, Simulation};
use serde::{Deserialize, Serialize};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::thread::JoinHandle;

fn io_protocol(what: &str, e: &dyn std::fmt::Display) -> NetError {
    NetError::Protocol(format!("{what}: {e}"))
}

/// The first frame a shard process reads after connecting: everything a
/// worker needs to run [`run_shard`] — its partition, the RNG derivation
/// inputs, and the starting policy.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ShardInit {
    /// The shard index this connection serves.
    pub index: u64,
    /// Total shards in the fabric (the partition modulus).
    pub num_shards: u64,
    /// Nodes in the topology (sizes the per-node RNG stream table).
    pub num_nodes: u64,
    /// `Some(seed)` for stochastic serving, `None` for greedy.
    pub stochastic_seed: Option<u64>,
    /// The policy to serve until the first [`ShardMsg::Swap`].
    pub policy: CoordinationPolicy,
    /// The snapshot version `policy` came from.
    pub version: u64,
}

/// Launches shards onto accepted connections: one [`ShardInit`] frame,
/// then duplex socket channels. Responses from every connection fan into
/// one bounded channel the epoch loop consumes.
struct RemoteLauncher {
    conns: Vec<Option<TcpStream>>,
    capacity: usize,
    num_shards: usize,
    num_nodes: usize,
    stochastic_seed: Option<u64>,
    fan_tx: Sender<Vec<DecisionResponse>>,
    forwarders: Vec<JoinHandle<()>>,
}

impl ShardLauncher<'static> for RemoteLauncher {
    fn launch(
        &mut self,
        index: usize,
        policy: Arc<CoordinationPolicy>,
        version: u64,
    ) -> ShardHandle<'static> {
        // With fault scripts rejected up front, the epoch loop launches
        // each shard at most once; a handle that cannot be brought up
        // (connection already consumed, clone or handshake failure) is
        // returned dead — the epoch loop serves its nodes via the
        // shortest-path fallback instead of panicking the frontend.
        let Some(stream) = self.conns[index].take() else {
            return ShardHandle::dead();
        };
        let Ok(read_half) = stream.try_clone() else {
            return ShardHandle::dead();
        };
        let Ok(mut init_half) = stream.try_clone() else {
            return ShardHandle::dead();
        };
        let init = ShardInit {
            index: index as u64,
            num_shards: self.num_shards as u64,
            num_nodes: self.num_nodes as u64,
            stochastic_seed: self.stochastic_seed,
            policy: (*policy).clone(),
            version,
        };
        if write_frame(&mut init_half, &dosco_net::encode_msg(&init)).is_err() {
            return ShardHandle::dead();
        }
        let tx = sender_on::<ShardMsg>(stream, self.capacity);
        let rx = receiver_on::<Vec<DecisionResponse>>(read_half, self.capacity);
        let fan = self.fan_tx.clone();
        let Ok(forwarder) = std::thread::Builder::new()
            .name("dosco-serve-fanin".into())
            .spawn(move || {
                while let Ok(v) = rx.recv() {
                    if fan.send(v).is_err() {
                        break;
                    }
                }
            })
        else {
            return ShardHandle::dead();
        };
        self.forwarders.push(forwarder);
        ShardHandle {
            tx: Some(tx),
            join: None,
            dead: false,
        }
    }
}

/// The frontend end of a multi-process serving deployment, bound but not
/// yet accepting. Splitting bind from [`FrontendServer::serve`] lets a
/// caller bind `127.0.0.1:0` and hand the resolved
/// [`FrontendServer::local_addr`] to the shard processes.
#[derive(Debug)]
pub struct FrontendServer {
    listener: TcpListener,
}

impl FrontendServer {
    /// Binds the frontend's listening socket.
    ///
    /// # Errors
    ///
    /// [`NetError::Protocol`] naming the bind failure.
    pub fn bind(addr: &str) -> Result<Self, NetError> {
        let listener =
            TcpListener::bind(addr).map_err(|e| io_protocol("bind frontend listener", &e))?;
        Ok(FrontendServer { listener })
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

    /// Accepts one connection per shard (`cfg.num_shards`, clamped to the
    /// node count), hands each its [`ShardInit`], and serves
    /// `episode_seeds.len()` concurrent episodes exactly as
    /// [`crate::serve_with`] would — same epoch loop, same accounting,
    /// same hot-swap semantics over the attached `hub`.
    ///
    /// # Errors
    ///
    /// [`NetError`] if accepting a shard connection fails, or if
    /// `cfg.faults` is non-empty (fault injection kills worker threads;
    /// a shard *process* cannot be respawned from here).
    ///
    /// # Panics
    ///
    /// As [`crate::serve_with`] (invalid configuration, no episodes).
    /// A shard connection dying mid-run does *not* panic: the frontend
    /// marks the shard dead and serves its nodes via the shortest-path
    /// fallback for the rest of the run (counted in
    /// [`ServeReport::shard_disconnects`](crate::ServeReport)).
    pub fn serve(
        &self,
        policy: &CoordinationPolicy,
        hub: Option<&PolicySlot>,
        scenario: &ScenarioConfig,
        episode_seeds: &[u64],
        cfg: &ServeConfig,
    ) -> Result<ServeOutcome, NetError> {
        cfg.validate().expect("serve configuration must be valid");
        assert!(!episode_seeds.is_empty(), "need at least one episode");
        if !cfg.faults.windows().is_empty() {
            return Err(NetError::Protocol(
                "fault injection requires locally-launched shards \
                 (a shard process cannot be respawned by the frontend)"
                    .into(),
            ));
        }
        let num_nodes = scenario.topology.num_nodes();
        let num_shards = cfg.num_shards.min(num_nodes);

        let mut sims: Vec<Simulation> = episode_seeds
            .iter()
            .map(|&s| cfg.build_sim(scenario, s))
            .collect();

        let mut conns = Vec::with_capacity(num_shards);
        for _ in 0..num_shards {
            let (stream, _) = self
                .listener
                .accept()
                .map_err(|e| io_protocol("accept shard connection", &e))?;
            let _ = stream.set_nodelay(true);
            conns.push(Some(stream));
        }

        let (fan_tx, fan_rx) = channel::bounded::<Vec<DecisionResponse>>(num_shards + 1);
        let fan_rx = rx_from_channel(fan_rx);
        let mut launcher = RemoteLauncher {
            conns,
            capacity: cfg.mailbox_capacity,
            num_shards,
            num_nodes,
            stochastic_seed: cfg.stochastic_seed,
            fan_tx,
            forwarders: Vec::new(),
        };

        let (metrics, report) = serve_core(
            policy,
            hub,
            &mut sims,
            num_shards,
            cfg,
            &mut launcher,
            fan_rx.as_ref(),
            &mut |_| {},
        );

        // Shutdown already reached every shard (serve_core sent it and
        // dropped the mailboxes); the connections close behind them, the
        // receivers see EOF, and the forwarders drain out.
        for f in launcher.forwarders {
            if f.join().is_err() {
                return Err(NetError::Protocol("response forwarder panicked".into()));
            }
        }
        Ok(ServeOutcome { metrics, report })
    }
}

/// The shard-process entrypoint: dial the frontend (with the configured
/// retry/backoff), read the [`ShardInit`], and run the exact worker body
/// the in-process fabric runs — batching every flush into one forward,
/// answering over the socket, swapping policies at epoch boundaries.
///
/// Returns when the frontend sends [`ShardMsg::Shutdown`] or closes the
/// connection.
///
/// # Errors
///
/// [`NetError`] if the connection or the [`ShardInit`] handshake fails.
pub fn run_remote_shard(addr: &str, net: &NetConfig) -> Result<(), NetError> {
    let mut stream = connect_with_retry(addr, net.retries, net.timeout)?;
    let _ = stream.set_nodelay(true);
    let payload = read_frame(&mut stream).map_err(|e| io_protocol("read ShardInit", &e))?;
    let init: ShardInit =
        dosco_net::decode_msg(&payload).map_err(|e| io_protocol("decode ShardInit", &e))?;
    let read_half = stream
        .try_clone()
        .map_err(|e| io_protocol("clone frontend stream", &e))?;
    let mailbox = receiver_on::<ShardMsg>(read_half, net.capacity);
    let responses = sender_on::<Vec<DecisionResponse>>(stream, net.capacity);
    let dim = |what: &str, v: u64| {
        usize::try_from(v).map_err(|e| io_protocol(what, &format!("{v}: {e}")))
    };
    run_shard(ShardWorker {
        index: dim("ShardInit.index", init.index)?,
        num_shards: dim("ShardInit.num_shards", init.num_shards)?,
        num_nodes: dim("ShardInit.num_nodes", init.num_nodes)?,
        stochastic_seed: init.stochastic_seed,
        policy: Arc::new(init.policy),
        version: init.version,
        mailbox,
        responses,
    });
    Ok(())
}

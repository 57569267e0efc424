//! Multi-process serving: a frontend that drives the epoch loop over
//! real TCP connections to shard *processes*.
//!
//! The deployment mirrors the in-process fabric exactly — same epoch
//! loop, same worker body — with the launcher swapped: instead of
//! spawning a scoped thread per shard, [`serve_remote`] opens the
//! `dosco_net` session on each accepted connection with a [`ShardInit`]
//! hello and speaks [`ShardMsg`](crate::ShardMsg) /
//! `Vec<DecisionResponse>` over its framed, checksummed socket channels.
//! Hot-swap, targeted control publishes, and status boards all work
//! unchanged (a [`ShardMsg::Swap`](crate::ShardMsg::Swap) simply crosses
//! the wire); the decisions served are bit-identical to the in-process
//! fabric (pinned by test).
//!
//! One deliberate restriction: fault injection is rejected. Killing a
//! shard *process* cannot be respawned from inside the frontend (process
//! lifecycle belongs to the operator), so a non-empty
//! [`FaultScript`](crate::FaultScript) returns an error instead of
//! silently degrading.

use crate::fabric::{
    serve_core, ServeConfig, ServeOutcome, ShardHandle, ShardLauncher, MAILBOX_CAPACITY,
};
use crate::shard::{run_shard, ShardWorker};
use dosco_core::CoordinationPolicy;
use dosco_net::{dial_session, open_session, NetConfig, NetError};
use dosco_runtime::PolicySlot;
use dosco_simnet::ScenarioConfig;
use serde::{Deserialize, Serialize};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;

/// The first frame a shard process reads after connecting: everything a
/// worker needs to run `run_shard` — its partition, the RNG derivation
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
    /// The policy to serve until the first
    /// [`ShardMsg::Swap`](crate::ShardMsg::Swap).
    pub policy: CoordinationPolicy,
    /// The snapshot version `policy` came from.
    pub version: u64,
}

/// Launches shards onto accepted connections: one [`ShardInit`] frame,
/// then the connection's two directions as the shard's mailbox and its
/// response channel.
struct RemoteLauncher {
    conns: Vec<Option<TcpStream>>,
    num_shards: usize,
    num_nodes: usize,
    stochastic_seed: Option<u64>,
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
        let init = ShardInit {
            index: index as u64,
            num_shards: self.num_shards as u64,
            num_nodes: self.num_nodes as u64,
            stochastic_seed: self.stochastic_seed,
            policy: (*policy).clone(),
            version,
        };
        let stream = self.conns[index].take();
        match stream.map(|stream| open_session(stream, &init, MAILBOX_CAPACITY)) {
            Some(Ok((tx, rx))) => ShardHandle::new(tx, rx, None),
            _ => ShardHandle::dead(),
        }
    }
}

/// Accepts one connection per shard (`cfg.num_shards`, clamped to the
/// node count) on `listener`, hands each its [`ShardInit`], and serves
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
/// A shard connection dying mid-run, or a shard answering what it
/// was not asked, does *not* panic: the frontend writes the shard off
/// at once and serves its nodes via the shortest-path fallback for
/// the rest of the run (counted in
/// [`ServeReport::shard_disconnects`](crate::ServeReport)).
pub fn serve_remote(
    listener: &TcpListener,
    policy: &CoordinationPolicy,
    hub: Option<&PolicySlot>,
    scenario: &ScenarioConfig,
    episode_seeds: &[u64],
    cfg: &ServeConfig,
) -> Result<ServeOutcome, NetError> {
    if !cfg.faults.is_empty() {
        return Err(NetError::Protocol(
            "fault injection requires locally-launched shards \
             (a shard process cannot be respawned by the frontend)"
                .into(),
        ));
    }
    let mut sims = cfg.episodes(scenario, episode_seeds);
    let num_nodes = scenario.topology.num_nodes();
    let num_shards = cfg.shards_over(num_nodes);
    let mut conns = Vec::with_capacity(num_shards);
    for _ in 0..num_shards {
        let (stream, _) = listener
            .accept()
            .map_err(|e| NetError::Protocol(format!("accept shard connection: {e}")))?;
        conns.push(Some(stream));
    }
    let mut launcher = RemoteLauncher {
        conns,
        num_shards,
        num_nodes,
        stochastic_seed: cfg.stochastic_seed,
    };
    let (metrics, report) = serve_core(policy, hub, &mut sims, cfg, &mut launcher, &mut |_| {});
    Ok(ServeOutcome { metrics, report })
}

/// The shard-process entrypoint: dial the frontend (with the configured
/// retry/backoff), read the [`ShardInit`], and run the exact worker body
/// the in-process fabric runs — forwarding requests in batches as they
/// arrive, answering each flush with one batch over the socket, swapping
/// policies at epoch boundaries.
///
/// Returns when the frontend sends [`ShardMsg::Shutdown`](crate::ShardMsg::Shutdown), closes the
/// connection, or breaks the protocol mid-run (a request for a node this
/// shard does not own, an observation of the wrong width, a request id
/// that does not ascend, or a policy whose logits are not finite).
///
/// # Errors
///
/// [`NetError`] if the connection or the [`ShardInit`] handshake fails,
/// or if the [`ShardInit`] describes no partition: zero shards, zero
/// nodes, or an index outside `0..num_shards`.
pub fn run_remote_shard(addr: &str, net: &NetConfig) -> Result<(), NetError> {
    let (init, responses, mailbox): (ShardInit, _, _) = dial_session(addr, net, MAILBOX_CAPACITY)?;
    let dim = |what: &str, v: u64| {
        usize::try_from(v).map_err(|e| NetError::Protocol(format!("{what}: {v}: {e}")))
    };
    let index = dim("ShardInit.index", init.index)?;
    let num_shards = dim("ShardInit.num_shards", init.num_shards)?;
    let num_nodes = dim("ShardInit.num_nodes", init.num_nodes)?;
    if num_shards == 0 || num_nodes == 0 || index >= num_shards {
        return Err(NetError::Protocol(format!(
            "ShardInit: shard {index} of {num_shards} over {num_nodes} nodes is no partition"
        )));
    }
    run_shard(ShardWorker {
        index,
        num_shards,
        num_nodes,
        stochastic_seed: init.stochastic_seed,
        policy: Arc::new(init.policy),
        version: init.version,
        mailbox,
        responses,
    });
    Ok(())
}

//! The serving frontend: episode driving, routing, epoch barriers,
//! hot-swap broadcast, fault handling, and decision accounting.
//!
//! The frontend owns E concurrent episodes (the serving load — each
//! episode is an independent stream of flow decisions) and runs an
//! epoch loop:
//!
//! 1. **Boundary work**: poll the attached [`PolicySlot`] version and,
//!    if it moved, broadcast [`ShardMsg::Swap`] so every shard switches
//!    at this epoch; apply fault-script transitions (kill / respawn /
//!    re-sync).
//! 2. **Collect**: advance every live episode to its next decision
//!    point, observe locally, and route the request to the shard owning
//!    the node — or answer immediately with the shortest-path fallback
//!    if that shard is down.
//! 3. **Flush**: send the epoch barrier; each shard answers its queued
//!    requests from one batched forward.
//! 4. **Apply**: apply every answer in episode order and account for
//!    every decision (batched + fallback == total, always).
//!
//! Determinism: each episode's simulation consumes exactly the decision
//! sequence a per-decision run would produce, batch order is fixed by
//! request id, and per-node RNG streams live with the owning shard —
//! so shard count cannot change any decision.

use crate::control::{ControlQueue, PublishScope};
use crate::fault::{FaultKind, FaultScript};
use crate::shard::{
    run_shard, shard_of, DecisionRequest, DecisionResponse, ShardMsg, ShardWorker,
};
use crate::status::{FabricStatus, StatusBoard};
use crossbeam::channel::TryRecvError;
use dosco_core::policy::PolicyMetadata;
use dosco_core::CoordinationPolicy;
use dosco_net::{BoxTx, InProcess, Rx, Transport};
use dosco_obs::registry;
use dosco_obs::{CounterKind, SpanKind};
use dosco_runtime::{PolicySlot, PolicySnapshot};
use dosco_simnet::{Action, ChurnTimeline, Metrics, ScenarioConfig, Simulation};
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::{Scope, ScopedJoinHandle};
use std::time::{Duration, Instant};

/// Default [`ServeConfig::gather_stall`]: how long a flush barrier may
/// go unanswered before every shard still owing a batch is declared
/// dead and its decisions fall back. Batches are at most one row per
/// episode, so a healthy shard answers in microseconds; ten seconds of
/// silence means the peer is gone.
pub const GATHER_STALL: Duration = Duration::from_secs(10);

/// Configuration of the serving fabric.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker shards the nodes are partitioned across (clamped to the
    /// node count).
    pub num_shards: usize,
    /// Bounded mailbox capacity per shard. Shards drain continuously,
    /// so a small capacity only adds backpressure, never deadlock.
    pub mailbox_capacity: usize,
    /// `Some(seed)` samples actions from per-node RNG streams
    /// (`per_node_seed(seed, node)`); `None` serves greedy argmax.
    pub stochastic_seed: Option<u64>,
    /// Epoch-scripted fault injection.
    pub faults: FaultScript,
    /// Control-plane directive queue, drained at every epoch boundary
    /// (subset-targeted publishes for canary/rollback). `None` (the
    /// default) costs one `Option` check per epoch.
    pub control: Option<Arc<ControlQueue>>,
    /// Live status board the frontend publishes a [`FabricStatus`] to at
    /// every epoch boundary. `None` (the default) costs one `Option`
    /// check per epoch.
    pub status: Option<Arc<StatusBoard>>,
    /// Cooperative cancellation flag, checked at every epoch boundary:
    /// once set, the fabric shuts down gracefully (shards join, every
    /// applied decision stays accounted) and returns the partial outcome.
    /// `None` (the default) costs one `Option` check per epoch.
    pub cancel: Option<Arc<AtomicBool>>,
    /// How long a flush barrier may go unanswered before the shards
    /// still owing a batch are declared dead and their routed decisions
    /// fall back to shortest-path. Batches are at most one row per
    /// episode, so a healthy shard answers in microseconds; the default
    /// ([`GATHER_STALL`], 10 s) means the peer is gone.
    pub gather_stall: Duration,
    /// Substrate churn timeline applied to every served episode (each
    /// episode seed runs the same timeline, like the seeded evaluation
    /// protocol). `None` — and the empty timeline — serve a static
    /// substrate, bit-identical to the pre-churn fabric.
    pub churn: Option<ChurnTimeline>,
}

/// Attachments compare by identity: two configs are equal when they
/// point at the *same* queue/board (or both at none).
impl PartialEq for ServeConfig {
    fn eq(&self, other: &Self) -> bool {
        fn same<T>(a: &Option<Arc<T>>, b: &Option<Arc<T>>) -> bool {
            match (a, b) {
                (None, None) => true,
                (Some(x), Some(y)) => Arc::ptr_eq(x, y),
                _ => false,
            }
        }
        self.num_shards == other.num_shards
            && self.mailbox_capacity == other.mailbox_capacity
            && self.stochastic_seed == other.stochastic_seed
            && self.faults == other.faults
            && same(&self.control, &other.control)
            && same(&self.status, &other.status)
            && same(&self.cancel, &other.cancel)
            && self.gather_stall == other.gather_stall
            && self.churn == other.churn
    }
}

impl Eq for ServeConfig {}

impl ServeConfig {
    /// A greedy, fault-free configuration with `num_shards` shards.
    pub fn new(num_shards: usize) -> Self {
        ServeConfig {
            num_shards,
            mailbox_capacity: 64,
            stochastic_seed: None,
            faults: FaultScript::new(),
            control: None,
            status: None,
            cancel: None,
            gather_stall: GATHER_STALL,
            churn: None,
        }
    }

    /// Attaches a control-plane directive queue.
    #[must_use]
    pub fn with_control(mut self, control: Arc<ControlQueue>) -> Self {
        self.control = Some(control);
        self
    }

    /// Attaches a live status board.
    #[must_use]
    pub fn with_status(mut self, status: Arc<StatusBoard>) -> Self {
        self.status = Some(status);
        self
    }

    /// Attaches a cooperative cancellation flag.
    #[must_use]
    pub fn with_cancel(mut self, cancel: Arc<AtomicBool>) -> Self {
        self.cancel = Some(cancel);
        self
    }

    /// Switches to stochastic serving with per-node streams from `seed`.
    #[must_use]
    pub fn with_stochastic_seed(mut self, seed: u64) -> Self {
        self.stochastic_seed = Some(seed);
        self
    }

    /// Installs a fault script.
    #[must_use]
    pub fn with_faults(mut self, faults: FaultScript) -> Self {
        self.faults = faults;
        self
    }

    /// Applies a substrate churn timeline to every served episode.
    #[must_use]
    pub fn with_churn(mut self, churn: ChurnTimeline) -> Self {
        self.churn = Some(churn);
        self
    }

    /// Builds one episode simulator, applying the configured churn
    /// timeline if any.
    pub(crate) fn build_sim(&self, scenario: &ScenarioConfig, seed: u64) -> Simulation {
        match &self.churn {
            Some(tl) => Simulation::with_churn(scenario.clone(), seed, tl.clone()),
            None => Simulation::new(scenario.clone(), seed),
        }
    }

    /// Checks the configuration is usable.
    ///
    /// # Errors
    ///
    /// Returns a description of the offending field.
    pub fn validate(&self) -> Result<(), String> {
        if self.num_shards == 0 {
            return Err("num_shards must be at least 1".into());
        }
        if self.mailbox_capacity < 2 {
            return Err("mailbox_capacity must be at least 2".into());
        }
        if self.gather_stall.is_zero() {
            return Err("gather_stall must be non-zero".into());
        }
        Ok(())
    }
}

/// The fabric's accounting: the running tally the epoch loop writes from
/// epoch 0, the body of every [`FabricStatus`] the board shows, and what
/// a run returns. The conservation invariant — every decision is either
/// batched through a shard or answered by the fallback, and the
/// per-shard and per-version splits add up — is checked before the
/// report is returned.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ServeReport {
    /// Epoch-loop iterations (including the final empty epoch); during a
    /// run, the index of the current epoch.
    pub epochs: u64,
    /// Total decisions applied to episodes.
    pub decisions: u64,
    /// Decisions answered by shard batches.
    pub batched_decisions: u64,
    /// Decisions answered by the shortest-path fallback while the
    /// owning shard was down.
    pub fallback_decisions: u64,
    /// Policy hot-swaps broadcast (version changes observed on the hub).
    pub swaps: u64,
    /// Control-queue publishes applied at epoch boundaries (targeted or
    /// fabric-wide).
    pub directed_publishes: u64,
    /// Shards shut down by kill windows.
    pub shard_kills: u64,
    /// Shards respawned after kill windows (re-synced to the latest
    /// published version).
    pub shard_respawns: u64,
    /// Shards lost to a dead transport (send failed or a barrier went
    /// unanswered past the stall deadline). Unlike fault-script kills,
    /// a disconnected shard is never respawned — its decisions fall
    /// back to shortest-path for the rest of the run.
    pub shard_disconnects: u64,
    /// Largest batched forward, in rows.
    pub max_batch_rows: u64,
    /// Policy version the fabric ended on; during a run, the fabric-wide
    /// current version (what respawns re-sync to).
    pub final_version: u64,
    /// Policy version last delivered to each shard.
    pub shard_versions: Vec<u64>,
    /// Batched decisions answered by each shard.
    pub shard_batched: Vec<u64>,
    /// Fallback decisions attributed to each (down/delayed) shard.
    pub shard_fallback: Vec<u64>,
    /// Batched decisions per policy version, ascending by version.
    pub decisions_by_version: Vec<(u64, u64)>,
}

impl ServeReport {
    /// Whether every decision is accounted for: batched + fallback ==
    /// total, the per-shard vectors agree in length, and the per-shard
    /// and per-version splits sum to their totals. The fabric asserts
    /// this before returning.
    pub fn conserved(&self) -> bool {
        let shards = self.shard_versions.len();
        self.decisions == self.batched_decisions + self.fallback_decisions
            && self.shard_batched.len() == shards
            && self.shard_fallback.len() == shards
            && self.shard_batched.iter().sum::<u64>() == self.batched_decisions
            && self.shard_fallback.iter().sum::<u64>() == self.fallback_decisions
            && self.decisions_by_version.iter().map(|&(_, n)| n).sum::<u64>()
                == self.batched_decisions
    }

    /// Batched decisions attributed to `version`.
    pub fn decisions_at_version(&self, version: u64) -> u64 {
        self.decisions_by_version
            .iter()
            .find(|&&(v, _)| v == version)
            .map_or(0, |&(_, n)| n)
    }

    /// Counts one decision `shard` answered at `version` from a batch of
    /// `rows`.
    fn count_batched(&mut self, shard: usize, version: u64, rows: usize) {
        self.batched_decisions += 1;
        self.shard_batched[shard] += 1;
        self.max_batch_rows = self.max_batch_rows.max(rows as u64);
        match self.decisions_by_version.binary_search_by_key(&version, |&(v, _)| v) {
            Ok(i) => self.decisions_by_version[i].1 += 1,
            Err(i) => self.decisions_by_version.insert(i, (version, 1)),
        }
    }

    /// Counts one decision of `shard`'s answered by the fallback.
    fn count_fallback(&mut self, shard: usize) {
        self.fallback_decisions += 1;
        self.shard_fallback[shard] += 1;
        registry::count(CounterKind::ServeFallbacks, 1);
    }
}

/// The result of a serving run: per-episode metrics plus the report.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeOutcome {
    /// Final metrics of each episode, in `episode_seeds` order —
    /// directly comparable to per-decision `evaluate` runs.
    pub metrics: Vec<Metrics>,
    /// The fabric's accounting.
    pub report: ServeReport,
}

/// Builds the servable policy from a published snapshot. Runs on the
/// frontend thread so a bad snapshot fails loudly there, never inside a
/// shard holding un-answered requests.
fn policy_from_snapshot(snap: &PolicySnapshot, degree: usize) -> CoordinationPolicy {
    CoordinationPolicy::new(
        snap.actor.clone(),
        degree,
        PolicyMetadata {
            algorithm: format!("hub-snapshot-v{}", snap.version),
            ..PolicyMetadata::default()
        },
    )
}

/// One shard as the frontend sees it.
pub(crate) struct ShardHandle<'scope> {
    /// Mailbox sender; `None` while the shard is killed.
    pub(crate) tx: Option<BoxTx<ShardMsg>>,
    /// Worker thread for locally-launched shards; `None` for shards that
    /// live in another process (their lifecycle is the connection's).
    pub(crate) join: Option<ScopedJoinHandle<'scope, ()>>,
    /// The shard's transport died (send failure, launch failure, or a
    /// stalled barrier). A dead shard is never respawned: the peer is
    /// gone, not scripted to come back like a fault-window kill.
    pub(crate) dead: bool,
}

impl ShardHandle<'_> {
    fn alive(&self) -> bool {
        self.tx.is_some()
    }

    /// A handle for a shard that could not be launched or whose
    /// transport failed: routes fall back immediately, never respawns.
    pub(crate) fn dead() -> Self {
        ShardHandle {
            tx: None,
            join: None,
            dead: true,
        }
    }
}

/// Marks a shard's transport as dead: drops the mailbox (so routing
/// falls back), suppresses respawn, and counts the disconnect.
fn disconnect(h: &mut ShardHandle<'_>, report: &mut ServeReport) {
    h.tx = None;
    h.dead = true;
    report.shard_disconnects += 1;
}

/// How the frontend brings shard `index` up with a starting policy:
/// locally (spawn a worker thread over a transport channel) or remotely
/// (hand an accepted connection its `ShardInit`). The epoch loop is
/// launcher-agnostic — this is what keeps the in-process, loopback-TCP,
/// and multi-process serve paths on the *same* decision arithmetic.
pub(crate) trait ShardLauncher<'scope> {
    fn launch(
        &mut self,
        index: usize,
        policy: Arc<CoordinationPolicy>,
        version: u64,
    ) -> ShardHandle<'scope>;
}

/// Launches shard workers on scoped threads, wired over any transport.
struct LocalLauncher<'a, 'scope, 'env, Tr> {
    scope: &'scope Scope<'scope, 'env>,
    transport: &'a Tr,
    cfg: &'a ServeConfig,
    num_shards: usize,
    num_nodes: usize,
    resp_tx: &'a BoxTx<Vec<DecisionResponse>>,
}

impl<'scope, Tr> ShardLauncher<'scope> for LocalLauncher<'_, 'scope, '_, Tr>
where
    Tr: Transport<ShardMsg> + Transport<Vec<DecisionResponse>>,
{
    fn launch(
        &mut self,
        index: usize,
        policy: Arc<CoordinationPolicy>,
        version: u64,
    ) -> ShardHandle<'scope> {
        let (tx, rx) = Transport::<ShardMsg>::channel(self.transport, self.cfg.mailbox_capacity);
        let responses = self.resp_tx.clone_box();
        let stochastic_seed = self.cfg.stochastic_seed;
        let (num_shards, num_nodes) = (self.num_shards, self.num_nodes);
        let join = self.scope.spawn(move || {
            run_shard(ShardWorker {
                index,
                num_shards,
                num_nodes,
                stochastic_seed,
                policy,
                version,
                mailbox: rx,
                responses,
            });
        });
        ShardHandle {
            tx: Some(tx),
            join: Some(join),
            dead: false,
        }
    }
}

/// Falls back every still-unanswered decision routed to `shard` this
/// epoch: its transport died between route and response, so the stored
/// decision points are answered by shortest-path coordination instead.
fn fall_back_routed(
    shard: usize,
    sims: &[Simulation],
    dps: &mut [Option<dosco_simnet::DecisionPoint>],
    routed_to: &mut [Option<usize>],
    actions: &mut [Option<Action>],
    report: &mut ServeReport,
    expected: &mut usize,
) {
    for e in 0..sims.len() {
        if routed_to[e] == Some(shard) && actions[e].is_none() {
            let dp = dps[e].take().expect("routed episode has a decision point");
            routed_to[e] = None;
            actions[e] = Some(dosco_baselines::sp_action(&sims[e], &dp));
            report.count_fallback(shard);
            *expected -= 1;
        }
    }
}

/// What the status board shows: the running report plus what only the
/// frontend knows live. The one constructor for every publish, at each
/// boundary and at shutdown.
fn status_of(
    report: &ServeReport,
    live_episodes: u64,
    shards: &[ShardHandle<'_>],
    sims: &[Simulation],
) -> FabricStatus {
    let total = |count: fn(&Metrics) -> u64| sims.iter().map(|s| count(s.metrics())).sum();
    FabricStatus {
        report: report.clone(),
        live_episodes,
        alive: shards.iter().map(ShardHandle::alive).collect(),
        flows_arrived: total(|m| m.arrived),
        flows_completed: total(|m| m.completed),
        flows_dropped: total(Metrics::dropped_total),
    }
}

/// Joins a shard thread, re-raising any panic from it.
fn join_shard(h: &mut ShardHandle<'_>) {
    if let Some(j) = h.join.take() {
        if let Err(payload) = j.join() {
            std::panic::resume_unwind(payload);
        }
    }
}

/// Serves `episode_seeds.len()` concurrent episodes of `scenario`
/// through the sharded fabric. See [`serve_with`] for the epoch hook.
///
/// # Panics
///
/// See [`serve_with`].
pub fn serve(
    policy: &CoordinationPolicy,
    hub: Option<&PolicySlot>,
    scenario: &ScenarioConfig,
    episode_seeds: &[u64],
    cfg: &ServeConfig,
) -> ServeOutcome {
    serve_with(policy, hub, scenario, episode_seeds, cfg, |_| {})
}

/// Like [`serve`], with `on_epoch(epoch)` invoked at every epoch
/// boundary *before* the hub poll. The hook is the deterministic
/// injection point: a test (or the example) publishes a snapshot to the
/// hub at an exact epoch and the swap lands at that boundary on every
/// run.
///
/// When `hub` is attached, the fabric deploys the hub's **latest**
/// snapshot and follows subsequent publishes; `policy` then only fixes
/// the observation contract (padded degree). Without a hub, `policy`
/// itself is served at version 0.
///
/// # Panics
///
/// Panics if `episode_seeds` is empty, the configuration is invalid,
/// the scenario is invalid, or a hub snapshot's actor does not match
/// the policy's observation contract (`4·Δ+4` in, `Δ+1` out).
pub fn serve_with(
    policy: &CoordinationPolicy,
    hub: Option<&PolicySlot>,
    scenario: &ScenarioConfig,
    episode_seeds: &[u64],
    cfg: &ServeConfig,
    on_epoch: impl FnMut(u64),
) -> ServeOutcome {
    serve_with_transport(policy, hub, scenario, episode_seeds, cfg, &InProcess, on_epoch)
}

/// Like [`serve_with`], but every mailbox and response channel is opened
/// by `transport`: with [`InProcess`] this *is* [`serve_with`]; with
/// `dosco_net::SocketLoopback` every request, flush barrier, swap, and
/// response crosses a framed, checksummed TCP stream — and the served
/// decisions are bit-identical (pinned by test). The truly multi-process
/// deployment (shards in other OS processes) is [`crate::remote`], built
/// on the same epoch loop.
///
/// # Panics
///
/// As [`serve_with`].
pub fn serve_with_transport<Tr>(
    policy: &CoordinationPolicy,
    hub: Option<&PolicySlot>,
    scenario: &ScenarioConfig,
    episode_seeds: &[u64],
    cfg: &ServeConfig,
    transport: &Tr,
    mut on_epoch: impl FnMut(u64),
) -> ServeOutcome
where
    Tr: Transport<ShardMsg> + Transport<Vec<DecisionResponse>>,
{
    cfg.validate().expect("serve configuration must be valid");
    assert!(!episode_seeds.is_empty(), "need at least one episode");
    let num_nodes = scenario.topology.num_nodes();
    let num_shards = cfg.num_shards.min(num_nodes);

    let mut sims: Vec<Simulation> = episode_seeds
        .iter()
        .map(|&s| cfg.build_sim(scenario, s))
        .collect();

    let (resp_tx, resp_rx) = Transport::<Vec<DecisionResponse>>::channel(transport, num_shards + 1);

    let (metrics, report) = std::thread::scope(|s| {
        let mut launcher = LocalLauncher {
            scope: s,
            transport,
            cfg,
            num_shards,
            num_nodes,
            resp_tx: &resp_tx,
        };
        serve_core(
            policy,
            hub,
            &mut sims,
            num_shards,
            cfg,
            &mut launcher,
            resp_rx.as_ref(),
            &mut on_epoch,
        )
    });
    ServeOutcome { metrics, report }
}

/// The launcher-agnostic epoch loop (see module docs for the four
/// phases). Shared verbatim by every serve entry point — in-process,
/// loopback-TCP, and multi-process — so transport and process topology
/// cannot change decision arithmetic.
///
/// # Panics
///
/// Panics if the returned report is not [`ServeReport::conserved`].
#[allow(clippy::too_many_lines)]
#[allow(clippy::too_many_arguments)]
pub(crate) fn serve_core<'scope>(
    policy: &CoordinationPolicy,
    hub: Option<&PolicySlot>,
    sims: &mut [Simulation],
    num_shards: usize,
    cfg: &ServeConfig,
    launcher: &mut dyn ShardLauncher<'scope>,
    resp_rx: &dyn Rx<Vec<DecisionResponse>>,
    on_epoch: &mut dyn FnMut(u64),
) -> (Vec<Metrics>, ServeReport) {
    let degree = policy.degree();
    let adapter = policy.adapter();
    let episodes = sims.len();

    // The policy being served: the hub's latest snapshot when attached,
    // else the caller's policy at version 0.
    let (mut current, version) = match hub {
        Some(h) => {
            let snap = h.latest();
            (Arc::new(policy_from_snapshot(&snap, degree)), snap.version)
        }
        None => (Arc::new(policy.clone()), 0),
    };

    let mut shards: Vec<ShardHandle> = (0..num_shards)
        .map(|i| launcher.launch(i, Arc::clone(&current), version))
        .collect();

    // The running tally, current at every boundary: `epochs` is the loop
    // counter, `final_version` the fabric-wide current version and
    // `shard_versions` what each shard was last delivered.
    let mut report = ServeReport {
        final_version: version,
        shard_versions: vec![version; num_shards],
        shard_batched: vec![0; num_shards],
        shard_fallback: vec![0; num_shards],
        ..ServeReport::default()
    };
    let mut live = vec![true; episodes];
    let mut actions: Vec<Option<Action>> = vec![None; episodes];
    let mut starts: Vec<Option<Instant>> = vec![None; episodes];
    let mut routed = vec![false; num_shards];
    // Per-epoch record of what was routed where: enough to answer any
    // routed decision with the shortest-path fallback if the owning
    // shard's transport dies between route and response.
    let mut dps: Vec<Option<dosco_simnet::DecisionPoint>> = vec![None; episodes];
    let mut routed_to: Vec<Option<usize>> = vec![None; episodes];
    let mut events_scratch = Vec::new();
    // The policy each shard *should* run. Hub publishes and All-scope
    // directives set every entry; targeted directives set a subset —
    // respawns and lag re-syncs always converge a shard onto its own
    // entry, so a killed canary shard comes back as a canary.
    let mut desired: Vec<(Arc<CoordinationPolicy>, u64)> =
        vec![(Arc::clone(&current), version); num_shards];
    let mut next_id: u64 = 0;

    loop {
        let epoch = report.epochs;
        if cfg
            .cancel
            .as_ref()
            .is_some_and(|c| c.load(Ordering::Relaxed))
        {
            report.epochs += 1;
            break;
        }
        on_epoch(epoch);

        // -- Epoch-boundary work: hot-swap poll, control directives,
        // fault transitions.
        if let Some(h) = hub {
            if h.version() != report.final_version {
                let snap = h.latest();
                current = Arc::new(policy_from_snapshot(&snap, degree));
                report.final_version = snap.version;
                desired.fill((Arc::clone(&current), snap.version));
                report.swaps += 1;
                registry::count(CounterKind::ServeSwaps, 1);
            }
        }
        if let Some(q) = cfg.control.as_ref() {
            if q.is_pending() {
                for cmd in q.drain() {
                    let policy = Arc::new(policy_from_snapshot(&cmd.snapshot, degree));
                    let version = cmd.snapshot.version;
                    match &cmd.scope {
                        PublishScope::All => {
                            // `desired` is the source of truth for swaps
                            // and respawns; `current` itself is only read
                            // when rebuilt from a hub snapshot.
                            report.final_version = version;
                            desired.fill((Arc::clone(&policy), version));
                        }
                        PublishScope::Shards(targets) => {
                            for &t in targets {
                                if t < num_shards {
                                    desired[t] = (Arc::clone(&policy), version);
                                }
                            }
                        }
                    }
                    report.directed_publishes += 1;
                }
            }
        }
        let states: Vec<Option<FaultKind>> =
            (0..num_shards).map(|i| cfg.faults.state(i, epoch)).collect();
        for i in 0..num_shards {
            let h = &mut shards[i];
            if states[i] == Some(FaultKind::Kill) && h.alive() {
                // Window start: take the worker down for real.
                let tx = h.tx.take().expect("alive shard has a mailbox");
                let _ = tx.send(ShardMsg::Shutdown);
                drop(tx);
                join_shard(h);
                report.shard_kills += 1;
            } else if states[i].is_none() {
                let (want, want_version) = &desired[i];
                if !h.alive() {
                    // Window end: respawn, re-synced to the shard's
                    // desired policy (fresh mailbox, fresh state). A
                    // *disconnected* shard is not respawned — the peer
                    // is gone, not scripted to return.
                    if !h.dead {
                        *h = launcher.launch(i, Arc::clone(want), *want_version);
                        report.shard_versions[i] = *want_version;
                        report.shard_respawns += 1;
                    }
                } else if report.shard_versions[i] != *want_version {
                    // Reachable shard lagging its desired policy:
                    // deliver the swap at this boundary (covers the
                    // global broadcast, targeted publishes, rollback
                    // republishes, and post-delay re-sync).
                    let tx = h.tx.as_ref().expect("alive shard has a mailbox");
                    if tx
                        .send(ShardMsg::Swap {
                            policy: Arc::clone(want),
                            version: *want_version,
                        })
                        .is_ok()
                    {
                        report.shard_versions[i] = *want_version;
                    } else {
                        // Dead peer mid-swap: degrade, don't panic.
                        disconnect(h, &mut report);
                    }
                }
            }
        }

        // -- Status publish: one snapshot per boundary, only when a
        // board is attached (detached fabrics skip in one branch).
        if let Some(board) = cfg.status.as_ref() {
            let live_episodes = live.iter().filter(|&&l| l).count() as u64;
            board.publish(status_of(&report, live_episodes, &shards, sims));
        }

        // -- Collect one pending decision per live episode.
        let spans_on = dosco_obs::spans_enabled();
        let mut expected = 0usize;
        let mut fell_back = 0u64;
        routed.fill(false);
        dps.fill(None);
        routed_to.fill(None);
        for e in 0..episodes {
            if !live[e] {
                continue;
            }
            let sim = &mut sims[e];
            // Coordinator events are dropped, as the in-process
            // deployment's no-op `observe` does. Drained into a
            // recycled scratch buffer: no per-epoch allocation.
            sim.drain_events_into(&mut events_scratch);
            let Some(dp) = sim.next_decision() else {
                live[e] = false;
                continue;
            };
            if spans_on {
                starts[e] = Some(Instant::now());
            }
            let owner = shard_of(dp.node.0, num_shards);
            let mut fall_back = states[owner].is_some() || !shards[owner].alive();
            if !fall_back {
                let obs = adapter.observe(sim, &dp);
                let tx = shards[owner].tx.as_ref().expect("alive shard has a mailbox");
                if tx
                    .send(ShardMsg::Request(DecisionRequest {
                        id: next_id,
                        episode: e,
                        node: dp.node,
                        obs,
                    }))
                    .is_ok()
                {
                    next_id += 1;
                    expected += 1;
                    routed[owner] = true;
                    dps[e] = Some(dp);
                    routed_to[e] = Some(owner);
                } else {
                    // Dead peer discovered on route: degrade this (and
                    // every later) decision for the shard, don't panic.
                    disconnect(&mut shards[owner], &mut report);
                    fall_back = true;
                }
            }
            if fall_back {
                // Graceful degradation: the decision is answered now
                // by shortest-path coordination and counted — never
                // silently dropped.
                actions[e] = Some(dosco_baselines::sp_action(sim, &dp));
                report.count_fallback(owner);
                fell_back += 1;
            }
        }
        if expected == 0 && fell_back == 0 {
            // Every episode reached its horizon.
            report.epochs += 1;
            break;
        }

        // -- Flush barriers, then gather one answer batch per routed
        // shard (exactly `expected` responses in total). A shard whose
        // transport dies at the barrier — or that never answers within
        // the stall deadline — is marked dead and its routed decisions
        // fall back to shortest-path; the epoch still completes.
        for i in 0..num_shards {
            if routed[i] {
                let ok = shards[i]
                    .tx
                    .as_ref()
                    .is_some_and(|tx| tx.send(ShardMsg::Flush { epoch }).is_ok());
                if !ok {
                    disconnect(&mut shards[i], &mut report);
                    routed[i] = false;
                    fall_back_routed(
                        i,
                        sims,
                        &mut dps,
                        &mut routed_to,
                        &mut actions,
                        &mut report,
                        &mut expected,
                    );
                }
            }
        }
        let mut received = 0usize;
        let mut waiting = routed.iter().filter(|&&r| r).count();
        let mut last_progress = Instant::now();
        let mut idle = 0u32;
        while waiting > 0 {
            match resp_rx.try_recv() {
                Ok(answers) => {
                    last_progress = Instant::now();
                    idle = 0;
                    // One batch per routed shard per barrier. A batch
                    // from a shard no longer waited on is a straggler
                    // from a barrier that already fell back (the shard
                    // is dead; its decisions were answered) — dropped.
                    if !answers.first().is_some_and(|r| routed[r.shard]) {
                        continue;
                    }
                    routed[answers[0].shard] = false;
                    waiting -= 1;
                    received += answers.len();
                    for resp in answers {
                        actions[resp.episode] = Some(Action::from_index(resp.action_index));
                        report.count_batched(resp.shard, resp.version, resp.batch_rows);
                    }
                }
                Err(e) => {
                    let stalled = matches!(e, TryRecvError::Disconnected)
                        || last_progress.elapsed() >= cfg.gather_stall;
                    if stalled {
                        // Residual window: a shard that dies *after* its
                        // flush was delivered leaves nothing to read, so
                        // the only signal is silence. Declare every
                        // still-unanswered shard dead and degrade.
                        for i in 0..num_shards {
                            if routed[i] {
                                disconnect(&mut shards[i], &mut report);
                                routed[i] = false;
                                fall_back_routed(
                                    i,
                                    sims,
                                    &mut dps,
                                    &mut routed_to,
                                    &mut actions,
                                    &mut report,
                                    &mut expected,
                                );
                            }
                        }
                        waiting = 0;
                    } else if idle < 1024 {
                        // Yield first: on a loaded machine the shard
                        // thread needs this core to compute the batch.
                        idle += 1;
                        std::thread::yield_now();
                    } else {
                        std::thread::sleep(Duration::from_micros(200));
                    }
                }
            }
        }
        debug_assert_eq!(received, expected, "every routed request answered once");

        // -- Apply in episode order.
        for e in 0..episodes {
            if let Some(a) = actions[e].take() {
                sims[e].apply(a);
                report.decisions += 1;
                registry::count(CounterKind::ServeDecisions, 1);
                if let Some(t0) = starts[e].take() {
                    registry::record_span_ns(
                        SpanKind::ServeDecision,
                        u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX),
                    );
                }
            }
        }
        report.epochs += 1;
    }

    // Final status so post-run snapshots show the completed totals (and
    // which shards were up when the run ended).
    if let Some(board) = cfg.status.as_ref() {
        board.publish(status_of(&report, 0, &shards, sims));
    }

    // -- Graceful shutdown: barrier-free mailboxes are empty here.
    for h in &mut shards {
        if let Some(tx) = h.tx.take() {
            let _ = tx.send(ShardMsg::Shutdown);
        }
    }
    for h in &mut shards {
        join_shard(h);
    }

    assert!(report.conserved(), "decision conservation violated: {report:?}");
    let metrics = sims.iter().map(|sim| sim.metrics().clone()).collect();
    (metrics, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dosco_nn::mlp::{Activation, Mlp};
    use rand::SeedableRng;

    fn policy(degree: usize) -> CoordinationPolicy {
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let actor = Mlp::new(&[4 * degree + 4, 16, degree + 1], Activation::Tanh, &mut rng);
        CoordinationPolicy::new(actor, degree, PolicyMetadata::default())
    }

    #[test]
    fn config_validation() {
        assert!(ServeConfig::new(1).validate().is_ok());
        assert!(ServeConfig::new(0).validate().is_err());
        let mut c = ServeConfig::new(2);
        c.mailbox_capacity = 1;
        assert!(c.validate().is_err());
        let mut c = ServeConfig::new(2);
        c.gather_stall = Duration::ZERO;
        assert!(c.validate().is_err());
    }

    /// Each clause of the conservation law, broken one at a time on a
    /// hand-built report that satisfies all of them.
    #[test]
    fn conserved_checks_every_split() {
        let good = ServeReport {
            decisions: 10,
            batched_decisions: 7,
            fallback_decisions: 3,
            shard_versions: vec![1, 2],
            shard_batched: vec![4, 3],
            shard_fallback: vec![0, 3],
            decisions_by_version: vec![(1, 4), (2, 3)],
            ..ServeReport::default()
        };
        assert!(good.conserved());
        assert!(ServeReport::default().conserved());
        let broken: [fn(&mut ServeReport); 7] = [
            |r| r.decisions += 1,
            |r| r.shard_batched[0] += 1,
            |r| r.shard_fallback[1] -= 1,
            |r| r.decisions_by_version[1].1 += 1,
            |r| r.shard_batched.push(0),
            |r| r.shard_fallback.push(0),
            |r| r.shard_versions.push(0),
        ];
        for (i, breaks) in broken.iter().enumerate() {
            let mut r = good.clone();
            breaks(&mut r);
            assert!(!r.conserved(), "clause {i}: {r:?}");
        }
    }

    /// Drives `serve_core` directly with a custom launcher (the trait is
    /// crate-private), mirroring `serve_with_transport`'s wiring.
    fn run_core(
        launcher: &mut dyn ShardLauncher<'static>,
        cfg: &ServeConfig,
        num_shards: usize,
    ) -> (Vec<Metrics>, ServeReport) {
        let scenario = ScenarioConfig::paper_base(2).with_horizon(200.0);
        let p = policy(scenario.topology.network_degree());
        let mut sims: Vec<Simulation> = [1u64, 2]
            .iter()
            .map(|&s| Simulation::new(scenario.clone(), s))
            .collect();
        let (_resp_tx, resp_rx) =
            Transport::<Vec<DecisionResponse>>::channel(&InProcess, num_shards + 1);
        serve_core(
            &p,
            None,
            &mut sims,
            num_shards,
            cfg,
            launcher,
            resp_rx.as_ref(),
            &mut |_| {},
        )
    }

    /// Shards that cannot even be launched (e.g. a remote connection
    /// that failed its handshake) must degrade to the shortest-path
    /// fallback, not panic the frontend.
    #[test]
    fn dead_on_arrival_shards_degrade_to_fallback() {
        struct DeadLauncher;
        impl ShardLauncher<'static> for DeadLauncher {
            fn launch(
                &mut self,
                _index: usize,
                _policy: Arc<CoordinationPolicy>,
                _version: u64,
            ) -> ShardHandle<'static> {
                ShardHandle::dead()
            }
        }
        let (metrics, report) = run_core(&mut DeadLauncher, &ServeConfig::new(2), 2);
        assert!(report.decisions > 0);
        assert!(report.conserved());
        assert_eq!(report.batched_decisions, 0);
        assert_eq!(report.fallback_decisions, report.decisions);
        // Dead handles are never respawned.
        assert_eq!(report.shard_respawns, 0);
        assert_eq!(metrics.len(), 2);
    }

    /// A transport that dies before the first routed request: the send
    /// fails, the shard is marked disconnected, and every one of its
    /// decisions is answered by the fallback.
    #[test]
    fn dead_transport_on_route_falls_back_without_panicking() {
        struct DroppedRxLauncher;
        impl ShardLauncher<'static> for DroppedRxLauncher {
            fn launch(
                &mut self,
                _index: usize,
                _policy: Arc<CoordinationPolicy>,
                _version: u64,
            ) -> ShardHandle<'static> {
                let (tx, rx) = Transport::<ShardMsg>::channel(&InProcess, 4);
                drop(rx);
                ShardHandle {
                    tx: Some(tx),
                    join: None,
                    dead: false,
                }
            }
        }
        let (_, report) = run_core(&mut DroppedRxLauncher, &ServeConfig::new(2), 2);
        assert!(report.conserved());
        assert_eq!(report.batched_decisions, 0);
        assert_eq!(report.fallback_decisions, report.decisions);
        assert!(report.shard_disconnects >= 1);
        assert_eq!(report.shard_respawns, 0);
    }

    /// A shard that swallows its requests and barrier without ever
    /// answering: the gather loop stalls out, declares it dead, and the
    /// routed decisions fall back from their stored decision points.
    #[test]
    fn unanswered_barrier_stalls_out_and_falls_back() {
        struct SilentLauncher;
        impl ShardLauncher<'static> for SilentLauncher {
            fn launch(
                &mut self,
                _index: usize,
                _policy: Arc<CoordinationPolicy>,
                _version: u64,
            ) -> ShardHandle<'static> {
                let (tx, rx) = Transport::<ShardMsg>::channel(&InProcess, 64);
                // Consume everything, answer nothing: the frontend's
                // only signal is silence at the barrier.
                std::thread::spawn(move || while rx.recv().is_ok() {});
                ShardHandle {
                    tx: Some(tx),
                    join: None,
                    dead: false,
                }
            }
        }
        let mut cfg = ServeConfig::new(1);
        cfg.gather_stall = Duration::from_millis(200);
        let (_, report) = run_core(&mut SilentLauncher, &cfg, 1);
        assert!(report.conserved());
        assert_eq!(report.batched_decisions, 0);
        assert_eq!(report.fallback_decisions, report.decisions);
        assert_eq!(report.shard_disconnects, 1);
        assert_eq!(report.shard_respawns, 0);
    }

    #[test]
    fn smoke_run_accounts_for_every_decision() {
        let scenario = ScenarioConfig::paper_base(2).with_horizon(200.0);
        let p = policy(scenario.topology.network_degree());
        let out = serve(&p, None, &scenario, &[1, 2], &ServeConfig::new(2));
        assert!(out.report.decisions > 0);
        assert!(out.report.conserved());
        assert_eq!(out.report.fallback_decisions, 0);
        assert_eq!(out.metrics.len(), 2);
        assert_eq!(out.report.final_version, 0);
        // All batched decisions served at version 0.
        assert_eq!(
            out.report.decisions_by_version,
            vec![(0, out.report.batched_decisions)]
        );
    }

    #[test]
    #[should_panic(expected = "at least one episode")]
    fn rejects_empty_episode_list() {
        let scenario = ScenarioConfig::paper_base(1);
        let p = policy(scenario.topology.network_degree());
        serve(&p, None, &scenario, &[], &ServeConfig::new(1));
    }

    /// More shards than nodes is clamped, not an error.
    #[test]
    fn clamps_shards_to_node_count() {
        let scenario = ScenarioConfig::paper_base(1).with_horizon(100.0);
        let p = policy(scenario.topology.network_degree());
        let out = serve(&p, None, &scenario, &[3], &ServeConfig::new(1000));
        assert!(out.report.conserved());
    }
}

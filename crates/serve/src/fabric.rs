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
//!    requests from one batched forward on its own response channel.
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
use dosco_core::{CoordinationPolicy, ObservationAdapter};
use dosco_net::{BoxRx, BoxTx, InProcess, Transport};
use dosco_obs::registry;
use dosco_obs::{CounterKind, SpanKind};
use dosco_runtime::{PolicySlot, PolicySnapshot};
use dosco_simnet::{
    Action, ChurnTimeline, DecisionPoint, Metrics, ScenarioConfig, SimEvent, Simulation,
};
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

    /// Validates the configuration and builds one episode simulator per
    /// seed, each under the configured churn timeline if any.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid or `episode_seeds` is empty.
    pub(crate) fn episodes(
        &self,
        scenario: &ScenarioConfig,
        episode_seeds: &[u64],
    ) -> Vec<Simulation> {
        self.validate().expect("serve configuration must be valid");
        assert!(!episode_seeds.is_empty(), "need at least one episode");
        episode_seeds
            .iter()
            .map(|&seed| match &self.churn {
                Some(tl) => Simulation::with_churn(scenario.clone(), seed, tl.clone()),
                None => Simulation::new(scenario.clone(), seed),
            })
            .collect()
    }

    /// The shards a topology of `num_nodes` nodes is served by:
    /// [`ServeConfig::num_shards`], clamped to the node count.
    pub(crate) fn shards_over(&self, num_nodes: usize) -> usize {
        self.num_shards.min(num_nodes)
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
    /// The shard's mailbox sender and its own response receiver; `None`
    /// while the shard is down.
    link: Option<(BoxTx<ShardMsg>, BoxRx<Vec<DecisionResponse>>)>,
    /// Worker thread for locally-launched shards; `None` for shards that
    /// live in another process (their lifecycle is the connection's).
    join: Option<ScopedJoinHandle<'scope, ()>>,
    /// The shard was written off (launch failure, a closed channel, a
    /// batch that broke the protocol, or a stalled barrier). A dead shard
    /// is never respawned: the peer is gone, not scripted to come back
    /// like a fault-window kill.
    dead: bool,
}

impl<'scope> ShardHandle<'scope> {
    /// A live shard reached through `tx`, answering on `rx`.
    pub(crate) fn new(
        tx: BoxTx<ShardMsg>,
        rx: BoxRx<Vec<DecisionResponse>>,
        join: Option<ScopedJoinHandle<'scope, ()>>,
    ) -> Self {
        ShardHandle {
            link: Some((tx, rx)),
            join,
            dead: false,
        }
    }

    /// A handle for a shard that could not be launched: routes fall back
    /// immediately, never respawns.
    pub(crate) fn dead() -> Self {
        ShardHandle {
            link: None,
            join: None,
            dead: true,
        }
    }

    fn alive(&self) -> bool {
        self.link.is_some()
    }

    /// Sends `msg` to a live shard; `false` if the shard is down or its
    /// mailbox is gone.
    fn send(&self, msg: ShardMsg) -> bool {
        self.link.as_ref().is_some_and(|(tx, _)| tx.send(msg).is_ok())
    }

    /// The shard's answer batch if one has arrived; `Disconnected` once
    /// its channel closed or the shard is down.
    fn poll(&self) -> Result<Vec<DecisionResponse>, TryRecvError> {
        self.link
            .as_ref()
            .map_or(Err(TryRecvError::Disconnected), |(_, rx)| rx.try_recv())
    }

    /// Sends a live shard `Shutdown` and drops its channel ends, the
    /// mailbox first: a socket sender's drop puts `Shutdown` on the wire.
    fn stop(&mut self) {
        if let Some((tx, rx)) = self.link.take() {
            let _ = tx.send(ShardMsg::Shutdown);
            drop(tx);
            drop(rx);
        }
    }

    /// Joins a local shard's thread, re-raising any panic from it.
    fn join(&mut self) {
        if let Some(j) = self.join.take() {
            if let Err(payload) = j.join() {
                std::panic::resume_unwind(payload);
            }
        }
    }
}

/// How the frontend brings shard `index` up with a starting policy:
/// locally (spawn a worker thread over in-process channels) or remotely
/// (hand an accepted connection its `ShardInit`). The epoch loop is
/// launcher-agnostic — this is what keeps the in-process and
/// multi-process serve paths on the *same* decision arithmetic.
pub(crate) trait ShardLauncher<'scope> {
    fn launch(
        &mut self,
        index: usize,
        policy: Arc<CoordinationPolicy>,
        version: u64,
    ) -> ShardHandle<'scope>;
}

/// Launches shard workers on scoped threads, each with an in-process
/// mailbox and response channel of its own.
struct LocalLauncher<'a, 'scope, 'env> {
    scope: &'scope Scope<'scope, 'env>,
    cfg: &'a ServeConfig,
    num_shards: usize,
    num_nodes: usize,
}

impl<'scope> ShardLauncher<'scope> for LocalLauncher<'_, 'scope, '_> {
    fn launch(
        &mut self,
        index: usize,
        policy: Arc<CoordinationPolicy>,
        version: u64,
    ) -> ShardHandle<'scope> {
        let (tx, mailbox) = Transport::<ShardMsg>::channel(&InProcess, self.cfg.mailbox_capacity);
        // One batch per barrier, and the frontend takes it before the next.
        let (responses, rx) = Transport::<Vec<DecisionResponse>>::channel(&InProcess, 1);
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
                mailbox,
                responses,
            });
        });
        ShardHandle::new(tx, rx, Some(join))
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
/// The shards run on scoped threads of this process. The multi-process
/// deployment, whose shards dial in over TCP, is
/// [`FrontendServer`](crate::FrontendServer), built on the same epoch
/// loop.
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
    mut on_epoch: impl FnMut(u64),
) -> ServeOutcome {
    let mut sims = cfg.episodes(scenario, episode_seeds);
    let num_nodes = scenario.topology.num_nodes();
    let (metrics, report) = std::thread::scope(|s| {
        let mut launcher = LocalLauncher {
            scope: s,
            cfg,
            num_shards: cfg.shards_over(num_nodes),
            num_nodes,
        };
        serve_core(policy, hub, &mut sims, cfg, &mut launcher, &mut on_epoch)
    });
    ServeOutcome { metrics, report }
}

/// The launcher-agnostic epoch loop: the four phases of the module
/// docs, one `Frontend` method each. Shared verbatim by the
/// in-process and the multi-process entry points, so process topology
/// cannot change decision arithmetic.
///
/// # Panics
///
/// Panics if the returned report is not [`ServeReport::conserved`].
pub(crate) fn serve_core<'scope>(
    policy: &CoordinationPolicy,
    hub: Option<&PolicySlot>,
    sims: &mut [Simulation],
    cfg: &ServeConfig,
    launcher: &mut dyn ShardLauncher<'scope>,
    on_epoch: &mut dyn FnMut(u64),
) -> (Vec<Metrics>, ServeReport) {
    let mut f = Frontend::launch(policy, hub, sims, cfg, launcher);
    loop {
        let epoch = f.report.epochs;
        if cfg
            .cancel
            .as_ref()
            .is_some_and(|c| c.load(Ordering::Relaxed))
        {
            f.report.epochs += 1;
            break;
        }
        on_epoch(epoch);
        f.boundary(epoch);
        let decided = f.collect();
        if decided {
            f.gather(epoch);
            f.apply();
        }
        // The last epoch, in which every episode reached its horizon,
        // counts too.
        f.report.epochs += 1;
        if !decided {
            break;
        }
    }
    f.finish()
}

/// The epoch loop's state: the shards, the running tally, and this
/// epoch's record of every episode's decision.
struct Frontend<'a, 'scope> {
    cfg: &'a ServeConfig,
    hub: Option<&'a PolicySlot>,
    launcher: &'a mut dyn ShardLauncher<'scope>,
    degree: usize,
    adapter: ObservationAdapter,
    sims: &'a mut [Simulation],
    shards: Vec<ShardHandle<'scope>>,
    /// The running tally, current at every boundary: `epochs` is the
    /// loop counter, `final_version` the fabric-wide current version and
    /// `shard_versions` what each shard was last delivered.
    report: ServeReport,
    /// The policy each shard *should* run. Hub publishes and All-scope
    /// directives set every entry; targeted directives set a subset —
    /// respawns and lag re-syncs always converge a shard onto its own
    /// entry, so a killed canary shard comes back as a canary.
    desired: Vec<(Arc<CoordinationPolicy>, u64)>,
    /// Each shard's fault-script state this epoch.
    faults: Vec<Option<FaultKind>>,
    /// Batch rows each shard owes this epoch.
    owed: Vec<usize>,
    live: Vec<bool>,
    /// This epoch's routed decisions: the shard each went to and its
    /// decision point, enough to answer it with the shortest-path
    /// fallback if that shard is written off before it answers.
    routed: Vec<Option<(usize, DecisionPoint)>>,
    actions: Vec<Option<Action>>,
    starts: Vec<Option<Instant>>,
    next_id: u64,
    events_scratch: Vec<SimEvent>,
}

impl<'a, 'scope> Frontend<'a, 'scope> {
    /// Launches every shard on the starting policy: the hub's latest
    /// snapshot when attached, else the caller's policy at version 0.
    fn launch(
        policy: &CoordinationPolicy,
        hub: Option<&'a PolicySlot>,
        sims: &'a mut [Simulation],
        cfg: &'a ServeConfig,
        launcher: &'a mut dyn ShardLauncher<'scope>,
    ) -> Self {
        let degree = policy.degree();
        let (current, version) = match hub {
            Some(h) => {
                let snap = h.latest();
                (Arc::new(policy_from_snapshot(&snap, degree)), snap.version)
            }
            None => (Arc::new(policy.clone()), 0),
        };
        let num_shards = cfg.shards_over(sims[0].topology().num_nodes());
        let shards = (0..num_shards)
            .map(|i| launcher.launch(i, Arc::clone(&current), version))
            .collect();
        let episodes = sims.len();
        Frontend {
            cfg,
            hub,
            launcher,
            degree,
            adapter: policy.adapter(),
            sims,
            shards,
            report: ServeReport {
                final_version: version,
                shard_versions: vec![version; num_shards],
                shard_batched: vec![0; num_shards],
                shard_fallback: vec![0; num_shards],
                ..ServeReport::default()
            },
            desired: vec![(current, version); num_shards],
            faults: vec![None; num_shards],
            owed: vec![0; num_shards],
            live: vec![true; episodes],
            routed: vec![None; episodes],
            actions: vec![None; episodes],
            starts: vec![None; episodes],
            next_id: 0,
            events_scratch: Vec::new(),
        }
    }

    /// Phase 1, the boundary: hot-swap poll, control directives, fault
    /// transitions, then one status publish when a board is attached.
    fn boundary(&mut self, epoch: u64) {
        if let Some(h) = self.hub {
            if h.version() != self.report.final_version {
                let snap = h.latest();
                let policy = Arc::new(policy_from_snapshot(&snap, self.degree));
                self.report.final_version = snap.version;
                self.desired.fill((policy, snap.version));
                self.report.swaps += 1;
                registry::count(CounterKind::ServeSwaps, 1);
            }
        }
        if let Some(q) = self.cfg.control.as_ref().filter(|q| q.is_pending()) {
            for cmd in q.drain() {
                let policy = Arc::new(policy_from_snapshot(&cmd.snapshot, self.degree));
                let version = cmd.snapshot.version;
                match &cmd.scope {
                    PublishScope::All => {
                        self.report.final_version = version;
                        self.desired.fill((policy, version));
                    }
                    PublishScope::Shards(targets) => {
                        for &t in targets.iter().filter(|&&t| t < self.shards.len()) {
                            self.desired[t] = (Arc::clone(&policy), version);
                        }
                    }
                }
                self.report.directed_publishes += 1;
            }
        }
        for i in 0..self.shards.len() {
            self.faults[i] = self.cfg.faults.state(i, epoch);
            self.converge(i);
        }
        if let Some(board) = self.cfg.status.as_ref() {
            let live_episodes = self.live.iter().filter(|&&l| l).count() as u64;
            board.publish(status_of(&self.report, live_episodes, &self.shards, self.sims));
        }
    }

    /// Brings shard `i` to its fault state and desired policy: a kill
    /// window's start takes the worker down for real, its end respawns
    /// it on its desired policy (fresh mailbox, fresh state), and a
    /// reachable shard lagging its desired policy gets the swap at this
    /// boundary (the global broadcast, targeted publishes, rollback
    /// republishes, and post-delay re-sync). A written-off shard stays
    /// down.
    fn converge(&mut self, i: usize) {
        let h = &mut self.shards[i];
        let (want, version) = &self.desired[i];
        match self.faults[i] {
            Some(FaultKind::Kill) if h.alive() => {
                h.stop();
                h.join();
                self.report.shard_kills += 1;
            }
            None if !h.alive() && !h.dead => {
                *h = self.launcher.launch(i, Arc::clone(want), *version);
                self.report.shard_versions[i] = *version;
                self.report.shard_respawns += 1;
            }
            None if h.alive() && self.report.shard_versions[i] != *version => {
                let swap = ShardMsg::Swap {
                    policy: Arc::clone(want),
                    version: *version,
                };
                if h.send(swap) {
                    self.report.shard_versions[i] = *version;
                } else {
                    self.write_off(i);
                }
            }
            _ => {}
        }
    }

    /// Phase 2, collect: advances every live episode to its next
    /// decision point and routes it to the shard owning the node — or
    /// answers it at once with the shortest-path fallback if that shard
    /// is down. Returns whether any episode had a decision.
    fn collect(&mut self) -> bool {
        let spans_on = dosco_obs::spans_enabled();
        let mut decided = false;
        for e in 0..self.sims.len() {
            if !self.live[e] {
                continue;
            }
            let sim = &mut self.sims[e];
            // Coordinator events are dropped, as the in-process
            // deployment's no-op `observe` does. Drained into a recycled
            // scratch buffer: no per-epoch allocation.
            sim.drain_events_into(&mut self.events_scratch);
            let Some(dp) = sim.next_decision() else {
                self.live[e] = false;
                continue;
            };
            decided = true;
            if spans_on {
                self.starts[e] = Some(Instant::now());
            }
            let owner = shard_of(dp.node.0, self.shards.len());
            if self.faults[owner].is_none() && self.shards[owner].alive() {
                let request = ShardMsg::Request(DecisionRequest {
                    id: self.next_id,
                    episode: e,
                    node: dp.node,
                    obs: self.adapter.observe(sim, &dp),
                });
                if self.shards[owner].send(request) {
                    self.next_id += 1;
                    self.owed[owner] += 1;
                    self.routed[e] = Some((owner, dp));
                    continue;
                }
                // Dead peer discovered on route: degrade this and every
                // later decision for the shard, don't panic.
                self.write_off(owner);
            }
            // Graceful degradation: the decision is answered now by
            // shortest-path coordination and counted — never silently
            // dropped.
            self.actions[e] = Some(dosco_baselines::sp_action(&self.sims[e], &dp));
            self.report.count_fallback(owner);
        }
        decided
    }

    /// Phase 3, flush: the barrier to every shard that owes a batch,
    /// then one batch from each, polling only the shards that still owe
    /// one. A shard whose channel closes, or whose batch does not answer
    /// exactly what was routed to it, is written off at once. Nothing but
    /// silence tells a shard that hangs after its barrier from one still
    /// computing, so one that stays silent for
    /// [`ServeConfig::gather_stall`] is written off then.
    fn gather(&mut self, epoch: u64) {
        for i in 0..self.shards.len() {
            if self.owed[i] > 0 && !self.shards[i].send(ShardMsg::Flush { epoch }) {
                self.write_off(i);
            }
        }
        let mut last_progress = Instant::now();
        let mut idle = 0u32;
        while self.owed.iter().any(|&n| n > 0) {
            let mut progressed = false;
            for i in 0..self.shards.len() {
                if self.owed[i] == 0 {
                    continue;
                }
                match self.shards[i].poll() {
                    Err(TryRecvError::Empty) => continue,
                    Ok(batch) if self.answers_exactly(i, &batch) => self.accept(i, &batch),
                    _ => self.write_off(i),
                }
                progressed = true;
            }
            if progressed {
                last_progress = Instant::now();
                idle = 0;
            } else if last_progress.elapsed() >= self.cfg.gather_stall {
                for i in 0..self.shards.len() {
                    if self.owed[i] > 0 {
                        self.write_off(i);
                    }
                }
            } else if idle < 1024 {
                // Yield first: on a loaded machine the shard thread needs
                // this core to compute the batch.
                idle += 1;
                std::thread::yield_now();
            } else {
                std::thread::sleep(Duration::from_micros(200));
            }
        }
    }

    /// Whether `batch` answers exactly the decisions routed to shard `i`
    /// this epoch, once each: as many rows as it owes, each for an
    /// episode routed to it, in strictly ascending episode order (the
    /// order of their request ids).
    fn answers_exactly(&self, i: usize, batch: &[DecisionResponse]) -> bool {
        batch.len() == self.owed[i]
            && batch.windows(2).all(|w| w[0].episode < w[1].episode)
            && batch
                .iter()
                .all(|r| matches!(self.routed.get(r.episode), Some(Some((s, _))) if *s == i))
    }

    /// Takes shard `i`'s batch as this epoch's answers for its episodes.
    fn accept(&mut self, i: usize, batch: &[DecisionResponse]) {
        for r in batch {
            self.actions[r.episode] = Some(Action::from_index(r.action_index));
            self.report.count_batched(i, r.version, batch.len());
        }
        self.owed[i] = 0;
    }

    /// Writes shard `i` off for the rest of the run: drops both its
    /// channel ends, never respawns it, and answers every decision routed
    /// to it this epoch with the shortest-path fallback.
    fn write_off(&mut self, i: usize) {
        let h = &mut self.shards[i];
        if let Some((tx, rx)) = h.link.take() {
            // The receiver first: on a socket its drop shuts the
            // connection, so a writer blocked on a peer that stopped
            // reading fails, and the sender's drop does not wait on it.
            drop(rx);
            drop(tx);
        }
        h.dead = true;
        self.report.shard_disconnects += 1;
        self.owed[i] = 0;
        for (e, slot) in self.routed.iter_mut().enumerate() {
            if let Some((_, dp)) = slot.take_if(|(s, _)| *s == i) {
                self.actions[e] = Some(dosco_baselines::sp_action(&self.sims[e], &dp));
                self.report.count_fallback(i);
            }
        }
    }

    /// Phase 4, apply: every answer in episode order, each decision
    /// counted once (batched + fallback == total, always).
    fn apply(&mut self) {
        for (e, sim) in self.sims.iter_mut().enumerate() {
            self.routed[e] = None;
            if let Some(a) = self.actions[e].take() {
                sim.apply(a);
                self.report.decisions += 1;
                registry::count(CounterKind::ServeDecisions, 1);
                if let Some(t0) = self.starts[e].take() {
                    registry::record_span_ns(
                        SpanKind::ServeDecision,
                        u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX),
                    );
                }
            }
        }
    }

    /// Publishes the final status, shuts every shard down, and returns
    /// each episode's metrics with the report.
    fn finish(mut self) -> (Vec<Metrics>, ServeReport) {
        // Final status so post-run snapshots show the completed totals
        // (and which shards were up when the run ended).
        if let Some(board) = self.cfg.status.as_ref() {
            board.publish(status_of(&self.report, 0, &self.shards, self.sims));
        }
        // Barrier-free mailboxes are empty here. Every shard hears
        // `Shutdown` before the first is joined.
        for h in &mut self.shards {
            h.stop();
        }
        for h in &mut self.shards {
            h.join();
        }
        assert!(
            self.report.conserved(),
            "decision conservation violated: {:?}",
            self.report
        );
        let metrics = self.sims.iter().map(|sim| sim.metrics().clone()).collect();
        (metrics, self.report)
    }
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
    /// crate-private), mirroring `serve_with`'s wiring.
    fn run_core(
        launcher: &mut dyn ShardLauncher<'static>,
        cfg: &ServeConfig,
    ) -> (Vec<Metrics>, ServeReport) {
        let scenario = ScenarioConfig::paper_base(2).with_horizon(200.0);
        let p = policy(scenario.topology.network_degree());
        let mut sims = cfg.episodes(&scenario, &[1, 2]);
        serve_core(&p, None, &mut sims, cfg, launcher, &mut |_| {})
    }

    type Channel<T> = (BoxTx<T>, BoxRx<T>);

    /// A mailbox and a response channel, the two ends of a shard the
    /// launchers below play.
    fn shard_channels() -> (Channel<ShardMsg>, Channel<Vec<DecisionResponse>>) {
        (
            Transport::<ShardMsg>::channel(&InProcess, 64),
            Transport::<Vec<DecisionResponse>>::channel(&InProcess, 1),
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
        let (metrics, report) = run_core(&mut DeadLauncher, &ServeConfig::new(2));
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
                let ((tx, rx), (_, responses)) = shard_channels();
                drop(rx);
                ShardHandle::new(tx, responses, None)
            }
        }
        let (_, report) = run_core(&mut DroppedRxLauncher, &ServeConfig::new(2));
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
                let ((tx, rx), (resp_tx, responses)) = shard_channels();
                // Consume everything, answer nothing, and keep the
                // response channel open: the frontend's only signal is
                // silence at the barrier.
                std::thread::spawn(move || {
                    let _open = resp_tx;
                    while rx.recv().is_ok() {}
                });
                ShardHandle::new(tx, responses, None)
            }
        }
        let mut cfg = ServeConfig::new(1);
        cfg.gather_stall = Duration::from_millis(200);
        let (_, report) = run_core(&mut SilentLauncher, &cfg);
        assert!(report.conserved());
        assert_eq!(report.batched_decisions, 0);
        assert_eq!(report.fallback_decisions, report.decisions);
        assert_eq!(report.shard_disconnects, 1);
        assert_eq!(report.shard_respawns, 0);
    }

    /// A shard that goes away after its first barrier closes both of
    /// its channel ends: the frontend writes it off at once instead of
    /// waiting out the stall deadline.
    #[test]
    fn departed_shard_is_written_off_without_waiting_out_the_stall() {
        struct DepartingLauncher;
        impl ShardLauncher<'static> for DepartingLauncher {
            fn launch(
                &mut self,
                _index: usize,
                _policy: Arc<CoordinationPolicy>,
                _version: u64,
            ) -> ShardHandle<'static> {
                let ((tx, rx), (resp_tx, responses)) = shard_channels();
                std::thread::spawn(move || {
                    let _answers_nothing = resp_tx;
                    while let Ok(msg) = rx.recv() {
                        if matches!(msg, ShardMsg::Flush { .. }) {
                            break;
                        }
                    }
                });
                ShardHandle::new(tx, responses, None)
            }
        }
        let mut cfg = ServeConfig::new(1);
        cfg.gather_stall = Duration::from_secs(30);
        let start = Instant::now();
        let (_, report) = run_core(&mut DepartingLauncher, &cfg);
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "waited {:?} for a shard that had gone",
            start.elapsed()
        );
        assert_eq!(report.shard_disconnects, 1);
        assert_eq!(report.batched_decisions, 0);
        assert!(report.conserved());
    }

    /// A batch that does not answer exactly the episodes routed to its
    /// shard — an episode it was not sent, an answer given twice, a row
    /// repeated in place of another — writes the shard off, and every
    /// decision it owed falls back. None of them panics the frontend.
    #[test]
    fn misaddressed_batches_write_the_shard_off() {
        type Answer = fn(&[DecisionRequest]) -> Vec<DecisionResponse>;
        struct MisbehavingLauncher(Answer);
        impl ShardLauncher<'static> for MisbehavingLauncher {
            fn launch(
                &mut self,
                _index: usize,
                _policy: Arc<CoordinationPolicy>,
                _version: u64,
            ) -> ShardHandle<'static> {
                let answer = self.0;
                let ((tx, rx), (resp_tx, responses)) = shard_channels();
                std::thread::spawn(move || {
                    let mut requests = Vec::new();
                    while let Ok(msg) = rx.recv() {
                        match msg {
                            ShardMsg::Request(r) => requests.push(r),
                            ShardMsg::Flush { .. } => {
                                let _ = resp_tx.send(answer(&requests));
                                requests.clear();
                            }
                            ShardMsg::Swap { .. } | ShardMsg::Shutdown => {}
                        }
                    }
                });
                ShardHandle::new(tx, responses, None)
            }
        }
        fn answer(episode: usize) -> DecisionResponse {
            DecisionResponse {
                episode,
                action_index: 0,
                version: 0,
            }
        }
        let cases: [(&str, Answer); 3] = [
            ("an episode it was not sent", |_| vec![answer(999)]),
            ("every answer twice", |reqs| {
                reqs.iter().chain(reqs).map(|r| answer(r.episode)).collect()
            }),
            ("the first answer in every row", |reqs| {
                reqs.iter().map(|_| answer(reqs[0].episode)).collect()
            }),
        ];
        for (what, bad) in cases {
            let (_, report) = run_core(&mut MisbehavingLauncher(bad), &ServeConfig::new(1));
            assert_eq!(report.shard_disconnects, 1, "{what}");
            assert_eq!(report.batched_decisions, 0, "{what}");
            assert_eq!(report.fallback_decisions, report.decisions, "{what}");
            assert!(report.conserved(), "{what}");
        }
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

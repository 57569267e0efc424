//! The serving fabric's epoch loop. E concurrent episodes (the serving
//! load) advance one decision each per epoch, in five steps:
//!
//! 1. **Boundary**: the hub's broadcast and directed publishes and the
//!    [`FaultScript`] windows, applied as data to the node groups; then
//!    the status.
//! 2. **Collect**: every live episode steps to its next decision, which
//!    is observed into a row of the batch of its group's policy — or, if
//!    the group is down, answered and applied at once by the
//!    shortest-path fallback.
//! 3. **Forward**: one `Mlp::forward_into` per policy in use; the back
//!    half of the first batch with at least four rows (`HELP_MIN_ROWS`)
//!    is forwarded on the call's helper thread meanwhile.
//! 4. **Choose**: each row's action in episode order, greedy or one draw
//!    from its node's `per_node_seed` stream.
//! 5. **Apply**: every chosen action in episode order, each counted once.
//!
//! A node group — the report's *shard* — is the set of nodes `shard_of`
//! maps to one index (`node mod num_shards`), with its policy version,
//! its up/down state and its counts. Episode order is the order in which
//! a lockstep per-decision deployment decides, and a row's logits do not
//! depend on the forward or thread that computed them, so neither the
//! group count nor the split changes a decision. Under `DOSCO_SPANS`,
//! the collect step and the forward with its helper join, of every epoch
//! that forwards a row, are the `serve_collect` and `serve_barrier`
//! spans.

use crate::fault::FaultScript;
use crate::helper::{Helper, Part, HELP_MIN_ROWS};
use crate::hub::PolicySlot;
use crate::status::{FabricStatus, StatusBoard};
use dosco_core::policy::PolicyMetadata;
use dosco_core::{per_node_seed, CoordinationPolicy, ObservationAdapter};
use dosco_nn::dist::{greedy_action, log_softmax, sample_action};
use dosco_nn::fork::Job;
use dosco_obs::registry;
use dosco_obs::{CounterKind, GaugeKind, HistKind, SpanKind};
use dosco_runtime::PolicySnapshot;
use dosco_simnet::{
    Action, ChurnTimeline, DecisionPoint, Metrics, ScenarioConfig, SimEvent, Simulation,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::sync::{Arc, MutexGuard};
use std::time::Instant;

/// Configuration of the serving fabric.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Node groups (shards) the nodes are partitioned across, clamped to
    /// the node count.
    pub num_shards: usize,
    /// `Some(seed)` samples actions from per-node RNG streams
    /// (`per_node_seed(seed, node)`); `None` serves greedy argmax.
    pub stochastic_seed: Option<u64>,
    /// Epoch-scripted shard outages, on shards the fabric has.
    pub faults: FaultScript,
    /// Board the fabric publishes a [`FabricStatus`] to at every epoch
    /// boundary.
    pub status: Option<Arc<StatusBoard>>,
    /// Substrate churn timeline every served episode runs (empty: a
    /// static substrate).
    pub churn: ChurnTimeline,
}

impl ServeConfig {
    /// A greedy, fault-free configuration with `num_shards` shards.
    pub fn new(num_shards: usize) -> Self {
        ServeConfig {
            num_shards,
            stochastic_seed: None,
            faults: FaultScript::new(),
            status: None,
            churn: ChurnTimeline::none(),
        }
    }

    /// Attaches a live status board.
    #[must_use]
    pub fn with_status(mut self, status: Arc<StatusBoard>) -> Self {
        self.status = Some(status);
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
        self.churn = churn;
        self
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
        Ok(())
    }

    /// One simulator per episode seed, under the churn timeline. Panics
    /// as [`serve_with`] documents.
    fn episodes(&self, scenario: &ScenarioConfig, episode_seeds: &[u64]) -> Vec<Simulation> {
        if let Err(e) = self.validate() {
            panic!("serve configuration must be valid: {e}");
        }
        let shards = self.num_shards.min(scenario.topology.num_nodes());
        if let Some(s) = self.faults.shard_outside(shards) {
            panic!("fault script names shard {s}, but the fabric has {shards} shards");
        }
        assert!(!episode_seeds.is_empty(), "need at least one episode");
        episode_seeds
            .iter()
            .map(|&seed| Simulation::with_churn(scenario.clone(), seed, self.churn.clone()))
            .collect()
    }
}

/// The fabric's accounting: the running tally from epoch 0, the body of
/// every [`FabricStatus`], and what a run returns. Its conservation law
/// ([`ServeReport::conserved`]) is asserted before it is returned.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ServeReport {
    /// Epochs run, the final empty one included; during a run, the
    /// current epoch.
    pub epochs: u64,
    /// Decisions applied to episodes.
    pub decisions: u64,
    /// Decisions answered by a shard's policy.
    pub batched_decisions: u64,
    /// Decisions answered by the shortest-path fallback (shard down).
    pub fallback_decisions: u64,
    /// Hub broadcasts taken (version changes seen at a boundary).
    pub swaps: u64,
    /// Directed hub publishes applied ([`PolicySlot::publish_to`]).
    pub directed_publishes: u64,
    /// Shards taken down by the start of a kill window.
    pub shard_kills: u64,
    /// Shards brought back up by the end of a kill window, at the version
    /// last published to them.
    pub shard_respawns: u64,
    /// Shards written off for good because their policy returned a
    /// non-finite logit.
    pub shard_disconnects: u64,
    /// Most rows one shard answered in one epoch.
    pub max_batch_rows: u64,
    /// Rows forwarded as the helper's part of a batch: on the helper
    /// thread, or inline where the host has one core.
    pub helped_rows: u64,
    /// The fabric-wide current policy version.
    pub final_version: u64,
    /// The policy version each shard last ran.
    pub shard_versions: Vec<u64>,
    /// Batched decisions per shard.
    pub shard_batched: Vec<u64>,
    /// Fallback decisions per shard.
    pub shard_fallback: Vec<u64>,
    /// Batched decisions per policy version, ascending by version.
    pub decisions_by_version: Vec<(u64, u64)>,
}

impl ServeReport {
    /// Whether every decision is accounted for: batched + fallback ==
    /// total, the per-shard vectors agree in length, and the per-shard
    /// and per-version splits sum to their totals.
    pub fn conserved(&self) -> bool {
        let shards = self.shard_versions.len();
        let by_version: u64 = self.decisions_by_version.iter().map(|&(_, n)| n).sum();
        self.decisions == self.batched_decisions + self.fallback_decisions
            && self.shard_batched.len() == shards
            && self.shard_fallback.len() == shards
            && self.shard_batched.iter().sum::<u64>() == self.batched_decisions
            && self.shard_fallback.iter().sum::<u64>() == self.fallback_decisions
            && by_version == self.batched_decisions
    }

    /// Batched decisions attributed to `version`.
    pub fn decisions_at_version(&self, version: u64) -> u64 {
        self.decisions_by_version
            .iter()
            .find(|&&(v, _)| v == version)
            .map_or(0, |&(_, n)| n)
    }

    /// Counts one decision `shard` answered, in an epoch of `rows` rows.
    fn count_batched(&mut self, shard: usize, rows: usize) {
        let version = self.shard_versions[shard];
        self.batched_decisions += 1;
        self.shard_batched[shard] += 1;
        self.max_batch_rows = self.max_batch_rows.max(rows as u64);
        let by_version = &mut self.decisions_by_version;
        match by_version.binary_search_by_key(&version, |&(v, _)| v) {
            Ok(i) => by_version[i].1 += 1,
            Err(i) => by_version.insert(i, (version, 1)),
        }
    }

    /// Counts one decision of `shard`'s answered by the fallback.
    fn count_fallback(&mut self, shard: usize) {
        self.fallback_decisions += 1;
        self.shard_fallback[shard] += 1;
    }
}

/// The result of a serving run.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeOutcome {
    /// Final metrics of each episode, in `episode_seeds` order.
    pub metrics: Vec<Metrics>,
    /// The fabric's accounting.
    pub report: ServeReport,
}

/// The node group owning `node`: round-robin (`node mod num_shards`), so
/// ingress-heavy low node ids spread out. A pure function of the node id.
#[must_use]
pub(crate) fn shard_of(node: usize, num_shards: usize) -> usize {
    node % num_shards
}

/// A row's action from its logits: greedy argmax, or one draw from
/// `rng` — the rule of `CoordinationPolicy::act` / `act_sampled`.
pub(crate) fn choose(logits: &[f32], rng: Option<&mut StdRng>) -> usize {
    match rng {
        Some(rng) => sample_action(log_softmax(logits), rng),
        None => greedy_action(log_softmax(logits)),
    }
}

/// The servable policy of a published snapshot; built at the boundary it
/// lands at, so one that breaks the observation contract fails there.
fn policy_from_snapshot(snap: &PolicySnapshot, degree: usize) -> Arc<CoordinationPolicy> {
    let algorithm = format!("hub-snapshot-v{}", snap.version);
    let metadata = PolicyMetadata {
        algorithm,
        ..PolicyMetadata::default()
    };
    Arc::new(CoordinationPolicy::new(
        snap.actor.clone(),
        degree,
        metadata,
    ))
}

/// Serves `episode_seeds.len()` concurrent episodes of `scenario`; see
/// [`serve_with`].
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

/// Like [`serve`], calling `on_epoch(epoch)` at every epoch boundary
/// before the hub is read: a snapshot published from the hook lands at
/// that boundary on every run.
///
/// With a `hub`, the fabric serves the hub's latest snapshot and follows
/// its broadcasts and directed publishes ([`PolicySlot`]), and `policy`
/// only fixes the observation contract; without one, it serves `policy`
/// at version 0. The epochs run on the calling thread, with one helper
/// thread while a core is free for it (`dosco_nn::fork::Helper`).
///
/// # Panics
///
/// Panics if `episode_seeds` is empty, the configuration is invalid, the
/// fault script names a shard at or above [`ServeConfig::num_shards`]
/// clamped to the node count, the scenario is invalid, or a snapshot's
/// actor breaks the observation contract (`4·Δ+4` in, `Δ+1` out).
pub fn serve_with(
    policy: &CoordinationPolicy,
    hub: Option<&PolicySlot>,
    scenario: &ScenarioConfig,
    episode_seeds: &[u64],
    cfg: &ServeConfig,
    mut on_epoch: impl FnMut(u64),
) -> ServeOutcome {
    let mut sims = cfg.episodes(scenario, episode_seeds);
    let helper = Helper::default();
    let (metrics, report) = Fabric::new(policy, hub, &mut sims, cfg, &helper).run(&mut on_epoch);
    ServeOutcome { metrics, report }
}

/// Records the time since `t0` as one `kind` span.
fn record_span_since(kind: SpanKind, t0: Instant) {
    registry::record_span_ns(kind, t0.elapsed().as_nanos().try_into().unwrap_or(u64::MAX));
}

/// One node group: the policy it runs while up, with its version (hub
/// broadcasts set every group's, directed publishes a subset's); whether
/// it is up (no kill window open, not written off); whether a non-finite
/// logit wrote it off for good; its batch, and its rows this epoch.
struct Group {
    policy: (Arc<CoordinationPolicy>, u64),
    up: bool,
    dead: bool,
    batch: usize,
    rows: usize,
}

/// The forward of one policy in use: the rows of the up groups that run
/// it, in episode order; the first `front` in `part`, the rest in the
/// helper's job.
#[derive(Default)]
struct Batch {
    part: Part,
    rows: usize,
    front: usize,
}

impl Batch {
    /// The logits of row `row`, read from `job` past the front.
    fn logits<'b>(&'b self, job: &'b Part, row: usize) -> &'b [f32] {
        match row.checked_sub(self.front) {
            None => self.part.logits.row(row),
            Some(r) => job.logits.row(r),
        }
    }
}

/// A decision routed to a batch: its decision point, batch and row.
type Routed = (DecisionPoint, usize, usize);

/// The epoch loop's state.
struct Fabric<'a> {
    cfg: &'a ServeConfig,
    hub: Option<&'a PolicySlot>,
    /// The hub's publish count at the last boundary that took its content.
    seen: u64,
    helper: &'a Helper,
    adapter: ObservationAdapter,
    sims: &'a mut [Simulation],
    groups: Vec<Group>,
    batches: Vec<Batch>,
    /// The batch whose back half the helper forwards this epoch.
    helped: Option<usize>,
    /// Under stochastic serving, each node's stream.
    rngs: Option<Vec<StdRng>>,
    report: ServeReport,
    live: Vec<bool>,
    routed: Vec<Option<Routed>>,
    starts: Vec<Option<Instant>>,
    obs: Vec<f32>,
    events: Vec<SimEvent>,
}

impl<'a> Fabric<'a> {
    /// Every group up on the hub's latest snapshot when attached, else on
    /// `policy` at version 0.
    fn new(
        policy: &CoordinationPolicy,
        hub: Option<&'a PolicySlot>,
        sims: &'a mut [Simulation],
        cfg: &'a ServeConfig,
        helper: &'a Helper,
    ) -> Self {
        let (current, version) = hub.map_or((Arc::new(policy.clone()), 0), |h| {
            let snap = h.latest();
            (policy_from_snapshot(&snap, policy.degree()), snap.version)
        });
        let nodes = sims[0].topology().num_nodes();
        let (shards, episodes) = (cfg.num_shards.min(nodes), sims.len());
        let group = |_| Group {
            policy: (Arc::clone(&current), version),
            up: true,
            dead: false,
            batch: 0,
            rows: 0,
        };
        let stream = |seed, v| StdRng::seed_from_u64(per_node_seed(seed, v));
        Fabric {
            groups: (0..shards).map(group).collect(),
            rngs: (cfg.stochastic_seed).map(|s| (0..nodes).map(|v| stream(s, v)).collect()),
            report: ServeReport {
                final_version: version,
                shard_versions: vec![version; shards],
                shard_batched: vec![0; shards],
                shard_fallback: vec![0; shards],
                ..ServeReport::default()
            },
            live: vec![true; episodes],
            routed: vec![None; episodes],
            starts: vec![None; episodes],
            adapter: policy.adapter(),
            batches: Vec::new(),
            helped: None,
            obs: Vec::new(),
            events: Vec::new(),
            cfg,
            hub,
            seen: 0,
            helper,
            sims,
        }
    }

    /// The five steps, once per epoch, until an epoch finds no decision.
    fn run(mut self, on_epoch: &mut dyn FnMut(u64)) -> (Vec<Metrics>, ServeReport) {
        loop {
            on_epoch(self.report.epochs);
            self.boundary();
            let decided = self.collect();
            if decided {
                let job = self.forward();
                self.settle(&job);
            }
            self.report.epochs += 1;
            if !decided {
                return self.finish();
            }
        }
    }

    /// Step 1: the hub's publishes and the fault windows, one batch per
    /// policy the up groups run, then the status.
    fn boundary(&mut self) {
        let degree = self.adapter.degree();
        let r = &mut self.report;
        // Nothing published since the last boundary: one load, no lock.
        let published = self.hub.map(|h| (h, h.publishes()));
        if let Some((hub, publishes)) = published.filter(|&(_, n)| n != self.seen) {
            self.seen = publishes;
            let (snap, directed) = hub.take();
            if snap.version != r.final_version {
                let policy = policy_from_snapshot(&snap, degree);
                for g in &mut self.groups {
                    g.policy = (Arc::clone(&policy), snap.version);
                }
                r.final_version = snap.version;
                r.swaps += 1;
            }
            for (snap, groups) in directed {
                let policy = policy_from_snapshot(&snap, degree);
                for &t in &groups {
                    if let Some(g) = self.groups.get_mut(t) {
                        g.policy = (Arc::clone(&policy), snap.version);
                    }
                }
                r.directed_publishes += 1;
            }
        }
        let mut used = 0;
        for (i, g) in self.groups.iter_mut().enumerate() {
            // A kill window takes a group down at its start and brings it
            // back at its end; a written-off group stays down.
            let up = !g.dead && !self.cfg.faults.down(i, r.epochs);
            r.shard_kills += u64::from(g.up && !up);
            r.shard_respawns += u64::from(!g.up && up);
            g.up = up;
            if up {
                r.shard_versions[i] = g.policy.1;
                let same = |b: &Batch| {
                    b.part
                        .policy
                        .as_ref()
                        .is_some_and(|p| Arc::ptr_eq(p, &g.policy.0))
                };
                g.batch = self.batches[..used].iter().position(same).unwrap_or(used);
                if g.batch == used {
                    if used == self.batches.len() {
                        self.batches.push(Batch::default());
                    }
                    self.batches[used].part.policy = Some(Arc::clone(&g.policy.0));
                    used += 1;
                }
            }
        }
        self.batches.truncate(used);
        if let Some(board) = &self.cfg.status {
            board.publish(self.status());
        }
    }

    /// Step 2: steps every live episode to its next decision. One whose
    /// group is down is answered and applied at once by the shortest-path
    /// fallback; the others get a row of their group's batch, and every
    /// row's observation is stacked. Returns whether any episode decided.
    fn collect(&mut self) -> bool {
        let t0 = dosco_obs::spans_enabled().then(Instant::now);
        self.groups.iter_mut().for_each(|g| g.rows = 0);
        self.batches.iter_mut().for_each(|b| b.rows = 0);
        let mut decided = false;
        for (e, sim) in self.sims.iter_mut().enumerate() {
            if !self.live[e] {
                continue;
            }
            // Coordinator events are dropped, as the in-process
            // deployment's no-op `observe` does.
            sim.drain_events_into(&mut self.events);
            let Some(dp) = sim.next_decision() else {
                self.live[e] = false;
                continue;
            };
            decided = true;
            let g = shard_of(dp.node.0, self.groups.len());
            let group = &mut self.groups[g];
            if group.up {
                self.starts[e] = t0.map(|_| Instant::now());
                group.rows += 1;
                let batch = &mut self.batches[group.batch];
                batch.rows += 1;
                self.routed[e] = Some((dp, group.batch, batch.rows - 1));
            } else {
                sim.apply(dosco_baselines::sp_action(sim, &dp));
                self.report.count_fallback(g);
                self.report.decisions += 1;
            }
        }
        let routed = self.stack();
        if let Some(t0) = t0.filter(|_| routed) {
            record_span_since(SpanKind::ServeCollect, t0);
        }
        decided
    }

    /// Stacks every row's observation: the back half of the first batch
    /// with [`HELP_MIN_ROWS`] rows or more into the helper's job, the
    /// rest into their batch's part. Returns whether there was a row.
    fn stack(&mut self) -> bool {
        let inputs = 4 * self.adapter.degree() + 4;
        self.helped = self.batches.iter().position(|b| b.rows >= HELP_MIN_ROWS);
        let mut job = self.helper.job();
        for (b, batch) in self.batches.iter_mut().enumerate() {
            let handed = if self.helped == Some(b) {
                batch.rows / 2
            } else {
                0
            };
            batch.front = batch.rows - handed;
            batch.part.x.reshape(batch.front, inputs);
            if handed > 0 {
                job.policy.clone_from(&batch.part.policy);
                job.x.reshape(handed, inputs);
            }
        }
        for (sim, routed) in self.sims.iter().zip(&self.routed) {
            let Some((dp, b, row)) = *routed else {
                continue;
            };
            self.adapter.observe_into(sim, &dp, &mut self.obs);
            let batch = &mut self.batches[b];
            match row.checked_sub(batch.front) {
                None => batch.part.x.row_mut(row).copy_from_slice(&self.obs),
                Some(r) => job.x.row_mut(r).copy_from_slice(&self.obs),
            }
        }
        self.batches.iter().any(|b| b.rows > 0)
    }

    /// Step 3: forwards every batch's own part while the helper forwards
    /// its job, and joins the helper. Returns the job, whose logits the
    /// choose step reads.
    fn forward(&mut self) -> MutexGuard<'a, Part> {
        let helper: &'a Helper = self.helper;
        let batches = &mut self.batches;
        let routed = batches.iter().any(|b| b.rows > 0);
        let t0 = (dosco_obs::spans_enabled() && routed).then(Instant::now);
        let helped = self.helped.map(|b| &batches[b]);
        self.report.helped_rows += helped.map_or(0, |b| (b.rows - b.front) as u64);
        let mut own = || {
            for batch in batches.iter_mut().filter(|b| b.rows > 0) {
                let rows = batch.rows as f64;
                registry::observe(HistKind::ServeBatchSize, rows);
                registry::set_gauge(GaugeKind::LastServeQueueDepth, rows);
                registry::max_gauge(GaugeKind::PeakServeQueueDepth, rows);
                let _span = dosco_obs::span(SpanKind::ServeBatchForward);
                batch.part.run();
            }
        };
        let job = if self.helped.is_some() {
            helper.join(own).1
        } else {
            own();
            helper.job()
        };
        if let Some(t0) = t0 {
            record_span_since(SpanKind::ServeBarrier, t0);
        }
        job
    }

    /// Steps 4 and 5: writes off every group with a non-finite logit this
    /// epoch (argmax and sampling have no answer for it; its rows fall
    /// back), then chooses and applies every row's action in episode
    /// order.
    fn settle(&mut self, job: &Part) {
        let shards = self.groups.len();
        for &(dp, b, row) in self.routed.iter().flatten() {
            let group = &mut self.groups[shard_of(dp.node.0, shards)];
            let finite = self.batches[b]
                .logits(job, row)
                .iter()
                .all(|v| v.is_finite());
            if !group.dead && !finite {
                (group.dead, group.up) = (true, false);
                self.report.shard_disconnects += 1;
            }
        }
        for (e, sim) in self.sims.iter_mut().enumerate() {
            let Some((dp, b, row)) = self.routed[e].take() else {
                continue;
            };
            let g = shard_of(dp.node.0, shards);
            let action = if self.groups[g].dead {
                self.report.count_fallback(g);
                dosco_baselines::sp_action(sim, &dp)
            } else {
                self.report.count_batched(g, self.groups[g].rows);
                let rng = self.rngs.as_mut().map(|r| &mut r[dp.node.0]);
                Action::from_index(choose(self.batches[b].logits(job, row), rng))
            };
            sim.apply(action);
            self.report.decisions += 1;
            if let Some(t0) = self.starts[e].take() {
                record_span_since(SpanKind::ServeDecision, t0);
            }
        }
    }

    /// What the status board shows: the running report, live episodes,
    /// which groups are up, and the episodes' flow totals.
    fn status(&self) -> FabricStatus {
        let total = |count: fn(&Metrics) -> u64| self.sims.iter().map(|s| count(s.metrics())).sum();
        FabricStatus {
            report: self.report.clone(),
            live_episodes: self.live.iter().filter(|&&l| l).count() as u64,
            alive: self.groups.iter().map(|g| g.up).collect(),
            flows_arrived: total(|m| m.arrived),
            flows_completed: total(|m| m.completed),
            flows_dropped: total(Metrics::dropped_total),
        }
    }

    /// Publishes the final status, asserts conservation, folds the
    /// report's series into the obs registry, and returns each episode's
    /// metrics with the report.
    fn finish(self) -> (Vec<Metrics>, ServeReport) {
        if let Some(board) = &self.cfg.status {
            board.publish(self.status());
        }
        let r = self.report;
        assert!(r.conserved(), "decision conservation violated: {r:?}");
        registry::count(CounterKind::ServeDecisions, r.decisions);
        registry::count(CounterKind::ServeFallbacks, r.fallback_decisions);
        registry::count(CounterKind::ServeSwaps, r.swaps);
        (self.sims.iter().map(|s| s.metrics().clone()).collect(), r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dosco_nn::mlp::{Activation, Mlp};

    fn policy(degree: usize) -> CoordinationPolicy {
        let mut rng = StdRng::seed_from_u64(5);
        let actor = Mlp::new(
            &[4 * degree + 4, 16, degree + 1],
            Activation::Tanh,
            &mut rng,
        );
        CoordinationPolicy::new(actor, degree, PolicyMetadata::default())
    }

    #[test]
    fn config_validation() {
        assert!(ServeConfig::new(1).validate().is_ok());
        assert!(ServeConfig::new(0).validate().is_err());
    }

    #[test]
    fn partition_is_total_and_balanced() {
        let shards = 4;
        let mut counts = vec![0usize; shards];
        for node in 0..11 {
            counts[shard_of(node, shards)] += 1;
        }
        assert_eq!(counts.iter().sum::<usize>(), 11);
        assert!(counts.iter().all(|&c| c >= 2), "{counts:?}");
        // Stable: the partition never depends on anything but node id.
        assert_eq!(shard_of(7, 4), 3);
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

    /// A policy with a non-finite parameter (one diverged publish) has
    /// no answer for any row: every group is written off at its first
    /// forward and every decision falls back. Greedy on two groups and
    /// stochastic on one; neither panics the caller.
    #[test]
    fn diverged_policy_falls_back_instead_of_panicking() {
        let scenario = ScenarioConfig::paper_base(2).with_horizon(200.0);
        let degree = scenario.topology.network_degree();
        let mut actor = policy(degree).actor().clone();
        let x = dosco_nn::matrix::Matrix::from_fn(1, actor.inputs(), |_, c| 0.1 * c as f32);
        let cache = actor.forward_cached(&x);
        let grads = actor.backward(
            &cache,
            &dosco_nn::matrix::Matrix::from_fn(1, degree + 1, |_, _| 1.0),
        );
        actor.apply_update(&grads, f32::INFINITY);
        let diverged = CoordinationPolicy::new(actor, degree, PolicyMetadata::default());
        for cfg in [
            ServeConfig::new(2),
            ServeConfig::new(1).with_stochastic_seed(7),
        ] {
            let out = serve(&diverged, None, &scenario, &[1, 2], &cfg);
            let r = &out.report;
            assert!(r.decisions > 0, "{cfg:?}");
            assert!(r.conserved(), "{cfg:?}");
            assert_eq!(r.batched_decisions, 0, "{cfg:?}");
            assert_eq!(r.fallback_decisions, r.decisions, "{cfg:?}");
        }
    }

    /// A NaN in one row's observation makes that row's logits NaN, in
    /// the part the calling thread forwards or in the part the helper
    /// thread forwards: the row's group is written off at once, every
    /// row it had that epoch falls back, the other group's rows are
    /// answered, and the written-off group never answers again.
    #[test]
    fn a_non_finite_logit_in_either_half_writes_its_group_off() {
        let scenario = ScenarioConfig::paper_base(2).with_horizon(200.0);
        let p = policy(scenario.topology.network_degree());
        let cfg = ServeConfig::new(2).with_stochastic_seed(3);
        let seeds: Vec<u64> = (0..16).collect();
        for back in [false, true] {
            let mut sims = cfg.episodes(&scenario, &seeds);
            let helper = Helper::always_forking(Part::default());
            let mut f = Fabric::new(&p, None, &mut sims, &cfg, &helper);
            f.boundary();
            assert!(f.collect());
            let b = f.helped.expect("16 rows on one policy are helped");
            let batch = &mut f.batches[b];
            let poisoned = if back { batch.rows - 1 } else { 0 };
            match poisoned.checked_sub(batch.front) {
                Some(r) => helper.job().x.row_mut(r)[0] = f32::NAN,
                None => batch.part.x.row_mut(poisoned)[0] = f32::NAN,
            }
            let g = f
                .routed
                .iter()
                .flatten()
                .find(|&&(_, batch, row)| batch == b && row == poisoned)
                .map(|(dp, _, _)| shard_of(dp.node.0, 2))
                .expect("the poisoned row is routed");
            let rows = [f.groups[0].rows as u64, f.groups[1].rows as u64];
            let job = f.forward();
            f.settle(&job);
            drop(job);
            let r = &f.report;
            assert_eq!(r.shard_disconnects, 1, "back {back}");
            assert_eq!(r.shard_fallback[g], rows[g], "back {back}");
            assert_eq!(r.shard_batched[1 - g], rows[1 - g], "back {back}");
            assert_eq!(r.shard_batched[g], 0, "back {back}");
            assert!(f.groups[g].dead && !f.groups[g].up);
            f.report.epochs += 1;
            let (_, r) = f.run(&mut |_| {});
            assert!(r.conserved(), "{r:?}");
            assert_eq!(r.shard_disconnects, 1, "{r:?}");
            assert_eq!(r.shard_batched[g], 0, "{r:?}");
            assert!(r.shard_fallback[g] > rows[g], "{r:?}");
            assert!(r.shard_batched[1 - g] > rows[1 - g], "{r:?}");
        }
    }

    /// A serve run on a worker of a `fan_out` whose workers fill every
    /// core forwards the helper's part inline: the rows still count as
    /// helped, and no helper thread starts.
    #[test]
    fn a_serve_on_a_saturating_fan_out_worker_forwards_the_helpers_part_inline() {
        let scenario = ScenarioConfig::paper_base(2).with_horizon(200.0);
        let p = policy(scenario.topology.network_degree());
        let cfg = ServeConfig::new(1);
        let seeds: Vec<u64> = (0..16).collect();
        let workers = vec![(); dosco_nn::fork::cores()];
        let runs = dosco_nn::fork::fan_out(&workers, |()| {
            let mut sims = cfg.episodes(&scenario, &seeds);
            let helper = Helper::default();
            let (_, r) = Fabric::new(&p, None, &mut sims, &cfg, &helper).run(&mut |_| {});
            (r.helped_rows, helper.started())
        });
        for (helped_rows, started) in runs {
            assert!(helped_rows > 0);
            assert!(!started);
        }
    }

    #[test]
    #[should_panic(expected = "at least one episode")]
    fn rejects_empty_episode_list() {
        let scenario = ScenarioConfig::paper_base(1);
        let p = policy(scenario.topology.network_degree());
        serve(&p, None, &scenario, &[], &ServeConfig::new(1));
    }

    /// A fault window on a shard the fabric does not have would never
    /// fire; the shard count it is checked against is the clamped one.
    #[test]
    #[should_panic(expected = "fault script names shard 11, but the fabric has 11 shards")]
    fn rejects_fault_windows_on_shards_the_fabric_does_not_have() {
        let scenario = ScenarioConfig::paper_base(1).with_horizon(100.0);
        let p = policy(scenario.topology.network_degree());
        let cfg = ServeConfig::new(20).with_faults(FaultScript::new().kill(11, 0, 5));
        serve(&p, None, &scenario, &[3], &cfg);
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

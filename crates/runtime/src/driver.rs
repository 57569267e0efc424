//! The actor–learner training driver: env sharding, actor threads, the
//! learner loop, staleness gating, and graceful shutdown.
//!
//! Thread topology of one [`train`] call:
//!
//! ```text
//!  actor 0 ──┐  bounded Tx/Rx (ExperienceBatch) ┌────────────┐
//!  actor 1 ──┼──────────────────────────────────▶│  learner   │
//!  actor N ──┘                                   │ (caller's  │
//!      ▲                                         │  thread)   │
//!      │   PolicySlot (Arc<PolicySnapshot>)      └────────────┘
//!      └────────── versioned broadcast ◀───────────────┘
//! ```
//!
//! The channels are [`dosco_net`] transport channels: [`train`] wires the
//! planes over [`InProcess`] (the original bounded crossbeam channels —
//! bit-identical by construction), while [`train_with_transport`] accepts
//! any [`Transport`] — e.g. `dosco_net::SocketLoopback`, which routes every
//! batch through the framed binary codec over real TCP sockets, or the
//! multi-process deployment in [`crate::remote`].
//!
//! Staleness is bounded by a stale-synchronous-parallel gate: every actor
//! keeps a batch clock (completed sends), and before collecting it blocks
//! until its clock is within [`RuntimeConfig::round_skew`] rounds of the
//! slowest live actor. The learner additionally asserts, on every batch it
//! consumes, that the batch's snapshot version lags its own by at most
//! [`RuntimeConfig::max_staleness`]. (Socket transports buffer up to their
//! stated capacity on *each* end plus whatever the kernel holds, so async
//! deployments over sockets should budget `max_staleness` with headroom;
//! sync mode is lockstep and unaffected.)
//!
//! Shutdown (normal or panicking) always follows the same sequence: close
//! the slot and the clock gate (via a drop guard, so learner panics take
//! the same path), drop the sync-mode return channel, drain the experience
//! channel until every sender disconnects, join all actors, and re-raise
//! the first actor panic.

use crate::config::{Mode, RuntimeConfig};
use crate::counters::{Counters, RuntimeReport};
use crate::snapshot::{PolicySlot, PolicySnapshot};
use crate::wire::{ExperienceBatch, SyncReply};
use crossbeam::channel::{SendError, TrySendError};
use dosco_net::{InProcess, Rx, Transport, Tx};
use dosco_rl::a2c::TrainStats;
use dosco_rl::env::Env;
use dosco_rl::learner::{decayed_lr, CollectParams, Learner};
use dosco_rl::rollout::{Rollout, RolloutCollector};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

/// The outcome of one runtime training run.
#[derive(Debug, Clone, PartialEq)]
pub struct RuntimeOutcome {
    /// Per-update training statistics (same shape as the serial loops').
    pub stats: TrainStats,
    /// Runtime counters at shutdown.
    pub report: RuntimeReport,
}

/// Per-actor batch clocks implementing the stale-synchronous-parallel
/// gate. `u64::MAX` marks an exited actor so survivors are never gated on
/// a dead peer.
struct Clocks {
    state: Mutex<ClockState>,
    cond: Condvar,
}

struct ClockState {
    clocks: Vec<u64>,
    closed: bool,
}

impl Clocks {
    fn new(n: usize) -> Self {
        Clocks {
            state: Mutex::new(ClockState {
                clocks: vec![0; n],
                closed: false,
            }),
            cond: Condvar::new(),
        }
    }

    /// Blocks actor `idx` until its clock is within `skew` of the slowest
    /// live actor (the SSP condition). Returns `false` once the runtime
    /// closed. The slowest actor always passes, so progress is guaranteed.
    fn wait_turn(&self, idx: usize, skew: u64, counters: &Counters) -> bool {
        let mut st = self.state.lock().expect("clock lock poisoned");
        let mut waited = false;
        loop {
            if st.closed {
                return false;
            }
            let me = st.clocks[idx];
            let min = st
                .clocks
                .iter()
                .copied()
                .filter(|&c| c != u64::MAX)
                .min()
                .unwrap_or(me);
            if me.saturating_sub(min) <= skew {
                return true;
            }
            if !waited {
                waited = true;
                Counters::inc(&counters.gate_waits);
            }
            st = self.cond.wait(st).expect("clock lock poisoned");
        }
    }

    fn advance(&self, idx: usize) {
        self.state.lock().expect("clock lock poisoned").clocks[idx] += 1;
        self.cond.notify_all();
    }

    fn finish(&self, idx: usize) {
        self.state.lock().expect("clock lock poisoned").clocks[idx] = u64::MAX;
        self.cond.notify_all();
    }

    fn close(&self) {
        self.state.lock().expect("clock lock poisoned").closed = true;
        self.cond.notify_all();
    }
}

/// Closes the policy slot and the clock gate when the learner section
/// exits — normally or by panic — so actors always wake up and drain.
struct CloseGuard<'a> {
    slot: &'a PolicySlot,
    clocks: &'a Clocks,
}

impl Drop for CloseGuard<'_> {
    fn drop(&mut self) {
        self.slot.close();
        self.clocks.close();
    }
}

/// Marks an actor's clock finished on exit (including panic) so surviving
/// actors are not gated on a dead peer.
struct ClockGuard<'a> {
    clocks: &'a Clocks,
    idx: usize,
}

impl Drop for ClockGuard<'_> {
    fn drop(&mut self) {
        self.clocks.finish(self.idx);
    }
}

/// State shared read-only with every actor thread.
struct ActorShared<'a> {
    params: CollectParams,
    skew: u64,
    slot: &'a PolicySlot,
    clocks: &'a Clocks,
    counters: &'a Counters,
}

/// One rollout actor: collect under the current snapshot, send, advance
/// the clock; in sync mode (`ret_rx` present) additionally circulate the
/// agent RNG and wait for the learner's reply before the next batch.
/// Returns the RNG if this actor still holds it at exit.
fn actor_loop(
    shared: &ActorShared<'_>,
    idx: usize,
    envs: &mut [Box<dyn Env>],
    tx: &dyn Tx<ExperienceBatch>,
    mut rng_holder: Option<StdRng>,
    ret_rx: Option<&dyn Rx<SyncReply>>,
) -> Option<StdRng> {
    let circulate = ret_rx.is_some();
    let mut collector = RolloutCollector::new(envs);
    let mut snap = shared.slot.latest();
    loop {
        if shared.slot.is_closed() {
            return rng_holder;
        }
        if !shared.clocks.wait_turn(idx, shared.skew, shared.counters) {
            return rng_holder;
        }
        if !circulate {
            // Async: pick up the latest snapshot at the batch boundary.
            snap = shared.slot.latest();
        }
        let mut rng = rng_holder.take().expect("actor holds an RNG when collecting");
        let rollout = collector.collect(
            envs,
            &snap.actor,
            &snap.critic,
            shared.params.n_steps,
            shared.params.gamma,
            shared.params.gae_lambda,
            &mut rng,
        );
        let batch_rng = if circulate {
            Some(rng) // travels to the learner's update, comes back below
        } else {
            rng_holder = Some(rng);
            None
        };
        let msg = ExperienceBatch {
            rollout,
            version: snap.version,
            rng: batch_rng,
        };
        let version = msg.version;
        // try_send first so full-channel backpressure is observable.
        let msg = match tx.try_send(msg) {
            Ok(()) => None,
            Err(TrySendError::Full(m)) => {
                Counters::inc(&shared.counters.channel_full_stalls);
                Some(m)
            }
            Err(TrySendError::Disconnected(m)) => return rng_holder.or(m.rng),
        };
        if let Some(m) = msg {
            // The blocking fallback is the channel-send wait worth
            // measuring; the try_send fast path never blocks.
            let wait = Instant::now();
            let sent = tx.send(m);
            let ns = u64::try_from(wait.elapsed().as_nanos()).unwrap_or(u64::MAX);
            Counters::add_ns(&shared.counters.send_wait_ns, ns);
            dosco_obs::registry::record_span_ns(dosco_obs::SpanKind::ChannelSend, ns);
            if let Err(SendError(m)) = sent {
                return rng_holder.or(m.rng);
            }
        }
        Counters::inc(&shared.counters.batches_produced);
        dosco_obs::emit(dosco_obs::Stream::actor(idx as u64), || {
            dosco_obs::Event::BatchProduced {
                actor: idx as u64,
                version,
                transitions: (shared.params.n_steps * envs.len()) as u64,
            }
        });
        shared.clocks.advance(idx);
        if let Some(ret) = ret_rx {
            match ret.recv() {
                Ok(reply) => {
                    snap = reply.snapshot;
                    rng_holder = Some(reply.rng);
                }
                // Learner finished and kept the RNG.
                Err(_) => return None,
            }
        }
    }
}

/// The learner's consume→update→publish loop, shared verbatim by the
/// in-process driver and the multi-process learner ([`crate::remote`]) so
/// the two paths cannot drift arithmetically: transport and broadcast are
/// injected (`rx`, `publish`, `reply`), everything numeric lives here.
///
/// `reply` carries the sync-mode lockstep response; it returns the RNG on
/// failure (actor gone), which ends the loop. `cancel`, when set, stops
/// the loop at the next batch boundary.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_learner_loop<L: Learner + ?Sized>(
    learner: &mut L,
    rx: &dyn Rx<ExperienceBatch>,
    config: &RuntimeConfig,
    total_steps: usize,
    counters: &Counters,
    final_rng: &mut Option<StdRng>,
    cancel: Option<&AtomicBool>,
    mut publish: impl FnMut(Arc<PolicySnapshot>),
    mut reply: impl FnMut(Arc<PolicySnapshot>, StdRng) -> Result<(), StdRng>,
) -> TrainStats {
    let base_lr = learner.lr_schedule();
    let mut stats = TrainStats::default();
    let mut version = 0u64;
    'learn: while stats.total_steps < total_steps {
        if cancel.is_some_and(|c| c.load(Ordering::Relaxed)) {
            break 'learn;
        }
        let mut merged: Option<Rollout> = None;
        let mut circ_rng: Option<StdRng> = None;
        for _ in 0..config.minibatch_batches {
            let wait = Instant::now();
            let received = rx.recv();
            let ns = u64::try_from(wait.elapsed().as_nanos()).unwrap_or(u64::MAX);
            Counters::add_ns(&counters.recv_wait_ns, ns);
            dosco_obs::registry::record_span_ns(dosco_obs::SpanKind::ChannelRecv, ns);
            match received {
                Ok(batch) => {
                    Counters::inc(&counters.batches_consumed);
                    let staleness = version - batch.version;
                    counters.record_staleness(staleness);
                    dosco_obs::registry::observe(
                        dosco_obs::HistKind::Staleness,
                        staleness as f64,
                    );
                    dosco_obs::emit(dosco_obs::Stream::learner(), || {
                        dosco_obs::Event::BatchConsumed {
                            version: batch.version,
                            learner_version: version,
                            staleness,
                        }
                    });
                    assert!(
                        staleness <= config.max_staleness,
                        "staleness bound violated: batch from version {} consumed \
                         at version {version} (bound {})",
                        batch.version,
                        config.max_staleness
                    );
                    if batch.rng.is_some() {
                        circ_rng = batch.rng;
                    }
                    merged = Some(match merged {
                        None => batch.rollout,
                        Some(mut m) => {
                            m.append(&batch.rollout);
                            m
                        }
                    });
                }
                // Every actor exited (shutdown race or panic):
                // update on what arrived, then stop.
                Err(_) => break,
            }
        }
        let Some(mut rollout) = merged else {
            break 'learn;
        };
        if let Some(base) = base_lr {
            learner.set_lr(decayed_lr(base, stats.total_steps, total_steps));
        }
        {
            let _span = dosco_obs::span(dosco_obs::SpanKind::LearnerUpdate);
            let rng = circ_rng
                .as_mut()
                .or(final_rng.as_mut())
                .expect("learner always has an update RNG");
            learner.update_batch(&mut rollout, rng);
        }
        version += 1;
        Counters::inc(&counters.snapshots_published);
        stats.mean_rewards.push(rollout.mean_reward());
        stats.total_steps += rollout.actions.len();
        let publish_start = Instant::now();
        let snap = Arc::new(PolicySnapshot {
            version,
            actor: learner.actor().clone(),
            critic: learner.critic().clone(),
        });
        publish(Arc::clone(&snap));
        let publish_ns = u64::try_from(publish_start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        Counters::add_ns(&counters.publish_ns, publish_ns);
        dosco_obs::registry::record_span_ns(dosco_obs::SpanKind::SnapshotPublish, publish_ns);
        dosco_obs::emit(dosco_obs::Stream::learner(), || {
            dosco_obs::Event::SnapshotPublished {
                version,
                total_steps: stats.total_steps as u64,
            }
        });
        if let Some(r) = circ_rng.take() {
            // Sync lockstep: hand snapshot + RNG back — except after
            // the final update, so the actor collects no extra batch.
            if stats.total_steps >= total_steps {
                *final_rng = Some(r);
            } else if let Err(r) = reply(snap, r) {
                *final_rng = Some(r);
                break 'learn;
            }
        }
    }
    stats
}

/// Trains `learner` for (at least) `total_steps` environment transitions
/// across `envs` using the actor–learner runtime over the in-process
/// transport. In [`Mode::Sync`] the result — trained weights, statistics,
/// and the agent's RNG stream — is bit-identical to the algorithm's own
/// serial `train` loop; in [`Mode::Async`] collection and learning
/// overlap, with policy staleness bounded by
/// [`RuntimeConfig::max_staleness`].
///
/// # Panics
///
/// Panics if the configuration is invalid, `envs` is empty, the observed
/// staleness ever exceeds the configured bound, or any actor thread
/// panics (the panic is re-raised after shutdown).
pub fn train<L: Learner + ?Sized>(
    learner: &mut L,
    envs: &mut [Box<dyn Env>],
    total_steps: usize,
    config: &RuntimeConfig,
) -> RuntimeOutcome {
    train_inner(learner, envs, total_steps, config, &InProcess, None)
}

/// [`train`] over an arbitrary [`Transport`]: every experience batch and
/// sync-mode reply crosses a channel opened by `transport`, so e.g.
/// `dosco_net::SocketLoopback` runs the identical dataflow through framed,
/// checksummed TCP streams. With [`dosco_net::InProcess`] this *is*
/// [`train`].
///
/// # Panics
///
/// As [`train`].
pub fn train_with_transport<L, Tr>(
    learner: &mut L,
    envs: &mut [Box<dyn Env>],
    total_steps: usize,
    config: &RuntimeConfig,
    transport: &Tr,
) -> RuntimeOutcome
where
    L: Learner + ?Sized,
    Tr: Transport<ExperienceBatch> + Transport<SyncReply>,
{
    train_inner(learner, envs, total_steps, config, transport, None)
}

/// [`train`] with a cooperative cancellation flag: setting `cancel` stops
/// the learner at the next batch boundary, after which shutdown proceeds
/// exactly as a normal completion (drain, join, RNG restore). Used by the
/// `dosco_ctl` job-control surface.
///
/// # Panics
///
/// As [`train`].
pub fn train_cancellable<L: Learner + ?Sized>(
    learner: &mut L,
    envs: &mut [Box<dyn Env>],
    total_steps: usize,
    config: &RuntimeConfig,
    cancel: &AtomicBool,
) -> RuntimeOutcome {
    train_inner(learner, envs, total_steps, config, &InProcess, Some(cancel))
}

fn train_inner<L, Tr>(
    learner: &mut L,
    envs: &mut [Box<dyn Env>],
    total_steps: usize,
    config: &RuntimeConfig,
    transport: &Tr,
    cancel: Option<&AtomicBool>,
) -> RuntimeOutcome
where
    L: Learner + ?Sized,
    Tr: Transport<ExperienceBatch> + Transport<SyncReply>,
{
    config.validate().expect("invalid runtime configuration");
    assert!(!envs.is_empty(), "need at least one environment");

    let sync = config.mode == Mode::Sync;
    let requested = if sync { 1 } else { config.n_actors.min(envs.len()) };
    let shard = envs.len().div_ceil(requested);
    let n_actors = envs.len().div_ceil(shard);
    let params = learner.collect_params();
    let skew = if sync { 0 } else { config.round_skew() };

    let counters = Counters::default();
    let clocks = Clocks::new(n_actors);
    let slot = PolicySlot::new(PolicySnapshot {
        version: 0,
        actor: learner.actor().clone(),
        critic: learner.critic().clone(),
    });
    let agent_rng = learner.take_rng();
    let (tx, rx) = Transport::<ExperienceBatch>::channel(transport, config.channel_capacity);
    // Sync-mode reply channel carrying (snapshot, RNG) back to the actor.
    let ret_pair = if sync {
        let (t, r) = Transport::<SyncReply>::channel(transport, 1);
        (Some(t), Some(r))
    } else {
        (None, None)
    };
    let shared = ActorShared {
        params,
        skew,
        slot: &slot,
        clocks: &clocks,
        counters: &counters,
    };

    let (stats, final_rng) = std::thread::scope(|s| {
        let shared = &shared;
        let (ret_tx_opt, mut ret_rx_opt) = ret_pair;
        let mut agent_rng_opt = Some(agent_rng);
        let mut handles = Vec::with_capacity(n_actors);
        for (idx, shard_envs) in envs.chunks_mut(shard).enumerate() {
            let tx = tx.clone_box();
            let rng = if sync {
                agent_rng_opt.take().expect("sync mode runs one actor")
            } else {
                // Independent per-actor streams derived from the base seed.
                StdRng::seed_from_u64(
                    config
                        .actor_seed
                        .wrapping_add((idx as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) + 1),
                )
            };
            let ret_rx = ret_rx_opt.take();
            handles.push(s.spawn(move || {
                let _clock_guard = ClockGuard {
                    clocks: shared.clocks,
                    idx,
                };
                actor_loop(shared, idx, shard_envs, tx.as_ref(), Some(rng), ret_rx.as_deref())
            }));
        }
        drop(tx); // channel disconnect now tracks the actors alone

        // Holds the agent RNG whenever neither an actor nor an in-flight
        // batch does: the whole stream in async mode, the post-final-update
        // stream in sync mode.
        let mut final_rng = agent_rng_opt;
        let stats;
        {
            let _close = CloseGuard {
                slot: &slot,
                clocks: &clocks,
            };
            stats = run_learner_loop(
                learner,
                rx.as_ref(),
                config,
                total_steps,
                &counters,
                &mut final_rng,
                cancel,
                |snap| slot.publish(snap),
                |snap, rng| {
                    let ret_tx = ret_tx_opt
                        .as_ref()
                        .expect("a circulating RNG implies sync mode");
                    ret_tx
                        .send(SyncReply {
                            snapshot: snap,
                            rng,
                        })
                        .map_err(|SendError(reply)| reply.rng)
                },
            );
            drop(ret_tx_opt); // unblock a sync actor waiting for its reply
        } // CloseGuard: slot + clock gate close (also on learner panic)

        // Drain in-flight batches (frees blocked senders) until the last
        // sender disconnects; recover a circulating RNG if one is queued.
        while let Ok(batch) = rx.recv() {
            Counters::inc(&counters.batches_drained);
            if batch.rng.is_some() {
                final_rng = batch.rng;
            }
        }
        // Join every actor; re-raise the first panic after all joined.
        let mut panic: Option<Box<dyn std::any::Any + Send>> = None;
        for h in handles {
            match h.join() {
                Ok(Some(r)) => final_rng = Some(r),
                Ok(None) => {}
                Err(p) => {
                    panic.get_or_insert(p);
                }
            }
        }
        if let Some(p) = panic {
            std::panic::resume_unwind(p);
        }
        (stats, final_rng)
    });

    learner.restore_rng(final_rng.expect("the runtime recovers the agent RNG at shutdown"));
    RuntimeOutcome {
        report: counters.report(config.mode.name(), n_actors, config.max_staleness),
        stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_gate_blocks_fast_actors_only() {
        let clocks = Clocks::new(2);
        let counters = Counters::default();
        // Both at 0: either passes at skew 0.
        assert!(clocks.wait_turn(0, 0, &counters));
        assert!(clocks.wait_turn(1, 0, &counters));
        clocks.advance(0); // actor 0 now one round ahead
        assert!(clocks.wait_turn(1, 0, &counters), "slowest always passes");
        assert!(clocks.wait_turn(0, 1, &counters), "within skew 1 passes");
        // At skew 0 actor 0 would block — verify via a closed gate instead
        // of a real wait: close wakes and rejects.
        clocks.close();
        assert!(!clocks.wait_turn(0, 0, &counters));
    }

    #[test]
    fn finished_actors_do_not_gate_survivors() {
        let clocks = Clocks::new(2);
        let counters = Counters::default();
        clocks.advance(0);
        clocks.advance(0);
        clocks.finish(1); // actor 1 exits at clock 0
        assert!(
            clocks.wait_turn(0, 0, &counters),
            "dead peers are excluded from the minimum"
        );
    }
}

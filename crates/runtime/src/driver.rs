//! The actor–learner training driver: the actor thread, the learner loop,
//! and graceful shutdown.
//!
//! Thread topology of one [`train`] call:
//!
//! ```text
//!            ExperienceBatch (rollout + agent RNG)
//!  actor ───────────────────────────────────────▶ learner
//!  (one     ◀─────────────────────────────────────  (caller's
//!   thread)      SyncReply (snapshot + agent RNG)    thread)
//! ```
//!
//! The two run in lockstep: the actor collects one batch under the
//! snapshot it holds, lets go of the snapshot, and ships the batch with
//! the agent's RNG; the learner updates, copies the next version into
//! that same snapshot, and hands it and the RNG back. At most one batch is
//! ever in flight, so both channels have capacity 1, and every batch is
//! collected under the learner's current version.
//!
//! The channels are [`dosco_net`] transport channels: [`train`] wires
//! them over [`InProcess`] (bounded crossbeam channels), while
//! [`train_with_transport`] accepts any [`Transport`] — e.g.
//! `dosco_net::SocketLoopback`, which routes every message through the
//! framed binary codec over real TCP sockets.
//!
//! Shutdown (normal or panicking) always follows the same
//! sequence: drop the reply channel (unblocking an actor waiting for its
//! reply), drain the experience channel until the actor disconnects
//! (recovering the RNG from a batch still in flight), join the actor, and
//! re-raise its panic.

use crate::config::RuntimeConfig;
use crate::counters::{Counters, RuntimeReport};
use crate::snapshot::PolicySnapshot;
use crate::wire::{ExperienceBatch, SyncReply};
use crossbeam::channel::SendError;
use dosco_net::{InProcess, Rx, Transport, Tx};
use dosco_rl::a2c::TrainStats;
use dosco_rl::env::Env;
use dosco_rl::learner::{decayed_lr, CollectParams, Learner};
use dosco_rl::rollout::RolloutCollector;
use rand::rngs::StdRng;
use std::sync::Arc;
use std::time::Instant;

/// The outcome of one runtime training run.
#[derive(Debug, Clone, PartialEq)]
pub struct RuntimeOutcome {
    /// Per-update training statistics (same shape as the serial loops').
    pub stats: TrainStats,
    /// Runtime counters at shutdown.
    pub report: RuntimeReport,
}

fn elapsed_ns(since: Instant) -> u64 {
    u64::try_from(since.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// The rollout actor: collect under the current snapshot, send the batch
/// with the agent RNG, wait for the learner's reply. Returns the RNG if
/// it still holds it at exit.
fn actor_loop(
    params: CollectParams,
    counters: &Counters,
    envs: &mut [Box<dyn Env>],
    tx: &dyn Tx<ExperienceBatch>,
    ret: &dyn Rx<SyncReply>,
    mut snap: Arc<PolicySnapshot>,
    mut rng: StdRng,
) -> Option<StdRng> {
    let mut collector = RolloutCollector::new(envs);
    loop {
        let rollout = collector.collect(
            envs,
            &snap.actor,
            &snap.critic,
            params.n_steps,
            params.gamma,
            params.gae_lambda,
            &mut rng,
        );
        let version = snap.version;
        // Let go of the snapshot before the batch leaves, so the learner
        // can copy the next version into it.
        drop(snap);
        let wait = Instant::now();
        let sent = tx.send(ExperienceBatch {
            rollout,
            version,
            rng: Some(rng),
        });
        let ns = elapsed_ns(wait);
        Counters::add_ns(&counters.send_wait_ns, ns);
        if dosco_obs::spans_enabled() {
            dosco_obs::registry::record_span_ns(dosco_obs::SpanKind::ChannelSend, ns);
        }
        if let Err(SendError(batch)) = sent {
            return batch.rng;
        }
        Counters::inc(&counters.batches_produced);
        dosco_obs::emit(dosco_obs::Stream::actor(), || {
            dosco_obs::Event::BatchProduced {
                version,
                transitions: (params.n_steps * envs.len()) as u64,
            }
        });
        match ret.recv() {
            Ok(reply) => {
                snap = reply.snapshot;
                rng = reply.rng;
            }
            // Learner finished and kept the RNG.
            Err(_) => return None,
        }
    }
}

/// Checks a received batch against the lockstep protocol before the
/// update indexes it: a batch that crossed a transport is untrusted input.
fn check_batch<L: Learner + ?Sized>(
    batch: &ExperienceBatch,
    version: u64,
    learner: &L,
) -> Result<(), String> {
    if batch.version != version {
        return Err(format!(
            "batch collected under version {} arrived at learner version {version}",
            batch.version
        ));
    }
    let r = &batch.rollout;
    let rows = r.n_envs.checked_mul(r.n_steps).filter(|&n| n > 0);
    let lens = [
        r.obs.rows(),
        r.actions.len(),
        r.rewards.len(),
        r.dones.len(),
        r.values.len(),
        r.returns.len(),
        r.advantages.len(),
    ];
    if r.n_steps != learner.collect_params().n_steps || lens.iter().any(|&l| Some(l) != rows) {
        return Err(format!(
            "rollout rows disagree: {} envs x {} steps, field lengths {lens:?}",
            r.n_envs, r.n_steps
        ));
    }
    let actor = learner.actor();
    if r.obs.cols() != actor.inputs() || r.actions.iter().any(|&a| a >= actor.outputs()) {
        return Err(format!(
            "rollout does not fit the policy: {}-wide observations, actions up to {:?}",
            r.obs.cols(),
            r.actions.iter().max()
        ));
    }
    Ok(())
}

/// The learner's consume→update→reply loop over whichever transport
/// [`train_inner`] opened: only the channels differ between transports.
///
/// Returns the statistics and the agent RNG if the learner kept it (after
/// the final update, or when the actor is gone).
///
/// # Errors
///
/// A description of the first batch that breaks the lockstep protocol
/// ([`check_batch`], or no agent RNG); the loop stops there.
fn run_learner_loop<L: Learner + ?Sized>(
    learner: &mut L,
    rx: &dyn Rx<ExperienceBatch>,
    ret: &dyn Tx<SyncReply>,
    total_steps: usize,
    counters: &Counters,
) -> Result<(TrainStats, Option<StdRng>), String> {
    let base_lr = learner.lr_schedule();
    let mut stats = TrainStats::default();
    let mut version = 0u64;
    // The snapshot last sent: the actor lets go of it before it ships the
    // batch that next reaches this loop, so each version is copied into
    // it and a steady cycle allocates no snapshot.
    let mut sent = None;
    while stats.total_steps < total_steps {
        let wait = Instant::now();
        let received = rx.recv();
        let ns = elapsed_ns(wait);
        Counters::add_ns(&counters.recv_wait_ns, ns);
        if dosco_obs::spans_enabled() {
            dosco_obs::registry::record_span_ns(dosco_obs::SpanKind::ChannelRecv, ns);
        }
        // The actor exited (shutdown race or panic): stop.
        let Ok(batch) = received else { break };
        check_batch(&batch, version, learner)?;
        let (mut rollout, Some(mut rng)) = (batch.rollout, batch.rng) else {
            return Err("batch carried no agent RNG".into());
        };
        Counters::inc(&counters.batches_consumed);
        dosco_obs::emit(dosco_obs::Stream::learner(), || {
            dosco_obs::Event::BatchConsumed { version }
        });
        if let Some(base) = base_lr {
            learner.set_lr(decayed_lr(base, stats.total_steps, total_steps));
        }
        {
            let _span = dosco_obs::span(dosco_obs::SpanKind::LearnerUpdate);
            learner.update_batch(&mut rollout, &mut rng);
        }
        version += 1;
        Counters::inc(&counters.snapshots_published);
        stats.mean_rewards.push(rollout.mean_reward());
        stats.total_steps += rollout.actions.len();
        let publish_start = Instant::now();
        let snapshot = publish(learner, version, sent.take());
        let publish_ns = elapsed_ns(publish_start);
        Counters::add_ns(&counters.publish_ns, publish_ns);
        if dosco_obs::spans_enabled() {
            dosco_obs::registry::record_span_ns(dosco_obs::SpanKind::SnapshotPublish, publish_ns);
        }
        dosco_obs::emit(dosco_obs::Stream::learner(), || {
            dosco_obs::Event::SnapshotPublished {
                version,
                total_steps: stats.total_steps as u64,
            }
        });
        // Hand snapshot + RNG back — except after the final update, so
        // the actor collects no extra batch.
        if stats.total_steps >= total_steps {
            return Ok((stats, Some(rng)));
        }
        let reply = SyncReply {
            snapshot: Arc::clone(&snapshot),
            rng,
        };
        if let Err(SendError(reply)) = ret.send(reply) {
            return Ok((stats, Some(reply.rng)));
        }
        sent = Some(snapshot);
    }
    Ok((stats, None))
}

/// `learner`'s networks at `version` as a snapshot, copied into `old`
/// when nothing else holds it, else into a fresh one.
fn publish<L: Learner + ?Sized>(
    learner: &L,
    version: u64,
    old: Option<Arc<PolicySnapshot>>,
) -> Arc<PolicySnapshot> {
    if let Some(mut snapshot) = old {
        if let Some(free) = Arc::get_mut(&mut snapshot) {
            free.version = version;
            free.actor.clone_from(learner.actor());
            free.critic.clone_from(learner.critic());
            return snapshot;
        }
    }
    Arc::new(PolicySnapshot {
        version,
        actor: learner.actor().clone(),
        critic: learner.critic().clone(),
    })
}

/// Consumes the batches still in flight until the actor disconnects,
/// returning the agent RNG if one of them carried it.
fn drain(rx: &dyn Rx<ExperienceBatch>, counters: &Counters) -> Option<StdRng> {
    let mut rng = None;
    while let Ok(batch) = rx.recv() {
        Counters::inc(&counters.batches_drained);
        rng = batch.rng.or(rng);
    }
    rng
}

/// Trains `learner` for (at least) `total_steps` environment transitions
/// across `envs` using the actor–learner runtime over the in-process
/// transport. The result — trained weights, statistics, and the agent's
/// RNG stream — is bit-identical to the algorithm's own serial `train`
/// loop.
///
/// # Panics
///
/// Panics if `envs` is empty or the actor thread panics (the panic is
/// re-raised after shutdown), or if the transport loses the message that
/// carries the agent RNG (the in-process channels never do).
pub fn train<L: Learner + ?Sized>(
    learner: &mut L,
    envs: &mut [Box<dyn Env>],
    total_steps: usize,
    _config: &RuntimeConfig,
) -> RuntimeOutcome {
    train_inner(learner, envs, total_steps, &InProcess)
}

/// [`train`] over an arbitrary [`Transport`]: every experience batch and
/// reply crosses a channel opened by `transport`, so e.g.
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
    _config: &RuntimeConfig,
    transport: &Tr,
) -> RuntimeOutcome
where
    L: Learner + ?Sized,
    Tr: Transport<ExperienceBatch> + Transport<SyncReply>,
{
    train_inner(learner, envs, total_steps, transport)
}

fn train_inner<L, Tr>(
    learner: &mut L,
    envs: &mut [Box<dyn Env>],
    total_steps: usize,
    transport: &Tr,
) -> RuntimeOutcome
where
    L: Learner + ?Sized,
    Tr: Transport<ExperienceBatch> + Transport<SyncReply>,
{
    assert!(!envs.is_empty(), "need at least one environment");
    let params = learner.collect_params();
    let counters = Counters::default();
    let snapshot = Arc::new(PolicySnapshot {
        version: 0,
        actor: learner.actor().clone(),
        critic: learner.critic().clone(),
    });
    let agent_rng = learner.take_rng();

    let (stats, final_rng) = std::thread::scope(|s| {
        // Both channel pairs live inside the scope, so a learner panic
        // drops them while unwinding and the actor wakes up and exits.
        let (tx, rx) = Transport::<ExperienceBatch>::channel(transport, 1);
        let (ret_tx, ret_rx) = Transport::<SyncReply>::channel(transport, 1);
        let counters = &counters;
        let actor = s.spawn(move || {
            actor_loop(
                params,
                counters,
                envs,
                tx.as_ref(),
                ret_rx.as_ref(),
                snapshot,
                agent_rng,
            )
        });
        let (stats, mut final_rng) =
            run_learner_loop(learner, rx.as_ref(), ret_tx.as_ref(), total_steps, counters)
                .unwrap_or_else(|e| panic!("lockstep protocol violated: {e}"));
        drop(ret_tx); // unblock an actor waiting for its reply
        final_rng = drain(rx.as_ref(), counters).or(final_rng);
        match actor.join() {
            Ok(rng) => final_rng = rng.or(final_rng),
            Err(p) => std::panic::resume_unwind(p),
        }
        (stats, final_rng)
    });

    #[allow(
        clippy::expect_used,
        reason = "the documented # Panics contract of train"
    )]
    learner.restore_rng(final_rng.expect("the runtime recovers the agent RNG at shutdown"));
    RuntimeOutcome {
        report: counters.report(),
        stats,
    }
}

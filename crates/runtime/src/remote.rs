//! Multi-process actor–learner deployment over `dosco_net` sockets.
//!
//! The learner process binds a [`TcpListener`] and runs [`run_learner`]:
//! it accepts the actor, opens the `dosco_net` session with a
//! [`LearnerHello`] (collect params, initial snapshot, agent RNG state),
//! then runs the *same* `run_learner_loop` the in-process driver uses.
//! The actor process runs [`run_actor`]: dial the session, then the
//! in-process actor loop over the socket. One TCP stream carries both
//! directions (the hello and [`SyncReply`](crate::SyncReply)s one way,
//! [`ExperienceBatch`](crate::ExperienceBatch)es the other) in lockstep, one message in flight each way, exactly as
//! in-process, so a deployment over loopback is bit-identical to
//! [`crate::train`] (pinned by test). Each side treats the other as
//! untrusted: a batch that breaks the lockstep protocol, or a hello whose
//! networks do not fit the actor's environments, is a
//! [`NetError::Protocol`], never a panic.

use std::net::TcpListener;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use dosco_net::{dial_session, open_session, NetConfig, NetError};
use dosco_rl::env::Env;
use dosco_rl::learner::Learner;
use rand::rngs::StdRng;

use crate::counters::Counters;
use crate::driver::{actor_loop, drain, run_learner_loop, RuntimeOutcome};
use crate::snapshot::PolicySnapshot;
use crate::wire::LearnerHello;

/// Messages in flight per direction: the lockstep exchange has at most one.
const CAPACITY: usize = 1;

/// Accepts one actor connection on `listener`, hands it the session
/// hello, and trains for `total_steps` transitions exactly as
/// [`crate::train`] would — same learner loop, same counters, same
/// shutdown drain (a batch in flight is consumed until the actor
/// disconnects, recovering the agent RNG from it).
///
/// `cancel`, when provided, stops the learner at the next batch boundary.
///
/// # Errors
///
/// [`NetError`] if accepting or the handshake fails, if the actor sends a
/// batch that breaks the lockstep protocol (no RNG, a version other than
/// the learner's, or a rollout whose fields disagree in length or do not
/// fit the policy), or if it disconnects holding the agent RNG. The
/// learner's RNG is not recovered on error.
pub fn run_learner<L: Learner>(
    listener: &TcpListener,
    learner: &mut L,
    total_steps: usize,
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
    let (stream, _) = listener
        .accept()
        .map_err(|e| NetError::Protocol(format!("accept actor connection: {e}")))?;
    // `batches` drops first on an error return: shutting the socket down
    // unblocks a reply write the actor never reads.
    let (replies, batches) = open_session(stream, &hello, CAPACITY)?;
    let counters = Counters::default();
    let (stats, final_rng) = run_learner_loop(
        learner,
        batches.as_ref(),
        replies.as_ref(),
        total_steps,
        &counters,
        cancel,
    )
    .map_err(NetError::Protocol)?;

    // Shutdown: dropping the reply sender FINs the actor's control
    // stream; the actor exits, its batch stream closes, and the drain
    // runs until then — recovering a queued RNG exactly like the
    // in-process drain.
    drop(replies);
    let final_rng = drain(batches.as_ref(), &counters).or(final_rng);
    let rng = final_rng.ok_or_else(|| {
        NetError::Protocol(format!(
            "actor disconnected holding the agent RNG ({})",
            batches.fault().as_deref().unwrap_or("clean close")
        ))
    })?;
    learner.restore_rng(rng);
    Ok(RuntimeOutcome {
        report: counters.report(),
        stats,
    })
}

/// Checks that the hello's networks fit `env` (the collector and the env
/// panic on anything else): the actor maps `obs_dim` inputs to at most
/// `num_actions` logits, the critic `obs_dim` to one value.
fn check_hello(hello: &LearnerHello, env: &dyn Env) -> Result<(), NetError> {
    let (actor, critic) = (&hello.snapshot.actor, &hello.snapshot.critic);
    let (obs_dim, num_actions) = (env.obs_dim(), env.num_actions());
    let fits = actor.inputs() == obs_dim && actor.outputs() <= num_actions;
    if !fits || critic.inputs() != obs_dim || critic.outputs() != 1 {
        return Err(NetError::Protocol(format!(
            "LearnerHello networks do not fit {obs_dim}-wide observations and \
             {num_actions} actions: actor {}→{}, critic {}→{}",
            actor.inputs(),
            actor.outputs(),
            critic.inputs(),
            critic.outputs()
        )));
    }
    Ok(())
}

/// Runs one actor process: dial the learner at `addr` (using `net`'s
/// retry/timeout policy), check the hello against `envs`, then run the
/// in-process actor loop over the socket until the learner hangs up.
/// Returns the number of batches sent.
///
/// The process mirrors the in-process actor thread bit for bit: the agent
/// RNG rides inside every batch and comes back with each
/// [`SyncReply`](crate::SyncReply).
///
/// # Errors
///
/// [`NetError`] if the connection or handshake fails, or if the hello's
/// actor or critic does not fit the environments' observation width and
/// action count.
///
/// # Panics
///
/// Panics if `envs` is empty.
pub fn run_actor(envs: &mut [Box<dyn Env>], addr: &str, net: &NetConfig) -> Result<u64, NetError> {
    assert!(!envs.is_empty(), "need at least one environment");
    let (hello, batches, replies) = dial_session(addr, net, CAPACITY)?;
    check_hello(&hello, envs[0].as_ref())?;
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
    // Flush a batch still in flight (it may carry the agent RNG) before
    // the reply receiver's drop shuts the socket down.
    drop(batches);
    Ok(counters.batches_produced.load(Ordering::Relaxed))
}

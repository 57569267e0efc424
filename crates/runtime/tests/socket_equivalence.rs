//! Loopback-socket equivalence: the pinned guarantee of the `dosco_net`
//! tentpole. A sync-mode training run whose channels are real TCP
//! connections — framed, checksummed, serialized through the binary codec
//! — produces *bit-identical* results to the in-process run: same
//! `TrainStats`, same weights, and the same RNG stream afterwards. A
//! batch that breaks the lockstep protocol stops the run with the
//! protocol error, whichever transport delivered it.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Mutex;

use dosco_net::{BoxRx, BoxTx, InProcess, SocketLoopback, Transport};
use dosco_nn::matrix::Matrix;
use dosco_rl::a2c::{A2c, A2cConfig};
use dosco_rl::env::{Env, StepResult};
use dosco_rl::ppo::{Ppo, PpoConfig};
use dosco_rl::rollout::Rollout;
use dosco_runtime::{train, train_with_transport, ExperienceBatch, RuntimeConfig, SyncReply};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Deterministic ring-walk env (same dynamics as the runtime integration
/// tests): any divergence in the policy/RNG stream shows up in rewards
/// immediately.
struct Ring {
    n: usize,
    pos: usize,
    steps: usize,
}

impl Ring {
    fn new(n: usize, start: usize) -> Self {
        Ring {
            n,
            pos: start % n,
            steps: 0,
        }
    }

    fn obs(&self) -> Vec<f32> {
        vec![
            (self.pos as f32 / self.n as f32).sin(),
            (self.pos as f32 / self.n as f32).cos(),
        ]
    }
}

impl Env for Ring {
    fn obs_dim(&self) -> usize {
        2
    }

    fn num_actions(&self) -> usize {
        2
    }

    fn reset(&mut self) -> Vec<f32> {
        self.pos = 1;
        self.steps = 0;
        self.obs()
    }

    fn step(&mut self, action: usize) -> StepResult {
        self.steps += 1;
        self.pos = if action == 1 {
            (self.pos + 1) % self.n
        } else {
            (self.pos + self.n - 1) % self.n
        };
        let done = self.pos == 0 || self.steps >= 4 * self.n;
        let reward = if self.pos == 0 { 1.0 } else { -0.05 };
        let obs = if done { self.reset() } else { self.obs() };
        StepResult { obs, reward, done }
    }
}

fn ring_envs(n_envs: usize) -> Vec<Box<dyn Env>> {
    (0..n_envs)
        .map(|i| Box::new(Ring::new(6, 1 + i)) as Box<dyn Env>)
        .collect()
}

fn a2c_config() -> A2cConfig {
    A2cConfig {
        n_steps: 5,
        hidden: [8, 8],
        lr: 0.01,
        lr_decay: true,
        normalize_advantages: true,
        ..A2cConfig::default()
    }
}

/// Sync mode over loopback TCP is bit-identical to the in-process
/// transport: every batch crosses the wire through the frame + codec path
/// (floats as raw bits, the RNG as xoshiro state) and nothing diverges —
/// not even the RNG stream, proven by a further serial training tail.
#[test]
fn sync_over_loopback_socket_is_bit_identical_to_in_process() {
    let total = 300;
    let cfg = a2c_config();

    let mut in_proc = A2c::new(2, 2, cfg, 7);
    let mut in_proc_envs = ring_envs(3);
    let baseline = train(
        &mut in_proc,
        &mut in_proc_envs,
        total,
        &RuntimeConfig::sync(),
    );

    let mut socketed = A2c::new(2, 2, cfg, 7);
    let mut socket_envs = ring_envs(3);
    let outcome = train_with_transport(
        &mut socketed,
        &mut socket_envs,
        total,
        &RuntimeConfig::sync(),
        &SocketLoopback,
    );

    assert_eq!(outcome.stats, baseline.stats, "stats diverged over TCP");
    assert_eq!(
        socketed.actor().flat_params(),
        in_proc.actor().flat_params(),
        "actor weights diverged over TCP"
    );
    assert_eq!(
        socketed.critic().flat_params(),
        in_proc.critic().flat_params(),
        "critic weights diverged over TCP"
    );
    assert_eq!(
        outcome.report.batches_produced,
        outcome.report.batches_consumed + outcome.report.batches_in_flight,
        "batch conservation violated over TCP"
    );

    // The RNG stream came back through the wire exactly where the
    // in-process run left it.
    let tail_in_proc = in_proc.train(&mut in_proc_envs, 60);
    let tail_socketed = socketed.train(&mut socket_envs, 60);
    assert_eq!(tail_socketed, tail_in_proc, "RNG stream diverged over TCP");
}

/// The same equivalence holds for PPO's multi-epoch update (different
/// learner arithmetic exercising the same wire path).
#[test]
fn sync_ppo_over_loopback_socket_is_bit_identical() {
    let total = 240;
    let cfg = PpoConfig {
        n_steps: 6,
        hidden: [8, 8],
        epochs: 2,
        ..PpoConfig::default()
    };

    let mut in_proc = Ppo::new(2, 2, cfg, 5);
    let baseline = train(
        &mut in_proc,
        &mut ring_envs(2),
        total,
        &RuntimeConfig::sync(),
    );

    let mut socketed = Ppo::new(2, 2, cfg, 5);
    let outcome = train_with_transport(
        &mut socketed,
        &mut ring_envs(2),
        total,
        &RuntimeConfig::sync(),
        &SocketLoopback,
    );

    assert_eq!(outcome.stats, baseline.stats);
    assert_eq!(
        socketed.actor().flat_params(),
        in_proc.actor().flat_params()
    );
    assert_eq!(
        socketed.critic().flat_params(),
        in_proc.critic().flat_params()
    );
}

/// A rollout of zeros shaped like the ring env's `n_envs × n_steps`
/// batch, for the tests below to corrupt.
fn zero_rollout(n_envs: usize, n_steps: usize) -> Rollout {
    let rows = n_envs * n_steps;
    Rollout {
        obs: Matrix::zeros(rows, 2),
        actions: vec![0; rows],
        rewards: vec![0.0; rows],
        dones: vec![false; rows],
        values: vec![0.0; rows],
        returns: vec![0.0; rows],
        advantages: vec![0.0; rows],
        n_envs,
        n_steps,
        reward_sum: 0.0,
    }
}

/// The in-process transport, except that the experience channel hands
/// the learner `batch` before anything the actor sends.
struct Hostile(Mutex<Option<ExperienceBatch>>);

impl Transport<ExperienceBatch> for Hostile {
    fn channel(&self, capacity: usize) -> (BoxTx<ExperienceBatch>, BoxRx<ExperienceBatch>) {
        let (tx, rx) = InProcess.channel(capacity + 1);
        let batch = self.0.lock().expect("hostile batch").take();
        tx.send(batch.expect("one channel per run"))
            .expect("room for the hostile batch");
        (tx, rx)
    }
}

impl Transport<SyncReply> for Hostile {
    fn channel(&self, capacity: usize) -> (BoxTx<SyncReply>, BoxRx<SyncReply>) {
        InProcess.channel(capacity)
    }
}

/// Trains over a transport that delivers `batch` first and asserts the
/// run stops with the lockstep protocol error naming `what`.
fn assert_protocol_error(batch: ExperienceBatch, what: &str) {
    let mut agent = A2c::new(2, 2, a2c_config(), 7);
    let hostile = Hostile(Mutex::new(Some(batch)));
    let run = catch_unwind(AssertUnwindSafe(|| {
        train_with_transport(
            &mut agent,
            &mut ring_envs(1),
            300,
            &RuntimeConfig::sync(),
            &hostile,
        )
    }));
    let payload = run.expect_err("a hostile batch must stop training");
    let msg = payload
        .downcast_ref::<String>()
        .expect("the protocol error is a formatted panic");
    assert!(msg.contains("lockstep protocol violated"), "{msg}");
    assert!(msg.contains(what), "{msg}");
}

/// A batch that crossed a transport is untrusted input: one that lost the
/// circulating RNG is refused, not unwrapped.
#[test]
fn hostile_batch_without_rng_is_a_protocol_error() {
    let batch = ExperienceBatch {
        rollout: zero_rollout(1, 5),
        version: 0,
        rng: None,
    };
    assert_protocol_error(batch, "RNG");
}

/// A batch claiming a policy version the learner has not published yet
/// is refused: in lockstep every batch carries the learner's version.
#[test]
fn hostile_batch_from_a_future_version_is_a_protocol_error() {
    let batch = ExperienceBatch {
        rollout: zero_rollout(1, 5),
        version: 1,
        rng: Some(StdRng::seed_from_u64(1)),
    };
    assert_protocol_error(batch, "version");
}

/// A rollout whose per-transition fields disagree in length is refused
/// before the update indexes them.
#[test]
fn hostile_batch_with_ragged_rows_is_a_protocol_error() {
    let mut rollout = zero_rollout(1, 5);
    rollout.actions.pop();
    let batch = ExperienceBatch {
        rollout,
        version: 0,
        rng: Some(StdRng::seed_from_u64(1)),
    };
    assert_protocol_error(batch, "rows");
}

/// A rollout that does not fit the learner's networks — observations of
/// the wrong width, or an action the policy does not have — is refused
/// before the forward pass or the update reads it.
#[test]
fn hostile_batch_that_does_not_fit_the_policy_is_a_protocol_error() {
    let mut wide = zero_rollout(1, 5);
    wide.obs = Matrix::zeros(5, 3);
    let mut bad_action = zero_rollout(1, 5);
    bad_action.actions[0] = 2;
    for rollout in [wide, bad_action] {
        let batch = ExperienceBatch {
            rollout,
            version: 0,
            rng: Some(StdRng::seed_from_u64(1)),
        };
        assert_protocol_error(batch, "policy");
    }
}

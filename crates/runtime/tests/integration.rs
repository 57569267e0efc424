//! End-to-end tests of the actor–learner runtime: bit-identity with the
//! serial training loops, batch conservation, and panic propagation out
//! of the actor thread.

use dosco_rl::a2c::{A2c, A2cConfig};
use dosco_rl::acktr::{Acktr, AcktrConfig};
use dosco_rl::env::{Env, StepResult};
use dosco_rl::ppo::{Ppo, PpoConfig};
use dosco_runtime::{train, RuntimeConfig};

/// A deterministic ring walk: position 0..n-1, action 0 steps back, 1
/// steps forward (wrapping); reward +1 on reaching 0, −0.05 otherwise;
/// episodes end on wrap or after `4n` steps. Fully deterministic given
/// the action sequence, so any policy-stream divergence shows up in the
/// collected rewards immediately.
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
        assert!(action < 2, "ring has two actions");
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

/// An env that panics after a fixed number of steps — exercises the
/// runtime's panic path from inside an actor thread.
struct PanicEnv {
    inner: Ring,
    fuse: usize,
}

impl Env for PanicEnv {
    fn obs_dim(&self) -> usize {
        self.inner.obs_dim()
    }

    fn num_actions(&self) -> usize {
        self.inner.num_actions()
    }

    fn reset(&mut self) -> Vec<f32> {
        self.inner.reset()
    }

    fn step(&mut self, action: usize) -> StepResult {
        assert!(self.fuse > 0, "env fuse blew");
        self.fuse -= 1;
        self.inner.step(action)
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

/// Sync mode reproduces the serial A2C loop bit for bit — weights, stats,
/// and the RNG stream (proven by training a further serial chunk on both
/// agents afterwards and comparing again).
#[test]
fn sync_mode_matches_serial_a2c_bit_for_bit() {
    let total = 300;
    let cfg = a2c_config();

    let mut serial = A2c::new(2, 2, cfg, 7);
    let mut serial_envs = ring_envs(3);
    let serial_stats = serial.train(&mut serial_envs, total);

    let mut synced = A2c::new(2, 2, cfg, 7);
    let mut sync_envs = ring_envs(3);
    let outcome = train(&mut synced, &mut sync_envs, total, &RuntimeConfig::sync());

    assert_eq!(outcome.stats, serial_stats, "training statistics diverged");
    assert_eq!(
        synced.actor().flat_params(),
        serial.actor().flat_params(),
        "actor weights diverged"
    );
    assert_eq!(
        synced.critic().flat_params(),
        serial.critic().flat_params(),
        "critic weights diverged"
    );
    assert_eq!(
        outcome.report.batches_produced,
        outcome.report.batches_consumed + outcome.report.batches_in_flight,
        "batch conservation violated"
    );

    // The runtime returned the RNG stream exactly where the serial loop
    // left it: further serial training stays identical.
    let tail_serial = serial.train(&mut serial_envs, 60);
    let tail_synced = synced.train(&mut sync_envs, 60);
    assert_eq!(tail_synced, tail_serial, "RNG stream diverged after run");
    assert_eq!(synced.actor().flat_params(), serial.actor().flat_params());
}

/// The same bit-identity holds for ACKTR, whose update itself consumes the
/// circulated RNG (Fisher-factor sampling) and whose default config decays
/// the learning rate — covering the runtime's schedule replay.
#[test]
fn sync_mode_matches_serial_acktr_bit_for_bit() {
    let total = 200;
    let cfg = AcktrConfig {
        n_steps: 5,
        hidden: [8, 8],
        inverse_period: 2,
        ..AcktrConfig::default()
    };
    assert!(cfg.lr_decay, "test must cover the lr schedule replay");

    let mut serial = Acktr::new(2, 2, cfg, 11);
    let mut serial_envs = ring_envs(2);
    let serial_stats = serial.train(&mut serial_envs, total);

    let mut synced = Acktr::new(2, 2, cfg, 11);
    let mut sync_envs = ring_envs(2);
    let outcome = train(&mut synced, &mut sync_envs, total, &RuntimeConfig::sync());

    assert_eq!(outcome.stats, serial_stats, "training statistics diverged");
    assert_eq!(synced.actor().flat_params(), serial.actor().flat_params());
    assert_eq!(synced.critic().flat_params(), serial.critic().flat_params());

    let tail_serial = serial.train(&mut serial_envs, 40);
    let tail_synced = synced.train(&mut sync_envs, 40);
    assert_eq!(tail_synced, tail_serial, "RNG stream diverged after run");
}

/// And for PPO (multi-epoch update, no internal lr schedule).
#[test]
fn sync_mode_matches_serial_ppo_bit_for_bit() {
    let total = 240;
    let cfg = PpoConfig {
        n_steps: 6,
        hidden: [8, 8],
        epochs: 2,
        ..PpoConfig::default()
    };

    let mut serial = Ppo::new(2, 2, cfg, 5);
    let mut serial_envs = ring_envs(2);
    let serial_stats = serial.train(&mut serial_envs, total);

    let mut synced = Ppo::new(2, 2, cfg, 5);
    let mut sync_envs = ring_envs(2);
    let outcome = train(&mut synced, &mut sync_envs, total, &RuntimeConfig::sync());

    assert_eq!(outcome.stats, serial_stats, "training statistics diverged");
    assert_eq!(synced.actor().flat_params(), serial.actor().flat_params());
    assert_eq!(synced.critic().flat_params(), serial.critic().flat_params());
}

/// A panic inside the actor thread (here: the second of its two envs
/// blowing a fuse mid-collection) shuts the runtime down and is re-raised
/// on the caller.
#[test]
#[should_panic(expected = "env fuse blew")]
fn actor_panics_propagate_to_the_caller() {
    let mut agent = A2c::new(2, 2, a2c_config(), 13);
    let mut envs: Vec<Box<dyn Env>> = vec![
        Box::new(Ring::new(6, 1)),
        Box::new(PanicEnv {
            inner: Ring::new(6, 2),
            fuse: 35,
        }),
    ];
    let _ = train(&mut agent, &mut envs, 100_000, &RuntimeConfig::sync());
}

/// A panic in the actor's only env, earlier in the run, also propagates
/// and does not deadlock the learner.
#[test]
#[should_panic(expected = "env fuse blew")]
fn sync_actor_panics_propagate_to_the_caller() {
    let mut agent = A2c::new(2, 2, a2c_config(), 13);
    let mut envs: Vec<Box<dyn Env>> = vec![Box::new(PanicEnv {
        inner: Ring::new(6, 1),
        fuse: 12,
    })];
    let _ = train(&mut agent, &mut envs, 100_000, &RuntimeConfig::sync());
}

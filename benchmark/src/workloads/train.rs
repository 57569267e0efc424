//! `train-inproc`: `dosco_runtime` sync-mode ACKTR training with the
//! paper's hyper-parameters (256×256, 4 envs × 16 steps), from a fresh
//! agent each segment, over the in-process transport.
//!
//! The same training over loopback TCP is not a workload of its own: with
//! four more threads on two shared vCPUs its run-to-run spread was 6–14 %,
//! and an end-to-end bound is shared by every workload, so gating it would
//! have loosened the gate on all the others. The traced run measures it
//! instead, back to back with the in-process transport
//! (`net.socket_train_x`), next to the codec, frame and round-trip probes.

use crate::harness::{in_span, Layers, Segment, TraceCtx, Workload};
use crate::probes;
use crate::scenario;
use crate::stats;
use dosco_core::policy::fnv1a64;
use dosco_core::{CoordEnv, RewardConfig};
use dosco_net::{decode_msg, encode_msg, frame, InProcess, SocketLoopback};
use dosco_nn::Mlp;
use dosco_rl::rollout::{Rollout, RolloutCollector};
use dosco_rl::{Acktr, AcktrConfig, Env, StepResult};
use dosco_runtime::{
    CollectParams, ExperienceBatch, Learner, PolicySnapshot, RuntimeConfig, RuntimeOutcome,
    SyncReply,
};
use dosco_simnet::ScenarioConfig;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Parallel environments (paper: 4).
const ENVS: u64 = 4;
/// Steps per collect→update cycle: `ENVS` × `n_steps` (16).
const CYCLE_STEPS: usize = 64;
/// Steps per segment: 20 updates, one K-FAC inversion period.
const SEGMENT_STEPS: usize = 20 * CYCLE_STEPS;
/// Training episode length: short enough that every env resets within a
/// segment.
const HORIZON: f64 = 200.0;

/// Time and calls inside the environments, summed over the actor thread's
/// calls. Statistics only, hence `Relaxed`.
#[derive(Debug, Default)]
struct EnvClock {
    step_ns: AtomicU64,
    steps: AtomicU64,
    reset_ns: AtomicU64,
}

/// A training environment timed from outside (traced segments only).
struct TimedEnv {
    inner: CoordEnv,
    clock: Arc<EnvClock>,
}

impl Env for TimedEnv {
    fn obs_dim(&self) -> usize {
        self.inner.obs_dim()
    }

    fn num_actions(&self) -> usize {
        self.inner.num_actions()
    }

    fn reset(&mut self) -> Vec<f32> {
        let start = Instant::now();
        let obs = self.inner.reset();
        let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.clock.reset_ns.fetch_add(ns, Ordering::Relaxed);
        obs
    }

    fn step(&mut self, action: usize) -> StepResult {
        let start = Instant::now();
        let result = self.inner.step(action);
        let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.clock.step_ns.fetch_add(ns, Ordering::Relaxed);
        self.clock.steps.fetch_add(1, Ordering::Relaxed);
        result
    }
}

/// The learner, timed from outside: every `update_batch` call, whose end
/// also closes one collect→update cycle.
struct TimedLearner {
    inner: Acktr,
    /// `(start, end)` of each update.
    updates: Vec<(Instant, Instant)>,
}

impl Learner for TimedLearner {
    fn collect_params(&self) -> CollectParams {
        Learner::collect_params(&self.inner)
    }

    fn actor(&self) -> &Mlp {
        self.inner.actor()
    }

    fn critic(&self) -> &Mlp {
        self.inner.critic()
    }

    fn take_rng(&mut self) -> StdRng {
        self.inner.take_rng()
    }

    fn restore_rng(&mut self, rng: StdRng) {
        self.inner.restore_rng(rng);
    }

    fn lr_schedule(&self) -> Option<f32> {
        Learner::lr_schedule(&self.inner)
    }

    fn set_lr(&mut self, lr: f32) {
        self.inner.set_lr(lr);
    }

    fn update_batch(&mut self, rollout: &mut Rollout, rng: &mut StdRng) {
        let start = Instant::now();
        self.inner.update_batch(rollout, rng);
        self.updates.push((start, Instant::now()));
    }
}

/// FNV-1a 64 over the bits of both networks' flat parameters.
fn weights_fingerprint(agent: &Acktr) -> u64 {
    let mut bytes = Vec::new();
    for net in [agent.actor(), agent.critic()] {
        for p in net.flat_params() {
            bytes.extend_from_slice(&p.to_bits().to_le_bytes());
        }
    }
    fnv1a64(&bytes)
}

/// The transport under the actor–learner channels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Wire {
    InProcess,
    Socket,
}

/// See the module docs.
#[derive(Debug)]
pub struct Train {
    scenario: ScenarioConfig,
    seed: u64,
    cycle_ns: Vec<u32>,
    last: u64,
}

impl Train {
    fn agent(&self) -> Acktr {
        let degree = self.scenario.topology.network_degree();
        Acktr::new(
            4 * degree + 4,
            degree + 1,
            AcktrConfig::default(),
            scenario::INIT_SEED,
        )
    }

    fn env(&self, index: u64) -> CoordEnv {
        let seed = self.seed.wrapping_mul(1_000) + index;
        CoordEnv::new(self.scenario.clone(), RewardConfig::default(), seed, None)
    }

    /// Trains a fresh agent for `steps` steps through the runtime.
    fn train(&mut self, steps: usize, wire: Wire, mut trace: Option<TraceCtx<'_>>) -> Segment {
        let start = Instant::now();
        let traced = trace.is_some();
        let clock = Arc::new(EnvClock::default());
        let (mut learner, mut envs) = in_span(&mut trace, "rl.agent_and_envs_new", || {
            let learner = TimedLearner {
                inner: self.agent(),
                updates: Vec::with_capacity(steps / CYCLE_STEPS + 1),
            };
            let envs: Vec<Box<dyn Env>> = (0..ENVS)
                .map(|i| {
                    let inner = self.env(i);
                    if traced {
                        let clock = Arc::clone(&clock);
                        Box::new(TimedEnv { inner, clock }) as Box<dyn Env>
                    } else {
                        Box::new(inner)
                    }
                })
                .collect();
            (learner, envs)
        });

        let train_span = trace
            .as_mut()
            .map(|t| t.tracer.open("runtime.train", t.root));
        let config = RuntimeConfig::sync();
        let RuntimeOutcome { stats, report } = match wire {
            Wire::InProcess => dosco_runtime::train(&mut learner, &mut envs, steps, &config),
            Wire::Socket => dosco_runtime::train_with_transport(
                &mut learner,
                &mut envs,
                steps,
                &config,
                &SocketLoopback,
            ),
        };

        self.cycle_ns.clear();
        let mut previous = start;
        for &(_, end) in &learner.updates {
            let per_step = (end - previous).as_nanos() / CYCLE_STEPS as u128;
            self.cycle_ns
                .push(u32::try_from(per_step).unwrap_or(u32::MAX));
            previous = end;
        }
        let p50_us = stats::quantile_us(&mut self.cycle_ns, 0.5);

        if let (Some(t), Some(id)) = (trace.as_mut(), train_span) {
            t.tracer.close(id);
            // The learner thread's time inside `train`: blocked in recv,
            // updating, publishing. The actor thread's environment time
            // passes while the learner is blocked in recv.
            let (t0, t1) = (t.tracer.at(start), t.tracer.now());
            let ms = |ms: f64| (ms * 1e6) as u64;
            let recv = t.tracer.push(
                "runtime.recv_wait",
                id,
                t0,
                t1,
                ms(report.recv_wait_ms),
                report.batches_consumed,
            );
            t.tracer.push(
                "runtime.publish",
                id,
                t0,
                t1,
                ms(report.publish_ms),
                report.snapshots_published,
            );
            for &(s, e) in &learner.updates {
                let (s, e) = (t.tracer.at(s), t.tracer.at(e));
                t.tracer.push("rl.update", id, s, e, e - s, 1);
            }
            let step_ns = clock.step_ns.load(Ordering::Relaxed);
            let reset_ns = clock.reset_ns.load(Ordering::Relaxed);
            let steps = clock.steps.load(Ordering::Relaxed);
            t.tracer.push("core.env_step", recv, t0, t1, step_ns, steps);
            t.tracer.push("core.env_reset", recv, t0, t1, reset_ns, 1);
            t.layers.record("core.env_steps", steps as f64);
            t.layers.record("rl.updates", learner.updates.len() as f64);
            t.layers.record(
                "rl.collect_self_s",
                report.recv_wait_ms / 1e3 - (step_ns + reset_ns) as f64 / 1e9,
            );
            t.layers
                .record("runtime.send_wait_s", report.send_wait_ms / 1e3);
            t.layers
                .record("runtime.batches", report.batches_consumed as f64);
            t.layers
                .record("runtime.snapshots", report.snapshots_published as f64);
            t.layers
                .record("runtime.cycle_p50_us", p50_us * CYCLE_STEPS as f64);
        }
        self.last = weights_fingerprint(&learner.inner);
        Segment {
            decisions: stats.total_steps as u64,
            failed: 0,
            fingerprint: self.last,
            p50_us,
        }
    }
}

impl Workload for Train {
    fn setup(seed: u64) -> Self {
        let mut w = Train {
            scenario: scenario::abilene(HORIZON),
            seed,
            cycle_ns: Vec::new(),
            last: 0,
        };
        w.train(CYCLE_STEPS, Wire::InProcess, None);
        w
    }

    fn segment(&mut self, trace: Option<TraceCtx<'_>>) -> Segment {
        self.train(SEGMENT_STEPS, Wire::InProcess, trace)
    }

    /// The serial `Acktr::train` loop — no runtime, no transport — from
    /// the same seeds.
    fn reference(&mut self) -> Result<u64, String> {
        let mut agent = self.agent();
        let mut envs: Vec<Box<dyn Env>> = (0..ENVS)
            .map(|i| Box::new(self.env(i)) as Box<dyn Env>)
            .collect();
        agent.train(&mut envs, SEGMENT_STEPS);
        Ok(weights_fingerprint(&agent))
    }

    fn probes(&mut self, layers: &mut Layers, _out_dir: &Path) {
        let agent = self.agent();
        let mut envs: Vec<Box<dyn Env>> = (0..ENVS)
            .map(|i| Box::new(self.env(i)) as Box<dyn Env>)
            .collect();
        let mut rng = StdRng::seed_from_u64(self.seed);
        let params = Learner::collect_params(&agent);
        let rollout = RolloutCollector::new(&mut envs).collect(
            &mut envs,
            agent.actor(),
            agent.critic(),
            params.n_steps,
            params.gamma,
            params.gae_lambda,
            &mut rng,
        );
        let observations: Vec<Vec<f32>> = (0..CYCLE_STEPS)
            .map(|r| rollout.obs.row(r).to_vec())
            .collect();
        probes::forward(layers, agent.actor(), &observations, &[4]);
        probes::forward_backward(layers, agent.actor(), &observations);
        layers.record("net.inproc_rtt_us", probes::round_trip_us(&InProcess));
        layers.record(
            "net.loopback_rtt_us",
            probes::round_trip_us(&SocketLoopback),
        );

        // The two messages of one sync cycle, as the socket carries them.
        let batch = ExperienceBatch {
            rollout,
            version: 0,
            rng: Some(rng.clone()),
        };
        let reply = SyncReply {
            snapshot: Arc::new(PolicySnapshot {
                version: 1,
                actor: agent.actor().clone(),
                critic: agent.critic().clone(),
            }),
            rng,
        };
        let batch_bytes = encode_msg(&batch);
        let reply_bytes = encode_msg(&reply);
        layers.record("net.batch_bytes", batch_bytes.len() as f64);
        layers.record("net.reply_bytes", reply_bytes.len() as f64);
        let us = |s: f64| s * 1e6;
        layers.record(
            "net.encode_batch_us",
            us(probes::best_of(20, || encode_msg(black_box(&batch)))),
        );
        layers.record(
            "net.decode_batch_us",
            us(probes::best_of(20, || {
                decode_msg::<ExperienceBatch>(black_box(&batch_bytes)).expect("batch decodes")
            })),
        );
        layers.record(
            "net.encode_reply_us",
            us(probes::best_of(5, || encode_msg(black_box(&reply)))),
        );
        layers.record(
            "net.decode_reply_us",
            us(probes::best_of(5, || {
                decode_msg::<SyncReply>(black_box(&reply_bytes)).expect("reply decodes")
            })),
        );
        layers.record(
            "net.frame_us",
            us(probes::best_of(20, || {
                let framed = frame::encode_frame(black_box(&batch_bytes));
                frame::decode_frame(&framed).expect("frame decodes")
            })),
        );

        // The whole segment over loopback TCP, back to back with the
        // in-process transport; the weights must come out bit-equal.
        let mut weights = [0u64; 2];
        let ratio = probes::back_to_back_ratio(|socket| {
            let wire = if socket {
                Wire::Socket
            } else {
                Wire::InProcess
            };
            weights[usize::from(socket)] = self.train(SEGMENT_STEPS, wire, None).fingerprint;
        });
        assert_eq!(
            weights[0], weights[1],
            "socket and in-process training diverged"
        );
        layers.record("net.socket_train_x", ratio);
    }
}

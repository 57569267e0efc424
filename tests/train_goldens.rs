//! Bit-identity goldens for the training loops.
//!
//! The fingerprints below were captured at commit `d840831`, when
//! `A2c::train`, `Acktr::train` and `Ppo::train` each carried a private
//! copy of the collect → update loop and `train_distributed` dispatched on
//! a per-algorithm enum. The shared `train_serial` loop and the
//! `Box<dyn Learner>` path must reproduce them exactly: same seed, same
//! trained weights, bit for bit.
//!
//! A fingerprint is FNV-1a 64 over the little-endian bits of the networks'
//! `flat_params()`. Every `DOSCO_SIMD` kernel returns the same bits, so
//! each golden holds, and is asserted, under every value. On a mismatch
//! the test prints the value it computed;
//! replace a golden only when a change to the numerics is intended and
//! documented. Every such re-capture also bumps
//! `dosco::core::train::TRAINING_REVISION`, so the figures' policy cache
//! stops serving policies the old code trained.

use dosco::core::federated::{train_per_node, FederatedConfig};
use dosco::core::policy::fnv1a64;
use dosco::core::train::{train_distributed, Algorithm, TrainConfig};
use dosco::core::{CoordEnv, RewardConfig};
use dosco::nn::Mlp;
use dosco::rl::{A2c, A2cConfig, Acktr, AcktrConfig, Env, Ppo, PpoConfig};
use dosco::runtime::RuntimeConfig;
use dosco::simnet::ScenarioConfig;

const HIDDEN: [usize; 2] = [8, 8];
const AGENT_SEED: u64 = 11;
/// Ten updates of 2 envs × 16 steps.
const SERIAL_STEPS: usize = 320;

fn fingerprint(nets: &[&Mlp]) -> u64 {
    let mut bytes = Vec::new();
    for net in nets {
        for p in net.flat_params() {
            bytes.extend_from_slice(&p.to_bits().to_le_bytes());
        }
    }
    fnv1a64(&bytes)
}

fn scenario() -> ScenarioConfig {
    ScenarioConfig::paper_base(1).with_horizon(250.0)
}

/// Two coordination environments on the paper's base scenario, plus the
/// observation and action dimensions the agents need.
fn envs() -> (Vec<Box<dyn Env>>, usize, usize) {
    let scenario = scenario();
    let degree = scenario.topology.network_degree();
    let envs = (0..2)
        .map(|i| {
            Box::new(CoordEnv::new(
                scenario.clone(),
                RewardConfig::default(),
                500 + i,
                None,
            )) as Box<dyn Env>
        })
        .collect();
    (envs, 4 * degree + 4, degree + 1)
}

fn check(name: &str, got: u64, golden: u64) {
    assert_eq!(
        got, golden,
        "{name}: trained weights diverged from the pre-dedupe loop (got {got:#018x})"
    );
}

#[test]
fn a2c_serial_train_matches_golden() {
    let (mut envs, obs_dim, num_actions) = envs();
    // lr_decay on (off by default) so the schedule branch is pinned too.
    let config = A2cConfig {
        hidden: HIDDEN,
        lr_decay: true,
        ..A2cConfig::default()
    };
    let mut agent = A2c::new(obs_dim, num_actions, config, AGENT_SEED);
    agent.train(&mut envs, SERIAL_STEPS);
    check(
        "a2c",
        fingerprint(&[agent.actor(), agent.critic()]),
        A2C_SERIAL,
    );
}

/// The serial loop and the sync actor–learner runtime land on the same
/// golden (the runtime leg is what `TrainConfig::runtime` used to pin at
/// tier-1 through `train_distributed`).
#[test]
fn acktr_serial_train_matches_golden() {
    for path in ["serial", "runtime-sync"] {
        let (mut envs, obs_dim, num_actions) = envs();
        let config = AcktrConfig {
            hidden: HIDDEN,
            ..AcktrConfig::default()
        };
        let mut agent = Acktr::new(obs_dim, num_actions, config, AGENT_SEED);
        if path == "serial" {
            agent.train(&mut envs, SERIAL_STEPS);
        } else {
            dosco::runtime::train(&mut agent, &mut envs, SERIAL_STEPS, &RuntimeConfig::sync());
        }
        check(
            &format!("acktr/{path}"),
            fingerprint(&[agent.actor(), agent.critic()]),
            ACKTR_SERIAL,
        );
    }
}

/// 45 updates at the default `inverse_period` of 20: the factors are
/// inverted at updates 0, 20 and 40, so the statistics blended between
/// refreshes — 19 batches each — reach three inversions. The ten-update
/// golden above sees one. Serial loop and sync runtime, one golden.
/// Captured at commit `753f8ab`.
#[test]
fn acktr_three_refreshes_match_golden() {
    for path in ["serial", "runtime-sync"] {
        let (mut envs, obs_dim, num_actions) = envs();
        let config = AcktrConfig {
            hidden: HIDDEN,
            ..AcktrConfig::default()
        };
        let mut agent = Acktr::new(obs_dim, num_actions, config, AGENT_SEED);
        let steps = 45 * 2 * config.n_steps;
        if path == "serial" {
            agent.train(&mut envs, steps);
        } else {
            dosco::runtime::train(&mut agent, &mut envs, steps, &RuntimeConfig::sync());
        }
        check(
            &format!("acktr/three-refreshes/{path}"),
            fingerprint(&[agent.actor(), agent.critic()]),
            ACKTR_THREE_REFRESHES,
        );
    }
}

#[test]
fn ppo_serial_train_matches_golden() {
    let (mut envs, obs_dim, num_actions) = envs();
    let config = PpoConfig {
        hidden: HIDDEN,
        ..PpoConfig::default()
    };
    let mut agent = Ppo::new(obs_dim, num_actions, config, AGENT_SEED);
    agent.train(&mut envs, SERIAL_STEPS);
    check(
        "ppo",
        fingerprint(&[agent.actor(), agent.critic()]),
        PPO_SERIAL,
    );
}

/// The paper's architecture (`AcktrConfig::default()`, 2×256): the 8×8
/// goldens above never reach the 256- and 257-wide K-FAC factors, whose
/// row and column remainders take kernel paths of their own. Only the
/// inversion period is shortened, so four updates cross two refreshes.
/// Captured at commit `8236a78`.
#[test]
fn acktr_paper_arch_train_matches_golden() {
    let (mut envs, obs_dim, num_actions) = envs();
    let config = AcktrConfig {
        inverse_period: 2,
        ..AcktrConfig::default()
    };
    let mut agent = Acktr::new(obs_dim, num_actions, config, AGENT_SEED);
    agent.train(&mut envs, 4 * 32);
    check(
        "acktr/256x256",
        fingerprint(&[agent.actor(), agent.critic()]),
        ACKTR_PAPER_ARCH,
    );
}

/// `train_distributed` returns only the deployed actor, so that is what
/// is fingerprinted. The A2C and PPO values were re-captured on purpose
/// when each seed moved to one training loop under the learner's own
/// learning-rate schedule; the ACKTR value did not move.
#[test]
fn train_distributed_matches_golden() {
    let scenario = scenario();
    for (algorithm, golden) in [
        (Algorithm::A2c, A2C_DISTRIBUTED),
        (Algorithm::Acktr, ACKTR_DISTRIBUTED),
        (Algorithm::Ppo, PPO_DISTRIBUTED),
    ] {
        let config = TrainConfig {
            algorithm,
            total_steps: 384,
            n_envs: 2,
            seeds: vec![4],
            a2c: A2cConfig {
                hidden: HIDDEN,
                ..A2cConfig::default()
            },
            acktr: AcktrConfig {
                hidden: HIDDEN,
                ..AcktrConfig::default()
            },
            ppo: PpoConfig {
                hidden: HIDDEN,
                ..PpoConfig::default()
            },
            eval_horizon: 150.0,
            checkpoints: 2,
            ..TrainConfig::default()
        };
        let trained = train_distributed(&scenario, &config);
        check(
            &format!("train_distributed/{}", algorithm.name()),
            fingerprint(&[trained.policy.actor()]),
            golden,
        );
    }
}

/// `train_distributed` with one checkpoint and no learning-rate decay:
/// one training call over the whole budget at the configured constant
/// rate, however the per-seed loop is organised. Captured at commit
/// `e13ddd0`, when `train_distributed` trained in one `train_serial` call
/// per checkpoint under an external learning-rate staircase.
#[test]
fn train_distributed_without_checkpoints_matches_golden() {
    let scenario = scenario();
    for (algorithm, golden) in [
        (Algorithm::A2c, A2C_DISTRIBUTED_ONE_CHECKPOINT),
        (Algorithm::Acktr, ACKTR_DISTRIBUTED_ONE_CHECKPOINT),
        (Algorithm::Ppo, PPO_DISTRIBUTED_ONE_CHECKPOINT),
    ] {
        let config = TrainConfig {
            algorithm,
            total_steps: 384,
            n_envs: 2,
            seeds: vec![4],
            a2c: A2cConfig {
                hidden: HIDDEN,
                lr_decay: false,
                ..A2cConfig::default()
            },
            acktr: AcktrConfig {
                hidden: HIDDEN,
                lr_decay: false,
                ..AcktrConfig::default()
            },
            ppo: PpoConfig {
                hidden: HIDDEN,
                ..PpoConfig::default()
            },
            eval_horizon: 150.0,
            checkpoints: 1,
            ..TrainConfig::default()
        };
        let trained = train_distributed(&scenario, &config);
        check(
            &format!("train_distributed/{}/one-checkpoint", algorithm.name()),
            fingerprint(&[trained.policy.actor()]),
            golden,
        );
    }
}

/// `train_per_node` interleaves one learner per node over one simulator;
/// the fingerprint covers every node's deployed actor, with and without
/// FedAvg. Captured at commit `eff9b8f`, when `NodeLearner::update` was a
/// hand-written copy of the A2C update; re-captured on purpose when the
/// episode boundary began crediting the events drained with it (in each
/// run here: the last forward's hop penalty — no terminal event).
#[test]
fn train_per_node_matches_golden() {
    let scenario = ScenarioConfig::paper_base(2)
        .with_pattern(dosco::traffic::ArrivalPattern::paper_poisson())
        .with_horizon(600.0);
    for (sync_interval, golden) in [(Some(400), PER_NODE_FEDAVG), (None, PER_NODE_INDEPENDENT)] {
        let config = FederatedConfig {
            total_decisions: 1_500,
            batch_size: 16,
            hidden: HIDDEN,
            sync_interval,
            ..FederatedConfig::default()
        };
        let trained = train_per_node(&scenario, &config, 1);
        let actors: Vec<&Mlp> = trained.policies().iter().map(|p| p.actor()).collect();
        check(
            &format!("train_per_node/{sync_interval:?}"),
            fingerprint(&actors),
            golden,
        );
    }
}

const A2C_SERIAL: u64 = 0x61c4_c13e_e315_cfe3;
const ACKTR_SERIAL: u64 = 0xcca7_a076_1197_56b5;
const ACKTR_THREE_REFRESHES: u64 = 0xa610_08f1_3cfb_9a4f;
const ACKTR_PAPER_ARCH: u64 = 0x4e77_d7a2_741f_2fb5;
const PPO_SERIAL: u64 = 0x349d_3287_a0e3_3335;
const A2C_DISTRIBUTED: u64 = 0xe39c_1cb5_e69c_1171;
const ACKTR_DISTRIBUTED: u64 = 0xd871_fb13_d181_e45b;
const PPO_DISTRIBUTED: u64 = 0x5a49_2d1e_7d6a_83e5;
const A2C_DISTRIBUTED_ONE_CHECKPOINT: u64 = 0xc079_0b78_d94e_273b;
const ACKTR_DISTRIBUTED_ONE_CHECKPOINT: u64 = 0x25cb_55e6_900e_f4fb;
const PPO_DISTRIBUTED_ONE_CHECKPOINT: u64 = 0x5f39_843b_7b5e_cea9;
const PER_NODE_FEDAVG: u64 = 0x34e3_ded2_6724_5505;
const PER_NODE_INDEPENDENT: u64 = 0xac2c_982b_8059_a40f;

//! Centralized training of the shared policy (Alg. 1, Fig. 4a).
//!
//! Experience from all nodes flows into one logically centralized network:
//! the Gym adapter serializes every node's decisions into a single
//! trajectory, `l` parallel environment copies diversify the data, and
//! `k` seeds are trained in parallel with the best agent selected for
//! deployment.

use crate::eval;
use crate::gymenv::CoordEnv;
use crate::policy::{CoordinationPolicy, DistributedAgents, PolicyMetadata};
use crate::reward::RewardConfig;
use dosco_chaos::ChurnSchedule;
use dosco_nn::Mlp;
use dosco_rl::a2c::{A2c, A2cConfig, TrainStats};
use dosco_rl::acktr::{Acktr, AcktrConfig};
use dosco_rl::env::Env;
use dosco_rl::learner::{train_serial_with, Learner};
use dosco_rl::ppo::{Ppo, PpoConfig};
use dosco_rl::rollout::Rollout;
use dosco_rl::trainer::train_multi_seed;
use dosco_simnet::ScenarioConfig;
use serde::{Deserialize, Serialize};
use std::ops::ControlFlow;

/// The training code's revision, part of a cached policy's identity: bumped
/// with every re-capture of the fingerprints in `tests/train_goldens.rs`.
pub const TRAINING_REVISION: u32 = 1;

/// The three capacity draws a checkpoint is scored on.
const EVAL_SEEDS: [u64; 3] = [0xE7A1, 0xE7A2, 0xE7A3];

/// The training algorithm to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Algorithm {
    /// ACKTR — the paper's algorithm (Sec. IV-C2).
    Acktr,
    /// Plain A2C with RMSprop (ablation).
    A2c,
    /// PPO-clip (ablation).
    Ppo,
}

impl Algorithm {
    /// Lowercase name for reports.
    pub fn name(self) -> &'static str {
        match self {
            Algorithm::Acktr => "acktr",
            Algorithm::A2c => "a2c",
            Algorithm::Ppo => "ppo",
        }
    }
}

/// Training configuration (paper hyperparameters as defaults, at reduced
/// scale where noted).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrainConfig {
    /// Algorithm (paper: ACKTR).
    pub algorithm: Algorithm,
    /// Environment transitions per seed.
    pub total_steps: usize,
    /// Parallel environment copies `l` (paper: 4).
    pub n_envs: usize,
    /// Training seeds `k` (paper: 10 — default reduced for runtime).
    pub seeds: Vec<u64>,
    /// Reward shaping coefficients.
    pub reward: RewardConfig,
    /// ACKTR hyperparameters (paper values).
    pub acktr: AcktrConfig,
    /// A2C hyperparameters (for [`Algorithm::A2c`]).
    pub a2c: A2cConfig,
    /// PPO hyperparameters (for [`Algorithm::Ppo`]).
    pub ppo: PpoConfig,
    /// Pad observation/action spaces to this degree instead of the
    /// training topology's (for cross-topology transfer).
    pub degree_override: Option<usize>,
    /// Horizon of the held-out evaluation episodes that score every
    /// checkpoint, and so select the best seed.
    pub eval_horizon: f64,
    /// Number of greedy evaluations per seed, at evenly spaced update
    /// boundaries, the last after the final update; the best-scoring one
    /// is kept (on-policy DRL can peak before the end of the budget; cf.
    /// the best-model callbacks of stable-baselines \[46\]). Evaluation
    /// never touches the learner or the training envs, so the trained
    /// weights do not depend on it. 1 keeps the final policy.
    pub checkpoints: usize,
    /// Train on the scenario's canonical capacity draw only, instead of
    /// re-drawing capacities per episode. Narrower distribution: easier
    /// to learn at small budgets, weaker transfer across seeded draws.
    pub fixed_capacity_training: bool,
    /// Substrate churn applied during training episodes: each episode
    /// compiles this schedule against the scenario topology with a
    /// churn-private seed stream, so the policy learns under link/node
    /// failures and degradations. The held-out selection episode stays on
    /// the clean substrate. [`ChurnSchedule::none`] (the default) trains
    /// on a static substrate.
    pub churn: ChurnSchedule,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            algorithm: Algorithm::Acktr,
            total_steps: 60_000,
            n_envs: 4,
            seeds: vec![0, 1, 2],
            reward: RewardConfig::default(),
            acktr: AcktrConfig::default(),
            a2c: A2cConfig::default(),
            ppo: PpoConfig::default(),
            degree_override: None,
            eval_horizon: 2_000.0,
            checkpoints: 8,
            fixed_capacity_training: false,
            churn: ChurnSchedule::none(),
        }
    }
}

/// The outcome of a training run.
#[derive(Debug, Clone)]
pub struct TrainedPolicy {
    /// The best policy across seeds, ready for distributed deployment.
    pub policy: CoordinationPolicy,
    /// Per-seed selection scores (success ratio on the eval episode),
    /// best first.
    pub seed_scores: Vec<(u64, f32)>,
}

fn make_envs(scenario: &ScenarioConfig, config: &TrainConfig, seed: u64) -> Vec<Box<dyn Env>> {
    (0..config.n_envs)
        .map(|i| {
            let mut env = CoordEnv::new(
                scenario.clone(),
                config.reward,
                seed.wrapping_mul(1_000_003).wrapping_add(i as u64),
                config.degree_override,
            );
            if config.fixed_capacity_training {
                env = env.with_fixed_capacities();
            }
            Box::new(env.with_churn(config.churn.clone())) as Box<dyn Env>
        })
        .collect()
}

/// Trains one seed's agent on `envs` for `config.total_steps` in one
/// [`train_serial_with`] call (one collector, so no episode is cut short,
/// and the learner's own schedule), handing it to `on_update` after every
/// update. The agent is `config.algorithm`'s, built from its block of
/// `config` for the envs' dimensions and `seed`: the one place an
/// [`Algorithm`] becomes a [`Learner`]. The per-seed loop of
/// [`train_distributed`] and of the `traincurve` diagnostic.
///
/// # Panics
///
/// Panics if `envs` is empty or the envs' dimensions differ.
#[allow(clippy::expect_used, reason = "the documented # Panics contract")]
pub fn train_seed(
    config: &TrainConfig,
    envs: &mut [Box<dyn Env>],
    seed: u64,
    mut on_update: impl FnMut(&dyn Learner, &Rollout, &TrainStats),
) -> (Box<dyn Learner>, TrainStats) {
    let env = envs.first().expect("need at least one env");
    let (obs, actions) = (env.obs_dim(), env.num_actions());
    let mut learner: Box<dyn Learner> = match config.algorithm {
        Algorithm::Acktr => Box::new(Acktr::new(obs, actions, config.acktr, seed)),
        Algorithm::A2c => Box::new(A2c::new(obs, actions, config.a2c, seed)),
        Algorithm::Ppo => Box::new(Ppo::new(obs, actions, config.ppo, seed)),
    };
    let stats = train_serial_with(&mut *learner, envs, config.total_steps, |l, r, s| {
        if let Some(r) = r {
            on_update(l, r, s);
        }
        ControlFlow::Continue(())
    });
    (learner, stats)
}

/// Trains seed `seed` of [`train_distributed`] and returns its greedy
/// policy at `config.checkpoints` evenly spaced update boundaries, the last
/// after the final update, in training order. Each carries its score: the
/// deployed success ratio over three capacity draws of the held-out
/// episode, [`eval::evaluate_draws`]' mean (a draw in which no flow
/// terminated is skipped; `NaN` if every draw is such).
fn train_checkpoints(
    scenario: &ScenarioConfig,
    config: &TrainConfig,
    seed: u64,
) -> Vec<CoordinationPolicy> {
    let degree = config
        .degree_override
        .unwrap_or_else(|| scenario.topology.network_degree());
    let eval_scenario = scenario.clone().with_horizon(config.eval_horizon);
    let ingresses = scenario.ingresses.len();
    let metadata = PolicyMetadata {
        scenario: format!("{} / {ingresses} ingress", scenario.topology.name()),
        algorithm: config.algorithm.name().to_string(),
        seed,
        ..PolicyMetadata::default()
    };
    let checkpoint = |actor: &Mlp, total_steps: usize| {
        let metadata = PolicyMetadata {
            total_steps,
            ..metadata.clone()
        };
        let mut policy = CoordinationPolicy::new(actor.clone(), degree, metadata);
        let draws = eval::evaluate_draws(&eval_scenario, &EVAL_SEEDS, |s, _| {
            Box::new(DistributedAgents::deploy(&policy, s.topology.num_nodes()))
        });
        policy.metadata.score = draws.mean_success as f32;
        policy
    };

    let mut envs = make_envs(scenario, config, seed);
    let n_envs = envs.len();
    let k = config.checkpoints.max(1);
    let mut checkpoints = Vec::with_capacity(k);
    let (learner, stats) = train_seed(config, &mut envs, seed, |agent, _, stats| {
        let updates = config
            .total_steps
            .div_ceil(agent.collect_params().n_steps * n_envs);
        // Score when update `done` reaches the next of `k` evenly spaced
        // marks; the mark at the final update is scored after training.
        let done = stats.mean_rewards.len();
        if done < updates && done * k / updates > (done - 1) * k / updates {
            checkpoints.push(checkpoint(agent.actor(), stats.total_steps));
        }
    });
    checkpoints.push(checkpoint(learner.actor(), stats.total_steps));
    checkpoints
}

/// The best-scoring checkpoint, the earliest on ties; a `NaN` score never
/// displaces a defined one (the order [`train_multi_seed`] ranks seeds by).
fn select(checkpoints: Vec<CoordinationPolicy>) -> CoordinationPolicy {
    let score = |p: &CoordinationPolicy| p.metadata.score;
    #[allow(clippy::expect_used, reason = "the final policy is a checkpoint")]
    checkpoints
        .into_iter()
        .min_by(|a, b| {
            let nan_last = score(a).is_nan().cmp(&score(b).is_nan());
            nan_last.then_with(|| score(b).total_cmp(&score(a)))
        })
        .expect("at least one checkpoint")
}

/// Trains the distributed coordination policy on `scenario` (Alg. 1):
/// centralized training over `config.n_envs` parallel environments for
/// every seed in `config.seeds` (fanned out over the cores), then selects the
/// seed whose greedy policy achieves the highest success ratio on a held-
/// out evaluation episode.
///
/// # Panics
///
/// Panics if the scenario is invalid or `config.seeds` is empty.
#[allow(clippy::expect_used, reason = "the documented # Panics contract")]
pub fn train_distributed(scenario: &ScenarioConfig, config: &TrainConfig) -> TrainedPolicy {
    scenario.validate().expect("scenario must be valid");
    let results = train_multi_seed(&config.seeds, |seed| {
        let policy = select(train_checkpoints(scenario, config, seed));
        let score = policy.metadata.score;
        (policy, score)
    });
    TrainedPolicy {
        seed_scores: results.iter().map(|r| (r.seed, r.score)).collect(),
        policy: results.into_iter().next().expect("at least one seed").agent,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dosco_traffic::ArrivalPattern;

    /// End-to-end smoke test at tiny scale: training runs, returns a
    /// deployable policy, and the seed scores are sorted best-first.
    #[test]
    fn trains_and_selects_best_seed() {
        let scenario = ScenarioConfig::paper_base(1)
            .with_pattern(ArrivalPattern::paper_poisson())
            .with_horizon(400.0);
        let config = TrainConfig {
            algorithm: Algorithm::A2c, // cheapest for a smoke test
            total_steps: 2_000,
            n_envs: 2,
            seeds: vec![1, 2],
            a2c: A2cConfig {
                hidden: [16, 16],
                ..A2cConfig::default()
            },
            eval_horizon: 300.0,
            ..TrainConfig::default()
        };
        let trained = train_distributed(&scenario, &config);
        assert_eq!(trained.seed_scores.len(), 2);
        assert!(trained.seed_scores[0].1 >= trained.seed_scores[1].1);
        assert_eq!(trained.policy.degree(), 3);
        assert_eq!(trained.policy.metadata.algorithm, "a2c");
        // The returned policy is the best seed's.
        assert!((trained.policy.metadata.score - trained.seed_scores[0].1).abs() < 1e-6);
    }

    #[test]
    fn acktr_training_smoke() {
        let scenario = ScenarioConfig::paper_base(1).with_horizon(300.0);
        let config = TrainConfig {
            algorithm: Algorithm::Acktr,
            total_steps: 600,
            n_envs: 2,
            seeds: vec![3],
            acktr: AcktrConfig {
                hidden: [16, 16],
                ..AcktrConfig::default()
            },
            eval_horizon: 200.0,
            ..TrainConfig::default()
        };
        let trained = train_distributed(&scenario, &config);
        assert_eq!(trained.policy.metadata.algorithm, "acktr");
    }

    fn small_a2c(checkpoints: usize, eval_horizon: f64) -> TrainConfig {
        TrainConfig {
            algorithm: Algorithm::A2c,
            total_steps: 640,
            n_envs: 2,
            seeds: vec![5],
            a2c: A2cConfig {
                hidden: [8, 8],
                ..A2cConfig::default()
            },
            eval_horizon,
            checkpoints,
            ..TrainConfig::default()
        }
    }

    /// Scoring checkpoints reads the actor and nothing else: the weights
    /// after the final update are the same with four checkpoints as with
    /// one, and the checkpoints sit at evenly spaced update boundaries.
    #[test]
    fn evaluation_does_not_perturb_training() {
        let scenario = ScenarioConfig::paper_base(1).with_horizon(300.0);
        let four = train_checkpoints(&scenario, &small_a2c(4, 200.0), 5);
        let one = train_checkpoints(&scenario, &small_a2c(1, 200.0), 5);
        // 640 steps of 2 envs × 16 steps: 20 updates, a checkpoint every 5.
        let steps = |cks: &[CoordinationPolicy]| -> Vec<usize> {
            cks.iter().map(|p| p.metadata.total_steps).collect()
        };
        assert_eq!(steps(&four), [160, 320, 480, 640]);
        assert_eq!(steps(&one), [640]);
        assert_eq!(four[3], one[0]);

        // The best-scoring checkpoint is kept, the earliest on ties, and a
        // NaN (no flow terminated) never displaces a defined score.
        let selected = |scores: [f32; 4]| {
            let mut cks = four.clone();
            for (p, score) in cks.iter_mut().zip(scores) {
                p.metadata.score = score;
            }
            select(cks).metadata.total_steps
        };
        assert_eq!(selected([f32::NAN, 0.5, 0.5, 0.2]), 320);
        assert_eq!(selected([0.1, f32::NAN, 0.3, 0.3]), 480);
        assert_eq!(selected([0.0; 4]), 160);
        assert_eq!(selected([f32::NAN; 4]), 160);
        let best = select(four.clone());
        let (top, at) = (best.metadata.score, best.metadata.total_steps / 160 - 1);
        // Every earlier checkpoint scored less, and no later one more.
        let scores = four.iter().map(|p| p.metadata.score);
        assert!(scores.clone().take(at).all(|s| s < top || s.is_nan()));
        assert!(scores.skip(at).all(|s| s <= top || s.is_nan()));
    }

    /// A selection episode too short for any flow to terminate scores NaN
    /// (no data), not the vacuous 1.0 of `Metrics::success_ratio`.
    #[test]
    fn vacuous_selection_episodes_score_nan() {
        let scenario = ScenarioConfig::paper_base(1).with_horizon(300.0);
        let trained = train_distributed(&scenario, &small_a2c(2, 5.0));
        assert!(trained.seed_scores[0].1.is_nan());
        assert_eq!(trained.policy.metadata.total_steps, 320);
    }

    #[test]
    fn degree_override_produces_transferable_policy() {
        let scenario = ScenarioConfig::paper_base(1).with_horizon(200.0);
        let config = TrainConfig {
            algorithm: Algorithm::A2c,
            total_steps: 400,
            n_envs: 1,
            seeds: vec![0],
            a2c: A2cConfig {
                hidden: [8, 8],
                ..A2cConfig::default()
            },
            degree_override: Some(7),
            eval_horizon: 150.0,
            ..TrainConfig::default()
        };
        let trained = train_distributed(&scenario, &config);
        assert_eq!(trained.policy.degree(), 7);
        assert_eq!(trained.policy.actor().inputs(), 32);
    }
}

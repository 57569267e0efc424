//! Centralized training of the shared policy (Alg. 1, Fig. 4a).
//!
//! Experience from all nodes flows into one logically centralized network:
//! the Gym adapter serializes every node's decisions into a single
//! trajectory, `l` parallel environment copies diversify the data, and
//! `k` seeds are trained in parallel with the best agent selected for
//! deployment.

use crate::eval;
use crate::gymenv::CoordEnv;
use dosco_chaos::ChurnSchedule;
use crate::policy::{CoordinationPolicy, PolicyMetadata};
use crate::reward::RewardConfig;
use dosco_rl::a2c::{A2c, A2cConfig};
use dosco_rl::acktr::{Acktr, AcktrConfig};
use dosco_rl::env::Env;
use dosco_rl::learner::{decayed_lr, train_serial, Learner};
use dosco_rl::ppo::{Ppo, PpoConfig};
use dosco_rl::trainer::train_multi_seed;
use dosco_simnet::ScenarioConfig;
use serde::{Deserialize, Serialize};

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
    /// Horizon of the post-training evaluation episode used to score and
    /// select the best seed.
    pub eval_horizon: f64,
    /// Seed for the evaluation episode.
    pub eval_seed: u64,
    /// Number of training checkpoints per seed: training pauses this many
    /// times for a greedy evaluation, and the best checkpoint is kept
    /// (on-policy DRL can peak before the end of the budget; cf. the
    /// best-model callbacks of stable-baselines [46]). 1 disables
    /// checkpointing. The learning rate decays linearly to 10 % across
    /// checkpoints.
    pub checkpoints: usize,
    /// Train on the scenario's canonical capacity draw only, instead of
    /// re-drawing capacities per episode. Narrower distribution: easier
    /// to learn at small budgets, weaker transfer across seeded draws.
    pub fixed_capacity_training: bool,
    /// Substrate churn applied during training episodes: each episode
    /// compiles this schedule against the scenario topology with a
    /// churn-private seed stream, so the policy learns under link/node
    /// failures and degradations. The held-out selection episode stays on
    /// the clean substrate. `None` trains exactly as before.
    pub churn: Option<ChurnSchedule>,
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
            eval_seed: 0xE7A1,
            checkpoints: 8,
            fixed_capacity_training: false,
            churn: None,
        }
    }
}

impl TrainConfig {
    /// The agent `self.algorithm` names, built from that algorithm's
    /// hyperparameter block — the one place an [`Algorithm`] becomes a
    /// [`Learner`].
    pub fn learner(&self, obs_dim: usize, num_actions: usize, seed: u64) -> Box<dyn Learner> {
        match self.algorithm {
            Algorithm::Acktr => Box::new(Acktr::new(obs_dim, num_actions, self.acktr, seed)),
            Algorithm::A2c => Box::new(A2c::new(obs_dim, num_actions, self.a2c, seed)),
            Algorithm::Ppo => Box::new(Ppo::new(obs_dim, num_actions, self.ppo, seed)),
        }
    }

    /// The initial learning rate of `self.algorithm`.
    fn base_lr(&self) -> f32 {
        match self.algorithm {
            Algorithm::Acktr => self.acktr.lr,
            Algorithm::A2c => self.a2c.lr,
            Algorithm::Ppo => self.ppo.lr,
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

fn make_envs(
    scenario: &ScenarioConfig,
    reward: RewardConfig,
    n_envs: usize,
    seed: u64,
    degree_override: Option<usize>,
    fixed_capacities: bool,
    churn: Option<&ChurnSchedule>,
) -> Vec<Box<dyn Env>> {
    (0..n_envs)
        .map(|i| {
            let mut env = CoordEnv::new(
                scenario.clone(),
                reward,
                seed.wrapping_mul(1_000_003).wrapping_add(i as u64),
                degree_override,
            );
            if fixed_capacities {
                env = env.with_fixed_capacities();
            }
            if let Some(schedule) = churn {
                env = env.with_churn(schedule.clone());
            }
            Box::new(env) as Box<dyn Env>
        })
        .collect()
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
pub fn train_distributed(scenario: &ScenarioConfig, config: &TrainConfig) -> TrainedPolicy {
    scenario.validate().expect("scenario must be valid");
    let degree = config
        .degree_override
        .unwrap_or_else(|| scenario.topology.network_degree());
    let obs_dim = 4 * degree + 4;
    let num_actions = degree + 1;

    let eval_scenario = scenario.clone().with_horizon(config.eval_horizon);
    let checkpoints = config.checkpoints.max(1);
    let chunk = (config.total_steps / checkpoints).max(1);

    // The checkpoint loop below owns the schedule, so the agents'
    // internal decay is off.
    let mut undecayed = config.clone();
    undecayed.acktr.lr_decay = false;
    undecayed.a2c.lr_decay = false;
    let base_lr = config.base_lr();

    let results = train_multi_seed(&config.seeds, |seed| {
        let mut envs = make_envs(
            scenario,
            config.reward,
            config.n_envs,
            seed,
            config.degree_override,
            config.fixed_capacity_training,
            config.churn.as_ref(),
        );
        let mut agent = undecayed.learner(obs_dim, num_actions, seed);
        let mut best: Option<(f32, CoordinationPolicy)> = None;
        for ck in 0..checkpoints {
            agent.set_lr(decayed_lr(base_lr, ck, checkpoints));
            train_serial(&mut *agent, &mut envs, chunk);
            let actor = agent.actor().clone();
            let policy = CoordinationPolicy::new(
                actor,
                degree,
                PolicyMetadata {
                    scenario: format!(
                        "{} / {} ingress",
                        scenario.topology.name(),
                        scenario.ingresses.len()
                    ),
                    algorithm: config.algorithm.name().to_string(),
                    seed,
                    score: 0.0,
                    total_steps: (ck + 1) * chunk,
                },
            );
            // Score by deployed (greedy, distributed) success ratio,
            // averaged over a few random capacity draws to match the
            // evaluation protocol.
            let score = (0..3)
                .map(|i| {
                    eval::evaluate_with_capacity_draw(
                        &policy,
                        &eval_scenario,
                        config.eval_seed + i,
                    )
                    .success_ratio() as f32
                })
                .sum::<f32>()
                / 3.0;
            if best.as_ref().is_none_or(|(s, _)| score > *s) {
                best = Some((score, policy));
            }
        }
        let (score, policy) = best.expect("at least one checkpoint");
        (policy, score)
    });

    let seed_scores: Vec<(u64, f32)> = results.iter().map(|r| (r.seed, r.score)).collect();
    let best = results
        .into_iter()
        .next()
        .expect("at least one seed result");
    let mut policy = best.agent;
    policy.metadata.score = best.score;
    TrainedPolicy {
        policy,
        seed_scores,
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

//! Algorithm registry, training orchestration, and evaluation runs.

use dosco_baselines::central::{
    train_central, CentralConfig, CentralPolicy, CentralizedCoordinator,
};
use dosco_baselines::gcasp::Gcasp;
use dosco_baselines::sp::ShortestPath;
use dosco_core::eval::{eval_seeds, evaluate_draws, EvalStats};
use dosco_core::policy::{fnv1a64, CoordinationPolicy};
use dosco_core::train::{train_distributed, Algorithm, TrainConfig, TRAINING_REVISION};
use dosco_core::DistributedAgents;
use dosco_rl::ddpg::DdpgConfig;
use dosco_simnet::{Coordinator, ScenarioConfig};
use std::path::{Path, PathBuf};

/// Experiment budget: scaled-down defaults that preserve the paper's
/// qualitative shapes; override via CLI flags or env for full-scale runs
/// (see EXPERIMENTS.md).
#[derive(Debug, Clone, PartialEq)]
pub struct ExpBudget {
    /// Environment transitions per training seed (distributed DRL).
    pub train_steps: usize,
    /// Training seeds `k` (paper: 10).
    pub train_seeds: Vec<u64>,
    /// Parallel training envs `l` (paper: 4).
    pub n_envs: usize,
    /// Rule updates to train the centralized baseline for.
    pub central_steps: usize,
    /// Evaluation seeds (paper: 30).
    pub eval_seeds: Vec<u64>,
    /// Evaluation horizon `T` (paper: 20 000).
    pub horizon: f64,
}

impl Default for ExpBudget {
    fn default() -> Self {
        ExpBudget {
            train_steps: 40_000,
            train_seeds: vec![0, 1, 2],
            n_envs: 4,
            central_steps: 600,
            eval_seeds: eval_seeds(5),
            horizon: 5_000.0,
        }
    }
}

/// A rejected experiment-budget environment override: names the variable
/// and the offending value instead of a bare parse panic. The shared
/// [`dosco_obs::env`] helper implements the contract (empty = unset,
/// malformed = hard error); this alias keeps the historical name.
pub use dosco_obs::env::EnvParseError as BudgetEnvError;

use dosco_obs::env::parse_lookup as parse_override;

impl ExpBudget {
    /// Reads overrides from environment variables
    /// (`DOSCO_TRAIN_STEPS`, `DOSCO_SEEDS`, `DOSCO_EVAL_SEEDS`,
    /// `DOSCO_HORIZON`, `DOSCO_CENTRAL_STEPS`) so full-scale runs don't
    /// need code edits.
    ///
    /// # Panics
    ///
    /// Panics with the [`BudgetEnvError`] message (named variable plus
    /// offending value) if an override is set but invalid. Use
    /// [`ExpBudget::try_from_env`] to handle the error instead.
    pub fn from_env() -> Self {
        Self::try_from_env().unwrap_or_else(|e| panic!("{e}"))
    }

    /// Like [`ExpBudget::from_env`], returning the validation error
    /// instead of panicking.
    ///
    /// # Errors
    ///
    /// Returns [`BudgetEnvError`] for the first override that is set but
    /// does not parse/validate. Empty-string variables behave like unset.
    pub fn try_from_env() -> Result<Self, BudgetEnvError> {
        Self::from_lookup(&|var| std::env::var(var).ok())
    }

    /// [`ExpBudget::try_from_env`] over an arbitrary variable lookup
    /// (injectable for tests — no process-global environment mutation).
    ///
    /// # Errors
    ///
    /// See [`ExpBudget::try_from_env`].
    pub fn from_lookup(get: &dyn Fn(&str) -> Option<String>) -> Result<Self, BudgetEnvError> {
        let mut b = ExpBudget::default();
        if let Some(v) =
            parse_override::<usize>(get, "DOSCO_TRAIN_STEPS", "a positive integer", |&v| v >= 1)?
        {
            b.train_steps = v;
        }
        if let Some(k) =
            parse_override::<u64>(get, "DOSCO_SEEDS", "a positive integer", |&v| v >= 1)?
        {
            b.train_seeds = (0..k).collect();
        }
        if let Some(k) =
            parse_override::<u64>(get, "DOSCO_EVAL_SEEDS", "a positive integer", |&v| v >= 1)?
        {
            b.eval_seeds = eval_seeds(k);
        }
        if let Some(v) =
            parse_override::<f64>(get, "DOSCO_HORIZON", "a finite positive number", |&v| {
                v.is_finite() && v > 0.0
            })?
        {
            b.horizon = v;
        }
        if let Some(v) =
            parse_override::<usize>(get, "DOSCO_CENTRAL_STEPS", "a positive integer", |&v| {
                v >= 1
            })?
        {
            b.central_steps = v;
        }
        Ok(b)
    }

    /// The distributed-DRL training configuration for this budget.
    pub fn train_config(&self) -> TrainConfig {
        TrainConfig {
            algorithm: Algorithm::Acktr,
            total_steps: self.train_steps,
            n_envs: self.n_envs,
            seeds: self.train_seeds.clone(),
            eval_horizon: (self.horizon / 2.0).max(1_000.0),
            ..TrainConfig::default()
        }
    }

    /// The centralized-baseline training configuration.
    pub fn central_config(&self) -> CentralConfig {
        CentralConfig {
            train_steps: self.central_steps,
            ddpg: DdpgConfig {
                hidden: [64, 64],
                warmup: 64,
                batch_size: 32,
                ..DdpgConfig::default()
            },
            ..CentralConfig::default()
        }
    }
}

/// A compared algorithm, ready to evaluate. Trained variants carry their
/// trained policies.
#[derive(Debug, Clone)]
pub enum Algo {
    /// The paper's fully distributed DRL approach.
    DistDrl(CoordinationPolicy),
    /// The centralized DRL baseline (the paper's ref 10).
    CentralDrl(CentralPolicy),
    /// The fully distributed heuristic (the paper's ref 11).
    Gcasp,
    /// Greedy shortest path.
    Sp,
}

impl Algo {
    /// Display name as used in the paper's legends.
    pub fn name(&self) -> &'static str {
        match self {
            Algo::DistDrl(_) => "DistDRL",
            Algo::CentralDrl(_) => "CentralDRL",
            Algo::Gcasp => "GCASP",
            Algo::Sp => "SP",
        }
    }

    /// A fresh coordinator instance for one evaluation episode.
    pub fn coordinator(&self, scenario: &ScenarioConfig) -> Box<dyn Coordinator> {
        match self {
            Algo::DistDrl(p) => {
                Box::new(DistributedAgents::deploy(p, scenario.topology.num_nodes()))
            }
            Algo::CentralDrl(p) => Box::new(CentralizedCoordinator::new(p.clone())),
            Algo::Gcasp => Box::new(Gcasp::new()),
            Algo::Sp => Box::new(ShortestPath::new()),
        }
    }

    /// Evaluates over `eval_seeds` on `scenario` by the paper's protocol
    /// ([`evaluate_draws`]: one episode per seed on that seed's capacity
    /// draw, with a fresh coordinator each).
    pub fn evaluate(&self, scenario: &ScenarioConfig, eval_seeds: &[u64]) -> EvalStats {
        evaluate_draws(scenario, eval_seeds, |drawn, _| self.coordinator(drawn))
    }
}

/// Trains the distributed DRL policy for a scenario under a budget.
pub fn train_dist_drl(scenario: &ScenarioConfig, budget: &ExpBudget) -> CoordinationPolicy {
    train_distributed(scenario, &budget.train_config()).policy
}

/// The directory [`train_dist_drl_cached`] keeps trained policies in.
const POLICY_CACHE: &str = "target/dosco-policies";

/// Where [`train_dist_drl_cached`] keeps the policy that `config` trains
/// on `scenario`: `target/dosco-policies/<key>-<hash>.json`, the hash the
/// FNV-1a of the serialized [`TRAINING_REVISION`], `config` and `scenario`.
/// Any change to what is trained, or to the training code, is a new file.
///
/// # Panics
///
/// Never: serializing plain configuration structs to a string cannot
/// fail.
#[allow(clippy::expect_used, reason = "the documented # Panics contract")]
pub fn policy_cache_path(key: &str, scenario: &ScenarioConfig, config: &TrainConfig) -> PathBuf {
    let identity = serde_json::to_string(&(TRAINING_REVISION, config, scenario))
        .expect("in-memory serialization cannot fail");
    let name = format!("{key}-{:016x}.json", fnv1a64(identity.as_bytes()));
    Path::new(POLICY_CACHE).join(name)
}

/// Like [`train_dist_drl`] but caches the trained policy as JSON under
/// `target/dosco-policies/` ([`policy_cache_path`]), so experiment binaries
/// sharing a configuration (e.g. Fig. 6 and Fig. 8) train only once.
/// Delete the cache directory to force retraining.
pub fn train_dist_drl_cached(
    key: &str,
    scenario: &ScenarioConfig,
    budget: &ExpBudget,
) -> CoordinationPolicy {
    let path = policy_cache_path(key, scenario, &budget.train_config());
    if let Ok(policy) = CoordinationPolicy::load(&path) {
        eprintln!("[cache] loaded {}", path.display());
        return policy;
    }
    let t = std::time::Instant::now();
    let policy = train_dist_drl(scenario, budget);
    eprintln!(
        "[train] {key}: best seed {} score {:.3} in {:.0}s",
        policy.metadata.seed,
        policy.metadata.score,
        t.elapsed().as_secs_f64()
    );
    if std::fs::create_dir_all(POLICY_CACHE).is_ok() {
        let _ = policy.save(&path);
    }
    policy
}

/// Trains the centralized baseline for a scenario under a budget.
pub fn train_central_drl(scenario: &ScenarioConfig, budget: &ExpBudget) -> CentralPolicy {
    train_central(scenario, &budget.central_config())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenarios::base_scenario;
    use dosco_traffic::ArrivalPattern;

    #[test]
    fn heuristics_evaluate_without_training() {
        let scenario = base_scenario(2, ArrivalPattern::paper_poisson(), 800.0);
        for algo in [Algo::Gcasp, Algo::Sp] {
            let stats = algo.evaluate(&scenario, &[1, 2]);
            assert_eq!(stats.metrics.len(), 2);
            assert!((0.0..=1.0).contains(&stats.mean_success), "{}", algo.name());
        }
    }

    #[test]
    fn names_match_paper_legends() {
        let scenario = base_scenario(1, ArrivalPattern::paper_fixed(), 100.0);
        assert_eq!(Algo::Gcasp.name(), "GCASP");
        assert_eq!(Algo::Sp.name(), "SP");
        // Coordinator construction succeeds for the untrained variants.
        let _ = Algo::Gcasp.coordinator(&scenario);
        let _ = Algo::Sp.coordinator(&scenario);
    }

    /// The cache file is a function of everything that is trained: the
    /// same inputs give the same path, and a changed hyper-parameter or
    /// scenario a different one.
    #[test]
    fn policy_cache_path_keys_by_what_is_trained() {
        let scenario = base_scenario(2, ArrivalPattern::paper_poisson(), 800.0);
        let config = ExpBudget::default().train_config();
        let path = policy_cache_path("fig6", &scenario, &config);
        assert_eq!(path, policy_cache_path("fig6", &scenario, &config));
        assert!(path.to_string_lossy().contains("dosco-policies/fig6-"));
        let mut clipped = config.clone();
        clipped.acktr.kl_clip *= 0.5;
        assert_ne!(path, policy_cache_path("fig6", &scenario, &clipped));
        let longer = scenario.clone().with_horizon(1_600.0);
        assert_ne!(path, policy_cache_path("fig6", &longer, &config));
    }

    #[test]
    fn budget_env_overrides() {
        // Only checks the default path (env vars unset in tests).
        let b = ExpBudget::from_env();
        assert_eq!(b.n_envs, 4);
        let tc = b.train_config();
        assert_eq!(tc.seeds, b.train_seeds);
    }

    #[test]
    fn budget_lookup_applies_valid_overrides() {
        let get = |var: &str| -> Option<String> {
            match var {
                "DOSCO_TRAIN_STEPS" => Some("123".into()),
                "DOSCO_SEEDS" => Some("2".into()),
                "DOSCO_EVAL_SEEDS" => Some("3".into()),
                "DOSCO_HORIZON" => Some("2500.5".into()),
                "DOSCO_CENTRAL_STEPS" => Some(" 7 ".into()), // whitespace ok
                _ => None,
            }
        };
        let b = ExpBudget::from_lookup(&get).unwrap();
        assert_eq!(b.train_steps, 123);
        assert_eq!(b.train_seeds, vec![0, 1]);
        assert_eq!(b.eval_seeds, eval_seeds(3));
        assert_eq!(b.horizon, 2500.5);
        assert_eq!(b.central_steps, 7);
        assert_eq!(b.n_envs, 4, "untouched fields keep defaults");
    }

    /// Empty-string variables behave exactly like unset ones.
    #[test]
    fn budget_lookup_treats_empty_as_unset() {
        let get = |var: &str| -> Option<String> {
            match var {
                "DOSCO_TRAIN_STEPS" => Some(String::new()),
                "DOSCO_HORIZON" => Some("   ".into()),
                _ => None,
            }
        };
        assert_eq!(ExpBudget::from_lookup(&get).unwrap(), ExpBudget::default());
    }

    /// Invalid overrides produce one structured error naming the variable
    /// and the offending value — not a bare `expect` panic.
    #[test]
    fn budget_lookup_rejects_bad_values_with_context() {
        let cases: [(&str, &str); 4] = [
            ("DOSCO_TRAIN_STEPS", "lots"),
            ("DOSCO_SEEDS", "0"),     // validated, not just parsed
            ("DOSCO_HORIZON", "inf"), // must be finite
            ("DOSCO_CENTRAL_STEPS", "-3"),
        ];
        for (var, value) in cases {
            let get = move |v: &str| (v == var).then(|| value.to_string());
            let err = ExpBudget::from_lookup(&get).unwrap_err();
            assert_eq!(err.var, var);
            assert_eq!(err.value, value);
            let msg = err.to_string();
            assert!(msg.contains(var) && msg.contains(value), "{msg}");
        }
    }
}

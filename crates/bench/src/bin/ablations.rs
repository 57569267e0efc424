//! Ablations beyond the paper (DESIGN.md §3): the contribution of the
//! design choices the paper motivates qualitatively.
//!
//! 1. **Reward shaping** (Sec. IV-B3): shaped vs sparse-only rewards.
//! 2. **Training algorithm** (Sec. IV-C2): ACKTR vs A2C vs PPO at the same
//!    step budget.
//! 3. **Training architecture** (Sec. IV-C1): centralized training with a
//!    shared network (the paper's choice) vs fully distributed per-node
//!    training, with and without federated averaging.
//!
//! ```text
//! cargo run -p dosco-bench --release --bin ablations
//! ```

use dosco_bench::report::{print_series, SeriesPoint};
use dosco_bench::runner::{Algo, ExpBudget};
use dosco_bench::scenarios::base_scenario;
use dosco_core::train::{train_distributed, Algorithm, TrainConfig};
use dosco_core::RewardConfig;
use dosco_traffic::ArrivalPattern;

fn main() {
    let budget = ExpBudget::from_env();
    let scenario = base_scenario(2, ArrivalPattern::paper_poisson(), budget.horizon);
    let mut points = Vec::new();

    // --- Reward shaping ablation.
    for (label, reward) in [
        ("shaped", RewardConfig::default()),
        ("sparse", RewardConfig::sparse_only()),
    ] {
        let mut cfg: TrainConfig = budget.train_config();
        cfg.reward = reward;
        let trained = train_distributed(&scenario, &cfg);
        let stats = Algo::DistDrl(trained.policy).evaluate(&scenario, &budget.eval_seeds);
        eprintln!(
            "[ablation] reward={label}: {:.3} ± {:.3}",
            stats.mean_success, stats.std_success
        );
        points.push(SeriesPoint {
            algo: if label == "shaped" {
                "reward:shaped"
            } else {
                "reward:sparse"
            },
            x: "poisson-2ingress".into(),
            stats,
        });
    }

    // --- Algorithm ablation at the same budget.
    for (label, algorithm) in [
        ("ACKTR", Algorithm::Acktr),
        ("A2C", Algorithm::A2c),
        ("PPO", Algorithm::Ppo),
    ] {
        let mut cfg = budget.train_config();
        cfg.algorithm = algorithm;
        let trained = train_distributed(&scenario, &cfg);
        let stats = Algo::DistDrl(trained.policy).evaluate(&scenario, &budget.eval_seeds);
        eprintln!(
            "[ablation] algo={label}: {:.3} ± {:.3}",
            stats.mean_success, stats.std_success
        );
        points.push(SeriesPoint {
            algo: match label {
                "ACKTR" => "algo:ACKTR",
                "A2C" => "algo:A2C",
                _ => "algo:PPO",
            },
            x: "poisson-2ingress".into(),
            stats,
        });
    }

    // --- Training-architecture ablation (Sec. IV-C1): per-node training
    // with/without FedAvg sync, deployed as genuinely different per-node
    // networks.
    use dosco_core::federated::{train_per_node, FederatedConfig};
    for (label, sync) in [("per-node+fedavg", Some(2_000)), ("per-node", None)] {
        let fed_cfg = FederatedConfig {
            total_decisions: budget.train_steps,
            sync_interval: sync,
            ..FederatedConfig::default()
        };
        let policies = train_per_node(&scenario, &fed_cfg, 0);
        let stats = dosco_core::eval::evaluate_draws(&scenario, &budget.eval_seeds, |_, _| {
            Box::new(policies.clone())
        });
        eprintln!(
            "[ablation] arch={label}: {:.3} ± {:.3}",
            stats.mean_success, stats.std_success
        );
        points.push(SeriesPoint {
            algo: if sync.is_some() {
                "arch:per-node+fedavg"
            } else {
                "arch:per-node"
            },
            x: "poisson-2ingress".into(),
            stats,
        });
    }

    print_series("Ablations", "design-choice contributions", &points, false);
}

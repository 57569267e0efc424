//! Regenerates **Fig. 6**: percentage of successful flows over an
//! increasing number of ingress nodes (1–5) for the four traffic patterns
//! (a: fixed, b: Poisson, c: MMPP, d: real-world traces).
//!
//! ```text
//! cargo run -p dosco-bench --release --bin fig6 -- --pattern poisson
//! cargo run -p dosco-bench --release --bin fig6 -- --pattern all
//! ```
//!
//! By default the DRL policies are trained once per pattern (on the
//! 2-ingress scenario) and evaluated across all ingress counts — the
//! generalization the paper itself demonstrates in Fig. 8b. Pass
//! `--retrain` to retrain per ingress count as in the paper's full-scale
//! setup (5× the training time). Budget overrides: DOSCO_TRAIN_STEPS,
//! DOSCO_SEEDS, DOSCO_EVAL_SEEDS, DOSCO_HORIZON (see EXPERIMENTS.md).

use dosco_bench::report::{flag_value, print_series, SeriesPoint};
use dosco_bench::runner::{train_central_drl, train_dist_drl_cached, Algo, ExpBudget};
use dosco_bench::scenarios::{base_scenario, pattern_by_name};

fn run_pattern(pattern_name: &str, budget: &ExpBudget, retrain: bool) -> Vec<SeriesPoint> {
    let pattern = pattern_by_name(pattern_name);
    let mut points = Vec::new();

    // Train on the 2-ingress variant unless retraining per load level.
    let base_train = base_scenario(2, pattern.clone(), budget.horizon);
    let shared_policy = if retrain {
        None
    } else {
        Some(train_dist_drl_cached(
            &format!("fig6-{pattern_name}-i2"),
            &base_train,
            budget,
        ))
    };
    let central = train_central_drl(&base_train, budget);

    for ingress in 1..=5usize {
        let scenario = base_scenario(ingress, pattern.clone(), budget.horizon);
        let dist = match &shared_policy {
            Some(p) => p.clone(),
            None => train_dist_drl_cached(
                &format!("fig6-{pattern_name}-i{ingress}"),
                &scenario,
                budget,
            ),
        };
        for algo in [
            Algo::DistDrl(dist),
            Algo::CentralDrl(central.clone()),
            Algo::Gcasp,
            Algo::Sp,
        ] {
            let stats = algo.evaluate(&scenario, &budget.eval_seeds);
            eprintln!(
                "[fig6-{pattern_name}] ingress={ingress} {:<10} {:.3} ± {:.3}",
                algo.name(),
                stats.mean_success,
                stats.std_success
            );
            points.push(SeriesPoint {
                algo: algo.name(),
                x: ingress.to_string(),
                stats,
            });
        }
    }
    points
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let pattern = flag_value(&args, "--pattern").unwrap_or_else(|| "poisson".into());
    let retrain = args.iter().any(|a| a == "--retrain");
    let budget = ExpBudget::from_env();
    let subfig = |p: &str| match p {
        "fixed" => "Fig 6a",
        "poisson" => "Fig 6b",
        "mmpp" => "Fig 6c",
        "trace" => "Fig 6d",
        _ => "Fig 6",
    };
    let patterns: Vec<&str> = if pattern == "all" {
        vec!["fixed", "poisson", "mmpp", "trace"]
    } else {
        vec![pattern.as_str()]
    };
    for p in patterns {
        let points = run_pattern(p, &budget, retrain);
        print_series(
            subfig(p),
            &format!("successful flows vs #ingress ({p} arrival)"),
            &points,
            false,
        );
    }
}

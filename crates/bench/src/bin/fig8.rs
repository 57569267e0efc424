//! Regenerates **Fig. 8**: generalization to unseen scenarios without
//! retraining.
//!
//! - `--part traffic` (Fig. 8a): agents trained on fixed/Poisson/MMPP
//!   traffic are tested, without retraining, on the real-world-trace
//!   scenario ("Gen."), versus the agent retrained on traces ("Retr.")
//!   and the other algorithms.
//! - `--part load` (Fig. 8b): an agent trained with 2 ingress nodes is
//!   tested on 1–5 ingress nodes ("Gen."), versus agents retrained per
//!   load level ("Retr.") and the other algorithms.
//!
//! ```text
//! cargo run -p dosco-bench --release --bin fig8 -- --part traffic
//! cargo run -p dosco-bench --release --bin fig8 -- --part load
//! ```
//!
//! Policies are shared with `fig6` through the policy cache.

use dosco_bench::report::{bad_flag, flag_value, print_series, SeriesPoint};
use dosco_bench::runner::{train_central_drl, train_dist_drl_cached, Algo, ExpBudget};
use dosco_bench::scenarios::{base_scenario, pattern_by_name};

fn part_traffic(budget: &ExpBudget) {
    let trace_scenario = base_scenario(2, pattern_by_name("trace"), budget.horizon);
    let mut points = Vec::new();

    // Generalizing agents: trained on other patterns, tested on traces.
    for trained_on in ["fixed", "poisson", "mmpp"] {
        let train_scenario = base_scenario(2, pattern_by_name(trained_on), budget.horizon);
        let policy =
            train_dist_drl_cached(&format!("fig6-{trained_on}-i2"), &train_scenario, budget);
        let stats = Algo::DistDrl(policy).evaluate(&trace_scenario, &budget.eval_seeds);
        eprintln!(
            "[fig8a] Gen({trained_on}) on trace: {:.3} ± {:.3}",
            stats.mean_success, stats.std_success
        );
        points.push(SeriesPoint {
            algo: match trained_on {
                "fixed" => "Gen.fixed",
                "poisson" => "Gen.poisson",
                _ => "Gen.mmpp",
            },
            x: "trace".into(),
            stats,
        });
    }

    // Retrained on traces, plus the baselines.
    let retrained = train_dist_drl_cached("fig6-trace-i2", &trace_scenario, budget);
    let central = train_central_drl(&trace_scenario, budget);
    for (name, algo) in [
        ("Retr.", Algo::DistDrl(retrained)),
        ("CentralDRL", Algo::CentralDrl(central)),
        ("GCASP", Algo::Gcasp),
        ("SP", Algo::Sp),
    ] {
        let stats = algo.evaluate(&trace_scenario, &budget.eval_seeds);
        eprintln!(
            "[fig8a] {name}: {:.3} ± {:.3}",
            stats.mean_success, stats.std_success
        );
        points.push(SeriesPoint {
            algo: name,
            x: "trace".into(),
            stats,
        });
    }
    print_series(
        "Fig 8a",
        "generalization to unseen trace-driven traffic",
        &points,
        false,
    );
}

fn part_load(budget: &ExpBudget) {
    let pattern = pattern_by_name("poisson");
    let train_scenario = base_scenario(2, pattern.clone(), budget.horizon);
    let generalist = train_dist_drl_cached("fig6-poisson-i2", &train_scenario, budget);
    let central = train_central_drl(&train_scenario, budget);
    let mut points = Vec::new();
    for ingress in 1..=5usize {
        let scenario = base_scenario(ingress, pattern.clone(), budget.horizon);
        let retrained =
            train_dist_drl_cached(&format!("fig8b-poisson-i{ingress}"), &scenario, budget);
        for (name, algo) in [
            ("Gen.", Algo::DistDrl(generalist.clone())),
            ("Retr.", Algo::DistDrl(retrained)),
            ("CentralDRL", Algo::CentralDrl(central.clone())),
            ("GCASP", Algo::Gcasp),
            ("SP", Algo::Sp),
        ] {
            let stats = algo.evaluate(&scenario, &budget.eval_seeds);
            eprintln!(
                "[fig8b] ingress={ingress} {name:<10} {:.3} ± {:.3}",
                stats.mean_success, stats.std_success
            );
            points.push(SeriesPoint {
                algo: name,
                x: ingress.to_string(),
                stats,
            });
        }
    }
    print_series(
        "Fig 8b",
        "generalization to unseen load levels",
        &points,
        false,
    );
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let part = flag_value(&args, "--part").unwrap_or_else(|| "traffic".into());
    let budget = ExpBudget::from_env();
    match part.as_str() {
        "traffic" => part_traffic(&budget),
        "load" => part_load(&budget),
        "all" => {
            part_traffic(&budget);
            part_load(&budget);
        }
        other => bad_flag("--part", "traffic|load|all", other),
    }
}

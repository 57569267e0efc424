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

use dosco_bench::report::{print_series, SeriesPoint};
use dosco_bench::runner::{train_central_drl, train_dist_drl_cached, Algo, ExpBudget};
use dosco_bench::scenarios::base_scenario;
use dosco_traffic::ArrivalPattern;

fn part_traffic(budget: &ExpBudget) {
    let trace_scenario = base_scenario(2, ArrivalPattern::paper_trace(), budget.horizon);
    let mut points = Vec::new();

    // Generalizing agents: trained on other patterns, tested on traces.
    for pattern in [
        ArrivalPattern::paper_fixed(),
        ArrivalPattern::paper_poisson(),
        ArrivalPattern::paper_mmpp(),
    ] {
        let trained_on = pattern.name();
        let train_scenario = base_scenario(2, pattern, budget.horizon);
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
    let pattern = ArrivalPattern::paper_poisson();
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
    let (flags, budget) = ExpBudget::with_flags("--part", "").unwrap_or_else(|e| e.exit());
    let part = flags
        .value("--part", "traffic|load|all", |p: &String| {
            ["traffic", "load", "all"].contains(&p.as_str())
        })
        .unwrap_or_else(|e| e.exit())
        .unwrap_or_else(|| "traffic".into());
    if part != "load" {
        part_traffic(&budget);
    }
    if part != "traffic" {
        part_load(&budget);
    }
}

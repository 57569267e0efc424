//! Regenerates **Fig. 7**: percentage of successful flows and average
//! end-to-end delay while varying the flow deadline
//! `τ_f ∈ {20, 30, 40, 50}`; ingress {v1, v2}, Poisson arrivals.
//!
//! ```text
//! cargo run -p dosco-bench --release --bin fig7
//! ```
//!
//! The DRL agent is retrained per deadline (as in Sec. V-C: "just by
//! retraining the DRL agent for each scenario but without changing any
//! hyperparameters").

use dosco_bench::report::{print_series, SeriesPoint};
use dosco_bench::runner::{train_central_drl, train_dist_drl_cached, Algo, ExpBudget};
use dosco_bench::scenarios::base_scenario;
use dosco_traffic::ArrivalPattern;

fn main() {
    let (_, budget) = ExpBudget::with_flags("", "").unwrap_or_else(|e| e.exit());
    let mut points = Vec::new();
    for &deadline in &[20.0f64, 30.0, 40.0, 50.0] {
        let scenario = base_scenario(2, ArrivalPattern::paper_poisson(), budget.horizon)
            .with_deadline(deadline);
        let dist =
            train_dist_drl_cached(&format!("fig7-ddl{}", deadline as u64), &scenario, &budget);
        let central = train_central_drl(&scenario, &budget);
        for algo in [
            Algo::DistDrl(dist),
            Algo::CentralDrl(central),
            Algo::Gcasp,
            Algo::Sp,
        ] {
            let stats = algo.evaluate(&scenario, &budget.eval_seeds);
            eprintln!(
                "[fig7] deadline={deadline} {:<10} success {:.3} ± {:.3}  e2e {}",
                algo.name(),
                stats.mean_success,
                stats.std_success,
                stats
                    .mean_e2e_delay
                    .map_or("-".into(), |d| format!("{d:.1} ms")),
            );
            points.push(SeriesPoint {
                algo: algo.name(),
                x: format!("{}", deadline as u64),
                stats,
            });
        }
    }
    print_series(
        "Fig 7",
        "successful flows & avg end-to-end delay vs deadline",
        &points,
        true,
    );
}

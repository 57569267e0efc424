//! Quick calibration run: trains the distributed DRL at a small budget and
//! compares all four algorithms on one scenario. Not a paper figure —
//! a smoke/sizing tool for the real experiment binaries.

use dosco_bench::runner::{train_central_drl, train_dist_drl, Algo, ExpBudget};
use dosco_simnet::ScenarioConfig;
use std::time::Instant;

fn main() {
    let (flags, budget) =
        ExpBudget::with_flags("--pattern --ingress", "").unwrap_or_else(|e| e.exit());
    let scenario = ScenarioConfig::from_flags(&flags).unwrap_or_else(|e| e.exit());
    let scenario = scenario.with_horizon(budget.horizon);
    println!(
        "calibrating: pattern={} ingress={} train_steps={} seeds={} horizon={}",
        scenario.ingresses[0].pattern.name(),
        scenario.ingresses.len(),
        budget.train_steps,
        budget.train_seeds.len(),
        budget.horizon
    );

    let t0 = Instant::now();
    let dist = train_dist_drl(&scenario, &budget);
    println!(
        "distributed DRL trained in {:.1}s (best seed {} score {:.3})",
        t0.elapsed().as_secs_f64(),
        dist.metadata.seed,
        dist.metadata.score
    );
    let t1 = Instant::now();
    let central = train_central_drl(&scenario, &budget);
    println!("central DRL trained in {:.1}s", t1.elapsed().as_secs_f64());

    for algo in [
        Algo::DistDrl(dist),
        Algo::CentralDrl(central),
        Algo::Gcasp,
        Algo::Sp,
    ] {
        let t = Instant::now();
        let stats = algo.evaluate(&scenario, &budget.eval_seeds);
        println!(
            "{:<11} success {:.3} ± {:.3}   e2e {}   ({:.1}s, arrived≈{})",
            algo.name(),
            stats.mean_success,
            stats.std_success,
            stats
                .mean_e2e_delay
                .map_or("-".into(), |d| format!("{d:.1} ms")),
            t.elapsed().as_secs_f64(),
            stats.metrics[0].arrived,
        );
    }
}

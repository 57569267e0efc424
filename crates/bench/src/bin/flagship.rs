//! Flagship single-draw DRL run: trains the distributed DRL on the
//! *canonical* capacity draw (narrow distribution, `fixed_capacity_
//! training`) and reports both in-distribution performance (the regime
//! the training budget can reach) and transfer to re-drawn capacities
//! (the figure protocol). Quantifies how much of the Fig. 6 gap is
//! training budget vs. distribution width.

use dosco_bench::report::flag_value;
use dosco_bench::runner::{Algo, ExpBudget};
use dosco_bench::scenarios::{base_scenario, pattern_by_name};
use dosco_core::eval::{evaluate, EvalStats};
use dosco_core::train::train_distributed;
use dosco_nn::fork::fan_out;
use dosco_simnet::Simulation;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let budget = ExpBudget::from_env();
    let pattern = pattern_by_name(
        flag_value(&args, "--pattern")
            .as_deref()
            .unwrap_or("poisson"),
    );
    let scenario = base_scenario(2, pattern, budget.horizon);

    let mut cfg = budget.train_config();
    cfg.fixed_capacity_training = true;
    eprintln!(
        "[flagship] training on the canonical draw: {} steps x {} seeds",
        cfg.total_steps,
        cfg.seeds.len()
    );
    let t = std::time::Instant::now();
    let trained = train_distributed(&scenario, &cfg);
    eprintln!(
        "[flagship] trained in {:.0}s, best seed {} (score {:.3})",
        t.elapsed().as_secs_f64(),
        trained.policy.metadata.seed,
        trained.policy.metadata.score
    );

    // In-distribution: the canonical draw the policy was trained on,
    // traffic seeds only. This row measures the training budget, so it
    // deliberately leaves the protocol's per-seed capacity re-draw out.
    let mean_in = EvalStats::from_metrics(fan_out(&budget.eval_seeds, |&s| {
        evaluate(&trained.policy, &scenario, s)
    }))
    .mean_success;

    // Transfer: the figure protocol with re-drawn capacities.
    let transfer = Algo::DistDrl(trained.policy.clone()).evaluate(&scenario, &budget.eval_seeds);

    // GCASP on the same canonical draw, the reference for the
    // in-distribution row (so off the protocol's re-draws as well).
    let mean_gcasp = EvalStats::from_metrics(fan_out(&budget.eval_seeds, |&s| {
        let mut sim = Simulation::new(scenario.clone(), s);
        sim.run(&mut dosco_baselines::Gcasp::new()).clone()
    }))
    .mean_success;

    println!(
        "flagship (single-draw training, {} steps):",
        cfg.total_steps
    );
    println!("  DistDRL in-distribution (canonical draw):   {mean_in:.3}");
    println!(
        "  DistDRL transfer (re-drawn capacities):     {:.3} ± {:.3}",
        transfer.mean_success, transfer.std_success
    );
    println!("  GCASP on the canonical draw (reference):    {mean_gcasp:.3}");
    println!(
        "csv: flagship,DistDRL-indist,canonical,{mean_in:.4},0.0\ncsv: flagship,DistDRL-transfer,redrawn,{:.4},{:.4}",
        transfer.mean_success, transfer.std_success
    );
}

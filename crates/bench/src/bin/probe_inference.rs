//! Compares greedy vs stochastic inference for a trained policy — a
//! sizing probe for the evaluation protocol (stable-baselines' `predict`
//! samples by default; argmax can lock into forwarding loops).

use dosco_bench::report::{bad_flag, flag_value, parsed_flag};
use dosco_bench::scenarios::{base_scenario, pattern_by_name};
use dosco_core::eval::{eval_seeds, evaluate_draws};
use dosco_core::policy::CoordinationPolicy;
use dosco_core::DistributedAgents;
use dosco_simnet::Metrics;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let path = flag_value(&args, "--policy")
        .unwrap_or_else(|| bad_flag("--policy", "a policy JSON path", ""));
    let pattern = pattern_by_name(
        flag_value(&args, "--pattern")
            .as_deref()
            .unwrap_or("poisson"),
    );
    let ingress: usize = parsed_flag(&args, "--ingress", "an integer").unwrap_or(2);
    let policy = CoordinationPolicy::load(&path).expect("readable policy JSON");
    let scenario = base_scenario(ingress, pattern, 5_000.0);
    for mode in ["greedy", "stochastic"] {
        let stats = evaluate_draws(&scenario, &eval_seeds(5), |s, seed| {
            let nodes = s.topology.num_nodes();
            Box::new(match mode {
                "greedy" => DistributedAgents::deploy(&policy, nodes),
                _ => DistributedAgents::deploy_stochastic(&policy, nodes, seed),
            })
        });
        // An episode in which no flow terminated has no ratio: it is
        // shown as `None` and left out of the mean.
        let ratios: Vec<_> = stats
            .metrics
            .iter()
            .map(Metrics::success_ratio_opt)
            .collect();
        let mean = stats.mean_success;
        println!("{mode:<11} mean success {mean:.3}  ({ratios:.2?})");
    }
}

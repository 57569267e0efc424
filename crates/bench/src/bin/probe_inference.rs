//! Compares greedy vs stochastic inference for a trained policy — a
//! sizing probe for the evaluation protocol (stable-baselines' `predict`
//! samples by default; argmax can lock into forwarding loops).

use dosco_core::eval::{eval_seeds, evaluate_draws};
use dosco_core::policy::CoordinationPolicy;
use dosco_core::DistributedAgents;
use dosco_obs::env::Flags;
use dosco_simnet::{Metrics, ScenarioConfig};

fn main() {
    let flags = Flags::parse(std::env::args().skip(1), "--policy --pattern --ingress", "")
        .unwrap_or_else(|e| e.exit());
    let path: String = flags
        .required("--policy", "a policy JSON path", |_| true)
        .unwrap_or_else(|e| e.exit());
    let scenario = ScenarioConfig::from_flags(&flags).unwrap_or_else(|e| e.exit());
    let scenario = scenario.with_horizon(5_000.0);
    let policy = CoordinationPolicy::load(&path).unwrap_or_else(|e| {
        eprintln!("cannot load {path}: {e}");
        std::process::exit(1)
    });
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

//! `dosco` — command-line interface for training, evaluating, and
//! inspecting distributed service-coordination policies.
//!
//! ```text
//! dosco train --ingress 2 --pattern poisson --steps 40000 --out policy.json
//! dosco eval  --policy policy.json --ingress 3 --pattern mmpp --seeds 5
//! dosco run   --algo gcasp --ingress 4 --pattern trace --seeds 5
//! dosco topo  --list
//! ```

use dosco::baselines::{Gcasp, ShortestPath};
use dosco::core::eval::{eval_seeds, evaluate_draws};
use dosco::core::policy::CoordinationPolicy;
use dosco::core::train::{train_distributed, Algorithm, TrainConfig};
use dosco::core::DistributedAgents;
use dosco::simnet::{Coordinator, ScenarioConfig};
use dosco::topology::{stats::TopologyRow, zoo};
use dosco::traffic::ArrivalPattern;
use std::process::ExitCode;

fn flag(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1).cloned())
}

/// The value of `--name` parsed as `T` and checked by `valid`, or `None`
/// when the flag is absent. A value that fails either prints
/// `--name must be <what>` and exits with code 2, like an unknown
/// `--pattern`.
fn parsed<T: std::str::FromStr>(
    args: &[String],
    name: &str,
    what: &str,
    valid: impl Fn(&T) -> bool,
) -> Option<T> {
    let raw = flag(args, name)?;
    match raw.parse() {
        Ok(v) if valid(&v) => Some(v),
        _ => {
            eprintln!("{name} must be {what}, got {raw:?}");
            std::process::exit(2);
        }
    }
}

/// `--seeds K`: how many seeds to train or evaluate, at least one.
/// `eval` and `run` score seeds `eval_seeds(K)`, each on its own
/// capacity draw, so their numbers compare.
fn seed_count(args: &[String], default: u64) -> u64 {
    parsed(args, "--seeds", "a positive integer", |&k| k > 0).unwrap_or(default)
}

fn pattern(args: &[String]) -> ArrivalPattern {
    let name = flag(args, "--pattern").unwrap_or_else(|| "poisson".into());
    ArrivalPattern::paper_by_name(&name).unwrap_or_else(|| {
        eprintln!("unknown pattern {name:?}; use fixed|poisson|mmpp|trace");
        std::process::exit(2);
    })
}

fn scenario(args: &[String]) -> ScenarioConfig {
    let positive = |v: &f64| v.is_finite() && *v > 0.0;
    let in_base_scenario = |k: &usize| (1..=5).contains(k);
    let ingress = parsed(args, "--ingress", "an integer in 1..=5", in_base_scenario).unwrap_or(2);
    let horizon = parsed(args, "--horizon", "a positive number", positive).unwrap_or(5_000.0);
    let deadline = parsed(args, "--deadline", "a positive number", positive);
    let mut cfg = ScenarioConfig::paper_base(ingress)
        .with_pattern(pattern(args))
        .with_horizon(horizon);
    if let Some(d) = deadline {
        cfg = cfg.with_deadline(d);
    }
    cfg
}

fn cmd_train(args: &[String]) -> ExitCode {
    let out = flag(args, "--out").unwrap_or_else(|| "policy.json".into());
    let steps: usize =
        parsed(args, "--steps", "a non-negative integer", |_| true).unwrap_or(40_000);
    let seeds = seed_count(args, 3);
    let algorithm = match flag(args, "--algo").as_deref().unwrap_or("acktr") {
        "acktr" => Algorithm::Acktr,
        "a2c" => Algorithm::A2c,
        "ppo" => Algorithm::Ppo,
        other => {
            eprintln!("unknown algorithm {other:?}; use acktr|a2c|ppo");
            return ExitCode::from(2);
        }
    };
    let scenario = scenario(args);
    eprintln!(
        "training {} on {} ({} ingress, {} pattern, {steps} steps x {seeds} seeds)…",
        algorithm.name(),
        scenario.topology.name(),
        scenario.ingresses.len(),
        scenario.ingresses[0].pattern.name(),
    );
    let config = TrainConfig {
        algorithm,
        total_steps: steps,
        seeds: (0..seeds).collect(),
        ..TrainConfig::default()
    };
    let trained = train_distributed(&scenario, &config);
    println!("seed scores (best first): {:?}", trained.seed_scores);
    if let Err(e) = trained.policy.save(&out) {
        eprintln!("cannot write {out}: {e}");
        return ExitCode::FAILURE;
    }
    println!("policy written to {out}");
    ExitCode::SUCCESS
}

/// Scores what `deploy` builds over `seeds` by the evaluation protocol and
/// prints one line per seed, then the mean over the seeds in which a flow
/// terminated (the others have no success ratio and are skipped rather
/// than averaged in as 1.0).
fn score_draws(
    scenario: &ScenarioConfig,
    seeds: &[u64],
    deploy: impl Fn(&ScenarioConfig, u64) -> Box<dyn Coordinator> + Sync,
) {
    let stats = evaluate_draws(scenario, seeds, deploy);
    for (seed, m) in seeds.iter().zip(&stats.metrics) {
        let e2e = m
            .avg_e2e_delay()
            .map_or("-".into(), |d| format!("{d:.1} ms"));
        println!(
            "seed {seed}: success {:.3} ({} completed / {} dropped / {} in flight), avg e2e {e2e}",
            m.success_ratio(),
            m.completed,
            m.dropped_total(),
            m.in_flight(),
        );
    }
    let (k, mean) = (seeds.len(), stats.mean_success);
    match (stats.scored, k - stats.scored) {
        (0, _) => println!("mean success over {k} seeds: n/a (no flow terminated)"),
        (_, 0) => println!("mean success over {k} seeds: {mean:.3}"),
        (_, n) => {
            println!("mean success over {k} seeds: {mean:.3} ({n} with no terminated flow skipped)")
        }
    }
}

fn cmd_eval(args: &[String]) -> ExitCode {
    let seeds = eval_seeds(seed_count(args, 5));
    let Some(path) = flag(args, "--policy") else {
        eprintln!("--policy <file> required");
        return ExitCode::from(2);
    };
    let policy = match CoordinationPolicy::load(&path) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("cannot load {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    score_draws(&scenario(args), &seeds, |s, _| {
        Box::new(DistributedAgents::deploy(&policy, s.topology.num_nodes()))
    });
    ExitCode::SUCCESS
}

fn cmd_run(args: &[String]) -> ExitCode {
    let seeds = eval_seeds(seed_count(args, 5));
    let algo = flag(args, "--algo").unwrap_or_else(|| "gcasp".into());
    let scenario = scenario(args);
    let heuristic: fn() -> Box<dyn Coordinator> = match algo.as_str() {
        "gcasp" => || Box::new(Gcasp::new()),
        "sp" => || Box::new(ShortestPath::new()),
        other => {
            eprintln!("unknown algorithm {other:?}; use gcasp|sp (DRL: `dosco eval`)");
            return ExitCode::from(2);
        }
    };
    score_draws(&scenario, &seeds, |_, _| heuristic());
    ExitCode::SUCCESS
}

fn cmd_topo(_args: &[String]) -> ExitCode {
    println!(
        "{:<14} {:>5} {:>5}   Degree (Min./Max./Avg.)",
        "Network", "Nodes", "Edges"
    );
    for row in zoo::all().iter().map(TopologyRow::of) {
        println!("{row}");
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("train") => cmd_train(&args[1..]),
        Some("eval") => cmd_eval(&args[1..]),
        Some("run") => cmd_run(&args[1..]),
        Some("topo") => cmd_topo(&args[1..]),
        _ => {
            eprintln!(
                "usage: dosco <train|eval|run|topo> [options]\n\
                 \n\
                 train --ingress N --pattern P --steps S --seeds K --algo acktr|a2c|ppo --out FILE\n\
                 eval  --policy FILE --ingress N --pattern P --seeds K [--deadline D]\n\
                 run   --algo gcasp|sp --ingress N --pattern P --seeds K [--deadline D]\n\
                 topo  (list bundled topologies)\n\
                 \n\
                 common: --pattern fixed|poisson|mmpp|trace  --horizon T  --deadline D"
            );
            ExitCode::from(2)
        }
    }
}

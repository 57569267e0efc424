//! `dosco` — command-line interface for training, evaluating, and
//! inspecting distributed service-coordination policies.
//!
//! ```text
//! dosco train --ingress 2 --pattern poisson --steps 40000 --out policy.json
//! dosco eval  --policy policy.json --ingress 3 --pattern mmpp --seeds 5
//! dosco run   --algo gcasp --ingress 4 --pattern trace --seeds 5
//! dosco topo
//! ```

use dosco::baselines::{Gcasp, ShortestPath};
use dosco::core::eval::{eval_seeds, evaluate_draws};
use dosco::core::policy::CoordinationPolicy;
use dosco::core::train::{train_distributed, Algorithm, TrainConfig};
use dosco::core::DistributedAgents;
use dosco::obs::env::{Flags, SettingError};
use dosco::simnet::{Coordinator, ScenarioConfig};
use dosco::topology::{stats::TopologyRow, zoo};
use dosco::traffic::ArrivalPattern;
use std::process::ExitCode;

/// `--seeds K`: how many seeds to train or evaluate, at least one.
/// `eval` and `run` score seeds `eval_seeds(K)`, each on its own
/// capacity draw, so their numbers compare.
fn seed_count(flags: &Flags, default: u64) -> Result<u64, SettingError> {
    let seeds = flags.value("--seeds", "a positive integer", |&k| k > 0)?;
    Ok(seeds.unwrap_or(default))
}

fn scenario(flags: &Flags) -> Result<ScenarioConfig, SettingError> {
    let positive = |v: &f64| v.is_finite() && *v > 0.0;
    let horizon = flags.value("--horizon", "a positive number", positive)?;
    let deadline = flags.value("--deadline", "a positive number", positive)?;
    let mut cfg = ScenarioConfig::from_flags(flags)?.with_horizon(horizon.unwrap_or(5_000.0));
    if let Some(d) = deadline {
        cfg = cfg.with_deadline(d);
    }
    Ok(cfg)
}

fn cmd_train(flags: &Flags) -> Result<ExitCode, SettingError> {
    let out: String = flags
        .value("--out", "a file path", |_| true)?
        .unwrap_or_else(|| "policy.json".into());
    let steps = flags
        .value("--steps", "a non-negative integer", |_| true)?
        .unwrap_or(40_000);
    let seeds = seed_count(flags, 3)?;
    let algorithm = flags
        .value_by("--algo", Algorithm::NAMES, Algorithm::from_name)?
        .unwrap_or(Algorithm::Acktr);
    let scenario = scenario(flags)?;
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
        return Ok(ExitCode::FAILURE);
    }
    println!("policy written to {out}");
    Ok(ExitCode::SUCCESS)
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

fn cmd_eval(flags: &Flags) -> Result<ExitCode, SettingError> {
    let seeds = eval_seeds(seed_count(flags, 5)?);
    let path: String = flags.required("--policy", "a policy file", |_| true)?;
    let scenario = scenario(flags)?;
    let policy = match CoordinationPolicy::load(&path) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("cannot load {path}: {e}");
            return Ok(ExitCode::FAILURE);
        }
    };
    score_draws(&scenario, &seeds, |s, _| {
        Box::new(DistributedAgents::deploy(&policy, s.topology.num_nodes()))
    });
    Ok(ExitCode::SUCCESS)
}

fn cmd_run(flags: &Flags) -> Result<ExitCode, SettingError> {
    let seeds = eval_seeds(seed_count(flags, 5)?);
    let heuristic = flags
        .value_by("--algo", "gcasp|sp (DRL: `dosco eval`)", |name| {
            let build: fn() -> Box<dyn Coordinator> = match name {
                "gcasp" => || Box::new(Gcasp::new()),
                "sp" => || Box::new(ShortestPath::new()),
                _ => return None,
            };
            Some(build)
        })?
        .unwrap_or(|| Box::new(Gcasp::new()));
    score_draws(&scenario(flags)?, &seeds, |_, _| heuristic());
    Ok(ExitCode::SUCCESS)
}

fn cmd_topo() -> ExitCode {
    println!(
        "{:<14} {:>5} {:>5}   Degree (Min./Max./Avg.)",
        "Network", "Nodes", "Edges"
    );
    for row in zoo::all().iter().map(TopologyRow::of) {
        println!("{row}");
    }
    ExitCode::SUCCESS
}

/// The flags [`scenario`] reads: every command but `topo` takes them
/// besides its own.
const SCENARIO_FLAGS: &str = "--ingress --pattern --horizon --deadline";

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let (command, own): (fn(&Flags) -> _, _) = match args.next().as_deref() {
        Some("train") => (cmd_train, "--out --steps --seeds --algo"),
        Some("eval") => (cmd_eval, "--policy --seeds"),
        Some("run") => (cmd_run, "--algo --seeds"),
        Some("topo") => {
            return Flags::parse(args, "", "").map_or_else(|e| e.exit(), |_| cmd_topo())
        }
        _ => {
            eprintln!(
                "usage: dosco <train|eval|run|topo> [options]\n\
                 \n\
                 train --ingress N --pattern P --steps S --seeds K --algo {} --out FILE\n\
                 eval  --policy FILE --ingress N --pattern P --seeds K [--deadline D]\n\
                 run   --algo gcasp|sp --ingress N --pattern P --seeds K [--deadline D]\n\
                 topo  (list bundled topologies)\n\
                 \n\
                 common: --pattern {}  --horizon T  --deadline D",
                Algorithm::NAMES,
                ArrivalPattern::PAPER_NAMES,
            );
            return ExitCode::from(2);
        }
    };
    Flags::parse(args, &format!("{own} {SCENARIO_FLAGS}"), "")
        .and_then(|flags| command(&flags))
        .unwrap_or_else(|e| e.exit())
}

//! Bad or unknown flags are a usage error — exit code 2 and one line on
//! stderr — never a panic with a backtrace, and never a NaN report. And
//! `dosco run` scores a heuristic by the same protocol as `dosco eval`.

use dosco::baselines::ShortestPath;
use dosco::core::eval::{eval_seeds, evaluate_draws};
use dosco::simnet::ScenarioConfig;
use dosco::traffic::ArrivalPattern;
use std::process::Command;

/// Runs `dosco <args>` and returns `(exit code, stderr)`.
fn dosco(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_dosco"))
        .args(args)
        .output()
        .expect("the dosco binary runs");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn bad_flag_values_exit_2_with_one_line_and_no_panic() {
    for (args, message) in [
        (
            &["train", "--seeds", "0"][..],
            "--seeds must be a positive integer",
        ),
        // No such policy file: the seed count is rejected before it is read.
        (
            &["eval", "--policy", "none.json", "--seeds", "0"][..],
            "--seeds must be",
        ),
        (&["train", "--steps", "x"][..], "--steps must be"),
        (
            &["run", "--ingress", "9"][..],
            "--ingress must be an integer in 1..=5",
        ),
        (
            &["run", "--horizon", "-1"][..],
            "--horizon must be a positive number",
        ),
        (&["run", "--deadline", "soon"][..], "--deadline must be"),
        (&["run", "--seeds", "1.5"][..], "--seeds must be"),
        // A value flag given no value is an error, not its default.
        (
            &["train", "--steps"][..],
            "--steps must be a non-negative integer, got \"\"",
        ),
        (
            &["train", "--algo", "dqn"][..],
            "--algo must be acktr|a2c|ppo, got \"dqn\"",
        ),
        (
            &["run", "--pattern", "bursty"][..],
            "--pattern must be fixed|poisson|mmpp|trace, got \"bursty\"",
        ),
        (&["topo", "--list"][..], "flag must be absent"),
    ] {
        let (code, stderr) = dosco(args);
        assert_eq!(code, Some(2), "{args:?}: {stderr}");
        assert!(stderr.starts_with(message), "{args:?}: {stderr}");
        assert_eq!(stderr.lines().count(), 1, "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked at"), "{args:?}: {stderr}");
    }
}

/// `run --seeds K` prints one line per seed of `eval_seeds(K)` and the
/// mean of `evaluate_draws` over them: the protocol `eval` scores a policy
/// by, so the two commands' numbers compare.
#[test]
fn run_and_eval_score_the_same_draws() {
    let out = Command::new(env!("CARGO_BIN_EXE_dosco"))
        .args(["run", "--algo", "sp", "--ingress", "2", "--horizon", "500"])
        .args(["--seeds", "2"])
        .output()
        .expect("the dosco binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}");
    let scenario = ScenarioConfig::paper_base(2)
        .with_pattern(ArrivalPattern::paper_poisson())
        .with_horizon(500.0);
    let seeds = eval_seeds(2);
    let stats = evaluate_draws(&scenario, &seeds, |_, _| Box::new(ShortestPath::new()));
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 3, "{stdout}");
    for ((line, seed), m) in lines.iter().zip(&seeds).zip(&stats.metrics) {
        let expect = format!("seed {seed}: success {:.3} (", m.success_ratio());
        assert!(line.starts_with(&expect), "{line:?} is not {expect:?}…");
    }
    let mean = format!("mean success over 2 seeds: {:.3}", stats.mean_success);
    assert_eq!(lines[2], mean);
}

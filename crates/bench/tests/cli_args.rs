//! The experiment binaries treat a bad setting like `dosco` does (root
//! `tests/cli_args.rs`): a bad or unknown flag, or a bad `DOSCO_*`
//! override, exits with code 2 and an unreadable file with code 1, each
//! with one line on stderr and never a panic with a backtrace.

use std::process::Command;

/// Runs `bin` with `args` and the `env` overrides; returns `(exit code,
/// stderr)`.
fn run(bin: &str, args: &[&str], env: &[(&str, &str)]) -> (Option<i32>, String) {
    let out = Command::new(bin)
        .args(args)
        .envs(env.iter().copied())
        .output()
        .expect("the binary runs");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

/// Asserts the exit code and that stderr is one line starting with
/// `message`, with no panic.
fn assert_one_line(case: &str, (code, stderr): (Option<i32>, String), want: i32, message: &str) {
    assert_eq!(code, Some(want), "{case}: {stderr}");
    assert!(stderr.starts_with(message), "{case}: {stderr}");
    assert_eq!(stderr.lines().count(), 1, "{case}: {stderr}");
    assert!(!stderr.contains("panicked at"), "{case}: {stderr}");
}

#[test]
fn traincurve_rejects_bad_settings_with_one_line_and_exit_2() {
    for (args, message) in [
        (
            &["--steps", "x"][..],
            "--steps must be an integer, got \"x\"",
        ),
        (&["--algo", "dqn"][..], "--algo must be acktr|a2c|ppo"),
        (
            &["--pattern", "bursty"][..],
            "--pattern must be fixed|poisson|mmpp|trace",
        ),
        // Out of the range `paper_base` assumes, a rollout of no steps, a
        // NaN learning rate, and a mistyped flag.
        (
            &["--ingress", "9"][..],
            "--ingress must be an integer in 1..=5, got \"9\"",
        ),
        (
            &["--algo", "a2c", "--nsteps", "0"][..],
            "--nsteps must be a positive integer, got \"0\"",
        ),
        (
            &["--lr", "nan"][..],
            "--lr must be a finite positive number, got \"nan\"",
        ),
        (&["--step", "8000"][..], "flag must be one of --"),
    ] {
        let case = format!("traincurve {args:?}");
        let result = run(env!("CARGO_BIN_EXE_traincurve"), args, &[]);
        assert_one_line(&case, result, 2, message);
    }
}

#[test]
fn calibrate_checks_its_flags_and_budget_before_training() {
    let calibrate = env!("CARGO_BIN_EXE_calibrate");
    assert_one_line(
        "calibrate --ingress 6",
        run(calibrate, &["--ingress", "6"], &[]),
        2,
        "--ingress must be an integer in 1..=5, got \"6\"",
    );
    assert_one_line(
        "DOSCO_SEEDS=0 calibrate",
        run(calibrate, &[], &[("DOSCO_SEEDS", "0")]),
        2,
        "DOSCO_SEEDS must be a positive integer, got \"0\"",
    );
}

#[test]
fn unreadable_files_exit_1_with_one_line_and_no_panic() {
    assert_one_line(
        "probe_inference --policy missing.json",
        run(
            env!("CARGO_BIN_EXE_probe_inference"),
            &["--policy", "missing.json"],
            &[],
        ),
        1,
        "cannot load missing.json: ",
    );
    assert_one_line(
        "summarize /nonexistent",
        run(env!("CARGO_BIN_EXE_summarize"), &["/nonexistent"], &[]),
        1,
        "cannot read /nonexistent: ",
    );
}

//! The experiment binaries treat a bad flag value like `dosco` does
//! (root `tests/cli_args.rs`): exit code 2 and one line on stderr, never
//! a panic with a backtrace.

use std::process::Command;

#[test]
fn bad_flag_values_exit_2_with_one_line_and_no_panic() {
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
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_traincurve"))
            .args(args)
            .output()
            .expect("the traincurve binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.starts_with(message), "{args:?}: {stderr}");
        assert_eq!(stderr.lines().count(), 1, "{args:?}: {stderr}");
    }
}

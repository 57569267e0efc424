//! Bad flag values are a usage error — exit code 2 and one line on
//! stderr — never a panic with a backtrace, and never a NaN report.

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
        (&["run", "--seed", "1.5"][..], "--seed must be"),
    ] {
        let (code, stderr) = dosco(args);
        assert_eq!(code, Some(2), "{args:?}: {stderr}");
        assert!(stderr.starts_with(message), "{args:?}: {stderr}");
        assert_eq!(stderr.lines().count(), 1, "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked at"), "{args:?}: {stderr}");
    }
}

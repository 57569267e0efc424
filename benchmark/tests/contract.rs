//! The benchmark's contract with `BENCHMARK.json` and its driver: the file
//! and the tables in `spec.rs` name the same things, and every workload's
//! result line parses and carries every name it should.

use dosco_benchmark::spec::{END_TO_END, PER_LAYER, WORKLOADS};
use serde::Value;
use std::path::Path;
use std::process::Command;

fn object(v: &Value) -> &[(String, Value)] {
    v.as_object()
        .unwrap_or_else(|| panic!("expected an object, got {v:?}"))
}

fn field<'a>(v: &'a Value, key: &str) -> &'a Value {
    &object(v)
        .iter()
        .find(|(k, _)| k == key)
        .unwrap_or_else(|| panic!("missing key {key:?} in {v:?}"))
        .1
}

fn keys(v: &Value) -> Vec<&str> {
    object(v).iter().map(|(k, _)| k.as_str()).collect()
}

fn array(v: &Value) -> &[Value] {
    match v {
        Value::Array(a) => a,
        other => panic!("expected an array, got {other:?}"),
    }
}

fn string(v: &Value) -> &str {
    match v {
        Value::Str(s) => s,
        other => panic!("expected a string, got {other:?}"),
    }
}

fn number(v: &Value) -> f64 {
    match v {
        Value::Float(f) => *f,
        Value::UInt(u) => *u as f64,
        Value::Int(i) => *i as f64,
        other => panic!("expected a number, got {other:?}"),
    }
}

fn benchmark_json() -> Value {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    assert!(text.len() <= 64 * 1024, "BENCHMARK.json exceeds 64 KiB");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

#[test]
fn benchmark_json_names_what_spec_rs_names() {
    let spec = benchmark_json();
    assert_eq!(
        keys(&spec),
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    let paths: Vec<&str> = array(field(&spec, "paths")).iter().map(string).collect();
    assert_eq!(paths, ["benchmark"]);
    let seconds = number(field(&spec, "run_seconds"));
    assert!((1.0..=60.0).contains(&seconds) && seconds.fract() == 0.0);

    let workloads: Vec<(&str, &str)> = array(field(&spec, "workloads"))
        .iter()
        .map(|w| {
            assert_eq!(keys(w), ["name", "why"]);
            (string(field(w, "name")), string(field(w, "why")))
        })
        .collect();
    assert_eq!(workloads, WORKLOADS);

    let end_to_end: Vec<(&str, &str, &str, f64)> = array(field(&spec, "end_to_end"))
        .iter()
        .map(|m| {
            assert_eq!(keys(m), ["name", "unit", "better", "bound"]);
            (
                string(field(m, "name")),
                string(field(m, "unit")),
                string(field(m, "better")),
                number(field(m, "bound")),
            )
        })
        .collect();
    let expected: Vec<_> = END_TO_END
        .iter()
        .map(|m| (m.0, m.1, m.2.as_str(), m.3))
        .collect();
    assert_eq!(end_to_end, expected);
    assert!(end_to_end
        .iter()
        .any(|m| (m.0, m.1, m.2) == ("setup_s", "s", "lower")));

    let per_layer: Vec<(&str, &str, &str)> = array(field(&spec, "per_layer"))
        .iter()
        .map(|m| {
            assert_eq!(keys(m), ["name", "unit", "better"]);
            (
                string(field(m, "name")),
                string(field(m, "unit")),
                string(field(m, "better")),
            )
        })
        .collect();
    let expected: Vec<_> = PER_LAYER.iter().map(|m| (m.0, m.1, m.2.as_str())).collect();
    assert_eq!(per_layer, expected);
}

/// Runs one workload for half a second and returns its parsed result line.
fn smoke(workload: &str, trace: &str) -> Value {
    let out_dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("smoke-out");
    let output = Command::new(env!("CARGO_BIN_EXE_dosco-benchmark"))
        .args([
            "--workload",
            workload,
            "--seed",
            "2",
            "--seconds",
            "0.5",
            "--trace",
            trace,
        ])
        .arg("--out")
        .arg(&out_dir)
        .output()
        .expect("run the benchmark binary");
    let stdout = String::from_utf8(output.stdout).expect("utf-8 output");
    assert!(
        output.status.success(),
        "{workload} --trace {trace} exited with {}:\n{stdout}",
        output.status
    );
    let last = stdout.lines().last().expect("a result line");
    serde_json::from_str(last).unwrap_or_else(|e| panic!("{workload}: {e} in {last}"))
}

fn check_result(workload: &str, result: &Value, expected: &[(&str, &str)]) {
    assert_eq!(keys(result), ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(field(result, "correct"), &Value::Bool(true), "{workload}");
    assert!(number(field(result, "attempted")) >= 1.0, "{workload}");
    assert_eq!(number(field(result, "failed")), 0.0, "{workload}");
    let metrics = field(result, "metrics");
    let names: Vec<&str> = expected.iter().map(|m| m.0).collect();
    assert_eq!(keys(metrics), names, "{workload}");
    for &(name, unit) in expected {
        let m = field(metrics, name);
        assert_eq!(keys(m), ["value", "unit"], "{workload} {name}");
        assert_eq!(string(field(m, "unit")), unit, "{workload} {name}");
        assert!(number(field(m, "value")).is_finite(), "{workload} {name}");
    }
}

#[test]
fn every_workload_reports_every_end_to_end_metric() {
    let expected: Vec<(&str, &str)> = END_TO_END.iter().map(|m| (m.0, m.1)).collect();
    for (workload, _) in WORKLOADS {
        let result = smoke(workload, "0");
        check_result(workload, &result, &expected);
        for &(name, _) in &expected {
            let value = number(field(field(field(&result, "metrics"), name), "value"));
            assert!(value > 0.0, "{workload}: {name} is {value}");
        }
    }
}

#[test]
fn every_workload_reports_every_per_layer_metric_and_a_trace() {
    let expected: Vec<(&str, &str)> = PER_LAYER.iter().map(|m| (m.0, m.1)).collect();
    for (workload, _) in WORKLOADS {
        let result = smoke(workload, "1");
        check_result(workload, &result, &expected);
        let trace = Path::new(env!("CARGO_TARGET_TMPDIR"))
            .join("smoke-out")
            .join(format!("trace-{workload}.json"));
        let text = std::fs::read_to_string(&trace).expect("trace file written");
        let parsed: Value = serde_json::from_str(&text).expect("trace file parses");
        assert!(
            !array(field(&parsed, "spans")).is_empty(),
            "{workload}: no spans"
        );
    }
}

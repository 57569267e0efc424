//! The training-job product end to end over real HTTP: `POST /jobs/train`
//! starts a job, `GET /jobs` reports it `done` with its step count, and
//! `GET /metrics` carries its episodes' folds (drop counters and the last
//! success ratio), written as each simulation is dropped.
//!
//! The metrics registry is process-global, so this is the only test in
//! its binary.

use dosco_ctl::{CtlConfig, CtlServer, CtlState};
use dosco_obs::ObsReport;
use serde::Value;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How long the job may take before the test gives up on it.
const DEADLINE: Duration = Duration::from_secs(120);

/// One request with an optional JSON body; returns the status code and
/// the response body.
fn http(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect to ctl server");
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nHost: localhost\r\nContent-Length: {}\r\n\
         Connection: close\r\n\r\n{body}",
        body.len()
    )
    .expect("write request");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    let status = response
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .expect("numeric status");
    let body = response
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (status, body)
}

fn drops(report: &ObsReport) -> u64 {
    report
        .counters
        .iter()
        .filter(|c| c.name.starts_with("drop_"))
        .map(|c| c.value)
        .sum()
}

fn metrics(addr: SocketAddr) -> ObsReport {
    let (code, body) = http(addr, "GET", "/metrics", "");
    assert_eq!(code, 200, "{body}");
    serde_json::from_str(&body).expect("/metrics parses")
}

#[test]
fn a_train_job_runs_to_done_and_folds_its_episodes_into_metrics() {
    let server = CtlServer::start(&CtlConfig::default(), Arc::new(CtlState::new())).unwrap();
    let addr = server.addr();
    let before = metrics(addr);

    // Ten updates of 4 envs x 16 steps; a fresh policy on the paper's
    // base scenario drops flows within a 200-unit episode.
    let spec = r#"{"total_steps": 640, "seed": 3, "horizon": 200.0}"#;
    let (code, body) = http(addr, "POST", "/jobs/train", spec);
    assert_eq!(code, 200, "{body}");
    assert!(body.contains(r#""kind":"train""#), "{body}");

    let start = Instant::now();
    let job = loop {
        let (code, body) = http(addr, "GET", "/jobs", "");
        assert_eq!(code, 200, "{body}");
        let listed: Value = serde_json::from_str(&body).expect("/jobs parses");
        let jobs = listed.get("jobs").and_then(Value::as_array);
        let [job] = jobs.expect("a job list") else {
            panic!("one job expected: {body}");
        };
        if job.get("state").and_then(Value::as_str) == Some("done") {
            break job.clone();
        }
        assert!(start.elapsed() < DEADLINE, "job still running: {body}");
        std::thread::sleep(Duration::from_millis(20));
    };
    assert_eq!(
        job.get("stop_requested").and_then(Value::as_bool),
        Some(false)
    );
    let summary = job.get("summary").and_then(Value::as_str);
    let summary = summary.expect("a done job has a summary");
    assert!(
        summary.starts_with("trained 640 steps over 10 updates"),
        "{summary}"
    );

    let after = metrics(addr);
    assert!(
        drops(&after) > drops(&before),
        "the job's episodes drop flows and fold the drops: {} -> {}",
        drops(&before),
        drops(&after)
    );
    let ratio = after
        .gauges
        .iter()
        .find(|g| g.name == "last_success_ratio")
        .expect("last_success_ratio gauge")
        .value;
    assert!(ratio > 0.0 && ratio <= 1.0, "last_success_ratio {ratio}");
    server.shutdown();
}

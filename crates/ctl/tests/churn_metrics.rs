//! `/metrics` under substrate churn: the drop-cause series and the
//! time-windowed success ratio must appear in the ops surface, and the
//! export must stay byte-deterministic.
//!
//! Runs in its own test binary so the global metrics registry is not
//! shared with other ops-surface tests.

use dosco_chaos::{ChurnAction, ChurnSchedule};
use dosco_core::policy::PolicyMetadata;
use dosco_core::CoordinationPolicy;
use dosco_ctl::{CtlConfig, CtlServer, CtlState};
use dosco_nn::mlp::{Activation, Mlp};
use dosco_obs::ObsReport;
use dosco_serve::{serve, ServeConfig};
use dosco_simnet::ScenarioConfig;
use dosco_topology::NodeId;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;

fn http_get(addr: SocketAddr, path: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect to ctl server");
    write!(
        stream,
        "GET {path} HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n\r\n"
    )
    .expect("write request");
    stream.flush().expect("flush request");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    let status: u16 = response
        .split_whitespace()
        .nth(1)
        .expect("status line")
        .parse()
        .expect("numeric status");
    let body = response
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (status, body)
}

#[test]
fn metrics_expose_drop_causes_and_windowed_success_ratio_under_churn() {
    let scenario = ScenarioConfig::paper_base(2).with_horizon(400.0);
    let degree = scenario.topology.network_degree();
    let mut rng = StdRng::seed_from_u64(11);
    let actor = Mlp::new(
        &[4 * degree + 4, 24, degree + 1],
        Activation::Tanh,
        &mut rng,
    );
    let policy = CoordinationPolicy::new(actor, degree, PolicyMetadata::default());

    // Kill ingress v0 at t=120 with no repair: every later arrival there
    // is a guaranteed node-failure drop.
    let timeline = ChurnSchedule::none()
        .at(120.0, ChurnAction::NodeDown(NodeId(0)))
        .compile(&scenario.topology, scenario.horizon, 0)
        .expect("valid schedule");
    let cfg = ServeConfig::new(2).with_churn(timeline);
    let outcome = serve(&policy, None, &scenario, &[3, 7], &cfg);
    assert!(
        outcome.metrics.iter().any(|m| m.dropped_total() > 0),
        "dead ingress must drop flows"
    );

    let server = CtlServer::start(&CtlConfig::default(), Arc::new(CtlState::new())).unwrap();
    let addr = server.addr();
    let (code, first) = http_get(addr, "/metrics");
    assert_eq!(code, 200);
    let (_, second) = http_get(addr, "/metrics");
    assert_eq!(first, second, "metrics export must be byte-deterministic");

    let report: ObsReport = serde_json::from_str(&first).unwrap();
    let counter = |name: &str| -> u64 {
        report
            .counters
            .iter()
            .find(|c| c.name == name)
            .unwrap_or_else(|| panic!("counter {name} missing from /metrics"))
            .value
    };
    let gauge = |name: &str| -> f64 {
        report
            .gauges
            .iter()
            .find(|g| g.name == name)
            .unwrap_or_else(|| panic!("gauge {name} missing from /metrics"))
            .value
    };

    // The full drop-cause series is enumerated even when zero.
    for name in [
        "drop_node_capacity",
        "drop_link_capacity",
        "drop_deadline_expired",
        "drop_invalid_action",
        "drop_link_failure",
        "drop_node_failure",
    ] {
        let _ = counter(name);
    }
    assert!(counter("drop_node_failure") > 0, "dead-ingress arrivals");
    assert!(counter("churn_events_applied") >= 2, "one per episode");
    assert!(counter("churn_flows_killed") > 0);
    let _ = counter("churn_instances_lost"); // whether v0 hosts instances is policy-dependent
    assert!(counter("churn_sp_recomputes") >= 2);

    assert!(gauge("topo_version") >= 1.0);
    let ratio = gauge("windowed_success_ratio");
    assert!(
        (0.0..=1.0).contains(&ratio),
        "windowed success ratio {ratio} out of range"
    );

    server.shutdown();
}

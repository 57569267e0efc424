//! End-to-end exercises of the ops HTTP surface over real TCP: route
//! coverage, live queries while a serving fabric runs, and the
//! deterministic-JSON contract of `GET /metrics`.

use dosco_core::policy::PolicyMetadata;
use dosco_core::CoordinationPolicy;
use dosco_ctl::{
    CtlConfig, CtlServer, CtlState, HealthResponse, PolicyRegistry, ShardsResponse,
    SnapshotResponse,
};
use dosco_nn::mlp::{Activation, Mlp};
use dosco_obs::ObsReport;
use dosco_serve::{serve, PolicySlot, PolicySnapshot, ServeConfig, StatusBoard};
use dosco_simnet::ScenarioConfig;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Mutex};

/// A minimal HTTP/1.1 GET (or arbitrary-method) round trip: returns the
/// status code and the body.
fn http_request(addr: SocketAddr, method: &str, path: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect to ctl server");
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n\r\n"
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
    // Sanity on framing: Content-Length matches the delivered body.
    let content_length: usize = response
        .lines()
        .find_map(|l| l.strip_prefix("Content-Length: "))
        .expect("Content-Length header")
        .trim()
        .parse()
        .expect("numeric Content-Length");
    assert_eq!(content_length, body.len(), "framing mismatch: {response}");
    (status, body)
}

fn http_get(addr: SocketAddr, path: &str) -> (u16, String) {
    http_request(addr, "GET", path)
}

fn actor(degree: usize, seed: u64) -> Mlp {
    let mut rng = StdRng::seed_from_u64(seed);
    Mlp::new(
        &[4 * degree + 4, 24, degree + 1],
        Activation::Tanh,
        &mut rng,
    )
}

fn critic(degree: usize, seed: u64) -> Mlp {
    let mut rng = StdRng::seed_from_u64(seed);
    Mlp::new(&[4 * degree + 4, 24, 1], Activation::Tanh, &mut rng)
}

/// The big one: server up, planes attached, fabric serving — every
/// endpoint answers live, and `/metrics` is byte-deterministic once the
/// registry is quiescent.
#[test]
fn ops_endpoints_answer_live_during_a_serving_run() {
    let scenario = ScenarioConfig::paper_base(2).with_horizon(400.0);
    let degree = scenario.topology.network_degree();
    let policy = CoordinationPolicy::new(
        actor(degree, 1),
        degree,
        PolicyMetadata {
            algorithm: "ops-http-test".into(),
            total_steps: 1234,
            ..PolicyMetadata::default()
        },
    );

    // Registry with the policy published and promoted.
    let root = std::env::temp_dir().join(format!("dosco-ctl-ops-http-{}", std::process::id()));
    std::fs::remove_dir_all(&root).ok();
    let mut registry = PolicyRegistry::open(&root).unwrap();
    registry.publish(&policy).unwrap();
    registry.promote(0, "ops test deploy").unwrap();
    let registry = Arc::new(Mutex::new(registry));

    // Training-plane slot and serving-plane board.
    let hub = Arc::new(PolicySlot::new(PolicySnapshot {
        version: 7,
        actor: actor(degree, 1),
        critic: critic(degree, 2),
    }));
    let board = Arc::new(StatusBoard::new());

    let state = Arc::new(
        CtlState::new()
            .with_slot(Arc::clone(&hub))
            .with_board(Arc::clone(&board))
            .with_registry(Arc::clone(&registry)),
    );
    let server = CtlServer::start(&CtlConfig::default(), Arc::clone(&state)).unwrap();
    let addr = server.addr();

    // Serve in a background thread while the main thread queries.
    let outcome = std::thread::scope(|s| {
        let cfg = ServeConfig::new(3).with_status(Arc::clone(&board));
        let (policy, hub, scenario) = (&policy, &hub, &scenario);
        let serve_handle = s.spawn(move || serve(policy, Some(hub), scenario, &[3, 7, 13], &cfg));

        // Query the live endpoints while (or right after) the fabric
        // runs; every response must parse regardless of timing.
        let (code, body) = http_get(addr, "/healthz");
        assert_eq!(code, 200);
        let health: HealthResponse = serde_json::from_str(&body).unwrap();
        assert!(health.ok);
        assert_eq!(health.service, "dosco_ctl");

        let (code, body) = http_get(addr, "/metrics");
        assert_eq!(code, 200);
        let report: ObsReport = serde_json::from_str(&body).unwrap();
        assert!(!report.counters.is_empty(), "registry enumerates counters");

        let (code, body) = http_get(addr, "/shards");
        assert_eq!(code, 200);
        let shards: ShardsResponse = serde_json::from_str(&body).unwrap();
        assert!(shards.attached);

        serve_handle.join().expect("serve thread")
    });
    assert!(outcome.report.conserved());
    assert!(outcome.report.decisions > 0);

    // Post-run: /shards reflects the final published status exactly.
    let (code, body) = http_get(addr, "/shards");
    assert_eq!(code, 200);
    let shards: ShardsResponse = serde_json::from_str(&body).unwrap();
    assert!(shards.attached);
    assert_eq!(shards.status, board.snapshot());
    assert_eq!(shards.status.report.decisions, outcome.report.decisions);
    assert_eq!(shards.status.live_episodes, 0);
    assert_eq!(shards.status.alive.len(), 3);
    assert_eq!(shards.status.report.final_version, 7);

    // /snapshot: the slot's live info plus the registry head.
    let (code, body) = http_get(addr, "/snapshot");
    assert_eq!(code, 200);
    let snap: SnapshotResponse = serde_json::from_str(&body).unwrap();
    let slot = snap.slot.expect("slot attached");
    assert_eq!(slot.version, 7);
    assert_eq!(slot.actor_params, hub.latest().actor.num_params());
    let head = snap.registry_head.expect("registry attached with a head");
    assert_eq!(head.version, 0);
    assert_eq!(head.algorithm, "ops-http-test");
    assert_eq!(head.created_step, 1234);

    // /metrics determinism: with the registry quiescent (fabric done),
    // two exports are byte-identical — order is pinned by construction,
    // not by accident of iteration.
    let (_, first) = http_get(addr, "/metrics");
    let (_, second) = http_get(addr, "/metrics");
    assert_eq!(first, second, "metrics export must be byte-deterministic");
    let report: ObsReport = serde_json::from_str(&first).unwrap();
    let names: Vec<&str> = report.counters.iter().map(|c| c.name.as_str()).collect();
    let mut sorted_check = names.clone();
    sorted_check.dedup();
    assert_eq!(names.len(), sorted_check.len(), "no duplicate counters");

    server.shutdown();
    std::fs::remove_dir_all(&root).ok();
}

/// Unknown paths 404 (naming the path), non-GET methods 405, and the
/// server stays healthy afterwards.
#[test]
fn unknown_routes_and_methods_are_rejected_politely() {
    let server = CtlServer::start(&CtlConfig::default(), Arc::new(CtlState::new())).unwrap();
    let addr = server.addr();

    let (code, body) = http_get(addr, "/nope");
    assert_eq!(code, 404);
    assert!(body.contains("/nope"), "404 names the path: {body}");

    let (code, body) = http_request(addr, "POST", "/metrics");
    assert_eq!(code, 405);
    assert!(body.contains("POST"), "405 names the method: {body}");

    // Query strings are tolerated on known routes.
    let (code, _) = http_get(addr, "/healthz?probe=1");
    assert_eq!(code, 200);

    // Still alive after the rejects.
    let (code, _) = http_get(addr, "/healthz");
    assert_eq!(code, 200);
    server.shutdown();
}

/// Detached endpoints answer honestly rather than erroring.
#[test]
fn detached_state_serves_nulls() {
    let server = CtlServer::start(&CtlConfig::default(), Arc::new(CtlState::new())).unwrap();
    let addr = server.addr();
    let (code, body) = http_get(addr, "/snapshot");
    assert_eq!(code, 200);
    let snap: SnapshotResponse = serde_json::from_str(&body).unwrap();
    assert_eq!(snap.slot, None);
    assert_eq!(snap.registry_head, None);
    let (code, body) = http_get(addr, "/shards");
    assert_eq!(code, 200);
    let shards: ShardsResponse = serde_json::from_str(&body).unwrap();
    assert!(!shards.attached);
    server.shutdown();
}

/// A POST round trip with a JSON body (the job-control routes).
fn http_post(addr: SocketAddr, path: &str, body: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect to ctl server");
    write!(
        stream,
        "POST {path} HTTP/1.1\r\nHost: localhost\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
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

/// Job control end to end over real HTTP: spawn a training job, list
/// it, stop it, and watch it drain to `done`. Malformed specs fail with
/// 400 naming the offending field.
#[test]
fn job_control_routes_spawn_stop_and_report() {
    let state = Arc::new(CtlState::new());
    let server = CtlServer::start(&CtlConfig::default(), Arc::clone(&state)).unwrap();
    let addr = server.addr();

    // A training job sized to outlive the test unless stopped.
    let (code, body) = http_post(
        addr,
        "/jobs/train",
        r#"{"total_steps": 100000000, "horizon": 60.0}"#,
    );
    assert_eq!(code, 200, "{body}");
    let train_id: u64 = body
        .split("\"id\":")
        .nth(1)
        .and_then(|s| s.split(&[',', '}'][..]).next())
        .and_then(|s| s.trim().parse().ok())
        .expect("train job id in response");

    let (code, body) = http_get(addr, "/jobs");
    assert_eq!(code, 200);
    assert!(body.contains(r#""kind":"train""#), "{body}");

    // Stop the trainer; unknown ids 404.
    let (code, body) = http_post(addr, &format!("/jobs/{train_id}/stop"), "");
    assert_eq!(code, 200, "{body}");
    assert!(body.contains(r#""stopped":true"#), "{body}");
    let (code, _) = http_post(addr, "/jobs/999999/stop", "");
    assert_eq!(code, 404);

    // Malformed specs fail loudly, naming the field.
    let (code, body) = http_post(addr, "/jobs/train", r#"{"total_stepz": 5}"#);
    assert_eq!(code, 400);
    assert!(body.contains("total_stepz"), "{body}");
    // The runtime has one mode: a spec still naming it is refused.
    let (code, body) = http_post(addr, "/jobs/train", r#"{"mode": "async"}"#);
    assert_eq!(code, 400);
    assert!(body.contains("mode"), "{body}");

    // The stopped trainer drains to done cooperatively.
    state.jobs().shutdown();
    let (code, body) = http_get(addr, "/jobs");
    assert_eq!(code, 200);
    assert!(!body.contains(r#""state":"running""#), "{body}");

    server.shutdown();
}

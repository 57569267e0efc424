//! Control-plane quickstart: train a candidate policy, register it in
//! the versioned policy registry, canary it against the incumbent on a
//! shard subset of the serving fabric, and watch the whole lifecycle
//! through the ops HTTP surface.
//!
//! ```text
//! cargo run --release --example ctl
//! ```
//!
//! `DOSCO_CTL_ADDR` overrides the server binding (default: an ephemeral
//! loopback port); two worker threads answer requests.
//!
//! What to look for in the output:
//! - the registry assigns versions, records lineage, and survives the
//!   promote in its append-only log,
//! - the canary serves incumbent and candidate side by side with exact
//!   per-version decision accounting,
//! - after the verdict, `GET /shards` shows every shard converged and
//!   `GET /snapshot` shows the promoted head — all live over real TCP.

use dosco::core::policy::PolicyMetadata;
use dosco::core::{CoordEnv, CoordinationPolicy, RewardConfig};
use dosco::ctl::{
    run_canary, CanaryConfig, CanaryDecision, CtlConfig, CtlServer, CtlState, PolicyRegistry,
    ThresholdJudge,
};
use dosco::rl::a2c::{A2c, A2cConfig};
use dosco::rl::Env;
use dosco::serve::{PolicySlot, PolicySnapshot, ServeConfig, StatusBoard};
use dosco::simnet::ScenarioConfig;
use dosco::traffic::ArrivalPattern;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Mutex};

/// One raw HTTP/1.1 GET: returns the body (panics on non-200).
fn http_get(addr: SocketAddr, path: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect to ctl server");
    write!(
        stream,
        "GET {path} HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n\r\n"
    )
    .expect("write request");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    assert!(
        response.starts_with("HTTP/1.1 200"),
        "GET {path} failed: {response}"
    );
    response
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default()
}

fn main() {
    if let Err(e) = dosco::obs::init_from_env() {
        eprintln!("{e}");
        std::process::exit(2);
    }

    let scenario = ScenarioConfig::paper_base(2)
        .with_pattern(ArrivalPattern::paper_poisson())
        .with_horizon(500.0);
    let degree = scenario.topology.network_degree();
    let (obs_dim, num_actions) = (4 * degree + 4, degree + 1);

    // -- Train a candidate (briefly: a real but rough policy).
    println!("training A2C candidate for 4,000 transitions ...");
    let mut agent = A2c::new(
        obs_dim,
        num_actions,
        A2cConfig {
            n_steps: 16,
            hidden: [64, 64],
            ..A2cConfig::default()
        },
        0,
    );
    let mut envs: Vec<Box<dyn Env>> = (0..4)
        .map(|i| {
            Box::new(CoordEnv::new(
                scenario.clone(),
                RewardConfig::default(),
                2_000 + i,
                None,
            )) as Box<dyn Env>
        })
        .collect();
    let stats = agent.train(&mut envs, 4_000);
    println!(
        "  trained {} steps, tail mean reward {:.4}",
        stats.total_steps,
        stats.tail_mean(10)
    );

    // -- Register incumbent (untrained, v0) and candidate (trained, v1).
    let untrained = A2c::new(obs_dim, num_actions, A2cConfig::default(), 0);
    let incumbent_policy = CoordinationPolicy::new(
        untrained.actor().clone(),
        degree,
        PolicyMetadata {
            algorithm: "a2c-initial".into(),
            ..PolicyMetadata::default()
        },
    );
    let candidate_policy = CoordinationPolicy::new(
        agent.actor().clone(),
        degree,
        PolicyMetadata {
            algorithm: "a2c".into(),
            total_steps: stats.total_steps,
            ..PolicyMetadata::default()
        },
    );
    let root = std::env::temp_dir().join(format!("dosco-ctl-example-{}", std::process::id()));
    std::fs::remove_dir_all(&root).ok();
    let mut registry = PolicyRegistry::open(&root).expect("open registry");
    let m0 = registry
        .publish(&incumbent_policy)
        .expect("publish incumbent");
    let m1 = registry
        .publish(&candidate_policy)
        .expect("publish candidate");
    registry
        .promote(m0.version, "initial deploy")
        .expect("promote incumbent");
    println!("{}", registry.describe());
    println!(
        "  v{} {} / v{} {} (checksums {} / {})",
        m0.version, m0.algorithm, m1.version, m1.algorithm, m0.fnv64, m1.fnv64
    );
    // The registry's copy round-trips with integrity verification.
    let incumbent_policy = registry.load_head().expect("load promoted head");
    let candidate_policy = registry.load(m1.version).expect("load candidate");

    // -- Bring up the ops surface, attached to the registry, a policy
    // slot, and the status board the canary fabric will publish to.
    let board = Arc::new(StatusBoard::new());
    let slot = Arc::new(PolicySlot::new(PolicySnapshot {
        version: m0.version,
        actor: incumbent_policy.actor().clone(),
        critic: untrained.critic().clone(),
    }));
    let registry = Arc::new(Mutex::new(registry));
    let state = Arc::new(
        CtlState::new()
            .with_board(Arc::clone(&board))
            .with_slot(Arc::clone(&slot))
            .with_registry(Arc::clone(&registry)),
    );
    let cfg = CtlConfig::from_env().expect("valid DOSCO_CTL_* env");
    let server = CtlServer::start(&cfg, Arc::clone(&state)).expect("start ctl server");
    println!("ops surface listening on http://{}", server.addr());
    println!("  GET /healthz -> {}", http_get(server.addr(), "/healthz"));

    // -- Canary: candidate on shards {1, 2} from epoch 10, judged after a
    // 30-epoch window by the default threshold judge.
    let incumbent = Arc::new(PolicySnapshot {
        version: m0.version,
        actor: incumbent_policy.actor().clone(),
        critic: untrained.critic().clone(),
    });
    let candidate = Arc::new(PolicySnapshot {
        version: m1.version,
        actor: candidate_policy.actor().clone(),
        critic: agent.critic().clone(),
    });
    let judge = ThresholdJudge::default();
    println!("canarying v1 on shards {{1, 2}} (epochs 10..40, threshold judge) ...");
    let outcome = run_canary(
        incumbent,
        Arc::clone(&candidate),
        &scenario,
        &[1, 2, 3, 4, 5, 6],
        &ServeConfig::new(4).with_status(Arc::clone(&board)),
        &CanaryConfig::new(vec![1, 2], 10, 30),
        |stats| judge.decide(stats),
    );

    let decision = outcome.report.decision.expect("window completed");
    let cstats = outcome.report.stats.as_ref().expect("stats recorded");
    println!("canary verdict: {decision:?}");
    println!(
        "  window: {} candidate vs {} incumbent decisions, success {:?} (baseline {:?})",
        cstats.candidate_decisions(),
        cstats.incumbent_decisions(),
        cstats.window_success_ratio(),
        cstats.baseline_success_ratio()
    );
    let r = &outcome.serve.report;
    println!(
        "  fabric: {} decisions over {} epochs, final version {}",
        r.decisions, r.epochs, r.final_version
    );
    for &(v, n) in &r.decisions_by_version {
        println!("  decisions @ v{v}  {n}");
    }
    assert!(r.conserved(), "batched + fallback must equal total");

    // -- Apply the verdict to the registry and show the ops surface
    // reflecting everything live.
    if decision == CanaryDecision::Promote {
        slot.publish(Arc::clone(&candidate));
        registry
            .lock()
            .expect("registry lock")
            .promote(m1.version, "canary window passed")
            .expect("promote candidate");
    }
    println!("{}", registry.lock().expect("registry lock").describe());
    for rec in registry
        .lock()
        .expect("registry lock")
        .promotion_log()
        .expect("read log")
    {
        println!(
            "  log[{}] promote -> v{} (was {:?}): {}",
            rec.seq, rec.version, rec.previous, rec.reason
        );
    }

    println!(
        "  GET /snapshot -> {}",
        http_get(server.addr(), "/snapshot")
    );
    let shards = http_get(server.addr(), "/shards");
    println!(
        "  GET /shards   -> {} bytes (live fabric status)",
        shards.len()
    );
    let metrics = http_get(server.addr(), "/metrics");
    println!(
        "  GET /metrics  -> {} bytes of deterministic registry JSON",
        metrics.len()
    );

    server.shutdown();
    std::fs::remove_dir_all(&root).ok();
    println!("done.");
}

//! Multi-process actor–learner training over real TCP: this one binary
//! is all three processes.
//!
//! ```text
//! cargo run --release --example distributed
//! ```
//!
//! Run plainly, it is the **orchestrator**: it trains an in-process
//! baseline, then re-spawns itself twice — once with
//! `DOSCO_NET_ROLE=learner` (binds an ephemeral loopback port with
//! `std::net::TcpListener`, then `run_learner` accepts the actor, sends
//! the `LearnerHello` and runs the learner loop) and once with
//! `DOSCO_NET_ROLE=actor` (`run_actor` dials the learner, reads the
//! hello, collects rollouts, ships `ExperienceBatch` frames, receives
//! policy replies) — and verifies the two-process sync run reproduced
//! the in-process baseline **bit for bit**: same `TrainStats`, same
//! final weights.
//!
//! This binary picks its role from `DOSCO_NET_ROLE` (`learner`, `actor`,
//! or unset for the orchestrator). The role entrypoints read the
//! standard `DOSCO_NET_*` environment contract
//! ([`dosco::net::NetConfig`]): `DOSCO_NET_ADDR`, and optionally
//! `DOSCO_NET_RETRIES` / `DOSCO_NET_TIMEOUT_MS` for the dial policy —
//! exactly what a real deployment would set per container. Both ends of
//! the lockstep session hold one message in flight each way.

use dosco::core::policy::fnv1a64;
use dosco::core::{CoordEnv, RewardConfig};
use dosco::net::NetConfig;
use dosco::rl::a2c::{A2c, A2cConfig};
use dosco::rl::Env;
use dosco::runtime::{train, RuntimeConfig};
use dosco::simnet::ScenarioConfig;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpListener;
use std::process::{Command, Stdio};

const TOTAL_STEPS: usize = 400;
const SEED: u64 = 7;

fn scenario() -> ScenarioConfig {
    ScenarioConfig::paper_base(2).with_horizon(150.0)
}

fn envs() -> Vec<Box<dyn Env>> {
    let scenario = scenario();
    (0..2)
        .map(|i| {
            Box::new(CoordEnv::new(
                scenario.clone(),
                RewardConfig::default(),
                3_000 + i,
                None,
            )) as Box<dyn Env>
        })
        .collect()
}

fn agent() -> A2c {
    let degree = scenario().topology.network_degree();
    A2c::new(
        4 * degree + 4,
        degree + 1,
        A2cConfig {
            n_steps: 8,
            hidden: [16, 16],
            ..A2cConfig::default()
        },
        SEED,
    )
}

/// FNV-1a over the exact bit patterns of the weights: any single-bit
/// divergence between deployments changes this.
fn weight_fingerprint(agent: &A2c) -> u64 {
    let (actor, critic) = (agent.actor().flat_params(), agent.critic().flat_params());
    let bytes: Vec<u8> = actor
        .iter()
        .chain(&critic)
        .flat_map(|w| w.to_bits().to_le_bytes())
        .collect();
    fnv1a64(&bytes)
}

/// `DOSCO_NET_ROLE=learner`: bind, announce the resolved port on stdout,
/// train, report the outcome.
fn run_learner() {
    let net = NetConfig::from_env().expect("valid DOSCO_NET_* environment");
    let addr = net.addr.as_deref().unwrap_or("127.0.0.1:0");
    let listener = TcpListener::bind(addr).expect("bind learner");
    // The orchestrator reads this line to learn the ephemeral port.
    println!("ADDR {}", listener.local_addr().expect("bound address"));
    std::io::stdout().flush().expect("announce address");

    let mut agent = agent();
    let outcome =
        dosco::runtime::run_learner(&listener, &mut agent, TOTAL_STEPS, None).expect("learner run");
    println!(
        "RESULT steps={} updates={} tail={:.6} weights={:#018x}",
        outcome.stats.total_steps,
        outcome.stats.mean_rewards.len(),
        outcome.stats.tail_mean(10),
        weight_fingerprint(&agent),
    );
}

/// `DOSCO_NET_ROLE=actor`: dial the learner and collect until it closes
/// the control stream.
fn run_actor() {
    let net = NetConfig::from_env().expect("valid DOSCO_NET_* environment");
    let addr = net.require_addr().expect("actor needs DOSCO_NET_ADDR");
    let sent = dosco::runtime::run_actor(&mut envs(), addr, &net).expect("actor run");
    println!("actor: shipped {sent} batches");
}

fn orchestrate() {
    println!("== in-process baseline: sync A2C for {TOTAL_STEPS} transitions ==");
    let mut baseline_agent = agent();
    let baseline = train(
        &mut baseline_agent,
        &mut envs(),
        TOTAL_STEPS,
        &RuntimeConfig::sync(),
    );
    let baseline_fp = weight_fingerprint(&baseline_agent);
    println!(
        "baseline: {} steps, {} updates, weights {baseline_fp:#018x}",
        baseline.stats.total_steps,
        baseline.stats.mean_rewards.len()
    );

    println!("== spawning learner + actor as separate OS processes ==");
    let exe = std::env::current_exe().expect("own executable path");
    let mut learner = Command::new(&exe)
        .env("DOSCO_NET_ROLE", "learner")
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn learner process");
    let mut learner_out = BufReader::new(learner.stdout.take().expect("learner stdout"));

    let mut addr_line = String::new();
    learner_out
        .read_line(&mut addr_line)
        .expect("read learner address");
    let addr = addr_line
        .strip_prefix("ADDR ")
        .expect("learner announces ADDR first")
        .trim()
        .to_string();
    println!("learner is listening on {addr}");

    let actor = Command::new(&exe)
        .env("DOSCO_NET_ROLE", "actor")
        .env("DOSCO_NET_ADDR", &addr)
        .output()
        .expect("run actor process");
    assert!(actor.status.success(), "actor process failed");
    print!("{}", String::from_utf8_lossy(&actor.stdout));

    let mut result_line = String::new();
    learner_out
        .read_line(&mut result_line)
        .expect("read learner result");
    assert!(
        learner.wait().expect("join learner process").success(),
        "learner process failed"
    );
    println!("{}", result_line.trim());

    // Bit-identity across the process boundary: the learner's reported
    // steps/updates and weight fingerprint must equal the baseline's.
    let expected = format!(
        "RESULT steps={} updates={} tail={:.6} weights={:#018x}",
        baseline.stats.total_steps,
        baseline.stats.mean_rewards.len(),
        baseline.stats.tail_mean(10),
        baseline_fp,
    );
    assert_eq!(
        result_line.trim(),
        expected,
        "two-process run diverged from the in-process baseline"
    );
    println!("== OK: 2-process sync training is bit-identical to in-process ==");
}

fn main() {
    match std::env::var("DOSCO_NET_ROLE").ok().as_deref() {
        Some("learner") => run_learner(),
        Some("actor") => run_actor(),
        Some(other) => panic!("unsupported DOSCO_NET_ROLE {other:?} for this example"),
        None => orchestrate(),
    }
}

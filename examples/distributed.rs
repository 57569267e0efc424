//! Multi-process actor–learner training over real TCP: this one binary
//! is all three processes.
//!
//! ```text
//! cargo run --release --example distributed
//! ```
//!
//! Run plainly, it is the **orchestrator**: it trains an in-process
//! baseline, then re-spawns itself twice — once with
//! `DOSCO_NET_ROLE=learner` (binds an ephemeral loopback port, accepts
//! the actor, runs the learner loop) and once with
//! `DOSCO_NET_ROLE=actor` (dials the learner, collects rollouts, ships
//! `ExperienceBatch` frames, receives policy replies) — and verifies the
//! two-process sync run reproduced the in-process baseline **bit for
//! bit**: same `TrainStats`, same final weights.
//!
//! This binary picks its role from `DOSCO_NET_ROLE` (`learner`, `actor`,
//! or unset for the orchestrator). The role entrypoints read the
//! standard `DOSCO_NET_*` environment contract
//! ([`dosco::net::NetConfig`]): `DOSCO_NET_ADDR`, and optionally
//! `DOSCO_NET_RETRIES` / `DOSCO_NET_TIMEOUT_MS` / `DOSCO_NET_CAPACITY`
//! for the dial policy — exactly what a real deployment would set per
//! container.

use dosco::core::{CoordEnv, RewardConfig};
use dosco::net::NetConfig;
use dosco::rl::a2c::{A2c, A2cConfig};
use dosco::rl::Env;
use dosco::runtime::{train, LearnerServer, RuntimeConfig};
use dosco::simnet::ScenarioConfig;
use std::io::{BufRead, BufReader, Write};
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
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for w in agent
        .actor()
        .flat_params()
        .iter()
        .chain(agent.critic().flat_params().iter())
    {
        for b in w.to_bits().to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    h
}

/// `DOSCO_NET_ROLE=learner`: bind, announce the resolved port on stdout,
/// train, report the outcome.
fn run_learner() {
    let net = NetConfig::from_env().expect("valid DOSCO_NET_* environment");
    let addr = net.addr.as_deref().unwrap_or("127.0.0.1:0");
    let server = LearnerServer::bind(addr).expect("bind learner");
    // The orchestrator reads this line to learn the ephemeral port.
    println!("ADDR {}", server.local_addr());
    std::io::stdout().flush().expect("announce address");

    let mut agent = agent();
    let outcome = server
        .run(&mut agent, TOTAL_STEPS, &RuntimeConfig::sync(), None)
        .expect("learner run");
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

//! Actor–learner training runtime quickstart: train an A2C coordination
//! policy on the paper's base scenario (Abilene) with a rollout actor and
//! a central learner in lockstep — bit-identical to the serial training
//! loop — then print the runtime's counters: batches produced, consumed
//! and in flight, snapshots published, and channel waits.
//!
//! ```text
//! cargo run --release --example actor_learner
//! ```
//!
//! Set `DOSCO_TRACE=/tmp/run.jsonl` to capture a structured JSONL event
//! trace (episode samples, batch hand-offs, snapshot publishes); the run
//! is lockstep, so the trace is byte-identical across runs with the same
//! seed. `DOSCO_SPANS=1` additionally arms the hot-path span timers.

use dosco::core::{CoordEnv, RewardConfig};
use dosco::rl::a2c::{A2c, A2cConfig};
use dosco::rl::Env;
use dosco::runtime::{train, RuntimeConfig};
use dosco::simnet::ScenarioConfig;
use dosco::traffic::ArrivalPattern;

fn main() {
    // Observability from the environment: DOSCO_TRACE installs a JSONL
    // recorder, DOSCO_SPANS=1 arms span timers; a malformed value exits 2.
    let trace_path = dosco::obs::init_from_env().unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2)
    });

    // The paper's base scenario: Abilene, 2 ingress nodes, Poisson
    // arrivals, the FW -> IDS -> Video service chain.
    let scenario = ScenarioConfig::paper_base(2)
        .with_pattern(ArrivalPattern::paper_poisson())
        .with_horizon(1_000.0);
    let degree = scenario.topology.network_degree();
    let (obs_dim, num_actions) = (4 * degree + 4, degree + 1);

    // Four parallel environment copies, stepped by the one actor thread.
    let mut envs: Vec<Box<dyn Env>> = (0..4)
        .map(|i| {
            Box::new(CoordEnv::new(
                scenario.clone(),
                RewardConfig::default(),
                1_000 + i,
                None,
            )) as Box<dyn Env>
        })
        .collect();
    let agent_cfg = A2cConfig {
        n_steps: 16,
        hidden: [64, 64],
        ..A2cConfig::default()
    };
    let mut agent = A2c::new(obs_dim, num_actions, agent_cfg, 0);

    println!("training A2C through the actor-learner runtime ...");
    let outcome = train(&mut agent, &mut envs, 8_000, &RuntimeConfig::sync());
    println!(
        "trained {} transitions over {} updates, final mean reward {:.4}",
        outcome.stats.total_steps,
        outcome.stats.mean_rewards.len(),
        outcome.stats.tail_mean(10),
    );

    let r = &outcome.report;
    println!("runtime counters:");
    println!("  batches produced      {}", r.batches_produced);
    println!("  batches consumed      {}", r.batches_consumed);
    println!("  batches in flight     {}", r.batches_in_flight);
    println!("  snapshots published   {}", r.snapshots_published);
    println!("  send wait             {:.2} ms", r.send_wait_ms);
    println!("  receive wait          {:.2} ms", r.recv_wait_ms);
    println!("  snapshot publish      {:.2} ms", r.publish_ms);
    assert_eq!(
        r.batches_produced,
        r.batches_consumed + r.batches_in_flight,
        "conservation invariant"
    );
    println!("conservation holds: produced == consumed + in-flight");

    if let Some(path) = trace_path {
        dosco::obs::flush().expect("write trace file");
        println!("wrote JSONL event trace to {}", path.display());
    }
}

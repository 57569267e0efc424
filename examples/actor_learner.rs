//! Actor–learner training runtime quickstart: train an A2C coordination
//! policy on the paper's base scenario (Abilene) with overlapped rollout
//! actors and a central learner, then print the runtime's counters —
//! batches produced/consumed, policy staleness against its bound, and the
//! backpressure signals.
//!
//! ```text
//! cargo run --release --example actor_learner
//! ```
//!
//! Set `DOSCO_TRACE=/tmp/run.jsonl` to capture a structured JSONL event
//! trace (episode samples, batch hand-offs, snapshot publishes). Tracing
//! switches the runtime to lockstep sync mode so the trace is
//! byte-identical across runs with the same seed; `DOSCO_SPANS=1`
//! additionally arms the hot-path span timers.
//!
//! For the lockstep variant that is bit-identical to the serial training
//! loop, swap in `RuntimeConfig::sync()`.

use dosco::core::{CoordEnv, RewardConfig};
use dosco::rl::a2c::{A2c, A2cConfig};
use dosco::rl::Env;
use dosco::runtime::{train, Mode, RuntimeConfig};
use dosco::simnet::ScenarioConfig;
use dosco::traffic::ArrivalPattern;

fn main() {
    // Observability from the environment: DOSCO_TRACE installs a JSONL
    // recorder, DOSCO_SPANS arms span timers, DOSCO_TRACE_SAMPLE sets the
    // mid-episode sampling stride.
    let trace_path = dosco::obs::init_from_env();

    // The paper's base scenario: Abilene, 2 ingress nodes, Poisson
    // arrivals, the FW -> IDS -> Video service chain.
    let scenario = ScenarioConfig::paper_base(2)
        .with_pattern(ArrivalPattern::paper_poisson())
        .with_horizon(1_000.0);
    let degree = scenario.topology.network_degree();
    let (obs_dim, num_actions) = (4 * degree + 4, degree + 1);

    // Four parallel environment copies, sharded across two actor threads.
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

    // Async interleaving is nondeterministic by design, so a trace run
    // drops to lockstep sync mode: same seed -> byte-identical trace.
    let mode = if trace_path.is_some() {
        println!("DOSCO_TRACE set: using sync mode for a deterministic trace");
        Mode::Sync
    } else {
        Mode::Async
    };
    let config = RuntimeConfig {
        mode,
        n_actors: 2,
        channel_capacity: 4,
        minibatch_batches: 1,
        max_staleness: 32,
        actor_seed: 0x5EED,
    };
    config.validate().expect("valid runtime configuration");

    println!(
        "training A2C through the actor-learner runtime ({} mode, {} actors) ...",
        config.mode.name(),
        config.n_actors
    );
    let outcome = train(&mut agent, &mut envs, 8_000, &config);

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
    println!(
        "  staleness             mean {:.2} / max {} (bound {})",
        r.mean_staleness, r.max_staleness, r.staleness_bound
    );
    println!("  channel-full stalls   {}", r.channel_full_stalls);
    println!("  clock-gate waits      {}", r.gate_waits);
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

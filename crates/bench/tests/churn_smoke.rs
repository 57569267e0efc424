//! Release-mode smoke gate for the million-flow simulation core.
//!
//! Drives 100k concurrent flows through `dosco_simnet` on a synthetic
//! 100-node grid — the scale of the `sim-grid-static` workload in
//! `benchmark/`, a tenth of the million-flow runs the core was sized for —
//! and asserts the storage contracts that make the full-scale run viable:
//!
//! - the run finishes inside a bounded wall clock,
//! - the flow slab's resident size equals its live-flow high-water mark
//!   (free slots are reused, never leaked), and
//! - doubling the steady-state portion of the episode does not grow the
//!   slabs at all: memory is flat over time, not merely sub-linear.
//!
//! Ignored by default so plain `cargo test` (debug) stays fast;
//! `scripts/check.sh` runs it with `--release -- --include-ignored`.

use dosco_bench::scenarios::churn_scenario;
use dosco_simnet::Simulation;
use std::time::Instant;

const INTERVAL: f64 = 10.0;
const DWELL: f64 = 10_000.0;

/// Runs the 10x10-grid churn scenario to `horizon` and returns the sim.
fn run_to(horizon: f64) -> Simulation {
    let topo = dosco_topology::generators::grid(10, 10, 1.0, 1.0);
    let mut sim = Simulation::new(churn_scenario(topo, INTERVAL, DWELL, horizon), 7);
    sim.run(&mut dosco_baselines::ShortestPath::new());
    sim
}

#[test]
#[ignore = "release-mode smoke gate; run via scripts/check.sh"]
fn hundred_k_flow_smoke() {
    let t = Instant::now();
    let sim = run_to(1.2 * DWELL);
    let elapsed = t.elapsed();

    let m = sim.metrics();
    assert_eq!(m.dropped.values().sum::<u64>(), 0, "churn flows never drop");
    assert!(m.completed > 0, "some flows must have completed");
    // 100 ingresses / interval 10 x dwell 10k ≈ 100k concurrent.
    assert!(
        sim.peak_live_flows() >= 100_000,
        "peak live flows {} below the 100k smoke target",
        sim.peak_live_flows()
    );
    // The slab never allocates beyond its live high-water mark: every
    // terminated flow's slot is reused before a new one is carved out.
    assert_eq!(
        sim.flow_slab_capacity(),
        sim.peak_live_flows(),
        "flow slab resident size must equal the live-flow peak"
    );
    assert!(
        sim.peak_queued_events() >= sim.peak_live_flows(),
        "each live flow holds at least one scheduled event"
    );
    // Generous bound (~10x observed on a single-core host): this is a
    // regression tripwire for accidental O(n^2) behavior, not a perf SLO.
    assert!(
        elapsed.as_secs() < 120,
        "100k-flow smoke took {elapsed:?}; the event queue or flow table \
         has regressed superlinearly"
    );
}

#[test]
#[ignore = "release-mode smoke gate; run via scripts/check.sh"]
fn steady_state_memory_is_flat() {
    // Same scenario, twice the steady-state time: every byte of slab
    // growth past warm-up would show up as a capacity difference here.
    let short = run_to(1.2 * DWELL);
    let long = run_to(2.4 * DWELL);
    assert!(long.metrics().arrived > short.metrics().arrived);
    assert_eq!(
        short.flow_slab_capacity(),
        long.flow_slab_capacity(),
        "flow slab grew with episode length: storage is not constant-memory"
    );
    assert_eq!(
        short.event_slab_capacity(),
        long.event_slab_capacity(),
        "event queue slab grew with episode length"
    );
}

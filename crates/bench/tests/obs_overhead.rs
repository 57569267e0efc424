//! Pins the "near-zero when disabled" contract of `dosco_obs`: with no
//! recorder installed and spans disarmed, the per-decision cost added to
//! the simulator's decision hot path must stay below 1% of the simulator's
//! own per-decision cost.
//!
//! Rather than an A/B wall-clock diff (too noisy for a sub-1% bound on a
//! shared CI host), the test measures both sides directly: the disabled
//! instrumentation primitives cost a few nanoseconds per call, while one
//! simulator decision costs microseconds — so the ratio has orders of
//! magnitude of headroom around the 1% line.

use dosco_baselines::gcasp::Gcasp;
use dosco_bench::scenarios::base_scenario;
use dosco_simnet::Simulation;
use std::hint::black_box;
use std::time::Instant;

/// Best-of-`reps` wall time of `f`, in nanoseconds.
fn time_ns<R>(reps: usize, mut f: impl FnMut() -> R) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t = Instant::now();
        black_box(f());
        best = best.min(t.elapsed().as_nanos() as f64);
    }
    best
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "the <1% contract is for optimized builds (benches run in \
              release, debug never inlines the guards); run with --release"
)]
fn disabled_observability_costs_under_one_percent_per_decision() {
    // Force the disabled configuration regardless of the environment.
    dosco_obs::uninstall_recorder();
    dosco_obs::set_spans_enabled(false);

    // Per-decision cost of the sim_throughput episode workload (GCASP on
    // the base scenario). The instrumented Simulation is the system under
    // test, so this timing already *includes* the disabled-path checks.
    let scenario = base_scenario(2, dosco_traffic::ArrivalPattern::paper_poisson(), 1_000.0);
    let mut decisions = 0u64;
    let episode_ns = time_ns(3, || {
        let mut sim = Simulation::new(scenario.clone(), 7);
        let mut g = Gcasp::new();
        decisions = sim.run(&mut g).decisions;
        decisions
    });
    assert!(
        decisions > 100,
        "workload too small to measure: {decisions}"
    );
    let ns_per_decision = episode_ns / decisions as f64;

    // Cost of the disabled instrumentation per decision. The episode path
    // pays one gate in `Simulation::apply` (a pre-captured `Option` check,
    // cheaper than the atomic measured here); GEMM / K-FAC / rollout paths
    // pay one disarmed span guard per *batch*, not per decision. Measuring
    // the atomic trace gate AND a span guard per iteration is therefore
    // already a strict superset of the real per-decision work.
    const CALLS: u64 = 1_000_000;
    let gate_ns = time_ns(3, || {
        let mut acc = 0u64;
        for i in 0..CALLS {
            acc += u64::from(dosco_obs::trace_enabled());
            let _guard = dosco_obs::span(black_box(dosco_obs::SpanKind::RolloutCollect));
            acc += i & 1;
        }
        acc
    });
    let overhead_per_decision = gate_ns / CALLS as f64;

    let ratio = overhead_per_decision / ns_per_decision;
    assert!(
        ratio < 0.01,
        "disabled-path overhead {overhead_per_decision:.2} ns/decision is \
         {:.3}% of the {ns_per_decision:.0} ns/decision episode cost \
         (must stay < 1%)",
        ratio * 100.0
    );
}

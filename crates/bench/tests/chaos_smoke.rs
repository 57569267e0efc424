//! Release-mode smoke gate for the chaos subsystem at scale.
//!
//! Drives the 10x10-grid scenario (~10k steady-state concurrent flows)
//! under a stochastic per-link failure process and asserts that
//!
//! - the run costs a bounded multiple of the same episode without the
//!   timeline (fault application, victim killing and the path rows
//!   repaired at each fault stay a small factor, on any host),
//! - churn really happened (events applied, path table updated, flows
//!   killed), and
//! - flow conservation holds through every fault and repair: every
//!   arrived flow either completed, dropped, or is still live at the
//!   horizon.
//!
//! Ignored by default so plain `cargo test` (debug) stays fast;
//! `scripts/check.sh` runs it with `--release -- --include-ignored`.

use dosco_bench::scenarios::churn_scenario;
use dosco_chaos::{ChurnSchedule, StochasticChurn};
use dosco_simnet::{ChurnTimeline, Simulation};
use std::time::{Duration, Instant};

#[test]
#[ignore = "release-mode smoke gate; run via scripts/check.sh"]
fn substrate_churn_smoke_is_bounded_and_conserves_flows() {
    let topo = dosco_topology::generators::grid(10, 10, 1.0, 1.0);
    let cfg = churn_scenario(topo, 10.0, 1_000.0, 1_500.0);
    let timeline = ChurnSchedule::none()
        .with_stochastic(StochasticChurn::default().with_link_failures(500.0, 50.0))
        .compile(&cfg.topology, cfg.horizon, 3)
        .expect("valid schedule");

    // One SP episode under `timeline`, and its wall time.
    let episode = |timeline: &ChurnTimeline| {
        let t = Instant::now();
        let mut sim = Simulation::with_churn(cfg.clone(), 7, timeline.clone());
        sim.run(&mut dosco_baselines::ShortestPath::new());
        (t.elapsed(), sim)
    };
    // Best of three per side, alternating, so a noisy neighbour has to
    // hit every run of one side to move the ratio.
    let (mut churn, mut still) = (Duration::MAX, Duration::MAX);
    let mut sim = None;
    for _ in 0..3 {
        let (elapsed, churned) = episode(&timeline);
        churn = churn.min(elapsed);
        sim = Some(churned);
        still = still.min(episode(&ChurnTimeline::none()).0);
    }
    let sim = sim.expect("three episodes ran");

    let m = sim.metrics().clone();
    let stats = *sim.churn_stats().expect("churn was active");
    assert!(stats.events_applied > 50, "churn must actually fire");
    assert!(stats.sp_recomputes > 50, "failures affect routing");
    assert!(stats.flows_killed_link > 0, "in-transit victims exist");
    assert!(m.completed > 0, "service survives between faults");
    assert_eq!(
        m.arrived,
        m.completed + m.dropped.values().sum::<u64>() + sim.live_flows() as u64,
        "conservation through every fault and repair"
    );
    // Measures 2.6–2.7x (12.6–12.9 ms against 4.7–5.0 ms) since each
    // fault repairs the path rows in place. The lazy rows this replaced,
    // restarted by their first read after a fault, measured 3.0–3.1x on
    // the same host and 3.5–3.9x on an earlier one, so their return trips
    // this bound. It read 2.0–2.3x (40–53 ms against 18–23 ms) until the
    // radix-heap event queue made the quiet episode 2.8x faster: the ratio
    // rose because its denominator fell. Against that older denominator a
    // full row per first read was ~4x and one all-pairs recompute per
    // churn event 34x. A tripwire for those regressions and for
    // superlinear victim scans, not a perf SLO.
    let ratio = churn.as_secs_f64() / still.as_secs_f64();
    assert!(
        ratio < 3.0,
        "substrate churn smoke took {churn:?}, {ratio:.1}x the {still:?} of the \
         same episode without churn (must stay < 3x)"
    );
}

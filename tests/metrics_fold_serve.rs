//! `/metrics`' serving series are a fold of `ServeReport`: a serving run
//! with a shard kill window and a hub publish adds exactly the decisions,
//! fallbacks and swaps of the report it returns.
//!
//! The registry is process-global, so this is the only test in its
//! binary.

use dosco::core::policy::PolicyMetadata;
use dosco::core::CoordinationPolicy;
use dosco::nn::mlp::{Activation, Mlp};
use dosco::obs::registry::counter_value;
use dosco::obs::CounterKind;
use dosco::serve::{serve_with, FaultScript, PolicySlot, PolicySnapshot, ServeConfig};
use dosco::simnet::ScenarioConfig;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

fn mlp(sizes: &[usize], seed: u64) -> Mlp {
    Mlp::new(sizes, Activation::Tanh, &mut StdRng::seed_from_u64(seed))
}

#[test]
fn a_serving_run_folds_its_report_once() {
    let scenario = ScenarioConfig::paper_base(2).with_horizon(400.0);
    let degree = scenario.topology.network_degree();
    let (obs, act) = (4 * degree + 4, degree + 1);
    let policy =
        CoordinationPolicy::new(mlp(&[obs, 24, act], 11), degree, PolicyMetadata::default());
    let snapshot = |version, seed| PolicySnapshot {
        version,
        actor: mlp(&[obs, 24, act], seed),
        critic: mlp(&[obs, 24, 1], 12),
    };
    let hub = PolicySlot::new(snapshot(0, 11));
    let v1 = Arc::new(snapshot(1, 99));

    let series = [
        CounterKind::ServeDecisions,
        CounterKind::ServeFallbacks,
        CounterKind::ServeSwaps,
    ];
    let before = series.map(counter_value);
    let cfg = ServeConfig::new(4).with_faults(FaultScript::new().kill(0, 12, 20));
    let out = serve_with(&policy, Some(&hub), &scenario, &[3, 7, 13], &cfg, |epoch| {
        if epoch == 8 {
            hub.publish(Arc::clone(&v1));
        }
    });
    let r = &out.report;
    assert!(
        r.fallback_decisions > 0,
        "the kill window falls back: {r:?}"
    );
    assert_eq!(r.swaps, 1, "{r:?}");
    let delta: Vec<u64> = series
        .iter()
        .zip(before)
        .map(|(&k, b)| counter_value(k) - b)
        .collect();
    assert_eq!(delta, [r.decisions, r.fallback_decisions, r.swaps]);
}

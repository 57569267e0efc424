//! A serving run cancelled before its horizon still folds what its
//! episodes did: each simulation adds its drops to `/metrics` when it is
//! dropped, reached horizon or not, and the fabric adds its report.
//!
//! The registry is process-global, so this is the only test in its
//! binary.

use dosco::core::policy::PolicyMetadata;
use dosco::core::CoordinationPolicy;
use dosco::nn::mlp::{Activation, Mlp};
use dosco::obs::registry::counter_value;
use dosco::obs::CounterKind;
use dosco::serve::{serve_with, ServeConfig};
use dosco::simnet::{DropReason, ScenarioConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

const DROPS: [(DropReason, CounterKind); 6] = [
    (DropReason::NodeCapacity, CounterKind::DropNodeCapacity),
    (DropReason::LinkCapacity, CounterKind::DropLinkCapacity),
    (
        DropReason::DeadlineExpired,
        CounterKind::DropDeadlineExpired,
    ),
    (DropReason::InvalidAction, CounterKind::DropInvalidAction),
    (DropReason::LinkFailure, CounterKind::DropLinkFailure),
    (DropReason::NodeFailure, CounterKind::DropNodeFailure),
];

#[test]
fn a_cancelled_serving_run_folds_its_episodes_drops() {
    let scenario = ScenarioConfig::paper_base(2).with_horizon(5_000.0);
    let degree = scenario.topology.network_degree();
    let mut rng = StdRng::seed_from_u64(4);
    let actor = Mlp::new(
        &[4 * degree + 4, 24, degree + 1],
        Activation::Tanh,
        &mut rng,
    );
    let policy = CoordinationPolicy::new(actor, degree, PolicyMetadata::default());
    let cancel = Arc::new(AtomicBool::new(false));
    let cfg = ServeConfig::new(2).with_cancel(Arc::clone(&cancel));

    let before = DROPS.map(|(_, k)| counter_value(k));
    let decisions_before = counter_value(CounterKind::ServeDecisions);
    let out = serve_with(&policy, None, &scenario, &[3, 7], &cfg, |epoch| {
        if epoch == 300 {
            cancel.store(true, Ordering::Relaxed);
        }
    });
    assert_eq!(out.report.epochs, 302, "cancelled at the next boundary");
    assert!(
        out.metrics.iter().all(|m| m.in_flight() > 0),
        "both episodes were cut short"
    );
    let mut dropped = 0;
    for (i, (reason, kind)) in DROPS.into_iter().enumerate() {
        let want: u64 = out.metrics.iter().map(|m| m.dropped_for(reason)).sum();
        assert_eq!(counter_value(kind) - before[i], want, "{reason:?}");
        dropped += want;
    }
    assert!(
        dropped > 0,
        "a random policy drops flows: {:?}",
        out.metrics
    );
    assert_eq!(
        counter_value(CounterKind::ServeDecisions) - decisions_before,
        out.report.decisions
    );
}

//! The serve epoch loop's step spans. Its own test binary, so no other
//! test shares the global `dosco_obs` registry it reads.

use dosco_core::policy::PolicyMetadata;
use dosco_core::CoordinationPolicy;
use dosco_nn::mlp::{Activation, Mlp};
use dosco_serve::{serve, FaultScript, ServeConfig};
use dosco_simnet::ScenarioConfig;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// With spans on, `serve_collect` and `serve_barrier` are each recorded
/// once per epoch that routed a decision. A kill window on the only
/// shard makes three epochs whose decisions all fall back, so the count
/// is not simply the number of epochs. Every forward observes
/// `serve_batch_size` once, and the forwards cover every batched
/// decision.
#[test]
fn phase_spans_count_the_epochs_that_routed_a_decision() {
    dosco_obs::set_spans_enabled(true);
    let scenario = ScenarioConfig::paper_base(2).with_horizon(300.0);
    let degree = scenario.topology.network_degree();
    let mut rng = StdRng::seed_from_u64(5);
    let actor = Mlp::new(
        &[4 * degree + 4, 16, degree + 1],
        Activation::Tanh,
        &mut rng,
    );
    let policy = CoordinationPolicy::new(actor, degree, PolicyMetadata::default());
    let (from, until) = (2, 5);
    let cfg = ServeConfig::new(1).with_faults(FaultScript::new().kill(0, from, until));
    let out = serve(&policy, None, &scenario, &[1, 2, 3], &cfg);
    let r = &out.report;
    assert!(r.conserved());
    assert!(r.epochs > until + 1, "the run outlasts the kill window");
    // Every epoch but the last had a decision; the kill window's were
    // answered without a shard.
    let routed = r.epochs - 1 - (until - from);
    let obs = dosco_obs::report();
    for span in ["serve_collect", "serve_barrier"] {
        assert_eq!(obs.span(span).expect(span).count, routed, "{span}");
    }
    let forwards = obs.span("serve_batch_forward").expect("forward span").count;
    let batch = obs
        .histograms
        .iter()
        .find(|h| h.name == "serve_batch_size")
        .expect("batch histogram");
    assert!(forwards >= routed);
    assert_eq!(batch.count, forwards);
    assert_eq!(batch.sum, r.batched_decisions as f64);
    assert_eq!(r.fallback_decisions, r.shard_fallback[0]);
    assert!(r.fallback_decisions >= until - from);
}

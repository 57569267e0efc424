//! Evaluation runs: deploy a policy distributedly and measure the paper's
//! success-ratio objective.

use crate::policy::{CoordinationPolicy, DistributedAgents};
use dosco_simnet::{ChurnTimeline, EventLog, Metrics, ScenarioConfig, SimEvent, Simulation};

/// Runs one full episode of `scenario` with `policy` deployed at every
/// node (greedy, fully distributed inference) and returns the metrics.
///
/// # Panics
///
/// Panics if the scenario is invalid or the policy's padded degree is
/// smaller than the scenario topology's network degree.
pub fn evaluate(policy: &CoordinationPolicy, scenario: &ScenarioConfig, seed: u64) -> Metrics {
    let mut agents = DistributedAgents::deploy(policy, scenario.topology.num_nodes());
    let mut sim = Simulation::new(scenario.clone(), seed);
    sim.run(&mut agents).clone()
}

/// Like [`evaluate`], but on a churning substrate: the compiled fault
/// `timeline` is injected into the episode, and the full event stream is
/// returned alongside the metrics so callers can build a resilience
/// report (`dosco_chaos::resilience_report`) around the fault windows.
///
/// # Panics
///
/// Panics under the same conditions as [`evaluate`].
pub fn evaluate_under_churn(
    policy: &CoordinationPolicy,
    scenario: &ScenarioConfig,
    seed: u64,
    timeline: ChurnTimeline,
) -> (Metrics, Vec<SimEvent>) {
    let agents = DistributedAgents::deploy(policy, scenario.topology.num_nodes());
    let mut log = EventLog::new(agents);
    let mut sim = Simulation::with_churn(scenario.clone(), seed, timeline);
    let metrics = sim.run(&mut log).clone();
    (metrics, log.into_events())
}

/// Like [`evaluate`], but on [`ScenarioConfig::with_capacity_draw`] of
/// `seed` — one sample of the paper's random-seed evaluation protocol, and
/// the counterpart of the training environment's per-episode capacity
/// resampling.
pub fn evaluate_with_capacity_draw(
    policy: &CoordinationPolicy,
    scenario: &ScenarioConfig,
    seed: u64,
) -> Metrics {
    evaluate(policy, &scenario.clone().with_capacity_draw(seed), seed)
}

/// Mean and standard deviation of the success ratio over `metrics`, and
/// the number of episodes they cover — the aggregation of every figure of
/// Sec. V ("mean and standard deviation over 30 random seeds").
///
/// Episodes where no flow terminated (the objective is undefined) are
/// *skipped* rather than counted as perfect 1.0, so short or empty
/// episodes cannot inflate the aggregate. If every episode is vacuous the
/// count is 0 and mean and std are `NaN` — "no data", distinguishable
/// from a genuinely perfect 1.0.
pub fn success_mean_std(metrics: &[Metrics]) -> (f64, f64, usize) {
    let ratios: Vec<f64> = metrics
        .iter()
        .filter_map(Metrics::success_ratio_opt)
        .collect();
    let n = ratios.len() as f64;
    let mean = ratios.iter().sum::<f64>() / n;
    let var = ratios.iter().map(|r| (r - mean) * (r - mean)).sum::<f64>() / n;
    (mean, var.sqrt(), ratios.len())
}

/// Evaluates over several seeds and returns [`success_mean_std`]'s
/// `(mean, std)` plus the per-seed metrics, which cover all seeds.
///
/// # Panics
///
/// Panics if `seeds` is empty (see [`evaluate`] for the other cases).
pub fn evaluate_seeds(
    policy: &CoordinationPolicy,
    scenario: &ScenarioConfig,
    seeds: &[u64],
) -> (f64, f64, Vec<Metrics>) {
    assert!(!seeds.is_empty(), "need at least one evaluation seed");
    let metrics: Vec<Metrics> = seeds
        .iter()
        .map(|&s| evaluate(policy, scenario, s))
        .collect();
    let (mean, std, _) = success_mean_std(&metrics);
    (mean, std, metrics)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::PolicyMetadata;
    use dosco_nn::{Activation, Mlp};
    use rand::SeedableRng;

    fn random_policy(degree: usize, seed: u64) -> CoordinationPolicy {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let actor = Mlp::new(&[4 * degree + 4, 8, degree + 1], Activation::Tanh, &mut rng);
        CoordinationPolicy::new(actor, degree, PolicyMetadata::default())
    }

    #[test]
    fn evaluation_is_deterministic() {
        let p = random_policy(3, 1);
        let scenario = ScenarioConfig::paper_base(2).with_horizon(400.0);
        let a = evaluate(&p, &scenario, 9);
        let b = evaluate(&p, &scenario, 9);
        assert_eq!(a, b);
        assert!(a.arrived > 0);
    }

    #[test]
    fn seed_aggregation_statistics() {
        let p = random_policy(3, 1);
        let scenario = ScenarioConfig::paper_base(1)
            .with_pattern(dosco_traffic::ArrivalPattern::paper_poisson())
            .with_horizon(400.0);
        let (mean, std, metrics) = evaluate_seeds(&p, &scenario, &[1, 2, 3, 4]);
        assert_eq!(metrics.len(), 4);
        assert!((0.0..=1.0).contains(&mean));
        assert!(std >= 0.0);
        // Mean really is the mean of the per-seed ratios.
        let expect: f64 = metrics.iter().map(Metrics::success_ratio).sum::<f64>() / 4.0;
        assert!((mean - expect).abs() < 1e-12);
    }

    /// Vacuous episodes (no flow terminated) must not count as perfect:
    /// with a horizon shorter than the first fixed arrival, every episode
    /// is vacuous and the aggregate is NaN — not an inflated 1.0.
    #[test]
    fn vacuous_episodes_do_not_inflate_the_mean() {
        let p = random_policy(3, 1);
        let scenario = ScenarioConfig::paper_base(1).with_horizon(5.0);
        let (mean, std, metrics) = evaluate_seeds(&p, &scenario, &[1, 2]);
        assert_eq!(metrics.len(), 2);
        assert!(
            metrics.iter().all(|m| m.success_ratio_opt().is_none()),
            "expected all-vacuous episodes at horizon 5.0"
        );
        assert!(mean.is_nan(), "all-vacuous mean must be NaN, got {mean}");
        assert!(std.is_nan());
    }

    #[test]
    #[should_panic(expected = "at least one evaluation seed")]
    fn rejects_empty_seed_list() {
        let p = random_policy(3, 1);
        let scenario = ScenarioConfig::paper_base(1);
        evaluate_seeds(&p, &scenario, &[]);
    }
}

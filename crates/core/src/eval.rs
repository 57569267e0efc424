//! Evaluation runs: deploy a coordinator and measure the paper's
//! success-ratio objective. [`evaluate_draws`] is the one evaluation
//! protocol, and [`EvalStats`] the one aggregate (mean ± std, Sec. V).

use crate::policy::{CoordinationPolicy, DistributedAgents};
use dosco_nn::fork::fan_out;
use dosco_simnet::{
    ChurnTimeline, Coordinator, EventLog, Metrics, ScenarioConfig, SimEvent, Simulation,
};

/// The first `k` evaluation seeds, `100..100 + k`.
pub fn eval_seeds(k: u64) -> Vec<u64> {
    (100..100 + k).collect()
}

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

/// The paper's random-seed protocol: one episode per seed on that seed's
/// [`ScenarioConfig::with_capacity_draw`] (the paper's spread over seeds
/// persists under fixed arrivals, so a seed draws the capacities as well
/// as the traffic), coordinated by what `deploy(&drawn_scenario, seed)`
/// builds. Seeds fan out over the cores ([`fan_out`]) and come back in
/// seed order, each a self-contained simulation: the serial run's result.
///
/// # Panics
///
/// Panics if `seeds` is empty, or if a drawn scenario is invalid.
pub fn evaluate_draws<F>(scenario: &ScenarioConfig, seeds: &[u64], deploy: F) -> EvalStats
where
    F: Fn(&ScenarioConfig, u64) -> Box<dyn Coordinator> + Sync,
{
    assert!(!seeds.is_empty(), "need at least one evaluation seed");
    EvalStats::from_metrics(fan_out(seeds, |&seed| {
        let drawn = scenario.clone().with_capacity_draw(seed);
        let mut coordinator = deploy(&drawn, seed);
        Simulation::new(drawn, seed)
            .run(coordinator.as_mut())
            .clone()
    }))
}

/// Aggregated evaluation results: mean ± std over episodes, as in all of
/// the paper's figures.
#[derive(Debug, Clone, PartialEq)]
pub struct EvalStats {
    /// Mean success ratio over the `scored` episodes.
    pub mean_success: f64,
    /// Standard deviation of the success ratio over the same episodes.
    pub std_success: f64,
    /// Episodes with a success ratio: those in which a flow terminated.
    pub scored: usize,
    /// Mean end-to-end delay of completed flows (Fig. 7), if any completed.
    pub mean_e2e_delay: Option<f64>,
    /// Per-episode metrics, every episode included.
    pub metrics: Vec<Metrics>,
}

impl EvalStats {
    /// Aggregates per-episode metrics. Episodes where no flow terminated
    /// (the objective is undefined) are *skipped* in the success mean/std
    /// rather than counted as perfect 1.0, so short or empty episodes
    /// cannot inflate the aggregate. If no episode has a ratio — every one
    /// is vacuous, or there are none — `scored` is 0 and mean and std are
    /// `NaN`: "no data", distinguishable from a genuinely perfect 1.0.
    pub fn from_metrics(metrics: Vec<Metrics>) -> Self {
        let ratios: Vec<f64> = metrics
            .iter()
            .filter_map(Metrics::success_ratio_opt)
            .collect();
        let n = ratios.len() as f64;
        let mean = ratios.iter().sum::<f64>() / n;
        let var = ratios.iter().map(|r| (r - mean) * (r - mean)).sum::<f64>() / n;
        let delays: Vec<f64> = metrics.iter().filter_map(Metrics::avg_e2e_delay).collect();
        let mean_e2e_delay =
            (!delays.is_empty()).then(|| delays.iter().sum::<f64>() / delays.len() as f64);
        EvalStats {
            mean_success: mean,
            std_success: var.sqrt(),
            scored: ratios.len(),
            mean_e2e_delay,
            metrics,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::PolicyMetadata;
    use dosco_nn::{Activation, Mlp};
    use dosco_simnet::DropReason;
    use rand::SeedableRng;

    fn random_policy(degree: usize, seed: u64) -> CoordinationPolicy {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let actor = Mlp::new(&[4 * degree + 4, 8, degree + 1], Activation::Tanh, &mut rng);
        CoordinationPolicy::new(actor, degree, PolicyMetadata::default())
    }

    fn greedy(
        p: &CoordinationPolicy,
    ) -> impl Fn(&ScenarioConfig, u64) -> Box<dyn Coordinator> + '_ {
        |s, _| Box::new(DistributedAgents::deploy(p, s.topology.num_nodes()))
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
    fn eval_seeds_start_at_100() {
        assert_eq!(eval_seeds(3), vec![100, 101, 102]);
        assert!(eval_seeds(0).is_empty());
    }

    /// Each seed is [`evaluate`] on that seed's capacity draw, in seed
    /// order, whichever worker ran it.
    #[test]
    fn draws_are_evaluate_on_each_seeds_capacity_draw() {
        let p = random_policy(3, 1);
        let scenario = ScenarioConfig::paper_base(2).with_horizon(300.0);
        let seeds = [7, 3, 5];
        let stats = evaluate_draws(&scenario, &seeds, greedy(&p));
        for (&seed, m) in seeds.iter().zip(&stats.metrics) {
            let drawn = scenario.clone().with_capacity_draw(seed);
            assert_eq!(*m, evaluate(&p, &drawn, seed), "seed {seed}");
        }
    }

    #[test]
    fn seed_aggregation_statistics() {
        let p = random_policy(3, 1);
        let scenario = ScenarioConfig::paper_base(1)
            .with_pattern(dosco_traffic::ArrivalPattern::paper_poisson())
            .with_horizon(400.0);
        let stats = evaluate_draws(&scenario, &[1, 2, 3, 4], greedy(&p));
        let (mean, std, metrics) = (stats.mean_success, stats.std_success, stats.metrics);
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
        let stats = evaluate_draws(&scenario, &[1, 2], greedy(&p));
        let (mean, std, metrics) = (stats.mean_success, stats.std_success, stats.metrics);
        assert_eq!(metrics.len(), 2);
        assert!(
            metrics.iter().all(|m| m.success_ratio_opt().is_none()),
            "expected all-vacuous episodes at horizon 5.0"
        );
        assert!(mean.is_nan(), "all-vacuous mean must be NaN, got {mean}");
        assert!(std.is_nan());
        assert_eq!(stats.scored, 0);
    }

    #[test]
    #[should_panic(expected = "at least one evaluation seed")]
    fn rejects_empty_seed_list() {
        let p = random_policy(3, 1);
        let scenario = ScenarioConfig::paper_base(1);
        evaluate_draws(&scenario, &[], greedy(&p));
    }

    #[test]
    fn eval_stats_aggregation() {
        let mut a = Metrics::new();
        a.arrived = 10;
        a.completed = 10;
        let mut b = Metrics::new();
        b.arrived = 10;
        b.completed = 5;
        for _ in 0..5 {
            b.record_drop(DropReason::LinkCapacity);
        }
        let stats = EvalStats::from_metrics(vec![a, b]);
        assert!((stats.mean_success - 0.75).abs() < 1e-12);
        assert!(stats.std_success > 0.2);
        assert_eq!(stats.scored, 2);
    }

    /// Vacuous episodes are excluded from the success aggregate instead
    /// of being counted as perfect 1.0.
    #[test]
    fn eval_stats_skip_vacuous_episodes() {
        let vacuous = Metrics::new(); // nothing terminated
        let mut real = Metrics::new();
        real.arrived = 4;
        real.completed = 2;
        real.record_drop(DropReason::NodeCapacity);
        real.record_drop(DropReason::NodeCapacity);
        let stats = EvalStats::from_metrics(vec![vacuous.clone(), real]);
        // Averaging in a fake 1.0 for the vacuous episode would give 0.75;
        // the defined episode alone gives 0.5.
        assert!((stats.mean_success - 0.5).abs() < 1e-12);
        assert_eq!(stats.std_success, 0.0);
        assert_eq!(stats.scored, 1);
        assert_eq!(stats.metrics.len(), 2, "raw metrics keep all episodes");
        // All-vacuous: NaN marks "no data", never a perfect score.
        let empty = EvalStats::from_metrics(vec![vacuous]);
        assert!(empty.mean_success.is_nan());
        assert!(empty.std_success.is_nan());
        assert_eq!(empty.mean_e2e_delay, None);
        // No episodes at all is "no data" too.
        let none = EvalStats::from_metrics(Vec::new());
        assert!(none.mean_success.is_nan() && none.std_success.is_nan());
        assert_eq!(none.scored, 0);
    }
}

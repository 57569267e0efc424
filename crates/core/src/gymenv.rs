//! Gym-style environment adapter over the network simulator (Fig. 5).
//!
//! One RL step = one flow decision somewhere in the network. Rewards of
//! all events since the previous decision are credited to the previous
//! action (Alg. 1 ln. 6-7): the training loop treats the sequence of
//! decisions — across flows and nodes — as a single trajectory for the
//! shared policy.

use crate::observe::ObservationAdapter;
use crate::reward::RewardConfig;
use dosco_chaos::ChurnSchedule;
use dosco_rl::env::{Env, StepResult};
use dosco_simnet::{Action, Metrics, ScenarioConfig, SimEvent, Simulation};

/// The training environment: a simulated episode of the scenario, exposing
/// flow decisions as RL steps.
///
/// Episodes restart automatically with a fresh simulator seed (derived
/// from the env's base seed and the episode counter), so parallel env
/// copies see diverse traffic.
#[derive(Debug)]
pub struct CoordEnv {
    scenario: ScenarioConfig,
    adapter: ObservationAdapter,
    reward: RewardConfig,
    sim: Simulation,
    base_seed: u64,
    episode: u64,
    /// Reward accumulated by events since the last step's action.
    diameter: f64,
    /// Recycled buffer for per-step event drains: one allocation for the
    /// env's lifetime instead of one per step.
    events_buf: Vec<SimEvent>,
    /// Re-draw node/link capacities each episode (curriculum over
    /// scenario draws; harder but matches the seeded evaluation protocol).
    resample_capacities: bool,
    /// Substrate churn injected into every episode;
    /// [`ChurnSchedule::none`] trains on a static substrate.
    churn: ChurnSchedule,
    /// Final metrics of the last episode that ran to its end.
    finished: Option<Metrics>,
}

impl CoordEnv {
    /// Creates an environment for `scenario`. The observation adapter is
    /// padded to the scenario topology's network degree unless
    /// `degree_override` asks for more (useful when a policy must transfer
    /// across topologies of different degree).
    ///
    /// # Panics
    ///
    /// Panics if the scenario is invalid or the override is smaller than
    /// the topology's degree.
    pub fn new(
        scenario: ScenarioConfig,
        reward: RewardConfig,
        base_seed: u64,
        degree_override: Option<usize>,
    ) -> Self {
        let topo_degree = scenario.topology.network_degree();
        let degree = degree_override.unwrap_or(topo_degree);
        assert!(
            degree >= topo_degree,
            "degree override {degree} below topology degree {topo_degree}"
        );
        let sim = Simulation::new(scenario.clone(), base_seed);
        let diameter = sim.diameter();
        CoordEnv {
            scenario,
            adapter: ObservationAdapter::new(degree),
            reward,
            sim,
            base_seed,
            episode: 0,
            diameter,
            events_buf: Vec::new(),
            resample_capacities: true,
            churn: ChurnSchedule::none(),
            finished: None,
        }
    }

    /// Disables the per-episode capacity re-draw: every episode uses the
    /// scenario's canonical capacities. Narrows the training distribution
    /// (easier to learn, weaker transfer across scenario draws).
    pub fn with_fixed_capacities(mut self) -> Self {
        self.resample_capacities = false;
        self
    }

    /// Injects substrate churn into every episode: the schedule is
    /// recompiled per episode with a seed derived from the episode seed,
    /// so stochastic churn varies across episodes exactly like traffic
    /// does. [`ChurnSchedule::none`] leaves the environment bit-identical
    /// to a churn-free one.
    ///
    /// # Panics
    ///
    /// Panics if the schedule does not validate against the scenario
    /// topology (see [`dosco_chaos::ChurnError`]); catching this at
    /// construction keeps the training loop itself infallible.
    pub fn with_churn(mut self, churn: ChurnSchedule) -> Self {
        if let Err(e) = churn.compile(&self.scenario.topology, self.scenario.horizon, 0) {
            panic!("invalid churn schedule: {e}");
        }
        self.churn = churn;
        self
    }

    /// Churn statistics of the current episode (`None` on a static
    /// substrate or before the first churn-enabled reset).
    pub fn churn_stats(&self) -> Option<&dosco_simnet::ChurnStats> {
        self.sim.churn_stats()
    }

    /// The observation adapter in use.
    pub fn adapter(&self) -> &ObservationAdapter {
        &self.adapter
    }

    /// Metrics of the current (possibly running) episode.
    pub fn metrics(&self) -> &Metrics {
        self.sim.metrics()
    }

    /// Final metrics of the episode whose last step returned `done`
    /// (`None` until one has): what the rewards summed over that episode
    /// must account for.
    pub fn finished_metrics(&self) -> Option<&Metrics> {
        self.finished.as_ref()
    }

    /// Starts the next episode and returns its first observation.
    /// Panics if the episode's horizon ends before its first decision.
    #[allow(clippy::expect_used, reason = "an episode needs a first decision")]
    fn fresh_sim(&mut self) -> Vec<f32> {
        self.episode += 1;
        // Spread episode seeds deterministically.
        let seed = self
            .base_seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(self.episode);
        // Re-draw the random capacity assignment each episode so the
        // learned policy generalizes over scenario draws, matching the
        // evaluation protocol (mean over random seeds incl. capacities).
        let mut scenario = self.scenario.clone();
        if self.resample_capacities {
            scenario = scenario.with_capacity_draw(seed);
        }
        // A distinct stream from the traffic/capacity seeds, so enabling
        // churn never perturbs arrivals or capacities; an empty timeline
        // is a static substrate.
        let timeline = self
            .churn
            .compile(&scenario.topology, scenario.horizon, seed ^ 0xC0A5)
            .expect("schedule validated in with_churn");
        self.sim = Simulation::with_churn(scenario, seed, timeline);
        self.sim.drain_events_into(&mut self.events_buf);
        let dp = self
            .sim
            .next_decision()
            .expect("a fresh episode must contain at least one decision");
        self.adapter.observe(&self.sim, &dp)
    }
}

impl Env for CoordEnv {
    fn obs_dim(&self) -> usize {
        self.adapter.obs_dim()
    }

    fn num_actions(&self) -> usize {
        self.adapter.num_actions()
    }

    fn reset(&mut self) -> Vec<f32> {
        self.fresh_sim()
    }

    fn step(&mut self, action: usize) -> StepResult {
        assert!(
            action < self.num_actions(),
            "action {action} outside the {}-action space",
            self.num_actions()
        );
        self.sim.apply(Action::from_index(action));
        match self.sim.next_decision() {
            Some(dp) => {
                self.sim.drain_events_into(&mut self.events_buf);
                let reward = self.reward.batch_reward(&self.events_buf, self.diameter);
                StepResult {
                    obs: self.adapter.observe(&self.sim, &dp),
                    reward,
                    done: false,
                }
            }
            None => {
                self.sim.drain_events_into(&mut self.events_buf);
                let reward = self.reward.batch_reward(&self.events_buf, self.diameter);
                self.finished = Some(self.sim.metrics().clone());
                StepResult {
                    obs: self.fresh_sim(),
                    reward,
                    done: true,
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dosco_traffic::ArrivalPattern;
    use rand::Rng;
    use rand::SeedableRng;

    fn env() -> CoordEnv {
        let scenario = dosco_simnet::ScenarioConfig::paper_base(2)
            .with_pattern(ArrivalPattern::paper_poisson())
            .with_horizon(500.0);
        CoordEnv::new(scenario, RewardConfig::default(), 1, None)
    }

    #[test]
    fn dimensions_match_abilene() {
        let e = env();
        assert_eq!(e.obs_dim(), 16); // Δ_G = 3
        assert_eq!(e.num_actions(), 4);
    }

    #[test]
    fn episodes_roll_over_with_done() {
        let mut e = env();
        let obs = e.reset();
        assert_eq!(obs.len(), 16);
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let mut dones = 0;
        for _ in 0..5_000 {
            let a = rng.gen_range(0..e.num_actions());
            let r = e.step(a);
            assert_eq!(r.obs.len(), 16);
            assert!(r.reward.is_finite());
            if r.done {
                dones += 1;
                if dones >= 2 {
                    return; // two full episodes exercised
                }
            }
        }
        panic!("episodes never terminated");
    }

    #[test]
    fn rewards_reflect_events() {
        // Deterministic fixed traffic on a 500-step horizon; every drop
        // through an invalid action yields −10 plus small shaping terms.
        let scenario = dosco_simnet::ScenarioConfig::paper_base(1).with_horizon(200.0);
        let mut e = CoordEnv::new(scenario, RewardConfig::default(), 3, None);
        e.reset();
        // Abilene v1 has 2 neighbors; action 3 is invalid -> drop (-10).
        let r = e.step(3);
        assert!(
            (r.reward - -10.0).abs() < 1.0,
            "expected ~-10 for invalid-action drop, got {}",
            r.reward
        );
    }

    #[test]
    fn degree_override_grows_spaces() {
        let scenario = dosco_simnet::ScenarioConfig::paper_base(1).with_horizon(100.0);
        let e = CoordEnv::new(scenario, RewardConfig::default(), 1, Some(7));
        assert_eq!(e.obs_dim(), 32);
        assert_eq!(e.num_actions(), 8);
    }

    #[test]
    #[should_panic(expected = "below topology degree")]
    fn rejects_small_override() {
        let scenario = dosco_simnet::ScenarioConfig::paper_base(1);
        CoordEnv::new(scenario, RewardConfig::default(), 1, Some(2));
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn rejects_out_of_range_action() {
        let mut e = env();
        e.reset();
        e.step(99);
    }

    #[test]
    fn empty_churn_schedule_is_identical() {
        let run = |mut e: CoordEnv| {
            let mut out = vec![(e.reset(), 0.0)];
            let mut rng = rand::rngs::StdRng::seed_from_u64(5);
            for _ in 0..500 {
                let a = rng.gen_range(0..e.num_actions());
                let r = e.step(a);
                out.push((r.obs, r.reward));
            }
            out
        };
        assert_eq!(run(env()), run(env().with_churn(ChurnSchedule::none())));
    }

    #[test]
    fn churn_episodes_run_and_expose_stats() {
        use dosco_chaos::StochasticChurn;
        let schedule = ChurnSchedule::none()
            .at(
                100.0,
                dosco_chaos::ChurnAction::LinkDown(dosco_topology::LinkId(0)),
            )
            .at(
                200.0,
                dosco_chaos::ChurnAction::LinkUp(dosco_topology::LinkId(0)),
            )
            .with_stochastic(StochasticChurn::default().with_node_failures(2_000.0, 100.0));
        let mut e = env().with_churn(schedule);
        assert!(e.churn_stats().is_none(), "pre-reset sim is churn-free");
        e.reset();
        let stats = *e.churn_stats().expect("churn installed on reset");
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let mut saw_done = false;
        for _ in 0..5_000 {
            let a = rng.gen_range(0..e.num_actions());
            let r = e.step(a);
            assert!(r.reward.is_finite());
            if r.done {
                saw_done = true;
                break;
            }
        }
        assert!(saw_done, "churn episode must still terminate");
        let _ = stats;
    }

    #[test]
    #[should_panic(expected = "invalid churn schedule")]
    fn rejects_bad_churn_schedule() {
        // Abilene has 14 links; link 99 is out of range.
        let schedule = ChurnSchedule::none().at(
            1.0,
            dosco_chaos::ChurnAction::LinkDown(dosco_topology::LinkId(99)),
        );
        let _ = env().with_churn(schedule);
    }
}

//! The centralized DRL baseline (Sec. V-A3, ref \[10\]).
//!
//! A single, logically centralized agent periodically observes the global
//! network state **through monitoring, and therefore delayed by one
//! monitoring interval** — exactly the weakness the paper's evaluation
//! exposes (Sec. V-B: "its centralized observations are always slightly
//! outdated — as they would be for any centralized approach in
//! practice!"). From each (stale) snapshot it emits coarse rules: one
//! placement/scheduling target node per service component. Between rule
//! updates, *all* flows follow the same rules along shortest paths; there
//! is no per-flow control, no dynamic routing, and no link-capacity
//! awareness. The rule policy is trained with DDPG
//! ([`dosco_rl::ddpg`]) over a continuous weight vector.

use dosco_nn::matrix::Matrix;
use dosco_nn::mlp::Mlp;
use dosco_rl::ddpg::{Ddpg, DdpgConfig};
use dosco_rl::env::{ContinuousEnv, StepResult};
use dosco_simnet::{Action, Coordinator, DecisionPoint, ScenarioConfig, SimEvent, Simulation};
use dosco_topology::NodeId;
use serde::{Deserialize, Serialize};

/// Configuration of the centralized baseline.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CentralConfig {
    /// Monitoring period: rules are refreshed this often, from data this
    /// stale (cf. Prometheus' default 1 min scrape interval \[29\]).
    pub monitor_interval: f64,
    /// DDPG hyperparameters for rule training.
    pub ddpg: DdpgConfig,
    /// Environment steps (= rule updates) to train for.
    pub train_steps: usize,
    /// Training seed.
    pub seed: u64,
}

impl Default for CentralConfig {
    fn default() -> Self {
        CentralConfig {
            monitor_interval: 100.0,
            ddpg: DdpgConfig {
                hidden: [64, 64],
                warmup: 64,
                batch_size: 32,
                ..DdpgConfig::default()
            },
            train_steps: 2_000,
            seed: 0,
        }
    }
}

/// Global monitoring snapshot: per-node utilization fractions in `[0, 1]`.
fn snapshot(sim: &Simulation) -> Vec<f32> {
    sim.topology()
        .node_ids()
        .map(|v| {
            let cap = sim.node_capacity(v);
            if cap <= 0.0 {
                1.0
            } else {
                (sim.node_used(v) / cap).clamp(0.0, 1.0) as f32
            }
        })
        .collect()
}

/// Decodes an action weight vector into one target node per component:
/// `target_i = argmax_v w[v·C + i]`.
fn decode_targets(weights: &[f32], num_nodes: usize, num_components: usize) -> Vec<NodeId> {
    (0..num_components)
        .map(|i| {
            let mut best = (NodeId(0), f32::NEG_INFINITY);
            for v in 0..num_nodes {
                let w = weights[v * num_components + i];
                if w > best.1 {
                    best = (NodeId(v), w);
                }
            }
            best.0
        })
        .collect()
}

/// The coarse per-flow rule: walk the shortest path to the current
/// component's target node, process there, repeat; fully processed flows
/// walk the shortest path to their egress. No capacity awareness.
fn rule_decide(sim: &Simulation, dp: &DecisionPoint, targets: &[NodeId]) -> Action {
    // The simulator decides only for live flows; a decision point whose
    // flow is gone is answered in place.
    let Some(flow) = sim.flow(dp.flow) else {
        return Action::Local;
    };
    let destination = match dp.component {
        Some(c) => targets[c.0],
        None => flow.egress,
    };
    if destination == dp.node {
        return Action::Local;
    }
    // A next hop is always a neighbor; an unreachable target fails in
    // place.
    sim.shortest_paths()
        .next_hop(dp.node, destination)
        .and_then(|hop| sim.topology().neighbor_index(dp.node, hop))
        .map_or(Action::Local, Action::Forward)
}

/// The trained centralized rule policy.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CentralPolicy {
    actor: Mlp,
    /// Monitoring period the policy was trained for.
    pub monitor_interval: f64,
    /// Number of components it schedules.
    pub num_components: usize,
    /// Number of nodes it observes.
    pub num_nodes: usize,
}

impl CentralPolicy {
    /// The rule actor network.
    pub fn actor(&self) -> &Mlp {
        &self.actor
    }

    /// Computes the component targets for a (stale) snapshot. This is the
    /// *centralized* inference step whose cost scales with the network
    /// size (Fig. 9b).
    ///
    /// # Panics
    ///
    /// Panics if `snapshot.len() != num_nodes`.
    pub fn rules_for(&self, snapshot: &[f32]) -> Vec<NodeId> {
        assert_eq!(snapshot.len(), self.num_nodes, "snapshot length mismatch");
        let out = self.actor.forward(&Matrix::row_vector(snapshot));
        let weights: Vec<f32> = out.row(0).iter().map(|&v| dosco_nn::tanh(v)).collect();
        decode_targets(&weights, self.num_nodes, self.num_components)
    }
}

/// The deployed centralized coordinator: refreshes rules every monitoring
/// interval from the *previous* interval's snapshot, then applies them to
/// every flow until the next refresh.
#[derive(Debug, Clone)]
pub struct CentralizedCoordinator {
    policy: CentralPolicy,
    targets: Vec<NodeId>,
    /// Snapshot taken at the last refresh, consumed (stale) at the next.
    pending_snapshot: Vec<f32>,
    next_update: f64,
    /// Number of rule recomputations (diagnostics).
    pub rule_updates: u64,
}

impl CentralizedCoordinator {
    /// Deploys a trained central policy.
    pub fn new(policy: CentralPolicy) -> Self {
        let targets = vec![NodeId(0); policy.num_components];
        CentralizedCoordinator {
            pending_snapshot: vec![0.0; policy.num_nodes],
            policy,
            targets,
            next_update: f64::NEG_INFINITY,
            rule_updates: 0,
        }
    }

    /// Current component targets (diagnostics).
    pub fn targets(&self) -> &[NodeId] {
        &self.targets
    }
}

impl Coordinator for CentralizedCoordinator {
    fn decide(&mut self, sim: &Simulation, dp: &DecisionPoint) -> Action {
        if dp.time >= self.next_update {
            // Rules derive from the snapshot collected at the previous
            // refresh — one monitoring interval old.
            self.targets = self.policy.rules_for(&self.pending_snapshot);
            self.pending_snapshot = snapshot(sim);
            self.next_update = dp.time + self.policy.monitor_interval;
            self.rule_updates += 1;
        }
        rule_decide(sim, dp, &self.targets)
    }
}

/// Training environment for the rule policy: one step = one monitoring
/// interval. Observations are the (stale) snapshot from the interval
/// start; the reward is `+1` per completed and `−1` per dropped flow in
/// the interval, normalized by the interval's expected arrivals.
#[derive(Debug)]
pub struct CentralRuleEnv {
    scenario: ScenarioConfig,
    monitor_interval: f64,
    sim: Simulation,
    base_seed: u64,
    episode: u64,
    num_components: usize,
}

impl CentralRuleEnv {
    /// Creates the training environment.
    ///
    /// # Panics
    ///
    /// Panics if the scenario is invalid.
    pub fn new(scenario: ScenarioConfig, monitor_interval: f64, base_seed: u64) -> Self {
        let num_components = scenario.catalog.num_components();
        let sim = Simulation::new(scenario.clone(), base_seed);
        CentralRuleEnv {
            scenario,
            monitor_interval,
            sim,
            base_seed,
            episode: 0,
            num_components,
        }
    }

    fn fresh(&mut self) -> Vec<f32> {
        self.episode += 1;
        let seed = self
            .base_seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(self.episode);
        self.sim = Simulation::new(self.scenario.clone(), seed);
        snapshot(&self.sim)
    }
}

impl ContinuousEnv for CentralRuleEnv {
    fn obs_dim(&self) -> usize {
        self.scenario.topology.num_nodes()
    }

    fn action_dim(&self) -> usize {
        self.scenario.topology.num_nodes() * self.num_components
    }

    fn reset(&mut self) -> Vec<f32> {
        self.fresh()
    }

    fn step(&mut self, action: &[f32]) -> StepResult {
        assert_eq!(action.len(), self.action_dim(), "action length mismatch");
        let targets = decode_targets(
            action,
            self.scenario.topology.num_nodes(),
            self.num_components,
        );
        // The snapshot the *next* rule update will act on: state at the
        // start of this interval (stale by one interval at use time).
        let stale_obs = snapshot(&self.sim);
        let until = self.sim.time() + self.monitor_interval;
        let mut reward = 0.0f32;
        let mut done = false;
        let mut events = Vec::new();
        loop {
            match self.sim.next_decision() {
                Some(dp) if dp.time <= until => {
                    let a = rule_decide(&self.sim, &dp, &targets);
                    self.sim.apply(a);
                }
                Some(_) => break,
                None => {
                    done = true;
                    break;
                }
            }
            self.sim.drain_events_into(&mut events);
            for ev in &events {
                match ev {
                    SimEvent::FlowCompleted { .. } => reward += 1.0,
                    SimEvent::FlowDropped { .. } => reward -= 1.0,
                    _ => {}
                }
            }
        }
        // Normalize so rewards stay O(1) regardless of the interval.
        let expected_arrivals =
            (self.monitor_interval / 10.0) as f32 * self.scenario.ingresses.len() as f32;
        reward /= expected_arrivals.max(1.0);
        let obs = if done { self.fresh() } else { stale_obs };
        StepResult { obs, reward, done }
    }
}

/// Trains the centralized baseline on a scenario with DDPG and returns
/// the deployable rule policy.
///
/// # Panics
///
/// Panics if the scenario is invalid.
pub fn train_central(scenario: &ScenarioConfig, config: &CentralConfig) -> CentralPolicy {
    #[allow(clippy::expect_used, reason = "the documented # Panics contract")]
    scenario.validate().expect("scenario must be valid");
    let mut env = CentralRuleEnv::new(scenario.clone(), config.monitor_interval, config.seed);
    let mut agent = Ddpg::new(env.obs_dim(), env.action_dim(), config.ddpg, config.seed);
    agent.train(&mut env, config.train_steps);
    CentralPolicy {
        actor: agent.actor().clone(),
        monitor_interval: config.monitor_interval,
        num_components: scenario.catalog.num_components(),
        num_nodes: scenario.topology.num_nodes(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dosco_traffic::ArrivalPattern;

    #[test]
    fn decode_targets_picks_argmax_per_component() {
        // 3 nodes x 2 components, row-major [v0c0, v0c1, v1c0, v1c1, ...].
        let w = vec![0.1, 0.9, 0.8, 0.2, 0.3, 0.5];
        let t = decode_targets(&w, 3, 2);
        assert_eq!(t, vec![NodeId(1), NodeId(0)]);
    }

    /// Utilization is measured against the *effective* capacity: halving
    /// a node's capacity doubles the utilization of an unchanged load.
    #[test]
    fn degraded_capacity_doubles_the_snapshot_of_the_same_load() {
        use dosco_simnet::{ChurnAction, ChurnTimeline};
        // Every flow is processed at its ingress whatever the capacity, so
        // both runs put the same load on that node.
        let mut cfg = ScenarioConfig::paper_base(1).with_horizon(500.0);
        cfg.topology.scale_capacities(100.0, 1.0);
        // Long flows, so later decisions find earlier ones still loaded.
        cfg.ingresses[0].profile = dosco_traffic::FlowProfile::new(1.0, 30.0, 100.0);
        let ingress = cfg.ingresses[0].node;
        let run = |timeline: ChurnTimeline| {
            let mut sim = Simulation::with_churn(cfg.clone(), 1, timeline);
            let mut utils = Vec::new();
            while sim.next_decision().is_some() {
                utils.push(snapshot(&sim)[ingress.0]);
                sim.apply(Action::Local);
            }
            utils
        };
        let nominal = run(ChurnTimeline::none());
        let halved = run(ChurnTimeline::none().at(
            0.0,
            ChurnAction::DegradeNodeCapacity {
                node: ingress,
                factor: 0.5,
            },
        ));
        assert!(nominal.iter().any(|&u| u > 0.0 && u < 0.5), "{nominal:?}");
        let doubled: Vec<f32> = nominal.iter().map(|u| 2.0 * u).collect();
        assert_eq!(halved, doubled);
    }

    #[test]
    fn rule_env_dimensions() {
        let scenario = ScenarioConfig::paper_base(2).with_horizon(500.0);
        let env = CentralRuleEnv::new(scenario, 100.0, 1);
        assert_eq!(env.obs_dim(), 11);
        assert_eq!(env.action_dim(), 33);
    }

    #[test]
    fn rule_env_episodes_terminate() {
        let scenario = ScenarioConfig::paper_base(1)
            .with_pattern(ArrivalPattern::paper_poisson())
            .with_horizon(400.0);
        let mut env = CentralRuleEnv::new(scenario, 100.0, 1);
        let obs = env.reset();
        assert_eq!(obs.len(), 11);
        let action = vec![0.0; env.action_dim()];
        let mut steps = 0;
        loop {
            let r = env.step(&action);
            steps += 1;
            assert!(r.reward.is_finite());
            if r.done {
                break;
            }
            assert!(steps < 50, "episode should end within the horizon");
        }
        // 400 time units / 100 interval = ~4-5 rule updates per episode.
        assert!((3..=6).contains(&steps), "{steps} steps");
    }

    #[test]
    fn training_produces_deployable_policy() {
        let scenario = ScenarioConfig::paper_base(1)
            .with_pattern(ArrivalPattern::paper_poisson())
            .with_horizon(300.0);
        let config = CentralConfig {
            train_steps: 80,
            ddpg: DdpgConfig {
                hidden: [8, 8],
                warmup: 16,
                batch_size: 8,
                ..DdpgConfig::default()
            },
            ..CentralConfig::default()
        };
        let policy = train_central(&scenario, &config);
        assert_eq!(policy.num_nodes, 11);
        assert_eq!(policy.num_components, 3);

        // Deploy and run a full episode.
        let mut coord = CentralizedCoordinator::new(policy);
        let mut sim = Simulation::new(scenario, 9);
        let m = sim.run(&mut coord).clone();
        assert!(m.arrived > 0);
        assert!(
            coord.rule_updates >= 3,
            "{} rule updates",
            coord.rule_updates
        );
        assert_eq!(coord.targets().len(), 3);
    }

    #[test]
    fn rules_are_stale_by_one_interval() {
        // The snapshot consumed at update k is the one collected at
        // update k-1: verify via the pending_snapshot bookkeeping.
        let scenario = ScenarioConfig::paper_base(1).with_horizon(500.0);
        let config = CentralConfig {
            train_steps: 10,
            ddpg: DdpgConfig {
                hidden: [4, 4],
                warmup: 4,
                batch_size: 2,
                ..DdpgConfig::default()
            },
            ..CentralConfig::default()
        };
        let policy = train_central(&scenario, &config);
        let mut coord = CentralizedCoordinator::new(policy);
        // Initially the pending snapshot is all-zeros (no knowledge).
        assert!(coord.pending_snapshot.iter().all(|&v| v == 0.0));
        let mut sim = Simulation::new(scenario, 2);
        if let Some(dp) = sim.next_decision() {
            let _ = coord.decide(&sim, &dp);
        }
        assert_eq!(coord.rule_updates, 1);
    }

    #[test]
    fn central_never_emits_invalid_actions() {
        let scenario = ScenarioConfig::paper_base(3)
            .with_pattern(ArrivalPattern::paper_mmpp())
            .with_horizon(1_500.0);
        let config = CentralConfig {
            train_steps: 30,
            ddpg: DdpgConfig {
                hidden: [4, 4],
                warmup: 8,
                batch_size: 4,
                ..DdpgConfig::default()
            },
            ..CentralConfig::default()
        };
        let policy = train_central(&scenario, &config);
        let mut coord = CentralizedCoordinator::new(policy);
        let mut sim = Simulation::new(scenario, 5);
        let m = sim.run(&mut coord).clone();
        assert_eq!(m.dropped_for(dosco_simnet::DropReason::InvalidAction), 0);
    }
}

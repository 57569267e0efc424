//! Distributed per-node training with optional federated averaging — the
//! design alternative of Sec. IV-C1, built out as an extension.
//!
//! The paper *argues against* giving every node its own network trained
//! only on its own experience: "agents at nodes that are seldom traversed
//! by flows would barely be trained at all, possibly leading to bad
//! policies for these nodes", and instead proposes centralized training
//! with pooled experience. It also sketches the remedy from federated
//! learning \[36\], \[37\]: train locally, periodically synchronize updates.
//! This module implements both points so the claim can be measured:
//!
//! - [`train_per_node`] trains one actor-critic per node on that node's
//!   own decisions, with *per-flow credit*: the reward of every event on a
//!   flow is attributed to the node that last acted on that flow. A node's
//!   update is the A2C rule (`dosco_rl::a2c::RmsPropStep`) over its buffer
//!   of 1-step TD targets; the collect loop is this module's own, because
//!   it interleaves every node's learner over one simulator and so is not
//!   an `Env` that `train_serial` could drive,
//! - with [`FederatedConfig::sync_interval`] set, all node networks are
//!   periodically averaged (FedAvg-style), recovering most of the pooled-
//!   experience benefit while keeping training local.
//!
//! The result deploys as [`PerNodePolicies`], a drop-in
//! [`Coordinator`] where every node runs its own (now genuinely
//! different) network.

use crate::observe::ObservationAdapter;
use crate::policy::{CoordinationPolicy, PolicyMetadata};
use crate::reward::RewardConfig;
use dosco_nn::matrix::Matrix;
use dosco_nn::mlp::Mlp;
use dosco_nn::{Activation, Categorical};
use dosco_rl::a2c::{A2cConfig, RmsPropStep};
use dosco_rl::rollout::Rollout;
use dosco_rl::trainer::Helper;
use dosco_rl::UpdateRule;
use dosco_simnet::{Action, Coordinator, DecisionPoint, FlowId, ScenarioConfig, SimEvent, Simulation};
use dosco_topology::NodeId;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Configuration for per-node training.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FederatedConfig {
    /// Total coordination decisions to train over (across all nodes).
    pub total_decisions: usize,
    /// Per-node minibatch size triggering a local update.
    pub batch_size: usize,
    /// Discount factor.
    pub gamma: f32,
    /// RMSprop learning rate for the local updates.
    pub lr: f32,
    /// Entropy bonus coefficient.
    pub ent_coef: f32,
    /// Hidden sizes of the per-node networks (small: every node trains
    /// from its own data only).
    pub hidden: [usize; 2],
    /// Average all node networks every this many decisions (FedAvg);
    /// `None` = fully independent training (the paper's strawman).
    pub sync_interval: Option<usize>,
}

impl Default for FederatedConfig {
    fn default() -> Self {
        FederatedConfig {
            total_decisions: 40_000,
            batch_size: 32,
            gamma: 0.99,
            lr: 7e-3,
            ent_coef: 0.01,
            hidden: [64, 64],
            sync_interval: Some(2_000),
        }
    }
}

/// One stored transition of a node-local learner.
#[derive(Debug, Clone)]
struct Transition {
    obs: Vec<f32>,
    action: usize,
    reward: f32,
    next_obs: Option<Vec<f32>>, // None = terminal for this flow
}

/// A node-local actor-critic learner: its own two networks, trained by
/// the A2C update rule on its own buffered transitions.
#[derive(Debug)]
struct NodeLearner {
    actor: Mlp,
    critic: Mlp,
    rule: RmsPropStep,
    buffer: Vec<Transition>,
}

impl NodeLearner {
    fn new(obs_dim: usize, num_actions: usize, cfg: &FederatedConfig, rng: &mut StdRng) -> Self {
        let actor = Mlp::new(
            &[obs_dim, cfg.hidden[0], cfg.hidden[1], num_actions],
            Activation::Tanh,
            rng,
        );
        let critic = Mlp::new(
            &[obs_dim, cfg.hidden[0], cfg.hidden[1], 1],
            Activation::Tanh,
            rng,
        );
        // The local loss weighs the value term fully and clips at 0.5;
        // the collection fields are unused (`train_per_node` collects).
        let a2c = A2cConfig {
            lr: cfg.lr,
            ent_coef: cfg.ent_coef,
            vf_coef: 1.0,
            max_grad_norm: 0.5,
            hidden: cfg.hidden,
            ..A2cConfig::default()
        };
        NodeLearner {
            rule: RmsPropStep::new(a2c, &actor, &critic),
            actor,
            critic,
            buffer: Vec::new(),
        }
    }

    /// One A2C update over the buffered transitions, as a rollout of
    /// 1-step TD targets with per-flow credit, its critic half on
    /// `helper`.
    fn update(&mut self, cfg: &FederatedConfig, rng: &mut StdRng, helper: &mut Helper) {
        let batch = self.buffer.len();
        if batch == 0 {
            return;
        }
        let mut obs = Matrix::zeros(batch, self.actor.inputs());
        for (i, t) in self.buffer.iter().enumerate() {
            obs.row_mut(i).copy_from_slice(&t.obs);
        }
        let values = self.critic.forward(&obs).as_slice().to_vec();
        // Bootstrap next-state values where the flow continued.
        let returns: Vec<f32> = self
            .buffer
            .iter()
            .map(|t| {
                let next_v = match &t.next_obs {
                    Some(o) => self.critic.forward(&Matrix::row_vector(o)).get(0, 0),
                    None => 0.0,
                };
                t.reward + cfg.gamma * next_v
            })
            .collect();
        let rewards: Vec<f32> = self.buffer.iter().map(|t| t.reward).collect();
        let mut rollout = Rollout {
            obs,
            actions: self.buffer.iter().map(|t| t.action).collect(),
            dones: self.buffer.iter().map(|t| t.next_obs.is_none()).collect(),
            advantages: returns.iter().zip(&values).map(|(r, v)| r - v).collect(),
            reward_sum: rewards.iter().sum(),
            rewards,
            values,
            returns,
            n_envs: 1,
            n_steps: batch,
        };
        // The rule takes the critic by value, to lend its half to the
        // helper thread; a node's critic is small, so it gets a copy.
        self.critic = self.rule.update(
            &mut self.actor,
            self.critic.clone(),
            &mut rollout,
            rng,
            helper,
        );
        self.buffer.clear();
    }
}

/// Averages the parameters of all learners' actors and critics in place
/// (FedAvg with equal weights).
fn fed_avg(learners: &mut [NodeLearner]) {
    let n = learners.len();
    if n < 2 {
        return;
    }
    // Average into the first, then copy out — via soft updates with
    // growing weights: avg_k = avg_{k-1} + (x_k - avg_{k-1}) / k.
    let mut avg_actor = learners[0].actor.clone();
    let mut avg_critic = learners[0].critic.clone();
    for (k, l) in learners.iter().enumerate().skip(1) {
        let tau = 1.0 / (k as f32 + 1.0);
        avg_actor.soft_update_from(&l.actor, tau);
        avg_critic.soft_update_from(&l.critic, tau);
    }
    for l in learners.iter_mut() {
        l.actor = avg_actor.clone();
        l.critic = avg_critic.clone();
    }
}

/// Per-node policies: each node deploys its own, genuinely different
/// network. Implements [`Coordinator`].
#[derive(Debug, Clone)]
pub struct PerNodePolicies {
    policies: Vec<CoordinationPolicy>,
    adapter: ObservationAdapter,
}

impl PerNodePolicies {
    /// Wraps one policy per node.
    ///
    /// # Panics
    ///
    /// Panics if `policies` is empty or degrees are inconsistent.
    pub fn new(policies: Vec<CoordinationPolicy>) -> Self {
        assert!(!policies.is_empty(), "need at least one node policy");
        let degree = policies[0].degree();
        assert!(
            policies.iter().all(|p| p.degree() == degree),
            "all node policies must share the padded degree"
        );
        PerNodePolicies {
            adapter: ObservationAdapter::new(degree),
            policies,
        }
    }

    /// The per-node policies.
    pub fn policies(&self) -> &[CoordinationPolicy] {
        &self.policies
    }
}

impl Coordinator for PerNodePolicies {
    fn decide(&mut self, sim: &Simulation, dp: &DecisionPoint) -> Action {
        let obs = self.adapter.observe(sim, dp);
        Action::from_index(self.policies[dp.node.0].act(&obs))
    }
}

/// Trains one network per node on that node's own decisions (with
/// per-flow reward credit), optionally FedAvg-synchronized. Returns the
/// deployable per-node policies.
///
/// # Panics
///
/// Panics if the scenario is invalid.
pub fn train_per_node(
    scenario: &ScenarioConfig,
    config: &FederatedConfig,
    seed: u64,
) -> PerNodePolicies {
    scenario.validate().expect("scenario must be valid");
    let degree = scenario.topology.network_degree();
    let adapter = ObservationAdapter::new(degree);
    let obs_dim = adapter.obs_dim();
    let num_actions = adapter.num_actions();
    let num_nodes = scenario.topology.num_nodes();
    let reward_cfg = RewardConfig::default();

    let mut rng = StdRng::seed_from_u64(seed);
    let mut learners: Vec<NodeLearner> = (0..num_nodes)
        .map(|_| NodeLearner::new(obs_dim, num_actions, config, &mut rng))
        .collect();
    // The learners update one at a time, so one helper serves them all.
    let mut helper = Helper::default();

    // Pending transition per flow: the node that last acted on it, its
    // observation/action, and the reward accumulated since. Ordered, so
    // the end-of-episode flush fills the buffers in flow order: row order
    // inside a batch decides the float sums of its gradient.
    let mut pending: BTreeMap<FlowId, (NodeId, Vec<f32>, usize, f32)> = BTreeMap::new();

    let mut decisions = 0usize;
    let mut episode = 0u64;
    let mut sim = Simulation::new(scenario.clone(), seed.wrapping_add(episode));
    let mut events = Vec::new();
    let diameter = sim.diameter();
    while decisions < config.total_decisions {
        let next = sim.next_decision();
        // Credit events since the last decision to the flows' last actors
        // — at the horizon too, where they include the last action's own
        // events and the terminations that followed it.
        sim.drain_events_into(&mut events);
        for ev in events.drain(..) {
            let Some(flow) = ev.flow() else { continue };
            let r = reward_cfg.event_reward(&ev, diameter);
            if let Some(p) = pending.get_mut(&flow) {
                p.3 += r;
            }
            if matches!(
                ev,
                SimEvent::FlowCompleted { .. } | SimEvent::FlowDropped { .. }
            ) {
                if let Some((node, obs, action, reward)) = pending.remove(&flow) {
                    learners[node.0].buffer.push(Transition {
                        obs,
                        action,
                        reward,
                        next_obs: None,
                    });
                }
            }
        }
        let Some(dp) = next else {
            // Episode over: flush pending flows as terminal.
            for (_, (node, obs, action, r)) in std::mem::take(&mut pending) {
                learners[node.0].buffer.push(Transition {
                    obs,
                    action,
                    reward: r,
                    next_obs: None,
                });
            }
            episode += 1;
            sim = Simulation::new(scenario.clone(), seed.wrapping_add(episode));
            continue;
        };
        let obs = adapter.observe(&sim, &dp);
        // The flow reached its next decision: close the previous pending
        // transition with this observation as the successor state.
        if let Some((node, prev_obs, action, reward)) = pending.remove(&dp.flow) {
            learners[node.0].buffer.push(Transition {
                obs: prev_obs,
                action,
                reward,
                next_obs: Some(obs.clone()),
            });
        }
        // The owning node's agent acts (stochastic during training).
        let learner = &mut learners[dp.node.0];
        let dist = Categorical::new(&learner.actor.forward(&Matrix::row_vector(&obs)));
        let action = dist.sample(&mut rng)[0];
        pending.insert(dp.flow, (dp.node, obs, action, 0.0));
        sim.apply(Action::from_index(action));
        decisions += 1;

        // Local updates when a node's buffer fills.
        if learners[dp.node.0].buffer.len() >= config.batch_size {
            learners[dp.node.0].update(config, &mut rng, &mut helper);
        }
        // Periodic federated synchronization.
        if let Some(interval) = config.sync_interval {
            if decisions.is_multiple_of(interval) {
                fed_avg(&mut learners);
            }
        }
    }

    let policies = learners
        .into_iter()
        .enumerate()
        .map(|(i, l)| {
            CoordinationPolicy::new(
                l.actor,
                degree,
                PolicyMetadata {
                    scenario: format!("{} node v{}", scenario.topology.name(), i + 1),
                    algorithm: if config.sync_interval.is_some() {
                        "per-node+fedavg".into()
                    } else {
                        "per-node".into()
                    },
                    seed,
                    score: 0.0,
                    total_steps: config.total_decisions,
                },
            )
        })
        .collect();
    PerNodePolicies::new(policies)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dosco_traffic::ArrivalPattern;

    fn toy_config() -> FederatedConfig {
        FederatedConfig {
            total_decisions: 1_500,
            batch_size: 16,
            hidden: [8, 8],
            sync_interval: Some(400),
            ..FederatedConfig::default()
        }
    }

    #[test]
    fn trains_and_deploys_per_node_policies() {
        let scenario = ScenarioConfig::paper_base(2)
            .with_pattern(ArrivalPattern::paper_poisson())
            .with_horizon(600.0);
        let policies = train_per_node(&scenario, &toy_config(), 1);
        assert_eq!(policies.policies().len(), 11);
        assert_eq!(policies.policies()[0].metadata.algorithm, "per-node+fedavg");
        // Deploy as a coordinator.
        let mut coordinator = policies.clone();
        let mut sim = Simulation::new(scenario, 9);
        let m = sim.run(&mut coordinator).clone();
        assert!(m.arrived > 0);
        assert_eq!(m.arrived, m.completed + m.dropped_total() + m.in_flight());
    }

    #[test]
    fn fedavg_makes_networks_identical() {
        let scenario = ScenarioConfig::paper_base(1).with_horizon(400.0);
        let mut cfg = toy_config();
        cfg.total_decisions = 800;
        cfg.sync_interval = Some(800); // sync exactly at the end
        let policies = train_per_node(&scenario, &cfg, 2);
        // After a final sync, all actors agree on any observation.
        let obs = vec![0.1f32; policies.policies()[0].adapter().obs_dim()];
        let first = policies.policies()[0].act(&obs);
        for p in policies.policies() {
            assert_eq!(p.act(&obs), first);
        }
    }

    #[test]
    fn independent_training_diverges_across_nodes() {
        let scenario = ScenarioConfig::paper_base(2)
            .with_pattern(ArrivalPattern::paper_poisson())
            .with_horizon(600.0);
        let mut cfg = toy_config();
        cfg.sync_interval = None;
        let policies = train_per_node(&scenario, &cfg, 3);
        assert_eq!(policies.policies()[0].metadata.algorithm, "per-node");
        // Ingress nodes trained; some pair of nodes must disagree
        // somewhere: sample a few observations.
        let dim = policies.policies()[0].adapter().obs_dim();
        let mut diverged = false;
        'outer: for t in 0..50 {
            let obs: Vec<f32> = (0..dim)
                .map(|i| ((t * 31 + i * 7) % 19) as f32 / 9.5 - 1.0)
                .collect();
            let first = policies.policies()[0].act(&obs);
            for p in &policies.policies()[1..] {
                if p.act(&obs) != first {
                    diverged = true;
                    break 'outer;
                }
            }
        }
        assert!(diverged, "independent nets should differ");
    }

    /// `fed_avg` computes the exact equal-weight parameter mean: every
    /// learner ends with (numerically) the element-wise average of all
    /// actors/critics, and all learners end bitwise-identical.
    #[test]
    fn fed_avg_averages_parameters_exactly() {
        let cfg = FederatedConfig {
            hidden: [4, 4],
            ..FederatedConfig::default()
        };
        let mut rng = StdRng::seed_from_u64(7);
        let mut learners: Vec<NodeLearner> =
            (0..3).map(|_| NodeLearner::new(3, 2, &cfg, &mut rng)).collect();
        let n = learners.len() as f32;
        let mut expected_actor = vec![0.0f32; learners[0].actor.flat_params().len()];
        let mut expected_critic = vec![0.0f32; learners[0].critic.flat_params().len()];
        for l in &learners {
            for (e, p) in expected_actor.iter_mut().zip(l.actor.flat_params()) {
                *e += p / n;
            }
            for (e, p) in expected_critic.iter_mut().zip(l.critic.flat_params()) {
                *e += p / n;
            }
        }
        fed_avg(&mut learners);
        for (e, p) in expected_actor.iter().zip(learners[0].actor.flat_params()) {
            assert!((e - p).abs() < 1e-5, "actor mean off: {e} vs {p}");
        }
        for (e, p) in expected_critic.iter().zip(learners[0].critic.flat_params()) {
            assert!((e - p).abs() < 1e-5, "critic mean off: {e} vs {p}");
        }
        for l in &learners[1..] {
            assert_eq!(l.actor.flat_params(), learners[0].actor.flat_params());
            assert_eq!(l.critic.flat_params(), learners[0].critic.flat_params());
        }
    }

    /// A sync landing exactly on the final decision leaves every node with
    /// bitwise-identical parameters (stronger than agreeing actions).
    #[test]
    fn end_sync_makes_parameters_bitwise_identical() {
        let scenario = ScenarioConfig::paper_base(1).with_horizon(400.0);
        let mut cfg = toy_config();
        cfg.total_decisions = 600;
        cfg.sync_interval = Some(600);
        let policies = train_per_node(&scenario, &cfg, 5);
        let first = policies.policies()[0].actor().flat_params();
        for p in &policies.policies()[1..] {
            assert_eq!(p.actor().flat_params(), first);
        }
    }

    /// Without a sync interval the nodes never exchange parameters: their
    /// networks stay pairwise different.
    #[test]
    fn no_sync_interval_leaves_parameters_independent() {
        let scenario = ScenarioConfig::paper_base(1).with_horizon(400.0);
        let mut cfg = toy_config();
        cfg.total_decisions = 600;
        cfg.sync_interval = None;
        let policies = train_per_node(&scenario, &cfg, 5);
        let first = policies.policies()[0].actor().flat_params();
        assert!(
            policies.policies()[1..]
                .iter()
                .all(|p| p.actor().flat_params() != first),
            "independently trained/initialized nodes must not share parameters"
        );
    }

    #[test]
    #[should_panic(expected = "at least one node policy")]
    fn rejects_empty_policy_list() {
        PerNodePolicies::new(vec![]);
    }
}

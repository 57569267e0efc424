//! The benchmark's inputs. `--seed` drives the traffic (every episode
//! seed) and the churn timeline; the initialisation of the policy and of
//! the training agent is a constant of the benchmark ([`INIT_SEED`]).
//!
//! A forward pass does the same arithmetic whatever the weights, but what
//! it costs follows them all the same: the weights decide the actions, the
//! actions decide which states the episode visits, and `tanh` is faster on
//! saturated and on tiny arguments than in between. Six seed-derived
//! initialisations gave a `decision_p50_us` of 15.4–19.6 µs on
//! `decide-abilene`; one initialisation over the same six traffic seeds
//! gave 15.5–15.9 µs.

use dosco_core::policy::PolicyMetadata;
use dosco_core::CoordinationPolicy;
use dosco_nn::Mlp;
use dosco_simnet::service::{Component, ComponentId, Service, ServiceCatalog, ServiceId};
use dosco_simnet::{Action, IngressSpec, ScenarioConfig, Simulation};
use dosco_topology::{generators, NodeId};
use dosco_traffic::{ArrivalPattern, FlowProfile};
use rand::SeedableRng;

/// The paper's §V-A1 base scenario: Abilene, two ingress nodes, Poisson
/// arrivals.
pub fn abilene(horizon: f64) -> ScenarioConfig {
    ScenarioConfig::paper_base(2)
        .with_pattern(ArrivalPattern::paper_poisson())
        .with_horizon(horizon)
}

/// Initialisation seed of the benchmark's policy and training agent.
pub const INIT_SEED: u64 = 0xD05C0;

/// The benchmark's policy: a random network of the paper's architecture
/// (256×256), the same in every run.
pub fn random_policy(scenario: &ScenarioConfig) -> CoordinationPolicy {
    let degree = scenario.topology.network_degree();
    let mut rng = rand::rngs::StdRng::seed_from_u64(INIT_SEED);
    let actor = Mlp::paper_arch(4 * degree + 4, degree + 1, &mut rng);
    CoordinationPolicy::new(actor, degree, PolicyMetadata::default())
}

/// The first `n` observations of an episode of `scenario` under `policy`.
pub fn record_observations(
    scenario: &ScenarioConfig,
    policy: &CoordinationPolicy,
    seed: u64,
    n: usize,
) -> Vec<Vec<f32>> {
    let adapter = policy.adapter();
    let mut sim = Simulation::new(scenario.clone(), seed);
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        let Some(dp) = sim.next_decision() else { break };
        let obs = adapter.observe(&sim, &dp);
        sim.apply(Action::from_index(policy.act(&obs)));
        out.push(obs);
    }
    assert_eq!(out.len(), n, "episode too short to record {n} observations");
    out
}

/// The flow-lifecycle stress scenario on a 10×10 grid: every node is an
/// ingress with Poisson arrivals of mean `interval` toward the node two
/// ids over, and the single component holds each flow for `dwell` time
/// units, so about `100 / interval · dwell` flows are live at steady
/// state. Flows have zero rate and zero demand and the deadline is
/// effectively infinite, so on a static substrate nothing drops and the
/// run measures the event queue, the flow slab and the coordinator.
/// Instances idle out after `2 · interval`, which keeps the timeout
/// push/cancel path busy.
pub fn grid(interval: f64, dwell: f64, horizon: f64) -> ScenarioConfig {
    let topology = generators::grid(10, 10, 1.0, 1.0);
    let n = topology.num_nodes();
    let component = Component {
        name: "Hold".to_string(),
        processing_delay: dwell,
        resource_per_rate: 0.0,
        resource_fixed: 0.0,
        startup_delay: 0.0,
        idle_timeout: 2.0 * interval,
    };
    let service = Service {
        name: "hold-chain".to_string(),
        chain: vec![ComponentId(0)],
    };
    let catalog =
        ServiceCatalog::new(vec![component], vec![service]).expect("one-component catalog");
    let ingresses = (0..n)
        .map(|v| IngressSpec {
            node: NodeId(v),
            pattern: ArrivalPattern::Poisson { mean: interval },
            service: ServiceId(0),
            egress: NodeId((v + 2) % n),
            profile: FlowProfile::new(0.0, 1.0, 1e12),
        })
        .collect();
    let cfg = ScenarioConfig {
        topology,
        catalog,
        ingresses,
        horizon,
        hold_delay: 1.0,
        capacity_seed: 0,
    };
    cfg.validate().expect("grid scenario is valid");
    cfg
}

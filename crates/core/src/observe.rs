//! The POMDP observation adapter (Sec. IV-B1).
//!
//! Each agent observes only the incoming flow, its own node, and its
//! direct neighbors. All components are normalized to `[-1, 1]` (or
//! `[0, 1]`) and padded with dummy entries (−1) to the network degree
//! `Δ_G`, so observation and action spaces have identical size at every
//! node and experience from all agents can train one shared network.
//!
//! Layout (dimension `4·Δ_G + 4`):
//!
//! | slice | size | content |
//! |---|---|---|
//! | `F_f` | 2 | chain progress `p̂_f`, remaining deadline fraction `τ̂_f` |
//! | `R^L` | `Δ_G` | free outgoing-link rate minus `λ_f`, normalized |
//! | `R^V` | `Δ_G + 1` | free compute (self, then neighbors) minus `r_c(λ_f)`, normalized |
//! | `D` | `Δ_G` | slack of shortest-path delay to egress via each neighbor |
//! | `X` | `Δ_G + 1` | instance of `c_f` available (self, then neighbors) |

use dosco_simnet::{DecisionPoint, Simulation};

/// Builds observation vectors for DRL agents from local simulator state.
///
/// The adapter is stateless apart from the network degree it was sized
/// for; one instance serves every node (Fig. 5).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ObservationAdapter {
    degree: usize,
}

impl ObservationAdapter {
    /// Creates an adapter padded to network degree `degree` (usually
    /// [`dosco_topology::Topology::network_degree`] of the training
    /// topology; a larger value allows transfer to denser networks).
    ///
    /// # Panics
    ///
    /// Panics if `degree == 0`.
    pub fn new(degree: usize) -> Self {
        assert!(degree > 0, "network degree must be positive");
        ObservationAdapter { degree }
    }

    /// The padded network degree `Δ_G`.
    pub fn degree(&self) -> usize {
        self.degree
    }

    /// Observation vector length: `4·Δ_G + 4`.
    pub fn obs_dim(&self) -> usize {
        4 * self.degree + 4
    }

    /// Action space size: `Δ_G + 1` (local + one per possible neighbor).
    pub fn num_actions(&self) -> usize {
        self.degree + 1
    }

    /// Builds the observation for a pending decision.
    ///
    /// # Panics
    ///
    /// Panics if the node's degree exceeds the adapter's padding degree,
    /// or if the decision's flow is no longer live.
    pub fn observe(&self, sim: &Simulation, dp: &DecisionPoint) -> Vec<f32> {
        let mut obs = Vec::with_capacity(self.obs_dim());
        self.observe_into(sim, dp, &mut obs);
        obs
    }

    /// [`ObservationAdapter::observe`] into `obs`, which is cleared first:
    /// a caller that keeps the buffer decides without allocating.
    ///
    /// # Panics
    ///
    /// As [`ObservationAdapter::observe`].
    pub fn observe_into(&self, sim: &Simulation, dp: &DecisionPoint, obs: &mut Vec<f32>) {
        #[allow(clippy::expect_used, reason = "the documented # Panics contract")]
        let flow = sim
            .flow(dp.flow)
            .expect("decision points refer to live flows");
        let topo = sim.topology();
        let neighbors = topo.neighbors(dp.node);
        assert!(
            neighbors.len() <= self.degree,
            "node {} has {} neighbors, adapter padded to {}",
            dp.node,
            neighbors.len(),
            self.degree
        );
        obs.clear();

        // --- F_f: flow attributes (Sec. IV-B1a).
        obs.push(flow.progress() as f32);
        obs.push(flow.remaining_fraction(dp.time) as f32);

        // --- R^L: link utilization (Sec. IV-B1b). Free rate minus λ_f,
        // normalized by the max outgoing link capacity; ≥ 0 iff the link
        // can carry the flow.
        let max_link_cap = topo.max_outgoing_link_capacity(dp.node).max(1e-12);
        for &(_, l) in neighbors {
            let v = (sim.link_free(l) - flow.rate) / max_link_cap;
            obs.push(clamp1(v));
        }
        for _ in neighbors.len()..self.degree {
            obs.push(-1.0);
        }

        // --- R^V: node utilization (Sec. IV-B1c). Free compute minus
        // r_{c_f}(λ_f), normalized by the max capacity over *all* nodes so
        // agents can spot high-absolute-capacity neighbors.
        let demand = sim.requested_resources(dp.flow);
        let max_node_cap = topo.max_node_capacity().max(1e-12);
        obs.push(clamp1((sim.node_free(dp.node) - demand) / max_node_cap));
        for &(n, _) in neighbors {
            obs.push(clamp1((sim.node_free(n) - demand) / max_node_cap));
        }
        for _ in neighbors.len()..self.degree {
            obs.push(-1.0);
        }

        // --- D: delays to egress (Sec. IV-B1d). Slack of the shortest
        // path via each neighbor relative to the remaining deadline; < 0
        // means forwarding that way cannot succeed anymore.
        let remaining = flow.remaining_time(dp.time);
        // `shortest_paths` and `link_delay` track the current topology
        // version under substrate churn (the path table is repaired in
        // place at every churn epoch), so the slack below never reads a
        // stale path through a dead link.
        let sp = sim.shortest_paths();
        for &(n, l) in neighbors {
            let path_delay = sim.link_delay(l) + sp.delay(n, flow.egress);
            let v = if remaining <= 0.0 {
                -1.0
            } else {
                ((remaining - path_delay) / remaining).max(-1.0)
            };
            obs.push(v as f32);
        }
        for _ in neighbors.len()..self.degree {
            obs.push(-1.0);
        }

        // --- X: available instances of c_f (Sec. IV-B1e); always 0 when
        // the flow is fully processed.
        match dp.component {
            Some(c) => {
                obs.push(if sim.has_instance(dp.node, c) {
                    1.0
                } else {
                    0.0
                });
                for &(n, _) in neighbors {
                    obs.push(if sim.has_instance(n, c) { 1.0 } else { 0.0 });
                }
            }
            None => {
                obs.extend(std::iter::repeat_n(0.0, neighbors.len() + 1));
            }
        }
        for _ in neighbors.len()..self.degree {
            obs.push(-1.0);
        }

        debug_assert_eq!(obs.len(), self.obs_dim());
    }
}

fn clamp1(v: f64) -> f32 {
    v.clamp(-1.0, 1.0) as f32
}

#[cfg(test)]
mod tests {
    use super::*;
    use dosco_simnet::coordinator::RandomCoordinator;
    use dosco_simnet::{Action, Coordinator, ScenarioConfig, Simulation};
    use dosco_traffic::ArrivalPattern;

    fn sim() -> Simulation {
        let cfg = ScenarioConfig::paper_base(3)
            .with_pattern(ArrivalPattern::paper_poisson())
            .with_horizon(2_000.0);
        Simulation::new(cfg, 42)
    }

    /// Like [`sim`] but with node capacities large enough that local
    /// processing never drops (for tests that need flows to progress).
    fn roomy_sim() -> Simulation {
        let mut cfg = ScenarioConfig::paper_base(3)
            .with_pattern(ArrivalPattern::paper_poisson())
            .with_horizon(2_000.0);
        cfg.topology.scale_capacities(100.0, 1.0);
        Simulation::new(cfg, 42)
    }

    #[test]
    fn dimensions_follow_degree() {
        let a = ObservationAdapter::new(3);
        assert_eq!(a.obs_dim(), 16);
        assert_eq!(a.num_actions(), 4);
        let b = ObservationAdapter::new(20);
        assert_eq!(b.obs_dim(), 84);
        assert_eq!(b.num_actions(), 21);
    }

    #[test]
    fn observations_bounded_and_fixed_size() {
        let mut s = sim();
        let adapter = ObservationAdapter::new(s.network_degree());
        let mut rc = RandomCoordinator::new(1);
        let mut count = 0;
        while let Some(dp) = s.next_decision() {
            let obs = adapter.observe(&s, &dp);
            assert_eq!(obs.len(), adapter.obs_dim());
            for (i, &v) in obs.iter().enumerate() {
                assert!((-1.0..=1.0).contains(&v), "obs[{i}] = {v}");
                assert!(v.is_finite());
            }
            count += 1;
            let a = rc.decide(&s, &dp);
            s.apply(a);
        }
        assert!(count > 100, "exercised {count} decisions");
    }

    #[test]
    fn progress_and_deadline_start_fresh() {
        let mut s = sim();
        let dp = s.next_decision().unwrap();
        let adapter = ObservationAdapter::new(s.network_degree());
        let obs = adapter.observe(&s, &dp);
        // A flow at its ingress: no progress, full deadline budget.
        assert_eq!(obs[0], 0.0);
        assert_eq!(obs[1], 1.0);
    }

    #[test]
    fn progress_increases_after_processing() {
        let mut s = roomy_sim();
        let dp = s.next_decision().unwrap();
        let flow = dp.flow;
        s.apply(Action::Local);
        // Advance until the same flow's next decision (post-processing).
        let adapter = ObservationAdapter::new(s.network_degree());
        while let Some(dp) = s.next_decision() {
            if dp.flow == flow {
                let obs = adapter.observe(&s, &dp);
                assert!((obs[0] - 1.0 / 3.0).abs() < 1e-6, "progress {}", obs[0]);
                assert!(obs[1] < 1.0, "deadline fraction should have decreased");
                return;
            }
            s.apply(Action::Local);
        }
        panic!("flow never reached a second decision");
    }

    #[test]
    fn instance_slot_reflects_placement() {
        let mut s = roomy_sim();
        let dp = s.next_decision().unwrap();
        let adapter = ObservationAdapter::new(s.network_degree());
        let deg = adapter.degree();
        let x_self_idx = 2 + deg + (deg + 1) + deg; // first X slot
        let before = adapter.observe(&s, &dp);
        assert_eq!(before[x_self_idx], 0.0, "no instance placed yet");
        let node = dp.node;
        let comp = dp.component.unwrap();
        s.apply(Action::Local);
        assert!(s.has_instance(node, comp));
        // Find the next decision at the same node for the same component.
        while let Some(dp2) = s.next_decision() {
            if dp2.node == node && dp2.component == Some(comp) {
                let after = adapter.observe(&s, &dp2);
                assert_eq!(after[x_self_idx], 1.0, "instance should be visible");
                return;
            }
            s.apply(Action::Local);
        }
        panic!("no further decision at the ingress node");
    }

    #[test]
    fn dummy_neighbors_are_minus_one() {
        // Several Abilene nodes have 2 neighbors; padded to Δ_G = 3, the
        // last R^L slot at such a node must be the dummy −1. Advance to
        // the first decision at a degree-2 node (which node decides first
        // depends on the arrival RNG stream).
        let mut s = sim();
        let dp = loop {
            let dp = s.next_decision().expect("a degree-2 node decides");
            if s.topology().degree(dp.node) == 2 {
                break dp;
            }
            s.apply(Action::Local);
        };
        let adapter = ObservationAdapter::new(3);
        let obs = adapter.observe(&s, &dp);
        // R^L occupies obs[2..5]; slot for the non-existent 3rd neighbor:
        assert_eq!(obs[4], -1.0);
        // D occupies obs[2 + 3 + 4 .. 2 + 3 + 4 + 3] = obs[9..12].
        assert_eq!(obs[11], -1.0);
        // X occupies obs[12..16]; dummy at the end.
        assert_eq!(obs[15], -1.0);
    }

    #[test]
    #[should_panic(expected = "padded to")]
    fn rejects_too_small_degree() {
        let mut s = sim();
        let dp = s.next_decision().unwrap();
        // All Abilene nodes have ≥ 2 neighbors; a degree-1 adapter must
        // refuse rather than emit wrong shapes.
        let adapter = ObservationAdapter::new(1);
        let _ = adapter.observe(&s, &dp);
    }
}

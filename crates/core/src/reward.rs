//! The shaped reward function (Sec. IV-B3).
//!
//! The sparse main signal is +10 for a completed flow and −10 for a
//! dropped flow. To make early training tractable, weaker shaping signals
//! are added: `+1/n_{s_f}` when a flow traverses an instance, `−d_l/D_G`
//! when a flow is sent over link `l`, and `−1/D_G` when a fully processed
//! flow is held at a node. The shaping terms are deliberately small
//! relative to the terminal rewards.

use dosco_simnet::SimEvent;
use serde::{Deserialize, Serialize};

/// Reward coefficients. Defaults are the paper's values.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RewardConfig {
    /// Reward for a successfully completed flow (paper: +10).
    pub completion: f32,
    /// Reward for a dropped flow (paper: −10).
    pub drop: f32,
    /// Scale of the per-instance progress bonus `+scale/n_s` (paper: 1).
    pub traversal_scale: f32,
    /// Scale of the per-hop penalty `−scale·d_l/D_G` (paper: 1).
    pub hop_scale: f32,
    /// Scale of the idle-hold penalty `−scale/D_G` (paper: 1).
    pub hold_scale: f32,
}

impl Default for RewardConfig {
    fn default() -> Self {
        RewardConfig {
            completion: 10.0,
            drop: -10.0,
            traversal_scale: 1.0,
            hop_scale: 1.0,
            hold_scale: 1.0,
        }
    }
}

impl RewardConfig {
    /// A sparse-only variant (shaping off) for the reward-shaping ablation.
    pub fn sparse_only() -> Self {
        RewardConfig {
            traversal_scale: 0.0,
            hop_scale: 0.0,
            hold_scale: 0.0,
            ..RewardConfig::default()
        }
    }

    /// The reward contributed by one simulator event. `diameter` is the
    /// network delay diameter `D_G` used to normalize hop/hold penalties.
    pub fn event_reward(&self, event: &SimEvent, diameter: f64) -> f32 {
        let d = diameter.max(1e-12) as f32;
        match event {
            SimEvent::FlowCompleted { .. } => self.completion,
            SimEvent::FlowDropped { .. } => self.drop,
            SimEvent::InstanceTraversed { service_len, .. } => {
                self.traversal_scale / (*service_len).max(1) as f32
            }
            SimEvent::Forwarded { link_delay, .. } => -self.hop_scale * (*link_delay as f32) / d,
            SimEvent::Held { .. } => -self.hold_scale / d,
            SimEvent::FlowArrived { .. }
            | SimEvent::InstanceStarted { .. }
            | SimEvent::InstanceStopped { .. }
            | SimEvent::ChurnApplied { .. } => 0.0,
        }
    }

    /// Sums the rewards of a batch of events (the reward credited to the
    /// previous action in Alg. 1 ln. 6-7).
    pub fn batch_reward(&self, events: &[SimEvent], diameter: f64) -> f32 {
        events.iter().map(|e| self.event_reward(e, diameter)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dosco_simnet::{DropReason, FlowId};
    use dosco_topology::{LinkId, NodeId};

    fn completed() -> SimEvent {
        SimEvent::FlowCompleted {
            flow: FlowId(0),
            time: 1.0,
            e2e_delay: 5.0,
            node: NodeId(0),
        }
    }

    #[test]
    fn terminal_rewards() {
        let r = RewardConfig::default();
        assert_eq!(r.event_reward(&completed(), 10.0), 10.0);
        let dropped = SimEvent::FlowDropped {
            flow: FlowId(0),
            time: 1.0,
            reason: DropReason::LinkCapacity,
            node: NodeId(0),
        };
        assert_eq!(r.event_reward(&dropped, 10.0), -10.0);
    }

    #[test]
    fn shaping_rewards_scale_correctly() {
        let r = RewardConfig::default();
        let traversed = SimEvent::InstanceTraversed {
            flow: FlowId(0),
            node: NodeId(0),
            component: dosco_simnet::ComponentId(0),
            service_len: 4,
            time: 0.0,
        };
        assert_eq!(r.event_reward(&traversed, 10.0), 0.25);
        let forwarded = SimEvent::Forwarded {
            flow: FlowId(0),
            from: NodeId(0),
            to: NodeId(1),
            link: LinkId(0),
            link_delay: 2.0,
            time: 0.0,
        };
        assert_eq!(r.event_reward(&forwarded, 10.0), -0.2);
        let held = SimEvent::Held {
            flow: FlowId(0),
            node: NodeId(0),
            time: 0.0,
        };
        assert_eq!(r.event_reward(&held, 10.0), -0.1);
    }

    #[test]
    fn shaping_is_much_smaller_than_terminals() {
        // Sec. IV-B3: auxiliary rewards must stay well below ±10; in
        // particular, traversing the full chain (sum = +1) must be worth
        // far less than completing (+10).
        let r = RewardConfig::default();
        let per_chain = r.traversal_scale;
        assert!(per_chain * 5.0 < r.completion);
        // Max hop penalty (a diameter-long link) is −1, well above −10.
        let max_hop = SimEvent::Forwarded {
            flow: FlowId(0),
            from: NodeId(0),
            to: NodeId(1),
            link: LinkId(0),
            link_delay: 10.0,
            time: 0.0,
        };
        assert!(r.event_reward(&max_hop, 10.0) > r.drop / 5.0);
    }

    #[test]
    fn neutral_events_are_zero() {
        let r = RewardConfig::default();
        let arrived = SimEvent::FlowArrived {
            flow: FlowId(0),
            node: NodeId(0),
            time: 0.0,
        };
        assert_eq!(r.event_reward(&arrived, 10.0), 0.0);
    }

    #[test]
    fn batch_reward_sums() {
        let r = RewardConfig::default();
        let held = SimEvent::Held {
            flow: FlowId(0),
            node: NodeId(0),
            time: 0.0,
        };
        let batch = vec![completed(), held.clone(), held];
        assert!((r.batch_reward(&batch, 10.0) - 9.8).abs() < 1e-6);
        assert_eq!(r.batch_reward(&[], 10.0), 0.0);
    }

    #[test]
    fn sparse_only_disables_shaping() {
        let r = RewardConfig::sparse_only();
        let held = SimEvent::Held {
            flow: FlowId(0),
            node: NodeId(0),
            time: 0.0,
        };
        assert_eq!(r.event_reward(&held, 10.0), 0.0);
        assert_eq!(r.event_reward(&completed(), 10.0), 10.0);
    }
}

//! The simulator's public event stream.
//!
//! The scheduler behind it — the cancellable radix-heap event queue —
//! lives in [`crate::queue`].

use crate::flow::{FlowId, FlowKey};
use crate::service::ComponentId;
use dosco_topology::{LinkId, NodeId};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Why a flow was dropped (Sec. III / IV-B2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum DropReason {
    /// Processing the flow would exceed the node's compute capacity.
    NodeCapacity,
    /// Forwarding the flow would exceed the link's data-rate capacity.
    LinkCapacity,
    /// The flow's deadline `τ_f` expired.
    DeadlineExpired,
    /// The agent selected a non-existing neighbor (action `a > |V_v|`).
    InvalidAction,
    /// The link carrying the flow failed mid-transit (substrate churn,
    /// [`crate::churn::TransitPolicy::Drop`]).
    LinkFailure,
    /// The node holding (or processing) the flow failed, or the flow
    /// arrived at a node while it was down (substrate churn).
    NodeFailure,
}

impl DropReason {
    /// All drop reasons, for iteration in metrics reports.
    pub const ALL: [DropReason; 6] = [
        DropReason::NodeCapacity,
        DropReason::LinkCapacity,
        DropReason::DeadlineExpired,
        DropReason::InvalidAction,
        DropReason::LinkFailure,
        DropReason::NodeFailure,
    ];
}

impl fmt::Display for DropReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DropReason::NodeCapacity => "node-capacity",
            DropReason::LinkCapacity => "link-capacity",
            DropReason::DeadlineExpired => "deadline-expired",
            DropReason::InvalidAction => "invalid-action",
            DropReason::LinkFailure => "link-failure",
            DropReason::NodeFailure => "node-failure",
        };
        f.write_str(s)
    }
}

/// Public notifications emitted by the simulator, consumed by reward
/// functions (Sec. IV-B3), metrics, and logging.
///
/// All times are absolute simulation times.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum SimEvent {
    /// A new flow entered the network at its ingress.
    FlowArrived {
        /// The flow.
        flow: FlowId,
        /// Ingress node.
        node: NodeId,
        /// Arrival time.
        time: f64,
    },
    /// A flow departed successfully at its egress within its deadline.
    FlowCompleted {
        /// The flow.
        flow: FlowId,
        /// Completion time.
        time: f64,
        /// End-to-end delay `d_f = t_f^out − t_f^in`.
        e2e_delay: f64,
        /// The node where the last action on this flow was taken.
        node: NodeId,
    },
    /// A flow was dropped.
    FlowDropped {
        /// The flow.
        flow: FlowId,
        /// Drop time.
        time: f64,
        /// Why.
        reason: DropReason,
        /// The node responsible for (or observing) the drop.
        node: NodeId,
    },
    /// A flow finished processing at an instance (basis for the `+1/n_s`
    /// shaping reward).
    InstanceTraversed {
        /// The flow.
        flow: FlowId,
        /// Hosting node.
        node: NodeId,
        /// The traversed component.
        component: ComponentId,
        /// Length of the flow's service chain `n_{s_f}`.
        service_len: usize,
        /// Completion time of the processing.
        time: f64,
    },
    /// A flow was forwarded over a link (basis for the `−d_l / D_G`
    /// shaping penalty).
    Forwarded {
        /// The flow.
        flow: FlowId,
        /// Sending node.
        from: NodeId,
        /// Receiving neighbor.
        to: NodeId,
        /// The link used.
        link: LinkId,
        /// The link's propagation delay `d_l`.
        link_delay: f64,
        /// Forwarding time.
        time: f64,
    },
    /// A fully processed flow was held at a node for one time step (basis
    /// for the `−1 / D_G` shaping penalty).
    Held {
        /// The flow.
        flow: FlowId,
        /// The holding node.
        node: NodeId,
        /// Hold time.
        time: f64,
    },
    /// A new component instance was placed (`x_{c,v} := 1`).
    InstanceStarted {
        /// Hosting node.
        node: NodeId,
        /// Component.
        component: ComponentId,
        /// Placement time.
        time: f64,
    },
    /// An idle component instance was removed after its timeout.
    InstanceStopped {
        /// Hosting node.
        node: NodeId,
        /// Component.
        component: ComponentId,
        /// Removal time.
        time: f64,
    },
    /// A substrate churn action (failure, repair, degradation, delay
    /// spike) was applied. Only emitted when the simulation runs with a
    /// non-empty [`crate::churn::ChurnTimeline`].
    ChurnApplied {
        /// What changed.
        action: crate::churn::ChurnAction,
        /// The topology version after applying it (monotonic from 1).
        topo_version: u64,
        /// Application time.
        time: f64,
    },
}

impl SimEvent {
    /// The flow this event concerns, if any.
    pub fn flow(&self) -> Option<FlowId> {
        match self {
            SimEvent::FlowArrived { flow, .. }
            | SimEvent::FlowCompleted { flow, .. }
            | SimEvent::FlowDropped { flow, .. }
            | SimEvent::InstanceTraversed { flow, .. }
            | SimEvent::Forwarded { flow, .. }
            | SimEvent::Held { flow, .. } => Some(*flow),
            SimEvent::InstanceStarted { .. }
            | SimEvent::InstanceStopped { .. }
            | SimEvent::ChurnApplied { .. } => None,
        }
    }
}

/// A component instance's place, as queued events carry it: the node id
/// narrowed to `u32` and the component id to `u16`. The simulation checks
/// that its scenario's ids fit once, when it accepts the scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct InstanceAt {
    node: u32,
    component: u16,
}

impl InstanceAt {
    /// The instance of `component` at `node`.
    pub(crate) fn new(node: NodeId, component: ComponentId) -> Self {
        InstanceAt {
            node: node.0 as u32,
            component: component.0 as u16,
        }
    }

    /// The hosting node.
    pub(crate) fn node(self) -> NodeId {
        NodeId(self.node as usize)
    }

    /// The component.
    pub(crate) fn component(self) -> ComponentId {
        ComponentId(self.component.into())
    }
}

/// Internal scheduler events, 24 bytes each, so a queue slot is 32.
/// Flow-addressed events carry the dense [`FlowKey`] (slab handle), not
/// the public [`FlowId`], so dispatching them is a bounds check plus a
/// generation compare — no hashing. Link ids and ingress indices are
/// `u32`, narrowed like [`InstanceAt`]'s ids.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum QueuedEvent {
    /// The `idx`-th ingress spec generates its next flow.
    Arrival { ingress_idx: u32 },
    /// A flow's head is at a node and needs a coordination decision.
    Decision { flow: FlowKey },
    /// A flow finishes processing its current component.
    ProcessingDone { flow: FlowKey, at: InstanceAt },
    /// Node resources reserved for a flow's processing are released (the
    /// flow's tail has left the instance). `epoch` is the node's churn
    /// epoch at reservation time: if the node failed in between, the
    /// release is stale (its capacity was already reclaimed wholesale)
    /// and is skipped.
    ReleaseNode {
        at: InstanceAt,
        amount: f64,
        epoch: u32,
    },
    /// Link capacity reserved for a flow traversal is released. `epoch`
    /// guards staleness across link failures, like `ReleaseNode`.
    ReleaseLink { link: u32, amount: f64, epoch: u32 },
    /// Check whether an instance has been idle for its full timeout.
    InstanceTimeout { at: InstanceAt },
    /// Apply one entry of the churn timeline.
    Churn { action: crate::churn::PackedAction },
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drop_reason_display() {
        assert_eq!(DropReason::NodeCapacity.to_string(), "node-capacity");
        assert_eq!(DropReason::LinkFailure.to_string(), "link-failure");
        assert_eq!(DropReason::NodeFailure.to_string(), "node-failure");
        assert_eq!(DropReason::ALL.len(), 6);
    }

    #[test]
    fn sim_event_flow_accessor() {
        let e = SimEvent::FlowArrived {
            flow: FlowId(3),
            node: NodeId(0),
            time: 0.0,
        };
        assert_eq!(e.flow(), Some(FlowId(3)));
        let e2 = SimEvent::InstanceStarted {
            node: NodeId(0),
            component: ComponentId(0),
            time: 0.0,
        };
        assert_eq!(e2.flow(), None);
    }
}

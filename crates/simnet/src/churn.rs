//! Substrate churn: link/node failures, repairs, capacity degradation,
//! and delay spikes as first-class simulation events.
//!
//! The simulator consumes a [`ChurnTimeline`] — a time-sorted script of
//! [`ChurnAction`]s — through its own event queue, so churn interleaves
//! deterministically with arrivals, decisions, and releases. Timelines
//! are usually *compiled* from a higher-level `dosco_chaos::ChurnSchedule`
//! (scripted entries plus seeded stochastic MTBF/MTTR generators); this
//! module only defines the mechanics the engine itself needs.
//!
//! The hard contract: an empty timeline ([`ChurnTimeline::none`]) leaves
//! the simulator bit-identical to the churn-free goldens — no extra queue
//! entries, no RNG draws, and a substrate whose every effective value is
//! the topology's nominal float (pinned by the `simcore_goldens` suite).

use crate::event::{DropReason, SimEvent};
use dosco_topology::{LinkId, NodeId, Topology};
use serde::{Deserialize, Serialize};
use std::fmt;

/// One substrate mutation, applied at a scheduled simulation time.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ChurnAction {
    /// The link fails: capacity drops to zero and (under
    /// [`TransitPolicy::Drop`]) flows whose head is in transit on it are
    /// dropped with [`crate::DropReason::LinkFailure`].
    LinkDown(LinkId),
    /// The link is repaired: nominal capacity and delay are restored and
    /// any degradation factor is reset.
    LinkUp(LinkId),
    /// The node fails: flows at (or processing on) it are dropped with
    /// [`crate::DropReason::NodeFailure`], every instance it hosts is
    /// lost with its reserved capacity, and arrivals routed to it die on
    /// entry while it stays down.
    NodeDown(NodeId),
    /// The node is repaired: nominal capacity restored, instances *not*
    /// resurrected (the node comes back empty).
    NodeUp(NodeId),
    /// Scales the link's effective capacity to `factor × nominal`
    /// (`factor` in `[0, 1]` degrades, `1.0` restores).
    DegradeLinkCapacity {
        /// The degraded link.
        link: LinkId,
        /// Multiplier on the nominal capacity.
        factor: f64,
    },
    /// Scales the node's effective compute capacity to
    /// `factor × nominal`.
    DegradeNodeCapacity {
        /// The degraded node.
        node: NodeId,
        /// Multiplier on the nominal capacity.
        factor: f64,
    },
    /// Scales the link's effective propagation delay to
    /// `factor × nominal` (`1.0` restores). Invalidates the shortest-path
    /// table: routing baselines and the observation adapter's
    /// delays-to-egress see the spiked delay immediately.
    DelaySpike {
        /// The spiked link.
        link: LinkId,
        /// Multiplier on the nominal delay.
        factor: f64,
    },
}

impl ChurnAction {
    /// Stable kebab-case label used in traces and reports.
    pub fn label(&self) -> &'static str {
        match self {
            ChurnAction::LinkDown(_) => "link-down",
            ChurnAction::LinkUp(_) => "link-up",
            ChurnAction::NodeDown(_) => "node-down",
            ChurnAction::NodeUp(_) => "node-up",
            ChurnAction::DegradeLinkCapacity { .. } => "degrade-link",
            ChurnAction::DegradeNodeCapacity { .. } => "degrade-node",
            ChurnAction::DelaySpike { .. } => "delay-spike",
        }
    }

    /// The targeted entity's dense id (link or node index).
    pub fn target(&self) -> u64 {
        match self {
            ChurnAction::LinkDown(l)
            | ChurnAction::LinkUp(l)
            | ChurnAction::DegradeLinkCapacity { link: l, .. }
            | ChurnAction::DelaySpike { link: l, .. } => l.0 as u64,
            ChurnAction::NodeDown(v)
            | ChurnAction::NodeUp(v)
            | ChurnAction::DegradeNodeCapacity { node: v, .. } => v.0 as u64,
        }
    }

    /// The degradation/spike factor, if this action carries one.
    pub fn factor(&self) -> Option<f64> {
        match self {
            ChurnAction::DegradeLinkCapacity { factor, .. }
            | ChurnAction::DegradeNodeCapacity { factor, .. }
            | ChurnAction::DelaySpike { factor, .. } => Some(*factor),
            _ => None,
        }
    }

    /// Whether applying this action can change reachability or path
    /// delays (and therefore invalidates the shortest-path table).
    /// Capacity-only degradation does not.
    pub fn affects_routing(&self) -> bool {
        !matches!(
            self,
            ChurnAction::DegradeLinkCapacity { .. } | ChurnAction::DegradeNodeCapacity { .. }
        )
    }
}

impl fmt::Display for ChurnAction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChurnAction::LinkDown(l) => write!(f, "link-down {l}"),
            ChurnAction::LinkUp(l) => write!(f, "link-up {l}"),
            ChurnAction::NodeDown(v) => write!(f, "node-down {v}"),
            ChurnAction::NodeUp(v) => write!(f, "node-up {v}"),
            ChurnAction::DegradeLinkCapacity { link, factor } => {
                write!(f, "degrade-link {link} ×{factor}")
            }
            ChurnAction::DegradeNodeCapacity { node, factor } => {
                write!(f, "degrade-node {node} ×{factor}")
            }
            ChurnAction::DelaySpike { link, factor } => {
                write!(f, "delay-spike {link} ×{factor}")
            }
        }
    }
}

/// A [`ChurnAction`] as the event queue carries it: 16 bytes where the
/// action is 24, so a scheduled churn entry is no larger than the other
/// queued events. [`PackedAction::unpack`] returns the packed action bit
/// for bit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct PackedAction {
    /// The action's factor, `0.0` for the kinds that carry none.
    factor: f64,
    /// The node or link index: the simulation admits only topologies whose
    /// ids fit in `u32`.
    target: u32,
    kind: ActionKind,
}

/// [`ChurnAction`]'s variants without their fields.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ActionKind {
    LinkDown,
    LinkUp,
    NodeDown,
    NodeUp,
    DegradeLinkCapacity,
    DegradeNodeCapacity,
    DelaySpike,
}

impl PackedAction {
    /// Packs `action`, whose target must fit in `u32`.
    pub(crate) fn pack(action: ChurnAction) -> Self {
        let kind = match action {
            ChurnAction::LinkDown(_) => ActionKind::LinkDown,
            ChurnAction::LinkUp(_) => ActionKind::LinkUp,
            ChurnAction::NodeDown(_) => ActionKind::NodeDown,
            ChurnAction::NodeUp(_) => ActionKind::NodeUp,
            ChurnAction::DegradeLinkCapacity { .. } => ActionKind::DegradeLinkCapacity,
            ChurnAction::DegradeNodeCapacity { .. } => ActionKind::DegradeNodeCapacity,
            ChurnAction::DelaySpike { .. } => ActionKind::DelaySpike,
        };
        PackedAction {
            factor: action.factor().unwrap_or(0.0),
            target: action.target() as u32,
            kind,
        }
    }

    /// The action [`PackedAction::pack`] was given.
    pub(crate) fn unpack(self) -> ChurnAction {
        let (link, node) = (LinkId(self.target as usize), NodeId(self.target as usize));
        let factor = self.factor;
        match self.kind {
            ActionKind::LinkDown => ChurnAction::LinkDown(link),
            ActionKind::LinkUp => ChurnAction::LinkUp(link),
            ActionKind::NodeDown => ChurnAction::NodeDown(node),
            ActionKind::NodeUp => ChurnAction::NodeUp(node),
            ActionKind::DegradeLinkCapacity => ChurnAction::DegradeLinkCapacity { link, factor },
            ActionKind::DegradeNodeCapacity => ChurnAction::DegradeNodeCapacity { node, factor },
            ActionKind::DelaySpike => ChurnAction::DelaySpike { link, factor },
        }
    }
}

/// What happens to flows whose head is in transit on a link when it
/// fails.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum TransitPolicy {
    /// In-transit flows are dropped with
    /// [`crate::DropReason::LinkFailure`] (the default; matches the
    /// fluid model, where the cut stream cannot be buffered).
    #[default]
    Drop,
    /// In-transit flows still reach the far endpoint (the failure is
    /// treated as striking after the in-flight packets clear).
    Deliver,
}

/// A compiled, time-sorted churn script ready for
/// [`crate::Simulation::with_churn`].
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct ChurnTimeline {
    entries: Vec<(f64, ChurnAction)>,
    transit: TransitPolicy,
}

impl ChurnTimeline {
    /// The empty timeline: the simulator behaves bit-identically to a
    /// churn-free run.
    pub fn none() -> Self {
        ChurnTimeline::default()
    }

    /// Builds a timeline from `(time, action)` entries, sorting them by
    /// time (stable, so equal-time entries keep their given order).
    ///
    /// # Panics
    ///
    /// Panics if any entry time is NaN or negative.
    pub fn new(mut entries: Vec<(f64, ChurnAction)>) -> Self {
        for (t, a) in &entries {
            assert!(
                t.is_finite() && *t >= 0.0,
                "churn time {t} for {a} must be finite and ≥ 0"
            );
        }
        entries.sort_by(|a, b| a.0.total_cmp(&b.0));
        ChurnTimeline {
            entries,
            transit: TransitPolicy::default(),
        }
    }

    /// Appends one entry, keeping the timeline time-sorted.
    ///
    /// # Panics
    ///
    /// Panics if `time` is NaN or negative.
    #[must_use]
    pub fn at(mut self, time: f64, action: ChurnAction) -> Self {
        assert!(
            time.is_finite() && time >= 0.0,
            "churn time {time} for {action} must be finite and ≥ 0"
        );
        let pos = self
            .entries
            .partition_point(|(t, _)| t.total_cmp(&time) != std::cmp::Ordering::Greater);
        self.entries.insert(pos, (time, action));
        self
    }

    /// Sets the in-transit policy for link failures.
    #[must_use]
    pub fn with_transit(mut self, transit: TransitPolicy) -> Self {
        self.transit = transit;
        self
    }

    /// The in-transit policy for link failures.
    pub fn transit(&self) -> TransitPolicy {
        self.transit
    }

    /// The time-sorted entries.
    pub fn entries(&self) -> &[(f64, ChurnAction)] {
        &self.entries
    }

    /// Number of scheduled churn events.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the timeline schedules nothing (the bit-identity path).
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Checks every entry against the topology it will be replayed on.
    ///
    /// # Panics
    ///
    /// Panics if an entry targets a node/link outside `topo` or carries a
    /// non-finite/negative factor.
    pub(crate) fn assert_fits(&self, topo: &Topology) {
        for &(t, action) in &self.entries {
            let target = action.target() as usize;
            let in_range = match action {
                ChurnAction::NodeDown(_)
                | ChurnAction::NodeUp(_)
                | ChurnAction::DegradeNodeCapacity { .. } => target < topo.num_nodes(),
                _ => target < topo.num_links(),
            };
            assert!(
                in_range,
                "churn action `{action}` at t={t} targets an entity outside the topology"
            );
            if let Some(f) = action.factor() {
                assert!(
                    f.is_finite() && f >= 0.0,
                    "churn action `{action}` factor must be finite and ≥ 0"
                );
            }
        }
    }
}

/// Counters the simulator keeps while a churn timeline is active
/// (deliberately *outside* [`crate::Metrics`], whose serialized shape is
/// pinned by the golden suite).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ChurnStats {
    /// Churn events applied so far (== the topology version).
    pub events_applied: u64,
    /// Link failures applied.
    pub link_downs: u64,
    /// Link repairs applied.
    pub link_ups: u64,
    /// Node failures applied.
    pub node_downs: u64,
    /// Node repairs applied.
    pub node_ups: u64,
    /// Capacity degradations applied (links + nodes).
    pub degrades: u64,
    /// Delay spikes applied.
    pub delay_spikes: u64,
    /// Flows killed because their carrying link failed.
    pub flows_killed_link: u64,
    /// Flows killed because their hosting node failed (including flows
    /// arriving at a node while it is down).
    pub flows_killed_node: u64,
    /// Instances lost with failed nodes (their reserved capacity is
    /// reclaimed atomically with the failure).
    pub instances_lost: u64,
    /// Path-table updates: routing-affecting churn events applied,
    /// regardless of decision count. An update repairs each row in place
    /// (only the rows and nodes the changed links reach do any work); no
    /// row is recomputed unless a weight is too small to order the search.
    /// The name is kept because serialized counters carry it.
    pub sp_recomputes: u64,
}

impl ChurnStats {
    /// Counts one event, as [`crate::Metrics::record`] does. Every field
    /// is the fold of the stream but [`ChurnStats::instances_lost`]: a
    /// lost instance's `InstanceStopped` looks like an idle timeout's, so
    /// the simulator counts it where it applies the fault.
    #[inline]
    pub fn record(&mut self, event: &SimEvent) {
        match *event {
            SimEvent::ChurnApplied { action, .. } => {
                match action {
                    ChurnAction::LinkDown(_) => self.link_downs += 1,
                    ChurnAction::LinkUp(_) => self.link_ups += 1,
                    ChurnAction::NodeDown(_) => self.node_downs += 1,
                    ChurnAction::NodeUp(_) => self.node_ups += 1,
                    ChurnAction::DegradeLinkCapacity { .. }
                    | ChurnAction::DegradeNodeCapacity { .. } => self.degrades += 1,
                    ChurnAction::DelaySpike { .. } => self.delay_spikes += 1,
                }
                self.events_applied += 1;
                self.sp_recomputes += u64::from(action.affects_routing());
            }
            SimEvent::FlowDropped {
                reason: DropReason::LinkFailure,
                ..
            } => self.flows_killed_link += 1,
            SimEvent::FlowDropped {
                reason: DropReason::NodeFailure,
                ..
            } => self.flows_killed_node += 1,
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_packed_action_unpacks_to_itself() {
        let actions = [
            ChurnAction::LinkDown(LinkId(7)),
            ChurnAction::LinkUp(LinkId(0)),
            ChurnAction::NodeDown(NodeId(3)),
            ChurnAction::NodeUp(NodeId(u32::MAX as usize - 1)),
            ChurnAction::DegradeLinkCapacity {
                link: LinkId(2),
                factor: 0.1,
            },
            ChurnAction::DegradeNodeCapacity {
                node: NodeId(5),
                factor: 0.0,
            },
            ChurnAction::DelaySpike {
                link: LinkId(1),
                factor: 1e-300,
            },
        ];
        for action in actions {
            let back = PackedAction::pack(action).unpack();
            assert_eq!(back, action);
            assert_eq!(
                back.factor().map(f64::to_bits),
                action.factor().map(f64::to_bits)
            );
        }
        assert_eq!(std::mem::size_of::<PackedAction>(), 16);
    }

    #[test]
    fn timeline_sorts_and_builds() {
        let t = ChurnTimeline::new(vec![
            (5.0, ChurnAction::LinkUp(LinkId(0))),
            (1.0, ChurnAction::LinkDown(LinkId(0))),
        ]);
        assert_eq!(t.len(), 2);
        assert_eq!(t.entries()[0], (1.0, ChurnAction::LinkDown(LinkId(0))));
        assert_eq!(t.entries()[1], (5.0, ChurnAction::LinkUp(LinkId(0))));
        assert!(!t.is_empty());
        assert!(ChurnTimeline::none().is_empty());
    }

    #[test]
    fn at_keeps_sorted_order_with_stable_ties() {
        let t = ChurnTimeline::none()
            .at(2.0, ChurnAction::NodeDown(NodeId(1)))
            .at(1.0, ChurnAction::LinkDown(LinkId(0)))
            .at(2.0, ChurnAction::NodeUp(NodeId(1)));
        let times: Vec<f64> = t.entries().iter().map(|(t, _)| *t).collect();
        assert_eq!(times, vec![1.0, 2.0, 2.0]);
        // Equal-time entries keep insertion order.
        assert_eq!(t.entries()[1].1, ChurnAction::NodeDown(NodeId(1)));
        assert_eq!(t.entries()[2].1, ChurnAction::NodeUp(NodeId(1)));
    }

    #[test]
    #[should_panic(expected = "must be finite")]
    fn rejects_nan_time() {
        let _ = ChurnTimeline::none().at(f64::NAN, ChurnAction::LinkDown(LinkId(0)));
    }

    #[test]
    fn action_labels_targets_factors() {
        let a = ChurnAction::DegradeLinkCapacity {
            link: LinkId(3),
            factor: 0.5,
        };
        assert_eq!(a.label(), "degrade-link");
        assert_eq!(a.target(), 3);
        assert_eq!(a.factor(), Some(0.5));
        assert!(!a.affects_routing());
        let b = ChurnAction::NodeDown(NodeId(2));
        assert_eq!(b.label(), "node-down");
        assert_eq!(b.target(), 2);
        assert_eq!(b.factor(), None);
        assert!(b.affects_routing());
        assert!(ChurnAction::DelaySpike {
            link: LinkId(0),
            factor: 2.0
        }
        .affects_routing());
        assert_eq!(b.to_string(), "node-down v2");
    }

    #[test]
    fn serde_round_trip() {
        let t = ChurnTimeline::new(vec![(
            1.0,
            ChurnAction::DelaySpike {
                link: LinkId(1),
                factor: 3.0,
            },
        )])
        .with_transit(TransitPolicy::Deliver);
        let json = serde_json::to_string(&t).unwrap();
        let back: ChurnTimeline = serde_json::from_str(&json).unwrap();
        assert_eq!(t, back);
    }
}

//! Flows: the unit of traffic and decision-making (Sec. III-A).

use crate::service::ServiceId;
use dosco_topology::{LinkId, NodeId};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::num::NonZeroU32;

/// Identifier of a flow `f ∈ F`, unique within one simulation run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct FlowId(pub u64);

impl fmt::Display for FlowId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "f{}", self.0)
    }
}

/// Dense generational handle to a live flow's slot in the simulator's
/// flow slab ([`crate::slab::Slab`]).
///
/// [`FlowId`] is the *stable public id* — sequential, serialized into
/// events and traces, never reused within a run. `FlowKey` is the
/// *storage handle*: resolving it is a bounds check plus a generation
/// compare (no hashing), and the slot is recycled once the flow
/// terminates. Internal scheduler events address flows by key; all
/// public surfaces keep the id.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FlowKey(pub(crate) crate::slab::SlotKey);

impl FlowKey {
    /// The underlying slab slot key (diagnostics).
    pub fn slot(self) -> crate::slab::SlotKey {
        self.0
    }
}

impl fmt::Display for FlowKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "k{}", self.0)
    }
}

/// A live flow: `f = (s_f, c_f, v_f^in, v_f^eg, λ_f, t_f^in, δ_f, τ_f)`
/// plus its runtime position (current node and progress within the chain).
///
/// A by-value view: the simulator stores a 32-byte record per live flow
/// and builds this from it, its ingress spec and the catalog on each
/// [`crate::Simulation::flow`] call.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Flow {
    /// Unique id.
    pub id: FlowId,
    /// The requested service `s_f`.
    pub service: ServiceId,
    /// Ingress node `v_f^in` where the flow entered.
    pub ingress: NodeId,
    /// Egress node `v_f^eg` the flow must reach.
    pub egress: NodeId,
    /// Data rate `λ_f`.
    pub rate: f64,
    /// Arrival time `t_f^in`.
    pub arrival: f64,
    /// Duration `δ_f` (transmission time of the whole flow).
    pub duration: f64,
    /// Deadline `τ_f`, relative to arrival.
    pub deadline: f64,
    /// Number of chain components already traversed (0 = none; equal to the
    /// chain length means fully processed, `c_f = ∅`).
    pub chain_pos: usize,
    /// Total chain length `n_{s_f}` (cached from the catalog).
    pub chain_len: usize,
    /// The node where the flow's head currently is (or is headed to while
    /// traversing a link).
    pub location: NodeId,
    /// Dense index of the link the head is crossing towards
    /// [`Flow::location`]; `None` while it waits or is processed there.
    pub(crate) in_transit: Option<u32>,
}

/// What the simulator's flow slab keeps per live flow: the fields that
/// vary, and the ingress spec the constant ones come from. 32 bytes where
/// a [`Flow`] is 96, and `Option<FlowRecord>` is free through the spec
/// index's niche.
///
/// Every `u32` here was bounded once, when the simulation accepted its
/// scenario: node and link ids, chain positions and spec indices all fit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct FlowRecord {
    pub(crate) id: FlowId,
    /// Arrival time `t_f^in`.
    pub(crate) arrival: f64,
    /// [`Flow::location`].
    pub(crate) location: u32,
    /// The link the head is crossing, [`FlowRecord::NOT_IN_TRANSIT`] while
    /// it waits or is processed at `location`. Together with `location`
    /// this is all a failure needs to find its victims.
    pub(crate) in_transit: u32,
    /// [`Flow::chain_pos`].
    pub(crate) chain_pos: u32,
    /// Index of the flow's ingress spec, plus one.
    spec: NonZeroU32,
}

impl FlowRecord {
    /// `in_transit` of a head that is not crossing a link.
    pub(crate) const NOT_IN_TRANSIT: u32 = u32::MAX;

    /// A flow just spawned by ingress spec `spec` at `location`.
    pub(crate) fn new(id: FlowId, arrival: f64, location: u32, spec: u32) -> Self {
        FlowRecord {
            id,
            arrival,
            location,
            in_transit: Self::NOT_IN_TRANSIT,
            chain_pos: 0,
            spec: NonZeroU32::MIN.saturating_add(spec),
        }
    }

    /// Index of the flow's ingress spec in [`crate::ScenarioConfig::ingresses`].
    pub(crate) fn spec(&self) -> usize {
        self.spec.get() as usize - 1
    }

    /// The node the head is at, or headed to.
    pub(crate) fn location(&self) -> NodeId {
        NodeId(self.location as usize)
    }

    /// The link the head is crossing, if any.
    pub(crate) fn in_transit(&self) -> Option<u32> {
        (self.in_transit != Self::NOT_IN_TRANSIT).then_some(self.in_transit)
    }

    /// Whether the flow's head is crossing link `l` right now.
    pub(crate) fn in_transit_on(&self, l: LinkId) -> bool {
        self.in_transit as usize == l.0
    }
}

impl Flow {
    /// Progress within the service chain, `p̂_f ∈ [0, 1]` (Sec. IV-B1a).
    pub fn progress(&self) -> f64 {
        if self.chain_len == 0 {
            1.0
        } else {
            self.chain_pos as f64 / self.chain_len as f64
        }
    }

    /// Whether all chain components have been traversed (`c_f = ∅`).
    pub fn fully_processed(&self) -> bool {
        self.chain_pos >= self.chain_len
    }

    /// Remaining time until the deadline at time `t`:
    /// `τ_f^t = τ_f − (t − t_f^in)`, clamped at 0 (Sec. III-A).
    pub fn remaining_time(&self, t: f64) -> f64 {
        (self.deadline - (t - self.arrival)).max(0.0)
    }

    /// Normalized remaining time `τ̂_f = τ_f^t / τ_f ∈ [0, 1]`
    /// (Sec. IV-B1a).
    pub fn remaining_fraction(&self, t: f64) -> f64 {
        if self.deadline <= 0.0 {
            0.0
        } else {
            (self.remaining_time(t) / self.deadline).clamp(0.0, 1.0)
        }
    }

    /// Whether the deadline has expired at time `t`.
    pub fn expired(&self, t: f64) -> bool {
        t - self.arrival > self.deadline
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flow() -> Flow {
        Flow {
            id: FlowId(1),
            service: ServiceId(0),
            ingress: NodeId(0),
            egress: NodeId(7),
            rate: 1.0,
            arrival: 100.0,
            duration: 1.0,
            deadline: 50.0,
            chain_pos: 0,
            chain_len: 3,
            location: NodeId(0),
            in_transit: None,
        }
    }

    #[test]
    fn progress_walks_zero_to_one() {
        let mut f = flow();
        assert_eq!(f.progress(), 0.0);
        f.chain_pos = 1;
        assert!((f.progress() - 1.0 / 3.0).abs() < 1e-12);
        f.chain_pos = 3;
        assert_eq!(f.progress(), 1.0);
        assert!(f.fully_processed());
    }

    #[test]
    fn remaining_time_decreases_and_clamps() {
        let f = flow();
        assert_eq!(f.remaining_time(100.0), 50.0);
        assert_eq!(f.remaining_time(130.0), 20.0);
        assert_eq!(f.remaining_time(151.0), 0.0);
        assert_eq!(f.remaining_fraction(100.0), 1.0);
        assert_eq!(f.remaining_fraction(125.0), 0.5);
        assert_eq!(f.remaining_fraction(200.0), 0.0);
    }

    #[test]
    fn expiry_is_strict() {
        let f = flow();
        assert!(!f.expired(150.0)); // exactly at the deadline: still ok
        assert!(f.expired(150.0 + 1e-9));
    }

    #[test]
    fn id_display() {
        use crate::service::ComponentId;
        assert_eq!(ComponentId(2).to_string(), "c2");
        assert_eq!(FlowId(9).to_string(), "f9");
    }
}

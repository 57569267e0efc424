//! The substrate's run-time state (Sec. III-A): reservations `r_v(t)`,
//! `r_l(t)` and the *effective* `cap_v`, `cap_l`, `d_l` behind them.
//!
//! There is one substrate, not a static one and a churned one: a run
//! without a churn timeline is the same data with every entity up and
//! every effective value equal to the topology's nominal float, which is
//! what keeps it bit-identical to the churn-free goldens.

use crate::churn::{ChurnAction, TransitPolicy};
use dosco_topology::Topology;

/// Id-indexed substrate state. The simulator's flow lifecycle reads all of
/// it and writes only `*_used`; [`Substrate::apply`] is the single writer
/// of the rest and keeps a down entity's capacity at `0.0`.
#[derive(Debug)]
pub(crate) struct Substrate {
    pub(crate) node_used: Vec<f64>,
    pub(crate) link_used: Vec<f64>,
    pub(crate) node_cap: Vec<f64>,
    pub(crate) link_cap: Vec<f64>,
    pub(crate) link_delay: Vec<f64>,
    pub(crate) node_up: Vec<bool>,
    pub(crate) link_up: Vec<bool>,
    /// Failure epochs: bumped when an entity fails, so resource releases
    /// reserved *before* the failure are recognized as stale — their
    /// capacity was already reclaimed wholesale with the failure. One bump
    /// per timeline entry at most, and a simulation admits no timeline
    /// longer than `u32::MAX` entries.
    pub(crate) node_epoch: Vec<u32>,
    pub(crate) link_epoch: Vec<u32>,
    /// Churn actions applied so far (the topology version).
    pub(crate) version: u64,
    /// What a link failure does to the flows in transit on it.
    pub(crate) transit: TransitPolicy,
}

impl Substrate {
    /// The nominal substrate of `topo`: nothing reserved, everything up.
    pub(crate) fn new(topo: &Topology, transit: TransitPolicy) -> Self {
        let (n, m) = (topo.num_nodes(), topo.num_links());
        Substrate {
            node_used: vec![0.0; n],
            link_used: vec![0.0; m],
            node_cap: topo.node_capacities().collect(),
            link_cap: topo.link_capacities().collect(),
            link_delay: topo.links().iter().map(|l| l.delay).collect(),
            node_up: vec![true; n],
            link_up: vec![true; m],
            node_epoch: vec![0; n],
            link_epoch: vec![0; m],
            version: 0,
            transit,
        }
    }

    /// Applies one churn action to the substrate state alone; the flows
    /// and instances a failure takes with it are the caller's to kill. A
    /// repair restores the nominal values of `topo`, whatever degradation
    /// or spike was issued before or during the outage.
    pub(crate) fn apply(&mut self, topo: &Topology, action: ChurnAction) {
        match action {
            ChurnAction::LinkDown(l) => {
                self.link_up[l.0] = false;
                self.link_cap[l.0] = 0.0;
                if self.transit == TransitPolicy::Drop {
                    // Reservations on the link die with it.
                    bump(&mut self.link_epoch[l.0]);
                    self.link_used[l.0] = 0.0;
                }
            }
            ChurnAction::LinkUp(l) => {
                self.link_up[l.0] = true;
                self.link_cap[l.0] = topo.link(l).capacity;
                self.link_delay[l.0] = topo.link(l).delay;
            }
            ChurnAction::NodeDown(v) => {
                self.node_up[v.0] = false;
                self.node_cap[v.0] = 0.0;
                bump(&mut self.node_epoch[v.0]);
                self.node_used[v.0] = 0.0;
            }
            ChurnAction::NodeUp(v) => {
                self.node_up[v.0] = true;
                self.node_cap[v.0] = topo.node(v).capacity;
            }
            ChurnAction::DegradeLinkCapacity { link, factor } => {
                if self.link_up[link.0] {
                    self.link_cap[link.0] = topo.link(link).capacity * factor;
                }
            }
            ChurnAction::DegradeNodeCapacity { node, factor } => {
                if self.node_up[node.0] {
                    self.node_cap[node.0] = topo.node(node).capacity * factor;
                }
            }
            ChurnAction::DelaySpike { link, factor } => {
                self.link_delay[link.0] = topo.link(link).delay * factor;
            }
        }
        self.version += 1;
    }
}

/// Advances a failure epoch.
///
/// # Panics
///
/// Panics if the epoch would wrap, which a timeline of at most `u32::MAX`
/// entries cannot make it do.
fn bump(epoch: &mut u32) {
    #[allow(
        clippy::expect_used,
        reason = "Simulation::with_churn admits at most u32::MAX timeline entries, one bump each"
    )]
    let next = epoch.checked_add(1).expect("failure epoch overflows u32");
    *epoch = next;
}

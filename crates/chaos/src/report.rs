//! Resilience reporting: how did the success ratio behave around each
//! fault?
//!
//! Built purely from the simulator's ordered [`SimEvent`] stream (any
//! coordinator, any policy), using the same [`WindowedStats`] machinery
//! the ops surface exposes: `before` is the windowed success ratio at the
//! instant the fault strikes, `during` the ratio at repair time (the
//! window then covers the outage), and `after` the ratio once a full
//! window of terminations has passed since the repair — i.e. whether the
//! policy actually recovered, not merely survived.

use dosco_simnet::{ChurnAction, SimEvent, WindowedStats};
use serde::Serialize;

/// The success-ratio trajectory around one fault.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct FaultWindow {
    /// Stable action label of the fault (`link-down` or `node-down`).
    pub action: String,
    /// Dense id of the failed link or node.
    pub target: u64,
    /// When the fault struck.
    pub fault_time: f64,
    /// When it was repaired; `None` if never repaired in the stream.
    pub repair_time: Option<f64>,
    /// Windowed success ratio just before the fault.
    pub before: Option<f64>,
    /// Windowed success ratio at repair time (covers the outage).
    pub during: Option<f64>,
    /// Windowed success ratio one full window after the repair.
    pub after: Option<f64>,
}

/// A per-fault resilience report over one episode's event stream.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ResilienceReport {
    /// One entry per `LinkDown`/`NodeDown`, in fault order.
    pub windows: Vec<FaultWindow>,
    /// Lifetime success ratio over all terminations in the stream.
    pub overall: Option<f64>,
    /// Terminations observed (completions + drops).
    pub terminations: u64,
}

/// Reconstructs the resilience report from an ordered event stream, using
/// a sliding window of `window` terminations (0 panics, per
/// [`WindowedStats::new`]).
pub fn resilience_report(events: &[SimEvent], window: usize) -> ResilienceReport {
    let mut ws = WindowedStats::new(window);
    let mut completed: u64 = 0;
    let mut windows: Vec<FaultWindow> = Vec::new();
    // Open faults by (is_node, target) -> index into `windows`; repairs
    // that never saw a fault are ignored.
    let mut open: Vec<((bool, u64), usize)> = Vec::new();
    // Repaired faults waiting for a full window of fresh terminations:
    // (index, termination count at which `after` is sampled).
    let mut pending: Vec<(usize, u64)> = Vec::new();

    for ev in events {
        match ev {
            SimEvent::FlowCompleted { .. } | SimEvent::FlowDropped { .. } => {
                if matches!(ev, SimEvent::FlowCompleted { .. }) {
                    completed += 1;
                }
                ws.observe(ev);
                let seen = ws.seen();
                pending.retain(|&(idx, due)| {
                    if seen >= due {
                        windows[idx].after = ws.success_ratio();
                        false
                    } else {
                        true
                    }
                });
            }
            SimEvent::ChurnApplied { action, time, .. } => {
                let fault_key = match action {
                    ChurnAction::LinkDown(l) => Some((false, l.0 as u64)),
                    ChurnAction::NodeDown(v) => Some((true, v.0 as u64)),
                    _ => None,
                };
                if let Some(key) = fault_key {
                    open.push((key, windows.len()));
                    windows.push(FaultWindow {
                        action: action.label().to_string(),
                        target: action.target(),
                        fault_time: *time,
                        repair_time: None,
                        before: ws.success_ratio(),
                        during: None,
                        after: None,
                    });
                    continue;
                }
                let repair_key = match action {
                    ChurnAction::LinkUp(l) => Some((false, l.0 as u64)),
                    ChurnAction::NodeUp(v) => Some((true, v.0 as u64)),
                    _ => None,
                };
                if let Some(key) = repair_key {
                    if let Some(pos) = open.iter().position(|&(k, _)| k == key) {
                        let (_, idx) = open.remove(pos);
                        windows[idx].repair_time = Some(*time);
                        windows[idx].during = ws.success_ratio();
                        pending.push((idx, ws.seen() + window as u64));
                    }
                }
            }
            _ => {}
        }
    }

    let terminations = ws.seen();
    ResilienceReport {
        windows,
        overall: (terminations > 0).then(|| completed as f64 / terminations as f64),
        terminations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dosco_simnet::{DropReason, FlowId};
    use dosco_topology::{LinkId, NodeId};

    fn done(i: u64) -> SimEvent {
        SimEvent::FlowCompleted {
            flow: FlowId(i),
            time: i as f64,
            e2e_delay: 1.0,
            node: NodeId(0),
        }
    }

    fn dropped(i: u64) -> SimEvent {
        SimEvent::FlowDropped {
            flow: FlowId(i),
            time: i as f64,
            reason: DropReason::LinkFailure,
            node: NodeId(0),
        }
    }

    fn churn(action: ChurnAction, time: f64) -> SimEvent {
        SimEvent::ChurnApplied {
            action,
            topo_version: 1,
            time,
        }
    }

    #[test]
    fn degrade_and_recover_trajectory() {
        // 4 successes, fault, 4 drops, repair, 4 successes.
        let mut events: Vec<SimEvent> = (0..4).map(done).collect();
        events.push(churn(ChurnAction::LinkDown(LinkId(2)), 10.0));
        events.extend((4..8).map(dropped));
        events.push(churn(ChurnAction::LinkUp(LinkId(2)), 20.0));
        events.extend((8..12).map(done));

        let r = resilience_report(&events, 4);
        assert_eq!(r.windows.len(), 1);
        let w = &r.windows[0];
        assert_eq!(w.action, "link-down");
        assert_eq!(w.target, 2);
        assert_eq!(w.fault_time, 10.0);
        assert_eq!(w.repair_time, Some(20.0));
        assert_eq!(w.before, Some(1.0), "perfect before the fault");
        assert_eq!(w.during, Some(0.0), "window covers the outage");
        assert_eq!(w.after, Some(1.0), "recovered one window later");
        assert_eq!(r.overall, Some(8.0 / 12.0));
        assert_eq!(r.terminations, 12);
    }

    #[test]
    fn unrepaired_fault_has_no_during_or_after() {
        let events = vec![
            done(0),
            churn(ChurnAction::NodeDown(NodeId(3)), 5.0),
            dropped(1),
        ];
        let r = resilience_report(&events, 2);
        let w = &r.windows[0];
        assert_eq!(w.action, "node-down");
        assert_eq!(w.repair_time, None);
        assert_eq!(w.before, Some(1.0));
        assert_eq!(w.during, None);
        assert_eq!(w.after, None);
    }

    #[test]
    fn repairs_match_their_own_entity() {
        // Two overlapping link faults; each Up must close its own Down.
        let events = vec![
            churn(ChurnAction::LinkDown(LinkId(0)), 1.0),
            churn(ChurnAction::LinkDown(LinkId(1)), 2.0),
            churn(ChurnAction::LinkUp(LinkId(1)), 3.0),
            churn(ChurnAction::LinkUp(LinkId(0)), 4.0),
        ];
        let r = resilience_report(&events, 4);
        assert_eq!(r.windows[0].target, 0);
        assert_eq!(r.windows[0].repair_time, Some(4.0));
        assert_eq!(r.windows[1].target, 1);
        assert_eq!(r.windows[1].repair_time, Some(3.0));
    }

    #[test]
    fn non_fault_actions_are_ignored() {
        let events = vec![
            churn(
                ChurnAction::DelaySpike {
                    link: LinkId(0),
                    factor: 3.0,
                },
                1.0,
            ),
            churn(
                ChurnAction::DegradeNodeCapacity {
                    node: NodeId(0),
                    factor: 0.5,
                },
                2.0,
            ),
            done(0),
        ];
        let r = resilience_report(&events, 2);
        assert!(r.windows.is_empty());
        assert_eq!(r.overall, Some(1.0));
    }
}

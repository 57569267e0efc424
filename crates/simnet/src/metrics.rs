//! Aggregate metrics: the objective `o_f` (Eq. 1) and supporting counters,
//! plus [`WindowedStats`] for constant-memory streaming views of long
//! (million-flow) episodes.

use crate::event::{DropReason, SimEvent};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Counters collected over one simulation episode.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Metrics {
    /// Flows that entered the network.
    pub arrived: u64,
    /// Flows completed successfully (`F_succ`).
    pub completed: u64,
    /// Flows dropped (`F_drop`), by reason. A `BTreeMap` so iteration —
    /// and therefore serialization — is deterministic regardless of
    /// insertion order (stable report diffs across runs).
    pub dropped: BTreeMap<DropReason, u64>,
    /// Sum of end-to-end delays of completed flows (for the Fig. 7 average).
    pub e2e_delay_sum: f64,
    /// Coordination decisions taken by agents.
    pub decisions: u64,
    /// Flows processed locally (per-component processings).
    pub processings: u64,
    /// Forwarding actions over links.
    pub forwards: u64,
    /// Hold actions on fully processed flows.
    pub holds: u64,
    /// Component instances started.
    pub instances_started: u64,
    /// Component instances stopped after idling.
    pub instances_stopped: u64,
}

impl Metrics {
    /// Creates zeroed metrics.
    pub fn new() -> Self {
        Metrics::default()
    }

    /// Total dropped flows `|F_drop|`.
    pub fn dropped_total(&self) -> u64 {
        self.dropped.values().sum()
    }

    /// Dropped flows for one reason.
    pub fn dropped_for(&self, reason: DropReason) -> u64 {
        self.dropped.get(&reason).copied().unwrap_or(0)
    }

    /// Counts one event — the one map from the event stream to these
    /// counters. [`Metrics::decisions`] has no event: the simulator counts
    /// it where actions are applied.
    #[inline]
    pub fn record(&mut self, event: &SimEvent) {
        match *event {
            SimEvent::FlowArrived { .. } => self.arrived += 1,
            SimEvent::FlowCompleted { e2e_delay, .. } => {
                self.completed += 1;
                self.e2e_delay_sum += e2e_delay;
            }
            SimEvent::FlowDropped { reason, .. } => self.record_drop(reason),
            SimEvent::InstanceTraversed { .. } => self.processings += 1,
            SimEvent::Forwarded { .. } => self.forwards += 1,
            SimEvent::Held { .. } => self.holds += 1,
            SimEvent::InstanceStarted { .. } => self.instances_started += 1,
            SimEvent::InstanceStopped { .. } => self.instances_stopped += 1,
            SimEvent::ChurnApplied { .. } => {}
        }
    }

    /// Records one dropped flow (public so test fixtures and aggregation
    /// code can build metrics).
    pub fn record_drop(&mut self, reason: DropReason) {
        *self.dropped.entry(reason).or_insert(0) += 1;
    }

    /// The paper's objective `o_f = |F_succ| / (|F_succ| + |F_drop|)`
    /// (Eq. 1). Flows still in flight at the horizon count for neither.
    ///
    /// Returns 1.0 when no flow has terminated yet (vacuous success).
    /// Aggregation code should prefer [`Metrics::success_ratio_opt`] so
    /// vacuous episodes can be skipped instead of inflating averages.
    pub fn success_ratio(&self) -> f64 {
        self.success_ratio_opt().unwrap_or(1.0)
    }

    /// [`Metrics::success_ratio`] without the vacuous-success default:
    /// `None` when no flow has terminated, so callers aggregating across
    /// episodes can skip (rather than count as perfect) episodes where the
    /// objective is undefined.
    pub fn success_ratio_opt(&self) -> Option<f64> {
        let terminated = self.completed + self.dropped_total();
        if terminated == 0 {
            None
        } else {
            Some(self.completed as f64 / terminated as f64)
        }
    }

    /// Average end-to-end delay `d_f` of completed flows (Fig. 7), or
    /// `None` if no flow completed.
    pub fn avg_e2e_delay(&self) -> Option<f64> {
        if self.completed == 0 {
            None
        } else {
            Some(self.e2e_delay_sum / self.completed as f64)
        }
    }

    /// Flows neither completed nor dropped (still in flight at horizon).
    pub fn in_flight(&self) -> u64 {
        self.arrived - self.completed - self.dropped_total()
    }
}

/// Streaming statistics over the most recent `window` flow terminations.
///
/// [`Metrics`] aggregates a whole episode; on a million-flow run that
/// hides drift (a policy degrading mid-episode, a warm-up transient
/// inflating the mean). `WindowedStats` feeds on the event stream as it
/// is drained and answers "how is the system doing *right now*" from a
/// fixed ring buffer: O(1) per event, memory bounded by the window no
/// matter how long the episode runs.
#[derive(Debug, Clone)]
pub struct WindowedStats {
    window: usize,
    /// Ring of the last `window` terminations: `(completed, e2e_delay)`
    /// (delay is 0.0 for drops).
    ring: Vec<(bool, f64)>,
    next: usize,
    /// Rolling totals over the ring, maintained incrementally.
    completed: usize,
    delay_sum: f64,
    /// Lifetime terminations seen (not capped by the window).
    seen: u64,
}

impl WindowedStats {
    /// Creates a tracker over the last `window` terminations.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    pub fn new(window: usize) -> Self {
        assert!(window > 0, "window must be positive");
        WindowedStats {
            window,
            ring: Vec::with_capacity(window),
            next: 0,
            completed: 0,
            delay_sum: 0.0,
            seen: 0,
        }
    }

    /// The configured window size.
    pub fn window(&self) -> usize {
        self.window
    }

    /// Terminations currently in the window (`min(seen, window)`).
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// Whether no termination has been observed yet.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Lifetime terminations observed (unwindowed).
    pub fn seen(&self) -> u64 {
        self.seen
    }

    /// Feeds one event; only terminations (`FlowCompleted`/`FlowDropped`)
    /// move the window.
    pub fn observe(&mut self, event: &SimEvent) {
        match event {
            SimEvent::FlowCompleted { e2e_delay, .. } => self.push(true, *e2e_delay),
            SimEvent::FlowDropped { .. } => self.push(false, 0.0),
            _ => {}
        }
    }

    fn push(&mut self, completed: bool, delay: f64) {
        self.seen += 1;
        if self.ring.len() < self.window {
            self.ring.push((completed, delay));
        } else {
            let (old_done, old_delay) = self.ring[self.next];
            if old_done {
                self.completed -= 1;
                self.delay_sum -= old_delay;
            }
            self.ring[self.next] = (completed, delay);
            self.next = (self.next + 1) % self.window;
        }
        if completed {
            self.completed += 1;
            self.delay_sum += delay;
        }
    }

    /// Success ratio over the window, or `None` before any termination.
    pub fn success_ratio(&self) -> Option<f64> {
        if self.ring.is_empty() {
            None
        } else {
            Some(self.completed as f64 / self.ring.len() as f64)
        }
    }

    /// Mean end-to-end delay of completed flows in the window.
    pub fn avg_e2e_delay(&self) -> Option<f64> {
        if self.completed == 0 {
            None
        } else {
            Some(self.delay_sum / self.completed as f64)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn success_ratio_counts_only_terminated() {
        let mut m = Metrics::new();
        assert_eq!(m.success_ratio(), 1.0);
        m.arrived = 10;
        m.completed = 6;
        m.record_drop(DropReason::LinkCapacity);
        m.record_drop(DropReason::LinkCapacity);
        assert_eq!(m.dropped_total(), 2);
        assert_eq!(m.dropped_for(DropReason::LinkCapacity), 2);
        assert_eq!(m.dropped_for(DropReason::NodeCapacity), 0);
        assert!((m.success_ratio() - 0.75).abs() < 1e-12);
        assert_eq!(m.in_flight(), 2);
    }

    /// The optional variant distinguishes "no flow terminated" (undefined
    /// objective) from a genuinely perfect episode; the plain accessor
    /// keeps the historical 1.0 default.
    #[test]
    fn success_ratio_opt_flags_vacuous_episodes() {
        let mut m = Metrics::new();
        assert_eq!(m.success_ratio_opt(), None);
        assert_eq!(m.success_ratio(), 1.0);
        // Arrivals alone don't make the ratio defined: nothing terminated.
        m.arrived = 4;
        assert_eq!(m.success_ratio_opt(), None);
        m.completed = 3;
        m.record_drop(DropReason::DeadlineExpired);
        assert_eq!(m.success_ratio_opt(), Some(0.75));
        assert_eq!(m.success_ratio(), 0.75);
        // All-dropped is defined (0.0), not vacuous.
        let mut all_drop = Metrics::new();
        all_drop.arrived = 1;
        all_drop.record_drop(DropReason::NodeCapacity);
        assert_eq!(all_drop.success_ratio_opt(), Some(0.0));
    }

    #[test]
    fn avg_delay() {
        let mut m = Metrics::new();
        assert_eq!(m.avg_e2e_delay(), None);
        m.completed = 2;
        m.e2e_delay_sum = 42.0;
        assert_eq!(m.avg_e2e_delay(), Some(21.0));
    }

    /// Drop counters serialize identically no matter the order drops were
    /// recorded in: the ordered map fixes the key order, so two runs that
    /// saw the same drops emit byte-identical JSON.
    #[test]
    fn drop_counters_serialize_in_stable_order() {
        let mut forward = Metrics::new();
        for reason in DropReason::ALL {
            forward.record_drop(reason);
        }
        let mut reverse = Metrics::new();
        for reason in DropReason::ALL.iter().rev() {
            reverse.record_drop(*reason);
        }
        let a = serde_json::to_string(&forward).unwrap();
        let b = serde_json::to_string(&reverse).unwrap();
        assert_eq!(a, b, "insertion order leaked into the serialization");
        // Keys iterate in declaration (Ord) order.
        let keys: Vec<DropReason> = forward.dropped.keys().copied().collect();
        assert_eq!(keys, DropReason::ALL.to_vec());
        let back: Metrics = serde_json::from_str(&a).unwrap();
        assert_eq!(back, forward);
    }

    #[test]
    fn serde_round_trip() {
        let mut m = Metrics::new();
        m.arrived = 3;
        m.record_drop(DropReason::InvalidAction);
        let json = serde_json::to_string(&m).unwrap();
        let back: Metrics = serde_json::from_str(&json).unwrap();
        assert_eq!(m, back);
    }

    fn completed(delay: f64) -> SimEvent {
        SimEvent::FlowCompleted {
            flow: crate::flow::FlowId(0),
            time: 0.0,
            e2e_delay: delay,
            node: dosco_topology::NodeId(0),
        }
    }

    fn dropped() -> SimEvent {
        SimEvent::FlowDropped {
            flow: crate::flow::FlowId(0),
            time: 0.0,
            reason: DropReason::NodeCapacity,
            node: dosco_topology::NodeId(0),
        }
    }

    #[test]
    fn windowed_stats_slide_over_terminations() {
        let mut w = WindowedStats::new(3);
        assert_eq!(w.success_ratio(), None);
        assert!(w.is_empty());
        [completed(4.0), completed(6.0), dropped()]
            .iter()
            .for_each(|e| w.observe(e));
        assert_eq!(w.len(), 3);
        assert_eq!(w.success_ratio(), Some(2.0 / 3.0));
        assert_eq!(w.avg_e2e_delay(), Some(5.0));
        // A fourth termination evicts the oldest completion (delay 4.0).
        w.observe(&dropped());
        assert_eq!(w.len(), 3);
        assert_eq!(w.seen(), 4);
        assert_eq!(w.success_ratio(), Some(1.0 / 3.0));
        assert_eq!(w.avg_e2e_delay(), Some(6.0));
        // Two more drops push the last completion out.
        [dropped(), dropped()].iter().for_each(|e| w.observe(e));
        assert_eq!(w.success_ratio(), Some(0.0));
        assert_eq!(w.avg_e2e_delay(), None);
    }

    #[test]
    fn windowed_stats_ignore_non_terminations() {
        let mut w = WindowedStats::new(2);
        w.observe(&SimEvent::Held {
            flow: crate::flow::FlowId(1),
            node: dosco_topology::NodeId(0),
            time: 1.0,
        });
        assert!(w.is_empty());
        assert_eq!(w.seen(), 0);
    }

    /// Memory is bounded by the window: feed far more terminations than
    /// the window holds and the ring never grows past it, while the
    /// rolling aggregates stay exact.
    #[test]
    fn windowed_stats_memory_is_window_bounded() {
        let mut w = WindowedStats::new(16);
        for i in 0..10_000u64 {
            if i % 2 == 0 {
                w.observe(&completed(1.0));
            } else {
                w.observe(&dropped());
            }
        }
        assert_eq!(w.len(), 16);
        assert_eq!(w.seen(), 10_000);
        assert_eq!(w.success_ratio(), Some(0.5));
        assert_eq!(w.avg_e2e_delay(), Some(1.0));
    }

    #[test]
    #[should_panic(expected = "window must be positive")]
    fn windowed_stats_reject_zero_window() {
        WindowedStats::new(0);
    }
}

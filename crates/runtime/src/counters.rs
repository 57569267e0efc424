//! Runtime counters (atomics shared between the actor and the learner) and
//! the serializable report surfaced through the bench plumbing.

use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};

/// Shared atomic counters updated by the actor and the learner while the
/// runtime is live; snapshotted into a [`RuntimeReport`] at shutdown.
#[derive(Debug, Default)]
pub(crate) struct Counters {
    /// Batches the actor handed to the channel.
    pub(crate) batches_produced: AtomicU64,
    /// Batches the learner consumed into updates.
    pub(crate) batches_consumed: AtomicU64,
    /// Batches still in flight at shutdown, recovered by the drain.
    pub(crate) batches_drained: AtomicU64,
    /// Policy snapshot versions published by the learner.
    pub(crate) snapshots_published: AtomicU64,
    /// Nanoseconds the actor spent in channel sends.
    pub(crate) send_wait_ns: AtomicU64,
    /// Nanoseconds the learner spent waiting to receive batches.
    pub(crate) recv_wait_ns: AtomicU64,
    /// Nanoseconds spent copying the networks into policy snapshots.
    pub(crate) publish_ns: AtomicU64,
}

impl Counters {
    pub(crate) fn inc(field: &AtomicU64) {
        field.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn add_ns(field: &AtomicU64, ns: u64) {
        field.fetch_add(ns, Ordering::Relaxed);
    }

    pub(crate) fn report(&self) -> RuntimeReport {
        let ms = |field: &AtomicU64| field.load(Ordering::Relaxed) as f64 / 1e6;
        RuntimeReport {
            batches_produced: self.batches_produced.load(Ordering::Relaxed),
            batches_consumed: self.batches_consumed.load(Ordering::Relaxed),
            batches_in_flight: self.batches_drained.load(Ordering::Relaxed),
            snapshots_published: self.snapshots_published.load(Ordering::Relaxed),
            send_wait_ms: ms(&self.send_wait_ns),
            recv_wait_ms: ms(&self.recv_wait_ns),
            publish_ms: ms(&self.publish_ns),
        }
    }
}

/// Counter snapshot of one runtime training run. Conservation invariant:
/// `batches_produced == batches_consumed + batches_in_flight` once the
/// runtime has shut down cleanly.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RuntimeReport {
    /// Batches the actor enqueued.
    pub batches_produced: u64,
    /// Batches consumed into learner updates.
    pub batches_consumed: u64,
    /// Batches in flight at shutdown (drained unprocessed).
    pub batches_in_flight: u64,
    /// Policy snapshot versions published.
    pub snapshots_published: u64,
    /// Wall time the actor spent in channel sends, milliseconds.
    pub send_wait_ms: f64,
    /// Wall time the learner spent waiting for batches, milliseconds.
    pub recv_wait_ms: f64,
    /// Wall time spent copying the networks into policy snapshots,
    /// milliseconds.
    pub publish_ms: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_snapshots_counters() {
        let c = Counters::default();
        Counters::inc(&c.batches_produced);
        Counters::inc(&c.batches_produced);
        Counters::inc(&c.batches_consumed);
        Counters::inc(&c.batches_drained);
        Counters::inc(&c.snapshots_published);
        let r = c.report();
        assert_eq!(r.batches_produced, 2);
        assert_eq!(r.batches_consumed + r.batches_in_flight, 2);
        assert_eq!(r.snapshots_published, 1);
    }

    #[test]
    fn wait_times_accumulate_to_milliseconds() {
        let c = Counters::default();
        Counters::add_ns(&c.send_wait_ns, 1_500_000);
        Counters::add_ns(&c.send_wait_ns, 500_000);
        Counters::add_ns(&c.recv_wait_ns, 250_000);
        Counters::add_ns(&c.publish_ns, 3_000_000);
        let r = c.report();
        assert!((r.send_wait_ms - 2.0).abs() < 1e-12);
        assert!((r.recv_wait_ms - 0.25).abs() < 1e-12);
        assert!((r.publish_ms - 3.0).abs() < 1e-12);
    }
}

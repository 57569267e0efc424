//! Control-plane directives for the serving fabric: targeted policy
//! publishes applied at epoch boundaries.
//!
//! The [`PolicySlot`](dosco_runtime::PolicySlot) hub publishes to *every*
//! shard, which suits following a live learner. A canary wants a
//! candidate on a *subset* of shards while the rest keep the incumbent,
//! and a rollback republishes the incumbent to exactly the shards that
//! diverged. A [`ControlQueue`] carries those directives. The epoch loop
//! drains it at every boundary, after the hub poll, so an explicit
//! directive wins over a broadcast at the same boundary.

use dosco_runtime::PolicySnapshot;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// One control directive: publish `snapshot` to `shards` at the next
/// epoch boundary.
#[derive(Debug, Clone)]
pub struct PublishCmd {
    /// The snapshot to deploy (checked against the observation contract
    /// at the boundary it lands at, like a hub publish).
    pub snapshot: Arc<PolicySnapshot>,
    /// The shard indices it lands on (out-of-range indices are
    /// ignored); the rest keep their current policy.
    pub shards: Vec<usize>,
}

/// A FIFO queue of control directives, drained by the fabric at every
/// epoch boundary. Senders (a canary driver, an ops endpoint) push from
/// any thread; commands are applied in push order at the next boundary,
/// so two commands pushed between boundaries land at the *same* epoch in
/// their push order.
#[derive(Debug, Default)]
pub struct ControlQueue {
    cmds: Mutex<VecDeque<PublishCmd>>,
    /// Commands ever pushed (cheap emptiness probe for the fabric: one
    /// relaxed load on the boundary path instead of a mutex lock).
    pushed: AtomicU64,
    /// Commands ever drained.
    drained: AtomicU64,
}

impl ControlQueue {
    /// Creates an empty queue.
    pub fn new() -> Self {
        ControlQueue::default()
    }

    /// The queue itself. A panic while the lock was held cannot leave a
    /// `VecDeque` half-pushed, so a poisoned lock is recovered.
    fn cmds(&self) -> MutexGuard<'_, VecDeque<PublishCmd>> {
        self.cmds.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Enqueues a directive for the next epoch boundary.
    pub fn push(&self, cmd: PublishCmd) {
        self.cmds().push_back(cmd);
        self.pushed.fetch_add(1, Ordering::Release);
    }

    /// Whether any command is waiting. One relaxed load — safe to call
    /// on the fabric's boundary path every epoch.
    pub fn is_pending(&self) -> bool {
        self.pushed.load(Ordering::Acquire) > self.drained.load(Ordering::Relaxed)
    }

    /// Removes and returns every queued directive, in push order.
    pub(crate) fn drain(&self) -> Vec<PublishCmd> {
        let mut q = self.cmds();
        let cmds: Vec<PublishCmd> = q.drain(..).collect();
        self.drained.fetch_add(cmds.len() as u64, Ordering::Relaxed);
        cmds
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dosco_nn::mlp::{Activation, Mlp};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn snap(version: u64) -> Arc<PolicySnapshot> {
        let mut rng = StdRng::seed_from_u64(version);
        Arc::new(PolicySnapshot {
            version,
            actor: Mlp::new(&[2, 2], Activation::Tanh, &mut rng),
            critic: Mlp::new(&[2, 1], Activation::Tanh, &mut rng),
        })
    }

    #[test]
    fn drains_in_push_order() {
        let q = ControlQueue::new();
        assert!(!q.is_pending());
        q.push(PublishCmd {
            snapshot: snap(1),
            shards: vec![1],
        });
        q.push(PublishCmd {
            snapshot: snap(2),
            shards: vec![0],
        });
        assert!(q.is_pending());
        let cmds = q.drain();
        assert_eq!(cmds.len(), 2);
        assert_eq!(cmds[0].snapshot.version, 1);
        assert_eq!(cmds[0].shards, vec![1]);
        assert_eq!(cmds[1].snapshot.version, 2);
        assert!(!q.is_pending());
        assert!(q.drain().is_empty());
    }
}

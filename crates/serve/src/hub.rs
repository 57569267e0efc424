//! The one door into a serving run: the versioned policy hub.
//!
//! A [`PolicySlot`] holds the latest fabric-wide snapshot and a FIFO of
//! directed publishes. [`PolicySlot::publish`] replaces the snapshot
//! every node group runs, which suits following a live learner;
//! [`PolicySlot::publish_to`] queues a snapshot for a subset of groups,
//! which is what a canary and its rollback need. The epoch loop takes
//! both at every boundary: the latest broadcast first, then the directed
//! publishes in push order, so a directive wins over a broadcast at the
//! same boundary. A boundary with nothing published since the last one
//! costs one atomic load and takes no lock.

use dosco_runtime::PolicySnapshot;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// A directed publish: a snapshot and the node groups it lands on.
pub(crate) type Directed = (Arc<PolicySnapshot>, Vec<usize>);

/// The hub's content, under one lock.
#[derive(Debug)]
struct Content {
    latest: Arc<PolicySnapshot>,
    directed: Vec<Directed>,
}

/// The versioned policy hub a serving run subscribes to. Reads never
/// block publishes beyond the swap itself, and old snapshots stay alive
/// only while a reader still holds them. The content is a plain `Arc`
/// and a `Vec`, so a thread that panicked holding the lock left no torn
/// state behind: a poisoned lock is recovered, not re-raised.
#[derive(Debug)]
pub struct PolicySlot {
    content: Mutex<Content>,
    /// Publishes of either kind ever made. The epoch loop compares it
    /// with the count it last saw before it takes the lock.
    publishes: AtomicU64,
}

impl PolicySlot {
    /// Creates a hub holding `initial` as the current snapshot.
    pub fn new(initial: PolicySnapshot) -> Self {
        PolicySlot {
            content: Mutex::new(Content {
                latest: Arc::new(initial),
                directed: Vec::new(),
            }),
            publishes: AtomicU64::new(0),
        }
    }

    fn content(&self) -> MutexGuard<'_, Content> {
        self.content.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Replaces the snapshot every node group runs. Between two
    /// boundaries the latest broadcast wins, and a version change counts
    /// one swap.
    pub fn publish(&self, snapshot: Arc<PolicySnapshot>) {
        self.content().latest = snapshot;
        self.publishes.fetch_add(1, Ordering::Release);
    }

    /// Queues `snapshot` for the node groups `groups` (out-of-range
    /// indices are ignored); the rest keep their current policy. The next
    /// boundary of a run serving from this hub applies every queued
    /// publish after the broadcast, in push order (of two runs on one
    /// hub, the first to reach a boundary takes them).
    pub fn publish_to(&self, snapshot: Arc<PolicySnapshot>, groups: &[usize]) {
        self.content().directed.push((snapshot, groups.to_vec()));
        self.publishes.fetch_add(1, Ordering::Release);
    }

    /// The most recently broadcast snapshot.
    pub fn latest(&self) -> Arc<PolicySnapshot> {
        Arc::clone(&self.content().latest)
    }

    /// The version of the most recently broadcast snapshot.
    pub fn version(&self) -> u64 {
        self.content().latest.version
    }

    /// Publishes of either kind ever made (one atomic load).
    pub(crate) fn publishes(&self) -> u64 {
        self.publishes.load(Ordering::Acquire)
    }

    /// The latest broadcast and every queued directed publish, in push
    /// order, which leave the queue.
    pub(crate) fn take(&self) -> (Arc<PolicySnapshot>, Vec<Directed>) {
        let mut content = self.content();
        let directed = std::mem::take(&mut content.directed);
        (Arc::clone(&content.latest), directed)
    }

    /// Describes the current snapshot for operational surfaces (the
    /// `dosco_ctl` `GET /snapshot` endpoint) without cloning its networks.
    pub fn info(&self) -> SlotInfo {
        let snap = self.latest();
        SlotInfo {
            version: snap.version,
            actor_params: snap.actor.num_params(),
            critic_params: snap.critic.num_params(),
        }
    }
}

/// A cheap description of the hub's current snapshot
/// ([`PolicySlot::info`]); `GET /snapshot` serialises it as is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct SlotInfo {
    /// Version of the currently broadcast snapshot.
    pub version: u64,
    /// Parameter count of the snapshot's actor network.
    pub actor_params: usize,
    /// Parameter count of the snapshot's critic network.
    pub critic_params: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use dosco_nn::mlp::{Activation, Mlp};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn snap(version: u64, seed: u64) -> PolicySnapshot {
        let mut rng = StdRng::seed_from_u64(seed);
        PolicySnapshot {
            version,
            actor: Mlp::new(&[2, 3, 2], Activation::Tanh, &mut rng),
            critic: Mlp::new(&[2, 3, 1], Activation::Tanh, &mut rng),
        }
    }

    #[test]
    fn publish_replaces_latest_and_version() {
        let slot = PolicySlot::new(snap(0, 1));
        assert_eq!(slot.version(), 0);
        let first = slot.latest();
        slot.publish(Arc::new(snap(1, 2)));
        assert_eq!(slot.version(), 1);
        let second = slot.latest();
        assert_eq!(second.version, 1);
        // The older snapshot stays valid for in-flight collections.
        assert_eq!(first.version, 0);
        assert_ne!(first.actor, second.actor);
    }

    #[test]
    fn info_tracks_version_and_params() {
        let slot = PolicySlot::new(snap(0, 1));
        let info = slot.info();
        assert_eq!(info.version, 0);
        // [2,3,2] actor: 2*3+3 + 3*2+2 = 17; [2,3,1] critic: 9 + 4 = 13.
        assert_eq!(info.actor_params, 17);
        assert_eq!(info.critic_params, 13);
        slot.publish(Arc::new(snap(4, 2)));
        assert_eq!(slot.info().version, 4);
    }

    #[test]
    fn drains_in_push_order() {
        let slot = PolicySlot::new(snap(0, 1));
        assert_eq!(slot.publishes(), 0);
        slot.publish_to(Arc::new(snap(1, 2)), &[1]);
        slot.publish_to(Arc::new(snap(2, 3)), &[0]);
        assert_eq!(slot.publishes(), 2);
        let (latest, directed) = slot.take();
        assert_eq!(latest.version, 0, "a directed publish is no broadcast");
        assert_eq!(directed.len(), 2);
        assert_eq!(directed[0].0.version, 1);
        assert_eq!(directed[0].1, vec![1]);
        assert_eq!(directed[1].0.version, 2);
        assert_eq!(slot.publishes(), 2);
        assert!(slot.take().1.is_empty());
    }
}

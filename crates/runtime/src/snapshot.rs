//! Versioned policy snapshots and the shared broadcast slot.

use dosco_nn::mlp::Mlp;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// One immutable, versioned copy of the learner's networks. Taken by the
/// learner after every update and handed to the actor with its reply; the
/// actor collects each whole rollout under one snapshot.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct PolicySnapshot {
    /// Monotonically increasing version: the number of learner updates
    /// applied before this snapshot was taken (0 = initial parameters).
    pub version: u64,
    /// The actor network at this version.
    pub actor: Mlp,
    /// The critic network at this version.
    pub critic: Mlp,
}

/// The single-slot broadcast channel for snapshots: `publish` replaces the
/// slot's `Arc`, `latest` clones it. Reads never block publishes beyond
/// the swap itself, and old snapshots stay alive only while a reader still
/// holds them.
///
/// The `dosco_serve` fabric subscribes its inference shards here, polling
/// [`PolicySlot::version`] at epoch boundaries and hot-swapping to
/// [`PolicySlot::latest`] when it moved — the hand-off point between the
/// training plane and the serving plane. The slot holds a plain `Arc`, so
/// a thread that panicked holding the lock left no torn state behind: a
/// poisoned lock is recovered, not re-raised.
#[derive(Debug)]
pub struct PolicySlot {
    latest: Mutex<Arc<PolicySnapshot>>,
    version: AtomicU64,
}

impl PolicySlot {
    /// Creates a slot holding `initial` as the current snapshot.
    pub fn new(initial: PolicySnapshot) -> Self {
        PolicySlot {
            version: AtomicU64::new(initial.version),
            latest: Mutex::new(Arc::new(initial)),
        }
    }

    /// Replaces the slot content with a newer snapshot.
    pub fn publish(&self, snapshot: Arc<PolicySnapshot>) {
        let version = snapshot.version;
        *self.latest.lock().unwrap_or_else(PoisonError::into_inner) = snapshot;
        self.version.store(version, Ordering::Release);
    }

    /// The most recently published snapshot.
    pub fn latest(&self) -> Arc<PolicySnapshot> {
        Arc::clone(&self.latest.lock().unwrap_or_else(PoisonError::into_inner))
    }

    /// The version of the most recently published snapshot (cheap read —
    /// one atomic load; subscribers poll this before paying for
    /// [`PolicySlot::latest`]).
    pub fn version(&self) -> u64 {
        self.version.load(Ordering::Acquire)
    }

    /// Introspects the slot for operational surfaces (the `dosco_ctl`
    /// `GET /snapshot` endpoint): the published version and the parameter
    /// counts of the snapshot's networks, without cloning the networks
    /// themselves.
    pub fn info(&self) -> SlotInfo {
        let snap = self.latest();
        SlotInfo {
            version: snap.version,
            actor_params: snap.actor.num_params(),
            critic_params: snap.critic.num_params(),
        }
    }
}

/// A cheap description of the slot's current snapshot
/// ([`PolicySlot::info`]); `GET /snapshot` serialises it as is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct SlotInfo {
    /// Version of the currently published snapshot.
    pub version: u64,
    /// Parameter count of the snapshot's actor network.
    pub actor_params: usize,
    /// Parameter count of the snapshot's critic network.
    pub critic_params: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use dosco_nn::mlp::Activation;
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
}

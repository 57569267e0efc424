//! Shared state behind the ops endpoints: optional attachments to the
//! serving plane (its [`PolicySlot`] hub and [`StatusBoard`]) and the
//! artifact store (a [`PolicyRegistry`]).
//!
//! The state is built once, before the server starts, with whichever
//! planes exist; a detached endpoint answers honestly (`attached: false`
//! / `null` fields) instead of erroring.

use crate::jobs::JobManager;
use crate::registry::{ArtifactMeta, PolicyRegistry};
use dosco_serve::{FabricStatus, PolicySlot, SlotInfo, StatusBoard};
use serde::{Deserialize, Serialize};
use std::sync::{Arc, Mutex, PoisonError};

/// The `GET /healthz` response body.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct HealthResponse {
    /// Always `true` when the server answers at all.
    pub ok: bool,
    /// Service identifier.
    pub service: String,
}

/// The `GET /snapshot` response body: the live policy slot and the
/// registry's promoted head, each `null` while detached.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SnapshotResponse {
    /// The attached [`PolicySlot`]'s current state.
    pub slot: Option<SlotInfo>,
    /// The attached registry's promoted head entry.
    pub registry_head: Option<ArtifactMeta>,
}

/// The `GET /shards` response body.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShardsResponse {
    /// Whether a fabric's status board is attached.
    pub attached: bool,
    /// The board's latest snapshot (all-default while detached).
    pub status: FabricStatus,
}

/// Everything the ops endpoints read: the attachments, fixed before the
/// server starts, and the job table.
///
/// An operator thread that panics holding the registry's mutex does not
/// take the endpoints down: the read recovers the guard
/// ([`PoisonError::into_inner`]). The registry's promoted head is one
/// field, so no read sees half an update.
#[derive(Debug, Default)]
pub struct CtlState {
    slot: Option<Arc<PolicySlot>>,
    board: Option<Arc<StatusBoard>>,
    registry: Option<Arc<Mutex<PolicyRegistry>>>,
    jobs: JobManager,
}

impl CtlState {
    /// Creates a state with nothing attached.
    pub fn new() -> Self {
        CtlState::default()
    }

    /// Attaches the policy hub a serving run or the training plane
    /// publishes to.
    #[must_use]
    pub fn with_slot(mut self, slot: Arc<PolicySlot>) -> Self {
        self.slot = Some(slot);
        self
    }

    /// Attaches the serving fabric's status board.
    #[must_use]
    pub fn with_board(mut self, board: Arc<StatusBoard>) -> Self {
        self.board = Some(board);
        self
    }

    /// Attaches the policy registry.
    #[must_use]
    pub fn with_registry(mut self, registry: Arc<Mutex<PolicyRegistry>>) -> Self {
        self.registry = Some(registry);
        self
    }

    /// The background-job table behind the `POST /jobs/*` routes.
    pub fn jobs(&self) -> &JobManager {
        &self.jobs
    }

    /// The `GET /healthz` body.
    pub fn healthz(&self) -> HealthResponse {
        HealthResponse {
            ok: true,
            service: "dosco_ctl".to_string(),
        }
    }

    /// The `GET /snapshot` body.
    pub fn snapshot_response(&self) -> SnapshotResponse {
        let slot = self.slot.as_ref().map(|s| s.info());
        let registry_head = self.registry.as_ref().and_then(|r| {
            let registry = r.lock().unwrap_or_else(PoisonError::into_inner);
            registry.head().cloned()
        });
        SnapshotResponse {
            slot,
            registry_head,
        }
    }

    /// The `GET /shards` body.
    pub fn shards_response(&self) -> ShardsResponse {
        match &self.board {
            Some(board) => ShardsResponse {
                attached: true,
                status: board.snapshot(),
            },
            None => ShardsResponse {
                attached: false,
                status: FabricStatus::default(),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dosco_nn::mlp::{Activation, Mlp};
    use dosco_serve::PolicySnapshot;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn detached_state_answers_honestly() {
        let state = CtlState::new();
        assert!(state.healthz().ok);
        let snap = state.snapshot_response();
        assert_eq!(snap.slot, None);
        assert_eq!(snap.registry_head, None);
        let shards = state.shards_response();
        assert!(!shards.attached);
        assert_eq!(shards.status, FabricStatus::default());
    }

    #[test]
    fn attached_slot_is_reflected_live() {
        let mut rng = StdRng::seed_from_u64(3);
        let slot = Arc::new(PolicySlot::new(PolicySnapshot {
            version: 5,
            actor: Mlp::new(&[2, 3, 2], Activation::Tanh, &mut rng),
            critic: Mlp::new(&[2, 3, 1], Activation::Tanh, &mut rng),
        }));
        let state = CtlState::new().with_slot(Arc::clone(&slot));
        let view = state.snapshot_response().slot.unwrap();
        assert_eq!(view.version, 5);
        assert_eq!(view.actor_params, 17);
        assert_eq!(
            serde_json::to_string(&view).unwrap(),
            r#"{"version":5,"actor_params":17,"critic_params":13}"#
        );
        slot.publish(Arc::new(PolicySnapshot {
            version: 6,
            ..(*slot.latest()).clone()
        }));
        assert_eq!(state.snapshot_response().slot.unwrap().version, 6);
    }

    #[test]
    fn responses_serialize_deterministically() {
        let state = CtlState::new();
        let a = serde_json::to_string(&state.snapshot_response()).unwrap();
        let b = serde_json::to_string(&state.snapshot_response()).unwrap();
        assert_eq!(a, b);
        let back: SnapshotResponse = serde_json::from_str(&a).unwrap();
        assert_eq!(back, state.snapshot_response());
    }

    /// An operator thread that panics while it holds the attached
    /// registry poisons its mutex; `GET /snapshot` still answers with the
    /// promoted head.
    #[test]
    fn poisoned_registry_still_reports_its_head() {
        use dosco_core::policy::PolicyMetadata;
        use dosco_core::CoordinationPolicy;
        let root =
            std::env::temp_dir().join(format!("dosco-state-test-poisoned-{}", std::process::id()));
        std::fs::remove_dir_all(&root).ok();
        let mut registry = PolicyRegistry::open(&root).unwrap();
        let actor = Mlp::new(&[16, 8, 4], Activation::Tanh, &mut StdRng::seed_from_u64(1));
        let policy = CoordinationPolicy::new(actor, 3, PolicyMetadata::default());
        let version = registry.publish(&policy).unwrap().version;
        registry.promote(version, "deploy").unwrap();
        let registry = Arc::new(Mutex::new(registry));
        let state = CtlState::new().with_registry(Arc::clone(&registry));

        let operator = Arc::clone(&registry);
        let outcome = std::thread::spawn(move || {
            let _held = operator.lock().unwrap();
            panic!("operator thread fails while holding the registry");
        })
        .join();
        assert!(outcome.is_err());
        assert!(registry.is_poisoned());

        let head = state.snapshot_response().registry_head;
        assert_eq!(head.map(|h| h.version), Some(version));
        std::fs::remove_dir_all(&root).ok();
    }
}

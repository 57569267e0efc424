//! Versioned policy snapshots.

use dosco_nn::mlp::Mlp;

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

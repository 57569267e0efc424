//! Live fabric status for operational surfaces.
//!
//! A [`StatusBoard`] is an optional attachment on
//! [`ServeConfig`](crate::ServeConfig): when present, the epoch loop
//! publishes a [`FabricStatus`] at every epoch boundary and once more at
//! the end. A status is a view of the fabric's own accounting: its body
//! is the running [`ServeReport`], and it adds only live episodes, which
//! shards are up, and aggregate flow metrics. The `dosco_ctl`
//! `GET /shards` endpoint serves it, and the canary driver reads window
//! deltas from it. A fabric without a board pays one `Option` check per
//! epoch.

use crate::fabric::ServeReport;
use serde::{Deserialize, Serialize};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// A whole-fabric snapshot published at an epoch boundary.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct FabricStatus {
    /// The fabric's accounting as of this boundary: `report.epochs` is
    /// the epoch the snapshot was taken at (its boundary work — swaps,
    /// faults — is applied; its decisions are not yet counted), and
    /// `report.final_version` the fabric-wide current version. The final
    /// snapshot's report is the one the run returns.
    pub report: ServeReport,
    /// Episodes still running.
    pub live_episodes: u64,
    /// Whether each shard is up (false inside a kill window or after a
    /// write-off), indexed by shard.
    pub alive: Vec<bool>,
    /// Flows arrived across all episodes so far.
    pub flows_arrived: u64,
    /// Flows completed successfully across all episodes so far.
    pub flows_completed: u64,
    /// Flows dropped across all episodes so far.
    pub flows_dropped: u64,
}

impl FabricStatus {
    /// The paper's success objective over every terminated flow so far,
    /// or `None` while no flow has terminated.
    pub fn success_ratio(&self) -> Option<f64> {
        let terminated = self.flows_completed + self.flows_dropped;
        (terminated > 0).then(|| self.flows_completed as f64 / terminated as f64)
    }
}

/// Shared slot the fabric publishes [`FabricStatus`] snapshots into.
#[derive(Debug, Default)]
pub struct StatusBoard {
    inner: Mutex<FabricStatus>,
}

impl StatusBoard {
    /// Creates an empty board (all zeroes until the fabric's first
    /// boundary update).
    pub fn new() -> Self {
        StatusBoard::default()
    }

    /// The published snapshot. It is replaced whole, never edited in
    /// place, so a poisoned lock still guards a complete one.
    fn inner(&self) -> MutexGuard<'_, FabricStatus> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The most recently published snapshot.
    pub fn snapshot(&self) -> FabricStatus {
        self.inner().clone()
    }

    /// Replaces the published snapshot (fabric-side).
    pub(crate) fn publish(&self, status: FabricStatus) {
        *self.inner() = status;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn board_round_trips_snapshots() {
        let board = StatusBoard::new();
        assert_eq!(board.snapshot(), FabricStatus::default());
        let status = FabricStatus {
            report: ServeReport {
                epochs: 7,
                decisions: 40,
                batched_decisions: 30,
                fallback_decisions: 10,
                shard_versions: vec![2],
                shard_batched: vec![30],
                shard_fallback: vec![10],
                decisions_by_version: vec![(1, 10), (2, 20)],
                ..ServeReport::default()
            },
            alive: vec![true],
            flows_completed: 3,
            flows_dropped: 1,
            ..FabricStatus::default()
        };
        board.publish(status.clone());
        assert_eq!(board.snapshot(), status);
        assert_eq!(status.success_ratio(), Some(0.75));
        assert_eq!(status.report.decisions_at_version(2), 20);
        assert_eq!(status.report.decisions_at_version(9), 0);
    }

    #[test]
    fn success_ratio_is_none_while_vacuous() {
        assert_eq!(FabricStatus::default().success_ratio(), None);
    }

    #[test]
    fn status_serializes_and_round_trips() {
        let status = FabricStatus {
            report: ServeReport {
                epochs: 3,
                shard_versions: vec![0],
                decisions_by_version: vec![(0, 5)],
                ..ServeReport::default()
            },
            alive: vec![false],
            ..FabricStatus::default()
        };
        let json = serde_json::to_string(&status).unwrap();
        let back: FabricStatus = serde_json::from_str(&json).unwrap();
        assert_eq!(back, status);
    }
}

//! The canary lifecycle: candidate on a shard subset → observe an epoch
//! window → promote or roll back, all through epoch-boundary swaps.
//!
//! [`run_canary`] wires a [`PolicySlot`] hub and a [`StatusBoard`] into
//! one serving run and drives the state machine from the fabric's
//! deterministic epoch hook:
//!
//! 1. At `start_epoch`, snapshot the board (window start) and publish
//!    the candidate to `canary_shards` only.
//! 2. At `start_epoch + window`, snapshot the board again (window end),
//!    hand the [`CanaryStats`] — per-version decision deltas and flow
//!    metric deltas over the window — to the judge.
//! 3. [`CanaryDecision::Promote`]: broadcast the candidate through the
//!    hub, converging *every* shard at that boundary.
//!    [`CanaryDecision::Rollback`]: republish the incumbent to exactly
//!    the canary shards.
//!
//! Both transitions ride the fabric's single epoch-boundary swap path,
//! so `decisions_by_version` accounting stays exact through the whole
//! lifecycle: every decision is attributable to incumbent or candidate,
//! and the two buckets sum to the batched total.
//!
//! Because both window snapshots come from the same boundary-published
//! board, they lag real time identically — the deltas cover exactly
//! `window` epochs of traffic.

use dosco_core::policy::PolicyMetadata;
use dosco_core::CoordinationPolicy;
use dosco_serve::{
    serve_with, FabricStatus, PolicySlot, PolicySnapshot, ServeConfig, ServeOutcome, StatusBoard,
};
use dosco_simnet::ScenarioConfig;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Shape of one canary experiment.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CanaryConfig {
    /// The shard subset that serves the candidate during the window.
    pub canary_shards: Vec<usize>,
    /// Epoch the candidate lands (must be ≥ 1 so a window-start status
    /// snapshot exists).
    pub start_epoch: u64,
    /// Epochs of candidate traffic observed before judging (≥ 1).
    pub window: u64,
}

impl CanaryConfig {
    /// A canary on `canary_shards` starting at `start_epoch` for
    /// `window` epochs.
    pub fn new(canary_shards: Vec<usize>, start_epoch: u64, window: u64) -> Self {
        CanaryConfig {
            canary_shards,
            start_epoch,
            window,
        }
    }

    /// Checks the configuration is usable.
    ///
    /// # Errors
    ///
    /// Returns a description of the offending field.
    pub fn validate(&self) -> Result<(), String> {
        if self.canary_shards.is_empty() {
            return Err("canary_shards must name at least one shard".into());
        }
        if self.start_epoch == 0 {
            return Err("start_epoch must be at least 1".into());
        }
        if self.window == 0 {
            return Err("window must be at least 1 epoch".into());
        }
        Ok(())
    }
}

/// The judge's verdict at the end of the observation window.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CanaryDecision {
    /// Broadcast the candidate to every shard.
    Promote,
    /// Republish the incumbent to the canary shards.
    Rollback,
}

/// What the judge sees: the board at both ends of the window, plus the
/// two versions under comparison. All `window_*` accessors are deltas
/// over the window.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CanaryStats {
    /// Version serving everywhere before the canary.
    pub incumbent_version: u64,
    /// Version under trial on the canary shards.
    pub candidate_version: u64,
    /// Board snapshot taken at `start_epoch`, before the candidate
    /// landed.
    pub window_start: FabricStatus,
    /// Board snapshot taken at `start_epoch + window`, before the
    /// verdict is applied.
    pub window_end: FabricStatus,
}

impl CanaryStats {
    /// Batched decisions the candidate answered during the window.
    pub fn candidate_decisions(&self) -> u64 {
        self.window_end
            .report
            .decisions_at_version(self.candidate_version)
            - self
                .window_start
                .report
                .decisions_at_version(self.candidate_version)
    }

    /// Batched decisions the incumbent answered during the window.
    pub fn incumbent_decisions(&self) -> u64 {
        self.window_end
            .report
            .decisions_at_version(self.incumbent_version)
            - self
                .window_start
                .report
                .decisions_at_version(self.incumbent_version)
    }

    /// Total decisions applied during the window (batched + fallback).
    pub fn window_decisions(&self) -> u64 {
        self.window_end.report.decisions - self.window_start.report.decisions
    }

    /// Flows completed during the window, fabric-wide.
    pub fn window_flows_completed(&self) -> u64 {
        self.window_end.flows_completed - self.window_start.flows_completed
    }

    /// Flows dropped during the window, fabric-wide.
    pub fn window_flows_dropped(&self) -> u64 {
        self.window_end.flows_dropped - self.window_start.flows_dropped
    }

    /// The paper's success objective over flows that terminated during
    /// the window, or `None` when no flow terminated.
    pub fn window_success_ratio(&self) -> Option<f64> {
        let terminated = self.window_flows_completed() + self.window_flows_dropped();
        (terminated > 0).then(|| self.window_flows_completed() as f64 / terminated as f64)
    }

    /// The cumulative success ratio *before* the window — the baseline
    /// the window is compared against.
    pub fn baseline_success_ratio(&self) -> Option<f64> {
        self.window_start.success_ratio()
    }
}

/// The built-in judge: promote unless the candidate saw no traffic or
/// the window's success ratio dropped too far below the pre-window
/// baseline. Inject a closure into [`run_canary`] for anything fancier.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ThresholdJudge {
    /// The candidate must have answered at least this many batched
    /// decisions during the window (a canary that served nothing proves
    /// nothing — roll back).
    pub min_candidate_decisions: u64,
    /// Largest tolerated drop of the window success ratio below the
    /// pre-window baseline (absolute, e.g. `0.05` = five points).
    pub max_success_drop: f64,
}

impl Default for ThresholdJudge {
    fn default() -> Self {
        ThresholdJudge {
            min_candidate_decisions: 1,
            max_success_drop: 0.05,
        }
    }
}

impl ThresholdJudge {
    /// The verdict for `stats`.
    pub fn decide(&self, stats: &CanaryStats) -> CanaryDecision {
        if stats.candidate_decisions() < self.min_candidate_decisions {
            return CanaryDecision::Rollback;
        }
        match (stats.baseline_success_ratio(), stats.window_success_ratio()) {
            (Some(baseline), Some(window)) if window + self.max_success_drop < baseline => {
                CanaryDecision::Rollback
            }
            // No baseline or no terminated flows in the window: nothing
            // contradicts the candidate.
            _ => CanaryDecision::Promote,
        }
    }
}

/// What the canary run concluded.
#[derive(Debug, Clone, PartialEq)]
pub struct CanaryReport {
    /// The verdict, or `None` when the episodes ended before the window
    /// completed (no transition was applied).
    pub decision: Option<CanaryDecision>,
    /// The stats the judge saw (`None` iff `decision` is).
    pub stats: Option<CanaryStats>,
    /// Version that served everywhere before the canary.
    pub incumbent_version: u64,
    /// Version under trial.
    pub candidate_version: u64,
}

/// A canary run's full result: the serving outcome plus the verdict.
#[derive(Debug, Clone, PartialEq)]
pub struct CanaryOutcome {
    /// Metrics and fabric accounting of the underlying serving run.
    pub serve: ServeOutcome,
    /// The canary state machine's conclusion.
    pub report: CanaryReport,
}

/// Runs one serving workload under the canary lifecycle.
///
/// The incumbent serves everywhere from epoch 0; the candidate lands on
/// `canary.canary_shards` at `canary.start_epoch`; the judge decides at
/// `start_epoch + window`, and the verdict (promote everywhere / roll
/// the canary shards back) is applied at that same boundary. The run
/// then continues to episode completion so the verdict's effect is
/// visible in the final report.
///
/// `base_cfg` supplies shards/stochastic/fault/churn settings. A
/// status board already attached there is *reused* — attach the same
/// board to a [`CtlState`](crate::CtlState) and `GET /shards` watches
/// the canary live. The driver owns the run's hub: the incumbent is its
/// broadcast from epoch 0, and every transition is a publish to it.
///
/// # Panics
///
/// Panics if `canary` fails [`CanaryConfig::validate`], if a canary shard
/// is not one the fabric has (at or above `base_cfg.num_shards` clamped
/// to the node count: it would serve no candidate decision), if the
/// candidate does not carry a version distinct from the incumbent
/// (version accounting could not separate them), or for any reason
/// [`serve_with`] panics.
pub fn run_canary(
    incumbent: Arc<PolicySnapshot>,
    candidate: Arc<PolicySnapshot>,
    scenario: &ScenarioConfig,
    episode_seeds: &[u64],
    base_cfg: &ServeConfig,
    canary: &CanaryConfig,
    mut judge: impl FnMut(&CanaryStats) -> CanaryDecision,
) -> CanaryOutcome {
    #[allow(
        clippy::expect_used,
        reason = "the documented # Panics contract of run_canary"
    )]
    canary
        .validate()
        .expect("canary configuration must be valid");
    let shards = base_cfg.num_shards.min(scenario.topology.num_nodes());
    if let Some(s) = canary.canary_shards.iter().find(|&&s| s >= shards) {
        panic!("canary shard {s} is not one of the fabric's {shards} shards");
    }
    assert_ne!(
        incumbent.version, candidate.version,
        "candidate must carry a version distinct from the incumbent"
    );
    let degree = scenario.topology.network_degree();
    // The observation contract the fabric serves under; the hub supplies
    // the actual weights.
    let contract = CoordinationPolicy::new(
        incumbent.actor.clone(),
        degree,
        PolicyMetadata {
            algorithm: format!("canary-incumbent-v{}", incumbent.version),
            ..PolicyMetadata::default()
        },
    );
    let board = base_cfg
        .status
        .clone()
        .unwrap_or_else(|| Arc::new(StatusBoard::new()));
    let cfg = base_cfg.clone().with_status(Arc::clone(&board));
    let hub = PolicySlot::new((*incumbent).clone());

    let decide_epoch = canary.start_epoch + canary.window;
    let mut window_start: Option<FabricStatus> = None;
    let mut decision: Option<CanaryDecision> = None;
    let mut stats_out: Option<CanaryStats> = None;

    let serve = serve_with(
        &contract,
        Some(&hub),
        scenario,
        episode_seeds,
        &cfg,
        |epoch| {
            if epoch == canary.start_epoch {
                // The board holds the previous boundary's state; the
                // candidate's publish below lands at *this* boundary, so the
                // snapshot cleanly precedes all candidate traffic.
                window_start = Some(board.snapshot());
                hub.publish_to(Arc::clone(&candidate), &canary.canary_shards);
            } else if epoch == decide_epoch {
                #[allow(
                    clippy::expect_used,
                    reason = "a valid window is at least one epoch long, so the \
                              start epoch's arm has run"
                )]
                let window_start = window_start
                    .take()
                    .expect("window start precedes window end");
                let stats = CanaryStats {
                    incumbent_version: incumbent.version,
                    candidate_version: candidate.version,
                    window_start,
                    window_end: board.snapshot(),
                };
                let verdict = judge(&stats);
                match verdict {
                    // A broadcast converges every shard at this boundary.
                    CanaryDecision::Promote => hub.publish(Arc::clone(&candidate)),
                    CanaryDecision::Rollback => {
                        hub.publish_to(Arc::clone(&incumbent), &canary.canary_shards);
                    }
                }
                stats_out = Some(stats);
                decision = Some(verdict);
            }
        },
    );

    CanaryOutcome {
        serve,
        report: CanaryReport {
            decision,
            stats: stats_out,
            incumbent_version: incumbent.version,
            candidate_version: candidate.version,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dosco_serve::ServeReport;

    fn status(
        decisions: u64,
        by_version: Vec<(u64, u64)>,
        completed: u64,
        dropped: u64,
    ) -> FabricStatus {
        FabricStatus {
            report: ServeReport {
                decisions,
                decisions_by_version: by_version,
                ..ServeReport::default()
            },
            flows_completed: completed,
            flows_dropped: dropped,
            ..FabricStatus::default()
        }
    }

    fn stats(start: FabricStatus, end: FabricStatus) -> CanaryStats {
        CanaryStats {
            incumbent_version: 1,
            candidate_version: 2,
            window_start: start,
            window_end: end,
        }
    }

    #[test]
    fn config_validation() {
        assert!(CanaryConfig::new(vec![0], 1, 4).validate().is_ok());
        assert!(CanaryConfig::new(vec![], 1, 4).validate().is_err());
        assert!(CanaryConfig::new(vec![0], 0, 4).validate().is_err());
        assert!(CanaryConfig::new(vec![0], 1, 0).validate().is_err());
    }

    #[test]
    fn stats_deltas_are_window_relative() {
        let s = stats(
            status(100, vec![(1, 100)], 40, 10),
            status(180, vec![(1, 150), (2, 30)], 70, 20),
        );
        assert_eq!(s.incumbent_decisions(), 50);
        assert_eq!(s.candidate_decisions(), 30);
        assert_eq!(s.window_decisions(), 80);
        assert_eq!(s.window_flows_completed(), 30);
        assert_eq!(s.window_flows_dropped(), 10);
        assert_eq!(s.window_success_ratio(), Some(0.75));
        assert_eq!(s.baseline_success_ratio(), Some(0.8));
    }

    #[test]
    fn threshold_judge_promotes_healthy_candidates() {
        let judge = ThresholdJudge::default();
        // Window ratio 0.75 vs baseline 0.8: within the 0.05 tolerance.
        let s = stats(
            status(100, vec![(1, 100)], 40, 10),
            status(180, vec![(1, 150), (2, 30)], 70, 20),
        );
        assert_eq!(judge.decide(&s), CanaryDecision::Promote);
    }

    #[test]
    fn threshold_judge_rolls_back_idle_candidates() {
        let judge = ThresholdJudge::default();
        let s = stats(
            status(100, vec![(1, 100)], 40, 10),
            status(180, vec![(1, 180)], 70, 20),
        );
        assert_eq!(s.candidate_decisions(), 0);
        assert_eq!(judge.decide(&s), CanaryDecision::Rollback);
    }

    #[test]
    fn threshold_judge_rolls_back_success_regressions() {
        let judge = ThresholdJudge::default();
        // Baseline 0.8, window 0.5: far beyond the tolerated drop.
        let s = stats(
            status(100, vec![(1, 100)], 40, 10),
            status(180, vec![(1, 150), (2, 30)], 50, 20),
        );
        assert_eq!(judge.decide(&s), CanaryDecision::Rollback);
    }

    #[test]
    fn threshold_judge_tolerates_vacuous_windows() {
        let judge = ThresholdJudge::default();
        // Candidate served, but no flow terminated inside the window:
        // nothing contradicts it.
        let s = stats(
            status(100, vec![(1, 100)], 40, 10),
            status(180, vec![(1, 150), (2, 30)], 40, 10),
        );
        assert_eq!(s.window_success_ratio(), None);
        assert_eq!(judge.decide(&s), CanaryDecision::Promote);
    }
}

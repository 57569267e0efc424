//! Epoch-scripted shard outages for the serving fabric.
//!
//! Outages are indexed by the epoch counter rather than wall clock, so
//! a chaos scenario degrades the same way on every run — the fault tests
//! are ordinary deterministic tests.

use std::ops::Range;

/// A deterministic outage script: the epochs each shard is down for. A
/// window's start takes its shard down — its nodes' decisions fall back
/// to shortest-path — and its end brings the shard back up on the policy
/// last published to it.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultScript {
    windows: Vec<(usize, Range<u64>)>,
}

impl FaultScript {
    /// An empty script (no faults).
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a kill window: `shard` is down for every epoch in
    /// `[from_epoch, until_epoch)`.
    #[must_use]
    pub fn kill(mut self, shard: usize, from_epoch: u64, until_epoch: u64) -> Self {
        self.windows.push((shard, from_epoch..until_epoch));
        self
    }

    /// Whether a window takes `shard` down at `epoch`.
    pub fn down(&self, shard: usize, epoch: u64) -> bool {
        self.windows
            .iter()
            .any(|(s, w)| *s == shard && w.contains(&epoch))
    }

    /// Whether the script has no window.
    pub fn is_empty(&self) -> bool {
        self.windows.is_empty()
    }

    /// The first scripted shard index outside `0..num_shards`, if any.
    pub(crate) fn shard_outside(&self, num_shards: usize) -> Option<usize> {
        self.windows
            .iter()
            .map(|&(s, _)| s)
            .find(|&s| s >= num_shards)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windows_are_half_open() {
        let s = FaultScript::new().kill(1, 5, 8);
        assert!(!s.down(1, 4));
        assert!(s.down(1, 5));
        assert!(s.down(1, 7));
        assert!(!s.down(1, 8), "recovery epoch is exclusive");
        assert!(!s.down(0, 5));
        assert!(!s.is_empty());
        assert!(FaultScript::new().is_empty());
        assert_eq!(s.shard_outside(2), None);
        assert_eq!(s.shard_outside(1), Some(1));
    }
}

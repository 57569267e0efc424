//! Scoped span timers for training hot paths.

use crate::registry::{record_span_ns, SpanKind};
use std::time::Instant;

/// A scoped timer: created by [`crate::span()`], records its elapsed wall
/// time into the global registry when dropped. When span timing is
/// disabled (the default) the guard holds no clock and drop is a no-op —
/// the whole round trip costs one relaxed atomic load.
///
/// Span durations never enter the trace file (wall clock would break
/// byte-determinism); they surface only through [`crate::report()`].
#[derive(Debug)]
#[must_use = "a span timer records on drop; binding it to `_` drops immediately"]
pub struct SpanTimer {
    kind: SpanKind,
    start: Option<Instant>,
}

impl SpanTimer {
    /// A live timer that records on drop.
    pub(crate) fn armed(kind: SpanKind) -> Self {
        SpanTimer {
            kind,
            start: Some(Instant::now()),
        }
    }

    /// A disarmed no-op timer.
    pub(crate) fn disarmed(kind: SpanKind) -> Self {
        SpanTimer { kind, start: None }
    }

    /// The instrumented section this timer belongs to.
    pub fn kind(&self) -> SpanKind {
        self.kind
    }
}

impl Drop for SpanTimer {
    fn drop(&mut self) {
        if let Some(start) = self.start {
            let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            record_span_ns(self.kind, ns);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::{reset, span_snapshot, tests::REGISTRY_TEST_LOCK};

    #[test]
    fn armed_timer_records_on_drop() {
        let _guard = REGISTRY_TEST_LOCK.lock();
        reset();
        {
            let _t = SpanTimer::armed(SpanKind::RolloutCollect);
            std::hint::black_box(1 + 1);
        }
        let (count, total, _) = span_snapshot(SpanKind::RolloutCollect);
        assert_eq!(count, 1);
        assert!(total > 0 || cfg!(miri), "elapsed time should be nonzero");
    }

    #[test]
    fn disarmed_timer_records_nothing() {
        let _guard = REGISTRY_TEST_LOCK.lock();
        reset();
        {
            let _t = SpanTimer::disarmed(SpanKind::Gemm);
        }
        assert_eq!(span_snapshot(SpanKind::Gemm).0, 0);
    }
}

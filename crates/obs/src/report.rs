//! The serializable per-run observability report: a snapshot of the whole
//! metrics registry.

use crate::registry::{
    counter_value, gauge_value, histogram_snapshot, span_snapshot, CounterKind, GaugeKind,
    HistKind, SpanKind,
};
use serde::{Deserialize, Serialize};

/// One named monotonic counter.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CounterStat {
    /// Stable snake_case name.
    pub name: String,
    /// Current value.
    pub value: u64,
}

/// One named last-value gauge.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GaugeStat {
    /// Stable snake_case name.
    pub name: String,
    /// Current value.
    pub value: f64,
}

/// One bucket of a histogram: observations with `value <= le` (and above
/// the previous bound); `le = null` is the overflow bucket.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BucketStat {
    /// Inclusive upper bound, `null` for the overflow bucket.
    pub le: Option<f64>,
    /// Observations in this bucket.
    pub count: u64,
}

/// One named fixed-bucket histogram.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HistogramStat {
    /// Stable snake_case name.
    pub name: String,
    /// The buckets, in ascending bound order; the last is the overflow.
    pub buckets: Vec<BucketStat>,
    /// Total observations.
    pub count: u64,
    /// Sum of observed values.
    pub sum: f64,
}

/// One named span-timing accumulator.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SpanStat {
    /// Stable snake_case name.
    pub name: String,
    /// Times the section ran.
    pub count: u64,
    /// Total wall time across runs, milliseconds.
    pub total_ms: f64,
    /// Longest single run, milliseconds.
    pub max_ms: f64,
}

/// Snapshot of the global metrics registry for one run. The shape is
/// fixed — every known counter/gauge/histogram/span appears, zeroed if
/// untouched — so reports diff cleanly across runs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ObsReport {
    /// Trace schema version this build writes.
    pub schema: u32,
    /// All counters.
    pub counters: Vec<CounterStat>,
    /// All gauges.
    pub gauges: Vec<GaugeStat>,
    /// All histograms.
    pub histograms: Vec<HistogramStat>,
    /// All span accumulators.
    pub spans: Vec<SpanStat>,
}

impl ObsReport {
    /// Captures the current registry state.
    pub fn capture() -> Self {
        let counters = CounterKind::ALL
            .iter()
            .map(|&k| CounterStat {
                name: k.name().to_string(),
                value: counter_value(k),
            })
            .collect();
        let gauges = GaugeKind::ALL
            .iter()
            .map(|&k| GaugeStat {
                name: k.name().to_string(),
                value: gauge_value(k),
            })
            .collect();
        let histograms = HistKind::ALL
            .iter()
            .map(|&k| {
                let (buckets, count, sum) = histogram_snapshot(k);
                let bounds = k.bounds();
                HistogramStat {
                    name: k.name().to_string(),
                    buckets: buckets
                        .into_iter()
                        .enumerate()
                        .map(|(i, count)| BucketStat {
                            le: bounds.get(i).copied(),
                            count,
                        })
                        .collect(),
                    count,
                    sum,
                }
            })
            .collect();
        let spans = SpanKind::ALL
            .iter()
            .map(|&k| {
                let (count, total_ns, max_ns) = span_snapshot(k);
                SpanStat {
                    name: k.name().to_string(),
                    count,
                    total_ms: total_ns as f64 / 1e6,
                    max_ms: max_ns as f64 / 1e6,
                }
            })
            .collect();
        ObsReport {
            schema: crate::SCHEMA_VERSION,
            counters,
            gauges,
            histograms,
            spans,
        }
    }

    /// Serializes the report to compact JSON. Deterministic by
    /// construction: struct fields serialize in declaration order and
    /// every collection is built from the fixed `ALL` enumeration of its
    /// kind, so identical registry state yields byte-identical output.
    ///
    /// # Panics
    ///
    /// Never: the vendored serializer cannot fail on its in-memory model.
    pub fn to_json(&self) -> String {
        #[allow(clippy::expect_used, reason = "the documented # Panics contract")]
        serde_json::to_string(self).expect("in-memory serialization cannot fail")
    }

    /// The span stat named `name`, if known.
    pub fn span(&self, name: &str) -> Option<&SpanStat> {
        self.spans.iter().find(|s| s.name == name)
    }

    /// The counter stat named `name`, if known.
    pub fn counter(&self, name: &str) -> Option<&CounterStat> {
        self.counters.iter().find(|c| c.name == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::{count, observe, record_span_ns, reset, tests::REGISTRY_TEST_LOCK};

    #[test]
    fn capture_has_fixed_shape_and_round_trips() {
        let _guard = REGISTRY_TEST_LOCK.lock();
        reset();
        count(CounterKind::TraceEvents, 5);
        observe(HistKind::ServeBatchSize, 2.0);
        record_span_ns(SpanKind::Gemm, 1_500_000);
        record_span_ns(SpanKind::KfacPrecondition, 250_000);
        let r = ObsReport::capture();
        assert_eq!(r.counters.len(), CounterKind::ALL.len());
        assert_eq!(r.gauges.len(), GaugeKind::ALL.len());
        assert_eq!(r.histograms.len(), HistKind::ALL.len());
        assert_eq!(r.spans.len(), SpanKind::ALL.len());
        assert_eq!(r.counter("trace_events").unwrap().value, 5);
        let g = r.span("gemm").unwrap();
        assert_eq!(g.count, 1);
        assert!((g.total_ms - 1.5).abs() < 1e-9);
        // Report order is `SpanKind::ALL` order: the three K-FAC phases
        // of one update sit together.
        let names: Vec<&str> = r.spans.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(
            names[1..4],
            ["kfac_stats", "kfac_inversion", "kfac_precondition"]
        );
        assert_eq!(r.span("kfac_precondition").unwrap().count, 1);
        // Overflow bucket is the null-bounded last one.
        let h = r
            .histograms
            .iter()
            .find(|h| h.name == "serve_batch_size")
            .unwrap();
        assert_eq!(h.buckets.last().unwrap().le, None);
        assert_eq!(h.count, 1);
        let json = serde_json::to_string(&r).unwrap();
        let back: ObsReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, r);
        reset();
    }

    /// The ops-surface contract: identical registry state serializes to
    /// byte-identical JSON, run after run. The state is rebuilt from
    /// scratch between captures (reset + identical updates), so the test
    /// pins ordering determinism, not object identity.
    #[test]
    fn registry_json_export_is_byte_identical_across_runs() {
        let _guard = REGISTRY_TEST_LOCK.lock();
        let build_state = || {
            reset();
            count(CounterKind::ServeDecisions, 17);
            count(CounterKind::ServeSwaps, 3);
            crate::registry::set_gauge(crate::registry::GaugeKind::LastSuccessRatio, 0.875);
            observe(HistKind::ServeBatchSize, 4.0);
            observe(HistKind::NodeUtil, 0.5);
            record_span_ns(SpanKind::ServeBatchForward, 2_000_000);
            ObsReport::capture().to_json()
        };
        let a = build_state();
        let b = build_state();
        assert_eq!(a, b, "identical registry state must serialize identically");
        // And the export is valid JSON that round-trips.
        let back: ObsReport = serde_json::from_str(&a).unwrap();
        assert_eq!(back.to_json(), a);
        reset();
    }

    #[test]
    fn untouched_registry_reports_zeros() {
        let _guard = REGISTRY_TEST_LOCK.lock();
        reset();
        let r = ObsReport::capture();
        assert!(r.counters.iter().all(|c| c.value == 0));
        assert!(r.spans.iter().all(|s| s.count == 0));
        assert!(r.histograms.iter().all(|h| h.count == 0));
    }
}

//! The global metrics registry: a fixed set of counters, gauges,
//! fixed-bucket histograms, and span-timing accumulators, all lock-free
//! atomics. Snapshot with [`crate::report()`], zero with [`crate::reset`].
//!
//! The registry is deliberately *not* part of the trace: span durations
//! are wall-clock and would break trace determinism, so they only surface
//! in the in-memory [`crate::ObsReport`].
//!
//! The simulator's drop-cause and churn series and the serving fabric's
//! decision series are folds, not live counts: a simulation adds its
//! `Metrics` and `ChurnStats` totals once, when it is dropped, and a
//! serving run adds its `ServeReport` once, when it finishes, so they move
//! at episode or run end. Live, the registry counts only what nothing else
//! tallies: net frames and bytes, serve batch rows and sizes, sampled
//! utilization, spans and trace volume.

use std::sync::atomic::{AtomicU64, Ordering};

/// Monotonic event counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CounterKind {
    /// Trace events handed to the installed recorder.
    TraceEvents,
    /// Simulation episodes that emitted a trace stream.
    EpisodesTraced,
    /// Mid-episode samples taken at decision points.
    DecisionSamples,
    /// Decisions answered by the serving fabric (batched + fallback),
    /// added when a serving run finishes.
    ServeDecisions,
    /// Serve decisions degraded to the shortest-path fallback because the
    /// owning shard was down, added when a serving run finishes.
    ServeFallbacks,
    /// Policy hot-swaps taken by the serving fabric, added when a serving
    /// run finishes.
    ServeSwaps,
    /// Frames written to a `dosco_net` socket transport.
    NetFramesSent,
    /// Frames read from a `dosco_net` socket transport.
    NetFramesReceived,
    /// Payload + header bytes written to a `dosco_net` socket transport.
    NetBytesSent,
    /// Payload + header bytes read from a `dosco_net` socket transport.
    NetBytesReceived,
    /// Socket-transport sends that found the bounded outbound queue full
    /// (the net plane's backpressure signal).
    NetSocketStalls,
    /// Substrate churn actions applied by the simulator. This and the
    /// other `Churn*` and `Drop*` counters are added when a simulation is
    /// dropped.
    ChurnEventsApplied,
    /// Path-table invalidations by routing-affecting churn actions.
    ChurnSpRecomputes,
    /// Flows killed by link/node failures (substrate churn).
    ChurnFlowsKilled,
    /// Component instances lost with failed nodes (substrate churn).
    ChurnInstancesLost,
    /// Flows dropped for exceeding node compute capacity.
    DropNodeCapacity,
    /// Flows dropped for exceeding link data-rate capacity.
    DropLinkCapacity,
    /// Flows dropped because their deadline expired.
    DropDeadlineExpired,
    /// Flows dropped because the agent picked a non-existing neighbor.
    DropInvalidAction,
    /// Flows dropped because their carrying link failed mid-transit.
    DropLinkFailure,
    /// Flows dropped because their hosting node failed.
    DropNodeFailure,
}

impl CounterKind {
    /// All counters, in report order.
    pub const ALL: [CounterKind; 21] = [
        CounterKind::TraceEvents,
        CounterKind::EpisodesTraced,
        CounterKind::DecisionSamples,
        CounterKind::ServeDecisions,
        CounterKind::ServeFallbacks,
        CounterKind::ServeSwaps,
        CounterKind::NetFramesSent,
        CounterKind::NetFramesReceived,
        CounterKind::NetBytesSent,
        CounterKind::NetBytesReceived,
        CounterKind::NetSocketStalls,
        CounterKind::ChurnEventsApplied,
        CounterKind::ChurnSpRecomputes,
        CounterKind::ChurnFlowsKilled,
        CounterKind::ChurnInstancesLost,
        CounterKind::DropNodeCapacity,
        CounterKind::DropLinkCapacity,
        CounterKind::DropDeadlineExpired,
        CounterKind::DropInvalidAction,
        CounterKind::DropLinkFailure,
        CounterKind::DropNodeFailure,
    ];

    /// Stable snake_case name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            CounterKind::TraceEvents => "trace_events",
            CounterKind::EpisodesTraced => "episodes_traced",
            CounterKind::DecisionSamples => "decision_samples",
            CounterKind::ServeDecisions => "serve_decisions",
            CounterKind::ServeFallbacks => "serve_fallbacks",
            CounterKind::ServeSwaps => "serve_swaps",
            CounterKind::NetFramesSent => "net_frames_sent",
            CounterKind::NetFramesReceived => "net_frames_received",
            CounterKind::NetBytesSent => "net_bytes_sent",
            CounterKind::NetBytesReceived => "net_bytes_received",
            CounterKind::NetSocketStalls => "net_socket_stalls",
            CounterKind::ChurnEventsApplied => "churn_events_applied",
            CounterKind::ChurnSpRecomputes => "churn_sp_recomputes",
            CounterKind::ChurnFlowsKilled => "churn_flows_killed",
            CounterKind::ChurnInstancesLost => "churn_instances_lost",
            CounterKind::DropNodeCapacity => "drop_node_capacity",
            CounterKind::DropLinkCapacity => "drop_link_capacity",
            CounterKind::DropDeadlineExpired => "drop_deadline_expired",
            CounterKind::DropInvalidAction => "drop_invalid_action",
            CounterKind::DropLinkFailure => "drop_link_failure",
            CounterKind::DropNodeFailure => "drop_node_failure",
        }
    }

    const fn idx(self) -> usize {
        self as usize
    }
}

/// Last-value gauges (f64, stored as bit patterns).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GaugeKind {
    /// Success ratio of the most recently dropped simulation (left as is
    /// when no flow of it terminated).
    LastSuccessRatio,
    /// In-flight flows of the most recently dropped simulation.
    LastInFlight,
    /// Peak node utilization seen at any sample.
    PeakNodeUtil,
    /// Peak link utilization seen at any sample.
    PeakLinkUtil,
    /// Rows of the most recent serving forward (both parts of a batch).
    LastServeQueueDepth,
    /// Most rows one serving forward has had.
    PeakServeQueueDepth,
    /// Final substrate topology version (churn actions applied) of the
    /// most recently dropped simulation that ran a churn timeline.
    TopoVersion,
    /// Success ratio over the sliding termination window at the end of the
    /// most recently dropped simulation that ran a churn timeline (a
    /// fault's blast radius/recovery).
    WindowedSuccessRatio,
}

impl GaugeKind {
    /// All gauges, in report order.
    pub const ALL: [GaugeKind; 8] = [
        GaugeKind::LastSuccessRatio,
        GaugeKind::LastInFlight,
        GaugeKind::PeakNodeUtil,
        GaugeKind::PeakLinkUtil,
        GaugeKind::LastServeQueueDepth,
        GaugeKind::PeakServeQueueDepth,
        GaugeKind::TopoVersion,
        GaugeKind::WindowedSuccessRatio,
    ];

    /// Stable snake_case name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            GaugeKind::LastSuccessRatio => "last_success_ratio",
            GaugeKind::LastInFlight => "last_in_flight",
            GaugeKind::PeakNodeUtil => "peak_node_util",
            GaugeKind::PeakLinkUtil => "peak_link_util",
            GaugeKind::LastServeQueueDepth => "last_serve_queue_depth",
            GaugeKind::PeakServeQueueDepth => "peak_serve_queue_depth",
            GaugeKind::TopoVersion => "topo_version",
            GaugeKind::WindowedSuccessRatio => "windowed_success_ratio",
        }
    }

    const fn idx(self) -> usize {
        self as usize
    }
}

/// Fixed-bucket histograms.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HistKind {
    /// Node utilization at episode samples.
    NodeUtil,
    /// Link utilization at episode samples.
    LinkUtil,
    /// Rows per batched forward in the serving fabric's shards.
    ServeBatchSize,
}

/// Upper bucket bounds for utilizations (fractions of capacity); a final
/// overflow bucket catches everything larger.
const UTIL_BOUNDS: [f64; 5] = [0.2, 0.4, 0.6, 0.8, 1.0];
/// Upper bucket bounds for serve batch sizes (rows per forward).
const BATCH_BOUNDS: [f64; 6] = [1.0, 2.0, 4.0, 8.0, 16.0, 32.0];
/// Largest bucket count of any histogram (bounds + overflow).
const MAX_BUCKETS: usize = BATCH_BOUNDS.len() + 1;

impl HistKind {
    /// All histograms, in report order.
    pub const ALL: [HistKind; 3] = [
        HistKind::NodeUtil,
        HistKind::LinkUtil,
        HistKind::ServeBatchSize,
    ];

    /// Stable snake_case name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            HistKind::NodeUtil => "node_util",
            HistKind::LinkUtil => "link_util",
            HistKind::ServeBatchSize => "serve_batch_size",
        }
    }

    /// The inclusive upper bounds of this histogram's buckets; values above
    /// the last bound land in an overflow bucket.
    pub fn bounds(self) -> &'static [f64] {
        match self {
            HistKind::NodeUtil | HistKind::LinkUtil => &UTIL_BOUNDS,
            HistKind::ServeBatchSize => &BATCH_BOUNDS,
        }
    }

    const fn idx(self) -> usize {
        self as usize
    }
}

/// Instrumented hot-path sections timed by [`crate::span()`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    /// Blocked GEMM kernels (`matmul*_into` in `dosco_nn`).
    Gemm,
    /// K-FAC Kronecker-factor statistics updates.
    KfacStats,
    /// K-FAC damped Cholesky factor inversions.
    KfacInversion,
    /// K-FAC preconditioning `A⁻¹ · ∇ · G⁻¹` of one step's gradients.
    KfacPrecondition,
    /// Rollout collection (`RolloutCollector::collect`).
    RolloutCollect,
    /// Actor blocking on a full experience channel.
    ChannelSend,
    /// Learner blocking on an empty experience channel.
    ChannelRecv,
    /// Learner applying one update batch.
    LearnerUpdate,
    /// Snapshot clone + publish into the policy slot.
    SnapshotPublish,
    /// One batched serving forward on the epoch loop's thread (the part
    /// of a batch the helper thread does not take).
    ServeBatchForward,
    /// One batched serve decision end to end: decision point reached to
    /// action applied.
    ServeDecision,
    /// Encoding one wire message (serde tree -> binary frame payload).
    NetEncode,
    /// Decoding one wire message (binary frame payload -> serde tree).
    NetDecode,
    /// One layer's hidden activation (`tanh` over its batch) in a
    /// `dosco_nn` forward pass: the forward's other half, next to `Gemm`.
    Activation,
    /// The serve epoch loop's collect step, in an epoch that forwarded a
    /// row: stepping every live episode to its next decision and
    /// stacking its observation.
    ServeCollect,
    /// The serve epoch loop's forward step, in an epoch that forwarded a
    /// row: from handing the helper thread its rows, through the forwards
    /// on the loop's thread, to the helper's join.
    ServeBarrier,
}

impl SpanKind {
    /// All spans, in report order.
    pub const ALL: [SpanKind; 16] = [
        SpanKind::Gemm,
        SpanKind::KfacStats,
        SpanKind::KfacInversion,
        SpanKind::KfacPrecondition,
        SpanKind::RolloutCollect,
        SpanKind::ChannelSend,
        SpanKind::ChannelRecv,
        SpanKind::LearnerUpdate,
        SpanKind::SnapshotPublish,
        SpanKind::ServeBatchForward,
        SpanKind::ServeDecision,
        SpanKind::NetEncode,
        SpanKind::NetDecode,
        SpanKind::Activation,
        SpanKind::ServeCollect,
        SpanKind::ServeBarrier,
    ];

    /// Stable snake_case name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::Gemm => "gemm",
            SpanKind::KfacStats => "kfac_stats",
            SpanKind::KfacInversion => "kfac_inversion",
            SpanKind::KfacPrecondition => "kfac_precondition",
            SpanKind::RolloutCollect => "rollout_collect",
            SpanKind::ChannelSend => "channel_send",
            SpanKind::ChannelRecv => "channel_recv",
            SpanKind::LearnerUpdate => "learner_update",
            SpanKind::SnapshotPublish => "snapshot_publish",
            SpanKind::ServeBatchForward => "serve_batch_forward",
            SpanKind::ServeDecision => "serve_decision",
            SpanKind::NetEncode => "net_encode",
            SpanKind::NetDecode => "net_decode",
            SpanKind::Activation => "activation",
            SpanKind::ServeCollect => "serve_collect",
            SpanKind::ServeBarrier => "serve_barrier",
        }
    }

    const fn idx(self) -> usize {
        self as usize
    }
}

/// One span accumulator cell.
#[derive(Debug, Default)]
struct SpanCell {
    count: AtomicU64,
    total_ns: AtomicU64,
    max_ns: AtomicU64,
}

/// One histogram cell: bucket counts, total count, and the value sum
/// (f64 bits, updated by CAS — recording is rare enough that contention
/// is negligible).
#[derive(Debug)]
struct HistCell {
    buckets: [AtomicU64; MAX_BUCKETS],
    count: AtomicU64,
    sum_bits: AtomicU64,
}

impl HistCell {
    const fn new() -> Self {
        HistCell {
            buckets: [const { AtomicU64::new(0) }; MAX_BUCKETS],
            count: AtomicU64::new(0),
            sum_bits: AtomicU64::new(0),
        }
    }
}

impl SpanCell {
    const fn new() -> Self {
        SpanCell {
            count: AtomicU64::new(0),
            total_ns: AtomicU64::new(0),
            max_ns: AtomicU64::new(0),
        }
    }
}

static SPANS: [SpanCell; SpanKind::ALL.len()] = [const { SpanCell::new() }; SpanKind::ALL.len()];
static COUNTERS: [AtomicU64; CounterKind::ALL.len()] =
    [const { AtomicU64::new(0) }; CounterKind::ALL.len()];
static GAUGES: [AtomicU64; GaugeKind::ALL.len()] =
    [const { AtomicU64::new(0) }; GaugeKind::ALL.len()];
static HISTS: [HistCell; HistKind::ALL.len()] = [const { HistCell::new() }; HistKind::ALL.len()];

/// Adds `n` to a counter.
#[inline]
pub fn count(kind: CounterKind, n: u64) {
    COUNTERS[kind.idx()].fetch_add(n, Ordering::Relaxed);
}

/// Reads a counter.
pub fn counter_value(kind: CounterKind) -> u64 {
    COUNTERS[kind.idx()].load(Ordering::Relaxed)
}

/// Sets a gauge to `value`.
#[inline]
pub fn set_gauge(kind: GaugeKind, value: f64) {
    GAUGES[kind.idx()].store(value.to_bits(), Ordering::Relaxed);
}

/// Raises a gauge to `value` if larger (peak tracking).
#[inline]
pub fn max_gauge(kind: GaugeKind, value: f64) {
    let cell = &GAUGES[kind.idx()];
    let mut cur = cell.load(Ordering::Relaxed);
    while f64::from_bits(cur) < value {
        match cell.compare_exchange_weak(cur, value.to_bits(), Ordering::Relaxed, Ordering::Relaxed)
        {
            Ok(_) => break,
            Err(seen) => cur = seen,
        }
    }
}

/// Reads a gauge.
pub fn gauge_value(kind: GaugeKind) -> f64 {
    f64::from_bits(GAUGES[kind.idx()].load(Ordering::Relaxed))
}

/// Records one observation into a histogram.
#[inline]
pub fn observe(kind: HistKind, value: f64) {
    let cell = &HISTS[kind.idx()];
    let bounds = kind.bounds();
    let bucket = bounds
        .iter()
        .position(|&b| value <= b)
        .unwrap_or(bounds.len());
    cell.buckets[bucket].fetch_add(1, Ordering::Relaxed);
    cell.count.fetch_add(1, Ordering::Relaxed);
    let mut cur = cell.sum_bits.load(Ordering::Relaxed);
    loop {
        let next = (f64::from_bits(cur) + value).to_bits();
        match cell
            .sum_bits
            .compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed)
        {
            Ok(_) => break,
            Err(seen) => cur = seen,
        }
    }
}

/// Snapshot of one histogram: per-bucket counts aligned with
/// `kind.bounds()` plus a final overflow bucket, the observation count,
/// and the value sum.
pub fn histogram_snapshot(kind: HistKind) -> (Vec<u64>, u64, f64) {
    let cell = &HISTS[kind.idx()];
    let n = kind.bounds().len() + 1;
    let buckets = (0..n)
        .map(|i| cell.buckets[i].load(Ordering::Relaxed))
        .collect();
    (
        buckets,
        cell.count.load(Ordering::Relaxed),
        f64::from_bits(cell.sum_bits.load(Ordering::Relaxed)),
    )
}

/// Adds one timed section of `ns` nanoseconds to a span accumulator. This
/// is the raw entry point behind [`crate::span()`]; callers that already
/// hold a duration (e.g. the runtime's counters) call it directly.
#[inline]
pub fn record_span_ns(kind: SpanKind, ns: u64) {
    let cell = &SPANS[kind.idx()];
    cell.count.fetch_add(1, Ordering::Relaxed);
    cell.total_ns.fetch_add(ns, Ordering::Relaxed);
    cell.max_ns.fetch_max(ns, Ordering::Relaxed);
}

/// Snapshot of one span accumulator: `(count, total_ns, max_ns)`.
pub fn span_snapshot(kind: SpanKind) -> (u64, u64, u64) {
    let cell = &SPANS[kind.idx()];
    (
        cell.count.load(Ordering::Relaxed),
        cell.total_ns.load(Ordering::Relaxed),
        cell.max_ns.load(Ordering::Relaxed),
    )
}

/// Zeroes every counter, gauge, histogram, and span accumulator (between
/// benchmark phases or tests).
pub fn reset() {
    for c in &COUNTERS {
        c.store(0, Ordering::Relaxed);
    }
    for g in &GAUGES {
        g.store(0, Ordering::Relaxed);
    }
    for h in &HISTS {
        for b in &h.buckets {
            b.store(0, Ordering::Relaxed);
        }
        h.count.store(0, Ordering::Relaxed);
        h.sum_bits.store(0, Ordering::Relaxed);
    }
    for s in &SPANS {
        s.count.store(0, Ordering::Relaxed);
        s.total_ns.store(0, Ordering::Relaxed);
        s.max_ns.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    // The registry is global; tests touching it run under this lock so
    // parallel test threads don't interleave resets.
    pub(crate) static REGISTRY_TEST_LOCK: parking_lot::Mutex<()> = parking_lot::Mutex::new(());

    #[test]
    fn counters_and_gauges() {
        let _guard = REGISTRY_TEST_LOCK.lock();
        reset();
        count(CounterKind::TraceEvents, 2);
        count(CounterKind::TraceEvents, 1);
        assert_eq!(counter_value(CounterKind::TraceEvents), 3);
        set_gauge(GaugeKind::LastSuccessRatio, 0.75);
        assert_eq!(gauge_value(GaugeKind::LastSuccessRatio), 0.75);
        max_gauge(GaugeKind::PeakNodeUtil, 0.5);
        max_gauge(GaugeKind::PeakNodeUtil, 0.25); // lower: ignored
        assert_eq!(gauge_value(GaugeKind::PeakNodeUtil), 0.5);
        reset();
        assert_eq!(counter_value(CounterKind::TraceEvents), 0);
    }

    #[test]
    fn histogram_buckets_fixed_bounds() {
        let _guard = REGISTRY_TEST_LOCK.lock();
        reset();
        // Serve batch bounds: 1,2,4,8,16,32 + overflow.
        observe(HistKind::ServeBatchSize, 1.0); // bucket 0 (inclusive upper)
        observe(HistKind::ServeBatchSize, 2.0); // bucket 1
        observe(HistKind::ServeBatchSize, 3.0); // bucket 2 (<=4)
        observe(HistKind::ServeBatchSize, 100.0); // overflow
        let (buckets, count, sum) = histogram_snapshot(HistKind::ServeBatchSize);
        assert_eq!(buckets, vec![1, 1, 1, 0, 0, 0, 1]);
        assert_eq!(count, 4);
        assert!((sum - 106.0).abs() < 1e-12);
    }

    #[test]
    fn span_accumulates_and_tracks_max() {
        let _guard = REGISTRY_TEST_LOCK.lock();
        reset();
        record_span_ns(SpanKind::Gemm, 100);
        record_span_ns(SpanKind::Gemm, 300);
        record_span_ns(SpanKind::Gemm, 200);
        let (count, total, max) = span_snapshot(SpanKind::Gemm);
        assert_eq!((count, total, max), (3, 600, 300));
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(SpanKind::SnapshotPublish.name(), "snapshot_publish");
        assert_eq!(SpanKind::ServeDecision.name(), "serve_decision");
        assert_eq!(SpanKind::ServeCollect.name(), "serve_collect");
        assert_eq!(SpanKind::ServeBarrier.name(), "serve_barrier");
        assert_eq!(CounterKind::EpisodesTraced.name(), "episodes_traced");
        assert_eq!(CounterKind::ServeFallbacks.name(), "serve_fallbacks");
        assert_eq!(CounterKind::NetBytesSent.name(), "net_bytes_sent");
        assert_eq!(CounterKind::NetSocketStalls.name(), "net_socket_stalls");
        assert_eq!(SpanKind::NetEncode.name(), "net_encode");
        assert_eq!(SpanKind::NetDecode.name(), "net_decode");
        assert_eq!(GaugeKind::PeakLinkUtil.name(), "peak_link_util");
        assert_eq!(
            GaugeKind::PeakServeQueueDepth.name(),
            "peak_serve_queue_depth"
        );
        assert_eq!(
            CounterKind::ChurnEventsApplied.name(),
            "churn_events_applied"
        );
        assert_eq!(CounterKind::DropLinkFailure.name(), "drop_link_failure");
        assert_eq!(GaugeKind::TopoVersion.name(), "topo_version");
        assert_eq!(
            GaugeKind::WindowedSuccessRatio.name(),
            "windowed_success_ratio"
        );
        assert_eq!(HistKind::NodeUtil.name(), "node_util");
        assert_eq!(HistKind::ServeBatchSize.bounds().len() + 1, 7);
        // Every histogram fits the shared fixed-size bucket arrays.
        for h in HistKind::ALL {
            assert!(h.bounds().len() < MAX_BUCKETS, "{} overflows", h.name());
        }
    }
}

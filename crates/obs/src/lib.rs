//! # dosco-obs — deterministic observability
//!
//! A near-zero-overhead-when-disabled observability layer for the whole
//! dosco stack, with three pieces:
//!
//! 1. **Trace events** ([`Event`]): schema-versioned structured events —
//!    per-episode success/utilization time series from the simulator,
//!    batch/snapshot lifecycle from the actor–learner runtime — recorded
//!    through a global [`Recorder`]. The default [`NullRecorder`] discards
//!    everything behind a single relaxed atomic check; [`JsonlRecorder`]
//!    (installed by [`init_from_env`] when `DOSCO_TRACE` names a file)
//!    buffers per deterministic [`Stream`] and writes one JSON object per
//!    line, byte-identical across same-seed runs. Timestamps are sim-time
//!    or caller ticks only — never wall clock.
//! 2. **Metrics registry** ([`registry`]): fixed counters, gauges, and
//!    fixed-bucket histograms (e.g. serve batch sizes), all
//!    lock-free atomics.
//! 3. **Span timers** ([`span()`]): scoped wall-clock timers on training hot
//!    paths (GEMM, K-FAC inversion, rollout collection, channel waits,
//!    snapshot publishes). Disabled by default; when enabled they feed the
//!    registry, never the trace.
//!
//! [`report()`] snapshots everything as a serializable [`ObsReport`].
//!
//! ## Environment variables
//!
//! - `DOSCO_TRACE=<path>`: [`init_from_env`] installs a [`JsonlRecorder`]
//!   writing there (empty value = disabled).
//! - `DOSCO_TRACE_SAMPLE=<n>`: take a mid-episode sample every `n`-th
//!   coordination decision (default 64).
//! - `DOSCO_SPANS=1`: also enable span timers.
//!
//! ## Determinism contract
//!
//! A trace is byte-identical across runs when every stream is emitted by
//! deterministic sequential code and no two concurrent emitters share a
//! stream. The stack guarantees distinct streams per simulation seed,
//! actor, and learner, and the training runtime runs its actor and learner
//! in lockstep, so a traced training run is byte-stable (see
//! `examples/actor_learner.rs`).

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]
#![warn(missing_debug_implementations)]

pub mod env;
pub mod event;
pub mod recorder;
pub mod registry;
pub mod report;
pub mod span;

pub use env::EnvParseError;
pub use event::{Event, Stream, StreamKind, SCHEMA_VERSION};
pub use recorder::{JsonlRecorder, NullRecorder, Recorder};
pub use registry::{CounterKind, GaugeKind, HistKind, SpanKind};
pub use report::ObsReport;
pub use span::SpanTimer;

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

/// Fast-path gate for [`emit`]: true iff a recorder is installed.
static TRACE_ON: AtomicBool = AtomicBool::new(false);
/// Fast-path gate for [`span`].
static SPANS_ON: AtomicBool = AtomicBool::new(false);
/// Decision-sampling stride for mid-episode samples.
static SAMPLE_STRIDE: AtomicU64 = AtomicU64::new(DEFAULT_SAMPLE_STRIDE);
/// The installed recorder (std `RwLock`: const-constructible, and the
/// write lock is only taken at install/uninstall).
static RECORDER: RwLock<Option<Arc<dyn Recorder>>> = RwLock::new(None);

/// Default mid-episode sampling stride (decisions between samples).
pub const DEFAULT_SAMPLE_STRIDE: u64 = 64;

/// Whether a trace recorder is installed. One relaxed atomic load;
/// instrumentation sites branch on this before building any event.
#[inline(always)]
pub fn trace_enabled() -> bool {
    TRACE_ON.load(Ordering::Relaxed)
}

/// Whether span timers are armed. One relaxed atomic load.
#[inline(always)]
pub fn spans_enabled() -> bool {
    SPANS_ON.load(Ordering::Relaxed)
}

/// Installs `recorder` as the global trace sink and enables tracing.
/// Replaces (and returns) any previous recorder without flushing it.
pub fn install_recorder(recorder: Arc<dyn Recorder>) -> Option<Arc<dyn Recorder>> {
    let mut slot = RECORDER.write().expect("recorder lock poisoned");
    let old = slot.replace(recorder);
    TRACE_ON.store(true, Ordering::Release);
    old
}

/// Disables tracing and removes the recorder (unflushed), returning it.
pub fn uninstall_recorder() -> Option<Arc<dyn Recorder>> {
    TRACE_ON.store(false, Ordering::Release);
    RECORDER.write().expect("recorder lock poisoned").take()
}

/// Arms or disarms the span timers.
pub fn set_spans_enabled(on: bool) {
    SPANS_ON.store(on, Ordering::Release);
}

/// Sets the mid-episode sampling stride (clamped to ≥ 1).
pub fn set_sample_stride(stride: u64) {
    SAMPLE_STRIDE.store(stride.max(1), Ordering::Relaxed);
}

/// The current mid-episode sampling stride.
pub fn sample_stride() -> u64 {
    SAMPLE_STRIDE.load(Ordering::Relaxed)
}

/// Reads `DOSCO_TRACE` / `DOSCO_TRACE_SAMPLE` / `DOSCO_SPANS` and installs
/// a [`JsonlRecorder`] if a trace path is configured. Returns the trace
/// path if tracing was enabled. Empty-string variables count as unset.
pub fn init_from_env() -> Option<PathBuf> {
    if let Some(stride) = env_nonempty("DOSCO_TRACE_SAMPLE") {
        if let Ok(n) = stride.parse::<u64>() {
            set_sample_stride(n);
        }
    }
    if let Some(v) = env_nonempty("DOSCO_SPANS") {
        set_spans_enabled(v != "0");
    }
    let path = PathBuf::from(env_nonempty("DOSCO_TRACE")?);
    install_recorder(Arc::new(JsonlRecorder::new(path.clone())));
    Some(path)
}

fn env_nonempty(key: &str) -> Option<String> {
    match std::env::var(key) {
        Ok(v) if !v.trim().is_empty() => Some(v),
        _ => None,
    }
}

/// Emits one trace event on `stream`. The event closure runs only when a
/// recorder is installed, so the disabled path costs one relaxed load and
/// an untaken branch.
#[inline]
pub fn emit(stream: Stream, event: impl FnOnce() -> Event) {
    if trace_enabled() {
        emit_cold(stream, event());
    }
}

#[cold]
fn emit_cold(stream: Stream, event: Event) {
    let slot = RECORDER.read().expect("recorder lock poisoned");
    if let Some(recorder) = slot.as_ref() {
        recorder.record(stream, &event);
        registry::count(CounterKind::TraceEvents, 1);
    }
}

/// Flushes the installed recorder, if any.
///
/// # Errors
///
/// Propagates the recorder's I/O error.
pub fn flush() -> std::io::Result<()> {
    let slot = RECORDER.read().expect("recorder lock poisoned");
    match slot.as_ref() {
        Some(recorder) => recorder.flush(),
        None => Ok(()),
    }
}

/// Opens a scoped span timer for `kind`. Disabled (the default): returns a
/// disarmed guard — one relaxed load, no clock read. Enabled: the guard
/// records its elapsed wall time into the registry on drop.
#[inline]
pub fn span(kind: SpanKind) -> SpanTimer {
    if spans_enabled() {
        SpanTimer::armed(kind)
    } else {
        SpanTimer::disarmed(kind)
    }
}

/// Snapshots the metrics registry as a serializable [`ObsReport`].
pub fn report() -> ObsReport {
    ObsReport::capture()
}

/// Snapshots the metrics registry as deterministic JSON: identical
/// registry state always serializes to byte-identical output (fixed
/// field order, fixed counter/gauge/histogram/span enumeration order).
/// This is the payload the `dosco_ctl` `GET /metrics` endpoint serves.
pub fn report_json() -> String {
    ObsReport::capture().to_json()
}

/// Zeroes the metrics registry (counters, gauges, histograms, spans).
pub fn reset() {
    registry::reset();
}

#[cfg(test)]
mod tests {
    use super::*;
    // Global-state tests (recorder slot + registry) take the one lock
    // every registry test in the crate takes: a `reset` here must not
    // land inside another module's capture.
    use crate::registry::tests::REGISTRY_TEST_LOCK as GLOBAL_TEST_LOCK;

    #[test]
    fn emit_routes_to_installed_recorder_and_counts() {
        let _guard = GLOBAL_TEST_LOCK.lock();
        reset();
        assert!(!trace_enabled());
        emit(Stream::sim(1), || panic!("closure must not run while disabled"));
        let rec = Arc::new(JsonlRecorder::new("/tmp/unused-emit-test.jsonl"));
        install_recorder(rec.clone());
        assert!(trace_enabled());
        emit(Stream::sim(1), || Event::SnapshotPublished { version: 1, total_steps: 2 });
        assert_eq!(rec.len(), 1);
        assert_eq!(registry::counter_value(CounterKind::TraceEvents), 1);
        uninstall_recorder();
        assert!(!trace_enabled());
        reset();
    }

    #[test]
    fn span_disabled_by_default_enabled_records() {
        let _guard = GLOBAL_TEST_LOCK.lock();
        reset();
        assert!(!spans_enabled());
        drop(span(SpanKind::KfacInversion));
        assert_eq!(registry::span_snapshot(SpanKind::KfacInversion).0, 0);
        set_spans_enabled(true);
        drop(span(SpanKind::KfacInversion));
        assert_eq!(registry::span_snapshot(SpanKind::KfacInversion).0, 1);
        set_spans_enabled(false);
        reset();
    }

    #[test]
    fn sample_stride_clamps_to_one() {
        let _guard = GLOBAL_TEST_LOCK.lock();
        let before = sample_stride();
        set_sample_stride(0);
        assert_eq!(sample_stride(), 1);
        set_sample_stride(before);
    }

    #[test]
    fn flush_without_recorder_is_ok() {
        let _guard = GLOBAL_TEST_LOCK.lock();
        uninstall_recorder();
        flush().unwrap();
    }
}

//! # dosco-obs — deterministic observability
//!
//! A near-zero-overhead-when-disabled observability layer for the whole
//! dosco stack, with three pieces:
//!
//! 1. **Trace events** ([`Event`]): schema-versioned structured events —
//!    per-episode success/utilization time series from the simulator,
//!    batch/snapshot lifecycle from the actor–learner runtime — recorded
//!    through one global slot. While it is empty (the default) [`emit`]
//!    discards everything behind a single relaxed atomic check; the one
//!    sink, [`JsonlRecorder`] (installed by [`init_from_env`] when
//!    `DOSCO_TRACE` names a file, or by [`install_recorder`]), buffers per
//!    deterministic [`Stream`] and writes one JSON object per line,
//!    byte-identical across same-seed runs. Timestamps are sim-time
//!    or caller ticks only — never wall clock.
//! 2. **Metrics registry** ([`registry`]): fixed counters, gauges, and
//!    fixed-bucket histograms (e.g. serve batch sizes), all
//!    lock-free atomics. The series that restate a layer's own accounts
//!    are folds of them, written once per run (see [`registry`]).
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
//! - `DOSCO_SPANS=0|1`: disarm or arm the span timers (empty = unset).
//!
//! A set but malformed value is an [`EnvParseError`] naming the variable,
//! as everywhere in the workspace (see [`env`](mod@env)).
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
#![cfg_attr(not(test), deny(clippy::expect_used))]
#![warn(missing_debug_implementations)]

pub mod env;
pub mod event;
pub mod recorder;
pub mod registry;
pub mod report;
pub mod span;

pub use env::EnvParseError;
pub use event::{Event, Stream, StreamKind, SCHEMA_VERSION};
pub use recorder::JsonlRecorder;
pub use registry::{CounterKind, GaugeKind, HistKind, SpanKind};
pub use report::ObsReport;
pub use span::SpanTimer;

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, PoisonError, RwLock};

/// Fast-path gate for [`emit`]: true iff a recorder is installed.
static TRACE_ON: AtomicBool = AtomicBool::new(false);
/// Fast-path gate for [`span`].
static SPANS_ON: AtomicBool = AtomicBool::new(false);
/// The installed recorder (std `RwLock`: const-constructible, and the
/// write lock is only taken at install/uninstall). Every writer replaces
/// the slot whole, so a lock poisoned by a panicking holder still guards
/// a consistent value and is recovered, not propagated.
static RECORDER: RwLock<Option<Arc<JsonlRecorder>>> = RwLock::new(None);

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
pub fn install_recorder(recorder: Arc<JsonlRecorder>) -> Option<Arc<JsonlRecorder>> {
    let mut slot = RECORDER.write().unwrap_or_else(PoisonError::into_inner);
    let old = slot.replace(recorder);
    TRACE_ON.store(true, Ordering::Release);
    old
}

/// Disables tracing and removes the recorder (unflushed), returning it.
pub fn uninstall_recorder() -> Option<Arc<JsonlRecorder>> {
    TRACE_ON.store(false, Ordering::Release);
    RECORDER
        .write()
        .unwrap_or_else(PoisonError::into_inner)
        .take()
}

/// Arms or disarms the span timers.
pub fn set_spans_enabled(on: bool) {
    SPANS_ON.store(on, Ordering::Release);
}

/// Reads `DOSCO_TRACE` and `DOSCO_SPANS` through `get` (injectable for
/// tests, as [`env::parse_lookup`] is), arms or disarms the span timers,
/// and installs a [`JsonlRecorder`] if a trace path is configured.
/// Returns the trace path if tracing was enabled. Empty values count as
/// unset. Both variables are validated before either takes effect.
///
/// # Errors
///
/// Returns [`EnvParseError`] when `DOSCO_SPANS` is set to anything but
/// `0` or `1`.
pub fn init_from_lookup(
    get: &dyn Fn(&str) -> Option<String>,
) -> Result<Option<PathBuf>, EnvParseError> {
    let spans =
        env::parse_lookup::<String>(get, "DOSCO_SPANS", "0 or 1", |v| v == "0" || v == "1")?;
    let trace = env::parse_lookup::<PathBuf>(get, "DOSCO_TRACE", "a file path", |_| true)?;
    if let Some(v) = spans {
        set_spans_enabled(v == "1");
    }
    if let Some(path) = &trace {
        install_recorder(Arc::new(JsonlRecorder::new(path.clone())));
    }
    Ok(trace)
}

/// [`init_from_lookup`] over the process environment.
///
/// # Errors
///
/// See [`init_from_lookup`].
pub fn init_from_env() -> Result<Option<PathBuf>, EnvParseError> {
    init_from_lookup(&|v| std::env::var(v).ok())
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
    let slot = RECORDER.read().unwrap_or_else(PoisonError::into_inner);
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
    let slot = RECORDER.read().unwrap_or_else(PoisonError::into_inner);
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
        emit(Stream::sim(1), || {
            panic!("closure must not run while disabled")
        });
        let rec = Arc::new(JsonlRecorder::new("/tmp/unused-emit-test.jsonl"));
        install_recorder(rec.clone());
        assert!(trace_enabled());
        emit(Stream::sim(1), || Event::SnapshotPublished {
            version: 1,
            total_steps: 2,
        });
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
    fn spans_switch_accepts_0_1_and_empty_and_rejects_the_rest() {
        let _guard = GLOBAL_TEST_LOCK.lock();
        for bad in ["off", "yes"] {
            let err = init_from_lookup(&|v| (v == "DOSCO_SPANS").then(|| bad.to_string()))
                .expect_err("a malformed switch is an error");
            assert_eq!(err.var, "DOSCO_SPANS");
            assert!(err.to_string().contains("DOSCO_SPANS"), "{err}");
            assert!(!spans_enabled(), "a rejected value arms nothing");
        }
        for (value, armed) in [("1", true), ("", true), ("0", false), (" ", false)] {
            let got = init_from_lookup(&|v| (v == "DOSCO_SPANS").then(|| value.to_string()));
            assert_eq!(got, Ok(None), "{value:?} is accepted and installs no trace");
            assert_eq!(spans_enabled(), armed, "{value:?}");
        }
        assert!(!trace_enabled());
    }

    /// A holder that panics poisons the slot; install, emit, flush and
    /// uninstall still work, since the slot is only ever replaced whole.
    #[test]
    fn a_poisoned_recorder_slot_is_recovered() {
        let _guard = GLOBAL_TEST_LOCK.lock();
        let _ = std::thread::spawn(|| {
            let _slot = RECORDER.write().unwrap_or_else(PoisonError::into_inner);
            panic!("poisoning the recorder slot on purpose");
        })
        .join();
        assert!(RECORDER.is_poisoned());
        let rec = Arc::new(JsonlRecorder::new("/tmp/unused-poison-test.jsonl"));
        install_recorder(rec.clone());
        emit(Stream::sim(1), || Event::SnapshotPublished {
            version: 1,
            total_steps: 2,
        });
        assert_eq!(rec.len(), 1);
        assert!(Arc::ptr_eq(&uninstall_recorder().unwrap(), &rec));
        flush().unwrap();
        RECORDER.clear_poison();
        reset();
    }

    #[test]
    fn flush_without_recorder_is_ok() {
        let _guard = GLOBAL_TEST_LOCK.lock();
        uninstall_recorder();
        flush().unwrap();
    }
}

//! The run shape every workload shares: repeated cold set-ups, one warm-up
//! segment checked against an independent reference, then as many
//! *identical* timed segments as fit in the budget.
//!
//! Segments repeat the same seeds and inputs, so each must reproduce the
//! warm-up's output fingerprint bit for bit — that equality is the
//! determinism check — and all variation between their wall times is the
//! host's. The gated timings are quiet deciles over the segments
//! ([`crate::stats::quiet_decile`]).

use crate::spec::{END_TO_END, PER_LAYER};
use crate::stats::{self, Better};
use crate::trace::{SpanId, Tracer};
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

/// Fewest cold set-ups per run; `setup_s` is the fastest.
const SETUPS: usize = 7;
/// A set-up of a few milliseconds is repeated beyond [`SETUPS`] until this
/// much time is spent or [`MAX_SETUPS`] are done: its fastest repetition
/// only settles after a few dozen.
const SETUP_BUDGET_S: f64 = 0.25;
const MAX_SETUPS: usize = 64;
/// Fewest segments a phase runs, however short its budget: the quiet
/// decile needs three.
const MIN_SEGMENTS: usize = 3;

/// What one segment did.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Segment {
    /// Decisions requested (one `DecisionPoint` answered, or one env step
    /// in training).
    pub decisions: u64,
    /// Decisions answered by a fallback or lost to a dead transport.
    pub failed: u64,
    /// Hash of the outputs that must repeat (metrics or weights).
    pub fingerprint: u64,
    /// Median of the workload's latency unit within the segment.
    pub p50_us: f64,
}

/// Where a traced segment records its spans and counts.
#[derive(Debug)]
pub struct TraceCtx<'a> {
    /// The span store.
    pub tracer: &'a mut Tracer,
    /// The segment's root span.
    pub root: SpanId,
    /// The per-layer metric samples.
    pub layers: &'a mut Layers,
}

/// Runs `f` inside a span called `name` under the segment's root, if the
/// segment is traced.
pub fn in_span<R>(
    trace: &mut Option<TraceCtx<'_>>,
    name: &'static str,
    f: impl FnOnce() -> R,
) -> R {
    let span = trace.as_mut().map(|t| t.tracer.open(name, t.root));
    let result = f();
    if let (Some(t), Some(id)) = (trace.as_mut(), span) {
        t.tracer.close(id);
    }
    result
}

/// One benchmark workload.
pub trait Workload: Sized {
    /// Builds everything from cold — topology, scenario, all-pairs paths,
    /// policy or agent, churn timeline, fabric or transport — and
    /// completes the workload's smallest unit of work.
    fn setup(seed: u64) -> Self;

    /// Runs one segment. Always the same work for a given set-up.
    fn segment(&mut self, trace: Option<TraceCtx<'_>>) -> Segment;

    /// Checks the last segment's outputs against a computation that
    /// shares no code path with it (and against the workload's
    /// conservation laws), returning the fingerprint every segment must
    /// show.
    ///
    /// # Errors
    ///
    /// A description of the law that failed.
    fn reference(&mut self) -> Result<u64, String>;

    /// Standalone measurements of the layers this workload calls, on
    /// inputs taken from it. Traced runs only.
    fn probes(&mut self, layers: &mut Layers, out_dir: &Path);
}

/// Samples of every per-layer metric; a metric's value is the median of
/// its samples, 0 if the workload never touched it.
#[derive(Debug, Default)]
pub struct Layers {
    samples: BTreeMap<&'static str, Vec<f64>>,
    notes: Vec<String>,
}

impl Layers {
    /// Adds one sample.
    ///
    /// # Panics
    ///
    /// Panics if `name` is not a per-layer metric of [`PER_LAYER`].
    pub fn record(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|m| m.0 == name),
            "{name} is not a per-layer metric"
        );
        self.samples.entry(name).or_default().push(value);
    }

    /// Adds the busy time of every span of `segment` whose name, with
    /// `_s` appended, is a per-layer metric.
    pub fn record_spans(&mut self, tracer: &Tracer, segment: u32) {
        for (span, secs) in tracer.busy_s_by_name(segment) {
            if let Some(m) = PER_LAYER
                .iter()
                .find(|m| m.0.strip_suffix("_s") == Some(span))
            {
                self.record(m.0, secs);
            }
        }
    }

    /// Adds a line of prose to the run's output (a breakdown that does
    /// not fit a single number).
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Median of a metric's samples, if it has any.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.samples.get(name).map(|v| stats::median(v))
    }

    /// Every per-layer metric as `(name, unit, value)`, in [`PER_LAYER`]
    /// order.
    pub fn metrics(&self) -> Vec<(&'static str, &'static str, f64)> {
        PER_LAYER
            .iter()
            .map(|m| (m.0, m.1, self.get(m.0).unwrap_or(0.0)))
            .collect()
    }
}

/// The result of one run.
#[derive(Debug)]
pub struct Outcome {
    /// Whether every correctness check passed.
    pub correct: bool,
    /// What failed, one line per failed check.
    pub problems: Vec<String>,
    /// Decisions requested over all timed segments.
    pub attempted: u64,
    /// Decisions failed, plus every decision of a segment whose outputs
    /// did not repeat.
    pub failed: u64,
    /// `(name, unit, value)`: the end-to-end metrics of an untraced run,
    /// the per-layer metrics of a traced one.
    pub metrics: Vec<(&'static str, &'static str, f64)>,
    /// Prose the run wants printed with its metrics.
    pub notes: Vec<String>,
    /// The spans of a traced run.
    pub tracer: Option<Tracer>,
}

/// Peak resident set of this process so far (`VmHWM`), in MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Mean cost of one `Instant::now()` in nanoseconds.
fn timer_ns() -> f64 {
    const CALLS: u32 = 200_000;
    let start = Instant::now();
    let mut last = start;
    for _ in 0..CALLS {
        last = std::hint::black_box(Instant::now());
    }
    (last - start).as_nanos() as f64 / f64::from(CALLS)
}

struct Timed {
    walls: Vec<f64>,
    rates: Vec<f64>,
    p50s: Vec<f64>,
}

/// Runs segments until `budget_s` of wall clock is used (at least
/// [`MIN_SEGMENTS`]), checking each against `expect`.
fn run_segments<W: Workload>(
    w: &mut W,
    budget_s: f64,
    expect: u64,
    mut trace: Option<(&mut Tracer, &mut Layers)>,
    out: &mut Outcome,
) -> Timed {
    let mut t = Timed {
        walls: Vec::new(),
        rates: Vec::new(),
        p50s: Vec::new(),
    };
    let phase = Instant::now();
    while t.walls.len() < MIN_SEGMENTS || phase.elapsed().as_secs_f64() < budget_s {
        let start = Instant::now();
        let seg = match trace.as_mut() {
            Some((tracer, layers)) => {
                let root = tracer.open_segment();
                let seg = w.segment(Some(TraceCtx {
                    tracer,
                    root,
                    layers,
                }));
                tracer.close(root);
                let id = tracer.segments();
                layers.record_spans(tracer, id);
                layers.record("bench.accounted_pct", tracer.accounted_pct(id));
                seg
            }
            None => w.segment(None),
        };
        let wall = start.elapsed().as_secs_f64();
        out.attempted += seg.decisions;
        out.failed += seg.failed;
        if seg.fingerprint != expect {
            out.failed += seg.decisions - seg.failed;
            out.problems.push(format!(
                "segment {} fingerprint {:016x} differs from the warm-up's {expect:016x}",
                t.walls.len() + 1,
                seg.fingerprint
            ));
        }
        t.walls.push(wall);
        t.rates.push(seg.decisions as f64 / wall);
        t.p50s.push(seg.p50_us);
    }
    t
}

/// Runs workload `W` for about `seconds` of timed segments.
pub fn run<W: Workload>(seed: u64, seconds: f64, traced: bool, out_dir: &Path) -> Outcome {
    let mut out = Outcome {
        correct: true,
        problems: Vec::new(),
        attempted: 0,
        failed: 0,
        metrics: Vec::new(),
        notes: Vec::new(),
        tracer: None,
    };

    let mut setups = Vec::with_capacity(MAX_SETUPS);
    let phase = Instant::now();
    while setups.len() < SETUPS
        || (setups.len() < MAX_SETUPS && phase.elapsed().as_secs_f64() < SETUP_BUDGET_S)
    {
        let start = Instant::now();
        let w = W::setup(seed);
        setups.push(start.elapsed().as_secs_f64());
        drop(w);
    }
    let mut w = W::setup(seed);

    let warm = w.segment(None);
    let expect = match w.reference() {
        Ok(reference) if reference == warm.fingerprint => reference,
        Ok(reference) => {
            out.problems.push(format!(
                "warm-up fingerprint {:016x} differs from the reference {reference:016x}",
                warm.fingerprint
            ));
            warm.fingerprint
        }
        Err(problem) => {
            out.problems.push(problem);
            warm.fingerprint
        }
    };

    if traced {
        // Half the budget untraced, half traced: their ratio is the
        // tracing overhead. The numbers below come from the traced half.
        let mut layers = Layers::default();
        let mut tracer = Tracer::new();
        let plain = run_segments(&mut w, seconds / 2.0, expect, None, &mut out);
        let with = run_segments(
            &mut w,
            seconds / 2.0,
            expect,
            Some((&mut tracer, &mut layers)),
            &mut out,
        );
        let overhead = stats::quiet_decile(&with.walls, Better::Lower)
            / stats::quiet_decile(&plain.walls, Better::Lower);
        layers.record("bench.trace_overhead_pct", 100.0 * (overhead - 1.0));
        layers.record("bench.segments", with.walls.len() as f64);
        layers.record("bench.segment_spread_pct", stats::spread_pct(&plain.rates));
        layers.record("bench.timer_ns", timer_ns());
        let wall = stats::quiet_decile(&plain.walls, Better::Lower);
        for (rate, count) in [
            ("simnet.events_per_s", "simnet.events"),
            ("simnet.flows_per_s", "simnet.flows"),
        ] {
            if let Some(n) = layers.get(count) {
                layers.record(rate, n / wall);
            }
        }
        w.probes(&mut layers, out_dir);
        out.notes.push(tracer.budget_note());
        out.notes.append(&mut layers.notes);
        out.metrics = layers.metrics();
        out.tracer = Some(tracer);
    } else {
        let timed = run_segments(&mut w, seconds, expect, None, &mut out);
        out.metrics = END_TO_END
            .iter()
            .map(|m| {
                let value = match m.0 {
                    "setup_s" => setups.iter().copied().fold(f64::INFINITY, f64::min),
                    "decisions_per_s" => stats::quiet_decile(&timed.rates, Better::Higher),
                    "decision_p50_us" => stats::quiet_decile(&timed.p50s, Better::Lower),
                    "peak_rss_mb" => peak_rss_mb(),
                    other => unreachable!("no measurement for end-to-end metric {other}"),
                };
                (m.0, m.1, value)
            })
            .collect();
    }
    out.correct = out.problems.is_empty() && out.failed == 0;
    out
}

/// FNV-1a 64 of a value's `Debug` text: `f64` prints its shortest
/// round-trip form, so equal fingerprints mean bit-equal outputs.
pub fn fingerprint(value: &impl std::fmt::Debug) -> u64 {
    dosco_core::policy::fnv1a64(format!("{value:?}").as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_layer_metric_is_the_median_of_its_samples() {
        let mut layers = Layers::default();
        for v in [3.0, 1.0, 2.0] {
            layers.record("rl.update_s", v);
        }
        assert_eq!(layers.get("rl.update_s"), Some(2.0));
        assert_eq!(layers.get("rl.updates"), None);
        let metrics = layers.metrics();
        assert_eq!(metrics.len(), PER_LAYER.len());
        assert!(metrics.contains(&("rl.update_s", "s", 2.0)));
        assert!(metrics.contains(&("rl.updates", "count", 0.0)));
    }

    #[test]
    #[should_panic(expected = "not a per-layer metric")]
    fn an_unlisted_layer_metric_is_refused() {
        Layers::default().record("rl.update_seconds", 1.0);
    }

    #[test]
    fn span_times_land_on_the_metric_named_after_the_span() {
        let mut tracer = Tracer::new();
        let root = tracer.open_segment();
        tracer.push("core.act", root, 0, 10, 4_000_000_000, 2);
        tracer.push("core.act", root, 10, 20, 1_000_000_000, 2);
        tracer.push("serve.epoch", root, 0, 20, 7, 1);
        let mut layers = Layers::default();
        layers.record_spans(&tracer, 1);
        assert_eq!(layers.get("core.act_s"), Some(5.0));
        assert_eq!(layers.metrics().iter().filter(|m| m.2 != 0.0).count(), 1);
    }

    #[test]
    fn fingerprints_separate_unequal_outputs() {
        assert_eq!(fingerprint(&(1.5f64, 2u64)), fingerprint(&(1.5f64, 2u64)));
        assert_ne!(
            fingerprint(&(1.5f64, 2u64)),
            fingerprint(&(1.5000000000000002f64, 2u64))
        );
    }
}

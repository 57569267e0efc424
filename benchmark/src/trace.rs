//! The harness's own spans, recorded around its calls into each crate.
//!
//! Spans are held in memory and written out once, at exit. A call made a
//! few times per segment gets a span of its own. A call made per decision
//! (50 ns to 20 µs each) is folded into one *block span* per
//! [`BLOCK`] decisions: `start`/`end` bracket the block, `busy_ns` is the
//! sum of the individual call times and `count` their number, so the file
//! stays small and the layer's busy time is still exact. A layer's self
//! time is its `busy_ns` minus the `busy_ns` of its children.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Decisions per block span (and per latency block on the `sim-*`
/// workloads, whose single decision is below timer resolution).
pub const BLOCK: usize = 1024;

/// Index of a span inside its [`Tracer`].
pub type SpanId = u32;

/// The parent of a segment's root span.
pub const NO_PARENT: SpanId = u32::MAX;

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// `layer.call`, named like the per-layer metric it feeds.
    pub name: &'static str,
    /// The span that caused this one.
    pub parent: SpanId,
    /// The segment (request) this span belongs to.
    pub segment: u32,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Time spent inside the named call(s) between `start_ns` and `end_ns`.
    pub busy_ns: u64,
    /// Calls folded into this span.
    pub count: u64,
}

/// In-memory span store for one traced run.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    segment: u32,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            segment: 0,
        }
    }

    /// Nanoseconds since the tracer was created.
    pub fn now(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// The tracer's clock reading for an `Instant` taken elsewhere.
    pub fn at(&self, t: Instant) -> u64 {
        u64::try_from(t.saturating_duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens the root span of the next segment.
    pub fn open_segment(&mut self) -> SpanId {
        self.segment += 1;
        self.open("bench.segment", NO_PARENT)
    }

    /// Opens a span that [`Tracer::close`] ends.
    pub fn open(&mut self, name: &'static str, parent: SpanId) -> SpanId {
        let now = self.now();
        self.push(name, parent, now, now, 0, 1)
    }

    /// Ends a span opened with [`Tracer::open`].
    pub fn close(&mut self, id: SpanId) {
        let now = self.now();
        let span = &mut self.spans[id as usize];
        span.end_ns = now;
        span.busy_ns = now - span.start_ns;
    }

    /// Records a finished span (a block span when `count > 1`).
    pub fn push(
        &mut self,
        name: &'static str,
        parent: SpanId,
        start_ns: u64,
        end_ns: u64,
        busy_ns: u64,
        count: u64,
    ) -> SpanId {
        let id = SpanId::try_from(self.spans.len()).expect("fewer than 2^32 spans");
        self.spans.push(Span {
            name,
            parent,
            segment: self.segment,
            start_ns,
            end_ns,
            busy_ns,
            count,
        });
        id
    }

    /// Segments opened so far.
    pub fn segments(&self) -> u32 {
        self.segment
    }

    /// Busy seconds per span name within one segment.
    pub fn busy_s_by_name(&self, segment: u32) -> BTreeMap<&'static str, f64> {
        let mut out = BTreeMap::new();
        for s in self.spans.iter().filter(|s| s.segment == segment) {
            *out.entry(s.name).or_insert(0.0) += s.busy_ns as f64 / 1e9;
        }
        out
    }

    /// Self time of span `id`: its busy time minus its children's.
    pub fn self_ns(&self, id: SpanId) -> u64 {
        let children: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent == id)
            .map(|s| s.busy_ns)
            .sum();
        self.spans[id as usize].busy_ns.saturating_sub(children)
    }

    /// The layer budget of the last segment, as one line: each layer's
    /// self time (summed over its spans) as a share of the segment. The
    /// `bench` share is the harness's own loop and timer cost.
    pub fn budget_note(&self) -> String {
        let mut child_busy = vec![0u64; self.spans.len()];
        for s in self.spans.iter().filter(|s| s.parent != NO_PARENT) {
            child_busy[s.parent as usize] += s.busy_ns;
        }
        let mut by_layer: BTreeMap<&str, u64> = BTreeMap::new();
        let mut total = 0u64;
        for (s, children) in self.spans.iter().zip(child_busy) {
            if s.segment != self.segment {
                continue;
            }
            let layer = s.name.split('.').next().unwrap_or(s.name);
            *by_layer.entry(layer).or_insert(0) += s.busy_ns.saturating_sub(children);
            if s.parent == NO_PARENT {
                total = s.busy_ns;
            }
        }
        let mut line = format!("layer budget of segment {} (self time):", self.segment);
        for (layer, ns) in by_layer {
            let _ = write!(
                line,
                " {layer} {:.1}%",
                100.0 * ns as f64 / total.max(1) as f64
            );
        }
        line
    }

    /// Share of segment `segment`'s wall time covered by the direct
    /// children of its root span, in percent.
    pub fn accounted_pct(&self, segment: u32) -> f64 {
        let Some(root) = self
            .spans
            .iter()
            .position(|s| s.segment == segment && s.parent == NO_PARENT)
        else {
            return 0.0;
        };
        let busy = self.spans[root].busy_ns;
        if busy == 0 {
            return 0.0;
        }
        let root = SpanId::try_from(root).expect("fewer than 2^32 spans");
        100.0 * (busy - self.self_ns(root)) as f64 / busy as f64
    }

    /// The trace file: every span, then the counts recorded at the same
    /// boundaries (`counts` is the per-layer metric map of the run).
    pub fn to_json(
        &self,
        workload: &str,
        seed: u64,
        counts: &BTreeMap<&'static str, f64>,
    ) -> String {
        let mut out = String::with_capacity(128 * self.spans.len() + 4096);
        let _ = write!(
            out,
            "{{\"workload\":\"{workload}\",\"seed\":{seed},\"clock\":\"ns since tracer start\",\n\"spans\":["
        );
        for (id, s) in self.spans.iter().enumerate() {
            let sep = if id == 0 { "" } else { "," };
            let parent = if s.parent == NO_PARENT {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            let _ = write!(
                out,
                "{sep}\n{{\"id\":{id},\"name\":\"{}\",\"parent\":{parent},\"segment\":{},\
                 \"start_ns\":{},\"end_ns\":{},\"busy_ns\":{},\"count\":{}}}",
                s.name, s.segment, s.start_ns, s.end_ns, s.busy_ns, s.count
            );
        }
        out.push_str("\n],\n\"counts\":{");
        for (i, (name, value)) in counts.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(out, "{sep}\n\"{name}\":{value}");
        }
        out.push_str("\n}}\n");
        out
    }
}

/// Accumulates the per-decision calls of one block; flushed into the
/// tracer as one block span per call name.
#[derive(Debug, Clone, Copy, Default)]
pub struct BlockAcc {
    busy_ns: u64,
    count: u64,
}

impl BlockAcc {
    /// Adds one call that ran from `start` to `end`.
    pub fn add(&mut self, start: Instant, end: Instant) {
        self.busy_ns += u64::try_from((end - start).as_nanos()).unwrap_or(u64::MAX);
        self.count += 1;
    }

    /// Whether a full block has been gathered.
    pub fn full(&self) -> bool {
        self.count >= BLOCK as u64
    }

    /// Writes the block span (if any call was gathered) and resets.
    pub fn flush(
        &mut self,
        tracer: &mut Tracer,
        name: &'static str,
        parent: SpanId,
        block_start_ns: u64,
    ) {
        if self.count > 0 {
            let end = tracer.now();
            tracer.push(name, parent, block_start_ns, end, self.busy_ns, self.count);
        }
        *self = BlockAcc::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new();
        let root = t.open_segment();
        t.spans[root as usize].busy_ns = 1_000;
        t.push("a.x", root, 0, 400, 400, 1);
        t.push("b.y", root, 400, 900, 300, 256);
        assert_eq!(t.self_ns(root), 300);
        assert!((t.accounted_pct(1) - 70.0).abs() < 1e-9);
        let busy = t.busy_s_by_name(1);
        assert!((busy["b.y"] - 300e-9).abs() < 1e-15);
        assert_eq!(t.accounted_pct(2), 0.0);
    }

    #[test]
    fn trace_file_is_json() {
        let mut t = Tracer::new();
        let root = t.open_segment();
        let child = t.open("simnet.run", root);
        t.close(child);
        t.close(root);
        let mut counts = BTreeMap::new();
        counts.insert("simnet.decisions", 42.0);
        let text = t.to_json("sim-grid-static", 7, &counts);
        let v: serde::Value = serde_json::from_str(&text).expect("trace file parses");
        let obj = v.as_object().expect("object");
        let spans = obj.iter().find(|(k, _)| k == "spans").expect("spans key");
        match &spans.1 {
            serde::Value::Array(a) => assert_eq!(a.len(), 2),
            other => panic!("spans is {other:?}"),
        }
    }
}

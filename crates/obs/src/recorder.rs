//! The trace sink: the deterministic [`JsonlRecorder`].

use crate::event::{Event, Stream, SCHEMA_VERSION};
use parking_lot::Mutex;
use serde::{Serialize, Value};
use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};

/// Per-stream line buffer: a sequence counter plus rendered JSONL lines.
#[derive(Debug, Default)]
struct StreamBuf {
    seq: u64,
    lines: Vec<String>,
}

/// Writes one schema-versioned JSON object per line, deterministically.
///
/// Lines are buffered per [`Stream`] as they are recorded (each stream is
/// fed by sequential code, so within-stream order is deterministic) and
/// written grouped by stream in sorted stream order on
/// [`JsonlRecorder::flush`].
/// The file bytes therefore depend only on what was emitted — not on how
/// the OS scheduled the emitting threads. Two runs with the same seeds
/// produce byte-identical files.
///
/// Field order inside each line is fixed by the vendored serde's
/// insertion-ordered object model. The first line is a header carrying
/// [`SCHEMA_VERSION`] and the stream/event totals.
#[derive(Debug)]
pub struct JsonlRecorder {
    path: PathBuf,
    streams: Mutex<BTreeMap<Stream, StreamBuf>>,
}

impl JsonlRecorder {
    /// Creates a recorder that will write to `path` on flush.
    pub fn new(path: impl Into<PathBuf>) -> Self {
        JsonlRecorder {
            path: path.into(),
            streams: Mutex::new(BTreeMap::new()),
        }
    }

    /// The output path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Number of events buffered so far.
    pub fn len(&self) -> usize {
        self.streams.lock().values().map(|b| b.lines.len()).sum()
    }

    /// Whether nothing has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Renders the full JSONL contents (header plus all lines) without
    /// touching the filesystem. Exposed for tests.
    ///
    /// # Panics
    ///
    /// Never: the vendored serializer cannot fail on its in-memory model.
    pub fn render(&self) -> String {
        let streams = self.streams.lock();
        let events: usize = streams.values().map(|b| b.lines.len()).sum();
        let header = Value::Object(vec![
            ("schema".to_string(), Value::UInt(u64::from(SCHEMA_VERSION))),
            (
                "generated_by".to_string(),
                Value::Str("dosco_obs".to_string()),
            ),
            ("streams".to_string(), Value::UInt(streams.len() as u64)),
            ("events".to_string(), Value::UInt(events as u64)),
        ]);
        #[allow(clippy::expect_used, reason = "the documented # Panics contract")]
        let mut out = serde_json::to_string(&header).expect("header serializes");
        out.push('\n');
        for buf in streams.values() {
            for line in &buf.lines {
                out.push_str(line);
                out.push('\n');
            }
        }
        out
    }

    /// Records one event on `stream`. Events within one stream arrive in
    /// emission order (the emitter is sequential); different streams may
    /// record concurrently.
    ///
    /// # Panics
    ///
    /// Never: the vendored serializer cannot fail on its in-memory model.
    pub fn record(&self, stream: Stream, event: &Event) {
        let mut streams = self.streams.lock();
        let buf = streams.entry(stream).or_default();
        let line = Value::Object(vec![
            ("stream".to_string(), Value::Str(stream.label())),
            ("seq".to_string(), Value::UInt(buf.seq)),
            ("event".to_string(), event.to_value()),
        ]);
        buf.seq += 1;
        #[allow(clippy::expect_used, reason = "the documented # Panics contract")]
        let line = serde_json::to_string(&line).expect("trace line serializes");
        buf.lines.push(line);
    }

    /// Writes everything recorded so far to the output path.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from writing the file.
    pub fn flush(&self) -> io::Result<()> {
        std::fs::write(&self.path, self.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(seed: u64, t: f64) -> Event {
        Event::EpisodeStart {
            seed,
            horizon: t,
            nodes: 11,
            links: 14,
            ingresses: 2,
        }
    }

    #[test]
    fn jsonl_render_is_independent_of_interleaving() {
        // Same per-stream sequences, recorded in different global orders:
        // identical bytes.
        let a = JsonlRecorder::new("/tmp/unused-a.jsonl");
        a.record(Stream::sim(1), &sample(1, 10.0));
        a.record(Stream::sim(2), &sample(2, 10.0));
        a.record(Stream::sim(1), &sample(1, 20.0));

        let b = JsonlRecorder::new("/tmp/unused-b.jsonl");
        b.record(Stream::sim(2), &sample(2, 10.0));
        b.record(Stream::sim(1), &sample(1, 10.0));
        b.record(Stream::sim(1), &sample(1, 20.0));

        assert_eq!(a.render(), b.render());
        assert_eq!(a.len(), 3);
    }

    #[test]
    fn every_line_parses_and_header_counts() {
        let r = JsonlRecorder::new("/tmp/unused-c.jsonl");
        r.record(
            Stream::learner(),
            &Event::SnapshotPublished {
                version: 1,
                total_steps: 64,
            },
        );
        r.record(
            Stream::actor(),
            &Event::BatchProduced {
                version: 0,
                transitions: 64,
            },
        );
        let text = r.render();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        let header: Value = serde_json::from_str(lines[0]).unwrap();
        assert_eq!(header.get("schema").and_then(Value::as_u64), Some(2));
        assert_eq!(header.get("streams").and_then(Value::as_u64), Some(2));
        assert_eq!(header.get("events").and_then(Value::as_u64), Some(2));
        for line in &lines[1..] {
            let v: Value = serde_json::from_str(line).unwrap();
            assert!(v.get("stream").is_some());
            assert!(v.get("seq").is_some());
            assert!(v.get("event").is_some());
        }
    }

    #[test]
    fn seq_numbers_are_per_stream() {
        let r = JsonlRecorder::new("/tmp/unused-d.jsonl");
        for _ in 0..2 {
            r.record(Stream::sim(1), &sample(1, 1.0));
            r.record(Stream::sim(2), &sample(2, 1.0));
        }
        let text = r.render();
        // sim:1 lines come first (sorted), each stream counts 0, 1.
        let seqs: Vec<u64> = text
            .lines()
            .skip(1)
            .map(|l| {
                let v: Value = serde_json::from_str(l).unwrap();
                v.get("seq").and_then(Value::as_u64).unwrap()
            })
            .collect();
        assert_eq!(seqs, vec![0, 1, 0, 1]);
    }

    #[test]
    fn flush_writes_file() {
        let path = std::env::temp_dir().join("dosco_obs_recorder_flush_test.jsonl");
        let r = JsonlRecorder::new(&path);
        r.record(Stream::sim(9), &sample(9, 5.0));
        r.flush().unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text, r.render());
        let _ = std::fs::remove_file(&path);
    }
}

//! The trace event schema: what gets written, one JSON object per line,
//! to a `DOSCO_TRACE` file.
//!
//! Every event belongs to a [`Stream`] — one logical emitter (a simulation
//! episode, the rollout actor, the learner) whose events are sequential and
//! deterministic under a fixed seed. The JSONL writer buffers per stream
//! and flushes streams in sorted order, so the file bytes do not depend on
//! thread scheduling (see [`crate::recorder::JsonlRecorder`]).
//!
//! All timestamps are simulation time or caller-supplied ticks (snapshot
//! versions, decision counts) — never wall clock — so two same-seed runs
//! produce identical traces.

use serde::{Deserialize, Serialize};

/// Version of the trace schema, written in the header line. Bump on any
/// change to [`Event`] field names, order, or meaning.
pub const SCHEMA_VERSION: u32 = 2;

/// The kind of logical emitter behind a [`Stream`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum StreamKind {
    /// One simulation episode, identified by its traffic seed.
    Sim,
    /// The rollout actor.
    Actor,
    /// The learner loop.
    Learner,
}

impl StreamKind {
    fn tag(self) -> &'static str {
        match self {
            StreamKind::Sim => "sim",
            StreamKind::Actor => "actor",
            StreamKind::Learner => "learner",
        }
    }
}

/// A deterministic event stream: all events of one logical emitter, in
/// emission order. Two streams may be written concurrently from different
/// threads; events *within* one stream must come from sequential code.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub struct Stream {
    /// The emitter kind.
    pub kind: StreamKind,
    /// Emitter identity within the kind (sim seed, else 0).
    pub id: u64,
}

impl Stream {
    /// The stream of the simulation episode seeded with `seed`.
    pub fn sim(seed: u64) -> Self {
        Stream {
            kind: StreamKind::Sim,
            id: seed,
        }
    }

    /// The rollout actor's stream.
    pub fn actor() -> Self {
        Stream {
            kind: StreamKind::Actor,
            id: 0,
        }
    }

    /// The learner stream.
    pub fn learner() -> Self {
        Stream {
            kind: StreamKind::Learner,
            id: 0,
        }
    }

    /// Human-readable label, e.g. `sim:42`, used as the `stream` field of
    /// every trace line.
    pub fn label(&self) -> String {
        format!("{}:{}", self.kind.tag(), self.id)
    }
}

/// One trace event. Serialized as `{"VariantName": {fields...}}` with the
/// declared field order (the vendored serde preserves insertion order), so
/// the byte representation is deterministic.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Event {
    /// A simulation episode began (emitted from `Simulation::new`).
    EpisodeStart {
        /// Traffic seed of the episode.
        seed: u64,
        /// Episode horizon in simulation time.
        horizon: f64,
        /// Substrate node count.
        nodes: u64,
        /// Substrate link count.
        links: u64,
        /// Configured ingress count.
        ingresses: u64,
    },
    /// Periodic mid-episode sample, taken every 64th coordination
    /// decision (a fixed stride in the simulator). All quantities are as
    /// of the decision time.
    EpisodeSample {
        /// Simulation time of the sampled decision.
        time: f64,
        /// Decisions taken so far (the sample tick).
        decisions: u64,
        /// Flows arrived so far.
        arrived: u64,
        /// Flows completed so far.
        completed: u64,
        /// Flows dropped so far (all reasons).
        dropped: u64,
        /// Flows currently in the network.
        in_flight: u64,
        /// Success ratio over terminated flows, `null` while vacuous.
        success_ratio: Option<f64>,
        /// Mean node utilization `r_v / cap_v` over all nodes.
        node_util_mean: f64,
        /// Maximum node utilization.
        node_util_max: f64,
        /// Mean link utilization `r_l / cap_l` over all links.
        link_util_mean: f64,
        /// Maximum link utilization.
        link_util_max: f64,
        /// Placed component instances.
        instances: u64,
    },
    /// A simulation episode reached its horizon.
    EpisodeEnd {
        /// Final simulation time (the horizon).
        time: f64,
        /// Total flows arrived.
        arrived: u64,
        /// Total flows completed.
        completed: u64,
        /// Total flows dropped.
        dropped: u64,
        /// Flows still in flight at the horizon.
        in_flight: u64,
        /// Final success ratio, `null` if no flow terminated.
        success_ratio: Option<f64>,
        /// Mean end-to-end delay of completed flows, `null` if none.
        avg_e2e_delay: Option<f64>,
        /// Total coordination decisions.
        decisions: u64,
        /// Component instances started.
        instances_started: u64,
        /// Component instances stopped.
        instances_stopped: u64,
    },
    /// The rollout actor handed a batch to the experience channel.
    BatchProduced {
        /// Policy snapshot version the batch was collected under.
        version: u64,
        /// Transitions in the batch.
        transitions: u64,
    },
    /// The learner consumed a batch into an update.
    BatchConsumed {
        /// Snapshot version the batch was collected under (in lockstep,
        /// the learner's own).
        version: u64,
    },
    /// The learner published a new policy snapshot.
    SnapshotPublished {
        /// The published version.
        version: u64,
        /// Environment transitions trained on so far.
        total_steps: u64,
    },
    /// A substrate churn action was applied to a simulation episode.
    ChurnApplied {
        /// Simulation time the action took effect.
        time: f64,
        /// Stable action label (`link-down`, `node-up`, `delay-spike`, …).
        action: String,
        /// Dense id of the affected link or node.
        target: u64,
        /// Degradation/spike factor, `null` for failures and repairs.
        factor: Option<f64>,
        /// Topology version after applying the action (monotonic from 1).
        topo_version: u64,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_labels() {
        assert_eq!(Stream::sim(42).label(), "sim:42");
        assert_eq!(Stream::actor().label(), "actor:0");
        assert_eq!(Stream::learner().label(), "learner:0");
    }

    #[test]
    fn streams_order_deterministically() {
        let mut v = vec![
            Stream::sim(7),
            Stream::actor(),
            Stream::learner(),
            Stream::sim(3),
        ];
        v.sort();
        assert_eq!(
            v,
            vec![
                Stream::sim(3),
                Stream::sim(7),
                Stream::actor(),
                Stream::learner()
            ]
        );
    }

    #[test]
    fn event_serialization_is_deterministic_and_round_trips() {
        let e = Event::BatchConsumed { version: 3 };
        let a = serde_json::to_string(&e).unwrap();
        let b = serde_json::to_string(&e.clone()).unwrap();
        assert_eq!(a, b);
        assert!(a.contains("\"BatchConsumed\""));
        let back: Event = serde_json::from_str(&a).unwrap();
        assert_eq!(back, e);
    }

    #[test]
    fn vacuous_success_ratio_serializes_as_null() {
        let e = Event::EpisodeEnd {
            time: 0.0,
            arrived: 0,
            completed: 0,
            dropped: 0,
            in_flight: 0,
            success_ratio: None,
            avg_e2e_delay: None,
            decisions: 0,
            instances_started: 0,
            instances_stopped: 0,
        };
        let json = serde_json::to_string(&e).unwrap();
        assert!(json.contains("\"success_ratio\":null"), "{json}");
    }
}

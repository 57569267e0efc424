//! Shard workers: the mailbox protocol and the batched-inference loop.
//!
//! Each shard owns a fixed subset of the topology's nodes
//! ([`shard_of`]), one bounded mailbox, and — under stochastic serving —
//! one RNG stream per owned node. At every [`ShardMsg::Flush`] barrier
//! the shard stacks all queued observations into one matrix, runs a
//! single `Mlp::forward`, and answers each request from its row of the
//! batch. Because the blocked GEMM computes every output element
//! independently (ascending-k, single accumulator), the batched answers
//! are bitwise identical to per-decision forwards — batching changes
//! latency, never decisions.

use crossbeam::channel::{RecvError, TryRecvError};
use dosco_core::{per_node_seed, CoordinationPolicy};
use dosco_net::{BoxRx, BoxTx, Rx};
use dosco_nn::matrix::Matrix;
use dosco_nn::Categorical;
use dosco_obs::registry;
use dosco_obs::{GaugeKind, HistKind, SpanKind};
use dosco_topology::NodeId;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// The shard owning `node`: a round-robin partition (`node mod
/// num_shards`), so ingress-heavy low node ids spread across shards.
/// The partition is a pure function of the node id — it is what makes a
/// node's RNG stream and decision sequence independent of the shard
/// count.
#[must_use]
pub fn shard_of(node: usize, num_shards: usize) -> usize {
    node % num_shards
}

/// One decision request routed to a shard. Serializable so the mailbox
/// can be a `dosco_net` socket channel (a remote shard process).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DecisionRequest {
    /// Globally monotonic request id — defines the deterministic batch
    /// order and the order of per-node RNG draws.
    pub id: u64,
    /// Frontend episode (simulation index) the decision belongs to.
    pub episode: usize,
    /// The node the decision is taken at (must be owned by the shard).
    pub node: NodeId,
    /// The local observation at the decision point.
    pub obs: Vec<f32>,
}

/// The shard mailbox protocol. Messages are FIFO per sender; the
/// frontend is the only producer, so a shard sees requests in id order
/// and swaps exactly at the epoch boundary they were broadcast.
#[derive(Debug, Serialize, Deserialize)]
pub enum ShardMsg {
    /// Queue a decision request for the next flush.
    Request(DecisionRequest),
    /// Epoch barrier: batch everything queued into one forward and
    /// answer each request.
    Flush {
        /// The frontend epoch this barrier closes (diagnostic).
        epoch: u64,
    },
    /// Policy hot-swap, delivered at an epoch boundary before that
    /// epoch's requests.
    Swap {
        /// The new policy (validated by the frontend before broadcast).
        policy: Arc<CoordinationPolicy>,
        /// The snapshot version the policy came from.
        version: u64,
    },
    /// Graceful shutdown; the shard exits its loop.
    Shutdown,
}

/// A shard's answer to one request: only what the frontend cannot tell
/// for itself. The receiver a batch arrives on names the shard, and a
/// batch's length is its row count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DecisionResponse {
    /// Episode the decision belongs to (copied from the request).
    pub episode: usize,
    /// Chosen action as a flat index (`Action::from_index`).
    pub action_index: usize,
    /// Policy version the decision was computed under.
    pub version: u64,
}

/// Everything a shard worker owns. Responses travel as one `Vec` per
/// flush — a single channel hand-off per shard per epoch, so transport
/// cost scales with shards, not decisions. The mailbox and response
/// channel are `dosco_net` transport ends, so the same worker body runs
/// on an in-process thread or in a separate shard process over TCP.
pub(crate) struct ShardWorker {
    pub index: usize,
    pub num_shards: usize,
    pub num_nodes: usize,
    pub stochastic_seed: Option<u64>,
    pub policy: Arc<CoordinationPolicy>,
    pub version: u64,
    pub mailbox: BoxRx<ShardMsg>,
    pub responses: BoxTx<Vec<DecisionResponse>>,
}

impl ShardWorker {
    /// Whether `node` is in this shard's part of the partition.
    fn owns(&self, node: usize) -> bool {
        node < self.num_nodes && shard_of(node, self.num_shards) == self.index
    }
}

/// The shard thread body: drain the mailbox, batch at flush barriers.
/// A request for a node the shard does not own, or an observation whose
/// width is not the actor's input, breaks the protocol: the loop ends,
/// which closes both channel ends, and the frontend writes the shard off.
pub(crate) fn run_shard(mut w: ShardWorker) {
    // Per-node RNG streams for the nodes this shard owns. Seeded by
    // `per_node_seed`, the same derivation `DistributedAgents` uses, so
    // stochastic serving draws the exact stream the in-process
    // deployment would.
    let mut rngs: Vec<Option<StdRng>> = match w.stochastic_seed {
        Some(seed) => (0..w.num_nodes)
            .map(|v| {
                w.owns(v)
                    .then(|| StdRng::seed_from_u64(per_node_seed(seed, v)))
            })
            .collect(),
        None => Vec::new(),
    };
    let mut pending: Vec<DecisionRequest> = Vec::new();
    loop {
        let serving = match next_message(&*w.mailbox) {
            Ok(ShardMsg::Request(r)) => {
                let owned = w.owns(r.node.0);
                pending.push(r);
                owned
            }
            Ok(ShardMsg::Flush { .. }) => flush(&w, &mut pending, &mut rngs),
            Ok(ShardMsg::Swap { policy, version }) => {
                w.policy = policy;
                w.version = version;
                true
            }
            // Disconnect means the frontend dropped the mailbox: treat
            // like a shutdown (nothing can be pending past a flush).
            Ok(ShardMsg::Shutdown) | Err(_) => false,
        };
        if !serving {
            return;
        }
    }
}

/// Polls of an empty mailbox [`next_message`] makes before it parks in
/// `recv`: busy rounds first, then rounds that yield the core.
const SPIN_ROUNDS: u32 = 100;
const YIELD_ROUNDS: u32 = 100;

/// The shard loop's mailbox wait: the next message, or `Err` once the
/// mailbox is drained and every sender is gone. Within an epoch the
/// frontend's next message is a few microseconds away, which costs less
/// to poll for than a futex sleep and wake-up, so this spins, then
/// yields, then parks in `recv`. Only this loop polls: every other
/// receiver — the lockstep actor and learner among them — parks at once
/// and leaves its core to the work it waits for.
fn next_message<T>(mailbox: &dyn Rx<T>) -> Result<T, RecvError> {
    for round in 0..SPIN_ROUNDS + YIELD_ROUNDS {
        match mailbox.try_recv() {
            Ok(msg) => return Ok(msg),
            Err(TryRecvError::Disconnected) => return Err(RecvError),
            Err(TryRecvError::Empty) if round < SPIN_ROUNDS => std::hint::spin_loop(),
            Err(TryRecvError::Empty) => std::thread::yield_now(),
        }
    }
    mailbox.recv()
}

/// Answers every queued request with one batched forward. Returns
/// `false`, answering nothing, if an observation's width is not the
/// actor's input.
fn flush(
    w: &ShardWorker,
    pending: &mut Vec<DecisionRequest>,
    rngs: &mut [Option<StdRng>],
) -> bool {
    let obs_dim = w.policy.actor().inputs();
    if pending.iter().any(|r| r.obs.len() != obs_dim) {
        return false;
    }
    if pending.is_empty() {
        return true;
    }
    // Deterministic batch order: ascending request id. The mailbox is
    // FIFO from the single frontend producer, so this is a no-op sort in
    // practice — it pins the contract rather than trusting transport.
    pending.sort_by_key(|r| r.id);
    let rows = pending.len();
    registry::set_gauge(GaugeKind::LastServeQueueDepth, rows as f64);
    registry::max_gauge(GaugeKind::PeakServeQueueDepth, rows as f64);
    registry::observe(HistKind::ServeBatchSize, rows as f64);

    let actions: Vec<usize> = {
        let _span = dosco_obs::span(SpanKind::ServeBatchForward);
        let batch = Matrix::from_fn(rows, obs_dim, |r, c| pending[r].obs[c]);
        let logits = w.policy.actor().forward(&batch);
        let dist = Categorical::new(&logits);
        if w.stochastic_seed.is_some() {
            // One draw per row, in id order, from the owning node's
            // stream — the exact draws a per-decision deployment makes.
            (0..rows)
                .map(|r| {
                    let rng = rngs[pending[r].node.0]
                        .as_mut()
                        .expect("request for a node this shard owns");
                    dist.sample_row(r, rng)
                })
                .collect()
        } else {
            dist.argmax()
        }
    };

    let answers: Vec<DecisionResponse> = pending
        .drain(..)
        .zip(actions)
        .map(|(req, action_index)| DecisionResponse {
            episode: req.episode,
            action_index,
            version: w.version,
        })
        .collect();
    // A send error means the frontend is gone; responses are moot.
    let _ = w.responses.send(answers);
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_is_total_and_balanced() {
        let shards = 4;
        let mut counts = vec![0usize; shards];
        for node in 0..11 {
            counts[shard_of(node, shards)] += 1;
        }
        assert_eq!(counts.iter().sum::<usize>(), 11);
        assert!(counts.iter().all(|&c| c >= 2), "{counts:?}");
        // Stable: the partition never depends on anything but node id.
        assert_eq!(shard_of(7, 4), 3);
    }

    /// The mailbox wait hands out queued messages in order, outlasts its
    /// polling rounds to block until a late send arrives, and reports a
    /// drained, sender-less mailbox as `Err`.
    #[test]
    fn mailbox_wait_is_fifo_blocks_for_a_late_send_and_ends_on_disconnect() {
        use dosco_net::{InProcess, Transport};
        let (tx, rx) = <InProcess as Transport<u32>>::channel(&InProcess, 4);
        for v in [1, 2, 3] {
            tx.send(v).expect("queue");
        }
        assert_eq!(
            (0..3).map(|_| next_message(&*rx)).collect::<Vec<_>>(),
            [Ok(1), Ok(2), Ok(3)]
        );
        std::thread::scope(|s| {
            s.spawn(move || {
                std::thread::sleep(std::time::Duration::from_millis(50));
                tx.send(4).expect("late send");
                // The last sender drops here.
            });
            assert_eq!(next_message(&*rx), Ok(4));
        });
        assert_eq!(next_message(&*rx), Err(RecvError));
    }

    /// A request for a node the shard does not own, or an observation
    /// of the wrong width, ends the shard loop: no answer is sent and
    /// the response channel closes, which is what the frontend writes the
    /// shard off on. Stochastic serving, so the old unchecked lookup of
    /// the node's RNG stream would have panicked.
    #[test]
    fn protocol_violations_end_the_loop_without_answering() {
        use dosco_core::policy::PolicyMetadata;
        use dosco_net::{InProcess, Transport};
        use dosco_nn::mlp::{Activation, Mlp};
        let actor = Mlp::new(&[8, 4, 2], Activation::Tanh, &mut StdRng::seed_from_u64(3));
        let policy = Arc::new(CoordinationPolicy::new(actor, 1, PolicyMetadata::default()));
        let cases = [
            ("a node of shard 1", 1, vec![0.0; 8]),
            ("a node outside the topology", 4, vec![0.0; 8]),
            ("an observation of the wrong width", 0, vec![0.0; 7]),
        ];
        for (what, node, obs) in cases {
            let (tx, mailbox) = Transport::<ShardMsg>::channel(&InProcess, 4);
            let (responses, rx) = Transport::<Vec<DecisionResponse>>::channel(&InProcess, 1);
            let request = DecisionRequest {
                id: 0,
                episode: 0,
                node: NodeId(node),
                obs,
            };
            tx.send(ShardMsg::Request(request)).expect("queue");
            tx.send(ShardMsg::Flush { epoch: 0 }).expect("queue");
            run_shard(ShardWorker {
                index: 0,
                num_shards: 2,
                num_nodes: 4,
                stochastic_seed: Some(1),
                policy: Arc::clone(&policy),
                version: 0,
                mailbox,
                responses,
            });
            assert_eq!(rx.try_recv(), Err(TryRecvError::Disconnected), "{what}");
        }
    }
}

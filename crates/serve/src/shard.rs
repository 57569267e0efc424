//! Shard workers: the mailbox protocol and the streamed batched-inference
//! loop.
//!
//! Each shard owns a fixed subset of the topology's nodes
//! ([`shard_of`]), one bounded mailbox, and — under stochastic serving —
//! one RNG stream per owned node. Whenever its mailbox runs dry within an
//! epoch, the shard stacks the requests that have arrived into one matrix
//! and runs one `Mlp::forward` over them, so the GEMM for early episodes
//! runs while the frontend is still stepping the later ones. At the
//! [`ShardMsg::Flush`] barrier it forwards whatever is left and sends the
//! epoch's answers as one batch. Because the blocked GEMM computes every
//! output element independently (ascending-k, single accumulator), each
//! row's answer is bitwise identical to a per-decision forward whatever
//! batch it sat in, and stochastic draws come from each node's stream in
//! request-id order — so how an epoch's rows split into forwards changes
//! latency, never decisions.

use crossbeam::channel::{RecvError, TryRecvError};
use dosco_core::{per_node_seed, CoordinationPolicy};
use dosco_net::{BoxRx, BoxTx, Rx};
use dosco_nn::dist::{greedy_action, log_softmax, sample_action};
use dosco_nn::matrix::Matrix;
use dosco_obs::registry;
use dosco_obs::{GaugeKind, HistKind, SpanKind};
use dosco_topology::NodeId;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

/// The shard owning `node`: a round-robin partition (`node mod
/// num_shards`), so ingress-heavy low node ids spread across shards.
/// The partition is a pure function of the node id — it is what makes a
/// node's RNG stream and decision sequence independent of the shard
/// count.
#[must_use]
pub(crate) fn shard_of(node: usize, num_shards: usize) -> usize {
    node % num_shards
}

/// One decision request routed to a shard.
#[derive(Debug, Clone)]
pub(crate) struct DecisionRequest {
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
#[derive(Debug)]
pub(crate) enum ShardMsg {
    /// Queue a decision request for the next flush.
    Request(DecisionRequest),
    /// Epoch barrier: batch everything queued into one forward and
    /// answer each request.
    Flush,
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
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct DecisionResponse {
    /// Episode the decision belongs to (copied from the request).
    pub episode: usize,
    /// Chosen action as a flat index (`Action::from_index`).
    pub action_index: usize,
    /// Policy version the decision was computed under.
    pub version: u64,
}

/// Everything a shard worker owns. Responses travel as one `Vec` per
/// flush — a single channel hand-off per shard per epoch, so transport
/// cost scales with shards, not decisions.
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

/// The shard thread body: drain the mailbox, forwarding the rows that
/// have arrived whenever it runs dry, and answer the epoch at its flush
/// barrier. A request for a node the shard does not own, an observation
/// whose width is not the actor's input, a request id that does not
/// ascend, or a row whose logits are not finite breaks the protocol: the
/// loop ends, which closes both channel ends, and the frontend writes the
/// shard off.
pub(crate) fn run_shard(mut w: ShardWorker) {
    let mut rngs = node_streams(&w);
    // Requests not yet forwarded, and this epoch's answers so far.
    let mut pending: Vec<DecisionRequest> = Vec::new();
    let mut answers: Vec<DecisionResponse> = Vec::new();
    let mut buffers = ForwardBuffers::default();
    let mut last_id = None;
    loop {
        let msg = match w.mailbox.try_recv() {
            Ok(msg) => Ok(msg),
            // The mailbox ran dry mid-epoch: forward what has arrived
            // while the frontend steps the episodes still to come.
            Err(TryRecvError::Empty) if !pending.is_empty() => {
                if !forward(
                    &w,
                    &mut pending,
                    rngs.as_deref_mut(),
                    &mut answers,
                    &mut buffers,
                ) {
                    return;
                }
                continue;
            }
            Err(TryRecvError::Empty) => next_message(&*w.mailbox),
            Err(TryRecvError::Disconnected) => Err(RecvError),
        };
        let serving = match msg {
            Ok(ShardMsg::Request(r)) => {
                let valid = w.owns(r.node.0)
                    && r.obs.len() == w.policy.actor().inputs()
                    && last_id.is_none_or(|last| r.id > last);
                last_id = Some(r.id);
                pending.push(r);
                valid
            }
            Ok(ShardMsg::Flush) => {
                let forwarded = forward(
                    &w,
                    &mut pending,
                    rngs.as_deref_mut(),
                    &mut answers,
                    &mut buffers,
                );
                if forwarded && !answers.is_empty() {
                    let rows = answers.len() as f64;
                    registry::set_gauge(GaugeKind::LastServeQueueDepth, rows);
                    registry::max_gauge(GaugeKind::PeakServeQueueDepth, rows);
                    // A send error means the frontend is gone; the
                    // answers are moot.
                    let _ = w.responses.send(std::mem::take(&mut answers));
                }
                forwarded
            }
            Ok(ShardMsg::Swap { policy, version }) => {
                // No batch mixes two policy versions.
                let forwarded = forward(
                    &w,
                    &mut pending,
                    rngs.as_deref_mut(),
                    &mut answers,
                    &mut buffers,
                );
                w.policy = policy;
                w.version = version;
                forwarded
            }
            // Disconnect means the frontend dropped the mailbox: treat
            // like a shutdown.
            Ok(ShardMsg::Shutdown) | Err(_) => false,
        };
        if !serving {
            return;
        }
    }
}

/// Under stochastic serving, the RNG stream of each node the shard owns
/// (`None` for the others). Seeded by `per_node_seed`, the same
/// derivation `DistributedAgents` uses, so stochastic serving draws the
/// exact stream the in-process deployment would. `None` serves greedy.
fn node_streams(w: &ShardWorker) -> Option<Vec<Option<StdRng>>> {
    w.stochastic_seed.map(|seed| {
        (0..w.num_nodes)
            .map(|v| {
                w.owns(v)
                    .then(|| StdRng::seed_from_u64(per_node_seed(seed, v)))
            })
            .collect()
    })
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

/// The forward step: answers every row of `pending` from one batched
/// forward under the shard's current policy, appends the answers to
/// `answers` in request order, and empties `pending`. Greedy when `rngs`
/// is `None`; otherwise one draw per row, in request order, from the
/// owning node's stream. Returns `false`, answering nothing, if a row's
/// logits are not finite (a diverged policy) or, when sampling, its node
/// has no stream here: argmax and sampling have no answer for such a row.
fn forward(
    w: &ShardWorker,
    pending: &mut Vec<DecisionRequest>,
    rngs: Option<&mut [Option<StdRng>]>,
    answers: &mut Vec<DecisionResponse>,
    buffers: &mut ForwardBuffers,
) -> bool {
    if pending.is_empty() {
        return true;
    }
    let rows = pending.len();
    registry::observe(HistKind::ServeBatchSize, rows as f64);
    let _span = dosco_obs::span(SpanKind::ServeBatchForward);
    let ForwardBuffers {
        batch,
        logits,
        hidden,
        actions,
    } = buffers;
    batch.reshape(rows, w.policy.actor().inputs());
    for (r, req) in pending.iter().enumerate() {
        batch.row_mut(r).copy_from_slice(&req.obs);
    }
    w.policy.actor().forward_into(batch, logits, hidden);
    if !logits.as_slice().iter().all(|l| l.is_finite()) {
        return false;
    }
    actions.clear();
    match rngs {
        // One draw per row, in id order, from the owning node's stream —
        // the exact draws a per-decision deployment makes.
        Some(rngs) => {
            for (r, req) in pending.iter().enumerate() {
                let Some(rng) = rngs.get_mut(req.node.0).and_then(Option::as_mut) else {
                    return false;
                };
                actions.push(sample_action(log_softmax(logits.row(r)), rng));
            }
        }
        None => actions.extend((0..rows).map(|r| greedy_action(log_softmax(logits.row(r))))),
    }
    answers.extend(
        pending
            .drain(..)
            .zip(actions.iter())
            .map(|(req, &action_index)| DecisionResponse {
                episode: req.episode,
                action_index,
                version: w.version,
            }),
    );
    true
}

/// [`forward`]'s buffers, which the shard loop keeps from one forward to
/// the next: the stacked observations, the logits, the hidden activations
/// between layers, and the actions. Once shaped by the largest batch, a
/// forward allocates none of them.
#[derive(Default)]
struct ForwardBuffers {
    batch: Matrix,
    logits: Matrix,
    hidden: Matrix,
    actions: Vec<usize>,
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

    /// A worker of shard 0 of `num_shards` over four nodes, serving
    /// `policy`, with the frontend's ends of its mailbox and response
    /// channel.
    fn worker(
        policy: &Arc<CoordinationPolicy>,
        num_shards: usize,
        stochastic_seed: Option<u64>,
    ) -> (ShardWorker, BoxTx<ShardMsg>, BoxRx<Vec<DecisionResponse>>) {
        use dosco_net::{InProcess, Transport};
        let (tx, mailbox) = Transport::<ShardMsg>::channel(&InProcess, 8);
        let (responses, rx) = Transport::<Vec<DecisionResponse>>::channel(&InProcess, 1);
        let w = ShardWorker {
            index: 0,
            num_shards,
            num_nodes: 4,
            stochastic_seed,
            policy: Arc::clone(policy),
            version: 0,
            mailbox,
            responses,
        };
        (w, tx, rx)
    }

    /// A random policy of degree 1: eight inputs, two actions.
    fn policy() -> Arc<CoordinationPolicy> {
        use dosco_core::policy::PolicyMetadata;
        use dosco_nn::mlp::{Activation, Mlp};
        let actor = Mlp::new(&[8, 4, 2], Activation::Tanh, &mut StdRng::seed_from_u64(3));
        Arc::new(CoordinationPolicy::new(actor, 1, PolicyMetadata::default()))
    }

    fn request(id: u64, node: usize, obs: Vec<f32>) -> DecisionRequest {
        DecisionRequest {
            id,
            episode: id as usize,
            node: NodeId(node),
            obs,
        }
    }

    /// Forwarding an epoch's rows in three chunks answers exactly what one
    /// forward over all of them does, and both equal the per-decision
    /// policy: `act` greedy, `act_sampled` on each node's `per_node_seed`
    /// stream in request-id order when stochastic.
    #[test]
    fn chunked_forwarding_equals_one_batch_equals_per_row_decisions() {
        use rand::Rng;
        let policy = policy();
        let mut obs_rng = StdRng::seed_from_u64(11);
        let n = 13;
        let requests: Vec<DecisionRequest> = (0..n)
            .map(|i| {
                let obs = (0..8).map(|_| obs_rng.gen_range(-2.0f32..2.0)).collect();
                request(i as u64, i % 4, obs)
            })
            .collect();
        for seed in [None, Some(5)] {
            let (w, _tx, _rx) = worker(&policy, 1, seed);
            // Forwards `requests[0..ends[0]]`, then `[ends[0]..ends[1]]`, ….
            let run = |ends: &[usize]| {
                let mut rngs = node_streams(&w);
                let mut answers = Vec::new();
                let mut buffers = ForwardBuffers::default();
                let mut start = 0;
                for &end in ends {
                    let mut pending = requests[start..end].to_vec();
                    assert!(forward(
                        &w,
                        &mut pending,
                        rngs.as_deref_mut(),
                        &mut answers,
                        &mut buffers,
                    ));
                    assert!(pending.is_empty());
                    start = end;
                }
                answers
            };
            let chunked = run(&[1, 4, n]);
            assert_eq!(chunked, run(&[n]), "seed {seed:?}");
            let mut streams: Vec<StdRng> = (0..4)
                .map(|v| StdRng::seed_from_u64(per_node_seed(seed.unwrap_or(0), v)))
                .collect();
            let per_row: Vec<usize> = requests
                .iter()
                .map(|r| match seed {
                    Some(_) => policy.act_sampled(&r.obs, &mut streams[r.node.0]),
                    None => policy.act(&r.obs),
                })
                .collect();
            let actions: Vec<usize> = chunked.iter().map(|a| a.action_index).collect();
            assert_eq!(actions, per_row, "seed {seed:?}");
            assert!(chunked
                .iter()
                .zip(&requests)
                .all(|(a, r)| a.episode == r.episode && a.version == 0));
        }
    }

    /// A request for a node the shard does not own, an observation of the
    /// wrong width, or a request id that does not ascend ends the shard
    /// loop: no answer is sent and the response channel closes, which is
    /// what the frontend writes the shard off on. Stochastic serving, so
    /// an unchecked lookup of the node's RNG stream would panic.
    #[test]
    fn protocol_violations_end_the_loop_without_answering() {
        let policy = policy();
        let cases = [
            ("a node of shard 1", vec![request(0, 1, vec![0.0; 8])]),
            (
                "a node outside the topology",
                vec![request(0, 4, vec![0.0; 8])],
            ),
            (
                "an observation of the wrong width",
                vec![request(0, 0, vec![0.0; 7])],
            ),
            (
                "a repeated request id",
                vec![request(3, 0, vec![0.0; 8]), request(3, 2, vec![0.0; 8])],
            ),
            (
                "a descending request id",
                vec![request(3, 0, vec![0.0; 8]), request(2, 2, vec![0.0; 8])],
            ),
        ];
        for (what, requests) in cases {
            let (w, tx, rx) = worker(&policy, 2, Some(1));
            for r in requests {
                tx.send(ShardMsg::Request(r)).expect("queue");
            }
            tx.send(ShardMsg::Flush).expect("queue");
            run_shard(w);
            assert_eq!(rx.try_recv(), Err(TryRecvError::Disconnected), "{what}");
        }
    }

    /// Requests that trickle in are forwarded as they arrive, and the
    /// flush still answers the epoch as one batch in request order.
    #[test]
    fn trickled_requests_are_answered_as_one_batch_at_the_flush() {
        let policy = policy();
        let (w, tx, rx) = worker(&policy, 1, None);
        let requests: Vec<DecisionRequest> = (0..4)
            .map(|i| request(i, i as usize, vec![0.25 * i as f32; 8]))
            .collect();
        let expected: Vec<usize> = requests.iter().map(|r| policy.act(&r.obs)).collect();
        std::thread::scope(|s| {
            s.spawn(move || run_shard(w));
            for r in requests {
                tx.send(ShardMsg::Request(r)).expect("queue");
                std::thread::sleep(std::time::Duration::from_millis(5));
            }
            tx.send(ShardMsg::Flush).expect("queue");
            let answers = rx.recv().expect("one batch");
            let actions: Vec<usize> = answers.iter().map(|a| a.action_index).collect();
            assert_eq!(actions, expected);
            assert_eq!(
                answers.iter().map(|a| a.episode).collect::<Vec<_>>(),
                [0, 1, 2, 3]
            );
            tx.send(ShardMsg::Shutdown).expect("queue");
        });
    }
}

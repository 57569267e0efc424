//! Shard workers: the mailbox protocol and the batched-inference loop.
//!
//! Each shard owns a fixed subset of the topology's nodes
//! ([`shard_of`]), one bounded mailbox, and — under stochastic serving —
//! one RNG stream per owned node. Whenever its mailbox runs dry within an
//! epoch, the shard answers the oldest request still unanswered with a
//! one-row forward: the GEMM for early episodes runs while the frontend
//! is still stepping the later ones, and the [`ShardMsg::Flush`] barrier
//! finds the shard at most one row's forward away. At the flush, a shard
//! with at least [`HELP_MIN_ROWS`] rows unanswered hands the back half of
//! them to the frontend as a [`HelpJob`] — the frontend has nothing else
//! to do until the epoch's answers arrive — forwards the front half
//! itself, takes the frontend's logits back, and answers every row in
//! request order. It then sends the epoch's answers as one batch.
//!
//! Because the blocked GEMM computes every output element independently
//! (ascending-k, single accumulator) and `tanh` works per element, each
//! row's logits are bitwise identical to a per-decision forward whatever
//! batch — and whichever thread — computed them. Action choice stays with
//! the shard: greedy argmax, or draws from each node's stream in
//! request-id order. So how an epoch's rows split into forwards changes
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
    /// The local observation at the decision point. The buffer goes back
    /// to the frontend in the epoch's [`EpochBatch::spent`].
    pub obs: Vec<f32>,
}

/// The shard mailbox protocol. Messages are FIFO per sender; the
/// frontend is the only producer, so a shard sees requests in id order
/// and swaps exactly at the epoch boundary they were broadcast.
#[derive(Debug)]
pub(crate) enum ShardMsg {
    /// Queue a decision request for the next flush.
    Request(DecisionRequest),
    /// Epoch barrier: answer every request queued since the last one and
    /// send the answers as one batch, in the batch buffers carried here
    /// (an earlier epoch's, emptied by the frontend, or fresh ones).
    Flush(EpochBatch),
    /// The frontend's logits for the [`HelpJob`] the shard handed it at
    /// this flush.
    Logits(HelpJob),
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

/// What a shard sends the frontend on its response channel, which holds
/// one message: at a flush, at most one help job, then the epoch's batch.
#[derive(Debug)]
pub(crate) enum ShardReply {
    /// Rows for the frontend to forward while the shard forwards the
    /// rest; the frontend sends it back as [`ShardMsg::Logits`].
    Help(HelpJob),
    /// The epoch's answers.
    Batch(EpochBatch),
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

/// One epoch's batch: a single channel hand-off per shard per epoch, so
/// transport cost scales with shards, not decisions. Both vectors travel
/// back to the shard emptied inside the next [`ShardMsg::Flush`], so once
/// they are shaped an epoch allocates neither.
#[derive(Debug, Default)]
pub(crate) struct EpochBatch {
    /// The answers, in request order.
    pub answers: Vec<DecisionResponse>,
    /// The observation buffers of the requests answered, for the
    /// frontend to observe into again.
    pub spent: Vec<Vec<f32>>,
}

/// The back rows of a flush's forward, handed to the frontend's thread:
/// their stacked observations, the policy the shard serves them under
/// (swaps land only at epoch boundaries, so it is the one the shard
/// answers with), and the buffer the logits go into. Rows and logits
/// buffers go back and forth between the threads, so once shaped a job
/// allocates nothing.
#[derive(Debug)]
pub(crate) struct HelpJob {
    policy: Arc<CoordinationPolicy>,
    rows: Matrix,
    logits: Matrix,
}

impl HelpJob {
    /// The rows handed over.
    pub(crate) fn rows(&self) -> usize {
        self.rows.rows()
    }

    /// Forwards the rows under the job's policy into its logits, through
    /// `hidden` for the activations between layers: the same
    /// `Mlp::forward_into` the shard runs. `false`, computing nothing, if
    /// the rows are not the policy's input width.
    pub(crate) fn run(&mut self, hidden: &mut Matrix) -> bool {
        let actor = self.policy.actor();
        if self.rows.cols() != actor.inputs() {
            return false;
        }
        actor.forward_into(&self.rows, &mut self.logits, hidden);
        true
    }
}

/// The fewest rows left unanswered at a flush for which a shard hands
/// any to the frontend: a job costs two channel trips. With one-row
/// streaming a flush finds either almost nothing or most of an epoch
/// left, so thresholds of 2 to 8 rows measured alike; DESIGN.md gives
/// the measurement.
const HELP_MIN_ROWS: usize = 4;

/// How many of the `rows` left unanswered at a flush the shard hands to
/// the frontend: none below [`HELP_MIN_ROWS`], else the back half,
/// rounded down.
fn handed_over(rows: usize) -> usize {
    if rows < HELP_MIN_ROWS {
        0
    } else {
        rows / 2
    }
}

/// Everything a shard worker owns.
pub(crate) struct ShardWorker {
    pub index: usize,
    pub num_shards: usize,
    pub num_nodes: usize,
    pub stochastic_seed: Option<u64>,
    pub policy: Arc<CoordinationPolicy>,
    pub version: u64,
    pub mailbox: BoxRx<ShardMsg>,
    pub responses: BoxTx<ShardReply>,
}

impl ShardWorker {
    /// Whether `node` is in this shard's part of the partition.
    fn owns(&self, node: usize) -> bool {
        node < self.num_nodes && shard_of(node, self.num_shards) == self.index
    }
}

/// The shard thread body: drain the mailbox, answering one row whenever
/// it runs dry, and answer the rest of the epoch at its flush barrier
/// with the frontend's help. A request for a node the shard does not
/// own, an observation whose width is not the actor's input, a request
/// id that does not ascend, logits the shard did not ask for, or a row
/// whose logits are not finite breaks the protocol: the loop ends, which
/// closes both channel ends, and the frontend writes the shard off.
pub(crate) fn run_shard(mut w: ShardWorker) {
    let mut state = ForwardState::new(&w);
    // This epoch's requests, the first `answered` of them answered in
    // `batch.answers`.
    let mut pending: Vec<DecisionRequest> = Vec::new();
    let mut answered = 0;
    let mut batch = EpochBatch::default();
    let mut last_id = None;
    loop {
        let msg = match w.mailbox.try_recv() {
            Ok(msg) => Ok(msg),
            // The mailbox ran dry mid-epoch: answer the oldest row while
            // the frontend steps the episodes still to come.
            Err(TryRecvError::Empty) if answered < pending.len() => {
                let row = &pending[answered..=answered];
                if !forward(&w, row, 0, &mut batch.answers, &mut state) {
                    return;
                }
                answered += 1;
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
            Ok(ShardMsg::Flush(spare)) => {
                let rows = &pending[answered..];
                let handed = handed_over(rows.len());
                let forwarded = forward(&w, rows, handed, &mut batch.answers, &mut state);
                if forwarded && !batch.answers.is_empty() {
                    let rows = batch.answers.len() as f64;
                    registry::set_gauge(GaugeKind::LastServeQueueDepth, rows);
                    registry::max_gauge(GaugeKind::PeakServeQueueDepth, rows);
                    batch.spent.extend(pending.drain(..).map(|r| r.obs));
                    answered = 0;
                    // A send error means the frontend is gone; the
                    // answers are moot.
                    let _ = w
                        .responses
                        .send(ShardReply::Batch(std::mem::replace(&mut batch, spare)));
                }
                forwarded
            }
            Ok(ShardMsg::Swap { policy, version }) => {
                // No batch mixes two policy versions.
                let rows = &pending[answered..];
                let forwarded = forward(&w, rows, 0, &mut batch.answers, &mut state);
                answered = pending.len();
                w.policy = policy;
                w.version = version;
                forwarded
            }
            // Disconnect means the frontend dropped the mailbox: treat
            // like a shutdown. Logits arrive only inside a forward.
            Ok(ShardMsg::Logits(_) | ShardMsg::Shutdown) | Err(_) => false,
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

/// Stacks the observations of `rows` into `batch`.
fn stack(rows: &[DecisionRequest], batch: &mut Matrix, inputs: usize) {
    batch.reshape(rows.len(), inputs);
    for (r, req) in rows.iter().enumerate() {
        batch.row_mut(r).copy_from_slice(&req.obs);
    }
}

/// The forward step: answers every row of `rows` under the shard's
/// current policy and appends the answers to `answers` in request order.
/// The last `handed` rows go to the frontend as a [`HelpJob`] before the
/// shard forwards the others, and the shard waits on its mailbox for
/// their logits — the frontend sends nothing else while a barrier is
/// open — before it answers any row. Greedy, or under stochastic serving
/// one draw per row, in request order, from the owning node's stream.
/// Returns `false` if the handed-over rows do not come back as logits, a
/// row's logits are not finite (a
/// diverged policy) or, when sampling, its node has no stream here:
/// argmax and sampling have no answer for such a row, and the shard loop
/// ends without sending what was appended.
fn forward(
    w: &ShardWorker,
    rows: &[DecisionRequest],
    handed: usize,
    answers: &mut Vec<DecisionResponse>,
    state: &mut ForwardState,
) -> bool {
    if rows.is_empty() {
        return true;
    }
    registry::observe(HistKind::ServeBatchSize, rows.len() as f64);
    let _span = dosco_obs::span(SpanKind::ServeBatchForward);
    let ForwardState {
        rngs,
        batch,
        logits,
        hidden,
        help_rows,
        help_logits,
    } = state;
    let actor = w.policy.actor();
    let (front, back) = rows.split_at(rows.len() - handed);
    if !back.is_empty() {
        stack(back, help_rows, actor.inputs());
        let job = HelpJob {
            policy: Arc::clone(&w.policy),
            rows: std::mem::take(help_rows),
            logits: std::mem::take(help_logits),
        };
        if w.responses.send(ShardReply::Help(job)).is_err() {
            return false;
        }
    }
    if !front.is_empty() {
        stack(front, batch, actor.inputs());
        actor.forward_into(batch, logits, hidden);
    }
    if !back.is_empty() {
        let Ok(ShardMsg::Logits(job)) = next_message(&*w.mailbox) else {
            return false;
        };
        *help_rows = job.rows;
        *help_logits = job.logits;
    }
    let parts = [(front, &*logits), (back, &*help_logits)];
    if parts
        .iter()
        .any(|(part, l)| !part.is_empty() && !l.as_slice().iter().all(|v| v.is_finite()))
    {
        return false;
    }
    for (part, l) in parts {
        for (r, req) in part.iter().enumerate() {
            let action_index = match rngs.as_deref_mut() {
                // One draw per row, in id order, from the owning node's
                // stream — the exact draws a per-decision deployment
                // makes.
                Some(rngs) => {
                    let Some(rng) = rngs.get_mut(req.node.0).and_then(Option::as_mut) else {
                        return false;
                    };
                    sample_action(log_softmax(l.row(r)), rng)
                }
                None => greedy_action(log_softmax(l.row(r))),
            };
            answers.push(DecisionResponse {
                episode: req.episode,
                action_index,
                version: w.version,
            });
        }
    }
    true
}

/// What [`forward`] keeps from one call to the next: under stochastic
/// serving, the owned nodes' RNG streams ([`node_streams`]); and its
/// buffers — the stacked observations, the logits and the hidden
/// activations between layers of the shard's part, and the stacked
/// observations and logits of the part handed over. Once shaped by the
/// largest batch, a forward allocates none of them.
#[derive(Default)]
struct ForwardState {
    rngs: Option<Vec<Option<StdRng>>>,
    batch: Matrix,
    logits: Matrix,
    hidden: Matrix,
    help_rows: Matrix,
    help_logits: Matrix,
}

impl ForwardState {
    fn new(w: &ShardWorker) -> Self {
        ForwardState {
            rngs: node_streams(w),
            ..ForwardState::default()
        }
    }
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
    ) -> (ShardWorker, BoxTx<ShardMsg>, BoxRx<ShardReply>) {
        use dosco_net::{InProcess, Transport};
        let (tx, mailbox) = Transport::<ShardMsg>::channel(&InProcess, 16);
        let (responses, rx) = Transport::<ShardReply>::channel(&InProcess, 1);
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

    /// `n` requests with random observations, round-robin over the four
    /// nodes.
    fn requests(n: usize) -> Vec<DecisionRequest> {
        use rand::Rng;
        let mut obs_rng = StdRng::seed_from_u64(11);
        (0..n)
            .map(|i| {
                let obs = (0..8).map(|_| obs_rng.gen_range(-2.0f32..2.0)).collect();
                request(i as u64, i % 4, obs)
            })
            .collect()
    }

    /// Plays the frontend's part of a flush on the other ends of a
    /// worker's channels until they close: forwards each help job with
    /// [`HelpJob::run`] and sends it back, first writing a NaN into its
    /// first logit if `poison`.
    fn answer_help_jobs(tx: BoxTx<ShardMsg>, rx: BoxRx<ShardReply>, poison: bool) {
        while let Ok(ShardReply::Help(mut job)) = rx.recv() {
            assert!(job.run(&mut Matrix::default()));
            if poison {
                job.logits.as_mut_slice()[0] = f32::NAN;
            }
            if tx.send(ShardMsg::Logits(job)).is_err() {
                return;
            }
        }
    }

    /// Forwarding an epoch's rows in chunks answers exactly what one
    /// forward over all of them does — and so does every split of a
    /// forward into a front part the shard forwards and a back part
    /// forwarded on another thread — and all equal the per-decision
    /// policy: `act` greedy, `act_sampled` on each node's `per_node_seed`
    /// stream in request-id order when stochastic.
    #[test]
    fn chunked_forwarding_equals_one_batch_equals_per_row_decisions() {
        let policy = &policy();
        let n = 13;
        let requests = &requests(n);
        for seed in [None, Some(5)] {
            let (w, tx, rx) = worker(policy, 1, seed);
            // The scope's closure owns the worker, so a failed assertion
            // drops its channel ends and the frontend's thread ends
            // instead of keeping the scope waiting.
            std::thread::scope(move |s| {
                s.spawn(move || answer_help_jobs(tx, rx, false));
                // Forwards `requests[0..ends[0]]`, then
                // `[ends[0]..ends[1]]`, …, handing the last `handed` rows
                // of the last chunk over.
                let run = |ends: &[usize], handed: usize| {
                    let mut state = ForwardState::new(&w);
                    let mut answers = Vec::new();
                    let mut start = 0;
                    for (i, &end) in ends.iter().enumerate() {
                        let handed = if i + 1 == ends.len() { handed } else { 0 };
                        let rows = &requests[start..end];
                        assert!(forward(&w, rows, handed, &mut answers, &mut state));
                        start = end;
                    }
                    answers
                };
                let one_batch = run(&[n], 0);
                assert_eq!(run(&[1, 4, n], 0), one_batch, "seed {seed:?}");
                for handed in 0..=n {
                    let split = run(&[n], handed);
                    assert_eq!(split, one_batch, "seed {seed:?}, {handed} handed");
                }
                for handed in 0..=n - 4 {
                    let chunked = run(&[1, 4, n], handed);
                    assert_eq!(chunked, one_batch, "seed {seed:?}, {handed} handed");
                }
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
                let actions: Vec<usize> = one_batch.iter().map(|a| a.action_index).collect();
                assert_eq!(actions, per_row, "seed {seed:?}");
                assert!(one_batch
                    .iter()
                    .zip(requests)
                    .all(|(a, r)| a.episode == r.episode && a.version == 0));
            });
        }
    }

    /// A non-finite logit in the handed-over part ends the forward as one
    /// in the shard's own part does, and so does a job whose frontend
    /// goes away without answering it.
    #[test]
    fn a_non_finite_or_missing_handed_over_part_ends_the_forward() {
        let policy = policy();
        let requests = requests(13);
        for seed in [None, Some(5)] {
            for what in ["a NaN logit", "a frontend that goes away"] {
                let (w, tx, rx) = worker(&policy, 1, seed);
                std::thread::scope(|s| {
                    s.spawn(move || match what {
                        "a NaN logit" => answer_help_jobs(tx, rx, true),
                        _ => drop(rx.recv()),
                    });
                    let mut state = ForwardState::new(&w);
                    let forwarded = forward(&w, &requests, 6, &mut Vec::new(), &mut state);
                    drop(w);
                    assert!(!forwarded, "{what}, seed {seed:?}");
                });
            }
        }
    }

    /// A request for a node the shard does not own, an observation of the
    /// wrong width, a request id that does not ascend, or logits it did
    /// not ask for end the shard loop: no answer is sent and the response
    /// channel closes, which is what the frontend writes the shard off
    /// on. Stochastic serving, so an unchecked lookup of the node's RNG
    /// stream would panic.
    #[test]
    fn protocol_violations_end_the_loop_without_answering() {
        let policy = policy();
        let logits = || HelpJob {
            policy: Arc::clone(&policy),
            rows: Matrix::default(),
            logits: Matrix::default(),
        };
        let cases = [
            (
                "a node of shard 1",
                vec![ShardMsg::Request(request(0, 1, vec![0.0; 8]))],
            ),
            (
                "a node outside the topology",
                vec![ShardMsg::Request(request(0, 4, vec![0.0; 8]))],
            ),
            (
                "an observation of the wrong width",
                vec![ShardMsg::Request(request(0, 0, vec![0.0; 7]))],
            ),
            (
                "a repeated request id",
                vec![
                    ShardMsg::Request(request(3, 0, vec![0.0; 8])),
                    ShardMsg::Request(request(3, 2, vec![0.0; 8])),
                ],
            ),
            (
                "a descending request id",
                vec![
                    ShardMsg::Request(request(3, 0, vec![0.0; 8])),
                    ShardMsg::Request(request(2, 2, vec![0.0; 8])),
                ],
            ),
            (
                "logits it did not ask for",
                vec![ShardMsg::Logits(logits())],
            ),
        ];
        for (what, messages) in cases {
            let (w, tx, rx) = worker(&policy, 2, Some(1));
            for m in messages {
                tx.send(m).expect("queue");
            }
            tx.send(ShardMsg::Flush(EpochBatch::default()))
                .expect("queue");
            run_shard(w);
            assert!(
                matches!(rx.try_recv(), Err(TryRecvError::Disconnected)),
                "{what}"
            );
        }
    }

    /// The batch of an epoch's flush: its answers' actions and episodes,
    /// and how many observation buffers came back.
    fn batch_of(reply: ShardReply) -> (Vec<usize>, Vec<usize>, usize) {
        let ShardReply::Batch(b) = reply else {
            panic!("expected the epoch's batch, got {reply:?}");
        };
        (
            b.answers.iter().map(|a| a.action_index).collect(),
            b.answers.iter().map(|a| a.episode).collect(),
            b.spent.len(),
        )
    }

    /// Requests that trickle in are answered as they arrive, and the
    /// flush still answers the epoch as one batch in request order, with
    /// every observation buffer handed back.
    #[test]
    fn trickled_requests_are_answered_as_one_batch_at_the_flush() {
        let policy = policy();
        let (w, tx, rx) = worker(&policy, 1, None);
        let requests: Vec<DecisionRequest> = (0..4)
            .map(|i| request(i, i as usize, vec![0.25 * i as f32; 8]))
            .collect();
        let expected: Vec<usize> = requests.iter().map(|r| policy.act(&r.obs)).collect();
        // The scope's closure owns the mailbox sender, so a failed
        // assertion drops it and the shard loop ends instead of keeping
        // the scope waiting.
        std::thread::scope(move |s| {
            s.spawn(move || run_shard(w));
            for r in requests {
                tx.send(ShardMsg::Request(r)).expect("queue");
                std::thread::sleep(std::time::Duration::from_millis(5));
            }
            tx.send(ShardMsg::Flush(EpochBatch::default()))
                .expect("queue");
            let (actions, episodes, spent) = batch_of(rx.recv().expect("one batch"));
            assert_eq!(actions, expected);
            assert_eq!(episodes, [0, 1, 2, 3]);
            assert_eq!(spent, 4);
            tx.send(ShardMsg::Shutdown).expect("queue");
        });
    }

    /// Requests queued before the shard starts are all unanswered at the
    /// flush: the shard hands the back half of them to the frontend, and
    /// once the logits come back answers the whole epoch exactly as the
    /// per-decision policy does, in request order.
    #[test]
    fn a_flush_hands_the_back_half_over_and_answers_in_request_order() {
        let policy = policy();
        let (w, tx, rx) = worker(&policy, 1, None);
        let n = 13;
        let requests = requests(n);
        let expected: Vec<usize> = requests.iter().map(|r| policy.act(&r.obs)).collect();
        for r in requests {
            tx.send(ShardMsg::Request(r)).expect("queue");
        }
        tx.send(ShardMsg::Flush(EpochBatch::default()))
            .expect("queue");
        // Owning the sender, as above.
        std::thread::scope(move |s| {
            s.spawn(move || run_shard(w));
            let Ok(ShardReply::Help(mut job)) = rx.recv() else {
                panic!("expected a help job first");
            };
            assert_eq!(job.rows(), handed_over(n));
            assert!(job.run(&mut Matrix::default()));
            tx.send(ShardMsg::Logits(job)).expect("queue");
            let (actions, episodes, spent) = batch_of(rx.recv().expect("one batch"));
            assert_eq!(actions, expected);
            assert_eq!(episodes, (0..n).collect::<Vec<_>>());
            assert_eq!(spent, n);
            tx.send(ShardMsg::Shutdown).expect("queue");
        });
    }
}

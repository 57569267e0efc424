//! Multi-seed training with best-agent selection (Alg. 1 ln. 13).
//!
//! Random seeds have a significant impact on DRL convergence (Henderson et
//! al. \[43\]); the paper therefore trains `k = 10` agents with different
//! seeds in parallel and deploys the one with the highest reward.
//! This workspace uses more than one core for compute at two grains, both
//! here: [`fan_out`] spreads whole seeds (training or evaluation) over the
//! machine's cores, each running the serial kernels, and a learner's
//! [`Helper`] runs the critic half of each update beside the actor half —
//! only while a core is free, because when the seeds fill the cores they
//! keep them. "Free" is judged once, from the core count, so a thread that
//! waits through the update must park rather than spin: the lockstep
//! runtime's actor blocks in a channel `recv` that sleeps at once, and
//! the critic half gets its core.

use crossbeam::channel::{bounded, Receiver, Sender};
use std::any::Any;
use std::cell::Cell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::thread::JoinHandle;

/// The host's core count, read once.
fn cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, usize::from))
}

thread_local! {
    /// Set on a [`fan_out`] worker while the workers fill every core.
    static CORES_FULL: Cell<bool> = const { Cell::new(false) };
}

/// Applies `f` to every item and returns the results in item order, on
/// `min(available_parallelism, items.len())` scoped threads that claim
/// items in index order, one at a time (inline on the calling thread when
/// that is 1). Meant for coarse, independent work — a training or
/// evaluation seed — where each item is worth a thread. When the workers
/// fill every core, the learners they run keep their update halves
/// inline ([`Helper`]).
///
/// # Panics
///
/// If `f` panics on an item, the other workers still finish what is left
/// and the first panic is re-raised once every worker has joined.
pub fn fan_out<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let workers = cores().min(items.len());
    if workers <= 1 {
        return items.iter().map(f).collect();
    }
    let full = workers == cores();
    // Relaxed: the counter only hands out indices; results travel through
    // the joins below.
    let next = AtomicUsize::new(0);
    let claim = || {
        CORES_FULL.set(full);
        let mut part = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            let Some(item) = items.get(i) else {
                return part;
            };
            part.push((i, f(item)));
        }
    };
    let mut done = Vec::with_capacity(items.len());
    let mut panic = None;
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers).map(|_| s.spawn(claim)).collect();
        for h in handles {
            match h.join() {
                Ok(part) => done.extend(part),
                Err(payload) => {
                    panic.get_or_insert(payload);
                }
            }
        }
    });
    if let Some(payload) = panic {
        resume_unwind(payload);
    }
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, r)| r).collect()
}

/// A job for the helper thread; it returns the state it was handed.
type Job = Box<dyn FnOnce() -> Box<dyn Any + Send> + Send>;

/// A finished job: its returned state, or its panic's payload.
type Done = std::thread::Result<Box<dyn Any + Send>>;

/// The second core of one learner's updates: one thread, named
/// `dosco-learner-helper`, that the learner's first job starts and that
/// dropping the learner joins. A job takes the state it works on by value
/// and returns it — the critic half of an update (its network, optimizer
/// and kept buffers), or ACKTR's Fisher statistics, which blend here
/// while the next batch is collected. The thread keeps what a thread
/// keeps between jobs (its stack, its GEMM transpose scratch), so an
/// update starts no thread and allocates no buffer.
///
/// A job runs on the thread only when a core is free for it: not on a
/// one-core host, and not on a [`fan_out`] worker while the workers fill
/// every core. There it runs inline, and which way it ran cannot show in
/// its result. One job is pending at a time.
#[derive(Default)]
pub struct Helper {
    thread: Option<HelperThread>,
    pending: Option<Pending>,
}

/// A job [`Helper::start`] started and [`Helper::finish`] has not
/// collected.
enum Pending {
    /// It ran inline at the start; its result.
    Ran(Box<dyn Any + Send>),
    /// It is on the helper thread.
    Away,
}

struct HelperThread {
    jobs: Sender<Job>,
    done: Receiver<Done>,
    handle: JoinHandle<()>,
}

impl HelperThread {
    fn spawn() -> Self {
        let (jobs, rx) = bounded::<Job>(1);
        let (tx, done) = bounded::<Done>(1);
        let handle = std::thread::Builder::new()
            .name("dosco-learner-helper".into())
            .spawn(move || {
                while let Ok(job) = rx.recv() {
                    if tx.send(catch_unwind(AssertUnwindSafe(job))).is_err() {
                        break;
                    }
                }
            })
            .expect("spawning the learner's helper thread");
        HelperThread { jobs, done, handle }
    }
}

impl Helper {
    /// Whether a job may take a core of its own.
    fn forks() -> bool {
        cores() > 1 && !CORES_FULL.get()
    }

    /// Starts `job`: on the helper thread when a core is free for it
    /// (spawning the thread for the first job), else right here.
    /// [`Helper::finish`] hands its result back.
    ///
    /// # Panics
    ///
    /// Panics if a job is pending, and re-raises the job's own panic when
    /// it runs inline.
    pub(crate) fn start<S: Send + 'static>(&mut self, job: impl FnOnce() -> S + Send + 'static) {
        assert!(self.pending.is_none(), "the helper runs one job at a time");
        let pending = if Self::forks() {
            self.send(job);
            Pending::Away
        } else {
            Pending::Ran(Box::new(job()))
        };
        self.pending = Some(pending);
    }

    /// The result of the pending job once it is done, or `None` if no job
    /// is pending.
    ///
    /// # Panics
    ///
    /// Re-raises the job's panic with its own payload; panics if `S` is
    /// not the type the job returned.
    pub(crate) fn finish<S: 'static>(&mut self) -> Option<S> {
        let result = match self.pending.take()? {
            Pending::Ran(result) => result,
            Pending::Away => self.wait().unwrap_or_else(|payload| resume_unwind(payload)),
        };
        Some(unbox(result))
    }

    /// Runs `inline` here and `job` beside it — on the helper thread when a
    /// core is free for it, else after `inline` — and returns both results.
    ///
    /// # Panics
    ///
    /// Panics if a job is pending. Re-raises a panic of either with its
    /// own payload once both are done: `job`'s after `inline` has
    /// finished, `inline`'s after `job` has. Inline, a panicking `inline`
    /// means `job` never starts.
    pub(crate) fn join<A, C>(
        &mut self,
        inline: impl FnOnce() -> A,
        job: impl FnOnce() -> C + Send + 'static,
    ) -> (A, C)
    where
        C: Send + 'static,
    {
        assert!(self.pending.is_none(), "the helper runs one job at a time");
        if !Self::forks() {
            let a = inline();
            return (a, job());
        }
        self.send(job);
        let a = catch_unwind(AssertUnwindSafe(inline));
        let c = self.wait();
        let a = a.unwrap_or_else(|payload| resume_unwind(payload));
        let c = c.unwrap_or_else(|payload| resume_unwind(payload));
        (a, unbox(c))
    }

    /// Hands `job` to the helper thread, spawning the thread for the first.
    fn send<S: Send + 'static>(&mut self, job: impl FnOnce() -> S + Send + 'static) {
        let job: Job = Box::new(move || Box::new(job()));
        let thread = self.thread.get_or_insert_with(HelperThread::spawn);
        let sent = thread.jobs.send(job).is_ok();
        assert!(sent, "the helper thread lives as long as the helper");
    }

    /// Blocks until the job on the helper thread is done.
    fn wait(&self) -> Done {
        let thread = self.thread.as_ref().expect("a job on the helper thread");
        thread
            .done
            .recv()
            .expect("the helper thread answers every job")
    }
}

/// A job's result as the type the job returned.
fn unbox<S: 'static>(result: Box<dyn Any + Send>) -> S {
    *result
        .downcast()
        .expect("a job's result is collected as its own type")
}

impl std::fmt::Debug for Helper {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Helper")
            .field("started", &self.thread.is_some())
            .field("pending", &self.pending.is_some())
            .finish()
    }
}

/// Joins the helper thread once its job, if one is running, is done; the
/// job's result is dropped there.
impl Drop for Helper {
    fn drop(&mut self) {
        if let Some(HelperThread { jobs, done, handle }) = self.thread.take() {
            drop((jobs, done));
            // Jobs run under `catch_unwind`, so the thread cannot panic.
            let _ = handle.join();
        }
    }
}

/// The outcome of one seed's training run.
#[derive(Debug, Clone, PartialEq)]
pub struct SeedResult<A> {
    /// The training seed.
    pub seed: u64,
    /// The selection score (higher is better; e.g. tail mean reward or an
    /// evaluation success ratio).
    pub score: f32,
    /// The trained agent.
    pub agent: A,
}

/// Trains one agent per seed ([`fan_out`] over the seeds) and returns the
/// results sorted best-first. A seed whose score is NaN (a diverged run)
/// ranks last, so it cannot displace or discard the seeds that trained.
///
/// `train` maps a seed to `(agent, score)`; it must be `Sync` because the
/// closure is shared across threads.
///
/// # Panics
///
/// Panics if `seeds` is empty, or with the seed's own panic if `train`
/// panics.
///
/// # Example
///
/// ```
/// let results = dosco_rl::train_multi_seed(&[1, 2, 3], |seed| {
///     // toy "training": the agent is the seed, the score favors seed 2
///     (seed, if seed == 2 { 1.0 } else { 0.0 })
/// });
/// assert_eq!(results[0].agent, 2);
/// ```
pub fn train_multi_seed<A, F>(seeds: &[u64], train: F) -> Vec<SeedResult<A>>
where
    A: Send,
    F: Fn(u64) -> (A, f32) + Sync,
{
    assert!(!seeds.is_empty(), "need at least one seed");
    let mut results = fan_out(seeds, |&seed| {
        let (agent, score) = train(seed);
        SeedResult { seed, score, agent }
    });
    results.sort_by(|a, b| {
        let nan_last = a.score.is_nan().cmp(&b.score.is_nan());
        nan_last.then_with(|| b.score.total_cmp(&a.score))
    });
    results
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    /// More items than any host has workers: every item runs exactly once
    /// and the output is the serial `map`, in item order.
    #[test]
    fn fan_out_equals_the_serial_map_in_item_order() {
        let items: Vec<u64> = (0..257).collect();
        let runs: Vec<AtomicUsize> = items.iter().map(|_| AtomicUsize::new(0)).collect();
        let square = |&x: &u64| {
            runs[x as usize].fetch_add(1, Ordering::SeqCst);
            x * x
        };
        let out = fan_out(&items, square);
        assert!(runs.iter().all(|r| r.load(Ordering::SeqCst) == 1));
        assert_eq!(out, items.iter().map(|&x| x * x).collect::<Vec<_>>());
        assert_eq!(fan_out(&[] as &[u64], |&x| x), Vec::<u64>::new());
    }

    /// The last item is claimed after every other one, so whichever worker
    /// panics on it, the rest are finished or in flight — and the panic
    /// only surfaces once they are all done.
    #[test]
    fn fan_out_re_raises_a_panic_after_the_other_items_completed() {
        let items: Vec<usize> = (0..64).collect();
        let completed = AtomicUsize::new(0);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            fan_out(&items, |&i| {
                if i == 63 {
                    panic!("item 63 exploded");
                }
                completed.fetch_add(1, Ordering::SeqCst);
            })
        }));
        let payload = result.expect_err("the item's panic must propagate");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"item 63 exploded"));
        assert_eq!(completed.load(Ordering::SeqCst), 63);
    }

    /// The critic half forks from a free thread on a multi-core host, to
    /// the same helper thread update after update, and stays on the worker
    /// of a `fan_out` that fills the cores.
    #[test]
    fn halves_fork_only_when_a_core_is_free() {
        let here = || std::thread::current().id();
        let mut helper = Helper::default();
        let (actor, critic) = helper.join(here, here);
        assert_eq!(actor, here());
        assert_eq!(actor != critic, cores() > 1);
        assert_eq!(helper.join(here, here), (actor, critic));
        let workers = vec![(); cores()];
        for (actor, critic) in fan_out(&workers, |()| Helper::default().join(here, here)) {
            assert_eq!(actor, critic);
        }
    }

    /// The critic half is about to panic before the actor half finishes
    /// (forked, the actor waits for its word; inline, the actor runs
    /// first), and its payload surfaces only after the actor half is done.
    #[test]
    fn helper_re_raises_a_critic_panic_after_the_actor_half() {
        let actor_done = AtomicUsize::new(0);
        let (tx, rx) = std::sync::mpsc::channel();
        let mut helper = Helper::default();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            helper.join(
                || {
                    if cores() > 1 {
                        rx.recv().expect("the critic half sends before it panics");
                    }
                    actor_done.fetch_add(1, Ordering::SeqCst);
                },
                move || {
                    tx.send(()).expect("the actor half holds the receiver");
                    panic!("critic half exploded")
                },
            )
        }));
        let payload = result.expect_err("the critic's panic must propagate");
        assert_eq!(
            payload.downcast_ref::<&str>(),
            Some(&"critic half exploded")
        );
        assert_eq!(actor_done.load(Ordering::SeqCst), 1);
    }

    /// The actor half panics while the critic half waits for its word;
    /// the critic still runs to the end and is joined before the actor's
    /// payload surfaces. Inline (one core) the critic half never starts.
    #[test]
    fn helper_joins_the_critic_before_re_raising_an_actor_panic() {
        let critic_done = Arc::new(AtomicUsize::new(0));
        let done = Arc::clone(&critic_done);
        let (tx, rx) = std::sync::mpsc::channel();
        let mut helper = Helper::default();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            helper.join(
                move || {
                    // An unbounded send never blocks, forked or inline.
                    tx.send(()).expect("the critic half holds the receiver");
                    panic!("actor half exploded")
                },
                move || {
                    rx.recv().expect("the actor half sends before it panics");
                    done.fetch_add(1, Ordering::SeqCst);
                },
            )
        }));
        let payload = result.expect_err("the actor's panic must propagate");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"actor half exploded"));
        assert_eq!(critic_done.load(Ordering::SeqCst), usize::from(cores() > 1));
    }

    /// A started job hands its state back by value, and a job still
    /// running when the helper drops finishes before the drop returns.
    #[test]
    fn a_started_job_returns_its_state_and_drop_waits_for_it() {
        let mut helper = Helper::default();
        assert_eq!(helper.finish::<Vec<u32>>(), None);
        helper.start(|| vec![1u32, 2, 3]);
        assert_eq!(helper.finish::<Vec<u32>>(), Some(vec![1, 2, 3]));
        let (tx, rx) = std::sync::mpsc::channel();
        helper.start(move || {
            std::thread::sleep(std::time::Duration::from_millis(20));
            tx.send(()).expect("the test holds the receiver");
        });
        drop(helper);
        assert_eq!(rx.try_recv(), Ok(()));
    }

    #[test]
    fn returns_sorted_best_first() {
        let results = train_multi_seed(&[10, 20, 30, 40], |seed| (seed, seed as f32));
        let scores: Vec<f32> = results.iter().map(|r| r.score).collect();
        assert_eq!(scores, vec![40.0, 30.0, 20.0, 10.0]);
        assert_eq!(results[0].agent, 40);
        assert_eq!(results[0].seed, 40);
    }

    /// One diverged seed must not panic the run or outrank a finite one.
    #[test]
    fn nan_score_ranks_last_and_the_best_finite_seed_first() {
        let results = train_multi_seed(&[1, 2, 3, 4], |seed| {
            let score = match seed {
                1 => 0.5,
                2 => f32::NAN,
                3 => 0.9,
                _ => f32::NEG_INFINITY,
            };
            (seed, score)
        });
        let order: Vec<u64> = results.iter().map(|r| r.agent).collect();
        assert_eq!(order, vec![3, 1, 4, 2]);
        assert!(results[3].score.is_nan());
    }

    #[test]
    fn runs_every_seed_exactly_once() {
        let count = AtomicUsize::new(0);
        let results = train_multi_seed(&[1, 2, 3, 4, 5], |seed| {
            count.fetch_add(1, Ordering::SeqCst);
            (seed, 0.0)
        });
        assert_eq!(count.load(Ordering::SeqCst), 5);
        let mut seeds: Vec<u64> = results.iter().map(|r| r.seed).collect();
        seeds.sort_unstable();
        assert_eq!(seeds, vec![1, 2, 3, 4, 5]);
    }

    #[test]
    #[should_panic(expected = "at least one seed")]
    fn rejects_empty_seed_list() {
        let _ = train_multi_seed(&[], |s| (s, 0.0));
    }

    /// A panicking seed closure propagates out of `train_multi_seed`
    /// with its own message instead of being swallowed by the worker
    /// thread.
    #[test]
    #[should_panic(expected = "seed 2 exploded")]
    fn propagates_seed_closure_panics() {
        let _ = train_multi_seed(&[1, 2, 3], |seed| {
            if seed == 2 {
                panic!("seed 2 exploded");
            }
            (seed, 0.0)
        });
    }

    #[test]
    fn actually_trains_rl_agents_in_parallel() {
        use crate::a2c::{A2c, A2cConfig};
        use crate::env::testenvs::Corridor;
        use crate::env::Env;
        let results = train_multi_seed(&[1, 2], |seed| {
            let mut envs: Vec<Box<dyn Env>> = vec![Box::new(Corridor::new(4))];
            let cfg = A2cConfig {
                hidden: [8, 8],
                ..A2cConfig::default()
            };
            let mut agent = A2c::new(1, 2, cfg, seed);
            let stats = agent.train(&mut envs, 2_000);
            let score = stats.tail_mean(10);
            (agent, score)
        });
        assert_eq!(results.len(), 2);
        assert!(results[0].score >= results[1].score);
    }
}

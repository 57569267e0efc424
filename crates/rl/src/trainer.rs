//! Multi-seed training with best-agent selection (Alg. 1 ln. 13), and
//! the job a learner's [`Helper`] runs.
//!
//! Random seeds have a significant impact on DRL convergence (Henderson et
//! al. \[43\]); the paper therefore trains `k = 10` agents with different
//! seeds in parallel and deploys the one with the highest reward.
//! [`train_multi_seed`] spreads the seeds over the cores with
//! [`fan_out`], and a learner's [`Helper`] runs the critic half of each
//! update beside the actor half while a core is free (`dosco_nn::fork`).

use dosco_nn::fork::{self, fan_out};
use std::any::Any;

/// The learner's helper: one `dosco_nn::fork::Helper` whose job is a
/// [`Task`] — the critic half of an update (its network, optimizer and
/// kept buffers, moved in and handed back), or ACKTR's Fisher statistics,
/// which blend there while the next batch is collected.
pub type Helper = fork::Helper<Task>;

/// A boxed job that returns the state it was handed, and once run, that
/// state, boxed.
#[derive(Default)]
pub struct Task {
    run: Option<Box<dyn FnOnce() -> Box<dyn Any + Send> + Send>>,
    result: Option<Box<dyn Any + Send>>,
}

impl fork::Job for Task {
    fn run(&mut self) {
        if let Some(run) = self.run.take() {
            self.result = Some(run());
        }
    }
}

impl std::fmt::Debug for Task {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Task")
            .field("loaded", &self.run.is_some())
            .field("done", &self.result.is_some())
            .finish()
    }
}

/// Starts `job` on `helper` ([`fork::Helper::start`]); [`finish`] hands
/// its result back. Loading a job first waits for the one still away, if
/// any, and drops a result nobody collected.
///
/// # Panics
///
/// With the job's own panic when it runs here.
pub fn start<S: Send + 'static>(helper: &Helper, job: impl FnOnce() -> S + Send + 'static) {
    load(helper, job);
    helper.start();
}

/// The result of the job last started, once it is done, or `None` if it
/// was collected already.
///
/// # Panics
///
/// Re-raises the job's panic with its own payload; panics if `S` is not
/// the type the job returned.
pub fn finish<S: 'static>(helper: &Helper) -> Option<S> {
    helper.finish().result.take().map(unbox)
}

/// Runs `inline` here and `job` beside it ([`fork::Helper::join`], with
/// its panic orderings) and returns both results.
#[allow(clippy::expect_used, reason = "a joined job has run")]
pub fn join<A, C: Send + 'static>(
    helper: &Helper,
    inline: impl FnOnce() -> A,
    job: impl FnOnce() -> C + Send + 'static,
) -> (A, C) {
    load(helper, job);
    let (a, mut task) = helper.join(inline);
    (a, unbox(task.result.take().expect("a joined job has run")))
}

/// Puts `job` in the helper's slot, once no job is away.
fn load<S: Send + 'static>(helper: &Helper, job: impl FnOnce() -> S + Send + 'static) {
    let mut task = helper.finish();
    task.run = Some(Box::new(move || Box::new(job())));
    task.result = None;
}

/// A job's result as the type the job returned.
///
/// # Panics
///
/// Panics if `S` is not the type the job returned: a caller's bug.
#[allow(clippy::expect_used, reason = "the documented # Panics contract")]
fn unbox<S: 'static>(result: Box<dyn Any + Send>) -> S {
    *result
        .downcast()
        .expect("a job's result is collected as its own type")
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
    use dosco_nn::fork::cores;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    /// The critic half forks from a free thread on a multi-core host, to
    /// the same helper thread update after update, and stays on the worker
    /// of a `fan_out` that fills the cores.
    #[test]
    fn halves_fork_only_when_a_core_is_free() {
        let here = || std::thread::current().id();
        let helper = Helper::default();
        let (actor, critic) = join(&helper, here, here);
        assert_eq!(actor, here());
        assert_eq!(actor != critic, cores() > 1);
        assert_eq!(join(&helper, here, here), (actor, critic));
        let workers = vec![(); cores()];
        for (actor, critic) in fan_out(&workers, |()| join(&Helper::default(), here, here)) {
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
        let helper = Helper::default();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            join(
                &helper,
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
        let helper = Helper::default();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            join(
                &helper,
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
        let helper = Helper::default();
        assert_eq!(finish::<Vec<u32>>(&helper), None);
        start(&helper, || vec![1u32, 2, 3]);
        assert_eq!(finish::<Vec<u32>>(&helper), Some(vec![1, 2, 3]));
        let (tx, rx) = std::sync::mpsc::channel();
        start(&helper, move || {
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

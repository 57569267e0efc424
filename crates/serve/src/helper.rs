//! The helper thread of one serve call. It forwards the back rows of an
//! epoch's batch while the calling thread forwards the front rows.
//!
//! An epoch lasts ≈ 20 µs, so both sides wait by polling: spin rounds,
//! then rounds that yield the core, then `park`. (The learner's `Helper`
//! in `dosco_rl` parks at once, which suits jobs of milliseconds.) The
//! job's buffers stay with the helper from one epoch to the next, so a
//! warm epoch allocates nothing. Every row's logits are independent of
//! the forward and of the thread that computed them (each GEMM output
//! element has its own ascending-k accumulator; `tanh` works per
//! element), so the split never changes a bit.

use dosco_core::CoordinationPolicy;
use dosco_nn::matrix::Matrix;
use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread::{self, Scope, Thread};

/// The fewest rows a batch must have for its back half to go to the
/// helper. Thresholds of 2, 4 and 8 rows measured alike on 16 episodes,
/// whose batches are rarely smaller; DESIGN.md gives the numbers.
pub(crate) const HELP_MIN_ROWS: usize = 4;

/// Polls a wait makes before it parks: busy rounds, then yielding ones.
const SPIN_ROUNDS: u32 = 100;
const YIELD_ROUNDS: u32 = 100;

/// The job's states: only the caller posts and stops, only the helper
/// thread finishes a job or panics. The job itself is handed over under
/// its mutex; the state only signals, stored with `Release` and loaded
/// with `Acquire`.
const POSTED: u8 = 1;
const DONE: u8 = 2;
const STOP: u8 = 3;
const PANICKED: u8 = 4;

/// One forward, its buffers kept from one epoch to the next: the policy,
/// the stacked observations, their logits and the activations between
/// layers.
#[derive(Debug, Default)]
pub(crate) struct Part {
    pub policy: Option<Arc<CoordinationPolicy>>,
    pub x: Matrix,
    pub logits: Matrix,
    hidden: Matrix,
}

impl Part {
    /// Forwards the stacked rows into the logits.
    pub(crate) fn forward(&mut self) {
        if let Some(p) = &self.policy {
            p.actor()
                .forward_into(&self.x, &mut self.logits, &mut self.hidden);
        }
    }
}

/// The helper of one serve call: the job it shares with the calling
/// thread and, when a second core exists, its scoped thread.
#[derive(Debug)]
pub(crate) struct Helper {
    state: AtomicU8,
    job: Mutex<Part>,
    /// The posting thread, unparked when a job is done.
    caller: Thread,
    /// The helper thread; unset while jobs run inline.
    thread: OnceLock<Thread>,
    panic: Mutex<Option<Box<dyn Any + Send>>>,
}

/// Stops the helper thread when dropped, also while the caller unwinds,
/// so the scope that joins it never waits on a thread that still polls.
#[derive(Debug)]
pub(crate) struct StopOnDrop<'a>(&'a Helper);

impl Drop for StopOnDrop<'_> {
    fn drop(&mut self) {
        self.0.state.store(STOP, Ordering::Release);
        if let Some(t) = self.0.thread.get() {
            t.unpark();
        }
    }
}

impl Helper {
    /// A helper posted to by the current thread; jobs run inline until
    /// a thread is spawned.
    pub(crate) fn new() -> Self {
        Helper {
            state: AtomicU8::new(DONE),
            job: Mutex::default(),
            caller: thread::current(),
            thread: OnceLock::new(),
            panic: Mutex::default(),
        }
    }

    /// Starts the helper thread in `scope` if the host has a second core.
    pub(crate) fn spawn_in<'s>(&'s self, scope: &'s Scope<'s, '_>) -> StopOnDrop<'s> {
        if thread::available_parallelism().map_or(1, usize::from) > 1 {
            self.spawn_thread(scope)
        } else {
            StopOnDrop(self)
        }
    }

    /// Starts the helper thread in `scope`, whatever the core count.
    pub(crate) fn spawn_thread<'s>(&'s self, scope: &'s Scope<'s, '_>) -> StopOnDrop<'s> {
        let handle = scope.spawn(|| self.serve());
        let _ = self.thread.set(handle.thread().clone());
        StopOnDrop(self)
    }

    /// The job, to fill before [`Helper::start`] and read after
    /// [`Helper::finish`]. A poisoned lock holds whole matrices, so it is
    /// recovered.
    pub(crate) fn job(&self) -> MutexGuard<'_, Part> {
        self.job.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Hands the filled job to the helper thread, or forwards it here
    /// when there is none.
    pub(crate) fn start(&self) {
        match self.thread.get() {
            Some(t) => {
                self.state.store(POSTED, Ordering::Release);
                t.unpark();
            }
            None => self.job().forward(),
        }
    }

    /// Waits for the started job and returns it, re-raising here a panic
    /// the helper thread hit.
    pub(crate) fn finish(&self) -> MutexGuard<'_, Part> {
        if self.thread.get().is_some() && self.wait_until(|s| s != POSTED) == PANICKED {
            let payload = self
                .panic
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .take();
            resume_unwind(payload.unwrap_or_else(|| Box::new("helper panicked")));
        }
        self.job()
    }

    /// The helper thread: forwards each posted job until stopped, or
    /// until a forward panics.
    fn serve(&self) {
        while self.wait_until(|s| s == POSTED || s == STOP) == POSTED {
            match catch_unwind(AssertUnwindSafe(|| self.job().forward())) {
                // Fails only if the caller stopped the helper meanwhile.
                Ok(()) => drop(self.state.compare_exchange(
                    POSTED,
                    DONE,
                    Ordering::AcqRel,
                    Ordering::Acquire,
                )),
                Err(payload) => {
                    *self.panic.lock().unwrap_or_else(PoisonError::into_inner) = Some(payload);
                    self.state.store(PANICKED, Ordering::Release);
                }
            }
            self.caller.unpark();
        }
    }

    /// Polls the state until `ready` holds: spin, yield, then park. The
    /// other side unparks this one after every store it waits for.
    fn wait_until(&self, ready: impl Fn(u8) -> bool) -> u8 {
        let mut round = 0u32;
        loop {
            let s = self.state.load(Ordering::Acquire);
            if ready(s) {
                return s;
            }
            match round {
                r if r < SPIN_ROUNDS => std::hint::spin_loop(),
                r if r < SPIN_ROUNDS + YIELD_ROUNDS => thread::yield_now(),
                _ => thread::park(),
            }
            round = round.saturating_add(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fabric::choose;
    use dosco_core::per_node_seed;
    use dosco_core::policy::PolicyMetadata;
    use dosco_nn::mlp::{Activation, Mlp};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// A random policy of degree 1: eight inputs, two actions.
    fn policy() -> Arc<CoordinationPolicy> {
        let actor = Mlp::new(&[8, 4, 2], Activation::Tanh, &mut StdRng::seed_from_u64(3));
        Arc::new(CoordinationPolicy::new(actor, 1, PolicyMetadata::default()))
    }

    /// `n` random observations; row `i` is decided at node `i % 4`.
    fn observations(n: usize) -> Vec<Vec<f32>> {
        let mut rng = StdRng::seed_from_u64(11);
        (0..n)
            .map(|_| (0..8).map(|_| rng.gen_range(-2.0f32..2.0)).collect())
            .collect()
    }

    fn stack(x: &mut Matrix, rows: &[Vec<f32>]) {
        x.reshape(rows.len(), 8);
        for (r, obs) in rows.iter().enumerate() {
            x.row_mut(r).copy_from_slice(obs);
        }
    }

    /// Forwards `rows` as the epoch loop does: the rows past `split` as
    /// the helper's job, the rest on this thread. Returns every row's
    /// logits, in row order.
    fn forward_split(
        helper: &Helper,
        policy: &Arc<CoordinationPolicy>,
        rows: &[Vec<f32>],
        split: usize,
    ) -> Vec<Vec<f32>> {
        let (front_rows, back_rows) = rows.split_at(split);
        let mut front = Part {
            policy: Some(Arc::clone(policy)),
            ..Part::default()
        };
        stack(&mut front.x, front_rows);
        if !back_rows.is_empty() {
            let mut job = helper.job();
            job.policy = Some(Arc::clone(policy));
            stack(&mut job.x, back_rows);
            drop(job);
            helper.start();
        }
        if !front_rows.is_empty() {
            front.forward();
        }
        let job = if back_rows.is_empty() {
            helper.job()
        } else {
            helper.finish()
        };
        let front = (0..split).map(|r| front.logits.row(r).to_vec());
        let back = (0..back_rows.len()).map(|r| job.logits.row(r).to_vec());
        front.chain(back).collect()
    }

    /// Every split point of a 13-row batch, the back part forwarded on
    /// the helper thread, gives every row the bits of the one forward
    /// the calling thread makes alone; and the actions chosen from them
    /// in row order equal per-row `act`, or `act_sampled` on each node's
    /// `per_node_seed` stream.
    #[test]
    fn every_split_on_the_helper_thread_equals_inline_and_per_row_decisions() {
        let policy = policy();
        let rows = observations(13);
        let inline = forward_split(&Helper::new(), &policy, &rows, rows.len());
        let helper = Helper::new();
        std::thread::scope(|s| {
            let _stop = helper.spawn_thread(s);
            for split in 0..=rows.len() {
                let logits = forward_split(&helper, &policy, &rows, split);
                let bits = |l: &[Vec<f32>]| -> Vec<Vec<u32>> {
                    l.iter()
                        .map(|r| r.iter().map(|v| v.to_bits()).collect())
                        .collect()
                };
                assert_eq!(bits(&logits), bits(&inline), "split {split}");
                for seed in [None, Some(5u64)] {
                    let streams = || -> Vec<StdRng> {
                        (0..4)
                            .map(|v| StdRng::seed_from_u64(per_node_seed(seed.unwrap_or(0), v)))
                            .collect()
                    };
                    let (mut batched, mut per_row) = (streams(), streams());
                    for (i, (l, obs)) in logits.iter().zip(&rows).enumerate() {
                        let (chosen, expected) = match seed {
                            Some(_) => (
                                choose(l, Some(&mut batched[i % 4])),
                                policy.act_sampled(obs, &mut per_row[i % 4]),
                            ),
                            None => (choose(l, None), policy.act(obs)),
                        };
                        assert_eq!(chosen, expected, "split {split}, seed {seed:?}, row {i}");
                    }
                }
            }
        });
    }

    /// A job posted long after the helper thread ran out of polling
    /// rounds wakes it from `park` and is forwarded as one posted at once.
    #[test]
    fn a_late_job_wakes_a_parked_helper() {
        let policy = policy();
        let rows = observations(6);
        let inline = forward_split(&Helper::new(), &policy, &rows, rows.len());
        let helper = Helper::new();
        std::thread::scope(|s| {
            let _stop = helper.spawn_thread(s);
            std::thread::sleep(std::time::Duration::from_millis(50));
            assert_eq!(forward_split(&helper, &policy, &rows, 2), inline);
        });
    }

    /// A forward that panics on the helper thread — rows of the wrong
    /// width — panics the caller's `finish` with the helper's message,
    /// and the scope still joins the helper.
    #[test]
    fn a_helper_panic_re_raises_on_the_caller() {
        let helper = Helper::new();
        let caught = std::thread::scope(|s| {
            let _stop = helper.spawn_thread(s);
            let mut job = helper.job();
            job.policy = Some(policy());
            stack(&mut job.x, &[vec![0.0; 8]]);
            job.x.reshape(1, 7);
            drop(job);
            helper.start();
            catch_unwind(AssertUnwindSafe(|| drop(helper.finish())))
        });
        let payload = caught.expect_err("the helper's panic reaches the caller");
        let message = payload
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| payload.downcast_ref::<&str>().copied())
            .unwrap_or_default();
        assert!(message.contains("mismatch"), "{message}");
    }
}

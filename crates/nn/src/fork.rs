//! The workspace's one way to spend more than one core: [`fan_out`]
//! spreads whole seeds (training or evaluation) over the cores, and a
//! [`Helper`] runs the second half of one piece of work beside the
//! caller — the critic half of an update (§IV-C, Alg. 1) or the back
//! half of a served batch. A helper forks only while a core is free for
//! it: not on a one-core host, and not on a worker of a `fan_out` whose
//! workers fill every core, because the seeds keep the cores they fill.
//!
//! Both sides of a helper wait the same bounded way: 100 spin rounds,
//! 100 rounds that yield the core, then `park` — about 18 µs of polling
//! on a 2-vCPU host. A served batch is back within that, so its waits
//! rarely park; an update's half takes milliseconds, so its waits park
//! early and leave the core to the other half.

use std::any::Any;
use std::cell::Cell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread::{self, JoinHandle, Thread};

/// The host's core count, read once.
pub fn cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| thread::available_parallelism().map_or(1, usize::from))
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
/// fill every core, what they run stays on their own threads: a nested
/// `fan_out` (a checkpoint's evaluation seeds inside a training seed)
/// maps inline, and a [`Helper`] runs its jobs inline.
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
    if workers <= 1 || CORES_FULL.get() {
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
    thread::scope(|s| {
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

/// The work a [`Helper`] runs: the job and every buffer it writes, kept
/// by the helper from one job to the next.
pub trait Job: Send + 'static {
    /// Runs the job in place.
    fn run(&mut self);
}

/// Polls a wait makes before it parks: busy rounds, then yielding ones.
const SPIN_ROUNDS: u32 = 100;
const YIELD_ROUNDS: u32 = 100;

/// The hand-off's states. Only the caller posts and stops; only the
/// helper thread finishes a job or records its panic. The job itself is
/// handed over under its mutex; the state only signals, stored with
/// `Release` and loaded with `Acquire`.
const IDLE: u8 = 0;
const POSTED: u8 = 1;
const PANICKED: u8 = 2;
const STOP: u8 = 3;

/// What the caller and the helper thread share.
#[derive(Debug)]
struct Shared<J> {
    state: AtomicU8,
    job: Mutex<J>,
    /// The thread waiting for the job, unparked when it is done: set
    /// before every wait, because the owner may move between threads.
    caller: Mutex<Option<Thread>>,
    panic: Mutex<Option<Box<dyn Any + Send>>>,
}

/// One helper thread and its one job slot, of type `J`. The first job
/// that forks starts the thread, named `dosco-helper`; dropping the
/// helper joins it, after the job it is running, if any. A job runs on
/// the thread only when a core is free for it (see the module doc);
/// otherwise it runs inline, and which way it ran cannot show in its
/// result. One job is away at a time.
#[derive(Debug)]
pub struct Helper<J: Job> {
    shared: Arc<Shared<J>>,
    thread: OnceLock<JoinHandle<()>>,
    /// Fork whatever the core count: a hand-off test on a one-core host.
    always: bool,
}

impl<J: Job + Default> Default for Helper<J> {
    fn default() -> Self {
        Helper::new(J::default())
    }
}

/// A lock that recovers a poisoned mutex: a panicking job leaves its
/// buffers whole, and the panic itself is re-raised on the caller.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

impl<J: Job> Helper<J> {
    /// A helper with `job` in its slot and no thread yet.
    pub fn new(job: J) -> Self {
        Helper {
            shared: Arc::new(Shared {
                state: AtomicU8::new(IDLE),
                job: Mutex::new(job),
                caller: Mutex::new(None),
                panic: Mutex::new(None),
            }),
            thread: OnceLock::new(),
            always: false,
        }
    }

    /// A helper whose jobs go to its thread whatever the core count and
    /// the caller: for tests of the hand-off on any host.
    pub fn always_forking(job: J) -> Self {
        let mut helper = Helper::new(job);
        helper.always = true;
        helper
    }

    /// Whether the helper thread has been started.
    pub fn started(&self) -> bool {
        self.thread.get().is_some()
    }

    /// The job, to fill before [`Helper::start`] or [`Helper::join`] and
    /// to read after [`Helper::finish`].
    pub fn job(&self) -> MutexGuard<'_, J> {
        lock(&self.shared.job)
    }

    /// Starts the job: on the helper thread when a core is free for it,
    /// else right here. [`Helper::finish`] waits for it.
    ///
    /// # Panics
    ///
    /// Panics if a job is away, and with the job's own panic when it
    /// runs here.
    pub fn start(&self) {
        if !self.post() {
            self.job().run();
        }
    }

    /// Waits for the started job, if it is away, and returns the slot.
    ///
    /// # Panics
    ///
    /// Re-raises the job's panic with its own payload.
    pub fn finish(&self) -> MutexGuard<'_, J> {
        if let Err(payload) = self.wait() {
            resume_unwind(payload);
        }
        self.job()
    }

    /// Runs `inline` here and the job beside it — on the helper thread
    /// when a core is free for it, else after `inline` — and returns
    /// `inline`'s result with the slot.
    ///
    /// # Panics
    ///
    /// Panics if a job is away. Re-raises a panic of either with its own
    /// payload once both are done: the job's after `inline` has finished,
    /// `inline`'s after the job has. Inline, a panicking `inline` means
    /// the job never starts.
    pub fn join<A>(&self, inline: impl FnOnce() -> A) -> (A, MutexGuard<'_, J>) {
        if !self.post() {
            let a = inline();
            let mut job = self.job();
            job.run();
            return (a, job);
        }
        let a = catch_unwind(AssertUnwindSafe(inline));
        let done = self.wait();
        let a = a.unwrap_or_else(|payload| resume_unwind(payload));
        if let Err(payload) = done {
            resume_unwind(payload);
        }
        (a, self.job())
    }

    /// Hands the job to the helper thread (starting it for the first
    /// job) if a core is free for it; returns whether it did. Panics if a
    /// job is away.
    #[allow(clippy::expect_used, reason = "no helper without its thread")]
    fn post(&self) -> bool {
        if !self.always && (cores() == 1 || CORES_FULL.get()) {
            return false;
        }
        let shared = &self.shared;
        let state = shared.state.load(Ordering::Acquire);
        assert_ne!(state, POSTED, "the helper runs one job at a time");
        let thread = self.thread.get_or_init(|| {
            let shared = Arc::clone(shared);
            thread::Builder::new()
                .name("dosco-helper".into())
                .spawn(move || shared.serve())
                .expect("spawning the helper thread")
        });
        shared.state.store(POSTED, Ordering::Release);
        thread.thread().unpark();
        true
    }

    /// Blocks until no job is away; the away job's panic, if it had one.
    fn wait(&self) -> thread::Result<()> {
        let shared = &*self.shared;
        // Set before the state is read: the helper thread stores the
        // state before it reads this, so either this wait sees the job
        // done or the helper thread unparks this thread.
        *lock(&shared.caller) = Some(thread::current());
        if shared.wait_until(|s| s != POSTED) == PANICKED {
            let payload = lock(&shared.panic).take();
            shared.state.store(IDLE, Ordering::Release);
            return Err(payload.unwrap_or_else(|| Box::new("helper panicked")));
        }
        Ok(())
    }
}

impl<J: Job> Shared<J> {
    /// The helper thread: runs each posted job until stopped.
    fn serve(&self) {
        while self.wait_until(|s| s == POSTED || s == STOP) == POSTED {
            let state = match catch_unwind(AssertUnwindSafe(|| lock(&self.job).run())) {
                Ok(()) => IDLE,
                Err(payload) => {
                    *lock(&self.panic) = Some(payload);
                    PANICKED
                }
            };
            self.state.store(state, Ordering::Release);
            if let Some(caller) = &*lock(&self.caller) {
                caller.unpark();
            }
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

/// Joins the helper thread once the job it is running, if any, is done;
/// that job's panic is dropped here.
impl<J: Job> Drop for Helper<J> {
    fn drop(&mut self) {
        if let Some(handle) = self.thread.take() {
            let _ = self.wait();
            self.shared.state.store(STOP, Ordering::Release);
            handle.thread().unpark();
            // Jobs run under `catch_unwind`, so the thread cannot panic.
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc::{self, RecvTimeoutError};
    use std::time::Duration;

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

    /// Inside a `fan_out` whose workers fill every core, a nested
    /// `fan_out` runs on the worker's own thread instead of starting
    /// threads of its own.
    #[test]
    fn a_fan_out_nested_in_a_saturating_fan_out_stays_on_the_worker() {
        let here = || std::thread::current().id();
        let workers = vec![(); cores()];
        let inner = vec![(); 2 * cores()];
        for (worker, nested) in fan_out(&workers, |()| (here(), fan_out(&inner, |()| here()))) {
            assert!(
                nested.iter().all(|&t| t == worker),
                "{nested:?} off {worker:?}"
            );
        }
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

    /// A job that counts its runs against the number the caller posted;
    /// every `NAP`-th one sleeps, so the caller's wait parks.
    #[derive(Debug, Default)]
    struct Tick {
        posted: u64,
        ran: u64,
    }

    const NAP: u64 = 50_000;

    impl Job for Tick {
        fn run(&mut self) {
            self.ran += 1;
            assert_eq!(self.ran, self.posted, "a job ran twice or out of order");
            if self.posted % NAP == 2 {
                thread::sleep(Duration::from_millis(2));
            }
        }
    }

    /// Posts jobs `from..to` and checks each ran exactly once, in order:
    /// every fourth through `join`, the rest through `start` and
    /// `finish`; every `NAP`-th after a sleep, so the helper thread has
    /// parked when it is posted.
    fn hand_offs(helper: &Helper<Tick>, from: u64, to: u64) {
        for i in from..to {
            if i % NAP == 1 {
                thread::sleep(Duration::from_millis(2));
            }
            helper.job().posted = i;
            let ran = if i % 4 == 0 {
                helper.join(std::hint::spin_loop).1.ran
            } else {
                helper.start();
                helper.finish().ran
            };
            assert_eq!(ran, i, "job {i} did not run exactly once");
        }
    }

    /// Runs `body` on a thread of its own; fails if it has not returned
    /// within 30 s, and re-raises its panic if it panicked.
    fn within_watchdog(body: impl FnOnce() + Send + 'static) {
        let (done_tx, done_rx) = mpsc::channel();
        let worker = thread::spawn(move || {
            body();
            let _ = done_tx.send(());
        });
        match done_rx.recv_timeout(Duration::from_secs(30)) {
            Ok(()) => worker.join().expect("finished"),
            Err(RecvTimeoutError::Disconnected) => {
                if let Err(payload) = worker.join() {
                    resume_unwind(payload);
                }
            }
            Err(RecvTimeoutError::Timeout) => {
                panic!("no progress for 30 s: a parked side missed its wake-up")
            }
        }
    }

    /// `n` jobs from one owner thread, then `n` more from an owner that
    /// moves to a new thread every `n / 100` jobs, with a job away across
    /// every move: each is finished by a thread that did not post it.
    fn stress(n: u64) {
        within_watchdog(move || {
            let helper = Helper::always_forking(Tick::default());
            hand_offs(&helper, 1, n + 1);
            assert!(helper.started());
        });
        within_watchdog(move || {
            let helper = Helper::always_forking(Tick::default());
            let chunk = (n / 100).max(2);
            let mut next = 1;
            while next <= n {
                let end = (next + chunk).min(n + 1);
                thread::scope(|s| {
                    s.spawn(|| {
                        if next > 1 {
                            assert_eq!(helper.finish().ran, next - 1);
                        }
                        hand_offs(&helper, next, end - 1);
                        helper.job().posted = end - 1;
                        helper.start();
                    });
                });
                next = end;
            }
            assert_eq!(helper.finish().ran, n);
        });
    }

    #[test]
    fn every_job_runs_exactly_once_in_order() {
        stress(10_000);
    }

    /// The hand-off at a million jobs per case (release, a few seconds).
    #[test]
    #[ignore = "a million jobs per case; run with --release -- --include-ignored"]
    fn a_million_hand_offs_lose_no_wake_up() {
        stress(1_000_000);
    }

    /// A job panicking on the helper thread re-raises its payload on the
    /// caller's `finish`, and the helper serves the next job.
    #[test]
    fn a_job_panic_re_raises_on_the_caller_and_the_helper_goes_on() {
        let helper = Helper::always_forking(Tick::default());
        helper.job().posted = 2;
        helper.start();
        let caught = catch_unwind(AssertUnwindSafe(|| drop(helper.finish())));
        let payload = caught.expect_err("the job's panic reaches the caller");
        let message = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert!(message.contains("out of order"), "{message}");
        *helper.job() = Tick { posted: 1, ran: 0 };
        helper.start();
        assert_eq!(helper.finish().ran, 1);
    }
}

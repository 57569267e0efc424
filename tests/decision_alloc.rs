//! A decision allocates nothing.
//!
//! `CoordinationPolicy::act` and `act_sampled` run the actor's batch-1
//! forward through buffers their thread keeps (`Mlp::forward_row`) and
//! choose from the logit row in place (`dist::greedy_action`,
//! `dist::sample_action`). So once one decision has shaped those buffers,
//! a thousand more of either kind make no allocation of any size.
//!
//! The counting allocator is process-wide, which is why this file is its
//! own test binary; it counts only on the thread that has switched
//! counting on, so the test harness's own threads are not counted.

use dosco::core::policy::{CoordinationPolicy, PolicyMetadata};
use dosco::nn::Mlp;
use dosco::simnet::ScenarioConfig;
use rand::{Rng, SeedableRng};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Whether this thread's allocations are counted.
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

/// The system allocator, counting every block it hands out to a thread
/// that is counting.
struct Counting;

fn count() {
    if COUNTING.try_with(Cell::get).unwrap_or(false) {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; counting touches no heap memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's `layout` contract is `System::alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: `ptr` came from this allocator, that is from `System`,
        // with `layout`; the rest is the caller's contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Allocations `f` makes on this thread.
fn allocations_of(f: impl FnOnce()) -> usize {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    COUNTING.with(|c| c.set(true));
    f();
    COUNTING.with(|c| c.set(false));
    ALLOCATIONS.load(Ordering::Relaxed) - before
}

#[test]
fn a_warm_decision_allocates_nothing() {
    // A paper-width (2×256) actor on the base scenario's degree.
    let degree = ScenarioConfig::paper_base(2).topology.network_degree();
    let mut rng = rand::rngs::StdRng::seed_from_u64(17);
    let actor = Mlp::paper_arch(4 * degree + 4, degree + 1, &mut rng);
    let policy = CoordinationPolicy::new(actor, degree, PolicyMetadata::default());
    let observations: Vec<Vec<f32>> = (0..16)
        .map(|_| {
            (0..4 * degree + 4)
                .map(|_| rng.gen_range(-1.0f32..1.0))
                .collect()
        })
        .collect();
    // Warm-up: the first decision on this thread shapes its buffers.
    policy.act(&observations[0]);

    let greedy = allocations_of(|| {
        for i in 0..1000 {
            std::hint::black_box(policy.act(&observations[i % observations.len()]));
        }
    });
    let sampled = allocations_of(|| {
        for i in 0..1000 {
            std::hint::black_box(
                policy.act_sampled(&observations[i % observations.len()], &mut rng),
            );
        }
    });
    assert_eq!(greedy, 0, "1000 greedy decisions made {greedy} allocations");
    assert_eq!(
        sampled, 0,
        "1000 sampled decisions made {sampled} allocations"
    );
}

//! A steady-state training cycle allocates no buffer.
//!
//! At hidden width 64 every per-update buffer — a layer's forward-cache
//! input, its weight gradient, a K-FAC factor and its inverse, the packed
//! transpose of a product, a snapshot's weights — is 16 KiB or more. So
//! if lockstep ACKTR training keeps its buffers from one update to the
//! next, 45 updates make exactly as many allocations of that size as 21:
//! the extra 24 updates, the refresh at update 40 among them, make none.
//!
//! The counting allocator is process-wide, which is why this file is its
//! own test binary with one test: the runtime's actor thread and the
//! learner's helper thread are counted with the caller's.

use dosco::core::{CoordEnv, RewardConfig};
use dosco::rl::{Acktr, AcktrConfig, Env};
use dosco::runtime::RuntimeConfig;
use dosco::simnet::ScenarioConfig;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Allocations (and reallocations to) at least this large are counted.
const LARGE: usize = 16 * 1024;

static LARGE_ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

/// The system allocator, counting every block of [`LARGE`] bytes or more
/// that it hands out.
struct Counting;

fn count(size: usize) {
    if size >= LARGE {
        LARGE_ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; counting touches no memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's `layout` contract is `System::alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
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

/// Large allocations made by `updates` lockstep ACKTR updates at hidden
/// width 64, 4 envs × 16 steps, through the in-process runtime. The envs
/// and the agent are built before counting starts; the episode horizon is
/// long enough that no env resets during the run.
fn large_allocations(updates: usize) -> usize {
    let scenario = ScenarioConfig::paper_base(1);
    let degree = scenario.topology.network_degree();
    let mut envs: Vec<Box<dyn Env>> = (0..4)
        .map(|i| {
            Box::new(CoordEnv::new(
                scenario.clone(),
                RewardConfig::default(),
                900 + i,
                None,
            )) as Box<dyn Env>
        })
        .collect();
    let config = AcktrConfig {
        hidden: [64, 64],
        ..AcktrConfig::default()
    };
    let mut agent = Acktr::new(4 * degree + 4, degree + 1, config, 5);
    let steps = updates * envs.len() * config.n_steps;
    let before = LARGE_ALLOCATIONS.load(Ordering::Relaxed);
    let outcome = dosco::runtime::train(&mut agent, &mut envs, steps, &RuntimeConfig::sync());
    let made = LARGE_ALLOCATIONS.load(Ordering::Relaxed) - before;
    assert_eq!(outcome.stats.mean_rewards.len(), updates);
    made
}

#[test]
fn steady_state_updates_allocate_no_large_buffer() {
    // Warm-up: what the calling thread allocates once per process (its
    // GEMM transpose scratch, lazily built statics) lands here.
    large_allocations(21);
    let short = large_allocations(21);
    let long = large_allocations(45);
    assert_eq!(
        long, short,
        "45 updates made {long} allocations of >= 16 KiB, 21 updates {short}: \
         a steady-state update allocated a buffer"
    );
}

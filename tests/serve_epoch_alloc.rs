//! A warm serving epoch allocates nothing on any thread.
//!
//! The epoch loop observes into rows it keeps, forwards into buffers it
//! keeps, and hands the back half of each batch to the helper thread in
//! a job whose buffers stay with the helper; so once the buffers are
//! shaped, an epoch allocates nothing on the calling thread or on the
//! helper thread. The counting allocator here is process-wide, so it
//! counts both. That is why this file is its own test binary with one
//! test: the harness's other threads are idle while it runs.

use dosco::core::policy::{CoordinationPolicy, PolicyMetadata};
use dosco::nn::Mlp;
use dosco::serve::{serve_with, ServeConfig};
use dosco::simnet::ScenarioConfig;
use rand::SeedableRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// Whether allocations are counted.
static COUNTING: AtomicBool = AtomicBool::new(false);
/// Allocations counted, on every thread.
static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

/// The system allocator, counting every block it hands out while
/// counting is on.
struct Counting;

fn count() {
    if COUNTING.load(Ordering::Relaxed) {
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

/// Allocations in the whole process over 200 epochs late in a 1-group
/// serve of 16 episodes: boundary, collect (stepping the simulations
/// included), the forward with the helper's half (on its own thread
/// wherever the host has a second core), choose and apply.
#[test]
fn a_warm_serving_epoch_allocates_nothing_on_any_thread() {
    let cfg = ScenarioConfig::paper_base(2).with_horizon(400.0);
    let degree = cfg.topology.network_degree();
    let mut rng = rand::rngs::StdRng::seed_from_u64(9);
    let actor = Mlp::paper_arch(4 * degree + 4, degree + 1, &mut rng);
    let policy = CoordinationPolicy::new(actor, degree, PolicyMetadata::default());
    let seeds: Vec<u64> = (0..16).collect();
    let (from, until) = (500, 700);
    let mut made = None;
    let out = serve_with(&policy, None, &cfg, &seeds, &ServeConfig::new(1), |epoch| {
        if epoch == from {
            made = Some(ALLOCATIONS.load(Ordering::Relaxed));
            COUNTING.store(true, Ordering::Relaxed);
        } else if epoch == until {
            COUNTING.store(false, Ordering::Relaxed);
            made = made.map(|before| ALLOCATIONS.load(Ordering::Relaxed) - before);
        }
    });
    assert!(out.report.epochs > until, "{:?}", out.report);
    assert!(out.report.helped_rows > 0, "{:?}", out.report);
    assert_eq!(made, Some(0), "{} warm epochs", until - from);
}

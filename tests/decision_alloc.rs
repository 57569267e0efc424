//! A decision allocates nothing.
//!
//! `CoordinationPolicy::act` and `act_sampled` run the actor's batch-1
//! forward through buffers their thread keeps (`Mlp::forward_row`) and
//! choose from the logit row in place (`dist::greedy_action`,
//! `dist::sample_action`). So once one decision has shaped those buffers,
//! a thousand more of either kind make no allocation of any size. A
//! deployed `DistributedAgents` builds each observation in a buffer it
//! keeps (`ObservationAdapter::observe_into`) and reads the path table
//! with plain loads, so its decisions on a live simulation allocate
//! nothing either. (A warm serving epoch is counted on every thread by
//! `serve_epoch_alloc.rs`.)
//!
//! The counting allocator is process-wide, which is why this file is its
//! own test binary; it counts only on the thread that has switched
//! counting on, and into that thread's own tally, so neither the test
//! harness's threads nor a test running alongside are counted.

use dosco::core::policy::{CoordinationPolicy, DistributedAgents, PolicyMetadata};
use dosco::nn::Mlp;
use dosco::simnet::{Coordinator, ScenarioConfig, Simulation};
use rand::{Rng, SeedableRng};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Whether this thread's allocations are counted.
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    /// This thread's counted allocations.
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

/// The system allocator, counting every block it hands out to a thread
/// that is counting.
struct Counting;

fn count() {
    if COUNTING.try_with(Cell::get).unwrap_or(false) {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
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
    let before = ALLOCATIONS.with(Cell::get);
    COUNTING.with(|c| c.set(true));
    f();
    COUNTING.with(|c| c.set(false));
    ALLOCATIONS.with(Cell::get) - before
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

#[test]
fn a_warm_distributed_decision_allocates_nothing() {
    let cfg = ScenarioConfig::paper_base(2);
    let degree = cfg.topology.network_degree();
    let mut rng = rand::rngs::StdRng::seed_from_u64(5);
    let actor = Mlp::paper_arch(4 * degree + 4, degree + 1, &mut rng);
    let policy = CoordinationPolicy::new(actor, degree, PolicyMetadata::default());
    let mut agents = DistributedAgents::deploy(&policy, cfg.topology.num_nodes());
    let mut sim = Simulation::new(cfg, 3);
    // Counts only the decision: stepping the simulation is not its cost.
    let mut step = |sim: &mut Simulation| {
        let dp = sim.next_decision().expect("the episode outlasts the test");
        let mut action = None;
        let made = allocations_of(|| action = Some(agents.decide(sim, &dp)));
        sim.apply(action.expect("decided"));
        made
    };
    // Warm-up: the first decision shapes the forward's buffers.
    step(&mut sim);

    let made: usize = (0..1000).map(|_| step(&mut sim)).sum();
    assert_eq!(
        made, 0,
        "1000 distributed decisions made {made} allocations"
    );
}

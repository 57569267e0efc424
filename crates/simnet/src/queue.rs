//! The cancellable event queue behind the simulator's scheduler: a paged,
//! monotone radix-16 heap keyed on the ordered bits of the `f64` clock,
//! with a short sorted run at its front.
//!
//! A discrete-event simulator pops in time order and schedules at or after
//! the time it just popped. [`EventQueue`] is built on that law. An event
//! time maps to a `u64` key whose integer order is the time order
//! (`ord_key`), read as sixteen 4-bit digits. Relative to a `base` key at
//! or below every queued key, an entry sits in the bucket of the pair
//! (highest digit in which its key differs from `base`, its key's value of
//! that digit): 16 × 16 buckets whose key ranges ascend with their index.
//! A push is one append to its bucket.
//!
//! The front of the queue is the *run*: entries sorted by key, FIFO among
//! equal keys, popped from its head. Every bucketed key is above the run's
//! bound `top`, and a push at or below `top` is inserted into the run
//! behind its equals. When the run is spent, the lowest non-empty bucket
//! holds the next entries. A bucket of at most two pages is stable-sorted
//! into the run. A larger one is redistributed: `base` moves to its
//! minimum, the entries at that minimum start the run, and the rest are
//! re-appended, in order, into the (necessarily empty) buckets below it —
//! a sixteen-way split of the next digit. On a `sim-grid-static` segment
//! a pushed entry is moved 1.65 times before it pops, where buckets one
//! key bit wide moved it 4.32 times (DESIGN.md has the counts). Equal
//! keys always share a bucket or the run and every move keeps their
//! order, so the pop order is strictly time-ascending and FIFO among
//! equal times by construction, with no sequence number in the node.
//!
//! Nodes are 16 bytes, and a bucket's nodes only ever move sequentially:
//! the indexed binary heap this replaced dereferenced a 64-byte slot
//! somewhere in the slab at each of the ≈ 34 comparisons of a sift.
//! Buckets are chains of 504 B pages drawn from one free list (the arena
//! behind it grows eight pages at a time), and a page goes back to it the
//! moment it has been read — a redistribution's destinations reuse it at
//! once, so it holds one extra page, not a second copy of the queue. The
//! run is one reused `Vec` of at most `RUN_SPILL` (128) nodes: past that, its
//! upper half goes back into the buckets.
//!
//! [`EventQueue::push`] returns an [`EventKey`] handle and
//! [`EventQueue::cancel`] is an O(1) generation bump on the entry's slot:
//! the node left behind is skipped when it surfaces, the slot is reusable
//! at once, and stale handles (already popped or cancelled) miss on the
//! same generation compare. A push *earlier* than the last minimum popped
//! or peeked panics: the simulator never makes one (`Simulation::schedule`
//! asserts it), and a caller that pops and then schedules at or after the
//! popped time never does either.
//!
//! Slots and pages are recycled, so steady-state operation allocates
//! nothing and the footprint is the concurrent high-water mark.

use std::fmt;
use std::ops::{Index, IndexMut};

/// Handle to one scheduled event, returned by [`EventQueue::push`].
/// Becomes stale as soon as the event is popped or cancelled; stale
/// handles are rejected by [`EventQueue::cancel`] in O(1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EventKey {
    slot: u32,
    generation: u32,
}

impl fmt::Display for EventKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}v{}", self.slot, self.generation)
    }
}

/// Nodes per page: 31 × 16 B + the 8 B header = 504 B. Throughput at 100k
/// resident events is flat from 15 to 255 nodes a page; the small queues
/// set the size. A serving or training process holds sixteen Abilene
/// queues of a few dozen events, each bucket of them a page: 2 KB pages
/// cost those workloads 3–4 % of their peak RSS, these cost 1 %.
const PAGE_NODES: usize = 31;
/// One bucket per (highest differing 4-bit key digit, the key's value of
/// that digit): 16 × 16.
const BUCKETS: usize = 256;
/// The most nodes the run holds after an insertion; the entries above its
/// middle key then go back into the buckets, so an insertion shifts at
/// most half this many nodes.
const RUN_SPILL: usize = 128;
/// Null page index.
const NONE: u32 = u32::MAX;

/// Maps a time to the key whose unsigned order is the time order:
/// non-negative floats get the sign bit set, negative ones are inverted.
/// `-0.0 + 0.0 == +0.0` makes the two zeros one key, as `partial_cmp` has
/// them.
fn ord_key(time: f64) -> u64 {
    let bits = (time + 0.0).to_bits();
    if bits >> 63 == 1 {
        !bits
    } else {
        bits | 1 << 63
    }
}

/// Inverse of [`ord_key`].
fn key_time(key: u64) -> f64 {
    f64::from_bits(if key >> 63 == 1 {
        key & !(1 << 63)
    } else {
        !key
    })
}

/// A scheduled entry as the buckets see it. Live iff its slot still
/// carries `generation`.
#[derive(Debug, Clone, Copy)]
struct Node {
    key: u64,
    slot: u32,
    generation: u32,
}

#[derive(Debug, Clone)]
struct Page {
    /// Next page of the chain, or [`NONE`].
    next: u32,
    len: u32,
    nodes: [Node; PAGE_NODES],
}

/// Pages per allocation: eight 504 B pages are one 4 KB request.
const CHUNK: u32 = 8;

/// The page arena, indexed by page number. It grows a chunk at a time and
/// never moves a page. One allocation per page was 0.3 MB of heap
/// fragmentation in a training process that builds and drops sixteen
/// simulators an episode; one `Vec<Page>` copies the whole pool each time
/// it outgrows itself and leaves the old one behind as a hole.
#[derive(Debug, Clone, Default)]
struct Pool {
    #[allow(clippy::vec_box)] // boxed so that growth moves pointers, not pages
    chunks: Vec<Box<[Page; CHUNK as usize]>>,
    len: u32,
}

impl Pool {
    /// Pages handed out so far.
    #[cfg(test)]
    fn len(&self) -> usize {
        self.len as usize
    }

    /// Hands out the next page number, allocating its chunk if it opens
    /// one.
    fn grow(&mut self) -> u32 {
        let p = self.len;
        assert!(p != NONE, "event queue exceeds u32::MAX pages");
        if p.is_multiple_of(CHUNK) {
            const VACANT: Node = Node {
                key: 0,
                slot: 0,
                generation: 0,
            };
            self.chunks.push(Box::new(std::array::from_fn(|_| Page {
                next: NONE,
                len: 0,
                nodes: [VACANT; PAGE_NODES],
            })));
        }
        self.len += 1;
        p
    }
}

impl Index<u32> for Pool {
    type Output = Page;

    fn index(&self, p: u32) -> &Page {
        &self.chunks[(p / CHUNK) as usize][(p % CHUNK) as usize]
    }
}

impl IndexMut<u32> for Pool {
    fn index_mut(&mut self, p: u32) -> &mut Page {
        &mut self.chunks[(p / CHUNK) as usize][(p % CHUNK) as usize]
    }
}

/// One bucket: a singly linked chain of pages, appended at the tail.
#[derive(Debug, Clone, Copy)]
struct Chain {
    head: u32,
    tail: u32,
}

const EMPTY: Chain = Chain {
    head: NONE,
    tail: NONE,
};

#[derive(Debug, Clone)]
struct Slot<E> {
    /// Bumped when the entry pops or is cancelled.
    generation: u32,
    event: Option<E>,
}

/// How often nodes moved after their push, for the tests that pin the
/// mechanism.
#[cfg(test)]
#[derive(Debug, Clone, Copy, Default)]
struct Stats {
    /// Node copies: into a sorted run, shifted by a run insertion,
    /// re-appended by a redistribution or spilled from the run.
    moves: u64,
    redistributions: u64,
    sorts: u64,
}

/// Deterministic time-ordered event queue with O(1) cancellation.
///
/// Total order: `(time, seq)` with `seq` the per-queue insertion order —
/// unique, so ordering is strict and any two correct queues pop the exact
/// same sequence. `time` must never be NaN (`push` asserts).
#[derive(Debug, Clone)]
pub struct EventQueue<E> {
    slots: Vec<Slot<E>>,
    free: Vec<u32>,
    /// Every page ever allocated; chains and `free_pages` index into it.
    pages: Pool,
    free_pages: Vec<u32>,
    chains: [Chain; BUCKETS],
    /// Bit `b % 64` of word `b / 64` set iff bucket `b` has a page.
    mask: [u64; BUCKETS / 64],
    /// `run[head..]` is sorted by key, FIFO among equal keys; the nodes
    /// before `head` have popped or were skipped.
    run: Vec<Node>,
    head: usize,
    /// Every run key is at most `top`, every bucketed key above it.
    top: u64,
    /// The key bucket indices are taken against: at most every queued
    /// key.
    base: u64,
    /// Key of the minimum the queue last settled on: no push may go
    /// below it.
    floor: u64,
    live: usize,
    high_water: usize,
    #[cfg(test)]
    stats: Stats,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Bytes one event slot takes, live or free.
    #[cfg(test)]
    pub(crate) const SLOT_BYTES: usize = std::mem::size_of::<Slot<E>>();

    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            slots: Vec::new(),
            free: Vec::new(),
            pages: Pool::default(),
            free_pages: Vec::new(),
            chains: [EMPTY; BUCKETS],
            mask: [0; BUCKETS / 64],
            run: Vec::new(),
            head: 0,
            top: 0,
            base: 0,
            floor: 0,
            live: 0,
            high_water: 0,
            #[cfg(test)]
            stats: Stats::default(),
        }
    }

    /// Schedules `event` at absolute time `time`; the returned handle
    /// can cancel it until it pops.
    ///
    /// # Panics
    ///
    /// Panics if `time` is NaN; if it is earlier than the minimum the
    /// queue last settled on, which is the last time [`EventQueue::pop`]
    /// or [`EventQueue::peek_time`] returned, so a push at or after that
    /// time never panics; or on more than `u32::MAX` live entries.
    pub fn push(&mut self, time: f64, event: E) -> EventKey {
        assert!(!time.is_nan(), "simulation time must not be NaN");
        let key = ord_key(time);
        assert!(
            key >= self.floor,
            "event pushed at {time}, before the queue's last minimum {}",
            key_time(self.floor)
        );
        let (slot, generation) = match self.free.pop() {
            Some(slot) => {
                let s = &mut self.slots[slot as usize];
                debug_assert!(s.event.is_none(), "free-list slot must be empty");
                s.event = Some(event);
                (slot, s.generation)
            }
            None => {
                #[allow(clippy::expect_used, reason = "the documented # Panics contract")]
                let slot =
                    u32::try_from(self.slots.len()).expect("event queue exceeds u32::MAX slots");
                self.slots.push(Slot {
                    generation: 0,
                    event: Some(event),
                });
                (slot, 0)
            }
        };
        let node = Node {
            key,
            slot,
            generation,
        };
        if key <= self.top {
            self.insert(node);
        } else {
            // `key > top >= base`, so some digit differs.
            self.append(bucket(key, self.base), node);
        }
        self.live += 1;
        self.high_water = self.high_water.max(self.live);
        EventKey { slot, generation }
    }

    /// Pops the earliest event (FIFO among equal times), invalidating its
    /// handle.
    pub fn pop(&mut self) -> Option<(f64, E)> {
        let node = self.settle()?;
        self.head += 1;
        // The head is live (its generation matched), so its slot holds an
        // event.
        let event = self.release(node.slot)?;
        Some((key_time(node.key), event))
    }

    /// Cancels a scheduled event in O(1): its slot is freed at once and
    /// the node it leaves behind is skipped when it surfaces. Returns the
    /// event, or `None` if the handle is stale (the event already popped
    /// or was cancelled) — the same generation compare.
    pub fn cancel(&mut self, key: EventKey) -> Option<E> {
        let s = self.slots.get(key.slot as usize)?;
        if s.generation != key.generation {
            return None;
        }
        self.release(key.slot)
    }

    /// The time of the earliest scheduled event.
    ///
    /// Takes `&mut self` because finding the minimum is where a radix heap
    /// does its work: it drops cancelled entries off the run and, when the
    /// run is spent, sorts or redistributes the next bucket. The
    /// [`EventQueue::pop`] that follows finds that work done. A push
    /// below the returned time panics afterwards (see
    /// [`EventQueue::push`]).
    pub fn peek_time(&mut self) -> Option<f64> {
        Some(key_time(self.settle()?.key))
    }

    /// Scheduled events.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether nothing is scheduled.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Peak concurrent scheduled events over the queue's lifetime.
    pub fn high_water(&self) -> usize {
        self.high_water
    }

    /// Slots ever allocated (live + free): the resident-memory proxy.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Detaches the live entry in `slot`: bumps its generation, which
    /// turns its node and its handle stale, and frees the slot. An empty
    /// slot returns `None` and changes nothing.
    fn release(&mut self, slot: u32) -> Option<E> {
        let s = &mut self.slots[slot as usize];
        let event = s.event.take()?;
        s.generation = s.generation.wrapping_add(1);
        self.free.push(slot);
        self.live -= 1;
        Some(event)
    }

    /// Appends `node` to bucket `b`, taking a page from the free list (or
    /// the allocator) when the tail page is full.
    fn append(&mut self, b: usize, node: Node) {
        let tail = self.chains[b].tail;
        if tail != NONE {
            let page = &mut self.pages[tail];
            if (page.len as usize) < PAGE_NODES {
                page.nodes[page.len as usize] = node;
                page.len += 1;
                return;
            }
        }
        let p = match self.free_pages.pop() {
            Some(p) => p,
            None => self.pages.grow(),
        };
        let page = &mut self.pages[p];
        page.next = NONE;
        page.len = 1;
        page.nodes[0] = node;
        if tail == NONE {
            self.chains[b].head = p;
            self.mask[b / 64] |= 1 << (b % 64);
        } else {
            self.pages[tail].next = p;
        }
        self.chains[b].tail = p;
    }

    /// Inserts `node`, whose key is at most `top`, into the run behind
    /// its equals, shifting the shorter side of the insertion point.
    fn insert(&mut self, node: Node) {
        let (head, len) = (self.head, self.run.len());
        let at = head + self.run[head..].partition_point(|n| n.key <= node.key);
        if head > 0 && at - head <= len - at {
            self.run.copy_within(head..at, head - 1);
            self.head -= 1;
            self.run[at - 1] = node;
        } else {
            self.run.insert(at, node);
        }
        #[cfg(test)]
        {
            self.stats.moves += (at - head).min(len - at) as u64;
        }
        if self.run.len() - self.head > RUN_SPILL {
            self.spill();
        }
    }

    /// Moves the run's entries above its middle key back into the
    /// buckets. The middle key's equals stay, so equal keys still share a
    /// place.
    fn spill(&mut self) {
        let mid = self.run[(self.head + self.run.len()) / 2].key;
        let keep = self.head + self.run[self.head..].partition_point(|n| n.key <= mid);
        for i in keep..self.run.len() {
            let node = self.run[i];
            self.append(bucket(node.key, self.base), node);
        }
        #[cfg(test)]
        {
            self.stats.moves += (self.run.len() - keep) as u64;
        }
        self.run.truncate(keep);
        self.top = mid;
    }

    /// The lowest non-empty bucket.
    fn lowest(&self) -> Option<usize> {
        let (w, bits) = self.mask.iter().enumerate().find(|(_, &bits)| bits != 0)?;
        Some(w * 64 + bits.trailing_zeros() as usize)
    }

    /// Makes the head of the run the earliest live entry and returns it;
    /// `None` when the queue holds no live entry.
    fn settle(&mut self) -> Option<Node> {
        if self.live == 0 {
            return None;
        }
        loop {
            while let Some(&node) = self.run.get(self.head) {
                if self.slots[node.slot as usize].generation == node.generation {
                    self.floor = node.key;
                    return Some(node);
                }
                self.head += 1;
            }
            self.run.clear();
            self.head = 0;
            // The lowest non-empty bucket holds the least bucketed keys.
            // Moving `base` to one of them leaves every other bucket's
            // entries where they are: they agree with it on every digit
            // above the one in which they differ from the old base.
            let b = self.lowest()?;
            let Chain { head, tail } = std::mem::replace(&mut self.chains[b], EMPTY);
            self.mask[b / 64] &= !(1 << (b % 64));
            if head == tail || self.pages[head].next == tail {
                self.sort_into_run(head);
            } else {
                self.redistribute(head);
            }
        }
    }

    /// Moves the chain from page `p` into the empty run and sorts it by
    /// key, stably, so equal keys keep their push order.
    fn sort_into_run(&mut self, mut p: u32) {
        while p != NONE {
            let page = &self.pages[p];
            self.run.extend_from_slice(&page.nodes[..page.len as usize]);
            self.free_pages.push(p);
            p = page.next;
        }
        self.run.sort_by_key(|n| n.key);
        // A chain holds at least one node.
        self.base = self.run[0].key;
        self.top = self.run[self.run.len() - 1].key;
        #[cfg(test)]
        {
            self.stats.moves += self.run.len() as u64;
            self.stats.sorts += 1;
        }
    }

    /// Moves `base` to the least key of the chain from page `head` and
    /// re-places its nodes against it: the ones at that key start the
    /// empty run, the rest land in buckets below the one they left.
    fn redistribute(&mut self, head: u32) {
        let mut min = u64::MAX;
        let mut p = head;
        while p != NONE {
            let page = &self.pages[p];
            for node in &page.nodes[..page.len as usize] {
                min = min.min(node.key);
            }
            p = page.next;
        }
        // May be a cancelled node's key: still at most every live key.
        self.base = min;
        self.top = min;
        let mut p = head;
        while p != NONE {
            // In chain order, so equal keys stay in push order.
            let (len, next) = {
                let page = &self.pages[p];
                (page.len as usize, page.next)
            };
            for k in 0..len {
                let node = self.pages[p].nodes[k];
                if node.key == min {
                    self.run.push(node);
                } else {
                    self.append(bucket(node.key, min), node);
                }
            }
            #[cfg(test)]
            {
                self.stats.moves += len as u64;
            }
            // Read, so free: the destinations reuse it at once.
            self.free_pages.push(p);
            p = next;
        }
        #[cfg(test)]
        {
            self.stats.redistributions += 1;
        }
    }
}

/// The bucket of `key > base`: its highest 4-bit digit that differs from
/// `base`'s, and its value of that digit.
#[inline]
fn bucket(key: u64, base: u64) -> usize {
    let digit = (63 - (key ^ base).leading_zeros()) / 4;
    (digit * 16 + (key >> (4 * digit) & 15) as u32) as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::cmp::Ordering;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(3.0, 3u32);
        q.push(1.0, 1);
        q.push(2.0, 2);
        let order: Vec<f64> = std::iter::from_fn(|| q.pop().map(|(t, _)| t)).collect();
        assert_eq!(order, vec![1.0, 2.0, 3.0]);
        assert!(q.is_empty());
    }

    #[test]
    fn fifo_among_equal_times() {
        let mut q = EventQueue::new();
        for i in 0..5u32 {
            q.push(5.0, i);
        }
        let order: Vec<u32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn peek_matches_pop() {
        let mut q = EventQueue::new();
        assert_eq!(q.peek_time(), None);
        q.push(2.5, 0u32);
        q.push(1.5, 1);
        assert_eq!(q.peek_time(), Some(1.5));
        assert_eq!(q.len(), 2);
        q.pop();
        assert_eq!(q.peek_time(), Some(2.5));
        q.pop();
        assert_eq!(q.len(), 0);
        assert!(q.is_empty());
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn rejects_nan_time() {
        let mut q = EventQueue::new();
        q.push(f64::NAN, 0u32);
    }

    #[test]
    fn cancel_removes_and_stale_handles_miss() {
        let mut q = EventQueue::new();
        let a = q.push(1.0, "a");
        let b = q.push(2.0, "b");
        let c = q.push(3.0, "c");
        assert_eq!(q.cancel(b), Some("b"));
        assert_eq!(q.cancel(b), None, "double-cancel must miss");
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop(), Some((1.0, "a")));
        assert_eq!(q.cancel(a), None, "popped handle must miss");
        assert_eq!(q.pop(), Some((3.0, "c")));
        assert_eq!(q.cancel(c), None);
        assert!(q.is_empty());
    }

    #[test]
    fn cancelled_slot_reuse_does_not_alias() {
        let mut q = EventQueue::new();
        let a = q.push(5.0, "old");
        q.cancel(a);
        let b = q.push(1.0, "new"); // reuses the freed slot
        assert_eq!(q.cancel(a), None, "stale key must not cancel the new event");
        assert_eq!(q.pop(), Some((1.0, "new")));
        assert_eq!(q.cancel(b), None);
    }

    #[test]
    fn high_water_and_capacity_track_peaks() {
        let mut q = EventQueue::new();
        let keys: Vec<_> = (0..8).map(|i| q.push(i as f64, i)).collect();
        for k in &keys[..6] {
            q.cancel(*k);
        }
        for i in 0..4 {
            q.push(100.0 + i as f64, i);
        }
        assert_eq!(q.len(), 6);
        assert_eq!(q.high_water(), 8);
        assert_eq!(q.capacity(), 8, "churn must reuse slots");
    }

    /// Insertions that take the run past `RUN_SPILL` nodes send its upper
    /// half back into the buckets; equal times stay together, and the pop
    /// order is the oracle's.
    #[test]
    fn a_run_past_its_bound_spills_its_upper_half() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut q = EventQueue::new();
        let mut r = ReferenceHeap::default();
        // One bucket, so one sorted run from 1.0 to 1.9.
        for (t, e) in [(1.0, 0), (1.9, 1)] {
            assert_eq!(q.push(t, e), r.push(t, e));
        }
        assert_eq!(q.peek_time(), Some(1.0));
        assert_eq!(q.run.len(), 2);
        for e in 2..2_000 {
            // Coarse, so equal times are common.
            let t = 1.0 + f64::from(rng.gen_range(0..230u32)) / 256.0;
            assert_eq!(q.push(t, e), r.push(t, e));
            assert!(q.run.len() - q.head <= RUN_SPILL);
        }
        assert!((0..BUCKETS).any(|b| q.occupied(b)), "nothing spilled");
        loop {
            let popped = q.pop();
            assert_eq!(popped, r.pop());
            if popped.is_none() {
                break;
            }
        }
    }

    /// Reference model: a Vec kept sorted by `(time, seq)`, with
    /// cancellation by linear removal.
    #[derive(Default)]
    struct NaiveQueue {
        entries: Vec<(f64, u64, u32)>, // (time, seq, payload)
        seq: u64,
    }

    impl NaiveQueue {
        fn push(&mut self, time: f64, payload: u32) -> u64 {
            let seq = self.seq;
            self.seq += 1;
            self.entries.push((time, seq, payload));
            seq
        }
        fn pop(&mut self) -> Option<(f64, u32)> {
            let best = self
                .entries
                .iter()
                .enumerate()
                .min_by(|(_, a), (_, b)| a.0.partial_cmp(&b.0).unwrap().then(a.1.cmp(&b.1)))?
                .0;
            let (t, _, p) = self.entries.remove(best);
            Some((t, p))
        }
        fn cancel(&mut self, seq: u64) -> Option<u32> {
            let i = self.entries.iter().position(|e| e.1 == seq)?;
            Some(self.entries.remove(i).2)
        }
    }

    /// One scripted operation on both queues.
    #[derive(Debug, Clone)]
    enum Op {
        /// Push at `time / 2` past the last time popped or peeked (coarse
        /// times force equal-time ties).
        Push {
            time: u8,
        },
        Pop,
        /// Cancel the `n`-th oldest still-tracked handle.
        Cancel {
            n: u8,
        },
    }

    fn ops() -> impl Strategy<Value = Vec<Op>> {
        // Push listed twice: bias toward growth so scripts exercise deep
        // heaps, not just empty-queue churn.
        prop::collection::vec(
            prop_oneof![
                (0u8..16).prop_map(|time| Op::Push { time }),
                (0u8..16).prop_map(|time| Op::Push { time }),
                Just(Op::Pop),
                (0u8..8).prop_map(|n| Op::Cancel { n }),
            ],
            1..200,
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The radix heap and the naive sorted-Vec model agree on every
        /// pop (time AND payload — i.e. FIFO among equal times) and every
        /// cancel across arbitrary monotone push/pop/cancel interleavings.
        #[test]
        fn matches_naive_model(script in ops()) {
            let mut q = EventQueue::new();
            let mut model = NaiveQueue::default();
            // Handles issued and not yet known-dead, oldest first.
            let mut handles: Vec<(EventKey, u64)> = Vec::new();
            let mut payload = 0u32;
            // The last time popped or peeked: no push goes below it.
            let mut now = 0.0;
            for op in script {
                match op {
                    Op::Push { time } => {
                        // Coarse grid: plenty of equal-time collisions.
                        let t = now + f64::from(time) * 0.5;
                        let k = q.push(t, payload);
                        let s = model.push(t, payload);
                        handles.push((k, s));
                        payload += 1;
                    }
                    Op::Pop => {
                        let popped = q.pop();
                        prop_assert_eq!(popped, model.pop());
                        if let Some((t, _)) = popped {
                            now = t;
                        }
                    }
                    Op::Cancel { n } => {
                        if handles.is_empty() { continue; }
                        let (k, s) = handles[n as usize % handles.len()];
                        prop_assert_eq!(q.cancel(k), model.cancel(s));
                    }
                }
                prop_assert_eq!(q.len(), model.entries.len());
                prop_assert_eq!(q.is_empty(), model.entries.is_empty());
                let model_peek = model
                    .entries
                    .iter()
                    .map(|e| e.0)
                    .fold(f64::INFINITY, f64::min);
                if let Some(t) = q.peek_time() {
                    prop_assert_eq!(t, model_peek);
                    now = t;
                }
            }
            // Drain both: the full remaining pop order must agree.
            loop {
                let (a, b) = (q.pop(), model.pop());
                prop_assert_eq!(a, b);
                if a.is_none() { break; }
            }
        }
    }

    #[test]
    fn the_two_zeros_are_one_time() {
        let mut q = EventQueue::new();
        q.push(0.0, 'a');
        q.push(-0.0, 'b');
        q.push(0.0, 'c');
        assert_eq!(q.peek_time(), Some(0.0));
        let order: Vec<(f64, char)> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(order, vec![(0.0, 'a'), (0.0, 'b'), (0.0, 'c')]);
    }

    #[test]
    fn edge_times_order_as_partial_cmp_orders_them() {
        let times = [
            f64::INFINITY,
            -1.0,
            f64::MIN_POSITIVE,
            0.0,
            5e-324,
            -f64::MIN_POSITIVE,
            f64::MAX,
            f64::NEG_INFINITY,
            -5e-324,
            1.0,
            f64::MIN,
            1.0 + f64::EPSILON,
        ];
        for t in times {
            assert_eq!(key_time(ord_key(t)), t, "key round trip of {t:e}");
        }
        let mut q = EventQueue::new();
        for (i, t) in times.into_iter().enumerate() {
            q.push(t, i);
        }
        let mut sorted: Vec<(f64, usize)> = times.into_iter().zip(0..).collect();
        sorted.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
        // A peek between pops settles `floor` on each minimum in turn.
        let mut popped = Vec::new();
        while let Some(t) = q.peek_time() {
            let (time, i) = q.pop().unwrap();
            assert_eq!(time, t);
            popped.push((time, i));
        }
        assert_eq!(popped, sorted);
    }

    #[test]
    #[should_panic(expected = "simulation time must not be NaN")]
    fn rejects_negative_nan_with_the_same_message() {
        let mut q = EventQueue::new();
        q.push(-f64::NAN, 0u32);
    }

    #[test]
    fn a_push_at_the_last_popped_time_pops_next() {
        let mut q = EventQueue::new();
        q.push(5.0, "five");
        q.push(9.0, "nine");
        assert_eq!(q.pop(), Some((5.0, "five")));
        q.push(5.0, "five again");
        assert_eq!(q.peek_time(), Some(5.0));
        q.push(5.0, "and again");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(
            order,
            vec![(5.0, "five again"), (5.0, "and again"), (9.0, "nine")]
        );
    }

    /// A peek that finds only cancelled entries does not move the floor
    /// past them: a push at the last popped time is still legal.
    #[test]
    fn a_peek_over_cancelled_entries_keeps_the_floor() {
        let mut q = EventQueue::new();
        q.push(8.0, "eight");
        let nine = q.push(9.0, "nine");
        assert_eq!(q.pop(), Some((8.0, "eight")));
        q.cancel(nine);
        assert_eq!(q.peek_time(), None);
        q.push(8.0, "eight again");
        assert_eq!(q.pop(), Some((8.0, "eight again")));
    }

    #[test]
    #[should_panic(expected = "before the queue's last minimum")]
    fn a_push_below_the_last_popped_time_panics() {
        let mut q = EventQueue::new();
        q.push(5.0, "five");
        q.push(9.0, "nine");
        q.pop();
        q.push(3.0, "three");
    }

    #[test]
    fn key_display_clone_and_default_behave_as_before() {
        let mut q = EventQueue::default();
        assert!(q.is_empty() && q.peek_time().is_none() && q.pop().is_none());
        let a = q.push(2.0, 'a');
        assert_eq!(a.to_string(), "e0v0");
        q.cancel(a);
        // The freed slot is reused under a new generation.
        assert_eq!(q.push(1.0, 'b').to_string(), "e0v1");
        assert_eq!(q.push(1.0, 'c').to_string(), "e1v0");
        q.push(0.5, 'd');
        assert_eq!(q.pop(), Some((0.5, 'd')));
        // A clone is an independent queue in the same state.
        let mut twin = q.clone();
        q.push(0.75, 'e');
        assert_eq!(twin.len(), 2);
        let twin_order: Vec<_> = std::iter::from_fn(|| twin.pop()).collect();
        assert_eq!(twin_order, vec![(1.0, 'b'), (1.0, 'c')]);
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(order, vec![(0.75, 'e'), (1.0, 'b'), (1.0, 'c')]);
    }

    impl<E> EventQueue<E> {
        /// Nodes the run and the buckets hold, cancelled ones included.
        fn resident_nodes(&self) -> usize {
            let mut total = self.run.len() - self.head;
            for chain in &self.chains {
                let mut p = chain.head;
                while p != NONE {
                    total += self.pages[p].len as usize;
                    p = self.pages[p].next;
                }
            }
            total
        }

        /// Handle of `n` if it is live.
        fn live_key(&self, n: &Node) -> Option<EventKey> {
            (self.slots[n.slot as usize].generation == n.generation).then_some(EventKey {
                slot: n.slot,
                generation: n.generation,
            })
        }

        /// Handles of the live entries in the run, in pop order.
        fn live_in_run(&self) -> Vec<EventKey> {
            self.run[self.head..]
                .iter()
                .filter_map(|n| self.live_key(n))
                .collect()
        }

        /// Handles of the live entries in bucket `b`, in chain order.
        fn live_in_bucket(&self, b: usize) -> Vec<EventKey> {
            let mut keys = Vec::new();
            let mut p = self.chains[b].head;
            while p != NONE {
                let page = &self.pages[p];
                keys.extend(
                    page.nodes[..page.len as usize]
                        .iter()
                        .filter_map(|n| self.live_key(n)),
                );
                p = page.next;
            }
            keys
        }

        /// Whether bucket `b` has a page.
        fn occupied(&self, b: usize) -> bool {
            self.mask[b / 64] >> (b % 64) & 1 == 1
        }
    }

    /// One pop and one push at `now + δ` a step, every tenth step also
    /// cancelling a random outstanding handle and pushing its replacement;
    /// the clock crosses a power of two every few tens of thousands of
    /// steps. Returns the peak number of nodes in the buckets, cancelled
    /// ones included.
    fn hold(q: &mut EventQueue<u32>, rng: &mut StdRng, steps: u32) -> usize {
        let mut handles = Vec::new();
        let mut peak_nodes = 0;
        for step in 0..steps {
            let (now, _) = q.pop().expect("the hold model never drains");
            handles.push(q.push(now + rng.gen_range(0.0..2_000.0), step));
            if step % 10 == 0 {
                let victim = handles.swap_remove(rng.gen_range(0..handles.len()));
                if q.cancel(victim).is_some() {
                    handles.push(q.push(now + rng.gen_range(0.0..2_000.0), step));
                }
            }
            // Walking every chain is the slow part; the count drifts by one
            // or two a step.
            if step % 16 == 0 {
                peak_nodes = peak_nodes.max(q.resident_nodes());
            }
        }
        peak_nodes
    }

    #[test]
    fn page_pool_is_flat_in_steady_state() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut q = EventQueue::new();
        // A burst to 11k, drained to the 10k the script then holds; the
        // cancelled nodes still waiting to surface add several hundred.
        for i in 0..11_000 {
            q.push(rng.gen_range(0.0..2_000.0), i);
        }
        for _ in 0..1_000 {
            q.pop();
        }
        let peak_nodes = hold(&mut q, &mut rng, 150_000).max(11_000);
        assert_eq!(q.len(), 10_000);
        // A page is allocated only when the free list is empty, so the
        // pool's size is the most pages ever in use at once.
        let pages = q.pages.len();
        assert!(
            pages <= peak_nodes.div_ceil(PAGE_NODES) + BUCKETS,
            "{pages} pages for a peak of {peak_nodes} nodes"
        );
        // The same stretch again, through the next power of two: not one
        // more page, not one more slot.
        assert!(hold(&mut q, &mut rng, 150_000) < 11_000);
        assert_eq!(q.pages.len(), pages, "steady state allocated a page");
        assert_eq!(q.capacity(), 11_000, "steady state allocated a slot");
    }

    /// Drives the radix heap and the [`ReferenceHeap`] through one
    /// simulator-shaped script and asserts they are indistinguishable at
    /// every step: pushes at `now + δ` with δ ∈ {0, small, ≈ 1 000} (depth in
    /// the thousands, a clock that starts anywhere in ±1 500 and crosses
    /// several powers of two, sometimes zero), pops that move `now`, 10 % cancels
    /// of random handles — stale ones included — and, rarely, the two
    /// cancels that lean on the layout: the entry at the head of the run,
    /// and every entry of one bucket (or of the run, when no bucket is
    /// occupied).
    ///
    /// `peek` compares `peek_time` at every step. A peek settles on the
    /// next minimum, so in that run `now` follows the peeked time too,
    /// and a push at `now` lands in the run behind the head and its
    /// equals; the run without it is the plain pop-then-push pattern.
    fn differential(seed: u64, ops: u32, peek: bool) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut q = EventQueue::new();
        let mut r = ReferenceHeap::default();
        let mut handles: Vec<EventKey> = Vec::new();
        // Cubed, so half the scripts start within ±190 of zero and the
        // ≈ 1 000 they advance takes them through many powers of two.
        let mut now = 1_500.0 * rng.gen_range(-1.0f64..1.0).powi(3);
        let depth = rng.gen_range(1_000..6_000);
        let mut payload = 0u32;
        for _ in 0..ops {
            let grow = if q.len() < depth { 0.62 } else { 0.38 };
            let roll: f64 = rng.gen();
            if roll < 0.10 {
                if !handles.is_empty() {
                    let k = handles.swap_remove(rng.gen_range(0..handles.len()));
                    assert_eq!(q.cancel(k), r.cancel(k));
                }
            } else if roll < 0.101 {
                if let Some(&k) = q.live_in_run().first() {
                    assert_eq!(q.cancel(k), r.cancel(k), "head of the run");
                }
            } else if roll < 0.1015 {
                let b = rng.gen_range(0..BUCKETS);
                let victims = match (b..BUCKETS).find(|&b| q.occupied(b)) {
                    Some(b) => q.live_in_bucket(b),
                    None => q.live_in_run(),
                };
                for k in victims {
                    assert_eq!(q.cancel(k), r.cancel(k), "all of one bucket or the run");
                }
            } else if roll < 0.1015 + grow {
                let t = match rng.gen_range(0..3) {
                    0 => now,
                    1 => now + rng.gen_range(0.0..2.0),
                    _ => now + rng.gen_range(900.0..1_100.0),
                };
                let k = q.push(t, payload);
                assert_eq!(k, r.push(t, payload), "same slot, same generation");
                handles.push(k);
                payload += 1;
            } else {
                let popped = q.pop();
                assert_eq!(popped, r.pop());
                if let Some((t, _)) = popped {
                    now = t;
                }
            }
            assert_eq!(q.len(), r.len());
            assert_eq!(q.high_water(), r.high_water());
            assert_eq!(q.capacity(), r.capacity());
            if peek {
                let peeked = q.peek_time();
                assert_eq!(peeked, r.peek_time());
                if let Some(t) = peeked {
                    now = t;
                }
            }
        }
        loop {
            let popped = q.pop();
            assert_eq!(popped, r.pop());
            if popped.is_none() {
                break;
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// See [`differential`]: 20k operations a case.
        #[test]
        fn matches_reference_heap_on_des_scripts(seed in 0..u64::MAX, peek in 0u8..2) {
            differential(seed, 20_000, peek == 1);
        }
    }

    /// The same at 1 M operations, with and without peeks; run in release
    /// by `scripts/check.sh`.
    #[test]
    #[ignore = "1 M operations twice: run in release (scripts/check.sh does)"]
    fn matches_reference_heap_on_a_million_operations() {
        differential(0xD05C0, 1_000_000, true);
        differential(0xD05C1, 1_000_000, false);
    }

    /// What a popped event of [`GridScript`] schedules.
    #[derive(Debug, Clone, Copy, PartialEq, Default)]
    enum Grid {
        /// Stream `0`'s next arrival, and the new flow's first hop at
        /// `now`.
        Arrival(u32),
        /// A flow with `0` links left to cross: the next hop after a link
        /// delay of 1 or 2, and that link's release 1 000 later.
        Hop(u8),
        #[default]
        Release,
    }

    /// The time structure of `sim-grid-static` in miniature: 100 Poisson
    /// arrival streams of mean gap 1; each arrival starts a flow at `now`
    /// that crosses two links of delay 1 or 2, each held until a release
    /// 1 000 after it is taken. Six pushes an arrival, about 1.7 × 10⁵
    /// events resident once the clock is 1 000 past the start. After each
    /// push, one time in twenty, a release is cancelled: one of 4 096
    /// recent ones, each pushed less than 1 000 ago with near certainty
    /// (a new one evicts a random one), so still live. With an oracle,
    /// every operation is mirrored on a [`ReferenceHeap`] and compared.
    struct GridScript {
        rng: StdRng,
        q: EventQueue<Grid>,
        oracle: Option<ReferenceHeap<Grid>>,
        /// Handles of recent releases not yet cancelled.
        releases: Vec<EventKey>,
        pushes: u64,
        pops: u64,
        cancels: u64,
    }

    impl GridScript {
        const RELEASES: usize = 4_096;

        fn new(seed: u64, start: f64, oracle: bool) -> Self {
            let mut g = GridScript {
                rng: StdRng::seed_from_u64(seed),
                q: EventQueue::new(),
                oracle: oracle.then(ReferenceHeap::default),
                releases: Vec::with_capacity(Self::RELEASES),
                pushes: 0,
                pops: 0,
                cancels: 0,
            };
            for stream in 0..100 {
                let t = start + g.gap();
                g.push(t, Grid::Arrival(stream));
            }
            g
        }

        /// An exponential gap of mean 1.
        fn gap(&mut self) -> f64 {
            -(1.0 - self.rng.gen::<f64>()).ln()
        }

        fn push(&mut self, time: f64, event: Grid) -> EventKey {
            let k = self.q.push(time, event);
            if let Some(r) = &mut self.oracle {
                assert_eq!(k, r.push(time, event), "same slot, same generation");
            }
            self.pushes += 1;
            if self.rng.gen_bool(0.05) && !self.releases.is_empty() {
                let victim = self
                    .releases
                    .swap_remove(self.rng.gen_range(0..self.releases.len()));
                self.cancel(victim);
            }
            k
        }

        fn cancel(&mut self, k: EventKey) {
            let cancelled = self.q.cancel(k);
            if let Some(r) = &mut self.oracle {
                assert_eq!(cancelled, r.cancel(k));
            }
            self.cancels += u64::from(cancelled.is_some());
        }

        fn peek(&mut self) -> Option<f64> {
            let peeked = self.q.peek_time();
            if let Some(r) = &self.oracle {
                assert_eq!(peeked, r.peek_time());
            }
            peeked
        }

        /// Pops one event, schedules what it calls for, and returns its
        /// time.
        fn step(&mut self) -> f64 {
            let popped = self.q.pop();
            if let Some(r) = &mut self.oracle {
                assert_eq!(popped, r.pop());
                assert_eq!(self.q.len(), r.len());
            }
            let (now, event) = popped.expect("the arrival streams never run dry");
            self.pops += 1;
            match event {
                Grid::Arrival(stream) => {
                    let t = now + self.gap();
                    self.push(t, Grid::Arrival(stream));
                    self.push(now, Grid::Hop(2));
                }
                Grid::Hop(0) | Grid::Release => {}
                Grid::Hop(left) => {
                    let delay = f64::from(self.rng.gen_range(1u8..=2));
                    self.push(now + delay, Grid::Hop(left - 1));
                    let k = self.push(now + 1_000.0, Grid::Release);
                    if self.releases.len() < Self::RELEASES {
                        self.releases.push(k);
                    } else {
                        let at = self.rng.gen_range(0..Self::RELEASES);
                        self.releases[at] = k;
                    }
                }
            }
            now
        }
    }

    /// Pins the mechanism, not only its speed: over the 1 500 time units
    /// of a `sim-grid-static` segment, ending with 1.7 × 10⁵ events
    /// resident, the grid-shaped script moves a pushed node 1.64 times
    /// before it pops, redistributes a bucket on 0.004 of the pops and
    /// sorts a run on 0.10. Buckets one key bit wide moved each node 4.09
    /// times and redistributed on 0.80 of the pops. The counts are
    /// deterministic.
    #[test]
    fn a_grid_script_moves_each_node_about_once() {
        let mut g = GridScript::new(7, 0.0, false);
        while g.step() < 1_500.0 {}
        let resident = g.q.len();
        assert!(resident >= 100_000, "{resident} resident");
        let (pushes, pops) = (g.pushes as f64, g.pops as f64);
        let cancelled = g.cancels as f64 / pushes;
        assert!((0.04..0.06).contains(&cancelled), "{cancelled} cancelled");
        let moves = g.q.stats.moves as f64 / pushes;
        let redistributions = g.q.stats.redistributions as f64 / pops;
        let sorts = g.q.stats.sorts as f64 / pops;
        assert!(moves < 2.2, "{moves} node moves a push");
        assert!(
            redistributions < 0.02,
            "{redistributions} redistributions a pop"
        );
        assert!(sorts < 0.2, "{sorts} run sorts a pop");
    }

    /// The grid-shaped script against the [`ReferenceHeap`] at the
    /// simulator's depth — 1.7 × 10⁵ events resident, a clock that starts at
    /// 400 and crosses 512, 1 024 and 2 048 — and, after one pop in
    /// twenty, a peek and one of the operations that lean on the run: a
    /// push at its head key, a push between two of its keys, a push at
    /// its last key, a cancel of one of its live entries. Run in release
    /// by `scripts/check.sh`.
    #[test]
    #[ignore = "10⁶ pushes at 1.7 × 10⁵ resident: run in release (scripts/check.sh does)"]
    fn matches_reference_heap_at_grid_depth() {
        let mut g = GridScript::new(0xD05C2, 400.0, true);
        // Pushes at the head key, between two keys and at the last key;
        // cancels of run entries.
        let mut done = [0u32; 4];
        while g.step() < 2_100.0 {
            if !g.rng.gen_bool(0.05) {
                continue;
            }
            let head = g.peek().expect("the arrival streams never run dry");
            let run = &g.q.run[g.q.head..];
            let op = g.rng.gen_range(0..4);
            let time = match op {
                0 => Some(head),
                1 => {
                    let from = g.rng.gen_range(0..run.len());
                    run[from..]
                        .windows(2)
                        .find(|w| w[0].key < w[1].key)
                        .map(|w| (key_time(w[0].key) + key_time(w[1].key)) / 2.0)
                }
                2 => run.last().map(|n| key_time(n.key)),
                _ => {
                    // Not an arrival: that would end its stream.
                    let mut live = g.q.live_in_run();
                    live.retain(|k| {
                        !matches!(g.q.slots[k.slot as usize].event, Some(Grid::Arrival(_)))
                    });
                    if !live.is_empty() {
                        let victim = live[g.rng.gen_range(0..live.len())];
                        g.cancel(victim);
                        done[op] += 1;
                    }
                    None
                }
            };
            if let Some(t) = time {
                assert!(t <= key_time(g.q.top), "{t} lands in the run");
                g.push(t, Grid::Release);
                done[op] += 1;
            }
        }
        assert!(done.iter().all(|&n| n > 1_000), "{done:?}");
        let r = g.oracle.as_mut().expect("an oracle run");
        assert!(g.q.high_water() > 150_000, "{} resident", g.q.high_water());
        assert_eq!(g.q.high_water(), r.high_water());
        assert_eq!(g.q.capacity(), r.capacity());
        loop {
            let popped = g.q.pop();
            assert_eq!(popped, r.pop());
            if popped.is_none() {
                break;
            }
        }
    }

    /// The indexed binary heap [`EventQueue`] used to be, kept as the
    /// oracle: slot indices in the heap array, `(time, seq)` keys and the
    /// heap position in the slots, O(log n) removal on cancel.
    #[derive(Debug, Default)]
    struct ReferenceHeap<E> {
        slots: Vec<RefSlot<E>>,
        free: Vec<u32>,
        /// Binary min-heap of slot indices, ordered by `(time, seq)`.
        heap: Vec<u32>,
        seq: u64,
        high_water: usize,
    }

    #[derive(Debug)]
    struct RefSlot<E> {
        generation: u32,
        /// Position in `heap`; meaningless while the slot is free.
        pos: u32,
        time: f64,
        seq: u64,
        event: Option<E>,
    }

    impl<E> ReferenceHeap<E> {
        fn push(&mut self, time: f64, event: E) -> EventKey {
            assert!(!time.is_nan(), "simulation time must not be NaN");
            let seq = self.seq;
            self.seq += 1;
            let pos = self.heap.len() as u32;
            let slot = match self.free.pop() {
                Some(slot) => {
                    let s = &mut self.slots[slot as usize];
                    assert!(s.event.is_none(), "free-list slot must be empty");
                    s.pos = pos;
                    s.time = time;
                    s.seq = seq;
                    s.event = Some(event);
                    slot
                }
                None => {
                    self.slots.push(RefSlot {
                        generation: 0,
                        pos,
                        time,
                        seq,
                        event: Some(event),
                    });
                    self.slots.len() as u32 - 1
                }
            };
            self.heap.push(slot);
            self.sift_up(pos as usize);
            self.high_water = self.high_water.max(self.heap.len());
            EventKey {
                slot,
                generation: self.slots[slot as usize].generation,
            }
        }

        fn pop(&mut self) -> Option<(f64, E)> {
            let &slot = self.heap.first()?;
            self.remove_heap_index(0);
            let s = &mut self.slots[slot as usize];
            Some((s.time, s.event.take().expect("heap slot holds an event")))
        }

        fn cancel(&mut self, key: EventKey) -> Option<E> {
            let s = self.slots.get(key.slot as usize)?;
            if s.generation != key.generation || s.event.is_none() {
                return None;
            }
            let pos = s.pos as usize;
            assert_eq!(self.heap[pos], key.slot);
            self.remove_heap_index(pos);
            self.slots[key.slot as usize].event.take()
        }

        fn peek_time(&self) -> Option<f64> {
            self.heap.first().map(|&s| self.slots[s as usize].time)
        }

        fn len(&self) -> usize {
            self.heap.len()
        }

        fn high_water(&self) -> usize {
            self.high_water
        }

        fn capacity(&self) -> usize {
            self.slots.len()
        }

        /// Strict `(time, seq)` order between two slots.
        fn less(&self, a: u32, b: u32) -> bool {
            let (sa, sb) = (&self.slots[a as usize], &self.slots[b as usize]);
            match sa.time.partial_cmp(&sb.time).expect("times are never NaN") {
                Ordering::Less => true,
                Ordering::Greater => false,
                Ordering::Equal => sa.seq < sb.seq,
            }
        }

        /// Detaches the heap entry at `pos`: swap-removes it, restores the
        /// heap property, bumps the slot's generation, and frees the slot.
        /// The caller still owns the slot's `event` (not yet taken).
        fn remove_heap_index(&mut self, pos: usize) {
            let slot = self.heap[pos];
            let last = self.heap.len() - 1;
            self.heap.swap(pos, last);
            self.heap.pop();
            if pos < self.heap.len() {
                let moved = self.heap[pos];
                self.slots[moved as usize].pos = pos as u32;
                // The displaced entry may need to move either direction.
                self.sift_down(pos);
                if self.slots[moved as usize].pos as usize == pos {
                    self.sift_up(pos);
                }
            }
            let s = &mut self.slots[slot as usize];
            s.generation = s.generation.wrapping_add(1);
            self.free.push(slot);
        }

        fn sift_up(&mut self, mut pos: usize) {
            while pos > 0 {
                let parent = (pos - 1) / 2;
                if !self.less(self.heap[pos], self.heap[parent]) {
                    break;
                }
                self.heap.swap(pos, parent);
                self.slots[self.heap[pos] as usize].pos = pos as u32;
                pos = parent;
            }
            self.slots[self.heap[pos] as usize].pos = pos as u32;
        }

        fn sift_down(&mut self, mut pos: usize) {
            loop {
                let (l, r) = (2 * pos + 1, 2 * pos + 2);
                let mut smallest = pos;
                if l < self.heap.len() && self.less(self.heap[l], self.heap[smallest]) {
                    smallest = l;
                }
                if r < self.heap.len() && self.less(self.heap[r], self.heap[smallest]) {
                    smallest = r;
                }
                if smallest == pos {
                    break;
                }
                self.heap.swap(pos, smallest);
                self.slots[self.heap[pos] as usize].pos = pos as u32;
                pos = smallest;
            }
            self.slots[self.heap[pos] as usize].pos = pos as u32;
        }
    }
}

//! The cancellable event queue behind the simulator's scheduler: a paged,
//! monotone radix heap keyed on the ordered bits of the `f64` clock.
//!
//! A discrete-event simulator pops in time order and schedules at or after
//! the time it just popped. [`EventQueue`] is built on that law. An event
//! time maps to a `u64` key whose integer order is the time order
//! (`ord_key`); the key of the most recent minimum is `last`; an entry
//! sits in bucket `64 − lzcnt(key ^ last)`, i.e. by the highest bit in
//! which it differs from `last`. A push is one append to its bucket.
//! Bucket 0 holds the entries *at* `last` and pops from its front; when it
//! runs dry the lowest non-empty bucket is scanned once for its minimum,
//! `last` moves there, and the bucket's nodes are re-appended, in order,
//! into the — necessarily empty — buckets below it. Entries with equal
//! times always share a bucket and every move keeps their order, so the
//! pop order is strictly time-ascending and FIFO among equal timestamps by
//! construction, with no sequence number in the node; a push at the
//! current time lands in bucket 0 directly.
//!
//! Nodes are 16 bytes and only ever move sequentially, which is the point:
//! the indexed binary heap this replaces dereferenced a 64-byte slot
//! somewhere in the slab at each of the ≈ 34 comparisons of a sift, and
//! spent two thirds of a 100k-flow run doing so (DESIGN.md has the
//! numbers). Buckets are chains of 512 B pages drawn from one free list
//! (the arena behind it grows eight pages at a time), and a page goes back
//! to it the moment redistribution has read it — the destinations reuse it
//! at once, so moving all pending events at a power-of-two crossing of the
//! clock holds one extra page, not a second copy of the queue.
//!
//! [`EventQueue::push`] returns an [`EventKey`] handle and
//! [`EventQueue::cancel`] is an O(1) generation bump on the entry's slot:
//! the node left behind is skipped when it surfaces, the slot is reusable
//! at once, and stale handles (already popped or cancelled) miss on the
//! same generation compare. A push *earlier* than `last` has no bucket
//! and panics: the simulator never makes one (`Simulation::schedule`
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
/// set the size. An Abilene episode's few dozen events still spread over
/// ten to fifteen buckets, a page each, and a serving or training process
/// holds sixteen such queues: 2 KB pages cost those workloads 3–4 % of
/// their peak RSS, these cost 1 %.
const PAGE_NODES: usize = 31;
/// One bucket per possible position of the highest differing key bit,
/// plus bucket 0 for "no bit differs".
const BUCKETS: usize = 65;
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
    /// Read offset into bucket 0's head page.
    head0: u32,
    /// Bit `i` set iff bucket `i` has a page.
    mask: u128,
    /// Key of the most recent minimum: a lower bound on every key, and
    /// on every time a push may take.
    last: u64,
    live: usize,
    high_water: usize,
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
            head0: 0,
            mask: 0,
            last: 0,
            live: 0,
            high_water: 0,
        }
    }

    /// Schedules `event` at absolute time `time`; the returned handle
    /// can cancel it until it pops.
    ///
    /// # Panics
    ///
    /// Panics if `time` is NaN; if it is earlier than the minimum the
    /// queue last settled on, which is at most the last time
    /// [`EventQueue::pop`] or [`EventQueue::peek_time`] returned, so a
    /// push at or after that time never panics; or on more than
    /// `u32::MAX` live entries.
    pub fn push(&mut self, time: f64, event: E) -> EventKey {
        assert!(!time.is_nan(), "simulation time must not be NaN");
        let key = ord_key(time);
        assert!(
            key >= self.last,
            "event pushed at {time}, before the queue's last minimum {}",
            key_time(self.last)
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
        self.append(bucket(key, self.last), node);
        self.live += 1;
        self.high_water = self.high_water.max(self.live);
        EventKey { slot, generation }
    }

    /// Pops the earliest event (FIFO among equal times), invalidating its
    /// handle.
    pub fn pop(&mut self) -> Option<(f64, E)> {
        let node = self.settle()?;
        self.head0 += 1;
        // The head is live (its generation matched), so its slot holds an
        // event.
        let event = self.release(node.slot)?;
        Some((key_time(node.key), event))
    }

    /// Cancels a scheduled event in O(1): its slot is freed at once and
    /// the node it leaves in the buckets is skipped when it surfaces.
    /// Returns the event, or `None` if the handle is stale (the event
    /// already popped or was cancelled) — the same generation compare.
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
    /// does its work: it drops cancelled entries off the front and, when
    /// the current bucket is spent, redistributes the next one. The
    /// [`EventQueue::pop`] that follows finds that work done. A push
    /// below the returned time may panic afterwards (see
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
            self.mask |= 1 << b;
        } else {
            self.pages[tail].next = p;
        }
        self.chains[b].tail = p;
    }

    /// Makes the head of bucket 0 the earliest live bucketed entry and
    /// returns it; `None` when the buckets hold no live entry. `last` only
    /// moves on the way to a live entry, so it never passes the time the
    /// caller last saw.
    fn settle(&mut self) -> Option<Node> {
        if self.live == 0 {
            return None;
        }
        loop {
            // Bucket 0: skip cancelled nodes, recycle drained pages.
            loop {
                let head = self.chains[0].head;
                if head == NONE {
                    break;
                }
                let page = &self.pages[head];
                while self.head0 < page.len {
                    let node = page.nodes[self.head0 as usize];
                    if self.slots[node.slot as usize].generation == node.generation {
                        return Some(node);
                    }
                    self.head0 += 1;
                }
                let next = page.next;
                self.free_pages.push(head);
                self.head0 = 0;
                self.chains[0].head = next;
                if next == NONE {
                    self.chains[0].tail = NONE;
                }
            }
            self.mask &= !1;
            if self.mask == 0 {
                return None;
            }
            // The lowest non-empty bucket: every bucket below it is empty,
            // and all of its nodes land below it.
            let i = self.mask.trailing_zeros() as usize;
            let head = self.chains[i].head;
            self.chains[i] = EMPTY;
            self.mask &= !(1 << i);
            let mut min = u64::MAX;
            let mut p = head;
            while p != NONE {
                let page = &self.pages[p];
                for node in &page.nodes[..page.len as usize] {
                    min = min.min(node.key);
                }
                p = page.next;
            }
            // May be a cancelled node's key: still ≤ every live key.
            self.last = min;
            let mut p = head;
            while p != NONE {
                // In chain order, so equal keys stay in push order.
                let (len, next) = {
                    let page = &self.pages[p];
                    (page.len as usize, page.next)
                };
                for k in 0..len {
                    let node = self.pages[p].nodes[k];
                    self.append(bucket(node.key, min), node);
                }
                // Read, so free: the destinations reuse it at once.
                self.free_pages.push(p);
                p = next;
            }
        }
    }
}

/// The bucket of `key` relative to `last`: one more than the position of
/// their highest differing bit, 0 when equal.
#[inline]
fn bucket(key: u64, last: u64) -> usize {
    (64 - (key ^ last).leading_zeros()) as usize
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
        // A peek between pops moves `last` as far as it can go each time.
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
        /// Nodes the buckets hold, cancelled ones included.
        fn resident_nodes(&self) -> usize {
            let mut total = 0;
            for chain in &self.chains {
                let mut p = chain.head;
                while p != NONE {
                    total += self.pages[p].len as usize;
                    p = self.pages[p].next;
                }
            }
            total - self.head0 as usize
        }

        /// Handles of the live entries in bucket `b`, in chain order.
        fn live_in_bucket(&self, b: usize) -> Vec<EventKey> {
            let mut keys = Vec::new();
            let mut p = self.chains[b].head;
            while p != NONE {
                let page = &self.pages[p];
                let from = if b == 0 && p == self.chains[0].head {
                    self.head0 as usize
                } else {
                    0
                };
                for n in &page.nodes[from..page.len as usize] {
                    if self.slots[n.slot as usize].generation == n.generation {
                        keys.push(EventKey {
                            slot: n.slot,
                            generation: n.generation,
                        });
                    }
                }
                p = page.next;
            }
            keys
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
    /// cancels that lean on the bucket layout: the entry at the head of
    /// bucket 0, and every entry of one bucket.
    ///
    /// `peek` compares `peek_time` at every step. A peek moves `last` up to
    /// the next minimum, so in that run `now` follows the peeked time too,
    /// and a push at `now` lands at the head of bucket 0 behind its
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
                if let Some(&k) = q.live_in_bucket(0).first() {
                    assert_eq!(q.cancel(k), r.cancel(k), "head of bucket 0");
                }
            } else if roll < 0.1015 {
                let b = rng.gen_range(1..BUCKETS);
                let b = (b..BUCKETS).find(|&b| q.mask >> b & 1 == 1).unwrap_or(0);
                for k in q.live_in_bucket(b) {
                    assert_eq!(q.cancel(k), r.cancel(k), "all of bucket {b}");
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

//! All-pairs shortest path delays and next-hop tables.
//!
//! The paper assumes a fixed topology and link delays, so shortest-path
//! delays `d_{v,v',v_eg}` (from `v` via neighbor `v'` to the egress) can be
//! precomputed and looked up in constant time at runtime (Sec. IV-B1d).
//!
//! Under substrate churn the table stays finished: a
//! [re-mask](ShortestPaths::remask) repairs every row in place, one changed
//! link at a time, so a read is always an indexed load. The repair is the
//! Ramalingam–Reps dynamic shortest-path update, made exact under ties.
//!
//! It rests on one ordering fact. When every relaxation offers more than
//! the offering node's own distance, a fresh Dijkstra pops nodes in key
//! order, `key(x) = (dist[x], x)`, so a node's parent is the least-key
//! neighbour whose offer equals `dist[x]` (acceptance is a strict `<`: the
//! first equal offer wins). A finished row is then pinned down by local
//! conditions at each node, and a changed link breaks them only near it:
//!
//! - A link whose weight rises matters only to a row in which it is the
//!   `via` link — the one that set the distance — of one of its endpoints,
//!   and then only to the subtree below it. There a node whose parent kept
//!   its distance keeps its own, and a node whose parent lost it keeps it
//!   too if another neighbour offers exactly that distance. The nodes left
//!   are re-derived by a Dijkstra confined to them.
//! - A link whose weight falls offers each endpoint a shorter distance or
//!   a tie from a smaller key. The nodes whose distance falls pass their
//!   offers on in key order through a small heap.
//!
//! Either way a node that changes its first hop hands it down to the
//! subtree below it. A zero delay, or one below the rounding of the
//! distances it is added to, breaks the ordering fact: key order is then
//! not pop order. A re-mask that meets such a weight, before or after,
//! recomputes every row with the full Dijkstra that
//! [`ShortestPaths::compute_masked`] runs.
//!
//! The table is stored target-major: the entries of all sources for one
//! target are adjacent. A changed link is then checked against every row
//! by two contiguous scans, and the rows it touches read their entries
//! near its endpoints from neighbouring lines.

use crate::graph::{Link, LinkId, NodeId, Topology};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::ops::{Index, IndexMut};

/// All-pairs shortest-path delays (by link propagation delay) and next-hop
/// tables for a [`Topology`], one finished row per source node.
///
/// [`ShortestPaths::compute`] and [`ShortestPaths::compute_masked`] run
/// Dijkstra from every source; [`ShortestPaths::remask`] repairs the rows
/// in place. Either way every read returns exactly what an eager all-pairs
/// run over the same weights produces. Two tables are equal when all their
/// delays and next hops are, whatever graph they came from.
///
/// A read is an indexed load, and the table is [`Send`] and [`Sync`].
///
/// # Example
///
/// ```
/// use dosco_topology::{paths::ShortestPaths, zoo};
///
/// let topo = zoo::abilene();
/// let sp = ShortestPaths::compute(&topo);
/// let (src, dst) = (topo.node_ids().next().unwrap(), topo.node_ids().last().unwrap());
/// let d = sp.delay(src, dst);
/// assert!(d.is_finite());
/// // Walking the next-hop chain reaches the destination with the same delay.
/// assert_eq!(sp.path(src, dst).unwrap().last().copied(), Some(dst));
/// ```
#[derive(Debug, Clone)]
pub struct ShortestPaths {
    graph: Graph,
    /// Target-major `n × n`: entry `t * n + s` describes the path from `s`
    /// to `t`.
    entries: Vec<Entry>,
    scratch: Scratch,
}

/// What a row knows about one target.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Entry {
    /// The path's delay (∞ if unreachable).
    dist: f64,
    /// First hop on the path, or [`NONE`] for `s == t` and unreachable `t`.
    next_hop: u32,
    /// The parent of `t`: the other end of the link (its `via` link) whose
    /// relaxation set `dist`, or [`NONE`] for the source and unreachable
    /// nodes. Links join distinct pairs, so the parent names the link.
    parent: u32,
}

/// An entry no search has reached.
const UNREACHED: Entry = Entry {
    dist: f64::INFINITY,
    next_hop: NONE,
    parent: NONE,
};

/// No node: the first hop and the parent of a source or unreachable node.
const NONE: u32 = u32::MAX;

/// The node a compact id names, if any.
fn node(v: u32) -> Option<NodeId> {
    (v != NONE).then_some(NodeId(v as usize))
}

/// The compact id of a node.
fn id(v: NodeId) -> u32 {
    v.0 as u32
}

/// The topology as the searches read it.
#[derive(Debug, Clone)]
struct Graph {
    /// CSR adjacency: `arcs[starts[v]..starts[v + 1]]` are the neighbors of
    /// `v` with their links, in [`Topology::neighbors`] order.
    starts: Vec<usize>,
    arcs: Vec<(NodeId, LinkId)>,
    /// Both endpoints of every link.
    ends: Vec<(NodeId, NodeId)>,
    /// Effective delay per link, never negative: `∞` while the link or
    /// either endpoint is down, which no relaxation can ever accept.
    weight: Vec<f64>,
}

/// One source's row of the target-major table, indexed by target.
struct Row<'a> {
    s: NodeId,
    n: usize,
    entries: &'a mut [Entry],
}

impl<'a> Row<'a> {
    /// Source `s`'s row of the table of `n` nodes.
    fn new(s: usize, n: usize, entries: &'a mut [Entry]) -> Self {
        Row {
            s: NodeId(s),
            n,
            entries,
        }
    }
}

impl Index<NodeId> for Row<'_> {
    type Output = Entry;

    fn index(&self, t: NodeId) -> &Entry {
        &self.entries[t.0 * self.n + self.s.0]
    }
}

impl IndexMut<NodeId> for Row<'_> {
    fn index_mut(&mut self, t: NodeId) -> &mut Entry {
        &mut self.entries[t.0 * self.n + self.s.0]
    }
}

/// The buffers searches and repairs work in, shared by every row and
/// sized at construction so that nothing allocates afterwards.
#[derive(Debug)]
struct Scratch {
    /// Min-heap of [`key`]s.
    heap: BinaryHeap<Reverse<u128>>,
    /// The nodes a rise moves, and each node's [`UNMOVED`], [`KEPT`] or
    /// [`LOST`] state.
    moved: Vec<NodeId>,
    state: Vec<u8>,
    /// The stack a first hop is handed down with.
    stack: Vec<NodeId>,
    /// The links a re-mask changes, with their new weights.
    changed: Vec<(LinkId, f64)>,
    #[cfg(test)]
    counts: Counts,
}

impl Scratch {
    fn new(n: usize, m: usize) -> Self {
        // A full search pushes the source, then once per accepted
        // relaxation: a link is relaxed once from each end, and the later
        // end offers the earlier one no less than its final distance. A
        // rise queues each node of the subtree below its link at most once
        // to decide it, then re-derives the ones that lost their distance
        // from one seed each, as a search would. A fall pops each node at
        // most once and pushes at most once per arc it relaxes: a push is
        // a strict fall of a distance that no earlier pop can offer.
        Scratch {
            heap: BinaryHeap::with_capacity(2 * m + n + 2),
            moved: Vec::with_capacity(n),
            state: vec![UNMOVED; n],
            stack: Vec::with_capacity(n),
            changed: Vec::with_capacity(m),
            #[cfg(test)]
            counts: Counts::default(),
        }
    }
}

impl Clone for Scratch {
    /// A derived clone would trim the buffers' spare capacity, and the
    /// copy would allocate on its first re-mask.
    fn clone(&self) -> Self {
        Scratch::new(self.state.len(), self.changed.capacity())
    }
}

/// A node a rise has not moved.
const UNMOVED: u8 = 0;
/// A node a rise gave a new parent at its old distance.
const KEPT: u8 = 1;
/// A node that lost its distance in a rise, and is re-derived.
const LOST: u8 = 2;

/// What repairs cost, for tests to pin.
#[cfg(test)]
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Counts {
    /// Rows recomputed from scratch by a re-mask.
    restarts: usize,
    /// Nodes a repair queued: decided in a rise, popped in a fall.
    visits: usize,
}

impl PartialEq for ShortestPaths {
    fn eq(&self, other: &Self) -> bool {
        self.entries.len() == other.entries.len()
            && (self.entries.iter().zip(&other.entries))
                .all(|(a, b)| a.dist == b.dist && a.next_hop == b.next_hop)
    }
}

/// The heap and tie-break key of node `v` at distance `d`: it orders like
/// `(d, v)`, because the bits of non-negative floats order like their
/// values.
fn key(d: f64, v: NodeId) -> u128 {
    (u128::from(d.to_bits()) << 64) | v.0 as u128
}

/// The distance and node of a [`key`].
fn unkey(k: u128) -> (f64, NodeId) {
    (f64::from_bits((k >> 64) as u64), NodeId(k as u64 as usize))
}

/// Whether `fl(d + w) > d` holds for every weight `w >= least` and every
/// distance `d <= bound`: it does once `least` exceeds the spacing of
/// floats at `bound`, since `d + w` then exceeds the next float above `d`.
fn order_safe(bound: f64, least: f64) -> bool {
    bound.is_finite() && least > f64::from_bits(bound.to_bits() + 1) - bound
}

/// Asserts that the masks and delays cover every node and link.
fn check_lengths(n: usize, m: usize, node_up: &[bool], link_up: &[bool], delays: &[f64]) {
    assert!(node_up.len() >= n, "node mask covers every node");
    assert!(link_up.len() >= m, "link mask covers every link");
    assert!(delays.len() >= m, "delays cover every link");
}

/// The effective weight of link `l` between `a` and `b` under the masks.
fn masked_weight(
    (l, (a, b)): (usize, &(NodeId, NodeId)),
    node_up: &[bool],
    link_up: &[bool],
    delays: &[f64],
) -> f64 {
    let usable = link_up[l] && node_up[a.0] && node_up[b.0];
    let weight = if usable { delays[l] } else { f64::INFINITY };
    assert!(weight >= 0.0, "usable link delays are non-negative");
    weight
}

impl ShortestPaths {
    /// Runs Dijkstra from every node and stores delays plus next hops.
    pub fn compute(topo: &Topology) -> Self {
        Self::with_weights(topo, |_, link| link.delay)
    }

    /// Like [`ShortestPaths::compute`], but on a *masked* view of the
    /// topology: a link is usable only while `link_up[l]` holds and both
    /// endpoints satisfy `node_up[v]`, and its delay is read from
    /// `delays[l]` instead of the topology (churn may spike delays without
    /// rebuilding the graph).
    ///
    /// The relaxation order is identical to a fresh
    /// [`ShortestPaths::compute`] on a topology rebuilt from the surviving
    /// links with the masked delays, so the result — distances *and* next
    /// hops — is exactly equal to that fresh computation (pinned by
    /// proptest). Dead or disconnected pairs have infinite delay; a dead
    /// node still has `delay(v, v) == 0`.
    ///
    /// # Panics
    ///
    /// Panics if a mask or delay slice is shorter than the topology's node
    /// or link count, or if a usable link's delay is negative or NaN.
    pub fn compute_masked(
        topo: &Topology,
        node_up: &[bool],
        link_up: &[bool],
        delays: &[f64],
    ) -> Self {
        check_lengths(topo.num_nodes(), topo.num_links(), node_up, link_up, delays);
        Self::with_weights(topo, |l, link| {
            masked_weight((l, &(link.a, link.b)), node_up, link_up, delays)
        })
    }

    /// The table of `topo` under the per-link `weight`, every row searched;
    /// the only place the table's buffers are allocated.
    fn with_weights(topo: &Topology, weight: impl Fn(usize, &Link) -> f64) -> Self {
        let (n, m) = (topo.num_nodes(), topo.num_links());
        assert!(n < NONE as usize, "node ids fit in 32 bits");
        let mut starts = Vec::with_capacity(n + 1);
        let mut arcs = Vec::with_capacity(2 * m);
        for v in topo.node_ids() {
            starts.push(arcs.len());
            arcs.extend_from_slice(topo.neighbors(v));
        }
        starts.push(arcs.len());
        let links = topo.links();
        let mut sp = ShortestPaths {
            graph: Graph {
                starts,
                arcs,
                ends: links.iter().map(|l| (l.a, l.b)).collect(),
                weight: links
                    .iter()
                    .enumerate()
                    .map(|(l, link)| weight(l, link))
                    .collect(),
            },
            entries: vec![UNREACHED; n * n],
            scratch: Scratch::new(n, m),
        };
        sp.search_all();
        sp
    }

    /// The number of nodes.
    fn n(&self) -> usize {
        self.graph.starts.len() - 1
    }

    /// Runs a full Dijkstra from every source.
    fn search_all(&mut self) {
        let n = self.n();
        let ShortestPaths {
            graph,
            entries,
            scratch,
        } = self;
        for s in 0..n {
            graph.search(&mut Row::new(s, n, entries), &mut scratch.heap);
        }
    }

    /// Switches the table to a new masked view of its topology — the
    /// arguments mean what they mean to [`ShortestPaths::compute_masked`]
    /// — and repairs every row in place to what `compute_masked` would
    /// return.
    ///
    /// Links whose effective weight changed are applied one at a time, in
    /// link order, each repair exact for the weights at that step; a
    /// finished row depends only on the final weights. A row in which a
    /// risen link is no parent link, or to which a fallen link offers
    /// nothing better, costs one check. If any weight before or after is
    /// too small to order the search (see the module docs), every row is
    /// recomputed instead. Nothing allocates.
    ///
    /// # Panics
    ///
    /// Panics if a mask or delay slice is shorter than the topology's node
    /// or link count, or if a usable link's delay is negative or NaN.
    pub fn remask(&mut self, node_up: &[bool], link_up: &[bool], delays: &[f64]) {
        let (n, m) = (self.n(), self.graph.weight.len());
        check_lengths(n, m, node_up, link_up, delays);
        let ShortestPaths {
            graph,
            entries,
            scratch,
        } = self;
        let changed = &mut scratch.changed;
        changed.clear();
        for (l, ends) in graph.ends.iter().enumerate() {
            let new = masked_weight((l, ends), node_up, link_up, delays);
            if new.to_bits() != graph.weight[l].to_bits() {
                changed.push((LinkId(l), new));
            }
        }
        if changed.is_empty() {
            return;
        }
        // Every distance the repairs meet is a float sum along a simple
        // path of links at their old or new weight: within twice the sum
        // of those weights, whatever the rounding.
        let (mut bound, mut least) = (0.0, f64::INFINITY);
        for w in graph.weight.iter().chain(changed.iter().map(|(_, w)| w)) {
            if w.is_finite() {
                bound += w;
                least = least.min(*w);
            }
        }
        if !order_safe(2.0 * bound, least) {
            for &(l, new) in changed.iter() {
                graph.weight[l.0] = new;
            }
            self.search_all();
            #[cfg(test)]
            {
                self.scratch.counts.restarts += n;
            }
            return;
        }
        for i in 0..scratch.changed.len() {
            let (l, new) = scratch.changed[i];
            let rise = new > graph.weight[l.0];
            graph.weight[l.0] = new;
            let (a, b) = graph.ends[l.0];
            for s in 0..n {
                // A rise only matters where `l` leads to one endpoint.
                let child = if !rise {
                    None
                } else if entries[a.0 * n + s].parent == id(b) {
                    Some(a)
                } else if entries[b.0 * n + s].parent == id(a) {
                    Some(b)
                } else {
                    continue;
                };
                let mut row = Row::new(s, n, entries);
                match child {
                    Some(child) => graph.raise(&mut row, child, scratch),
                    None => graph.lower(&mut row, l, scratch),
                }
            }
        }
    }

    /// Shortest-path delay from `s` to `t` (0 for `s == t`,
    /// `f64::INFINITY` if unreachable).
    pub fn delay(&self, s: NodeId, t: NodeId) -> f64 {
        self.entries[t.0 * self.n() + s.0].dist
    }

    /// First hop on a shortest path from `s` to `t`.
    ///
    /// Returns `None` if `s == t` or `t` is unreachable.
    pub fn next_hop(&self, s: NodeId, t: NodeId) -> Option<NodeId> {
        node(self.entries[t.0 * self.n() + s.0].next_hop)
    }

    /// The full node sequence of a shortest path from `s` to `t`, excluding
    /// `s` itself. Returns `None` if `t` is unreachable; `Some(vec![])` if
    /// `s == t`.
    pub fn path(&self, s: NodeId, t: NodeId) -> Option<Vec<NodeId>> {
        if s == t {
            return Some(Vec::new());
        }
        if !self.delay(s, t).is_finite() {
            return None;
        }
        let mut path = Vec::new();
        let mut cur = s;
        while cur != t {
            let hop = self.next_hop(cur, t)?;
            path.push(hop);
            cur = hop;
            if path.len() > self.n() {
                // Defensive: should be impossible on a consistent table.
                return None;
            }
        }
        Some(path)
    }

    /// The network diameter `D_G` in terms of path delay: the maximum finite
    /// shortest-path delay over all node pairs. Used to normalize the
    /// per-hop shaping penalty (Sec. IV-B3).
    pub fn diameter(&self) -> f64 {
        let finite_max = |max: f64, e: &Entry| {
            if e.dist.is_finite() {
                max.max(e.dist)
            } else {
                max
            }
        };
        self.entries.iter().fold(0.0, finite_max)
    }
}

impl Row<'_> {
    /// The first hop towards `z` on a path through its neighbour `y`.
    fn hop(&self, y: NodeId, z: NodeId) -> u32 {
        if y == self.s {
            id(z)
        } else {
            self[y].next_hop
        }
    }

    /// The first hop towards `z` through its parent, if it has one.
    fn parent_hop(&self, z: NodeId) -> u32 {
        node(self[z].parent).map_or(NONE, |p| self.hop(p, z))
    }

    /// Whether `y`'s `offer` ties `z`'s distance from a smaller key than
    /// `z`'s parent: the tie a fresh search hands to `y`.
    fn wins_tie(&self, offer: f64, y: NodeId, z: NodeId) -> bool {
        offer == self[z].dist
            && node(self[z].parent).is_some_and(|p| key(self[y].dist, y) < key(self[p].dist, p))
    }

    /// `y` offers `z` its path over a link of weight `w`, and `z` adopts it
    /// if it is shorter or ties from a smaller key than `z`'s parent.
    /// Returns whether it was adopted, and if so whether it was shorter.
    fn adopt(&mut self, y: NodeId, z: NodeId, w: f64) -> Option<bool> {
        let offer = self[y].dist + w;
        let shorter = offer < self[z].dist;
        if !shorter && !self.wins_tie(offer, y, z) {
            return None;
        }
        self[z].dist = offer;
        self[z].parent = id(y);
        Some(shorter)
    }

    /// Gives the first hop of `root` to every descendant that a rise has
    /// not moved, stopping at those it has: the path to each passes
    /// through `root`.
    fn hand_down(&mut self, g: &Graph, root: NodeId, stack: &mut Vec<NodeId>, state: &[u8]) {
        let hop = self[root].next_hop;
        stack.clear();
        stack.push(root);
        while let Some(x) = stack.pop() {
            for &(y, _) in g.arcs(x) {
                if self[y].parent == id(x) && state[y.0] == UNMOVED {
                    self[y].next_hop = hop;
                    stack.push(y);
                }
            }
        }
    }
}

impl Graph {
    fn arcs(&self, v: NodeId) -> &[(NodeId, LinkId)] {
        &self.arcs[self.starts[v.0]..self.starts[v.0 + 1]]
    }

    /// A full Dijkstra from the row's source.
    fn search(&self, row: &mut Row, heap: &mut BinaryHeap<Reverse<u128>>) {
        let s = row.s;
        for t in 0..self.starts.len() - 1 {
            row[NodeId(t)] = UNREACHED;
        }
        row[s].dist = 0.0;
        heap.push(Reverse(key(0.0, s)));
        while let Some(Reverse(kv)) = heap.pop() {
            let (d, v) = unkey(kv);
            if d > row[v].dist {
                continue; // stale entry
            }
            for &(w, l) in self.arcs(v) {
                let nd = d + self.weight[l.0];
                if nd < row[w].dist {
                    row[w].dist = nd;
                    row[w].next_hop = row.hop(v, w);
                    row[w].parent = id(v);
                    debug_assert!(heap.len() < heap.capacity(), "sized at construction");
                    heap.push(Reverse(key(nd, w)));
                }
            }
        }
    }

    /// Repairs `row` after the weight of the link from `child`'s parent to
    /// `child` rose, possibly to ∞.
    ///
    /// Only the subtree below `child` can change, and in it only a node
    /// whose parent lost its distance can lose its own: any other keeps its
    /// parent's unchanged offer. So the repair walks down from `child`
    /// through losers alone, in key order. A node keeps its distance
    /// ([`KEPT`]) if a neighbour that did not lose its own offers exactly
    /// that, and takes the least-key such neighbour as its parent; such a
    /// neighbour is nearer the source, so already decided. Otherwise it is
    /// [`LOST`], and the losers are re-derived by a Dijkstra confined to
    /// them, seeded from their other neighbours.
    fn raise(&self, row: &mut Row, child: NodeId, scratch: &mut Scratch) {
        let Scratch {
            heap,
            moved,
            state,
            stack,
            ..
        } = scratch;
        moved.clear();
        let mut next = Some(child);
        while let Some(x) = next {
            #[cfg(test)]
            {
                scratch.counts.visits += 1;
            }
            moved.push(x);
            let (d, mut least) = (row[x].dist, u128::MAX);
            for &(y, k) in self.arcs(x) {
                let dy = row[y].dist;
                if dy + self.weight[k.0] == d && state[y.0] != LOST {
                    least = least.min(key(dy, y));
                }
            }
            if least != u128::MAX {
                state[x.0] = KEPT;
                row[x].parent = id(unkey(least).1);
            } else {
                state[x.0] = LOST;
                for &(y, _) in self.arcs(x) {
                    if row[y].parent == id(x) {
                        heap.push(Reverse(key(row[y].dist, y)));
                    }
                }
            }
            next = heap.pop().map(|Reverse(ky)| unkey(ky).1);
        }
        let lost = |state: &[u8], x: &&NodeId| state[x.0] == LOST;
        for &x in moved.iter().filter(|x| lost(state, x)) {
            row[x].dist = f64::INFINITY;
            row[x].parent = NONE;
        }
        for &x in moved.iter().filter(|x| lost(state, x)) {
            for &(y, k) in self.arcs(x) {
                if state[y.0] != LOST {
                    row.adopt(y, x, self.weight[k.0]);
                }
            }
            if row[x].dist.is_finite() {
                heap.push(Reverse(key(row[x].dist, x)));
            }
        }
        // A loser popped is final. Its offers can shorten other losers,
        // and, rounding being what it is, tie a keeper's distance.
        while let Some(Reverse(kx)) = heap.pop() {
            let (d, x) = unkey(kx);
            if d > row[x].dist {
                continue; // stale entry
            }
            for &(z, k) in self.arcs(x) {
                if state[z.0] != UNMOVED && row.adopt(x, z, self.weight[k.0]) == Some(true) {
                    debug_assert!(heap.len() < heap.capacity(), "sized at construction");
                    heap.push(Reverse(key(row[z].dist, z)));
                }
            }
        }
        // First hops, parents before children. The nodes below a moved
        // node that did not move themselves reach the source through it,
        // and still hold its old first hop.
        moved.sort_unstable_by_key(|&x| key(row[x].dist, x));
        for &x in moved.iter() {
            let hop = row.parent_hop(x);
            if row[x].next_hop != hop {
                row[x].next_hop = hop;
                row.hand_down(self, x, stack, state);
            }
        }
        for &x in moved.iter() {
            state[x.0] = UNMOVED;
        }
    }

    /// Repairs `row` after link `l`'s weight fell, possibly from ∞.
    fn lower(&self, row: &mut Row, l: LinkId, scratch: &mut Scratch) {
        let (a, b) = self.ends[l.0];
        self.offer(row, a, b, l, scratch);
        self.offer(row, b, a, l, scratch);
        // Nodes whose distance fell pass their offers on in key order.
        while let Some(Reverse(kx)) = scratch.heap.pop() {
            let (d, x) = unkey(kx);
            if d > row[x].dist {
                continue; // stale entry
            }
            #[cfg(test)]
            {
                scratch.counts.visits += 1;
            }
            for &(z, k) in self.arcs(x) {
                self.offer(row, x, z, k, scratch);
            }
        }
    }

    /// [`Row::adopt`] during a fall, which also passes first hops on. A
    /// `z` whose distance fell is queued to pass its offers on. One that
    /// only took a new parent, or whose parent's first hop changed, offers
    /// nothing new: it hands its new first hop down to its subtree at once.
    fn offer(&self, row: &mut Row, y: NodeId, z: NodeId, k: LinkId, scratch: &mut Scratch) {
        let shorter = match row.adopt(y, z, self.weight[k.0]) {
            Some(shorter) => shorter,
            // A parent's offer comes from a node whose distance did not
            // rise, over a link whose weight did not rise: it still ties.
            None if row[z].parent == id(y) => false,
            None => return,
        };
        let hop = row.hop(y, z);
        if shorter {
            row[z].next_hop = hop;
            let heap = &mut scratch.heap;
            debug_assert!(heap.len() < heap.capacity(), "sized at construction");
            heap.push(Reverse(key(row[z].dist, z)));
        } else if row[z].next_hop != hop {
            row[z].next_hop = hop;
            row.hand_down(self, z, &mut scratch.stack, &scratch.state);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::TopologyBuilder;

    /// 0 -1- 1 -1- 2
    ///  \----5----/
    fn detour() -> Topology {
        let mut b = TopologyBuilder::new("detour");
        let v0 = b.add_node("a", 1.0);
        let v1 = b.add_node("b", 1.0);
        let v2 = b.add_node("c", 1.0);
        b.add_link(v0, v1, 1.0, 1.0).unwrap();
        b.add_link(v1, v2, 1.0, 1.0).unwrap();
        b.add_link(v0, v2, 5.0, 1.0).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn picks_cheaper_two_hop_path() {
        let t = detour();
        let sp = ShortestPaths::compute(&t);
        assert_eq!(sp.delay(NodeId(0), NodeId(2)), 2.0);
        assert_eq!(sp.next_hop(NodeId(0), NodeId(2)), Some(NodeId(1)));
        assert_eq!(
            sp.path(NodeId(0), NodeId(2)),
            Some(vec![NodeId(1), NodeId(2)])
        );
    }

    #[test]
    fn self_delay_zero_no_hop() {
        let t = detour();
        let sp = ShortestPaths::compute(&t);
        assert_eq!(sp.delay(NodeId(1), NodeId(1)), 0.0);
        assert_eq!(sp.next_hop(NodeId(1), NodeId(1)), None);
        assert_eq!(sp.path(NodeId(1), NodeId(1)), Some(vec![]));
    }

    #[test]
    fn symmetric_delays_on_undirected_graph() {
        let t = detour();
        let sp = ShortestPaths::compute(&t);
        for a in t.node_ids() {
            for b in t.node_ids() {
                assert_eq!(sp.delay(a, b), sp.delay(b, a));
            }
        }
    }

    #[test]
    fn unreachable_is_infinite() {
        let mut b = TopologyBuilder::new("split");
        let v0 = b.add_node("a", 1.0);
        b.add_node("b", 1.0);
        let t = b.build().unwrap();
        let sp = ShortestPaths::compute(&t);
        assert!(!sp.delay(v0, NodeId(1)).is_finite());
        assert_eq!(sp.path(v0, NodeId(1)), None);
    }

    #[test]
    fn diameter_of_detour() {
        let t = detour();
        let sp = ShortestPaths::compute(&t);
        assert_eq!(sp.diameter(), 2.0);
    }

    #[test]
    fn masked_with_everything_up_equals_fresh_compute() {
        let t = crate::zoo::abilene();
        let delays: Vec<f64> = t.link_ids().map(|l| t.link(l).delay).collect();
        let fresh = ShortestPaths::compute(&t);
        let masked = ShortestPaths::compute_masked(
            &t,
            &vec![true; t.num_nodes()],
            &vec![true; t.num_links()],
            &delays,
        );
        assert_eq!(fresh, masked);
    }

    #[test]
    fn masked_dead_link_forces_detour() {
        let t = detour();
        let delays: Vec<f64> = t.link_ids().map(|l| t.link(l).delay).collect();
        let mut link_up = vec![true; t.num_links()];
        // Kill 0-1: the only 0→2 route left is the direct delay-5 link.
        link_up[t.link_between(NodeId(0), NodeId(1)).unwrap().0] = false;
        let sp = ShortestPaths::compute_masked(&t, &[true; 3], &link_up, &delays);
        assert_eq!(sp.delay(NodeId(0), NodeId(2)), 5.0);
        assert_eq!(sp.next_hop(NodeId(0), NodeId(2)), Some(NodeId(2)));
        // 0→1 now detours the long way around: 0→2→1 = 5 + 1.
        assert_eq!(sp.delay(NodeId(0), NodeId(1)), 6.0);
        assert_eq!(sp.next_hop(NodeId(0), NodeId(1)), Some(NodeId(2)));
    }

    #[test]
    fn masked_dead_node_isolates_it_but_keeps_self_delay() {
        let t = detour();
        let delays: Vec<f64> = t.link_ids().map(|l| t.link(l).delay).collect();
        let sp = ShortestPaths::compute_masked(&t, &[true, false, true], &[true; 3], &delays);
        assert!(!sp.delay(NodeId(0), NodeId(1)).is_finite());
        assert_eq!(sp.delay(NodeId(1), NodeId(1)), 0.0);
        // 0→2 survives via the direct link, not through the dead node.
        assert_eq!(sp.delay(NodeId(0), NodeId(2)), 5.0);
    }

    #[test]
    fn masked_delay_override_reroutes() {
        let t = detour();
        // Spike the 0-1 link delay so the direct 0-2 link wins.
        let mut delays: Vec<f64> = t.link_ids().map(|l| t.link(l).delay).collect();
        delays[t.link_between(NodeId(0), NodeId(1)).unwrap().0] = 100.0;
        let sp = ShortestPaths::compute_masked(&t, &[true; 3], &[true; 3], &delays);
        assert_eq!(sp.delay(NodeId(0), NodeId(2)), 5.0);
        assert_eq!(sp.next_hop(NodeId(0), NodeId(2)), Some(NodeId(2)));
    }

    /// Abilene and its everything-up masks at the nominal delays.
    fn abilene_masks() -> (Topology, Vec<bool>, Vec<bool>, Vec<f64>) {
        let t = crate::zoo::abilene();
        let delays = t.link_ids().map(|l| t.link(l).delay).collect();
        let (n, m) = (t.num_nodes(), t.num_links());
        (t, vec![true; n], vec![true; m], delays)
    }

    /// The buffers a re-mask works in, whose capacities must not move.
    fn capacities(sp: &ShortestPaths) -> [usize; 5] {
        let s = &sp.scratch;
        [
            sp.entries.capacity(),
            s.heap.capacity(),
            s.moved.capacity(),
            s.stack.capacity(),
            s.changed.capacity(),
        ]
    }

    /// Every delay (to the bit) and next hop equals a fresh
    /// `compute_masked` of the masks.
    fn assert_exact(
        sp: &ShortestPaths,
        t: &Topology,
        node_up: &[bool],
        link_up: &[bool],
        d: &[f64],
    ) {
        let eager = ShortestPaths::compute_masked(t, node_up, link_up, d);
        for s in t.node_ids() {
            for v in t.node_ids() {
                assert_eq!(
                    sp.delay(s, v).to_bits(),
                    eager.delay(s, v).to_bits(),
                    "delay({s}, {v})"
                );
                assert_eq!(
                    sp.next_hop(s, v),
                    eager.next_hop(s, v),
                    "next_hop({s}, {v})"
                );
            }
        }
        assert_eq!(sp.entries, eager.entries, "parents too");
    }

    #[test]
    fn a_remask_repairs_rows_in_place_without_a_restart() {
        let (t, node_up, mut link_up, delays) = abilene_masks();
        let mut sp = ShortestPaths::compute(&t);
        let caps = capacities(&sp);

        // A link going down re-derives the subtrees below it; coming back
        // up, it lowers their distances again.
        link_up[3] = false;
        sp.remask(&node_up, &link_up, &delays);
        assert_exact(&sp, &t, &node_up, &link_up, &delays);
        let down = sp.scratch.counts;
        assert_eq!(down.restarts, 0);
        assert!(down.visits > 0, "some row's tree used link 3");
        link_up[3] = true;
        sp.remask(&node_up, &link_up, &delays);
        assert_eq!(sp, ShortestPaths::compute(&t));
        assert_eq!(sp.entries, ShortestPaths::compute(&t).entries);
        assert_eq!(sp.scratch.counts.restarts, 0);
        assert!(sp.scratch.counts.visits > down.visits);

        // A node failing takes each of its links down in turn.
        let mut node_up = node_up;
        node_up[4] = false;
        sp.remask(&node_up, &link_up, &delays);
        assert_exact(&sp, &t, &node_up, &link_up, &delays);
        assert_eq!(sp.scratch.counts.restarts, 0);
        assert_eq!(capacities(&sp), caps, "a repair allocates nothing");
    }

    #[test]
    fn a_dead_node_is_unreachable_and_a_dead_source_reaches_only_itself() {
        let (t, mut node_up, link_up, delays) = abilene_masks();
        let mut sp = ShortestPaths::compute(&t);
        node_up[5] = false;
        sp.remask(&node_up, &link_up, &delays);

        assert!(!sp.delay(NodeId(0), NodeId(5)).is_finite());
        assert_eq!(sp.next_hop(NodeId(0), NodeId(5)), None);
        assert_eq!(sp.delay(NodeId(5), NodeId(5)), 0.0);
        for v in t.node_ids().filter(|&v| v != NodeId(5)) {
            assert!(!sp.delay(NodeId(5), v).is_finite());
            assert_eq!(sp.next_hop(NodeId(5), v), None);
        }
        assert_exact(&sp, &t, &node_up, &link_up, &delays);
    }

    #[test]
    fn noop_remask_repairs_nothing_and_a_changed_weight_repairs_only_its_rows() {
        let (t, mut node_up, mut link_up, mut delays) = abilene_masks();
        let n = t.num_nodes();
        let mut sp = ShortestPaths::compute(&t);
        node_up[2] = false;
        sp.remask(&node_up, &link_up, &delays);
        let (table, counts) = (sp.clone(), sp.scratch.counts);

        // Identical arguments, and a link going down under a dead endpoint.
        sp.remask(&node_up, &link_up, &delays);
        link_up[t.neighbors(NodeId(2))[0].1 .0] = false;
        sp.remask(&node_up, &link_up, &delays);
        assert_eq!(sp.scratch.counts, counts, "no weight changed");
        assert_eq!(sp, table);

        // One live link's delay rises: only the rows in which it is the
        // parent link of one of its endpoints move.
        let (a, b) = (NodeId(0), t.neighbors(NodeId(0))[0].0);
        let live = t.link_between(a, b).unwrap();
        let parents = |sp: &ShortestPaths, s: usize| {
            sp.entries[a.0 * n + s].parent == b.0 as u32
                || sp.entries[b.0 * n + s].parent == a.0 as u32
        };
        let repaired: Vec<usize> = (0..n).filter(|&s| parents(&sp, s)).collect();
        assert!(!repaired.is_empty() && repaired.len() < n, "{repaired:?}");
        let before = sp.clone();
        delays[live.0] *= 2.0;
        sp.remask(&node_up, &link_up, &delays);
        assert_exact(&sp, &t, &node_up, &link_up, &delays);
        assert_eq!(sp.scratch.counts.restarts, 0);
        for s in (0..n).filter(|s| !repaired.contains(s)) {
            for i in (s..n * n).step_by(n) {
                assert_eq!(sp.entries[i], before.entries[i], "row {s}");
            }
        }
    }

    #[test]
    fn back_to_back_remasks_repair_each_step() {
        let (t, mut node_up, mut link_up, delays) = abilene_masks();
        let mut sp = ShortestPaths::compute(&t);
        link_up[0] = false;
        sp.remask(&node_up, &link_up, &delays);
        node_up[5] = false;
        sp.remask(&node_up, &link_up, &delays);
        assert_eq!(sp.scratch.counts.restarts, 0);
        assert!(!sp.delay(NodeId(0), NodeId(5)).is_finite());
        assert_exact(&sp, &t, &node_up, &link_up, &delays);
    }

    #[test]
    fn ties_on_a_unit_grid_go_to_the_least_key_parent() {
        // Every shortest path on a unit grid ties with others; a spike to
        // exactly two ties a link with each two-hop detour around it.
        let t = crate::generators::grid(4, 4, 1.0, 1.0);
        let (n, m) = (t.num_nodes(), t.num_links());
        let (mut node_up, mut link_up) = (vec![true; n], vec![true; m]);
        let mut delays = vec![1.0; m];
        let mut sp = ShortestPaths::compute(&t);
        // Toggle a link or a node, or set a link's delay.
        enum Step {
            Link(usize),
            Node(usize),
            Delay(usize, f64),
        }
        use Step::{Delay, Link, Node};
        let steps = [
            Link(5),
            Delay(6, 2.0),
            Link(5),
            Link(9),
            Delay(6, 1.0),
            Node(5),
            Delay(10, 2.0),
            Link(9),
            Node(5),
            Delay(10, 1.0),
            Node(0),
            Node(0),
        ];
        for step in steps {
            match step {
                Link(l) => link_up[l] = !link_up[l],
                Node(v) => node_up[v] = !node_up[v],
                Delay(l, d) => delays[l] = d,
            }
            sp.remask(&node_up, &link_up, &delays);
            assert_exact(&sp, &t, &node_up, &link_up, &delays);
        }
        assert_eq!(sp.scratch.counts.restarts, 0);
    }

    #[test]
    fn an_order_unsafe_table_recomputes_every_row() {
        let (t, node_up, link_up, nominal) = abilene_masks();
        let n = t.num_nodes();
        let mut sp = ShortestPaths::compute(&t);
        let caps = capacities(&sp);
        // A zero delay adds nothing to the distance it offers, and a tiny
        // one rounds away: key order is no longer pop order.
        for (factor, restarts) in [(0.0, n), (1e-300, 2 * n)] {
            let mut delays = nominal.clone();
            delays[6] *= factor;
            sp.remask(&node_up, &link_up, &delays);
            assert_eq!(sp.scratch.counts.restarts, restarts, "factor {factor}");
            assert_exact(&sp, &t, &node_up, &link_up, &delays);
        }
        // Leaving the unsafe weights recomputes once more; after that the
        // table repairs again.
        sp.remask(&node_up, &link_up, &nominal);
        assert_eq!(sp.scratch.counts.restarts, 3 * n);
        assert_eq!(sp, ShortestPaths::compute(&t));
        let mut link_up = link_up;
        link_up[4] = false;
        sp.remask(&node_up, &link_up, &nominal);
        assert_eq!(sp.scratch.counts.restarts, 3 * n);
        assert_exact(&sp, &t, &node_up, &link_up, &nominal);
        assert_eq!(capacities(&sp), caps, "recomputing allocates nothing");
    }

    #[test]
    fn equality_diameter_and_clone_of_a_repaired_table_match_eager() {
        let (t, node_up, mut link_up, mut delays) = abilene_masks();
        link_up[2] = false;
        delays[6] *= 3.0;
        let eager = ShortestPaths::compute_masked(&t, &node_up, &link_up, &delays);
        let mut sp = ShortestPaths::compute(&t);
        sp.remask(&node_up, &link_up, &delays);
        assert_eq!(sp.diameter(), eager.diameter());
        assert_eq!(sp, eager);

        // A clone repairs on its own, with buffers of its own.
        let mut clone = sp.clone();
        assert_eq!(capacities(&clone), capacities(&sp));
        let (_, node_up, link_up, delays) = abilene_masks();
        clone.remask(&node_up, &link_up, &delays);
        assert_eq!(clone, ShortestPaths::compute(&t));
        assert_ne!(clone, eager);
        assert_eq!(sp, eager, "the original is untouched");
    }

    #[test]
    #[should_panic(expected = "usable link delays are non-negative")]
    fn remask_rejects_a_negative_usable_delay() {
        let (t, node_up, link_up, mut delays) = abilene_masks();
        delays[3] = -1.0;
        ShortestPaths::compute(&t).remask(&node_up, &link_up, &delays);
    }

    #[test]
    #[should_panic(expected = "usable link delays are non-negative")]
    fn compute_masked_rejects_a_nan_usable_delay() {
        let (t, node_up, link_up, mut delays) = abilene_masks();
        delays[0] = f64::NAN;
        ShortestPaths::compute_masked(&t, &node_up, &link_up, &delays);
    }

    #[test]
    fn a_down_links_delay_is_never_checked() {
        let (t, node_up, mut link_up, mut delays) = abilene_masks();
        (link_up[3], delays[3]) = (false, f64::NAN);
        let sp = ShortestPaths::compute_masked(&t, &node_up, &link_up, &delays);
        assert!(sp.diameter().is_finite());
    }

    #[test]
    fn table_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ShortestPaths>();
    }

    #[test]
    fn triangle_inequality_holds_on_zoo_graph() {
        let t = crate::zoo::abilene();
        let sp = ShortestPaths::compute(&t);
        for a in t.node_ids() {
            for b in t.node_ids() {
                for c in t.node_ids() {
                    assert!(
                        sp.delay(a, c) <= sp.delay(a, b) + sp.delay(b, c) + 1e-9,
                        "triangle inequality violated for {a} {b} {c}"
                    );
                }
            }
        }
    }
}

//! All-pairs shortest path delays and next-hop tables.
//!
//! The paper assumes a fixed topology and link delays, so shortest-path
//! delays `d_{v,v',v_eg}` (from `v` via neighbor `v'` to the egress) can be
//! precomputed and looked up in constant time at runtime (Sec. IV-B1d).
//!
//! Under substrate churn the table is kept per source, and a source's row
//! is a *resumable* Dijkstra: a fault [re-masks](ShortestPaths::remask)
//! the link weights and marks unstarted the rows that have settled an
//! endpoint of a changed link, and a read of `(s, t)` afterwards runs
//! `s`'s search only until `t` is final, leaving the heap in place for the
//! next, farther target. Rows that nobody reads between two faults are
//! never started, a row whose reads all fall near its source never
//! finishes, a row the fault did not reach keeps its search, and no row
//! allocates after construction.
//!
//! What makes a partial row exact is its `radius`, the distance of the
//! last node it settled. Link weights are non-negative and a relaxation
//! only accepts a strictly smaller distance, so every later relaxation
//! offers `radius` or more: a node whose tentative distance is already
//! `<= radius` keeps that distance *and* its first hop for the rest of the
//! search. A read answers from any row with `dist[t] <= radius` — always
//! true once the heap has run dry (`radius` = `∞`), so on a finished table
//! a read is an indexed load behind one compare.

use crate::graph::{LinkId, NodeId, Topology};
use std::cell::{Ref, RefCell};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// All-pairs shortest-path delays (by link propagation delay) and next-hop
/// tables for a [`Topology`], one resumable row per source node.
///
/// [`ShortestPaths::compute`] and [`ShortestPaths::compute_masked`] settle
/// every row up front; after a [`ShortestPaths::remask`] a row is settled
/// as far as its reads need. Either way a read returns exactly what an
/// eager all-pairs run over the same weights produces. Two tables are
/// equal when all their delays and next hops are, whatever graph they came
/// from and however far their rows had got.
///
/// Reads take `&self` and advance rows behind a [`RefCell`], so the table
/// is [`Send`] but not [`Sync`]. A read of a settled target is a shared
/// borrow, an indexed load and one compare; the exclusive borrow and the
/// search sit behind a cold call, so a table nobody re-masks never takes
/// them.
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
    /// CSR adjacency: `arcs[starts[v]..starts[v + 1]]` are the neighbors of
    /// `v` with their links, in [`Topology::neighbors`] order.
    starts: Vec<usize>,
    arcs: Vec<(NodeId, LinkId)>,
    /// Effective delay per link, never negative: `∞` while the link or
    /// either endpoint is down, which no relaxation can ever accept.
    weight: Vec<f64>,
    rows: Vec<RefCell<Row>>,
    /// `remask`'s scratch: both endpoints of every link whose weight it
    /// changed, sized at construction for every link to change once.
    touched: Vec<NodeId>,
}

/// The Dijkstra search from one source, paused after any settled node.
#[derive(Debug)]
struct Row {
    /// `dist[t]` = shortest path delay to `t` (∞ if unreachable), final
    /// wherever it is `<= radius`.
    dist: Vec<f64>,
    /// `next_hop[t]` = first hop on a shortest path to `t`, final wherever
    /// `dist[t]` is.
    next_hop: Vec<Option<NodeId>>,
    /// The frontier, sized at construction so no push reallocates.
    heap: BinaryHeap<HeapEntry>,
    /// Distance of the last settled node: [`UNSTARTED`] until the first
    /// read after a re-mask, `∞` once the heap has run dry.
    radius: f64,
}

impl Clone for Row {
    /// A derived clone would trim the heap's spare capacity, and the copy
    /// would allocate when its search resumes.
    fn clone(&self) -> Self {
        let mut heap = self.heap.clone();
        heap.reserve_exact(self.heap.capacity() - heap.len());
        Row {
            dist: self.dist.clone(),
            next_hop: self.next_hop.clone(),
            heap,
            radius: self.radius,
        }
    }
}

/// The `radius` of a row whose buffers still hold the previous mask's
/// search; below every distance, so no read answers from it.
const UNSTARTED: f64 = f64::NEG_INFINITY;

impl PartialEq for ShortestPaths {
    fn eq(&self, other: &Self) -> bool {
        self.settle_all();
        other.settle_all();
        self.rows.len() == other.rows.len()
            && self.rows.iter().zip(&other.rows).all(|(a, b)| {
                let (a, b) = (a.borrow(), b.borrow());
                a.dist == b.dist && a.next_hop == b.next_hop
            })
    }
}

/// Max-heap entry ordered so the *smallest* distance pops first.
#[derive(Debug, Clone, PartialEq)]
struct HeapEntry {
    dist: f64,
    node: NodeId,
}

impl Eq for HeapEntry {}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse: BinaryHeap is a max-heap, we want min-dist first.
        // Distances are sums of the non-negative weights `remask` admits.
        other
            .dist
            .total_cmp(&self.dist)
            .then_with(|| other.node.cmp(&self.node))
    }
}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl ShortestPaths {
    /// Runs Dijkstra from every node and stores delays plus next hops.
    pub fn compute(topo: &Topology) -> Self {
        let sp = Self::unstarted(topo, topo.links().iter().map(|l| l.delay).collect());
        sp.settle_all();
        sp
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
        let mut sp = Self::unstarted(topo, vec![f64::INFINITY; topo.num_links()]);
        sp.remask(node_up, link_up, delays);
        sp.settle_all();
        sp
    }

    /// The table of `topo` under the per-link `weight`, no row started;
    /// the only place a row's buffers are allocated.
    fn unstarted(topo: &Topology, weight: Vec<f64>) -> Self {
        let n = topo.num_nodes();
        let mut starts = Vec::with_capacity(n + 1);
        let mut arcs = Vec::with_capacity(2 * topo.num_links());
        for v in topo.node_ids() {
            starts.push(arcs.len());
            arcs.extend_from_slice(topo.neighbors(v));
        }
        starts.push(arcs.len());
        // One push for the source, then one per accepted relaxation. A
        // link is relaxed once from each end, and the later end offers
        // the earlier one no less than its final distance: at most one
        // push per link.
        let frontier = topo.num_links() + 1;
        let rows = (0..n)
            .map(|_| {
                RefCell::new(Row {
                    dist: vec![f64::INFINITY; n],
                    next_hop: vec![None; n],
                    heap: BinaryHeap::with_capacity(frontier),
                    radius: UNSTARTED,
                })
            })
            .collect();
        ShortestPaths {
            starts,
            arcs,
            weight,
            rows,
            touched: Vec::with_capacity(2 * topo.num_links()),
        }
    }

    /// Switches the table to a new masked view of its topology — the
    /// arguments mean what they mean to [`ShortestPaths::compute_masked`]
    /// — and marks unstarted every row that has settled an endpoint of a
    /// link whose effective weight changed. Nothing is recomputed here: a
    /// row restarts in place on the first [`ShortestPaths::delay`] or
    /// [`ShortestPaths::next_hop`] that reads it, and answers what
    /// `compute_masked` would have.
    ///
    /// A row reads a link's weight only when it settles one of the link's
    /// endpoints. A row that has settled neither endpoint of any changed
    /// link has therefore run exactly the pops and relaxations a fresh
    /// search under the new weights runs up to its `radius`, and keeps its
    /// `dist`, `next_hop`, heap and `radius`. `dist[v] <= radius` counts
    /// as settled, which also covers a node still queued at the radius,
    /// and every node of a finished row.
    ///
    /// # Panics
    ///
    /// Panics if a mask or delay slice is shorter than the topology's node
    /// or link count, or if a usable link's delay is negative or NaN:
    /// stopping a search at its target is only exact for non-negative
    /// weights.
    pub fn remask(&mut self, node_up: &[bool], link_up: &[bool], delays: &[f64]) {
        let (n, m) = (self.rows.len(), self.weight.len());
        assert!(node_up.len() >= n, "node mask covers every node");
        assert!(link_up.len() >= m, "link mask covers every link");
        assert!(delays.len() >= m, "delays cover every link");
        self.touched.clear();
        for v in 0..n {
            for &(w, l) in &self.arcs[self.starts[v]..self.starts[v + 1]] {
                let usable = link_up[l.0] && node_up[v] && node_up[w.0];
                let weight = if usable { delays[l.0] } else { f64::INFINITY };
                assert!(weight >= 0.0, "usable link delays are non-negative");
                if weight.to_bits() != self.weight[l.0].to_bits() {
                    self.weight[l.0] = weight;
                    self.touched.extend([NodeId(v), w]);
                }
            }
        }
        for row in &mut self.rows {
            let row = row.get_mut();
            if self.touched.iter().any(|v| row.dist[v.0] <= row.radius) {
                row.radius = UNSTARTED;
            }
        }
    }

    /// The row of source `s`, settled at least as far as `t`.
    #[inline]
    fn row(&self, s: NodeId, t: NodeId) -> Ref<'_, Row> {
        let row = self.rows[s.0].borrow();
        if row.dist[t.0] <= row.radius {
            return row;
        }
        drop(row);
        self.settle(s, Some(t));
        self.rows[s.0].borrow()
    }

    /// Resumes `s`'s Dijkstra — restarting it in place if a re-mask
    /// intervened — until `t` is final, or until the heap runs dry for
    /// `None`. However the stops fall, the pops, relaxations and float
    /// sums are those of one uninterrupted run.
    #[cold]
    fn settle(&self, s: NodeId, t: Option<NodeId>) {
        let mut row = self.rows[s.0].borrow_mut();
        let Row {
            dist,
            next_hop,
            heap,
            radius,
        } = &mut *row;
        if *radius == UNSTARTED {
            dist.fill(f64::INFINITY);
            next_hop.fill(None);
            heap.clear();
            dist[s.0] = 0.0;
            heap.push(HeapEntry { dist: 0.0, node: s });
        }
        while t.map_or(*radius < f64::INFINITY, |t| dist[t.0] > *radius) {
            let Some(HeapEntry { dist: d, node: v }) = heap.pop() else {
                *radius = f64::INFINITY;
                break;
            };
            if d > dist[v.0] {
                continue; // stale entry
            }
            *radius = d;
            for &(w, l) in &self.arcs[self.starts[v.0]..self.starts[v.0 + 1]] {
                let nd = d + self.weight[l.0];
                if nd < dist[w.0] {
                    dist[w.0] = nd;
                    // The first hop towards w is w itself out of s, else v's.
                    next_hop[w.0] = if v == s { Some(w) } else { next_hop[v.0] };
                    debug_assert!(heap.len() < heap.capacity(), "at most one push per link");
                    heap.push(HeapEntry { dist: nd, node: w });
                }
            }
        }
    }

    /// How many of `s`'s targets are final (0 for an unstarted row).
    #[cfg(test)]
    fn settled(&self, s: NodeId) -> usize {
        let row = self.rows[s.0].borrow();
        row.dist.iter().filter(|&&d| d <= row.radius).count()
    }

    /// Runs every row's search to exhaustion.
    fn settle_all(&self) {
        for s in 0..self.rows.len() {
            self.settle(NodeId(s), None);
        }
    }

    /// Shortest-path delay from `s` to `t` (0 for `s == t`,
    /// `f64::INFINITY` if unreachable).
    pub fn delay(&self, s: NodeId, t: NodeId) -> f64 {
        self.row(s, t).dist[t.0]
    }

    /// First hop on a shortest path from `s` to `t`.
    ///
    /// Returns `None` if `s == t` or `t` is unreachable.
    pub fn next_hop(&self, s: NodeId, t: NodeId) -> Option<NodeId> {
        self.row(s, t).next_hop[t.0]
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
            if path.len() > self.rows.len() {
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
        self.settle_all();
        let finite_max = |max: f64, &d: &f64| if d.is_finite() { max.max(d) } else { max };
        self.rows.iter().fold(0.0, |max, row| {
            row.borrow().dist.iter().fold(max, finite_max)
        })
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

    /// Settled nodes per source, and each row's buffer capacities.
    fn settled(sp: &ShortestPaths) -> Vec<usize> {
        (0..sp.rows.len()).map(|s| sp.settled(NodeId(s))).collect()
    }

    fn capacities(sp: &ShortestPaths) -> Vec<[usize; 3]> {
        let caps = |r: &RefCell<Row>| {
            let r = r.borrow();
            [r.dist.capacity(), r.next_hop.capacity(), r.heap.capacity()]
        };
        sp.rows.iter().map(caps).collect()
    }

    #[test]
    fn read_settles_to_its_target_and_a_farther_read_resumes() {
        let (t, node_up, mut link_up, delays) = abilene_masks();
        let n = t.num_nodes();
        let mut sp = ShortestPaths::compute(&t);
        assert_eq!(settled(&sp), vec![n; n], "compute is eager");
        let caps = capacities(&sp);
        link_up[3] = false;
        sp.remask(&node_up, &link_up, &delays);
        assert_eq!(settled(&sp), vec![0; n]);
        let eager = ShortestPaths::compute_masked(&t, &node_up, &link_up, &delays);
        let check = |s, t| {
            assert_eq!(sp.delay(s, t), eager.delay(s, t));
            assert_eq!(sp.next_hop(s, t), eager.next_hop(s, t));
        };

        // A neighbour is final long before the search has seen every node.
        let s = NodeId(4);
        let near = t.neighbors(s)[0].0;
        check(s, near);
        let partial = sp.settled(s);
        assert!((2..n).contains(&partial), "settled {partial} of {n}");
        check(s, near);
        assert_eq!(sp.settled(s), partial, "a settled target is a load");

        // The farthest target resumes the same search: the heap is not
        // restarted, the count only grows, and the near answer stands.
        let far = t
            .node_ids()
            .max_by(|&a, &b| eager.delay(s, a).total_cmp(&eager.delay(s, b)))
            .unwrap();
        check(s, far);
        assert!(sp.settled(s) > partial);
        check(s, near);
        for target in t.node_ids() {
            check(s, target);
        }
        assert_eq!(sp.settled(s), n);

        check(NodeId(7), NodeId(0));
        let started: Vec<usize> = (0..n).filter(|&s| sp.settled(NodeId(s)) > 0).collect();
        assert_eq!(started, vec![4, 7], "unread rows never start");
        assert_eq!(capacities(&sp), caps, "no row allocates after construction");
    }

    #[test]
    fn unreachable_target_or_dead_source_exhausts_the_row() {
        let (t, mut node_up, link_up, delays) = abilene_masks();
        let n = t.num_nodes();
        let mut sp = ShortestPaths::compute(&t);
        node_up[5] = false;
        sp.remask(&node_up, &link_up, &delays);

        // Only an exhausted heap proves a target unreachable.
        assert!(!sp.delay(NodeId(0), NodeId(5)).is_finite());
        assert_eq!(sp.next_hop(NodeId(0), NodeId(5)), None);
        assert_eq!(sp.rows[0].borrow().radius, f64::INFINITY);
        assert_eq!(sp.settled(NodeId(0)), n, "∞ is settled too");

        // A dead source reaches nothing but itself.
        assert_eq!(sp.delay(NodeId(5), NodeId(5)), 0.0);
        assert_eq!(sp.settled(NodeId(5)), 1);
        assert!(!sp.delay(NodeId(5), NodeId(0)).is_finite());
        assert_eq!(sp.rows[5].borrow().radius, f64::INFINITY);

        // Reads of finished rows are loads: no row state moves.
        let before: Vec<f64> = sp.rows.iter().map(|r| r.borrow().radius).collect();
        for s in [NodeId(0), NodeId(5)] {
            for target in t.node_ids() {
                sp.delay(s, target);
                sp.next_hop(s, target);
            }
        }
        let after: Vec<f64> = sp.rows.iter().map(|r| r.borrow().radius).collect();
        assert_eq!(before, after);
    }

    #[test]
    fn noop_remask_keeps_rows_and_a_changed_weight_resets_them() {
        let (t, mut node_up, mut link_up, mut delays) = abilene_masks();
        let n = t.num_nodes();
        let mut sp = ShortestPaths::compute(&t);
        node_up[2] = false;
        sp.remask(&node_up, &link_up, &delays);
        sp.delay(NodeId(4), t.neighbors(NodeId(4))[0].0);
        sp.delay(NodeId(7), NodeId(0));
        let counts = settled(&sp);
        assert!(counts[4] > 0 && counts[4] < n);

        // Identical arguments, and a link going down under a dead endpoint.
        sp.remask(&node_up, &link_up, &delays);
        assert_eq!(settled(&sp), counts);
        link_up[t.neighbors(NodeId(2))[0].1 .0] = false;
        sp.remask(&node_up, &link_up, &delays);
        assert_eq!(settled(&sp), counts);

        // One live link's delay moves: exactly the rows that had settled
        // one of its endpoints restart, and the others keep their counts.
        let (a, b) = (NodeId(0), t.neighbors(NodeId(0))[0].0);
        let live = t.link_between(a, b).unwrap();
        assert!(sp.weight[live.0].is_finite());
        let reached = |s: usize| {
            let row = sp.rows[s].borrow();
            row.dist[a.0] <= row.radius || row.dist[b.0] <= row.radius
        };
        let expected: Vec<usize> = (0..n)
            .map(|s| if reached(s) { 0 } else { counts[s] })
            .collect();
        assert_eq!(expected[7], 0, "row 7 settled node 0");
        assert!(expected[4] > 0, "row 4 never got past its first neighbour");
        delays[live.0] *= 2.0;
        sp.remask(&node_up, &link_up, &delays);
        assert_eq!(settled(&sp), expected);
        assert_eq!(
            sp,
            ShortestPaths::compute_masked(&t, &node_up, &link_up, &delays)
        );
    }

    #[test]
    fn back_to_back_remasks_compute_nothing() {
        let (t, mut node_up, mut link_up, delays) = abilene_masks();
        let mut sp = ShortestPaths::compute(&t);
        link_up[0] = false;
        sp.remask(&node_up, &link_up, &delays);
        node_up[5] = false;
        sp.remask(&node_up, &link_up, &delays);
        assert_eq!(settled(&sp), vec![0; t.num_nodes()]);
        // The first read sees the second re-mask, not the first.
        assert!(!sp.delay(NodeId(0), NodeId(5)).is_finite());
    }

    #[test]
    fn equality_diameter_and_clone_of_a_half_settled_table_match_eager() {
        let (t, node_up, mut link_up, mut delays) = abilene_masks();
        let n = t.num_nodes();
        link_up[2] = false;
        delays[6] *= 3.0;
        let eager = ShortestPaths::compute_masked(&t, &node_up, &link_up, &delays);
        let half_settled = || {
            let mut sp = ShortestPaths::compute(&t);
            sp.remask(&node_up, &link_up, &delays);
            sp.delay(NodeId(4), t.neighbors(NodeId(4))[0].0);
            sp.delay(NodeId(9), NodeId(9));
            assert!(settled(&sp).iter().sum::<usize>() < n);
            sp
        };

        let lazy = half_settled();
        assert_eq!(lazy.diameter(), eager.diameter());
        assert_eq!(settled(&lazy), vec![n; n], "diameter settles every row");

        let lazy = half_settled();
        assert_eq!(lazy, eager);
        assert_eq!(settled(&lazy), vec![n; n], "so does equality");

        // A clone carries the paused searches and resumes them on its own.
        let lazy = half_settled();
        let clone = lazy.clone();
        assert_eq!(settled(&clone), settled(&lazy));
        assert_eq!(capacities(&clone), capacities(&lazy));
        assert_eq!(clone, eager);
        assert!(
            settled(&lazy).iter().sum::<usize>() < n,
            "the original is untouched"
        );
        assert_eq!(lazy, eager);

        // Re-masking back to nominal is a fresh `compute`.
        let (_, node_up, link_up, delays) = abilene_masks();
        let mut lazy = lazy;
        lazy.remask(&node_up, &link_up, &delays);
        assert_eq!(lazy, ShortestPaths::compute(&t));
        assert_ne!(lazy, eager);
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
    fn table_is_send() {
        fn assert_send<T: Send>() {}
        assert_send::<ShortestPaths>();
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

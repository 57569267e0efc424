//! All-pairs shortest path delays and next-hop tables.
//!
//! The paper assumes a fixed topology and link delays, so shortest-path
//! delays `d_{v,v',v_eg}` (from `v` via neighbor `v'` to the egress) can be
//! precomputed and looked up in constant time at runtime (Sec. IV-B1d).
//!
//! Under substrate churn the table is kept per source: a fault
//! [re-masks](ShortestPaths::remask) the link weights and forgets every
//! row, and a row's Dijkstra runs on its first read afterwards. Rows that
//! nobody reads between two faults are never computed.

use crate::graph::{LinkId, NodeId, Topology};
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::sync::OnceLock;

/// All-pairs shortest-path delays (by link propagation delay) and next-hop
/// tables for a [`Topology`], one row per source node.
///
/// [`ShortestPaths::compute`] and [`ShortestPaths::compute_masked`] fill
/// every row up front; after a [`ShortestPaths::remask`] rows are filled
/// on first read. Either way a row holds exactly what an eager all-pairs
/// run over the same weights produces. Two tables are equal when all their
/// delays and next hops are, whatever graph they came from.
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
    /// Effective delay per link: `∞` while the link or either endpoint is
    /// down, which no relaxation can ever accept.
    weight: Vec<f64>,
    /// `rows[s]` is empty until the first read from source `s`.
    rows: Vec<OnceLock<Row>>,
}

/// Everything known about shortest paths from one source.
#[derive(Debug, Clone, PartialEq)]
struct Row {
    /// `dist[t]` = shortest path delay to `t` (∞ if unreachable).
    dist: Vec<f64>,
    /// `next_hop[t]` = first hop on a shortest path to `t`.
    next_hop: Vec<Option<NodeId>>,
}

impl PartialEq for ShortestPaths {
    fn eq(&self, other: &Self) -> bool {
        self.all_rows().eq(other.all_rows())
    }
}

/// Max-heap entry ordered so the *smallest* distance pops first.
#[derive(Debug, PartialEq)]
struct HeapEntry {
    dist: f64,
    node: NodeId,
}

impl Eq for HeapEntry {}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse: BinaryHeap is a max-heap, we want min-dist first.
        // Distances are finite non-NaN by construction.
        other
            .dist
            .partial_cmp(&self.dist)
            .unwrap_or(Ordering::Equal)
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
        let sp = Self::unread(topo, topo.links().iter().map(|l| l.delay).collect());
        sp.all_rows().for_each(drop);
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
    /// or link count.
    pub fn compute_masked(
        topo: &Topology,
        node_up: &[bool],
        link_up: &[bool],
        delays: &[f64],
    ) -> Self {
        let mut sp = Self::unread(topo, vec![f64::INFINITY; topo.num_links()]);
        sp.remask(node_up, link_up, delays);
        sp.all_rows().for_each(drop);
        sp
    }

    /// The table of `topo` under the per-link `weight`, no row filled yet.
    fn unread(topo: &Topology, weight: Vec<f64>) -> Self {
        let mut starts = Vec::with_capacity(topo.num_nodes() + 1);
        let mut arcs = Vec::with_capacity(2 * topo.num_links());
        for v in topo.node_ids() {
            starts.push(arcs.len());
            arcs.extend_from_slice(topo.neighbors(v));
        }
        starts.push(arcs.len());
        ShortestPaths {
            starts,
            arcs,
            weight,
            rows: vec![OnceLock::new(); topo.num_nodes()],
        }
    }

    /// Switches the table to a new masked view of its topology — the
    /// arguments mean what they mean to [`ShortestPaths::compute_masked`]
    /// — and forgets every row. Nothing is recomputed here: each row is
    /// rebuilt by the first [`ShortestPaths::delay`] or
    /// [`ShortestPaths::next_hop`] that reads it, and equals the row
    /// `compute_masked` would have produced.
    ///
    /// # Panics
    ///
    /// Panics if a mask or delay slice is shorter than the topology's node
    /// or link count.
    pub fn remask(&mut self, node_up: &[bool], link_up: &[bool], delays: &[f64]) {
        let (n, m) = (self.rows.len(), self.weight.len());
        assert!(node_up.len() >= n, "node mask covers every node");
        assert!(link_up.len() >= m, "link mask covers every link");
        assert!(delays.len() >= m, "delays cover every link");
        for v in 0..n {
            for &(w, l) in &self.arcs[self.starts[v]..self.starts[v + 1]] {
                let usable = link_up[l.0] && node_up[v] && node_up[w.0];
                self.weight[l.0] = if usable { delays[l.0] } else { f64::INFINITY };
            }
        }
        for row in &mut self.rows {
            row.take();
        }
    }

    /// The row of source `s`, running its Dijkstra if nobody read it since
    /// the last re-mask.
    fn row(&self, s: NodeId) -> &Row {
        self.rows[s.0].get_or_init(|| {
            let n = self.rows.len();
            let mut dist = vec![f64::INFINITY; n];
            // first[v] = first hop from s towards v (None for s itself).
            let mut first: Vec<Option<NodeId>> = vec![None; n];
            dist[s.0] = 0.0;
            let mut heap = BinaryHeap::new();
            heap.push(HeapEntry { dist: 0.0, node: s });
            while let Some(HeapEntry { dist: d, node: v }) = heap.pop() {
                if d > dist[v.0] {
                    continue; // stale entry
                }
                for &(w, l) in &self.arcs[self.starts[v.0]..self.starts[v.0 + 1]] {
                    let nd = d + self.weight[l.0];
                    if nd < dist[w.0] {
                        dist[w.0] = nd;
                        first[w.0] = if v == s { Some(w) } else { first[v.0] };
                        heap.push(HeapEntry { dist: nd, node: w });
                    }
                }
            }
            Row { dist, next_hop: first }
        })
    }

    /// Every row in source order, computing the ones not read yet.
    fn all_rows(&self) -> impl Iterator<Item = &Row> {
        (0..self.rows.len()).map(|s| self.row(NodeId(s)))
    }

    /// Shortest-path delay from `s` to `t` (0 for `s == t`,
    /// `f64::INFINITY` if unreachable).
    pub fn delay(&self, s: NodeId, t: NodeId) -> f64 {
        self.row(s).dist[t.0]
    }

    /// First hop on a shortest path from `s` to `t`.
    ///
    /// Returns `None` if `s == t` or `t` is unreachable.
    pub fn next_hop(&self, s: NodeId, t: NodeId) -> Option<NodeId> {
        self.row(s).next_hop[t.0]
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
        self.all_rows()
            .flat_map(|row| &row.dist)
            .copied()
            .filter(|d| d.is_finite())
            .fold(0.0, f64::max)
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
        assert_eq!(sp.path(NodeId(0), NodeId(2)), Some(vec![NodeId(1), NodeId(2)]));
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
        let sp = ShortestPaths::compute_masked(
            &t,
            &[true, false, true],
            &[true; 3],
            &delays,
        );
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

    /// The sources whose rows are filled.
    fn filled(sp: &ShortestPaths) -> Vec<usize> {
        (0..sp.rows.len())
            .filter(|&s| sp.rows[s].get().is_some())
            .collect()
    }

    #[test]
    fn remask_fills_only_the_rows_that_are_read() {
        let (t, node_up, mut link_up, delays) = abilene_masks();
        let mut sp = ShortestPaths::compute(&t);
        assert_eq!(filled(&sp).len(), t.num_nodes(), "compute is eager");
        link_up[3] = false;
        sp.remask(&node_up, &link_up, &delays);
        assert!(filled(&sp).is_empty());
        let eager = ShortestPaths::compute_masked(&t, &node_up, &link_up, &delays);
        for (s, t) in [(NodeId(4), NodeId(9)), (NodeId(7), NodeId(0)), (NodeId(4), NodeId(1))] {
            assert_eq!(sp.delay(s, t), eager.delay(s, t));
            assert_eq!(sp.next_hop(s, t), eager.next_hop(s, t));
        }
        assert_eq!(filled(&sp), vec![4, 7]);
    }

    #[test]
    fn back_to_back_remasks_compute_nothing() {
        let (t, mut node_up, mut link_up, delays) = abilene_masks();
        let mut sp = ShortestPaths::compute(&t);
        link_up[0] = false;
        sp.remask(&node_up, &link_up, &delays);
        node_up[5] = false;
        sp.remask(&node_up, &link_up, &delays);
        assert!(filled(&sp).is_empty());
        // The first read sees the second re-mask, not the first.
        assert!(!sp.delay(NodeId(0), NodeId(5)).is_finite());
        assert_eq!(filled(&sp), vec![0]);
    }

    #[test]
    fn equality_and_diameter_force_every_row() {
        let (t, node_up, mut link_up, mut delays) = abilene_masks();
        link_up[2] = false;
        delays[6] *= 3.0;
        let eager = ShortestPaths::compute_masked(&t, &node_up, &link_up, &delays);
        let mut lazy = ShortestPaths::compute(&t);
        lazy.remask(&node_up, &link_up, &delays);
        assert_eq!(lazy.diameter(), eager.diameter());
        assert_eq!(filled(&lazy).len(), t.num_nodes());
        lazy.remask(&node_up, &link_up, &delays);
        assert_eq!(lazy, eager);
        assert_eq!(filled(&lazy).len(), t.num_nodes());
        // Re-masking back to nominal is a fresh `compute`.
        let (_, node_up, link_up, delays) = abilene_masks();
        lazy.remask(&node_up, &link_up, &delays);
        assert_eq!(lazy, ShortestPaths::compute(&t));
        assert_ne!(lazy, eager);
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

//! Customizable contraction hierarchies (CCH): a metric-independent
//! contraction phase plus a millisecond re-weighting pass.
//!
//! The plain hierarchy in [`crate::algo::ch`] bakes its metric into the
//! contraction: witness searches prune shortcuts that are not needed
//! *under the build weights*, so any weight change — live traffic, a
//! learned [`CostModel::Custom`] vector, a perturbation experiment —
//! invalidates the whole index and costs a full rebuild (~100 ms at paper
//! scale). The customizable variant splits the work instead
//! (Dibbelt, Strasser & Wagner, "Customizable Contraction Hierarchies"):
//!
//! 1. **Preprocessing** ([`CchTopology::build`]) fixes a contraction
//!    order with the deterministic lazy-update loop `ch.rs` also runs
//!    (`algo/order.rs`, one implementation) and the same edge-difference
//!    priority, but on *topology only* (an arc between a pair of
//!    uncontracted neighbours exists or it does not — no estimate, no
//!    witness searches, no weights). Contracting `v` inserts an arc
//!    `u -> w` for every in/out neighbour pair that lacks one, so the
//!    arcs are chordal: every `(u -> v, v -> w)` pair through a mid `v`
//!    ranked below both ends is a **lower triangle** of the arc
//!    `u -> w`. Triangles are implied by the arcs and never listed.
//! 2. **Customization** ([`CchTopology::customize`] /
//!    [`CchTopology::customize_weights`]) re-derives every arc weight for
//!    a concrete metric: initialise each arc from its cheapest parallel
//!    original edge, then relax every lower triangle
//!    (`w(a) = min(w(a), w(b) + w(c))`) in one sequential sweep over the
//!    tails in ascending rank. A tail `p` stamps its out-arcs into a row
//!    indexed by head rank, then walks its lower neighbours `v` in
//!    ascending rank: every up-out arc `v -> q` of `v` closes the
//!    triangle of the owner `p -> q` it looks up in the row. Both legs
//!    were final when read (`v -> q` at the earlier tail `v`, `p -> v`
//!    through mids below `v`), and each owner meets its triangles in
//!    ascending mid order, the order [`CchTopology::triangles_of`]
//!    enumerates them in. At paper scale this runs in single-digit
//!    milliseconds, ≥10x faster than a metric-aware rebuild. When only
//!    a few entries of a custom weight vector moved — the live telemetry
//!    shape — [`Cch::apply_weight_delta`] skips even that: it seeds the
//!    arcs owning the changed edges and chases the change upward through
//!    the triangle DAG, stopping wherever a recomputed weight lands on
//!    the same bits. A pending arc finds its triangles by stamping its
//!    tail's down-out list and scanning its head's down-in list, and a
//!    changed arc its dependents by stamping the out-arcs (or in-arcs) of
//!    its other end, so nothing is stored per triangle. Graph metrics
//!    never move (a `Graph` is frozen once built), so a metric
//!    customization is derived once and has no sparse form.
//! 3. **Queries** run the stall-on-demand bidirectional upward search,
//!    the shortcut unpacking and the bucket many-to-many sweeps of
//!    [`crate::algo::ch`] unchanged, through a [`HierarchyView`]: the
//!    topology's weight-free `Skeleton` (ranks and search segments)
//!    plus the columns one customization wrote. Structure is
//!    built once and shared by `Arc`; a [`Cch`] owns *only* what
//!    customization writes, so cloning one — a server publishing a
//!    snapshot — copies weight columns and nothing else. An arc's id *is*
//!    its slot in the rank-space search segments, so one weight column
//!    serves customization (by arc) and queries (by slot) alike, and an
//!    arc's endpoints are read off its slot rather than stored.
//!
//!    | per arc | bytes | owner |
//!    |---|---|---|
//!    | weight (= search-segment weight), expansion word (mid rank or tagged edge) | 8 + 4 | every [`Cch`] |
//!    | segment entry (`other`) | 4 | topology, once |
//!    | down-list entry (`other`, `arc`) under its higher endpoint | 8 | topology, once |
//!    | `orig_offsets` | 4 | topology, once |
//!
//!    plus six 4-byte entries per rank (rank, vertex of the rank, two
//!    segment bounds, two `down_offsets`), a quarter byte per arc of the
//!    skeleton's slot -> rank hints, and nothing per triangle. The
//!    stamped row (8 bytes per rank) is scratch beside each [`Cch`].
//!
//! The price of skipping witness searches is a denser search graph (every
//! chordal fill-in arc is kept, where CH would prune witnessed ones), so
//! per-query latency is somewhat higher than a metric-built CH. The
//! trade-off wins whenever weights move faster than queries amortise a
//! rebuild: live-traffic routing, per-driver custom cost vectors, and
//! perturbation sweeps.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::algo::ch::{ArcRule, HierarchyView, SearchArc, Skeleton};
use crate::algo::landmarks::LandmarkMetric;
use crate::algo::order::{contract_in_priority_order, Contract};
use crate::graph::{CostModel, EdgeId, Graph, VertexId};
use crate::util::group_by_key;

/// Tuning knobs for CCH preprocessing.
#[derive(Debug, Clone)]
pub struct CchConfig {
    /// Worker threads for the ordering loop's initial-priority sweep.
    /// Customization is one sequential sweep and takes no threads.
    pub threads: usize,
}

impl Default for CchConfig {
    fn default() -> Self {
        CchConfig { threads: 4 }
    }
}

/// The metric-independent half of a customizable contraction hierarchy:
/// contraction order, merged chordal arc topology (whose triangles it
/// implies and never lists), and the per-rank up/down search skeleton.
///
/// Build once per graph topology, wrap in an [`Arc`], then
/// [`CchTopology::customize`] per metric or
/// [`CchTopology::customize_weights`] per weight vector — the expensive
/// ordering work is never repeated.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CchTopology {
    /// Edge count of the graph the topology was built for.
    m: usize,
    /// Arc -> merged original edges, CSR.
    orig_offsets: Vec<u32>,
    orig_edges: Vec<EdgeId>,
    /// Down-lists in rank space, two per rank `r`: the arcs from `r` to
    /// lower ranks (down-out) at `down[down_offsets[2r]..down_offsets[2r + 1]]`,
    /// then the arcs from lower ranks into `r` (down-in) up to
    /// `down_offsets[2r + 2]`. Each entry is the lower endpoint's rank
    /// and the arc, sorted by that rank — so the triangles of `u -> w`
    /// are where `u`'s down-out and `w`'s down-in lists name the same
    /// rank, and a rank's out-arcs (in-arcs) are its upward (downward)
    /// segment half plus its down-out (down-in) list.
    down_offsets: Vec<u32>,
    down: Vec<DownArc>,
    /// Original edge -> the (unique) arc that merged it; `u32::MAX` for
    /// edges the topology dropped (self-loops). The entry point of a
    /// sparse delta: a changed edge cost seeds exactly this arc.
    edge_arc: Vec<u32>,
    /// Ranks and search segments — weight-independent because arcs are
    /// unique per directed pair, so no customization can change which
    /// arc a segment slot holds. Arc `i` is the one in slot `i`, and its
    /// ranks are read off the slot ([`Skeleton::slot_ends`]) through a
    /// slot -> rank hint small enough to stay cached, where stored
    /// endpoints cost the sparse pass a miss per arc (measured: a tenth
    /// of it).
    skel: Skeleton,
}

/// A down-list entry: the rank of the arc's lower endpoint, and the arc.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct DownArc {
    other: u32,
    arc: u32,
}

/// The arcs of one vertex looked up by their other end: `(token, arc)`
/// per vertex, where an entry counts only while its token is the
/// current one, so a new stamp costs O(1) and filling it one write per
/// arc. Scratch — 8 bytes per vertex, never cloned or counted — that
/// stands in for a stored triangle index: customization looks up the
/// owner that closes a pair of legs in the row of its tail or head.
#[derive(Debug, Default)]
pub struct ArcRow {
    row: Vec<(u32, u32)>,
    token: u32,
}

impl ArcRow {
    /// Forgets every entry, sizing the row for `n` vertices.
    fn restamp(&mut self, n: usize) {
        if self.row.len() != n || self.token == u32::MAX {
            self.row.clear();
            self.row.resize(n, (0, 0));
            self.token = 0;
        }
        self.token += 1;
    }

    #[inline]
    fn insert(&mut self, other: u32, arc: u32) {
        self.row[other as usize] = (self.token, arc);
    }

    /// The arc stamped for `other` since the last restamp.
    #[inline]
    fn get(&self, other: u32) -> Option<u32> {
        let (token, arc) = self.row[other as usize];
        (token == self.token).then_some(arc)
    }
}

/// Build-time working state: dynamic chordal adjacency among
/// uncontracted vertices. Mirrors `ch::Builder`, minus weights and
/// witness searches — and so minus arc ids: an adjacency entry is the
/// arc's other endpoint, all the ordering loop ever reads of an arc.
struct TopoBuilder {
    /// Arc endpoints in creation order, one entry per directed vertex
    /// pair ever connected; written here, read only by
    /// [`CchTopology::finalise`].
    arcs: Vec<(VertexId, VertexId)>,
    /// Per uncontracted vertex, the heads of its out-arcs and the tails
    /// of its in-arcs among uncontracted vertices, and no others:
    /// `contract` prunes the neighbours' lists and frees the vertex's own.
    out_adj: Vec<Vec<VertexId>>,
    in_adj: Vec<Vec<VertexId>>,
    /// `u32::MAX` while uncontracted, final rank afterwards.
    rank: Vec<u32>,
    deleted_neighbors: Vec<u32>,
    level: Vec<u32>,
}

/// Per-worker buffers of the ordering loop.
#[derive(Default)]
struct TopoScratch {
    /// Distinct uncontracted in- and out-neighbours of the probed vertex.
    ins: Vec<VertexId>,
    outs: Vec<VertexId>,
    /// The fill-in contracting the probed vertex inserts, in insertion
    /// order: every pair `(u, w)` of an in-neighbour and a distinct
    /// out-neighbour with no arc `u -> w`.
    fill: Vec<(VertexId, VertexId)>,
    /// The vertex `ins`, `outs` and `fill` describe, until the builder
    /// next changes: the loop contracts a vertex right after the
    /// `priority` call that let it win, which already probed it.
    probed: Option<VertexId>,
    /// Per vertex, the token that last marked it; a fresh token clears
    /// every mark in O(1).
    marks: Vec<u32>,
    token: u32,
}

impl TopoScratch {
    /// A token no vertex is marked with, sizing the marks for `n`
    /// vertices.
    fn fresh_token(&mut self, n: usize) -> u32 {
        if self.marks.len() != n || self.token == u32::MAX {
            self.marks.clear();
            self.marks.resize(n, 0);
            self.token = 0;
        }
        self.token += 1;
        self.token
    }
}

impl TopoBuilder {
    fn new(g: &Graph) -> Self {
        let n = g.vertex_count();
        let mut arcs: Vec<(VertexId, VertexId)> = Vec::with_capacity(g.edge_count());
        let mut out_adj: Vec<Vec<VertexId>> = vec![Vec::new(); n];
        let mut in_adj: Vec<Vec<VertexId>> = vec![Vec::new(); n];
        for e in g.edges() {
            // Self-loops can never lie on a shortest path (weights are
            // non-negative) and would break the chordal invariants; drop
            // them from the topology outright. Parallel edges share one
            // arc.
            if e.from == e.to || out_adj[e.from.index()].contains(&e.to) {
                continue;
            }
            arcs.push((e.from, e.to));
            out_adj[e.from.index()].push(e.to);
            in_adj[e.to.index()].push(e.from);
        }
        TopoBuilder {
            arcs,
            out_adj,
            in_adj,
            rank: vec![u32::MAX; n],
            deleted_neighbors: vec![0; n],
            level: vec![0; n],
        }
    }

    /// Gathers `v`'s uncontracted in/out neighbours and the fill-in its
    /// contraction needs into `scratch`. Arcs are unique per directed
    /// pair and the lists hold no self-loop, so nothing is deduplicated.
    /// Whether `u -> w` exists is one mark: `u`'s heads are marked with a
    /// token of their own per in-neighbour `u`.
    fn probe(&self, v: VertexId, scratch: &mut TopoScratch) {
        scratch.ins.clone_from(&self.in_adj[v.index()]);
        scratch.outs.clone_from(&self.out_adj[v.index()]);
        scratch.fill.clear();
        for i in 0..scratch.ins.len() {
            let u = scratch.ins[i];
            let token = scratch.fresh_token(self.rank.len());
            for &w in &self.out_adj[u.index()] {
                scratch.marks[w.index()] = token;
            }
            for &w in &scratch.outs {
                if w != u && scratch.marks[w.index()] != token {
                    scratch.fill.push((u, w));
                }
            }
        }
        scratch.probed = Some(v);
    }
}

impl Contract for TopoBuilder {
    type Scratch = TopoScratch;

    /// The lazy-update priority of `v`: same shape as the weighted
    /// builder's (twice the edge difference plus uniformity terms), with
    /// "shortcuts needed" counted by pure arc existence instead of
    /// witness searches. Pure, so the initial sweep runs it from many
    /// threads.
    fn priority(&self, v: VertexId, scratch: &mut TopoScratch) -> i64 {
        self.probe(v, scratch);
        let removed = scratch.ins.len() + scratch.outs.len();
        2 * (scratch.fill.len() as i64 - removed as i64)
            + self.deleted_neighbors[v.index()] as i64
            + 8 * self.level[v.index()] as i64
    }

    /// Contracts `v` at `rank`: completes the chordal clique among its
    /// uncontracted neighbours (inserting fill-in arcs where missing),
    /// then bumps and prunes the neighbourhood exactly like the weighted
    /// builder. Reuses the probe of the `priority(v)` call just made.
    fn contract(&mut self, v: VertexId, rank: u32, scratch: &mut TopoScratch) {
        if scratch.probed != Some(v) {
            self.probe(v, scratch);
        }
        scratch.probed = None;
        self.rank[v.index()] = rank;
        for &(u, w) in &scratch.fill {
            self.arcs.push((u, w));
            self.out_adj[u.index()].push(w);
            self.in_adj[w.index()].push(u);
        }

        // `v` is once in each in-neighbour's heads and each
        // out-neighbour's tails, and in no other list.
        let unlink = |list: &mut Vec<VertexId>| {
            let at = list.iter().position(|&x| x == v);
            list.remove(at.expect("arcs are listed at both ends"));
        };
        for &u in &scratch.ins {
            unlink(&mut self.out_adj[u.index()]);
        }
        for &w in &scratch.outs {
            unlink(&mut self.in_adj[w.index()]);
        }
        // Each distinct neighbour once, whichever list names it first.
        let token = scratch.fresh_token(self.rank.len());
        for &nb in scratch.ins.iter().chain(&scratch.outs) {
            if std::mem::replace(&mut scratch.marks[nb.index()], token) == token {
                continue;
            }
            self.deleted_neighbors[nb.index()] += 1;
            let bumped = self.level[v.index()] + 1;
            if self.level[nb.index()] < bumped {
                self.level[nb.index()] = bumped;
            }
        }
        // Nothing reads a contracted vertex's lists again.
        self.out_adj[v.index()] = Vec::new();
        self.in_adj[v.index()] = Vec::new();
    }
}

/// The lower triangles of one arc `u -> w` ([`CchTopology::triangles_of`]):
/// a merge of `u`'s down-out list with `w`'s down-in list, both sorted
/// by the lower rank, yielding `(u -> v, v -> w, v)` wherever they meet.
/// The reference enumeration the tests hold the stamped lookups to.
struct Triangles<'a> {
    outs: &'a [DownArc],
    ins: &'a [DownArc],
}

impl Iterator for Triangles<'_> {
    type Item = (u32, u32, u32);

    fn next(&mut self) -> Option<(u32, u32, u32)> {
        while let ([b, outs @ ..], [c, ins @ ..]) = (self.outs, self.ins) {
            if b.other <= c.other {
                self.outs = outs;
            }
            if c.other <= b.other {
                self.ins = ins;
            }
            if b.other == c.other {
                return Some((b.arc, c.arc, b.other));
            }
        }
        None
    }
}

impl CchTopology {
    /// Runs the metric-independent preprocessing: fixes the contraction
    /// order (edge-difference + lazy updates on topology only, initial
    /// priorities fanned out over `cfg.threads` workers) and materialises
    /// the full chordal shortcut topology.
    /// Deterministic and bit-identical for any thread count.
    pub fn build(g: &Graph, cfg: &CchConfig) -> Self {
        let mut b = TopoBuilder::new(g);
        contract_in_priority_order(g.vertex_count(), cfg.threads, &mut b);
        // Only the ranks and the arc endpoints outlive the ordering loop.
        let TopoBuilder { arcs, rank, .. } = b;
        Self::finalise(g, rank, arcs)
    }

    /// The tail of [`CchTopology::build`], from the ranks and the arc
    /// endpoints in creation order: numbers the arcs by search slot and
    /// lays out the search skeleton, the down-lists and the original
    /// edges under their arcs, each grouping one counting sort into its
    /// final array. `TopoBuilder::contract` leaves the arcs chordal, so
    /// every pair of legs has the arc customization looks up for it.
    fn finalise(g: &Graph, rank: Vec<u32>, old_ends: Vec<(VertexId, VertexId)>) -> Self {
        let n = rank.len();
        let arc_count = old_ends.len();
        assert!(
            n.max(g.edge_count()) <= ArcRule::ORIGINAL as usize,
            "ranks and edge ids must fit 31 bits"
        );

        // Search segments, one per rank: upward out-arcs then downward
        // in-arcs, creation order within each half — and an arc's id is
        // its slot. A half's arcs share their lower endpoint; an owner
        // hangs off a rank above the mid both its supports hang off, so
        // it sorts after them. Arcs are unique per directed pair, so
        // unlike `ContractionHierarchy::assemble` there is nothing to
        // dedupe and every arc owns exactly one slot.
        let (halves, by_slot) = group_by_key(2 * n, 0u32, |emit| {
            for (&(from, to), arc) in old_ends.iter().zip(0u32..) {
                let (rf, rt) = (rank[from.index()], rank[to.index()]);
                emit(2 * rf.min(rt) + u32::from(rf > rt), arc);
            }
        });
        let seg_arcs: Vec<SearchArc> = by_slot
            .iter()
            .map(|&arc| {
                let (from, to) = old_ends[arc as usize];
                let other = rank[from.index()].max(rank[to.index()]);
                SearchArc { other }
            })
            .collect();
        drop((old_ends, by_slot));

        // Down-lists, filed under each arc's higher endpoint: a search
        // segment's upward half is down-in arcs of their heads, its
        // downward half down-out arcs of their tails. Sweeping segments
        // in rank order emits every list sorted by the lower rank.
        let no_arc = DownArc { other: 0, arc: 0 };
        let (down_offsets, down) = group_by_key(2 * n, no_arc, |emit| {
            for r in 0..n {
                let (lo, mid, hi) = (halves[2 * r], halves[2 * r + 1], halves[2 * r + 2]);
                for (slot, sa) in (lo..hi).zip(&seg_arcs[lo as usize..hi as usize]) {
                    let entry = DownArc {
                        other: r as u32,
                        arc: slot,
                    };
                    emit(2 * sa.other + u32::from(slot < mid), entry);
                }
            }
        });
        let skel = Skeleton::new(rank, halves, seg_arcs);

        // Every edge but a self-loop merged into the one arc of its pair,
        // in the lower endpoint's half; ascending `EdgeId` under an arc.
        let edge_arc: Vec<u32> = g
            .edges()
            .map(|e| {
                let (rf, rt) = (skel.rank[e.from.index()], skel.rank[e.to.index()]);
                if rf == rt {
                    return u32::MAX;
                }
                let (lo, mid, hi) = skel.bounds(rf.min(rt) as usize);
                let half = if rf < rt { (lo, mid) } else { (mid, hi) };
                skel.find(half, rf.max(rt))
                    .expect("every edge's pair has an arc")
            })
            .collect();
        let (orig_offsets, orig_edges) = group_by_key(arc_count, EdgeId(0), |emit| {
            for (&a, e) in edge_arc.iter().zip(0u32..).filter(|(&a, _)| a != u32::MAX) {
                emit(a, EdgeId(e));
            }
        });

        CchTopology {
            m: edge_arc.len(),
            orig_offsets,
            orig_edges,
            down_offsets,
            down,
            edge_arc,
            skel,
        }
    }

    /// Vertex count of the graph the topology was built for.
    pub fn vertex_count(&self) -> usize {
        self.skel.rank.len()
    }

    /// Edge count of the graph the topology was built for (attach-time
    /// fingerprint).
    pub fn edge_count(&self) -> usize {
        self.m
    }

    /// Total arcs in the chordal topology (merged originals plus
    /// fill-ins).
    pub fn arc_count(&self) -> usize {
        self.orig_offsets.len() - 1
    }

    /// Contraction rank of every vertex, indexed by vertex id.
    pub fn ranks(&self) -> &[u32] {
        &self.skel.rank
    }

    /// Heap bytes the topology holds (the `pathrank_serve_index_bytes`
    /// gauge); every customization shares them. Nothing grows with the
    /// triangle count: beside the skeleton that is 8 B per arc of
    /// down-lists, 4 B per arc and 8 B per edge of originals and 8 B
    /// per rank of list offsets — the module doc has the whole budget.
    pub fn heap_bytes(&self) -> usize {
        let per_edge = self.orig_edges.len() + self.edge_arc.len();
        4 * (self.orig_offsets.len() + per_edge + self.down_offsets.len())
            + std::mem::size_of_val(self.down.as_slice())
            + self.skel.heap_bytes()
    }

    /// Merged original edges of arc `a` (ascending `EdgeId`).
    pub(crate) fn originals_of(&self, a: usize) -> &[EdgeId] {
        let lo = self.orig_offsets[a] as usize;
        let hi = self.orig_offsets[a + 1] as usize;
        &self.orig_edges[lo..hi]
    }

    /// Supporting lower triangles of arc `a = u -> w`, as the
    /// `(u -> v, v -> w)` arc pairs customization relaxes with the rank
    /// of the mid `v`, in ascending mid rank. Enumerated by merging `u`'s
    /// down-out and `w`'s down-in lists: every common lower neighbour is
    /// a mid. The reference for the stamped lookups customization runs.
    pub fn triangles_of(&self, a: usize) -> impl Iterator<Item = (u32, u32, u32)> + '_ {
        let (u, w) = self.skel.slot_ends(a);
        Triangles {
            outs: self.down_out(u as usize),
            ins: self.down_in(w as usize),
        }
    }

    /// Rank `r`'s arcs to lower ranks, ascending by the lower rank.
    fn down_out(&self, r: usize) -> &[DownArc] {
        &self.down[self.down_offsets[2 * r] as usize..self.down_offsets[2 * r + 1] as usize]
    }

    /// Rank `r`'s arcs from lower ranks, ascending by the lower rank.
    fn down_in(&self, r: usize) -> &[DownArc] {
        &self.down[self.down_offsets[2 * r + 1] as usize..self.down_offsets[2 * r + 2] as usize]
    }

    /// Stamps every out-arc of rank `p` into `row` by its head's rank.
    fn stamp_out_arcs(&self, p: usize, row: &mut ArcRow) {
        row.restamp(self.vertex_count());
        let (lo, mid, _) = self.skel.bounds(p);
        for (slot, sa) in (lo..mid).zip(&self.skel.seg_arcs[lo as usize..mid as usize]) {
            row.insert(sa.other, slot);
        }
        for b in self.down_out(p) {
            row.insert(b.other, b.arc);
        }
    }

    /// Stamps every in-arc of rank `q` into `row` by its tail's rank.
    fn stamp_in_arcs(&self, q: usize, row: &mut ArcRow) {
        row.restamp(self.vertex_count());
        let (_, mid, hi) = self.skel.bounds(q);
        for (slot, sa) in (mid..hi).zip(&self.skel.seg_arcs[mid as usize..hi as usize]) {
            row.insert(sa.other, slot);
        }
        for c in self.down_in(q) {
            row.insert(c.other, c.arc);
        }
    }

    /// The arc `p -> q` closing the legs `p -> v -> q`, from the row
    /// stamped for `p`'s out-arcs or `q`'s in-arcs.
    #[inline]
    fn closing_arc(row: &ArcRow, end: u32) -> u32 {
        row.get(end).expect("CCH arcs are not chordal")
    }

    /// Every lower triangle once, as `(owner p -> q, p -> v, v -> q, v)`,
    /// tails `p` in ascending rank and, per tail, mids `v` in ascending
    /// rank: `p` stamps its out-arcs, then each up-out arc `v -> q` of
    /// each lower neighbour `v` (but the 2-cycle back to `p`) names its
    /// owner by `q`. So every owner meets its mids in ascending rank,
    /// after all triangles of both legs: `v -> q` belongs to the earlier
    /// tail `v`, and `p -> v` has only mids below `v`.
    fn for_each_triangle(&self, row: &mut ArcRow, mut relax: impl FnMut(u32, u32, u32, u32)) {
        let skel = &self.skel;
        for p in 0..self.vertex_count() {
            let down_out = self.down_out(p);
            if down_out.is_empty() {
                continue;
            }
            self.stamp_out_arcs(p, row);
            for b in down_out {
                let (lo, mid, _) = skel.bounds(b.other as usize);
                for (c, sa) in (lo..mid).zip(&skel.seg_arcs[lo as usize..mid as usize]) {
                    if sa.other as usize != p {
                        relax(Self::closing_arc(row, sa.other), b.arc, c, b.other);
                    }
                }
            }
        }
    }

    /// [`CchTopology::triangles_of`] as the sparse pass enumerates it:
    /// stamp `u`'s down-out list, then scan `w`'s down-in list, which
    /// keeps ascending mid order.
    fn stamped_triangles_of<'a>(
        &'a self,
        a: usize,
        row: &'a mut ArcRow,
    ) -> impl Iterator<Item = (u32, u32, u32)> + 'a {
        let (u, w) = self.skel.slot_ends(a);
        row.restamp(self.vertex_count());
        for b in self.down_out(u as usize) {
            row.insert(b.other, b.arc);
        }
        let row: &ArcRow = row;
        let ins = self.down_in(w as usize);
        ins.iter()
            .filter_map(move |c| Some((row.get(c.other)?, c.arc, c.other)))
    }

    /// The arc that merged original edge `e` (`None` when the topology
    /// dropped the edge, i.e. a self-loop).
    pub(crate) fn arc_of_edge(&self, e: EdgeId) -> Option<u32> {
        let a = self.edge_arc[e.index()];
        (a != u32::MAX).then_some(a)
    }

    /// The triangles arc `a` supports, as `(owner, co-support)`, with
    /// `row` as scratch. An arc is a support only at its lower endpoint
    /// `v`, and its co-supports are the other half of `v`'s search
    /// segment: a downward `p -> v` pairs with every up-out `v -> q`,
    /// its owners `p -> q` looked up among `p`'s stamped out-arcs; an
    /// upward `v -> q` pairs with every down-in `p -> v`, its owners
    /// among `q`'s stamped in-arcs (2-cycles `p == q` close no
    /// triangle). An owner `p -> q` sits in the segment of `min(p, q)`,
    /// above `v`, so dependents carry strictly larger arc ids than
    /// their supports — what lets [`Cch::apply_weight_delta`] sweep pending
    /// arcs in ascending id order and know every support is final
    /// before its dependents recompute. An owner has at most one
    /// triangle through `a` (as the `p -> v` leg `a` fixes `v` by its
    /// head, as the `v -> q` leg by its tail, and it cannot be both), so
    /// the link lets the partial pass classify the event
    /// (defining-support check on increases, candidate check on
    /// decreases) without re-scanning the dependent's full triangle
    /// list.
    pub fn dependents_of<'a>(
        &'a self,
        a: usize,
        row: &'a mut ArcRow,
    ) -> impl Iterator<Item = (u32, u32)> + 'a {
        let skel = &self.skel;
        let (lo, mid, hi) = skel.bounds(skel.rank_of_slot(a));
        let far = skel.seg_arcs[a].other;
        let co_supports = if a < mid as usize {
            self.stamp_in_arcs(far as usize, row);
            mid..hi
        } else {
            self.stamp_out_arcs(far as usize, row);
            lo..mid
        };
        let row: &ArcRow = row;
        let seg = &skel.seg_arcs[co_supports.start as usize..co_supports.end as usize];
        co_supports
            .zip(seg)
            .filter(move |(_, sa)| sa.other != far)
            .map(move |(co, sa)| (Self::closing_arc(row, sa.other), co))
    }

    /// Customizes the topology for `cost`, deriving every arc weight
    /// from the graph's weight column of a metric, or from a `Custom`
    /// vector through [`CchTopology::customize_weights`].
    pub fn customize(self: &Arc<Self>, g: &Graph, cost: &CostModel<'_>) -> Cch {
        let metric = match cost {
            CostModel::Length => LandmarkMetric::Length,
            CostModel::TravelTime => LandmarkMetric::TravelTime,
            CostModel::Custom(w) => return self.customize_weights(g, w),
        };
        let mut cch = self.blank();
        cch.assert_same_graph(g);
        cch.metric = Some(metric);
        cch.rederive(|e| cost.edge_cost(g, e));
        cch
    }

    /// Customizes the topology for an explicit per-edge weight vector
    /// (indexed by `EdgeId`; every weight must be finite and
    /// non-negative). The resulting [`Cch`] serves
    /// [`CostModel::Custom`] queries whose vector is bitwise equal to
    /// `weights`.
    pub fn customize_weights(self: &Arc<Self>, g: &Graph, weights: &[f64]) -> Cch {
        let mut cch = self.blank();
        cch.recustomize_weights(g, weights);
        cch
    }

    /// A customization with nothing derived yet.
    fn blank(self: &Arc<Self>) -> Cch {
        Cch {
            topo: Arc::clone(self),
            metric: None,
            custom: None,
            cols: Columns::default(),
            stamp: fresh_stamp(),
            last: DeltaLog::default(),
            pending: Vec::new(),
            row: ArcRow::default(),
        }
    }

    /// The customization core: per-arc init from the cheapest parallel
    /// original (lowest `EdgeId` on ties), then one sweep over the tails
    /// in ascending rank relaxing every triangle,
    /// `p -> q ← (p -> v) + (v -> q)` with a strict `<`, the winner's
    /// expansion word naming the mid `v`
    /// ([`CchTopology::for_each_triangle`], which looks each owner up in
    /// `row`). Both legs are final when read, and each owner sees its
    /// triangles in ascending mid rank, the order
    /// [`CchTopology::triangles_of`] yields them, which the sparse pass
    /// relaxes in too. Writes the caller's columns in place: after a
    /// [`Cch`]'s first pass a full re-customization allocates nothing.
    fn derive_into(
        &self,
        edge_cost: impl Fn(EdgeId) -> f64,
        weights: &mut Vec<f64>,
        rules: &mut Vec<ArcRule>,
        row: &mut ArcRow,
    ) {
        let arc_count = self.arc_count();
        weights.clear();
        weights.resize(arc_count, f64::INFINITY);
        rules.clear();
        rules.resize(arc_count, ArcRule(u32::MAX));
        for a in 0..arc_count {
            for &e in self.originals_of(a) {
                let c = edge_cost(e);
                if c < weights[a] {
                    weights[a] = c;
                    rules[a] = ArcRule::original(e);
                }
            }
        }
        self.for_each_triangle(row, |owner, b, c, mid| {
            let cand = weights[b as usize] + weights[c as usize];
            if cand < weights[owner as usize] {
                weights[owner as usize] = cand;
                rules[owner as usize] = ArcRule::shortcut(mid);
            }
        });
        debug_assert!(
            weights.iter().all(|w| w.is_finite()),
            "every arc must end customization with a finite weight"
        );
    }
}

/// What one customization writes: 12 bytes per arc.
#[derive(Debug, Clone, Default)]
struct Columns {
    /// Per arc: customized weight — also the query loop's search-segment
    /// weight column, since an arc's id is its slot — and expansion word.
    weights: Vec<f64>,
    rules: Vec<ArcRule>,
}

/// What the last sparse pass of a [`Cch`] wrote, and on top of which
/// contents — all [`Cch::clone_from`] needs to bring the predecessor
/// level without copying whole columns.
#[derive(Debug, Default)]
struct DeltaLog {
    /// [`Cch::stamp`] of the contents the pass started from; `None` once
    /// a full customization has overwritten everything.
    base: Option<u64>,
    /// Edges whose entry of the custom vector the pass changed.
    edges: Vec<EdgeId>,
    /// Arcs the pass recomputed, ascending.
    arcs: Vec<u32>,
}

/// A stamp no other contents carry. Only uniqueness matters — the value
/// publishes no data — so the counter is `Relaxed`.
fn fresh_stamp() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

/// The sparse-delta customization core: sweeps a pending-arc bitset in
/// ascending id order (supports are final before dependents — see
/// [`CchTopology::dependents_of`]), fully recomputes each pending arc
/// exactly like `CchTopology::derive_into` visits it (cheapest original
/// in ascending `EdgeId`, then every lower triangle in ascending mid
/// rank, found by stamping the tail's down-out list and scanning the
/// head's down-in list; strict `<` in both phases), and classifies each
/// dependent link when an arc's weight *bits* changed rather than
/// marking all of them:
///
/// - weight **increased**: only a dependent whose stored expansion word
///   names this triangle's mid (a dependent has one triangle per mid)
///   can be affected — every other candidate
///   of that dependent is bitwise-unchanged and its previous winner
///   (the earliest scan-order candidate reaching the minimum) still
///   wins, because a worsened non-winning candidate stays non-winning.
/// - weight **decreased**: the triangle's new candidate only matters
///   when it is `<=` the dependent's current weight — strictly below
///   moves the weight, equality can still flip the stored rule to an
///   earlier scan-order triangle, and anything above can never win. A
///   pending co-support re-offers the triangle when it is popped later
///   (it has a larger id than this arc but smaller than the dependent),
///   so a stale candidate here is never load-bearing.
///
/// Marked arcs always run the full derive-order recompute (weight and
/// expansion rule), so arcs never marked keep bitwise-unchanged inputs
/// and the fixed point is bit-identical to a full customization.
/// `pending` (resized here, drained back to all-zero) and `row` are
/// scratch; `recomputed` is overwritten with the arcs recomputed,
/// ascending.
fn partial_customize(
    topo: &CchTopology,
    cols: &mut Columns,
    pending: &mut Vec<u64>,
    row: &mut ArcRow,
    recomputed: &mut Vec<u32>,
    seeds: impl IntoIterator<Item = u32>,
    edge_cost: impl Fn(EdgeId) -> f64,
) {
    let Columns { weights, rules } = cols;
    let arc_count = topo.arc_count();
    let words = arc_count.div_ceil(64);
    pending.clear();
    pending.resize(words, 0u64);
    let mut lo = arc_count;
    for a in seeds {
        let ai = a as usize;
        pending[ai >> 6] |= 1u64 << (ai & 63);
        lo = lo.min(ai);
    }
    // Single ascending sweep over the pending bitset: a dependent's id
    // is always strictly larger than its support's, so bits set while
    // processing are never behind the cursor — popping the lowest set
    // bit per word visits arcs in exactly ascending order.
    recomputed.clear();
    let mut wi = lo >> 6;
    while wi < words {
        let word = pending[wi];
        if word == 0 {
            wi += 1;
            continue;
        }
        let bit = word.trailing_zeros() as usize;
        pending[wi] &= !(1u64 << bit);
        let ai = (wi << 6) | bit;
        let a = ai as u32;
        recomputed.push(a);
        let mut w = f64::INFINITY;
        let mut k = ArcRule(u32::MAX);
        for &e in topo.originals_of(ai) {
            let c = edge_cost(e);
            if c < w {
                w = c;
                k = ArcRule::original(e);
            }
        }
        for (b, c, mid) in topo.stamped_triangles_of(ai, row) {
            let cand = weights[b as usize] + weights[c as usize];
            if cand < w {
                w = cand;
                k = ArcRule::shortcut(mid);
            }
        }
        let old_w = std::mem::replace(&mut weights[ai], w);
        rules[ai] = k;
        if old_w.to_bits() != w.to_bits() {
            // `-0.0` never bit-matches a stored weight here (costs are
            // sums of non-negative edge costs), so a bits-changed,
            // numerically-equal pair falls through to the conservative
            // decrease path.
            let increased = w > old_w;
            // Every triangle through this arc has its lower endpoint as
            // the mid.
            let through = ArcRule::shortcut(topo.skel.rank_of_slot(ai) as u32);
            for (d, co) in topo.dependents_of(ai, row) {
                let di = d as usize;
                let mask = 1u64 << (di & 63);
                if pending[di >> 6] & mask != 0 {
                    continue;
                }
                // The dependent's one triangle through this arc is its
                // stored rule iff the rule names this arc's mid.
                let hit = if increased {
                    rules[di] == through
                } else {
                    w + weights[co as usize] <= weights[di]
                };
                if hit {
                    pending[di >> 6] |= mask;
                }
            }
        }
    }
}

/// Bitwise equality of two weight vectors. Folds XORs over fixed blocks
/// (branch-free, so the compiler vectorises them) and exits between
/// blocks, not between elements.
fn bits_equal(a: &[f64], b: &[f64]) -> bool {
    let differs = |(x, y): (&[f64], &[f64])| {
        let pairs = x.iter().zip(y);
        pairs.fold(0, |acc, (p, q)| acc | (p.to_bits() ^ q.to_bits())) != 0
    };
    a.len() == b.len() && !a.chunks(64).zip(b.chunks(64)).any(differs)
}

/// A customized contraction hierarchy: shared metric-independent
/// [`CchTopology`] plus concrete arc weights for one metric or custom
/// weight vector.
///
/// `Sync` and immutable through `&Cch`; wrap in an [`Arc`] and hand a
/// clone to every worker's
/// [`crate::algo::engine::QueryEngine::with_cch`]. Queries run the
/// [`crate::algo::ch`] loops over [`Cch::view`], so they are exactly as
/// exact as plain CH queries — just on weights that may have changed
/// milliseconds ago. A uniquely owned copy additionally re-weights its
/// custom vector *in place*: [`Cch::apply_weight_delta`] chases a sparse
/// changed-edge delta through only the triangles it touches, and
/// [`Cch::recustomize_weights`] re-runs the full pass allocation-free —
/// both bit-identical to a fresh customization. `clone` copies the weight
/// columns and shares everything else, and `clone_from` onto the copy a
/// sparse delta started from copies only what that delta wrote — which
/// is what lets a serving layer publish immutable snapshots out of two
/// alternating buffers at the cost of the delta.
#[derive(Debug)]
pub struct Cch {
    topo: Arc<CchTopology>,
    /// The graph metric customized for, when derived from
    /// [`CostModel::Length`] / [`CostModel::TravelTime`].
    metric: Option<LandmarkMetric>,
    /// The custom weight vector customized for, when derived from
    /// [`CostModel::Custom`] — the one live copy: sparse deltas patch it
    /// in place and callers route under [`Cch::custom_weights`].
    custom: Option<Vec<f64>>,
    cols: Columns,
    /// Identity of the contents (`metric`, `custom`, `cols`): every pass
    /// that writes them draws a fresh stamp and `clone` copies it, so
    /// two indexes over one topology with equal stamps hold equal bits.
    stamp: u64,
    /// The last sparse pass, while no full customization ran since.
    last: DeltaLog,
    /// Pending-arc bitset of the sparse pass, one bit per arc; drains
    /// back to all-zero, so it is scratch, not state — neither cloned
    /// nor counted in [`Cch::heap_bytes`].
    pending: Vec<u64>,
    /// The row both passes look owners up in; scratch like `pending`.
    row: ArcRow,
}

impl Clone for Cch {
    fn clone(&self) -> Self {
        Cch {
            topo: Arc::clone(&self.topo),
            metric: self.metric,
            custom: self.custom.clone(),
            cols: self.cols.clone(),
            stamp: self.stamp,
            last: DeltaLog::default(),
            pending: Vec::new(),
            row: ArcRow::default(),
        }
    }

    /// `*self = source.clone()` into the buffers `self` already owns.
    /// When `self` holds exactly what `source` held before its last
    /// sparse delta, only the entries that delta wrote are copied — the
    /// edges it changed and the arcs it recomputed; otherwise every
    /// column is (`Vec::clone_from`, so equal lengths allocate nothing).
    fn clone_from(&mut self, source: &Self) {
        let log = &source.last;
        if Arc::ptr_eq(&self.topo, &source.topo) && log.base == Some(self.stamp) {
            if let (Some(mine), Some(theirs)) = (&mut self.custom, &source.custom) {
                for e in log.edges.iter().map(|e| e.index()) {
                    mine[e] = theirs[e];
                }
            }
            let (mine, theirs) = (&mut self.cols, &source.cols);
            for a in log.arcs.iter().map(|&a| a as usize) {
                mine.weights[a] = theirs.weights[a];
                mine.rules[a] = theirs.rules[a];
            }
        } else {
            self.topo = Arc::clone(&source.topo);
            self.custom.clone_from(&source.custom);
            self.cols.weights.clone_from(&source.cols.weights);
            self.cols.rules.clone_from(&source.cols.rules);
        }
        self.metric = source.metric;
        self.stamp = source.stamp;
        self.last.base = None;
    }
}

impl Cch {
    /// The shared metric-independent topology.
    pub fn topology(&self) -> &Arc<CchTopology> {
        &self.topo
    }

    /// The metric customized for (`None` when customized from an
    /// explicit weight vector).
    pub fn metric(&self) -> Option<LandmarkMetric> {
        self.metric
    }

    /// The weight vector customized for (`None` for a metric
    /// customization). Routing under `CostModel::Custom` of this very
    /// slice passes [`Cch::usable_for`] without comparing a weight.
    pub fn custom_weights(&self) -> Option<&[f64]> {
        self.custom.as_deref()
    }

    /// Vertex count of the graph the index was built for.
    pub fn vertex_count(&self) -> usize {
        self.topo.vertex_count()
    }

    /// Edge count of the graph the index was built for.
    pub fn edge_count(&self) -> usize {
        self.topo.edge_count()
    }

    /// Heap bytes this customization owns beside the shared topology
    /// (the `pathrank_serve_index_bytes` gauge): what a snapshot costs.
    pub fn heap_bytes(&self) -> usize {
        let c = &self.cols;
        8 * c.weights.len()
            + std::mem::size_of_val(c.rules.as_slice())
            + 8 * self.custom.as_ref().map_or(0, Vec::len)
            + 4 * (self.last.edges.len() + self.last.arcs.len())
    }

    /// Whether `other` is the same customization bit for bit: same
    /// topology and metric, and every entry of the weight
    /// vector and of both columns equal in bits.
    pub fn bit_identical(&self, other: &Cch) -> bool {
        let same_custom = match (&self.custom, &other.custom) {
            (Some(a), Some(b)) => bits_equal(a, b),
            (None, None) => true,
            _ => false,
        };
        (Arc::ptr_eq(&self.topo, &other.topo) || self.topo == other.topo)
            && self.metric == other.metric
            && same_custom
            && bits_equal(&self.cols.weights, &other.cols.weights)
            && self.cols.rules == other.cols.rules
    }

    /// Whether queries under `cost` may use this customization:
    /// `Length`/`TravelTime` match the customized metric, `Custom`
    /// matches when the query's weight vector is the customized one —
    /// the same slice ([`Cch::custom_weights`]) by identity, a
    /// separately-owned vector by bitwise comparison.
    pub fn usable_for(&self, cost: &CostModel<'_>) -> bool {
        if self.vertex_count() == 0 {
            return false;
        }
        match cost {
            CostModel::Length => self.metric == Some(LandmarkMetric::Length),
            CostModel::TravelTime => self.metric == Some(LandmarkMetric::TravelTime),
            CostModel::Custom(w) => self
                .custom
                .as_deref()
                .is_some_and(|c| std::ptr::eq(c, *w) || bits_equal(c, w)),
        }
    }

    /// The borrowed form the engine and the many-to-many module run
    /// queries and sweeps on. Gating must go through
    /// [`Cch::usable_for`].
    pub fn view(&self) -> HierarchyView<'_> {
        HierarchyView {
            skel: &self.topo.skel,
            rules: &self.cols.rules,
            seg_weights: &self.cols.weights,
        }
    }

    /// Sparse form of [`CchTopology::customize_weights`] against this
    /// index's current custom vector: applies `updates` (later
    /// duplicates win) to the stored vector in place, seeds the arcs
    /// owning the changed edges and chases the change upward through the
    /// triangle DAG in arc-id order, stopping wherever a recomputed
    /// weight is bit-unchanged. The result is bit-identical to a full
    /// customization of the updated vector — the `cch_partial_` property
    /// harness asserts this; the hot path never re-checks. Afterwards
    /// [`Cch::usable_for`] gates on the updated vector. A bit-identical
    /// echo (an update equal to the stored weight) seeds nothing.
    /// Returns the number of arcs recomputed.
    pub fn apply_weight_delta(&mut self, updates: &[(EdgeId, f64)]) -> usize {
        let m = self.edge_count();
        assert!(
            updates
                .iter()
                .all(|&(e, w)| e.index() < m && w.is_finite() && w >= 0.0),
            "weight updates must name real edges with finite, non-negative weights"
        );
        let custom = self
            .custom
            .as_mut()
            .expect("apply_weight_delta needs a custom-vector customization");
        let changed = &mut self.last.edges;
        changed.clear();
        for &(e, w) in updates {
            let slot = &mut custom[e.index()];
            if slot.to_bits() != w.to_bits() {
                *slot = w;
                changed.push(e);
            }
        }
        let custom: &[f64] = custom;
        let topo = &self.topo;
        let seeds = self.last.edges.iter().filter_map(|&e| topo.arc_of_edge(e));
        let (pending, row) = (&mut self.pending, &mut self.row);
        let arcs = &mut self.last.arcs;
        partial_customize(topo, &mut self.cols, pending, row, arcs, seeds, |e| {
            custom[e.index()]
        });
        // File the pass against the contents it started from.
        self.last.base = Some(std::mem::replace(&mut self.stamp, fresh_stamp()));
        self.last.arcs.len()
    }

    /// In-place form of [`CchTopology::customize_weights`], bit-identical
    /// to a fresh customization: the columns persist inside the index,
    /// and the stored custom vector's allocation is reused when the
    /// length matches.
    pub fn recustomize_weights(&mut self, g: &Graph, weights: &[f64]) {
        self.assert_same_graph(g);
        assert_eq!(
            weights.len(),
            self.edge_count(),
            "custom weight vector length must match the edge count"
        );
        assert!(
            weights.iter().all(|w| w.is_finite() && *w >= 0.0),
            "custom weights must be finite and non-negative"
        );
        match &mut self.custom {
            Some(c) if c.len() == weights.len() => c.copy_from_slice(weights),
            slot => *slot = Some(weights.to_vec()),
        }
        self.metric = None;
        self.rederive(|e| weights[e.index()]);
    }

    fn assert_same_graph(&self, g: &Graph) {
        assert_eq!(
            (self.vertex_count(), self.edge_count()),
            (g.vertex_count(), g.edge_count()),
            "CCH topology was built for a different graph"
        );
    }

    /// Shared tail of every full customization.
    fn rederive(&mut self, edge_cost: impl Fn(EdgeId) -> f64) {
        let Columns { weights, rules } = &mut self.cols;
        self.topo
            .derive_into(edge_cost, weights, rules, &mut self.row);
        self.stamp = fresh_stamp();
        self.last.base = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algo::ch::ChSearch;
    use crate::algo::dijkstra::shortest_path;
    use crate::generators::{grid_network, region_network, GridConfig, RegionConfig};
    use crate::graph::{EdgeAttrs, EdgeId, RoadCategory};
    use pathrank_testkit::prelude::*;

    fn region() -> Graph {
        region_network(&RegionConfig::small_test(), 11)
    }

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0)
    }

    #[test]
    fn cch_ranks_are_a_permutation() {
        let g = region();
        let topo = CchTopology::build(&g, &CchConfig::default());
        let mut ranks: Vec<u32> = topo.ranks().to_vec();
        ranks.sort_unstable();
        let expect: Vec<u32> = (0..g.vertex_count() as u32).collect();
        assert_eq!(ranks, expect, "ranks must be a permutation of 0..n");
        assert_eq!(topo.vertex_count(), g.vertex_count());
        assert_eq!(topo.edge_count(), g.edge_count());
        assert!(topo.arc_count() > 0);
        assert!(triangle_total(&topo) > 0);
    }

    /// Lower triangles over all arcs, by the merged enumeration.
    fn triangle_total(topo: &CchTopology) -> usize {
        (0..topo.arc_count())
            .map(|a| topo.triangles_of(a).count())
            .sum()
    }

    fn fnv1a64(data: &[u8]) -> u64 {
        data.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    /// The topology with every arc id replaced by what it names:
    /// ranks, then arcs sorted by `(from, to)`, each with its original
    /// edges and its lower triangles as `(from, mid, to)` in ascending
    /// mid rank.
    fn canonical_form(topo: &CchTopology) -> String {
        let ends: Vec<_> = topo.skel.arc_ends().collect();
        let mut order: Vec<usize> = (0..ends.len()).collect();
        order.sort_by_key(|&a| (ends[a].0 .0, ends[a].1 .0));
        let mut s = String::from("ranks");
        for r in topo.ranks() {
            s += &format!(" {r}");
        }
        for a in order {
            let (from, to) = ends[a];
            s += &format!("\n{} {} o", from.0, to.0);
            for e in topo.originals_of(a) {
                s += &format!(" {}", e.0);
            }
            s += " t";
            for (b, ..) in topo.triangles_of(a) {
                s += &format!(" ({} {} {})", from.0, ends[b as usize].1 .0, to.0);
            }
        }
        s
    }

    #[test]
    fn cch_flat_build_is_golden() {
        // One FNV-1a pin per map over a canonical form that names no arc
        // id — ranks, arcs by endpoints, their originals and triangles.
        // It was pinned before arcs were numbered by search slot, so it
        // holds every numbering to the same topology.
        let grid = GridConfig {
            nx: 24,
            ny: 24,
            ..GridConfig::small_test()
        };
        for (g, canonical) in [
            (region(), 0xa43b_d095_8bc7_14e8),
            (grid_network(&grid, 5), 0x6bb6_b6bd_786d_0b5c),
        ] {
            let topo = CchTopology::build(&g, &CchConfig::default());
            let form = canonical_form(&topo);
            assert_eq!(fnv1a64(form.as_bytes()), canonical, "topology drifted");
        }
    }

    #[test]
    fn cch_contract_without_the_winning_probe_inserts_the_same_arcs() {
        // The loop contracts a vertex right after the `priority` call that
        // let it win, and `contract` reuses that call's probe. Replaying
        // the loop's order with another vertex probed last each time makes
        // `contract` probe for itself; the arcs, in creation order (which
        // numbers the slots), must not differ.
        let g = region();
        let n = g.vertex_count();
        let mut looped = TopoBuilder::new(&g);
        contract_in_priority_order(n, 2, &mut looped);
        let mut order = vec![VertexId(0); n];
        for (v, &r) in (0u32..).zip(&looped.rank) {
            order[r as usize] = VertexId(v);
        }
        let mut replay = TopoBuilder::new(&g);
        let mut scratch = TopoScratch::default();
        for (r, &v) in (0u32..).zip(&order) {
            if let Some(&later) = order.get(r as usize + 1) {
                replay.priority(later, &mut scratch);
            }
            replay.contract(v, r, &mut scratch);
        }
        assert_eq!(replay.rank, looped.rank);
        assert!(replay.arcs == looped.arcs, "fill-in arcs differ");
    }

    #[test]
    fn cch_build_deterministic_across_thread_counts() {
        let g = region();
        let a = CchTopology::build(&g, &CchConfig { threads: 1 });
        let b = CchTopology::build(&g, &CchConfig { threads: 8 });
        assert_eq!(a.ranks(), b.ranks(), "ordering must not depend on threads");
        assert!(a == b, "topology must not depend on threads");
    }

    #[test]
    fn cch_customize_parallel_bitwise_identical() {
        // Topologies ordered by one and by eight workers customize to the
        // same bits on a grid large enough for the ordering loop's
        // initial sweep to split.
        let g = grid_network(
            &GridConfig {
                nx: 24,
                ny: 24,
                ..GridConfig::small_test()
            },
            5,
        );
        let seq = Arc::new(CchTopology::build(&g, &CchConfig { threads: 1 }));
        let par = Arc::new(CchTopology::build(&g, &CchConfig { threads: 8 }));
        for cost in [CostModel::Length, CostModel::TravelTime] {
            let a = seq.customize(&g, &cost);
            let b = par.customize(&g, &cost);
            assert_bit_identical(&a, &b, "customized weights must not depend on threads");
        }
    }

    #[test]
    fn cch_queries_match_dijkstra() {
        let g = region();
        let topo = Arc::new(CchTopology::build(&g, &CchConfig::default()));
        let mut search = ChSearch::new(g.vertex_count());
        for cost in [CostModel::Length, CostModel::TravelTime] {
            let cch = topo.customize(&g, &cost);
            let n = g.vertex_count() as u32;
            for (s, t) in [(0, n - 1), (1, n / 2), (n / 3, 2 * n / 3), (n - 1, 0)] {
                let (s, t) = (VertexId(s), VertexId(t));
                let expect = shortest_path(&g, s, t, cost).map(|p| p.cost(&g, cost));
                let got = cch.view().query_cost(&mut search, s, t);
                match (expect, got) {
                    (None, None) => {}
                    (Some(e), Some(c)) => assert!(close(e, c), "{e} vs {c}"),
                    other => panic!("reachability mismatch: {other:?}"),
                }
                if let Some((edges, vertices)) = cch.view().query_path(&mut search, s, t) {
                    assert_eq!(vertices.len(), edges.len() + 1);
                    assert_eq!(vertices[0], s);
                    assert_eq!(*vertices.last().unwrap(), t);
                    for (i, &e) in edges.iter().enumerate() {
                        let rec = g.edge(e);
                        assert_eq!(rec.from, vertices[i]);
                        assert_eq!(rec.to, vertices[i + 1]);
                    }
                }
            }
        }
    }

    /// The graph's travel-time column as a custom weight vector.
    fn travel_times(g: &Graph) -> Vec<f64> {
        CostModel::TravelTime.weights(g).to_vec()
    }

    #[test]
    fn cch_recustomize_after_speed_perturbation() {
        // Halving a speed doubles its travel time: every round doubles
        // the weight of every (3 + round)-th edge and customizes afresh.
        let g = region();
        let topo = Arc::new(CchTopology::build(&g, &CchConfig::default()));
        let mut search = ChSearch::new(g.vertex_count());
        let mut weights = travel_times(&g);
        for round in 0..3usize {
            for w in weights.iter_mut().step_by(3 + round) {
                *w *= 2.0;
            }
            let cch = topo.customize_weights(&g, &weights);
            let cost = CostModel::Custom(&weights);
            let n = g.vertex_count() as u32;
            for (s, t) in [(0, n - 1), (n / 4, 3 * n / 4)] {
                let (s, t) = (VertexId(s), VertexId(t));
                let expect = shortest_path(&g, s, t, cost).map(|p| p.cost(&g, cost));
                let got = cch.view().query_cost(&mut search, s, t);
                match (expect, got) {
                    (None, None) => {}
                    (Some(e), Some(c)) => assert!(close(e, c), "{e} vs {c}"),
                    other => panic!("reachability mismatch: {other:?}"),
                }
            }
        }
    }

    #[test]
    fn cch_custom_weights_gating_is_bitwise() {
        let g = region();
        let topo = Arc::new(CchTopology::build(&g, &CchConfig::default()));
        let weights: Vec<f64> = (0..g.edge_count()).map(|i| 1.0 + (i % 7) as f64).collect();
        let cch = topo.customize_weights(&g, &weights);
        assert!(cch.usable_for(&CostModel::Custom(&weights)));
        assert!(!cch.usable_for(&CostModel::Length));
        assert!(!cch.usable_for(&CostModel::TravelTime));
        // The index's own slice passes by identity, an equal vector
        // owned elsewhere by the bitwise fallback, and one ulp off is a
        // different metric.
        let own = cch.custom_weights().expect("customized from a vector");
        assert!(!std::ptr::eq(own, weights.as_slice()));
        assert!(cch.usable_for(&CostModel::Custom(own)));
        assert!(cch.usable_for(&CostModel::Custom(&weights.clone())));
        let mut other = weights.clone();
        other[0] = f64::from_bits(other[0].to_bits() + 1);
        assert!(!cch.usable_for(&CostModel::Custom(&other)));
        assert!(!cch.usable_for(&CostModel::Custom(&own[1..])));
        let mut search = ChSearch::new(g.vertex_count());
        let n = g.vertex_count() as u32;
        for (s, t) in [(0, n - 1), (n / 2, n / 5)] {
            let (s, t) = (VertexId(s), VertexId(t));
            let cost = CostModel::Custom(&weights);
            let expect = shortest_path(&g, s, t, cost).map(|p| p.cost(&g, cost));
            let got = cch.view().query_cost(&mut search, s, t);
            match (expect, got) {
                (None, None) => {}
                (Some(e), Some(c)) => assert!(close(e, c), "{e} vs {c}"),
                other => panic!("reachability mismatch: {other:?}"),
            }
        }
        let length = topo.customize(&g, &CostModel::Length);
        assert!(length.usable_for(&CostModel::Length));
        assert!(!length.usable_for(&CostModel::Custom(&weights)));
    }

    /// Full bitwise comparison of two customized indexes: arc weights
    /// and expansion rules.
    fn assert_bit_identical(a: &Cch, b: &Cch, what: &str) {
        let bits = |w: &[f64]| w.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
        assert_eq!(
            bits(&a.cols.weights),
            bits(&b.cols.weights),
            "{what}: arc weights"
        );
        assert_eq!(a.cols.rules, b.cols.rules, "{what}: expansion rules");
    }

    #[test]
    fn cch_apply_delta_bit_identical_to_full_customize() {
        let g = region();
        let topo = Arc::new(CchTopology::build(&g, &CchConfig::default()));
        let mut weights = travel_times(&g);
        let mut partial = topo.customize_weights(&g, &weights);
        // Chained sparse deltas: the partial index must track the full
        // one bit for bit through every delta.
        for round in 0..4usize {
            let factor = if round % 2 == 0 { 2.0 } else { 1.0 / 1.9 };
            let updates: Vec<(EdgeId, f64)> = (round..g.edge_count())
                .step_by(7)
                .map(|i| (EdgeId(i as u32), weights[i] * factor))
                .collect();
            for &(e, w) in &updates {
                weights[e.index()] = w;
            }
            let recomputed = partial.apply_weight_delta(&updates);
            assert!(recomputed > 0, "round {round}: delta must touch arcs");
            assert!(
                recomputed < topo.arc_count(),
                "round {round}: a sparse delta must not recompute everything"
            );
            let full = topo.customize_weights(&g, &weights);
            assert_bit_identical(&partial, &full, &format!("round {round}"));
            assert!(partial.bit_identical(&full), "round {round}");
        }
    }

    #[test]
    fn cch_apply_delta_empty_and_echo_deltas_are_noops() {
        let g = region();
        let topo = Arc::new(CchTopology::build(&g, &CchConfig::default()));
        let weights = travel_times(&g);
        let mut cch = topo.customize_weights(&g, &weights);
        assert_eq!(cch.apply_weight_delta(&[]), 0);
        // An echo (the stored weight again) seeds nothing.
        let e = EdgeId(0);
        assert_eq!(cch.apply_weight_delta(&[(e, weights[e.index()])]), 0);
        let full = topo.customize_weights(&g, &weights);
        assert_bit_identical(&cch, &full, "echo delta");
    }

    #[test]
    fn cch_apply_weight_delta_bit_identical_and_regates() {
        let g = region();
        let topo = Arc::new(CchTopology::build(&g, &CchConfig::default()));
        let mut weights: Vec<f64> = (0..g.edge_count()).map(|i| 1.0 + (i % 9) as f64).collect();
        let mut sparse = topo.customize_weights(&g, &weights);
        // Sparse updates, including a duplicate where the later entry
        // must win.
        let updates = vec![
            (EdgeId(2), 25.0),
            (EdgeId(5), 0.5),
            (EdgeId(2), 3.25),
            (EdgeId((g.edge_count() - 1) as u32), 11.0),
        ];
        for &(e, w) in &updates {
            weights[e.index()] = w;
        }
        let recomputed = sparse.apply_weight_delta(&updates);
        assert!(recomputed > 0);
        let full = topo.customize_weights(&g, &weights);
        assert_bit_identical(&sparse, &full, "weight delta");
        assert!(
            sparse.usable_for(&CostModel::Custom(&weights)),
            "gating must follow the updated vector"
        );
        let mut search = ChSearch::new(g.vertex_count());
        let n = g.vertex_count() as u32;
        for (s, t) in [(0, n - 1), (n / 2, n / 5)] {
            let (s, t) = (VertexId(s), VertexId(t));
            let cost = CostModel::Custom(&weights);
            let expect = shortest_path(&g, s, t, cost).map(|p| p.cost(&g, cost));
            let got = sparse.view().query_cost(&mut search, s, t);
            match (expect, got) {
                (None, None) => {}
                (Some(e), Some(c)) => assert!(close(e, c), "{e} vs {c}"),
                other => panic!("reachability mismatch: {other:?}"),
            }
        }
    }

    #[test]
    fn cch_clone_from_replays_only_the_last_delta() {
        let g = region();
        let topo = Arc::new(CchTopology::build(&g, &CchConfig::default()));
        let weights: Vec<f64> = (0..g.edge_count()).map(|i| 1.0 + (i % 9) as f64).collect();
        let mut ahead = topo.customize_weights(&g, &weights);
        let mut behind = ahead.clone();
        assert!(behind.pending.is_empty() && behind.heap_bytes() == ahead.heap_bytes());
        ahead.apply_weight_delta(&[(EdgeId(2), 25.0), (EdgeId(5), 0.5)]);
        // A sentinel on an arc the delta never reached survives the
        // catch-up: only logged entries are copied.
        let untouched = (0..topo.arc_count())
            .find(|a| !ahead.last.arcs.contains(&(*a as u32)))
            .expect("a sparse delta leaves arcs alone");
        let honest = std::mem::replace(&mut behind.cols.weights[untouched], -1.0);
        let allocation = behind.cols.weights.as_ptr();
        behind.clone_from(&ahead);
        assert_eq!(
            behind.cols.weights[untouched], -1.0,
            "copied a whole column"
        );
        behind.cols.weights[untouched] = honest;
        assert_bit_identical(&behind, &ahead, "replayed delta");
        assert!(behind.bit_identical(&ahead));
        // Two deltas behind, or behind a full pass, the log does not
        // apply and every column is copied — into the same allocation.
        ahead.apply_weight_delta(&[(EdgeId(7), 3.0)]);
        ahead.apply_weight_delta(&[(EdgeId(8), 4.0)]);
        behind.cols.weights[untouched] = -1.0;
        behind.clone_from(&ahead);
        assert!(behind.bit_identical(&ahead), "lagging by two deltas");
        ahead.recustomize_weights(&g, &weights);
        behind.cols.weights[untouched] = -1.0;
        behind.clone_from(&ahead);
        assert!(behind.bit_identical(&ahead), "lagging by a full pass");
        assert_eq!(behind.cols.weights.as_ptr(), allocation);
    }

    #[test]
    fn cch_recustomize_in_place_bit_identical() {
        let g = region();
        let topo = Arc::new(CchTopology::build(&g, &CchConfig::default()));
        // The first round also switches a metric customization to a
        // custom vector in place.
        let mut live = topo.customize(&g, &CostModel::TravelTime);
        let mut weights = travel_times(&g);
        for round in 0..3usize {
            for w in weights.iter_mut().step_by(4 + round) {
                *w /= 0.75;
            }
            live.recustomize_weights(&g, &weights);
            assert!(live.usable_for(&CostModel::Custom(&weights)));
            assert!(!live.usable_for(&CostModel::TravelTime));
            let full = topo.customize_weights(&g, &weights);
            assert_bit_identical(&live, &full, &format!("recustomize round {round}"));
            assert!(live.bit_identical(&full), "round {round}");
        }
    }

    /// Textbook customization, blind to the topology's layout: every arc
    /// starts at its cheapest parallel original (ascending `EdgeId`,
    /// strict `<`); then arcs in ascending rank of their lower endpoint
    /// relax their lower triangles, found by trying every vertex ranked
    /// below both endpoints, in ascending rank, for a `u -> v` and a
    /// `v -> w` arc. Returns the triangle lists it relaxed (with the
    /// mid's rank), the weights and the expansion rules.
    #[allow(clippy::type_complexity)]
    fn brute_force_customize(
        topo: &CchTopology,
        g: &Graph,
        cost: impl Fn(EdgeId) -> f64,
    ) -> (Vec<Vec<(u32, u32, u32)>>, Vec<f64>, Vec<ArcRule>) {
        let ends: Vec<_> = topo.skel.arc_ends().collect();
        let rank = topo.ranks();
        let arc_of: std::collections::HashMap<_, _> = ends.iter().copied().zip(0u32..).collect();
        let mut by_rank = vec![VertexId(0); rank.len()];
        for (v, &r) in rank.iter().enumerate() {
            by_rank[r as usize] = VertexId(v as u32);
        }
        let mut weights = vec![f64::INFINITY; ends.len()];
        let mut rules = vec![ArcRule(u32::MAX); ends.len()];
        for e in (0..g.edge_count() as u32).map(EdgeId) {
            let rec = g.edge(e);
            if let Some(&a) = arc_of.get(&(rec.from, rec.to)) {
                if cost(e) < weights[a as usize] {
                    weights[a as usize] = cost(e);
                    rules[a as usize] = ArcRule::original(e);
                }
            }
        }
        let lower = |a: usize| rank[ends[a].0.index()].min(rank[ends[a].1.index()]);
        let mut order: Vec<usize> = (0..ends.len()).collect();
        order.sort_by_key(|&a| lower(a));
        let mut triangles = vec![Vec::new(); ends.len()];
        for a in order {
            let (u, w) = ends[a];
            for &v in &by_rank[..lower(a) as usize] {
                let (Some(&b), Some(&c)) = (arc_of.get(&(u, v)), arc_of.get(&(v, w))) else {
                    continue;
                };
                let mid = rank[v.index()];
                triangles[a].push((b, c, mid));
                let cand = weights[b as usize] + weights[c as usize];
                if cand < weights[a] {
                    weights[a] = cand;
                    rules[a] = ArcRule::shortcut(mid);
                }
            }
        }
        (triangles, weights, rules)
    }

    /// The per-mid sweep and the merged enumeration against the textbook
    /// pass, bit for bit, under both metrics and a tie-heavy integer
    /// weight vector (ties are where relaxation order shows in the
    /// expansion rules).
    fn assert_matches_brute_force(g: &Graph) {
        let topo = Arc::new(CchTopology::build(g, &CchConfig::default()));
        let custom: Vec<f64> = (0..g.edge_count()).map(|i| 1.0 + (i % 3) as f64).collect();
        let costs = [
            CostModel::Length,
            CostModel::TravelTime,
            CostModel::Custom(&custom),
        ];
        for cost in costs {
            let cch = topo.customize(g, &cost);
            let (triangles, weights, rules) =
                brute_force_customize(&topo, g, |e| cost.edge_cost(g, e));
            let mut row = ArcRow::default();
            for (a, expect) in triangles.iter().enumerate() {
                let got: Vec<(u32, u32, u32)> = topo.triangles_of(a).collect();
                assert_eq!(&got, expect, "arc {a}: triangle enumeration");
                let stamped: Vec<(u32, u32, u32)> =
                    topo.stamped_triangles_of(a, &mut row).collect();
                assert_eq!(&stamped, expect, "arc {a}: stamped triangle enumeration");
            }
            let bits = |w: &[f64]| w.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
            assert_eq!(bits(&cch.cols.weights), bits(&weights), "{cost:?}: weights");
            assert_eq!(cch.cols.rules, rules, "{cost:?}: expansion rules");
        }
    }

    /// A multigraph on `n` vertices keeping every repeated pair as a
    /// parallel edge.
    fn multigraph(n: usize, edges: &[(usize, usize, u32)]) -> Graph {
        use crate::geometry::Point;
        let mut b = crate::builder::GraphBuilder::new();
        let vs: Vec<VertexId> = (0..n)
            .map(|i| b.add_vertex(Point::new((i * 137 % 700) as f64, (i * 311 % 900) as f64)))
            .collect();
        let categories = [
            RoadCategory::Arterial,
            RoadCategory::Rural,
            RoadCategory::Residential,
        ];
        for &(f, t, w) in edges {
            let (f, t) = (f % n, t % n);
            if f != t {
                let attrs = EdgeAttrs::with_default_speed(f64::from(w), categories[w as usize % 3]);
                b.add_edge(vs[f], vs[t], attrs).unwrap();
            }
        }
        b.build()
    }

    /// Arc ids are search slots: the endpoints read off every slot name
    /// one arc per vertex pair, and every dependent a support's stamped
    /// lookup finds is the arc closing the two legs through the
    /// support's lower end, with an id above both.
    fn assert_numbered_by_slot(topo: &CchTopology) {
        let skel = &topo.skel;
        let ends: Vec<_> = (0..topo.arc_count()).map(|a| skel.slot_ends(a)).collect();
        let pairs: std::collections::HashSet<_> = ends.iter().collect();
        assert_eq!(pairs.len(), ends.len(), "two slots hold one arc");
        let mut row = ArcRow::default();
        let mut links = 0;
        for a in 0..topo.arc_count() {
            let v = skel.rank_of_slot(a) as u32;
            for (owner, co) in topo.dependents_of(a, &mut row) {
                // `b = p -> v` and `c = v -> q`, whichever of the two `a` is.
                let (b, c) = if ends[a].1 == v {
                    (a, co as usize)
                } else {
                    (co as usize, a)
                };
                assert_eq!((ends[b].1, ends[c].0), (v, v), "legs ({b}, {c}) miss {v}");
                assert_eq!(
                    ends[owner as usize],
                    (ends[b].0, ends[c].1),
                    "legs ({b}, {c})"
                );
                assert!(
                    owner as usize > b.max(c),
                    "owner {owner} below leg {b} or {c}"
                );
                links += 1;
            }
        }
        assert_eq!(
            links,
            2 * triangle_total(topo),
            "a triangle under each support"
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Multigraphs dense in repeats, so parallel edges, one-way edges
        /// and 2-cycles (leg pairs that close no triangle) all occur.
        #[test]
        fn cch_per_mid_customization_matches_brute_force_triangles(
            n in 2usize..10,
            edges in pathrank_testkit::collection::vec((0usize..10, 0usize..10, 1u32..60), 1..48),
        ) {
            assert_matches_brute_force(&multigraph(n, &edges));
        }

        #[test]
        fn cch_arc_ids_are_search_slots_on_multigraphs(
            n in 2usize..10,
            edges in pathrank_testkit::collection::vec((0usize..10, 0usize..10, 1u32..60), 1..48),
        ) {
            assert_numbered_by_slot(&CchTopology::build(&multigraph(n, &edges), &CchConfig::default()));
        }
    }

    #[test]
    fn cch_arc_ids_are_search_slots_on_the_region() {
        assert_numbered_by_slot(&CchTopology::build(&region(), &CchConfig::default()));
    }

    #[test]
    fn cch_per_mid_customization_matches_brute_force_triangles_on_the_region() {
        assert_matches_brute_force(&region());
    }

    #[test]
    fn cch_empty_graph() {
        let g = crate::builder::GraphBuilder::new().build();
        let topo = Arc::new(CchTopology::build(&g, &CchConfig::default()));
        assert_eq!(topo.arc_count(), 0);
        let cch = topo.customize(&g, &CostModel::Length);
        assert!(!cch.usable_for(&CostModel::Length));
    }
}

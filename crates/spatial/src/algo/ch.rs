//! Contraction hierarchies: preprocessing-based exact point-to-point
//! routing, an order of magnitude past what ALT's goal direction buys.
//!
//! A contraction hierarchy (CH) assigns every vertex a *rank* and
//! "contracts" vertices in rank order: removing a vertex from the
//! remaining graph and inserting **shortcut arcs** between its neighbours
//! wherever the removed vertex was on their only shortest path (decided
//! by a local *witness search*). A point-to-point query then runs two
//! tiny Dijkstra searches that only ever relax arcs leading to
//! higher-ranked vertices — forward from the source, backward from the
//! target — and meets near the top of the hierarchy; the best meeting
//! vertex closes an exact shortest path. Shortcuts *unpack* recursively
//! into the original [`EdgeId`] sequence, so callers still receive real
//! [`crate::path::Path`]s.
//!
//! Design choices mirroring [`crate::algo::landmarks::LandmarkTable`]:
//!
//! * **Exactness is metric-bound.** The hierarchy is built under one
//!   [`LandmarkMetric`]; queries under any other cost model (notably
//!   [`CostModel::Custom`]) must not consult it —
//!   [`ContractionHierarchy::usable_for`] is the per-query gate the
//!   engine checks, falling back to ALT or plain search.
//! * **Constrained searches never use the CH.** Unlike ALT lower bounds,
//!   which survive banned vertex/edge sets, shortcuts bake full-graph
//!   paths into single arcs: a banned edge may hide inside a shortcut.
//!   The engine therefore keeps Yen spur searches on their ALT path and
//!   reserves the CH for unconstrained probes.
//! * **Deterministic, parallel-friendly build: an estimate orders, a
//!   search proves** (the split of Geisberger et al.'s CH paper). The
//!   node order is edge-difference with lazy updates and lowest-id
//!   tie-breaks, where "shortcuts needed" is a search-free estimate (a
//!   pair of neighbours counts unless one or two arcs around the vertex
//!   are short enough), computed across `threads` workers initially and
//!   again whenever a vertex is popped. Witness searches run once per
//!   vertex, at its contraction, and they alone decide its shortcuts:
//!   the estimate may over-count, which can misplace a vertex but never
//!   drop a shortcut. A search stops at its verdict: once every target
//!   is witnessed or out of reach (the popped key plus the cheapest arc
//!   into it exceeds the path through the contracted vertex), checked in
//!   O(1) amortised per pop. Settling every target would change no
//!   verdict, and what the search settles is a prefix of what such a
//!   search settles (`Builder::witness_search`). Bit-identical for any
//!   thread count (golden fingerprints in the unit tests).
//! * **One arc numbering, nothing stored that a slot implies.** The build
//!   grows an arc pool, but the finished hierarchy keeps none: an arc's
//!   id is its slot in the rank-space search CSR, one slot per vertex
//!   pair and direction. A search entry is the other endpoint's rank (4
//!   bytes); weight and expansion word are columns indexed by slot; the
//!   endpoints are the segment's rank and the entry. A shortcut's
//!   expansion word is its mid's rank, and its legs are the mid's slots
//!   to its two ends (`ContractionHierarchy::assemble` keeps exactly
//!   the arcs contraction joined).
//!
//! A witness search is capped ([`ChConfig::witness_settle_cap`]); hitting
//! the cap may insert a redundant shortcut but can never drop a needed
//! one, so caps trade index size for build time without touching
//! correctness.

use std::collections::BinaryHeap;

use crate::algo::landmarks::LandmarkMetric;
use crate::algo::order::{contract_in_priority_order, Contract};
use crate::graph::{CostModel, EdgeId, Graph, VertexId};
use crate::util::{group_by_key, MinCost};

/// Parameters of hierarchy construction.
#[derive(Debug, Clone, Copy)]
pub struct ChConfig {
    /// Worker threads for the initial-priority sweep (one search-free
    /// estimate per vertex); the contraction loop is sequential.
    pub threads: usize,
    /// Settled-vertex cap per witness search. Larger caps prove more
    /// witnesses (fewer shortcuts, smaller index) at higher build cost;
    /// any cap is exact. The ordering estimate runs no search.
    pub witness_settle_cap: usize,
}

impl Default for ChConfig {
    fn default() -> Self {
        ChConfig {
            threads: 4,
            witness_settle_cap: 128,
        }
    }
}

/// What an arc expands to: an original graph edge, or the two arcs
/// through the vertex whose contraction inserted it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChArcKind {
    /// A real edge of the underlying graph.
    Original(EdgeId),
    /// A shortcut through the given *mid* vertex, ranked below both
    /// ends: expands to the arc `from -> mid` followed by `mid -> to`.
    Shortcut(VertexId),
}

/// The stored form of an arc's expansion, one word per arc per
/// weighting: the mid's *rank* for a shortcut, or the edge id with
/// [`ArcRule::ORIGINAL`] set for an original edge. The legs of a
/// shortcut are not named: each is the one arc between its ends, found
/// in the mid's search segment ([`Skeleton::find`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ArcRule(pub(crate) u32);

const _: () = assert!(std::mem::size_of::<ArcRule>() == 4);

impl ArcRule {
    /// Tags an original edge; ranks and edge ids stay below it.
    pub(crate) const ORIGINAL: u32 = 1 << 31;

    pub(crate) fn original(e: EdgeId) -> Self {
        ArcRule(e.0 | Self::ORIGINAL)
    }

    pub(crate) fn shortcut(mid: u32) -> Self {
        ArcRule(mid)
    }

    /// The edge of an original arc; `None` for a shortcut, whose word
    /// is its mid's rank.
    #[inline]
    pub(crate) fn edge(self) -> Option<EdgeId> {
        (self.0 & Self::ORIGINAL != 0).then_some(EdgeId(self.0 & !Self::ORIGINAL))
    }
}

/// One arc of the hierarchy's search graph (original edge or shortcut).
#[derive(Debug, Clone, Copy)]
pub struct ChArc {
    /// Tail vertex.
    pub from: VertexId,
    /// Head vertex.
    pub to: VertexId,
    /// Arc weight under the build metric (for shortcuts, the sum of the
    /// two leg weights).
    pub weight: f64,
    /// Expansion rule.
    pub kind: ChArcKind,
}

/// Slots per entry of `Skeleton::slot_rank`.
const SLOTS_PER_BUCKET: usize = 16;

/// Entries [`Skeleton::find`] compares at once.
const FIND_WINDOW: usize = 8;

/// The weight-independent half of a hierarchy: ranks and the rank-space
/// search CSR, whose slots number the arcs — an arc's id *is* its slot,
/// and its endpoints are read off the slot. A [`ContractionHierarchy`]
/// owns one beside its weights; every customization of a
/// [`crate::algo::cch::CchTopology`] shares the topology's.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Skeleton {
    /// `rank[v]` = contraction position of `v` (0 contracted first).
    pub(crate) rank: Vec<u32>,
    /// `order[r]` = the vertex of rank `r`, the inverse of `rank`.
    pub(crate) order: Vec<VertexId>,
    // Search graph in CSR form, one contiguous segment per rank holding
    // the *upward out-arcs* (to higher-ranked heads) followed by the
    // *downward in-arcs* (from higher-ranked tails). The forward search
    // expands the first part and stall-checks the second; the backward
    // search does the reverse — so every settle reads one contiguous
    // region of `seg_arcs` and of the matching weight column (the query
    // is cache-line-bound). There is one slot per vertex pair and
    // direction. Rank `r`'s upward half is `halves[2r]..halves[2r + 1]`,
    // its downward half `..halves[2r + 2]`: one array, so a segment's
    // bounds share a cache line ([`Skeleton::bounds`]).
    halves: Vec<u32>,
    pub(crate) seg_arcs: Vec<SearchArc>,
    /// Slot -> rank, one entry per [`SLOTS_PER_BUCKET`] slots: the rank
    /// whose segment holds the bucket's first slot, from where a slot's
    /// own rank is a step or two along the segment bounds
    /// ([`Skeleton::rank_of_slot`]).
    slot_rank: Vec<u32>,
}

impl Skeleton {
    /// Lays out the skeleton from the rank array and the search arcs
    /// grouped into halves (`halves[2r]..halves[2r + 1]` upward,
    /// `..halves[2r + 2]` downward).
    pub(crate) fn new(rank: Vec<u32>, halves: Vec<u32>, seg_arcs: Vec<SearchArc>) -> Self {
        let n = rank.len();
        let mut order = vec![VertexId(0); n];
        for (v, &r) in (0u32..).zip(&rank) {
            order[r as usize] = VertexId(v);
        }
        let mut slot_rank = Vec::with_capacity(seg_arcs.len() / SLOTS_PER_BUCKET + 1);
        let mut r = 0usize;
        for first in (0..=seg_arcs.len()).step_by(SLOTS_PER_BUCKET) {
            while r + 1 < n && halves[2 * r + 2] as usize <= first {
                r += 1;
            }
            slot_rank.push(r as u32);
        }
        Skeleton {
            rank,
            order,
            halves,
            seg_arcs,
            slot_rank,
        }
    }

    pub(crate) fn heap_bytes(&self) -> usize {
        let per_rank = self.rank.len() + self.order.len() + self.halves.len();
        4 * (per_rank + self.slot_rank.len() + self.seg_arcs.len())
    }

    /// `(start, mid, end)` of rank `r`'s segment: its upward half is
    /// `start..mid`, its downward half `mid..end`.
    #[inline]
    pub(crate) fn bounds(&self, r: usize) -> (u32, u32, u32) {
        let b = &self.halves[2 * r..2 * r + 3];
        (b[0], b[1], b[2])
    }

    /// The rank whose segment holds `slot` — the arc's lower endpoint.
    #[inline]
    pub(crate) fn rank_of_slot(&self, slot: usize) -> usize {
        let mut r = self.slot_rank[slot / SLOTS_PER_BUCKET] as usize;
        while self.halves[2 * r + 2] as usize <= slot {
            r += 1;
        }
        r
    }

    /// `(tail rank, head rank)` of the arc in `slot`.
    #[inline]
    pub(crate) fn slot_ends(&self, slot: usize) -> (u32, u32) {
        let r = self.rank_of_slot(slot) as u32;
        let other = self.seg_arcs[slot].other;
        if slot < self.halves[2 * r as usize + 1] as usize {
            (r, other)
        } else {
            (other, r)
        }
    }

    /// `(tail, head)` of every arc, in slot order.
    pub(crate) fn arc_ends(&self) -> impl ExactSizeIterator<Item = (VertexId, VertexId)> + '_ {
        (0..self.seg_arcs.len()).map(|slot| {
            let (tail, head) = self.slot_ends(slot);
            (self.order[tail as usize], self.order[head as usize])
        })
    }

    /// The slot in `lo..hi`, one half of a segment ([`Skeleton::bounds`]),
    /// whose entry names rank `other` (a pair has one slot per
    /// direction). Halves are short — four entries on average on the
    /// 43k map — so a window of [`FIND_WINDOW`] entries from `lo` is
    /// compared branch-free: an early-exit scan mispredicts its exit once
    /// per call, and unpacking calls this twice per shortcut.
    #[inline]
    pub(crate) fn find(&self, (lo, hi): (u32, u32), other: u32) -> Option<u32> {
        let (lo, hi) = (lo as usize, hi as usize);
        let window = self.seg_arcs.get(lo..lo + FIND_WINDOW);
        let Some(window) = window.filter(|_| hi - lo <= FIND_WINDOW) else {
            let pos = self.seg_arcs[lo..hi]
                .iter()
                .position(|sa| sa.other == other)?;
            return Some((lo + pos) as u32);
        };
        let hits = window
            .iter()
            .enumerate()
            .fold(0u32, |m, (i, sa)| m | u32::from(sa.other == other) << i);
        let hits = hits & ((1 << (hi - lo)) - 1);
        (hits != 0).then(|| (lo as u32) + hits.trailing_zeros())
    }
}

/// One adjacency entry of the query-time search graphs: the *rank* of
/// the arc's other endpoint — head on upward entries, tail on downward
/// ones (the query loop runs entirely in rank space, see
/// [`ContractionHierarchy::assemble`]). The entry's position is the
/// arc's id; its weight and expansion rule sit at the same index of
/// separate columns, so a live re-weighting writes those and never
/// copies structure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct SearchArc {
    pub(crate) other: u32,
}

const _: () = assert!(std::mem::size_of::<SearchArc>() == 4);

/// What the query, unpack and many-to-many loops read: a `Skeleton`
/// plus the two columns they need of one weighting, both indexed by
/// slot — expansion rules and weights. [`ContractionHierarchy::view`]
/// and [`crate::algo::cch::Cch::view`] both produce it, so each loop is
/// written once.
#[derive(Debug, Clone, Copy)]
pub struct HierarchyView<'a> {
    pub(crate) skel: &'a Skeleton,
    pub(crate) rules: &'a [ArcRule],
    pub(crate) seg_weights: &'a [f64],
}

/// A built contraction hierarchy over one graph and one metric.
///
/// Build once per (graph, metric), wrap in an `Arc`, and hand a clone to
/// every worker's `QueryEngine::with_ch` — the index is immutable and
/// `Sync`, so sharing is free. Queries need a per-worker [`ChSearch`]
/// scratch state (the engine owns one lazily).
#[derive(Debug, Clone)]
pub struct ContractionHierarchy {
    metric: LandmarkMetric,
    /// Edge count of the graph the hierarchy was built for (attach-time
    /// fingerprint against wrong-graph indexes).
    m: usize,
    skel: Skeleton,
    /// Expansion rule of `skel.seg_arcs[i]`.
    rules: Vec<ArcRule>,
    /// Weight of `skel.seg_arcs[i]` under the build metric.
    seg_weights: Vec<f64>,
}

/// Per-vertex slot of a [`ChSide`]: stamp, distance and parent packed
/// into one 16-byte entry so a vertex touch costs one cache line, not
/// three (the query is memory-bound on exactly these random accesses).
/// Slots are indexed by *rank*, not vertex id — see
/// [`ContractionHierarchy::assemble`].
#[derive(Debug, Clone, Copy)]
struct ChEntry {
    /// `(last-touching epoch << 1) | settled-bit`.
    stamp: u32,
    /// Rank that reached the vertex; `u32::MAX` marks the search root.
    parent: u32,
    /// Tentative (then final) distance in the current epoch.
    dist: f64,
}

/// Epoch-stamped scratch state for one direction of a CH query
/// (`pub(crate)`: also the per-sweep state of the bucket-based
/// many-to-many module, [`crate::algo::m2m`]).
#[derive(Debug, Clone)]
pub(crate) struct ChSide {
    epoch: u32,
    entries: Vec<ChEntry>,
    pub(crate) heap: BinaryHeap<MinCost<VertexId>>,
    /// Lifetime settle count across every query on this side — plain
    /// increments mirroring `SearchSpace`'s work counters, differenced
    /// by the engine for per-query work reporting.
    settled_total: u64,
    /// Lifetime relaxation (enqueue) count.
    pushed_total: u64,
}

impl ChSide {
    pub(crate) fn new(n: usize) -> Self {
        ChSide {
            epoch: 0,
            entries: vec![
                ChEntry {
                    stamp: 0,
                    parent: u32::MAX,
                    dist: f64::INFINITY,
                };
                n
            ],
            heap: BinaryHeap::new(),
            settled_total: 0,
            pushed_total: 0,
        }
    }

    pub(crate) fn begin(&mut self) {
        // The 31-bit epoch wraps after ~2^31 queries; re-zeroing the
        // stamps then keeps the invalidation sound at amortised zero
        // cost.
        if self.epoch >= (u32::MAX >> 1) - 1 {
            for e in self.entries.iter_mut() {
                e.stamp = 0;
            }
            self.epoch = 0;
        }
        self.epoch += 1;
        self.heap.clear();
    }

    #[inline]
    pub(crate) fn reached(&self, v: VertexId) -> bool {
        self.entries[v.index()].stamp >> 1 == self.epoch
    }

    #[inline]
    pub(crate) fn dist(&self, v: VertexId) -> f64 {
        let e = &self.entries[v.index()];
        if e.stamp >> 1 == self.epoch {
            e.dist
        } else {
            f64::INFINITY
        }
    }

    #[inline]
    pub(crate) fn parent(&self, v: VertexId) -> u32 {
        self.entries[v.index()].parent
    }

    #[inline]
    pub(crate) fn is_settled(&self, v: VertexId) -> bool {
        self.entries[v.index()].stamp == (self.epoch << 1) | 1
    }

    #[inline]
    pub(crate) fn settle(&mut self, v: VertexId) {
        self.entries[v.index()].stamp |= 1;
        self.settled_total += 1;
    }

    #[inline]
    pub(crate) fn relax(&mut self, v: VertexId, d: f64, parent: u32) {
        self.entries[v.index()] = ChEntry {
            stamp: self.epoch << 1,
            dist: d,
            parent,
        };
        self.pushed_total += 1;
    }

    /// Stall-on-demand: whether the label `d` is beaten through one of
    /// the opposite-direction `arcs` (weights in the parallel column).
    #[inline]
    pub(crate) fn stalled(&self, arcs: &[SearchArc], weights: &[f64], d: f64) -> bool {
        let mut pairs = arcs.iter().zip(weights);
        pairs.any(|(sa, &w)| self.dist(VertexId(sa.other)) + w < d)
    }
}

/// Reusable per-worker scratch state for CH queries: two stamped search
/// sides plus the unpack buffers. Create once
/// ([`ChSearch::new`] with the graph's vertex count) and reuse across
/// queries — steady-state queries perform no `O(V)` allocation, matching
/// the engine's `SearchSpace` discipline.
#[derive(Debug, Clone)]
pub struct ChSearch {
    fwd: ChSide,
    bwd: ChSide,
    /// Unpacked original-edge sequence of the last successful query.
    edge_buf: Vec<EdgeId>,
    /// Matching vertex sequence (`edge_buf.len() + 1` entries), emitted
    /// during unpacking so path assembly never re-reads the graph.
    vertex_buf: Vec<VertexId>,
    unpack: Unpack,
}

/// Scratch of [`HierarchyView::expand`]: the path's arcs as a list of
/// `(slot or expansion word, tail rank, head rank)` nodes chained in path
/// order by `link` (`u32::MAX` ends it), and the nodes of the current
/// level still to expand.
#[derive(Debug, Clone, Default)]
struct Unpack {
    nodes: Vec<(u32, u32, u32)>,
    link: Vec<u32>,
    pending: Vec<u32>,
    shortcuts: Vec<u32>,
}

impl ChSearch {
    /// Creates scratch state for graphs with `n` vertices.
    pub fn new(n: usize) -> Self {
        ChSearch {
            fwd: ChSide::new(n),
            bwd: ChSide::new(n),
            edge_buf: Vec::new(),
            vertex_buf: Vec::new(),
            unpack: Unpack::default(),
        }
    }

    /// Number of vertex slots.
    pub fn capacity(&self) -> usize {
        self.fwd.entries.len()
    }

    /// Lifetime `(settled vertices, heap pushes)` summed over both
    /// search sides; monotone, never reset (see
    /// [`crate::algo::engine::SearchSpace::work_counters`]).
    pub fn work_counters(&self) -> (u64, u64) {
        (
            self.fwd.settled_total + self.bwd.settled_total,
            self.fwd.pushed_total + self.bwd.pushed_total,
        )
    }
}

/// Build-time working state: dynamic adjacency among uncontracted
/// vertices, in arc-index form over the growing arc pool.
struct Builder {
    arcs: Vec<ChArc>,
    /// Per uncontracted vertex, its arcs to and from uncontracted
    /// vertices and no others: `contract` prunes the neighbours' lists
    /// and frees the vertex's own, so no walk over them checks ranks.
    out_adj: Vec<Vec<u32>>,
    in_adj: Vec<Vec<u32>>,
    /// `u32::MAX` while uncontracted, final rank afterwards.
    rank: Vec<u32>,
    /// Contracted-neighbour count (the "deleted neighbours" uniformity
    /// term of the priority).
    deleted_neighbors: Vec<u32>,
    /// Hierarchy depth below the vertex (`max(level of contracted
    /// neighbours) + 1`): penalising it keeps the hierarchy flat, which
    /// directly bounds how many arcs a query's upward closure crosses.
    level: Vec<u32>,
    cap: usize,
}

/// Scratch of the estimate and the witness searches; per worker during
/// the parallel initial-priority sweep, one for the sequential
/// contraction loop.
#[derive(Default)]
struct WitnessSpace {
    epoch: u64,
    /// `(last-touching epoch << 1) | settled-bit` per vertex.
    stamp: Vec<u64>,
    dist: Vec<f64>,
    heap: BinaryHeap<MinCost<VertexId>>,
    /// Deduplicated `(neighbor, best arc, best weight)` gather buffers.
    ins: Vec<(VertexId, u32, f64)>,
    outs: Vec<(VertexId, u32, f64)>,
    /// The witness searches' targets, ascending by `dvw - entry`
    /// ([`Builder::witness_search`]).
    targets: Vec<Target>,
    /// What the last [`Builder::plan_contraction`] proved needed:
    /// `(in arc, out arc, shortcut weight)`.
    needed: Vec<(u32, u32, f64)>,
    /// [`Builder::plan_contraction`] calls made with this space.
    proofs: usize,
    /// Lifetime witness-search work: vertices settled, and out-arcs of
    /// settled vertices scanned.
    settles: u64,
    relaxations: u64,
}

/// An out-neighbour `w` of the vertex `v` being contracted, as its
/// witness searches see it.
#[derive(Debug, Clone, Copy)]
struct Target {
    w: VertexId,
    /// `d(v, w)`, the cheapest arc `v -> w`.
    dvw: f64,
    /// The cheapest live arc into `w` from any vertex but `v`; infinite
    /// when there is none.
    entry: f64,
}

impl WitnessSpace {
    /// Opens a fresh stamp epoch and returns its unsettled mark.
    fn begin(&mut self) -> u64 {
        self.epoch += 1;
        self.epoch << 1
    }

    /// Tentative distance of `v` in the epoch of `mark`.
    #[inline]
    fn reached(&self, mark: u64, v: VertexId) -> Option<f64> {
        (self.stamp[v.index()] | 1 == mark | 1).then(|| self.dist[v.index()])
    }
}

impl Builder {
    fn new(g: &Graph, metric: LandmarkMetric, cap: usize) -> Self {
        let n = g.vertex_count();
        let cost = metric.cost_model();
        let mut arcs = Vec::with_capacity(g.edge_count());
        let mut out_adj: Vec<Vec<u32>> = vec![Vec::new(); n];
        let mut in_adj: Vec<Vec<u32>> = vec![Vec::new(); n];
        for (i, e) in g.edges().enumerate() {
            let id = EdgeId(i as u32);
            arcs.push(ChArc {
                from: e.from,
                to: e.to,
                weight: cost.edge_cost(g, id),
                kind: ChArcKind::Original(id),
            });
            out_adj[e.from.index()].push(i as u32);
            in_adj[e.to.index()].push(i as u32);
        }
        Builder {
            arcs,
            out_adj,
            in_adj,
            rank: vec![u32::MAX; n],
            deleted_neighbors: vec![0; n],
            level: vec![0; n],
            cap,
        }
    }

    /// Gathers `v`'s uncontracted in/out neighbours into `space.ins` /
    /// `space.outs`, deduplicating parallel arcs onto the cheapest one
    /// (lowest arc id on weight ties, for determinism). Every use of a
    /// space starts here, so this is also where an empty one is sized.
    fn gather_neighbors(&self, v: VertexId, space: &mut WitnessSpace) {
        fn push_min(buf: &mut Vec<(VertexId, u32, f64)>, nb: VertexId, arc: u32, w: f64) {
            for slot in buf.iter_mut() {
                if slot.0 == nb {
                    if w < slot.2 {
                        *slot = (nb, arc, w);
                    }
                    return;
                }
            }
            buf.push((nb, arc, w));
        }
        if space.stamp.is_empty() {
            // A label per vertex fits without growing: a heap that grew
            // search by search reallocated all through the build, and
            // where those buffers landed moved the process's later peak
            // RSS (by 1.4 MiB on the 10k map's training run).
            space.heap.reserve(self.rank.len());
        }
        space.stamp.resize(self.rank.len(), 0);
        space.dist.resize(self.rank.len(), f64::INFINITY);
        space.ins.clear();
        space.outs.clear();
        for &a in &self.in_adj[v.index()] {
            let arc = self.arcs[a as usize];
            if arc.from != v {
                push_min(&mut space.ins, arc.from, a, arc.weight);
            }
        }
        for &a in &self.out_adj[v.index()] {
            let arc = self.arcs[a as usize];
            if arc.to != v {
                push_min(&mut space.outs, arc.to, a, arc.weight);
            }
        }
    }

    /// Upper bound on the shortcuts contracting `v` would insert, and the
    /// number of incident arcs it would remove — what orders the
    /// vertices. A pair `(u, w)` of in- and out-neighbour counts as
    /// needed unless a path `u -> w` or `u -> x -> w` avoiding `v` is no
    /// longer than `d(u,v) + d(v,w)`: no heap, no settle cap, so a
    /// witness of three or more arcs is invisible and the count may
    /// exceed what [`Builder::plan_contraction`] proves. It therefore
    /// never decides a shortcut. Pure (does not mutate the builder).
    fn estimate_contraction(&self, v: VertexId, space: &mut WitnessSpace) -> (usize, usize) {
        self.gather_neighbors(v, space);
        let removed = space.ins.len() + space.outs.len();
        let ins = std::mem::take(&mut space.ins);
        let mut needed = 0usize;
        for &(u, _, duv) in &ins {
            // One hop: the cheapest live arc of `u` per head.
            let mark = space.begin();
            for &a in &self.out_adj[u.index()] {
                let arc = self.arcs[a as usize];
                let x = arc.to;
                if x != v && space.reached(mark, x).is_none_or(|d| arc.weight < d) {
                    space.stamp[x.index()] = mark;
                    space.dist[x.index()] = arc.weight;
                }
            }
            for &(w, _, dvw) in &space.outs {
                if w == u {
                    continue;
                }
                let via = duv + dvw;
                if space.reached(mark, w).is_some_and(|d| d <= via) {
                    continue;
                }
                // Two hops: one scan of `w`'s live in-arcs.
                let witnessed = self.in_adj[w.index()].iter().any(|&a| {
                    let arc = self.arcs[a as usize];
                    let x = arc.from;
                    let short = |d: f64| d + arc.weight <= via;
                    x != u && x != v && space.reached(mark, x).is_some_and(short)
                });
                needed += usize::from(!witnessed);
            }
        }
        space.ins = ins;
        (needed, removed)
    }

    /// Local Dijkstra from `source` among uncontracted vertices, skipping
    /// `avoid`, for witnesses of the paths `source -> avoid -> w` over
    /// `targets` (`reach` is `d(source, avoid)`, so the path through
    /// `avoid` costs `reach + dvw`: the target's *bound*). Stops at the
    /// settle cap, or at the first pop whose key `d` resolves every
    /// target, whichever comes first. A target is resolved once it is
    /// *witnessed* — its tentative distance is at most its bound, and
    /// distances only fall — or *out of reach*: every label it can still
    /// get comes through a live arc into it, after a pop at a key of at
    /// least `d`, so once `d + entry` exceeds its bound no later label
    /// witnesses it. Resolved targets stay resolved as keys grow, so the
    /// ones resolved are peeled off the top of `targets`, sorted by
    /// `dvw - entry` (the last to fall out of reach on top): O(1)
    /// amortised per pop. Leaves tentative distances in `space` (upper
    /// bounds on the true local distance — safe for witness tests even
    /// when the cap truncates the search) and returns the epoch's mark.
    ///
    /// Why this is exact: the heap, the `limit` that prunes labels and
    /// the cap are those of a search that runs until every target is
    /// settled, and this one stops no later. That search stops once the
    /// key passes the bound of every unsettled target, and then every
    /// target is resolved here too: an unsettled one is out of reach
    /// (`entry` is never negative), and a settled one is witnessed or
    /// has its bound below its own key. What this search settles is thus a
    /// prefix of what that one settles, and no verdict differs: a
    /// witnessed target stays witnessed, and one out of reach can no
    /// longer be.
    fn witness_search(
        &self,
        space: &mut WitnessSpace,
        source: VertexId,
        avoid: VertexId,
        reach: f64,
        targets: &[Target],
    ) -> u64 {
        let mark = space.begin();
        space.heap.clear();
        space.stamp[source.index()] = mark;
        space.dist[source.index()] = 0.0;
        // Labels are pruned against the farthest bound of a target other
        // than the source, which is witnessed from the start.
        let others = targets.iter().filter(|t| t.w != source);
        let limit = reach + others.map(|t| t.dvw).fold(f64::NEG_INFINITY, f64::max);
        let resolved = |space: &WitnessSpace, d: f64, t: &Target| {
            let bound = reach + t.dvw;
            d + t.entry > bound || space.reached(mark, t.w).is_some_and(|x| x <= bound)
        };
        space.heap.push(MinCost {
            cost: 0.0,
            item: source,
        });
        let mut open = targets.len();
        let mut settled = 0usize;
        while let Some(MinCost { cost: d, item: u }) = space.heap.pop() {
            if space.stamp[u.index()] == mark | 1 {
                continue;
            }
            while open > 0 && resolved(space, d, &targets[open - 1]) {
                open -= 1;
            }
            if open == 0 {
                break;
            }
            space.stamp[u.index()] = mark | 1;
            space.settles += 1;
            settled += 1;
            if settled >= self.cap {
                break;
            }
            for &a in &self.out_adj[u.index()] {
                space.relaxations += 1;
                let arc = self.arcs[a as usize];
                let (v, nd) = (arc.to, d + arc.weight);
                // The bound first: it needs no read of `v`'s state.
                if nd <= limit
                    && v != avoid
                    && space.stamp[v.index()] != mark | 1
                    && space.reached(mark, v).is_none_or(|old| nd < old)
                {
                    space.stamp[v.index()] = mark;
                    space.dist[v.index()] = nd;
                    space.heap.push(MinCost { cost: nd, item: v });
                }
            }
        }
        mark
    }

    /// Proves which shortcuts contracting `v` needs: one witness search
    /// per in-neighbour, results in `space.needed`. Pure (does not mutate
    /// the builder); the build calls it once per vertex, immediately
    /// before contracting it.
    fn plan_contraction(&self, v: VertexId, space: &mut WitnessSpace) {
        space.proofs += 1;
        space.needed.clear();
        self.gather_neighbors(v, space);
        let ins = std::mem::take(&mut space.ins);
        let outs = std::mem::take(&mut space.outs);
        let mut targets = std::mem::take(&mut space.targets);
        targets.clear();
        targets.extend(outs.iter().map(|&(w, _, dvw)| {
            let arcs = self.in_adj[w.index()]
                .iter()
                .map(|&a| &self.arcs[a as usize]);
            let entry = arcs
                .filter(|arc| arc.from != v)
                .fold(f64::INFINITY, |m, arc| m.min(arc.weight));
            Target { w, dvw, entry }
        }));
        targets.sort_unstable_by(|a, b| (a.dvw - a.entry).total_cmp(&(b.dvw - b.entry)));
        for &(u, a_in, duv) in &ins {
            // Nothing to prove when `u` is the only out-neighbour.
            if outs.iter().all(|t| t.0 == u) {
                continue;
            }
            let mark = self.witness_search(space, u, v, duv, &targets);
            for &(w, a_out, dvw) in &outs {
                let via = duv + dvw;
                if w != u && space.reached(mark, w).is_none_or(|witness| witness > via) {
                    space.needed.push((a_in, a_out, via));
                }
            }
        }
        space.ins = ins;
        space.outs = outs;
        space.targets = targets;
    }
}

impl Contract for Builder {
    type Scratch = WitnessSpace;

    /// The lazy-update priority of `v`: twice the estimated edge
    /// difference plus the deleted-neighbours and depth uniformity terms.
    /// Search-free: see [`Builder::estimate_contraction`].
    fn priority(&self, v: VertexId, space: &mut WitnessSpace) -> i64 {
        let (needed, removed) = self.estimate_contraction(v, space);
        2 * (needed as i64 - removed as i64)
            + self.deleted_neighbors[v.index()] as i64
            + 8 * self.level[v.index()] as i64
    }

    /// Contracts `v` at `rank`: proves and inserts its shortcuts, bumps
    /// the neighbours' deleted counters and prunes `v` out of their
    /// adjacency.
    fn contract(&mut self, v: VertexId, rank: u32, space: &mut WitnessSpace) {
        self.plan_contraction(v, space);
        self.rank[v.index()] = rank;
        for &(a_in, a_out, weight) in &space.needed {
            let from = self.arcs[a_in as usize].from;
            let to = self.arcs[a_out as usize].to;
            let id = self.arcs.len() as u32;
            self.arcs.push(ChArc {
                from,
                to,
                weight,
                kind: ChArcKind::Shortcut(v),
            });
            self.out_adj[from.index()].push(id);
            self.in_adj[to.index()].push(id);
        }
        // Bump + prune each distinct neighbour once (the plan left them
        // in `ins` / `outs`; a fresh stamp epoch folds the two lists).
        let mark = space.begin();
        for &(nb, ..) in space.ins.iter().chain(&space.outs) {
            if std::mem::replace(&mut space.stamp[nb.index()], mark) == mark {
                continue;
            }
            self.deleted_neighbors[nb.index()] += 1;
            let bumped = self.level[v.index()] + 1;
            if self.level[nb.index()] < bumped {
                self.level[nb.index()] = bumped;
            }
            let arcs = &self.arcs;
            let live = |a: &u32| arcs[*a as usize].from != v && arcs[*a as usize].to != v;
            self.out_adj[nb.index()].retain(live);
            self.in_adj[nb.index()].retain(live);
        }
        // Nothing reads a contracted vertex's lists again.
        self.out_adj[v.index()] = Vec::new();
        self.in_adj[v.index()] = Vec::new();
    }
}

impl ContractionHierarchy {
    /// Builds the hierarchy under `metric`.
    ///
    /// Node order is edge-difference + deleted-neighbours + depth with
    /// lazy updates (ties broken on the lowest vertex id), where "edges
    /// added" is a search-free two-hop estimate; the initial estimate of
    /// every vertex is fanned out over `cfg.threads` workers. Shortcuts
    /// are decided by capped witness searches, run once per vertex when
    /// it is contracted. The result is bit-identical for any thread
    /// count.
    pub fn build(g: &Graph, metric: LandmarkMetric, cfg: &ChConfig) -> Self {
        // Only the ranks and the arc pool outlive the ordering loop.
        let (rank, arcs) = {
            let mut b = Builder::new(g, metric, cfg.witness_settle_cap.max(2));
            contract_in_priority_order(g.vertex_count(), cfg.threads, &mut b);
            (b.rank, b.arcs)
        };
        Self::assemble(metric, g.edge_count(), rank, arcs)
            .unwrap_or_else(|e| panic!("contraction joined an arc the search graph drops: {e}"))
    }

    /// Builds the CSR search graph from the rank array and an arc pool
    /// (shared by [`ContractionHierarchy::build`] and the io layer's
    /// deserialiser), numbering the arcs by search slot.
    ///
    /// The search graph lives in **rank space**: CSR buckets and
    /// [`SearchArc::other`] use a vertex's rank, not its id. Every query
    /// climbs into the same top-of-hierarchy vertices, so rank-ordering
    /// the per-vertex state and adjacency clusters that shared hot
    /// region into a few contiguous cache lines (a large constant-factor
    /// win on the memory-bound query loop).
    ///
    /// Contraction can leave several parallel arcs between one vertex
    /// pair (an original edge plus successively cheaper shortcuts), and
    /// a pool read from elsewhere may hold self-loops. Neither kind can
    /// lie on a shortest path except the cheapest parallel arc, so only
    /// that one gets a slot (lowest pool id on ties, at the pair's first
    /// position). It is also the only one a shortcut can have as a leg:
    /// contraction joins the cheapest parallel arc, lowest id on ties
    /// (`Builder::gather_neighbors`), and no arc to a contracted vertex
    /// appears later. So every shortcut's legs are slots of its mid,
    /// with weights summing to its own in bits; this is checked, and a
    /// pool that breaks it (or names a mid not ranked below both ends)
    /// is refused with the reason.
    pub(crate) fn assemble(
        metric: LandmarkMetric,
        m: usize,
        rank: Vec<u32>,
        arcs: Vec<ChArc>,
    ) -> Result<Self, String> {
        let n = rank.len();
        if n.max(m) > ArcRule::ORIGINAL as usize {
            return Err(format!("{n} vertices or {m} edges do not fit 31-bit ids"));
        }
        // Pool ids grouped by half (the lower endpoint's, upward when
        // that is the tail), ascending within one.
        let (mut halves, mut pool) = group_by_key(2 * n, 0u32, |emit| {
            for (arc, i) in arcs.iter().zip(0u32..) {
                let (rf, rt) = (rank[arc.from.index()], rank[arc.to.index()]);
                if rf != rt {
                    emit(2 * rf.min(rt) + u32::from(rf > rt), i);
                }
            }
        });
        let other = |i: u32| {
            let arc = &arcs[i as usize];
            rank[arc.from.index()].max(rank[arc.to.index()])
        };
        // Keep each pair once, compacting in place; `slot_of[r]` is one
        // past the slot holding the current half's arc to rank `r`.
        let mut slot_of = vec![0u32; n];
        let (mut read, mut write) = (0usize, 0usize);
        for h in 0..2 * n {
            let start = write;
            let end = halves[h + 1] as usize;
            halves[h] = start as u32;
            for i in read..end {
                let arc = pool[i];
                let slot = slot_of[other(arc) as usize] as usize;
                if slot > start {
                    let best = &mut pool[slot - 1];
                    if arcs[arc as usize].weight < arcs[*best as usize].weight {
                        *best = arc;
                    }
                } else {
                    pool[write] = arc;
                    write += 1;
                    slot_of[other(arc) as usize] = write as u32;
                }
            }
            read = end;
        }
        halves[2 * n] = write as u32;
        pool.truncate(write);
        let seg_arcs = pool
            .iter()
            .map(|&i| SearchArc { other: other(i) })
            .collect();
        let seg_weights: Vec<f64> = pool.iter().map(|&i| arcs[i as usize].weight).collect();
        let rules: Vec<ArcRule> = pool
            .iter()
            .map(|&i| match arcs[i as usize].kind {
                ChArcKind::Original(e) => ArcRule::original(e),
                ChArcKind::Shortcut(mid) => ArcRule::shortcut(rank[mid.index()]),
            })
            .collect();
        drop((arcs, pool, slot_of));
        let skel = Skeleton::new(rank, halves, seg_arcs);
        for (slot, rule) in rules.iter().enumerate() {
            if rule.edge().is_some() {
                continue;
            }
            let (tail, head) = skel.slot_ends(slot);
            let mid = rule.0;
            let (from, to) = (skel.order[tail as usize].0, skel.order[head as usize].0);
            if mid >= tail.min(head) {
                return Err(format!(
                    "shortcut {from} -> {to} has a mid of rank {mid}, not below both ends"
                ));
            }
            let (lo, split, hi) = skel.bounds(mid as usize);
            let legs = skel
                .find((split, hi), tail)
                .zip(skel.find((lo, split), head));
            let Some((b, c)) = legs else {
                return Err(format!(
                    "shortcut {from} -> {to} misses a leg through rank {mid}"
                ));
            };
            let sum = seg_weights[b as usize] + seg_weights[c as usize];
            if sum.to_bits() != seg_weights[slot].to_bits() {
                return Err(format!(
                    "shortcut {from} -> {to} weighs {}, its legs {sum}",
                    seg_weights[slot]
                ));
            }
        }
        Ok(ContractionHierarchy {
            metric,
            m,
            skel,
            rules,
            seg_weights,
        })
    }

    /// The metric the hierarchy was built under.
    pub fn metric(&self) -> LandmarkMetric {
        self.metric
    }

    /// Vertex count of the graph the hierarchy was built for.
    pub fn vertex_count(&self) -> usize {
        self.skel.rank.len()
    }

    /// Edge count of the graph the hierarchy was built for.
    pub fn edge_count(&self) -> usize {
        self.m
    }

    /// Number of shortcut arcs in the search graph.
    pub fn shortcut_count(&self) -> usize {
        self.rules.iter().filter(|r| r.edge().is_none()).count()
    }

    /// Every arc of the search graph, in slot order; endpoints are read
    /// off the slots.
    pub fn arcs(&self) -> impl ExactSizeIterator<Item = ChArc> + '_ {
        let cols = self.skel.arc_ends().zip(&self.seg_weights).zip(&self.rules);
        cols.map(|(((from, to), &weight), rule)| ChArc {
            from,
            to,
            weight,
            kind: match rule.edge() {
                Some(e) => ChArcKind::Original(e),
                None => ChArcKind::Shortcut(self.skel.order[rule.0 as usize]),
            },
        })
    }

    /// Heap bytes the index holds (the `pathrank_serve_index_bytes`
    /// gauge): 16 B per slot (entry, weight, rule) and per vertex.
    pub fn heap_bytes(&self) -> usize {
        self.skel.heap_bytes()
            + 8 * self.seg_weights.len()
            + std::mem::size_of_val(self.rules.as_slice())
    }

    /// Contraction rank of `v` (higher = contracted later = nearer the
    /// top of the hierarchy).
    pub fn rank(&self, v: VertexId) -> u32 {
        self.skel.rank[v.index()]
    }

    /// The rank array, indexed by vertex id.
    pub fn ranks(&self) -> &[u32] {
        &self.skel.rank
    }

    /// Whether queries under `cost` may use this hierarchy — the same
    /// gate as [`crate::algo::landmarks::LandmarkTable::usable_for`]:
    /// only the build metric matches, `Custom` never does.
    pub fn usable_for(&self, cost: &CostModel<'_>) -> bool {
        self.vertex_count() > 0 && self.metric.matches(cost)
    }

    /// The borrowed form every search loop runs on.
    pub fn view(&self) -> HierarchyView<'_> {
        HierarchyView {
            skel: &self.skel,
            rules: &self.rules,
            seg_weights: &self.seg_weights,
        }
    }
}

impl HierarchyView<'_> {
    /// Vertex count of the graph the hierarchy was built for.
    pub fn vertex_count(&self) -> usize {
        self.skel.rank.len()
    }

    /// The segment of rank `u` as `(up arcs, up weights, down arcs, down
    /// weights)`: upward out-arcs first, downward in-arcs after.
    #[inline]
    pub(crate) fn segment(&self, u: VertexId) -> (&[SearchArc], &[f64], &[SearchArc], &[f64]) {
        let (lo, mid, hi) = self.skel.bounds(u.index());
        let (lo, ups, hi) = (lo as usize, (mid - lo) as usize, hi as usize);
        let (up, down) = self.skel.seg_arcs[lo..hi].split_at(ups);
        let (up_w, down_w) = self.seg_weights[lo..hi].split_at(ups);
        (up, up_w, down, down_w)
    }

    /// Runs the upward bidirectional query and returns the meeting
    /// vertex (as a *rank*) and total arc-weight distance; `None` when
    /// unreachable. The whole search operates in rank space.
    fn run_query(
        &self,
        search: &mut ChSearch,
        source: VertexId,
        target: VertexId,
    ) -> Option<(VertexId, f64)> {
        debug_assert_eq!(
            search.capacity(),
            self.vertex_count(),
            "search sized for another graph"
        );
        let source = VertexId(self.skel.rank[source.index()]);
        let target = VertexId(self.skel.rank[target.index()]);
        let fwd = &mut search.fwd;
        let bwd = &mut search.bwd;
        fwd.begin();
        bwd.begin();
        fwd.relax(source, 0.0, u32::MAX);
        fwd.heap.push(MinCost {
            cost: 0.0,
            item: source,
        });
        bwd.relax(target, 0.0, u32::MAX);
        bwd.heap.push(MinCost {
            cost: 0.0,
            item: target,
        });

        // Two-phase query. On a well-contracted hierarchy the *full*
        // upward closure of a vertex is tiny (a few dozen vertices at
        // paper scale — measured smaller than what an alternating
        // bidirectional loop settles), so exhausting the forward side
        // first and then sweeping the backward side beats interleaving:
        // each phase runs a tight single-side loop over state that stays
        // cache-hot, with no per-iteration frontier comparisons or
        // cross-side reads.
        //
        // Phase 1: forward upward closure, stall-on-demand (a vertex
        // whose label is beaten through a higher-ranked neighbour keeps
        // its label — a valid path cost, fine for meet checks — but is
        // not expanded; no shortest path continues through it).
        while let Some(MinCost { cost: d, item: u }) = fwd.heap.pop() {
            if fwd.is_settled(u) {
                continue;
            }
            fwd.settle(u);
            let (up, up_w, down, down_w) = self.segment(u);
            if fwd.stalled(down, down_w, d) {
                continue;
            }
            for (sa, &w) in up.iter().zip(up_w) {
                let v = VertexId(sa.other);
                if fwd.is_settled(v) {
                    continue;
                }
                let nd = d + w;
                if nd < fwd.dist(v) {
                    fwd.relax(v, nd, u.0);
                    fwd.heap.push(MinCost { cost: nd, item: v });
                }
            }
        }

        // Phase 2: backward upward closure with meet checks against the
        // completed forward side; prunes on the best connection found.
        let mut best = f64::INFINITY;
        let mut meet: Option<VertexId> = None;
        while let Some(MinCost { cost: d, item: u }) = bwd.heap.pop() {
            if bwd.is_settled(u) {
                continue;
            }
            // Heap keys are non-decreasing: nothing below `best` left.
            if d >= best {
                break;
            }
            bwd.settle(u);
            if fwd.reached(u) {
                let total = d + fwd.dist(u);
                if total < best {
                    best = total;
                    meet = Some(u);
                }
            }
            let (up, up_w, down, down_w) = self.segment(u);
            if bwd.stalled(up, up_w, d) {
                continue;
            }
            for (sa, &w) in down.iter().zip(down_w) {
                let v = VertexId(sa.other);
                if bwd.is_settled(v) {
                    continue;
                }
                let nd = d + w;
                // A label at or past `best` can never improve the meet
                // (the forward distance is non-negative).
                if nd < bwd.dist(v) && nd < best {
                    bwd.relax(v, nd, u.0);
                    bwd.heap.push(MinCost { cost: nd, item: v });
                }
            }
        }
        meet.map(|m| (m, best))
    }

    /// Expands `u.nodes` — `(slot, tail rank, head rank)`, in path order —
    /// into original edges appended to `edges`, emitting each edge's head
    /// vertex into `vertices` alongside. Level by level: a pass reads the
    /// expansion word of every node of the level and replaces each
    /// shortcut by its legs `tail -> mid` and `mid -> head`, the mid's
    /// downward slot from `tail` and upward slot to `head`, linked in
    /// where the shortcut was. Finding them takes three dependent loads
    /// (expansion word, segment bounds, segment entries), but the
    /// shortcuts of one level are independent, so their loads overlap
    /// where a depth-first expansion waits on them one shortcut at a time
    /// (on the 43k map that wait doubled the unpack time). A node is
    /// visited once per level it takes part in, and the pass that reads
    /// the words compacts the shortcuts without a branch: whether an arc
    /// is original is a coin toss to the branch predictor.
    fn expand(&self, u: &mut Unpack, edges: &mut Vec<EdgeId>, vertices: &mut Vec<VertexId>) {
        let leg = |half, other| {
            let slot = self.skel.find(half, other);
            slot.expect("a shortcut's legs are slots of its mid")
        };
        const ORIGINAL: u32 = ArcRule::ORIGINAL;
        let Unpack {
            nodes,
            link,
            pending,
            shortcuts,
        } = u;
        link.clear();
        link.extend(1..nodes.len() as u32);
        link.push(u32::MAX);
        pending.clear();
        pending.extend(0..nodes.len() as u32);
        while !pending.is_empty() {
            // A node's first field is a slot until its expansion word is
            // read, then the word: an original keeps it, a shortcut is
            // replaced by its legs.
            shortcuts.resize(pending.len(), 0);
            let mut k = 0usize;
            for &i in pending.iter() {
                let word = &mut nodes[i as usize].0;
                *word = self.rules[*word as usize].0;
                shortcuts[k] = i;
                k += usize::from(*word & ORIGINAL == 0);
            }
            shortcuts.truncate(k);
            pending.clear();
            for &i in shortcuts.iter() {
                let (mid, tail, head) = nodes[i as usize];
                let (lo, split, hi) = self.skel.bounds(mid as usize);
                let j = nodes.len() as u32;
                nodes[i as usize] = (leg((split, hi), tail), tail, mid);
                nodes.push((leg((lo, split), head), mid, head));
                link.push(link[i as usize]);
                link[i as usize] = j;
                pending.extend([i, j]);
            }
        }
        let mut i = 0;
        while i != u32::MAX {
            let (word, _, head) = nodes[i as usize];
            edges.push(EdgeId(word & !ORIGINAL));
            vertices.push(self.skel.order[head as usize]);
            i = link[i as usize];
        }
    }

    /// Cheapest `source -> target` distance as the sum of arc weights.
    ///
    /// This is the raw query result (exact up to float association of
    /// shortcut sums); the engine recomputes costs left-to-right over the
    /// unpacked edges so they are bit-identical to Dijkstra's fold order.
    pub fn query_cost(
        &self,
        search: &mut ChSearch,
        source: VertexId,
        target: VertexId,
    ) -> Option<f64> {
        if source == target {
            return Some(0.0);
        }
        self.run_query(search, source, target).map(|(_, d)| d)
    }

    /// Cheapest `source -> target` path as the unpacked original-edge
    /// sequence (borrowed from the search's reusable buffer; valid until
    /// the next query). `None` when unreachable or `source == target`.
    pub fn query_edges<'s>(
        &self,
        search: &'s mut ChSearch,
        source: VertexId,
        target: VertexId,
    ) -> Option<&'s [EdgeId]> {
        self.query_path(search, source, target).map(|(e, _)| e)
    }

    /// Like [`HierarchyView::query_edges`], also handing back the
    /// matching vertex sequence (`edges.len() + 1` entries, source
    /// first) assembled during unpacking.
    pub fn query_path<'s>(
        &self,
        search: &'s mut ChSearch,
        source: VertexId,
        target: VertexId,
    ) -> Option<(&'s [EdgeId], &'s [VertexId])> {
        if source == target {
            return None;
        }
        let (meet, _) = self.run_query(search, source, target)?;
        let ChSearch {
            fwd,
            bwd,
            edge_buf: edges,
            vertex_buf: vertices,
            unpack,
        } = search;
        let arcs = &mut unpack.nodes;
        // The search arcs of the path, in path order: the forward parent
        // chain (meet -> source) reversed, then the backward one (meet ->
        // target). Both chains name ranks; the arc between a vertex and
        // its parent is a slot of the parent, the lower of the two.
        arcs.clear();
        let mut cur = meet.0;
        loop {
            let p = fwd.parent(VertexId(cur));
            if p == u32::MAX {
                break;
            }
            let (lo, split, _) = self.skel.bounds(p as usize);
            let slot = self.skel.find((lo, split), cur);
            arcs.push((slot.expect("a parent reached its child upward"), p, cur));
            cur = p;
        }
        debug_assert_eq!(
            cur,
            self.skel.rank[source.index()],
            "forward chain must reach the source"
        );
        arcs.reverse();
        let mut cur = meet.0;
        loop {
            let p = bwd.parent(VertexId(cur));
            if p == u32::MAX {
                break;
            }
            let (_, split, hi) = self.skel.bounds(p as usize);
            let slot = self.skel.find((split, hi), cur);
            arcs.push((slot.expect("a parent reached its child downward"), cur, p));
            cur = p;
        }
        debug_assert_eq!(
            cur,
            self.skel.rank[target.index()],
            "backward chain must reach the target"
        );
        edges.clear();
        vertices.clear();
        vertices.push(source);
        self.expand(unpack, edges, vertices);
        Some((edges, vertices))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algo::dijkstra::shortest_path;
    use crate::builder::GraphBuilder;
    use crate::generators::{grid_network, region_network, GridConfig, RegionConfig};
    use crate::geometry::Point;
    use crate::graph::{EdgeAttrs, RoadCategory};
    use crate::path::Path;

    fn region() -> Graph {
        region_network(&RegionConfig::small_test(), 11)
    }

    #[test]
    fn ch_ranks_are_a_permutation() {
        let g = region();
        let ch = ContractionHierarchy::build(&g, LandmarkMetric::Length, &ChConfig::default());
        let mut ranks: Vec<u32> = g.vertices().map(|v| ch.rank(v)).collect();
        ranks.sort_unstable();
        let expect: Vec<u32> = (0..g.vertex_count() as u32).collect();
        assert_eq!(ranks, expect, "ranks must be a permutation of 0..n");
        assert_eq!(ch.vertex_count(), g.vertex_count());
        assert_eq!(ch.edge_count(), g.edge_count());
        assert!(ch.arcs().len() >= g.edge_count());
    }

    #[test]
    fn ch_parallel_build_matches_sequential_bitwise() {
        let g = region();
        let seq = ContractionHierarchy::build(
            &g,
            LandmarkMetric::Length,
            &ChConfig {
                threads: 1,
                ..ChConfig::default()
            },
        );
        let par = ContractionHierarchy::build(
            &g,
            LandmarkMetric::Length,
            &ChConfig {
                threads: 4,
                ..ChConfig::default()
            },
        );
        assert_eq!(
            seq.ranks(),
            par.ranks(),
            "node order must not depend on threads"
        );
        assert_eq!(seq.arcs().len(), par.arcs().len());
        for (a, b) in seq.arcs().zip(par.arcs()) {
            assert_eq!((a.from, a.to, a.kind), (b.from, b.to, b.kind));
            assert_eq!(a.weight.to_bits(), b.weight.to_bits());
        }
    }

    #[test]
    fn ch_queries_match_dijkstra_on_grid() {
        // A grid maximises equal-cost ties; costs (recomputed over the
        // unpacked edges) must still match exactly.
        let g = grid_network(&GridConfig::small_test(), 13);
        let ch = ContractionHierarchy::build(&g, LandmarkMetric::Length, &ChConfig::default());
        let mut search = ChSearch::new(g.vertex_count());
        let n = g.vertex_count() as u32;
        for (s, t) in [(0, n - 1), (n - 1, 0), (3, n / 2), (n / 3, 2 * n / 3)] {
            let (s, t) = (VertexId(s), VertexId(t));
            let plain = shortest_path(&g, s, t, CostModel::Length).map(|p| p.length_m(&g));
            let ch_cost = ch
                .view()
                .query_edges(&mut search, s, t)
                .map(|edges| edges.iter().map(|&e| g.edge(e).attrs.length_m).sum::<f64>());
            assert_eq!(plain, ch_cost, "{s:?}->{t:?} CH cost diverged");
        }
    }

    #[test]
    fn ch_unpacked_paths_are_contiguous_and_valid() {
        let g = region();
        let ch = ContractionHierarchy::build(&g, LandmarkMetric::Length, &ChConfig::default());
        assert!(ch.shortcut_count() > 0, "region CH should need shortcuts");
        let mut search = ChSearch::new(g.vertex_count());
        let n = g.vertex_count() as u32;
        let mut checked = 0usize;
        for (s, t) in [(0, n - 1), (n / 2, 1), (n - 1, n / 3), (7 % n, n - 2)] {
            let (s, t) = (VertexId(s), VertexId(t));
            if let Some(edges) = ch.view().query_edges(&mut search, s, t) {
                let p = Path::from_edges(&g, edges.to_vec())
                    .expect("unpacked edges must form a contiguous path");
                assert_eq!(p.source(), s);
                assert_eq!(p.target(), t);
                p.validate(&g).unwrap();
                let plain = shortest_path(&g, s, t, CostModel::Length).unwrap();
                assert_eq!(p.length_m(&g), plain.length_m(&g), "{s:?}->{t:?}");
                checked += 1;
            }
        }
        assert!(checked >= 2, "region pairs should mostly be routable");
    }

    #[test]
    fn ch_travel_time_metric_queries_are_exact() {
        let g = region();
        let ch = ContractionHierarchy::build(&g, LandmarkMetric::TravelTime, &ChConfig::default());
        assert!(ch.usable_for(&CostModel::TravelTime));
        assert!(!ch.usable_for(&CostModel::Length));
        let mut search = ChSearch::new(g.vertex_count());
        let n = g.vertex_count() as u32;
        for (s, t) in [(0, n - 1), (n / 2, 1)] {
            let (s, t) = (VertexId(s), VertexId(t));
            let plain = shortest_path(&g, s, t, CostModel::TravelTime)
                .map(|p| p.cost(&g, CostModel::TravelTime));
            let ch_cost = ch.view().query_edges(&mut search, s, t).map(|edges| {
                edges
                    .iter()
                    .fold(0.0, |a, &e| a + CostModel::TravelTime.edge_cost(&g, e))
            });
            match (plain, ch_cost) {
                (Some(a), Some(b)) => assert!((a - b).abs() < 1e-9, "{s:?}->{t:?}: {a} vs {b}"),
                (None, None) => {}
                (a, b) => panic!("reachability mismatch {s:?}->{t:?}: {a:?} vs {b:?}"),
            }
        }
    }

    #[test]
    fn ch_metric_gate() {
        let g = region();
        let ch = ContractionHierarchy::build(&g, LandmarkMetric::Length, &ChConfig::default());
        assert!(ch.usable_for(&CostModel::Length));
        assert!(!ch.usable_for(&CostModel::TravelTime));
        let custom = vec![1.0; g.edge_count()];
        assert!(!ch.usable_for(&CostModel::Custom(&custom)));
        assert_eq!(ch.metric(), LandmarkMetric::Length);
    }

    #[test]
    fn ch_disconnected_components_and_self_queries() {
        let mut b = GraphBuilder::new();
        let a0 = b.add_vertex(Point::new(0.0, 0.0));
        let a1 = b.add_vertex(Point::new(100.0, 0.0));
        let c0 = b.add_vertex(Point::new(0.0, 9000.0));
        let c1 = b.add_vertex(Point::new(100.0, 9000.0));
        let attrs = || EdgeAttrs::with_default_speed(100.0, RoadCategory::Residential);
        b.add_bidirectional(a0, a1, attrs()).unwrap();
        b.add_bidirectional(c0, c1, attrs()).unwrap();
        let g = b.build();
        let ch = ContractionHierarchy::build(&g, LandmarkMetric::Length, &ChConfig::default());
        let mut search = ChSearch::new(g.vertex_count());
        assert!(ch.view().query_edges(&mut search, a0, c1).is_none());
        assert!(ch.view().query_cost(&mut search, a1, c0).is_none());
        assert_eq!(ch.view().query_cost(&mut search, a0, a0), Some(0.0));
        assert!(ch.view().query_edges(&mut search, a0, a0).is_none());
        let within = ch.view().query_cost(&mut search, a0, a1);
        assert_eq!(within, Some(100.0));
    }

    #[test]
    fn ch_search_state_reuse_is_clean_across_queries() {
        // An early-exiting query right after a full sweep must not see
        // stale distances — the ChSide epoch discipline mirrors the
        // engine's SearchSpace.
        let g = grid_network(&GridConfig::small_test(), 7);
        let ch = ContractionHierarchy::build(&g, LandmarkMetric::Length, &ChConfig::default());
        let mut search = ChSearch::new(g.vertex_count());
        let n = g.vertex_count() as u32;
        let pairs = [(0, n - 1), (1, 2), (n - 1, 0), (n / 2, n / 2 + 1)];
        // Interleave: fresh scratch state must agree with reused one.
        for &(s, t) in &pairs {
            let (s, t) = (VertexId(s), VertexId(t));
            let reused = ch.view().query_cost(&mut search, s, t);
            let mut fresh = ChSearch::new(g.vertex_count());
            let expect = ch.view().query_cost(&mut fresh, s, t);
            assert_eq!(reused, expect, "{s:?}->{t:?} state leaked across queries");
        }
    }

    #[test]
    fn ch_witness_cap_trades_size_not_correctness() {
        let g = region();
        let tight = ContractionHierarchy::build(
            &g,
            LandmarkMetric::Length,
            &ChConfig {
                witness_settle_cap: 2,
                ..ChConfig::default()
            },
        );
        let roomy = ContractionHierarchy::build(&g, LandmarkMetric::Length, &ChConfig::default());
        assert!(
            tight.shortcut_count() >= roomy.shortcut_count(),
            "a tighter witness cap can only add shortcuts"
        );
        let mut st = ChSearch::new(g.vertex_count());
        let mut sr = ChSearch::new(g.vertex_count());
        let n = g.vertex_count() as u32;
        for (s, t) in [(0, n - 1), (n / 3, 2 * n / 3)] {
            let (s, t) = (VertexId(s), VertexId(t));
            let a = tight.view().query_cost(&mut st, s, t);
            let b = roomy.view().query_cost(&mut sr, s, t);
            match (a, b) {
                (Some(a), Some(b)) => assert!((a - b).abs() < 1e-9),
                (None, None) => {}
                (a, b) => panic!("cap changed reachability: {a:?} vs {b:?}"),
            }
        }
    }

    fn grid24() -> Graph {
        let cfg = GridConfig {
            nx: 24,
            ny: 24,
            ..GridConfig::small_test()
        };
        grid_network(&cfg, 5)
    }

    /// FNV-1a, word-wise, over everything `build` decides, naming no arc
    /// id: the rank array, then the search arcs sorted by `(from, to)`,
    /// each as its weight bits and then its edge id (an original) or its
    /// `(from, mid, to)` (a shortcut). Pinned before arcs were numbered
    /// by search slot, so it holds every numbering to one hierarchy.
    fn fingerprint(ch: &ContractionHierarchy) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut word = |w: u64| h = (h ^ w).wrapping_mul(0x0000_0100_0000_01b3);
        ch.ranks().iter().for_each(|&r| word(u64::from(r)));
        let mut arcs: Vec<ChArc> = ch.arcs().collect();
        arcs.sort_by_key(|a| (a.from.0, a.to.0));
        for a in arcs {
            word(a.weight.to_bits());
            match a.kind {
                ChArcKind::Original(e) => word(u64::from(e.0)),
                ChArcKind::Shortcut(mid) => {
                    word(1 << 63 | u64::from(a.from.0) << 32 | u64::from(mid.0));
                    word(u64::from(a.to.0));
                }
            }
        }
        h
    }

    #[test]
    fn ch_build_is_golden_for_any_thread_count() {
        // Nothing else pins the hierarchy: every query test passes under
        // any node order. The third column is the shortcut count of the
        // build this one replaced, which ordered by full witness
        // searches: an estimate may buy build time with index size only
        // up to 5 %.
        for (g, golden, search_ordered) in [
            (region(), 0x86ad_11aa_2b10_a63bu64, 114usize),
            (grid24(), 0xddcb_a30b_cf64_05feu64, 3550usize),
        ] {
            for threads in [1, 2, 4] {
                let cfg = ChConfig {
                    threads,
                    ..ChConfig::default()
                };
                let ch = ContractionHierarchy::build(&g, LandmarkMetric::Length, &cfg);
                let print = fingerprint(&ch);
                assert!(
                    print == golden,
                    "hierarchy drifted: {print:#018x}, {threads} threads, {} shortcuts",
                    ch.shortcut_count()
                );
                assert!(
                    ch.shortcut_count() * 100 <= search_ordered * 105,
                    "{} shortcuts against {search_ordered}",
                    ch.shortcut_count()
                );
            }
        }
        // The witness searches' exact work, beside the hierarchy it built:
        // `(settles, relaxations)` now, and the counts of the search that
        // ran until every target was settled, which this one must stay
        // below. Searches run in the sequential loop only, so one worker
        // counts what any number does.
        for (g, work, settled_all) in [
            (region(), (322u64, 1_121u64), (706u64, 2_203u64)),
            (grid24(), (18_037, 143_668), (43_435, 330_434)),
        ] {
            let cap = ChConfig::default().witness_settle_cap;
            let mut b = Builder::new(&g, LandmarkMetric::Length, cap);
            let space = contract_in_priority_order(g.vertex_count(), 1, &mut b);
            assert_eq!((space.settles, space.relaxations), work);
            assert!(work.0 < settled_all.0 && work.1 < settled_all.1);
        }
        // Raw multigraphs, whose pools hold dominated parallel arcs the
        // search graph drops (234 -> 201 and 314 -> 260 arcs).
        for (n, seed, golden, slots) in [
            (40, 3, 0x5031_40cd_d239_5f0bu64, 201),
            (60, 9, 0x4550_2f6f_8494_3294u64, 260),
        ] {
            let ch = raw_hierarchy(n, &random_multigraph(n as u32, seed)).0;
            assert_eq!(ch.arcs().len(), slots, "seed {seed}");
            let print = fingerprint(&ch);
            assert!(print == golden, "seed {seed} drifted: {print:#018x}");
        }
    }

    #[test]
    fn ch_build_proves_each_vertex_once() {
        // What `build` runs; the loop hands back its scratch, which
        // counted the proofs.
        for g in [region(), grid24()] {
            let n = g.vertex_count();
            let mut b = Builder::new(&g, LandmarkMetric::Length, 128);
            let space = contract_in_priority_order(n, 4, &mut b);
            assert_eq!(space.proofs, n, "one plan_contraction per vertex");
        }
    }

    /// A builder over raw `(from, to, weight)` arcs with the settle cap
    /// lifted — what `Builder::new` makes of a graph, for arc sets no
    /// [`Graph`] holds (its builder rejects zero-length edges).
    fn raw_builder(n: usize, raw: &[(u32, u32, f64)]) -> Builder {
        let mut b = Builder {
            arcs: Vec::new(),
            out_adj: vec![Vec::new(); n],
            in_adj: vec![Vec::new(); n],
            rank: vec![u32::MAX; n],
            deleted_neighbors: vec![0; n],
            level: vec![0; n],
            cap: usize::MAX,
        };
        for (&(from, to, weight), i) in raw.iter().zip(0u32..) {
            b.arcs.push(ChArc {
                from: VertexId(from),
                to: VertexId(to),
                weight,
                kind: ChArcKind::Original(EdgeId(i)),
            });
            b.out_adj[from as usize].push(i);
            b.in_adj[to as usize].push(i);
        }
        b
    }

    /// Random multigraph with small integer weights (float sums exact):
    /// one-way arcs, parallel arcs of different weight, 2-cycles and
    /// zero-weight arcs all occur.
    fn random_multigraph(n: u32, seed: u64) -> Vec<(u32, u32, f64)> {
        let mut x = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        let mut next = |bound: u32| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x >> 33) as u32 % bound
        };
        let mut raw = Vec::new();
        while raw.len() < 4 * n as usize {
            let (from, to) = (next(n), next(n));
            if from == to {
                continue;
            }
            raw.push((from, to, f64::from(next(5))));
            match next(4) {
                0 => raw.push((to, from, f64::from(next(5)))),
                1 => raw.push((from, to, f64::from(next(5)))),
                _ => {}
            }
        }
        raw
    }

    /// The hierarchy `build` makes of raw arcs (one worker), plus the
    /// legs contraction chose for every shortcut of its pool, by pool id
    /// (`legs[i - raw.len()]` for pool arc `i`): the contraction replayed
    /// in rank order, reading each plan's `needed` list.
    fn raw_hierarchy(
        n: usize,
        raw: &[(u32, u32, f64)],
    ) -> (ContractionHierarchy, Vec<ChArc>, Vec<(u32, u32)>) {
        let mut ordered = raw_builder(n, raw);
        contract_in_priority_order(n, 1, &mut ordered);
        let mut replay = raw_builder(n, raw);
        let mut space = WitnessSpace::default();
        let mut legs = Vec::new();
        let mut order = vec![VertexId(0); n];
        for (v, &r) in ordered.rank.iter().enumerate() {
            order[r as usize] = VertexId(v as u32);
        }
        for (r, &v) in (0u32..).zip(&order) {
            replay.contract(v, r, &mut space);
            legs.extend(space.needed.iter().map(|&(a, b, _)| (a, b)));
        }
        let same = |a: &ChArc, b: &ChArc| {
            (a.from, a.to, a.weight.to_bits(), a.kind) == (b.from, b.to, b.weight.to_bits(), b.kind)
        };
        assert!(ordered
            .arcs
            .iter()
            .zip(&replay.arcs)
            .all(|(a, b)| same(a, b)));
        assert_eq!(ordered.arcs.len(), raw.len() + legs.len());
        let ch = ContractionHierarchy::assemble(
            LandmarkMetric::Length,
            raw.len(),
            ordered.rank,
            ordered.arcs,
        )
        .expect("a built pool assembles");
        (ch, replay.arcs, legs)
    }

    /// Single-source distances over raw arcs, O(n²) textbook Dijkstra.
    fn raw_distances(n: usize, raw: &[(u32, u32, f64)], s: usize) -> Vec<f64> {
        let mut dist = vec![f64::INFINITY; n];
        let mut done = vec![false; n];
        dist[s] = 0.0;
        while let Some(x) = (0..n)
            .filter(|&x| !done[x] && dist[x].is_finite())
            .min_by(|&a, &b| dist[a].total_cmp(&dist[b]))
        {
            done[x] = true;
            for &(_, to, w) in raw.iter().filter(|a| a.0 as usize == x) {
                dist[to as usize] = dist[to as usize].min(dist[x] + w);
            }
        }
        dist
    }

    #[test]
    fn ch_slots_keep_the_legs_contraction_joined_on_multigraphs() {
        // Random multigraphs with parallel arcs, zero weights, 2-cycles
        // and a self-loop at every fifth vertex; integer weights keep
        // every cost exact under any association.
        use crate::algo::cch::{CchConfig, CchTopology};
        use crate::algo::m2m::M2mSearch;
        for seed in 1..=40u64 {
            let n = 4 + (seed % 13) as usize;
            let mut raw = random_multigraph(n as u32, seed);
            raw.extend((0..n as u32).step_by(5).map(|v| (v, v, f64::from(v % 3))));
            let (ch, pool, legs) = raw_hierarchy(n, &raw);
            // The pool arc a slot keeps: the cheapest of its pair, lowest
            // id on ties.
            let mut kept = std::collections::HashMap::new();
            for (arc, i) in pool.iter().zip(0u32..) {
                let best = kept.entry((arc.from, arc.to)).or_insert(i);
                if arc.weight < pool[*best as usize].weight {
                    *best = i;
                }
            }
            let pool_unpack = |arc: u32| {
                let (mut edges, mut stack) = (Vec::new(), vec![arc]);
                while let Some(a) = stack.pop() {
                    match a.checked_sub(raw.len() as u32) {
                        None => edges.push(EdgeId(a)),
                        Some(s) => stack.extend([legs[s as usize].1, legs[s as usize].0]),
                    }
                }
                edges
            };
            let view = ch.view();
            let mut search = ChSearch::new(n);
            for (slot, arc) in ch.arcs().enumerate() {
                assert_ne!(arc.from, arc.to, "seed {seed}: a self-loop has a slot");
                let i = kept[&(arc.from, arc.to)];
                assert_eq!(arc.weight.to_bits(), pool[i as usize].weight.to_bits());
                if let ChArcKind::Shortcut(mid) = arc.kind {
                    let (a_in, a_out) = legs[i as usize - raw.len()];
                    assert_eq!(
                        (a_in, a_out),
                        (kept[&(arc.from, mid)], kept[&(mid, arc.to)]),
                        "seed {seed}: slot {slot} joins a dropped arc"
                    );
                }
                let (tail, head) = ch.skel.slot_ends(slot);
                let (mut edges, mut vertices) = (Vec::new(), Vec::new());
                let mut unpack = Unpack {
                    nodes: vec![(slot as u32, tail, head)],
                    ..Unpack::default()
                };
                view.expand(&mut unpack, &mut edges, &mut vertices);
                assert_eq!(
                    edges,
                    pool_unpack(i),
                    "seed {seed}: slot {slot} unpacks differently"
                );
                assert_eq!(vertices.last(), Some(&arc.to));
            }
            // Costs: the CH, a CCH over the same arcs as a graph under a
            // custom vector (zeros included), and m2m tables on both.
            let mut b = GraphBuilder::new();
            for i in 0..n {
                b.add_vertex(Point::new(i as f64, 0.0));
            }
            let mut custom = Vec::new();
            for &(from, to, w) in raw.iter().filter(|a| a.0 != a.1) {
                let attrs = EdgeAttrs::with_default_speed(1.0, RoadCategory::Residential);
                b.add_edge(VertexId(from), VertexId(to), attrs).unwrap();
                custom.push(w);
            }
            let g = b.build();
            let topo = std::sync::Arc::new(CchTopology::build(&g, &CchConfig::default()));
            let cch = topo.customize_weights(&g, &custom);
            let everyone: Vec<VertexId> = (0..n as u32).map(VertexId).collect();
            let mut m2m = M2mSearch::new(n);
            let tables = [
                view.many_to_many(&mut m2m, &everyone, &everyone),
                cch.view().many_to_many(&mut m2m, &everyone, &everyone),
            ];
            for s in 0..n {
                let expect = raw_distances(n, &raw, s);
                for (t, want) in expect.iter().map(|d| d.to_bits()).enumerate() {
                    let (sv, tv) = (VertexId(s as u32), VertexId(t as u32));
                    for (name, got) in [
                        ("ch", view.query_cost(&mut search, sv, tv)),
                        ("cch", cch.view().query_cost(&mut search, sv, tv)),
                        ("ch m2m", Some(tables[0].dist(s, t))),
                        ("cch m2m", Some(tables[1].dist(s, t))),
                    ] {
                        let got = got.unwrap_or(f64::INFINITY).to_bits();
                        assert_eq!(got, want, "seed {seed}: {name} {s} -> {t}");
                    }
                    // A path's edges sum to its cost and chain s to t.
                    if let Some((edges, vertices)) = view.query_path(&mut search, sv, tv) {
                        let cost: f64 = edges.iter().map(|e| raw[e.index()].2).sum();
                        assert_eq!(cost.to_bits(), want, "seed {seed}: path {s} -> {t}");
                        for (e, pair) in edges.iter().zip(vertices.windows(2)) {
                            let (from, to, _) = raw[e.index()];
                            assert_eq!((VertexId(from), VertexId(to)), (pair[0], pair[1]));
                        }
                    }
                }
            }
        }
    }

    /// Reference for the estimate: the pairs of a distinct in- and
    /// out-neighbour (cheapest arcs, as gathered) with no live path
    /// `u -> w` or `u -> x -> w` avoiding `v` within `d(u,v) + d(v,w)`,
    /// where a first hop from `u` costs its cheapest arc.
    fn estimate_by_definition(b: &Builder, v: VertexId) -> usize {
        let live = |x: VertexId| b.rank[x.index()] == u32::MAX;
        let arcs = || b.arcs.iter().filter(|a| live(a.from) && live(a.to));
        let hop = |u: VertexId, x: VertexId| {
            let between = arcs().filter(|a| a.from == u && a.to == x);
            between.map(|a| a.weight).fold(f64::INFINITY, f64::min)
        };
        let mut space = WitnessSpace::default();
        b.gather_neighbors(v, &mut space);
        let mut needed = 0;
        for &(u, _, duv) in &space.ins {
            for &(w, _, dvw) in space.outs.iter().filter(|t| t.0 != u) {
                let via = duv + dvw;
                let two = |a: &&ChArc| a.to == w && a.from != u && a.from != v;
                let witnessed = hop(u, w) <= via
                    || arcs().filter(two).any(|a| hop(u, a.from) + a.weight <= via);
                needed += usize::from(!witnessed);
            }
        }
        needed
    }

    /// Reference for the proof: the shortcuts contracting `v` needs, by
    /// definition — every pair of a distinct in- and out-neighbour whose
    /// exact distance among the uncontracted vertices minus `v` exceeds
    /// the path through `v` — as sorted `(in arc, out arc, weight bits)`.
    fn needed_by_definition(b: &Builder, v: VertexId) -> Vec<(u32, u32, u64)> {
        let n = b.rank.len();
        let live = |x: VertexId| b.rank[x.index()] == u32::MAX && x != v;
        // Cheapest arc per neighbour, lowest arc id on ties.
        let mut ins = std::collections::BTreeMap::new();
        let mut outs = std::collections::BTreeMap::new();
        for (arc, a) in b.arcs.iter().zip(0u32..) {
            for (nb, map) in [(arc.from, &mut ins), (arc.to, &mut outs)] {
                let other = if nb == arc.from { arc.to } else { arc.from };
                if other != v || !live(nb) {
                    continue;
                }
                let best = map.entry(nb).or_insert((a, arc.weight));
                if arc.weight < best.1 {
                    *best = (a, arc.weight);
                }
            }
        }
        let mut needed = Vec::new();
        for (&u, &(a_in, duv)) in &ins {
            // Textbook Dijkstra from `u`, O(n²), over the live arcs.
            let mut dist = vec![f64::INFINITY; n];
            let mut done = vec![false; n];
            dist[u.index()] = 0.0;
            while let Some(x) = (0..n)
                .filter(|&x| !done[x] && dist[x].is_finite())
                .min_by(|&a, &b| dist[a].total_cmp(&dist[b]))
            {
                done[x] = true;
                for arc in b.arcs.iter().filter(|a| a.from.index() == x && live(a.to)) {
                    let nd = dist[x] + arc.weight;
                    if nd < dist[arc.to.index()] {
                        dist[arc.to.index()] = nd;
                    }
                }
            }
            for (&w, &(a_out, dvw)) in &outs {
                if w != u && dist[w.index()] > duv + dvw {
                    needed.push((a_in, a_out, (duv + dvw).to_bits()));
                }
            }
        }
        needed.sort_unstable();
        needed
    }

    #[test]
    fn ch_build_proof_is_exact_and_estimate_never_undercounts() {
        // With the cap lifted `plan_contraction` must find exactly the
        // shortcuts the definition asks for (this is what guards the
        // target-aware stop and the `limit` arithmetic), and the estimate
        // must count exactly the pairs its own definition asks for (which
        // guards the scans it skips) and may only over-count the proof.
        // Checked on every uncontracted vertex of every intermediate graph
        // of a contraction in id order.
        for seed in 1..=12u64 {
            let n = 6 + (seed % 5) as u32 * 2;
            let mut b = raw_builder(n as usize, &random_multigraph(n, seed));
            let mut space = WitnessSpace::default();
            let mut other_space = WitnessSpace::default();
            for next in 0..n {
                for v in (next..n).map(VertexId) {
                    b.plan_contraction(v, &mut space);
                    let mut proved: Vec<(u32, u32, u64)> = space
                        .needed
                        .iter()
                        .map(|&(a, b, w)| (a, b, w.to_bits()))
                        .collect();
                    proved.sort_unstable();
                    assert_eq!(
                        proved,
                        needed_by_definition(&b, v),
                        "seed {seed}, {next} contracted, {v:?}"
                    );
                    let estimate = b.estimate_contraction(v, &mut space);
                    assert_eq!(
                        estimate.0,
                        estimate_by_definition(&b, v),
                        "seed {seed}, {next} contracted, {v:?}: estimate"
                    );
                    assert!(
                        estimate.0 >= proved.len(),
                        "seed {seed}, {next} contracted, {v:?}: estimated {} of {}",
                        estimate.0,
                        proved.len()
                    );
                    assert_eq!(estimate.1, space.ins.len() + space.outs.len());
                    assert_eq!(
                        (estimate, b.priority(v, &mut space)),
                        (
                            b.estimate_contraction(v, &mut other_space),
                            b.priority(v, &mut other_space)
                        ),
                        "the estimate must be a pure function of the builder"
                    );
                }
                b.contract(VertexId(next), next, &mut space);
            }
        }
    }

    /// The witness search and the plan as they were before the search
    /// stopped at its verdict, kept verbatim: the search runs until every
    /// target is settled (or the popped key exceeds `reach + d(avoid, w)`
    /// of every unsettled one), rescanning the targets on every settle.
    impl Builder {
        fn reference_witness_search(
            &self,
            space: &mut WitnessSpace,
            source: VertexId,
            avoid: VertexId,
            reach: f64,
            targets: &[(VertexId, u32, f64)],
        ) -> u64 {
            let farthest_open = |space: &WitnessSpace, mark: u64| {
                let open = targets
                    .iter()
                    .filter(|t| t.0 != source && space.stamp[t.0.index()] != mark | 1);
                reach + open.map(|t| t.2).fold(f64::NEG_INFINITY, f64::max)
            };
            let mark = space.begin();
            // Labels are pruned against the static bound; the stop bound
            // tightens as targets settle.
            let limit = farthest_open(space, mark);
            let mut stop = limit;
            space.heap.clear();
            space.stamp[source.index()] = mark;
            space.dist[source.index()] = 0.0;
            space.heap.push(MinCost {
                cost: 0.0,
                item: source,
            });
            let mut settled = 0usize;
            while let Some(MinCost { cost: d, item: u }) = space.heap.pop() {
                if space.stamp[u.index()] == mark | 1 {
                    continue;
                }
                space.stamp[u.index()] = mark | 1;
                settled += 1;
                if u != source && targets.iter().any(|t| t.0 == u) {
                    stop = farthest_open(space, mark);
                }
                if d > stop || settled >= self.cap {
                    break;
                }
                for &a in &self.out_adj[u.index()] {
                    let arc = self.arcs[a as usize];
                    let v = arc.to;
                    if v == avoid || space.stamp[v.index()] == mark | 1 {
                        continue;
                    }
                    let nd = d + arc.weight;
                    if nd <= limit && space.reached(mark, v).is_none_or(|old| nd < old) {
                        space.stamp[v.index()] = mark;
                        space.dist[v.index()] = nd;
                        space.heap.push(MinCost { cost: nd, item: v });
                    }
                }
            }
            mark
        }

        fn reference_plan(&self, v: VertexId, space: &mut WitnessSpace) -> Vec<(u32, u32, f64)> {
            space.needed.clear();
            self.gather_neighbors(v, space);
            let ins = std::mem::take(&mut space.ins);
            let outs = std::mem::take(&mut space.outs);
            for &(u, a_in, duv) in &ins {
                if outs.iter().all(|t| t.0 == u) {
                    continue;
                }
                let mark = self.reference_witness_search(space, u, v, duv, &outs);
                for &(w, a_out, dvw) in &outs {
                    let via = duv + dvw;
                    if w != u && space.reached(mark, w).is_none_or(|witness| witness > via) {
                        space.needed.push((a_in, a_out, via));
                    }
                }
            }
            space.ins = ins;
            space.outs = outs;
            std::mem::take(&mut space.needed)
        }
    }

    #[test]
    fn ch_witness_stop_keeps_every_capped_verdict() {
        // The definition test above runs uncapped, where any stop that
        // settles every vertex within reach is exact; under a cap the
        // verdicts also depend on which vertices the cap lets settle, so
        // the search must settle a prefix of the reference's sequence.
        // Small integer weights make ties, and so heap order, matter.
        for cap in [2, 3, 5, usize::MAX] {
            for seed in 1..=12u64 {
                let n = 6 + (seed % 5) as u32 * 2;
                let mut b = raw_builder(n as usize, &random_multigraph(n, seed));
                b.cap = cap;
                let mut space = WitnessSpace::default();
                let mut reference = WitnessSpace::default();
                for next in 0..n {
                    for v in (next..n).map(VertexId) {
                        b.plan_contraction(v, &mut space);
                        let bits = |needed: &[(u32, u32, f64)]| -> Vec<(u32, u32, u64)> {
                            needed
                                .iter()
                                .map(|&(a, b, w)| (a, b, w.to_bits()))
                                .collect()
                        };
                        assert_eq!(
                            bits(&space.needed),
                            bits(&b.reference_plan(v, &mut reference)),
                            "cap {cap}, seed {seed}, {next} contracted, {v:?}"
                        );
                    }
                    b.contract(VertexId(next), next, &mut space);
                }
            }
        }
    }
}

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
//!   drop a shortcut. Bit-identical for any thread count (golden
//!   fingerprints in the unit tests).
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

/// What an arc expands to: an original graph edge, or the concatenation
/// of two lower-level arcs (the pair a contracted vertex joined).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChArcKind {
    /// A real edge of the underlying graph.
    Original(EdgeId),
    /// A shortcut: expands to arc `.0` followed by arc `.1`.
    Shortcut(u32, u32),
}

/// The stored form of a [`ChArcKind`], 8 bytes where the enum takes 12:
/// `(first, second)` for a shortcut, `(edge, u32::MAX)` for an original
/// edge. No arc id is `u32::MAX` (ids are below a `u32` arc count).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ArcRule(pub(crate) u32, pub(crate) u32);

const _: () = assert!(std::mem::size_of::<ArcRule>() == 8);

impl ArcRule {
    pub(crate) fn original(e: EdgeId) -> Self {
        ArcRule(e.0, u32::MAX)
    }

    /// The public view.
    pub(crate) fn kind(self) -> ChArcKind {
        match self {
            ArcRule(e, u32::MAX) => ChArcKind::Original(EdgeId(e)),
            ArcRule(first, second) => ChArcKind::Shortcut(first, second),
        }
    }

    /// Whether this is a shortcut with `arc` as one of its halves.
    pub(crate) fn joins(self, arc: u32) -> bool {
        self.1 != u32::MAX && (self.0 == arc || self.1 == arc)
    }
}

impl From<ChArcKind> for ArcRule {
    fn from(kind: ChArcKind) -> Self {
        match kind {
            ChArcKind::Original(e) => ArcRule::original(e),
            ChArcKind::Shortcut(first, second) => ArcRule(first, second),
        }
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
    /// two child arc weights as computed at contraction time).
    pub weight: f64,
    /// Expansion rule.
    pub kind: ChArcKind,
}

/// The weight-independent half of a hierarchy: ranks, arc endpoints and
/// the rank-space search CSR. A [`ContractionHierarchy`] owns one beside
/// its weights; every customization of a
/// [`crate::algo::cch::CchTopology`] shares the topology's.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Skeleton {
    /// `rank[v]` = contraction position of `v` (0 contracted first).
    pub(crate) rank: Vec<u32>,
    /// `(tail, head)` of every arc of the pool, in vertex space.
    pub(crate) ends: Vec<(VertexId, VertexId)>,
    // Search graph in CSR form, one contiguous segment per rank holding
    // the *upward out-arcs* (to higher-ranked heads) followed by the
    // *downward in-arcs* (from higher-ranked tails). The forward search
    // expands the first part and stall-checks the second; the backward
    // search does the reverse — so every settle reads one contiguous
    // region of `seg_arcs` and of the matching weight column (the query
    // is cache-line-bound).
    pub(crate) seg_offsets: Vec<u32>,
    pub(crate) seg_mid: Vec<u32>,
    pub(crate) seg_arcs: Vec<SearchArc>,
}

impl Skeleton {
    pub(crate) fn heap_bytes(&self) -> usize {
        4 * (self.rank.len() + self.seg_offsets.len() + self.seg_mid.len())
            + 8 * (self.ends.len() + self.seg_arcs.len())
    }
}

/// One adjacency entry of the query-time search graphs. Its weight sits
/// at the same index of a separate column, so a live re-weighting writes
/// that column and never copies structure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct SearchArc {
    /// The *rank* of the arc's other endpoint: head on upward entries,
    /// tail on downward ones (the query loop runs entirely in rank
    /// space, see [`ContractionHierarchy::assemble`]).
    pub(crate) other: u32,
    /// Index into the arc pool (for parent chains / unpacking).
    pub(crate) arc: u32,
}

/// What the query, unpack and many-to-many loops read: a [`Skeleton`]
/// plus the two columns they need of one weighting — per-arc expansion
/// rules and per-segment-slot weights. [`ContractionHierarchy::view`] and
/// [`crate::algo::cch::Cch::view`] both produce it, so each loop is
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
    /// Weights epoch of the graph at build time (see
    /// [`Graph::weights_epoch`]); 0 for hierarchies loaded from disk. The
    /// engine skips the index when the graph has been mutated since.
    weights_epoch: u64,
    skel: Skeleton,
    /// Arc pool columns beside `skel.ends`: original edges first (`arc i`
    /// = `EdgeId(i)` for `i < m`), shortcuts appended in creation order.
    weights: Vec<f64>,
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
    /// Arc that reached the vertex; `u32::MAX` marks the search root.
    parent_arc: u32,
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
                    parent_arc: u32::MAX,
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
    pub(crate) fn parent_arc(&self, v: VertexId) -> u32 {
        self.entries[v.index()].parent_arc
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
    pub(crate) fn relax(&mut self, v: VertexId, d: f64, parent_arc: u32) {
        self.entries[v.index()] = ChEntry {
            stamp: self.epoch << 1,
            dist: d,
            parent_arc,
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
    /// Explicit expansion stack (recursion-free shortcut unpacking).
    unpack_stack: Vec<u32>,
    /// Forward parent-arc chain scratch (meet back to the source).
    chain_buf: Vec<u32>,
}

impl ChSearch {
    /// Creates scratch state for graphs with `n` vertices.
    pub fn new(n: usize) -> Self {
        ChSearch {
            fwd: ChSide::new(n),
            bwd: ChSide::new(n),
            edge_buf: Vec::new(),
            vertex_buf: Vec::new(),
            unpack_stack: Vec::new(),
            chain_buf: Vec::new(),
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
    /// What the last [`Builder::plan_contraction`] proved needed:
    /// `(in arc, out arc, shortcut weight)`.
    needed: Vec<(u32, u32, f64)>,
    /// [`Builder::plan_contraction`] calls made with this space.
    proofs: usize,
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
    /// `targets` (`avoid`'s out-neighbours with `d(avoid, w)`; `reach` is
    /// `d(source, avoid)`). Stops at the settle cap, once every target is
    /// settled, or once the popped key exceeds `reach + d(avoid, w)` of
    /// every unsettled target — none of them can be witnessed any more.
    /// Leaves tentative distances in `space` (upper bounds on the true
    /// local distance — safe for witness tests even when the cap
    /// truncates the search) and returns the epoch's mark.
    fn witness_search(
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
        for &(u, a_in, duv) in &ins {
            // Nothing to prove when `u` is the only out-neighbour.
            if outs.iter().all(|t| t.0 == u) {
                continue;
            }
            let mark = self.witness_search(space, u, v, duv, &outs);
            for &(w, a_out, dvw) in &outs {
                let via = duv + dvw;
                if w != u && space.reached(mark, w).is_none_or(|witness| witness > via) {
                    space.needed.push((a_in, a_out, via));
                }
            }
        }
        space.ins = ins;
        space.outs = outs;
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
                kind: ChArcKind::Shortcut(a_in, a_out),
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
        let mut ch = Self::assemble(metric, g.edge_count(), rank, arcs);
        ch.weights_epoch = g.weights_epoch();
        ch
    }

    /// Builds the CSR search graphs from the rank array and arc pool
    /// (shared by [`ContractionHierarchy::build`] and the io layer's
    /// deserialiser).
    ///
    /// The search graphs live in **rank space**: CSR buckets and
    /// [`SearchArc::other`] use a vertex's rank, not its id. Every query
    /// climbs into the same top-of-hierarchy vertices, so rank-ordering
    /// the per-vertex state and adjacency clusters that shared hot
    /// region into a few contiguous cache lines (a large constant-factor
    /// win on the memory-bound query loop). The arc *pool* stays in
    /// vertex space for unpacking.
    pub(crate) fn assemble(
        metric: LandmarkMetric,
        m: usize,
        rank: Vec<u32>,
        arcs: Vec<ChArc>,
    ) -> Self {
        let n = rank.len();
        // An arc hangs off its lower-ranked endpoint, in the upward half
        // of that rank's segment when that is its tail; halves hold arc
        // ids in ascending order.
        let no_arc = SearchArc { other: 0, arc: 0 };
        let (mut halves, mut seg_arcs) = group_by_key(2 * n, no_arc, |emit| {
            for (arc, i) in arcs.iter().zip(0u32..) {
                let (rf, rt) = (rank[arc.from.index()], rank[arc.to.index()]);
                if rf < rt {
                    emit(2 * rf, SearchArc { other: rt, arc: i });
                } else {
                    emit(2 * rt + 1, SearchArc { other: rf, arc: i });
                }
            }
        });
        // Contraction can leave several parallel arcs between one vertex
        // pair (an original edge plus successively cheaper shortcuts);
        // only the cheapest can ever lie on a shortest path, so the
        // search graphs keep just that one, at the pair's first position
        // (lowest arc id on ties, for determinism). The arc *pool* keeps
        // everything: dominated arcs may still be children of shortcuts
        // and are needed for unpacking. Compacts `seg_arcs` in place;
        // `slot_of[r]` is one past the slot holding the current half's
        // arc to rank `r`.
        let mut slot_of = vec![0u32; n];
        let (mut read, mut write) = (0usize, 0usize);
        for h in 0..2 * n {
            let start = write;
            let end = halves[h + 1] as usize;
            halves[h] = start as u32;
            for i in read..end {
                let sa = seg_arcs[i];
                let slot = slot_of[sa.other as usize] as usize;
                if slot > start {
                    let best = &mut seg_arcs[slot - 1].arc;
                    if arcs[sa.arc as usize].weight < arcs[*best as usize].weight {
                        *best = sa.arc;
                    }
                } else {
                    seg_arcs[write] = sa;
                    write += 1;
                    slot_of[sa.other as usize] = write as u32;
                }
            }
            read = end;
        }
        halves[2 * n] = write as u32;
        seg_arcs.truncate(write);
        seg_arcs.shrink_to_fit();
        let seg_weights = seg_arcs
            .iter()
            .map(|sa| arcs[sa.arc as usize].weight)
            .collect();
        ContractionHierarchy {
            metric,
            m,
            weights_epoch: 0,
            weights: arcs.iter().map(|a| a.weight).collect(),
            rules: arcs.iter().map(|a| a.kind.into()).collect(),
            skel: Skeleton {
                ends: arcs.iter().map(|a| (a.from, a.to)).collect(),
                seg_offsets: halves.iter().step_by(2).copied().collect(),
                seg_mid: halves.iter().skip(1).step_by(2).copied().collect(),
                seg_arcs,
                rank,
            },
            seg_weights,
        }
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

    /// Weights epoch of the graph this hierarchy was built against
    /// (0 for hierarchies loaded from disk).
    pub fn weights_epoch(&self) -> u64 {
        self.weights_epoch
    }

    /// Number of shortcut arcs the contraction inserted.
    pub fn shortcut_count(&self) -> usize {
        self.rules.len() - self.m
    }

    /// The full arc pool (original edges first, then shortcuts).
    pub fn arcs(&self) -> impl ExactSizeIterator<Item = ChArc> + '_ {
        let cols = self.skel.ends.iter().zip(&self.weights).zip(&self.rules);
        cols.map(|((&(from, to), &weight), rule)| ChArc {
            from,
            to,
            weight,
            kind: rule.kind(),
        })
    }

    /// Heap bytes the index holds (the `pathrank_serve_index_bytes`
    /// gauge).
    pub fn heap_bytes(&self) -> usize {
        self.skel.heap_bytes()
            + 8 * (self.weights.len() + self.seg_weights.len())
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
        let lo = self.skel.seg_offsets[u.index()] as usize;
        let ups = self.skel.seg_mid[u.index()] as usize - lo;
        let hi = self.skel.seg_offsets[u.index() + 1] as usize;
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
                    fwd.relax(v, nd, sa.arc);
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
                    bwd.relax(v, nd, sa.arc);
                    bwd.heap.push(MinCost { cost: nd, item: v });
                }
            }
        }
        meet.map(|m| (m, best))
    }

    /// Expands `arc` into original edges appended to `edges`, emitting
    /// each edge's head vertex into `vertices` alongside (explicit
    /// stack; shortcut nesting can be deep). Original-edge arcs carry
    /// their endpoints in the pool, so no graph lookups are needed.
    fn expand_arc(
        &self,
        arc: u32,
        stack: &mut Vec<u32>,
        edges: &mut Vec<EdgeId>,
        vertices: &mut Vec<VertexId>,
    ) {
        stack.clear();
        stack.push(arc);
        while let Some(a) = stack.pop() {
            match self.rules[a as usize].kind() {
                ChArcKind::Original(e) => {
                    edges.push(e);
                    vertices.push(self.skel.ends[a as usize].1);
                }
                ChArcKind::Shortcut(first, second) => {
                    stack.push(second);
                    stack.push(first);
                }
            }
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
        let (rank, ends) = (&self.skel.rank, &self.skel.ends);
        // Forward chain: arcs source -> meet, gathered top-down. The
        // parent chains live in rank space; the pool arcs they name are
        // in vertex space.
        let mut chain = std::mem::take(&mut search.chain_buf);
        chain.clear();
        let mut cur = meet;
        loop {
            let a = search.fwd.parent_arc(cur);
            if a == u32::MAX {
                break;
            }
            chain.push(a);
            cur = VertexId(rank[ends[a as usize].0.index()]);
        }
        debug_assert_eq!(
            cur.0,
            rank[source.index()],
            "forward chain must reach the source"
        );
        let mut edges = std::mem::take(&mut search.edge_buf);
        let mut vertices = std::mem::take(&mut search.vertex_buf);
        let mut stack = std::mem::take(&mut search.unpack_stack);
        edges.clear();
        vertices.clear();
        vertices.push(source);
        for &a in chain.iter().rev() {
            self.expand_arc(a, &mut stack, &mut edges, &mut vertices);
        }
        // Backward chain: arcs meet -> target, already in path order.
        let mut cur = meet;
        loop {
            let a = search.bwd.parent_arc(cur);
            if a == u32::MAX {
                break;
            }
            self.expand_arc(a, &mut stack, &mut edges, &mut vertices);
            cur = VertexId(rank[ends[a as usize].1.index()]);
        }
        debug_assert_eq!(
            cur.0,
            rank[target.index()],
            "backward chain must reach the target"
        );
        search.chain_buf = chain;
        search.edge_buf = edges;
        search.vertex_buf = vertices;
        search.unpack_stack = stack;
        Some((&search.edge_buf, &search.vertex_buf))
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

    /// FNV-1a, word-wise, over everything `build` decides: the rank array
    /// and the arc pool (endpoints, weight bits, expansion rule).
    fn fingerprint(ch: &ContractionHierarchy) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut word = |w: u64| h = (h ^ w).wrapping_mul(0x0000_0100_0000_01b3);
        ch.ranks().iter().for_each(|&r| word(u64::from(r)));
        for a in ch.arcs() {
            word(u64::from(a.from.0) << 32 | u64::from(a.to.0));
            word(a.weight.to_bits());
            match a.kind {
                ChArcKind::Original(e) => word(u64::from(e.0)),
                ChArcKind::Shortcut(x, y) => word(1 << 63 | u64::from(x) << 32 | u64::from(y)),
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
            (region(), 0x63d6_d686_4fa3_55acu64, 114usize),
            (grid24(), 0x9c41_e465_3bbd_4a81u64, 3550usize),
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
        // may only over-count them. Checked on every uncontracted vertex
        // of every intermediate graph of a contraction in id order.
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
}

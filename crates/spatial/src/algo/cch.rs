//! Customizable contraction hierarchies (CCH): a metric-independent
//! contraction phase plus a millisecond re-weighting pass.
//!
//! A hierarchy built for one metric bakes its weights into the arcs it
//! keeps, so any weight change — live traffic, a learned
//! [`CostModel::Custom`] vector, a perturbation experiment — invalidates
//! it and costs a rebuild. The customizable variant splits the work
//! (Dibbelt, Strasser & Wagner, "Customizable Contraction Hierarchies"):
//!
//! 1. **Preprocessing** ([`CchTopology::build`]) fixes a contraction
//!    order with the deterministic lazy-update loop of `algo/order.rs`
//!    and an edge-difference priority on *topology only* (a pair of
//!    uncontracted vertices is joined or it is not — no weights, no
//!    search). The order is a property of the graph, which keeps it
//!    once computed: whichever hierarchy is built first runs the loop,
//!    and every later build over the same [`Graph`] assembles its arcs
//!    from the kept order. The topology is the graph's undirected one:
//!    a pair joined by an edge in either direction gets both arcs, and
//!    contracting `v` joins every pair of its neighbours that is not
//!    joined yet. So the
//!    arcs are chordal: every `(u -> v, v -> w)` pair through a mid `v`
//!    ranked below both ends is a **lower triangle** of the arc
//!    `u -> w`, and every vertex's upper neighbours form a clique, which
//!    makes them all ancestors of it in the **elimination tree** (a
//!    rank's parent is its lowest upper neighbour). Triangles are implied
//!    by the arcs and never listed. A direction that no edge or triangle
//!    covers customizes to `+∞`. The metric-built
//!    [`crate::algo::ch::ContractionHierarchy`] starts from the same
//!    order and arcs and keeps the ones a perfect customization leaves
//!    alone (`metric_hierarchy`).
//! 2. **Customization** ([`CchTopology::customize`] /
//!    [`CchTopology::customize_weights`]) re-derives every arc weight for
//!    a concrete metric: initialise each arc from its cheapest parallel
//!    original edge, then relax every lower triangle
//!    (`w(a) = min(w(a), w(b) + w(c))`) in a sweep over the tails in
//!    ascending rank. The sweep runs the subtrees below a cut of the
//!    elimination tree on [`CchConfig::threads`] workers at once, then
//!    the ranks above the cut (section 6 of the paper): a tail's
//!    triangles read and write only arcs whose lower end lies in its own
//!    subtree, so the split is bit-identical to one sequential pass. A
//!    tail `p` stamps its out-arcs into a row indexed by head rank,
//!    then walks its lower neighbours `v` in
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
//! 3. **Queries** run the elimination-tree walk, the shortcut
//!    unpacking and the bucket many-to-many walks of
//!    [`crate::algo::ch`] unchanged, through a [`HierarchyView`]: the
//!    topology's weight-free `Skeleton` (ranks, tree and search
//!    segments) plus the columns one customization wrote. Structure is
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
//!    plus seven 4-byte entries per rank (rank, vertex of the rank, tree
//!    parent, two segment bounds, two `down_offsets`), a quarter byte per
//!    arc of the skeleton's slot -> rank hints, and nothing per triangle.
//!    The stamped row (8 bytes per rank) is scratch beside each [`Cch`].
//!
//! The price of customizability is a denser search graph: every chordal
//! arc is kept, where the metric-built hierarchy drops the ones its
//! perfect customization lowered, so a query relaxes more arcs along the
//! same tree walk. The trade-off wins whenever weights move faster than
//! queries amortise a rebuild: live-traffic routing, per-driver custom
//! cost vectors, and perturbation sweeps.

use std::borrow::Cow;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

use crate::algo::ch::{ArcRule, HierarchyView, SearchArc, Skeleton};
use crate::algo::labels::{Marks, NO_PARENT};
use crate::algo::landmarks::LandmarkMetric;
use crate::algo::order::contract_in_priority_order;
use crate::graph::{ContractionOrder, CostModel, EdgeId, Graph, VertexId};
use crate::util::group_by_key;

/// Tuning knobs for CCH preprocessing.
#[derive(Debug, Clone)]
pub struct CchConfig {
    /// Worker threads for the ordering loop's initial-priority sweep and
    /// for every full customization of the topology, which runs the
    /// subtrees below a cut of the elimination tree side by side. Results
    /// are bit-identical for any count; a sparse delta is one sequential
    /// pass.
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
#[derive(Debug, Clone)]
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
    /// Workers of every full customization, from [`CchConfig::threads`];
    /// no part of the topology's value.
    threads: usize,
}

impl PartialEq for CchTopology {
    fn eq(&self, other: &Self) -> bool {
        self.m == other.m
            && self.orig_offsets == other.orig_offsets
            && self.orig_edges == other.orig_edges
            && self.down_offsets == other.down_offsets
            && self.down == other.down
            && self.edge_arc == other.edge_arc
            && self.skel == other.skel
    }
}

impl Eq for CchTopology {}

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
/// uncontracted vertices, on the graph's *undirected* topology. A pair
/// of vertices joined by an edge in either direction gets both arcs, so
/// every vertex's upper neighbours end up a clique both ways — what the
/// elimination-tree walk of the queries needs — and a direction that no
/// edge or triangle covers customizes to `+∞`. An adjacency entry is the
/// other vertex of a pair, all the ordering loop ever reads of an arc.
struct TopoBuilder {
    /// Vertex pairs in creation order, one entry per pair ever joined;
    /// written here, read only by [`CchTopology::finalise`], which makes
    /// two arcs of each.
    pairs: Vec<(VertexId, VertexId)>,
    /// Per uncontracted vertex, its uncontracted neighbours, each once:
    /// `contract` prunes the neighbours' lists and frees the vertex's own.
    adj: Vec<Vec<VertexId>>,
    /// `u32::MAX` while uncontracted, final rank afterwards.
    rank: Vec<u32>,
    deleted_neighbors: Vec<u32>,
    level: Vec<u32>,
}

/// Per-worker buffers of the ordering loop.
#[derive(Default)]
struct TopoScratch {
    /// Uncontracted neighbours of the probed vertex.
    nbs: Vec<VertexId>,
    /// The fill-in contracting the probed vertex inserts, in insertion
    /// order: every pair of its neighbours not joined yet.
    fill: Vec<(VertexId, VertexId)>,
    /// A vertex set emptied in O(1): the neighbours of one neighbour
    /// (`probe`), or of the probed vertex (`priority`).
    marks: Marks,
}

impl TopoBuilder {
    fn new(g: &Graph) -> Self {
        let n = g.vertex_count();
        let mut pairs: Vec<(VertexId, VertexId)> = Vec::with_capacity(g.edge_count() / 2);
        let mut adj: Vec<Vec<VertexId>> = vec![Vec::new(); n];
        for e in g.edges() {
            // Self-loops can never lie on a shortest path (weights are
            // non-negative) and would break the chordal invariants; drop
            // them from the topology outright. Parallel and opposite
            // edges share one pair.
            if e.from == e.to || adj[e.from.index()].contains(&e.to) {
                continue;
            }
            pairs.push((e.from, e.to));
            adj[e.from.index()].push(e.to);
            adj[e.to.index()].push(e.from);
        }
        TopoBuilder {
            pairs,
            adj,
            rank: vec![u32::MAX; n],
            deleted_neighbors: vec![0; n],
            level: vec![0; n],
        }
    }

    /// Gathers `v`'s uncontracted neighbours and the fill-in its
    /// contraction needs into `scratch`. Pairs are unique and the lists
    /// hold no self-loop, so nothing is deduplicated. Whether `u` and `w`
    /// are joined is one mark: `u`'s neighbours are marked in a set of
    /// their own per neighbour `u`.
    fn probe(&self, v: VertexId, scratch: &mut TopoScratch) {
        scratch.nbs.clone_from(&self.adj[v.index()]);
        scratch.fill.clear();
        for i in 0..scratch.nbs.len() {
            let u = scratch.nbs[i];
            scratch.marks.begin(self.rank.len());
            for &w in &self.adj[u.index()] {
                scratch.marks.insert(w.index());
            }
            for &w in &scratch.nbs[i + 1..] {
                if !scratch.marks.contains(w.index()) {
                    scratch.fill.push((u, w));
                }
            }
        }
    }

    /// The lazy-update priority of `v`: twice the edge difference — arcs
    /// inserted minus arcs removed, two per pair — plus the
    /// deleted-neighbours and depth uniformity terms; shortcuts are
    /// counted by pure pair existence, no weights and no search. The
    /// fill-in is counted, not listed: `v`'s neighbours are marked once,
    /// every pair among them joined already is met twice over their
    /// lists, and the rest of the `k (k - 1) / 2` pairs are missing.
    /// Pure, so the initial sweep runs it from many threads.
    fn priority(&self, v: VertexId, scratch: &mut TopoScratch) -> i64 {
        let nbs = &self.adj[v.index()];
        scratch.marks.begin(self.rank.len());
        for &u in nbs {
            scratch.marks.insert(u.index());
        }
        let mut joined = 0usize;
        for &u in nbs {
            for &w in &self.adj[u.index()] {
                joined += usize::from(scratch.marks.contains(w.index()));
            }
        }
        let k = nbs.len();
        let fill = k * k.saturating_sub(1) / 2 - joined / 2;
        let (inserted, removed) = (2 * fill, 2 * k);
        2 * (inserted as i64 - removed as i64)
            + self.deleted_neighbors[v.index()] as i64
            + 8 * self.level[v.index()] as i64
    }

    /// Contracts `v` at `rank`: completes the clique among its
    /// uncontracted neighbours (inserting fill-in pairs where missing,
    /// in the order `probe` lists them), bumps their deleted-neighbour
    /// count and depth, and prunes `v` out of their lists.
    fn contract(&mut self, v: VertexId, rank: u32, scratch: &mut TopoScratch) {
        self.probe(v, scratch);
        self.rank[v.index()] = rank;
        for &(u, w) in &scratch.fill {
            self.pairs.push((u, w));
            self.adj[u.index()].push(w);
            self.adj[w.index()].push(u);
        }
        let bumped = self.level[v.index()] + 1;
        for &nb in &scratch.nbs {
            // `v` is once in each neighbour's list.
            let list = &mut self.adj[nb.index()];
            let at = list.iter().position(|&x| x == v);
            list.swap_remove(at.expect("pairs are listed at both ends"));
            self.deleted_neighbors[nb.index()] += 1;
            let level = &mut self.level[nb.index()];
            *level = (*level).max(bumped);
        }
        // Nothing reads a contracted vertex's list again.
        self.adj[v.index()] = Vec::new();
    }
}

/// Runs the ordering loop on `g`'s topology (initial priorities fanned
/// out over `threads` workers): the ranks and the pairs it joined, in
/// creation order.
fn contraction(g: &Graph, threads: usize) -> ContractionOrder {
    let mut b = TopoBuilder::new(g);
    contract_in_priority_order(
        g.vertex_count(),
        threads,
        &mut b,
        TopoBuilder::priority,
        TopoBuilder::contract,
    );
    // Only the ranks and the pairs outlive the ordering loop.
    let TopoBuilder { pairs, rank, .. } = b;
    ContractionOrder {
        rank,
        pairs: Mutex::new(Some(pairs)),
    }
}

/// The pairs the contraction at `rank` joined, replayed: every vertex is
/// contracted at its rank, one probe each, with no priority and no heap.
/// The builder's lists after `r` contractions depend only on which
/// vertices went first, so the pairs come out as the ordering loop made
/// them.
fn replay(g: &Graph, rank: &[u32]) -> Vec<(VertexId, VertexId)> {
    let mut order = vec![VertexId(0); rank.len()];
    for (v, &r) in (0u32..).zip(rank) {
        order[r as usize] = VertexId(v);
    }
    let mut b = TopoBuilder::new(g);
    let mut scratch = TopoScratch::default();
    for (&v, r) in order.iter().zip(0u32..) {
        b.contract(v, r, &mut scratch);
    }
    b.pairs
}

/// The weight-free skeleton of `g`'s chordal topology: the contraction
/// order — the graph's, or the ordering loop's on its first build, which
/// the graph then keeps — then the arcs, two per vertex pair, numbered
/// by search slot, with the elimination tree. The pairs are the graph's
/// while it holds them (`take_pairs` takes them, which a topology build
/// does), replayed from the ranks otherwise. Search segments, one per
/// rank: upward out-arcs then downward in-arcs, each half in pair
/// creation order, so the two halves of a segment name the same ranks in
/// the same order. A half's arcs share their lower endpoint; an owner
/// hangs off a rank above the mid both its supports hang off, so it
/// sorts after them. Pairs are unique, so unlike
/// `ContractionHierarchy::assemble` there is nothing to dedupe.
/// Deterministic and bit-identical for any thread count.
fn skeleton(g: &Graph, threads: usize, take_pairs: bool) -> Skeleton {
    let n = g.vertex_count();
    let order = g.order.0.get_or_init(|| contraction(g, threads));
    let mut kept = order.pairs.lock().unwrap_or_else(PoisonError::into_inner);
    let taken = if take_pairs { kept.take() } else { None };
    let pairs: Cow<'_, [_]> = match (taken, &*kept) {
        (Some(pairs), _) => Cow::Owned(pairs),
        (None, Some(pairs)) => Cow::Borrowed(pairs),
        (None, None) => Cow::Owned(replay(g, &order.rank)),
    };
    let rank = &order.rank;
    assert!(
        n.max(g.edge_count()).max(2 * pairs.len()) <= ArcRule::ORIGINAL as usize,
        "ranks, edge ids and arc ids must fit 31 bits"
    );
    let (halves, by_slot) = group_by_key(2 * n, 0u32, |emit| {
        for (&(a, b), pair) in pairs.iter().zip(0u32..) {
            let low = rank[a.index()].min(rank[b.index()]);
            emit(2 * low, pair);
            emit(2 * low + 1, pair);
        }
    });
    let seg_arcs: Vec<SearchArc> = by_slot
        .iter()
        .map(|&pair| {
            let (a, b) = pairs[pair as usize];
            let other = rank[a.index()].max(rank[b.index()]);
            SearchArc { other }
        })
        .collect();
    drop((pairs, by_slot));
    drop(kept);
    // The parent of a rank in the elimination tree is its lowest upper
    // neighbour; the others are its ancestors, because every upper
    // neighbourhood is a clique.
    let parent = (0..n)
        .map(|r| {
            let (lo, mid) = (halves[2 * r] as usize, halves[2 * r + 1] as usize);
            let ups = seg_arcs[lo..mid].iter().map(|sa| sa.other);
            ups.min().unwrap_or(NO_PARENT)
        })
        .collect();
    Skeleton::new(rank.clone(), parent, halves, seg_arcs)
}

/// Every lower triangle of the arcs out of `tails` once, as
/// `(owner p -> q, p -> v, v -> q, v)`, tails `p` in the order given
/// (ascending rank) and, per tail, mids `v` in ascending rank: `p` stamps
/// its out-arcs, then each up-out arc `v -> q` of each lower neighbour
/// `v` (but the 2-cycle back to `p`) names its owner by `q`. So every
/// owner meets its mids in ascending rank, after all triangles of both
/// legs once every tail below `p` in its subtree came first: `v -> q`
/// belongs to the earlier tail `v`, and `p -> v` has only mids below
/// `v`. `down_out(p)` lists `p`'s arcs to lower ranks, ascending by the
/// lower rank.
fn for_each_triangle<'d>(
    skel: &Skeleton,
    tails: &[u32],
    down_out: &impl Fn(usize) -> &'d [DownArc],
    row: &mut ArcRow,
    mut relax: impl FnMut(u32, u32, u32, u32),
) {
    for p in tails.iter().map(|&p| p as usize) {
        let down_out = down_out(p);
        if down_out.is_empty() {
            continue;
        }
        stamp_out_arcs(skel, down_out, p, row);
        for b in down_out {
            let (lo, mid, _) = skel.bounds(b.other as usize);
            for (c, sa) in (lo..mid).zip(&skel.seg_arcs[lo as usize..mid as usize]) {
                if sa.other as usize != p {
                    relax(closing_arc(row, sa.other), b.arc, c, b.other);
                }
            }
        }
    }
}

/// Stamps every out-arc of rank `p` into `row` by its head's rank: its
/// upward segment half and its arcs to lower ranks, `down_out`.
fn stamp_out_arcs(skel: &Skeleton, down_out: &[DownArc], p: usize, row: &mut ArcRow) {
    row.restamp(skel.rank.len());
    let (lo, mid, _) = skel.bounds(p);
    for (slot, sa) in (lo..mid).zip(&skel.seg_arcs[lo as usize..mid as usize]) {
        row.insert(sa.other, slot);
    }
    for b in down_out {
        row.insert(b.other, b.arc);
    }
}

/// The arc `p -> q` closing the legs `p -> v -> q`, from the row stamped
/// for `p`'s out-arcs or `q`'s in-arcs.
#[inline]
fn closing_arc(row: &ArcRow, end: u32) -> u32 {
    row.get(end).expect("CCH arcs are not chordal")
}

/// Lowers one customization's columns to the relaxation of every lower
/// triangle, `p -> q ← (p -> v) + (v -> q)` with a strict `<`, the
/// winner's expansion word naming the mid `v`: the subtrees of `split`
/// at once, then the ranks above its cut. A tail's triangles read and
/// write only arcs whose lower end lies in the tail's own subtree, so
/// the sweep is bit-identical to one sequential pass in ascending rank.
fn relax_lower_triangles<'d>(
    skel: &Skeleton,
    split: &TreeSplit,
    down_out: &(impl Fn(usize) -> &'d [DownArc] + Sync),
    cols: &mut Columns,
    row: &mut ArcRow,
) {
    let sweep = |tails: &[u32], cols: &mut Columns, row: &mut ArcRow| {
        let Columns { weights, rules } = cols;
        for_each_triangle(skel, tails, down_out, row, |owner, b, c, mid| {
            let cand = weights[b as usize] + weights[c as usize];
            if cand < weights[owner as usize] {
                weights[owner as usize] = cand;
                rules[owner as usize] = ArcRule::shortcut(mid);
            }
        });
    };
    split.on_parts(cols, row, sweep, |cols, copy, r| {
        let (lo, _, hi) = skel.bounds(r);
        let seg = lo as usize..hi as usize;
        cols.weights[seg.clone()].copy_from_slice(&copy.weights[seg.clone()]);
        cols.rules[seg.clone()].copy_from_slice(&copy.rules[seg]);
    });
    sweep(&split.top, cols, row);
}

/// The elimination tree cut for `threads` workers (Dibbelt, Strasser &
/// Wagner, section 6): the ranks above the cut, and the subtrees below
/// it dealt out to the workers. The subtrees share no rank, and every
/// arc a customization step at a rank reads or writes has its lower end
/// in that rank's subtree or above the cut.
struct TreeSplit {
    /// The ranks above the cut, ascending: one sequential run.
    top: Vec<u32>,
    /// Per worker, the ranks of its subtrees, ascending; never empty.
    parts: Vec<Vec<u32>>,
}

impl TreeSplit {
    /// Cuts the heaviest subtree's root away until no subtree weighs
    /// more than a quarter of a worker's share (or an eighth of the
    /// ranks sits above the cut), then deals the subtrees out heaviest
    /// first, each to the least-loaded worker. A rank weighs its upward
    /// half squared, about the triangles it is the mid of, plus one.
    /// With one thread every rank is above the cut.
    fn new(skel: &Skeleton, threads: usize) -> Self {
        let n = skel.rank.len();
        if threads <= 1 {
            return TreeSplit {
                top: (0..n as u32).collect(),
                parts: Vec::new(),
            };
        }
        let parent = &skel.parent;
        let mut weight: Vec<u64> = (0..n)
            .map(|r| {
                let (lo, mid, _) = skel.bounds(r);
                let up = u64::from(mid - lo);
                up * up + 1
            })
            .collect();
        for r in 0..n {
            if parent[r] != NO_PARENT {
                weight[parent[r] as usize] += weight[r];
            }
        }
        let (child_offsets, children) = group_by_key(n, 0u32, |emit| {
            for (r, &p) in (0u32..).zip(parent) {
                if p != NO_PARENT {
                    emit(p, r);
                }
            }
        });
        let roots = (0u32..).zip(parent).filter(|(_, &p)| p == NO_PARENT);
        let mut pieces: BinaryHeap<(u64, u32)> =
            roots.map(|(r, _)| (weight[r as usize], r)).collect();
        let total: u64 = pieces.iter().map(|&(w, _)| w).sum();
        let share = total / (4 * threads as u64);
        let mut above = vec![false; n];
        let mut cut = 0usize;
        while let Some(&(w, r)) = pieces.peek() {
            if w <= share || 8 * cut >= n {
                break;
            }
            pieces.pop();
            above[r as usize] = true;
            cut += 1;
            let kids = child_offsets[r as usize] as usize..child_offsets[r as usize + 1] as usize;
            pieces.extend(children[kids].iter().map(|&c| (weight[c as usize], c)));
        }
        // Heaviest piece first, to the least-loaded worker; every rank
        // below a piece's root goes where its parent went.
        let mut load = vec![0u64; threads];
        let mut worker = vec![u32::MAX; n];
        for (w, r) in pieces.into_sorted_vec().into_iter().rev() {
            let k = (0..threads).min_by_key(|&k| load[k]).expect("threads > 1");
            load[k] += w;
            worker[r as usize] = k as u32;
        }
        let (mut top, mut parts) = (Vec::with_capacity(cut), vec![Vec::new(); threads]);
        for r in (0..n).rev() {
            if above[r] {
                top.push(r as u32);
            } else {
                if worker[r] == u32::MAX {
                    worker[r] = worker[parent[r] as usize];
                }
                parts[worker[r] as usize].push(r as u32);
            }
        }
        top.reverse();
        for part in &mut parts {
            part.reverse();
        }
        parts.retain(|part| !part.is_empty());
        TreeSplit { top, parts }
    }

    /// Runs `pass(ranks, cols, row)` for every part at once: the first
    /// on `cols` itself, each other on a copy of `cols` (and a row of its
    /// own) in a worker thread of its own. A pass must write only the
    /// segments of its own ranks; `merge(cols, copy, rank)` copies one
    /// rank's writes back from a copy.
    fn on_parts<C: Clone + Send>(
        &self,
        cols: &mut C,
        row: &mut ArcRow,
        pass: impl Fn(&[u32], &mut C, &mut ArcRow) + Sync,
        merge: impl Fn(&mut C, &C, usize),
    ) {
        let Some((first, rest)) = self.parts.split_first() else {
            return;
        };
        let pass = &pass;
        std::thread::scope(|scope| {
            let workers: Vec<_> = rest
                .iter()
                .map(|ranks| {
                    let mut copy = cols.clone();
                    scope.spawn(move || {
                        pass(ranks, &mut copy, &mut ArcRow::default());
                        copy
                    })
                })
                .collect();
            pass(first, cols, row);
            for (ranks, worker) in rest.iter().zip(workers) {
                let copy = worker.join().expect("a customization worker panicked");
                for &r in ranks {
                    merge(cols, &copy, r as usize);
                }
            }
        });
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
    /// the full chordal shortcut topology. The order is `g`'s own when a
    /// hierarchy was built on `g` before (see [`Graph`]); the build takes
    /// the joined pairs `g` kept, or replays them from its ranks.
    /// Deterministic and bit-identical for any thread count, which also
    /// sets the workers of every full customization.
    pub fn build(g: &Graph, cfg: &CchConfig) -> Self {
        Self::finalise(g, skeleton(g, cfg.threads, true), cfg.threads)
    }

    /// The tail of [`CchTopology::build`], from the skeleton: lays out
    /// the down-lists and the original edges under their arcs, each
    /// grouping one counting sort into its final array.
    fn finalise(g: &Graph, skel: Skeleton, threads: usize) -> Self {
        let (n, arc_count) = (skel.rank.len(), skel.seg_arcs.len());
        let (halves, seg_arcs) = (&skel.halves, &skel.seg_arcs);
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

        // Every edge but a self-loop merged into the one arc of its pair
        // and direction, in the lower endpoint's half; ascending `EdgeId`
        // under an arc.
        let edge_arc: Vec<u32> = g
            .edges()
            .map(|e| skel.arc_between(e.from, e.to).unwrap_or(u32::MAX))
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
            threads,
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
            stamp_out_arcs(skel, self.down_out(far as usize), far as usize, row);
            lo..mid
        };
        let row: &ArcRow = row;
        let seg = &skel.seg_arcs[co_supports.start as usize..co_supports.end as usize];
        co_supports
            .zip(seg)
            .filter(move |(_, sa)| sa.other != far)
            .map(move |(co, sa)| (closing_arc(row, sa.other), co))
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
    /// expansion word naming the mid `v` (`for_each_triangle`, which
    /// looks each owner up in `row`). Both legs are final when read, and
    /// each owner sees its triangles in ascending mid rank, the order
    /// [`CchTopology::triangles_of`] yields them, which the sparse pass
    /// relaxes in too. The tails run over the topology's tree cut on its
    /// `threads` workers (`relax_lower_triangles`). Writes the caller's
    /// columns in place: after a [`Cch`]'s first pass a full
    /// re-customization on one thread allocates nothing, and on more
    /// only each extra worker's copy of the columns.
    fn derive_into(&self, edge_cost: impl Fn(EdgeId) -> f64, cols: &mut Columns, row: &mut ArcRow) {
        let arc_count = self.arc_count();
        let Columns { weights, rules } = cols;
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
        let split = TreeSplit::new(&self.skel, self.threads);
        let down_out = |p: usize| self.down_out(p);
        relax_lower_triangles(&self.skel, &split, &down_out, cols, row);
    }
}

/// Perfect customization in place (Dibbelt, Strasser & Wagner, section
/// 5): lowers every arc of a customized `weights` column over `skel` to
/// the distance between its ends, and returns the bitset of the arcs it
/// lowered. Ranks `u` top-down, every triangle `u < x < w` once, at `u`:
/// the arcs of `u` to and from `w` relax through `x`, and those to and
/// from `x` through `w`, over the arcs between `x` and `w`, which are
/// final already. A shortest `u -> w` path leaves `u` below it up to its
/// first higher vertex `y`, a neighbour of `u` whose lower path the
/// customization already weighed, and goes on from `y` at its final
/// distance, so the triangle through `y` makes the arc exact. `u`'s
/// out-arcs are stamped in a row by head; its in-arc from the same rank
/// sits at the same offset of the segment's other half.
///
/// A step at `u` writes only `u`'s segment and reads those of its
/// ancestors, so the ranks above the cut of `split` run first, top-down,
/// and then its subtrees at once, each top-down.
fn perfect_customize(
    skel: &Skeleton,
    split: &TreeSplit,
    weights: Vec<f64>,
) -> (Vec<f64>, Vec<u64>) {
    let n = skel.rank.len();
    let lowered = vec![0u64; weights.len().div_ceil(64)];
    let pass = |ranks: &[u32], (weights, lowered): &mut (Vec<f64>, Vec<u64>), row: &mut ArcRow| {
        let mut relax = |weights: &mut [f64], a: u32, cand: f64| {
            if cand < weights[a as usize] {
                weights[a as usize] = cand;
                lowered[a as usize >> 6] |= 1 << (a & 63);
            }
        };
        for u in ranks.iter().rev().map(|&u| u as usize) {
            let (lo, mid, hi) = skel.bounds(u);
            if lo == mid {
                continue;
            }
            debug_assert_eq!(mid - lo, hi - mid, "a segment's halves mirror");
            row.restamp(n);
            for (slot, sa) in (lo..mid).zip(&skel.seg_arcs[lo as usize..mid as usize]) {
                row.insert(sa.other, slot);
            }
            for ux in lo..mid {
                let xu = ux - lo + mid;
                let (x_lo, x_mid, _) = skel.bounds(skel.seg_arcs[ux as usize].other as usize);
                for xw in x_lo..x_mid {
                    let Some(uw) = row.get(skel.seg_arcs[xw as usize].other) else {
                        continue;
                    };
                    let (wx, wu) = (xw - x_lo + x_mid, uw - lo + mid);
                    let w = |a: u32| weights[a as usize];
                    let (via_x, via_x_back) = (w(ux) + w(xw), w(wx) + w(xu));
                    relax(weights, uw, via_x);
                    relax(weights, wu, via_x_back);
                    let w = |a: u32| weights[a as usize];
                    let (via_w, via_w_back) = (w(uw) + w(wx), w(xw) + w(wu));
                    relax(weights, ux, via_w);
                    relax(weights, xu, via_w_back);
                }
            }
        }
    };
    let mut row = ArcRow::default();
    let mut cols = (weights, lowered);
    pass(&split.top, &mut cols, &mut row);
    split.on_parts(&mut cols, &mut row, pass, |(weights, lowered), copy, r| {
        let (lo, _, hi) = skel.bounds(r);
        let seg = lo as usize..hi as usize;
        weights[seg.clone()].copy_from_slice(&copy.0[seg.clone()]);
        for a in seg {
            lowered[a >> 6] |= copy.1[a >> 6] & 1 << (a & 63);
        }
    });
    cols
}

/// What arc `a`'s expansion rule sums to: its edge's cost, or its legs'
/// sums added — the weight customization gave it, read back through the
/// arcs the perfect pass lowered since.
fn rule_sum(
    skel: &Skeleton,
    a: usize,
    (rules, weights, lowered): (&[ArcRule], &[f64], &[u64]),
    edge_cost: &impl Fn(EdgeId) -> f64,
) -> f64 {
    if lowered[a >> 6] >> (a & 63) & 1 == 0 {
        return weights[a];
    }
    if let Some(e) = rules[a].edge() {
        return edge_cost(e);
    }
    let (tail, head) = skel.slot_ends(a);
    let sum = |leg: u32| rule_sum(skel, leg as usize, (rules, weights, lowered), edge_cost);
    let [b, c] = skel.legs(rules[a].0, tail, head);
    sum(b) + sum(c)
}

/// The arcs of a metric-built contraction hierarchy over `g` under
/// `edge_cost`: the skeleton of `g`'s chordal topology (the order `g`
/// kept, or the ordering loop's with initial priorities fanned out over
/// `threads` workers), a customization, a perfect one over it (both on
/// `threads` workers, over one cut of the elimination tree), and then
/// only the arcs the perfect pass left at
/// their customized weight — finite, and on a shortest path no higher
/// vertex offers — plus both legs of every kept shortcut. A kept arc
/// weighs the distance between its ends. So does a leg in exact
/// arithmetic, but float sums of other associations can undercut one by
/// an ulp; such a leg gets back the weight its rule sums to, so every
/// kept shortcut weighs its legs' sum.
///
/// Nothing a [`CchTopology`] keeps for re-customizing is built: the
/// originals are read off the graph's edges (ascending `EdgeId`, as
/// under an arc), and the customization's down-out lists live only
/// through its sweep. The skeleton is pruned in place.
pub(crate) fn metric_hierarchy(
    g: &Graph,
    threads: usize,
    edge_cost: impl Fn(EdgeId) -> f64,
) -> (Skeleton, Vec<ArcRule>, Vec<f64>) {
    let mut skel = skeleton(g, threads, false);
    let (n, arcs) = (skel.rank.len(), skel.seg_arcs.len());
    let mut cols = Columns {
        weights: vec![f64::INFINITY; arcs],
        rules: vec![ArcRule(u32::MAX); arcs],
    };
    for (e, rec) in (0u32..).map(EdgeId).zip(g.edges()) {
        if let Some(a) = skel.arc_between(rec.from, rec.to) {
            let c = edge_cost(e);
            if c < cols.weights[a as usize] {
                cols.weights[a as usize] = c;
                cols.rules[a as usize] = ArcRule::original(e);
            }
        }
    }
    let split = TreeSplit::new(&skel, threads);
    {
        // Each rank's arcs to lower ranks: the downward halves' entries,
        // filed under their tails, in ascending order of the head.
        let no_arc = DownArc { other: 0, arc: 0 };
        let (offsets, down_out) = group_by_key(n, no_arc, |emit| {
            for v in 0..n {
                let (_, mid, hi) = skel.bounds(v);
                for (slot, sa) in (mid..hi).zip(&skel.seg_arcs[mid as usize..hi as usize]) {
                    emit(
                        sa.other,
                        DownArc {
                            other: v as u32,
                            arc: slot,
                        },
                    );
                }
            }
        });
        let down_out = |p: usize| &down_out[offsets[p] as usize..offsets[p + 1] as usize];
        relax_lower_triangles(&skel, &split, &down_out, &mut cols, &mut ArcRow::default());
    }
    let Columns { weights, mut rules } = cols;
    let (mut weights, mut lowered) = perfect_customize(&skel, &split, weights);
    drop(split);
    let bit = |set: &[u64], a: usize| set[a >> 6] >> (a & 63) & 1 != 0;
    let mut keep: Vec<u64> = lowered.iter().map(|&l| !l).collect();
    for (a, w) in weights.iter().enumerate() {
        if w.is_infinite() {
            keep[a >> 6] &= !(1 << (a & 63));
        }
    }
    // Legs top-down: a shortcut's legs sit in its mid's segment, below
    // both its ends, so they are visited after it.
    for r in (0..n).rev() {
        let (lo, mid, hi) = skel.bounds(r);
        for slot in lo as usize..hi as usize {
            if !bit(&keep, slot) || rules[slot].edge().is_some() {
                continue;
            }
            let other = skel.seg_arcs[slot].other;
            let (tail, head) = if slot < mid as usize {
                (r as u32, other)
            } else {
                (other, r as u32)
            };
            for leg in skel.legs(rules[slot].0, tail, head).map(|leg| leg as usize) {
                if !bit(&keep, leg) {
                    keep[leg >> 6] |= 1 << (leg & 63);
                    weights[leg] = rule_sum(&skel, leg, (&rules, &weights, &lowered), &edge_cost);
                    lowered[leg >> 6] &= !(1 << (leg & 63));
                }
            }
        }
    }
    skel.retain(
        |slot| bit(&keep, slot),
        |from, to| {
            weights[to] = weights[from];
            rules[to] = rules[from];
        },
    );
    let kept = skel.seg_arcs.len();
    weights.truncate(kept);
    weights.shrink_to_fit();
    rules.truncate(kept);
    rules.shrink_to_fit();
    (skel, rules, weights)
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
        self.topo
            .derive_into(edge_cost, &mut self.cols, &mut self.row);
        self.stamp = fresh_stamp();
        self.last.base = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algo::ch::ChSearch;
    use crate::algo::engine::QueryEngine;
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
        // The loop contracts a vertex right after the `priority` calls
        // that let it win; a replay of its order contracts every vertex
        // with no priority call at all. The pairs, in creation order
        // (which numbers the slots), must not differ.
        let g = region();
        let mut looped = TopoBuilder::new(&g);
        contract_in_priority_order(
            g.vertex_count(),
            2,
            &mut looped,
            TopoBuilder::priority,
            TopoBuilder::contract,
        );
        assert!(
            replay(&g, &looped.rank) == looped.pairs,
            "fill-in pairs differ"
        );
    }

    #[test]
    fn cch_build_deterministic_across_thread_counts() {
        // Each build on a clone of its own, which orders afresh.
        let g = region();
        let a = CchTopology::build(&g.clone(), &CchConfig { threads: 1 });
        let b = CchTopology::build(&g.clone(), &CchConfig { threads: 8 });
        assert_eq!(a.ranks(), b.ranks(), "ordering must not depend on threads");
        assert!(a == b, "topology must not depend on threads");
    }

    #[test]
    fn cch_customize_parallel_bitwise_identical() {
        // Customization runs the subtrees below the tree cut on
        // `threads` workers; every entry point, and a sparse delta after
        // a parallel full pass, must land on the one-thread bits. The
        // grid is large enough for the ordering loop's initial sweep and
        // the cut to split.
        let g = grid_network(
            &GridConfig {
                nx: 24,
                ny: 24,
                ..GridConfig::small_test()
            },
            5,
        );
        let custom: Vec<f64> = (0..g.edge_count())
            .map(|e| 1.0 + (e * 7919 % 23) as f64 / 7.0)
            .collect();
        let moved: Vec<f64> = custom.iter().map(|w| w * 1.5).collect();
        let delta: Vec<(EdgeId, f64)> = (0..g.edge_count())
            .step_by(13)
            .map(|e| (EdgeId(e as u32), 0.25 + (e % 5) as f64))
            .collect();
        let customs = |threads| {
            let topo = Arc::new(CchTopology::build(&g.clone(), &CchConfig { threads }));
            let mut again = topo.customize_weights(&g, &moved);
            again.recustomize_weights(&g, &custom);
            let mut sparse = topo.customize_weights(&g, &custom);
            sparse.apply_weight_delta(&delta);
            [
                topo.customize(&g, &CostModel::Length),
                topo.customize(&g, &CostModel::TravelTime),
                topo.customize_weights(&g, &custom),
                again,
                sparse,
            ]
        };
        let seq = customs(1);
        assert!(TreeSplit::new(&seq[0].topo.skel, 2).parts.len() == 2);
        for threads in [2, 3, 8] {
            for (a, b) in seq.iter().zip(&customs(threads)) {
                assert_bit_identical(a, b, &format!("{threads} threads"));
            }
        }
    }

    #[test]
    fn tree_split_covers_every_rank_once_below_or_above_its_cut() {
        // Every rank is above the cut or in exactly one part; a part's
        // ranks ascend, and a rank below the cut shares its part with its
        // parent unless the parent is above the cut.
        let g = region();
        let topo = CchTopology::build(&g, &CchConfig::default());
        let skel = &topo.skel;
        for threads in [1, 2, 3, 8] {
            let split = TreeSplit::new(skel, threads);
            let mut part_of = vec![None; skel.rank.len()];
            for (k, ranks) in std::iter::once(&split.top).chain(&split.parts).enumerate() {
                assert!(ranks.windows(2).all(|w| w[0] < w[1]), "{threads} threads");
                for &r in ranks {
                    assert_eq!(part_of[r as usize].replace(k), None, "rank {r} twice");
                }
            }
            assert!(part_of.iter().all(Option::is_some), "{threads} threads");
            assert!(split.parts.len() <= threads);
            for (r, &p) in skel.parent.iter().enumerate() {
                if p != NO_PARENT && part_of[p as usize] != Some(0) {
                    assert_eq!(part_of[r], part_of[p as usize], "rank {r} left its parent");
                }
            }
        }
    }

    #[test]
    fn hierarchies_built_on_one_graph_match_builds_on_fresh_clones() {
        // The CH, then the topology (which takes the kept pairs), then a
        // second CH and topology (which replay them) on one graph: the
        // same slots, trees, weights and rules as each built alone on a
        // clone, which starts without the graph's order.
        use crate::algo::ch::{ChConfig, ContractionHierarchy};
        let g = region();
        let cfg = ChConfig { threads: 2 };
        let ch = |g: &Graph| ContractionHierarchy::build(g, LandmarkMetric::Length, &cfg);
        let topo = |g: &Graph| Arc::new(CchTopology::build(g, &CchConfig { threads: 2 }));
        let ch_alone = ch(&g.clone());
        let topo_alone = topo(&g.clone());
        let first = (ch(&g), topo(&g));
        let second = (ch(&g), topo(&g));
        for (ch, topo) in [first, second] {
            let (a, b) = (ch.view(), ch_alone.view());
            assert!(a.skel == b.skel, "CH slots or tree differ");
            assert_eq!(a.rules, b.rules);
            let bits = |w: &[f64]| w.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(a.seg_weights), bits(b.seg_weights));
            assert!(*topo == *topo_alone, "topology differs");
            let cost = CostModel::TravelTime;
            assert_bit_identical(
                &topo.customize(&g, &cost),
                &topo_alone.customize(&g, &cost),
                "customized",
            );
        }
    }

    #[test]
    fn a_second_build_runs_no_ordering_loop() {
        // The graph keeps the order its first build computed: the later
        // builds, CH or topology, pairs kept or replayed, run no loop,
        // and a clone starts without the order.
        use crate::algo::ch::{ChConfig, ContractionHierarchy};
        use crate::algo::order::LOOPS;
        let g = region();
        let loops = || LOOPS.with(|l| l.get());
        let before = loops();
        let ch = |g: &Graph| {
            ContractionHierarchy::build(g, LandmarkMetric::Length, &ChConfig { threads: 2 })
        };
        ch(&g);
        assert_eq!(loops(), before + 1, "the first build orders");
        CchTopology::build(&g, &CchConfig { threads: 2 });
        ch(&g);
        CchTopology::build(&g, &CchConfig { threads: 2 });
        assert_eq!(loops(), before + 1, "later builds reuse the order");
        ch(&g.clone());
        assert_eq!(loops(), before + 2, "a clone orders again");
    }

    #[test]
    fn graph_equality_and_io_ignore_the_kept_order() {
        let g = region();
        let mut text = Vec::new();
        crate::io::write_graph(&g, &mut text).unwrap();
        let fresh = g.clone();
        CchTopology::build(&g, &CchConfig { threads: 2 });
        assert!(g.order.0.get().is_some() && fresh.order.0.get().is_none());
        assert!(g == fresh, "equality ignores the kept order");
        assert!(g.clone().order.0.get().is_none(), "a clone starts empty");
        let mut again = Vec::new();
        crate::io::write_graph(&g, &mut again).unwrap();
        assert!(text == again, "the graph text changed");
    }

    #[test]
    fn cch_queries_match_dijkstra() {
        let g = region();
        let topo = Arc::new(CchTopology::build(&g, &CchConfig::default()));
        let mut search = ChSearch::default();
        for cost in [CostModel::Length, CostModel::TravelTime] {
            let cch = topo.customize(&g, &cost);
            let n = g.vertex_count() as u32;
            for (s, t) in [(0, n - 1), (1, n / 2), (n / 3, 2 * n / 3), (n - 1, 0)] {
                let (s, t) = (VertexId(s), VertexId(t));
                let expect = QueryEngine::new(&g)
                    .shortest_path(s, t, cost)
                    .map(|p| p.cost(&g, cost));
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
        let mut search = ChSearch::default();
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
                let expect = QueryEngine::new(&g)
                    .shortest_path(s, t, cost)
                    .map(|p| p.cost(&g, cost));
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
        let mut search = ChSearch::default();
        let n = g.vertex_count() as u32;
        for (s, t) in [(0, n - 1), (n / 2, n / 5)] {
            let (s, t) = (VertexId(s), VertexId(t));
            let cost = CostModel::Custom(&weights);
            let expect = QueryEngine::new(&g)
                .shortest_path(s, t, cost)
                .map(|p| p.cost(&g, cost));
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
        let mut search = ChSearch::default();
        let n = g.vertex_count() as u32;
        for (s, t) in [(0, n - 1), (n / 2, n / 5)] {
            let (s, t) = (VertexId(s), VertexId(t));
            let cost = CostModel::Custom(&weights);
            let expect = QueryEngine::new(&g)
                .shortest_path(s, t, cost)
                .map(|p| p.cost(&g, cost));
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

//! Contraction hierarchies: preprocessing-based exact point-to-point
//! routing, an order of magnitude past what ALT's goal direction buys.
//!
//! A contraction hierarchy (CH) assigns every vertex a *rank* and
//! "contracts" vertices in rank order: removing a vertex from the
//! remaining graph and inserting **shortcut arcs** between its neighbours.
//! Every arc then leads from a vertex to a higher-ranked one or back, and
//! a shortest path is an *up-down* path: upward arcs from the source,
//! downward ones into the target, meeting at its highest vertex.
//! Shortcuts *unpack* recursively into the original [`EdgeId`] sequence,
//! so callers still receive real [`crate::path::Path`]s.
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
//! * **Built from the customizable hierarchy's topology** (Dibbelt,
//!   Strasser & Wagner, "Customizable Contraction Hierarchies"): the
//!   order and the chordal arcs of
//!   [`crate::algo::cch::CchTopology::build`], a customization for the
//!   metric, a *perfect* customization that lowers every arc to the
//!   distance between its ends, and then only the arcs that pass left
//!   alone — a lowered arc is on no shortest path that a higher vertex
//!   does not offer too — plus both legs of every kept shortcut. No
//!   witness search runs, and the result is bit-identical for any thread
//!   count (golden fingerprints in the unit tests).
//! * **Queries walk the elimination tree.** A rank's parent is its
//!   lowest upper neighbour in the topology, and because every upper
//!   neighbourhood is a clique, every arc leads to an *ancestor* of its
//!   lower end. So the upward search space of a vertex is its ancestor
//!   chain: a query relaxes both endpoints' chains in ascending rank,
//!   each label final when its rank is reached, with no heap, and meets
//!   at their common ancestors. The same walk serves the customized
//!   hierarchy ([`crate::algo::cch`]) and both many-to-many phases
//!   ([`crate::algo::m2m`]).
//! * **One arc numbering, nothing stored that a slot implies.** An arc's
//!   id is its slot in the rank-space search CSR, one slot per vertex
//!   pair and direction. A search entry is the other endpoint's rank (4
//!   bytes); weight and expansion word are columns indexed by slot; the
//!   endpoints are the segment's rank and the entry. A shortcut's
//!   expansion word is its mid's rank, and its legs are the mid's slots
//!   to its two ends.

use crate::algo::cch::metric_hierarchy;
use crate::algo::labels::{Side, NO_PARENT};
use crate::algo::landmarks::LandmarkMetric;
use crate::algo::m2m::Buckets;
use crate::graph::{CostModel, EdgeId, Graph, VertexId};
use crate::util::group_by_key;

/// Parameters of hierarchy construction.
#[derive(Debug, Clone, Copy)]
pub struct ChConfig {
    /// Worker threads for the ordering loop's initial-priority sweep and
    /// for the customization and perfect customization, which run the
    /// subtrees below a cut of the elimination tree side by side; the
    /// ordering loop itself and the pruning are sequential. Results are
    /// bit-identical for any count.
    pub threads: usize,
}

impl Default for ChConfig {
    fn default() -> Self {
        ChConfig { threads: 4 }
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
/// in the mid's search segment ([`Skeleton::legs`]).
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
    /// Arc weight under the hierarchy's weighting (for shortcuts, the
    /// sum of the two leg weights); `+∞` for a direction a customized
    /// hierarchy found no path for.
    pub weight: f64,
    /// Expansion rule.
    pub kind: ChArcKind,
}

/// Slots per entry of `Skeleton::slot_rank`.
const SLOTS_PER_BUCKET: usize = 16;

/// Entries [`Skeleton::find`] compares at once.
const FIND_WINDOW: usize = 8;

/// The weight-independent half of a hierarchy: ranks, the elimination
/// tree and the rank-space search CSR, whose slots number the arcs — an
/// arc's id *is* its slot, and its endpoints are read off the slot. A
/// [`ContractionHierarchy`] owns one beside its weights; every
/// customization of a [`crate::algo::cch::CchTopology`] shares the topology's.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Skeleton {
    /// `rank[v]` = contraction position of `v` (0 contracted first).
    pub(crate) rank: Vec<u32>,
    /// `order[r]` = the vertex of rank `r`, the inverse of `rank`.
    pub(crate) order: Vec<VertexId>,
    /// `parent[r]` = rank `r`'s parent in the elimination tree, above
    /// it; [`NO_PARENT`] on a root. Every arc's higher end is an
    /// ancestor of its lower end: what the query walk relies on.
    pub(crate) parent: Vec<u32>,
    // Search graph in CSR form, one contiguous segment per rank holding
    // the *upward out-arcs* (to higher-ranked heads) followed by the
    // *downward in-arcs* (from higher-ranked tails). The forward walk
    // relaxes the first part, the backward walk the second — so every
    // step reads one contiguous region of `seg_arcs` and of the
    // matching weight column. There is one slot per vertex pair and
    // direction. Rank `r`'s upward half is `halves[2r]..halves[2r + 1]`,
    // its downward half `..halves[2r + 2]`: one array, so a segment's
    // bounds share a cache line ([`Skeleton::bounds`]).
    pub(crate) halves: Vec<u32>,
    pub(crate) seg_arcs: Vec<SearchArc>,
    /// Slot -> rank, one entry per [`SLOTS_PER_BUCKET`] slots: the rank
    /// whose segment holds the bucket's first slot, from where a slot's
    /// own rank is a step or two along the segment bounds
    /// ([`Skeleton::rank_of_slot`]).
    slot_rank: Vec<u32>,
}

/// The first rank of every [`SLOTS_PER_BUCKET`] slots over `halves`.
fn slot_hints(halves: &[u32]) -> Vec<u32> {
    let (n, slots) = (halves.len() / 2, *halves.last().unwrap_or(&0) as usize);
    let mut hints = Vec::with_capacity(slots / SLOTS_PER_BUCKET + 1);
    let mut r = 0usize;
    for first in (0..=slots).step_by(SLOTS_PER_BUCKET) {
        while r + 1 < n && halves[2 * r + 2] as usize <= first {
            r += 1;
        }
        hints.push(r as u32);
    }
    hints
}

impl Skeleton {
    /// Lays out the skeleton from the rank array, the elimination tree
    /// by rank and the search arcs grouped into halves
    /// (`halves[2r]..halves[2r + 1]` upward, `..halves[2r + 2]`
    /// downward).
    pub(crate) fn new(
        rank: Vec<u32>,
        parent: Vec<u32>,
        halves: Vec<u32>,
        seg_arcs: Vec<SearchArc>,
    ) -> Self {
        let mut order = vec![VertexId(0); rank.len()];
        for (v, &r) in (0u32..).zip(&rank) {
            order[r as usize] = VertexId(v);
        }
        Skeleton {
            slot_rank: slot_hints(&halves),
            rank,
            order,
            parent,
            halves,
            seg_arcs,
        }
    }

    pub(crate) fn heap_bytes(&self) -> usize {
        let per_rank = self.rank.len() + self.order.len() + self.parent.len() + self.halves.len();
        4 * (per_rank + self.slot_rank.len() + self.seg_arcs.len())
    }

    /// Keeps the slots `keep` selects, in order, compacting the segments
    /// in place, and reports each kept slot's move as `moved(from, to)`
    /// so the caller compacts its columns alike. Ranks and tree stay.
    pub(crate) fn retain(
        &mut self,
        keep: impl Fn(usize) -> bool,
        mut moved: impl FnMut(usize, usize),
    ) {
        let (mut read, mut write) = (0usize, 0usize);
        for h in 0..self.halves.len() - 1 {
            let end = self.halves[h + 1] as usize;
            self.halves[h] = write as u32;
            for slot in (read..end).filter(|&slot| keep(slot)) {
                self.seg_arcs[write] = self.seg_arcs[slot];
                moved(slot, write);
                write += 1;
            }
            read = end;
        }
        *self.halves.last_mut().expect("2n + 1 bounds") = write as u32;
        self.seg_arcs.truncate(write);
        self.seg_arcs.shrink_to_fit();
        self.slot_rank = slot_hints(&self.halves);
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

    /// The slot of the arc `from -> to`; `None` when `from == to`.
    pub(crate) fn arc_between(&self, from: VertexId, to: VertexId) -> Option<u32> {
        let (rf, rt) = (self.rank[from.index()], self.rank[to.index()]);
        if rf == rt {
            return None;
        }
        let (lo, mid, hi) = self.bounds(rf.min(rt) as usize);
        let half = if rf < rt { (lo, mid) } else { (mid, hi) };
        Some(
            self.find(half, rf.max(rt))
                .expect("every edge's pair has an arc"),
        )
    }

    /// The legs of the shortcut `tail -> head` through rank `mid`, as
    /// slots: `tail -> mid` from the mid's downward half, `mid -> head`
    /// from its upward one.
    #[inline]
    pub(crate) fn legs(&self, mid: u32, tail: u32, head: u32) -> [u32; 2] {
        let (lo, split, hi) = self.bounds(mid as usize);
        let leg = |half, other| {
            let slot = self.find(half, other);
            slot.expect("a shortcut's legs are slots of its mid")
        };
        [leg((split, hi), tail), leg((lo, split), head)]
    }
}

/// Whether `parent` (by rank, [`NO_PARENT`] on roots) is a forest over
/// ascending ranks, and then a test of `ancestor(a, d)`: rank `a` is `d`
/// or above it in the tree. One pass numbers the ranks in preorder
/// (parents before children, since a parent ranks above its children),
/// so a subtree is a range of numbers.
pub(crate) fn ancestry(parent: &[u32]) -> Result<impl Fn(u32, u32) -> bool, String> {
    let n = parent.len();
    let bad = |r: usize| parent[r] != NO_PARENT && !(r + 1..n).contains(&(parent[r] as usize));
    if let Some(r) = (0..n).find(|&r| bad(r)) {
        let p = parent[r];
        return Err(format!(
            "rank {r} has parent {p}, not a higher rank below {n}"
        ));
    }
    let mut size = vec![1u32; n];
    for r in 0..n {
        if parent[r] != NO_PARENT {
            size[parent[r] as usize] += size[r];
        }
    }
    let (mut pre, mut next, mut free) = (vec![0u32; n], vec![0u32; n], 0u32);
    for r in (0..n).rev() {
        let at = match parent[r] {
            NO_PARENT => &mut free,
            p => &mut next[p as usize],
        };
        pre[r] = *at;
        *at += size[r];
        next[r] = pre[r] + 1;
    }
    Ok(move |a: u32, d: u32| {
        let (a, d) = (a as usize, d as usize);
        pre[a] <= pre[d] && pre[d] < pre[a] + size[a]
    })
}

/// One adjacency entry of the query-time search graphs: the *rank* of
/// the arc's other endpoint — head on upward entries, tail on downward
/// ones (the query walk runs entirely in rank space). The entry's
/// position is the arc's id; its weight and expansion rule sit at the
/// same index of separate columns, so a live re-weighting writes those
/// and never copies structure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct SearchArc {
    pub(crate) other: u32,
}

const _: () = assert!(std::mem::size_of::<SearchArc>() == 4);

/// What the query walk and the unpacking read: a `Skeleton` plus the
/// two columns they need of one weighting, both indexed by slot —
/// expansion rules and weights. [`ContractionHierarchy::view`] and
/// [`crate::algo::cch::Cch::view`] both produce it, so point queries and
/// many-to-many tables run on one walk for either hierarchy.
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
/// scratch state (the engine owns one).
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

/// Reusable per-worker search state: two stamped search sides, the
/// unpack buffers and the many-to-many target buckets. It is the state of
/// CH and CCH queries and tables, and the engine's Dijkstra/A* searches
/// run on the same two sides. Create once (`ChSearch::default()`, which
/// allocates nothing) and reuse across queries: a side is sized by its
/// first search, and steady-state queries perform no `O(V)` allocation.
/// Nothing in it outlives a call: every walk and every table starts
/// from a fresh epoch, so one scratch serves any hierarchy over the
/// graph.
#[derive(Debug, Clone, Default)]
pub struct ChSearch {
    /// The forward side of a query; also the side every many-to-many
    /// walk runs on.
    pub(crate) fwd: Side,
    /// The backward side of a query.
    pub(crate) bwd: Side,
    /// Unpacked original-edge sequence of the last successful query.
    edge_buf: Vec<EdgeId>,
    /// Matching vertex sequence (`edge_buf.len() + 1` entries), emitted
    /// during unpacking so path assembly never re-reads the graph.
    vertex_buf: Vec<VertexId>,
    unpack: Unpack,
    /// Many-to-many target buckets, sized by the first table.
    pub(crate) buckets: Buckets,
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
    /// Lifetime `(settled vertices, heap pushes)` summed over both
    /// search sides; monotone, never reset. Callers difference two
    /// readings to get per-query or per-window work. A hierarchy walk
    /// settles the ranks whose arcs it relaxes and pushes nothing.
    pub fn work_counters(&self) -> (u64, u64) {
        let ((s1, p1), (s2, p2)) = (self.fwd.work(), self.bwd.work());
        (s1 + s2, p1 + p2)
    }
}

/// Cuts every cycle out of the walk `vertices` (joined by `edges`) at
/// its vertex's first occurrence, with `seen` (sized for `n` vertices)
/// as scratch. A hierarchy answer is a cheapest walk, so under
/// non-negative weights each cycle it carries costs exactly zero — it
/// can only appear where weights are zero — and the cut drops only
/// `+ 0.0` terms from a left-to-right cost fold, which keeps its bits.
pub(crate) fn cut_cycles(
    seen: &mut Side,
    n: usize,
    edges: &mut Vec<EdgeId>,
    vertices: &mut Vec<VertexId>,
) {
    // A vertex kept at position `i` is labelled with parent `i`; a
    // vertex cut away again with `NO_PARENT`.
    seen.begin(n);
    let mut kept = 0;
    for i in 0..vertices.len() {
        let v = vertices[i];
        let at = seen.parent(v);
        if at != NO_PARENT {
            for &u in &vertices[at as usize + 1..kept] {
                seen.label(u, 0.0, NO_PARENT);
            }
            kept = at as usize + 1;
        } else {
            seen.label(v, 0.0, kept as u32);
            vertices[kept] = v;
            if kept > 0 {
                edges[kept - 1] = edges[i - 1];
            }
            kept += 1;
        }
    }
    vertices.truncate(kept);
    edges.truncate(kept - 1);
}

impl ContractionHierarchy {
    /// Builds the hierarchy under `metric`: the topology of
    /// [`crate::algo::cch::CchTopology::build`] (its ordering loop's
    /// initial priorities fanned out over `cfg.threads` workers, or the
    /// order `g` kept from an earlier build), customized for the metric,
    /// customized perfectly (both on `cfg.threads` workers), and pruned
    /// to the arcs the perfect pass left alone and the legs of kept
    /// shortcuts. The result is bit-identical for any thread count.
    pub fn build(g: &Graph, metric: LandmarkMetric, cfg: &ChConfig) -> Self {
        let cost = metric.cost_model();
        let (skel, rules, seg_weights) = metric_hierarchy(g, cfg.threads, |e| cost.edge_cost(g, e));
        ContractionHierarchy {
            metric,
            m: g.edge_count(),
            skel,
            rules,
            seg_weights,
        }
    }

    /// Builds the CSR search graph from the rank array, the elimination
    /// tree by rank and a list of arcs — the io layer's deserialiser —
    /// numbering the arcs by search slot.
    ///
    /// The search graph lives in **rank space**: CSR buckets and
    /// [`SearchArc::other`] use a vertex's rank, not its id. Every query
    /// climbs into the same top-of-hierarchy vertices, so rank-ordering
    /// the per-vertex state and adjacency clusters that shared hot
    /// region into a few contiguous cache lines.
    ///
    /// A list read from elsewhere may hold self-loops and parallel arcs
    /// between one pair; neither kind can lie on a shortest path except
    /// the cheapest parallel arc, so only that one gets a slot (lowest
    /// list position on ties). What the query walk and the unpacking
    /// rely on is checked, and a list that breaks it is refused with the
    /// reason: the tree is a forest over ascending ranks, every arc's
    /// higher end is an ancestor of its lower end, and every shortcut's
    /// mid ranks below both ends, with both legs slots of the mid whose
    /// weights sum to the shortcut's in bits.
    pub(crate) fn assemble(
        metric: LandmarkMetric,
        m: usize,
        rank: Vec<u32>,
        parent: Vec<u32>,
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
        let skel = Skeleton::new(rank, parent, halves, seg_arcs);
        let ancestor = ancestry(&skel.parent)?;
        let vertex = |r: u32| skel.order[r as usize].0;
        for (slot, rule) in rules.iter().enumerate() {
            let (tail, head) = skel.slot_ends(slot);
            let (from, to) = (vertex(tail), vertex(head));
            if !ancestor(tail.max(head), tail.min(head)) {
                return Err(format!("arc {from} -> {to} leaves the elimination tree"));
            }
            if rule.edge().is_some() {
                continue;
            }
            let mid = rule.0;
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
        self.view().arcs()
    }

    /// Heap bytes the index holds (the `pathrank_serve_index_bytes`
    /// gauge): 16 B per slot (entry, weight, rule) and 20 B per vertex
    /// (rank, vertex of the rank, tree parent, two segment bounds).
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

impl<'a> HierarchyView<'a> {
    /// Vertex count of the graph the hierarchy was built for.
    pub fn vertex_count(&self) -> usize {
        self.skel.rank.len()
    }

    /// `v`'s parent in the elimination tree: the lowest-ranked vertex
    /// the topology joins it to above it. `None` on a root.
    pub fn parent(&self, v: VertexId) -> Option<VertexId> {
        let p = self.skel.parent[self.skel.rank[v.index()] as usize];
        (p != NO_PARENT).then(|| self.skel.order[p as usize])
    }

    /// Every arc of the search graph, in slot order; endpoints are read
    /// off the slots.
    pub fn arcs(self) -> impl ExactSizeIterator<Item = ChArc> + 'a {
        let skel = self.skel;
        let cols = skel.arc_ends().zip(self.seg_weights).zip(self.rules);
        cols.map(move |(((from, to), &weight), rule)| ChArc {
            from,
            to,
            weight,
            kind: match rule.edge() {
                Some(e) => ChArcKind::Original(e),
                None => ChArcKind::Shortcut(skel.order[rule.0 as usize]),
            },
        })
    }

    /// One step of a walk at rank `x`: relaxes its upward out-arcs
    /// (`FORWARD`) or downward in-arcs from its label on `side`, writing
    /// no label at or past `bound`, and counts `x` as settled. A label
    /// that is unreached or at or past `bound` relaxes nothing.
    #[inline]
    fn relax<const FORWARD: bool>(&self, side: &mut Side, x: u32, bound: f64) {
        let d = side.dist(VertexId(x));
        if d >= bound {
            return;
        }
        side.settle(VertexId(x));
        let (lo, mid, hi) = self.skel.bounds(x as usize);
        let (lo, hi) = if FORWARD { (lo, mid) } else { (mid, hi) };
        let (lo, hi) = (lo as usize, hi as usize);
        let arcs = self.skel.seg_arcs[lo..hi].iter();
        for (sa, &w) in arcs.zip(&self.seg_weights[lo..hi]) {
            let (y, nd) = (VertexId(sa.other), d + w);
            if nd < bound && nd < side.dist(y) {
                side.label(y, nd, x);
            }
        }
    }

    /// Walks the elimination-tree ancestors of `root` (a vertex id) in
    /// ascending rank on `side` — forward over upward arcs when
    /// `FORWARD`, backward over downward in-arcs otherwise — to the top.
    /// `visit(r, d)` sees every reached rank with its distance, final
    /// when its rank comes up (every arc into it starts lower on the
    /// chain), and returns the bound of the step from it: no label at or
    /// past it is relaxed or written.
    pub(crate) fn walk<const FORWARD: bool>(
        &self,
        side: &mut Side,
        root: VertexId,
        mut visit: impl FnMut(VertexId, f64) -> f64,
    ) {
        side.begin(self.vertex_count());
        let mut x = self.skel.rank[root.index()];
        side.label(VertexId(x), 0.0, NO_PARENT);
        while x != NO_PARENT {
            if let Some(d) = side.tentative(VertexId(x)) {
                let bound = visit(VertexId(x), d);
                self.relax::<FORWARD>(side, x, bound);
            }
            x = self.skel.parent[x as usize];
        }
    }

    /// Runs the query and returns the meeting vertex (as a *rank*) and
    /// total arc-weight distance; `None` when unreachable.
    ///
    /// Below their lowest common ancestor the two chains are disjoint,
    /// so the lower end steps: the forward side relaxes upward arcs, the
    /// backward side downward in-arcs. From there both walk the common
    /// ancestors together, each meeting a candidate `d_fwd + d_bwd`, and
    /// relax only labels below the best one: no arc is non-negative, so
    /// nothing at or past it can improve the meet.
    fn run_query(
        &self,
        search: &mut ChSearch,
        source: VertexId,
        target: VertexId,
    ) -> Option<(VertexId, f64)> {
        let ChSearch { fwd, bwd, .. } = search;
        let (n, parent) = (self.vertex_count(), &self.skel.parent);
        fwd.begin(n);
        bwd.begin(n);
        let (mut s, mut t) = (
            self.skel.rank[source.index()],
            self.skel.rank[target.index()],
        );
        fwd.label(VertexId(s), 0.0, NO_PARENT);
        bwd.label(VertexId(t), 0.0, NO_PARENT);
        // Chains in different trees end apart, both at `NO_PARENT`.
        while s != t {
            if s < t {
                self.relax::<true>(fwd, s, f64::INFINITY);
                s = parent[s as usize];
            } else {
                self.relax::<false>(bwd, t, f64::INFINITY);
                t = parent[t as usize];
            }
        }
        let (mut best, mut meet) = (f64::INFINITY, None);
        let mut x = s;
        while x != NO_PARENT {
            let total = fwd.dist(VertexId(x)) + bwd.dist(VertexId(x));
            if total < best {
                best = total;
                meet = Some(VertexId(x));
            }
            self.relax::<true>(fwd, x, best);
            self.relax::<false>(bwd, x, best);
            x = parent[x as usize];
        }
        meet.map(|m| (m, best))
    }

    /// Expands `u.nodes` — `(slot, tail rank, head rank)`, in path order —
    /// into original edges, handing `emit` each edge with its head's rank
    /// in path order. Level by level: a pass reads the
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
    fn expand(&self, u: &mut Unpack, mut emit: impl FnMut(EdgeId, u32)) {
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
                let [to_mid, from_mid] = self.skel.legs(mid, tail, head);
                let j = nodes.len() as u32;
                nodes[i as usize] = (to_mid, tail, mid);
                nodes.push((from_mid, mid, head));
                link.push(link[i as usize]);
                link[i as usize] = j;
                pending.extend([i, j]);
            }
        }
        let mut i = 0;
        while i != u32::MAX {
            let (word, _, head) = nodes[i as usize];
            emit(EdgeId(word & !ORIGINAL), head);
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
    /// sequence and the matching vertex sequence (`edges.len() + 1`
    /// entries, source first) assembled during unpacking, both borrowed
    /// from the search's reusable buffers until the next query. The path
    /// is simple: a walk that revisits a vertex over zero-weight edges
    /// has its cycles cut. `None` when unreachable or `source == target`.
    pub fn query_path<'s>(
        &self,
        search: &'s mut ChSearch,
        source: VertexId,
        target: VertexId,
    ) -> Option<(&'s [EdgeId], &'s [VertexId])> {
        if source == target {
            return None;
        }
        let meet = self.run_query(search, source, target)?.0;
        self.path_arcs(search, source, target, meet);
        let ChSearch {
            bwd,
            edge_buf: edges,
            vertex_buf: vertices,
            unpack,
            ..
        } = search;
        edges.clear();
        vertices.clear();
        vertices.push(source);
        let order = &self.skel.order;
        self.expand(unpack, |e, head| {
            edges.push(e);
            vertices.push(order[head as usize]);
        });
        cut_cycles(bwd, self.vertex_count(), edges, vertices);
        Some((edges, vertices))
    }

    /// The cost of [`HierarchyView::query_path`]'s path under `weights`,
    /// folded left to right over its edges while they unpack — the fold
    /// order of a Dijkstra relaxation chain — with no edge or vertex list
    /// and no cycle cut: a cycle of a cheapest walk weighs zero, so
    /// folding it in adds only `+0.0`, which changes no bit. `None` when
    /// unreachable or `source == target`.
    pub fn query_path_cost(
        &self,
        search: &mut ChSearch,
        source: VertexId,
        target: VertexId,
        weights: &[f64],
    ) -> Option<f64> {
        if source == target {
            return None;
        }
        let meet = self.run_query(search, source, target)?.0;
        self.path_arcs(search, source, target, meet);
        let mut cost = 0.0;
        self.expand(&mut search.unpack, |e, _| cost += weights[e.index()]);
        Some(cost)
    }

    /// Lays the search arcs of the path through `meet` out in
    /// `search.unpack.nodes`, in path order: the forward parent chain
    /// (meet -> source) reversed, then the backward one (meet -> target).
    /// Both chains name ranks; the arc between a vertex and its parent
    /// is a slot of the parent, the lower of the two.
    fn path_arcs(&self, search: &mut ChSearch, source: VertexId, target: VertexId, meet: VertexId) {
        let ChSearch {
            fwd, bwd, unpack, ..
        } = search;
        let arcs = &mut unpack.nodes;
        arcs.clear();
        let mut cur = meet.0;
        loop {
            let p = fwd.parent(VertexId(cur));
            if p == NO_PARENT {
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
            if p == NO_PARENT {
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
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algo::cch::{CchConfig, CchTopology};
    use crate::algo::engine::QueryEngine;
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
        // Each build on a clone of its own, which orders afresh.
        let g = region();
        let build = |threads| {
            ContractionHierarchy::build(&g.clone(), LandmarkMetric::Length, &ChConfig { threads })
        };
        let (seq, par) = (build(1), build(4));
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
        let mut search = ChSearch::default();
        let n = g.vertex_count() as u32;
        for (s, t) in [(0, n - 1), (n - 1, 0), (3, n / 2), (n / 3, 2 * n / 3)] {
            let (s, t) = (VertexId(s), VertexId(t));
            let plain = QueryEngine::new(&g)
                .shortest_path(s, t, CostModel::Length)
                .map(|p| p.length_m(&g));
            let ch_cost = ch
                .view()
                .query_path(&mut search, s, t)
                .map(|(edges, _)| edges.iter().map(|&e| g.edge(e).attrs.length_m).sum::<f64>());
            assert_eq!(plain, ch_cost, "{s:?}->{t:?} CH cost diverged");
        }
    }

    #[test]
    fn ch_unpacked_paths_are_contiguous_and_valid() {
        let g = region();
        let ch = ContractionHierarchy::build(&g, LandmarkMetric::Length, &ChConfig::default());
        assert!(ch.shortcut_count() > 0, "region CH should need shortcuts");
        let mut search = ChSearch::default();
        let n = g.vertex_count() as u32;
        let mut checked = 0usize;
        for (s, t) in [(0, n - 1), (n / 2, 1), (n - 1, n / 3), (7 % n, n - 2)] {
            let (s, t) = (VertexId(s), VertexId(t));
            if let Some((edges, _)) = ch.view().query_path(&mut search, s, t) {
                let p = Path::from_edges(&g, edges.to_vec())
                    .expect("unpacked edges must form a contiguous path");
                assert_eq!(p.source(), s);
                assert_eq!(p.target(), t);
                p.validate(&g).unwrap();
                let plain = QueryEngine::new(&g)
                    .shortest_path(s, t, CostModel::Length)
                    .unwrap();
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
        let mut search = ChSearch::default();
        let n = g.vertex_count() as u32;
        for (s, t) in [(0, n - 1), (n / 2, 1)] {
            let (s, t) = (VertexId(s), VertexId(t));
            let plain = QueryEngine::new(&g)
                .shortest_path(s, t, CostModel::TravelTime)
                .map(|p| p.cost(&g, CostModel::TravelTime));
            let ch_cost = ch.view().query_path(&mut search, s, t).map(|(edges, _)| {
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
        let mut search = ChSearch::default();
        assert!(ch.view().query_path(&mut search, a0, c1).is_none());
        assert!(ch.view().query_cost(&mut search, a1, c0).is_none());
        assert_eq!(ch.view().query_cost(&mut search, a0, a0), Some(0.0));
        assert!(ch.view().query_path(&mut search, a0, a0).is_none());
        let within = ch.view().query_cost(&mut search, a0, a1);
        assert_eq!(within, Some(100.0));
    }

    #[test]
    fn ch_search_state_reuse_is_clean_across_queries() {
        // An early-exiting query right after a full sweep must not see
        // stale distances: the search sides' epoch stamps.
        let g = grid_network(&GridConfig::small_test(), 7);
        let ch = ContractionHierarchy::build(&g, LandmarkMetric::Length, &ChConfig::default());
        let mut search = ChSearch::default();
        let n = g.vertex_count() as u32;
        let pairs = [(0, n - 1), (1, 2), (n - 1, 0), (n / 2, n / 2 + 1)];
        // Interleave: fresh scratch state must agree with reused one.
        for &(s, t) in &pairs {
            let (s, t) = (VertexId(s), VertexId(t));
            let reused = ch.view().query_cost(&mut search, s, t);
            let mut fresh = ChSearch::default();
            let expect = ch.view().query_cost(&mut fresh, s, t);
            assert_eq!(reused, expect, "{s:?}->{t:?} state leaked across queries");
        }
    }

    #[test]
    fn ch_sweep_work_and_answers_are_pinned() {
        // Point queries and a table on the CH and on a TravelTime CCH:
        // an FNV over the bits of every cost, path and table entry, and
        // the `(settled, pushed)` work of the point queries and of the
        // table. A walk settles the ranks it relaxes and pushes nothing;
        // any change to what a walk visits or relaxes moves them. The
        // paths are the ones the heap-driven sweeps found before the
        // walk replaced them, and so are the CCH's cost bits; the CH's
        // raw arc sums moved with its arcs. A table's source walks relax
        // nothing at or past the largest entry once every target has one.
        let g = grid24();
        let n = g.vertex_count() as u32;
        let ch = ContractionHierarchy::build(&g, LandmarkMetric::Length, &ChConfig::default());
        let topo = std::sync::Arc::new(CchTopology::build(&g, &CchConfig::default()));
        let cch = topo.customize(&g, &CostModel::TravelTime);
        let pairs: Vec<(VertexId, VertexId)> = (0..80u32)
            .map(|i| (VertexId(i * 7_919 % n), VertexId((i * 104_729 + 13) % n)))
            .collect();
        let sources: Vec<VertexId> = (0..8).map(|i| VertexId(i * 71 % n)).collect();
        let targets: Vec<VertexId> = (0..6).map(|i| VertexId((i * 97 + 71) % n)).collect();
        let mut got = Vec::new();
        for view in [ch.view(), cch.view()] {
            let mut h = 0xcbf2_9ce4_8422_2325u64;
            let mut word = |w: u64| h = (h ^ w).wrapping_mul(0x0000_0100_0000_01b3);
            let mut search = ChSearch::default();
            for &(s, t) in &pairs {
                let cost = view.query_cost(&mut search, s, t);
                word(cost.unwrap_or(f64::INFINITY).to_bits());
                if let Some((edges, vertices)) = view.query_path(&mut search, s, t) {
                    edges.iter().for_each(|e| word(u64::from(e.0)));
                    vertices.iter().for_each(|v| word(u64::from(v.0)));
                }
            }
            let point = search.work_counters();
            let table = view.many_to_many(&mut search, &sources, &targets);
            for i in 0..sources.len() {
                table.row(i).iter().for_each(|d| word(d.to_bits()));
            }
            let (settled, pushed) = search.work_counters();
            got.push((h, point, (settled - point.0, pushed - point.1)));
        }
        assert_eq!(
            got,
            [
                (0xfaa3_8388_e7eb_7c77, (12_584, 0), (865, 0)),
                (0x9ff8_2911_c2db_cc78, (13_188, 0), (897, 0)),
            ]
        );
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
    /// `(from, mid, to)` (a shortcut). Holds every numbering to one
    /// hierarchy.
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
        // any node order and any superset of the arcs it needs. The third
        // column is the number of slots kept.
        for (g, golden, slots) in [
            (region(), 0x0a00_2703_5f5e_1186u64, 282usize),
            (grid24(), 0xeafc_f615_f3c0_a27fu64, 7_676usize),
        ] {
            for threads in [1, 2, 3, 8] {
                // A clone orders afresh: the loop runs on `threads` too.
                let cfg = ChConfig { threads };
                let ch = ContractionHierarchy::build(&g.clone(), LandmarkMetric::Length, &cfg);
                let print = fingerprint(&ch);
                assert!(
                    print == golden,
                    "hierarchy drifted: {print:#018x}, {threads} threads, {} slots",
                    ch.arcs().len()
                );
                assert_eq!(ch.arcs().len(), slots);
            }
        }
        // Multigraphs under weights with zeros, which a graph's lengths
        // cannot hold.
        for (n, seed, golden, slots) in [
            (40, 3, 0xd1f5_30ba_7c04_a929u64, 252),
            (60, 9, 0x6b5c_a3b4_b153_e2b9u64, 292),
        ] {
            let (ch, ..) = raw_hierarchy(n, &random_multigraph(n as u32, seed));
            assert_eq!(ch.arcs().len(), slots, "seed {seed}");
            let print = fingerprint(&ch);
            assert!(print == golden, "seed {seed} drifted: {print:#018x}");
        }
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

    /// The hierarchy `build` makes of raw `(from, to, weight)` arcs —
    /// the graph of their ends (edge `i` is arc `i`) under a `Custom`
    /// vector of their weights, which may be zero — with the graph and
    /// the vector.
    fn raw_hierarchy(n: usize, raw: &[(u32, u32, f64)]) -> (ContractionHierarchy, Graph, Vec<f64>) {
        let mut b = GraphBuilder::new();
        for i in 0..n {
            b.add_vertex(Point::new(i as f64, 0.0));
        }
        let attrs = EdgeAttrs::with_default_speed(1.0, RoadCategory::Residential);
        for &(from, to, _) in raw {
            b.add_edge(VertexId(from), VertexId(to), attrs).unwrap();
        }
        let g = b.build();
        let weights: Vec<f64> = raw.iter().map(|a| a.2).collect();
        let (skel, rules, seg_weights) = metric_hierarchy(&g, 1, |e| weights[e.index()]);
        let ch = ContractionHierarchy {
            metric: LandmarkMetric::Length,
            m: raw.len(),
            skel,
            rules,
            seg_weights,
        };
        (ch, g, weights)
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
        // Random multigraphs with parallel arcs, zero weights and
        // 2-cycles; integer weights keep every cost exact under any
        // association.
        for seed in 1..=40u64 {
            let n = 4 + (seed % 13) as usize;
            let raw = random_multigraph(n as u32, seed);
            let (ch, g, weights) = raw_hierarchy(n, &raw);
            let dist: Vec<Vec<f64>> = (0..n).map(|s| raw_distances(n, &raw, s)).collect();
            // Every kept arc weighs the distance between its ends and
            // unpacks to a chain of edges from its tail to its head that
            // sums to it; a shortcut's legs are slots.
            let view = ch.view();
            let ends: std::collections::HashSet<_> = ch.arcs().map(|a| (a.from, a.to)).collect();
            for (slot, arc) in ch.arcs().enumerate() {
                assert_ne!(arc.from, arc.to, "seed {seed}: a self-loop has a slot");
                let want = dist[arc.from.index()][arc.to.index()];
                assert_eq!(
                    arc.weight.to_bits(),
                    want.to_bits(),
                    "seed {seed}: slot {slot}"
                );
                if let ChArcKind::Shortcut(mid) = arc.kind {
                    assert!(ends.contains(&(arc.from, mid)) && ends.contains(&(mid, arc.to)));
                }
                let (tail, head) = ch.skel.slot_ends(slot);
                let (mut edges, mut vertices) = (Vec::new(), vec![arc.from]);
                let mut unpack = Unpack {
                    nodes: vec![(slot as u32, tail, head)],
                    ..Unpack::default()
                };
                view.expand(&mut unpack, |e, head| {
                    edges.push(e);
                    vertices.push(ch.skel.order[head as usize]);
                });
                let cost: f64 = edges.iter().map(|e| weights[e.index()]).sum();
                assert_eq!(
                    cost.to_bits(),
                    arc.weight.to_bits(),
                    "seed {seed}: slot {slot}"
                );
                for (e, pair) in edges.iter().zip(vertices.windows(2)) {
                    assert_eq!((g.edge(*e).from, g.edge(*e).to), (pair[0], pair[1]));
                }
                assert_eq!(vertices.last(), Some(&arc.to));
            }
            // Costs: the CH, a CCH over the same graph and vector, and
            // m2m tables on both.
            let topo = CchTopology::build(&g, &CchConfig::default());
            let cch = std::sync::Arc::new(topo).customize_weights(&g, &weights);
            let mut search = ChSearch::default();
            let everyone: Vec<VertexId> = (0..n as u32).map(VertexId).collect();
            let tables = [
                view.many_to_many(&mut search, &everyone, &everyone),
                cch.view().many_to_many(&mut search, &everyone, &everyone),
            ];
            for (s, row) in dist.iter().enumerate() {
                for (t, want) in row.iter().map(|d| d.to_bits()).enumerate() {
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
                    // A path is simple, its edges sum to its cost and
                    // chain s to t.
                    for view in [view, cch.view()] {
                        let Some((edges, vertices)) = view.query_path(&mut search, sv, tv) else {
                            continue;
                        };
                        let cost: f64 = edges.iter().map(|e| weights[e.index()]).sum();
                        assert_eq!(cost.to_bits(), want, "seed {seed}: path {s} -> {t}");
                        let distinct: std::collections::HashSet<_> = vertices.iter().collect();
                        assert_eq!(distinct.len(), vertices.len(), "seed {seed}: {vertices:?}");
                        for (e, pair) in edges.iter().zip(vertices.windows(2)) {
                            assert_eq!((g.edge(*e).from, g.edge(*e).to), (pair[0], pair[1]));
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn cut_cycles_is_needed_where_float_sums_tie_a_walk_with_a_cycle() {
        // Shrunk from random multigraphs with zero and ulp-sized weights:
        // under float rounding the CH's cheapest 0 -> 3 walk runs
        // 2 -> 4 -> 2 over two zero-weight edges. `query_path` cuts the
        // cycle; the cost fold with the cycle in, `query_path_cost`, has
        // the same bits.
        let tiny = 3.996_802_888_650_563e-16;
        let raw = [
            (4, 2, 0.0),
            (2, 4, 0.0),
            (2, 3, 0.5),
            (0, 5, tiny),
            (4, 0, 0.0),
            (5, 2, tiny),
        ];
        let (ch, _, weights) = raw_hierarchy(6, &raw);
        let view = ch.view();
        let (s, t) = (VertexId(0), VertexId(3));
        let mut search = ChSearch::default();
        let (meet, _) = view.run_query(&mut search, s, t).expect("3 is reachable");
        view.path_arcs(&mut search, s, t, meet);
        let mut walk = vec![s];
        view.expand(&mut search.unpack, |_, head| {
            walk.push(ch.skel.order[head as usize])
        });
        let ids: Vec<u32> = walk.iter().map(|v| v.0).collect();
        assert_eq!(ids, [0, 5, 2, 4, 2, 3], "the walk carries the cycle");
        let folded = view.query_path_cost(&mut search, s, t, &weights);
        let (edges, vertices) = view.query_path(&mut search, s, t).expect("a path");
        let ids: Vec<u32> = vertices.iter().map(|v| v.0).collect();
        assert_eq!(ids, [0, 5, 2, 3], "the cycle is cut");
        let cost = edges.iter().fold(0.0, |acc, e| acc + weights[e.index()]);
        assert_eq!(folded.map(f64::to_bits), Some(cost.to_bits()));
        assert_eq!(cost.to_bits(), raw_distances(6, &raw, 0)[3].to_bits());
    }
}

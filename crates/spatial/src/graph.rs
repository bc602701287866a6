//! Compact CSR-based directed road-network graph.
//!
//! The graph is immutable after construction (see
//! [`crate::builder::GraphBuilder`]): vertices carry planar coordinates,
//! edges carry a length, a road category and a speed, from which a travel
//! time is derived. Both outgoing and incoming adjacency are stored in CSR
//! form so that forward and reverse searches are both cache-friendly.

use std::sync::{Mutex, OnceLock};

use crate::geometry::Point;

/// Identifier of a vertex; an index into the graph's vertex arrays.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VertexId(pub u32);

impl VertexId {
    /// The vertex id as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Identifier of a directed edge; an index into the graph's edge arrays.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EdgeId(pub u32);

impl EdgeId {
    /// The edge id as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Lower clamp for edge speeds, km/h. [`crate::builder::GraphBuilder`]
/// clamps every edge speed into `[MIN_EDGE_SPEED_KMH, MAX_EDGE_SPEED_KMH]`:
/// a zero or denormal speed would turn [`EdgeAttrs::travel_time_s`] into
/// `inf` (the division `length / (speed / 3.6)` overflows for speeds
/// below ~1e-305), and a single infinite travel time poisons every
/// TravelTime-metric index built or customized from the graph. 0.1 km/h
/// still models a near-standstill (36 s per metre) while keeping every
/// derived weight finite.
pub const MIN_EDGE_SPEED_KMH: f64 = 0.1;

/// Upper clamp for edge speeds, km/h (comfortably above any legal road
/// speed; keeps fat-fingered telemetry from minting teleport edges).
pub const MAX_EDGE_SPEED_KMH: f64 = 300.0;

/// Functional road classes, mirroring the hierarchy of a national road
/// network. The class determines the default speed used to derive travel
/// times in the synthetic generators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RoadCategory {
    /// Motorways connecting towns (fast, sparse).
    Highway,
    /// Arterial roads within and between towns.
    Arterial,
    /// Ordinary urban streets.
    Residential,
    /// Low-speed rural or service roads.
    Rural,
}

impl RoadCategory {
    /// Default free-flow speed for the category, in km/h.
    pub fn default_speed_kmh(self) -> f64 {
        match self {
            RoadCategory::Highway => 110.0,
            RoadCategory::Arterial => 70.0,
            RoadCategory::Residential => 45.0,
            RoadCategory::Rural => 60.0,
        }
    }

    /// All categories, useful for iteration in tests and generators.
    pub const ALL: [RoadCategory; 4] = [
        RoadCategory::Highway,
        RoadCategory::Arterial,
        RoadCategory::Residential,
        RoadCategory::Rural,
    ];

    /// Stable single-byte tag used by the text serialisation format.
    pub fn tag(self) -> u8 {
        match self {
            RoadCategory::Highway => b'H',
            RoadCategory::Arterial => b'A',
            RoadCategory::Residential => b'R',
            RoadCategory::Rural => b'U',
        }
    }

    /// Inverse of [`RoadCategory::tag`].
    pub fn from_tag(tag: u8) -> Option<Self> {
        match tag {
            b'H' => Some(RoadCategory::Highway),
            b'A' => Some(RoadCategory::Arterial),
            b'R' => Some(RoadCategory::Residential),
            b'U' => Some(RoadCategory::Rural),
            _ => None,
        }
    }
}

/// Immutable attributes of a directed edge.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EdgeAttrs {
    /// Length of the edge in metres. Always positive and finite.
    pub length_m: f64,
    /// Free-flow speed in km/h. Always positive and finite.
    pub speed_kmh: f64,
    /// Functional road class.
    pub category: RoadCategory,
}

impl EdgeAttrs {
    /// Creates attributes with the category's default speed.
    pub fn with_default_speed(length_m: f64, category: RoadCategory) -> Self {
        EdgeAttrs {
            length_m,
            speed_kmh: category.default_speed_kmh(),
            category,
        }
    }

    /// Free-flow travel time over the edge, in seconds.
    #[inline]
    pub fn travel_time_s(&self) -> f64 {
        self.length_m / (self.speed_kmh / 3.6)
    }
}

/// One directed edge: tail, head and attributes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EdgeRecord {
    /// Tail (source) vertex.
    pub from: VertexId,
    /// Head (target) vertex.
    pub to: VertexId,
    /// Edge attributes.
    pub attrs: EdgeAttrs,
}

/// The cost model used by routing queries.
///
/// `Custom` allows callers (notably the trajectory simulator's hidden driver
/// preferences) to route on arbitrary per-edge costs without rebuilding the
/// graph.
#[derive(Debug, Clone, Copy)]
pub enum CostModel<'a> {
    /// Cost = edge length in metres (shortest path).
    Length,
    /// Cost = free-flow travel time in seconds (fastest path).
    TravelTime,
    /// Cost = `costs[edge.index()]`; the slice must have one finite,
    /// non-negative entry per edge.
    Custom(&'a [f64]),
}

impl<'a> CostModel<'a> {
    /// The per-edge costs of this model on `g`, indexed by [`EdgeId`]:
    /// one of the graph's two weight columns, or the `Custom` slice
    /// itself. Searches resolve this once per query and then read plain
    /// floats.
    #[inline]
    pub fn weights(&self, g: &'a Graph) -> &'a [f64] {
        match self {
            CostModel::Length => &g.length_m,
            CostModel::TravelTime => &g.travel_time_s,
            CostModel::Custom(costs) => costs,
        }
    }

    /// Cost of traversing edge `e` in graph `g`.
    #[inline]
    pub fn edge_cost(&self, g: &Graph, e: EdgeId) -> f64 {
        self.weights(g)[e.index()]
    }
}

/// Immutable CSR road network.
///
/// Construct with [`crate::builder::GraphBuilder`] or one of the
/// [`crate::generators`].
///
/// Because a graph never changes once built, it also keeps the one thing
/// every hierarchy over it recomputes otherwise: the contraction order of
/// its chordal topology. The first
/// [`crate::algo::ContractionHierarchy::build`] or
/// [`crate::algo::CchTopology::build`] stores the ranks (4 B per vertex)
/// and the vertex pairs the contraction joined, in creation order; later
/// builds assemble their skeleton from them instead of running the
/// ordering loop again. The first topology build takes the pair list, so
/// the graph never holds it beside a topology, and a build after that
/// replays the contraction in rank order. The memo is a cache, not part
/// of the graph: equality ignores it, a clone starts without it, and the
/// io formats never write it.
#[derive(Debug, Clone, PartialEq)]
pub struct Graph {
    pub(crate) coords: Vec<Point>,
    // Outgoing CSR.
    pub(crate) out_offsets: Vec<u32>,
    pub(crate) out_targets: Vec<VertexId>,
    pub(crate) out_edge_ids: Vec<EdgeId>,
    // Incoming CSR.
    pub(crate) in_offsets: Vec<u32>,
    pub(crate) in_sources: Vec<VertexId>,
    pub(crate) in_edge_ids: Vec<EdgeId>,
    // Edge records, indexed by EdgeId.
    pub(crate) edge_records: Vec<EdgeRecord>,
    /// Weight columns, indexed by `EdgeId`: `attrs.length_m` and
    /// `attrs.travel_time_s()` of every edge record, bit for bit. The
    /// builder fills them and nothing changes them afterwards, so a
    /// search reads one flat `f64` per relaxation whatever the
    /// [`CostModel`].
    pub(crate) length_m: Vec<f64>,
    pub(crate) travel_time_s: Vec<f64>,
    /// The contraction order, once a hierarchy build computed it.
    pub(crate) order: OrderMemo,
}

/// The contraction order of a graph's chordal topology
/// (`crate::algo::cch`'s ordering loop), kept by the graph.
#[derive(Debug)]
pub(crate) struct ContractionOrder {
    /// `rank[v]` = the position `v` was contracted at.
    pub(crate) rank: Vec<u32>,
    /// The vertex pairs the contraction joined, in creation order, until
    /// a topology build takes them.
    pub(crate) pairs: Mutex<Option<Vec<(VertexId, VertexId)>>>,
}

/// A set-once slot for a [`ContractionOrder`]: equal to every other
/// slot, cloned empty.
#[derive(Default)]
pub(crate) struct OrderMemo(pub(crate) OnceLock<ContractionOrder>);

impl Clone for OrderMemo {
    fn clone(&self) -> Self {
        OrderMemo::default()
    }
}

impl PartialEq for OrderMemo {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}

impl std::fmt::Debug for OrderMemo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let state = if self.0.get().is_some() {
            "kept"
        } else {
            "none"
        };
        write!(f, "OrderMemo({state})")
    }
}

impl Graph {
    /// Number of vertices.
    #[inline]
    pub fn vertex_count(&self) -> usize {
        self.coords.len()
    }

    /// Number of directed edges.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.edge_records.len()
    }

    /// Planar coordinates of a vertex.
    #[inline]
    pub fn coord(&self, v: VertexId) -> Point {
        self.coords[v.index()]
    }

    /// All vertex coordinates, indexed by vertex id.
    #[inline]
    pub fn coords(&self) -> &[Point] {
        &self.coords
    }

    /// The record of edge `e`.
    #[inline]
    pub fn edge(&self, e: EdgeId) -> &EdgeRecord {
        &self.edge_records[e.index()]
    }

    /// Iterator over all edge records in `EdgeId` order.
    pub fn edges(&self) -> impl Iterator<Item = &EdgeRecord> + '_ {
        self.edge_records.iter()
    }

    /// Iterator over all vertex ids.
    pub fn vertices(&self) -> impl Iterator<Item = VertexId> {
        (0..self.coords.len() as u32).map(VertexId)
    }

    /// Neighbours of `v` as `(other endpoint, edge)` pairs, in CSR order:
    /// the outgoing arcs, or with `reverse` the incoming ones — what a
    /// search in that direction relaxes from `v`.
    #[inline]
    pub fn arcs(
        &self,
        v: VertexId,
        reverse: bool,
    ) -> impl Iterator<Item = (VertexId, EdgeId)> + '_ {
        let (offsets, ends, ids) = if reverse {
            (&self.in_offsets, &self.in_sources, &self.in_edge_ids)
        } else {
            (&self.out_offsets, &self.out_targets, &self.out_edge_ids)
        };
        let lo = offsets[v.index()] as usize;
        let hi = offsets[v.index() + 1] as usize;
        ends[lo..hi]
            .iter()
            .copied()
            .zip(ids[lo..hi].iter().copied())
    }

    /// Outgoing neighbours of `v` as `(head, edge)` pairs.
    #[inline]
    pub fn out_edges(&self, v: VertexId) -> impl Iterator<Item = (VertexId, EdgeId)> + '_ {
        self.arcs(v, false)
    }

    /// Incoming neighbours of `v` as `(tail, edge)` pairs.
    #[inline]
    pub fn in_edges(&self, v: VertexId) -> impl Iterator<Item = (VertexId, EdgeId)> + '_ {
        self.arcs(v, true)
    }

    /// Out-degree of `v`.
    #[inline]
    pub fn out_degree(&self, v: VertexId) -> usize {
        (self.out_offsets[v.index() + 1] - self.out_offsets[v.index()]) as usize
    }

    /// In-degree of `v`.
    #[inline]
    pub fn in_degree(&self, v: VertexId) -> usize {
        (self.in_offsets[v.index() + 1] - self.in_offsets[v.index()]) as usize
    }

    /// Finds the edge from `from` to `to`, if the vertices are adjacent.
    /// When parallel edges exist the one with the smallest cost under
    /// `CostModel::Length` is returned.
    pub fn find_edge(&self, from: VertexId, to: VertexId) -> Option<EdgeId> {
        let mut best: Option<EdgeId> = None;
        for (head, e) in self.out_edges(from) {
            if head == to {
                match best {
                    None => best = Some(e),
                    Some(b) if self.edge(e).attrs.length_m < self.edge(b).attrs.length_m => {
                        best = Some(e)
                    }
                    _ => {}
                }
            }
        }
        best
    }

    /// Sum of all edge lengths, in metres.
    pub fn total_length_m(&self) -> f64 {
        self.edge_records.iter().map(|e| e.attrs.length_m).sum()
    }

    /// Straight-line distance between two vertices, in metres.
    #[inline]
    pub fn euclidean(&self, a: VertexId, b: VertexId) -> f64 {
        self.coords[a.index()].distance(&self.coords[b.index()])
    }

    /// Returns the vertex ids belonging to the largest strongly connected
    /// component, in ascending order.
    ///
    /// Used by the generators to guarantee that every routing query has an
    /// answer. Iterative Tarjan so deep graphs cannot overflow the stack.
    pub fn largest_scc(&self) -> Vec<VertexId> {
        let n = self.vertex_count();
        const UNVISITED: u32 = u32::MAX;
        let mut index = vec![UNVISITED; n];
        let mut lowlink = vec![0u32; n];
        let mut on_stack = vec![false; n];
        let mut stack: Vec<u32> = Vec::new();
        let mut next_index = 0u32;
        let mut best: Vec<VertexId> = Vec::new();

        // Explicit DFS state: (vertex, iterator position over out-edges).
        let mut call_stack: Vec<(u32, u32)> = Vec::new();

        for start in 0..n as u32 {
            if index[start as usize] != UNVISITED {
                continue;
            }
            call_stack.push((start, 0));
            index[start as usize] = next_index;
            lowlink[start as usize] = next_index;
            next_index += 1;
            stack.push(start);
            on_stack[start as usize] = true;

            while let Some(&mut (v, ref mut child_pos)) = call_stack.last_mut() {
                let lo = self.out_offsets[v as usize];
                let hi = self.out_offsets[v as usize + 1];
                let pos = lo + *child_pos;
                if pos < hi {
                    *child_pos += 1;
                    let w = self.out_targets[pos as usize].0;
                    if index[w as usize] == UNVISITED {
                        index[w as usize] = next_index;
                        lowlink[w as usize] = next_index;
                        next_index += 1;
                        stack.push(w);
                        on_stack[w as usize] = true;
                        call_stack.push((w, 0));
                    } else if on_stack[w as usize] {
                        lowlink[v as usize] = lowlink[v as usize].min(index[w as usize]);
                    }
                } else {
                    call_stack.pop();
                    if let Some(&(parent, _)) = call_stack.last() {
                        lowlink[parent as usize] =
                            lowlink[parent as usize].min(lowlink[v as usize]);
                    }
                    if lowlink[v as usize] == index[v as usize] {
                        // v is the root of an SCC; pop it off.
                        let mut component = Vec::new();
                        loop {
                            let w = stack.pop().expect("tarjan stack invariant");
                            on_stack[w as usize] = false;
                            component.push(VertexId(w));
                            if w == v {
                                break;
                            }
                        }
                        if component.len() > best.len() {
                            best = component;
                        }
                    }
                }
            }
        }
        best.sort_unstable();
        best
    }
}

/// Approximate edge betweenness ("popularity"): counts how often each edge
/// lies on a shortest-path tree from `samples` sampled roots, normalised to
/// `[0, 1]`. High values mark the network's major corridors.
///
/// Real drivers concentrate on such corridors, and node2vec embeddings
/// encode exactly this kind of topological centrality — the trajectory
/// simulator uses this to give fixed-embedding models (PR-A1) a fair,
/// realistic learnable signal.
///
/// A tree edge `parent(w) -> w` is on the root path of exactly the
/// vertices in `w`'s subtree, so its count per tree is that subtree's
/// size. Sizes are summed bottom-up in O(n) per tree: a vertex is popped
/// once all its children have handed it their sizes, then hands its own
/// to its parent. Every partial sum is an integer below 2^53, so the f64
/// counts are exact and equal, in bits, to bumping each edge once per
/// descendant in any order. Scratch: 12 B per vertex.
pub fn edge_popularity(g: &Graph, samples: usize, seed: u64) -> Vec<f64> {
    use pathrank_rng::rngs::StdRng;
    use pathrank_rng::{Rng, SeedableRng};

    let n = g.vertex_count();
    let mut counts = vec![0.0f64; g.edge_count()];
    if n == 0 || g.edge_count() == 0 {
        return counts;
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let mut engine = crate::algo::engine::QueryEngine::new(g);
    let mut size = vec![0u32; n];
    let mut pending_children = vec![0u32; n];
    let mut ready: Vec<VertexId> = Vec::with_capacity(n);
    for _ in 0..samples.max(1) {
        let root = VertexId(rng.gen_range(0..n as u32));
        let tree = engine.one_to_all(root, CostModel::Length);
        pending_children.fill(0);
        for v in g.vertices() {
            if let Some((parent, _)) = tree.parent_of(v) {
                pending_children[parent.index()] += 1;
            }
        }
        // Leaves first; unreached vertices and the root have no parent
        // and pass nothing on.
        size.fill(1);
        ready.extend(g.vertices().filter(|v| pending_children[v.index()] == 0));
        while let Some(v) = ready.pop() {
            if let Some((parent, e)) = tree.parent_of(v) {
                let s = size[v.index()];
                counts[e.index()] += s as f64;
                let p = parent.index();
                size[p] += s;
                pending_children[p] -= 1;
                if pending_children[p] == 0 {
                    ready.push(parent);
                }
            }
        }
    }
    let max = counts.iter().cloned().fold(0.0f64, f64::max);
    if max > 0.0 {
        for c in counts.iter_mut() {
            *c /= max;
        }
    }
    counts
}
#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;

    fn tiny() -> Graph {
        // 0 -> 1 -> 2, 0 -> 2, 2 -> 0 (cycle through all).
        let mut b = GraphBuilder::new();
        let v0 = b.add_vertex(Point::new(0.0, 0.0));
        let v1 = b.add_vertex(Point::new(100.0, 0.0));
        let v2 = b.add_vertex(Point::new(200.0, 0.0));
        b.add_edge(
            v0,
            v1,
            EdgeAttrs::with_default_speed(100.0, RoadCategory::Residential),
        )
        .unwrap();
        b.add_edge(
            v1,
            v2,
            EdgeAttrs::with_default_speed(100.0, RoadCategory::Residential),
        )
        .unwrap();
        b.add_edge(
            v0,
            v2,
            EdgeAttrs::with_default_speed(250.0, RoadCategory::Residential),
        )
        .unwrap();
        b.add_edge(
            v2,
            v0,
            EdgeAttrs::with_default_speed(200.0, RoadCategory::Arterial),
        )
        .unwrap();
        b.build()
    }

    #[test]
    fn counts_and_degrees() {
        let g = tiny();
        assert_eq!(g.vertex_count(), 3);
        assert_eq!(g.edge_count(), 4);
        assert_eq!(g.out_degree(VertexId(0)), 2);
        assert_eq!(g.in_degree(VertexId(2)), 2);
        assert_eq!(g.out_degree(VertexId(1)), 1);
    }

    #[test]
    fn adjacency_is_consistent_between_csr_sides() {
        let g = tiny();
        for v in g.vertices() {
            for (head, e) in g.out_edges(v) {
                assert_eq!(g.edge(e).from, v);
                assert_eq!(g.edge(e).to, head);
                // The reverse CSR must contain the same edge.
                assert!(g.in_edges(head).any(|(tail, e2)| tail == v && e2 == e));
            }
        }
    }

    #[test]
    fn find_edge_picks_shortest_parallel() {
        let mut b = GraphBuilder::new();
        let v0 = b.add_vertex(Point::new(0.0, 0.0));
        let v1 = b.add_vertex(Point::new(10.0, 0.0));
        b.add_edge(
            v0,
            v1,
            EdgeAttrs::with_default_speed(500.0, RoadCategory::Rural),
        )
        .unwrap();
        let short = b
            .add_edge(
                v0,
                v1,
                EdgeAttrs::with_default_speed(10.0, RoadCategory::Rural),
            )
            .unwrap();
        let g = b.build();
        assert_eq!(g.find_edge(v0, v1), Some(short));
        assert_eq!(g.find_edge(v1, v0), None);
    }

    #[test]
    fn travel_time_from_speed() {
        let attrs = EdgeAttrs {
            length_m: 1000.0,
            speed_kmh: 36.0,
            category: RoadCategory::Rural,
        };
        // 36 km/h = 10 m/s => 100 seconds for a kilometre.
        assert!((attrs.travel_time_s() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn cost_models() {
        let g = tiny();
        let e = g.find_edge(VertexId(0), VertexId(1)).unwrap();
        assert_eq!(CostModel::Length.edge_cost(&g, e), 100.0);
        let tt = CostModel::TravelTime.edge_cost(&g, e);
        assert!((tt - 100.0 / (45.0 / 3.6)).abs() < 1e-9);
        let custom = vec![7.0; g.edge_count()];
        assert_eq!(CostModel::Custom(&custom).edge_cost(&g, e), 7.0);
    }

    #[test]
    fn scc_of_cyclic_graph_is_everything() {
        let g = tiny();
        let scc = g.largest_scc();
        assert_eq!(scc, vec![VertexId(0), VertexId(1), VertexId(2)]);
    }

    #[test]
    fn scc_excludes_dangling_vertex() {
        let mut b = GraphBuilder::new();
        let v0 = b.add_vertex(Point::new(0.0, 0.0));
        let v1 = b.add_vertex(Point::new(1.0, 0.0));
        let v2 = b.add_vertex(Point::new(2.0, 0.0));
        let dangling = b.add_vertex(Point::new(9.0, 9.0));
        for (a, z) in [(v0, v1), (v1, v2), (v2, v0), (v0, dangling)] {
            b.add_edge(
                a,
                z,
                EdgeAttrs::with_default_speed(10.0, RoadCategory::Rural),
            )
            .unwrap();
        }
        let g = b.build();
        let scc = g.largest_scc();
        assert_eq!(scc, vec![v0, v1, v2]);
    }

    #[test]
    fn category_tags_roundtrip() {
        for cat in RoadCategory::ALL {
            assert_eq!(RoadCategory::from_tag(cat.tag()), Some(cat));
        }
        assert_eq!(RoadCategory::from_tag(b'?'), None);
    }
}

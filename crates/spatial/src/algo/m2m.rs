//! Bucket-based many-to-many distance tables over a [`HierarchyView`]
//! (a metric-built CH or a customized CCH) — the batched counterpart of
//! the CH point-to-point query.
//!
//! The HMM transition model of map matching, candidate diagnostics and
//! any matrix-shaped serving workload all ask the same question: the
//! shortest-path distance for **every pair** of an `S`-element source set
//! and a `T`-element target set. Issuing `S × T` independent CH queries
//! repeats almost all of the work: every query from the same source
//! climbs the same upward closure, and every query *to* the same target
//! descends the same one.
//!
//! The classic bucket algorithm (Knopp et al., "Computing Many-to-Many
//! Shortest Paths Using Highway Hierarchies") factors that repetition
//! out:
//!
//! 1. **Target phase** — one *backward upward* sweep per target `t_j`
//!    deposits an entry `(j, d(v, t_j))` in a per-rank **bucket** at
//!    every vertex `v` the sweep settles.
//! 2. **Source phase** — one *forward upward* sweep per source `s_i`
//!    scans, at every settled vertex `v`, the bucket left by phase 1 and
//!    improves `table[i][j]` with `d(s_i, v) + d(v, t_j)`.
//!
//! `T` backward sweeps plus `S` forward sweeps — each the size of a
//! *half* point-to-point query — replace `S × T` full queries. The meet
//! logic is exactly the one-to-one query's: a sweep settles stalled
//! vertices with valid (possibly suboptimal) labels and still
//! deposits/scans them, so every bucket sum is the cost of a real path
//! and the canonical up-down meeting vertex of each pair closes the
//! exact optimum (the same stall-on-demand argument as
//! [`HierarchyView::query_cost`]).
//!
//! Entries are **raw arc-weight sums** (`d_fwd + d_bucket`), exact up to
//! float association of shortcut weights — on integer-weight graphs they
//! are bit-identical to Dijkstra (locked in by `tests/m2m_exactness.rs`).
//!
//! The scratch state ([`M2mSearch`]) is epoch-stamped like
//! [`ChSearch`]/`SearchSpace`: buckets and sweep labels invalidate in
//! O(1), so steady-state tables perform **no per-call `O(V)` work** —
//! only the `S × T` output allocation. Prepared target buckets can also
//! be streamed against ([`HierarchyView::prepare_targets`] +
//! [`HierarchyView::distances_from`]): a server batching
//! one-to-many requests against a fixed target set pays the target phase
//! once.
//!
//! [`ChSearch`]: crate::algo::ch::ChSearch

use crate::algo::ch::{ChSide, HierarchyView};
use crate::graph::VertexId;
use crate::util::MinCost;

/// An `S × T` matrix of exact shortest-path distances, row-major:
/// `dist(i, j)` is the cost of the cheapest `sources[i] -> targets[j]`
/// path under the hierarchy's build metric, `f64::INFINITY` when
/// unreachable (`0.0` on the diagonal pairs where source and target
/// coincide).
#[derive(Debug, Clone)]
pub struct DistanceTable {
    sources: Vec<VertexId>,
    targets: Vec<VertexId>,
    dist: Vec<f64>,
}

impl DistanceTable {
    /// `(rows, columns)` = `(sources, targets)` counts.
    pub fn shape(&self) -> (usize, usize) {
        (self.sources.len(), self.targets.len())
    }

    /// Distance of the pair `sources[i] -> targets[j]`;
    /// `f64::INFINITY` when unreachable.
    #[inline]
    pub fn dist(&self, i: usize, j: usize) -> f64 {
        self.dist[i * self.targets.len() + j]
    }

    /// Row `i`: distances from `sources[i]` to every target.
    pub fn row(&self, i: usize) -> &[f64] {
        let t = self.targets.len();
        &self.dist[i * t..(i + 1) * t]
    }

    /// Distance of the pair `(source, target)` looked up by vertex id
    /// (linear scan over the endpoint lists — fine for the table sizes
    /// the batched workloads build); `None` when either endpoint is not
    /// part of the table.
    pub fn dist_between(&self, source: VertexId, target: VertexId) -> Option<f64> {
        let i = self.sources.iter().position(|&v| v == source)?;
        let j = self.targets.iter().position(|&v| v == target)?;
        Some(self.dist(i, j))
    }
}

/// One bucket entry: the target's column index and the exact backward
/// upward distance from the bucket's vertex to that target.
#[derive(Debug, Clone, Copy)]
struct BucketEntry {
    col: u32,
    dist: f64,
}

/// Reusable scratch for bucket-based many-to-many queries: one
/// epoch-stamped sweep side, per-rank buckets with O(1) bulk
/// invalidation and the streamed row buffer.
///
/// Create once per worker ([`M2mSearch::new`] with the graph's vertex
/// count) and reuse across tables; like the engine's `SearchSpace`,
/// steady-state calls allocate nothing `O(V)`.
#[derive(Debug)]
pub struct M2mSearch {
    /// Shared sweep state (targets first, then sources — the phases never
    /// overlap, so one side suffices).
    side: ChSide,
    /// Bucket generation; `buckets[r]` is live iff
    /// `bucket_stamp[r] == bucket_epoch`, which invalidates every bucket
    /// at once when a new target set is prepared.
    bucket_epoch: u32,
    bucket_stamp: Vec<u32>,
    /// Per-rank deposits of the current target phase. Entries appear in
    /// ascending column order (targets are swept in order).
    buckets: Vec<Vec<BucketEntry>>,
    /// Number of targets in the currently prepared set.
    prepared: usize,
    /// Reused output row of [`HierarchyView::distances_from`].
    row: Vec<f64>,
}

impl M2mSearch {
    /// Creates scratch state for graphs with `n` vertices.
    pub fn new(n: usize) -> Self {
        M2mSearch {
            side: ChSide::new(n),
            bucket_epoch: 0,
            bucket_stamp: vec![0; n],
            buckets: vec![Vec::new(); n],
            prepared: 0,
            row: Vec::new(),
        }
    }

    /// Number of vertex slots.
    pub fn capacity(&self) -> usize {
        self.bucket_stamp.len()
    }
}

impl HierarchyView<'_> {
    /// Runs the target phase: one backward upward sweep per target,
    /// depositing `(column, distance)` bucket entries at every settled
    /// rank. Invalidates any previously prepared target set in O(1).
    ///
    /// Follow with any number of [`HierarchyView::distances_from`]
    /// calls — a batched one-to-many workload against a fixed target set
    /// pays this phase once.
    pub fn prepare_targets(&self, search: &mut M2mSearch, targets: &[VertexId]) {
        debug_assert_eq!(
            search.capacity(),
            self.vertex_count(),
            "m2m search sized for another graph"
        );
        // Bump the bucket generation (re-zero on 32-bit wraparound, the
        // same amortised-zero discipline as the sweep sides).
        if search.bucket_epoch == u32::MAX {
            for s in search.bucket_stamp.iter_mut() {
                *s = 0;
            }
            search.bucket_epoch = 0;
        }
        search.bucket_epoch += 1;
        search.prepared = targets.len();

        let M2mSearch {
            side,
            bucket_epoch,
            bucket_stamp,
            buckets,
            ..
        } = search;
        for (j, &t) in targets.iter().enumerate() {
            let col = j as u32;
            side.begin();
            let root = VertexId(self.skel.rank[t.index()]);
            side.relax(root, 0.0, u32::MAX);
            side.heap.push(MinCost {
                cost: 0.0,
                item: root,
            });
            // Backward upward closure (the one-to-one query's phase 2,
            // run to exhaustion and without a `best` bound — every pair
            // shares these labels).
            while let Some(MinCost { cost: d, item: u }) = side.heap.pop() {
                if side.is_settled(u) {
                    continue;
                }
                side.settle(u);
                // Deposit before the stall check: a stalled label is
                // still the cost of a real `u -> t` path, exactly like
                // the labels the one-to-one meet checks read.
                let bucket = &mut buckets[u.index()];
                if bucket_stamp[u.index()] != *bucket_epoch {
                    bucket_stamp[u.index()] = *bucket_epoch;
                    bucket.clear();
                }
                bucket.push(BucketEntry { col, dist: d });
                let (up, up_w, down, down_w) = self.segment(u);
                if side.stalled(up, up_w, d) {
                    continue;
                }
                for (sa, &w) in down.iter().zip(down_w) {
                    let v = VertexId(sa.other);
                    if side.is_settled(v) {
                        continue;
                    }
                    let nd = d + w;
                    if nd < side.dist(v) {
                        side.relax(v, nd, u.0);
                        side.heap.push(MinCost { cost: nd, item: v });
                    }
                }
            }
        }
    }

    /// Runs one source phase against the prepared target buckets: a
    /// forward upward sweep from `source` that scans every settled
    /// rank's bucket. Returns the distances to the prepared targets, in
    /// preparation order (borrowed from the search's reusable row buffer;
    /// valid until the next call).
    pub fn distances_from<'s>(&self, search: &'s mut M2mSearch, source: VertexId) -> &'s [f64] {
        debug_assert_eq!(
            search.capacity(),
            self.vertex_count(),
            "m2m search sized for another graph"
        );
        let M2mSearch {
            side,
            bucket_epoch,
            bucket_stamp,
            buckets,
            prepared,
            row,
        } = search;
        row.clear();
        row.resize(*prepared, f64::INFINITY);
        side.begin();
        let root = VertexId(self.skel.rank[source.index()]);
        side.relax(root, 0.0, u32::MAX);
        side.heap.push(MinCost {
            cost: 0.0,
            item: root,
        });
        while let Some(MinCost { cost: d, item: u }) = side.heap.pop() {
            if side.is_settled(u) {
                continue;
            }
            side.settle(u);
            // Scan before the stall check, mirroring the deposits.
            if bucket_stamp[u.index()] == *bucket_epoch {
                for e in &buckets[u.index()] {
                    let total = d + e.dist;
                    if total < row[e.col as usize] {
                        row[e.col as usize] = total;
                    }
                }
            }
            let (up, up_w, down, down_w) = self.segment(u);
            if side.stalled(down, down_w, d) {
                continue;
            }
            for (sa, &w) in up.iter().zip(up_w) {
                let v = VertexId(sa.other);
                if side.is_settled(v) {
                    continue;
                }
                let nd = d + w;
                if nd < side.dist(v) {
                    side.relax(v, nd, u.0);
                    side.heap.push(MinCost { cost: nd, item: v });
                }
            }
        }
        row
    }

    /// The full `sources × targets` [`DistanceTable`]:
    /// [`HierarchyView::prepare_targets`] once, then one
    /// [`HierarchyView::distances_from`] sweep per source.
    ///
    /// `T` backward plus `S` forward upward sweeps replace `S × T`
    /// point-to-point queries — the asymptotic win behind the batched
    /// HMM transition blocks.
    pub fn many_to_many(
        &self,
        search: &mut M2mSearch,
        sources: &[VertexId],
        targets: &[VertexId],
    ) -> DistanceTable {
        self.prepare_targets(search, targets);
        let mut dist = Vec::with_capacity(sources.len() * targets.len());
        for &s in sources {
            dist.extend_from_slice(self.distances_from(search, s));
        }
        DistanceTable {
            sources: sources.to_vec(),
            targets: targets.to_vec(),
            dist,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algo::ch::{ChConfig, ChSearch, ContractionHierarchy};
    use crate::algo::dijkstra::shortest_path;
    use crate::algo::landmarks::LandmarkMetric;
    use crate::generators::{grid_network, region_network, GridConfig, RegionConfig};
    use crate::graph::{CostModel, Graph};

    fn table_vs_pairwise(g: &Graph, sources: &[VertexId], targets: &[VertexId]) {
        let ch = ContractionHierarchy::build(g, LandmarkMetric::Length, &ChConfig::default());
        let ch = ch.view();
        let mut search = M2mSearch::new(g.vertex_count());
        let table = ch.many_to_many(&mut search, sources, targets);
        assert_eq!(table.shape(), (sources.len(), targets.len()));
        for (i, &s) in sources.iter().enumerate() {
            for (j, &t) in targets.iter().enumerate() {
                let plain = shortest_path(g, s, t, CostModel::Length)
                    .map(|p| p.length_m(g))
                    .unwrap_or(if s == t { 0.0 } else { f64::INFINITY });
                let got = table.dist(i, j);
                assert!(
                    (plain - got).abs() < 1e-6 || (plain.is_infinite() && got.is_infinite()),
                    "{s:?}->{t:?}: dijkstra {plain} vs m2m {got}"
                );
            }
        }
    }

    #[test]
    fn m2m_table_matches_pairwise_dijkstra_bitwise_on_integer_weights() {
        // Integer-metre edges: every path cost sums to exactly the same
        // f64 under any association, so the raw bucket sums must equal
        // Dijkstra bit-for-bit (the same trick as tests/ch_exactness.rs).
        use crate::builder::GraphBuilder;
        use crate::geometry::Point;
        use crate::graph::{EdgeAttrs, RoadCategory};
        let mut b = GraphBuilder::new();
        let nv = 30usize;
        let vs: Vec<VertexId> = (0..nv)
            .map(|i| b.add_vertex(Point::new((i % 6) as f64 * 90.0, (i / 6) as f64 * 110.0)))
            .collect();
        // Deterministic pseudo-random integer weights and endpoints.
        let mut x = 0x9e37u64;
        let mut rnd = move || {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (x >> 33) as usize
        };
        for _ in 0..110 {
            let (f, t, w) = (rnd() % nv, rnd() % nv, 1 + rnd() % 97);
            if f != t {
                let _ = b.add_edge(
                    vs[f],
                    vs[t],
                    EdgeAttrs::with_default_speed(w as f64, RoadCategory::Rural),
                );
            }
        }
        let g = b.build();
        let n = g.vertex_count() as u32;
        let sources: Vec<VertexId> = (0..6).map(|i| VertexId(i * (n / 6))).collect();
        let targets: Vec<VertexId> = (0..7).map(|i| VertexId(n - 1 - i * (n / 8))).collect();
        let ch = ContractionHierarchy::build(&g, LandmarkMetric::Length, &ChConfig::default());
        let ch = ch.view();
        let mut search = M2mSearch::new(g.vertex_count());
        let table = ch.many_to_many(&mut search, &sources, &targets);
        for (i, &s) in sources.iter().enumerate() {
            for (j, &t) in targets.iter().enumerate() {
                let plain = if s == t {
                    0.0
                } else {
                    shortest_path(&g, s, t, CostModel::Length)
                        .map(|p| p.length_m(&g))
                        .unwrap_or(f64::INFINITY)
                };
                assert_eq!(
                    plain.to_bits(),
                    table.dist(i, j).to_bits(),
                    "{s:?}->{t:?} diverged"
                );
            }
        }
    }

    #[test]
    fn m2m_table_matches_pairwise_on_region() {
        let g = region_network(&RegionConfig::small_test(), 11);
        let n = g.vertex_count() as u32;
        let sources: Vec<VertexId> = (0..5).map(|i| VertexId(i * (n / 5))).collect();
        let targets: Vec<VertexId> = (0..5).map(|i| VertexId(n - 1 - i * (n / 7))).collect();
        table_vs_pairwise(&g, &sources, &targets);
    }

    #[test]
    fn m2m_scratch_reuse_is_clean_across_tables() {
        // A second table on the same scratch must not see the first
        // table's buckets or labels.
        let g = region_network(&RegionConfig::small_test(), 11);
        let ch = ContractionHierarchy::build(&g, LandmarkMetric::Length, &ChConfig::default());
        let ch = ch.view();
        let n = g.vertex_count() as u32;
        let mut reused = M2mSearch::new(g.vertex_count());
        let set_a: Vec<VertexId> = (0..4).map(|i| VertexId(i * (n / 4))).collect();
        let set_b: Vec<VertexId> = (0..3).map(|i| VertexId(n / 2 + i)).collect();
        ch.many_to_many(&mut reused, &set_a, &set_b);
        let second = ch.many_to_many(&mut reused, &set_b, &set_a);
        let mut fresh = M2mSearch::new(g.vertex_count());
        let expect = ch.many_to_many(&mut fresh, &set_b, &set_a);
        for i in 0..set_b.len() {
            for j in 0..set_a.len() {
                assert_eq!(
                    expect.dist(i, j).to_bits(),
                    second.dist(i, j).to_bits(),
                    "scratch state leaked between tables"
                );
            }
        }
    }

    #[test]
    fn m2m_streamed_sources_match_batched_table() {
        let g = region_network(&RegionConfig::small_test(), 11);
        let ch = ContractionHierarchy::build(&g, LandmarkMetric::Length, &ChConfig::default());
        let ch = ch.view();
        let n = g.vertex_count() as u32;
        let sources: Vec<VertexId> = (0..4).map(|i| VertexId(1 + i * (n / 5))).collect();
        let targets: Vec<VertexId> = (0..6).map(|i| VertexId(n - 2 - i * (n / 9))).collect();
        let mut s1 = M2mSearch::new(g.vertex_count());
        let table = ch.many_to_many(&mut s1, &sources, &targets);
        let mut s2 = M2mSearch::new(g.vertex_count());
        ch.prepare_targets(&mut s2, &targets);
        for (i, &s) in sources.iter().enumerate() {
            let row = ch.distances_from(&mut s2, s);
            assert_eq!(row.len(), targets.len());
            for (j, &d) in row.iter().enumerate() {
                assert_eq!(table.dist(i, j).to_bits(), d.to_bits());
            }
        }
    }

    #[test]
    fn m2m_streamed_row_matches_point_queries() {
        let g = region_network(&RegionConfig::small_test(), 7);
        let ch = ContractionHierarchy::build(&g, LandmarkMetric::Length, &ChConfig::default());
        let ch = ch.view();
        let n = g.vertex_count() as u32;
        let targets: Vec<VertexId> = (0..8).map(|i| VertexId(i * (n / 8))).collect();
        let mut m2m = M2mSearch::new(g.vertex_count());
        let mut p2p = ChSearch::new(g.vertex_count());
        let source = VertexId(n / 3);
        ch.prepare_targets(&mut m2m, &targets);
        let dists = ch.distances_from(&mut m2m, source);
        assert_eq!(dists.len(), targets.len());
        for (j, &t) in targets.iter().enumerate() {
            let expect = ch.query_cost(&mut p2p, source, t).unwrap_or(f64::INFINITY);
            assert!(
                (expect - dists[j]).abs() < 1e-9
                    || (expect.is_infinite() && dists[j].is_infinite()),
                "{source:?}->{t:?}: p2p {expect} vs streamed row {}",
                dists[j]
            );
        }
    }

    #[test]
    fn m2m_self_pairs_and_unreachable_pairs() {
        use crate::builder::GraphBuilder;
        use crate::geometry::Point;
        use crate::graph::{EdgeAttrs, RoadCategory};
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
        let ch = ch.view();
        let mut search = M2mSearch::new(g.vertex_count());
        let everyone = [a0, a1, c0, c1];
        let table = ch.many_to_many(&mut search, &everyone, &everyone);
        for (i, &s) in everyone.iter().enumerate() {
            for (j, &t) in everyone.iter().enumerate() {
                let d = table.dist(i, j);
                if s == t {
                    assert_eq!(d, 0.0, "diagonal must be zero");
                } else if (i < 2) == (j < 2) {
                    assert_eq!(d, 100.0, "within-component distance");
                } else {
                    assert!(d.is_infinite(), "cross-component must be INFINITY");
                }
            }
        }
    }

    #[test]
    fn m2m_dist_between_matches_positional_lookup() {
        let g = region_network(&RegionConfig::small_test(), 11);
        let ch = ContractionHierarchy::build(&g, LandmarkMetric::Length, &ChConfig::default());
        let ch = ch.view();
        let n = g.vertex_count() as u32;
        let sources: Vec<VertexId> = (0..4).map(|i| VertexId(i * (n / 4))).collect();
        let targets: Vec<VertexId> = (0..5).map(|i| VertexId(n - 1 - i * (n / 6))).collect();
        let mut search = M2mSearch::new(g.vertex_count());
        let table = ch.many_to_many(&mut search, &sources, &targets);
        for (i, &s) in sources.iter().enumerate() {
            for (j, &t) in targets.iter().enumerate() {
                assert_eq!(
                    table.dist(i, j).to_bits(),
                    table.dist_between(s, t).expect("pair in table").to_bits()
                );
            }
        }
        assert_eq!(table.dist_between(VertexId(n - 2), sources[0]), None);
    }

    #[test]
    fn m2m_empty_sets_yield_empty_tables() {
        let g = grid_network(&GridConfig::small_test(), 3);
        let ch = ContractionHierarchy::build(&g, LandmarkMetric::Length, &ChConfig::default());
        let ch = ch.view();
        let mut search = M2mSearch::new(g.vertex_count());
        let none: [VertexId; 0] = [];
        let some = [VertexId(0)];
        assert_eq!(ch.many_to_many(&mut search, &none, &some).shape(), (0, 1));
        let t = ch.many_to_many(&mut search, &some, &none);
        assert_eq!(t.shape(), (1, 0));
        assert!(t.row(0).is_empty());
        ch.prepare_targets(&mut search, &none);
        assert!(ch.distances_from(&mut search, VertexId(0)).is_empty());
    }
}

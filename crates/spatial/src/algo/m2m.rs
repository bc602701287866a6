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
//! 1. **Target phase** — one *backward* walk per target `t_j` up its
//!    elimination-tree ancestors deposits an entry `(j, d(v, t_j))` in a
//!    per-rank **bucket** at every ancestor `v` the walk reaches.
//! 2. **Source phase** — one *forward* walk per source `s_i` scans, at
//!    every ancestor `v` it reaches, the bucket left by phase 1 and
//!    improves `table[i][j]` with `d(s_i, v) + d(v, t_j)`.
//!
//! `T` backward walks plus `S` forward walks — each the size of a
//! *half* point-to-point query — replace `S × T` full queries. The meet
//! logic is exactly the one-to-one query's: the highest vertex of a
//! shortest path is a common ancestor of both ends, where the two walks'
//! labels are the exact up and down distances, and every other bucket
//! sum is the cost of a real path.
//!
//! Entries are **raw arc-weight sums** (`d_fwd + d_bucket`), exact up to
//! float association of shortcut weights — on integer-weight graphs they
//! are bit-identical to Dijkstra (locked in by `tests/m2m_exactness.rs`).
//!
//! Both phases are `HierarchyView::walk` — the point query's step —
//! run to the top on the forward side of a [`ChSearch`], whose target
//! buckets are epoch-stamped like its walk labels: a table invalidates
//! them in O(1), so steady-state tables perform **no per-call `O(V)`
//! work** — only the output. The buckets are allocated by the first
//! table, so a scratch that never batches never pays for them.
//! [`QueryEngine::many_to_many_rows`] hands each row over as its walk
//! finishes (a batching server replies per row);
//! [`HierarchyView::many_to_many`] and [`QueryEngine::many_to_many`]
//! collect the rows into a table.
//!
//! [`QueryEngine::many_to_many_rows`]: crate::algo::engine::QueryEngine::many_to_many_rows
//! [`QueryEngine::many_to_many`]: crate::algo::engine::QueryEngine::many_to_many

use crate::algo::ch::{ChSearch, HierarchyView};
use crate::algo::labels::Marks;
use crate::graph::VertexId;

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

/// One bucket entry: the target's column index and the backward walk's
/// distance from the bucket's vertex to that target.
#[derive(Debug, Clone, Copy)]
struct BucketEntry {
    col: u32,
    dist: f64,
}

/// Per-rank target buckets of one table, kept in a
/// [`ChSearch`] between tables: `lists[r]` is live iff `r` is in `live`,
/// so a new table invalidates every bucket in O(1). Empty until the
/// first table.
#[derive(Debug, Clone, Default)]
pub(crate) struct Buckets {
    live: Marks,
    /// Deposits of the current target phase, in ascending column order
    /// (targets are swept in order).
    lists: Vec<Vec<BucketEntry>>,
}

impl Buckets {
    /// Starts a table over `n` ranks, sizing the buckets on first use.
    fn open(&mut self, n: usize) {
        self.lists.resize(n, Vec::new());
        self.live.begin(n);
    }

    fn deposit(&mut self, r: VertexId, entry: BucketEntry) {
        let list = &mut self.lists[r.index()];
        if !self.live.insert(r.index()) {
            list.clear();
        }
        list.push(entry);
    }

    fn get(&self, r: VertexId) -> &[BucketEntry] {
        if self.live.contains(r.index()) {
            &self.lists[r.index()]
        } else {
            &[]
        }
    }
}

impl HierarchyView<'_> {
    /// The target phase: one backward walk per target, depositing
    /// `(column, distance)` at every rank it reaches.
    fn prepare_targets(&self, search: &mut ChSearch, targets: &[VertexId]) {
        let ChSearch { fwd, buckets, .. } = search;
        buckets.open(self.vertex_count());
        for (j, &t) in targets.iter().enumerate() {
            let col = j as u32;
            self.walk::<false>(fwd, t, |u, dist| {
                buckets.deposit(u, BucketEntry { col, dist });
                f64::INFINITY
            });
        }
    }

    /// One source phase: a forward walk from `source` that scans every
    /// reached rank's bucket into `row` (one entry per prepared target,
    /// `INFINITY` on entry). Once every target has an entry, the walk
    /// relaxes only labels below the largest one, as the point query
    /// relaxes only labels below its best meet: a bucket distance is
    /// non-negative, so a label at or past every entry improves none of
    /// them, and neither does anything reached through it. The table is
    /// the unpruned walk's, bit for bit.
    fn distances_from(&self, search: &mut ChSearch, source: VertexId, row: &mut [f64]) {
        let ChSearch { fwd, buckets, .. } = search;
        let mut unreached = row.len();
        let mut bound = f64::INFINITY;
        self.walk::<true>(fwd, source, |u, d| {
            for e in buckets.get(u) {
                let total = d + e.dist;
                let entry = &mut row[e.col as usize];
                if total < *entry {
                    // The largest entry fell, or the last target was
                    // reached: the bound is the largest entry again.
                    let was = std::mem::replace(entry, total);
                    if was == f64::INFINITY {
                        unreached -= 1;
                    }
                    if unreached == 0 && was == bound {
                        bound = row.iter().copied().fold(0.0, f64::max);
                    }
                }
            }
            bound
        });
    }

    /// The `sources × targets` table one row at a time: the target
    /// phase once, then one source phase per source, handing
    /// `emit(i, row)` the distances from `sources[i]` to every target as
    /// soon as its walk finishes (a server replies per row instead of
    /// waiting for the whole table).
    pub(crate) fn many_to_many_rows(
        &self,
        search: &mut ChSearch,
        sources: &[VertexId],
        targets: &[VertexId],
        mut emit: impl FnMut(usize, &[f64]),
    ) {
        self.prepare_targets(search, targets);
        let mut row = vec![f64::INFINITY; targets.len()];
        for (i, &s) in sources.iter().enumerate() {
            row.fill(f64::INFINITY);
            self.distances_from(search, s, &mut row);
            emit(i, &row);
        }
    }

    /// The full `sources × targets` [`DistanceTable`]: the rows of
    /// `HierarchyView::many_to_many_rows`, collected.
    ///
    /// `T` backward plus `S` forward walks replace `S × T`
    /// point-to-point queries — the asymptotic win behind the batched
    /// HMM transition blocks.
    pub fn many_to_many(
        &self,
        search: &mut ChSearch,
        sources: &[VertexId],
        targets: &[VertexId],
    ) -> DistanceTable {
        let mut dist = Vec::with_capacity(sources.len() * targets.len());
        self.many_to_many_rows(search, sources, targets, |_, row| {
            dist.extend_from_slice(row)
        });
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
    use crate::algo::ch::{ChConfig, ContractionHierarchy};
    use crate::algo::engine::QueryEngine;
    use crate::algo::landmarks::LandmarkMetric;
    use crate::generators::{grid_network, region_network, GridConfig, RegionConfig};
    use crate::graph::{CostModel, Graph};

    fn table_vs_pairwise(g: &Graph, sources: &[VertexId], targets: &[VertexId]) {
        let ch = ContractionHierarchy::build(g, LandmarkMetric::Length, &ChConfig::default());
        let ch = ch.view();
        let mut search = ChSearch::default();
        let table = ch.many_to_many(&mut search, sources, targets);
        assert_eq!(table.shape(), (sources.len(), targets.len()));
        for (i, &s) in sources.iter().enumerate() {
            for (j, &t) in targets.iter().enumerate() {
                let plain = QueryEngine::new(g)
                    .shortest_path(s, t, CostModel::Length)
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
        let mut search = ChSearch::default();
        let table = ch.many_to_many(&mut search, &sources, &targets);
        for (i, &s) in sources.iter().enumerate() {
            for (j, &t) in targets.iter().enumerate() {
                let plain = if s == t {
                    0.0
                } else {
                    QueryEngine::new(&g)
                        .shortest_path(s, t, CostModel::Length)
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
        let mut reused = ChSearch::default();
        let set_a: Vec<VertexId> = (0..4).map(|i| VertexId(i * (n / 4))).collect();
        let set_b: Vec<VertexId> = (0..3).map(|i| VertexId(n / 2 + i)).collect();
        ch.many_to_many(&mut reused, &set_a, &set_b);
        let second = ch.many_to_many(&mut reused, &set_b, &set_a);
        let mut fresh = ChSearch::default();
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
        let mut s1 = ChSearch::default();
        let table = ch.many_to_many(&mut s1, &sources, &targets);
        let mut s2 = ChSearch::default();
        let mut rows = 0;
        ch.many_to_many_rows(&mut s2, &sources, &targets, |i, row| {
            assert_eq!(i, rows, "rows come in source order");
            assert_eq!(row.len(), targets.len());
            for (j, &d) in row.iter().enumerate() {
                assert_eq!(table.dist(i, j).to_bits(), d.to_bits());
            }
            rows += 1;
        });
        assert_eq!(rows, sources.len());
    }

    #[test]
    fn m2m_streamed_row_matches_point_queries() {
        let g = region_network(&RegionConfig::small_test(), 7);
        let ch = ContractionHierarchy::build(&g, LandmarkMetric::Length, &ChConfig::default());
        let ch = ch.view();
        let n = g.vertex_count() as u32;
        let targets: Vec<VertexId> = (0..8).map(|i| VertexId(i * (n / 8))).collect();
        let mut m2m = ChSearch::default();
        let mut p2p = ChSearch::default();
        let source = VertexId(n / 3);
        let mut dists = Vec::new();
        ch.many_to_many_rows(&mut m2m, &[source], &targets, |_, row| {
            dists.extend_from_slice(row)
        });
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
        let mut search = ChSearch::default();
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
        let mut search = ChSearch::default();
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
        let mut search = ChSearch::default();
        let none: [VertexId; 0] = [];
        let some = [VertexId(0)];
        assert_eq!(ch.many_to_many(&mut search, &none, &some).shape(), (0, 1));
        let t = ch.many_to_many(&mut search, &some, &none);
        assert_eq!(t.shape(), (1, 0));
        assert!(t.row(0).is_empty());
        let mut rows = 0;
        ch.many_to_many_rows(&mut search, &some, &none, |_, row| {
            assert!(row.is_empty());
            rows += 1;
        });
        assert_eq!(rows, 1);
    }
}

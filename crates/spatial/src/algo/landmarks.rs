//! ALT preprocessing: landmark distance tables for goal-directed search.
//!
//! ALT (A*, Landmarks, Triangle inequality) precomputes, for a small set
//! of landmark vertices `L`, the full one-to-all distance vectors
//! `d(L, ·)` and `d(·, L)` under one cost metric. The triangle inequality
//! then yields an admissible *and consistent* lower bound on any
//! remaining distance:
//!
//! ```text
//! d(v, t) >= d(L, t) - d(L, v)      (go through v on the way from L)
//! d(v, t) >= d(v, L) - d(t, L)      (go through t on the way to L)
//! ```
//!
//! Maximised over landmarks, this bound is usually far tighter than the
//! straight-line heuristic on real road networks — it "knows about"
//! rivers, ring roads and one-way systems because it is made of true
//! network distances. The engine layer
//! ([`crate::algo::engine::QueryEngine::with_landmarks`]) takes the max
//! of the ALT bound and the cached
//! [`crate::algo::engine::safe_heuristic_bound`] Euclidean bound, so an
//! ALT-guided search is never less directed than the plain cached-A*
//! search it replaces.
//!
//! Two properties make the table safe to share and reuse:
//!
//! * **Exactness is metric-bound.** The vectors are true distances under
//!   *one* [`CostModel`] ([`LandmarkMetric::Length`] or
//!   [`LandmarkMetric::TravelTime`]); a query under any other model must
//!   not consult them. [`LandmarkMetric::matches`] is the gate the engine
//!   checks per query, falling back to its non-ALT heuristics.
//! * **Bans only shrink the graph.** Removing edges or vertices can only
//!   *increase* true distances, so a full-graph lower bound stays a lower
//!   bound under Yen's banned spur sets — ALT-guided spur searches remain
//!   exact (locked in by `tests/alt_exactness.rs`).
//!
//! Landmark selection is farthest-point sampling on network distance
//! (deterministic per seed), and the table rows are one-to-all Dijkstra
//! runs computed on per-worker [`QueryEngine`]s across `threads` OS
//! threads.

use std::sync::{mpsc, Mutex, PoisonError};

use pathrank_rng::rngs::StdRng;
use pathrank_rng::{Rng, SeedableRng};

use crate::algo::engine::QueryEngine;
use crate::graph::{CostModel, Graph, VertexId};

/// Number of landmarks actually consulted per query (the best few for the
/// query's geometry); bounds the per-relaxation cost of the ALT heuristic
/// while keeping most of its directedness.
pub const ACTIVE_LANDMARKS: usize = 4;

/// The cost metric a [`LandmarkTable`] was precomputed under.
///
/// Only graph-derived metrics can be tabulated: a
/// [`CostModel::Custom`] slice may change between queries, which would
/// silently break the triangle inequality against stale vectors.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LandmarkMetric {
    /// Distances in metres ([`CostModel::Length`]).
    Length,
    /// Free-flow travel times in seconds ([`CostModel::TravelTime`]).
    TravelTime,
}

impl LandmarkMetric {
    /// The corresponding cost model.
    pub fn cost_model(&self) -> CostModel<'static> {
        match self {
            LandmarkMetric::Length => CostModel::Length,
            LandmarkMetric::TravelTime => CostModel::TravelTime,
        }
    }

    /// Whether a query under `cost` may consult vectors built under
    /// `self`. `Custom` never matches — the engine must fall back.
    pub fn matches(&self, cost: &CostModel<'_>) -> bool {
        matches!(
            (self, cost),
            (LandmarkMetric::Length, CostModel::Length)
                | (LandmarkMetric::TravelTime, CostModel::TravelTime)
        )
    }
}

/// Parameters of landmark selection and table construction.
#[derive(Debug, Clone, Copy)]
pub struct LandmarkConfig {
    /// Number of landmarks (clamped to the vertex count).
    pub count: usize,
    /// Seed for the farthest-point sampling start vertex.
    pub seed: u64,
    /// Worker threads for the one-to-all sweeps.
    pub threads: usize,
}

impl Default for LandmarkConfig {
    fn default() -> Self {
        LandmarkConfig {
            count: 8,
            seed: 0xa17,
            threads: 4,
        }
    }
}

/// Precomputed forward/backward landmark distance vectors.
///
/// Build once per (graph, metric), wrap in an `Arc`, and hand a clone to
/// every worker's [`QueryEngine::with_landmarks`] — the table is
/// immutable and `Sync`, so sharing is free.
#[derive(Debug, Clone)]
pub struct LandmarkTable {
    metric: LandmarkMetric,
    /// Vertex count of the graph the table was built for.
    n: usize,
    /// Edge count of the graph the table was built for (an extra
    /// attach-time fingerprint against wrong-graph tables, whose stale
    /// "distances" would silently break admissibility).
    m: usize,
    landmarks: Vec<VertexId>,
    /// `d(L_l, v)` at `[l * n + v]` (one-to-all from each landmark).
    from_landmark: Vec<f64>,
    /// `d(v, L_l)` at `[l * n + v]` (reverse one-to-all into each landmark).
    to_landmark: Vec<f64>,
}

impl LandmarkTable {
    /// Selects landmarks by farthest-point sampling under `metric` and
    /// tabulates their forward and backward distance vectors.
    ///
    /// Selection is inherently sequential (each pick maximises the
    /// minimum network distance to the landmarks chosen so far) and
    /// produces the forward vectors as a by-product; each backward vector
    /// is handed to one of `cfg.threads` workers as soon as its landmark
    /// is chosen, so the reverse one-to-all Dijkstra runs (each worker on
    /// its own [`QueryEngine`]) overlap the selection. Every row is
    /// computed alone, so the result is bit-identical for any thread
    /// count (asserted by the unit tests).
    pub fn build(g: &Graph, metric: LandmarkMetric, cfg: &LandmarkConfig) -> Self {
        let n = g.vertex_count();
        let k = cfg.count.min(n);
        let cost = metric.cost_model();
        let mut landmarks: Vec<VertexId> = Vec::with_capacity(k);
        let mut from_landmark: Vec<f64> = Vec::with_capacity(k * n);
        let mut to_landmark = vec![f64::INFINITY; k * n];

        if k > 0 {
            let (jobs, queue) = mpsc::channel::<(VertexId, &mut [f64])>();
            let queue = Mutex::new(queue);
            let mut rows = to_landmark.chunks_mut(n);
            std::thread::scope(|scope| {
                for _ in 0..cfg.threads.clamp(1, k) {
                    let queue = &queue;
                    scope.spawn(move || {
                        let mut engine = QueryEngine::new(g);
                        let next = || queue.lock().unwrap_or_else(PoisonError::into_inner).recv();
                        while let Ok((l, row)) = next() {
                            let view = engine.one_to_all_rev(l, cost);
                            for (v, slot) in row.iter_mut().enumerate() {
                                *slot = view.dist(VertexId(v as u32));
                            }
                        }
                    });
                }
                let mut rng = StdRng::seed_from_u64(cfg.seed);
                let mut engine = QueryEngine::new(g);
                // Coverage[v] = min over chosen landmarks of d(L, v); the
                // next landmark is the worst-covered vertex. Unreached
                // (infinite) vertices win outright, which plants a
                // landmark in every weakly separated component; ties
                // break on the lowest id so the selection is
                // deterministic.
                let mut coverage = vec![f64::INFINITY; n];
                let mut next = VertexId(rng.gen_range(0..n as u32));
                loop {
                    landmarks.push(next);
                    let row = rows.next().expect("one row per landmark");
                    jobs.send((next, row))
                        .expect("the workers outlive the selection");
                    let view = engine.one_to_all(next, cost);
                    for (v, slot) in coverage.iter_mut().enumerate() {
                        let d = view.dist(VertexId(v as u32));
                        from_landmark.push(d);
                        if d < *slot {
                            *slot = d;
                        }
                    }
                    if landmarks.len() >= k {
                        break;
                    }
                    let mut best: Option<(f64, u32)> = None;
                    for (v, &c) in coverage.iter().enumerate() {
                        if landmarks.iter().any(|l| l.index() == v) {
                            continue;
                        }
                        if best.is_none_or(|(bc, _)| c > bc) {
                            best = Some((c, v as u32));
                        }
                    }
                    match best {
                        Some((_, v)) => next = VertexId(v),
                        None => break, // k > n cannot happen; defensive
                    }
                }
                // Closing the queue lets the workers finish and return.
                drop(jobs);
            });
        }
        to_landmark.truncate(landmarks.len() * n);

        LandmarkTable {
            metric,
            n,
            m: g.edge_count(),
            landmarks,
            from_landmark,
            to_landmark,
        }
    }

    /// The metric the vectors were computed under.
    pub fn metric(&self) -> LandmarkMetric {
        self.metric
    }

    /// Vertex count of the graph the table was built for.
    pub fn vertex_count(&self) -> usize {
        self.n
    }

    /// Edge count of the graph the table was built for.
    pub fn edge_count(&self) -> usize {
        self.m
    }

    /// The selected landmark vertices, in selection order.
    pub fn landmarks(&self) -> &[VertexId] {
        &self.landmarks
    }

    /// Number of landmarks.
    pub fn k(&self) -> usize {
        self.landmarks.len()
    }

    /// `d(L_l, v)` — true distance from landmark `l` to `v`
    /// (`INFINITY` when unreachable).
    #[inline]
    pub fn from_landmark(&self, l: usize, v: VertexId) -> f64 {
        self.from_landmark[l * self.n + v.index()]
    }

    /// `d(v, L_l)` — true distance from `v` to landmark `l`.
    #[inline]
    pub fn to_landmark(&self, l: usize, v: VertexId) -> f64 {
        self.to_landmark[l * self.n + v.index()]
    }

    /// Whether queries under `cost` may use this table.
    pub fn usable_for(&self, cost: &CostModel<'_>) -> bool {
        self.k() > 0 && self.metric.matches(cost)
    }

    /// Fills `cache` with this table's distance vectors for `node`
    /// (no-op when already cached — the per-query target caching that
    /// makes Yen's hundreds of same-target spur searches pay for the
    /// gather exactly once).
    pub fn prepare(&self, cache: &mut NodeVectors, node: VertexId) {
        if cache.node == Some(node) {
            return;
        }
        cache.from_l.clear();
        cache.to_l.clear();
        for l in 0..self.k() {
            cache.from_l.push(self.from_landmark(l, node));
            cache.to_l.push(self.to_landmark(l, node));
        }
        cache.node = Some(node);
        cache.active.clear();
    }

    /// Restricts `cache` to the [`ACTIVE_LANDMARKS`] landmarks giving the
    /// tightest bound on `d(probe, node)` for the cached node. Call after
    /// [`LandmarkTable::prepare`]; cheap enough to rerun per query.
    pub fn select_active(&self, cache: &mut NodeVectors, probe: VertexId) {
        cache.active.clear();
        if self.k() <= ACTIVE_LANDMARKS {
            cache.active.extend(0..self.k() as u32);
            return;
        }
        // Keep the top ACTIVE_LANDMARKS by single-landmark bound at the
        // probe endpoint: insertion into a fixed best list whose spare last
        // slot takes whatever falls off (ties keep the lower landmark index
        // for determinism). On the stack — this runs once per spur search.
        let mut best = [(0.0f64, 0u32); ACTIVE_LANDMARKS + 1];
        let mut len = 0;
        for l in 0..self.k() {
            let b = self.bound_one(cache, l, probe);
            let mut pos = len;
            while pos > 0 && best[pos - 1].0 < b {
                best[pos] = best[pos - 1];
                pos -= 1;
            }
            best[pos] = (b, l as u32);
            len = (len + 1).min(ACTIVE_LANDMARKS);
        }
        cache.active.extend(best[..len].iter().map(|&(_, l)| l));
        cache.active.sort_unstable();
    }

    /// Single-landmark triangle bound on `d(v, node)`. Infinite vector
    /// entries are guarded so no `inf - inf` NaN can escape; an infinite
    /// *result* is legitimate (it proves the node unreachable from `v`).
    #[inline]
    fn bound_one(&self, cache: &NodeVectors, l: usize, v: VertexId) -> f64 {
        let mut b = 0.0f64;
        let from_lv = self.from_landmark(l, v);
        // d(v, node) >= d(L, node) - d(L, v)  and  >= d(v, L) - d(node, L)
        if from_lv.is_finite() {
            b = b.max(cache.from_l[l] - from_lv);
        }
        if cache.to_l[l].is_finite() {
            b = b.max(self.to_landmark(l, v) - cache.to_l[l]);
        }
        b
    }

    /// Lower bound on `d(v, node)` for the cached node, maximised over
    /// the cache's active landmarks.
    #[inline]
    pub fn bound_to_node(&self, cache: &NodeVectors, v: VertexId) -> f64 {
        let mut b = 0.0f64;
        for &l in &cache.active {
            b = b.max(self.bound_one(cache, l as usize, v));
        }
        b
    }
}

/// Per-endpoint landmark distance vectors, owned by the engine and
/// refilled only when the query endpoint changes (see
/// [`LandmarkTable::prepare`]).
#[derive(Debug, Clone, Default)]
pub struct NodeVectors {
    node: Option<VertexId>,
    /// `d(L_l, node)` per landmark.
    from_l: Vec<f64>,
    /// `d(node, L_l)` per landmark.
    to_l: Vec<f64>,
    /// Landmark indices consulted by the bound evaluators.
    active: Vec<u32>,
}

impl NodeVectors {
    /// An empty cache (filled on first [`LandmarkTable::prepare`]).
    pub fn new() -> Self {
        Self::default()
    }

    /// The endpoint the vectors currently describe.
    pub fn node(&self) -> Option<VertexId> {
        self.node
    }

    /// Drops the cached endpoint (e.g. after swapping tables).
    pub fn invalidate(&mut self) {
        self.node = None;
        self.active.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;
    use crate::generators::{grid_network, region_network, GridConfig, RegionConfig};
    use crate::geometry::Point;
    use crate::graph::{EdgeAttrs, RoadCategory};

    fn region() -> Graph {
        region_network(&RegionConfig::small_test(), 11)
    }

    #[test]
    fn alt_selection_is_deterministic_per_seed() {
        let g = region();
        let cfg = LandmarkConfig {
            count: 6,
            seed: 42,
            threads: 2,
        };
        let a = LandmarkTable::build(&g, LandmarkMetric::Length, &cfg);
        let b = LandmarkTable::build(&g, LandmarkMetric::Length, &cfg);
        assert_eq!(a.landmarks(), b.landmarks(), "same seed, same landmarks");
        assert_eq!(a.from_landmark, b.from_landmark);
        assert_eq!(a.to_landmark, b.to_landmark);
        // Landmarks are distinct vertices.
        let mut ids: Vec<u32> = a.landmarks().iter().map(|l| l.0).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), a.k());
    }

    #[test]
    fn alt_parallel_build_matches_sequential_bitwise() {
        let g = region();
        let seq = LandmarkTable::build(
            &g,
            LandmarkMetric::TravelTime,
            &LandmarkConfig {
                count: 5,
                seed: 7,
                threads: 1,
            },
        );
        let par = LandmarkTable::build(
            &g,
            LandmarkMetric::TravelTime,
            &LandmarkConfig {
                count: 5,
                seed: 7,
                threads: 4,
            },
        );
        assert_eq!(seq.landmarks(), par.landmarks());
        assert_eq!(seq.from_landmark, par.from_landmark);
        assert_eq!(seq.to_landmark, par.to_landmark);
    }

    #[test]
    fn alt_active_selection_matches_sorted_reference() {
        // The reference: all landmarks, stably sorted by descending bound
        // (ties keep the lower index), first ACTIVE_LANDMARKS, by index.
        let g = region();
        let table = LandmarkTable::build(&g, LandmarkMetric::Length, &LandmarkConfig::default());
        assert!(table.k() > ACTIVE_LANDMARKS);
        let mut cache = NodeVectors::new();
        for t in g.vertices().step_by(7) {
            table.prepare(&mut cache, t);
            for v in g.vertices() {
                let mut all: Vec<(f64, u32)> = (0..table.k())
                    .map(|l| (table.bound_one(&cache, l, v), l as u32))
                    .collect();
                all.sort_by(|a, b| b.0.total_cmp(&a.0));
                let mut expect: Vec<u32> =
                    all[..ACTIVE_LANDMARKS].iter().map(|&(_, l)| l).collect();
                expect.sort_unstable();
                table.select_active(&mut cache, v);
                assert_eq!(cache.active, expect, "{v:?} -> {t:?}");
            }
        }
    }

    #[test]
    fn alt_triangle_inequality_admissibility() {
        // On a bidirectional grid the ISSUE's symmetric form
        // |d(L,t) - d(L,v)| <= d(v,t) must hold; on any graph the
        // directed bound must never exceed the true distance.
        let g = grid_network(&GridConfig::small_test(), 3);
        let table = LandmarkTable::build(&g, LandmarkMetric::Length, &LandmarkConfig::default());
        let n = g.vertex_count() as u32;
        let mut cache = NodeVectors::new();
        let mut engine = QueryEngine::new(&g);
        for t in (0..n).step_by(7) {
            let t = VertexId(t);
            let tree = engine.one_to_all(t, CostModel::Length);
            // tree is rooted at t; on a bidirectional grid d(v,t) = d(t,v).
            table.prepare(&mut cache, t);
            for v in (0..n).step_by(3) {
                let v = VertexId(v);
                let true_d = tree.dist(v);
                for l in 0..table.k() {
                    let lhs = (table.from_landmark(l, t) - table.from_landmark(l, v)).abs();
                    assert!(
                        lhs <= true_d + 1e-9,
                        "|d(L,t)-d(L,v)| = {lhs} > d(v,t) = {true_d}"
                    );
                }
                table.select_active(&mut cache, v);
                let bound = table.bound_to_node(&cache, v);
                assert!(!bound.is_nan());
                assert!(
                    bound <= true_d + 1e-9,
                    "ALT bound {bound} exceeds true distance {true_d}"
                );
            }
        }
    }

    #[test]
    fn alt_directed_bounds_stay_admissible_on_region() {
        let g = region();
        let table = LandmarkTable::build(&g, LandmarkMetric::Length, &LandmarkConfig::default());
        let n = g.vertex_count() as u32;
        let mut engine = QueryEngine::new(&g);
        let mut cache = NodeVectors::new();
        for t in [0u32, n / 3, n - 1] {
            let t = VertexId(t);
            table.prepare(&mut cache, t);
            let dists: Vec<f64> = {
                let view = engine.one_to_all_rev(t, CostModel::Length);
                (0..n).map(|v| view.dist(VertexId(v))).collect()
            };
            for v in (0..n).step_by(11) {
                let v = VertexId(v);
                table.select_active(&mut cache, v);
                let bound = table.bound_to_node(&cache, v);
                let true_d = dists[v.index()];
                assert!(!bound.is_nan());
                assert!(
                    bound <= true_d + 1e-9,
                    "d({v:?}->{t:?}): bound {bound} > true {true_d}"
                );
            }
        }
    }

    #[test]
    fn alt_bounds_guard_disconnected_components() {
        // Two components: bounds must never produce NaN, and an infinite
        // bound is only claimed where the target truly is unreachable.
        let mut b = GraphBuilder::new();
        let a0 = b.add_vertex(Point::new(0.0, 0.0));
        let a1 = b.add_vertex(Point::new(100.0, 0.0));
        let c0 = b.add_vertex(Point::new(0.0, 9000.0));
        let c1 = b.add_vertex(Point::new(100.0, 9000.0));
        let attrs = || EdgeAttrs::with_default_speed(100.0, RoadCategory::Residential);
        b.add_bidirectional(a0, a1, attrs()).unwrap();
        b.add_bidirectional(c0, c1, attrs()).unwrap();
        let g = b.build();
        let table = LandmarkTable::build(
            &g,
            LandmarkMetric::Length,
            &LandmarkConfig {
                count: 3,
                seed: 1,
                threads: 2,
            },
        );
        let mut cache = NodeVectors::new();
        table.prepare(&mut cache, c1);
        for v in g.vertices() {
            table.select_active(&mut cache, v);
            let bound = table.bound_to_node(&cache, v);
            assert!(!bound.is_nan(), "NaN bound at {v:?}");
            if bound.is_infinite() {
                assert!(
                    v == a0 || v == a1,
                    "infinite bound claimed for a connected vertex {v:?}"
                );
            }
        }
    }

    #[test]
    fn alt_metric_gate() {
        let g = region();
        let table = LandmarkTable::build(&g, LandmarkMetric::Length, &LandmarkConfig::default());
        assert!(table.usable_for(&CostModel::Length));
        assert!(!table.usable_for(&CostModel::TravelTime));
        let custom = vec![1.0; g.edge_count()];
        assert!(!table.usable_for(&CostModel::Custom(&custom)));
        assert_eq!(table.metric(), LandmarkMetric::Length);
        assert_eq!(
            LandmarkMetric::TravelTime
                .cost_model()
                .edge_cost(&g, crate::graph::EdgeId(0)),
            CostModel::TravelTime.edge_cost(&g, crate::graph::EdgeId(0))
        );
    }

    #[test]
    fn alt_count_clamps_to_vertex_count() {
        let mut b = GraphBuilder::new();
        let v0 = b.add_vertex(Point::new(0.0, 0.0));
        let v1 = b.add_vertex(Point::new(50.0, 0.0));
        b.add_bidirectional(
            v0,
            v1,
            EdgeAttrs::with_default_speed(50.0, RoadCategory::Residential),
        )
        .unwrap();
        let g = b.build();
        let table = LandmarkTable::build(&g, LandmarkMetric::Length, &LandmarkConfig::default());
        assert_eq!(table.k(), 2);
        assert_eq!(table.vertex_count(), 2);
    }
}

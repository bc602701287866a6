//! Plain Dijkstra one-to-one, unconstrained and under banned vertex/edge
//! sets — the reference oracles the exactness harnesses hold every
//! backend to.
//!
//! Each call allocates a transient [`QueryEngine`] for a single search.
//! Query-heavy code (top-k, map matching, candidate generation) holds a
//! [`QueryEngine`] instead and reuses its search labels across queries —
//! that is where the `O(V)` per-query setup cost actually matters; its
//! [`QueryEngine::one_to_all`] is the one-to-all shape.

use crate::algo::engine::QueryEngine;
use crate::graph::{CostModel, Graph, VertexId};
use crate::path::Path;
use crate::util::BitSet;

/// Cheapest path from `source` to `target` under `cost`, or `None` if
/// unreachable or `source == target`.
///
/// One-shot convenience over [`QueryEngine::shortest_path`].
pub fn shortest_path(
    g: &Graph,
    source: VertexId,
    target: VertexId,
    cost: CostModel<'_>,
) -> Option<Path> {
    QueryEngine::new(g).shortest_path(source, target, cost)
}

/// Cheapest `source -> target` path avoiding banned vertices and edges.
///
/// `banned_vertices` must not contain `source` or `target` for a path to
/// exist. This is the spur-path shape of [`super::yen`], as a one-shot
/// plain-Dijkstra search. [`QueryEngine::constrained_shortest_path`]
/// additionally directs the search with a cached A* bound (worth it only
/// when the engine is reused — the bound costs an `O(E)` scan) and may
/// therefore tie-break equal-cost optima differently.
pub fn constrained_shortest_path(
    g: &Graph,
    source: VertexId,
    target: VertexId,
    cost: CostModel<'_>,
    banned_vertices: &BitSet,
    banned_edges: &BitSet,
) -> Option<Path> {
    QueryEngine::new(g).constrained_shortest_path_dijkstra(
        source,
        target,
        cost,
        banned_vertices,
        banned_edges,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;
    use crate::geometry::Point;
    use crate::graph::{EdgeAttrs, RoadCategory};

    /// Classic 5-vertex test graph with a known shortest path structure.
    ///
    /// ```text
    ///      (1)--1--(2)
    ///      / \       \
    ///     4   2       3
    ///    /     \       \
    ///  (0)--8--(3)--1--(4)
    /// ```
    fn weighted() -> Graph {
        let mut b = GraphBuilder::new();
        let v: Vec<_> = (0..5)
            .map(|i| b.add_vertex(Point::new(i as f64, 0.0)))
            .collect();
        let mut add = |f: usize, t: usize, w: f64| {
            b.add_bidirectional(
                v[f],
                v[t],
                EdgeAttrs::with_default_speed(w, RoadCategory::Residential),
            )
            .unwrap();
        };
        add(0, 1, 4.0);
        add(1, 2, 1.0);
        add(1, 3, 2.0);
        add(0, 3, 8.0);
        add(3, 4, 1.0);
        add(2, 4, 3.0);
        b.build()
    }

    #[test]
    fn one_to_one_matches_hand_result() {
        let g = weighted();
        let p = shortest_path(&g, VertexId(0), VertexId(4), CostModel::Length).unwrap();
        // 0 -> 1 -> 3 -> 4 with cost 4 + 2 + 1 = 7 beats 0 -> 3 -> 4 = 9.
        assert_eq!(
            p.vertices(),
            &[VertexId(0), VertexId(1), VertexId(3), VertexId(4)]
        );
        assert!((p.length_m(&g) - 7.0).abs() < 1e-12);
        p.validate(&g).unwrap();
    }

    #[test]
    fn tree_distances_are_consistent() {
        let g = weighted();
        let mut engine = QueryEngine::new(&g);
        let tree = engine.one_to_all(VertexId(0), CostModel::Length);
        let expect = [0.0, 4.0, 5.0, 6.0, 7.0];
        for (i, &d) in expect.iter().enumerate() {
            let got = tree.dist(VertexId(i as u32));
            assert!((got - d).abs() < 1e-12, "dist[{i}] = {got} != {d}");
        }
        // Every tree path's cost equals the recorded distance.
        for v in (1..5u32).map(VertexId) {
            let p = tree.path_to(v).unwrap();
            assert!((p.length_m(&g) - tree.dist(v)).abs() < 1e-12);
        }
    }

    #[test]
    fn source_equals_target_is_none() {
        let g = weighted();
        assert!(shortest_path(&g, VertexId(2), VertexId(2), CostModel::Length).is_none());
    }

    #[test]
    fn unreachable_target() {
        let mut b = GraphBuilder::new();
        let v0 = b.add_vertex(Point::new(0.0, 0.0));
        let v1 = b.add_vertex(Point::new(1.0, 0.0));
        let v2 = b.add_vertex(Point::new(2.0, 0.0));
        b.add_edge(
            v0,
            v1,
            EdgeAttrs::with_default_speed(1.0, RoadCategory::Rural),
        )
        .unwrap();
        let g = b.build();
        assert!(shortest_path(&g, v0, v2, CostModel::Length).is_none());
        let mut engine = QueryEngine::new(&g);
        let tree = engine.one_to_all(v0, CostModel::Length);
        assert!(!tree.reached(v2));
        assert!(tree.path_to(v2).is_none());
    }

    #[test]
    fn banned_vertex_forces_detour() {
        let g = weighted();
        let mut bv = BitSet::new(g.vertex_count());
        let be = BitSet::new(g.edge_count());
        bv.insert(1); // ban vertex 1, killing 0-1-3-4
        let p =
            constrained_shortest_path(&g, VertexId(0), VertexId(4), CostModel::Length, &bv, &be)
                .unwrap();
        assert_eq!(p.vertices(), &[VertexId(0), VertexId(3), VertexId(4)]);
        assert!((p.length_m(&g) - 9.0).abs() < 1e-12);
    }

    #[test]
    fn banned_edge_forces_detour() {
        let g = weighted();
        let bv = BitSet::new(g.vertex_count());
        let mut be = BitSet::new(g.edge_count());
        // Ban the directed edge 1 -> 3 (find its id).
        let e13 = g.find_edge(VertexId(1), VertexId(3)).unwrap();
        be.insert(e13.0);
        let p =
            constrained_shortest_path(&g, VertexId(0), VertexId(4), CostModel::Length, &bv, &be)
                .unwrap();
        // Best remaining: 0-1-2-4 = 4+1+3 = 8 vs 0-3-4 = 9.
        assert!((p.length_m(&g) - 8.0).abs() < 1e-12);
        assert_eq!(
            p.vertices(),
            &[VertexId(0), VertexId(1), VertexId(2), VertexId(4)]
        );
    }

    #[test]
    fn banned_source_or_target_returns_none() {
        let g = weighted();
        let mut bv = BitSet::new(g.vertex_count());
        let be = BitSet::new(g.edge_count());
        bv.insert(0);
        assert!(constrained_shortest_path(
            &g,
            VertexId(0),
            VertexId(4),
            CostModel::Length,
            &bv,
            &be
        )
        .is_none());
    }

    #[test]
    fn travel_time_model_prefers_fast_roads() {
        // Two routes of equal length, one on a highway: fastest differs
        // from shortest.
        let mut b = GraphBuilder::new();
        let v0 = b.add_vertex(Point::new(0.0, 0.0));
        let v1 = b.add_vertex(Point::new(500.0, 500.0));
        let v2 = b.add_vertex(Point::new(500.0, -500.0));
        let v3 = b.add_vertex(Point::new(1000.0, 0.0));
        b.add_edge(
            v0,
            v1,
            EdgeAttrs::with_default_speed(1000.0, RoadCategory::Residential),
        )
        .unwrap();
        b.add_edge(
            v1,
            v3,
            EdgeAttrs::with_default_speed(1000.0, RoadCategory::Residential),
        )
        .unwrap();
        b.add_edge(
            v0,
            v2,
            EdgeAttrs::with_default_speed(1100.0, RoadCategory::Highway),
        )
        .unwrap();
        b.add_edge(
            v2,
            v3,
            EdgeAttrs::with_default_speed(1100.0, RoadCategory::Highway),
        )
        .unwrap();
        let g = b.build();
        let short = shortest_path(&g, v0, v3, CostModel::Length).unwrap();
        let fast = shortest_path(&g, v0, v3, CostModel::TravelTime).unwrap();
        assert_eq!(short.vertices()[1], v1);
        assert_eq!(fast.vertices()[1], v2);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::builder::GraphBuilder;
    use crate::geometry::Point;
    use crate::graph::{EdgeAttrs, EdgeId, RoadCategory};
    use pathrank_testkit::prelude::*;

    /// Bellman–Ford oracle for distances (slow but obviously correct).
    fn bellman_ford(g: &Graph, s: VertexId) -> Vec<f64> {
        let n = g.vertex_count();
        let mut dist = vec![f64::INFINITY; n];
        dist[s.index()] = 0.0;
        for _ in 0..n {
            let mut changed = false;
            for e in 0..g.edge_count() {
                let rec = g.edge(EdgeId(e as u32));
                let w = rec.attrs.length_m;
                if dist[rec.from.index()] + w < dist[rec.to.index()] {
                    dist[rec.to.index()] = dist[rec.from.index()] + w;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        dist
    }

    /// Random connected-ish digraph: a Hamiltonian cycle (guaranteeing
    /// strong connectivity) plus random extra edges.
    fn random_graph(n: usize, extra: Vec<(usize, usize, u32)>) -> Graph {
        let mut b = GraphBuilder::new();
        let vs: Vec<_> = (0..n)
            .map(|i| b.add_vertex(Point::new(i as f64, (i * i % 7) as f64)))
            .collect();
        for i in 0..n {
            b.add_edge(
                vs[i],
                vs[(i + 1) % n],
                EdgeAttrs::with_default_speed(10.0 + i as f64, RoadCategory::Rural),
            )
            .unwrap();
        }
        for (f, t, w) in extra {
            let (f, t) = (f % n, t % n);
            if f != t {
                let _ = b.add_edge(
                    vs[f],
                    vs[t],
                    EdgeAttrs::with_default_speed(1.0 + (w % 100) as f64, RoadCategory::Rural),
                );
            }
        }
        b.build()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn dijkstra_matches_bellman_ford(
            n in 2usize..24,
            extra in pathrank_testkit::collection::vec((0usize..24, 0usize..24, 0u32..1000), 0..40),
            s in 0usize..24,
        ) {
            let g = random_graph(n, extra);
            let s = VertexId((s % n) as u32);
            let mut engine = QueryEngine::new(&g);
            let tree = engine.one_to_all(s, CostModel::Length);
            let oracle = bellman_ford(&g, s);
            for (v, &bf) in g.vertices().zip(oracle.iter()) {
                let dj = tree.dist(v);
                if bf.is_finite() {
                    prop_assert!((dj - bf).abs() < 1e-9,
                        "dist[{:?}]: dijkstra {} vs bf {}", v, dj, bf);
                } else {
                    prop_assert!(!dj.is_finite());
                }
            }
        }

        #[test]
        fn tree_paths_cost_equals_distance(
            n in 2usize..20,
            extra in pathrank_testkit::collection::vec((0usize..20, 0usize..20, 0u32..1000), 0..30),
        ) {
            let g = random_graph(n, extra);
            let s = VertexId(0);
            let mut engine = QueryEngine::new(&g);
            let tree = engine.one_to_all(s, CostModel::Length);
            for v in g.vertices().skip(1) {
                if let Some(p) = tree.path_to(v) {
                    p.validate(&g).unwrap();
                    prop_assert!(p.is_simple(), "shortest paths are simple");
                    prop_assert!((p.length_m(&g) - tree.dist(v)).abs() < 1e-9);
                }
            }
        }
    }
}

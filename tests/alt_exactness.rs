//! Property-test harness locking in ALT exactness.
//!
//! A landmark heuristic is only an optimisation if it can never change an
//! answer. These properties drive ALT-guided engines against the plain
//! (heuristic-free) free functions on random generator graphs and require
//! **bit-identical costs** — not approximate equality. Edge weights are
//! small integers, so every equal-cost path sums to exactly the same
//! `f64` and float tie-break noise cannot mask a real divergence; vertex
//! coordinates are drawn independently of the weights, so the Euclidean
//! floor inside the ALT heuristic is deliberately mis-scaled and the
//! landmark bounds do the work (including proving targets unreachable
//! through infinite bounds).
//!
//! Covered regimes, per the issue:
//! * one-to-one ALT-guided A* and the cost probe vs plain Dijkstra;
//! * full Yen enumerations (every spur search ALT-guided) vs plain Yen;
//! * constrained searches under random banned vertex/edge sets (bans only
//!   shrink the graph, so full-graph lower bounds must stay admissible);
//! * `CostModel::Custom` slices, where the precomputed metric is invalid
//!   and the engine must *fall back* — asserted both by `uses_alt` and by
//!   bitwise path equality with the plain engine.

use std::sync::Arc;

use pathrank::spatial::algo::dijkstra::{constrained_shortest_path, shortest_path};
use pathrank::spatial::algo::engine::QueryEngine;
use pathrank::spatial::algo::landmarks::{LandmarkConfig, LandmarkMetric, LandmarkTable};
use pathrank::spatial::builder::GraphBuilder;
use pathrank::spatial::geometry::Point;
use pathrank::spatial::graph::{CostModel, EdgeAttrs, Graph, RoadCategory, VertexId};
use pathrank::spatial::util::BitSet;
use proptest::prelude::*;

/// Builds a random directed graph from proptest-drawn raw material:
/// `n` vertices with the given coordinates and deduplicated directed
/// edges with integer-metre lengths.
fn build_graph(n: usize, coords: &[(f64, f64)], edges: &[(usize, usize, u32)]) -> Graph {
    let mut b = GraphBuilder::new();
    let vs: Vec<VertexId> = (0..n)
        .map(|i| b.add_vertex(Point::new(coords[i].0, coords[i].1)))
        .collect();
    let mut seen = std::collections::HashSet::new();
    for &(f, t, w) in edges {
        let (f, t) = (f % n, t % n);
        if f != t && seen.insert((f, t)) {
            b.add_edge(
                vs[f],
                vs[t],
                EdgeAttrs::with_default_speed(w as f64, RoadCategory::Rural),
            )
            .unwrap();
        }
    }
    b.build()
}

fn alt_engine(g: &Graph) -> (Arc<LandmarkTable>, QueryEngine<'_>) {
    let table = Arc::new(LandmarkTable::build(
        g,
        LandmarkMetric::Length,
        &LandmarkConfig {
            count: 3,
            seed: 0xa17,
            threads: 2,
        },
    ));
    let engine = QueryEngine::new(g).with_landmarks(Arc::clone(&table));
    (table, engine)
}

/// Exact cost of an optional path under a cost model (`None` ⇒ NaN-free
/// sentinel), so reachability and cost compare in one assert.
fn cost_of(g: &Graph, p: &Option<pathrank::spatial::path::Path>, cost: CostModel<'_>) -> f64 {
    p.as_ref().map_or(-1.0, |p| p.cost(g, cost))
}

/// Strategy fragments shared by every property: vertex count, one
/// coordinate and one edge tuple.
const MAX_N: usize = 10;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn alt_one_to_one_costs_bit_identical_to_dijkstra(
        n in 2usize..MAX_N,
        coords in proptest::collection::vec((0.0f64..5000.0, 0.0f64..5000.0), MAX_N..MAX_N + 1),
        edges in proptest::collection::vec((0usize..MAX_N, 0usize..MAX_N, 1u32..60), 1..30),
    ) {
        let g = build_graph(n, &coords, &edges);
        let (_table, mut engine) = alt_engine(&g);
        for s in 0..n {
            for t in 0..n {
                let (s, t) = (VertexId(s as u32), VertexId(t as u32));
                if s == t {
                    continue;
                }
                let plain = shortest_path(&g, s, t, CostModel::Length);
                let astar = engine.shortest_path(s, t, CostModel::Length);
                prop_assert_eq!(
                    cost_of(&g, &plain, CostModel::Length),
                    cost_of(&g, &astar, CostModel::Length),
                    "A* diverged on {:?}->{:?}", s, t
                );
                // The cost probe (map matching's transition model) too.
                let probe = engine.shortest_path_cost(s, t, CostModel::Length);
                prop_assert_eq!(
                    plain.as_ref().map(|p| p.cost(&g, CostModel::Length)),
                    probe,
                    "cost probe diverged on {:?}->{:?}", s, t
                );
            }
        }
    }

    #[test]
    fn alt_yen_cost_sequences_bit_identical(
        n in 2usize..MAX_N,
        coords in proptest::collection::vec((0.0f64..5000.0, 0.0f64..5000.0), MAX_N..MAX_N + 1),
        edges in proptest::collection::vec((0usize..MAX_N, 0usize..MAX_N, 1u32..60), 1..26),
        k in 1usize..12,
    ) {
        let g = build_graph(n, &coords, &edges);
        let (_table, mut engine) = alt_engine(&g);
        let s = VertexId(0);
        let t = VertexId((n - 1) as u32);
        let plain: Vec<f64> = QueryEngine::new(&g).yen_k_shortest(s, t, CostModel::Length, k)
            .into_iter()
            .map(|(_, c)| c)
            .collect();
        let alt: Vec<f64> = engine
            .yen_k_shortest(s, t, CostModel::Length, k)
            .into_iter()
            .map(|(_, c)| c)
            .collect();
        prop_assert_eq!(plain, alt, "Yen cost sequence diverged");
    }

    #[test]
    fn alt_constrained_searches_respect_bans_and_match_dijkstra(
        n in 2usize..MAX_N,
        coords in proptest::collection::vec((0.0f64..5000.0, 0.0f64..5000.0), MAX_N..MAX_N + 1),
        edges in proptest::collection::vec((0usize..MAX_N, 0usize..MAX_N, 1u32..60), 1..30),
        banned_v in proptest::collection::vec(0usize..MAX_N, 0..4),
        banned_e in proptest::collection::vec(0usize..64, 0..8),
    ) {
        let g = build_graph(n, &coords, &edges);
        let (_table, mut engine) = alt_engine(&g);
        let mut bv = BitSet::new(g.vertex_count());
        for v in banned_v {
            bv.insert((v % n) as u32);
        }
        let mut be = BitSet::new(g.edge_count());
        for e in banned_e {
            if g.edge_count() > 0 {
                be.insert((e % g.edge_count()) as u32);
            }
        }
        for s in 0..n {
            for t in 0..n {
                let (s, t) = (VertexId(s as u32), VertexId(t as u32));
                let plain = constrained_shortest_path(&g, s, t, CostModel::Length, &bv, &be);
                let alt = engine.constrained_shortest_path(s, t, CostModel::Length, &bv, &be, f64::INFINITY);
                prop_assert_eq!(
                    cost_of(&g, &plain, CostModel::Length),
                    cost_of(&g, &alt, CostModel::Length),
                    "constrained search diverged on {:?}->{:?}", s, t
                );
                if let Some(p) = &alt {
                    for v in p.vertices() {
                        prop_assert!(!bv.contains(v.0), "banned vertex on path");
                    }
                    for e in p.edges() {
                        prop_assert!(!be.contains(e.0), "banned edge on path");
                    }
                }
            }
        }
    }

    #[test]
    fn alt_custom_cost_slices_engage_fallback(
        n in 2usize..MAX_N,
        coords in proptest::collection::vec((0.0f64..5000.0, 0.0f64..5000.0), MAX_N..MAX_N + 1),
        edges in proptest::collection::vec((0usize..MAX_N, 0usize..MAX_N, 1u32..60), 1..30),
        salt in 1u32..40,
    ) {
        let g = build_graph(n, &coords, &edges);
        let (_table, mut engine) = alt_engine(&g);
        let custom: Vec<f64> = (0..g.edge_count())
            .map(|i| 1.0 + ((i as u32 * salt) % 17) as f64)
            .collect();
        let cost = CostModel::Custom(&custom);
        // The precomputed length metric must not be consulted...
        prop_assert!(!engine.uses_alt(cost));
        prop_assert!(engine.uses_alt(CostModel::Length));
        for s in 0..n {
            for t in 0..n {
                let (s, t) = (VertexId(s as u32), VertexId(t as u32));
                if s == t {
                    continue;
                }
                // ...and the fallback is plain Dijkstra: identical paths,
                // not merely identical costs.
                let plain = shortest_path(&g, s, t, cost);
                let fell_back = engine.shortest_path(s, t, cost);
                match (&plain, &fell_back) {
                    (Some(a), Some(b)) => {
                        prop_assert_eq!(a.vertices(), b.vertices());
                        prop_assert_eq!(a.edges(), b.edges());
                    }
                    (None, None) => {}
                    _ => prop_assert!(false, "reachability diverged on {:?}->{:?}", s, t),
                }
            }
        }
    }

    #[test]
    fn alt_interleaved_metrics_never_leak_between_queries(
        n in 3usize..MAX_N,
        coords in proptest::collection::vec((0.0f64..5000.0, 0.0f64..5000.0), MAX_N..MAX_N + 1),
        edges in proptest::collection::vec((0usize..MAX_N, 0usize..MAX_N, 1u32..60), 2..30),
    ) {
        // Alternating ALT-covered (Length) and fallback (TravelTime /
        // Custom) queries on one engine must each match their plain
        // counterpart — the cached target vectors and active-landmark
        // sets must never bleed into a query they are invalid for.
        let g = build_graph(n, &coords, &edges);
        let (_table, mut engine) = alt_engine(&g);
        let custom: Vec<f64> = (0..g.edge_count()).map(|i| 2.0 + (i % 5) as f64).collect();
        for s in 0..n.min(4) {
            for t in 0..n {
                let (s, t) = (VertexId(s as u32), VertexId(t as u32));
                if s == t {
                    continue;
                }
                for cost in [CostModel::Length, CostModel::TravelTime, CostModel::Custom(&custom)] {
                    let plain = shortest_path(&g, s, t, cost);
                    let mixed = engine.shortest_path(s, t, cost);
                    prop_assert_eq!(
                        cost_of(&g, &plain, cost),
                        cost_of(&g, &mixed, cost),
                        "interleaved {:?}->{:?} diverged", s, t
                    );
                }
            }
        }
    }
}

/// Deterministic companion: disconnected components exercise the
/// infinite-bound branch (`d(L, t)` finite, `d(L, v)` infinite proves
/// unreachability) without NaN poisoning or wrong `None`s.
#[test]
fn alt_disconnected_components_stay_exact() {
    let mut b = GraphBuilder::new();
    let a0 = b.add_vertex(Point::new(0.0, 0.0));
    let a1 = b.add_vertex(Point::new(120.0, 0.0));
    let a2 = b.add_vertex(Point::new(240.0, 0.0));
    let c0 = b.add_vertex(Point::new(0.0, 7000.0));
    let c1 = b.add_vertex(Point::new(120.0, 7000.0));
    let attrs = |w: f64| EdgeAttrs::with_default_speed(w, RoadCategory::Rural);
    b.add_bidirectional(a0, a1, attrs(120.0)).unwrap();
    b.add_bidirectional(a1, a2, attrs(120.0)).unwrap();
    b.add_bidirectional(c0, c1, attrs(120.0)).unwrap();
    let g = b.build();
    let (_table, mut engine) = alt_engine(&g);
    // Within a component: exact.
    let p = engine.shortest_path(a0, a2, CostModel::Length).unwrap();
    assert_eq!(p.cost(&g, CostModel::Length), 240.0);
    // Across components: unreachable in every guided mode.
    assert!(engine.shortest_path(a0, c1, CostModel::Length).is_none());
    assert!(engine.shortest_path(c0, a2, CostModel::Length).is_none());
    assert!(engine
        .shortest_path_cost(a2, c0, CostModel::Length)
        .is_none());
    assert!(engine
        .yen_k_shortest(a0, c0, CostModel::Length, 3)
        .is_empty());
}

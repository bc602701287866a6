//! Reuse-correctness suite for the generation-stamped query engine.
//!
//! The classic failure mode of reusable search state is the *stale
//! generation* bug: a slot written by query N is read by query N+k because
//! the reset was skipped or the stamp check is wrong. These tests hammer a
//! single [`QueryEngine`] with interleaved queries that maximise the
//! chance of such leakage — alternating cost models, sources, banned
//! vertex/edge sets and algorithms — and require **bit-identical** output
//! (vertex/edge id sequences and `f64` distances compared with `==`)
//! versus fresh-allocation runs.
//!
//! The graph's weight columns are reusable state of the same kind, one
//! level down: a column entry that disagrees with its edge record is
//! served by every search. The property at the end holds the columns of
//! random built graphs to their edge records, and column searches to
//! searches over the same weights passed as a `Custom` vector.

use std::sync::Arc;

use pathrank::obs::Registry;
use pathrank::spatial::algo::cch::{CchConfig, CchTopology};
use pathrank::spatial::algo::ch::{ChConfig, ContractionHierarchy};
use pathrank::spatial::algo::engine::{EngineObs, QueryEngine, TreeView};
use pathrank::spatial::algo::landmarks::LandmarkMetric;
use pathrank::spatial::builder::GraphBuilder;
use pathrank::spatial::generators::{grid_network, region_network, GridConfig, RegionConfig};
use pathrank::spatial::geometry::Point;
use pathrank::spatial::graph::{CostModel, EdgeAttrs, EdgeId, Graph, RoadCategory, VertexId};
use pathrank::spatial::path::Path;
use pathrank::spatial::util::BitSet;
use pathrank_rng::rngs::StdRng;
use pathrank_rng::{Rng, SeedableRng};
use pathrank_testkit::prelude::*;

fn assert_same_path(fresh: Option<Path>, reused: Option<Path>, ctx: &str) {
    match (fresh, reused) {
        (Some(a), Some(b)) => {
            assert_eq!(
                a.vertices(),
                b.vertices(),
                "vertex sequence diverged: {ctx}"
            );
            assert_eq!(a.edges(), b.edges(), "edge sequence diverged: {ctx}");
        }
        (None, None) => {}
        (a, b) => panic!("reachability diverged ({ctx}): fresh {a:?} vs reused {b:?}"),
    }
}

/// Every vertex's `(dist bits, parent_of)` on a one-to-all view.
fn tree_bits(g: &Graph, view: TreeView<'_>) -> Vec<(u64, Option<(VertexId, EdgeId)>)> {
    g.vertices()
        .map(|v| (view.dist(v).to_bits(), view.parent_of(v)))
        .collect()
}

/// Deterministic per-iteration cost perturbation so interleaved custom
/// models differ from each other (a stale dist from model A is nearly
/// always wrong under model B).
fn custom_costs(g: &Graph, salt: u64) -> Vec<f64> {
    (0..g.edge_count())
        .map(|i| 1.0 + ((i as u64).wrapping_mul(2654435761).wrapping_add(salt * 97) % 1000) as f64)
        .collect()
}

#[test]
fn interleaved_queries_match_fresh_bit_for_bit() {
    let g = region_network(&RegionConfig::small_test(), 42);
    let n = g.vertex_count() as u32;
    let mut engine = QueryEngine::new(&g);
    let mut rng = StdRng::seed_from_u64(7);

    for round in 0..60u64 {
        let s = VertexId(rng.gen_range(0..n));
        let t = VertexId(rng.gen_range(0..n));
        let costs = custom_costs(&g, round);
        // Rotate through cost models so consecutive queries on the same
        // engine never share one.
        match round % 3 {
            0 => {
                let fresh = QueryEngine::new(&g).shortest_path(s, t, CostModel::Length);
                let reused = engine.shortest_path(s, t, CostModel::Length);
                assert_same_path(fresh, reused, &format!("round {round} Length {s:?}->{t:?}"));
            }
            1 => {
                let fresh = QueryEngine::new(&g).shortest_path(s, t, CostModel::TravelTime);
                let reused = engine.shortest_path(s, t, CostModel::TravelTime);
                assert_same_path(
                    fresh,
                    reused,
                    &format!("round {round} TravelTime {s:?}->{t:?}"),
                );
            }
            _ => {
                let fresh = QueryEngine::new(&g).shortest_path(s, t, CostModel::Custom(&costs));
                let reused = engine.shortest_path(s, t, CostModel::Custom(&costs));
                assert_same_path(fresh, reused, &format!("round {round} Custom {s:?}->{t:?}"));
            }
        }
    }
}

#[test]
fn interleaved_banned_sets_match_fresh() {
    // Alternate banned vertex/edge sets (including empty ones) across a
    // reused engine: a leaked ban or a leaked distance both change paths.
    let g = grid_network(&GridConfig::small_test(), 13);
    let n = g.vertex_count() as u32;
    let mut engine = QueryEngine::new(&g);
    let mut rng = StdRng::seed_from_u64(99);

    for round in 0..40u64 {
        let s = VertexId(rng.gen_range(0..n));
        let t = VertexId(rng.gen_range(0..n));
        let mut bv = BitSet::new(g.vertex_count());
        let mut be = BitSet::new(g.edge_count());
        if round % 2 == 0 {
            for _ in 0..rng.gen_range(1..5usize) {
                bv.insert(rng.gen_range(0..n));
            }
            for _ in 0..rng.gen_range(1..7usize) {
                be.insert(rng.gen_range(0..g.edge_count() as u32));
            }
        }
        // Bit-identity is asserted fresh-engine vs reused-engine (same
        // algorithm). Plain Dijkstra may tie-break differently, so it is
        // held to cost equality; it runs on the length column passed as a
        // `Custom` vector, which no heuristic guides on an engine without
        // landmarks.
        let fresh = QueryEngine::new(&g).constrained_shortest_path(
            s,
            t,
            CostModel::Length,
            &bv,
            &be,
            f64::INFINITY,
        );
        let reused =
            engine.constrained_shortest_path(s, t, CostModel::Length, &bv, &be, f64::INFINITY);
        let free = QueryEngine::new(&g).constrained_shortest_path(
            s,
            t,
            CostModel::Custom(CostModel::Length.weights(&g)),
            &bv,
            &be,
            f64::INFINITY,
        );
        match (&free, &reused) {
            (Some(a), Some(b)) => assert!(
                (a.length_m(&g) - b.length_m(&g)).abs() < 1e-9,
                "round {round}: free Dijkstra vs engine cost mismatch"
            ),
            (None, None) => {}
            (a, b) => panic!("round {round}: reachability diverged: {a:?} vs {b:?}"),
        }
        assert_same_path(
            fresh,
            reused,
            &format!("round {round} constrained {s:?}->{t:?}"),
        );

        // Interleave an unconstrained query so ban-free state follows
        // ban-heavy state on the same space.
        let fresh = QueryEngine::new(&g).shortest_path(t, s, CostModel::Length);
        let reused = engine.shortest_path(t, s, CostModel::Length);
        assert_same_path(
            fresh,
            reused,
            &format!("round {round} unconstrained {t:?}->{s:?}"),
        );
    }
}

#[test]
fn interleaved_algorithms_share_one_engine() {
    // Reverse sweeps (the backward side's only Dijkstra user), constrained
    // spur searches, point-to-point queries and forward sweeps run
    // back-to-back on one engine; each must equal its fresh counterpart
    // bit for bit — every vertex's distance and parent, every path. The
    // second engine carries a Length CH and a TravelTime CCH, so its
    // point queries are hierarchy sweeps on the same two sides, and
    // many-to-many tables run on its forward side between the rest.
    let g = region_network(&RegionConfig::small_test(), 8);
    let n = g.vertex_count() as u32;
    let ch = Arc::new(ContractionHierarchy::build(
        &g,
        LandmarkMetric::Length,
        &ChConfig::default(),
    ));
    let topo = Arc::new(CchTopology::build(&g, &CchConfig::default()));
    let cch = Arc::new(topo.customize(&g, &CostModel::TravelTime));
    let new_engine = |indexed: bool| {
        let engine = QueryEngine::new(&g);
        if indexed {
            engine.with_ch(Arc::clone(&ch)).with_cch(Arc::clone(&cch))
        } else {
            engine
        }
    };
    let table_bits = |engine: &mut QueryEngine<'_>, ends: &[VertexId], cost| {
        let table = engine.many_to_many(ends, &ends[1..], cost);
        let table = table.expect("the CH and the CCH cover both metrics");
        (0..ends.len())
            .flat_map(|i| table.row(i).iter().map(|d| d.to_bits()).collect::<Vec<_>>())
            .collect::<Vec<_>>()
    };

    for with_tables in [false, true] {
        let fresh_engine = || new_engine(with_tables);
        let mut engine = fresh_engine();
        let hierarchies = [
            engine.uses_ch(CostModel::Length),
            engine.uses_cch(CostModel::TravelTime),
        ];
        assert_eq!(hierarchies, [with_tables; 2]);
        let mut rng = StdRng::seed_from_u64(1234);
        for round in 0..25u64 {
            let s = VertexId(rng.gen_range(0..n));
            let t = VertexId(rng.gen_range(0..n));
            let mut bv = BitSet::new(g.vertex_count());
            let mut be = BitSet::new(g.edge_count());
            bv.insert(rng.gen_range(0..n));
            be.insert(rng.gen_range(0..g.edge_count() as u32));
            let ends: Vec<VertexId> = (0..4).map(|_| VertexId(rng.gen_range(0..n))).collect();
            let ctx = |what: &str| format!("round {round}, tables {with_tables}: {what}");
            for cost in [CostModel::Length, CostModel::TravelTime] {
                let fresh = tree_bits(&g, fresh_engine().one_to_all_rev(t, cost));
                let reused = tree_bits(&g, engine.one_to_all_rev(t, cost));
                assert_eq!(fresh, reused, "{}", ctx("reverse sweep"));

                if with_tables {
                    let fresh = table_bits(&mut fresh_engine(), &ends, cost);
                    let reused = table_bits(&mut engine, &ends, cost);
                    assert_eq!(fresh, reused, "{}", ctx("m2m table"));
                }

                let fresh =
                    fresh_engine().constrained_shortest_path(s, t, cost, &bv, &be, f64::INFINITY);
                let reused = engine.constrained_shortest_path(s, t, cost, &bv, &be, f64::INFINITY);
                assert_same_path(fresh, reused, &ctx("spur"));

                let fresh = fresh_engine().shortest_path(t, s, cost);
                let reused = engine.shortest_path(t, s, cost);
                assert_same_path(fresh, reused, &ctx("p2p"));
                let fresh = fresh_engine().shortest_path_cost(s, t, cost);
                let reused = engine.shortest_path_cost(s, t, cost);
                assert_eq!(
                    fresh.map(f64::to_bits),
                    reused.map(f64::to_bits),
                    "{}",
                    ctx("cost")
                );
            }
            let fresh = tree_bits(&g, fresh_engine().one_to_all(s, CostModel::Length));
            let reused = tree_bits(&g, engine.one_to_all(s, CostModel::Length));
            assert_eq!(fresh, reused, "{}", ctx("forward sweep"));
        }
    }
}

#[test]
fn yen_on_engine_is_deterministic_and_matches_fresh() {
    // Mirrors tests/determinism.rs for the engine path: repeated engine
    // runs must be identical to each other *and* to the fresh-allocation
    // enumeration, including after unrelated queries poisoned the space.
    let g = region_network(&RegionConfig::small_test(), 3);
    let n = g.vertex_count() as u32;
    let pairs = [(0, n - 1), (3, n / 2), (n / 4, n - 2)];

    for &(a, b) in &pairs {
        let (s, t) = (VertexId(a), VertexId(b));
        let fresh = QueryEngine::new(&g).yen_k_shortest(s, t, CostModel::Length, 8);

        let mut engine = QueryEngine::new(&g);
        let first = engine.yen_k_shortest(s, t, CostModel::Length, 8);

        // Poison the search space with unrelated interleaved queries...
        engine.shortest_path(t, s, CostModel::TravelTime);
        engine.one_to_all(VertexId(0), CostModel::Length);
        let costs = custom_costs(&g, 5);
        engine.shortest_path(s, t, CostModel::Custom(&costs));

        // ...then the same top-k must come out again, bit-identical.
        let second = engine.yen_k_shortest(s, t, CostModel::Length, 8);

        assert_eq!(fresh.len(), first.len());
        assert_eq!(first.len(), second.len());
        for ((fp, fc), ((p1, c1), (p2, c2))) in fresh.iter().zip(first.iter().zip(second.iter())) {
            assert_eq!(fp.vertices(), p1.vertices(), "fresh vs engine run 1");
            assert_eq!(p1.vertices(), p2.vertices(), "engine run 1 vs run 2");
            assert!(
                fc == c1 && c1 == c2,
                "costs must be bit-identical: {fc} {c1} {c2}"
            );
        }
    }
}

#[test]
fn tree_views_reflect_only_the_latest_query() {
    // Run a broad query, then a narrow early-exit query: the view of the
    // narrow query must not resurrect reachability from the broad one.
    let g = grid_network(&GridConfig::small_test(), 4);
    let mut engine = QueryEngine::new(&g);

    let broad: Vec<f64> = {
        let view = engine.one_to_all(VertexId(0), CostModel::Length);
        g.vertices().map(|v| view.dist(v)).collect()
    };
    assert!(broad.iter().all(|d| d.is_finite()), "grid is connected");

    // Early-exit one-to-one towards an adjacent vertex settles only a tiny
    // neighbourhood; far corners stay unreached *in this epoch*.
    engine
        .shortest_path(VertexId(0), VertexId(1), CostModel::Length)
        .unwrap();
    let full = engine.one_to_all(VertexId(0), CostModel::Length);
    // A full tree query afterwards must again reach everything with the
    // same distances as the first broad query.
    for (v, &expect) in g.vertices().zip(broad.iter()) {
        assert!(
            full.dist(v) == expect,
            "{v:?}: {} vs {expect}",
            full.dist(v)
        );
    }
}

const MAX_N: usize = 10;

/// `(settled, pushed)` totals a registry collected from its engine.
fn search_work(registry: &Registry) -> (u64, u64) {
    let snap = registry.snapshot();
    (
        snap.counter_total("pathrank_engine_settled_nodes_total", &[]),
        snap.counter_total("pathrank_engine_heap_pushes_total", &[]),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// On any built graph both weight columns equal the edge records bit
    /// for bit, and a search over a column is the search over the same
    /// weights passed as a `Custom` vector: same distances, parents,
    /// paths, settled and pushed counts, under both metrics. The edge
    /// list is not deduplicated, so parallel edges occur (self-loops
    /// cannot: `GraphBuilder::add_edge` rejects them). Speed kinds: 0
    /// keeps the category default, 1 and 2 fall outside the clamp band,
    /// the rest are drawn.
    #[test]
    fn engine_columns_never_go_stale(
        n in 2usize..MAX_N,
        coords in pathrank_testkit::collection::vec((0.0f64..5000.0, 0.0f64..5000.0), MAX_N..MAX_N + 1),
        edges in pathrank_testkit::collection::vec(
            (0usize..MAX_N, 0usize..MAX_N, 1u32..60, 0u8..6, 0.2f64..250.0),
            1..40,
        ),
    ) {
        let mut b = GraphBuilder::new();
        let vs: Vec<VertexId> = coords[..n]
            .iter()
            .map(|&(x, y)| b.add_vertex(Point::new(x, y)))
            .collect();
        for &(f, t, w, kind, speed) in &edges {
            let (f, t) = (f % n, t % n);
            if f != t {
                let mut attrs = EdgeAttrs::with_default_speed(w as f64, RoadCategory::ALL[w as usize % 4]);
                attrs.speed_kmh = match kind {
                    0 => attrs.speed_kmh,
                    1 => 1e-308,
                    2 => 1e9,
                    _ => speed,
                };
                b.add_edge(vs[f], vs[t], attrs).unwrap();
            }
        }
        let g = b.build();
        prop_assume!(g.edge_count() > 0);

        let bits = |column: &[f64]| column.iter().map(|w| w.to_bits()).collect::<Vec<_>>();
        let lengths: Vec<f64> = g.edges().map(|e| e.attrs.length_m).collect();
        let times: Vec<f64> = g.edges().map(|e| e.attrs.travel_time_s()).collect();
        prop_assert!(times.iter().all(|t| t.is_finite()), "the clamp keeps travel times finite");
        prop_assert_eq!(bits(CostModel::Length.weights(&g)), bits(&lengths));
        prop_assert_eq!(bits(CostModel::TravelTime.weights(&g)), bits(&times));

        for (metric, weights) in [(CostModel::Length, &lengths), (CostModel::TravelTime, &times)] {
            let (by_column, by_vector) = (Registry::new(), Registry::new());
            let mut column = QueryEngine::new(&g).with_obs(EngineObs::new(&by_column));
            let mut vector = QueryEngine::new(&g).with_obs(EngineObs::new(&by_vector));
            for s in g.vertices() {
                let tree = |engine: &mut QueryEngine<'_>, cost| {
                    let view = engine.one_to_all(s, cost);
                    g.vertices()
                        .map(|v| (view.dist(v).to_bits(), view.parent_of(v)))
                        .collect::<Vec<_>>()
                };
                prop_assert_eq!(
                    tree(&mut column, metric),
                    tree(&mut vector, CostModel::Custom(weights)),
                    "tree from {:?} diverged under {:?}", s, metric
                );
                for t in g.vertices() {
                    prop_assert_eq!(
                        column.shortest_path(s, t, metric),
                        vector.shortest_path(s, t, CostModel::Custom(weights)),
                        "{:?}->{:?} diverged under {:?}", s, t, metric
                    );
                }
            }
            prop_assert_eq!(search_work(&by_column), search_work(&by_vector));
            prop_assert!(search_work(&by_column).0 > 0, "registries must be live");
        }
    }
}

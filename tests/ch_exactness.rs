//! Property-test harness locking in contraction-hierarchy exactness.
//!
//! A CH is only an optimisation if it can never change an answer. These
//! properties drive CH-backed engines against the plain (index-free)
//! free functions on random generator graphs and require **bit-identical
//! costs** — not approximate equality. Edge weights are small integers,
//! so every equal-cost path sums to exactly the same `f64` and float
//! tie-break noise cannot mask a real divergence; the engine recomputes
//! CH costs left-to-right over the unpacked original edges, the same
//! fold order as Dijkstra's relaxation chain.
//!
//! Covered regimes, per the issue:
//! * one-to-one `shortest_path` and the cost probe vs plain Dijkstra;
//! * full Yen enumerations on a CH+ALT engine (the unconstrained initial
//!   path runs on the CH, every spur search falls back) vs plain Yen;
//! * constrained searches under random banned vertex/edge sets — the CH
//!   must **never** be consulted there (a banned edge may hide inside a
//!   shortcut), asserted via `constrained_backend_for` and by bitwise
//!   equality with the plain constrained search;
//! * `CostModel::Custom` slices and interleaved metrics, where the
//!   precomputed metric is invalid and the engine must fall back —
//!   asserted both by `backend_for` and by bitwise path equality;
//! * disconnected components (unreachable stays unreachable);
//! * shortcut unpacking returning valid contiguous `EdgeId` paths.

use std::sync::Arc;

use pathrank::spatial::algo::cch::{CchConfig, CchTopology};
use pathrank::spatial::algo::ch::{ChConfig, ContractionHierarchy};
use pathrank::spatial::algo::dijkstra::{constrained_shortest_path, shortest_path};
use pathrank::spatial::algo::engine::{QueryEngine, SearchBackend};
use pathrank::spatial::algo::landmarks::{LandmarkConfig, LandmarkMetric, LandmarkTable};
use pathrank::spatial::builder::GraphBuilder;
use pathrank::spatial::geometry::Point;
use pathrank::spatial::graph::{CostModel, EdgeAttrs, Graph, RoadCategory, VertexId};
use pathrank::spatial::util::BitSet;
use pathrank_testkit::prelude::*;

mod common;
use common::{build_graph, cost_of, rural};

/// A CH-backed engine (length metric) over `g`, with a small witness cap
/// so redundant-shortcut paths get exercised too.
fn ch_engine(g: &Graph) -> (Arc<ContractionHierarchy>, QueryEngine<'_>) {
    let ch = Arc::new(ContractionHierarchy::build(
        g,
        LandmarkMetric::Length,
        &ChConfig {
            threads: 2,
            witness_settle_cap: 8,
        },
    ));
    let engine = QueryEngine::new(g).with_ch(Arc::clone(&ch));
    (ch, engine)
}

const MAX_N: usize = 10;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn ch_one_to_one_costs_bit_identical_to_dijkstra(
        n in 2usize..MAX_N,
        coords in pathrank_testkit::collection::vec((0.0f64..5000.0, 0.0f64..5000.0), MAX_N..MAX_N + 1),
        edges in pathrank_testkit::collection::vec((0usize..MAX_N, 0usize..MAX_N, 1u32..60), 1..30),
    ) {
        let g = build_graph(n, &coords, &edges, false, rural);
        let (_ch, mut engine) = ch_engine(&g);
        prop_assert_eq!(engine.backend_for(CostModel::Length), SearchBackend::Ch);
        for s in 0..n {
            for t in 0..n {
                let (s, t) = (VertexId(s as u32), VertexId(t as u32));
                if s == t {
                    continue;
                }
                let plain = shortest_path(&g, s, t, CostModel::Length);
                let ch_path = engine.shortest_path(s, t, CostModel::Length);
                if let Some(p) = &ch_path {
                    p.validate(&g).expect("CH paths must be graph-valid");
                    prop_assert_eq!(p.source(), s);
                    prop_assert_eq!(p.target(), t);
                }
                prop_assert_eq!(
                    cost_of(&g, &plain, CostModel::Length),
                    cost_of(&g, &ch_path, CostModel::Length),
                    "CH diverged on {:?}->{:?}", s, t
                );
                // The cost probe (map matching's transition model) too.
                let probe = engine.shortest_path_cost(s, t, CostModel::Length);
                prop_assert_eq!(
                    plain.as_ref().map(|p| p.cost(&g, CostModel::Length)),
                    probe,
                    "CH cost probe diverged on {:?}->{:?}", s, t
                );
            }
        }
    }

    #[test]
    fn ch_yen_cost_sequences_bit_identical(
        n in 2usize..MAX_N,
        coords in pathrank_testkit::collection::vec((0.0f64..5000.0, 0.0f64..5000.0), MAX_N..MAX_N + 1),
        edges in pathrank_testkit::collection::vec((0usize..MAX_N, 0usize..MAX_N, 1u32..60), 1..26),
        k in 1usize..12,
    ) {
        // CH + ALT together — the serving configuration: Yen's initial
        // path runs on the CH, its spur searches on ALT.
        let g = build_graph(n, &coords, &edges, false, rural);
        let table = Arc::new(LandmarkTable::build(
            &g,
            LandmarkMetric::Length,
            &LandmarkConfig { count: 3, seed: 0xa17, threads: 2 },
        ));
        let (_ch, engine) = ch_engine(&g);
        let mut engine = engine.with_landmarks(table);
        let s = VertexId(0);
        let t = VertexId((n - 1) as u32);
        let plain: Vec<f64> = QueryEngine::new(&g).yen_k_shortest(s, t, CostModel::Length, k)
            .into_iter()
            .map(|(_, c)| c)
            .collect();
        let fast: Vec<f64> = engine
            .yen_k_shortest(s, t, CostModel::Length, k)
            .into_iter()
            .map(|(_, c)| c)
            .collect();
        prop_assert_eq!(plain, fast, "Yen cost sequence diverged");
    }

    #[test]
    fn ch_constrained_searches_fall_back_and_respect_bans(
        n in 2usize..MAX_N,
        coords in pathrank_testkit::collection::vec((0.0f64..5000.0, 0.0f64..5000.0), MAX_N..MAX_N + 1),
        edges in pathrank_testkit::collection::vec((0usize..MAX_N, 0usize..MAX_N, 1u32..60), 1..30),
        banned_v in pathrank_testkit::collection::vec(0usize..MAX_N, 0..4),
        banned_e in pathrank_testkit::collection::vec(0usize..64, 0..8),
    ) {
        let g = build_graph(n, &coords, &edges, false, rural);
        let (_ch, mut engine) = ch_engine(&g);
        // The CH is attached and would cover the metric — but bans make
        // shortcuts unsound, so the constrained dispatch must avoid it.
        prop_assert_eq!(engine.backend_for(CostModel::Length), SearchBackend::Ch);
        prop_assert_eq!(
            engine.constrained_backend_for(CostModel::Length),
            SearchBackend::Plain
        );
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
                let fast = engine.constrained_shortest_path(s, t, CostModel::Length, &bv, &be, f64::INFINITY);
                prop_assert_eq!(
                    cost_of(&g, &plain, CostModel::Length),
                    cost_of(&g, &fast, CostModel::Length),
                    "constrained search diverged on {:?}->{:?}", s, t
                );
                if let Some(p) = &fast {
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
    fn ch_custom_cost_slices_engage_fallback(
        n in 2usize..MAX_N,
        coords in pathrank_testkit::collection::vec((0.0f64..5000.0, 0.0f64..5000.0), MAX_N..MAX_N + 1),
        edges in pathrank_testkit::collection::vec((0usize..MAX_N, 0usize..MAX_N, 1u32..60), 1..30),
        salt in 1u32..40,
    ) {
        let g = build_graph(n, &coords, &edges, false, rural);
        let (_ch, mut engine) = ch_engine(&g);
        let custom: Vec<f64> = (0..g.edge_count())
            .map(|i| 1.0 + ((i as u32 * salt) % 17) as f64)
            .collect();
        let cost = CostModel::Custom(&custom);
        // The precomputed metric must not be consulted...
        prop_assert_eq!(engine.backend_for(cost), SearchBackend::Plain);
        prop_assert!(!engine.uses_ch(cost));
        prop_assert!(!engine.uses_ch(CostModel::TravelTime));
        prop_assert!(engine.uses_ch(CostModel::Length));
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
    fn ch_interleaved_metrics_never_leak_between_queries(
        n in 3usize..MAX_N,
        coords in pathrank_testkit::collection::vec((0.0f64..5000.0, 0.0f64..5000.0), MAX_N..MAX_N + 1),
        edges in pathrank_testkit::collection::vec((0usize..MAX_N, 0usize..MAX_N, 1u32..60), 2..30),
    ) {
        // Alternating CH-covered (Length) and fallback (TravelTime /
        // Custom) queries on one engine must each match their plain
        // counterpart — the CH scratch state must never bleed into a
        // query it is invalid for.
        let g = build_graph(n, &coords, &edges, false, rural);
        let (_ch, mut engine) = ch_engine(&g);
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

    #[test]
    fn ch_unpacked_paths_are_contiguous_edge_sequences(
        n in 2usize..MAX_N,
        coords in pathrank_testkit::collection::vec((0.0f64..5000.0, 0.0f64..5000.0), MAX_N..MAX_N + 1),
        edges in pathrank_testkit::collection::vec((0usize..MAX_N, 0usize..MAX_N, 1u32..60), 1..30),
    ) {
        // Every returned path must be a contiguous chain of real EdgeIds
        // whose summed lengths equal the reported distance — shortcut
        // unpacking cannot drop, duplicate or reorder edges.
        let g = build_graph(n, &coords, &edges, false, rural);
        let (_ch, mut engine) = ch_engine(&g);
        for s in 0..n {
            for t in 0..n {
                let (s, t) = (VertexId(s as u32), VertexId(t as u32));
                if s == t {
                    continue;
                }
                let Some(p) = engine.shortest_path(s, t, CostModel::Length) else {
                    continue;
                };
                p.validate(&g).expect("unpacked path must validate");
                let mut cur = s;
                for &e in p.edges() {
                    let rec = g.edge(e);
                    prop_assert_eq!(rec.from, cur, "edges must chain contiguously");
                    cur = rec.to;
                }
                prop_assert_eq!(cur, t);
                let cost = engine
                    .shortest_path_cost(s, t, CostModel::Length)
                    .expect("path exists, cost probe must agree");
                prop_assert_eq!(p.length_m(&g), cost, "path length != probed cost");
            }
        }
    }
}

/// Deterministic companion: disconnected components must stay
/// unreachable through the CH in every entry point.
#[test]
fn ch_disconnected_components_stay_exact() {
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
    let (_ch, mut engine) = ch_engine(&g);
    // Within a component: exact.
    let p = engine.shortest_path(a0, a2, CostModel::Length).unwrap();
    assert_eq!(p.cost(&g, CostModel::Length), 240.0);
    // Across components: unreachable in every CH-dispatched entry point.
    assert!(engine.shortest_path(a0, c1, CostModel::Length).is_none());
    assert!(engine.shortest_path(c0, a2, CostModel::Length).is_none());
    assert!(engine
        .shortest_path_cost(a2, c0, CostModel::Length)
        .is_none());
    assert!(engine
        .yen_k_shortest(a0, c0, CostModel::Length, 3)
        .is_empty());
}

/// Deterministic companion: a reloaded (text round-tripped) hierarchy
/// keeps serving bit-identical answers through the engine.
#[test]
fn ch_survives_io_roundtrip_on_random_style_graph() {
    use pathrank::spatial::generators::{region_network, RegionConfig};
    use pathrank::spatial::io::{ch_from_str, ch_to_string};
    let g = region_network(&RegionConfig::small_test(), 5);
    let ch = ContractionHierarchy::build(&g, LandmarkMetric::Length, &ChConfig::default());
    let reloaded = Arc::new(ch_from_str(&ch_to_string(&ch)).unwrap());
    let mut a = QueryEngine::new(&g).with_ch(Arc::new(ch));
    let mut b = QueryEngine::new(&g).with_ch(reloaded);
    let n = g.vertex_count() as u32;
    for (s, t) in [(0, n - 1), (n / 2, 1), (n / 3, 2 * n / 3)] {
        let (s, t) = (VertexId(s), VertexId(t));
        let pa = a.shortest_path(s, t, CostModel::Length);
        let pb = b.shortest_path(s, t, CostModel::Length);
        assert_eq!(
            pa.map(|p| p.edges().to_vec()),
            pb.map(|p| p.edges().to_vec()),
            "reloaded CH diverged on {s:?}->{t:?}"
        );
    }
}

/// The hierarchy stores no per-arc column it can derive: 16 bytes per
/// search slot (4-byte entry, weight, 4-byte expansion word) plus a
/// quarter byte of slot -> rank hints, and 16 per vertex (rank, vertex
/// of the rank, two segment bounds), against a budget of 16 per slot and
/// 20 per vertex. Release builds check the 43k-vertex serving map; debug builds
/// (tier-1) a paper-scale one, which holds the same per-item budget.
#[test]
fn ch_index_stays_at_sixteen_bytes_per_slot() {
    use pathrank::spatial::generators::{region_network, RegionConfig};
    let base = RegionConfig::paper_scale();
    let mult = if cfg!(debug_assertions) { 1 } else { 16 };
    let cfg = RegionConfig {
        n_towns: base.n_towns * mult,
        town_size: (20, 20),
        region_extent_m: base.region_extent_m * (mult as f64).sqrt(),
        extra_highways: base.extra_highways * mult,
        ..base
    };
    let g = region_network(&cfg, 2020);
    let ch = ContractionHierarchy::build(&g, LandmarkMetric::Length, &ChConfig::default());
    let slots = ch.arcs().len();
    let budget = 16 * slots + 20 * g.vertex_count();
    assert!(
        ch.heap_bytes() <= budget,
        "hierarchy holds {} B, budget {budget} B ({slots} slots, {} vertices)",
        ch.heap_bytes(),
        g.vertex_count()
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A customizable CH must stay exact through arbitrary rounds of
    /// live weight perturbation: after every re-customization on the
    /// fixed topology, one-to-one costs are bit-identical to a fresh
    /// Dijkstra on the perturbed weights. A live weight is the edge's
    /// length times 4, 2 or 1 — its travel time at 0.9, 1.8 or 3.6 km/h
    /// — so every cost is an integer, immune to tie-break noise.
    #[test]
    fn cch_costs_bit_identical_across_perturbation_rounds(
        n in 2usize..MAX_N,
        coords in pathrank_testkit::collection::vec((0.0f64..5000.0, 0.0f64..5000.0), MAX_N..MAX_N + 1),
        edges in pathrank_testkit::collection::vec((0usize..MAX_N, 0usize..MAX_N, 1u32..60), 1..30),
        salts in pathrank_testkit::collection::vec(0u64..1000, 2..4),
    ) {
        let g = build_graph(n, &coords, &edges, false, rural);
        if g.edge_count() == 0 {
            return Ok(());
        }
        // Metric-independent: built once, reused across every round.
        let topo = Arc::new(CchTopology::build(&g, &CchConfig { threads: 2 }));
        for (round, &salt) in salts.iter().enumerate() {
            let live: Vec<f64> = g
                .edges()
                .enumerate()
                .map(|(i, e)| {
                    let pick = (i as u64).wrapping_mul(31).wrapping_add(salt) % 3;
                    e.attrs.length_m * [4.0, 2.0, 1.0][pick as usize]
                })
                .collect();
            let cost = CostModel::Custom(&live);
            let cch = Arc::new(topo.customize_weights(&g, &live));
            let mut engine = QueryEngine::new(&g).with_cch(Arc::clone(&cch));
            prop_assert_eq!(engine.backend_for(cost), SearchBackend::Cch);
            // The customization covers its vector only; the graph
            // metrics must not be served off it.
            prop_assert_eq!(engine.backend_for(CostModel::Length), SearchBackend::Plain);
            prop_assert_eq!(engine.backend_for(CostModel::TravelTime), SearchBackend::Plain);
            for s in 0..n {
                for t in 0..n {
                    let (s, t) = (VertexId(s as u32), VertexId(t as u32));
                    if s == t {
                        continue;
                    }
                    let plain = shortest_path(&g, s, t, cost);
                    let fast = engine.shortest_path(s, t, cost);
                    if let Some(p) = &fast {
                        p.validate(&g).expect("CCH paths must be graph-valid");
                    }
                    prop_assert_eq!(
                        cost_of(&g, &plain, cost).to_bits(),
                        cost_of(&g, &fast, cost).to_bits(),
                        "round {} CCH diverged on {:?}->{:?}", round, s, t
                    );
                    let probe = engine.shortest_path_cost(s, t, cost);
                    prop_assert_eq!(
                        plain.as_ref().map(|p| p.cost(&g, cost).to_bits()),
                        probe.map(f64::to_bits),
                        "round {} CCH cost probe diverged on {:?}->{:?}", round, s, t
                    );
                }
            }
        }
    }

    /// `CostModel::Custom` slices are the CCH's home turf: a
    /// customization built from exactly that weight vector serves it
    /// (gated bitwise), any other slice falls back to plain searches.
    #[test]
    fn cch_custom_weight_vectors_bit_identical(
        n in 2usize..MAX_N,
        coords in pathrank_testkit::collection::vec((0.0f64..5000.0, 0.0f64..5000.0), MAX_N..MAX_N + 1),
        edges in pathrank_testkit::collection::vec((0usize..MAX_N, 0usize..MAX_N, 1u32..60), 1..30),
        salt in 1u32..40,
    ) {
        let g = build_graph(n, &coords, &edges, false, rural);
        if g.edge_count() == 0 {
            return Ok(());
        }
        let custom: Vec<f64> = (0..g.edge_count())
            .map(|i| 1.0 + ((i as u32 * salt) % 17) as f64)
            .collect();
        let topo = Arc::new(CchTopology::build(&g, &CchConfig { threads: 2 }));
        let cch = Arc::new(topo.customize_weights(&g, &custom));
        let mut engine = QueryEngine::new(&g).with_cch(Arc::clone(&cch));
        let cost = CostModel::Custom(&custom);
        prop_assert_eq!(engine.backend_for(cost), SearchBackend::Cch);
        // A different slice (even by one entry) must not be served.
        let mut other = custom.clone();
        other[0] += 1.0;
        prop_assert_eq!(
            engine.backend_for(CostModel::Custom(&other)),
            SearchBackend::Plain
        );
        prop_assert_eq!(engine.backend_for(CostModel::Length), SearchBackend::Plain);
        for s in 0..n {
            for t in 0..n {
                let (s, t) = (VertexId(s as u32), VertexId(t as u32));
                if s == t {
                    continue;
                }
                let plain = shortest_path(&g, s, t, cost);
                let fast = engine.shortest_path(s, t, cost);
                prop_assert_eq!(
                    cost_of(&g, &plain, cost).to_bits(),
                    cost_of(&g, &fast, cost).to_bits(),
                    "custom-weight CCH diverged on {:?}->{:?}", s, t
                );
            }
        }
    }
}

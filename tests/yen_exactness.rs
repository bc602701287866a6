//! Equivalence harness for the candidate layer, public-API half. (The
//! oracle comparison against the textbook Yen loop and the `limit(n)`
//! prefix property need crate-private access and live in
//! `spatial::algo::yen`'s unit tests.)
//!
//! * Golden fingerprints of `yen_k_shortest(k = 10)` and
//!   `diversified_top_k` (10 / 0.5 / 400) outputs — every vertex, edge and
//!   cost bit — pinned from the commit **before** `YenIter` learned
//!   Lawler's rule, the cost bound and the deviation trie.
//! * The contract of `constrained_shortest_path(.., max_cost)`: the
//!   unbudgeted path whenever it costs at most `max_cost`, `None`
//!   otherwise, under every heuristic regime.

use std::sync::Arc;

use pathrank::spatial::algo::diversified::DiversifiedConfig;
use pathrank::spatial::algo::engine::QueryEngine;
use pathrank::spatial::algo::landmarks::{LandmarkConfig, LandmarkMetric, LandmarkTable};
use pathrank::spatial::builder::GraphBuilder;
use pathrank::spatial::generators::{grid_network, region_network, GridConfig, RegionConfig};
use pathrank::spatial::geometry::Point;
use pathrank::spatial::graph::{CostModel, EdgeAttrs, Graph, RoadCategory, VertexId};
use pathrank::spatial::path::Path;
use pathrank::spatial::similarity::EdgeWeight;
use pathrank::spatial::util::BitSet;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn region() -> Graph {
    region_network(&RegionConfig::small_test(), 11)
}

fn jittered_grid() -> Graph {
    let cfg = GridConfig {
        nx: 24,
        ny: 24,
        jitter: 0.2,
        ..GridConfig::small_test()
    };
    grid_network(&cfg, 24)
}

fn seeded_pairs(g: &Graph, seed: u64, count: usize) -> Vec<(VertexId, VertexId)> {
    let n = g.vertex_count() as u32;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut pairs = Vec::with_capacity(count);
    while pairs.len() < count {
        let (s, t) = (rng.gen_range(0..n), rng.gen_range(0..n));
        if s != t {
            pairs.push((VertexId(s), VertexId(t)));
        }
    }
    pairs
}

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    fn paths(&mut self, paths: &[(Path, f64)]) {
        self.word(paths.len() as u64);
        for (p, c) in paths {
            self.word(p.len() as u64);
            for v in p.vertices() {
                self.word(v.0 as u64);
            }
            for e in p.edges() {
                self.word(e.0 as u64);
            }
            self.word(c.to_bits());
        }
    }
}

fn paper_dtkdi() -> DiversifiedConfig {
    DiversifiedConfig {
        k: 10,
        threshold: 0.5,
        max_scan: 400,
        weight: EdgeWeight::Length,
    }
}

fn fingerprints(g: &Graph, engine: &mut QueryEngine<'_>, seed: u64) -> (u64, u64) {
    let (mut yen, mut div) = (Fnv::new(), Fnv::new());
    for (s, t) in seeded_pairs(g, seed, 64) {
        yen.paths(&engine.yen_k_shortest(s, t, CostModel::Length, 10));
        div.paths(&engine.diversified_top_k(s, t, CostModel::Length, &paper_dtkdi()));
    }
    (yen.0, div.0)
}

#[test]
fn yen_golden_fingerprints_match_the_textbook_implementation() {
    // (graph, yen pin, diversified pin), printed by the textbook loop.
    let cases = [
        (region(), 0xd9f7_0990_1bb0_0496, 0x6c64_c9f6_ab75_57d4),
        (
            jittered_grid(),
            0x6eb1_62d1_3b47_1237,
            0x3690_f542_65aa_3b7b,
        ),
    ];
    for (g, yen, diversified) in cases {
        let table = Arc::new(LandmarkTable::build(
            &g,
            LandmarkMetric::Length,
            &LandmarkConfig::default(),
        ));
        // Float geometry makes every optimum unique, so ALT-guided spur
        // searches must reproduce the plain engine's paths bit for bit.
        for mut engine in [
            QueryEngine::new(&g),
            QueryEngine::new(&g).with_landmarks(table),
        ] {
            let alt = engine.uses_alt(CostModel::Length);
            let got = fingerprints(&g, &mut engine, 0x5eed);
            assert_eq!(
                got,
                (yen, diversified),
                "n = {}, alt {alt}: got {:#018x} / {:#018x}",
                g.vertex_count(),
                got.0,
                got.1
            );
        }
    }
}

/// Asserts the budget contract of one constrained query at budgets around
/// the unbudgeted optimum. `sharp`: the search is heuristic-free, so a
/// budget of exactly the optimum must find it; with a heuristic the keys
/// carry its rounding and the contract starts a relative epsilon above.
fn assert_budget_contract(
    engine: &mut QueryEngine<'_>,
    (s, t): (VertexId, VertexId),
    cost: CostModel<'_>,
    bans: (&BitSet, &BitSet),
    sharp: bool,
) {
    let g = engine.graph();
    let free = engine.constrained_shortest_path(s, t, cost, bans.0, bans.1, f64::INFINITY);
    let optimum = free.as_ref().map_or(f64::INFINITY, |p| p.cost(g, cost));
    let at = if sharp {
        optimum
    } else {
        optimum * (1.0 + 1e-9)
    };
    for max_cost in [0.0, optimum - 1.0, at, optimum + 1.0, 1e12] {
        let budgeted = engine.constrained_shortest_path(s, t, cost, bans.0, bans.1, max_cost);
        let expect = if optimum <= max_cost { &free } else { &None };
        assert_eq!(
            &budgeted, expect,
            "{s:?}->{t:?}: optimum {optimum}, budget {max_cost}"
        );
    }
}

#[test]
fn yen_budget_never_returns_a_relaxed_but_unsettled_target() {
    // s -> t directly costs 10; s -> a -> b -> t costs 1 + 5 + 1. With a
    // budget of 3 the search stops when it pops b (key 6), after s has
    // relaxed t at 10: that tentative path must not be reported.
    let mut b = GraphBuilder::new();
    let [s, a, m, t] = [0.0, 1.0, 2.0, 3.0].map(|x| b.add_vertex(Point::new(x, 0.0)));
    let len = |w: f64| EdgeAttrs::with_default_speed(w, RoadCategory::Rural);
    b.add_edge(s, t, len(10.0)).unwrap();
    b.add_edge(s, a, len(1.0)).unwrap();
    b.add_edge(a, m, len(5.0)).unwrap();
    b.add_edge(m, t, len(1.0)).unwrap();
    let g = b.build();
    let none = (BitSet::new(g.vertex_count()), BitSet::new(g.edge_count()));
    let custom: Vec<f64> = g.edges().map(|e| e.attrs.length_m).collect();
    let mut engine = QueryEngine::new(&g);
    for cost in [CostModel::Length, CostModel::Custom(&custom)] {
        for (budget, expect) in [(3.0, None), (6.5, None), (7.0, Some(7.0)), (9.0, Some(7.0))] {
            let got = engine.constrained_shortest_path(s, t, cost, &none.0, &none.1, budget);
            assert_eq!(got.map(|p| p.cost(&g, cost)), expect, "budget {budget}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// ALT-guided A*, Euclid-only A* and (`Custom` costs) plain Dijkstra
    /// under random banned sets: integer lengths, so the optimum and the
    /// budgets around it are exact.
    #[test]
    fn yen_budgeted_search_is_the_unbudgeted_one_within_budget(
        n in 3usize..10,
        coords in proptest::collection::vec((0.0f64..5000.0, 0.0f64..5000.0), 10..11),
        edges in proptest::collection::vec((0usize..10, 0usize..10, 1u32..60), 4..40),
        banned in proptest::collection::vec((0u32..10, 0u32..40), 0..4),
    ) {
        let mut b = GraphBuilder::new();
        let vs: Vec<VertexId> =
            (0..n).map(|i| b.add_vertex(Point::new(coords[i].0, coords[i].1))).collect();
        let mut seen = std::collections::HashSet::new();
        for &(f, t, w) in &edges {
            let (f, t) = (f % n, t % n);
            if f != t && seen.insert((f, t)) {
                let attrs = EdgeAttrs::with_default_speed(w as f64, RoadCategory::Rural);
                b.add_edge(vs[f], vs[t], attrs).unwrap();
            }
        }
        let g = b.build();
        prop_assume!(g.edge_count() > 0);
        let mut bv = BitSet::new(g.vertex_count());
        let mut be = BitSet::new(g.edge_count());
        for &(v, e) in &banned {
            bv.insert(v % n as u32);
            be.insert(e % g.edge_count() as u32);
        }
        let table = Arc::new(LandmarkTable::build(
            &g,
            LandmarkMetric::Length,
            &LandmarkConfig { count: 3, seed: 0xa17, threads: 1 },
        ));
        let mut alt = QueryEngine::new(&g).with_landmarks(table);
        let mut euclid = QueryEngine::new(&g);
        prop_assert!(alt.uses_alt(CostModel::Length) && !euclid.uses_alt(CostModel::Length));
        let custom: Vec<f64> = g.edges().map(|e| e.attrs.length_m * 2.0).collect();
        for s in 0..n {
            for t in 0..n {
                let (st, bans) = ((vs[s], vs[t]), (&bv, &be));
                assert_budget_contract(&mut alt, st, CostModel::Length, bans, false);
                assert_budget_contract(&mut euclid, st, CostModel::Length, bans, false);
                assert_budget_contract(&mut euclid, st, CostModel::Custom(&custom), bans, true);
            }
        }
    }
}

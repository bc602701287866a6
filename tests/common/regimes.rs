//! The exactness regimes, each written once over a set of search
//! backends: `tests/alt_exactness.rs` runs them on the ALT engine,
//! `tests/ch_exactness.rs` on the CH and CCH engines. Every regime builds
//! the [`Backends`] of one drawn graph and holds the named engines to
//! plain Dijkstra on a fresh engine, in bits. Edge weights are small
//! integers, so every equal-cost path sums to exactly the same `f64` and
//! float tie-break noise cannot mask a real divergence.

use std::sync::Arc;

use pathrank::spatial::algo::engine::{QueryEngine, SearchBackend};
use pathrank::spatial::algo::landmarks::LandmarkMetric;
use pathrank::spatial::graph::{CostModel, VertexId};
use pathrank::spatial::util::BitSet;
use pathrank_testkit::prelude::*;

use super::{
    assert_backends_agree, assert_pair_agrees, custom_weights, path_cost, rural, Backends,
    DrawnGraph,
};

/// One-to-one `shortest_path` and the cost probe under `metric`'s graph
/// cost, every path valid and contiguous (hierarchy paths are unpacked
/// shortcuts).
pub fn one_to_one(case: &DrawnGraph, metric: LandmarkMetric, backends: &[SearchBackend]) {
    let g = case.graph();
    let b = Backends::build(&g, metric);
    let cost = match metric {
        LandmarkMetric::Length => CostModel::Length,
        LandmarkMetric::TravelTime => CostModel::TravelTime,
    };
    assert_backends_agree(&b, backends, cost, "one-to-one");
}

/// Yen's full cost sequence from the first to the last vertex equals
/// plain Yen's. With the CH among `backends` the serving CH + ALT engine
/// runs too: the initial path on the CH, every spur search on ALT.
pub fn yen(case: &DrawnGraph, k: usize, backends: &[SearchBackend]) -> TestCaseResult {
    let g = case.graph();
    let b = Backends::build(&g, LandmarkMetric::Length);
    let (s, t) = (VertexId(0), VertexId(case.n() as u32 - 1));
    let costs = |engine: &mut QueryEngine<'_>| -> Vec<u64> {
        let paths = engine.yen_k_shortest(s, t, CostModel::Length, k);
        paths.into_iter().map(|(_, c)| c.to_bits()).collect()
    };
    let plain = costs(&mut QueryEngine::new(&g));
    let mut engines: Vec<_> = (b.engines(backends))
        .map(|(backend, e)| (format!("{backend:?}"), e))
        .collect();
    if backends.contains(&SearchBackend::Ch) {
        let serving = b
            .engine(SearchBackend::Ch)
            .with_landmarks(Arc::clone(&b.alt));
        engines.push(("Ch+Alt".to_string(), serving));
    }
    for (name, mut engine) in engines {
        let fast = costs(&mut engine);
        prop_assert!(
            plain == fast,
            "{} Yen cost bits {:?}, plain Yen {:?}",
            name,
            fast,
            plain
        );
    }
    Ok(())
}

/// Constrained searches under banned vertex / edge sets (drawn indices
/// taken modulo the graph's counts) match the plain constrained search
/// and avoid every ban. Bans make shortcuts unsound, so only ALT may
/// guide the search: `constrained_backend_for` never returns CH or CCH.
pub fn constrained(
    case: &DrawnGraph,
    banned_v: &[usize],
    banned_e: &[usize],
    backends: &[SearchBackend],
) -> TestCaseResult {
    let g = case.graph();
    let b = Backends::build(&g, LandmarkMetric::Length);
    let mut bv = BitSet::new(g.vertex_count());
    for v in banned_v {
        bv.insert((v % case.n()) as u32);
    }
    let mut be = BitSet::new(g.edge_count());
    for e in banned_e.iter().filter(|_| g.edge_count() > 0) {
        be.insert((e % g.edge_count()) as u32);
    }
    let cost = CostModel::Length;
    // The oracle is plain Dijkstra under the bans: `cost`'s own column
    // as a `Custom` vector, which no heuristic guides on a fresh engine.
    let unguided = CostModel::Custom(cost.weights(&g));
    for (backend, mut engine) in b.engines(backends) {
        let guided = if backend == SearchBackend::Alt {
            backend
        } else {
            SearchBackend::Plain
        };
        prop_assert_eq!(engine.constrained_backend_for(cost), guided);
        for s in (0..case.n() as u32).map(VertexId) {
            for t in (0..case.n() as u32).map(VertexId) {
                let plain = QueryEngine::new(&g).constrained_shortest_path(
                    s,
                    t,
                    unguided,
                    &bv,
                    &be,
                    f64::INFINITY,
                );
                let fast = engine.constrained_shortest_path(s, t, cost, &bv, &be, f64::INFINITY);
                prop_assert_eq!(
                    path_cost(&g, &plain, cost).to_bits(),
                    path_cost(&g, &fast, cost).to_bits(),
                    "{:?} constrained search diverged on {:?}->{:?}",
                    backend,
                    s,
                    t
                );
                if let Some(p) = &fast {
                    prop_assert!(
                        p.vertices().iter().all(|v| !bv.contains(v.0)),
                        "banned vertex on path"
                    );
                    prop_assert!(
                        p.edges().iter().all(|e| !be.contains(e.0)),
                        "banned edge on path"
                    );
                }
            }
        }
    }
    Ok(())
}

/// A `CostModel::Custom` slice no index covers: every engine resolves it
/// to Plain and returns plain Dijkstra's very path.
pub fn custom_slice(case: &DrawnGraph, salt: u32, backends: &[SearchBackend]) {
    let g = case.graph();
    let b = Backends::build(&g, LandmarkMetric::Length);
    let custom = custom_weights(g.edge_count(), salt);
    assert_backends_agree(&b, backends, CostModel::Custom(&custom), "custom");
}

/// A `Custom` vector with zero entries (a live update may install one:
/// weights are only held non-negative), served by a CCH customized for
/// it. A cheapest walk may then revisit a vertex over zero-cost edges;
/// every engine's path is simple, valid and costs the oracle's bits.
/// The entries of [`custom_weights`] up to `zeros` become zero, about
/// `zeros` in 17.
pub fn zero_weights(case: &DrawnGraph, salt: u32, zeros: u32, backends: &[SearchBackend]) {
    let g = case.graph();
    let mut b = Backends::build(&g, LandmarkMetric::Length);
    let custom: Vec<f64> = custom_weights(g.edge_count(), salt)
        .into_iter()
        .map(|w| if w <= zeros as f64 { 0.0 } else { w })
        .collect();
    b.cch = Arc::new(b.topo.customize_weights(&g, &custom));
    assert_backends_agree(&b, backends, CostModel::Custom(&custom), "zero weights");
}

/// Alternating covered (Length) and fallback (TravelTime / Custom)
/// queries on one engine each match the oracle: no cached target vector,
/// landmark set or hierarchy scratch may bleed into a query it is
/// invalid for.
pub fn interleaved(case: &DrawnGraph, backends: &[SearchBackend]) {
    let g = case.graph();
    let b = Backends::build(&g, LandmarkMetric::Length);
    let custom: Vec<f64> = (0..g.edge_count()).map(|i| 2.0 + (i % 5) as f64).collect();
    for (backend, mut engine) in b.engines(backends) {
        for s in (0..case.n().min(4) as u32).map(VertexId) {
            for t in (0..case.n() as u32).map(VertexId).filter(|&t| t != s) {
                for cost in [
                    CostModel::Length,
                    CostModel::TravelTime,
                    CostModel::Custom(&custom),
                ] {
                    let what = format!("interleaved/{backend:?}");
                    assert_pair_agrees(&mut engine, s, t, cost, &what);
                }
            }
        }
    }
}

/// Two components: landmark bounds prove the cross pairs unreachable
/// through infinite bounds, and no hierarchy invents a path between
/// them, in any entry point.
pub fn disconnected_components(backends: &[SearchBackend]) {
    let g = DrawnGraph {
        coords: vec![
            (0.0, 0.0),
            (120.0, 0.0),
            (240.0, 0.0),
            (0.0, 7000.0),
            (120.0, 7000.0),
        ],
        edges: vec![
            (0, 1, 120),
            (1, 0, 120),
            (1, 2, 120),
            (2, 1, 120),
            (3, 4, 120),
            (4, 3, 120),
        ],
        attrs: rural,
    }
    .graph();
    let b = Backends::build(&g, LandmarkMetric::Length);
    assert_backends_agree(&b, backends, CostModel::Length, "two components");
    let (a0, a2, c0, c1) = (VertexId(0), VertexId(2), VertexId(3), VertexId(4));
    for (backend, mut engine) in b.engines(backends) {
        let p = engine.shortest_path(a0, a2, CostModel::Length).unwrap();
        assert_eq!(p.cost(&g, CostModel::Length), 240.0, "{backend:?}");
        assert!(engine.shortest_path(a0, c1, CostModel::Length).is_none());
        assert!(engine.shortest_path(c0, a2, CostModel::Length).is_none());
        assert!(engine
            .shortest_path_cost(a2, c0, CostModel::Length)
            .is_none());
        assert!(engine
            .yen_k_shortest(a0, c0, CostModel::Length, 3)
            .is_empty());
    }
}

//! Property-test harness locking in observability transparency.
//!
//! The obs layer's contract is that instrumentation *observes* queries
//! and never participates in them: a [`QueryEngine`] carrying live
//! [`EngineObs`] handles must return **bit-identical** answers — same
//! `Path`, same cost bits, same backend resolution — as the same engine
//! with the default no-op sink, across every backend (Plain / ALT / CH
//! / CCH) and across sparse live-weight updates re-customized through
//! `Cch::apply_weight_delta`. The properties drive random graphs through
//! all four backends and chained weight deltas, comparing all-pairs
//! answers bitwise, and then assert the registry really was live
//! (non-zero query counts) so a silently-disabled registry can't fake a
//! pass.

use std::sync::Arc;

use pathrank::obs::Registry;
use pathrank::spatial::algo::engine::{EngineObs, QueryEngine, SearchBackend};
use pathrank::spatial::algo::landmarks::LandmarkMetric;
use pathrank::spatial::graph::{CostModel, EdgeId, VertexId};
use pathrank_testkit::prelude::*;

mod common;
use common::{mixed_categories, Backends, DrawnGraph, GraphCase, BACKENDS};

/// All-pairs bit-identity between a bare engine and its instrumented
/// twin: backend resolution, full `Path` extraction and cost bits must
/// all agree under `cost`. Two counted queries per off-diagonal pair.
fn assert_obs_transparent(
    bare: &mut QueryEngine<'_>,
    instrumented: &mut QueryEngine<'_>,
    cost: CostModel<'_>,
    what: &str,
) {
    assert_eq!(
        bare.backend_for(cost),
        instrumented.backend_for(cost),
        "{what}: instrumentation changed backend resolution"
    );
    let n = bare.graph().vertex_count() as u32;
    for s in 0..n {
        for t in 0..n {
            let (s, t) = (VertexId(s), VertexId(t));
            let p0 = bare.shortest_path(s, t, cost);
            let p1 = instrumented.shortest_path(s, t, cost);
            assert_eq!(p0, p1, "{what}: {s:?}->{t:?} paths diverged");
            let c0 = bare.shortest_path_cost(s, t, cost);
            let c1 = instrumented.shortest_path_cost(s, t, cost);
            assert_eq!(
                c0.map(f64::to_bits),
                c1.map(f64::to_bits),
                "{what}: {s:?}->{t:?} cost bits diverged ({c0:?} vs {c1:?})"
            );
        }
    }
}

/// Sweeps all four backends of `b`, pairing each bare engine with an
/// instrumented twin registered on `registry`, and asserts bit-identity
/// plus the expected backend resolution: ALT and CH serve graph metrics
/// only, so under a `Custom` vector their engines fall back to plain.
fn sweep_backends(b: &Backends<'_>, cost: CostModel<'_>, registry: &Registry, what: &str) {
    for backend in BACKENDS {
        let mut bare = b.engine(backend);
        let mut instrumented = b.engine(backend).with_obs(EngineObs::new(registry));
        let expect = b.resolves_to(backend, cost);
        assert_eq!(
            instrumented.backend_for(cost),
            expect,
            "{what}: fixture must exercise {expect:?}"
        );
        assert_obs_transparent(
            &mut bare,
            &mut instrumented,
            cost,
            &format!("{what}/{backend:?}"),
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The headline property: on random graphs, instrumented engines
    /// answer bit-identically to bare ones on all four backends under
    /// travel time, then under a live vector after each of its chained
    /// sparse updates applied through `Cch::apply_weight_delta` — and
    /// the registry proves it counted every instrumented query. A live
    /// weight is the edge's length times 4, 2 or 1: its travel time at
    /// 0.9, 1.8 or 3.6 km/h, so every cost stays an integer.
    #[test]
    fn obs_instrumented_engines_stay_bit_identical(
        case in GraphCase::new(mixed_categories),
        batches in collection::vec(collection::vec((0usize..64, 0usize..3), 1..6), 1..3),
    ) {
        let (g, n) = (case.graph(), case.n());
        let m = g.edge_count();
        prop_assume!(m > 0);
        let registry = Registry::new();
        let mut b = Backends::build(&g, LandmarkMetric::TravelTime);
        sweep_backends(&b, CostModel::TravelTime, &registry, "travel time");
        let mut live = CostModel::Length.weights(&g).to_vec();
        b.cch = Arc::new(b.topo.customize_weights(&g, &live));
        for (i, batch) in batches.iter().enumerate() {
            let updates: Vec<(EdgeId, f64)> = batch
                .iter()
                .map(|&(e, k)| {
                    let e = EdgeId((e % m) as u32);
                    (e, g.edge(e).attrs.length_m * [4.0, 2.0, 1.0][k])
                })
                .collect();
            for &(e, w) in &updates {
                live[e.index()] = w;
            }
            Arc::make_mut(&mut b.cch).apply_weight_delta(&updates);
            let cost = CostModel::Custom(&live);
            sweep_backends(&b, cost, &registry, &format!("batch {i}"));
        }
        let counted = registry
            .snapshot()
            .counter_total("pathrank_engine_queries_total", &[]);
        // Half of every sweep's queries ran on the instrumented twin:
        // 4 backends x n(n-1) off-diagonal pairs x 2 calls (path, cost),
        // per sweep — s == t short-circuits before dispatch and is
        // deliberately not a counted query.
        let sweeps = 1 + batches.len() as u64;
        assert_eq!(
            counted,
            sweeps * 4 * (n as u64 * (n as u64 - 1)) * 2,
            "registry must have counted every instrumented query"
        );
    }
}

/// Indexes that do not cover the query's metric must fall back
/// identically with and without instrumentation — the fallback counters
/// observe the decision, never steer it.
#[test]
fn obs_fallback_decisions_are_identical_and_counted() {
    let coords = (0..6)
        .map(|i| (((i * 211) % 800) as f64, ((i * 137) % 500) as f64))
        .collect();
    let edges = vec![
        (0, 1, 9),
        (1, 2, 14),
        (2, 3, 4),
        (3, 4, 21),
        (4, 5, 8),
        (5, 0, 16),
        (0, 3, 30),
        (2, 5, 11),
        (4, 1, 7),
    ];
    let g = DrawnGraph {
        coords,
        edges,
        attrs: mixed_categories,
    }
    .graph();
    // Travel-time indexes under length queries: CH, CCH and ALT all
    // mismatch, and both engines must degrade to the same plain search.
    let b = Backends::build(&g, LandmarkMetric::TravelTime);
    let all_indexes = || {
        QueryEngine::new(&g)
            .with_landmarks(Arc::clone(&b.alt))
            .with_ch(Arc::clone(&b.ch))
            .with_cch(Arc::clone(&b.cch))
    };
    let registry = Registry::new();
    let mut bare = all_indexes();
    let mut instrumented = all_indexes().with_obs(EngineObs::new(&registry));
    let cost = CostModel::Length;
    assert_eq!(instrumented.backend_for(cost), SearchBackend::Plain);
    assert_obs_transparent(
        &mut bare,
        &mut instrumented,
        cost,
        "metric-mismatch fallback",
    );
    // Every counted query (path and cost per off-diagonal pair) skipped
    // each of the three indexes once.
    let queries = 6 * 5 * 2;
    let snap = registry.snapshot();
    for index in ["ch", "cch", "alt"] {
        assert_eq!(
            snap.counter_total("pathrank_engine_fallback_total", &[("index", index)]),
            queries,
            "{index} fallbacks must be visible in the registry"
        );
    }
    assert_eq!(
        snap.counter_total("pathrank_engine_fallback_total", &[]),
        3 * queries
    );
}

/// Spur searches are counted apart from point-to-point queries, one
/// outcome per search, and observing them changes nothing. The unlimited
/// enumeration spurs every accepted path from its deviation index on
/// (Lawler's rule), so the three outcomes must add up to `Σ (len − dev)`
/// over the paths whose spur searches were made; the limited one must
/// yield the same paths while stopping some searches over budget.
#[test]
fn obs_spur_search_outcomes_reconcile_with_deviation_indices() {
    use pathrank::spatial::generators::{region_network, RegionConfig};
    let g = region_network(&RegionConfig::small_test(), 11);
    let n = g.vertex_count() as u32;
    let registry = Registry::new();
    let mut bare = QueryEngine::new(&g);
    let mut instrumented = QueryEngine::new(&g).with_obs(EngineObs::new(&registry));
    let spur_total = |outcome: &str| {
        registry.snapshot().counter_total(
            "pathrank_engine_spur_searches_total",
            &[("outcome", outcome)],
        )
    };
    let pulls = 30;
    let (mut expected, mut runs) = (0u64, 0u64);
    for (s, t) in (0..n).step_by(7).zip((0..n).rev().step_by(5)) {
        let (s, t) = (VertexId(s), VertexId(t));
        if s == t {
            continue;
        }
        runs += 1;
        let cost = CostModel::Length;
        let plain: Vec<_> = bare.yen_iter(s, t, cost).take(pulls).collect();
        let seen: Vec<_> = instrumented.yen_iter(s, t, cost).take(pulls).collect();
        assert_eq!(
            plain, seen,
            "{s:?}->{t:?}: instrumentation changed Yen's output"
        );
        // The last of a full `take` is yielded before its spurs are made.
        let spurred = if seen.len() == pulls {
            pulls - 1
        } else {
            seen.len()
        };
        for (j, (p, _)) in seen.iter().enumerate().take(spurred) {
            // Float geometry: no ties, so a path deviates where its longest
            // common prefix with an earlier path ends.
            let shared = seen[..j]
                .iter()
                .map(|(q, _)| {
                    let both = p.vertices().iter().zip(q.vertices());
                    both.take_while(|(a, b)| a == b).count()
                })
                .max();
            let dev = shared.map_or(0, |vertices| vertices - 1);
            expected += (p.len() - dev) as u64;
        }
    }
    assert!(runs >= 5 && expected > 0);
    let (found, over, unreachable) = (
        spur_total("found"),
        spur_total("over_budget"),
        spur_total("unreachable"),
    );
    assert_eq!(over, 0, "an unlimited enumeration has no budget");
    assert_eq!(found + unreachable, expected);
    let snap = registry.snapshot();
    assert!(snap.counter_total("pathrank_engine_spur_settled_nodes_total", &[]) >= expected);
    assert_eq!(
        snap.counter_total("pathrank_engine_queries_total", &[]),
        runs,
        "only each enumeration's first path is a point-to-point query"
    );

    let (s, t) = (VertexId(0), VertexId(n - 1));
    let limited = instrumented.yen_k_shortest(s, t, CostModel::Length, 10);
    assert_eq!(limited, bare.yen_k_shortest(s, t, CostModel::Length, 10));
    assert!(
        spur_total("over_budget") > 0,
        "k = 10 must prune some spurs"
    );
}

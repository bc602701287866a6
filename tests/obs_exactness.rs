//! Property-test harness locking in observability transparency.
//!
//! The obs layer's contract is that instrumentation *observes* queries
//! and never participates in them: a [`QueryEngine`] carrying live
//! [`EngineObs`] handles must return **bit-identical** answers — same
//! `Path`, same cost bits, same backend resolution — as the same engine
//! with the default no-op sink, across every backend (Plain / ALT / CH
//! / CCH) and across sparse live-weight updates re-customized through
//! `Cch::apply_delta`. The properties drive random graphs through all
//! four backends and chained speed deltas, comparing all-pairs answers
//! bitwise, and then assert the registry really was live (non-zero
//! query counts) so a silently-disabled registry can't fake a pass.

use std::sync::Arc;

use pathrank::obs::Registry;
use pathrank::spatial::algo::cch::{CchConfig, CchTopology};
use pathrank::spatial::algo::ch::{ChConfig, ContractionHierarchy};
use pathrank::spatial::algo::engine::{EngineObs, QueryEngine, SearchBackend};
use pathrank::spatial::algo::landmarks::{LandmarkConfig, LandmarkMetric, LandmarkTable};
use pathrank::spatial::builder::GraphBuilder;
use pathrank::spatial::geometry::Point;
use pathrank::spatial::graph::{CostModel, EdgeAttrs, EdgeId, Graph, RoadCategory, VertexId};
use proptest::prelude::*;

/// Builds a random directed graph from proptest-drawn raw material —
/// the same recipe as the other exactness harnesses, with mixed road
/// categories so free-flow speeds differ per edge.
fn build_graph(n: usize, coords: &[(f64, f64)], edges: &[(usize, usize, u32)]) -> Graph {
    let mut b = GraphBuilder::new();
    let vs: Vec<VertexId> = (0..n)
        .map(|i| b.add_vertex(Point::new(coords[i].0, coords[i].1)))
        .collect();
    let mut seen = std::collections::HashSet::new();
    for &(f, t, w) in edges {
        let (f, t) = (f % n, t % n);
        let category = match w % 3 {
            0 => RoadCategory::Arterial,
            1 => RoadCategory::Rural,
            _ => RoadCategory::Residential,
        };
        if f != t && seen.insert((f, t)) {
            b.add_edge(
                vs[f],
                vs[t],
                EdgeAttrs::with_default_speed(w as f64, category),
            )
            .unwrap();
        }
    }
    b.build()
}

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

/// The indexes every backend sweep needs, built once per graph state.
struct Indexes {
    alt: Arc<LandmarkTable>,
    ch: Arc<ContractionHierarchy>,
    topo: Arc<CchTopology>,
}

impl Indexes {
    fn build(g: &Graph, metric: LandmarkMetric) -> Self {
        Indexes {
            alt: Arc::new(LandmarkTable::build(g, metric, &LandmarkConfig::default())),
            ch: Arc::new(ContractionHierarchy::build(g, metric, &ChConfig::default())),
            topo: Arc::new(CchTopology::build(g, &CchConfig::default())),
        }
    }
}

/// Sweeps all four backends over `g`, pairing each bare engine with an
/// instrumented twin registered on `registry`, and asserts bit-identity
/// plus the expected backend resolution.
fn sweep_backends<'g>(
    g: &'g Graph,
    ix: &Indexes,
    cch: &Arc<pathrank::spatial::algo::cch::Cch>,
    cost: CostModel<'_>,
    registry: &Registry,
    what: &str,
) {
    let obs = || EngineObs::new(registry);
    let cases: [(SearchBackend, Box<dyn Fn() -> QueryEngine<'g> + '_>); 4] = [
        (SearchBackend::Plain, Box::new(|| QueryEngine::new(g))),
        (
            SearchBackend::Alt,
            Box::new(|| QueryEngine::new(g).with_landmarks(Arc::clone(&ix.alt))),
        ),
        (
            SearchBackend::Cch,
            Box::new(|| QueryEngine::new(g).with_cch(Arc::clone(cch))),
        ),
        (
            SearchBackend::Ch,
            Box::new(|| QueryEngine::new(g).with_ch(Arc::clone(&ix.ch))),
        ),
    ];
    for (backend, make) in &cases {
        let mut bare = make();
        let mut instrumented = make().with_obs(obs());
        assert_eq!(
            instrumented.backend_for(cost),
            *backend,
            "{what}: fixture must exercise {backend:?}"
        );
        assert_obs_transparent(
            &mut bare,
            &mut instrumented,
            cost,
            &format!("{what}/{backend:?}"),
        );
    }
}

const MAX_N: usize = 8;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The headline property: on random graphs, instrumented engines
    /// answer bit-identically to bare ones on all four backends, both
    /// before and after chained sparse live-weight updates applied
    /// through `Cch::apply_delta` — and the registry proves it counted
    /// every instrumented query.
    #[test]
    fn obs_instrumented_engines_stay_bit_identical(
        n in 2usize..MAX_N,
        coords in proptest::collection::vec((0.0f64..5000.0, 0.0f64..5000.0), MAX_N..MAX_N + 1),
        edges in proptest::collection::vec((0usize..MAX_N, 0usize..MAX_N, 1u32..60), 1..24),
        batches in proptest::collection::vec(
            proptest::collection::vec((0usize..64, 0.05f64..400.0), 1..6),
            1..3,
        ),
    ) {
        let mut g = build_graph(n, &coords, &edges);
        let m = g.edge_count();
        prop_assume!(m > 0);
        let registry = Registry::new();
        let cost = CostModel::TravelTime;
        let ix = Indexes::build(&g, LandmarkMetric::TravelTime);
        let mut partial = Arc::new(ix.topo.customize(&g, &cost));
        sweep_backends(&g, &ix, &partial, cost, &registry, "initial");
        for (i, batch) in batches.iter().enumerate() {
            let updates: Vec<(EdgeId, f64)> = batch
                .iter()
                .map(|&(e, s)| (EdgeId((e % m) as u32), s))
                .collect();
            let delta = g.set_edge_speeds(&updates);
            Arc::make_mut(&mut partial).apply_delta(&g, &delta);
            // ALT and CH predate the new weights epoch, so their bare
            // and instrumented engines must *both* fall back the same
            // way; the sparse-patched CCH serves directly. Each epoch
            // rebuilds ALT/CH fresh as well to keep all four backends
            // live.
            let ix = Indexes::build(&g, LandmarkMetric::TravelTime);
            sweep_backends(&g, &ix, &partial, cost, &registry, &format!("epoch {i}"));
        }
        let counted = registry
            .snapshot()
            .counter_total("pathrank_engine_queries_total", &[]);
        // Half of every sweep's queries ran on the instrumented twin:
        // 4 backends x n(n-1) off-diagonal pairs x 2 calls (path, cost),
        // per epoch — s == t short-circuits before dispatch and is
        // deliberately not a counted query.
        let epochs = 1 + batches.len() as u64;
        assert_eq!(
            counted,
            epochs * 4 * (n as u64 * (n as u64 - 1)) * 2,
            "registry must have counted every instrumented query"
        );
    }
}

/// Stale indexes must fall back identically with and without
/// instrumentation — the fallback counters observe the decision, never
/// steer it.
#[test]
fn obs_fallback_decisions_are_identical_and_counted() {
    let coords: Vec<(f64, f64)> = (0..6)
        .map(|i| (((i * 211) % 800) as f64, ((i * 137) % 500) as f64))
        .collect();
    let edges: Vec<(usize, usize, u32)> = vec![
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
    let mut g = build_graph(6, &coords, &edges);
    let cost = CostModel::TravelTime;
    let ix = Indexes::build(&g, LandmarkMetric::TravelTime);
    let cch = Arc::new(ix.topo.customize(&g, &cost));
    // Move one speed *after* building every index: CH/CCH/ALT all go
    // stale, and both engines must degrade to the same plain search.
    g.set_edge_speeds(&[(EdgeId(2), 33.0)]);
    let registry = Registry::new();
    let mut bare = QueryEngine::new(&g)
        .with_landmarks(Arc::clone(&ix.alt))
        .with_ch(Arc::clone(&ix.ch))
        .with_cch(Arc::clone(&cch));
    let mut instrumented = QueryEngine::new(&g)
        .with_landmarks(Arc::clone(&ix.alt))
        .with_ch(Arc::clone(&ix.ch))
        .with_cch(Arc::clone(&cch))
        .with_obs(EngineObs::new(&registry));
    assert_eq!(instrumented.backend_for(cost), SearchBackend::Plain);
    assert_obs_transparent(&mut bare, &mut instrumented, cost, "stale-index fallback");
    let snap = registry.snapshot();
    let stale = snap.counter_total(
        "pathrank_engine_fallback_total",
        &[("reason", "stale_weights")],
    );
    assert!(
        stale > 0,
        "stale-weights fallbacks must be visible in the registry"
    );
    assert_eq!(
        snap.counter_total(
            "pathrank_engine_fallback_total",
            &[("reason", "metric_mismatch")]
        ),
        0
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

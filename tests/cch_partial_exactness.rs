//! Property-test harness locking in partial CCH customization
//! exactness.
//!
//! `Cch::apply_weight_delta` is only an optimisation if it can never
//! change an answer: the sparse pass re-relaxes just the shortcut arcs a
//! custom-vector delta touches, and its claim — asserted here, *never*
//! re-checked on the hot path — is **bit-identity** with a full
//! `CchTopology::customize_weights` of the updated vector. The
//! properties drive random graphs through random chained update batches
//! and compare the two customizations column for column and all-pairs
//! `query_cost` answers bitwise, plus (through the engine, which
//! recomputes CH costs in Dijkstra's fold order over the unpacked edges)
//! against a plain index-free Dijkstra.
//!
//! Every live vector starts as the graph's travel times, and a drawn
//! speed becomes the travel time of its edge at that speed — the shape
//! of live telemetry. Covered regimes: empty deltas, single-edge
//! deltas, duplicate-edge batches where the last entry must win,
//! zero and very large weights, all-edges deltas, superset deltas
//! carrying echoes of stored weights, and chained deltas across many
//! steps.
//!
//! The sparse pass finds an arc's dependents by stamping the arcs of
//! its other end into a scratch row; a second property holds that
//! reverse enumeration to the forward triangle lists on multigraphs
//! (parallel edges, one-way edges, 2-cycles — the graph model has no
//! self-loops to add), and byte-budget guards keep the topology free of
//! anything sized by the triangle count and a customization at 12
//! bytes per arc.

use std::sync::Arc;

use pathrank::spatial::algo::cch::{ArcRow, Cch, CchConfig, CchTopology};
use pathrank::spatial::algo::ch::ChSearch;
use pathrank::spatial::algo::dijkstra::shortest_path;
use pathrank::spatial::algo::engine::{QueryEngine, SearchBackend};
use pathrank::spatial::generators::{region_network, RegionConfig};
use pathrank::spatial::graph::{CostModel, EdgeAttrs, EdgeId, Graph, VertexId};
use pathrank_testkit::prelude::*;

mod common;
use common::{build_graph, mixed_categories};

/// Two customizations of the same topology are the same bits: columns
/// and custom vector, and all-pairs `query_cost` answers.
fn assert_same_answers(a: &Cch, b: &Cch, what: &str) {
    assert!(a.bit_identical(b), "{what}: columns differ");
    let n = a.vertex_count();
    let mut sa = ChSearch::new(n);
    let mut sb = ChSearch::new(n);
    for s in 0..n {
        for t in 0..n {
            let (s, t) = (VertexId(s as u32), VertexId(t as u32));
            let ca = a.view().query_cost(&mut sa, s, t);
            let cb = b.view().query_cost(&mut sb, s, t);
            assert_eq!(
                ca.map(f64::to_bits),
                cb.map(f64::to_bits),
                "{what}: {s:?}->{t:?} diverged ({ca:?} vs {cb:?})"
            );
        }
    }
}

/// All-pairs engine-vs-plain-Dijkstra bit-identity under `cost`. The
/// engine recomputes CCH answers left-to-right over the unpacked
/// original edges — Dijkstra's own fold order — so bit-equality holds
/// even on non-integer travel-time weights.
fn assert_matches_dijkstra(g: &Graph, cch: &Cch, cost: CostModel<'_>, what: &str) {
    let mut engine = QueryEngine::new(g).with_cch(Arc::new(cch.clone()));
    assert_eq!(
        engine.backend_for(cost),
        SearchBackend::Cch,
        "{what}: the partially customized index must actually serve"
    );
    let n = g.vertex_count() as u32;
    for s in 0..n {
        for t in 0..n {
            let (s, t) = (VertexId(s), VertexId(t));
            if s == t {
                continue;
            }
            let plain = shortest_path(g, s, t, cost).map(|p| p.cost(g, cost));
            let fast = engine.shortest_path_cost(s, t, cost);
            assert_eq!(
                plain.map(f64::to_bits),
                fast.map(f64::to_bits),
                "{what}: {s:?}->{t:?} diverged from Dijkstra"
            );
        }
    }
}

/// The travel time of edge `e` at `speed_kmh`: what a speed reading
/// makes of the edge's live weight.
fn travel_time(g: &Graph, e: EdgeId, speed_kmh: f64) -> f64 {
    EdgeAttrs {
        speed_kmh,
        ..g.edge(e).attrs
    }
    .travel_time_s()
}

/// `(edge, travel time)` updates from drawn `(edge index, speed)` pairs.
fn speed_updates(g: &Graph, drawn: &[(usize, f64)]) -> Vec<(EdgeId, f64)> {
    drawn
        .iter()
        .map(|&(e, s)| {
            let e = EdgeId((e % g.edge_count()) as u32);
            (e, travel_time(g, e, s))
        })
        .collect()
}

/// A customization of the graph's travel times and its live vector.
fn live(g: &Graph, topo: &Arc<CchTopology>) -> (Cch, Vec<f64>) {
    let weights = CostModel::TravelTime.weights(g).to_vec();
    (topo.customize_weights(g, &weights), weights)
}

/// One chained step: apply `updates` to the live vector (later entries
/// win), catch `partial` up with the sparse delta and check it against a
/// fresh full customization (and, when asked, Dijkstra).
fn step(
    g: &Graph,
    topo: &Arc<CchTopology>,
    partial: &mut Cch,
    weights: &mut [f64],
    updates: &[(EdgeId, f64)],
    check_dijkstra: bool,
    what: &str,
) {
    for &(e, w) in updates {
        weights[e.index()] = w;
    }
    partial.apply_weight_delta(updates);
    let full = topo.customize_weights(g, weights);
    assert_same_answers(partial, &full, what);
    if check_dijkstra {
        assert_matches_dijkstra(g, partial, CostModel::Custom(weights), what);
    }
}

const MAX_N: usize = 9;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The headline property: random graphs, random chained sparse
    /// batches (speeds drawn from a crawl to far above any road's, edge
    /// indices free to repeat inside a batch), checked after *every*
    /// batch against a fresh full customization bitwise and against
    /// plain Dijkstra.
    #[test]
    fn cch_partial_chained_random_deltas_stay_bit_identical(
        n in 2usize..MAX_N,
        coords in pathrank_testkit::collection::vec((0.0f64..5000.0, 0.0f64..5000.0), MAX_N..MAX_N + 1),
        edges in pathrank_testkit::collection::vec((0usize..MAX_N, 0usize..MAX_N, 1u32..60), 1..28),
        batches in pathrank_testkit::collection::vec(
            pathrank_testkit::collection::vec((0usize..64, 0.05f64..400.0), 0..10),
            1..5,
        ),
    ) {
        let g = build_graph(n, &coords, &edges, false, mixed_categories);
        prop_assume!(g.edge_count() > 0);
        let topo = Arc::new(CchTopology::build(&g, &CchConfig::default()));
        let (mut partial, mut weights) = live(&g, &topo);
        for (i, batch) in batches.iter().enumerate() {
            let updates = speed_updates(&g, batch);
            let what = format!("batch {i}");
            step(&g, &topo, &mut partial, &mut weights, &updates, true, &what);
        }
    }
}

/// Every `(support, owner, co-support)` link of the topology, read
/// forwards (each owner's triangle list, filed under both supports)
/// and backwards (each support's dependents), both sorted.
type Links = Vec<(u32, u32, u32)>;
fn triangle_links(topo: &CchTopology) -> (Links, Links) {
    let (mut forward, mut reverse) = (Links::new(), Links::new());
    let mut row = ArcRow::default();
    for a in 0..topo.arc_count() {
        for (b, c, _) in topo.triangles_of(a) {
            forward.push((b, a as u32, c));
            forward.push((c, a as u32, b));
        }
        reverse.extend(
            topo.dependents_of(a, &mut row)
                .map(|(owner, co)| (a as u32, owner, co)),
        );
    }
    forward.sort_unstable();
    reverse.sort_unstable();
    (forward, reverse)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The dependents enumeration is the forward index reversed — each
    /// triangle exactly once under each of its supports, owners above
    /// supports — on graphs dense enough in repeats that parallel edges,
    /// one-way edges and 2-cycles (leg pairs closing no triangle) occur —
    /// and a delta chased through those links lands on a full
    /// customization.
    #[test]
    fn cch_partial_links_reverse_the_triangle_lists_on_multigraphs(
        n in 2usize..MAX_N,
        coords in pathrank_testkit::collection::vec((0.0f64..5000.0, 0.0f64..5000.0), MAX_N..MAX_N + 1),
        edges in pathrank_testkit::collection::vec((0usize..MAX_N, 0usize..MAX_N, 1u32..60), 1..48),
        batch in pathrank_testkit::collection::vec((0usize..64, 0.05f64..400.0), 1..10),
    ) {
        let g = build_graph(n, &coords, &edges, true, mixed_categories);
        prop_assume!(g.edge_count() > 0);
        let topo = Arc::new(CchTopology::build(&g, &CchConfig::default()));
        let (forward, reverse) = triangle_links(&topo);
        prop_assert!(reverse.iter().all(|&(support, owner, _)| owner > support));
        prop_assert_eq!(forward, reverse);

        let (mut partial, mut weights) = live(&g, &topo);
        let updates = speed_updates(&g, &batch);
        step(&g, &topo, &mut partial, &mut weights, &updates, true, "multigraph");
    }
}

/// No per-triangle array can come back unnoticed: on the benchmark's
/// rank-workload map shape the topology's budget has per-arc, per-edge
/// and per-vertex terms only — triangles and dependents are looked up
/// through the 8-byte-per-arc down-lists and a scratch row. The map has
/// several triangles per arc, so even 4 bytes per triangle overrun it.
#[test]
fn cch_topology_stores_nothing_per_triangle() {
    let base = RegionConfig::paper_scale();
    // Four times the paper-scale towns in release; debug builds (tier-1)
    // keep the paper-scale map, which holds the same per-item budget.
    let mult = if cfg!(debug_assertions) { 1 } else { 4 };
    let cfg = RegionConfig {
        n_towns: base.n_towns * mult,
        town_size: (20, 20),
        region_extent_m: base.region_extent_m * (mult as f64).sqrt(),
        extra_highways: base.extra_highways * mult,
        ..base
    };
    let g = region_network(&cfg, 2020);
    let topo = CchTopology::build(&g, &CchConfig::default());
    let (forward, reverse) = triangle_links(&topo);
    assert!(forward == reverse, "dependents diverged on the region");
    // Every triangle of `triangles_of`, filed under both its supports.
    let triangles = forward.len() / 2;
    let per_arc = 4 + 4 + 8; // originals offset, segment and down-list entries
    let per_edge = 2 * 4; // the edge under its arc, the arc of the edge
    let per_vertex = 6 * 4; // rank, vertex of the rank, two segment bounds, two down-list bounds
    let budget = per_arc * topo.arc_count()
        + topo.arc_count() / 4 // one 4-byte rank hint per 16 segment slots
        + per_edge * g.edge_count()
        + per_vertex * g.vertex_count()
        + 64;
    assert!(
        topo.heap_bytes() + 4 * triangles > budget,
        "the guard must bite: 4 more bytes per triangle would fit the budget"
    );
    assert!(
        topo.heap_bytes() <= budget,
        "topology holds {} B, budget {} B ({} triangles, {} arcs)",
        topo.heap_bytes(),
        budget,
        triangles,
        topo.arc_count()
    );
}

/// A customization holds one 8-byte weight and one 4-byte expansion
/// word per arc — a second per-arc column cannot come back unnoticed —
/// plus its custom weight vector and the log of its last sparse pass
/// (4 bytes per changed edge and per recomputed arc).
#[test]
fn cch_customization_stays_at_twelve_bytes_per_arc() {
    let g = region_network(&RegionConfig::small_test(), 7);
    let topo = Arc::new(CchTopology::build(&g, &CchConfig::default()));
    let budget = |cch: &Cch, custom_edges: usize, log: usize| {
        let bytes = cch.heap_bytes();
        let budget = 12 * topo.arc_count() + 8 * custom_edges + 4 * log;
        assert!(
            bytes <= budget,
            "customization holds {bytes} B, budget {budget} B"
        );
    };
    budget(&topo.customize(&g, &CostModel::TravelTime), 0, 0);
    let weights: Vec<f64> = (0..g.edge_count()).map(|i| 1.0 + (i % 5) as f64).collect();
    let mut custom = topo.customize_weights(&g, &weights);
    budget(&custom, g.edge_count(), 0);
    let updates: Vec<(EdgeId, f64)> = (0..g.edge_count() as u32)
        .step_by(11)
        .map(|e| (EdgeId(e), 9.5))
        .collect();
    let recomputed = custom.apply_weight_delta(&updates);
    assert!(recomputed > 0);
    budget(&custom, g.edge_count(), updates.len() + recomputed);
}

/// A fixed deterministic grid-ish graph for the directed unit cases.
fn fixed_graph() -> Graph {
    let coords: Vec<(f64, f64)> = (0..8)
        .map(|i| (((i * 137) % 700) as f64, ((i * 311) % 900) as f64))
        .collect();
    let edges: Vec<(usize, usize, u32)> = vec![
        (0, 1, 13),
        (1, 2, 7),
        (2, 3, 22),
        (3, 0, 5),
        (1, 4, 31),
        (4, 5, 9),
        (5, 6, 17),
        (6, 7, 3),
        (7, 4, 11),
        (2, 6, 29),
        (5, 1, 19),
        (0, 7, 41),
        (7, 3, 23),
        (3, 5, 37),
    ];
    build_graph(8, &coords, &edges, false, mixed_categories)
}

#[test]
fn cch_partial_empty_delta_is_a_noop() {
    let g = fixed_graph();
    let topo = Arc::new(CchTopology::build(&g, &CchConfig::default()));
    let (mut partial, mut weights) = live(&g, &topo);
    assert_eq!(partial.apply_weight_delta(&[]), 0);
    step(
        &g,
        &topo,
        &mut partial,
        &mut weights,
        &[],
        true,
        "empty delta",
    );
}

#[test]
fn cch_partial_single_edge_delta_is_exact() {
    let g = fixed_graph();
    let topo = Arc::new(CchTopology::build(&g, &CchConfig::default()));
    let (mut partial, mut weights) = live(&g, &topo);
    let updates = speed_updates(&g, &[(3, 4.5)]);
    step(
        &g,
        &topo,
        &mut partial,
        &mut weights,
        &updates,
        true,
        "single edge",
    );
}

#[test]
fn cch_partial_duplicate_edges_last_wins() {
    let g = fixed_graph();
    let topo = Arc::new(CchTopology::build(&g, &CchConfig::default()));
    let (mut partial, mut weights) = live(&g, &topo);
    // The batch names edge 2 three times; the stored weight — and so the
    // customization — must carry the *last* value only.
    let updates = speed_updates(&g, &[(2, 55.0), (5, 70.0), (2, 18.0), (2, 96.0)]);
    step(
        &g,
        &topo,
        &mut partial,
        &mut weights,
        &updates,
        true,
        "duplicate last-wins",
    );
    let last = travel_time(&g, EdgeId(2), 96.0);
    assert_eq!(
        partial.custom_weights().unwrap()[2].to_bits(),
        last.to_bits()
    );
}

#[test]
fn cch_partial_zero_and_huge_weights_are_exact() {
    let g = fixed_graph();
    let topo = Arc::new(CchTopology::build(&g, &CchConfig::default()));
    let (mut partial, mut weights) = live(&g, &topo);
    // A free edge and one no route wants, both still finite.
    let updates = [(EdgeId(0), 0.0), (EdgeId(1), 1e12)];
    step(
        &g,
        &topo,
        &mut partial,
        &mut weights,
        &updates,
        true,
        "zero and huge",
    );
    // Echoing the stored weights back is a pure no-op: nothing is
    // seeded, so nothing is recomputed.
    assert_eq!(partial.apply_weight_delta(&updates), 0);
    // A superset delta carrying echoes is harmless: only the moved
    // entry seeds, and the result is still a full customization.
    let superset = [(EdgeId(0), 0.0), (EdgeId(1), 1e12), (EdgeId(4), 0.0)];
    step(
        &g,
        &topo,
        &mut partial,
        &mut weights,
        &superset,
        true,
        "superset with echoes",
    );
}

#[test]
fn cch_partial_all_edges_delta_is_exact() {
    let g = fixed_graph();
    let topo = Arc::new(CchTopology::build(&g, &CchConfig::default()));
    let (mut partial, mut weights) = live(&g, &topo);
    let drawn: Vec<(usize, f64)> = (0..g.edge_count())
        .map(|i| (i, 5.0 + (i as f64) * 3.7))
        .collect();
    let updates = speed_updates(&g, &drawn);
    step(
        &g,
        &topo,
        &mut partial,
        &mut weights,
        &updates,
        true,
        "all edges",
    );
}

#[test]
fn cch_partial_chained_epochs_on_fixed_graph_are_exact() {
    let g = fixed_graph();
    let topo = Arc::new(CchTopology::build(&g, &CchConfig::default()));
    let (mut partial, mut weights) = live(&g, &topo);
    // Many small deltas in sequence without ever re-customizing from
    // scratch: drift must not accumulate, the last step still checks
    // against Dijkstra.
    for round in 0..12usize {
        let updates = speed_updates(&g, &[(round, 3.0 + round as f64 * 11.3)]);
        let what = format!("chained step {round}");
        step(
            &g,
            &topo,
            &mut partial,
            &mut weights,
            &updates,
            round == 11,
            &what,
        );
    }
}

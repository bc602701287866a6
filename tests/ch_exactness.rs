//! Property-test harness locking in contraction-hierarchy exactness.
//!
//! A hierarchy is only an optimisation if it can never change an answer.
//! These properties run the CH and CCH engines through every regime of
//! [`common::regimes`] on random graphs ([`common::GraphCase`], whose
//! failures shrink to a small graph) and require **bit-identical costs**
//! to plain Dijkstra; the engine recomputes hierarchy costs left to
//! right over the unpacked original edges, the same fold order as
//! Dijkstra's relaxation chain.
//!
//! Covered regimes: one-to-one `shortest_path` and the cost probe, with
//! unpacked shortcuts valid and contiguous under both graph metrics; full
//! Yen enumerations, including the serving CH + ALT engine (the initial
//! path on the CH, every spur search on ALT); constrained searches under
//! random banned sets, which never dispatch to a hierarchy (a banned edge
//! may hide inside a shortcut); `CostModel::Custom` slices and
//! interleaved metrics, where the engine must fall back to plain
//! Dijkstra's very path; disconnected components; the CCH through rounds
//! of live weight perturbation, and its gate: a customization serves the
//! bitwise-equal vector only; and a CCH over a vector with zero entries,
//! whose paths stay simple, through the engine and through its public
//! view (every regime asserts simple paths). On directed multigraphs the
//! structure is held too: every CCH and CH arc leads from a vertex to an
//! elimination-tree ancestor (what the query walk relies on), and the CH
//! keeps exactly the arcs at their Dijkstra distance with both legs of
//! every kept shortcut. Deterministic companions: a hierarchy written to
//! the text format and read back serves the same paths, and the index
//! stays at 16 bytes per search slot.

use std::collections::HashSet;
use std::sync::Arc;

use pathrank::spatial::algo::cch::{CchConfig, CchTopology};
use pathrank::spatial::algo::ch::{
    ChArcKind, ChConfig, ChSearch, ContractionHierarchy, HierarchyView,
};
use pathrank::spatial::algo::engine::{QueryEngine, SearchBackend};
use pathrank::spatial::algo::landmarks::LandmarkMetric;
use pathrank::spatial::graph::{CostModel, VertexId};
use pathrank_testkit::prelude::*;

mod common;
use common::{
    assert_backends_agree, custom_weights, integer_times, live_weights, reference_cost, regimes,
    rural, Backends, GraphCase, BACKENDS, MAX_VERTICES,
};

/// The hierarchies: the metric-built CH and the customizable CCH.
const HIERARCHIES: &[SearchBackend] = &[SearchBackend::Ch, SearchBackend::Cch];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn ch_one_to_one_costs_bit_identical_to_dijkstra(case in GraphCase::new(rural)) {
        regimes::one_to_one(&case, LandmarkMetric::Length, HIERARCHIES);
    }

    #[test]
    fn ch_yen_cost_sequences_bit_identical(case in GraphCase::new(rural), k in 1usize..12) {
        regimes::yen(&case, k, HIERARCHIES)?;
    }

    #[test]
    fn ch_constrained_searches_fall_back_and_respect_bans(
        case in GraphCase::new(rural),
        banned_v in collection::vec(0usize..MAX_VERTICES, 0..4),
        banned_e in collection::vec(0usize..64, 0..8),
    ) {
        regimes::constrained(&case, &banned_v, &banned_e, HIERARCHIES)?;
    }

    #[test]
    fn ch_custom_cost_slices_engage_fallback(case in GraphCase::new(rural), salt in 1u32..40) {
        regimes::custom_slice(&case, salt, HIERARCHIES);
    }

    /// Zero entries in a `Custom` vector: the CCH's unpacked walks have
    /// their zero-cost cycles cut, so its paths stay simple.
    #[test]
    fn cch_zero_weight_paths_are_simple(
        case in GraphCase::new(rural),
        salt in 1u32..40,
        zeros in 1u32..6,
    ) {
        regimes::zero_weights(&case, salt, zeros, HIERARCHIES);
    }

    #[test]
    fn ch_interleaved_metrics_never_leak_between_queries(case in GraphCase::new(rural)) {
        regimes::interleaved(&case, HIERARCHIES);
    }

    /// Shortcut unpacking under the other graph metric: hierarchies built
    /// for travel time (integer here, twice the length) return valid
    /// contiguous chains of real edges, no leg dropped, duplicated or
    /// reordered, costing what the probe says.
    #[test]
    fn ch_unpacked_paths_are_contiguous_edge_sequences(case in GraphCase::new(integer_times)) {
        regimes::one_to_one(&case, LandmarkMetric::TravelTime, HIERARCHIES);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The CCH stays exact through rounds of live weight perturbation:
    /// after every re-customization on the fixed topology, it serves the
    /// round's vector bit-identically to Dijkstra, and no other engine
    /// does.
    #[test]
    fn cch_costs_bit_identical_across_perturbation_rounds(
        case in GraphCase::new(rural),
        salts in collection::vec(0u64..1000, 2..4),
    ) {
        let g = case.graph();
        let mut b = Backends::build(&g, LandmarkMetric::Length);
        for (round, &salt) in salts.iter().enumerate() {
            let live = live_weights(&g, salt);
            b.cch = Arc::new(b.topo.customize_weights(&g, &live));
            assert_backends_agree(&b, &BACKENDS, CostModel::Custom(&live), &format!("round {round}"));
            // The customization covers its vector only.
            let cch = b.engine(SearchBackend::Cch);
            prop_assert_eq!(cch.backend_for(CostModel::Length), SearchBackend::Plain);
            prop_assert_eq!(cch.backend_for(CostModel::TravelTime), SearchBackend::Plain);
        }
    }

    /// `CostModel::Custom` slices are the CCH's home turf: a
    /// customization built from exactly that weight vector serves it,
    /// gated bitwise; a slice that differs in one entry falls back.
    #[test]
    fn cch_custom_weight_vectors_bit_identical(case in GraphCase::new(rural), salt in 1u32..40) {
        let g = case.graph();
        prop_assume!(g.edge_count() > 0);
        let mut b = Backends::build(&g, LandmarkMetric::Length);
        let custom = custom_weights(g.edge_count(), salt);
        b.cch = Arc::new(b.topo.customize_weights(&g, &custom));
        prop_assert_eq!(b.resolves_to(SearchBackend::Cch, CostModel::Custom(&custom)), SearchBackend::Cch);
        assert_backends_agree(&b, &BACKENDS, CostModel::Custom(&custom), "served vector");
        let mut other = custom.clone();
        other[0] += 1.0;
        prop_assert_eq!(b.resolves_to(SearchBackend::Cch, CostModel::Custom(&other)), SearchBackend::Plain);
        assert_backends_agree(&b, &BACKENDS, CostModel::Custom(&other), "other vector");
    }
}

/// The walk's precondition: every arc of `view` joins a vertex to one
/// of its ancestors in the elimination tree, found by climbing parents
/// from the lower end (by `rank`) until the higher end's rank.
fn assert_arcs_follow_the_tree(view: HierarchyView<'_>, rank: &[u32], what: &str) {
    for arc in view.arcs() {
        let r = |v: VertexId| rank[v.index()];
        let (low, high) = if r(arc.from) < r(arc.to) {
            (arc.from, arc.to)
        } else {
            (arc.to, arc.from)
        };
        let mut x = low;
        while r(x) < r(high) {
            x = view
                .parent(x)
                .unwrap_or_else(|| panic!("{what}: {low:?} is a root below {high:?}"));
        }
        assert_eq!(
            x, high,
            "{what}: arc {:?} -> {:?} leaves the tree",
            arc.from, arc.to
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// On directed multigraphs (one-way and parallel edges), every arc
    /// of the CCH topology and of the metric-built CH leads from a
    /// vertex to an elimination-tree ancestor, and both share the order.
    #[test]
    fn hierarchy_arcs_lead_to_tree_ancestors(case in GraphCase::multigraph(rural)) {
        let g = case.graph();
        let topo = Arc::new(CchTopology::build(&g, &CchConfig { threads: 2 }));
        let cch = topo.customize(&g, &CostModel::Length);
        assert_arcs_follow_the_tree(cch.view(), topo.ranks(), "cch");
        let cfg = ChConfig { threads: 2 };
        let ch = ContractionHierarchy::build(&g, LandmarkMetric::Length, &cfg);
        assert_arcs_follow_the_tree(ch.view(), ch.ranks(), "ch");
        prop_assert_eq!(topo.ranks(), ch.ranks());
    }

    /// The CH keeps the arcs its perfect customization left alone: on
    /// integer weights every kept arc weighs exactly the distance between
    /// its ends, every dropped arc of the topology weighed more after the
    /// plain customization (or `+∞`), and both legs of every kept
    /// shortcut are kept.
    #[test]
    fn ch_keeps_the_arcs_at_their_distance_and_their_legs(case in GraphCase::multigraph(rural)) {
        let g = case.graph();
        let cfg = ChConfig { threads: 2 };
        let ch = ContractionHierarchy::build(&g, LandmarkMetric::Length, &cfg);
        let topo = Arc::new(CchTopology::build(&g, &CchConfig { threads: 2 }));
        let cch = topo.customize(&g, &CostModel::Length);
        let mut oracle = QueryEngine::new(&g);
        let mut dist = |s: VertexId, t: VertexId| {
            oracle.shortest_path_cost(s, t, CostModel::Length).unwrap_or(f64::INFINITY)
        };
        let kept: HashSet<(VertexId, VertexId)> = ch.arcs().map(|a| (a.from, a.to)).collect();
        for arc in ch.arcs() {
            let d = dist(arc.from, arc.to);
            let (from, to) = (arc.from, arc.to);
            prop_assert_eq!(arc.weight.to_bits(), d.to_bits(), "kept {:?} -> {:?}", from, to);
            if let ChArcKind::Shortcut(mid) = arc.kind {
                prop_assert!(kept.contains(&(arc.from, mid)) && kept.contains(&(mid, arc.to)));
            }
        }
        for arc in cch.view().arcs().filter(|a| !kept.contains(&(a.from, a.to))) {
            let d = dist(arc.from, arc.to);
            prop_assert!(
                arc.weight > d || arc.weight.is_infinite(),
                "dropped {:?} -> {:?} weighs {}, its distance {}",
                arc.from,
                arc.to,
                arc.weight,
                d
            );
        }
    }

    /// A `Custom` vector with zero entries: the paths a CCH's public view
    /// returns are simple — a cheapest walk can only revisit a vertex
    /// over zero weights, and the view cuts those cycles.
    #[test]
    fn cch_view_paths_are_simple_under_zero_weights(
        case in GraphCase::multigraph(rural),
        salt in 1u32..40,
        zeros in 1u32..6,
    ) {
        let g = case.graph();
        let custom: Vec<f64> = custom_weights(g.edge_count(), salt)
            .into_iter()
            .map(|w| if w <= zeros as f64 { 0.0 } else { w })
            .collect();
        let topo = Arc::new(CchTopology::build(&g, &CchConfig { threads: 2 }));
        let cch = topo.customize_weights(&g, &custom);
        let mut search = ChSearch::default();
        let n = g.vertex_count() as u32;
        for (s, t) in (0..n).flat_map(|s| (0..n).map(move |t| (VertexId(s), VertexId(t)))) {
            if let Some((_, vertices)) = cch.view().query_path(&mut search, s, t) {
                let distinct: HashSet<&VertexId> = vertices.iter().collect();
                prop_assert_eq!(distinct.len(), vertices.len(), "{:?}", vertices);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3000))]

    /// A `Custom` vector with zero entries on directed multigraphs: the
    /// cost `query_path_cost` folds over the unpacked walk, with no cycle
    /// cut, has the bits of the cut path `query_path` returns, which is
    /// simple and costs what plain Dijkstra says.
    #[test]
    fn cch_path_costs_keep_their_bits_with_the_cut_absent(
        case in GraphCase::multigraph(rural),
        salt in 1u32..40,
        zeros in 1u32..6,
    ) {
        let g = case.graph();
        let custom: Vec<f64> = custom_weights(g.edge_count(), salt)
            .into_iter()
            .map(|w| if w <= zeros as f64 { 0.0 } else { w })
            .collect();
        let topo = Arc::new(CchTopology::build(&g, &CchConfig { threads: 2 }));
        let cch = topo.customize_weights(&g, &custom);
        let cost = CostModel::Custom(&custom);
        let mut search = ChSearch::default();
        let n = g.vertex_count() as u32;
        for (s, t) in (0..n).flat_map(|s| (0..n).map(move |t| (VertexId(s), VertexId(t)))) {
            let folded = cch.view().query_path_cost(&mut search, s, t, &custom);
            let Some((edges, vertices)) = cch.view().query_path(&mut search, s, t) else {
                prop_assert_eq!(folded, None);
                continue;
            };
            let distinct: HashSet<&VertexId> = vertices.iter().collect();
            prop_assert_eq!(distinct.len(), vertices.len(), "{:?}", vertices);
            let cut = edges.iter().fold(0.0, |acc, e| acc + custom[e.index()]);
            prop_assert_eq!(folded.map(f64::to_bits), Some(cut.to_bits()));
            prop_assert_eq!(cut.to_bits(), reference_cost(&g, s, t, cost).to_bits());
        }
    }
}

#[test]
fn ch_disconnected_components_stay_exact() {
    regimes::disconnected_components(HIERARCHIES);
}

/// Deterministic companion: a reloaded (text round-tripped) hierarchy
/// keeps serving bit-identical answers through the engine.
#[test]
fn ch_survives_io_roundtrip_on_random_style_graph() {
    use pathrank::spatial::generators::{region_network, RegionConfig};
    use pathrank::spatial::io::{read_ch, write_ch};
    let g = region_network(&RegionConfig::small_test(), 5);
    let ch = ContractionHierarchy::build(&g, LandmarkMetric::Length, &ChConfig::default());
    let mut text = Vec::new();
    write_ch(&ch, &mut text).unwrap();
    let reloaded = Arc::new(read_ch(text.as_slice()).unwrap());
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
/// quarter byte of slot -> rank hints, and 20 per vertex (rank, vertex
/// of the rank, elimination-tree parent, two segment bounds), against a
/// budget of 16 per slot and 24 per vertex. Release builds check the
/// 43k-vertex serving map; debug builds (tier-1) a paper-scale one,
/// which holds the same per-item budget.
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
    let budget = 16 * slots + 24 * g.vertex_count();
    assert!(
        ch.heap_bytes() <= budget,
        "hierarchy holds {} B, budget {budget} B ({slots} slots, {} vertices)",
        ch.heap_bytes(),
        g.vertex_count()
    );
}

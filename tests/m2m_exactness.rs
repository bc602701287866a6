//! Property-test harness locking in many-to-many exactness.
//!
//! A bucket-based [`DistanceTable`] is only an optimisation if it can
//! never change an answer. These properties drive CH-backed batched
//! queries against pairwise plain Dijkstra on random generator graphs
//! and require **bit-identical distances** — not approximate equality.
//! Edge weights are small integers (and travel times exact doubles of
//! them, via a 1.8 km/h speed), so every equal-cost path sums to exactly
//! the same `f64` under any association order and float tie-break noise
//! cannot mask a real divergence — including the raw shortcut-weight
//! sums the bucket algorithm returns.
//!
//! Covered regimes, per the issue:
//! * `DistanceTable` entries vs pairwise Dijkstra over full vertex
//!   cross-products, including unreachable pairs (`INFINITY`) and
//!   diagonal self-pairs (`0.0`);
//! * interleaved `Length`/`TravelTime` metrics on one shared scratch —
//!   alternating tables between two hierarchies must never leak bucket
//!   or label state;
//! * the streamed rows (`prepare_m2m_targets` + `m2m_distances_from`,
//!   the path the route server runs) vs the one-to-all tree;
//! * `CostModel::Custom` and metric-mismatched batched calls must
//!   return `None` (the caller falls back to pairwise searches), asserted at
//!   the engine layer.

use std::sync::Arc;

use pathrank::spatial::algo::cch::{CchConfig, CchTopology};
use pathrank::spatial::algo::ch::{ChConfig, ContractionHierarchy};
use pathrank::spatial::algo::dijkstra::shortest_path;
use pathrank::spatial::algo::landmarks::LandmarkMetric;
use pathrank::spatial::algo::m2m::M2mSearch;
use pathrank::spatial::algo::QueryEngine;
use pathrank::spatial::graph::{CostModel, Graph, VertexId};
use pathrank_testkit::prelude::*;

mod common;
use common::{build_graph, integer_times};

/// Pairwise reference distance under `cost`: plain Dijkstra, `0.0` on
/// the diagonal, `INFINITY` when unreachable — exactly the table's
/// contract.
fn reference(g: &Graph, s: VertexId, t: VertexId, cost: CostModel<'_>) -> f64 {
    if s == t {
        return 0.0;
    }
    shortest_path(g, s, t, cost)
        .map(|p| p.cost(g, cost))
        .unwrap_or(f64::INFINITY)
}

const MAX_N: usize = 10;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn m2m_tables_bit_identical_to_pairwise_dijkstra(
        n in 2usize..MAX_N,
        coords in pathrank_testkit::collection::vec((0.0f64..5000.0, 0.0f64..5000.0), MAX_N..MAX_N + 1),
        edges in pathrank_testkit::collection::vec((0usize..MAX_N, 0usize..MAX_N, 1u32..60), 1..30),
    ) {
        // The full vertex cross-product: unreachable pairs and diagonal
        // self-pairs included, on sparse graphs that are frequently
        // disconnected.
        let g = build_graph(n, &coords, &edges, false, integer_times);
        let ch = Arc::new(ContractionHierarchy::build(
            &g,
            LandmarkMetric::Length,
            &ChConfig { threads: 2, witness_settle_cap: 8 },
        ));
        let mut engine = QueryEngine::new(&g).with_ch(ch);
        let all: Vec<VertexId> = (0..n as u32).map(VertexId).collect();
        let table = engine
            .many_to_many(&all, &all, CostModel::Length)
            .expect("length CH attached");
        prop_assert_eq!(table.shape(), (n, n));
        for (i, &s) in all.iter().enumerate() {
            for (j, &t) in all.iter().enumerate() {
                let expect = reference(&g, s, t, CostModel::Length);
                prop_assert_eq!(
                    expect.to_bits(),
                    table.dist(i, j).to_bits(),
                    "table diverged on {:?}->{:?}: {} vs {}",
                    s, t, expect, table.dist(i, j)
                );
            }
        }
    }

    #[test]
    fn m2m_interleaved_metrics_share_one_scratch_without_leaking(
        n in 2usize..MAX_N,
        coords in pathrank_testkit::collection::vec((0.0f64..5000.0, 0.0f64..5000.0), MAX_N..MAX_N + 1),
        edges in pathrank_testkit::collection::vec((0usize..MAX_N, 0usize..MAX_N, 1u32..60), 1..30),
        rounds in 1usize..4,
    ) {
        // Alternate Length- and TravelTime-metric tables on ONE scratch:
        // every entry of every round must stay bit-identical to pairwise
        // Dijkstra under the round's metric.
        let g = build_graph(n, &coords, &edges, false, integer_times);
        let cfg = ChConfig { threads: 2, witness_settle_cap: 8 };
        let ch_len = ContractionHierarchy::build(&g, LandmarkMetric::Length, &cfg);
        let ch_tt = ContractionHierarchy::build(&g, LandmarkMetric::TravelTime, &cfg);
        let mut search = M2mSearch::new(g.vertex_count());
        let all: Vec<VertexId> = (0..n as u32).map(VertexId).collect();
        for _ in 0..rounds {
            for (ch, cost) in [
                (&ch_len, CostModel::Length),
                (&ch_tt, CostModel::TravelTime),
            ] {
                let table = ch.view().many_to_many(&mut search, &all, &all);
                for (i, &s) in all.iter().enumerate() {
                    for (j, &t) in all.iter().enumerate() {
                        let expect = reference(&g, s, t, cost);
                        prop_assert_eq!(
                            expect.to_bits(),
                            table.dist(i, j).to_bits(),
                            "interleaved {:?} diverged on {:?}->{:?}",
                            cost, s, t
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn m2m_streamed_rows_match_one_to_all_tree(
        n in 2usize..MAX_N,
        coords in pathrank_testkit::collection::vec((0.0f64..5000.0, 0.0f64..5000.0), MAX_N..MAX_N + 1),
        edges in pathrank_testkit::collection::vec((0usize..MAX_N, 0usize..MAX_N, 1u32..60), 1..30),
    ) {
        let g = build_graph(n, &coords, &edges, false, integer_times);
        let ch = Arc::new(ContractionHierarchy::build(
            &g,
            LandmarkMetric::Length,
            &ChConfig { threads: 2, witness_settle_cap: 8 },
        ));
        let mut engine = QueryEngine::new(&g).with_ch(ch);
        let all: Vec<VertexId> = (0..n as u32).map(VertexId).collect();
        prop_assert!(engine.prepare_m2m_targets(&all, CostModel::Length));
        for &s in &all {
            let row = engine
                .m2m_distances_from(s, CostModel::Length)
                .expect("length CH attached")
                .to_vec();
            // Self-distance is 0 on the diagonal entry.
            for (j, &t) in all.iter().enumerate() {
                let expect = reference(&g, s, t, CostModel::Length);
                prop_assert_eq!(
                    expect.to_bits(),
                    row[j].to_bits(),
                    "streamed row diverged on {:?}->{:?}", s, t
                );
            }
            // And against the engine's own one-to-all tree, which must
            // leave the prepared buckets alone.
            let view = engine.one_to_all(s, CostModel::Length);
            for (j, &t) in all.iter().enumerate() {
                if t != s {
                    prop_assert_eq!(
                        view.dist(t).to_bits(),
                        row[j].to_bits(),
                        "streamed row vs one_to_all diverged at {:?}", t
                    );
                }
            }
        }
    }

    #[test]
    fn m2m_custom_and_mismatched_metrics_return_none(
        n in 2usize..MAX_N,
        coords in pathrank_testkit::collection::vec((0.0f64..5000.0, 0.0f64..5000.0), MAX_N..MAX_N + 1),
        edges in pathrank_testkit::collection::vec((0usize..MAX_N, 0usize..MAX_N, 1u32..60), 1..30),
        salt in 1u32..40,
    ) {
        // The metric gate of the batched entry points: a Custom cost
        // slice or a mismatched metric must force the caller onto its
        // pairwise fallback, never a stale table.
        let g = build_graph(n, &coords, &edges, false, integer_times);
        let custom: Vec<f64> = (0..g.edge_count())
            .map(|i| 1.0 + ((i as u32 * salt) % 17) as f64)
            .collect();
        let all: Vec<VertexId> = (0..n as u32).map(VertexId).collect();
        let mut plain = QueryEngine::new(&g);
        prop_assert!(plain.many_to_many(&all, &all, CostModel::Length).is_none());
        let ch = Arc::new(ContractionHierarchy::build(
            &g,
            LandmarkMetric::Length,
            &ChConfig { threads: 2, witness_settle_cap: 8 },
        ));
        let mut engine = QueryEngine::new(&g).with_ch(ch);
        prop_assert!(engine.many_to_many(&all, &all, CostModel::Length).is_some());
        prop_assert!(engine.many_to_many(&all, &all, CostModel::TravelTime).is_none());
        prop_assert!(engine
            .many_to_many(&all, &all, CostModel::Custom(&custom))
            .is_none());
        prop_assert!(!engine.prepare_m2m_targets(&all, CostModel::TravelTime));
        prop_assert!(!engine.prepare_m2m_targets(&all, CostModel::Custom(&custom)));
    }

    /// Batched tables off a customizable CH stay bit-identical to
    /// pairwise Dijkstra through rounds of live weight perturbation.
    /// A live weight is the edge's length times 4, 2 or 1 — its travel
    /// time at 0.9, 1.8 or 3.6 km/h — so even the raw shortcut-weight
    /// sums the bucket algorithm returns are exact.
    #[test]
    fn cch_m2m_tables_bit_identical_across_perturbation_rounds(
        n in 2usize..MAX_N,
        coords in pathrank_testkit::collection::vec((0.0f64..5000.0, 0.0f64..5000.0), MAX_N..MAX_N + 1),
        edges in pathrank_testkit::collection::vec((0usize..MAX_N, 0usize..MAX_N, 1u32..60), 1..30),
        salts in pathrank_testkit::collection::vec(0u64..1000, 2..4),
    ) {
        let g = build_graph(n, &coords, &edges, false, integer_times);
        if g.edge_count() == 0 {
            return Ok(());
        }
        let topo = Arc::new(CchTopology::build(&g, &CchConfig { threads: 2 }));
        let all: Vec<VertexId> = (0..n as u32).map(VertexId).collect();
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
            let mut engine = QueryEngine::new(&g).with_cch(cch);
            // The customization covers its vector only: graph-metric
            // batched calls must hit the caller's fallback, not a
            // wrong-metric table.
            prop_assert!(engine.many_to_many(&all, &all, CostModel::Length).is_none());
            prop_assert!(engine.many_to_many(&all, &all, CostModel::TravelTime).is_none());
            let table = engine
                .many_to_many(&all, &all, cost)
                .expect("live CCH attached");
            for (i, &s) in all.iter().enumerate() {
                for (j, &t) in all.iter().enumerate() {
                    let expect = reference(&g, s, t, cost);
                    prop_assert_eq!(
                        expect.to_bits(),
                        table.dist(i, j).to_bits(),
                        "round {} CCH table diverged on {:?}->{:?}: {} vs {}",
                        round, s, t, expect, table.dist(i, j)
                    );
                }
            }
            prop_assert!(engine.prepare_m2m_targets(&all, cost));
            for &s in &all {
                let row = engine
                    .m2m_distances_from(s, cost)
                    .expect("live CCH attached")
                    .to_vec();
                for (j, &t) in all.iter().enumerate() {
                    prop_assert_eq!(
                        reference(&g, s, t, cost).to_bits(),
                        row[j].to_bits(),
                        "round {} CCH streamed row diverged on {:?}->{:?}", round, s, t
                    );
                }
            }
        }
    }

    /// One engine serving Length off a classic CH and TravelTime off a
    /// CCH, alternating tables on its single shared m2m scratch — no
    /// bucket or label state may leak between the two hierarchies.
    #[test]
    fn cch_interleaved_metrics_share_engine_scratch(
        n in 2usize..MAX_N,
        coords in pathrank_testkit::collection::vec((0.0f64..5000.0, 0.0f64..5000.0), MAX_N..MAX_N + 1),
        edges in pathrank_testkit::collection::vec((0usize..MAX_N, 0usize..MAX_N, 1u32..30), 1..30),
        rounds in 1usize..4,
    ) {
        let g = build_graph(n, &coords, &edges, false, integer_times);
        if g.edge_count() == 0 {
            return Ok(());
        }
        let ch_len = Arc::new(ContractionHierarchy::build(
            &g,
            LandmarkMetric::Length,
            &ChConfig { threads: 2, witness_settle_cap: 8 },
        ));
        let topo = Arc::new(CchTopology::build(&g, &CchConfig { threads: 2 }));
        let cch_tt = Arc::new(topo.customize(&g, &CostModel::TravelTime));
        let mut engine = QueryEngine::new(&g).with_ch(ch_len).with_cch(cch_tt);
        let all: Vec<VertexId> = (0..n as u32).map(VertexId).collect();
        for _ in 0..rounds {
            for cost in [CostModel::Length, CostModel::TravelTime] {
                let table = engine
                    .many_to_many(&all, &all, cost)
                    .expect("each metric has a serving hierarchy");
                for (i, &s) in all.iter().enumerate() {
                    for (j, &t) in all.iter().enumerate() {
                        let expect = reference(&g, s, t, cost);
                        prop_assert_eq!(
                            expect.to_bits(),
                            table.dist(i, j).to_bits(),
                            "interleaved {:?} diverged on {:?}->{:?}",
                            cost, s, t
                        );
                    }
                }
            }
        }
    }
}

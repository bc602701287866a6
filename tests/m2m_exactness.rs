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
//! * the rows as `many_to_many_rows` emits them (the path the route
//!   server runs) vs the one-to-all tree;
//! * `CostModel::Custom` and metric-mismatched batched calls must
//!   return `None` (the caller falls back to pairwise searches), asserted at
//!   the engine layer.

use std::sync::Arc;

use pathrank::spatial::algo::engine::SearchBackend;
use pathrank::spatial::algo::landmarks::LandmarkMetric;
use pathrank::spatial::algo::{ChSearch, QueryEngine};
use pathrank::spatial::graph::{CostModel, VertexId};
use pathrank_testkit::prelude::*;

mod common;
use common::{integer_times, live_weights, reference_cost, Backends, GraphCase};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn m2m_tables_bit_identical_to_pairwise_dijkstra(
        case in GraphCase::new(integer_times),
    ) {
        // The full vertex cross-product: unreachable pairs and diagonal
        // self-pairs included, on sparse graphs that are frequently
        // disconnected.
        let (g, n) = (case.graph(), case.n());
        let mut engine = Backends::build(&g, LandmarkMetric::Length).engine(SearchBackend::Ch);
        let all: Vec<VertexId> = (0..n as u32).map(VertexId).collect();
        let table = engine
            .many_to_many(&all, &all, CostModel::Length)
            .expect("length CH attached");
        prop_assert_eq!(table.shape(), (n, n));
        for (i, &s) in all.iter().enumerate() {
            for (j, &t) in all.iter().enumerate() {
                let expect = reference_cost(&g, s, t, CostModel::Length);
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
        case in GraphCase::new(integer_times),
        rounds in 1usize..4,
    ) {
        // Alternate Length- and TravelTime-metric tables on ONE scratch:
        // every entry of every round must stay bit-identical to pairwise
        // Dijkstra under the round's metric.
        let (g, n) = (case.graph(), case.n());
        let ch_len = Backends::build(&g, LandmarkMetric::Length).ch;
        let ch_tt = Backends::build(&g, LandmarkMetric::TravelTime).ch;
        let mut search = ChSearch::default();
        let all: Vec<VertexId> = (0..n as u32).map(VertexId).collect();
        for _ in 0..rounds {
            for (ch, cost) in [
                (&ch_len, CostModel::Length),
                (&ch_tt, CostModel::TravelTime),
            ] {
                let table = ch.view().many_to_many(&mut search, &all, &all);
                for (i, &s) in all.iter().enumerate() {
                    for (j, &t) in all.iter().enumerate() {
                        let expect = reference_cost(&g, s, t, cost);
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
        case in GraphCase::new(integer_times),
    ) {
        let (g, n) = (case.graph(), case.n());
        let mut engine = Backends::build(&g, LandmarkMetric::Length).engine(SearchBackend::Ch);
        let all: Vec<VertexId> = (0..n as u32).map(VertexId).collect();
        let mut rows = Vec::new();
        let covered = engine.many_to_many_rows(&all, &all, CostModel::Length, |_, row| {
            rows.push(row.to_vec())
        });
        prop_assert!(covered, "length CH attached");
        prop_assert_eq!(rows.len(), n);
        for (&s, row) in all.iter().zip(&rows) {
            // Self-distance is 0 on the diagonal entry.
            for (j, &t) in all.iter().enumerate() {
                let expect = reference_cost(&g, s, t, CostModel::Length);
                prop_assert_eq!(
                    expect.to_bits(),
                    row[j].to_bits(),
                    "streamed row diverged on {:?}->{:?}", s, t
                );
            }
            // And against the engine's own one-to-all tree.
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
        case in GraphCase::new(integer_times),
        salt in 1u32..40,
    ) {
        // The metric gate of the batched entry points: a Custom cost
        // slice or a mismatched metric must force the caller onto its
        // pairwise fallback, never a stale table.
        let (g, n) = (case.graph(), case.n());
        let custom: Vec<f64> = (0..g.edge_count())
            .map(|i| 1.0 + ((i as u32 * salt) % 17) as f64)
            .collect();
        let all: Vec<VertexId> = (0..n as u32).map(VertexId).collect();
        let mut plain = QueryEngine::new(&g);
        prop_assert!(plain.many_to_many(&all, &all, CostModel::Length).is_none());
        let mut engine = Backends::build(&g, LandmarkMetric::Length).engine(SearchBackend::Ch);
        prop_assert!(engine.many_to_many(&all, &all, CostModel::Length).is_some());
        prop_assert!(engine.many_to_many(&all, &all, CostModel::TravelTime).is_none());
        prop_assert!(engine
            .many_to_many(&all, &all, CostModel::Custom(&custom))
            .is_none());
        for cost in [CostModel::TravelTime, CostModel::Custom(&custom)] {
            let mut rows = 0;
            prop_assert!(!engine.many_to_many_rows(&all, &all, cost, |_, _| rows += 1));
            prop_assert_eq!(rows, 0, "{:?} emitted a row", cost);
        }
    }

    /// Batched tables off a customizable CH stay bit-identical to
    /// pairwise Dijkstra through rounds of live weight perturbation.
    /// A live weight is the edge's length times 4, 2 or 1 — its travel
    /// time at 0.9, 1.8 or 3.6 km/h — so even the raw shortcut-weight
    /// sums the bucket algorithm returns are exact.
    #[test]
    fn cch_m2m_tables_bit_identical_across_perturbation_rounds(
        case in GraphCase::new(integer_times),
        salts in collection::vec(0u64..1000, 2..4),
    ) {
        let (g, n) = (case.graph(), case.n());
        if g.edge_count() == 0 {
            return Ok(());
        }
        let mut b = Backends::build(&g, LandmarkMetric::Length);
        let all: Vec<VertexId> = (0..n as u32).map(VertexId).collect();
        for (round, &salt) in salts.iter().enumerate() {
            let live = live_weights(&g, salt);
            let cost = CostModel::Custom(&live);
            b.cch = Arc::new(b.topo.customize_weights(&g, &live));
            let mut engine = b.engine(SearchBackend::Cch);
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
                    let expect = reference_cost(&g, s, t, cost);
                    prop_assert_eq!(
                        expect.to_bits(),
                        table.dist(i, j).to_bits(),
                        "round {} CCH table diverged on {:?}->{:?}: {} vs {}",
                        round, s, t, expect, table.dist(i, j)
                    );
                }
            }
            let mut rows = Vec::new();
            let covered = engine.many_to_many_rows(&all, &all, cost, |_, row| {
                rows.push(row.to_vec())
            });
            prop_assert!(covered, "live CCH attached");
            for (&s, row) in all.iter().zip(&rows) {
                for (j, &t) in all.iter().enumerate() {
                    prop_assert_eq!(
                        reference_cost(&g, s, t, cost).to_bits(),
                        row[j].to_bits(),
                        "round {} CCH streamed row diverged on {:?}->{:?}", round, s, t
                    );
                }
            }
        }
    }

    /// One engine serving Length off a classic CH and TravelTime off a
    /// CCH, alternating tables on its single shared scratch — no
    /// bucket or label state may leak between the two hierarchies.
    #[test]
    fn cch_interleaved_metrics_share_engine_scratch(
        case in GraphCase::new(integer_times),
        rounds in 1usize..4,
    ) {
        let (g, n) = (case.graph(), case.n());
        if g.edge_count() == 0 {
            return Ok(());
        }
        let ch_len = Backends::build(&g, LandmarkMetric::Length).ch;
        let cch_tt = Backends::build(&g, LandmarkMetric::TravelTime).cch;
        let mut engine = QueryEngine::new(&g).with_ch(ch_len).with_cch(cch_tt);
        let all: Vec<VertexId> = (0..n as u32).map(VertexId).collect();
        for _ in 0..rounds {
            for cost in [CostModel::Length, CostModel::TravelTime] {
                let table = engine
                    .many_to_many(&all, &all, cost)
                    .expect("each metric has a serving hierarchy");
                for (i, &s) in all.iter().enumerate() {
                    for (j, &t) in all.iter().enumerate() {
                        let expect = reference_cost(&g, s, t, cost);
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

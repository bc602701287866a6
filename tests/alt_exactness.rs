//! Property-test harness locking in ALT exactness.
//!
//! A landmark heuristic is only an optimisation if it can never change an
//! answer. These properties run the ALT engine through every regime of
//! [`common::regimes`] on random graphs ([`common::GraphCase`], whose
//! failures shrink to a small graph) and require **bit-identical costs**
//! to plain Dijkstra. Vertex coordinates are drawn independently of the
//! weights, so the Euclidean floor inside the ALT heuristic is
//! mis-scaled and the landmark bounds do the work (including proving
//! targets unreachable through infinite bounds).
//!
//! Covered regimes: one-to-one A* and the cost probe; full Yen
//! enumerations (every spur search ALT-guided); constrained searches
//! under random banned sets (bans only shrink the graph, so full-graph
//! lower bounds stay admissible); `CostModel::Custom` slices and
//! interleaved metrics, where the landmarks are invalid and the engine
//! must fall back to plain Dijkstra's very path; disconnected components.

use pathrank::spatial::algo::engine::SearchBackend;
use pathrank::spatial::algo::landmarks::LandmarkMetric;
use pathrank_testkit::prelude::*;

mod common;
use common::{regimes, rural, GraphCase, MAX_VERTICES};

const ALT: &[SearchBackend] = &[SearchBackend::Alt];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn alt_one_to_one_costs_bit_identical_to_dijkstra(case in GraphCase::new(rural)) {
        regimes::one_to_one(&case, LandmarkMetric::Length, ALT);
    }

    #[test]
    fn alt_yen_cost_sequences_bit_identical(case in GraphCase::new(rural), k in 1usize..12) {
        regimes::yen(&case, k, ALT)?;
    }

    #[test]
    fn alt_constrained_searches_respect_bans_and_match_dijkstra(
        case in GraphCase::new(rural),
        banned_v in collection::vec(0usize..MAX_VERTICES, 0..4),
        banned_e in collection::vec(0usize..64, 0..8),
    ) {
        regimes::constrained(&case, &banned_v, &banned_e, ALT)?;
    }

    #[test]
    fn alt_custom_cost_slices_engage_fallback(case in GraphCase::new(rural), salt in 1u32..40) {
        regimes::custom_slice(&case, salt, ALT);
    }

    #[test]
    fn alt_interleaved_metrics_never_leak_between_queries(case in GraphCase::new(rural)) {
        regimes::interleaved(&case, ALT);
    }
}

#[test]
fn alt_disconnected_components_stay_exact() {
    regimes::disconnected_components(ALT);
}

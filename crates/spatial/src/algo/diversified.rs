//! Diversified top-k shortest paths — the paper's **D-TkDI** training-data
//! strategy.
//!
//! Plain top-k shortest paths in a road network are nearly identical to each
//! other (they differ by one detour around a single block), which makes poor
//! training data: all candidates carry almost the same label. The
//! diversified variant enumerates loopless shortest paths in cost order (via
//! [`super::yen::YenIter`]) but **keeps** a path only if its similarity with
//! every already-kept path does not exceed a threshold. The result is a
//! compact set of genuinely different alternatives, which the paper shows
//! trains a markedly better ranking model (Tables 1 and 2).
//!
//! The selection runs on the caller's engine,
//! [`QueryEngine::diversified_top_k`]; this module holds its parameters.
//!
//! [`QueryEngine::diversified_top_k`]: crate::algo::engine::QueryEngine::diversified_top_k

use crate::similarity::EdgeWeight;

/// Parameters of diversified top-k selection.
#[derive(Debug, Clone, Copy)]
pub struct DiversifiedConfig {
    /// Number of paths to keep.
    pub k: usize,
    /// Maximum allowed weighted-Jaccard similarity between any kept pair.
    /// `1.0` disables diversification (keeps the plain top-k), `0.0` demands
    /// edge-disjoint paths.
    pub threshold: f64,
    /// Upper bound on how many enumerated paths may be *examined* before
    /// giving up; bounds worst-case work when fewer than `k` diverse paths
    /// exist.
    pub max_scan: usize,
    /// Edge weighting for the similarity test.
    pub weight: EdgeWeight,
}

impl DiversifiedConfig {
    /// A mild default for `k` paths: similarity threshold 0.8,
    /// length-weighted Jaccard, scanning at most `40 × k` candidates. (The
    /// paper-style setting is `CandidateConfig::paper_default` in
    /// `pathrank-core`: k = 10, threshold 0.5, scan 400.)
    pub fn with_k(k: usize) -> Self {
        DiversifiedConfig {
            k,
            threshold: 0.8,
            max_scan: 40 * k.max(1),
            weight: EdgeWeight::Length,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algo::engine::QueryEngine;
    use crate::generators::{grid_network, GridConfig};
    use crate::graph::{CostModel, Graph, VertexId};
    use crate::path::Path;
    use crate::similarity::weighted_jaccard;

    fn setup() -> (Graph, VertexId, VertexId) {
        let g = grid_network(&GridConfig::small_test(), 7);
        let t = VertexId((g.vertex_count() - 1) as u32);
        (g, VertexId(0), t)
    }

    #[test]
    fn threshold_one_equals_plain_top_k() {
        let (g, s, t) = setup();
        let cfg = DiversifiedConfig {
            k: 5,
            threshold: 1.0,
            max_scan: 1000,
            weight: EdgeWeight::Length,
        };
        let div = QueryEngine::new(&g).diversified_top_k(s, t, CostModel::Length, &cfg);
        let plain = QueryEngine::new(&g).yen_k_shortest(s, t, CostModel::Length, 5);
        assert_eq!(div.len(), plain.len());
        for ((dp, dc), (pp, pc)) in div.iter().zip(plain.iter()) {
            assert!(dp.same_route(pp));
            assert!((dc - pc).abs() < 1e-12);
        }
    }

    #[test]
    fn all_kept_pairs_respect_threshold() {
        let (g, s, t) = setup();
        let cfg = DiversifiedConfig::with_k(6);
        let kept = QueryEngine::new(&g).diversified_top_k(s, t, CostModel::Length, &cfg);
        assert!(!kept.is_empty());
        for i in 0..kept.len() {
            for j in (i + 1)..kept.len() {
                let sim = weighted_jaccard(&g, &kept[i].0, &kept[j].0, cfg.weight);
                assert!(
                    sim <= cfg.threshold + 1e-9,
                    "pair ({i},{j}) violates threshold: {sim}"
                );
            }
        }
    }

    #[test]
    fn diversified_is_more_diverse_than_plain() {
        let (g, s, t) = setup();
        let k = 5;
        let plain = QueryEngine::new(&g).yen_k_shortest(s, t, CostModel::Length, k);
        let cfg = DiversifiedConfig {
            k,
            threshold: 0.5,
            max_scan: 2000,
            weight: EdgeWeight::Length,
        };
        let div = QueryEngine::new(&g).diversified_top_k(s, t, CostModel::Length, &cfg);
        let mean_sim = |set: &[(Path, f64)]| {
            let mut total = 0.0;
            let mut count = 0usize;
            for i in 0..set.len() {
                for j in (i + 1)..set.len() {
                    total += weighted_jaccard(&g, &set[i].0, &set[j].0, EdgeWeight::Length);
                    count += 1;
                }
            }
            if count == 0 {
                0.0
            } else {
                total / count as f64
            }
        };
        assert!(
            mean_sim(&div) <= mean_sim(&plain) + 1e-12,
            "diversified set must not be more self-similar than the plain top-k"
        );
    }

    #[test]
    fn costs_stay_sorted_and_first_is_optimal() {
        let (g, s, t) = setup();
        let cfg = DiversifiedConfig::with_k(5);
        let kept = QueryEngine::new(&g).diversified_top_k(s, t, CostModel::Length, &cfg);
        let best = QueryEngine::new(&g).yen_k_shortest(s, t, CostModel::Length, 1);
        assert!(
            kept[0].0.same_route(&best[0].0),
            "cheapest path is always kept"
        );
        for w in kept.windows(2) {
            assert!(w[0].1 <= w[1].1 + 1e-9);
        }
    }

    #[test]
    fn k_zero_and_max_scan_bound() {
        let (g, s, t) = setup();
        let cfg = DiversifiedConfig {
            k: 0,
            threshold: 0.5,
            max_scan: 10,
            weight: EdgeWeight::Length,
        };
        assert!(QueryEngine::new(&g)
            .diversified_top_k(s, t, CostModel::Length, &cfg)
            .is_empty());
        // With an impossible threshold and a small scan budget we still
        // terminate quickly with just the first path.
        let cfg = DiversifiedConfig {
            k: 50,
            threshold: 0.0,
            max_scan: 5,
            weight: EdgeWeight::Length,
        };
        let kept = QueryEngine::new(&g).diversified_top_k(s, t, CostModel::Length, &cfg);
        assert!(!kept.is_empty() && kept.len() <= 5);
    }
}

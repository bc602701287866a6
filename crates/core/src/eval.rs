//! Ranking evaluation and non-learning baselines.
//!
//! Evaluation follows the paper: for every test trajectory, the candidate
//! set is scored by the model; MAE/MARE pool all candidates across queries,
//! while Kendall τ and Spearman ρ are computed per query (a ranking is only
//! meaningful within one candidate set) and averaged.

use std::fmt;

use pathrank_spatial::graph::{CostModel, Graph};

use crate::candidates::TrainingGroup;
use crate::metrics::{kendall_tau, mae, mare, spearman_rho};
use crate::model::PathRankModel;

/// The paper's four metrics for one evaluation run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EvalResult {
    /// Mean absolute error.
    pub mae: f64,
    /// Mean absolute relative error.
    pub mare: f64,
    /// Mean per-query Kendall τ-b.
    pub tau: f64,
    /// Mean per-query Spearman ρ.
    pub rho: f64,
    /// Number of ranking queries evaluated.
    pub n_queries: usize,
}

impl fmt::Display for EvalResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "MAE {:.4}  MARE {:.4}  tau {:.4}  rho {:.4}  ({} queries)",
            self.mae, self.mare, self.tau, self.rho, self.n_queries
        )
    }
}

/// Evaluates arbitrary per-group scorers (models or baselines).
///
/// `scorer` receives a group and returns one estimated score per candidate,
/// in order. Groups with fewer than two candidates are skipped for τ/ρ but
/// still counted in MAE/MARE.
pub fn evaluate_with(
    groups: &[TrainingGroup],
    mut scorer: impl FnMut(&TrainingGroup) -> Vec<f64>,
) -> EvalResult {
    assert!(!groups.is_empty(), "evaluation needs at least one group");
    let mut all_pred = Vec::new();
    let mut all_truth = Vec::new();
    let mut tau_sum = 0.0;
    let mut rho_sum = 0.0;
    let mut rank_queries = 0usize;

    for group in groups {
        if group.is_empty() {
            continue;
        }
        let pred = scorer(group);
        assert_eq!(pred.len(), group.len(), "scorer must score every candidate");
        let truth: Vec<f64> = group.candidates.iter().map(|c| c.score).collect();
        if pred.len() >= 2 {
            tau_sum += kendall_tau(&pred, &truth);
            rho_sum += spearman_rho(&pred, &truth);
            rank_queries += 1;
        }
        all_pred.extend_from_slice(&pred);
        all_truth.extend(truth);
    }
    assert!(!all_pred.is_empty(), "no scored candidates");
    EvalResult {
        mae: mae(&all_pred, &all_truth),
        mare: mare(&all_pred, &all_truth),
        tau: if rank_queries > 0 {
            tau_sum / rank_queries as f64
        } else {
            0.0
        },
        rho: if rank_queries > 0 {
            rho_sum / rank_queries as f64
        } else {
            0.0
        },
        n_queries: rank_queries,
    }
}

/// Evaluates a trained PathRank model on test groups.
pub fn evaluate_model(model: &PathRankModel, groups: &[TrainingGroup]) -> EvalResult {
    evaluate_with(groups, |group| {
        let paths: Vec<Vec<u32>> = group
            .candidates
            .iter()
            .map(|c| c.path.vertices().iter().map(|v| v.0).collect())
            .collect();
        let scores = model.score_paths(&paths);
        scores.into_iter().map(f64::from).collect()
    })
}

/// Non-learning baselines (extension experiment B1): classic routing
/// objectives recast as ranking scores.
pub mod baselines {
    use super::*;

    /// Scores each candidate by `min_length_in_group / length(candidate)`:
    /// the shortest path gets 1, longer paths decay. This is "rank by
    /// shortest path" expressed as a `[0, 1]` score.
    pub fn shortest_length_ratio(g: &Graph, group: &TrainingGroup) -> Vec<f64> {
        ratio_scores(group, |c| c.cost(g, CostModel::Length))
    }

    /// Same as [`shortest_length_ratio`] but on free-flow travel time
    /// ("rank by fastest path").
    pub fn fastest_time_ratio(g: &Graph, group: &TrainingGroup) -> Vec<f64> {
        ratio_scores(group, |c| c.cost(g, CostModel::TravelTime))
    }

    /// Equal-weight blend of the length and time baselines.
    pub fn length_time_blend(g: &Graph, group: &TrainingGroup) -> Vec<f64> {
        let a = shortest_length_ratio(g, group);
        let b = fastest_time_ratio(g, group);
        a.iter().zip(b).map(|(x, y)| (x + y) / 2.0).collect()
    }

    fn ratio_scores(
        group: &TrainingGroup,
        cost: impl Fn(&pathrank_spatial::path::Path) -> f64,
    ) -> Vec<f64> {
        let costs: Vec<f64> = group.candidates.iter().map(|c| cost(&c.path)).collect();
        let best = costs.iter().cloned().fold(f64::INFINITY, f64::min);
        costs
            .iter()
            .map(|&c| if c > 0.0 { best / c } else { 0.0 })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::candidates::{generate_groups_with_backends, CandidateConfig, Strategy};
    use pathrank_spatial::generators::{region_network, RegionConfig};
    use pathrank_traj::dataset::TrajectoryDataset;
    use pathrank_traj::simulator::{simulate_fleet, SimulationConfig};

    fn groups() -> (Graph, Vec<TrainingGroup>) {
        let g = region_network(&RegionConfig::small_test(), 50);
        let trips = simulate_fleet(&g, &SimulationConfig::small_test(), 51);
        let paths = trips.into_iter().map(|t| t.path).collect();
        let (paths, _) = TrajectoryDataset { paths }.split(1.0, 52);
        let cfg = CandidateConfig {
            k: 5,
            ..CandidateConfig::paper_default(Strategy::DTkDI)
        };
        let gs =
            generate_groups_with_backends(&g, &paths[..8.min(paths.len())], &cfg, 2, None, None);
        (g, gs)
    }

    #[test]
    fn perfect_scorer_achieves_perfect_metrics() {
        let (_, gs) = groups();
        let r = evaluate_with(&gs, |g| g.candidates.iter().map(|c| c.score).collect());
        assert!(r.mae < 1e-12);
        assert!(r.mare < 1e-12);
        assert!((r.tau - 1.0).abs() < 1e-9, "tau {}", r.tau);
        assert!((r.rho - 1.0).abs() < 1e-9, "rho {}", r.rho);
        assert!(r.n_queries > 0);
    }

    #[test]
    fn inverted_scorer_gets_negative_rank_correlation() {
        let (_, gs) = groups();
        let r = evaluate_with(&gs, |g| {
            g.candidates.iter().map(|c| 1.0 - c.score).collect()
        });
        assert!(r.tau < -0.9, "tau {}", r.tau);
        assert!(r.rho < -0.9, "rho {}", r.rho);
        assert!(r.mae > 0.0);
    }

    #[test]
    fn constant_scorer_is_uninformative() {
        let (_, gs) = groups();
        let r = evaluate_with(&gs, |g| vec![0.5; g.len()]);
        assert_eq!(r.tau, 0.0);
        assert_eq!(r.rho, 0.0);
    }

    #[test]
    fn baselines_are_imperfect_and_oracle_wins() {
        let (g, gs) = groups();
        let oracle = evaluate_with(&gs, |grp| grp.candidates.iter().map(|c| c.score).collect());
        let len_base = evaluate_with(&gs, |grp| baselines::shortest_length_ratio(&g, grp));
        let time_base = evaluate_with(&gs, |grp| baselines::fastest_time_ratio(&g, grp));
        let blend = evaluate_with(&gs, |grp| baselines::length_time_blend(&g, grp));
        // Drivers deviate from both classic objectives by construction
        // (the paper's motivating observation), so no baseline may rank
        // perfectly — and the oracle must dominate all of them.
        for (name, r) in [("len", len_base), ("time", time_base), ("blend", blend)] {
            assert!((-1.0..=1.0).contains(&r.tau), "{name} tau out of range");
            assert!(
                r.tau < 0.999,
                "{name} baseline suspiciously perfect: {}",
                r.tau
            );
            assert!(r.mae > 0.0, "{name} baseline cannot be exact on MAE");
            assert!(oracle.tau > r.tau, "oracle must beat the {name} baseline");
        }
    }

    #[test]
    fn display_formats_all_metrics() {
        let r = EvalResult {
            mae: 0.1,
            mare: 0.2,
            tau: 0.3,
            rho: 0.4,
            n_queries: 9,
        };
        let s = r.to_string();
        for needle in ["0.1000", "0.2000", "0.3000", "0.4000", "9"] {
            assert!(s.contains(needle), "missing {needle} in {s}");
        }
    }

    #[test]
    #[should_panic(expected = "at least one group")]
    fn rejects_empty_groups() {
        let _ = evaluate_with(&[], |_| vec![]);
    }
}

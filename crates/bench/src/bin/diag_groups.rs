//! Diagnostic: candidate-group statistics per training-data strategy.
//!
//! Prints, for TkDI and D-TkDI on the same trajectory set: group sizes,
//! ground-truth label distribution (mean/min/quartiles) and mean pairwise
//! candidate overlap. Useful for checking that the diversified strategy
//! actually has room to diversify on a given network.

use pathrank_bench::Scale;
use pathrank_core::candidates::{trajectory_detour_factors, CandidateConfig, Strategy};
use pathrank_spatial::similarity::{weighted_jaccard, EdgeWeight};

fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx]
}

fn main() {
    let scale = Scale::parse(std::env::args());
    // `--graph FILE` swaps the synthetic region for a real (imported)
    // network; the diagnostics below are identical either way.
    let mut wb = scale.workbench();
    println!(
        "network: {} vertices ({}); {} train trajectories; k = {}",
        wb.graph.vertex_count(),
        scale.graph.as_deref().unwrap_or("synthetic region"),
        wb.train_paths.len(),
        scale.k
    );

    // How far the simulated drivers deviate from the shortest path — the
    // paper's core observation, probed for every group at once through a
    // single CH many-to-many distance table.
    let mut detours = trajectory_detour_factors(&mut wb.query_engine(), &wb.train_paths);
    detours.sort_by(f64::total_cmp);
    println!(
        "trajectory detour factor (len / shortest): mean {:.3}, p50 {:.3}, p90 {:.3}, max {:.3}",
        detours.iter().sum::<f64>() / detours.len().max(1) as f64,
        percentile(&detours, 0.5),
        percentile(&detours, 0.9),
        detours.last().copied().unwrap_or(f64::NAN),
    );

    for strategy in [Strategy::TkDI, Strategy::DTkDI] {
        let ccfg = CandidateConfig {
            k: scale.k,
            ..CandidateConfig::paper_default(strategy)
        };
        // The Workbench's cached ALT table and CH, as every table binary
        // generates its groups.
        let groups = wb.train_groups(&ccfg);

        let sizes: Vec<usize> = groups.iter().map(|g| g.len()).collect();
        let mut labels: Vec<f64> = groups
            .iter()
            .flat_map(|g| g.candidates.iter().map(|c| c.score))
            .collect();
        labels.sort_by(f64::total_cmp);

        // Mean pairwise overlap between candidates within a group
        // (subsample groups to keep this cheap).
        let mut overlap_sum = 0.0;
        let mut overlap_n = 0usize;
        for g in groups.iter().take(40) {
            for i in 0..g.candidates.len() {
                for j in (i + 1)..g.candidates.len() {
                    overlap_sum += weighted_jaccard(
                        &wb.graph,
                        &g.candidates[i].path,
                        &g.candidates[j].path,
                        EdgeWeight::Length,
                    );
                    overlap_n += 1;
                }
            }
        }

        println!("\n== {} ==", strategy.label());
        println!(
            "groups: {}; candidates/group: mean {:.2}, min {}, max {}",
            groups.len(),
            sizes.iter().sum::<usize>() as f64 / sizes.len().max(1) as f64,
            sizes.iter().min().unwrap_or(&0),
            sizes.iter().max().unwrap_or(&0),
        );
        println!(
            "labels: mean {:.3}, p10 {:.3}, p50 {:.3}, p90 {:.3}",
            labels.iter().sum::<f64>() / labels.len().max(1) as f64,
            percentile(&labels, 0.1),
            percentile(&labels, 0.5),
            percentile(&labels, 0.9),
        );
        println!(
            "mean pairwise candidate overlap: {:.3}",
            overlap_sum / overlap_n.max(1) as f64
        );
    }
}

//! Quickstart: the whole PathRank pipeline in one file, on a tiny
//! synthetic region (runs in ~a minute).
//!
//! ```text
//! cargo run --release --example quickstart
//! ```
//!
//! Steps: build a road network → simulate a fleet of drivers with hidden
//! preferences → map-match their GPS traces → generate labelled training
//! data with diversified top-k shortest paths → pre-train node2vec → train
//! PathRank (PR-A2) → rank the candidate paths of an unseen query.

use pathrank::core::candidates::{generate_group_with, CandidateConfig, Strategy};
use pathrank::core::eval::evaluate_model;
use pathrank::core::model::ModelConfig;
use pathrank::core::pipeline::{ExperimentConfig, Workbench};
use pathrank::core::trainer::TrainConfig;

fn main() {
    // 1. Shared environment: network, fleet, map-matched trajectories and
    //    their train/test split.
    //    `small_test` is a two-town region; swap in `paper_scale()` for the
    //    full experiment environment.
    let mut cfg = ExperimentConfig::small_test();
    cfg.sim.n_vehicles = 12;
    cfg.sim.trips_per_vehicle = 8;
    let mut wb = Workbench::new(cfg);
    println!(
        "network: {} vertices, {} edges; {} training / {} test trajectories",
        wb.graph.vertex_count(),
        wb.graph.edge_count(),
        wb.train_paths.len(),
        wb.test_paths.len()
    );

    // 2. Train PathRank PR-A2 with D-TkDI training data.
    let ccfg = CandidateConfig {
        k: 6,
        ..CandidateConfig::paper_default(Strategy::DTkDI)
    };
    let mcfg = ModelConfig::paper_default(32);
    let tcfg = TrainConfig {
        epochs: 6,
        lr: 2e-3,
        ..TrainConfig::default()
    };
    let (result, model) = wb.run_with_model(mcfg, ccfg, tcfg);
    println!("test metrics: {}", result.eval);

    // 3. Rank candidates for one held-out trajectory.
    let trajectory = wb.test_paths[0].clone();
    let group = generate_group_with(&mut wb.query_engine(), &trajectory, &ccfg);
    println!(
        "\nranking {} candidates for query {:?} -> {:?}:",
        group.len(),
        trajectory.source(),
        trajectory.target()
    );
    let mut ranked: Vec<(f64, f64, usize)> = group
        .candidates
        .iter()
        .map(|c| {
            let vertices: Vec<u32> = c.path.vertices().iter().map(|v| v.0).collect();
            (model.score_path(&vertices) as f64, c.score, c.path.len())
        })
        .collect();
    ranked.sort_by(|a, b| b.0.total_cmp(&a.0));
    println!("{:>10} {:>12} {:>6}", "estimated", "ground-truth", "hops");
    for (est, truth, hops) in &ranked {
        println!("{est:>10.4} {truth:>12.4} {hops:>6}");
    }

    // 4. Sanity: the model should still agree with the labels on average.
    let test_group = [group];
    let check = evaluate_model(&model, &test_group);
    println!("\nthis query alone: {check}");
}

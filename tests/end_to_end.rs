//! End-to-end integration: the full PathRank pipeline on a small region,
//! exercising every crate through the public facade.

use pathrank::core::candidates::{CandidateConfig, Strategy};
use pathrank::core::eval::{baselines, evaluate_with};
use pathrank::core::model::{EmbeddingMode, ModelConfig};
use pathrank::core::pipeline::{ExperimentConfig, Workbench};
use pathrank::core::trainer::TrainConfig;

fn medium_config() -> ExperimentConfig {
    let mut cfg = ExperimentConfig::small_test();
    cfg.sim.n_vehicles = 10;
    cfg.sim.trips_per_vehicle = 6;
    cfg
}

fn train_cfg(epochs: usize) -> TrainConfig {
    TrainConfig {
        epochs,
        lr: 2e-3,
        threads: 2,
        ..TrainConfig::default()
    }
}

#[test]
fn full_pipeline_learns_something() {
    let mut wb = Workbench::new(medium_config());
    let ccfg = CandidateConfig {
        k: 6,
        ..CandidateConfig::paper_default(Strategy::DTkDI)
    };
    let result = wb.run(ModelConfig::paper_default(32), ccfg, train_cfg(8));

    // Training loss decreased.
    let losses = &result.report.epoch_losses;
    assert!(losses.last().unwrap() < losses.first().unwrap());
    // Test metrics are in range and the ranking carries positive signal.
    assert!(result.eval.mae < 0.5, "MAE {}", result.eval.mae);
    assert!(result.eval.tau > 0.0, "tau {}", result.eval.tau);
    assert!(result.eval.rho > 0.0, "rho {}", result.eval.rho);
}

#[test]
fn both_strategies_and_variants_run() {
    let mut wb = Workbench::new(ExperimentConfig::small_test());
    for strategy in [Strategy::TkDI, Strategy::DTkDI] {
        for mode in [EmbeddingMode::FrozenPretrained, EmbeddingMode::Trainable] {
            let ccfg = CandidateConfig {
                k: 4,
                ..CandidateConfig::paper_default(strategy)
            };
            let mcfg = ModelConfig {
                embedding_mode: mode,
                ..ModelConfig::paper_default(16)
            };
            let result = wb.run(mcfg, ccfg, train_cfg(2));
            assert!(result.eval.mae.is_finite());
            assert!(result.test_groups > 0);
        }
    }
}

#[test]
fn trained_model_outranks_random_scores() {
    let mut wb = Workbench::new(medium_config());
    let ccfg = CandidateConfig {
        k: 6,
        ..CandidateConfig::paper_default(Strategy::DTkDI)
    };
    let result = wb.run(ModelConfig::paper_default(32), ccfg, train_cfg(8));

    // A deterministic pseudo-random scorer as the floor.
    let test_groups = wb.test_groups(6);
    let random = evaluate_with(&test_groups, |g| {
        (0..g.len())
            .map(|i| ((i * 2654435761) % 1000) as f64 / 1000.0)
            .collect()
    });
    assert!(
        result.eval.tau > random.tau,
        "trained tau {} must beat arbitrary scorer tau {}",
        result.eval.tau,
        random.tau
    );
}

#[test]
fn baselines_are_outperformed_or_matched_on_mae() {
    // Baselines use raw cost ratios which are not calibrated to the
    // weighted-Jaccard scale, so the learned model should at least match
    // them on MAE.
    let mut wb = Workbench::new(medium_config());
    let ccfg = CandidateConfig {
        k: 6,
        ..CandidateConfig::paper_default(Strategy::DTkDI)
    };
    let result = wb.run(ModelConfig::paper_default(32), ccfg, train_cfg(8));

    let g = wb.graph.clone();
    let test_groups = wb.test_groups(6);
    let sp = evaluate_with(&test_groups, |grp| {
        baselines::shortest_length_ratio(&g, grp)
    });
    assert!(
        result.eval.mae <= sp.mae * 1.2,
        "PathRank MAE {} should be competitive with SP baseline {}",
        result.eval.mae,
        sp.mae
    );
}

#[test]
fn map_matching_pipeline_variant_runs() {
    let mut cfg = ExperimentConfig::small_test();
    cfg.sim.n_vehicles = 4;
    cfg.sim.trips_per_vehicle = 4;
    let wb = Workbench::new(cfg);
    assert!(
        wb.train_paths.len() + wb.test_paths.len() > 0,
        "map-matched dataset must not be empty"
    );
}

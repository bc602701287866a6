//! Training loop: synchronous mini-batch SGD with parallel gradient
//! computation.
//!
//! Each mini-batch is split across worker threads; every worker replays the
//! model forward/backward on its samples against the *shared, read-only*
//! parameter store, filling a private gradient store. Workers' gradients
//! are merged, averaged, clipped and applied by Adam. This is exactly
//! mini-batch SGD — parallelism changes wall-clock time, not semantics.

use pathrank_rng::rngs::StdRng;
use pathrank_rng::seq::SliceRandom;
use pathrank_rng::SeedableRng;

use pathrank_nn::optim::{Adam, Optimizer};
use pathrank_nn::params::GradStore;
use pathrank_nn::tape::Tape;
use pathrank_spatial::graph::{CostModel, Graph};

use crate::candidates::TrainingGroup;
use crate::model::PathRankModel;

/// Training hyper-parameters.
#[derive(Debug, Clone)]
pub struct TrainConfig {
    /// Number of passes over the training samples.
    pub epochs: usize,
    /// Adam learning rate.
    pub lr: f32,
    /// Multiplicative learning-rate decay applied after each epoch.
    pub lr_decay: f32,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Global gradient-norm clip (0 disables clipping).
    pub clip_norm: f32,
    /// Worker threads for gradient computation.
    pub threads: usize,
    /// Shuffle seed.
    pub seed: u64,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            epochs: 5,
            lr: 1e-3,
            lr_decay: 0.9,
            batch_size: 16,
            clip_norm: 5.0,
            threads: 2,
            seed: 13,
        }
    }
}

/// One flattened training sample.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Vertex-id sequence of the candidate path.
    pub vertices: Vec<u32>,
    /// Ground-truth ranking score in `[0, 1]`.
    pub score: f32,
    /// Multi-task targets (length ratio, travel-time ratio), when enabled.
    pub aux: Option<(f32, f32)>,
}

/// What `train` reports back.
#[derive(Debug, Clone)]
pub struct TrainReport {
    /// Mean training loss per epoch.
    pub epoch_losses: Vec<f64>,
    /// Number of training samples.
    pub samples: usize,
}

/// Flattens training groups into per-candidate samples. When `multi_task`
/// is set, each sample also carries its (length, travel-time) ratios
/// relative to the best candidate in its group.
pub fn prepare_samples(g: &Graph, groups: &[TrainingGroup], multi_task: bool) -> Vec<Sample> {
    let mut samples = Vec::new();
    for group in groups {
        let (min_len, min_time) = if multi_task {
            let min_len = group
                .candidates
                .iter()
                .map(|c| c.path.cost(g, CostModel::Length))
                .fold(f64::INFINITY, f64::min);
            let min_time = group
                .candidates
                .iter()
                .map(|c| c.path.cost(g, CostModel::TravelTime))
                .fold(f64::INFINITY, f64::min);
            (min_len, min_time)
        } else {
            (0.0, 0.0)
        };
        for c in &group.candidates {
            let vertices: Vec<u32> = c.path.vertices().iter().map(|v| v.0).collect();
            let aux = multi_task.then(|| {
                let len_ratio = (min_len / c.path.cost(g, CostModel::Length)) as f32;
                let time_ratio = (min_time / c.path.cost(g, CostModel::TravelTime)) as f32;
                (len_ratio, time_ratio)
            });
            samples.push(Sample {
                vertices,
                score: c.score as f32,
                aux,
            });
        }
    }
    samples
}

/// Trains `model` on `samples`. Deterministic given the config seed and
/// thread count (per-sample gradients are summed in a fixed order).
pub fn train(model: &mut PathRankModel, samples: &[Sample], cfg: &TrainConfig) -> TrainReport {
    assert!(!samples.is_empty(), "no training samples");
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut order: Vec<usize> = (0..samples.len()).collect();
    let mut opt = Adam::new(cfg.lr);
    let mut epoch_losses = Vec::with_capacity(cfg.epochs);
    // One gradient store per worker, reused from batch to batch.
    let mut stores = vec![GradStore::new(&model.store); cfg.threads.max(1)];

    for _ in 0..cfg.epochs {
        order.shuffle(&mut rng);
        let mut epoch_loss = 0.0f64;
        for batch in order.chunks(cfg.batch_size.max(1)) {
            epoch_loss += batch_gradients(model, samples, batch, &mut stores);
            let grads = &mut stores[0];
            grads.scale(1.0 / batch.len() as f32);
            if cfg.clip_norm > 0.0 {
                grads.clip_global_norm(cfg.clip_norm);
            }
            opt.step(&mut model.store, grads);
        }
        epoch_losses.push(epoch_loss / samples.len() as f64);
        opt.set_learning_rate(opt.learning_rate() * cfg.lr_decay);
    }
    TrainReport {
        epoch_losses,
        samples: samples.len(),
    }
}

/// Computes the gradients of one batch, one contiguous share of it per
/// store and thread, and sums them into `stores[0]` in store order.
/// Returns the summed loss.
fn batch_gradients(
    model: &PathRankModel,
    samples: &[Sample],
    batch: &[usize],
    stores: &mut [GradStore],
) -> f64 {
    stores.iter_mut().for_each(GradStore::clear);
    let threads = stores.len().min(batch.len());
    if threads == 1 {
        return worker(model, samples, batch, &mut stores[0]);
    }
    let shares = batch.chunks(batch.len().div_ceil(threads));
    let losses: Vec<f64> = std::thread::scope(|scope| {
        let handles: Vec<_> = shares
            .zip(stores.iter_mut())
            .map(|(ids, grads)| scope.spawn(move || worker(model, samples, ids, grads)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("trainer worker panicked"))
            .collect()
    });

    let (grads, rest) = stores.split_first_mut().expect("at least one store");
    for g in rest.iter() {
        grads.merge(g);
    }
    losses.into_iter().sum()
}

fn worker(model: &PathRankModel, samples: &[Sample], ids: &[usize], grads: &mut GradStore) -> f64 {
    let mut loss_sum = 0.0f64;
    for &i in ids {
        let s = &samples[i];
        let mut tape = Tape::new(&model.store);
        let loss = model.loss(&mut tape, &s.vertices, s.score, s.aux);
        loss_sum += tape.scalar(loss) as f64;
        tape.backward(loss, grads);
    }
    loss_sum
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::candidates::{generate_groups_with_backends, CandidateConfig, Strategy};
    use crate::model::{EmbeddingMode, ModelConfig, PathRankModel};
    use pathrank_embed::node2vec::{train_node2vec, Node2VecConfig};
    use pathrank_embed::skipgram::SkipGramConfig;
    use pathrank_embed::walks::WalkConfig;
    use pathrank_spatial::generators::{region_network, RegionConfig};
    use pathrank_traj::dataset::TrajectoryDataset;
    use pathrank_traj::simulator::{simulate_fleet, SimulationConfig};

    fn tiny_setup() -> (Graph, Vec<TrainingGroup>) {
        let g = region_network(&RegionConfig::small_test(), 42);
        let trips = simulate_fleet(&g, &SimulationConfig::small_test(), 43);
        let paths = trips.into_iter().map(|t| t.path).collect();
        let (train_paths, _) = TrajectoryDataset { paths }.split(1.0, 44);
        let cfg = CandidateConfig {
            k: 4,
            ..CandidateConfig::paper_default(Strategy::DTkDI)
        };
        let groups = generate_groups_with_backends(
            &g,
            &train_paths[..6.min(train_paths.len())],
            &cfg,
            2,
            None,
            None,
        );
        (g, groups)
    }

    fn tiny_model(g: &Graph, dim: usize, mode: EmbeddingMode) -> PathRankModel {
        let n2v = Node2VecConfig {
            walks: WalkConfig {
                walks_per_vertex: 3,
                walk_length: 12,
                ..WalkConfig::default()
            },
            sgns: SkipGramConfig {
                dim,
                epochs: 1,
                ..SkipGramConfig::default()
            },
        };
        let emb = train_node2vec(g, &n2v, 45);
        let cfg = ModelConfig {
            embedding_mode: mode,
            ..ModelConfig::paper_default(dim)
        };
        PathRankModel::new(g.vertex_count(), Some(emb), cfg)
    }

    #[test]
    fn prepare_samples_flattens_groups() {
        let (g, groups) = tiny_setup();
        let total: usize = groups.iter().map(TrainingGroup::len).sum();
        let samples = prepare_samples(&g, &groups, false);
        assert_eq!(samples.len(), total);
        assert!(samples.iter().all(|s| s.aux.is_none()));
        assert!(samples.iter().all(|s| (0.0..=1.0).contains(&s.score)));
        assert!(samples.iter().all(|s| s.vertices.len() >= 2));
    }

    #[test]
    fn prepare_samples_multi_task_ratios_in_unit_range() {
        let (g, groups) = tiny_setup();
        let samples = prepare_samples(&g, &groups, true);
        for s in &samples {
            let (lr, tr) = s.aux.expect("multi-task samples carry aux targets");
            assert!((0.0..=1.0 + 1e-6).contains(&(lr as f64)), "len ratio {lr}");
            assert!((0.0..=1.0 + 1e-6).contains(&(tr as f64)), "time ratio {tr}");
        }
        // The best candidate of some group achieves ratio 1.
        assert!(samples.iter().any(|s| s.aux.unwrap().0 > 0.999));
    }

    #[test]
    fn training_reduces_loss() {
        let (g, groups) = tiny_setup();
        let samples = prepare_samples(&g, &groups, false);
        let mut model = tiny_model(&g, 16, EmbeddingMode::Trainable);
        let cfg = TrainConfig {
            epochs: 12,
            lr: 5e-3,
            threads: 1,
            ..Default::default()
        };
        let report = train(&mut model, &samples, &cfg);
        assert_eq!(report.epoch_losses.len(), 12);
        assert_eq!(report.samples, samples.len());
        let first = report.epoch_losses[0];
        let last = *report.epoch_losses.last().unwrap();
        assert!(
            last < first * 0.85,
            "training must reduce loss (first {first:.4}, last {last:.4})"
        );
    }

    #[test]
    fn parallel_training_matches_sequential() {
        let (g, groups) = tiny_setup();
        let samples = prepare_samples(&g, &groups, false);
        let cfg1 = TrainConfig {
            epochs: 2,
            threads: 1,
            ..Default::default()
        };
        let cfg2 = TrainConfig {
            epochs: 2,
            threads: 2,
            ..Default::default()
        };
        let mut m1 = tiny_model(&g, 8, EmbeddingMode::Trainable);
        let mut m2 = tiny_model(&g, 8, EmbeddingMode::Trainable);
        let r1 = train(&mut m1, &samples, &cfg1);
        let r2 = train(&mut m2, &samples, &cfg2);
        // Gradient merging reorders float additions across threads, so
        // require near-equality rather than bit-equality.
        for (a, b) in r1.epoch_losses.iter().zip(r2.epoch_losses.iter()) {
            assert!((a - b).abs() < 1e-3, "losses diverged: {a} vs {b}");
        }
        // Predictions should agree closely too.
        let probe: Vec<u32> = samples[0].vertices.clone();
        let (p1, p2) = (m1.score_path(&probe), m2.score_path(&probe));
        assert!(
            (p1 - p2).abs() < 1e-2,
            "parallel and sequential models diverged"
        );
    }

    #[test]
    fn frozen_embedding_is_untouched_by_training() {
        let (g, groups) = tiny_setup();
        let samples = prepare_samples(&g, &groups, false);
        let mut model = tiny_model(&g, 8, EmbeddingMode::FrozenPretrained);
        let before = model.store.value(model_embedding_id(&model)).clone();
        let cfg = TrainConfig {
            epochs: 2,
            ..Default::default()
        };
        train(&mut model, &samples, &cfg);
        let after = model.store.value(model_embedding_id(&model));
        assert_eq!(&before, after, "PR-A1 must not update the embedding");
    }

    /// The embedding is always parameter 0 (registered first).
    fn model_embedding_id(_m: &PathRankModel) -> pathrank_nn::params::ParamId {
        pathrank_nn::params::ParamId(0)
    }

    #[test]
    #[should_panic(expected = "no training samples")]
    fn rejects_empty_training_set() {
        let (g, _) = tiny_setup();
        let mut model = tiny_model(&g, 8, EmbeddingMode::Trainable);
        let _ = train(&mut model, &[], &TrainConfig::default());
    }
}

//! The PathRank ranking model.
//!
//! Architecture (paper Figure "PathRank Overview"): a path is a vertex
//! sequence `v₁ … v_L`; each vertex is embedded through matrix `B`
//! (initialised from node2vec); a GRU consumes the embedded sequence; the
//! final hidden state passes through a fully-connected layer and a sigmoid
//! to produce the estimated similarity `ŝ ∈ [0, 1]`, trained with MSE
//! against the weighted-Jaccard ground truth.
//!
//! Model variants (paper Tables 1–2 plus ablations):
//!
//! * [`EmbeddingMode::FrozenPretrained`] — **PR-A1**: `B` fixed at the
//!   node2vec values;
//! * [`EmbeddingMode::Trainable`] — **PR-A2**: `B` fine-tuned end-to-end
//!   (the paper's best);
//! * [`EmbeddingMode::TrainableRandom`] — **PR-RAND**: `B` random, no
//!   node2vec (embedding-ablation control);
//! * [`EncoderKind`] — GRU (paper), LSTM, or order-insensitive mean-pool
//!   (encoder ablation);
//! * an optional multi-task auxiliary head that co-predicts the
//!   candidate's normalised length and travel-time ratios, a reproduction
//!   of the full paper's multi-task extension.

use pathrank_rng::rngs::StdRng;
use pathrank_rng::SeedableRng;

use pathrank_nn::infer;
use pathrank_nn::layers::{Embedding, Encoder, GruCell, Linear, LstmCell};
use pathrank_nn::matrix::Matrix;
use pathrank_nn::params::ParamStore;
use pathrank_nn::tape::{Tape, Var};

/// How the vertex-embedding matrix `B` is initialised and updated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EmbeddingMode {
    /// PR-A1: node2vec initialisation, frozen during training.
    FrozenPretrained,
    /// PR-A2: node2vec initialisation, fine-tuned during training.
    Trainable,
    /// PR-RAND: random initialisation, fine-tuned (ablation control).
    TrainableRandom,
}

impl EmbeddingMode {
    /// Display name matching the paper.
    pub fn label(&self) -> &'static str {
        match self {
            EmbeddingMode::FrozenPretrained => "PR-A1",
            EmbeddingMode::Trainable => "PR-A2",
            EmbeddingMode::TrainableRandom => "PR-RAND",
        }
    }
}

/// Which sequence encoder digests the embedded path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EncoderKind {
    /// Gated recurrent unit (the paper's choice).
    Gru,
    /// LSTM (encoder ablation).
    Lstm,
    /// Order-insensitive mean pooling (encoder ablation: shows that
    /// sequence order matters).
    MeanPool,
}

/// Model hyper-parameters.
#[derive(Debug, Clone)]
pub struct ModelConfig {
    /// Embedding dimensionality `M` (the paper sweeps 64 and 128).
    pub dim: usize,
    /// GRU hidden size (the paper ties it to `M`; so do we by default).
    pub hidden: usize,
    /// Embedding variant.
    pub embedding_mode: EmbeddingMode,
    /// Sequence encoder.
    pub encoder: EncoderKind,
    /// Weight of the multi-task auxiliary loss (0 disables the aux head).
    pub multi_task_weight: f32,
    /// Seed for weight initialisation.
    pub seed: u64,
}

impl ModelConfig {
    /// The paper's default: GRU, `M = hidden = dim`, PR-A2, single-task.
    pub fn paper_default(dim: usize) -> Self {
        ModelConfig {
            dim,
            hidden: dim,
            embedding_mode: EmbeddingMode::Trainable,
            encoder: EncoderKind::Gru,
            multi_task_weight: 0.0,
            seed: 7,
        }
    }
}

/// The PathRank model: embedding → sequence encoder → FC head (+ optional
/// auxiliary head).
pub struct PathRankModel {
    /// All trainable parameters.
    pub store: ParamStore,
    embedding: Embedding,
    encoder: Encoder,
    head: Linear,
    aux_head: Option<Linear>,
    cfg: ModelConfig,
}

impl PathRankModel {
    /// Builds the model for a road network with `vocab` vertices.
    ///
    /// `pretrained` supplies the node2vec matrix (`vocab × dim`); it is
    /// required for the pretrained embedding modes and ignored by
    /// [`EmbeddingMode::TrainableRandom`].
    pub fn new(vocab: usize, pretrained: Option<Matrix>, cfg: ModelConfig) -> Self {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let embedding = match cfg.embedding_mode {
            EmbeddingMode::FrozenPretrained | EmbeddingMode::Trainable => {
                let m = pretrained.expect("pretrained embedding required for PR-A1/PR-A2");
                assert_eq!(
                    m.shape(),
                    (vocab, cfg.dim),
                    "pretrained embedding must be vocab × dim"
                );
                Embedding::from_matrix(&mut store, "embedding", m)
            }
            EmbeddingMode::TrainableRandom => {
                Embedding::new(&mut store, "embedding", vocab, cfg.dim, &mut rng)
            }
        };
        let encoder = match cfg.encoder {
            EncoderKind::Gru => Encoder::Gru(GruCell::new(
                &mut store, "gru", cfg.dim, cfg.hidden, &mut rng,
            )),
            EncoderKind::Lstm => Encoder::Lstm(LstmCell::new(
                &mut store, "lstm", cfg.dim, cfg.hidden, &mut rng,
            )),
            EncoderKind::MeanPool => Encoder::MeanPool,
        };
        let encoder_out = encoder.out_dim(cfg.dim);
        let head = Linear::new(&mut store, "head", encoder_out, 1, &mut rng);
        let aux_head = (cfg.multi_task_weight > 0.0)
            .then(|| Linear::new(&mut store, "aux_head", encoder_out, 2, &mut rng));
        PathRankModel {
            store,
            embedding,
            encoder,
            head,
            aux_head,
            cfg,
        }
    }

    /// The model configuration.
    pub fn config(&self) -> &ModelConfig {
        &self.cfg
    }

    /// Total number of scalar parameters.
    pub fn parameter_count(&self) -> usize {
        self.store.scalar_count()
    }

    /// Records the forward pass for one path (vertex-id sequence) on
    /// `tape`; returns the pre-loss prediction node (`1×1`, in `[0, 1]`).
    pub fn forward(&self, tape: &mut Tape<'_>, vertices: &[u32]) -> Var {
        let (pred, _) = self.forward_with_encoding(tape, vertices);
        pred
    }

    /// Like [`PathRankModel::forward`], also returning the encoder output
    /// (used by the auxiliary head and by tests).
    pub fn forward_with_encoding(&self, tape: &mut Tape<'_>, vertices: &[u32]) -> (Var, Var) {
        assert!(!vertices.is_empty(), "cannot rank an empty path");
        let xs = match self.cfg.embedding_mode {
            EmbeddingMode::FrozenPretrained => {
                self.embedding.lookup_frozen(tape, &self.store, vertices)
            }
            EmbeddingMode::Trainable | EmbeddingMode::TrainableRandom => {
                self.embedding.lookup_trainable(tape, vertices)
            }
        };
        let encoded = self.encoder.run_sequence(tape, xs);
        let logit = self.head.forward(tape, encoded);
        let pred = tape.sigmoid(logit);
        (pred, encoded)
    }

    /// Records the full training loss for one sample:
    /// `MSE(ŝ, score) + λ · MSE(aux, aux_targets)` when the multi-task head
    /// is enabled. `aux_targets` are the candidate's (length ratio, travel
    /// time ratio) relative to the group's best candidate.
    pub fn loss(
        &self,
        tape: &mut Tape<'_>,
        vertices: &[u32],
        score: f32,
        aux_targets: Option<(f32, f32)>,
    ) -> Var {
        let (pred, encoded) = self.forward_with_encoding(tape, vertices);
        let main = tape.mse_scalar(pred, score);
        match (&self.aux_head, aux_targets) {
            (Some(aux), Some((len_ratio, time_ratio))) if self.cfg.multi_task_weight > 0.0 => {
                let out = aux.forward(tape, encoded); // 1×2
                let out = tape.sigmoid(out);
                let len_pred = tape.row(out, 0);
                // Split the 1×2 row into two scalars via constant masks.
                let mask_len = tape.input(Matrix::from_rows(&[&[1.0], &[0.0]]));
                let mask_time = tape.input(Matrix::from_rows(&[&[0.0], &[1.0]]));
                let l = tape.matmul(len_pred, mask_len);
                let t = tape.matmul(len_pred, mask_time);
                let l_loss = tape.mse_scalar(l, len_ratio);
                let t_loss = tape.mse_scalar(t, time_ratio);
                let aux_sum = tape.add(l_loss, t_loss);
                let aux_scaled = tape.scale(aux_sum, self.cfg.multi_task_weight);
                tape.add(main, aux_scaled)
            }
            _ => main,
        }
    }

    /// Scores one path (inference): [`PathRankModel::score_paths`] of a
    /// batch of one.
    pub fn score_path(&self, vertices: &[u32]) -> f32 {
        self.score(&[vertices])[0]
    }

    /// Scores a batch of paths — the candidates of one request — in one
    /// sweep of the forward-only kernel ([`pathrank_nn::infer`]). Each
    /// score is, bit for bit, what [`PathRankModel::forward`] computes on
    /// a tape, whatever else is in the batch.
    pub fn score_paths(&self, paths: &[Vec<u32>]) -> Vec<f32> {
        self.score(paths)
    }

    fn score<P: AsRef<[u32]>>(&self, paths: &[P]) -> Vec<f32> {
        infer::score_paths(
            &self.store,
            &self.embedding,
            &self.encoder,
            &self.head,
            paths,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pathrank_nn::params::GradStore;

    fn pretrained(vocab: usize, dim: usize) -> Matrix {
        let mut rng = StdRng::seed_from_u64(1);
        pathrank_nn::init::uniform(vocab, dim, -0.1, 0.1, &mut rng)
    }

    #[test]
    fn variants_have_expected_labels() {
        assert_eq!(EmbeddingMode::FrozenPretrained.label(), "PR-A1");
        assert_eq!(EmbeddingMode::Trainable.label(), "PR-A2");
        assert_eq!(EmbeddingMode::TrainableRandom.label(), "PR-RAND");
    }

    #[test]
    fn predictions_are_in_unit_interval() {
        let cfg = ModelConfig::paper_default(16);
        let model = PathRankModel::new(30, Some(pretrained(30, 16)), cfg);
        for path in [vec![0u32, 1, 2], vec![5; 40], vec![29, 0]] {
            let s = model.score_path(&path);
            assert!((0.0..=1.0).contains(&s), "score {s} out of range");
        }
    }

    #[test]
    fn pr_a1_freezes_embedding_pr_a2_does_not() {
        for (mode, expect_grad) in [
            (EmbeddingMode::FrozenPretrained, false),
            (EmbeddingMode::Trainable, true),
            (EmbeddingMode::TrainableRandom, true),
        ] {
            let cfg = ModelConfig {
                embedding_mode: mode,
                ..ModelConfig::paper_default(8)
            };
            let model = PathRankModel::new(10, Some(pretrained(10, 8)), cfg);
            let mut tape = Tape::new(&model.store);
            let loss = model.loss(&mut tape, &[1, 2, 3], 0.7, None);
            let mut grads = GradStore::new(&model.store);
            tape.backward(loss, &mut grads);
            let emb_grad = grads.row(model.embedding.table, 2).is_some();
            assert_eq!(emb_grad, expect_grad, "mode {mode:?}");
        }
    }

    #[test]
    fn all_encoders_run_and_differ() {
        let emb = pretrained(12, 8);
        let score = |encoder: EncoderKind| {
            let cfg = ModelConfig {
                encoder,
                ..ModelConfig::paper_default(8)
            };
            let model = PathRankModel::new(12, Some(emb.clone()), cfg);
            model.score_path(&[0, 3, 7, 11])
        };
        let g = score(EncoderKind::Gru);
        let l = score(EncoderKind::Lstm);
        let m = score(EncoderKind::MeanPool);
        for s in [g, l, m] {
            assert!((0.0..=1.0).contains(&s));
        }
        // Different architectures, same seed: outputs should not coincide.
        assert!(g != l || l != m);
    }

    #[test]
    fn mean_pool_is_order_insensitive_gru_is_not() {
        let emb = pretrained(12, 8);
        let cfg = ModelConfig {
            encoder: EncoderKind::MeanPool,
            ..ModelConfig::paper_default(8)
        };
        let pool = PathRankModel::new(12, Some(emb.clone()), cfg);
        let fwd = pool.score_path(&[0, 1, 2, 3]);
        let rev = pool.score_path(&[3, 2, 1, 0]);
        assert!((fwd - rev).abs() < 1e-7, "mean-pool must ignore order");

        let gru = PathRankModel::new(12, Some(emb), ModelConfig::paper_default(8));
        let fwd = gru.score_path(&[0, 1, 2, 3]);
        let rev = gru.score_path(&[3, 2, 1, 0]);
        assert!((fwd - rev).abs() > 1e-6, "GRU must be order sensitive");
    }

    #[test]
    fn multi_task_head_contributes_to_loss() {
        let cfg = ModelConfig {
            multi_task_weight: 0.5,
            ..ModelConfig::paper_default(8)
        };
        let model = PathRankModel::new(10, Some(pretrained(10, 8)), cfg);
        let mut t1 = Tape::new(&model.store);
        let plain = model.loss(&mut t1, &[1, 2, 3], 0.5, None);
        let mut t2 = Tape::new(&model.store);
        let multi = model.loss(&mut t2, &[1, 2, 3], 0.5, Some((0.9, 0.8)));
        assert!(
            t2.scalar(multi) > t1.scalar(plain),
            "aux loss must add a non-negative term"
        );
        // And gradients reach the aux head.
        let mut grads = GradStore::new(&model.store);
        t2.backward(multi, &mut grads);
        let aux = model.aux_head.as_ref().unwrap();
        assert!(grads.get(aux.w).is_some());
    }

    #[test]
    fn parameter_count_scales_with_dim() {
        let small = PathRankModel::new(20, Some(pretrained(20, 8)), ModelConfig::paper_default(8));
        let large =
            PathRankModel::new(20, Some(pretrained(20, 16)), ModelConfig::paper_default(16));
        assert!(large.parameter_count() > small.parameter_count());
    }

    #[test]
    #[should_panic(expected = "pretrained embedding must be vocab × dim")]
    fn rejects_mismatched_pretrained_shape() {
        let _ = PathRankModel::new(10, Some(pretrained(10, 4)), ModelConfig::paper_default(8));
    }

    #[test]
    #[should_panic(expected = "cannot rank an empty path")]
    fn rejects_empty_path() {
        let model = PathRankModel::new(10, Some(pretrained(10, 8)), ModelConfig::paper_default(8));
        let _ = model.score_path(&[]);
    }
}

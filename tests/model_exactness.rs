//! Exactness harness for the model half: the forward-only kernel, the
//! row-sparse gradient store and the optimiser state that goes with it.
//!
//! * `model_kernel_*` — `PathRankModel::score_paths` (the kernel in
//!   `nn::infer`) returns, in bits, what the tape's forward pass computes
//!   for each path alone, over random shapes, all encoders and embedding
//!   modes, ragged batches with repeated vertices and duplicate paths.
//! * `model_sparse_*` — `GradStore` with a row-sparse table and `Adam` on
//!   it, against a whole-matrix reference kept in this file, through
//!   `merge` → `scale` → `clip_global_norm` → `Adam::step`, three rounds
//!   on reused stores.
//! * `model_golden_*` — `train`'s epoch losses and a fingerprint of every
//!   parameter on a fixed tiny set-up, recorded at the commit **before**
//!   `nn` learned any of this, for one and for two worker threads.

use pathrank::core::model::{EmbeddingMode, EncoderKind, ModelConfig, PathRankModel};
use pathrank::core::trainer::{train, Sample, TrainConfig};
use pathrank::nn::matrix::Matrix;
use pathrank::nn::optim::{Adam, Optimizer};
use pathrank::nn::params::{GradStore, ParamId, ParamStore};
use pathrank::nn::Tape;
use pathrank_rng::rngs::StdRng;
use pathrank_rng::{Rng, SeedableRng};
use pathrank_testkit::prelude::*;

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

fn random_matrix(rows: usize, cols: usize, lo: f32, hi: f32, rng: &mut StdRng) -> Matrix {
    let data = (0..rows * cols).map(|_| rng.gen_range(lo..hi)).collect();
    Matrix::from_vec(rows, cols, data)
}

/// A path of `len` vertices below `vocab`; every third step revisits an
/// earlier vertex, so a path repeats rows of the table.
fn random_path(vocab: u32, len: usize, rng: &mut StdRng) -> Vec<u32> {
    let mut path: Vec<u32> = Vec::with_capacity(len);
    for i in 0..len {
        let v = if i % 3 == 2 {
            path[rng.gen_range(0..i)]
        } else {
            rng.gen_range(0..vocab)
        };
        path.push(v);
    }
    path
}

fn bits(m: &Matrix) -> Vec<u32> {
    m.data().iter().map(|v| v.to_bits()).collect()
}

// ---------------------------------------------------------------------
// (a) kernel == tape forward
// ---------------------------------------------------------------------

const ENCODERS: [EncoderKind; 3] = [EncoderKind::Gru, EncoderKind::Lstm, EncoderKind::MeanPool];
const EMBEDDINGS: [EmbeddingMode; 3] = [
    EmbeddingMode::FrozenPretrained,
    EmbeddingMode::Trainable,
    EmbeddingMode::TrainableRandom,
];

/// A model whose every parameter is random — biases included, which start
/// at zero — with a sprinkling of exact zeros for the product's skip.
fn random_model(vocab: usize, cfg: ModelConfig, rng: &mut StdRng) -> PathRankModel {
    let table = random_matrix(vocab, cfg.dim, -0.5, 0.5, rng);
    let mut model = PathRankModel::new(vocab, Some(table), cfg);
    let ids: Vec<ParamId> = model.store.iter().map(|(id, _, _)| id).collect();
    for id in ids {
        for v in model.store.value_mut(id).data_mut() {
            *v = if rng.gen_range(0..16) == 0 {
                0.0
            } else {
                rng.gen_range(-0.8f32..0.8)
            };
        }
    }
    model
}

fn tape_score(model: &PathRankModel, path: &[u32]) -> f32 {
    let mut tape = Tape::new(&model.store);
    let pred = model.forward(&mut tape, path);
    tape.scalar(pred)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(if cfg!(debug_assertions) { 6 } else { 40 }))]

    #[test]
    fn model_kernel_equals_tape_forward_in_bits(seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        let vocab = rng.gen_range(1..=60usize);
        let dim = rng.gen_range(1..=12usize);
        let hidden = rng.gen_range(1..=12usize);
        for encoder in ENCODERS {
            for embedding_mode in EMBEDDINGS {
                let cfg = ModelConfig {
                    dim,
                    hidden,
                    embedding_mode,
                    encoder,
                    multi_task_weight: 0.5,
                    seed: rng.gen_range(0..1000),
                };
                let model = random_model(vocab, cfg, &mut rng);
                let mut paths: Vec<Vec<u32>> = (0..rng.gen_range(1..=16usize))
                    .map(|_| {
                        let len = rng.gen_range(1..=80usize);
                        random_path(vocab as u32, len, &mut rng)
                    })
                    .collect();
                // Duplicates: the same path in two rows of one batch.
                let dup = paths[rng.gen_range(0..paths.len())].clone();
                let at = rng.gen_range(0..=paths.len());
                paths.insert(at, dup);

                let batch = model.score_paths(&paths);
                prop_assert_eq!(batch.len(), paths.len());
                for (i, path) in paths.iter().enumerate() {
                    let what = format!(
                        "{encoder:?}/{embedding_mode:?} vocab {vocab} dim {dim} hidden {hidden} \
                         path {i} of {} (len {})",
                        paths.len(),
                        path.len()
                    );
                    prop_assert_eq!(
                        batch[i].to_bits(),
                        tape_score(&model, path).to_bits(),
                        "kernel vs tape: {}", what
                    );
                    let alone = model.score_paths(std::slice::from_ref(path));
                    prop_assert_eq!(batch[i].to_bits(), alone[0].to_bits(), "batch mates: {}", what);
                    prop_assert_eq!(batch[i].to_bits(), model.score_path(path).to_bits());
                }
            }
        }
    }
}

#[test]
fn model_kernel_scores_an_empty_batch_and_names_a_bad_vertex() {
    let mut rng = StdRng::seed_from_u64(3);
    let model = random_model(10, ModelConfig::paper_default(4), &mut rng);
    assert!(model.score_paths(&[]).is_empty());
    let caught = std::panic::catch_unwind(|| model.score_paths(&[vec![1, 2], vec![3, 10, 4]]));
    let message = *caught
        .expect_err("vertex 10 is outside a table of 10")
        .downcast::<String>()
        .expect("a formatted panic message");
    assert_eq!(message, "vertex id 10 out of range for vocab 10");
}

// ---------------------------------------------------------------------
// (b) row-sparse store and Adam vs a whole-matrix reference
// ---------------------------------------------------------------------

/// What `GradStore` was before it kept touched rows: one whole matrix per
/// parameter that has a gradient.
#[derive(Clone)]
struct DenseGrads(Vec<Option<Matrix>>);

impl DenseGrads {
    fn accumulate(&mut self, id: ParamId, delta: &Matrix) {
        match &mut self.0[id.0] {
            Some(g) => g.add_assign(delta),
            slot => *slot = Some(delta.clone()),
        }
    }

    fn accumulate_rows(
        &mut self,
        id: ParamId,
        shape: (usize, usize),
        rows: &[u32],
        delta: &Matrix,
    ) {
        let g = self.0[id.0].get_or_insert_with(|| Matrix::zeros(shape.0, shape.1));
        for (i, &row) in rows.iter().enumerate() {
            for (d, &s) in g.row_mut(row as usize).iter_mut().zip(delta.row(i)) {
                *d += s;
            }
        }
    }

    fn merge(&mut self, other: &DenseGrads) {
        for (mine, theirs) in self.0.iter_mut().zip(&other.0) {
            if let Some(t) = theirs {
                match mine {
                    Some(m) => m.add_assign(t),
                    slot => *slot = Some(t.clone()),
                }
            }
        }
    }

    fn scale(&mut self, s: f32) {
        for v in self.0.iter_mut().flatten().flat_map(|g| g.data_mut()) {
            *v *= s;
        }
    }

    fn clip_global_norm(&mut self, max_norm: f32) -> f32 {
        let norm = (self.0.iter().flatten())
            .map(|g| g.sq_norm())
            .sum::<f32>()
            .sqrt();
        if norm > max_norm && norm > 0.0 {
            self.scale(max_norm / norm);
        }
        norm
    }
}

/// Adam over whole matrices, moments allocated per parameter on its first
/// gradient.
struct DenseAdam {
    lr: f32,
    t: i32,
    moments: Vec<Option<(Matrix, Matrix)>>,
}

impl DenseAdam {
    fn step(&mut self, store: &mut ParamStore, grads: &DenseGrads) {
        let (beta1, beta2, eps) = (0.9f32, 0.999f32, 1e-8f32);
        self.t += 1;
        let bc1 = 1.0 - beta1.powi(self.t);
        let bc2 = 1.0 - beta2.powi(self.t);
        for (i, g) in grads.0.iter().enumerate() {
            let Some(g) = g else { continue };
            let zeros = || Matrix::zeros(g.rows(), g.cols());
            let (m, v) = self.moments[i].get_or_insert_with(|| (zeros(), zeros()));
            let theta = store.value_mut(ParamId(i));
            for j in 0..g.data().len() {
                let gv = g.data()[j];
                let mv = &mut m.data_mut()[j];
                *mv = beta1 * *mv + (1.0 - beta1) * gv;
                let vv = &mut v.data_mut()[j];
                *vv = beta2 * *vv + (1.0 - beta2) * gv * gv;
                let m_hat = *mv / bc1;
                let v_hat = *vv / bc2;
                let p = &mut theta.data_mut()[j];
                *p -= self.lr * (m_hat / (v_hat.sqrt() + eps));
            }
        }
    }
}

/// One worker's gradients for one batch, into both stores: row gradients
/// for the table (repeated indices; rows from `lo..hi` only, so that the
/// two workers share some rows and own others), a whole-matrix gradient
/// for `w` from most workers, and both kinds for `mixed`.
fn fill_worker(
    store: &ParamStore,
    [table, w, mixed]: [ParamId; 3],
    (lo, hi): (u32, u32),
    sparse: &mut GradStore,
    dense: &mut DenseGrads,
    rng: &mut StdRng,
) {
    for _ in 0..rng.gen_range(1..=3usize) {
        let rows: Vec<u32> = (0..rng.gen_range(1..=6usize))
            .map(|i| if i == 3 { lo } else { rng.gen_range(lo..hi) })
            .collect();
        let shape = store.value(table).shape();
        let mut delta = random_matrix(rows.len(), shape.1, -1.0, 1.0, rng);
        delta.row_mut(0)[0] = -0.0;
        sparse.accumulate_rows(table, &rows, &delta);
        dense.accumulate_rows(table, shape, &rows, &delta);
    }
    if rng.gen_range(0..4) != 0 {
        let (r, c) = store.value(w).shape();
        let delta = random_matrix(r, c, -1.0, 1.0, rng);
        sparse.accumulate(w, &delta);
        dense.accumulate(w, &delta);
    }
    let shape = store.value(mixed).shape();
    let rows = [rng.gen_range(0..shape.0 as u32)];
    let delta = random_matrix(1, shape.1, -1.0, 1.0, rng);
    let whole = random_matrix(shape.0, shape.1, -1.0, 1.0, rng);
    if rng.gen_range(0..2) == 0 {
        sparse.accumulate_rows(mixed, &rows, &delta);
        dense.accumulate_rows(mixed, shape, &rows, &delta);
    }
    if rng.gen_range(0..3) != 0 {
        sparse.accumulate(mixed, &whole);
        dense.accumulate(mixed, &whole);
        sparse.accumulate_rows(mixed, &rows, &delta);
        dense.accumulate_rows(mixed, shape, &rows, &delta);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(if cfg!(debug_assertions) { 16 } else { 96 }))]

    #[test]
    fn model_sparse_store_and_adam_equal_the_whole_matrix_reference(seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        let vocab = rng.gen_range(8..=40usize);
        let dim = rng.gen_range(1..=6usize);
        let mut store = ParamStore::new();
        let ids = [
            store.add("table", random_matrix(vocab, dim, -1.0, 1.0, &mut rng)),
            store.add("w", random_matrix(3, 4, -1.0, 1.0, &mut rng)),
            store.add("mixed", random_matrix(5, 2, -1.0, 1.0, &mut rng)),
        ];
        let mut reference = store.clone();
        let mut adam = Adam::new(0.05);
        let mut dense_adam = DenseAdam {
            lr: 0.05,
            t: 0,
            moments: vec![None, None, None],
        };
        // The two workers' stores live across the rounds, as `train`'s do.
        let mut stores = [GradStore::new(&store), GradStore::new(&store)];
        let split = vocab as u32 / 3;
        for round in 0..3 {
            let mut dense = [DenseGrads(vec![None; 3]), DenseGrads(vec![None; 3])];
            // Worker 0 owns the low rows, worker 1 the high ones; the
            // middle third is shared.
            let ranges = [(0, 2 * split), (split, vocab as u32)];
            for w in 0..2 {
                stores[w].clear();
                // In the last round worker 1 sits idle: nothing to merge.
                if round < 2 || w == 0 {
                    fill_worker(&store, ids, ranges[w], &mut stores[w], &mut dense[w], &mut rng);
                }
            }
            let (first, rest) = stores.split_first_mut().expect("two stores");
            let (dense_first, dense_rest) = dense.split_first_mut().expect("two stores");
            if round == 1 {
                // Underflow worker 0's gradients: the negative ones become
                // `-0.0`, which the whole-matrix sum turns into `+0.0` even
                // in rows worker 1 has nothing for.
                for _ in 0..2 {
                    first.scale(1e-30);
                    dense_first.scale(1e-30);
                }
            }
            first.merge(&rest[0]);
            dense_first.merge(&dense_rest[0]);

            let inv = 1.0 / rng.gen_range(1..=8) as f32;
            first.scale(inv);
            dense_first.scale(inv);
            let max_norm = rng.gen_range(0.1f32..4.0);
            let norm = first.clip_global_norm(max_norm);
            let dense_norm = dense_first.clip_global_norm(max_norm);
            prop_assert_eq!(norm.to_bits(), dense_norm.to_bits(), "norm, round {}", round);
            prop_assert_eq!(first.global_norm().to_bits(), {
                let mut probe = dense_first.clone();
                probe.clip_global_norm(f32::INFINITY).to_bits()
            });

            // Reading the gradients back: row by row for any parameter,
            // whole for the ones that became dense.
            for id in ids {
                let whole = dense_first.0[id.0].as_ref();
                for r in 0..store.value(id).rows() {
                    let expect = whole.map(|m| m.row(r));
                    match first.row(id, r) {
                        Some(row) => prop_assert_eq!(
                            row.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                            expect.expect("held").iter().map(|v| v.to_bits()).collect::<Vec<_>>()
                        ),
                        // An untouched row of the table stands for zeros.
                        None => prop_assert!(expect.is_none_or(|e| e.iter().all(|&v| v == 0.0))),
                    }
                }
            }
            if let Some(whole) = &dense_first.0[ids[1].0] {
                prop_assert_eq!(bits(first.get(ids[1]).expect("w is dense")), bits(whole));
            }

            adam.step(&mut store, first);
            dense_adam.step(&mut reference, dense_first);
            for id in ids {
                prop_assert_eq!(
                    bits(store.value(id)),
                    bits(reference.value(id)),
                    "parameter {} after round {}", store.name(id), round
                );
            }
        }
    }
}

// ---------------------------------------------------------------------
// (c) golden: `train` repeats the parent commit's losses and parameters
// ---------------------------------------------------------------------

const GOLDEN_VOCAB: usize = 48;

fn golden_setups() -> Vec<(&'static str, ModelConfig)> {
    let base = ModelConfig {
        hidden: 6,
        seed: 5,
        ..ModelConfig::paper_default(8)
    };
    vec![
        ("gru/trainable", base.clone()),
        (
            "lstm/random/aux",
            ModelConfig {
                encoder: EncoderKind::Lstm,
                embedding_mode: EmbeddingMode::TrainableRandom,
                multi_task_weight: 0.3,
                ..base.clone()
            },
        ),
        (
            "meanpool/frozen",
            ModelConfig {
                encoder: EncoderKind::MeanPool,
                embedding_mode: EmbeddingMode::FrozenPretrained,
                ..base
            },
        ),
    ]
}

/// Trains on 40 seeded samples for three epochs (batches of 7, so the last
/// one is short; about half of them clipped) and returns the bits of the
/// epoch losses and a fingerprint of every parameter.
fn golden_run(cfg: ModelConfig, threads: usize) -> (Vec<u64>, u64) {
    let mut rng = StdRng::seed_from_u64(2020);
    let table = random_matrix(GOLDEN_VOCAB, cfg.dim, -0.5, 0.5, &mut rng);
    let aux = cfg.multi_task_weight > 0.0;
    let samples: Vec<Sample> = (0..40)
        .map(|_| {
            let len = rng.gen_range(1..=14usize);
            Sample {
                vertices: random_path(GOLDEN_VOCAB as u32, len, &mut rng),
                score: rng.gen_range(0.0f32..1.0),
                aux: aux.then(|| (rng.gen_range(0.2f32..1.0), rng.gen_range(0.2f32..1.0))),
            }
        })
        .collect();
    let mut model = PathRankModel::new(GOLDEN_VOCAB, Some(table), cfg);
    let tcfg = TrainConfig {
        epochs: 3,
        lr: 2e-2,
        batch_size: 7,
        clip_norm: 0.07,
        threads,
        seed: 99,
        ..TrainConfig::default()
    };
    let report = train(&mut model, &samples, &tcfg);
    let mut h = Fnv::new();
    for (_, name, value) in model.store.iter() {
        h.word(name.len() as u64);
        for v in value.data() {
            h.word(v.to_bits() as u64);
        }
    }
    (
        report.epoch_losses.iter().map(|l| l.to_bits()).collect(),
        h.0,
    )
}

/// `(set-up, threads, epoch-loss bits, parameter fingerprint)`, printed by
/// this very function body at commit 962e55c (dense `GradStore`, dense
/// Adam, a fresh store per worker per batch).
#[rustfmt::skip]
const GOLDEN: [(&str, usize, [u64; 3], u64); 6] = [
    ("gru/trainable", 1, [0x3fb6f31ca5d33333, 0x3fb2591e0ac5b333, 0x3fac34db4cffcccd], 0x5becb749a5a1f706),
    ("gru/trainable", 2, [0x3fb6f31caea00000, 0x3fb2591e1119e666, 0x3fac34db3ecc999a], 0x120a4a23f861bc8d),
    ("lstm/random/aux", 1, [0x3fbd6eb580800000, 0x3fb96b763399999a, 0x3fb37af914e66666], 0x81104f3c72130fd7),
    ("lstm/random/aux", 2, [0x3fbd6eb57619999a, 0x3fb96b7633b33333, 0x3fb37af914800000], 0x822e52c0db8d5900),
    ("meanpool/frozen", 1, [0x3fb8e98cb7e8b333, 0x3fb86699cc5b04cd, 0x3fb7dd702927e666], 0x7e1ca928e4e879df),
    ("meanpool/frozen", 2, [0x3fb8e98cb7e8b333, 0x3fb86699cba77800, 0x3fb7dd7023bb199a], 0xdb1cbd0288851501),
];

#[test]
fn model_golden_training_repeats_the_dense_trainer() {
    for (name, cfg) in golden_setups() {
        for threads in [1usize, 2] {
            let (losses, params) = golden_run(cfg.clone(), threads);
            let (_, _, want_losses, want_params) = GOLDEN
                .iter()
                .find(|g| g.0 == name && g.1 == threads)
                .expect("every set-up has a golden row");
            assert_eq!(
                losses,
                want_losses.to_vec(),
                "{name}, {threads} thread(s): epoch losses {losses:#018x?}"
            );
            assert_eq!(
                params, *want_params,
                "{name}, {threads} thread(s): parameter fingerprint {params:#018x}"
            );
        }
    }
}

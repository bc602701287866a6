//! Exactness harness for the SGNS kernel (`skipgram::train_skipgram`).
//!
//! * `sgns_kernel_matches_reference_*` — the kernel returns, in bits, what
//!   the single-target loop it replaced returns (kept below, verbatim, as
//!   [`reference_skipgram`]) on generated corpora: vocabularies of one to
//!   forty tokens (on the tiny ones a negative equal to the context, and
//!   the same negative twice in one pair, are the common case), walks of
//!   length 0, 1 and 2 among longer ones, `negative` 0/1/5/9, `dim`
//!   1/3/17/64, two epochs.
//! * `sgns_golden_benchmark_shape` — an FNV of `generate_walks` +
//!   `train_skipgram` at the benchmark's node2vec shape (region ×1, one
//!   12-vertex walk per vertex, `dim` 64), recorded at the commit before
//!   the kernel learned to score a pair's targets in one pass.

use pathrank_embed::alias::AliasTable;
use pathrank_embed::skipgram::{train_skipgram, SkipGramConfig};
use pathrank_embed::walks::{generate_walks, WalkConfig};
use pathrank_nn::matrix::Matrix;
use pathrank_spatial::generators::{region_network, RegionConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

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

fn bits(m: &Matrix) -> Vec<u32> {
    m.data().iter().map(|v| v.to_bits()).collect()
}

/// The single-target SGNS loop as it stood before the one-pass kernel:
/// one sequential dot product per target, each target's update applied
/// before the next target's dot product.
fn reference_skipgram(walks: &[Vec<u32>], vocab: usize, cfg: &SkipGramConfig, seed: u64) -> Matrix {
    assert!(vocab > 0, "empty vocabulary");
    let mut rng = StdRng::seed_from_u64(seed);

    // Input and output embeddings, uniformly initialised as in word2vec.
    let bound = 0.5 / cfg.dim as f32;
    let mut w_in: Vec<f32> = (0..vocab * cfg.dim)
        .map(|_| rng.gen_range(-bound..bound))
        .collect();
    let mut w_out: Vec<f32> = vec![0.0; vocab * cfg.dim];

    // Unigram^(3/4) negative-sampling distribution.
    let mut counts = vec![0f64; vocab];
    for walk in walks {
        for &v in walk {
            counts[v as usize] += 1.0;
        }
    }
    let any_token = counts.iter().any(|&c| c > 0.0);
    if !any_token {
        return Matrix::from_vec(vocab, cfg.dim, w_in);
    }
    let noise = AliasTable::new(&counts.iter().map(|c| c.powf(0.75)).collect::<Vec<_>>());

    let total_pairs_estimate: usize =
        walks.iter().map(|w| w.len()).sum::<usize>().max(1) * cfg.epochs;
    let mut processed = 0usize;
    let mut grad = vec![0.0f32; cfg.dim];

    for _ in 0..cfg.epochs {
        for walk in walks {
            for (i, &center) in walk.iter().enumerate() {
                processed += 1;
                let progress = processed as f32 / total_pairs_estimate as f32;
                let lr = cfg.lr * (1.0 - 0.9 * progress.min(1.0));
                let lo = i.saturating_sub(cfg.window);
                let hi = (i + cfg.window + 1).min(walk.len());
                for (j, &context) in walk.iter().enumerate().take(hi).skip(lo) {
                    if i == j {
                        continue;
                    }
                    // One positive update + `negative` negative updates on
                    // the centre's input vector.
                    let c0 = center as usize * cfg.dim;
                    grad.iter_mut().for_each(|g| *g = 0.0);
                    let update = |target: usize,
                                  label: f32,
                                  w_in: &[f32],
                                  w_out: &mut [f32],
                                  grad: &mut [f32]| {
                        let t0 = target * cfg.dim;
                        let mut dot = 0.0f32;
                        for d in 0..cfg.dim {
                            dot += w_in[c0 + d] * w_out[t0 + d];
                        }
                        let pred = 1.0 / (1.0 + (-dot).exp());
                        let err = (label - pred) * lr;
                        for d in 0..cfg.dim {
                            grad[d] += err * w_out[t0 + d];
                            w_out[t0 + d] += err * w_in[c0 + d];
                        }
                    };
                    update(context as usize, 1.0, &w_in, &mut w_out, &mut grad);
                    for _ in 0..cfg.negative {
                        let neg = noise.sample(&mut rng);
                        if neg == context {
                            continue;
                        }
                        update(neg as usize, 0.0, &w_in, &mut w_out, &mut grad);
                    }
                    for d in 0..cfg.dim {
                        w_in[c0 + d] += grad[d];
                    }
                }
            }
        }
    }
    Matrix::from_vec(vocab, cfg.dim, w_in)
}

/// `walks` walks over `0..vocab`: the first three have length 0, 1 and 2,
/// the rest up to 9. A third of the tokens are drawn from the lowest two
/// ids, so even the larger vocabularies have a few very frequent tokens
/// (which the noise distribution then draws repeatedly).
fn corpus(vocab: u32, walks: usize, rng: &mut StdRng) -> Vec<Vec<u32>> {
    (0..walks)
        .map(|i| {
            let len = if i < 3 { i } else { rng.gen_range(0..10) };
            (0..len)
                .map(|_| {
                    if rng.gen_range(0..3) == 0 {
                        rng.gen_range(0..vocab.min(2))
                    } else {
                        rng.gen_range(0..vocab)
                    }
                })
                .collect()
        })
        .collect()
}

fn assert_matches_reference(walks: &[Vec<u32>], vocab: usize, cfg: &SkipGramConfig, seed: u64) {
    let want = reference_skipgram(walks, vocab, cfg, seed);
    let got = train_skipgram(walks, vocab, cfg, seed);
    assert_eq!(got.shape(), want.shape());
    assert!(
        bits(&got) == bits(&want),
        "kernel differs from the reference: vocab {vocab}, {cfg:?}, seed {seed}"
    );
}

#[test]
fn sgns_kernel_matches_reference_on_generated_corpora() {
    let mut rng = StdRng::seed_from_u64(0x5695);
    for (case, &vocab) in [1u32, 2, 3, 7, 40].iter().enumerate() {
        let walks = corpus(vocab, 18, &mut rng);
        for &negative in &[0usize, 1, 5, 9] {
            for &dim in &[1usize, 3, 17, 64] {
                let cfg = SkipGramConfig {
                    dim,
                    window: 1 + (case + negative) % 5,
                    negative,
                    lr: if dim == 3 { 0.4 } else { 0.025 },
                    epochs: 2,
                };
                let seed = rng.gen();
                assert_matches_reference(&walks, vocab as usize, &cfg, seed);
            }
        }
    }
}

#[test]
fn sgns_kernel_matches_reference_on_degenerate_corpora() {
    let cfg = SkipGramConfig {
        dim: 17,
        negative: 9,
        epochs: 2,
        ..SkipGramConfig::default()
    };
    // No walks, only empty walks, only single-token walks, one pair.
    assert_matches_reference(&[], 4, &cfg, 1);
    assert_matches_reference(&[vec![], vec![]], 4, &cfg, 2);
    assert_matches_reference(&[vec![3], vec![0], vec![]], 4, &cfg, 3);
    assert_matches_reference(&[vec![2, 2]], 4, &cfg, 4);
    // Vocabulary ids beyond the corpus: their rows are never touched.
    assert_matches_reference(&[vec![0, 1, 0, 1, 1]], 9, &cfg, 5);
}

#[test]
fn sgns_golden_benchmark_shape() {
    // `benchmark/src/env.rs` `region_config(1)` on its `GRAPH_SEED`, and
    // its node2vec stage for seed 1 (walks on seed + 3, SGNS on seed + 4).
    let base = RegionConfig::paper_scale();
    let region = RegionConfig {
        town_size: (20, 20),
        ..base
    };
    let g = region_network(&region, 2020);
    let walk_cfg = WalkConfig {
        walks_per_vertex: 1,
        walk_length: 12,
        p: 1.0,
        q: 0.5,
    };
    let walks = generate_walks(&g, &walk_cfg, 4);
    let cfg = SkipGramConfig {
        dim: 64,
        epochs: 1,
        ..SkipGramConfig::default()
    };
    let emb = train_skipgram(&walks, g.vertex_count(), &cfg, 5);

    let mut h = Fnv::new();
    h.word(g.vertex_count() as u64);
    for walk in &walks {
        h.word(walk.len() as u64);
        for &v in walk {
            h.word(v as u64);
        }
    }
    for b in bits(&emb) {
        h.word(b as u64);
    }
    assert_eq!(
        h.0,
        0x00e4_93b6_6809_c97b,
        "SGNS golden moved (vertices {})",
        g.vertex_count()
    );
}

//! Skip-gram with negative sampling (SGNS), trained by SGD over walks.
//!
//! Follows word2vec: for every (center, context) pair within a window, pull
//! the center's *input* vector towards the context's *output* vector while
//! pushing it away from `negative` sampled vertices. Negative samples are
//! drawn from the unigram distribution raised to the 3/4 power.
//!
//! # Bit-identity contract
//!
//! The result is fixed, in bits, by two orders, and the kernel keeps both
//! from the textbook single-target loop (the oracle in
//! `tests/sgns_exactness.rs`):
//!
//! * each target's dot product with the centre is one f32 sum in
//!   ascending `d`, starting from `0.0`;
//! * the targets of a (centre, context) pair — the context, then the
//!   negatives that differ from it, in draw order — apply their `err`,
//!   `grad` and output-row updates in that order, and the centre's input
//!   row takes `grad` after the last one.
//!
//! Within those orders the kernel is free to interleave. A target's dot
//! reads the centre's input row, which no target of the pair writes, and
//! its own output row, which only earlier targets *of the same row*
//! write. So a run of pairwise-distinct rows can have all its dot
//! products computed before any of its updates: the kernel splits the
//! target list into such runs (a repeated negative opens a new one) and
//! scores each run in one sweep over `d` with one accumulator per target.
//! The chains are still sequential each; side by side they hide each
//! other's add latency, which one 64-term chain per target cannot. Only
//! the negatives draw from the rng after initialisation, so drawing all of
//! a pair's negatives up front consumes it in the same order.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use pathrank_nn::matrix::Matrix;

use crate::alias::AliasTable;

/// SGNS hyper-parameters.
#[derive(Debug, Clone)]
pub struct SkipGramConfig {
    /// Embedding dimensionality `M`.
    pub dim: usize,
    /// Symmetric window size around each centre token.
    pub window: usize,
    /// Negative samples per positive pair.
    pub negative: usize,
    /// Initial learning rate (linearly decayed to 10% over training).
    pub lr: f32,
    /// Passes over the walk corpus.
    pub epochs: usize,
}

impl Default for SkipGramConfig {
    fn default() -> Self {
        SkipGramConfig {
            dim: 64,
            window: 5,
            negative: 5,
            lr: 0.025,
            epochs: 2,
        }
    }
}

/// Trains SGNS embeddings over `walks` for a vocabulary of `vocab` ids.
/// Returns the input-embedding matrix (`vocab × dim`).
pub fn train_skipgram(walks: &[Vec<u32>], vocab: usize, cfg: &SkipGramConfig, seed: u64) -> Matrix {
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

    // Tokens visited over all epochs: the learning rate decays linearly
    // in the share of them processed.
    let total_token_visits: usize =
        walks.iter().map(|w| w.len()).sum::<usize>().max(1) * cfg.epochs;
    let mut processed = 0usize;
    let dim = cfg.dim;
    let mut grad = vec![0.0f32; dim];
    // The pair's target rows: the context first, then the negatives that
    // differ from it, in draw order.
    let mut targets: Vec<u32> = Vec::with_capacity(1 + cfg.negative);

    for _ in 0..cfg.epochs {
        for walk in walks {
            for (i, &center) in walk.iter().enumerate() {
                processed += 1;
                let progress = processed as f32 / total_token_visits as f32;
                let lr = cfg.lr * (1.0 - 0.9 * progress.min(1.0));
                let lo = i.saturating_sub(cfg.window);
                let hi = (i + cfg.window + 1).min(walk.len());
                let c0 = center as usize * dim;
                for (j, &context) in walk.iter().enumerate().take(hi).skip(lo) {
                    if i == j {
                        continue;
                    }
                    targets.clear();
                    targets.push(context);
                    for _ in 0..cfg.negative {
                        let neg = noise.sample(&mut rng);
                        if neg != context {
                            targets.push(neg);
                        }
                    }
                    grad.fill(0.0);
                    let x = &w_in[c0..c0 + dim];
                    let mut start = 0;
                    while start < targets.len() {
                        let run = distinct_run(&targets[start..]);
                        update_run(
                            x,
                            &targets[start..start + run],
                            start == 0,
                            lr,
                            &mut w_out,
                            &mut grad,
                        );
                        start += run;
                    }
                    for (w, g) in w_in[c0..c0 + dim].iter_mut().zip(&grad) {
                        *w += g;
                    }
                }
            }
        }
    }
    Matrix::from_vec(vocab, dim, w_in)
}

/// Targets scored side by side in one sweep over `d`: enough independent
/// add chains to cover the add latency at two adds a cycle.
const BLOCK: usize = 8;

/// Length of the leading run of `targets` with pairwise-distinct rows,
/// at most [`BLOCK`].
fn distinct_run(targets: &[u32]) -> usize {
    let mut run = 1;
    while run < targets.len().min(BLOCK) && !targets[..run].contains(&targets[run]) {
        run += 1;
    }
    run
}

/// One SGD step for each of `rows` (pairwise distinct, at most [`BLOCK`])
/// against the centre's input row `x`: all dot products in one sweep,
/// then sigmoid, `err`, `grad` and the output-row update in row order.
/// The first row is the context (label 1) when `has_context`.
fn update_run(
    x: &[f32],
    rows: &[u32],
    has_context: bool,
    lr: f32,
    w_out: &mut [f32],
    grad: &mut [f32],
) {
    let dim = x.len();
    // One accumulator per target: the block is sized to the run, so no
    // lane sums a row nobody asked for.
    let mut dots = [0.0f32; BLOCK];
    let scored = &mut dots[..rows.len()];
    match rows.len() {
        1 => scored.copy_from_slice(&dot_block::<1>(x, w_out, rows)),
        2 => scored.copy_from_slice(&dot_block::<2>(x, w_out, rows)),
        3 => scored.copy_from_slice(&dot_block::<3>(x, w_out, rows)),
        4 => scored.copy_from_slice(&dot_block::<4>(x, w_out, rows)),
        5 => scored.copy_from_slice(&dot_block::<5>(x, w_out, rows)),
        6 => scored.copy_from_slice(&dot_block::<6>(x, w_out, rows)),
        7 => scored.copy_from_slice(&dot_block::<7>(x, w_out, rows)),
        _ => scored.copy_from_slice(&dot_block::<BLOCK>(x, w_out, rows)),
    }
    for (k, (&t, &dot)) in rows.iter().zip(&dots).enumerate() {
        let label = if has_context && k == 0 { 1.0 } else { 0.0 };
        let pred = 1.0 / (1.0 + (-dot).exp());
        let err = (label - pred) * lr;
        let out = &mut w_out[t as usize * dim..][..dim];
        for ((g, o), &xd) in grad.iter_mut().zip(out.iter_mut()).zip(x) {
            *g += err * *o;
            *o += err * xd;
        }
    }
}

/// `x · w_out[rows[k]]` for the first `R` rows, each summed in ascending
/// `d` from `0.0` — the bits of a plain sequential dot product per row.
#[inline]
fn dot_block<const R: usize>(x: &[f32], w_out: &[f32], rows: &[u32]) -> [f32; R] {
    let n = x.len();
    let lanes: [&[f32]; R] = std::array::from_fn(|k| &w_out[rows[k] as usize * n..][..n]);
    let mut acc = [0.0f32; R];
    for d in 0..n {
        let xd = x[d];
        for (a, lane) in acc.iter_mut().zip(&lanes) {
            *a += xd * lane[d];
        }
    }
    acc
}

/// Cosine similarity between two embedding rows; used by tests and by the
/// quality checks in the node2vec driver.
pub fn cosine(emb: &Matrix, a: usize, b: usize) -> f32 {
    let (ra, rb) = (emb.row(a), emb.row(b));
    let dot: f32 = ra.iter().zip(rb).map(|(x, y)| x * y).sum();
    let na: f32 = ra.iter().map(|x| x * x).sum::<f32>().sqrt();
    let nb: f32 = rb.iter().map(|x| x * x).sum::<f32>().sqrt();
    if na == 0.0 || nb == 0.0 {
        return 0.0;
    }
    dot / (na * nb)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two disjoint cliques of tokens: co-occurring tokens must embed more
    /// similarly than tokens from different cliques.
    #[test]
    fn separates_two_communities() {
        let mut walks = Vec::new();
        // Community A: tokens 0..4; community B: tokens 5..9.
        for rep in 0..200u32 {
            let a: Vec<u32> = (0..5).map(|i| (rep + i) % 5).collect();
            let b: Vec<u32> = (0..5).map(|i| 5 + (rep + i) % 5).collect();
            walks.push(a);
            walks.push(b);
        }
        let cfg = SkipGramConfig {
            dim: 16,
            window: 3,
            negative: 4,
            lr: 0.05,
            epochs: 3,
        };
        let emb = train_skipgram(&walks, 10, &cfg, 13);

        let mut within = 0.0f32;
        let mut across = 0.0f32;
        let mut wn = 0;
        let mut an = 0;
        for i in 0..5 {
            for j in 0..5 {
                if i != j {
                    within += cosine(&emb, i, j) + cosine(&emb, 5 + i, 5 + j);
                    wn += 2;
                }
                across += cosine(&emb, i, 5 + j);
                an += 1;
            }
        }
        let within = within / wn as f32;
        let across = across / an as f32;
        assert!(
            within > across + 0.2,
            "within-community cosine {within} must exceed across {across}"
        );
    }

    #[test]
    fn output_shape_and_determinism() {
        let walks = vec![vec![0, 1, 2, 1, 0], vec![2, 1, 0, 1, 2]];
        let cfg = SkipGramConfig {
            dim: 8,
            ..Default::default()
        };
        let a = train_skipgram(&walks, 3, &cfg, 4);
        let b = train_skipgram(&walks, 3, &cfg, 4);
        assert_eq!(a.shape(), (3, 8));
        assert_eq!(a, b);
        let c = train_skipgram(&walks, 3, &cfg, 5);
        assert_ne!(a, c);
    }

    #[test]
    fn empty_walks_return_initialisation() {
        let cfg = SkipGramConfig {
            dim: 4,
            ..Default::default()
        };
        let emb = train_skipgram(&[], 5, &cfg, 1);
        assert_eq!(emb.shape(), (5, 4));
        assert!(emb.is_finite());
    }

    #[test]
    fn embeddings_stay_finite() {
        let walks: Vec<Vec<u32>> = (0..50)
            .map(|i| vec![i % 7, (i + 1) % 7, (i + 2) % 7])
            .collect();
        let cfg = SkipGramConfig {
            dim: 12,
            lr: 0.5,
            ..Default::default()
        };
        let emb = train_skipgram(&walks, 7, &cfg, 2);
        assert!(
            emb.is_finite(),
            "even aggressive learning rates must not blow up"
        );
    }

    #[test]
    fn cosine_properties() {
        let m = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0], &[2.0, 0.0], &[0.0, 0.0]]);
        assert!((cosine(&m, 0, 2) - 1.0).abs() < 1e-6);
        assert!(cosine(&m, 0, 1).abs() < 1e-6);
        assert_eq!(cosine(&m, 0, 3), 0.0);
    }
}

//! Forward-only inference: all candidate paths of a request scored in one
//! sweep over plain `f32` blocks.
//!
//! A [`crate::tape::Tape`] records some thirty heap-allocated nodes per
//! vertex because training differentiates them. Scoring differentiates
//! nothing, so [`score_paths`] keeps one row per path in a few flat blocks
//! and walks the time steps once: gather the embedding rows of step `t`
//! for every path still alive, run each gate as a rows-by-weights product,
//! apply the gates in place, then head and sigmoid. The number of
//! allocations per call is constant; there is none per vertex.
//!
//! # The bit-identity contract
//!
//! The kernel returns, bit for bit, what the tape's forward pass computes
//! for each path alone (`tests/model_exactness.rs` holds it to that):
//!
//! * a product accumulates, per output element, `k` ascending from `0.0`
//!   and skips `a == 0.0`, as [`Matrix::matmul`] does — `rows_times` only
//!   moves the weight row to the outer loop, so that it is read once per
//!   step for all live paths;
//! * `x·W` and `h·U` stay two separately rounded products, combined as
//!   `(xw + hu) + b`;
//! * `sigmoid` is the tape's expression and `tanh` is `f32::tanh`;
//! * `(1 − z)∘h` and `z∘c` are rounded before their sum (no `mul_add`);
//! * mean-pool is the row-order sum times `1 / rows`.
//!
//! Rows never mix, so a path's score does not depend on its batch mates.

use crate::layers::{Embedding, Encoder, Linear};
use crate::matrix::Matrix;
use crate::params::{ParamId, ParamStore};

/// The logistic function, as the tape and the kernel both compute it.
#[inline]
pub(crate) fn sigmoid(x: f32) -> f32 {
    1.0 / (1.0 + (-x).exp())
}

/// `out[p] += a[p] · w` for the rows `p < live` of two row-major blocks,
/// `a` of width `w.rows()` and `out` of width `w.cols()`.
pub(crate) fn rows_times(a: &[f32], w: &Matrix, out: &mut [f32], live: usize) {
    let (k_dim, n) = w.shape();
    let (a, out) = (&a[..live * k_dim], &mut out[..live * n]);
    for k in 0..k_dim {
        let w_row = w.row(k);
        for (a_row, out_row) in a.chunks_exact(k_dim).zip(out.chunks_exact_mut(n)) {
            let a_pk = a_row[k];
            if a_pk == 0.0 {
                continue;
            }
            for (o, &b) in out_row.iter_mut().zip(w_row) {
                *o += a_pk * b;
            }
        }
    }
}

/// A recurrent gate before its activation, `out = (x·W + h·U) + b`, for
/// the first `live` rows; `xw` is scratch of `out`'s size.
pub(crate) fn gate_rows(
    store: &ParamStore,
    (w, u, b): (ParamId, ParamId, ParamId),
    x: &[f32],
    h: &[f32],
    live: usize,
    xw: &mut [f32],
    out: &mut [f32],
) {
    let b = store.value(b).data();
    let (xw, out) = (&mut xw[..live * b.len()], &mut out[..live * b.len()]);
    xw.fill(0.0);
    out.fill(0.0);
    rows_times(x, store.value(w), xw, live);
    rows_times(h, store.value(u), out, live);
    for (out_row, xw_row) in out.chunks_exact_mut(b.len()).zip(xw.chunks_exact(b.len())) {
        for ((hu, &xw), &b) in out_row.iter_mut().zip(xw_row).zip(b) {
            *hu = (xw + *hu) + b;
        }
    }
}

/// Scores every path (a vertex-id sequence) with embedding → encoder →
/// head → sigmoid; `out[i]` belongs to `paths[i]`.
///
/// # Panics
/// If a path is empty or names a vertex outside the table, or if `head`
/// has more than one output.
pub fn score_paths<P: AsRef<[u32]>>(
    store: &ParamStore,
    embedding: &Embedding,
    encoder: &Encoder,
    head: &Linear,
    paths: &[P],
) -> Vec<f32> {
    assert_eq!(head.out_dim(), 1, "the score head has one output");
    let n = paths.len();
    if n == 0 {
        return Vec::new();
    }
    let table = store.value(embedding.table);
    let dim = table.cols();
    let width = encoder.out_dim(dim);

    // Longest first: the paths still alive at step `t` are then the rows
    // `0..live` of every block.
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(paths[i].as_ref().len()));
    let path = |row: usize| paths[order[row]].as_ref();
    assert!(!path(n - 1).is_empty(), "cannot rank an empty path");

    let mut buf = vec![0.0f32; n * (dim + width * (1 + encoder.scratch_blocks()) + 1)];
    let (x, rest) = buf.split_at_mut(n * dim);
    let (encoded, rest) = rest.split_at_mut(n * width);
    let (scratch, logits) = rest.split_at_mut(n * width * encoder.scratch_blocks());

    let mut live = n;
    for t in 0..path(0).len() {
        while path(live - 1).len() <= t {
            live -= 1;
        }
        for (row, x_row) in x.chunks_exact_mut(dim).take(live).enumerate() {
            x_row.copy_from_slice(table.vocab_row(path(row)[t]));
        }
        encoder.step_rows(store, &x[..live * dim], encoded, live, scratch);
    }
    for (row, encoded_row) in encoded.chunks_exact_mut(width).enumerate() {
        encoder.finish_row(encoded_row, path(row).len());
    }

    head.forward_rows(store, encoded, n, logits);
    let mut scores = vec![0.0f32; n];
    for (row, &logit) in logits.iter().enumerate() {
        scores[order[row]] = sigmoid(logit);
    }
    scores
}

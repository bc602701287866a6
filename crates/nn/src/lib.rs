//! Minimal pure-Rust neural substrate for PathRank.
//!
//! The paper trains a small network (node2vec-initialised vertex embedding →
//! GRU → fully-connected regression head) with MSE loss. This crate
//! implements exactly the machinery that requires, from scratch:
//!
//! * [`matrix::Matrix`] — a row-major `f32` matrix with the handful of BLAS
//!   operations the models need;
//! * [`params`] — a [`params::ParamStore`] holding trainable parameters and
//!   a [`params::GradStore`] accumulating gradients (kept separate so that
//!   several tapes can compute gradients in parallel against one shared,
//!   read-only store); the gradient of an embedding table is held as the
//!   rows a batch touched, never as a `vocab × dim` matrix;
//! * [`tape`] — reverse-mode automatic differentiation: build a computation
//!   graph per training sample, call [`tape::Tape::backward`], collect
//!   gradients. The tape is what training differentiates, and only that;
//! * [`infer`] — the forward-only kernel that scores all candidate paths of
//!   a request in one sweep over flat `f32` blocks, bit-identical to the
//!   tape's forward pass;
//! * [`layers`] — Embedding (frozen or trainable), Linear, GRU and LSTM
//!   cells: each records its step on the tape and carries the same
//!   arithmetic over row blocks for the kernel;
//! * [`optim`] — Adam with per-row state (global-norm gradient clipping
//!   is [`params::GradStore::clip_global_norm`]);
//! * [`init`] — Xavier/uniform initialisers with explicit seeds.
//!
//! Parameters live in memory only: a trained model has no file format
//! (the workspace's one persistence module is `pathrank_spatial::io`).
//!
//! Every differentiable operation is verified against finite differences in
//! the test suite; `tests/model_exactness.rs` at the workspace root holds
//! the kernel to the tape and the row-sparse store to whole matrices, bit
//! for bit.
//!
//! ```
//! use pathrank_nn::matrix::Matrix;
//! use pathrank_nn::params::{GradStore, ParamStore};
//! use pathrank_nn::tape::Tape;
//!
//! let mut store = ParamStore::new();
//! let w = store.add("w", Matrix::from_rows(&[&[2.0], &[1.0]]));
//! let mut tape = Tape::new(&store);
//! let x = tape.input(Matrix::from_rows(&[&[3.0, 4.0]]));
//! let wv = tape.param(w);
//! let y = tape.matmul(x, wv); // 3*2 + 4*1 = 10
//! let loss = tape.mse_scalar(y, 12.0); // (10-12)^2 = 4
//! assert_eq!(tape.value(loss).at(0, 0), 4.0);
//! let mut grads = GradStore::new(&store);
//! tape.backward(loss, &mut grads);
//! // dL/dw = 2*(10-12) * x^T = [-12, -16]
//! assert_eq!(grads.get(w).unwrap().at(0, 0), -12.0);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod infer;
pub mod init;
pub mod layers;
pub mod matrix;
pub mod optim;
pub mod params;
pub mod tape;

pub use matrix::Matrix;
pub use params::{GradStore, ParamId, ParamStore};
pub use tape::{Tape, Var};

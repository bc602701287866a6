//! Neural layers built on the autodiff tape.
//!
//! Each layer registers its parameters in a [`crate::params::ParamStore`]
//! at construction and exposes a `forward`/`step` method that records ops
//! on a [`crate::tape::Tape`], and beside it the same arithmetic over plain
//! row blocks (`*_rows`) for [`crate::infer`].

pub mod embedding;
pub mod gru;
pub mod linear;
pub mod lstm;

pub use embedding::Embedding;
pub use gru::GruCell;
pub use linear::Linear;
pub use lstm::LstmCell;

use crate::params::ParamStore;
use crate::tape::{Tape, Var};

/// The sequence encoder between embedding and head.
#[derive(Debug, Clone)]
pub enum Encoder {
    /// Gated recurrent unit (the paper's choice).
    Gru(GruCell),
    /// LSTM (encoder ablation).
    Lstm(LstmCell),
    /// Order-insensitive mean over the embedded vertices (encoder
    /// ablation).
    MeanPool,
}

impl Encoder {
    /// Width of the encoding of `in_dim`-wide inputs.
    pub fn out_dim(&self, in_dim: usize) -> usize {
        match self {
            Encoder::Gru(cell) => cell.hidden_dim(),
            Encoder::Lstm(cell) => cell.hidden_dim(),
            Encoder::MeanPool => in_dim,
        }
    }

    /// Records the encoder over `xs` (`L × in`, one row per step) on the
    /// tape and returns the encoding (`1 × out_dim`).
    pub fn run_sequence(&self, tape: &mut Tape<'_>, xs: Var) -> Var {
        match self {
            Encoder::Gru(cell) => cell.run_sequence(tape, xs),
            Encoder::Lstm(cell) => cell.run_sequence(tape, xs),
            Encoder::MeanPool => tape.mean_rows(xs),
        }
    }

    /// How many `rows × out_dim` blocks [`Encoder::step_rows`] needs as
    /// scratch.
    pub(crate) fn scratch_blocks(&self) -> usize {
        match self {
            Encoder::Gru(_) => GruCell::SCRATCH_BLOCKS,
            Encoder::Lstm(_) => LstmCell::SCRATCH_BLOCKS,
            Encoder::MeanPool => 0,
        }
    }

    /// One time step without a tape for the first `live` rows: `x` holds
    /// exactly their inputs, one per row, `encoded` what the encoder has
    /// made of each row so far (zeros before the first step; for mean-pool
    /// the running sum). `scratch` must start out as zeros and come back
    /// untouched.
    pub(crate) fn step_rows(
        &self,
        store: &ParamStore,
        x: &[f32],
        encoded: &mut [f32],
        live: usize,
        scratch: &mut [f32],
    ) {
        match self {
            Encoder::Gru(cell) => cell.step_rows(store, x, encoded, live, scratch),
            Encoder::Lstm(cell) => cell.step_rows(store, x, encoded, live, scratch),
            Encoder::MeanPool => {
                for (sum, &v) in encoded.iter_mut().zip(x) {
                    *sum += v;
                }
            }
        }
    }

    /// What is left to do to a row's encoding after the last of its `len`
    /// steps.
    pub(crate) fn finish_row(&self, encoded: &mut [f32], len: usize) {
        if let Encoder::MeanPool = self {
            let inv = 1.0 / len as f32;
            encoded.iter_mut().for_each(|v| *v *= inv);
        }
    }
}

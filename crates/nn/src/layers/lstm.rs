//! Long Short-Term Memory cell (Hochreiter & Schmidhuber, 1997).
//!
//! Provided as an alternative sequence encoder for the encoder ablation
//! (GRU vs LSTM vs mean-pool). Per step, with input `x` (`1 × in`),
//! previous hidden `h` and cell state `c` (`1 × H` each):
//!
//! ```text
//! i = σ(x·Wi + h·Ui + bi)       input gate
//! f = σ(x·Wf + h·Uf + bf)       forget gate
//! o = σ(x·Wo + h·Uo + bo)       output gate
//! g = tanh(x·Wg + h·Ug + bg)    candidate
//! c' = f∘c + i∘g
//! h' = o∘tanh(c')
//! ```

use rand::rngs::StdRng;

use crate::infer::{gate_rows, sigmoid};
use crate::init::xavier_uniform;
use crate::matrix::Matrix;
use crate::params::{ParamId, ParamStore};
use crate::tape::{Tape, Var};

/// LSTM cell parameters.
#[derive(Debug, Clone)]
pub struct LstmCell {
    wi: ParamId,
    ui: ParamId,
    bi: ParamId,
    wf: ParamId,
    uf: ParamId,
    bf: ParamId,
    wo: ParamId,
    uo: ParamId,
    bo: ParamId,
    wg: ParamId,
    ug: ParamId,
    bg: ParamId,
    in_dim: usize,
    hidden_dim: usize,
}

impl LstmCell {
    /// Creates an LSTM cell, registering its twelve parameter matrices
    /// under `{name}.*`. The forget-gate bias is initialised to 1 (standard
    /// practice to ease gradient flow early in training).
    pub fn new(
        store: &mut ParamStore,
        name: &str,
        in_dim: usize,
        hidden_dim: usize,
        rng: &mut StdRng,
    ) -> Self {
        let mut weight = |suffix: &str, r: usize, c: usize, rng: &mut StdRng| {
            store.add(format!("{name}.{suffix}"), xavier_uniform(r, c, rng))
        };
        let wi = weight("wi", in_dim, hidden_dim, rng);
        let ui = weight("ui", hidden_dim, hidden_dim, rng);
        let wf = weight("wf", in_dim, hidden_dim, rng);
        let uf = weight("uf", hidden_dim, hidden_dim, rng);
        let wo = weight("wo", in_dim, hidden_dim, rng);
        let uo = weight("uo", hidden_dim, hidden_dim, rng);
        let wg = weight("wg", in_dim, hidden_dim, rng);
        let ug = weight("ug", hidden_dim, hidden_dim, rng);
        let bi = store.add(format!("{name}.bi"), Matrix::zeros(1, hidden_dim));
        let bf = store.add(format!("{name}.bf"), Matrix::full(1, hidden_dim, 1.0));
        let bo = store.add(format!("{name}.bo"), Matrix::zeros(1, hidden_dim));
        let bg = store.add(format!("{name}.bg"), Matrix::zeros(1, hidden_dim));
        LstmCell {
            wi,
            ui,
            bi,
            wf,
            uf,
            bf,
            wo,
            uo,
            bo,
            wg,
            ug,
            bg,
            in_dim,
            hidden_dim,
        }
    }

    /// Input dimension.
    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    /// Hidden state dimension.
    pub fn hidden_dim(&self) -> usize {
        self.hidden_dim
    }

    /// One LSTM step: `(x, (h, c)) -> (h', c')`.
    pub fn step(&self, tape: &mut Tape<'_>, x: Var, h: Var, c: Var) -> (Var, Var) {
        let gate = |tape: &mut Tape<'_>, w: ParamId, u: ParamId, b: ParamId| {
            let wv = tape.param(w);
            let uv = tape.param(u);
            let bv = tape.param(b);
            let xw = tape.matmul(x, wv);
            let hu = tape.matmul(h, uv);
            let s = tape.add(xw, hu);
            tape.add_bias(s, bv)
        };
        let i_pre = gate(tape, self.wi, self.ui, self.bi);
        let i = tape.sigmoid(i_pre);
        let f_pre = gate(tape, self.wf, self.uf, self.bf);
        let f = tape.sigmoid(f_pre);
        let o_pre = gate(tape, self.wo, self.uo, self.bo);
        let o = tape.sigmoid(o_pre);
        let g_pre = gate(tape, self.wg, self.ug, self.bg);
        let g = tape.tanh(g_pre);
        let fc = tape.mul(f, c);
        let ig = tape.mul(i, g);
        let c_next = tape.add(fc, ig);
        let tc = tape.tanh(c_next);
        let h_next = tape.mul(o, tc);
        (h_next, c_next)
    }

    /// How many `rows × H` blocks [`LstmCell::step_rows`] needs as scratch;
    /// the first carries the cell state from step to step.
    pub(crate) const SCRATCH_BLOCKS: usize = 6;

    /// [`LstmCell::step`] without a tape, for the first `live` rows of
    /// row-major blocks: `x` holds one input per row, `h` one hidden state,
    /// updated in place. The cell state lives in `scratch`, which must
    /// start out as zeros and come back untouched for the next step.
    pub(crate) fn step_rows(
        &self,
        store: &ParamStore,
        x: &[f32],
        h: &mut [f32],
        live: usize,
        scratch: &mut [f32],
    ) {
        let n = live * self.hidden_dim;
        let h = &mut h[..n];
        let mut blocks = scratch.chunks_exact_mut(scratch.len() / Self::SCRATCH_BLOCKS);
        let mut block = || &mut blocks.next().expect("six scratch blocks")[..n];
        let (c, xw, i, f, o, g) = (block(), block(), block(), block(), block(), block());

        gate_rows(store, (self.wi, self.ui, self.bi), x, h, live, xw, i);
        gate_rows(store, (self.wf, self.uf, self.bf), x, h, live, xw, f);
        gate_rows(store, (self.wo, self.uo, self.bo), x, h, live, xw, o);
        gate_rows(store, (self.wg, self.ug, self.bg), x, h, live, xw, g);
        for p in 0..n {
            let keep = sigmoid(f[p]) * c[p];
            let write = sigmoid(i[p]) * g[p].tanh();
            c[p] = keep + write;
            h[p] = sigmoid(o[p]) * c[p].tanh();
        }
    }

    /// Runs the cell over `xs` (`L × in`) from zero states, returning the
    /// final hidden state (`1 × H`).
    pub fn run_sequence(&self, tape: &mut Tape<'_>, xs: Var) -> Var {
        let len = tape.value(xs).rows();
        let mut h = tape.input(Matrix::zeros(1, self.hidden_dim));
        let mut c = tape.input(Matrix::zeros(1, self.hidden_dim));
        for t in 0..len {
            let x = tape.row(xs, t);
            let (nh, nc) = self.step(tape, x, h, c);
            h = nh;
            c = nc;
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::GradStore;
    use rand::SeedableRng;

    fn cell(in_dim: usize, hidden: usize) -> (ParamStore, LstmCell) {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(21);
        let cell = LstmCell::new(&mut store, "lstm", in_dim, hidden, &mut rng);
        (store, cell)
    }

    #[test]
    fn registers_twelve_parameters_with_forget_bias_one() {
        let (store, c) = cell(4, 6);
        assert_eq!(store.len(), 12);
        assert_eq!(c.in_dim(), 4);
        assert_eq!(c.hidden_dim(), 6);
        assert!(store.value(c.bf).data().iter().all(|&v| v == 1.0));
    }

    #[test]
    fn step_shapes_and_bounds() {
        let (store, cell) = cell(3, 5);
        let mut tape = Tape::new(&store);
        let x = tape.input(Matrix::full(1, 3, 2.0));
        let h0 = tape.input(Matrix::zeros(1, 5));
        let c0 = tape.input(Matrix::zeros(1, 5));
        let (h1, c1) = cell.step(&mut tape, x, h0, c0);
        assert_eq!(tape.value(h1).shape(), (1, 5));
        assert_eq!(tape.value(c1).shape(), (1, 5));
        // |h| = |o · tanh(c)| < 1 always.
        assert!(tape.value(h1).data().iter().all(|v| v.abs() < 1.0));
    }

    #[test]
    fn sequence_gradients_reach_all_parameters() {
        let (store, cell) = cell(2, 3);
        let mut tape = Tape::new(&store);
        let xs = tape.input(Matrix::from_rows(&[
            &[0.5, -0.5],
            &[0.2, 0.9],
            &[-0.7, 0.1],
        ]));
        let h = cell.run_sequence(&mut tape, xs);
        let w = tape.input(Matrix::full(3, 1, 1.0));
        let y = tape.matmul(h, w);
        let loss = tape.mse_scalar(y, 0.3);
        let mut grads = GradStore::new(&store);
        tape.backward(loss, &mut grads);
        for (id, name, _) in store.iter() {
            assert!(grads.get(id).is_some(), "parameter {name} missed by BPTT");
        }
    }

    #[test]
    fn finite_difference_spot_check() {
        let (mut store, cell) = cell(2, 3);
        let xs_data = Matrix::from_rows(&[&[0.4, -0.2], &[0.3, 0.6]]);
        let head = Matrix::from_rows(&[&[0.8], &[-0.4], &[0.1]]);
        let eval = |store: &ParamStore| {
            let mut tape = Tape::new(store);
            let xs = tape.input(xs_data.clone());
            let h = cell.run_sequence(&mut tape, xs);
            let w = tape.input(head.clone());
            let y = tape.matmul(h, w);
            let loss = tape.mse_scalar(y, 0.1);
            tape.scalar(loss)
        };
        let mut grads = GradStore::new(&store);
        {
            let mut tape = Tape::new(&store);
            let xs = tape.input(xs_data.clone());
            let h = cell.run_sequence(&mut tape, xs);
            let w = tape.input(head.clone());
            let y = tape.matmul(h, w);
            let loss = tape.mse_scalar(y, 0.1);
            tape.backward(loss, &mut grads);
        }
        let eps = 1e-2f32;
        for (pid, name, _) in store.clone().iter() {
            let (rows, cols) = store.value(pid).shape();
            for (r, c) in [(0, 0), (rows - 1, cols - 1)] {
                let orig = store.value(pid).at(r, c);
                *store.value_mut(pid).at_mut(r, c) = orig + eps;
                let up = eval(&store);
                *store.value_mut(pid).at_mut(r, c) = orig - eps;
                let down = eval(&store);
                *store.value_mut(pid).at_mut(r, c) = orig;
                let numeric = (up - down) / (2.0 * eps);
                let analytic = grads.get(pid).map_or(0.0, |g| g.at(r, c));
                assert!(
                    (numeric - analytic).abs() < 1e-2 + 0.08 * numeric.abs().max(analytic.abs()),
                    "{name}({r},{c}): numeric {numeric} vs analytic {analytic}"
                );
            }
        }
    }
}

//! Gated Recurrent Unit (Cho et al., 2014) — the sequence encoder of
//! PathRank.
//!
//! Per step, with input `x` (`1 × in`), previous hidden `h` (`1 × H`):
//!
//! ```text
//! z = σ(x·Wz + h·Uz + bz)          update gate
//! r = σ(x·Wr + h·Ur + br)          reset gate
//! c = tanh(x·Wh + (r∘h)·Uh + bh)   candidate state
//! h' = (1 − z)∘h + z∘c
//! ```

use pathrank_rng::rngs::StdRng;

use crate::infer::{gate_rows, sigmoid};
use crate::init::xavier_uniform;
use crate::matrix::Matrix;
use crate::params::{ParamId, ParamStore};
use crate::tape::{Tape, Var};

/// GRU cell parameters.
#[derive(Debug, Clone)]
pub struct GruCell {
    wz: ParamId,
    uz: ParamId,
    bz: ParamId,
    wr: ParamId,
    ur: ParamId,
    br: ParamId,
    wh: ParamId,
    uh: ParamId,
    bh: ParamId,
    in_dim: usize,
    hidden_dim: usize,
}

impl GruCell {
    /// Creates a GRU cell, registering its nine parameter matrices under
    /// `{name}.*`.
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
        let wz = weight("wz", in_dim, hidden_dim, rng);
        let uz = weight("uz", hidden_dim, hidden_dim, rng);
        let wr = weight("wr", in_dim, hidden_dim, rng);
        let ur = weight("ur", hidden_dim, hidden_dim, rng);
        let wh = weight("wh", in_dim, hidden_dim, rng);
        let uh = weight("uh", hidden_dim, hidden_dim, rng);
        let bz = store.add(format!("{name}.bz"), Matrix::zeros(1, hidden_dim));
        let br = store.add(format!("{name}.br"), Matrix::zeros(1, hidden_dim));
        let bh = store.add(format!("{name}.bh"), Matrix::zeros(1, hidden_dim));
        GruCell {
            wz,
            uz,
            bz,
            wr,
            ur,
            br,
            wh,
            uh,
            bh,
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

    /// One GRU step: `(x: 1×in, h: 1×H) -> h': 1×H`.
    pub fn step(&self, tape: &mut Tape<'_>, x: Var, h: Var) -> Var {
        let gate = |tape: &mut Tape<'_>, w: ParamId, u: ParamId, b: ParamId, hin: Var| {
            let wv = tape.param(w);
            let uv = tape.param(u);
            let bv = tape.param(b);
            let xw = tape.matmul(x, wv);
            let hu = tape.matmul(hin, uv);
            let s = tape.add(xw, hu);
            tape.add_bias(s, bv)
        };
        let z_pre = gate(tape, self.wz, self.uz, self.bz, h);
        let z = tape.sigmoid(z_pre);
        let r_pre = gate(tape, self.wr, self.ur, self.br, h);
        let r = tape.sigmoid(r_pre);
        let rh = tape.mul(r, h);
        let c_pre = gate(tape, self.wh, self.uh, self.bh, rh);
        let c = tape.tanh(c_pre);
        let omz = tape.one_minus(z);
        let keep = tape.mul(omz, h);
        let write = tape.mul(z, c);
        tape.add(keep, write)
    }

    /// How many `rows × H` blocks [`GruCell::step_rows`] needs as scratch.
    pub(crate) const SCRATCH_BLOCKS: usize = 4;

    /// [`GruCell::step`] without a tape, for the first `live` rows of
    /// row-major blocks: `x` holds one input per row, `h` one hidden state,
    /// updated in place.
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
        let mut block = || &mut blocks.next().expect("four scratch blocks")[..n];
        let (xw, z, r, c) = (block(), block(), block(), block());

        gate_rows(store, (self.wz, self.uz, self.bz), x, h, live, xw, z);
        gate_rows(store, (self.wr, self.ur, self.br), x, h, live, xw, r);
        for ((z, r), &h) in z.iter_mut().zip(r.iter_mut()).zip(h.iter()) {
            *z = sigmoid(*z);
            *r = sigmoid(*r) * h;
        }
        gate_rows(store, (self.wh, self.uh, self.bh), x, r, live, xw, c);
        for ((h, &z), &c) in h.iter_mut().zip(z.iter()).zip(c.iter()) {
            let keep = (1.0 - z) * *h;
            let write = z * c.tanh();
            *h = keep + write;
        }
    }

    /// Runs the cell over a sequence `xs` (`L × in`, one row per step) from
    /// a zero initial state and returns the final hidden state (`1 × H`).
    pub fn run_sequence(&self, tape: &mut Tape<'_>, xs: Var) -> Var {
        let len = tape.value(xs).rows();
        let mut h = tape.input(Matrix::zeros(1, self.hidden_dim));
        for t in 0..len {
            let x = tape.row(xs, t);
            h = self.step(tape, x, h);
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::GradStore;
    use pathrank_rng::SeedableRng;

    fn cell(in_dim: usize, hidden: usize) -> (ParamStore, GruCell) {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(11);
        let cell = GruCell::new(&mut store, "gru", in_dim, hidden, &mut rng);
        (store, cell)
    }

    #[test]
    fn registers_nine_parameters() {
        let (store, cell) = cell(4, 8);
        assert_eq!(store.len(), 9);
        assert_eq!(cell.in_dim(), 4);
        assert_eq!(cell.hidden_dim(), 8);
        assert_eq!(
            store.scalar_count(),
            3 * (4 * 8) + 3 * (8 * 8) + 3 * 8,
            "3 input weights + 3 recurrent weights + 3 biases"
        );
    }

    #[test]
    fn step_output_is_bounded_and_finite() {
        let (store, cell) = cell(3, 5);
        let mut tape = Tape::new(&store);
        let x = tape.input(Matrix::full(1, 3, 10.0));
        let h0 = tape.input(Matrix::zeros(1, 5));
        let h1 = cell.step(&mut tape, x, h0);
        let out = tape.value(h1);
        assert_eq!(out.shape(), (1, 5));
        assert!(out.is_finite());
        // h' is a convex combination of h (0) and tanh-candidate (|c|<1).
        assert!(out.data().iter().all(|v| v.abs() < 1.0));
    }

    #[test]
    fn zero_update_gate_keeps_state() {
        // Forcing z ≈ 0 via a large negative update bias makes h' ≈ h.
        let (mut store, cell) = cell(2, 3);
        *store.value_mut(cell.bz) = Matrix::full(1, 3, -30.0);
        let mut tape = Tape::new(&store);
        let x = tape.input(Matrix::full(1, 2, 1.0));
        let h0 = tape.input(Matrix::from_rows(&[&[0.4, -0.2, 0.9]]));
        let h1 = cell.step(&mut tape, x, h0);
        for (a, b) in tape.value(h1).data().iter().zip([0.4, -0.2, 0.9]) {
            assert!((a - b).abs() < 1e-4, "state must be preserved: {a} vs {b}");
        }
    }

    #[test]
    fn full_update_gate_writes_candidate() {
        // Forcing z ≈ 1 makes h' ≈ tanh-candidate; zeroing the candidate's
        // recurrent weight Uh makes that candidate independent of h.
        let (mut store, cell) = cell(2, 3);
        *store.value_mut(cell.bz) = Matrix::full(1, 3, 30.0);
        *store.value_mut(cell.uh) = Matrix::zeros(3, 3);
        let x_data = Matrix::full(1, 2, 0.3);
        let run = |h0: Matrix, store: &ParamStore| {
            let mut tape = Tape::new(store);
            let x = tape.input(x_data.clone());
            let h0 = tape.input(h0);
            let h1 = cell.step(&mut tape, x, h0);
            tape.value(h1).clone()
        };
        let a = run(Matrix::zeros(1, 3), &store);
        let b = run(Matrix::full(1, 3, 0.5), &store);
        for (x, y) in a.data().iter().zip(b.data().iter()) {
            assert!(
                (x - y).abs() < 1e-4,
                "candidate should dominate: {x} vs {y}"
            );
        }
    }

    #[test]
    fn sequence_gradients_reach_all_parameters() {
        let (store, cell) = cell(3, 4);
        let mut tape = Tape::new(&store);
        let xs = tape.input(Matrix::from_rows(&[
            &[0.1, 0.2, 0.3],
            &[-0.1, 0.0, 0.5],
            &[0.7, -0.3, 0.2],
        ]));
        let h = cell.run_sequence(&mut tape, xs);
        let w = tape.input(Matrix::full(4, 1, 1.0));
        let y = tape.matmul(h, w);
        let loss = tape.mse_scalar(y, 1.0);
        let mut grads = GradStore::new(&store);
        tape.backward(loss, &mut grads);
        for (id, name, _) in store.iter() {
            assert!(
                grads.get(id).is_some(),
                "parameter {name} received no gradient through BPTT"
            );
        }
    }

    /// Finite-difference check of the full unrolled GRU.
    #[test]
    fn finite_difference_through_time() {
        let (mut store, cell) = cell(2, 3);
        let xs_data = Matrix::from_rows(&[&[0.3, -0.4], &[0.1, 0.8], &[-0.6, 0.2]]);
        let head = Matrix::from_rows(&[&[0.5], &[-0.7], &[0.3]]);

        let eval = |store: &ParamStore| -> f32 {
            let mut tape = Tape::new(store);
            let xs = tape.input(xs_data.clone());
            let h = cell.run_sequence(&mut tape, xs);
            let w = tape.input(head.clone());
            let y = tape.matmul(h, w);
            let loss = tape.mse_scalar(y, 0.25);
            tape.scalar(loss)
        };

        let mut grads = GradStore::new(&store);
        {
            let mut tape = Tape::new(&store);
            let xs = tape.input(xs_data.clone());
            let h = cell.run_sequence(&mut tape, xs);
            let w = tape.input(head.clone());
            let y = tape.matmul(h, w);
            let loss = tape.mse_scalar(y, 0.25);
            tape.backward(loss, &mut grads);
        }

        let eps = 1e-2f32;
        for (pid, name, _) in store.clone().iter() {
            let (rows, cols) = store.value(pid).shape();
            // Spot-check a few entries per parameter to keep the test fast.
            for (r, c) in [(0, 0), (rows - 1, cols - 1), (rows / 2, cols / 2)] {
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

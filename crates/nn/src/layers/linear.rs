//! Fully-connected (dense) layer.

use pathrank_rng::rngs::StdRng;

use crate::infer::rows_times;
use crate::init::xavier_uniform;
use crate::matrix::Matrix;
use crate::params::{ParamId, ParamStore};
use crate::tape::{Tape, Var};

/// A dense layer `y = x·W + b` with `W: in_dim × out_dim`, `b: 1 × out_dim`.
#[derive(Debug, Clone)]
pub struct Linear {
    /// Weight parameter handle.
    pub w: ParamId,
    /// Bias parameter handle.
    pub b: ParamId,
    in_dim: usize,
    out_dim: usize,
}

impl Linear {
    /// Creates the layer, registering `W` (Xavier) and `b` (zeros) in the
    /// store under `{name}.w` / `{name}.b`.
    pub fn new(
        store: &mut ParamStore,
        name: &str,
        in_dim: usize,
        out_dim: usize,
        rng: &mut StdRng,
    ) -> Self {
        let w = store.add(format!("{name}.w"), xavier_uniform(in_dim, out_dim, rng));
        let b = store.add(format!("{name}.b"), Matrix::zeros(1, out_dim));
        Linear {
            w,
            b,
            in_dim,
            out_dim,
        }
    }

    /// Input dimension.
    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    /// Output dimension.
    pub fn out_dim(&self) -> usize {
        self.out_dim
    }

    /// Applies the layer to `x` (`n × in_dim`), yielding `n × out_dim`.
    pub fn forward(&self, tape: &mut Tape<'_>, x: Var) -> Var {
        let w = tape.param(self.w);
        let b = tape.param(self.b);
        let xw = tape.matmul(x, w);
        tape.add_bias(xw, b)
    }

    /// [`Linear::forward`] without a tape: `out = x·W + b` for `rows` rows
    /// of row-major blocks.
    pub(crate) fn forward_rows(&self, store: &ParamStore, x: &[f32], rows: usize, out: &mut [f32]) {
        let out = &mut out[..rows * self.out_dim];
        out.fill(0.0);
        rows_times(x, store.value(self.w), out, rows);
        for out_row in out.chunks_exact_mut(self.out_dim) {
            for (o, &b) in out_row.iter_mut().zip(store.value(self.b).data()) {
                *o += b;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::GradStore;
    use pathrank_rng::SeedableRng;

    #[test]
    fn forward_shape_and_bias() {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(3);
        let lin = Linear::new(&mut store, "fc", 4, 2, &mut rng);
        assert_eq!(lin.in_dim(), 4);
        assert_eq!(lin.out_dim(), 2);
        // Set bias to a known value and weights to zero: output == bias.
        *store.value_mut(lin.w) = Matrix::zeros(4, 2);
        *store.value_mut(lin.b) = Matrix::from_rows(&[&[0.5, -0.5]]);
        let mut tape = Tape::new(&store);
        let x = tape.input(Matrix::full(3, 4, 1.0));
        let y = lin.forward(&mut tape, x);
        assert_eq!(tape.value(y).shape(), (3, 2));
        for r in 0..3 {
            assert_eq!(tape.value(y).row(r), &[0.5, -0.5]);
        }
    }

    #[test]
    fn gradients_flow_to_both_params() {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(4);
        let lin = Linear::new(&mut store, "fc", 3, 1, &mut rng);
        let mut tape = Tape::new(&store);
        let x = tape.input(Matrix::from_rows(&[&[1.0, 2.0, 3.0]]));
        let y = lin.forward(&mut tape, x);
        let loss = tape.mse_scalar(y, 10.0);
        let mut grads = GradStore::new(&store);
        tape.backward(loss, &mut grads);
        assert!(grads.get(lin.w).is_some());
        assert!(grads.get(lin.b).is_some());
        // dL/db = 2*(y - 10) and dL/dw = x^T * that.
        let dy = 2.0 * (tape.value(y).at(0, 0) - 10.0);
        assert!((grads.get(lin.b).unwrap().at(0, 0) - dy).abs() < 1e-4);
        assert!((grads.get(lin.w).unwrap().at(2, 0) - 3.0 * dy).abs() < 1e-3);
    }
}

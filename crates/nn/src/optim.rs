//! The first-order optimiser training runs: Adam.
//!
//! Optimisers mutate a [`ParamStore`] given a [`GradStore`]. They keep
//! per-parameter state lazily, and per row: a parameter that never
//! receives a gradient (a frozen embedding) costs nothing, and of a table
//! whose gradient is row-sparse only the rows that have ever had one carry
//! state and are visited. That is the whole-matrix update bit for bit: with
//! zero state and a zero gradient it computes exactly `p − 0`.

use crate::matrix::Matrix;
use crate::params::{Grad, GradStore, ParamStore, RowBlock};

/// A first-order optimiser.
pub trait Optimizer {
    /// Applies one update step from accumulated gradients.
    fn step(&mut self, store: &mut ParamStore, grads: &GradStore);

    /// The current learning rate.
    fn learning_rate(&self) -> f32;

    /// Overrides the learning rate (for schedules).
    fn set_learning_rate(&mut self, lr: f32);
}

/// Per-parameter state: `width` values for every row that has ever been
/// active.
#[derive(Debug, Clone, Default)]
struct RowState {
    blocks: Vec<Option<RowBlock>>,
    /// Stands in for the gradient of a row the batch did not touch.
    zeros: Vec<f32>,
}

impl RowState {
    /// One update of `theta` from `g`: the rows `g` touches — every row
    /// when it is a whole matrix — join the state, then
    /// `update(param_row, state_row, grad_row)` runs on each row the
    /// state holds.
    fn step(
        &mut self,
        id: usize,
        width: usize,
        theta: &mut Matrix,
        g: &Grad,
        mut update: impl FnMut(&mut [f32], &mut [f32], &[f32]),
    ) {
        if self.blocks.len() <= id {
            self.blocks.resize(id + 1, None);
        }
        if self.zeros.len() < theta.cols() {
            self.zeros.resize(theta.cols(), 0.0);
        }
        let zeros = &self.zeros[..theta.cols()];
        let state = self.blocks[id].get_or_insert_with(|| RowBlock::new(theta.rows(), width));
        if state.rows().len() < theta.rows() {
            match g.touched() {
                Some(rows) => rows.iter().for_each(|&r| {
                    state.entry(r);
                }),
                None => (0..theta.rows() as u32).for_each(|r| {
                    state.entry(r);
                }),
            }
        }
        for slot in 0..state.rows().len() {
            let row = state.rows()[slot] as usize;
            let g_row = g.row(row).unwrap_or(zeros);
            update(theta.row_mut(row), state.slot_mut(slot), g_row);
        }
    }

    fn heap_bytes(&self) -> usize {
        self.blocks.iter().flatten().map(RowBlock::heap_bytes).sum()
    }
}

/// Adam (Kingma & Ba, 2015).
#[derive(Debug, Clone)]
pub struct Adam {
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    t: u64,
    /// First and second moment of a row, side by side: `[m | v]`.
    moments: RowState,
}

impl Adam {
    /// Adam with the canonical hyper-parameters (β₁ = 0.9, β₂ = 0.999,
    /// ε = 1e-8).
    pub fn new(lr: f32) -> Self {
        Adam {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            t: 0,
            moments: RowState::default(),
        }
    }

    /// Number of steps taken so far.
    pub fn steps(&self) -> u64 {
        self.t
    }

    /// Bytes of heap memory the moments hold, spare capacity included.
    pub fn heap_bytes(&self) -> usize {
        self.moments.heap_bytes()
    }
}

impl Optimizer for Adam {
    fn step(&mut self, store: &mut ParamStore, grads: &GradStore) {
        self.t += 1;
        let bc1 = 1.0 - self.beta1.powi(self.t as i32);
        let bc2 = 1.0 - self.beta2.powi(self.t as i32);
        let (lr, beta1, beta2, eps) = (self.lr, self.beta1, self.beta2, self.eps);
        for (id, g) in grads.iter() {
            let theta = store.value_mut(id);
            let cols = theta.cols();
            self.moments.step(id.0, 2 * cols, theta, g, |p, mv, g_row| {
                let (m, v) = mv.split_at_mut(cols);
                for (((p, m), v), &gv) in p.iter_mut().zip(m).zip(v).zip(g_row) {
                    *m = beta1 * *m + (1.0 - beta1) * gv;
                    *v = beta2 * *v + (1.0 - beta2) * gv * gv;
                    let m_hat = *m / bc1;
                    let v_hat = *v / bc2;
                    *p -= lr * (m_hat / (v_hat.sqrt() + eps));
                }
            });
        }
    }

    fn learning_rate(&self) -> f32 {
        self.lr
    }

    fn set_learning_rate(&mut self, lr: f32) {
        self.lr = lr;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::ParamStore;
    use crate::tape::Tape;

    /// Minimises (w·x − y)² on a fixed batch; any reasonable optimiser must
    /// drive the loss near zero.
    fn fit(mut opt: impl Optimizer, iters: usize) -> f32 {
        let mut store = ParamStore::new();
        let w = store.add("w", Matrix::from_vec(1, 1, vec![0.0]));
        let (x, y) = (3.0f32, 6.0f32); // optimum w = 2
        let mut last = f32::INFINITY;
        for _ in 0..iters {
            let mut tape = Tape::new(&store);
            let wv = tape.param(w);
            let xv = tape.input(Matrix::from_vec(1, 1, vec![x]));
            let pred = tape.mul(wv, xv);
            let loss = tape.mse_scalar(pred, y);
            last = tape.scalar(loss);
            let mut grads = GradStore::new(&store);
            tape.backward(loss, &mut grads);
            opt.step(&mut store, &grads);
        }
        last
    }

    #[test]
    fn adam_converges_on_quadratic() {
        assert!(fit(Adam::new(0.2), 200) < 1e-3);
    }

    #[test]
    fn adam_bias_correction_first_step() {
        // After one step with gradient g, Adam moves by ~lr * sign(g).
        let mut store = ParamStore::new();
        let w = store.add("w", Matrix::from_vec(1, 1, vec![1.0]));
        let mut grads = GradStore::new(&store);
        grads.accumulate(w, &Matrix::from_vec(1, 1, vec![0.5]));
        let mut adam = Adam::new(0.1);
        adam.step(&mut store, &grads);
        let moved = 1.0 - store.value(w).at(0, 0);
        assert!(
            (moved - 0.1).abs() < 1e-3,
            "first Adam step ≈ lr, got {moved}"
        );
        assert_eq!(adam.steps(), 1);
    }

    #[test]
    fn learning_rate_accessors() {
        let mut a = Adam::new(0.3);
        assert_eq!(a.learning_rate(), 0.3);
        a.set_learning_rate(0.2);
        assert_eq!(a.learning_rate(), 0.2);
    }

    /// Three Adam steps on a 6 × 2 table of ones, with a row-sparse
    /// gradient on rows 4 and 1 in the first step only, against the same
    /// steps on whole-matrix gradients.
    #[test]
    fn adam_on_row_gradients_equals_adam_on_the_whole_matrix() {
        let mut sparse_store = ParamStore::new();
        let table = sparse_store.add("emb", Matrix::full(6, 2, 1.0));
        let mut dense_store = sparse_store.clone();
        let mut grads = GradStore::new(&sparse_store);
        let delta = Matrix::from_rows(&[&[0.5, -0.25], &[2.0, 1.0]]);
        grads.accumulate_rows(table, &[4, 1], &delta);
        let mut whole = GradStore::new(&dense_store);
        let mut m = Matrix::zeros(6, 2);
        m.row_mut(4).copy_from_slice(&[0.5, -0.25]);
        m.row_mut(1).copy_from_slice(&[2.0, 1.0]);
        whole.accumulate(table, &m);

        let (mut sparse, mut dense) = (Adam::new(0.05), Adam::new(0.05));
        sparse.step(&mut sparse_store, &grads);
        dense.step(&mut dense_store, &whole);
        for _ in 0..2 {
            let mut g = GradStore::new(&sparse_store);
            g.accumulate_rows(table, &[], &Matrix::zeros(0, 2));
            sparse.step(&mut sparse_store, &g);
            let mut g = GradStore::new(&dense_store);
            g.accumulate(table, &Matrix::zeros(6, 2));
            dense.step(&mut dense_store, &g);
        }
        let bits = |s: &ParamStore| -> Vec<u32> {
            s.value(table).data().iter().map(|v| v.to_bits()).collect()
        };
        assert_eq!(bits(&sparse_store), bits(&dense_store));
        assert_ne!(sparse_store.value(table).at(4, 0), 1.0, "row 4 did move");
    }

    #[test]
    fn a_batch_over_a_large_table_costs_what_it_touches() {
        // The benchmark's table, 2.6 MiB as a matrix; 32 paths of 30
        // distinct vertices each.
        let (vocab, dim, paths, len) = (10_473usize, 64usize, 32u32, 30u32);
        let mut store = ParamStore::new();
        let table = store.add("emb", Matrix::zeros(vocab, dim));
        let mut grads = GradStore::new(&store);
        let delta = Matrix::full(len as usize, dim, 0.5);
        for p in 0..paths {
            let rows: Vec<u32> = (0..len).map(|i| (p * 311 + i * 7) % vocab as u32).collect();
            grads.accumulate_rows(table, &rows, &delta);
        }
        assert!(
            grads.heap_bytes() < 512 << 10,
            "store holds {} bytes",
            grads.heap_bytes()
        );
        let mut adam = Adam::new(1e-3);
        adam.step(&mut store, &grads);
        assert!(
            adam.heap_bytes() < 1 << 20,
            "Adam holds {} bytes",
            adam.heap_bytes()
        );
    }

    #[test]
    fn untouched_params_are_not_updated() {
        let mut store = ParamStore::new();
        let w = store.add("w", Matrix::from_vec(1, 1, vec![1.0]));
        let frozen = store.add("frozen", Matrix::from_vec(1, 1, vec![42.0]));
        let mut grads = GradStore::new(&store);
        grads.accumulate(w, &Matrix::from_vec(1, 1, vec![1.0]));
        let mut adam = Adam::new(0.1);
        adam.step(&mut store, &grads);
        assert_eq!(store.value(frozen).at(0, 0), 42.0);
        assert_ne!(store.value(w).at(0, 0), 1.0);
    }
}

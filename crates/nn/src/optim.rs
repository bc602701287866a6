//! First-order optimisers: SGD (with momentum) and Adam.
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
    /// when it is a whole matrix or `every_row` asks for it — join the
    /// state, then `update(param_row, state_row, grad_row)` runs on each
    /// row the state holds.
    fn step(
        &mut self,
        id: usize,
        width: usize,
        theta: &mut Matrix,
        g: &Grad,
        every_row: bool,
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
                Some(rows) if !every_row => rows.iter().for_each(|&r| {
                    state.entry(r);
                }),
                _ => (0..theta.rows() as u32).for_each(|r| {
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

/// Stochastic gradient descent with optional classical momentum.
#[derive(Debug, Clone)]
pub struct Sgd {
    lr: f32,
    momentum: f32,
    velocity: RowState,
}

impl Sgd {
    /// Plain SGD.
    pub fn new(lr: f32) -> Self {
        Sgd::with_momentum(lr, 0.0)
    }

    /// SGD with momentum `mu` (velocity `v ← mu·v + g`, `θ ← θ − lr·v`).
    pub fn with_momentum(lr: f32, mu: f32) -> Self {
        Sgd {
            lr,
            momentum: mu,
            velocity: RowState::default(),
        }
    }
}

impl Optimizer for Sgd {
    fn step(&mut self, store: &mut ParamStore, grads: &GradStore) {
        let (lr, mu) = (self.lr, self.momentum);
        for (id, g) in grads.iter() {
            let theta = store.value_mut(id);
            if mu == 0.0 {
                g.for_each_row(|r, g_row| {
                    for (p, &gv) in theta.row_mut(r).iter_mut().zip(g_row) {
                        *p += -lr * gv;
                    }
                });
            } else {
                let cols = theta.cols();
                self.velocity
                    .step(id.0, cols, theta, g, false, |p, v, g_row| {
                        for ((p, v), &gv) in p.iter_mut().zip(v.iter_mut()).zip(g_row) {
                            *v = mu * *v + gv;
                            *p += -lr * *v;
                        }
                    });
            }
        }
    }

    fn learning_rate(&self) -> f32 {
        self.lr
    }

    fn set_learning_rate(&mut self, lr: f32) {
        self.lr = lr;
    }
}

/// Adam (Kingma & Ba, 2015) with optional decoupled weight decay.
#[derive(Debug, Clone)]
pub struct Adam {
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    weight_decay: f32,
    t: u64,
    /// First and second moment of a row, side by side: `[m | v]`.
    moments: RowState,
}

impl Adam {
    /// Adam with the canonical hyper-parameters (β₁ = 0.9, β₂ = 0.999,
    /// ε = 1e-8, no weight decay).
    pub fn new(lr: f32) -> Self {
        Adam {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            weight_decay: 0.0,
            t: 0,
            moments: RowState::default(),
        }
    }

    /// Sets decoupled weight decay (AdamW style).
    pub fn with_weight_decay(mut self, wd: f32) -> Self {
        self.weight_decay = wd;
        self
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
        let (lr, beta1, beta2, eps, wd) =
            (self.lr, self.beta1, self.beta2, self.eps, self.weight_decay);
        for (id, g) in grads.iter() {
            let theta = store.value_mut(id);
            let cols = theta.cols();
            // Decay moves every row of a parameter that has a gradient.
            self.moments
                .step(id.0, 2 * cols, theta, g, wd != 0.0, |p, mv, g_row| {
                    let (m, v) = mv.split_at_mut(cols);
                    for (((p, m), v), &gv) in p.iter_mut().zip(m).zip(v).zip(g_row) {
                        *m = beta1 * *m + (1.0 - beta1) * gv;
                        *v = beta2 * *v + (1.0 - beta2) * gv * gv;
                        let m_hat = *m / bc1;
                        let v_hat = *v / bc2;
                        *p -= lr * (m_hat / (v_hat.sqrt() + eps) + wd * *p);
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
    fn sgd_converges_on_quadratic() {
        assert!(fit(Sgd::new(0.05), 100) < 1e-4);
    }

    #[test]
    fn sgd_momentum_converges() {
        assert!(fit(Sgd::with_momentum(0.02, 0.9), 150) < 1e-3);
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
    fn weight_decay_shrinks_params_without_gradient_signal() {
        let mut store = ParamStore::new();
        let w = store.add("w", Matrix::from_vec(1, 1, vec![1.0]));
        let mut grads = GradStore::new(&store);
        grads.accumulate(w, &Matrix::from_vec(1, 1, vec![0.0]));
        let mut adam = Adam::new(0.1).with_weight_decay(0.5);
        adam.step(&mut store, &grads);
        assert!(store.value(w).at(0, 0) < 1.0);
    }

    #[test]
    fn learning_rate_accessors() {
        let mut o = Sgd::new(0.1);
        assert_eq!(o.learning_rate(), 0.1);
        o.set_learning_rate(0.01);
        assert_eq!(o.learning_rate(), 0.01);
        let mut a = Adam::new(0.3);
        a.set_learning_rate(0.2);
        assert_eq!(a.learning_rate(), 0.2);
    }

    /// A 6 × 2 table of ones with a row-sparse gradient on rows 4 and 1.
    fn table_with_row_gradient() -> (ParamStore, crate::params::ParamId, GradStore) {
        let mut store = ParamStore::new();
        let table = store.add("emb", Matrix::full(6, 2, 1.0));
        let mut grads = GradStore::new(&store);
        let delta = Matrix::from_rows(&[&[0.5, -0.25], &[2.0, 1.0]]);
        grads.accumulate_rows(table, &[4, 1], &delta);
        (store, table, grads)
    }

    #[test]
    fn sgd_moves_exactly_the_touched_rows_of_an_embedding() {
        for mut opt in [Sgd::new(0.1), Sgd::with_momentum(0.1, 0.9)] {
            let (mut store, table, grads) = table_with_row_gradient();
            opt.step(&mut store, &grads);
            let t = store.value(table);
            assert_eq!(t.row(4), &[1.0 - 0.1 * 0.5, 1.0 + 0.1 * 0.25]);
            assert_eq!(t.row(1), &[1.0 - 0.1 * 2.0, 1.0 - 0.1 * 1.0]);
            for r in [0, 2, 3, 5] {
                assert_eq!(t.row(r), &[1.0, 1.0], "row {r} has no gradient");
            }
        }
        // Momentum carries a row on after its gradient is gone.
        let (mut store, table, grads) = table_with_row_gradient();
        let mut opt = Sgd::with_momentum(0.1, 0.9);
        opt.step(&mut store, &grads);
        let after_one = store.value(table).clone();
        let mut later = GradStore::new(&store);
        later.accumulate_rows(table, &[0], &Matrix::from_rows(&[&[1.0, 1.0]]));
        opt.step(&mut store, &later);
        let t = store.value(table);
        assert_eq!(t.at(4, 0), after_one.at(4, 0) + -0.1 * (0.9 * 0.5));
        assert_ne!(t.row(0), after_one.row(0));
        assert_eq!(t.row(2), after_one.row(2));
    }

    /// Three Adam steps with rows touched in the first only, against the
    /// same steps on whole-matrix gradients.
    fn adam_rows_vs_whole_matrix(make: impl Fn() -> Adam) {
        let (mut sparse_store, table, grads) = table_with_row_gradient();
        let mut dense_store = sparse_store.clone();
        let mut whole = GradStore::new(&dense_store);
        let mut m = Matrix::zeros(6, 2);
        m.row_mut(4).copy_from_slice(&[0.5, -0.25]);
        m.row_mut(1).copy_from_slice(&[2.0, 1.0]);
        whole.accumulate(table, &m);

        let (mut sparse, mut dense) = (make(), make());
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
    fn adam_on_row_gradients_equals_adam_on_the_whole_matrix() {
        adam_rows_vs_whole_matrix(|| Adam::new(0.05));
    }

    #[test]
    fn adam_weight_decay_reaches_every_row_of_a_row_sparse_table() {
        adam_rows_vs_whole_matrix(|| Adam::new(0.05).with_weight_decay(0.01));
        let (mut store, table, grads) = table_with_row_gradient();
        Adam::new(0.05)
            .with_weight_decay(0.01)
            .step(&mut store, &grads);
        assert!(
            store.value(table).at(0, 0) < 1.0,
            "an untouched row decays too"
        );
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

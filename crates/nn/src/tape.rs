//! Reverse-mode automatic differentiation on a per-sample tape.
//!
//! A [`Tape`] records a computation graph over [`Matrix`] values. Leaves are
//! either constants ([`Tape::input`]), parameters ([`Tape::param`], read
//! from a shared [`ParamStore`] without copying) or sparse embedding lookups
//! ([`Tape::embed`]). Calling [`Tape::backward`] walks the graph once in
//! reverse and deposits parameter gradients into a [`GradStore`].
//!
//! The tape borrows the parameter store immutably, so any number of tapes
//! can run concurrently against the same store — PathRank's trainer
//! exploits this for parallel mini-batch gradient computation.

use crate::infer::sigmoid;
use crate::matrix::Matrix;
use crate::params::{GradStore, ParamId, ParamStore};

/// Handle to a node on a [`Tape`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Var(usize);

#[derive(Debug)]
enum Op {
    /// Constant leaf: no gradient flows into it.
    Input,
    /// Parameter leaf: value lives in the [`ParamStore`].
    Param(ParamId),
    /// Sparse row gather from an embedding parameter.
    Embed {
        param: ParamId,
        indices: Vec<u32>,
    },
    MatMul(Var, Var),
    Add(Var, Var),
    AddRowBroadcast(Var, Var),
    Sub(Var, Var),
    Mul(Var, Var),
    Scale(Var, f32),
    Sigmoid(Var),
    Tanh(Var),
    Relu(Var),
    Row(Var, usize),
    MeanRows(Var),
    /// `(a₀₀ - target)²` for a `1×1` input — the regression loss.
    MseScalar(Var, f32),
}

#[derive(Debug)]
struct Node {
    op: Op,
    /// `None` only for `Param` nodes, whose value lives in the store.
    value: Option<Matrix>,
}

/// A computation tape. Build ops, then call [`Tape::backward`] once.
#[derive(Debug)]
pub struct Tape<'s> {
    store: &'s ParamStore,
    nodes: Vec<Node>,
}

impl<'s> Tape<'s> {
    /// A fresh tape over `store`.
    pub fn new(store: &'s ParamStore) -> Self {
        Tape {
            store,
            nodes: Vec::with_capacity(64),
        }
    }

    /// Number of recorded nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the tape is empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Value of `v`.
    #[inline]
    pub fn value(&self, v: Var) -> &Matrix {
        let node = &self.nodes[v.0];
        match &node.op {
            Op::Param(p) => self.store.value(*p),
            _ => node
                .value
                .as_ref()
                .expect("non-param nodes own their value"),
        }
    }

    /// Value of a `1×1` node as a scalar.
    pub fn scalar(&self, v: Var) -> f32 {
        let m = self.value(v);
        assert_eq!(m.shape(), (1, 1), "scalar() needs a 1x1 node");
        m.at(0, 0)
    }

    fn push(&mut self, op: Op, value: Option<Matrix>) -> Var {
        self.nodes.push(Node { op, value });
        Var(self.nodes.len() - 1)
    }

    /// A constant leaf (inputs, frozen embeddings).
    pub fn input(&mut self, value: Matrix) -> Var {
        self.push(Op::Input, Some(value))
    }

    /// A parameter leaf; the value is read from the store, not copied.
    pub fn param(&mut self, id: ParamId) -> Var {
        self.push(Op::Param(id), None)
    }

    /// Gathers rows `indices` of embedding parameter `id` into an
    /// `indices.len() × dim` matrix. Gradients scatter back sparsely.
    pub fn embed(&mut self, id: ParamId, indices: &[u32]) -> Var {
        let out = self.store.value(id).gather_rows(indices);
        self.push(
            Op::Embed {
                param: id,
                indices: indices.to_vec(),
            },
            Some(out),
        )
    }

    /// Matrix product.
    pub fn matmul(&mut self, a: Var, b: Var) -> Var {
        let v = self.value(a).matmul(self.value(b));
        self.push(Op::MatMul(a, b), Some(v))
    }

    /// Elementwise sum (equal shapes).
    pub fn add(&mut self, a: Var, b: Var) -> Var {
        let v = self.value(a).add(self.value(b));
        self.push(Op::Add(a, b), Some(v))
    }

    /// Adds row vector `bias` (`1×c`) to every row of `a` (`n×c`).
    pub fn add_bias(&mut self, a: Var, bias: Var) -> Var {
        let v = self.value(a).add_row_broadcast(self.value(bias));
        self.push(Op::AddRowBroadcast(a, bias), Some(v))
    }

    /// Elementwise difference (equal shapes).
    pub fn sub(&mut self, a: Var, b: Var) -> Var {
        let v = self.value(a).sub(self.value(b));
        self.push(Op::Sub(a, b), Some(v))
    }

    /// Elementwise (Hadamard) product (equal shapes).
    pub fn mul(&mut self, a: Var, b: Var) -> Var {
        let v = self.value(a).mul(self.value(b));
        self.push(Op::Mul(a, b), Some(v))
    }

    /// Scalar multiple.
    pub fn scale(&mut self, a: Var, s: f32) -> Var {
        let v = self.value(a).scale(s);
        self.push(Op::Scale(a, s), Some(v))
    }

    /// `1 - a` elementwise (the GRU's update-gate complement), built from
    /// `scale` and a constant so it needs no dedicated op.
    pub fn one_minus(&mut self, a: Var) -> Var {
        let ones = Matrix::full(self.value(a).rows(), self.value(a).cols(), 1.0);
        let ones = self.input(ones);
        self.sub(ones, a)
    }

    /// Logistic sigmoid.
    pub fn sigmoid(&mut self, a: Var) -> Var {
        let v = self.value(a).map(sigmoid);
        self.push(Op::Sigmoid(a), Some(v))
    }

    /// Hyperbolic tangent.
    pub fn tanh(&mut self, a: Var) -> Var {
        let v = self.value(a).map(f32::tanh);
        self.push(Op::Tanh(a), Some(v))
    }

    /// Rectified linear unit.
    pub fn relu(&mut self, a: Var) -> Var {
        let v = self.value(a).map(|x| x.max(0.0));
        self.push(Op::Relu(a), Some(v))
    }

    /// Selects row `r` of `a` as a `1×c` matrix.
    pub fn row(&mut self, a: Var, r: usize) -> Var {
        let src = self.value(a);
        let v = Matrix::from_vec(1, src.cols(), src.row(r).to_vec());
        self.push(Op::Row(a, r), Some(v))
    }

    /// Mean over rows as a `1×c` matrix (mean-pool encoder).
    pub fn mean_rows(&mut self, a: Var) -> Var {
        let v = self.value(a).mean_rows();
        self.push(Op::MeanRows(a), Some(v))
    }

    /// Squared error `(a₀₀ - target)²` of a `1×1` prediction.
    pub fn mse_scalar(&mut self, a: Var, target: f32) -> Var {
        let p = self.scalar(a);
        let v = Matrix::from_vec(1, 1, vec![(p - target) * (p - target)]);
        self.push(Op::MseScalar(a, target), Some(v))
    }

    /// Runs reverse-mode differentiation from `loss` (a `1×1` node),
    /// accumulating parameter gradients into `grads`.
    pub fn backward(&self, loss: Var, grads: &mut GradStore) {
        assert_eq!(self.value(loss).shape(), (1, 1), "loss must be scalar");
        let mut adj: Vec<Option<Matrix>> = vec![None; self.nodes.len()];
        adj[loss.0] = Some(Matrix::from_vec(1, 1, vec![1.0]));

        for i in (0..self.nodes.len()).rev() {
            let Some(g) = adj[i].take() else { continue };
            match &self.nodes[i].op {
                Op::Input => {}
                Op::Param(p) => grads.accumulate(*p, &g),
                Op::Embed { param, indices } => grads.accumulate_rows(*param, indices, &g),
                Op::MatMul(a, b) => {
                    let da = g.matmul_transpose_rhs(self.value(*b));
                    let db = self.value(*a).transpose_matmul(&g);
                    acc(&mut adj, a.0, da);
                    acc(&mut adj, b.0, db);
                }
                Op::Add(a, b) => {
                    acc(&mut adj, a.0, g.clone());
                    acc(&mut adj, b.0, g);
                }
                Op::AddRowBroadcast(a, bias) => {
                    acc(&mut adj, bias.0, g.sum_rows());
                    acc(&mut adj, a.0, g);
                }
                Op::Sub(a, b) => {
                    acc(&mut adj, b.0, g.scale(-1.0));
                    acc(&mut adj, a.0, g);
                }
                Op::Mul(a, b) => {
                    let da = g.mul(self.value(*b));
                    let db = g.mul(self.value(*a));
                    acc(&mut adj, a.0, da);
                    acc(&mut adj, b.0, db);
                }
                Op::Scale(a, s) => acc(&mut adj, a.0, g.scale(*s)),
                Op::Sigmoid(a) => {
                    let y = self.nodes[i].value.as_ref().expect("sigmoid owns value");
                    acc(&mut adj, a.0, g.zip(y, |gv, yv| gv * yv * (1.0 - yv)));
                }
                Op::Tanh(a) => {
                    let y = self.nodes[i].value.as_ref().expect("tanh owns value");
                    acc(&mut adj, a.0, g.zip(y, |gv, yv| gv * (1.0 - yv * yv)));
                }
                Op::Relu(a) => {
                    let y = self.nodes[i].value.as_ref().expect("relu owns value");
                    acc(
                        &mut adj,
                        a.0,
                        g.zip(y, |gv, yv| if yv > 0.0 { gv } else { 0.0 }),
                    );
                }
                Op::Row(a, r) => {
                    let (rows, cols) = self.value(*a).shape();
                    let mut da = Matrix::zeros(rows, cols);
                    da.row_mut(*r).copy_from_slice(g.row(0));
                    acc(&mut adj, a.0, da);
                }
                Op::MeanRows(a) => {
                    let (rows, cols) = self.value(*a).shape();
                    let mut da = Matrix::zeros(rows, cols);
                    let inv = 1.0 / rows.max(1) as f32;
                    for r in 0..rows {
                        for (d, &gv) in da.row_mut(r).iter_mut().zip(g.row(0).iter()) {
                            *d = gv * inv;
                        }
                    }
                    acc(&mut adj, a.0, da);
                }
                Op::MseScalar(a, target) => {
                    let p = self.value(*a).at(0, 0);
                    let da = Matrix::from_vec(1, 1, vec![g.at(0, 0) * 2.0 * (p - target)]);
                    acc(&mut adj, a.0, da);
                }
            }
        }
    }
}

#[inline]
fn acc(adj: &mut [Option<Matrix>], idx: usize, delta: Matrix) {
    match &mut adj[idx] {
        Some(g) => g.add_assign(&delta),
        slot => *slot = Some(delta),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_values() {
        let store = ParamStore::new();
        let mut t = Tape::new(&store);
        let a = t.input(Matrix::from_rows(&[&[1.0, -2.0]]));
        let r = t.relu(a);
        assert_eq!(t.value(r).data(), &[1.0, 0.0]);
        let s = t.sigmoid(a);
        assert!((t.value(s).at(0, 0) - 0.7310586).abs() < 1e-5);
        let th = t.tanh(a);
        assert!((t.value(th).at(0, 0) - 0.7615942).abs() < 1e-5);
        let om = t.one_minus(a);
        assert_eq!(t.value(om).data(), &[0.0, 3.0]);
        let sc = t.scale(a, -1.5);
        assert_eq!(t.value(sc).data(), &[-1.5, 3.0]);
    }

    #[test]
    fn embed_gathers_rows() {
        let mut store = ParamStore::new();
        let e = store.add(
            "emb",
            Matrix::from_rows(&[&[0.0, 0.0], &[1.0, 10.0], &[2.0, 20.0]]),
        );
        let mut t = Tape::new(&store);
        let x = t.embed(e, &[2, 0, 2]);
        assert_eq!(
            t.value(x),
            &Matrix::from_rows(&[&[2.0, 20.0], &[0.0, 0.0], &[2.0, 20.0]])
        );
    }

    #[test]
    fn backward_through_shared_node() {
        // y = (w + w) * x  =>  dy/dw = 2x; checks gradient accumulation on
        // a node consumed twice.
        let mut store = ParamStore::new();
        let w = store.add("w", Matrix::from_vec(1, 1, vec![3.0]));
        let mut t = Tape::new(&store);
        let wv = t.param(w);
        let x = t.input(Matrix::from_vec(1, 1, vec![5.0]));
        let two_w = t.add(wv, wv);
        let y = t.mul(two_w, x);
        let loss = t.mse_scalar(y, 0.0); // (2*3*5)^2 = 900
        assert!((t.scalar(loss) - 900.0).abs() < 1e-3);
        let mut grads = GradStore::new(&store);
        t.backward(loss, &mut grads);
        // dL/dw = 2*(30-0) * d(30)/dw = 60 * 2*5 = 600.
        assert!((grads.get(w).unwrap().at(0, 0) - 600.0).abs() < 1e-3);
    }

    #[test]
    fn backward_row_and_mean() {
        let mut store = ParamStore::new();
        let w = store.add("w", Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]));
        let mut t = Tape::new(&store);
        let wv = t.param(w);
        let r = t.row(wv, 1); // [3, 4]
        let m = t.mean_rows(wv); // [2, 3]
        let s = t.add(r, m); // [5, 7]
        let ones = t.input(Matrix::from_rows(&[&[1.0], &[1.0]]));
        let y = t.matmul(s, ones); // 12
        let loss = t.mse_scalar(y, 0.0);
        let mut grads = GradStore::new(&store);
        t.backward(loss, &mut grads);
        // dL/dy = 2*12 = 24; row grad hits row 1 with [24,24];
        // mean grad spreads [12,12] to both rows.
        let g = grads.get(w).unwrap();
        assert_eq!(g.row(0), &[12.0, 12.0]);
        assert_eq!(g.row(1), &[36.0, 36.0]);
    }

    /// Finite-difference gradient check over a composite expression using
    /// every differentiable op.
    #[test]
    fn finite_difference_check_all_ops() {
        let build =
            |store: &ParamStore, w1: ParamId, w2: ParamId, b: ParamId, emb: ParamId| -> f32 {
                let mut t = Tape::new(store);
                let x = t.embed(emb, &[1, 0, 2]); // 3×2
                let w1v = t.param(w1); // 2×3
                let h = t.matmul(x, w1v); // 3×3
                let bv = t.param(b); // 1×3
                let h = t.add_bias(h, bv);
                let h = t.tanh(h);
                let g = t.sigmoid(h);
                let hg = t.mul(h, g);
                let r = t.relu(hg);
                let omr = t.one_minus(r);
                let mix = t.sub(hg, omr);
                let mix = t.scale(mix, 0.7);
                let pooled = t.mean_rows(mix); // 1×3
                let top = t.row(mix, 0); // 1×3
                let sum = t.add(pooled, top);
                let w2v = t.param(w2); // 3×1
                let y = t.matmul(sum, w2v); // 1×1
                let loss = t.mse_scalar(y, 0.5);
                t.scalar(loss)
            };

        let mut store = ParamStore::new();
        let w1 = store.add(
            "w1",
            Matrix::from_vec(2, 3, vec![0.3, -0.2, 0.5, 0.1, 0.4, -0.6]),
        );
        let w2 = store.add("w2", Matrix::from_vec(3, 1, vec![0.7, -0.3, 0.2]));
        let b = store.add("b", Matrix::from_vec(1, 3, vec![0.05, -0.02, 0.1]));
        let emb = store.add(
            "emb",
            Matrix::from_vec(3, 2, vec![0.2, -0.1, 0.4, 0.3, -0.5, 0.6]),
        );

        // Analytic gradients.
        let mut grads = GradStore::new(&store);
        {
            let mut t = Tape::new(&store);
            let x = t.embed(emb, &[1, 0, 2]);
            let w1v = t.param(w1);
            let h = t.matmul(x, w1v);
            let bv = t.param(b);
            let h = t.add_bias(h, bv);
            let h = t.tanh(h);
            let g = t.sigmoid(h);
            let hg = t.mul(h, g);
            let r = t.relu(hg);
            let omr = t.one_minus(r);
            let mix = t.sub(hg, omr);
            let mix = t.scale(mix, 0.7);
            let pooled = t.mean_rows(mix);
            let top = t.row(mix, 0);
            let sum = t.add(pooled, top);
            let w2v = t.param(w2);
            let y = t.matmul(sum, w2v);
            let loss = t.mse_scalar(y, 0.5);
            t.backward(loss, &mut grads);
        }

        // Numeric gradients.
        let eps = 1e-3f32;
        for (pid, _, _) in store.clone().iter() {
            let (rows, cols) = store.value(pid).shape();
            for r in 0..rows {
                for c in 0..cols {
                    let orig = store.value(pid).at(r, c);
                    *store.value_mut(pid).at_mut(r, c) = orig + eps;
                    let up = build(&store, w1, w2, b, emb);
                    *store.value_mut(pid).at_mut(r, c) = orig - eps;
                    let down = build(&store, w1, w2, b, emb);
                    *store.value_mut(pid).at_mut(r, c) = orig;
                    let numeric = (up - down) / (2.0 * eps);
                    let analytic = grads.row(pid, r).map_or(0.0, |g| g[c]);
                    assert!(
                        (numeric - analytic).abs()
                            < 2e-2 + 0.05 * numeric.abs().max(analytic.abs()),
                        "param {pid:?} ({r},{c}): numeric {numeric} vs analytic {analytic}"
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "loss must be scalar")]
    fn backward_rejects_non_scalar_loss() {
        let store = ParamStore::new();
        let mut t = Tape::new(&store);
        let a = t.input(Matrix::zeros(2, 2));
        let mut grads = GradStore::new(&store);
        t.backward(a, &mut grads);
    }
}

//! Vertex embedding layer.
//!
//! PathRank initialises this from node2vec vectors. The two lookup modes
//! mirror the paper's model variants:
//!
//! * **PR-A1** — [`Embedding::lookup_frozen`]: the table is treated as a
//!   constant; no gradient flows into it;
//! * **PR-A2** — [`Embedding::lookup_trainable`]: lookups are recorded on
//!   the tape and gradients scatter back into the table rows.

use pathrank_rng::rngs::StdRng;

use crate::init::uniform;
use crate::matrix::Matrix;
use crate::params::{ParamId, ParamStore};
use crate::tape::{Tape, Var};

/// An embedding table of shape `vocab × dim`.
#[derive(Debug, Clone)]
pub struct Embedding {
    /// The table parameter handle.
    pub table: ParamId,
    vocab: usize,
    dim: usize,
}

impl Embedding {
    /// Creates a randomly initialised table (`U(-0.05, 0.05)`).
    pub fn new(
        store: &mut ParamStore,
        name: &str,
        vocab: usize,
        dim: usize,
        rng: &mut StdRng,
    ) -> Self {
        let table = store.add(name.to_string(), uniform(vocab, dim, -0.05, 0.05, rng));
        Embedding { table, vocab, dim }
    }

    /// Creates a table from a pre-trained matrix (e.g. node2vec output).
    pub fn from_matrix(store: &mut ParamStore, name: &str, m: Matrix) -> Self {
        let (vocab, dim) = m.shape();
        let table = store.add(name.to_string(), m);
        Embedding { table, vocab, dim }
    }

    /// Vocabulary size (number of vertices).
    pub fn vocab(&self) -> usize {
        self.vocab
    }

    /// Embedding dimensionality `M`.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Trainable lookup: gathers `indices` rows, gradients scatter back
    /// (PR-A2).
    pub fn lookup_trainable(&self, tape: &mut Tape<'_>, indices: &[u32]) -> Var {
        tape.embed(self.table, indices)
    }

    /// Frozen lookup: gathers `indices` rows as a constant (PR-A1).
    pub fn lookup_frozen(&self, tape: &mut Tape<'_>, store: &ParamStore, indices: &[u32]) -> Var {
        tape.input(store.value(self.table).gather_rows(indices))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::GradStore;
    use pathrank_rng::SeedableRng;

    fn setup() -> (ParamStore, Embedding) {
        let mut store = ParamStore::new();
        let table = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]);
        let emb = Embedding::from_matrix(&mut store, "emb", table);
        (store, emb)
    }

    #[test]
    fn shapes_and_lookup() {
        let (store, emb) = setup();
        assert_eq!(emb.vocab(), 3);
        assert_eq!(emb.dim(), 2);
        let mut tape = Tape::new(&store);
        let x = emb.lookup_trainable(&mut tape, &[2, 1]);
        assert_eq!(
            tape.value(x),
            &Matrix::from_rows(&[&[5.0, 6.0], &[3.0, 4.0]])
        );
    }

    #[test]
    fn trainable_lookup_gets_gradients() {
        let (store, emb) = setup();
        let mut tape = Tape::new(&store);
        let x = emb.lookup_trainable(&mut tape, &[0, 2]);
        let pooled = tape.mean_rows(x);
        let w = tape.input(Matrix::from_rows(&[&[1.0], &[1.0]]));
        let y = tape.matmul(pooled, w);
        let loss = tape.mse_scalar(y, 0.0);
        let mut grads = GradStore::new(&store);
        tape.backward(loss, &mut grads);
        assert_ne!(grads.row(emb.table, 0).unwrap(), &[0.0, 0.0]);
        assert!(
            grads.row(emb.table, 1).is_none(),
            "an untouched row is not held"
        );
        assert_ne!(grads.row(emb.table, 2).unwrap(), &[0.0, 0.0]);
    }

    #[test]
    fn frozen_lookup_gets_no_gradients() {
        let (store, emb) = setup();
        let mut tape = Tape::new(&store);
        let x = emb.lookup_frozen(&mut tape, &store, &[0, 2]);
        let pooled = tape.mean_rows(x);
        let w = tape.input(Matrix::from_rows(&[&[1.0], &[1.0]]));
        let y = tape.matmul(pooled, w);
        let loss = tape.mse_scalar(y, 0.0);
        let mut grads = GradStore::new(&store);
        tape.backward(loss, &mut grads);
        assert!(
            (0..3).all(|r| grads.row(emb.table, r).is_none()),
            "frozen table must receive no gradient"
        );
    }

    #[test]
    fn frozen_and_trainable_agree_on_forward() {
        let (store, emb) = setup();
        let mut t1 = Tape::new(&store);
        let a = emb.lookup_trainable(&mut t1, &[1, 0, 2]);
        let mut t2 = Tape::new(&store);
        let b = emb.lookup_frozen(&mut t2, &store, &[1, 0, 2]);
        assert_eq!(t1.value(a), t2.value(b));
    }

    #[test]
    fn random_init_in_range() {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(5);
        let emb = Embedding::new(&mut store, "e", 10, 4, &mut rng);
        let t = store.value(emb.table);
        assert_eq!(t.shape(), (10, 4));
        assert!(t.data().iter().all(|&v| v.abs() <= 0.05));
    }
}

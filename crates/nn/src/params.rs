//! Parameter and gradient storage.
//!
//! Parameters live in a [`ParamStore`]; gradients accumulate in a separate
//! [`GradStore`]. The split lets several [`crate::tape::Tape`]s run forward
//! and backward in parallel against one `&ParamStore`, each filling its own
//! `GradStore`, which are then merged and applied by an optimiser — exactly
//! the synchronous mini-batch scheme PathRank's trainer uses.
//!
//! A gradient comes in one of two forms, chosen per parameter by how it
//! arrives. [`GradStore::accumulate`] keeps a whole matrix. A parameter
//! that only ever sees [`GradStore::accumulate_rows`] — the embedding
//! table, of which a batch of 32 paths touches a thousand rows out of ten
//! thousand — keeps those rows alone: a row list, a compact block and a
//! row → slot index. Everything downstream (`merge`, `scale`, the norms,
//! `clear`, the optimisers' state) then works on touched rows and still
//! returns what the whole-matrix arithmetic would, bit for bit, because a
//! row that is not held is `+0.0` everywhere and adding it changes nothing.

use crate::matrix::Matrix;

/// Handle to a parameter inside a [`ParamStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ParamId(pub usize);

/// Owns all trainable parameters of a model.
#[derive(Debug, Clone, Default)]
pub struct ParamStore {
    values: Vec<Matrix>,
    names: Vec<String>,
}

impl ParamStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a parameter and returns its handle.
    pub fn add(&mut self, name: impl Into<String>, value: Matrix) -> ParamId {
        self.values.push(value);
        self.names.push(name.into());
        ParamId(self.values.len() - 1)
    }

    /// Number of registered parameters.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The value of parameter `id`.
    #[inline]
    pub fn value(&self, id: ParamId) -> &Matrix {
        &self.values[id.0]
    }

    /// Mutable value of parameter `id` (used by optimisers).
    #[inline]
    pub fn value_mut(&mut self, id: ParamId) -> &mut Matrix {
        &mut self.values[id.0]
    }

    /// The registered name of parameter `id`.
    pub fn name(&self, id: ParamId) -> &str {
        &self.names[id.0]
    }

    /// Iterates over `(id, name, value)` triples.
    pub fn iter(&self) -> impl Iterator<Item = (ParamId, &str, &Matrix)> {
        self.values
            .iter()
            .zip(self.names.iter())
            .enumerate()
            .map(|(i, (v, n))| (ParamId(i), n.as_str(), v))
    }

    /// Total number of scalar parameters.
    pub fn scalar_count(&self) -> usize {
        self.values.iter().map(|m| m.rows() * m.cols()).sum()
    }
}

/// Marks a row a [`RowBlock`] does not hold.
const NO_SLOT: u32 = u32::MAX;

/// Some rows of a `rows × width` matrix, held compactly: a row takes memory
/// from the first time it is asked for, and every row not held reads as
/// zeros. The gradient of an embedding table is kept this way, and so is
/// the optimiser state that goes with it.
#[derive(Debug, Clone)]
pub(crate) struct RowBlock {
    width: usize,
    /// Row → its slot in `rows` and `data`, or [`NO_SLOT`].
    slot_of: Vec<u32>,
    /// The held rows, in the order they arrived.
    rows: Vec<u32>,
    /// `rows.len() × width`, one slot after the other.
    data: Vec<f32>,
}

impl RowBlock {
    /// A block over a `n_rows × width` matrix that holds no row yet.
    pub(crate) fn new(n_rows: usize, width: usize) -> Self {
        RowBlock {
            width,
            slot_of: vec![NO_SLOT; n_rows],
            rows: Vec::new(),
            data: Vec::new(),
        }
    }

    /// The held rows; slot `i` belongs to `rows()[i]`.
    pub(crate) fn rows(&self) -> &[u32] {
        &self.rows
    }

    /// Row `row`, when it is held.
    pub(crate) fn get(&self, row: usize) -> Option<&[f32]> {
        match self.slot_of[row] {
            NO_SLOT => None,
            slot => Some(self.slot(slot as usize)),
        }
    }

    fn slot(&self, slot: usize) -> &[f32] {
        &self.data[slot * self.width..(slot + 1) * self.width]
    }

    /// The values of slot `slot`, mutably.
    pub(crate) fn slot_mut(&mut self, slot: usize) -> &mut [f32] {
        &mut self.data[slot * self.width..(slot + 1) * self.width]
    }

    /// Row `row`, mutably; it joins the block as zeros when new.
    pub(crate) fn entry(&mut self, row: u32) -> &mut [f32] {
        let mut slot = self.slot_of[row as usize];
        if slot == NO_SLOT {
            slot = self.rows.len() as u32;
            self.slot_of[row as usize] = slot;
            self.rows.push(row);
            self.data.resize(self.data.len() + self.width, 0.0);
        }
        self.slot_mut(slot as usize)
    }

    /// `self[rows[i]] += delta.row(i)`; repeated indices accumulate.
    fn add_rows(&mut self, rows: &[u32], delta: &Matrix) {
        for (i, &row) in rows.iter().enumerate() {
            add_to(self.entry(row), delta.row(i));
        }
    }

    /// `self += other`. A held row `other` lacks still takes `+ 0.0`: that
    /// is what summing whole matrices does to it, and it turns `-0.0` into
    /// `+0.0`.
    fn add_block(&mut self, other: &RowBlock) {
        for &row in &other.rows {
            self.entry(row);
        }
        for slot in 0..self.rows.len() {
            let row = self.rows[slot] as usize;
            match other.get(row) {
                Some(src) => add_to(self.slot_mut(slot), src),
                None => self.slot_mut(slot).iter_mut().for_each(|d| *d += 0.0),
            }
        }
    }

    /// Sum of squares, rows taken in ascending order: bit for bit the
    /// left-to-right sum over the whole matrix, whose other entries add 0.0.
    fn sq_norm(&self) -> f32 {
        let mut rows = self.rows.clone();
        rows.sort_unstable();
        rows.iter()
            .flat_map(|&r| self.get(r as usize).unwrap_or_default())
            .fold(0.0, |acc, &v| acc + v * v)
    }

    /// The whole matrix, zeros where no row is held.
    fn to_dense(&self) -> Matrix {
        let mut out = Matrix::zeros(self.slot_of.len(), self.width);
        for (slot, &row) in self.rows.iter().enumerate() {
            out.row_mut(row as usize).copy_from_slice(self.slot(slot));
        }
        out
    }

    /// Lets go of every row in time proportional to their number; the
    /// allocations stay.
    fn clear(&mut self) {
        for &row in &self.rows {
            self.slot_of[row as usize] = NO_SLOT;
        }
        self.rows.clear();
        self.data.clear();
    }

    /// Bytes of heap memory held, spare capacity included.
    pub(crate) fn heap_bytes(&self) -> usize {
        (self.slot_of.capacity() + self.rows.capacity()) * std::mem::size_of::<u32>()
            + self.data.capacity() * std::mem::size_of::<f32>()
    }
}

fn add_to(dst: &mut [f32], src: &[f32]) {
    for (d, &s) in dst.iter_mut().zip(src.iter()) {
        *d += s;
    }
}

/// The gradient of one parameter: a whole matrix, or — for a parameter
/// that has only ever received [`GradStore::accumulate_rows`] — the rows
/// that were touched.
#[derive(Debug, Clone)]
pub(crate) enum Grad {
    Dense(Matrix),
    Rows(RowBlock),
}

impl Grad {
    /// The touched rows of a row-sparse gradient; `None` when every row
    /// counts.
    pub(crate) fn touched(&self) -> Option<&[u32]> {
        match self {
            Grad::Dense(_) => None,
            Grad::Rows(b) => Some(b.rows()),
        }
    }

    /// Row `row` of the gradient; `None` for an untouched row of a
    /// row-sparse one, which stands for zeros.
    pub(crate) fn row(&self, row: usize) -> Option<&[f32]> {
        match self {
            Grad::Dense(m) => Some(m.row(row)),
            Grad::Rows(b) => b.get(row),
        }
    }

    fn values_mut(&mut self) -> &mut [f32] {
        match self {
            Grad::Dense(m) => m.data_mut(),
            Grad::Rows(b) => &mut b.data,
        }
    }

    fn sq_norm(&self) -> f32 {
        match self {
            Grad::Dense(m) => m.sq_norm(),
            Grad::Rows(b) => b.sq_norm(),
        }
    }

    fn dense_mut(&mut self) -> &mut Matrix {
        if let Grad::Rows(b) = self {
            *self = Grad::Dense(b.to_dense());
        }
        match self {
            Grad::Dense(m) => m,
            Grad::Rows(_) => unreachable!("made dense above"),
        }
    }

    fn add(&mut self, other: &Grad) {
        match (&mut *self, other) {
            (Grad::Rows(mine), Grad::Rows(theirs)) => mine.add_block(theirs),
            (_, Grad::Dense(theirs)) => self.dense_mut().add_assign(theirs),
            (Grad::Dense(mine), Grad::Rows(theirs)) => mine.add_assign(&theirs.to_dense()),
        }
    }
}

/// Accumulates gradients for the parameters of one [`ParamStore`].
///
/// Entries are allocated lazily, and a parameter that only ever receives
/// [`GradStore::accumulate_rows`] — the embedding table — is kept as its
/// touched rows: a batch touches a few hundred of ten thousand rows, and
/// `merge`, `scale`, the norms, `clear` and the optimisers then cost what
/// the batch touched, not what the table holds. Every result equals the
/// whole-matrix computation bit for bit, because an untouched row is `+0.0`
/// throughout (`scale` by a negative factor would make it `-0.0` in a whole
/// matrix; that sign is the one thing not reproduced).
#[derive(Debug, Clone)]
pub struct GradStore {
    shapes: Vec<(usize, usize)>,
    grads: Vec<Option<Grad>>,
    /// Row blocks let go by `clear`, so that a reused store allocates
    /// nothing for them again.
    spare: Vec<Option<RowBlock>>,
}

impl GradStore {
    /// An empty gradient store matching `store`'s layout.
    pub fn new(store: &ParamStore) -> Self {
        GradStore {
            shapes: store.values.iter().map(|m| m.shape()).collect(),
            grads: vec![None; store.len()],
            spare: vec![None; store.len()],
        }
    }

    /// The accumulated gradient of `id` as a whole matrix, if any was
    /// recorded.
    ///
    /// # Panics
    /// If the gradient of `id` is held as touched rows; read that through
    /// [`GradStore::row`].
    pub fn get(&self, id: ParamId) -> Option<&Matrix> {
        match self.grads[id.0].as_ref()? {
            Grad::Dense(m) => Some(m),
            Grad::Rows(_) => panic!(
                "the gradient of parameter {} is held as touched rows; read it with `row`",
                id.0
            ),
        }
    }

    /// Row `row` of the gradient of `id`, whichever way it is held. `None`
    /// when `id` has no gradient, or holds touched rows and `row` is not
    /// among them (it stands for zeros).
    pub fn row(&self, id: ParamId, row: usize) -> Option<&[f32]> {
        self.grads[id.0].as_ref()?.row(row)
    }

    /// Adds `delta` to the gradient of `id`.
    pub fn accumulate(&mut self, id: ParamId, delta: &Matrix) {
        debug_assert_eq!(self.shapes[id.0], delta.shape(), "gradient shape mismatch");
        match &mut self.grads[id.0] {
            Some(g) => g.dense_mut().add_assign(delta),
            slot => *slot = Some(Grad::Dense(delta.clone())),
        }
    }

    /// Adds the rows of `delta` to rows `rows` of the gradient of `id`
    /// (sparse embedding update). `delta` row `i` goes to gradient row
    /// `rows[i]`; repeated indices accumulate.
    pub fn accumulate_rows(&mut self, id: ParamId, rows: &[u32], delta: &Matrix) {
        let (r, c) = self.shapes[id.0];
        debug_assert_eq!(delta.rows(), rows.len());
        debug_assert_eq!(delta.cols(), c);
        match &mut self.grads[id.0] {
            Some(Grad::Rows(block)) => block.add_rows(rows, delta),
            Some(Grad::Dense(g)) => {
                for (i, &row) in rows.iter().enumerate() {
                    add_to(g.row_mut(row as usize), delta.row(i));
                }
            }
            slot => {
                let mut block = self.spare[id.0]
                    .take()
                    .unwrap_or_else(|| RowBlock::new(r, c));
                block.add_rows(rows, delta);
                *slot = Some(Grad::Rows(block));
            }
        }
    }

    /// Merges another gradient store (summing) into this one.
    pub fn merge(&mut self, other: &GradStore) {
        debug_assert_eq!(self.shapes, other.shapes);
        for (mine, theirs) in self.grads.iter_mut().zip(other.grads.iter()) {
            if let Some(t) = theirs {
                match mine {
                    Some(m) => m.add(t),
                    slot => *slot = Some(t.clone()),
                }
            }
        }
    }

    /// Scales every recorded gradient by `s` (e.g. 1/batch-size).
    pub fn scale(&mut self, s: f32) {
        for g in self.grads.iter_mut().flatten() {
            for v in g.values_mut() {
                *v *= s;
            }
        }
    }

    /// Global L2 norm over all recorded gradients.
    pub fn global_norm(&self) -> f32 {
        self.grads
            .iter()
            .flatten()
            .map(|g| g.sq_norm())
            .sum::<f32>()
            .sqrt()
    }

    /// Clips the global norm to `max_norm`; returns the pre-clip norm.
    pub fn clip_global_norm(&mut self, max_norm: f32) -> f32 {
        let norm = self.global_norm();
        if norm > max_norm && norm > 0.0 {
            self.scale(max_norm / norm);
        }
        norm
    }

    /// Clears all recorded gradients (keeps shape metadata, and the
    /// allocations of row-sparse gradients for the next batch).
    pub fn clear(&mut self) {
        for (g, spare) in self.grads.iter_mut().zip(self.spare.iter_mut()) {
            if let Some(Grad::Rows(mut block)) = g.take() {
                block.clear();
                *spare = Some(block);
            }
        }
    }

    /// Bytes of heap memory the gradients hold, spare capacity included:
    /// what shows that no `vocab × dim` matrix was materialised.
    pub fn heap_bytes(&self) -> usize {
        let held = self.grads.iter().flatten().map(|g| match g {
            Grad::Dense(m) => std::mem::size_of_val(m.data()),
            Grad::Rows(b) => b.heap_bytes(),
        });
        let spare = self.spare.iter().flatten().map(RowBlock::heap_bytes);
        held.chain(spare).sum()
    }

    /// Iterates over `(id, gradient)` for parameters that received one.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (ParamId, &Grad)> {
        self.grads
            .iter()
            .enumerate()
            .filter_map(|(i, g)| g.as_ref().map(|g| (ParamId(i), g)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store() -> (ParamStore, ParamId, ParamId) {
        let mut s = ParamStore::new();
        let a = s.add("a", Matrix::zeros(2, 2));
        let b = s.add("b", Matrix::zeros(3, 1));
        (s, a, b)
    }

    #[test]
    fn add_and_lookup() {
        let (s, a, b) = store();
        assert_eq!(s.len(), 2);
        assert_eq!(s.name(a), "a");
        assert_eq!(s.name(b), "b");
        assert_eq!(s.value(a).shape(), (2, 2));
        assert_eq!(s.scalar_count(), 7);
        assert_eq!(s.iter().count(), 2);
    }

    #[test]
    fn accumulate_dense() {
        let (s, a, _) = store();
        let mut g = GradStore::new(&s);
        assert!(g.get(a).is_none());
        let d = Matrix::full(2, 2, 1.5);
        g.accumulate(a, &d);
        g.accumulate(a, &d);
        assert_eq!(g.get(a).unwrap().at(1, 1), 3.0);
    }

    fn table() -> (ParamStore, ParamId) {
        let mut s = ParamStore::new();
        let e = s.add("emb", Matrix::zeros(5, 2));
        (s, e)
    }

    #[test]
    fn accumulate_sparse_rows() {
        let (s, e) = table();
        let mut g = GradStore::new(&s);
        let delta = Matrix::from_rows(&[&[1.0, 1.0], &[2.0, 2.0], &[3.0, 3.0]]);
        g.accumulate_rows(e, &[4, 0, 4], &delta);
        assert_eq!(g.row(e, 0).unwrap(), &[2.0, 2.0]);
        assert_eq!(
            g.row(e, 4).unwrap(),
            &[4.0, 4.0],
            "repeated indices accumulate"
        );
        assert!(g.row(e, 2).is_none(), "an untouched row is not held");
    }

    #[test]
    fn sparse_rows_merge_scale_and_norm_like_the_whole_matrix() {
        let (s, e) = table();
        let mut g1 = GradStore::new(&s);
        let mut g2 = GradStore::new(&s);
        g1.accumulate_rows(e, &[3, 1], &Matrix::from_rows(&[&[3.0, -0.0], &[1.0, 2.0]]));
        g2.accumulate_rows(e, &[1, 0], &Matrix::from_rows(&[&[0.5, 0.5], &[-4.0, 0.0]]));
        g1.merge(&g2);
        assert_eq!(g1.row(e, 1).unwrap(), &[1.5, 2.5]);
        assert_eq!(g1.row(e, 0).unwrap(), &[-4.0, 0.0], "a row of theirs alone");
        // Row 3 is ours alone: the whole-matrix sum adds +0.0 to it.
        assert_eq!(g1.row(e, 3).unwrap()[1].to_bits(), 0.0f32.to_bits());
        g1.scale(2.0);
        assert_eq!(g1.row(e, 3).unwrap(), &[6.0, 0.0]);
        // Rows 0, 1, 3 in that order: 64 + 0 + 9 + 25 + 36 + 0.
        assert_eq!(g1.global_norm(), 134.0f32.sqrt());
    }

    #[test]
    fn whole_and_row_gradients_for_one_parameter_make_it_dense() {
        let (s, e) = table();
        let rows = Matrix::from_rows(&[&[1.0, 2.0]]);
        let mut g = GradStore::new(&s);
        g.accumulate_rows(e, &[2], &rows);
        g.accumulate(e, &Matrix::full(5, 2, 1.0));
        g.accumulate_rows(e, &[2], &rows);
        let dense = g.get(e).expect("dense after `accumulate`");
        assert_eq!(dense.row(2), &[3.0, 5.0]);
        assert_eq!(dense.row(0), &[1.0, 1.0]);

        // The same meeting across two stores, either way round.
        let mut sparse = GradStore::new(&s);
        sparse.accumulate_rows(e, &[2], &rows);
        let mut merged = sparse.clone();
        merged.merge(&g);
        assert_eq!(merged.get(e).unwrap().row(2), &[4.0, 7.0]);
        g.merge(&sparse);
        assert_eq!(g.get(e).unwrap(), merged.get(e).unwrap());
    }

    #[test]
    #[should_panic(expected = "held as touched rows")]
    fn get_refuses_a_row_sparse_gradient() {
        let (s, e) = table();
        let mut g = GradStore::new(&s);
        g.accumulate_rows(e, &[1], &Matrix::from_rows(&[&[1.0, 1.0]]));
        let _ = g.get(e);
    }

    #[test]
    fn clear_keeps_the_row_allocation_for_the_next_batch() {
        let (s, e) = table();
        let mut g = GradStore::new(&s);
        let delta = Matrix::from_rows(&[&[1.0, 1.0], &[2.0, 2.0]]);
        g.accumulate_rows(e, &[4, 2], &delta);
        let held = g.heap_bytes();
        g.clear();
        assert!(g.row(e, 4).is_none());
        assert_eq!(g.iter().count(), 0);
        assert_eq!(g.heap_bytes(), held);
        g.accumulate_rows(e, &[2, 3], &delta);
        assert_eq!(g.heap_bytes(), held, "a batch no larger allocates nothing");
        assert_eq!(g.row(e, 2).unwrap(), &[1.0, 1.0], "and starts from zero");
        assert!(g.row(e, 4).is_none());
    }

    #[test]
    fn merge_and_scale() {
        let (s, a, b) = store();
        let mut g1 = GradStore::new(&s);
        let mut g2 = GradStore::new(&s);
        g1.accumulate(a, &Matrix::full(2, 2, 1.0));
        g2.accumulate(a, &Matrix::full(2, 2, 2.0));
        g2.accumulate(b, &Matrix::full(3, 1, 4.0));
        g1.merge(&g2);
        assert_eq!(g1.get(a).unwrap().at(0, 0), 3.0);
        assert_eq!(g1.get(b).unwrap().at(0, 0), 4.0);
        g1.scale(0.5);
        assert_eq!(g1.get(a).unwrap().at(0, 0), 1.5);
        assert_eq!(g1.get(b).unwrap().at(0, 0), 2.0);
    }

    #[test]
    fn clip_global_norm() {
        let (s, a, _) = store();
        let mut g = GradStore::new(&s);
        g.accumulate(a, &Matrix::from_rows(&[&[3.0, 0.0], &[0.0, 4.0]]));
        assert!((g.global_norm() - 5.0).abs() < 1e-6);
        let pre = g.clip_global_norm(1.0);
        assert!((pre - 5.0).abs() < 1e-6);
        assert!((g.global_norm() - 1.0).abs() < 1e-6);
        // Clipping below the threshold is a no-op.
        let pre2 = g.clip_global_norm(10.0);
        assert!((pre2 - 1.0).abs() < 1e-6);
        assert!((g.global_norm() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn clear_resets() {
        let (s, a, _) = store();
        let mut g = GradStore::new(&s);
        g.accumulate(a, &Matrix::full(2, 2, 1.0));
        g.clear();
        assert!(g.get(a).is_none());
        assert_eq!(g.iter().count(), 0);
    }
}

//! Row-major `f32` matrices with the operations the models need.
//!
//! Deliberately minimal: PathRank's tensors are at most a few hundred
//! entries wide, so a simple cache-friendly `i-k-j` matmul is plenty. The
//! matmul inner loop is written over slices so LLVM can autovectorise it.

/// A dense row-major matrix of `f32`.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// A `rows × cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// A `rows × cols` matrix filled with `value`.
    pub fn full(rows: usize, cols: usize, value: f32) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Builds a matrix from a flat row-major vector.
    ///
    /// # Panics
    /// If `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "shape mismatch: {rows}x{cols} vs {}",
            data.len()
        );
        Matrix { rows, cols, data }
    }

    /// Builds a matrix from row slices (all the same length).
    pub fn from_rows(rows: &[&[f32]]) -> Self {
        assert!(!rows.is_empty(), "from_rows needs at least one row");
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            assert_eq!(r.len(), cols, "ragged rows");
            data.extend_from_slice(r);
        }
        Matrix {
            rows: rows.len(),
            cols,
            data,
        }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)`.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Element at `(r, c)`.
    #[inline]
    pub fn at(&self, r: usize, c: usize) -> f32 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// Mutable element at `(r, c)`.
    #[inline]
    pub fn at_mut(&mut self, r: usize, c: usize) -> &mut f32 {
        debug_assert!(r < self.rows && c < self.cols);
        &mut self.data[r * self.cols + c]
    }

    /// Row `r` as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Row `r` as a mutable slice.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Row `ix` of an embedding table (`vocab × dim`): the one row gather
    /// behind the tape's lookups and the inference kernel.
    ///
    /// # Panics
    /// If `ix` is not a row of the table.
    #[inline]
    pub fn vocab_row(&self, ix: u32) -> &[f32] {
        assert!(
            (ix as usize) < self.rows,
            "vertex id {ix} out of range for vocab {}",
            self.rows
        );
        self.row(ix as usize)
    }

    /// Gathers rows `indices` of an embedding table into an
    /// `indices.len() × cols` matrix.
    pub fn gather_rows(&self, indices: &[u32]) -> Matrix {
        let mut data = Vec::with_capacity(indices.len() * self.cols);
        for &ix in indices {
            data.extend_from_slice(self.vocab_row(ix));
        }
        Matrix::from_vec(indices.len(), self.cols, data)
    }

    /// The flat row-major data.
    #[inline]
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// The flat row-major data, mutably.
    #[inline]
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Matrix product `self · rhs`.
    ///
    /// # Panics
    /// If `self.cols != rhs.rows`.
    pub fn matmul(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, rhs.rows,
            "matmul shape mismatch: {}x{} · {}x{}",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        // i-k-j loop: the inner j-loop runs over contiguous slices of both
        // `rhs` and `out`, which LLVM autovectorises.
        for i in 0..self.rows {
            let out_row = &mut out.data[i * rhs.cols..(i + 1) * rhs.cols];
            for k in 0..self.cols {
                let a = self.data[i * self.cols + k];
                if a == 0.0 {
                    continue;
                }
                let rhs_row = &rhs.data[k * rhs.cols..(k + 1) * rhs.cols];
                for (o, &b) in out_row.iter_mut().zip(rhs_row.iter()) {
                    *o += a * b;
                }
            }
        }
        out
    }

    /// `self · rhsᵀ` without materialising the transpose.
    pub fn matmul_transpose_rhs(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, rhs.cols,
            "matmul_t shape mismatch: {}x{} · ({}x{})ᵀ",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        let mut out = Matrix::zeros(self.rows, rhs.rows);
        for i in 0..self.rows {
            let a_row = self.row(i);
            for j in 0..rhs.rows {
                let b_row = rhs.row(j);
                let mut acc = 0.0f32;
                for (x, y) in a_row.iter().zip(b_row.iter()) {
                    acc += x * y;
                }
                out.data[i * rhs.rows + j] = acc;
            }
        }
        out
    }

    /// `selfᵀ · rhs` without materialising the transpose.
    pub fn transpose_matmul(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(
            self.rows, rhs.rows,
            "t_matmul shape mismatch: ({}x{})ᵀ · {}x{}",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        let mut out = Matrix::zeros(self.cols, rhs.cols);
        for k in 0..self.rows {
            let a_row = self.row(k);
            let b_row = rhs.row(k);
            for (i, &a) in a_row.iter().enumerate() {
                if a == 0.0 {
                    continue;
                }
                let out_row = &mut out.data[i * rhs.cols..(i + 1) * rhs.cols];
                for (o, &b) in out_row.iter_mut().zip(b_row.iter()) {
                    *o += a * b;
                }
            }
        }
        out
    }

    /// Transposed copy.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c * self.rows + r] = self.data[r * self.cols + c];
            }
        }
        out
    }

    /// Elementwise `self + rhs` (equal shapes).
    pub fn add(&self, rhs: &Matrix) -> Matrix {
        self.zip(rhs, |a, b| a + b)
    }

    /// Elementwise `self - rhs` (equal shapes).
    pub fn sub(&self, rhs: &Matrix) -> Matrix {
        self.zip(rhs, |a, b| a - b)
    }

    /// Elementwise (Hadamard) product (equal shapes).
    pub fn mul(&self, rhs: &Matrix) -> Matrix {
        self.zip(rhs, |a, b| a * b)
    }

    /// Elementwise combination of two equal-shape matrices.
    pub fn zip(&self, rhs: &Matrix, f: impl Fn(f32, f32) -> f32) -> Matrix {
        assert_eq!(self.shape(), rhs.shape(), "elementwise shape mismatch");
        let data = self
            .data
            .iter()
            .zip(rhs.data.iter())
            .map(|(&a, &b)| f(a, b))
            .collect();
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }

    /// Elementwise map.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&a| f(a)).collect(),
        }
    }

    /// Scales every entry by `s`.
    pub fn scale(&self, s: f32) -> Matrix {
        self.map(|a| a * s)
    }

    /// In-place `self += rhs` (equal shapes).
    pub fn add_assign(&mut self, rhs: &Matrix) {
        assert_eq!(self.shape(), rhs.shape(), "add_assign shape mismatch");
        for (a, &b) in self.data.iter_mut().zip(rhs.data.iter()) {
            *a += b;
        }
    }

    /// Adds a `1 × cols` row vector to every row (bias broadcast).
    pub fn add_row_broadcast(&self, row: &Matrix) -> Matrix {
        assert_eq!(row.rows, 1, "broadcast rhs must be a row vector");
        assert_eq!(row.cols, self.cols, "broadcast width mismatch");
        let mut out = self.clone();
        for r in 0..out.rows {
            let dst = &mut out.data[r * out.cols..(r + 1) * out.cols];
            for (d, &b) in dst.iter_mut().zip(row.data.iter()) {
                *d += b;
            }
        }
        out
    }

    /// Sums rows into a `1 × cols` vector.
    pub fn sum_rows(&self) -> Matrix {
        let mut out = Matrix::zeros(1, self.cols);
        for r in 0..self.rows {
            for (o, &v) in out.data.iter_mut().zip(self.row(r).iter()) {
                *o += v;
            }
        }
        out
    }

    /// Mean of all rows as a `1 × cols` vector.
    pub fn mean_rows(&self) -> Matrix {
        self.sum_rows().scale(1.0 / self.rows.max(1) as f32)
    }

    /// Sum of squares of all entries.
    pub fn sq_norm(&self) -> f32 {
        self.data.iter().map(|&v| v * v).sum()
    }

    /// Frobenius norm.
    pub fn norm(&self) -> f32 {
        self.sq_norm().sqrt()
    }

    /// Whether all entries are finite.
    pub fn is_finite(&self) -> bool {
        self.data.iter().all(|v| v.is_finite())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m2x3() -> Matrix {
        Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]])
    }

    fn m3x2() -> Matrix {
        Matrix::from_rows(&[&[7.0, 8.0], &[9.0, 10.0], &[11.0, 12.0]])
    }

    #[test]
    fn construction_and_access() {
        let m = m2x3();
        assert_eq!(m.shape(), (2, 3));
        assert_eq!(m.at(0, 0), 1.0);
        assert_eq!(m.at(1, 2), 6.0);
        assert_eq!(m.row(1), &[4.0, 5.0, 6.0]);
        let z = Matrix::zeros(2, 2);
        assert!(z.data().iter().all(|&v| v == 0.0));
        assert_eq!(Matrix::full(1, 3, 2.5).data(), &[2.5, 2.5, 2.5]);
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn from_vec_shape_check() {
        let _ = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn matmul_known_product() {
        let p = m2x3().matmul(&m3x2());
        // [1 2 3; 4 5 6] · [7 8; 9 10; 11 12] = [58 64; 139 154]
        assert_eq!(p, Matrix::from_rows(&[&[58.0, 64.0], &[139.0, 154.0]]));
    }

    #[test]
    fn matmul_identity() {
        let m = m2x3();
        let mut id = Matrix::zeros(3, 3);
        for i in 0..3 {
            *id.at_mut(i, i) = 1.0;
        }
        assert_eq!(m.matmul(&id), m);
    }

    #[test]
    #[should_panic(expected = "matmul shape mismatch")]
    fn matmul_shape_check() {
        let _ = m2x3().matmul(&m2x3());
    }

    #[test]
    fn transpose_variants_agree() {
        let a = m2x3();
        let b = m3x2();
        // a · b == a · (bᵀ)ᵀ == matmul_transpose_rhs(a, bᵀ)
        let bt = b.transpose();
        assert_eq!(a.matmul(&b), a.matmul_transpose_rhs(&bt));
        // aᵀ · a == transpose_matmul(a, a)
        assert_eq!(a.transpose().matmul(&a), a.transpose_matmul(&a));
    }

    #[test]
    fn transpose_involution() {
        let m = m2x3();
        assert_eq!(m.transpose().transpose(), m);
    }

    #[test]
    fn elementwise_ops() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        assert_eq!(a.add(&b), Matrix::from_rows(&[&[6.0, 8.0], &[10.0, 12.0]]));
        assert_eq!(b.sub(&a), Matrix::from_rows(&[&[4.0, 4.0], &[4.0, 4.0]]));
        assert_eq!(a.mul(&b), Matrix::from_rows(&[&[5.0, 12.0], &[21.0, 32.0]]));
        assert_eq!(a.scale(2.0), Matrix::from_rows(&[&[2.0, 4.0], &[6.0, 8.0]]));
        assert_eq!(
            a.map(|v| v - 1.0),
            Matrix::from_rows(&[&[0.0, 1.0], &[2.0, 3.0]])
        );
    }

    #[test]
    fn in_place_ops() {
        let mut a = Matrix::from_rows(&[&[1.0, 1.0]]);
        a.add_assign(&Matrix::from_rows(&[&[2.0, 3.0]]));
        assert_eq!(a, Matrix::from_rows(&[&[3.0, 4.0]]));
    }

    #[test]
    fn broadcast_and_reductions() {
        let a = m2x3();
        let bias = Matrix::from_rows(&[&[10.0, 20.0, 30.0]]);
        let s = a.add_row_broadcast(&bias);
        assert_eq!(
            s,
            Matrix::from_rows(&[&[11.0, 22.0, 33.0], &[14.0, 25.0, 36.0]])
        );
        assert_eq!(a.sum_rows(), Matrix::from_rows(&[&[5.0, 7.0, 9.0]]));
        assert_eq!(a.mean_rows(), Matrix::from_rows(&[&[2.5, 3.5, 4.5]]));
    }

    #[test]
    fn gather_rows_copies_table_rows_in_order() {
        let table = m3x2();
        assert_eq!(
            table.gather_rows(&[2, 0, 2]),
            Matrix::from_rows(&[&[11.0, 12.0], &[7.0, 8.0], &[11.0, 12.0]])
        );
        assert_eq!(table.gather_rows(&[]).shape(), (0, 2));
    }

    #[test]
    #[should_panic(expected = "vertex id 3 out of range for vocab 3")]
    fn vocab_row_names_the_bad_vertex() {
        let _ = m3x2().vocab_row(3);
    }

    #[test]
    fn norms() {
        let a = Matrix::from_rows(&[&[3.0, 4.0]]);
        assert_eq!(a.sq_norm(), 25.0);
        assert_eq!(a.norm(), 5.0);
        assert!(a.is_finite());
        let mut b = a.clone();
        *b.at_mut(0, 0) = f32::NAN;
        assert!(!b.is_finite());
    }
}

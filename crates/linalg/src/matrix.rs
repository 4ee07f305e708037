//! Row-major dense `f32` matrix.

use serde::{Deserialize, Serialize};

use crate::{ShapeError, Vector};

/// A row-major dense `f32` matrix.
///
/// Dimensions follow the paper's conventions: an embedding weight is
/// `embed_dim x vocab_size` (columns are word embeddings, Eq 2), the output
/// weight `W_o` is `output_dim x embed_dim` (rows are class weight vectors,
/// Eq 6).
///
/// ```
/// use mann_linalg::{Matrix, Vector};
///
/// # fn main() -> Result<(), mann_linalg::ShapeError> {
/// let m = Matrix::from_rows(vec![vec![1.0, 2.0], vec![3.0, 4.0]])?;
/// let y = m.matvec(&Vector::from(vec![1.0, 1.0]))?;
/// assert_eq!(y.as_slice(), &[3.0, 7.0]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// Creates a `rows x cols` zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates an identity matrix of size `n`.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Builds a matrix from row vectors.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] when rows have inconsistent lengths.
    pub fn from_rows(rows: Vec<Vec<f32>>) -> Result<Self, ShapeError> {
        let n_rows = rows.len();
        let n_cols = rows.first().map_or(0, Vec::len);
        let mut data = Vec::with_capacity(n_rows * n_cols);
        for row in &rows {
            if row.len() != n_cols {
                return Err(ShapeError::new(
                    "from_rows",
                    (n_rows, n_cols),
                    (1, row.len()),
                ));
            }
            data.extend_from_slice(row);
        }
        Ok(Self {
            rows: n_rows,
            cols: n_cols,
            data,
        })
    }

    /// Builds a matrix from a flat row-major buffer.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] when `data.len() != rows * cols`.
    pub fn from_flat(rows: usize, cols: usize, data: Vec<f32>) -> Result<Self, ShapeError> {
        if data.len() != rows * cols {
            return Err(ShapeError::new("from_flat", (rows, cols), (data.len(), 1)));
        }
        Ok(Self { rows, cols, data })
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Flat row-major view of the elements.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Flat row-major mutable view of the elements.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Borrow row `r` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows`.
    pub fn row(&self, r: usize) -> &[f32] {
        assert!(r < self.rows, "row {r} out of range {}", self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Borrow row `r` mutably.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows`.
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        assert!(r < self.rows, "row {r} out of range {}", self.rows);
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Copies column `c` into a new [`Vector`].
    ///
    /// This is the access pattern of the INPUT & WRITE embedding module,
    /// which reads one weight column per input word index (Eq 2).
    ///
    /// # Panics
    ///
    /// Panics if `c >= cols`.
    pub fn col(&self, c: usize) -> Vector {
        assert!(c < self.cols, "col {c} out of range {}", self.cols);
        (0..self.rows).map(|r| self[(r, c)]).collect()
    }

    /// Matrix-vector product `self * x`.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] when `x.len() != cols`.
    #[inline]
    pub fn matvec(&self, x: &Vector) -> Result<Vector, ShapeError> {
        let mut out = Vector::zeros(self.rows);
        self.matvec_into(x, &mut out)?;
        Ok(out)
    }

    /// Matrix-vector product `self * x`, written into a caller-provided
    /// buffer (resized to `rows`, capacity reused) — the zero-allocation
    /// hot path.
    ///
    /// Rows are processed eight at a time with one accumulator register per
    /// row: eight independent dependency chains over a shared stream of `x`
    /// (enough to saturate both FMA ports past the add latency), while each
    /// row's reduction keeps the exact left-to-right summation order of a
    /// plain dot product, so results are bit-identical to the scalar loop.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] when `x.len() != cols`.
    #[inline]
    pub fn matvec_into(&self, x: &Vector, out: &mut Vector) -> Result<(), ShapeError> {
        if x.len() != self.cols {
            return Err(ShapeError::new("matvec", self.shape(), (x.len(), 1)));
        }
        out.resize_zeroed(self.rows);
        let xs = x.as_slice();
        let o = out.as_mut_slice();
        let cols = self.cols;
        let mut blocks = self.data.chunks_exact(8 * cols.max(1));
        let mut r = 0;
        if cols > 0 {
            for block in blocks.by_ref() {
                let (r0, tail) = block.split_at(cols);
                let (r1, tail) = tail.split_at(cols);
                let (r2, tail) = tail.split_at(cols);
                let (r3, tail) = tail.split_at(cols);
                let (r4, tail) = tail.split_at(cols);
                let (r5, tail) = tail.split_at(cols);
                let (r6, r7) = tail.split_at(cols);
                let mut acc = [0.0f32; 8];
                for (k, &xk) in xs.iter().enumerate() {
                    acc[0] += r0[k] * xk;
                    acc[1] += r1[k] * xk;
                    acc[2] += r2[k] * xk;
                    acc[3] += r3[k] * xk;
                    acc[4] += r4[k] * xk;
                    acc[5] += r5[k] * xk;
                    acc[6] += r6[k] * xk;
                    acc[7] += r7[k] * xk;
                }
                o[r..r + 8].copy_from_slice(&acc);
                r += 8;
            }
        }
        for row in blocks.remainder().chunks_exact(cols.max(1)) {
            o[r] = row.iter().zip(xs).map(|(a, b)| a * b).sum::<f32>();
            r += 1;
        }
        Ok(())
    }

    /// Transposed matrix-vector product `self^T * x`.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] when `x.len() != rows`.
    #[inline]
    pub fn matvec_transposed(&self, x: &Vector) -> Result<Vector, ShapeError> {
        let mut out = Vector::zeros(self.cols);
        self.matvec_transposed_into(x, &mut out)?;
        Ok(out)
    }

    /// Transposed matrix-vector product `self^T * x` into a caller-provided
    /// buffer (resized to `cols`, capacity reused).
    ///
    /// Runs as a row-major AXPY sweep — `out += x[r] * row_r` for each row
    /// with a nonzero input — so the matrix streams through memory exactly
    /// once. The inner loop is a pure elementwise AXPY with no reduction,
    /// which the compiler vectorizes without changing any addition order
    /// (each SIMD lane is an independent output element). Per output
    /// element the additions happen in ascending row order starting from
    /// zero, with the same zero-input skip as the scalar loop, so results
    /// are bit-identical.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] when `x.len() != rows`.
    #[inline]
    pub fn matvec_transposed_into(&self, x: &Vector, out: &mut Vector) -> Result<(), ShapeError> {
        if x.len() != self.rows {
            return Err(ShapeError::new(
                "matvec_transposed",
                self.shape(),
                (x.len(), 1),
            ));
        }
        out.resize_zeroed(self.cols);
        let xs = x.as_slice();
        let o = out.as_mut_slice();
        let cols = self.cols;
        for (r, &xr) in xs.iter().enumerate() {
            if xr == 0.0 {
                continue;
            }
            let row = &self.data[r * cols..r * cols + cols];
            for (ov, &rv) in o.iter_mut().zip(row) {
                *ov += xr * rv;
            }
        }
        Ok(())
    }

    /// Dense matrix product `self * other`.
    ///
    /// Keeps the cache-friendly `i`-`k`-`j` loop order (both inner streams
    /// are row-major) and the skip over zero left-hand elements, with the
    /// inner row AXPY unrolled four-wide over exact chunks. Per output
    /// element the additions still happen in ascending `k` order, so
    /// results are bit-identical to the scalar loop.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] when `self.cols != other.rows`.
    pub fn matmul(&self, other: &Self) -> Result<Self, ShapeError> {
        if self.cols != other.rows {
            return Err(ShapeError::new("matmul", self.shape(), other.shape()));
        }
        let mut out = Self::zeros(self.rows, other.cols);
        let n = other.cols;
        for i in 0..self.rows {
            let out_row = &mut out.data[i * n..(i + 1) * n];
            let a_row = &self.data[i * self.cols..(i + 1) * self.cols];
            for (k, &a) in a_row.iter().enumerate() {
                if a == 0.0 {
                    continue;
                }
                let b_row = &other.data[k * n..(k + 1) * n];
                axpy_slice(out_row, a, b_row);
            }
        }
        Ok(out)
    }

    /// Returns the transpose as a new matrix.
    pub fn transposed(&self) -> Self {
        let mut out = Self::zeros(self.cols, self.rows);
        self.transposed_into(&mut out);
        out
    }

    /// Writes the transpose into a caller-provided matrix (reshaped to
    /// `cols x rows`, capacity reused) — the cached-transpose path: callers
    /// that apply `self^T` to many vectors can hoist one transpose and use
    /// the row-major [`Matrix::matvec_into`] repeatedly.
    pub fn transposed_into(&self, out: &mut Self) {
        out.rows = self.cols;
        out.cols = self.rows;
        out.data.clear();
        out.data.resize(self.rows * self.cols, 0.0);
        for r in 0..self.rows {
            let row = &self.data[r * self.cols..(r + 1) * self.cols];
            for (c, &v) in row.iter().enumerate() {
                out.data[c * self.rows + r] = v;
            }
        }
    }

    /// In-place rank-1 update `self += scale * a * b^T` (outer product
    /// accumulation) — the workhorse of the manual backprop. Rows with a
    /// zero coefficient are skipped; the row update is a four-wide unrolled
    /// AXPY.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] when `a.len() != rows` or `b.len() != cols`.
    #[inline]
    pub fn add_outer(&mut self, scale: f32, a: &Vector, b: &Vector) -> Result<(), ShapeError> {
        if a.len() != self.rows || b.len() != self.cols {
            return Err(ShapeError::new(
                "add_outer",
                self.shape(),
                (a.len(), b.len()),
            ));
        }
        let bs = b.as_slice();
        for (row, &av) in self
            .data
            .chunks_exact_mut(self.cols.max(1))
            .zip(a.as_slice())
        {
            let ar = scale * av;
            if ar == 0.0 {
                continue;
            }
            axpy_slice(row, ar, bs);
        }
        Ok(())
    }

    /// Fused backprop kernel: performs the rank-1 gradient update
    /// `self += scale * a * b^T` while simultaneously accumulating the
    /// transposed product `out = weights^T * a` in the same pass over `r`.
    ///
    /// In the MemN2N backward pass the pair
    /// `grads.w.add_outer(s, dy, x)` + `params.w.matvec_transposed(dy)`
    /// appears for every weight matrix; fusing them halves the number of
    /// passes over `dy` and shares the zero-skip test (both kernels skip
    /// rows where `scale * a[r] == 0`, which for `scale != 0` is exactly
    /// `a[r] == 0`). Summation orders match the unfused kernels, so
    /// results are bit-identical.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] when `weights.shape() != self.shape()`, when
    /// `a.len() != rows`, or when `b.len() != cols`.
    #[inline]
    pub fn add_outer_fused_matvec_t(
        &mut self,
        scale: f32,
        a: &Vector,
        b: &Vector,
        weights: &Self,
        out: &mut Vector,
    ) -> Result<(), ShapeError> {
        if weights.shape() != self.shape() {
            return Err(ShapeError::new(
                "add_outer_fused",
                self.shape(),
                weights.shape(),
            ));
        }
        if a.len() != self.rows || b.len() != self.cols {
            return Err(ShapeError::new(
                "add_outer",
                self.shape(),
                (a.len(), b.len()),
            ));
        }
        out.resize_zeroed(self.cols);
        let bs = b.as_slice();
        let o = out.as_mut_slice();
        let cols = self.cols.max(1);
        for ((grow, wrow), &av) in self
            .data
            .chunks_exact_mut(cols)
            .zip(weights.data.chunks_exact(cols))
            .zip(a.as_slice())
        {
            let ar = scale * av;
            if ar != 0.0 {
                axpy_slice(grow, ar, bs);
            }
            if av != 0.0 {
                axpy_slice(o, av, wrow);
            }
        }
        Ok(())
    }

    /// In-place `self += scale * other` (matrix AXPY).
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] when shapes differ.
    pub fn axpy(&mut self, scale: f32, other: &Self) -> Result<(), ShapeError> {
        if self.shape() != other.shape() {
            return Err(ShapeError::new("axpy", self.shape(), other.shape()));
        }
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += scale * b;
        }
        Ok(())
    }

    /// Adds `scale * col_vec` into column `c` in place — the embedding
    /// gradient scatter.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] when `col_vec.len() != rows`.
    ///
    /// # Panics
    ///
    /// Panics if `c >= cols`.
    pub fn add_to_col(&mut self, c: usize, scale: f32, col_vec: &Vector) -> Result<(), ShapeError> {
        assert!(c < self.cols, "col {c} out of range {}", self.cols);
        if col_vec.len() != self.rows {
            return Err(ShapeError::new(
                "add_to_col",
                self.shape(),
                (col_vec.len(), 1),
            ));
        }
        for r in 0..self.rows {
            self.data[r * self.cols + c] += scale * col_vec[r];
        }
        Ok(())
    }

    /// Sums the columns selected by `indices` into a new [`Vector`] — the
    /// index-based embedding of Eq 2 (`M_i = Σ_{idx ∈ S_i} W_emb[:, idx]`).
    ///
    /// # Panics
    ///
    /// Panics if any index is out of range.
    #[inline]
    pub fn sum_cols(&self, indices: &[usize]) -> Vector {
        let mut out = Vector::zeros(self.rows);
        self.sum_cols_into(indices, &mut out);
        out
    }

    /// Column-sum embedding written into a caller-provided buffer (resized
    /// to `rows`, capacity reused).
    ///
    /// Walks rows in the outer loop so each pass gathers from one
    /// contiguous row instead of striding down a column per index. The
    /// per-element additions still happen in `indices` order, matching the
    /// column-outer loop bit for bit.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of range.
    #[inline]
    pub fn sum_cols_into(&self, indices: &[usize], out: &mut Vector) {
        for &c in indices {
            assert!(c < self.cols, "col {c} out of range {}", self.cols);
        }
        out.resize_zeroed(self.rows);
        let o = out.as_mut_slice();
        for (row, acc) in self.data.chunks_exact(self.cols.max(1)).zip(o) {
            for &c in indices {
                *acc += row[c];
            }
        }
    }

    /// Sets every element to zero, keeping the shape.
    pub fn clear(&mut self) {
        for x in &mut self.data {
            *x = 0.0;
        }
    }

    /// Reshapes to `rows x cols` with every element zero, reusing the
    /// existing allocation — the matrix counterpart of
    /// [`Vector::resize_zeroed`] used by per-sample scratch memories.
    #[inline]
    pub fn resize_zeroed(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.clear();
        self.data.resize(rows * cols, 0.0);
    }

    /// Slice-input variant of [`Matrix::add_to_col`], for callers whose
    /// column update lives in another matrix's row (the embedding gradient
    /// scatter) — avoids materializing a temporary [`Vector`].
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] when `src.len() != rows`.
    ///
    /// # Panics
    ///
    /// Panics if `c >= cols`.
    #[inline]
    pub fn add_to_col_slice(
        &mut self,
        c: usize,
        scale: f32,
        src: &[f32],
    ) -> Result<(), ShapeError> {
        assert!(c < self.cols, "col {c} out of range {}", self.cols);
        if src.len() != self.rows {
            return Err(ShapeError::new("add_to_col", self.shape(), (src.len(), 1)));
        }
        for (r, &v) in src.iter().enumerate() {
            self.data[r * self.cols + c] += scale * v;
        }
        Ok(())
    }

    /// Scales every element in place.
    pub fn scale_in_place(&mut self, scale: f32) {
        for x in &mut self.data {
            *x *= scale;
        }
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f32 {
        // Eight independent accumulators break the loop-carried dependency
        // of a scalar sum (and vectorize cleanly), which matters because
        // the training loop computes this over every gradient entry on
        // every sample for clipping. Lanes are combined in a fixed order,
        // so the result is deterministic (it may differ from a sequential
        // sum in the last ulp, which the clip threshold comparison
        // tolerates).
        let mut acc = [0.0f32; 8];
        let mut chunks = self.data.chunks_exact(8);
        for c in chunks.by_ref() {
            for (a, &x) in acc.iter_mut().zip(c) {
                *a += x * x;
            }
        }
        let mut tail = 0.0f32;
        for &x in chunks.remainder() {
            tail += x * x;
        }
        let pairs = [
            acc[0] + acc[1],
            acc[2] + acc[3],
            acc[4] + acc[5],
            acc[6] + acc[7],
        ];
        ((pairs[0] + pairs[1]) + (pairs[2] + pairs[3]) + tail).sqrt()
    }

    /// True when every element is finite.
    pub fn is_finite(&self) -> bool {
        self.data.iter().all(|x| x.is_finite())
    }

    /// Iterates over rows as slices.
    pub fn iter_rows(&self) -> impl Iterator<Item = &[f32]> {
        self.data.chunks(self.cols.max(1)).take(self.rows)
    }
}

/// Four-wide unrolled slice AXPY `y += a * x`, the shared inner loop of
/// [`Matrix::matmul`], [`Matrix::add_outer`] and the fused backprop kernel.
/// Each `y[j]` receives exactly one `a * x[j]` add per call, so unrolling
/// cannot change results.
#[inline]
fn axpy_slice(y: &mut [f32], a: f32, x: &[f32]) {
    let mut yc = y.chunks_exact_mut(4);
    let mut xc = x.chunks_exact(4);
    for (yb, xb) in yc.by_ref().zip(xc.by_ref()) {
        yb[0] += a * xb[0];
        yb[1] += a * xb[1];
        yb[2] += a * xb[2];
        yb[3] += a * xb[3];
    }
    for (yv, &xv) in yc.into_remainder().iter_mut().zip(xc.remainder()) {
        *yv += a * xv;
    }
}

impl std::ops::Index<(usize, usize)> for Matrix {
    type Output = f32;
    fn index(&self, (r, c): (usize, usize)) -> &f32 {
        debug_assert!(r < self.rows && c < self.cols);
        &self.data[r * self.cols + c]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f32 {
        debug_assert!(r < self.rows && c < self.cols);
        &mut self.data[r * self.cols + c]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Matrix {
        Matrix::from_rows(vec![vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]).unwrap()
    }

    #[test]
    fn shape_accessors() {
        let m = sample();
        assert_eq!(m.shape(), (2, 3));
        assert_eq!(m.rows(), 2);
        assert_eq!(m.cols(), 3);
    }

    #[test]
    fn from_rows_rejects_ragged_input() {
        assert!(Matrix::from_rows(vec![vec![1.0], vec![1.0, 2.0]]).is_err());
    }

    #[test]
    fn from_flat_checks_size() {
        assert!(Matrix::from_flat(2, 2, vec![0.0; 3]).is_err());
        assert!(Matrix::from_flat(2, 2, vec![0.0; 4]).is_ok());
    }

    #[test]
    fn row_and_col_access() {
        let m = sample();
        assert_eq!(m.row(1), &[4.0, 5.0, 6.0]);
        assert_eq!(m.col(2).as_slice(), &[3.0, 6.0]);
    }

    #[test]
    fn matvec_matches_manual() {
        let m = sample();
        let y = m.matvec(&Vector::from(vec![1.0, 0.0, -1.0])).unwrap();
        assert_eq!(y.as_slice(), &[-2.0, -2.0]);
    }

    #[test]
    fn matvec_transposed_matches_explicit_transpose() {
        let m = sample();
        let x = Vector::from(vec![1.0, 2.0]);
        let a = m.matvec_transposed(&x).unwrap();
        let b = m.transposed().matvec(&x).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn matmul_identity_is_noop() {
        let m = sample();
        let id = Matrix::identity(3);
        assert_eq!(m.matmul(&id).unwrap(), m);
    }

    #[test]
    fn matmul_shape_check() {
        let m = sample();
        assert!(m.matmul(&sample()).is_err());
    }

    #[test]
    fn add_outer_matches_manual() {
        let mut m = Matrix::zeros(2, 2);
        m.add_outer(
            2.0,
            &Vector::from(vec![1.0, 3.0]),
            &Vector::from(vec![5.0, 7.0]),
        )
        .unwrap();
        assert_eq!(m.as_slice(), &[10.0, 14.0, 30.0, 42.0]);
    }

    #[test]
    fn sum_cols_implements_eq2_embedding() {
        let m = sample();
        // words {0, 2, 2}: column 0 + column 2 twice
        let v = m.sum_cols(&[0, 2, 2]);
        assert_eq!(v.as_slice(), &[1.0 + 3.0 + 3.0, 4.0 + 6.0 + 6.0]);
    }

    #[test]
    fn add_to_col_scatters() {
        let mut m = Matrix::zeros(2, 3);
        m.add_to_col(1, 1.0, &Vector::from(vec![9.0, 8.0])).unwrap();
        assert_eq!(m.col(1).as_slice(), &[9.0, 8.0]);
        assert_eq!(m.col(0).as_slice(), &[0.0, 0.0]);
    }

    #[test]
    fn transpose_is_involution() {
        let m = sample();
        assert_eq!(m.transposed().transposed(), m);
    }

    #[test]
    fn frobenius_norm_of_identity() {
        assert!((Matrix::identity(4).frobenius_norm() - 2.0).abs() < 1e-6);
    }

    #[test]
    fn iter_rows_yields_all_rows() {
        let m = sample();
        let rows: Vec<&[f32]> = m.iter_rows().collect();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0], &[1.0, 2.0, 3.0]);
    }

    fn counting_matrix(rows: usize, cols: usize) -> Matrix {
        // Deterministic non-uniform values exercising the unrolled blocks.
        Matrix::from_flat(
            rows,
            cols,
            (0..rows * cols)
                .map(|i| ((i * 7 + 3) % 13) as f32 - 6.0)
                .collect(),
        )
        .unwrap()
    }

    #[test]
    fn matvec_into_reuses_buffer_and_matches_reference() {
        // 9 rows x 7 cols: exercises the 4-row blocks plus a remainder row.
        let m = counting_matrix(9, 7);
        let x: Vector = (0..7).map(|i| i as f32 * 0.5 - 1.0).collect();
        let mut out = Vector::zeros(3); // wrong size on purpose
        m.matvec_into(&x, &mut out).unwrap();
        assert_eq!(out, crate::reference::matvec(&m, &x));
        // A second call into the same (now correctly sized) buffer.
        m.matvec_into(&x, &mut out).unwrap();
        assert_eq!(out, crate::reference::matvec(&m, &x));
    }

    #[test]
    fn matvec_transposed_into_matches_reference_exactly() {
        // 7 rows x 10 cols with zeros in x to exercise the skip path.
        let m = counting_matrix(7, 10);
        let mut x: Vector = (0..7).map(|i| i as f32 - 3.0).collect();
        x[3] = 0.0;
        let mut out = Vector::zeros(0);
        m.matvec_transposed_into(&x, &mut out).unwrap();
        assert_eq!(out, crate::reference::matvec_transposed(&m, &x));
    }

    #[test]
    fn matmul_matches_reference_exactly() {
        let a = counting_matrix(5, 6);
        let b = counting_matrix(6, 9);
        assert_eq!(a.matmul(&b).unwrap(), crate::reference::matmul(&a, &b));
    }

    #[test]
    fn add_outer_matches_reference_exactly() {
        let a: Vector = (0..5).map(|i| (i % 3) as f32 - 1.0).collect(); // has zeros
        let b: Vector = (0..6).map(|i| i as f32 * 0.25).collect();
        let mut fast = counting_matrix(5, 6);
        let mut slow = fast.clone();
        fast.add_outer(1.5, &a, &b).unwrap();
        crate::reference::add_outer(&mut slow, 1.5, &a, &b);
        assert_eq!(fast, slow);
    }

    #[test]
    fn sum_cols_row_major_matches_reference_exactly() {
        let m = counting_matrix(6, 8);
        let indices = [0, 7, 3, 3, 5];
        assert_eq!(
            m.sum_cols(&indices),
            crate::reference::sum_cols(&m, &indices)
        );
    }

    #[test]
    fn fused_add_outer_matvec_t_matches_unfused() {
        let w = counting_matrix(6, 5);
        let mut dy: Vector = (0..6).map(|i| i as f32 * 0.3 - 0.9).collect();
        dy[2] = 0.0; // exercise the shared zero-skip
        let x: Vector = (0..5).map(|i| 1.0 - i as f32 * 0.4).collect();

        let mut grad_fused = counting_matrix(6, 5);
        let mut grad_plain = grad_fused.clone();
        let mut out_fused = Vector::zeros(0);
        grad_fused
            .add_outer_fused_matvec_t(1.0, &dy, &x, &w, &mut out_fused)
            .unwrap();
        grad_plain.add_outer(1.0, &dy, &x).unwrap();
        let out_plain = w.matvec_transposed(&dy).unwrap();

        assert_eq!(grad_fused, grad_plain);
        assert_eq!(out_fused, out_plain);
    }

    #[test]
    fn transposed_into_reshapes_buffer() {
        let m = counting_matrix(4, 7);
        let mut t = Matrix::zeros(2, 2);
        m.transposed_into(&mut t);
        assert_eq!(t, m.transposed());
        assert_eq!(t.shape(), (7, 4));
    }

    #[test]
    fn empty_shapes_are_handled() {
        let m = Matrix::zeros(3, 0);
        let y = m.matvec(&Vector::zeros(0)).unwrap();
        assert_eq!(y.as_slice(), &[0.0; 3]);
        let t = m.matvec_transposed(&Vector::zeros(3)).unwrap();
        assert!(t.is_empty());
        assert_eq!(m.sum_cols(&[]).as_slice(), &[0.0; 3]);
    }
}

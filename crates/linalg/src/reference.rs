//! Scalar reference kernels — the pre-optimization implementations.
//!
//! These are the straightforward loops the optimized [`Matrix`] kernels
//! replaced. They are kept as the **correctness oracle**: property tests
//! check the unrolled/blocked kernels against these on random shapes
//! (exact for order-preserving kernels, within tolerance otherwise).
//!
//! Shape checking is the caller's job here; these panic on mismatched
//! dimensions via slice indexing.

use crate::{Matrix, Vector};

/// Naive matrix-vector product: one sequential dot product per row.
pub fn matvec(m: &Matrix, x: &Vector) -> Vector {
    let xs = x.as_slice();
    (0..m.rows())
        .map(|r| m.row(r).iter().zip(xs).map(|(a, b)| a * b).sum::<f32>())
        .collect()
}

/// Naive numerically stable softmax: max-shift, exponentiate, normalize —
/// the same operation order as [`Vector::softmax`].
pub fn softmax(x: &Vector) -> Vector {
    if x.is_empty() {
        return Vector::default();
    }
    let m = x.iter().fold(f32::NEG_INFINITY, |a, &v| a.max(v));
    let exps: Vec<f32> = x.iter().map(|&v| (v - m).exp()).collect();
    let z: f32 = exps.iter().sum();
    exps.into_iter().map(|e| e / z).collect()
}

/// Naive transposed matrix-vector product: row-outer scalar accumulation
/// through memory, skipping zero inputs.
pub fn matvec_transposed(m: &Matrix, x: &Vector) -> Vector {
    let mut out = Vector::zeros(m.cols());
    for r in 0..m.rows() {
        let xr = x[r];
        if xr == 0.0 {
            continue;
        }
        let row = m.row(r);
        let o = out.as_mut_slice();
        for c in 0..m.cols() {
            o[c] += xr * row[c];
        }
    }
    out
}

/// Naive dense matrix product: scalar `i`-`k`-`j` loops with a zero-skip
/// on the left operand.
pub fn matmul(a: &Matrix, b: &Matrix) -> Matrix {
    let mut out = Matrix::zeros(a.rows(), b.cols());
    for i in 0..a.rows() {
        for k in 0..a.cols() {
            let av = a[(i, k)];
            if av == 0.0 {
                continue;
            }
            for j in 0..b.cols() {
                out[(i, j)] += av * b[(k, j)];
            }
        }
    }
    out
}

/// Naive rank-1 update `m += scale * a * b^T`.
pub fn add_outer(m: &mut Matrix, scale: f32, a: &Vector, b: &Vector) {
    for r in 0..m.rows() {
        let ar = scale * a[r];
        if ar == 0.0 {
            continue;
        }
        let row = m.row_mut(r);
        for (c, bv) in b.iter().enumerate() {
            row[c] += ar * bv;
        }
    }
}

/// Naive column-sum embedding: column-outer, strided row walk per index.
pub fn sum_cols(m: &Matrix, indices: &[usize]) -> Vector {
    let mut out = Vector::zeros(m.rows());
    for &c in indices {
        assert!(c < m.cols(), "col {c} out of range {}", m.cols());
        for r in 0..m.rows() {
            out[r] += m[(r, c)];
        }
    }
    out
}

//! Dense `f32` vector with the kernels a memory network needs.

use serde::{Deserialize, Serialize};

use crate::ShapeError;

/// A dense, heap-allocated `f32` vector.
///
/// `Vector` is intentionally small: it supports exactly the operations used
/// by the MANN forward/backward passes and the accelerator simulator, with
/// shape-checked fallible methods (returning [`ShapeError`]) so dimension
/// bugs surface at the call site rather than as silent truncation.
///
/// ```
/// use mann_linalg::Vector;
///
/// # fn main() -> Result<(), mann_linalg::ShapeError> {
/// let a = Vector::from(vec![1.0, 2.0, 3.0]);
/// let b = Vector::from(vec![4.0, 5.0, 6.0]);
/// assert_eq!(a.dot(&b)?, 32.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct Vector {
    data: Vec<f32>,
}

impl Vector {
    /// Creates a zero vector of length `len`.
    ///
    /// ```
    /// use mann_linalg::Vector;
    /// let v = Vector::zeros(4);
    /// assert_eq!(v.len(), 4);
    /// assert!(v.iter().all(|&x| x == 0.0));
    /// ```
    pub fn zeros(len: usize) -> Self {
        Self {
            data: vec![0.0; len],
        }
    }

    /// Creates a vector filled with `value`.
    pub fn filled(len: usize, value: f32) -> Self {
        Self {
            data: vec![value; len],
        }
    }

    /// Creates a one-hot vector of length `len` with a single `1.0` at
    /// `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= len`.
    pub fn one_hot(len: usize, index: usize) -> Self {
        assert!(index < len, "one_hot index {index} out of range {len}");
        let mut v = Self::zeros(len);
        v.data[index] = 1.0;
        v
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the vector has no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Borrow the elements as a slice.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Borrow the elements as a mutable slice.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the vector, returning the underlying storage.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Iterate over elements.
    pub fn iter(&self) -> std::slice::Iter<'_, f32> {
        self.data.iter()
    }

    /// Iterate mutably over elements.
    pub fn iter_mut(&mut self) -> std::slice::IterMut<'_, f32> {
        self.data.iter_mut()
    }

    /// Element at `index`, or `None` when out of range.
    pub fn get(&self, index: usize) -> Option<f32> {
        self.data.get(index).copied()
    }

    /// Dot product `self · other`.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] when the lengths differ.
    pub fn dot(&self, other: &Self) -> Result<f32, ShapeError> {
        if self.len() != other.len() {
            return Err(ShapeError::new("dot", (self.len(), 1), (other.len(), 1)));
        }
        Ok(self.data.iter().zip(&other.data).map(|(a, b)| a * b).sum())
    }

    /// Element-wise sum `self + other` as a new vector.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] when the lengths differ.
    pub fn add(&self, other: &Self) -> Result<Self, ShapeError> {
        if self.len() != other.len() {
            return Err(ShapeError::new("add", (self.len(), 1), (other.len(), 1)));
        }
        Ok(Self {
            data: self
                .data
                .iter()
                .zip(&other.data)
                .map(|(a, b)| a + b)
                .collect(),
        })
    }

    /// Element-wise difference `self - other` as a new vector.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] when the lengths differ.
    pub fn sub(&self, other: &Self) -> Result<Self, ShapeError> {
        if self.len() != other.len() {
            return Err(ShapeError::new("sub", (self.len(), 1), (other.len(), 1)));
        }
        Ok(Self {
            data: self
                .data
                .iter()
                .zip(&other.data)
                .map(|(a, b)| a - b)
                .collect(),
        })
    }

    /// In-place `self += scale * other` (AXPY).
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] when the lengths differ.
    pub fn axpy(&mut self, scale: f32, other: &Self) -> Result<(), ShapeError> {
        if self.len() != other.len() {
            return Err(ShapeError::new("axpy", (self.len(), 1), (other.len(), 1)));
        }
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += scale * b;
        }
        Ok(())
    }

    /// Returns `scale * self` as a new vector.
    pub fn scaled(&self, scale: f32) -> Self {
        Self {
            data: self.data.iter().map(|x| x * scale).collect(),
        }
    }

    /// Multiplies every element by `scale` in place.
    pub fn scale_in_place(&mut self, scale: f32) {
        for x in &mut self.data {
            *x *= scale;
        }
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Euclidean norm.
    pub fn norm(&self) -> f32 {
        self.data.iter().map(|x| x * x).sum::<f32>().sqrt()
    }

    /// Largest element value, or `None` for an empty vector.
    pub fn max(&self) -> Option<f32> {
        self.data.iter().copied().fold(None, |acc, x| {
            Some(match acc {
                Some(m) if m >= x => m,
                _ => x,
            })
        })
    }

    /// Index of the largest element, ties broken toward the lower index;
    /// `None` for an empty vector.
    ///
    /// This is the exact maximum inner-product winner the accelerator's
    /// OUTPUT module searches for (paper Eq 6).
    pub fn argmax(&self) -> Option<usize> {
        let mut best: Option<(usize, f32)> = None;
        for (i, &x) in self.data.iter().enumerate() {
            match best {
                Some((_, bx)) if bx >= x => {}
                _ => best = Some((i, x)),
            }
        }
        best.map(|(i, _)| i)
    }

    /// Numerically stable softmax as a new vector.
    ///
    /// An empty vector maps to an empty vector. All outputs are finite,
    /// non-negative, and sum to 1 (up to rounding).
    ///
    /// ```
    /// use mann_linalg::Vector;
    /// let p = Vector::from(vec![1.0, 2.0, 3.0]).softmax();
    /// assert!((p.sum() - 1.0).abs() < 1e-6);
    /// ```
    pub fn softmax(&self) -> Self {
        if self.is_empty() {
            return Self::default();
        }
        let m = self.max().expect("non-empty");
        let exps: Vec<f32> = self.data.iter().map(|x| (x - m).exp()).collect();
        let z: f32 = exps.iter().sum();
        Self {
            data: exps.into_iter().map(|e| e / z).collect(),
        }
    }

    /// Element-wise (Hadamard) product.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] when the lengths differ.
    pub fn hadamard(&self, other: &Self) -> Result<Self, ShapeError> {
        if self.len() != other.len() {
            return Err(ShapeError::new(
                "hadamard",
                (self.len(), 1),
                (other.len(), 1),
            ));
        }
        Ok(Self {
            data: self
                .data
                .iter()
                .zip(&other.data)
                .map(|(a, b)| a * b)
                .collect(),
        })
    }

    /// Fills the vector with zeros, keeping its length.
    pub fn clear(&mut self) {
        for x in &mut self.data {
            *x = 0.0;
        }
    }

    /// Sets the length to `len` with every element zero, reusing the
    /// existing allocation — the workhorse of the zero-allocation inference
    /// path: scratch vectors are resized instead of freshly allocated.
    #[inline]
    pub fn resize_zeroed(&mut self, len: usize) {
        self.data.clear();
        self.data.resize(len, 0.0);
    }

    /// Makes `self` an element-for-element copy of `other`, reusing the
    /// existing allocation.
    #[inline]
    pub fn copy_from(&mut self, other: &Self) {
        self.data.clear();
        self.data.extend_from_slice(&other.data);
    }

    /// Element-wise sum `a + b` written into `self` (resized, capacity
    /// reused).
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] when the lengths differ.
    #[inline]
    pub fn add_into(&mut self, a: &Self, b: &Self) -> Result<(), ShapeError> {
        if a.len() != b.len() {
            return Err(ShapeError::new("add", (a.len(), 1), (b.len(), 1)));
        }
        self.data.clear();
        self.data
            .extend(a.data.iter().zip(&b.data).map(|(x, y)| x + y));
        Ok(())
    }

    /// Element-wise difference `a - b` written into `self` (resized,
    /// capacity reused).
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] when the lengths differ.
    #[inline]
    pub fn sub_into(&mut self, a: &Self, b: &Self) -> Result<(), ShapeError> {
        if a.len() != b.len() {
            return Err(ShapeError::new("sub", (a.len(), 1), (b.len(), 1)));
        }
        self.data.clear();
        self.data
            .extend(a.data.iter().zip(&b.data).map(|(x, y)| x - y));
        Ok(())
    }

    /// Element-wise (Hadamard) product `a * b` written into `self`
    /// (resized, capacity reused).
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] when the lengths differ.
    #[inline]
    pub fn hadamard_into(&mut self, a: &Self, b: &Self) -> Result<(), ShapeError> {
        if a.len() != b.len() {
            return Err(ShapeError::new("hadamard", (a.len(), 1), (b.len(), 1)));
        }
        self.data.clear();
        self.data
            .extend(a.data.iter().zip(&b.data).map(|(x, y)| x * y));
        Ok(())
    }

    /// Numerically stable softmax of `x` written into `self` (resized,
    /// capacity reused). Performs the same operations in the same order as
    /// [`Vector::softmax`], so results are bit-identical.
    #[inline]
    pub fn softmax_into(&mut self, x: &Self) {
        if x.is_empty() {
            self.data.clear();
            return;
        }
        let m = x.max().expect("non-empty");
        self.data.clear();
        self.data.extend(x.data.iter().map(|v| (v - m).exp()));
        let z: f32 = self.data.iter().sum();
        for e in &mut self.data {
            *e /= z;
        }
    }

    /// Fused dot + AXPY over slices: returns `probe · src` while performing
    /// `acc += scale * src` in the same pass — one traversal of `src`
    /// instead of two on the backward soft-read path (Eq 5: `da_i` and
    /// `dM_c[i]` both stream the read gradient).
    ///
    /// The dot accumulates left to right and each `acc[j]` receives exactly
    /// one add, matching the unfused loops bit for bit.
    ///
    /// # Panics
    ///
    /// Panics (via `debug_assert`) when the slice lengths differ; in release
    /// the traversal stops at the shortest slice.
    #[inline]
    pub fn dot_and_axpy(probe: &[f32], scale: f32, src: &[f32], acc: &mut [f32]) -> f32 {
        debug_assert_eq!(probe.len(), src.len());
        debug_assert_eq!(acc.len(), src.len());
        let mut dot = 0.0f32;
        for ((&p, &s), a) in probe.iter().zip(src).zip(acc.iter_mut()) {
            dot += p * s;
            *a += scale * s;
        }
        dot
    }

    /// True when every element is finite (no NaN/inf) — used by training
    /// sanity checks.
    pub fn is_finite(&self) -> bool {
        self.data.iter().all(|x| x.is_finite())
    }
}

impl From<Vec<f32>> for Vector {
    fn from(data: Vec<f32>) -> Self {
        Self { data }
    }
}

impl FromIterator<f32> for Vector {
    fn from_iter<I: IntoIterator<Item = f32>>(iter: I) -> Self {
        Self {
            data: iter.into_iter().collect(),
        }
    }
}

impl Extend<f32> for Vector {
    fn extend<I: IntoIterator<Item = f32>>(&mut self, iter: I) {
        self.data.extend(iter);
    }
}

impl AsRef<[f32]> for Vector {
    fn as_ref(&self) -> &[f32] {
        &self.data
    }
}

impl std::ops::Index<usize> for Vector {
    type Output = f32;
    fn index(&self, index: usize) -> &f32 {
        &self.data[index]
    }
}

impl std::ops::IndexMut<usize> for Vector {
    fn index_mut(&mut self, index: usize) -> &mut f32 {
        &mut self.data[index]
    }
}

impl<'a> IntoIterator for &'a Vector {
    type Item = &'a f32;
    type IntoIter = std::slice::Iter<'a, f32>;
    fn into_iter(self) -> Self::IntoIter {
        self.data.iter()
    }
}

impl IntoIterator for Vector {
    type Item = f32;
    type IntoIter = std::vec::IntoIter<f32>;
    fn into_iter(self) -> Self::IntoIter {
        self.data.into_iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_filled() {
        assert_eq!(Vector::zeros(3).as_slice(), &[0.0; 3]);
        assert_eq!(Vector::filled(2, 7.5).as_slice(), &[7.5, 7.5]);
    }

    #[test]
    fn one_hot_places_single_one() {
        let v = Vector::one_hot(4, 2);
        assert_eq!(v.as_slice(), &[0.0, 0.0, 1.0, 0.0]);
        assert_eq!(v.sum(), 1.0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn one_hot_out_of_range_panics() {
        let _ = Vector::one_hot(3, 3);
    }

    #[test]
    fn dot_matches_manual() {
        let a = Vector::from(vec![1.0, 2.0, 3.0]);
        let b = Vector::from(vec![-1.0, 0.5, 2.0]);
        assert_eq!(a.dot(&b).unwrap(), -1.0 + 1.0 + 6.0);
    }

    #[test]
    fn dot_rejects_mismatched_lengths() {
        let a = Vector::zeros(2);
        let b = Vector::zeros(3);
        assert!(a.dot(&b).is_err());
    }

    #[test]
    fn add_sub_axpy_roundtrip() {
        let a = Vector::from(vec![1.0, 2.0]);
        let b = Vector::from(vec![10.0, 20.0]);
        let s = a.add(&b).unwrap();
        assert_eq!(s.as_slice(), &[11.0, 22.0]);
        let d = s.sub(&b).unwrap();
        assert_eq!(d.as_slice(), a.as_slice());
        let mut c = a.clone();
        c.axpy(2.0, &b).unwrap();
        assert_eq!(c.as_slice(), &[21.0, 42.0]);
    }

    #[test]
    fn argmax_prefers_first_on_ties() {
        let v = Vector::from(vec![1.0, 3.0, 3.0, 2.0]);
        assert_eq!(v.argmax(), Some(1));
        assert_eq!(Vector::zeros(0).argmax(), None);
    }

    #[test]
    fn softmax_sums_to_one_and_is_shift_invariant() {
        let v = Vector::from(vec![0.1, 1.5, -2.0, 3.0]);
        let p = v.softmax();
        assert!((p.sum() - 1.0).abs() < 1e-6);
        let shifted = Vector::from(v.iter().map(|x| x + 100.0).collect::<Vec<_>>());
        let q = shifted.softmax();
        for (a, b) in p.iter().zip(q.iter()) {
            assert!((a - b).abs() < 1e-5);
        }
    }

    #[test]
    fn softmax_handles_extreme_inputs() {
        let v = Vector::from(vec![1000.0, -1000.0]);
        let p = v.softmax();
        assert!(p.is_finite());
        assert!((p[0] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn softmax_of_empty_is_empty() {
        assert!(Vector::zeros(0).softmax().is_empty());
    }

    #[test]
    fn norm_and_sum() {
        let v = Vector::from(vec![3.0, 4.0]);
        assert_eq!(v.norm(), 5.0);
        assert_eq!(v.sum(), 7.0);
    }

    #[test]
    fn hadamard_multiplies_elementwise() {
        let a = Vector::from(vec![1.0, 2.0, 3.0]);
        let b = Vector::from(vec![4.0, 5.0, 6.0]);
        assert_eq!(a.hadamard(&b).unwrap().as_slice(), &[4.0, 10.0, 18.0]);
    }

    #[test]
    fn collect_and_extend() {
        let v: Vector = (0..3).map(|i| i as f32).collect();
        assert_eq!(v.as_slice(), &[0.0, 1.0, 2.0]);
        let mut w = v;
        w.extend([9.0]);
        assert_eq!(w.len(), 4);
    }

    #[test]
    fn is_finite_detects_nan() {
        let mut v = Vector::zeros(2);
        assert!(v.is_finite());
        v[1] = f32::NAN;
        assert!(!v.is_finite());
    }

    #[test]
    fn resize_zeroed_reuses_and_zeroes() {
        let mut v = Vector::from(vec![1.0, 2.0, 3.0]);
        v.resize_zeroed(2);
        assert_eq!(v.as_slice(), &[0.0, 0.0]);
        v.resize_zeroed(4);
        assert_eq!(v.as_slice(), &[0.0; 4]);
    }

    #[test]
    fn into_variants_match_allocating_ops() {
        let a = Vector::from(vec![1.0, -2.0, 0.5]);
        let b = Vector::from(vec![4.0, 0.25, -1.0]);
        let mut out = Vector::zeros(0);
        out.add_into(&a, &b).unwrap();
        assert_eq!(out, a.add(&b).unwrap());
        out.sub_into(&a, &b).unwrap();
        assert_eq!(out, a.sub(&b).unwrap());
        out.hadamard_into(&a, &b).unwrap();
        assert_eq!(out, a.hadamard(&b).unwrap());
        out.softmax_into(&a);
        assert_eq!(out, a.softmax());
        out.copy_from(&b);
        assert_eq!(out, b);
    }

    #[test]
    fn softmax_into_of_empty_is_empty() {
        let mut out = Vector::from(vec![1.0]);
        out.softmax_into(&Vector::zeros(0));
        assert!(out.is_empty());
    }

    #[test]
    fn dot_and_axpy_matches_unfused() {
        let probe = [1.0f32, 2.0, 3.0];
        let src = [0.5f32, -1.0, 4.0];
        let mut acc = [10.0f32, 20.0, 30.0];
        let dot = Vector::dot_and_axpy(&probe, 2.0, &src, &mut acc);
        assert_eq!(dot, 0.5 - 2.0 + 12.0);
        assert_eq!(acc, [11.0, 18.0, 38.0]);
    }
}

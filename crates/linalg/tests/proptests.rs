//! Property-based tests for the linear-algebra substrate.

use mann_linalg::activation::ExpLut;
use mann_linalg::{reference, Fixed, Matrix, Vector};
use proptest::prelude::*;

/// Deterministic pseudo-random fill so shapes can vary freely without
/// flat-mapping data strategies; `zeros` plants exact zeros to exercise the
/// kernels' zero-input skip paths.
fn lcg_fill(slice: &mut [f32], mut state: u64, zeros: bool) {
    for (i, x) in slice.iter_mut().enumerate() {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        *x = if zeros && i % 3 == 0 {
            0.0
        } else {
            ((state >> 40) as f32 / (1u64 << 24) as f32) - 0.5
        };
    }
}

fn filled_matrix(rows: usize, cols: usize, seed: u64, zeros: bool) -> Matrix {
    let mut m = Matrix::zeros(rows, cols);
    lcg_fill(m.as_mut_slice(), seed, zeros);
    m
}

fn filled_vector(len: usize, seed: u64, zeros: bool) -> Vector {
    let mut v = Vector::zeros(len);
    lcg_fill(v.as_mut_slice(), seed, zeros);
    v
}

fn small_f32() -> impl Strategy<Value = f32> {
    (-100.0f32..100.0).prop_map(|x| (x * 1024.0).round() / 1024.0)
}

fn vec_of(len: usize) -> impl Strategy<Value = Vec<f32>> {
    proptest::collection::vec(small_f32(), len)
}

proptest! {
    #[test]
    fn softmax_is_a_distribution(xs in proptest::collection::vec(-50.0f32..50.0, 1..64)) {
        let p = Vector::from(xs).softmax();
        prop_assert!(p.is_finite());
        prop_assert!(p.iter().all(|&x| (0.0..=1.0 + 1e-6).contains(&x)));
        prop_assert!((p.sum() - 1.0).abs() < 1e-4);
    }

    #[test]
    fn softmax_preserves_argmax(xs in proptest::collection::vec(-50.0f32..50.0, 1..64)) {
        let v = Vector::from(xs);
        prop_assert_eq!(v.argmax(), v.softmax().argmax());
    }

    #[test]
    fn dot_is_commutative(a in vec_of(16), b in vec_of(16)) {
        let va = Vector::from(a);
        let vb = Vector::from(b);
        let ab = va.dot(&vb).unwrap();
        let ba = vb.dot(&va).unwrap();
        prop_assert!((ab - ba).abs() <= 1e-3 * (1.0 + ab.abs()));
    }

    #[test]
    fn matvec_is_linear(rows in 1usize..8, cols in 1usize..8, s in -4.0f32..4.0) {
        let mut m = Matrix::zeros(rows, cols);
        for (i, x) in m.as_mut_slice().iter_mut().enumerate() {
            *x = (i as f32 * 0.37).sin();
        }
        let x: Vector = (0..cols).map(|i| (i as f32 * 0.91).cos()).collect();
        let y1 = m.matvec(&x.scaled(s)).unwrap();
        let y2 = m.matvec(&x).unwrap().scaled(s);
        for (a, b) in y1.iter().zip(y2.iter()) {
            prop_assert!((a - b).abs() < 1e-3);
        }
    }

    #[test]
    fn transpose_matvec_agree(rows in 1usize..8, cols in 1usize..8) {
        let mut m = Matrix::zeros(rows, cols);
        for (i, x) in m.as_mut_slice().iter_mut().enumerate() {
            *x = ((i * 7 % 13) as f32) - 6.0;
        }
        let x: Vector = (0..rows).map(|i| i as f32 - 2.0).collect();
        let a = m.matvec_transposed(&x).unwrap();
        let b = m.transposed().matvec(&x).unwrap();
        prop_assert_eq!(a, b);
    }

    #[test]
    fn fixed_roundtrip_error_is_bounded(x in -30000.0f32..30000.0) {
        let err = (Fixed::from_f32(x).to_f32() - x).abs();
        prop_assert!(err <= 1.0 / 65536.0 + f32::EPSILON * x.abs());
    }

    #[test]
    fn fixed_add_matches_float_in_range(a in -1000.0f32..1000.0, b in -1000.0f32..1000.0) {
        let s = (Fixed::from_f32(a) + Fixed::from_f32(b)).to_f32();
        prop_assert!((s - (a + b)).abs() < 1e-3);
    }

    #[test]
    fn fixed_mul_matches_float_in_range(a in -100.0f32..100.0, b in -100.0f32..100.0) {
        let p = (Fixed::from_f32(a) * Fixed::from_f32(b)).to_f32();
        prop_assert!((p - a * b).abs() < 0.01 + 1e-4 * (a * b).abs());
    }

    #[test]
    fn fixed_ordering_is_consistent(a in -1000.0f32..1000.0, b in -1000.0f32..1000.0) {
        // Quantization can merge near-equal values but must never invert order.
        let (fa, fb) = (Fixed::from_f32(a), Fixed::from_f32(b));
        if a < b {
            prop_assert!(fa <= fb);
        } else if a > b {
            prop_assert!(fa >= fb);
        }
    }

    #[test]
    fn exp_lut_monotone_nonincreasing_toward_neg(x in -15.9f32..0.0) {
        let lut = ExpLut::default();
        let y1 = lut.eval(x);
        let y2 = lut.eval(x - 0.05);
        prop_assert!(y2 <= y1 + 1e-6);
        prop_assert!((0.0..=1.0).contains(&y1));
    }

    // The optimized kernels (unrolled matvec, AXPY-sweep transposed matvec,
    // blocked matmul, fused scatter/gather) are documented to preserve the
    // exact per-output-element floating-point operation order of the naive
    // loops in `reference`, so these assert bit-identical results — a
    // stronger property than the 1e-5 agreement the experiments need.

    #[test]
    fn unrolled_matvec_matches_reference(rows in 1usize..48, cols in 1usize..48, seed in 0u64..1024, zeros in any::<bool>()) {
        let m = filled_matrix(rows, cols, seed, false);
        let x = filled_vector(cols, seed ^ 0xa5a5, zeros);
        let got = m.matvec(&x).unwrap();
        prop_assert_eq!(&got, &reference::matvec(&m, &x));
        // The `_into` form must agree even when reusing a dirty buffer.
        let mut out = filled_vector(rows + 3, seed ^ 0x5a5a, false);
        m.matvec_into(&x, &mut out).unwrap();
        prop_assert_eq!(&out, &got);
    }

    #[test]
    fn axpy_sweep_matvec_transposed_matches_reference(rows in 1usize..48, cols in 1usize..48, seed in 0u64..1024, zeros in any::<bool>()) {
        let m = filled_matrix(rows, cols, seed, false);
        let x = filled_vector(rows, seed ^ 0x77, zeros);
        let got = m.matvec_transposed(&x).unwrap();
        prop_assert_eq!(&got, &reference::matvec_transposed(&m, &x));
        let mut out = filled_vector(cols + 1, seed ^ 0x99, false);
        m.matvec_transposed_into(&x, &mut out).unwrap();
        prop_assert_eq!(&out, &got);
    }

    #[test]
    fn blocked_matmul_matches_reference(rows in 1usize..24, inner in 1usize..24, cols in 1usize..24, seed in 0u64..1024, zeros in any::<bool>()) {
        let a = filled_matrix(rows, inner, seed, zeros);
        let b = filled_matrix(inner, cols, seed ^ 0x1234, false);
        prop_assert_eq!(a.matmul(&b).unwrap(), reference::matmul(&a, &b));
    }

    #[test]
    fn add_outer_matches_reference(rows in 1usize..32, cols in 1usize..32, seed in 0u64..1024, scale in -2.0f32..2.0) {
        let mut got = filled_matrix(rows, cols, seed, false);
        let mut want = got.clone();
        let a = filled_vector(rows, seed ^ 0x55, false);
        let b = filled_vector(cols, seed ^ 0xaa, false);
        got.add_outer(scale, &a, &b).unwrap();
        reference::add_outer(&mut want, scale, &a, &b);
        prop_assert_eq!(got, want);
    }

    #[test]
    fn sum_cols_matches_reference(cols in 1usize..32, seed in 0u64..1024, picks in proptest::collection::vec(0usize..64, 0..16)) {
        let picks: Vec<usize> = picks.into_iter().map(|p| p % cols).collect();
        let m = filled_matrix(8, cols, seed, false);
        let got = m.sum_cols(&picks);
        prop_assert_eq!(&got, &reference::sum_cols(&m, &picks));
        let mut out = filled_vector(11, seed ^ 0x3c, false);
        m.sum_cols_into(&picks, &mut out);
        prop_assert_eq!(&out, &got);
    }

    #[test]
    fn dot_and_axpy_matches_separate_ops(len in 1usize..64, seed in 0u64..1024, scale in -2.0f32..2.0) {
        let probe = filled_vector(len, seed, false);
        let src = filled_vector(len, seed ^ 0x11, false);
        let mut acc = filled_vector(len, seed ^ 0x22, false);
        let mut acc_ref = acc.clone();
        let dot = Vector::dot_and_axpy(probe.as_slice(), scale, src.as_slice(), acc.as_mut_slice());
        let dot_ref: f32 = probe.iter().zip(src.iter()).map(|(p, s)| p * s).sum();
        for (a, &s) in acc_ref.iter_mut().zip(src.as_slice()) {
            *a += scale * s;
        }
        prop_assert_eq!(dot, dot_ref);
        prop_assert_eq!(acc, acc_ref);
    }

    #[test]
    fn sum_cols_equals_matvec_with_count_vector(cols in 1usize..10, picks in proptest::collection::vec(0usize..10, 0..12)) {
        let picks: Vec<usize> = picks.into_iter().map(|p| p % cols).collect();
        let mut m = Matrix::zeros(4, cols);
        for (i, x) in m.as_mut_slice().iter_mut().enumerate() {
            *x = (i as f32).sin();
        }
        let direct = m.sum_cols(&picks);
        let mut counts = Vector::zeros(cols);
        for &p in &picks {
            counts[p] += 1.0;
        }
        let via_matvec = m.matvec(&counts).unwrap();
        for (a, b) in direct.iter().zip(via_matvec.iter()) {
            prop_assert!((a - b).abs() < 1e-4);
        }
    }
}

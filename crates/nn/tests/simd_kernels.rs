//! Forced-kernel SIMD equivalence tests.
//!
//! These force specific kernels through the `*_into_with` APIs, so they
//! exercise the AVX2/AVX-512 paths regardless of `DOSCO_SIMD`
//! (skipping, with a line on stderr, on CPUs without the features).
//! Contracts:
//!
//! - AVX2 kernels are **bit-identical** to scalar for `matmul`,
//!   `transpose_matmul` and `matmul_transpose` (one kernel family: the
//!   transposed products pack an operand and run the `matmul` kernel);
//!   `tests/properties.rs` forces AVX-512 beside them.
//! - Every SIMD kernel propagates NaN and ∞ from inside its vector lanes.

use dosco_nn::matrix::Matrix;
use dosco_nn::simd::GemmKernel;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn rand_matrix(rows: usize, cols: usize, rng: &mut StdRng) -> Matrix {
    Matrix::from_fn(rows, cols, |_, _| rng.gen_range(-2.0f32..2.0))
}

fn bits(m: &Matrix) -> Vec<u32> {
    m.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// Shapes crossing every tile/block boundary: full 16-wide tiles, column
/// remainders, 4/2/1-row tails, degenerate dims.
const SHAPES: &[(usize, usize, usize)] = &[
    (1, 1, 1),
    (1, 5, 17),
    (3, 64, 16),
    (4, 65, 33),
    (7, 13, 15),
    (8, 128, 48),
    (9, 100, 257),
    (33, 65, 31),
    (64, 16, 256),
    (80, 512, 96),
];

#[test]
fn avx2_matmul_is_bit_identical_to_scalar() {
    if !GemmKernel::Avx2.is_available() {
        eprintln!("skipping: no AVX2 on this CPU");
        return;
    }
    let mut rng = StdRng::seed_from_u64(1);
    for &(m, k, n) in SHAPES {
        let a = rand_matrix(m, k, &mut rng);
        let b = rand_matrix(k, n, &mut rng);
        let mut scalar = Matrix::zeros(m, n);
        let mut avx2 = Matrix::zeros(m, n);
        a.matmul_into_with(&b, &mut scalar, GemmKernel::Scalar);
        a.matmul_into_with(&b, &mut avx2, GemmKernel::Avx2);
        assert_eq!(bits(&scalar), bits(&avx2), "matmul {m}x{k}x{n}");
    }
}

#[test]
fn avx2_transpose_matmul_is_bit_identical_to_scalar() {
    if !GemmKernel::Avx2.is_available() {
        eprintln!("skipping: no AVX2 on this CPU");
        return;
    }
    let mut rng = StdRng::seed_from_u64(2);
    for &(m, k, n) in SHAPES {
        let a = rand_matrix(k, m, &mut rng);
        let b = rand_matrix(k, n, &mut rng);
        let mut scalar = Matrix::zeros(m, n);
        let mut avx2 = Matrix::zeros(m, n);
        a.transpose_matmul_into_with(&b, &mut scalar, GemmKernel::Scalar);
        a.transpose_matmul_into_with(&b, &mut avx2, GemmKernel::Avx2);
        assert_eq!(bits(&scalar), bits(&avx2), "transpose_matmul {m}x{k}x{n}");
    }
}

#[test]
fn avx2_matmul_transpose_is_bit_identical_to_scalar() {
    if !GemmKernel::Avx2.is_available() {
        eprintln!("skipping: no AVX2 on this CPU");
        return;
    }
    let mut rng = StdRng::seed_from_u64(3);
    for &(m, k, n) in SHAPES {
        let a = rand_matrix(m, k, &mut rng);
        let b = rand_matrix(n, k, &mut rng);
        let mut scalar = Matrix::zeros(m, n);
        let mut avx2 = Matrix::zeros(m, n);
        a.matmul_transpose_into_with(&b, &mut scalar, GemmKernel::Scalar);
        a.matmul_transpose_into_with(&b, &mut avx2, GemmKernel::Avx2);
        assert_eq!(bits(&scalar), bits(&avx2), "matmul_transpose {m}x{k}x{n}");
    }
}

/// SIMD kernels must propagate NaN/∞ like the reference (no zero-skip):
/// `0 · NaN` and `0 · ∞` are NaN, and the poisoned elements sit inside
/// the vector lanes (col 0 at n = 17), not just the scalar tails (col 16).
#[test]
fn simd_kernels_propagate_nan_and_inf() {
    // matmul / transpose_matmul: out row = 0·row0(b) + 1·row1(b).
    let a = Matrix::from_rows(&[&[0.0, 1.0]]); // 1×2
    let mut b = Matrix::from_fn(2, 17, |_, _| 1.0);
    b.set(0, 0, f32::NAN);
    b.set(0, 16, f32::INFINITY);
    // matmul_transpose: a 40-long dot whose first term is 0·NaN.
    let mut a_long = Matrix::zeros(1, 40);
    a_long.set(0, 1, 1.0);
    let mut b_long = Matrix::from_fn(1, 40, |_, _| 1.0);
    b_long.set(0, 0, f32::NAN);
    for kernel in [GemmKernel::Avx2, GemmKernel::Avx512] {
        if !kernel.is_available() {
            eprintln!("skipping {kernel:?}: this CPU lacks its features");
            continue;
        }
        let mut out = Matrix::zeros(1, 17);
        a.matmul_into_with(&b, &mut out, kernel);
        assert!(out.get(0, 0).is_nan(), "{kernel:?}: matmul 0·NaN");
        assert!(out.get(0, 16).is_nan(), "{kernel:?}: matmul 0·∞");

        let at = a.transpose(); // 2×1, so atᵀ·b == a·b
        let mut out_t = Matrix::zeros(1, 17);
        at.transpose_matmul_into_with(&b, &mut out_t, kernel);
        assert!(
            out_t.get(0, 0).is_nan(),
            "{kernel:?}: transpose_matmul 0·NaN"
        );
        assert!(
            out_t.get(0, 16).is_nan(),
            "{kernel:?}: transpose_matmul 0·∞"
        );

        let mut out_mt = Matrix::zeros(1, 1);
        a_long.matmul_transpose_into_with(&b_long, &mut out_mt, kernel);
        assert!(
            out_mt.get(0, 0).is_nan(),
            "{kernel:?}: matmul_transpose 0·NaN"
        );
    }
}

//! Dense linear algebra for K-FAC: damped symmetric inversion.
//!
//! K-FAC preconditions gradients with the inverses of the (symmetric
//! positive semi-definite) Kronecker factors `A + λI` and `G + λI`
//! (Wu et al., NeurIPS 2017). Inversion runs in `f64` via Cholesky for
//! numerical robustness and returns `f32` matrices. It reads only the
//! upper triangle of its input, which is all that `dosco_nn::kfac` keeps
//! up to date, and promotes it row by row, contiguously.

use crate::matrix::Matrix;
use crate::simd::GemmKernel;
use std::fmt;

/// Errors from linear-algebra routines.
#[derive(Debug, Clone, PartialEq)]
pub enum LinalgError {
    /// The matrix is not square.
    NotSquare {
        /// Row count.
        rows: usize,
        /// Column count.
        cols: usize,
    },
    /// Cholesky failed: the (damped) matrix is not positive definite.
    NotPositiveDefinite {
        /// The pivot index where factorization broke down.
        pivot: usize,
    },
    /// A preconditioned step is NaN or infinite (a gradient or an inverse
    /// holds a non-finite value), so applying it would corrupt every
    /// weight.
    NonFinite,
}

impl fmt::Display for LinalgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LinalgError::NotSquare { rows, cols } => {
                write!(f, "matrix is {rows}x{cols}, expected square")
            }
            LinalgError::NotPositiveDefinite { pivot } => {
                write!(f, "matrix is not positive definite (pivot {pivot})")
            }
            LinalgError::NonFinite => f.write_str(
                "natural gradient is not finite (a gradient or an inverse holds NaN or ±inf)",
            ),
        }
    }
}

impl std::error::Error for LinalgError {}

/// Right-hand sides solved together: one panel of `PANEL` unit vectors
/// keeps its `n × PANEL` solution block (32 KiB at `n = 256`) cache-resident
/// through both triangular solves, with one row of it in registers.
const PANEL: usize = 16;

/// Cholesky factorization `M = L Lᵀ` in place, column by column.
///
/// On entry row `j` of `s` holds column `j` of the lower triangle of `M`
/// at positions `j..n`. On return `s` is `L` stored symmetrically,
/// `s[i][j] = s[j][i] = L[max(i,j)][min(i,j)]`, so both a row and a column
/// of `L` are contiguous. Every `L[i][j]` starts from `M[i][j]` and
/// subtracts `L[i][k]·L[j][k]` for ascending `k` — the order of the
/// textbook row-by-row loop — but the inner loop runs over `i`, which is
/// contiguous here and carries no reduction.
#[inline(always)]
fn cholesky_in_place(s: &mut [f64], n: usize) -> Result<(), LinalgError> {
    for j in 0..n {
        let (done, rest) = s.split_at_mut(j * n);
        let (l_j, col) = rest[..n].split_at_mut(j);
        for (k, &l_jk) in l_j.iter().enumerate() {
            let l_k = &done[k * n + j..(k + 1) * n];
            for (v, &l_ik) in col.iter_mut().zip(l_k) {
                *v -= l_ik * l_jk;
            }
        }
        // `!(.. > 0.0)` also rejects a NaN pivot, which `<= 0.0` lets through.
        if !(col[0] > 0.0 && col[0].is_finite()) {
            return Err(LinalgError::NotPositiveDefinite { pivot: j });
        }
        let d = col[0].sqrt();
        col[0] = d;
        for v in &mut col[1..] {
            *v /= d;
        }
        for i in j + 1..n {
            s[i * n + j] = s[j * n + i];
        }
    }
    Ok(())
}

/// `acc[w] -= coeffs[t] · rows[t][w]` for ascending `t`, the whole panel
/// row in registers.
#[inline(always)]
fn eliminate(acc: &mut [f64; PANEL], coeffs: &[f64], rows: &[f64]) {
    for (&c, row) in coeffs.iter().zip(rows.chunks_exact(PANEL)) {
        for (a, &r) in acc.iter_mut().zip(row) {
            *a -= c * r;
        }
    }
}

/// Columns `c0 .. c0 + PANEL` of `(L Lᵀ)⁻¹` into `z` (`n × PANEL`), from
/// the symmetric `L` storage of [`cholesky_in_place`]: forward
/// substitution `L y = e_c` and back substitution `Lᵀ x = y` for every
/// column of the panel at once. Per element the terms are subtracted in
/// the order of the one-column-at-a-time solves; the forward pass skips
/// only `k < c0`, where `y_c[k]` is an exact zero.
#[inline(always)]
fn solve_panel(l: &[f64], n: usize, c0: usize, z: &mut [f64]) {
    z[..c0 * PANEL].fill(0.0);
    for i in c0..n {
        let mut acc = [0.0f64; PANEL];
        if i - c0 < PANEL {
            acc[i - c0] = 1.0;
        }
        eliminate(&mut acc, &l[i * n + c0..i * n + i], &z[c0 * PANEL..i * PANEL]);
        let d = l[i * n + i];
        for (o, a) in z[i * PANEL..(i + 1) * PANEL].iter_mut().zip(acc) {
            *o = a / d;
        }
    }
    for i in (0..n).rev() {
        let (row, below) = z[i * PANEL..].split_at_mut(PANEL);
        let mut acc = [0.0f64; PANEL];
        acc.copy_from_slice(row);
        eliminate(&mut acc, &l[i * n + i + 1..(i + 1) * n], below);
        let d = l[i * n + i];
        for (o, a) in row.iter_mut().zip(acc) {
            *o = a / d;
        }
    }
}

/// `(L Lᵀ)⁻¹` into `inv` (`n × n`, as `f32`) from `work`, whose first
/// `n²` elements hold the lower triangle of the damped `M` as
/// [`cholesky_in_place`] takes it and whose next `n · PANEL` are the
/// panel solutions' room: every `f64` loop of [`damped_inverse`], in one
/// body so that it can be instantiated twice — plainly here, and under
/// AVX2 in `simd::x86`. The body is safe code with no fused multiply-add,
/// and each element's operations and their order are fixed by the source,
/// so the two instantiations return the same bits. No element of `work`
/// is read before this call writes it, so it may hold anything on entry.
#[inline(always)]
pub(crate) fn factor_and_solve(
    work: &mut [f64],
    n: usize,
    inv: &mut [f32],
) -> Result<(), LinalgError> {
    let (l, z) = work.split_at_mut(n * n);
    let z = &mut z[..n * PANEL];
    cholesky_in_place(l, n)?;
    for c0 in (0..n).step_by(PANEL) {
        solve_panel(l, n, c0, z);
        let width = PANEL.min(n - c0);
        for (out, row) in inv.chunks_exact_mut(n).zip(z.chunks_exact(PANEL)) {
            for (o, &v) in out[c0..c0 + width].iter_mut().zip(row) {
                *o = v as f32;
            }
        }
    }
    Ok(())
}

/// Inverts the symmetric positive-definite matrix `m + damping·I`, reading
/// the upper triangle of `m` (diagonal included) and nothing below it, so
/// a caller may keep only that triangle up to date.
///
/// This is the K-FAC damped-inverse primitive: the damping both regularizes
/// the curvature estimate and guarantees positive definiteness for PSD
/// inputs. `M⁻¹ = L⁻ᵀ L⁻¹` from an `f64` Cholesky factor, solved for
/// `PANEL` unit vectors at a time, on the loops `DOSCO_SIMD` selects
/// (plain under `off`, AVX2 otherwise) — the same bits either way.
///
/// # Errors
///
/// Returns [`LinalgError::NotSquare`] for non-square input and
/// [`LinalgError::NotPositiveDefinite`] if the damped matrix still fails
/// Cholesky (e.g. damping too small for a badly indefinite input) or holds
/// a non-finite value.
pub fn damped_inverse(m: &Matrix, damping: f64) -> Result<Matrix, LinalgError> {
    damped_inverse_with(m, damping, crate::simd::active())
}

/// [`damped_inverse`] into `inv`, with `work` for the `f64` loops: both
/// keep their allocations from one call to the next, so a K-FAC refresh
/// allocates nothing after its first. The same bits as
/// [`damped_inverse`]; on an error `inv` keeps its contents.
///
/// # Errors
///
/// As [`damped_inverse`].
pub(crate) fn damped_inverse_into(
    m: &Matrix,
    damping: f64,
    inv: &mut Matrix,
    work: &mut Vec<f64>,
) -> Result<(), LinalgError> {
    invert_into(m, damping, inv, work, crate::simd::active())
}

/// [`damped_inverse`] on a given kernel.
fn damped_inverse_with(
    m: &Matrix,
    damping: f64,
    kernel: GemmKernel,
) -> Result<Matrix, LinalgError> {
    let mut inv = Matrix::zeros(0, 0);
    invert_into(m, damping, &mut inv, &mut Vec::new(), kernel)?;
    Ok(inv)
}

/// [`damped_inverse_into`] on a given kernel: the loops' AVX2
/// instantiation wherever a SIMD kernel is selected, the plain one
/// otherwise.
fn invert_into(
    m: &Matrix,
    damping: f64,
    inv: &mut Matrix,
    work: &mut Vec<f64>,
    kernel: GemmKernel,
) -> Result<(), LinalgError> {
    let n = m.rows();
    if m.rows() != m.cols() {
        return Err(LinalgError::NotSquare {
            rows: m.rows(),
            cols: m.cols(),
        });
    }
    let len = n * n + n * PANEL;
    if work.len() < len {
        work.resize(len, 0.0);
    }
    let work = &mut work[..len];
    // Promote the upper triangle to f64 row by row — row j of it is column
    // j of the lower triangle of a symmetric `M`, the layout
    // `cholesky_in_place` takes — and add damping on the diagonal.
    let src = m.as_slice();
    for j in 0..n {
        let upper = j * n + j..(j + 1) * n;
        for (v, &s) in work[upper.clone()].iter_mut().zip(&src[upper]) {
            *v = f64::from(s);
        }
        work[j * n + j] += damping;
    }
    // Both loops write `inv` only once the factorization has succeeded.
    inv.reshape(n, n);
    let out = inv.as_mut_slice();
    match kernel.best_available() {
        // `Avx512` too: at eight `f64` lanes a panel row's sixteen
        // accumulators are two vector chains instead of four, and the
        // latency-bound solves ran slower (DESIGN.md, *Kept / deleted /
        // why*).
        #[cfg(target_arch = "x86_64")]
        GemmKernel::Avx2 | GemmKernel::Avx512 => {
            crate::simd::x86::run_factor_and_solve(work, n, out)
        }
        _ => factor_and_solve(work, n, out),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn max_abs_diff(a: &Matrix, b: &Matrix) -> f32 {
        a.sub(b).max_abs()
    }

    #[test]
    fn inverse_of_identity() {
        let inv = damped_inverse(&Matrix::identity(4), 0.0).unwrap();
        assert!(max_abs_diff(&inv, &Matrix::identity(4)) < 1e-6);
    }

    #[test]
    fn inverse_round_trip_spd() {
        // Build SPD matrix M = B Bᵀ + I.
        let b = Matrix::from_rows(&[
            &[1.0, 2.0, 0.5],
            &[-1.0, 0.3, 2.0],
            &[0.7, -0.2, 1.5],
        ]);
        let m = b.matmul_transpose(&b).add(&Matrix::identity(3));
        let inv = damped_inverse(&m, 0.0).unwrap();
        let prod = m.matmul(&inv);
        assert!(max_abs_diff(&prod, &Matrix::identity(3)) < 1e-4, "{prod:?}");
    }

    #[test]
    fn damping_shifts_diagonal() {
        // (I + λI)⁻¹ = 1/(1+λ) I.
        let inv = damped_inverse(&Matrix::identity(3), 1.0).unwrap();
        assert!((inv.get(0, 0) - 0.5).abs() < 1e-6);
        assert!(inv.get(0, 1).abs() < 1e-6);
    }

    #[test]
    fn damping_rescues_psd_singular() {
        // Rank-1 PSD matrix: singular without damping.
        let v = Matrix::from_rows(&[&[1.0], &[2.0]]);
        let m = v.matmul_transpose(&v); // 2x2, rank 1
        assert!(damped_inverse(&m, 0.0).is_err());
        let inv = damped_inverse(&m, 0.1).unwrap();
        // Check (M + 0.1 I) inv ≈ I.
        let damped = m.add(&Matrix::identity(2).scaled(0.1));
        assert!(max_abs_diff(&damped.matmul(&inv), &Matrix::identity(2)) < 1e-4);
    }

    #[test]
    fn rejects_non_square() {
        let err = damped_inverse(&Matrix::zeros(2, 3), 1.0).unwrap_err();
        assert_eq!(err, LinalgError::NotSquare { rows: 2, cols: 3 });
    }

    #[test]
    fn rejects_negative_definite() {
        let m = Matrix::identity(2).scaled(-5.0);
        assert!(matches!(
            damped_inverse(&m, 1.0),
            Err(LinalgError::NotPositiveDefinite { .. })
        ));
    }

    /// A NaN pivot compares false with everything, so `s <= 0.0` let it
    /// through and the "inverse" came back `Ok` and all NaN.
    #[test]
    fn rejects_non_finite_input() {
        for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            let mut m = Matrix::identity(3);
            m.set(1, 1, bad);
            assert_eq!(
                damped_inverse(&m, 0.01),
                Err(LinalgError::NotPositiveDefinite { pivot: 1 }),
                "diagonal {bad}"
            );
            // Upper triangle: the only one `damped_inverse` reads.
            let mut m = Matrix::identity(3);
            m.set(0, 2, bad);
            assert_eq!(
                damped_inverse(&m, 0.01),
                Err(LinalgError::NotPositiveDefinite { pivot: 2 }),
                "off-diagonal {bad}"
            );
        }
    }

    /// The plain and the AVX2 instantiation of the `f64` loops return the
    /// same bits, and fail at the same pivot, whatever `DOSCO_SIMD` says,
    /// and the 16-lane kernel, forced, runs the AVX2 ones: at one panel's
    /// tail, and at the paper's 257-wide factor.
    #[test]
    fn plain_and_avx2_loops_agree_bitwise() {
        use rand::{Rng, SeedableRng};
        if !GemmKernel::Avx2.is_available() {
            eprintln!("skipping: no AVX2 on this CPU");
            return;
        }
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        for n in [1, 17, 257] {
            let x = Matrix::from_fn(64, n, |_, _| rng.gen_range(-2.0f32..2.0));
            let m = x.transpose_matmul(&x).scaled(1.0 / 64.0);
            let bits = |kernel| {
                let inv = damped_inverse_with(&m, 0.01, kernel).unwrap();
                inv.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>()
            };
            let plain = bits(GemmKernel::Scalar);
            assert_eq!(plain, bits(GemmKernel::Avx2), "n = {n}");
            assert_eq!(plain, bits(GemmKernel::Avx512), "n = {n}");
        }
        let mut m = Matrix::identity(5);
        m.set(3, 3, -1.0);
        for kernel in [GemmKernel::Scalar, GemmKernel::Avx2, GemmKernel::Avx512] {
            assert_eq!(
                damped_inverse_with(&m, 0.01, kernel),
                Err(LinalgError::NotPositiveDefinite { pivot: 3 }),
                "{kernel:?}"
            );
        }
    }

    /// Only the upper triangle is read: NaN written into every element
    /// below the diagonal changes no bit of the inverse, on whichever loops
    /// `DOSCO_SIMD` selects (`scripts/check.sh` runs this under auto,
    /// `avx2` and `off`).
    #[test]
    fn reads_only_the_upper_triangle() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        for n in [1, 2, 17, 257] {
            let x = Matrix::from_fn(64, n, |_, _| rng.gen_range(-2.0f32..2.0));
            let m = x.transpose_matmul(&x).scaled(1.0 / 64.0);
            let mut poisoned = m.clone();
            for i in 0..n {
                for j in 0..i {
                    poisoned.set(i, j, f32::NAN);
                }
            }
            let bits = |m: &Matrix| {
                let inv = damped_inverse(m, 0.01).unwrap();
                inv.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>()
            };
            assert_eq!(bits(&m), bits(&poisoned), "n = {n}");
        }
    }

    #[test]
    fn large_inverse_stays_accurate() {
        // 64x64 SPD with moderate conditioning, like a K-FAC factor.
        let n = 64;
        let b = Matrix::from_fn(n, n, |r, c| ((r * 31 + c * 17) % 13) as f32 / 13.0 - 0.5);
        let m = b.matmul_transpose(&b).add(&Matrix::identity(n).scaled(0.5));
        let inv = damped_inverse(&m, 0.01).unwrap();
        let damped = m.add(&Matrix::identity(n).scaled(0.01));
        let prod = damped.matmul(&inv);
        assert!(max_abs_diff(&prod, &Matrix::identity(n)) < 1e-2);
    }
}

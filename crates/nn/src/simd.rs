//! Runtime-dispatched `std::arch` SIMD micro-kernels for the forward and
//! GEMM hot paths.
//!
//! The scalar register-tiled kernels in [`crate::matrix`] remain the
//! bit-exact reference path; this module adds AVX2 and AVX2+FMA variants
//! selected at runtime via [`is_x86_feature_detected!`] and the
//! `DOSCO_SIMD` environment switch:
//!
//! | `DOSCO_SIMD`            | GEMM kernel                    | numerics vs scalar        | `tanh` loop     | `f64` inversion |
//! |-------------------------|--------------------------------|---------------------------|-----------------|-----------------|
//! | `off` / `0` / `scalar`  | [`GemmKernel::Scalar`]         | reference                 | plain           | plain           |
//! | `avx2`                  | [`GemmKernel::Avx2`]           | **bit-identical**         | AVX2, same bits | AVX2, same bits |
//! | `fma` / `on` / `1`      | [`GemmKernel::Fma`]            | deterministic, not bitwise| AVX2, same bits | AVX2, same bits |
//! | unset / `auto`          | best **bit-identical** kernel  | bit-identical             | AVX2, same bits | AVX2, same bits |
//!
//! The AVX2 kernels vectorize across *independent output columns* with
//! separate multiply and add steps, so every output element keeps exactly
//! the scalar kernel's single ascending-`k` `f32` accumulator chain —
//! bit-identical by construction, which is why `auto` may select them
//! without breaking the workspace's golden traces or equivalence suites.
//! The FMA kernels fuse multiply-add with a single rounding per step:
//! still fully deterministic (fixed order, batch-split invariant), but
//! not bit-comparable to scalar, so they run only when explicitly
//! requested. There is one kernel family: `Aᵀ·B` and `A·Bᵀ` pack their
//! transposed operand and run on the `matmul` kernels (see
//! [`crate::matrix`]), so every product inherits the same guarantees.
//!
//! Tile shapes follow the row panel, because what a tile must hide is the
//! add latency of its accumulator chains: a 4-row panel runs 4 × 16
//! columns (eight 8-lane chains), and so that the 2- and 1-row panels —
//! every batch-1 decision, and the tail of a 13–15-row serve batch — run
//! eight chains too, they start with 2 × 32 and 1 × 64 column tiles before
//! narrowing to 16, 8 and a masked tail of fewer than 8 columns. Which
//! tile covers an element never changes its chain, so none of this is
//! visible in the results.
//!
//! The module also hosts the AVX2 instantiations of the activation loop
//! ([`crate::tanh_in_place`]) and of the K-FAC factor inversion's `f64`
//! loops ([`crate::linalg::damped_inverse`]): the same safe,
//! contraction-free source as the plain ones, so they return the same bits
//! in every mode — there is no fused `tanh` and no fused inversion.
//!
//! Requesting a kernel the CPU lacks silently falls back to the best
//! available one ([`GemmKernel::best_available`]); an unparseable
//! `DOSCO_SIMD` value panics.
#![deny(unsafe_op_in_unsafe_fn)]

use std::sync::OnceLock;

/// Which GEMM micro-kernel family executes the f32 hot loops.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GemmKernel {
    /// Portable register-tiled scalar kernels: the bit-exact reference.
    Scalar,
    /// AVX2 kernels with separate multiply and add rounding steps;
    /// bit-identical to [`GemmKernel::Scalar`] by construction.
    Avx2,
    /// AVX2+FMA kernels (fused multiply-add, one rounding per step);
    /// deterministic but **not** bit-identical to scalar.
    Fma,
}

impl GemmKernel {
    /// Whether this kernel produces bit-identical results to the scalar
    /// reference path. Tests use this to decide between bitwise and
    /// tolerance-based assertions.
    pub fn bit_exact(self) -> bool {
        !matches!(self, GemmKernel::Fma)
    }

    /// Whether the running CPU can execute this kernel.
    pub fn is_available(self) -> bool {
        match self {
            GemmKernel::Scalar => true,
            GemmKernel::Avx2 => avx2_available(),
            GemmKernel::Fma => fma_available(),
        }
    }

    /// This kernel if the CPU supports it, else the fastest supported
    /// downgrade (`Fma → Avx2 → Scalar`). Every dispatch site clamps
    /// through this, so a forced kernel is portable.
    pub fn best_available(self) -> GemmKernel {
        match self {
            GemmKernel::Scalar => GemmKernel::Scalar,
            GemmKernel::Avx2 => {
                if avx2_available() {
                    GemmKernel::Avx2
                } else {
                    GemmKernel::Scalar
                }
            }
            GemmKernel::Fma => {
                if fma_available() {
                    GemmKernel::Fma
                } else if avx2_available() {
                    GemmKernel::Avx2
                } else {
                    GemmKernel::Scalar
                }
            }
        }
    }

    /// Stable lowercase name (`scalar` / `avx2` / `fma`) for logs and
    /// bench records.
    pub fn label(self) -> &'static str {
        match self {
            GemmKernel::Scalar => "scalar",
            GemmKernel::Avx2 => "avx2",
            GemmKernel::Fma => "fma",
        }
    }
}

/// True when the running CPU supports the AVX2 kernels.
pub fn avx2_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        is_x86_feature_detected!("avx2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// True when the running CPU supports the AVX2+FMA kernels.
pub fn fma_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// What `DOSCO_SIMD` asked for, before clamping to CPU support.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Requested {
    Auto,
    Off,
    Avx2,
    Fma,
}

/// Parses a raw `DOSCO_SIMD` value. `None`/empty means `Auto`.
fn parse_requested(raw: Option<&str>) -> Result<Requested, String> {
    let v = raw.unwrap_or("").trim().to_ascii_lowercase();
    match v.as_str() {
        "" | "auto" => Ok(Requested::Auto),
        "off" | "0" | "scalar" | "false" => Ok(Requested::Off),
        "avx2" => Ok(Requested::Avx2),
        "fma" | "on" | "1" | "true" => Ok(Requested::Fma),
        other => Err(format!(
            "DOSCO_SIMD must be one of auto|off|scalar|avx2|fma|on|1|0 (got {other:?})"
        )),
    }
}

/// Clamps a request to what the CPU supports. `Auto` selects the best
/// *bit-identical* kernel so default-environment runs keep every golden
/// and bitwise-equivalence contract; FMA is explicit opt-in.
fn resolve(req: Requested) -> GemmKernel {
    match req {
        Requested::Off => GemmKernel::Scalar,
        Requested::Auto | Requested::Avx2 => GemmKernel::Avx2.best_available(),
        Requested::Fma => GemmKernel::Fma.best_available(),
    }
}

/// The process-wide active GEMM kernel: `DOSCO_SIMD` parsed once and
/// clamped to CPU support (see the module docs for the value table).
///
/// # Panics
///
/// Panics on the first call if `DOSCO_SIMD` is set to an unknown value.
pub fn active() -> GemmKernel {
    static ACTIVE: OnceLock<GemmKernel> = OnceLock::new();
    *ACTIVE.get_or_init(|| {
        let raw = std::env::var("DOSCO_SIMD").ok();
        let req = parse_requested(raw.as_deref()).unwrap_or_else(|e| panic!("{e}"));
        resolve(req)
    })
}

/// The x86-64 kernel bodies. The GEMM panels mirror the scalar kernels
/// in `matrix.rs` chain for chain; the `run_*` wrappers re-verify CPU
/// support with a real `assert!` so they are safe to call from any
/// context (the check is one cached atomic load, noise next to a GEMM
/// block).
#[cfg(target_arch = "x86_64")]
pub(crate) mod x86 {
    use crate::matrix::Operands;
    use core::arch::x86_64::*;

    /// `acc + a·b` with separate rounding steps — matches the scalar
    /// kernels bit-for-bit.
    #[target_feature(enable = "avx2")]
    #[inline]
    fn vmadd_unfused(a: __m256, b: __m256, acc: __m256) -> __m256 {
        _mm256_add_ps(acc, _mm256_mul_ps(a, b))
    }

    /// Fused `a·b + acc`, one rounding step.
    #[target_feature(enable = "avx2,fma")]
    #[inline]
    fn vmadd_fused(a: __m256, b: __m256, acc: __m256) -> __m256 {
        _mm256_fmadd_ps(a, b, acc)
    }

    /// Expands the `matmul` kernels once per feature set. A macro (rather
    /// than a `const FMA: bool` generic) keeps each instantiation inside a
    /// fn carrying exactly the `#[target_feature]` set its intrinsics
    /// need, so the multiply-add helper stays a safe call and inlines
    /// cleanly.
    macro_rules! define_gemm_kernels {
        ($feat:literal, $vmadd:ident, $mm_tiles:ident, $mm_tail:ident,
         $mm_panel:ident, $matmul_block:ident) => {
            /// Every full `RT` rows × `8·NV` columns tile of `C` from
            /// column `j0` on; returns the first column not covered. `out`
            /// starts at the tile's first row. The `RT·NV` 8-lane
            /// accumulators live in registers for the whole `k` loop, and
            /// the vector lanes are independent output columns, so each
            /// element keeps one accumulator chain over ascending `k`
            /// exactly like the scalar tile — whatever the tile shape.
            #[target_feature(enable = $feat)]
            #[inline]
            fn $mm_tiles<const RT: usize, const NV: usize>(
                ab: Operands<'_>,
                out: &mut [f32],
                arow0: usize,
                mut j0: usize,
            ) -> usize {
                let Operands { a, kk, b, n } = ab;
                // As in the scalar tile: rows of `A` sliced once, `B`
                // walked row by row, no bounds check inside the `k` loop.
                let a_rows: [&[f32]; RT] =
                    core::array::from_fn(|rr| &a[(arow0 + rr) * kk..][..kk]);
                let width = 8 * NV;
                while j0 + width <= n {
                    let mut acc = [[_mm256_setzero_ps(); NV]; RT];
                    for (k, b_row) in (0..kk).zip(b.chunks_exact(n)) {
                        let bp = b_row[j0..j0 + width].as_ptr();
                        let mut bv = [_mm256_setzero_ps(); NV];
                        for (v, lanes) in bv.iter_mut().enumerate() {
                            // SAFETY: the slice above proves `8·NV` f32 are
                            // readable at `bp`; this unaligned load covers
                            // lanes `8v..8v+8` of them, `v < NV`.
                            *lanes = unsafe { _mm256_loadu_ps(bp.add(8 * v)) };
                        }
                        for rr in 0..RT {
                            let av = _mm256_set1_ps(a_rows[rr][k]);
                            for v in 0..NV {
                                acc[rr][v] = $vmadd(av, bv[v], acc[rr][v]);
                            }
                        }
                    }
                    for rr in 0..RT {
                        let op = out[rr * n + j0..rr * n + j0 + width].as_mut_ptr();
                        for v in 0..NV {
                            // SAFETY: the slice above proves `8·NV` f32 of
                            // writable storage at `op`; this unaligned
                            // store covers lanes `8v..8v+8` of it, `v < NV`.
                            unsafe { _mm256_storeu_ps(op.add(8 * v), acc[rr][v]) };
                        }
                    }
                    j0 += width;
                }
                j0
            }

            /// The last `n − j0 < 8` columns of `RT` rows as one masked
            /// 8-lane tile: lanes past `n` load as zero and are never
            /// stored, the live lanes run the same chain as a full tile.
            #[target_feature(enable = $feat)]
            #[inline]
            fn $mm_tail<const RT: usize>(ab: Operands<'_>, out: &mut [f32], arow0: usize, j0: usize) {
                let Operands { a, kk, b, n } = ab;
                let a_rows: [&[f32]; RT] =
                    core::array::from_fn(|rr| &a[(arow0 + rr) * kk..][..kk]);
                let jt = n - j0;
                debug_assert!(jt < 8);
                let lane = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
                let mask = _mm256_cmpgt_epi32(_mm256_set1_epi32(jt as i32), lane);
                let mut acc = [_mm256_setzero_ps(); RT];
                for (k, b_row) in (0..kk).zip(b.chunks_exact(n)) {
                    let bp = b_row[j0..j0 + jt].as_ptr();
                    // SAFETY: `mask` selects lanes `0..jt` only, and the
                    // slice above proves `jt` f32 are readable at `bp`; a
                    // masked load does not access unselected lanes.
                    let bv = unsafe { _mm256_maskload_ps(bp, mask) };
                    for rr in 0..RT {
                        let av = _mm256_set1_ps(a_rows[rr][k]);
                        acc[rr] = $vmadd(av, bv, acc[rr]);
                    }
                }
                for rr in 0..RT {
                    let op = out[rr * n + j0..rr * n + j0 + jt].as_mut_ptr();
                    // SAFETY: `mask` selects lanes `0..jt` only, and the
                    // slice above proves `jt` f32 of writable storage at
                    // `op`; a masked store does not access unselected lanes.
                    unsafe { _mm256_maskstore_ps(op, mask, acc[rr]) };
                }
            }

            /// `RT` rows of `C` from column `j_start` on. The short panels
            /// start with wider tiles — 1 row × 64 columns, 2 rows × 32 —
            /// so that they too run eight independent accumulator chains
            /// and are bound by throughput, not by add latency; every
            /// panel then narrows to 16- and 8-column tiles and the
            /// masked tail.
            #[target_feature(enable = $feat)]
            fn $mm_panel<const RT: usize>(
                ab: Operands<'_>,
                out: &mut [f32],
                arow0: usize,
                j_start: usize,
            ) {
                let mut j0 = j_start;
                if RT == 1 {
                    j0 = $mm_tiles::<RT, 8>(ab, out, arow0, j0);
                }
                if RT <= 2 {
                    j0 = $mm_tiles::<RT, 4>(ab, out, arow0, j0);
                }
                j0 = $mm_tiles::<RT, 2>(ab, out, arow0, j0);
                j0 = $mm_tiles::<RT, 1>(ab, out, arow0, j0);
                if j0 < ab.n {
                    $mm_tail::<RT>(ab, out, arow0, j0);
                }
            }

            /// `C[row0.., j_start..] = A[row0.., :] · B[:, j_start..]` for
            /// the `out.len() / n` rows of `C` that `out` holds: 4/2/1-row
            /// panels like the scalar `matmul_block`.
            #[target_feature(enable = $feat)]
            fn $matmul_block(ab: Operands<'_>, out: &mut [f32], row0: usize, j_start: usize) {
                let n = ab.n;
                let rows = out.len() / n;
                let mut r = 0;
                while r + 4 <= rows {
                    $mm_panel::<4>(ab, &mut out[r * n..], row0 + r, j_start);
                    r += 4;
                }
                if r + 2 <= rows {
                    $mm_panel::<2>(ab, &mut out[r * n..], row0 + r, j_start);
                    r += 2;
                }
                if r < rows {
                    $mm_panel::<1>(ab, &mut out[r * n..], row0 + r, j_start);
                }
            }
        };
    }

    define_gemm_kernels!(
        "avx2",
        vmadd_unfused,
        mm_tiles_avx2,
        mm_tail_avx2,
        mm_panel_avx2,
        matmul_block_avx2
    );
    define_gemm_kernels!(
        "avx2,fma",
        vmadd_fused,
        mm_tiles_fma,
        mm_tail_fma,
        mm_panel_fma,
        matmul_block_fma
    );

    /// The AVX2 instantiation of the [`crate::tanh_in_place`] loop: the same
    /// safe, contraction-free body as the plain one, compiled where the
    /// autovectoriser has 8 lanes, `vroundps` and `vblendvps`.
    #[target_feature(enable = "avx2")]
    fn tanh_in_place_avx2(xs: &mut [f32]) {
        for v in xs {
            *v = crate::tanh::tanh(*v);
        }
    }

    /// [`crate::tanh_in_place`] on the AVX2 instantiation.
    pub(crate) fn run_tanh_in_place(xs: &mut [f32]) {
        assert!(super::avx2_available(), "AVX2 tanh dispatched without CPU support");
        // SAFETY: AVX2 support was just asserted via runtime feature
        // detection.
        unsafe { tanh_in_place_avx2(xs) }
    }

    /// The AVX2 instantiation of the `f64` inversion loops
    /// ([`crate::linalg::factor_and_solve`]): the same safe,
    /// contraction-free source, compiled where the autovectoriser has four
    /// `f64` lanes instead of two.
    #[target_feature(enable = "avx2")]
    fn factor_and_solve_avx2(
        l: &mut [f64],
        n: usize,
        inv: &mut [f32],
    ) -> Result<(), crate::linalg::LinalgError> {
        crate::linalg::factor_and_solve(l, n, inv)
    }

    /// [`crate::linalg::factor_and_solve`] on the AVX2 instantiation.
    pub(crate) fn run_factor_and_solve(
        l: &mut [f64],
        n: usize,
        inv: &mut [f32],
    ) -> Result<(), crate::linalg::LinalgError> {
        assert!(super::avx2_available(), "AVX2 inversion dispatched without CPU support");
        // SAFETY: AVX2 support was just asserted via runtime feature
        // detection.
        unsafe { factor_and_solve_avx2(l, n, inv) }
    }

    /// Dispatches one `matmul` row block to the AVX2 (`fma = false`) or
    /// AVX2+FMA kernel.
    pub(crate) fn run_matmul_block(
        fma: bool,
        ab: Operands<'_>,
        out: &mut [f32],
        row0: usize,
        j_start: usize,
    ) {
        if fma {
            assert!(super::fma_available(), "FMA kernel dispatched without CPU support");
            // SAFETY: AVX2+FMA support was just asserted via runtime
            // feature detection.
            unsafe { matmul_block_fma(ab, out, row0, j_start) }
        } else {
            assert!(super::avx2_available(), "AVX2 kernel dispatched without CPU support");
            // SAFETY: AVX2 support was just asserted via runtime feature
            // detection.
            unsafe { matmul_block_avx2(ab, out, row0, j_start) }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_every_documented_value() {
        assert_eq!(parse_requested(None), Ok(Requested::Auto));
        assert_eq!(parse_requested(Some("")), Ok(Requested::Auto));
        assert_eq!(parse_requested(Some("auto")), Ok(Requested::Auto));
        assert_eq!(parse_requested(Some(" AUTO ")), Ok(Requested::Auto));
        for off in ["off", "0", "scalar", "false", "OFF"] {
            assert_eq!(parse_requested(Some(off)), Ok(Requested::Off), "{off}");
        }
        assert_eq!(parse_requested(Some("avx2")), Ok(Requested::Avx2));
        for fma in ["fma", "on", "1", "true", "FMA"] {
            assert_eq!(parse_requested(Some(fma)), Ok(Requested::Fma), "{fma}");
        }
        assert!(parse_requested(Some("avx512")).is_err());
        assert!(parse_requested(Some("2")).is_err());
    }

    #[test]
    fn off_always_resolves_to_scalar() {
        assert_eq!(resolve(Requested::Off), GemmKernel::Scalar);
    }

    #[test]
    fn auto_resolves_to_a_bit_exact_kernel() {
        assert!(resolve(Requested::Auto).bit_exact());
        // And it never selects an unavailable kernel.
        assert!(resolve(Requested::Auto).is_available());
        assert!(resolve(Requested::Fma).is_available());
    }

    #[test]
    fn best_available_never_upgrades() {
        assert_eq!(GemmKernel::Scalar.best_available(), GemmKernel::Scalar);
        let a = GemmKernel::Avx2.best_available();
        assert!(a == GemmKernel::Avx2 || a == GemmKernel::Scalar);
        // Fma downgrades through Avx2 before Scalar.
        if !fma_available() && avx2_available() {
            assert_eq!(GemmKernel::Fma.best_available(), GemmKernel::Avx2);
        }
    }

    #[test]
    fn bit_exactness_is_exactly_non_fma() {
        assert!(GemmKernel::Scalar.bit_exact());
        assert!(GemmKernel::Avx2.bit_exact());
        assert!(!GemmKernel::Fma.bit_exact());
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(GemmKernel::Scalar.label(), "scalar");
        assert_eq!(GemmKernel::Avx2.label(), "avx2");
        assert_eq!(GemmKernel::Fma.label(), "fma");
    }
}

//! Runtime-dispatched `std::arch` SIMD micro-kernels for the forward and
//! GEMM hot paths.
//!
//! The scalar register-tiled kernels in [`crate::matrix`] are the
//! reference path; this module adds AVX2 and AVX-512 variants selected at
//! runtime via [`is_x86_feature_detected!`] and the `DOSCO_SIMD`
//! environment switch. Every kernel returns the scalar kernel's bits, so
//! the switch changes speed, never a result:
//!
//! | `DOSCO_SIMD`   | GEMM kernel                                        | `tanh` loop     | `f64` inversion |
//! |----------------|----------------------------------------------------|-----------------|-----------------|
//! | `off`          | [`GemmKernel::Scalar`]                             | plain           | plain           |
//! | `avx2`         | [`GemmKernel::Avx2`], else `Scalar`                | AVX2            | AVX2            |
//! | unset / `auto` | [`GemmKernel::Avx512`], else `Avx2`, else `Scalar` | AVX-512 or AVX2 | AVX2            |
//!
//! The AVX2 and AVX-512 kernels vectorize across *independent output
//! columns* (8 and 16 lanes) with separate multiply and add steps, so every
//! output element keeps exactly the scalar kernel's single ascending-`k`
//! `f32` accumulator chain — bit-identical by construction, which is why
//! any of them may run without breaking the workspace's golden traces or
//! equivalence suites. Both are instantiations of one tile source, generic
//! over the lane width. There is one kernel family: `Aᵀ·B` and `A·Bᵀ` pack
//! their transposed operand and run on the `matmul` kernels (see
//! [`crate::matrix`]), so every product inherits the same guarantee.
//!
//! Tile shapes follow the row panel, because what a tile must hide is the
//! add latency of its accumulator chains: every panel runs eight vector
//! chains. A 4-row panel starts with 4 × 2 vectors of columns (4 × 16 at
//! 8 lanes, 4 × 32 at 16), and so that the 2- and 1-row panels — every
//! batch-1 decision, and the tail of a 13–15-row serve batch — run eight
//! chains too, they start with 2 × 4 and 1 × 8 vectors (2 × 32 and 1 × 64
//! at 8 lanes, 2 × 64 and 1 × 128 at 16) before narrowing to one vector
//! and a masked tail of fewer columns than lanes. Which tile covers an
//! element never changes its chain, so none of this is visible in the
//! results.
//!
//! Under the 16-lane kernel a tail of fewer than 8 columns — the 4-action
//! head of a decision — runs on the 8-lane masked tile, which times
//! faster there than the 16-lane one (DESIGN.md has the numbers); each
//! element keeps the same chain.
//!
//! The module also hosts the AVX2 and AVX-512 instantiations of the
//! activation loop ([`crate::tanh_in_place`], which runs `tanh`'s block
//! body 64 lanes at a time: four independent vectors per step at 16
//! lanes) and the AVX2 one of the
//! K-FAC factor inversion's `f64` loops ([`crate::linalg::damped_inverse`],
//! which the 16-lane kernel runs too: at that width its solves were
//! slower): the same safe, contraction-free source as the plain ones, so
//! they return the same bits in every mode.
//!
//! Requesting a kernel the CPU lacks silently falls back to the best
//! available one ([`GemmKernel::best_available`]); any `DOSCO_SIMD` value
//! other than the three above panics.
#![deny(unsafe_op_in_unsafe_fn)]

use std::sync::OnceLock;

/// Which GEMM micro-kernel family executes the f32 hot loops. Every
/// variant returns the bits of [`GemmKernel::Scalar`]: they differ in
/// speed and in the CPU features they need, never in a result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GemmKernel {
    /// Portable register-tiled scalar kernels: the reference.
    Scalar,
    /// AVX2 kernels (8 lanes) with separate multiply and add rounding
    /// steps; bit-identical to [`GemmKernel::Scalar`] by construction.
    Avx2,
    /// AVX-512 kernels (16 lanes), the same tile as [`GemmKernel::Avx2`]
    /// at twice the width; bit-identical to [`GemmKernel::Scalar`] by
    /// construction. Needs AVX-512 F, BW, DQ and VL.
    Avx512,
}

impl GemmKernel {
    /// Whether the running CPU can execute this kernel.
    pub fn is_available(self) -> bool {
        match self {
            GemmKernel::Scalar => true,
            GemmKernel::Avx2 => avx2_available(),
            GemmKernel::Avx512 => avx512_available(),
        }
    }

    /// This kernel if the CPU supports it, else the fastest supported
    /// downgrade (`Avx512 → Avx2 → Scalar`). Every dispatch site clamps
    /// through this, so a forced kernel is portable.
    pub fn best_available(self) -> GemmKernel {
        self.best_where(GemmKernel::is_available)
    }

    /// [`GemmKernel::best_available`] on a CPU that supports exactly the
    /// kernels `supported` accepts (`Scalar` always).
    fn best_where(self, supported: impl Fn(GemmKernel) -> bool) -> GemmKernel {
        match self {
            GemmKernel::Scalar => GemmKernel::Scalar,
            k if supported(k) => k,
            GemmKernel::Avx2 => GemmKernel::Scalar,
            GemmKernel::Avx512 => GemmKernel::Avx2.best_where(supported),
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

/// True when the running CPU supports the AVX-512 kernels. The GEMM tile
/// needs only AVX-512F, but it and the autovectorised `tanh` loop are
/// compiled for F, BW, DQ and VL, so all four are detected together.
pub fn avx512_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        is_x86_feature_detected!("avx512f")
            && is_x86_feature_detected!("avx512bw")
            && is_x86_feature_detected!("avx512dq")
            && is_x86_feature_detected!("avx512vl")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Parses a raw `DOSCO_SIMD` value (trimmed, case-insensitive) into the
/// widest kernel it allows: unset, empty or `auto` → [`GemmKernel::Avx512`],
/// `avx2` → [`GemmKernel::Avx2`], `off` → [`GemmKernel::Scalar`].
fn parse_requested(raw: Option<&str>) -> Result<GemmKernel, String> {
    let v = raw.unwrap_or("").trim().to_ascii_lowercase();
    match v.as_str() {
        "" | "auto" => Ok(GemmKernel::Avx512),
        "off" => Ok(GemmKernel::Scalar),
        "avx2" => Ok(GemmKernel::Avx2),
        other => Err(format!(
            "DOSCO_SIMD must be one of auto|off|avx2 (got {other:?})"
        )),
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
        let ceiling = parse_requested(raw.as_deref()).unwrap_or_else(|e| panic!("{e}"));
        ceiling.best_available()
    })
}

/// The x86-64 kernel bodies. The GEMM panels mirror the scalar kernels
/// in `matrix.rs` chain for chain; the `run_*` wrappers re-verify CPU
/// support with a real `assert!` so they are safe to call from any
/// context (the check is a few cached atomic loads, noise next to a GEMM
/// block).
#[cfg(target_arch = "x86_64")]
pub(crate) mod x86 {
    use super::GemmKernel;
    use crate::matrix::Operands;
    use core::arch::x86_64::*;

    /// `acc + a·b` with separate rounding steps — matches the scalar
    /// kernels bit-for-bit.
    #[target_feature(enable = "avx2")]
    #[inline]
    fn vmadd_unfused(a: __m256, b: __m256, acc: __m256) -> __m256 {
        _mm256_add_ps(acc, _mm256_mul_ps(a, b))
    }

    /// [`vmadd_unfused`] on 16 lanes.
    #[target_feature(enable = "avx512f,avx512bw,avx512dq,avx512vl")]
    #[inline]
    fn vmadd_unfused_512(a: __m512, b: __m512, acc: __m512) -> __m512 {
        _mm512_add_ps(acc, _mm512_mul_ps(a, b))
    }

    /// Lanes `0..jt` of an 8-lane tile, as the sign bits `vmaskmovps`
    /// reads.
    #[target_feature(enable = "avx2")]
    #[inline]
    fn tail_mask_256(jt: usize) -> __m256i {
        let lane = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
        _mm256_cmpgt_epi32(_mm256_set1_epi32(jt as i32), lane)
    }

    /// Lanes `0..jt` of a 16-lane tile, as an AVX-512 write mask.
    #[inline]
    fn tail_mask_512(jt: usize) -> __mmask16 {
        debug_assert!(jt < 16);
        (1 << jt) - 1
    }

    /// `_mm512_maskz_loadu_ps` with `_mm256_maskload_ps`'s argument order:
    /// the lanes `mask` selects from `p`, zero in the others.
    ///
    /// # Safety
    ///
    /// Every lane `mask` selects must be readable at `p`.
    #[target_feature(enable = "avx512f")]
    #[inline]
    unsafe fn maskload_512(p: *const f32, mask: __mmask16) -> __m512 {
        // SAFETY: the caller guarantees the selected lanes are readable,
        // and a masked load does not access unselected lanes.
        unsafe { _mm512_maskz_loadu_ps(mask, p) }
    }

    /// Expands the `matmul` kernels once per feature set and lane width. A
    /// macro (rather than a generic over the width) keeps each instantiation
    /// inside a fn carrying exactly the `#[target_feature]` set its
    /// intrinsics need, so the vector helpers stay safe calls and inline
    /// cleanly.
    macro_rules! define_gemm_kernels {
        (
            features: $feat:literal,
            lanes: $lanes:literal,
            vector: $zero:ident, $splat:ident, $load:ident, $store:ident, $vmadd:ident,
            tail: $tail_mask:ident, $load_masked:ident, $store_masked:ident,
            kernels: $mm_tiles:ident, $mm_tail:ident, $mm_panel:ident, $matmul_block:ident $(,)?
        ) => {
            /// Every full `RT` rows × `lanes·NV` columns tile of `C` from
            /// column `j0` on; returns the first column not covered. `out`
            /// starts at the tile's first row. The `RT·NV` vector
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
                let a_rows: [&[f32]; RT] = core::array::from_fn(|rr| &a[(arow0 + rr) * kk..][..kk]);
                let width = $lanes * NV;
                while j0 + width <= n {
                    let mut acc = [[$zero(); NV]; RT];
                    for (k, b_row) in (0..kk).zip(b.chunks_exact(n)) {
                        let bp = b_row[j0..j0 + width].as_ptr();
                        let mut bv = [$zero(); NV];
                        for (v, vector) in bv.iter_mut().enumerate() {
                            // SAFETY: the slice above proves `lanes·NV` f32
                            // are readable at `bp`; this unaligned load
                            // covers lanes `lanes·v..lanes·(v+1)` of them,
                            // `v < NV`.
                            *vector = unsafe { $load(bp.add($lanes * v)) };
                        }
                        for rr in 0..RT {
                            let av = $splat(a_rows[rr][k]);
                            for v in 0..NV {
                                acc[rr][v] = $vmadd(av, bv[v], acc[rr][v]);
                            }
                        }
                    }
                    for rr in 0..RT {
                        let op = out[rr * n + j0..rr * n + j0 + width].as_mut_ptr();
                        for v in 0..NV {
                            // SAFETY: the slice above proves `lanes·NV` f32
                            // of writable storage at `op`; this unaligned
                            // store covers lanes `lanes·v..lanes·(v+1)` of
                            // it, `v < NV`.
                            unsafe { $store(op.add($lanes * v), acc[rr][v]) };
                        }
                    }
                    j0 += width;
                }
                j0
            }

            /// The last `n − j0 < lanes` columns of `RT` rows as one masked
            /// tile: lanes past `n` load as zero and are never stored, the
            /// live lanes run the same chain as a full tile.
            #[target_feature(enable = $feat)]
            #[inline]
            fn $mm_tail<const RT: usize>(
                ab: Operands<'_>,
                out: &mut [f32],
                arow0: usize,
                j0: usize,
            ) {
                let Operands { a, kk, b, n } = ab;
                let a_rows: [&[f32]; RT] = core::array::from_fn(|rr| &a[(arow0 + rr) * kk..][..kk]);
                let jt = n - j0;
                debug_assert!(jt < $lanes);
                let mask = $tail_mask(jt);
                let mut acc = [$zero(); RT];
                for (k, b_row) in (0..kk).zip(b.chunks_exact(n)) {
                    let bp = b_row[j0..j0 + jt].as_ptr();
                    // SAFETY: `mask` selects lanes `0..jt` only, and the
                    // slice above proves `jt` f32 are readable at `bp`; a
                    // masked load does not access unselected lanes.
                    let bv = unsafe { $load_masked(bp, mask) };
                    for rr in 0..RT {
                        let av = $splat(a_rows[rr][k]);
                        acc[rr] = $vmadd(av, bv, acc[rr]);
                    }
                }
                for rr in 0..RT {
                    let op = out[rr * n + j0..rr * n + j0 + jt].as_mut_ptr();
                    // SAFETY: `mask` selects lanes `0..jt` only, and the
                    // slice above proves `jt` f32 of writable storage at
                    // `op`; a masked store does not access unselected lanes.
                    unsafe { $store_masked(op, mask, acc[rr]) };
                }
            }

            /// `RT` rows of `C` from column `j_start` on. The short panels
            /// start with wider tiles — 1 row × 8 vectors, 2 rows × 4 —
            /// so that they too run eight independent accumulator chains
            /// and are bound by throughput, not by add latency; every
            /// panel then narrows to 2- and 1-vector tiles and the masked
            /// tail.
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
                if j0 < ab.n && $lanes > 8 && ab.n - j0 < 8 {
                    // Fewer than 8 columns left (a small action head):
                    // the 8-lane masked tile, same chain per element.
                    mm_tail_avx2::<RT>(ab, out, arow0, j0);
                } else if j0 < ab.n {
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
        features: "avx2",
        lanes: 8,
        vector: _mm256_setzero_ps, _mm256_set1_ps, _mm256_loadu_ps, _mm256_storeu_ps, vmadd_unfused,
        tail: tail_mask_256, _mm256_maskload_ps, _mm256_maskstore_ps,
        kernels: mm_tiles_avx2, mm_tail_avx2, mm_panel_avx2, matmul_block_avx2,
    );
    define_gemm_kernels!(
        features: "avx512f,avx512bw,avx512dq,avx512vl",
        lanes: 16,
        vector: _mm512_setzero_ps, _mm512_set1_ps, _mm512_loadu_ps, _mm512_storeu_ps, vmadd_unfused_512,
        tail: tail_mask_512, maskload_512, _mm512_mask_storeu_ps,
        kernels: mm_tiles_avx512, mm_tail_avx512, mm_panel_avx512, matmul_block_avx512,
    );

    /// The AVX2 instantiation of the [`crate::tanh_in_place`] loop: the same
    /// safe, contraction-free block body as the plain one, compiled where
    /// the autovectoriser has 8 lanes, `vroundps` and `vblendvps`.
    #[target_feature(enable = "avx2")]
    fn tanh_in_place_avx2(xs: &mut [f32]) {
        crate::tanh::tanh_blocks(xs);
    }

    /// The AVX-512 instantiation of the same loop: 16 lanes, `vrndscaleps`
    /// and mask-register blends.
    #[target_feature(enable = "avx512f,avx512bw,avx512dq,avx512vl")]
    fn tanh_in_place_avx512(xs: &mut [f32]) {
        crate::tanh::tanh_blocks(xs);
    }

    /// [`crate::tanh_in_place`] on the AVX-512 instantiation under
    /// [`GemmKernel::Avx512`], on the AVX2 one under any other kernel.
    pub(crate) fn run_tanh_in_place(kernel: GemmKernel, xs: &mut [f32]) {
        if kernel == GemmKernel::Avx512 {
            assert!(
                super::avx512_available(),
                "AVX-512 tanh dispatched without CPU support"
            );
            // SAFETY: AVX-512 F/BW/DQ/VL support was just asserted via
            // runtime feature detection.
            unsafe { tanh_in_place_avx512(xs) }
        } else {
            assert!(
                super::avx2_available(),
                "AVX2 tanh dispatched without CPU support"
            );
            // SAFETY: AVX2 support was just asserted via runtime feature
            // detection.
            unsafe { tanh_in_place_avx2(xs) }
        }
    }

    /// The AVX2 instantiation of the `f64` inversion loops
    /// ([`crate::linalg::factor_and_solve`]): the same safe,
    /// contraction-free source, compiled where the autovectoriser has four
    /// `f64` lanes instead of two.
    #[target_feature(enable = "avx2")]
    fn factor_and_solve_avx2(
        work: &mut [f64],
        n: usize,
        inv: &mut [f32],
    ) -> Result<(), crate::linalg::LinalgError> {
        crate::linalg::factor_and_solve(work, n, inv)
    }

    /// [`crate::linalg::factor_and_solve`] on the AVX2 instantiation.
    pub(crate) fn run_factor_and_solve(
        work: &mut [f64],
        n: usize,
        inv: &mut [f32],
    ) -> Result<(), crate::linalg::LinalgError> {
        assert!(
            super::avx2_available(),
            "AVX2 inversion dispatched without CPU support"
        );
        // SAFETY: AVX2 support was just asserted via runtime feature
        // detection.
        unsafe { factor_and_solve_avx2(work, n, inv) }
    }

    /// Dispatches one `matmul` row block to the AVX-512 kernel under
    /// [`GemmKernel::Avx512`], to the AVX2 one under any other kernel.
    pub(crate) fn run_matmul_block(
        kernel: GemmKernel,
        ab: Operands<'_>,
        out: &mut [f32],
        row0: usize,
        j_start: usize,
    ) {
        if kernel == GemmKernel::Avx512 {
            assert!(
                super::avx512_available(),
                "AVX-512 kernel dispatched without CPU support"
            );
            // SAFETY: AVX-512 F/BW/DQ/VL support was just asserted via
            // runtime feature detection.
            unsafe { matmul_block_avx512(ab, out, row0, j_start) }
        } else {
            assert!(
                super::avx2_available(),
                "AVX2 kernel dispatched without CPU support"
            );
            // SAFETY: AVX2 support was just asserted via runtime feature
            // detection.
            unsafe { matmul_block_avx2(ab, out, row0, j_start) }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One spelling per value, trimmed and case-insensitive; every other
    /// spelling — the seven that earlier versions accepted included — is
    /// refused with a message naming exactly the three values.
    #[test]
    fn parses_every_documented_value() {
        for auto in [None, Some(""), Some("auto"), Some(" AUTO ")] {
            assert_eq!(parse_requested(auto), Ok(GemmKernel::Avx512), "{auto:?}");
        }
        for off in ["off", "OFF", " Off "] {
            assert_eq!(parse_requested(Some(off)), Ok(GemmKernel::Scalar), "{off}");
        }
        for avx2 in ["avx2", "AVX2"] {
            assert_eq!(parse_requested(Some(avx2)), Ok(GemmKernel::Avx2), "{avx2}");
        }
        for removed in [
            "0", "scalar", "false", "fma", "on", "1", "true", "avx512", "2",
        ] {
            assert_eq!(
                parse_requested(Some(removed)),
                Err(format!(
                    "DOSCO_SIMD must be one of auto|off|avx2 (got {removed:?})"
                )),
            );
        }
    }

    /// The ceiling clamps to the widest kernel the CPU has below it:
    /// `auto` takes the 16-lane kernel only where it exists, `avx2` never
    /// takes it, and `off` is scalar everywhere.
    #[test]
    fn auto_prefers_avx512_then_avx2_then_scalar() {
        let all = |_: GemmKernel| true;
        let no_avx512 = |k: GemmKernel| k != GemmKernel::Avx512;
        let scalar_only = |k: GemmKernel| k == GemmKernel::Scalar;
        assert_eq!(GemmKernel::Avx512.best_where(all), GemmKernel::Avx512);
        assert_eq!(GemmKernel::Avx512.best_where(no_avx512), GemmKernel::Avx2);
        assert_eq!(
            GemmKernel::Avx512.best_where(scalar_only),
            GemmKernel::Scalar
        );
        assert_eq!(GemmKernel::Avx2.best_where(all), GemmKernel::Avx2);
        assert_eq!(GemmKernel::Avx2.best_where(scalar_only), GemmKernel::Scalar);
        assert_eq!(GemmKernel::Scalar.best_where(all), GemmKernel::Scalar);
    }

    #[test]
    fn best_available_never_upgrades() {
        assert_eq!(GemmKernel::Scalar.best_available(), GemmKernel::Scalar);
        let a = GemmKernel::Avx2.best_available();
        assert!(a == GemmKernel::Avx2 || a == GemmKernel::Scalar);
        // Avx512 downgrades through Avx2 before Scalar.
        let w = GemmKernel::Avx512.best_available();
        assert!(w == GemmKernel::Avx512 || w == a, "{w:?}");
        assert!(active().is_available());
    }
}

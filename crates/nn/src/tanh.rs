//! The workspace's one `tanh`: an in-repo `f32` hyperbolic tangent that
//! returns, bit for bit, what glibc's `tanhf` returns — so no activation,
//! trained weight or served decision depends on the host's libm.
//!
//! It is a port of the fdlibm `tanhf`/`expm1f` pair (the one glibc ≤ 2.40
//! ships) with every branch turned into a select: the body is
//! straight-line code over basic IEEE operations (add, multiply, divide,
//! truncate, integer bit moves — never a fused multiply-add), so the same
//! source gives the same bits on every target, and a loop over it
//! vectorises.
//!
//! The body is written once, over a block of lanes: each statement runs on
//! every lane of the block before the next statement starts. [`tanh()`] is
//! the one-lane block. [`tanh_in_place`] runs blocks of 64 lanes, so each
//! step issues four independent 16-lane vectors (eight 8-lane ones) and
//! the chain of one vector through the port's two divisions no longer
//! sets the pace; the fewer than 64 elements left over run one lane at a
//! time. That loop is instantiated three times: plainly, under AVX-512
//! where [`crate::simd::active`] selects the 16-lane kernel, and under
//! AVX2 where it selects another SIMD kernel.
//!
//! The port's source carries this notice:
//!
//! > Copyright (C) 1993 by Sun Microsystems, Inc. All rights reserved.
//! >
//! > Developed at SunPro, a Sun Microsystems, Inc. business.
//! > Permission to use, copy, modify, and distribute this
//! > software is freely granted, provided that this notice
//! > is preserved.

use crate::simd::GemmKernel;

#[inline(always)]
fn f(bits: u32) -> f32 {
    f32::from_bits(bits)
}

/// `c ? a : b` with both sides already computed: a blend, not a branch.
#[inline(always)]
fn sel<T>(c: bool, a: T, b: T) -> T {
    if c {
        a
    } else {
        b
    }
}

/// `y · 2^k` by adding `k` to `y`'s exponent field (fdlibm's
/// `SET_FLOAT_WORD(y, high + (k << 23))`).
#[inline(always)]
fn add_exponent(y: f32, shift: i32) -> f32 {
    f((y.to_bits() as i32).wrapping_add(shift) as u32)
}

/// Lanes per block of the slice loops: every step of the port then
/// issues `W / 16` independent AVX-512 vectors (`W / 8` under AVX2), so
/// the chain through its two divisions stalls no step. 32 lanes timed
/// slower, 128 no faster.
const W: usize = 64;

/// `[f(0), f(1), …, f(N − 1)]`: one statement of the port on every lane
/// of a block, before the next statement starts.
#[inline(always)]
fn lanes<T: Copy + Default, const N: usize>(f: impl Fn(usize) -> T) -> [T; N] {
    let mut out = [T::default(); N];
    for (i, o) in out.iter_mut().enumerate() {
        *o = f(i);
    }
    out
}

/// `tanh(x)`: the bits of glibc's `tanhf` (fdlibm), on every host — the
/// one-lane case of the block form below.
///
/// fdlibm's algorithm, select-only. With `em = expm1f(±2|x|)`:
/// `|x| ≥ 1` gives `1 − 2/(em + 2)`, `|x| < 1` gives `−em/(em + 2)`, and
/// the tiny, saturated and non-finite ranges are selected in at the end.
/// Every lane computes every range; out-of-range intermediates are
/// clamped only where an integer shift would otherwise be out of bounds.
///
/// # Example
///
/// ```
/// assert_eq!(dosco_nn::tanh(0.0), 0.0);
/// assert_eq!(dosco_nn::tanh(30.0), 1.0);
/// assert!((dosco_nn::tanh(0.5) - 0.462_117_15).abs() < 1e-7);
/// ```
#[inline(always)]
pub fn tanh(x: f32) -> f32 {
    let mut lane = [x];
    tanh_block(&mut lane);
    lane[0]
}

/// [`tanh()`] of `N` lanes at once, in place. Each statement runs on
/// every lane before the next one, so a vectorised block carries `N / 16`
/// (or `N / 8`) independent chains through each step; lane for lane the
/// arithmetic is the one-lane form's. A select between two values kept
/// in lane arrays would compile to a gather (a select of the two
/// addresses, then one load), so each select's operands are computed in
/// the statement that selects between them.
#[inline(always)]
fn tanh_block<const N: usize>(xs: &mut [f32; N]) {
    let (ln2_hi, ln2_lo, invln2) = (f(0x3f31_7180), f(0x3717_f7d1), f(0x3fb8_aa3b));
    let (q1, q2, q3) = (f(0xbd08_8889), f(0x3ad0_0d01), f(0xb8a6_70cd));
    let (q4, q5) = (f(0x3686_7e54), f(0xb457_edbb));
    let x = *xs;

    let ix: [i32; N] = lanes(|i| (x[i].to_bits() & 0x7fff_ffff) as i32);
    // |x| >= 1 picks the formula; |x| >= 22 is overridden below.
    let big = |i: usize| ix[i] >= 0x3f80_0000;
    let below_22 = |i: usize| ix[i] < 0x41b0_0000;
    // expm1f's argument
    let a: [f32; N] = lanes(|i| {
        let ax = sel(below_22(i), f(ix[i] as u32), 1.0);
        sel(big(i), 2.0 * ax, -2.0 * ax)
    });

    // --- expm1f(a), |a| < 44 ---
    let hx: [i32; N] = lanes(|i| (a[i].to_bits() & 0x7fff_ffff) as i32);
    let k: [i32; N] = lanes(|i| {
        // k = (int)(invln2·a ± 0.5). `as i32` saturates and scalarises the
        // loop; truncating in float and reading the integer out of the
        // mantissa (2^23 + 2^22 magic add) vectorises.
        let t_gen = (invln2 * a[i] + sel(big(i), 0.5, -0.5)).trunc();
        let k_gen = ((t_gen + 12_582_912.0).to_bits() as i32).wrapping_sub(0x4b40_0000);
        sel(
            hx[i] > 0x3eb1_7218,                                 // |a| > 0.5 ln2
            sel(hx[i] < 0x3f85_1592, sel(big(i), 1, -1), k_gen), // |a| < 1.5 ln2
            0,
        )
    });
    // k = ±1 and k = 0 fall out of the general reduction exactly.
    let hi = |i: usize| a[i] - k[i] as f32 * ln2_hi;
    let lo = |i: usize| k[i] as f32 * ln2_lo;
    let xr: [f32; N] = lanes(|i| hi(i) - lo(i));
    let c: [f32; N] = lanes(|i| (hi(i) - xr[i]) - lo(i));
    let hxs: [f32; N] = lanes(|i| xr[i] * (0.5 * xr[i]));
    let e: [f32; N] = lanes(|i| {
        let (h, hfx) = (hxs[i], 0.5 * xr[i]);
        let r1 = 1.0 + h * (q1 + h * (q2 + h * (q3 + h * (q4 + h * q5))));
        let tt = 3.0 - r1 * hfx;
        h * ((r1 - tt) / (6.0 - xr[i] * tt))
    });
    let em: [f32; N] = lanes(|i| {
        let (xr, e, c, hxs, k) = (xr[i], e[i], c[i], hxs[i], k[i]);
        let r_k0 = xr - (xr * e - hxs);
        let e2 = (xr * (e - c) - c) - hxs;
        let r_km1 = 0.5 * (xr - e2) - 0.5;
        let kk = k.clamp(-3, 63);
        let shift = kk << 23;
        let r_far = add_exponent(1.0 - (e2 - xr), shift) - 1.0; // k <= -2 or k > 56
        let t_b = f((0x3f80_0000 - (0x0100_0000 >> (kk.clamp(0, 31) as u32))) as u32);
        let r_b = add_exponent(t_b - (e2 - xr), shift); // 3 <= k < 23
        let t_c = f(((0x7f - kk.clamp(0, 126)) << 23) as u32);
        let r_c = add_exponent((xr - (e2 + t_c)) + 1.0, shift); // 23 <= k <= 56
        let r_pos = sel(k < 23, r_b, sel(k > 56, r_far, r_c));
        let em = sel(
            k == 0,
            r_k0,
            sel(k == -1, r_km1, sel(k <= -2, r_far, r_pos)),
        );
        sel(hx[i] < 0x3300_0000, a[i], em) // |a| < 2^-25: expm1f(a) = a
    });

    // --- back in tanhf: one division serves both formulas ---
    let q: [f32; N] = lanes(|i| sel(big(i), 2.0, -em[i]) / (em[i] + 2.0));
    *xs = lanes(|i| {
        let sign = x[i].to_bits() & 0x8000_0000;
        let z = sel(big(i), 1.0 - q[i], q[i]);
        let z = sel(below_22(i), z, 1.0); // |x| >= 22: 1 - tiny == 1
        let r = f((z.to_bits() & 0x7fff_ffff) | sign);
        let r = sel(ix[i] < 0x2400_0000, x[i] * (1.0 + x[i]), r); // |x| < 2^-55, and ±0
        let non_finite = sel(
            ix[i] == 0x7f80_0000,
            f(0x3f80_0000 | sign), // ±inf -> ±1
            x[i] + x[i],           // NaN -> NaN
        );
        sel(ix[i] >= 0x7f80_0000, non_finite, r)
    });
}

/// The slice loop's body, inlined into each instantiation: whole blocks of
/// [`W`] lanes, then the remainder one lane at a time.
#[inline(always)]
pub(crate) fn tanh_blocks(xs: &mut [f32]) {
    let (blocks, rest) = xs.as_chunks_mut::<W>();
    for block in blocks {
        tanh_block(block);
    }
    for v in rest {
        *v = tanh(*v);
    }
}

/// The slice loop on a given kernel: the plain instantiation here, the
/// AVX2 and AVX-512 ones (same body) in `simd::x86`.
fn tanh_in_place_with(xs: &mut [f32], kernel: GemmKernel) {
    match kernel.best_available() {
        #[cfg(target_arch = "x86_64")]
        simd @ (GemmKernel::Avx2 | GemmKernel::Avx512) => {
            crate::simd::x86::run_tanh_in_place(simd, xs)
        }
        _ => tanh_blocks(xs),
    }
}

/// [`tanh()`] of every element, in place, on the kernel `DOSCO_SIMD`
/// selected: the vectorised form every activation buffer goes through.
/// Element for element the bits of [`tanh()`], whichever kernel runs.
pub fn tanh_in_place(xs: &mut [f32]) {
    tanh_in_place_with(xs, crate::simd::active());
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every `STRIDE`-th `f32` bit pattern: 4.26 M inputs that walk every
    /// exponent, both signs, subnormals, infinities and NaNs.
    const STRIDE: usize = 1009;

    fn strided_inputs() -> Vec<f32> {
        (0..=u32::MAX).step_by(STRIDE).map(f32::from_bits).collect()
    }

    /// NaN payloads are not part of the contract; everything else is
    /// compared as bits (so `-0.0` and `0.0` differ).
    fn canonical_bits(v: f32) -> u32 {
        if v.is_nan() {
            0x7fc0_0000
        } else {
            v.to_bits()
        }
    }

    fn fnv1a64(values: &[f32]) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for v in values {
            for byte in canonical_bits(*v).to_le_bytes() {
                h = (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        h
    }

    fn first_mismatch(xs: &[f32], got: &[f32], want: impl Fn(f32) -> f32) -> Option<String> {
        xs.iter().zip(got).find_map(|(&x, &g)| {
            let w = want(x);
            (canonical_bits(g) != canonical_bits(w)).then(|| {
                format!(
                    "tanh({x:e}) [input bits {:#010x}]: got {:#010x}, expected {:#010x}",
                    x.to_bits(),
                    g.to_bits(),
                    w.to_bits()
                )
            })
        })
    }

    /// The function is pinned on every platform, whatever its libm: the
    /// plain, the AVX2 and the AVX-512 instantiation agree bit for bit
    /// with each other and with the scalar form, and the outputs hash to a
    /// constant (captured from this implementation on x86-64, where it
    /// equals glibc 2.36's `tanhf` on all 2³² inputs).
    #[test]
    fn every_instantiation_agrees_and_matches_the_pinned_fingerprint() {
        let xs = strided_inputs();
        let mut plain = xs.clone();
        tanh_in_place_with(&mut plain, GemmKernel::Scalar);
        assert_eq!(
            first_mismatch(&xs, &plain, tanh),
            None,
            "plain slice vs scalar form"
        );
        for kernel in [GemmKernel::Avx2, GemmKernel::Avx512] {
            if !kernel.is_available() {
                eprintln!("skipping the {kernel:?} loop: this CPU lacks its features");
                continue;
            }
            let mut simd = xs.clone();
            tanh_in_place_with(&mut simd, kernel);
            assert_eq!(
                first_mismatch(&xs, &simd, tanh),
                None,
                "{kernel:?} slice vs scalar form"
            );
        }
        assert_eq!(
            fnv1a64(&plain),
            0x0d65_629d_a1f7_8955,
            "tanh output fingerprint moved"
        );
    }

    /// The goldens under `tests/` were captured with libm's `tanhf` from
    /// glibc 2.36 (x86-64); this implementation must equal it there, and
    /// does on any libm that ships the fdlibm `tanhf` (glibc ≤ 2.40). On a
    /// host whose libm rounds differently this fails and names the first
    /// differing input — the pinned fingerprint above, not libm, is then
    /// the authority.
    #[test]
    fn strided_sweep_equals_libm() {
        let xs = strided_inputs();
        let mut got = xs.clone();
        tanh_in_place(&mut got);
        assert_eq!(first_mismatch(&xs, &got, f32::tanh), None);
    }

    /// Runs `apply` over all 2³² bit patterns, in chunks, and compares
    /// each output with libm's (NaN ↦ NaN).
    fn all_bit_patterns_equal_libm(apply: impl Fn(&mut [f32])) {
        const CHUNK: usize = 1 << 16;
        let mut xs = vec![0.0f32; CHUNK];
        let mut got = vec![0.0f32; CHUNK];
        for base in (0..=u32::MAX).step_by(CHUNK) {
            for (i, x) in xs.iter_mut().enumerate() {
                *x = f32::from_bits(base + i as u32);
            }
            got.copy_from_slice(&xs);
            apply(&mut got);
            assert_eq!(first_mismatch(&xs, &got, f32::tanh), None);
        }
    }

    /// [`all_bit_patterns_equal_libm`] on one slice instantiation, or a
    /// stderr line where this CPU lacks its features.
    fn all_bit_patterns_equal_libm_on(kernel: GemmKernel) {
        if !kernel.is_available() {
            eprintln!("skipping the {kernel:?} loop: this CPU lacks its features");
            return;
        }
        all_bit_patterns_equal_libm(|xs| tanh_in_place_with(xs, kernel));
    }

    // All 2³² inputs against libm, once per form of the port: the one-lane
    // `tanh()` and each slice instantiation of the block body, ≈ 1 min
    // each in release; `scripts/check.sh` runs all four. A mismatch here
    // means the port is wrong: fix the port, never relax this to a
    // tolerance.

    #[test]
    #[ignore = "exhaustive: run in release (scripts/check.sh)"]
    fn all_bit_patterns_equal_libm_one_lane() {
        all_bit_patterns_equal_libm(|xs| xs.iter_mut().for_each(|v| *v = tanh(*v)));
    }

    #[test]
    #[ignore = "exhaustive: run in release (scripts/check.sh)"]
    fn all_bit_patterns_equal_libm_plain_loop() {
        all_bit_patterns_equal_libm_on(GemmKernel::Scalar);
    }

    #[test]
    #[ignore = "exhaustive: run in release (scripts/check.sh)"]
    fn all_bit_patterns_equal_libm_avx2_loop() {
        all_bit_patterns_equal_libm_on(GemmKernel::Avx2);
    }

    #[test]
    #[ignore = "exhaustive: run in release (scripts/check.sh)"]
    fn all_bit_patterns_equal_libm_avx512_loop() {
        all_bit_patterns_equal_libm_on(GemmKernel::Avx512);
    }
}

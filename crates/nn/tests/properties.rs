//! Property-based tests for the NN substrate.

use dosco_nn::dist::{
    greedy_action, log_softmax, log_softmax_row, sample_action, softmax_row, Categorical,
};
use dosco_nn::linalg::{damped_inverse, LinalgError};
use dosco_nn::matrix::Matrix;
use dosco_nn::mlp::{Activation, Mlp};
use dosco_nn::simd::GemmKernel;
use proptest::prelude::*;
use rand::{Rng, SeedableRng};

fn finite_vec(len: usize) -> impl Strategy<Value = Vec<f32>> {
    prop::collection::vec(-5.0f32..5.0, len)
}

fn rand_matrix(rows: usize, cols: usize, rng: &mut rand::rngs::StdRng) -> Matrix {
    Matrix::from_fn(rows, cols, |_, _| rng.gen_range(-2.0f32..2.0))
}

/// Bit patterns of every element — the equivalence contract is *bit*
/// identity (also distinguishes -0.0 from 0.0 and compares NaNs).
fn bits(m: &Matrix) -> Vec<u32> {
    m.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// The kernels the forced-kernel tests run: scalar, AVX2 and AVX-512,
/// minus any this CPU lacks (forcing one would only clamp it to a kernel
/// already in the list). Each one skipped is named on stderr once.
fn available_kernels() -> Vec<GemmKernel> {
    static SKIPPED: std::sync::Once = std::sync::Once::new();
    let all = [GemmKernel::Scalar, GemmKernel::Avx2, GemmKernel::Avx512];
    let (run, skip): (Vec<_>, Vec<_>) = all.into_iter().partition(|k| k.is_available());
    if !skip.is_empty() {
        SKIPPED.call_once(|| eprintln!("skipping {skip:?}: this CPU lacks their features"));
    }
    run
}

/// Row counts for the GEMM properties: half the draws are a row tail (1, 2,
/// 3 or 5 rows — the 1- and 2-row panels, which start with the widest tiles),
/// the rest anything up to `max`.
fn rows_biased_to_tails(max: usize) -> impl Strategy<Value = usize> {
    (0..2 * max).prop_map(move |v| {
        if v < max {
            [1, 2, 3, 5][v % 4]
        } else {
            v - max + 1
        }
    })
}

/// The inversion `damped_inverse` replaced, kept as its specification: a
/// row-by-row `f64` Cholesky, then a forward and a back substitution per
/// unit vector. The production routine must return these bits. (Its
/// `s <= 0.0` pivot test lets a NaN through; inputs here are finite.)
fn damped_inverse_ref(m: &Matrix, damping: f64) -> Result<Matrix, LinalgError> {
    let n = m.rows();
    let mut a = vec![0.0f64; n * n];
    for i in 0..n {
        for j in 0..n {
            a[i * n + j] = f64::from(m.get(i, j));
        }
        a[i * n + i] += damping;
    }
    let mut l = vec![0.0f64; n * n];
    for i in 0..n {
        for j in 0..=i {
            let mut s = a[i * n + j];
            for k in 0..j {
                s -= l[i * n + k] * l[j * n + k];
            }
            if i == j {
                if s <= 0.0 {
                    return Err(LinalgError::NotPositiveDefinite { pivot: i });
                }
                l[i * n + i] = s.sqrt();
            } else {
                l[i * n + j] = s / l[j * n + j];
            }
        }
    }
    let mut inv = vec![0.0f64; n * n];
    let mut y = vec![0.0f64; n];
    for col in 0..n {
        for i in 0..n {
            let mut s = if i == col { 1.0 } else { 0.0 };
            for k in 0..i {
                s -= l[i * n + k] * y[k];
            }
            y[i] = s / l[i * n + i];
        }
        for i in (0..n).rev() {
            let mut s = y[i];
            for k in (i + 1)..n {
                s -= l[k * n + i] * inv[k * n + col];
            }
            inv[i * n + col] = s / l[i * n + i];
        }
    }
    Ok(Matrix::from_fn(n, n, |r, c| inv[r * n + c] as f32))
}

/// A K-FAC-like factor: the second moment `xᵀx / batch` of a random
/// `batch × n` matrix — PSD, rank-deficient when `batch < n`.
fn second_moment(batch: usize, n: usize, rng: &mut rand::rngs::StdRng) -> Matrix {
    let x = rand_matrix(batch, n, rng);
    x.transpose_matmul_ref(&x).scaled(1.0 / batch as f32)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The all-right-hand-sides inversion returns the bits of the
    /// column-at-a-time reference on SPD and PSD-plus-damping inputs.
    #[test]
    fn damped_inverse_matches_reference_bitwise(
        n in 1usize..40, batch in 1usize..48, damping in 0.001f64..1.0, seed in 0u64..1000
    ) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let m = second_moment(batch, n, &mut rng);
        let got = damped_inverse(&m, damping).unwrap();
        prop_assert_eq!(bits(&got), bits(&damped_inverse_ref(&m, damping).unwrap()));
    }

    /// On an indefinite input both fail, at the same pivot.
    #[test]
    fn damped_inverse_fails_like_reference(
        n in 1usize..40, row in 0usize..40, shift in 0.5f32..20.0, seed in 0u64..1000
    ) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut m = second_moment(n + 3, n, &mut rng);
        let row = row % n;
        m.set(row, row, m.get(row, row) - shift);
        let reference = damped_inverse_ref(&m, 0.01);
        let got = damped_inverse(&m, 0.01);
        match (got, reference) {
            (Ok(a), Ok(b)) => prop_assert_eq!(bits(&a), bits(&b)),
            (a, b) => prop_assert_eq!(a.unwrap_err(), b.unwrap_err()),
        }
    }

    /// All three GEMM entry points return the bits of their `*_ref` under
    /// the scalar, the AVX2 and the AVX-512 kernel, forced — whatever
    /// `DOSCO_SIMD` says — at shapes off every tile boundary
    /// (`n % 16 != 0`, `m % 4 != 0`), so that every width of masked tail
    /// occurs at both 8 and 16 lanes.
    #[test]
    fn forced_bit_exact_kernels_match_references(
        m in 1usize..40, k in 1usize..70, n in 1usize..160, seed in 0u64..1000
    ) {
        let (m, n) = (m + usize::from(m % 4 == 0), n + usize::from(n % 16 == 0));
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let a = rand_matrix(m, k, &mut rng);
        let b = rand_matrix(k, n, &mut rng);
        let at = rand_matrix(k, m, &mut rng);
        let bt = rand_matrix(n, k, &mut rng);
        for kernel in available_kernels() {
            let mut out = Matrix::from_fn(m, n, |_, _| f32::NAN);
            a.matmul_into_with(&b, &mut out, kernel);
            prop_assert_eq!(bits(&out), bits(&a.matmul_ref(&b)), "{:?} matmul", kernel);
            at.transpose_matmul_into_with(&b, &mut out, kernel);
            prop_assert_eq!(
                bits(&out), bits(&at.transpose_matmul_ref(&b)), "{:?} transpose_matmul", kernel
            );
            a.matmul_transpose_into_with(&bt, &mut out, kernel);
            prop_assert_eq!(
                bits(&out), bits(&a.matmul_transpose_ref(&bt)), "{:?} matmul_transpose", kernel
            );
        }
    }

    /// The Gram upper triangle is the `transpose_matmul` reference on and
    /// above the diagonal, and that reference is symmetric bit for bit —
    /// which is what lets K-FAC mirror instead of computing both halves.
    #[test]
    fn gram_upper_matches_reference_and_mirrors(
        batch in 1usize..70, n in 1usize..80, seed in 0u64..1000
    ) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let x = rand_matrix(batch, n, &mut rng);
        let reference = x.transpose_matmul_ref(&x);
        let mut out = Matrix::from_fn(n, n, |_, _| f32::NAN);
        x.gram_upper_into(&mut out);
        for i in 0..n {
            for j in i..n {
                prop_assert_eq!(out.get(i, j).to_bits(), reference.get(i, j).to_bits());
                prop_assert_eq!(reference.get(j, i).to_bits(), reference.get(i, j).to_bits());
            }
        }
    }

    /// (A·B)·C == A·(B·C) within f32 tolerance on small matrices.
    #[test]
    fn matmul_associative(a in finite_vec(6), b in finite_vec(6), c in finite_vec(6)) {
        let a = Matrix::from_vec(2, 3, a);
        let b = Matrix::from_vec(3, 2, b);
        let c = Matrix::from_vec(2, 3, c);
        let left = a.matmul(&b).matmul(&c);
        let right = a.matmul(&b.matmul(&c));
        for (x, y) in left.as_slice().iter().zip(right.as_slice()) {
            prop_assert!((x - y).abs() < 1e-3, "{x} vs {y}");
        }
    }

    /// Transpose round-trips and fused transpose-products agree with the
    /// explicit transpose.
    #[test]
    fn transpose_consistency(data in finite_vec(12)) {
        let m = Matrix::from_vec(3, 4, data);
        prop_assert_eq!(m.transpose().transpose(), m.clone());
        let other = Matrix::from_vec(3, 2, (0..6).map(|i| i as f32 / 3.0).collect());
        prop_assert_eq!(m.transpose_matmul(&other), m.transpose().matmul(&other));
    }

    /// Softmax rows are probability vectors; log-softmax matches ln(softmax).
    #[test]
    fn softmax_is_probability_vector(logits in finite_vec(5)) {
        let p = softmax_row(&logits);
        let sum: f32 = p.iter().sum();
        prop_assert!((sum - 1.0).abs() < 1e-4);
        prop_assert!(p.iter().all(|&v| (0.0..=1.0).contains(&v)));
        let lp = log_softmax_row(&logits);
        for (l, pr) in lp.iter().zip(&p) {
            prop_assert!((l.exp() - pr).abs() < 1e-5);
        }
    }

    /// Categorical entropy is bounded by ln(K) and non-negative.
    #[test]
    fn entropy_bounds(logits in finite_vec(6)) {
        let d = Categorical::new(&Matrix::row_vector(&logits));
        let h = d.entropy()[0];
        prop_assert!(h >= -1e-5);
        prop_assert!(h <= (6.0f32).ln() + 1e-4);
    }

    /// Sampled actions always have non-zero probability.
    #[test]
    fn samples_in_support(logits in finite_vec(4), seed in 0u64..1000) {
        let d = Categorical::new(&Matrix::row_vector(&logits));
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let a = d.sample(&mut rng)[0];
        prop_assert!(a < 4);
        prop_assert!(d.log_prob(&[a])[0].is_finite());
    }

    /// The slice-level rule a decision runs on a logit row chooses what
    /// `Categorical` chooses from the same row, greedy and drawn.
    #[test]
    fn slice_rule_matches_categorical_on_random_logits(
        logits in finite_vec(5),
        seed in 0u64..1000,
    ) {
        assert_slice_rule_matches_categorical(&logits, seed);
    }

    /// Damped inverses of SPD matrices satisfy (M + λI)·inv ≈ I.
    #[test]
    fn damped_inverse_correct(data in finite_vec(9), damping in 0.01f64..1.0) {
        let b = Matrix::from_vec(3, 3, data);
        let m = b.matmul_transpose(&b); // PSD
        let inv = damped_inverse(&m, damping).unwrap();
        let damped = m.add(&Matrix::identity(3).scaled(damping as f32));
        let prod = damped.matmul(&inv);
        let err = prod.sub(&Matrix::identity(3)).max_abs();
        prop_assert!(err < 2e-2, "residual {err}");
    }

    /// Forward passes are deterministic and bounded for tanh hidden nets
    /// (hidden activations in [-1,1], output a bounded linear combo).
    #[test]
    fn mlp_forward_finite(obs in finite_vec(8), seed in 0u64..100) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let net = Mlp::new(&[8, 16, 3], Activation::Tanh, &mut rng);
        let out = net.forward(&Matrix::row_vector(&obs));
        prop_assert!(out.as_slice().iter().all(|v| v.is_finite()));
        prop_assert_eq!(out.clone(), net.forward(&Matrix::row_vector(&obs)));
    }

    /// The dispatched `matmul` kernel matches the naive reference bitwise,
    /// under whichever kernel `DOSCO_SIMD` selects, over shapes that cross
    /// every block boundary (1×N, N×1, non-multiples of the 32/64/256
    /// blocks), wide enough
    /// (`n` to 200) to enter the widest tile of every row panel at 8 and
    /// 16 lanes and fall out of it through the narrower tiles into the
    /// masked tail.
    #[test]
    fn matmul_matches_reference_bitwise(
        m in rows_biased_to_tails(80), k in 1usize..=64, n in 1usize..=200, seed in 0u64..1000
    ) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let a = rand_matrix(m, k, &mut rng);
        let b = rand_matrix(k, n, &mut rng);
        prop_assert_eq!(bits(&a.matmul(&b)), bits(&a.matmul_ref(&b)));
    }

    /// Same contract for the fused `selfᵀ · other` kernel.
    #[test]
    fn transpose_matmul_matches_reference_bitwise(
        m in rows_biased_to_tails(64), k in 1usize..=80, n in 1usize..=200, seed in 0u64..1000
    ) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let a = rand_matrix(k, m, &mut rng); // self is k×m, output m×n
        let b = rand_matrix(k, n, &mut rng);
        prop_assert_eq!(bits(&a.transpose_matmul(&b)), bits(&a.transpose_matmul_ref(&b)));
    }

    /// Same contract for the fused `self · otherᵀ` kernel.
    #[test]
    fn matmul_transpose_matches_reference_bitwise(
        m in rows_biased_to_tails(80), k in 1usize..=64, n in 1usize..=200, seed in 0u64..1000
    ) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let a = rand_matrix(m, k, &mut rng);
        let b = rand_matrix(n, k, &mut rng); // other is n×k, output m×n
        prop_assert_eq!(bits(&a.matmul_transpose(&b)), bits(&a.matmul_transpose_ref(&b)));
    }

    /// The `*_into` variants overwrite stale output contents completely
    /// (a leaked stale NaN would fail the bitwise comparison).
    #[test]
    fn into_variants_overwrite_stale_output(seed in 0u64..500) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let a = rand_matrix(5, 7, &mut rng);
        let b = rand_matrix(7, 3, &mut rng);
        let mut out = Matrix::from_fn(5, 3, |_, _| f32::NAN);
        a.matmul_into(&b, &mut out);
        prop_assert_eq!(bits(&out), bits(&a.matmul_ref(&b)));
    }

    /// A B-row batch forward is *bitwise* identical to B single-row
    /// forwards — the serving fabric's correctness keystone: shards may
    /// batch queued decisions into one matrix call without changing any
    /// decision. Holds because the blocked GEMM computes each output
    /// element independently with a single ascending-k accumulator.
    #[test]
    fn batch_forward_bitwise_matches_single_rows(
        seed in 0u64..500,
        batch in 1usize..9,
        hidden in 1usize..100,
    ) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let net = Mlp::new(&[7, hidden, 5], Activation::Tanh, &mut rng);
        let x = rand_matrix(batch, 7, &mut rng);
        let batched = net.forward(&x);
        prop_assert_eq!(batched.rows(), batch);
        for r in 0..batch {
            let single = net.forward(&Matrix::row_vector(x.row(r)));
            let brow: Vec<u32> = batched.row(r).iter().map(|v| v.to_bits()).collect();
            let srow: Vec<u32> = single.row(0).iter().map(|v| v.to_bits()).collect();
            prop_assert_eq!(&brow, &srow, "row {} diverged", r);
        }
    }

    /// apply_update with the negated gradient and tiny step never
    /// increases a quadratic loss (descent direction property).
    #[test]
    fn gradient_is_descent_direction(obs in finite_vec(4), seed in 0u64..50) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut net = Mlp::new(&[4, 8, 2], Activation::Tanh, &mut rng);
        let x = Matrix::row_vector(&obs);
        let loss = |n: &Mlp| {
            let o = n.forward(&x);
            0.5 * o.dot(&o)
        };
        let before = loss(&net);
        prop_assume!(before > 1e-6);
        let cache = net.forward_cached(&x);
        let grads = net.backward(&cache, &cache.output);
        net.apply_update(&grads, -1e-4);
        let after = loss(&net);
        prop_assert!(after <= before + 1e-6, "{before} -> {after}");
    }
}

/// The two factor sizes of the paper's architecture (256 pre-activations,
/// 256 inputs plus the homogeneous coordinate), once each: full panels
/// and a one-column remainder, rank 64.
/// Greedy and drawn choice on `logits` through the slice rule
/// ([`log_softmax`] into [`greedy_action`] / [`sample_action`]) equal
/// `Categorical::argmax` and `Categorical::sample_row`: the same action,
/// and for draws the same RNG stream position afterwards, over 64 draws.
fn assert_slice_rule_matches_categorical(logits: &[f32], seed: u64) -> usize {
    let dist = Categorical::new(&Matrix::row_vector(logits));
    let greedy = greedy_action(log_softmax(logits));
    assert_eq!(greedy, dist.argmax()[0], "greedy on {logits:?}");
    let mut slice_rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut dist_rng = rand::rngs::StdRng::seed_from_u64(seed);
    for draw in 0..64 {
        assert_eq!(
            sample_action(log_softmax(logits), &mut slice_rng),
            dist.sample_row(0, &mut dist_rng),
            "draw {draw} on {logits:?}"
        );
    }
    assert_eq!(slice_rng.gen::<u64>(), dist_rng.gen::<u64>());
    greedy
}

/// Exact ties: the last maximum wins, under both rules.
#[test]
fn greedy_ties_go_to_the_last_maximum() {
    for (logits, want) in [
        (vec![0.0f32, 0.0, 0.0, 0.0], 3),
        (vec![1.5, -2.0, 1.5, 0.25], 2),
        (vec![0.7, 0.7, -0.1], 1),
        (vec![-3.0, 2.0, 2.0, 2.0, -1.0], 3),
    ] {
        assert_eq!(assert_slice_rule_matches_categorical(&logits, 5), want);
    }
}

/// Distinct logits whose log-probabilities round to the same `f32`: the
/// rule ranks log-probabilities, not logits, so the last of the rounded
/// maxima wins even where its logit is the smaller one.
#[test]
fn greedy_ranks_rounded_log_probs_not_logits() {
    let logits = [1e-8f32, 0.0, -5.0];
    assert!(logits[0] > logits[1]);
    let lp = log_softmax_row(&logits);
    assert_eq!(lp[0].to_bits(), lp[1].to_bits(), "{lp:?}");
    assert_eq!(assert_slice_rule_matches_categorical(&logits, 9), 1);
}

/// A draw the cumulative sum never exceeds (the largest `f32` below 1,
/// against probabilities that round to a sum below it) takes the last
/// action, under both rules.
#[test]
fn a_draw_past_the_rounded_sum_takes_the_last_action() {
    /// Every `gen::<f32>()` is `1 − 2⁻²⁴`.
    struct Top;
    impl rand::RngCore for Top {
        fn next_u32(&mut self) -> u32 {
            u32::MAX
        }
        fn next_u64(&mut self) -> u64 {
            u64::MAX
        }
        fn fill_bytes(&mut self, dest: &mut [u8]) {
            dest.fill(0xff);
        }
    }
    let logits = [0.0f32, 1.75, 0.25];
    let sum = log_softmax(&logits).fold(0.0f32, |acc, lp| acc + lp.exp());
    assert!(sum < Top.gen::<f32>(), "probabilities sum to {sum}");
    let dist = Categorical::new(&Matrix::row_vector(&logits));
    assert_eq!(sample_action(log_softmax(&logits), &mut Top), 2);
    assert_eq!(dist.sample_row(0, &mut Top), 2);
}

#[test]
fn damped_inverse_matches_reference_at_paper_scale() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(9);
    for n in [256, 257] {
        let m = second_moment(64, n, &mut rng);
        assert_eq!(
            bits(&damped_inverse(&m, 0.01).unwrap()),
            bits(&damped_inverse_ref(&m, 0.01).unwrap()),
            "n = {n}"
        );
    }
}

/// The serve contract on the paper's actor (16→256→256→4: full tiles of
/// every width at 8 and 16 lanes, and the 4-column head in the masked
/// tail), at batches that end in every row panel: row `r` of the batched
/// forward is the single-row forward, bit for bit, under every kernel, the
/// kernels agree bit for bit, and the dispatched forward is the scalar one.
#[test]
fn paper_shape_forward_is_batch_split_invariant_under_every_kernel() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(11);
    let net = Mlp::paper_arch(16, 4, &mut rng);
    // `Mlp::forward` dispatches on `DOSCO_SIMD`; forcing a kernel means
    // running the layers by hand on the forced-kernel entry points.
    let forward = |x: &Matrix, kernel: GemmKernel| {
        let mut h = x.clone();
        for (i, layer) in net.layers().iter().enumerate() {
            let mut z = Matrix::zeros(h.rows(), layer.outputs());
            h.matmul_into_with(layer.weights(), &mut z, kernel);
            z.add_row_broadcast(layer.bias());
            if i + 1 != net.layers().len() {
                dosco_nn::tanh_in_place(z.as_mut_slice());
            }
            h = z;
        }
        h
    };
    let kernels = available_kernels();
    for batch in [1usize, 2, 3, 5, 15, 16] {
        let x = rand_matrix(batch, 16, &mut rng);
        for &kernel in &kernels {
            let batched = forward(&x, kernel);
            for r in 0..batch {
                let single = forward(&Matrix::row_vector(x.row(r)), kernel);
                assert_eq!(
                    bits(&single),
                    batched
                        .row(r)
                        .iter()
                        .map(|v| v.to_bits())
                        .collect::<Vec<_>>(),
                    "{kernel:?}: row {r} of batch {batch}"
                );
            }
        }
        for &kernel in &kernels[1..] {
            assert_eq!(
                bits(&forward(&x, GemmKernel::Scalar)),
                bits(&forward(&x, kernel)),
                "scalar vs {kernel:?} at batch {batch}"
            );
        }
        assert_eq!(
            bits(&net.forward(&x)),
            bits(&forward(&x, GemmKernel::Scalar))
        );
    }
}

/// Shapes spanning several row blocks and `k` panels, plus degenerate and
/// off-block-boundary shapes, then the shapes around the former packed-panel rule.
#[test]
fn gemm_equivalence_at_paper_scale() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(42);
    for &(m, k, n) in &[
        (96usize, 64usize, 96usize), // three row blocks
        (256, 512, 256),             // large: many row blocks and k panels
        (64, 16, 256),               // the paper's input layer at batch 64
        (1, 500, 7),                 // single row
        (500, 1, 7),                 // inner dimension 1
        (33, 65, 257),               // one past every block size
    ] {
        let a = rand_matrix(m, k, &mut rng);
        let b = rand_matrix(k, n, &mut rng);
        assert_eq!(
            bits(&a.matmul(&b)),
            bits(&a.matmul_ref(&b)),
            "matmul {m}x{k}x{n}"
        );

        let at = rand_matrix(k, m, &mut rng);
        assert_eq!(
            bits(&at.transpose_matmul(&b)),
            bits(&at.transpose_matmul_ref(&b)),
            "transpose_matmul {m}x{k}x{n}"
        );

        let bt = rand_matrix(n, k, &mut rng);
        assert_eq!(
            bits(&a.matmul_transpose(&bt)),
            bits(&a.matmul_transpose_ref(&bt)),
            "matmul_transpose {m}x{k}x{n}"
        );
    }

    // Both sides of the former packed-panel rule (≥ 32 rows and `kk` ≥ 192)
    // on each axis, masked tails of 1–15 columns (9–15 occur at 16 lanes
    // only), and the K-FAC step's own products — for all three entry
    // points under every kernel, forced.
    let mut shapes = vec![
        (257usize, 257usize, 256usize), // A⁻¹ · ∇ at the paper's width
        (257, 256, 256),                // (A⁻¹∇) · G⁻¹
        (64, 256, 256),                 // the hidden layer at batch 64
        (257, 257, 4),                  // the actor head's A⁻¹ · ∇
        (257, 191, 1),
        (33, 65, 249), // 16 lanes, 1-row panel: 128 + 64 + 32 + 16 + a tail of 9
    ];
    for m in [31, 32, 33] {
        for k in [191, 192, 257] {
            for n in [1, 4, 9, 10, 11, 12, 13, 14, 15, 16, 17, 47] {
                shapes.push((m, k, n));
            }
        }
    }
    for (m, k, n) in shapes {
        let a = rand_matrix(m, k, &mut rng);
        let b = rand_matrix(k, n, &mut rng);
        let at = rand_matrix(k, m, &mut rng);
        let bt = rand_matrix(n, k, &mut rng);
        let references = [
            bits(&a.matmul_ref(&b)),
            bits(&at.transpose_matmul_ref(&b)),
            bits(&a.matmul_transpose_ref(&bt)),
        ];
        for kernel in available_kernels() {
            let mut out = Matrix::from_fn(m, n, |_, _| f32::NAN);
            a.matmul_into_with(&b, &mut out, kernel);
            assert_eq!(bits(&out), references[0], "{kernel:?} matmul {m}x{k}x{n}");
            at.transpose_matmul_into_with(&b, &mut out, kernel);
            assert_eq!(
                bits(&out),
                references[1],
                "{kernel:?} transpose_matmul {m}x{k}x{n}"
            );
            a.matmul_transpose_into_with(&bt, &mut out, kernel);
            assert_eq!(
                bits(&out),
                references[2],
                "{kernel:?} matmul_transpose {m}x{k}x{n}"
            );
        }
    }
}

/// The zero fast path the naive kernels used to take silently dropped
/// non-finite operands (`0 · ∞` and `0 · NaN` are NaN, not 0); the
/// blocked kernels and the references must propagate them.
#[test]
fn gemm_propagates_nan_and_inf_through_zero_rows() {
    let a = Matrix::from_rows(&[&[0.0, 1.0]]);
    let b = Matrix::from_rows(&[&[f32::NAN, f32::INFINITY], &[1.0, 2.0]]);
    let c = a.matmul(&b);
    assert!(c.get(0, 0).is_nan(), "0·NaN + 1·1 must be NaN");
    assert!(c.get(0, 1).is_nan(), "0·∞ + 1·2 must be NaN");
    assert_eq!(bits(&c), bits(&a.matmul_ref(&b)));

    let at = Matrix::from_rows(&[&[0.0], &[1.0]]); // (Aᵀ = [0, 1])
    let c = at.transpose_matmul(&b);
    assert!(c.get(0, 0).is_nan());
    assert_eq!(bits(&c), bits(&at.transpose_matmul_ref(&b)));

    let bt = Matrix::from_rows(&[&[f32::NAN, 1.0], &[f32::INFINITY, 2.0]]);
    let c = a.matmul_transpose(&bt);
    assert!(c.get(0, 0).is_nan(), "0·NaN + 1·1 must be NaN");
    assert_eq!(bits(&c), bits(&a.matmul_transpose_ref(&bt)));
}

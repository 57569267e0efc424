//! Bit-level pins of the arrival sequences of the paper's four patterns.
//!
//! Each case plays one paper pattern from a fixed seed over at least 10⁴
//! arrivals and hashes the bits of every returned time. The scripts cover
//! the paths a simulator never exercises all at once: the fixed grid after
//! jumps backwards and forwards in time (mid-grid and onto exact grid
//! points), MMPP catching up over silent stretches many switch periods
//! long, and trace playback wrapping around its cycle. The hashes pin the
//! exact RNG draw order and the float arithmetic of every pattern; a
//! change that moves one changes what every scenario generates.

use dosco_traffic::ArrivalPattern;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The one place this file touches the arrival API: a closure returning
/// the next arrival strictly after `now`, with the playback state held
/// inside it.
fn arrivals(pattern: &ArrivalPattern) -> impl FnMut(f64, &mut StdRng) -> f64 + '_ {
    let mut cursor = pattern.cursor();
    move |now, rng| pattern.next_arrival(&mut cursor, now, rng)
}

/// FNV-1a over the little-endian bits of every arrival time.
fn fnv(hash: u64, t: f64) -> u64 {
    t.to_bits().to_le_bytes().iter().fold(hash, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Plays `pattern` from `seed` through `script`: each `(start, n)` entry
/// restarts the clock at `start` (a jump in time) and then takes `n`
/// sequential arrivals. Returns the hash and the number of arrivals.
fn play(pattern: &ArrivalPattern, seed: u64, script: &[(f64, usize)]) -> (String, usize) {
    let mut next = arrivals(pattern);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut count = 0;
    for &(start, n) in script {
        let mut t = start;
        for _ in 0..n {
            let after = next(t, &mut rng);
            assert!(
                after > t && after.is_finite(),
                "{}: {after} after {t}",
                pattern.name()
            );
            t = after;
            hash = fnv(hash, t);
            count += 1;
        }
    }
    (format!("{hash:016x}"), count)
}

#[test]
fn fixed_sequence_with_jumps_matches_golden() {
    // Interval 10: 6 000 arrivals end at 60 000. Then backwards mid-grid,
    // backwards onto a grid point, forwards mid-grid, forwards onto a grid
    // point, each followed by sequential playback.
    let script = [
        (0.0, 6_000),
        (12_345.6, 2_000),
        (500.0, 1_000),
        (1_000_005.0, 2_000),
        (5_000_000.0, 1_000),
    ];
    let (hash, n) = play(&ArrivalPattern::paper_fixed(), 1, &script);
    assert_eq!(n, 12_000);
    assert_eq!(hash, "291a5593033c1671");
}

#[test]
fn poisson_sequence_matches_golden() {
    let (hash, n) = play(
        &ArrivalPattern::paper_poisson(),
        2,
        &[(0.0, 10_000), (1e6, 2_000)],
    );
    assert_eq!(n, 12_000);
    assert_eq!(hash, "e3234148b064d8c7");
}

#[test]
fn mmpp_sequence_with_silent_stretches_matches_golden() {
    // Switch period 100 and mean inter-arrival ≈ 10: the first segment
    // ends near t = 80 000 and the second near 180 000, so the second and
    // third start hundreds of switch periods later and the process
    // catches up on every switch check it missed before drawing.
    let (hash, n) = play(
        &ArrivalPattern::paper_mmpp(),
        3,
        &[(0.0, 8_000), (150_000.0, 3_000), (400_037.5, 1_000)],
    );
    assert_eq!(n, 12_000);
    assert_eq!(hash, "98837fa8625499a1");
}

#[test]
fn trace_sequence_matches_golden() {
    // Mean rate ≈ 0.1 over a 20 000-unit cycle: 10 000 arrivals wrap the
    // bundled trace about five times; the jump lands mid-bin far ahead.
    let (hash, n) = play(
        &ArrivalPattern::paper_trace(),
        4,
        &[(0.0, 10_000), (987_654.3, 2_000)],
    );
    assert_eq!(n, 12_000);
    assert_eq!(hash, "8302dfbceace4b96");
}

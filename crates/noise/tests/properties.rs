//! Property-based tests of the sparse sampler and RNG invariants.

use btwc_noise::{SimRng, SparseFlips};
use proptest::prelude::*;

/// The sampler by inversion alone: `ln(1 − p)` on every call and one `ln`
/// per draw, with no no-flip screen. `SparseFlips` must match it draw for
/// draw (for p > 2⁻⁵⁴; below that inversion divides by ln 1 = 0).
fn reference_flips(rng: &mut SimRng, n: usize, p: f64) -> Vec<usize> {
    if p <= 0.0 {
        return Vec::new();
    }
    if p >= 1.0 {
        return (0..n).collect();
    }
    let log_q = (1.0 - p).ln();
    let mut flips = Vec::new();
    let mut start = 0;
    loop {
        let u = rng.uniform().max(f64::MIN_POSITIVE);
        let gap = (u.ln() / log_q).floor();
        if gap >= (n - start) as f64 {
            return flips;
        }
        flips.push(start + gap as usize);
        start += gap as usize + 1;
    }
}

/// Runs both samplers from equal generators; panics unless they return the
/// same indices and leave the generators in the same state.
fn assert_same_stream(a: &mut SimRng, b: &mut SimRng, n: usize, p: f64) {
    let got: Vec<usize> = SparseFlips::new(a, n, p).collect();
    assert_eq!(got, reference_flips(b, n, p), "n = {n}, p = {p:e}");
    assert_eq!(a.clone().next_u64(), b.clone().next_u64(), "n = {n}, p = {p:e}: draws differ");
}

#[test]
fn fixed_cases_match_inversion() {
    let cases =
        [(0, 0.0), (0, 0.3), (0, 1.0), (50, 0.0), (50, 1.0), (1, 0.5), (40, 0.05), (300, 0.9)];
    for (n, p) in cases {
        for seed in 0..64 {
            let (mut a, mut b) = (SimRng::from_seed(seed), SimRng::from_seed(seed));
            assert_same_stream(&mut a, &mut b, n, p);
        }
    }
}

/// More than a million calls over a p × n grid that spans the screen's
/// firing and non-firing sides, each checked for indices and generator
/// state. Too slow unoptimized, so it runs with `--release`.
#[test]
#[cfg_attr(debug_assertions, ignore)]
fn release_sweep_matches_inversion() {
    let ps = (0..18).map(|k| 1e-6 * 5e5f64.powf(f64::from(k) / 17.0)); // 1e-6 … 0.5
    let ns = [1, 2, 3, 5, 9, 17, 25, 49, 60, 81, 121, 169, 264, 500, 1000, 1500, 2500, 4096];
    let mut calls = 0usize;
    for (i, p) in ps.enumerate() {
        for (j, &n) in ns.iter().enumerate() {
            let seed = (i * ns.len() + j) as u64;
            let (mut a, mut b) = (SimRng::from_seed(seed), SimRng::from_seed(seed));
            for _ in 0..3200 {
                assert_same_stream(&mut a, &mut b, n, p);
                calls += 1;
            }
        }
    }
    assert!(calls >= 1_000_000, "{calls} calls");
}

proptest! {
    /// Flip indices are strictly increasing and in range for any (n, p).
    #[test]
    fn flips_are_sorted_unique_in_range(
        n in 0usize..300,
        p in 0.0f64..=1.0,
        seed in any::<u64>(),
    ) {
        let mut rng = SimRng::from_seed(seed);
        let flips: Vec<usize> = SparseFlips::new(&mut rng, n, p).collect();
        for w in flips.windows(2) {
            prop_assert!(w[0] < w[1]);
        }
        for &i in &flips {
            prop_assert!(i < n);
        }
        if p >= 1.0 {
            prop_assert_eq!(flips.len(), n);
        }
    }

    /// The screened sampler reproduces inversion alone: the same indices
    /// and the same generator state afterwards, with small `p` as likely
    /// as large.
    #[test]
    fn flips_match_inversion(
        n in 0usize..300,
        frac in 0.0f64..=1.0,
        decades in 0i32..7,
        seed in any::<u64>(),
    ) {
        let p = frac * 10f64.powi(-decades);
        let (mut a, mut b) = (SimRng::from_seed(seed), SimRng::from_seed(seed));
        assert_same_stream(&mut a, &mut b, n, p);
    }

    /// Forked streams are reproducible functions of (seed, stream).
    #[test]
    fn forks_are_reproducible(seed in any::<u64>(), stream in any::<u64>()) {
        let root = SimRng::from_seed(seed);
        let mut a = root.fork(stream);
        let mut b = root.fork(stream);
        for _ in 0..16 {
            prop_assert_eq!(a.next_u64(), b.next_u64());
        }
    }
}

//! Geometric-skip sparse Bernoulli sampling.
//!
//! Drawing `n` independent Bernoulli(p) bits costs `n` RNG calls. When
//! `p` is small (the paper's regime: 5e-4 … 5e-3 over ~1e2–1e3 sites),
//! it is much cheaper to jump directly between successes: the gap between
//! consecutive flipped sites is geometrically distributed, and one
//! uniform draw yields one gap via inversion. This sampler is what makes
//! the paper's "billion random cycles" benchmarking style feasible in a
//! test suite.
//!
//! # What a call costs
//!
//! One uniform draw per flipped site, plus one. The first draw `u` is
//! screened before any logarithm: if `u < 1 − n·p` (less a guard band),
//! Bernoulli's inequality `(1 − p)ⁿ ≥ 1 − n·p` puts the first gap at or
//! past `n`, and the call ends there — one draw, no `ln`. That is the
//! common case: at d = 11, p = 1e-3 the 121 data qubits flip nothing with
//! probability 0.886. Otherwise `ln(1 − p)` is computed once and every
//! gap, the first from the same `u`, is placed by inversion,
//! `floor(ln u / ln(1 − p))`. The screen only skips work: the same draws
//! are consumed and the same indices come out as from inversion alone.

use crate::rng::SimRng;

/// Relative margin under the no-flip bound `1 − n·p` that absorbs its
/// rounding, so the screen never skips a flip inversion would place.
const GUARD_BAND: f64 = 1.0 - 1e-9;

/// Iterator over the indices in `[0, n)` that a Bernoulli(p) process
/// flips, produced with O(#flips) RNG draws.
#[derive(Debug)]
pub struct SparseFlips<'a> {
    rng: &'a mut SimRng,
    n: usize,
    next: usize,
    /// ln(1 − p); read only while flips remain to be placed.
    log_q: f64,
    /// p == 1 fast path.
    always: bool,
}

// The sampler's calls and `SimRng`'s one-line draws are `#[inline]`:
// they are non-generic, their hot callers (the simulator loops, the
// figure bins, the end-to-end benchmark) live in other crates, and no
// build profile enables LTO, so without the attribute every call would
// stay out of line.
impl<'a> SparseFlips<'a> {
    /// Creates a sparse sampler over `n` sites with flip probability `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `[0, 1]`.
    #[must_use]
    #[inline]
    pub fn new(rng: &'a mut SimRng, n: usize, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "probability {p} out of [0,1]");
        let q = 1.0 - p;
        if q <= 0.0 {
            return Self { rng, n, next: 0, log_q: 0.0, always: true };
        }
        let mut s = Self { rng, n, next: n, log_q: 0.0, always: false };
        // `q == 1` is p == 0, or p ≤ 2⁻⁵⁴, where 1 − p rounds to 1 and
        // ln(1 − p) would be 0: nothing flips and nothing is drawn.
        if q < 1.0 {
            let u = s.draw();
            if !surely_no_flip(u, n, p) {
                s.log_q = q.ln();
                s.place(0, u);
            }
        }
        s
    }

    /// One uniform in `(0, 1)`, kept off 0 so its `ln` is finite.
    #[inline]
    fn draw(&mut self) -> f64 {
        self.rng.uniform().max(f64::MIN_POSITIVE)
    }

    /// Positions `self.next` at the first flip `>= start`, inverting `u`
    /// into a geometric gap `floor(ln u / ln(1 − p))`.
    #[inline]
    fn place(&mut self, start: usize, u: f64) {
        let gap = (u.ln() / self.log_q).floor();
        // Saturate gracefully for enormous gaps.
        self.next = if gap >= (self.n - start) as f64 { self.n } else { start + gap as usize };
    }
}

/// Whether the first draw `u` already puts the first flip at or past `n`,
/// decided without a logarithm. `true` implies the inversion gap is
/// `>= n`; `false` decides nothing.
///
/// The rate is `1 − (1 − p)`, the one the inversion really uses: `ln`
/// sees `1 − p` after rounding, and subtracting that from 1 is exact
/// (Sterbenz), so Bernoulli's inequality holds for it at every `n`.
#[inline]
fn surely_no_flip(u: f64, n: usize, p: f64) -> bool {
    let p_used = 1.0 - (1.0 - p);
    u < (1.0 - n as f64 * p_used) * GUARD_BAND
}

impl Iterator for SparseFlips<'_> {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        if self.next >= self.n {
            return None;
        }
        let i = self.next;
        if self.always {
            self.next += 1;
        } else {
            let u = self.draw();
            self.place(i + 1, u);
        }
        Some(i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p_zero_yields_nothing() {
        // p ≤ 2⁻⁵⁴ rounds 1 − p to 1 and behaves as p == 0: no flips and
        // no draw (inversion alone would divide by ln 1 = 0 and flip
        // every site).
        for p in [0.0, 1e-300, 1e-17, 2f64.powi(-54)] {
            let mut rng = SimRng::from_seed(1);
            assert_eq!(SparseFlips::new(&mut rng, 1000, p).count(), 0, "p = {p:e}");
            assert_eq!(rng.next_u64(), SimRng::from_seed(1).next_u64(), "p = {p:e} drew");
        }
    }

    #[test]
    fn no_flip_screen_never_skips_a_flip() {
        // Wherever the screen answers "no flip", inversion of the same
        // `u` must give a gap >= n; checked at ±8 ulps around the bound.
        let ps = [
            1e-15, 1e-12, 1e-9, 1e-6, 1e-5, 1e-4, 5e-4, 1e-3, 2e-3, 5e-3, 1e-2, 0.05, 0.1, 0.25,
            0.5,
        ];
        let ns = (1..=4096).chain([10_000, 1 << 20, 1 << 30, 1 << 40]);
        let mut fired = 0usize;
        for n in ns {
            for p in ps {
                let bound = (1.0 - n as f64 * (1.0 - (1.0 - p))) * GUARD_BAND;
                if bound <= 0.0 {
                    continue;
                }
                let log_q = (1.0 - p).ln();
                for k in -8i64..=8 {
                    let u = f64::from_bits(bound.to_bits().wrapping_add_signed(k));
                    if !(f64::MIN_POSITIVE..1.0).contains(&u) || !surely_no_flip(u, n, p) {
                        continue;
                    }
                    fired += 1;
                    let gap = (u.ln() / log_q).floor();
                    assert!(gap >= n as f64, "n = {n}, p = {p:e}, u = {u:e}: gap {gap}");
                }
            }
        }
        assert!(fired > 100_000, "the screen fired only {fired} times");
    }

    #[test]
    fn p_one_yields_everything() {
        let mut rng = SimRng::from_seed(1);
        let flips: Vec<usize> = SparseFlips::new(&mut rng, 10, 1.0).collect();
        assert_eq!(flips, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn indices_are_strictly_increasing_and_in_range() {
        let mut rng = SimRng::from_seed(5);
        for _ in 0..100 {
            let flips: Vec<usize> = SparseFlips::new(&mut rng, 500, 0.05).collect();
            for w in flips.windows(2) {
                assert!(w[0] < w[1]);
            }
            for &i in &flips {
                assert!(i < 500);
            }
        }
    }

    #[test]
    fn mean_flip_count_matches_np() {
        let mut rng = SimRng::from_seed(8);
        let (n, p, trials) = (200usize, 0.01f64, 20_000usize);
        let total: usize = (0..trials).map(|_| SparseFlips::new(&mut rng, n, p).count()).sum();
        let mean = total as f64 / trials as f64;
        let expect = n as f64 * p;
        assert!((mean - expect).abs() < 0.1 * expect, "mean {mean}, expected {expect}");
    }

    #[test]
    fn per_site_marginal_is_uniform() {
        // Each site must be flipped with (approximately) equal frequency —
        // a common bug in skip samplers is biasing early indices.
        let mut rng = SimRng::from_seed(13);
        let (n, p, trials) = (50usize, 0.04f64, 50_000usize);
        let mut hits = vec![0usize; n];
        for _ in 0..trials {
            for i in SparseFlips::new(&mut rng, n, p) {
                hits[i] += 1;
            }
        }
        let expect = trials as f64 * p;
        for (i, &h) in hits.iter().enumerate() {
            assert!(
                (h as f64 - expect).abs() < 0.25 * expect,
                "site {i}: {h} hits vs expected {expect}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "out of [0,1]")]
    fn rejects_bad_probability() {
        let mut rng = SimRng::from_seed(0);
        let _ = SparseFlips::new(&mut rng, 10, -0.1);
    }
}

//! Deterministic, forkable simulation RNG.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// The workspace-wide simulation RNG.
///
/// A thin wrapper over a fast non-cryptographic generator with two extra
/// guarantees the Monte Carlo engine relies on:
///
/// * **determinism** — the same seed always reproduces the same error
///   history, so every figure in EXPERIMENTS.md is regenerable bit-for-bit;
/// * **forkability** — [`SimRng::fork`] derives an independent stream for
///   each worker thread / logical qubit from a `(seed, stream)` pair via a
///   SplitMix64 mix, so parallel simulations do not share state.
#[derive(Debug, Clone)]
pub struct SimRng {
    inner: SmallRng,
    seed: u64,
}

impl SimRng {
    /// Creates an RNG from a 64-bit seed.
    #[must_use]
    pub fn from_seed(seed: u64) -> Self {
        Self { inner: SmallRng::seed_from_u64(splitmix64(seed)), seed }
    }

    /// Derives an independent stream for worker/qubit `stream`.
    ///
    /// Forks of the same `(seed, stream)` pair are identical; forks with
    /// different streams are statistically independent.
    #[must_use]
    pub fn fork(&self, stream: u64) -> Self {
        let mixed = splitmix64(self.seed ^ splitmix64(stream.wrapping_add(0x9E37_79B9_7F4A_7C15)));
        Self { inner: SmallRng::seed_from_u64(mixed), seed: mixed }
    }

    /// The seed this generator was created with (after mixing).
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Uniform `f64` in `[0, 1)`.
    #[must_use]
    #[inline]
    pub fn uniform(&mut self) -> f64 {
        self.inner.random::<f64>()
    }

    /// Bernoulli draw with probability `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `[0, 1]`.
    #[must_use]
    #[inline]
    pub fn bernoulli(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "probability {p} out of [0,1]");
        self.inner.random_bool(p)
    }

    /// Uniform integer in `[0, n)`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    #[must_use]
    #[inline]
    pub fn below(&mut self, n: usize) -> usize {
        assert!(n > 0, "below(0) is meaningless");
        self.inner.random_range(0..n)
    }

    /// Raw 64 random bits.
    #[must_use]
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.inner.random::<u64>()
    }
}

/// SplitMix64 finalizer — a high-quality 64-bit mixing function.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_reproduces_stream() {
        let mut a = SimRng::from_seed(42);
        let mut b = SimRng::from_seed(42);
        for _ in 0..64 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SimRng::from_seed(1);
        let mut b = SimRng::from_seed(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn forks_are_deterministic_and_independent() {
        let root = SimRng::from_seed(7);
        let mut f1 = root.fork(0);
        let mut f1_again = root.fork(0);
        let mut f2 = root.fork(1);
        assert_eq!(f1.next_u64(), f1_again.next_u64());
        let mut c1 = root.fork(0);
        let same = (0..64).filter(|_| c1.next_u64() == f2.next_u64()).count();
        assert_eq!(same, 0, "distinct streams should not collide");
    }

    #[test]
    fn bernoulli_mean_is_close() {
        let mut rng = SimRng::from_seed(3);
        let n = 200_000;
        let hits = (0..n).filter(|_| rng.bernoulli(0.25)).count();
        let mean = hits as f64 / n as f64;
        assert!((mean - 0.25).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn uniform_in_unit_interval() {
        let mut rng = SimRng::from_seed(9);
        for _ in 0..1000 {
            let u = rng.uniform();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn below_stays_in_range() {
        let mut rng = SimRng::from_seed(11);
        for _ in 0..1000 {
            assert!(rng.below(17) < 17);
        }
    }

    #[test]
    #[should_panic(expected = "out of [0,1]")]
    fn bernoulli_rejects_bad_probability() {
        let mut rng = SimRng::from_seed(0);
        let _ = rng.bernoulli(1.5);
    }
}

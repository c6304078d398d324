//! The paper's phenomenological noise model.

use crate::rng::SimRng;
use crate::sparse::SparseFlips;

/// The paper's phenomenological noise model (Sec. 6.1): independent
/// data-qubit errors and measurement flips, by default at the same
/// rate `p` per cycle.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhenomenologicalNoise {
    p_data: f64,
    p_meas: f64,
}

impl PhenomenologicalNoise {
    /// The paper's single-parameter model: data and measurement errors
    /// both at probability `p` per cycle.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `[0, 1]`.
    #[must_use]
    pub fn uniform(p: f64) -> Self {
        Self::new(p, p)
    }

    /// Independent data and measurement error rates (for ablations;
    /// `p_meas = 0` is the code-capacity model, perfect measurements).
    ///
    /// # Panics
    ///
    /// Panics if either rate is not in `[0, 1]`.
    #[must_use]
    pub fn new(p_data: f64, p_meas: f64) -> Self {
        assert!((0.0..=1.0).contains(&p_data), "p_data {p_data} out of [0,1]");
        assert!((0.0..=1.0).contains(&p_meas), "p_meas {p_meas} out of [0,1]");
        Self { p_data, p_meas }
    }

    /// XORs one cycle of fresh data errors into `data`, so accumulated
    /// errors persist until a decoder corrects them.
    pub fn sample_data_into(&self, rng: &mut SimRng, data: &mut [bool]) {
        for i in SparseFlips::new(rng, data.len(), self.p_data) {
            data[i] ^= true;
        }
    }

    /// Overwrites `meas` with this cycle's measurement flips, which are
    /// transient.
    pub fn sample_measurement_into(&self, rng: &mut SimRng, meas: &mut [bool]) {
        meas.fill(false);
        for i in SparseFlips::new(rng, meas.len(), self.p_meas) {
            meas[i] = true;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_sets_both_rates() {
        assert_eq!(PhenomenologicalNoise::uniform(1e-3), PhenomenologicalNoise::new(1e-3, 1e-3));
    }

    #[test]
    fn data_errors_accumulate_with_xor() {
        let noise = PhenomenologicalNoise::uniform(0.5);
        let mut rng = SimRng::from_seed(21);
        let mut data = vec![false; 64];
        // After many cycles of XOR at p=0.5 roughly half the bits are set.
        for _ in 0..100 {
            noise.sample_data_into(&mut rng, &mut data);
        }
        let set = data.iter().filter(|&&b| b).count();
        assert!(set > 10 && set < 54, "{set} bits set");
    }

    #[test]
    fn measurement_flips_do_not_accumulate() {
        // p_meas = 0 is the code-capacity case: perfect measurements.
        for (p_meas, max_set) in [(0.1, 24), (0.0, 0)] {
            let noise = PhenomenologicalNoise::new(0.1, p_meas);
            let mut rng = SimRng::from_seed(22);
            let mut meas = vec![true; 64]; // stale values must be cleared
            noise.sample_measurement_into(&mut rng, &mut meas);
            let set = meas.iter().filter(|&&b| b).count();
            assert!(set <= max_set, "p_meas={p_meas}: overwrite semantics, got {set} set bits");
        }
    }

    #[test]
    fn empirical_rate_matches_parameter() {
        let noise = PhenomenologicalNoise::uniform(0.02);
        let mut rng = SimRng::from_seed(23);
        let mut total = 0usize;
        let trials = 10_000;
        let mut buf = vec![false; 100];
        for _ in 0..trials {
            buf.fill(false);
            noise.sample_data_into(&mut rng, &mut buf);
            total += buf.iter().filter(|&&b| b).count();
        }
        let rate = total as f64 / (trials * 100) as f64;
        assert!((rate - 0.02).abs() < 0.002, "rate {rate}");
    }

    #[test]
    #[should_panic(expected = "out of [0,1]")]
    fn rejects_invalid_rate() {
        let _ = PhenomenologicalNoise::uniform(2.0);
    }
}

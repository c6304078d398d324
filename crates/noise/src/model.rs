//! Noise models: phenomenological (paper default) and code-capacity.

use crate::rng::SimRng;
use crate::sparse::SparseFlips;

/// A per-cycle error process over data qubits and syndrome measurements.
///
/// Implementations flip bits *into* caller-provided buffers (XOR
/// semantics), so accumulated data errors persist across cycles until a
/// decoder corrects them, while measurement flips are transient.
///
/// This trait is sealed in spirit — downstream code normally uses
/// [`PhenomenologicalNoise`] — but is left open so experiments can plug
/// in custom error processes (e.g. correlated or biased noise).
pub trait NoiseModel {
    /// Probability of a data-qubit error per cycle.
    fn data_error_rate(&self) -> f64;

    /// Probability of a measurement flip per cycle.
    fn measurement_error_rate(&self) -> f64;

    /// XORs one cycle of fresh data errors into `data`.
    fn sample_data_into(&self, rng: &mut SimRng, data: &mut [bool]);

    /// Overwrites `meas` with this cycle's measurement flips.
    fn sample_measurement_into(&self, rng: &mut SimRng, meas: &mut [bool]);
}

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

    /// Independent data and measurement error rates (for ablations).
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
}

impl NoiseModel for PhenomenologicalNoise {
    fn data_error_rate(&self) -> f64 {
        self.p_data
    }

    fn measurement_error_rate(&self) -> f64 {
        self.p_meas
    }

    fn sample_data_into(&self, rng: &mut SimRng, data: &mut [bool]) {
        for i in SparseFlips::new(rng, data.len(), self.p_data) {
            data[i] ^= true;
        }
    }

    fn sample_measurement_into(&self, rng: &mut SimRng, meas: &mut [bool]) {
        meas.fill(false);
        for i in SparseFlips::new(rng, meas.len(), self.p_meas) {
            meas[i] = true;
        }
    }
}

/// Code-capacity noise: data errors only, perfect measurements.
///
/// Useful as an ablation to isolate how much of Clique's complex-decode
/// traffic is caused by measurement errors versus data-error chains.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CodeCapacityNoise {
    inner: PhenomenologicalNoise,
}

impl CodeCapacityNoise {
    /// Data errors at rate `p`, measurements perfect.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `[0, 1]`.
    #[must_use]
    pub fn new(p: f64) -> Self {
        Self { inner: PhenomenologicalNoise::new(p, 0.0) }
    }
}

impl NoiseModel for CodeCapacityNoise {
    fn data_error_rate(&self) -> f64 {
        self.inner.data_error_rate()
    }

    fn measurement_error_rate(&self) -> f64 {
        0.0
    }

    fn sample_data_into(&self, rng: &mut SimRng, data: &mut [bool]) {
        self.inner.sample_data_into(rng, data);
    }

    fn sample_measurement_into(&self, rng: &mut SimRng, meas: &mut [bool]) {
        self.inner.sample_measurement_into(rng, meas);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_sets_both_rates() {
        let n = PhenomenologicalNoise::uniform(1e-3);
        assert_eq!(n.data_error_rate(), 1e-3);
        assert_eq!(n.measurement_error_rate(), 1e-3);
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
        let noise = PhenomenologicalNoise::uniform(0.1);
        let mut rng = SimRng::from_seed(22);
        let mut meas = vec![true; 64]; // stale values must be cleared
        noise.sample_measurement_into(&mut rng, &mut meas);
        let set = meas.iter().filter(|&&b| b).count();
        assert!(set < 25, "overwrite semantics: got {set} set bits");
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
    fn code_capacity_has_no_measurement_errors() {
        let noise = CodeCapacityNoise::new(0.5);
        let mut rng = SimRng::from_seed(24);
        let mut meas = vec![true; 32];
        noise.sample_measurement_into(&mut rng, &mut meas);
        assert!(meas.iter().all(|&b| !b));
        assert_eq!(noise.measurement_error_rate(), 0.0);
        assert_eq!(noise.data_error_rate(), 0.5);
    }

    #[test]
    #[should_panic(expected = "out of [0,1]")]
    fn rejects_invalid_rate() {
        let _ = PhenomenologicalNoise::uniform(2.0);
    }
}

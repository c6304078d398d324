//! Per-qubit off-chip demand (input to Figs. 9 and 16); the per-cycle
//! multi-qubit trace itself is [`crate::machine_offchip_trace`].

use crate::lifetime::{LifetimeConfig, LifetimeSim};

/// Estimates the per-qubit, per-cycle off-chip decode probability
/// `q = 1 − coverage` by lifetime simulation — the quantity the
/// statistical bandwidth allocator provisions against (Sec. 5.1).
#[must_use]
pub fn offchip_probability(cfg: &LifetimeConfig) -> f64 {
    LifetimeSim::new(cfg).run().offchip_fraction()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::machine_offchip_trace;

    #[test]
    fn probability_in_unit_interval_and_scales_with_p() {
        let lo = offchip_probability(&LifetimeConfig::new(5, 5e-4).with_cycles(20_000));
        let hi = offchip_probability(&LifetimeConfig::new(5, 8e-3).with_cycles(20_000));
        assert!((0.0..=1.0).contains(&lo));
        assert!((0.0..=1.0).contains(&hi));
        assert!(hi > lo, "more noise, more off-chip: {lo} vs {hi}");
    }

    #[test]
    fn trace_mean_matches_single_qubit_probability() {
        let cfg = LifetimeConfig::new(3, 5e-3).with_cycles(4_000).with_seed(77);
        let q = offchip_probability(&cfg);
        let qubits = 40;
        // A wide-open link: demand measurement, not stalling.
        let trace = machine_offchip_trace(&cfg, qubits, qubits).1;
        assert_eq!(trace.len(), 4_000);
        let mean = trace.iter().sum::<usize>() as f64 / trace.len() as f64;
        let expected = q * qubits as f64;
        assert!(
            (mean - expected).abs() < 0.35 * expected.max(1.0),
            "trace mean {mean} vs expected {expected}"
        );
    }
}

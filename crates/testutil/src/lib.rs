//! Shared randomized-workload generators for the differential test
//! suites.
//!
//! Every suite that compares two implementations on "realistic noisy
//! windows" — `crates/sparse/tests/sparse_vs_dense.rs`,
//! `crates/core/tests/machine_equivalence.rs`,
//! `tests/transport_pipeline.rs` — draws its randomness through the
//! helpers here, so all differential coverage comes from one
//! distribution: accumulating data errors with independent per-round
//! measurement flips (the phenomenological model the paper's Monte
//! Carlo uses), closed by a perfect readout round where a suite decodes
//! whole windows.
//!
//! The crate is a dev-dependency only; nothing here ships in the
//! decoders.

use btwc_lattice::{StabilizerType, SurfaceCode};
use btwc_noise::{PhenomenologicalNoise, SimRng};
use btwc_syndrome::RoundHistory;

/// Samples one noisy measurement round: accumulates fresh data errors
/// into `errors`, samples transient measurement flips into `meas`, and
/// returns the observed (noisy) syndrome round.
///
/// The RNG call order (data first, then measurement) is part of the
/// contract: suites pin bit-identical traces across refactors, so the
/// stream consumed per round must never change shape.
pub fn noisy_round(
    code: &SurfaceCode,
    ty: StabilizerType,
    noise: &PhenomenologicalNoise,
    rng: &mut SimRng,
    errors: &mut [bool],
    meas: &mut [bool],
) -> Vec<bool> {
    noise.sample_data_into(rng, errors);
    noise.sample_measurement_into(rng, meas);
    let mut round = code.syndrome_of(ty, errors);
    for (r, &m) in round.iter_mut().zip(meas.iter()) {
        *r ^= m;
    }
    round
}

/// One noisy shot window: `rounds` rounds of accumulating data errors
/// with independent measurement flips, closed by a perfect readout
/// round. Returns the window and the final error state.
pub fn noisy_window(
    code: &SurfaceCode,
    ty: StabilizerType,
    p: f64,
    rounds: usize,
    rng: &mut SimRng,
) -> (RoundHistory, Vec<bool>) {
    let noise = PhenomenologicalNoise::uniform(p);
    let n_anc = code.num_ancillas(ty);
    let mut errors = vec![false; code.num_data_qubits()];
    let mut meas = vec![false; n_anc];
    let mut window = RoundHistory::new(n_anc, rounds + 1);
    for _ in 0..rounds {
        let round = noisy_round(code, ty, &noise, rng, &mut errors, &mut meas);
        window.push(&round);
    }
    window.push(&code.syndrome_of(ty, &errors));
    (window, errors)
}

/// Compact single-line dump of a window's detection events — the
/// reproduction payload fuzz suites print on failure, alongside the
/// seed that regenerates the window.
#[must_use]
pub fn dump_events(window: &RoundHistory) -> String {
    let events = window.detection_events();
    let mut out = String::with_capacity(16 + 12 * events.len());
    out.push_str(&format!("{} events [", events.len()));
    for (i, e) in events.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&format!("a{}r{}", e.ancilla, e.round));
    }
    out.push(']');
    out
}

/// Total window budget for a fuzz sweep: the suite's default, scaled by
/// the `BTWC_FUZZ_WINDOWS` environment variable when set (the CI
/// slow-fuzz job raises it; a plain `cargo test` keeps the default).
/// The value is the *total* across the sweep's `(p, d)` grid; each grid
/// entry scales proportionally, with at least one window per entry.
#[must_use]
pub fn fuzz_window_budget(default_total: u64) -> u64 {
    std::env::var("BTWC_FUZZ_WINDOWS")
        .ok()
        .and_then(|s| s.parse::<u64>().ok())
        .unwrap_or(default_total)
        .max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_has_expected_shape_and_is_seed_deterministic() {
        let code = SurfaceCode::new(5);
        let ty = StabilizerType::X;
        let (w1, e1) = noisy_window(&code, ty, 5e-3, 5, &mut SimRng::from_seed(9));
        let (w2, e2) = noisy_window(&code, ty, 5e-3, 5, &mut SimRng::from_seed(9));
        assert_eq!(e1, e2);
        assert_eq!(w1.detection_events(), w2.detection_events());
        assert_eq!(e1.len(), code.num_data_qubits());
    }

    #[test]
    fn noisy_round_matches_window_stream() {
        // `noisy_window` must consume the RNG exactly like a manual
        // `noisy_round` loop — suites rely on interchangeability.
        let code = SurfaceCode::new(5);
        let ty = StabilizerType::X;
        let noise = PhenomenologicalNoise::uniform(1e-2);
        let mut rng = SimRng::from_seed(31);
        let mut errors = vec![false; code.num_data_qubits()];
        let mut meas = vec![false; code.num_ancillas(ty)];
        let mut manual = RoundHistory::new(code.num_ancillas(ty), 4);
        for _ in 0..3 {
            let round = noisy_round(&code, ty, &noise, &mut rng, &mut errors, &mut meas);
            manual.push(&round);
        }
        manual.push(&code.syndrome_of(ty, &errors));
        let (window, final_errors) = noisy_window(&code, ty, 1e-2, 3, &mut SimRng::from_seed(31));
        assert_eq!(window.detection_events(), manual.detection_events());
        assert_eq!(final_errors, errors);
    }

    #[test]
    fn dump_is_compact_and_complete() {
        let code = SurfaceCode::new(5);
        let (window, _) =
            noisy_window(&code, StabilizerType::X, 2e-2, 4, &mut SimRng::from_seed(2));
        let dump = dump_events(&window);
        assert!(dump.starts_with(&format!("{} events [", window.detection_events().len())));
        assert!(dump.ends_with(']'));
    }

    #[test]
    fn fuzz_budget_defaults_without_env() {
        // The test harness does not set BTWC_FUZZ_WINDOWS by default.
        if std::env::var("BTWC_FUZZ_WINDOWS").is_err() {
            assert_eq!(fuzz_window_budget(1234), 1234);
        }
    }
}

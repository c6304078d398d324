//! Cross-crate integration tests: the full BTWC pipeline driven through
//! the public facade, exercising every subsystem together.

use btwc::core::{BtwcDecoder, StabilizerType, SurfaceCode};
use btwc::noise::{PhenomenologicalNoise, SimRng};

/// Drives a decoder against live noise and returns (coverage, final
/// syndrome weight).
fn drive(d: u16, p: f64, cycles: usize, seed: u64) -> (f64, usize) {
    let code = SurfaceCode::new(d);
    let ty = StabilizerType::X;
    let mut decoder = BtwcDecoder::builder(&code, ty).build();
    let noise = PhenomenologicalNoise::uniform(p);
    let mut rng = SimRng::from_seed(seed);
    let mut errors = vec![false; code.num_data_qubits()];
    let mut meas = vec![false; code.num_ancillas(ty)];
    for _ in 0..cycles {
        noise.sample_data_into(&mut rng, &mut errors);
        noise.sample_measurement_into(&mut rng, &mut meas);
        let mut round = code.syndrome_of(ty, &errors);
        for (r, &m) in round.iter_mut().zip(&meas) {
            *r ^= m;
        }
        if let Some(c) = decoder.process_round(&round).correction() {
            c.apply_to(&mut errors);
        }
    }
    let weight = code.syndrome_of(ty, &errors).iter().filter(|&&s| s).count();
    (decoder.stats().coverage(), weight)
}

#[test]
fn pipeline_controls_errors_across_distances() {
    for (d, p) in [(3u16, 3e-3), (5, 3e-3), (7, 5e-3), (9, 5e-3)] {
        let (coverage, weight) = drive(d, p, 20_000, 0xE2E + u64::from(d));
        assert!(coverage > 0.80, "d={d} p={p}: coverage {coverage} too low");
        assert!(weight <= 8, "d={d} p={p}: decode loop lost control, syndrome weight {weight}");
    }
}

#[test]
fn coverage_ordering_matches_paper_trends() {
    // Coverage falls with p at fixed d, and with d at fixed p (Fig. 11).
    let (c_low_p, _) = drive(7, 1e-3, 30_000, 1);
    let (c_high_p, _) = drive(7, 8e-3, 30_000, 1);
    assert!(c_low_p > c_high_p, "{c_low_p} vs {c_high_p}");
    let (c_low_d, _) = drive(3, 5e-3, 30_000, 2);
    let (c_high_d, _) = drive(11, 5e-3, 30_000, 2);
    assert!(c_low_d > c_high_d, "{c_low_d} vs {c_high_d}");
}

#[test]
fn onchip_and_offchip_corrections_commute_with_stabilizers() {
    // Whatever mix of Clique and MWPM corrections the pipeline applies,
    // the cumulative correction must always explain the observed
    // syndromes: after any quiet stretch the syndrome returns to zero.
    let code = SurfaceCode::new(5);
    let ty = StabilizerType::X;
    let mut decoder = BtwcDecoder::builder(&code, ty).build();
    let noise = PhenomenologicalNoise::uniform(1e-2);
    let mut rng = SimRng::from_seed(99);
    let mut errors = vec![false; code.num_data_qubits()];
    let mut meas = vec![false; code.num_ancillas(ty)];
    // Noisy burst...
    for _ in 0..500 {
        noise.sample_data_into(&mut rng, &mut errors);
        noise.sample_measurement_into(&mut rng, &mut meas);
        let mut round = code.syndrome_of(ty, &errors);
        for (r, &m) in round.iter_mut().zip(&meas) {
            *r ^= m;
        }
        if let Some(c) = decoder.process_round(&round).correction() {
            c.apply_to(&mut errors);
        }
    }
    // ...then quiet: within a few cycles everything must be resolved.
    for _ in 0..20 {
        let round = code.syndrome_of(ty, &errors);
        if let Some(c) = decoder.process_round(&round).correction() {
            c.apply_to(&mut errors);
        }
    }
    let weight = code.syndrome_of(ty, &errors).iter().filter(|&&s| s).count();
    assert_eq!(weight, 0, "quiet stream must drain all defects");
}

#[test]
fn clique_agrees_with_mwpm_on_trivial_signatures() {
    // The paper's Fig. 8a claim: for isolated errors, the lightweight
    // decoder's correction is equivalent to the heavyweight one's.
    use btwc::clique::{CliqueDecision, CliqueDecoder};
    use btwc::mwpm::MwpmDecoder;
    use btwc::syndrome::{PackedBits, RoundHistory};

    let code = SurfaceCode::new(7);
    let ty = StabilizerType::X;
    let clique = CliqueDecoder::new(&code, ty);
    let mut mwpm = MwpmDecoder::new(&code, ty);
    let mut rng = SimRng::from_seed(4242);
    let noise = PhenomenologicalNoise::new(3e-3, 0.0);
    let mut checked = 0;
    for _ in 0..5_000 {
        let mut errors = vec![false; code.num_data_qubits()];
        noise.sample_data_into(&mut rng, &mut errors);
        let bits = code.syndrome_of(ty, &errors);
        let syndrome = PackedBits::from_bools(&bits);
        if let CliqueDecision::Trivial(c_clique) = clique.decode(&syndrome) {
            let mut window = RoundHistory::new(bits.len(), 2);
            window.push(&bits);
            window.push(&bits);
            let c_mwpm = mwpm.decode_window_mut(&window);
            // Both corrections must cancel the error up to stabilizers.
            for c in [&c_clique, &c_mwpm] {
                let mut residual = errors.clone();
                c.apply_to(&mut residual);
                assert!(code.syndrome_of(ty, &residual).iter().all(|&s| !s));
                assert!(!code.is_logical_error(ty, &residual));
            }
            // And they must be equivalent to each other.
            let mut combined = vec![false; code.num_data_qubits()];
            c_clique.apply_to(&mut combined);
            c_mwpm.apply_to(&mut combined);
            assert!(
                !code.is_logical_error(ty, &combined),
                "clique and mwpm disagree by a logical on {errors:?}"
            );
            checked += 1;
        }
    }
    assert!(checked > 200, "exercised {checked} trivial signatures");
}

#[test]
fn deterministic_replay_across_the_facade() {
    let a = drive(5, 4e-3, 10_000, 7);
    let b = drive(5, 4e-3, 10_000, 7);
    assert_eq!(a, b);
}

//! Integration: the BTWC pipeline with every heavyweight tier the
//! workspace provides, behaving identically on trivial traffic and
//! consistently on complex traffic.

use btwc_core::{BtwcDecoder, BtwcOutcome, DecoderBackend, StabilizerType, SurfaceCode};
use btwc_noise::{PhenomenologicalNoise, SimRng};

fn run_pipeline(
    mut dec: BtwcDecoder,
    code: &SurfaceCode,
    p: f64,
    cycles: usize,
    seed: u64,
) -> (f64, usize) {
    let ty = StabilizerType::X;
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
        if let Some(c) = dec.process_round(&round).correction() {
            c.apply_to(&mut errors);
        }
    }
    // Quiet drain.
    for _ in 0..30 {
        let round = code.syndrome_of(ty, &errors);
        if let Some(c) = dec.process_round(&round).correction() {
            c.apply_to(&mut errors);
        }
    }
    let weight = code.syndrome_of(ty, &errors).iter().filter(|&&s| s).count();
    (dec.stats().coverage(), weight)
}

#[test]
fn mwpm_and_uf_tiers_both_control_errors() {
    let code = SurfaceCode::new(7);
    let ty = StabilizerType::X;
    let mwpm_dec = BtwcDecoder::builder(&code, ty).build();
    let uf_dec = BtwcDecoder::builder(&code, ty).backend(DecoderBackend::UnionFind).build();
    for (name, dec) in [("mwpm", mwpm_dec), ("uf", uf_dec)] {
        let (coverage, weight) = run_pipeline(dec, &code, 5e-3, 5_000, 11);
        assert!(coverage > 0.9, "{name}: coverage {coverage}");
        assert_eq!(weight, 0, "{name}: defects must drain in quiet");
    }
}

#[test]
fn lut_tier_works_for_small_distance() {
    let code = SurfaceCode::new(5);
    let ty = StabilizerType::X;
    let dec = BtwcDecoder::builder(&code, ty).backend(DecoderBackend::Lut).build();
    let (coverage, weight) = run_pipeline(dec, &code, 5e-3, 5_000, 13);
    assert!(coverage > 0.9, "coverage {coverage}");
    assert_eq!(weight, 0, "defects must drain in quiet");
}

#[test]
fn tiers_agree_on_purely_trivial_traffic() {
    // On a stream Clique fully covers, the heavyweight tier choice is
    // unobservable: identical outcomes cycle for cycle.
    let code = SurfaceCode::new(5);
    let ty = StabilizerType::X;
    let mut a = BtwcDecoder::builder(&code, ty).build();
    let mut b = BtwcDecoder::builder(&code, ty).backend(DecoderBackend::UnionFind).build();
    let mut errors = vec![false; code.num_data_qubits()];
    errors[12] = true;
    let round = code.syndrome_of(ty, &errors);
    let quiet = vec![false; code.num_ancillas(ty)];
    for r in [&quiet, &round, &round, &quiet, &quiet] {
        let oa = a.process_round(r);
        let ob = b.process_round(r);
        assert_eq!(oa, ob);
        assert!(!matches!(oa, BtwcOutcome::OffChip(_)));
    }
}

//! Quickstart: one logical qubit protected by the full BTWC pipeline.
//!
//! Simulates a distance-5 surface code under phenomenological noise and
//! shows the common-case / rare-case split the paper is built on: the
//! Clique predecoder keeps the overwhelming majority of decode cycles
//! on-chip, while chains and sticky measurement errors fall back to the
//! exact MWPM decoder.
//!
//! Run with: `cargo run --release --example quickstart`

use btwc::core::{BtwcDecoder, BtwcOutcome, StabilizerType, SurfaceCode};
use btwc::noise::{PhenomenologicalNoise, SimRng};

fn main() {
    let distance = 5;
    let p = 2e-3;
    let cycles = 200_000;

    let code = SurfaceCode::new(distance);
    let ty = StabilizerType::X;
    let mut decoder = BtwcDecoder::builder(&code, ty).build();
    let noise = PhenomenologicalNoise::uniform(p);
    let mut rng = SimRng::from_seed(2023);

    println!("BTWC quickstart: d={distance}, p={p:.0e}, {cycles} cycles");
    println!("lattice:\n{}", code.render());

    let mut errors = vec![false; code.num_data_qubits()];
    let mut meas = vec![false; code.num_ancillas(ty)];
    let mut onchip_flips = 0u64;
    let mut offchip_flips = 0u64;

    for _ in 0..cycles {
        noise.sample_data_into(&mut rng, &mut errors);
        noise.sample_measurement_into(&mut rng, &mut meas);
        let mut round = code.syndrome_of(ty, &errors);
        for (r, &m) in round.iter_mut().zip(&meas) {
            *r ^= m;
        }
        match decoder.process_round(&round) {
            BtwcOutcome::Quiet => {}
            BtwcOutcome::OnChip(c) => {
                onchip_flips += c.weight() as u64;
                c.apply_to(&mut errors);
            }
            BtwcOutcome::OffChip(c) => {
                offchip_flips += c.weight() as u64;
                c.apply_to(&mut errors);
            }
            // Only BtwcMachine with a faulty link degrades; a standalone
            // pipeline never emits this.
            BtwcOutcome::Degraded(c) => c.apply_to(&mut errors),
        }
    }

    let stats = decoder.stats();
    println!("cycles processed      : {}", stats.cycles);
    println!("quiet / on-chip / off : {} / {} / {}", stats.quiet, stats.onchip, stats.offchip);
    println!("Clique coverage       : {:.3}%", stats.coverage() * 100.0);
    println!(
        "bandwidth elimination : {:.1}% of cycles never leave the fridge",
        stats.coverage() * 100.0
    );
    println!("data flips applied    : {onchip_flips} on-chip, {offchip_flips} off-chip");

    let residual_syndrome = code.syndrome_of(ty, &errors).iter().filter(|&&s| s).count();
    println!("residual lit ancillas : {residual_syndrome} (in-flight errors only)");
}

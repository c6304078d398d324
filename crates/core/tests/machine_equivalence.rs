//! The machine-tier acceptance pin: batched [`BtwcMachine::step`] is
//! bit-identical — per-cycle outcomes, per-qubit stats, and stall
//! behavior — to a reference loop of per-qubit
//! [`BtwcDecoder::process_round_packed`] plus a hand-stepped
//! [`QueueSim`], across randomized multi-qubit traces and **every**
//! [`DecoderBackend`] variant (the sparse and LUT arms on both
//! stabilizer types).
//!
//! This is the guarantee that makes the batched word-parallel filter a
//! pure optimization: the machine may reorganize the work (transposed
//! planes, one shared room-temperature decoder, frames over the wire),
//! but never the answers.

use btwc_bandwidth::QueueSim;
use btwc_core::{
    BtwcDecoder, BtwcMachine, BtwcOutcome, ComplexDecoder, DecoderBackend, StabilizerType,
    SurfaceCode, SyndromeBatch,
};
use btwc_noise::{PhenomenologicalNoise, SimRng};
use btwc_syndrome::{Correction, PackedBits, RoundHistory};
use btwc_testutil::noisy_round;

/// A deliberately odd custom backend: deterministic but unlike any
/// built-in matcher, so the pin exercises the `Custom` factory path
/// rather than accidentally re-testing MWPM.
struct EventParityDecoder {
    num_data: usize,
}

impl ComplexDecoder for EventParityDecoder {
    fn decode_window_mut(&mut self, window: &RoundHistory) -> Correction {
        let events = window.detection_events();
        if events.is_empty() {
            return Correction::new();
        }
        let sum: usize = events.iter().map(|e| e.ancilla + e.round).sum();
        Correction::from_flips(vec![sum % self.num_data])
    }
}

const CUSTOM: DecoderBackend = DecoderBackend::Custom {
    name: "event-parity",
    build: |code, _ty| Box::new(EventParityDecoder { num_data: code.num_data_qubits() }),
};

/// Drives `cycles` noisy rounds through the machine and the per-qubit
/// reference loop simultaneously, asserting bit-identity at every
/// cycle. `feedback` applies the (shared) corrections back onto the
/// tracked error state — on for the real matchers (realistic
/// closed-loop streams), off for the bogus custom backend (whose
/// "corrections" would otherwise blow up the error state).
#[allow(clippy::too_many_arguments)]
fn pin_machine_against_reference(
    backend: DecoderBackend,
    ty: StabilizerType,
    d: u16,
    num_qubits: usize,
    bandwidth: usize,
    cycles: usize,
    p: f64,
    seed: u64,
    feedback: bool,
) {
    let code = SurfaceCode::new(d);
    let n_anc = code.num_ancillas(ty);

    let mut machine =
        BtwcMachine::builder(&code, ty, num_qubits, bandwidth).backend(backend).build();
    let mut reference: Vec<BtwcDecoder> =
        (0..num_qubits).map(|_| BtwcDecoder::builder(&code, ty).backend(backend).build()).collect();
    let mut ref_queue = QueueSim::new(bandwidth);
    let mut ref_stalled = false;

    let noise = PhenomenologicalNoise::uniform(p);
    let mut rng = SimRng::from_seed(seed);
    let mut errors = vec![vec![false; code.num_data_qubits()]; num_qubits];
    let mut meas = vec![false; n_anc];
    let mut batch = SyndromeBatch::new(num_qubits, n_anc);
    let mut rounds: Vec<PackedBits> = (0..num_qubits).map(|_| PackedBits::new(n_anc)).collect();

    let mut total_offchip = 0usize;
    for t in 0..cycles {
        // Identical rounds into both sides: the shared testutil
        // distribution (data noise + measurement flips) per qubit.
        for (q, e) in errors.iter_mut().enumerate() {
            let raw = noisy_round(&code, ty, &noise, &mut rng, e, &mut meas);
            rounds[q].fill_from_bools(&raw);
            batch.set_qubit_round_bools(q, &raw);
        }

        let ref_was_stalled = ref_stalled;
        let cycle = machine.step(&batch);
        let expected: Vec<BtwcOutcome> =
            reference.iter_mut().zip(&rounds).map(|(dec, r)| dec.process_round_packed(r)).collect();
        assert_eq!(
            cycle.outcomes, expected,
            "cycle {t}: batched outcomes diverged from the per-qubit loop \
             ({backend:?}, {ty:?}, d={d}, q={num_qubits})"
        );

        let offchip = expected.iter().filter(|o| o.went_offchip()).count();
        total_offchip += offchip;
        assert_eq!(cycle.offchip_requests, offchip, "cycle {t}: off-chip demand");
        let _ = ref_queue.step(offchip);
        ref_stalled = ref_queue.backlog() > 0;
        assert_eq!(cycle.stalled, ref_was_stalled, "cycle {t}: stall flag");
        assert_eq!(machine.is_stalled(), ref_stalled, "cycle {t}: next-cycle stall");
        assert_eq!(machine.stats().backlog, ref_queue.backlog() as u64, "cycle {t}: backlog");

        if feedback {
            for (e, out) in errors.iter_mut().zip(&expected) {
                if let Some(c) = out.correction() {
                    c.apply_to(e);
                }
            }
        }
    }

    // Stats, not just outcomes: every qubit's machine-side counters
    // must equal its standalone pipeline's.
    for (q, dec) in reference.iter().enumerate() {
        assert_eq!(
            machine.decoder_stats(q),
            dec.stats(),
            "per-qubit stats diverged for qubit {q} ({backend:?}, {ty:?}, d={d})"
        );
    }
    let stats = machine.stats();
    assert_eq!(stats.cycles, cycles as u64);
    assert_eq!(stats.offchip_requests, total_offchip as u64);
    assert!(
        total_offchip > 0,
        "trace must exercise the off-chip path ({backend:?}, {ty:?}, d={d}, p={p})"
    );
    assert!(stats.frame_bytes >= 16 * stats.offchip_requests, "every request ships a frame");
}

#[test]
fn dense_mwpm_matches_reference_loop() {
    for (d, cycles) in [(3u16, 1500), (5, 900), (9, 400)] {
        pin_machine_against_reference(
            DecoderBackend::DenseMwpm,
            StabilizerType::X,
            d,
            4,
            1,
            cycles,
            6e-3,
            0xD0 + u64::from(d),
            true,
        );
    }
}

#[test]
fn sparse_blossom_matches_reference_loop() {
    for (d, cycles) in [(3u16, 1500), (5, 900), (9, 400)] {
        pin_machine_against_reference(
            DecoderBackend::SparseBlossom,
            StabilizerType::X,
            d,
            4,
            1,
            cycles,
            6e-3,
            0x5B + u64::from(d),
            true,
        );
    }
    // The Z plane (detecting X errors) over its own ancilla layout.
    for (d, cycles) in [(3u16, 1500), (5, 900)] {
        pin_machine_against_reference(
            DecoderBackend::SparseBlossom,
            StabilizerType::Z,
            d,
            4,
            1,
            cycles,
            6e-3,
            0x25B + u64::from(d),
            true,
        );
    }
}

#[test]
fn union_find_matches_reference_loop() {
    for (d, cycles) in [(3u16, 3000), (5, 900), (9, 400)] {
        pin_machine_against_reference(
            DecoderBackend::UnionFind,
            StabilizerType::X,
            d,
            4,
            1,
            cycles,
            8e-3,
            0x0F + u64::from(d),
            true,
        );
    }
}

#[test]
fn lut_matches_reference_loop() {
    // The exhaustive table is practical only at small distances
    // (2^(d²-1)/2 entries) — exactly the paper's point; d ∈ {3, 5}
    // still covers the variant across multiple geometries.
    for ty in [StabilizerType::X, StabilizerType::Z] {
        for (d, cycles) in [(3u16, 1500), (5, 600)] {
            pin_machine_against_reference(
                DecoderBackend::Lut,
                ty,
                d,
                4,
                1,
                cycles,
                6e-3,
                0x107 + u64::from(d),
                true,
            );
        }
    }
}

#[test]
fn custom_backend_matches_reference_loop() {
    // No feedback: the parity "decoder" does not actually correct, so
    // closing the loop would runaway the error state on both sides.
    for (d, cycles) in [(3u16, 600), (5, 400), (9, 200)] {
        pin_machine_against_reference(
            CUSTOM,
            StabilizerType::X,
            d,
            4,
            2,
            cycles,
            3e-3,
            0xC5 + u64::from(d),
            false,
        );
    }
}

#[test]
fn more_qubits_than_a_word_still_match() {
    // 70 qubits cross the 64-bit plane boundary — the word-parallel
    // filter must stay exact past the first word.
    pin_machine_against_reference(
        DecoderBackend::DenseMwpm,
        StabilizerType::X,
        3,
        70,
        3,
        300,
        6e-3,
        0x70,
        true,
    );
}

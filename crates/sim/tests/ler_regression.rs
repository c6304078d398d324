//! Regression: the packed-bitset rewrite of the shot loop must be
//! *bit-identical* to the seed's `Vec<bool>` pipeline for fixed seeds.
//!
//! The reference below reimplements the pre-packing `logical_error_rate`
//! exactly as the seed wrote it: every round materialized as a
//! `Vec<bool>` (`tracker.syndrome().to_vec()` + per-bit measurement
//! flips), every round pushed into the window unconditionally, and the
//! bool-slice frontend/window entry points. The packed implementation
//! may skip leading all-zero window rounds and run word ops, but the
//! sampled noise (RNG draw order), every Clique decision, every
//! off-chip correction (`cfg.backend`'s), and therefore every counter
//! in [`LerEstimate`] must come out the same.

use btwc_clique::{CliqueDecision, CliqueFrontend};
use btwc_lattice::{StabilizerType, SurfaceCode};
use btwc_noise::{SimRng, SparseFlips};
use btwc_sim::{logical_error_rate, DecoderKind, ErrorTracker, LerEstimate, ShotConfig};
use btwc_syndrome::RoundHistory;

/// The seed's shot loop, verbatim modulo the packed tracker's
/// `to_bools()` unpacking.
fn reference_logical_error_rate(cfg: &ShotConfig, kind: DecoderKind) -> LerEstimate {
    let ty = StabilizerType::X;
    let code = SurfaceCode::new(cfg.distance);
    let mut offchip = cfg.backend.build(&code, ty);
    let mut tracker = ErrorTracker::new(&code, ty);
    let mut frontend = CliqueFrontend::with_rounds(&code, ty, cfg.clique_rounds);
    let n_anc = code.num_ancillas(ty);
    let n_data = code.num_data_qubits();
    let mut rng = SimRng::from_seed(cfg.seed);
    let rounds = usize::from(cfg.distance);
    let mut window = RoundHistory::new(n_anc, rounds + 1);
    let mut est = LerEstimate { shots: 0, failures: 0, offchip_shots: 0 };
    let p = cfg.physical_error_rate;

    for _ in 0..cfg.shots {
        tracker.reset();
        frontend.reset();
        window.reset();
        let mut went_offchip = false;
        for _ in 0..rounds {
            let flips: Vec<usize> = SparseFlips::new(&mut rng, n_data, p).collect();
            for q in flips {
                tracker.flip(q);
            }
            let mut round = tracker.syndrome().to_bools();
            let mflips: Vec<usize> = SparseFlips::new(&mut rng, n_anc, p).collect();
            for a in mflips {
                round[a] ^= true;
            }
            window.push(&round);
            if kind == DecoderKind::CliquePlusMwpm {
                match frontend.push_round(&round) {
                    CliqueDecision::AllZeros => {}
                    CliqueDecision::Trivial(c) => tracker.apply(c.qubits()),
                    CliqueDecision::Complex => went_offchip = true,
                }
            }
        }
        window.push(&tracker.syndrome().to_bools());
        let cleanup = offchip.decode_window_mut(&window);
        tracker.apply(cleanup.qubits());
        assert!(tracker.is_quiet(), "reference decode must clear the syndrome");
        est.shots += 1;
        est.failures += u64::from(code.is_logical_error(ty, tracker.errors()));
        est.offchip_shots += u64::from(went_offchip);
    }
    est
}

#[test]
fn packed_shot_loop_is_bit_identical_to_boolvec_reference() {
    let scenarios =
        [(3u16, 8e-3, 400u64, 11u64), (5, 8e-3, 200, 3), (5, 2e-3, 200, 1234), (7, 5e-3, 80, 7)];
    for (d, p, shots, seed) in scenarios {
        for kind in [DecoderKind::MwpmOnly, DecoderKind::CliquePlusMwpm] {
            let cfg = ShotConfig::new(d, p).with_shots(shots).with_seed(seed);
            let reference = reference_logical_error_rate(&cfg, kind);
            let packed = logical_error_rate(&cfg, kind);
            assert_eq!(
                packed, reference,
                "d={d} p={p} seed={seed} kind={kind:?}: packed rewrite diverged"
            );
            // The noisiest scenario must actually exercise failures and
            // off-chip traffic, or the equality above proves nothing.
            if d == 3 {
                assert!(
                    reference.failures > 0,
                    "d={d} p={p}: scenario too quiet to be a meaningful regression check"
                );
            }
        }
    }
}

#[test]
fn golden_counters_for_fixed_seed() {
    // Pin one scenario's exact counters so *any* future change to RNG
    // consumption or decode behavior in the shot loop trips a test,
    // even if it changes reference and packed paths in lockstep.
    let cfg = ShotConfig::new(3, 8e-3).with_shots(400).with_seed(11);
    let est = logical_error_rate(&cfg, DecoderKind::CliquePlusMwpm);
    assert_eq!(est.shots, 400);
    let reference = reference_logical_error_rate(&cfg, DecoderKind::CliquePlusMwpm);
    assert_eq!(est, reference);
    assert!(est.failures > 0, "d=3 at p=8e-3 must fail sometimes");
    assert!(est.offchip_shots > 0, "some shots must go off-chip");
}

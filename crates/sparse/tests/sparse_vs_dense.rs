//! The exactness acceptance sweeps: sparse and dense decoders commit to
//! matchings of identical total space-time weight on thousands of
//! randomized noisy windows, and the sparse corrections are equally
//! valid (zero residual syndrome against the final perfect round).
//!
//! Three sweeps share the [`btwc_testutil`] window distribution:
//!
//! * the original acceptance sweep at d ∈ {5, 9, 13} and low-to-mid
//!   rates — the regime region collision was built for;
//! * the **chained-cluster** differential fuzz at d ∈ {13, 17, 21} and
//!   p ∈ {5e-3, 1e-2} — the regime where a single cluster chains across
//!   most of a window's events and the in-solver sparse blossom (not a
//!   dense fallback) has to shrink real blossoms to stay exact;
//! * the **streamed** differential fuzz: one continuous noisy trace per
//!   `(d, p, slide)` cell through a full (evicting) window advancing
//!   `slide` rounds per decode, asserting at every position that a
//!   from-scratch sparse decode and the dense oracle commit to the same
//!   matching weight — the only fuzz whose windows have a front round
//!   re-based by eviction.
//!
//! Set `BTWC_FUZZ_WINDOWS` to rescale the chained-cluster and streamed
//! budgets (the CI slow-fuzz job raises it; the default keeps
//! `cargo test -q` fast). Failures print the exact seed plus a full
//! event dump, so any counterexample is reproducible in isolation.

use btwc_lattice::{StabilizerType, SurfaceCode};
use btwc_mwpm::MwpmDecoder;
use btwc_noise::{PhenomenologicalNoise, SimRng};
use btwc_sparse::SparseDecoder;
use btwc_syndrome::RoundHistory;
use btwc_testutil::{dump_events, fuzz_window_budget, noisy_round, noisy_window};

#[test]
fn sparse_weight_equals_dense_on_1000_random_windows() {
    // (distance, error rate, windows): ≥ 1000 windows total, with the
    // higher rates producing dense multi-cluster event sets.
    let plan: [(u16, f64, u64); 6] = [
        (5, 3e-3, 200),
        (5, 1e-2, 200),
        (9, 3e-3, 150),
        (9, 1e-2, 150),
        (13, 3e-3, 150),
        (13, 8e-3, 150),
    ];
    let total: u64 = plan.iter().map(|&(_, _, n)| n).sum();
    assert!(total >= 1000, "acceptance demands at least 1000 windows");
    let ty = StabilizerType::X;
    let mut nonzero = 0u64;
    for (d, p, windows) in plan {
        let code = SurfaceCode::new(d);
        let mut sparse = SparseDecoder::new(&code, ty);
        let mut dense = MwpmDecoder::new(&code, ty);
        let mut rng = SimRng::from_seed(0xACCE97 ^ (u64::from(d) << 32) ^ p.to_bits());
        for i in 0..windows {
            let (window, errors) = noisy_window(&code, ty, p, usize::from(d), &mut rng);
            let (c_sparse, w_sparse) = sparse.decode_window_weighted(&window);
            let (c_dense, w_dense) = dense.decode_window_weighted(&window);
            assert_eq!(
                w_sparse,
                w_dense,
                "weight mismatch at d={d} p={p} window {i}: {}",
                dump_events(&window)
            );
            nonzero += u64::from(w_sparse > 0);
            // Both corrections must explain the final-round syndrome.
            for c in [&c_sparse, &c_dense] {
                let mut residual = errors.clone();
                c.apply_to(&mut residual);
                assert!(
                    code.syndrome_of(ty, &residual).iter().all(|&s| !s),
                    "residual syndrome at d={d} p={p} window {i}"
                );
            }
        }
    }
    // The sweep must actually exercise the matchers, not decode silence.
    assert!(nonzero > total / 2, "only {nonzero}/{total} windows had events");
}

/// The chained-cluster regime: operational-to-high rates at d up to 21,
/// where clusters of well over three events are routine and blossom
/// shrinking on the sparse graph actually fires. Every window is seeded
/// independently (`base ^ window index`), so a failure is reproducible
/// from its printout alone.
#[test]
fn chained_cluster_fuzz_sparse_weight_equals_dense() {
    // Relative weights per (d, p) cell, summing to 100; the total
    // budget (default 1000, `BTWC_FUZZ_WINDOWS` to override) is split
    // proportionally. d = 13 carries the bulk for wall-time reasons;
    // d = 21 at p = 1e-2 is the hardest regime (hundreds of events,
    // window-spanning clusters) and stays covered on every run.
    let plan: [(u16, f64, u64); 6] = [
        (13, 5e-3, 40),
        (13, 1e-2, 34),
        (17, 5e-3, 10),
        (17, 1e-2, 8),
        (21, 5e-3, 5),
        (21, 1e-2, 3),
    ];
    let total = fuzz_window_budget(1000);
    let ty = StabilizerType::X;
    let mut max_events = 0usize;
    let mut ran = 0u64;
    for (d, p, weight) in plan {
        let windows = (total * weight / 100).max(1);
        let code = SurfaceCode::new(d);
        let mut sparse = SparseDecoder::new(&code, ty);
        let mut dense = MwpmDecoder::new(&code, ty);
        let base = 0xC4A1_7ED0u64 ^ (u64::from(d) << 40) ^ p.to_bits();
        for i in 0..windows {
            let seed = base ^ i;
            let (window, errors) =
                noisy_window(&code, ty, p, usize::from(d), &mut SimRng::from_seed(seed));
            max_events = max_events.max(window.detection_event_count());
            let (c_sparse, w_sparse) = sparse.decode_window_weighted(&window);
            let (_, w_dense) = dense.decode_window_weighted(&window);
            assert_eq!(
                w_sparse,
                w_dense,
                "chained-cluster weight mismatch at d={d} p={p} window {i} \
                 (reproduce: SimRng::from_seed({seed:#x}), {} rounds): {}",
                d,
                dump_events(&window)
            );
            // The sparse correction must fully explain the syndrome.
            let mut residual = errors;
            c_sparse.apply_to(&mut residual);
            assert!(
                code.syndrome_of(ty, &residual).iter().all(|&s| !s),
                "residual syndrome at d={d} p={p} window {i} \
                 (reproduce: SimRng::from_seed({seed:#x})): {}",
                dump_events(&window)
            );
            ran += 1;
        }
    }
    assert!(ran >= total.min(1000) * 95 / 100, "budget {total} but only {ran} windows ran");
    // The sweep must reach genuinely chained clusters, not small knots.
    assert!(max_events >= 40, "largest window had only {max_events} events");
}

/// The streamed differential fuzz: one continuous noisy trace per cell
/// through a window that is full from the first position on, so every
/// decoded window's front round was re-based by eviction (its events
/// diffed against the all-zero baseline instead of the round that fell
/// out). At every position the from-scratch **sparse** decode and the
/// **dense** MWPM oracle must agree on the committed matching weight,
/// and their corrections must resolve the same spatial syndrome.
///
/// Slide-by-1 keeps maximum overlap between successive windows;
/// slide-by-`d` replaces the whole window each step. Each cell's trace
/// is seeded independently, so any failure reproduces from the printed
/// seed and step index alone.
#[test]
fn streamed_fuzz_incremental_equals_fromscratch_and_dense() {
    // (distance, error rate, slide, relative weight of the budget).
    let plan: [(u16, f64, usize, u64); 7] = [
        (13, 5e-3, 1, 28),
        (13, 1e-2, 1, 22),
        (13, 5e-3, 13, 14),
        (17, 5e-3, 1, 14),
        (17, 1e-2, 1, 8),
        (17, 1e-2, 17, 8),
        (21, 5e-3, 1, 6),
    ];
    let total = fuzz_window_budget(1000);
    let ty = StabilizerType::X;
    for (d, p, slide, weight) in plan {
        let positions = (total * weight / 100).max(2);
        let code = SurfaceCode::new(d);
        let noise = PhenomenologicalNoise::uniform(p);
        let n_anc = code.num_ancillas(ty);
        let mut sparse = SparseDecoder::new(&code, ty);
        let mut dense = MwpmDecoder::new(&code, ty);
        let seed = 0x57E4_A11Du64 ^ (u64::from(d) << 40) ^ ((slide as u64) << 32) ^ p.to_bits();
        let mut rng = SimRng::from_seed(seed);
        let mut errors = vec![false; code.num_data_qubits()];
        let mut meas = vec![false; n_anc];
        let mut window = RoundHistory::new(n_anc, usize::from(d));
        let mut advance = |window: &mut RoundHistory, rounds: usize| {
            for _ in 0..rounds {
                window.push(&noisy_round(&code, ty, &noise, &mut rng, &mut errors, &mut meas));
            }
        };
        // Fill the window first: every push below evicts.
        advance(&mut window, usize::from(d));
        for step in 0..positions {
            advance(&mut window, slide);
            let (c_sparse, w_sparse) = sparse.decode_window_weighted(&window);
            let (c_dense, w_dense) = dense.decode_window_weighted(&window);
            let ctx = || {
                format!(
                    "d={d} p={p} slide={slide} step {step} \
                     (reproduce: SimRng::from_seed({seed:#x}), replay {step} slides): {}",
                    dump_events(&window)
                )
            };
            assert_eq!(w_sparse, w_dense, "sparse weight diverged from dense oracle: {}", ctx());
            // Equal-weight matchings may tie-break differently, but any
            // matching of the same events flips a correction with the
            // same spatial syndrome.
            let mut flipped_sparse = vec![false; code.num_data_qubits()];
            let mut flipped_dense = flipped_sparse.clone();
            c_sparse.apply_to(&mut flipped_sparse);
            c_dense.apply_to(&mut flipped_dense);
            assert_eq!(
                code.syndrome_of(ty, &flipped_sparse),
                code.syndrome_of(ty, &flipped_dense),
                "sparse correction resolves a different syndrome: {}",
                ctx()
            );
        }
    }
}

//! Every window the figure engines hand the default backend is matched
//! at the dense oracle's weight.
//!
//! The sparse and dense blossoms are both exact, so on any window they
//! commit to the same total matching weight; where several matchings
//! tie, they may pick different corrections, and in a shot or a closed
//! loop a different correction changes what follows. The differential
//! fuzz in `btwc-sparse` sees only synthetic noisy windows; this suite
//! runs the real engines — the Fig. 14 shot grid under both pipelines,
//! the sticky-depth ablation's shots and one closed-loop lifetime run —
//! through a backend that decodes each window with both solvers,
//! asserts the weights are equal and returns the sparse correction. The
//! runs are the figure bins' own configurations at the goldens' scale
//! (`BTWC_SCALE=0.02`), so every figure line that moved when the default
//! became the sparse matcher is shown to be a tie-break, not a weight
//! change.
//!
//! Which tie wins still matters: Clique's corrections make ties
//! between pairing two events and two boundary exits common in the
//! windows it ships, and the sparse matcher pairs them. The last test
//! pins that this keeps the Clique+MWPM failure count at or below the
//! dense matcher's own on Fig. 14's high-rate points at full scale.
//! Release-only: the dense solves are O(n³).

use std::sync::atomic::{AtomicU64, Ordering};

use btwc_lattice::{StabilizerType, SurfaceCode};
use btwc_mwpm::MwpmDecoder;
use btwc_sim::{
    logical_error_rate_parallel, DecoderBackend, DecoderKind, LifetimeConfig, LifetimeSim,
    ShotConfig,
};
use btwc_sparse::SparseDecoder;
use btwc_syndrome::{ComplexDecoder, Correction, RoundHistory};

/// Decodes with both exact matchers, asserts equal weight, returns the
/// sparse correction, and counts the non-empty windows it checked.
struct WeightChecked {
    sparse: SparseDecoder,
    dense: MwpmDecoder,
    checked: &'static AtomicU64,
}

impl WeightChecked {
    fn boxed(
        code: &SurfaceCode,
        ty: StabilizerType,
        checked: &'static AtomicU64,
    ) -> Box<dyn ComplexDecoder + Send + Sync> {
        Box::new(Self {
            sparse: SparseDecoder::new(code, ty),
            dense: MwpmDecoder::new(code, ty),
            checked,
        })
    }
}

impl ComplexDecoder for WeightChecked {
    fn decode_window_mut(&mut self, window: &RoundHistory) -> Correction {
        let (correction, w_sparse) = self.sparse.decode_window_weighted(window);
        let (_, w_dense) = self.dense.decode_window_weighted(window);
        assert_eq!(w_sparse, w_dense, "sparse and dense weights differ on {window:?}");
        if window.detection_event_count() > 0 {
            self.checked.fetch_add(1, Ordering::Relaxed);
        }
        correction
    }
}

// One counter per test: the tests of this file run concurrently.
static SHOT_WINDOWS: AtomicU64 = AtomicU64::new(0);
static LIFETIME_WINDOWS: AtomicU64 = AtomicU64::new(0);

const SHOT_CHECKED: DecoderBackend = DecoderBackend::Custom {
    name: "weight-checked",
    build: |code, ty| WeightChecked::boxed(code, ty, &SHOT_WINDOWS),
};
const LIFETIME_CHECKED: DecoderBackend = DecoderBackend::Custom {
    name: "weight-checked",
    build: |code, ty| WeightChecked::boxed(code, ty, &LIFETIME_WINDOWS),
};
const DENSE: DecoderBackend = DecoderBackend::Custom {
    name: "dense-mwpm",
    build: |code, ty| Box::new(MwpmDecoder::new(code, ty)),
};

/// The shot configurations behind the changed golden lines: `fig14`'s
/// (d, p) grid (600 shots, both pipelines) and `ablate_rounds`' LER
/// column (d = 9, p = 8e-3, 400 shots, Clique depth 1–4).
fn golden_shot_points() -> Vec<(ShotConfig, DecoderKind)> {
    let mut points = Vec::new();
    for d in [3u16, 5, 7, 9, 11] {
        for p in [2e-3, 4e-3, 6e-3, 8e-3, 1.2e-2] {
            let cfg = ShotConfig::new(d, p).with_shots(600).with_seed(0xF1614);
            points.push((cfg, DecoderKind::MwpmOnly));
            points.push((cfg, DecoderKind::CliquePlusMwpm));
        }
    }
    for k in 1..=4 {
        let cfg = ShotConfig::new(9, 8e-3).with_shots(400).with_clique_rounds(k).with_seed(0xAB4);
        points.push((cfg, DecoderKind::CliquePlusMwpm));
    }
    points
}

#[test]
#[cfg_attr(debug_assertions, ignore = "release-only: run with --release")]
fn shot_windows_tie_on_weight_across_the_golden_grid() {
    for (cfg, kind) in golden_shot_points() {
        let checked = logical_error_rate_parallel(&cfg.with_backend(SHOT_CHECKED), kind, 2);
        // The checked backend returns the sparse correction, so its run
        // is the figure's run window for window.
        let figure = logical_error_rate_parallel(&cfg, kind, 2);
        assert_eq!(checked, figure, "d={} p={} {kind:?}", cfg.distance, cfg.physical_error_rate);
    }
    assert!(SHOT_WINDOWS.load(Ordering::Relaxed) > 10_000, "the grid must decode real windows");
}

#[test]
#[cfg_attr(debug_assertions, ignore = "release-only: run with --release")]
fn closed_loop_escalation_windows_tie_on_weight() {
    let cfg = LifetimeConfig::new(7, 8e-3).with_cycles(20_000).with_seed(0x7E7);
    let checked = LifetimeSim::new(&cfg.with_backend(LIFETIME_CHECKED)).run();
    let plain = LifetimeSim::new(&cfg).run();
    assert_eq!(checked, plain);
    assert!(checked.complex > 100, "the run must escalate");
    assert_eq!(LIFETIME_WINDOWS.load(Ordering::Relaxed), checked.complex);
}

#[test]
#[cfg_attr(debug_assertions, ignore = "release-only: run with --release")]
fn paired_ties_keep_clique_failures_at_or_below_the_dense_matchers() {
    // Fig. 14's p = 1.2e-2 column at d = 3, 5, 7 and its full-scale shot
    // count. Sending zero-gain pairs to the boundary instead gave 1 547
    // failures here against the dense matcher's 1 315.
    let (mut sparse, mut dense) = (0, 0);
    for d in [3u16, 5, 7] {
        let cfg = ShotConfig::new(d, 1.2e-2).with_shots(30_000).with_seed(0xF1614);
        let kind = DecoderKind::CliquePlusMwpm;
        sparse += logical_error_rate_parallel(&cfg, kind, 2).failures;
        dense += logical_error_rate_parallel(&cfg.with_backend(DENSE), kind, 2).failures;
    }
    assert!(dense > 1_000, "the points must fail often enough to compare");
    assert!(sparse <= dense, "sparse {sparse} failures against dense {dense}");
}

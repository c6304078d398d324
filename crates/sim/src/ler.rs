//! Shot-based logical error rate estimation (Fig. 14).

use btwc_clique::{CliqueDecision, CliqueFrontend};
use btwc_core::DecoderBackend;
use btwc_lattice::{StabilizerType, SurfaceCode};
use btwc_noise::{SimRng, SparseFlips};
use btwc_pool::Pool;
use btwc_syndrome::{PackedBits, RoundHistory};
use serde::Serialize;

use crate::tracker::ErrorTracker;

/// Shots per deterministic work shard (each shot is `d` decode
/// cycles, so shards are comparable in weight to the lifetime engine's
/// [`crate::lifetime::SHARD_CYCLES`]-cycle shards).
pub(crate) const SHARD_SHOTS: u64 = 256;

/// Splits `cfg` into its fixed shard plan (shard count and seeds depend
/// only on `cfg`, never on the worker count — RNG streams live in the
/// shot engine's slice of the fork space, see [`crate::shard`]);
/// merging shard estimates in plan order reproduces the same
/// [`LerEstimate`] on any pool.
pub(crate) fn shard_plan(cfg: &ShotConfig) -> Vec<ShotConfig> {
    crate::shard::shard_streams(cfg.shots, SHARD_SHOTS, cfg.seed, crate::shard::SHOT_STREAM)
        .into_iter()
        .map(|(shots, rng)| {
            let mut shard = *cfg;
            shard.shots = shots;
            shard.seed = rng.seed();
            shard
        })
        .collect()
}

/// Which decode pipeline a shot uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum DecoderKind {
    /// The paper's baseline: every round's syndrome goes off-chip and
    /// the whole window is matched at once by MWPM.
    MwpmOnly,
    /// The proposal: Clique handles trivial cycles on-chip; complex
    /// cycles (and the end-of-window cleanup) fall back to MWPM.
    CliquePlusMwpm,
}

/// Parameters of a logical-error-rate measurement.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct ShotConfig {
    /// Code distance.
    pub distance: u16,
    /// Physical error rate (data and measurement).
    pub physical_error_rate: f64,
    /// Number of shots.
    pub shots: u64,
    /// Clique sticky-filter depth (used by `CliquePlusMwpm` only).
    pub clique_rounds: usize,
    /// Which off-chip decoder resolves the shipped windows (the
    /// unified [`DecoderBackend`] registry).
    pub backend: DecoderBackend,
    /// RNG seed.
    pub seed: u64,
}

impl ShotConfig {
    /// A shot is `d` noisy rounds (the paper's convention). Defaults:
    /// 10k shots, 2 filter rounds, the default [`DecoderBackend`].
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `[0, 1]`.
    #[must_use]
    pub fn new(distance: u16, physical_error_rate: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&physical_error_rate),
            "error rate {physical_error_rate} out of [0,1]"
        );
        Self {
            distance,
            physical_error_rate,
            shots: 10_000,
            clique_rounds: 2,
            backend: DecoderBackend::default(),
            seed: 0,
        }
    }

    /// Sets the shot count.
    #[must_use]
    pub fn with_shots(mut self, shots: u64) -> Self {
        self.shots = shots;
        self
    }

    /// Sets the Clique sticky-filter depth.
    ///
    /// # Panics
    ///
    /// Panics if `rounds == 0`.
    #[must_use]
    pub fn with_clique_rounds(mut self, rounds: usize) -> Self {
        assert!(rounds >= 1, "sticky filter needs at least one round");
        self.clique_rounds = rounds;
        self
    }

    /// Selects the off-chip decoder backend for shipped windows.
    #[must_use]
    pub fn with_backend(mut self, backend: DecoderBackend) -> Self {
        self.backend = backend;
        self
    }

    /// Sets the RNG seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// Result of a logical-error-rate measurement.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct LerEstimate {
    /// Shots simulated.
    pub shots: u64,
    /// Shots ending in a logical error.
    pub failures: u64,
    /// Shots in which Clique raised at least one complex (off-chip)
    /// flag (always 0 for the MWPM-only baseline, which ships every
    /// round unconditionally).
    pub offchip_shots: u64,
}

impl LerEstimate {
    /// Logical error rate per shot (per `d` cycles).
    #[must_use]
    pub fn rate(&self) -> f64 {
        if self.shots == 0 {
            return 0.0;
        }
        self.failures as f64 / self.shots as f64
    }

    /// Merges another estimate (e.g. from a worker thread).
    pub fn merge(&mut self, other: &LerEstimate) {
        self.shots += other.shots;
        self.failures += other.failures;
        self.offchip_shots += other.offchip_shots;
    }
}

/// Measures the logical error rate of `kind` under `cfg`.
///
/// Shot protocol (standard for the phenomenological model): `d` noisy
/// syndrome-measurement rounds followed by one perfect readout
/// round; decode; a shot fails if the residual error anti-commutes with
/// the logical operator.
#[must_use]
pub fn logical_error_rate(cfg: &ShotConfig, kind: DecoderKind) -> LerEstimate {
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
    // Reused packed round buffer: the shot loop performs no per-round
    // heap allocation (sparse flips are consumed straight off the
    // sampler, the raw round is a word copy plus bit toggles, and the
    // window/filter recycle their ring buffers).
    let mut round = PackedBits::new(n_anc);

    for _ in 0..cfg.shots {
        tracker.reset();
        frontend.reset();
        window.reset();
        let mut went_offchip = false;
        for _ in 0..rounds {
            for q in SparseFlips::new(&mut rng, n_data, p) {
                tracker.flip(q);
            }
            round.copy_from(tracker.syndrome());
            for a in SparseFlips::new(&mut rng, n_anc, p) {
                round.toggle(a);
            }
            // While the window is empty, all-zero rounds carry no
            // detection events and only shift event times uniformly, so
            // skipping them leaves the space-time matching (pairwise
            // time separations and the zero baseline) bit-identical
            // while skipping the common case's copies entirely.
            if !(window.is_empty() && round.is_zero()) {
                window.push_packed(&round);
            }
            if kind == DecoderKind::CliquePlusMwpm {
                match frontend.push_round_packed(&round) {
                    CliqueDecision::AllZeros => {}
                    CliqueDecision::Trivial(c) => tracker.apply(c.qubits()),
                    CliqueDecision::Complex => {
                        // Ship the syndromes off-chip. The complex decoder
                        // sees the full round stream (corrections commute
                        // into the Pauli frame), so its matching happens
                        // over the whole window at readout rather than on
                        // a chopped window with a noisy trailing round —
                        // decoding mid-stream would convert unpaired
                        // measurement flips into injected data errors.
                        went_offchip = true;
                    }
                }
            }
        }
        // Final perfect readout round closes the window in time; the
        // off-chip decoder resolves everything Clique did not.
        if !(window.is_empty() && tracker.syndrome().is_zero()) {
            window.push_packed(tracker.syndrome());
        }
        let cleanup = offchip.decode_window_mut(&window);
        tracker.apply(cleanup.qubits());
        debug_assert!(tracker.is_quiet(), "decode must clear the syndrome");
        est.shots += 1;
        est.failures += u64::from(code.is_logical_error(ty, tracker.errors()));
        est.offchip_shots += u64::from(went_offchip);
    }
    est
}

/// [`logical_error_rate`] over `cfg`'s fixed shard plan on a
/// `workers`-wide pool. The plan depends only on `cfg`, so the estimate
/// is bit-identical for any worker count.
///
/// # Panics
///
/// Panics if `workers == 0`.
#[must_use]
pub fn logical_error_rate_parallel(
    cfg: &ShotConfig,
    kind: DecoderKind,
    workers: usize,
) -> LerEstimate {
    let pool = Pool::new(workers);
    let plan = shard_plan(cfg);
    pool.map_reduce(
        plan.len(),
        |s| logical_error_rate(&plan[s], kind),
        LerEstimate { shots: 0, failures: 0, offchip_shots: 0 },
        |mut merged, est| {
            merged.merge(&est);
            merged
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_noise_never_fails() {
        let cfg = ShotConfig::new(3, 0.0).with_shots(500);
        for kind in [DecoderKind::MwpmOnly, DecoderKind::CliquePlusMwpm] {
            let est = logical_error_rate(&cfg, kind);
            assert_eq!(est.failures, 0);
            assert_eq!(est.offchip_shots, 0);
            assert_eq!(est.shots, 500);
        }
    }

    #[test]
    fn ler_decreases_with_distance_below_threshold() {
        // The defining property of a working decoder (Fig. 14's slope).
        let p = 8e-3;
        let d3 = logical_error_rate(
            &ShotConfig::new(3, p).with_shots(4000).with_seed(1),
            DecoderKind::MwpmOnly,
        );
        let d5 = logical_error_rate(
            &ShotConfig::new(5, p).with_shots(4000).with_seed(2),
            DecoderKind::MwpmOnly,
        );
        assert!(d3.failures > 0, "d=3 at p=8e-3 must show failures");
        assert!(
            d5.rate() < d3.rate(),
            "LER must fall with distance: d3={} d5={}",
            d3.rate(),
            d5.rate()
        );
    }

    #[test]
    fn clique_plus_mwpm_tracks_baseline_at_low_distance() {
        // Paper Sec. 7.3: "almost exactly equivalent" for d=3/5/7.
        let p = 8e-3;
        let cfg = ShotConfig::new(5, p).with_shots(6000).with_seed(3);
        let base = logical_error_rate(&cfg, DecoderKind::MwpmOnly);
        let clique = logical_error_rate(&cfg, DecoderKind::CliquePlusMwpm);
        assert!(base.failures > 0, "need a measurable baseline");
        let ratio = clique.rate() / base.rate().max(1e-9);
        assert!(
            ratio < 4.0,
            "Clique+MWPM should track baseline; ratio {ratio} (clique {} vs base {})",
            clique.rate(),
            base.rate()
        );
        assert!(clique.offchip_shots > 0, "some shots must go off-chip");
    }

    #[test]
    fn sparse_backend_tracks_dense_ler() {
        // Exactness in the shot loop: same shots, same noise, and a
        // logical error rate in the same regime (corrections may differ
        // on weight ties, so bit-identical failure sets are not
        // guaranteed — but the rates must agree within Monte Carlo
        // noise).
        let p = 8e-3;
        let cfg = ShotConfig::new(5, p).with_shots(4000).with_seed(23);
        let dense = logical_error_rate(&cfg.with_backend(crate::DENSE_MWPM), DecoderKind::MwpmOnly);
        let sparse = logical_error_rate(&cfg, DecoderKind::MwpmOnly);
        assert_eq!(dense.shots, sparse.shots);
        assert!(dense.failures > 0, "need a measurable baseline");
        let ratio = sparse.rate() / dense.rate().max(1e-9);
        assert!(
            (0.5..2.0).contains(&ratio),
            "sparse LER {} vs dense LER {}",
            sparse.rate(),
            dense.rate()
        );
    }

    #[test]
    fn estimates_are_deterministic() {
        let cfg = ShotConfig::new(3, 5e-3).with_shots(1500).with_seed(11);
        let a = logical_error_rate(&cfg, DecoderKind::CliquePlusMwpm);
        let b = logical_error_rate(&cfg, DecoderKind::CliquePlusMwpm);
        assert_eq!(a, b);
    }

    #[test]
    fn parallel_matches_shot_budget() {
        let cfg = ShotConfig::new(3, 5e-3).with_shots(2000).with_seed(5);
        let est = logical_error_rate_parallel(&cfg, DecoderKind::MwpmOnly, 4);
        assert_eq!(est.shots, 2000);
    }

    #[test]
    fn merge_adds_counters() {
        let mut a = LerEstimate { shots: 10, failures: 1, offchip_shots: 2 };
        let b = LerEstimate { shots: 5, failures: 2, offchip_shots: 1 };
        a.merge(&b);
        assert_eq!(a.shots, 15);
        assert_eq!(a.failures, 3);
        assert_eq!(a.offchip_shots, 3);
        assert!((a.rate() - 0.2).abs() < 1e-12);
    }
}

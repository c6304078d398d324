//! Cycle-by-cycle lifetime simulation of one logical qubit.

use btwc_core::{BtwcDecoder, BtwcOutcome, DecoderBackend};
use btwc_lattice::{StabilizerType, SurfaceCode};
use btwc_noise::{SimRng, SparseFlips};
use btwc_pool::Pool;
use btwc_syndrome::PackedBits;
use serde::Serialize;

use crate::tracker::ErrorTracker;

/// Cycles per deterministic work shard. Small enough that a sweep over
/// a mixed-distance grid yields many more shards than workers (so
/// the pool's queue can balance cheap d = 3 shards against expensive
/// d ≥ 13 ones), large enough that per-shard pipeline construction
/// stays in the noise.
pub(crate) const SHARD_CYCLES: u64 = 8_192;

/// Splits `cfg` into its fixed shard plan: shard count and sizes depend
/// only on `cfg.cycles` (never on the worker count), and each shard's
/// RNG stream is forked from the root seed by shard index (see
/// [`crate::shard`]). Merging the shard results in plan order therefore
/// reproduces the same [`LifetimeStats`] on any pool.
fn shard_plan(cfg: &LifetimeConfig) -> Vec<LifetimeConfig> {
    crate::shard::shard_streams(cfg.cycles, SHARD_CYCLES, cfg.seed, crate::shard::LIFETIME_STREAM)
        .into_iter()
        .map(|(cycles, rng)| {
            let mut shard = *cfg;
            shard.cycles = cycles;
            shard.seed = rng.seed();
            shard
        })
        .collect()
}

/// Parameters of a lifetime run (builder style).
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct LifetimeConfig {
    /// Code distance (odd, ≥ 3).
    pub distance: u16,
    /// Physical error rate `p` for data-qubit errors per cycle.
    pub physical_error_rate: f64,
    /// Measurement flip rate per cycle (defaults to `p`, the paper's
    /// single-parameter model; settable separately for ablations).
    pub measurement_error_rate: f64,
    /// Number of cycles to simulate.
    pub cycles: u64,
    /// Sticky-filter depth of the Clique frontend (paper default 2).
    pub clique_rounds: usize,
    /// Which off-chip decoder resolves complex windows (the unified
    /// [`DecoderBackend`] registry).
    pub backend: DecoderBackend,
    /// RNG seed.
    pub seed: u64,
}

impl LifetimeConfig {
    /// Defaults: 100k cycles, two filter rounds, seed 0.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `[0, 1]` (distance is validated by
    /// [`SurfaceCode::new`] at simulation start).
    #[must_use]
    pub fn new(distance: u16, physical_error_rate: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&physical_error_rate),
            "error rate {physical_error_rate} out of [0,1]"
        );
        Self {
            distance,
            physical_error_rate,
            measurement_error_rate: physical_error_rate,
            cycles: 100_000,
            clique_rounds: 2,
            backend: DecoderBackend::default(),
            seed: 0,
        }
    }

    /// Overrides the measurement flip rate (ablation: the paper's model
    /// ties it to the data rate).
    ///
    /// # Panics
    ///
    /// Panics if `rate` is not in `[0, 1]`.
    #[must_use]
    pub fn with_measurement_error_rate(mut self, rate: f64) -> Self {
        assert!((0.0..=1.0).contains(&rate), "rate {rate} out of [0,1]");
        self.measurement_error_rate = rate;
        self
    }

    /// Sets the cycle count.
    #[must_use]
    pub fn with_cycles(mut self, cycles: u64) -> Self {
        self.cycles = cycles;
        self
    }

    /// Sets the sticky-filter depth.
    #[must_use]
    pub fn with_clique_rounds(mut self, rounds: usize) -> Self {
        self.clique_rounds = rounds;
        self
    }

    /// Selects the off-chip decoder backend for complex windows.
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

/// Counters accumulated over a lifetime run.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct LifetimeStats {
    /// Cycles simulated.
    pub cycles: u64,
    /// Cycles whose (filtered) signature was all zeros.
    pub all_zeros: u64,
    /// Cycles decoded trivially on-chip (the paper's Local-1s).
    pub trivial: u64,
    /// Cycles flagged complex and shipped off-chip.
    pub complex: u64,
    /// Data-qubit flips applied by the on-chip Clique decoder.
    pub onchip_corrected_qubits: u64,
    /// Data-qubit flips applied by the off-chip MWPM decoder.
    pub offchip_corrected_qubits: u64,
    /// Histogram of the *raw* per-cycle syndrome weight
    /// (`raw_weight_histogram[w]` = cycles whose raw round had `w` lit
    /// ancillas) — feeds the AFS compression comparison.
    pub raw_weight_histogram: Vec<u64>,
    /// Number of ancillas per round (one stabilizer type).
    pub num_ancillas: usize,
}

impl LifetimeStats {
    fn new(num_ancillas: usize) -> Self {
        Self {
            cycles: 0,
            all_zeros: 0,
            trivial: 0,
            complex: 0,
            onchip_corrected_qubits: 0,
            offchip_corrected_qubits: 0,
            raw_weight_histogram: vec![0; num_ancillas + 1],
            num_ancillas,
        }
    }

    /// Fraction of decodes handled on-chip (Fig. 11's y-axis).
    #[must_use]
    pub fn coverage(&self) -> f64 {
        if self.cycles == 0 {
            return 1.0;
        }
        (self.all_zeros + self.trivial) as f64 / self.cycles as f64
    }

    /// Fraction of decodes that go off-chip (`1 - coverage`): the
    /// per-qubit, per-cycle off-chip decode probability `q` the
    /// statistical bandwidth allocator provisions against (Sec. 5.1).
    #[must_use]
    pub fn offchip_fraction(&self) -> f64 {
        1.0 - self.coverage()
    }

    /// Of the on-chip decodes, the fraction that actually carried errors
    /// (Fig. 12's y-axis): all-zero handling needs no decoder at all,
    /// so this is the share of Clique's coverage that earns its keep.
    #[must_use]
    pub fn nonzero_onchip_fraction(&self) -> f64 {
        let onchip = self.all_zeros + self.trivial;
        if onchip == 0 {
            return 0.0;
        }
        self.trivial as f64 / onchip as f64
    }

    /// Fraction of cycles whose *raw* round was all zeros.
    #[must_use]
    pub fn raw_all_zero_fraction(&self) -> f64 {
        if self.cycles == 0 {
            return 1.0;
        }
        self.raw_weight_histogram[0] as f64 / self.cycles as f64
    }

    /// Merges another run's counters (e.g. from a worker thread).
    ///
    /// # Panics
    ///
    /// Panics if the ancilla counts differ.
    pub fn merge(&mut self, other: &LifetimeStats) {
        assert_eq!(self.num_ancillas, other.num_ancillas, "incompatible stats");
        self.cycles += other.cycles;
        self.all_zeros += other.all_zeros;
        self.trivial += other.trivial;
        self.complex += other.complex;
        self.onchip_corrected_qubits += other.onchip_corrected_qubits;
        self.offchip_corrected_qubits += other.offchip_corrected_qubits;
        for (a, b) in self.raw_weight_histogram.iter_mut().zip(&other.raw_weight_histogram) {
            *a += b;
        }
    }
}

/// The per-cycle decode pipeline of the paper's Fig. 2 for one logical
/// qubit: noise → syndrome round → a [`BtwcDecoder`] (Clique frontend →
/// on-chip correction or off-chip matching by the backend chosen with
/// [`LifetimeConfig::with_backend`]).
pub struct LifetimeSim {
    cfg: LifetimeConfig,
    code: SurfaceCode,
    tracker: ErrorTracker,
    /// The decode pipeline; each shard owns its own.
    pipeline: BtwcDecoder,
    rng: SimRng,
    /// Reused packed buffer for the current raw measurement round.
    round: PackedBits,
    stats: LifetimeStats,
}

impl std::fmt::Debug for LifetimeSim {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LifetimeSim")
            .field("cfg", &self.cfg)
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

impl LifetimeSim {
    /// Builds the pipeline for `cfg`.
    #[must_use]
    pub fn new(cfg: &LifetimeConfig) -> Self {
        let ty = StabilizerType::X;
        let code = SurfaceCode::new(cfg.distance);
        let tracker = ErrorTracker::new(&code, ty);
        let pipeline = BtwcDecoder::builder(&code, ty)
            .clique_rounds(cfg.clique_rounds)
            .backend(cfg.backend)
            .build();
        let n_anc = code.num_ancillas(ty);
        let stats = LifetimeStats::new(n_anc);
        Self {
            cfg: *cfg,
            rng: SimRng::from_seed(cfg.seed),
            round: PackedBits::new(n_anc),
            code,
            tracker,
            pipeline,
            stats,
        }
    }

    /// The code being simulated.
    #[must_use]
    pub fn code(&self) -> &SurfaceCode {
        &self.code
    }

    /// Advances one cycle; returns whether this cycle needed an off-chip
    /// decode.
    pub fn step(&mut self) -> bool {
        let p = self.cfg.physical_error_rate;
        // 1. Inject this cycle's data errors (accumulate, straight off
        //    the sparse sampler — no per-cycle allocation)...
        let n_data = self.code.num_data_qubits();
        for q in SparseFlips::new(&mut self.rng, n_data, p) {
            self.tracker.flip(q);
        }
        // 2. The raw measurement round: a word copy of the packed
        //    syndrome, with transient measurement flips toggled in.
        let n_anc = self.stats.num_ancillas;
        let pm = self.cfg.measurement_error_rate;
        self.round.copy_from(self.tracker.syndrome());
        for a in SparseFlips::new(&mut self.rng, n_anc, pm) {
            self.round.toggle(a);
        }
        let weight = self.round.weight();
        self.stats.raw_weight_histogram[weight] += 1;
        // 3. The pipeline: decode window, Clique decision on the
        //    sticky-filtered syndrome, and the off-chip decode of a
        //    complex window (see `BtwcDecoder::process_round_packed`).
        self.stats.cycles += 1;
        match self.pipeline.process_round_packed(&self.round) {
            BtwcOutcome::Quiet => {
                self.stats.all_zeros += 1;
                false
            }
            BtwcOutcome::OnChip(c) => {
                self.stats.trivial += 1;
                self.stats.onchip_corrected_qubits += c.weight() as u64;
                self.tracker.apply(c.qubits());
                false
            }
            BtwcOutcome::OffChip(c) => {
                self.stats.complex += 1;
                self.stats.offchip_corrected_qubits += c.weight() as u64;
                self.tracker.apply(c.qubits());
                true
            }
            // Only a machine with a faulty link degrades; the pipeline
            // has no link.
            BtwcOutcome::Degraded(_) => unreachable!("a BtwcDecoder never degrades"),
        }
    }

    /// Runs to completion, returning the accumulated statistics.
    #[must_use]
    pub fn run(mut self) -> LifetimeStats {
        for _ in 0..self.cfg.cycles {
            let _ = self.step();
        }
        self.stats
    }

    /// Runs to completion, also returning the per-cycle off-chip flag
    /// trace (input to the bandwidth study).
    #[must_use]
    pub fn run_with_trace(mut self) -> (LifetimeStats, Vec<bool>) {
        let mut trace = Vec::with_capacity(self.cfg.cycles as usize);
        for _ in 0..self.cfg.cycles {
            trace.push(self.step());
        }
        (self.stats, trace)
    }

    /// Runs `cfg`'s fixed shard plan on a `workers`-wide pool and
    /// merges the shard statistics in plan order.
    ///
    /// The shard plan depends only on `cfg`, so the returned stats are
    /// **bit-identical for any worker count** — the pool decides where
    /// shards run, never what they compute.
    ///
    /// # Panics
    ///
    /// Panics if `workers == 0`.
    #[must_use]
    pub fn run_parallel(cfg: &LifetimeConfig, workers: usize) -> LifetimeStats {
        let plan = shard_plan(cfg);
        let shard_stats = Pool::new(workers).map(&plan, |_, shard| LifetimeSim::new(shard).run());
        let mut merged: Option<LifetimeStats> = None;
        for stats in shard_stats {
            match &mut merged {
                None => merged = Some(stats),
                Some(m) => m.merge(&stats),
            }
        }
        merged.expect("at least one shard ran")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_noise_is_all_zeros_forever() {
        let cfg = LifetimeConfig::new(3, 0.0).with_cycles(1000);
        let stats = LifetimeSim::new(&cfg).run();
        assert_eq!(stats.all_zeros, 1000);
        assert_eq!(stats.complex, 0);
        assert!((stats.coverage() - 1.0).abs() < 1e-12);
        assert!((stats.raw_all_zero_fraction() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn counters_are_consistent() {
        let cfg = LifetimeConfig::new(5, 2e-3).with_cycles(30_000).with_seed(3);
        let stats = LifetimeSim::new(&cfg).run();
        assert_eq!(stats.cycles, 30_000);
        assert_eq!(stats.all_zeros + stats.trivial + stats.complex, stats.cycles);
        let hist_total: u64 = stats.raw_weight_histogram.iter().sum();
        assert_eq!(hist_total, stats.cycles);
    }

    #[test]
    fn coverage_is_high_at_practical_rates() {
        // Paper Fig. 11: >90% on-chip at p=1e-3 for moderate distances.
        let cfg = LifetimeConfig::new(7, 1e-3).with_cycles(50_000).with_seed(11);
        let stats = LifetimeSim::new(&cfg).run();
        assert!(stats.coverage() > 0.90, "coverage {}", stats.coverage());
        assert!(stats.complex > 0, "complex decodes must occur at p=1e-3");
    }

    #[test]
    fn coverage_falls_with_error_rate() {
        let lo = LifetimeSim::new(&LifetimeConfig::new(7, 5e-4).with_cycles(40_000).with_seed(1))
            .run()
            .coverage();
        let hi = LifetimeSim::new(&LifetimeConfig::new(7, 8e-3).with_cycles(40_000).with_seed(1))
            .run()
            .coverage();
        assert!(lo > hi, "coverage must fall with p: {lo} vs {hi}");
    }

    #[test]
    fn simulation_is_deterministic() {
        let cfg = LifetimeConfig::new(5, 3e-3).with_cycles(20_000).with_seed(42);
        let a = LifetimeSim::new(&cfg).run();
        let b = LifetimeSim::new(&cfg).run();
        assert_eq!(a, b);
    }

    #[test]
    fn trace_matches_complex_count() {
        let cfg = LifetimeConfig::new(5, 5e-3).with_cycles(20_000).with_seed(9);
        let (stats, trace) = LifetimeSim::new(&cfg).run_with_trace();
        let offchip = trace.iter().filter(|&&t| t).count() as u64;
        assert_eq!(offchip, stats.complex);
        assert_eq!(trace.len(), 20_000);
    }

    #[test]
    fn residual_errors_stay_bounded() {
        // The decode loop must not accumulate an unbounded error state —
        // every detectable error eventually gets corrected.
        let cfg = LifetimeConfig::new(7, 5e-3).with_cycles(30_000).with_seed(5);
        let mut sim = LifetimeSim::new(&cfg);
        for _ in 0..30_000 {
            let _ = sim.step();
        }
        // After the run, the live error weight should be small (only
        // in-flight, not-yet-confirmed errors remain detectable; quiet
        // residuals are stabilizers or logicals, which are rare).
        assert!(
            sim.tracker.syndrome_weight() < 20,
            "syndrome weight {} keeps growing",
            sim.tracker.syndrome_weight()
        );
    }

    #[test]
    fn sparse_backend_matches_dense_quality() {
        // The sparse matcher is exact, so a lifetime stream decoded with
        // it must show the same coverage signature (identical cycle
        // classification — the Clique frontend is untouched) and keep
        // the residual error just as bounded.
        let base = LifetimeConfig::new(7, 4e-3).with_cycles(30_000).with_seed(17);
        let dense = LifetimeSim::new(&base.with_backend(crate::DENSE_MWPM)).run();
        let sparse = LifetimeSim::new(&base).run();
        assert_eq!(dense.cycles, sparse.cycles);
        assert!(sparse.complex > 0, "complex decodes must occur");
        // Classification happens before the off-chip decode, and both
        // matchers clear the window equivalently, so the coverage
        // trajectories stay statistically indistinguishable.
        let delta = (dense.coverage() - sparse.coverage()).abs();
        assert!(
            delta < 0.01,
            "coverage drifted: dense {} sparse {}",
            dense.coverage(),
            sparse.coverage()
        );
    }

    #[test]
    fn parallel_run_merges_all_cycles() {
        let cfg = LifetimeConfig::new(5, 1e-3).with_cycles(40_000).with_seed(21);
        let stats = LifetimeSim::run_parallel(&cfg, 4);
        assert_eq!(stats.cycles, 40_000);
        assert_eq!(stats.all_zeros + stats.trivial + stats.complex, 40_000);
    }

    #[test]
    fn more_filter_rounds_suppress_measurement_flukes() {
        // Isolate measurement noise: with data errors off, every complex
        // decode is a measurement fluke that leaked through the filter.
        // A k-round filter leaks at p^k, so k=3 sees far fewer than k=2.
        let base = LifetimeConfig::new(5, 0.0)
            .with_measurement_error_rate(0.05)
            .with_cycles(60_000)
            .with_seed(13);
        let k2 = LifetimeSim::new(&base).run();
        let k3 = LifetimeSim::new(&base.with_clique_rounds(3)).run();
        assert!(k2.complex > 100, "k=2 must leak flukes, got {}", k2.complex);
        assert!(
            (k3.complex as f64) < 0.3 * k2.complex as f64,
            "k=3 complex {} vs k=2 complex {}",
            k3.complex,
            k2.complex
        );
    }
}

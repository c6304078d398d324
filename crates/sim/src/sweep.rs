//! Parameter sweeps backing Figs. 4, 11, 12 and 13.

use btwc_afs::{Compressor, SparseRepr};
use btwc_clique::{CliqueDecision, CliqueDecoder};
use btwc_lattice::{StabilizerType, SurfaceCode};
use btwc_noise::{SimRng, SparseFlips};
use btwc_pool::Pool;
use btwc_syndrome::{PackedBits, Syndrome};
use serde::Serialize;

use crate::lifetime::{self, LifetimeConfig, LifetimeSim, LifetimeStats};
use crate::tracker::ErrorTracker;

/// Independent trials per deterministic work shard of the iid engines
/// (each trial is two filtered rounds — far cheaper than a lifetime
/// cycle, hence the larger shard).
pub(crate) const SHARD_TRIALS: u64 = 16_384;

/// The root seed of grid point `(p_index, d_index)` in a sweep seeded
/// with `seed`.
///
/// Every grid point used to receive the *identical* root seed, which
/// correlated the points (the same error history replayed on each
/// distance). Forking by grid position — in the sweeps' own slice of
/// the fork-stream space (see [`crate::shard`]), 20 bits per axis —
/// decorrelates them while keeping each point individually
/// reproducible: running [`LifetimeSim::run_parallel`] with this seed
/// reproduces the sweep's point bit-for-bit, on any worker count.
///
/// # Panics
///
/// Panics if either index exceeds 2²⁰ − 1 (a grid axis a million points
/// wide is a misuse, not a workload).
#[must_use]
pub fn grid_point_seed(seed: u64, p_index: usize, d_index: usize) -> u64 {
    assert!(p_index < (1 << 20) && d_index < (1 << 20), "grid axis out of range");
    let stream = crate::shard::GRID_STREAM + (((p_index as u64) << 20) | d_index as u64);
    SimRng::from_seed(seed).fork(stream).seed()
}

/// One Clique coverage measurement (a point of Figs. 11 and 12).
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct CoveragePoint {
    /// Code distance.
    pub distance: u16,
    /// Physical error rate.
    pub physical_error_rate: f64,
    /// Fraction of decodes handled on-chip (Fig. 11).
    pub coverage: f64,
    /// Of the on-chip decodes, the fraction that carried errors (Fig. 12).
    pub nonzero_onchip: f64,
    /// Per-cycle off-chip probability (`1 − coverage`).
    pub offchip_fraction: f64,
}

/// Sweeps Clique coverage over a `(p, d)` grid (Figs. 11–12).
///
/// Every `(point, shard)` task of the whole grid is submitted to one
/// pool at once, so idle workers pull tasks across point
/// boundaries — cheap d = 3 points no longer leave cores waiting on
/// expensive d ≥ 13 ones at a per-point barrier. Each point's root seed
/// comes from [`grid_point_seed`], so points are decorrelated yet
/// individually reproducible, and the whole sweep is bit-identical for
/// any worker count.
#[must_use]
pub fn coverage_sweep(
    error_rates: &[f64],
    distances: &[u16],
    cycles: u64,
    seed: u64,
    workers: usize,
) -> Vec<CoveragePoint> {
    let pool = Pool::new(workers);
    let mut points = Vec::with_capacity(error_rates.len() * distances.len());
    let mut tasks = Vec::new();
    for (pi, &p) in error_rates.iter().enumerate() {
        for (di, &d) in distances.iter().enumerate() {
            let cfg = LifetimeConfig::new(d, p)
                .with_cycles(cycles)
                .with_seed(grid_point_seed(seed, pi, di));
            let point = points.len();
            tasks.extend(lifetime::shard_plan(&cfg).into_iter().map(|shard| (point, shard)));
            points.push(cfg);
        }
    }
    let shard_stats = pool.map(&tasks, |_, (point, shard)| (*point, LifetimeSim::new(shard).run()));
    // `map` returns in task order, i.e. shard order within each point:
    // this merge is exactly the one `run_parallel` performs per point.
    let mut merged: Vec<Option<LifetimeStats>> = vec![None; points.len()];
    for (point, stats) in shard_stats {
        match &mut merged[point] {
            None => merged[point] = Some(stats),
            Some(m) => m.merge(&stats),
        }
    }
    points
        .iter()
        .zip(merged)
        .map(|(cfg, stats)| {
            let stats = stats.expect("every point has at least one shard");
            CoveragePoint {
                distance: cfg.distance,
                physical_error_rate: cfg.physical_error_rate,
                coverage: stats.coverage(),
                nonzero_onchip: stats.nonzero_onchip_fraction(),
                offchip_fraction: stats.offchip_fraction(),
            }
        })
        .collect()
}

/// One column of Fig. 4: the signature-class distribution for a
/// `(p, d)` scenario.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SignatureDistribution {
    /// Scenario label (e.g. `"5E-3/1E-5 (25)"`).
    pub label: String,
    /// Code distance.
    pub distance: u16,
    /// Physical error rate.
    pub physical_error_rate: f64,
    /// Fraction of cycles with an all-zero (filtered) signature.
    pub all_zeros: f64,
    /// Fraction decoded trivially on-chip (Local-1s).
    pub local_ones: f64,
    /// Fraction flagged complex.
    pub complex: f64,
}

/// Measures one Fig. 4 column.
#[must_use]
pub fn signature_distribution(
    label: &str,
    distance: u16,
    physical_error_rate: f64,
    cycles: u64,
    seed: u64,
    workers: usize,
) -> SignatureDistribution {
    let cfg =
        LifetimeConfig::new(distance, physical_error_rate).with_cycles(cycles).with_seed(seed);
    let stats = LifetimeSim::run_parallel(&cfg, workers);
    let n = stats.cycles as f64;
    SignatureDistribution {
        label: label.to_owned(),
        distance,
        physical_error_rate,
        all_zeros: stats.all_zeros as f64 / n,
        local_ones: stats.trivial as f64 / n,
        complex: stats.complex as f64 / n,
    }
}

/// Measures one Fig. 4 column the way the paper does — independent
/// trials, not a decode stream: each trial injects one cycle's worth of
/// fresh data errors onto a clean lattice, measures the syndrome over
/// two rounds with independent measurement noise (the Clique filter's
/// exposure), and classifies the filtered signature with the Clique
/// decision logic.
#[must_use]
pub fn signature_distribution_iid(
    label: &str,
    distance: u16,
    physical_error_rate: f64,
    trials: u64,
    seed: u64,
    workers: usize,
) -> SignatureDistribution {
    let pool = Pool::new(workers);
    let plan = iid_shard_plan(trials, seed);
    let counts = pool.map_reduce(
        plan.len(),
        |s| {
            let (n, rng) = &plan[s];
            iid_trial_shard(distance, physical_error_rate, *n, rng.clone())
        },
        [0u64; 3],
        merge_counts,
    );
    let n = trials.max(1) as f64;
    SignatureDistribution {
        label: label.to_owned(),
        distance,
        physical_error_rate,
        all_zeros: counts[0] as f64 / n,
        local_ones: counts[1] as f64 / n,
        complex: counts[2] as f64 / n,
    }
}

/// The fixed shard plan of an iid-trial measurement: `(trial count,
/// forked RNG)` per shard, depending only on `(trials, seed)` — never
/// on the worker count.
fn iid_shard_plan(trials: u64, seed: u64) -> Vec<(u64, SimRng)> {
    crate::shard::shard_streams(trials, SHARD_TRIALS, seed, crate::shard::IID_STREAM)
}

fn merge_counts(mut acc: [u64; 3], local: [u64; 3]) -> [u64; 3] {
    for (a, l) in acc.iter_mut().zip(local) {
        *a += l;
    }
    acc
}

/// One iid shard: `n` independent trials classified with the Clique
/// decision logic — `[all-zeros, local-ones, complex]` counts.
fn iid_trial_shard(distance: u16, p: f64, n: u64, mut rng: SimRng) -> [u64; 3] {
    let ty = StabilizerType::X;
    let code = SurfaceCode::new(distance);
    let decoder = CliqueDecoder::new(&code, ty);
    let mut tracker = ErrorTracker::new(&code, ty);
    let n_anc = code.num_ancillas(ty);
    let n_data = code.num_data_qubits();
    let mut local = [0u64; 3];
    // Reused packed buffers: the trial loop allocates nothing per
    // iteration.
    let mut round1 = PackedBits::new(n_anc);
    let mut round2 = PackedBits::new(n_anc);
    let mut filtered = Syndrome::new(n_anc);
    for _ in 0..n {
        tracker.reset();
        for q in SparseFlips::new(&mut rng, n_data, p) {
            tracker.flip(q);
        }
        // Two measurement rounds of the same error state with
        // independent measurement noise, AND-combined (the Fig. 7
        // sticky filter) — all word ops.
        round1.copy_from(tracker.syndrome());
        for a in SparseFlips::new(&mut rng, n_anc, p) {
            round1.toggle(a);
        }
        round2.copy_from(tracker.syndrome());
        for a in SparseFlips::new(&mut rng, n_anc, p) {
            round2.toggle(a);
        }
        filtered.copy_from(&round1);
        filtered.and_with(&round2);
        let idx = match decoder.decode(&filtered) {
            CliqueDecision::AllZeros => 0,
            CliqueDecision::Trivial(_) => 1,
            CliqueDecision::Complex => 2,
        };
        local[idx] += 1;
    }
    local
}

/// Sweeps the iid per-signature Clique coverage over a `(p, d)` grid —
/// the paper's Figs. 11/12 methodology (independent trials, like
/// Fig. 4). The *operational* stream coverage, which compounds
/// in-flight errors across cycles and is what the bandwidth provisioner
/// must plan for, comes from [`coverage_sweep`] instead.
#[must_use]
pub fn coverage_sweep_iid(
    error_rates: &[f64],
    distances: &[u16],
    trials: u64,
    seed: u64,
    workers: usize,
) -> Vec<CoveragePoint> {
    let pool = Pool::new(workers);
    // Whole-grid schedule, as in [`coverage_sweep`]: all (point, shard)
    // trial batches go into one pool, with per-point seeds forked by
    // grid position.
    let mut points = Vec::with_capacity(error_rates.len() * distances.len());
    let mut tasks = Vec::new();
    for (pi, &p) in error_rates.iter().enumerate() {
        for (di, &d) in distances.iter().enumerate() {
            let point = points.len();
            let plan = iid_shard_plan(trials, grid_point_seed(seed, pi, di));
            tasks.extend(plan.into_iter().map(|(n, rng)| (point, n, rng)));
            points.push((d, p));
        }
    }
    let shard_counts = pool.map(&tasks, |_, (point, n, rng)| {
        let &(d, p) = &points[*point];
        (*point, iid_trial_shard(d, p, *n, rng.clone()))
    });
    let mut counts = vec![[0u64; 3]; points.len()];
    for (point, local) in shard_counts {
        counts[point] = merge_counts(counts[point], local);
    }
    let n = trials.max(1) as f64;
    points
        .iter()
        .zip(counts)
        .map(|(&(d, p), c)| {
            // The same arithmetic as deriving the point from a
            // [`signature_distribution_iid`] measurement (fractions
            // first, then their sum), so the two stay bit-identical.
            let (all_zeros, local_ones) = (c[0] as f64 / n, c[1] as f64 / n);
            let onchip = all_zeros + local_ones;
            CoveragePoint {
                distance: d,
                physical_error_rate: p,
                coverage: onchip,
                nonzero_onchip: if onchip > 0.0 { local_ones / onchip } else { 0.0 },
                offchip_fraction: c[2] as f64 / n,
            }
        })
        .collect()
}

/// One point of the Fig. 13 comparison: average off-chip data reduction
/// of AFS sparse compression versus Clique, for the same error stream.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct AfsComparison {
    /// Code distance.
    pub distance: u16,
    /// Physical error rate.
    pub physical_error_rate: f64,
    /// Raw syndrome bits per cycle (`(d²-1)/2`).
    pub raw_bits: usize,
    /// AFS sparse-representation reduction factor (raw / compressed).
    pub afs_reduction: f64,
    /// Clique reduction factor (only complex cycles ship, uncompressed).
    pub clique_reduction: f64,
}

/// Computes the Fig. 13 point for a finished lifetime run.
///
/// AFS's cost is evaluated exactly — the sparse-representation bit cost
/// depends only on the syndrome weight, which the lifetime simulator
/// histograms — while Clique ships the raw round only on complex
/// cycles.
#[must_use]
pub fn afs_comparison(
    distance: u16,
    physical_error_rate: f64,
    stats: &LifetimeStats,
) -> AfsComparison {
    let n = stats.num_ancillas;
    let codec = SparseRepr::new(n);
    // Bit cost per syndrome weight, via the real encoder.
    let mut afs_bits_total = 0u128;
    for (w, &count) in stats.raw_weight_histogram.iter().enumerate() {
        if count == 0 {
            continue;
        }
        let mut s = Syndrome::new(n);
        for i in 0..w {
            s.set(i, true);
        }
        afs_bits_total += codec.encoded_len(&s) as u128 * u128::from(count);
    }
    let cycles = stats.cycles.max(1) as f64;
    let raw_total = n as f64 * cycles;
    let afs_mean = afs_bits_total as f64 / cycles;
    let clique_mean = stats.complex as f64 * n as f64 / cycles;
    AfsComparison {
        distance,
        physical_error_rate,
        raw_bits: n,
        afs_reduction: raw_total / afs_bits_total.max(1) as f64,
        clique_reduction: if clique_mean > 0.0 { n as f64 / clique_mean } else { f64::INFINITY },
    }
    .validated(afs_mean)
}

impl AfsComparison {
    fn validated(self, afs_mean: f64) -> Self {
        debug_assert!(afs_mean >= 1.0, "AFS always ships at least the flag bit");
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coverage_sweep_has_expected_grid() {
        let pts = coverage_sweep(&[1e-3, 5e-3], &[3, 5], 10_000, 1, 2);
        assert_eq!(pts.len(), 4);
        for p in &pts {
            assert!((0.0..=1.0).contains(&p.coverage));
            assert!((0.0..=1.0).contains(&p.nonzero_onchip));
            assert!((p.coverage + p.offchip_fraction - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn coverage_decreases_with_distance_at_fixed_p() {
        // Fig. 11: more ancillas, more chances for complex patterns.
        let pts = coverage_sweep(&[5e-3], &[3, 9], 60_000, 7, 4);
        assert!(
            pts[0].coverage > pts[1].coverage,
            "d=3 {} vs d=9 {}",
            pts[0].coverage,
            pts[1].coverage
        );
    }

    #[test]
    fn distribution_fractions_sum_to_one() {
        let dist = signature_distribution("1E-3 (5)", 5, 1e-3, 20_000, 3, 2);
        let total = dist.all_zeros + dist.local_ones + dist.complex;
        assert!((total - 1.0).abs() < 1e-9);
        assert!(dist.all_zeros > dist.complex, "common case dominates");
    }

    #[test]
    fn afs_comparison_favors_clique() {
        // Fig. 13: Clique beats AFS sparse compression by 10x+ at
        // practical rates.
        let cfg = LifetimeConfig::new(7, 1e-3).with_cycles(60_000).with_seed(9);
        let stats = LifetimeSim::new(&cfg).run();
        let cmp = afs_comparison(7, 1e-3, &stats);
        assert!(cmp.afs_reduction > 1.0, "AFS reduces: {}", cmp.afs_reduction);
        assert!(
            cmp.clique_reduction > cmp.afs_reduction,
            "clique {} must beat AFS {}",
            cmp.clique_reduction,
            cmp.afs_reduction
        );
        assert_eq!(cmp.raw_bits, 24);
    }

    #[test]
    fn afs_reduction_shrinks_with_error_rate() {
        let stats_lo = LifetimeSim::new(&LifetimeConfig::new(5, 5e-4).with_cycles(40_000)).run();
        let stats_hi = LifetimeSim::new(&LifetimeConfig::new(5, 8e-3).with_cycles(40_000)).run();
        let lo = afs_comparison(5, 5e-4, &stats_lo);
        let hi = afs_comparison(5, 8e-3, &stats_hi);
        assert!(
            lo.afs_reduction > hi.afs_reduction,
            "denser syndromes compress worse: {} vs {}",
            lo.afs_reduction,
            hi.afs_reduction
        );
    }
}

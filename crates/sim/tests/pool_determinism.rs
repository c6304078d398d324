//! Worker-count independence of every parallel sim path.
//!
//! The pool contract: work is split into fixed shards with RNG streams
//! forked by shard index and merged in shard order, so worker count is
//! purely a scheduling choice. These tests pin that — any future change
//! that lets the worker count leak into shard planning or merge order
//! fails here (CI additionally re-runs the suite with `BTWC_WORKERS=1`
//! forcing every pool to one worker).

use btwc_sim::{
    coverage_sweep_iid, grid_point_seed, logical_error_rate_parallel, signature_distribution_iid,
    DecoderKind, LifetimeConfig, LifetimeSim, ShotConfig,
};

const WORKER_COUNTS: [usize; 3] = [1, 2, 8];

#[test]
fn lifetime_stats_identical_across_worker_counts() {
    // 20k cycles → 3 shards: the plan is split and merged, not trivial.
    let cfg = LifetimeConfig::new(5, 3e-3).with_cycles(20_000).with_seed(42);
    let reference = LifetimeSim::run_parallel(&cfg, WORKER_COUNTS[0]);
    assert_eq!(reference.cycles, 20_000);
    assert!(reference.complex > 0, "need complex decodes for a meaningful pin");
    for workers in &WORKER_COUNTS[1..] {
        assert_eq!(LifetimeSim::run_parallel(&cfg, *workers), reference, "workers={workers}");
    }
}

#[test]
fn ler_estimate_identical_across_worker_counts() {
    let cfg = ShotConfig::new(3, 5e-3).with_shots(600).with_seed(11);
    let reference = logical_error_rate_parallel(&cfg, DecoderKind::CliquePlusMwpm, 1);
    assert_eq!(reference.shots, 600);
    for workers in &WORKER_COUNTS[1..] {
        assert_eq!(
            logical_error_rate_parallel(&cfg, DecoderKind::CliquePlusMwpm, *workers),
            reference,
            "workers={workers}"
        );
    }
}

#[test]
fn coverage_sweep_iid_identical_across_worker_counts() {
    let rates = [1e-3, 5e-3];
    let distances = [3u16, 5];
    let reference = coverage_sweep_iid(&rates, &distances, 40_000, 3, 1);
    for workers in &WORKER_COUNTS[1..] {
        assert_eq!(
            coverage_sweep_iid(&rates, &distances, 40_000, 3, *workers),
            reference,
            "workers={workers}"
        );
    }
}

#[test]
fn signature_distribution_iid_identical_across_worker_counts() {
    // 40k trials → 3 shards.
    let reference = signature_distribution_iid("iid", 5, 2e-3, 40_000, 9, 1);
    for workers in &WORKER_COUNTS[1..] {
        assert_eq!(
            signature_distribution_iid("iid", 5, 2e-3, 40_000, 9, *workers),
            reference,
            "workers={workers}"
        );
    }
}

#[test]
fn iid_sweep_points_match_standalone_distribution() {
    let rates = [2e-3, 5e-3];
    let distances = [3u16, 5];
    let sweep = coverage_sweep_iid(&rates, &distances, 30_000, 13, 4);
    for (pi, &p) in rates.iter().enumerate() {
        for (di, &d) in distances.iter().enumerate() {
            let dist = signature_distribution_iid("", d, p, 30_000, grid_point_seed(13, pi, di), 2);
            let point = sweep[pi * distances.len() + di];
            assert_eq!(point.coverage, dist.all_zeros + dist.local_ones, "p={p} d={d}");
            assert_eq!(point.offchip_fraction, dist.complex, "p={p} d={d}");
        }
    }
}

#[test]
fn grid_points_get_decorrelated_seeds() {
    // The old sweep reused one root seed for every grid point, so two
    // points at the same distance replayed the identical error history.
    // Grid-position forking must give every point a distinct stream.
    let mut seeds: Vec<u64> = Vec::new();
    for pi in 0..4 {
        for di in 0..4 {
            seeds.push(grid_point_seed(99, pi, di));
        }
    }
    seeds.sort_unstable();
    seeds.dedup();
    assert_eq!(seeds.len(), 16, "every grid position must fork a distinct seed");

    // And the derived runs actually diverge: same (p, d), different
    // grid position → different sampled history.
    let a = LifetimeSim::run_parallel(
        &LifetimeConfig::new(3, 5e-3).with_cycles(5_000).with_seed(grid_point_seed(99, 0, 0)),
        1,
    );
    let b = LifetimeSim::run_parallel(
        &LifetimeConfig::new(3, 5e-3).with_cycles(5_000).with_seed(grid_point_seed(99, 1, 0)),
        1,
    );
    assert_ne!(a, b, "decorrelated points must sample different histories");
}

//! Monte Carlo lifetime simulation — the paper's evaluation methodology
//! (Sec. 6.1) as a library.
//!
//! Two simulation modes drive every figure in the paper:
//!
//! * **Lifetime** ([`LifetimeSim`]) — one logical qubit decoded cycle by
//!   cycle for millions of cycles: errors are injected, the Clique
//!   frontend filters and decides, trivial decodes are corrected
//!   on-chip, complex ones go to the space-time MWPM decoder. Produces
//!   the operational per-cycle off-chip probability (Fig. 16) and — via
//!   the raw syndrome weight histogram — the AFS bandwidth comparison
//!   (Fig. 13). Figs. 4, 11 and 12 use the paper's independent-trial
//!   method instead ([`signature_distribution_iid`],
//!   [`coverage_sweep_iid`]).
//! * **Shots** ([`logical_error_rate`]) — fixed windows of `d` noisy
//!   rounds plus a perfect readout round, decoded either by MWPM alone
//!   (the baseline) or by Clique+MWPM (the proposal), counting logical
//!   failures (Fig. 14).
//!
//! Whole machines — the closed loop behind the bandwidth study (Figs. 9
//! and 16) — have two drivers that take the same [`MachineSpec`] and
//! return the same [`MachineRun`]: [`machine_trace`] steps one machine
//! inline, and [`machine_farm_trace`] steps a fleet in lockstep through
//! one shared [`DecodeFarm`]. The per-qubit off-chip probability the
//! allocator provisions against is [`LifetimeStats::offchip_fraction`].
//!
//! Everything is deterministic given a seed. Parallel execution runs on
//! the workspace's thread pool ([`Pool`], re-exported here): work is
//! split into *fixed* shards with RNG streams forked by shard
//! index and merged in shard order, so every result — [`LifetimeStats`],
//! [`LerEstimate`], sweep points — is **bit-identical regardless of the
//! worker count** (override it globally with `BTWC_WORKERS`). The grid
//! sweep ([`coverage_sweep_iid`]) submits all `(p, d) × shard` tasks to
//! one pool at once, so its shared queue balances cheap low-distance
//! points against expensive high-distance ones instead of barriering
//! per point; each point's seed is forked from
//! its grid position ([`grid_point_seed`]), decorrelating points while
//! keeping every one individually reproducible. Both engines pick
//! their off-chip decoder through the unified [`DecoderBackend`]
//! registry (`with_backend` on either config): the exact sparse-blossom
//! matcher (the default), union-find, the lookup table, or a custom
//! factory — each used through its lock-free `&mut`
//! decode path, one decoder per worker, no synchronization per
//! complex decode.
//!
//! # Example
//!
//! ```
//! use btwc_sim::{LifetimeConfig, LifetimeSim};
//!
//! let cfg = LifetimeConfig::new(5, 1e-3).with_cycles(20_000).with_seed(7);
//! let stats = LifetimeSim::new(&cfg).run();
//! assert!(stats.coverage() > 0.9, "Clique covers the common case");
//! ```

mod farm;
mod ler;
mod lifetime;
mod machine;
mod shard;
mod sweep;
mod tracker;

// Both engines take an off-chip decoder choice through their configs;
// re-export the unified selector so sim users don't need a separate
// `btwc_core` import. Likewise the pool, so callers can size one
// (`Pool::auto()`) without a `btwc_pool` import.
pub use btwc_core::DecoderBackend;
pub use btwc_pool::Pool;
// The decode-farm service tier: the fleet driver lives here, the farm
// itself in `btwc_farm` (re-exported so fleet callers need one import).
pub use btwc_farm::{DecodeFarm, FarmConfig, SnapshotExport, TenantId, TenantSubmission};
pub use farm::{machine_farm_trace, FarmRun, FarmTenantRun};
pub use ler::{
    logical_error_rate, logical_error_rate_parallel, DecoderKind, LerEstimate, ShotConfig,
};
pub use lifetime::{LifetimeConfig, LifetimeSim, LifetimeStats};
pub use machine::{machine_trace, MachineRun, MachineSpec};
pub use sweep::{
    afs_comparison, coverage_sweep_iid, grid_point_seed, signature_distribution_iid, AfsComparison,
    CoveragePoint, SignatureDistribution,
};
pub use tracker::ErrorTracker;

/// The dense O(n³) matcher as a custom backend: the weight-equal
/// reference the unit tests hold the default sparse matcher against.
#[cfg(test)]
pub(crate) const DENSE_MWPM: DecoderBackend = DecoderBackend::Custom {
    name: "dense-mwpm",
    build: |code, ty| Box::new(btwc_mwpm::MwpmDecoder::new(code, ty)),
};

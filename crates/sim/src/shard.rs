//! Deterministic shard planning shared by every parallel sim engine.
//!
//! The worker-count-independence contract lives in one shape: split the
//! total work into fixed shards whose count and sizes depend only on
//! the configuration, and fork each shard's RNG stream from the root
//! seed by shard index. Every engine plans through [`shard_streams`] so
//! a change to that shape (or to the stream layout) cannot silently
//! diverge between engines.
//!
//! Stream layout: each engine owns a disjoint slice of the fork-stream
//! space via a high-bit base tag (shard indices stay far below 2⁴⁰ for
//! any realistic budget). Small additive offsets would not be enough —
//! shard indices are unbounded, so a multi-million-shard lifetime plan
//! would walk into another engine's streams under a shared root seed
//! and replay its samples.

use btwc_noise::SimRng;

/// Lifetime-engine shard streams (cycles).
pub(crate) const LIFETIME_STREAM: u64 = 0;
/// Shot-engine shard streams (LER shots).
pub(crate) const SHOT_STREAM: u64 = 1 << 40;
/// Iid-trial shard streams (signature distributions).
pub(crate) const IID_STREAM: u64 = 2 << 40;
/// Grid-point root seeds (sweeps; see [`crate::grid_point_seed`]).
pub(crate) const GRID_STREAM: u64 = 3 << 40;
/// Per-qubit streams ([`crate::machine_trace`] and [`crate::machine_farm_trace`]).
pub(crate) const QUBIT_STREAM: u64 = 4 << 40;

/// Splits `total` work units into fixed `shard_size`-unit shards:
/// `(units, forked RNG)` per shard, depending only on `(total, seed)` —
/// never on the worker count. Merging shard results in plan order is
/// what makes every parallel engine bit-identical across pools.
pub(crate) fn shard_streams(
    total: u64,
    shard_size: u64,
    seed: u64,
    stream_base: u64,
) -> Vec<(u64, SimRng)> {
    let shards = total.div_ceil(shard_size).max(1);
    let per = total / shards;
    let extra = total % shards;
    let root = SimRng::from_seed(seed);
    (0..shards).map(|s| (per + u64::from(s < extra), root.fork(stream_base + s))).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_depends_only_on_total_and_seed() {
        let a = shard_streams(100_000, 8_192, 7, LIFETIME_STREAM);
        let b = shard_streams(100_000, 8_192, 7, LIFETIME_STREAM);
        assert_eq!(a.len(), b.len());
        assert_eq!(a.len() as u64, 100_000u64.div_ceil(8_192));
        let units: u64 = a.iter().map(|(n, _)| n).sum();
        assert_eq!(units, 100_000, "shards partition the total exactly");
        for ((na, ra), (nb, rb)) in a.iter().zip(&b) {
            assert_eq!(na, nb);
            assert_eq!(ra.seed(), rb.seed());
        }
    }

    #[test]
    fn zero_total_yields_one_empty_shard() {
        let plan = shard_streams(0, 8_192, 3, SHOT_STREAM);
        assert_eq!(plan.len(), 1);
        assert_eq!(plan[0].0, 0);
    }

    #[test]
    fn engine_stream_spaces_are_disjoint() {
        // The regression the bases exist for: under one root seed, a
        // large plan in one engine must never fork the stream another
        // engine's shard 0 uses (an additive offset like the old
        // `s + 0x1E4` collided once the plan exceeded 484 shards).
        let seed = 9;
        let root = SimRng::from_seed(seed);
        let bases = [LIFETIME_STREAM, SHOT_STREAM, IID_STREAM, GRID_STREAM, QUBIT_STREAM];
        let mut seeds: Vec<u64> = Vec::new();
        for base in bases {
            // Probe each engine's space at its start and deep inside.
            for s in [0u64, 0x1E4, 0x51D, 1 << 20, (1 << 40) - 1] {
                seeds.push(root.fork(base + s).seed());
            }
        }
        let n = seeds.len();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), n, "cross-engine stream collision");
    }
}

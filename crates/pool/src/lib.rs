//! Thread pool for the Monte Carlo sweep engines and the decode farm.
//!
//! The workspace's simulation hot paths fan out over a `(p, d)` grid:
//! cheap points (d = 3) finish orders of magnitude before expensive ones
//! (d ≥ 13), so a per-point `std::thread::scope` schedule leaves cores
//! idle at every point boundary and re-pays thread spawn and per-worker
//! decoder construction at each of them; the decode farm submits one
//! small batch of escalations per machine cycle, where a thread spawn
//! per call would cost more than the work. This crate is a small
//! vendored pool (the build environment has no crates.io access, so
//! rayon is unavailable) that takes a *whole* task set at once:
//!
//! * **one FIFO injector queue** — a [`Pool::scope`] / [`Pool::map`]
//!   call pushes all of its tasks onto one shared queue in submission
//!   order; whichever worker is free pops the front, so cheap tasks and
//!   expensive ones balance with no barrier in between;
//! * **parked workers** — the worker threads are spawned lazily at the
//!   first threaded run, wait on a condvar while the queue is empty,
//!   and are joined when the last clone of the pool drops: no thread
//!   spawn or join per call. A pool with one worker, or a run of at
//!   most one task, executes inline on the caller and never spawns;
//! * **a per-batch latch** — the submitting call blocks until every
//!   task of its batch has finished, so tasks may borrow from the
//!   caller's stack; a panic in any task abandons the batch's
//!   still-queued tasks and resumes on the caller;
//! * **deterministic map/reduce** — [`Pool::map`] returns results in
//!   submission order and [`Pool::map_reduce`] folds them in shard
//!   order, so outputs are **bit-identical regardless of worker count**.
//!   Callers split work into *fixed* shards (independent of the worker
//!   count) with forked RNG streams keyed by shard index; the pool only
//!   decides *where* each shard runs, never *what* it computes.
//!
//! The `BTWC_WORKERS` environment variable overrides every requested
//! worker count (see [`Pool::new`]) — CI runs the test suite once with
//! `BTWC_WORKERS=1` to catch any accidental worker-count dependence.
//!
//! # Example
//!
//! ```
//! use btwc_pool::Pool;
//!
//! let pool = Pool::new(4);
//! let squares = pool.map(&[1u64, 2, 3, 4], |_, &x| x * x);
//! assert_eq!(squares, vec![1, 4, 9, 16]);
//! ```

mod persistent;
mod pool;

pub use pool::{Pool, Scope, WORKERS_ENV};

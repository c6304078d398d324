//! Deterministic observability for the btwc stack.
//!
//! The crate provides a [`MetricsRegistry`] into which components register
//! counters, gauges, log-bucketed histograms, and indexed counter families.
//! Handles are cheap `Clone`s over shared atomics: recording a value is a
//! single relaxed atomic RMW, registration is the only operation that takes a
//! lock. Components hold `Option<...>` handles, so a detached component pays
//! nothing beyond a branch on `None`.
//!
//! # Clock domains
//!
//! Every metric lives in one of three [`Domain`]s:
//!
//! * [`Domain::Cycles`] — values derived from the deterministic machine cycle
//!   counter (latencies in cycles, queue depths, event counts). All updates
//!   are commutative atomic increments, so cycle-domain snapshots are
//!   bit-identical for any `BTWC_WORKERS` and safe to pin in tests.
//! * [`Domain::Scheduling`] — values that depend on thread scheduling (tasks
//!   stolen, per-worker load). Real, but not reproducible across runs; they
//!   are excluded from determinism snapshots.
//! * [`Domain::Wall`] — wall-clock timings. Only populated when the
//!   `wall-time` cargo feature is enabled; never part of pinned snapshots.
//!
//! # Span timers
//!
//! A [`SpanTimer`] bundles a cycle-domain latency histogram with an optional
//! wall-time histogram. Cycle latencies are recorded explicitly via
//! [`SpanTimer::record_latency`]; wall time is captured by the RAII
//! [`WallGuard`], which compiles to a no-op without the `wall-time` feature.
//!
//! # Snapshots
//!
//! [`MetricsRegistry::snapshot`] freezes every metric into a [`Snapshot`]
//! whose JSON form ([`Snapshot::to_json`]) is integer-only and sorted by
//! metric name, so identical metric states serialize to identical bytes.
//! [`MetricsRegistry::snapshot_domains`] restricts the snapshot to chosen
//! domains (determinism tests use `&[Domain::Cycles]`).

mod metrics;
mod registry;
mod snapshot;

pub mod json;

pub use metrics::{
    Counter, CounterFamily, Gauge, Histogram, SpanTimer, WallGuard, HISTOGRAM_BUCKETS,
};
pub use registry::{Domain, MetricsRegistry};
pub use snapshot::{MetricSnapshot, MetricValue, Snapshot};

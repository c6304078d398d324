//! The decode farm: one shared off-chip decode service for many
//! machine instances.
//!
//! The paper's decoding hierarchy pays off at scale when many logical
//! qubits escalate concurrently — but a [`btwc_core::BtwcMachine`] used
//! to resolve each escalation inline on its own private backend. This
//! crate is the service tier the ROADMAP's "streaming decode service"
//! item asks for: `N` machines (tenants) run their cycles through
//! [`BtwcMachine::step_deferred`], submit the surviving
//! [`EscalationJob`]s into one [`DecodeFarm`], and fold the returned
//! [`ServiceResponse`]s back with [`BtwcMachine::complete`].
//!
//! Inside the farm, one [`DecodeFarm::service_cycle`] call per machine
//! cycle:
//!
//! * applies **admission control** against a bounded queue — a job is
//!   rejected `QueueFull` when the (modeled) backlog reaches capacity,
//!   or `DeadlineExceeded` when its modeled queueing delay would blow
//!   the escalation's remaining cycle-deadline budget;
//! * **groups** simultaneous escalations for the same
//!   backend/distance/stabilizer on one shared decoder slot, which
//!   replays each job into its receive window and decodes it with
//!   [`ComplexDecoder::decode_window_mut`] in admission order (a reused
//!   decoder decodes every window exactly as a fresh one would —
//!   pinned by this crate's `batching` proptest), dispatching
//!   independent decoder slots in parallel on the workspace [`Pool`]'s
//!   persistent workers;
//! * models **queueing with the link's own [`QueueSim`]**: decodes
//!   complete synchronously within the step (so the lockstep driver
//!   stays deterministic for any `BTWC_WORKERS`), while the *modeled*
//!   backlog is a `QueueSim` stepped once per cycle with that cycle's
//!   admissions, draining `service_rate` jobs per cycle; each admitted
//!   job is charged its queue position's delay on the latency
//!   histograms — plus a live `farm.queue_depth` gauge;
//! * **aggregates telemetry**: every tenant registers its
//!   [`MetricsRegistry`]; [`DecodeFarm::aggregate_snapshot`] merges all
//!   tenant cycle-domain snapshots with the farm's own into one fleet
//!   view, and a configurable cadence exports per-tenant
//!   `btwc-telemetry-v1` JSON snapshots ([`DecodeFarm::take_exports`]).
//!
//! The whole tier is pinned by the service-conformance harness in
//! `btwc-sim` (`tests/farm_conformance.rs`): with a generous
//! configuration, per-tenant farm outcomes, stats, and cycle-domain
//! machine telemetry are **bit-identical to the inline single-machine
//! loop** for every builtin backend, any `BTWC_WORKERS`, and any
//! submission interleaving — decode results depend only on window
//! contents because decoders carry no state from one window to the
//! next.
//!
//! [`BtwcMachine::step_deferred`]: btwc_core::BtwcMachine::step_deferred
//! [`BtwcMachine::complete`]: btwc_core::BtwcMachine::complete
//! [`EscalationJob`]: btwc_core::EscalationJob
//! [`ServiceResponse`]: btwc_core::ServiceResponse
//! [`ComplexDecoder::decode_window_mut`]: btwc_core::ComplexDecoder::decode_window_mut
//! [`QueueSim`]: btwc_bandwidth::QueueSim
//! [`Pool`]: btwc_pool::Pool
//! [`MetricsRegistry`]: btwc_telemetry::MetricsRegistry

mod farm;

pub use farm::{DecodeFarm, FarmConfig, SnapshotExport, TenantId, TenantSubmission};

//! The [`DecodeFarm`] service: admission control, per-slot decode
//! groups, and telemetry aggregation. This file is on the analyzer's PANIC-HOT list
//! — the dispatch path must stay free of `unwrap`/`expect`/`panic!`.

use btwc_bandwidth::QueueSim;
use btwc_core::{
    ComplexDecoder, DecoderBackend, EscalationJob, RejectReason, ServiceResponse, StabilizerType,
    SurfaceCode,
};
use btwc_pool::Pool;
use btwc_syndrome::{Correction, RoundHistory};
use btwc_telemetry::{Counter, Domain, Gauge, Histogram, MetricsRegistry, Snapshot};

/// Handle to a machine registered with a [`DecodeFarm`].
///
/// Index into the farm's tenant table — plain `Vec` order, so tenant
/// iteration (snapshots, exports) is deterministic by registration
/// order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct TenantId(pub usize);

/// One tenant's escalations for the current farm cycle.
#[derive(Debug, Clone, Copy)]
pub struct TenantSubmission<'a> {
    /// The submitting tenant.
    pub tenant: TenantId,
    /// Its surviving escalation jobs, in the machine's submission order.
    pub jobs: &'a [EscalationJob],
}

/// A per-tenant `btwc-telemetry-v1` snapshot emitted on the configured
/// cadence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotExport {
    /// The tenant's registered name.
    pub tenant: String,
    /// Farm cycle the snapshot was taken at.
    pub cycle: u64,
    /// Cycle-domain `btwc-telemetry-v1` JSON.
    pub json: String,
}

/// Tuning knobs for a [`DecodeFarm`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FarmConfig {
    /// Bounded queue capacity: a job whose modeled queue position would
    /// reach this bound is rejected `QueueFull`.
    pub queue_capacity: u64,
    /// Modeled drain rate in decodes per cycle (clamped to ≥ 1). An
    /// admitted job at queue position `p` is charged `p / service_rate`
    /// cycles of queueing delay.
    pub service_rate: u64,
    /// Export every tenant's cycle-domain snapshot every this many farm
    /// cycles. `None` disables exports.
    pub snapshot_cadence: Option<u64>,
}

impl FarmConfig {
    /// A service so over-provisioned it is invisible: effectively
    /// unbounded queue, one-cycle drain of any realistic burst, no
    /// exports. Under this configuration every job is
    /// admitted with zero modeled delay, so farm outcomes are
    /// bit-identical to the inline machine loop — the configuration the
    /// conformance harness pins.
    #[must_use]
    pub fn generous() -> Self {
        FarmConfig {
            queue_capacity: u64::MAX >> 1,
            service_rate: u64::MAX >> 1,
            snapshot_cadence: None,
        }
    }

    /// A bounded service: `queue_capacity` outstanding decodes,
    /// draining `service_rate` per cycle.
    #[must_use]
    pub fn bounded(queue_capacity: u64, service_rate: u64) -> Self {
        FarmConfig { queue_capacity, service_rate, snapshot_cadence: None }
    }
}

impl Default for FarmConfig {
    fn default() -> Self {
        FarmConfig::generous()
    }
}

/// The farm's own cycle-domain metrics (names under `farm.`).
struct FarmMetrics {
    submissions: Counter,
    decoded: Counter,
    batches: Counter,
    batch_size: Histogram,
    escalation_latency: Histogram,
    rejected_queue_full: Counter,
    rejected_deadline: Counter,
    queue_depth: Gauge,
    queue_depth_hist: Histogram,
}

impl FarmMetrics {
    fn register(registry: &MetricsRegistry) -> Self {
        let d = Domain::Cycles;
        FarmMetrics {
            submissions: registry.counter("farm.submissions", d),
            decoded: registry.counter("farm.decoded", d),
            batches: registry.counter("farm.batches", d),
            batch_size: registry.histogram("farm.batch_size", d),
            escalation_latency: registry.histogram("farm.escalation_latency", d),
            rejected_queue_full: registry.counter("farm.rejected_queue_full", d),
            rejected_deadline: registry.counter("farm.rejected_deadline", d),
            queue_depth: registry.gauge("farm.queue_depth", d),
            queue_depth_hist: registry.histogram("farm.queue_depth_hist", d),
        }
    }
}

/// One shared decoder instance serving every tenant with the same
/// (backend, distance, stabilizer) shape.
struct DecoderSlot {
    backend: &'static str,
    distance: u16,
    ty: StabilizerType,
    decoder: Box<dyn ComplexDecoder + Send + Sync>,
    /// The receive window each admitted job is replayed into just
    /// before its decode; as wide as the widest window any tenant of
    /// the slot replays.
    wire: RoundHistory,
}

struct Tenant {
    name: String,
    slot: usize,
    registry: MetricsRegistry,
}

/// A job admitted this cycle, waiting for its slot's decode group.
struct Admitted<'a> {
    /// Submission index (position in the `service_cycle` argument).
    sub: usize,
    /// Index of this job's response within its submission.
    pos: usize,
    job: &'a EscalationJob,
}

/// The shared decode service `N` machines submit escalations into.
///
/// See the crate docs for the full protocol; the short version is one
/// [`DecodeFarm::service_cycle`] call per lockstep machine cycle, with
/// each tenant's [`btwc_core::PendingCycle`] jobs in and one
/// [`ServiceResponse`] per job out, in order.
pub struct DecodeFarm {
    pool: Pool,
    config: FarmConfig,
    tenants: Vec<Tenant>,
    slots: Vec<DecoderSlot>,
    registry: MetricsRegistry,
    metrics: FarmMetrics,
    /// Modeled queue: its backlog carries across cycles and drains
    /// `service_rate` (clamped to ≥ 1) jobs per cycle.
    queue: QueueSim,
    cycle: u64,
    exports: Vec<SnapshotExport>,
}

impl DecodeFarm {
    /// Creates a farm dispatching on `pool` with the given service
    /// model. Farm-level metrics register into a fresh internal
    /// registry, retrievable via [`DecodeFarm::metrics`].
    #[must_use]
    pub fn new(pool: Pool, config: FarmConfig) -> Self {
        let registry = MetricsRegistry::new();
        let metrics = FarmMetrics::register(&registry);
        DecodeFarm {
            pool,
            config,
            tenants: Vec::new(),
            slots: Vec::new(),
            registry,
            metrics,
            queue: QueueSim::new(config.service_rate.max(1) as usize),
            cycle: 0,
            exports: Vec::new(),
        }
    }

    /// Registers a machine as a tenant.
    ///
    /// Tenants with the same (backend, distance, stabilizer) shape
    /// share one decoder slot — their simultaneous escalations form one
    /// decode group, decoded in submission order on the slot's
    /// decoder. The tenant's `registry` is retained for cadence exports
    /// and [`DecodeFarm::aggregate_snapshot`].
    pub fn register_tenant(
        &mut self,
        name: &str,
        code: &SurfaceCode,
        ty: StabilizerType,
        backend: &DecoderBackend,
        window_rounds: usize,
        registry: &MetricsRegistry,
    ) -> TenantId {
        let key = (backend.name(), code.distance(), ty);
        let slot = match self.slots.iter().position(|s| (s.backend, s.distance, s.ty) == key) {
            Some(i) => {
                // Widen the shared receive window to the largest
                // window any tenant of this slot replays.
                if window_rounds > self.slots[i].wire.capacity() {
                    self.slots[i].wire = RoundHistory::new(code.num_ancillas(ty), window_rounds);
                }
                i
            }
            None => {
                self.slots.push(DecoderSlot {
                    backend: backend.name(),
                    distance: code.distance(),
                    ty,
                    decoder: backend.build(code, ty),
                    wire: RoundHistory::new(code.num_ancillas(ty), window_rounds),
                });
                self.slots.len() - 1
            }
        };
        self.tenants.push(Tenant { name: name.to_string(), slot, registry: registry.clone() });
        TenantId(self.tenants.len() - 1)
    }

    /// Runs one farm cycle over every tenant's submissions and returns
    /// one response vector per submission, each aligned with its
    /// `jobs` slice.
    ///
    /// Admission is decided job-by-job in submission order (the modeled
    /// queue position is backlog + jobs already admitted this cycle),
    /// so the responses — and every cycle-domain metric they update —
    /// are bit-identical for any `BTWC_WORKERS`: only the
    /// already-admitted decode groups fan out across workers (one task
    /// per slot), and each decode depends only on its own window
    /// contents.
    pub fn service_cycle(
        &mut self,
        submissions: &[TenantSubmission<'_>],
    ) -> Vec<Vec<ServiceResponse>> {
        self.cycle += 1;
        let rate = self.queue.bandwidth() as u64;
        let backlog = self.queue.backlog() as u64;
        let capacity = self.config.queue_capacity;

        // Admission pass: sequential, in submission order.
        let mut responses: Vec<Vec<ServiceResponse>> = Vec::with_capacity(submissions.len());
        let mut groups: Vec<Vec<Admitted<'_>>> = self.slots.iter().map(|_| Vec::new()).collect();
        let mut admitted = 0u64;
        for (sub_idx, submission) in submissions.iter().enumerate() {
            let mut out = Vec::with_capacity(submission.jobs.len());
            let slot = self
                .tenants
                .get(submission.tenant.0)
                .map(|t| t.slot)
                .filter(|&s| s < self.slots.len());
            for job in submission.jobs {
                self.metrics.submissions.inc();
                let Some(slot) = slot else {
                    // Unregistered tenant id: refuse rather than guess a
                    // decoder shape.
                    self.metrics.rejected_queue_full.inc();
                    out.push(ServiceResponse::Rejected(RejectReason::QueueFull));
                    continue;
                };
                let position = backlog + admitted;
                if position >= capacity {
                    self.metrics.rejected_queue_full.inc();
                    out.push(ServiceResponse::Rejected(RejectReason::QueueFull));
                    continue;
                }
                let delay = position / rate;
                if delay > job.deadline_budget() {
                    self.metrics.rejected_deadline.inc();
                    out.push(ServiceResponse::Rejected(RejectReason::DeadlineExceeded));
                    continue;
                }
                admitted += 1;
                self.metrics.escalation_latency.record(job.latency_base() + delay);
                groups[slot].push(Admitted { sub: sub_idx, pos: out.len(), job });
                // Placeholder correction; overwritten after dispatch.
                out.push(ServiceResponse::Decoded {
                    correction: Correction::new(),
                    queue_delay_cycles: delay,
                });
            }
            responses.push(out);
        }

        // Dispatch pass: one decode group per active slot, slots in
        // parallel on the pool. Corrections land in `corrections[slot]`
        // aligned with `groups[slot]`.
        let mut corrections: Vec<Vec<Correction>> = self.slots.iter().map(|_| Vec::new()).collect();
        {
            let metrics = &self.metrics;
            let mut tasks: Vec<(&mut DecoderSlot, &[Admitted<'_>], &mut Vec<Correction>)> = self
                .slots
                .iter_mut()
                .zip(groups.iter())
                .zip(corrections.iter_mut())
                .filter(|((_, group), _)| !group.is_empty())
                .map(|((slot, group), out)| (slot, group.as_slice(), out))
                .collect();
            if tasks.len() <= 1 || self.pool.workers() == 1 {
                for (slot, group, out) in &mut tasks {
                    decode_group(slot, group, out, metrics);
                }
            } else {
                self.pool.scope(|scope| {
                    for (slot, group, out) in &mut tasks {
                        scope.spawn(move || decode_group(slot, group, out, metrics));
                    }
                });
            }
        }
        for (group, decoded) in groups.iter().zip(&corrections) {
            for (admitted_job, correction) in group.iter().zip(decoded) {
                if let Some(ServiceResponse::Decoded { correction: c, .. }) = responses
                    .get_mut(admitted_job.sub)
                    .and_then(|out| out.get_mut(admitted_job.pos))
                {
                    *c = correction.clone();
                }
            }
        }

        // Queue model tail: the backlog drains `rate` per cycle.
        self.metrics.decoded.add(admitted);
        self.queue.step(admitted as usize);
        let backlog = self.queue_depth();
        self.metrics.queue_depth.set(backlog.min(i64::MAX as u64) as i64);
        self.metrics.queue_depth_hist.record(backlog);

        if let Some(cadence) = self.config.snapshot_cadence {
            if cadence > 0 && self.cycle.is_multiple_of(cadence) {
                for tenant in &self.tenants {
                    self.exports.push(SnapshotExport {
                        tenant: tenant.name.clone(),
                        cycle: self.cycle,
                        json: tenant.registry.snapshot_domains(&[Domain::Cycles]).to_json(),
                    });
                }
            }
        }

        responses
    }

    /// Drains the cadence-exported per-tenant snapshots accumulated so
    /// far, oldest first.
    pub fn take_exports(&mut self) -> Vec<SnapshotExport> {
        std::mem::take(&mut self.exports)
    }

    /// One fleet-wide cycle-domain snapshot: the farm's own `farm.*`
    /// metrics merged with every tenant's cycle-domain snapshot, in
    /// registration order.
    #[must_use]
    pub fn aggregate_snapshot(&self) -> Snapshot {
        let mut snapshot = self.registry.snapshot_domains(&[Domain::Cycles]);
        for tenant in &self.tenants {
            snapshot.merge(&tenant.registry.snapshot_domains(&[Domain::Cycles]));
        }
        snapshot
    }

    /// The farm's own metrics registry (the `farm.*` names).
    #[must_use]
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.registry
    }

    /// Current modeled queue backlog (also exported live as the
    /// `farm.queue_depth` gauge).
    #[must_use]
    pub fn queue_depth(&self) -> u64 {
        self.queue.backlog() as u64
    }

    /// Farm cycles serviced so far.
    #[must_use]
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Registered tenants.
    #[must_use]
    pub fn num_tenants(&self) -> usize {
        self.tenants.len()
    }
}

/// Replays each of a slot's admitted jobs into its receive window and
/// decodes it, in admission order.
fn decode_group(
    slot: &mut DecoderSlot,
    group: &[Admitted<'_>],
    out: &mut Vec<Correction>,
    metrics: &FarmMetrics,
) {
    metrics.batches.inc();
    metrics.batch_size.record(group.len() as u64);
    let DecoderSlot { decoder, wire, .. } = slot;
    *out = group
        .iter()
        .map(|admitted| {
            let request = admitted.job.request();
            // Widen first if this request carries more rounds than the
            // window holds (replay_into asserts capacity).
            if request.rounds.len() > wire.capacity() {
                *wire = RoundHistory::new(wire.num_ancillas(), request.rounds.len());
            }
            request.replay_into(wire);
            decoder.decode_window_mut(wire)
        })
        .collect();
}

//! The closed loop the benchmark owns: noise → `SyndromeBatch` →
//! `BtwcMachine` → off-chip backend or `DecodeFarm` → corrections fed
//! back into the error trackers.
//!
//! One [`Fleet`] is the set-up of one workload at one seed. It runs on
//! one of three decode paths:
//!
//! * inline, untraced: `BtwcMachine::step` — the end-to-end path;
//! * inline, traced: `step_deferred` + a benchmark-owned backend +
//!   `complete`, which `step`'s documented contract says is the same
//!   thing, so that each half can sit in its own span;
//! * farm: `step_deferred` + one `DecodeFarm::service_cycle` for the
//!   whole fleet + `complete`, traced or not.
//!
//! Instrumentation (telemetry registries, benchmark-owned backends and
//! probe shadows) exists only on a traced fleet.

use std::time::Instant;

use btwc_bandwidth::DecodeRequest;
use btwc_clique::{BatchFrontend, CliqueDecision};
use btwc_core::{
    BtwcMachine, ComplexDecoder, DecoderBackend, FaultyLink, MachineCycle, MachineStats,
    PendingCycle, ServiceResponse, StabilizerType, SurfaceCode, TransportStats,
};
use btwc_farm::{DecodeFarm, TenantId, TenantSubmission};
use btwc_noise::{SimRng, SparseFlips};
use btwc_pool::Pool;
use btwc_sim::ErrorTracker;
use btwc_syndrome::{BatchHistory, PackedBits, RoundHistory, SyndromeBatch};
use btwc_telemetry::{Domain, MetricsRegistry};

use crate::report::Metric;
use crate::trace::{Layer, Tracer, NO_QUBIT};
use crate::workload::{Service, TenantSpec, Workload};

const TY: StabilizerType = StabilizerType::X;

/// RNG stream bases forked from the run seed (tenant, then qubit).
const TENANT_STREAM: u64 = 1 << 32;
const LINK_STREAM: u64 = 2 << 32;
const SHADOW_LINK_STREAM: u64 = 3 << 32;

/// Logical state is sampled on the generator side every this many
/// cycles (the end-of-run snapshot saturates on long runs).
const LOGICAL_SAMPLE_CYCLES: u64 = 100;

fn fnv(hash: u64, value: u64) -> u64 {
    (hash ^ value).wrapping_mul(0x0000_0100_0000_01B3)
}
const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

/// The machine's default decode-window size (`MachineBuilder`): what a
/// receiver-side window must hold.
fn window_rounds(code: &SurfaceCode) -> usize {
    usize::from(code.distance()).max(4) * 4
}

fn solve_layer(backend: &DecoderBackend) -> Layer {
    match backend {
        DecoderBackend::UnionFind => Layer::UfSolve,
        DecoderBackend::Lut => Layer::LutSolve,
        _ => Layer::SparseSolve,
    }
}

/// Traced-only state of one tenant.
struct Instrumentation {
    registry: MetricsRegistry,
    /// Benchmark-owned backend and receive window: the inline traced
    /// path decodes on these; on the farm they re-decode the same jobs
    /// as the `farm.inline_equiv` probe.
    backend: Box<dyn ComplexDecoder + Send + Sync>,
    solve: Layer,
    wire: RoundHistory,
    // Probe shadows, fed the recorded inputs off the real path.
    frontend: BatchFrontend,
    history: BatchHistory,
    window: RoundHistory,
    link: FaultyLink,
    onchip_decodes: u64,
    offchip_escalations: u64,
}

impl Instrumentation {
    /// Replays this cycle's batch and jobs through the public functions
    /// `step_deferred` calls internally.
    fn probe<T: Tracer>(
        &mut self,
        tr: &mut T,
        tenant: usize,
        batch: &SyndromeBatch,
        pending: &PendingCycle,
    ) {
        let (onchip, offchip) = (&mut self.onchip_decodes, &mut self.offchip_escalations);
        let frontend = &mut self.frontend;
        tr.span(Layer::CliquePushBatch, tenant, NO_QUBIT, || {
            frontend.push_batch(batch, |_, decision, _| match decision {
                CliqueDecision::Complex => *offchip += 1,
                CliqueDecision::Trivial(_) => *onchip += 1,
                CliqueDecision::AllZeros => {}
            });
        });
        let history = &mut self.history;
        tr.span(Layer::SyndromeGatherWindow, tenant, NO_QUBIT, || history.push(batch));
        for job in pending.jobs() {
            let q = job.qubit();
            let len = job.request().rounds.len().min(self.history.len());
            let (history, window) = (&self.history, &mut self.window);
            tr.span(Layer::SyndromeGatherWindow, tenant, q, || {
                history.gather_qubit_window(q as usize, len, window);
            });
            let window = &self.window;
            let request = tr.span(Layer::BandwidthFromHistory, tenant, q, || {
                DecodeRequest::from_history(q, job.request().cycle, window)
            });
            let frame = tr.span(Layer::BandwidthEncodeV2, tenant, q, || request.encode_v2());
            let link = &mut self.link;
            let tx = tr.span(Layer::BandwidthTransmit, tenant, q, || link.transmit(&frame));
            for delivery in &tx.deliveries {
                let parsed = tr.span(Layer::BandwidthDecodeV2, tenant, q, || {
                    DecodeRequest::decode_v2(&delivery.bytes)
                });
                std::hint::black_box(parsed.is_ok());
            }
        }
    }

    fn decode<T: Tracer>(
        &mut self,
        tr: &mut T,
        tenant: usize,
        pending: &PendingCycle,
    ) -> Vec<ServiceResponse> {
        pending
            .jobs()
            .iter()
            .map(|job| {
                let q = job.qubit();
                let (wire, backend) = (&mut self.wire, &mut self.backend);
                tr.span(Layer::BandwidthReplayInto, tenant, q, || {
                    job.request().replay_into(wire);
                });
                let correction = tr.span(self.solve, tenant, q, || backend.decode_stream_mut(wire));
                ServiceResponse::Decoded { correction, queue_delay_cycles: 0 }
            })
            .collect()
    }
}

/// One machine with its noise generator and error trackers.
struct Tenant {
    code: SurfaceCode,
    machine: BtwcMachine,
    rngs: Vec<SimRng>,
    trackers: Vec<ErrorTracker>,
    rounds: Vec<PackedBits>,
    batch: SyndromeBatch,
    n_data: usize,
    n_anc: usize,
    p: f64,
    outcome: Option<MachineCycle>,
    noise_flips: u64,
    jobs: u64,
    logical: Vec<bool>,
    logical_flips: u64,
    trace_hash: u64,
    instr: Option<Instrumentation>,
}

impl Tenant {
    fn build(spec: &TenantSpec, seed: &SimRng, traced: bool, inline: bool) -> Tenant {
        let code = SurfaceCode::new(spec.distance);
        let n_anc = code.num_ancillas(TY);
        let mut builder = BtwcMachine::builder(&code, TY, spec.qubits, spec.bandwidth)
            .backend(spec.backend)
            .fault_model(spec.fault)
            .link_seed(seed.fork(LINK_STREAM).seed());
        let instr = traced.then(|| {
            let registry = MetricsRegistry::new();
            let mut backend = spec.backend.build(&code, TY);
            // On the farm this backend only serves the inline-equivalent
            // probe; its counts would pass for the farm's own.
            if inline {
                backend.attach_telemetry(&registry);
            }
            let rounds = window_rounds(&code);
            Instrumentation {
                backend,
                solve: solve_layer(&spec.backend),
                wire: RoundHistory::new(n_anc, rounds),
                frontend: BatchFrontend::new(&code, TY, spec.qubits),
                history: BatchHistory::new(spec.qubits, n_anc, rounds),
                window: RoundHistory::new(n_anc, rounds),
                link: FaultyLink::new(spec.fault, seed.fork(SHADOW_LINK_STREAM).seed()),
                onchip_decodes: 0,
                offchip_escalations: 0,
                registry,
            }
        });
        if let Some(instr) = &instr {
            builder = builder.telemetry(&instr.registry);
        }
        Tenant {
            machine: builder.build(),
            rngs: (0..spec.qubits as u64).map(|q| seed.fork(q)).collect(),
            trackers: (0..spec.qubits).map(|_| ErrorTracker::new(&code, TY)).collect(),
            rounds: (0..spec.qubits).map(|_| PackedBits::new(n_anc)).collect(),
            batch: SyndromeBatch::new(spec.qubits, n_anc),
            n_data: code.num_data_qubits(),
            n_anc,
            p: spec.p,
            outcome: None,
            noise_flips: 0,
            jobs: 0,
            logical: vec![false; spec.qubits],
            logical_flips: 0,
            trace_hash: FNV_OFFSET,
            instr,
            code,
        }
    }

    /// Draws this cycle's data and measurement errors for every qubit.
    fn sample(&mut self) {
        for ((rng, tracker), round) in
            self.rngs.iter_mut().zip(&mut self.trackers).zip(&mut self.rounds)
        {
            for flip in SparseFlips::new(rng, self.n_data, self.p) {
                tracker.flip(flip);
                self.noise_flips += 1;
            }
            round.copy_from(tracker.syndrome());
            for ancilla in SparseFlips::new(rng, self.n_anc, self.p) {
                round.toggle(ancilla);
            }
        }
    }

    fn pack(&mut self) {
        for (q, round) in self.rounds.iter().enumerate() {
            self.batch.set_qubit_round(q, round);
        }
    }

    /// Closes the loop: corrections land on the trackers.
    fn apply(&mut self, cycle_index: u64) -> bool {
        let Some(cycle) = self.outcome.take() else { return false };
        if cycle.outcomes.len() != self.trackers.len() {
            return false;
        }
        for (tracker, outcome) in self.trackers.iter_mut().zip(&cycle.outcomes) {
            if let Some(correction) = outcome.correction() {
                tracker.apply(correction.qubits());
            }
        }
        self.trace_hash = fnv(self.trace_hash, cycle.offchip_requests as u64);
        if (cycle_index + 1).is_multiple_of(LOGICAL_SAMPLE_CYCLES) {
            for (tracker, was) in self.trackers.iter().zip(&mut self.logical) {
                let now = self.code.is_logical_error(TY, tracker.errors());
                self.logical_flips += u64::from(now != *was);
                *was = now;
            }
        }
        true
    }
}

/// One tenant's simulated statistics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TenantDomain {
    pub stats: MachineStats,
    pub transport: TransportStats,
    pub onchip: u64,
    pub offchip: u64,
    pub frames_sent: u64,
    pub logical_flips: u64,
    pub residual_syndrome_weight: u64,
    /// FNV hash of the per-cycle off-chip demand trace.
    pub trace_hash: u64,
    /// FNV hash of every tracker's error state.
    pub state_hash: u64,
}

/// Every cycle-domain quantity of a fleet at one instant. A function
/// of `(workload, seed, cycles)` alone: two runs that agree on those
/// must agree on this bit for bit, whatever path decoded them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CycleDomain {
    pub cycles: u64,
    pub qubits: u64,
    pub tenants: Vec<TenantDomain>,
}

impl CycleDomain {
    #[must_use]
    pub fn sum(&self, f: impl Fn(&TenantDomain) -> u64) -> u64 {
        self.tenants.iter().map(f).sum()
    }

    #[must_use]
    pub fn qubit_rounds(&self) -> u64 {
        self.cycles * self.qubits
    }

    /// On-chip decodes ÷ (on-chip + off-chip): the share of non-trivial
    /// syndromes Clique absorbs (the paper's 70–99+ %).
    #[must_use]
    pub fn coverage(&self) -> f64 {
        let onchip = self.sum(|t| t.onchip);
        onchip as f64 / (onchip + self.sum(|t| t.offchip)).max(1) as f64
    }

    /// Wire bytes per qubit-round, retransmits included.
    #[must_use]
    pub fn offchip_bytes_per_round(&self) -> f64 {
        self.sum(|t| t.stats.frame_bytes) as f64 / self.qubit_rounds().max(1) as f64
    }

    /// Stall cycles ÷ cycles.
    #[must_use]
    pub fn stall_fraction(&self) -> f64 {
        self.sum(|t| t.stats.stalls) as f64 / self.sum(|t| t.stats.cycles).max(1) as f64
    }

    /// Cycles ÷ useful cycles: Fig. 16's relative execution time.
    #[must_use]
    pub fn exec_time_factor(&self) -> f64 {
        1.0 / (1.0 - self.stall_fraction())
    }

    /// Escalations that degraded (in transport or refused by the
    /// service) ÷ off-chip requests.
    #[must_use]
    pub fn degraded_share(&self) -> f64 {
        self.sum(|t| t.transport.degraded_decodes) as f64
            / self.sum(|t| t.stats.offchip_requests).max(1) as f64
    }

    /// Logical-state changes per 10⁶ qubit-rounds.
    #[must_use]
    pub fn logical_flips_per_mround(&self) -> f64 {
        self.sum(|t| t.logical_flips) as f64 * 1e6 / self.qubit_rounds().max(1) as f64
    }
}

/// A workload set up at one seed.
pub struct Fleet {
    tenants: Vec<Tenant>,
    farm: Option<(DecodeFarm, MetricsRegistry)>,
    qubits: u64,
    cycle: u64,
    /// Cycles whose outcomes did not come back one per qubit.
    pub failed_cycles: u64,
    /// Jobs the `farm.inline_equiv` probe decoded differently from the
    /// farm.
    pub farm_mismatches: u64,
}

impl Fleet {
    /// Sets the workload up: code, machines, backends (the LUT table
    /// included), farm and tenant registration, pool spawn. `traced`
    /// adds the instrumentation.
    #[must_use]
    pub fn build(workload: &Workload, service: Service, seed: u64, traced: bool) -> Fleet {
        let root = SimRng::from_seed(seed);
        let inline = matches!(service, Service::Inline);
        let tenants: Vec<Tenant> = workload
            .tenants
            .iter()
            .enumerate()
            .map(|(i, spec)| {
                Tenant::build(spec, &root.fork(TENANT_STREAM + i as u64), traced, inline)
            })
            .collect();
        let farm = match service {
            Service::Inline => None,
            Service::Farm { config, workers } => {
                let pool_registry = MetricsRegistry::new();
                let mut pool = Pool::new(workers);
                if traced {
                    pool.attach_telemetry(&pool_registry);
                }
                // Workers spawn at the first threaded run; make that
                // part of set-up, not of cycle 0.
                pool.scope(|scope| {
                    for _ in 0..workers {
                        scope.spawn(|| {});
                    }
                });
                let mut farm = DecodeFarm::new(pool, config);
                let unobserved = MetricsRegistry::new();
                for (i, (tenant, spec)) in tenants.iter().zip(&workload.tenants).enumerate() {
                    farm.register_tenant(
                        &format!("tenant-{i}"),
                        &tenant.code,
                        TY,
                        &spec.backend,
                        window_rounds(&tenant.code),
                        tenant.instr.as_ref().map_or(&unobserved, |instr| &instr.registry),
                    );
                }
                Some((farm, pool_registry))
            }
        };
        Fleet {
            tenants,
            farm,
            qubits: workload.qubits(),
            cycle: 0,
            failed_cycles: 0,
            farm_mismatches: 0,
        }
    }

    #[must_use]
    pub fn qubits(&self) -> u64 {
        self.qubits
    }

    /// Runs one machine cycle of the whole fleet and returns the host
    /// time of its decode path in nanoseconds (generator and trackers
    /// excluded).
    pub fn cycle<T: Tracer>(&mut self, tr: &mut T) -> u64 {
        tr.begin_cycle(self.cycle);
        for (i, tenant) in self.tenants.iter_mut().enumerate() {
            tr.span(Layer::NoiseSample, i, NO_QUBIT, || tenant.sample());
            tr.span(Layer::SyndromeBatchPack, i, NO_QUBIT, || tenant.pack());
        }

        let decode_start = Instant::now();
        match &mut self.farm {
            None if !T::ON => {
                for tenant in &mut self.tenants {
                    tenant.outcome = Some(tenant.machine.step(&tenant.batch));
                }
            }
            None => {
                for (i, tenant) in self.tenants.iter_mut().enumerate() {
                    let Tenant { machine, batch, instr, .. } = tenant;
                    let instr = instr.as_mut().expect("a traced fleet is built instrumented");
                    let pending = tr.span(Layer::CoreStepDeferred, i, NO_QUBIT, || {
                        machine.step_deferred(batch)
                    });
                    instr.probe(tr, i, batch, &pending);
                    tenant.jobs += pending.jobs().len() as u64;
                    let responses = instr.decode(tr, i, &pending);
                    tenant.outcome = Some(tr.span(Layer::CoreComplete, i, NO_QUBIT, || {
                        machine.complete(pending, responses)
                    }));
                }
            }
            Some((farm, _)) => {
                let mut pendings = Vec::with_capacity(self.tenants.len());
                for (i, tenant) in self.tenants.iter_mut().enumerate() {
                    let Tenant { machine, batch, instr, .. } = tenant;
                    let pending = tr.span(Layer::CoreStepDeferred, i, NO_QUBIT, || {
                        machine.step_deferred(batch)
                    });
                    if let Some(instr) = instr {
                        instr.probe(tr, i, batch, &pending);
                    }
                    tenant.jobs += pending.jobs().len() as u64;
                    pendings.push(pending);
                }
                let submissions: Vec<TenantSubmission<'_>> = pendings
                    .iter()
                    .enumerate()
                    .map(|(i, pending)| TenantSubmission {
                        tenant: TenantId(i),
                        jobs: pending.jobs(),
                    })
                    .collect();
                let responses = tr.span(Layer::FarmServiceCycle, 0, NO_QUBIT, || {
                    farm.service_cycle(&submissions)
                });
                drop(submissions);
                if T::ON {
                    // The same jobs decoded the inline way, for the
                    // farm's overhead ratio; and a free differential.
                    let tenants = &mut self.tenants;
                    let mismatches = tr.span(Layer::FarmInlineEquiv, 0, NO_QUBIT, || {
                        let mut mismatches = 0;
                        for ((tenant, pending), farm_said) in
                            tenants.iter_mut().zip(&pendings).zip(&responses)
                        {
                            let Some(instr) = &mut tenant.instr else { continue };
                            for (job, response) in pending.jobs().iter().zip(farm_said) {
                                job.request().replay_into(&mut instr.wire);
                                let inline = instr.backend.decode_stream_mut(&instr.wire);
                                if let ServiceResponse::Decoded { correction, .. } = response {
                                    mismatches += u64::from(*correction != inline);
                                }
                            }
                        }
                        mismatches
                    });
                    self.farm_mismatches += mismatches;
                }
                for (i, ((tenant, pending), response)) in
                    self.tenants.iter_mut().zip(pendings).zip(responses).enumerate()
                {
                    let machine = &mut tenant.machine;
                    tenant.outcome = Some(tr.span(Layer::CoreComplete, i, NO_QUBIT, || {
                        machine.complete(pending, response)
                    }));
                }
            }
        }
        let decode_ns = decode_start.elapsed().as_nanos() as u64;

        let cycle_index = self.cycle;
        for (i, tenant) in self.tenants.iter_mut().enumerate() {
            let resolved = tr.span(Layer::SimApply, i, NO_QUBIT, || tenant.apply(cycle_index));
            self.failed_cycles += u64::from(!resolved);
        }
        tr.end_cycle();
        self.cycle += 1;
        decode_ns
    }

    /// The fleet's simulated statistics right now.
    #[must_use]
    pub fn cycle_domain(&self) -> CycleDomain {
        let tenants = self
            .tenants
            .iter()
            .map(|t| {
                let (mut onchip, mut offchip) = (0, 0);
                for q in 0..t.machine.num_qubits() {
                    let stats = t.machine.decoder_stats(q);
                    onchip += stats.onchip;
                    offchip += stats.offchip;
                }
                let mut state_hash = FNV_OFFSET;
                for tracker in &t.trackers {
                    for (i, _) in tracker.errors().iter().enumerate().filter(|(_, &e)| e) {
                        state_hash = fnv(state_hash, i as u64);
                    }
                    state_hash = fnv(state_hash, u64::MAX);
                }
                TenantDomain {
                    stats: t.machine.stats(),
                    transport: t.machine.transport_stats(),
                    onchip,
                    offchip,
                    frames_sent: t.machine.link_stats().frames_sent,
                    logical_flips: t.logical_flips,
                    residual_syndrome_weight: t
                        .trackers
                        .iter()
                        .map(|tr| tr.syndrome_weight() as u64)
                        .sum(),
                    trace_hash: t.trace_hash,
                    state_hash,
                }
            })
            .collect();
        CycleDomain { cycles: self.cycle, qubits: self.qubits, tenants }
    }
}

/// Reads `hist.sum ÷ hist.count` and `hist.max` summed over registries
/// — exact, where the registry's own log₂ percentiles are coarse.
fn histogram_mean_max(registries: &[&MetricsRegistry], name: &str) -> (f64, u64) {
    let (mut sum, mut count, mut max) = (0, 0, 0);
    for registry in registries {
        let h = registry.histogram(name, Domain::Cycles);
        sum += h.sum();
        count += h.count();
        if h.count() > 0 {
            max = max.max(h.max());
        }
    }
    (sum as f64 / count.max(1) as f64, max)
}

impl Fleet {
    /// The per-layer counts of a traced fleet, read from the layers'
    /// public stats and telemetry registries and from the probes.
    pub fn layer_counts(&self, out: &mut Vec<Metric>) {
        let domain = self.cycle_domain();
        let instrs: Vec<&Instrumentation> =
            self.tenants.iter().filter_map(|t| t.instr.as_ref()).collect();
        let registries: Vec<&MetricsRegistry> = instrs.iter().map(|i| &i.registry).collect();
        let counter = |name: &str| -> u64 {
            registries.iter().map(|r| r.counter(name, Domain::Cycles).get()).sum()
        };
        let mut count = |name: &str, value: u64| out.push(Metric::new(name, value as f64, "count"));

        count("noise.flips", self.tenants.iter().map(|t| t.noise_flips).sum());
        count("clique.onchip_decodes", instrs.iter().map(|i| i.onchip_decodes).sum());
        count("clique.offchip_escalations", instrs.iter().map(|i| i.offchip_escalations).sum());

        let frames_sent = domain.sum(|t| t.frames_sent);
        let jobs: u64 = self.tenants.iter().map(|t| t.jobs).sum();
        count("bandwidth.frames_sent", frames_sent);
        count("bandwidth.frame_bytes", domain.sum(|t| t.stats.frame_bytes));
        count("bandwidth.retransmitted_frames", domain.sum(|t| t.transport.retransmitted_frames));
        count("bandwidth.dropped_frames", domain.sum(|t| t.transport.dropped_frames));
        count("bandwidth.corrupted_frames", domain.sum(|t| t.transport.corrupted_frames));
        count("bandwidth.duplicated_frames", domain.sum(|t| t.transport.duplicated_frames));
        count("bandwidth.reordered_frames", domain.sum(|t| t.transport.reordered_frames));
        count("bandwidth.degraded_decodes", domain.sum(|t| t.transport.degraded_decodes));

        count("sparse.stream_rebuilds", counter("sparse.stream.rebuilds"));
        count("sparse.incremental_slides", counter("sparse.stream.incremental_slides"));
        count("sparse.quiet_slides", counter("sparse.stream.quiet_slides"));
        count("sparse.clusters_solved", counter("sparse.clusters_solved"));
        count("sparse.hinted_solves", counter("sparse.warm.hinted_solves"));
        count("sparse.cold_solves", counter("sparse.warm.cold_solves"));
        let (cluster_mean, cluster_max) =
            histogram_mean_max(&registries, "sparse.cluster_solve_size");
        count("sparse.cluster_size_max", cluster_max);

        count("core.cycles", counter("machine.cycles"));
        count("core.stall_cycles", counter("machine.stall_cycles"));
        count("core.offchip_requests", counter("machine.offchip_requests"));
        count(
            "core.peak_backlog",
            domain.tenants.iter().map(|t| t.stats.peak_backlog).max().unwrap_or(0),
        );
        let (latency_mean, latency_max) =
            histogram_mean_max(&registries, "machine.escalation_latency_cycles");
        count("core.escalation_latency_cycles_max", latency_max);

        count("sim.logical_flips", domain.sum(|t| t.logical_flips));
        count("sim.residual_syndrome_weight", domain.sum(|t| t.residual_syndrome_weight));

        let farm_registry = self.farm.as_ref().map(|(farm, _)| farm.metrics().clone());
        let farm_counter = |name: &str| -> u64 {
            farm_registry.as_ref().map_or(0, |r| r.counter(name, Domain::Cycles).get())
        };
        for name in [
            "farm.submissions",
            "farm.decoded",
            "farm.batches",
            "farm.rejected_queue_full",
            "farm.rejected_deadline",
            "farm.shed_cycles",
        ] {
            count(name, farm_counter(name));
        }
        let farm_registries: Vec<&MetricsRegistry> = farm_registry.iter().collect();
        let (batch_mean, _) = histogram_mean_max(&farm_registries, "farm.batch_size");
        let (_, farm_depth_max) = histogram_mean_max(&farm_registries, "farm.queue_depth_hist");
        count("farm.queue_depth_max", farm_depth_max);

        let pool_counter = |name: &str| -> u64 {
            self.farm.as_ref().map_or(0, |(_, r)| r.counter(name, Domain::Scheduling).get())
        };
        for name in ["pool.tasks_local", "pool.tasks_stolen", "pool.tasks_inline"] {
            count(name, pool_counter(name));
        }

        // The link queue's depth histogram skips its zero samples, so
        // the mean is over all cycles, not over the histogram's count.
        let depth_sum: u64 = registries
            .iter()
            .map(|r| r.histogram("machine.queue_depth", Domain::Cycles).sum())
            .sum();
        let machine_cycles = domain.sum(|t| t.stats.cycles).max(1);
        let offchip_requests = domain.sum(|t| t.stats.offchip_requests).max(1);
        for (name, value, unit) in [
            (
                "bandwidth.bytes_per_request_mean",
                domain.sum(|t| t.stats.frame_bytes) as f64 / offchip_requests as f64,
                "bytes",
            ),
            ("bandwidth.delivery_ratio", jobs as f64 / frames_sent.max(1) as f64, "ratio"),
            ("bandwidth.degraded_share", domain.degraded_share(), "ratio"),
            ("sparse.cluster_size_mean", cluster_mean, "events"),
            ("core.stall_fraction", domain.stall_fraction(), "ratio"),
            ("core.escalation_latency_cycles_mean", latency_mean, "cycles"),
            ("core.queue_depth_mean", depth_sum as f64 / machine_cycles as f64, "requests"),
            ("sim.logical_flips_per_mround", domain.logical_flips_per_mround(), "flips/Mround"),
            ("farm.batch_size_mean", batch_mean, "jobs"),
        ] {
            out.push(Metric::new(name, value, unit));
        }
    }
}

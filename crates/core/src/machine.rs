//! The machine tier: many logical qubits, one batched packed pipeline,
//! one transport-metered off-chip link.
//!
//! [`BtwcMachine`] is the machine-level entry point (the paper's
//! Figs. 9/16 workload). Three seams define it:
//!
//! * **Batched packed ingestion** — one [`SyndromeBatch`] per cycle
//!   (a contiguous plane-major word matrix: one qubit-indexed plane of
//!   words per ancilla) instead of per-qubit `Vec<bool>` rounds. The
//!   sticky filter and the "who needs decoding at all" check run
//!   word-parallel across the whole machine
//!   ([`btwc_clique::BatchFrontend`]), so the >90%-quiet common case
//!   costs no per-qubit work.
//! * **Unified backend selection** — one [`DecoderBackend`] picks the
//!   shared room-temperature decoder (sparse blossom by default,
//!   union-find, LUT, or a custom factory), the same selector every
//!   other tier consumes.
//! * **Transport integration** — every off-chip escalation is framed as
//!   a real [`DecodeRequest`] (its rounds word-packed from the gathered
//!   window to the receive-side replay), crosses the (simulated)
//!   refrigerator boundary as wire bytes, is parsed back, and only then
//!   decoded; the shared link is a [`QueueSim`], so [`MachineStats`]
//!   reports genuine stall, backlog, and frame-byte figures instead of
//!   a bare request count.
//!
//! The batched step is **bit-identical** (outcomes and stats) to
//! running every qubit through its own [`crate::BtwcDecoder`] — pinned
//! by `tests/machine_equivalence.rs` for every [`DecoderBackend`].

use std::collections::VecDeque;

use btwc_bandwidth::{
    DecodeRequest, FaultyLink, LinkFaultModel, LinkFaultStats, QueueSim, SeqStatus, SequenceTracker,
};
use btwc_clique::{BatchFrontend, CliqueDecision, CliqueDecoder};
use btwc_lattice::{StabilizerType, SurfaceCode};
use btwc_syndrome::{BatchHistory, PackedBits, RoundHistory, SyndromeBatch};
use btwc_telemetry::{Counter, CounterFamily, Domain, Histogram, MetricsRegistry, SpanTimer};

use crate::decoder::{window_rounds, BtwcOutcome, ComplexDecoder, DecoderBackend, DecoderStats};
use crate::service::{EscalationJob, PendingCycle, ServiceResponse};

/// Base NACK/timeout backoff in cycles before a retransmit; doubles per
/// retry.
const RETRY_TIMEOUT_CYCLES: u64 = 4;

/// What happened across the whole machine in one cycle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MachineCycle {
    /// Per-qubit outcomes for this cycle, indexed by logical qubit.
    pub outcomes: Vec<BtwcOutcome>,
    /// Off-chip decode requests issued this cycle.
    pub offchip_requests: usize,
    /// Wire bytes shipped across the link this cycle (encoded
    /// [`DecodeRequest`] frames).
    pub frame_bytes: usize,
    /// Whether this cycle was a stall (idle-gate insertion, Sec. 5.2).
    pub stalled: bool,
}

/// Aggregate counters of a [`BtwcMachine`].
///
/// The machine keeps its running totals in one of these (plus, when a
/// registry is attached, live `machine.*` metrics);
/// [`BtwcMachine::stats`] returns a copy with `backlog` read off the
/// link queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MachineStats {
    /// Total cycles elapsed (useful + stall).
    pub cycles: u64,
    /// Stall cycles inserted.
    pub stalls: u64,
    /// Total off-chip decode requests.
    pub offchip_requests: u64,
    /// Total wire bytes shipped as [`DecodeRequest`] frames.
    pub frame_bytes: u64,
    /// Decode requests still waiting after the last cycle's service.
    pub backlog: u64,
    /// Largest backlog left waiting after any cycle's service.
    pub peak_backlog: u64,
}

impl MachineStats {
    /// Relative execution-time increase from stalling — the y-axis of
    /// Fig. 16. 0.10 means the program runs 10% longer.
    ///
    /// A window with no useful cycles (all-stall, or no cycles at all)
    /// reports 0.0: there is no useful baseline to be relative to, and
    /// the previous `inf`/`NaN` poisoned downstream averages.
    #[must_use]
    pub fn execution_time_increase(&self) -> f64 {
        let useful = self.cycles - self.stalls;
        if useful == 0 {
            return 0.0;
        }
        self.cycles as f64 / useful as f64 - 1.0
    }
}

/// Receiver-side transport counters of a [`BtwcMachine`] — what the
/// machine *observed* crossing its link, fault class by fault class.
/// With a deterministic [`FaultyLink`] these match the link's own
/// injected-fault counts ([`BtwcMachine::link_stats`]) one for one,
/// pinned by `tests/fault_injection.rs`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TransportStats {
    /// Frames that failed the CRC or structural parse (bit flips,
    /// truncation) and were NACKed.
    pub corrupted_frames: u64,
    /// Transmissions that delivered nothing.
    pub dropped_frames: u64,
    /// Clean second copies of an already-accepted frame, identified by
    /// their per-qubit sequence number.
    pub duplicated_frames: u64,
    /// Deliveries that arrived outside the reorder window and were
    /// discarded as stale.
    pub reordered_frames: u64,
    /// Retransmission attempts issued after NACKs/timeouts (each one
    /// consumed real link bandwidth and frame bytes).
    pub retransmitted_frames: u64,
    /// Escalations that exhausted their retry/deadline budget and fell
    /// back to the on-chip emergency correction
    /// ([`BtwcOutcome::Degraded`]).
    pub degraded_decodes: u64,
}

/// Cycle-domain metric handles recorded by [`BtwcMachine::step`] when a
/// registry is attached. The machine steps serially and every latency
/// here is derived from the cycle counter and the queue model, so all
/// of these are bit-reproducible for any `BTWC_WORKERS`.
#[derive(Debug, Clone)]
struct MachineTelemetry {
    cycles: Counter,
    stall_cycles: Counter,
    offchip_requests: Counter,
    frame_bytes: Counter,
    /// Link backlog left waiting after a cycle's service, sampled only on
    /// cycles that touched the link (escalations issued or backlog
    /// waiting) so a quiet cycle costs one atomic increment.
    queue_depth: Histogram,
    /// Encoded frame length of each escalation.
    frame_bytes_per_request: Histogram,
    /// Syndrome-arrival to correction-commit, in cycles: the rounds the
    /// escalated window sat on-chip plus the queue delay its request
    /// sees on the shared link. Wall domain (with the `wall-time`
    /// feature) measures the off-chip solve itself.
    escalation_latency: SpanTimer,
    /// Escalations per qubit.
    qubit_offchip: CounterFamily,
    /// Stall cycles charged to each qubit whose request was still
    /// waiting in the link backlog when the machine idled.
    qubit_stalls: CounterFamily,
    /// Frames NACKed for CRC/structural corruption.
    link_corrupted: Counter,
    /// Transmissions that delivered nothing.
    link_dropped: Counter,
    /// Clean duplicate deliveries discarded by sequence number.
    link_duplicated: Counter,
    /// Stale (reordered) deliveries discarded.
    link_reordered: Counter,
    /// Retransmission attempts issued.
    link_retransmitted: Counter,
    /// Retries needed per escalation that needed any (clean first
    /// attempts skip the sample, so `count` is the number of troubled
    /// escalations).
    link_retries: Histogram,
    /// Escalations resolved by the on-chip emergency fallback.
    degraded: Counter,
    /// The same, attributed per qubit.
    qubit_degraded: CounterFamily,
}

impl MachineTelemetry {
    fn register(registry: &MetricsRegistry, num_qubits: usize) -> Self {
        let c = |name: &str| registry.counter(name, Domain::Cycles);
        Self {
            cycles: c("machine.cycles"),
            stall_cycles: c("machine.stall_cycles"),
            offchip_requests: c("machine.offchip_requests"),
            frame_bytes: c("machine.frame_bytes"),
            queue_depth: registry.histogram("machine.queue_depth", Domain::Cycles),
            frame_bytes_per_request: registry
                .histogram("machine.frame_bytes_per_request", Domain::Cycles),
            escalation_latency: registry.span_timer("machine.escalation_latency"),
            qubit_offchip: registry.counter_family(
                "machine.qubit_offchip_requests",
                Domain::Cycles,
                num_qubits,
            ),
            qubit_stalls: registry.counter_family(
                "machine.qubit_stall_cycles",
                Domain::Cycles,
                num_qubits,
            ),
            link_corrupted: c("machine.link.corrupted_frames"),
            link_dropped: c("machine.link.dropped_frames"),
            link_duplicated: c("machine.link.duplicated_frames"),
            link_reordered: c("machine.link.reordered_frames"),
            link_retransmitted: c("machine.link.retransmitted_frames"),
            link_retries: registry.histogram("machine.link.retries", Domain::Cycles),
            degraded: c("machine.degraded_decodes"),
            qubit_degraded: registry.counter_family(
                "machine.qubit_degraded_decodes",
                Domain::Cycles,
                num_qubits,
            ),
        }
    }
}

/// Per-qubit escalation counters (cycle totals live machine-wide).
#[derive(Debug, Clone, Copy, Default)]
struct QubitCounters {
    onchip: u64,
    offchip: u64,
    degraded: u64,
}

/// Builder for [`BtwcMachine`] (filter depth, backend, link bandwidth,
/// link faults). The decode window holds [`crate::window_rounds`]
/// rounds.
#[derive(Debug)]
pub struct MachineBuilder<'a> {
    code: &'a SurfaceCode,
    ty: StabilizerType,
    num_qubits: usize,
    bandwidth: usize,
    clique_rounds: usize,
    backend: DecoderBackend,
    telemetry: Option<MetricsRegistry>,
    fault_model: LinkFaultModel,
    link_seed: u64,
    max_retries: usize,
    deadline_cycles: u64,
}

impl<'a> MachineBuilder<'a> {
    fn new(code: &'a SurfaceCode, ty: StabilizerType, num_qubits: usize, bandwidth: usize) -> Self {
        Self {
            code,
            ty,
            num_qubits,
            bandwidth,
            clique_rounds: 2,
            backend: DecoderBackend::default(),
            telemetry: None,
            fault_model: LinkFaultModel::none(),
            link_seed: 0xB7C2,
            max_retries: 4,
            deadline_cycles: 64,
        }
    }

    /// Sets the Clique sticky-filter depth (default 2).
    ///
    /// # Panics
    ///
    /// Panics if `rounds == 0`.
    #[must_use]
    pub fn clique_rounds(mut self, rounds: usize) -> Self {
        assert!(rounds >= 1, "sticky filter needs at least one round");
        self.clique_rounds = rounds;
        self
    }

    /// Selects the shared off-chip decoder backend (default: the exact
    /// sparse-blossom matcher) — the unified [`DecoderBackend`] selector.
    #[must_use]
    pub fn backend(mut self, backend: DecoderBackend) -> Self {
        self.backend = backend;
        self
    }

    /// Attaches a metrics registry to the built machine (see
    /// [`BtwcMachine::attach_telemetry`]).
    #[must_use]
    pub fn telemetry(mut self, registry: &MetricsRegistry) -> Self {
        self.telemetry = Some(registry.clone());
        self
    }

    /// Injects link faults into every off-chip transmission (default:
    /// the fault-free [`LinkFaultModel::none`], which draws nothing
    /// from the link RNG — a machine built with the default model is
    /// bit-identical to one with any explicit all-zero model,
    /// regardless of [`MachineBuilder::link_seed`]).
    #[must_use]
    pub fn fault_model(mut self, model: LinkFaultModel) -> Self {
        self.fault_model = model;
        self
    }

    /// Seeds the link's deterministic fault RNG (default `0xB7C2`).
    /// The machine steps serially, so the same seed reproduces the
    /// same fault sequence for any `BTWC_WORKERS`.
    #[must_use]
    pub fn link_seed(mut self, seed: u64) -> Self {
        self.link_seed = seed;
        self
    }

    /// Maximum retransmissions per escalation before the machine gives
    /// up and degrades (default 4).
    #[must_use]
    pub fn max_retries(mut self, retries: usize) -> Self {
        self.max_retries = retries;
        self
    }

    /// Total cycles an escalation may spend waiting on transport
    /// (backoff + delay jitter; queue service time is excluded) before
    /// it degrades (default 64).
    #[must_use]
    pub fn deadline_cycles(mut self, cycles: u64) -> Self {
        self.deadline_cycles = cycles;
        self
    }

    /// Builds the machine.
    ///
    /// # Panics
    ///
    /// Panics if `num_qubits == 0` or `bandwidth == 0`.
    #[must_use]
    pub fn build(self) -> BtwcMachine {
        assert!(self.num_qubits > 0, "need at least one logical qubit");
        let n_anc = self.code.num_ancillas(self.ty);
        let window_rounds = window_rounds(self.code);
        let frontend =
            BatchFrontend::with_rounds(self.code, self.ty, self.num_qubits, self.clique_rounds);
        let emergency = frontend.decoder().clone();
        let mut machine = BtwcMachine {
            num_qubits: self.num_qubits,
            num_ancillas: n_anc,
            window_rounds,
            frontend,
            window_ring: BatchHistory::new(self.num_qubits, n_anc, window_rounds),
            window_len: vec![0; self.num_qubits],
            pending: PackedBits::new(self.num_qubits),
            raw_active: PackedBits::new(self.num_qubits),
            work: PackedBits::new(self.num_qubits),
            offchip: self.backend.build(self.code, self.ty),
            backend_name: self.backend.name(),
            window: RoundHistory::new(n_anc, window_rounds),
            wire: RoundHistory::new(n_anc, window_rounds),
            queue: QueueSim::new(self.bandwidth),
            stalled: false,
            stats: MachineStats::default(),
            transport: TransportStats::default(),
            per_qubit: vec![QubitCounters::default(); self.num_qubits],
            backlog_qubits: VecDeque::new(),
            telemetry: None,
            emergency,
            link: FaultyLink::new(self.fault_model, self.link_seed),
            next_seq: vec![0; self.num_qubits],
            trackers: (0..self.num_qubits).map(|_| SequenceTracker::new()).collect(),
            max_retries: self.max_retries,
            deadline_cycles: self.deadline_cycles,
        };
        if let Some(registry) = &self.telemetry {
            machine.attach_telemetry(registry);
        }
        machine
    }
}

/// `n` logical qubits decoded by one batched pipeline behind one
/// provisioned off-chip link — see the module docs.
///
/// Feed one [`SyndromeBatch`] per cycle to [`BtwcMachine::step`].
/// When a cycle's complex-decode demand exceeds the link bandwidth, the
/// following cycle is a stall: the waveform generator issues identity
/// gates (Fig. 10), no program progress is made, but errors — and
/// therefore new decode requests — keep arriving.
pub struct BtwcMachine {
    num_qubits: usize,
    num_ancillas: usize,
    window_rounds: usize,
    frontend: BatchFrontend,
    /// One machine-wide ring of raw batched rounds. Per-qubit decode
    /// windows are *virtual*: each qubit only tracks its window length
    /// ([`BtwcMachine::window_len`]); the actual rounds are gathered
    /// out of this shared ring only when an escalation consumes them,
    /// so the per-cycle cost is one flat word copy for the whole
    /// machine instead of a transpose per active qubit.
    window_ring: BatchHistory,
    /// Cycles currently in qubit `q`'s (virtual) window — mirrors
    /// `BtwcDecoder`'s slide-on-full / skip-while-empty-and-zero
    /// bookkeeping exactly (saturates at `window_rounds`; the gather
    /// then yields the ring's most recent rounds).
    window_len: Vec<usize>,
    /// Bit `q` set iff `window_len[q] > 0` (so quiet qubits with empty
    /// windows cost no per-qubit work at all).
    pending: PackedBits,
    /// Scratch: qubits whose raw round this cycle is non-zero.
    raw_active: PackedBits,
    /// Scratch: `raw_active | pending` — qubits needing window work.
    work: PackedBits,
    /// The shared room-temperature decoder all qubits' requests hit.
    offchip: Box<dyn ComplexDecoder + Send + Sync>,
    backend_name: &'static str,
    /// Send-side scratch: one qubit's window materialized out of the
    /// ring for framing.
    window: RoundHistory,
    /// Receive-side window rebuilt from each parsed frame.
    wire: RoundHistory,
    queue: QueueSim,
    stalled: bool,
    /// Running totals; `backlog` is filled from `queue` on read.
    stats: MachineStats,
    transport: TransportStats,
    per_qubit: Vec<QubitCounters>,
    /// On-chip emergency decoder for degraded escalations (the batch
    /// frontend's Clique geometry, cloned so it stays usable while the
    /// frontend is mutably borrowed mid-step).
    emergency: CliqueDecoder,
    /// The off-chip link every escalation crosses. Defaults to
    /// [`FaultyLink::perfect`]-equivalent behavior (fault-free model),
    /// which draws nothing from its RNG.
    link: FaultyLink,
    /// Sender-side per-qubit sequence numbers: the next fresh request's
    /// number (retransmissions reuse the in-flight number).
    next_seq: Vec<u32>,
    /// Receiver-side per-qubit duplicate/reorder detection.
    trackers: Vec<SequenceTracker>,
    max_retries: usize,
    deadline_cycles: u64,
    /// FIFO mirror of the link queue's membership: the qubit behind
    /// each waiting request, in service order — what per-qubit stall
    /// attribution charges on a stall cycle.
    backlog_qubits: VecDeque<u32>,
    /// Optional metric handles (see [`BtwcMachine::attach_telemetry`]).
    telemetry: Option<MachineTelemetry>,
}

impl std::fmt::Debug for BtwcMachine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BtwcMachine")
            .field("num_qubits", &self.num_qubits)
            .field("num_ancillas", &self.num_ancillas)
            .field("backend", &self.backend_name)
            .field("stats", &self.stats())
            .finish_non_exhaustive()
    }
}

impl BtwcMachine {
    /// Starts configuring a machine of `num_qubits` logical qubits
    /// behind a link of `bandwidth` decodes/cycle.
    #[must_use]
    pub fn builder(
        code: &SurfaceCode,
        ty: StabilizerType,
        num_qubits: usize,
        bandwidth: usize,
    ) -> MachineBuilder<'_> {
        MachineBuilder::new(code, ty, num_qubits, bandwidth)
    }

    /// Number of logical qubits.
    #[must_use]
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// Ancillas per qubit (the expected batch plane count).
    #[must_use]
    pub fn num_ancillas(&self) -> usize {
        self.num_ancillas
    }

    /// Short name of the selected [`DecoderBackend`].
    #[must_use]
    pub fn backend_name(&self) -> &'static str {
        self.backend_name
    }

    /// Whether the next cycle will be a stall.
    #[must_use]
    pub fn is_stalled(&self) -> bool {
        self.stalled
    }

    /// Aggregate counters (see [`MachineStats`]).
    #[must_use]
    pub fn stats(&self) -> MachineStats {
        MachineStats { backlog: self.queue.backlog() as u64, ..self.stats }
    }

    /// Receiver-side transport counters: what this machine observed on
    /// its link, fault class by fault class (see [`TransportStats`]).
    #[must_use]
    pub fn transport_stats(&self) -> TransportStats {
        self.transport
    }

    /// Sender-side injected-fault counters of the underlying
    /// [`FaultyLink`] — the ground truth [`TransportStats`] is checked
    /// against.
    #[must_use]
    pub fn link_stats(&self) -> LinkFaultStats {
        self.link.stats()
    }

    /// Degraded decodes charged to one qubit (escalations resolved by
    /// the on-chip emergency fallback).
    ///
    /// # Panics
    ///
    /// Panics if `qubit` is out of range.
    #[must_use]
    pub fn degraded_decodes(&self, qubit: usize) -> u64 {
        self.per_qubit[qubit].degraded
    }

    /// Attach a metrics registry: from here on every step records the
    /// machine's cycle/stall/escalation counters, the per-cycle link
    /// queue depth, per-escalation frame bytes and arrival-to-commit
    /// latency in cycles, and per-qubit escalation and stall
    /// attribution under the `machine.` prefix — and the off-chip
    /// backend records its own internals (e.g. `sparse.*`) into the
    /// same registry. All machine metrics are cycle-domain.
    pub fn attach_telemetry(&mut self, registry: &MetricsRegistry) {
        self.telemetry = Some(MachineTelemetry::register(registry, self.num_qubits));
        self.offchip.attach_telemetry(registry);
    }

    /// Lifetime counters of one qubit's pipeline, identical to what a
    /// standalone [`crate::BtwcDecoder`] fed the same stream would
    /// report.
    ///
    /// # Panics
    ///
    /// Panics if `qubit` is out of range.
    #[must_use]
    pub fn decoder_stats(&self, qubit: usize) -> DecoderStats {
        let q = &self.per_qubit[qubit];
        DecoderStats {
            cycles: self.stats.cycles,
            quiet: self.stats.cycles - q.onchip - q.offchip,
            onchip: q.onchip,
            offchip: q.offchip,
        }
    }

    /// Mean on-chip coverage across all qubits.
    #[must_use]
    pub fn mean_coverage(&self) -> f64 {
        let sum: f64 = (0..self.num_qubits).map(|q| self.decoder_stats(q).coverage()).sum();
        sum / self.num_qubits as f64
    }

    /// Advances one cycle with one machine-wide batched round.
    ///
    /// The rounds are always decoded (errors do not pause during
    /// stalls); the `stalled` flag in the returned [`MachineCycle`]
    /// reports whether this cycle executed program gates or idled.
    ///
    /// Since the decode-farm split this is exactly
    /// [`BtwcMachine::step_deferred`] + an inline decode of every
    /// escalation job on the machine's own backend +
    /// [`BtwcMachine::complete`] — the reference behavior the farm
    /// conformance harness pins itself to.
    ///
    /// # Panics
    ///
    /// Panics if the batch dimensions mismatch the machine's.
    pub fn step(&mut self, batch: &SyndromeBatch) -> MachineCycle {
        let pending = self.step_deferred(batch);
        let Self { wire, offchip, telemetry, .. } = self;
        let telemetry = telemetry.as_ref();
        let responses: Vec<ServiceResponse> = pending
            .jobs
            .iter()
            .map(|job| {
                job.request.replay_into(wire);
                let correction = {
                    let _wall = telemetry.map(|t| t.escalation_latency.wall_guard());
                    offchip.decode_window_mut(wire)
                };
                ServiceResponse::Decoded { correction, queue_delay_cycles: 0 }
            })
            .collect();
        self.complete(pending, responses)
    }

    /// The submission half of [`BtwcMachine::step`]: runs the whole
    /// cycle — triage, sticky filter, transport (retries, deadline,
    /// degradation on transport failure), link-queue accounting —
    /// *except* the off-chip solves, which come back as
    /// [`EscalationJob`]s in the returned [`PendingCycle`] for a decode
    /// service to resolve. Finish the cycle with
    /// [`BtwcMachine::complete`] before stepping again, so outcomes and
    /// telemetry land in cycle order.
    ///
    /// # Panics
    ///
    /// Panics if the batch dimensions mismatch the machine's.
    pub fn step_deferred(&mut self, batch: &SyndromeBatch) -> PendingCycle {
        assert_eq!(batch.num_qubits(), self.num_qubits, "one round per qubit");
        assert_eq!(batch.num_ancillas(), self.num_ancillas, "batch ancilla width mismatch");
        let was_stalled = self.stalled;
        let cycle_index = self.stats.cycles;
        if was_stalled {
            // Per-qubit stall attribution: this idle cycle is charged
            // to every qubit whose request is still waiting on the
            // link.
            if let Some(tel) = &self.telemetry {
                for &q in &self.backlog_qubits {
                    tel.qubit_stalls.inc(q as usize);
                }
            }
        }

        // 1. Window bookkeeping, word-parallel triage: the shared ring
        //    takes one flat word copy of the whole machine round;
        //    per-qubit state is just a length counter, updated only for
        //    qubits with a non-zero raw round or an already-started
        //    window (mirrors BtwcDecoder::process_round_packed:
        //    slide-on-full, skip the push while empty-and-zero).
        batch.active_qubits_into(&mut self.raw_active);
        self.work.copy_from(&self.raw_active);
        self.work.or_with(&self.pending);
        if !self.work.is_zero() {
            // Fully-quiet machine cycles are not recorded: no qubit's
            // window includes them (every started window forces the
            // push via its pending bit).
            self.window_ring.push(batch);
        }
        for q in self.work.iter_set() {
            let len = &mut self.window_len[q];
            if *len == 0 && !self.raw_active.get(q) {
                self.pending.set(q, false);
            } else {
                // A full window slides instead of restarting: the length
                // saturates and the ring's most recent rounds are what
                // the next gather materializes.
                *len = (*len + 1).min(self.window_rounds);
                self.pending.set(q, true);
            }
        }

        // 2. One machine-wide sticky-filter pass; per-qubit decisions
        //    only where the filtered syndrome is non-zero.
        let mut outcomes = vec![BtwcOutcome::Quiet; self.num_qubits];
        let mut jobs: Vec<EscalationJob> = Vec::new();
        let mut offchip_requests = 0usize;
        let mut link_arrivals = 0usize;
        let mut frame_bytes = 0usize;
        let backlog_pre = self.queue.backlog() as u64;
        let link_bandwidth = self.queue.bandwidth() as u64;
        let max_retries = self.max_retries;
        let deadline_cycles = self.deadline_cycles;
        let Self {
            frontend,
            window_ring,
            window_len,
            window,
            pending,
            per_qubit,
            backlog_qubits,
            telemetry,
            transport,
            emergency,
            link,
            next_seq,
            trackers,
            ..
        } = self;
        let telemetry = telemetry.as_ref();
        frontend.push_batch(batch, |q, decision, filtered| match decision {
            CliqueDecision::AllZeros => {}
            CliqueDecision::Trivial(c) => {
                per_qubit[q].onchip += 1;
                outcomes[q] = BtwcOutcome::OnChip(c);
            }
            CliqueDecision::Complex => {
                per_qubit[q].offchip += 1;
                let first_position = backlog_pre + link_arrivals as u64;
                offchip_requests += 1;
                // 3. Transport: materialize the qubit's window out of
                //    the ring, frame it (v2: CRC + per-qubit sequence
                //    number), and push it through the possibly-faulty
                //    link until a clean copy arrives or the retry /
                //    deadline budget is spent.
                window_ring.gather_qubit_window(q, window_len[q], window);
                let seq = next_seq[q];
                let request =
                    DecodeRequest::from_history(q as u32, cycle_index, window).with_seq(seq);
                let frame = request.encode_v2();
                if let Some(tel) = telemetry {
                    tel.frame_bytes_per_request.record(frame.len() as u64);
                }
                let mut attempts = 0usize;
                let mut wait_cycles = 0u64;
                let resolved = loop {
                    attempts += 1;
                    link_arrivals += 1;
                    frame_bytes += frame.len();
                    backlog_qubits.push_back(q as u32);
                    let tx = link.transmit(&frame);
                    wait_cycles += tx.delay_cycles;
                    // The deadline is a hard transport budget (backoff
                    // + delay jitter, per `deadline_cycles`): a copy
                    // delivered past it is too late to commit, so the
                    // escalation degrades instead.
                    let deadline_blown = wait_cycles > deadline_cycles;
                    if tx.deliveries.is_empty() {
                        transport.dropped_frames += 1;
                        if let Some(tel) = telemetry {
                            tel.link_dropped.inc();
                        }
                    }
                    let mut accepted = None;
                    for delivery in &tx.deliveries {
                        if delivery.stale {
                            // Arrived outside the reorder window: the
                            // contents are out of date, discard.
                            transport.reordered_frames += 1;
                            if let Some(tel) = telemetry {
                                tel.link_reordered.inc();
                            }
                            continue;
                        }
                        match DecodeRequest::decode_v2(&delivery.bytes) {
                            Err(_) => {
                                // CRC or structural failure: bit flips
                                // and truncation land here. NACK.
                                transport.corrupted_frames += 1;
                                if let Some(tel) = telemetry {
                                    tel.link_corrupted.inc();
                                }
                            }
                            Ok(received) => match trackers[q].accept(received.seq) {
                                Ok(SeqStatus::Fresh) if deadline_blown => {
                                    // Clean, but jitter pushed the
                                    // arrival past the deadline:
                                    // discard and degrade below.
                                }
                                Ok(SeqStatus::Fresh) => {
                                    // The decode itself is deferred: the
                                    // accepted parse becomes an
                                    // EscalationJob below, resolved by
                                    // the decode service (or inline by
                                    // `step`).
                                    accepted = Some(received);
                                }
                                Ok(SeqStatus::Duplicate) | Err(_) => {
                                    // A clean second copy of an accepted
                                    // frame (a sequence gap cannot occur
                                    // over this loopback; counting it
                                    // here keeps the arm total).
                                    transport.duplicated_frames += 1;
                                    if let Some(tel) = telemetry {
                                        tel.link_duplicated.inc();
                                    }
                                }
                            },
                        }
                    }
                    if accepted.is_some() {
                        break accepted;
                    }
                    if deadline_blown || attempts > max_retries {
                        break None;
                    }
                    // Cycle-domain NACK/timeout backoff before the
                    // retransmit: exponential, bounded by the deadline.
                    wait_cycles += RETRY_TIMEOUT_CYCLES << (attempts - 1).min(32);
                    if wait_cycles > deadline_cycles {
                        break None;
                    }
                };
                let retries = (attempts - 1) as u64;
                transport.retransmitted_frames += retries;
                if let Some(tel) = telemetry {
                    tel.link_retransmitted.add(retries);
                    if retries > 0 {
                        tel.link_retries.record(retries);
                    }
                    tel.qubit_offchip.inc(q);
                }
                match resolved {
                    Some(received) => {
                        next_seq[q] = seq.wrapping_add(1);
                        // Arrival-to-commit latency base: the oldest
                        // round of the escalated window arrived
                        // `window_len[q] - 1` cycles ago, the FIFO link
                        // serves this request's first attempt's queue
                        // position at `bandwidth` per cycle, and
                        // transport faults added `wait_cycles` of
                        // backoff and jitter. `complete` records it
                        // (plus any service queue delay) when the
                        // correction commits.
                        let on_chip_wait = (window_len[q] as u64).saturating_sub(1);
                        let queue_delay = first_position / link_bandwidth;
                        jobs.push(EscalationJob {
                            qubit: q as u32,
                            request: received,
                            filtered: filtered.clone(),
                            latency_base: on_chip_wait + queue_delay + wait_cycles,
                            deadline_budget: deadline_cycles.saturating_sub(wait_cycles),
                        });
                    }
                    None => {
                        // Retry budget or deadline blown: fall back to
                        // the on-chip emergency correction so the
                        // machine keeps moving — the sticky filter
                        // re-escalates whatever residual survives.
                        trackers[q].resync(seq.wrapping_add(1));
                        next_seq[q] = seq.wrapping_add(1);
                        outcomes[q] =
                            degrade(transport, per_qubit, telemetry, emergency, q, filtered);
                    }
                }
                // Window consumed; the sticky filter clears itself once
                // the correction lands.
                window_len[q] = 0;
                pending.set(q, false);
            }
        });

        // 4. The shared link: every attempt (fresh or retransmitted)
        //    consumed service slots; overflow stalls the *next* cycle.
        let record = self.queue.step(link_arrivals);
        self.backlog_qubits.drain(..record.processed.min(self.backlog_qubits.len()));
        let backlog = self.queue.backlog() as u64;
        debug_assert_eq!(self.backlog_qubits.len() as u64, backlog, "queue mirror out of sync");
        self.stalled = backlog > 0;
        self.stats.cycles += 1;
        self.stats.stalls += u64::from(was_stalled);
        self.stats.offchip_requests += offchip_requests as u64;
        self.stats.frame_bytes += frame_bytes as u64;
        self.stats.peak_backlog = self.stats.peak_backlog.max(backlog);
        if let Some(tel) = &self.telemetry {
            tel.cycles.inc();
            if was_stalled {
                tel.stall_cycles.inc();
            }
            tel.offchip_requests.add(offchip_requests as u64);
            tel.frame_bytes.add(frame_bytes as u64);
            // Sampled only on cycles that touch the link (requests issued or
            // backlog waiting): a quiet machine cycle is then a single
            // counter increment, and the all-zero samples the histogram
            // skips are recoverable as `cycles - count`.
            if link_arrivals > 0 || backlog > 0 {
                tel.queue_depth.record(backlog);
            }
        }
        PendingCycle { outcomes, offchip_requests, frame_bytes, stalled: was_stalled, jobs }
    }

    /// The resolution half of [`BtwcMachine::step`]: folds one
    /// [`ServiceResponse`] per [`EscalationJob`] (in
    /// [`PendingCycle::jobs`] order) back into the cycle — committing
    /// decoded corrections with their latency samples, degrading
    /// rejected jobs to the on-chip emergency correction. A missing
    /// response (a service that lost the job) degrades too, so the
    /// cycle always resolves.
    pub fn complete(
        &mut self,
        pending: PendingCycle,
        responses: Vec<ServiceResponse>,
    ) -> MachineCycle {
        let PendingCycle { mut outcomes, offchip_requests, frame_bytes, stalled, jobs } = pending;
        let mut responses = responses.into_iter();
        for job in jobs {
            let q = job.qubit as usize;
            match responses.next() {
                Some(ServiceResponse::Decoded { correction, queue_delay_cycles }) => {
                    if let Some(tel) = &self.telemetry {
                        tel.escalation_latency
                            .record_latency(job.latency_base + queue_delay_cycles);
                    }
                    outcomes[q] = BtwcOutcome::OffChip(correction);
                }
                Some(ServiceResponse::Rejected(_)) | None => {
                    // The frame survived transport (the sequence number
                    // is already consumed), but the service refused the
                    // decode: same graceful fallback as a transport
                    // failure — the sticky filter re-escalates whatever
                    // residual survives the emergency correction.
                    outcomes[q] = degrade(
                        &mut self.transport,
                        &mut self.per_qubit,
                        self.telemetry.as_ref(),
                        &self.emergency,
                        q,
                        &job.filtered,
                    );
                }
            }
        }
        MachineCycle { outcomes, offchip_requests, frame_bytes, stalled }
    }
}

/// Resolves qubit `q`'s escalation with the on-chip emergency
/// correction of its sticky-filtered syndrome, and counts the
/// degradation — the one fallback for a transport failure
/// ([`BtwcMachine::step_deferred`]) and a service rejection
/// ([`BtwcMachine::complete`]).
fn degrade(
    transport: &mut TransportStats,
    per_qubit: &mut [QubitCounters],
    telemetry: Option<&MachineTelemetry>,
    emergency: &CliqueDecoder,
    q: usize,
    filtered: &PackedBits,
) -> BtwcOutcome {
    transport.degraded_decodes += 1;
    per_qubit[q].degraded += 1;
    if let Some(tel) = telemetry {
        tel.degraded.inc();
        tel.qubit_degraded.inc(q);
    }
    BtwcOutcome::Degraded(emergency.emergency_correction(filtered))
}

#[cfg(test)]
mod tests {
    use super::*;
    use btwc_noise::{PhenomenologicalNoise, SimRng};

    fn quiet_batch(code: &SurfaceCode, n: usize) -> SyndromeBatch {
        SyndromeBatch::new(n, code.num_ancillas(StabilizerType::X))
    }

    #[test]
    fn quiet_machine_never_stalls_and_ships_no_bytes() {
        let code = SurfaceCode::new(3);
        let mut machine = BtwcMachine::builder(&code, StabilizerType::X, 8, 2).build();
        let batch = quiet_batch(&code, 8);
        for _ in 0..20 {
            let cycle = machine.step(&batch);
            assert!(!cycle.stalled);
            assert_eq!(cycle.offchip_requests, 0);
            assert_eq!(cycle.frame_bytes, 0);
        }
        let stats = machine.stats();
        assert_eq!(stats.stalls, 0);
        assert_eq!(stats.frame_bytes, 0);
        assert_eq!(stats.peak_backlog, 0);
        assert!(stats.execution_time_increase().abs() < 1e-12);
        assert!((machine.mean_coverage() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn overflow_stalls_next_cycle_and_surfaces_backlog() {
        let code = SurfaceCode::new(7);
        let ty = StabilizerType::X;
        // 4 qubits, bandwidth 1: force 2 simultaneous complex decodes.
        let mut machine = BtwcMachine::builder(&code, ty, 4, 1).build();
        let mut errors = vec![false; code.num_data_qubits()];
        errors[3 * 7 + 3] = true;
        errors[4 * 7 + 3] = true; // interior chain => complex
        let complex_round = code.syndrome_of(ty, &errors);
        let mut batch = quiet_batch(&code, 4);
        batch.set_qubit_round_bools(0, &complex_round);
        batch.set_qubit_round_bools(1, &complex_round);
        let c1 = machine.step(&batch); // filter filling; nothing yet
        assert_eq!(c1.offchip_requests, 0);
        let c2 = machine.step(&batch); // both flagged complex, bandwidth 1
        assert_eq!(c2.offchip_requests, 2);
        assert!(c2.frame_bytes > 0, "escalations must ship frames");
        assert!(!c2.stalled, "stall applies to the *next* cycle");
        assert_eq!(machine.stats().backlog, 1);
        assert_eq!(machine.stats().peak_backlog, 1);
        let c3 = machine.step(&quiet_batch(&code, 4));
        assert!(c3.stalled, "overflow must stall the following cycle");
        assert_eq!(machine.stats().stalls, 1);
        assert_eq!(machine.stats().backlog, 0, "the backlog drains");
        assert_eq!(machine.stats().peak_backlog, 1);
        // Both escalations got real corrections.
        for q in [0usize, 1] {
            let out = &c2.outcomes[q];
            assert!(out.went_offchip());
            let mut residual = errors.clone();
            out.correction().unwrap().apply_to(&mut residual);
            assert!(code.syndrome_of(ty, &residual).iter().all(|&s| !s));
        }
        assert_eq!(machine.decoder_stats(0).offchip, 1);
        assert_eq!(machine.decoder_stats(2).offchip, 0);
    }

    #[test]
    fn noisy_run_controls_errors_with_p99_style_bandwidth() {
        let code = SurfaceCode::new(3);
        let ty = StabilizerType::X;
        let n_qubits = 16;
        let mut machine = BtwcMachine::builder(&code, ty, n_qubits, 4).build();
        let noise = PhenomenologicalNoise::uniform(3e-3);
        let mut rng = SimRng::from_seed(0xE2E);
        let mut errors = vec![vec![false; code.num_data_qubits()]; n_qubits];
        let mut batch = quiet_batch(&code, n_qubits);
        for _ in 0..2000 {
            for (q, e) in errors.iter_mut().enumerate() {
                noise.sample_data_into(&mut rng, e);
                batch.set_qubit_round_bools(q, &code.syndrome_of(ty, e));
            }
            let cycle = machine.step(&batch);
            for (e, out) in errors.iter_mut().zip(&cycle.outcomes) {
                if let Some(c) = out.correction() {
                    c.apply_to(e);
                }
            }
        }
        assert!(
            machine.stats().execution_time_increase() < 0.25,
            "execution increase {}",
            machine.stats().execution_time_increase()
        );
        for e in &errors {
            let weight = code.syndrome_of(ty, e).iter().filter(|&&s| s).count();
            assert!(weight <= 6, "runaway syndrome weight {weight}");
        }
        // The transport meter agrees with the escalation count: every
        // request ships at least the 16-byte header.
        let stats = machine.stats();
        assert!(stats.frame_bytes >= 16 * stats.offchip_requests);
    }

    #[test]
    #[should_panic(expected = "one round per qubit")]
    fn wrong_batch_width_rejected() {
        let code = SurfaceCode::new(3);
        let mut machine = BtwcMachine::builder(&code, StabilizerType::X, 2, 1).build();
        let _ = machine.step(&quiet_batch(&code, 1));
    }

    #[test]
    fn execution_time_increase_handles_degenerate_windows() {
        // No cycles at all: no baseline, not a NaN.
        assert_eq!(MachineStats::default().execution_time_increase(), 0.0);
        // All-stall window: previously divided by zero.
        let all_stall = MachineStats { cycles: 5, stalls: 5, ..MachineStats::default() };
        assert_eq!(all_stall.execution_time_increase(), 0.0);
        // Ordinary window: 110 cycles, 10 stalls => 10% longer.
        let normal = MachineStats { cycles: 110, stalls: 10, ..MachineStats::default() };
        assert!((normal.execution_time_increase() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn telemetry_mirrors_stats_and_attributes_stalls() {
        use btwc_telemetry::{Domain, MetricValue, MetricsRegistry};

        let code = SurfaceCode::new(7);
        let ty = StabilizerType::X;
        let registry = MetricsRegistry::new();
        // Same overflow scenario as above: 4 qubits, bandwidth 1, two
        // simultaneous escalations => one queued request, one stall.
        let mut machine = BtwcMachine::builder(&code, ty, 4, 1).telemetry(&registry).build();
        let mut errors = vec![false; code.num_data_qubits()];
        errors[3 * 7 + 3] = true;
        errors[4 * 7 + 3] = true;
        let complex_round = code.syndrome_of(ty, &errors);
        let mut batch = quiet_batch(&code, 4);
        batch.set_qubit_round_bools(0, &complex_round);
        batch.set_qubit_round_bools(1, &complex_round);
        machine.step(&batch);
        machine.step(&batch);
        machine.step(&quiet_batch(&code, 4));

        let stats = machine.stats();
        let snap = registry.snapshot_domains(&[Domain::Cycles]);
        assert_eq!(snap.get_counter("machine.cycles"), Some(stats.cycles));
        assert_eq!(snap.get_counter("machine.stall_cycles"), Some(stats.stalls));
        assert_eq!(snap.get_counter("machine.offchip_requests"), Some(stats.offchip_requests));
        assert_eq!(snap.get_counter("machine.frame_bytes"), Some(stats.frame_bytes));
        // Per-qubit escalations: qubits 0 and 1 each went off-chip once.
        let Some(MetricValue::Values(per_qubit)) = snap.get("machine.qubit_offchip_requests")
        else {
            panic!("qubit_offchip_requests missing");
        };
        assert_eq!(per_qubit, &[1, 1, 0, 0]);
        // The stall cycle is charged to the qubit whose request was
        // still queued: the FIFO served qubit 0 first, so qubit 1 waits.
        let Some(MetricValue::Values(stalls)) = snap.get("machine.qubit_stall_cycles") else {
            panic!("qubit_stall_cycles missing");
        };
        assert_eq!(stalls, &[0, 1, 0, 0]);
        // Both escalations recorded an arrival-to-commit latency; the
        // queued one saw exactly one extra cycle of link delay.
        let Some(MetricValue::Histogram { count, min, max, .. }) =
            snap.get("machine.escalation_latency_cycles")
        else {
            panic!("escalation_latency_cycles missing");
        };
        assert_eq!(*count, 2);
        assert_eq!(max - min, 1, "FIFO position must add one cycle of delay");
        // Queue depth samples only cycles that touched the link: the
        // one overflow cycle, which left a backlog of 1. Quiet cycles
        // are recoverable as `machine.cycles - count`.
        let Some(MetricValue::Histogram { count: qd_count, max: qd_max, .. }) =
            snap.get("machine.queue_depth")
        else {
            panic!("queue_depth missing");
        };
        assert_eq!(*qd_count, 1);
        assert_eq!(*qd_max, 1);
        assert!(stats.cycles > *qd_count, "quiet cycles skip the queue-depth sample");
    }

    #[test]
    fn telemetry_attached_machine_matches_detached() {
        use btwc_telemetry::MetricsRegistry;

        let code = SurfaceCode::new(5);
        let ty = StabilizerType::X;
        let registry = MetricsRegistry::new();
        let mut plain = BtwcMachine::builder(&code, ty, 3, 2).build();
        let mut instrumented = BtwcMachine::builder(&code, ty, 3, 2).telemetry(&registry).build();
        let noise = PhenomenologicalNoise::uniform(8e-3);
        let mut rng = SimRng::from_seed(21);
        let mut errors = vec![vec![false; code.num_data_qubits()]; 3];
        let mut batch = quiet_batch(&code, 3);
        for _ in 0..300 {
            for (q, e) in errors.iter_mut().enumerate() {
                noise.sample_data_into(&mut rng, e);
                batch.set_qubit_round_bools(q, &code.syndrome_of(ty, e));
            }
            let ca = plain.step(&batch);
            let cb = instrumented.step(&batch);
            assert_eq!(ca, cb, "telemetry must not perturb decoding");
            for (e, out) in errors.iter_mut().zip(&ca.outcomes) {
                if let Some(c) = out.correction() {
                    c.apply_to(e);
                }
            }
        }
        assert_eq!(plain.stats(), instrumented.stats());
    }
}

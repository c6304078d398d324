//! Closed-loop machine-level simulation: noise → batched machine →
//! corrections → stalling, end to end (the Figs. 9/16 workload).
//!
//! Where [`crate::LifetimeSim`] drives *one* logical qubit,
//! [`machine_offchip_trace`] drives a whole [`BtwcMachine`]: every
//! cycle it samples each qubit's noise, packs the raw rounds into one
//! transposed [`SyndromeBatch`], steps the machine (one word-parallel
//! sticky-filter pass for all qubits, off-chip escalations framed as
//! real wire bytes through the shared [`btwc_bandwidth::QueueSim`]),
//! and applies the returned corrections back onto the per-qubit error
//! trackers.
//!
//! Per-qubit RNG streams are forked from the root seed by qubit index
//! — the same fork schedule the pre-machine pooled implementation used
//! — and the batched pipeline is bit-identical to per-qubit decoding
//! (`crates/core/tests/machine_equivalence.rs`), so the produced
//! demand trace is deterministic in `(cfg.seed, num_qubits)` and
//! matches a per-qubit [`crate::LifetimeSim`] run stream-for-stream
//! (pinned by this module's tests).

use btwc_core::{
    BtwcMachine, LinkFaultModel, MachineCycle, MachineStats, StabilizerType, SurfaceCode,
    TransportStats,
};
use btwc_noise::{SimRng, SparseFlips};
use btwc_syndrome::{PackedBits, SyndromeBatch};
use btwc_telemetry::MetricsRegistry;

use crate::lifetime::LifetimeConfig;
use crate::tracker::ErrorTracker;

/// The stabilizer type every trace driver decodes.
pub(crate) const TY: StabilizerType = StabilizerType::X;

/// Simulates `num_qubits` logical qubits behind one link of
/// `bandwidth` decodes/cycle for `cfg.cycles` cycles and returns the
/// machine's aggregate stats (stalls, backlog, frame bytes — the
/// Fig. 16 quantities) together with the per-cycle off-chip demand
/// trace (the bar heights of Fig. 9).
///
/// # Panics
///
/// Panics if `num_qubits == 0` or `bandwidth == 0`.
#[must_use]
pub fn machine_offchip_trace(
    cfg: &LifetimeConfig,
    num_qubits: usize,
    bandwidth: usize,
) -> (MachineStats, Vec<usize>) {
    let run = machine_trace_impl(cfg, num_qubits, bandwidth, None, None);
    (run.stats, run.trace)
}

/// [`machine_offchip_trace`] with a metrics registry attached to the
/// machine for the whole run: `machine.*` cycle-domain metrics
/// (escalation latency percentiles, queue depth, per-qubit stalls) and
/// the off-chip decoder's own metrics (e.g. `sparse.*` for the
/// sparse backend) land in `registry`, and the returned stats/trace
/// are bit-identical to the uninstrumented run.
///
/// # Panics
///
/// Panics if `num_qubits == 0` or `bandwidth == 0`.
#[must_use]
pub fn machine_offchip_trace_telemetry(
    cfg: &LifetimeConfig,
    num_qubits: usize,
    bandwidth: usize,
    registry: &MetricsRegistry,
) -> (MachineStats, Vec<usize>) {
    let run = machine_trace_impl(cfg, num_qubits, bandwidth, Some(registry), None);
    (run.stats, run.trace)
}

/// [`machine_offchip_trace`] across a **faulty** off-chip link: every
/// escalation crosses a [`LinkFaultModel`]-driven
/// [`btwc_core::FaultyLink`] with the machine's full frame-integrity /
/// retry / degradation path engaged. Returns the machine stats, the
/// receiver-side [`TransportStats`], and the per-cycle demand trace.
/// Deterministic in `(cfg.seed, link_seed, num_qubits)` for any worker
/// count.
///
/// # Panics
///
/// Panics if `num_qubits == 0` or `bandwidth == 0`.
#[must_use]
pub fn machine_fault_trace(
    cfg: &LifetimeConfig,
    num_qubits: usize,
    bandwidth: usize,
    model: LinkFaultModel,
    link_seed: u64,
) -> (MachineStats, TransportStats, Vec<usize>) {
    let run = machine_trace_impl(cfg, num_qubits, bandwidth, None, Some((model, link_seed)));
    (run.stats, run.transport, run.trace)
}

/// One point of [`machine_fault_sweep`]: the cost of a given link
/// fault rate in execution time (retransmission pressure → stalls) and
/// decode quality (degraded decodes, end-of-run residual state).
#[derive(Debug, Clone, PartialEq)]
pub struct FaultSweepPoint {
    /// The per-class fault probability of [`LinkFaultModel::uniform`].
    pub fault_rate: f64,
    /// Machine aggregates (stalls, backlog, frame bytes).
    pub stats: MachineStats,
    /// Receiver-side transport observations (fault classes, retries,
    /// degradations).
    pub transport: TransportStats,
    /// Relative execution-time increase — the Fig. 16 y-axis, now also
    /// a function of link reliability.
    pub execution_time_increase: f64,
    /// Total residual syndrome weight across qubits when the run ends
    /// (an error-control proxy: degraded decodes leave residuals for
    /// later cycles).
    pub residual_syndrome_weight: u64,
    /// Qubits whose residual error state is a logical error at the end
    /// of the run — the logical-error-rate impact of link faults.
    pub logical_errors: u64,
}

/// Sweeps [`LinkFaultModel::uniform`] fault rates over the same
/// workload: the graceful-degradation trade-off curve (execution-time
/// increase and decode-quality impact vs link reliability).
/// Deterministic in `(cfg.seed, link_seed)`.
///
/// # Panics
///
/// Panics if `num_qubits == 0` or `bandwidth == 0`.
#[must_use]
pub fn machine_fault_sweep(
    cfg: &LifetimeConfig,
    num_qubits: usize,
    bandwidth: usize,
    fault_rates: &[f64],
    link_seed: u64,
) -> Vec<FaultSweepPoint> {
    fault_rates
        .iter()
        .map(|&rate| {
            let model = LinkFaultModel::uniform(rate);
            let run =
                machine_trace_impl(cfg, num_qubits, bandwidth, None, Some((model, link_seed)));
            FaultSweepPoint {
                fault_rate: rate,
                execution_time_increase: run.stats.execution_time_increase(),
                stats: run.stats,
                transport: run.transport,
                residual_syndrome_weight: run.residual_syndrome_weight,
                logical_errors: run.logical_errors,
            }
        })
        .collect()
}

/// Everything one closed-loop machine run produced.
pub(crate) struct TraceRun {
    pub(crate) stats: MachineStats,
    pub(crate) transport: TransportStats,
    pub(crate) trace: Vec<usize>,
    pub(crate) residual_syndrome_weight: u64,
    pub(crate) logical_errors: u64,
}

/// One machine's closed-loop driver state — the per-tenant half of
/// every trace driver in this crate (the inline loop below owns one,
/// [`crate::machine_farm_trace`] one per tenant). A cycle is
/// [`TenantState::sample`], a decode of `batch` on `machine` (inline
/// `step`, or `step_deferred` → farm → `complete`), then
/// [`TenantState::apply`].
pub(crate) struct TenantState {
    pub(crate) machine: BtwcMachine,
    pub(crate) batch: SyndromeBatch,
    pub(crate) code: SurfaceCode,
    rngs: Vec<SimRng>,
    trackers: Vec<ErrorTracker>,
    round: PackedBits,
    trace: Vec<usize>,
    p: f64,
    pm: f64,
}

impl TenantState {
    /// Builds the machine for `cfg` with one error tracker and one RNG
    /// stream per qubit, forked from `cfg.seed` by qubit index: the
    /// identical schedule the pooled per-qubit implementation used, so
    /// traces are reproducible and qubit-count-stable.
    pub(crate) fn new(
        cfg: &LifetimeConfig,
        num_qubits: usize,
        bandwidth: usize,
        registry: Option<&MetricsRegistry>,
        fault: Option<(LinkFaultModel, u64)>,
    ) -> Self {
        let code = SurfaceCode::new(cfg.distance);
        let n_anc = code.num_ancillas(TY);
        let mut builder = BtwcMachine::builder(&code, TY, num_qubits, bandwidth)
            .clique_rounds(cfg.clique_rounds)
            .backend(cfg.backend);
        if let Some(registry) = registry {
            builder = builder.telemetry(registry);
        }
        if let Some((model, link_seed)) = fault {
            builder = builder.fault_model(model).link_seed(link_seed);
        }
        let root = SimRng::from_seed(cfg.seed);
        Self {
            machine: builder.build(),
            batch: SyndromeBatch::new(num_qubits, n_anc),
            rngs: (0..num_qubits)
                .map(|q| SimRng::from_seed(root.fork(crate::shard::QUBIT_STREAM + q as u64).seed()))
                .collect(),
            trackers: (0..num_qubits).map(|_| ErrorTracker::new(&code, TY)).collect(),
            round: PackedBits::new(n_anc),
            trace: Vec::with_capacity(cfg.cycles as usize),
            p: cfg.physical_error_rate,
            pm: cfg.measurement_error_rate,
            code,
        }
    }

    /// Samples one cycle of data and measurement noise per qubit and
    /// packs the resulting raw rounds into `batch`.
    pub(crate) fn sample(&mut self) {
        let n_data = self.code.num_data_qubits();
        for (q, (rng, tracker)) in self.rngs.iter_mut().zip(&mut self.trackers).enumerate() {
            for flip in SparseFlips::new(rng, n_data, self.p) {
                tracker.flip(flip);
            }
            self.round.copy_from(tracker.syndrome());
            for a in SparseFlips::new(rng, self.round.len(), self.pm) {
                self.round.toggle(a);
            }
            self.batch.set_qubit_round(q, &self.round);
        }
    }

    /// Lands a decoded cycle's corrections on the error trackers and
    /// records its off-chip demand.
    pub(crate) fn apply(&mut self, cycle: &MachineCycle) {
        for (tracker, out) in self.trackers.iter_mut().zip(&cycle.outcomes) {
            if let Some(c) = out.correction() {
                tracker.apply(c.qubits());
            }
        }
        self.trace.push(cycle.offchip_requests);
    }

    /// Ends the run: machine aggregates plus the residual error state.
    pub(crate) fn finish(self) -> TraceRun {
        TraceRun {
            stats: self.machine.stats(),
            transport: self.machine.transport_stats(),
            trace: self.trace,
            residual_syndrome_weight: self
                .trackers
                .iter()
                .map(|t| t.syndrome_weight() as u64)
                .sum(),
            logical_errors: self
                .trackers
                .iter()
                .filter(|t| self.code.is_logical_error(TY, t.errors()))
                .count() as u64,
        }
    }
}

fn machine_trace_impl(
    cfg: &LifetimeConfig,
    num_qubits: usize,
    bandwidth: usize,
    registry: Option<&MetricsRegistry>,
    fault: Option<(LinkFaultModel, u64)>,
) -> TraceRun {
    let mut st = TenantState::new(cfg, num_qubits, bandwidth, registry, fault);
    for _ in 0..cfg.cycles {
        st.sample();
        let cycle = st.machine.step(&st.batch);
        st.apply(&cycle);
    }
    st.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lifetime::LifetimeSim;

    /// The migration pin: the machine-driven trace must reproduce the
    /// pre-machine implementation (independent per-qubit LifetimeSim
    /// runs with qubit-forked seeds, summed per cycle) bit-for-bit —
    /// batching and transport reorganize the work, never the numbers.
    #[test]
    fn machine_trace_matches_per_qubit_lifetime_sims() {
        let cfg = LifetimeConfig::new(3, 6e-3).with_cycles(1_500).with_seed(0xAB);
        let qubits = 5;
        let (_, got) = machine_offchip_trace(&cfg, qubits, qubits);
        let root = SimRng::from_seed(cfg.seed);
        let mut expected = vec![0usize; cfg.cycles as usize];
        for q in 0..qubits {
            let mut qcfg = cfg;
            qcfg.seed = root.fork(crate::shard::QUBIT_STREAM + q as u64).seed();
            let (_, flags) = LifetimeSim::new(&qcfg).run_with_trace();
            for (t, flag) in expected.iter_mut().zip(flags) {
                *t += usize::from(flag);
            }
        }
        assert_eq!(got, expected);
    }

    #[test]
    fn zero_fault_trace_matches_perfect_link() {
        // The fault-free differential pin at the sim tier: routing the
        // workload through an explicit zero-probability FaultyLink is
        // bit-identical to the default driver.
        let cfg = LifetimeConfig::new(3, 8e-3).with_cycles(1_200).with_seed(0x5A);
        let (stats, trace) = machine_offchip_trace(&cfg, 6, 2);
        let (fstats, transport, ftrace) =
            machine_fault_trace(&cfg, 6, 2, LinkFaultModel::none(), 0x1234);
        assert_eq!(stats, fstats);
        assert_eq!(trace, ftrace);
        assert_eq!(transport, TransportStats::default());
    }

    #[test]
    fn fault_sweep_is_deterministic_and_meters_degradation() {
        let cfg = LifetimeConfig::new(3, 2.2e-2).with_cycles(1_500).with_seed(0xFA);
        let rates = [0.0, 0.05, 0.30];
        let sweep = machine_fault_sweep(&cfg, 8, 4, &rates, 0x11);
        assert_eq!(sweep, machine_fault_sweep(&cfg, 8, 4, &rates, 0x11), "sweep must reproduce");
        assert_eq!(sweep[0].transport, TransportStats::default(), "zero rate injects nothing");
        // More faults => more transport work on the same demand.
        assert!(sweep[1].transport.retransmitted_frames > 0);
        assert!(
            sweep[2].transport.retransmitted_frames > sweep[1].transport.retransmitted_frames,
            "a lossier link must retransmit more"
        );
        assert!(sweep[2].stats.frame_bytes > sweep[0].stats.frame_bytes);
        assert!(sweep[2].transport.degraded_decodes > 0, "a 30% fault rate must degrade");
    }

    #[test]
    fn under_provisioning_stalls_and_meters_the_wire() {
        let cfg = LifetimeConfig::new(5, 8e-3).with_cycles(4_000).with_seed(3);
        // Bandwidth 1 for 24 noisy qubits: overflow must happen.
        let (tight, trace) = machine_offchip_trace(&cfg, 24, 1);
        assert_eq!(trace.len(), 4_000);
        assert!(tight.stalls > 0, "under-provisioned link must stall");
        assert!(tight.peak_backlog > 0);
        assert!(tight.frame_bytes >= 16 * tight.offchip_requests);
        assert!(tight.execution_time_increase() > 0.0);
        // A generous link sees the same demand but never stalls.
        let (wide, wide_trace) = machine_offchip_trace(&cfg, 24, 24);
        assert_eq!(trace, wide_trace, "demand is independent of provisioning");
        assert_eq!(wide.stalls, 0);
        assert!(wide.execution_time_increase().abs() < 1e-12);
    }
}

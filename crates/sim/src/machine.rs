//! Closed-loop machine-level simulation: noise → batched machine →
//! corrections → stalling, end to end (the Figs. 9/16 workload).
//!
//! Where [`crate::LifetimeSim`] drives *one* logical qubit,
//! [`machine_trace`] drives a whole [`BtwcMachine`] described by a
//! [`MachineSpec`] and returns one [`MachineRun`]: every
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

/// The stabilizer type every machine driver decodes.
pub(crate) const TY: StabilizerType = StabilizerType::X;

/// One machine of a closed-loop run: what [`machine_trace`] drives
/// inline and [`crate::machine_farm_trace`] drives per tenant.
#[derive(Debug, Clone)]
pub struct MachineSpec {
    /// The lifetime config: distance, error rates, cycles, off-chip
    /// backend, and the seed the per-qubit RNG streams fork from.
    pub cfg: LifetimeConfig,
    /// Logical qubits on this machine.
    pub num_qubits: usize,
    /// Off-chip link bandwidth in decodes per cycle.
    pub bandwidth: usize,
    /// The off-chip link's fault model ([`LinkFaultModel::none`] for a
    /// perfect link, which draws nothing whatever `link_seed` is).
    pub fault: LinkFaultModel,
    /// Seed of the link's deterministic fault RNG.
    pub link_seed: u64,
}

impl MachineSpec {
    /// A machine behind a perfect link.
    #[must_use]
    pub fn new(cfg: LifetimeConfig, num_qubits: usize, bandwidth: usize) -> Self {
        MachineSpec { cfg, num_qubits, bandwidth, fault: LinkFaultModel::none(), link_seed: 0 }
    }

    /// Routes this machine's escalations across a faulty link: every
    /// escalation crosses a [`btwc_core::FaultyLink`] with the
    /// machine's frame-integrity / retry / degradation path engaged.
    #[must_use]
    pub fn with_fault(mut self, model: LinkFaultModel, link_seed: u64) -> Self {
        self.fault = model;
        self.link_seed = link_seed;
        self
    }
}

/// Everything one closed-loop machine run produced.
#[derive(Debug, Clone, PartialEq)]
pub struct MachineRun {
    /// Machine aggregates (stalls, backlog, frame bytes — the Fig. 16
    /// quantities).
    pub stats: MachineStats,
    /// Receiver-side transport observations (fault classes, retries,
    /// degradations).
    pub transport: TransportStats,
    /// Per-cycle off-chip demand (the bar heights of Fig. 9).
    pub trace: Vec<usize>,
    /// Total residual syndrome weight across qubits when the run ends
    /// (degraded decodes leave residuals for later cycles).
    pub residual_syndrome_weight: u64,
    /// Qubits whose residual error state is a logical error at the end
    /// of the run.
    pub logical_errors: u64,
}

/// Simulates `spec.num_qubits` logical qubits behind one link of
/// `spec.bandwidth` decodes/cycle for `spec.cfg.cycles` cycles, each
/// cycle stepping the machine inline. With `registry`, the machine's
/// `machine.*` cycle-domain metrics and its off-chip decoder's own
/// metrics (e.g. `sparse.*`) land there; the run is bit-identical
/// either way. Deterministic in `(cfg.seed, link_seed, num_qubits)`
/// for any worker count.
///
/// # Panics
///
/// Panics if `num_qubits == 0` or `bandwidth == 0`.
#[must_use]
pub fn machine_trace(spec: &MachineSpec, registry: Option<&MetricsRegistry>) -> MachineRun {
    let mut st = TenantState::new(spec, registry);
    for _ in 0..spec.cfg.cycles {
        st.sample();
        let cycle = st.machine.step(&st.batch);
        st.apply(&cycle);
    }
    st.finish()
}

/// One machine's closed-loop driver state — the per-tenant half of
/// both machine drivers in this crate ([`machine_trace`] owns one,
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
    /// Builds the machine for `spec` with one error tracker and one RNG
    /// stream per qubit, forked from `cfg.seed` by qubit index: the
    /// identical schedule the pooled per-qubit implementation used, so
    /// traces are reproducible and qubit-count-stable.
    pub(crate) fn new(spec: &MachineSpec, registry: Option<&MetricsRegistry>) -> Self {
        let cfg = &spec.cfg;
        let num_qubits = spec.num_qubits;
        let code = SurfaceCode::new(cfg.distance);
        let n_anc = code.num_ancillas(TY);
        let mut builder = BtwcMachine::builder(&code, TY, num_qubits, spec.bandwidth)
            .clique_rounds(cfg.clique_rounds)
            .backend(cfg.backend)
            .fault_model(spec.fault)
            .link_seed(spec.link_seed);
        if let Some(registry) = registry {
            builder = builder.telemetry(registry);
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
    pub(crate) fn finish(self) -> MachineRun {
        MachineRun {
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
        let got = machine_trace(&MachineSpec::new(cfg, qubits, qubits), None).trace;
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
    fn trace_mean_matches_single_qubit_probability() {
        let cfg = LifetimeConfig::new(3, 5e-3).with_cycles(4_000).with_seed(77);
        let q = LifetimeSim::new(&cfg).run().offchip_fraction();
        let qubits = 40;
        // A wide-open link: demand measurement, not stalling.
        let trace = machine_trace(&MachineSpec::new(cfg, qubits, qubits), None).trace;
        assert_eq!(trace.len(), 4_000);
        let mean = trace.iter().sum::<usize>() as f64 / trace.len() as f64;
        let expected = q * qubits as f64;
        assert!(
            (mean - expected).abs() < 0.35 * expected.max(1.0),
            "trace mean {mean} vs expected {expected}"
        );
    }

    #[test]
    fn zero_fault_trace_matches_perfect_link() {
        // The fault-free differential pin at the sim tier: an explicit
        // zero-probability link under another seed is bit-identical to
        // the default spec's.
        let spec =
            MachineSpec::new(LifetimeConfig::new(3, 8e-3).with_cycles(1_200).with_seed(0x5A), 6, 2);
        let perfect = machine_trace(&spec, None);
        let zero = machine_trace(&spec.clone().with_fault(LinkFaultModel::none(), 0x1234), None);
        assert_eq!(perfect, zero);
        assert_eq!(zero.transport, TransportStats::default());
    }

    #[test]
    fn fault_sweep_is_deterministic_and_meters_degradation() {
        let cfg = LifetimeConfig::new(3, 2.2e-2).with_cycles(1_500).with_seed(0xFA);
        let sweep = || -> Vec<MachineRun> {
            [0.0, 0.05, 0.30]
                .iter()
                .map(|&rate| {
                    let spec =
                        MachineSpec::new(cfg, 8, 4).with_fault(LinkFaultModel::uniform(rate), 0x11);
                    machine_trace(&spec, None)
                })
                .collect()
        };
        let runs = sweep();
        assert_eq!(runs, sweep(), "sweep must reproduce");
        assert_eq!(runs[0].transport, TransportStats::default(), "zero rate injects nothing");
        // More faults => more transport work on the same demand.
        assert!(runs[1].transport.retransmitted_frames > 0);
        assert!(
            runs[2].transport.retransmitted_frames > runs[1].transport.retransmitted_frames,
            "a lossier link must retransmit more"
        );
        assert!(runs[2].stats.frame_bytes > runs[0].stats.frame_bytes);
        assert!(runs[2].transport.degraded_decodes > 0, "a 30% fault rate must degrade");
    }

    #[test]
    fn under_provisioning_stalls_and_meters_the_wire() {
        let cfg = LifetimeConfig::new(5, 8e-3).with_cycles(4_000).with_seed(3);
        // Bandwidth 1 for 24 noisy qubits: overflow must happen.
        let tight = machine_trace(&MachineSpec::new(cfg, 24, 1), None);
        assert_eq!(tight.trace.len(), 4_000);
        assert!(tight.stats.stalls > 0, "under-provisioned link must stall");
        assert!(tight.stats.peak_backlog > 0);
        assert!(tight.stats.frame_bytes >= 16 * tight.stats.offchip_requests);
        assert!(tight.stats.execution_time_increase() > 0.0);
        // A generous link sees the same demand but never stalls.
        let wide = machine_trace(&MachineSpec::new(cfg, 24, 24), None);
        assert_eq!(tight.trace, wide.trace, "demand is independent of provisioning");
        assert_eq!(wide.stats.stalls, 0);
        assert!(wide.stats.execution_time_increase().abs() < 1e-12);
    }
}

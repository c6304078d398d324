//! Multi-machine closed-loop simulation through the shared decode farm.
//!
//! [`machine_farm_trace`] is the service-tier counterpart of
//! [`crate::machine_offchip_trace`]: `N` independent machines (tenants)
//! run the same closed noise → machine → correction loop, but every
//! cycle their surviving escalations are submitted into one
//! [`DecodeFarm`] instead of each machine decoding inline. The driver
//! is lockstep — one [`DecodeFarm::service_cycle`] per machine cycle —
//! so the whole fleet run is deterministic in the tenant configs for
//! any `BTWC_WORKERS`.
//!
//! Each tenant keeps the exact per-qubit RNG fork schedule of the
//! single-machine driver (forked from *its own* `cfg.seed` by qubit
//! index), so under a [`FarmConfig::generous`] farm every tenant's
//! outcomes, stats, and `machine.*` cycle-domain telemetry are
//! **bit-identical** to an inline [`crate::machine_offchip_trace`] run
//! of the same config — the service-conformance pin in
//! `tests/farm_conformance.rs`.

use btwc_core::{window_rounds, LinkFaultModel, MachineStats, TransportStats};
use btwc_farm::{DecodeFarm, FarmConfig, SnapshotExport, TenantSubmission};
use btwc_pool::Pool;
use btwc_telemetry::{Domain, MetricsRegistry};

use crate::lifetime::LifetimeConfig;
use crate::machine::{TenantState, TraceRun, TY};

/// One machine of a [`machine_farm_trace`] fleet.
#[derive(Debug, Clone)]
pub struct FarmTenant {
    /// The tenant's lifetime config: distance, error rates, cycles,
    /// off-chip backend, and the seed its per-qubit RNG streams fork
    /// from. `cycles` must agree across the fleet (lockstep driver).
    pub cfg: LifetimeConfig,
    /// Logical qubits on this machine.
    pub num_qubits: usize,
    /// Off-chip link bandwidth in decodes per cycle.
    pub bandwidth: usize,
    /// Optional faulty-link model for this tenant's off-chip transport.
    pub fault: Option<(LinkFaultModel, u64)>,
}

impl FarmTenant {
    /// A fault-free tenant.
    #[must_use]
    pub fn new(cfg: LifetimeConfig, num_qubits: usize, bandwidth: usize) -> Self {
        FarmTenant { cfg, num_qubits, bandwidth, fault: None }
    }

    /// Routes this tenant's escalations across a faulty link.
    #[must_use]
    pub fn with_fault(mut self, model: LinkFaultModel, link_seed: u64) -> Self {
        self.fault = Some((model, link_seed));
        self
    }
}

/// One tenant's results from a [`machine_farm_trace`] run — the same
/// quantities the single-machine drivers report, plus the tenant's
/// cycle-domain telemetry snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct FarmTenantRun {
    /// Machine aggregates (stalls, backlog, frame bytes).
    pub stats: MachineStats,
    /// Receiver-side transport observations.
    pub transport: TransportStats,
    /// Per-cycle off-chip demand trace.
    pub trace: Vec<usize>,
    /// Total residual syndrome weight across the tenant's qubits at the
    /// end of the run.
    pub residual_syndrome_weight: u64,
    /// Qubits ending the run in a logical-error state.
    pub logical_errors: u64,
    /// The tenant's cycle-domain `btwc-telemetry-v1` snapshot
    /// (`machine.*` metrics; the backend decoder metrics live in the
    /// farm's slots, not the tenant registry).
    pub telemetry_json: String,
}

/// Everything a fleet run produced.
#[derive(Debug, Clone, PartialEq)]
pub struct FarmRun {
    /// Per-tenant results, in [`machine_farm_trace`] argument order.
    pub tenants: Vec<FarmTenantRun>,
    /// Cadence-exported per-tenant snapshots (empty unless
    /// [`FarmConfig::snapshot_cadence`] is set).
    pub exports: Vec<SnapshotExport>,
    /// The fleet-wide cycle-domain snapshot: `farm.*` metrics merged
    /// with every tenant's registry.
    pub aggregate_json: String,
    /// Final modeled farm queue depth (matches the `farm.queue_depth`
    /// gauge).
    pub final_queue_depth: u64,
}

/// Drives `tenants.len()` machines in lockstep through one shared
/// [`DecodeFarm`] on `pool` for `tenants[0].cfg.cycles` cycles.
///
/// Every cycle each machine runs
/// [`BtwcMachine::step_deferred`](btwc_core::BtwcMachine::step_deferred),
/// all surviving escalations are submitted to the farm in tenant order,
/// and the responses are folded back with
/// [`BtwcMachine::complete`](btwc_core::BtwcMachine::complete) before
/// corrections land on the per-qubit error trackers.
///
/// # Panics
///
/// Panics if `tenants` is empty, any tenant has zero qubits or
/// bandwidth, or the tenants disagree on `cfg.cycles`.
#[must_use]
pub fn machine_farm_trace(tenants: &[FarmTenant], config: FarmConfig, pool: Pool) -> FarmRun {
    assert!(!tenants.is_empty(), "a farm fleet needs at least one tenant");
    let cycles = tenants[0].cfg.cycles;
    assert!(
        tenants.iter().all(|t| t.cfg.cycles == cycles),
        "lockstep fleet: every tenant must run the same cycle count"
    );

    let mut farm = DecodeFarm::new(pool, config);
    // Each tenant's driver state beside the registry its machine
    // reports into (the farm merges these into the aggregate).
    let mut states: Vec<(TenantState, MetricsRegistry)> = tenants
        .iter()
        .map(|tenant| {
            let registry = MetricsRegistry::new();
            let st = TenantState::new(
                &tenant.cfg,
                tenant.num_qubits,
                tenant.bandwidth,
                Some(&registry),
                tenant.fault,
            );
            // Same decode-window sizing as the machine's own wire
            // scratch; the farm widens on demand if a request ever
            // carries more rounds.
            farm.register_tenant(
                &format!("tenant-{}", farm.num_tenants()),
                &st.code,
                TY,
                &tenant.cfg.backend,
                window_rounds(&st.code),
                &registry,
            );
            (st, registry)
        })
        .collect();

    for _ in 0..cycles {
        // Phase 1: every tenant samples noise and runs its cycle up to
        // (not including) the off-chip decodes.
        let pendings: Vec<_> = states
            .iter_mut()
            .map(|(st, _)| {
                st.sample();
                st.machine.step_deferred(&st.batch)
            })
            .collect();

        // Phase 2: one farm service cycle over the fleet's escalations.
        let submissions: Vec<TenantSubmission<'_>> = pendings
            .iter()
            .enumerate()
            .map(|(i, pending)| TenantSubmission {
                tenant: btwc_farm::TenantId(i),
                jobs: pending.jobs(),
            })
            .collect();
        let responses = farm.service_cycle(&submissions);
        drop(submissions);

        // Phase 3: fold responses back and close each tenant's loop.
        for (((st, _), pending), resp) in states.iter_mut().zip(pendings).zip(responses) {
            let cycle = st.machine.complete(pending, resp);
            st.apply(&cycle);
        }
    }

    let aggregate_json = farm.aggregate_snapshot().to_json();
    let final_queue_depth = farm.queue_depth();
    let exports = farm.take_exports();
    let tenants_out = states
        .into_iter()
        .map(|(st, registry)| {
            let TraceRun { stats, transport, trace, residual_syndrome_weight, logical_errors } =
                st.finish();
            // The tenant's own cycle-domain view. Restricted to
            // `machine.*` because the registry also carries the
            // machine's (unused-in-farm-mode) private decoder
            // registrations — the conformance pin compares the
            // machine namespace against the inline driver.
            let mut snap = registry.snapshot_domains(&[Domain::Cycles]);
            snap.retain_prefix("machine.");
            FarmTenantRun {
                stats,
                transport,
                trace,
                residual_syndrome_weight,
                logical_errors,
                telemetry_json: snap.to_json(),
            }
        })
        .collect();

    FarmRun { tenants: tenants_out, exports, aggregate_json, final_queue_depth }
}

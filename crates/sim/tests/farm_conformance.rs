//! The service-conformance harness: the decode-farm tier must be
//! invisible.
//!
//! Under a [`FarmConfig::generous`] farm, every tenant's outcomes —
//! stats, per-cycle demand trace, end-of-run error state, and
//! `machine.*` cycle-domain telemetry — must be **bit-identical** to
//! the inline single-machine loop ([`machine_offchip_trace`]), for
//! every builtin backend, for `BTWC_WORKERS` ∈ {1, 2, 8}, and any
//! submission interleaving (fleet argument order).

use btwc_sim::{
    machine_farm_trace, machine_offchip_trace_telemetry, DecoderBackend, FarmConfig, FarmTenant,
    FarmTenantRun, LifetimeConfig, Pool,
};
use btwc_telemetry::{Domain, MetricsRegistry};

const WORKER_COUNTS: [usize; 3] = [1, 2, 8];

/// The inline reference: stats, trace, and the `machine.*` snapshot of
/// a single-machine run.
fn inline_reference(
    cfg: &LifetimeConfig,
    qubits: usize,
    bandwidth: usize,
) -> (btwc_core::MachineStats, Vec<usize>, String) {
    let registry = MetricsRegistry::new();
    let (stats, trace) = machine_offchip_trace_telemetry(cfg, qubits, bandwidth, &registry);
    let mut snap = registry.snapshot_domains(&[Domain::Cycles]);
    snap.retain_prefix("machine.");
    (stats, trace, snap.to_json())
}

fn assert_tenant_matches_inline(
    run: &FarmTenantRun,
    cfg: &LifetimeConfig,
    qubits: usize,
    bandwidth: usize,
    label: &str,
) {
    let (stats, trace, telemetry) = inline_reference(cfg, qubits, bandwidth);
    assert!(stats.offchip_requests > 0, "{label}: workload never escalated — the pin is vacuous");
    assert_eq!(run.stats, stats, "{label}: machine stats diverge from the inline loop");
    assert_eq!(run.trace, trace, "{label}: demand trace diverges from the inline loop");
    assert_eq!(
        run.telemetry_json, telemetry,
        "{label}: machine.* cycle-domain telemetry diverges from the inline loop"
    );
}

/// The tentpole pin: one tenant per builtin backend, each bit-identical
/// to its inline run, at every worker count.
#[test]
fn farm_outcomes_match_inline_loop_for_every_backend_and_worker_count() {
    let backends = [
        DecoderBackend::DenseMwpm,
        DecoderBackend::SparseBlossom,
        DecoderBackend::UnionFind,
        DecoderBackend::Lut,
    ];
    // d = 5 keeps the Lut backend in range while the rate forces
    // steady escalation traffic (hundreds of farm decodes per tenant).
    let cfgs: Vec<LifetimeConfig> = backends
        .iter()
        .enumerate()
        .map(|(i, &backend)| {
            LifetimeConfig::new(5, 2.2e-2)
                .with_cycles(400)
                .with_seed(0xC0 + i as u64)
                .with_backend(backend)
        })
        .collect();
    let qubits = 4;
    let bandwidth = 2;
    for workers in WORKER_COUNTS {
        let tenants: Vec<FarmTenant> =
            cfgs.iter().map(|cfg| FarmTenant::new(*cfg, qubits, bandwidth)).collect();
        let run = machine_farm_trace(&tenants, FarmConfig::generous(), Pool::new(workers));
        assert_eq!(run.final_queue_depth, 0, "a generous farm never accumulates backlog");
        for (tenant, cfg) in run.tenants.iter().zip(&cfgs) {
            assert_tenant_matches_inline(
                tenant,
                cfg,
                qubits,
                bandwidth,
                &format!("backend {} @ {workers} workers", cfg.backend.name()),
            );
        }
    }
}

/// Submission interleaving must be invisible: permuting the fleet order
/// (which permutes every cycle's submission order into the farm, and
/// regroups which jobs share a batched decode) leaves each tenant's
/// results bit-identical.
#[test]
fn submission_interleaving_is_invisible() {
    // Two tenants share the sparse slot (their jobs batch together),
    // one has its own union-find slot.
    let cfgs = [
        LifetimeConfig::new(5, 2.2e-2)
            .with_cycles(300)
            .with_seed(1)
            .with_backend(DecoderBackend::SparseBlossom),
        LifetimeConfig::new(5, 2.2e-2)
            .with_cycles(300)
            .with_seed(2)
            .with_backend(DecoderBackend::SparseBlossom),
        LifetimeConfig::new(5, 2.2e-2)
            .with_cycles(300)
            .with_seed(3)
            .with_backend(DecoderBackend::UnionFind),
    ];
    let tenant = |i: usize| FarmTenant::new(cfgs[i], 3, 2);
    let order_a = [tenant(0), tenant(1), tenant(2)];
    let order_b = [tenant(2), tenant(0), tenant(1)];
    let run_a = machine_farm_trace(&order_a, FarmConfig::generous(), Pool::new(2));
    let run_b = machine_farm_trace(&order_b, FarmConfig::generous(), Pool::new(2));
    // run_b's tenants are [2, 0, 1] of run_a's.
    for (a, b) in [(0usize, 1usize), (1, 2), (2, 0)] {
        assert_eq!(
            run_a.tenants[a], run_b.tenants[b],
            "tenant with seed {} changed under a different interleaving",
            cfgs[a].seed
        );
    }
    // And each of them still matches its inline run.
    for (i, t) in run_a.tenants.iter().enumerate() {
        assert_tenant_matches_inline(t, &cfgs[i], 3, 2, &format!("interleaving tenant {i}"));
    }
}

//! The five named workloads. Each is a closed loop with one driver
//! thread: the next machine cycle's noise is drawn only after the
//! previous cycle's corrections landed on the error trackers.
//!
//! Why each exists is the comment on it here, one line in
//! `BENCHMARK.json` (the smoke test keeps the two sets of names equal)
//! and a paragraph in `../README.md`.

use btwc_core::{DecoderBackend, LinkFaultModel};
use btwc_farm::FarmConfig;

/// One machine of a workload.
#[derive(Debug, Clone)]
pub struct TenantSpec {
    pub distance: u16,
    pub qubits: usize,
    /// Data and measurement error rate per round (`p = p_m`).
    pub p: f64,
    pub backend: DecoderBackend,
    /// Off-chip link bandwidth in decodes per cycle.
    pub bandwidth: usize,
    pub fault: LinkFaultModel,
}

/// Who resolves the escalations.
#[derive(Debug, Clone, Copy)]
pub enum Service {
    /// Each machine decodes its own escalations.
    Inline,
    /// All machines submit into one `DecodeFarm` on a pool.
    Farm { config: FarmConfig, workers: usize },
}

#[derive(Debug, Clone)]
pub struct Workload {
    pub name: &'static str,
    pub tenants: Vec<TenantSpec>,
    pub service: Service,
    /// Machine cycles of the cycle-domain window at `--scale 1`: every
    /// simulated statistic is read after exactly this many cycles, so it
    /// depends on `(workload, seed)` alone however long the host-time
    /// measurement goes on. Sized for about 3 s on the 2-core box the
    /// benchmark was defined on.
    pub window_cycles: u64,
}

impl Workload {
    #[must_use]
    pub fn qubits(&self) -> u64 {
        self.tenants.iter().map(|t| t.qubits as u64).sum()
    }

    /// Whether every link of the workload is fault-free.
    #[must_use]
    pub fn clean_link(&self) -> bool {
        self.tenants.iter().all(|t| t.fault.is_none())
    }
}

/// Threads a workload may use: the driver plus pool workers.
#[must_use]
pub fn thread_cap() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get).min(2)
}

fn single(
    distance: u16,
    qubits: usize,
    p: f64,
    backend: DecoderBackend,
    bandwidth: usize,
    fault: LinkFaultModel,
) -> Vec<TenantSpec> {
    vec![TenantSpec { distance, qubits, p, backend, bandwidth, fault }]
}

/// Eight small machines covering both distances with both backends, so
/// the farm has four decoder slots to batch into and spread over its
/// workers.
///
/// The error rates keep escalations to one machine cycle in sixteen,
/// so that two slots are busy in the same cycle — the only case in
/// which the farm hands work to the pool — in about 0.1 % of cycles. A
/// hand-off wakes a halted virtual CPU and costs 100 µs on a quiet host
/// and 300 µs on a busy one; at the rates first tried (5e-2 and 2.2e-2,
/// a hand-off every third cycle) that was half of the farm's time, and
/// its host-time metrics moved by 35–70 % between two sets of runs of
/// the same code. At these rates hand-offs stay out of the bounded
/// percentiles and show in the traced run instead.
fn fleet() -> Vec<TenantSpec> {
    (0..8)
        .map(|i| {
            let (distance, p) = if (i / 2) % 2 == 0 { (3, 7e-3) } else { (5, 3.5e-3) };
            let backend =
                if i % 2 == 0 { DecoderBackend::SparseBlossom } else { DecoderBackend::UnionFind };
            TenantSpec {
                distance,
                qubits: 3,
                p,
                backend,
                bandwidth: 2,
                fault: LinkFaultModel::none(),
            }
        })
        .collect()
}

/// Every workload, in the order `BENCHMARK.json` lists them.
#[must_use]
pub fn all() -> Vec<Workload> {
    let clean = LinkFaultModel::none;
    vec![
        // The paper's common case (d=11, 64 qubits, p=1e-3): triage,
        // sticky filter and Clique do the decode path and the backend
        // little; frontend and sampler work shows here, a backend change
        // must not.
        Workload {
            name: "quiet_fleet",
            tenants: single(11, 64, 1e-3, DecoderBackend::SparseBlossom, 1, clean()),
            service: Service::Inline,
            window_cycles: 120_000,
        },
        // The rare complex case made common (d=13, 16 qubits, p=5e-3):
        // the sparse-blossom solve dominates wall time; backend and
        // streaming work shows here, a frontend change must not.
        Workload {
            name: "escalation_heavy",
            tenants: single(13, 16, 5e-3, DecoderBackend::SparseBlossom, 16, clean()),
            service: Service::Inline,
            window_cycles: 12_000,
        },
        // The bandwidth layer used the other way (d=5, 32 qubits,
        // p=2.2e-2, 20% link faults, O(1) LUT solve): retransmit, CRC
        // reject, dup/reorder, deadline and degradation; transport work
        // shows here.
        Workload {
            name: "hostile_link",
            tenants: single(5, 32, 2.2e-2, DecoderBackend::Lut, 12, LinkFaultModel::uniform(0.2)),
            service: Service::Inline,
            window_cycles: 150_000,
        },
        // Eight small machines (d=3 at p=7e-3 and d=5 at p=3.5e-3, sparse
        // and union-find backends) each stepped inline: per-call
        // overheads dominate; the baseline the farm is compared with.
        Workload {
            name: "fleet_inline",
            tenants: fleet(),
            service: Service::Inline,
            window_cycles: 450_000,
        },
        // The same eight tenants and seeds through one DecodeFarm on a
        // 2-worker pool: admission, batching and (rarely) pool hand-off
        // on top of the same solves; same simulated statistics as
        // fleet_inline, other host time.
        Workload {
            name: "fleet_farm",
            tenants: fleet(),
            service: Service::Farm { config: FarmConfig::bounded(64, 2), workers: thread_cap() },
            window_cycles: 450_000,
        },
    ]
}

/// The workload called `name`.
#[must_use]
pub fn by_name(name: &str) -> Option<Workload> {
    all().into_iter().find(|w| w.name == name)
}

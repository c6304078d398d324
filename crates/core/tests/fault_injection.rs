//! Fault-tolerant transport acceptance pins.
//!
//! Two guarantees from the robustness rework:
//!
//! 1. **Zero-fault differential pin** — a machine built with the
//!    default (fault-free) link is bit-identical — per-cycle outcomes,
//!    aggregate and per-qubit stats, transport counters, and the full
//!    cycle-domain telemetry snapshot — to one with an explicit
//!    [`LinkFaultModel::none`] or an explicit all-zero-probability
//!    model, for **every** builtin backend and any link seed. The
//!    fault machinery is free when off.
//! 2. **Exact counter accounting** — under real faults, the machine's
//!    receiver-side [`btwc_core::TransportStats`] match the link's
//!    injected-fault ground truth one for one, and every escalation
//!    resolves as either an off-chip commit or a counted degradation.
//!
//! The faulty-link path is bit-reproducible at equal seed (the link RNG
//! is stepped serially by the machine); `btwc-sim`'s
//! `fault_sweep_is_deterministic_and_meters_degradation` pins that.

use btwc_core::{
    BtwcMachine, BtwcOutcome, DecoderBackend, DecoderStats, LinkFaultModel, MachineCycle,
    MachineStats, StabilizerType, SurfaceCode, SyndromeBatch, TransportStats,
};
use btwc_noise::{PhenomenologicalNoise, SimRng};
use btwc_telemetry::{Domain, MetricValue, MetricsRegistry};
use btwc_testutil::noisy_round;

const D: u16 = 5;
const NUM_QUBITS: usize = 6;
const BANDWIDTH: usize = 2;

/// Drives `cycles` noisy closed-loop rounds through `machine` and
/// returns everything observable: per-cycle results, stats facades,
/// per-qubit stats, and the cycle-domain telemetry snapshot as JSON.
fn drive(
    machine: &mut BtwcMachine,
    registry: &MetricsRegistry,
    code: &SurfaceCode,
    cycles: usize,
    p: f64,
    noise_seed: u64,
) -> (Vec<MachineCycle>, MachineStats, TransportStats, Vec<DecoderStats>, String) {
    let ty = StabilizerType::X;
    let n_anc = code.num_ancillas(ty);
    let noise = PhenomenologicalNoise::uniform(p);
    let mut rng = SimRng::from_seed(noise_seed);
    let mut errors = vec![vec![false; code.num_data_qubits()]; machine.num_qubits()];
    let mut meas = vec![false; n_anc];
    let mut batch = SyndromeBatch::new(machine.num_qubits(), n_anc);
    let mut trace = Vec::with_capacity(cycles);
    for _ in 0..cycles {
        for (q, e) in errors.iter_mut().enumerate() {
            let raw = noisy_round(code, ty, &noise, &mut rng, e, &mut meas);
            batch.set_qubit_round_bools(q, &raw);
        }
        let cycle = machine.step(&batch);
        for (e, out) in errors.iter_mut().zip(&cycle.outcomes) {
            if let Some(c) = out.correction() {
                c.apply_to(e);
            }
        }
        trace.push(cycle);
    }
    let per_qubit: Vec<DecoderStats> =
        (0..machine.num_qubits()).map(|q| machine.decoder_stats(q)).collect();
    let snapshot = registry.snapshot_domains(&[Domain::Cycles]).to_json();
    (trace, machine.stats(), machine.transport_stats(), per_qubit, snapshot)
}

/// The zero-fault differential pin, per backend: default link ==
/// explicit `none()` == explicit all-zero probabilities, bit for bit,
/// regardless of seed.
fn pin_zero_fault(backend: DecoderBackend) {
    let code = SurfaceCode::new(D);
    let ty = StabilizerType::X;
    let zero_probability = LinkFaultModel {
        drop: 0.0,
        bit_flip: 0.0,
        truncate: 0.0,
        duplicate: 0.0,
        reorder: 0.0,
        delay: 0.0,
        max_delay_cycles: 9,
    };
    let variants: [(&str, Option<(LinkFaultModel, u64)>); 3] = [
        ("default", None),
        ("explicit-none", Some((LinkFaultModel::none(), 0xDEAD))),
        ("zero-probability", Some((zero_probability, 0xBEEF))),
    ];
    let mut reference = None;
    for (label, fault) in variants {
        let registry = MetricsRegistry::new();
        let mut builder = BtwcMachine::builder(&code, ty, NUM_QUBITS, BANDWIDTH)
            .backend(backend)
            .telemetry(&registry);
        if let Some((model, seed)) = fault {
            builder = builder.fault_model(model).link_seed(seed);
        }
        let mut machine = builder.build();
        let got = drive(&mut machine, &registry, &code, 700, 7e-3, 0x2E40);
        assert!(got.1.offchip_requests > 0, "pin needs real escalations ({backend:?})");
        assert_eq!(got.2, TransportStats::default(), "fault-free runs observe no faults ({label})");
        match &reference {
            None => reference = Some(got),
            Some(r) => {
                assert_eq!(&got.0, &r.0, "outcomes diverged ({backend:?}, {label})");
                assert_eq!(&got.1, &r.1, "stats diverged ({backend:?}, {label})");
                assert_eq!(&got.3, &r.3, "per-qubit stats diverged ({backend:?}, {label})");
                assert_eq!(&got.4, &r.4, "telemetry diverged ({backend:?}, {label})");
            }
        }
    }
}

#[test]
fn zero_fault_link_is_bit_identical_dense_mwpm() {
    pin_zero_fault(DecoderBackend::DenseMwpm);
}

#[test]
fn zero_fault_link_is_bit_identical_sparse_blossom() {
    pin_zero_fault(DecoderBackend::SparseBlossom);
}

#[test]
fn zero_fault_link_is_bit_identical_union_find() {
    pin_zero_fault(DecoderBackend::UnionFind);
}

#[test]
fn zero_fault_link_is_bit_identical_lut() {
    pin_zero_fault(DecoderBackend::Lut);
}

#[test]
fn observed_fault_counters_match_injected_exactly() {
    let code = SurfaceCode::new(D);
    let ty = StabilizerType::X;
    let registry = MetricsRegistry::new();
    let mut machine = BtwcMachine::builder(&code, ty, NUM_QUBITS, BANDWIDTH)
        .fault_model(LinkFaultModel::uniform(0.10))
        .link_seed(0xFA11)
        .telemetry(&registry)
        .build();
    let (trace, stats, transport, _, _) = drive(&mut machine, &registry, &code, 2000, 8e-3, 0x0B5);
    let link = machine.link_stats();

    // Receiver-observed == sender-injected, class by class.
    assert_eq!(transport.corrupted_frames, link.corrupted(), "corrupted");
    assert_eq!(transport.dropped_frames, link.dropped, "dropped");
    assert_eq!(transport.duplicated_frames, link.duplicated, "duplicated");
    assert_eq!(transport.reordered_frames, link.reordered, "reordered");
    // Every transmit was a fresh request or a counted retransmit.
    assert_eq!(
        link.frames_sent,
        stats.offchip_requests + transport.retransmitted_frames,
        "attempt accounting"
    );
    // The trace must actually exercise every fault class.
    for (n, class) in [
        (transport.corrupted_frames, "corrupted"),
        (transport.dropped_frames, "dropped"),
        (transport.duplicated_frames, "duplicated"),
        (transport.reordered_frames, "reordered"),
        (transport.retransmitted_frames, "retransmitted"),
    ] {
        assert!(n > 0, "trace never hit the {class} class");
    }

    // Every escalation resolved: off-chip commit or counted
    // degradation, never silence.
    let offchip: u64 = trace
        .iter()
        .flat_map(|c| &c.outcomes)
        .filter(|o| matches!(o, BtwcOutcome::OffChip(_)))
        .count() as u64;
    let degraded: u64 =
        trace.iter().flat_map(|c| &c.outcomes).filter(|o| o.was_degraded()).count() as u64;
    assert_eq!(offchip + degraded, stats.offchip_requests, "all escalations resolve");
    assert_eq!(degraded, transport.degraded_decodes, "degradations are counted");

    // The telemetry mirrors the same counters.
    let snap = registry.snapshot_domains(&[Domain::Cycles]);
    assert_eq!(snap.get_counter("machine.link.corrupted_frames"), Some(transport.corrupted_frames));
    assert_eq!(snap.get_counter("machine.link.dropped_frames"), Some(transport.dropped_frames));
    assert_eq!(
        snap.get_counter("machine.link.duplicated_frames"),
        Some(transport.duplicated_frames)
    );
    assert_eq!(snap.get_counter("machine.link.reordered_frames"), Some(transport.reordered_frames));
    assert_eq!(
        snap.get_counter("machine.link.retransmitted_frames"),
        Some(transport.retransmitted_frames)
    );
    assert_eq!(snap.get_counter("machine.degraded_decodes"), Some(transport.degraded_decodes));
}

#[test]
fn hostile_link_never_wedges_the_machine() {
    // A viciously lossy link: most escalations need retries, many blow
    // the budget. The machine must keep resolving every escalation
    // (off-chip or degraded), keep the backlog bounded, and drain
    // cleanly once the noise stops.
    let code = SurfaceCode::new(3);
    let ty = StabilizerType::X;
    let n_anc = code.num_ancillas(ty);
    let registry = MetricsRegistry::new();
    let mut machine = BtwcMachine::builder(&code, ty, 8, 4)
        .fault_model(LinkFaultModel::uniform(0.35))
        .link_seed(0xBAD)
        .max_retries(3)
        .telemetry(&registry)
        .build();
    let (trace, stats, transport, _, _) =
        drive(&mut machine, &registry, &code, 3000, 2.2e-2, 0xF00);
    assert!(stats.offchip_requests > 50, "need heavy escalation traffic");
    assert!(transport.degraded_decodes > 0, "a 35% fault rate must blow some retry budgets");
    let degraded: u64 =
        trace.iter().flat_map(|c| &c.outcomes).filter(|o| o.was_degraded()).count() as u64;
    assert_eq!(degraded, transport.degraded_decodes);
    let snap = registry.snapshot_domains(&[Domain::Cycles]);
    assert_eq!(snap.get_counter("machine.degraded_decodes"), Some(transport.degraded_decodes));
    // Per-qubit attribution: the accessors sum to the aggregate, and the
    // `machine.qubit_degraded_decodes` family mirrors them slot by slot.
    let per_qubit: Vec<u64> = (0..8).map(|q| machine.degraded_decodes(q)).collect();
    assert_eq!(per_qubit.iter().sum::<u64>(), transport.degraded_decodes);
    assert_eq!(
        snap.get("machine.qubit_degraded_decodes"),
        Some(&MetricValue::Values(per_qubit)),
        "the per-qubit family must equal degraded_decodes(q) for every q"
    );
    // Retransmission pressure is real but bounded: the backlog never
    // ran away.
    assert!(
        stats.peak_backlog < 200,
        "retry amplification must stay bounded, peaked at {}",
        stats.peak_backlog
    );
    // Quiet tail: the backlog drains and stalling stops.
    let quiet = SyndromeBatch::new(8, n_anc);
    for _ in 0..64 {
        let _ = machine.step(&quiet);
    }
    assert_eq!(machine.stats().backlog, 0, "quiet tail must drain the link");
    assert!(!machine.is_stalled());
}

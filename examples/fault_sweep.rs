//! Fault-tolerant transport under a lossy refrigerator link: sweeps
//! the link fault rate × provisioned bandwidth over the same machine
//! workload and prints what reliability costs — retransmission
//! pressure, execution-time increase (the Fig. 16 axis, now also a
//! function of link quality), degraded decodes, and the end-of-run
//! error-control impact.
//!
//! Every escalation crosses the link as a CRC-protected v2 frame;
//! corrupted/dropped/reordered frames are NACKed and retransmitted
//! with exponential backoff, and escalations that blow the retry or
//! deadline budget fall back to the on-chip emergency correction
//! (graceful degradation) instead of stalling the machine forever.
//!
//! Run with: `cargo run --release --example fault_sweep`

use btwc::core::LinkFaultModel;
use btwc::sim::{machine_trace, LifetimeConfig, MachineSpec};

fn main() {
    let d = 5u16;
    let p = 8e-3;
    let num_qubits = 16;
    let cycles = 4_000;
    let fault_rates = [0.0, 1e-3, 1e-2, 5e-2, 2e-1];
    let bandwidths = [2usize, 4];
    let link_seed = 0xB7C2;

    println!("BTWC fault-tolerant transport sweep");
    println!(
        "d={d}, p={p:.0e}, {num_qubits} qubits, {cycles} cycles/point, link seed {link_seed:#x}"
    );
    println!("fault model: LinkFaultModel::uniform(rate) — drop/flip/truncate/dup/reorder/delay");
    println!();

    for &bandwidth in &bandwidths {
        let cfg = LifetimeConfig::new(d, p).with_cycles(cycles).with_seed(0xFA57);
        let sweep: Vec<_> = fault_rates
            .iter()
            .map(|&rate| {
                let spec = MachineSpec::new(cfg, num_qubits, bandwidth)
                    .with_fault(LinkFaultModel::uniform(rate), link_seed);
                (rate, machine_trace(&spec, None))
            })
            .collect();
        println!("bandwidth {bandwidth} decodes/cycle:");
        println!(
            "  {:>10} {:>9} {:>9} {:>9} {:>9} {:>10} {:>9} {:>8}",
            "fault rate",
            "requests",
            "retrans",
            "degraded",
            "stalls",
            "exec+%",
            "residual",
            "logical"
        );
        for (rate, run) in &sweep {
            println!(
                "  {:>10.0e} {:>9} {:>9} {:>9} {:>9} {:>9.2}% {:>9} {:>8}",
                rate,
                run.stats.offchip_requests,
                run.transport.retransmitted_frames,
                run.transport.degraded_decodes,
                run.stats.stalls,
                run.stats.execution_time_increase() * 100.0,
                run.residual_syndrome_weight,
                run.logical_errors,
            );
        }
        // The contract the fault_injection test suite pins: a zero-rate
        // sweep point observes no faults at all, and every point keeps
        // the accounting exact (escalations resolve off-chip or as
        // counted degradations — never silently).
        assert_eq!(sweep[0].1.transport.retransmitted_frames, 0);
        assert_eq!(sweep[0].1.transport.degraded_decodes, 0);
        let zero = LinkFaultModel::uniform(0.0);
        assert!(zero.is_none(), "uniform(0) must be the draw-free perfect link");
        println!();
    }

    println!("reading the table:");
    println!("- retransmissions consume real link bandwidth: at tight provisioning the");
    println!("  stall count rises with the fault rate, not just the retry counters;");
    println!("- degraded decodes trade a best-effort on-chip correction for forward");
    println!("  progress when the link is hopeless — residual weight (and eventually");
    println!("  logical errors) is the price of that trade.");
}

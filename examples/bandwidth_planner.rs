//! Bandwidth planner: provision the refrigerator I/O for a 1000-qubit
//! machine (the paper's Sec. 5 workflow, end to end).
//!
//! 1. Measure the per-qubit off-chip decode probability by lifetime
//!    simulation (Clique coverage).
//! 2. Sweep provisioning percentiles and simulate the stall queue.
//! 3. Print the Fig. 16-style trade-off table and a recommendation at
//!    the paper's "10% execution-time increase" operating point.
//!
//! Run with: `cargo run --release --example bandwidth_planner`

use btwc::bandwidth::{sweep_tradeoff, ArrivalModel, IoModel};
use btwc::noise::SimRng;
use btwc::sim::{LifetimeConfig, LifetimeSim};

fn main() {
    let num_qubits = 1000;
    let scenarios = [(1e-3, 11u16), (5e-4, 9u16), (5e-3, 13u16)];

    for (p, d) in scenarios {
        println!("== p={p:.0e}, d={d}, {num_qubits} logical qubits ==");
        let cfg = LifetimeConfig::new(d, p).with_cycles(150_000).with_seed(42);
        let q = LifetimeSim::new(&cfg).run().offchip_fraction();
        println!("Clique coverage: {:.3}% (q = {q:.5})", (1.0 - q) * 100.0);

        let model = ArrivalModel::bernoulli(num_qubits, q.max(1e-6));
        let mut rng = SimRng::from_seed(7);
        let percentiles = [0.50, 0.90, 0.99, 0.999, 0.9999];
        let points = sweep_tradeoff(&model, &mut rng, &percentiles, 50_000);

        println!(
            "{:>8} {:>10} {:>11} {:>12} {:>8}",
            "pct", "bandwidth", "reduction", "exec+%", "stall%"
        );
        let mut recommended = None;
        for pt in &points {
            println!(
                "{:>8.4} {:>10} {:>10.1}x {:>11.2}% {:>7.2}%",
                pt.percentile,
                pt.bandwidth,
                pt.reduction,
                pt.execution_time_increase * 100.0,
                pt.stall_fraction * 100.0
            );
            if pt.execution_time_increase <= 0.10 && recommended.is_none() {
                recommended = Some(*pt);
            }
        }
        let io = IoModel::for_distance(d);
        match recommended {
            Some(pt) => println!(
                "-> provision {} decodes/cycle ({:.2} Gbps vs {:.1} Gbps unmitigated): \
                 {:.0}x reduction at {:.1}% slowdown\n",
                pt.bandwidth,
                io.gbps(pt.bandwidth as f64),
                io.full_stream_gbps(num_qubits),
                pt.reduction,
                pt.execution_time_increase * 100.0
            ),
            None => println!("-> no point met the 10% slowdown budget; provision higher\n"),
        }
    }
}

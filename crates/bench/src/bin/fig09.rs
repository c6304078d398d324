//! Fig. 9: per-cycle off-chip decodes for a 1000-logical-qubit machine
//! over a 100-cycle window, under 50th- vs 99th-percentile provisioning
//! (new decodes, carryover, and stall markers).

use btwc_bandwidth::{ArrivalModel, QueueSim};
use btwc_bench::{print_table, scaled};
use btwc_noise::SimRng;
use btwc_sim::{machine_offchip_trace, LifetimeConfig};

fn main() {
    println!("# Fig. 9 — off-chip decodes per cycle, 1000 logical qubits\n");
    // Like the paper's illustration: a scenario with ~95% Clique
    // coverage, i.e. ~5% of qubits need off-chip decode per cycle.
    let p = 8e-3;
    let d = 9;
    let num_qubits = 1000;
    let window = 100usize;

    // A real multi-qubit demand trace from the machine simulator behind
    // a wide-open link (scaled-down qubit count extrapolated to 1000
    // for tractability at BTWC_SCALE=1).
    let sim_qubits = scaled(100) as usize;
    let cfg = LifetimeConfig::new(d, p).with_cycles(window as u64 + 50).with_seed(0xF1609);
    let trace = machine_offchip_trace(&cfg, sim_qubits, sim_qubits).1;
    let factor = num_qubits as f64 / sim_qubits as f64;
    let demand: Vec<usize> = trace
        .iter()
        .skip(20) // let the filters fill
        .take(window)
        .map(|&c| (c as f64 * factor).round() as usize)
        .collect();
    let model = ArrivalModel::trace(demand.clone());
    let mut rng = SimRng::from_seed(1);
    let p50 = model.bandwidth_at_percentile(&mut rng, 0.50, demand.len());
    let p99 = model.bandwidth_at_percentile(&mut rng, 0.99, demand.len());
    println!("50th percentile bandwidth = {p50} decodes/cycle");
    println!("99th percentile bandwidth = {p99} decodes/cycle\n");

    for (label, bw) in [("50th", p50), ("99th", p99)] {
        println!("## Provisioned at the {label} percentile ({bw}/cycle)\n");
        let mut sim = QueueSim::new(bw);
        let mut rows = Vec::new();
        let mut stalls = 0u32;
        for (t, &arrivals) in demand.iter().enumerate() {
            let rec = sim.step(arrivals);
            stalls += u32::from(rec.stalled);
            if t < 20 || rec.stalled || rec.carryover > 0 {
                rows.push(vec![
                    t.to_string(),
                    rec.new_decodes.to_string(),
                    rec.carryover.to_string(),
                    rec.processed.to_string(),
                    if rec.stalled { "STALL".into() } else { String::new() },
                ]);
            }
        }
        print_table(&["cycle", "new", "carryover", "processed", ""], &rows);
        println!(
            "\n{stalls} stall cycles in a {}-cycle window (showing first 20 cycles + all congested cycles)\n",
            demand.len()
        );
    }
}

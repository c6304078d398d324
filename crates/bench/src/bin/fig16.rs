//! Fig. 16: bandwidth-reduction vs execution-time-increase trade-off
//! curves for three (physical error rate, code distance) scenarios.

use btwc_bandwidth::{sweep_tradeoff, ArrivalModel};
use btwc_bench::{fig16_scenarios, print_table, scaled, workers};
use btwc_noise::SimRng;
use btwc_sim::{LifetimeConfig, LifetimeSim};

fn main() {
    println!("# Fig. 16 — bandwidth allocation vs stalling trade-offs\n");
    let num_qubits = 1000;
    let cycles = scaled(100_000);
    let sweep_cycles = scaled(50_000) as usize;
    let percentiles = [0.50, 0.75, 0.90, 0.99, 0.999, 0.9999];
    let _ = workers();
    for (p, d) in fig16_scenarios() {
        let cfg = LifetimeConfig::new(d, p).with_cycles(cycles).with_seed(0xF1616);
        let q = LifetimeSim::new(&cfg).run().offchip_fraction();
        println!("## p={p:.0e}, d={d}: Clique coverage {:.3}% (q={q:.5})\n", (1.0 - q) * 100.0);
        let model = ArrivalModel::bernoulli(num_qubits, q.max(1e-6));
        let mut rng = SimRng::from_seed(0x16);
        let pts = sweep_tradeoff(&model, &mut rng, &percentiles, sweep_cycles);
        let rows: Vec<Vec<String>> = pts
            .iter()
            .map(|pt| {
                vec![
                    format!("{:.4}", pt.percentile),
                    pt.bandwidth.to_string(),
                    format!("{:.1}", pt.reduction),
                    format!("{:.2}", pt.execution_time_increase * 100.0),
                    format!("{:.2}", pt.stall_fraction * 100.0),
                ]
            })
            .collect();
        print_table(&["pctile", "bandwidth", "reduction (x)", "exec increase %", "stall %"], &rows);
        // The paper's headline: the reduction achievable at <=10% cost.
        if let Some(best) = pts
            .iter()
            .filter(|pt| pt.execution_time_increase <= 0.10)
            .max_by(|a, b| a.reduction.total_cmp(&b.reduction))
        {
            println!(
                "\n-> {:.1}x bandwidth reduction at {:.1}% execution-time increase\n",
                best.reduction,
                best.execution_time_increase * 100.0
            );
        } else {
            println!("\n-> no point within the 10% budget\n");
        }
    }
}

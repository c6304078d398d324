//! Shared scaffolding for the figure-regeneration binaries.
//!
//! Every table and figure of the paper's evaluation (Sec. 7) has a
//! binary in `src/bin/` that regenerates its rows/series:
//!
//! | Binary | Paper artifact |
//! |---|---|
//! | `table1` | Table 1 — ERSFQ cell library |
//! | `fig04` | Fig. 4 — syndrome distribution across (p, LER, d) scenarios |
//! | `fig09` | Fig. 9 — per-cycle off-chip decodes, 50th vs 99th pct provisioning |
//! | `fig11` | Fig. 11 — Clique on-chip coverage vs code distance |
//! | `fig12` | Fig. 12 — non-all-zeros fraction of on-chip decodes |
//! | `fig13` | Fig. 13 — off-chip data reduction: Clique vs AFS |
//! | `fig14` | Fig. 14 — logical error rate: baseline vs Clique+baseline |
//! | `fig15` | Fig. 15 — Clique SFQ power/area/latency (+ NISQ+ anchors) |
//! | `fig16` | Fig. 16 — bandwidth reduction vs execution-time increase |
//!
//! All binaries accept the `BTWC_SCALE` environment variable (a float,
//! default 1.0) to scale Monte Carlo budgets up or down, and print
//! machine-readable Markdown tables.

pub mod baseline;

use btwc_syndrome::{PackedBits, SyndromeBatch};

/// Scales a default Monte Carlo budget by the `BTWC_SCALE` environment
/// variable (min 0.01, so `BTWC_SCALE=0.05` gives quick smoke runs).
#[must_use]
pub fn scaled(default: u64) -> u64 {
    let scale = std::env::var("BTWC_SCALE")
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .unwrap_or(1.0)
        .max(0.01);
    ((default as f64 * scale) as u64).max(100)
}

/// Number of worker threads for parallel sweeps: the pool's auto
/// sizing, i.e. `BTWC_WORKERS` if set, else the available parallelism
/// (capped at 16).
#[must_use]
pub fn workers() -> usize {
    btwc_pool::Pool::auto().workers()
}

/// The `machine_step` comparison workload: `cycles` machine-wide
/// rounds for `qubits` logical qubits at distance `d`, under transient
/// (measurement-style) noise — each ancilla lit independently with
/// probability `p` per cycle. Transient noise keeps the stream in the
/// filter-dominated regime the machine tier optimizes (most qubits
/// quiet, occasional sticky leaks escalating off-chip), so the timed
/// quantity is the per-cycle *filter* machinery, not decoder work.
///
/// Returns the code, the pre-transposed per-cycle [`SyndromeBatch`]es
/// (the batched machine's input), and the identical rounds pre-split
/// per qubit (the per-qubit reference loop's input) — ingestion is off
/// the clock for both sides.
#[must_use]
pub fn machine_step_workload(
    d: u16,
    qubits: usize,
    cycles: usize,
    p: f64,
    seed: u64,
) -> (btwc_lattice::SurfaceCode, Vec<SyndromeBatch>, Vec<Vec<PackedBits>>) {
    let code = btwc_lattice::SurfaceCode::new(d);
    let n_anc = code.num_ancillas(btwc_lattice::StabilizerType::X);
    let mut rng = btwc_noise::SimRng::from_seed(seed);
    let mut batches = Vec::with_capacity(cycles);
    let mut rounds = Vec::with_capacity(cycles);
    for _ in 0..cycles {
        let mut batch = SyndromeBatch::new(qubits, n_anc);
        let mut per_qubit = Vec::with_capacity(qubits);
        for q in 0..qubits {
            let bits: Vec<bool> = (0..n_anc).map(|_| rng.bernoulli(p)).collect();
            batch.set_qubit_round_bools(q, &bits);
            per_qubit.push(PackedBits::from_bools(&bits));
        }
        batches.push(batch);
        rounds.push(per_qubit);
    }
    (code, batches, rounds)
}

/// The paper's Fig. 4 scenarios: `(physical error rate, target logical
/// error rate label, code distance)`.
#[must_use]
pub fn fig4_scenarios() -> Vec<(f64, &'static str, u16)> {
    vec![
        (5e-3, "1E-5", 25),
        (5e-3, "1E-12", 81),
        (1e-3, "1E-5", 7),
        (1e-3, "1E-12", 21),
        (5e-4, "1E-5", 5),
        (5e-4, "1E-12", 15),
    ]
}

/// The Fig. 11/12/13 sweep axes: error rates and code distances.
#[must_use]
pub fn coverage_axes() -> (Vec<f64>, Vec<u16>) {
    (vec![1e-2, 5e-3, 1e-3, 5e-4, 1e-4], vec![3, 5, 7, 9, 11, 13, 15, 17, 19, 21])
}

/// The Fig. 16 scenarios: `(physical error rate, code distance)`.
#[must_use]
pub fn fig16_scenarios() -> Vec<(f64, u16)> {
    vec![(5e-3, 13), (1e-3, 11), (1e-2, 13)]
}

/// Prints a Markdown table: a header row then aligned data rows.
pub fn print_table(headers: &[&str], rows: &[Vec<String>]) {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let head: Vec<String> = headers.iter().zip(&widths).map(|(h, w)| format!("{h:>w$}")).collect();
    println!("| {} |", head.join(" | "));
    let sep: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
    println!("| {} |", sep.join(" | "));
    for row in rows {
        let cells: Vec<String> = row.iter().zip(&widths).map(|(c, w)| format!("{c:>w$}")).collect();
        println!("| {} |", cells.join(" | "));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaled_respects_minimum() {
        // Without the env var the default passes through.
        std::env::remove_var("BTWC_SCALE");
        assert_eq!(scaled(10_000), 10_000);
    }

    #[test]
    fn scenario_tables_are_populated() {
        assert_eq!(fig4_scenarios().len(), 6);
        let (ps, ds) = coverage_axes();
        assert!(ps.len() >= 4 && ds.len() >= 8);
        assert_eq!(fig16_scenarios().len(), 3);
    }

    #[test]
    fn workers_is_positive() {
        assert!(workers() >= 1);
    }
}

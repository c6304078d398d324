//! A whole machine: 32 logical qubits behind one provisioned off-chip
//! link, driven through the batched machine tier — packed
//! [`SyndromeBatch`] ingestion, one word-parallel sticky-filter pass
//! per cycle, every escalation framed as real wire bytes, and
//! decode-overflow stalling — with the off-chip backend picked from the
//! unified [`DecoderBackend`] registry.
//!
//! Run with: `cargo run --release --example multi_qubit_machine`
//!
//! With `BTWC_TELEMETRY=1` the run also attaches a
//! [`btwc::telemetry::MetricsRegistry`], prints the escalation-latency
//! percentiles it recorded, writes the cycle-domain snapshot to
//! `TELEMETRY_machine.json`, and re-reads that file to check it is
//! valid JSON carrying the expected `machine.*`/`sparse.*` metrics.

use btwc::bandwidth::IoModel;
use btwc::core::{BtwcMachine, DecoderBackend, StabilizerType, SurfaceCode, SyndromeBatch};
use btwc::noise::{PhenomenologicalNoise, SimRng};
use btwc::telemetry::{Domain, MetricValue, MetricsRegistry};

/// Writes the cycle-domain snapshot to `TELEMETRY_machine.json` and
/// proves the emitted file is machine-readable: it must parse as strict
/// JSON and contain every key a decode-farm dashboard would scrape.
fn export_and_check_snapshot(registry: &MetricsRegistry) {
    let path = "TELEMETRY_machine.json";
    let snapshot = registry.snapshot_domains(&[Domain::Cycles]);
    snapshot.write_json(path.as_ref()).expect("write telemetry snapshot");
    let raw = std::fs::read_to_string(path).expect("re-read telemetry snapshot");
    if let Err(e) = btwc::telemetry::json::validate(&raw) {
        panic!("{path} is not valid JSON: {e}");
    }
    for key in [
        "\"schema\":\"btwc-telemetry-v1\"",
        "\"machine.cycles\"",
        "\"machine.stall_cycles\"",
        "\"machine.offchip_requests\"",
        "\"machine.frame_bytes\"",
        "\"machine.queue_depth\"",
        "\"machine.escalation_latency_cycles\"",
        "\"machine.qubit_offchip_requests\"",
        "\"machine.qubit_stall_cycles\"",
        "\"sparse.clusters_solved\"",
        "\"sparse.solve_stages\"",
    ] {
        assert!(raw.contains(key), "{path} is missing {key}");
    }
    println!("telemetry: wrote {path} ({} bytes, valid JSON, all keys present)", raw.len());
}

fn main() {
    let telemetry_on = std::env::var("BTWC_TELEMETRY").is_ok_and(|v| v == "1");
    let d = 7u16;
    let p = 5e-3;
    let num_qubits = 32;
    let bandwidth = 3; // decodes/cycle across the whole machine
    let cycles = 3_000;

    let code = SurfaceCode::new(d);
    let ty = StabilizerType::X;
    let registry = MetricsRegistry::new();
    let mut builder = BtwcMachine::builder(&code, ty, num_qubits, bandwidth)
        .backend(DecoderBackend::SparseBlossom);
    if telemetry_on {
        builder = builder.telemetry(&registry);
    }
    let mut machine = builder.build();
    let noise = PhenomenologicalNoise::uniform(p);
    let mut rng = SimRng::from_seed(0xFEED);

    let mut errors = vec![vec![false; code.num_data_qubits()]; num_qubits];
    let mut meas = vec![false; code.num_ancillas(ty)];
    let mut batch = SyndromeBatch::new(num_qubits, code.num_ancillas(ty));
    let mut peak_requests = 0usize;

    for _ in 0..cycles {
        for (q, e) in errors.iter_mut().enumerate() {
            noise.sample_data_into(&mut rng, e);
            noise.sample_measurement_into(&mut rng, &mut meas);
            let mut round = code.syndrome_of(ty, e);
            for (r, &m) in round.iter_mut().zip(&meas) {
                *r ^= m;
            }
            batch.set_qubit_round_bools(q, &round);
        }
        let cycle = machine.step(&batch);
        peak_requests = peak_requests.max(cycle.offchip_requests);
        for (e, out) in errors.iter_mut().zip(&cycle.outcomes) {
            if let Some(c) = out.correction() {
                c.apply_to(e);
            }
        }
    }

    let stats = machine.stats();
    println!("machine : {num_qubits} logical qubits, d={d}, p={p:.0e}");
    println!("backend : {}", machine.backend_name());
    println!("link    : {bandwidth} decodes/cycle provisioned");
    println!("cycles  : {} total, {} stalls", stats.cycles, stats.stalls);
    println!("slowdown: {:.2}% execution-time increase", stats.execution_time_increase() * 100.0);
    println!(
        "off-chip: {} requests total, peak {} in one cycle, peak backlog {}",
        stats.offchip_requests, peak_requests, stats.peak_backlog
    );
    println!(
        "wire    : {} frame bytes total ({:.1} bytes/request)",
        stats.frame_bytes,
        stats.frame_bytes as f64 / (stats.offchip_requests.max(1)) as f64
    );
    println!("coverage: {:.2}% mean across qubits", machine.mean_coverage() * 100.0);

    let io = IoModel::for_distance(d);
    println!(
        "I/O     : {:.3} Gbps provisioned vs {:.2} Gbps unmitigated ({:.0}x reduction)",
        io.gbps(bandwidth as f64),
        io.full_stream_gbps(num_qubits),
        io.full_stream_gbps(num_qubits) / io.gbps(bandwidth as f64)
    );

    if telemetry_on {
        let snap = registry.snapshot_domains(&[Domain::Cycles]);
        if let Some(MetricValue::Histogram { p50, p90, p99, .. }) =
            snap.get("machine.escalation_latency_cycles")
        {
            println!(
                "latency : escalation (syndrome arrival → correction commit) \
                 p50≤{p50} p90≤{p90} p99≤{p99} cycles"
            );
        }
        export_and_check_snapshot(&registry);
    }

    // Sanity: the machine is actually correcting — all syndromes drain
    // under a quiet tail.
    let mut residual = 0usize;
    for e in &errors {
        residual += code.syndrome_of(ty, e).iter().filter(|&&s| s).count();
    }
    println!("residual lit ancillas after run: {residual} (in-flight only)");
}

//! Ablation: decoder-hierarchy tiers (paper Sec. 8.1, future work 2).
//!
//! Compares the exact MWPM matcher against the union-find decoder as
//! the heavyweight tier behind Clique: logical error rate and software
//! decode throughput on identical windows. The expected shape: UF is
//! markedly faster with a modest accuracy cost — the classic
//! speed/accuracy rung between Clique and blossom matching.

use std::time::Instant;

use btwc_bench::{print_table, scaled};
use btwc_lattice::{StabilizerType, SurfaceCode};
use btwc_mwpm::MwpmDecoder;
use btwc_noise::{SimRng, SparseFlips};
use btwc_sim::ErrorTracker;
use btwc_syndrome::{ComplexDecoder, RoundHistory};
use btwc_uf::UnionFindDecoder;

fn measure(d: u16, p: f64, shots: u64, tier_is_uf: bool, seed: u64) -> (f64, f64) {
    let ty = StabilizerType::X;
    let code = SurfaceCode::new(d);
    let mut tier: Box<dyn ComplexDecoder> = if tier_is_uf {
        Box::new(UnionFindDecoder::new(&code, ty))
    } else {
        Box::new(MwpmDecoder::new(&code, ty))
    };
    let mut tracker = ErrorTracker::new(&code, ty);
    let n_anc = code.num_ancillas(ty);
    let n_data = code.num_data_qubits();
    let mut rng = SimRng::from_seed(seed);
    let rounds = usize::from(d);
    let mut window = RoundHistory::new(n_anc, rounds + 1);
    let mut round = btwc_syndrome::PackedBits::new(n_anc);
    let mut fails = 0u64;
    let mut decode_time = std::time::Duration::ZERO;
    for _ in 0..shots {
        tracker.reset();
        window.reset();
        for _ in 0..rounds {
            for q in SparseFlips::new(&mut rng, n_data, p) {
                tracker.flip(q);
            }
            round.copy_from(tracker.syndrome());
            for a in SparseFlips::new(&mut rng, n_anc, p) {
                round.toggle(a);
            }
            window.push_packed(&round);
        }
        window.push_packed(tracker.syndrome());
        let t0 = Instant::now();
        let c = tier.decode_window_mut(&window);
        decode_time += t0.elapsed();
        tracker.apply(c.qubits());
        fails += u64::from(code.is_logical_error(ty, tracker.errors()));
    }
    let ler = fails as f64 / shots as f64;
    let us_per_decode = decode_time.as_secs_f64() * 1e6 / shots as f64;
    (ler, us_per_decode)
}

fn main() {
    println!("# Ablation — heavyweight tier: exact MWPM vs union-find\n");
    let shots = scaled(8_000);
    let mut rows = Vec::new();
    for (d, p) in [(5u16, 8e-3), (7, 8e-3), (9, 8e-3), (11, 1.2e-2)] {
        let (mwpm_ler, mwpm_us) = measure(d, p, shots, false, 0xAB1);
        let (uf_ler, uf_us) = measure(d, p, shots, true, 0xAB1);
        rows.push(vec![
            d.to_string(),
            format!("{p:.1e}"),
            format!("{mwpm_ler:.2e}"),
            format!("{uf_ler:.2e}"),
            format!("{mwpm_us:.1}"),
            format!("{uf_us:.1}"),
            format!("{:.1}x", mwpm_us / uf_us.max(1e-9)),
        ]);
        eprintln!("done: d={d}");
    }
    print_table(&["d", "p", "MWPM LER", "UF LER", "MWPM us/dec", "UF us/dec", "UF speedup"], &rows);
    println!("\n({shots} shots per point; decode time is the off-chip window decode only)");
}

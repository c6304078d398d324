//! Criterion micro-benchmarks of the decode kernels: the per-cycle cost
//! of the Clique decision, the MWPM matching, the synthesized SFQ
//! netlist, and the AFS compressors. These are the "decoder overheads"
//! the paper's Sec. 7.4 argues about, measured in software.

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};
use std::hint::black_box;

use btwc_afs::SparseRepr;
use btwc_bench::baseline::{sample_noisy_rounds, sample_noisy_window, BoolVecHistory};
use btwc_clique::{CliqueDecoder, CliqueFrontend};
use btwc_lattice::{StabilizerType, SurfaceCode};
use btwc_mwpm::blossom::minimum_weight_perfect_matching;
use btwc_mwpm::MwpmDecoder;
use btwc_noise::{PhenomenologicalNoise, SimRng};
use btwc_sfq::{synthesize_clique, NetlistState};
use btwc_sim::{logical_error_rate, DecoderKind, ShotConfig};
use btwc_sparse::SparseDecoder;
use btwc_syndrome::{DetectionEvent, PackedBits, RoundHistory, Syndrome};
use btwc_uf::UnionFindDecoder;

fn random_syndrome(rng: &mut SimRng, code: &SurfaceCode, p: f64) -> Syndrome {
    let noise = PhenomenologicalNoise::uniform(p);
    let mut errors = vec![false; code.num_data_qubits()];
    noise.sample_data_into(rng, &mut errors);
    PackedBits::from_bools(&code.syndrome_of(StabilizerType::X, &errors))
}

/// The tentpole comparison: the packed word-parallel sticky-filter path
/// versus the seed's `Vec<bool>` byte-per-bit path, on identical round
/// streams (d = 11, p = 2e-3 raw rounds). The packed side also runs the
/// full Clique frontend (filter + decision) to show the end-to-end
/// per-cycle cost.
fn bench_sticky_filter(c: &mut Criterion) {
    let mut group = c.benchmark_group("sticky_filter");
    let d = 11u16;
    let code = SurfaceCode::new(d);
    let n_anc = code.num_ancillas(StabilizerType::X);
    let rounds_bool = sample_noisy_rounds(&code, 512, 2e-3, 7);
    let rounds_packed: Vec<PackedBits> =
        rounds_bool.iter().map(|r| PackedBits::from_bools(r)).collect();

    group.bench_function("boolvec_baseline", |b| {
        let mut h = BoolVecHistory::new(n_anc, 2);
        let mut i = 0;
        b.iter(|| {
            i = (i + 1) % rounds_bool.len();
            h.push(&rounds_bool[i]);
            black_box(h.sticky(2))
        });
    });
    group.bench_function("packed", |b| {
        let mut h = RoundHistory::new(n_anc, 2);
        let mut out = Syndrome::new(n_anc);
        let mut i = 0;
        b.iter(|| {
            i = (i + 1) % rounds_packed.len();
            h.push_packed(&rounds_packed[i]);
            h.sticky_into(2, &mut out);
            black_box(out.weight())
        });
    });
    group.bench_function("packed_full_frontend", |b| {
        let mut fe = CliqueFrontend::new(&code, StabilizerType::X);
        let mut i = 0;
        b.iter(|| {
            i = (i + 1) % rounds_packed.len();
            black_box(fe.push_round_packed(&rounds_packed[i]))
        });
    });
    group.finish();
}

/// The d = 11 LER shot loop (paper Fig. 14's workload at its largest
/// distance) — the acceptance kernel for the packed rewrite.
fn bench_ler_shots_d11(c: &mut Criterion) {
    let mut group = c.benchmark_group("ler_shots_d11");
    group.sample_size(10);
    for kind in [DecoderKind::MwpmOnly, DecoderKind::CliquePlusMwpm] {
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{kind:?}")),
            &kind,
            |b, &kind| {
                let mut seed = 0u64;
                b.iter(|| {
                    seed += 1;
                    let cfg = ShotConfig::new(11, 2e-3).with_shots(20).with_seed(seed);
                    black_box(logical_error_rate(&cfg, kind))
                });
            },
        );
    }
    group.finish();
}

fn bench_clique_decode(c: &mut Criterion) {
    let mut group = c.benchmark_group("clique_decode");
    for d in [3u16, 9, 15, 21] {
        let code = SurfaceCode::new(d);
        let decoder = CliqueDecoder::new(&code, StabilizerType::X);
        let mut rng = SimRng::from_seed(1);
        let syndromes: Vec<Syndrome> =
            (0..256).map(|_| random_syndrome(&mut rng, &code, 2e-3)).collect();
        group.bench_with_input(BenchmarkId::from_parameter(d), &d, |b, _| {
            let mut i = 0;
            b.iter(|| {
                i = (i + 1) % syndromes.len();
                black_box(decoder.decode(&syndromes[i]))
            });
        });
    }
    group.finish();
}

fn bench_mwpm_decode(c: &mut Criterion) {
    let mut group = c.benchmark_group("mwpm_decode_window");
    group.sample_size(20);
    for d in [5u16, 9, 13] {
        let code = SurfaceCode::new(d);
        let mut decoder = MwpmDecoder::new(&code, StabilizerType::X);
        let noise = PhenomenologicalNoise::uniform(5e-3);
        let mut rng = SimRng::from_seed(2);
        let n_anc = code.num_ancillas(StabilizerType::X);
        // Build a d-round noisy window.
        let mut window = RoundHistory::new(n_anc, usize::from(d) + 1);
        let mut errors = vec![false; code.num_data_qubits()];
        let mut meas = vec![false; n_anc];
        for _ in 0..usize::from(d) {
            noise.sample_data_into(&mut rng, &mut errors);
            noise.sample_measurement_into(&mut rng, &mut meas);
            let mut round = code.syndrome_of(StabilizerType::X, &errors);
            for (r, &m) in round.iter_mut().zip(&meas) {
                *r ^= m;
            }
            window.push(&round);
        }
        window.push(&code.syndrome_of(StabilizerType::X, &errors));
        group.bench_with_input(BenchmarkId::from_parameter(d), &d, |b, _| {
            b.iter(|| black_box(decoder.decode_window_mut(&window)));
        });
    }
    group.finish();
}

/// The off-chip scaling comparison: dense all-pairs blossom versus
/// sparse region-collision matching on identical noisy windows at the
/// paper's operational error rate. The dense side pays O(n³) in the
/// event count per decode; the sparse side merges colliding regions and
/// matches only inside the resulting clusters, so it wins from d = 13
/// up (the acceptance bar).
fn bench_sparse_vs_dense(c: &mut Criterion) {
    let mut group = c.benchmark_group("sparse_vs_dense");
    group.sample_size(20);
    for d in [5u16, 9, 13, 17, 21] {
        let code = SurfaceCode::new(d);
        let ty = StabilizerType::X;
        let mut dense = MwpmDecoder::new(&code, ty);
        let mut sparse = SparseDecoder::new(&code, ty);
        let mut rng = SimRng::from_seed(8);
        let windows: Vec<RoundHistory> = (0..16)
            .map(|_| sample_noisy_window(&code, ty, 1e-3, usize::from(d), &mut rng))
            .collect();
        group.bench_with_input(BenchmarkId::new("dense", d), &d, |b, _| {
            let mut i = 0;
            b.iter(|| {
                i = (i + 1) % windows.len();
                black_box(dense.decode_window_mut(&windows[i]))
            });
        });
        group.bench_with_input(BenchmarkId::new("sparse", d), &d, |b, _| {
            let mut i = 0;
            b.iter(|| {
                i = (i + 1) % windows.len();
                black_box(sparse.decode_window_mut(&windows[i]))
            });
        });
    }
    group.finish();
}

/// The chained-cluster regime: operational-rate windows (p = 5e-3) at
/// d ∈ {17, 21}, where a window's events routinely merge into a few
/// large clusters. This is exactly where the pre-in-solver sparse path
/// lost: its ≥ 3-event clusters fell back to a dense blossom whose
/// tables scale with the cluster, so one chained cluster dragged the
/// decode back to dense cost. The in-solver sparse blossom matches the
/// same clusters on their collision edges alone.
fn bench_chained_cluster(c: &mut Criterion) {
    let mut group = c.benchmark_group("chained_cluster");
    group.sample_size(10);
    for d in [17u16, 21] {
        let code = SurfaceCode::new(d);
        let ty = StabilizerType::X;
        let mut dense = MwpmDecoder::new(&code, ty);
        let mut sparse = SparseDecoder::new(&code, ty);
        let mut rng = SimRng::from_seed(0xC4A1);
        let windows: Vec<RoundHistory> = (0..16)
            .map(|_| sample_noisy_window(&code, ty, 5e-3, usize::from(d), &mut rng))
            .collect();
        group.bench_with_input(BenchmarkId::new("dense", d), &d, |b, _| {
            let mut i = 0;
            b.iter(|| {
                i = (i + 1) % windows.len();
                black_box(dense.decode_window_mut(&windows[i]))
            });
        });
        group.bench_with_input(BenchmarkId::new("sparse", d), &d, |b, _| {
            let mut i = 0;
            b.iter(|| {
                i = (i + 1) % windows.len();
                black_box(sparse.decode_window_mut(&windows[i]))
            });
        });
    }
    group.finish();
}

/// The machine-tier comparison: one batched [`BtwcMachine::step`]
/// (word-parallel sticky filtering across all qubits, transport-framed
/// escalations) versus the per-qubit reference loop
/// (`BtwcDecoder::process_round_packed` per qubit plus a hand-stepped
/// queue) on identical pre-generated streams. The batched side is
/// pinned bit-identical to the loop (`machine_equivalence.rs`), so the
/// measured delta is pure reorganization.
fn bench_machine_step(c: &mut Criterion) {
    use btwc_bandwidth::QueueSim;
    use btwc_bench::machine_step_workload;
    use btwc_core::{BtwcDecoder, BtwcMachine};

    let mut group = c.benchmark_group("machine_step");
    let d = 9u16;
    for qubits in [64usize, 256] {
        let (code, batches, rounds) = machine_step_workload(d, qubits, 512, 1e-3, 0xBA7C);
        group.bench_with_input(BenchmarkId::new("per_qubit_loop", qubits), &qubits, |b, _| {
            let mut decoders: Vec<BtwcDecoder> = (0..qubits)
                .map(|_| BtwcDecoder::builder(&code, StabilizerType::X).build())
                .collect();
            let mut queue = QueueSim::new(qubits);
            let mut i = 0;
            b.iter(|| {
                i = (i + 1) % rounds.len();
                let mut offchip = 0usize;
                for (dec, round) in decoders.iter_mut().zip(&rounds[i]) {
                    offchip += usize::from(dec.process_round_packed(round).went_offchip());
                }
                black_box(queue.step(offchip))
            });
        });
        group.bench_with_input(BenchmarkId::new("batched", qubits), &qubits, |b, _| {
            let mut machine =
                BtwcMachine::builder(&code, StabilizerType::X, qubits, qubits).build();
            let mut i = 0;
            b.iter(|| {
                i = (i + 1) % batches.len();
                black_box(machine.step(&batches[i]).offchip_requests)
            });
        });
    }
    group.finish();
}

fn bench_blossom_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("blossom_matching");
    group.sample_size(20);
    for n in [8usize, 16, 32, 64] {
        let mut rng = SimRng::from_seed(3);
        let w: Vec<Vec<i64>> =
            (0..n).map(|_| (0..n).map(|_| (rng.next_u64() % 50) as i64).collect()).collect();
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| {
                black_box(minimum_weight_perfect_matching(n, |u, v| Some(w[u.min(v)][u.max(v)])))
            });
        });
    }
    group.finish();
}

fn bench_mwpm_events(c: &mut Criterion) {
    let mut group = c.benchmark_group("mwpm_decode_events");
    group.sample_size(30);
    let code = SurfaceCode::new(11);
    let mut decoder = MwpmDecoder::new(&code, StabilizerType::X);
    let n_anc = code.num_ancillas(StabilizerType::X);
    for events in [4usize, 12, 24, 48] {
        let mut rng = SimRng::from_seed(4);
        let evs: Vec<DetectionEvent> = (0..events)
            .map(|_| DetectionEvent { ancilla: rng.below(n_anc), round: rng.below(11) })
            .collect();
        group.bench_with_input(BenchmarkId::from_parameter(events), &events, |b, _| {
            b.iter(|| black_box(decoder.decode_events_mut(&evs)));
        });
    }
    group.finish();
}

fn bench_uf_decode(c: &mut Criterion) {
    // The hierarchical-tier ablation kernel: union-find on the same
    // windows the MWPM bench decodes.
    let mut group = c.benchmark_group("uf_decode_window");
    group.sample_size(20);
    for d in [5u16, 9, 13] {
        let code = SurfaceCode::new(d);
        let decoder = UnionFindDecoder::new(&code, StabilizerType::X);
        let noise = PhenomenologicalNoise::uniform(5e-3);
        let mut rng = SimRng::from_seed(2);
        let n_anc = code.num_ancillas(StabilizerType::X);
        let mut window = RoundHistory::new(n_anc, usize::from(d) + 1);
        let mut errors = vec![false; code.num_data_qubits()];
        let mut meas = vec![false; n_anc];
        for _ in 0..usize::from(d) {
            noise.sample_data_into(&mut rng, &mut errors);
            noise.sample_measurement_into(&mut rng, &mut meas);
            let mut round = code.syndrome_of(StabilizerType::X, &errors);
            for (r, &m) in round.iter_mut().zip(&meas) {
                *r ^= m;
            }
            window.push(&round);
        }
        window.push(&code.syndrome_of(StabilizerType::X, &errors));
        group.bench_with_input(BenchmarkId::from_parameter(d), &d, |b, _| {
            b.iter(|| black_box(decoder.decode_window(&window)));
        });
    }
    group.finish();
}

fn bench_sfq_netlist_cycle(c: &mut Criterion) {
    let mut group = c.benchmark_group("sfq_netlist_cycle");
    for d in [3u16, 9, 15] {
        let code = SurfaceCode::new(d);
        let synth = synthesize_clique(&code, StabilizerType::X, 2);
        let nl = synth.netlist().clone();
        let mut rng = SimRng::from_seed(5);
        let inputs: Vec<bool> = (0..synth.num_ancillas()).map(|_| rng.bernoulli(0.05)).collect();
        group.bench_with_input(BenchmarkId::from_parameter(d), &d, |b, _| {
            b.iter_batched(
                || NetlistState::new(&nl),
                |mut st| black_box(st.step(&nl, &inputs)),
                BatchSize::SmallInput,
            );
        });
    }
    group.finish();
}

fn bench_afs_compression(c: &mut Criterion) {
    let mut group = c.benchmark_group("afs_compression");
    let code = SurfaceCode::new(15);
    let n = code.num_ancillas(StabilizerType::X);
    let sparse = SparseRepr::new(n);
    let mut rng = SimRng::from_seed(6);
    let syndromes: Vec<Syndrome> =
        (0..256).map(|_| random_syndrome(&mut rng, &code, 2e-3)).collect();
    group.bench_function("sparse_repr", |b| {
        let mut i = 0;
        b.iter(|| {
            i = (i + 1) % syndromes.len();
            black_box(sparse.encode(&syndromes[i]))
        });
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_sticky_filter,
    bench_ler_shots_d11,
    bench_clique_decode,
    bench_mwpm_decode,
    bench_sparse_vs_dense,
    bench_chained_cluster,
    bench_machine_step,
    bench_blossom_scaling,
    bench_mwpm_events,
    bench_uf_decode,
    bench_sfq_netlist_cycle,
    bench_afs_compression
);
criterion_main!(benches);

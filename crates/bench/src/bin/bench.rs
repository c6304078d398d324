//! Decoder-throughput tracking: measures the syndrome hot path and the
//! LER shot loop, prints a table, and emits `BENCH_decoders.json` so the
//! performance trajectory is recorded from PR to PR.
//!
//! Measured kernels:
//!
//! * `sticky_boolvec` — the seed's `Vec<bool>` sticky filter (the
//!   baseline the packed rewrite is judged against);
//! * `sticky_packed` — the word-packed filter on identical rounds;
//! * `sticky_packed_frontend` — filter plus the full Clique decision;
//! * `offchip_{dense,sparse}_d{5,9,13,17,21}` — the `sparse_vs_dense`
//!   decode group: the dense all-pairs blossom versus the sparse
//!   region-growth matcher on identical noisy windows, reported as
//!   decoded rounds per second (windows/s × rounds per window);
//! * `chained_{dense,sparse}_d{17,21}` — the `chained_cluster` group:
//!   the same comparison at p = 5e-3, the operational-rate regime where
//!   whole windows collapse into a few large clusters and the in-solver
//!   sparse blossom replaces the old dense per-cluster fallback;
//! * `ler_d{7,11}_{mwpm,clique}` — the Fig. 14 shot loop, reported as
//!   decoded rounds per second;
//! * `sweep_{scoped_per_point,pooled_grid}` — the `sweep_throughput`
//!   schedule comparison: the pre-pool per-point scoped-thread sweep
//!   versus the whole-grid work-stealing pool on a mixed-distance
//!   `(p, d)` grid at fixed total trials;
//! * `machine_faulty_step_p{0,5e-2,2e-1}` — the `fault_sweep` group:
//!   the identical batched machine-step workload driven through a
//!   perfect off-chip link versus progressively hostile
//!   `LinkFaultModel::uniform(rate)` links, measuring what CRC checks,
//!   NACK/retransmit retries, and graceful degradation cost in step
//!   throughput (retransmit/degradation counts land in the detail
//!   column);
//! * `sweep_smallbatch_{spawn_per_map,persistent}` — the pool-mode
//!   comparison: the sweep grid scheduled as many tiny `map` calls
//!   (the decode service's per-cycle dispatch shape), legacy
//!   spawn-per-call versus parked persistent workers;
//! * `farm_{inline,fleet}_8x` — the `decode_farm` group: an
//!   8-machine mixed-distance fleet decoded concurrently through one
//!   bounded `DecodeFarm` versus eight independent inline loops, with
//!   the farm's p99 queue-depth backlog in the detail column.
//!
//! `BTWC_SCALE` scales the measurement budgets as usual.

use std::fmt::Write as _;
use std::time::Instant;

use btwc_bench::baseline::{
    coverage_sweep_per_point, sample_noisy_rounds, sample_noisy_window, BoolVecHistory,
};
use btwc_bench::{
    machine_step_workload, print_table, scaled, sweep_throughput_axes, SWEEP_BENCH_WORKERS,
};
use btwc_lattice::{StabilizerType, SurfaceCode};
use btwc_mwpm::MwpmDecoder;
use btwc_noise::SimRng;
use btwc_sim::{
    coverage_sweep, logical_error_rate, DecoderBackend, DecoderKind, LifetimeConfig, ShotConfig,
};
use btwc_sparse::SparseDecoder;
use btwc_syndrome::{PackedBits, RoundHistory, Syndrome};

struct Entry {
    name: String,
    rounds_per_sec: f64,
    detail: String,
}

fn time_rounds(iters: u64, mut f: impl FnMut()) -> f64 {
    // One warm-up pass at 1/8 scale, then the measured run.
    for _ in 0..iters / 8 {
        f();
    }
    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    iters as f64 / start.elapsed().as_secs_f64()
}

fn sticky_benches(entries: &mut Vec<Entry>) -> (f64, f64) {
    let d = 11u16;
    let code = SurfaceCode::new(d);
    let n_anc = code.num_ancillas(StabilizerType::X);
    let rounds = sample_noisy_rounds(&code, 512, 2e-3, 7);
    let packed: Vec<PackedBits> = rounds.iter().map(|r| PackedBits::from_bools(r)).collect();
    let iters = scaled(2_000_000);

    let mut h = BoolVecHistory::new(n_anc, 2);
    let mut i = 0;
    let boolvec = time_rounds(iters, || {
        i = (i + 1) % rounds.len();
        h.push(&rounds[i]);
        std::hint::black_box(h.sticky(2));
    });
    entries.push(Entry {
        name: "sticky_boolvec".into(),
        rounds_per_sec: boolvec,
        detail: format!("d={d} Vec<bool> baseline"),
    });

    let mut h = RoundHistory::new(n_anc, 2);
    let mut out = Syndrome::new(n_anc);
    let mut i = 0;
    let packed_rate = time_rounds(iters, || {
        i = (i + 1) % packed.len();
        h.push_packed(&packed[i]);
        h.sticky_into(2, &mut out);
        std::hint::black_box(out.weight());
    });
    entries.push(Entry {
        name: "sticky_packed".into(),
        rounds_per_sec: packed_rate,
        detail: format!("d={d} word-packed"),
    });

    let mut fe = btwc_clique::CliqueFrontend::new(&code, StabilizerType::X);
    let mut i = 0;
    let frontend_rate = time_rounds(iters, || {
        i = (i + 1) % packed.len();
        std::hint::black_box(fe.push_round_packed(&packed[i]));
    });
    entries.push(Entry {
        name: "sticky_packed_frontend".into(),
        rounds_per_sec: frontend_rate,
        detail: format!("d={d} filter + Clique decision"),
    });

    (boolvec, packed_rate)
}

/// Shared dense-vs-sparse decode measurement: both exact matchers on
/// identical noisy windows per distance at error rate `p`, pushing
/// `{prefix}_dense_d{d}` / `{prefix}_sparse_d{d}` entries and returning
/// the sparse/dense speedup per `(d, iters)` plan entry, in plan order.
fn decode_group_benches(
    entries: &mut Vec<Entry>,
    prefix: &str,
    p: f64,
    seed: u64,
    plan: &[(u16, u64)],
    dense_label: &str,
    sparse_label: &str,
) -> Vec<f64> {
    let ty = StabilizerType::X;
    let mut speedups = Vec::with_capacity(plan.len());
    for &(d, base_iters) in plan {
        let code = SurfaceCode::new(d);
        let mut dense = MwpmDecoder::new(&code, ty);
        let mut sparse = SparseDecoder::new(&code, ty);
        let mut rng = SimRng::from_seed(seed);
        let rounds = usize::from(d) + 1;
        let windows: Vec<RoundHistory> =
            (0..32).map(|_| sample_noisy_window(&code, ty, p, usize::from(d), &mut rng)).collect();
        let events: usize =
            windows.iter().map(RoundHistory::detection_event_count).sum::<usize>() / windows.len();
        let iters = scaled(base_iters);

        let mut i = 0;
        let dense_rate = time_rounds(iters, || {
            i = (i + 1) % windows.len();
            std::hint::black_box(dense.decode_window_mut(&windows[i]).weight());
        }) * rounds as f64;
        entries.push(Entry {
            name: format!("{prefix}_dense_d{d}"),
            rounds_per_sec: dense_rate,
            detail: format!("{dense_label}, ~{events} events/window"),
        });

        let mut i = 0;
        let sparse_rate = time_rounds(iters, || {
            i = (i + 1) % windows.len();
            std::hint::black_box(sparse.decode_window_mut(&windows[i]).weight());
        }) * rounds as f64;
        entries.push(Entry {
            name: format!("{prefix}_sparse_d{d}"),
            rounds_per_sec: sparse_rate,
            detail: format!("{sparse_label}, ~{events} events/window"),
        });
        speedups.push(sparse_rate / dense_rate.max(1e-12));
    }
    speedups
}

/// The `sparse_vs_dense` decode group at the paper's operational error
/// rate (p = 1e-3). Returns the sparse/dense speedups at d = 13 and
/// d = 21 (the acceptance bar is a clear sparse win at d ≥ 13).
/// Iteration budgets shrink with d: a dense d = 21 decode is five
/// orders slower than a d = 5 one.
fn sparse_vs_dense_benches(entries: &mut Vec<Entry>) -> (f64, f64) {
    let s = decode_group_benches(
        entries,
        "offchip",
        1e-3,
        8,
        &[(5, 100_000), (9, 40_000), (13, 8_000), (17, 1_500), (21, 400)],
        "all-pairs blossom",
        "region collisions + clusters",
    );
    (s[2], s[4])
}

/// The `chained_cluster` decode group at p = 5e-3 and d ∈ {17, 21} —
/// the chained-cluster regime where the pre-in-solver sparse path used
/// to fall back to a dense blossom per cluster. Returns the
/// sparse/dense speedups at d = 17 and d = 21 (the acceptance bar is
/// ≥ 2x at d = 17).
fn chained_cluster_benches(entries: &mut Vec<Entry>) -> (f64, f64) {
    let s = decode_group_benches(
        entries,
        "chained",
        5e-3,
        0xC4A1,
        &[(17, 600), (21, 200)],
        "p=5e-3 all-pairs blossom",
        "p=5e-3 in-solver sparse blossom",
    );
    (s[0], s[1])
}

fn ler_benches(entries: &mut Vec<Entry>) {
    for d in [7u16, 11] {
        let shots = scaled(400);
        for (kind, label) in
            [(DecoderKind::MwpmOnly, "mwpm"), (DecoderKind::CliquePlusMwpm, "clique")]
        {
            let cfg = ShotConfig::new(d, 2e-3).with_shots(shots).with_seed(3);
            let start = Instant::now();
            let est = logical_error_rate(&cfg, kind);
            let elapsed = start.elapsed().as_secs_f64();
            let decoded_rounds = est.shots * cfg.rounds as u64;
            entries.push(Entry {
                name: format!("ler_d{d}_{label}"),
                rounds_per_sec: decoded_rounds as f64 / elapsed,
                detail: format!("{} shots, LER {:.2e}", est.shots, est.rate()),
            });
        }
    }
}

/// The `sweep_throughput` schedule comparison: identical mixed-distance
/// grid and per-point cycle budget, scheduled the old way (per-point
/// scoped threads, a barrier and `workers` thread spawns + pipeline
/// constructions at every point) versus the pooled way (every
/// `(point, shard)` task in one work-stealing pool). Returns the
/// pooled/scoped wall-clock speedup — the PR's acceptance number.
fn sweep_benches(entries: &mut Vec<Entry>) -> f64 {
    let (rates, distances) = sweep_throughput_axes();
    let cycles = scaled(2_000);
    // Resolve the effective count once (a `BTWC_WORKERS` override
    // applies to the pool arm either way; the scoped baseline spawns
    // raw threads) so both schedules run at the same width and the
    // recorded details stay truthful.
    let workers = btwc_pool::Pool::new(SWEEP_BENCH_WORKERS).workers();
    let total_cycles = (cycles * (rates.len() * distances.len()) as u64) as f64;
    let reps = 6;

    let scoped = time_rounds(reps, || {
        std::hint::black_box(coverage_sweep_per_point(&rates, &distances, cycles, 11, workers));
    }) * total_cycles;
    entries.push(Entry {
        name: "sweep_scoped_per_point".into(),
        rounds_per_sec: scoped,
        detail: format!(
            "d∈{{3,7,13}}, {} pts × {cycles} cycles, {workers} threads/pt",
            rates.len() * distances.len()
        ),
    });

    let pooled = time_rounds(reps, || {
        std::hint::black_box(coverage_sweep(&rates, &distances, cycles, 11, workers));
    }) * total_cycles;
    entries.push(Entry {
        name: "sweep_pooled_grid".into(),
        rounds_per_sec: pooled,
        detail: format!("same grid, all shards in one {workers}-worker pool, per-point grid seeds"),
    });
    pooled / scoped.max(1e-12)
}

/// The `machine_step` comparison: one batched `BtwcMachine::step`
/// versus the per-qubit reference loop (one `process_round_packed` per
/// qubit plus a hand-stepped queue) on identical pre-generated
/// transient-noise streams (d = 9, 64 qubits, p = 1e-3 per ancilla).
/// Returns the batched/per-qubit throughput ratio — the machine-tier
/// acceptance number.
fn machine_benches(entries: &mut Vec<Entry>) -> f64 {
    use btwc_bandwidth::QueueSim;
    use btwc_core::{BtwcDecoder, BtwcMachine};

    let d = 9u16;
    let qubits = 64usize;
    let (code, batches, rounds) = machine_step_workload(d, qubits, 512, 1e-3, 0xBA7C);
    let iters = scaled(100_000);

    let mut decoders: Vec<BtwcDecoder> =
        (0..qubits).map(|_| BtwcDecoder::builder(&code, StabilizerType::X).build()).collect();
    let mut queue = QueueSim::new(qubits);
    let mut i = 0;
    let per_qubit = time_rounds(iters, || {
        i = (i + 1) % rounds.len();
        let mut offchip = 0usize;
        for (dec, round) in decoders.iter_mut().zip(&rounds[i]) {
            offchip += usize::from(dec.process_round_packed(round).went_offchip());
        }
        std::hint::black_box(queue.step(offchip));
    }) * qubits as f64;
    entries.push(Entry {
        name: "machine_per_qubit_loop".into(),
        rounds_per_sec: per_qubit,
        detail: format!("d={d}, {qubits} qubits, per-qubit BtwcDecoder loop"),
    });

    let mut machine = BtwcMachine::builder(&code, StabilizerType::X, qubits, qubits).build();
    let mut i = 0;
    let batched = time_rounds(iters, || {
        i = (i + 1) % batches.len();
        std::hint::black_box(machine.step(&batches[i]).offchip_requests);
    }) * qubits as f64;
    entries.push(Entry {
        name: "machine_batched_step".into(),
        rounds_per_sec: batched,
        detail: format!("d={d}, {qubits} qubits, one word-parallel BtwcMachine::step"),
    });
    batched / per_qubit.max(1e-12)
}

/// The `fault_sweep` group: the machine-step workload through the
/// fault-tolerant transport at increasing link fault rates. Rate 0 is
/// the always-on baseline (v2 CRC framing and the fault-model branch
/// are in the hot path even for a perfect link — this entry prices
/// that); the hostile rates add real retransmissions (each one a full
/// extra frame through the link plus an off-chip decode attempt) and,
/// at the top rate, retry-budget exhaustion into on-chip emergency
/// corrections. Returns the hostile(0.2)/perfect throughput ratio.
fn fault_sweep_benches(entries: &mut Vec<Entry>) -> f64 {
    use btwc_core::{BtwcMachine, LinkFaultModel};

    let d = 9u16;
    let qubits = 64usize;
    let (code, batches, _) = machine_step_workload(d, qubits, 512, 1e-3, 0xBA7C);
    let iters = scaled(100_000);

    let mut rates_seen = Vec::new();
    for rate in [0.0f64, 5e-2, 2e-1] {
        let mut machine = BtwcMachine::builder(&code, StabilizerType::X, qubits, qubits)
            .fault_model(LinkFaultModel::uniform(rate))
            .link_seed(0xFA17)
            .build();
        let mut i = 0;
        let rps = time_rounds(iters, || {
            i = (i + 1) % batches.len();
            std::hint::black_box(machine.step(&batches[i]).offchip_requests);
        }) * qubits as f64;
        let t = machine.transport_stats();
        entries.push(Entry {
            name: format!("machine_faulty_step_p{rate:e}"),
            rounds_per_sec: rps,
            detail: format!(
                "d={d}, {qubits} qubits, fault rate {rate}: {} retrans, {} degraded",
                t.retransmitted_frames, t.degraded_decodes
            ),
        });
        rates_seen.push(rps);
    }
    rates_seen[2] / rates_seen[0].max(1e-12)
}

/// The `decode_farm` group: an 8-machine fleet (mixed distances and
/// backends, two tenants per decoder slot so cross-tenant batching
/// happens) decoded concurrently through one bounded `DecodeFarm`,
/// versus the same eight machines run as independent inline loops.
/// Returns the farm's p99 queue-depth backlog — the service-level
/// acceptance number (it must stay bounded under fleet demand).
fn decode_farm_benches(entries: &mut Vec<Entry>) -> u64 {
    use btwc_pool::Pool;
    use btwc_sim::{machine_farm_trace, machine_offchip_trace, FarmConfig, FarmTenant};

    let shapes = [
        (3u16, DecoderBackend::SparseBlossom),
        (5, DecoderBackend::SparseBlossom),
        (3, DecoderBackend::UnionFind),
        (5, DecoderBackend::UnionFind),
        (3, DecoderBackend::SparseBlossom),
        (5, DecoderBackend::SparseBlossom),
        (3, DecoderBackend::UnionFind),
        (5, DecoderBackend::UnionFind),
    ];
    let cycles = scaled(300);
    let qubits = 3usize;
    let bandwidth = 2usize;
    let cfgs: Vec<LifetimeConfig> = shapes
        .iter()
        .enumerate()
        .map(|(i, &(d, backend))| {
            let p = if d == 3 { 5e-2 } else { 2.2e-2 };
            LifetimeConfig::new(d, p)
                .with_cycles(cycles)
                .with_seed(0xFA12 + i as u64)
                .with_backend(backend)
        })
        .collect();
    let tenants: Vec<FarmTenant> =
        cfgs.iter().map(|cfg| FarmTenant::new(*cfg, qubits, bandwidth)).collect();
    let total_rounds = (cfgs.len() * qubits) as f64 * cycles as f64;
    let reps = 8;

    let inline = time_rounds(reps, || {
        for cfg in &cfgs {
            std::hint::black_box(machine_offchip_trace(cfg, qubits, bandwidth));
        }
    }) * total_rounds;
    entries.push(Entry {
        name: "farm_inline_8x".into(),
        rounds_per_sec: inline,
        detail: format!("8 machines d∈{{3,5}}, {cycles} cycles, independent inline decode loops"),
    });

    // Service rate just above the fleet's mean demand (~1.6
    // escalations/cycle), so bursts queue — the p99 backlog is a real
    // queueing number — but the farm always drains.
    let capacity = 64u64;
    let config = || {
        let mut cfg = FarmConfig::bounded(capacity, 2);
        cfg.snapshot_cadence = Some(cycles);
        cfg
    };
    let mut last = None;
    let farm = time_rounds(reps, || {
        last = Some(machine_farm_trace(&tenants, config(), Pool::new(SWEEP_BENCH_WORKERS)));
    }) * total_rounds;
    let run = last.expect("at least one farm rep ran");
    let p99_backlog = json_histogram_p99(&run.aggregate_json, "farm.queue_depth_hist");
    entries.push(Entry {
        name: "farm_fleet_8x".into(),
        rounds_per_sec: farm,
        detail: format!(
            "same 8 machines through one bounded farm (cap {capacity}, rate 2): \
             p99 backlog {p99_backlog}, final depth {}",
            run.final_queue_depth
        ),
    });
    assert!(
        p99_backlog < capacity / 2 && run.final_queue_depth < capacity / 2,
        "fleet backlog must stay bounded well below queue capacity"
    );
    p99_backlog
}

/// Pulls `"p99":N` out of one named histogram in a
/// `btwc-telemetry-v1` snapshot JSON string.
fn json_histogram_p99(json: &str, metric: &str) -> u64 {
    let at = json.find(&format!("\"{metric}\"")).expect("metric present in snapshot");
    let tail = &json[at..];
    let p = tail.find("\"p99\":").expect("histogram has a p99 field") + "\"p99\":".len();
    tail[p..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect::<String>()
        .parse()
        .expect("p99 is an integer")
}

/// The pool-mode comparison on the sweep-throughput grid, scheduled
/// the way a decode service submits work: long-lived streaming sweep
/// shards (one `LifetimeSim` per `(distance, worker)`, built outside
/// the timed region) advanced a few cycles at a time, one small `map`
/// call per point-slice, instead of one whole-grid task set. The
/// grid's base noise rate keeps the per-task decode cost uniform and
/// small, so the measurement prices the dispatch itself: the legacy
/// mode pays a full thread spawn/join per call, the persistent mode's
/// parked workers make that per-call cost vanish. Returns the
/// persistent/legacy speedup — the `btwc-pool` acceptance number
/// (bar: ≥ 1.5x).
fn pool_mode_benches(entries: &mut Vec<Entry>) -> f64 {
    use std::sync::Mutex;

    use btwc_pool::{Pool, PoolMode};
    use btwc_sim::{grid_point_seed, LifetimeSim};

    let (rates, distances) = sweep_throughput_axes();
    let p = rates.iter().copied().fold(f64::INFINITY, f64::min);
    let workers = Pool::new(SWEEP_BENCH_WORKERS).workers();
    let slice_cycles = 10u64;
    let slices = scaled(300);
    let total_rounds = (distances.len() * workers) as f64 * (slices * slice_cycles) as f64;
    let reps = 4;
    let mut modes = Vec::new();
    for (mode, name, how) in [
        (PoolMode::Legacy, "sweep_smallbatch_spawn_per_map", "threads spawned per map call"),
        (PoolMode::Persistent, "sweep_smallbatch_persistent", "parked persistent workers"),
    ] {
        let sims: Vec<Vec<Mutex<LifetimeSim>>> = distances
            .iter()
            .enumerate()
            .map(|(di, &d)| {
                let root = SimRng::from_seed(grid_point_seed(11, 0, di));
                (0..workers)
                    .map(|w| {
                        let cfg = LifetimeConfig::new(d, p)
                            .with_cycles(u64::MAX)
                            .with_seed(root.fork(w as u64).seed());
                        Mutex::new(LifetimeSim::new(&cfg))
                    })
                    .collect()
            })
            .collect();
        let pool = Pool::new(SWEEP_BENCH_WORKERS).with_mode(mode);
        let rate = time_rounds(reps, || {
            for _ in 0..slices {
                for point in &sims {
                    std::hint::black_box(pool.map_indices(workers, |w| {
                        let mut sim = point[w].lock().expect("shard slot");
                        let mut flips = 0u64;
                        for _ in 0..slice_cycles {
                            flips += u64::from(sim.step());
                        }
                        flips
                    }));
                }
            }
        }) * total_rounds;
        entries.push(Entry {
            name: name.into(),
            rounds_per_sec: rate,
            detail: format!(
                "streaming d∈{{3,7,13}} shards @ p={p:.0e}, one {workers}×{slice_cycles}-cycle \
                 map per point-slice, {how}"
            ),
        });
        modes.push(rate);
    }
    modes[1] / modes[0].max(1e-12)
}

/// Paired-passes overhead measurement: each rep times the bare arm and
/// the instrumented arm back to back and records the on/off rate
/// ratio; the reported overhead is `1 - median(ratios)`. A single long
/// run per arm is dominated by clock/cache drift between the two runs
/// (on a noisy host individual passes report anywhere from -25% to
/// +13% on a sub-1% effect). Pairing puts both arms in the same few
/// milliseconds of host weather, and the median discards the reps a
/// noise burst split down the middle.
const TELEMETRY_REPS: usize = 12;

/// Minimum iterations per alternating pass — below this the timing
/// window is too short to average over scheduler jitter.
const TELEMETRY_MIN_ITERS: u64 = 40;

/// `1 - median(on/off ratios)`, the paired overhead estimate.
fn overhead_from_ratios(mut ratios: Vec<f64>) -> f64 {
    ratios.sort_by(|a, b| a.partial_cmp(b).expect("rates are finite"));
    let mid = ratios.len() / 2;
    let median =
        if ratios.len() % 2 == 1 { ratios[mid] } else { (ratios[mid - 1] + ratios[mid]) / 2.0 };
    1.0 - median
}

/// The `--telemetry` overhead comparison: the identical machine-step
/// workload with and without a live
/// [`btwc_telemetry::MetricsRegistry`] attached. Returns the overhead
/// fraction (0.01 = the instrumented run is 1% slower); the acceptance
/// bar is < 3%, which is why every hot-path record is a relaxed atomic
/// add with no locking.
fn telemetry_overhead_benches(entries: &mut Vec<Entry>) -> f64 {
    use btwc_core::BtwcMachine;
    use btwc_telemetry::MetricsRegistry;

    let d = 9u16;
    let qubits = 64usize;
    let (code, batches, _) = machine_step_workload(d, qubits, 512, 1e-3, 0xBA7C);
    let iters = scaled(100_000);

    let mut plain = BtwcMachine::builder(&code, StabilizerType::X, qubits, qubits).build();
    let registry = MetricsRegistry::new();
    let mut instrumented =
        BtwcMachine::builder(&code, StabilizerType::X, qubits, qubits).telemetry(&registry).build();
    let mut rates = [0.0f64; 2];
    let mut ratios = Vec::with_capacity(TELEMETRY_REPS);
    for _ in 0..TELEMETRY_REPS {
        let per_rep = (iters / TELEMETRY_REPS as u64).max(TELEMETRY_MIN_ITERS);
        let mut rep = [0.0f64; 2];
        for (slot, machine) in [&mut plain, &mut instrumented].into_iter().enumerate() {
            let mut i = 0;
            rep[slot] = time_rounds(per_rep, || {
                i = (i + 1) % batches.len();
                std::hint::black_box(machine.step(&batches[i]).offchip_requests);
            }) * qubits as f64;
            rates[slot] = rates[slot].max(rep[slot]);
        }
        ratios.push(rep[1] / rep[0].max(1e-12));
    }
    let [detached, attached] = rates;
    entries.push(Entry {
        name: "machine_step_telemetry_off".into(),
        rounds_per_sec: detached,
        detail: format!("d={d}, {qubits} qubits, no registry attached"),
    });
    entries.push(Entry {
        name: "machine_step_telemetry_on".into(),
        rounds_per_sec: attached,
        detail: format!("d={d}, {qubits} qubits, machine.* metrics live"),
    });
    overhead_from_ratios(ratios)
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

fn main() {
    let measure_telemetry = std::env::args().any(|a| a == "--telemetry");
    let mut entries = Vec::new();
    let (boolvec, packed) = sticky_benches(&mut entries);
    let (sparse_d13, sparse_d21) = sparse_vs_dense_benches(&mut entries);
    let (chained_d17, chained_d21) = chained_cluster_benches(&mut entries);
    ler_benches(&mut entries);
    let sweep_speedup = sweep_benches(&mut entries);
    let pool_mode_speedup = pool_mode_benches(&mut entries);
    let machine_speedup = machine_benches(&mut entries);
    let fault_ratio = fault_sweep_benches(&mut entries);
    let farm_p99_backlog = decode_farm_benches(&mut entries);
    let telemetry_overhead = measure_telemetry.then(|| telemetry_overhead_benches(&mut entries));
    let speedup = packed / boolvec.max(1e-12);

    let rows: Vec<Vec<String>> = entries
        .iter()
        .map(|e| vec![e.name.clone(), format!("{:.3e}", e.rounds_per_sec), e.detail.clone()])
        .collect();
    println!("# Decoder throughput (rounds/sec)\n");
    print_table(&["kernel", "rounds/s", "detail"], &rows);
    println!("\nsticky filter packed vs Vec<bool> baseline: {speedup:.1}x");
    println!("machine batched step vs per-qubit loop: {machine_speedup:.1}x");
    println!("off-chip sparse vs dense decode: {sparse_d13:.1}x at d=13, {sparse_d21:.1}x at d=21");
    println!(
        "chained clusters (p=5e-3) sparse vs dense: {chained_d17:.1}x at d=17, \
         {chained_d21:.1}x at d=21"
    );
    println!("whole-grid pooled sweep vs per-point scoped threads: {sweep_speedup:.1}x");
    println!(
        "persistent parked workers vs per-map spawn on small batches: {pool_mode_speedup:.1}x \
         (bar: ≥ 1.5x)"
    );
    println!("machine step through a 20%-fault link vs perfect link: {fault_ratio:.2}x throughput");
    println!("decode farm, 8-machine fleet: p99 queue backlog {farm_p99_backlog} jobs");
    if let Some(machine_overhead) = telemetry_overhead {
        println!(
            "telemetry overhead (on vs off): machine step {:.2}% (bar: < 3%)",
            machine_overhead * 100.0
        );
    }

    let mut json =
        String::from("{\n  \"benchmark\": \"BENCH_decoders\",\n  \"unit\": \"rounds_per_sec\",\n");
    let _ = writeln!(json, "  \"sticky_packed_speedup_vs_boolvec\": {speedup:.3},");
    let _ = writeln!(json, "  \"offchip_sparse_speedup_vs_dense_d13\": {sparse_d13:.3},");
    let _ = writeln!(json, "  \"offchip_sparse_speedup_vs_dense_d21\": {sparse_d21:.3},");
    let _ = writeln!(json, "  \"chained_sparse_speedup_vs_dense_d17\": {chained_d17:.3},");
    let _ = writeln!(json, "  \"chained_sparse_speedup_vs_dense_d21\": {chained_d21:.3},");
    let _ = writeln!(json, "  \"sweep_pooled_speedup_vs_scoped\": {sweep_speedup:.3},");
    let _ = writeln!(json, "  \"pool_persistent_speedup_vs_spawn\": {pool_mode_speedup:.3},");
    let _ = writeln!(json, "  \"machine_batched_speedup_vs_perqubit\": {machine_speedup:.3},");
    let _ = writeln!(json, "  \"machine_faulty_link_throughput_ratio_p2e-1\": {fault_ratio:.3},");
    let _ = writeln!(json, "  \"farm_fleet_p99_backlog\": {farm_p99_backlog},");
    if let Some(machine_overhead) = telemetry_overhead {
        let _ = writeln!(json, "  \"machine_step_telemetry_overhead\": {machine_overhead:.4},");
    }
    json.push_str("  \"results\": [\n");
    for (i, e) in entries.iter().enumerate() {
        let comma = if i + 1 == entries.len() { "" } else { "," };
        let _ = writeln!(
            json,
            "    {{\"name\": \"{}\", \"rounds_per_sec\": {:.3}, \"detail\": \"{}\"}}{comma}",
            json_escape(&e.name),
            e.rounds_per_sec,
            json_escape(&e.detail)
        );
    }
    json.push_str("  ]\n}\n");
    std::fs::write("BENCH_decoders.json", &json).expect("write BENCH_decoders.json");
    println!("\nwrote BENCH_decoders.json");
}

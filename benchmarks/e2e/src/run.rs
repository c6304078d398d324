//! One benchmark run: warm-up and correctness gate, repeated set-up,
//! the timed closed loop, and the metrics read off it.
//!
//! A run is measured in host time for `--seconds`, in slices of a
//! fixed number of machine cycles. Simulated statistics are read when
//! the run has done exactly the workload's cycle-domain window, so they
//! depend on `(workload, seed, scale)` alone and repeat exactly, while
//! host-time metrics use every slice the time allowed.

use std::time::Instant;

use btwc_farm::FarmConfig;

use crate::calibrate;
use crate::fleet::{CycleDomain, Fleet};
use crate::json::Json;
use crate::report::{
    environment, median, metrics_json, package_dir, peak_rss_mb, percentile, print_table, Metric,
};
use crate::trace::{Layer, SpanTracer, Tracer, Untraced};
use crate::workload::{thread_cap, Service, Workload};

/// Slices per cycle-domain window.
const SLICES_PER_WINDOW: u64 = 10;
/// Cycles of the farm-vs-inline differential.
const FARM_DIFFERENTIAL_CYCLES: u64 = 2_000;
/// The real spans must cover this share of the traced wall.
const MIN_SPAN_COVERAGE: f64 = 0.95;

/// Arguments of one run.
#[derive(Debug, Clone)]
pub struct RunArgs {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub scale: f64,
    pub trace: bool,
}

impl RunArgs {
    fn window_cycles(&self) -> u64 {
        let slice = self.slice_cycles();
        slice * SLICES_PER_WINDOW
    }

    fn slice_cycles(&self) -> u64 {
        ((self.workload.window_cycles as f64 * self.scale) as u64 / SLICES_PER_WINDOW).max(1)
    }
}

/// What a run printed as its last line.
#[derive(Debug, Clone)]
pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Gate violations, one line each.
    pub violations: Vec<String>,
}

impl RunResult {
    /// The result line of the benchmark contract.
    #[must_use]
    pub fn line(&self) -> Json {
        Json::obj([
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::from(self.attempted)),
            ("failed", Json::from(self.failed)),
            ("metrics", metrics_json(&self.metrics)),
        ])
    }
}

/// When a measured loop ends.
#[derive(Debug, Clone, Copy)]
enum Stop {
    /// After the window, at the first slice boundary past `seconds`.
    Time { seconds: f64 },
    /// After exactly this many cycles (a multiple of the slice).
    Cycles(u64),
}

/// Host-time statistics of one slice of `slice_cycles` machine cycles.
#[derive(Debug, Clone, Copy)]
struct Slice {
    /// Qubit-rounds per second of the whole loop.
    sim_rate: f64,
    /// Qubit-rounds per second of decode-path time.
    decode_rate: f64,
    /// Percentiles of the per-cycle decode-path time, in ns.
    p50: f64,
    p99: f64,
    p999: f64,
}

/// What one measured loop observed.
struct Measured {
    cycles: u64,
    /// Σ slice walls: the loop alone, without the per-slice statistics.
    wall_s: f64,
    slices: Vec<Slice>,
    /// The simulated statistics at the end of the window.
    window: CycleDomain,
}

impl Measured {
    /// The median over slices of one slice statistic: a neighbour's
    /// burst on this shared box spoils a slice, not the number.
    fn median(&self, f: impl Fn(&Slice) -> f64) -> f64 {
        median(&mut self.slices.iter().map(f).collect::<Vec<_>>())
    }
}

fn measure<T: Tracer>(
    fleet: &mut Fleet,
    tr: &mut T,
    args: &RunArgs,
    stop: Stop,
    mut between_slices: impl FnMut(),
) -> Measured {
    let slice = args.slice_cycles();
    let window_cycles = args.window_cycles();
    let qubit_rounds = (slice * fleet.qubits()) as f64;
    let mut measured =
        Measured { cycles: 0, wall_s: 0.0, slices: Vec::new(), window: fleet.cycle_domain() };
    let mut samples: Vec<u32> = Vec::with_capacity(slice as usize);
    let start = Instant::now();
    loop {
        samples.clear();
        let mut decode_ns = 0;
        let slice_start = Instant::now();
        for _ in 0..slice {
            let ns = fleet.cycle(tr);
            decode_ns += ns;
            samples.push(u32::try_from(ns).unwrap_or(u32::MAX));
        }
        let wall_s = slice_start.elapsed().as_secs_f64();
        samples.sort_unstable();
        measured.slices.push(Slice {
            sim_rate: qubit_rounds / wall_s,
            decode_rate: qubit_rounds / (decode_ns as f64 * 1e-9),
            p50: percentile(&samples, 50.0),
            p99: percentile(&samples, 99.0),
            p999: percentile(&samples, 99.9),
        });
        measured.wall_s += wall_s;
        measured.cycles += slice;
        if measured.cycles == window_cycles {
            measured.window = fleet.cycle_domain();
        }
        let done = match stop {
            Stop::Time { seconds } => {
                measured.cycles >= window_cycles && start.elapsed().as_secs_f64() >= seconds
            }
            Stop::Cycles(cycles) => measured.cycles >= cycles,
        };
        if done {
            return measured;
        }
        between_slices();
    }
}

/// Runs `cycles` cycles on a fresh fleet and returns its statistics.
fn short_run<T: Tracer>(
    workload: &Workload,
    service: Service,
    seed: u64,
    cycles: u64,
    tr: &mut T,
) -> CycleDomain {
    let mut fleet = Fleet::build(workload, service, seed, T::ON);
    for _ in 0..cycles {
        fleet.cycle(tr);
    }
    fleet.cycle_domain()
}

/// Gate (a) on a prefix, which is also the discarded warm-up: the
/// traced path and the untraced path of the same seed must agree bit
/// for bit. Gate (b), fleets only: the farm, generously provisioned,
/// must agree with inline decoding tenant by tenant.
fn warm_up_gate(args: &RunArgs, violations: &mut Vec<String>) {
    let w = &args.workload;
    let cycles = (args.window_cycles() / 8).max(50);
    let untraced = short_run(w, w.service, args.seed, cycles, &mut Untraced);
    let traced = short_run(w, w.service, args.seed, cycles, &mut SpanTracer::default());
    if untraced != traced {
        violations.push(format!("traced and untraced paths disagree after {cycles} cycles"));
    }
    if w.tenants.len() > 1 {
        let cycles = FARM_DIFFERENTIAL_CYCLES.min(args.window_cycles());
        let generous = Service::Farm { config: FarmConfig::generous(), workers: thread_cap() };
        let inline = short_run(w, Service::Inline, args.seed, cycles, &mut Untraced);
        let farm = short_run(w, generous, args.seed, cycles, &mut Untraced);
        for (i, (a, b)) in inline.tenants.iter().zip(&farm.tenants).enumerate() {
            if a != b {
                violations
                    .push(format!("tenant {i}: farm and inline disagree after {cycles} cycles"));
            }
        }
    }
}

/// Gate (c): invariants of the simulated statistics.
fn check_domain(w: &Workload, domain: &CycleDomain, violations: &mut Vec<String>) {
    let mut require = |ok: bool, what: &str| {
        if !ok {
            violations.push(format!("{}: {what}", w.name));
        }
    };
    require(domain.cycles > 0 && domain.sum(|t| t.stats.cycles) > 0, "no cycles ran");
    require(
        domain.sum(|t| t.stats.frame_bytes) >= 28 * domain.sum(|t| t.frames_sent),
        "a v2 frame is at least 28 bytes",
    );
    if w.clean_link() {
        let t = |f: fn(&btwc_core::TransportStats) -> u64| domain.sum(|d| f(&d.transport));
        require(t(|t| t.corrupted_frames) == 0, "corrupted frames on a clean link");
        require(t(|t| t.dropped_frames) == 0, "dropped frames on a clean link");
        if matches!(w.service, Service::Inline) {
            require(t(|t| t.degraded_decodes) == 0, "degraded decodes on a clean inline link");
        }
    }
    if w.name == "quiet_fleet" {
        require(domain.coverage() >= 0.90, "coverage below 0.90 at p = 1e-3");
    }
}

fn finish(args: &RunArgs, kind: &str, result: &RunResult, extra: Vec<(&str, Json)>) {
    let mut doc = vec![
        ("workload", Json::str(args.workload.name)),
        ("trace", Json::Bool(args.trace)),
        ("environment", environment(args.seed, args.scale, args.seconds)),
        ("result", result.line()),
        ("violations", Json::Arr(result.violations.iter().map(Json::str).collect())),
    ];
    doc.extend(extra);
    let dir = package_dir().join("out");
    let path = dir.join(format!("{kind}-{}.json", args.workload.name));
    // The result line on stdout is the contract; the file is a record.
    if let Err(e) = std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, Json::obj(doc).to_string()))
    {
        eprintln!("btwc-e2e: cannot write {}: {e}", path.display());
    }
    for v in &result.violations {
        eprintln!("btwc-e2e: GATE: {v}");
    }
}

/// The end-to-end run: tracing and telemetry off.
#[must_use]
pub fn end_to_end(args: &RunArgs) -> RunResult {
    let w = &args.workload;
    let mut violations = Vec::new();
    warm_up_gate(args, &mut violations);

    // Set-up is timed once before the run and once between every two
    // slices, so that its median, like the others, is over the whole
    // run and a burst on this shared box spoils a few samples.
    let mut setups = Vec::new();
    let mut set_up = || {
        let start = Instant::now();
        let fleet = Fleet::build(w, w.service, args.seed, false);
        setups.push(start.elapsed().as_secs_f64());
        fleet
    };
    let mut fleet = set_up();
    let stop = Stop::Time { seconds: args.seconds };
    let m = measure(&mut fleet, &mut Untraced, args, stop, || drop(set_up()));
    check_domain(w, &m.window, &mut violations);

    let d = &m.window;
    let metrics = vec![
        Metric::new("setup_s", median(&mut setups), "s"),
        Metric::new("sim_rounds_per_s", m.median(|s| s.sim_rate), "qubit-rounds/s"),
        Metric::new("decode_rounds_per_s", m.median(|s| s.decode_rate), "qubit-rounds/s"),
        Metric::new("cycle_wall_p50_us", m.median(|s| s.p50) * 1e-3, "us"),
        Metric::new("cycle_wall_p99_us", m.median(|s| s.p99) * 1e-3, "us"),
        Metric::new("peak_rss_mb", peak_rss_mb(), "MB"),
        Metric::new("coverage", d.coverage(), "ratio"),
        Metric::new("offchip_bytes_per_round", d.offchip_bytes_per_round(), "bytes/round"),
        Metric::new("exec_time_factor", d.exec_time_factor(), "ratio"),
        Metric::new("decoded_share", 1.0 - d.degraded_share(), "ratio"),
    ];
    let failed = fleet.failed_cycles + violations.len() as u64;
    let result = RunResult {
        correct: failed == 0,
        attempted: m.cycles * w.tenants.len() as u64,
        failed,
        metrics,
        violations,
    };
    print_table(&format!("{} (seed {}, end to end, untraced)", w.name, args.seed), &result.metrics);
    println!(
        "  {} slices of {} cycles (one sample a cycle), wall {:.3} s; p99.9 {:.3} us, for information",
        m.slices.len(),
        args.slice_cycles(),
        m.wall_s,
        m.median(|s| s.p999) * 1e-3
    );
    let slices = Json::Arr(
        m.slices
            .iter()
            .map(|s| Json::Arr([s.sim_rate, s.decode_rate, s.p50, s.p99].map(Json::Num).to_vec()))
            .collect(),
    );
    finish(
        args,
        "result",
        &result,
        vec![("cycles", Json::from(m.cycles)), ("slices_sim_decode_p50_p99", slices)],
    );
    result
}

/// The traced run: the same seed once untraced and once traced for the
/// same number of cycles; per-layer metrics come from the second, the
/// tracing overhead from their ratio, and gate (a) from their equality.
#[must_use]
pub fn traced(args: &RunArgs) -> RunResult {
    let w = &args.workload;
    let mut violations = Vec::new();
    let mut metrics = Vec::new();
    calibrate::host(&mut metrics);

    let mut plain = Fleet::build(w, w.service, args.seed, false);
    // Tracing costs up to 1.7x, so the two loops together take about
    // `--seconds`.
    let stop = Stop::Time { seconds: args.seconds * 0.4 };
    let untraced = measure(&mut plain, &mut Untraced, args, stop, || {});
    let plain_end = plain.cycle_domain();
    drop(plain);

    let mut fleet = Fleet::build(w, w.service, args.seed, true);
    let mut tr = SpanTracer::default();
    let m = measure(&mut fleet, &mut tr, args, Stop::Cycles(untraced.cycles), || {});

    if fleet.cycle_domain() != plain_end || m.window != untraced.window {
        violations.push(format!("traced and untraced runs disagree after {} cycles", m.cycles));
    }
    if fleet.farm_mismatches > 0 {
        violations.push(format!("{} jobs decoded differently by the farm", fleet.farm_mismatches));
    }
    let coverage = tr.coverage();
    if coverage < MIN_SPAN_COVERAGE {
        violations.push(format!(
            "real spans cover {coverage:.3} of the traced wall, under {MIN_SPAN_COVERAGE}"
        ));
    }
    check_domain(w, &m.window, &mut violations);

    for layer in Layer::all() {
        let total = tr.total(layer);
        metrics.push(Metric::new(format!("{}_s", layer.name()), total.busy_ns as f64 * 1e-9, "s"));
        metrics.push(Metric::new(format!("{}_calls", layer.name()), total.calls as f64, "count"));
    }
    fleet.layer_counts(&mut metrics);
    let service_s = tr.total(Layer::FarmServiceCycle).busy_ns as f64;
    let inline_s = tr.total(Layer::FarmInlineEquiv).busy_ns as f64;
    metrics.push(Metric::new(
        "farm.overhead_ratio",
        if inline_s > 0.0 { service_s / inline_s } else { 0.0 },
        "ratio",
    ));
    metrics.push(Metric::new("telemetry.overhead_ratio", m.wall_s / untraced.wall_s, "ratio"));
    metrics.push(Metric::new("telemetry.span_coverage", coverage, "ratio"));

    let failed = fleet.failed_cycles + violations.len() as u64;
    let result = RunResult {
        correct: failed == 0,
        attempted: m.cycles * w.tenants.len() as u64,
        failed,
        metrics,
        violations,
    };
    print_table(&format!("{} (seed {}, per layer, traced)", w.name, args.seed), &result.metrics);
    println!(
        "  cycles {}  traced wall {:.3} s (probes {:.3} s)  untraced wall {:.3} s",
        m.cycles,
        tr.wall_s(),
        tr.busy_s(true),
        untraced.wall_s
    );
    finish(args, "trace", &result, vec![("slow_cycles", tr.slow_cycles_json())]);
    result
}

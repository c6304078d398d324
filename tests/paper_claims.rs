//! Integration tests pinning the paper's headline claims, at test-suite
//! scale. Each test names the claim it guards; EXPERIMENTS.md holds the
//! full-scale numbers.

use btwc::bandwidth::{sweep_tradeoff, ArrivalModel};
use btwc::lattice::{StabilizerType, SurfaceCode};
use btwc::noise::SimRng;
use btwc::sfq::{nisq_plus_anchor, synthesize_clique, CostModel};
use btwc::sim::{
    afs_comparison, logical_error_rate, DecoderKind, LifetimeConfig, LifetimeSim, ShotConfig,
};

/// Abstract (claim 1): "70–99+% off-chip bandwidth elimination across a
/// range of logical and physical error rates".
#[test]
fn claim_bandwidth_elimination_70_to_99_percent() {
    // Easy regime: ~99+%.
    let easy = LifetimeSim::new(&LifetimeConfig::new(5, 1e-3).with_cycles(40_000)).run();
    assert!(easy.coverage() > 0.99, "easy regime coverage {}", easy.coverage());
    // Hard regime (near threshold, large distance): still well above 50%.
    let hard = LifetimeSim::new(&LifetimeConfig::new(13, 8e-3).with_cycles(20_000)).run();
    assert!(hard.coverage() > 0.70, "hard regime coverage {}", hard.coverage());
}

/// Abstract (claim 2): "10–10000x bandwidth reduction over prior
/// off-chip bandwidth reduction techniques (AFS)".
#[test]
fn claim_clique_beats_afs_by_an_order_of_magnitude() {
    let cfg = LifetimeConfig::new(9, 1e-3).with_cycles(60_000).with_seed(2);
    let stats = LifetimeSim::new(&cfg).run();
    let cmp = afs_comparison(9, 1e-3, &stats);
    assert!(
        cmp.clique_reduction > 10.0 * cmp.afs_reduction,
        "clique {}x vs AFS {}x",
        cmp.clique_reduction,
        cmp.afs_reduction
    );
}

/// Abstract (claim 3): "15–37x resource overhead reduction compared to
/// prior on-chip-only decoding (NISQ+)" — encoded via the published
/// anchors, with our synthesized absolute numbers in the paper's range.
#[test]
fn claim_nisq_plus_resource_reduction() {
    let anchor = nisq_plus_anchor();
    assert!(anchor.power_ratio >= 15.0 && anchor.power_ratio <= 37.0 + 1e-9);
    let report = CostModel::default()
        .report(synthesize_clique(&SurfaceCode::new(9), StabilizerType::X, 2).netlist());
    // Paper text: 10 µW (d=3) … 500 µW (d=21); d=9 sits inside.
    assert!(report.power_uw > 10.0 && report.power_uw < 500.0, "d=9 power {} µW", report.power_uw);
}

/// Sec. 7.3: Clique+baseline accuracy tracks the baseline ("almost
/// exactly equivalent" at d=3/5/7).
#[test]
fn claim_accuracy_tracks_baseline_at_low_distance() {
    let cfg = ShotConfig::new(3, 1e-2).with_shots(4_000).with_seed(3);
    let base = logical_error_rate(&cfg, DecoderKind::MwpmOnly);
    let btwc = logical_error_rate(&cfg, DecoderKind::CliquePlusMwpm);
    assert!(base.failures > 5, "baseline must be measurable");
    let ratio = btwc.rate() / base.rate();
    assert!(
        (0.5..2.5).contains(&ratio),
        "accuracy ratio {ratio} (base {} vs clique {})",
        base.rate(),
        btwc.rate()
    );
}

/// Sec. 5 / Fig. 9: provisioning at the average rate diverges;
/// 99th-percentile provisioning keeps the execution-time increase small.
#[test]
fn claim_statistical_provisioning_beats_average() {
    let cfg = LifetimeConfig::new(9, 5e-3).with_cycles(50_000).with_seed(4);
    let q = LifetimeSim::new(&cfg).run().offchip_fraction();
    assert!(q > 0.0, "need a nonzero off-chip rate");
    let model = ArrivalModel::bernoulli(1000, q);
    let mut rng = SimRng::from_seed(5);
    let pts = sweep_tradeoff(&model, &mut rng, &[0.50, 0.999], 20_000);
    let mean_pt = &pts[0];
    let p999_pt = &pts[1];
    assert!(
        mean_pt.execution_time_increase > 0.5,
        "average provisioning should stall badly, got {}",
        mean_pt.execution_time_increase
    );
    assert!(
        p999_pt.execution_time_increase < 0.10,
        "p99.9 provisioning increase {}",
        p999_pt.execution_time_increase
    );
    assert!(p999_pt.reduction > 2.0, "reduction {}", p999_pt.reduction);
}

/// Sec. 7.4: Clique latency is ~0.1–0.3 ns and nearly flat across
/// distances — fast enough for per-cycle decoding.
#[test]
fn claim_subnanosecond_flat_latency() {
    let model = CostModel::default();
    let mut latencies = Vec::new();
    for d in [3u16, 9, 15, 21] {
        let r =
            model.report(synthesize_clique(&SurfaceCode::new(d), StabilizerType::X, 2).netlist());
        latencies.push(r.latency_ns);
    }
    for &l in &latencies {
        assert!((0.02..0.6).contains(&l), "latency {l} ns");
    }
    let spread = latencies.iter().cloned().fold(0.0f64, f64::max)
        / latencies.iter().cloned().fold(f64::MAX, f64::min);
    assert!(spread < 3.0, "latency must be nearly flat, spread {spread}x");
}

/// Fig. 12's point: near threshold, going off-chip for everything that
/// is not all-zeros would forfeit most of the benefit — Clique handles
/// nearly all non-zero signatures on-chip.
#[test]
fn claim_nonzero_signatures_dominate_onchip_traffic_near_threshold() {
    let stats =
        LifetimeSim::new(&LifetimeConfig::new(11, 8e-3).with_cycles(30_000).with_seed(6)).run();
    // (The 2-round filter books each error's confirmation cycle as the
    // error cycle, so roughly half the on-chip decodes carry errors at
    // this operating point; the fraction keeps rising with p·d².)
    assert!(
        stats.nonzero_onchip_fraction() > 0.4,
        "non-zero on-chip fraction {}",
        stats.nonzero_onchip_fraction()
    );
    // And the naive "ship everything non-zero" policy would ship far
    // more than Clique does.
    let nonzero_fraction = 1.0 - stats.raw_all_zero_fraction();
    assert!(
        nonzero_fraction > 2.0 * stats.offchip_fraction(),
        "naive non-zero shipping {} vs clique off-chip {}",
        nonzero_fraction,
        stats.offchip_fraction()
    );
}

//! Outside-in tracing: spans recorded from the benchmark's own loop
//! around each call into a layer's public functions.
//!
//! The closed loop is generic over a [`Tracer`]. [`Untraced`] compiles
//! to the bare calls, so the end-to-end run pays nothing; [`SpanTracer`]
//! times every span, keeps per-layer totals, and keeps the full span
//! trees of the slowest cycles in a bounded ring. Everything stays in
//! memory until the run ends.

use std::cmp::Reverse;
use std::time::Instant;

use crate::json::Json;

/// How many of the slowest cycles keep their full span tree.
pub const SLOW_CYCLES_KEPT: usize = 64;

/// A span name: `<crate>.<public function>`. A *probe* replays the
/// recorded input of a call that is internal to `step_deferred`
/// through that one public function on a shadow instance, off the real
/// path; probes are excluded from the sums-to-total check.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum Layer {
    NoiseSample,
    SyndromeBatchPack,
    CoreStepDeferred,
    CliquePushBatch,
    SyndromeGatherWindow,
    BandwidthFromHistory,
    BandwidthEncodeV2,
    BandwidthTransmit,
    BandwidthDecodeV2,
    BandwidthReplayInto,
    SparseSolve,
    UfSolve,
    LutSolve,
    FarmServiceCycle,
    FarmInlineEquiv,
    CoreComplete,
    SimApply,
}

/// Every layer in discriminant order, with its span name and whether
/// it is a probe.
const LAYERS: [(Layer, &str, bool); 17] = [
    (Layer::NoiseSample, "noise.sample", false),
    (Layer::SyndromeBatchPack, "syndrome.batch_pack", false),
    (Layer::CoreStepDeferred, "core.step_deferred", false),
    (Layer::CliquePushBatch, "clique.push_batch", true),
    (Layer::SyndromeGatherWindow, "syndrome.gather_window", true),
    (Layer::BandwidthFromHistory, "bandwidth.from_history", true),
    (Layer::BandwidthEncodeV2, "bandwidth.encode_v2", true),
    (Layer::BandwidthTransmit, "bandwidth.transmit", true),
    (Layer::BandwidthDecodeV2, "bandwidth.decode_v2", true),
    (Layer::BandwidthReplayInto, "bandwidth.replay_into", false),
    (Layer::SparseSolve, "sparse.solve", false),
    (Layer::UfSolve, "uf.solve", false),
    (Layer::LutSolve, "lut.solve", false),
    (Layer::FarmServiceCycle, "farm.service_cycle", false),
    (Layer::FarmInlineEquiv, "farm.inline_equiv", true),
    (Layer::CoreComplete, "core.complete", false),
    (Layer::SimApply, "sim.apply", false),
];

impl Layer {
    /// Every layer, in the order the per-layer table prints them.
    pub fn all() -> impl Iterator<Item = Layer> {
        LAYERS.iter().map(|&(layer, ..)| layer)
    }

    #[must_use]
    pub fn name(self) -> &'static str {
        LAYERS[self as usize].1
    }

    #[must_use]
    pub fn is_probe(self) -> bool {
        LAYERS[self as usize].2
    }
}

/// "No qubit": the span covers a whole machine.
pub const NO_QUBIT: u32 = u32::MAX;

/// What the closed loop reports its layer calls to.
pub trait Tracer {
    /// Whether spans are recorded; the loop skips its probes when not.
    const ON: bool;
    fn begin_cycle(&mut self, cycle: u64);
    /// Runs `f` as one span of `layer`, caused by this cycle's root.
    fn span<R>(&mut self, layer: Layer, tenant: usize, qubit: u32, f: impl FnOnce() -> R) -> R;
    fn end_cycle(&mut self);
}

/// Tracing off: every span is the bare call.
#[derive(Debug, Default)]
pub struct Untraced;

impl Tracer for Untraced {
    const ON: bool = false;
    #[inline(always)]
    fn begin_cycle(&mut self, _cycle: u64) {}
    #[inline(always)]
    fn span<R>(&mut self, _: Layer, _: usize, _: u32, f: impl FnOnce() -> R) -> R {
        f()
    }
    #[inline(always)]
    fn end_cycle(&mut self) {}
}

/// One recorded span; times are nanoseconds since the tracer's epoch.
/// Its parent is the root span of its cycle.
#[derive(Debug, Clone, Copy)]
struct Span {
    layer: Layer,
    start_ns: u64,
    end_ns: u64,
    tenant: u16,
    qubit: u32,
}

/// A kept slow cycle: its root span and every child.
#[derive(Debug)]
struct SlowCycle {
    cycle: u64,
    start_ns: u64,
    end_ns: u64,
    spans: Vec<Span>,
}

impl SlowCycle {
    fn wall_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Busy time and call count of one layer.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerTotal {
    pub busy_ns: u64,
    pub calls: u64,
}

/// Tracing on.
#[derive(Debug)]
pub struct SpanTracer {
    epoch: Instant,
    totals: [LayerTotal; LAYERS.len()],
    /// Σ root spans: the traced wall.
    root_ns: u64,
    cycle: u64,
    cycle_start_ns: u64,
    /// Where the previous span ended: spans tile the cycle.
    last_ns: u64,
    current: Vec<Span>,
    /// The slowest cycles so far, at most [`SLOW_CYCLES_KEPT`].
    kept: Vec<SlowCycle>,
}

impl Default for SpanTracer {
    fn default() -> Self {
        SpanTracer {
            epoch: Instant::now(),
            totals: [LayerTotal::default(); LAYERS.len()],
            root_ns: 0,
            cycle: 0,
            cycle_start_ns: 0,
            last_ns: 0,
            current: Vec::with_capacity(256),
            kept: Vec::with_capacity(SLOW_CYCLES_KEPT),
        }
    }
}

impl SpanTracer {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    #[must_use]
    pub fn total(&self, layer: Layer) -> LayerTotal {
        self.totals[layer as usize]
    }

    /// Σ root spans in seconds: the wall time of the traced loop.
    #[must_use]
    pub fn wall_s(&self) -> f64 {
        self.root_ns as f64 * 1e-9
    }

    /// Σ busy time of the real (non-probe) or probe layers, in seconds.
    #[must_use]
    pub fn busy_s(&self, probes: bool) -> f64 {
        Layer::all()
            .filter(|l| l.is_probe() == probes)
            .map(|l| self.total(l).busy_ns as f64 * 1e-9)
            .sum()
    }

    /// Share of the traced wall, net of probes, that the real spans
    /// cover: the cost table sums to the total when this is near 1.
    #[must_use]
    pub fn coverage(&self) -> f64 {
        let net = self.wall_s() - self.busy_s(true);
        if net <= 0.0 {
            return 0.0;
        }
        self.busy_s(false) / net
    }

    /// The kept slow cycles, slowest first, as span trees.
    #[must_use]
    pub fn slow_cycles_json(&self) -> Json {
        let mut cycles: Vec<&SlowCycle> = self.kept.iter().collect();
        cycles.sort_by_key(|c| Reverse(c.wall_ns()));
        Json::Arr(
            cycles
                .into_iter()
                .map(|c| {
                    let root = Json::obj([
                        ("id", Json::from(0u64)),
                        ("name", Json::str("cycle")),
                        ("start_ns", Json::from(c.start_ns)),
                        ("end_ns", Json::from(c.end_ns)),
                        ("parent", Json::Null),
                    ]);
                    let children = c.spans.iter().enumerate().map(|(i, s)| {
                        Json::obj([
                            ("id", Json::from(i as u64 + 1)),
                            ("name", Json::str(s.layer.name())),
                            ("probe", Json::Bool(s.layer.is_probe())),
                            ("start_ns", Json::from(s.start_ns)),
                            ("end_ns", Json::from(s.end_ns)),
                            ("parent", Json::from(0u64)),
                            ("tenant", Json::from(u64::from(s.tenant))),
                            (
                                "qubit",
                                if s.qubit == NO_QUBIT {
                                    Json::Null
                                } else {
                                    Json::from(u64::from(s.qubit))
                                },
                            ),
                        ])
                    });
                    Json::obj([
                        ("cycle", Json::from(c.cycle)),
                        ("wall_ns", Json::from(c.wall_ns())),
                        ("spans", Json::Arr(std::iter::once(root).chain(children).collect())),
                    ])
                })
                .collect(),
        )
    }
}

impl Tracer for SpanTracer {
    const ON: bool = true;

    fn begin_cycle(&mut self, cycle: u64) {
        self.cycle = cycle;
        self.current.clear();
        self.cycle_start_ns = self.now_ns();
        self.last_ns = self.cycle_start_ns;
    }

    fn span<R>(&mut self, layer: Layer, tenant: usize, qubit: u32, f: impl FnOnce() -> R) -> R {
        let out = f();
        let (start_ns, end_ns) = (self.last_ns, self.now_ns());
        self.last_ns = end_ns;
        let total = &mut self.totals[layer as usize];
        total.busy_ns += end_ns - start_ns;
        total.calls += 1;
        self.current.push(Span { layer, start_ns, end_ns, tenant: tenant as u16, qubit });
        out
    }

    fn end_cycle(&mut self) {
        let end_ns = self.now_ns();
        self.root_ns += end_ns - self.cycle_start_ns;
        let mut cycle = SlowCycle {
            cycle: self.cycle,
            start_ns: self.cycle_start_ns,
            end_ns,
            spans: Vec::new(),
        };
        if self.kept.len() < SLOW_CYCLES_KEPT {
            std::mem::swap(&mut cycle.spans, &mut self.current);
            self.kept.push(cycle);
            return;
        }
        // When the ring is full a slower cycle takes the place (and the
        // span buffer) of the fastest one kept.
        let fastest = self.kept.iter_mut().min_by_key(|c| c.wall_ns()).expect("the ring is full");
        if cycle.wall_ns() > fastest.wall_ns() {
            std::mem::swap(&mut cycle.spans, &mut self.current);
            std::mem::swap(fastest, &mut cycle);
            self.current = cycle.spans;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_layer_table_is_in_discriminant_order() {
        for (i, layer) in Layer::all().enumerate() {
            assert_eq!(layer as usize, i, "{} is out of place", layer.name());
        }
    }

    #[test]
    fn keeps_only_the_slowest_cycles_and_sums_every_span() {
        let mut t = SpanTracer::default();
        for cycle in 0..(3 * SLOW_CYCLES_KEPT as u64) {
            t.begin_cycle(cycle);
            // Every third cycle is made slow.
            t.span(Layer::CoreStepDeferred, 0, NO_QUBIT, || {
                if cycle % 3 == 0 {
                    std::thread::sleep(std::time::Duration::from_micros(200));
                }
            });
            t.span(Layer::CliquePushBatch, 0, 5, || {});
            t.end_cycle();
        }
        assert_eq!(t.total(Layer::CoreStepDeferred).calls, 3 * SLOW_CYCLES_KEPT as u64);
        assert_eq!(t.kept.len(), SLOW_CYCLES_KEPT);
        assert!(t.kept.iter().all(|c| c.cycle % 3 == 0 && c.spans.len() == 2));
        assert!(t.coverage() > 0.5 && t.coverage() <= 1.0);
        let json = t.slow_cycles_json();
        assert_eq!(json.items().len(), SLOW_CYCLES_KEPT);
        let first = &json.items()[0];
        assert_eq!(first.get("spans").map(|s| s.items().len()), Some(3));
    }
}

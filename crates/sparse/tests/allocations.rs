//! The sparse decode's allocation claim, pinned with a counting global
//! allocator: once a decoder's scratch has grown to its windows, a
//! decode makes exactly one heap allocation — the returned correction's
//! qubit list — whether the window has 3 events or 200.
//! Every other buffer (union-find, scan rows, collision edges, blossom
//! tables, path flips) is recycled.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

use btwc_lattice::{StabilizerType, SurfaceCode};
use btwc_noise::SimRng;
use btwc_sparse::SparseDecoder;
use btwc_syndrome::DetectionEvent;
use btwc_telemetry::{MetricValue, MetricsRegistry};
use btwc_testutil::noisy_window;

/// Counts allocations made on threads that opted in, so the test
/// harness's own threads do not disturb the count.
struct Counting;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

fn note() {
    if COUNTING.try_with(Cell::get).unwrap_or(false) {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every call forwards to `System` unchanged; counting touches
// only an atomic and a const-initialized thread-local, neither of which
// allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations `f` makes on this thread.
fn allocations_in(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    COUNTING.with(|c| c.set(true));
    f();
    COUNTING.with(|c| c.set(false));
    ALLOCATIONS.load(Ordering::Relaxed) - before
}

#[test]
fn warmed_decode_allocates_only_the_returned_correction() {
    let code = SurfaceCode::new(21);
    let ty = StabilizerType::X;
    let graph = code.detector_graph(ty);

    // Three events in a chain: one pair matches, one event exits.
    let a = (0..graph.num_nodes()).max_by_key(|&a| graph.boundary_distance(a)).unwrap();
    let b = graph.neighbors(a)[0] as usize;
    let c = *graph.neighbors(b).iter().find(|&&x| x as usize != a).unwrap() as usize;
    let small: Vec<DetectionEvent> =
        [a, b, c].iter().map(|&ancilla| DetectionEvent { ancilla, round: 0 }).collect();
    // The first 200 events of a noisy d = 21 window at p = 1e-2.
    let (window, _) = noisy_window(&code, ty, 1e-2, 21, &mut SimRng::from_seed(0xA110C));
    let mut large = window.detection_events();
    assert!(large.len() >= 200, "window has only {} events", large.len());
    large.truncate(200);

    // Vacuity guard: the large window must drive the blossom stages,
    // not only the jump start, so the stage tables are counted too.
    let registry = MetricsRegistry::new();
    let mut probe = SparseDecoder::new(&code, ty).with_telemetry(&registry);
    let _ = probe.decode_events_weighted(&large);
    match registry.snapshot().get("sparse.solve_stages") {
        Some(MetricValue::Histogram { sum, .. }) => assert!(*sum > 0, "no blossom stage ran"),
        other => panic!("unexpected stage metric {other:?}"),
    }

    let mut decoder = SparseDecoder::new(&code, ty);
    for events in [&small, &large, &small] {
        let _ = decoder.decode_events_weighted(events);
    }
    let mut counts = Vec::new();
    for events in [&small, &large] {
        let mut out = None;
        counts.push(allocations_in(|| out = Some(decoder.decode_events_weighted(events))));
        let (correction, weight) = out.unwrap();
        assert!(!correction.is_empty() && weight > 0, "{} events decoded to nothing", events.len());
    }
    assert_eq!(counts, [1, 1], "allocations per warmed decode (3 events, 200 events)");
}

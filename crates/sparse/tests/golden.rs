//! Golden corrections: the exact corrections and weights the sparse
//! decoder commits to on seeded noisy windows, pinned as one FNV-1a
//! digest.
//!
//! Weight equality with the dense oracle (`sparse_vs_dense.rs`) leaves
//! the decoder free to pick any of several equal-weight matchings; this
//! digest does not. A kernel change that reorders collision edges,
//! union-find merges or blossom tie-breaks moves it, so optimizations
//! of the scan and the solver must reproduce it bit for bit.

use btwc_lattice::{StabilizerType, SurfaceCode};
use btwc_noise::SimRng;
use btwc_sparse::SparseDecoder;
use btwc_testutil::noisy_window;

/// The digest of every `(Correction::qubits(), weight)` over the plan
/// below, recorded when equal-weight ties between pairing and two
/// boundary exits began to pair (the weights did not move).
const GOLDEN: u64 = 0xc75d_2bbf_07df_26c0;

/// `(distance, error rate, windows)`: the chained-cluster fuzz grid's
/// distances and rates, plus d = 5.
const PLAN: [(u16, f64, u64); 6] = [
    (5, 5e-3, 400),
    (5, 1e-2, 400),
    (13, 5e-3, 200),
    (13, 1e-2, 200),
    (21, 5e-3, 80),
    (21, 1e-2, 80),
];

/// 64-bit FNV-1a.
struct Fnv1a(u64);

impl Fnv1a {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

fn digest() -> (u64, usize) {
    let ty = StabilizerType::X;
    let mut h = Fnv1a::new();
    let mut max_events = 0;
    for (d, p, windows) in PLAN {
        let code = SurfaceCode::new(d);
        let mut decoder = SparseDecoder::new(&code, ty);
        let base = 0x0060_1DE4u64 ^ (u64::from(d) << 40) ^ p.to_bits();
        for i in 0..windows {
            let (window, _) =
                noisy_window(&code, ty, p, usize::from(d), &mut SimRng::from_seed(base ^ i));
            max_events = max_events.max(window.detection_event_count());
            let (correction, weight) = decoder.decode_window_weighted(&window);
            h.write(&(correction.qubits().len() as u64).to_le_bytes());
            for &q in correction.qubits() {
                h.write(&(q as u64).to_le_bytes());
            }
            h.write(&weight.to_le_bytes());
        }
    }
    (h.0, max_events)
}

#[test]
fn unpooled_corrections_match_the_golden_digest() {
    let (got, max_events) = digest();
    // Vacuity guard: the plan must reach windows with real chained
    // clusters, not only small knots.
    assert!(max_events > 64, "largest window had only {max_events} events");
    assert_eq!(got, GOLDEN, "corrections moved: digest {got:#018x}");
}

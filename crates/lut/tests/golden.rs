//! Golden table: every correction the lookup table stores, pinned as
//! one FNV-1a digest.
//!
//! The table is built by decoding every single-round syndrome with the
//! exact MWPM matcher, which may pick any of several equal-weight
//! matchings; this digest fixes the ones it picks. A change to the
//! matcher or to how the table calls it must reproduce it bit for bit,
//! so the LUT backend decodes exactly as before.

use btwc_lattice::{StabilizerType, SurfaceCode};
use btwc_lut::LutDecoder;
use btwc_syndrome::Syndrome;

/// The digest of every table entry's `Correction::qubits()` at
/// d ∈ {3, 5} for both stabilizer types.
const GOLDEN: u64 = 0x5028_3f73_c3c6_087f;

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

#[test]
fn table_matches_the_golden_digest() {
    let mut h = Fnv1a::new();
    let mut entries = 0;
    for d in [3u16, 5] {
        let code = SurfaceCode::new(d);
        for ty in [StabilizerType::X, StabilizerType::Z] {
            let lut = LutDecoder::build(&code, ty);
            let n = lut.syndrome_bits();
            for pattern in 0..lut.table_entries() {
                let syndrome: Syndrome = (0..n).map(|i| (pattern >> i) & 1 == 1).collect();
                let correction = lut.decode(&syndrome);
                h.write(&(correction.qubits().len() as u64).to_le_bytes());
                for &q in correction.qubits() {
                    h.write(&(q as u64).to_le_bytes());
                }
                entries += 1;
            }
        }
    }
    // 2 × (2^4 + 2^12) entries: every syndrome of both types.
    assert_eq!(entries, 2 * (16 + 4096));
    assert_eq!(h.0, GOLDEN, "table moved: digest {:#018x}", h.0);
}

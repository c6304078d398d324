//! Lookup-table decoding for small code distances — the LILLIPUT-style
//! baseline the paper's related work discusses (Das et al., "LILLIPUT:
//! a lightweight low-latency lookup-table based decoder").
//!
//! For small distances the whole per-round syndrome space is
//! enumerable: `2^((d²-1)/2)` entries (4096 at d = 5). This crate builds
//! the table once — decoding *every* possible syndrome with the exact
//! MWPM matcher — and then answers per-round decodes with a single
//! indexed load. It serves two roles in the workspace:
//!
//! * a related-work baseline with genuinely O(1) decode latency, for the
//!   hierarchy ablations;
//! * an exhaustive cross-check: building the table *proves* the MWPM
//!   decoder terminates and produces syndrome-consistent corrections on
//!   every one of the `2^n` inputs (see this crate's tests).
//!
//! Like the hardware LILLIPUT, the table covers a single round and
//! therefore does not handle measurement errors; callers needing
//! temporal robustness put it behind a sticky filter or use it as the
//! final-readout cleanup stage.
//!
//! # Example
//!
//! ```
//! use btwc_lattice::{StabilizerType, SurfaceCode};
//! use btwc_lut::LutDecoder;
//! use btwc_syndrome::PackedBits;
//!
//! let code = SurfaceCode::new(3);
//! let lut = LutDecoder::build(&code, StabilizerType::X);
//! let mut errors = vec![false; code.num_data_qubits()];
//! errors[4] = true;
//! let syndrome = PackedBits::from_bools(&code.syndrome_of(StabilizerType::X, &errors));
//! assert_eq!(lut.decode(&syndrome).qubits(), &[4]);
//! ```

use btwc_lattice::{StabilizerType, SurfaceCode};
use btwc_mwpm::MwpmDecoder;
use btwc_syndrome::ComplexDecoder;
use btwc_syndrome::{Correction, DetectionEvent, RoundHistory, Syndrome};

/// Maximum supported syndrome width (table size `2^24` ≈ 16M entries).
pub const MAX_LUT_BITS: usize = 24;

/// A fully materialized single-round decoder table.
#[derive(Debug, Clone)]
pub struct LutDecoder {
    ty: StabilizerType,
    bits: usize,
    table: Vec<Correction>,
}

impl LutDecoder {
    /// Builds the table for stabilizer type `ty` of `code` by decoding
    /// every possible syndrome with the exact MWPM matcher.
    ///
    /// # Panics
    ///
    /// Panics if the code has more than [`MAX_LUT_BITS`] ancillas of
    /// this type (d ≤ 7 fits; beyond that the table is impractical,
    /// which is exactly the paper's argument for Clique).
    #[must_use]
    pub fn build(code: &SurfaceCode, ty: StabilizerType) -> Self {
        let bits = code.num_ancillas(ty);
        assert!(
            bits <= MAX_LUT_BITS,
            "lookup table for {bits} syndrome bits is impractical (max {MAX_LUT_BITS})"
        );
        let mut mwpm = MwpmDecoder::new(code, ty);
        let table = (0..1usize << bits)
            .map(|pattern| {
                let events: Vec<DetectionEvent> = (0..bits)
                    .filter(|i| (pattern >> i) & 1 == 1)
                    .map(|ancilla| DetectionEvent { ancilla, round: 0 })
                    .collect();
                mwpm.decode_events_mut(&events)
            })
            .collect();
        Self { ty, bits, table }
    }

    /// The stabilizer type served.
    #[must_use]
    pub fn stabilizer_type(&self) -> StabilizerType {
        self.ty
    }

    /// Syndrome width.
    #[must_use]
    pub fn syndrome_bits(&self) -> usize {
        self.bits
    }

    /// Number of table entries (`2^bits`).
    #[must_use]
    pub fn table_entries(&self) -> usize {
        self.table.len()
    }

    /// O(1) decode of one syndrome round.
    ///
    /// # Panics
    ///
    /// Panics if the syndrome width does not match.
    #[must_use]
    pub fn decode(&self, syndrome: &Syndrome) -> Correction {
        assert_eq!(syndrome.len(), self.bits, "syndrome width mismatch");
        let mut idx = 0usize;
        for i in syndrome.iter_set() {
            idx |= 1 << i;
        }
        self.table[idx].clone()
    }
}

impl ComplexDecoder for LutDecoder {
    /// Window decoding via the final effective round: the XOR of all
    /// detection events per ancilla (equivalently the latest raw round
    /// relative to the window baseline).
    fn decode_window_mut(&mut self, window: &RoundHistory) -> Correction {
        let mut effective = Syndrome::new(self.bits);
        for ev in window.detection_events() {
            effective.set(ev.ancilla, !effective.get(ev.ancilla));
        }
        self.decode(&effective)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use btwc_syndrome::PackedBits;

    #[test]
    fn d3_table_has_16_entries() {
        let code = SurfaceCode::new(3);
        let lut = LutDecoder::build(&code, StabilizerType::X);
        assert_eq!(lut.syndrome_bits(), 4);
        assert_eq!(lut.table_entries(), 16);
    }

    #[test]
    fn zero_syndrome_decodes_to_nothing() {
        let code = SurfaceCode::new(3);
        let lut = LutDecoder::build(&code, StabilizerType::X);
        assert!(lut.decode(&Syndrome::new(4)).is_empty());
    }

    #[test]
    fn every_entry_reproduces_its_syndrome() {
        // Exhaustive soundness: for all 2^n syndromes, the stored
        // correction must produce exactly that syndrome.
        for d in [3u16, 5] {
            let code = SurfaceCode::new(d);
            let ty = StabilizerType::X;
            let lut = LutDecoder::build(&code, ty);
            let n = lut.syndrome_bits();
            for pattern in 0..lut.table_entries() {
                let syndrome: Syndrome = (0..n).map(|i| (pattern >> i) & 1 == 1).collect();
                let c = lut.decode(&syndrome);
                let mut errors = vec![false; code.num_data_qubits()];
                c.apply_to(&mut errors);
                let produced = code.syndrome_of(ty, &errors);
                for (i, &bit) in produced.iter().enumerate() {
                    assert_eq!(bit, syndrome.get(i), "d={d} pattern={pattern} bit {i}");
                }
            }
        }
    }

    #[test]
    fn lut_matches_mwpm_per_round() {
        let code = SurfaceCode::new(5);
        let ty = StabilizerType::X;
        let lut = LutDecoder::build(&code, ty);
        let mut mwpm = MwpmDecoder::new(&code, ty);
        // All single- and double-error syndromes agree exactly.
        for q in 0..code.num_data_qubits() {
            let mut errors = vec![false; code.num_data_qubits()];
            errors[q] = true;
            let syndrome = PackedBits::from_bools(&code.syndrome_of(ty, &errors));
            let events: Vec<DetectionEvent> =
                syndrome.iter_set().map(|ancilla| DetectionEvent { ancilla, round: 0 }).collect();
            assert_eq!(lut.decode(&syndrome), mwpm.decode_events_mut(&events), "qubit {q}");
        }
    }

    #[test]
    fn plugs_into_btwc_pipeline_as_complex_tier() {
        use btwc_core::{BtwcDecoder, BtwcOutcome, DecoderBackend};
        let code = SurfaceCode::new(5);
        let mut dec =
            BtwcDecoder::builder(&code, StabilizerType::X).backend(DecoderBackend::Lut).build();
        let mut errors = vec![false; code.num_data_qubits()];
        errors[5 + 2] = true;
        errors[2 * 5 + 2] = true; // interior chain => complex
        let round = code.syndrome_of(StabilizerType::X, &errors);
        let _ = dec.process_round(&round);
        let out = dec.process_round(&round);
        assert!(matches!(out, BtwcOutcome::OffChip(_)));
        let mut residual = errors.clone();
        out.correction().unwrap().apply_to(&mut residual);
        assert!(code.syndrome_of(StabilizerType::X, &residual).iter().all(|&s| !s));
    }

    #[test]
    #[should_panic(expected = "impractical")]
    fn large_distance_rejected() {
        let code = SurfaceCode::new(9);
        let _ = LutDecoder::build(&code, StabilizerType::X);
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn wrong_width_rejected() {
        let code = SurfaceCode::new(3);
        let lut = LutDecoder::build(&code, StabilizerType::X);
        let _ = lut.decode(&Syndrome::new(7));
    }
}

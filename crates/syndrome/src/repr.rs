//! The per-cycle syndrome bit vector.

use crate::packed::PackedBits;

/// One round of syndrome bits for one stabilizer type; bit `i` belongs
/// to ancilla `i` (the indexing of [`btwc_lattice::SurfaceCode::ancillas`]).
///
/// A syndrome *is* a word-packed bit vector, so the operations the
/// decode hot path leans on — [`PackedBits::is_zero`] (the paper's
/// "All-0s" signature), [`PackedBits::weight`], [`PackedBits::xor_with`],
/// [`PackedBits::iter_set`] — are word-parallel rather than
/// bit-at-a-time, and a syndrome passes to every packed-row API
/// (`RoundHistory::push_packed`, `SyndromeBatch::set_qubit_round`, …)
/// without conversion. Build one from lattice bits with
/// [`PackedBits::from_bools`].
pub type Syndrome = PackedBits;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_is_zero() {
        let s = Syndrome::new(12);
        assert!(s.is_zero());
        assert_eq!(s.len(), 12);
        assert_eq!(s.weight(), 0);
        assert!(!s.is_empty());
    }

    #[test]
    fn set_and_get_roundtrip() {
        let mut s = Syndrome::new(8);
        s.set(3, true);
        assert!(s.get(3));
        assert_eq!(s.weight(), 1);
        assert!(!s.is_zero());
        s.set(3, false);
        assert!(s.is_zero());
    }

    #[test]
    fn xor_cancels() {
        let mut a: Syndrome = [true, false, true, false].into_iter().collect();
        let b = a.clone();
        a.xor_with(&b);
        assert!(a.is_zero());
    }

    #[test]
    fn iter_set_lists_lit_ancillas() {
        let s: Syndrome = [false, true, false, true, true].into_iter().collect();
        let set: Vec<usize> = s.iter_set().collect();
        assert_eq!(set, vec![1, 3, 4]);
    }

    #[test]
    fn display_is_bitstring() {
        let s: Syndrome = [true, false, true].into_iter().collect();
        assert_eq!(s.to_string(), "101");
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn xor_length_mismatch_panics() {
        let mut a = Syndrome::new(3);
        let b = Syndrome::new(4);
        a.xor_with(&b);
    }

    #[test]
    fn from_vec_and_clear() {
        let mut s = Syndrome::from_bools(&[true, true]);
        assert_eq!(s.weight(), 2);
        s.clear();
        assert!(s.is_zero());
    }

    #[test]
    fn packed_views_roundtrip() {
        let bools = vec![true, false, true, true, false, false, true];
        let s = Syndrome::from_bools(&bools);
        assert_eq!(s.to_bools(), bools);
        assert_eq!(Syndrome::from_bools(&s.to_bools()), s);
    }
}

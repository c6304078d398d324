//! Corrections: the output side of every decoder.

use std::fmt;

/// A set of data qubits to flip (XOR semantics — flipping twice is the
/// identity, so the set is kept deduplicated and sorted).
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct Correction {
    qubits: Vec<usize>,
}

impl Correction {
    /// The empty correction.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a correction from a list of qubit flips; duplicate entries
    /// cancel pairwise (XOR semantics).
    #[must_use]
    pub fn from_flips(mut flips: Vec<usize>) -> Self {
        Self::from_flip_buffer(&mut flips)
    }

    /// [`Correction::from_flips`] over a borrowed buffer, which is left
    /// sorted: the caller keeps its capacity for the next decode, and
    /// the only allocation is the correction's own qubit list.
    #[must_use]
    pub fn from_flip_buffer(flips: &mut [usize]) -> Self {
        flips.sort_unstable();
        let mut qubits = Vec::with_capacity(flips.len());
        let mut i = 0;
        while i < flips.len() {
            let mut run = 1;
            while i + run < flips.len() && flips[i + run] == flips[i] {
                run += 1;
            }
            if run % 2 == 1 {
                qubits.push(flips[i]);
            }
            i += run;
        }
        Self { qubits }
    }

    /// Sorted, deduplicated data-qubit indices to flip.
    #[must_use]
    pub fn qubits(&self) -> &[usize] {
        &self.qubits
    }

    /// Number of qubits flipped.
    #[must_use]
    pub fn weight(&self) -> usize {
        self.qubits.len()
    }

    /// Whether this correction flips nothing.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.qubits.is_empty()
    }

    /// XORs this correction into an error buffer.
    ///
    /// # Panics
    ///
    /// Panics if any qubit index is out of range for `errors`.
    pub fn apply_to(&self, errors: &mut [bool]) {
        for &q in &self.qubits {
            errors[q] ^= true;
        }
    }

    /// Merges another correction into this one (XOR semantics).
    pub fn merge(&mut self, other: &Correction) {
        let mut flips = self.qubits.clone();
        flips.extend_from_slice(&other.qubits);
        *self = Self::from_flips(flips);
    }
}

impl FromIterator<usize> for Correction {
    fn from_iter<I: IntoIterator<Item = usize>>(iter: I) -> Self {
        Self::from_flips(iter.into_iter().collect())
    }
}

impl fmt::Display for Correction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "flip{:?}", self.qubits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_flips_dedups_pairs() {
        let c = Correction::from_flips(vec![3, 1, 3, 2, 1, 1]);
        assert_eq!(c.qubits(), &[1, 2]);
        assert_eq!(c.weight(), 2);
        let mut buffer = vec![3, 1, 3, 2, 1, 1];
        assert_eq!(Correction::from_flip_buffer(&mut buffer), c);
        assert_eq!(buffer, [1, 1, 1, 2, 3, 3], "the buffer is left sorted");
    }

    #[test]
    fn apply_to_xors() {
        let c = Correction::from_flips(vec![0, 2]);
        let mut errors = vec![true, false, true];
        c.apply_to(&mut errors);
        assert_eq!(errors, vec![false, false, false]);
    }

    #[test]
    fn merge_cancels_common_qubits() {
        let mut a = Correction::from_flips(vec![1, 2]);
        let b = Correction::from_flips(vec![2, 3]);
        a.merge(&b);
        assert_eq!(a.qubits(), &[1, 3]);
    }

    #[test]
    fn empty_correction() {
        let c = Correction::new();
        assert!(c.is_empty());
        assert_eq!(c.to_string(), "flip[]");
    }

    #[test]
    fn collect_from_iterator() {
        let c: Correction = [5usize, 5, 7].into_iter().collect();
        assert_eq!(c.qubits(), &[7]);
    }
}

//! Decoder outputs: decisions and corrections.

pub use btwc_syndrome::Correction;

/// Outcome of a Clique decode for one filtered syndrome.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CliqueDecision {
    /// All syndrome bits are zero; nothing to do (paper: the >90% common
    /// case at practical error rates).
    AllZeros,
    /// Every active clique has trivially decodable structure; apply this
    /// correction on-chip and do not go off-chip.
    Trivial(Correction),
    /// At least one active clique has even, non-special neighborhood
    /// parity; the syndrome must be shipped to the off-chip decoder.
    Complex,
}

impl CliqueDecision {
    /// The correction, if one was produced.
    #[must_use]
    pub fn correction(&self) -> Option<&Correction> {
        match self {
            CliqueDecision::Trivial(c) => Some(c),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decision_helpers() {
        assert!(CliqueDecision::Complex.correction().is_none());
        let d = CliqueDecision::Trivial(Correction::from_flips(vec![1]));
        assert_eq!(d.correction().unwrap().qubits(), &[1]);
    }
}

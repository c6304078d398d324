//! The combinational Clique decision and correction logic.

use btwc_lattice::{StabilizerType, SurfaceCode};
use btwc_syndrome::Syndrome;

use crate::decision::{CliqueDecision, Correction};

/// Precomputed clique structure for one ancilla.
#[derive(Debug, Clone)]
struct CliqueSite {
    /// Same-type neighbor ancillas and the data qubit shared with each.
    neighbors: Vec<(usize, usize)>,
    /// A boundary data qubit seen only by this ancilla, if any (the
    /// Fig. 5 corner/edge special case). When several exist they are
    /// stabilizer-equivalent; the lowest index is kept.
    private_qubit: Option<usize>,
}

/// The Clique decoder for one stabilizer type of one code.
///
/// This is the *behavioral* model of the paper's Fig. 5/6 hardware: all
/// state is precomputed geometry, and [`CliqueDecoder::decode`] is a pure
/// function of the filtered syndrome — exactly as cheap as the paper
/// claims (a parity tree and an AND per clique).
#[derive(Debug, Clone)]
pub struct CliqueDecoder {
    ty: StabilizerType,
    sites: Vec<CliqueSite>,
}

impl CliqueDecoder {
    /// Builds the decoder for stabilizer type `ty` of `code`.
    #[must_use]
    pub fn new(code: &SurfaceCode, ty: StabilizerType) -> Self {
        let graph = code.detector_graph(ty);
        let sites: Vec<CliqueSite> = (0..graph.num_nodes())
            .map(|a| CliqueSite {
                neighbors: graph.ancilla_neighbors(a),
                private_qubit: graph.private_qubits(a).into_iter().min(),
            })
            .collect();
        // `decode` keeps its lit-neighbor scratch on the stack.
        assert!(
            sites.iter().all(|s| s.neighbors.len() <= 4),
            "surface-code cliques have at most 4 same-type neighbors"
        );
        Self { ty, sites }
    }

    /// The stabilizer type this decoder watches.
    #[must_use]
    pub fn stabilizer_type(&self) -> StabilizerType {
        self.ty
    }

    /// Number of cliques (one per ancilla).
    #[must_use]
    pub fn num_cliques(&self) -> usize {
        self.sites.len()
    }

    /// Decides one filtered syndrome (paper Fig. 5 pseudocode).
    ///
    /// # Panics
    ///
    /// Panics if `syndrome.len()` does not match the number of cliques.
    #[must_use]
    pub fn decode(&self, syndrome: &Syndrome) -> CliqueDecision {
        assert_eq!(syndrome.len(), self.sites.len(), "syndrome width mismatch");
        if syndrome.is_zero() {
            return CliqueDecision::AllZeros;
        }
        let mut flips = Vec::new();
        // A clique has at most 4 same-type neighbors on any surface
        // code, so the lit-neighbor scratch lives on the stack.
        let mut lit = [0usize; 4];
        for a in syndrome.iter_set() {
            let site = &self.sites[a];
            let mut lit_n = 0;
            for &(n, q) in &site.neighbors {
                if syndrome.get(n) {
                    lit[lit_n] = q;
                    lit_n += 1;
                }
            }
            let lit = &lit[..lit_n];
            if lit.len() % 2 == 1 {
                // Odd parity: each lit neighbor pair fixes its shared qubit.
                flips.extend_from_slice(lit);
            } else if lit.is_empty() {
                match site.private_qubit {
                    // Boundary special case: a lone lit ancilla with a
                    // private qubit is explained by one boundary error.
                    Some(q) => flips.push(q),
                    None => return CliqueDecision::Complex,
                }
            } else {
                // Even, non-zero parity: a chain passes through here.
                return CliqueDecision::Complex;
            }
        }
        // Adjacent cliques may both indicate the same data qubit (the
        // paper's "it does not matter which clique(s) is/are triggering
        // it"): the flips are OR-combined, not parity-combined.
        flips.sort_unstable();
        flips.dedup();
        CliqueDecision::Trivial(Correction::from_flips(flips))
    }

    /// Best-effort **emergency** correction for a syndrome Clique
    /// declared [`CliqueDecision::Complex`] — the graceful-degradation
    /// fallback the machine tier applies when the off-chip link fails a
    /// decode (retries exhausted or deadline blown).
    ///
    /// One greedy ascending pass over the lit ancillas: each still-lit
    /// clique pairs with its first still-lit neighbor (flipping the
    /// shared data qubit), falls back to its private boundary qubit, or
    /// — for a lone interior defect — flips the qubit shared with its
    /// first neighbor, pushing the defect one step so later rounds can
    /// resolve it. Unlike [`CliqueDecoder::decode`] this never refuses:
    /// it always returns *a* correction. It may leave residual
    /// syndrome; the sticky filter re-escalates whatever survives once
    /// the link recovers, so degradation trades a possible logical
    /// error for guaranteed forward progress — never a permanent stall.
    ///
    /// Deterministic: a pure function of the syndrome and the code
    /// geometry.
    ///
    /// # Panics
    ///
    /// Panics if `syndrome.len()` does not match the number of cliques.
    #[must_use]
    pub fn emergency_correction(&self, syndrome: &Syndrome) -> Correction {
        assert_eq!(syndrome.len(), self.sites.len(), "syndrome width mismatch");
        let mut lit: Vec<bool> = (0..self.sites.len()).map(|a| syndrome.get(a)).collect();
        let mut flips = Vec::new();
        for a in 0..self.sites.len() {
            if !lit[a] {
                continue;
            }
            let site = &self.sites[a];
            if let Some(&(n, q)) = site.neighbors.iter().find(|&&(n, _)| lit[n]) {
                // Pair with the first lit neighbor: one shared-qubit
                // flip explains both defects.
                flips.push(q);
                lit[a] = false;
                lit[n] = false;
            } else if let Some(q) = site.private_qubit {
                // Boundary: a single private-qubit flip explains it.
                flips.push(q);
                lit[a] = false;
            } else if let Some(&(n, q)) =
                site.neighbors.iter().find(|&&(n, _)| n > a).or_else(|| site.neighbors.first())
            {
                // Lone interior defect: push it onto a neighbor —
                // preferably one not yet visited, so this same pass can
                // absorb it further along (pair it, or drain it through
                // a boundary). Whatever survives relights and the sticky
                // filter re-escalates next cycle.
                flips.push(q);
                lit[a] = false;
                lit[n] = !lit[n];
            }
        }
        // Cancel by parity: a qubit pushed onto and later pushed back is
        // toggled twice, i.e. not flipped at all. Plain dedup would turn
        // that even count into a real flip and desync the correction
        // from the bookkeeping above.
        flips.sort_unstable();
        let mut net = Vec::with_capacity(flips.len());
        let mut i = 0;
        while i < flips.len() {
            let q = flips[i];
            let run = flips[i..].iter().take_while(|&&x| x == q).count();
            if run % 2 == 1 {
                net.push(q);
            }
            i += run;
        }
        Correction::from_flips(net)
    }

    /// The per-clique COMPLEX flag of the paper's Fig. 6 gate netlist:
    /// `active AND NOT(parity of lit neighbors) AND NOT(special-case)`.
    ///
    /// Exposed so the SFQ netlist simulator can be checked gate-for-gate
    /// against the behavioral decoder.
    ///
    /// # Panics
    ///
    /// Panics if `a` is out of range or the syndrome width mismatches.
    #[must_use]
    pub fn complex_flag(&self, a: usize, syndrome: &Syndrome) -> bool {
        assert_eq!(syndrome.len(), self.sites.len(), "syndrome width mismatch");
        let site = &self.sites[a];
        if !syndrome.get(a) {
            return false;
        }
        let lit = site.neighbors.iter().filter(|&&(n, _)| syndrome.get(n)).count();
        if lit % 2 == 1 {
            return false;
        }
        !(lit == 0 && site.private_qubit.is_some())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use btwc_lattice::DataQubit;
    use btwc_noise::{NoiseModel, PhenomenologicalNoise, SimRng};
    use btwc_syndrome::PackedBits;

    fn decode_errors(code: &SurfaceCode, errors: &[bool]) -> CliqueDecision {
        let decoder = CliqueDecoder::new(code, StabilizerType::X);
        let syndrome = PackedBits::from_bools(&code.syndrome_of(StabilizerType::X, errors));
        decoder.decode(&syndrome)
    }

    #[test]
    fn all_zero_syndrome_is_all_zeros() {
        let code = SurfaceCode::new(5);
        let errors = vec![false; code.num_data_qubits()];
        assert_eq!(decode_errors(&code, &errors), CliqueDecision::AllZeros);
    }

    #[test]
    fn every_single_data_error_is_corrected_equivalently() {
        // Fig. 8a generalized: every possible isolated data error must be
        // decoded on-chip with a correction equivalent to the true error.
        for d in [3u16, 5, 7] {
            let code = SurfaceCode::new(d);
            for q in 0..code.num_data_qubits() {
                let mut errors = vec![false; code.num_data_qubits()];
                errors[q] = true;
                match decode_errors(&code, &errors) {
                    CliqueDecision::Trivial(c) => {
                        let mut residual = errors.clone();
                        c.apply_to(&mut residual);
                        assert!(
                            code.syndrome_of(StabilizerType::X, &residual).iter().all(|&s| !s),
                            "d={d} q={q}: residual syndrome nonzero"
                        );
                        assert!(
                            !code.is_logical_error(StabilizerType::X, &residual),
                            "d={d} q={q}: correction introduced a logical error"
                        );
                    }
                    other => panic!("d={d} q={q}: expected trivial, got {other:?}"),
                }
            }
        }
    }

    #[test]
    fn isolated_error_pair_is_trivial() {
        let code = SurfaceCode::new(7);
        let mut errors = vec![false; code.num_data_qubits()];
        errors[DataQubit::new(1, 1).index(7)] = true;
        errors[DataQubit::new(5, 5).index(7)] = true;
        let decision = decode_errors(&code, &errors);
        let c = decision.correction().expect("trivial decode");
        let mut residual = errors.clone();
        c.apply_to(&mut residual);
        assert!(code.syndrome_of(StabilizerType::X, &residual).iter().all(|&s| !s));
        assert!(!code.is_logical_error(StabilizerType::X, &residual));
    }

    #[test]
    fn chain_of_two_interior_errors_is_complex_or_equivalent() {
        // Fig. 8c flavor: a short chain leaves two standalone defects at
        // distance 2; in the interior Clique must flag complex.
        let code = SurfaceCode::new(7);
        let mut errors = vec![false; code.num_data_qubits()];
        errors[DataQubit::new(3, 3).index(7)] = true;
        errors[DataQubit::new(4, 3).index(7)] = true;
        assert_eq!(decode_errors(&code, &errors), CliqueDecision::Complex);
    }

    #[test]
    fn long_chain_is_complex() {
        // Fig. 8c exactly: a chain of 4 data errors in one column.
        let code = SurfaceCode::new(9);
        let mut errors = vec![false; code.num_data_qubits()];
        for row in 2..6u16 {
            errors[DataQubit::new(row, 4).index(9)] = true;
        }
        assert_eq!(decode_errors(&code, &errors), CliqueDecision::Complex);
    }

    #[test]
    fn lone_interior_defect_is_complex() {
        // Fig. 8d: a sticky measurement error shows up as a single lit
        // interior ancilla — no data-error explanation, must go off-chip.
        let code = SurfaceCode::new(7);
        let decoder = CliqueDecoder::new(&code, StabilizerType::X);
        let graph = code.detector_graph(StabilizerType::X);
        // Find an interior ancilla (no private qubit).
        let a = (0..graph.num_nodes())
            .find(|&a| graph.private_qubits(a).is_empty())
            .expect("interior ancilla exists");
        let mut syndrome = Syndrome::new(decoder.num_cliques());
        syndrome.set(a, true);
        assert_eq!(decoder.decode(&syndrome), CliqueDecision::Complex);
    }

    #[test]
    fn lone_boundary_defect_uses_private_qubit() {
        // The Fig. 5 special case: a lit ancilla owning a boundary qubit
        // decodes trivially even with zero neighborhood parity.
        let code = SurfaceCode::new(5);
        let decoder = CliqueDecoder::new(&code, StabilizerType::X);
        let graph = code.detector_graph(StabilizerType::X);
        let a = (0..graph.num_nodes())
            .find(|&a| !graph.private_qubits(a).is_empty())
            .expect("boundary ancilla exists");
        let mut syndrome = Syndrome::new(decoder.num_cliques());
        syndrome.set(a, true);
        match decoder.decode(&syndrome) {
            CliqueDecision::Trivial(c) => {
                assert_eq!(c.weight(), 1);
                let mut residual = vec![false; code.num_data_qubits()];
                c.apply_to(&mut residual);
                let s = code.syndrome_of(StabilizerType::X, &residual);
                assert!(s[a], "correction must explain the lit ancilla");
                assert_eq!(s.iter().filter(|&&b| b).count(), 1);
            }
            other => panic!("expected trivial, got {other:?}"),
        }
    }

    #[test]
    fn complex_flag_matches_decode() {
        // The gate-level per-clique flag ORed over cliques must agree
        // with the behavioral decision on random syndromes.
        let code = SurfaceCode::new(7);
        let decoder = CliqueDecoder::new(&code, StabilizerType::X);
        let n = decoder.num_cliques();
        let mut rng = SimRng::from_seed(99);
        for _ in 0..2000 {
            let bits: Vec<bool> = (0..n).map(|_| rng.bernoulli(0.1)).collect();
            let syndrome = PackedBits::from_bools(&bits);
            let flag_any = (0..n).any(|a| decoder.complex_flag(a, &syndrome));
            let is_complex = matches!(decoder.decode(&syndrome), CliqueDecision::Complex);
            assert_eq!(flag_any, is_complex);
        }
    }

    #[test]
    fn trivial_decisions_on_sparse_data_noise_are_sound() {
        // Property: whenever Clique declares a pure-data-error cycle
        // trivial, its correction must exactly cancel the syndrome and
        // must not introduce a logical error (for sub-distance weights).
        let code = SurfaceCode::new(9);
        let noise = PhenomenologicalNoise::new(5e-3, 0.0);
        let mut rng = SimRng::from_seed(1234);
        let mut trivial_seen = 0;
        for _ in 0..20_000 {
            let mut errors = vec![false; code.num_data_qubits()];
            noise.sample_data_into(&mut rng, &mut errors);
            let weight = errors.iter().filter(|&&e| e).count();
            if weight == 0 || weight >= 4 {
                continue;
            }
            if let CliqueDecision::Trivial(c) = decode_errors(&code, &errors) {
                trivial_seen += 1;
                let mut residual = errors.clone();
                c.apply_to(&mut residual);
                assert!(
                    code.syndrome_of(StabilizerType::X, &residual).iter().all(|&s| !s),
                    "residual syndrome nonzero for {errors:?}"
                );
                assert!(!code.is_logical_error(StabilizerType::X, &residual));
            }
        }
        assert!(trivial_seen > 100, "test exercised {trivial_seen} trivial decodes");
    }

    #[test]
    fn emergency_correction_never_grows_the_syndrome() {
        // Best-effort guarantee on real data-error syndromes: applying
        // the emergency flips never increases the syndrome weight —
        // degradation makes forward progress (or at worst marks time),
        // it does not compound the damage.
        let code = SurfaceCode::new(7);
        let ty = StabilizerType::X;
        let decoder = CliqueDecoder::new(&code, ty);
        let noise = PhenomenologicalNoise::new(2e-2, 0.0);
        let mut rng = SimRng::from_seed(0xE13);
        let mut complex_seen = 0;
        for _ in 0..2000 {
            let mut errors = vec![false; code.num_data_qubits()];
            noise.sample_data_into(&mut rng, &mut errors);
            let syndrome = PackedBits::from_bools(&code.syndrome_of(ty, &errors));
            if !matches!(decoder.decode(&syndrome), CliqueDecision::Complex) {
                continue;
            }
            complex_seen += 1;
            let before = syndrome.iter_set().count();
            let c = decoder.emergency_correction(&syndrome);
            assert!(c.weight() > 0, "complex syndromes must produce flips");
            let mut residual = errors;
            c.apply_to(&mut residual);
            let after = code.syndrome_of(ty, &residual).iter().filter(|&&s| s).count();
            assert!(after <= before, "emergency pass grew the syndrome: {before} -> {after}");
        }
        assert!(complex_seen > 50, "test exercised {complex_seen} complex syndromes");
    }

    #[test]
    fn emergency_correction_always_acts_and_is_deterministic() {
        // Random syndromes (including impossible ones): the emergency
        // path must always return some correction — non-empty whenever
        // the syndrome is lit — and identical across calls.
        let code = SurfaceCode::new(7);
        let decoder = CliqueDecoder::new(&code, StabilizerType::X);
        let n = decoder.num_cliques();
        let mut rng = SimRng::from_seed(17);
        for _ in 0..500 {
            let bits: Vec<bool> = (0..n).map(|_| rng.bernoulli(0.15)).collect();
            let any_lit = bits.iter().any(|&b| b);
            let syndrome = PackedBits::from_bools(&bits);
            let c = decoder.emergency_correction(&syndrome);
            assert_eq!(c, decoder.emergency_correction(&syndrome));
            assert_eq!(c.weight() > 0, any_lit, "lit syndromes must produce flips");
        }
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn decode_rejects_wrong_width() {
        let code = SurfaceCode::new(5);
        let decoder = CliqueDecoder::new(&code, StabilizerType::X);
        let _ = decoder.decode(&Syndrome::new(3));
    }
}

#![allow(clippy::needless_range_loop)]

//! Property-based tests of the round history and correction algebra,
//! plus packed-vs-reference equivalence for the word-parallel bitset
//! and the flat plane-major machine batch.

use btwc_syndrome::{BatchHistory, Correction, PackedBits, RoundHistory, SyndromeBatch};
use proptest::prelude::*;

proptest! {
    /// sticky(k) is monotone in k: accepting at depth k+1 implies
    /// accepting at depth k.
    #[test]
    fn sticky_is_monotone_in_depth(
        rounds in proptest::collection::vec(
            proptest::collection::vec(any::<bool>(), 6), 1..8),
    ) {
        let mut h = RoundHistory::new(6, 8);
        for r in &rounds {
            h.push(r);
        }
        for k in 1..7usize {
            let deep = h.sticky(k + 1);
            let shallow = h.sticky(k);
            for i in 0..6 {
                if deep.get(i) {
                    prop_assert!(shallow.get(i), "k={} ancilla={}", k, i);
                }
            }
        }
    }

    /// Detection events reconstruct the final round exactly: XOR of all
    /// events per ancilla equals the latest raw value.
    #[test]
    fn events_reconstruct_latest_round(
        rounds in proptest::collection::vec(
            proptest::collection::vec(any::<bool>(), 5), 1..8),
    ) {
        let mut h = RoundHistory::new(5, 16);
        for r in &rounds {
            h.push(r);
        }
        let mut acc = [false; 5];
        for ev in h.detection_events() {
            acc[ev.ancilla] ^= true;
        }
        let latest = h.latest().unwrap();
        for i in 0..5 {
            prop_assert_eq!(acc[i], latest.get(i));
        }
    }

    /// Correction merge is an abelian-group operation (XOR): commutative,
    /// associative, self-inverse.
    #[test]
    fn correction_merge_is_xor_group(
        a in proptest::collection::vec(0usize..30, 0..8),
        b in proptest::collection::vec(0usize..30, 0..8),
        c in proptest::collection::vec(0usize..30, 0..8),
    ) {
        let ca = Correction::from_flips(a);
        let cb = Correction::from_flips(b);
        let cc = Correction::from_flips(c);
        // commutative
        let mut ab = ca.clone();
        ab.merge(&cb);
        let mut ba = cb.clone();
        ba.merge(&ca);
        prop_assert_eq!(&ab, &ba);
        // associative
        let mut ab_c = ab.clone();
        ab_c.merge(&cc);
        let mut bc = cb.clone();
        bc.merge(&cc);
        let mut a_bc = ca.clone();
        a_bc.merge(&bc);
        prop_assert_eq!(&ab_c, &a_bc);
        // self-inverse
        let mut aa = ca.clone();
        aa.merge(&ca);
        prop_assert!(aa.is_empty());
    }

    /// Applying a correction twice is the identity on any buffer.
    #[test]
    fn apply_twice_is_identity(
        flips in proptest::collection::vec(0usize..20, 0..10),
        start in proptest::collection::vec(any::<bool>(), 20),
    ) {
        let c = Correction::from_flips(flips);
        let mut buf = start.clone();
        c.apply_to(&mut buf);
        c.apply_to(&mut buf);
        prop_assert_eq!(buf, start);
    }

    /// Syndrome XOR is an involution and weight is bounded by length.
    #[test]
    fn syndrome_algebra(bits in proptest::collection::vec(any::<bool>(), 1..40)) {
        let s = PackedBits::from_bools(&bits);
        prop_assert!(s.weight() <= s.len());
        let mut t = s.clone();
        t.xor_with(&s);
        prop_assert!(t.is_zero());
        prop_assert_eq!(s.iter_set().count(), s.weight());
    }

    /// The packed bitset agrees with the `Vec<bool>` reference on every
    /// operation, across odd lengths straddling word boundaries.
    #[test]
    fn packed_matches_bool_reference(
        len in prop_oneof![Just(1usize), Just(7), Just(63), Just(64),
                           Just(65), Just(127), Just(129), Just(200)],
        seed_a in proptest::collection::vec(any::<bool>(), 200),
        seed_b in proptest::collection::vec(any::<bool>(), 200),
    ) {
        let a_bits = &seed_a[..len];
        let b_bits = &seed_b[..len];
        let a = PackedBits::from_bools(a_bits);
        let b = PackedBits::from_bools(b_bits);
        // Round-trips.
        prop_assert_eq!(&a.to_bools()[..], a_bits);
        // Scalar queries.
        prop_assert_eq!(a.weight(), a_bits.iter().filter(|&&x| x).count());
        prop_assert_eq!(a.is_zero(), a_bits.iter().all(|&x| !x));
        for i in 0..len {
            prop_assert_eq!(a.get(i), a_bits[i]);
        }
        // iter_set equals the enumerate-filter reference.
        let set: Vec<usize> = a.iter_set().collect();
        let set_ref: Vec<usize> = a_bits
            .iter()
            .enumerate()
            .filter_map(|(i, &x)| x.then_some(i))
            .collect();
        prop_assert_eq!(set, set_ref);
        // xor / and / or match the per-bit reference.
        let mut x = a.clone();
        x.xor_with(&b);
        let mut n = a.clone();
        n.and_with(&b);
        let mut o = a.clone();
        o.or_with(&b);
        for i in 0..len {
            prop_assert_eq!(x.get(i), a_bits[i] ^ b_bits[i]);
            prop_assert_eq!(n.get(i), a_bits[i] & b_bits[i]);
            prop_assert_eq!(o.get(i), a_bits[i] | b_bits[i]);
        }
        // Fused xor_weight equals xor-then-count, both ways around.
        let xor_count = (0..len).filter(|&i| a_bits[i] ^ b_bits[i]).count();
        prop_assert_eq!(a.xor_weight(&b), xor_count);
        prop_assert_eq!(b.xor_weight(&a), xor_count);
        // xor round-trips.
        x.xor_with(&b);
        prop_assert_eq!(x, a);
    }

    /// set / toggle keep weight, tail invariants, and bit state in sync
    /// with a mutable `Vec<bool>` model.
    #[test]
    fn packed_mutation_matches_model(
        len in prop_oneof![Just(5usize), Just(64), Just(65), Just(130)],
        ops in proptest::collection::vec((0usize..130, any::<bool>(), any::<bool>()), 0..40),
    ) {
        let mut p = PackedBits::new(len);
        let mut model = vec![false; len];
        for (i, use_toggle, value) in ops {
            let i = i % len;
            if use_toggle {
                let now = p.toggle(i);
                model[i] ^= true;
                prop_assert_eq!(now, model[i]);
            } else {
                p.set(i, value);
                model[i] = value;
            }
        }
        prop_assert_eq!(p.to_bools(), model.clone());
        prop_assert_eq!(p.weight(), model.iter().filter(|&&x| x).count());
        // The tail of the last word must stay clear (whole-word ops
        // rely on it).
        if let Some(&last) = p.words().last() {
            let used = len - (p.words().len() - 1) * 64;
            if used < 64 {
                prop_assert_eq!(last >> used, 0);
            }
        }
    }

    /// The packed sticky filter and detection events equal a bit-at-a-
    /// time reference over random windows.
    #[test]
    fn history_matches_bool_reference(
        rounds in proptest::collection::vec(
            proptest::collection::vec(any::<bool>(), 67), 1..7),
    ) {
        let n = 67usize;
        let mut h = RoundHistory::new(n, 8);
        for r in &rounds {
            h.push(r);
        }
        // Sticky reference: AND of the last k rounds, per bit.
        for k in 1..=rounds.len() {
            let sticky = h.sticky(k);
            for i in 0..n {
                let expect = rounds[rounds.len() - k..].iter().all(|r| r[i]);
                prop_assert_eq!(sticky.get(i), expect, "k={} i={}", k, i);
            }
        }
        // Detection-event reference: diff against the previous round.
        let mut expect = Vec::new();
        for (t, r) in rounds.iter().enumerate() {
            for i in 0..n {
                let before = if t == 0 { false } else { rounds[t - 1][i] };
                if r[i] != before {
                    expect.push((i, t));
                }
            }
        }
        let got: Vec<(usize, usize)> = h
            .detection_events()
            .into_iter()
            .map(|e| (e.ancilla, e.round))
            .collect();
        let mut expect_sorted = expect.clone();
        expect_sorted.sort_by_key(|&(i, t)| (t, i));
        let mut got_sorted = got.clone();
        got_sorted.sort_by_key(|&(i, t)| (t, i));
        prop_assert_eq!(got_sorted, expect_sorted);
    }
}

/// The window slides by eviction: after `k` rounds fall out the front,
/// the re-based detection events (front round diffed against the
/// all-zero baseline again) must match a window freshly built from the
/// surviving rounds — across word boundaries, partial words, and quiet
/// (empty-event) prefixes.
mod slide_rebases_like_fresh {
    use super::*;

    fn check(width: usize, rounds: &[Vec<bool>], k: usize, quiet_prefix: usize) {
        let quiet = vec![false; width];
        let all: Vec<&Vec<bool>> =
            std::iter::repeat_n(&quiet, quiet_prefix).chain(rounds).collect();
        // A capacity `k` short of the trace evicts exactly `k` rounds.
        let k = k.min(all.len() - 1);
        let mut slid = RoundHistory::new(width, all.len() - k);
        for r in &all {
            slid.push(r);
        }
        let mut fresh = RoundHistory::new(width, all.len() - k);
        for r in &all[k..] {
            fresh.push(r);
        }
        assert_eq!(slid.detection_events(), fresh.detection_events());
        assert_eq!(slid.detection_event_count(), fresh.detection_event_count());
        assert_eq!(slid.len(), fresh.len());
        for t in 0..slid.len() {
            assert_eq!(slid.round(t), fresh.round(t), "round {t}");
        }
    }

    proptest! {
        /// Multi-word rounds: ancilla counts straddling the 64-bit word
        /// boundary, arbitrary slide depths.
        #[test]
        fn across_word_boundaries(
            rounds in proptest::collection::vec(
                proptest::collection::vec(any::<bool>(), 130), 1..7),
            k in 0usize..7,
        ) {
            check(130, &rounds, k, 0);
        }

        /// Partial words: widths well below one word and just past one.
        #[test]
        fn partial_words(
            rounds in proptest::collection::vec(
                proptest::collection::vec(any::<bool>(), 5), 1..8),
            k in 0usize..8,
            wide in proptest::collection::vec(
                proptest::collection::vec(any::<bool>(), 65), 1..5),
        ) {
            check(5, &rounds, k, 0);
            check(65, &wide, k, 0);
        }

        /// Empty-prefix windows: all-zero leading rounds, slides that
        /// stop inside, at, and beyond the quiet prefix.
        #[test]
        fn empty_prefix_windows(
            rounds in proptest::collection::vec(
                proptest::collection::vec(any::<bool>(), 9), 1..5),
            quiet in 1usize..4,
            k in 0usize..8,
        ) {
            check(9, &rounds, k, quiet);
        }

        /// Repeated single-round evictions traverse every boundary a
        /// long stream crosses, staying equal to fresh windows
        /// throughout.
        #[test]
        fn repeated_slides_stay_rebased(
            rounds in proptest::collection::vec(
                proptest::collection::vec(any::<bool>(), 70), 2..9),
            capacity in 1usize..4,
        ) {
            let mut h = RoundHistory::new(70, capacity);
            for (t, r) in rounds.iter().enumerate() {
                h.push(r);
                let mut fresh = RoundHistory::new(70, capacity);
                for r in &rounds[(t + 1).saturating_sub(capacity)..=t] {
                    fresh.push(r);
                }
                prop_assert_eq!(h.detection_events(), fresh.detection_events());
                prop_assert_eq!(
                    h.detection_event_count(), fresh.detection_event_count());
            }
        }
    }
}

/// Layout pin of the flat plane-major [`SyndromeBatch`]: under random
/// interleavings of every writer, every reader equals a
/// `model[qubit][ancilla]` bool matrix — at qubit counts on both sides
/// of the one-word-per-plane boundary (contiguous vs strided columns)
/// and ancilla counts on both sides of the one-word-per-round boundary.
mod flat_batch_matches_bool_model {
    use super::*;
    use std::collections::VecDeque;

    const QUBITS: [usize; 5] = [1, 63, 64, 65, 130];
    const ANCILLAS: [usize; 6] = [1, 4, 12, 60, 64, 65];
    const RING: usize = 3;

    type Model = Vec<Vec<bool>>;

    /// Word-boundary columns; writers pick among the ones in range, so
    /// a short op sequence rewrites the same column more than once.
    const COLUMNS: [usize; 8] = [0, 1, 62, 63, 64, 65, 128, 129];

    /// `((writer, bit value), column pick, ancilla, round bits)`; the
    /// ancilla is reduced modulo the width under test.
    type Op = ((u8, bool), usize, usize, Vec<bool>);

    fn op_strategy() -> impl Strategy<Value = Op> {
        (
            (0u8..6, any::<bool>()),
            0usize..COLUMNS.len(),
            0usize..65,
            proptest::collection::vec(proptest::bool::weighted(0.3), 65),
        )
    }

    fn check_reads(batch: &SyndromeBatch, model: &Model) {
        let (nq, na) = (batch.num_qubits(), batch.num_ancillas());
        // Stale output buffers must be fully overwritten.
        let mut round = PackedBits::from_bools(&vec![true; na]);
        for (q, expect) in model.iter().enumerate() {
            for (a, &bit) in expect.iter().enumerate() {
                assert_eq!(batch.get(q, a), bit, "get({q}, {a}) at {nq}x{na}");
            }
            batch.qubit_round_into(q, &mut round);
            assert_eq!(&round.to_bools(), expect, "qubit_round_into({q}) at {nq}x{na}");
        }
        let mut active = PackedBits::from_bools(&vec![true; nq]);
        batch.active_qubits_into(&mut active);
        let expect: Vec<bool> = model.iter().map(|r| r.iter().any(|&b| b)).collect();
        assert_eq!(active.to_bools(), expect, "active_qubits_into at {nq}x{na}");
        // No phantom qubit: plane padding past `num_qubits` stays zero.
        for a in 0..na {
            let plane = batch.plane_words(a);
            assert_eq!(plane.len(), nq.div_ceil(64));
            if !nq.is_multiple_of(64) {
                assert_eq!(
                    plane[plane.len() - 1] >> (nq % 64),
                    0,
                    "plane {a} padding at {nq}x{na}"
                );
            }
        }
    }

    fn check_history(history: &BatchHistory, models: &VecDeque<Model>) {
        let (nq, na) = (history.num_qubits(), history.num_ancillas());
        assert_eq!(history.len(), models.len());
        let mut sticky = SyndromeBatch::new(nq, na);
        for k in 1..=RING {
            sticky.set_qubit_round_bools(0, &vec![true; na]); // stale
            history.sticky_into(k, &mut sticky);
            let expect: Model = (0..nq)
                .map(|q| {
                    (0..na)
                        .map(|a| {
                            models.len() >= k
                                && models.iter().skip(models.len() - k).all(|m| m[q][a])
                        })
                        .collect()
                })
                .collect();
            check_reads(&sticky, &expect);
        }
        let mut window = RoundHistory::new(na, RING);
        for q in 0..nq {
            history.gather_qubit_window(q, models.len(), &mut window);
            assert_eq!(window.len(), models.len());
            for (t, m) in models.iter().enumerate() {
                assert_eq!(window.round(t).to_bools(), m[q], "window round {t} of qubit {q}");
            }
        }
    }

    fn run(nq: usize, na: usize, ops: &[Op]) {
        let mut batches = [SyndromeBatch::new(nq, na), SyndromeBatch::new(nq, na)];
        let mut models = [vec![vec![false; na]; nq], vec![vec![false; na]; nq]];
        let mut history = BatchHistory::new(nq, na, RING);
        let mut history_model: VecDeque<Model> = VecDeque::new();
        let in_range = COLUMNS.iter().filter(|&&c| c < nq).count();
        for (i, ((writer, flag), q, a, bits)) in ops.iter().enumerate() {
            let (q, a, bits) = (COLUMNS[q % in_range], a % na, &bits[..na]);
            // Writers alternate between two batches so `copy_from`
            // has an independent source.
            let target = i % 2;
            match writer {
                0 => {
                    batches[target].set(q, a, *flag);
                    models[target][q][a] = *flag;
                }
                1 => {
                    batches[target].set_qubit_round(q, &PackedBits::from_bools(bits));
                    models[target][q] = bits.to_vec();
                }
                2 => {
                    batches[target].set_qubit_round_bools(q, bits);
                    models[target][q] = bits.to_vec();
                }
                3 => {
                    // A dense column overwritten by the next writer
                    // exercises the column clear.
                    batches[target].set_qubit_round(q, &PackedBits::from_bools(&vec![true; na]));
                    models[target][q] = vec![true; na];
                }
                4 => {
                    batches[target].clear();
                    models[target] = vec![vec![false; na]; nq];
                }
                _ => {
                    let source = batches[1 - target].clone();
                    batches[target].copy_from(&source);
                    models[target] = models[1 - target].clone();
                }
            }
            check_reads(&batches[target], &models[target]);
            history.push(&batches[target]);
            history_model.push_back(models[target].clone());
            if history_model.len() > RING {
                history_model.pop_front();
            }
        }
        check_history(&history, &history_model);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        #[test]
        fn random_interleavings(ops in proptest::collection::vec(op_strategy(), 1..16)) {
            for nq in QUBITS {
                for na in ANCILLAS {
                    run(nq, na, &ops);
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "bit index 65 out of range for 65 bits")]
    fn get_rejects_out_of_range_qubit() {
        let _ = SyndromeBatch::new(65, 4).get(65, 0);
    }

    #[test]
    #[should_panic(expected = "index out of bounds")]
    fn get_rejects_out_of_range_ancilla() {
        let _ = SyndromeBatch::new(65, 4).get(0, 4);
    }

    #[test]
    #[should_panic(expected = "bit index 64 out of range for 64 bits")]
    fn set_rejects_out_of_range_qubit() {
        SyndromeBatch::new(64, 4).set(64, 0, true);
    }

    #[test]
    #[should_panic(expected = "index out of bounds")]
    fn set_rejects_out_of_range_ancilla() {
        SyndromeBatch::new(130, 4).set(129, 4, true);
    }

    #[test]
    #[should_panic(expected = "bit index 1 out of range for 1 bits")]
    fn scatter_rejects_out_of_range_qubit() {
        SyndromeBatch::new(1, 4).set_qubit_round(1, &PackedBits::new(4));
    }

    #[test]
    #[should_panic(expected = "bit index 130 out of range for 130 bits")]
    fn bool_scatter_rejects_out_of_range_qubit() {
        SyndromeBatch::new(130, 4).set_qubit_round_bools(130, &[false; 4]);
    }

    #[test]
    #[should_panic(expected = "qubit 63 out of range")]
    fn gather_rejects_out_of_range_qubit() {
        SyndromeBatch::new(63, 4).qubit_round_into(63, &mut PackedBits::new(4));
    }
}

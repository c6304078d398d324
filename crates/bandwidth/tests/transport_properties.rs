//! Property coverage of the wire framing: lossless round-trips over
//! random round counts/widths, rejection of every malformed frame
//! class ([`ParseFrameError`]: truncated header, corrupt header,
//! truncated payload), and a byte-for-byte pin of the v2 wire format
//! at round widths on byte and word boundaries.

use btwc_bandwidth::{
    crc32, DecodeRequest, ParseFrameError, SeqStatus, SequenceTracker, FRAME_V2_HEADER,
    FRAME_V2_TRAILER,
};
use btwc_syndrome::RoundHistory;
use proptest::prelude::*;

/// Round widths around the byte (8) and word (64) boundaries of the
/// packed rows the request path carries.
const BOUNDARY_WIDTHS: [usize; 9] = [1, 7, 8, 9, 12, 60, 64, 65, 84];

fn request_strategy() -> impl Strategy<Value = DecodeRequest> {
    (1usize..10, 1usize..300usize, 0u32..1000, 0u64..1_000_000).prop_flat_map(
        |(rounds, width, qubit, cycle)| {
            proptest::collection::vec(proptest::collection::vec(any::<bool>(), width), rounds)
                .prop_map(move |rs| DecodeRequest::new(qubit, cycle, rs))
        },
    )
}

fn request_v2_strategy() -> impl Strategy<Value = DecodeRequest> {
    (request_strategy(), any::<u32>()).prop_map(|(req, seq)| req.with_seq(seq))
}

fn boundary_request_strategy() -> impl Strategy<Value = DecodeRequest> {
    (1usize..6, 0usize..BOUNDARY_WIDTHS.len(), any::<u32>(), any::<u32>()).prop_flat_map(
        |(rounds, width, qubit, seq)| {
            let row = proptest::collection::vec(any::<bool>(), BOUNDARY_WIDTHS[width]);
            proptest::collection::vec(row, rounds).prop_map(move |rs| {
                DecodeRequest::new(qubit, u64::from(seq) << 7, rs).with_seq(seq)
            })
        },
    )
}

proptest! {
    /// Encode → decode is the identity for any round count and width
    /// (including widths crossing byte and word boundaries).
    #[test]
    fn roundtrip_is_lossless(req in request_strategy()) {
        let frame = req.encode_v2();
        prop_assert_eq!(frame.len(), req.frame_len_v2());
        let back = DecodeRequest::decode_v2(&frame).expect("well-formed frame parses");
        prop_assert_eq!(back, req);
    }

    /// The closed-form frame length used for transport accounting
    /// (24-byte header + rounds × ceil(width/8) payload + 4-byte CRC)
    /// matches the bytes actually serialized, so the machine tier's
    /// frame-byte meter (`MachineStats::frame_bytes`,
    /// `machine.frame_bytes` telemetry) is exact for any round count
    /// and width — summing `frame_len_v2()` over a burst of escalations
    /// equals the total wire bytes shipped.
    #[test]
    fn frame_byte_accounting_matches_serialization(
        reqs in proptest::collection::vec(request_strategy(), 1..8)
    ) {
        let mut metered = 0usize;
        let mut shipped = 0usize;
        for req in &reqs {
            let frame = req.encode_v2();
            let payload = req.rounds.len() * req.bits_per_round().div_ceil(8);
            prop_assert_eq!(frame.len(), FRAME_V2_HEADER + payload + FRAME_V2_TRAILER);
            prop_assert_eq!(req.frame_len_v2(), frame.len());
            metered += req.frame_len_v2();
            shipped += frame.len();
        }
        prop_assert_eq!(metered, shipped);
    }

    /// Every strict prefix of the header is rejected as truncated; a
    /// complete header with a short payload or trailer is rejected with
    /// the exact byte accounting.
    #[test]
    fn every_truncation_is_rejected(req in request_strategy(), cut_seed in 0usize..10_000) {
        let frame = req.encode_v2();
        let cut = cut_seed % frame.len();
        match DecodeRequest::decode_v2(&frame[..cut]) {
            Err(ParseFrameError::TruncatedHeader) => prop_assert!(cut < FRAME_V2_HEADER),
            Err(ParseFrameError::TruncatedPayload { expected, actual }) => {
                prop_assert!(cut >= FRAME_V2_HEADER);
                prop_assert_eq!(actual, cut - FRAME_V2_HEADER);
                prop_assert_eq!(
                    expected,
                    req.rounds.len() * req.bits_per_round().div_ceil(8) + FRAME_V2_TRAILER
                );
            }
            other => prop_assert!(false, "cut {cut} parsed as {other:?}"),
        }
    }

    /// A header declaring zero rounds or zero bits per round can never
    /// come from a valid encoder ([`DecodeRequest::new`] rejects both)
    /// and must be flagged corrupt, not silently parsed into an empty
    /// request.
    #[test]
    fn corrupt_header_is_rejected(req in request_strategy(), zero_width in any::<bool>()) {
        let mut frame = req.encode_v2().to_vec();
        // Rounds live at bytes 20..22, width at 22..24 (big endian).
        let field = if zero_width { 22 } else { 20 };
        frame[field] = 0;
        frame[field + 1] = 0;
        match DecodeRequest::decode_v2(&frame) {
            Err(ParseFrameError::CorruptHeader { reason }) => {
                prop_assert!(reason.contains(if zero_width { "bits per round" } else { "rounds" }));
            }
            other => prop_assert!(false, "corrupt header parsed as {other:?}"),
        }
    }

    /// v2 encode → decode is the identity, including the sequence
    /// number.
    #[test]
    fn v2_roundtrip_is_lossless(req in request_v2_strategy()) {
        let frame = req.encode_v2();
        prop_assert_eq!(frame.len(), req.frame_len_v2());
        let strict = DecodeRequest::decode_v2(&frame).expect("well-formed v2 frame parses");
        prop_assert_eq!(strict, req);
    }

    /// The same at every byte- and word-boundary width, where a packed
    /// row's last byte or last word is partial, exactly full, or one
    /// bit into the next.
    #[test]
    fn v2_roundtrip_is_lossless_at_boundary_widths(req in boundary_request_strategy()) {
        let frame = req.encode_v2();
        prop_assert_eq!(req.frame_len_v2(), frame.len());
        prop_assert_eq!(DecodeRequest::decode_v2(&frame).expect("well-formed v2 frame"), req);
    }

    /// **Every** single-bit flip of a v2 frame is detected: the CRC
    /// covers header and payload, so no one-bit corruption — magic,
    /// version, shape fields, sequence number, payload, or the CRC
    /// itself — can parse back as a valid request. This is exhaustive
    /// over all bit positions of each generated frame, not sampled.
    #[test]
    fn every_single_bit_flip_is_detected(req in request_v2_strategy()) {
        let frame = req.encode_v2().to_vec();
        let mut flipped = frame.clone();
        for bit in 0..frame.len() * 8 {
            flipped[bit / 8] ^= 1 << (bit % 8);
            prop_assert!(
                DecodeRequest::decode_v2(&flipped).is_err(),
                "bit {bit} flipped but frame still parsed"
            );
            flipped[bit / 8] ^= 1 << (bit % 8);
        }
        prop_assert_eq!(&flipped, &frame);
    }

    /// The sequence tracker tells a retransmitted duplicate from the
    /// next fresh request for any starting sequence number (across the
    /// `u32` wraparound too) and any duplication count, and flags any gap
    /// without advancing.
    #[test]
    fn sequence_tracker_classifies_duplicates_and_gaps(
        start in any::<u32>(),
        dups in 0usize..4,
        gap in 2u32..32,
    ) {
        let mut tracker = SequenceTracker::new();
        tracker.resync(start);
        prop_assert_eq!(tracker.accept(start), Ok(SeqStatus::Fresh));
        // A retransmission storm of the same frame: every extra copy is
        // a duplicate, and the tracker keeps expecting the successor.
        for _ in 0..dups {
            prop_assert_eq!(tracker.accept(start), Ok(SeqStatus::Duplicate));
        }
        let next = start.wrapping_add(1);
        prop_assert_eq!(tracker.expected(), next);
        // A reordered (future) frame is a gap: flagged, not accepted.
        let future = start.wrapping_add(gap);
        prop_assert_eq!(
            tracker.accept(future),
            Err(ParseFrameError::SequenceGap { expected: next, got: future })
        );
        prop_assert_eq!(tracker.expected(), next, "a gap must not advance the tracker");
        // The in-order successor is still fresh after all of the above.
        prop_assert_eq!(tracker.accept(next), Ok(SeqStatus::Fresh));
    }
}

#[test]
fn corrupt_header_error_messages_are_informative() {
    let req = DecodeRequest::new(1, 2, vec![vec![true, false, true]]);
    let mut zero_rounds = req.encode_v2().to_vec();
    zero_rounds[20] = 0;
    zero_rounds[21] = 0;
    let err = DecodeRequest::decode_v2(&zero_rounds).unwrap_err();
    assert_eq!(err.to_string(), "frame header corrupt: zero rounds declared");
    let mut zero_width = req.encode_v2().to_vec();
    zero_width[22] = 0;
    zero_width[23] = 0;
    let err = DecodeRequest::decode_v2(&zero_width).unwrap_err();
    assert_eq!(err.to_string(), "frame header corrupt: zero bits per round declared");
}

/// The deterministic request behind [`GOLDEN_V2`]: three rounds of
/// `width` bits.
fn golden_rounds(width: usize) -> Vec<Vec<bool>> {
    let bit = |r: usize, i: usize| (i * 7 + r * 13 + width).is_multiple_of(5) || (i + r) % 11 == 3;
    (0..3).map(|r| (0..width).map(|i| bit(r, i)).collect()).collect()
}

fn golden_request(width: usize, rounds: Vec<Vec<bool>>) -> DecodeRequest {
    DecodeRequest::new(0x100 + width as u32, 0x0102_0304_0506_0700 + width as u64, rounds)
        .with_seq(3 * width as u32 + 1)
}

/// `encode_v2` of [`golden_request`] at each of [`BOUNDARY_WIDTHS`],
/// captured from the commit before requests carried packed rows (when
/// the payload was serialized bit by bit from `Vec<Vec<bool>>`).
const GOLDEN_V2: [&str; 9] = [
    "b7c2020000000101010203040506070100000004000300010000009fe69b8c",
    "b7c2020000000107010203040506070700000016000300071825428d19c8a0",
    "b7c2020000000108010203040506070800000019000300084a840aa2729bde",
    "b7c202000000010901020304050607090000001c0003000908011400230094b9d7c9",
    "b7c202000000010c010203040506070c000000250003000c18022504420844dbe5bc",
    "b7c202000000013c010203040506073c000000b50003003c29c4104218a1840446282185184208038610c2\
     0825a4100308937bf4",
    "b7c20200000001400102030405060740000000c1000300400861841252882184146208218c50420a239490\
     420c2184116e405111",
    "b7c20200000001410102030405060741000000c40003004129c4104218a18414004628218518420823008610\
     c20825a4104300879e8915",
    "b7c20200000001540102030405060754000000fd000300540861841252882184304209146208218c50420a31\
     8400239490420c2184114a48013deda099",
];

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

#[test]
fn v2_wire_format_is_pinned_byte_for_byte() {
    for (&width, golden) in BOUNDARY_WIDTHS.iter().zip(GOLDEN_V2) {
        let rounds = golden_rounds(width);
        let req = golden_request(width, rounds.clone());
        let frame = req.encode_v2();
        assert_eq!(hex(&frame), golden, "width {width}");
        assert_eq!(req.frame_len_v2(), frame.len(), "width {width}");
        let back = DecodeRequest::decode_v2(&frame).expect("golden frame parses");
        assert_eq!(back, req, "width {width}");
        // The machine's framing path (packed window -> request) ships
        // the same bytes as the cold bool constructor.
        let mut window = RoundHistory::new(width, rounds.len());
        for r in &rounds {
            window.push(r);
        }
        let framed = DecodeRequest::from_history(req.qubit, req.cycle, &window).with_seq(req.seq);
        assert_eq!(hex(&framed.encode_v2()), golden, "width {width} via from_history");
    }
}

/// A CRC-valid v2 frame whose lane padding bits are set (no encoder of
/// ours emits one, a hostile or buggy sender can) must decode to rows
/// equal to the canonical ones: the "tail bits are zero" invariant that
/// every packed word operation relies on survives the parse.
#[test]
fn v2_padding_bits_are_ignored_on_receive() {
    for width in BOUNDARY_WIDTHS {
        let rounds = golden_rounds(width);
        let req = golden_request(width, rounds.clone());
        let mut frame = req.encode_v2().to_vec();
        let stride = width.div_ceil(8);
        let body = frame.len() - FRAME_V2_TRAILER;
        if !width.is_multiple_of(8) {
            for lane in 0..rounds.len() {
                frame[FRAME_V2_HEADER + (lane + 1) * stride - 1] |= 0xFFu8 << (width % 8);
            }
        }
        let crc = crc32(&frame[..body]);
        frame[body..].copy_from_slice(&crc.to_be_bytes());
        let got = DecodeRequest::decode_v2(&frame).expect("CRC-valid frame parses");
        assert_eq!(got, req, "width {width}");
        // Re-encoding emits the canonical frame, padding cleared.
        assert_eq!(got.encode_v2(), req.encode_v2(), "width {width}");
    }
}

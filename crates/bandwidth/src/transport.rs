//! Wire framing for off-chip decode requests.
//!
//! When a Clique plane raises COMPLEX, the qubit's syndrome window must
//! actually cross the refrigerator boundary. This module defines the
//! byte-level frame a BTWC machine ships per request — the quantity the
//! provisioned link's Gbps budget ([`crate::IoModel`]) is spent on —
//! with encode/decode round-trip guarantees.
//!
//! The frame (format **v2**, big endian) carries a magic and version
//! for self-description, a per-qubit sequence number for
//! duplicate/reorder detection, and a trailing CRC-32 over everything
//! before it, so *any* single-bit corruption of header or payload is
//! caught ([`ParseFrameError::ChecksumMismatch`] or a structural
//! error), never silently decoded into a wrong request:
//!
//! ```text
//! [magic: u16 = 0xB7C2][version: u8 = 2][reserved: u8]
//! [qubit: u32][cycle: u64][seq: u32][rounds: u16][bits_per_round: u16]
//! [payload…][crc32: u32]
//! ```
//!
//! The payload packs each round's syndrome bits LSB-first, padded to a
//! whole byte per round (hardware serializers work in byte lanes).
//! That lane is exactly the little-endian byte image of a
//! [`PackedBits`] row, so a request carries its rounds word-packed end
//! to end: [`DecodeRequest::from_history`] copies words out of the
//! window, encoding and parsing move whole words
//! ([`PackedBits::extend_le_bytes`] / [`PackedBits::from_le_bytes`],
//! which masks padding bits a hostile sender may have set), and
//! [`DecodeRequest::replay_into`] pushes the rows back packed — no
//! bool ⇄ word round trip anywhere on the escalation path.

use btwc_syndrome::{PackedBits, RoundHistory};
use bytes::{Buf, BufMut, Bytes};

/// First two bytes of every v2 frame.
pub const FRAME_MAGIC: u16 = 0xB7C2;
/// Version byte of the CRC-protected frame format.
pub const FRAME_VERSION_V2: u8 = 2;
/// Fixed v2 header size (magic through bits-per-round), in bytes.
pub const FRAME_V2_HEADER: usize = 24;
/// CRC-32 trailer size, in bytes.
pub const FRAME_V2_TRAILER: usize = 4;

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) lookup table,
/// built at compile time so the workspace stays dependency-free.
const CRC32_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0usize;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
};

/// CRC-32 (IEEE) of `data` — the checksum the v2 frame trailer carries.
/// Detects every single-bit error and all burst errors up to 32 bits.
#[must_use]
pub fn crc32(data: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in data {
        c = CRC32_TABLE[((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

/// One off-chip decode request: a window of raw syndrome rounds from
/// one logical qubit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeRequest {
    /// Logical qubit id.
    pub qubit: u32,
    /// Machine cycle at which the request was raised.
    pub cycle: u64,
    /// Per-qubit sequence number. Retransmissions of the same request
    /// reuse the same number, so the receiver can tell a duplicate from
    /// the next request.
    pub seq: u32,
    /// Raw syndrome rounds, oldest first; word-packed, all the same
    /// width.
    pub rounds: Vec<PackedBits>,
}

/// Errors produced when parsing a frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseFrameError {
    /// The buffer ended before the fixed header was complete.
    TruncatedHeader,
    /// The header is structurally impossible: no well-formed encoder
    /// emits it (the invariants [`DecodeRequest::new`] enforces —
    /// at least one round, at least one bit per round — plus
    /// magic/version/length consistency).
    CorruptHeader {
        /// What the header declares that no valid frame can.
        reason: &'static str,
    },
    /// The buffer ended before the declared payload was complete.
    TruncatedPayload {
        /// Bytes expected from the header.
        expected: usize,
        /// Bytes actually available.
        actual: usize,
    },
    /// The v2 CRC-32 trailer does not match the received bytes: the
    /// frame was corrupted in flight.
    ChecksumMismatch {
        /// Checksum recomputed over the received bytes.
        computed: u32,
        /// Checksum the frame trailer carries.
        received: u32,
    },
    /// A sequence number from the future: frames between `expected`
    /// and `got` were lost (see [`SequenceTracker`]).
    SequenceGap {
        /// The next sequence number the receiver was expecting.
        expected: u32,
        /// The sequence number that actually arrived.
        got: u32,
    },
}

impl std::fmt::Display for ParseFrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseFrameError::TruncatedHeader => write!(f, "frame header truncated"),
            ParseFrameError::CorruptHeader { reason } => {
                write!(f, "frame header corrupt: {reason}")
            }
            ParseFrameError::TruncatedPayload { expected, actual } => {
                write!(f, "frame payload truncated: expected {expected} bytes, got {actual}")
            }
            ParseFrameError::ChecksumMismatch { computed, received } => {
                write!(
                    f,
                    "frame checksum mismatch: computed {computed:#010x}, received {received:#010x}"
                )
            }
            ParseFrameError::SequenceGap { expected, got } => {
                write!(f, "sequence gap: expected {expected}, got {got}")
            }
        }
    }
}

impl std::error::Error for ParseFrameError {}

impl DecodeRequest {
    /// Builds a request from a window of bool rounds (sequence number
    /// 0; see [`DecodeRequest::with_seq`]) — the cold constructor for
    /// tests and tools; the machine tier frames packed windows with
    /// [`DecodeRequest::from_history`].
    ///
    /// # Panics
    ///
    /// Panics if `rounds` is empty, rounds are empty or have differing
    /// widths, or a round is wider than `u16::MAX` bits.
    #[must_use]
    pub fn new(qubit: u32, cycle: u64, rounds: Vec<Vec<bool>>) -> Self {
        Self::from_packed(qubit, cycle, rounds.iter().map(|r| PackedBits::from_bools(r)).collect())
    }

    /// Checks the frame-format invariants on already-packed rounds.
    fn from_packed(qubit: u32, cycle: u64, rounds: Vec<PackedBits>) -> Self {
        assert!(!rounds.is_empty(), "a decode request needs at least one round");
        let width = rounds[0].len();
        assert!(width >= 1, "a decode request needs at least one bit per round");
        assert!(width <= usize::from(u16::MAX), "round too wide for the frame format");
        assert!(rounds.iter().all(|r| r.len() == width), "all rounds must have equal width");
        Self { qubit, cycle, seq: 0, rounds }
    }

    /// Sets the per-qubit sequence number carried by v2 frames.
    #[must_use]
    pub fn with_seq(mut self, seq: u32) -> Self {
        self.seq = seq;
        self
    }

    /// Frames a decode window straight off a packed [`RoundHistory`]
    /// (a word copy per round) — the cryogenic-side entry point the
    /// machine tier uses when a Clique plane raises COMPLEX.
    ///
    /// # Panics
    ///
    /// Panics if `window` is empty or wider than the frame format
    /// allows (see [`DecodeRequest::new`]).
    #[must_use]
    pub fn from_history(qubit: u32, cycle: u64, window: &RoundHistory) -> Self {
        let rounds = (0..window.len()).map(|r| window.round(r).clone()).collect();
        Self::from_packed(qubit, cycle, rounds)
    }

    /// Replays the received rounds into a caller-owned window (reset
    /// first) — the room-temperature side of the link. The rebuilt
    /// window is bit-identical to the one that was framed, so the
    /// off-chip decoder's matching is unchanged by the wire trip.
    ///
    /// # Panics
    ///
    /// Panics if `window`'s width or capacity cannot hold the rounds.
    pub fn replay_into(&self, window: &mut RoundHistory) {
        assert!(self.rounds.len() <= window.capacity(), "window capacity too small for frame");
        window.reset();
        for round in &self.rounds {
            window.push_packed(round);
        }
    }

    /// Syndrome bits per round.
    #[must_use]
    pub fn bits_per_round(&self) -> usize {
        self.rounds[0].len()
    }

    /// Size of the encoded **v2** frame in bytes (24-byte header +
    /// payload + 4-byte CRC trailer).
    #[must_use]
    pub fn frame_len_v2(&self) -> usize {
        FRAME_V2_HEADER + self.rounds.len() * self.bits_per_round().div_ceil(8) + FRAME_V2_TRAILER
    }

    /// Serializes the request to its **v2** wire frame: magic, version,
    /// sequence number, payload, and a trailing CRC-32 over everything
    /// before it.
    #[must_use]
    pub fn encode_v2(&self) -> Bytes {
        let mut buf = Vec::with_capacity(self.frame_len_v2());
        buf.put_u16(FRAME_MAGIC);
        buf.put_u8(FRAME_VERSION_V2);
        buf.put_u8(0); // reserved
        buf.put_u32(self.qubit);
        buf.put_u64(self.cycle);
        buf.put_u32(self.seq);
        buf.put_u16(self.rounds.len() as u16);
        buf.put_u16(self.bits_per_round() as u16);
        // LSB-first, one byte-padded lane per round.
        for round in &self.rounds {
            round.extend_le_bytes(&mut buf);
        }
        let crc = crc32(&buf);
        buf.put_u32(crc);
        Bytes::from(buf)
    }

    /// Parses one **v2** frame from `data`, strictly: the magic,
    /// version, declared length, and CRC-32 must all check out, and the
    /// buffer must contain *exactly* one frame (no trailing bytes).
    /// Together with the CRC this guarantees any single-bit flip of
    /// header or payload is reported as an error, never silently
    /// decoded into a different request.
    ///
    /// # Errors
    ///
    /// [`ParseFrameError::TruncatedHeader`] /
    /// [`ParseFrameError::TruncatedPayload`] for short buffers,
    /// [`ParseFrameError::CorruptHeader`] for magic/version/shape
    /// violations, [`ParseFrameError::ChecksumMismatch`] when the
    /// trailer disagrees with the received bytes.
    pub fn decode_v2(data: &[u8]) -> Result<Self, ParseFrameError> {
        if data.len() < FRAME_V2_HEADER {
            return Err(ParseFrameError::TruncatedHeader);
        }
        let mut hdr = data;
        let magic = hdr.get_u16();
        if magic != FRAME_MAGIC {
            return Err(ParseFrameError::CorruptHeader { reason: "bad v2 magic" });
        }
        let version = hdr.get_u8();
        if version != FRAME_VERSION_V2 {
            return Err(ParseFrameError::CorruptHeader { reason: "unsupported frame version" });
        }
        let _reserved = hdr.get_u8();
        let qubit = hdr.get_u32();
        let cycle = hdr.get_u64();
        let seq = hdr.get_u32();
        let n_rounds = usize::from(hdr.get_u16());
        let width = usize::from(hdr.get_u16());
        if n_rounds == 0 {
            return Err(ParseFrameError::CorruptHeader { reason: "zero rounds declared" });
        }
        if width == 0 {
            return Err(ParseFrameError::CorruptHeader { reason: "zero bits per round declared" });
        }
        let stride = width.div_ceil(8);
        let expected = n_rounds * stride + FRAME_V2_TRAILER;
        let avail = data.len() - FRAME_V2_HEADER;
        if avail < expected {
            return Err(ParseFrameError::TruncatedPayload { expected, actual: avail });
        }
        if avail > expected {
            return Err(ParseFrameError::CorruptHeader { reason: "frame longer than declared" });
        }
        let body = &data[..data.len() - FRAME_V2_TRAILER];
        let computed = crc32(body);
        // The length checks above guarantee a full trailer, but the
        // no-panic contract for hostile input is kept structurally:
        // a short slice surfaces as a parse error, never an unwrap.
        let received = match data[data.len() - FRAME_V2_TRAILER..].try_into() {
            Ok(trailer) => u32::from_be_bytes(trailer),
            Err(_) => return Err(ParseFrameError::TruncatedHeader),
        };
        if computed != received {
            return Err(ParseFrameError::ChecksumMismatch { computed, received });
        }
        let rounds = unpack_rounds(&body[FRAME_V2_HEADER..], n_rounds, width);
        Ok(Self { qubit, cycle, seq, rounds })
    }
}

/// Unpacks `n_rounds` byte-padded LSB-first rounds of `width` bits
/// from the front of `data` (callers have checked it is long enough).
/// Padding bits in each lane's last byte are ignored.
fn unpack_rounds(data: &[u8], n_rounds: usize, width: usize) -> Vec<PackedBits> {
    let stride = width.div_ceil(8);
    data.chunks_exact(stride)
        .take(n_rounds)
        .map(|lane| PackedBits::from_le_bytes(width, lane))
        .collect()
}

/// What a received sequence number means relative to the stream so far.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SeqStatus {
    /// The next expected number: a fresh request (tracker advanced).
    Fresh,
    /// A number behind the expected one: a duplicated or late
    /// (reordered) delivery — safe to discard.
    Duplicate,
}

/// Receiver-side per-stream sequence bookkeeping: classifies each
/// arriving v2 sequence number as fresh, duplicate, or a gap (lost
/// frames). One tracker per logical qubit on the room-temperature side.
#[derive(Debug, Clone, Default)]
pub struct SequenceTracker {
    next: u32,
}

impl SequenceTracker {
    /// A tracker expecting sequence number 0 first.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The next sequence number this tracker will accept as fresh.
    #[must_use]
    pub fn expected(&self) -> u32 {
        self.next
    }

    /// Classifies `seq`: the expected number advances the tracker and
    /// is [`SeqStatus::Fresh`]; anything older is a
    /// [`SeqStatus::Duplicate`].
    ///
    /// Sequence numbers wrap, so "older" is serial-number arithmetic:
    /// `seq` is behind the expected number when `seq − expected`
    /// (mod 2³²) lies in the upper half of the space.
    ///
    /// # Errors
    ///
    /// [`ParseFrameError::SequenceGap`] if `seq` is from the future —
    /// the frames in between were lost. The tracker does *not* advance;
    /// the caller decides whether to [`SequenceTracker::resync`].
    pub fn accept(&mut self, seq: u32) -> Result<SeqStatus, ParseFrameError> {
        match seq.wrapping_sub(self.next) {
            0 => {
                self.next = self.next.wrapping_add(1);
                Ok(SeqStatus::Fresh)
            }
            ahead if ahead > u32::MAX / 2 => Ok(SeqStatus::Duplicate),
            _ => Err(ParseFrameError::SequenceGap { expected: self.next, got: seq }),
        }
    }

    /// Forces the tracker past lost frames: the next expected number
    /// becomes `next`.
    pub fn resync(&mut self, next: u32) {
        self.next = next;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> DecodeRequest {
        DecodeRequest::new(
            7,
            123_456,
            vec![
                vec![true, false, true, false, false, true, false, true, true],
                vec![false; 9],
                vec![true; 9],
            ],
        )
    }

    #[test]
    fn roundtrip_preserves_everything() {
        // The cold constructor's default sequence number (0).
        let req = sample();
        let frame = req.encode_v2();
        assert_eq!(frame.len(), req.frame_len_v2());
        assert_eq!(DecodeRequest::decode_v2(&frame).unwrap(), req);
    }

    #[test]
    fn v2_roundtrip_preserves_everything_including_seq() {
        let req = sample().with_seq(41);
        let frame = req.encode_v2();
        assert_eq!(frame.len(), req.frame_len_v2());
        let strict = DecodeRequest::decode_v2(&frame).unwrap();
        assert_eq!(strict, req);
    }

    #[test]
    fn crc32_matches_known_vector() {
        // The canonical IEEE check value: CRC32("123456789").
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn frame_len_matches_io_model_accounting() {
        // 9 bits/round -> 2 bytes/round; 3 rounds + 24-byte header
        // + 4-byte CRC.
        assert_eq!(sample().frame_len_v2(), 24 + 3 * 2 + 4);
    }

    #[test]
    fn truncated_header_is_rejected() {
        let v2 = sample().encode_v2();
        assert_eq!(DecodeRequest::decode_v2(&v2[..20]), Err(ParseFrameError::TruncatedHeader));
    }

    #[test]
    fn truncated_payload_is_rejected() {
        let frame = sample().encode_v2();
        let cut = frame.len() - 3;
        match DecodeRequest::decode_v2(&frame[..cut]) {
            Err(ParseFrameError::TruncatedPayload { expected, actual }) => {
                // Payload and trailer are counted together.
                assert_eq!(expected, 6 + FRAME_V2_TRAILER);
                assert_eq!(actual, 3 + FRAME_V2_TRAILER);
            }
            other => panic!("expected truncated payload, got {other:?}"),
        }
    }

    #[test]
    fn v2_flipped_bit_fails_checksum() {
        let frame = sample().with_seq(3).encode_v2();
        // Flip one payload bit.
        let mut bad = frame.to_vec();
        bad[FRAME_V2_HEADER] ^= 0x10;
        assert!(matches!(
            DecodeRequest::decode_v2(&bad),
            Err(ParseFrameError::ChecksumMismatch { .. })
        ));
        // Flip one bit of the seq field.
        let mut bad = frame.to_vec();
        bad[16] ^= 0x01;
        assert!(matches!(
            DecodeRequest::decode_v2(&bad),
            Err(ParseFrameError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn v2_trailing_bytes_are_rejected() {
        let mut frame = sample().encode_v2().to_vec();
        frame.push(0xAA);
        assert_eq!(
            DecodeRequest::decode_v2(&frame),
            Err(ParseFrameError::CorruptHeader { reason: "frame longer than declared" })
        );
    }

    #[test]
    fn v2_bad_magic_and_version_are_rejected() {
        let frame = sample().encode_v2().to_vec();
        let mut bad = frame.clone();
        bad[0] = 0x00;
        assert_eq!(
            DecodeRequest::decode_v2(&bad),
            Err(ParseFrameError::CorruptHeader { reason: "bad v2 magic" })
        );
        let mut bad = frame;
        bad[2] = 9;
        assert_eq!(
            DecodeRequest::decode_v2(&bad),
            Err(ParseFrameError::CorruptHeader { reason: "unsupported frame version" })
        );
    }

    #[test]
    fn sequence_tracker_classifies_fresh_duplicate_gap() {
        let mut tr = SequenceTracker::new();
        assert_eq!(tr.accept(0), Ok(SeqStatus::Fresh));
        assert_eq!(tr.accept(0), Ok(SeqStatus::Duplicate));
        assert_eq!(tr.accept(1), Ok(SeqStatus::Fresh));
        assert_eq!(tr.accept(0), Ok(SeqStatus::Duplicate));
        assert_eq!(tr.accept(5), Err(ParseFrameError::SequenceGap { expected: 2, got: 5 }));
        assert_eq!(tr.expected(), 2, "a gap must not advance the tracker");
        tr.resync(5);
        assert_eq!(tr.accept(5), Ok(SeqStatus::Fresh));
    }

    #[test]
    fn sequence_tracker_classifies_across_wraparound() {
        let mut tr = SequenceTracker::new();
        tr.resync(u32::MAX);
        assert_eq!(tr.accept(u32::MAX), Ok(SeqStatus::Fresh));
        assert_eq!(tr.expected(), 0);
        assert_eq!(tr.accept(u32::MAX), Ok(SeqStatus::Duplicate));
        assert_eq!(tr.accept(3), Err(ParseFrameError::SequenceGap { expected: 0, got: 3 }));
        assert_eq!(tr.accept(0), Ok(SeqStatus::Fresh));
        assert_eq!(tr.accept(u32::MAX), Ok(SeqStatus::Duplicate));
    }

    #[test]
    fn error_messages_are_lowercase_and_informative() {
        let e = ParseFrameError::TruncatedPayload { expected: 6, actual: 3 };
        assert!(e.to_string().starts_with("frame payload truncated"));
        let e = ParseFrameError::ChecksumMismatch { computed: 1, received: 2 };
        assert!(e.to_string().starts_with("frame checksum mismatch"));
        let e = ParseFrameError::SequenceGap { expected: 3, got: 9 };
        assert_eq!(e.to_string(), "sequence gap: expected 3, got 9");
    }

    #[test]
    #[should_panic(expected = "equal width")]
    fn ragged_rounds_rejected() {
        let _ = DecodeRequest::new(0, 0, vec![vec![true], vec![true, false]]);
    }

    #[test]
    #[should_panic(expected = "at least one round")]
    fn empty_request_rejected() {
        let _ = DecodeRequest::new(0, 0, vec![]);
    }

    #[test]
    #[should_panic(expected = "at least one bit per round")]
    fn zero_width_request_rejected() {
        // Invariant matching the decoder's CorruptHeader rejection: a
        // zero-width frame must be unencodable, not a round-trip hole.
        let _ = DecodeRequest::new(0, 0, vec![vec![]]);
    }
}

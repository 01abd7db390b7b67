//! Property-based robustness tests for the wire codec: the bytes a
//! `kizzle-serve` socket accepts from any client.
//!
//! Every test reads from an in-memory reader, so none of them sleeps or
//! opens a socket.
//!
//! Contracts:
//!
//! 1. **Arbitrary bytes never panic.** [`read_frame`] over any byte stream
//!    yields whole frames until a clean close or an I/O error.
//! 2. **A cut stream never yields a partial frame.** Valid frames cut at
//!    any offset read back as exactly the frames wholly before the cut,
//!    then `Closed` (cut on a frame boundary) or `UnexpectedEof`.
//! 3. **An oversized header is refused before the buffer grows.**
//! 4. **Scan replies** decode without panicking from any body, and
//!    round-trip [`encode_scan_reply`].

use kizzle::ScanVerdict;
use kizzle_corpus::KitFamily;
use kizzle_serve::protocol::{
    decode_scan_reply, encode_scan_reply, read_frame, write_frame, FrameRead, MAX_FRAME, NO_INDEX,
    ST_OK,
};
use proptest::prelude::*;
use std::io::{self, BufReader};

/// Read frames until the stream ends or fails, returning the payloads read
/// and how the stream ended.
fn read_all(bytes: &[u8]) -> (Vec<Vec<u8>>, io::Result<FrameRead>) {
    let mut reader = BufReader::new(bytes);
    let mut frames = Vec::new();
    let mut buf = Vec::new();
    loop {
        match read_frame(&mut reader, &mut buf) {
            Ok(FrameRead::Frame) => frames.push(buf.clone()),
            end => return (frames, end),
        }
    }
}

/// A header announcing `len` payload bytes.
fn header(len: u32) -> Vec<u8> {
    len.to_le_bytes().to_vec()
}

proptest! {
    /// Arbitrary bytes — short headers, huge lengths, truncated payloads —
    /// end in a clean close or an error, never a panic or a frame longer
    /// than the cap.
    #[test]
    fn read_frame_never_panics_on_arbitrary_bytes(
        bytes in prop::collection::vec(any::<u8>(), 0..256),
    ) {
        let (frames, end) = read_all(&bytes);
        prop_assert!(!matches!(end, Ok(FrameRead::Frame)));
        prop_assert!(!matches!(end, Ok(FrameRead::Idle)), "an in-memory reader never times out");
        let consumed: usize = frames.iter().map(|f| 4 + f.len()).sum();
        prop_assert!(consumed <= bytes.len());
        prop_assert!(frames.iter().all(|f| f.len() <= MAX_FRAME));
    }

    /// Small length fields make arbitrary bytes parse as real frames
    /// often: every frame read is exactly what its header announced.
    #[test]
    fn small_headers_frame_arbitrary_bytes_exactly(
        chunks in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..12), 0..8),
        tail in prop::collection::vec(any::<u8>(), 0..6),
    ) {
        let mut bytes = Vec::new();
        for chunk in &chunks {
            bytes.extend(header(chunk.len() as u32));
            bytes.extend(chunk);
        }
        bytes.extend(&tail);
        let (frames, end) = read_all(&bytes);
        prop_assert!(frames.len() >= chunks.len());
        prop_assert_eq!(&frames[..chunks.len()], &chunks[..]);
        if tail.is_empty() {
            prop_assert_eq!(frames.len(), chunks.len());
            prop_assert_eq!(end.unwrap(), FrameRead::Closed);
        }
    }

    /// Valid frames cut at every offset: the frames wholly before the cut
    /// come back verbatim, then `Closed` on a boundary and
    /// `UnexpectedEof` inside a header or payload. No partial frame is
    /// ever returned.
    #[test]
    fn a_cut_stream_yields_only_the_whole_frames_before_the_cut(
        payloads in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..40), 1..6),
    ) {
        let mut wire = Vec::new();
        let mut boundaries = vec![0];
        for payload in &payloads {
            write_frame(&mut wire, payload).unwrap();
            boundaries.push(wire.len());
        }
        for cut in 0..=wire.len() {
            let (frames, end) = read_all(&wire[..cut]);
            let whole = boundaries.iter().filter(|&&b| b != 0 && b <= cut).count();
            prop_assert_eq!(&frames[..], &payloads[..whole], "cut {}", cut);
            if boundaries.contains(&cut) {
                prop_assert_eq!(end.unwrap(), FrameRead::Closed, "cut {}", cut);
            } else {
                let err = end.unwrap_err();
                prop_assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof, "cut {}", cut);
            }
        }
    }

    /// Any length above the cap — the first one past it, a random one and
    /// the largest — is refused as `InvalidData` before the payload buffer
    /// is touched, whatever follows the header.
    #[test]
    fn oversized_headers_are_refused_before_the_buffer_grows(
        excess in 1u32..u32::MAX - MAX_FRAME as u32,
        trailing in prop::collection::vec(any::<u8>(), 0..16),
    ) {
        for len in [MAX_FRAME as u32 + 1, MAX_FRAME as u32 + excess, u32::MAX] {
            let mut bytes = header(len);
            bytes.extend(&trailing);
            let mut reader = BufReader::new(bytes.as_slice());
            let mut buf = Vec::new();
            let err = read_frame(&mut reader, &mut buf).unwrap_err();
            prop_assert_eq!(err.kind(), io::ErrorKind::InvalidData, "len {}", len);
            prop_assert_eq!(buf.capacity(), 0, "the buffer grew for a refused {}-byte frame", len);
        }
    }

    /// Decoding never panics: a 13-byte body always decodes, anything else
    /// is `InvalidData`, and a decoded verdict re-encodes to a body that
    /// decodes to it again.
    #[test]
    fn decode_scan_reply_never_panics_on_arbitrary_bodies(
        body in prop::collection::vec(any::<u8>(), 0..32),
    ) {
        match decode_scan_reply(&body) {
            Ok(verdict) => {
                prop_assert_eq!(body.len(), 13);
                let again = encode_scan_reply(&verdict);
                prop_assert_eq!(decode_scan_reply(&again[1..]).unwrap(), verdict);
            }
            Err(err) => {
                prop_assert!(body.len() != 13);
                prop_assert_eq!(err.kind(), io::ErrorKind::InvalidData);
            }
        }
    }

    /// Every verdict the daemon can send survives the wire exactly.
    #[test]
    fn scan_replies_roundtrip(
        epoch in any::<u64>(),
        index in any::<u32>(),
        matched in any::<bool>(),
        family in 0usize..KitFamily::ALL.len() + 1,
    ) {
        let verdict = ScanVerdict {
            epoch,
            index: (matched && index != NO_INDEX).then_some(index),
            family: KitFamily::ALL.get(family).copied(),
        };
        let payload = encode_scan_reply(&verdict);
        prop_assert_eq!(payload[0], ST_OK);
        prop_assert_eq!(decode_scan_reply(&payload[1..]).unwrap(), verdict);
    }
}

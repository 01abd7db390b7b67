//! The `kizzle-serve` wire protocol: trivial length-prefixed binary
//! frames over TCP.
//!
//! Every message — request or response — is one **frame**:
//!
//! ```text
//! [u32 LE payload length][payload]
//! ```
//!
//! A request payload is `[u8 opcode][body]`; a response payload is
//! `[u8 status][body]`. Responses come back in request order on each
//! connection, so clients may **pipeline**: write a window of requests
//! before reading the first reply (this is how `kizzle-loadgen` pushes a
//! per-scan cost of microseconds through a syscall path that costs more
//! than the scan).
//!
//! | opcode | request body | ok-response body |
//! |--------|--------------|------------------|
//! | [`OP_SCAN`] | the raw document (UTF-8) | `[u8 family][u64 LE epoch][u32 LE index]` |
//! | [`OP_METRICS`] | empty | Prometheus text exposition (UTF-8) |
//! | [`OP_STATUS`] | empty | `key=value` lines (UTF-8) |
//! | [`OP_SHUTDOWN`] | empty | empty (the daemon then drains and exits) |
//!
//! In a scan response, `family` is the kit's index in
//! [`KitFamily::ALL`] or [`NO_FAMILY`], and `index` is the matching
//! signature's index in the published set or [`NO_INDEX`]; `epoch` is the
//! serving follower's publication epoch that answered — a client watching
//! it sees hot swaps as monotone steps, never a torn mixture.
//!
//! An error response carries [`ST_ERROR`] and a human-readable message
//! body. Frames above [`MAX_FRAME`] bytes are refused outright.

use kizzle::ScanVerdict;
use kizzle_corpus::KitFamily;
use std::io::{self, BufRead, Read, Write};

/// Scan a document (body: the document bytes).
pub const OP_SCAN: u8 = 1;
/// Fetch the Prometheus text exposition of the daemon's metrics.
pub const OP_METRICS: u8 = 2;
/// Fetch `key=value` status lines (epoch, signatures, workers, …).
pub const OP_STATUS: u8 = 3;
/// Ask the daemon to drain in-flight work and exit.
pub const OP_SHUTDOWN: u8 = 4;

/// Response status: request handled.
pub const ST_OK: u8 = 0;
/// Response status: request failed; the body is a message.
pub const ST_ERROR: u8 = 1;

/// `family` byte of a scan response that matched nothing (or whose
/// matching signature's label names no known family).
pub const NO_FAMILY: u8 = 0xFF;
/// `index` field of a scan response that matched nothing.
pub const NO_INDEX: u32 = u32::MAX;

/// Hard cap on a frame payload; anything larger is a protocol error, not
/// a buffer to allocate.
pub const MAX_FRAME: usize = 16 * 1024 * 1024;

/// Stable wire code of a kit family: [`KitFamily::code`], the code
/// snapshots persist.
#[must_use]
pub fn family_code(family: KitFamily) -> u8 {
    family.code()
}

/// What one [`read_frame`] call found.
#[derive(Debug, PartialEq, Eq)]
pub enum FrameRead {
    /// A complete frame was read into the buffer.
    Frame,
    /// The peer closed the connection cleanly between frames.
    Closed,
    /// The read timed out between frames (no byte of a new frame seen) —
    /// the caller checks its shutdown flag and retries.
    Idle,
}

/// How many consecutive mid-frame read timeouts are tolerated before the
/// connection is declared dead. With the serve daemon's 100 ms read
/// timeout this bounds a stalled half-frame at about a minute.
const MAX_STALL_RETRIES: u32 = 600;

fn is_retry(kind: io::ErrorKind) -> bool {
    matches!(
        kind,
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut | io::ErrorKind::Interrupted
    )
}

/// `read_exact` that rides out read timeouts (boundedly): once a frame
/// has begun, a timeout must not tear the stream's framing.
fn read_exact_persistent(reader: &mut impl Read, mut buf: &mut [u8]) -> io::Result<()> {
    let mut stalls = 0;
    while !buf.is_empty() {
        match reader.read(buf) {
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed mid-frame",
                ))
            }
            Ok(n) => {
                stalls = 0;
                buf = &mut buf[n..];
            }
            Err(err) if is_retry(err.kind()) => {
                stalls += 1;
                if stalls > MAX_STALL_RETRIES {
                    return Err(io::Error::new(
                        io::ErrorKind::TimedOut,
                        "peer stalled mid-frame",
                    ));
                }
            }
            Err(err) => return Err(err),
        }
    }
    Ok(())
}

/// Read one frame's payload into `buf` (replacing its contents).
///
/// Distinguishes the three idle-boundary cases a serving loop needs: a
/// complete frame, a clean close between frames, and a read timeout
/// before any byte of a new frame (so a blocking worker can notice a
/// shutdown flag). A timeout *inside* a frame is ridden out — framing is
/// never torn by timing.
pub fn read_frame(reader: &mut impl BufRead, buf: &mut Vec<u8>) -> io::Result<FrameRead> {
    // Wait for the first byte of the header without consuming it.
    match reader.fill_buf() {
        Ok([]) => return Ok(FrameRead::Closed),
        Ok(_) => {}
        Err(err) if is_retry(err.kind()) => return Ok(FrameRead::Idle),
        Err(err) => return Err(err),
    }
    let mut header = [0u8; 4];
    read_exact_persistent(reader, &mut header)?;
    let len = u32::from_le_bytes(header) as usize;
    if len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame of {len} bytes exceeds the {MAX_FRAME} cap"),
        ));
    }
    buf.resize(len, 0);
    read_exact_persistent(reader, buf)?;
    Ok(FrameRead::Frame)
}

/// Write one frame (length prefix + payload). The caller flushes.
pub fn write_frame(writer: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    let len = u32::try_from(payload.len())
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "frame payload exceeds u32"))?;
    if payload.len() > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "frame payload exceeds the cap",
        ));
    }
    writer.write_all(&len.to_le_bytes())?;
    writer.write_all(payload)
}

/// Write a `[opcode][body]` request frame.
pub fn write_request(writer: &mut impl Write, opcode: u8, body: &[u8]) -> io::Result<()> {
    let mut payload = Vec::with_capacity(1 + body.len());
    payload.push(opcode);
    payload.extend_from_slice(body);
    write_frame(writer, &payload)
}

/// Encode a scan verdict as an ok-response payload.
#[must_use]
pub fn encode_scan_reply(verdict: &ScanVerdict) -> [u8; 14] {
    let mut payload = [0u8; 14];
    payload[0] = ST_OK;
    payload[1] = verdict.family.map_or(NO_FAMILY, family_code);
    payload[2..10].copy_from_slice(&verdict.epoch.to_le_bytes());
    payload[10..14].copy_from_slice(&verdict.index.unwrap_or(NO_INDEX).to_le_bytes());
    payload
}

/// Decode an ok scan response body (the payload minus its status byte).
pub fn decode_scan_reply(body: &[u8]) -> io::Result<ScanVerdict> {
    if body.len() != 13 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "scan reply must be 13 bytes",
        ));
    }
    let family = KitFamily::from_code(body[0]);
    let epoch = u64::from_le_bytes(body[1..9].try_into().expect("8 bytes"));
    let index = u32::from_le_bytes(body[9..13].try_into().expect("4 bytes"));
    Ok(ScanVerdict {
        epoch,
        index: (index != NO_INDEX).then_some(index),
        family,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    #[test]
    fn frames_roundtrip() {
        let mut wire = Vec::new();
        write_request(&mut wire, OP_SCAN, b"var x = 1;").expect("write");
        write_request(&mut wire, OP_STATUS, b"").expect("write");
        let mut reader = BufReader::new(wire.as_slice());
        let mut buf = Vec::new();
        assert_eq!(
            read_frame(&mut reader, &mut buf).expect("read"),
            FrameRead::Frame
        );
        assert_eq!(buf[0], OP_SCAN);
        assert_eq!(&buf[1..], b"var x = 1;");
        assert_eq!(
            read_frame(&mut reader, &mut buf).expect("read"),
            FrameRead::Frame
        );
        assert_eq!(buf.as_slice(), &[OP_STATUS]);
        assert_eq!(
            read_frame(&mut reader, &mut buf).expect("read"),
            FrameRead::Closed
        );
    }

    #[test]
    fn oversized_frames_are_refused_not_allocated() {
        let mut wire = Vec::new();
        wire.extend_from_slice(&(u32::MAX).to_le_bytes());
        let mut reader = BufReader::new(wire.as_slice());
        let mut buf = Vec::new();
        let err = read_frame(&mut reader, &mut buf).expect_err("oversized");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    }

    #[test]
    fn scan_replies_roundtrip() {
        let hit = ScanVerdict {
            epoch: 7,
            index: Some(12),
            family: Some(KitFamily::Angler),
        };
        let payload = encode_scan_reply(&hit);
        assert_eq!(payload[0], ST_OK);
        assert_eq!(decode_scan_reply(&payload[1..]).expect("decode"), hit);

        let miss = ScanVerdict {
            epoch: 3,
            index: None,
            family: None,
        };
        let payload = encode_scan_reply(&miss);
        assert_eq!(decode_scan_reply(&payload[1..]).expect("decode"), miss);
    }

    #[test]
    fn family_codes_roundtrip() {
        for family in KitFamily::ALL {
            assert_eq!(KitFamily::from_code(family_code(family)), Some(family));
        }
        assert_eq!(KitFamily::from_code(NO_FAMILY), None);
    }
}

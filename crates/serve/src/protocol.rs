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
use std::time::{Duration, Instant};

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

/// How long a frame may take to arrive, from the first time a read finds
/// it incomplete: a peer that stalls mid-frame, or trickles it a byte at
/// a time, loses the connection after this long instead of holding a
/// worker for as long as it likes.
const FRAME_DEADLINE: Duration = Duration::from_secs(60);

fn is_retry(kind: io::ErrorKind) -> bool {
    matches!(
        kind,
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut | io::ErrorKind::Interrupted
    )
}

/// The [`FRAME_DEADLINE`] of one frame. The clock is read only when a
/// read comes back short or times out, so a frame that arrives whole
/// costs no clock read.
struct FrameDeadline<C> {
    now: C,
    first_short_read: Option<Instant>,
}

impl<C: FnMut() -> Instant> FrameDeadline<C> {
    /// Called after a short or timed-out read: fails once the frame has
    /// been incomplete for longer than [`FRAME_DEADLINE`].
    fn check(&mut self) -> io::Result<()> {
        let now = (self.now)();
        let since = *self.first_short_read.get_or_insert(now);
        if now.saturating_duration_since(since) > FRAME_DEADLINE {
            return Err(io::Error::new(
                io::ErrorKind::TimedOut,
                "peer took longer than the frame deadline to send a frame",
            ));
        }
        Ok(())
    }
}

/// `read_exact` that rides out read timeouts until the frame's deadline:
/// once a frame has begun, a timeout must not tear the stream's framing.
fn read_exact_persistent<C: FnMut() -> Instant>(
    reader: &mut impl Read,
    mut buf: &mut [u8],
    deadline: &mut FrameDeadline<C>,
) -> io::Result<()> {
    while !buf.is_empty() {
        match reader.read(buf) {
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed mid-frame",
                ))
            }
            Ok(n) if n == buf.len() => return Ok(()),
            Ok(n) => {
                buf = &mut buf[n..];
                deadline.check()?;
            }
            Err(err) if is_retry(err.kind()) => deadline.check()?,
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
/// never torn by timing — until the frame has been incomplete for 60 s,
/// which fails the read with [`io::ErrorKind::TimedOut`].
pub fn read_frame(reader: &mut impl BufRead, buf: &mut Vec<u8>) -> io::Result<FrameRead> {
    read_frame_by(reader, buf, Instant::now)
}

/// [`read_frame`] with the clock its deadline reads.
fn read_frame_by(
    reader: &mut impl BufRead,
    buf: &mut Vec<u8>,
    now: impl FnMut() -> Instant,
) -> io::Result<FrameRead> {
    // Wait for the first byte of the header without consuming it.
    match reader.fill_buf() {
        Ok([]) => return Ok(FrameRead::Closed),
        Ok(_) => {}
        Err(err) if is_retry(err.kind()) => return Ok(FrameRead::Idle),
        Err(err) => return Err(err),
    }
    let mut deadline = FrameDeadline {
        now,
        first_short_read: None,
    };
    let mut header = [0u8; 4];
    read_exact_persistent(reader, &mut header, &mut deadline)?;
    let len = u32::from_le_bytes(header) as usize;
    if len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame of {len} bytes exceeds the {MAX_FRAME} cap"),
        ));
    }
    buf.resize(len, 0);
    read_exact_persistent(reader, buf, &mut deadline)?;
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
    use std::cell::Cell;
    use std::io::BufReader;
    use std::rc::Rc;

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

    /// One event of a [`Scripted`] peer: bytes arriving, or a read timing
    /// out, each after the wall-clock time it takes.
    enum Step {
        Bytes(Vec<u8>, Duration),
        Timeout(Duration),
    }

    /// A peer that plays a script of [`Step`]s and keeps the clock the
    /// deadline reads: each step advances it, and every read counts.
    struct Scripted {
        steps: std::collections::VecDeque<Step>,
        elapsed: Rc<Cell<Duration>>,
    }

    impl Read for Scripted {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            match self.steps.pop_front() {
                None => Ok(0),
                Some(Step::Timeout(took)) => {
                    self.elapsed.set(self.elapsed.get() + took);
                    Err(io::ErrorKind::WouldBlock.into())
                }
                Some(Step::Bytes(mut bytes, took)) => {
                    self.elapsed.set(self.elapsed.get() + took);
                    let n = bytes.len().min(buf.len());
                    buf[..n].copy_from_slice(&bytes[..n]);
                    if n < bytes.len() {
                        // The rest is already there: no further wait.
                        self.steps
                            .push_front(Step::Bytes(bytes.split_off(n), Duration::ZERO));
                    }
                    Ok(n)
                }
            }
        }
    }

    /// Read one frame from `steps` with the script's clock; returns the
    /// outcome, the steps left unplayed and how often the clock was read.
    fn play(steps: Vec<Step>) -> (io::Result<FrameRead>, Vec<u8>, usize, usize) {
        let elapsed = Rc::new(Cell::new(Duration::ZERO));
        let clock_reads = Rc::new(Cell::new(0));
        let start = Instant::now();
        let mut reader = BufReader::new(Scripted {
            steps: steps.into(),
            elapsed: Rc::clone(&elapsed),
        });
        let mut buf = Vec::new();
        let result = read_frame_by(&mut reader, &mut buf, || {
            clock_reads.set(clock_reads.get() + 1);
            start + elapsed.get()
        });
        let left = reader.into_inner().steps.len();
        (result, buf, left, clock_reads.get())
    }

    /// A frame of `len` payload bytes, as a header and a payload.
    fn frame(len: usize) -> (Vec<u8>, Vec<u8>) {
        let header = u32::try_from(len).unwrap().to_le_bytes().to_vec();
        (header, (0..len).map(|i| i as u8).collect())
    }

    const TRICKLE: Duration = Duration::from_millis(99);

    #[test]
    fn a_frame_that_arrives_whole_reads_no_clock() {
        let (header, payload) = frame(1000);
        let whole = [header.clone(), payload.clone()].concat();
        let (result, buf, _, clock_reads) = play(vec![Step::Bytes(whole, TRICKLE)]);
        assert_eq!(result.expect("read"), FrameRead::Frame);
        assert_eq!(buf, payload);
        assert_eq!(clock_reads, 0);
    }

    #[test]
    fn a_slow_frame_inside_the_deadline_is_read() {
        // 500 bytes a trickle apart: 49.5 s, with timeouts in between.
        let (header, payload) = frame(500);
        let mut steps = vec![Step::Bytes(header, Duration::ZERO)];
        for &byte in &payload {
            steps.push(Step::Timeout(Duration::ZERO));
            steps.push(Step::Bytes(vec![byte], TRICKLE));
        }
        let (result, buf, left, clock_reads) = play(steps);
        assert_eq!(result.expect("read"), FrameRead::Frame);
        assert_eq!(buf, payload);
        assert_eq!(left, 0);
        assert!(clock_reads > 0);
    }

    #[test]
    fn a_trickled_frame_is_cut_at_the_deadline() {
        // One byte every 99 ms never stalls a read for long, but the
        // 2,000-byte frame would take 198 s.
        let (header, payload) = frame(2000);
        let mut steps = vec![Step::Bytes(header, Duration::ZERO)];
        steps.extend(payload.iter().map(|&byte| Step::Bytes(vec![byte], TRICKLE)));
        let (result, _, left, _) = play(steps);
        let err = result.expect_err("trickle outlasts the deadline");
        assert_eq!(err.kind(), io::ErrorKind::TimedOut);
        // Cut after just over 60 s of bytes, not after the whole frame.
        let played = 2000 - left;
        let deadline_steps = (FRAME_DEADLINE.as_millis() / TRICKLE.as_millis()) as usize;
        assert!(
            (deadline_steps..=deadline_steps + 2).contains(&played),
            "cut after {played} bytes"
        );
    }

    #[test]
    fn a_stalled_frame_is_cut_at_the_deadline() {
        // The header in two halves, then nothing but timeouts.
        let (header, _) = frame(10);
        let mut steps = vec![
            Step::Bytes(header[..2].to_vec(), Duration::ZERO),
            Step::Bytes(header[2..].to_vec(), Duration::from_secs(30)),
        ];
        steps.extend((0..1000).map(|_| Step::Timeout(Duration::from_millis(100))));
        let (result, _, left, _) = play(steps);
        let err = result.expect_err("stall outlasts the deadline");
        assert_eq!(err.kind(), io::ErrorKind::TimedOut);
        // 30 s went to the header; the payload stall is cut 30 s later.
        let timeouts = 1000 - left;
        assert!(
            (300..=302).contains(&timeouts),
            "cut after {timeouts} timeouts"
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

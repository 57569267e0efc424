//! Length-prefixed, checksummed binary frames.
//!
//! Every wire message travels as one frame:
//!
//! ```text
//! +------+-----------+---------------+-------------------+
//! | DNF1 | len: u32  | checksum: u64 | payload (len b)   |
//! +------+-----------+---------------+-------------------+
//!   4 B     LE           LE (FNV-1a of payload)
//! ```
//!
//! The 16-byte header is fixed; `len` bounds the payload and the checksum
//! is FNV-1a 64 over the payload bytes, so a flipped bit anywhere in the
//! body surfaces as [`FrameError::ChecksumMismatch`] instead of a garbled
//! decode downstream. A clean EOF *between* frames is [`FrameError::Eof`]
//! (the peer closed after draining — the transport's disconnect signal);
//! EOF *inside* a frame is [`FrameError::Truncated`].

use std::fmt;
use std::io::{self, Read, Write};

use dosco_obs::registry::{count, CounterKind};

/// Frame magic: "dosco net frame v1".
pub const MAGIC: [u8; 4] = *b"DNF1";

/// Fixed header size: magic + payload length + checksum.
pub const HEADER_LEN: usize = 16;

/// Upper bound on a single payload (64 MiB). A million-step rollout is far
/// below this; anything larger is a corrupt or hostile length field.
pub const MAX_PAYLOAD: u32 = 64 << 20;

/// FNV-1a 64-bit hash (local copy of `dosco_core::fnv1a64`; duplicated so
/// the wire crate stays dependency-light and the wire format is pinned here).
#[must_use]
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Why a frame could not be read or verified.
#[derive(Debug)]
pub enum FrameError {
    /// Clean end-of-stream at a frame boundary: the peer closed after
    /// writing its last complete frame. This is the normal disconnect
    /// signal, not corruption.
    Eof,
    /// The stream ended inside a header or payload.
    Truncated,
    /// The first four bytes were not [`MAGIC`].
    BadMagic([u8; 4]),
    /// The length field exceeds [`MAX_PAYLOAD`].
    TooLarge(u32),
    /// The payload hashed to a different value than the header claimed.
    ChecksumMismatch {
        /// Checksum carried in the frame header.
        expected: u64,
        /// Checksum computed over the received payload.
        actual: u64,
    },
    /// An I/O error other than EOF.
    Io(io::Error),
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Eof => write!(f, "clean end of stream at frame boundary"),
            FrameError::Truncated => write!(f, "stream ended inside a frame"),
            FrameError::BadMagic(m) => {
                write!(f, "bad frame magic {m:02x?} (expected {MAGIC:02x?})")
            }
            FrameError::TooLarge(n) => {
                write!(f, "frame payload length {n} exceeds cap {MAX_PAYLOAD}")
            }
            FrameError::ChecksumMismatch { expected, actual } => write!(
                f,
                "frame checksum mismatch: header says {expected:#018x}, payload hashes to {actual:#018x}"
            ),
            FrameError::Io(e) => write!(f, "frame i/o error: {e}"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<io::Error> for FrameError {
    fn from(e: io::Error) -> Self {
        if e.kind() == io::ErrorKind::UnexpectedEof {
            FrameError::Truncated
        } else {
            FrameError::Io(e)
        }
    }
}

/// Encodes `payload` into a standalone frame byte vector (header + body).
#[must_use]
pub fn encode_frame(payload: &[u8]) -> Vec<u8> {
    assert!(
        payload.len() <= MAX_PAYLOAD as usize,
        "frame payload {} exceeds cap {MAX_PAYLOAD}",
        payload.len()
    );
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&fnv1a64(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Decodes one frame from the front of `bytes`, returning the payload and
/// the number of bytes consumed.
///
/// # Errors
///
/// Any [`FrameError`] variant except [`FrameError::Io`]; an empty input is
/// [`FrameError::Eof`].
pub fn decode_frame(bytes: &[u8]) -> Result<(Vec<u8>, usize), FrameError> {
    let mut cursor = io::Cursor::new(bytes);
    let payload = read_frame(&mut cursor)?;
    Ok((payload, cursor.position() as usize))
}

/// Writes one frame (header + payload) to `w` and flushes it, counting the
/// bytes and frame into the obs registry.
///
/// # Errors
///
/// [`FrameError::Io`] if the write or flush fails.
pub fn write_frame<W: Write>(w: &mut W, payload: &[u8]) -> Result<(), FrameError> {
    let frame = encode_frame(payload);
    w.write_all(&frame).map_err(FrameError::Io)?;
    w.flush().map_err(FrameError::Io)?;
    count(CounterKind::NetFramesSent, 1);
    count(CounterKind::NetBytesSent, frame.len() as u64);
    Ok(())
}

/// Reads one complete frame from `r`, verifying magic, length cap, and
/// checksum, and counting bytes/frames into the obs registry.
///
/// # Errors
///
/// [`FrameError::Eof`] on a clean close before any header byte; otherwise
/// the named corruption or I/O variant.
pub fn read_frame<R: Read>(r: &mut R) -> Result<Vec<u8>, FrameError> {
    let mut header = [0u8; HEADER_LEN];
    read_exact_or_eof(r, &mut header)?;
    let [m0, m1, m2, m3, l0, l1, l2, l3, checksum @ ..] = header;
    let magic = [m0, m1, m2, m3];
    if magic != MAGIC {
        return Err(FrameError::BadMagic(magic));
    }
    let len = u32::from_le_bytes([l0, l1, l2, l3]);
    if len > MAX_PAYLOAD {
        return Err(FrameError::TooLarge(len));
    }
    let expected = u64::from_le_bytes(checksum);
    let mut payload = vec![0u8; len as usize];
    read_exact_mid_frame(r, &mut payload)?;
    let actual = fnv1a64(&payload);
    if actual != expected {
        return Err(FrameError::ChecksumMismatch { expected, actual });
    }
    count(CounterKind::NetFramesReceived, 1);
    count(
        CounterKind::NetBytesReceived,
        (HEADER_LEN + payload.len()) as u64,
    );
    Ok(payload)
}

/// A read-timeout error (`SO_RCVTIMEO` expiry): the stream is idle, not
/// broken. Portability note: Unix reports `WouldBlock`, Windows `TimedOut`.
fn is_timeout(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

/// Like `read_exact`, but distinguishes "no bytes at all" (clean EOF at a
/// frame boundary) from "some bytes then EOF" (truncation mid-frame).
///
/// Partial reads are the norm on TCP: a header (or payload, below) can
/// arrive one byte per segment, and on a stream with a read timeout the
/// timeout can fire *between* those bytes. Once any frame byte has been
/// consumed the only safe behaviors are to keep reading or to fail the
/// stream — returning a retryable error mid-frame would desync every
/// frame after it. So a timeout with `filled > 0` resumes, while a
/// timeout before the first header byte surfaces as [`FrameError::Io`]
/// with nothing consumed (an idle-but-healthy stream, safe to retry).
fn read_exact_or_eof<R: Read>(r: &mut R, buf: &mut [u8]) -> Result<(), FrameError> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => {
                return Err(if filled == 0 {
                    FrameError::Eof
                } else {
                    FrameError::Truncated
                });
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) if filled > 0 && is_timeout(&e) => {}
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    Ok(())
}

/// `read_exact` for bytes that are *inside* a frame (the payload): EOF is
/// always [`FrameError::Truncated`], and interrupts/timeouts resume — the
/// header was already consumed, so bailing out here could never be
/// retried without desyncing the stream.
fn read_exact_mid_frame<R: Read>(r: &mut R, buf: &mut [u8]) -> Result<(), FrameError> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => return Err(FrameError::Truncated),
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted || is_timeout(&e) => {}
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a64_reference_vectors() {
        // Reference vectors from the FNV spec; pins wire compatibility with
        // dosco_core::fnv1a64.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn round_trip() {
        let payload = b"hello frames".to_vec();
        let bytes = encode_frame(&payload);
        assert_eq!(bytes.len(), HEADER_LEN + payload.len());
        let (decoded, used) = decode_frame(&bytes).expect("decode");
        assert_eq!(decoded, payload);
        assert_eq!(used, bytes.len());
    }

    #[test]
    fn empty_payload_round_trips() {
        let bytes = encode_frame(&[]);
        let (decoded, used) = decode_frame(&bytes).expect("decode");
        assert!(decoded.is_empty());
        assert_eq!(used, HEADER_LEN);
    }

    #[test]
    fn eof_at_boundary_vs_truncated() {
        assert!(matches!(decode_frame(&[]), Err(FrameError::Eof)));
        let bytes = encode_frame(b"abc");
        assert!(matches!(
            decode_frame(&bytes[..HEADER_LEN - 3]),
            Err(FrameError::Truncated)
        ));
        assert!(matches!(
            decode_frame(&bytes[..bytes.len() - 1]),
            Err(FrameError::Truncated)
        ));
    }

    #[test]
    fn corrupt_payload_is_checksum_mismatch() {
        let mut bytes = encode_frame(b"payload under test");
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        assert!(matches!(
            decode_frame(&bytes),
            Err(FrameError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn bad_magic_and_oversize_are_named() {
        let mut bytes = encode_frame(b"x");
        bytes[0] = b'X';
        assert!(matches!(decode_frame(&bytes), Err(FrameError::BadMagic(_))));

        let mut oversize = encode_frame(b"x");
        oversize[4..8].copy_from_slice(&(MAX_PAYLOAD + 1).to_le_bytes());
        assert!(matches!(
            decode_frame(&oversize),
            Err(FrameError::TooLarge(_))
        ));
    }

    /// Delivers at most one byte per `read`, with scripted I/O errors
    /// interleaved — the worst-case behavior of a real TCP stream with a
    /// read timeout (`SO_RCVTIMEO`) under heavy segmentation.
    struct DribbleReader {
        steps: std::collections::VecDeque<Result<u8, io::ErrorKind>>,
    }

    impl DribbleReader {
        fn new(steps: impl IntoIterator<Item = Result<u8, io::ErrorKind>>) -> Self {
            DribbleReader {
                steps: steps.into_iter().collect(),
            }
        }
    }

    impl Read for DribbleReader {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            assert!(!buf.is_empty());
            match self.steps.pop_front() {
                None => Ok(0),
                Some(Ok(b)) => {
                    buf[0] = b;
                    Ok(1)
                }
                Some(Err(kind)) => Err(kind.into()),
            }
        }
    }

    /// Regression: a frame arriving one byte per read, with a timeout or
    /// interrupt after every byte, must decode — not desync or error.
    #[test]
    fn frame_survives_one_byte_reads_with_interleaved_timeouts() {
        let bytes = encode_frame(b"dribbled payload");
        let mut steps = Vec::new();
        for (i, &b) in bytes.iter().enumerate() {
            steps.push(Ok(b));
            // After the first byte we are mid-frame: every flavor of
            // transient error must be absorbed. (None after the final
            // byte — that would be a boundary tick of the next frame.)
            if i + 1 < bytes.len() {
                steps.push(Err(match i % 3 {
                    0 => io::ErrorKind::Interrupted,
                    1 => io::ErrorKind::WouldBlock,
                    _ => io::ErrorKind::TimedOut,
                }));
            }
        }
        let mut r = DribbleReader::new(steps);
        assert_eq!(read_frame(&mut r).expect("decode"), b"dribbled payload");
        assert!(matches!(read_frame(&mut r), Err(FrameError::Eof)));
    }

    /// A timeout before the first header byte is an idle stream, not a
    /// fault: it surfaces as `Io` with nothing consumed, and the very
    /// next `read_frame` decodes the frame — no desync.
    #[test]
    fn timeout_at_frame_boundary_is_retryable() {
        let bytes = encode_frame(b"after the idle tick");
        let mut steps = vec![Err(io::ErrorKind::WouldBlock)];
        steps.extend(bytes.iter().map(|&b| Ok(b)));
        let mut r = DribbleReader::new(steps);
        match read_frame(&mut r) {
            Err(FrameError::Io(e)) => assert_eq!(e.kind(), io::ErrorKind::WouldBlock),
            other => panic!("expected retryable Io, got {other:?}"),
        }
        assert_eq!(
            read_frame(&mut r).expect("retry decodes"),
            b"after the idle tick"
        );
    }

    /// Regression: a timeout between payload bytes must resume the read
    /// (previously the payload used a raw `read_exact`, which failed and
    /// left the stream desynced mid-frame).
    #[test]
    fn timeout_mid_payload_resumes() {
        let bytes = encode_frame(b"split payload");
        let mut steps: Vec<Result<u8, io::ErrorKind>> = bytes.iter().map(|&b| Ok(b)).collect();
        // Stall right after the first payload byte.
        steps.insert(HEADER_LEN + 1, Err(io::ErrorKind::WouldBlock));
        steps.insert(HEADER_LEN + 2, Err(io::ErrorKind::TimedOut));
        let mut r = DribbleReader::new(steps);
        assert_eq!(read_frame(&mut r).expect("decode"), b"split payload");
    }

    /// EOF inside the payload is truncation, even through the resuming
    /// reader.
    #[test]
    fn eof_mid_payload_is_truncated() {
        let bytes = encode_frame(b"cut short");
        let steps: Vec<Result<u8, io::ErrorKind>> =
            bytes[..bytes.len() - 2].iter().map(|&b| Ok(b)).collect();
        let mut r = DribbleReader::new(steps);
        assert!(matches!(read_frame(&mut r), Err(FrameError::Truncated)));
    }

    #[test]
    fn sequential_frames_decode_in_order() {
        let mut stream = Vec::new();
        write_frame(&mut stream, b"first").expect("write");
        write_frame(&mut stream, b"second").expect("write");
        let mut cursor = std::io::Cursor::new(stream);
        assert_eq!(read_frame(&mut cursor).expect("first"), b"first");
        assert_eq!(read_frame(&mut cursor).expect("second"), b"second");
        assert!(matches!(read_frame(&mut cursor), Err(FrameError::Eof)));
    }
}

//! Versioned wire codecs for bytes crossing a real transport.
//!
//! The simulator passes [`Frame`] values by ownership; a live runtime
//! has to put them on a byte-oriented transport (UDP datagrams, pipes)
//! and read them back from peers it does not trust to be the same
//! build. The encoding is deliberately tiny and explicit:
//!
//! ```text
//! byte 0      codec version (currently 1)
//! bytes 1..5  29-bit identifier, big-endian u32 (top 3 bits zero)
//! byte 5      DLC (0..=8)
//! bytes 6..   DLC payload bytes — the buffer ends exactly here
//! ```
//!
//! Fragmentation headers ride *inside* the payload (see
//! `rtec_core::frag`), exactly as they do on a physical bus, so this
//! codec stays class-agnostic: HRT, SRT and NRT frames all encode the
//! same way. Decoding never panics; every malformed input maps to a
//! [`CodecError`].
//!
//! # The message kernel
//!
//! The broker ⇄ node (`rtec_live::wire`, magic `"RL"`) and gateway ⇄
//! client (`rtec_gateway::wire`, magic `"RG"`) protocols share one
//! envelope — magic (2 bytes), version, kind, then a little-endian
//! body — written once here. [`Put`] writes a body; [`Protocol::open`]
//! checks the envelope and hands out a [`Reader`] whose every short read
//! is [`WireError::BadLength`], so a decoder reads fields in the order
//! its encoder writes them. [`Reader::finish`] is the one trailing-byte
//! rule. [`write_frame`] / [`read_frame`] frame messages on a stream.

use crate::frame::{Frame, MAX_PAYLOAD};
use crate::id::{CanId, ETAG_BITS, PRIORITY_BITS, TXNODE_BITS};
use std::io::{self, Read, Write};
use std::ops::RangeInclusive;

/// Width of the full structured identifier (29 bits).
const ID_BITS: u32 = PRIORITY_BITS + TXNODE_BITS + ETAG_BITS;

/// Current wire-format version (byte 0 of every encoded frame).
pub const CODEC_VERSION: u8 = 1;

/// Encoded size of a frame carrying `dlc` payload bytes.
pub const fn encoded_len(dlc: usize) -> usize {
    6 + dlc
}

/// Largest encoded frame (full 8-byte payload).
pub const MAX_ENCODED_LEN: usize = encoded_len(MAX_PAYLOAD);

/// A byte buffer failed to decode as a CAN frame.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CodecError {
    /// Fewer bytes than the fixed header needs.
    Truncated(usize),
    /// Version byte is not [`CODEC_VERSION`].
    BadVersion(u8),
    /// Identifier does not fit in 29 bits.
    BadId(u32),
    /// DLC larger than 8.
    BadDlc(u8),
    /// Buffer length disagrees with the DLC.
    LengthMismatch {
        /// Length the header promised.
        expected: usize,
        /// Length actually received.
        got: usize,
    },
}

impl core::fmt::Display for CodecError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            CodecError::Truncated(n) => write!(f, "frame truncated: {n} bytes"),
            CodecError::BadVersion(v) => {
                write!(f, "unknown codec version {v} (expected {CODEC_VERSION})")
            }
            CodecError::BadId(raw) => write!(f, "identifier {raw:#x} exceeds 29 bits"),
            CodecError::BadDlc(d) => write!(f, "DLC {d} exceeds {MAX_PAYLOAD}"),
            CodecError::LengthMismatch { expected, got } => {
                write!(f, "length mismatch: header says {expected}, got {got}")
            }
        }
    }
}

impl std::error::Error for CodecError {}

/// Append the wire encoding of `frame` to `out`.
pub fn encode_into(frame: &Frame, out: &mut Vec<u8>) {
    out.push(CODEC_VERSION);
    out.extend_from_slice(&frame.id.raw().to_be_bytes());
    out.push(frame.dlc());
    out.extend_from_slice(frame.payload());
}

/// Wire encoding of `frame` as a fresh buffer.
pub fn encode(frame: &Frame) -> Vec<u8> {
    let mut out = Vec::with_capacity(encoded_len(frame.dlc() as usize));
    encode_into(frame, &mut out);
    out
}

/// Decode a frame from a buffer holding exactly one encoded frame.
/// Never panics: all malformed inputs return a [`CodecError`].
pub fn decode(buf: &[u8]) -> Result<Frame, CodecError> {
    if buf.len() < 6 {
        return Err(CodecError::Truncated(buf.len()));
    }
    if buf[0] != CODEC_VERSION {
        return Err(CodecError::BadVersion(buf[0]));
    }
    let raw = u32::from_be_bytes([buf[1], buf[2], buf[3], buf[4]]);
    if raw >> ID_BITS != 0 {
        return Err(CodecError::BadId(raw));
    }
    let dlc = buf[5];
    if dlc as usize > MAX_PAYLOAD {
        return Err(CodecError::BadDlc(dlc));
    }
    let expected = encoded_len(dlc as usize);
    if buf.len() != expected {
        return Err(CodecError::LengthMismatch {
            expected,
            got: buf.len(),
        });
    }
    let id = CanId::from_raw(raw);
    Ok(Frame::new(id, &buf[6..]))
}

/// A message failed to decode under its [`Protocol`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WireError {
    /// Fewer bytes than the envelope needs.
    Truncated(usize),
    /// First two bytes are not the protocol's magic.
    BadMagic,
    /// Version byte outside the versions the decoder accepts.
    BadVersion(u8),
    /// Unknown message kind.
    BadKind(u8),
    /// Body length disagrees with the kind's layout.
    BadLength {
        /// Kind whose body was malformed.
        kind: u8,
        /// Bytes present after the envelope.
        got: usize,
    },
    /// A class byte names none of the timeliness classes.
    BadClass(u8),
    /// An embedded CAN frame failed to decode.
    Frame(CodecError),
}

impl core::fmt::Display for WireError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            WireError::Truncated(n) => write!(f, "message truncated: {n} bytes"),
            WireError::BadMagic => write!(f, "bad magic (a message of another protocol)"),
            WireError::BadVersion(v) => write!(f, "unsupported protocol version {v}"),
            WireError::BadKind(k) => write!(f, "unknown message kind {k}"),
            WireError::BadLength { kind, got } => {
                write!(f, "kind {kind}: body of {got} bytes has the wrong length")
            }
            WireError::BadClass(c) => write!(f, "unknown timeliness class {c}"),
            WireError::Frame(e) => write!(f, "embedded frame: {e}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<CodecError> for WireError {
    fn from(e: CodecError) -> Self {
        WireError::Frame(e)
    }
}

/// Little-endian appends: how a message body is written.
pub trait Put {
    /// Append a `u16`.
    fn put_u16(&mut self, v: u16);
    /// Append a `u32`.
    fn put_u32(&mut self, v: u32);
    /// Append a `u64`.
    fn put_u64(&mut self, v: u64);
    /// Append a `u16`-length-prefixed byte string. Panics when `bytes`
    /// is longer than the prefix can say: a truncated string would
    /// corrupt everything after it.
    fn put_bytes(&mut self, bytes: &[u8]);
}

impl Put for Vec<u8> {
    #[inline]
    fn put_u16(&mut self, v: u16) {
        self.extend_from_slice(&v.to_le_bytes());
    }
    #[inline]
    fn put_u32(&mut self, v: u32) {
        self.extend_from_slice(&v.to_le_bytes());
    }
    #[inline]
    fn put_u64(&mut self, v: u64) {
        self.extend_from_slice(&v.to_le_bytes());
    }
    #[inline]
    fn put_bytes(&mut self, bytes: &[u8]) {
        let len = u16::try_from(bytes.len()).expect("byte string longer than its u16 prefix");
        self.put_u16(len);
        self.extend_from_slice(bytes);
    }
}

/// One message protocol's envelope: its magic, the version this build
/// writes, and the versions its decoder accepts.
#[derive(Clone, Debug)]
pub struct Protocol {
    /// Bytes 0..2 of every message.
    pub magic: [u8; 2],
    /// The version this build writes; bodies at or below it are
    /// length-checked strictly.
    pub version: u8,
    /// Versions the decoder accepts.
    pub accepts: RangeInclusive<u8>,
}

impl Protocol {
    /// Append the envelope of a `kind` message at this build's version.
    #[inline]
    pub fn start(&self, kind: u8, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.magic);
        out.push(self.version);
        out.push(kind);
    }

    /// Check the envelope of `buf`; on success, a reader over its body.
    #[inline]
    pub fn open<'a>(&self, buf: &'a [u8]) -> Result<Reader<'a>, WireError> {
        let [m0, m1, version, kind, body @ ..] = buf else {
            return Err(WireError::Truncated(buf.len()));
        };
        if [*m0, *m1] != self.magic {
            return Err(WireError::BadMagic);
        }
        if !self.accepts.contains(version) {
            return Err(WireError::BadVersion(*version));
        }
        Ok(Reader {
            kind: *kind,
            strict: *version <= self.version,
            len: body.len(),
            rest: body,
        })
    }
}

/// A bounds-checked cursor over one message body. Every read that runs
/// past the end is `BadLength { kind, got }` with `got` the whole
/// body's length.
#[derive(Debug)]
pub struct Reader<'a> {
    kind: u8,
    strict: bool,
    len: usize,
    rest: &'a [u8],
}

impl<'a> Reader<'a> {
    /// The message kind.
    pub fn kind(&self) -> u8 {
        self.kind
    }

    fn bad_length(&self) -> WireError {
        WireError::BadLength {
            kind: self.kind,
            got: self.len,
        }
    }

    #[inline]
    fn take<const N: usize>(&mut self) -> Result<[u8; N], WireError> {
        let (head, tail) = self.rest.split_first_chunk().ok_or(self.bad_length())?;
        self.rest = tail;
        Ok(*head)
    }

    /// Read a `u8`.
    #[inline]
    pub fn u8(&mut self) -> Result<u8, WireError> {
        self.take().map(|[b]| b)
    }

    /// Read a `u16`.
    #[inline]
    pub fn u16(&mut self) -> Result<u16, WireError> {
        self.take().map(u16::from_le_bytes)
    }

    /// Read a `u32`.
    #[inline]
    pub fn u32(&mut self) -> Result<u32, WireError> {
        self.take().map(u32::from_le_bytes)
    }

    /// Read a `u64`.
    #[inline]
    pub fn u64(&mut self) -> Result<u64, WireError> {
        self.take().map(u64::from_le_bytes)
    }

    /// Read a `u16`-length-prefixed byte string.
    #[inline]
    pub fn bytes(&mut self) -> Result<&'a [u8], WireError> {
        let len = usize::from(self.u16()?);
        let (bytes, tail) = self.rest.split_at_checked(len).ok_or(self.bad_length())?;
        self.rest = tail;
        Ok(bytes)
    }

    /// Everything not yet read (an embedded frame that checks its own
    /// length).
    pub fn rest(&mut self) -> &'a [u8] {
        std::mem::take(&mut self.rest)
    }

    /// The end of the layout: a body at or below the protocol's version
    /// must end here; a newer one may carry trailing fields.
    #[inline]
    pub fn finish(self) -> Result<(), WireError> {
        if self.rest.is_empty() || !self.strict {
            Ok(())
        } else {
            Err(self.bad_length())
        }
    }
}

/// Write `msg` to a stream behind a little-endian `u32` length prefix.
/// A message longer than `max` is refused before anything is written.
pub fn write_frame<W: Write>(w: &mut W, msg: &[u8], max: usize) -> io::Result<()> {
    let len = u32::try_from(msg.len())
        .ok()
        .filter(|_| msg.len() <= max)
        .ok_or_else(|| {
            io::Error::new(io::ErrorKind::InvalidInput, "message exceeds the frame cap")
        })?;
    w.write_all(&len.to_le_bytes())?;
    w.write_all(msg)
}

/// Read one length-prefixed message from a stream. `Ok(None)` means
/// the peer closed the stream cleanly at a message boundary; a length
/// above `max` is refused before anything is allocated.
pub fn read_frame<R: Read>(r: &mut R, max: usize) -> io::Result<Option<Vec<u8>>> {
    let mut len = [0u8; 4];
    let got = r.read(&mut len)?;
    if got == 0 {
        return Ok(None);
    }
    // A stream that closes inside the prefix is `UnexpectedEof`.
    r.read_exact(&mut len[got..])?;
    let len = u32::from_le_bytes(len) as usize;
    if len > max {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "frame length exceeds the frame cap",
        ));
    }
    let mut buf = vec![0u8; len];
    r.read_exact(&mut buf)?;
    Ok(Some(buf))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_all_dlcs() {
        for dlc in 0..=MAX_PAYLOAD {
            let payload: Vec<u8> = (0..dlc as u8).map(|b| b.wrapping_mul(37)).collect();
            let frame = Frame::new(CanId::new(250, 63, 0x3FFF), &payload);
            let bytes = encode(&frame);
            assert_eq!(bytes.len(), encoded_len(dlc));
            assert_eq!(decode(&bytes), Ok(frame));
        }
    }

    #[test]
    fn rejects_truncation_and_trailing_garbage() {
        let frame = Frame::new(CanId::new(1, 2, 3), &[9, 8, 7]);
        let bytes = encode(&frame);
        for cut in 0..bytes.len() {
            assert!(decode(&bytes[..cut]).is_err(), "cut at {cut} must fail");
        }
        let mut long = bytes.clone();
        long.push(0);
        assert_eq!(
            decode(&long),
            Err(CodecError::LengthMismatch {
                expected: bytes.len(),
                got: bytes.len() + 1
            })
        );
    }

    #[test]
    fn rejects_bad_version_id_and_dlc() {
        let frame = Frame::new(CanId::new(1, 2, 3), &[]);
        let mut bytes = encode(&frame);
        bytes[0] = 2;
        assert_eq!(decode(&bytes), Err(CodecError::BadVersion(2)));
        bytes[0] = CODEC_VERSION;
        bytes[1] = 0xFF; // sets bits above the 29-bit field
        assert!(matches!(decode(&bytes), Err(CodecError::BadId(_))));
        let mut bytes = encode(&frame);
        bytes[5] = 9;
        assert_eq!(decode(&bytes), Err(CodecError::BadDlc(9)));
    }

    #[test]
    fn empty_input_is_truncated_not_panic() {
        assert_eq!(decode(&[]), Err(CodecError::Truncated(0)));
    }

    const P: Protocol = Protocol {
        magic: *b"XY",
        version: 2,
        accepts: 1..=3,
    };

    fn message(version: u8, body: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        P.start(7, &mut out);
        out[2] = version;
        out.extend_from_slice(body);
        out
    }

    #[test]
    fn open_checks_length_magic_and_version_in_that_order() {
        assert_eq!(P.open(b"XY\x09").unwrap_err(), WireError::Truncated(3));
        assert_eq!(P.open(b"XZ\x09\x07").unwrap_err(), WireError::BadMagic);
        for v in [0, 4] {
            assert_eq!(
                P.open(&message(v, &[])).unwrap_err(),
                WireError::BadVersion(v)
            );
        }
        let buf = message(3, &[1]);
        let mut r = P.open(&buf).unwrap();
        assert_eq!((r.kind(), r.rest()), (7, &[1][..]));
    }

    /// Fields come back in the order `Put` wrote them, and every short
    /// read names the whole body's length, wherever it stopped.
    #[test]
    fn reads_mirror_puts_and_short_reads_report_the_body() {
        let mut body = vec![0xAB];
        body.put_u16(0x0102);
        body.put_u32(0x0304_0506);
        body.put_u64(0x0708_090A_0B0C_0D0E);
        body.put_bytes(b"hi");
        let buf = message(2, &body);
        let mut r = P.open(&buf).unwrap();
        assert_eq!(r.u8(), Ok(0xAB));
        assert_eq!(r.u16(), Ok(0x0102));
        assert_eq!(r.u32(), Ok(0x0304_0506));
        assert_eq!(r.u64(), Ok(0x0708_090A_0B0C_0D0E));
        assert_eq!(r.bytes(), Ok(&b"hi"[..]));
        assert_eq!(r.finish(), Ok(()));
        for cut in 0..body.len() {
            let buf = message(2, &body[..cut]);
            let mut r = P.open(&buf).unwrap();
            let all =
                (|| Ok::<_, WireError>((r.u8()?, r.u16()?, r.u32()?, r.u64()?, r.bytes()?)))();
            assert_eq!(all, Err(WireError::BadLength { kind: 7, got: cut }));
        }
    }

    #[test]
    fn trailing_bytes_are_refused_up_to_our_version_only() {
        for (version, ok) in [(1, false), (2, false), (3, true)] {
            let buf = message(version, &[0, 0, 9]);
            let mut r = P.open(&buf).unwrap();
            assert_eq!(r.u16(), Ok(0));
            let verdict = r.finish();
            assert_eq!(verdict.is_ok(), ok, "version {version}");
        }
        let buf = message(2, &[5, 6]);
        let mut r = P.open(&buf).unwrap();
        assert_eq!(r.rest(), &[5, 6]);
        assert_eq!(r.finish(), Ok(()));
    }

    #[test]
    #[should_panic(expected = "u16 prefix")]
    fn an_unprefixable_byte_string_panics() {
        Vec::new().put_bytes(&vec![0; usize::from(u16::MAX) + 1]);
    }

    #[test]
    fn frames_round_trip_and_respect_the_cap() {
        let mut stream = Vec::new();
        write_frame(&mut stream, b"abc", 3).unwrap();
        assert!(write_frame(&mut stream, b"abcd", 3).is_err());
        assert_eq!(stream, b"\x03\x00\x00\x00abc");
        let mut r = &stream[..];
        assert_eq!(read_frame(&mut r, 3).unwrap().as_deref(), Some(&b"abc"[..]));
        assert_eq!(read_frame(&mut r, 3).unwrap(), None);
        assert!(
            read_frame(&mut &stream[..], 2).is_err(),
            "length above the cap"
        );
        assert!(
            read_frame(&mut &stream[..2], 3).is_err(),
            "cut inside the prefix"
        );
    }
}

//! The gateway ⇄ client message protocol and its versioned wire codec.
//!
//! External subscribers do not speak the broker protocol
//! (`rtec_live::wire`, magic `"RL"`): they see events *after* channel
//! processing, so their protocol carries delivery metadata (class,
//! wire-completion time, release time) instead of raw CAN frames. Both
//! codecs are written on one message kernel (`rtec_can::codec`: fixed
//! envelope, little-endian bodies, bounds-checked reads, decoding that
//! never panics), with a different magic so a datagram routed at the
//! wrong boundary fails loudly instead of aliasing.
//!
//! Layout of every message:
//!
//! ```text
//! bytes 0..2   magic "RG"
//! byte  2      protocol version (currently 2)
//! byte  3      message kind
//! bytes 4..    kind-specific body
//! ```
//!
//! Over a stream transport (TCP / Unix socket) each message is framed
//! by a little-endian `u32` length prefix ([`write_frame`] /
//! [`read_frame`]).
//!
//! # Versions
//!
//! A decoder checks bodies of its own version strictly and tolerates
//! trailing bytes from a newer version: additive fields go at the
//! *tail* of a body, so a newer peer's messages still decode. An older
//! version is refused with [`WireError::BadVersion`]: version 1 had no
//! session handshake, and a client that cannot resume would get a
//! lane that ends on any sever instead of the subscriber contract.
//!
//! # Sessions
//!
//! The handshake opens crash-tolerant sessions: `Hello` carries a
//! session token (0 when there is nothing to resume) plus per-class
//! delivery watermarks (how many frames of each class the client has
//! received — the client-side truth the gateway filters replay
//! against), `Welcome` carries the minted token and a
//! [`ResumeVerdict`], and the [`ToClient::Gap`] notice reports NRT
//! frames that fell out of the bounded replay buffer while the client
//! was away (§2.2.3: NRT may gap, it must not lie).

use rtec_can::codec::{self, Protocol, Put, Reader};
use rtec_core::ChannelClass;
use std::io::{self, Read, Write};

pub use rtec_can::codec::WireError;

/// Magic prefix of every gateway-protocol message.
pub const MAGIC: [u8; 2] = *b"RG";
/// Current protocol version (byte 2 of every message).
pub const WIRE_VERSION: u8 = 2;
/// Hard cap on a framed message (length prefix included payload), so a
/// corrupt length prefix cannot make a reader allocate gigabytes.
pub const MAX_FRAME_LEN: usize = 1 << 16;
/// Largest event payload (or fragment chunk) a single message may
/// carry: with the fixed header and per-message fields, anything up to
/// this bound stays under both [`MAX_FRAME_LEN`] and the `u16` payload
/// length prefix. Encoders must fragment or reject larger payloads —
/// [`encode_to_client`] panics rather than truncate.
pub const MAX_PAYLOAD: usize = MAX_FRAME_LEN - 64;
/// Most NRT events the gateway coalesces into one [`ToClient::Batch`].
pub const NRT_BATCH_MAX: usize = 8;
/// NRT payloads above this many bytes are fragment-streamed as
/// [`ToClient::Frag`] chunks of this size.
pub const FRAG_CHUNK: usize = 256;

const _: () = assert!(
    NRT_BATCH_MAX <= u8::MAX as usize,
    "a Batch counts its entries in one byte"
);
const _: () = assert!(0 < FRAG_CHUNK && FRAG_CHUNK <= MAX_PAYLOAD);

/// The envelope: this version and every newer one decodes, a newer one
/// with its trailing fields ignored.
const RG: Protocol = Protocol {
    magic: MAGIC,
    version: WIRE_VERSION,
    accepts: WIRE_VERSION..=u8::MAX,
};

/// Why events were shed or a session was closed, as a closed enum: the
/// wire carries one byte, and an unassigned byte from a newer peer
/// lands in [`Reason::Unknown`] instead of silently aliasing a known
/// reason.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Reason {
    /// The client fell behind its bounded queue.
    Slow,
    /// An SRT event outlived its validity window (§2.2.2).
    Stale,
    /// The gateway is shutting down.
    Shutdown,
    /// A reason byte this decoder does not know (a newer peer).
    Unknown(u8),
}

impl Reason {
    /// The wire byte for this reason.
    pub fn code(self) -> u8 {
        match self {
            Reason::Slow => 1,
            Reason::Stale => 2,
            Reason::Shutdown => 3,
            Reason::Unknown(c) => c,
        }
    }

    /// Decode a wire byte; unassigned values become
    /// [`Reason::Unknown`], never an error.
    pub fn from_code(code: u8) -> Reason {
        match code {
            1 => Reason::Slow,
            2 => Reason::Stale,
            3 => Reason::Shutdown,
            c => Reason::Unknown(c),
        }
    }
}

/// The gateway's answer to a session handshake, carried in `Welcome`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ResumeVerdict {
    /// A new session was opened (no token offered).
    Fresh,
    /// The session resumed; every missing HRT frame is replayed
    /// exactly once (§3.2 off-bus).
    Resumed,
    /// The token was unknown or its bus-time TTL elapsed; a fresh
    /// session replaces it.
    Expired,
    /// The session resumed but part of the backlog fell out of the
    /// bounded replay buffer; `Gap`/`Shed` notices follow.
    Gap,
    /// A verdict byte this decoder does not know (a newer peer).
    Unknown(u8),
}

impl ResumeVerdict {
    /// The wire byte for this verdict.
    pub fn code(self) -> u8 {
        match self {
            ResumeVerdict::Fresh => 0,
            ResumeVerdict::Resumed => 1,
            ResumeVerdict::Expired => 2,
            ResumeVerdict::Gap => 3,
            ResumeVerdict::Unknown(c) => c,
        }
    }

    /// Decode a wire byte; unassigned values become
    /// [`ResumeVerdict::Unknown`], never an error.
    pub fn from_code(code: u8) -> ResumeVerdict {
        match code {
            0 => ResumeVerdict::Fresh,
            1 => ResumeVerdict::Resumed,
            2 => ResumeVerdict::Expired,
            3 => ResumeVerdict::Gap,
            c => ResumeVerdict::Unknown(c),
        }
    }
}

/// Per-class delivery watermarks: how many gateway → client frames of
/// each class the client has received on its session so far. The
/// shared stream totally orders a session's frames, so a count per
/// class identifies exactly which suffix of the sent sequence was
/// still in flight when the link died.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ClassWatermarks {
    /// HRT `Event` frames received.
    pub hrt: u64,
    /// SRT `Event` frames received.
    pub srt: u64,
    /// NRT `Event`/`Batch`/`Frag` frames received.
    pub nrt: u64,
}

impl ClassWatermarks {
    /// The watermark for one class.
    pub fn of(&self, class: ChannelClass) -> u64 {
        match class {
            ChannelClass::Hrt => self.hrt,
            ChannelClass::Srt => self.srt,
            ChannelClass::Nrt => self.nrt,
        }
    }

    /// Bump the watermark for one class.
    pub fn bump(&mut self, class: ChannelClass) {
        match class {
            ChannelClass::Hrt => self.hrt += 1,
            ChannelClass::Srt => self.srt += 1,
            ChannelClass::Nrt => self.nrt += 1,
        }
    }
}

/// The resume request a `Hello` may carry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ResumeReq {
    /// Session token from the previous `Welcome` (never 0).
    pub token: u64,
    /// What the client received before the link died.
    pub wm: ClassWatermarks,
}

/// The session description a `Welcome` carries.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SessionInfo {
    /// Token to present in a future resume (never 0).
    pub token: u64,
    /// How the gateway answered the handshake.
    pub verdict: ResumeVerdict,
}

/// Messages a client sends to the gateway (the subscription handshake).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ToGateway {
    /// Open (or resume) a session: `subs` [`ToGateway::Subscribe`]
    /// messages follow.
    Hello {
        /// Number of subscription messages that follow.
        subs: u16,
        /// Present to resume an earlier session (token 0 on the wire
        /// when absent).
        resume: Option<ResumeReq>,
    },
    /// Subscribe to one subject by its 64-bit uid.
    Subscribe {
        /// The subject uid.
        uid: u64,
    },
    /// Close the session.
    Bye,
}

/// A single re-published event.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EventMsg {
    /// Timeliness class of the channel the event arrived on.
    pub class: ChannelClass,
    /// Publishing node id (255 when unknown).
    pub origin: u8,
    /// Subject uid.
    pub uid: u64,
    /// Per-subject delivery sequence number at the gateway.
    pub seq: u32,
    /// Bus time the frame completed on the wire.
    pub wire_ns: u64,
    /// Bus time the event was released to subscribers (for HRT this is
    /// the calendar slot deadline — §3.2's deferred delivery).
    pub release_ns: u64,
    /// Event payload.
    pub payload: Vec<u8>,
}

/// One event inside a [`ToClient::Batch`] (always NRT).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BatchEntry {
    /// Publishing node id (255 when unknown).
    pub origin: u8,
    /// Subject uid.
    pub uid: u64,
    /// Per-subject delivery sequence number at the gateway.
    pub seq: u32,
    /// Bus time the frame completed on the wire.
    pub wire_ns: u64,
    /// Event payload.
    pub payload: Vec<u8>,
}

/// One fragment of a large NRT event streamed in chunks.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FragMsg {
    /// Publishing node id (255 when unknown).
    pub origin: u8,
    /// Subject uid.
    pub uid: u64,
    /// Per-subject delivery sequence number at the gateway.
    pub seq: u32,
    /// Bus time the (reassembled) event completed on the wire.
    pub wire_ns: u64,
    /// Byte offset of this chunk in the full payload.
    pub offset: u32,
    /// Total payload length in bytes.
    pub total: u32,
    /// The chunk.
    pub chunk: Vec<u8>,
}

/// Messages the gateway sends to a client.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ToClient {
    /// Handshake reply: the session is open (or resumed).
    Welcome {
        /// Gateway-assigned client id.
        client: u32,
        /// Gateway bus time at session open.
        now_ns: u64,
        /// The session token and verdict. Every socket client gets
        /// one; token 0 on the wire decodes as `None`.
        session: Option<SessionInfo>,
    },
    /// A single HRT/SRT/NRT event.
    Event(EventMsg),
    /// Several small NRT events coalesced into one message.
    Batch {
        /// The batched events, oldest first.
        entries: Vec<BatchEntry>,
    },
    /// One chunk of a fragment-streamed NRT bulk event.
    Frag(FragMsg),
    /// Events were shed from this client's queue (backpressure or
    /// staleness); the client observes the gap instead of silence.
    Shed {
        /// Class of the shed events.
        class: ChannelClass,
        /// Why.
        reason: Reason,
        /// How many events this notice covers.
        count: u32,
    },
    /// NRT frames fell out of the bounded replay buffer across a
    /// reconnect and cannot be replayed (§2.2.3 — the gap is reported,
    /// never papered over). A session that never resumes never sees
    /// it.
    Gap {
        /// Class of the lost frames (always NRT today).
        class: ChannelClass,
        /// How many frames are missing.
        count: u32,
    },
    /// The gateway is closing this session.
    Disconnect {
        /// Why.
        reason: Reason,
    },
}

// Message kind bytes. ToGateway and ToClient share one numbering space
// so a misrouted message fails loudly instead of aliasing.
const K_HELLO: u8 = 1;
const K_SUBSCRIBE: u8 = 2;
const K_BYE: u8 = 3;
const K_WELCOME: u8 = 16;
const K_EVENT: u8 = 17;
const K_BATCH: u8 = 18;
const K_FRAG: u8 = 19;
const K_SHED: u8 = 20;
const K_DISCONNECT: u8 = 21;
const K_GAP: u8 = 22;

/// Encode a timeliness class as its wire byte.
const fn class_code(class: ChannelClass) -> u8 {
    match class {
        ChannelClass::Hrt => 0,
        ChannelClass::Srt => 1,
        ChannelClass::Nrt => 2,
    }
}

fn class_from(code: u8) -> Result<ChannelClass, WireError> {
    match code {
        0 => Ok(ChannelClass::Hrt),
        1 => Ok(ChannelClass::Srt),
        2 => Ok(ChannelClass::Nrt),
        c => Err(WireError::BadClass(c)),
    }
}

/// Encode a client → gateway message.
pub fn encode_to_gateway(msg: &ToGateway) -> Vec<u8> {
    let mut out = Vec::with_capacity(48);
    match msg {
        ToGateway::Hello { subs, resume } => {
            RG.start(K_HELLO, &mut out);
            out.put_u16(*subs);
            // Token 0 means "no session to resume".
            let (token, wm) = match resume {
                Some(r) => (r.token, r.wm),
                None => (0, ClassWatermarks::default()),
            };
            for v in [token, wm.hrt, wm.srt, wm.nrt] {
                out.put_u64(v);
            }
        }
        ToGateway::Subscribe { uid } => {
            RG.start(K_SUBSCRIBE, &mut out);
            out.put_u64(*uid);
        }
        ToGateway::Bye => RG.start(K_BYE, &mut out),
    }
    out
}

/// Encode a gateway → client message.
pub fn encode_to_client(msg: &ToClient) -> Vec<u8> {
    let mut out = Vec::with_capacity(48);
    encode_to_client_into(msg, &mut out);
    out
}

/// Append the encoding of a gateway → client message to `out`, so a
/// caller that reuses one buffer encodes without allocating.
pub fn encode_to_client_into(msg: &ToClient, out: &mut Vec<u8>) {
    match msg {
        ToClient::Welcome {
            client,
            now_ns,
            session,
        } => {
            RG.start(K_WELCOME, out);
            out.put_u32(*client);
            out.put_u64(*now_ns);
            // Token 0 means "no session".
            let (token, verdict) = match session {
                Some(s) => (s.token, s.verdict),
                None => (0, ResumeVerdict::Fresh),
            };
            out.put_u64(token);
            out.push(verdict.code());
        }
        ToClient::Event(ev) => {
            RG.start(K_EVENT, out);
            out.push(class_code(ev.class));
            out.push(ev.origin);
            out.put_u64(ev.uid);
            out.put_u32(ev.seq);
            out.put_u64(ev.wire_ns);
            out.put_u64(ev.release_ns);
            push_payload(&ev.payload, out);
        }
        ToClient::Batch { entries } => {
            RG.start(K_BATCH, out);
            // Truncating would drop events the lane already counted as
            // delivered; the gateway batches at most NRT_BATCH_MAX.
            let count = u8::try_from(entries.len()).expect("a Batch carries at most 255 entries");
            out.push(count);
            for e in entries {
                out.push(e.origin);
                out.put_u64(e.uid);
                out.put_u32(e.seq);
                out.put_u64(e.wire_ns);
                push_payload(&e.payload, out);
            }
        }
        ToClient::Frag(fr) => {
            RG.start(K_FRAG, out);
            out.push(fr.origin);
            out.put_u64(fr.uid);
            out.put_u32(fr.seq);
            out.put_u64(fr.wire_ns);
            out.put_u32(fr.offset);
            out.put_u32(fr.total);
            push_payload(&fr.chunk, out);
        }
        ToClient::Shed {
            class,
            reason,
            count,
        } => {
            RG.start(K_SHED, out);
            out.push(class_code(*class));
            out.push(reason.code());
            out.put_u32(*count);
        }
        ToClient::Gap { class, count } => {
            RG.start(K_GAP, out);
            out.push(class_code(*class));
            out.put_u32(*count);
        }
        ToClient::Disconnect { reason } => {
            RG.start(K_DISCONNECT, out);
            out.push(reason.code());
        }
    }
}

/// Append a `u16`-length-prefixed byte string.
///
/// Truncating here would deliver a silently corrupted payload, so an
/// oversized one is a caller bug and panics loudly instead — the
/// gateway fragments NRT bulk and drops un-encodable HRT/SRT events
/// *before* encoding (see `encode_entries` in `crate::gateway`).
fn push_payload(bytes: &[u8], out: &mut Vec<u8>) {
    assert!(
        bytes.len() <= MAX_PAYLOAD,
        "payload of {} bytes exceeds MAX_PAYLOAD ({MAX_PAYLOAD}); fragment or reject it upstream",
        bytes.len()
    );
    out.put_bytes(bytes);
}

/// The fixed fields of an `Event` body in wire order — class (still a
/// raw byte), origin, uid, seq, wire_ns, release_ns.
fn event_head(r: &mut Reader<'_>) -> Result<(u8, u8, u64, u32, u64, u64), WireError> {
    Ok((r.u8()?, r.u8()?, r.u64()?, r.u32()?, r.u64()?, r.u64()?))
}

/// Session-accounting peek: if `frame` is an encoded *data* frame
/// (`Event`/`Batch`/`Frag` — the kinds a client's per-class watermark
/// counts), return `(class, uid, release_ns)` without a full decode.
/// Control frames (`Welcome`/`Shed`/`Gap`/`Disconnect`) and anything
/// whose envelope or `Event` head does not decode return `None`.
/// `Batch`/`Frag` frames are NRT by construction; their uid/release
/// fields are reported as 0 because only SRT staleness filtering
/// consumes them.
pub fn data_frame_meta(frame: &[u8]) -> Option<(ChannelClass, u64, u64)> {
    let mut r = RG.open(frame).ok()?;
    match r.kind() {
        K_EVENT => {
            let (class, _, uid, _, _, release_ns) = event_head(&mut r).ok()?;
            Some((class_from(class).ok()?, uid, release_ns))
        }
        K_BATCH | K_FRAG => Some((ChannelClass::Nrt, 0, 0)),
        _ => None,
    }
}

/// Decode a client → gateway message.
pub fn decode_to_gateway(buf: &[u8]) -> Result<ToGateway, WireError> {
    let mut r = RG.open(buf)?;
    let msg = match r.kind() {
        K_HELLO => {
            let (subs, token) = (r.u16()?, r.u64()?);
            let wm = ClassWatermarks {
                hrt: r.u64()?,
                srt: r.u64()?,
                nrt: r.u64()?,
            };
            let resume = (token != 0).then_some(ResumeReq { token, wm });
            ToGateway::Hello { subs, resume }
        }
        K_SUBSCRIBE => ToGateway::Subscribe { uid: r.u64()? },
        K_BYE => ToGateway::Bye,
        k => return Err(WireError::BadKind(k)),
    };
    r.finish()?;
    Ok(msg)
}

/// Decode a gateway → client message.
///
/// A class byte is checked only once the body's length is: a body that
/// is malformed *and* names no class reads `BadLength`.
pub fn decode_to_client(buf: &[u8]) -> Result<ToClient, WireError> {
    let mut r = RG.open(buf)?;
    let msg = match r.kind() {
        K_WELCOME => {
            let (client, now_ns, token) = (r.u32()?, r.u64()?, r.u64()?);
            let verdict = ResumeVerdict::from_code(r.u8()?);
            let session = (token != 0).then_some(SessionInfo { token, verdict });
            ToClient::Welcome {
                client,
                now_ns,
                session,
            }
        }
        K_EVENT => {
            let (class, origin, uid, seq, wire_ns, release_ns) = event_head(&mut r)?;
            let payload = r.bytes()?.to_vec();
            r.finish()?;
            return Ok(ToClient::Event(EventMsg {
                class: class_from(class)?,
                origin,
                uid,
                seq,
                wire_ns,
                release_ns,
                payload,
            }));
        }
        K_BATCH => {
            let count = r.u8()?;
            let mut entries = Vec::with_capacity(usize::from(count));
            for _ in 0..count {
                entries.push(BatchEntry {
                    origin: r.u8()?,
                    uid: r.u64()?,
                    seq: r.u32()?,
                    wire_ns: r.u64()?,
                    payload: r.bytes()?.to_vec(),
                });
            }
            ToClient::Batch { entries }
        }
        K_FRAG => ToClient::Frag(FragMsg {
            origin: r.u8()?,
            uid: r.u64()?,
            seq: r.u32()?,
            wire_ns: r.u64()?,
            offset: r.u32()?,
            total: r.u32()?,
            chunk: r.bytes()?.to_vec(),
        }),
        K_SHED => {
            let (class, reason, count) = (r.u8()?, r.u8()?, r.u32()?);
            r.finish()?;
            return Ok(ToClient::Shed {
                class: class_from(class)?,
                reason: Reason::from_code(reason),
                count,
            });
        }
        K_GAP => {
            let (class, count) = (r.u8()?, r.u32()?);
            r.finish()?;
            return Ok(ToClient::Gap {
                class: class_from(class)?,
                count,
            });
        }
        K_DISCONNECT => ToClient::Disconnect {
            reason: Reason::from_code(r.u8()?),
        },
        k => return Err(WireError::BadKind(k)),
    };
    r.finish()?;
    Ok(msg)
}

/// Write one length-prefixed message to a stream (at most
/// [`MAX_FRAME_LEN`] bytes).
pub fn write_frame<W: Write>(w: &mut W, msg: &[u8]) -> io::Result<()> {
    codec::write_frame(w, msg, MAX_FRAME_LEN)
}

/// Read one length-prefixed message from a stream. `Ok(None)` means
/// the peer closed the stream cleanly at a message boundary.
pub fn read_frame<R: Read>(r: &mut R) -> io::Result<Option<Vec<u8>>> {
    codec::read_frame(r, MAX_FRAME_LEN)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn framing_round_trips_and_rejects_oversize() {
        let msg = encode_to_client(&ToClient::Disconnect {
            reason: Reason::Shutdown,
        });
        let mut buf = Vec::new();
        write_frame(&mut buf, &msg).unwrap();
        write_frame(&mut buf, &msg).unwrap();
        let mut r = &buf[..];
        assert_eq!(read_frame(&mut r).unwrap().as_deref(), Some(&msg[..]));
        assert_eq!(read_frame(&mut r).unwrap().as_deref(), Some(&msg[..]));
        assert_eq!(read_frame(&mut r).unwrap(), None);

        let mut bomb = Vec::new();
        bomb.extend_from_slice(&(u32::MAX).to_le_bytes());
        assert!(read_frame(&mut &bomb[..]).is_err());
        let mut sink = Vec::new();
        assert!(write_frame(&mut sink, &vec![0u8; MAX_FRAME_LEN + 1]).is_err());
    }

    fn event_with(payload: Vec<u8>) -> ToClient {
        ToClient::Event(EventMsg {
            class: ChannelClass::Hrt,
            origin: 0,
            uid: 1,
            seq: 2,
            wire_ns: 3,
            release_ns: 4,
            payload,
        })
    }

    /// A payload at the documented bound encodes to a single frame the
    /// stream writer accepts, and round-trips intact.
    #[test]
    fn max_payload_event_fits_one_frame() {
        let msg = event_with(vec![0x5A; MAX_PAYLOAD]);
        let bytes = encode_to_client(&msg);
        assert!(bytes.len() <= MAX_FRAME_LEN);
        let mut buf = Vec::new();
        write_frame(&mut buf, &bytes).unwrap();
        assert_eq!(decode_to_client(&bytes).unwrap(), msg);
    }

    /// One byte over the bound panics loudly instead of silently
    /// truncating the payload.
    #[test]
    #[should_panic(expected = "MAX_PAYLOAD")]
    fn oversized_payload_panics_instead_of_truncating() {
        let _ = encode_to_client(&event_with(vec![0x5A; MAX_PAYLOAD + 1]));
    }

    /// A batch its one-byte count cannot describe panics too, instead
    /// of silently dropping the entries past 255.
    #[test]
    #[should_panic(expected = "255 entries")]
    fn oversized_batch_panics_instead_of_truncating() {
        let entry = BatchEntry {
            origin: 0,
            uid: 1,
            seq: 2,
            wire_ns: 3,
            payload: vec![],
        };
        let _ = encode_to_client(&ToClient::Batch {
            entries: vec![entry; 256],
        });
    }

    #[test]
    fn misrouted_broker_datagram_fails_on_magic() {
        // "RL..." is the broker protocol, not ours.
        assert_eq!(
            decode_to_client(&[b'R', b'L', 1, 17, 0, 0]),
            Err(WireError::BadMagic)
        );
    }

    #[test]
    fn version_zero_is_rejected_newer_versions_tolerate_tail() {
        let mut bytes = encode_to_gateway(&ToGateway::Subscribe { uid: 7 });
        bytes[2] = 0;
        assert_eq!(decode_to_gateway(&bytes), Err(WireError::BadVersion(0)));
        bytes[2] = WIRE_VERSION + 1;
        bytes.extend_from_slice(&[0xaa; 5]);
        assert_eq!(
            decode_to_gateway(&bytes),
            Ok(ToGateway::Subscribe { uid: 7 })
        );
    }

    /// A version-1 `Hello`/`Welcome` (short body, version byte 1) is
    /// refused on its version, and the same short body stamped with the
    /// current version is malformed.
    #[test]
    fn v1_handshake_bodies_are_refused() {
        let hello_v1 = [b'R', b'G', 1, 1, 3, 0];
        assert_eq!(decode_to_gateway(&hello_v1), Err(WireError::BadVersion(1)));
        let mut welcome_v1 = vec![b'R', b'G', 1, 16];
        welcome_v1.extend_from_slice(&9u32.to_le_bytes());
        welcome_v1.extend_from_slice(&77u64.to_le_bytes());
        assert_eq!(decode_to_client(&welcome_v1), Err(WireError::BadVersion(1)));
        let mut stamped = hello_v1;
        stamped[2] = WIRE_VERSION;
        assert_eq!(
            decode_to_gateway(&stamped),
            Err(WireError::BadLength { kind: 1, got: 2 })
        );
        welcome_v1[2] = WIRE_VERSION;
        assert_eq!(
            decode_to_client(&welcome_v1),
            Err(WireError::BadLength { kind: 16, got: 12 })
        );
    }

    /// The resume fields round-trip, and token 0 means "no session"
    /// on both sides of the handshake.
    #[test]
    fn resume_tail_round_trips_and_zero_token_is_none() {
        let hello = ToGateway::Hello {
            subs: 2,
            resume: Some(ResumeReq {
                token: 0xDEAD_BEEF,
                wm: ClassWatermarks {
                    hrt: 10,
                    srt: 20,
                    nrt: 30,
                },
            }),
        };
        assert_eq!(decode_to_gateway(&encode_to_gateway(&hello)), Ok(hello));
        let fresh = ToGateway::Hello {
            subs: 2,
            resume: None,
        };
        assert_eq!(decode_to_gateway(&encode_to_gateway(&fresh)), Ok(fresh));

        let welcome = ToClient::Welcome {
            client: 4,
            now_ns: 5,
            session: Some(SessionInfo {
                token: 6,
                verdict: ResumeVerdict::Gap,
            }),
        };
        assert_eq!(decode_to_client(&encode_to_client(&welcome)), Ok(welcome));
    }

    /// Unassigned reason / verdict bytes land in the Unknown variants
    /// instead of aliasing a known meaning or failing the decode.
    #[test]
    fn unknown_reason_and_verdict_bytes_are_preserved() {
        let shed = ToClient::Shed {
            class: ChannelClass::Nrt,
            reason: Reason::Unknown(99),
            count: 1,
        };
        assert_eq!(decode_to_client(&encode_to_client(&shed)), Ok(shed));
        assert_eq!(Reason::from_code(250), Reason::Unknown(250));
        assert_eq!(ResumeVerdict::from_code(250), ResumeVerdict::Unknown(250));
        assert_eq!(Reason::from_code(Reason::Slow.code()), Reason::Slow);
    }

    /// `data_frame_meta` classifies exactly the frames a watermark
    /// counts: events by their class byte, batches and fragments as
    /// NRT, control frames not at all.
    #[test]
    fn data_frame_meta_matches_watermark_counting() {
        let ev = encode_to_client(&ToClient::Event(EventMsg {
            class: ChannelClass::Srt,
            origin: 1,
            uid: 42,
            seq: 0,
            wire_ns: 7,
            release_ns: 99,
            payload: vec![1, 2],
        }));
        assert_eq!(data_frame_meta(&ev), Some((ChannelClass::Srt, 42, 99)));
        // A frame the decoder rejects is no data frame either.
        let mut v0 = ev.clone();
        v0[2] = 0;
        assert_eq!(decode_to_client(&v0), Err(WireError::BadVersion(0)));
        assert_eq!(data_frame_meta(&v0), None);
        let batch = encode_to_client(&ToClient::Batch { entries: vec![] });
        assert_eq!(data_frame_meta(&batch), Some((ChannelClass::Nrt, 0, 0)));
        let frag = encode_to_client(&ToClient::Frag(FragMsg {
            origin: 0,
            uid: 1,
            seq: 0,
            wire_ns: 0,
            offset: 0,
            total: 4,
            chunk: vec![0; 4],
        }));
        assert_eq!(data_frame_meta(&frag), Some((ChannelClass::Nrt, 0, 0)));
        for control in [
            encode_to_client(&ToClient::Welcome {
                client: 1,
                now_ns: 2,
                session: None,
            }),
            encode_to_client(&ToClient::Shed {
                class: ChannelClass::Nrt,
                reason: Reason::Slow,
                count: 1,
            }),
            encode_to_client(&ToClient::Gap {
                class: ChannelClass::Nrt,
                count: 1,
            }),
            encode_to_client(&ToClient::Disconnect {
                reason: Reason::Shutdown,
            }),
        ] {
            assert_eq!(data_frame_meta(&control), None);
        }
    }

    /// The Gap notice round-trips.
    #[test]
    fn gap_notice_round_trips() {
        let gap = ToClient::Gap {
            class: ChannelClass::Nrt,
            count: 17,
        };
        assert_eq!(decode_to_client(&encode_to_client(&gap)), Ok(gap));
    }
}

//! The broker ⇄ node message protocol and its versioned wire codec.
//!
//! Both transports speak the same messages; the loopback transport
//! passes them through channels as values, the UDP transport encodes
//! each message as one datagram using this codec. The codec is written
//! on the message kernel of `rtec_can::codec` (envelope, little-endian
//! bodies, bounds-checked reads), which the gateway protocol shares.
//! CAN frames embedded in messages reuse that module's frame codec
//! (version byte, big-endian 29-bit identifier, DLC, payload), so the
//! live wire format and any future tooling that captures raw frames
//! agree on the frame encoding.
//!
//! Layout of every datagram:
//!
//! ```text
//! bytes 0..2   magic "RL"
//! byte  2      protocol version (exactly 1; any other is rejected)
//! byte  3      message kind
//! bytes 4..    kind-specific body; embedded frames sit at the tail so
//!              the frame codec's exact-length check still applies
//! ```
//!
//! Decoding never panics; malformed buffers map to [`WireError`].

use rtec_can::codec::{self, Protocol, Put};
use rtec_can::Frame;

pub use rtec_can::codec::WireError;

/// Magic prefix of every live-protocol datagram.
pub const MAGIC: [u8; 2] = *b"RL";
/// Current protocol version (byte 2 of every datagram).
pub const WIRE_VERSION: u8 = 1;

/// The envelope: one version only, and one layout per kind.
const RL: Protocol = Protocol {
    magic: MAGIC,
    version: WIRE_VERSION,
    accepts: WIRE_VERSION..=WIRE_VERSION,
};

/// Messages a node sends to the broker.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ToBroker {
    /// Transport handshake: announce this node to the broker.
    Hello {
        /// The sender's node id.
        node: u8,
        /// Restart generation of this node (0 for the first launch).
        /// Lets the broker tell a rejoin handshake from a replayed or
        /// straggling duplicate of an earlier one.
        incarnation: u32,
    },
    /// Queue a frame for transmission.
    Submit {
        /// Node-local request handle (scoped per node).
        handle: u32,
        /// Opaque middleware tag echoed back on completion.
        tag: u64,
        /// The frame to transmit.
        frame: Frame,
    },
    /// Request cancellation of a pending transmission.
    Abort {
        /// Handle from the original submit.
        handle: u32,
    },
    /// Rewrite a pending frame's identifier (SRT promotion).
    UpdateId {
        /// Handle from the original submit.
        handle: u32,
        /// New raw 29-bit identifier.
        raw_id: u32,
    },
    /// Arm a one-shot timer at absolute bus time `at_ns`.
    TimerReq {
        /// Absolute bus time of the timer.
        at_ns: u64,
        /// Opaque token echoed back when it fires.
        token: u64,
    },
    /// A [`ToBroker::TimerReq`] for an SRT promotion, with what the
    /// broker needs to re-arm it itself while the frame is on the wire,
    /// where the bus would refuse the rewrite anyway: the submit it
    /// promotes and the chain the node's machine would re-arm along
    /// (`at_ns + every_ns`, … up to `last_ns`).
    PromoteReq {
        /// Absolute bus time of the timer.
        at_ns: u64,
        /// Opaque token echoed back when it fires.
        token: u64,
        /// Handle of the submit the timer promotes.
        handle: u32,
        /// Distance between two promotions.
        every_ns: u64,
        /// Bus time of the last promotion.
        last_ns: u64,
    },
    /// Accept completions on the channel bound to `etag` (an acceptance
    /// filter, installed idempotently). Sent per subscription in the
    /// `Welcome` turn of every incarnation: no filter outlives a node.
    Listen {
        /// The subscribed channel's etag.
        etag: u16,
    },
    /// Withdraw this node's armed [`ToBroker::TimerReq`]s carrying
    /// `token`; an unknown or already-fired token is a no-op.
    TimerCancel {
        /// Token from the request.
        token: u64,
    },
    /// Liveness reply to a broker [`ToNode::Ping`].
    Pong {
        /// The sender's node id.
        node: u8,
        /// The node's current incarnation.
        incarnation: u32,
        /// Nonce echoed from the ping.
        nonce: u64,
    },
    /// The node finished reacting to the broker's last message.
    Idle,
    /// The node processed `Shutdown` and is about to exit.
    Done {
        /// The sender's node id.
        node: u8,
    },
}

/// Messages the broker sends to a node.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ToNode {
    /// Handshake reply: the run starts at the given bus time.
    Welcome {
        /// Current bus time.
        now_ns: u64,
        /// Incarnation this welcome addresses; a node ignores welcomes
        /// for any incarnation other than its own (stale replays).
        incarnation: u32,
    },
    /// A frame completed on the wire and this node receives it.
    Deliver {
        /// Wire-completion bus time of the frame.
        completed_ns: u64,
        /// The received frame.
        frame: Frame,
    },
    /// A transmission submitted by this node completed.
    TxDone {
        /// Handle from the submit.
        handle: u32,
        /// Tag from the submit.
        tag: u64,
        /// Whether all addressed receivers took the frame (the
        /// broadcast-with-ack bit HRT redundancy skipping needs).
        all_received: bool,
        /// Wire-completion bus time.
        completed_ns: u64,
    },
    /// Reply to an `Abort` request.
    AbortResult {
        /// Handle from the abort request.
        handle: u32,
        /// Tag of the affected submit.
        tag: u64,
        /// `true` if the frame was removed before reaching the wire;
        /// `false` means it is (or was) on the wire and will complete.
        aborted: bool,
    },
    /// Liveness probe for a node the broker has not heard from within
    /// the heartbeat interval; the node answers [`ToBroker::Pong`].
    Ping {
        /// Nonce to echo back (the probe's bus time).
        nonce: u64,
    },
    /// A timer armed with `TimerReq` fired.
    Timer {
        /// Token from the request.
        token: u64,
        /// Bus time of the firing.
        now_ns: u64,
    },
    /// End of run: finish up and reply with `Done`.
    Shutdown,
}

// Message kind bytes. ToBroker and ToNode share one numbering space so
// a misrouted datagram fails loudly instead of aliasing. `Listen` and
// `TimerCancel` are safe to duplicate by construction, and `ChaosPlan`
// drops and duplicates `Deliver`s only, so it can lose neither.
const K_HELLO: u8 = 1;
const K_SUBMIT: u8 = 2;
const K_ABORT: u8 = 3;
const K_UPDATE_ID: u8 = 4;
const K_TIMER_REQ: u8 = 5;
const K_IDLE: u8 = 6;
const K_DONE: u8 = 7;
const K_PONG: u8 = 8;
const K_LISTEN: u8 = 9;
const K_TIMER_CANCEL: u8 = 10;
const K_PROMOTE_REQ: u8 = 11;
const K_WELCOME: u8 = 16;
const K_DELIVER: u8 = 17;
const K_TX_DONE: u8 = 18;
const K_ABORT_RESULT: u8 = 19;
const K_TIMER: u8 = 20;
const K_SHUTDOWN: u8 = 21;
const K_PING: u8 = 22;

/// Encode a node → broker message as one datagram.
pub fn encode_to_broker(msg: &ToBroker) -> Vec<u8> {
    let mut out = Vec::with_capacity(32);
    match msg {
        ToBroker::Hello { node, incarnation } => {
            RL.start(K_HELLO, &mut out);
            out.push(*node);
            out.put_u32(*incarnation);
        }
        ToBroker::Submit { handle, tag, frame } => {
            RL.start(K_SUBMIT, &mut out);
            out.put_u32(*handle);
            out.put_u64(*tag);
            codec::encode_into(frame, &mut out);
        }
        ToBroker::Abort { handle } => {
            RL.start(K_ABORT, &mut out);
            out.put_u32(*handle);
        }
        ToBroker::UpdateId { handle, raw_id } => {
            RL.start(K_UPDATE_ID, &mut out);
            out.put_u32(*handle);
            out.put_u32(*raw_id);
        }
        ToBroker::TimerReq { at_ns, token } => {
            RL.start(K_TIMER_REQ, &mut out);
            out.put_u64(*at_ns);
            out.put_u64(*token);
        }
        ToBroker::PromoteReq {
            at_ns,
            token,
            handle,
            every_ns,
            last_ns,
        } => {
            RL.start(K_PROMOTE_REQ, &mut out);
            out.put_u64(*at_ns);
            out.put_u64(*token);
            out.put_u32(*handle);
            out.put_u64(*every_ns);
            out.put_u64(*last_ns);
        }
        ToBroker::Pong {
            node,
            incarnation,
            nonce,
        } => {
            RL.start(K_PONG, &mut out);
            out.push(*node);
            out.put_u32(*incarnation);
            out.put_u64(*nonce);
        }
        ToBroker::Listen { etag } => {
            RL.start(K_LISTEN, &mut out);
            out.put_u16(*etag);
        }
        ToBroker::TimerCancel { token } => {
            RL.start(K_TIMER_CANCEL, &mut out);
            out.put_u64(*token);
        }
        ToBroker::Idle => RL.start(K_IDLE, &mut out),
        ToBroker::Done { node } => {
            RL.start(K_DONE, &mut out);
            out.push(*node);
        }
    }
    out
}

/// Encode a broker → node message as one datagram.
pub fn encode_to_node(msg: &ToNode) -> Vec<u8> {
    let mut out = Vec::with_capacity(32);
    match msg {
        ToNode::Welcome {
            now_ns,
            incarnation,
        } => {
            RL.start(K_WELCOME, &mut out);
            out.put_u64(*now_ns);
            out.put_u32(*incarnation);
        }
        ToNode::Deliver {
            completed_ns,
            frame,
        } => {
            RL.start(K_DELIVER, &mut out);
            out.put_u64(*completed_ns);
            codec::encode_into(frame, &mut out);
        }
        ToNode::TxDone {
            handle,
            tag,
            all_received,
            completed_ns,
        } => {
            RL.start(K_TX_DONE, &mut out);
            out.put_u32(*handle);
            out.put_u64(*tag);
            out.push(u8::from(*all_received));
            out.put_u64(*completed_ns);
        }
        ToNode::AbortResult {
            handle,
            tag,
            aborted,
        } => {
            RL.start(K_ABORT_RESULT, &mut out);
            out.put_u32(*handle);
            out.put_u64(*tag);
            out.push(u8::from(*aborted));
        }
        ToNode::Timer { token, now_ns } => {
            RL.start(K_TIMER, &mut out);
            out.put_u64(*token);
            out.put_u64(*now_ns);
        }
        ToNode::Ping { nonce } => {
            RL.start(K_PING, &mut out);
            out.put_u64(*nonce);
        }
        ToNode::Shutdown => RL.start(K_SHUTDOWN, &mut out),
    }
    out
}

/// Decode a node → broker datagram. Never panics.
pub fn decode_to_broker(buf: &[u8]) -> Result<ToBroker, WireError> {
    let mut r = RL.open(buf)?;
    let msg = match r.kind() {
        K_HELLO => ToBroker::Hello {
            node: r.u8()?,
            incarnation: r.u32()?,
        },
        K_SUBMIT => ToBroker::Submit {
            handle: r.u32()?,
            tag: r.u64()?,
            frame: codec::decode(r.rest())?,
        },
        K_ABORT => ToBroker::Abort { handle: r.u32()? },
        K_UPDATE_ID => ToBroker::UpdateId {
            handle: r.u32()?,
            raw_id: r.u32()?,
        },
        K_TIMER_REQ => ToBroker::TimerReq {
            at_ns: r.u64()?,
            token: r.u64()?,
        },
        K_PROMOTE_REQ => ToBroker::PromoteReq {
            at_ns: r.u64()?,
            token: r.u64()?,
            handle: r.u32()?,
            every_ns: r.u64()?,
            last_ns: r.u64()?,
        },
        K_IDLE => ToBroker::Idle,
        K_DONE => ToBroker::Done { node: r.u8()? },
        K_PONG => ToBroker::Pong {
            node: r.u8()?,
            incarnation: r.u32()?,
            nonce: r.u64()?,
        },
        K_LISTEN => ToBroker::Listen { etag: r.u16()? },
        K_TIMER_CANCEL => ToBroker::TimerCancel { token: r.u64()? },
        k => return Err(WireError::BadKind(k)),
    };
    r.finish()?;
    Ok(msg)
}

/// Decode a broker → node datagram. Never panics.
pub fn decode_to_node(buf: &[u8]) -> Result<ToNode, WireError> {
    let mut r = RL.open(buf)?;
    let msg = match r.kind() {
        K_WELCOME => ToNode::Welcome {
            now_ns: r.u64()?,
            incarnation: r.u32()?,
        },
        K_DELIVER => ToNode::Deliver {
            completed_ns: r.u64()?,
            frame: codec::decode(r.rest())?,
        },
        K_TX_DONE => ToNode::TxDone {
            handle: r.u32()?,
            tag: r.u64()?,
            all_received: r.u8()? != 0,
            completed_ns: r.u64()?,
        },
        K_ABORT_RESULT => ToNode::AbortResult {
            handle: r.u32()?,
            tag: r.u64()?,
            aborted: r.u8()? != 0,
        },
        K_TIMER => ToNode::Timer {
            token: r.u64()?,
            now_ns: r.u64()?,
        },
        K_SHUTDOWN => ToNode::Shutdown,
        K_PING => ToNode::Ping { nonce: r.u64()? },
        k => return Err(WireError::BadKind(k)),
    };
    r.finish()?;
    Ok(msg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtec_can::CanId;

    #[test]
    fn to_broker_round_trip() {
        let frame = Frame::new(CanId::new(0, 3, 77), &[1, 2, 3]);
        let msgs = [
            ToBroker::Hello {
                node: 5,
                incarnation: 3,
            },
            ToBroker::Pong {
                node: 5,
                incarnation: 3,
                nonce: 0x0123_4567_89AB_CDEF,
            },
            ToBroker::Submit {
                handle: 9,
                tag: 0xDEAD_BEEF_0042,
                frame,
            },
            ToBroker::Abort { handle: 3 },
            ToBroker::UpdateId {
                handle: 3,
                raw_id: 0x1FFF_FFFF,
            },
            ToBroker::TimerReq {
                at_ns: u64::MAX,
                token: 7,
            },
            ToBroker::PromoteReq {
                at_ns: 1,
                token: 7,
                handle: u32::MAX,
                every_ns: 160_000,
                last_ns: u64::MAX,
            },
            ToBroker::Listen { etag: 0x3FFF },
            ToBroker::TimerCancel { token: u64::MAX },
            ToBroker::Idle,
            ToBroker::Done { node: 0 },
        ];
        for msg in msgs {
            let bytes = encode_to_broker(&msg);
            assert_eq!(decode_to_broker(&bytes), Ok(msg));
        }
    }

    #[test]
    fn to_node_round_trip() {
        let frame = Frame::new(CanId::new(255, 127, 0x3FFF), &[0; 8]);
        let msgs = [
            ToNode::Welcome {
                now_ns: 0,
                incarnation: 2,
            },
            ToNode::Ping { nonce: 99 },
            ToNode::Deliver {
                completed_ns: 123,
                frame,
            },
            ToNode::TxDone {
                handle: 1,
                tag: 2,
                all_received: true,
                completed_ns: 3,
            },
            ToNode::AbortResult {
                handle: 1,
                tag: 2,
                aborted: false,
            },
            ToNode::Timer {
                token: 0xFFFF_FFFF_FFFF_FFFF,
                now_ns: 1,
            },
            ToNode::Shutdown,
        ];
        for msg in msgs {
            let bytes = encode_to_node(&msg);
            assert_eq!(decode_to_node(&bytes), Ok(msg));
        }
    }

    #[test]
    fn direction_mixups_are_rejected() {
        let b = encode_to_broker(&ToBroker::Idle);
        assert_eq!(decode_to_node(&b), Err(WireError::BadKind(K_IDLE)));
        let n = encode_to_node(&ToNode::Shutdown);
        assert_eq!(decode_to_broker(&n), Err(WireError::BadKind(K_SHUTDOWN)));
    }

    #[test]
    fn malformed_headers_are_rejected() {
        assert_eq!(decode_to_broker(&[]), Err(WireError::Truncated(0)));
        assert_eq!(decode_to_broker(b"XY\x01\x06"), Err(WireError::BadMagic));
        assert_eq!(
            decode_to_broker(b"RL\x09\x06"),
            Err(WireError::BadVersion(9))
        );
        assert_eq!(
            decode_to_broker(b"RL\x01\xFF"),
            Err(WireError::BadKind(255))
        );
        assert!(matches!(
            decode_to_broker(b"RL\x01\x06\x00"),
            Err(WireError::BadLength { .. })
        ));
    }

    /// The new kinds reject every malformed body length.
    #[test]
    fn heartbeat_bodies_are_length_checked() {
        for len in [0usize, 7, 9, 16] {
            let mut ping = Vec::new();
            RL.start(K_PING, &mut ping);
            ping.resize(4 + len, 0);
            assert!(matches!(
                decode_to_node(&ping),
                Err(WireError::BadLength { kind: K_PING, .. })
            ));
        }
        for len in [0usize, 1, 12, 14] {
            let mut pong = Vec::new();
            RL.start(K_PONG, &mut pong);
            pong.resize(4 + len, 0);
            assert!(matches!(
                decode_to_broker(&pong),
                Err(WireError::BadLength { kind: K_PONG, .. })
            ));
        }
    }
}

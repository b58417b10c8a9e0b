//! Property-based tests for the live runtime's wire codec: every
//! protocol message round-trips through its datagram encoding, and
//! arbitrary or mutated byte strings are rejected without panicking.

use proptest::prelude::*;
use rtec_can::{CanId, Frame};
use rtec_live::wire::{
    decode_to_broker, decode_to_node, encode_to_broker, encode_to_node, ToBroker, ToNode, WireError,
};

fn arb_frame() -> impl Strategy<Value = Frame> {
    (
        0u8..=255,
        0u8..128,
        0u16..(1 << 14),
        prop::collection::vec(any::<u8>(), 0..=8),
    )
        .prop_map(|(prio, tx, etag, payload)| Frame::new(CanId::new(prio, tx, etag), &payload))
}

fn arb_to_broker() -> impl Strategy<Value = ToBroker> {
    prop_oneof![
        (any::<u8>(), any::<u32>())
            .prop_map(|(node, incarnation)| ToBroker::Hello { node, incarnation }),
        (any::<u8>(), any::<u32>(), any::<u64>()).prop_map(|(node, incarnation, nonce)| {
            ToBroker::Pong {
                node,
                incarnation,
                nonce,
            }
        }),
        (any::<u32>(), any::<u64>(), arb_frame())
            .prop_map(|(handle, tag, frame)| ToBroker::Submit { handle, tag, frame }),
        any::<u32>().prop_map(|handle| ToBroker::Abort { handle }),
        (any::<u32>(), 0u32..(1 << 29))
            .prop_map(|(handle, raw_id)| ToBroker::UpdateId { handle, raw_id }),
        (any::<u64>(), any::<u64>()).prop_map(|(at_ns, token)| ToBroker::TimerReq { at_ns, token }),
        (
            any::<u64>(),
            any::<u64>(),
            any::<u32>(),
            any::<u64>(),
            any::<u64>()
        )
            .prop_map(
                |(at_ns, token, handle, every_ns, last_ns)| ToBroker::PromoteReq {
                    at_ns,
                    token,
                    handle,
                    every_ns,
                    last_ns,
                }
            ),
        any::<u16>().prop_map(|etag| ToBroker::Listen { etag }),
        any::<u64>().prop_map(|token| ToBroker::TimerCancel { token }),
        Just(ToBroker::Idle),
        any::<u8>().prop_map(|node| ToBroker::Done { node }),
    ]
}

fn arb_to_node() -> impl Strategy<Value = ToNode> {
    prop_oneof![
        (any::<u64>(), any::<u32>()).prop_map(|(now_ns, incarnation)| ToNode::Welcome {
            now_ns,
            incarnation
        }),
        any::<u64>().prop_map(|nonce| ToNode::Ping { nonce }),
        (any::<u64>(), arb_frame()).prop_map(|(completed_ns, frame)| ToNode::Deliver {
            completed_ns,
            frame
        }),
        (any::<u32>(), any::<u64>(), any::<bool>(), any::<u64>()).prop_map(
            |(handle, tag, all_received, completed_ns)| ToNode::TxDone {
                handle,
                tag,
                all_received,
                completed_ns,
            }
        ),
        (any::<u32>(), any::<u64>(), any::<bool>()).prop_map(|(handle, tag, aborted)| {
            ToNode::AbortResult {
                handle,
                tag,
                aborted,
            }
        }),
        (any::<u64>(), any::<u64>()).prop_map(|(token, now_ns)| ToNode::Timer { token, now_ns }),
        Just(ToNode::Shutdown),
    ]
}

proptest! {
    /// Node → broker messages survive the datagram encoding.
    #[test]
    fn to_broker_round_trips(msg in arb_to_broker()) {
        let bytes = encode_to_broker(&msg);
        prop_assert_eq!(decode_to_broker(&bytes).unwrap(), msg);
    }

    /// Broker → node messages survive the datagram encoding.
    #[test]
    fn to_node_round_trips(msg in arb_to_node()) {
        let bytes = encode_to_node(&msg);
        prop_assert_eq!(decode_to_node(&bytes).unwrap(), msg);
    }

    /// The two directions share one kind space: no node → broker
    /// datagram decodes as a broker → node message, so a misrouted
    /// `Listen` or `TimerCancel` fails loudly like every older kind.
    #[test]
    fn misrouted_datagrams_are_bad_kinds(msg in arb_to_broker()) {
        let bytes = encode_to_broker(&msg);
        prop_assert_eq!(decode_to_node(&bytes), Err(WireError::BadKind(bytes[3])));
    }

    /// Arbitrary byte strings never panic either decoder; they decode
    /// or they are rejected, quietly.
    #[test]
    fn random_bytes_never_panic(bytes in prop::collection::vec(any::<u8>(), 0..64)) {
        let _ = decode_to_broker(&bytes);
        let _ = decode_to_node(&bytes);
    }

    /// Any single-byte mutation of a valid datagram is either rejected
    /// or decodes to *some* message — never a panic, never an
    /// out-of-bounds read.
    #[test]
    fn mutated_datagrams_never_panic(
        msg in arb_to_broker(),
        pos_frac in 0.0f64..1.0,
        delta in 1u8..=255,
    ) {
        let mut bytes = encode_to_broker(&msg);
        let pos = ((bytes.len() as f64 * pos_frac) as usize).min(bytes.len() - 1);
        bytes[pos] = bytes[pos].wrapping_add(delta);
        let _ = decode_to_broker(&bytes);
        let _ = decode_to_node(&bytes);
    }

    /// Truncating a valid datagram at any point is rejected (or, for a
    /// cut exactly at the end, still decodes) — never a panic.
    #[test]
    fn truncated_datagrams_never_panic(msg in arb_to_node(), keep_frac in 0.0f64..1.0) {
        let bytes = encode_to_node(&msg);
        let keep = ((bytes.len() as f64) * keep_frac) as usize;
        let _ = decode_to_node(&bytes[..keep]);
        prop_assert!(decode_to_node(&bytes[..keep]).is_err() || keep == bytes.len());
    }

    /// The same for node → broker datagrams, `PromoteReq` among them.
    #[test]
    fn truncated_to_broker_datagrams_never_panic(msg in arb_to_broker(), keep_frac in 0.0f64..1.0) {
        let bytes = encode_to_broker(&msg);
        let keep = ((bytes.len() as f64) * keep_frac) as usize;
        prop_assert!(decode_to_broker(&bytes[..keep]).is_err() || keep == bytes.len());
    }

    /// A `PromoteReq` (kind 11) body is exactly 36 bytes; any other
    /// length is `BadLength`.
    #[test]
    fn promote_req_bodies_are_length_checked(len in 0usize..64) {
        let mut buf = vec![b'R', b'L', 1, 11];
        buf.resize(4 + len, 0);
        let decoded = decode_to_broker(&buf);
        if len == 36 {
            prop_assert!(decoded.is_ok(), "{:?}", decoded);
        } else {
            prop_assert_eq!(decoded, Err(WireError::BadLength { kind: 11, got: len }));
        }
    }

    /// Truncating or extending the incarnation/heartbeat bodies to any
    /// length their layouts do not allow is rejected cleanly. Hello is
    /// valid at exactly 5 bytes, Pong at 13, Ping at 8, Welcome at 12;
    /// so are the fixed-size bodies of Listen (kind 9, 2 bytes) and
    /// TimerCancel (kind 10, 8 bytes). The pre-incarnation 1-byte Hello
    /// and 8-byte Welcome are `BadLength` like any other wrong length.
    #[test]
    fn handshake_and_heartbeat_bodies_are_length_checked(len in 0usize..32) {
        for (kind, valid) in [(1u8, vec![5usize]), (8, vec![13]), (9, vec![2]), (10, vec![8])] {
            let mut buf = vec![b'R', b'L', 1, kind];
            buf.resize(4 + len, 0);
            let decoded = decode_to_broker(&buf);
            if valid.contains(&len) {
                prop_assert!(decoded.is_ok(), "{:?}", decoded);
            } else {
                prop_assert_eq!(decoded, Err(WireError::BadLength { kind, got: len }));
            }
        }
        for (kind, valid) in [(16u8, vec![12usize]), (22, vec![8])] {
            let mut buf = vec![b'R', b'L', 1, kind];
            buf.resize(4 + len, 0);
            prop_assert_eq!(decode_to_node(&buf).is_ok(), valid.contains(&len));
        }
    }
}

//! Property-based tests for the gateway ⇄ client wire codec, in the
//! same mold as the broker codec's (`crates/live/tests/wire_prop.rs`):
//! every message round-trips, and arbitrary / mutated / truncated byte
//! strings are rejected without panicking. On top of those, the
//! version contract: no version below the current one decodes, and
//! higher version bytes may carry trailing extension bytes.

use proptest::prelude::*;
use rtec_core::ChannelClass;
use rtec_gateway::wire::{
    decode_to_client, decode_to_gateway, encode_to_client, encode_to_client_into,
    encode_to_gateway, BatchEntry, ClassWatermarks, EventMsg, FragMsg, Reason, ResumeReq,
    ResumeVerdict, SessionInfo, ToClient, ToGateway, WireError, MAGIC, WIRE_VERSION,
};

fn arb_class() -> impl Strategy<Value = ChannelClass> {
    prop_oneof![
        Just(ChannelClass::Hrt),
        Just(ChannelClass::Srt),
        Just(ChannelClass::Nrt),
    ]
}

fn arb_payload() -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(any::<u8>(), 0..48)
}

/// Reasons that survive a round trip: the named variants, or Unknown
/// with a byte the decoder does not map back to a name.
fn arb_reason() -> impl Strategy<Value = Reason> {
    prop_oneof![
        Just(Reason::Slow),
        Just(Reason::Stale),
        Just(Reason::Shutdown),
        any::<u8>()
            .prop_filter("assigned reason codes decode to names", |c| !(1..=3)
                .contains(c))
            .prop_map(Reason::Unknown),
    ]
}

/// Verdicts that survive a round trip (same rule as [`arb_reason`]).
fn arb_verdict() -> impl Strategy<Value = ResumeVerdict> {
    prop_oneof![
        Just(ResumeVerdict::Fresh),
        Just(ResumeVerdict::Resumed),
        Just(ResumeVerdict::Expired),
        Just(ResumeVerdict::Gap),
        (4u8..=255).prop_map(ResumeVerdict::Unknown),
    ]
}

fn arb_wm() -> impl Strategy<Value = ClassWatermarks> {
    (any::<u64>(), any::<u64>(), any::<u64>()).prop_map(|(hrt, srt, nrt)| ClassWatermarks {
        hrt,
        srt,
        nrt,
    })
}

/// Token 0 is the wire encoding of "no session", so a present resume
/// request always carries a nonzero token.
fn arb_resume() -> impl Strategy<Value = Option<ResumeReq>> {
    prop_oneof![
        Just(None),
        (1u64..=u64::MAX, arb_wm()).prop_map(|(token, wm)| Some(ResumeReq { token, wm })),
    ]
}

fn arb_session() -> impl Strategy<Value = Option<SessionInfo>> {
    prop_oneof![
        Just(None),
        (1u64..=u64::MAX, arb_verdict())
            .prop_map(|(token, verdict)| Some(SessionInfo { token, verdict })),
    ]
}

fn arb_event() -> impl Strategy<Value = EventMsg> {
    (
        arb_class(),
        any::<u8>(),
        any::<u64>(),
        any::<u32>(),
        any::<u64>(),
        any::<u64>(),
        arb_payload(),
    )
        .prop_map(
            |(class, origin, uid, seq, wire_ns, release_ns, payload)| EventMsg {
                class,
                origin,
                uid,
                seq,
                wire_ns,
                release_ns,
                payload,
            },
        )
}

fn arb_batch_entry() -> impl Strategy<Value = BatchEntry> {
    (
        any::<u8>(),
        any::<u64>(),
        any::<u32>(),
        any::<u64>(),
        arb_payload(),
    )
        .prop_map(|(origin, uid, seq, wire_ns, payload)| BatchEntry {
            origin,
            uid,
            seq,
            wire_ns,
            payload,
        })
}

fn arb_frag() -> impl Strategy<Value = FragMsg> {
    (
        any::<u8>(),
        any::<u64>(),
        any::<u32>(),
        any::<u64>(),
        any::<u32>(),
        any::<u32>(),
        prop::collection::vec(any::<u8>(), 1..48),
    )
        .prop_map(
            |(origin, uid, seq, wire_ns, offset, total, chunk)| FragMsg {
                origin,
                uid,
                seq,
                wire_ns,
                offset,
                total,
                chunk,
            },
        )
}

fn arb_to_gateway() -> impl Strategy<Value = ToGateway> {
    prop_oneof![
        (any::<u16>(), arb_resume()).prop_map(|(subs, resume)| ToGateway::Hello { subs, resume }),
        any::<u64>().prop_map(|uid| ToGateway::Subscribe { uid }),
        Just(ToGateway::Bye),
    ]
}

fn arb_to_client() -> impl Strategy<Value = ToClient> {
    prop_oneof![
        (any::<u32>(), any::<u64>(), arb_session()).prop_map(|(client, now_ns, session)| {
            ToClient::Welcome {
                client,
                now_ns,
                session,
            }
        }),
        arb_event().prop_map(ToClient::Event),
        prop::collection::vec(arb_batch_entry(), 1..6)
            .prop_map(|entries| ToClient::Batch { entries }),
        arb_frag().prop_map(ToClient::Frag),
        (arb_class(), arb_reason(), any::<u32>()).prop_map(|(class, reason, count)| {
            ToClient::Shed {
                class,
                reason,
                count,
            }
        }),
        (arb_class(), any::<u32>()).prop_map(|(class, count)| ToClient::Gap { class, count }),
        arb_reason().prop_map(|reason| ToClient::Disconnect { reason }),
    ]
}

proptest! {
    /// Client → gateway messages survive the encoding.
    #[test]
    fn to_gateway_round_trips(msg in arb_to_gateway()) {
        let bytes = encode_to_gateway(&msg);
        prop_assert_eq!(decode_to_gateway(&bytes).unwrap(), msg);
    }

    /// Gateway → client messages survive the encoding.
    #[test]
    fn to_client_round_trips(msg in arb_to_client()) {
        let bytes = encode_to_client(&msg);
        prop_assert_eq!(decode_to_client(&bytes).unwrap(), msg);
    }

    /// The appending encoder is the same codec: after any prefix it
    /// adds exactly `encode_to_client`'s bytes and leaves the prefix
    /// as it was.
    #[test]
    fn encode_into_appends_exactly_the_encoding(
        msg in arb_to_client(),
        prefix in prop::collection::vec(any::<u8>(), 0..24),
    ) {
        let mut buf = prefix.clone();
        encode_to_client_into(&msg, &mut buf);
        prop_assert_eq!(&buf[..prefix.len()], prefix.as_slice());
        let whole = encode_to_client(&msg);
        prop_assert_eq!(&buf[prefix.len()..], whole.as_slice());
    }

    /// Arbitrary byte strings never panic either decoder.
    #[test]
    fn random_bytes_never_panic(bytes in prop::collection::vec(any::<u8>(), 0..96)) {
        let _ = decode_to_gateway(&bytes);
        let _ = decode_to_client(&bytes);
    }

    /// Any single-byte mutation of a valid message is rejected or
    /// decodes to *some* message — never a panic, never an
    /// out-of-bounds read.
    #[test]
    fn mutated_messages_never_panic(
        msg in arb_to_client(),
        pos_frac in 0.0f64..1.0,
        delta in 1u8..=255,
    ) {
        let mut bytes = encode_to_client(&msg);
        let pos = ((bytes.len() as f64 * pos_frac) as usize).min(bytes.len() - 1);
        bytes[pos] = bytes[pos].wrapping_add(delta);
        let _ = decode_to_client(&bytes);
        let _ = decode_to_gateway(&bytes);
    }

    /// The same for the handshake direction — resume tokens and
    /// watermarks included.
    #[test]
    fn mutated_handshakes_never_panic(
        msg in arb_to_gateway(),
        pos_frac in 0.0f64..1.0,
        delta in 1u8..=255,
    ) {
        let mut bytes = encode_to_gateway(&msg);
        let pos = ((bytes.len() as f64 * pos_frac) as usize).min(bytes.len() - 1);
        bytes[pos] = bytes[pos].wrapping_add(delta);
        let _ = decode_to_gateway(&bytes);
        let _ = decode_to_client(&bytes);
    }

    /// Truncating a valid message at any point short of its full
    /// length is rejected — never a panic.
    #[test]
    fn truncated_messages_are_rejected(msg in arb_to_client(), keep_frac in 0.0f64..1.0) {
        let bytes = encode_to_client(&msg);
        let keep = ((bytes.len() as f64) * keep_frac) as usize;
        prop_assert!(decode_to_client(&bytes[..keep]).is_err() || keep == bytes.len());
    }

    /// Truncated resume handshakes are rejected too — a `Hello` cut
    /// anywhere inside its token or watermark tail must fail, never
    /// silently lose the resume request.
    #[test]
    fn truncated_handshakes_are_rejected(msg in arb_to_gateway(), keep_frac in 0.0f64..1.0) {
        let bytes = encode_to_gateway(&msg);
        let keep = ((bytes.len() as f64) * keep_frac) as usize;
        prop_assert!(decode_to_gateway(&bytes[..keep]).is_err() || keep == bytes.len());
    }

    /// A message stamped with a higher version byte decodes under our
    /// layout, with or without trailing extension bytes.
    #[test]
    fn higher_versions_tolerate_trailing_bytes(
        msg in arb_to_client(),
        version in (WIRE_VERSION + 1)..=255,
        tail in prop::collection::vec(any::<u8>(), 0..8),
    ) {
        let mut bytes = encode_to_client(&msg);
        bytes[2] = version;
        bytes.extend_from_slice(&tail);
        prop_assert_eq!(decode_to_client(&bytes).unwrap(), msg);
    }

    /// Every version below the current one is rejected in both
    /// directions: version 0 never existed, and version 1 had no
    /// session handshake.
    #[test]
    fn version_zero_is_rejected(
        to_client in arb_to_client(),
        to_gateway in arb_to_gateway(),
        version in 0..WIRE_VERSION,
    ) {
        let mut bytes = encode_to_client(&to_client);
        bytes[2] = version;
        prop_assert_eq!(decode_to_client(&bytes), Err(WireError::BadVersion(version)));
        let mut bytes = encode_to_gateway(&to_gateway);
        bytes[2] = version;
        prop_assert_eq!(decode_to_gateway(&bytes), Err(WireError::BadVersion(version)));
    }

    /// Current-version bodies are strictly length-checked: any
    /// appended tail turns a valid message into `BadLength`.
    #[test]
    fn current_version_rejects_trailing_bytes(
        msg in arb_to_gateway(),
        tail in prop::collection::vec(any::<u8>(), 1..8),
    ) {
        let mut bytes = encode_to_gateway(&msg);
        bytes.extend_from_slice(&tail);
        let bad_length = matches!(decode_to_gateway(&bytes), Err(WireError::BadLength { .. }));
        prop_assert!(bad_length);
    }
}

/// The two protocol families reject each other's magic loudly.
#[test]
fn wrong_magic_is_rejected() {
    let mut bytes = encode_to_gateway(&ToGateway::Bye);
    bytes[0] = b'R';
    bytes[1] = b'L'; // the broker protocol's magic
    assert_eq!(decode_to_gateway(&bytes), Err(WireError::BadMagic));
    assert_eq!(MAGIC, *b"RG");
}

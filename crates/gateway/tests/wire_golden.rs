//! Golden bytes of both wire protocols: one fixed instance of every
//! message kind of the broker ⇄ node protocol (`RL`, 18 kinds) and of
//! the gateway ⇄ client protocol (`RG`, 10 kinds), encoded and compared
//! against hex literals.
//!
//! The round-trip proptests (`wire_prop.rs` in both crates) would pass
//! a codec whose layout changed on both sides at once; these literals
//! would not. Every literal also decodes back to its instance, so a
//! decoder that moved a field is caught as well. A change here is a
//! wire-format change: peers built before it stop interoperating.

use rtec_can::{CanId, Frame};
use rtec_core::ChannelClass;
use rtec_gateway::wire::{
    decode_to_client, decode_to_gateway, encode_to_client, encode_to_gateway, BatchEntry,
    ClassWatermarks, EventMsg, FragMsg, Reason, ResumeReq, ResumeVerdict, SessionInfo, ToClient,
    ToGateway,
};
use rtec_live::wire::{decode_to_broker, decode_to_node, encode_to_broker, encode_to_node};
use rtec_live::{ToBroker, ToNode};

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn unhex(s: &str) -> Vec<u8> {
    (0..s.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&s[i..i + 2], 16).expect("hex literal"))
        .collect()
}

fn frame() -> Frame {
    Frame::new(CanId::new(0x12, 0x34, 0x0567), &[0xA0, 0xB1, 0xC2])
}

#[test]
fn broker_protocol_node_to_broker_bytes() {
    let cases = [
        (
            ToBroker::Hello {
                node: 7,
                incarnation: 0x0102_0304,
            },
            "524c01010704030201",
        ),
        (
            ToBroker::Submit {
                handle: 0x1122_3344,
                tag: 0x0102_0304_0506_0708,
                frame: frame(),
            },
            "524c010244332211080706050403020101024d056703a0b1c2",
        ),
        (
            ToBroker::Abort {
                handle: 0xA1B2_C3D4,
            },
            "524c0103d4c3b2a1",
        ),
        (
            ToBroker::UpdateId {
                handle: 9,
                raw_id: 0x1ABC_DEF0,
            },
            "524c010409000000f0debc1a",
        ),
        (
            ToBroker::TimerReq {
                at_ns: 0x0011_2233_4455_6677,
                token: 0x8899_AABB_CCDD_EEFF,
            },
            "524c01057766554433221100ffeeddccbbaa9988",
        ),
        (ToBroker::Idle, "524c0106"),
        (ToBroker::Done { node: 0x2A }, "524c01072a"),
        (
            ToBroker::Pong {
                node: 3,
                incarnation: 5,
                nonce: 0xFEDC_BA98_7654_3210,
            },
            "524c010803050000001032547698badcfe",
        ),
        (ToBroker::Listen { etag: 0x3ABC }, "524c0109bc3a"),
        (
            ToBroker::TimerCancel {
                token: 0x0F0E_0D0C_0B0A_0908,
            },
            "524c010a08090a0b0c0d0e0f",
        ),
        (
            ToBroker::PromoteReq {
                at_ns: 0x0011_2233_4455_6677,
                token: 0x8899_AABB_CCDD_EEFF,
                handle: 0x0102_0304,
                every_ns: 160_000,
                last_ns: 0x0A0B_0C0D_0E0F_1011,
            },
            "524c010b7766554433221100ffeeddccbbaa998804030201007102000000000011100f0e0d0c0b0a",
        ),
    ];
    for (msg, golden) in cases {
        assert_eq!(hex(&encode_to_broker(&msg)), golden, "{msg:?}");
        assert_eq!(decode_to_broker(&unhex(golden)), Ok(msg));
    }
}

#[test]
fn broker_protocol_broker_to_node_bytes() {
    let cases = [
        (
            ToNode::Welcome {
                now_ns: 0x0102_0304_0506_0708,
                incarnation: 0x0A0B_0C0D,
            },
            "524c011008070605040302010d0c0b0a",
        ),
        (
            ToNode::Deliver {
                completed_ns: 0x1000_2000_3000_4000,
                frame: frame(),
            },
            "524c0111004000300020001001024d056703a0b1c2",
        ),
        (
            ToNode::TxDone {
                handle: 0x0403_0201,
                tag: 0x1122_3344_5566_7788,
                all_received: true,
                completed_ns: 0x99,
            },
            "524c0112010203048877665544332211019900000000000000",
        ),
        (
            ToNode::AbortResult {
                handle: 0x10,
                tag: 0x20,
                aborted: false,
            },
            "524c011310000000200000000000000000",
        ),
        (
            ToNode::Timer {
                token: 0xDEAD_BEEF,
                now_ns: 0xCAFE_F00D_0000_0001,
            },
            "524c0114efbeadde00000000010000000df0feca",
        ),
        (ToNode::Shutdown, "524c0115"),
        (
            ToNode::Ping {
                nonce: 0x5555_AAAA_5555_AAAA,
            },
            "524c0116aaaa5555aaaa5555",
        ),
    ];
    for (msg, golden) in cases {
        assert_eq!(hex(&encode_to_node(&msg)), golden, "{msg:?}");
        assert_eq!(decode_to_node(&unhex(golden)), Ok(msg));
    }
}

#[test]
fn gateway_protocol_client_to_gateway_bytes() {
    let cases = [
        (
            ToGateway::Hello {
                subs: 0x0203,
                resume: Some(ResumeReq {
                    token: 0x0102_0304_0506_0708,
                    wm: ClassWatermarks {
                        hrt: 0x11,
                        srt: 0x2222,
                        nrt: 0x0033_3333,
                    },
                }),
            },
            "5247020103020807060504030201110000000000000022220000000000003333330000000000",
        ),
        (
            ToGateway::Subscribe {
                uid: 0xFEED_FACE_0BAD_F00D,
            },
            "524702020df0ad0bcefaedfe",
        ),
        (ToGateway::Bye, "52470203"),
    ];
    for (msg, golden) in cases {
        assert_eq!(hex(&encode_to_gateway(&msg)), golden, "{msg:?}");
        assert_eq!(decode_to_gateway(&unhex(golden)), Ok(msg));
    }
}

#[test]
fn gateway_protocol_gateway_to_client_bytes() {
    let cases = [
        (
            ToClient::Welcome {
                client: 0x0C0D_0E0F,
                now_ns: 0x1234_5678,
                session: Some(SessionInfo {
                    token: 0xABCD_EF01_2345_6789,
                    verdict: ResumeVerdict::Gap,
                }),
            },
            "524702100f0e0d0c78563412000000008967452301efcdab03",
        ),
        (
            ToClient::Event(EventMsg {
                class: ChannelClass::Srt,
                origin: 4,
                uid: 0x0102_0304_0506_0708,
                seq: 0x0A0B_0C0D,
                wire_ns: 0x1111,
                release_ns: 0x2222_3333,
                payload: vec![0xDE, 0xAD],
            }),
            "52470211010408070605040302010d0c0b0a111100000000000033332222000000000200dead",
        ),
        (
            ToClient::Batch {
                entries: vec![
                    BatchEntry {
                        origin: 1,
                        uid: 0x10,
                        seq: 2,
                        wire_ns: 0x30,
                        payload: vec![0xAA],
                    },
                    BatchEntry {
                        origin: 255,
                        uid: 0x0F0E_0D0C_0B0A_0908,
                        seq: 0x0403_0201,
                        wire_ns: 0x4000,
                        payload: vec![],
                    },
                ],
            },
            concat!(
                "52470212020110000000000000000200000030000000000000000100aa",
                "ff08090a0b0c0d0e0f0102030400400000000000000000",
            ),
        ),
        (
            ToClient::Frag(FragMsg {
                origin: 9,
                uid: 0x77,
                seq: 0x88,
                wire_ns: 0x99,
                offset: 0x0100,
                total: 0x0300,
                chunk: vec![1, 2, 3],
            }),
            "5247021309770000000000000088000000990000000000000000010000000300000300010203",
        ),
        (
            ToClient::Shed {
                class: ChannelClass::Nrt,
                reason: Reason::Stale,
                count: 0x0102_0304,
            },
            "52470214020204030201",
        ),
        (
            ToClient::Disconnect {
                reason: Reason::Unknown(0x7F),
            },
            "524702157f",
        ),
        (
            ToClient::Gap {
                class: ChannelClass::Hrt,
                count: 0x55,
            },
            "524702160055000000",
        ),
    ];
    for (msg, golden) in cases {
        assert_eq!(hex(&encode_to_client(&msg)), golden, "{msg:?}");
        assert_eq!(decode_to_client(&unhex(golden)), Ok(msg));
    }
}

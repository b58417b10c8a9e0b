//! Fault-injection suite: every conformance rule gets one test that
//! breaks exactly its invariant and asserts the rule fires — and that a
//! minimally repaired variant does not.

use rtec_analysis::admission::{CalendarPlan, PlannedSlot, SlotRequest};
use rtec_analysis::wctt::{slot_layout, SlotLayout};
use rtec_can::bits::BitTiming;
use rtec_can::NodeId;
use rtec_conformance::{audit, lint, AuditContext, ChannelDecl, LintInput, RuleId};
use rtec_core::channel::{ChannelClass, ChannelSpec, HrtSpec, NrtSpec, SrtSpec};
use rtec_core::node::{pack_tag, TagKind};
use rtec_sim::{Duration, Time, TraceEvent};
use std::collections::HashMap;

const TIMING: BitTiming = BitTiming::MBIT_1;
const ROUND: Duration = Duration::from_ms(10);

fn base_input() -> LintInput {
    LintInput::new(8, TIMING, ROUND)
}

fn good_layout() -> SlotLayout {
    slot_layout(8, 2, TIMING, Duration::from_us(40))
}

fn good_plan() -> CalendarPlan {
    let requests = [SlotRequest {
        etag: 16,
        publisher: NodeId(0),
        dlc: 8,
        omission_degree: 2,
        period: ROUND,
    }];
    CalendarPlan::plan(ROUND, &requests, TIMING, Duration::from_us(40)).unwrap()
}

fn slot_at(etag: u16, node: u8, start: Duration, layout: SlotLayout) -> PlannedSlot {
    PlannedSlot {
        etag,
        publisher: NodeId(node),
        start,
        layout,
        occurrence: 0,
    }
}

/// Build a 29-bit identifier the way `rtec_can::id` encodes it.
fn mk_id(prio: u8, node: u8, etag: u16) -> u64 {
    (u64::from(prio) << 21) | (u64::from(node) << 14) | u64::from(etag)
}

fn ev(at_ns: u64, kind: &'static str, fields: Vec<(&'static str, u64)>) -> TraceEvent {
    TraceEvent {
        time: Time::from_ns(at_ns),
        source: "test".into(),
        kind,
        fields,
    }
}

fn tx(at_ns: u64, id: u64, node: u64, tag: u64) -> TraceEvent {
    ev(
        at_ns,
        "tx_start",
        vec![("id", id), ("node", node), ("attempt", 1), ("tag", tag)],
    )
}

// ---------------------------------------------------------------- S1

#[test]
fn s1_overlapping_slots_fire() {
    let mut input = base_input();
    let l = good_layout();
    input.calendar = Some(CalendarPlan {
        round: ROUND,
        slots: vec![
            slot_at(16, 0, Duration::ZERO, l),
            // Starts halfway through the first slot's reservation.
            slot_at(17, 1, Duration::from_ns(l.total().as_ns() / 2), l),
        ],
        timing: TIMING,
        gap: Duration::from_us(40),
    });
    let rep = lint(&input);
    assert!(rep.fired(RuleId::SlotOverlap), "{rep}");
}

#[test]
fn s1_slot_past_round_end_fires() {
    let mut input = base_input();
    let l = good_layout();
    input.calendar = Some(CalendarPlan {
        round: ROUND,
        slots: vec![slot_at(16, 0, ROUND - Duration::from_us(10), l)],
        timing: TIMING,
        gap: Duration::from_us(40),
    });
    assert!(lint(&input).fired(RuleId::SlotOverlap));
}

// ---------------------------------------------------------------- S2

#[test]
fn s2_squeezed_setup_margin_fires() {
    let mut input = base_input();
    let mut l = good_layout();
    l.delta_t_wait = Duration::from_us(10); // < 154 µs ΔT_wait
    input.calendar = Some(CalendarPlan {
        round: ROUND,
        slots: vec![slot_at(16, 0, Duration::ZERO, l)],
        timing: TIMING,
        gap: Duration::from_us(40),
    });
    let rep = lint(&input);
    assert!(rep.fired(RuleId::SlotSetupMargin), "{rep}");
    assert!(!rep.fired(RuleId::SlotOverlap));
}

// ---------------------------------------------------------------- S3

#[test]
fn s3_srt_band_reaching_priority_zero_fires() {
    let mut input = base_input();
    input.priority_slots.p_min = 0; // collides with P_HRT
    assert!(lint(&input).fired(RuleId::PriorityBandPartition));
}

#[test]
fn s3_nrt_channel_in_rt_band_fires() {
    let mut input = base_input();
    input.channels.push(ChannelDecl {
        etag: 20,
        publisher: NodeId(1),
        spec: ChannelSpec::nrt(NrtSpec {
            priority: 5,
            fragmented: false,
        }),
    });
    assert!(lint(&input).fired(RuleId::PriorityBandPartition));
}

// ---------------------------------------------------------------- S4

#[test]
fn s4_infrastructure_etag_collision_fires() {
    let mut input = base_input();
    input.channels.push(ChannelDecl {
        etag: 1, // FOLLOW-UP's etag
        publisher: NodeId(0),
        spec: ChannelSpec::srt(SrtSpec::default()),
    });
    assert!(lint(&input).fired(RuleId::IdCollision));
}

#[test]
fn s4_duplicate_binding_same_node_fires() {
    let mut input = base_input();
    for _ in 0..2 {
        input.channels.push(ChannelDecl {
            etag: 16,
            publisher: NodeId(2),
            spec: ChannelSpec::srt(SrtSpec::default()),
        });
    }
    assert!(lint(&input).fired(RuleId::IdCollision));
}

#[test]
fn s4_phantom_publisher_fires() {
    let mut input = base_input();
    input.channels.push(ChannelDecl {
        etag: 16,
        publisher: NodeId(99), // only 8 nodes configured
        spec: ChannelSpec::srt(SrtSpec::default()),
    });
    assert!(lint(&input).fired(RuleId::IdCollision));
}

// ---------------------------------------------------------------- S5

#[test]
fn s5_zero_priority_slot_fires() {
    let mut input = base_input();
    input.priority_slots.slot = Duration::ZERO;
    assert!(lint(&input).fired(RuleId::SrtHorizonConsistency));
}

#[test]
fn s5_expiration_before_deadline_fires() {
    let mut input = base_input();
    input.channels.push(ChannelDecl {
        etag: 16,
        publisher: NodeId(0),
        spec: ChannelSpec::srt(SrtSpec {
            default_deadline: Duration::from_ms(5),
            default_expiration: Some(Duration::from_ms(1)),
            ..SrtSpec::default()
        }),
    });
    let rep = lint(&input);
    assert!(rep.fired(RuleId::SrtHorizonConsistency), "{rep}");
    assert!(!rep.passes());
}

// ---------------------------------------------------------------- S6

#[test]
fn s6_period_not_dividing_round_fires() {
    let mut input = base_input();
    input.channels.push(ChannelDecl {
        etag: 16,
        publisher: NodeId(0),
        spec: ChannelSpec::hrt(HrtSpec {
            period: Duration::from_ms(3), // 10 ms round % 3 ms != 0
            dlc: 8,
            omission_degree: 2,
            sporadic: false,
        }),
    });
    assert!(lint(&input).fired(RuleId::PeriodDividesRound));
}

// ---------------------------------------------------------------- S7

#[test]
fn s7_oversized_dlc_fires() {
    let mut input = base_input();
    input.channels.push(ChannelDecl {
        etag: 16,
        publisher: NodeId(0),
        spec: ChannelSpec::hrt(HrtSpec {
            period: ROUND,
            dlc: 9,
            omission_degree: 0,
            sporadic: false,
        }),
    });
    assert!(lint(&input).fired(RuleId::DlcRange));
}

// ---------------------------------------------------------------- S8

#[test]
fn s8_overcommitted_round_fires() {
    let mut input = base_input();
    let l = good_layout();
    // 15 k=2 slots demand ~10.8 ms of a 10 ms round.
    let slots: Vec<PlannedSlot> = (0..15)
        .map(|i| {
            slot_at(
                16 + i,
                0,
                Duration::from_ns(u64::from(i) * l.total().as_ns()),
                l,
            )
        })
        .collect();
    input.calendar = Some(CalendarPlan {
        round: ROUND,
        slots,
        timing: TIMING,
        gap: Duration::from_us(40),
    });
    assert!(lint(&input).fired(RuleId::ReservedUtilization));
}

// ------------------------------------------------- clean baseline

#[test]
fn clean_configuration_passes_every_static_rule() {
    let mut input = base_input();
    input.calendar = Some(good_plan());
    input.channels.push(ChannelDecl {
        etag: 16,
        publisher: NodeId(0),
        spec: ChannelSpec::hrt(HrtSpec {
            period: ROUND,
            dlc: 8,
            omission_degree: 2,
            sporadic: false,
        }),
    });
    input.channels.push(ChannelDecl {
        etag: 17,
        publisher: NodeId(1),
        spec: ChannelSpec::srt(SrtSpec::default()),
    });
    let rep = lint(&input);
    assert!(rep.passes(), "{rep}");
    assert_eq!(rep.diagnostics.len(), 0, "{rep}");
}

// ---------------------------------------------------------------- T1

#[test]
fn t1_arbitration_winner_not_minimum_fires() {
    let lo = mk_id(3, 1, 16);
    let hi = mk_id(200, 2, 17);
    let trace = vec![ev(
        1_000,
        "arb",
        vec![
            ("cand", (1 << 32) | lo),
            ("cand", (2 << 32) | hi),
            ("win", hi),
        ],
    )];
    let rep = audit(&AuditContext::bare(), &trace);
    assert!(rep.fired(RuleId::ArbWinnerOrder), "{rep}");
    assert!(!rep.fired(RuleId::DuplicateContender));
}

// ---------------------------------------------------------------- T2

#[test]
fn t2_hrt_frame_outside_reserved_slot_fires() {
    let plan = good_plan();
    let slot_end = plan.slots[0].deadline().as_ns();
    let ctx = AuditContext {
        calendar: Some(plan),
        calendar_start: Some(Time::ZERO),
        ..AuditContext::bare()
    };
    // Transmit at P_HRT well after the slot's delivery deadline.
    let trace = vec![tx(
        slot_end + 2_000_000,
        mk_id(0, 0, 16),
        0,
        pack_tag(TagKind::Hrt, 16, 1),
    )];
    let rep = audit(&ctx, &trace);
    assert!(rep.fired(RuleId::HrtSlotWindow), "{rep}");
}

#[test]
fn t2_hrt_frame_inside_slot_passes() {
    let plan = good_plan();
    let lst = plan.slots[0].lst().as_ns();
    let ctx = AuditContext {
        calendar: Some(plan),
        calendar_start: Some(Time::ZERO),
        ..AuditContext::bare()
    };
    let trace = vec![tx(lst, mk_id(0, 0, 16), 0, pack_tag(TagKind::Hrt, 16, 1))];
    let rep = audit(&ctx, &trace);
    assert!(!rep.fired(RuleId::HrtSlotWindow), "{rep}");
}

// ---------------------------------------------------------------- T3

fn deferred_ctx() -> AuditContext {
    let mut hrt_periods = HashMap::new();
    hrt_periods.insert(16u16, ROUND);
    AuditContext {
        hrt_periods,
        hrt_deferred_delivery: true,
        ..AuditContext::bare()
    }
}

fn deliver(at_ns: u64, etag: u64, node: u64, wire_ns: u64) -> TraceEvent {
    ev(
        at_ns,
        "hrt_deliver",
        vec![
            ("etag", etag),
            ("round", 0),
            ("slot", 0),
            ("node", node),
            ("wire", wire_ns),
        ],
    )
}

#[test]
fn t3_delivery_before_wire_completion_fires() {
    let trace = vec![deliver(900_000, 16, 2, 950_000)];
    assert!(audit(&deferred_ctx(), &trace).fired(RuleId::DeferredDeliveryJitter));
}

#[test]
fn t3_off_grid_delivery_cadence_fires() {
    // Deliveries at 1 ms, 11 ms, 14 ms: the last gap (3 ms) is far off
    // the 10 ms period grid.
    let trace = vec![
        deliver(1_000_000, 16, 2, 900_000),
        deliver(11_000_000, 16, 2, 10_900_000),
        deliver(14_000_000, 16, 2, 13_900_000),
    ];
    assert!(audit(&deferred_ctx(), &trace).fired(RuleId::DeferredDeliveryJitter));
}

#[test]
fn t3_period_multiple_gap_passes() {
    // A lost event makes the gap 2 periods — still on the grid.
    let trace = vec![
        deliver(1_000_000, 16, 2, 900_000),
        deliver(21_000_000, 16, 2, 20_900_000),
    ];
    let rep = audit(&deferred_ctx(), &trace);
    assert!(!rep.fired(RuleId::DeferredDeliveryJitter), "{rep}");
}

// ---------------------------------------------------------------- T4

#[test]
fn t4_expired_event_on_wire_fires() {
    let tag = pack_tag(TagKind::Srt, 20, 7);
    let trace = vec![
        ev(
            5_000_000,
            "srt_expire",
            vec![("etag", 20), ("seq", 7), ("node", 3), ("tag", tag)],
        ),
        tx(6_000_000, mk_id(50, 3, 20), 3, tag),
    ];
    assert!(audit(&AuditContext::bare(), &trace).fired(RuleId::ExpiredNeverSent));
}

#[test]
fn t4_same_tag_from_other_node_passes() {
    // SRT sequence numbers are per-node: node 4 legitimately reuses the
    // (etag, seq) pair node 3's expired event carried.
    let tag = pack_tag(TagKind::Srt, 20, 7);
    let trace = vec![
        ev(
            5_000_000,
            "srt_expire",
            vec![("etag", 20), ("seq", 7), ("node", 3), ("tag", tag)],
        ),
        tx(6_000_000, mk_id(50, 4, 20), 4, tag),
    ];
    let rep = audit(&AuditContext::bare(), &trace);
    assert!(!rep.fired(RuleId::ExpiredNeverSent), "{rep}");
}

// ---------------------------------------------------------------- T5

fn frag_enqueue(at_ns: u64, etag: u64, node: u64, frags: u64, bytes: u64) -> TraceEvent {
    ev(
        at_ns,
        "nrt_enqueue",
        vec![
            ("etag", etag),
            ("node", node),
            ("frags", frags),
            ("bytes", bytes),
            ("fragmented", 1),
        ],
    )
}

fn frag_tx_end(at_ns: u64, etag: u16, node: u64, seq: u32) -> TraceEvent {
    ev(
        at_ns,
        "tx_end",
        vec![
            ("id", mk_id(251, node as u8, etag)),
            ("node", node),
            ("tag", pack_tag(TagKind::Nrt, etag, seq)),
            ("all", 1),
        ],
    )
}

#[test]
fn t5_fragment_index_gap_fires() {
    let trace = vec![
        frag_enqueue(0, 30, 4, 3, 20),
        frag_tx_end(1_000_000, 30, 4, 0),
        frag_tx_end(2_000_000, 30, 4, 2), // index 1 skipped
    ];
    assert!(audit(&AuditContext::bare(), &trace).fired(RuleId::FragContiguity));
}

#[test]
fn t5_reassembled_byte_count_mismatch_fires() {
    let trace = vec![
        frag_enqueue(0, 30, 4, 3, 20),
        ev(
            3_000_000,
            "nrt_complete",
            vec![("etag", 30), ("node", 5), ("origin", 4), ("bytes", 19)],
        ),
    ];
    assert!(audit(&AuditContext::bare(), &trace).fired(RuleId::FragContiguity));
}

#[test]
fn t5_contiguous_fragment_stream_passes() {
    let trace = vec![
        frag_enqueue(0, 30, 4, 3, 20),
        frag_tx_end(1_000_000, 30, 4, 0),
        frag_tx_end(2_000_000, 30, 4, 1),
        frag_tx_end(3_000_000, 30, 4, 2),
        ev(
            3_100_000,
            "nrt_complete",
            vec![("etag", 30), ("node", 5), ("origin", 4), ("bytes", 20)],
        ),
    ];
    let rep = audit(&AuditContext::bare(), &trace);
    assert!(!rep.fired(RuleId::FragContiguity), "{rep}");
}

// ---------------------------------------------------------------- T6

#[test]
fn t6_duplicate_identifier_in_arbitration_fires() {
    let id = mk_id(3, 1, 16);
    let trace = vec![ev(
        1_000,
        "arb",
        vec![
            ("cand", (1 << 32) | id),
            ("cand", (5 << 32) | id),
            ("win", id),
        ],
    )];
    let rep = audit(&AuditContext::bare(), &trace);
    assert!(rep.fired(RuleId::DuplicateContender), "{rep}");
    assert!(!rep.fired(RuleId::ArbWinnerOrder));
}

// ---------------------------------------------------------------- T7

#[test]
fn t7_srt_channel_at_hrt_priority_fires() {
    let mut channels = HashMap::new();
    channels.insert(20u16, ChannelClass::Srt);
    let ctx = AuditContext {
        channels,
        ..AuditContext::bare()
    };
    let trace = vec![tx(1_000, mk_id(0, 3, 20), 3, pack_tag(TagKind::Srt, 20, 1))];
    assert!(audit(&ctx, &trace).fired(RuleId::PriorityBandConsistency));
}

#[test]
fn t7_infrastructure_frame_at_priority_zero_fires() {
    // SYNC (etag 0) must never ride at P_HRT.
    let trace = vec![tx(1_000, mk_id(0, 0, 0), 0, pack_tag(TagKind::Sync, 0, 1))];
    assert!(audit(&AuditContext::bare(), &trace).fired(RuleId::PriorityBandConsistency));
}

// ---------------------------------------------------------------- T8

#[test]
fn t8_txnode_spoofing_fires() {
    // Identifier encodes TxNode 3, frame actually sent by node 5.
    let trace = vec![tx(
        1_000,
        mk_id(50, 3, 20),
        5,
        pack_tag(TagKind::Srt, 20, 1),
    )];
    assert!(audit(&AuditContext::bare(), &trace).fired(RuleId::TxNodeMatchesSender));
}

// ------------------------------------------------- clean baseline

#[test]
fn clean_trace_passes_every_rule() {
    let plan = good_plan();
    let lst = plan.slots[0].lst().as_ns();
    let deadline = plan.slots[0].deadline().as_ns();
    let mut channels = HashMap::new();
    channels.insert(16u16, ChannelClass::Hrt);
    let mut hrt_periods = HashMap::new();
    hrt_periods.insert(16u16, ROUND);
    let ctx = AuditContext {
        calendar: Some(plan),
        calendar_start: Some(Time::ZERO),
        channels,
        hrt_periods,
        hrt_deferred_delivery: true,
        tolerance: Duration::ZERO,
    };
    let hrt_id = mk_id(0, 0, 16);
    let tag = pack_tag(TagKind::Hrt, 16, 1);
    let trace = vec![
        ev(lst, "arb", vec![("cand", hrt_id), ("win", hrt_id)]),
        tx(lst, hrt_id, 0, tag),
        deliver(deadline, 16, 2, lst + 130_000),
        deliver(
            deadline + ROUND.as_ns(),
            16,
            2,
            lst + ROUND.as_ns() + 130_000,
        ),
    ];
    let rep = audit(&ctx, &trace);
    assert!(rep.passes(), "{rep}");
    assert_eq!(rep.diagnostics.len(), 0, "{rep}");
}

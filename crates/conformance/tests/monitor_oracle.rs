//! Differential oracle for the trace auditor: the eight post-hoc passes
//! the auditor used to make over a retained trace live on here, in test
//! code, and every trace below must get the same diagnostics from them
//! as from [`rtec_conformance::audit`] — same rule, severity, instant,
//! message and fix hint. Order is not compared: the post-hoc passes
//! report rule by rule, the auditor in its own order.
//!
//! The traces cover the shapes the auditor sees in the repository —
//! the synthetic fault-injection records, the mixed end-to-end and
//! integration networks, per-segment topology traces, E2- and E8-shaped
//! experiment runs and a live cluster's merged trace — plus the
//! same-instant orderings the post-hoc passes resolved by seeing the
//! whole trace at once.

use rtec_analysis::admission::{CalendarPlan, SlotRequest};
use rtec_can::bits::BitTiming;
use rtec_can::fault::{FaultModel, OmissionScope};
use rtec_can::NodeId;
use rtec_conformance::{AuditContext, Diagnostic, Monitor, Report, RuleId};
use rtec_core::channel::{ChannelClass, HrtSpec};
use rtec_core::node::{pack_tag, TagKind};
use rtec_core::prelude::*;
use rtec_core::topology::Topology;
use rtec_sim::{Rng, TraceEvent};
use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

/// The post-hoc passes, as the auditor ran them before it became a
/// streaming monitor.
mod posthoc {
    use rtec_can::PRIO_HRT;
    use rtec_conformance::{AuditContext, Report, RuleId};
    use rtec_core::binding::ETAG_FIRST_DYNAMIC;
    use rtec_core::channel::ChannelClass;
    use rtec_core::node::{unpack_tag, TagKind};
    use rtec_sim::{Time, TraceEvent};
    use std::collections::{BTreeMap, HashMap};

    const ETAG_BITS: u32 = 14;
    const TXNODE_BITS: u32 = 7;

    fn id_priority(raw: u64) -> u8 {
        (raw >> (ETAG_BITS + TXNODE_BITS)) as u8
    }
    fn id_txnode(raw: u64) -> u8 {
        ((raw >> ETAG_BITS) & ((1 << TXNODE_BITS) - 1)) as u8
    }
    fn id_etag(raw: u64) -> u16 {
        (raw & ((1 << ETAG_BITS) - 1)) as u16
    }

    /// Run all trace rules over `events`.
    pub fn audit(ctx: &AuditContext, events: &[TraceEvent]) -> Report {
        let mut rep = Report::new();
        audit_arbitration(events, &mut rep);
        audit_hrt_slot_window(ctx, events, &mut rep);
        audit_deferred_delivery(ctx, events, &mut rep);
        audit_expired_never_sent(events, &mut rep);
        audit_frag_contiguity(events, &mut rep);
        audit_priority_bands(ctx, events, &mut rep);
        audit_txnode(events, &mut rep);
        audit_resume_safety(events, &mut rep);
        rep
    }

    fn is_tx_start(kind: &str) -> bool {
        matches!(kind, "tx_start" | "tx_start_corrupt" | "tx_start_omit")
    }

    fn audit_arbitration(events: &[TraceEvent], rep: &mut Report) {
        for ev in events.iter().filter(|e| e.kind == "arb") {
            let cands = ev.fields_named("cand");
            let Some(win) = ev.field("win") else { continue };
            let ids: Vec<u64> = cands.iter().map(|c| c & 0xFFFF_FFFF).collect();
            if let Some(&min) = ids.iter().min() {
                if win != min {
                    rep.error_at(
                        RuleId::ArbWinnerOrder,
                        ev.time,
                        format!(
                            "arbitration winner has identifier {win:#x} while {min:#x} \
                             was contending (lower wins)"
                        ),
                        "the bus model violated CAN arbitration; check controller state",
                    );
                }
            }
            let mut sorted = ids.clone();
            sorted.sort_unstable();
            for w in sorted.windows(2) {
                if w[0] == w[1] {
                    let nodes: Vec<u64> = cands
                        .iter()
                        .filter(|c| (*c & 0xFFFF_FFFF) == w[0])
                        .map(|c| c >> 32)
                        .collect();
                    rep.error_at(
                        RuleId::DuplicateContender,
                        ev.time,
                        format!(
                            "identifier {:#x} contended simultaneously from nodes {nodes:?}; \
                             CAN requires system-wide unique identifiers",
                            w[0]
                        ),
                        "fix the etag/TxNode assignment so encodings cannot collide",
                    );
                    break;
                }
            }
        }
    }

    fn audit_hrt_slot_window(ctx: &AuditContext, events: &[TraceEvent], rep: &mut Report) {
        let (Some(plan), Some(start)) = (&ctx.calendar, ctx.calendar_start) else {
            return;
        };
        let round_ns = plan.round.as_ns();
        if round_ns == 0 {
            return;
        }
        let tol = ctx.tolerance.as_ns() as i128;
        for ev in events.iter().filter(|e| is_tx_start(e.kind)) {
            let Some(raw) = ev.field("id") else { continue };
            if id_priority(raw) != PRIO_HRT {
                continue;
            }
            let (etag, txnode) = (id_etag(raw), id_txnode(raw));
            let offset = ev.time.as_ns() as i128 - start.as_ns() as i128;
            if offset + tol < 0 {
                rep.error_at(
                    RuleId::HrtSlotWindow,
                    ev.time,
                    format!("HRT frame (etag {etag}) transmitted before the first round start"),
                    "do not raise a frame to P_HRT outside the calendar",
                );
                continue;
            }
            let in_round = offset.rem_euclid(round_ns as i128);
            let in_window = plan
                .slots
                .iter()
                .filter(|s| s.etag == etag && s.publisher.0 == txnode)
                .any(|s| {
                    let lo = s.start.as_ns() as i128 - tol;
                    let hi = s.deadline().as_ns() as i128 + tol;
                    (lo..=hi).contains(&in_round)
                        || (lo..=hi).contains(&(in_round + round_ns as i128))
                        || (lo..=hi).contains(&(in_round - round_ns as i128))
                });
            if !in_window {
                rep.error_at(
                    RuleId::HrtSlotWindow,
                    ev.time,
                    format!(
                        "HRT frame (etag {etag}, node {txnode}) started {in_round} ns into \
                         the round, outside every slot reserved for it"
                    ),
                    "HRT transmissions must stay within their calendar reservation",
                );
            }
        }
    }

    fn audit_deferred_delivery(ctx: &AuditContext, events: &[TraceEvent], rep: &mut Report) {
        if !ctx.hrt_deferred_delivery {
            return;
        }
        let mut per_sub: BTreeMap<(u16, u64), Vec<u64>> = BTreeMap::new();
        for ev in events.iter().filter(|e| e.kind == "hrt_deliver") {
            let (Some(etag), Some(node), Some(wire)) =
                (ev.field("etag"), ev.field("node"), ev.field("wire"))
            else {
                continue;
            };
            if ev.time.as_ns() < wire {
                rep.error_at(
                    RuleId::DeferredDeliveryJitter,
                    ev.time,
                    format!(
                        "HRT event (etag {etag}, node {node}) delivered {} ns before its \
                         frame completed on the wire",
                        wire - ev.time.as_ns()
                    ),
                    "deferred delivery must wait for the slot deadline",
                );
            }
            per_sub
                .entry((etag as u16, node))
                .or_default()
                .push(ev.time.as_ns());
        }
        for ((etag, node), mut times) in per_sub {
            let Some(&period) = ctx.hrt_periods.get(&etag) else {
                continue;
            };
            let period_ns = period.as_ns();
            if period_ns == 0 || times.len() < 2 {
                continue;
            }
            times.sort_unstable();
            let allow = (period_ns / 100).max(50_000) + ctx.tolerance.as_ns();
            for w in times.windows(2) {
                let gap = w[1] - w[0];
                let rem = gap % period_ns;
                let dev = rem.min(period_ns - rem);
                if dev > allow {
                    rep.error_at(
                        RuleId::DeferredDeliveryJitter,
                        Time::from_ns(w[1]),
                        format!(
                            "HRT deliveries (etag {etag}, node {node}) are {gap} ns apart, \
                             {dev} ns off the {period_ns} ns period grid"
                        ),
                        "deferred delivery should pin deliveries to the slot-deadline grid",
                    );
                }
            }
        }
    }

    fn audit_expired_never_sent(events: &[TraceEvent], rep: &mut Report) {
        let mut expired_at: HashMap<(u64, u64), u64> = HashMap::new();
        for ev in events.iter().filter(|e| e.kind == "srt_expire") {
            if let (Some(tag), Some(node)) = (ev.field("tag"), ev.field("node")) {
                expired_at.entry((tag, node)).or_insert(ev.time.as_ns());
            }
        }
        if expired_at.is_empty() {
            return;
        }
        for ev in events.iter().filter(|e| is_tx_start(e.kind)) {
            let (Some(tag), Some(node)) = (ev.field("tag"), ev.field("node")) else {
                continue;
            };
            if let Some(&t_exp) = expired_at.get(&(tag, node)) {
                if ev.time.as_ns() >= t_exp {
                    let (_, etag, seq) = unpack_tag(tag).unwrap_or((TagKind::Srt, 0, 0));
                    rep.error_at(
                        RuleId::ExpiredNeverSent,
                        ev.time,
                        format!(
                            "SRT event (etag {etag}, seq {seq}) transmitted although it \
                             expired at {t_exp} ns"
                        ),
                        "expired events must be discarded from the send queue",
                    );
                }
            }
        }
    }

    fn audit_frag_contiguity(events: &[TraceEvent], rep: &mut Report) {
        let mut enqueued: BTreeMap<(u64, u64), Vec<(u64, u64)>> = BTreeMap::new();
        for ev in events.iter().filter(|e| e.kind == "nrt_enqueue") {
            if ev.field("fragmented") != Some(1) {
                continue;
            }
            let (Some(etag), Some(node), Some(frags), Some(bytes)) = (
                ev.field("etag"),
                ev.field("node"),
                ev.field("frags"),
                ev.field("bytes"),
            ) else {
                continue;
            };
            enqueued
                .entry((node, etag))
                .or_default()
                .push((frags, bytes));
        }

        let mut wire: BTreeMap<(u64, u64), Vec<(u64, u64)>> = BTreeMap::new();
        for ev in events.iter().filter(|e| e.kind == "tx_end") {
            if ev.field("all") != Some(1) {
                continue;
            }
            let (Some(tag), Some(node)) = (ev.field("tag"), ev.field("node")) else {
                continue;
            };
            let Some((TagKind::Nrt, etag, seq)) = unpack_tag(tag) else {
                continue;
            };
            if !enqueued.contains_key(&(node, u64::from(etag))) {
                continue;
            }
            wire.entry((node, u64::from(etag)))
                .or_default()
                .push((u64::from(seq), ev.time.as_ns()));
        }
        for ((node, etag), seqs) in &wire {
            let mut prev: Option<u64> = None;
            for &(seq, at) in seqs {
                let ok = match prev {
                    None => seq == 0,
                    Some(p) => seq == p + 1 || seq == 0,
                };
                if !ok {
                    rep.error_at(
                        RuleId::FragContiguity,
                        Time::from_ns(at),
                        format!(
                            "NRT fragment stream (origin {node}, etag {etag}) jumped from \
                             index {:?} to {seq}; fragments must be sent in order",
                            prev
                        ),
                        "send fragments strictly in sequence, one transfer at a time",
                    );
                }
                prev = Some(seq);
            }
        }

        let mut complete_idx: HashMap<(u64, u64, u64), usize> = HashMap::new();
        for ev in events.iter().filter(|e| e.kind == "nrt_complete") {
            let (Some(etag), Some(node), Some(origin), Some(bytes)) = (
                ev.field("etag"),
                ev.field("node"),
                ev.field("origin"),
                ev.field("bytes"),
            ) else {
                continue;
            };
            let sent = enqueued.get(&(origin, etag)).cloned().unwrap_or_default();
            let idx = complete_idx.entry((node, origin, etag)).or_insert(0);
            match sent.get(*idx) {
                None => {
                    rep.error_at(
                        RuleId::FragContiguity,
                        ev.time,
                        format!(
                            "node {node} reassembled a message (origin {origin}, etag \
                             {etag}) that was never enqueued"
                        ),
                        "reassembly must only complete for transfers actually sent",
                    );
                }
                Some(&(_, sent_bytes)) if sent_bytes != bytes => {
                    rep.error_at(
                        RuleId::FragContiguity,
                        ev.time,
                        format!(
                            "node {node} reassembled {bytes} byte(s) for origin {origin} \
                             etag {etag}, but transfer #{idx} carried {sent_bytes} byte(s)"
                        ),
                        "fragment payload boundaries were lost in reassembly",
                    );
                }
                Some(_) => {}
            }
            *idx += 1;
        }
    }

    fn audit_priority_bands(ctx: &AuditContext, events: &[TraceEvent], rep: &mut Report) {
        for ev in events.iter().filter(|e| is_tx_start(e.kind)) {
            let Some(raw) = ev.field("id") else { continue };
            let (prio, etag) = (id_priority(raw), id_etag(raw));
            if etag < ETAG_FIRST_DYNAMIC {
                if prio == PRIO_HRT {
                    rep.error_at(
                        RuleId::PriorityBandConsistency,
                        ev.time,
                        format!(
                            "infrastructure frame (etag {etag}) used P_HRT = 0; priority \
                             0 is reserved for calendar slots"
                        ),
                        "send SYNC/BIND traffic at an SRT-band priority",
                    );
                }
                continue;
            }
            let Some(class) = ctx.channels.get(&etag) else {
                continue;
            };
            let band_ok = match class {
                ChannelClass::Hrt => prio == PRIO_HRT,
                ChannelClass::Srt => {
                    (rtec_can::PRIO_SRT_MIN..=rtec_can::PRIO_SRT_MAX).contains(&prio)
                }
                ChannelClass::Nrt => prio >= rtec_can::PRIO_NRT_MIN,
            };
            if !band_ok {
                rep.error_at(
                    RuleId::PriorityBandConsistency,
                    ev.time,
                    format!(
                        "{class:?} channel etag {etag} transmitted at priority {prio}, \
                         outside its class band"
                    ),
                    "encode identifiers with the class's priority band (0 = P_HRT < P_SRT < P_NRT)",
                );
            }
        }
    }

    fn audit_txnode(events: &[TraceEvent], rep: &mut Report) {
        for ev in events.iter().filter(|e| is_tx_start(e.kind)) {
            let (Some(raw), Some(node)) = (ev.field("id"), ev.field("node")) else {
                continue;
            };
            let encoded = u64::from(id_txnode(raw));
            if encoded != node {
                rep.error_at(
                    RuleId::TxNodeMatchesSender,
                    ev.time,
                    format!(
                        "frame with identifier {raw:#x} encodes TxNode {encoded} but was \
                         sent by node {node}"
                    ),
                    "nodes must stamp their own TxNode into every identifier",
                );
            }
        }
    }

    fn audit_resume_safety(events: &[TraceEvent], rep: &mut Report) {
        let mut first_resume: HashMap<u64, Time> = HashMap::new();
        for ev in events.iter().filter(|e| e.kind == "gw_resume") {
            let (Some(client), Some(verdict)) = (ev.field("client"), ev.field("verdict")) else {
                continue;
            };
            first_resume
                .entry(client)
                .and_modify(|t| *t = (*t).min(ev.time))
                .or_insert(ev.time);
            let gaps = ev.field("gaps").unwrap_or(0);
            if verdict == 1 && gaps != 0 {
                rep.error_at(
                    RuleId::ResumeSafety,
                    ev.time,
                    format!(
                        "client {client} resumed with verdict Resumed but the gateway \
                         recorded {gaps} gap frame(s)"
                    ),
                    "a lossless resume must answer with verdict Gap when anything was dropped",
                );
            }
        }
        for ev in events.iter().filter(|e| e.kind == "gw_gap") {
            let (Some(client), Some(class)) = (ev.field("client"), ev.field("class")) else {
                continue;
            };
            if class == 0 {
                rep.error_at(
                    RuleId::ResumeSafety,
                    ev.time,
                    format!("client {client} was sent a Gap notice for the HRT class"),
                    "HRT deliveries are never shed; replay them from the session buffer instead",
                );
            }
            match first_resume.get(&client) {
                Some(&at) if at <= ev.time => {}
                _ => {
                    rep.error_at(
                        RuleId::ResumeSafety,
                        ev.time,
                        format!(
                            "client {client} was sent a Gap notice with no prior resume \
                             on record"
                        ),
                        "gap notices may only be minted while a session resume replays",
                    );
                }
            }
        }
    }
}

/// Diagnostics in a canonical order, so two reports compare as
/// multisets.
fn canonical(rep: &Report) -> Vec<Diagnostic> {
    let mut d = rep.diagnostics.clone();
    d.sort_by(|a, b| {
        (a.rule.code(), a.at, &a.message, a.severity, &a.fix_hint).cmp(&(
            b.rule.code(),
            b.at,
            &b.message,
            b.severity,
            &b.fix_hint,
        ))
    });
    d
}

/// Audit `events` both ways, require equal diagnostics, and hand back
/// the auditor's report for further assertions.
fn same(what: &str, ctx: &AuditContext, events: &[TraceEvent]) -> Report {
    let old = posthoc::audit(ctx, events);
    let new = rtec_conformance::audit(ctx, events);
    assert_eq!(
        canonical(&old),
        canonical(&new),
        "{what}: the auditor and the post-hoc passes disagree\nold: {old}\nnew: {new}"
    );
    new
}

// ------------------------------------------------- synthetic records

const ROUND: Duration = Duration::from_ms(10);

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

fn good_plan() -> CalendarPlan {
    let requests = [SlotRequest {
        etag: 16,
        publisher: NodeId(0),
        dlc: 8,
        omission_degree: 2,
        period: ROUND,
    }];
    CalendarPlan::plan(ROUND, &requests, BitTiming::MBIT_1, Duration::from_us(40)).unwrap()
}

fn full_ctx() -> AuditContext {
    let mut channels = HashMap::new();
    channels.insert(16u16, ChannelClass::Hrt);
    channels.insert(20u16, ChannelClass::Srt);
    channels.insert(30u16, ChannelClass::Nrt);
    let mut hrt_periods = HashMap::new();
    hrt_periods.insert(16u16, ROUND);
    AuditContext {
        calendar: Some(good_plan()),
        calendar_start: Some(Time::ZERO),
        channels,
        hrt_periods,
        hrt_deferred_delivery: true,
        tolerance: Duration::ZERO,
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

fn expire(at_ns: u64, node: u64, tag: u64) -> TraceEvent {
    ev(
        at_ns,
        "srt_expire",
        vec![("etag", 20), ("seq", 7), ("node", node), ("tag", tag)],
    )
}

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

fn complete(at_ns: u64, node: u64, origin: u64, bytes: u64) -> TraceEvent {
    ev(
        at_ns,
        "nrt_complete",
        vec![
            ("etag", 30),
            ("node", node),
            ("origin", origin),
            ("bytes", bytes),
        ],
    )
}

fn arb(at_ns: u64, cands: &[(u64, u64)], win: Option<u64>) -> TraceEvent {
    let mut fields: Vec<(&'static str, u64)> = cands
        .iter()
        .map(|&(node, id)| ("cand", (node << 32) | id))
        .collect();
    fields.extend(win.map(|w| ("win", w)));
    ev(at_ns, "arb", fields)
}

fn resume(at_ns: u64, client: u64, verdict: u64, gaps: u64) -> TraceEvent {
    ev(
        at_ns,
        "gw_resume",
        vec![("client", client), ("verdict", verdict), ("gaps", gaps)],
    )
}

fn gap(at_ns: u64, client: u64, class: u64) -> TraceEvent {
    ev(at_ns, "gw_gap", vec![("client", client), ("class", class)])
}

/// Every synthetic trace of the fault-injection suite, each rule's
/// violating and repaired variant.
#[test]
fn fault_injection_traces_agree() {
    let plan = good_plan();
    let lst = plan.slots[0].lst().as_ns();
    let deadline = plan.slots[0].deadline().as_ns();
    let bare = AuditContext::bare();
    let full = full_ctx();
    let (lo, hi) = (mk_id(3, 1, 16), mk_id(200, 2, 17));
    let srt_tag = pack_tag(TagKind::Srt, 20, 7);
    let hrt_id = mk_id(0, 0, 16);
    let hrt_tag = pack_tag(TagKind::Hrt, 16, 1);
    let cases: Vec<(&str, &AuditContext, Vec<TraceEvent>, Option<RuleId>)> = vec![
        (
            "t1",
            &bare,
            vec![arb(1_000, &[(1, lo), (2, hi)], Some(hi))],
            Some(RuleId::ArbWinnerOrder),
        ),
        (
            "t2 outside",
            &full,
            vec![tx(deadline + 2_000_000, hrt_id, 0, hrt_tag)],
            Some(RuleId::HrtSlotWindow),
        ),
        ("t2 inside", &full, vec![tx(lst, hrt_id, 0, hrt_tag)], None),
        (
            "t3 before wire",
            &full,
            vec![deliver(900_000, 16, 2, 950_000)],
            Some(RuleId::DeferredDeliveryJitter),
        ),
        (
            "t3 off grid",
            &full,
            vec![
                deliver(1_000_000, 16, 2, 900_000),
                deliver(11_000_000, 16, 2, 10_900_000),
                deliver(14_000_000, 16, 2, 13_900_000),
            ],
            Some(RuleId::DeferredDeliveryJitter),
        ),
        (
            "t3 period multiple",
            &full,
            vec![
                deliver(1_000_000, 16, 2, 900_000),
                deliver(21_000_000, 16, 2, 20_900_000),
            ],
            None,
        ),
        (
            "t4 expired on wire",
            &bare,
            vec![
                expire(5_000_000, 3, srt_tag),
                tx(6_000_000, mk_id(50, 3, 20), 3, srt_tag),
            ],
            Some(RuleId::ExpiredNeverSent),
        ),
        (
            "t4 other node",
            &bare,
            vec![
                expire(5_000_000, 3, srt_tag),
                tx(6_000_000, mk_id(50, 4, 20), 4, srt_tag),
            ],
            None,
        ),
        (
            "t5 index gap",
            &bare,
            vec![
                frag_enqueue(0, 30, 4, 3, 20),
                frag_tx_end(1_000_000, 30, 4, 0),
                frag_tx_end(2_000_000, 30, 4, 2),
            ],
            Some(RuleId::FragContiguity),
        ),
        (
            "t5 byte mismatch",
            &bare,
            vec![frag_enqueue(0, 30, 4, 3, 20), complete(3_000_000, 5, 4, 19)],
            Some(RuleId::FragContiguity),
        ),
        (
            "t5 contiguous",
            &bare,
            vec![
                frag_enqueue(0, 30, 4, 3, 20),
                frag_tx_end(1_000_000, 30, 4, 0),
                frag_tx_end(2_000_000, 30, 4, 1),
                frag_tx_end(3_000_000, 30, 4, 2),
                complete(3_100_000, 5, 4, 20),
            ],
            None,
        ),
        (
            "t6",
            &bare,
            vec![arb(1_000, &[(1, lo), (5, lo)], Some(lo))],
            Some(RuleId::DuplicateContender),
        ),
        (
            "t7 srt at hrt priority",
            &full,
            vec![tx(1_000, mk_id(0, 3, 20), 3, pack_tag(TagKind::Srt, 20, 1))],
            Some(RuleId::PriorityBandConsistency),
        ),
        (
            "t7 infrastructure at priority zero",
            &bare,
            vec![tx(1_000, mk_id(0, 0, 0), 0, pack_tag(TagKind::Sync, 0, 1))],
            Some(RuleId::PriorityBandConsistency),
        ),
        (
            "t8",
            &bare,
            vec![tx(
                1_000,
                mk_id(50, 3, 20),
                5,
                pack_tag(TagKind::Srt, 20, 1),
            )],
            Some(RuleId::TxNodeMatchesSender),
        ),
        (
            "clean",
            &full,
            vec![
                arb(lst, &[(0, hrt_id)], Some(hrt_id)),
                tx(lst, hrt_id, 0, hrt_tag),
                deliver(deadline, 16, 2, lst + 130_000),
                deliver(
                    deadline + ROUND.as_ns(),
                    16,
                    2,
                    lst + ROUND.as_ns() + 130_000,
                ),
            ],
            None,
        ),
    ];
    for (what, ctx, trace, fires) in cases {
        let rep = same(what, ctx, &trace);
        match fires {
            Some(rule) => assert!(rep.fired(rule), "{what}: {rep}"),
            None => assert!(rep.passes(), "{what}: {rep}"),
        }
    }
}

/// Arbitration records in every shape: unsorted contenders, several
/// duplicated identifiers (the smallest is reported), a duplicate that
/// is also the wrong winner, a record with no winner (skipped) and one
/// with no contenders.
#[test]
fn arbitration_shapes_agree() {
    let (a, b, c) = (mk_id(3, 1, 16), mk_id(3, 2, 17), mk_id(9, 3, 18));
    let trace = vec![
        arb(1_000, &[(3, c), (1, a), (2, b)], Some(a)),
        arb(2_000, &[(3, c), (1, a), (2, b)], Some(c)),
        arb(3_000, &[(4, c), (3, c), (1, b), (2, b)], Some(b)),
        arb(4_000, &[(4, c), (3, c), (1, a)], Some(c)),
        arb(5_000, &[(1, a), (2, a), (3, a)], Some(a)),
        arb(6_000, &[(1, a), (2, b)], None),
        arb(7_000, &[], Some(a)),
    ];
    let rep = same("arbitration shapes", &AuditContext::bare(), &trace);
    assert_eq!(rep.of_rule(RuleId::ArbWinnerOrder).len(), 2, "{rep}");
    assert_eq!(rep.of_rule(RuleId::DuplicateContender).len(), 3, "{rep}");
}

/// The orders the post-hoc passes resolved by seeing the whole trace:
/// T3 sorts each subscriber's delivery times, T4 flags a `tx_start` at
/// or after an expiry — also one recorded before the expiry at the same
/// instant — and T9 accepts a gap at or after the client's *earliest*
/// resume, also one recorded before that resume at the same instant.
#[test]
fn same_instant_orders_agree() {
    let full = full_ctx();
    let bare = AuditContext::bare();
    let tag = pack_tag(TagKind::Srt, 20, 7);
    let other = pack_tag(TagKind::Srt, 20, 8);
    let id = mk_id(50, 3, 20);

    // T3: two subscribers interleaved, one delivering twice at one
    // instant, one off the grid.
    let t3 = vec![
        deliver(1_000_000, 16, 2, 900_000),
        deliver(1_000_000, 16, 3, 900_000),
        deliver(11_000_000, 16, 3, 10_900_000),
        deliver(11_000_000, 16, 2, 10_900_000),
        deliver(11_000_000, 16, 2, 10_900_000),
        deliver(24_000_000, 16, 3, 23_900_000),
        deliver(31_000_000, 16, 2, 30_900_000),
    ];
    let rep = same("t3 interleaved", &full, &t3);
    assert_eq!(
        rep.of_rule(RuleId::DeferredDeliveryJitter).len(),
        1,
        "{rep}"
    );

    // T4: sent before the expiry instant (legal), sent at the expiry
    // instant but recorded first, sent at it and recorded after, sent
    // later, resent twice; a second expiry of the same event does not
    // move the first; another node's and another event's frames pass.
    let t4 = vec![
        tx(4_000_000, id, 3, tag),
        tx(5_000_000, mk_id(50, 4, 20), 4, tag),
        tx(5_000_000, id, 3, other),
        tx(5_000_000, id, 3, tag),
        expire(5_000_000, 3, tag),
        tx(5_000_000, id, 3, tag),
        expire(5_500_000, 3, tag),
        tx(6_000_000, id, 3, tag),
        ev(
            6_000_000,
            "tx_start_omit",
            vec![("id", id), ("node", 3), ("attempt", 2), ("tag", tag)],
        ),
        expire(7_000_000, 3, other),
        tx(8_000_000, id, 3, other),
    ];
    let rep = same("t4 same instant", &bare, &t4);
    assert_eq!(rep.of_rule(RuleId::ExpiredNeverSent).len(), 5, "{rep}");

    // T9: a gap recorded before its client's resume at the same
    // instant, a gap before any resume, a later resume not covering an
    // earlier gap, an HRT gap, and a lossless verdict with gaps.
    let t9 = vec![
        gap(1_000, 7, 2),
        gap(2_000, 8, 2),
        resume(2_000, 8, 2, 1),
        gap(2_000, 8, 1),
        resume(3_000, 7, 2, 1),
        gap(4_000, 7, 0),
        resume(5_000, 9, 1, 2),
        gap(5_000, 9, 2),
        gap(6_000, 10, 2),
        resume(6_500, 10, 2, 1),
        resume(7_000, 10, 1, 0),
    ];
    let rep = same("t9 orders", &bare, &t9);
    assert_eq!(rep.of_rule(RuleId::ResumeSafety).len(), 4, "{rep}");
}

/// Fragment streams: two origins interleaved on one etag, a restart at
/// index 0, a repeated index, an unfragmented stream beside them, a
/// failed (`all` = 0) transfer, and reassemblies by two subscribers —
/// one of a transfer never enqueued.
#[test]
fn fragment_streams_agree() {
    let trace = vec![
        frag_enqueue(0, 30, 4, 2, 12),
        frag_enqueue(0, 30, 5, 3, 20),
        ev(
            0,
            "nrt_enqueue",
            vec![
                ("etag", 31),
                ("node", 4),
                ("frags", 1),
                ("bytes", 8),
                ("fragmented", 0),
            ],
        ),
        frag_tx_end(1_000, 30, 4, 0),
        frag_tx_end(2_000, 30, 5, 0),
        frag_tx_end(3_000, 30, 4, 1),
        frag_tx_end(4_000, 30, 5, 1),
        frag_tx_end(5_000, 30, 5, 1),
        frag_tx_end(6_000, 30, 5, 0),
        frag_tx_end(6_500, 31, 4, 7),
        ev(
            7_000,
            "tx_end",
            vec![
                ("id", mk_id(251, 5, 30)),
                ("node", 5),
                ("tag", pack_tag(TagKind::Nrt, 30, 9)),
                ("all", 0),
            ],
        ),
        complete(8_000, 6, 4, 12),
        complete(8_000, 7, 4, 12),
        complete(9_000, 6, 5, 20),
        complete(9_000, 6, 4, 12),
        complete(9_500, 7, 5, 21),
    ];
    let rep = same("fragment streams", &AuditContext::bare(), &trace);
    assert_eq!(rep.of_rule(RuleId::FragContiguity).len(), 3, "{rep}");
}

// ------------------------------------------------- simulated networks

const HRT: Subject = Subject::new(0xC0F0);
const SRT: Subject = Subject::new(0xC0F1);
const NRT: Subject = Subject::new(0xC0F2);

/// The end-to-end suite's mixed network.
fn mixed_network(seed: u64) -> Network {
    let mut net = Network::builder()
        .nodes(5)
        .round(Duration::from_ms(10))
        .seed(seed)
        .build();
    {
        let mut api = net.api();
        api.announce(
            NodeId(0),
            HRT,
            ChannelSpec::hrt(HrtSpec {
                period: Duration::from_ms(10),
                dlc: 8,
                omission_degree: 2,
                sporadic: false,
            }),
        )
        .unwrap();
        api.subscribe(NodeId(2), HRT, SubscribeSpec::default())
            .unwrap();
        api.announce(NodeId(1), SRT, ChannelSpec::srt(SrtSpec::default()))
            .unwrap();
        api.subscribe(NodeId(3), SRT, SubscribeSpec::default())
            .unwrap();
        api.announce(NodeId(4), NRT, ChannelSpec::nrt(NrtSpec::bulk()))
            .unwrap();
        api.subscribe(NodeId(2), NRT, SubscribeSpec::default())
            .unwrap();
        api.install_calendar().unwrap();
    }
    net.every(Duration::from_ms(10), Duration::from_us(100), |api| {
        let _ = api.publish(NodeId(0), HRT, Event::new(HRT, vec![1; 8]));
    });
    let rng = Rc::new(RefCell::new(Rng::seed_from_u64(seed ^ 0x515)));
    net.every(Duration::from_us(700), Duration::from_us(50), move |api| {
        if rng.borrow_mut().gen_bool(0.8) {
            let _ = api.publish(NodeId(1), SRT, Event::new(SRT, vec![2; 8]));
        }
    });
    net.every(Duration::from_ms(40), Duration::from_ms(1), |api| {
        let _ = api.publish(NodeId(4), NRT, Event::new(NRT, vec![3; 300]));
    });
    net
}

/// Run a network from `build` with a retaining sink and audit its
/// trace both ways; run another from `build` with a streaming monitor
/// and require its verdict to equal the post-hoc one; then audit a
/// tampered copy of the trace: `tamper` edits the records, and the copy
/// must fire `fires`.
fn run_and_compare(
    what: &str,
    build: impl Fn() -> Network,
    run: Duration,
    tamper: impl FnOnce(&mut Vec<TraceEvent>),
    fires: RuleId,
) {
    let mut net = build();
    let sink = net.enable_trace();
    net.run_for(run);
    let ctx = rtec_conformance::audit_context(&net);
    let mut events = sink.events();
    assert!(!events.is_empty(), "{what}: no trace");
    let rep = same(what, &ctx, &events);
    assert!(rep.passes(), "{what}: {rep}");
    assert_eq!(
        canonical(&rtec_conformance::check_network(&net, &sink)),
        canonical(&rtec_conformance::lint_network(&net)),
        "{what}: check_network adds audit findings to a clean trace"
    );

    let mut streamed = build();
    let tap = rtec_conformance::monitor_network(&mut streamed);
    streamed.run_for(run);
    assert_eq!(tap.len(), 0, "{what}: the streaming sink kept records");
    assert_eq!(
        canonical(&rtec_conformance::audit_network(&streamed, &tap)),
        canonical(&posthoc::audit(&ctx, &events)),
        "{what}: the streamed verdict differs from the post-hoc one"
    );
    assert_eq!(
        tap.with_tap(|m: &mut Monitor| m.records()),
        Some(events.len() as u64),
        "{what}: the monitor missed records"
    );

    tamper(&mut events);
    let rep = same(&format!("{what}, tampered"), &ctx, &events);
    assert!(rep.fired(fires), "{what}, tampered: {rep}");
}

fn set_field(ev: &mut TraceEvent, name: &str, value: u64) {
    for f in ev.fields.iter_mut().filter(|f| f.0 == name) {
        f.1 = value;
    }
}

#[test]
fn end_to_end_networks_agree() {
    run_and_compare(
        "end-to-end mixed (seed 7)",
        || mixed_network(7),
        Duration::from_secs(2),
        // Every third HRT delivery shifted off the period grid.
        |evs| {
            for (i, e) in evs
                .iter_mut()
                .filter(|e| e.kind == "hrt_deliver")
                .enumerate()
            {
                if i % 3 == 2 {
                    e.time += Duration::from_us(400);
                }
            }
        },
        RuleId::DeferredDeliveryJitter,
    );
    run_and_compare(
        "end-to-end mixed (seed 11)",
        || mixed_network(11),
        Duration::from_secs(1),
        // Every multi-contender arbitration won by a non-contender.
        |evs| {
            for e in evs.iter_mut().filter(|e| e.kind == "arb") {
                if let Some(worst) = e.fields_named("cand").iter().map(|c| c & 0xFFFF_FFFF).max() {
                    set_field(e, "win", worst + 1);
                }
            }
        },
        RuleId::ArbWinnerOrder,
    );
}

#[test]
fn integration_networks_agree() {
    let hard = Subject::new(1);
    let soft = Subject::new(2);
    let bulk = Subject::new(3);
    let build = || {
        let mut net = Network::builder()
            .nodes(6)
            .round(Duration::from_ms(10))
            .build();
        {
            let mut api = net.api();
            api.announce(
                NodeId(0),
                hard,
                ChannelSpec::hrt(HrtSpec {
                    period: Duration::from_ms(10),
                    dlc: 8,
                    omission_degree: 1,
                    sporadic: false,
                }),
            )
            .unwrap();
            api.announce(NodeId(1), soft, ChannelSpec::srt(SrtSpec::default()))
                .unwrap();
            api.announce(NodeId(2), bulk, ChannelSpec::nrt(NrtSpec::bulk()))
                .unwrap();
            for (node, s) in [(3, hard), (4, soft), (5, bulk)] {
                api.subscribe(NodeId(node), s, SubscribeSpec::default())
                    .unwrap();
            }
            api.install_calendar().unwrap();
        }
        net.every(Duration::from_ms(10), Duration::from_us(100), move |api| {
            let _ = api.publish(NodeId(0), hard, Event::new(hard, vec![1; 8]));
        });
        net.every(Duration::from_ms(2), Duration::from_us(333), move |api| {
            let _ = api.publish(NodeId(1), soft, Event::new(soft, vec![2; 8]));
        });
        net.at(Time::from_ms(5), move |api| {
            api.publish(NodeId(2), bulk, Event::new(bulk, vec![3; 3000]))
                .unwrap();
        });
        net
    };
    run_and_compare(
        "integration: mixed classes",
        build,
        Duration::from_ms(500),
        // Drop every 50th fragment from the wire.
        |evs| {
            let mut n = 0;
            evs.retain(|e| {
                let frag = e.kind == "tx_end"
                    && matches!(
                        e.field("tag").and_then(rtec_core::node::unpack_tag),
                        Some((TagKind::Nrt, _, _))
                    );
                n += usize::from(frag);
                !(frag && n % 50 == 0)
            });
        },
        RuleId::FragContiguity,
    );

    let build = || {
        let clocks = vec![
            rtec_clock::ClockParams::PERFECT,
            rtec_clock::ClockParams {
                drift_ppm: 30.0,
                initial_offset_ns: 2_000.0,
            },
            rtec_clock::ClockParams {
                drift_ppm: -30.0,
                initial_offset_ns: -1_500.0,
            },
            rtec_clock::ClockParams {
                drift_ppm: 15.0,
                initial_offset_ns: 500.0,
            },
        ];
        let mut net = Network::builder()
            .nodes(4)
            .round(Duration::from_ms(10))
            .clocks(clocks)
            .build();
        let s = Subject::new(77);
        {
            let mut api = net.api();
            api.announce(
                NodeId(1),
                s,
                ChannelSpec::hrt(HrtSpec {
                    period: Duration::from_ms(10),
                    dlc: 8,
                    omission_degree: 1,
                    sporadic: false,
                }),
            )
            .unwrap();
            api.subscribe(NodeId(2), s, SubscribeSpec::default())
                .unwrap();
            api.install_calendar().unwrap();
        }
        net.every(Duration::from_ms(10), Duration::from_us(100), move |api| {
            let _ = api.publish(NodeId(1), s, Event::new(s, vec![1; 8]));
        });
        net
    };
    run_and_compare(
        "integration: drifting clocks",
        build,
        Duration::from_ms(300),
        // HRT frames moved 3 ms later, out of their slot.
        |evs| {
            for e in evs.iter_mut().filter(|e| e.kind == "tx_start") {
                if e.field("id").is_some_and(|id| id >> 21 == 0) {
                    e.time += Duration::from_ms(3);
                }
            }
        },
        RuleId::HrtSlotWindow,
    );
}

/// An E2-shaped run: five sporadic HRT channels under SRT background.
#[test]
fn e2_shaped_network_agrees() {
    let build = || {
        let mut net = Network::builder()
            .nodes(8)
            .round(Duration::from_ms(5))
            .seed(42)
            .build();
        {
            let mut api = net.api();
            for i in 0..5u8 {
                let s = Subject::new(0xE100 + u64::from(i));
                api.announce(
                    NodeId(i),
                    s,
                    ChannelSpec::hrt(HrtSpec {
                        period: Duration::from_ms(5),
                        dlc: 8,
                        omission_degree: 1,
                        sporadic: true,
                    }),
                )
                .unwrap();
                api.subscribe(NodeId(6), s, SubscribeSpec::default())
                    .unwrap();
            }
            api.announce(
                NodeId(5),
                SRT,
                ChannelSpec::srt(SrtSpec {
                    default_deadline: Duration::from_ms(20),
                    default_expiration: Some(Duration::from_ms(60)),
                    ..SrtSpec::default()
                }),
            )
            .unwrap();
            api.subscribe(NodeId(7), SRT, SubscribeSpec::default())
                .unwrap();
            api.install_calendar().unwrap();
        }
        net.every(Duration::from_us(120), Duration::from_us(7), |api| {
            let _ = api.publish(NodeId(5), SRT, Event::new(SRT, vec![0x5A; 8]));
        });
        let rng = Rc::new(RefCell::new(Rng::seed_from_u64(42 ^ 0xE2)));
        net.every(Duration::from_ms(5), Duration::from_us(50), move |api| {
            for i in 0..5u8 {
                if rng.borrow_mut().gen_bool(0.5) {
                    let s = Subject::new(0xE100 + u64::from(i));
                    let _ = api.publish(NodeId(i), s, Event::new(s, vec![i; 8]));
                }
            }
        });
        net
    };
    run_and_compare(
        "E2-shaped",
        build,
        Duration::from_ms(400),
        // Every SRT frame also recorded as expired at its start.
        |evs| {
            let mut out = Vec::with_capacity(evs.len());
            for e in evs.drain(..) {
                let srt = e.kind == "tx_start"
                    && matches!(
                        e.field("tag").and_then(rtec_core::node::unpack_tag),
                        Some((TagKind::Srt, _, _))
                    );
                if srt {
                    out.push(TraceEvent {
                        kind: "srt_expire",
                        fields: vec![
                            ("node", e.field("node").unwrap()),
                            ("tag", e.field("tag").unwrap()),
                        ],
                        ..e.clone()
                    });
                }
                out.push(e);
            }
            *evs = out;
        },
        RuleId::ExpiredNeverSent,
    );
}

/// An E8-shaped run: a 64 KiB fragmented transfer beside HRT and SRT
/// traffic, cut short.
#[test]
fn e8_shaped_network_agrees() {
    let build = || {
        let mut net = Network::builder()
            .nodes(6)
            .round(Duration::from_ms(10))
            .seed(42)
            .build();
        {
            let mut api = net.api();
            api.announce(
                NodeId(0),
                HRT,
                ChannelSpec::hrt(HrtSpec {
                    period: Duration::from_ms(10),
                    dlc: 8,
                    omission_degree: 2,
                    sporadic: false,
                }),
            )
            .unwrap();
            api.subscribe(NodeId(2), HRT, SubscribeSpec::default())
                .unwrap();
            api.install_calendar().unwrap();
            api.announce(
                NodeId(1),
                SRT,
                ChannelSpec::srt(SrtSpec {
                    default_deadline: Duration::from_ms(20),
                    default_expiration: Some(Duration::from_ms(60)),
                    ..SrtSpec::default()
                }),
            )
            .unwrap();
            api.subscribe(NodeId(3), SRT, SubscribeSpec::default())
                .unwrap();
            api.announce(NodeId(4), NRT, ChannelSpec::nrt(NrtSpec::bulk()))
                .unwrap();
            api.subscribe(NodeId(5), NRT, SubscribeSpec::default())
                .unwrap();
        }
        net.every(Duration::from_ms(10), Duration::from_us(100), |api| {
            let _ = api.publish(NodeId(0), HRT, Event::new(HRT, vec![7; 8]));
        });
        net.every(Duration::from_us(400), Duration::from_us(7), |api| {
            let _ = api.publish(NodeId(1), SRT, Event::new(SRT, vec![0x5A; 8]));
        });
        net.after(Duration::from_ms(1), |api| {
            let image: Vec<u8> = (0..64 * 1024 - 1).map(|i| (i % 251) as u8).collect();
            api.publish(NodeId(4), NRT, Event::new(NRT, image)).unwrap();
        });
        net
    };
    run_and_compare(
        "E8-shaped",
        build,
        Duration::from_ms(300),
        // Fragments 100 and 101 swapped on the wire.
        |evs| {
            let mut at = Vec::new();
            for (i, e) in evs.iter().enumerate() {
                if e.kind == "tx_end" {
                    if let Some((TagKind::Nrt, _, seq)) =
                        e.field("tag").and_then(rtec_core::node::unpack_tag)
                    {
                        if seq == 100 || seq == 101 {
                            at.push(i);
                        }
                    }
                }
            }
            assert_eq!(at.len(), 2, "the transfer got past fragment 101");
            let (a, b) = (at[0], at[1]);
            let (ta, tb) = (evs[a].time, evs[b].time);
            evs.swap(a, b);
            evs[a].time = ta;
            evs[b].time = tb;
        },
        RuleId::FragContiguity,
    );
}

/// Per-segment traces of a multi-segment topology with faults, one
/// segment fed by two routes of different latency.
#[test]
fn topology_segment_traces_agree() {
    let mut topo = Topology::new();
    for seg in 0..3usize {
        let config = NetworkConfig {
            nodes: 6,
            seed: 0x5EED + seg as u64,
            fault_model: FaultModel::Iid {
                corruption_p: 0.08,
                omission_p: 0.08,
                omission_scope: OmissionScope::OneRandomReceiver,
            },
            ..NetworkConfig::default()
        };
        topo.add_segment(config, NodeId(3));
        let subject = Subject::new(0x100 + seg as u64);
        topo.setup(seg, move |net| {
            {
                let mut api = net.api();
                api.announce(NodeId(0), subject, ChannelSpec::srt(SrtSpec::default()))
                    .unwrap();
                let _ = api
                    .subscribe(NodeId(1), subject, SubscribeSpec::default())
                    .unwrap();
            }
            let mut k = 0u8;
            net.every(
                Duration::from_us(700 + 300 * seg as u64),
                Duration::from_us(137),
                move |api| {
                    k = k.wrapping_add(1);
                    let _ =
                        api.publish(NodeId(0), subject, Event::new(subject, vec![seg as u8, k]));
                },
            );
        });
    }
    let root = Subject::new(0x100);
    topo.forward_via(
        root,
        0,
        1,
        NodeId(3),
        NodeId(2),
        Duration::from_us(300),
        SrtSpec::default(),
    );
    topo.forward_via(
        root,
        0,
        2,
        NodeId(4),
        NodeId(2),
        Duration::from_us(500),
        SrtSpec::default(),
    );
    topo.forward_via(
        Subject::new(0x101),
        1,
        2,
        NodeId(3),
        NodeId(5),
        Duration::from_us(200),
        SrtSpec::default(),
    );
    let report = topo.run_serial(Time::from_ms(40));
    let ctx = AuditContext::bare();
    for (i, seg) in report.segments.iter().enumerate() {
        assert!(!seg.trace.is_empty(), "segment {i} traced nothing");
        same(&format!("segment {i}"), &ctx, &seg.trace);
        let mut spoofed = seg.trace.clone();
        for e in spoofed.iter_mut().filter(|e| e.kind == "tx_start") {
            let node = e.field("node").unwrap();
            set_field(e, "node", node ^ 1);
        }
        let rep = same(&format!("segment {i}, spoofed"), &ctx, &spoofed);
        assert!(rep.fired(RuleId::TxNodeMatchesSender), "{rep}");
    }
}

/// A `live-narrow`-shaped cluster: one HRT, one SRT and one fragmented
/// NRT source feeding one subscriber; the merged trace is sorted by
/// (time, source), so same-instant records of different threads are
/// interleaved by name.
#[test]
fn live_narrow_shaped_trace_agrees() {
    use rtec_live::cluster::{Cluster, ClusterConfig};
    use rtec_live::node::{Behavior, NodeCtx};
    use rtec_live::Pace;

    struct Periodic {
        subject: Subject,
        every: Duration,
        len: usize,
        k: u8,
    }
    impl Behavior for Periodic {
        fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
            let at = match ctx.hrt_stage_schedule(self.subject) {
                Some((at, _)) => at,
                None => ctx.now() + Duration::from_us(50),
            };
            ctx.set_timer(at, 0).unwrap();
        }
        fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, _payload: u64) {
            self.k = self.k.wrapping_add(1);
            let _ = ctx.publish(Event::new(self.subject, vec![self.k; self.len]));
            ctx.set_timer(ctx.now() + self.every, 0).unwrap();
        }
    }
    struct Quiet;
    impl Behavior for Quiet {}

    let mut cluster = Cluster::new(ClusterConfig {
        pace: Pace::Virtual,
        nrt_queue_cap: 256,
        ..ClusterConfig::default()
    });
    let hrt = ChannelSpec::Hrt(HrtSpec::periodic_10ms());
    let srt = ChannelSpec::Srt(SrtSpec::default());
    let nrt = ChannelSpec::Nrt(NrtSpec::bulk());
    let sources = [
        (HRT, hrt, Duration::from_ms(10), 8),
        (SRT, srt, Duration::from_us(200), 8),
        (NRT, nrt, Duration::from_ms(2), 240),
    ];
    let mut nodes = Vec::new();
    for &(subject, spec, every, len) in &sources {
        let n = cluster.add_node(Box::new(Periodic {
            subject,
            every,
            len,
            k: 0,
        }));
        cluster.publish(n, subject, spec);
        nodes.push(n);
    }
    let sub = cluster.add_node(Box::new(Quiet));
    for &(subject, spec, ..) in &sources {
        cluster.subscribe(sub, subject, spec);
    }
    let report = cluster.run_for(Duration::from_ms(60)).unwrap();
    assert_eq!(report.trace_dropped, 0);
    let ctx = AuditContext::from_parts(
        (*report.calendar).clone(),
        report.calendar_start,
        report.channels.clone(),
        report.hrt_periods.clone(),
    );
    let rep = same("live-narrow-shaped", &ctx, &report.trace);
    assert!(rep.passes(), "{rep}");
    assert!(report.trace.iter().any(|e| e.kind == "nrt_complete"));
    // The same trace with every HRT delivery made early.
    let mut early = report.trace.clone();
    for e in early.iter_mut().filter(|e| e.kind == "hrt_deliver") {
        let wire = e.field("wire").unwrap();
        set_field(e, "wire", wire.max(e.time.as_ns()) + 1);
    }
    let rep = same("live-narrow-shaped, early", &ctx, &early);
    assert!(rep.fired(RuleId::DeferredDeliveryJitter), "{rep}");
}

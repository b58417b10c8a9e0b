//! Trace-invariant auditing (rules `T1`..`T9`).
//!
//! The auditor checks that the protocol behaved as the paper specifies:
//! arbitration honoured identifier order, HRT frames stayed inside
//! their reserved slots, deferred delivery removed jitter, expired SRT
//! events were dropped rather than sent, NRT fragment streams
//! reassembled completely, identifiers sat in their class bands and
//! named their sender, and gateway resumes never lost HRT.
//!
//! The rules run as one streaming [`Monitor`]: each record is handed to
//! [`Monitor::observe`] as it is emitted, dispatched once on its kind,
//! and read in place from its borrowed field slice. A rule that needs
//! history keeps only its open obligations — the HRT subscribers' last
//! delivery (`T3`), the expirations seen and the frames started at the
//! current instant (`T4`), the fragmented transfers and their streams'
//! last index (`T5`), the clients' earliest resume and the gaps no
//! resume has covered yet (`T9`). [`Monitor::finish`] closes those and
//! hands back the [`Report`]. A [`rtec_sim::TraceSink::tapped`] sink
//! runs the monitor inside the emitter, so no trace is kept at all;
//! [`audit`] feeds it a recorded slice.
//!
//! Records must arrive in non-decreasing time order, as every host
//! emits them (the live cluster and the gateway sort their merged
//! traces by time). Within one instant any order is accepted: a frame
//! started at the instant its event expires is flagged whichever record
//! came first, and a gap notice is covered by a resume of the same
//! instant recorded after it.

use crate::diag::{Report, RuleId};
use rtec_analysis::admission::CalendarPlan;
use rtec_can::PRIO_HRT;
use rtec_core::binding::ETAG_FIRST_DYNAMIC;
use rtec_core::channel::ChannelClass;
use rtec_core::node::{unpack_tag, TagKind};
use rtec_sim::{Duration, Time, TraceEvent, TraceTap};
use std::collections::hash_map::Entry;
use std::collections::HashMap;

/// Identifier bit layout (mirrors `rtec_can::id`; the auditor decodes
/// raw 29-bit values recorded in the trace).
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

/// Static context the auditor interprets a trace against.
#[derive(Clone, Debug, Default)]
pub struct AuditContext {
    /// The installed HRT calendar, if any (enables `T2`).
    pub calendar: Option<CalendarPlan>,
    /// True-time instant of the first round start.
    pub calendar_start: Option<Time>,
    /// Timeliness class of each bound etag (enables `T7`).
    pub channels: HashMap<u16, ChannelClass>,
    /// Declared period of each *periodic* (non-sporadic) HRT etag
    /// (enables the cadence half of `T3`).
    pub hrt_periods: HashMap<u16, Duration>,
    /// Whether deferred HRT delivery (jitter removal) was on.
    pub hrt_deferred_delivery: bool,
    /// Slack added to every time-window comparison, to absorb clock
    /// drift between node-local and bus time. Zero for perfect clocks.
    pub tolerance: Duration,
}

impl AuditContext {
    /// A context with no calendar and no channels — only the
    /// context-free rules (`T1`, `T4`..`T6`, `T8`) can fire.
    pub fn bare() -> Self {
        AuditContext::default()
    }

    /// Assemble a full context from its parts. This is how runtimes
    /// other than the simulator (e.g. the live broker) hand their
    /// static configuration to the auditor: pass the installed
    /// calendar, the bus-time instant of round 0, and the etag
    /// class/period maps. Deferred HRT delivery is assumed on (both
    /// runtimes implement it); widen `tolerance` afterwards if the
    /// trace mixes imperfect clocks.
    pub fn from_parts(
        calendar: CalendarPlan,
        calendar_start: Time,
        channels: HashMap<u16, ChannelClass>,
        hrt_periods: HashMap<u16, Duration>,
    ) -> Self {
        AuditContext {
            calendar: Some(calendar),
            calendar_start: Some(calendar_start),
            channels,
            hrt_periods,
            hrt_deferred_delivery: true,
            tolerance: Duration::ZERO,
        }
    }
}

/// Run all trace rules over a recorded trace.
pub fn audit(ctx: &AuditContext, events: &[TraceEvent]) -> Report {
    let mut monitor = Monitor::new(ctx);
    for ev in events {
        monitor.observe(ev.time, ev.kind, &ev.fields);
    }
    monitor.finish()
}

/// Count replayed handshakes in a live trace: `hello_replay` records
/// the broker emits when a `Hello` arrives carrying an incarnation
/// older than the node's current one (a straggling duplicate of an
/// earlier handshake, not a rejoin — those trace as `hello_rejoin`).
/// The chaos harness feeds its merged trace through this to assert
/// duplicated handshake datagrams were classified, not re-welcomed.
pub fn handshake_anomalies(events: &[TraceEvent]) -> usize {
    events.iter().filter(|e| e.kind == "hello_replay").count()
}

/// First value recorded under `name`.
fn field(fields: &[(&'static str, u64)], name: &str) -> Option<u64> {
    fields.iter().find(|(k, _)| *k == name).map(|&(_, v)| v)
}

/// `report` plus an error for each gap notice no resume covered (`T9`),
/// sorted by rule.
fn verdict(mut report: Report, uncovered_gaps: &[(u64, Time)]) -> Report {
    for &(client, at) in uncovered_gaps {
        report.error_at(
            RuleId::ResumeSafety,
            at,
            format!("client {client} was sent a Gap notice with no prior resume on record"),
            "gap notices may only be minted while a session resume replays",
        );
    }
    report
        .diagnostics
        .sort_by_key(|d| RuleId::ALL.iter().position(|&r| r == d.rule));
    report
}

/// The installed calendar, digested for `T2`.
#[derive(Debug)]
struct Calendar {
    start_ns: i128,
    round_ns: i128,
    /// `(etag, publisher, lo, hi)` of every slot: its window in the
    /// round, widened by the tolerance.
    windows: Vec<(u16, u8, i128, i128)>,
}

/// The trace rules `T1`..`T9` as one automaton over a record stream.
#[derive(Debug)]
pub struct Monitor {
    records: u64,
    report: Report,
    calendar: Option<Calendar>,
    /// Class of each etag, indexed by etag (`T7`).
    classes: Vec<Option<ChannelClass>>,
    /// Period of each periodic HRT etag, when deferred delivery is on
    /// (`T3`).
    periods: Option<HashMap<u16, u64>>,
    tolerance_ns: u64,
    /// Last delivery instant per (etag, subscriber) (`T3`).
    last_delivery: HashMap<(u16, u64), u64>,
    /// First expiry instant per (tag, node) (`T4`).
    expired_at: HashMap<(u64, u64), u64>,
    /// The latest instant a frame started at, and the (tag, node) of
    /// every frame started then (`T4`).
    instant: Time,
    started: Vec<(u64, u64)>,
    /// Byte count of each fragmented transfer, per (origin, etag);
    /// holding a key marks the stream fragmented (`T5`).
    transfers: HashMap<(u64, u64), Vec<u64>>,
    /// Last fragment index on the wire per fragmented stream (`T5`).
    frag_index: HashMap<(u64, u64), u64>,
    /// Messages reassembled per (subscriber, origin, etag) (`T5`).
    reassembled: HashMap<(u64, u64, u64), usize>,
    /// Earliest resume instant per client (`T9`).
    first_resume: HashMap<u64, Time>,
    /// Gap notices no resume at or before them has covered yet (`T9`).
    uncovered_gaps: Vec<(u64, Time)>,
}

impl Monitor {
    /// A monitor checking records against `ctx`.
    pub fn new(ctx: &AuditContext) -> Self {
        let calendar = match (&ctx.calendar, ctx.calendar_start) {
            (Some(plan), Some(start)) if plan.round.as_ns() != 0 => {
                let tol = ctx.tolerance.as_ns() as i128;
                Some(Calendar {
                    start_ns: start.as_ns() as i128,
                    round_ns: plan.round.as_ns() as i128,
                    windows: plan
                        .slots
                        .iter()
                        .map(|s| {
                            (
                                s.etag,
                                s.publisher.0,
                                s.start.as_ns() as i128 - tol,
                                s.deadline().as_ns() as i128 + tol,
                            )
                        })
                        .collect(),
                })
            }
            _ => None,
        };
        let mut classes = vec![None; 1 << ETAG_BITS];
        for (&etag, &class) in &ctx.channels {
            if let Some(slot) = classes.get_mut(usize::from(etag)) {
                *slot = Some(class);
            }
        }
        Monitor {
            records: 0,
            report: Report::new(),
            calendar,
            classes,
            periods: ctx.hrt_deferred_delivery.then(|| {
                ctx.hrt_periods
                    .iter()
                    .map(|(&etag, period)| (etag, period.as_ns()))
                    .collect()
            }),
            tolerance_ns: ctx.tolerance.as_ns(),
            last_delivery: HashMap::new(),
            expired_at: HashMap::new(),
            instant: Time::ZERO,
            started: Vec::new(),
            transfers: HashMap::new(),
            frag_index: HashMap::new(),
            reassembled: HashMap::new(),
            first_resume: HashMap::new(),
            uncovered_gaps: Vec::new(),
        }
    }

    /// Check one record.
    pub fn observe(&mut self, time: Time, kind: &'static str, fields: &[(&'static str, u64)]) {
        self.records += 1;
        match kind {
            "arb" => self.arbitration(time, fields),
            "tx_start" | "tx_start_corrupt" | "tx_start_omit" => self.tx_start(time, fields),
            "tx_end" => self.tx_end(time, fields),
            "hrt_deliver" => self.hrt_deliver(time, fields),
            "srt_expire" => self.srt_expire(time, fields),
            "nrt_enqueue" => self.nrt_enqueue(fields),
            "nrt_complete" => self.nrt_complete(time, fields),
            "gw_resume" => self.gw_resume(time, fields),
            "gw_gap" => self.gw_gap(time, fields),
            _ => {}
        }
    }

    /// Records observed so far.
    pub fn records(&self) -> u64 {
        self.records
    }

    /// The verdict on the records observed so far — what
    /// [`Monitor::finish`] would return now.
    pub fn report(&self) -> Report {
        verdict(self.report.clone(), &self.uncovered_gaps)
    }

    /// Close the open obligations and return the verdict, rule by rule
    /// in [`RuleId::ALL`] order, each rule's findings in the order they
    /// were found.
    pub fn finish(self) -> Report {
        verdict(self.report, &self.uncovered_gaps)
    }

    /// T1 + T6: the winner must be the minimum contending identifier
    /// (§2.1), and no identifier may be contended by two nodes at once
    /// (§3.5).
    fn arbitration(&mut self, time: Time, fields: &[(&'static str, u64)]) {
        let Some(win) = field(fields, "win") else {
            return;
        };
        let ids = || {
            fields
                .iter()
                .filter(|(k, _)| *k == "cand")
                .map(|&(_, c)| c & 0xFFFF_FFFF)
        };
        // The bus records contenders in identifier order, so the first
        // repeat is the least duplicated identifier; any other order
        // takes the quadratic search.
        let (mut min, mut prev, mut dup, mut sorted) = (None::<u64>, None::<u64>, None, true);
        for id in ids() {
            min = Some(min.map_or(id, |m| m.min(id)));
            match prev {
                Some(p) if id < p => sorted = false,
                Some(p) if id == p && dup.is_none() => dup = Some(id),
                _ => {}
            }
            prev = Some(id);
        }
        if !sorted {
            dup = ids()
                .filter(|&id| ids().filter(|&o| o == id).nth(1).is_some())
                .min();
        }
        if let Some(min) = min.filter(|&m| m != win) {
            self.report.error_at(
                RuleId::ArbWinnerOrder,
                time,
                format!(
                    "arbitration winner has identifier {win:#x} while {min:#x} \
                     was contending (lower wins)"
                ),
                "the bus model violated CAN arbitration; check controller state",
            );
        }
        if let Some(dup) = dup {
            let nodes: Vec<u64> = fields
                .iter()
                .filter(|&&(k, c)| k == "cand" && c & 0xFFFF_FFFF == dup)
                .map(|&(_, c)| c >> 32)
                .collect();
            self.report.error_at(
                RuleId::DuplicateContender,
                time,
                format!(
                    "identifier {dup:#x} contended simultaneously from nodes {nodes:?}; \
                     CAN requires system-wide unique identifiers"
                ),
                "fix the etag/TxNode assignment so encodings cannot collide",
            );
        }
    }

    /// T2, T4, T7 and T8 on a frame starting on the wire.
    fn tx_start(&mut self, time: Time, fields: &[(&'static str, u64)]) {
        let (id, node, tag) = (
            field(fields, "id"),
            field(fields, "node"),
            field(fields, "tag"),
        );
        if let Some(raw) = id {
            self.slot_window(time, raw);
            self.priority_band(time, raw);
            if let Some(node) = node {
                self.txnode(time, raw, node);
            }
        }
        let (Some(tag), Some(node)) = (tag, node) else {
            return;
        };
        if let Some(&t_exp) = self.expired_at.get(&(tag, node)) {
            if time.as_ns() >= t_exp {
                self.expired_sent(time, tag, t_exp);
            }
        }
        if time != self.instant {
            self.instant = time;
            self.started.clear();
        }
        self.started.push((tag, node));
    }

    /// T2: every HRT-priority frame must start on the wire inside a
    /// reserved slot window `[ready, deadline]` of its (etag,
    /// publisher) — between the slot's ready instant and its delivery
    /// deadline (§3.2).
    fn slot_window(&mut self, time: Time, raw: u64) {
        let Some(cal) = &self.calendar else { return };
        if id_priority(raw) != PRIO_HRT {
            return;
        }
        let (etag, txnode) = (id_etag(raw), id_txnode(raw));
        let offset = time.as_ns() as i128 - cal.start_ns;
        if offset + (self.tolerance_ns as i128) < 0 {
            self.report.error_at(
                RuleId::HrtSlotWindow,
                time,
                format!("HRT frame (etag {etag}) transmitted before the first round start"),
                "do not raise a frame to P_HRT outside the calendar",
            );
            return;
        }
        let round = cal.round_ns;
        let in_round = offset.rem_euclid(round);
        // The offset is taken modulo the round, so a window starting
        // near the round's end may wrap.
        let in_window = cal
            .windows
            .iter()
            .filter(|w| w.0 == etag && w.1 == txnode)
            .any(|&(_, _, lo, hi)| {
                [in_round, in_round + round, in_round - round]
                    .iter()
                    .any(|t| (lo..=hi).contains(t))
            });
        if !in_window {
            self.report.error_at(
                RuleId::HrtSlotWindow,
                time,
                format!(
                    "HRT frame (etag {etag}, node {txnode}) started {in_round} ns into \
                     the round, outside every slot reserved for it"
                ),
                "HRT transmissions must stay within their calendar reservation",
            );
        }
    }

    /// T7: the priority of every transmitted identifier must sit inside
    /// the band of the channel's timeliness class; infrastructure
    /// traffic must never use `P_HRT` (§3.3).
    fn priority_band(&mut self, time: Time, raw: u64) {
        let (prio, etag) = (id_priority(raw), id_etag(raw));
        if etag < ETAG_FIRST_DYNAMIC {
            if prio == PRIO_HRT {
                self.report.error_at(
                    RuleId::PriorityBandConsistency,
                    time,
                    format!(
                        "infrastructure frame (etag {etag}) used P_HRT = 0; priority \
                         0 is reserved for calendar slots"
                    ),
                    "send SYNC/BIND traffic at an SRT-band priority",
                );
            }
            return;
        }
        let Some(class) = self.classes[usize::from(etag)] else {
            return;
        };
        let band_ok = match class {
            // LST priority-raising means an HRT frame is always on the
            // wire at priority 0 (§3.2).
            ChannelClass::Hrt => prio == PRIO_HRT,
            ChannelClass::Srt => (rtec_can::PRIO_SRT_MIN..=rtec_can::PRIO_SRT_MAX).contains(&prio),
            ChannelClass::Nrt => prio >= rtec_can::PRIO_NRT_MIN,
        };
        if !band_ok {
            self.report.error_at(
                RuleId::PriorityBandConsistency,
                time,
                format!(
                    "{class:?} channel etag {etag} transmitted at priority {prio}, \
                     outside its class band"
                ),
                "encode identifiers with the class's priority band (0 = P_HRT < P_SRT < P_NRT)",
            );
        }
    }

    /// T8: the TxNode field of every transmitted identifier must equal
    /// the node that actually sent the frame — the encoding that makes
    /// identifiers system-wide unique (§3.5).
    fn txnode(&mut self, time: Time, raw: u64, node: u64) {
        let encoded = u64::from(id_txnode(raw));
        if encoded != node {
            self.report.error_at(
                RuleId::TxNodeMatchesSender,
                time,
                format!(
                    "frame with identifier {raw:#x} encodes TxNode {encoded} but was \
                     sent by node {node}"
                ),
                "nodes must stamp their own TxNode into every identifier",
            );
        }
    }

    /// T4: once an SRT event expires (its temporal validity ran out),
    /// its frame must never appear on the wire afterwards (§3.4). Keyed
    /// by (tag, node): SRT sequence numbers are per-node, so the same
    /// tag from different senders names different events.
    fn srt_expire(&mut self, time: Time, fields: &[(&'static str, u64)]) {
        let (Some(tag), Some(node)) = (field(fields, "tag"), field(fields, "node")) else {
            return;
        };
        let Entry::Vacant(first) = self.expired_at.entry((tag, node)) else {
            return;
        };
        let t_exp = *first.insert(time.as_ns());
        if self.instant.as_ns() >= t_exp {
            // Frames that started at this instant before the expiry
            // was recorded.
            let at = self.instant;
            let late = self.started.iter().filter(|&&s| s == (tag, node)).count();
            for _ in 0..late {
                self.expired_sent(at, tag, t_exp);
            }
        }
    }

    fn expired_sent(&mut self, time: Time, tag: u64, t_exp: u64) {
        let (_, etag, seq) = unpack_tag(tag).unwrap_or((TagKind::Srt, 0, 0));
        self.report.error_at(
            RuleId::ExpiredNeverSent,
            time,
            format!(
                "SRT event (etag {etag}, seq {seq}) transmitted although it \
                 expired at {t_exp} ns"
            ),
            "expired events must be discarded from the send queue",
        );
    }

    /// T3: with deferred delivery on, no HRT event is delivered before
    /// its frame completed on the wire, and per (etag, subscriber) the
    /// delivery cadence is an integer multiple of the channel period —
    /// the jitter removal of §3.2.
    fn hrt_deliver(&mut self, time: Time, fields: &[(&'static str, u64)]) {
        let Some(periods) = &self.periods else { return };
        let (Some(etag), Some(node), Some(wire)) = (
            field(fields, "etag"),
            field(fields, "node"),
            field(fields, "wire"),
        ) else {
            return;
        };
        let period_ns = periods.get(&(etag as u16)).copied().unwrap_or(0);
        let now = time.as_ns();
        if now < wire {
            self.report.error_at(
                RuleId::DeferredDeliveryJitter,
                time,
                format!(
                    "HRT event (etag {etag}, node {node}) delivered {} ns before its \
                     frame completed on the wire",
                    wire - now
                ),
                "deferred delivery must wait for the slot deadline",
            );
        }
        if period_ns == 0 {
            return;
        }
        let etag = etag as u16;
        let last = match self.last_delivery.entry((etag, node)) {
            Entry::Vacant(first) => {
                first.insert(now);
                return;
            }
            Entry::Occupied(mut slot) => {
                let last = *slot.get();
                slot.insert(last.max(now));
                last
            }
        };
        // Lost events make the spacing a *multiple* of the period;
        // anything off-grid is delivery jitter the protocol promised to
        // remove.
        let gap = now.abs_diff(last);
        let allow = (period_ns / 100).max(50_000) + self.tolerance_ns;
        let rem = gap % period_ns;
        let dev = rem.min(period_ns - rem);
        if dev > allow {
            self.report.error_at(
                RuleId::DeferredDeliveryJitter,
                Time::from_ns(now.max(last)),
                format!(
                    "HRT deliveries (etag {etag}, node {node}) are {gap} ns apart, \
                     {dev} ns off the {period_ns} ns period grid"
                ),
                "deferred delivery should pin deliveries to the slot-deadline grid",
            );
        }
    }

    /// T5, part one: a fragmented transfer enters its origin's queue.
    fn nrt_enqueue(&mut self, fields: &[(&'static str, u64)]) {
        if field(fields, "fragmented") != Some(1) {
            return;
        }
        let (Some(etag), Some(node), Some(_), Some(bytes)) = (
            field(fields, "etag"),
            field(fields, "node"),
            field(fields, "frags"),
            field(fields, "bytes"),
        ) else {
            return;
        };
        self.transfers.entry((node, etag)).or_default().push(bytes);
    }

    /// T5, part two: per (origin, etag), fragment indices observed on
    /// the wire must form contiguous runs starting at 0 (§2.2.3).
    fn tx_end(&mut self, time: Time, fields: &[(&'static str, u64)]) {
        if self.transfers.is_empty() || field(fields, "all") != Some(1) {
            return;
        }
        let (Some(tag), Some(node)) = (field(fields, "tag"), field(fields, "node")) else {
            return;
        };
        let Some((TagKind::Nrt, etag, seq)) = unpack_tag(tag) else {
            return;
        };
        let key = (node, u64::from(etag));
        if !self.transfers.contains_key(&key) {
            return; // unfragmented NRT: seq is not a fragment index
        }
        let seq = u64::from(seq);
        let prev = self.frag_index.insert(key, seq);
        let ok = match prev {
            None => seq == 0,
            Some(p) => seq == p + 1 || seq == 0,
        };
        if !ok {
            self.report.error_at(
                RuleId::FragContiguity,
                time,
                format!(
                    "NRT fragment stream (origin {node}, etag {etag}) jumped from \
                     index {prev:?} to {seq}; fragments must be sent in order"
                ),
                "send fragments strictly in sequence, one transfer at a time",
            );
        }
    }

    /// T5, part three: every reassembled message must match the byte
    /// count of the transfer that produced it, FIFO per (subscriber,
    /// origin, etag) against the origin's enqueue order (§2.2.3).
    fn nrt_complete(&mut self, time: Time, fields: &[(&'static str, u64)]) {
        let (Some(etag), Some(node), Some(origin), Some(bytes)) = (
            field(fields, "etag"),
            field(fields, "node"),
            field(fields, "origin"),
            field(fields, "bytes"),
        ) else {
            return;
        };
        let idx = self.reassembled.entry((node, origin, etag)).or_insert(0);
        let n = *idx;
        *idx += 1;
        match self.transfers.get(&(origin, etag)).and_then(|t| t.get(n)) {
            None => self.report.error_at(
                RuleId::FragContiguity,
                time,
                format!(
                    "node {node} reassembled a message (origin {origin}, etag \
                     {etag}) that was never enqueued"
                ),
                "reassembly must only complete for transfers actually sent",
            ),
            Some(&sent) if sent != bytes => self.report.error_at(
                RuleId::FragContiguity,
                time,
                format!(
                    "node {node} reassembled {bytes} byte(s) for origin {origin} \
                     etag {etag}, but transfer #{n} carried {sent} byte(s)"
                ),
                "fragment payload boundaries were lost in reassembly",
            ),
            Some(_) => {}
        }
    }

    /// T9: gateway session resume must never duplicate or silently lose
    /// an HRT delivery (§3.2). A resume whose verdict was `Resumed`
    /// (code 1 — the no-loss outcome) must report zero gap frames, and
    /// it covers its client's gap notices from its instant on.
    fn gw_resume(&mut self, time: Time, fields: &[(&'static str, u64)]) {
        let (Some(client), Some(verdict)) = (field(fields, "client"), field(fields, "verdict"))
        else {
            return;
        };
        let first = self.first_resume.entry(client).or_insert(time);
        *first = (*first).min(time);
        self.uncovered_gaps
            .retain(|&(c, at)| c != client || at < time);
        let gaps = field(fields, "gaps").unwrap_or(0);
        if verdict == 1 && gaps != 0 {
            self.report.error_at(
                RuleId::ResumeSafety,
                time,
                format!(
                    "client {client} resumed with verdict Resumed but the gateway \
                     recorded {gaps} gap frame(s)"
                ),
                "a lossless resume must answer with verdict Gap when anything was dropped",
            );
        }
    }

    /// T9: no `gw_gap` record may name the HRT class (gaps are legal
    /// only for SRT staleness sheds and NRT ring overruns), and every
    /// one must be attributable to a `gw_resume` of the same client at
    /// or before it (gaps are only minted while a resume replays).
    fn gw_gap(&mut self, time: Time, fields: &[(&'static str, u64)]) {
        let (Some(client), Some(class)) = (field(fields, "client"), field(fields, "class")) else {
            return;
        };
        if class == 0 {
            self.report.error_at(
                RuleId::ResumeSafety,
                time,
                format!("client {client} was sent a Gap notice for the HRT class"),
                "HRT deliveries are never shed; replay them from the session buffer instead",
            );
        }
        if self.first_resume.get(&client).is_none_or(|&at| at > time) {
            self.uncovered_gaps.push((client, time));
        }
    }
}

impl TraceTap for Monitor {
    fn observe(&mut self, time: Time, kind: &'static str, fields: &[(&'static str, u64)]) {
        Monitor::observe(self, time, kind, fields);
    }
}

//! The channel-class machine driven directly: no engine, no bus model,
//! no threads — inputs in, outputs out.
//!
//! The unit tests pin the abort races that used to be reachable only
//! through the live runtime's threads (an `AbortResult` that loses to
//! the wire, a `TxDone` overtaking it, an expiration arriving while a
//! withdrawal is pending). The proptest drives random interleavings of
//! publishes, timers, wire progress and delayed abort answers through a
//! minimal fake bus and checks the transmit-side contracts of all three
//! classes on every output.

use proptest::prelude::*;
use rtec_analysis::admission::{CalendarPlan, SlotRequest};
use rtec_analysis::edf::{priority_for_deadline, PrioritySlotConfig};
use rtec_can::bits::BitTiming;
use rtec_can::{Frame, NodeId, PRIO_HRT};
use rtec_core::channel::{ChannelClass, ChannelException, ChannelSpec, HrtSpec, NrtSpec, SrtSpec};
use rtec_core::event::{Event, Subject};
use rtec_core::frag::Reassembler;
use rtec_core::machine::{Input, MachineConfig, NodeMachine, Output, PublishError, SrtTimer};
use rtec_core::node::{unpack_tag, TagKind};
use rtec_sim::{Duration, Time};
use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::Arc;

const ME: NodeId = NodeId(1);
const HRT_ETAGS: [u16; 2] = [10, 11];
const SRT_ETAGS: [u16; 2] = [20, 21];
const NRT_BULK: u16 = 30;
const NRT_INLINE: u16 = 31;
const SRT_CAP: usize = 6;
const NRT_CAP: usize = 64;
/// Upper bound on the wire time of one frame at 1 Mbit/s.
const FRAME_TIME: Duration = Duration::from_us(160);
const CALENDAR_START: Time = Time::from_ms(1);
const FIFTY_MS: Duration = Duration::from_ms(50);

fn hrt_spec(k: u32) -> HrtSpec {
    HrtSpec {
        omission_degree: k,
        ..HrtSpec::periodic_10ms()
    }
}

fn calendar() -> Arc<CalendarPlan> {
    let requests: Vec<SlotRequest> = HRT_ETAGS
        .iter()
        .zip([2, 1])
        .map(|(&etag, k)| SlotRequest {
            etag,
            publisher: ME,
            dlc: 8,
            omission_degree: k,
            period: Duration::from_ms(10),
        })
        .collect();
    let plan = CalendarPlan::plan(
        Duration::from_ms(10),
        &requests,
        BitTiming::MBIT_1,
        Duration::from_us(40),
    );
    Arc::new(plan.expect("two slots fit a 10 ms round"))
}

fn machine() -> NodeMachine {
    let mut m = NodeMachine::new(MachineConfig {
        node: ME,
        priority_slots: PrioritySlotConfig::paper_default(),
        timing: BitTiming::MBIT_1,
        srt_queue_cap: SRT_CAP,
        nrt_queue_cap: NRT_CAP,
        hrt_deferred_delivery: true,
    });
    m.install_calendar(calendar(), CALENDAR_START);
    for (etag, k) in HRT_ETAGS.into_iter().zip([2, 1]) {
        let spec = ChannelSpec::Hrt(hrt_spec(k));
        m.announce(etag, Subject::new(u64::from(etag)), spec);
    }
    // The second SRT channel's messages never expire by default.
    for (etag, default_expiration) in SRT_ETAGS.into_iter().zip([Some(FIFTY_MS), None]) {
        let spec = ChannelSpec::Srt(SrtSpec {
            default_expiration,
            ..SrtSpec::default()
        });
        m.announce(etag, Subject::new(u64::from(etag)), spec);
    }
    m.announce(
        NRT_BULK,
        Subject::new(30),
        ChannelSpec::Nrt(NrtSpec::bulk()),
    );
    let inline = ChannelSpec::Nrt(NrtSpec::default());
    m.announce(NRT_INLINE, Subject::new(31), inline);
    m
}

fn feed(m: &mut NodeMachine, now: Time, input: Input) -> Vec<Output> {
    let mut out = Vec::new();
    m.handle(now, input, &mut out).expect("accepted");
    out
}

fn srt_event(etag: u16, byte: u8, deadline: Time, expiration: Option<Time>) -> Input {
    let mut event = Event::new(Subject::new(u64::from(etag)), vec![byte]).with_deadline(deadline);
    event.attributes.expiration = expiration;
    Input::Publish {
        etag,
        event,
        stamp: Time::ZERO,
    }
}

/// `(class, tag seq)` of every `Submit` in `out`.
fn submits(out: &[Output]) -> Vec<(ChannelClass, u32)> {
    out.iter()
        .filter_map(|o| match o {
            Output::Submit { class, tag, .. } => Some((*class, unpack_tag(*tag).unwrap().2)),
            _ => None,
        })
        .collect()
}

fn aborts(out: &[Output]) -> usize {
    let is_abort = |o: &&Output| matches!(o, Output::Abort { .. });
    out.iter().filter(is_abort).count()
}

fn expired(out: &[Output]) -> usize {
    let is_expired = |o: &&Output| {
        matches!(
            o,
            Output::Raise {
                exc: ChannelException::Expired { .. },
                ..
            }
        )
    };
    out.iter().filter(is_expired).count()
}

const SRT: ChannelClass = ChannelClass::Srt;
const T0: Time = Time::from_us(100);

fn srt_tag(etag: u16, seq: u32) -> u64 {
    rtec_core::node::pack_tag(TagKind::Srt, etag, seq)
}

/// Two queued messages, the second more urgent: `(machine, outputs of
/// the second publish)`. Message 0 is submitted, message 1 wants in.
fn urgent_newcomer() -> (NodeMachine, Vec<Output>) {
    let mut m = machine();
    let late = T0 + Duration::from_ms(8);
    let out = feed(&mut m, T0, srt_event(20, 0, late, None));
    assert_eq!(submits(&out), vec![(SRT, 0)]);
    let out = feed(
        &mut m,
        T0,
        srt_event(21, 1, T0 + Duration::from_ms(1), None),
    );
    (m, out)
}

#[test]
fn urgent_newcomer_withdraws_the_submitted_frame() {
    let (mut m, out) = urgent_newcomer();
    assert_eq!((aborts(&out), submits(&out)), (1, vec![]));
    let won = Input::AbortResult {
        class: SRT,
        aborted: true,
    };
    assert_eq!(submits(&feed(&mut m, T0, won)), vec![(SRT, 1)]);
    // The withdrawn message stays queued and goes next.
    let done = Input::TxDone {
        tag: srt_tag(21, 1),
        all_received: true,
    };
    assert_eq!(submits(&feed(&mut m, T0, done)), vec![(SRT, 0)]);
}

#[test]
fn abort_that_loses_to_the_wire_changes_nothing() {
    let (mut m, _) = urgent_newcomer();
    let lost = Input::AbortResult {
        class: SRT,
        aborted: false,
    };
    assert!(feed(&mut m, T0, lost).is_empty());
    assert_eq!(m.srt_submitted().unwrap().seq, 0);
    let done = Input::TxDone {
        tag: srt_tag(20, 0),
        all_received: true,
    };
    assert_eq!(submits(&feed(&mut m, T0, done)), vec![(SRT, 1)]);
}

#[test]
fn tx_done_overtaking_the_abort_result_settles_it() {
    let (mut m, _) = urgent_newcomer();
    let done = Input::TxDone {
        tag: srt_tag(20, 0),
        all_received: true,
    };
    assert_eq!(submits(&feed(&mut m, T0, done)), vec![(SRT, 1)]);
    // The stale answer must not touch the new transmission.
    let lost = Input::AbortResult {
        class: SRT,
        aborted: false,
    };
    assert!(feed(&mut m, T0, lost).is_empty());
    assert_eq!(m.srt_submitted().unwrap().seq, 1);
}

#[test]
fn publishes_while_an_abort_is_pending_wait_for_its_answer() {
    let (mut m, _) = urgent_newcomer();
    let out = feed(
        &mut m,
        T0,
        srt_event(20, 2, T0 + Duration::from_us(500), None),
    );
    assert_eq!((aborts(&out), submits(&out)), (0, vec![]));
    // The answer picks the head *now*, not the one that asked.
    let won = Input::AbortResult {
        class: SRT,
        aborted: true,
    };
    assert_eq!(submits(&feed(&mut m, T0, won)), vec![(SRT, 2)]);
}

#[test]
fn expiring_the_submitted_message_needs_the_bus_to_agree() {
    for aborted in [true, false] {
        let mut m = machine();
        let (deadline, expiry) = (T0 + Duration::from_ms(1), T0 + Duration::from_ms(2));
        feed(&mut m, T0, srt_event(20, 0, deadline, Some(expiry)));
        let out = feed(&mut m, expiry, Input::SrtExpire { seq: 0 });
        assert_eq!((aborts(&out), expired(&out)), (1, 0));
        let answer = Input::AbortResult {
            class: SRT,
            aborted,
        };
        let out = feed(&mut m, expiry, answer);
        // Withdrawn: dropped as expired. On the wire: it goes out, and
        // a message that went out did not expire.
        assert_eq!(expired(&out), usize::from(aborted));
        assert_eq!(m.srt_queue().len(), usize::from(!aborted));
        let done = Input::TxDone {
            tag: srt_tag(20, 0),
            all_received: true,
        };
        assert_eq!(expired(&feed(&mut m, expiry, done)), 0);
        assert!(m.srt_queue().is_empty());
    }
}

#[test]
fn expiration_upgrades_a_pending_withdrawal() {
    let (mut m, _) = urgent_newcomer();
    // Message 0 expires while its (EDF-motivated) abort is in flight:
    // no second request, but the answer now also drops it.
    let out = feed(&mut m, T0, Input::SrtExpire { seq: 0 });
    assert_eq!((aborts(&out), expired(&out)), (0, 0));
    let won = Input::AbortResult {
        class: SRT,
        aborted: true,
    };
    let out = feed(&mut m, T0, won);
    assert_eq!((expired(&out), submits(&out)), (1, vec![(SRT, 1)]));
    assert_eq!(m.srt_queue().len(), 1);
}

#[test]
fn bounded_srt_queue_drops_the_last_served_or_refuses_the_newcomer() {
    let mut m = machine();
    let at = |ms: u64| T0 + Duration::from_ms(ms);
    for i in 0..SRT_CAP as u64 {
        feed(&mut m, T0, srt_event(21, i as u8, at(10 + i), None));
    }
    // Later than everything queued: the newcomer is the victim.
    let mut out = Vec::new();
    let refused = m.handle(T0, srt_event(20, 9, at(99), None), &mut out);
    assert_eq!(refused, Err(PublishError::Backpressure));
    assert!(out.is_empty());
    // More urgent: the latest-deadline entry is dropped as expired,
    // reporting its deadline for want of an expiration.
    let out = feed(&mut m, T0, srt_event(20, 9, at(1), None));
    let dropped = out.iter().find_map(|o| match o {
        Output::Raise {
            exc: ChannelException::Expired { expiration, .. },
            ..
        } => Some(*expiration),
        _ => None,
    });
    assert_eq!(dropped, Some(at(10 + SRT_CAP as u64 - 1)));
    assert_eq!(m.srt_queue().len(), SRT_CAP);
}

#[test]
fn hrt_deadline_withdraws_and_forgets_the_frame() {
    let mut m = machine();
    let plan = calendar();
    let (slot, s) = (0, plan.slots[0]);
    let etag = s.etag;
    let publish = Input::Publish {
        etag,
        event: Event::new(Subject::new(u64::from(etag)), vec![7; 8]),
        stamp: Time::ZERO,
    };
    feed(&mut m, Time::ZERO, publish);
    let at = |off: Duration| CALENDAR_START + off;
    feed(&mut m, at(s.start), Input::SlotReady { round: 0, slot });
    let out = feed(&mut m, at(s.lst()), Input::SlotLst { round: 0, slot });
    assert_eq!(submits(&out), vec![(ChannelClass::Hrt, slot as u32)]);
    let out = feed(
        &mut m,
        at(s.deadline()),
        Input::SlotDeadline { round: 0, slot },
    );
    assert_eq!(aborts(&out), 1);
    let exhausted = ChannelException::RedundancyExhausted {
        subject: Subject::new(u64::from(etag)),
        attempts: 1,
    };
    assert!(out
        .iter()
        .any(|o| matches!(o, Output::Raise { exc, .. } if *exc == exhausted)));
    // The frame was on the wire after all; its completion is stale.
    let lost = Input::AbortResult {
        class: ChannelClass::Hrt,
        aborted: false,
    };
    assert!(feed(&mut m, at(s.deadline()), lost).is_empty());
    let done = Input::TxDone {
        tag: rtec_core::node::pack_tag(TagKind::Hrt, etag, slot as u32),
        all_received: false,
    };
    assert!(feed(&mut m, at(s.deadline()), done).is_empty());
    assert!(m.hrt_active(etag).is_none());
}

// --------------------------------------------------------------------
// Random interleavings against a fake bus
// --------------------------------------------------------------------

#[derive(Clone, Copy, Debug, PartialEq)]
struct Tx {
    id: u64,
    class: ChannelClass,
    tag: u64,
    frame: Frame,
}

#[derive(Clone, Copy, Debug)]
enum Due {
    Srt(SrtTimer, u32),
    Ready(u64, usize),
    Lst(u64, usize),
    Deadline(u64, usize),
}

/// The machine, a serial wire that holds at most one frame, the
/// node's three controller slots, delayed abort answers and a timer
/// list — plus everything observed so far.
struct Harness {
    m: NodeMachine,
    plan: Arc<CalendarPlan>,
    now: Time,
    pending: [Option<Tx>; 3],
    wire: Option<(Tx, Time)>,
    /// Abort requests not yet answered: the transmission each names.
    abort_queue: VecDeque<(ChannelClass, Option<u64>)>,
    due: Vec<(Time, u64, Due)>,
    next_id: u64,
    // Observations.
    outputs: usize,
    submitted: u64,
    completed: u64,
    withdrawn: u64,
    srt_deadlines: HashMap<u32, Time>,
    srt_sent: HashSet<u32>,
    srt_expired: HashSet<u32>,
    /// Messages the machine said `Disarm` for. Their timers stay on
    /// the list all the same, so each still fires — as a stale input.
    srt_disarmed: HashSet<u32>,
    hrt_attempts: HashMap<(u64, usize), u32>,
    nrt_published: VecDeque<Vec<u8>>,
    nrt_wire: Reassembler<u8>,
    nrt_next_index: usize,
}

const ROUNDS: u64 = 3;

impl Harness {
    fn new() -> Self {
        let plan = calendar();
        let mut due = Vec::new();
        for round in 0..ROUNDS {
            let base = CALENDAR_START + plan.round * round;
            for (slot, s) in plan.slots.iter().enumerate() {
                due.push((base + s.start, 0, Due::Ready(round, slot)));
                due.push((base + s.lst(), 0, Due::Lst(round, slot)));
                due.push((base + s.deadline(), 0, Due::Deadline(round, slot)));
            }
        }
        for (i, d) in due.iter_mut().enumerate() {
            d.1 = i as u64;
        }
        Harness {
            m: machine(),
            plan,
            now: Time::ZERO,
            pending: [None; 3],
            wire: None,
            abort_queue: VecDeque::new(),
            next_id: due.len() as u64,
            due,
            outputs: 0,
            submitted: 0,
            completed: 0,
            withdrawn: 0,
            srt_deadlines: HashMap::new(),
            srt_sent: HashSet::new(),
            srt_expired: HashSet::new(),
            srt_disarmed: HashSet::new(),
            hrt_attempts: HashMap::new(),
            nrt_published: VecDeque::new(),
            nrt_wire: Reassembler::new(),
            nrt_next_index: 0,
        }
    }

    fn id(&mut self) -> u64 {
        self.next_id += 1;
        self.next_id
    }

    fn outstanding(&self, class: ChannelClass) -> Option<Tx> {
        let on_wire = self.wire.map(|(tx, _)| tx).filter(|tx| tx.class == class);
        self.pending[class as usize].or(on_wire)
    }

    /// Feed one input and check every output against the contracts.
    fn feed(&mut self, input: Input) -> Result<Result<(), PublishError>, TestCaseError> {
        let promoting = match input {
            Input::SrtPromote { seq } => Some(seq),
            _ => None,
        };
        let mut out = Vec::new();
        let accepted = self.m.handle(self.now, input, &mut out);
        if accepted.is_err() {
            prop_assert!(out.is_empty(), "a refused publish has no effects");
        }
        self.outputs += out.len();
        for o in out {
            match o {
                Output::Submit { class, frame, tag } => {
                    prop_assert!(
                        self.outstanding(class).is_none(),
                        "second outstanding {class:?} transmission"
                    );
                    let (kind, etag, seq) = unpack_tag(tag).expect("machine tags decode");
                    prop_assert_eq!((frame.id.txnode(), frame.id.etag()), (ME.0, etag));
                    match kind {
                        TagKind::Srt => self.check_srt_submit(class, frame, seq)?,
                        TagKind::Nrt => self.check_nrt_submit(class, frame, seq)?,
                        TagKind::Hrt => self.check_hrt_submit(class, frame, etag, seq)?,
                        _ => prop_assert!(false, "unexpected tag kind {kind:?}"),
                    }
                    let id = self.id();
                    self.pending[class as usize] = Some(Tx {
                        id,
                        class,
                        tag,
                        frame,
                    });
                    self.submitted += 1;
                }
                Output::Abort { class } => {
                    prop_assert!(class != ChannelClass::Nrt, "NRT never aborts");
                    let target = self.outstanding(class).map(|tx| tx.id);
                    prop_assert!(target.is_some(), "abort without a transmission");
                    self.abort_queue.push_back((class, target));
                }
                Output::UpdateId { id } => {
                    let tx = self.outstanding(SRT);
                    prop_assert!(tx.is_some(), "promotion without a transmission");
                    if let Some(p) = self.pending[SRT as usize].as_mut() {
                        prop_assert_eq!(id.etag(), p.frame.id.etag());
                        p.frame.id = id;
                    }
                }
                Output::ArmTimer { at, timer, seq } => {
                    if timer == SrtTimer::Deadline {
                        self.srt_deadlines.insert(seq, at);
                    }
                    if timer == SrtTimer::Promote {
                        // Every promotion starts a chain, and a
                        // promotion re-arms along the one it fired on.
                        let chain = self.m.promote_chain(seq, at);
                        prop_assert!(chain.is_some(), "promotion off its chain: {seq}");
                        let fired = self.m.promote_chain(seq, self.now);
                        if let (Some(seq_), Some(fired)) = (promoting, fired) {
                            prop_assert_eq!(seq_, seq);
                            prop_assert_eq!(fired.after(self.now), Some(at));
                        }
                    }
                    let id = self.id();
                    self.due.push((at.max(self.now), id, Due::Srt(timer, seq)));
                }
                Output::Disarm { seq } => {
                    prop_assert!(self.srt_disarmed.insert(seq), "disarmed twice: {seq}");
                    let queued = self.m.srt_queue().get(seq);
                    prop_assert!(queued.is_none(), "disarmed while still queued: {seq}");
                }
                Output::Trace {
                    kind: "srt_expire",
                    fields,
                    ..
                } => {
                    let seq = fields[1].1 as u32;
                    prop_assert!(!self.srt_sent.contains(&seq), "sent and expired: {seq}");
                    prop_assert!(self.srt_expired.insert(seq), "expired twice: {seq}");
                    let tx = self
                        .outstanding(SRT)
                        .map(|tx| unpack_tag(tx.tag).unwrap().2);
                    prop_assert!(tx != Some(seq), "expired while still submitted: {seq}");
                }
                _ => {}
            }
        }
        Ok(accepted)
    }

    fn check_srt_submit(
        &self,
        class: ChannelClass,
        frame: Frame,
        seq: u32,
    ) -> Result<(), TestCaseError> {
        prop_assert_eq!(class, SRT);
        let prio = |deadline| {
            priority_for_deadline(deadline, self.now, &PrioritySlotConfig::paper_default())
        };
        // The head over the whole queue, not over the channel fronts.
        let queue = self.m.srt_queue().iter();
        let head = queue.min_by_key(|m| (prio(m.deadline), m.deadline, m.seq));
        let head = head.expect("submitted from the queue");
        prop_assert_eq!(seq, head.seq, "submitted message is not the EDF head");
        prop_assert!(!self.srt_expired.contains(&seq), "submitted after expiry");
        prop_assert!(!self.srt_sent.contains(&seq), "submitted twice over");
        prop_assert_eq!(frame.id.priority(), prio(head.deadline));
        Ok(())
    }

    fn check_nrt_submit(
        &mut self,
        class: ChannelClass,
        frame: Frame,
        idx: u32,
    ) -> Result<(), TestCaseError> {
        prop_assert_eq!(class, ChannelClass::Nrt);
        if frame.id.etag() == NRT_INLINE {
            prop_assert_eq!(idx, 0);
            let sent = self.nrt_published.pop_front();
            prop_assert_eq!(sent.as_deref(), Some(frame.payload()));
            return Ok(());
        }
        // Fragments leave in index order and reassemble, transfer by
        // transfer, into what was published, in publication order.
        prop_assert_eq!(idx as usize, self.nrt_next_index, "fragment out of order");
        self.nrt_next_index += 1;
        if let Some(data) = self
            .nrt_wire
            .push(0, frame.payload())
            .expect("valid stream")
        {
            prop_assert_eq!(Some(data), self.nrt_published.pop_front());
            self.nrt_next_index = 0;
        }
        Ok(())
    }

    fn check_hrt_submit(
        &mut self,
        class: ChannelClass,
        frame: Frame,
        etag: u16,
        slot: u32,
    ) -> Result<(), TestCaseError> {
        prop_assert_eq!(class, ChannelClass::Hrt);
        prop_assert_eq!(frame.id.priority(), PRIO_HRT);
        let active = self
            .m
            .hrt_active(etag)
            .expect("submits from an active slot");
        let s = self.plan.slots[active.slot];
        prop_assert_eq!((s.etag, active.slot as u32), (etag, slot));
        let base = CALENDAR_START + self.plan.round * active.round;
        prop_assert!(self.now >= base + s.lst(), "HRT submit before the LST");
        prop_assert!(
            self.now <= base + s.deadline(),
            "HRT submit past the deadline"
        );
        let k = if etag == HRT_ETAGS[0] { 2 } else { 1 };
        let n = self
            .hrt_attempts
            .entry((active.round, active.slot))
            .or_default();
        *n += 1;
        prop_assert!(*n <= k + 1, "more than omission_degree + 1 attempts");
        Ok(())
    }

    /// Put a queued frame on the (free) wire; `pick` rotates the class.
    fn start_wire(&mut self, pick: u32) {
        if self.wire.is_some() {
            return;
        }
        // HRT wins arbitration when it contends, as on the real bus —
        // its slot arithmetic relies on that.
        let order = [0, 1 + pick as usize % 2, 2 - pick as usize % 2];
        if let Some(tx) = order.into_iter().find_map(|c| self.pending[c].take()) {
            self.wire = Some((tx, self.now));
        }
    }

    fn complete_wire(&mut self, all_received: bool) -> Result<(), TestCaseError> {
        let Some((tx, _)) = self.wire.take() else {
            return Ok(());
        };
        self.completed += 1;
        if let Some((TagKind::Srt, _, seq)) = unpack_tag(tx.tag) {
            prop_assert!(self.srt_sent.insert(seq));
        }
        let done = Input::TxDone {
            tag: tx.tag,
            all_received,
        };
        self.feed(done)?.expect("not a publish");
        Ok(())
    }

    fn answer_abort(&mut self) -> Result<(), TestCaseError> {
        let Some((class, target)) = self.abort_queue.pop_front() else {
            return Ok(());
        };
        let slot = &mut self.pending[class as usize];
        let aborted = target.is_some() && slot.map(|tx| tx.id) == target;
        if aborted {
            *slot = None;
            self.withdrawn += 1;
        }
        let answer = Input::AbortResult { class, aborted };
        self.feed(answer)?.expect("not a publish");
        Ok(())
    }

    /// Move to the next timer, settling first what real hosts settle
    /// within an instant (abort answers) or a frame time (the wire).
    fn advance(&mut self) -> Result<bool, TestCaseError> {
        while !self.abort_queue.is_empty() {
            self.answer_abort()?;
        }
        let next = self.due.iter().map(|&(at, id, _)| (at, id)).min();
        if let Some((_, started)) = self.wire {
            let ends = started + FRAME_TIME;
            if next.is_none_or(|(at, _)| at > ends) {
                self.now = self.now.max(ends);
                self.complete_wire(true)?;
                return Ok(true);
            }
        }
        let Some((at, id)) = next else {
            return Ok(false);
        };
        let idx = self.due.iter().position(|d| d.1 == id).expect("just found");
        let (_, _, due) = self.due.swap_remove(idx);
        self.now = self.now.max(at);
        let input = match due {
            Due::Srt(timer, seq) => timer.input(seq),
            Due::Ready(round, slot) => Input::SlotReady { round, slot },
            Due::Lst(round, slot) => Input::SlotLst { round, slot },
            Due::Deadline(round, slot) => Input::SlotDeadline { round, slot },
        };
        // What makes withdrawing a disarmed message's timers safe: fired
        // anyway, however much later, they find nothing to do.
        let stale = matches!(due, Due::Srt(_, seq) if self.srt_disarmed.contains(&seq));
        let before = stale.then(|| (self.outputs, self.srt_state()));
        self.feed(input)?.expect("not a publish");
        if let Some(before) = before {
            let after = (self.outputs, self.srt_state());
            prop_assert_eq!(before, after, "a stale {:?} was not a no-op", due);
        }
        Ok(true)
    }

    /// The machine's observable SRT state: each queued message with its
    /// deadline-miss flag, and the one submitted.
    fn srt_state(&self) -> (Vec<(u32, bool)>, Option<u32>) {
        let queue = self.m.srt_queue().iter().map(|m| (m.seq, m.missed));
        (queue.collect(), self.m.srt_submitted().map(|tx| tx.seq))
    }

    fn publish(&mut self, kind: u8, a: u32, b: u32) -> Result<(), TestCaseError> {
        let subject = |etag: u16| Subject::new(u64::from(etag));
        let (etag, event, nrt) = match kind {
            0 => {
                let etag = SRT_ETAGS[a as usize % 2];
                let deadline = self.now + Duration::from_us(50 + u64::from(b % 5_000));
                let mut event = Event::new(subject(etag), vec![a as u8]).with_deadline(deadline);
                if a & 4 != 0 {
                    event =
                        event.with_expiration(deadline + Duration::from_us(u64::from(a % 3_000)));
                }
                (etag, event, None)
            }
            1 => {
                let (etag, len) = if a.is_multiple_of(2) {
                    (NRT_BULK, b as usize % 120)
                } else {
                    (NRT_INLINE, b as usize % 9)
                };
                let content: Vec<u8> = (0..len).map(|i| (i as u32 ^ a) as u8).collect();
                (
                    etag,
                    Event::new(subject(etag), content.clone()),
                    Some(content),
                )
            }
            _ => {
                let etag = HRT_ETAGS[a as usize % 2];
                (etag, Event::new(subject(etag), vec![b as u8; 8]), None)
            }
        };
        // The first fragment may leave within the publish itself.
        let is_nrt = nrt.is_some();
        self.nrt_published.extend(nrt);
        let stamp = self.now;
        if let Err(e) = self.feed(Input::Publish { etag, event, stamp })? {
            prop_assert_eq!(e, PublishError::Backpressure);
            if is_nrt {
                self.nrt_published.pop_back();
            }
        }
        Ok(())
    }

    /// Let everything in flight finish, then check the ledgers.
    fn drain(&mut self) -> Result<(), TestCaseError> {
        loop {
            if self.wire.is_none() {
                self.start_wire(0);
            }
            if !self.advance()? && self.wire.is_none() && self.pending == [None; 3] {
                break;
            }
        }
        prop_assert!(self.m.srt_queue().is_empty(), "SRT messages left behind");
        prop_assert!(self.m.nrt_queue().is_empty(), "NRT transfers left behind");
        prop_assert!(self.nrt_published.is_empty(), "NRT content never sent");
        // Every handle ended in exactly one of TxDone / aborted ...
        prop_assert_eq!(self.submitted, self.completed + self.withdrawn);
        // ... and every accepted SRT message in exactly one of sent /
        // expired, its timers disarmed (once: see `feed`) either way.
        for seq in self.srt_deadlines.keys() {
            let (sent, expired) = (self.srt_sent.contains(seq), self.srt_expired.contains(seq));
            prop_assert!(
                sent != expired,
                "SRT message {seq}: sent {sent}, expired {expired}"
            );
            prop_assert!(self.srt_disarmed.contains(seq), "never disarmed: {seq}");
        }
        Ok(())
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn random_interleavings_keep_the_transmit_contracts(
        ops in prop::collection::vec((0u8..10, any::<u32>(), any::<u32>()), 1..300),
    ) {
        let mut h = Harness::new();
        for (kind, a, b) in ops {
            match kind {
                0..=2 => h.publish(kind, a, b)?,
                3 | 4 => h.start_wire(a),
                // A receiver missing the frame only matters to HRT.
                5 => h.complete_wire(b % 3 != 0)?,
                6 => h.answer_abort()?,
                _ => {
                    h.advance()?;
                }
            }
        }
        h.drain()?;
    }
}

//! The per-node channel-class machine: every decision the three event
//! channel classes make, as a pure function of inputs.
//!
//! [`NodeMachine`] is *sans-IO*: it reads no clock, owns no bus, no
//! transport, no thread and no trace sink. A host feeds it one
//! [`Input`] at a time together with the node's current view of global
//! time, and carries out the [`Output`]s it pushes into a host-owned
//! scratch buffer. The deterministic simulator
//! ([`crate::network::NetWorld`]) and the threaded live runtime
//! (`rtec_live::node::LiveNode`) are both thin hosts of this one
//! machine, so the paper's mechanism exists exactly once:
//!
//! * **HRT** (§3.2) — a staged event is activated at its slot's ready
//!   instant, submitted at the Latest Start Time with the reserved
//!   priority, retransmitted only while a receiver missed it and the
//!   slot still has room for a worst-case attempt, and withdrawn at the
//!   delivery deadline. Subscribers buffer the reception and deliver it
//!   exactly at the deadline; an empty periodic slot raises
//!   `MissingEvent`, a publish that just missed its slot `NotReady`
//!   (§2.2.1).
//! * **SRT** (§3.3–3.4) — one EDF queue per node; only the head is
//!   submitted, with the priority its channel's [`SrtPriority`] gives it
//!   (by default derived from its laxity and promoted as the deadline
//!   nears); a more urgent newcomer withdraws the submitted frame;
//!   deadline misses and expirations raise local exceptions. The §4
//!   baselines (deadline-monotonic, dual priority) are other
//!   `SrtPriority` values of the same machine.
//! * **NRT** (§2.2.3) — fixed-priority FIFO transfers, fragmented when
//!   the channel asks for it, one fragment outstanding at a time.
//!
//! At most one transmission per class is outstanding, so outputs name a
//! transmission by its [`ChannelClass`] and hosts map that onto their
//! own handle with a three-slot [`TxSlots`] table. Withdrawing a frame
//! is a request ([`Output::Abort`]) answered by
//! [`Input::AbortResult`]: the simulator answers inline from the bus
//! model, the live runtime when the broker replies.
//!
//! What stays host-side is what differs by construction: who arms the
//! calendar timers, local-clock ↔ global-time translation, binding and
//! clock-sync frames, handler dispatch and measurement.

use crate::channel::{
    ChannelClass, ChannelException, ChannelSpec, PromoteChain, SrtPriority, SubscribeSpec,
};
use crate::event::{Delivery, Event, EventAttributes, Subject};
use crate::frag::{try_fragment, Reassembler, MAX_MESSAGE_LEN};
use crate::node::{pack_tag, unpack_tag, TagKind};
use crate::policy::{EdfOrder, EdfQueue};
use rtec_analysis::admission::{CalendarPlan, PlannedSlot};
use rtec_analysis::edf::PrioritySlotConfig;
use rtec_analysis::wctt::wcct_single;
use rtec_can::bits::BitTiming;
use rtec_can::{CanId, Frame, NodeId, PRIO_HRT};
use rtec_sim::Time;
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

/// Maximum inline (single-frame) event content.
pub const MAX_INLINE_CONTENT: usize = 8;

/// Most fields a [`Output::Trace`] record carries.
pub const MAX_TRACE_FIELDS: usize = 5;

/// Construction parameters of a [`NodeMachine`].
#[derive(Clone, Copy, Debug)]
pub struct MachineConfig {
    /// The node's bus identity (the TxNode field of every frame it sends).
    pub node: NodeId,
    /// Deadline → priority mapping of [`SrtPriority::Slots`] channels.
    pub priority_slots: PrioritySlotConfig,
    /// Bit timing of the wire (sizes the HRT retransmission check).
    pub timing: BitTiming,
    /// Bound on the node's SRT queue; overflow drops the entry EDF
    /// would serve last, or refuses the newcomer. `usize::MAX` for none.
    pub srt_queue_cap: usize,
    /// Bound on the node's NRT queue in frames. `usize::MAX` for none.
    pub nrt_queue_cap: usize,
    /// Deliver HRT events at the slot deadline rather than on reception.
    pub hrt_deferred_delivery: bool,
}

/// What a node knows about a channel it subscribes to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChannelMeta {
    /// The channel's subject.
    pub subject: Subject,
    /// Timeliness class.
    pub class: ChannelClass,
    /// HRT: the publisher may leave slots empty without it being a fault.
    pub sporadic: bool,
    /// NRT: payloads travel as fragment streams.
    pub fragmented: bool,
}

impl ChannelMeta {
    /// The meta a publisher's attribute list implies.
    pub fn of(subject: Subject, spec: &ChannelSpec) -> Self {
        let (sporadic, fragmented) = match spec {
            ChannelSpec::Hrt(h) => (h.sporadic, false),
            ChannelSpec::Srt(_) => (false, false),
            ChannelSpec::Nrt(n) => (false, n.fragmented),
        };
        ChannelMeta {
            subject,
            class: spec.class(),
            sporadic,
            fragmented,
        }
    }
}

/// The per-message SRT timers the machine asks its host to arm.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SrtTimer {
    /// Transmission-deadline supervision.
    Deadline,
    /// Expiration: drop the message from the send queue.
    Expire,
    /// Next priority promotion of the submitted head.
    Promote,
}

impl SrtTimer {
    /// The input a host feeds when this timer fires for message `seq`.
    pub fn input(self, seq: u32) -> Input {
        match self {
            SrtTimer::Deadline => Input::SrtDeadline { seq },
            SrtTimer::Expire => Input::SrtExpire { seq },
            SrtTimer::Promote => Input::SrtPromote { seq },
        }
    }
}

/// Everything that can happen to a node.
#[derive(Clone, Debug)]
pub enum Input {
    /// The application publishes `event` on the channel bound to `etag`.
    /// The only input that can be refused.
    Publish {
        /// The channel.
        etag: u16,
        /// The event; its absolute deadline/expiration attributes
        /// override the channel defaults.
        event: Event,
        /// The host's publication stamp, echoed by the read accessors
        /// (the simulator stamps true time for latency accounting).
        stamp: Time,
    },
    /// A slot this node publishes in reached its ready instant.
    SlotReady {
        /// Calendar round.
        round: u64,
        /// Index into the calendar's slot list.
        slot: usize,
    },
    /// ... its Latest Start Time.
    SlotLst {
        /// Calendar round.
        round: u64,
        /// Index into the calendar's slot list.
        slot: usize,
    },
    /// ... its delivery deadline (publisher-side clean-up).
    SlotDeadline {
        /// Calendar round.
        round: u64,
        /// Index into the calendar's slot list.
        slot: usize,
    },
    /// A slot this node subscribes to reached its delivery deadline.
    SlotDeliver {
        /// Calendar round.
        round: u64,
        /// Index into the calendar's slot list.
        slot: usize,
    },
    /// [`SrtTimer::Deadline`] fired.
    SrtDeadline {
        /// The message's sequence number.
        seq: u32,
    },
    /// [`SrtTimer::Expire`] fired.
    SrtExpire {
        /// The message's sequence number.
        seq: u32,
    },
    /// [`SrtTimer::Promote`] fired.
    SrtPromote {
        /// The message's sequence number.
        seq: u32,
    },
    /// A frame on a subscribed channel completed on the wire.
    Rx {
        /// The received frame.
        frame: Frame,
        /// The host's wire-completion stamp, echoed as
        /// [`Delivery::wire_completed_at`].
        stamp: Time,
    },
    /// A transmission this node submitted completed on the wire.
    TxDone {
        /// The tag it was submitted with.
        tag: u64,
        /// Whether every operational node received it.
        all_received: bool,
    },
    /// The answer to an [`Output::Abort`].
    AbortResult {
        /// The class whose transmission was to be withdrawn.
        class: ChannelClass,
        /// `false`: the frame is on the wire (or already went out) and
        /// completes normally.
        aborted: bool,
    },
}

/// Everything a node can ask of its host.
#[derive(Clone, Debug)]
pub enum Output {
    /// Queue a frame for transmission as the class's one outstanding
    /// transmission.
    Submit {
        /// The transmission slot.
        class: ChannelClass,
        /// The frame.
        frame: Frame,
        /// Routing tag to echo in [`Input::TxDone`].
        tag: u64,
    },
    /// Withdraw the class's outstanding transmission if it has not
    /// reached the wire; answer with [`Input::AbortResult`].
    Abort {
        /// The transmission slot.
        class: ChannelClass,
    },
    /// Rewrite the identifier of the outstanding SRT transmission.
    /// Best-effort: a frame already on the wire keeps its identifier.
    UpdateId {
        /// The new identifier.
        id: CanId,
    },
    /// Arm a one-shot timer at global time `at`.
    ArmTimer {
        /// When (the node's global time).
        at: Time,
        /// Which timer.
        timer: SrtTimer,
        /// The message it supervises.
        seq: u32,
    },
    /// Message `seq` left the SRT queue, so every [`Output::ArmTimer`]
    /// naming it is moot. Advisory, once per message: a host may
    /// withdraw those timers, and a stale timer input is a no-op.
    Disarm {
        /// The message.
        seq: u32,
    },
    /// Hand an event to the application.
    Deliver {
        /// The channel.
        etag: u16,
        /// What the subscriber knows about it.
        meta: Option<ChannelMeta>,
        /// The delivery.
        delivery: Delivery,
    },
    /// The subscription's origin filter dropped an event.
    Filtered {
        /// The channel.
        etag: u16,
    },
    /// Raise a local channel exception.
    Raise {
        /// The channel.
        etag: u16,
        /// The exception.
        exc: ChannelException,
    },
    /// A structured trace record, to be emitted under the node's
    /// `hrtec`/`srtec`/`nrtec` source according to `class`.
    Trace {
        /// Which channel handler it comes from.
        class: ChannelClass,
        /// Record kind.
        kind: &'static str,
        /// Fields; only the first `len` are meaningful.
        fields: [(&'static str, u64); MAX_TRACE_FIELDS],
        /// Number of fields.
        len: usize,
    },
}

fn trace(class: ChannelClass, kind: &'static str, fields: &[(&'static str, u64)]) -> Output {
    let mut buf = [("", 0); MAX_TRACE_FIELDS];
    buf[..fields.len()].copy_from_slice(fields);
    Output::Trace {
        class,
        kind,
        fields: buf,
        len: fields.len(),
    }
}

/// Why a [`Input::Publish`] was refused.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PublishError {
    /// No publication is bound to the etag.
    UnknownChannel,
    /// The content does not fit the channel's frame budget.
    PayloadTooLong {
        /// Offered length.
        len: usize,
        /// The channel's maximum.
        max: usize,
    },
    /// An HRT publish needs an installed calendar.
    NoCalendar,
    /// The bounded queue is full and the newcomer (or the submitted
    /// frame) would be the drop victim.
    Backpressure,
}

/// The three-slot handle table a host keeps: the handle of each
/// class's outstanding transmission in the host's own currency.
#[derive(Clone, Copy, Debug)]
pub struct TxSlots<H>([Option<H>; 3]);

impl<H> Default for TxSlots<H> {
    fn default() -> Self {
        TxSlots([None, None, None])
    }
}

impl<H: Copy + PartialEq> TxSlots<H> {
    /// Record `handle` as `class`'s outstanding transmission.
    pub fn set(&mut self, class: ChannelClass, handle: H) {
        self.0[class as usize] = Some(handle);
    }

    /// The outstanding handle of `class`.
    pub fn get(&self, class: ChannelClass) -> Option<H> {
        self.0[class as usize]
    }

    /// Forget `handle` if it still is `class`'s outstanding one; `false`
    /// for a handle that was already released or superseded.
    pub fn release(&mut self, class: ChannelClass, handle: H) -> bool {
        let hit = self.0[class as usize] == Some(handle);
        if hit {
            self.0[class as usize] = None;
        }
        hit
    }

    /// Which class `handle` is outstanding for.
    pub fn class_of(&self, handle: H) -> Option<ChannelClass> {
        [ChannelClass::Hrt, ChannelClass::Srt, ChannelClass::Nrt]
            .into_iter()
            .find(|&c| self.0[c as usize] == Some(handle))
    }
}

/// State of the HRT slot a publisher is currently serving.
#[derive(Clone, Debug)]
pub struct ActiveSlot {
    /// Round the slot belongs to.
    pub round: u64,
    /// Index into the calendar's slot list.
    pub slot: usize,
    /// The event being disseminated.
    pub event: Event,
    /// The slot's delivery deadline (global time).
    pub deadline: Time,
    /// `true` once the frame was first submitted (at the LST).
    pub submitted: bool,
    /// `true` while a transmission is outstanding.
    pub pending: bool,
    /// `true` once every operational node received the event.
    pub succeeded: bool,
    /// Redundant retransmissions spent.
    pub retx: u32,
}

struct Publication {
    subject: Subject,
    spec: ChannelSpec,
    /// HRT: event staged for the next slot (most recent value wins).
    staged: Option<Event>,
    /// HRT: the slot in progress.
    active: Option<ActiveSlot>,
    /// HRT: `(ready, deadline)` of a slot that went empty, for `NotReady`.
    empty: Option<(Time, Time)>,
}

struct Subscription {
    subject: Subject,
    filter: SubscribeSpec,
    meta: Option<ChannelMeta>,
    /// HRT receptions held until the slot deadline, keyed by
    /// `(round, slot)`, with the host's wire-completion stamp.
    buffer: HashMap<(u64, usize), (Event, Time)>,
}

/// A queued soft real-time message.
#[derive(Clone, Debug)]
pub struct SrtMsg {
    /// Node-local sequence number (routes timers and completions).
    pub seq: u32,
    /// Channel etag.
    pub etag: u16,
    /// Channel subject.
    pub subject: Subject,
    /// The event (content goes on the wire).
    pub event: Event,
    /// Absolute transmission deadline (global time).
    pub deadline: Time,
    /// Absolute expiration (global time), if any.
    pub expiration: Option<Time>,
    /// Whether the deadline-miss exception already fired.
    pub missed: bool,
    /// The host's publication stamp.
    pub stamp: Time,
    /// Its channel's priority.
    pub priority: SrtPriority,
}

impl SrtMsg {
    fn priority_at(&self, slots: &PrioritySlotConfig, now: Time) -> u8 {
        self.priority.priority(slots, self.deadline, now)
    }
}

impl EdfOrder for SrtMsg {
    fn deadline(&self) -> Time {
        self.deadline
    }
    fn seq(&self) -> u32 {
        self.seq
    }
    fn channel(&self) -> u16 {
        self.etag
    }
}

/// The SRT message currently submitted, as much of it as promotion and
/// the hosts' accounting need without searching the queue.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SrtTx {
    /// Its sequence number.
    pub seq: u32,
    /// Its channel.
    pub etag: u16,
    /// Its transmission deadline.
    pub deadline: Time,
    /// The host's publication stamp.
    pub stamp: Time,
    /// Its channel's priority.
    pub priority: SrtPriority,
}

/// One (possibly multi-fragment) NRT transfer.
#[derive(Clone, Debug)]
pub struct NrtTransfer {
    /// Channel etag.
    pub etag: u16,
    /// CAN payloads to send, in order.
    pub payloads: Vec<Vec<u8>>,
    /// Next payload index to submit.
    pub next: usize,
    /// Fixed NRT priority.
    pub priority: u8,
    /// The host's publication stamp.
    pub stamp: Time,
}

/// The channel-class state machine of one node. See the module docs.
pub struct NodeMachine {
    cfg: MachineConfig,
    calendar: Option<(Arc<CalendarPlan>, Time)>,
    pubs: HashMap<u16, Publication>,
    subs: HashMap<u16, Subscription>,
    srt: EdfQueue<SrtMsg>,
    srt_next_seq: u32,
    /// The submitted SRT message.
    srt_tx: Option<SrtTx>,
    /// An SRT abort awaits its result; `true` = drop the message as
    /// expired once it is withdrawn.
    srt_abort: Option<bool>,
    /// NRT transfers, the front one being sent.
    nrt: VecDeque<NrtTransfer>,
    nrt_pending: bool,
    nrt_frames: usize,
    reassembler: Reassembler<(u8, u16)>,
}

impl NodeMachine {
    /// A node with no channels and no calendar.
    pub fn new(cfg: MachineConfig) -> Self {
        NodeMachine {
            cfg,
            calendar: None,
            pubs: HashMap::new(),
            subs: HashMap::new(),
            srt: EdfQueue::new(),
            srt_next_seq: 0,
            srt_tx: None,
            srt_abort: None,
            nrt: VecDeque::new(),
            nrt_pending: false,
            nrt_frames: 0,
            reassembler: Reassembler::new(),
        }
    }

    /// Install the HRT calendar; `start` is round 0's start in global
    /// time.
    pub fn install_calendar(&mut self, plan: Arc<CalendarPlan>, start: Time) {
        self.calendar = Some((plan, start));
    }

    /// Bind a publication of `subject` to `etag`.
    pub fn announce(&mut self, etag: u16, subject: Subject, spec: ChannelSpec) {
        self.pubs.insert(
            etag,
            Publication {
                subject,
                spec,
                staged: None,
                active: None,
                empty: None,
            },
        );
    }

    /// Withdraw the publication bound to `etag`. Messages already
    /// queued still go out.
    pub fn cancel_publication(&mut self, etag: u16) {
        self.pubs.remove(&etag);
    }

    /// Bind a subscription to `etag`. `meta` is `None` while the
    /// channel's class is not known yet (no publisher bound so far);
    /// such a channel is delivered on reception.
    pub fn subscribe(
        &mut self,
        etag: u16,
        subject: Subject,
        filter: SubscribeSpec,
        meta: Option<ChannelMeta>,
    ) {
        self.subs.insert(
            etag,
            Subscription {
                subject,
                filter,
                meta,
                buffer: HashMap::new(),
            },
        );
    }

    /// A publisher bound `etag`: subscribers learn the channel's class.
    pub fn learn_channel(&mut self, etag: u16, meta: ChannelMeta) {
        if let Some(s) = self.subs.get_mut(&etag) {
            s.meta = Some(meta);
        }
    }

    /// Drop the subscription bound to `etag`.
    pub fn cancel_subscription(&mut self, etag: u16) {
        self.subs.remove(&etag);
    }

    /// Whether a subscription is bound to `etag`.
    pub fn subscribes(&self, etag: u16) -> bool {
        self.subs.contains_key(&etag)
    }

    /// The slot `etag`'s publisher is serving, if any.
    pub fn hrt_active(&self, etag: u16) -> Option<&ActiveSlot> {
        self.pubs.get(&etag)?.active.as_ref()
    }

    /// The SRT send queue.
    pub fn srt_queue(&self) -> &EdfQueue<SrtMsg> {
        &self.srt
    }

    /// The SRT message currently submitted.
    pub fn srt_submitted(&self) -> Option<SrtTx> {
        self.srt_tx
    }

    /// The chain an [`SrtTimer::Promote`] armed for queued message
    /// `seq` at `at` re-arms along while the message stays submitted:
    /// each promotion it handles arms the next instant of
    /// [`SrtPriority::promote_chain`], and nothing else of the machine
    /// changes. A host that can tell the bus would refuse the rewrite
    /// may therefore re-arm the timer itself.
    pub fn promote_chain(&self, seq: u32, at: Time) -> Option<PromoteChain> {
        let msg = self.srt.get(seq)?;
        msg.priority
            .promote_chain(&self.cfg.priority_slots, msg.deadline, at)
    }

    /// The NRT transfers, the front one being sent.
    pub fn nrt_queue(&self) -> &VecDeque<NrtTransfer> {
        &self.nrt
    }

    /// Whether a fragment of the front NRT transfer is outstanding.
    pub fn nrt_pending(&self) -> bool {
        self.nrt_pending
    }

    /// Append a ready-made transfer (a crash snapshot being resumed).
    pub fn requeue_nrt(&mut self, transfer: NrtTransfer, out: &mut Vec<Output>) {
        self.nrt_frames += transfer.payloads.len() - transfer.next;
        self.nrt.push_back(transfer);
        self.nrt_dispatch(out);
    }

    /// React to one input at global time `now`, pushing what the host
    /// must do into `out` in order. Only [`Input::Publish`] can fail.
    pub fn handle(
        &mut self,
        now: Time,
        input: Input,
        out: &mut Vec<Output>,
    ) -> Result<(), PublishError> {
        match input {
            Input::Publish { etag, event, stamp } => {
                return self.publish(now, etag, event, stamp, out)
            }
            Input::SlotReady { round, slot } => self.slot_ready(now, round, slot, out),
            Input::SlotLst { round, slot } => self.slot_lst(round, slot, out),
            Input::SlotDeadline { round, slot } => self.slot_deadline(round, slot, out),
            Input::SlotDeliver { round, slot } => self.slot_deliver(now, round, slot, out),
            Input::SrtDeadline { seq } => self.srt_deadline(seq, out),
            Input::SrtExpire { seq } => self.srt_expire(now, seq, out),
            Input::SrtPromote { seq } => self.srt_promote(now, seq, out),
            Input::Rx { frame, stamp } => self.rx(now, frame, stamp, out),
            Input::TxDone { tag, all_received } => self.tx_done(now, tag, all_received, out),
            Input::AbortResult { class, aborted } => {
                // HRT withdraws at the slot deadline and forgets the
                // frame either way; NRT never aborts.
                if class == ChannelClass::Srt {
                    self.srt_abort_result(now, aborted, out);
                }
            }
        }
        Ok(())
    }

    fn node(&self) -> u64 {
        u64::from(self.cfg.node.0)
    }

    /// Etag and delivery deadline of calendar slot `idx` in `round`.
    fn slot_at(&self, round: u64, idx: usize) -> Option<(u16, Time)> {
        let (plan, start) = self.calendar.as_ref()?;
        let s = plan.slots.get(idx)?;
        Some((s.etag, *start + plan.round * round + s.deadline()))
    }

    // ------------------------------------------------------------------
    // Publishing
    // ------------------------------------------------------------------

    fn publish(
        &mut self,
        now: Time,
        etag: u16,
        event: Event,
        stamp: Time,
        out: &mut Vec<Output>,
    ) -> Result<(), PublishError> {
        let p = self
            .pubs
            .get_mut(&etag)
            .ok_or(PublishError::UnknownChannel)?;
        let too_long = |max: usize| PublishError::PayloadTooLong {
            len: event.content.len(),
            max,
        };
        match p.spec {
            ChannelSpec::Hrt(h) => {
                if event.content.len() > usize::from(h.dlc) {
                    return Err(too_long(usize::from(h.dlc)));
                }
                if self.calendar.is_none() {
                    return Err(PublishError::NoCalendar);
                }
                p.staged = Some(event);
                // The slot just went empty and this publish missed it:
                // tell the application (§2.2.1 awareness).
                if let Some((ready, deadline)) = p.empty {
                    if now > ready && now <= deadline {
                        p.empty = None;
                        out.push(Output::Raise {
                            etag,
                            exc: ChannelException::NotReady {
                                subject: p.subject,
                                slot_ready_at: ready,
                            },
                        });
                    }
                }
            }
            ChannelSpec::Srt(s) => {
                if event.content.len() > MAX_INLINE_CONTENT {
                    return Err(too_long(MAX_INLINE_CONTENT));
                }
                let subject = p.subject;
                let deadline = event
                    .attributes
                    .deadline
                    .unwrap_or(now + s.default_deadline);
                let expiration = event
                    .attributes
                    .expiration
                    .or_else(|| s.default_expiration.map(|d| now + d));
                // Bounded queue: overflow drops the entry EDF would
                // serve last — unless that is the newcomer itself or
                // the frame already submitted.
                if self.srt.len() >= self.cfg.srt_queue_cap {
                    let v = self
                        .srt
                        .overflow_victim()
                        .ok_or(PublishError::Backpressure)?;
                    if deadline >= v.deadline || self.srt_tx_is(v.seq) {
                        return Err(PublishError::Backpressure);
                    }
                    self.srt_drop_expired(v.seq, out);
                }
                let seq = self.srt_next_seq;
                self.srt_next_seq = seq.wrapping_add(1);
                self.srt.push(SrtMsg {
                    seq,
                    etag,
                    subject,
                    event,
                    deadline,
                    expiration,
                    missed: false,
                    stamp,
                    priority: s.priority,
                });
                out.push(Output::ArmTimer {
                    at: deadline,
                    timer: SrtTimer::Deadline,
                    seq,
                });
                if let Some(at) = expiration {
                    out.push(Output::ArmTimer {
                        at,
                        timer: SrtTimer::Expire,
                        seq,
                    });
                }
                self.srt_reconsider(now, out);
            }
            ChannelSpec::Nrt(n) => {
                let payloads = if n.fragmented {
                    try_fragment(&event.content).map_err(|_| too_long(MAX_MESSAGE_LEN))?
                } else if event.content.len() > MAX_INLINE_CONTENT {
                    return Err(too_long(MAX_INLINE_CONTENT));
                } else {
                    vec![event.content.clone()]
                };
                if self.nrt_frames.saturating_add(payloads.len()) > self.cfg.nrt_queue_cap {
                    return Err(PublishError::Backpressure);
                }
                out.push(trace(
                    ChannelClass::Nrt,
                    "nrt_enqueue",
                    &[
                        ("etag", u64::from(etag)),
                        ("node", u64::from(self.cfg.node.0)),
                        ("frags", payloads.len() as u64),
                        ("bytes", event.content.len() as u64),
                        ("fragmented", u64::from(n.fragmented)),
                    ],
                ));
                self.nrt_frames += payloads.len();
                self.nrt.push_back(NrtTransfer {
                    etag,
                    payloads,
                    next: 0,
                    priority: n.priority,
                    stamp,
                });
                self.nrt_dispatch(out);
            }
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // HRT
    // ------------------------------------------------------------------

    fn slot_ready(&mut self, now: Time, round: u64, slot: usize, out: &mut Vec<Output>) {
        let Some((etag, deadline)) = self.slot_at(round, slot) else {
            return;
        };
        let Some(p) = self.pubs.get_mut(&etag) else {
            return; // publication cancelled
        };
        match p.staged.take() {
            Some(event) => {
                p.active = Some(ActiveSlot {
                    round,
                    slot,
                    event,
                    deadline,
                    submitted: false,
                    pending: false,
                    succeeded: false,
                    retx: 0,
                });
                p.empty = None;
            }
            // The slot goes unused: lower-priority traffic simply
            // reclaims the reservation (nothing is submitted).
            None => p.empty = Some((now, deadline)),
        }
        out.push(trace(
            ChannelClass::Hrt,
            "slot_ready",
            &[
                ("etag", u64::from(etag)),
                ("round", round),
                ("slot", slot as u64),
                ("node", self.node()),
            ],
        ));
    }

    /// The active slot of `etag`'s publication if it is `(round, slot)`.
    fn active_slot(&mut self, etag: u16, round: u64, slot: usize) -> Option<&mut ActiveSlot> {
        self.pubs
            .get_mut(&etag)?
            .active
            .as_mut()
            .filter(|a| a.round == round && a.slot == slot)
    }

    fn hrt_submit(node: NodeId, etag: u16, a: &mut ActiveSlot, out: &mut Vec<Output>) {
        a.pending = true;
        out.push(Output::Submit {
            class: ChannelClass::Hrt,
            frame: Frame::new(CanId::new(PRIO_HRT, node.0, etag), &a.event.content),
            tag: pack_tag(TagKind::Hrt, etag, a.slot as u32),
        });
    }

    fn slot_lst(&mut self, round: u64, slot: usize, out: &mut Vec<Output>) {
        let Some((etag, _)) = self.slot_at(round, slot) else {
            return;
        };
        let node = self.cfg.node;
        if let Some(a) = self.active_slot(etag, round, slot) {
            if !a.submitted {
                a.submitted = true;
                Self::hrt_submit(node, etag, a, out);
            }
        }
    }

    fn slot_deadline(&mut self, round: u64, slot: usize, out: &mut Vec<Output>) {
        let Some((etag, _)) = self.slot_at(round, slot) else {
            return;
        };
        let Some(p) = self.pubs.get_mut(&etag) else {
            return;
        };
        let Some(a) = p.active.take_if(|a| a.round == round && a.slot == slot) else {
            if p.active.is_none() {
                p.empty = None;
            }
            return;
        };
        if !a.succeeded {
            if a.pending {
                // Withdraw whatever is still queued; the slot is over.
                out.push(Output::Abort {
                    class: ChannelClass::Hrt,
                });
            }
            out.push(Output::Raise {
                etag,
                exc: ChannelException::RedundancyExhausted {
                    subject: p.subject,
                    attempts: a.retx + 1,
                },
            });
        }
    }

    fn hrt_tx_done(&mut self, now: Time, etag: u16, slot: u32, all: bool, out: &mut Vec<Output>) {
        let (node, timing) = (self.cfg.node, self.cfg.timing);
        let Some(p) = self.pubs.get_mut(&etag) else {
            return;
        };
        let ChannelSpec::Hrt(h) = p.spec else { return };
        let Some(a) = p
            .active
            .as_mut()
            .filter(|a| a.slot as u32 == slot && a.pending)
        else {
            return; // completed after its slot was cleaned up
        };
        a.pending = false;
        if all {
            // Consistent reception: stop early — the rest of the slot
            // is reclaimed by SRT/NRT traffic through plain priority
            // arbitration (§3.2).
            a.succeeded = true;
        } else if a.retx < h.omission_degree && now + wcct_single(h.dlc, timing) <= a.deadline {
            // A receiver missed it and the slot still has room for a
            // worst-case attempt: spend a redundant transmission.
            a.retx += 1;
            Self::hrt_submit(node, etag, a, out);
        }
        // Otherwise give up; the clean-up at the deadline raises
        // RedundancyExhausted.
    }

    fn slot_deliver(&mut self, now: Time, round: u64, slot: usize, out: &mut Vec<Output>) {
        if !self.cfg.hrt_deferred_delivery {
            return; // events were delivered on reception
        }
        let Some((etag, _)) = self.slot_at(round, slot) else {
            return;
        };
        let node = self.node();
        let Some(sub) = self.subs.get_mut(&etag) else {
            return;
        };
        match sub.buffer.remove(&(round, slot)) {
            Some((event, wire)) => {
                if !sub.filter.passes(event.attributes.origin) {
                    out.push(Output::Filtered { etag });
                    return;
                }
                out.push(Output::Deliver {
                    etag,
                    meta: sub.meta,
                    delivery: Delivery {
                        event,
                        delivered_at: now,
                        wire_completed_at: wire,
                    },
                });
                out.push(trace(
                    ChannelClass::Hrt,
                    "hrt_deliver",
                    &[
                        ("etag", u64::from(etag)),
                        ("round", round),
                        ("slot", slot as u64),
                        ("node", node),
                        ("wire", wire.as_ns()),
                    ],
                ));
            }
            None if sub.meta.is_some_and(|m| !m.sporadic) => out.push(Output::Raise {
                etag,
                exc: ChannelException::MissingEvent {
                    subject: sub.subject,
                    expected_at: now,
                },
            }),
            None => {}
        }
    }

    // ------------------------------------------------------------------
    // SRT
    // ------------------------------------------------------------------

    /// After an enqueue: if the newcomer is more urgent than the frame
    /// submitted to the controller, withdraw that frame (possible while
    /// it has not won arbitration) so the new head can go instead.
    fn srt_reconsider(&mut self, now: Time, out: &mut Vec<Output>) {
        if let (Some(tx), None) = (self.srt_tx, self.srt_abort) {
            if self.srt_head(now).is_some_and(|head| head.seq != tx.seq) {
                self.srt_abort = Some(false);
                out.push(Output::Abort {
                    class: ChannelClass::Srt,
                });
            }
            return;
        }
        self.srt_dispatch(now, out);
    }

    fn srt_tx_is(&self, seq: u32) -> bool {
        self.srt_tx.is_some_and(|tx| tx.seq == seq)
    }

    /// The message EDF serves first at `now`.
    fn srt_head(&self, now: Time) -> Option<&SrtMsg> {
        let slots = &self.cfg.priority_slots;
        self.srt.head(|m| m.priority_at(slots, now))
    }

    /// Submit the EDF head if the SRT transmission slot is free.
    fn srt_dispatch(&mut self, now: Time, out: &mut Vec<Output>) {
        if self.srt_tx.is_some() || self.srt_abort.is_some() {
            return;
        }
        let Some(msg) = self.srt_head(now) else {
            return;
        };
        let slots = &self.cfg.priority_slots;
        let prio = msg.priority_at(slots, now);
        out.push(Output::Submit {
            class: ChannelClass::Srt,
            frame: Frame::new(
                CanId::new(prio, self.cfg.node.0, msg.etag),
                &msg.event.content,
            ),
            tag: pack_tag(TagKind::Srt, msg.etag, msg.seq),
        });
        let tx = SrtTx {
            seq: msg.seq,
            etag: msg.etag,
            deadline: msg.deadline,
            stamp: msg.stamp,
            priority: msg.priority,
        };
        if let Some(at) = msg.priority.next_change(slots, msg.deadline, now) {
            out.push(Output::ArmTimer {
                at,
                timer: SrtTimer::Promote,
                seq: tx.seq,
            });
        }
        self.srt_tx = Some(tx);
    }

    fn srt_promote(&mut self, now: Time, seq: u32, out: &mut Vec<Output>) {
        let Some(msg) = self.srt_tx.filter(|tx| tx.seq == seq) else {
            return;
        };
        if self.srt_abort.is_some() {
            return;
        }
        let slots = &self.cfg.priority_slots;
        // Rewriting is idempotent and fails harmlessly while the frame
        // is on the wire (it is about to complete), so the machine
        // keeps no copy of the priority the bus currently holds.
        let prio = msg.priority.priority(slots, msg.deadline, now);
        out.push(Output::UpdateId {
            id: CanId::new(prio, self.cfg.node.0, msg.etag),
        });
        if let Some(at) = msg.priority.next_change(slots, msg.deadline, now) {
            out.push(Output::ArmTimer {
                at,
                timer: SrtTimer::Promote,
                seq,
            });
        }
    }

    fn srt_deadline(&mut self, seq: u32, out: &mut Vec<Output>) {
        let Some(msg) = self.srt.get_mut(seq) else {
            return; // already transmitted or dropped
        };
        if !std::mem::replace(&mut msg.missed, true) {
            out.push(Output::Raise {
                etag: msg.etag,
                exc: ChannelException::DeadlineMissed {
                    subject: msg.subject,
                    deadline: msg.deadline,
                },
            });
        }
    }

    fn srt_expire(&mut self, now: Time, seq: u32, out: &mut Vec<Output>) {
        if self.srt.get(seq).is_none() {
            return; // already transmitted or dropped
        }
        if self.srt_tx_is(seq) {
            // Submitted: try to pull it back before it reaches the
            // wire; an abort already pending becomes an expiration.
            if self.srt_abort.replace(true).is_none() {
                out.push(Output::Abort {
                    class: ChannelClass::Srt,
                });
            }
            return;
        }
        self.srt_drop_expired(seq, out);
        self.srt_dispatch(now, out);
    }

    /// Drop queued message `seq` as expired: trace + exception.
    fn srt_drop_expired(&mut self, seq: u32, out: &mut Vec<Output>) {
        let Some(msg) = self.srt.take(seq) else {
            return;
        };
        out.push(Output::Disarm { seq });
        out.push(trace(
            ChannelClass::Srt,
            "srt_expire",
            &[
                ("etag", u64::from(msg.etag)),
                ("seq", u64::from(msg.seq)),
                ("node", self.node()),
                ("tag", pack_tag(TagKind::Srt, msg.etag, msg.seq)),
            ],
        ));
        out.push(Output::Raise {
            etag: msg.etag,
            exc: ChannelException::Expired {
                subject: msg.subject,
                expiration: msg.expiration.unwrap_or(msg.deadline),
            },
        });
    }

    fn srt_abort_result(&mut self, now: Time, aborted: bool, out: &mut Vec<Output>) {
        let Some(expire) = self.srt_abort.take() else {
            return; // TxDone already settled it
        };
        if aborted {
            // Withdrawn: the message stays queued and is resubmitted
            // whenever EDF makes it the head again — unless it expired.
            if let (Some(tx), true) = (self.srt_tx.take(), expire) {
                self.srt_drop_expired(tx.seq, out);
            }
        }
        // Not withdrawn: on the wire right now, TxDone rules.
        self.srt_dispatch(now, out);
    }

    // ------------------------------------------------------------------
    // NRT
    // ------------------------------------------------------------------

    fn nrt_dispatch(&mut self, out: &mut Vec<Output>) {
        if self.nrt_pending {
            return;
        }
        let Some(t) = self.nrt.front() else {
            return;
        };
        out.push(Output::Submit {
            class: ChannelClass::Nrt,
            frame: Frame::new(
                CanId::new(t.priority, self.cfg.node.0, t.etag),
                &t.payloads[t.next],
            ),
            // The tag's sequence field is the fragment index.
            tag: pack_tag(TagKind::Nrt, t.etag, t.next as u32),
        });
        self.nrt_pending = true;
    }

    // ------------------------------------------------------------------
    // Wire events
    // ------------------------------------------------------------------

    fn tx_done(&mut self, now: Time, tag: u64, all: bool, out: &mut Vec<Output>) {
        match unpack_tag(tag) {
            Some((TagKind::Hrt, etag, slot)) => self.hrt_tx_done(now, etag, slot, all, out),
            Some((TagKind::Srt, _, seq)) => {
                if self.srt.take(seq).is_some() {
                    out.push(Output::Disarm { seq });
                }
                if self.srt_tx_is(seq) {
                    // A pending abort raced the wire and lost: the
                    // message went out, so it did not expire.
                    self.srt_tx = None;
                    self.srt_abort = None;
                }
                self.srt_dispatch(now, out);
            }
            Some((TagKind::Nrt, etag, idx)) => {
                let Some(t) = self.nrt.front_mut() else {
                    return;
                };
                if !self.nrt_pending || t.etag != etag || t.next != idx as usize {
                    return;
                }
                self.nrt_pending = false;
                self.nrt_frames -= 1;
                t.next += 1;
                if t.next == t.payloads.len() {
                    self.nrt.pop_front();
                }
                self.nrt_dispatch(out);
            }
            _ => {}
        }
    }

    fn rx(&mut self, now: Time, frame: Frame, stamp: Time, out: &mut Vec<Output>) {
        let (etag, origin) = (frame.id.etag(), frame.id.txnode());
        let (node, deferred) = (self.node(), self.cfg.hrt_deferred_delivery);
        let Some(sub) = self.subs.get_mut(&etag) else {
            return; // not subscribed
        };
        let content = match sub.meta {
            Some(m) if m.class == ChannelClass::Hrt && deferred => {
                match hrt_window(self.calendar.as_ref(), etag, origin, now) {
                    Some(key) => {
                        let event = received(sub.subject, origin, now, frame.payload().to_vec());
                        sub.buffer.insert(key, (event, stamp));
                        return;
                    }
                    // Outside any slot window (overrun past the fault
                    // assumption): fall back to immediate delivery.
                    None => frame.payload().to_vec(),
                }
            }
            Some(m) if m.fragmented => {
                let o = u64::from(origin);
                match self.reassembler.push((origin, etag), frame.payload()) {
                    Ok(Some(data)) => {
                        out.push(trace(
                            ChannelClass::Nrt,
                            "nrt_complete",
                            &[
                                ("etag", u64::from(etag)),
                                ("node", node),
                                ("origin", o),
                                ("bytes", data.len() as u64),
                            ],
                        ));
                        data
                    }
                    Ok(None) => return,
                    Err(e) => {
                        out.push(trace(
                            ChannelClass::Nrt,
                            "frag_error",
                            &[("etag", u64::from(etag)), ("node", node), ("origin", o)],
                        ));
                        out.push(Output::Raise {
                            etag,
                            exc: ChannelException::Fault {
                                subject: sub.subject,
                                reason: format!("fragment reassembly failed: {e:?}"),
                            },
                        });
                        return;
                    }
                }
            }
            // SRT, single-frame NRT, HRT in the immediate-delivery
            // ablation, or a class not known yet: deliver now.
            _ => frame.payload().to_vec(),
        };
        // Deliver on reception.
        if !sub.filter.passes(Some(NodeId(origin))) {
            out.push(Output::Filtered { etag });
            return;
        }
        out.push(Output::Deliver {
            etag,
            meta: sub.meta,
            delivery: Delivery {
                event: received(sub.subject, origin, now, content),
                delivered_at: now,
                wire_completed_at: stamp,
            },
        });
    }
}

/// Which `(round, slot)` window of `calendar` an HRT frame with `etag`
/// from `publisher` completing at global time `g` belongs to.
fn hrt_window(
    calendar: Option<&(Arc<CalendarPlan>, Time)>,
    etag: u16,
    publisher: u8,
    g: Time,
) -> Option<(u64, usize)> {
    let (plan, start) = calendar?;
    if g < *start {
        return None;
    }
    let offset = g.saturating_since(*start);
    let (round, in_round) = (offset / plan.round, offset % plan.round);
    let covers = |s: &PlannedSlot| {
        s.etag == etag
            && s.publisher.0 == publisher
            && in_round >= s.start
            && in_round <= s.deadline()
    };
    plan.slots.iter().position(covers).map(|idx| (round, idx))
}

/// The event a subscriber reconstructs from the wire.
fn received(subject: Subject, origin: u8, now: Time, content: Vec<u8>) -> Event {
    Event {
        subject,
        attributes: EventAttributes {
            origin: Some(NodeId(origin)),
            timestamp: Some(now),
            ..Default::default()
        },
        content,
    }
}

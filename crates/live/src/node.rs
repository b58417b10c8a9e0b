//! The node runtime: one thread per node, hosting the channel-class
//! machine over a [`NodeTransport`].
//!
//! A node is *purely reactive*: every action originates from a broker
//! message (`Welcome`, `Timer`, `Deliver`, `TxDone`, `AbortResult`,
//! `Ping`, `Shutdown`). Its answer to one message is one *turn*: the
//! requests it makes while handling the message (submits, aborts,
//! timer arms and cancels, listens), closed by exactly one `Idle` — or
//! `Done`, to a `Shutdown` — which is how the broker knows the node has
//! quiesced: the lock-step that makes live runs deterministic even over
//! real transports. The node collects a turn's requests and hands the
//! whole turn to [`NodeTransport::send_turn`] once, when it closes; a
//! turn that grows to [`DEFAULT_DEPTH`] requests is handed over in
//! parts of that size, so a runaway behavior neither buffers without
//! bound nor hides from the broker's turn budget.
//!
//! Every HRT/SRT/NRT decision is made by
//! [`rtec_core::machine::NodeMachine`], the same machine the simulator
//! hosts. [`LiveNode`] is its *live host* and does only what differs by
//! construction from a simulated node:
//!
//! * it turns broker messages into machine inputs (bus time is global
//!   time here, so no clock translation) and machine outputs into
//!   broker requests; an `Abort` is answered later, by the broker's
//!   `AbortResult` message;
//! * it arms the calendar timers through the broker: one ready timer
//!   per published slot and one delivery timer per subscribed slot,
//!   each re-armed every round, plus LST and deadline timers only for
//!   slots that actually activated an event (which keeps the broker's
//!   turn count down);
//! * it runs the transport loop and [`Behavior`] dispatch, appends to
//!   the shared delivery log, and leaves a crash snapshot behind for
//!   its next incarnation.

use crate::sync::{Arc, Mutex, DEFAULT_DEPTH};
use crate::transport::NodeTransport;
use crate::wire::{ToBroker, ToNode};
use crate::LiveError;
use rtec_analysis::admission::CalendarPlan;
use rtec_analysis::edf::PrioritySlotConfig;
use rtec_can::NodeId;
use rtec_core::channel::{ChannelClass, ChannelException, ChannelSpec, SubscribeSpec};
use rtec_core::event::{Delivery, Event, Subject};
use rtec_core::machine::{
    ChannelMeta, Input, MachineConfig, NodeMachine, NrtTransfer, Output, PublishError, SrtTimer,
    TxSlots,
};
use rtec_core::node::unpack_tag;
use rtec_sim::{Duration, SourceId, Time, TraceSink};
use std::collections::HashMap;

/// How long a node waits for the next broker message before treating
/// the broker as gone. Generous: under wall pacing the bus may be idle
/// for long stretches.
const RECV_TIMEOUT: std::time::Duration = std::time::Duration::from_secs(60);

/// How far before a slot's ready instant [`NodeCtx::hrt_stage_schedule`]
/// places the application's staging timer.
const STAGE_LEAD: Duration = Duration::from_us(100);

// --------------------------------------------------------------------
// Timer tokens: kind in the top 8 bits, 56-bit payload below.
// --------------------------------------------------------------------

const TK_SHIFT: u32 = 56;
const TK_PAYLOAD_MASK: u64 = (1 << TK_SHIFT) - 1;
const TK_HRT_READY: u64 = 1;
const TK_HRT_LST: u64 = 2;
const TK_HRT_DEADLINE: u64 = 3;
const TK_HRT_DELIVER: u64 = 4;
const TK_SRT_DEADLINE: u64 = 5;
const TK_SRT_EXPIRE: u64 = 6;
const TK_SRT_PROMOTE: u64 = 7;
const TK_APP: u64 = 8;

/// Bits of a calendar-timer payload holding the round; the slot index
/// sits above them.
const ROUND_BITS: u32 = 40;

fn token(kind: u64, payload: u64) -> u64 {
    debug_assert!(payload <= TK_PAYLOAD_MASK);
    (kind << TK_SHIFT) | (payload & TK_PAYLOAD_MASK)
}

// --------------------------------------------------------------------
// Public configuration and results
// --------------------------------------------------------------------

/// Per-node channel configuration, produced by the cluster builder.
#[derive(Clone, Debug)]
pub struct NodeConfig {
    /// The node's id (also its CAN TxNode field).
    pub node: u8,
    /// Which life of this node this is: 0 for the original spawn,
    /// bumped by the supervisor on every restart. Carried in the
    /// `Hello`/`Welcome` handshake so the broker can tell a rejoin from
    /// a stale replay, and used to adopt the crash snapshot (a node
    /// with `incarnation > 0` resumes its predecessor's SRT/NRT queues
    /// and counters).
    pub incarnation: u32,
    /// Subjects this node publishes, with their channel attributes.
    pub publishes: Vec<(Subject, ChannelSpec)>,
    /// Subjects this node subscribes to (attributes mirror the
    /// publisher's — binding is static in the live runtime).
    pub subscribes: Vec<(Subject, ChannelSpec)>,
    /// Bound on the node's SRT EDF queue (≥ 2). Overflow maps onto the
    /// expiration-drop policy; when the newcomer itself is the overflow
    /// victim, `publish` returns [`LiveError::Backpressure`].
    pub srt_queue_cap: usize,
    /// Bound on the node's NRT queue, counted in *frames*.
    pub nrt_queue_cap: usize,
}

/// Cluster-wide immutable configuration shared by every node thread.
#[derive(Clone)]
pub struct SharedConfig {
    /// The HRT slot calendar (also fixes the bit timing).
    pub calendar: Arc<CalendarPlan>,
    /// Bus-time instant of round 0's start.
    pub calendar_start: Time,
    /// Deadline → priority quantization for SRT channels.
    pub prio_cfg: PrioritySlotConfig,
    /// Static subject → etag binding.
    pub etags: Arc<HashMap<u64, u16>>,
    /// Shared delivery log. Appends within a batched completion turn
    /// may interleave across node threads; the cluster runner sorts
    /// the final log into bus order ((wire_ns, node)).
    pub log: Arc<Mutex<Vec<DeliveryRecord>>>,
    /// Shared structured trace sink (same records as the simulator).
    pub sink: TraceSink,
    /// Crash snapshots, keyed by node id: written by a dying node
    /// thread on its way out, adopted by the next incarnation during
    /// its `Welcome` handshake.
    pub snapshots: Arc<Mutex<HashMap<u8, NodeSnapshot>>>,
}

/// State a crashing node thread leaves behind for its next incarnation.
///
/// Deliberately *excludes* the in-flight messages: a crash
/// may lose the event that was on the wire, but resuming from the
/// snapshot can never deliver one twice (at-most-once across rejoin).
/// HRT channels are not snapshotted at all — their traffic is periodic
/// and slot-driven, so the next incarnation simply rejoins the calendar.
#[derive(Clone, Default)]
pub struct NodeSnapshot {
    /// Counters accumulated by the dead incarnation(s), so a node's
    /// reported stats span its whole lifetime rather than its last
    /// life.
    pub stats: NodeStats,
    /// Queued (not in-flight) SRT events. Attributes carry the original
    /// absolute deadline/expiration, so re-publishing restores EDF
    /// order and expiry behavior.
    srt: Vec<Event>,
    /// Queued NRT transfers, ready to submit. A partially transmitted
    /// front transfer is dropped with the crash (best-effort class).
    nrt: Vec<NrtTransfer>,
}

/// One delivery observed at a subscriber, in bus order — the unit the
/// determinism test compares byte-for-byte across runs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DeliveryRecord {
    /// Subscribing node.
    pub node: u8,
    /// Channel etag.
    pub etag: u16,
    /// Publishing node.
    pub origin: u8,
    /// Channel class.
    pub class: ChannelClass,
    /// Delivered payload bytes.
    pub bytes: Vec<u8>,
    /// Wire-completion bus time (ns).
    pub wire_ns: u64,
    /// Delivery bus time (ns); for HRT this is the slot deadline.
    pub delivered_ns: u64,
}

/// Counters a node thread returns when it shuts down.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct NodeStats {
    /// Node id.
    pub node: u8,
    /// Events accepted by `publish`.
    pub published: u64,
    /// Deliveries handed to the behavior.
    pub delivered: u64,
    /// Channel exceptions raised (all kinds).
    pub exceptions: u64,
    /// SRT messages dropped by expiration or queue overflow.
    pub expired: u64,
    /// `publish` calls rejected with backpressure.
    pub backpressure: u64,
    /// High-water mark of this node's SRT queue.
    pub srt_peak_queue: usize,
}

/// Application logic hosted on a node. All callbacks run on the node's
/// thread; `ctx` gives access to `publish` and application timers.
pub trait Behavior: Send {
    /// Called once when the broker opens the run.
    fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
        let _ = ctx;
    }
    /// An application timer set via [`NodeCtx::set_timer`] fired.
    fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, payload: u64) {
        let _ = (ctx, payload);
    }
    /// An event was delivered on a subscribed channel.
    fn on_delivery(&mut self, ctx: &mut NodeCtx<'_>, delivery: &Delivery) {
        let _ = (ctx, delivery);
    }
    /// A channel exception was raised locally (§2.2's local
    /// notification).
    fn on_exception(&mut self, ctx: &mut NodeCtx<'_>, exception: &ChannelException) {
        let _ = (ctx, exception);
    }
}

/// The API surface handed to [`Behavior`] callbacks.
pub struct NodeCtx<'a> {
    core: &'a mut NodeCore,
}

impl NodeCtx<'_> {
    /// Current bus time.
    pub fn now(&self) -> Time {
        self.core.now
    }

    /// This node's id.
    pub fn node(&self) -> u8 {
        self.core.node
    }

    /// Publish an event on the channel bound to `event.subject`.
    pub fn publish(&mut self, event: Event) -> Result<(), LiveError> {
        self.core.publish(event)
    }

    /// Arm a one-shot application timer at absolute bus time `at`;
    /// `payload` (≤ 56 bits) comes back in [`Behavior::on_timer`].
    pub fn set_timer(&mut self, at: Time, payload: u64) -> Result<(), LiveError> {
        self.core.set_timer(at, token(TK_APP, payload))
    }

    /// For an HRT publication: the instant the application should next
    /// stage an event (just before the channel's next slot-ready time)
    /// and the channel period for rearming. The initial `on_start`
    /// publish covers round 0.
    pub fn hrt_stage_schedule(&self, subject: Subject) -> Option<(Time, Duration)> {
        let &(etag, ChannelSpec::Hrt(spec)) = self.core.publishes.get(&subject.uid())? else {
            return None;
        };
        let me = NodeId(self.core.node);
        let mut slots = self.core.shared.calendar.slots.iter();
        let slot = slots.find(|s| s.etag == etag && s.publisher == me)?;
        let first = self.core.shared.calendar_start + slot.start + spec.period;
        Some((first.saturating_sub(STAGE_LEAD), spec.period))
    }
}

// --------------------------------------------------------------------
// The runtime
// --------------------------------------------------------------------

enum Notice {
    Delivered(Delivery),
    Exception(ChannelException),
}

/// Everything a node owns except its behavior (split so behavior
/// callbacks can borrow the rest of the node mutably).
struct NodeCore {
    node: u8,
    incarnation: u32,
    /// Set once the matching `Welcome` was adopted; replays are ignored.
    welcomed: bool,
    /// Wire completion time of the last `Deliver` processed. The wire
    /// is serial and every frame takes non-zero bus time, so completion
    /// times are strictly monotonic per bus — anything at or before the
    /// watermark is a duplicate datagram and is dropped.
    last_deliver_ns: u64,
    now: Time,
    transport: Box<dyn NodeTransport>,
    /// The requests of the turn in progress, not yet handed over.
    turn: Vec<ToBroker>,
    shared: SharedConfig,
    /// Trace sources of the `hrtec`/`srtec`/`nrtec` handlers, by class.
    srcs: [SourceId; 3],
    machine: NodeMachine,
    /// Scratch buffer the machine pushes its outputs into.
    out: Vec<Output>,
    next_handle: u32,
    /// Broker handles of the machine's outstanding transmissions.
    tx: TxSlots<u32>,
    /// Etag and attributes of each publication, by subject uid.
    publishes: HashMap<u64, (u16, ChannelSpec)>,
    /// Etag of each subscription, in declaration order.
    listens: Vec<u16>,
    notices: Vec<Notice>,
    stats: NodeStats,
}

/// A live node: the channel-class machine plus the application
/// behavior.
pub struct LiveNode {
    core: NodeCore,
    behavior: Box<dyn Behavior>,
}

impl LiveNode {
    /// Build a node from its configuration. Fails if a subject has no
    /// etag binding, an HRT publication has no calendar slot, or a spec
    /// is out of range.
    pub fn new(
        cfg: NodeConfig,
        shared: SharedConfig,
        transport: Box<dyn NodeTransport>,
        behavior: Box<dyn Behavior>,
    ) -> Result<Self, LiveError> {
        let etag_of = |s: Subject| -> Result<u16, LiveError> {
            let etag = shared.etags.get(&s.uid()).copied();
            etag.ok_or(LiveError::UnboundSubject(s.uid()))
        };
        if cfg.srt_queue_cap < 2 {
            return Err(LiveError::Config("SRT queue capacity must be >= 2".into()));
        }
        let mut machine = NodeMachine::new(MachineConfig {
            node: NodeId(cfg.node),
            priority_slots: shared.prio_cfg,
            timing: shared.calendar.timing,
            srt_queue_cap: cfg.srt_queue_cap,
            nrt_queue_cap: cfg.nrt_queue_cap,
            hrt_deferred_delivery: true,
        });
        machine.install_calendar(Arc::clone(&shared.calendar), shared.calendar_start);
        let mut publishes = HashMap::new();
        for (subject, spec) in cfg.publishes {
            let etag = etag_of(subject)?;
            match spec {
                ChannelSpec::Hrt(_) => {
                    let me = NodeId(cfg.node);
                    let mut slots = shared.calendar.slots.iter();
                    if !slots.any(|s| s.etag == etag && s.publisher == me) {
                        return Err(LiveError::Config(format!(
                            "HRT subject {:#x} has no calendar slot for node {}",
                            subject.uid(),
                            cfg.node
                        )));
                    }
                }
                ChannelSpec::Nrt(nr) => rtec_core::channel::validate_nrt_priority(&nr)
                    .map_err(|e| LiveError::Config(e.to_string()))?,
                ChannelSpec::Srt(sr) => rtec_core::channel::validate_srt_priority(&sr)
                    .map_err(|e| LiveError::Config(e.to_string()))?,
            }
            machine.announce(etag, subject, spec);
            publishes.insert(subject.uid(), (etag, spec));
        }
        let mut listens = Vec::with_capacity(cfg.subscribes.len());
        for (subject, spec) in cfg.subscribes {
            // Binding is static: the subscriber knows the channel's
            // class from its own (mirrored) attribute list.
            let meta = ChannelMeta::of(subject, &spec);
            let etag = etag_of(subject)?;
            machine.subscribe(etag, subject, SubscribeSpec::default(), Some(meta));
            listens.push(etag);
        }
        let src = |tec: &str| shared.sink.intern(&format!("node{}.{tec}", cfg.node));
        let core = NodeCore {
            node: cfg.node,
            incarnation: cfg.incarnation,
            welcomed: false,
            last_deliver_ns: 0,
            now: Time::ZERO,
            transport,
            turn: Vec::new(),
            srcs: [src("hrtec"), src("srtec"), src("nrtec")],
            shared,
            machine,
            out: Vec::new(),
            next_handle: 0,
            tx: TxSlots::default(),
            publishes,
            listens,
            notices: Vec::new(),
            stats: NodeStats {
                node: cfg.node,
                ..NodeStats::default()
            },
        };
        Ok(LiveNode { core, behavior })
    }

    /// Run the node to completion (until the broker sends `Shutdown`).
    /// This is the node thread's main; it returns the node's counters.
    ///
    /// If the transport fails mid-run — the broker severed the link
    /// after declaring this node down, or the thread is being chaos
    /// killed — the node drains its channel state into a
    /// [`NodeSnapshot`] before exiting, so a supervised restart can
    /// resume where this incarnation left off.
    pub fn run(mut self) -> Result<NodeStats, LiveError> {
        let result = self.run_loop();
        if result.is_err() {
            self.core.store_snapshot();
        }
        result
    }

    fn run_loop(&mut self) -> Result<NodeStats, LiveError> {
        loop {
            let msg = self
                .core
                .transport
                .recv(RECV_TIMEOUT)
                .map_err(LiveError::Transport)?;
            let shutdown = self.handle(msg)?;
            self.drain_notices()?;
            if shutdown {
                let node = self.core.node;
                self.core.end_turn(ToBroker::Done { node })?;
                let mut stats = self.core.stats.clone();
                stats.srt_peak_queue = self.core.machine.srt_queue().peak();
                return Ok(stats);
            }
            self.core.end_turn(ToBroker::Idle)?;
        }
    }

    fn handle(&mut self, msg: ToNode) -> Result<bool, LiveError> {
        let LiveNode { core, behavior } = self;
        match msg {
            ToNode::Welcome {
                now_ns,
                incarnation,
            } => {
                // Adoption guard: only the Welcome addressed to *this*
                // incarnation opens the run, exactly once. A duplicate
                // or stale-replay Welcome (UDP) must not re-arm the
                // calendar or re-run `on_start`.
                if incarnation != core.incarnation || core.welcomed {
                    return Ok(false);
                }
                core.welcomed = true;
                core.now = Time::from_ns(now_ns);
                // Every incarnation: no filter outlives a node going down.
                let listens = core.listens.iter().map(|&etag| ToBroker::Listen { etag });
                core.turn.extend(listens);
                core.arm_calendar()?;
                if core.incarnation > 0 {
                    core.resume_snapshot()?;
                }
                behavior.on_start(&mut NodeCtx { core });
            }
            ToNode::Ping { nonce } => {
                let (node, incarnation) = (core.node, core.incarnation);
                core.send(ToBroker::Pong {
                    node,
                    incarnation,
                    nonce,
                })?;
            }
            ToNode::Timer { token: tok, now_ns } => {
                core.now = Time::from_ns(now_ns);
                let kind = tok >> TK_SHIFT;
                let payload = tok & TK_PAYLOAD_MASK;
                if kind == TK_APP {
                    behavior.on_timer(&mut NodeCtx { core }, payload);
                } else {
                    core.on_timer(kind, payload)?;
                }
            }
            ToNode::Deliver {
                completed_ns,
                frame,
            } => {
                // At-most-once across duplicates: completion times are
                // strictly monotonic on a serial wire, so a repeat of
                // an already-seen instant is a duplicated datagram.
                if completed_ns <= core.last_deliver_ns {
                    return Ok(false);
                }
                core.last_deliver_ns = completed_ns;
                core.now = Time::from_ns(completed_ns);
                let stamp = core.now;
                core.step(Input::Rx { frame, stamp })?;
            }
            ToNode::TxDone {
                handle,
                tag,
                all_received,
                completed_ns,
            } => {
                core.now = Time::from_ns(completed_ns);
                // A handle that is no longer outstanding completed
                // after its slot was cleaned up, or is a duplicate.
                let class = unpack_tag(tag).and_then(|(kind, _, _)| kind.class());
                if class.is_some_and(|c| core.tx.release(c, handle)) {
                    core.step(Input::TxDone { tag, all_received })?;
                }
            }
            ToNode::AbortResult {
                handle, aborted, ..
            } => {
                // `None`: TxDone already consumed the handle.
                if let Some(class) = core.tx.class_of(handle) {
                    if aborted {
                        core.tx.release(class, handle);
                    }
                    core.step(Input::AbortResult { class, aborted })?;
                }
            }
            ToNode::Shutdown => return Ok(true),
        }
        Ok(false)
    }

    /// Hand queued deliveries/exceptions to the behavior; its callbacks
    /// may publish (appending more notices), so loop until quiet.
    fn drain_notices(&mut self) -> Result<(), LiveError> {
        while !self.core.notices.is_empty() {
            let batch = std::mem::take(&mut self.core.notices);
            let LiveNode { core, behavior } = self;
            for notice in batch {
                match notice {
                    Notice::Delivered(d) => behavior.on_delivery(&mut NodeCtx { core }, &d),
                    Notice::Exception(e) => behavior.on_exception(&mut NodeCtx { core }, &e),
                }
            }
        }
        Ok(())
    }
}

impl NodeCore {
    /// Add a request to the turn in progress.
    fn send(&mut self, msg: ToBroker) -> Result<(), LiveError> {
        self.turn.push(msg);
        if self.turn.len() < DEFAULT_DEPTH {
            return Ok(());
        }
        self.hand_over()
    }

    /// Close the turn with `last` (`Idle` or `Done`) and hand it over.
    fn end_turn(&mut self, last: ToBroker) -> Result<(), LiveError> {
        self.turn.push(last);
        self.hand_over()
    }

    fn hand_over(&mut self) -> Result<(), LiveError> {
        let sent = self.transport.send_turn(&mut self.turn);
        sent.map_err(LiveError::Transport)
    }

    fn set_timer(&mut self, at: Time, token: u64) -> Result<(), LiveError> {
        self.send(ToBroker::TimerReq {
            at_ns: at.as_ns(),
            token,
        })
    }

    // ----------------------------------------------------------------
    // Hosting the machine
    // ----------------------------------------------------------------

    /// Feed `input` to the machine at the current bus time and turn its
    /// outputs into broker requests, log entries and behavior notices.
    /// The outer error is the transport's, the inner one a refused
    /// publish.
    fn feed(&mut self, input: Input) -> Result<Result<(), PublishError>, LiveError> {
        let mut out = std::mem::take(&mut self.out);
        let accepted = self.machine.handle(self.now, input, &mut out);
        let sent = out.drain(..).try_for_each(|o| self.perform(o));
        self.out = out;
        sent.map(|()| accepted)
    }

    /// [`NodeCore::feed`] for every input but `Publish`.
    fn step(&mut self, input: Input) -> Result<(), LiveError> {
        self.feed(input)
            .map(|accepted| accepted.expect("only Publish can be refused"))
    }

    fn perform(&mut self, output: Output) -> Result<(), LiveError> {
        match output {
            Output::Submit { class, frame, tag } => {
                let handle = self.next_handle;
                self.next_handle = handle.wrapping_add(1);
                self.tx.set(class, handle);
                self.send(ToBroker::Submit { handle, tag, frame })
            }
            // The broker answers with `AbortResult`.
            Output::Abort { class } => match self.tx.get(class) {
                Some(handle) => self.send(ToBroker::Abort { handle }),
                None => Ok(()),
            },
            Output::UpdateId { id } => match self.tx.get(ChannelClass::Srt) {
                Some(handle) => self.send(ToBroker::UpdateId {
                    handle,
                    raw_id: id.raw(),
                }),
                None => Ok(()),
            },
            Output::ArmTimer { at, timer, seq } => {
                let kind = match timer {
                    SrtTimer::Deadline => TK_SRT_DEADLINE,
                    SrtTimer::Expire => TK_SRT_EXPIRE,
                    SrtTimer::Promote => TK_SRT_PROMOTE,
                };
                let token = token(kind, u64::from(seq));
                // A promotion names its submit and its chain, so the
                // broker can re-arm it without a turn while the frame
                // is on the wire.
                let chain = match timer {
                    SrtTimer::Promote => self.machine.promote_chain(seq, at),
                    _ => None,
                };
                match (chain, self.tx.get(ChannelClass::Srt)) {
                    (Some(chain), Some(handle)) => self.send(ToBroker::PromoteReq {
                        at_ns: at.as_ns(),
                        token,
                        handle,
                        every_ns: chain.every.as_ns(),
                        last_ns: chain.last.as_ns(),
                    }),
                    _ => self.set_timer(at, token),
                }
            }
            // One-way, in this turn: the timers will not cost one each.
            Output::Disarm { seq } => [TK_SRT_DEADLINE, TK_SRT_EXPIRE, TK_SRT_PROMOTE]
                .into_iter()
                .try_for_each(|kind| {
                    let token = token(kind, u64::from(seq));
                    self.send(ToBroker::TimerCancel { token })
                }),
            Output::Deliver {
                etag,
                meta: Some(meta),
                delivery,
            } => {
                let origin = delivery.event.attributes.origin;
                let rec = DeliveryRecord {
                    node: self.node,
                    etag,
                    origin: origin.map_or(u8::MAX, |n| n.0),
                    class: meta.class,
                    bytes: delivery.event.content.clone(),
                    wire_ns: delivery.wire_completed_at.as_ns(),
                    delivered_ns: delivery.delivered_at.as_ns(),
                };
                self.shared
                    .log
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .push(rec);
                self.stats.delivered += 1;
                self.notices.push(Notice::Delivered(delivery));
                Ok(())
            }
            // Neither arises here: binding is static, so a live
            // subscription always knows its channel's class, and it
            // carries no origin filter.
            Output::Deliver { meta: None, .. } | Output::Filtered { .. } => Ok(()),
            Output::Raise { exc, .. } => {
                self.stats.exceptions += 1;
                if matches!(exc, ChannelException::Expired { .. }) {
                    self.stats.expired += 1;
                }
                self.notices.push(Notice::Exception(exc));
                Ok(())
            }
            Output::Trace {
                class,
                kind,
                fields,
            } => {
                let src = self.srcs[class as usize];
                let (pairs, len) = fields.pairs();
                self.shared
                    .sink
                    .emit_fields(self.now, src, kind, &pairs[..len]);
                Ok(())
            }
        }
    }

    fn publish(&mut self, event: Event) -> Result<(), LiveError> {
        let uid = event.subject.uid();
        let &(etag, _) = self
            .publishes
            .get(&uid)
            .ok_or(LiveError::UnboundSubject(uid))?;
        let stamp = self.now;
        match self.feed(Input::Publish { etag, event, stamp })? {
            Ok(()) => {
                self.stats.published += 1;
                Ok(())
            }
            Err(PublishError::PayloadTooLong { len, max }) => {
                Err(LiveError::PayloadTooLong { len, max })
            }
            Err(PublishError::Backpressure) => {
                self.stats.backpressure += 1;
                Err(LiveError::Backpressure(uid))
            }
            // Both are ruled out when the node is built.
            Err(PublishError::UnknownChannel | PublishError::NoCalendar) => {
                Err(LiveError::UnboundSubject(uid))
            }
        }
    }

    // ----------------------------------------------------------------
    // Timers
    // ----------------------------------------------------------------

    /// Arm one calendar timer of `kind` for `slot` in `round`, at
    /// offset `off` into the round.
    fn arm_slot(
        &mut self,
        kind: u64,
        round: u64,
        slot: usize,
        off: Duration,
    ) -> Result<(), LiveError> {
        let cal: &CalendarPlan = &self.shared.calendar;
        let at = self.shared.calendar_start + cal.round * round + off;
        self.set_timer(at, token(kind, ((slot as u64) << ROUND_BITS) | round))
    }

    /// At `Welcome`: arm the ready timer of every slot this node
    /// publishes in and the delivery timer of every slot it subscribes
    /// to, each for its first occurrence not yet past (a rejoining
    /// node starts mid-calendar).
    fn arm_calendar(&mut self) -> Result<(), LiveError> {
        let cal = Arc::clone(&self.shared.calendar);
        let elapsed = self.now.saturating_since(self.shared.calendar_start);
        let first_round = |off: Duration| {
            elapsed
                .saturating_sub(off)
                .as_ns()
                .div_ceil(cal.round.as_ns())
        };
        let me = NodeId(self.node);
        for (idx, s) in cal.slots.iter().enumerate() {
            // The calendar is planned from the publications, so a slot
            // with this node as publisher is one it announced.
            if s.publisher == me {
                self.arm_slot(TK_HRT_READY, first_round(s.start), idx, s.start)?;
            } else if self.machine.subscribes(s.etag) {
                self.arm_slot(TK_HRT_DELIVER, first_round(s.deadline()), idx, s.deadline())?;
            }
        }
        Ok(())
    }

    fn on_timer(&mut self, kind: u64, payload: u64) -> Result<(), LiveError> {
        let seq = payload as u32;
        let (round, slot) = (
            payload & ((1 << ROUND_BITS) - 1),
            (payload >> ROUND_BITS) as usize,
        );
        match kind {
            TK_HRT_READY => {
                let Some(&s) = self.shared.calendar.slots.get(slot) else {
                    return Ok(());
                };
                self.step(Input::SlotReady { round, slot })?;
                // Rearm for the next round; LST and deadline only when
                // this round's slot actually carries an event.
                self.arm_slot(TK_HRT_READY, round + 1, slot, s.start)?;
                let active = self.machine.hrt_active(s.etag);
                if active.is_some_and(|a| a.round == round && a.slot == slot) {
                    self.arm_slot(TK_HRT_LST, round, slot, s.lst())?;
                    self.arm_slot(TK_HRT_DEADLINE, round, slot, s.deadline())?;
                }
                Ok(())
            }
            TK_HRT_LST => self.step(Input::SlotLst { round, slot }),
            TK_HRT_DEADLINE => self.step(Input::SlotDeadline { round, slot }),
            TK_HRT_DELIVER => {
                let Some(&s) = self.shared.calendar.slots.get(slot) else {
                    return Ok(());
                };
                self.step(Input::SlotDeliver { round, slot })?;
                self.arm_slot(TK_HRT_DELIVER, round + 1, slot, s.deadline())
            }
            TK_SRT_DEADLINE => self.step(Input::SrtDeadline { seq }),
            TK_SRT_EXPIRE => self.step(Input::SrtExpire { seq }),
            TK_SRT_PROMOTE => self.step(Input::SrtPromote { seq }),
            _ => Ok(()), // unknown kinds are ignored
        }
    }

    // ----------------------------------------------------------------
    // Crash snapshot / rejoin resync
    // ----------------------------------------------------------------

    /// Drain this incarnation's channel state into the shared snapshot
    /// map, called on the way out of a failed run. In-flight messages
    /// are excluded (see [`NodeSnapshot`]).
    fn store_snapshot(&mut self) {
        let submitted = self.machine.srt_submitted().map(|m| m.seq);
        let srt = self.machine.srt_queue().iter();
        let srt = srt.filter(|m| Some(m.seq) != submitted).map(|m| {
            let mut event = m.event.clone();
            event.attributes.deadline = Some(m.deadline);
            event.attributes.expiration = m.expiration;
            event
        });
        let pending = self.machine.nrt_pending();
        let nrt = self.machine.nrt_queue().iter().enumerate();
        let nrt = nrt.filter(|&(i, t)| !(i == 0 && (t.next > 0 || pending)));
        let snap = NodeSnapshot {
            stats: self.stats.clone(),
            srt: srt.collect(),
            nrt: nrt.map(|(_, t)| t.clone()).collect(),
        };
        self.shared
            .snapshots
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .insert(self.node, snap);
    }

    /// Adopt the predecessor incarnation's snapshot during the rejoin
    /// `Welcome`: re-publish its queued SRT events (their absolute
    /// deadlines restore EDF order; stale ones expire immediately),
    /// requeue its NRT transfers, and carry its counters forward.
    fn resume_snapshot(&mut self) -> Result<(), LiveError> {
        let snap = self
            .shared
            .snapshots
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .remove(&self.node);
        let Some(snap) = snap else {
            return Ok(());
        };
        for event in snap.srt {
            if let Err(LiveError::Transport(e)) = self.publish(event) {
                return Err(LiveError::Transport(e));
            }
        }
        let mut out = std::mem::take(&mut self.out);
        for transfer in snap.nrt {
            self.machine.requeue_nrt(transfer, &mut out);
        }
        let sent = out.drain(..).try_for_each(|o| self.perform(o));
        self.out = out;
        sent?;
        // The re-publishes above were already counted by the life that
        // first accepted them: the carried counters replace, not add to,
        // whatever the resume itself just bumped.
        self.stats = snap.stats;
        Ok(())
    }
}

//! The network world: bus + clocks + per-node middleware, driven by the
//! discrete-event engine.
//!
//! [`Network`] is the top-level object applications construct. It owns
//! an [`Engine`] whose model, [`NetWorld`], is the *simulator host* of
//! the channel-class machine: every node carries one
//! [`crate::machine::NodeMachine`], which makes all HRT/SRT/NRT
//! decisions, and the world does only what differs by construction
//! between a simulated and a live node:
//!
//! * it feeds the machine — application publishes, calendar and SRT
//!   timer events, bus receptions and completions — together with the
//!   node's *local* reading of global time, and carries out its
//!   outputs against the bus model (`submit`, `abort`, `update_id`),
//!   the engine (timers, translated back to true time through the
//!   node's clock) and the application endpoints (queues, handlers);
//!   an abort is answered inline from [`CanBus::abort`];
//! * it arms the calendar: [`NetWorld::install_calendar`] runs the
//!   off-line admission test and each `RoundStart` fans out the
//!   round's `SlotReady`/`SlotLst`/`SlotDeliver` events in a fixed
//!   order (which is what fixes engine tie-breaks run to run);
//! * it runs the binding and clock-synchronization protocols, whose
//!   frames never reach the machine;
//! * it keeps the omniscient [`NetStats`] (latencies in true time,
//!   looked up across nodes), which no real node could.

use crate::api::NetApi;
use crate::binding::{
    BindReply, BindRequest, BindStatus, SubjectRegistry, ETAG_BIND_REPLY, ETAG_BIND_REQUEST,
    ETAG_FOLLOW_UP, ETAG_SYNC,
};
use crate::channel::{
    validate_nrt_priority, validate_srt_priority, ChannelClass, ChannelError, ChannelException,
    ChannelSpec, SubscribeSpec,
};
use crate::event::{Delivery, Event, EventQueue, Subject};
use crate::machine::{ChannelMeta, Input, MachineConfig, Output, PublishError, SrtTimer};
use crate::node::{
    pack_tag, unpack_tag, ExcHandler, NodeState, NotifyHandler, PublisherState, SubscriptionState,
    TagKind,
};
use crate::stats::NetStats;
use rtec_analysis::admission::{AdmissionError, CalendarPlan, SlotRequest};
use rtec_analysis::edf::PrioritySlotConfig;
use rtec_can::{
    AcceptanceFilter, BusConfig, CanBus, CanEvent, CanId, FaultInjector, FaultModel, Frame,
    MapScheduler, NodeId, Notification, TxHandle, TxRequest, PRIO_NRT_MIN,
};
use rtec_clock::{ClockParams, LocalClock};
use rtec_sim::{Ctx, Duration, Engine, Model, RngStreams, SourceId, Time, TraceSink};
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

pub use crate::machine::MAX_INLINE_CONTENT;

/// Events of the network world.
#[derive(Clone, Copy, Debug)]
pub enum NetEvent {
    /// Bus activity.
    Can(CanEvent),
    /// A calendar round begins.
    RoundStart {
        /// Round number (0-based).
        round: u64,
    },
    /// A slot's ready instant (publisher side).
    SlotReady {
        /// Round number.
        round: u64,
        /// Slot index within the calendar.
        slot: usize,
    },
    /// A slot's Latest Start Time (publisher side).
    SlotLst {
        /// Round number.
        round: u64,
        /// Slot index within the calendar.
        slot: usize,
    },
    /// A slot's delivery deadline at one node.
    SlotDeliver {
        /// Round number.
        round: u64,
        /// Slot index within the calendar.
        slot: usize,
        /// Node performing delivery (subscriber) or cleanup (publisher).
        node: NodeId,
    },
    /// A per-message SRT timer (deadline, expiration or promotion
    /// check) the node's machine asked for.
    SrtTimer {
        /// Owning node.
        node: NodeId,
        /// Which timer.
        timer: SrtTimer,
        /// Message sequence number.
        seq: u32,
    },
    /// The sync master emits the next SYNC frame.
    SyncTick,
    /// A one-shot application closure.
    App(usize),
    /// A recurring application closure.
    Recurring(usize),
}

/// Configuration of the in-network clock-synchronization service (the
/// Gergeleit/Streich two-frame scheme the paper adopts as its time
/// base, [9]).
#[derive(Clone, Copy, Debug)]
pub struct ClockSyncConfig {
    /// Resynchronization period (master time).
    pub period: Duration,
    /// The node whose clock defines global time. Its own drift shifts
    /// the whole time base; pick a good oscillator for it.
    pub master: NodeId,
    /// CAN priority of sync frames (top of the SRT band by default —
    /// infrastructure traffic must not starve).
    pub priority: u8,
}

impl Default for ClockSyncConfig {
    fn default() -> Self {
        ClockSyncConfig {
            period: Duration::from_ms(50),
            master: NodeId(0),
            priority: rtec_can::PRIO_SRT_MIN,
        }
    }
}

/// Static configuration of a network world.
#[derive(Clone, Debug)]
pub struct NetworkConfig {
    /// Number of nodes on the bus.
    pub nodes: usize,
    /// Bus parameters (bit rate).
    pub bus: BusConfig,
    /// Inter-slot gap `ΔG_min` (paper: 40 µs).
    pub gap: Duration,
    /// Deadline → priority mapping for SRT traffic.
    pub priority_slots: PrioritySlotConfig,
    /// Per-node oscillator parameters (`None` = perfect clocks).
    pub clocks: Option<Vec<ClockParams>>,
    /// Run the clock-synchronization protocol over the bus (`None` =
    /// clocks free-run; fine for perfect clocks, required for drifting
    /// clocks on long runs).
    pub clock_sync: Option<ClockSyncConfig>,
    /// Run the binding protocol over the bus instead of binding
    /// instantaneously.
    pub dynamic_binding: bool,
    /// Node hosting the binding agent.
    pub binding_agent: NodeId,
    /// Calendar round length.
    pub round: Duration,
    /// Delay from `install_calendar` to the first round.
    pub calendar_start_delay: Duration,
    /// Fault model installed on the bus.
    pub fault_model: FaultModel,
    /// Seed for all randomness.
    pub seed: u64,
    /// Deliver HRT events at the slot deadline (paper behaviour). Set
    /// `false` for the jitter ablation: deliver on wire completion.
    pub hrt_deferred_delivery: bool,
}

impl Default for NetworkConfig {
    fn default() -> Self {
        NetworkConfig {
            nodes: 4,
            bus: BusConfig::default(),
            gap: Duration::from_us(40),
            priority_slots: PrioritySlotConfig::paper_default(),
            clocks: None,
            clock_sync: None,
            dynamic_binding: false,
            binding_agent: NodeId(0),
            round: Duration::from_ms(10),
            calendar_start_delay: Duration::from_ms(1),
            fault_model: FaultModel::None,
            seed: 42,
            hrt_deferred_delivery: true,
        }
    }
}

/// Errors from [`NetWorld::install_calendar`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CalendarError {
    /// The admission test rejected the reservation set.
    Admission(AdmissionError),
    /// An HRT channel has no etag yet (dynamic binding still pending).
    Unbound(Subject),
    /// The calendar was already installed.
    AlreadyInstalled,
}

impl std::fmt::Display for CalendarError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CalendarError::Admission(e) => write!(f, "admission refused: {e}"),
            CalendarError::Unbound(s) => write!(f, "HRT channel {s} not bound yet"),
            CalendarError::AlreadyInstalled => write!(f, "calendar already installed"),
        }
    }
}
impl std::error::Error for CalendarError {}

/// A boxed recurring application closure.
type RecurringFn = Box<dyn FnMut(&mut NetApi<'_>)>;
/// A boxed one-shot application closure.
type OneShotFn = Box<dyn FnOnce(&mut NetApi<'_>)>;

struct RecurringTask {
    period: Duration,
    f: Option<RecurringFn>,
}

/// The simulation model: everything on (and above) the bus.
pub struct NetWorld {
    /// The shared bus.
    pub bus: CanBus,
    /// Measurements.
    pub stats: NetStats,
    pub(crate) nodes: Vec<NodeState>,
    pub(crate) registry: SubjectRegistry,
    pub(crate) channel_table: HashMap<u16, ChannelMeta>,
    pub(crate) subscribers: HashMap<u16, Vec<NodeId>>,
    pub(crate) calendar: Option<Arc<CalendarPlan>>,
    pub(crate) calendar_start: Time,
    pub(crate) config: NetworkConfig,
    trace: TraceSink,
    /// Per-node interned trace sources, indexed `[node][class]`. Rebuilt
    /// whenever the sink is replaced; emit sites pass these handles
    /// instead of formatting a `String` source per event.
    trace_srcs: Vec<[SourceId; 3]>,
    one_shots: Vec<Option<OneShotFn>>,
    recurring: Vec<RecurringTask>,
    /// Publish instants of staged HRT events, for latency accounting.
    hrt_publish_times: HashMap<(u16, u64, usize), Time>,
    /// Scratch buffer the node machines push their outputs into.
    out: Vec<Output>,
}

fn wrap_can(ev: CanEvent) -> NetEvent {
    NetEvent::Can(ev)
}

impl NetWorld {
    /// (Re)intern the per-node trace source names (`"node3.hrtec"`, ...)
    /// on the current sink.
    fn rebuild_trace_srcs(&mut self) {
        self.trace_srcs = self
            .nodes
            .iter()
            .map(|ns| {
                let n = ns.id;
                [
                    self.trace.intern(&format!("{n}.hrtec")),
                    self.trace.intern(&format!("{n}.srtec")),
                    self.trace.intern(&format!("{n}.nrtec")),
                ]
            })
            .collect();
    }

    fn new(config: NetworkConfig) -> Self {
        let streams = RngStreams::new(config.seed);
        let injector = FaultInjector::new(config.fault_model.clone(), streams.stream("bus-faults"));
        let mut bus = CanBus::new(config.bus, config.nodes, injector);
        if config.dynamic_binding {
            // The agent listens for requests; everyone listens for the
            // broadcast replies.
            bus.controller_mut(config.binding_agent)
                .add_filter(AcceptanceFilter::for_etag(ETAG_BIND_REQUEST));
            for i in 0..config.nodes {
                bus.controller_mut(NodeId(i as u8))
                    .add_filter(AcceptanceFilter::for_etag(ETAG_BIND_REPLY));
            }
        }
        if config.clock_sync.is_some() {
            for i in 0..config.nodes {
                let c = bus.controller_mut(NodeId(i as u8));
                c.add_filter(AcceptanceFilter::for_etag(ETAG_SYNC));
                c.add_filter(AcceptanceFilter::for_etag(ETAG_FOLLOW_UP));
            }
        }
        let nodes = (0..config.nodes)
            .map(|i| {
                let params = config
                    .clocks
                    .as_ref()
                    .and_then(|c| c.get(i).copied())
                    .unwrap_or(ClockParams::PERFECT);
                NodeState::new(
                    LocalClock::new(params),
                    MachineConfig {
                        node: NodeId(i as u8),
                        priority_slots: config.priority_slots,
                        timing: config.bus.timing,
                        // The simulated middleware queues are unbounded.
                        srt_queue_cap: usize::MAX,
                        nrt_queue_cap: usize::MAX,
                        hrt_deferred_delivery: config.hrt_deferred_delivery,
                    },
                )
            })
            .collect();
        NetWorld {
            bus,
            stats: NetStats::default(),
            nodes,
            registry: SubjectRegistry::new(),
            channel_table: HashMap::new(),
            subscribers: HashMap::new(),
            calendar: None,
            calendar_start: Time::ZERO,
            config,
            trace: TraceSink::disabled(),
            trace_srcs: Vec::new(),
            one_shots: Vec::new(),
            recurring: Vec::new(),
            hrt_publish_times: HashMap::new(),
            out: Vec::new(),
        }
    }

    /// The installed calendar, if any.
    pub fn calendar(&self) -> Option<&CalendarPlan> {
        self.calendar.as_deref()
    }

    /// First round start (true time) of the installed calendar, if any.
    pub fn calendar_start(&self) -> Option<Time> {
        self.calendar.as_ref().map(|_| self.calendar_start)
    }

    /// The network configuration.
    pub fn config(&self) -> &NetworkConfig {
        &self.config
    }

    /// The subject→etag registry.
    pub fn registry(&self) -> &SubjectRegistry {
        &self.registry
    }

    /// The subject a bound etag belongs to, if a channel exists for it.
    pub fn channel_subject(&self, etag: u16) -> Option<Subject> {
        self.channel_table.get(&etag).map(|m| m.subject)
    }

    /// Enumerate all bound channels: `(etag, subject, class)`, sorted by
    /// etag — the directory a monitoring or configuration tool would
    /// display.
    pub fn channels(&self) -> Vec<(u16, Subject, ChannelClass)> {
        let mut out: Vec<(u16, Subject, ChannelClass)> = self
            .channel_table
            .iter()
            .map(|(&etag, m)| (etag, m.subject, m.class))
            .collect();
        out.sort_by_key(|&(etag, _, _)| etag);
        out
    }

    /// All nodes currently subscribed to an etag (borrowed — delivery
    /// paths iterate this per event, so no clone).
    pub fn subscribers_of(&self, etag: u16) -> &[NodeId] {
        self.subscribers.get(&etag).map_or(&[], Vec::as_slice)
    }

    /// Enumerate all bound publications: `(etag, publishing node, spec)`,
    /// sorted by etag — the input a configuration linter needs.
    pub fn publications(&self) -> Vec<(u16, NodeId, ChannelSpec)> {
        let mut out: Vec<(u16, NodeId, ChannelSpec)> = Vec::new();
        for ns in &self.nodes {
            for p in ns.publishers.values() {
                if let Some(etag) = p.etag {
                    out.push((etag, ns.id, p.spec));
                }
            }
        }
        out.sort_by_key(|&(etag, node, _)| (etag, node.0));
        out
    }

    /// Peak SRT queue length observed on a node.
    pub fn srt_peak_queue(&self, node: NodeId) -> usize {
        self.nodes[node.index()].machine.srt_queue().peak()
    }

    /// Current SRT queue length on a node.
    pub fn srt_queue_len(&self, node: NodeId) -> usize {
        self.nodes[node.index()].machine.srt_queue().len()
    }

    // ------------------------------------------------------------------
    // Time helpers
    // ------------------------------------------------------------------

    /// A node's current estimate of global time.
    pub(crate) fn global_now(&self, node: NodeId, true_now: Time) -> Time {
        self.nodes[node.index()].clock.read(true_now)
    }

    /// The true instant at which `node` acts for global instant `g`
    /// (clamped so it is never in the past).
    pub(crate) fn true_at(&self, node: NodeId, g: Time, true_now: Time) -> Time {
        self.nodes[node.index()]
            .clock
            .true_time_when_reads(g)
            .max(true_now)
    }

    // ------------------------------------------------------------------
    // Hosting the node machines
    // ------------------------------------------------------------------

    /// Queue a frame on `node`'s controller.
    fn submit(
        &mut self,
        ctx: &mut Ctx<NetEvent>,
        node: NodeId,
        frame: Frame,
        tag: u64,
    ) -> TxHandle {
        let mut sched = MapScheduler::new(ctx, wrap_can);
        self.bus.submit(
            &mut sched,
            node,
            TxRequest {
                frame,
                single_shot: false,
                tag,
            },
        )
    }

    /// Feed `input` to `node`'s machine at the node's current reading
    /// of global time and carry out its outputs in order. An abort is
    /// answered inline from the bus model, so its consequences (e.g.
    /// submitting the new EDF head) land in the same engine event.
    /// `published` is the publish instant to account a deferred HRT
    /// delivery against, when the caller knows it.
    fn step(
        &mut self,
        ctx: &mut Ctx<NetEvent>,
        node: NodeId,
        input: Input,
        published: Option<Time>,
    ) -> Result<(), PublishError> {
        let n = node.index();
        let now = ctx.now();
        let g = self.nodes[n].clock.read(now);
        let mut out = std::mem::take(&mut self.out);
        let result = self.nodes[n].machine.handle(g, input, &mut out);
        let mut abort_result = None;
        loop {
            for output in out.drain(..) {
                match output {
                    Output::Submit { class, frame, tag } => {
                        let handle = self.submit(ctx, node, frame, tag);
                        self.nodes[n].tx.set(class, handle);
                    }
                    Output::Abort { class } => {
                        let tx = &mut self.nodes[n].tx;
                        let aborted = tx
                            .get(class)
                            .is_some_and(|h| self.bus.abort(node, h) && tx.release(class, h));
                        abort_result = Some(Input::AbortResult { class, aborted });
                    }
                    Output::UpdateId { id } => {
                        // Fails harmlessly if the frame is on the wire
                        // right now (it is about to complete).
                        if let Some(handle) = self.nodes[n].tx.get(ChannelClass::Srt) {
                            self.bus.update_id(node, handle, id);
                        }
                    }
                    Output::ArmTimer { at, timer, seq } => {
                        let t = self.true_at(node, at, now);
                        ctx.at(t, NetEvent::SrtTimer { node, timer, seq });
                    }
                    // A stale event on the engine's wheel wakes no thread.
                    Output::Disarm { .. } => {}
                    Output::Deliver {
                        etag,
                        meta,
                        delivery,
                    } => self.deliver(node, etag, meta, delivery, now, published),
                    Output::Filtered { etag } => self.stats.channel_mut(etag).filtered += 1,
                    Output::Raise { etag, exc } => self.raise(node, etag, &exc),
                    Output::Trace {
                        class,
                        kind,
                        fields,
                        len,
                    } => {
                        if self.trace.is_enabled() {
                            let src = self.trace_srcs[n][class as usize];
                            self.trace.emit_fields(now, src, kind, &fields[..len]);
                        }
                    }
                }
            }
            let Some(input) = abort_result.take() else {
                break;
            };
            self.nodes[n]
                .machine
                .handle(g, input, &mut out)
                .expect("only Publish can be refused");
        }
        self.out = out;
        result
    }

    /// Hand a delivery to the subscriber's queue and handler, and
    /// account it.
    fn deliver(
        &mut self,
        node: NodeId,
        etag: u16,
        meta: Option<ChannelMeta>,
        delivery: Delivery,
        now: Time,
        published: Option<Time>,
    ) {
        // Omniscient latency accounting: the publish instant of the
        // message the sender currently has on the wire for this etag.
        let published = published.or_else(|| {
            let sender = &self
                .nodes
                .get(delivery.event.attributes.origin?.index())?
                .machine;
            match meta? {
                m if m.class == ChannelClass::Srt => sender
                    .srt_submitted()
                    .filter(|msg| msg.etag == etag)
                    .map(|msg| msg.stamp),
                m if m.fragmented => sender
                    .nrt_queue()
                    .front()
                    .filter(|t| t.etag == etag)
                    .map(|t| t.stamp),
                _ => None,
            }
        });
        let uid = delivery.event.subject.uid();
        let Some(sub) = self.nodes[node.index()].subscriptions.get_mut(&uid) else {
            return;
        };
        // Clone only when a notify handler needs a borrow after the
        // queue takes ownership; the common path moves.
        match sub.notify.as_mut() {
            Some(h) => {
                sub.queue.push(delivery.clone());
                h(&delivery);
            }
            None => sub.queue.push(delivery),
        }
        let last = sub.last_delivery.replace(now);
        let ch = self.stats.channel_mut(etag);
        ch.delivered += 1;
        if let Some(pt) = published {
            ch.latency_ns.record(now.saturating_since(pt).as_ns());
        }
        if let Some(last) = last {
            ch.inter_delivery_ns
                .record(now.saturating_since(last).as_ns());
        }
    }

    /// Count a machine-raised exception and hand it to the endpoint it
    /// concerns: `MissingEvent` and reassembly faults are the
    /// subscriber's, everything else the publisher's.
    fn raise(&mut self, node: NodeId, etag: u16, exc: &ChannelException) {
        self.stats.exceptions += 1;
        let ch = self.stats.channel_mut(etag);
        let to_subscriber = match exc {
            ChannelException::DeadlineMissed { .. } => {
                ch.deadline_misses += 1;
                false
            }
            ChannelException::Expired { .. } => {
                ch.expired_drops += 1;
                false
            }
            ChannelException::RedundancyExhausted { .. } => {
                ch.redundancy_exhausted += 1;
                false
            }
            ChannelException::MissingEvent { .. } => {
                ch.missing_events += 1;
                true
            }
            ChannelException::NotReady { .. } => false,
            ChannelException::Fault { .. } => true,
        };
        let (ns, uid) = (&mut self.nodes[node.index()], exc.subject().uid());
        if to_subscriber {
            if let Some(s) = ns.subscriptions.get_mut(&uid) {
                s.raise(exc);
            }
        } else if let Some(p) = ns.publishers.get_mut(&uid) {
            p.raise(exc);
        }
    }

    // ------------------------------------------------------------------
    // Channel API (called through NetApi)
    // ------------------------------------------------------------------

    pub(crate) fn announce(
        &mut self,
        ctx: &mut Ctx<NetEvent>,
        node: NodeId,
        subject: Subject,
        spec: ChannelSpec,
        exception: Option<ExcHandler>,
    ) -> Result<(), ChannelError> {
        if self.nodes[node.index()]
            .publishers
            .contains_key(&subject.uid())
        {
            return Err(ChannelError::AlreadyAnnounced(subject));
        }
        match &spec {
            ChannelSpec::Hrt(_) => {
                if self.calendar.is_some() {
                    return Err(ChannelError::CalendarState(
                        "HRT channels must be announced before the calendar is installed",
                    ));
                }
            }
            ChannelSpec::Nrt(n) => validate_nrt_priority(n)?,
            ChannelSpec::Srt(s) => validate_srt_priority(s)?,
        }
        // Cross-publisher consistency: a subject has at most one channel
        // class.
        if let Some(etag) = self.registry.etag_of(subject) {
            if let Some(meta) = self.channel_table.get(&etag) {
                if meta.class != spec.class() {
                    return Err(ChannelError::SpecMismatch(subject));
                }
            }
        }
        self.nodes[node.index()]
            .publishers
            .insert(subject.uid(), PublisherState::new(subject, spec, exception));
        self.bind(ctx, node, subject)
    }

    pub(crate) fn subscribe(
        &mut self,
        ctx: &mut Ctx<NetEvent>,
        node: NodeId,
        subject: Subject,
        spec: SubscribeSpec,
        notify: Option<NotifyHandler>,
        exception: Option<ExcHandler>,
    ) -> Result<EventQueue, ChannelError> {
        if self.nodes[node.index()]
            .subscriptions
            .contains_key(&subject.uid())
        {
            return Err(ChannelError::AlreadySubscribed(subject));
        }
        let sub = SubscriptionState::new(subject, spec, notify, exception);
        let queue = sub.queue.clone();
        self.nodes[node.index()]
            .subscriptions
            .insert(subject.uid(), sub);
        self.bind(ctx, node, subject)?;
        Ok(queue)
    }

    pub(crate) fn cancel_subscription(
        &mut self,
        node: NodeId,
        subject: Subject,
    ) -> Result<(), ChannelError> {
        let sub = self.nodes[node.index()]
            .subscriptions
            .remove(&subject.uid())
            .ok_or(ChannelError::NotSubscribed(subject))?;
        if let Some(etag) = sub.etag {
            // Release the hardware filter and the dissemination entry —
            // a strictly local operation (§2.2.1).
            self.nodes[node.index()].machine.cancel_subscription(etag);
            self.bus
                .controller_mut(node)
                .remove_filters(|f| *f == AcceptanceFilter::for_etag(etag));
            if let Some(list) = self.subscribers.get_mut(&etag) {
                list.retain(|&n| n != node);
            }
        }
        Ok(())
    }

    pub(crate) fn cancel_publication(
        &mut self,
        node: NodeId,
        subject: Subject,
    ) -> Result<(), ChannelError> {
        let pub_state = self.nodes[node.index()]
            .publishers
            .get(&subject.uid())
            .ok_or(ChannelError::NotAnnounced(subject))?;
        if matches!(pub_state.spec, ChannelSpec::Hrt(_)) && self.calendar.is_some() {
            return Err(ChannelError::CalendarState(
                "HRT publications cannot be cancelled while the calendar is active",
            ));
        }
        let etag = pub_state.etag;
        self.nodes[node.index()].publishers.remove(&subject.uid());
        if let Some(etag) = etag {
            self.nodes[node.index()].machine.cancel_publication(etag);
        }
        Ok(())
    }

    pub(crate) fn publish(
        &mut self,
        ctx: &mut Ctx<NetEvent>,
        node: NodeId,
        subject: Subject,
        event: Event,
    ) -> Result<(), ChannelError> {
        let pub_state = self.nodes[node.index()]
            .publishers
            .get_mut(&subject.uid())
            .ok_or(ChannelError::NotAnnounced(subject))?;
        let Some(etag) = pub_state.etag else {
            // Binding still in flight: queue the publication.
            pub_state.pending_publishes.push_back(event);
            return Ok(());
        };
        let stamp = ctx.now();
        self.step(ctx, node, Input::Publish { etag, event, stamp }, None)
            .map_err(|e| match e {
                PublishError::PayloadTooLong { len, max } => {
                    ChannelError::PayloadTooLong { len, max }
                }
                PublishError::NoCalendar => ChannelError::CalendarState(
                    "publish on an HRT channel requires an installed calendar",
                ),
                PublishError::UnknownChannel => ChannelError::NotAnnounced(subject),
                PublishError::Backpressure => unreachable!("simulated queues are unbounded"),
            })?;
        self.stats.channel_mut(etag).published += 1;
        Ok(())
    }

    // ------------------------------------------------------------------
    // Binding
    // ------------------------------------------------------------------

    fn bind(
        &mut self,
        ctx: &mut Ctx<NetEvent>,
        node: NodeId,
        subject: Subject,
    ) -> Result<(), ChannelError> {
        if !self.config.dynamic_binding || node == self.config.binding_agent {
            // Static binding (or the agent binding its own subjects):
            // assign immediately.
            let etag = self
                .registry
                .bind(subject)
                .map_err(|_| ChannelError::EtagsExhausted)?;
            self.complete_binding(ctx, node, subject, etag);
            return Ok(());
        }
        // Dynamic: enqueue a BIND_REQUEST; one outstanding at a time.
        let node_state = &mut self.nodes[node.index()];
        let seq = node_state.bind_seq;
        node_state.bind_seq = node_state.bind_seq.wrapping_add(1);
        node_state
            .bind_pending
            .push_back(crate::node::PendingBind { seq, subject });
        if node_state.bind_pending.len() == 1 {
            self.send_bind_request(ctx, node);
        }
        Ok(())
    }

    fn send_bind_request(&mut self, ctx: &mut Ctx<NetEvent>, node: NodeId) {
        let Some(pending) = self.nodes[node.index()].bind_pending.front().copied() else {
            return;
        };
        let req = BindRequest::new(pending.seq, pending.subject);
        let frame = Frame::new(
            CanId::new(PRIO_NRT_MIN, node.0, ETAG_BIND_REQUEST),
            &req.encode(),
        );
        let tag = pack_tag(TagKind::Bind, ETAG_BIND_REQUEST, u32::from(pending.seq));
        self.submit(ctx, node, frame, tag);
    }

    fn complete_binding(
        &mut self,
        ctx: &mut Ctx<NetEvent>,
        node: NodeId,
        subject: Subject,
        etag: u16,
    ) {
        let n = node.index();
        let mut flush: VecDeque<Event> = VecDeque::new();
        if let Some(p) = self.nodes[n].publishers.get_mut(&subject.uid()) {
            p.etag = Some(etag);
            flush = std::mem::take(&mut p.pending_publishes);
            let (spec, meta) = (p.spec, ChannelMeta::of(subject, &p.spec));
            self.nodes[n].machine.announce(etag, subject, spec);
            let known = *self.channel_table.entry(etag).or_insert(meta);
            for ns in &mut self.nodes {
                ns.machine.learn_channel(etag, known);
            }
            if known.class != meta.class {
                self.stats.exceptions += 1;
                let reason = "channel class conflicts with an existing publisher";
                if let Some(p) = self.nodes[n].publishers.get_mut(&subject.uid()) {
                    p.raise(&ChannelException::Fault {
                        subject,
                        reason: reason.into(),
                    });
                }
            }
        }
        if let Some(s) = self.nodes[n].subscriptions.get_mut(&subject.uid()) {
            s.etag = Some(etag);
            let (filter, meta) = (s.spec.clone(), self.channel_table.get(&etag).copied());
            self.nodes[n].machine.subscribe(etag, subject, filter, meta);
            // Dynamic binding delegates the subject filtering to the
            // controller hardware (§2.1).
            self.bus
                .controller_mut(node)
                .add_filter(AcceptanceFilter::for_etag(etag));
            let subs = self.subscribers.entry(etag).or_default();
            if !subs.contains(&node) {
                subs.push(node);
            }
        }
        self.stats.channels.entry(etag).or_default();
        for event in flush {
            // Re-enter publish now that the etag is known; errors
            // surface as exceptions because the original call returned
            // long ago.
            if let Err(e) = self.publish(ctx, node, subject, event) {
                self.stats.exceptions += 1;
                if let Some(p) = self.nodes[n].publishers.get_mut(&subject.uid()) {
                    p.raise(&ChannelException::Fault {
                        subject,
                        reason: format!("deferred publish failed: {e}"),
                    });
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Calendar / HRT
    // ------------------------------------------------------------------

    pub(crate) fn install_calendar(
        &mut self,
        ctx: &mut Ctx<NetEvent>,
    ) -> Result<(), CalendarError> {
        if self.calendar.is_some() {
            return Err(CalendarError::AlreadyInstalled);
        }
        let mut requests = Vec::new();
        for node in &self.nodes {
            for p in node.publishers.values() {
                if let ChannelSpec::Hrt(h) = p.spec {
                    let etag = p.etag.ok_or(CalendarError::Unbound(p.subject))?;
                    requests.push(SlotRequest {
                        etag,
                        publisher: node.id,
                        dlc: h.dlc,
                        omission_degree: h.omission_degree,
                        period: h.period,
                    });
                }
            }
        }
        let plan = Arc::new(
            CalendarPlan::plan(
                self.config.round,
                &requests,
                self.config.bus.timing,
                self.config.gap,
            )
            .map_err(CalendarError::Admission)?,
        );
        self.calendar_start = ctx.now() + self.config.calendar_start_delay;
        ctx.at(self.calendar_start, NetEvent::RoundStart { round: 0 });
        for ns in &mut self.nodes {
            ns.machine
                .install_calendar(Arc::clone(&plan), self.calendar_start);
        }
        self.calendar = Some(plan);
        Ok(())
    }

    fn on_round_start(&mut self, ctx: &mut Ctx<NetEvent>, round: u64) {
        let now = ctx.now();
        let plan = self.calendar.as_ref().expect("round without calendar");
        let base = self.calendar_start + plan.round * round;
        let mut to_schedule: Vec<(Time, NetEvent)> = Vec::new();
        for (idx, slot) in plan.slots.iter().enumerate() {
            let ready_g = base + slot.start;
            let lst_g = base + slot.lst();
            let deadline_g = base + slot.deadline();
            let publisher = slot.publisher;
            to_schedule.push((
                self.true_at(publisher, ready_g, now),
                NetEvent::SlotReady { round, slot: idx },
            ));
            to_schedule.push((
                self.true_at(publisher, lst_g, now),
                NetEvent::SlotLst { round, slot: idx },
            ));
            // Publisher-side cleanup at the deadline.
            to_schedule.push((
                self.true_at(publisher, deadline_g, now),
                NetEvent::SlotDeliver {
                    round,
                    slot: idx,
                    node: publisher,
                },
            ));
            // Subscriber-side delivery at the deadline.
            if let Some(subs) = self.subscribers.get(&slot.etag) {
                for &sub_node in subs {
                    if sub_node != publisher {
                        to_schedule.push((
                            self.true_at(sub_node, deadline_g, now),
                            NetEvent::SlotDeliver {
                                round,
                                slot: idx,
                                node: sub_node,
                            },
                        ));
                    }
                }
            }
        }
        let next_round_at = base + plan.round;
        for (t, ev) in to_schedule {
            ctx.at(t, ev);
        }
        ctx.at(next_round_at, NetEvent::RoundStart { round: round + 1 });
    }

    /// Etag and publisher of calendar slot `slot`.
    fn slot_info(&self, slot: usize) -> (u16, NodeId) {
        let plan = self.calendar.as_ref().expect("calendar installed");
        let s = &plan.slots[slot];
        (s.etag, s.publisher)
    }

    fn on_slot_ready(&mut self, ctx: &mut Ctx<NetEvent>, round: u64, slot: usize) {
        let (etag, publisher) = self.slot_info(slot);
        let _ = self.step(ctx, publisher, Input::SlotReady { round, slot }, None);
        let machine = &self.nodes[publisher.index()].machine;
        if machine
            .hrt_active(etag)
            .is_some_and(|a| a.round == round && a.slot == slot)
        {
            // Latency is measured from the staging's consumption.
            self.hrt_publish_times
                .insert((etag, round, slot), ctx.now());
        }
    }

    fn on_slot_deliver(&mut self, ctx: &mut Ctx<NetEvent>, round: u64, slot: usize, node: NodeId) {
        let (etag, publisher) = self.slot_info(slot);
        if node == publisher {
            // Publisher-side slot cleanup.
            let _ = self.step(ctx, node, Input::SlotDeadline { round, slot }, None);
        } else if self.config.hrt_deferred_delivery {
            // Subscriber-side delivery at the deadline (jitter removal).
            let published = self.hrt_publish_times.remove(&(etag, round, slot));
            let _ = self.step(ctx, node, Input::SlotDeliver { round, slot }, published);
        }
    }

    // ------------------------------------------------------------------
    // Clock synchronization (in-network service)
    // ------------------------------------------------------------------

    fn on_sync_tick(&mut self, ctx: &mut Ctx<NetEvent>) {
        let Some(sync) = self.config.clock_sync else {
            return;
        };
        let frame = Frame::new(
            CanId::new(sync.priority, sync.master.0, ETAG_SYNC),
            &[0u8; 8],
        );
        self.submit(
            ctx,
            sync.master,
            frame,
            pack_tag(TagKind::Sync, ETAG_SYNC, 0),
        );
        // Next tick by the master's own clock.
        let now = ctx.now();
        let next_global = self.global_now(sync.master, now) + sync.period;
        let t = self.true_at(sync.master, next_global, now + Duration::from_ns(1));
        ctx.at(t, NetEvent::SyncTick);
    }

    /// Largest disagreement between any two node clocks right now (ns).
    pub fn clock_spread(&self, true_now: Time) -> u64 {
        let readings: Vec<u64> = self
            .nodes
            .iter()
            .map(|n| n.clock.read(true_now).as_ns())
            .collect();
        match (readings.iter().max(), readings.iter().min()) {
            (Some(max), Some(min)) => max - min,
            _ => 0,
        }
    }

    // ------------------------------------------------------------------
    // Bus notification routing
    // ------------------------------------------------------------------

    fn on_notification(&mut self, ctx: &mut Ctx<NetEvent>, note: Notification) {
        match note {
            Notification::Rx {
                node,
                frame,
                completed_at,
            } => self.on_rx(ctx, node, frame, completed_at),
            Notification::TxCompleted {
                node,
                handle,
                tag,
                all_received,
                started,
                ..
            } => self.on_tx_completed(ctx, node, handle, tag, all_received, started),
            Notification::TxError { .. } => {
                // Corruption: the controller retransmits automatically.
            }
            Notification::TxFailed { node, tag, .. } => {
                // Single-shot loss (only baselines use single-shot).
                let _ = (node, tag);
            }
            Notification::ErrorStateChanged { node, state } => {
                // Fault confinement is below the middleware; surface it
                // to every channel endpoint of the affected node so
                // applications learn about degraded connectivity.
                self.stats.exceptions += 1;
                let n = node.index();
                let subjects: Vec<Subject> = self.nodes[n]
                    .publishers
                    .values()
                    .map(|p| p.subject)
                    .collect();
                for subject in subjects {
                    let exc = ChannelException::Fault {
                        subject,
                        reason: format!("controller fault-confinement state: {state:?}"),
                    };
                    if let Some(p) = self.nodes[n].publishers.get_mut(&subject.uid()) {
                        p.raise(&exc);
                    }
                }
            }
            Notification::DuplicateId { id, nodes } => {
                // TxNode uniqueness violated — a configuration bug the
                // static linter catches ahead of time. Surface it as an
                // exception on every implicated node instead of tearing
                // the whole simulation down.
                self.stats.duplicate_ids += 1;
                self.stats.exceptions += 1;
                for node in nodes {
                    let n = node.index();
                    if n >= self.nodes.len() {
                        continue;
                    }
                    let subjects: Vec<Subject> = self.nodes[n]
                        .publishers
                        .values()
                        .filter(|p| p.etag == Some(id.etag()))
                        .map(|p| p.subject)
                        .collect();
                    for subject in subjects {
                        let exc = ChannelException::Fault {
                            subject,
                            reason: format!(
                                "identifier {id} used by multiple nodes: TxNode \
                                 uniqueness violated"
                            ),
                        };
                        if let Some(p) = self.nodes[n].publishers.get_mut(&subject.uid()) {
                            p.raise(&exc);
                        }
                    }
                }
            }
        }
    }

    fn on_tx_completed(
        &mut self,
        ctx: &mut Ctx<NetEvent>,
        node: NodeId,
        handle: TxHandle,
        tag: u64,
        all_received: bool,
        started: Time,
    ) {
        let now = ctx.now();
        let Some((kind, etag, seq)) = unpack_tag(tag) else {
            self.stats.unknown_frames += 1;
            return;
        };
        let n = node.index();
        let machine = &self.nodes[n].machine;
        // Omniscient accounting first, from the state the completion is
        // about to change.
        let mut hrt_retx = None;
        let class = match kind {
            TagKind::Hrt => {
                let active = machine
                    .hrt_active(etag)
                    .filter(|a| a.slot as u32 == seq && a.pending);
                if let Some(a) = active {
                    let plan = self.calendar.as_ref().expect("calendar installed");
                    let lst = self.calendar_start + plan.round * a.round + plan.slots[a.slot].lst();
                    let lst_true = self.nodes[n].clock.true_time_when_reads(lst);
                    if a.retx == 0 {
                        self.stats
                            .hrt_lst_blocking_ns
                            .record(started.saturating_since(lst_true).as_ns());
                    }
                    self.stats
                        .hrt_wire_offset_ns
                        .record(now.saturating_since(lst_true).as_ns());
                    let ch = self.stats.channel_mut(etag);
                    ch.wire_transmissions += 1;
                    let published = self.hrt_publish_times.get(&(etag, a.round, a.slot));
                    if let (true, Some(&pt)) = (all_received, published) {
                        ch.wire_latency_ns.record(now.saturating_since(pt).as_ns());
                    }
                    hrt_retx = Some(a.retx);
                }
                ChannelClass::Hrt
            }
            TagKind::Srt => {
                if let Some(tx) = machine.srt_submitted().filter(|tx| tx.seq == seq) {
                    let ch = self.stats.channel_mut(etag);
                    ch.wire_transmissions += 1;
                    ch.wire_latency_ns
                        .record(now.saturating_since(tx.stamp).as_ns());
                }
                ChannelClass::Srt
            }
            TagKind::Nrt => {
                if let Some(t) = machine.nrt_queue().front() {
                    let ch = self.stats.channel_mut(etag);
                    ch.wire_transmissions += 1;
                    if t.next + 1 == t.payloads.len() {
                        ch.wire_latency_ns
                            .record(now.saturating_since(t.stamp).as_ns());
                    }
                }
                ChannelClass::Nrt
            }
            // Request or reply left the wire; nothing to do — the
            // requester acts on the reply's Rx.
            TagKind::Bind => return,
            TagKind::Sync => {
                // The master latches its clock at the SYNC completion
                // and distributes that timestamp in a FOLLOW-UP (the
                // completion instant is the event all nodes observed
                // simultaneously).
                let Some(sync) = self.config.clock_sync else {
                    return;
                };
                if node == sync.master && etag == ETAG_SYNC {
                    let stamp = self.global_now(sync.master, now);
                    let follow = Frame::new(
                        CanId::new(sync.priority, sync.master.0, ETAG_FOLLOW_UP),
                        &stamp.as_ns().to_le_bytes(),
                    );
                    let tag = pack_tag(TagKind::Sync, ETAG_FOLLOW_UP, 0);
                    self.submit(ctx, sync.master, follow, tag);
                }
                return;
            }
        };
        self.nodes[n].tx.release(class, handle);
        let _ = self.step(ctx, node, Input::TxDone { tag, all_received }, None);
        let retx_now = self.nodes[n].machine.hrt_active(etag).map(|a| a.retx);
        if hrt_retx.is_some() && retx_now > hrt_retx {
            self.stats.channel_mut(etag).redundant_transmissions += 1;
        }
    }

    fn on_rx(&mut self, ctx: &mut Ctx<NetEvent>, node: NodeId, frame: Frame, completed_at: Time) {
        let etag = frame.id.etag();
        // Clock-synchronization frames.
        if etag == ETAG_SYNC {
            let latch = self.global_now(node, completed_at);
            self.nodes[node.index()].sync_latch = Some(latch);
            return;
        }
        if etag == ETAG_FOLLOW_UP {
            if frame.payload().len() == 8 {
                let mut bytes = [0u8; 8];
                bytes.copy_from_slice(frame.payload());
                let master_time = u64::from_le_bytes(bytes) as f64;
                if let Some(latch) = self.nodes[node.index()].sync_latch.take() {
                    let delta = master_time - latch.as_ns() as f64;
                    self.nodes[node.index()].clock.slew(delta);
                }
            }
            return;
        }
        // Binding protocol frames.
        if etag == ETAG_BIND_REQUEST {
            if node == self.config.binding_agent {
                self.agent_handle_request(ctx, frame);
            }
            return;
        }
        if etag == ETAG_BIND_REPLY {
            if let Some(reply) = BindReply::decode(frame.payload()) {
                if reply.requester == node.0 {
                    self.on_bind_reply(ctx, node, reply);
                }
            }
            return;
        }
        // Channel traffic.
        let stamp = completed_at;
        let _ = self.step(ctx, node, Input::Rx { frame, stamp }, None);
    }

    fn agent_handle_request(&mut self, ctx: &mut Ctx<NetEvent>, frame: Frame) {
        let Some(req) = BindRequest::decode(frame.payload()) else {
            return;
        };
        let requester = frame.id.txnode();
        let (etag, status) = match self.registry.bind(Subject::new(req.subject48)) {
            Ok(etag) => (etag, BindStatus::Ok),
            Err(_) => (0, BindStatus::Exhausted),
        };
        let reply = BindReply {
            requester,
            seq: req.seq,
            etag,
            status,
        };
        let agent = self.config.binding_agent;
        let reply_frame = Frame::new(
            CanId::new(PRIO_NRT_MIN, agent.0, ETAG_BIND_REPLY),
            &reply.encode(),
        );
        let tag = pack_tag(TagKind::Bind, ETAG_BIND_REPLY, u32::from(req.seq));
        self.submit(ctx, agent, reply_frame, tag);
    }

    fn on_bind_reply(&mut self, ctx: &mut Ctx<NetEvent>, node: NodeId, reply: BindReply) {
        let n = node.index();
        let Some(head) = self.nodes[n].bind_pending.front().copied() else {
            return;
        };
        if head.seq != reply.seq {
            return;
        }
        self.nodes[n].bind_pending.pop_front();
        if reply.status == BindStatus::Ok {
            self.complete_binding(ctx, node, head.subject, reply.etag);
        } else {
            let exc = ChannelException::Fault {
                subject: head.subject,
                reason: "binding agent exhausted the etag space".into(),
            };
            self.stats.exceptions += 1;
            if let Some(p) = self.nodes[n].publishers.get_mut(&head.subject.uid()) {
                p.raise(&exc);
            }
            if let Some(s) = self.nodes[n].subscriptions.get_mut(&head.subject.uid()) {
                s.raise(&exc);
            }
        }
        if !self.nodes[n].bind_pending.is_empty() {
            self.send_bind_request(ctx, node);
        }
    }
}

impl Model for NetWorld {
    type Event = NetEvent;

    fn handle(&mut self, ctx: &mut Ctx<NetEvent>, ev: NetEvent) {
        match ev {
            NetEvent::Can(can_ev) => {
                let notes = {
                    let mut sched = MapScheduler::new(ctx, wrap_can);
                    self.bus.handle(&mut sched, can_ev)
                };
                for note in notes {
                    self.on_notification(ctx, note);
                }
            }
            NetEvent::RoundStart { round } => self.on_round_start(ctx, round),
            NetEvent::SlotReady { round, slot } => self.on_slot_ready(ctx, round, slot),
            NetEvent::SlotLst { round, slot } => {
                let (_, publisher) = self.slot_info(slot);
                let _ = self.step(ctx, publisher, Input::SlotLst { round, slot }, None);
            }
            NetEvent::SlotDeliver { round, slot, node } => {
                self.on_slot_deliver(ctx, round, slot, node)
            }
            NetEvent::SrtTimer { node, timer, seq } => {
                let _ = self.step(ctx, node, timer.input(seq), None);
            }
            NetEvent::SyncTick => self.on_sync_tick(ctx),
            NetEvent::App(idx) => {
                if let Some(f) = self.one_shots.get_mut(idx).and_then(Option::take) {
                    let mut api = NetApi { world: self, ctx };
                    f(&mut api);
                }
            }
            NetEvent::Recurring(idx) => {
                let mut f = self.recurring[idx].f.take();
                let period = self.recurring[idx].period;
                if let Some(func) = f.as_mut() {
                    let mut api = NetApi { world: self, ctx };
                    func(&mut api);
                }
                self.recurring[idx].f = f;
                ctx.after(period, NetEvent::Recurring(idx));
            }
        }
    }
}

/// Builder for [`Network`].
#[derive(Clone, Debug, Default)]
pub struct NetworkBuilder {
    config: NetworkConfig,
}

impl NetworkBuilder {
    /// Number of nodes on the bus.
    pub fn nodes(mut self, n: usize) -> Self {
        self.config.nodes = n;
        self
    }
    /// Bus bit timing.
    pub fn bus(mut self, bus: BusConfig) -> Self {
        self.config.bus = bus;
        self
    }
    /// Inter-slot gap `ΔG_min`.
    pub fn gap(mut self, gap: Duration) -> Self {
        self.config.gap = gap;
        self
    }
    /// SRT priority-slot configuration.
    pub fn priority_slots(mut self, cfg: PrioritySlotConfig) -> Self {
        self.config.priority_slots = cfg;
        self
    }
    /// Per-node clock parameters.
    pub fn clocks(mut self, clocks: Vec<ClockParams>) -> Self {
        self.config.clocks = Some(clocks);
        self
    }
    /// Enable the in-network clock-synchronization service.
    pub fn clock_sync(mut self, cfg: ClockSyncConfig) -> Self {
        self.config.clock_sync = Some(cfg);
        self
    }
    /// Enable the dynamic binding protocol.
    pub fn dynamic_binding(mut self, on: bool) -> Self {
        self.config.dynamic_binding = on;
        self
    }
    /// Calendar round length.
    pub fn round(mut self, round: Duration) -> Self {
        self.config.round = round;
        self
    }
    /// Fault model for the bus.
    pub fn faults(mut self, model: FaultModel) -> Self {
        self.config.fault_model = model;
        self
    }
    /// Run seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self
    }
    /// Toggle HRT deferred delivery (ablation).
    pub fn hrt_deferred_delivery(mut self, on: bool) -> Self {
        self.config.hrt_deferred_delivery = on;
        self
    }
    /// Override the full configuration.
    pub fn config(mut self, config: NetworkConfig) -> Self {
        self.config = config;
        self
    }
    /// Build the network.
    pub fn build(self) -> Network {
        Network::with_config(self.config)
    }
}

/// The user-facing simulation handle: a [`NetWorld`] plus its engine.
pub struct Network {
    engine: Engine<NetWorld>,
}

impl Network {
    /// Start building a network.
    pub fn builder() -> NetworkBuilder {
        NetworkBuilder::default()
    }

    /// Build with an explicit configuration.
    pub fn with_config(config: NetworkConfig) -> Self {
        let sync_enabled = config.clock_sync.is_some();
        let mut engine = Engine::new(NetWorld::new(config));
        if sync_enabled {
            engine.schedule_at(Time::ZERO, NetEvent::SyncTick);
        }
        Network { engine }
    }

    /// Current simulated (true) time.
    pub fn now(&self) -> Time {
        self.engine.now()
    }

    /// Access the middleware API at the current instant.
    pub fn api(&mut self) -> NetApi<'_> {
        let (world, ctx) = self.engine.split();
        NetApi { world, ctx }
    }

    /// The world model (stats, bus, calendar).
    pub fn world(&self) -> &NetWorld {
        &self.engine.model
    }

    /// Mutable world access (fault-model changes mid-run, etc.).
    pub fn world_mut(&mut self) -> &mut NetWorld {
        &mut self.engine.model
    }

    /// Enable structured tracing; the returned sink collects bus and
    /// slot events (`tx_start`, `tx_end`, `slot_ready`, ...) for
    /// inspection or printing.
    pub fn enable_trace(&mut self) -> TraceSink {
        let sink = TraceSink::enabled();
        self.engine.model.trace = sink.clone();
        self.engine.model.rebuild_trace_srcs();
        self.engine.model.bus.set_trace(sink.clone());
        sink
    }

    /// Network statistics collected so far.
    pub fn stats(&self) -> &NetStats {
        &self.engine.model.stats
    }

    /// Total events dispatched by the underlying engine — the
    /// scheduler-level work metric the benchmark harness uses to hold
    /// serial and parallel topology runs to equal event counts.
    pub fn dispatched(&self) -> u64 {
        self.engine.dispatched()
    }

    /// Run until an absolute simulated time.
    pub fn run_until(&mut self, t: Time) {
        self.engine.run_until(t);
    }

    /// Run for a span of simulated time.
    pub fn run_for(&mut self, d: Duration) {
        self.engine.run_for(d);
    }

    /// Schedule a one-shot application closure at an absolute time.
    pub fn at(&mut self, t: Time, f: impl FnOnce(&mut NetApi<'_>) + 'static) {
        let idx = self.engine.model.one_shots.len();
        self.engine.model.one_shots.push(Some(Box::new(f)));
        self.engine.schedule_at(t, NetEvent::App(idx));
    }

    /// Schedule a one-shot application closure after a delay.
    pub fn after(&mut self, d: Duration, f: impl FnOnce(&mut NetApi<'_>) + 'static) {
        let t = self.engine.now() + d;
        self.at(t, f);
    }

    /// Schedule a recurring application closure with the given period,
    /// first firing after `phase`.
    pub fn every(
        &mut self,
        period: Duration,
        phase: Duration,
        f: impl FnMut(&mut NetApi<'_>) + 'static,
    ) {
        let idx = self.engine.model.recurring.len();
        self.engine.model.recurring.push(RecurringTask {
            period,
            f: Some(Box::new(f)),
        });
        self.engine.schedule_after(phase, NetEvent::Recurring(idx));
    }
}

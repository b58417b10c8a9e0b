//! The shared bus: arbitration, transmission timing, error signalling
//! and delivery.
//!
//! The bus advances through discrete [`CanEvent`]s scheduled on its
//! host — the simulation engine, or the live broker's agenda:
//!
//! * `Arbitrate` — the bus is idle and at least one controller has a
//!   pending frame. All operational controllers contend with their
//!   lowest pending identifier; the lowest identifier on the wire wins
//!   (CAN's bitwise arbitration resolved in one step, which is exact
//!   because identifiers are unique). The winner's frame occupies the
//!   bus for its exact on-wire duration ([`bits::exact_frame_bits`],
//!   counted once here and carried in the in-flight record).
//! * `TxEnd` — the frame completed. Every operational node whose
//!   acceptance filters match receives it (minus omission-fault
//!   victims); the sender learns whether *all* operational nodes
//!   received it (`all_received`), which is the hook for the HRT
//!   channel's early-stop redundancy.
//! * `TxError` — the frame was corrupted partway; an error frame
//!   globalizes the failure, nobody receives anything, and the
//!   controller re-enters arbitration automatically (unless the request
//!   was single-shot).
//!
//! Non-preemption falls out of the model: between `Arbitrate` and
//! `TxEnd` the bus ignores newly submitted frames — they contend at the
//! next arbitration point, at most one maximal frame later (`ΔT_wait`).

use crate::bits::{exact_frame_bits, BitTiming, ERROR_FRAME_BITS};
use crate::controller::{Controller, TxHandle, TxRequest};
use crate::fault::{FaultDecision, FaultInjector};
use crate::frame::Frame;
use crate::id::{CanId, NodeId};
use rtec_sim::{Ctx, Duration, SourceId, Time, TraceSink};
use serde::{Deserialize, Serialize};

/// Events the bus schedules for itself on its host's [`CanScheduler`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CanEvent {
    /// Resolve arbitration among pending frames (bus idle).
    Arbitrate,
    /// The in-flight frame completed successfully on the wire.
    TxEnd,
    /// The in-flight frame was destroyed by an error frame.
    TxError,
    /// A bus-off node finished its recovery sequence (128 × 11
    /// recessive bits) and rejoins the bus.
    BusOffRecover(NodeId),
}

/// Minimal scheduling interface the bus needs of its host. Implemented
/// for `Ctx<CanEvent>` directly, adaptable to any embedding event type
/// via [`MapScheduler`], and small enough for a host with no engine at
/// all (the live broker's agenda).
pub trait CanScheduler {
    /// Current bus time.
    fn now(&self) -> Time;
    /// Schedule a bus event after a delay. Events due at one instant
    /// come back in the order they were scheduled; a host may hold an
    /// `Arbitrate` back to the end of its instant, never move it ahead.
    fn schedule_after(&mut self, d: Duration, ev: CanEvent);
}

impl CanScheduler for Ctx<CanEvent> {
    fn now(&self) -> Time {
        Ctx::now(self)
    }
    fn schedule_after(&mut self, d: Duration, ev: CanEvent) {
        self.after(d, ev);
    }
}

/// Adapter embedding [`CanEvent`]s into a larger world event type.
pub struct MapScheduler<'a, E, F: FnMut(CanEvent) -> E> {
    ctx: &'a mut Ctx<E>,
    wrap: F,
}

impl<'a, E, F: FnMut(CanEvent) -> E> MapScheduler<'a, E, F> {
    /// Wrap a world context with an event constructor.
    pub fn new(ctx: &'a mut Ctx<E>, wrap: F) -> Self {
        MapScheduler { ctx, wrap }
    }
}

impl<E, F: FnMut(CanEvent) -> E> CanScheduler for MapScheduler<'_, E, F> {
    fn now(&self) -> Time {
        self.ctx.now()
    }
    fn schedule_after(&mut self, d: Duration, ev: CanEvent) {
        let wrapped = (self.wrap)(ev);
        self.ctx.after(d, wrapped);
    }
}

/// Static bus parameters.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct BusConfig {
    /// Bit timing (default 1 Mbit/s as in the paper).
    pub timing: BitTiming,
    /// Automatically recover bus-off nodes after 128 × 11 bit times
    /// (most controllers offer this; disable to model permanent node
    /// loss).
    pub bus_off_auto_recover: bool,
}

impl Default for BusConfig {
    fn default() -> Self {
        BusConfig {
            timing: BitTiming::MBIT_1,
            bus_off_auto_recover: true,
        }
    }
}

/// Aggregate bus statistics.
#[derive(Clone, Copy, Debug, Default, Serialize, Deserialize)]
pub struct BusStats {
    /// Frames completed successfully on the wire.
    pub frames_ok: u64,
    /// Transmission attempts destroyed by error frames.
    pub frames_corrupted: u64,
    /// Completed frames that suffered an omission fault.
    pub frames_with_omission: u64,
    /// Arbitration rounds resolved.
    pub arbitrations: u64,
    /// Total wire-busy time (successful frames + error wreckage).
    pub busy: Duration,
    /// Wire-busy time broken down by priority band: `[HRT, SRT, NRT]`.
    pub busy_by_band: [Duration; 3],
    /// Total bits successfully moved (including protocol overhead).
    pub bits_ok: u64,
    /// Payload bytes successfully moved.
    pub payload_bytes_ok: u64,
    /// Fault-confinement transitions into bus-off.
    pub bus_off_events: u64,
}

impl BusStats {
    /// Wire utilization over an observation window.
    pub fn utilization(&self, window: Duration) -> f64 {
        if window.is_zero() {
            0.0
        } else {
            self.busy.as_ns() as f64 / window.as_ns() as f64
        }
    }

    fn band_index(priority: u8) -> usize {
        match priority {
            crate::id::PRIO_HRT => 0,
            p if p <= crate::id::PRIO_SRT_MAX => 1,
            _ => 2,
        }
    }
}

/// Something the embedding world must react to.
#[derive(Clone, Debug)]
pub enum Notification {
    /// A frame was delivered to `node`'s host (passed acceptance
    /// filtering, not an omission victim).
    Rx {
        /// Receiving node.
        node: NodeId,
        /// The delivered frame.
        frame: Frame,
        /// Wire completion instant.
        completed_at: Time,
    },
    /// The sender's request completed on the wire.
    TxCompleted {
        /// Sending node.
        node: NodeId,
        /// Handle of the completed request.
        handle: TxHandle,
        /// Middleware correlation tag.
        tag: u64,
        /// The frame as transmitted (with any rewritten priority).
        frame: Frame,
        /// Number of wire attempts this request took.
        attempts: u32,
        /// `true` iff every operational node received the frame —
        /// the signal that lets the HRT publisher skip redundant
        /// retransmissions (§3.2).
        all_received: bool,
        /// When this attempt won arbitration.
        started: Time,
        /// Exact wire duration of this attempt.
        duration: Duration,
    },
    /// An attempt was corrupted; the controller will retry
    /// automatically.
    TxError {
        /// Sending node.
        node: NodeId,
        /// Handle of the affected request.
        handle: TxHandle,
        /// Middleware correlation tag.
        tag: u64,
        /// Attempts so far (including this failed one).
        attempts: u32,
    },
    /// A single-shot attempt was corrupted; the request is dropped.
    TxFailed {
        /// Sending node.
        node: NodeId,
        /// Handle of the dropped request.
        handle: TxHandle,
        /// Middleware correlation tag.
        tag: u64,
        /// Attempts made.
        attempts: u32,
    },
    /// A node's fault-confinement state changed (error counters crossed
    /// a threshold, or a bus-off node recovered).
    ErrorStateChanged {
        /// The affected node.
        node: NodeId,
        /// Its new state.
        state: crate::controller::ErrorState,
    },
    /// Two nodes contended with the same identifier — a configuration
    /// error the middleware must prevent (TxNode uniqueness, §3.5).
    DuplicateId {
        /// The clashing identifier.
        id: CanId,
        /// The nodes that contended with it.
        nodes: Vec<NodeId>,
    },
}

#[derive(Clone, Debug)]
struct Inflight {
    node: NodeId,
    handle: TxHandle,
    frame: Frame,
    tag: u64,
    single_shot: bool,
    attempts: u32,
    started: Time,
    duration: Duration,
    /// Full on-wire length of the frame, counted once at arbitration.
    bits: u32,
    decision: FaultDecision,
}

/// The CAN bus model: a set of controllers sharing one wire, tracing
/// into its host's [`TraceSink`] (the simulator's or the live
/// broker's — one sink type serves both).
pub struct CanBus {
    config: BusConfig,
    controllers: Vec<Controller>,
    injector: FaultInjector,
    inflight: Option<Inflight>,
    arb_scheduled: bool,
    /// Per-node suspend-transmission end (error-passive nodes pause 8
    /// bit times after transmitting).
    suspend_until: Vec<Time>,
    /// Scratch for the per-arbitration contender, `arb` record field
    /// and receiver sets, kept for their capacity.
    candidates: Vec<(CanId, NodeId)>,
    arb_fields: Vec<(&'static str, u64)>,
    receivers: Vec<NodeId>,
    /// The buffer [`CanBus::handle`] fills next: the one its caller
    /// handed back through [`CanBus::recycle`], capacity and all.
    spare: Vec<Notification>,
    trace: TraceSink,
    /// Interned `"bus"` source handle for the attached sink, so hot
    /// emit sites pass a `u32` instead of a string per event.
    trace_src: SourceId,
    /// Aggregate statistics.
    pub stats: BusStats,
}

impl CanBus {
    /// Create an untraced bus with `num_nodes` controllers (node ids
    /// `0..n`).
    pub fn new(config: BusConfig, num_nodes: usize, injector: FaultInjector) -> Self {
        CanBus::with_trace(config, num_nodes, injector, TraceSink::disabled())
    }

    /// Create a bus with `num_nodes` controllers tracing into `trace`.
    ///
    /// # Panics
    /// If `num_nodes` exceeds the 128 the TxNode field can name.
    pub fn with_trace(
        config: BusConfig,
        num_nodes: usize,
        injector: FaultInjector,
        trace: TraceSink,
    ) -> Self {
        assert!(num_nodes <= 128, "TxNode field limits the bus to 128 nodes");
        CanBus {
            config,
            controllers: (0..num_nodes)
                .map(|i| Controller::new(NodeId(i as u8)))
                .collect(),
            injector,
            inflight: None,
            arb_scheduled: false,
            suspend_until: vec![Time::ZERO; num_nodes],
            candidates: Vec::with_capacity(num_nodes),
            arb_fields: Vec::with_capacity(num_nodes + 1),
            receivers: Vec::with_capacity(num_nodes),
            spare: Vec::new(),
            trace_src: trace.intern("bus"),
            trace,
            stats: BusStats::default(),
        }
    }

    /// Attach a trace sink.
    pub fn set_trace(&mut self, trace: TraceSink) {
        self.trace_src = trace.intern("bus");
        self.trace = trace;
    }

    /// Bus configuration.
    pub fn config(&self) -> &BusConfig {
        &self.config
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.controllers.len()
    }

    /// Immutable access to a node's controller.
    pub fn controller(&self, node: NodeId) -> &Controller {
        &self.controllers[node.index()]
    }

    /// Mutable access to a node's controller (filter management).
    pub fn controller_mut(&mut self, node: NodeId) -> &mut Controller {
        &mut self.controllers[node.index()]
    }

    /// Mutable access to the fault injector (mid-run model changes,
    /// activation-boundary resets).
    pub fn injector_mut(&mut self) -> &mut FaultInjector {
        &mut self.injector
    }

    /// `true` while a frame occupies the wire.
    pub fn is_busy(&self) -> bool {
        self.inflight.is_some()
    }

    /// Identifier currently occupying the wire, if any.
    pub fn inflight_id(&self) -> Option<CanId> {
        self.inflight.as_ref().map(|f| f.frame.id)
    }

    /// Submit a transmit request on behalf of `node`; schedules an
    /// arbitration point if the bus is idle.
    pub fn submit(
        &mut self,
        sched: &mut impl CanScheduler,
        node: NodeId,
        request: TxRequest,
    ) -> TxHandle {
        let handle = self.controllers[node.index()].submit(request);
        self.kick(sched);
        handle
    }

    /// Withdraw a pending request. Fails (returns `false`) if the frame
    /// is currently on the wire — transmissions are non-preemptible.
    pub fn abort(&mut self, node: NodeId, handle: TxHandle) -> bool {
        if self.is_handle_inflight(node, handle) {
            return false;
        }
        self.controllers[node.index()].abort(handle)
    }

    /// Rewrite the identifier of a pending request (priority
    /// promotion). Fails if the frame is on the wire or already done.
    pub fn update_id(&mut self, node: NodeId, handle: TxHandle, new_id: CanId) -> bool {
        if self.is_handle_inflight(node, handle) {
            return false;
        }
        self.controllers[node.index()].update_id(handle, new_id)
    }

    /// `true` while `node`'s request `handle` is on the wire: then
    /// [`CanBus::abort`] and [`CanBus::update_id`] refuse it, and it
    /// leaves the wire only by completing or by an error frame.
    #[inline]
    pub fn is_handle_inflight(&self, node: NodeId, handle: TxHandle) -> bool {
        self.inflight
            .as_ref()
            .is_some_and(|f| f.node == node && f.handle == handle)
    }

    /// Ensure an arbitration point is scheduled if the bus is idle and
    /// work is pending.
    pub fn kick(&mut self, sched: &mut impl CanScheduler) {
        if self.inflight.is_none()
            && !self.arb_scheduled
            && self
                .controllers
                .iter()
                .any(|c| c.can_transmit() && c.queue_len() != 0)
        {
            sched.schedule_after(Duration::ZERO, CanEvent::Arbitrate);
            self.arb_scheduled = true;
        }
    }

    /// Dispatch one bus event, producing notifications for the
    /// embedding world. The buffer they come in is the one last handed
    /// to [`CanBus::recycle`], if any: a host that hands each one back
    /// allocates none per frame.
    pub fn handle(&mut self, sched: &mut impl CanScheduler, ev: CanEvent) -> Vec<Notification> {
        let mut notes = std::mem::take(&mut self.spare);
        match ev {
            CanEvent::Arbitrate => self.on_arbitrate(sched, &mut notes),
            CanEvent::TxEnd => self.on_tx_end(sched, &mut notes),
            CanEvent::TxError => self.on_tx_error(sched, &mut notes),
            CanEvent::BusOffRecover(node) => self.on_bus_off_recover(sched, node, &mut notes),
        }
        notes
    }

    /// Hand back a buffer [`CanBus::handle`] returned, once its
    /// notifications are dealt with, for the next event to fill.
    pub fn recycle(&mut self, mut notes: Vec<Notification>) {
        notes.clear();
        self.spare = notes;
    }

    fn on_arbitrate(&mut self, sched: &mut impl CanScheduler, notes: &mut Vec<Notification>) {
        self.arb_scheduled = false;
        if self.inflight.is_some() {
            return; // stale arbitration point
        }
        let now = sched.now();
        // Gather each transmit-capable controller's contending
        // identifier; error-passive nodes sit out their suspend pause.
        let mut suspended_min: Option<Time> = None;
        let candidates = &mut self.candidates;
        candidates.clear();
        candidates.extend(
            self.controllers
                .iter()
                .filter(|c| c.can_transmit())
                .filter_map(|c| c.contending_id().map(|id| (id, c.node())))
                .filter(|&(_, node)| {
                    let until = self.suspend_until[node.index()];
                    if now < until {
                        suspended_min = Some(suspended_min.map_or(until, |m: Time| m.min(until)));
                        false
                    } else {
                        true
                    }
                }),
        );
        if candidates.is_empty() {
            if let Some(resume) = suspended_min {
                // Everyone with work is suspended: retry when the first
                // pause ends.
                sched.schedule_after(resume.saturating_since(now), CanEvent::Arbitrate);
                self.arb_scheduled = true;
            }
            return;
        }
        candidates.sort_unstable();
        // Identifier uniqueness check (protocol invariant, §3.5).
        if candidates.len() >= 2 && candidates[0].0 == candidates[1].0 {
            let id = candidates[0].0;
            let nodes = candidates
                .iter()
                .take_while(|(cid, _)| *cid == id)
                .map(|&(_, n)| n)
                .collect();
            notes.push(Notification::DuplicateId { id, nodes });
            // Deterministic resolution: lowest node id proceeds.
        }
        let (winner_id, winner_node) = candidates[0];
        self.stats.arbitrations += 1;
        if self.trace.is_enabled() {
            // One "cand" entry per contender: node in the high half,
            // raw 29-bit identifier in the low half.
            let fields = &mut self.arb_fields;
            fields.clear();
            fields.extend(
                candidates
                    .iter()
                    .map(|&(id, node)| ("cand", (u64::from(node.0) << 32) | u64::from(id.raw()))),
            );
            fields.push(("win", u64::from(winner_id.raw())));
            self.trace.emit_fields(now, self.trace_src, "arb", fields);
        }

        let controller = &mut self.controllers[winner_node.index()];
        let pending = controller
            .best_pending()
            .expect("winner has a pending frame");
        let handle = pending.handle;
        let frame = pending.request.frame;
        let single_shot = pending.request.single_shot;
        let tag = pending.request.tag;
        debug_assert_eq!(frame.id, winner_id);
        let attempts = {
            let p = controller.pending_mut(handle).expect("pending exists");
            p.attempts += 1;
            p.attempts
        };

        self.receivers.clear();
        if !self.injector.is_fault_free() {
            self.receivers.extend(
                self.controllers
                    .iter()
                    .filter(|c| {
                        c.is_operational()
                            && c.error_state() != crate::controller::ErrorState::BusOff
                            && c.node() != winner_node
                    })
                    .map(|c| c.node()),
            );
        }
        let decision = self.injector.decide(now, &frame, &self.receivers);
        let full_bits = exact_frame_bits(&frame);
        let duration = match &decision {
            FaultDecision::Corrupt { fraction } => {
                // Bits on the wire before the error, then the error
                // frame sequence.
                let sent = ((f64::from(full_bits) * fraction).ceil() as u32).clamp(1, full_bits);
                self.config.timing.duration_of(sent + ERROR_FRAME_BITS)
            }
            _ => self.config.timing.duration_of(full_bits),
        };
        self.trace.emit_fields(
            now,
            self.trace_src,
            match decision {
                FaultDecision::Corrupt { .. } => "tx_start_corrupt",
                FaultDecision::Omit { .. } => "tx_start_omit",
                FaultDecision::Ok => "tx_start",
            },
            &[
                ("id", u64::from(frame.id.raw())),
                ("node", u64::from(winner_node.0)),
                ("attempt", u64::from(attempts)),
                ("tag", tag),
            ],
        );
        let ev = if matches!(decision, FaultDecision::Corrupt { .. }) {
            CanEvent::TxError
        } else {
            CanEvent::TxEnd
        };
        sched.schedule_after(duration, ev);
        self.inflight = Some(Inflight {
            node: winner_node,
            handle,
            frame,
            tag,
            single_shot,
            attempts,
            started: now,
            duration,
            bits: full_bits,
            decision,
        });
    }

    fn on_tx_end(&mut self, sched: &mut impl CanScheduler, notes: &mut Vec<Notification>) {
        let fl = self.inflight.take().expect("TxEnd with no inflight frame");
        let now = sched.now();
        let victims: &[NodeId] = match &fl.decision {
            FaultDecision::Omit { victims } => victims,
            _ => &[],
        };
        // Deliver to every operational, non-victim node whose filters
        // accept the identifier.
        let mut all_received = true;
        for c in &mut self.controllers {
            if c.node() == fl.node
                || !c.is_operational()
                || c.error_state() == crate::controller::ErrorState::BusOff
            {
                continue;
            }
            if victims.contains(&c.node()) {
                all_received = false;
                continue;
            }
            if c.accepts(fl.frame.id) {
                c.stats.received += 1;
                notes.push(Notification::Rx {
                    node: c.node(),
                    frame: fl.frame,
                    completed_at: now,
                });
            } else {
                c.stats.filtered_out += 1;
            }
        }
        // Book-keeping.
        self.stats.frames_ok += 1;
        if !all_received {
            self.stats.frames_with_omission += 1;
        }
        self.stats.busy += fl.duration;
        self.stats.busy_by_band[BusStats::band_index(fl.frame.id.priority())] += fl.duration;
        self.stats.bits_ok += u64::from(fl.bits);
        self.stats.payload_bytes_ok += u64::from(fl.frame.dlc());
        // Fault confinement: receive counters tick down on success.
        for c in &mut self.controllers {
            if c.node() != fl.node
                && c.is_operational()
                && c.error_state() != crate::controller::ErrorState::BusOff
            {
                if let Some(state) = c.on_rx_success() {
                    notes.push(Notification::ErrorStateChanged {
                        node: c.node(),
                        state,
                    });
                }
            }
        }
        let sender = &mut self.controllers[fl.node.index()];
        sender.stats.transmitted += 1;
        sender.take(fl.handle);
        if let Some(state) = sender.on_tx_success() {
            notes.push(Notification::ErrorStateChanged {
                node: fl.node,
                state,
            });
        }
        // Error-passive transmitters must insert a suspend pause before
        // contending again (8 bit times).
        if self.controllers[fl.node.index()].error_state() == crate::controller::ErrorState::Passive
        {
            self.suspend_until[fl.node.index()] = now + self.config.timing.duration_of(8);
        }
        self.trace.emit_fields(
            now,
            self.trace_src,
            "tx_end",
            &[
                ("id", u64::from(fl.frame.id.raw())),
                ("node", u64::from(fl.node.0)),
                ("attempt", u64::from(fl.attempts)),
                ("tag", fl.tag),
                ("all", u64::from(all_received)),
            ],
        );
        notes.push(Notification::TxCompleted {
            node: fl.node,
            handle: fl.handle,
            tag: fl.tag,
            frame: fl.frame,
            attempts: fl.attempts,
            all_received,
            started: fl.started,
            duration: fl.duration,
        });
        self.kick(sched);
    }

    fn on_tx_error(&mut self, sched: &mut impl CanScheduler, notes: &mut Vec<Notification>) {
        let fl = self
            .inflight
            .take()
            .expect("TxError with no inflight frame");
        let now = sched.now();
        self.stats.frames_corrupted += 1;
        self.stats.busy += fl.duration;
        self.stats.busy_by_band[BusStats::band_index(fl.frame.id.priority())] += fl.duration;
        // Fault confinement: every non-sender observing the error frame
        // bumps its receive error counter.
        for c in &mut self.controllers {
            if c.node() != fl.node
                && c.is_operational()
                && c.error_state() != crate::controller::ErrorState::BusOff
            {
                if let Some(state) = c.on_rx_error() {
                    notes.push(Notification::ErrorStateChanged {
                        node: c.node(),
                        state,
                    });
                }
            }
        }
        let sender = &mut self.controllers[fl.node.index()];
        sender.stats.tx_errors += 1;
        let sender_transition = sender.on_tx_error();
        let sender_bus_off = sender.error_state() == crate::controller::ErrorState::BusOff;
        self.trace.emit_fields(
            now,
            self.trace_src,
            "tx_error",
            &[
                ("id", u64::from(fl.frame.id.raw())),
                ("node", u64::from(fl.node.0)),
                ("attempt", u64::from(fl.attempts)),
                ("tag", fl.tag),
            ],
        );
        if sender_bus_off {
            // Entering bus-off cleared the queue: the request is gone.
            self.stats.bus_off_events += 1;
            notes.push(Notification::TxFailed {
                node: fl.node,
                handle: fl.handle,
                tag: fl.tag,
                attempts: fl.attempts,
            });
            if self.config.bus_off_auto_recover {
                // 128 occurrences of 11 consecutive recessive bits.
                sched.schedule_after(
                    self.config.timing.duration_of(128 * 11),
                    CanEvent::BusOffRecover(fl.node),
                );
            }
        } else if fl.single_shot {
            let sender = &mut self.controllers[fl.node.index()];
            sender.take(fl.handle);
            notes.push(Notification::TxFailed {
                node: fl.node,
                handle: fl.handle,
                tag: fl.tag,
                attempts: fl.attempts,
            });
        } else {
            // Request stays queued: automatic retransmission re-enters
            // arbitration.
            notes.push(Notification::TxError {
                node: fl.node,
                handle: fl.handle,
                tag: fl.tag,
                attempts: fl.attempts,
            });
        }
        if let Some(state) = sender_transition {
            notes.push(Notification::ErrorStateChanged {
                node: fl.node,
                state,
            });
        }
        // Error-passive transmitters pause before re-contending.
        if self.controllers[fl.node.index()].error_state() == crate::controller::ErrorState::Passive
        {
            self.suspend_until[fl.node.index()] = now + self.config.timing.duration_of(8);
        }
        self.kick(sched);
    }

    fn on_bus_off_recover(
        &mut self,
        sched: &mut impl CanScheduler,
        node: NodeId,
        notes: &mut Vec<Notification>,
    ) {
        let c = &mut self.controllers[node.index()];
        if c.error_state() != crate::controller::ErrorState::BusOff {
            return;
        }
        c.recover_from_bus_off();
        notes.push(Notification::ErrorStateChanged {
            node,
            state: crate::controller::ErrorState::Active,
        });
        self.trace.emit_fields(
            sched.now(),
            self.trace_src,
            "bus_off_recover",
            &[("node", u64::from(node.0))],
        );
        self.kick(sched);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::controller::{AcceptanceFilter, FilterMode};
    use crate::fault::{FaultModel, OmissionScope};
    use rtec_sim::{Engine, Model, Rng};

    fn req(prio: u8, etag: u16, payload: &[u8]) -> TxRequest {
        TxRequest {
            frame: Frame::new(CanId::new(prio, 1, etag), payload),
            single_shot: false,
            tag: u64::from(etag),
        }
    }

    fn req_from(prio: u8, tx: u8, etag: u16) -> TxRequest {
        TxRequest {
            frame: Frame::new(CanId::new(prio, tx, etag), &[0xAB]),
            single_shot: false,
            tag: u64::from(etag),
        }
    }

    // Submissions are injected as engine events so bus and context are
    // never borrowed simultaneously.
    enum DrivenEvent {
        Can(CanEvent),
        Submit(NodeId, TxRequest),
    }

    struct DrivenWorld {
        bus: CanBus,
        log: Vec<Notification>,
        handles: Vec<TxHandle>,
    }

    impl Model for DrivenWorld {
        type Event = DrivenEvent;
        fn handle(&mut self, ctx: &mut Ctx<DrivenEvent>, ev: DrivenEvent) {
            let mut sched = MapScheduler::new(ctx, DrivenEvent::Can);
            match ev {
                DrivenEvent::Can(c) => {
                    let mut notes = self.bus.handle(&mut sched, c);
                    self.log.append(&mut notes);
                    self.bus.recycle(notes);
                }
                DrivenEvent::Submit(node, r) => {
                    let h = self.bus.submit(&mut sched, node, r);
                    self.handles.push(h);
                }
            }
        }
    }

    fn driven(nodes: usize, injector: FaultInjector) -> Engine<DrivenWorld> {
        let mut bus = CanBus::new(BusConfig::default(), nodes, injector);
        for i in 0..nodes {
            bus.controller_mut(NodeId(i as u8))
                .set_filter_mode(FilterMode::AcceptAll);
        }
        Engine::new(DrivenWorld {
            bus,
            log: vec![],
            handles: vec![],
        })
    }

    fn completed(log: &[Notification]) -> Vec<(CanId, Time)> {
        log.iter()
            .filter_map(|n| match n {
                Notification::TxCompleted { frame, started, .. } => Some((frame.id, *started)),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn single_frame_is_delivered_to_all_others() {
        let mut e = driven(4, FaultInjector::none());
        e.schedule_at(
            Time::ZERO,
            DrivenEvent::Submit(NodeId(0), req(10, 1, &[1, 2, 3])),
        );
        e.run();
        let rx: Vec<NodeId> = e
            .model
            .log
            .iter()
            .filter_map(|n| match n {
                Notification::Rx { node, .. } => Some(*node),
                _ => None,
            })
            .collect();
        assert_eq!(rx, vec![NodeId(1), NodeId(2), NodeId(3)]);
        let done = completed(&e.model.log);
        assert_eq!(done.len(), 1);
        assert_eq!(e.model.bus.stats.frames_ok, 1);
        // all_received must be true on a fault-free bus.
        assert!(e.model.log.iter().any(|n| matches!(
            n,
            Notification::TxCompleted {
                all_received: true,
                ..
            }
        )));
    }

    #[test]
    fn lowest_id_wins_arbitration() {
        let mut e = driven(3, FaultInjector::none());
        // Both submitted at t=0; node 1's priority 5 must beat node 2's 50.
        e.schedule_at(
            Time::ZERO,
            DrivenEvent::Submit(NodeId(2), req_from(50, 2, 7)),
        );
        e.schedule_at(
            Time::ZERO,
            DrivenEvent::Submit(NodeId(1), req_from(5, 1, 8)),
        );
        e.run();
        let done = completed(&e.model.log);
        assert_eq!(done.len(), 2);
        assert_eq!(done[0].0.priority(), 5, "higher priority first");
        assert_eq!(done[1].0.priority(), 50);
    }

    #[test]
    fn ongoing_transmission_is_not_preempted() {
        let mut e = driven(3, FaultInjector::none());
        // Node 2 starts a low-priority frame; node 1 submits priority 0
        // mid-flight. The HRT frame must wait for TxEnd, then win.
        e.schedule_at(
            Time::ZERO,
            DrivenEvent::Submit(NodeId(2), req_from(200, 2, 7)),
        );
        e.schedule_at(
            Time::from_us(20),
            DrivenEvent::Submit(NodeId(1), req_from(0, 1, 8)),
        );
        e.run();
        let done = completed(&e.model.log);
        assert_eq!(done.len(), 2);
        assert_eq!(done[0].0.priority(), 200, "in-flight frame completes");
        assert_eq!(done[1].0.priority(), 0);
        // The HRT frame started exactly when the first frame ended.
        let first_end = done[1].1;
        assert!(first_end > Time::from_us(20));
        // Blocking is bounded by one maximal frame.
        assert!(
            first_end.saturating_since(Time::from_us(20)) <= BitTiming::MBIT_1.delta_t_wait_tight()
        );
    }

    #[test]
    fn back_to_back_frames_have_exact_durations() {
        let mut e = driven(2, FaultInjector::none());
        let r1 = req(10, 1, &[0x55; 8]);
        let r2 = req(20, 2, &[0x55; 8]);
        let bits1 = exact_frame_bits(&r1.frame);
        let bits2 = exact_frame_bits(&r2.frame);
        e.schedule_at(Time::ZERO, DrivenEvent::Submit(NodeId(0), r1));
        e.schedule_at(Time::ZERO, DrivenEvent::Submit(NodeId(0), r2));
        e.run();
        assert_eq!(
            e.now(),
            Time::ZERO + BitTiming::MBIT_1.duration_of(bits1 + bits2)
        );
        assert_eq!(e.model.bus.stats.bits_ok, u64::from(bits1 + bits2));
    }

    #[test]
    fn acceptance_filters_select_receivers() {
        let mut e = driven(3, FaultInjector::none());
        e.model
            .bus
            .controller_mut(NodeId(1))
            .set_filter_mode(FilterMode::Filtered);
        e.model
            .bus
            .controller_mut(NodeId(1))
            .set_filters(vec![AcceptanceFilter::for_etag(42)]);
        e.model
            .bus
            .controller_mut(NodeId(2))
            .set_filter_mode(FilterMode::Filtered);
        e.model
            .bus
            .controller_mut(NodeId(2))
            .set_filters(vec![AcceptanceFilter::for_etag(43)]);
        e.schedule_at(
            Time::ZERO,
            DrivenEvent::Submit(NodeId(0), req(10, 42, &[1])),
        );
        e.run();
        let rx: Vec<NodeId> = e
            .model
            .log
            .iter()
            .filter_map(|n| match n {
                Notification::Rx { node, .. } => Some(*node),
                _ => None,
            })
            .collect();
        assert_eq!(rx, vec![NodeId(1)], "only the subscribed node receives");
        assert_eq!(e.model.bus.controller(NodeId(2)).stats.filtered_out, 1);
        // Filtering is host-side only: all_received still true.
        assert!(e.model.log.iter().any(|n| matches!(
            n,
            Notification::TxCompleted {
                all_received: true,
                ..
            }
        )));
    }

    #[test]
    fn corruption_triggers_automatic_retransmission() {
        // Corrupt exactly the first attempt via the window model.
        let mut e = driven(
            2,
            FaultInjector::new(
                FaultModel::Window {
                    from_ns: 0,
                    to_ns: 1, // only the attempt starting at t=0
                    corruption_p: 1.0,
                },
                Rng::seed_from_u64(1),
            ),
        );
        e.schedule_at(Time::ZERO, DrivenEvent::Submit(NodeId(0), req(10, 1, &[9])));
        e.run();
        let errors = e
            .model
            .log
            .iter()
            .filter(|n| matches!(n, Notification::TxError { .. }))
            .count();
        assert_eq!(errors, 1);
        let done: Vec<u32> = e
            .model
            .log
            .iter()
            .filter_map(|n| match n {
                Notification::TxCompleted { attempts, .. } => Some(*attempts),
                _ => None,
            })
            .collect();
        assert_eq!(done, vec![2], "second attempt succeeds");
        assert_eq!(e.model.bus.stats.frames_corrupted, 1);
        assert_eq!(e.model.bus.stats.frames_ok, 1);
        // Exactly one Rx in the end.
        let rx = e
            .model
            .log
            .iter()
            .filter(|n| matches!(n, Notification::Rx { .. }))
            .count();
        assert_eq!(rx, 1);
    }

    #[test]
    fn single_shot_corruption_drops_request() {
        let mut e = driven(
            2,
            FaultInjector::new(
                FaultModel::Window {
                    from_ns: 0,
                    to_ns: 1,
                    corruption_p: 1.0,
                },
                Rng::seed_from_u64(2),
            ),
        );
        let mut r = req(10, 1, &[9]);
        r.single_shot = true;
        e.schedule_at(Time::ZERO, DrivenEvent::Submit(NodeId(0), r));
        e.run();
        assert!(e
            .model
            .log
            .iter()
            .any(|n| matches!(n, Notification::TxFailed { .. })));
        assert_eq!(e.model.bus.stats.frames_ok, 0);
        assert_eq!(e.model.bus.controller(NodeId(0)).queue_len(), 0);
    }

    #[test]
    fn omission_withholds_frame_from_victims_and_flags_sender() {
        let mut e = driven(
            4,
            FaultInjector::new(
                FaultModel::Iid {
                    corruption_p: 0.0,
                    omission_p: 1.0,
                    omission_scope: OmissionScope::OneRandomReceiver,
                },
                Rng::seed_from_u64(3),
            ),
        );
        e.schedule_at(Time::ZERO, DrivenEvent::Submit(NodeId(0), req(10, 1, &[1])));
        e.run();
        let rx = e
            .model
            .log
            .iter()
            .filter(|n| matches!(n, Notification::Rx { .. }))
            .count();
        assert_eq!(rx, 2, "one of three receivers omitted");
        assert!(e.model.log.iter().any(|n| matches!(
            n,
            Notification::TxCompleted {
                all_received: false,
                ..
            }
        )));
        assert_eq!(e.model.bus.stats.frames_with_omission, 1);
    }

    #[test]
    fn crashed_node_does_not_receive_or_count() {
        let mut e = driven(3, FaultInjector::none());
        e.model.bus.controller_mut(NodeId(2)).set_operational(false);
        e.schedule_at(Time::ZERO, DrivenEvent::Submit(NodeId(0), req(10, 1, &[1])));
        e.run();
        let rx: Vec<NodeId> = e
            .model
            .log
            .iter()
            .filter_map(|n| match n {
                Notification::Rx { node, .. } => Some(*node),
                _ => None,
            })
            .collect();
        assert_eq!(rx, vec![NodeId(1)]);
        // all_received considers only operational nodes.
        assert!(e.model.log.iter().any(|n| matches!(
            n,
            Notification::TxCompleted {
                all_received: true,
                ..
            }
        )));
    }

    #[test]
    fn abort_pending_works_but_inflight_refused() {
        let mut e = driven(2, FaultInjector::none());
        e.schedule_at(Time::ZERO, DrivenEvent::Submit(NodeId(0), req(10, 1, &[1])));
        e.schedule_at(Time::ZERO, DrivenEvent::Submit(NodeId(0), req(20, 2, &[2])));
        // Let arbitration start frame 1 (t=0 events, arb at t=0), then
        // abort the queued frame 2 mid-flight and try to abort inflight.
        e.run_until(Time::from_us(10));
        assert!(e.model.bus.is_busy());
        let h_inflight = e.model.handles[0];
        let h_queued = e.model.handles[1];
        assert!(
            !e.model.bus.abort(NodeId(0), h_inflight),
            "inflight refuses abort"
        );
        assert!(e.model.bus.abort(NodeId(0), h_queued));
        e.run();
        let done = completed(&e.model.log);
        assert_eq!(done.len(), 1, "only the inflight frame completed");
    }

    #[test]
    fn update_id_promotes_queued_frame_to_win_next_arbitration() {
        let mut e = driven(3, FaultInjector::none());
        e.schedule_at(
            Time::ZERO,
            DrivenEvent::Submit(NodeId(0), req_from(100, 0, 1)),
        );
        e.schedule_at(
            Time::ZERO,
            DrivenEvent::Submit(NodeId(1), req_from(150, 1, 2)),
        );
        e.schedule_at(
            Time::ZERO,
            DrivenEvent::Submit(NodeId(2), req_from(140, 2, 3)),
        );
        e.run_until(Time::from_us(10));
        // Frame p=100 is in flight; promote node1's p=150 to p=0.
        let h1 = e.model.handles[1];
        assert!(e.model.bus.update_id(NodeId(1), h1, CanId::new(0, 1, 2)));
        e.run();
        let done = completed(&e.model.log);
        let prios: Vec<u8> = done.iter().map(|(id, _)| id.priority()).collect();
        assert_eq!(prios, vec![100, 0, 140], "promoted frame jumps the queue");
    }

    #[test]
    fn duplicate_id_detected() {
        let mut e = driven(3, FaultInjector::none());
        // Two nodes misconfigured with the same TxNode field.
        e.schedule_at(
            Time::ZERO,
            DrivenEvent::Submit(NodeId(0), req_from(10, 5, 1)),
        );
        e.schedule_at(
            Time::ZERO,
            DrivenEvent::Submit(NodeId(1), req_from(10, 5, 1)),
        );
        e.run();
        assert!(e
            .model
            .log
            .iter()
            .any(|n| matches!(n, Notification::DuplicateId { .. })));
    }

    #[test]
    fn utilization_accounting() {
        let mut e = driven(2, FaultInjector::none());
        let r = req(0, 1, &[0x12; 8]); // HRT band
        let bits = exact_frame_bits(&r.frame);
        e.schedule_at(Time::ZERO, DrivenEvent::Submit(NodeId(0), r));
        e.schedule_at(
            Time::ZERO,
            DrivenEvent::Submit(NodeId(0), req(255, 2, &[1])),
        ); // NRT band
        e.run();
        let stats = &e.model.bus.stats;
        assert_eq!(stats.busy_by_band[0], BitTiming::MBIT_1.duration_of(bits));
        assert!(stats.busy_by_band[2] > Duration::ZERO);
        assert_eq!(stats.busy_by_band[1], Duration::ZERO);
        assert_eq!(stats.busy, stats.busy_by_band[0] + stats.busy_by_band[2]);
        let window = e.now().saturating_since(Time::ZERO);
        assert!(
            (stats.utilization(window) - 1.0).abs() < 1e-9,
            "bus was saturated"
        );
    }
}

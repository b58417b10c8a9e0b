//! The bus broker: one thread hosting the CAN bus model for a cluster
//! of node threads.
//!
//! The broker owns bus time and an [`rtec_can::CanBus`] — the bus model
//! the simulator hosts too, so arbitration, frame timing, error frames,
//! retransmission and TEC/REC fault confinement are stated once, in
//! `rtec-can`. The broker adds what only a live host has: it paces the
//! bus's events with the [`BitClock`], carries submits, aborts and
//! completions between the bus and the node threads in lock-step
//! turns, and supervises the *links and threads* the bus model knows
//! nothing about. The sender learns `all_received`, which is what lets
//! HRT publishers skip redundant retransmissions (§3.2 of the paper).
//!
//! # Lock-step protocol
//!
//! After sending a message the broker reads that node's replies until
//! the node says `Idle`; replies that themselves require an answer
//! (`Abort` → `AbortResult`) bump the outstanding count. Nodes are
//! purely reactive, so this makes the whole cluster's interleaving —
//! as far as broker state is concerned — a deterministic function of
//! the event timeline, even over real sockets and under wall pacing.
//!
//! A node's replies to one message form its *turn*, and a node hands
//! the whole turn over at once ([`NodeTransport::send_turn`]): on the
//! loopback that is one hand-off per turn, however many requests it
//! carries. The broker still reads a turn one message at a time, so an
//! `Abort` in the middle of a turn is answered before the rest of the
//! turn is read; the node reads the `AbortResult` after its `Idle`, and
//! answers it with a turn of its own. [`BrokerStats::turns`] counts the
//! turns drained.
//!
//! A turn goes only to a node that can act on it. A completion is
//! *addressed*: a node `Listen`s in its `Welcome` turn, which installs
//! acceptance filters in its controller (where the simulator keeps them
//! too), and the bus reports an `Rx` only where one matches —
//! `all_received` it computes from omission victims and operational
//! state, never from filters. A timer is *withdrawn* (`TimerCancel`)
//! once the machine says its message left the queue (`Output::Disarm`).
//! An SRT promotion is armed with a [`ToBroker::PromoteReq`], which
//! names the submit it promotes and the chain the node's machine
//! re-arms it along; when it comes due with that frame on the wire,
//! where the bus refuses the rewrite, the broker *re-arms* it at the
//! chain's next instant itself, sends the node nothing and counts
//! [`BrokerStats::promotes_rearmed`].
//! The argument above holds for the sparser turn: who is sent a message
//! at an instant is a function of broker state alone (filter banks, the
//! sender, the agenda, the bus), every addressed node is still drained
//! to `Idle` in the same fixed order, a withdrawn timer is one whose
//! turn would have drawn no reply but `Idle`, and a re-armed promotion
//! is one whose turn would have drawn an `UpdateId` the bus refuses and
//! the very timer request the broker inserts in its place — under the
//! agenda sequence number that request would have taken, so ties keep
//! their order. A re-armed promotion is no contact: it does not reset
//! the node's heartbeat silence or earn an error-passive node credit.
//!
//! Everything due sits on one agenda keyed `(at_ns, rank, seq)`, so
//! the order within one bus instant is fixed and written once
//! ([`Rank`]): the wire < timers in arming order < restarts in node
//! order < the heartbeat round < arbitration, so that every frame
//! submitted at an instant contends against every other. Deliveries
//! fan out in increasing node order with the sender's `TxDone` last.
//!
//! Completion turns are **batched**: all of a frame's `Deliver`
//! messages plus the sender's `TxDone` are sent before any node's
//! replies are drained, so the nodes process the completion
//! concurrently instead of one serialized round-trip per receiver.
//! Draining still follows the fixed order above, so every broker-side
//! state change lands exactly as in the fully serial protocol; only
//! side effects on *shared* observers (the delivery log, the trace
//! ring) may interleave, which the cluster runner canonicalizes by a
//! deterministic sort (see `cluster.rs`).
//!
//! # Fault tolerance
//!
//! *Wire* faults are the bus model's: a controller whose attempts keep
//! dying turns error-passive, then bus-off — each request it still
//! held is answered with a negative `TxDone` — and recovers by itself.
//! *Link and thread* faults are the broker's. Unless
//! [`BrokerConfig::strict`] is set, a node fault is not terminal. The broker keeps a per-node health state mirroring CAN
//! fault confinement (§3.5 of the paper): **active** (normal),
//! **passive** (reachable but flaky — its SRT/NRT submissions are shed
//! at admission and its HRT `TxDone` acks are forced to
//! `all_received = false`, so time redundancy always spends the extra
//! retransmissions), **down** (crashed, stalled, or babbling past the
//! turn budget — quarantined, its controller non-operational and its
//! pending frames abandoned, a supervised restart scheduled with
//! exponential backoff in *bus* time), and **off** (restart budget
//! exhausted: the live analogue of bus-off without auto-recovery). Restarts are delegated to a
//! [`NodeSupervisor`] — the cluster runner's implementation respawns
//! the node thread with a bumped incarnation and the broker re-runs
//! the Welcome handshake so the node can resync its state. Heartbeat
//! `Ping`s probe nodes the lock-step traffic has not touched within
//! [`BrokerConfig::heartbeat`], so a silent node cannot stay
//! undetected; all supervision timing is driven by the bus clock,
//! which keeps recovery schedules byte-identical across runs under
//! [`Pace::Virtual`].

use crate::clock::{BitClock, Pace};
use crate::transport::{BrokerTransport, NodeTransport, Relink, TransportError};
use crate::wire::{ToBroker, ToNode};
use crate::LiveError;
use rtec_can::bits::BitTiming;
use rtec_can::fault::{FaultInjector, FaultModel};
use rtec_can::{
    AcceptanceFilter, BusConfig, CanBus, CanEvent, CanId, CanScheduler, NodeId, Notification,
    TxHandle, TxRequest, PRIO_HRT,
};
use rtec_core::channel::PromoteChain;
use rtec_sim::{Duration, Rng, SourceId, Time, TraceSink};
use std::collections::BTreeMap;

/// How long the broker waits on a node reply before declaring the node
/// dead. Generous: node threads only block on their own transport.
const RECV_TIMEOUT: std::time::Duration = std::time::Duration::from_secs(60);

/// Clean lock-step exchanges an error-passive node must complete
/// before it is promoted back to active.
const PASSIVE_CLEAN_EXCHANGES: u32 = 3;

/// Further send failures an error-passive node may accumulate before
/// it is declared down.
const PASSIVE_STRIKES: u32 = 4;

/// Upper bound on the replies one node may produce within a single
/// turn of the lock-step protocol before the broker declares a
/// [`LiveError::ProtocolStall`]. A healthy turn is a handful of
/// messages (requests plus one `Idle`); a node that babbles past this
/// budget — or never returns to `Idle` because its thread wedged
/// mid-turn — would otherwise hang the whole bus behind `RECV_TIMEOUT`
/// retries forever.
pub const MAX_TURN_REPLIES: usize = 4096;

/// Fault injection for the live bus, mirroring the simulator's models.
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    /// The fault model; `None` runs a fault-free bus.
    pub model: Option<FaultModel>,
    /// Seed for the injector's random stream.
    pub seed: u64,
}

impl FaultPlan {
    fn injector(&self) -> FaultInjector {
        match &self.model {
            Some(m) => FaultInjector::new(m.clone(), Rng::seed_from_u64(self.seed)),
            None => FaultInjector::none(),
        }
    }
}

/// Broker configuration.
#[derive(Clone, Debug)]
pub struct BrokerConfig {
    /// Bit timing the wire is paced with.
    pub timing: BitTiming,
    /// How bus time maps to wall time.
    pub pace: Pace,
    /// Fault injection plan.
    pub fault: FaultPlan,
    /// Pre-supervision behavior: any node fault (stall, crash, turn
    /// budget breach) aborts the whole run with a terminal error
    /// instead of quarantining the node and carrying on.
    pub strict: bool,
    /// Probe a node with `Ping` when no lock-step exchange has touched
    /// it for this much bus time. `None` disables probing (a fully
    /// silent dead node is then only noticed at the next delivery,
    /// timer, or shutdown addressed to it).
    pub heartbeat: Option<Duration>,
    /// How long a single `recv` may block before the node counts as
    /// stalled. Wall time, since it guards against wedged threads.
    pub recv_timeout: std::time::Duration,
}

impl Default for BrokerConfig {
    fn default() -> Self {
        BrokerConfig {
            timing: BitTiming::MBIT_1,
            pace: Pace::Virtual,
            fault: FaultPlan::default(),
            strict: false,
            heartbeat: None,
            recv_timeout: RECV_TIMEOUT,
        }
    }
}

/// Counters the broker reports after a run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct BrokerStats {
    /// Arbitration rounds resolved.
    pub arbitrations: u64,
    /// Frames that completed with every receiver reached.
    pub frames_ok: u64,
    /// Frames that completed but were missed by some receiver.
    pub frames_with_omission: u64,
    /// Transmission attempts destroyed by error frames.
    pub frames_corrupted: u64,
    /// Pending frames discarded because their node went down.
    pub frames_abandoned: u64,
    /// SRT/NRT submissions shed at admission from error-passive nodes.
    pub frames_shed: u64,
    /// Heartbeat probes sent.
    pub pings: u64,
    /// Stale `Hello` replays observed after the handshake (see the
    /// `hello_replay` trace record).
    pub hello_replays: u64,
    /// Nodes declared down (counting repeats).
    pub node_downs: u64,
    /// Supervised restarts completed.
    pub node_restarts: u64,
    /// Node turns drained: replies closed by `Idle` or `Done`. Each is
    /// one hand-off from a node thread to the broker on the loopback.
    pub turns: u64,
    /// SRT promotions that came due with their frame on the wire, which
    /// the broker re-armed along their chain (or dropped past its end)
    /// instead of sending the node a `Timer` (see the module doc).
    pub promotes_rearmed: u64,
}

/// Per-node health, mirroring CAN fault confinement (§3.5).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Health {
    /// Normal operation.
    Active,
    /// Reachable but flaky: shed SRT/NRT, force HRT redundancy.
    Passive {
        /// Consecutive clean exchanges since entering passive.
        clean: u32,
        /// Send failures accumulated while passive.
        strikes: u32,
    },
    /// Quarantined; a restart may be scheduled.
    Down,
    /// Restart budget exhausted — never contacted again.
    Off,
}

impl Health {
    fn is_reachable(self) -> bool {
        matches!(self, Health::Active | Health::Passive { .. })
    }
}

/// What a supervision event was.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SupKind {
    /// The node was declared down (crash, stall, or quarantine).
    Down,
    /// The node entered the error-passive state.
    Passive,
    /// The node recovered from error-passive to active.
    Active,
    /// A restarted incarnation completed its rejoin handshake.
    Up,
    /// The node exhausted its restart budget.
    Off,
}

/// One entry of the supervision log.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SupEvent {
    /// Bus time of the transition.
    pub at_ns: u64,
    /// The node.
    pub node: u8,
    /// The node's incarnation at the time (for `Up`: the new one).
    pub incarnation: u32,
    /// The transition.
    pub kind: SupKind,
    /// Short machine-stable reason (`"disconnect"`, `"timeout"`,
    /// `"babble"`, `"send"`, `"rejoin-failed"`, or `""`).
    pub reason: &'static str,
}

/// Restart delegate the broker calls when a supervised node goes down.
///
/// Implemented by the cluster runner (which owns the node threads and
/// behavior factories); the broker only decides *when* — all policy
/// about budgets and backoff lives behind [`NodeSupervisor::on_down`].
pub trait NodeSupervisor {
    /// `node` (running `incarnation`) was declared down at bus time
    /// `at_ns`. Return the bus-time backoff (ns) to wait before
    /// restarting it, or `None` to declare it off for good.
    fn on_down(
        &mut self,
        node: u8,
        incarnation: u32,
        at_ns: u64,
        reason: &'static str,
    ) -> Option<u64>;

    /// Start incarnation `incarnation` of `node`. `link` carries the
    /// fresh broker-side endpoint's node half when the transport mints
    /// one ([`Relink::Link`]); with `None` the node dials back in
    /// itself. Must reap the dead incarnation's thread (its exit error
    /// is expected, not propagated).
    fn respawn(
        &mut self,
        node: u8,
        incarnation: u32,
        at_ns: u64,
        link: Option<Box<dyn NodeTransport>>,
    ) -> Result<(), LiveError>;
}

/// A recoverable per-node fault the lock-step protocol detected.
#[derive(Clone, Debug)]
enum NodeFault {
    /// The node's endpoint is gone (or the datagram stream is garbage).
    Disconnected,
    /// No reply within the receive timeout — wedged thread.
    Stalled,
    /// Turn budget breach: the node never returned to `Idle`.
    Babble(usize),
    /// A send failed without evidence the peer is gone (I/O error,
    /// retries exhausted) — the error-passive trigger.
    SendFailed,
}

impl NodeFault {
    fn reason(&self) -> &'static str {
        match self {
            NodeFault::Disconnected => "disconnect",
            NodeFault::Stalled => "timeout",
            NodeFault::Babble(_) => "babble",
            NodeFault::SendFailed => "send",
        }
    }

    /// Stable numeric code for the trace record.
    fn code(&self) -> u64 {
        match self {
            NodeFault::Disconnected => 0,
            NodeFault::Stalled => 1,
            NodeFault::Babble(_) => 2,
            NodeFault::SendFailed => 3,
        }
    }

    fn from_recv(e: TransportError) -> Self {
        match e {
            TransportError::Timeout => NodeFault::Stalled,
            _ => NodeFault::Disconnected,
        }
    }

    fn from_send(e: TransportError) -> Self {
        match e {
            TransportError::Io(_) => NodeFault::SendFailed,
            _ => NodeFault::Disconnected,
        }
    }
}

/// A submit the bus has not yet answered: the node's own handle, the
/// bus's, and the tag both echo.
#[derive(Clone, Copy)]
struct Outstanding {
    handle: u32,
    on_bus: TxHandle,
    tag: u64,
}

/// Where one instant's events stand relative to each other: the tie
/// order of the lock-step protocol (see the module doc).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Rank {
    /// The wire: a completion, an error frame, a bus-off recovery — in
    /// the order the bus scheduled them.
    Wire,
    /// Node timers, in arming order.
    Timer,
    /// Supervised restarts, in node order.
    Restart,
    /// The heartbeat probe round (computed, never queued).
    Heartbeat,
    /// Arbitration: after everything that could still submit.
    Arbitrate,
}

/// Something queued on the agenda.
enum Due {
    Bus(CanEvent),
    Timer {
        node: u8,
        token: u64,
        /// Set for an SRT promotion ([`ToBroker::PromoteReq`]).
        promote: Option<Promote>,
    },
    Restart {
        node: u8,
        incarnation: u32,
    },
}

/// What the broker needs to re-arm a promotion itself: the node's
/// submit it promotes and the chain the node's machine re-arms along.
#[derive(Clone, Copy)]
struct Promote {
    handle: u32,
    chain: PromoteChain,
}

/// Bus time and everything due on it, keyed `((at_ns, rank), seq)`. It
/// is also the scheduler the hosted bus arms its own events on.
struct Agenda {
    clock: BitClock,
    due: BTreeMap<((u64, Rank), u64), Due>,
    seq: u64,
}

impl Agenda {
    fn now_ns(&self) -> u64 {
        self.clock.now().as_ns()
    }

    fn insert(&mut self, at_ns: u64, due: Due) {
        let (rank, seq) = match due {
            Due::Bus(CanEvent::Arbitrate) => (Rank::Arbitrate, self.seq),
            Due::Bus(_) => (Rank::Wire, self.seq),
            Due::Timer { .. } => (Rank::Timer, self.seq),
            Due::Restart { node, .. } => (Rank::Restart, u64::from(node)),
        };
        self.seq += 1;
        self.due.insert(((at_ns, rank), seq), due);
    }

    /// Drop `node`'s armed timers carrying `token` (`None`: all of them).
    fn cancel_timers(&mut self, node: u8, token: Option<u64>) {
        self.due.retain(|_, due| {
            !matches!(due, Due::Timer { node: n, token: t, .. }
                if *n == node && token.is_none_or(|token| token == *t))
        });
    }
}

impl CanScheduler for Agenda {
    fn now(&self) -> Time {
        self.clock.now()
    }

    fn schedule_after(&mut self, d: Duration, ev: CanEvent) {
        self.insert((self.clock.now() + d).as_ns(), Due::Bus(ev));
    }
}

/// The central bus thread.
pub struct Broker<T: BrokerTransport> {
    transport: T,
    agenda: Agenda,
    bus: CanBus,
    sink: TraceSink,
    src_bus: SourceId,
    strict: bool,
    heartbeat: Option<u64>,
    recv_timeout: std::time::Duration,
    /// Per node, its submits the bus still holds or has on the wire.
    tx: Vec<Vec<Outstanding>>,
    health: Vec<Health>,
    incarnation: Vec<u32>,
    /// Bus time of the last completed lock-step exchange per node.
    last_contact: Vec<u64>,
    sup_log: Vec<SupEvent>,
    stats: BrokerStats,
    /// Scratch of [`Broker::on_bus_event`]: who was posted to, who failed.
    turn: Vec<u8>,
    faults: Vec<(u8, NodeFault)>,
}

/// Shorthand for the optional supervisor threaded through the run.
type Sup<'a> = Option<&'a mut dyn NodeSupervisor>;

impl<T: BrokerTransport> Broker<T> {
    /// Build a broker over `transport`, tracing into `sink` under the
    /// source name `"bus"` (same as the simulator).
    ///
    /// # Panics
    /// If the transport serves more than the 128 nodes a CAN bus can
    /// name; [`crate::Cluster`] refuses such a cluster with an error.
    pub fn new(config: BrokerConfig, transport: T, sink: TraceSink) -> Self {
        let nodes = transport.node_count();
        let bus_config = BusConfig {
            timing: config.timing,
            ..BusConfig::default()
        };
        Broker {
            transport,
            agenda: Agenda {
                clock: BitClock::new(config.timing, config.pace),
                due: BTreeMap::new(),
                seq: 0,
            },
            bus: CanBus::with_trace(bus_config, nodes, config.fault.injector(), sink.clone()),
            src_bus: sink.intern("bus"),
            sink,
            strict: config.strict,
            heartbeat: config.heartbeat.map(|d| d.as_ns()),
            recv_timeout: config.recv_timeout,
            tx: vec![Vec::new(); nodes],
            health: vec![Health::Active; nodes],
            incarnation: vec![0; nodes],
            last_contact: vec![0; nodes],
            sup_log: Vec::new(),
            stats: BrokerStats::default(),
            turn: Vec::new(),
            faults: Vec::new(),
        }
    }

    /// Run the bus until bus time `until`, then shut every node down.
    /// Unsupervised: a faulted node is quarantined for good (or, under
    /// [`BrokerConfig::strict`], aborts the run).
    pub fn run(mut self, until: Time) -> Result<BrokerStats, LiveError> {
        self.run_supervised(until, None)
    }

    /// Like [`Broker::run`], with a supervisor to restart downed nodes.
    pub fn run_supervised(
        &mut self,
        until: Time,
        mut sup: Sup<'_>,
    ) -> Result<BrokerStats, LiveError> {
        let nodes = self.transport.node_count();
        self.transport
            .rendezvous(self.recv_timeout)
            .map_err(LiveError::Transport)?;
        let now_ns = self.agenda.now_ns();
        for node in 0..nodes {
            // The initial handshake is not supervised: a cluster that
            // cannot even form reports the failure immediately.
            self.send_and_drain(
                node as u8,
                ToNode::Welcome {
                    now_ns,
                    incarnation: 0,
                },
            )
            .map_err(|f| self.fault_to_error(node as u8, &f))?;
        }
        loop {
            // Pop and fire the agenda's head — or the heartbeat round,
            // which is computed rather than queued, when it ranks first.
            let head = self.agenda.due.keys().next().map(|key| key.0);
            let beat = (0..nodes).filter_map(|n| self.heartbeat_due(n)).min();
            let beat = beat.map(|at| (at, Rank::Heartbeat));
            let next = head.into_iter().chain(beat).min();
            let Some((at_ns, rank)) = next.filter(|&(at, _)| at <= until.as_ns()) else {
                break;
            };
            self.agenda.clock.advance_to(Time::from_ns(at_ns));
            if rank == Rank::Heartbeat {
                self.probe_silent_nodes(&mut sup)?;
                continue;
            }
            match self.agenda.due.pop_first().expect("head exists").1 {
                Due::Bus(ev) => self.on_bus_event(ev, &mut sup)?,
                Due::Timer {
                    node,
                    token,
                    promote,
                } => {
                    if let Some(p) = promote.filter(|p| self.on_wire(node, p.handle)) {
                        self.rearm(node, token, p);
                        continue;
                    }
                    let now_ns = self.agenda.now_ns();
                    if let Err(fault) = self.send_and_drain(node, ToNode::Timer { token, now_ns }) {
                        self.handle_fault(node, fault, &mut sup)?;
                    }
                }
                Due::Restart { node, incarnation } => {
                    self.do_restart(node, incarnation, &mut sup)?
                }
            }
        }
        self.agenda.clock.advance_to(until);
        let now_ns = self.agenda.now_ns();
        for node in 0..nodes {
            if !self.health[node].is_reachable() {
                continue; // dead threads are reaped by the supervisor
            }
            if let Err(fault) = self.shutdown_node(node as u8) {
                if self.strict {
                    return Err(self.fault_to_error(node as u8, &fault));
                }
                // The run is over; just sever the link so the cluster
                // teardown cannot block on the wedged peer.
                self.trace_node_event("node_down", node as u8, fault.code());
                self.stats.node_downs += 1;
                self.log_sup(now_ns, node as u8, SupKind::Down, fault.reason());
                self.transport.unlink(node as u8);
                self.health[node] = Health::Off;
            }
        }
        let bus = &self.bus.stats;
        Ok(BrokerStats {
            arbitrations: bus.arbitrations,
            frames_ok: bus.frames_ok - bus.frames_with_omission,
            frames_with_omission: bus.frames_with_omission,
            frames_corrupted: bus.frames_corrupted,
            ..self.stats.clone()
        })
    }

    /// Supervision transitions recorded during the last run.
    pub fn take_sup_log(&mut self) -> Vec<SupEvent> {
        std::mem::take(&mut self.sup_log)
    }

    /// Send `Shutdown` and pump replies until `Done`, bounded by the
    /// turn budget.
    fn shutdown_node(&mut self, node: u8) -> Result<(), NodeFault> {
        self.transport
            .send(node, ToNode::Shutdown)
            .map_err(NodeFault::from_send)?;
        // Late requests arriving during shutdown are dropped — bounded
        // by the same turn budget as a live turn, so a node that never
        // acknowledges the shutdown surfaces as a stall instead of
        // wedging the broker.
        let mut replies = 0usize;
        loop {
            let reply = self
                .transport
                .recv_from(node, self.recv_timeout)
                .map_err(NodeFault::from_recv)?;
            if matches!(reply, ToBroker::Done { .. }) {
                self.stats.turns += 1;
                return Ok(());
            }
            replies += 1;
            if replies >= MAX_TURN_REPLIES {
                return Err(NodeFault::Babble(replies));
            }
        }
    }

    /// The bus time (ns) `node`'s silence reaches the heartbeat
    /// interval, if probing is on and the node is there to be probed.
    fn heartbeat_due(&self, node: usize) -> Option<u64> {
        let every = self.heartbeat?;
        let reachable = self.health[node].is_reachable();
        reachable.then(|| self.last_contact[node].saturating_add(every))
    }

    /// Heartbeat round: probe every node whose silence reached the
    /// interval, in node order.
    fn probe_silent_nodes(&mut self, sup: &mut Sup<'_>) -> Result<(), LiveError> {
        let now_ns = self.agenda.now_ns();
        for node in 0..self.health.len() {
            if self.heartbeat_due(node).is_some_and(|at| at <= now_ns) {
                self.stats.pings += 1;
                let ping = ToNode::Ping { nonce: now_ns };
                if let Err(fault) = self.send_and_drain(node as u8, ping) {
                    self.handle_fault(node as u8, fault, sup)?;
                }
            }
        }
        Ok(())
    }

    /// Let the bus handle one of its events and carry what it reports
    /// to the nodes, as one batched turn (module doc): every message
    /// goes out before anyone is drained, replies are drained in the
    /// order sent — the bus reports receivers ascending and the sender
    /// last, so the sender's reaction (e.g. an HRT retransmission)
    /// arbitrates after the deliveries — and send faults reach
    /// supervision only after the whole batch is drained.
    fn on_bus_event(&mut self, ev: CanEvent, sup: &mut Sup<'_>) -> Result<(), LiveError> {
        let completed_ns = self.agenda.now_ns();
        let mut reached_all = true;
        let mut turn = std::mem::take(&mut self.turn);
        let mut faults = std::mem::take(&mut self.faults);
        let mut post = |transport: &mut T, node: NodeId, msg: ToNode| {
            let sent = transport.send(node.0, msg).map_err(NodeFault::from_send);
            let ok = sent.is_ok();
            match sent {
                Ok(()) => turn.push(node.0),
                Err(fault) => faults.push((node.0, fault)),
            }
            ok
        };
        let mut notes = self.bus.handle(&mut self.agenda, ev);
        for note in notes.drain(..) {
            match note {
                Notification::Rx { node, frame, .. } => {
                    let msg = ToNode::Deliver {
                        completed_ns,
                        frame,
                    };
                    reached_all &= post(&mut self.transport, node, msg);
                }
                Notification::TxCompleted {
                    node,
                    handle,
                    all_received,
                    ..
                } => {
                    let table = &mut self.tx[node.index()];
                    let Some(idx) = table.iter().position(|o| o.on_bus == handle) else {
                        continue; // the sender died with its frame on the wire
                    };
                    let done = table.remove(idx);
                    // The bus's verdict covers its operational
                    // controllers. A receiver that is down, off or
                    // just failed its delivery counts as one more
                    // omission victim, and an error-passive sender
                    // never gets a clean ack: either clears what the
                    // sender is told — so HRT time redundancy spends
                    // its retransmissions as for a lossy wire (§3.5) —
                    // without touching the `all` the bus traced.
                    let sender = node.index();
                    let all_received = all_received
                        && reached_all
                        && self.health[sender] == Health::Active
                        && (0..self.health.len())
                            .all(|n| n == sender || self.health[n].is_reachable());
                    let msg = ToNode::TxDone {
                        handle: done.handle,
                        tag: done.tag,
                        all_received,
                        completed_ns,
                    };
                    post(&mut self.transport, node, msg);
                }
                Notification::TxFailed { node, .. } => {
                    // Bus-off emptied the controller's queue (a live
                    // request is never single-shot): every request the
                    // node still had on the bus is lost, and each is
                    // told so rather than left waiting.
                    for lost in std::mem::take(&mut self.tx[node.index()]) {
                        let msg = ToNode::TxDone {
                            handle: lost.handle,
                            tag: lost.tag,
                            all_received: false,
                            completed_ns,
                        };
                        post(&mut self.transport, node, msg);
                    }
                }
                Notification::TxError { node, handle, .. } => {
                    // The controller retransmits by itself (invisible
                    // to the node) — unless the sender died while its
                    // frame was on the wire and took the queue along.
                    if !self.tx[node.index()].iter().any(|o| o.on_bus == handle) {
                        self.stats.frames_abandoned += 1;
                    }
                }
                // TEC/REC transitions stay inside the bus model; TxNode
                // uniqueness is the node id's.
                Notification::ErrorStateChanged { .. } | Notification::DuplicateId { .. } => {}
            }
        }
        self.bus.recycle(notes);
        for node in turn.drain(..) {
            if let Err(fault) = self.drain(node) {
                faults.push((node, fault));
            }
        }
        let handled = faults
            .drain(..)
            .try_for_each(|(node, fault)| self.handle_fault(node, fault, sup));
        (self.turn, self.faults) = (turn, faults);
        handled
    }

    /// Send one message to `node` and pump its replies until it
    /// quiesces. Every message we send is answered by (requests...,
    /// `Idle`); requests that need a response (`Abort`) add one more
    /// expected `Idle`.
    fn send_and_drain(&mut self, node: u8, msg: ToNode) -> Result<(), NodeFault> {
        self.transport
            .send(node, msg)
            .map_err(NodeFault::from_send)?;
        self.drain(node)
    }

    /// Pump `node`'s replies for one previously sent message until it
    /// quiesces (see [`Broker::send_and_drain`]). Split out so a
    /// completion turn can broadcast all its messages before draining
    /// anyone. A completed drain counts as contact for heartbeat
    /// accounting and earns a passive node credit toward reactivation.
    fn drain(&mut self, node: u8) -> Result<(), NodeFault> {
        let mut outstanding = 1usize;
        let mut replies = 0usize;
        while outstanding > 0 {
            if replies >= MAX_TURN_REPLIES {
                return Err(NodeFault::Babble(replies));
            }
            replies += 1;
            let reply = self
                .transport
                .recv_from(node, self.recv_timeout)
                .map_err(NodeFault::from_recv)?;
            match reply {
                ToBroker::Idle | ToBroker::Done { .. } => {
                    outstanding -= 1;
                    self.stats.turns += 1;
                }
                ToBroker::Submit { handle, tag, frame } => {
                    if matches!(self.health[node as usize], Health::Passive { .. })
                        && frame.id.priority() != PRIO_HRT
                    {
                        // Error-passive shedding: refuse new SRT/NRT
                        // work at admission with an immediate negative
                        // completion (the node sees a failed send, not
                        // silence), keeping the wire for HRT traffic.
                        self.stats.frames_shed += 1;
                        self.sink.emit_fields(
                            self.agenda.clock.now(),
                            self.src_bus,
                            "shed",
                            &[("node", u64::from(node)), ("id", u64::from(frame.id.raw()))],
                        );
                        self.transport
                            .send(
                                node,
                                ToNode::TxDone {
                                    handle,
                                    tag,
                                    all_received: false,
                                    completed_ns: self.agenda.now_ns(),
                                },
                            )
                            .map_err(NodeFault::from_send)?;
                        outstanding += 1;
                    } else {
                        let request = TxRequest {
                            frame,
                            single_shot: false,
                            tag,
                        };
                        let on_bus = self.bus.submit(&mut self.agenda, NodeId(node), request);
                        self.tx[node as usize].push(Outstanding {
                            handle,
                            on_bus,
                            tag,
                        });
                    }
                }
                ToBroker::TimerReq { at_ns, token } => {
                    let due = Due::Timer {
                        node,
                        token,
                        promote: None,
                    };
                    self.agenda.insert(at_ns, due);
                }
                ToBroker::PromoteReq {
                    at_ns,
                    token,
                    handle,
                    every_ns,
                    last_ns,
                } => {
                    let chain = PromoteChain {
                        every: Duration::from_ns(every_ns),
                        last: Time::from_ns(last_ns),
                    };
                    let promote = Some(Promote { handle, chain });
                    let due = Due::Timer {
                        node,
                        token,
                        promote,
                    };
                    self.agenda.insert(at_ns, due);
                }
                ToBroker::TimerCancel { token } => self.agenda.cancel_timers(node, Some(token)),
                ToBroker::Listen { etag } => {
                    let filter = AcceptanceFilter::for_etag(etag);
                    let controller = self.bus.controller_mut(NodeId(node));
                    controller.remove_filters(|f| *f == filter);
                    controller.add_filter(filter);
                }
                ToBroker::Abort { handle } => {
                    let (aborted, tag) = self.try_abort(node, handle);
                    self.transport
                        .send(
                            node,
                            ToNode::AbortResult {
                                handle,
                                tag,
                                aborted,
                            },
                        )
                        .map_err(NodeFault::from_send)?;
                    outstanding += 1;
                }
                ToBroker::UpdateId { handle, raw_id } => {
                    // The bus refuses once the frame is on the wire;
                    // silently keep the old identifier then (the node's
                    // promote timer raced the arbitration and lost).
                    let known = self.tx[node as usize].iter().find(|o| o.handle == handle);
                    if let (Ok(id), Some(o)) = (CanId::try_from_raw(raw_id), known) {
                        self.bus.update_id(NodeId(node), o.on_bus, id);
                    }
                }
                ToBroker::Pong { .. } => {} // liveness evidence; noted below
                ToBroker::Hello { incarnation, .. } => {
                    // A `Hello` after the handshake is either a stale
                    // replay from a dead incarnation (an anomaly the
                    // auditor counts) or the current incarnation's own
                    // announcement arriving in the same window as its
                    // rejoin — benign, and deliberately classified with
                    // a strict `<` so the boundary case is not
                    // miscounted as a replay.
                    let current = self.incarnation[node as usize];
                    if incarnation < current {
                        self.stats.hello_replays += 1;
                        self.trace_node_event("hello_replay", node, u64::from(incarnation));
                    } else {
                        self.trace_node_event("hello_rejoin", node, u64::from(incarnation));
                    }
                }
            }
        }
        self.last_contact[node as usize] = self.agenda.now_ns();
        if let Health::Passive { clean, strikes } = self.health[node as usize] {
            if clean + 1 >= PASSIVE_CLEAN_EXCHANGES {
                self.health[node as usize] = Health::Active;
                self.trace_node_event("node_active", node, 0);
                let now_ns = self.agenda.now_ns();
                self.log_sup(now_ns, node, SupKind::Active, "");
            } else {
                self.health[node as usize] = Health::Passive {
                    clean: clean + 1,
                    strikes,
                };
            }
        }
        Ok(())
    }

    /// Route a node fault: terminal under strict, otherwise into the
    /// CAN-style confinement ladder (send faults demote to passive
    /// first; everything else — and a passive node out of strikes —
    /// goes down).
    fn handle_fault(
        &mut self,
        node: u8,
        fault: NodeFault,
        sup: &mut Sup<'_>,
    ) -> Result<(), LiveError> {
        if self.strict {
            return Err(self.fault_to_error(node, &fault));
        }
        if let NodeFault::SendFailed = fault {
            match self.health[node as usize] {
                Health::Active => {
                    self.health[node as usize] = Health::Passive {
                        clean: 0,
                        strikes: 0,
                    };
                    self.trace_node_event("node_passive", node, fault.code());
                    let now_ns = self.agenda.now_ns();
                    self.log_sup(now_ns, node, SupKind::Passive, fault.reason());
                    return Ok(());
                }
                Health::Passive { strikes, .. } if strikes + 1 < PASSIVE_STRIKES => {
                    self.health[node as usize] = Health::Passive {
                        clean: 0,
                        strikes: strikes + 1,
                    };
                    return Ok(());
                }
                Health::Down | Health::Off => return Ok(()),
                Health::Passive { .. } => {} // out of strikes: fall through
            }
        }
        if !self.health[node as usize].is_reachable() {
            return Ok(()); // already quarantined this instant
        }
        self.mark_down(node, &fault, sup)
    }

    /// Quarantine `node`: sever its link, abandon what it had queued
    /// short of the wire, take its controller off the bus, and ask the
    /// supervisor (if any) when to restart it.
    fn mark_down(
        &mut self,
        node: u8,
        fault: &NodeFault,
        sup: &mut Sup<'_>,
    ) -> Result<(), LiveError> {
        let now_ns = self.agenda.now_ns();
        let inc = self.incarnation[node as usize];
        self.trace_node_event("node_down", node, fault.code());
        self.stats.node_downs += 1;
        self.log_sup(now_ns, node, SupKind::Down, fault.reason());
        self.transport.unlink(node);
        self.health[node as usize] = Health::Down;
        for o in std::mem::take(&mut self.tx[node as usize]) {
            // Refused for the frame on the wire: non-preemptible.
            if self.bus.abort(NodeId(node), o.on_bus) {
                self.stats.frames_abandoned += 1;
            }
        }
        // Timers and filters die with the incarnation that armed them.
        let controller = self.bus.controller_mut(NodeId(node));
        controller.set_operational(false);
        controller.set_filters(Vec::new());
        self.agenda.cancel_timers(node, None);
        let backoff = match sup {
            Some(s) => s.on_down(node, inc, now_ns, fault.reason()),
            None => None,
        };
        match backoff {
            Some(backoff_ns) => {
                let incarnation = inc + 1;
                let due = Due::Restart { node, incarnation };
                self.agenda.insert(now_ns.saturating_add(backoff_ns), due);
            }
            None => {
                self.health[node as usize] = Health::Off;
                self.trace_node_event("node_off", node, u64::from(inc));
                self.log_sup(now_ns, node, SupKind::Off, fault.reason());
            }
        }
        Ok(())
    }

    /// Carry out a scheduled restart: relink the transport, respawn the
    /// node thread via the supervisor, and re-run the Welcome handshake
    /// under the bumped incarnation.
    fn do_restart(&mut self, node: u8, new_inc: u32, sup: &mut Sup<'_>) -> Result<(), LiveError> {
        let now_ns = self.agenda.now_ns();
        let link = match self.transport.relink(node) {
            Ok(Relink::Link(l)) => Some(l),
            Ok(Relink::Reconnect) => None,
            Err(_) => {
                self.health[node as usize] = Health::Off;
                self.trace_node_event("node_off", node, u64::from(new_inc));
                self.log_sup(now_ns, node, SupKind::Off, "rejoin-failed");
                return Ok(());
            }
        };
        let reconnect = link.is_none();
        let Some(s) = sup else {
            return Err(LiveError::RestartUnsupported { node });
        };
        s.respawn(node, new_inc, now_ns, link)?;
        // The new incarnation is live from here on: any failure below
        // flows through the normal confinement ladder (another down,
        // possibly off once the budget runs out).
        self.incarnation[node as usize] = new_inc;
        self.health[node as usize] = Health::Active;
        self.bus.controller_mut(NodeId(node)).set_operational(true);
        if reconnect {
            if let Err(e) = self.transport.rendezvous_node(node, self.recv_timeout) {
                return self.handle_fault(node, NodeFault::from_recv(e), sup);
            }
        }
        match self.send_and_drain(
            node,
            ToNode::Welcome {
                now_ns,
                incarnation: new_inc,
            },
        ) {
            Ok(()) => {
                self.stats.node_restarts += 1;
                self.trace_node_event("node_up", node, u64::from(new_inc));
                self.log_sup(now_ns, node, SupKind::Up, "");
                Ok(())
            }
            Err(fault) => self.handle_fault(node, fault, sup),
        }
    }

    /// The terminal error a fault maps to under strict mode (the
    /// pre-supervision behavior).
    fn fault_to_error(&self, node: u8, fault: &NodeFault) -> LiveError {
        match *fault {
            NodeFault::Babble(replies) => LiveError::ProtocolStall { node, replies },
            NodeFault::Stalled => LiveError::Transport(TransportError::Timeout),
            NodeFault::Disconnected => LiveError::Transport(TransportError::Disconnected),
            NodeFault::SendFailed => LiveError::Transport(TransportError::Io("send failed".into())),
        }
    }

    /// Emit a supervision trace record (`node_down`, `node_up`, ...).
    /// The `code` field carries the fault code or incarnation.
    fn trace_node_event(&self, kind: &'static str, node: u8, code: u64) {
        self.sink.emit_fields(
            self.agenda.clock.now(),
            self.src_bus,
            kind,
            &[("node", u64::from(node)), ("code", code)],
        );
    }

    fn log_sup(&mut self, at_ns: u64, node: u8, kind: SupKind, reason: &'static str) {
        let incarnation = self.incarnation[node as usize];
        self.sup_log.push(SupEvent {
            at_ns,
            node,
            incarnation,
            kind,
            reason,
        });
    }

    /// Whether `node`'s submit `handle` is on the wire.
    fn on_wire(&self, node: u8, handle: u32) -> bool {
        let table = &self.tx[node as usize];
        let known = table.iter().find(|o| o.handle == handle);
        known.is_some_and(|o| self.bus.is_handle_inflight(NodeId(node), o.on_bus))
    }

    /// A promotion came due with its frame on the wire: the node's
    /// machine would send an `UpdateId` the bus refuses and arm the
    /// chain's next instant, so arm that instant here instead. The
    /// insert takes the sequence number the node's `TimerReq` would
    /// have taken, so same-instant ties keep their order.
    fn rearm(&mut self, node: u8, token: u64, promote: Promote) {
        self.stats.promotes_rearmed += 1;
        if let Some(next) = promote.chain.after(self.agenda.clock.now()) {
            let due = Due::Timer {
                node,
                token,
                promote: Some(promote),
            };
            self.agenda.insert(next.as_ns(), due);
        }
    }

    /// Abort `handle` if it has not reached the wire yet. Returns
    /// `(aborted, tag)`; an unknown handle cannot be aborted, and the
    /// bus refuses the in-flight one (non-preemptive transmission).
    fn try_abort(&mut self, node: u8, handle: u32) -> (bool, u64) {
        let table = &mut self.tx[node as usize];
        let Some(idx) = table.iter().position(|o| o.handle == handle) else {
            return (false, 0);
        };
        let Outstanding { on_bus, tag, .. } = table[idx];
        let aborted = self.bus.abort(NodeId(node), on_bus);
        if aborted {
            table.remove(idx);
        }
        (aborted, tag)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::TransportError;
    use rtec_can::Frame;

    fn broker_with<T: BrokerTransport>(strict: bool, transport: T) -> Broker<T> {
        Broker::new(
            BrokerConfig {
                strict,
                ..BrokerConfig::default()
            },
            transport,
            TraceSink::disabled(),
        )
    }

    /// Strict mode: the pre-supervision behavior the original tests
    /// were written against.
    fn test_broker<T: BrokerTransport>(transport: T) -> Broker<T> {
        broker_with(true, transport)
    }

    /// One node whose replies come from a closure over the last
    /// message the broker sent it.
    struct Scripted<F: FnMut(&Option<ToNode>) -> ToBroker + Send> {
        last: Option<ToNode>,
        reply: F,
    }

    impl<F: FnMut(&Option<ToNode>) -> ToBroker + Send> BrokerTransport for Scripted<F> {
        fn node_count(&self) -> usize {
            1
        }

        fn send(&mut self, _node: u8, msg: ToNode) -> Result<(), TransportError> {
            self.last = Some(msg);
            Ok(())
        }

        fn recv_from(
            &mut self,
            _node: u8,
            _timeout: std::time::Duration,
        ) -> Result<ToBroker, TransportError> {
            Ok((self.reply)(&self.last))
        }
    }

    #[test]
    fn babbling_node_trips_the_turn_budget() {
        // A node that keeps submitting and never quiesces with `Idle`
        // must surface as a typed stall, not an infinite drain loop.
        let mut handle = 0u32;
        let broker = test_broker(Scripted {
            last: None,
            reply: move |_| {
                handle += 1;
                ToBroker::Submit {
                    handle,
                    tag: 0,
                    frame: Frame::new(CanId::new(1, 2, 3), &[]),
                }
            },
        });
        assert_eq!(
            broker.run(Time::from_ms(1)),
            Err(LiveError::ProtocolStall {
                node: 0,
                replies: MAX_TURN_REPLIES,
            })
        );
    }

    #[test]
    fn node_that_never_acks_shutdown_trips_the_budget() {
        // Well-behaved while the bus runs, but never answers the final
        // `Shutdown` with `Done` (e.g. its thread wedged mid-turn).
        let broker = test_broker(Scripted {
            last: None,
            reply: |last| match last {
                Some(ToNode::Shutdown) => ToBroker::Hello {
                    node: 0,
                    incarnation: 0,
                },
                _ => ToBroker::Idle,
            },
        });
        assert_eq!(
            broker.run(Time::ZERO),
            Err(LiveError::ProtocolStall {
                node: 0,
                replies: MAX_TURN_REPLIES,
            })
        );
    }

    #[test]
    fn quiet_node_shuts_down_cleanly_within_budget() {
        let broker = test_broker(Scripted {
            last: None,
            reply: |last| match last {
                Some(ToNode::Shutdown) => ToBroker::Done { node: 0 },
                _ => ToBroker::Idle,
            },
        });
        // Two turns: the `Welcome`'s `Idle` and the `Shutdown`'s `Done`.
        let turns = BrokerStats {
            turns: 2,
            ..BrokerStats::default()
        };
        assert_eq!(broker.run(Time::ZERO), Ok(turns));
    }

    /// Without strict mode a node that babbles mid-run is quarantined —
    /// its queued frames abandoned, the run itself still succeeds.
    #[test]
    fn lenient_broker_quarantines_a_babbler_and_keeps_running() {
        let mut state = 0u32;
        let broker = broker_with(
            false,
            Scripted {
                last: None,
                reply: move |_| {
                    state += 1;
                    match state {
                        // Welcome turn: arm a timer, then quiesce.
                        1 => ToBroker::TimerReq {
                            at_ns: 1_000,
                            token: 7,
                        },
                        2 => ToBroker::Idle,
                        // Timer turn: babble submissions forever.
                        _ => ToBroker::Submit {
                            handle: state,
                            tag: 0,
                            frame: Frame::new(CanId::new(1, 2, 3), &[]),
                        },
                    }
                },
            },
        );
        let stats = broker.run(Time::from_ms(1)).expect("lenient run survives");
        assert_eq!(stats.node_downs, 1);
        assert_eq!(stats.frames_abandoned, MAX_TURN_REPLIES as u64);
        assert_eq!(stats.node_restarts, 0); // no supervisor: down for good
    }

    /// Shutdown refusal under a lenient broker severs the link instead
    /// of failing the run.
    #[test]
    fn lenient_broker_survives_a_shutdown_refusal() {
        let broker = broker_with(
            false,
            Scripted {
                last: None,
                reply: |last| match last {
                    Some(ToNode::Shutdown) => ToBroker::Hello {
                        node: 0,
                        incarnation: 0,
                    },
                    _ => ToBroker::Idle,
                },
            },
        );
        let stats = broker.run(Time::ZERO).expect("lenient run survives");
        assert_eq!(stats.node_downs, 1);
    }

    /// A `Hello` carrying a stale incarnation is a replay (counted);
    /// one at the current incarnation is the boundary case — a rejoin
    /// echo, deliberately not an anomaly (strict `<`, not `<=`).
    #[test]
    fn stale_hello_is_a_replay_but_current_hello_is_not() {
        let mut step = 0u32;
        let mut broker = broker_with(
            false,
            Scripted {
                last: None,
                reply: move |_| {
                    step += 1;
                    match step {
                        1 => ToBroker::Hello {
                            node: 0,
                            incarnation: 1,
                        },
                        2 => ToBroker::Hello {
                            node: 0,
                            incarnation: 2,
                        },
                        _ => ToBroker::Idle,
                    }
                },
            },
        );
        broker.incarnation[0] = 2;
        broker.drain(0).expect("drain succeeds");
        assert_eq!(broker.stats.hello_replays, 1);
    }

    /// `nodes` scripted nodes: each answers from its own queue of
    /// replies (`Idle` once that is empty, `Done` to a `Shutdown`), and
    /// every message sent is kept — and noted in the trace ring, so the
    /// sends interleave with the bus's own records in one sequence.
    struct Recorder {
        replies: Vec<std::collections::VecDeque<ToBroker>>,
        sent: Vec<(u8, ToNode)>,
        sink: TraceSink,
    }

    impl Recorder {
        fn new(replies: Vec<Vec<ToBroker>>, sink: TraceSink) -> Self {
            Recorder {
                replies: replies.into_iter().map(Into::into).collect(),
                sent: Vec::new(),
                sink,
            }
        }
    }

    impl BrokerTransport for Recorder {
        fn node_count(&self) -> usize {
            self.replies.len()
        }

        fn send(&mut self, node: u8, msg: ToNode) -> Result<(), TransportError> {
            let (kind, arg) = match msg {
                ToNode::Welcome { incarnation, .. } => ("welcome", u64::from(incarnation)),
                ToNode::Deliver { .. } => ("deliver", 0),
                ToNode::TxDone { handle, .. } => ("tx_done", u64::from(handle)),
                ToNode::AbortResult { handle, .. } => ("abort_result", u64::from(handle)),
                ToNode::Ping { .. } => ("ping", 0),
                ToNode::Timer { token, .. } => ("timer", token),
                ToNode::Shutdown => ("shutdown", 0),
            };
            let src = self.sink.intern("sent");
            let fields = [("node", u64::from(node)), ("arg", arg)];
            self.sink.emit_fields(Time::ZERO, src, kind, &fields);
            self.sent.push((node, msg));
            Ok(())
        }

        fn recv_from(
            &mut self,
            node: u8,
            _timeout: std::time::Duration,
        ) -> Result<ToBroker, TransportError> {
            let last = self.sent.iter().rev().find(|(n, _)| *n == node);
            Ok(match self.replies[node as usize].pop_front() {
                Some(reply) => reply,
                None if matches!(last, Some((_, ToNode::Shutdown))) => ToBroker::Done { node },
                None => ToBroker::Idle,
            })
        }

        fn relink(&mut self, _node: u8) -> Result<Relink, TransportError> {
            Ok(Relink::Reconnect)
        }
    }

    /// Restarts any node on request; never asked for a backoff here.
    struct Respawner;

    impl NodeSupervisor for Respawner {
        fn on_down(&mut self, _: u8, _: u32, _: u64, _: &'static str) -> Option<u64> {
            None
        }

        fn respawn(
            &mut self,
            _: u8,
            _: u32,
            _: u64,
            _: Option<Box<dyn NodeTransport>>,
        ) -> Result<(), LiveError> {
            Ok(())
        }
    }

    fn submit(handle: u32, tag: u64, priority: u8) -> ToBroker {
        ToBroker::Submit {
            handle,
            tag,
            frame: Frame::new(CanId::new(priority, 0, 1), &[0x5A]),
        }
    }

    /// One instant holding one of everything fires in rank order: the
    /// wire completion, the timers in arming order, the restart, the
    /// heartbeat round, and only then arbitration.
    #[test]
    fn one_instant_fires_in_the_documented_rank_order() {
        let frame_time =
            BitTiming::MBIT_1.frame_duration(&Frame::new(CanId::new(5, 0, 1), &[0x5A]));
        let at_ns = frame_time.as_ns();
        let sink = TraceSink::enabled();
        let transport = Recorder::new(
            vec![
                // Node 0 puts a frame on the wire at 0 — it completes
                // at `at_ns` — and answers its TxDone with the next
                // submit, which asks for an arbitration at `at_ns`.
                vec![submit(1, 0xA, 5), ToBroker::Idle, submit(2, 0xB, 5)],
                // Node 1 arms two timers for `at_ns`, out of token order.
                vec![
                    ToBroker::TimerReq { at_ns, token: 11 },
                    ToBroker::TimerReq { at_ns, token: 10 },
                ],
                // Node 2 is down, its restart due at `at_ns` (below).
                vec![],
                // Node 3 stays silent: its heartbeat is due at `at_ns`.
                vec![],
            ],
            sink.clone(),
        );
        // Every receiver is an omission victim, so the completion turn
        // touches the sender alone and node 3's silence is unbroken.
        let fault = FaultPlan {
            model: Some(FaultModel::Iid {
                corruption_p: 0.0,
                omission_p: 1.0,
                omission_scope: rtec_can::OmissionScope::AllReceivers,
            }),
            seed: 1,
        };
        let config = BrokerConfig {
            fault,
            heartbeat: Some(frame_time),
            ..BrokerConfig::default()
        };
        let mut broker = Broker::new(config, transport, sink.clone());
        broker.health[2] = Health::Down;
        broker.bus.controller_mut(NodeId(2)).set_operational(false);
        let restart = Due::Restart {
            node: 2,
            incarnation: 1,
        };
        broker.agenda.insert(at_ns, restart);
        broker
            .run_supervised(Time::from_ns(at_ns), Some(&mut Respawner))
            .expect("run");

        let ring = sink.events();
        let from = ring
            .iter()
            .position(|e| e.kind == "tx_end")
            .expect("tx_end");
        let fired: Vec<(&str, u64)> = ring[from..]
            .iter()
            .filter(|e| e.kind != "shutdown")
            .map(|e| (e.kind, e.field("arg").or(e.field("node")).unwrap_or(0)))
            .collect();
        assert_eq!(
            fired,
            vec![
                ("tx_end", 0),
                ("tx_done", 1),
                ("timer", 11),
                ("timer", 10),
                ("welcome", 1),
                ("node_up", 2),
                ("ping", 0),
                ("arb", 0),
                ("tx_start_omit", 0),
            ]
        );
        let pinged: Vec<u8> = broker
            .transport
            .sent
            .iter()
            .filter(|(_, m)| matches!(m, ToNode::Ping { .. }))
            .map(|&(n, _)| n)
            .collect();
        assert_eq!(
            pinged,
            vec![3],
            "everyone else was heard from at this instant"
        );
    }

    fn submit_on(handle: u32, etag: u16) -> ToBroker {
        ToBroker::Submit {
            handle,
            tag: u64::from(handle),
            frame: Frame::new(CanId::new(5, 0, etag), &[0x5A]),
        }
    }

    /// A completion is addressed by acceptance filter: only the node
    /// that listens to the frame's etag is delivered to (once, however
    /// often it said so), a frame nobody listens to posts its `TxDone`
    /// alone, and neither costs the sender its clean ack.
    #[test]
    fn a_completion_is_delivered_to_listeners_only() {
        let (x, y) = (7, 8);
        let transport = Recorder::new(
            vec![
                vec![submit_on(1, x), submit_on(2, y)],
                vec![],
                vec![ToBroker::Listen { etag: x }, ToBroker::Listen { etag: x }],
            ],
            TraceSink::disabled(),
        );
        let mut broker = broker_with(true, transport);
        let stats = broker.run_supervised(Time::from_ms(1), None).expect("run");
        assert_eq!(stats.frames_ok, 2);

        // (node, the `Deliver`'s etag or the `TxDone`'s handle, ack).
        let posted: Vec<(u8, u16, bool)> = broker
            .transport
            .sent
            .iter()
            .filter_map(|(node, msg)| match msg {
                ToNode::Deliver { frame, .. } => Some((*node, frame.id.etag(), true)),
                ToNode::TxDone {
                    handle,
                    all_received,
                    ..
                } => Some((*node, *handle as u16, *all_received)),
                _ => None,
            })
            .collect();
        assert_eq!(posted, vec![(2, x, true), (0, 1, true), (0, 2, true)]);
    }

    /// `TimerCancel` withdraws exactly the sender's timers carrying the
    /// token — every one of them, nobody else's and none of its others —
    /// and naming an unknown or already-fired token changes nothing.
    #[test]
    fn timer_cancel_withdraws_exactly_the_named_timers() {
        let arm = |at_ns, token| ToBroker::TimerReq { at_ns, token };
        let transport = Recorder::new(
            vec![
                vec![
                    arm(1_000, 1),
                    arm(1_000, 2),
                    arm(2_000, 1),
                    arm(3_000, 3),
                    ToBroker::TimerCancel { token: 1 },
                    ToBroker::TimerCancel { token: 99 },
                    ToBroker::Idle,
                    // Timer 2 fires; timer 3's turn cancels it, late.
                    ToBroker::Idle,
                    ToBroker::TimerCancel { token: 2 },
                ],
                vec![arm(1_000, 1), arm(4_000, 2)],
            ],
            TraceSink::disabled(),
        );
        let mut broker = broker_with(true, transport);
        broker.run_supervised(Time::from_ms(1), None).expect("run");

        let fired: Vec<(u8, u64, u64)> = broker
            .transport
            .sent
            .iter()
            .filter_map(|(node, msg)| match msg {
                ToNode::Timer { token, now_ns } => Some((*node, *token, *now_ns)),
                _ => None,
            })
            .collect();
        assert_eq!(
            fired,
            vec![(0, 2, 1_000), (1, 1, 1_000), (0, 3, 3_000), (1, 2, 4_000)]
        );
    }

    /// Acceptance filters die with the incarnation that listed them:
    /// after a restart the bank holds what the new incarnation listens
    /// to and nothing of the old.
    #[test]
    fn a_restarted_node_is_delivered_only_what_it_listed_again() {
        let (x, y) = (CanId::new(5, 0, 7), CanId::new(5, 0, 8));
        let transport = Recorder::new(
            vec![
                vec![],
                vec![
                    ToBroker::Listen { etag: x.etag() },
                    ToBroker::Listen { etag: y.etag() },
                    ToBroker::Idle,
                    ToBroker::Listen { etag: y.etag() },
                ],
            ],
            TraceSink::disabled(),
        );
        let mut broker = broker_with(false, transport);
        let accepted = |broker: &Broker<Recorder>| {
            let bank = broker.bus.controller(NodeId(1));
            (bank.accepts(x), bank.accepts(y))
        };
        let welcome = |incarnation| ToNode::Welcome {
            now_ns: 0,
            incarnation,
        };
        broker.send_and_drain(1, welcome(0)).expect("welcome");
        assert_eq!(accepted(&broker), (true, true));

        let mut sup: Sup<'_> = Some(&mut Respawner);
        broker
            .mark_down(1, &NodeFault::Disconnected, &mut sup)
            .expect("down");
        assert_eq!(accepted(&broker), (false, false));
        broker.do_restart(1, 1, &mut sup).expect("restart");
        assert_eq!(accepted(&broker), (false, true));
        assert_eq!(broker.stats.node_restarts, 1);
    }

    /// A promotion due while its frame is on the wire costs the node no
    /// turn, also while the frame is being destroyed by an error frame:
    /// the broker re-arms it along its chain, and the node's next
    /// `Timer` arrives at the first chain instant at which the frame is
    /// back in arbitration (here behind node 1's more urgent frame).
    #[test]
    fn a_promotion_due_on_the_wire_is_rearmed_through_a_wire_error() {
        let every = 4_000;
        let frame = |prio, node| Frame::new(CanId::new(prio, node, 1), &[0x5A; 8]);
        let sink = TraceSink::enabled();
        let transport = Recorder::new(
            vec![
                vec![
                    ToBroker::Submit {
                        handle: 1,
                        tag: 0xA,
                        frame: frame(5, 0),
                    },
                    ToBroker::PromoteReq {
                        at_ns: every,
                        token: 7,
                        handle: 1,
                        every_ns: every,
                        last_ns: 1_000_000,
                    },
                ],
                vec![
                    ToBroker::TimerReq {
                        at_ns: 3_000,
                        token: 99,
                    },
                    ToBroker::Idle,
                    ToBroker::Submit {
                        handle: 1,
                        tag: 0xB,
                        frame: frame(1, 1),
                    },
                ],
            ],
            sink.clone(),
        );
        // Only the attempt that starts at 0 — node 0's first — dies.
        let fault = FaultPlan {
            model: Some(FaultModel::Window {
                from_ns: 0,
                to_ns: 1,
                corruption_p: 1.0,
            }),
            seed: 3,
        };
        let config = BrokerConfig {
            fault,
            strict: true,
            ..BrokerConfig::default()
        };
        let mut broker = Broker::new(config, transport, sink.clone());
        let stats = broker.run_supervised(Time::from_ms(1), None).expect("run");
        assert_eq!((stats.frames_corrupted, stats.frames_ok), (1, 2));

        let error_ns = sink
            .events()
            .iter()
            .find(|e| e.kind == "tx_error")
            .expect("the first attempt dies")
            .time
            .as_ns();
        let timers: Vec<(u8, u64, u64)> = broker
            .transport
            .sent
            .iter()
            .filter_map(|(node, msg)| match msg {
                ToNode::Timer { token, now_ns } => Some((*node, *token, *now_ns)),
                _ => None,
            })
            .collect();
        let back_in_arbitration = error_ns.div_ceil(every) * every;
        assert_eq!(
            timers,
            vec![(1, 99, 3_000), (0, 7, back_in_arbitration)],
            "error frame ended at {error_ns} ns"
        );
        assert!(stats.promotes_rearmed > 0);
        assert_eq!(stats.promotes_rearmed, back_in_arbitration / every - 1);
    }

    /// The abort and `UpdateId` races, answered by the hosted bus: the
    /// frame on the wire can be neither withdrawn nor re-prioritised
    /// (the refusal names its tag), a queued one can, and a handle the
    /// broker never saw is `(false, 0)`.
    #[test]
    fn abort_and_update_id_race_the_wire_through_the_bus() {
        let promoted = CanId::new(0, 0, 1).raw();
        let transport = Recorder::new(
            vec![vec![
                // Welcome turn: two submits (the first wins the wire
                // at 0) and a timer that fires mid-frame.
                submit(1, 0xA, 5),
                submit(2, 0xB, 9),
                ToBroker::TimerReq {
                    at_ns: 10_000,
                    token: 0,
                },
                ToBroker::Idle,
                // Timer turn, with frame 1 in flight.
                ToBroker::Abort { handle: 1 },
                ToBroker::UpdateId {
                    handle: 1,
                    raw_id: promoted,
                },
                ToBroker::Abort { handle: 99 },
                ToBroker::Abort { handle: 2 },
            ]],
            TraceSink::enabled(),
        );
        let mut broker = broker_with(true, transport);
        let stats = broker.run_supervised(Time::from_ms(1), None).expect("run");

        let answers: Vec<&ToNode> = broker
            .transport
            .sent
            .iter()
            .map(|(_, m)| m)
            .filter(|m| matches!(m, ToNode::AbortResult { .. } | ToNode::TxDone { .. }))
            .collect();
        let abort_result = |handle, tag, aborted| ToNode::AbortResult {
            handle,
            tag,
            aborted,
        };
        let frame_time =
            BitTiming::MBIT_1.frame_duration(&Frame::new(CanId::new(5, 0, 1), &[0x5A]));
        assert_eq!(
            answers,
            vec![
                &abort_result(1, 0xA, false),
                &abort_result(99, 0, false),
                &abort_result(2, 0xB, true),
                // Frame 1 completes under the identifier it started
                // with, on time; frame 2 never reaches the wire.
                &ToNode::TxDone {
                    handle: 1,
                    tag: 0xA,
                    all_received: true,
                    completed_ns: frame_time.as_ns(),
                },
            ]
        );
        assert_eq!((stats.arbitrations, stats.frames_ok), (1, 1));
    }
}

//! Cluster assembly: static binding, calendar admission, thread
//! spawning, and run orchestration.
//!
//! [`Cluster`] is the crate's front door. Declare nodes with their
//! publications/subscriptions and a [`Behavior`] each, then call
//! [`Cluster::run_for`] (in-process loopback transport) or
//! [`Cluster::run_for_udp`] (one datagram socket per endpoint). The
//! builder performs the steps the simulator's network setup does:
//!
//! * **static binding** — subjects are assigned etags in declaration
//!   order starting at the first dynamic tag (the live runtime has no
//!   bind protocol; see `DESIGN.md` for the divergence list),
//! * **admission** — HRT publications are planned into a slot calendar
//!   via [`rtec_analysis::admission`]; an infeasible request set fails
//!   the build, never the run,
//! * **spawning** — one thread per node plus the broker on the calling
//!   thread, all sharing one [`TraceSink`] (clones may cross threads)
//!   so the conformance auditor can replay the merged trace.

use crate::broker::{
    Broker, BrokerConfig, BrokerStats, FaultPlan, NodeSupervisor, SupEvent, SupKind,
};
use crate::chaos::{ChaosCtl, ChaosPlan, ChaosReport};
use crate::clock::Pace;
use crate::node::{Behavior, DeliveryRecord, LiveNode, NodeConfig, NodeStats, SharedConfig};
use crate::sync::{thread::JoinHandle, Arc, Mutex};
use crate::transport::{loopback, NodeTransport};
use crate::udp::{UdpBroker, UdpNode};
use crate::LiveError;
use rtec_analysis::admission::{CalendarPlan, SlotRequest};
use rtec_analysis::edf::PrioritySlotConfig;
use rtec_can::bits::BitTiming;
use rtec_can::id::TXNODE_MAX;
use rtec_can::NodeId;
use rtec_core::binding::SubjectRegistry;
use rtec_core::channel::{ChannelClass, ChannelSpec};
use rtec_core::event::Subject;
use rtec_sim::{Duration, Rng, Time, TraceEvent, TraceSink};
use std::collections::HashMap;

/// Cluster-wide knobs. `Default` matches the paper's bus: 1 Mbit/s,
/// 10 ms rounds, 40 µs inter-slot gap, virtual pacing, no faults.
#[derive(Clone, Debug)]
pub struct ClusterConfig {
    /// Bit timing of the shared wire.
    pub timing: BitTiming,
    /// How bus time maps to wall time.
    pub pace: Pace,
    /// HRT calendar round length `R`.
    pub round: Duration,
    /// Inter-slot gap `ΔG_min` (paper: 40 µs).
    pub gap: Duration,
    /// Bus-time instant of round 0's start (gives nodes room to start
    /// up before the first slot).
    pub calendar_start: Time,
    /// Deadline → priority quantization for SRT channels.
    pub prio_cfg: PrioritySlotConfig,
    /// Fault injection plan for the bus.
    pub fault: FaultPlan,
    /// Per-node SRT queue bound.
    pub srt_queue_cap: usize,
    /// Per-node NRT queue bound (in frames).
    pub nrt_queue_cap: usize,
    /// Record structured trace events (needed for auditing).
    pub trace: bool,
    /// Pre-supervision behavior: any node fault aborts the run with a
    /// terminal error instead of quarantining/restarting the node.
    pub strict: bool,
    /// Heartbeat probe interval (bus time); `None` disables probing.
    pub heartbeat: Option<Duration>,
    /// How many supervised restarts a node gets before it is declared
    /// off (the bus-off analogue). Only nodes added via
    /// [`Cluster::add_node_with`] can be restarted at all.
    pub max_restarts: u32,
    /// Base restart backoff in bus time; doubles per consecutive
    /// restart of the same node, plus a seeded jitter of up to one
    /// base interval.
    pub restart_backoff: Duration,
    /// Seed for the restart jitter stream (part of what makes two
    /// same-seed chaos runs byte-identical).
    pub restart_seed: u64,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            timing: BitTiming::MBIT_1,
            pace: Pace::Virtual,
            round: Duration::from_ms(10),
            gap: Duration::from_us(40),
            calendar_start: Time::from_ms(1),
            prio_cfg: PrioritySlotConfig::paper_default(),
            fault: FaultPlan::default(),
            srt_queue_cap: 16,
            nrt_queue_cap: 64,
            trace: true,
            strict: false,
            heartbeat: Some(Duration::from_ms(50)),
            max_restarts: 4,
            restart_backoff: Duration::from_ms(2),
            restart_seed: 0x5EED,
        }
    }
}

/// Where a node's application logic comes from: a one-shot behavior
/// (not restartable — a crash quarantines the node for good) or a
/// factory the supervisor can mint a fresh behavior from per
/// incarnation.
enum BehaviorSource {
    Once(Option<Box<dyn Behavior>>),
    Factory(Box<dyn FnMut() -> Box<dyn Behavior> + Send>),
}

impl BehaviorSource {
    fn take(&mut self) -> Option<Box<dyn Behavior>> {
        match self {
            BehaviorSource::Once(b) => b.take(),
            BehaviorSource::Factory(f) => Some(f()),
        }
    }

    fn can_respawn(&self) -> bool {
        matches!(self, BehaviorSource::Factory(_))
    }
}

struct NodeDef {
    publishes: Vec<(Subject, ChannelSpec)>,
    subscribes: Vec<(Subject, ChannelSpec)>,
    behavior: BehaviorSource,
}

/// Builder for a live cluster.
pub struct Cluster {
    cfg: ClusterConfig,
    nodes: Vec<NodeDef>,
    sink: Option<TraceSink>,
}

/// Supervision outcome of a run: every health transition the broker
/// recorded, with summary counters.
#[derive(Clone, Debug, Default)]
pub struct SupervisionReport {
    /// All transitions in bus-time order.
    pub events: Vec<SupEvent>,
    /// Nodes declared down (counting repeats).
    pub downs: u64,
    /// Supervised restarts that completed their rejoin handshake.
    pub restarts: u64,
    /// Nodes that exhausted their restart budget (bus-off analogue).
    pub offs: u64,
}

impl SupervisionReport {
    fn from_events(events: Vec<SupEvent>) -> Self {
        let count = |k: SupKind| events.iter().filter(|e| e.kind == k).count() as u64;
        SupervisionReport {
            downs: count(SupKind::Down),
            restarts: count(SupKind::Up),
            offs: count(SupKind::Off),
            events,
        }
    }

    /// Down→Up recovery latencies in bus ns, one per completed restart
    /// (pairing each node's `Up` with its most recent `Down`).
    pub fn recovery_times_ns(&self) -> Vec<u64> {
        let mut pending: HashMap<u8, u64> = HashMap::new();
        let mut out = Vec::new();
        for e in &self.events {
            match e.kind {
                SupKind::Down => {
                    pending.entry(e.node).or_insert(e.at_ns);
                }
                SupKind::Up => {
                    if let Some(down_at) = pending.remove(&e.node) {
                        out.push(e.at_ns.saturating_sub(down_at));
                    }
                }
                _ => {}
            }
        }
        out
    }
}

/// Everything a finished run yields.
pub struct LiveReport {
    /// Per-node counters, indexed by node id. A restarted node's
    /// counters span all its incarnations (carried across via the crash
    /// snapshot).
    pub stats: Vec<NodeStats>,
    /// Broker counters.
    pub broker: BrokerStats,
    /// Supervision outcome: health transitions, restarts, quarantines.
    pub supervision: SupervisionReport,
    /// All deliveries in bus order.
    pub log: Vec<DeliveryRecord>,
    /// The merged structured trace (empty when tracing was off).
    pub trace: Vec<TraceEvent>,
    /// Trace records evicted from a bounded ring (0 = complete trace;
    /// audits are only sound when nothing was dropped).
    pub trace_dropped: u64,
    /// The admitted HRT calendar.
    pub calendar: Arc<CalendarPlan>,
    /// Bus-time instant of round 0's start.
    pub calendar_start: Time,
    /// Timeliness class of each bound etag.
    pub channels: HashMap<u16, ChannelClass>,
    /// Declared period of each periodic HRT etag.
    pub hrt_periods: HashMap<u16, Duration>,
}

impl Cluster {
    /// Start a cluster description.
    pub fn new(cfg: ClusterConfig) -> Self {
        Cluster {
            cfg,
            nodes: Vec::new(),
            sink: None,
        }
    }

    /// Route this cluster's structured trace into an externally owned
    /// sink instead of building a private one from
    /// [`ClusterConfig::trace`].
    ///
    /// Off-bus layers (the gateway's fanout workers) hand the same sink
    /// to their own emitters, so one merged, time-sorted trace covers
    /// the bus *and* everything behind it and a single T1–T9 audit pass
    /// sees the whole system. The sink decides enabled/disabled and
    /// capacity; the config's `trace` flag is ignored when this is set.
    pub fn use_sink(&mut self, sink: TraceSink) {
        self.sink = Some(sink);
    }

    /// Add a node running `behavior`; returns its node id. A node added
    /// this way cannot be restarted after a crash (the supervisor
    /// quarantines it for good); use [`Cluster::add_node_with`] to make
    /// it restartable.
    pub fn add_node(&mut self, behavior: Box<dyn Behavior>) -> u8 {
        let id = self.nodes.len() as u8;
        self.nodes.push(NodeDef {
            publishes: Vec::new(),
            subscribes: Vec::new(),
            behavior: BehaviorSource::Once(Some(behavior)),
        });
        id
    }

    /// Add a node whose behavior is minted from `factory`, once per
    /// incarnation — the supervisor can restart such a node after a
    /// crash (up to [`ClusterConfig::max_restarts`] times), resuming the
    /// dead incarnation's SRT/NRT queues and counters from its crash
    /// snapshot.
    pub fn add_node_with(&mut self, factory: Box<dyn FnMut() -> Box<dyn Behavior> + Send>) -> u8 {
        let id = self.nodes.len() as u8;
        self.nodes.push(NodeDef {
            publishes: Vec::new(),
            subscribes: Vec::new(),
            behavior: BehaviorSource::Factory(factory),
        });
        id
    }

    /// Declare that `node` publishes `subject` with the given channel
    /// attributes.
    pub fn publish(&mut self, node: u8, subject: Subject, spec: ChannelSpec) {
        self.nodes[node as usize].publishes.push((subject, spec));
    }

    /// Declare that `node` subscribes to `subject`. The spec mirrors
    /// the publisher's (binding is static).
    pub fn subscribe(&mut self, node: u8, subject: Subject, spec: ChannelSpec) {
        self.nodes[node as usize].subscribes.push((subject, spec));
    }

    /// Run the cluster over the in-process loopback transport for
    /// `run` of bus time.
    pub fn run_for(self, run: Duration) -> Result<LiveReport, LiveError> {
        let n = self.nodes.len();
        let (broker_t, node_ts) = loopback(n);
        self.run_with(broker_t, NodeEndpoints::ready(node_ts), run, None)
    }

    /// Like [`Cluster::run_for`], but pass every node's loopback
    /// endpoint through `wrap` before its thread starts — including
    /// restarted incarnations, whose fresh endpoints go through the
    /// same closure. Tests use this to interpose jitter- or
    /// fault-injecting transports without touching the protocol (e.g.
    /// the lock-step determinism regression, which perturbs reply
    /// arrival timing and asserts delivery logs stay byte-identical).
    pub fn run_for_wrapped(
        self,
        run: Duration,
        wrap: &mut WrapFn,
    ) -> Result<LiveReport, LiveError> {
        let n = self.nodes.len();
        let (broker_t, node_ts) = loopback(n);
        self.run_with(broker_t, NodeEndpoints::ready(node_ts), run, Some(wrap))
    }

    /// Run the cluster over the loopback transport under a seeded
    /// chaos plan: node kills (with supervised restart), datagram
    /// drop/duplication/delay, and a one-off broker stall. Returns the
    /// usual report plus the chaos bookkeeping.
    pub fn run_for_chaos(
        self,
        run: Duration,
        plan: ChaosPlan,
    ) -> Result<(LiveReport, ChaosReport), LiveError> {
        let n = self.nodes.len();
        let ctl = ChaosCtl::new(plan, n);
        let (broker_t, node_ts) = loopback(n);
        let broker_t = crate::chaos::ChaosBroker::new(broker_t, ctl.clone());
        let node_ctl = ctl.clone();
        let mut wrap = move |id: u8, t: Box<dyn NodeTransport>| -> Box<dyn NodeTransport> {
            Box::new(crate::chaos::ChaosNode::new(t, node_ctl.clone(), id))
        };
        let report = self.run_with(
            broker_t,
            NodeEndpoints::ready(node_ts),
            run,
            Some(&mut wrap),
        )?;
        Ok((report, ctl.report()))
    }

    /// Run the cluster over UDP: one datagram socket per node plus one
    /// for the broker, all on localhost.
    pub fn run_for_udp(self, run: Duration) -> Result<LiveReport, LiveError> {
        let n = self.nodes.len();
        let broker_t = UdpBroker::bind(n).map_err(LiveError::Transport)?;
        let addr = broker_t.local_addr().map_err(LiveError::Transport)?;
        self.run_with(broker_t, NodeEndpoints::Udp(addr), run, None)
    }

    fn run_with<B>(
        self,
        broker_transport: B,
        endpoints: NodeEndpoints,
        run: Duration,
        wrap: Option<&mut WrapFn>,
    ) -> Result<LiveReport, LiveError>
    where
        B: crate::transport::BrokerTransport + 'static,
    {
        let cfg = self.cfg;
        if self.nodes.len() > TXNODE_MAX as usize + 1 {
            return Err(LiveError::Config(format!(
                "{} nodes exceed the CAN TxNode field ({})",
                self.nodes.len(),
                TXNODE_MAX as usize + 1
            )));
        }

        // Static binding: subjects get etags in declaration order.
        let mut registry = SubjectRegistry::new();
        let mut etags: HashMap<u64, u16> = HashMap::new();
        let mut channels: HashMap<u16, ChannelClass> = HashMap::new();
        let mut hrt_periods: HashMap<u16, Duration> = HashMap::new();
        let mut requests: Vec<SlotRequest> = Vec::new();
        for (node, def) in self.nodes.iter().enumerate() {
            for (subject, spec) in def.publishes.iter().chain(def.subscribes.iter()) {
                let etag = registry
                    .bind(*subject)
                    .map_err(|_| LiveError::Config("etag space exhausted".into()))?;
                etags.insert(subject.uid(), etag);
                channels.insert(etag, spec.class());
            }
            for (subject, spec) in &def.publishes {
                if let ChannelSpec::Hrt(h) = spec {
                    let etag = etags[&subject.uid()];
                    requests.push(SlotRequest {
                        etag,
                        publisher: NodeId(node as u8),
                        dlc: h.dlc,
                        omission_degree: h.omission_degree,
                        period: h.period,
                    });
                    if !h.sporadic {
                        hrt_periods.insert(etag, h.period);
                    }
                }
            }
        }
        let calendar = Arc::new(CalendarPlan::plan(
            cfg.round, &requests, cfg.timing, cfg.gap,
        )?);
        let sink = match (self.sink, cfg.trace) {
            (Some(sink), _) => sink,
            (None, true) => TraceSink::enabled(),
            (None, false) => TraceSink::disabled(),
        };
        let shared = SharedConfig {
            calendar: Arc::clone(&calendar),
            calendar_start: cfg.calendar_start,
            prio_cfg: cfg.prio_cfg,
            etags: Arc::new(etags),
            log: Arc::new(Mutex::new(Vec::new())),
            sink: sink.clone(),
            snapshots: Arc::new(Mutex::new(HashMap::new())),
        };

        // Hand the node definitions to the supervisor, which owns all
        // spawning — the initial threads here and any restarted
        // incarnations the broker asks for mid-run.
        let n = self.nodes.len();
        let mut cfgs = Vec::with_capacity(n);
        let mut sources = Vec::with_capacity(n);
        for (id, def) in self.nodes.into_iter().enumerate() {
            cfgs.push(NodeConfig {
                node: id as u8,
                incarnation: 0,
                publishes: def.publishes,
                subscribes: def.subscribes,
                srt_queue_cap: cfg.srt_queue_cap,
                nrt_queue_cap: cfg.nrt_queue_cap,
            });
            sources.push(def.behavior);
        }
        let udp_addr = match &endpoints {
            NodeEndpoints::Udp(addr) => Some(*addr),
            NodeEndpoints::Ready(_) => None,
        };
        let mut supervisor = Supervisor {
            cfgs,
            sources,
            shared: shared.clone(),
            udp_addr,
            handles: (0..n).map(|_| None).collect(),
            wrap,
            max_restarts: cfg.max_restarts,
            backoff_ns: cfg.restart_backoff.as_ns().max(1),
            rng: Rng::seed_from_u64(cfg.restart_seed),
            restarts: vec![0; n],
        };
        let mut endpoints = endpoints;
        for id in 0..n as u8 {
            supervisor.spawn_node(id, 0, endpoints.take(id))?;
        }

        let mut broker = Broker::new(
            BrokerConfig {
                timing: cfg.timing,
                pace: cfg.pace,
                fault: cfg.fault.clone(),
                strict: cfg.strict,
                heartbeat: cfg.heartbeat,
                ..BrokerConfig::default()
            },
            broker_transport,
            sink.clone(),
        );
        let broker_result = broker.run_supervised(Time::ZERO + run, Some(&mut supervisor));
        let supervision = SupervisionReport::from_events(broker.take_sup_log());
        // Close every link before joining: a run the broker aborted
        // (strict mode) may leave a node waiting for room in a full
        // mailbox, or for a message that will never come.
        drop(broker);

        let mut stats = Vec::with_capacity(n);
        let mut first_node_err = None;
        for (id, handle) in supervisor.handles.into_iter().enumerate() {
            match handle.map(|h| h.join()) {
                Some(Ok(Ok(s))) => stats.push(s),
                Some(Ok(Err(e))) => {
                    // The last incarnation crashed (quarantined, off, or
                    // chaos-killed at shutdown). Its counters survive in
                    // the crash snapshot; the error itself is terminal
                    // only in strict mode — supervised runs report it
                    // through the supervision log instead.
                    if cfg.strict {
                        first_node_err.get_or_insert(e);
                    }
                    let snap = shared
                        .snapshots
                        .lock()
                        .unwrap_or_else(|p| p.into_inner())
                        .remove(&(id as u8));
                    stats.push(snap.map(|s| s.stats).unwrap_or(NodeStats {
                        node: id as u8,
                        ..NodeStats::default()
                    }));
                }
                Some(Err(_)) => {
                    // A panic is a bug, never an injected fault.
                    first_node_err.get_or_insert(LiveError::NodeFailed(id as u8));
                    stats.push(NodeStats {
                        node: id as u8,
                        ..NodeStats::default()
                    });
                }
                None => stats.push(NodeStats {
                    node: id as u8,
                    ..NodeStats::default()
                }),
            }
        }
        let broker_stats = broker_result?;
        if let Some(e) = first_node_err {
            return Err(e);
        }
        // Batched completion turns let node threads append to the
        // shared log and trace ring concurrently, so the raw append
        // order is schedule-dependent. Canonicalize: the log sorts
        // into bus order ((wire_ns, node) is unique — the wire
        // serializes frames and a node delivers a frame once), and the
        // trace sorts stably by (time, source) — same-key events all
        // come from one emitter, so its own order survives.
        let mut log = shared.log.lock().unwrap_or_else(|e| e.into_inner()).clone();
        log.sort_by_key(|r| (r.wire_ns, r.node));
        let mut trace = sink.events();
        trace.sort_by(|x, y| (x.time, &x.source).cmp(&(y.time, &y.source)));
        Ok(LiveReport {
            stats,
            broker: broker_stats,
            supervision,
            log,
            trace,
            trace_dropped: sink.dropped(),
            calendar,
            calendar_start: cfg.calendar_start,
            channels,
            hrt_periods,
        })
    }
}

/// The endpoint-wrapping hook threaded through a run (see
/// [`Cluster::run_for_wrapped`]). Called once per spawned incarnation.
pub type WrapFn = dyn FnMut(u8, Box<dyn NodeTransport>) -> Box<dyn NodeTransport>;

/// Owns the node threads for one run: spawns the initial incarnations
/// and, as the broker's [`NodeSupervisor`], decides restart backoff and
/// respawns crashed nodes with a bumped incarnation.
struct Supervisor<'a> {
    cfgs: Vec<NodeConfig>,
    sources: Vec<BehaviorSource>,
    shared: SharedConfig,
    udp_addr: Option<std::net::SocketAddr>,
    handles: Vec<Option<JoinHandle<Result<NodeStats, LiveError>>>>,
    wrap: Option<&'a mut WrapFn>,
    max_restarts: u32,
    backoff_ns: u64,
    rng: Rng,
    /// Restarts consumed per node.
    restarts: Vec<u32>,
}

impl Supervisor<'_> {
    fn spawn_node(
        &mut self,
        node: u8,
        incarnation: u32,
        endpoint: NodeEndpoint,
    ) -> Result<(), LiveError> {
        let Some(behavior) = self.sources[node as usize].take() else {
            return Err(LiveError::RestartUnsupported { node });
        };
        let endpoint = match (endpoint, self.wrap.as_mut()) {
            (NodeEndpoint::Ready(t), Some(w)) => NodeEndpoint::Ready(w(node, t)),
            (e, _) => e,
        };
        let mut node_cfg = self.cfgs[node as usize].clone();
        node_cfg.incarnation = incarnation;
        let shared = self.shared.clone();
        let handle = crate::sync::thread::Builder::new()
            .name(format!("rtec-node-{node}"))
            .spawn(move || -> Result<NodeStats, LiveError> {
                let transport = endpoint.connect()?;
                LiveNode::new(node_cfg, shared, transport, behavior)?.run()
            })
            .map_err(|e| LiveError::Config(format!("spawn failed: {e}")))?;
        self.handles[node as usize] = Some(handle);
        Ok(())
    }
}

impl NodeSupervisor for Supervisor<'_> {
    fn on_down(
        &mut self,
        node: u8,
        _incarnation: u32,
        _at_ns: u64,
        _reason: &'static str,
    ) -> Option<u64> {
        let n = node as usize;
        if !self.sources[n].can_respawn() || self.restarts[n] >= self.max_restarts {
            return None;
        }
        self.restarts[n] += 1;
        // Bounded exponential backoff in bus time, plus up to one base
        // interval of seeded jitter so same-instant restarts spread out
        // — deterministic across same-seed runs.
        let shift = (self.restarts[n] - 1).min(16);
        let backoff = self.backoff_ns << shift;
        Some(backoff + self.rng.gen_range_u64(self.backoff_ns))
    }

    fn respawn(
        &mut self,
        node: u8,
        incarnation: u32,
        _at_ns: u64,
        link: Option<Box<dyn NodeTransport>>,
    ) -> Result<(), LiveError> {
        // Reap the dead incarnation first; its exit error (transport
        // severed, chaos kill) is expected, not propagated.
        if let Some(h) = self.handles[node as usize].take() {
            let _ = h.join();
        }
        let endpoint = match link {
            Some(t) => NodeEndpoint::Ready(t),
            None => {
                let addr = self
                    .udp_addr
                    .ok_or(LiveError::RestartUnsupported { node })?;
                NodeEndpoint::Udp(addr, node, incarnation)
            }
        };
        self.spawn_node(node, incarnation, endpoint)
    }
}

/// Where each node thread gets its transport endpoint from: loopback
/// endpoints are built up front; UDP endpoints rendezvous from inside
/// the node thread (`connect` blocks until the broker answers).
enum NodeEndpoints {
    Ready(Vec<Option<Box<dyn NodeTransport>>>),
    Udp(std::net::SocketAddr),
}

impl NodeEndpoints {
    fn ready<T: NodeTransport + 'static>(endpoints: Vec<T>) -> Self {
        NodeEndpoints::Ready(
            endpoints
                .into_iter()
                .map(|t| Some(Box::new(t) as Box<dyn NodeTransport>))
                .collect(),
        )
    }

    fn take(&mut self, node: u8) -> NodeEndpoint {
        match self {
            NodeEndpoints::Ready(v) => {
                NodeEndpoint::Ready(v[node as usize].take().expect("endpoint taken once"))
            }
            NodeEndpoints::Udp(addr) => NodeEndpoint::Udp(*addr, node, 0),
        }
    }
}

enum NodeEndpoint {
    Ready(Box<dyn NodeTransport>),
    Udp(std::net::SocketAddr, u8, u32),
}

impl NodeEndpoint {
    fn connect(self) -> Result<Box<dyn NodeTransport>, LiveError> {
        match self {
            NodeEndpoint::Ready(t) => Ok(t),
            NodeEndpoint::Udp(addr, node, incarnation) => Ok(Box::new(
                UdpNode::connect(addr, node, incarnation).map_err(LiveError::Transport)?,
            )),
        }
    }
}

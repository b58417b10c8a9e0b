//! The gateway runtime: a cluster [`Behavior`] feeding fanout workers,
//! each the sole owner of its share of the clients.
//!
//! The gateway joins the live cluster as an ordinary node — it speaks
//! the broker protocol through the same `NodeTransport`, subscribes
//! like any middleware instance, and obeys the lock-step turn
//! discipline. What makes it a gateway is what happens *after*
//! delivery: each delivered event is classified, stamped and handed, as
//! one shared [`Arc`], to every one of N fanout workers. A client lives
//! on exactly one worker (`client % workers`; ids are minted in order,
//! so clients spread evenly) and has exactly one lane there, so the
//! client's whole stream is one worker's FIFO in bus-delivery order:
//! per-subject order and the HRT → SRT → NRT class order hold across
//! everything the client subscribes to, at no cost. Each worker owns
//! its lanes outright (subscription slots, bounded [`EgressQueue`]s,
//! sinks, session accounting): no cross-worker locks on the hot path,
//! and a same-seed run replays every queueing and shedding decision
//! exactly.
//!
//! # Sessions and crash tolerance
//!
//! A v2 client's session outlives its connection. Its send-side state
//! — per-class sent counts and replay rings — is owned by its lane, on
//! its worker, and the worker numbers every event itself: every worker
//! sees every delivery in the same order, so all of them agree on each
//! subject's `seq` without sharing a counter. When a sink dies (severed
//! TCP link, killed client), the lane is *detached in place*: it stays
//! inside its worker, keeps queueing events under its normal policies
//! (so SRT still sheds stale, HRT is never dropped), and the session
//! table remembers it for a bus-time TTL. A resume is one message to
//! the client's worker: carrying the token's claim and the client's
//! per-class receive watermarks, it makes the worker decide the verdict,
//! replay exactly the in-flight suffix from the lane's bounded replay
//! ring (see `session.rs` for the per-class rules) — behind a `Welcome`
//! carrying that verdict, for a socket client — count the verdict once
//! the replay completes, reattach the lane, and flush what queued while
//! the client was away. A gateway-*node* crash takes none of this down:
//! the worker pool and session table live outside the node behavior, so
//! the supervisor restarts the bus node and external clients resume
//! against the new incarnation.
//!
//! Workers are spawned through the `rtec_live::sync` facade, so the
//! loom model checker and the srclint C1–C6 rules cover this crate the
//! same way they cover the broker and node threads.

use crate::client::{ClientSink, ClientSinkSpec, SinkDigest, SinkStatus};
use crate::egress::{
    EgressEntry, EgressQueue, FlushItem, FlushVerdict, LaneStats, PushOutcome, SlowConsumerPolicy,
};
use crate::session::{compute_replay, ReplayPlan, SessionCore, SessionStore};
use crate::wire::{
    self, BatchEntry, ClassWatermarks, EventMsg, FragMsg, Reason, SessionInfo, ToClient,
};
use rtec_core::event::Delivery;
use rtec_core::{ChannelClass, ChannelSpec, Subject};
use rtec_live::node::{Behavior, NodeCtx};
use rtec_live::sync::atomic::{AtomicU64, Ordering};
use rtec_live::sync::{mpsc, thread, Arc, Mutex, MutexGuard};
use rtec_sim::{SharedTraceSink, SourceId, Time};
use std::collections::HashMap;

pub use crate::session::SessionStats;
pub use crate::wire::ResumeVerdict;

/// Bounded `Busy` retries while offering a resume's `Welcome` and
/// replay; a sink that stays busy this long is treated as dead and the
/// resume aborts.
const RESUME_OFFER_RETRIES: usize = 1 << 12;

/// Policy for clients that register without one of their own.
const DEFAULT_POLICY: SlowConsumerPolicy = SlowConsumerPolicy::ShedNrtFirst;

/// Gateway construction parameters.
pub struct GatewayConfig {
    /// Fanout worker threads (clients are spread across them).
    pub workers: usize,
    /// Bound of each client's egress queue, in entries.
    pub client_queue_cap: usize,
    /// How long (bus time) a detached session stays resumable.
    pub session_ttl_ns: u64,
    /// Per-class replay ring bound, in frames. Misses beyond it become
    /// explicit `Gap` notices at resume.
    pub resume_ring_cap: usize,
    /// Trace sink shared with the cluster (see `Cluster::use_sink`) so
    /// gateway records merge into the audited trace.
    pub sink: SharedTraceSink,
}

impl Default for GatewayConfig {
    fn default() -> Self {
        GatewayConfig {
            workers: 4,
            client_queue_cap: 64,
            session_ttl_ns: 1_000_000_000,
            resume_ring_cap: 128,
            sink: SharedTraceSink::disabled(),
        }
    }
}

/// What the behavior knows about a bound subject.
#[derive(Clone, Copy, Debug)]
struct SubjectMeta {
    class: ChannelClass,
    /// Off-bus staleness budget: an SRT event delivered at `t` is
    /// stale at `t + stale_ns` (the spec's validity window, re-anchored
    /// at delivery because expiration attributes do not survive the
    /// wire).
    stale_ns: Option<u64>,
}

/// One delivered event, classified and stamped for fanout.
struct IngressEvent {
    uid: u64,
    class: ChannelClass,
    origin: u8,
    wire_ns: u64,
    delivered_ns: u64,
    expiry_ns: Option<u64>,
    payload: Vec<u8>,
}

/// The client watermarks a resume repairs against: known up front (the
/// wire handshake carries them), or resolved by the client's worker at
/// the resume's FIFO point — once the old sink is parked and the
/// counters are frozen — which is what makes a simulated resume
/// deterministic.
pub enum WmSource {
    /// The watermarks as the client reported them.
    Known(ClassWatermarks),
    /// Resolve on the worker thread, at the resume's queue position.
    Deferred(Box<dyn FnOnce() -> ClassWatermarks + Send>),
}

/// Everything a client's worker needs to (re)attach the client's lane.
struct Attach {
    client: u32,
    uids: Vec<u64>,
    sink: Box<dyn ClientSink>,
    policy: SlowConsumerPolicy,
    /// A session client: the lane keeps its send-side accounting.
    /// `false` for an in-process client of [`Gateway::add_client`].
    session: bool,
    /// Connection incarnation this sink belongs to; an attach older
    /// than the lane's is ignored.
    incarnation: u32,
    /// Set for a session's resume: replay the missing suffix into the
    /// new sink before it takes over the lane.
    resume: Option<Resume>,
}

/// The replay half of a resume.
struct Resume {
    wm: WmSource,
    /// Bus-time high-water mark captured at the caller — deterministic
    /// when the caller is a node thread.
    now_ns: u64,
    /// The session token, for a socket resume: the worker offers
    /// `Welcome` with the verdict ahead of the replay.
    welcome: Option<u64>,
}

/// Worker mailbox messages.
enum GwMsg {
    Attach(Box<Attach>),
    Deregister {
        client: u32,
        /// `true` parks the lane (detach in place, session resumable);
        /// `false` tears it down for good.
        park: bool,
        incarnation: u32,
    },
    Event(Arc<IngressEvent>),
    /// Answered once everything queued ahead of it is processed.
    Sync(mpsc::SyncSender<()>),
    Shutdown,
}

/// Per-worker counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ShardStats {
    /// Events received from the bus node. Every worker receives every
    /// event, so each worker counts all of the gateway node's
    /// deliveries.
    pub ingress: u64,
    /// (event, lane) deliveries attempted on this worker's lanes.
    pub fanout: u64,
    /// Lanes torn down by a slow-consumer policy or a dead sink.
    pub disconnects: u64,
    /// Entries still queued when the lane ended.
    pub undelivered: u64,
    /// HRT/SRT events dropped because their payload cannot be encoded
    /// in a single wire frame (only NRT fragments — see
    /// [`wire::MAX_PAYLOAD`]); counted by each worker that has a
    /// subscriber to the event.
    pub oversized: u64,
}

/// Outcome of one client's lane.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LaneReport {
    /// Client id.
    pub client: u32,
    /// The client's worker.
    pub shard: usize,
    /// Queue counters.
    pub stats: LaneStats,
    /// Delivery fingerprint, for sinks that keep one.
    pub digest: Option<SinkDigest>,
    /// The lane was torn down (policy disconnect or dead sink).
    pub gone: bool,
}

/// What one worker hands back at shutdown.
struct ShardReport {
    shard: usize,
    stats: ShardStats,
    lanes: Vec<LaneReport>,
}

/// Whole-gateway aggregate counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GatewayStats {
    /// The gateway node's deliveries. Every worker sees every event, so
    /// this is one worker's [`ShardStats::ingress`], not their sum.
    pub ingress: u64,
    /// (event, lane) deliveries attempted (summed over workers; a lane
    /// lives on one).
    pub fanout: u64,
    /// Messages accepted by client sinks.
    pub delivered_msgs: u64,
    /// HRT events delivered.
    pub delivered_hrt: u64,
    /// SRT events delivered.
    pub delivered_srt: u64,
    /// NRT events/fragments delivered.
    pub delivered_nrt: u64,
    /// NRT entries shed under pressure.
    pub shed_nrt: u64,
    /// SRT entries dropped stale.
    pub shed_srt_stale: u64,
    /// SRT entries shed under pressure.
    pub shed_srt_cap: u64,
    /// Entries coalesced to a newer same-subject event.
    pub coalesced: u64,
    /// NRT batch messages sent.
    pub batches: u64,
    /// Fragment messages sent.
    pub fragments: u64,
    /// Lanes torn down.
    pub disconnects: u64,
    /// Entries discarded at lane end.
    pub undelivered: u64,
    /// Un-encodable HRT/SRT bulk events dropped at ingress, summed over
    /// workers (see [`ShardStats::oversized`]).
    pub oversized: u64,
    /// Highest queue occupancy any lane reached (bounded-memory
    /// witness: never exceeds the configured cap).
    pub peak_lane_occupancy: usize,
}

impl GatewayStats {
    /// Every event shed for backpressure or staleness.
    pub fn shed_total(&self) -> u64 {
        self.shed_nrt + self.shed_srt_stale + self.shed_srt_cap
    }
}

/// Everything a finished gateway yields. Purely bus-time: same seed ⇒
/// equal reports.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct GatewayReport {
    /// Aggregate counters.
    pub stats: GatewayStats,
    /// Per-worker counters, indexed by worker.
    pub shards: Vec<ShardStats>,
    /// One per client, sorted by (client, shard). Lane digests are the
    /// determinism contract: same seed ⇒ byte-identical.
    pub lanes: Vec<LaneReport>,
    /// Session lifecycle and replay counters.
    pub sessions: SessionStats,
}

struct Inner {
    workers: usize,
    senders: Mutex<Option<Vec<mpsc::SyncSender<GwMsg>>>>,
    handles: Mutex<Option<Vec<thread::JoinHandle<ShardReport>>>>,
    next_client: Mutex<u32>,
    meta: Mutex<HashMap<u64, SubjectMeta>>,
    sessions: Arc<Mutex<SessionStore>>,
    /// Bus-time high-water mark over all deliveries: the session TTL
    /// clock, advanced by the behavior thread.
    now_wm: Arc<AtomicU64>,
}

/// Lock `m`, recovering the data of a poisoned lock.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Handle to a running gateway (cheap to clone; all clones address the
/// same worker pool).
#[derive(Clone)]
pub struct Gateway {
    inner: Arc<Inner>,
}

impl Gateway {
    /// Spawn the fanout workers and return the gateway handle.
    pub fn new(cfg: GatewayConfig) -> Gateway {
        let workers = cfg.workers.max(1);
        let now_wm = Arc::new(AtomicU64::new(0));
        let sessions = Arc::new(Mutex::new(SessionStore::new(cfg.session_ttl_ns)));
        let mut senders = Vec::with_capacity(workers);
        let mut handles = Vec::with_capacity(workers);
        for shard in 0..workers {
            // Bounded: a full channel backpressures the gateway node,
            // never drops.
            let (tx, rx) = mpsc::bounded(mpsc::DEFAULT_DEPTH);
            let mut state = WorkerState {
                shard,
                cap: cfg.client_queue_cap.max(1),
                ring_cap: cfg.resume_ring_cap,
                seqs: HashMap::new(),
                subs: HashMap::new(),
                lanes: Vec::new(),
                slots: HashMap::new(),
                free: Vec::new(),
                closed: Vec::new(),
                watermark_ns: 0,
                stats: ShardStats::default(),
                notice_buf: Vec::new(),
                sessions: Arc::clone(&sessions),
                now_wm: Arc::clone(&now_wm),
                trace: cfg.sink.clone(),
                src: cfg.sink.intern(&format!("gateway.shard{shard}")),
            };
            let handle = thread::Builder::new()
                .name(format!("gw-shard-{shard}"))
                .spawn(move || {
                    loop {
                        match rx.recv() {
                            Ok(GwMsg::Attach(a)) => state.attach(*a),
                            Ok(GwMsg::Deregister {
                                client,
                                park,
                                incarnation,
                            }) => state.deregister(client, park, incarnation),
                            Ok(GwMsg::Event(ev)) => state.on_event(&ev),
                            Ok(GwMsg::Sync(done)) => {
                                let _ = done.send(());
                            }
                            Ok(GwMsg::Shutdown) | Err(_) => break,
                        }
                    }
                    state.finish()
                })
                .expect("spawn gateway fanout worker");
            senders.push(tx);
            handles.push(handle);
        }
        Gateway {
            inner: Arc::new(Inner {
                workers,
                senders: Mutex::new(Some(senders)),
                handles: Mutex::new(Some(handles)),
                next_client: Mutex::new(0),
                meta: Mutex::new(HashMap::new()),
                sessions,
                now_wm,
            }),
        }
    }

    /// Declare a subject the gateway re-publishes, with the channel
    /// attributes it is bound to on the bus (mirror of the cluster's
    /// `subscribe` for the gateway node). Must precede
    /// [`Gateway::behavior`].
    pub fn bind(&self, subject: Subject, spec: &ChannelSpec) {
        let stale_ns = match spec {
            ChannelSpec::Srt(s) => s.default_expiration.map(|d| d.as_ns()),
            _ => None,
        };
        lock(&self.inner.meta).insert(
            subject.uid(),
            SubjectMeta {
                class: spec.class(),
                stale_ns,
            },
        );
    }

    /// Number of fanout workers.
    pub fn workers(&self) -> usize {
        self.inner.workers
    }

    /// Register an in-process client subscribed to `subjects`; returns
    /// its id. Delivery starts now.
    ///
    /// The client's worker mints the lane's sink from `spec`. With no
    /// `policy` the gateway default applies. The client has no session:
    /// a dead sink tears the lane down.
    pub fn add_client(
        &self,
        subjects: &[Subject],
        spec: &ClientSinkSpec,
        policy: Option<SlowConsumerPolicy>,
    ) -> u32 {
        let client = self.reserve_client();
        self.attach(Attach {
            client,
            uids: subjects.iter().map(|s| s.uid()).collect(),
            sink: spec.instantiate(client, self.worker_of(client)),
            policy: policy.unwrap_or(DEFAULT_POLICY),
            session: false,
            incarnation: 0,
            resume: None,
        });
        client
    }

    /// Mint a client id without registering any lane — nothing is
    /// delivered to the client yet. Lets a transport finish its
    /// handshake (e.g. write `Welcome` carrying the id) before any
    /// fanout worker can write to the client's sink.
    pub fn reserve_client(&self) -> u32 {
        let mut next = lock(&self.inner.next_client);
        let id = *next;
        *next += 1;
        id
    }

    /// Open a session for a reserved client: the gateway remembers its
    /// subscriptions, policy and delivery watermarks across
    /// disconnects, for the configured TTL. Returns the session token
    /// (never 0). Delivery starts at [`Gateway::attach_session`].
    pub fn open_session(
        &self,
        client: u32,
        subjects: &[Subject],
        policy: Option<SlowConsumerPolicy>,
    ) -> u64 {
        let policy = policy.unwrap_or(DEFAULT_POLICY);
        let uids: Vec<u64> = subjects.iter().map(|s| s.uid()).collect();
        lock(&self.inner.sessions).open(client, uids, policy)
    }

    /// Attach a sink to an open session; delivery starts now. The
    /// client's lane keeps the session's frame accounting.
    pub fn attach_session(&self, client: u32, sink: Box<dyn ClientSink>) {
        let attach = {
            let store = lock(&self.inner.sessions);
            let Some(e) = store.entry(client) else {
                return;
            };
            Attach {
                client,
                uids: e.subjects.clone(),
                sink,
                policy: e.policy,
                session: true,
                incarnation: e.incarnation,
                resume: None,
            }
        };
        self.attach(attach);
    }

    /// Resume a session onto an in-process sink: claim the token, then
    /// have the client's worker replay what the client missed and
    /// reattach its lane. Returns `(client, incarnation)` or the refusal
    /// verdict (the token is spent; the caller opens a fresh session).
    pub fn resume_session(
        &self,
        token: u64,
        wm: WmSource,
        sink: Box<dyn ClientSink>,
    ) -> Result<(u32, u32), ResumeVerdict> {
        self.resume(token, wm, sink, false)
    }

    /// The one resume path. A claimed resume is one message to the
    /// client's worker, which decides the verdict from the lane's own
    /// accounting, replays, and counts the verdict once the replay
    /// completes (a sink that refuses or dies counts `aborted` and the
    /// session parks again). With `welcome` (the socket path) the
    /// worker first offers the new sink a `Welcome` carrying the token
    /// and that verdict, so it is the first frame on the stream.
    pub(crate) fn resume(
        &self,
        token: u64,
        wm: WmSource,
        sink: Box<dyn ClientSink>,
        welcome: bool,
    ) -> Result<(u32, u32), ResumeVerdict> {
        let now_ns = self.now();
        // A session still `Attached` may have lost its sink in an event
        // its worker has not processed yet. Wait until the worker is
        // past everything queued ahead of this resume, so the claim
        // sees the detach (and its stamp) that event would cause.
        let attached = lock(&self.inner.sessions).attached_client(token);
        if let Some(client) = attached {
            self.sync(client);
        }
        let claim = lock(&self.inner.sessions).claim_resume(token, now_ns)?;
        self.attach(Attach {
            client: claim.client,
            uids: claim.subjects,
            sink,
            policy: claim.policy,
            session: true,
            incarnation: claim.incarnation,
            resume: Some(Resume {
                wm,
                now_ns,
                welcome: welcome.then_some(claim.token),
            }),
        });
        Ok((claim.client, claim.incarnation))
    }

    /// The session TTL clock: the bus-time high-water mark.
    fn now(&self) -> u64 {
        self.inner.now_wm.load(Ordering::SeqCst)
    }

    /// Hand an attach to the client's worker. When the worker pool is
    /// gone ([`Gateway::finish`] won the race) a session just attached
    /// or claimed has no lane to live on, so it is parked — resumable
    /// within the TTL — rather than left `Attached` to nothing.
    fn attach(&self, attach: Attach) {
        let client = attach.client;
        if !self.post(client, GwMsg::Attach(Box::new(attach))) {
            lock(&self.inner.sessions).detach(client, self.now());
        }
    }

    /// Post `msg` to the worker that owns `client`; `false` once
    /// [`Gateway::finish`] has taken the worker pool.
    fn post(&self, client: u32, msg: GwMsg) -> bool {
        let pool = lock(&self.inner.senders);
        let Some(senders) = pool.as_ref() else {
            return false;
        };
        let _ = senders[self.worker_of(client)].send(msg);
        true
    }

    /// Block until `client`'s worker has processed every message
    /// queued for it before this call.
    fn sync(&self, client: u32) {
        let (done, wait) = mpsc::bounded(1);
        if self.post(client, GwMsg::Sync(done)) {
            let _ = wait.recv();
        }
    }

    /// The worker that owns `client`'s one lane.
    fn worker_of(&self, client: u32) -> usize {
        client as usize % self.inner.workers
    }

    /// A connection died under a live session: park its lane and keep
    /// the session resumable for the TTL. `incarnation` must be the
    /// one the connection attached or resumed with — a stale detach
    /// (the old reader noticing EOF after a fast reconnect already
    /// resumed) is ignored.
    pub fn detach_session(&self, client: u32, incarnation: u32) {
        {
            let mut store = lock(&self.inner.sessions);
            if store.entry(client).map(|e| e.incarnation) != Some(incarnation) {
                return;
            }
            store.detach(client, self.now());
        }
        self.post(
            client,
            GwMsg::Deregister {
                client,
                park: true,
                incarnation,
            },
        );
    }

    /// End a client for good (clean `Bye`): flush what its sink will
    /// still take, tear its lane down, and spend its session token.
    /// Also the teardown path for an in-process client without a
    /// session.
    pub fn close_session(&self, client: u32) {
        lock(&self.inner.sessions).end(client, true);
        self.post(
            client,
            GwMsg::Deregister {
                client,
                park: false,
                incarnation: u32::MAX,
            },
        );
    }

    /// Live snapshot of the session counters (the final ones ride on
    /// [`GatewayReport::sessions`]).
    pub fn session_stats(&self) -> SessionStats {
        lock(&self.inner.sessions).stats
    }

    /// The cluster behavior for the gateway node. Bind every subject
    /// first ([`Gateway::bind`]); deliveries for unbound subjects are
    /// ignored.
    ///
    /// May be called once per gateway-*node* incarnation: the workers
    /// (which number the events) and the TTL clock outlive behaviors,
    /// so a supervised restart of the bus node does not disturb client
    /// sessions.
    pub fn behavior(&self) -> Box<dyn Behavior> {
        Box::new(GatewayBehavior {
            senders: lock(&self.inner.senders).clone().unwrap_or_default(),
            meta: lock(&self.inner.meta).clone(),
            now_wm: Arc::clone(&self.inner.now_wm),
        })
    }

    /// Shut the workers down (flushing what their sinks will still
    /// take) and collect the report. Idempotent: a second call returns
    /// an empty report.
    pub fn finish(&self) -> GatewayReport {
        if let Some(senders) = lock(&self.inner.senders).take() {
            for tx in &senders {
                let _ = tx.send(GwMsg::Shutdown);
            }
        }
        let handles = lock(&self.inner.handles).take().unwrap_or_default();
        let mut shards: Vec<ShardReport> = Vec::with_capacity(handles.len());
        for h in handles {
            match h.join() {
                Ok(report) => shards.push(report),
                Err(_) => continue, // a panicked worker contributes nothing
            }
        }
        shards.sort_by_key(|s| s.shard);
        let mut out = GatewayReport::default();
        for sr in shards {
            out.stats.ingress = out.stats.ingress.max(sr.stats.ingress);
            out.stats.fanout += sr.stats.fanout;
            out.stats.disconnects += sr.stats.disconnects;
            out.stats.undelivered += sr.stats.undelivered;
            out.stats.oversized += sr.stats.oversized;
            out.shards.push(sr.stats);
            for lane in sr.lanes {
                out.stats.delivered_msgs += lane.stats.delivered_msgs;
                out.stats.delivered_hrt += lane.stats.delivered_hrt;
                out.stats.delivered_srt += lane.stats.delivered_srt;
                out.stats.delivered_nrt += lane.stats.delivered_nrt;
                out.stats.shed_nrt += lane.stats.shed_nrt;
                out.stats.shed_srt_stale += lane.stats.shed_srt_stale;
                out.stats.shed_srt_cap += lane.stats.shed_srt_cap;
                out.stats.coalesced += lane.stats.coalesced;
                out.stats.batches += lane.stats.batches;
                out.stats.fragments += lane.stats.fragments;
                out.stats.peak_lane_occupancy = out.stats.peak_lane_occupancy.max(lane.stats.peak);
                out.lanes.push(lane);
            }
        }
        out.lanes.sort_by_key(|l| (l.client, l.shard));
        out.sessions = self.session_stats();
        out
    }
}

/// The gateway node's cluster behavior: classify, stamp, hand to every
/// worker.
struct GatewayBehavior {
    senders: Vec<mpsc::SyncSender<GwMsg>>,
    meta: HashMap<u64, SubjectMeta>,
    now_wm: Arc<AtomicU64>,
}

impl Behavior for GatewayBehavior {
    fn on_delivery(&mut self, _ctx: &mut NodeCtx<'_>, delivery: &Delivery) {
        let uid = delivery.event.subject.uid();
        let Some(meta) = self.meta.get(&uid) else {
            return;
        };
        let delivered_ns = delivery.delivered_at.as_ns();
        // Single writer (the node thread); monotonic by construction.
        if delivered_ns > self.now_wm.load(Ordering::SeqCst) {
            self.now_wm.store(delivered_ns, Ordering::SeqCst);
        }
        let ev = Arc::new(IngressEvent {
            uid,
            class: meta.class,
            origin: delivery.event.attributes.origin.map_or(255, |n| n.0),
            wire_ns: delivery.wire_completed_at.as_ns(),
            delivered_ns,
            expiry_ns: meta.stale_ns.map(|s| delivered_ns.saturating_add(s)),
            payload: delivery.event.content.clone(),
        });
        // Every worker serves its own clients, so every worker gets the
        // event. A full worker channel backpressures the node's turn —
        // the bus stalls in wall time, never in bus time, and nothing
        // drops.
        for tx in &self.senders {
            let _ = tx.send(GwMsg::Event(Arc::clone(&ev)));
        }
    }
}

/// One client's egress state, on its worker.
struct Lane {
    client: u32,
    queue: EgressQueue,
    /// `None` while detached: the connection died but the session is
    /// resumable, so the queue keeps filling under its policies.
    sink: Option<Box<dyn ClientSink>>,
    /// The session's send-side accounting, owned here (`None` for a
    /// sessionless client): every data frame the sink accepts is
    /// counted and kept for replay. Boxed so a sessionless lane stays
    /// one pointer wide: a worker's slab may hold thousands of lanes.
    session: Option<Box<SessionCore>>,
    policy: SlowConsumerPolicy,
    gone: bool,
    /// Connection incarnation the lane last (re)attached with.
    incarnation: u32,
}

impl Lane {
    /// Drain the queue into the sink, if one is attached. Returns
    /// `false` when the sink reported itself gone (nothing is popped in
    /// that case — see [`EgressQueue::flush`]).
    fn flush(&mut self, watermark: u64) -> bool {
        let Lane {
            queue,
            sink,
            session,
            ..
        } = self;
        let Some(sink) = sink.as_deref_mut() else {
            return true;
        };
        queue.flush(watermark, wire::NRT_BATCH_MAX, |item| {
            offer_item(sink, session.as_deref_mut(), item)
        })
    }

    /// Last call before the lane ends: drain what the sink will still
    /// take, then say goodbye.
    fn last_call(&mut self, watermark: u64) {
        if self.gone {
            return;
        }
        self.flush(watermark);
        if let Some(sink) = self.sink.as_mut() {
            let _ = sink.offer(&wire::encode_to_client(&ToClient::Disconnect {
                reason: Reason::Shutdown,
            }));
        }
    }

    /// Tear the lane down in place: it takes no more traffic, and what
    /// it still queues is counted undelivered.
    fn kill(&mut self, stats: &mut ShardStats) {
        self.gone = true;
        self.sink = None;
        stats.undelivered += self.queue.drain_remaining() as u64;
        stats.disconnects += 1;
    }

    fn report(&self, shard: usize) -> LaneReport {
        LaneReport {
            client: self.client,
            shard,
            stats: self.queue.stats,
            digest: self.sink.as_ref().and_then(|s| s.digest()),
            gone: self.gone,
        }
    }
}

/// All of one fanout worker's state; owned by its thread.
struct WorkerState {
    shard: usize,
    cap: usize,
    /// Per-class replay ring bound of each session lane's core.
    ring_cap: usize,
    /// Subject uid → the next delivery's `seq`. Every worker receives
    /// every delivery in the gateway node's order, and the workers
    /// outlive node restarts, so each worker's count is the gateway's.
    seqs: HashMap<u64, u32>,
    /// Subject uid → slots of the lanes subscribed to it.
    subs: HashMap<u64, Vec<usize>>,
    /// The lane slab, indexed by slot. A closed lane's slot is on
    /// `free` (and in no `subs` list) until a new client reuses it.
    lanes: Vec<Lane>,
    /// Client → slot, for control messages; events go through `subs`.
    slots: HashMap<u32, usize>,
    free: Vec<usize>,
    /// Reports of lanes torn down mid-run (clean `Bye`), so their
    /// counters still reach the final report.
    closed: Vec<LaneReport>,
    watermark_ns: u64,
    stats: ShardStats,
    /// Reused encode buffer for `Shed` notices.
    notice_buf: Vec<u8>,
    sessions: Arc<Mutex<SessionStore>>,
    /// The gateway's TTL clock, read when a replay ends.
    now_wm: Arc<AtomicU64>,
    trace: SharedTraceSink,
    src: SourceId,
}

impl WorkerState {
    fn attach(&mut self, a: Attach) {
        let slot = match self.slots.get(&a.client) {
            Some(&slot) => slot,
            None => {
                let lane = Lane {
                    client: a.client,
                    queue: EgressQueue::new(self.cap),
                    sink: None,
                    session: None,
                    policy: a.policy,
                    gone: false,
                    incarnation: a.incarnation,
                };
                let slot = match self.free.pop() {
                    Some(slot) => {
                        self.lanes[slot] = lane;
                        slot
                    }
                    None => {
                        self.lanes.push(lane);
                        self.lanes.len() - 1
                    }
                };
                self.slots.insert(a.client, slot);
                slot
            }
        };
        for uid in a.uids {
            let subs = self.subs.entry(uid).or_default();
            if !subs.contains(&slot) {
                subs.push(slot);
            }
        }
        let lane = &mut self.lanes[slot];
        if a.incarnation < lane.incarnation {
            return; // stale reattach from a superseded connection
        }
        lane.incarnation = a.incarnation;
        lane.policy = a.policy;
        let mut sink = a.sink;
        if a.session {
            // The lane owns its session's accounting from the first
            // attach on; a session opened but never attached resumes
            // onto a fresh core.
            let core = lane
                .session
                .get_or_insert_with(|| Box::new(SessionCore::new(self.ring_cap)));
            if let Some(Resume {
                wm,
                now_ns,
                welcome,
            }) = a.resume
            {
                // Park the old connection first. Only this thread
                // appends to the core, so the counters the plan
                // repairs against stay frozen until the replay is out.
                lane.sink = None;
                lane.gone = false;
                let wm = match wm {
                    WmSource::Known(wm) => wm,
                    WmSource::Deferred(f) => f(),
                };
                let plan = compute_replay(core, now_ns, &wm);
                if !self.replay(a.client, sink.as_mut(), &plan, now_ns, welcome) {
                    return; // the new sink refused or died: stay parked
                }
            }
        }
        let lane = &mut self.lanes[slot];
        if lane.gone {
            return;
        }
        lane.sink = Some(sink);
        // Release what queued while the lane was detached.
        if !lane.flush(self.watermark_ns) {
            self.sink_lost(slot);
        }
    }

    /// Replay a resuming client's missing suffix into its new sink,
    /// ahead of anything the lane flushes — behind a `Welcome` carrying
    /// the verdict, for a socket resume. The frames go to the raw sink,
    /// past the lane's accounting: they were counted when first sent.
    /// Returns `false` when the sink refused or died (the resume aborts
    /// and the session stays parked).
    fn replay(
        &mut self,
        client: u32,
        sink: &mut dyn ClientSink,
        plan: &ReplayPlan,
        now_ns: u64,
        welcome: Option<u64>,
    ) -> bool {
        let welcome = welcome.map(|token| {
            wire::encode_to_client(&ToClient::Welcome {
                client,
                now_ns: 0,
                session: Some(SessionInfo {
                    token,
                    verdict: plan.verdict,
                }),
            })
        });
        let notices = plan.notices.iter().map(|(_, _, bytes)| bytes.as_slice());
        let frames = plan.frames.iter().map(|f| f.as_slice());
        let alive = welcome
            .iter()
            .map(Vec::as_slice)
            .chain(notices)
            .chain(frames)
            .all(|bytes| offer_retrying(sink, bytes));
        let now = self.now_wm.load(Ordering::SeqCst);
        lock(&self.sessions).resume_done(client, plan, !alive, now);
        let at = Time::from_ns(now_ns.max(self.watermark_ns));
        self.trace.emit_fields(
            at,
            self.src,
            "gw_resume",
            &[
                ("client", u64::from(client)),
                ("verdict", u64::from(plan.verdict.code())),
                ("replayed", plan.replayed.iter().sum::<u64>()),
                ("gaps", plan.gap_frames),
                ("stale", plan.stale_skipped),
            ],
        );
        for (class, count, _) in &plan.notices {
            self.trace.emit_fields(
                at,
                self.src,
                "gw_gap",
                &[
                    ("client", u64::from(client)),
                    ("class", class_field(*class)),
                    ("count", u64::from(*count)),
                ],
            );
        }
        alive
    }

    fn deregister(&mut self, client: u32, park: bool, incarnation: u32) {
        let Some(&slot) = self.slots.get(&client) else {
            return;
        };
        let lane = &mut self.lanes[slot];
        if incarnation < lane.incarnation {
            return; // a newer incarnation owns this lane now
        }
        if park {
            lane.sink = None;
            return;
        }
        lane.last_call(self.watermark_ns);
        self.stats.undelivered += lane.queue.drain_remaining() as u64;
        self.closed.push(lane.report(self.shard));
        // Drop the sink (a socket client sees its stream close) and the
        // session now; the slot waits on `free` for the next client.
        lane.sink = None;
        lane.session = None;
        self.slots.remove(&client);
        self.free.push(slot);
        for subs in self.subs.values_mut() {
            subs.retain(|&s| s != slot);
        }
    }

    fn on_event(&mut self, ev: &IngressEvent) {
        self.watermark_ns = self.watermark_ns.max(ev.delivered_ns);
        self.stats.ingress += 1;
        // Numbered before anything can return early: a delivery this
        // worker has no subscriber for, or cannot encode, still counts.
        let next = self.seqs.entry(ev.uid).or_insert(0);
        let seq = *next;
        *next = seq.wrapping_add(1);
        // Lent out of the table for the loop, so each lane can be
        // settled through `&mut self`; no lane (un)subscribes meanwhile.
        let slots = match self.subs.get_mut(&ev.uid) {
            Some(v) if !v.is_empty() => std::mem::take(v),
            _ => return,
        };
        let entries = encode_entries(ev, seq);
        if entries.is_empty() {
            // An HRT/SRT payload no single wire frame can carry:
            // encoding it truncated or oversized would corrupt the
            // client stream, so it is dropped here, counted and traced.
            self.stats.oversized += 1;
            self.trace.emit_fields(
                Time::from_ns(ev.delivered_ns),
                self.src,
                "gw_oversize",
                &[
                    ("uid", ev.uid),
                    ("class", class_field(ev.class)),
                    ("len", ev.payload.len() as u64),
                ],
            );
        } else {
            self.stats.fanout += slots.len() as u64;
            self.trace.emit_fields(
                Time::from_ns(ev.delivered_ns),
                self.src,
                "gw_fanout",
                &[
                    ("uid", ev.uid),
                    ("class", class_field(ev.class)),
                    ("subs", slots.len() as u64),
                ],
            );
            for &slot in &slots {
                self.deliver(slot, &entries);
            }
        }
        self.subs.insert(ev.uid, slots);
    }

    /// Hand one event's entries to the lane in `slot`: straight to an
    /// attached sink when the queue would only pass the entry through
    /// ([`EgressQueue::is_direct`]), else queued under the lane's policy
    /// and flushed.
    fn deliver(&mut self, slot: usize, entries: &[EgressEntry]) {
        let watermark = self.watermark_ns;
        let Lane {
            queue,
            sink,
            session,
            policy,
            gone,
            ..
        } = &mut self.lanes[slot];
        if *gone {
            return;
        }
        let direct = match (entries, &sink) {
            ([entry], Some(_)) if queue.is_direct(entry, watermark) => Some(entry),
            _ => None,
        };
        if direct.is_none()
            && !entries
                .iter()
                .all(|e| queue.push(e.clone(), *policy, watermark) != PushOutcome::Disconnect)
        {
            return self.policy_kill(slot);
        }
        let Some(sink) = sink.as_deref_mut() else {
            return; // detached: the queue keeps filling
        };
        notify_sheds(&mut queue.stats, sink, &mut self.notice_buf);
        let offer = |item: FlushItem<'_>| offer_item(sink, session.as_deref_mut(), item);
        let alive = match direct {
            Some(entry) => queue.offer_direct(entry, offer),
            None => queue.flush(watermark, wire::NRT_BATCH_MAX, offer),
        };
        if !alive {
            self.sink_lost(slot);
        }
    }

    /// A policy kill ends the session for good — a consumer too slow
    /// while connected would only fall further behind across a resume.
    fn policy_kill(&mut self, slot: usize) {
        let lane = &mut self.lanes[slot];
        if let Some(sink) = lane.sink.as_mut() {
            let _ = sink.offer(&wire::encode_to_client(&ToClient::Disconnect {
                reason: Reason::Slow,
            }));
        }
        lane.kill(&mut self.stats);
        lock(&self.sessions).end(lane.client, false);
    }

    /// The lane's sink is gone: park a resumable session's lane in
    /// place, or tear down the lane of a client without a session. The
    /// detach is stamped with this worker's watermark, the bus time of
    /// the offer that failed, not with the gateway's clock when the
    /// worker gets to it.
    fn sink_lost(&mut self, slot: usize) {
        let lane = &mut self.lanes[slot];
        lane.sink = None;
        if !lock(&self.sessions).detach(lane.client, self.watermark_ns) {
            lane.kill(&mut self.stats);
        }
    }

    fn finish(mut self) -> ShardReport {
        let mut live: Vec<(u32, usize)> = self.slots.iter().map(|(&c, &s)| (c, s)).collect();
        live.sort_unstable();
        let mut lanes = std::mem::take(&mut self.closed);
        for (_, slot) in live {
            let lane = &mut self.lanes[slot];
            lane.last_call(u64::MAX);
            self.stats.undelivered += lane.queue.drain_remaining() as u64;
            lanes.push(lane.report(self.shard));
        }
        lanes.sort_by_key(|l| (l.client, l.shard));
        let delivered: u64 = lanes.iter().map(|l| l.stats.delivered_msgs).sum();
        let shed: u64 = lanes
            .iter()
            .map(|l| l.stats.shed_nrt + l.stats.shed_srt_stale + l.stats.shed_srt_cap)
            .sum();
        self.trace.emit_fields(
            Time::from_ns(self.watermark_ns),
            self.src,
            "gw_shard",
            &[
                ("shard", self.shard as u64),
                ("ingress", self.stats.ingress),
                ("fanout", self.stats.fanout),
                ("delivered", delivered),
                ("shed", shed),
                ("disconnects", self.stats.disconnects),
            ],
        );
        ShardReport {
            shard: self.shard,
            stats: self.stats,
            lanes,
        }
    }
}

/// Offer one replayed frame, retrying a busy sink a bounded number of
/// times. `false` when the sink is gone, or stayed busy so long it
/// counts as gone.
fn offer_retrying(sink: &mut dyn ClientSink, bytes: &[u8]) -> bool {
    for _ in 0..=RESUME_OFFER_RETRIES {
        match sink.offer(bytes) {
            SinkStatus::Accepted => return true,
            SinkStatus::Busy => thread::yield_now(),
            SinkStatus::Gone => return false,
        }
    }
    false
}

/// `(shed-NRT, cap-shed-SRT, stale-SRT)` snapshot for delta notices.
fn shed_counts(stats: &LaneStats) -> (u64, u64, u64) {
    (stats.shed_nrt, stats.shed_srt_cap, stats.shed_srt_stale)
}

/// Offer best-effort `Shed` notices covering what a lane has shed since
/// the last notice round, so clients observe the gap instead of silence
/// — one notice per (class, reason), so an SRT pressure shed is never
/// reported as NRT. Only an attached lane is notified (a detached
/// lane's sheds surface through watermark accounting at resume). Each
/// notice is encoded into `buf`, the worker's reused buffer, so a
/// notice allocates nothing.
fn notify_sheds(stats: &mut LaneStats, sink: &mut dyn ClientSink, buf: &mut Vec<u8>) {
    let (nrt, srt_cap, srt_stale) = shed_counts(stats);
    let notified = stats.shed_notified;
    let deltas = [
        (nrt - notified[0], ChannelClass::Nrt, Reason::Slow),
        (srt_cap - notified[1], ChannelClass::Srt, Reason::Slow),
        (srt_stale - notified[2], ChannelClass::Srt, Reason::Stale),
    ];
    for (count, class, reason) in deltas {
        if count == 0 {
            continue;
        }
        buf.clear();
        wire::encode_to_client_into(
            &ToClient::Shed {
                class,
                reason,
                count: count.min(u64::from(u32::MAX)) as u32,
            },
            buf,
        );
        let _ = sink.offer(buf);
    }
    stats.shed_notified = [nrt, srt_cap, srt_stale];
}

/// Offer one flush item to a lane's sink. A data frame the sink
/// accepts is counted in the lane's session, if it has one, and kept
/// in its replay ring with the entry's expiry: an `Event` or `Frag`
/// under its class, a `Batch` as NRT (only SRT has an expiry, and SRT
/// is never batched or fragmented).
fn offer_item(
    sink: &mut dyn ClientSink,
    session: Option<&mut SessionCore>,
    item: FlushItem<'_>,
) -> FlushVerdict {
    let status = match item {
        FlushItem::Single(e) => {
            let status = sink.offer(&e.encoded);
            if let (SinkStatus::Accepted, Some(core)) = (status, session) {
                core.record(e.class, e.expiry_ns, Arc::clone(&e.encoded));
            }
            status
        }
        FlushItem::Batch(es) => {
            let bytes = wire::encode_to_client(&ToClient::Batch {
                entries: es
                    .iter()
                    .map(|e| BatchEntry {
                        origin: e.origin,
                        uid: e.uid,
                        seq: e.seq,
                        wire_ns: e.wire_ns,
                        payload: e.payload.as_ref().clone(),
                    })
                    .collect(),
            });
            let status = sink.offer(&bytes);
            if let (SinkStatus::Accepted, Some(core)) = (status, session) {
                core.record(ChannelClass::Nrt, None, Arc::new(bytes));
            }
            status
        }
    };
    match status {
        SinkStatus::Accepted => FlushVerdict::Taken,
        SinkStatus::Busy => FlushVerdict::Blocked,
        SinkStatus::Gone => FlushVerdict::Lost,
    }
}

/// Timeliness class as a trace field value.
fn class_field(class: ChannelClass) -> u64 {
    match class {
        ChannelClass::Hrt => 0,
        ChannelClass::Srt => 1,
        ChannelClass::Nrt => 2,
    }
}

/// Pre-encode an ingress event, numbered `seq`, into the entries every
/// subscribed lane will queue: one `Event` message, or a fragment
/// stream for NRT bulk.
///
/// Never truncates: an NRT payload above [`wire::FRAG_CHUNK`] bytes is
/// split into fragments, and an HRT/SRT payload no single frame can carry
/// ([`wire::MAX_PAYLOAD`]) yields an *empty* vec — the caller drops
/// the event explicitly instead of corrupting the stream.
fn encode_entries(ev: &IngressEvent, seq: u32) -> Vec<EgressEntry> {
    let base = EgressEntry {
        class: ev.class,
        uid: ev.uid,
        origin: ev.origin,
        seq,
        wire_ns: ev.wire_ns,
        release_ns: ev.delivered_ns,
        expiry_ns: ev.expiry_ns,
        ingress_wall_ns: 0,
        payload: Arc::new(Vec::new()),
        encoded: Arc::new(Vec::new()),
        frag: false,
    };
    if ev.class != ChannelClass::Nrt && ev.payload.len() > wire::MAX_PAYLOAD {
        return Vec::new();
    }
    if ev.class != ChannelClass::Nrt || ev.payload.len() <= wire::FRAG_CHUNK {
        let payload = Arc::new(ev.payload.clone());
        let encoded = Arc::new(wire::encode_to_client(&ToClient::Event(EventMsg {
            class: ev.class,
            origin: ev.origin,
            uid: ev.uid,
            seq,
            wire_ns: ev.wire_ns,
            release_ns: ev.delivered_ns,
            payload: ev.payload.clone(),
        })));
        return vec![EgressEntry {
            payload,
            encoded,
            ..base
        }];
    }
    let total = ev.payload.len() as u32;
    ev.payload
        .chunks(wire::FRAG_CHUNK)
        .enumerate()
        .map(|(i, chunk)| {
            let encoded = Arc::new(wire::encode_to_client(&ToClient::Frag(FragMsg {
                origin: ev.origin,
                uid: ev.uid,
                seq,
                wire_ns: ev.wire_ns,
                offset: (i * wire::FRAG_CHUNK) as u32,
                total,
                chunk: chunk.to_vec(),
            })));
            EgressEntry {
                payload: Arc::new(chunk.to_vec()),
                encoded,
                frag: true,
                ..base.clone()
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    struct TakeAll;
    impl ClientSink for TakeAll {
        fn offer(&mut self, _bytes: &[u8]) -> SinkStatus {
            SinkStatus::Accepted
        }
    }

    /// Refuses every offer.
    struct Refuse;
    impl ClientSink for Refuse {
        fn offer(&mut self, _bytes: &[u8]) -> SinkStatus {
            SinkStatus::Gone
        }
    }

    /// Decodes and keeps every frame it accepts.
    struct Rec(Arc<Mutex<Vec<ToClient>>>);
    impl ClientSink for Rec {
        fn offer(&mut self, bytes: &[u8]) -> SinkStatus {
            let msg = wire::decode_to_client(bytes).expect("undecodable frame");
            lock(&self.0).push(msg);
            SinkStatus::Accepted
        }
    }

    fn ev(class: ChannelClass, len: usize) -> IngressEvent {
        IngressEvent {
            uid: 1,
            class,
            origin: 0,
            wire_ns: 0,
            delivered_ns: 0,
            expiry_ns: None,
            payload: vec![0xAB; len],
        }
    }

    /// NRT bulk is chunked at the fragment threshold; a payload at the
    /// threshold still goes as one `Event`.
    #[test]
    fn nrt_bulk_fragments_at_frag_chunk() {
        let chunk = wire::FRAG_CHUNK;
        let entries = encode_entries(&ev(ChannelClass::Nrt, 2 * chunk + chunk / 2), 0);
        assert_eq!(entries.len(), 3);
        assert!(entries.iter().all(|e| e.frag));
        assert_eq!(entries[0].payload.len(), chunk);
        assert_eq!(entries[2].payload.len(), chunk / 2);
        let single = encode_entries(&ev(ChannelClass::Nrt, chunk), 0);
        assert_eq!(single.len(), 1);
        assert!(!single[0].frag);
    }

    /// An HRT/SRT payload no single frame can carry yields no entries
    /// (the worker drops and counts it); the same payload as NRT bulk
    /// fragments instead. Nothing is ever truncated.
    #[test]
    fn oversized_hrt_is_rejected_not_truncated() {
        let over = wire::MAX_PAYLOAD + 1;
        assert!(encode_entries(&ev(ChannelClass::Hrt, over), 0).is_empty());
        assert!(encode_entries(&ev(ChannelClass::Srt, over), 0).is_empty());
        assert_eq!(
            encode_entries(&ev(ChannelClass::Hrt, wire::MAX_PAYLOAD), 0).len(),
            1
        );
        let frags = encode_entries(&ev(ChannelClass::Nrt, over), 0);
        assert!(frags.len() > 1);
        assert_eq!(
            frags.iter().map(|e| e.payload.len()).sum::<usize>(),
            over,
            "fragments must cover the payload exactly"
        );
    }

    /// A resume's verdict is counted when its replay completes, on the
    /// client's worker. A sink that refuses everything (here, the
    /// `Welcome`) aborts the resume: `aborted`, no verdict, and the
    /// session parks, resumable again. A resume posted after `finish`
    /// parks without counting. A completed socket resume's first frame
    /// is a `Welcome` carrying the verdict that was counted.
    #[test]
    fn a_verdict_is_counted_when_its_replay_completes() {
        let subject = Subject::new(0x2002);
        let srt = ChannelSpec::Srt(rtec_core::channel::SrtSpec::default());
        let none = || WmSource::Known(ClassWatermarks::default());
        let gateway = Gateway::new(GatewayConfig::default());
        gateway.bind(subject, &srt);
        let client = gateway.reserve_client();
        let token = gateway.open_session(client, &[subject], None);
        gateway.attach_session(client, Box::new(TakeAll));
        gateway.detach_session(client, 0);

        gateway
            .resume(token, none(), Box::new(Refuse), true)
            .expect("claim");
        let s = gateway.finish().sessions;
        assert_eq!((s.aborted, s.resumed, s.gapped), (1, 0, 0));
        assert_eq!(s.detached, 2, "the sever, then the aborted resume");

        let again = gateway.resume_session(token, none(), Box::new(TakeAll));
        assert_eq!(again, Ok((client, 2)), "the aborted session resumes");
        let s = gateway.session_stats();
        assert_eq!((s.aborted, s.resumed, s.gapped), (1, 0, 0));
        assert_eq!(s.detached, 3, "no worker: parked, not counted");

        // Three NRT frames go out; a ring of one keeps the last.
        let gateway = Gateway::new(GatewayConfig {
            workers: 1,
            resume_ring_cap: 1,
            ..GatewayConfig::default()
        });
        gateway.bind(subject, &srt);
        let client = gateway.reserve_client();
        let token = gateway.open_session(client, &[subject], None);
        gateway.attach_session(client, Box::new(TakeAll));
        for _ in 0..3 {
            let nrt = IngressEvent {
                uid: subject.uid(),
                ..ev(ChannelClass::Nrt, 4)
            };
            gateway.post(client, GwMsg::Event(Arc::new(nrt)));
        }
        gateway.detach_session(client, 0);
        let msgs = Arc::new(Mutex::new(Vec::new()));
        gateway
            .resume(token, none(), Box::new(Rec(Arc::clone(&msgs))), true)
            .expect("claim");
        let s = gateway.finish().sessions;
        assert_eq!((s.gapped, s.resumed, s.aborted, s.gap_frames), (1, 0, 0, 2));
        let got = lock(&msgs).clone();
        let welcome = ToClient::Welcome {
            client,
            now_ns: 0,
            session: Some(SessionInfo {
                token,
                verdict: ResumeVerdict::Gap,
            }),
        };
        let gap = ToClient::Gap {
            class: ChannelClass::Nrt,
            count: 2,
        };
        assert_eq!(got[..2], [welcome, gap]);
        assert!(
            matches!(&got[2..], [ToClient::Event(e), ToClient::Disconnect { .. }] if e.seq == 2),
            "the ring's one frame, then the shutdown goodbye: {got:?}"
        );
    }

    /// Shed notices carry the class of what was actually shed: an SRT
    /// pressure shed is reported as SRT, never lumped in as NRT.
    #[test]
    fn shed_notices_carry_the_shed_class() {
        let msgs = Arc::new(Mutex::new(Vec::new()));
        let mut sink = Rec(Arc::clone(&msgs));
        let mut stats = LaneStats {
            shed_nrt: 3,
            shed_srt_cap: 2,
            shed_srt_stale: 1,
            ..LaneStats::default()
        };
        let mut buf = Vec::new();
        notify_sheds(&mut stats, &mut sink, &mut buf);
        let got = msgs.lock().unwrap_or_else(|e| e.into_inner()).clone();
        assert_eq!(
            got,
            vec![
                ToClient::Shed {
                    class: ChannelClass::Nrt,
                    reason: Reason::Slow,
                    count: 3
                },
                ToClient::Shed {
                    class: ChannelClass::Srt,
                    reason: Reason::Slow,
                    count: 2
                },
                ToClient::Shed {
                    class: ChannelClass::Srt,
                    reason: Reason::Stale,
                    count: 1
                },
            ]
        );
        // A second round with no new sheds is silent.
        notify_sheds(&mut stats, &mut sink, &mut buf);
        assert_eq!(msgs.lock().unwrap_or_else(|e| e.into_inner()).len(), 3);
    }

    /// A session lane counts exactly the data frames its sink accepts —
    /// an event under its class, a batch as one NRT frame — and keeps
    /// the entry's encoded buffer in the ring instead of a copy; a
    /// refused offer counts nothing.
    #[test]
    fn a_session_lane_counts_what_its_sink_accepts() {
        let mut core = SessionCore::new(8);
        let mut sink = TakeAll;
        let mut queue = EgressQueue::new(8);
        let hrt = encode_entries(&ev(ChannelClass::Hrt, 4), 0);
        queue.push(hrt[0].clone(), SlowConsumerPolicy::ShedNrtFirst, 0);
        for _ in 0..2 {
            let nrt = encode_entries(&ev(ChannelClass::Nrt, 4), 0);
            queue.push(nrt[0].clone(), SlowConsumerPolicy::ShedNrtFirst, 0);
        }
        queue.flush(0, 8, |_| FlushVerdict::Blocked);
        queue.flush(0, 8, |item| offer_item(&mut sink, Some(&mut core), item));
        let sent = core.sent();
        assert_eq!((sent.hrt, sent.srt, sent.nrt), (1, 0, 1));
        assert_eq!(queue.stats.batches, 1);
        assert_eq!(Arc::strong_count(&hrt[0].encoded), 2, "entry + ring");
    }
}

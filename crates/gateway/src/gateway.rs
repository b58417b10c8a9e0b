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
//! A v2 client's session outlives its connection. When a sink dies
//! (severed TCP link, killed client), the lane is *detached in place*:
//! it stays inside its worker, keeps queueing events under its normal
//! policies (so SRT still sheds stale, HRT is never dropped), and the
//! session table remembers it for a bus-time TTL. A resuming client
//! presents its token and per-class receive watermarks; its worker
//! replays exactly the in-flight suffix from the session's bounded
//! replay ring (see `session.rs` for the per-class rules), reattaches
//! the lane, and flushes what queued while the client was away. A
//! gateway-*node* crash takes none of this down: the worker pool and
//! session table live outside the node behavior, so the supervisor
//! restarts the bus node and external clients resume against the new
//! incarnation.
//!
//! Workers are spawned through the `rtec_live::sync` facade, so the
//! loom model checker and the srclint C1–C6 rules cover this crate the
//! same way they cover the broker and node threads.

use crate::client::{ClientSink, ClientSinkSpec, SinkDigest, SinkHandle, SinkStatus};
use crate::egress::{
    EgressEntry, EgressQueue, FlushItem, FlushVerdict, LaneStats, PushOutcome, SlowConsumerPolicy,
};
use crate::session::{compute_replay, ResumeClaim, SessionCore, SessionStore};
use crate::wire::{self, BatchEntry, ClassWatermarks, EventMsg, FragMsg, Reason, ToClient};
use rtec_core::event::Delivery;
use rtec_core::{ChannelClass, ChannelSpec, Subject};
use rtec_live::node::{Behavior, NodeCtx};
use rtec_live::sync::atomic::{AtomicU64, Ordering};
use rtec_live::sync::{mpsc, thread, Arc, Mutex};
use rtec_sim::{SharedTraceSink, SourceId, Time};
use std::collections::HashMap;

pub use crate::session::SessionStats;
pub use crate::wire::ResumeVerdict;

/// Bounded `Busy` retries while replaying a resume suffix; a sink that
/// stays busy this long is treated as dead and the resume aborts.
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
    seq: u32,
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
    sink: SinkHandle,
    policy: SlowConsumerPolicy,
    /// The session's send-side accounting; `None` for a sessionless
    /// (v1) client.
    session: Option<Arc<Mutex<SessionCore>>>,
    /// Connection incarnation this sink belongs to; an attach older
    /// than the lane's is ignored.
    incarnation: u32,
    /// Set for a resume: replay the missing suffix into the new sink
    /// before it takes over the lane.
    resume: Option<Resume>,
}

/// The replay half of a resume.
struct Resume {
    core: Arc<Mutex<SessionCore>>,
    wm: WmSource,
    /// The verdict is already on the wire and in the session counters
    /// ([`Gateway::begin_resume`]).
    announced: bool,
    /// Bus-time high-water mark captured at the caller — deterministic
    /// when the caller is a node thread.
    now_ns: u64,
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
    meta: Arc<Mutex<HashMap<u64, SubjectMeta>>>,
    sessions: Arc<Mutex<SessionStore>>,
    /// Bus-time high-water mark over all deliveries: the session TTL
    /// clock, advanced by the behavior thread.
    now_wm: Arc<AtomicU64>,
    /// Per-subject egress sequence counters. Shared (not per-behavior)
    /// so sequence numbers keep counting across gateway-node restarts
    /// — a resumed client must never see `seq` go backwards.
    seqs: Arc<Mutex<HashMap<u64, u32>>>,
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
        let sessions = Arc::new(Mutex::new(SessionStore::new(
            cfg.session_ttl_ns,
            cfg.resume_ring_cap,
            Arc::clone(&now_wm),
        )));
        let meta: Arc<Mutex<HashMap<u64, SubjectMeta>>> = Arc::new(Mutex::new(HashMap::new()));
        let mut senders = Vec::with_capacity(workers);
        let mut handles = Vec::with_capacity(workers);
        for shard in 0..workers {
            // Bounded: a full channel backpressures the gateway node,
            // never drops.
            let (tx, rx) = mpsc::bounded(mpsc::DEFAULT_DEPTH);
            let mut state = WorkerState {
                shard,
                cap: cfg.client_queue_cap.max(1),
                subs: HashMap::new(),
                lanes: Vec::new(),
                slots: HashMap::new(),
                free: Vec::new(),
                closed: Vec::new(),
                watermark_ns: 0,
                stats: ShardStats::default(),
                notice_buf: Vec::new(),
                sessions: Arc::clone(&sessions),
                meta: Arc::clone(&meta),
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
                meta,
                sessions,
                now_wm,
                seqs: Arc::new(Mutex::new(HashMap::new())),
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
        self.inner
            .meta
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .insert(
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

    /// Register a client subscribed to `subjects`; returns its id.
    ///
    /// Equivalent to [`Gateway::reserve_client`] followed by
    /// [`Gateway::register_client`], for callers with no handshake to
    /// order against fanout.
    pub fn add_client(
        &self,
        subjects: &[Subject],
        spec: &ClientSinkSpec,
        policy: Option<SlowConsumerPolicy>,
    ) -> u32 {
        let client = self.reserve_client();
        self.register_client(client, subjects, spec, policy);
        client
    }

    /// Mint a client id without registering any lane — nothing is
    /// delivered to the client yet. Lets a transport finish its
    /// handshake (e.g. write `Welcome` carrying the id) before any
    /// fanout worker can write to the client's sink.
    pub fn reserve_client(&self) -> u32 {
        let mut next = self
            .inner
            .next_client
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        let id = *next;
        *next += 1;
        id
    }

    /// Register a reserved client's subscriptions; delivery starts now.
    ///
    /// The client's worker mints the lane's sink from `spec`. With no
    /// `policy` the gateway default applies. This is the sessionless
    /// (v1) path: a dead sink tears the lane down.
    pub fn register_client(
        &self,
        client: u32,
        subjects: &[Subject],
        spec: &ClientSinkSpec,
        policy: Option<SlowConsumerPolicy>,
    ) {
        self.attach(Attach {
            client,
            uids: subjects.iter().map(|s| s.uid()).collect(),
            sink: spec.instantiate(client, self.worker_of(client)),
            policy: policy.unwrap_or(DEFAULT_POLICY),
            session: None,
            incarnation: 0,
            resume: None,
        });
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
        self.inner
            .sessions
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .open(client, uids, policy)
    }

    /// Attach a sink to an open session; delivery starts now. The
    /// client's lane keeps the session's frame accounting.
    pub fn attach_session(&self, client: u32, sink: Box<dyn ClientSink>) {
        let attach = {
            let store = self
                .inner
                .sessions
                .lock()
                .unwrap_or_else(|e| e.into_inner());
            let Some(e) = store.entry(client) else {
                return;
            };
            Attach {
                client,
                uids: e.subjects.clone(),
                sink: SinkHandle::Own(sink),
                policy: e.policy,
                session: Some(Arc::clone(&e.core)),
                incarnation: e.incarnation,
                resume: None,
            }
        };
        self.attach(attach);
    }

    /// Validate a resume attempt and claim the session for a new
    /// incarnation, *without* starting the replay — so a transport can
    /// write `Welcome` (carrying the verdict) before any replayed
    /// frame hits the stream. Follow with [`Gateway::commit_resume`]
    /// or [`Gateway::abort_resume`].
    ///
    /// On `Err` the token is spent; the caller falls back to a fresh
    /// session.
    pub fn begin_resume(
        &self,
        token: u64,
        wm: ClassWatermarks,
    ) -> Result<ResumePending, ResumeVerdict> {
        let claim = self
            .inner
            .sessions
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .claim_resume(token)?;
        // Sound preview: the old sink is dead (or about to be
        // parked), so the sent counters it reads are what the replay
        // will repair against.
        let verdict = claim
            .core
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .preview(&wm);
        // Counted before the caller can put it on the wire: a client
        // that has read its verdict is in the report, whatever
        // `finish` races the commit.
        *self
            .inner
            .sessions
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .verdict_counter(verdict) += 1;
        Ok(ResumePending { claim, wm, verdict })
    }

    /// Start the replay and reattach the session's lane to `sink`.
    pub fn commit_resume(&self, pending: ResumePending, sink: Box<dyn ClientSink>) {
        self.do_resume(pending.claim, WmSource::Known(pending.wm), true, sink);
    }

    /// The `Welcome` never reached the client: take its verdict back
    /// out of the counters and put the session back in the detached
    /// state so the client can retry within the TTL.
    pub fn abort_resume(&self, pending: ResumePending) {
        let mut store = self
            .inner
            .sessions
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        *store.verdict_counter(pending.verdict) -= 1;
        store.detach(pending.claim.client);
    }

    /// One-shot resume for in-process sinks: claim, replay, reattach.
    /// Returns `(client, incarnation)` or the refusal verdict.
    pub fn resume_session(
        &self,
        token: u64,
        wm: WmSource,
        sink: Box<dyn ClientSink>,
    ) -> Result<(u32, u32), ResumeVerdict> {
        let claim = self
            .inner
            .sessions
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .claim_resume(token)?;
        let out = (claim.client, claim.incarnation);
        self.do_resume(claim, wm, false, sink);
        Ok(out)
    }

    fn do_resume(
        &self,
        claim: ResumeClaim,
        wm: WmSource,
        announced: bool,
        sink: Box<dyn ClientSink>,
    ) {
        let now_ns = self.inner.now_wm.load(Ordering::SeqCst);
        self.attach(Attach {
            client: claim.client,
            uids: claim.subjects,
            sink: SinkHandle::Own(sink),
            policy: claim.policy,
            session: Some(Arc::clone(&claim.core)),
            incarnation: claim.incarnation,
            resume: Some(Resume {
                core: claim.core,
                wm,
                announced,
                now_ns,
            }),
        });
    }

    /// Hand an attach to the client's worker. When the worker pool is
    /// gone ([`Gateway::finish`] won the race) a session just attached
    /// or claimed has no lane to live on, so it is parked — resumable
    /// within the TTL — rather than left `Attached` to nothing.
    fn attach(&self, attach: Attach) {
        let client = attach.client;
        if !self.post(client, GwMsg::Attach(Box::new(attach))) {
            self.inner
                .sessions
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .detach(client);
        }
    }

    /// Post `msg` to the worker that owns `client`; `false` once
    /// [`Gateway::finish`] has taken the worker pool.
    fn post(&self, client: u32, msg: GwMsg) -> bool {
        let pool = self.inner.senders.lock().unwrap_or_else(|e| e.into_inner());
        let Some(senders) = pool.as_ref() else {
            return false;
        };
        let _ = senders[self.worker_of(client)].send(msg);
        true
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
            let mut store = self
                .inner
                .sessions
                .lock()
                .unwrap_or_else(|e| e.into_inner());
            if store.entry(client).map(|e| e.incarnation) != Some(incarnation) {
                return;
            }
            store.detach(client);
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
    /// Also the teardown path for sessionless (v1) clients.
    pub fn close_session(&self, client: u32) {
        self.inner
            .sessions
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .end(client, true);
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
        self.inner
            .sessions
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .stats
    }

    /// The cluster behavior for the gateway node. Bind every subject
    /// first ([`Gateway::bind`]); deliveries for unbound subjects are
    /// ignored.
    ///
    /// May be called once per gateway-*node* incarnation: sequence
    /// counters and the TTL clock are shared across behaviors, so a
    /// supervised restart of the bus node does not disturb client
    /// sessions.
    pub fn behavior(&self) -> Box<dyn Behavior> {
        let senders = self
            .inner
            .senders
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
            .unwrap_or_default();
        let meta = self
            .inner
            .meta
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone();
        Box::new(GatewayBehavior {
            senders,
            meta,
            seqs: Arc::clone(&self.inner.seqs),
            now_wm: Arc::clone(&self.inner.now_wm),
        })
    }

    /// Shut the workers down (flushing what their sinks will still
    /// take) and collect the report. Idempotent: a second call returns
    /// an empty report.
    pub fn finish(&self) -> GatewayReport {
        if let Some(senders) = self
            .inner
            .senders
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .take()
        {
            for tx in &senders {
                let _ = tx.send(GwMsg::Shutdown);
            }
        }
        let handles = self
            .inner
            .handles
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .take()
            .unwrap_or_default();
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

/// A resume claim waiting for its transport to finish the handshake.
pub struct ResumePending {
    claim: ResumeClaim,
    wm: ClassWatermarks,
    verdict: ResumeVerdict,
}

impl ResumePending {
    /// The resumed client's id.
    pub fn client(&self) -> u32 {
        self.claim.client
    }

    /// The session token (unchanged across resumes).
    pub fn token(&self) -> u64 {
        self.claim.token
    }

    /// The new connection incarnation.
    pub fn incarnation(&self) -> u32 {
        self.claim.incarnation
    }

    /// The verdict the `Welcome` should carry.
    pub fn verdict(&self) -> ResumeVerdict {
        self.verdict
    }
}

/// The gateway node's cluster behavior: classify, stamp, hand to every
/// worker.
struct GatewayBehavior {
    senders: Vec<mpsc::SyncSender<GwMsg>>,
    meta: HashMap<u64, SubjectMeta>,
    seqs: Arc<Mutex<HashMap<u64, u32>>>,
    now_wm: Arc<AtomicU64>,
}

impl Behavior for GatewayBehavior {
    fn on_delivery(&mut self, _ctx: &mut NodeCtx<'_>, delivery: &Delivery) {
        let uid = delivery.event.subject.uid();
        let Some(meta) = self.meta.get(&uid) else {
            return;
        };
        let seq = {
            let mut seqs = self.seqs.lock().unwrap_or_else(|e| e.into_inner());
            let s = seqs.entry(uid).or_insert(0);
            let v = *s;
            *s += 1;
            v
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
            seq,
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
    sink: Option<SinkHandle>,
    /// The session's send-side accounting (`None` for a sessionless
    /// client): every data frame the sink accepts is counted and kept
    /// for replay.
    session: Option<Arc<Mutex<SessionCore>>>,
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
        let Some(sink) = sink.as_mut() else {
            return true;
        };
        queue.flush(watermark, wire::NRT_BATCH_MAX, |item| {
            offer_item(sink, session.as_deref(), item)
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
    meta: Arc<Mutex<HashMap<u64, SubjectMeta>>>,
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
        lane.session = a.session;
        let mut sink = a.sink;
        match a.resume {
            Some(resume) => {
                // Park the old connection first: the counters the
                // replay repairs against are frozen from here on.
                lane.sink = None;
                lane.gone = false;
                if !self.replay(a.client, &mut sink, resume) {
                    return; // the new sink died mid-replay: stay parked
                }
            }
            None if lane.gone => return,
            None => {}
        }
        let lane = &mut self.lanes[slot];
        lane.sink = Some(sink);
        // Release what queued while the lane was detached.
        if !lane.flush(self.watermark_ns) {
            self.sink_lost(slot);
        }
    }

    /// Replay a resuming client's missing suffix into its new sink,
    /// ahead of anything the lane flushes. The frames go to the raw
    /// sink, past the lane's accounting: they were counted when first
    /// sent. Returns `false` when the sink died mid-replay (the resume
    /// aborts and the session stays parked).
    fn replay(&mut self, client: u32, sink: &mut SinkHandle, resume: Resume) -> bool {
        let wm = match resume.wm {
            WmSource::Known(wm) => wm,
            WmSource::Deferred(f) => f(),
        };
        let plan = {
            let meta = self.meta.lock().unwrap_or_else(|e| e.into_inner());
            let core = resume.core.lock().unwrap_or_else(|e| e.into_inner());
            compute_replay(
                &core,
                |uid| meta.get(&uid).and_then(|m| m.stale_ns),
                resume.now_ns,
                &wm,
            )
        };
        let notices = plan.notices.iter().map(|(_, _, bytes)| bytes.as_slice());
        let frames = plan.frames.iter().map(|f| f.as_slice());
        let alive = notices
            .chain(frames)
            .all(|bytes| offer_retrying(sink, bytes));
        self.sessions
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .resume_done(client, &plan, !alive, resume.announced);
        let at = Time::from_ns(resume.now_ns.max(self.watermark_ns));
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
        // Lent out of the table for the loop, so each lane can be
        // settled through `&mut self`; no lane (un)subscribes meanwhile.
        let slots = match self.subs.get_mut(&ev.uid) {
            Some(v) if !v.is_empty() => std::mem::take(v),
            _ => return,
        };
        let entries = encode_entries(ev);
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
        let Some(sink) = sink.as_mut() else {
            return; // detached: the queue keeps filling
        };
        notify_sheds(&mut queue.stats, sink, &mut self.notice_buf);
        let offer = |item: FlushItem<'_>| offer_item(sink, session.as_deref(), item);
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
        self.sessions
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .end(lane.client, false);
    }

    /// The lane's sink is gone: park a resumable session's lane in
    /// place, or tear a sessionless lane down the legacy way.
    fn sink_lost(&mut self, slot: usize) {
        let lane = &mut self.lanes[slot];
        lane.sink = None;
        let park = self
            .sessions
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .detach(lane.client);
        if !park {
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
fn offer_retrying(sink: &mut SinkHandle, bytes: &[u8]) -> bool {
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
fn notify_sheds(stats: &mut LaneStats, sink: &mut SinkHandle, buf: &mut Vec<u8>) {
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
/// in its replay ring: an `Event` as `(class, uid, release)`, a `Batch`
/// or `Frag` as NRT with no subject (only SRT staleness reads the uid,
/// and SRT is never batched or fragmented).
fn offer_item(
    sink: &mut SinkHandle,
    session: Option<&Mutex<SessionCore>>,
    item: FlushItem<'_>,
) -> FlushVerdict {
    let status = match item {
        FlushItem::Single(e) => {
            let status = sink.offer(&e.encoded);
            if let (SinkStatus::Accepted, Some(core)) = (status, session) {
                let (class, uid, release_ns) = if e.frag {
                    (ChannelClass::Nrt, 0, 0)
                } else {
                    (e.class, e.uid, e.release_ns)
                };
                core.lock().unwrap_or_else(|e| e.into_inner()).record(
                    class,
                    uid,
                    release_ns,
                    Arc::clone(&e.encoded),
                );
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
                core.lock().unwrap_or_else(|e| e.into_inner()).record(
                    ChannelClass::Nrt,
                    0,
                    0,
                    Arc::new(bytes),
                );
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

/// Pre-encode an ingress event into the entries every subscribed lane
/// will queue: one `Event` message, or a fragment stream for NRT bulk.
///
/// Never truncates: an NRT payload above [`wire::FRAG_CHUNK`] bytes is
/// split into fragments, and an HRT/SRT payload no single frame can carry
/// ([`wire::MAX_PAYLOAD`]) yields an *empty* vec — the caller drops
/// the event explicitly instead of corrupting the stream.
fn encode_entries(ev: &IngressEvent) -> Vec<EgressEntry> {
    let base = EgressEntry {
        class: ev.class,
        uid: ev.uid,
        origin: ev.origin,
        seq: ev.seq,
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
            seq: ev.seq,
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
                seq: ev.seq,
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

    fn ev(class: ChannelClass, len: usize) -> IngressEvent {
        IngressEvent {
            uid: 1,
            class,
            origin: 0,
            seq: 0,
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
        let entries = encode_entries(&ev(ChannelClass::Nrt, 2 * chunk + chunk / 2));
        assert_eq!(entries.len(), 3);
        assert!(entries.iter().all(|e| e.frag));
        assert_eq!(entries[0].payload.len(), chunk);
        assert_eq!(entries[2].payload.len(), chunk / 2);
        let single = encode_entries(&ev(ChannelClass::Nrt, chunk));
        assert_eq!(single.len(), 1);
        assert!(!single[0].frag);
    }

    /// An HRT/SRT payload no single frame can carry yields no entries
    /// (the worker drops and counts it); the same payload as NRT bulk
    /// fragments instead. Nothing is ever truncated.
    #[test]
    fn oversized_hrt_is_rejected_not_truncated() {
        let over = wire::MAX_PAYLOAD + 1;
        assert!(encode_entries(&ev(ChannelClass::Hrt, over)).is_empty());
        assert!(encode_entries(&ev(ChannelClass::Srt, over)).is_empty());
        assert_eq!(
            encode_entries(&ev(ChannelClass::Hrt, wire::MAX_PAYLOAD)).len(),
            1
        );
        let frags = encode_entries(&ev(ChannelClass::Nrt, over));
        assert!(frags.len() > 1);
        assert_eq!(
            frags.iter().map(|e| e.payload.len()).sum::<usize>(),
            over,
            "fragments must cover the payload exactly"
        );
    }

    /// The wire handshake's two steps with `finish` forced in between
    /// (the race a fast client can win on real sockets): the verdict a
    /// client may already have read is in the report, and the session
    /// the commit finds no worker for is parked, not left `Attached` to
    /// nothing. A `Welcome` that never left takes its verdict back.
    #[test]
    fn a_verdict_is_counted_before_the_wire_and_survives_finish() {
        let subject = Subject::new(0x2002);
        let gateway = Gateway::new(GatewayConfig::default());
        let srt = rtec_core::channel::SrtSpec::default();
        gateway.bind(subject, &ChannelSpec::Srt(srt));
        let client = gateway.reserve_client();
        let token = gateway.open_session(client, &[subject], None);
        gateway.attach_session(client, Box::new(TakeAll));
        gateway.detach_session(client, 0);

        let unsent = gateway
            .begin_resume(token, ClassWatermarks::default())
            .expect("claim");
        assert_eq!(gateway.session_stats().resumed, 1);
        gateway.abort_resume(unsent);
        assert_eq!(gateway.session_stats().resumed, 0, "taken back");

        let pending = gateway
            .begin_resume(token, ClassWatermarks::default())
            .expect("claim");
        assert_eq!(pending.verdict(), ResumeVerdict::Resumed);
        let report = gateway.finish();
        gateway.commit_resume(pending, Box::new(TakeAll));
        assert_eq!(
            report.sessions.resumed, 1,
            "the report agrees with the wire"
        );
        let parked = gateway.session_stats().detached;
        assert_eq!(parked, 3, "sever, aborted resume, commit after finish");
    }

    /// Shed notices carry the class of what was actually shed: an SRT
    /// pressure shed is reported as SRT, never lumped in as NRT.
    #[test]
    fn shed_notices_carry_the_shed_class() {
        struct Rec(Arc<Mutex<Vec<ToClient>>>);
        impl ClientSink for Rec {
            fn offer(&mut self, bytes: &[u8]) -> SinkStatus {
                let msg = wire::decode_to_client(bytes).expect("undecodable notice");
                self.0.lock().unwrap_or_else(|e| e.into_inner()).push(msg);
                SinkStatus::Accepted
            }
        }
        let msgs = Arc::new(Mutex::new(Vec::new()));
        let mut sink = SinkHandle::Own(Box::new(Rec(Arc::clone(&msgs))));
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
        let core = Mutex::new(SessionCore::new(8));
        let mut sink = SinkHandle::Own(Box::new(TakeAll));
        let mut queue = EgressQueue::new(8);
        let hrt = encode_entries(&ev(ChannelClass::Hrt, 4));
        queue.push(hrt[0].clone(), SlowConsumerPolicy::ShedNrtFirst, 0);
        for _ in 0..2 {
            let nrt = encode_entries(&ev(ChannelClass::Nrt, 4));
            queue.push(nrt[0].clone(), SlowConsumerPolicy::ShedNrtFirst, 0);
        }
        queue.flush(0, 8, |_| FlushVerdict::Blocked);
        queue.flush(0, 8, |item| offer_item(&mut sink, Some(&core), item));
        let sent = core.lock().unwrap_or_else(|e| e.into_inner()).sent();
        assert_eq!((sent.hrt, sent.srt, sent.nrt), (1, 0, 1));
        assert_eq!(queue.stats.batches, 1);
        assert_eq!(Arc::strong_count(&hrt[0].encoded), 2, "entry + ring");
    }
}

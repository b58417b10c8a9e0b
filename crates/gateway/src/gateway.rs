//! The gateway runtime: a cluster [`Behavior`] feeding sharded fanout
//! workers.
//!
//! The gateway joins the live cluster as an ordinary node — it speaks
//! the broker protocol through the same `NodeTransport`, subscribes
//! like any middleware instance, and obeys the lock-step turn
//! discipline. What makes it a gateway is what happens *after*
//! delivery: each delivered event is classified, stamped and handed to
//! one of N fanout workers, chosen by [`Subject::shard_of`] — so all
//! events of one subject are serialized through one worker and
//! per-subject FIFO order costs nothing. Each worker owns the egress
//! state of every client lane it serves (subscription table slice,
//! bounded [`EgressQueue`]s, sinks): no cross-worker locks, and a
//! same-seed run replays every queueing and shedding decision exactly.
//!
//! # Sessions and crash tolerance
//!
//! A v2 client's session outlives its connection. When a sink dies
//! (severed TCP link, killed client), the lane is *detached in place*:
//! it stays inside its worker, keeps queueing events under its normal
//! policies (so SRT still sheds stale, HRT is never dropped), and the
//! session table remembers it for a bus-time TTL. A resuming client
//! presents its token and per-class receive watermarks; the gateway
//! replays exactly the in-flight suffix from the session's bounded
//! replay ring (see `session.rs` for the per-class rules), reattaches
//! every lane, and flushes what queued while the client was away. A
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
use crate::session::{compute_replay, ResumeClaim, SessionCore, SessionSink, SessionStore};
use crate::wire::{self, BatchEntry, ClassWatermarks, EventMsg, FragMsg, Reason, ToClient};
use rtec_core::event::Delivery;
use rtec_core::{ChannelClass, ChannelSpec, Subject};
use rtec_live::node::{Behavior, NodeCtx};
use rtec_live::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use rtec_live::sync::{mpsc, thread, Arc, Mutex};
use rtec_sim::{SharedTraceSink, SourceId, Time};
use std::collections::{BTreeMap, HashMap};

pub use crate::session::SessionStats;
pub use crate::wire::ResumeVerdict;

/// Bounded `Busy` retries while replaying a resume suffix; a sink that
/// stays busy this long is treated as dead and the resume aborts.
const RESUME_OFFER_RETRIES: usize = 1 << 12;

/// Gateway construction parameters.
pub struct GatewayConfig {
    /// Fanout worker threads (subjects are sharded across them).
    pub workers: usize,
    /// Bound of each (client, shard) egress queue, in entries.
    pub client_queue_cap: usize,
    /// Most NRT events coalesced into one batch message.
    pub nrt_batch_max: usize,
    /// NRT payloads above this many bytes are fragment-streamed.
    pub frag_chunk: usize,
    /// Depth of each worker's ingress channel (bounded; a full channel
    /// backpressures the gateway node, never drops).
    pub ingress_depth: usize,
    /// Policy for clients that register without one of their own.
    pub default_policy: SlowConsumerPolicy,
    /// How long (bus time) a detached session stays resumable.
    pub session_ttl_ns: u64,
    /// Per-class replay ring bound, in frames. Misses beyond it become
    /// explicit `Gap` notices at resume.
    pub resume_ring_cap: usize,
    /// Trace sink shared with the cluster (see `Cluster::use_sink`) so
    /// gateway records merge into the audited trace.
    pub sink: SharedTraceSink,
    /// Also emit per-occurrence shed/disconnect records (off by
    /// default: a 10k-client bench would flood a bounded trace ring).
    pub trace_verbose: bool,
}

impl Default for GatewayConfig {
    fn default() -> Self {
        GatewayConfig {
            workers: 4,
            client_queue_cap: 64,
            nrt_batch_max: 8,
            frag_chunk: 256,
            ingress_depth: mpsc::DEFAULT_DEPTH,
            default_policy: SlowConsumerPolicy::ShedNrtFirst,
            session_ttl_ns: 1_000_000_000,
            resume_ring_cap: 128,
            sink: SharedTraceSink::disabled(),
            trace_verbose: false,
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
/// wire handshake carries them), or resolved by the designated worker
/// at its FIFO point — after the deregister that precedes it, when the
/// old sink is dead and the counters are frozen — which is what makes
/// a simulated resume deterministic.
pub enum WmSource {
    /// The watermarks as the client reported them.
    Known(ClassWatermarks),
    /// Resolve on the worker thread, at the resume's queue position.
    Deferred(Box<dyn FnOnce() -> ClassWatermarks + Send>),
}

/// Everything the designated shard needs to run one resume.
struct ResumeMsg {
    client: u32,
    incarnation: u32,
    uids: Vec<u64>,
    core: Arc<Mutex<SessionCore>>,
    wm: WmSource,
    /// The verdict is already on the wire and in the session counters
    /// ([`Gateway::begin_resume`]).
    announced: bool,
    /// Bus-time high-water mark captured at the caller — deterministic
    /// when the caller is the gateway behavior thread.
    now_ns: u64,
    shared: Arc<Mutex<Box<dyn ClientSink>>>,
    policy: SlowConsumerPolicy,
    gate: Arc<AtomicBool>,
}

/// Worker mailbox messages.
enum GwMsg {
    Register {
        client: u32,
        uids: Vec<u64>,
        sink: SinkHandle,
        policy: SlowConsumerPolicy,
        /// Connection incarnation this sink belongs to; stale messages
        /// (older incarnation than the lane's) are ignored.
        incarnation: u32,
        /// When set, hold the reattach until the designated shard has
        /// finished replaying — fresh flushes must not overtake the
        /// replayed suffix on the shared stream.
        gate: Option<Arc<AtomicBool>>,
    },
    Deregister {
        client: u32,
        /// `true` parks the lane (detach in place, session resumable);
        /// `false` tears it down for good.
        park: bool,
        incarnation: u32,
    },
    Resume(Box<ResumeMsg>),
    Event(Box<IngressEvent>),
    Shutdown,
}

/// Per-shard counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ShardStats {
    /// Events received from the bus node.
    pub ingress: u64,
    /// (event, lane) deliveries attempted.
    pub fanout: u64,
    /// Lanes torn down by a slow-consumer policy.
    pub disconnects: u64,
    /// Entries still queued when the lane ended.
    pub undelivered: u64,
    /// HRT/SRT events dropped because their payload cannot be encoded
    /// in a single wire frame (only NRT fragments — see
    /// [`wire::MAX_PAYLOAD`]).
    pub oversized: u64,
}

/// Outcome of one (client, shard) lane.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LaneReport {
    /// Client id.
    pub client: u32,
    /// Shard that served this lane.
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
    /// Events received from the bus node (summed over shards).
    pub ingress: u64,
    /// (event, lane) deliveries attempted.
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
    /// Un-encodable HRT/SRT bulk events dropped at ingress.
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
    /// Per-shard counters, indexed by shard.
    pub shards: Vec<ShardStats>,
    /// Per-lane outcomes, sorted by (client, shard). Lane digests are
    /// the determinism contract: same seed ⇒ byte-identical.
    pub lanes: Vec<LaneReport>,
    /// Session lifecycle and replay counters.
    pub sessions: SessionStats,
}

struct Inner {
    workers: usize,
    default_policy: SlowConsumerPolicy,
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

/// Subject uids grouped by the shard that owns them.
fn split_shards(uids: &[u64], workers: usize) -> BTreeMap<usize, Vec<u64>> {
    let mut by_shard: BTreeMap<usize, Vec<u64>> = BTreeMap::new();
    for &uid in uids {
        by_shard
            .entry(Subject::new(uid).shard_of(workers))
            .or_default()
            .push(uid);
    }
    by_shard
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
            let (tx, rx) = mpsc::bounded(cfg.ingress_depth.max(1));
            let mut state = WorkerState {
                shard,
                cap: cfg.client_queue_cap.max(1),
                batch_max: cfg.nrt_batch_max.max(1),
                // Clamped so every fragment still fits a wire frame.
                frag_chunk: cfg.frag_chunk.clamp(1, wire::MAX_PAYLOAD),
                trace_verbose: cfg.trace_verbose,
                subs: HashMap::new(),
                lanes: HashMap::new(),
                closed: Vec::new(),
                watermark_ns: 0,
                stats: ShardStats::default(),
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
                            Ok(GwMsg::Register {
                                client,
                                uids,
                                sink,
                                policy,
                                incarnation,
                                gate,
                            }) => {
                                if let Some(gate) = gate {
                                    // A resume is replaying on the
                                    // designated shard: hold this
                                    // reattach until the replayed
                                    // suffix is on the stream, so a
                                    // fresh flush cannot overtake it.
                                    while !gate.load(Ordering::SeqCst) {
                                        thread::yield_now();
                                    }
                                }
                                state.register(client, uids, sink, policy, incarnation);
                            }
                            Ok(GwMsg::Deregister {
                                client,
                                park,
                                incarnation,
                            }) => state.deregister(client, park, incarnation),
                            Ok(GwMsg::Resume(msg)) => state.resume(*msg),
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
                default_policy: cfg.default_policy,
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

    /// Number of fanout workers (shards).
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
    /// The subscription set is split by shard; each involved worker
    /// gets a `Register` message and mints the lane's sink from
    /// `spec`. With no `policy` the gateway default applies. This is
    /// the sessionless (v1) path: a dead sink tears the lane down.
    pub fn register_client(
        &self,
        client: u32,
        subjects: &[Subject],
        spec: &ClientSinkSpec,
        policy: Option<SlowConsumerPolicy>,
    ) {
        let policy = policy.unwrap_or(self.inner.default_policy);
        let uids: Vec<u64> = subjects.iter().map(|s| s.uid()).collect();
        let senders = self.inner.senders.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(senders) = senders.as_ref() {
            for (shard, uids) in split_shards(&uids, self.inner.workers) {
                let sink = spec.instantiate(client, shard);
                let _ = senders[shard].send(GwMsg::Register {
                    client,
                    uids,
                    sink,
                    policy,
                    incarnation: 0,
                    gate: None,
                });
            }
        }
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
        let policy = policy.unwrap_or(self.inner.default_policy);
        let uids: Vec<u64> = subjects.iter().map(|s| s.uid()).collect();
        self.inner
            .sessions
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .open(client, uids, policy)
    }

    /// Attach a sink to an open session; delivery starts now. The sink
    /// is wrapped in the session's frame accounting and shared across
    /// the session's shards.
    pub fn attach_session(&self, client: u32, sink: Box<dyn ClientSink>) {
        let (uids, policy, core, incarnation) = {
            let store = self
                .inner
                .sessions
                .lock()
                .unwrap_or_else(|e| e.into_inner());
            let Some(e) = store.entry(client) else {
                return;
            };
            (
                e.subjects.clone(),
                e.policy,
                Arc::clone(&e.core),
                e.incarnation,
            )
        };
        let shared: Arc<Mutex<Box<dyn ClientSink>>> =
            Arc::new(Mutex::new(Box::new(SessionSink::new(core, sink))));
        let pool = self.inner.senders.lock().unwrap_or_else(|e| e.into_inner());
        let Some(senders) = pool.as_ref() else {
            drop(pool);
            return self.park_without_lanes(client);
        };
        for (shard, uids) in split_shards(&uids, self.inner.workers) {
            let _ = senders[shard].send(GwMsg::Register {
                client,
                uids,
                sink: SinkHandle::Shared(Arc::clone(&shared)),
                policy,
                incarnation,
                gate: None,
            });
        }
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
        // deregistered), so the sent counters it reads are what the
        // replay will repair against.
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

    /// Start the replay and reattach the session's lanes to `sink`.
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

    /// The worker pool is gone ([`Gateway::finish`] won the race): a
    /// session just attached or claimed has no lanes to live on, so
    /// park it — resumable within the TTL — rather than leave it
    /// `Attached` to nothing.
    fn park_without_lanes(&self, client: u32) {
        self.inner
            .sessions
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .detach(client);
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
        let shared: Arc<Mutex<Box<dyn ClientSink>>> = Arc::new(Mutex::new(Box::new(
            SessionSink::new(Arc::clone(&claim.core), sink),
        )));
        let mut by_shard = split_shards(&claim.subjects, self.inner.workers);
        if by_shard.is_empty() {
            by_shard.insert(0, Vec::new());
        }
        let designated = *by_shard.keys().next().expect("nonempty shard set");
        let gate = Arc::new(AtomicBool::new(false));
        let pool = self.inner.senders.lock().unwrap_or_else(|e| e.into_inner());
        let Some(senders) = pool.as_ref() else {
            drop(pool);
            return self.park_without_lanes(claim.client);
        };
        // Park every old lane first (FIFO per shard ⇒ the park lands
        // before the reattach), then reattach: the designated shard
        // replays, the rest wait on the gate.
        for &shard in by_shard.keys() {
            let _ = senders[shard].send(GwMsg::Deregister {
                client: claim.client,
                park: true,
                incarnation: claim.incarnation.saturating_sub(1),
            });
        }
        let mut wm = Some(wm);
        for (shard, uids) in by_shard {
            if shard == designated {
                let _ = senders[shard].send(GwMsg::Resume(Box::new(ResumeMsg {
                    client: claim.client,
                    incarnation: claim.incarnation,
                    uids,
                    core: Arc::clone(&claim.core),
                    wm: wm.take().expect("single designated shard"),
                    announced,
                    now_ns,
                    shared: Arc::clone(&shared),
                    policy: claim.policy,
                    gate: Arc::clone(&gate),
                })));
            } else {
                let _ = senders[shard].send(GwMsg::Register {
                    client: claim.client,
                    uids,
                    sink: SinkHandle::Shared(Arc::clone(&shared)),
                    policy: claim.policy,
                    incarnation: claim.incarnation,
                    gate: Some(Arc::clone(&gate)),
                });
            }
        }
    }

    /// A connection died under a live session: park its lanes and keep
    /// the session resumable for the TTL. `incarnation` must be the
    /// one the connection attached or resumed with — a stale detach
    /// (the old reader noticing EOF after a fast reconnect already
    /// resumed) is ignored.
    pub fn detach_session(&self, client: u32, incarnation: u32) {
        let uids = {
            let mut store = self
                .inner
                .sessions
                .lock()
                .unwrap_or_else(|e| e.into_inner());
            let Some((uids, inc)) = store
                .entry(client)
                .map(|e| (e.subjects.clone(), e.incarnation))
            else {
                return;
            };
            if inc != incarnation {
                return;
            }
            store.detach(client);
            uids
        };
        let senders = self.inner.senders.lock().unwrap_or_else(|e| e.into_inner());
        let Some(senders) = senders.as_ref() else {
            return;
        };
        for &shard in split_shards(&uids, self.inner.workers).keys() {
            let _ = senders[shard].send(GwMsg::Deregister {
                client,
                park: true,
                incarnation,
            });
        }
    }

    /// End a client for good (clean `Bye`): flush what its sink will
    /// still take, tear its lanes down, and spend its session token.
    /// Also the teardown path for sessionless (v1) clients.
    pub fn close_session(&self, client: u32) {
        self.inner
            .sessions
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .end(client, true);
        let senders = self.inner.senders.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(senders) = senders.as_ref() {
            for tx in senders.iter() {
                let _ = tx.send(GwMsg::Deregister {
                    client,
                    park: false,
                    incarnation: u32::MAX,
                });
            }
        }
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
            workers: self.inner.workers,
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
            out.stats.ingress += sr.stats.ingress;
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

/// The gateway node's cluster behavior: classify, stamp, shard.
struct GatewayBehavior {
    senders: Vec<mpsc::SyncSender<GwMsg>>,
    meta: HashMap<u64, SubjectMeta>,
    seqs: Arc<Mutex<HashMap<u64, u32>>>,
    now_wm: Arc<AtomicU64>,
    workers: usize,
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
        let ev = IngressEvent {
            uid,
            class: meta.class,
            origin: delivery.event.attributes.origin.map_or(255, |n| n.0),
            seq,
            wire_ns: delivery.wire_completed_at.as_ns(),
            delivered_ns,
            expiry_ns: meta.stale_ns.map(|s| delivered_ns.saturating_add(s)),
            payload: delivery.event.content.clone(),
        };
        let shard = Subject::new(uid).shard_of(self.workers);
        // A full shard channel backpressures the node's turn — the bus
        // stalls in wall time, never in bus time, and nothing drops.
        let _ = self.senders[shard].send(GwMsg::Event(Box::new(ev)));
    }
}

/// One client's egress state on one shard.
struct Lane {
    client: u32,
    queue: EgressQueue,
    /// `None` while detached: the connection died but the session is
    /// resumable, so the queue keeps filling under its policies.
    sink: Option<SinkHandle>,
    policy: SlowConsumerPolicy,
    gone: bool,
    /// Connection incarnation the lane last (re)attached with.
    incarnation: u32,
}

/// All of one fanout worker's state; owned by its thread.
struct WorkerState {
    shard: usize,
    cap: usize,
    batch_max: usize,
    /// NRT payloads above this many bytes are fragment-streamed
    /// (config value, clamped to [`wire::MAX_PAYLOAD`]).
    frag_chunk: usize,
    trace_verbose: bool,
    subs: HashMap<u64, Vec<u32>>,
    lanes: HashMap<u32, Lane>,
    /// Reports of lanes torn down mid-run (clean `Bye`), so their
    /// counters still reach the final report.
    closed: Vec<LaneReport>,
    watermark_ns: u64,
    stats: ShardStats,
    sessions: Arc<Mutex<SessionStore>>,
    meta: Arc<Mutex<HashMap<u64, SubjectMeta>>>,
    trace: SharedTraceSink,
    src: SourceId,
}

impl WorkerState {
    fn register(
        &mut self,
        client: u32,
        uids: Vec<u64>,
        sink: SinkHandle,
        policy: SlowConsumerPolicy,
        incarnation: u32,
    ) {
        for uid in uids {
            let subs = self.subs.entry(uid).or_default();
            if !subs.contains(&client) {
                subs.push(client);
            }
        }
        if let Some(lane) = self.lanes.get_mut(&client) {
            if incarnation < lane.incarnation {
                return; // stale reattach from a superseded connection
            }
            lane.incarnation = incarnation;
            lane.policy = policy;
            if lane.gone {
                return;
            }
            lane.sink = Some(sink);
            // Release what queued while the lane was detached.
            self.flush_and_settle(client);
        } else {
            self.lanes.insert(
                client,
                Lane {
                    client,
                    queue: EgressQueue::new(self.cap),
                    sink: Some(sink),
                    policy,
                    gone: false,
                    incarnation,
                },
            );
        }
    }

    fn deregister(&mut self, client: u32, park: bool, incarnation: u32) {
        let Some(lane) = self.lanes.get_mut(&client) else {
            return;
        };
        if incarnation < lane.incarnation {
            return; // a newer incarnation owns this lane now
        }
        if park {
            lane.sink = None;
            return;
        }
        if !lane.gone {
            let Lane { queue, sink, .. } = lane;
            if let Some(s) = sink.as_mut() {
                // Last call: drain what the sink will still take, then
                // say goodbye.
                flush_sink(queue, s, self.watermark_ns, self.batch_max);
                let _ = s.offer(&wire::encode_to_client(&ToClient::Disconnect {
                    reason: Reason::Shutdown,
                }));
            }
        }
        let mut lane = self.lanes.remove(&client).expect("lane just borrowed");
        lane.queue.stats.peak = lane.queue.stats.peak.max(lane.queue.len());
        self.stats.undelivered += lane.queue.drain_remaining() as u64;
        for subs in self.subs.values_mut() {
            subs.retain(|&c| c != client);
        }
        self.closed.push(LaneReport {
            client: lane.client,
            shard: self.shard,
            stats: lane.queue.stats,
            digest: lane.sink.as_ref().and_then(|s| s.digest()),
            gone: lane.gone,
        });
    }

    /// Run one resume on its designated shard: replay the missing
    /// suffix through the shared sink, reattach the local lane, flush
    /// the backlog, then open the gate for the session's other shards.
    fn resume(&mut self, msg: ResumeMsg) {
        let wm = match msg.wm {
            WmSource::Known(wm) => wm,
            WmSource::Deferred(f) => f(),
        };
        let plan = {
            let meta = self.meta.lock().unwrap_or_else(|e| e.into_inner());
            let core = msg.core.lock().unwrap_or_else(|e| e.into_inner());
            compute_replay(
                &core,
                |uid| meta.get(&uid).and_then(|m| m.stale_ns),
                msg.now_ns,
                &wm,
            )
        };
        let offer = |bytes: &[u8]| -> bool {
            let mut tries = 0usize;
            loop {
                let status = msg
                    .shared
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .offer(bytes);
                match status {
                    SinkStatus::Accepted => return true,
                    SinkStatus::Busy if tries < RESUME_OFFER_RETRIES => {
                        tries += 1;
                        thread::yield_now();
                    }
                    _ => return false,
                }
            }
        };
        let mut dead = false;
        for (_, _, bytes) in &plan.notices {
            if !offer(bytes) {
                dead = true;
                break;
            }
        }
        if !dead {
            for frame in &plan.frames {
                if !offer(frame) {
                    dead = true;
                    break;
                }
            }
        }
        for uid in &msg.uids {
            let subs = self.subs.entry(*uid).or_default();
            if !subs.contains(&msg.client) {
                subs.push(msg.client);
            }
        }
        let lane = self.lanes.entry(msg.client).or_insert_with(|| Lane {
            client: msg.client,
            queue: EgressQueue::new(self.cap),
            sink: None,
            policy: msg.policy,
            gone: false,
            incarnation: msg.incarnation,
        });
        lane.incarnation = msg.incarnation;
        lane.policy = msg.policy;
        lane.gone = false;
        lane.sink = if dead {
            None
        } else {
            Some(SinkHandle::Shared(Arc::clone(&msg.shared)))
        };
        if !dead {
            self.flush_and_settle(msg.client);
        }
        self.sessions
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .resume_done(msg.client, &plan, dead, msg.announced);
        let at = Time::from_ns(msg.now_ns.max(self.watermark_ns));
        self.trace.emit_fields(
            at,
            self.src,
            "gw_resume",
            &[
                ("client", u64::from(msg.client)),
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
                    ("client", u64::from(msg.client)),
                    ("class", class_field(*class)),
                    ("count", u64::from(*count)),
                ],
            );
        }
        // Always opened, even on abort — the session's other shards
        // must never spin forever.
        msg.gate.store(true, Ordering::SeqCst);
    }

    fn on_event(&mut self, ev: &IngressEvent) {
        self.watermark_ns = self.watermark_ns.max(ev.delivered_ns);
        self.stats.ingress += 1;
        let subscribers = match self.subs.get(&ev.uid) {
            Some(v) if !v.is_empty() => v.clone(),
            _ => return,
        };
        let entries = encode_entries(ev, self.frag_chunk);
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
            return;
        }
        self.stats.fanout += subscribers.len() as u64;
        self.trace.emit_fields(
            Time::from_ns(ev.delivered_ns),
            self.src,
            "gw_fanout",
            &[
                ("uid", ev.uid),
                ("class", class_field(ev.class)),
                ("subs", subscribers.len() as u64),
            ],
        );
        for client in subscribers {
            let disconnect = {
                let Some(lane) = self.lanes.get_mut(&client) else {
                    continue;
                };
                if lane.gone {
                    continue;
                }
                let mut disconnect = false;
                for entry in &entries {
                    match lane
                        .queue
                        .push(entry.clone(), lane.policy, self.watermark_ns)
                    {
                        PushOutcome::Queued | PushOutcome::Shed => {}
                        PushOutcome::Disconnect => {
                            disconnect = true;
                            break;
                        }
                    }
                }
                disconnect
            };
            if disconnect {
                // A policy kill ends the session for good — a consumer
                // too slow while connected would only fall further
                // behind across a resume.
                let lane = self.lanes.get_mut(&client).expect("lane just borrowed");
                if let Some(sink) = lane.sink.as_mut() {
                    let _ = sink.offer(&wire::encode_to_client(&ToClient::Disconnect {
                        reason: Reason::Slow,
                    }));
                }
                lane.gone = true;
                lane.sink = None;
                lane.queue.stats.peak = lane.queue.stats.peak.max(lane.queue.len());
                self.stats.undelivered += lane.queue.drain_remaining() as u64;
                self.stats.disconnects += 1;
                self.sessions
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .end(client, false);
                if self.trace_verbose {
                    self.trace.emit_fields(
                        Time::from_ns(ev.delivered_ns),
                        self.src,
                        "gw_disconnect",
                        &[
                            ("client", u64::from(client)),
                            ("reason", u64::from(Reason::Slow.code())),
                        ],
                    );
                }
                continue;
            }
            if let Some(lane) = self.lanes.get_mut(&client) {
                notify_sheds(
                    lane,
                    ev.delivered_ns,
                    self.trace_verbose,
                    &self.trace,
                    self.src,
                );
            }
            self.flush_and_settle(client);
        }
    }

    /// Flush a lane's queue into its sink (if attached) and settle the
    /// outcome: a dead sink parks a resumable session's lane in place,
    /// or tears a sessionless lane down the legacy way.
    fn flush_and_settle(&mut self, client: u32) {
        let alive = {
            let Some(lane) = self.lanes.get_mut(&client) else {
                return;
            };
            if lane.gone {
                return;
            }
            let Lane { queue, sink, .. } = lane;
            let Some(s) = sink.as_mut() else {
                return;
            };
            flush_sink(queue, s, self.watermark_ns, self.batch_max)
        };
        if alive {
            return;
        }
        let park = self
            .sessions
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .detach(client);
        let lane = self.lanes.get_mut(&client).expect("lane just flushed");
        lane.sink = None;
        if !park {
            lane.gone = true;
            lane.queue.stats.peak = lane.queue.stats.peak.max(lane.queue.len());
            self.stats.undelivered += lane.queue.drain_remaining() as u64;
            self.stats.disconnects += 1;
        }
    }

    fn finish(mut self) -> ShardReport {
        let mut clients: Vec<u32> = self.lanes.keys().copied().collect();
        clients.sort_unstable();
        let mut lanes = std::mem::take(&mut self.closed);
        for client in clients {
            let Some(mut lane) = self.lanes.remove(&client) else {
                continue;
            };
            if !lane.gone {
                let Lane { queue, sink, .. } = &mut lane;
                if let Some(s) = sink.as_mut() {
                    // Last call: drain what the sink will still take,
                    // then say goodbye.
                    flush_sink(queue, s, u64::MAX, self.batch_max);
                    let _ = s.offer(&wire::encode_to_client(&ToClient::Disconnect {
                        reason: Reason::Shutdown,
                    }));
                }
            }
            self.stats.undelivered += lane.queue.drain_remaining() as u64;
            lanes.push(LaneReport {
                client: lane.client,
                shard: self.shard,
                stats: lane.queue.stats,
                digest: lane.sink.as_ref().and_then(|s| s.digest()),
                gone: lane.gone,
            });
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

/// `(shed-NRT, cap-shed-SRT, stale-SRT)` snapshot for delta notices.
fn shed_counts(stats: &LaneStats) -> (u64, u64, u64) {
    (stats.shed_nrt, stats.shed_srt_cap, stats.shed_srt_stale)
}

/// Offer best-effort `Shed` notices covering what this lane has shed
/// since the last notice round, so clients observe the gap instead of
/// silence — one notice per (class, reason), so an SRT pressure shed
/// is never reported as NRT. A detached lane sends nothing (its sheds
/// surface through watermark accounting at resume).
fn notify_sheds(
    lane: &mut Lane,
    at_ns: u64,
    verbose: bool,
    trace: &SharedTraceSink,
    src: SourceId,
) {
    let (nrt, srt_cap, srt_stale) = shed_counts(&lane.queue.stats);
    let notified = &mut lane.queue.stats.shed_notified;
    let deltas = [
        (nrt - notified[0], ChannelClass::Nrt, Reason::Slow),
        (srt_cap - notified[1], ChannelClass::Srt, Reason::Slow),
        (srt_stale - notified[2], ChannelClass::Srt, Reason::Stale),
    ];
    let Some(sink) = lane.sink.as_mut() else {
        return;
    };
    let notified_now = [nrt, srt_cap, srt_stale];
    for (count, class, reason) in deltas {
        if count == 0 {
            continue;
        }
        let _ = sink.offer(&wire::encode_to_client(&ToClient::Shed {
            class,
            reason,
            count: count.min(u64::from(u32::MAX)) as u32,
        }));
        if verbose {
            trace.emit_fields(
                Time::from_ns(at_ns),
                src,
                "gw_shed",
                &[
                    ("client", u64::from(lane.client)),
                    ("class", class_field(class)),
                    ("reason", u64::from(reason.code())),
                    ("count", count),
                ],
            );
        }
    }
    lane.queue.stats.shed_notified = notified_now;
}

/// Drain a lane's queue into a sink. Returns `false` when the sink reported itself gone (nothing is
/// popped in that case — see [`EgressQueue::flush`]).
fn flush_sink(
    queue: &mut EgressQueue,
    sink: &mut SinkHandle,
    watermark: u64,
    batch_max: usize,
) -> bool {
    queue.flush(watermark, batch_max, |item| {
        let bytes: std::borrow::Cow<'_, [u8]> = match &item {
            FlushItem::Single(e) => std::borrow::Cow::Borrowed(e.encoded.as_slice()),
            FlushItem::Batch(es) => {
                let msg = ToClient::Batch {
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
                };
                std::borrow::Cow::Owned(wire::encode_to_client(&msg))
            }
        };
        match sink.offer(&bytes) {
            SinkStatus::Accepted => FlushVerdict::Taken,
            SinkStatus::Busy => FlushVerdict::Blocked,
            SinkStatus::Gone => FlushVerdict::Lost,
        }
    })
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
/// Never truncates: an NRT payload above `frag_chunk` bytes is split
/// into fragments, and an HRT/SRT payload no single frame can carry
/// ([`wire::MAX_PAYLOAD`]) yields an *empty* vec — the caller drops
/// the event explicitly instead of corrupting the stream.
fn encode_entries(ev: &IngressEvent, frag_chunk: usize) -> Vec<EgressEntry> {
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
    if ev.class != ChannelClass::Nrt || ev.payload.len() <= frag_chunk {
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
        .chunks(frag_chunk)
        .enumerate()
        .map(|(i, chunk)| {
            let encoded = Arc::new(wire::encode_to_client(&ToClient::Frag(FragMsg {
                origin: ev.origin,
                uid: ev.uid,
                seq: ev.seq,
                wire_ns: ev.wire_ns,
                offset: (i * frag_chunk) as u32,
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
    use crate::client::ClientSink;
    use crate::client::SinkStatus;

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

    /// The configured fragment threshold is what `encode_entries`
    /// actually chunks by — not a hardcoded constant.
    #[test]
    fn configured_frag_chunk_is_honored() {
        let entries = encode_entries(&ev(ChannelClass::Nrt, 100), 40);
        assert_eq!(entries.len(), 3);
        assert!(entries.iter().all(|e| e.frag));
        assert_eq!(entries[0].payload.len(), 40);
        assert_eq!(entries[2].payload.len(), 20);
        let single = encode_entries(&ev(ChannelClass::Nrt, 100), 256);
        assert_eq!(single.len(), 1);
        assert!(!single[0].frag);
    }

    /// An HRT/SRT payload no single frame can carry yields no entries
    /// (the worker drops and counts it); the same payload as NRT bulk
    /// fragments instead. Nothing is ever truncated.
    #[test]
    fn oversized_hrt_is_rejected_not_truncated() {
        let over = wire::MAX_PAYLOAD + 1;
        assert!(encode_entries(&ev(ChannelClass::Hrt, over), 256).is_empty());
        assert!(encode_entries(&ev(ChannelClass::Srt, over), 256).is_empty());
        assert_eq!(
            encode_entries(&ev(ChannelClass::Hrt, wire::MAX_PAYLOAD), 256).len(),
            1
        );
        let frags = encode_entries(&ev(ChannelClass::Nrt, over), 256);
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
        struct TakeAll;
        impl ClientSink for TakeAll {
            fn offer(&mut self, _bytes: &[u8]) -> SinkStatus {
                SinkStatus::Accepted
            }
        }
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
        let mut lane = Lane {
            client: 0,
            queue: EgressQueue::new(4),
            sink: Some(SinkHandle::Own(Box::new(Rec(Arc::clone(&msgs))))),
            policy: SlowConsumerPolicy::ShedNrtFirst,
            gone: false,
            incarnation: 0,
        };
        lane.queue.stats.shed_nrt += 3;
        lane.queue.stats.shed_srt_cap += 2;
        lane.queue.stats.shed_srt_stale += 1;
        let sink = SharedTraceSink::disabled();
        let src = sink.intern("test");
        notify_sheds(&mut lane, 0, false, &sink, src);
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
        notify_sheds(&mut lane, 0, false, &sink, src);
        assert_eq!(msgs.lock().unwrap_or_else(|e| e.into_inner()).len(), 3);
    }
}

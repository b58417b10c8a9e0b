//! Deterministic gateway chaos smoke (`experiments chaos gateway`).
//!
//! Extends the crash-tolerance gate to the off-bus tier: a virtually
//! paced cluster (one HRT, two SRT, one NRT publisher) feeds a
//! *supervised* gateway node that a seeded [`ChaosPlan`] kills
//! mid-run, while every external client rides a seeded
//! [`LinkChaos`] fault machine that drops, delays and severs its
//! connection ([`rtec_live::chaos`'s gateway faults]). A resume driver
//! node reconnects the severed clients at fixed bus times through the
//! session-resume path, so the run exercises, end to end:
//!
//! * gateway-node kill and supervised restart (shared sequence
//!   counters: client streams keep counting across the incarnation);
//! * link severs parking live sessions, with the lost in-flight tail
//!   repaired by watermark-filtered replay;
//! * **HRT exactly-once across reconnects** (§3.2): every client's
//!   per-subject HRT sequence stream must be contiguous and
//!   duplicate-free;
//! * bounded replay rings overrunning into explicit `Gap` notices,
//!   never silent loss (§2.2.3);
//! * the merged trace passing the `T1`..`T9` auditor (`T9` is the
//!   resume-safety rule);
//! * byte-identity of a second same-seed run, faults and resumes
//!   included;
//! * a TTL-0 sub-scenario in which an expired session is
//!   deterministically *refused*, not half-resumed.
//!
//! Exit code 0 when all hold, 1 otherwise — `ci.sh` gates on it.

use rtec_conformance::audit::{audit, AuditContext};
use rtec_core::channel::{ChannelClass, ChannelSpec, HrtSpec, NrtSpec, SrtSpec};
use rtec_core::event::{Event, Subject};
use rtec_gateway::wire::{self, ToClient};
use rtec_gateway::{
    ClassWatermarks, ClientSink, Gateway, GatewayConfig, GatewayReport, SinkDigest, SinkStatus,
    WmSource,
};
use rtec_live::chaos::{self, LinkChaos, LinkFault, LinkPlan, LinkStats};
use rtec_live::cluster::{Cluster, ClusterConfig, LiveReport};
use rtec_live::node::{Behavior, NodeCtx};
use rtec_live::{ChaosPlan, ChaosReport, Pace};
use rtec_sim::{Duration, TraceEvent, TraceSink};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

/// Fanout workers. A client has one lane, on one worker, so each chaos
/// client's delivery stream is a single FIFO (the determinism contract
/// of the in-process resume path) whatever it subscribes to.
const WORKERS: usize = 2;
/// Per-class replay ring bound — deliberately small so the gap client's
/// lost tail overruns it and mints explicit `Gap` notices.
const RING_CAP: usize = 4;
/// Bound of each client's egress queue.
const QUEUE_CAP: usize = 32;
/// Trace ring bound (the audited merged trace must drop nothing).
const TRACE_CAPACITY: usize = 1 << 16;
/// Broker messages the gateway node's first incarnation receives
/// before the chaos plan kills it (roughly mid-run).
const GW_KILL_BUDGET: u64 = 80;

const HRT_SUBJECT: Subject = Subject(0xE001);
const SRT_BASE: u64 = 0xE100;
const SRT_COUNT: usize = 2;
const NRT_SUBJECT: Subject = Subject(0xE200);

struct HrtSource {
    counter: u8,
    period: Duration,
}

impl Behavior for HrtSource {
    fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
        ctx.publish(Event::new(HRT_SUBJECT, vec![self.counter]))
            .unwrap();
        let (at, period) = ctx.hrt_stage_schedule(HRT_SUBJECT).unwrap();
        self.period = period;
        ctx.set_timer(at, 0).unwrap();
    }

    fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, _p: u64) {
        self.counter = self.counter.wrapping_add(1);
        ctx.publish(Event::new(HRT_SUBJECT, vec![self.counter]))
            .unwrap();
        ctx.set_timer(ctx.now() + self.period, 0).unwrap();
    }
}

struct SrtSource {
    subject: Subject,
    every: Duration,
    phase: Duration,
    counter: u8,
}

impl Behavior for SrtSource {
    fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
        ctx.set_timer(ctx.now() + self.phase, 0).unwrap();
    }

    fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, _p: u64) {
        self.counter = self.counter.wrapping_add(1);
        let _ = ctx.publish(Event::new(self.subject, vec![0xB0, self.counter]));
        ctx.set_timer(ctx.now() + self.every, 0).unwrap();
    }
}

struct NrtPulse {
    every: Duration,
    phase: Duration,
    counter: u8,
}

impl Behavior for NrtPulse {
    fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
        ctx.set_timer(ctx.now() + self.phase, 0).unwrap();
    }

    fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, _p: u64) {
        self.counter = self.counter.wrapping_add(1);
        let payload: Vec<u8> = (0..48).map(|i| i as u8 ^ self.counter).collect();
        let _ = ctx.publish(Event::new(NRT_SUBJECT, payload));
        ctx.set_timer(ctx.now() + self.every, 0).unwrap();
    }
}

/// One chaotic client's receive-side record, shared between every sink
/// incarnation the session goes through. Mirrors what a real
/// `GatewayClient` tracks: per-class watermarks (`Gap` notices bump
/// them like received frames), plus the HRT sequence streams the
/// exactly-once gate checks.
pub(crate) struct ClientState {
    pub(crate) link: LinkChaos,
    pub(crate) wm: ClassWatermarks,
    hrt_seqs: BTreeMap<u64, Vec<u32>>,
    digest: SinkDigest,
    gaps: Vec<(u64, u32)>,
    sheds: u64,
    decode_errors: u64,
}

impl ClientState {
    pub(crate) fn new(link: LinkChaos) -> Self {
        ClientState {
            link,
            wm: ClassWatermarks::default(),
            hrt_seqs: BTreeMap::new(),
            digest: SinkDigest::new(),
            gaps: Vec::new(),
            sheds: 0,
            decode_errors: 0,
        }
    }

    fn record(&mut self, bytes: &[u8]) {
        self.digest.absorb(bytes);
        match wire::decode_to_client(bytes) {
            Ok(ToClient::Event(ev)) => match ev.class {
                ChannelClass::Hrt => {
                    self.wm.hrt += 1;
                    self.hrt_seqs.entry(ev.uid).or_default().push(ev.seq);
                }
                ChannelClass::Srt => self.wm.srt += 1,
                ChannelClass::Nrt => self.wm.nrt += 1,
            },
            Ok(ToClient::Batch { .. } | ToClient::Frag(_)) => self.wm.nrt += 1,
            Ok(ToClient::Gap { class, count }) => {
                match class {
                    ChannelClass::Hrt => self.wm.hrt += u64::from(count),
                    ChannelClass::Srt => self.wm.srt += u64::from(count),
                    ChannelClass::Nrt => self.wm.nrt += u64::from(count),
                }
                self.gaps.push((class as u64, count));
            }
            Ok(ToClient::Shed { .. }) => self.sheds += 1,
            Ok(ToClient::Welcome { .. } | ToClient::Disconnect { .. }) => {}
            Err(_) => self.decode_errors += 1,
        }
    }

    fn snapshot(&self) -> ClientSnapshot {
        ClientSnapshot {
            wm: self.wm,
            digest: self.digest,
            hrt_seqs: self.hrt_seqs.clone(),
            gaps: self.gaps.clone(),
            sheds: self.sheds,
            decode_errors: self.decode_errors,
            link: self.link.stats(),
        }
    }
}

/// The determinism-comparable view of one client after a run.
#[derive(Clone, Debug, PartialEq, Eq)]
struct ClientSnapshot {
    wm: ClassWatermarks,
    digest: SinkDigest,
    hrt_seqs: BTreeMap<u64, Vec<u32>>,
    gaps: Vec<(u64, u32)>,
    sheds: u64,
    decode_errors: u64,
    link: LinkStats,
}

/// A [`ClientSink`] shell over the shared state: consults the link
/// fault machine per offered frame. `Lose` accepts the frame (the
/// gateway's write succeeded, so it enters the replay accounting) but
/// records nothing client-side; `Severed` reports the sink gone so the
/// gateway parks the session.
pub(crate) struct ChaosClientSink {
    pub(crate) state: Arc<Mutex<ClientState>>,
}

impl ClientSink for ChaosClientSink {
    fn offer(&mut self, bytes: &[u8]) -> SinkStatus {
        let mut s = self.state.lock().unwrap_or_else(|e| e.into_inner());
        match s.link.on_frame() {
            LinkFault::Severed => SinkStatus::Gone,
            LinkFault::Lose => SinkStatus::Accepted,
            // In-process: a delay perturbs nothing deterministic, so it
            // is only counted (LinkStats) — delivery happens now.
            LinkFault::Deliver | LinkFault::DeliverDelayed(_) => {
                s.record(bytes);
                SinkStatus::Accepted
            }
        }
    }

    fn digest(&self) -> Option<SinkDigest> {
        Some(self.state.lock().unwrap_or_else(|e| e.into_inner()).digest)
    }
}

/// One client's handle kept by the resume driver.
#[derive(Clone)]
pub(crate) struct ChaosClient {
    pub(crate) token: u64,
    pub(crate) state: Arc<Mutex<ClientState>>,
}

/// A scheduled resume: at bus time `at`, reconnect client `client`.
#[derive(Clone)]
pub(crate) struct ResumeAction {
    pub(crate) at: Duration,
    pub(crate) client: usize,
}

/// The outcome log entry of one attempted resume: client index and
/// `Ok` or the refusal verdict code.
pub(crate) type ResumeOutcome = (usize, Result<(), u8>);

/// A cluster node that replays the resume schedule on bus-time timers.
/// Because node turns are serialized by the broker, each
/// `resume_session` call lands at a deterministic position in its
/// client's worker FIFO — the whole point of driving resumes from a
/// node instead of a free-running thread. The client watermarks resolve
/// *on that worker* ([`WmSource::Deferred`]), at the resume's queue
/// position, where the link is also flipped back to connected.
pub(crate) struct ResumeDriver {
    pub(crate) gw: Gateway,
    pub(crate) schedule: Vec<ResumeAction>,
    pub(crate) clients: Vec<ChaosClient>,
    pub(crate) outcomes: Arc<Mutex<Vec<ResumeOutcome>>>,
}

impl Behavior for ResumeDriver {
    fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
        for (i, a) in self.schedule.iter().enumerate() {
            ctx.set_timer(ctx.now() + a.at, i as u64).unwrap();
        }
    }

    fn on_timer(&mut self, _ctx: &mut NodeCtx<'_>, p: u64) {
        let a = &self.schedule[p as usize];
        let c = &self.clients[a.client];
        let st = Arc::clone(&c.state);
        let wm = WmSource::Deferred(Box::new(move || {
            let mut s = st.lock().unwrap_or_else(|e| e.into_inner());
            s.link.reconnected();
            s.wm
        }));
        let sink = Box::new(ChaosClientSink {
            state: Arc::clone(&c.state),
        });
        let res = self
            .gw
            .resume_session(c.token, wm, sink)
            .map(|_| ())
            .map_err(|v| v.code());
        self.outcomes
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push((a.client, res));
    }
}

/// Per-client fault/resume profile inside each subject group.
struct Profile {
    severs: Vec<u64>,
    lose_tail: u64,
    resumes: Vec<Duration>,
}

/// The four client roles replicated per subject group: a single-sever client,
/// a double-sever client, an undisturbed control, and a "gap" client
/// whose lost in-flight tail exceeds the replay ring.
fn profiles() -> Vec<Profile> {
    vec![
        Profile {
            severs: vec![15],
            lose_tail: 3,
            resumes: vec![Duration::from_ms(50)],
        },
        Profile {
            severs: vec![12, 40],
            lose_tail: 2,
            resumes: vec![Duration::from_ms(40), Duration::from_ms(80)],
        },
        Profile {
            severs: vec![],
            lose_tail: 0,
            resumes: vec![],
        },
        Profile {
            severs: vec![25],
            lose_tail: 12,
            resumes: vec![Duration::from_ms(60)],
        },
    ]
}

/// Every subject the workload publishes, with its channel spec.
fn subjects() -> Vec<(Subject, ChannelSpec)> {
    let mut out = vec![(HRT_SUBJECT, ChannelSpec::Hrt(HrtSpec::periodic_10ms()))];
    for i in 0..SRT_COUNT {
        out.push((
            Subject(SRT_BASE + i as u64),
            ChannelSpec::Srt(SrtSpec::default()),
        ));
    }
    out.push((NRT_SUBJECT, ChannelSpec::Nrt(NrtSpec::bulk())));
    out
}

/// Everything one run produces that the gates inspect.
struct RunArtifacts {
    live: LiveReport,
    chaos: ChaosReport,
    gw: GatewayReport,
    clients: Vec<ClientSnapshot>,
    outcomes: Vec<ResumeOutcome>,
    trace: Vec<TraceEvent>,
    trace_dropped: u64,
}

fn run_once(seed: u64, run: Duration) -> Result<RunArtifacts, String> {
    let sink = TraceSink::enabled_with_capacity(TRACE_CAPACITY);
    let cfg = ClusterConfig {
        pace: Pace::Virtual,
        restart_backoff: Duration::from_ms(1),
        nrt_queue_cap: 256,
        ..ClusterConfig::default()
    };
    let mut cluster = Cluster::new(cfg);
    cluster.use_sink(sink.clone());
    let topo = subjects();
    let hrt_node = cluster.add_node(Box::new(HrtSource {
        counter: 0,
        period: Duration::from_ms(10),
    }));
    cluster.publish(hrt_node, HRT_SUBJECT, topo[0].1);
    for i in 0..SRT_COUNT {
        let (subject, spec) = topo[1 + i];
        let node = cluster.add_node(Box::new(SrtSource {
            subject,
            every: Duration::from_ms(2),
            phase: Duration::from_us(300 * (i as u64 + 1)),
            counter: 0,
        }));
        cluster.publish(node, subject, spec);
    }
    let nrt_node = cluster.add_node(Box::new(NrtPulse {
        every: Duration::from_ms(2),
        phase: Duration::from_us(900),
        counter: 0,
    }));
    cluster.publish(nrt_node, NRT_SUBJECT, topo[1 + SRT_COUNT].1);

    let gateway = Gateway::new(GatewayConfig {
        workers: WORKERS,
        client_queue_cap: QUEUE_CAP,
        resume_ring_cap: RING_CAP,
        sink: sink.clone(),
        ..GatewayConfig::default()
    });
    for (subject, spec) in &topo {
        gateway.bind(*subject, spec);
    }

    // Two subject groups, split by `shard_of`; each chaos client
    // subscribes to every subject of one group. The groups only shape
    // the scenario: every client's stream is one worker's FIFO anyway.
    let mut groups: BTreeMap<usize, Vec<Subject>> = BTreeMap::new();
    for (subject, _) in &topo {
        groups
            .entry(subject.shard_of(WORKERS))
            .or_default()
            .push(*subject);
    }
    let mut clients: Vec<ChaosClient> = Vec::new();
    let mut schedule: Vec<ResumeAction> = Vec::new();
    for (gi, group) in groups.values().enumerate() {
        for (ci, profile) in profiles().into_iter().enumerate() {
            let idx = clients.len();
            let link = LinkChaos::new(LinkPlan {
                seed: seed ^ (((gi as u64) << 8) | ci as u64),
                severs: profile.severs,
                lose_tail: profile.lose_tail,
                delay_rate: 0.2,
                max_delay: std::time::Duration::from_micros(100),
            });
            let state = Arc::new(Mutex::new(ClientState::new(link)));
            let id = gateway.reserve_client();
            let token = gateway.open_session(id, group, None);
            gateway.attach_session(
                id,
                Box::new(ChaosClientSink {
                    state: Arc::clone(&state),
                }),
            );
            // Stagger the groups so no two resumes share a bus instant.
            for &at in &profile.resumes {
                schedule.push(ResumeAction {
                    at: at + Duration::from_us(137 * (gi as u64 + 1)),
                    client: idx,
                });
            }
            clients.push(ChaosClient { token, state });
        }
    }

    let gw_node = {
        let g = gateway.clone();
        cluster.add_node_with(Box::new(move || g.behavior()))
    };
    for (subject, spec) in &topo {
        cluster.subscribe(gw_node, *subject, *spec);
    }
    let outcomes: Arc<Mutex<Vec<ResumeOutcome>>> = Arc::new(Mutex::new(Vec::new()));
    cluster.add_node(Box::new(ResumeDriver {
        gw: gateway.clone(),
        schedule,
        clients: clients.clone(),
        outcomes: Arc::clone(&outcomes),
    }));

    let plan = ChaosPlan {
        seed,
        kills: vec![(gw_node, GW_KILL_BUDGET)],
        dup_rate: 0.02,
        ..ChaosPlan::default()
    };
    let (live, chaos_rep) = cluster
        .run_for_chaos(run, plan)
        .map_err(|e| format!("gateway chaos run failed: {e}"))?;
    let gw = gateway.finish();
    let snapshots: Vec<ClientSnapshot> = clients
        .iter()
        .map(|c| c.state.lock().unwrap_or_else(|e| e.into_inner()).snapshot())
        .collect();
    let outcomes = outcomes.lock().unwrap_or_else(|e| e.into_inner()).clone();
    let trace_dropped = sink.dropped();
    let mut trace = sink.events();
    trace.sort_by(|x, y| (x.time, &x.source).cmp(&(y.time, &y.source)));
    Ok(RunArtifacts {
        live,
        chaos: chaos_rep,
        gw,
        clients: snapshots,
        outcomes,
        trace,
        trace_dropped,
    })
}

/// The robustness acceptance criteria of one run.
fn check(art: &RunArtifacts) -> Result<(), String> {
    if art.chaos.kills != 1 {
        return Err(format!(
            "expected the gateway node to be killed once, saw {}",
            art.chaos.kills
        ));
    }
    let verdict = chaos::verdict(&art.live);
    if verdict.restarts < 1 {
        return Err(format!(
            "the killed gateway node must rejoin: {:?}",
            art.live.supervision.events
        ));
    }
    if !verdict.ok() {
        return Err(format!(
            "liveness/at-most-once verdict failed: {verdict:?}\n{:?}",
            art.live.supervision.events
        ));
    }
    // Resume liveness: every scheduled reconnect must have succeeded.
    let scheduled = art.outcomes.len();
    if scheduled == 0 {
        return Err("no resume was ever attempted".into());
    }
    for (client, res) in &art.outcomes {
        if let Err(code) = res {
            return Err(format!(
                "client #{client} was refused resume (verdict code {code})"
            ));
        }
    }
    let s = &art.gw.sessions;
    if s.aborted != 0 {
        return Err(format!("{} resume(s) aborted mid-replay", s.aborted));
    }
    if s.resumed + s.gapped != scheduled as u64 {
        return Err(format!(
            "{} resumes scheduled but {} resumed + {} gapped completed",
            scheduled, s.resumed, s.gapped
        ));
    }
    if s.detached == 0 {
        return Err("no link sever ever parked a session".into());
    }
    if s.replayed_hrt + s.replayed_srt + s.replayed_nrt == 0 {
        return Err("no frame was ever replayed — the repair path never engaged".into());
    }
    if s.gap_frames == 0 {
        return Err(
            "the gap client's lost tail never overran the replay ring — no Gap was minted".into(),
        );
    }
    // HRT exactly-once across reconnects: every client's per-subject
    // sequence stream must be 0..n in order — no duplicate, no hole.
    let mut hrt_clients = 0usize;
    for (i, c) in art.clients.iter().enumerate() {
        if c.decode_errors != 0 {
            return Err(format!("client #{i} hit {} decode errors", c.decode_errors));
        }
        for (uid, seqs) in &c.hrt_seqs {
            hrt_clients += 1;
            let want: Vec<u32> = (0..seqs.len() as u32).collect();
            if *seqs != want {
                return Err(format!(
                    "client #{i} subject {uid:#x}: HRT stream not exactly-once: {seqs:?}"
                ));
            }
        }
        if c.gaps.iter().any(|&(class, _)| class == 0) {
            return Err(format!("client #{i} received a Gap notice for HRT"));
        }
    }
    if hrt_clients == 0 {
        return Err("no client ever received an HRT event".into());
    }
    if art.gw.stats.peak_lane_occupancy > QUEUE_CAP {
        return Err(format!(
            "lane occupancy {} exceeded the {QUEUE_CAP}-entry bound",
            art.gw.stats.peak_lane_occupancy
        ));
    }
    // The merged trace: complete, resume records present, T1..T9 clean.
    if art.trace_dropped > 0 {
        return Err(format!("trace ring dropped {} event(s)", art.trace_dropped));
    }
    if !art.trace.iter().any(|e| e.kind == "gw_resume") {
        return Err("gateway resume records missing from the merged trace".into());
    }
    let ctx = AuditContext::from_parts(
        (*art.live.calendar).clone(),
        art.live.calendar_start,
        art.live.channels.clone(),
        art.live.hrt_periods.clone(),
    );
    let audit_rep = audit(&ctx, &art.trace);
    if !audit_rep.passes() {
        return Err(format!(
            "T1..T9 audit failed on the merged trace:\n{:#?}",
            audit_rep.errors().collect::<Vec<_>>()
        ));
    }
    Ok(())
}

/// The byte-identity gate: everything deterministic must match between
/// two same-seed runs.
fn same(a: &RunArtifacts, b: &RunArtifacts) -> Result<(), String> {
    if a.live.log != b.live.log {
        return Err("cluster delivery logs diverged".into());
    }
    if a.live.supervision.events != b.live.supervision.events {
        return Err("supervision timelines diverged".into());
    }
    if a.gw != b.gw {
        return Err("gateway reports (lane digests, session counters) diverged".into());
    }
    if a.clients != b.clients {
        return Err("client delivery records diverged".into());
    }
    if a.outcomes != b.outcomes {
        return Err("resume outcomes diverged".into());
    }
    Ok(())
}

/// TTL-0 sub-scenario: with `session_ttl_ns = 0`, a severed session
/// must be *refused* on reconnect (verdict `Expired`), deterministically
/// — a half-resume against an expired session would be silent loss.
fn ttl_zero_refusal(seed: u64) -> Result<(), String> {
    let cfg = ClusterConfig {
        pace: Pace::Virtual,
        ..ClusterConfig::default()
    };
    let mut cluster = Cluster::new(cfg);
    let subject = Subject(SRT_BASE);
    let spec = ChannelSpec::Srt(SrtSpec::default());
    let src = cluster.add_node(Box::new(SrtSource {
        subject,
        every: Duration::from_ms(2),
        phase: Duration::from_us(300),
        counter: 0,
    }));
    cluster.publish(src, subject, spec);
    let gateway = Gateway::new(GatewayConfig {
        workers: 1,
        session_ttl_ns: 0,
        resume_ring_cap: RING_CAP,
        ..GatewayConfig::default()
    });
    gateway.bind(subject, &spec);
    let link = LinkChaos::new(LinkPlan {
        seed,
        severs: vec![5],
        lose_tail: 1,
        delay_rate: 0.0,
        ..LinkPlan::default()
    });
    let state = Arc::new(Mutex::new(ClientState::new(link)));
    let id = gateway.reserve_client();
    let token = gateway.open_session(id, &[subject], None);
    gateway.attach_session(
        id,
        Box::new(ChaosClientSink {
            state: Arc::clone(&state),
        }),
    );
    let gw_node = cluster.add_node(gateway.behavior());
    cluster.subscribe(gw_node, subject, spec);
    let outcomes: Arc<Mutex<Vec<ResumeOutcome>>> = Arc::new(Mutex::new(Vec::new()));
    cluster.add_node(Box::new(ResumeDriver {
        gw: gateway.clone(),
        schedule: vec![ResumeAction {
            at: Duration::from_ms(40),
            client: 0,
        }],
        clients: vec![ChaosClient {
            token,
            state: Arc::clone(&state),
        }],
        outcomes: Arc::clone(&outcomes),
    }));
    cluster
        .run_for(Duration::from_ms(60))
        .map_err(|e| format!("ttl-0 run failed: {e}"))?;
    let gw = gateway.finish();
    let outcomes = outcomes.lock().unwrap_or_else(|e| e.into_inner()).clone();
    let expired = rtec_gateway::ResumeVerdict::Expired.code();
    if outcomes != vec![(0usize, Err(expired))] {
        return Err(format!(
            "ttl-0 resume must be refused with Expired, saw {outcomes:?}"
        ));
    }
    if gw.sessions.refused != 1 {
        return Err(format!(
            "ttl-0 refusal must be counted once, saw {}",
            gw.sessions.refused
        ));
    }
    Ok(())
}

/// Run the gateway chaos smoke (virtually paced: one horizon serves
/// both the full and the CI run).
pub fn run(seed: u64) -> i32 {
    let run = Duration::from_ms(120);
    eprintln!(
        "== gateway chaos (gateway kill @ {GW_KILL_BUDGET} receives, seeded link severs, \
         seed {seed}, {} ms bus time) ==",
        run.as_ns() / 1_000_000
    );
    let a = match run_once(seed, run) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("chaos gateway: {e}");
            return 1;
        }
    };
    if let Err(e) = check(&a) {
        eprintln!("chaos gateway: {e}");
        return 1;
    }
    let s = &a.gw.sessions;
    eprintln!(
        "  run A: {} clients, {} resumes ({} resumed / {} gapped), replay {}h/{}s/{}n frames, \
         {} gap frame(s), {} stale skip(s), gateway killed+rejoined",
        a.clients.len(),
        a.outcomes.len(),
        s.resumed,
        s.gapped,
        s.replayed_hrt,
        s.replayed_srt,
        s.replayed_nrt,
        s.gap_frames,
        s.srt_stale_skipped,
    );
    let b = match run_once(seed, run) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("chaos gateway: rerun: {e}");
            return 1;
        }
    };
    if let Err(e) = same(&a, &b) {
        eprintln!("chaos gateway: same-seed runs: {e}");
        return 1;
    }
    if let Err(e) = ttl_zero_refusal(seed) {
        eprintln!("chaos gateway: {e}");
        return 1;
    }
    eprintln!("  ttl-0 sub-scenario: resume deterministically refused (Expired)");
    eprintln!("chaos gateway: ok (second same-seed run byte-identical)");
    0
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One run satisfies every gate.
    #[test]
    fn gateway_chaos_run_passes_all_gates() {
        let art = run_once(42, Duration::from_ms(120)).expect("gateway chaos run");
        check(&art).expect("gateway chaos invariants");
    }

    /// The TTL-0 refusal is deterministic.
    #[test]
    fn ttl_zero_resume_is_refused() {
        ttl_zero_refusal(7).expect("ttl-0 scenario");
    }
}

//! `gw-fanout` and `gw-resume`: the off-bus gateway behind a live
//! cluster, `workers = nproc`, 0.4 s of bus time per repetition.
//!
//! Seven publishers (one HRT, four SRT at 800 µs, two NRT bulk at
//! 120 ms; ≈ 80 % of the wire, ≈ 5 100 events per bus second) feed a
//! gateway node. Frames are what the cluster pays for and events ×
//! lanes what the gateway pays for, so the mix is mostly one-frame SRT
//! events. The loop is closed: a full ingress channel backpressures
//! the gateway node, which stalls the bus in wall time and never in
//! bus time.
//!
//! * `gw-fanout`: 10 000 in-process sim clients × 2 seeded subjects, a
//!   seeded fifth of them accepting a quarter of offers, lane cap 32,
//!   shed-NRT-first. ≈ 2.9 k lanes per event, so the gateway is most
//!   of the cost: ingress, shard fanout, encode, lane push/flush, shed
//!   policy, sink.
//! * `gw-resume`: 5 000 *session* clients, all fast. A driver node on
//!   the bus severs a quarter per wave (`detach_session`) in four
//!   waves and resumes each after a seeded outage (`resume_session`);
//!   each reconnecting client reports watermarks short of what it was
//!   sent by a seeded in-flight tail, some longer than the 16-frame
//!   replay ring. Session accounting on every frame, parked lanes,
//!   replay rings, the session-store mutex, Gap notices — all of which
//!   `gw-fanout` bypasses.

use super::live::{audit_trace, live_layer};
use super::{Rep, RepCfg};
use crate::inputs::{self, Source, HRT_SUBJECT, RT_PAYLOAD};
use crate::kernels::Kernels;
use crate::metrics::Metrics;
use crate::proc::Usage;
use crate::spans::Probe;
use crate::stats::{Fnv, Percentiles};
use crate::traffic::{self, Shared, HRT_SOURCE, SPAN_SAMPLING};
use rtec_bench::parallel_perf::cpu_cores;
use rtec_core::channel::ChannelException;
use rtec_core::event::Delivery;
use rtec_core::{ChannelClass, Subject};
use rtec_gateway::wire::{self, ToClient};
use rtec_gateway::{
    Acceptor, ClassWatermarks, ClientSink, ClientSinkSpec, Gateway, GatewayClient, GatewayConfig,
    GatewayReport, SimClientSink, SinkDigest, SinkStatus, SlowConsumerPolicy, WmSource,
};
use rtec_live::cluster::{Cluster, ClusterConfig};
use rtec_live::node::{Behavior, NodeCtx};
use rtec_live::Pace;
use rtec_sim::{Duration, SharedTraceSink};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Bus time of one full repetition.
const HORIZON: Duration = Duration::from_ms(400);
const SRT_COUNT: usize = 4;
const SRT_PERIOD: Duration = Duration::from_us(800);
const NRT_COUNT: usize = 2;
const NRT_PERIOD: Duration = Duration::from_ms(120);
/// Bound of each (client, shard) egress queue.
const QUEUE_CAP: usize = 32;
const FANOUT_CLIENTS: usize = 10_000;
/// One client in this many is slow …
const SLOW_ONE_IN: u64 = 5;
/// … and accepts this many offers per thousand.
const SLOW_PERMILLE: u16 = 250;
const SESSION_CLIENTS: usize = 5_000;
/// Per-class replay ring of a session, in frames.
const RING_CAP: usize = 16;
const WAVES: u64 = 4;
/// A probe sink decodes and joins one accepted `Event` in this many.
const SINK_SAMPLING: u64 = 64;

/// Which client population the gateway serves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Shape {
    /// Sessionless sim clients, a fifth of them slow.
    Fanout,
    /// Session clients severed and resumed in waves.
    Resume,
}

fn sources() -> Vec<Source> {
    let mut s = vec![HRT_SOURCE];
    s.extend(inputs::srt_sources(SRT_COUNT, SRT_PERIOD));
    s.extend(inputs::nrt_sources(NRT_COUNT, NRT_PERIOD));
    s
}

/// Bytes and frames the benchmark's sinks accepted, summed when each
/// sink is dropped (a shared counter bumped per frame would put one
/// contended cache line on the fanout path).
#[derive(Default)]
struct SinkTotals {
    frames: AtomicU64,
    bytes: AtomicU64,
}

/// What a traced repetition's sinks and gateway-node wrapper share.
struct SinkProbe {
    probe: Probe,
    /// Wall time the gateway node's `on_delivery` saw each event, by
    /// `(subject, publisher sequence)`.
    seen: Mutex<HashMap<(u64, u32), u64>>,
    /// on_delivery → sink accept, wall ns, sampled.
    to_sink_ns: Mutex<Vec<u64>>,
    /// `resume_session` call → first frame accepted, wall ns.
    resume_ns: Mutex<Vec<u64>>,
}

impl SinkProbe {
    fn new(probe: Probe) -> Arc<SinkProbe> {
        Arc::new(SinkProbe {
            probe,
            seen: Mutex::default(),
            to_sink_ns: Mutex::default(),
            resume_ns: Mutex::default(),
        })
    }

    /// Join an accepted `Event` frame to its delivery stamp.
    fn joined(&self, bytes: &[u8], accepted_at: u64) {
        let Ok(ToClient::Event(ev)) = wire::decode_to_client(bytes) else {
            return;
        };
        let Some(seq) = inputs::seq_of(&ev.payload) else {
            return;
        };
        let seen = self
            .seen
            .lock()
            .expect("probe table")
            .get(&(ev.uid, seq))
            .copied();
        if let Some(at) = seen {
            self.to_sink_ns
                .lock()
                .expect("probe samples")
                .push(accepted_at.saturating_sub(at));
            self.probe.tracer.record(
                "on_delivery->ClientSink::offer",
                self.probe.parent,
                at,
                accepted_at,
                Some((ev.uid, seq)),
            );
        }
    }
}

/// The gateway's own behavior with a wall stamp taken in front of
/// every delivery — the gateway-side end of the sink probe's join.
struct StampedGateway {
    inner: Box<dyn Behavior>,
    probe: Arc<SinkProbe>,
    deliveries: u32,
}

impl Behavior for StampedGateway {
    fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
        self.inner.on_start(ctx);
    }
    fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, payload: u64) {
        self.inner.on_timer(ctx, payload);
    }
    fn on_exception(&mut self, ctx: &mut NodeCtx<'_>, exception: &ChannelException) {
        self.inner.on_exception(ctx, exception);
    }
    fn on_delivery(&mut self, ctx: &mut NodeCtx<'_>, delivery: &Delivery) {
        let p = self.probe.probe;
        let key =
            inputs::seq_of(&delivery.event.content).map(|s| (delivery.event.subject.uid(), s));
        let t0 = p.tracer.now_ns();
        if let Some(key) = key {
            self.probe.seen.lock().expect("probe table").insert(key, t0);
        }
        self.inner.on_delivery(ctx, delivery);
        if self.deliveries.is_multiple_of(SPAN_SAMPLING) {
            p.tracer
                .record("Gateway on_delivery", p.parent, t0, p.tracer.now_ns(), key);
        }
        self.deliveries += 1;
    }
}

/// A sessionless client's sink on one lane: the crate's seeded
/// `SimClientSink` with the benchmark's counting around it.
struct LaneSink {
    inner: SimClientSink,
    frames: u64,
    bytes: u64,
    totals: Arc<SinkTotals>,
    /// Set on the fast clients of a traced repetition.
    probe: Option<Arc<SinkProbe>>,
}

impl ClientSink for LaneSink {
    fn offer(&mut self, bytes: &[u8]) -> SinkStatus {
        let status = self.inner.offer(bytes);
        if status == SinkStatus::Accepted {
            self.frames += 1;
            self.bytes += bytes.len() as u64;
            if let Some(p) = &self.probe {
                if self.frames.is_multiple_of(SINK_SAMPLING) {
                    p.joined(bytes, p.probe.tracer.now_ns());
                }
            }
        }
        status
    }

    fn digest(&self) -> Option<SinkDigest> {
        self.inner.digest()
    }
}

impl Drop for LaneSink {
    fn drop(&mut self) {
        self.totals.frames.fetch_add(self.frames, Ordering::Relaxed);
        self.totals.bytes.fetch_add(self.bytes, Ordering::Relaxed);
    }
}

/// The receive side of one session client, shared by every sink its
/// session goes through.
struct ClientState {
    /// Data frames received per class (`Gap` notices count as received).
    wm: ClassWatermarks,
    /// Next HRT sequence number expected.
    hrt_next: u32,
    /// HRT frames that were not the next in sequence.
    hrt_disorder: u64,
    /// Frames no decoder accepted.
    undecodable: u64,
    digest: SinkDigest,
    bytes: u64,
    /// Wall time of the pending `resume_session` call (traced only).
    resume_called: Option<u64>,
}

impl ClientState {
    fn receive(&mut self, bytes: &[u8]) {
        self.digest.frames += 1;
        self.bytes += bytes.len() as u64;
        let mut fnv = Fnv(self.digest.digest);
        fnv.bytes(bytes);
        self.digest.digest = fnv.0;
        match wire::data_frame_meta(bytes) {
            Some((ChannelClass::Hrt, ..)) => {
                self.wm.hrt += 1;
                match wire::decode_to_client(bytes) {
                    Ok(ToClient::Event(ev)) if ev.seq == self.hrt_next => {}
                    Ok(ToClient::Event(_)) => self.hrt_disorder += 1,
                    _ => self.undecodable += 1,
                }
                self.hrt_next += 1;
            }
            Some((class, ..)) => self.wm.bump(class),
            None => match wire::decode_to_client(bytes) {
                Ok(ToClient::Gap { class, count }) => {
                    for _ in 0..count {
                        self.wm.bump(class);
                    }
                    if class == ChannelClass::Hrt {
                        self.hrt_disorder += u64::from(count);
                    }
                }
                Ok(_) => {}
                Err(_) => self.undecodable += 1,
            },
        }
    }

    /// Forget the in-flight tail a dead link swallowed: the last
    /// `lost` frames of each class were sent but never arrived.
    fn lose_tail(&mut self, lost: ClassWatermarks) -> ClassWatermarks {
        let hrt = lost.hrt.min(self.wm.hrt);
        self.wm.hrt -= hrt;
        self.hrt_next -= hrt as u32;
        self.wm.srt -= lost.srt.min(self.wm.srt);
        self.wm.nrt -= lost.nrt.min(self.wm.nrt);
        self.wm
    }
}

/// One connection's sink of a session client (always accepts).
struct SessionClientSink {
    state: Arc<Mutex<ClientState>>,
    probe: Option<Arc<SinkProbe>>,
}

impl ClientSink for SessionClientSink {
    fn offer(&mut self, bytes: &[u8]) -> SinkStatus {
        let mut s = self.state.lock().expect("client state");
        s.receive(bytes);
        if let (Some(p), Some(called)) = (&self.probe, s.resume_called.take()) {
            let now = p.probe.tracer.now_ns();
            p.resume_ns
                .lock()
                .expect("probe samples")
                .push(now - called);
            p.probe.tracer.record(
                "resume_session->first frame",
                p.probe.parent,
                called,
                now,
                None,
            );
        }
        SinkStatus::Accepted
    }

    fn digest(&self) -> Option<SinkDigest> {
        Some(self.state.lock().expect("client state").digest)
    }
}

/// One session client as the driver node sees it.
struct SessionClient {
    id: u32,
    token: u64,
    incarnation: u32,
    state: Arc<Mutex<ClientState>>,
}

enum Action {
    /// `detach_session` every client of the wave.
    Sever(u64),
    /// `resume_session` one client.
    Resume(usize),
}

/// What the driver saw, handed over when its node ends.
#[derive(Default)]
struct DriverLog {
    resumes: u64,
    refused: u64,
}

/// A bus node that plays the sever/resume schedule on bus-time timers.
/// Node turns are serialized by the broker, so every `detach_session`
/// and `resume_session` lands at a deterministic position of its
/// shard's FIFO; the lost tail is applied *on the worker*, at that
/// position ([`WmSource::Deferred`]).
struct SessionDriver {
    gw: Gateway,
    seed: u64,
    clients: Vec<SessionClient>,
    /// `(bus time, action)`, sorted by time; one timer is armed at a
    /// time, for the next distinct instant.
    schedule: Vec<(Duration, Action)>,
    next: usize,
    probe: Option<Arc<SinkProbe>>,
    log: DriverLog,
    shared: Shared<DriverLog>,
}

impl SessionDriver {
    fn arm(&mut self, ctx: &mut NodeCtx<'_>) {
        if let Some((at, _)) = self.schedule.get(self.next) {
            ctx.set_timer(rtec_sim::Time::ZERO + *at, 0)
                .expect("arm driver timer");
        }
    }

    fn resume(&mut self, c: usize) {
        let seed = self.seed;
        let client = &mut self.clients[c];
        let lost = ClassWatermarks {
            hrt: inputs::mix(seed, u64::from(client.id), 0x105e) % 3,
            srt: inputs::mix(seed, u64::from(client.id), 0x205e) % 25,
            nrt: inputs::mix(seed, u64::from(client.id), 0x305e) % 25,
        };
        let state = Arc::clone(&client.state);
        let wm = WmSource::Deferred(Box::new(move || {
            state.lock().expect("client state").lose_tail(lost)
        }));
        if let Some(p) = &self.probe {
            client.state.lock().expect("client state").resume_called =
                Some(p.probe.tracer.now_ns());
        }
        let sink = Box::new(SessionClientSink {
            state: Arc::clone(&client.state),
            probe: self.probe.clone(),
        });
        self.log.resumes += 1;
        match self.gw.resume_session(client.token, wm, sink) {
            Ok((_, incarnation)) => client.incarnation = incarnation,
            Err(_) => self.log.refused += 1,
        }
    }
}

impl Behavior for SessionDriver {
    fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
        self.arm(ctx);
    }

    fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, _payload: u64) {
        let now = ctx.now();
        while let Some((at, action)) = self.schedule.get(self.next) {
            if rtec_sim::Time::ZERO + *at > now {
                break;
            }
            match *action {
                Action::Sever(wave) => {
                    for c in self
                        .clients
                        .iter()
                        .filter(|c| u64::from(c.id) % WAVES == wave)
                    {
                        self.gw.detach_session(c.id, c.incarnation);
                    }
                }
                Action::Resume(c) => self.resume(c),
            }
            self.next += 1;
        }
        self.arm(ctx);
    }
}

impl Drop for SessionDriver {
    fn drop(&mut self) {
        traffic::hand_over(&self.shared, &mut self.log);
    }
}

/// Two distinct seeded subjects out of `pool`.
fn pick_two(seed: u64, client: u64, pool: &[Subject]) -> [Subject; 2] {
    let a = inputs::mix(seed, client, 0xa) as usize % pool.len();
    let b = (a + 1 + inputs::mix(seed, client, 0xb) as usize % (pool.len() - 1)) % pool.len();
    [pool[a], pool[b]]
}

/// Everything one repetition keeps to check the outcome against.
#[derive(Default)]
struct Population {
    /// Per sessionless client, by id: fast and subscribed to HRT.
    fast_hrt: Vec<bool>,
    /// Per session client: its state, and whether it subscribes to HRT.
    sessions: Vec<(Arc<Mutex<ClientState>>, bool)>,
    driver: Option<Shared<DriverLog>>,
    totals: Arc<SinkTotals>,
}

fn register_fanout(
    gw: &Gateway,
    seed: u64,
    clients: usize,
    probe: &Option<Arc<SinkProbe>>,
    pop: &mut Population,
) {
    let pool: Vec<Subject> = sources().iter().map(|s| s.subject).collect();
    for c in 0..clients as u64 {
        // HRT is never shed, so a consumer too slow for its HRT share
        // is disconnected by design. Slow clients stay off the HRT
        // subject: every client lives to the horizon and the shed
        // policy has steady work.
        let slow = inputs::mix(seed, c, 0x510).is_multiple_of(SLOW_ONE_IN);
        let subjects = pick_two(seed, c, if slow { &pool[1..] } else { &pool });
        let permille = if slow { SLOW_PERMILLE } else { 1000 };
        let totals = Arc::clone(&pop.totals);
        let probe = if slow { None } else { probe.clone() };
        let spec = ClientSinkSpec::PerShard(Box::new(move |id, shard| {
            Box::new(LaneSink {
                inner: SimClientSink::new(inputs::mix(seed, u64::from(id), shard as u64), permille),
                frames: 0,
                bytes: 0,
                totals: Arc::clone(&totals),
                probe: probe.clone(),
            })
        }));
        gw.add_client(&subjects, &spec, Some(SlowConsumerPolicy::ShedNrtFirst));
        pop.fast_hrt.push(!slow && subjects.contains(&HRT_SUBJECT));
    }
}

/// Open and attach the session clients and build the driver node. Each
/// client takes its subjects from one shard only, so its frames form
/// one worker's FIFO — the determinism contract of the in-process
/// resume path.
fn register_sessions(
    gw: &Gateway,
    seed: u64,
    run: Duration,
    probe: &Option<Arc<SinkProbe>>,
    pop: &mut Population,
) -> SessionDriver {
    let mut by_shard: Vec<Vec<Subject>> = vec![Vec::new(); gw.workers()];
    for s in sources() {
        by_shard[s.subject.shard_of(gw.workers())].push(s.subject);
    }
    by_shard.retain(|g| !g.is_empty());
    let mut clients = Vec::new();
    let mut schedule = Vec::new();
    for wave in 0..WAVES {
        // Waves at 15 %, 35 %, 55 % and 75 % of the horizon.
        schedule.push((run * (15 + 20 * wave) / 100, Action::Sever(wave)));
    }
    for c in 0..SESSION_CLIENTS {
        let group = &by_shard[inputs::mix(seed, c as u64, 0x9) as usize % by_shard.len()];
        let subjects: Vec<Subject> = if group.len() >= 2 {
            pick_two(seed, c as u64, group).to_vec()
        } else {
            group.clone()
        };
        let state = Arc::new(Mutex::new(ClientState {
            wm: ClassWatermarks::default(),
            hrt_next: 0,
            hrt_disorder: 0,
            undecodable: 0,
            digest: SinkDigest {
                frames: 0,
                digest: Fnv::new().0,
            },
            bytes: 0,
            resume_called: None,
        }));
        let id = gw.reserve_client();
        let token = gw.open_session(id, &subjects, Some(SlowConsumerPolicy::ShedNrtFirst));
        gw.attach_session(
            id,
            Box::new(SessionClientSink {
                state: Arc::clone(&state),
                probe: probe.clone(),
            }),
        );
        // Outage of 1 %..12 % of the horizon (5..60 ms of the full
        // one: the longest outlast the 50 ms SRT validity window), in
        // 1 µs steps so resumes rarely share a bus instant.
        let wave = u64::from(id) % WAVES;
        let outage = run / 100
            + Duration::from_us(
                inputs::mix(seed, c as u64, 0x0a7) % (run.as_ns() * 11 / 100_000).max(1),
            );
        schedule.push((run * (15 + 20 * wave) / 100 + outage, Action::Resume(c)));
        clients.push(SessionClient {
            id,
            token,
            incarnation: 0,
            state: Arc::clone(&state),
        });
        pop.sessions.push((state, subjects.contains(&HRT_SUBJECT)));
    }
    schedule.sort_by_key(|(at, _)| *at);
    let shared: Shared<DriverLog> = Shared::default();
    pop.driver = Some(Arc::clone(&shared));
    SessionDriver {
        gw: gw.clone(),
        seed,
        clients,
        schedule,
        next: 0,
        probe: probe.clone(),
        log: DriverLog::default(),
        shared,
    }
}

/// One repetition.
pub fn rep(cfg: &RepCfg, shape: Shape) -> Rep {
    run(cfg, shape, FANOUT_CLIENTS)
}

/// A repetition with an explicit sessionless-client count (the traced
/// pass runs a `clients = 0` control to price the cluster alone).
fn run(cfg: &RepCfg, shape: Shape, fanout_clients: usize) -> Rep {
    let run = cfg.horizon(HORIZON);
    let workers = cpu_cores();
    let trace = match cfg.probe {
        Some(_) => SharedTraceSink::enabled(),
        None => SharedTraceSink::disabled(),
    };
    let probe = cfg.probe.map(SinkProbe::new);

    let mut cluster = Cluster::new(ClusterConfig {
        pace: Pace::Virtual,
        nrt_queue_cap: 256,
        ..ClusterConfig::default()
    });
    cluster.use_sink(trace.clone());
    let srcs = sources();
    let nodes = traffic::add_publishers(&mut cluster, cfg.seed, &srcs, cfg.probe);
    let gateway = Gateway::new(GatewayConfig {
        workers,
        client_queue_cap: QUEUE_CAP,
        resume_ring_cap: RING_CAP,
        sink: trace,
        ..GatewayConfig::default()
    });
    for s in &srcs {
        gateway.bind(s.subject, &traffic::spec_of(s));
    }
    let mut pop = Population::default();
    let driver = match shape {
        Shape::Fanout => {
            register_fanout(&gateway, cfg.seed, fanout_clients, &probe, &mut pop);
            None
        }
        Shape::Resume => Some(register_sessions(&gateway, cfg.seed, run, &probe, &mut pop)),
    };
    let behavior: Box<dyn Behavior> = match &probe {
        Some(p) => Box::new(StampedGateway {
            inner: gateway.behavior(),
            probe: Arc::clone(p),
            deliveries: 0,
        }),
        None => gateway.behavior(),
    };
    let gw_node = cluster.add_node(behavior);
    for s in &srcs {
        cluster.subscribe(gw_node, s.subject, traffic::spec_of(s));
    }
    if let Some(driver) = driver {
        cluster.add_node(Box::new(driver));
    }

    let before = Usage::now();
    let wall = Instant::now();
    let (report, gw) = match cfg.probe {
        Some(p) => {
            let report = p
                .tracer
                .span("Cluster::run_for", p.parent, |_| cluster.run_for(run));
            (
                report,
                p.tracer
                    .span("Gateway::finish", p.parent, |_| gateway.finish()),
            )
        }
        None => (cluster.run_for(run), gateway.finish()),
    };
    let report = report.expect("gateway run failed");
    let wall_s = wall.elapsed().as_secs_f64();
    let usage = Usage::now().since(&before);

    let mut out = Rep {
        wall_s,
        ops: gw.stats.fanout,
        usage,
        ..Rep::default()
    };
    let facts = traffic::bus_facts(&report, gw_node, &nodes, run, &mut out);
    check_gateway(&gw, &facts, &pop, workers, &mut out);

    let mut digest = facts.digest;
    for lane in &gw.lanes {
        let d = lane.digest.unwrap_or_default();
        for w in [
            u64::from(lane.client),
            lane.shard as u64,
            lane.stats.delivered_msgs,
            lane.stats.shed_nrt + lane.stats.shed_srt_cap + lane.stats.shed_srt_stale,
            lane.stats.peak as u64,
            d.frames,
            d.digest,
        ] {
            digest.word(w);
        }
    }
    let s = &gw.sessions;
    for w in [
        gw.stats.ingress,
        gw.stats.fanout,
        gw.stats.delivered_msgs,
        gw.stats.shed_total(),
        s.detached,
        s.resumed,
        s.gapped,
        s.replayed_hrt + s.replayed_srt + s.replayed_nrt,
        s.gap_frames,
        s.srt_stale_skipped,
        s.replay_bytes,
    ] {
        digest.word(w);
    }
    out.digest = digest.0;

    let m = &mut out.layer;
    facts.report(m);
    live_layer(&report, run, wall_s, &usage, m);
    gateway_layer(&gw, wall_s, &pop, m);
    if let Some(p) = &probe {
        audit_trace(&report, cfg, &mut out);
        let m = &mut out.layer;
        let to_sink = Percentiles::new(std::mem::take(&mut *p.to_sink_ns.lock().expect("samples")));
        m.set(
            "gateway.delivery_to_sink_us_p50",
            to_sink.p50() as f64 / 1e3,
        );
        m.set(
            "gateway.delivery_to_sink_us_p99",
            to_sink.tail().1 as f64 / 1e3,
        );
        m.set("gateway.delivery_to_sink_samples", to_sink.count() as f64);
        let resume = Percentiles::new(std::mem::take(&mut *p.resume_ns.lock().expect("samples")));
        m.set("gateway.resume_us_p50", resume.p50() as f64 / 1e3);
        m.set("gateway.resume_us_p99", resume.tail().1 as f64 / 1e3);
        m.set("gateway.resume_samples", resume.count() as f64);
    }
    out
}

/// The gateway-side checks: bounded lanes, HRT exactly once at every
/// fast consumer, every scheduled resume honoured.
fn check_gateway(
    gw: &GatewayReport,
    facts: &traffic::BusFacts,
    pop: &Population,
    workers: usize,
    out: &mut Rep,
) {
    if gw.stats.peak_lane_occupancy > QUEUE_CAP {
        out.fail(format!(
            "lane occupancy {} above the cap {QUEUE_CAP}",
            gw.stats.peak_lane_occupancy
        ));
    }
    if gw.stats.disconnects + gw.stats.oversized != 0 {
        out.fail(format!(
            "{} disconnects, {} oversized",
            gw.stats.disconnects, gw.stats.oversized
        ));
    }
    let hrt_shard = HRT_SUBJECT.shard_of(workers);
    let mut hrt_wrong = 0u64;
    for lane in gw.lanes.iter().filter(|l| l.shard == hrt_shard) {
        let fast_hrt = pop.fast_hrt.get(lane.client as usize) == Some(&true);
        if fast_hrt && lane.stats.delivered_hrt != facts.hrt_delivered {
            hrt_wrong += 1;
        }
    }
    for (state, hrt) in &pop.sessions {
        let s = state.lock().expect("client state");
        let complete = !hrt || u64::from(s.hrt_next) == facts.hrt_delivered;
        if s.hrt_disorder != 0 || s.undecodable != 0 || !complete {
            hrt_wrong += 1;
        }
    }
    if hrt_wrong > 0 {
        out.fail(format!(
            "{hrt_wrong} fast consumers saw an HRT event missing, duplicated or undecodable"
        ));
    }
    if let Some(driver) = &pop.driver {
        let d = driver.lock().expect("driver log");
        let s = &gw.sessions;
        if d.refused != 0 || s.aborted != 0 || s.resumed + s.gapped != d.resumes {
            out.fail(format!(
                "{} resumes: {} refused, {} aborted, {} resumed, {} gapped",
                d.resumes, d.refused, s.aborted, s.resumed, s.gapped
            ));
        }
        if d.resumes != SESSION_CLIENTS as u64 || s.detached != d.resumes {
            out.fail(format!(
                "{} severs and {} resumes for {SESSION_CLIENTS} clients",
                s.detached, d.resumes
            ));
        }
    }
}

/// The `gateway.*` counters and the two consumer-visible ratios.
fn gateway_layer(gw: &GatewayReport, wall_s: f64, pop: &Population, m: &mut Metrics) {
    let st = &gw.stats;
    let s = &gw.sessions;
    let fanout = st.fanout.max(1) as f64;
    let replayed = s.replayed_hrt + s.replayed_srt + s.replayed_nrt;
    m.set("shed_ratio", st.shed_total() as f64 / fanout);
    if replayed + s.gap_frames > 0 {
        m.set(
            "replay_coverage",
            replayed as f64 / (replayed + s.gap_frames) as f64,
        );
    }
    m.set("gateway.ingress", st.ingress as f64);
    m.set("gateway.fanout", st.fanout as f64);
    m.set("gateway.delivered_msgs", st.delivered_msgs as f64);
    m.set("gateway.batches", st.batches as f64);
    m.set("gateway.fragments", st.fragments as f64);
    m.set("gateway.lanes_per_event", fanout / st.ingress.max(1) as f64);
    m.set("gateway.shed_nrt", st.shed_nrt as f64);
    m.set("gateway.shed_srt_stale", st.shed_srt_stale as f64);
    m.set("gateway.shed_srt_cap", st.shed_srt_cap as f64);
    m.set("gateway.peak_lane_occupancy", st.peak_lane_occupancy as f64);
    let busiest = gw.shards.iter().map(|s| s.fanout).max().unwrap_or(0) as f64;
    let mean = fanout / gw.shards.len().max(1) as f64;
    m.set("gateway.worker_balance", busiest / mean);
    m.set("gateway.fanout_ns", wall_s * 1e9 / fanout);
    let mut bytes = pop.totals.bytes.load(Ordering::Relaxed);
    let mut frames = pop.totals.frames.load(Ordering::Relaxed);
    for (state, _) in &pop.sessions {
        let s = state.lock().expect("client state");
        bytes += s.bytes;
        frames += s.digest.frames;
    }
    let payload = RT_PAYLOAD as u64 * (st.delivered_hrt + st.delivered_srt)
        + inputs::BULK_PAYLOAD as u64 * st.delivered_nrt;
    m.set(
        "gateway.wire_bytes_per_msg",
        bytes as f64 / frames.max(1) as f64,
    );
    m.set(
        "gateway.goodput_ratio",
        payload as f64 / bytes.max(1) as f64,
    );
    m.set("gateway.resumes", (s.resumed + s.gapped) as f64);
    m.set("gateway.verdict_resumed", s.resumed as f64);
    m.set("gateway.verdict_gap", s.gapped as f64);
    m.set("gateway.replayed_frames", replayed as f64);
    m.set("gateway.gap_frames", s.gap_frames as f64);
    m.set("gateway.replay_bytes", s.replay_bytes as f64);
    m.set("gateway.srt_stale_skipped", s.srt_stale_skipped as f64);
}

/// The gateway's kernels, the `clients = 0` control and (fanout only)
/// real Unix-socket clients. Returns failed checks.
pub fn extras(
    cfg: &RepCfg,
    base: &Rep,
    kernels: &Kernels,
    out: &mut Metrics,
    shape: Shape,
) -> Vec<String> {
    let mut failures = Vec::new();
    out.set("gateway.encode_ns", kernels.gateway_encode_ns());
    out.set("gateway.decode_ns", kernels.gateway_decode_ns());
    out.set("gateway.lane_ns", kernels.gateway_lane_ns(QUEUE_CAP, 1000));
    out.set(
        "gateway.lane_shed_ns",
        kernels.gateway_lane_ns(QUEUE_CAP, SLOW_PERMILLE),
    );
    if shape == Shape::Fanout {
        let probe = cfg.probe.expect("extras only run traced");
        let plain = RepCfg {
            probe: None,
            ..*cfg
        };
        let control = probe
            .tracer
            .span("control: clients = 0", probe.parent, |_| {
                run(&plain, shape, 0)
            });
        let share = control.usage.cpu_s / base.usage.cpu_s.max(1e-9);
        out.set("gateway.cluster_cpu_share", share);
        // A ratio of two CPU readings on a shared host: reported and
        // flagged, not failed on.
        if share >= 0.25 {
            eprintln!(
                "gw-fanout WARNING: the cluster alone is {:.0} % of the CPU; the gateway should be > 75 %",
                share * 100.0
            );
        }
        if let Err(e) = socket_clients(cfg, out) {
            failures.push(format!("socket clients: {e}"));
        }
    }
    failures
}

/// `nproc` real `GatewayClient`s over a Unix socket, a tenth of the
/// horizon: connect→`Welcome` time, and gateway-node delivery→`recv`
/// time. Not a throughput workload — the bus caps ingress at ~2 k
/// events per bus second, which a handful of streams never feels — but
/// the record the I/O-model choice of the roadmap needs a "before" of.
fn socket_clients(cfg: &RepCfg, out: &mut Metrics) -> std::io::Result<()> {
    let probe = cfg.probe.expect("extras only run traced");
    let sink_probe = Arc::new(SinkProbe {
        probe,
        seen: Mutex::default(),
        to_sink_ns: Mutex::default(),
        resume_ns: Mutex::default(),
    });
    let mut cluster = Cluster::new(ClusterConfig {
        pace: Pace::Virtual,
        nrt_queue_cap: 256,
        trace: false,
        ..ClusterConfig::default()
    });
    let srcs = sources();
    traffic::add_publishers(&mut cluster, cfg.seed, &srcs, None);
    let gateway = Gateway::new(GatewayConfig {
        workers: cpu_cores(),
        client_queue_cap: QUEUE_CAP,
        ..GatewayConfig::default()
    });
    for s in &srcs {
        gateway.bind(s.subject, &traffic::spec_of(s));
    }
    std::fs::create_dir_all(crate::OUT_DIR)?;
    let path = format!("{}/gw-{}.sock", crate::OUT_DIR, std::process::id());
    let _ = std::fs::remove_file(&path);
    let acceptor = Acceptor::unix(gateway.clone(), &path, SlowConsumerPolicy::ShedNrtFirst)?;
    let subjects: Vec<Subject> = srcs.iter().map(|s| s.subject).collect();

    let mut handshakes = Vec::new();
    let mut readers = Vec::new();
    for _ in 0..cpu_cores() {
        let t0 = probe.tracer.now_ns();
        let mut client = GatewayClient::connect_unix(&path, &subjects)?;
        let t1 = probe.tracer.now_ns();
        probe
            .tracer
            .record("GatewayClient::connect_unix", probe.parent, t0, t1, None);
        handshakes.push(t1 - t0);
        let p = Arc::clone(&sink_probe);
        readers.push(std::thread::spawn(move || {
            let mut samples = Vec::new();
            while let Ok(Some(msg)) = client.recv() {
                let now = p.probe.tracer.now_ns();
                match msg {
                    ToClient::Event(ev) => {
                        let key = inputs::seq_of(&ev.payload).map(|s| (ev.uid, s));
                        let seen =
                            key.and_then(|k| p.seen.lock().expect("probe table").get(&k).copied());
                        if let Some(at) = seen {
                            samples.push(now.saturating_sub(at));
                        }
                    }
                    ToClient::Disconnect { .. } => break,
                    _ => {}
                }
            }
            samples
        }));
    }
    let gw_node = cluster.add_node(Box::new(StampedGateway {
        inner: gateway.behavior(),
        probe: Arc::clone(&sink_probe),
        deliveries: 0,
    }));
    for s in &srcs {
        cluster.subscribe(gw_node, s.subject, traffic::spec_of(s));
    }
    let result = probe
        .tracer
        .span("Cluster::run_for (sockets)", probe.parent, |_| {
            cluster.run_for(HORIZON / 10)
        });
    gateway.finish();
    let mut stream = Vec::new();
    for r in readers {
        stream.extend(r.join().expect("socket reader panicked"));
    }
    acceptor.stop();
    result.map_err(|e| std::io::Error::other(e.to_string()))?;
    let stream = Percentiles::new(stream);
    out.set(
        "gateway.net_handshake_us",
        Percentiles::new(handshakes).p50() as f64 / 1e3,
    );
    out.set("gateway.net_stream_us_p50", stream.p50() as f64 / 1e3);
    out.set("gateway.net_stream_samples", stream.count() as f64);
    Ok(())
}

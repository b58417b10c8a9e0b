//! End-to-end tests of the gateway against a live loopback cluster:
//! per-class QoS off-bus (HRT beats NRT bulk under client contention),
//! same-seed determinism of the whole egress path, slow-consumer
//! policies, merged trace auditing, and a real TCP client.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

use rtec_conformance::audit::{audit, AuditContext};
use rtec_core::channel::{ChannelClass, ChannelSpec, HrtSpec, NrtSpec, SrtSpec};
use rtec_core::event::{Event, Subject};
use rtec_gateway::wire::{Reason, ToClient};
use rtec_gateway::{
    Acceptor, ClassWatermarks, ClientSink, ClientSinkSpec, Gateway, GatewayClient, GatewayConfig,
    GatewayReport, SinkStatus, SlowConsumerPolicy, WmSource,
};
use rtec_live::chaos::{LinkChaos, LinkFault, LinkPlan};
use rtec_live::cluster::{Cluster, ClusterConfig, LiveReport};
use rtec_live::node::{Behavior, NodeCtx};
use rtec_live::Pace;
use rtec_sim::{Duration, TraceSink};

/// Publishes a fresh HRT sample every calendar round.
struct HrtSource {
    subject: Subject,
    counter: u8,
    period: Duration,
}

impl Behavior for HrtSource {
    fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
        ctx.publish(Event::new(self.subject, vec![self.counter]))
            .unwrap();
        let (at, period) = ctx.hrt_stage_schedule(self.subject).unwrap();
        self.period = period;
        ctx.set_timer(at, 0).unwrap();
    }

    fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, _payload: u64) {
        self.counter = self.counter.wrapping_add(1);
        ctx.publish(Event::new(self.subject, vec![self.counter]))
            .unwrap();
        ctx.set_timer(ctx.now() + self.period, 0).unwrap();
    }
}

/// Publishes an SRT sample every `every`.
struct SrtSource {
    subject: Subject,
    every: Duration,
    counter: u8,
}

impl Behavior for SrtSource {
    fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
        ctx.set_timer(ctx.now() + self.every, 0).unwrap();
    }

    fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, _payload: u64) {
        self.counter = self.counter.wrapping_add(1);
        let _ = ctx.publish(Event::new(self.subject, vec![0xAB, self.counter]));
        ctx.set_timer(ctx.now() + self.every, 0).unwrap();
    }
}

/// Publishes a bulk NRT transfer every `every`.
struct NrtPulse {
    subject: Subject,
    every: Duration,
    bytes: usize,
}

impl Behavior for NrtPulse {
    fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
        ctx.set_timer(ctx.now() + self.every, 0).unwrap();
    }

    fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, _payload: u64) {
        let payload: Vec<u8> = (0..self.bytes).map(|i| i as u8).collect();
        let _ = ctx.publish(Event::new(self.subject, payload));
        ctx.set_timer(ctx.now() + self.every, 0).unwrap();
    }
}

/// A sink that refuses everything until its gate opens, then records
/// every decoded message in arrival order.
#[derive(Clone)]
struct GatedRecorder {
    open: Arc<AtomicBool>,
    msgs: Arc<Mutex<Vec<ToClient>>>,
}

impl GatedRecorder {
    fn new() -> Self {
        GatedRecorder {
            open: Arc::new(AtomicBool::new(false)),
            msgs: Arc::new(Mutex::new(Vec::new())),
        }
    }
}

impl ClientSink for GatedRecorder {
    fn offer(&mut self, bytes: &[u8]) -> SinkStatus {
        if !self.open.load(Ordering::SeqCst) {
            return SinkStatus::Busy;
        }
        let msg = rtec_gateway::wire::decode_to_client(bytes).expect("gateway sent junk");
        self.msgs.lock().unwrap().push(msg);
        SinkStatus::Accepted
    }
}

/// HRT samples and NRT bulk contending for one blocked client: when the
/// client finally drains, every HRT sample comes out first — released,
/// never shed — while the NRT backlog was shed to the client's one
/// queue bound. The two subjects hash to different `shard_of` values:
/// the class order holds across a client's whole stream, not per
/// subject group, and the client gets exactly one goodbye.
#[test]
fn hrt_beats_nrt_bulk_under_client_contention() {
    let workers = 3;
    let hrt_subject = Subject::new(0x1001);
    let nrt_subject = (0x3000u64..0x4000)
        .map(Subject::new)
        .find(|s| s.shard_of(workers) != hrt_subject.shard_of(workers))
        .expect("no subject on another shard in range");
    let cfg = ClusterConfig {
        pace: Pace::Virtual,
        nrt_queue_cap: 256,
        ..ClusterConfig::default()
    };
    let mut cluster = Cluster::new(cfg);
    let n0 = cluster.add_node(Box::new(HrtSource {
        subject: hrt_subject,
        counter: 0,
        period: Duration::from_ms(10),
    }));
    let n1 = cluster.add_node(Box::new(NrtPulse {
        subject: nrt_subject,
        every: Duration::from_ms(5),
        bytes: 600,
    }));
    let hrt = ChannelSpec::Hrt(HrtSpec::periodic_10ms());
    let nrt = ChannelSpec::Nrt(NrtSpec::bulk());
    cluster.publish(n0, hrt_subject, hrt);
    cluster.publish(n1, nrt_subject, nrt);

    let gateway = Gateway::new(GatewayConfig {
        workers,
        client_queue_cap: 12,
        ..GatewayConfig::default()
    });
    gateway.bind(hrt_subject, &hrt);
    gateway.bind(nrt_subject, &nrt);
    let recorder = GatedRecorder::new();
    let handle = recorder.clone();
    gateway.add_client(
        &[hrt_subject, nrt_subject],
        &ClientSinkSpec::PerShard(Box::new(move |_, _| Box::new(handle.clone()))),
        Some(SlowConsumerPolicy::ShedNrtFirst),
    );
    let gw_node = cluster.add_node(gateway.behavior());
    cluster.subscribe(gw_node, hrt_subject, hrt);
    cluster.subscribe(gw_node, nrt_subject, nrt);

    let report = cluster.run_for(Duration::from_ms(80)).unwrap();
    // The client wakes up only now: the backlog drains in class order.
    recorder.open.store(true, Ordering::SeqCst);
    let gw = gateway.finish();

    let hrt_ingress = report
        .log
        .iter()
        .filter(|r| r.node == gw_node && r.class == ChannelClass::Hrt)
        .count() as u64;
    assert!(hrt_ingress > 0, "no HRT deliveries reached the gateway");
    assert_eq!(
        gw.stats.delivered_hrt, hrt_ingress,
        "every HRT sample must survive the contention"
    );
    assert!(gw.stats.shed_nrt > 0, "the NRT backlog was never shed");
    assert!(
        gw.stats.peak_lane_occupancy <= 12,
        "lane queue exceeded its bound"
    );

    let msgs = recorder.msgs.lock().unwrap();
    let first_non_hrt = msgs
        .iter()
        .position(|m| !matches!(m, ToClient::Event(e) if e.class == ChannelClass::Hrt))
        .expect("nothing but HRT came out");
    assert_eq!(
        first_non_hrt as u64, hrt_ingress,
        "all HRT must drain before any NRT"
    );
    assert!(
        !msgs[first_non_hrt..]
            .iter()
            .any(|m| matches!(m, ToClient::Event(e) if e.class == ChannelClass::Hrt)),
        "HRT appeared after NRT in the drain"
    );
    assert!(
        msgs.iter().any(|m| matches!(m, ToClient::Frag(_))),
        "bulk NRT should be fragment-streamed"
    );
    let goodbyes = msgs
        .iter()
        .filter(|m| matches!(m, ToClient::Disconnect { .. }))
        .count();
    assert_eq!(goodbyes, 1, "one client, one lane, one goodbye");
    assert!(
        matches!(
            msgs.last(),
            Some(ToClient::Disconnect {
                reason: Reason::Shutdown
            })
        ),
        "session should end with a shutdown notice"
    );
}

/// Build the standard mixed cluster + gateway used by the determinism
/// and audit tests.
fn mixed_run(sink: Option<TraceSink>) -> (LiveReport, GatewayReport, u8) {
    let hrt_subject = Subject::new(0x1001);
    let srt_subject = Subject::new(0x2002);
    let nrt_subject = Subject::new(0x3003);
    let cfg = ClusterConfig {
        pace: Pace::Virtual,
        nrt_queue_cap: 256,
        ..ClusterConfig::default()
    };
    let mut cluster = Cluster::new(cfg);
    if let Some(s) = &sink {
        cluster.use_sink(s.clone());
    }
    let n0 = cluster.add_node(Box::new(HrtSource {
        subject: hrt_subject,
        counter: 0,
        period: Duration::from_ms(10),
    }));
    let n1 = cluster.add_node(Box::new(SrtSource {
        subject: srt_subject,
        every: Duration::from_ms(3),
        counter: 0,
    }));
    let n2 = cluster.add_node(Box::new(NrtPulse {
        subject: nrt_subject,
        every: Duration::from_ms(7),
        bytes: 400,
    }));
    let hrt = ChannelSpec::Hrt(HrtSpec::periodic_10ms());
    let srt = ChannelSpec::Srt(SrtSpec::default());
    let nrt = ChannelSpec::Nrt(NrtSpec::bulk());
    cluster.publish(n0, hrt_subject, hrt);
    cluster.publish(n1, srt_subject, srt);
    cluster.publish(n2, nrt_subject, nrt);

    let gateway = Gateway::new(GatewayConfig {
        workers: 4,
        client_queue_cap: 8,
        sink: sink.clone().unwrap_or_else(TraceSink::disabled),
        ..GatewayConfig::default()
    });
    gateway.bind(hrt_subject, &hrt);
    gateway.bind(srt_subject, &srt);
    gateway.bind(nrt_subject, &nrt);
    let subjects = [hrt_subject, srt_subject, nrt_subject];
    for (i, permille) in [1000u16, 650, 300, 1000, 450].iter().enumerate() {
        gateway.add_client(
            &subjects,
            &ClientSinkSpec::sim(42 + i as u64, *permille),
            Some(if i % 2 == 0 {
                SlowConsumerPolicy::ShedNrtFirst
            } else {
                SlowConsumerPolicy::CoalesceToLatest
            }),
        );
    }
    let gw_node = cluster.add_node(gateway.behavior());
    cluster.subscribe(gw_node, hrt_subject, hrt);
    cluster.subscribe(gw_node, srt_subject, srt);
    cluster.subscribe(gw_node, nrt_subject, nrt);

    let report = cluster.run_for(Duration::from_ms(60)).unwrap();
    let gw = gateway.finish();
    (report, gw, gw_node)
}

/// The counters of a run: one lane per client, however many workers its
/// subjects hash to, and `ingress` is the gateway node's deliveries
/// (every worker sees every event; the count is not summed over them).
fn check_mixed_counters(report: &LiveReport, gw: &GatewayReport, gw_node: u8) {
    let clients: std::collections::BTreeSet<u32> = gw.lanes.iter().map(|l| l.client).collect();
    assert_eq!(clients.len(), 5, "every client reports");
    assert_eq!(gw.lanes.len(), 5, "one LaneReport per client");
    let deliveries = report.log.iter().filter(|r| r.node == gw_node).count() as u64;
    assert!(deliveries > 0);
    assert_eq!(gw.stats.ingress, deliveries);
    assert!(gw.shards.iter().all(|s| s.ingress == deliveries));
}

/// Same seed ⇒ equal gateway reports (sink digests, lane stats, shard
/// and session counters) across two independent runs (threads and all).
#[test]
fn same_seed_gateway_runs_are_byte_identical() {
    let (ra, ga, gw_node) = mixed_run(None);
    check_mixed_counters(&ra, &ga, gw_node);
    let (rb, gb, _) = mixed_run(None);
    assert_eq!(ra.log, rb.log, "cluster delivery logs diverged");
    assert_eq!(ga, gb, "gateway reports diverged");
    assert!(
        ga.lanes
            .iter()
            .any(|l| l.digest.as_ref().is_some_and(|d| d.frames > 0)),
        "no lane delivered anything"
    );
}

/// The gateway's trace records merge into the cluster's sink and the
/// combined trace still satisfies the T1..T9 auditor.
#[test]
fn merged_gateway_trace_passes_conformance_audit() {
    let sink = TraceSink::enabled();
    let (report, gw, gw_node) = mixed_run(Some(sink.clone()));
    check_mixed_counters(&report, &gw, gw_node);
    assert!(gw.stats.delivered_msgs > 0);
    assert_eq!(sink.dropped(), 0, "trace ring overflowed");
    let mut trace = sink.events();
    trace.sort_by(|x, y| (x.time, &x.source).cmp(&(y.time, &y.source)));
    assert!(
        trace.iter().any(|e| e.kind == "gw_fanout"),
        "gateway fanout records missing from the merged trace"
    );
    assert!(
        trace.iter().any(|e| e.kind == "gw_shard"),
        "gateway shard summaries missing from the merged trace"
    );
    let ctx = AuditContext::from_parts(
        (*report.calendar).clone(),
        report.calendar_start,
        report.channels.clone(),
        report.hrt_periods.clone(),
    );
    let rep = audit(&ctx, &trace);
    assert!(
        rep.passes(),
        "audit failed on the merged trace:\n{:#?}",
        rep.errors().collect::<Vec<_>>()
    );
}

/// The two remaining policies, end to end: a dead-slow client under
/// `Disconnect` is torn down; under `CoalesceToLatest` it stays
/// connected and its backlog collapses to the newest events.
#[test]
fn slow_consumer_policies_disconnect_vs_coalesce() {
    let srt_subject = Subject::new(0x2002);
    let cfg = ClusterConfig {
        pace: Pace::Virtual,
        ..ClusterConfig::default()
    };
    let mut cluster = Cluster::new(cfg);
    let n0 = cluster.add_node(Box::new(SrtSource {
        subject: srt_subject,
        every: Duration::from_ms(2),
        counter: 0,
    }));
    let srt = ChannelSpec::Srt(SrtSpec::default());
    cluster.publish(n0, srt_subject, srt);

    let gateway = Gateway::new(GatewayConfig {
        workers: 2,
        client_queue_cap: 2,
        ..GatewayConfig::default()
    });
    gateway.bind(srt_subject, &srt);
    let brittle = gateway.add_client(
        &[srt_subject],
        &ClientSinkSpec::sim(7, 0), // never accepts
        Some(SlowConsumerPolicy::Disconnect),
    );
    let patient = gateway.add_client(
        &[srt_subject],
        &ClientSinkSpec::sim(8, 0), // never accepts either
        Some(SlowConsumerPolicy::CoalesceToLatest),
    );
    let gw_node = cluster.add_node(gateway.behavior());
    cluster.subscribe(gw_node, srt_subject, srt);

    cluster.run_for(Duration::from_ms(40)).unwrap();
    let gw = gateway.finish();

    let lane = |client: u32| {
        gw.lanes
            .iter()
            .find(|l| l.client == client)
            .expect("lane missing")
    };
    assert!(lane(brittle).gone, "Disconnect policy never fired");
    assert!(gw.stats.disconnects >= 1);
    let patient_lane = lane(patient);
    assert!(!patient_lane.gone, "coalescing client must stay connected");
    assert!(
        patient_lane.stats.coalesced > 0,
        "backlog should collapse to the newest same-subject events"
    );
}

/// A real TCP client: handshake, a stream of re-published events, a
/// shutdown notice.
#[test]
fn tcp_client_receives_republished_events() {
    let srt_subject = Subject::new(0x2002);
    let cfg = ClusterConfig {
        pace: Pace::Virtual,
        ..ClusterConfig::default()
    };
    let mut cluster = Cluster::new(cfg);
    let n0 = cluster.add_node(Box::new(SrtSource {
        subject: srt_subject,
        every: Duration::from_ms(3),
        counter: 0,
    }));
    let srt = ChannelSpec::Srt(SrtSpec::default());
    cluster.publish(n0, srt_subject, srt);

    let gateway = Gateway::new(GatewayConfig::default());
    gateway.bind(srt_subject, &srt);
    let acceptor = Acceptor::tcp(
        gateway.clone(),
        "127.0.0.1:0",
        SlowConsumerPolicy::ShedNrtFirst,
    )
    .unwrap();
    // Connect (and therefore register) before the bus starts talking.
    let mut client = GatewayClient::connect(acceptor.addr(), &[srt_subject]).unwrap();

    let gw_node = cluster.add_node(gateway.behavior());
    cluster.subscribe(gw_node, srt_subject, srt);
    cluster.run_for(Duration::from_ms(45)).unwrap();
    let gw = gateway.finish();
    acceptor.stop();

    let mut events = 0;
    let mut shutdown = false;
    while let Some(msg) = client.recv().unwrap() {
        match msg {
            ToClient::Event(e) => {
                assert_eq!(e.class, ChannelClass::Srt);
                assert_eq!(e.uid, srt_subject.uid());
                events += 1;
            }
            ToClient::Disconnect {
                reason: Reason::Shutdown,
            } => {
                shutdown = true;
                break;
            }
            _ => {}
        }
    }
    client.bye().unwrap();
    assert!(events > 0, "no events reached the TCP client");
    assert_eq!(gw.stats.delivered_msgs, events);
    assert!(shutdown, "missing shutdown notice");
}

/// Same transport contract over a Unix-domain socket: handshake,
/// events, shutdown notice, and the socket file is cleaned up.
#[cfg(unix)]
#[test]
fn unix_client_receives_republished_events() {
    let srt_subject = Subject::new(0x2002);
    let cfg = ClusterConfig {
        pace: Pace::Virtual,
        ..ClusterConfig::default()
    };
    let mut cluster = Cluster::new(cfg);
    let n0 = cluster.add_node(Box::new(SrtSource {
        subject: srt_subject,
        every: Duration::from_ms(3),
        counter: 0,
    }));
    let srt = ChannelSpec::Srt(SrtSpec::default());
    cluster.publish(n0, srt_subject, srt);

    let gateway = Gateway::new(GatewayConfig::default());
    gateway.bind(srt_subject, &srt);
    let path = std::env::temp_dir().join(format!("rtec-gw-{}.sock", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let acceptor =
        Acceptor::unix(gateway.clone(), &path, SlowConsumerPolicy::ShedNrtFirst).unwrap();
    let mut client = GatewayClient::connect_unix(acceptor.path(), &[srt_subject]).unwrap();

    let gw_node = cluster.add_node(gateway.behavior());
    cluster.subscribe(gw_node, srt_subject, srt);
    cluster.run_for(Duration::from_ms(30)).unwrap();
    let gw = gateway.finish();
    acceptor.stop();

    let mut events = 0;
    let mut shutdown = false;
    while let Some(msg) = client.recv().unwrap() {
        match msg {
            ToClient::Event(e) => {
                assert_eq!(e.class, ChannelClass::Srt);
                events += 1;
            }
            ToClient::Disconnect {
                reason: Reason::Shutdown,
            } => {
                shutdown = true;
                break;
            }
            _ => {}
        }
    }
    client.bye().unwrap();
    assert!(events > 0, "no events reached the Unix-domain client");
    assert_eq!(gw.stats.delivered_msgs, events);
    assert!(shutdown, "missing shutdown notice");
    assert!(!path.exists(), "socket file must be removed on stop()");
}

/// A version-1 client — raw version-1 frames, no resume fields — is
/// refused: its `Hello` does not decode, so no `Welcome` is written,
/// the stream closes, and neither a session nor a lane is opened.
#[test]
fn a_version_one_hello_is_refused() {
    use std::io::{ErrorKind, Write as _};

    fn v1_frame(kind: u8, body: &[u8]) -> Vec<u8> {
        let mut msg = vec![b'R', b'G', 1, kind];
        msg.extend_from_slice(body);
        let mut framed = (msg.len() as u32).to_le_bytes().to_vec();
        framed.extend_from_slice(&msg);
        framed
    }

    let gateway = Gateway::new(GatewayConfig::default());
    let acceptor = Acceptor::tcp(
        gateway.clone(),
        "127.0.0.1:0",
        SlowConsumerPolicy::ShedNrtFirst,
    )
    .unwrap();
    let mut stream = std::net::TcpStream::connect(acceptor.addr()).unwrap();
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(10)))
        .unwrap();
    stream.write_all(&v1_frame(1, &1u16.to_le_bytes())).unwrap();
    // The gateway may already have closed the stream; a failed write
    // of the subscription is part of the refusal.
    let _ = stream.write_all(&v1_frame(2, &0x2002u64.to_le_bytes()));
    // A close with the subscription still unread may arrive as a reset.
    match rtec_gateway::wire::read_frame(&mut stream) {
        Ok(Some(frame)) => panic!(
            "a version-1 Hello was answered: {:?}",
            rtec_gateway::wire::decode_to_client(&frame)
        ),
        Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
            panic!("the stream stayed open: {e}")
        }
        Ok(None) | Err(_) => {}
    }
    assert_eq!(gateway.session_stats().opened, 0);
    acceptor.stop();
    let gw = gateway.finish();
    assert!(gw.lanes.is_empty(), "{:?}", gw.lanes);
}

/// A client with more subjects than a `Hello` can count is refused
/// before it writes a byte, instead of announcing the count modulo
/// 2^16 and being welcomed with an empty subscription set.
#[test]
fn too_many_subjects_are_refused_before_the_hello() {
    let gateway = Gateway::new(GatewayConfig::default());
    let acceptor = Acceptor::tcp(
        gateway.clone(),
        "127.0.0.1:0",
        SlowConsumerPolicy::ShedNrtFirst,
    )
    .unwrap();
    let subjects: Vec<Subject> = (0..=u64::from(u16::MAX)).map(Subject::new).collect();
    let err = GatewayClient::connect(acceptor.addr(), &subjects)
        .err()
        .expect("65 536 subjects must not complete a handshake");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput, "{err}");
    // `stop` joins the acceptor, which handshakes inline.
    acceptor.stop();
    assert_eq!(gateway.session_stats().opened, 0);
    assert!(gateway.finish().lanes.is_empty());
}

/// A TCP client severed mid-stream resumes its session and receives
/// exactly the missing HRT suffix: across both connections every HRT
/// sequence number appears exactly once — no duplicates, no holes
/// (§3.2's exactly-once contract carried over a reconnect).
#[test]
fn severed_tcp_client_resumes_with_exact_hrt_replay() {
    use rtec_gateway::wire::ResumeVerdict;

    let hrt_subject = Subject::new(0x1001);
    let cfg = ClusterConfig {
        pace: Pace::Virtual,
        ..ClusterConfig::default()
    };
    let mut cluster = Cluster::new(cfg);
    let n0 = cluster.add_node(Box::new(HrtSource {
        subject: hrt_subject,
        counter: 0,
        period: Duration::from_ms(10),
    }));
    let hrt = ChannelSpec::Hrt(HrtSpec::periodic_10ms());
    cluster.publish(n0, hrt_subject, hrt);

    let gateway = Gateway::new(GatewayConfig::default());
    gateway.bind(hrt_subject, &hrt);
    let acceptor = Acceptor::tcp(
        gateway.clone(),
        "127.0.0.1:0",
        SlowConsumerPolicy::ShedNrtFirst,
    )
    .unwrap();
    let mut first = GatewayClient::connect(acceptor.addr(), &[hrt_subject]).unwrap();
    assert!(
        matches!(
            first.session,
            rtec_gateway::wire::SessionInfo {
                verdict: ResumeVerdict::Fresh,
                ..
            }
        ),
        "a connect should open a fresh session"
    );

    let gw_node = cluster.add_node(gateway.behavior());
    cluster.subscribe(gw_node, hrt_subject, hrt);
    cluster.run_for(Duration::from_ms(45)).unwrap();

    // Read a strict prefix of the delivered events, then sever the
    // connection with the rest still in flight.
    first
        .set_read_timeout(Some(std::time::Duration::from_secs(2)))
        .unwrap();
    let mut seqs = Vec::new();
    while seqs.len() < 2 {
        match first.recv() {
            Ok(Some(ToClient::Event(e))) => seqs.push(e.seq),
            Ok(Some(_)) => {}
            Ok(None) => break,
            Err(_) => break,
        }
    }
    assert_eq!(seqs.len(), 2, "expected at least two HRT deliveries");
    let resume = first.resume_req();
    drop(first); // sever: no Bye

    let mut second =
        GatewayClient::connect_resume(acceptor.addr(), &[hrt_subject], resume).unwrap();
    let verdict = second.session.verdict;
    assert_eq!(
        verdict,
        ResumeVerdict::Resumed,
        "replay ring should cover the gap"
    );

    // Drain the replay (bounded by a read timeout), then shut down and
    // collect the shutdown notice.
    second
        .set_read_timeout(Some(std::time::Duration::from_millis(300)))
        .unwrap();
    loop {
        match second.recv() {
            Ok(Some(ToClient::Event(e))) => seqs.push(e.seq),
            Ok(Some(_)) => {}
            _ => break,
        }
    }
    let gw = gateway.finish();
    acceptor.stop();
    second
        .set_read_timeout(Some(std::time::Duration::from_secs(2)))
        .unwrap();
    let mut shutdown = false;
    loop {
        match second.recv() {
            Ok(Some(ToClient::Event(e))) => seqs.push(e.seq),
            Ok(Some(ToClient::Disconnect {
                reason: Reason::Shutdown,
            })) => {
                shutdown = true;
                break;
            }
            Ok(Some(_)) => {}
            _ => break,
        }
    }
    assert!(shutdown, "missing shutdown notice after resume");
    assert!(seqs.len() > 2, "the replay delivered nothing");

    // Exactly-once across the reconnect: every sequence number 0..n
    // appears exactly once, in order.
    let expected: Vec<u32> = (0..seqs.len() as u32).collect();
    assert_eq!(seqs, expected, "HRT replay duplicated or lost events");
    assert_eq!(gw.sessions.resumed, 1);
    assert_eq!(gw.sessions.gapped, 0);
    assert_eq!(gw.sessions.gap_frames, 0);
}

/// Parks one socket session's lane at a fixed bus time, as a dead
/// connection's reader would: later deliveries wait in the lane for a
/// resume instead of going out on the connection.
struct Detacher {
    gw: Gateway,
    client: u32,
    at: Duration,
}

impl Behavior for Detacher {
    fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
        ctx.set_timer(ctx.now() + self.at, 0).unwrap();
    }

    fn on_timer(&mut self, _ctx: &mut NodeCtx<'_>, _payload: u64) {
        self.gw.detach_session(self.client, 0);
    }
}

/// A [`ReconnectingClient`] whose gateway stops writing mid-stream
/// sees its stream go idle, re-dials with its watermarks and receives
/// the rest: its `recv` reads every HRT sequence number exactly once,
/// across one reconnect that resumed the session.
#[test]
fn reconnecting_client_resumes_a_stream_severed_mid_way() {
    use rtec_gateway::{ReconnectPolicy, ReconnectingClient, Target};

    let hrt_subject = Subject::new(0x1001);
    let cfg = ClusterConfig {
        pace: Pace::Virtual,
        ..ClusterConfig::default()
    };
    let mut cluster = Cluster::new(cfg);
    let n0 = cluster.add_node(Box::new(HrtSource {
        subject: hrt_subject,
        counter: 0,
        period: Duration::from_ms(10),
    }));
    let hrt = ChannelSpec::Hrt(HrtSpec::periodic_10ms());
    cluster.publish(n0, hrt_subject, hrt);

    let gateway = Gateway::new(GatewayConfig::default());
    gateway.bind(hrt_subject, &hrt);
    let acceptor = Acceptor::tcp(
        gateway.clone(),
        "127.0.0.1:0",
        SlowConsumerPolicy::ShedNrtFirst,
    )
    .unwrap();
    let policy = ReconnectPolicy {
        idle_timeout: Some(std::time::Duration::from_millis(500)),
        ..ReconnectPolicy::default()
    };
    let mut client =
        ReconnectingClient::connect(Target::Tcp(acceptor.addr()), &[hrt_subject], policy).unwrap();
    // The gateway's first client id is 0.
    assert_eq!(gateway.session_stats().opened, 1);

    let gw_node = cluster.add_node(gateway.behavior());
    cluster.subscribe(gw_node, hrt_subject, hrt);
    cluster.add_node(Box::new(Detacher {
        gw: gateway.clone(),
        client: 0,
        at: Duration::from_ms(25),
    }));
    let report = cluster.run_for(Duration::from_ms(65)).unwrap();
    let delivered = report.log.iter().filter(|r| r.node == gw_node).count() as u32;
    assert!(delivered > 4, "too few deliveries: {delivered}");

    // The frames written before the detach, then an idle stream, a
    // re-dial and the replay of the rest.
    let mut seqs = Vec::new();
    let mut before_sever = 0;
    while seqs.len() < delivered as usize {
        if let ToClient::Event(e) = client.recv().unwrap() {
            seqs.push(e.seq);
            before_sever += u32::from(client.stats().reconnects == 0);
        }
    }
    let stats = client.stats();
    assert_eq!((stats.reconnects, stats.resumed), (1, 1), "{stats:?}");
    assert_eq!(seqs, (0..delivered).collect::<Vec<_>>());
    assert!(
        (1..delivered).contains(&before_sever),
        "{before_sever} of {delivered} read before the sever"
    );

    // A goodbye from the gateway is surfaced, not retried.
    let gw = gateway.finish();
    acceptor.stop();
    loop {
        match client.recv().unwrap() {
            ToClient::Disconnect {
                reason: Reason::Shutdown,
            } => break,
            ToClient::Event(e) => panic!("an event past the last delivery: {}", e.seq),
            _ => {}
        }
    }
    assert_eq!(client.stats(), stats);
    assert_eq!(gw.sessions.resumed, 1);
}

/// `Bye` and an abrupt drop end differently: a clean goodbye spends
/// the session token (a later resume is refused), while a sever parks
/// the session and its token resumes within the TTL.
#[test]
fn bye_spends_the_session_but_a_sever_keeps_it_resumable() {
    use rtec_gateway::wire::ResumeVerdict;

    let subject = Subject::new(0x2002);
    let gateway = Gateway::new(GatewayConfig::default());
    gateway.bind(subject, &ChannelSpec::Srt(SrtSpec::default()));
    let acceptor = Acceptor::tcp(
        gateway.clone(),
        "127.0.0.1:0",
        SlowConsumerPolicy::ShedNrtFirst,
    )
    .unwrap();

    // Clean exit: Bye + half-close, observed as a drained stream.
    let polite = GatewayClient::connect(acceptor.addr(), &[subject]).unwrap();
    let polite_req = polite.resume_req();
    polite.bye().unwrap();
    let after_bye = GatewayClient::connect_resume(acceptor.addr(), &[subject], polite_req).unwrap();
    assert_eq!(
        after_bye.session.verdict,
        ResumeVerdict::Expired,
        "a Bye must spend the token; the fallback is a fresh session"
    );

    // Abrupt drop: the reader sees the sever and parks the session.
    let abrupt = GatewayClient::connect(acceptor.addr(), &[subject]).unwrap();
    let abrupt_req = abrupt.resume_req();
    drop(abrupt);
    let after_drop =
        GatewayClient::connect_resume(acceptor.addr(), &[subject], abrupt_req).unwrap();
    assert_eq!(
        after_drop.session.verdict,
        ResumeVerdict::Resumed,
        "a severed session must stay resumable within the TTL"
    );

    let gw = gateway.finish();
    acceptor.stop();
    assert_eq!(gw.sessions.ended_clean, 1, "one polite goodbye");
    assert_eq!(gw.sessions.refused, 1, "one refused (spent) token");
    assert_eq!(gw.sessions.resumed, 1, "one successful resume");
}

/// The client side of a chaotic session link: the link's fault machine,
/// the watermarks a reconnect reports, and the HRT seqs received.
struct LinkedClient {
    link: LinkChaos,
    wm: ClassWatermarks,
    hrt_seqs: Vec<u32>,
}

/// One connection's sink over a [`LinkedClient`]: a lost frame is
/// accepted (the write succeeded) but never received, and a severed
/// link reports the sink gone.
struct LinkedSink(Arc<Mutex<LinkedClient>>);

impl ClientSink for LinkedSink {
    fn offer(&mut self, bytes: &[u8]) -> SinkStatus {
        let mut c = self.0.lock().unwrap();
        match c.link.on_frame() {
            LinkFault::Severed => return SinkStatus::Gone,
            LinkFault::Lose => return SinkStatus::Accepted,
            LinkFault::Deliver | LinkFault::DeliverDelayed(_) => {}
        }
        if let Ok(ToClient::Event(e)) = rtec_gateway::wire::decode_to_client(bytes) {
            c.wm.bump(e.class);
            c.hrt_seqs.push(e.seq);
        }
        SinkStatus::Accepted
    }
}

/// Resumes one session at fixed bus times, resolving the watermarks on
/// the client's worker ([`WmSource::Deferred`]).
struct Resumer {
    gw: Gateway,
    token: u64,
    client: Arc<Mutex<LinkedClient>>,
    at: Vec<Duration>,
}

impl Behavior for Resumer {
    fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
        for &at in &self.at {
            ctx.set_timer(ctx.now() + at, 0).unwrap();
        }
    }

    fn on_timer(&mut self, _ctx: &mut NodeCtx<'_>, _payload: u64) {
        let c = Arc::clone(&self.client);
        let wm = WmSource::Deferred(Box::new(move || {
            let mut c = c.lock().unwrap();
            c.link.reconnected();
            c.wm
        }));
        let sink = Box::new(LinkedSink(Arc::clone(&self.client)));
        self.gw.resume_session(self.token, wm, sink).unwrap();
    }
}

/// Two severs, each losing the last frame in flight: the second resume
/// replays only what the second connection lost. A replayed frame is
/// not counted as sent again, so HRT stays exactly-once (§3.2) and
/// `replayed_hrt` equals the frames lost, not more.
#[test]
fn a_second_resume_does_not_resend_replayed_frames() {
    let hrt_subject = Subject::new(0x1001);
    let cfg = ClusterConfig {
        pace: Pace::Virtual,
        ..ClusterConfig::default()
    };
    let mut cluster = Cluster::new(cfg);
    let n0 = cluster.add_node(Box::new(HrtSource {
        subject: hrt_subject,
        counter: 0,
        period: Duration::from_ms(10),
    }));
    let hrt = ChannelSpec::Hrt(HrtSpec::periodic_10ms());
    cluster.publish(n0, hrt_subject, hrt);

    let gateway = Gateway::new(GatewayConfig {
        workers: 2,
        ..GatewayConfig::default()
    });
    gateway.bind(hrt_subject, &hrt);
    let client = Arc::new(Mutex::new(LinkedClient {
        link: LinkChaos::new(LinkPlan {
            severs: vec![3, 3],
            lose_tail: 1,
            ..LinkPlan::default()
        }),
        wm: ClassWatermarks::default(),
        hrt_seqs: Vec::new(),
    }));
    let id = gateway.reserve_client();
    let token = gateway.open_session(id, &[hrt_subject], None);
    gateway.attach_session(id, Box::new(LinkedSink(Arc::clone(&client))));
    let gw_node = cluster.add_node(gateway.behavior());
    cluster.subscribe(gw_node, hrt_subject, hrt);
    cluster.add_node(Box::new(Resumer {
        gw: gateway.clone(),
        token,
        client: Arc::clone(&client),
        at: vec![Duration::from_ms(60), Duration::from_ms(120)],
    }));

    let report = cluster.run_for(Duration::from_ms(160)).unwrap();
    let gw = gateway.finish();

    let delivered = report.log.iter().filter(|r| r.node == gw_node).count() as u32;
    let c = client.lock().unwrap();
    assert_eq!(c.link.stats().severs, 2, "both severs happened");
    let expected: Vec<u32> = (0..delivered).collect();
    assert_eq!(
        c.hrt_seqs, expected,
        "HRT duplicated or lost across resumes"
    );
    assert_eq!(gw.sessions.resumed, 2);
    assert_eq!(gw.sessions.replayed_hrt, c.link.stats().lost);
}

/// A TCP client whose in-flight suffix outruns the replay ring resumes
/// with an honest gap: the `Welcome` says `Gap`, then one `Gap` notice
/// covers exactly the frames the report counts as lost, then the ring's
/// frames follow, oldest first.
#[test]
fn socket_resume_past_the_ring_announces_the_gap_before_the_ring() {
    use rtec_gateway::wire::ResumeVerdict;

    let nrt_subject = Subject::new(0x3003);
    let cfg = ClusterConfig {
        pace: Pace::Virtual,
        ..ClusterConfig::default()
    };
    let mut cluster = Cluster::new(cfg);
    let n0 = cluster.add_node(Box::new(NrtPulse {
        subject: nrt_subject,
        every: Duration::from_ms(3),
        bytes: 6,
    }));
    let nrt = ChannelSpec::Nrt(NrtSpec::bulk());
    cluster.publish(n0, nrt_subject, nrt);

    // One worker: it offers each event to the severed client's lane
    // before the probe's, so once the probe holds every frame the
    // severed client's session has counted every frame too.
    let gateway = Gateway::new(GatewayConfig {
        workers: 1,
        resume_ring_cap: 2,
        ..GatewayConfig::default()
    });
    gateway.bind(nrt_subject, &nrt);
    let acceptor = Acceptor::tcp(
        gateway.clone(),
        "127.0.0.1:0",
        SlowConsumerPolicy::ShedNrtFirst,
    )
    .unwrap();
    let mut first = GatewayClient::connect(acceptor.addr(), &[nrt_subject]).unwrap();
    let mut probe = GatewayClient::connect(acceptor.addr(), &[nrt_subject]).unwrap();

    let gw_node = cluster.add_node(gateway.behavior());
    cluster.subscribe(gw_node, nrt_subject, nrt);
    let report = cluster.run_for(Duration::from_ms(45)).unwrap();
    let sent = report.log.iter().filter(|r| r.node == gw_node).count() as u32;
    assert!(sent > 4, "too few deliveries to overrun a ring of two");

    let timeout = Some(std::time::Duration::from_secs(2));
    probe.set_read_timeout(timeout).unwrap();
    let mut probed = 0;
    while probed < sent {
        match probe.recv().unwrap() {
            Some(ToClient::Event(_)) => probed += 1,
            Some(ToClient::Batch { entries }) => probed += entries.len() as u32,
            Some(_) => {}
            None => panic!("the probe's stream closed early"),
        }
    }

    // Read a strict prefix, then sever with the rest in flight.
    first.set_read_timeout(timeout).unwrap();
    let mut seqs = Vec::new();
    while seqs.len() < 2 {
        match first.recv().unwrap() {
            Some(ToClient::Event(e)) => seqs.push(e.seq),
            Some(other) => panic!("expected an Event, got {other:?}"),
            None => panic!("the first stream closed early"),
        }
    }
    assert_eq!(seqs, [0, 1]);
    let resume = first.resume_req();
    drop(first);

    let mut second =
        GatewayClient::connect_resume(acceptor.addr(), &[nrt_subject], resume).unwrap();
    let verdict = second.session.verdict;
    assert_eq!(verdict, ResumeVerdict::Gap, "the ring cannot cover the gap");
    second.set_read_timeout(timeout).unwrap();
    let gap = match second.recv().unwrap() {
        Some(ToClient::Gap { class, count }) => {
            assert_eq!(class, ChannelClass::Nrt);
            count
        }
        other => panic!("expected a Gap notice right after Welcome, got {other:?}"),
    };
    let mut replayed = Vec::new();
    while replayed.len() < 2 {
        match second.recv().unwrap() {
            Some(ToClient::Event(e)) => replayed.push(e.seq),
            other => panic!("expected a replayed Event, got {other:?}"),
        }
    }
    assert_eq!(gap, sent - 4, "everything between the prefix and the ring");
    assert_eq!(
        replayed,
        [sent - 2, sent - 1],
        "the ring's frames, in order"
    );

    let gw = gateway.finish();
    acceptor.stop();
    assert_eq!(u64::from(gap), gw.sessions.gap_frames);
    assert_eq!(gw.sessions.gapped, 1);
    assert_eq!(gw.sessions.resumed, 0);
}

/// Records the `seq` of every `Event` it accepts.
struct SeqRecorder(Arc<Mutex<Vec<u32>>>);

impl ClientSink for SeqRecorder {
    fn offer(&mut self, bytes: &[u8]) -> SinkStatus {
        if let Ok(ToClient::Event(e)) = rtec_gateway::wire::decode_to_client(bytes) {
            self.0.lock().unwrap().push(e.seq);
        }
        SinkStatus::Accepted
    }
}

/// A [`SeqRecorder`] spec and the seqs it will record.
fn seq_recorder() -> (ClientSinkSpec, Arc<Mutex<Vec<u32>>>) {
    let seqs = Arc::new(Mutex::new(Vec::new()));
    let handle = Arc::clone(&seqs);
    let spec = ClientSinkSpec::PerShard(Box::new(move |_, _| {
        Box::new(SeqRecorder(Arc::clone(&handle)))
    }));
    (spec, seqs)
}

/// Registers one more client at a bus-time timer.
struct LateJoiner {
    gw: Gateway,
    subject: Subject,
    at: Duration,
    spec: Option<ClientSinkSpec>,
}

impl Behavior for LateJoiner {
    fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
        ctx.set_timer(ctx.now() + self.at, 0).unwrap();
    }

    fn on_timer(&mut self, _ctx: &mut NodeCtx<'_>, _payload: u64) {
        if let Some(spec) = self.spec.take() {
            self.gw.add_client(&[self.subject], &spec, None);
        }
    }
}

/// A subject's `seq` counts every delivery of it, whichever worker a
/// client sits on and whenever it attached: with three workers, two
/// clients attached from the start and one attached midway (each on
/// its own worker) all see consecutive `seq`s, and the late client's
/// first `seq` is the number of deliveries before it attached.
#[test]
fn every_worker_numbers_every_delivery() {
    let srt_subject = Subject::new(0x2002);
    let cfg = ClusterConfig {
        pace: Pace::Virtual,
        ..ClusterConfig::default()
    };
    let mut cluster = Cluster::new(cfg);
    let n0 = cluster.add_node(Box::new(SrtSource {
        subject: srt_subject,
        every: Duration::from_ms(2),
        counter: 0,
    }));
    let srt = ChannelSpec::Srt(SrtSpec::default());
    cluster.publish(n0, srt_subject, srt);

    let gateway = Gateway::new(GatewayConfig {
        workers: 3,
        ..GatewayConfig::default()
    });
    gateway.bind(srt_subject, &srt);
    let early: Vec<_> = (0..2)
        .map(|_| {
            let (spec, seqs) = seq_recorder();
            gateway.add_client(&[srt_subject], &spec, None);
            seqs
        })
        .collect();
    let (late_spec, late) = seq_recorder();
    let gw_node = cluster.add_node(gateway.behavior());
    cluster.subscribe(gw_node, srt_subject, srt);
    cluster.add_node(Box::new(LateJoiner {
        gw: gateway.clone(),
        subject: srt_subject,
        at: Duration::from_ms(30),
        spec: Some(late_spec),
    }));

    let report = cluster.run_for(Duration::from_ms(60)).unwrap();
    let gw = gateway.finish();

    let shards: std::collections::BTreeSet<usize> = gw.lanes.iter().map(|l| l.shard).collect();
    assert_eq!(shards.len(), 3, "one client per worker");
    let delivered = report.log.iter().filter(|r| r.node == gw_node).count() as u32;
    for seqs in &early {
        let expected: Vec<u32> = (0..delivered).collect();
        assert_eq!(*seqs.lock().unwrap(), expected, "an early client");
    }
    // Every event after the attach reaches the late client, so a run
    // of consecutive seqs ending at the last delivery starts at the
    // number of deliveries before the attach.
    let late = late.lock().unwrap();
    let first = *late.first().expect("the late client received nothing");
    assert!(first > 0, "the late client attached before any delivery");
    let expected: Vec<u32> = (first..delivered).collect();
    assert_eq!(*late, expected, "the late client's seqs");
}

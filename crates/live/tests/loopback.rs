//! End-to-end tests of the live runtime over the loopback transport:
//! determinism, cross-class contention, fault-driven redundancy, and
//! conformance of live traces against the `T1`..`T8` auditor.

use rtec_can::fault::{FaultModel, OmissionScope};
use rtec_conformance::audit::{audit, handshake_anomalies, AuditContext};
use rtec_core::channel::{ChannelClass, ChannelException, ChannelSpec, HrtSpec, NrtSpec, SrtSpec};
use rtec_core::event::{Event, Subject};
use rtec_live::broker::FaultPlan;
use rtec_live::chaos;
use rtec_live::cluster::{Cluster, ClusterConfig, LiveReport};
use rtec_live::node::{Behavior, NodeCtx};
use rtec_live::{ChaosPlan, LiveError, NodeTransport, Pace, ToBroker, ToNode, TransportError};
use rtec_sim::Duration;
use std::sync::{Arc, Mutex};

const HRT_SUBJECT: Subject = Subject(0x1001);
const SRT_SUBJECT: Subject = Subject(0x2002);
const NRT_SUBJECT: Subject = Subject(0x3003);

/// Publishes a fresh HRT sample for every calendar round, staged just
/// before the slot-ready instant.
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

    fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, _payload: u64) {
        self.counter = self.counter.wrapping_add(1);
        ctx.publish(Event::new(HRT_SUBJECT, vec![self.counter]))
            .unwrap();
        ctx.set_timer(ctx.now() + self.period, 0).unwrap();
    }
}

/// Publishes an SRT sample every `every`, starting at `phase`.
struct SrtSource {
    every: Duration,
    phase: Duration,
    counter: u8,
}

impl Behavior for SrtSource {
    fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
        ctx.set_timer(ctx.now() + self.phase, 0).unwrap();
    }

    fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, _payload: u64) {
        self.counter = self.counter.wrapping_add(1);
        let _ = ctx.publish(Event::new(SRT_SUBJECT, vec![0xAB, self.counter]));
        ctx.set_timer(ctx.now() + self.every, 0).unwrap();
    }
}

/// Floods the bus with one large fragmented NRT transfer at start.
struct NrtFlood {
    bytes: usize,
}

impl Behavior for NrtFlood {
    fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
        let payload: Vec<u8> = (0..self.bytes).map(|i| i as u8).collect();
        ctx.publish(Event::new(NRT_SUBJECT, payload)).unwrap();
    }
}

struct Quiet;
impl Behavior for Quiet {}

fn mixed_cluster(seed_phase_us: u64) -> Cluster {
    let cfg = ClusterConfig {
        pace: Pace::Virtual,
        ..ClusterConfig::default()
    };
    let mut cluster = Cluster::new(cfg);
    let n0 = cluster.add_node(Box::new(HrtSource {
        counter: 0,
        period: Duration::from_ms(10),
    }));
    let n1 = cluster.add_node(Box::new(SrtSource {
        every: Duration::from_ms(3),
        phase: Duration::from_us(seed_phase_us),
        counter: 0,
    }));
    let n2 = cluster.add_node(Box::new(Quiet));
    let hrt = ChannelSpec::Hrt(HrtSpec::periodic_10ms());
    let srt = ChannelSpec::Srt(SrtSpec::default());
    cluster.publish(n0, HRT_SUBJECT, hrt);
    cluster.publish(n1, SRT_SUBJECT, srt);
    cluster.subscribe(n2, HRT_SUBJECT, hrt);
    cluster.subscribe(n2, SRT_SUBJECT, srt);
    cluster
}

fn audit_ctx(report: &LiveReport) -> AuditContext {
    AuditContext::from_parts(
        (*report.calendar).clone(),
        report.calendar_start,
        report.channels.clone(),
        report.hrt_periods.clone(),
    )
}

/// Same cluster + virtual clock ⇒ byte-identical delivery order across
/// two independent runs (threads, channels and all).
#[test]
fn loopback_runs_are_deterministic() {
    let run = Duration::from_ms(60);
    let a = mixed_cluster(500).run_for(run).unwrap();
    let b = mixed_cluster(500).run_for(run).unwrap();
    assert!(!a.log.is_empty(), "no deliveries recorded");
    assert!(
        a.log.iter().any(|r| r.class == ChannelClass::Hrt),
        "no HRT deliveries"
    );
    assert!(
        a.log.iter().any(|r| r.class == ChannelClass::Srt),
        "no SRT deliveries"
    );
    assert_eq!(a.log, b.log, "delivery logs diverged between runs");
    assert_eq!(a.stats, b.stats, "node stats diverged between runs");
    assert_eq!(a.broker, b.broker, "broker stats diverged between runs");
}

/// Live traces satisfy the same `T1`..`T8` invariants as simulator
/// traces — the auditor runs on them unmodified.
#[test]
fn live_trace_passes_conformance_audit() {
    let report = mixed_cluster(500).run_for(Duration::from_ms(60)).unwrap();
    assert!(!report.trace.is_empty(), "tracing produced no events");
    let rep = audit(&audit_ctx(&report), &report.trace);
    assert!(
        rep.passes(),
        "audit failed:\n{:#?}",
        rep.errors().collect::<Vec<_>>()
    );
}

/// Three threads contending: an HRT frame submitted at its LST must win
/// arbitration against a saturating NRT flood, land inside its calendar
/// slot, and be delivered every round.
#[test]
fn hrt_beats_saturating_nrt_under_contention() {
    let cfg = ClusterConfig {
        pace: Pace::Virtual,
        // The flood below queues ~120 fragment frames at once.
        nrt_queue_cap: 256,
        ..ClusterConfig::default()
    };
    let mut cluster = Cluster::new(cfg);
    let n0 = cluster.add_node(Box::new(HrtSource {
        counter: 0,
        period: Duration::from_ms(10),
    }));
    // A 600-byte fragmented transfer is ~120 frames ≈ 16 ms of wire
    // time at 1 Mbit/s: the bus stays saturated across round borders.
    let n1 = cluster.add_node(Box::new(NrtFlood { bytes: 600 }));
    let n2 = cluster.add_node(Box::new(Quiet));
    let hrt = ChannelSpec::Hrt(HrtSpec::periodic_10ms());
    let nrt = ChannelSpec::Nrt(NrtSpec::bulk());
    cluster.publish(n0, HRT_SUBJECT, hrt);
    cluster.publish(n1, NRT_SUBJECT, nrt);
    cluster.subscribe(n2, HRT_SUBJECT, hrt);
    cluster.subscribe(n2, NRT_SUBJECT, nrt);
    let report = cluster.run_for(Duration::from_ms(35)).unwrap();

    // The auditor checks T2 (HRT inside its slot) and T1 (arbitration
    // order) on the live trace.
    let rep = audit(&audit_ctx(&report), &report.trace);
    assert!(
        rep.passes(),
        "audit failed:\n{:#?}",
        rep.errors().collect::<Vec<_>>()
    );

    // Every arbitration with an HRT contender was won by it.
    let mut hrt_contended = 0;
    for ev in report.trace.iter().filter(|e| e.kind == "arb") {
        let cands: Vec<u64> = ev
            .fields
            .iter()
            .filter(|(k, _)| *k == "cand")
            .map(|&(_, v)| v & 0xFFFF_FFFF)
            .collect();
        let win = ev
            .fields
            .iter()
            .find(|(k, _)| *k == "win")
            .map(|&(_, v)| v)
            .unwrap();
        let hrt_cand = cands.iter().copied().find(|&c| (c >> 21) == 0);
        if cands.len() >= 2 {
            if let Some(c) = hrt_cand {
                hrt_contended += 1;
                assert_eq!(win, c, "HRT frame lost arbitration at {:?}", ev.time);
            }
        }
    }
    assert!(
        hrt_contended >= 2,
        "expected repeated HRT-vs-NRT contention, saw {hrt_contended}"
    );

    // Each round's HRT sample arrived, and the flood reassembled.
    let hrt_deliveries = report
        .log
        .iter()
        .filter(|r| r.class == ChannelClass::Hrt)
        .count();
    assert!(hrt_deliveries >= 3, "HRT starved: {hrt_deliveries} rounds");
    let nrt = report
        .log
        .iter()
        .find(|r| r.class == ChannelClass::Nrt)
        .expect("flood never completed");
    assert_eq!(nrt.bytes.len(), 600);
    assert!(nrt.bytes.iter().enumerate().all(|(i, &b)| b == i as u8));
}

/// Omission faults: the sender sees `all_received = false` and spends a
/// redundant retransmission inside the same slot (§3.2), so the
/// subscriber still gets every round's sample.
#[test]
fn omission_faults_trigger_redundant_retransmission() {
    let cfg = ClusterConfig {
        pace: Pace::Virtual,
        fault: FaultPlan {
            model: Some(FaultModel::Iid {
                corruption_p: 0.0,
                omission_p: 0.5,
                omission_scope: OmissionScope::OneRandomReceiver,
            }),
            seed: 7,
        },
        ..ClusterConfig::default()
    };
    let mut cluster = Cluster::new(cfg);
    let n0 = cluster.add_node(Box::new(HrtSource {
        counter: 0,
        period: Duration::from_ms(10),
    }));
    let n1 = cluster.add_node(Box::new(Quiet));
    let hrt = ChannelSpec::Hrt(HrtSpec::periodic_10ms());
    cluster.publish(n0, HRT_SUBJECT, hrt);
    cluster.subscribe(n1, HRT_SUBJECT, hrt);
    let report = cluster.run_for(Duration::from_ms(80)).unwrap();

    assert!(
        report.broker.frames_with_omission > 0,
        "fault injector never fired"
    );
    // Retransmissions happened: more tx_starts than rounds.
    let starts = report
        .trace
        .iter()
        .filter(|e| e.kind == "tx_start" || e.kind == "tx_start_omit")
        .count();
    let delivered = report
        .log
        .iter()
        .filter(|r| r.class == ChannelClass::Hrt)
        .count();
    assert!(delivered >= 6, "subscriber starved: {delivered}");
    assert!(
        starts > delivered,
        "no redundant retransmissions: {starts} starts for {delivered} deliveries"
    );
    let rep = audit(&audit_ctx(&report), &report.trace);
    assert!(
        rep.passes(),
        "audit failed:\n{:#?}",
        rep.errors().collect::<Vec<_>>()
    );
}

/// The `mixed_cluster` topology with restartable nodes: behaviors come
/// from factories, so the supervisor can respawn them after a chaos
/// kill.
fn restartable_cluster() -> Cluster {
    let cfg = ClusterConfig {
        pace: Pace::Virtual,
        restart_backoff: Duration::from_ms(1),
        ..ClusterConfig::default()
    };
    let mut cluster = Cluster::new(cfg);
    let n0 = cluster.add_node_with(Box::new(|| {
        Box::new(HrtSource {
            counter: 0,
            period: Duration::from_ms(10),
        })
    }));
    let n1 = cluster.add_node_with(Box::new(|| {
        Box::new(SrtSource {
            every: Duration::from_ms(3),
            phase: Duration::from_us(500),
            counter: 0,
        })
    }));
    let n2 = cluster.add_node_with(Box::new(|| Box::new(Quiet)));
    let hrt = ChannelSpec::Hrt(HrtSpec::periodic_10ms());
    let srt = ChannelSpec::Srt(SrtSpec::default());
    cluster.publish(n0, HRT_SUBJECT, hrt);
    cluster.publish(n1, SRT_SUBJECT, srt);
    cluster.subscribe(n2, HRT_SUBJECT, hrt);
    cluster.subscribe(n2, SRT_SUBJECT, srt);
    cluster
}

/// A chaos plan that kills the HRT subscriber mid-cycle (its receive
/// budget runs out between two calendar slots) and later kills the
/// restarted HRT source too.
fn crash_plan() -> ChaosPlan {
    ChaosPlan {
        kills: vec![(2, 25), (0, 12)],
        ..ChaosPlan::default()
    }
}

/// Killing the HRT subscriber mid-cycle (and the HRT source soon
/// after) must leave the cluster live: both nodes restart, rejoin, and
/// HRT samples keep flowing after the last recovery. The merged trace
/// still satisfies T1..T8, no event is delivered twice across the
/// rejoin, and the supervision log pairs every Down with an Up.
#[test]
fn chaos_kills_recover_and_stay_live() {
    let (report, chaos_rep) = restartable_cluster()
        .run_for_chaos(Duration::from_ms(120), crash_plan())
        .unwrap();
    assert_eq!(chaos_rep.kills, 2, "both planned kills must fire");
    assert!(
        report.supervision.restarts >= 2,
        "both killed nodes must rejoin: {:?}",
        report.supervision.events
    );
    let verdict = chaos::verdict(&report);
    assert!(
        verdict.ok(),
        "chaos verdict failed: {verdict:?}\n{:?}",
        report.supervision.events
    );
    // The cluster stayed live: HRT samples delivered *after* the last
    // recovery instant.
    let last_up = report
        .supervision
        .events
        .iter()
        .filter(|e| e.kind == rtec_live::SupKind::Up)
        .map(|e| e.at_ns)
        .max()
        .expect("at least one completed rejoin");
    let post_rejoin_hrt = report
        .log
        .iter()
        .filter(|r| r.class == ChannelClass::Hrt && r.wire_ns > last_up)
        .count();
    assert!(
        post_rejoin_hrt >= 2,
        "HRT starved after rejoin at {last_up} ns: {post_rejoin_hrt} deliveries"
    );
    // The auditor accepts the merged trace, supervision records and all.
    let rep = audit(&audit_ctx(&report), &report.trace);
    assert!(
        rep.passes(),
        "audit failed:\n{:#?}",
        rep.errors().collect::<Vec<_>>()
    );
    // Loopback relinks mint fresh endpoints; no handshake datagram can
    // be replayed on this transport.
    assert_eq!(handshake_anomalies(&report.trace), 0);
}

/// Two chaos runs under the same plan (same seed) are byte-identical:
/// same delivery log — including everything after the crashes — and
/// the same supervision timeline.
#[test]
fn chaos_runs_with_the_same_seed_are_deterministic() {
    let run = Duration::from_ms(120);
    let (a, ar) = restartable_cluster()
        .run_for_chaos(run, crash_plan())
        .unwrap();
    let (b, br) = restartable_cluster()
        .run_for_chaos(run, crash_plan())
        .unwrap();
    assert!(!a.log.is_empty());
    assert_eq!(a.log, b.log, "delivery logs diverged between chaos runs");
    assert_eq!(
        a.supervision.events, b.supervision.events,
        "supervision timelines diverged"
    );
    assert_eq!(a.stats, b.stats, "node stats diverged");
    assert_eq!((ar.kills, ar.dropped), (br.kills, br.dropped));
}

/// The UDP transport carries the same protocol: a small cluster over
/// real datagram sockets produces the same deliveries as loopback.
#[test]
fn udp_transport_matches_loopback() {
    let run = Duration::from_ms(30);
    let over_udp = mixed_cluster(500).run_for_udp(run).unwrap();
    let over_loopback = mixed_cluster(500).run_for(run).unwrap();
    assert!(!over_udp.log.is_empty());
    assert_eq!(over_udp.log, over_loopback.log);
}

/// Every exception a node's behavior was handed.
type ExceptionLog = Arc<Mutex<Vec<ChannelException>>>;

/// Stages one HRT sample per round just ahead of the slot, except for
/// round `skip`, where it does `instead`: nothing, or a publish `late`
/// after the slot's ready instant.
struct GappyHrtSource {
    round: u64,
    period: Duration,
    skip: u64,
    late: Option<Duration>,
    log: ExceptionLog,
}

/// Application-timer payload of [`GappyHrtSource`]'s late publish.
const LATE: u64 = 1;

impl Behavior for GappyHrtSource {
    fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
        let (at, period) = ctx.hrt_stage_schedule(HRT_SUBJECT).unwrap();
        self.period = period;
        // `at` stages round 1; round 0 is staged one period earlier.
        ctx.set_timer(at.saturating_sub(period), 0).unwrap();
    }

    fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, payload: u64) {
        if payload == LATE || self.round != self.skip {
            ctx.publish(Event::new(HRT_SUBJECT, vec![self.round as u8]))
                .unwrap();
        } else if let Some(late) = self.late {
            // The staging timer leads the ready instant by 100 µs.
            let ready = ctx.now() + Duration::from_us(100);
            ctx.set_timer(ready + late, LATE).unwrap();
        }
        if payload != LATE {
            self.round += 1;
            ctx.set_timer(ctx.now() + self.period, 0).unwrap();
        }
    }

    fn on_exception(&mut self, _ctx: &mut NodeCtx<'_>, exception: &ChannelException) {
        self.log.lock().unwrap().push(exception.clone());
    }
}

struct ExceptionRecorder(ExceptionLog);

impl Behavior for ExceptionRecorder {
    fn on_exception(&mut self, _ctx: &mut NodeCtx<'_>, exception: &ChannelException) {
        self.0.lock().unwrap().push(exception.clone());
    }
}

/// Run a two-node cluster for five rounds in which the HRT publisher
/// leaves round 2 out (or publishes it `late`); returns the report and
/// what the publisher and the subscriber were told.
fn run_gappy(
    spec: HrtSpec,
    late: Option<Duration>,
) -> (LiveReport, Vec<ChannelException>, Vec<ChannelException>) {
    let (pub_log, sub_log) = (ExceptionLog::default(), ExceptionLog::default());
    let mut cluster = Cluster::new(ClusterConfig::default());
    let n0 = cluster.add_node(Box::new(GappyHrtSource {
        round: 0,
        period: Duration::ZERO,
        skip: 2,
        late,
        log: Arc::clone(&pub_log),
    }));
    let n1 = cluster.add_node(Box::new(ExceptionRecorder(Arc::clone(&sub_log))));
    cluster.publish(n0, HRT_SUBJECT, ChannelSpec::Hrt(spec));
    cluster.subscribe(n1, HRT_SUBJECT, ChannelSpec::Hrt(spec));
    let report = cluster.run_for(Duration::from_ms(50)).unwrap();
    let take = |log: ExceptionLog| std::mem::take(&mut *log.lock().unwrap());
    (report, take(pub_log), take(sub_log))
}

/// §2.2.1 subscriber awareness: a periodic HRT channel whose publisher
/// skips one round tells its subscriber so — exactly once, at that
/// slot's delivery deadline — and keeps delivering the other rounds.
#[test]
fn skipped_periodic_hrt_round_raises_one_missing_event() {
    let (report, at_publisher, at_subscriber) = run_gappy(HrtSpec::periodic_10ms(), None);
    let slot = report.calendar.slots[0];
    let expected_at = report.calendar_start + report.calendar.round * 2 + slot.deadline();
    assert_eq!(
        at_subscriber,
        vec![ChannelException::MissingEvent {
            subject: HRT_SUBJECT,
            expected_at,
        }]
    );
    assert!(at_publisher.is_empty(), "{at_publisher:?}");
    let rounds: Vec<u8> = report.log.iter().map(|r| r.bytes[0]).collect();
    assert_eq!(rounds, vec![0, 1, 3, 4]);
    assert_eq!(report.stats[1].exceptions, 1);
}

/// A sporadic channel may leave slots empty: no exception.
#[test]
fn skipped_sporadic_hrt_round_raises_nothing() {
    let (report, at_publisher, at_subscriber) = run_gappy(HrtSpec::sporadic_10ms(), None);
    assert!(at_subscriber.is_empty(), "{at_subscriber:?}");
    assert!(at_publisher.is_empty(), "{at_publisher:?}");
    assert_eq!(report.log.len(), 4);
}

/// §2.2.1 publisher awareness: a publish that arrives after its slot
/// went empty is told `NotReady`; the event waits for the next slot.
#[test]
fn late_hrt_publish_raises_not_ready() {
    let late = Some(Duration::from_us(50));
    let (report, at_publisher, at_subscriber) = run_gappy(HrtSpec::periodic_10ms(), late);
    let slot = report.calendar.slots[0];
    let slot_ready_at = report.calendar_start + report.calendar.round * 2 + slot.start;
    assert_eq!(
        at_publisher,
        vec![ChannelException::NotReady {
            subject: HRT_SUBJECT,
            slot_ready_at,
        }]
    );
    assert_eq!(at_subscriber.len(), 1, "{at_subscriber:?}");
    // Round 3's regular publish overwrites the late sample (most
    // recent value wins), so the delivered sequence is the same.
    let rounds: Vec<u8> = report.log.iter().map(|r| r.bytes[0]).collect();
    assert_eq!(rounds, vec![0, 1, 3, 4]);
}

/// Everything the nodes were sent, each node's in arrival order.
type Seen = Arc<Mutex<Vec<(u8, ToNode)>>>;

/// Records every message a node is sent, on its way in.
struct RecvSpy {
    node: u8,
    inner: Box<dyn NodeTransport>,
    seen: Seen,
}

impl NodeTransport for RecvSpy {
    fn send(&mut self, msg: ToBroker) -> Result<(), TransportError> {
        self.inner.send(msg)
    }

    fn recv(&mut self, timeout: std::time::Duration) -> Result<ToNode, TransportError> {
        let msg = self.inner.recv(timeout)?;
        self.seen.lock().unwrap().push((self.node, msg.clone()));
        Ok(msg)
    }
}

/// Run `cluster` with a [`RecvSpy`] on every node.
fn run_spied(cluster: Cluster, run: Duration) -> (LiveReport, Vec<(u8, ToNode)>) {
    let seen = Seen::default();
    let spy = Arc::clone(&seen);
    let report = cluster
        .run_for_wrapped(run, &mut move |node, inner| {
            let seen = Arc::clone(&spy);
            Box::new(RecvSpy { node, inner, seen })
        })
        .unwrap();
    let seen = std::mem::take(&mut *seen.lock().unwrap());
    (report, seen)
}

/// A wire that corrupts every attempt: the live bus follows CAN fault
/// confinement exactly as the simulator's does (it is the same bus
/// model). The sender's TEC climbs by 8 per error frame, so its
/// controller goes bus-off after 32 straight attempts instead of
/// retransmitting forever; the node is told its request is lost (a
/// negative `TxDone`, not silence); and the controller recovers by
/// itself in time for the next round.
#[test]
fn a_wire_that_corrupts_everything_drives_the_sender_bus_off_and_back() {
    const ROUNDS: usize = 8;
    let cfg = ClusterConfig {
        pace: Pace::Virtual,
        fault: FaultPlan {
            model: Some(FaultModel::Iid {
                corruption_p: 1.0,
                omission_p: 0.0,
                omission_scope: OmissionScope::AllReceivers,
            }),
            seed: 7,
        },
        ..ClusterConfig::default()
    };
    let mut cluster = Cluster::new(cfg);
    let n0 = cluster.add_node(Box::new(HrtSource {
        counter: 0,
        period: Duration::from_ms(10),
    }));
    let n1 = cluster.add_node(Box::new(Quiet));
    let hrt = ChannelSpec::Hrt(HrtSpec::periodic_10ms());
    cluster.publish(n0, HRT_SUBJECT, hrt);
    cluster.subscribe(n1, HRT_SUBJECT, hrt);
    let (report, seen) = run_spied(cluster, Duration::from_ms(80));
    let acks = seen.iter().filter_map(|(node, msg)| match msg {
        ToNode::TxDone { all_received, .. } if *node == n0 => Some(*all_received),
        _ => None,
    });

    let count = |kind: &str| report.trace.iter().filter(|e| e.kind == kind).count();
    assert_eq!(count("tx_error"), 32 * ROUNDS, "TEC += 8 up to 256");
    assert_eq!(count("bus_off_recover"), ROUNDS);
    assert_eq!(report.broker.frames_corrupted, (32 * ROUNDS) as u64);
    assert_eq!(report.broker.frames_ok, 0);
    assert_eq!(
        acks.collect::<Vec<_>>(),
        vec![false; ROUNDS],
        "one negative TxDone per lost request"
    );
    assert!(report.log.is_empty(), "nothing can have been delivered");
}

/// A broker turn goes only to a node that can act on it. A completion
/// is addressed by acceptance filter, so a node that subscribes to
/// nothing and publishes nothing is sent its `Welcome`, heartbeat
/// `Ping`s and `Shutdown` — nothing else — while the others exchange
/// over a hundred frames; and a message's timers are withdrawn when it
/// leaves the SRT queue, so no SRT timer reaches the publisher for a
/// message whose `TxDone` it already has.
#[test]
fn an_unaddressed_node_is_not_woken_and_dead_srt_timers_never_fire() {
    let cfg = ClusterConfig {
        pace: Pace::Virtual,
        heartbeat: Some(Duration::from_ms(10)),
        ..ClusterConfig::default()
    };
    let mut cluster = Cluster::new(cfg);
    let publisher = cluster.add_node(Box::new(SrtSource {
        every: Duration::from_us(300),
        phase: Duration::from_us(100),
        counter: 0,
    }));
    let subscriber = cluster.add_node(Box::new(Quiet));
    let bystander = cluster.add_node(Box::new(Quiet));
    let srt = ChannelSpec::Srt(SrtSpec::default());
    cluster.publish(publisher, SRT_SUBJECT, srt);
    cluster.subscribe(subscriber, SRT_SUBJECT, srt);
    let (report, seen) = run_spied(cluster, Duration::from_ms(45));
    assert!(report.broker.frames_ok >= 100, "{:?}", report.broker);
    assert_eq!(report.log.len() as u64, report.broker.frames_ok);

    let at_bystander: Vec<&ToNode> = seen
        .iter()
        .filter(|(node, _)| *node == bystander)
        .map(|(_, msg)| msg)
        .collect();
    let (first, rest) = at_bystander.split_first().expect("welcomed");
    let (last, pings) = rest.split_last().expect("shut down");
    assert!(matches!(first, ToNode::Welcome { .. }), "{first:?}");
    assert!(matches!(last, ToNode::Shutdown), "{last:?}");
    assert!(pings.iter().all(|m| matches!(m, ToNode::Ping { .. })));
    assert_eq!(pings.len(), 4, "one probe per silent 10 ms");

    // `node.rs` keeps a timer's kind in the token's top byte (5..=7
    // are the SRT timers) and the message's sequence number below it.
    let mut done = std::collections::HashSet::new();
    for (_, msg) in seen.iter().filter(|(node, _)| *node == publisher) {
        match *msg {
            ToNode::TxDone { tag, .. } => {
                let (_, _, seq) = rtec_core::node::unpack_tag(tag).expect("an SRT tag");
                done.insert(seq);
            }
            ToNode::Timer { token, .. } if (5..=7).contains(&(token >> 56)) => {
                assert!(!done.contains(&(token as u32)), "dead timer {token:#x}");
            }
            _ => {}
        }
    }
    assert!(done.len() >= 100);
}

/// The hosted bus model names at most 128 nodes (the 7-bit TxNode
/// field). Neither end of the range panics: an empty cluster runs an
/// idle bus to an empty report, an oversized one is refused up front.
#[test]
fn node_count_out_of_range_is_an_empty_report_or_an_error_never_a_panic() {
    let empty = Cluster::new(ClusterConfig::default())
        .run_for(Duration::from_ms(5))
        .unwrap();
    assert!(empty.stats.is_empty() && empty.log.is_empty());
    assert_eq!(empty.broker.arbitrations, 0);

    let mut oversized = Cluster::new(ClusterConfig::default());
    for _ in 0..129 {
        oversized.add_node(Box::new(Quiet));
    }
    assert_eq!(
        oversized.run_for(Duration::from_ms(5)).err(),
        Some(LiveError::Config(
            "129 nodes exceed the CAN TxNode field (128)".into()
        ))
    );
}

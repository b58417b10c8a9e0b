//! Differential test, simulator ↔ live runtime: two fault-free
//! scenarios run through `rtec_core::Network` and through
//! `rtec_live::Cluster` (loopback, virtual pacing) must hand every
//! subscriber the same events.
//!
//! Both stacks host the same `rtec_core::machine::NodeMachine` over the
//! same bus model, `rtec_can::bus::CanBus`, so what this compares is
//! the two pairs of *hosts* — `NetWorld` on the event engine (FIFO
//! same-instant order) against `LiveNode` threads around
//! `rtec_live::broker::Broker`'s ranked agenda and lock-step turns: per
//! subscriber the sequence of `(etag, origin, class, bytes)` is
//! identical, every HRT event is delivered at the same bus instant (its
//! slot deadline), and every frame completes on the wire at the same
//! bus instant — the two hosts feed the one bus the same submissions in
//! a compatible order, frame for frame, which is the baseline ROADMAP
//! item 3's reference automata start from.
//!
//! The second scenario loads the wire with two SRT publishers, so
//! their promotions come due both while a frame waits for arbitration
//! and while it is on the wire. The simulator hands every promotion to
//! the machine; the live broker re-arms the ones whose frame is on the
//! wire itself, so the simulator is the oracle for that shortcut.

use rtec_can::NodeId;
use rtec_core::channel::{ChannelClass, ChannelSpec, HrtSpec, NrtSpec, SrtSpec, SubscribeSpec};
use rtec_core::event::{Event, EventQueue, Subject};
use rtec_core::{NetApi, Network};
use rtec_live::cluster::{Cluster, ClusterConfig};
use rtec_live::node::{Behavior, NodeCtx};
use rtec_sim::{Duration, Time};

const HRT: Subject = Subject(0x1001);
const SRT_A: Subject = Subject(0x2001);
const SRT_B: Subject = Subject(0x2002);
const NRT: Subject = Subject(0x3001);

const RUN: Duration = Duration::from_ms(60);
/// The SRT node's application tick and its offset — off the whole-µs
/// grid the bus runs on, so no publish ties with a wire event (the two
/// hosts order same-instant events differently, by construction).
const TICK: Duration = Duration::from_ms(1);
const TICK_PHASE: Duration = Duration::from_ns(500_300);
const NRT_PERIOD: Duration = Duration::from_ms(20);
const NRT_PHASE: Duration = Duration::from_ns(2_000_700);
/// How far ahead of its slot's ready instant an HRT sample is staged.
const STAGE_LEAD: Duration = Duration::from_us(100);

fn hrt_spec() -> ChannelSpec {
    ChannelSpec::Hrt(HrtSpec::periodic_10ms())
}
fn srt_spec() -> ChannelSpec {
    ChannelSpec::Srt(SrtSpec::default())
}
fn nrt_spec() -> ChannelSpec {
    ChannelSpec::Nrt(NrtSpec::bulk())
}

// ---- the application, written once against what both hosts offer ----

/// Node 1's tick `n` at bus time `now`: SRT_A every third tick, SRT_B
/// every fourth with a tight explicit deadline — when both fall on one
/// tick, B overtakes the already submitted A (EDF + abort).
fn srt_tick(n: u64, now: Time, mut publish: impl FnMut(Event)) {
    if n.is_multiple_of(3) {
        publish(Event::new(SRT_A, vec![0xA0, n as u8]));
    }
    if n.is_multiple_of(4) {
        publish(Event::new(SRT_B, vec![0xB0, n as u8]).with_deadline(now + Duration::from_ms(2)));
    }
}

fn hrt_sample(n: u64) -> Event {
    Event::new(HRT, vec![n as u8; 8])
}

/// A 100-byte message: 20 fragments.
fn nrt_bulk(n: u64) -> Event {
    Event::new(
        NRT,
        (0..100).map(|i| (i as u8) ^ (n as u8)).collect::<Vec<_>>(),
    )
}

/// What one subscriber saw, in wire order.
#[derive(Debug, PartialEq, Eq)]
struct Seen {
    etag: u16,
    origin: u8,
    class: ChannelClass,
    bytes: Vec<u8>,
    wire_ns: u64,
    delivered_ns: u64,
}

// ---- through the simulator ----

fn run_sim() -> Vec<Vec<Seen>> {
    let mut net = Network::builder().nodes(4).build();
    let mut queues: Vec<Vec<(Subject, ChannelClass, EventQueue)>> = vec![Vec::new(); 4];
    {
        // Declaration order mirrors `run_live`, so both bind the same
        // etags.
        let mut api = net.api();
        let mut subscribe = |api: &mut NetApi<'_>, node: u8, subject, class| {
            let q = api
                .subscribe(NodeId(node), subject, SubscribeSpec::default())
                .unwrap();
            queues[node as usize].push((subject, class, q));
        };
        api.announce(NodeId(0), HRT, hrt_spec()).unwrap();
        subscribe(&mut api, 0, SRT_A, ChannelClass::Srt);
        api.announce(NodeId(1), SRT_A, srt_spec()).unwrap();
        api.announce(NodeId(1), SRT_B, srt_spec()).unwrap();
        api.announce(NodeId(2), NRT, nrt_spec()).unwrap();
        subscribe(&mut api, 3, HRT, ChannelClass::Hrt);
        subscribe(&mut api, 3, SRT_A, ChannelClass::Srt);
        subscribe(&mut api, 3, SRT_B, ChannelClass::Srt);
        subscribe(&mut api, 3, NRT, ChannelClass::Nrt);
        api.install_calendar().unwrap();
        // Round 0's sample is staged at once, later ones ahead of each
        // slot — the pattern `NodeCtx::hrt_stage_schedule` hands out.
        api.publish(NodeId(0), HRT, hrt_sample(0)).unwrap();
    }
    let world = net.world();
    let slot = world.calendar().unwrap().slots[0];
    let first_stage = world.calendar_start().unwrap() + slot.start + Duration::from_ms(10);
    let mut n = 0;
    net.every(
        Duration::from_ms(10),
        first_stage
            .saturating_sub(STAGE_LEAD)
            .saturating_since(Time::ZERO),
        move |api| {
            n += 1;
            api.publish(NodeId(0), HRT, hrt_sample(n)).unwrap();
        },
    );
    let mut n = 0;
    net.every(TICK, TICK_PHASE, move |api| {
        let now = api.now();
        srt_tick(n, now, |e| api.publish(NodeId(1), e.subject, e).unwrap());
        n += 1;
    });
    let mut n = 0;
    net.every(NRT_PERIOD, NRT_PHASE, move |api| {
        api.publish(NodeId(2), NRT, nrt_bulk(n)).unwrap();
        n += 1;
    });
    net.run_for(RUN);

    let registry = net.world().registry();
    queues
        .into_iter()
        .map(|node_queues| {
            let mut seen: Vec<Seen> = node_queues
                .into_iter()
                .flat_map(|(subject, class, q)| {
                    let etag = registry.etag_of(subject).unwrap();
                    q.drain().into_iter().map(move |d| Seen {
                        etag,
                        origin: d.event.attributes.origin.unwrap().0,
                        class,
                        bytes: d.event.content,
                        wire_ns: d.wire_completed_at.as_ns(),
                        delivered_ns: d.delivered_at.as_ns(),
                    })
                })
                .collect();
            seen.sort_by_key(|s| s.wire_ns);
            seen
        })
        .collect()
}

// ---- through the live runtime ----

struct HrtApp {
    n: u64,
    period: Duration,
}
impl Behavior for HrtApp {
    fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
        ctx.publish(hrt_sample(0)).unwrap();
        let (at, period) = ctx.hrt_stage_schedule(HRT).unwrap();
        self.period = period;
        ctx.set_timer(at, 0).unwrap();
    }
    fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, _payload: u64) {
        self.n += 1;
        ctx.publish(hrt_sample(self.n)).unwrap();
        ctx.set_timer(ctx.now() + self.period, 0).unwrap();
    }
}

struct SrtApp(u64);
impl Behavior for SrtApp {
    fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
        ctx.set_timer(ctx.now() + TICK_PHASE, 0).unwrap();
    }
    fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, _payload: u64) {
        let now = ctx.now();
        srt_tick(self.0, now, |e| ctx.publish(e).unwrap());
        self.0 += 1;
        ctx.set_timer(now + TICK, 0).unwrap();
    }
}

struct NrtApp(u64);
impl Behavior for NrtApp {
    fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
        ctx.set_timer(ctx.now() + NRT_PHASE, 0).unwrap();
    }
    fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, _payload: u64) {
        ctx.publish(nrt_bulk(self.0)).unwrap();
        self.0 += 1;
        ctx.set_timer(ctx.now() + NRT_PERIOD, 0).unwrap();
    }
}

struct Sink;
impl Behavior for Sink {}

fn run_live() -> Vec<Vec<Seen>> {
    let mut cluster = Cluster::new(ClusterConfig::default());
    let n0 = cluster.add_node(Box::new(HrtApp {
        n: 0,
        period: Duration::ZERO,
    }));
    let n1 = cluster.add_node(Box::new(SrtApp(0)));
    let n2 = cluster.add_node(Box::new(NrtApp(0)));
    let n3 = cluster.add_node(Box::new(Sink));
    cluster.publish(n0, HRT, hrt_spec());
    cluster.subscribe(n0, SRT_A, srt_spec());
    cluster.publish(n1, SRT_A, srt_spec());
    cluster.publish(n1, SRT_B, srt_spec());
    cluster.publish(n2, NRT, nrt_spec());
    cluster.subscribe(n3, HRT, hrt_spec());
    cluster.subscribe(n3, SRT_A, srt_spec());
    cluster.subscribe(n3, SRT_B, srt_spec());
    cluster.subscribe(n3, NRT, nrt_spec());
    let report = cluster.run_for(RUN).unwrap();
    assert_eq!(report.stats.iter().map(|s| s.exceptions).sum::<u64>(), 0);
    let mut seen: Vec<Vec<Seen>> = (0..4).map(|_| Vec::new()).collect();
    // The log is already in bus order.
    for r in report.log {
        seen[r.node as usize].push(Seen {
            etag: r.etag,
            origin: r.origin,
            class: r.class,
            bytes: r.bytes,
            wire_ns: r.wire_ns,
            delivered_ns: r.delivered_ns,
        });
    }
    seen
}

#[test]
fn simulator_and_live_runtime_deliver_the_same_events() {
    let (sim, live) = (run_sim(), run_live());
    // The scenario exercises what it claims to.
    let at_sink = &sim[3];
    let count = |class| at_sink.iter().filter(|s| s.class == class).count();
    assert_eq!(count(ChannelClass::Hrt), 6, "one HRT sample per round");
    assert_eq!(count(ChannelClass::Srt), 35, "20 of SRT_A + 15 of SRT_B");
    assert_eq!(count(ChannelClass::Nrt), 3, "three reassembled transfers");
    let b_overtakes_a = at_sink.windows(2).any(|w| {
        let same_tick = w[0].bytes[1] == w[1].bytes[1];
        same_tick && w[0].bytes[0] == 0xB0 && w[1].bytes[0] == 0xA0
    });
    assert!(b_overtakes_a, "EDF never reordered the shared SRT queue");
    assert_eq!(sim[0].len(), 20, "node 0 hears SRT_A only");

    for (node, (s, l)) in sim.iter().zip(&live).enumerate() {
        assert_eq!(s.len(), l.len(), "node {node}: delivery counts differ");
        for (i, (s, l)) in s.iter().zip(l).enumerate() {
            // Whole records: content and order, the HRT delivery
            // instants, and the wire completion of every frame.
            assert_eq!(s, l, "node {node}, delivery {i}");
        }
    }
}

// ---- two SRT publishers on a loaded wire ----

const LOADED_RUN: Duration = Duration::from_ms(40);
/// Each publisher's subject, period and first publish. Their ≈ 145 µs
/// frames offer the wire ≈ 102 % of its capacity, so both nodes'
/// queues grow, frames wait for several priority slots, and which of
/// two waiting heads wins an arbitration depends on the priority its
/// last promotion gave it. The phases are off the whole-µs grid (see
/// `TICK_PHASE`), and with default deadlines so is every promotion
/// instant.
const LOADED: [(Subject, Duration, Duration); 2] = [
    (SRT_A, Duration::from_us(260), Duration::from_ns(100_300)),
    (SRT_B, Duration::from_us(310), Duration::from_ns(130_700)),
];

fn loaded_sample(node: u8, n: u64) -> Vec<u8> {
    vec![
        node,
        n as u8,
        (n >> 8) as u8,
        0x5A,
        0xC3,
        node ^ n as u8,
        0,
        1,
    ]
}

fn run_sim_loaded() -> Vec<Seen> {
    let mut net = Network::builder().nodes(3).build();
    let queues: Vec<_> = {
        let mut api = net.api();
        for (node, (subject, ..)) in LOADED.into_iter().enumerate() {
            api.announce(NodeId(node as u8), subject, srt_spec())
                .unwrap();
        }
        LOADED
            .map(|(subject, ..)| {
                let q = api.subscribe(NodeId(2), subject, SubscribeSpec::default());
                (subject, q.unwrap())
            })
            .into()
    };
    for (node, (subject, period, phase)) in LOADED.into_iter().enumerate() {
        let node = node as u8;
        let mut n = 0;
        net.every(period, phase, move |api| {
            let event = Event::new(subject, loaded_sample(node, n));
            api.publish(NodeId(node), subject, event).unwrap();
            n += 1;
        });
    }
    net.run_for(LOADED_RUN);
    let registry = net.world().registry();
    let mut seen: Vec<Seen> = queues
        .into_iter()
        .flat_map(|(subject, q)| {
            let etag = registry.etag_of(subject).unwrap();
            q.drain().into_iter().map(move |d| Seen {
                etag,
                origin: d.event.attributes.origin.unwrap().0,
                class: ChannelClass::Srt,
                bytes: d.event.content,
                wire_ns: d.wire_completed_at.as_ns(),
                delivered_ns: d.delivered_at.as_ns(),
            })
        })
        .collect();
    seen.sort_by_key(|s| s.wire_ns);
    seen
}

struct LoadedApp {
    subject: Subject,
    period: Duration,
    phase: Duration,
    n: u64,
}
impl Behavior for LoadedApp {
    fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
        ctx.set_timer(ctx.now() + self.phase, 0).unwrap();
    }
    fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, _payload: u64) {
        let bytes = loaded_sample(ctx.node(), self.n);
        ctx.publish(Event::new(self.subject, bytes)).unwrap();
        self.n += 1;
        ctx.set_timer(ctx.now() + self.period, 0).unwrap();
    }
}

fn run_live_loaded() -> (Vec<Seen>, u64) {
    let mut cluster = Cluster::new(ClusterConfig::default());
    for (subject, period, phase) in LOADED {
        let app = LoadedApp {
            subject,
            period,
            phase,
            n: 0,
        };
        let node = cluster.add_node(Box::new(app));
        cluster.publish(node, subject, srt_spec());
    }
    let sink = cluster.add_node(Box::new(Sink));
    for (subject, ..) in LOADED {
        cluster.subscribe(sink, subject, srt_spec());
    }
    let report = cluster.run_for(LOADED_RUN).unwrap();
    let seen = report
        .log
        .into_iter()
        .map(|r| Seen {
            etag: r.etag,
            origin: r.origin,
            class: r.class,
            bytes: r.bytes,
            wire_ns: r.wire_ns,
            delivered_ns: r.delivered_ns,
        })
        .collect();
    (seen, report.broker.promotes_rearmed)
}

#[test]
fn promotions_on_a_loaded_wire_match_the_simulator() {
    let (sim, (live, rearmed)) = (run_sim_loaded(), run_live_loaded());
    // The scenario exercises what it claims to: both publishers are
    // heard, frames waited long enough to be promoted, and the broker
    // re-armed promotions whose frame was on the wire.
    let from = |origin| sim.iter().filter(|s| s.origin == origin).count();
    assert!(from(0) > 100 && from(1) > 100, "{} + {}", from(0), from(1));
    let latency = |s: &Seen| {
        let n = u64::from(s.bytes[1]) | u64::from(s.bytes[2]) << 8;
        let (_, period, phase) = LOADED[s.origin as usize];
        s.wire_ns - (phase + period * n).as_ns()
    };
    // A 10 ms deadline on 160 µs slots is first promoted 80 µs after
    // the publish, and no frame here takes 160 µs: one that completes
    // more than 240 µs after its publish was still waiting then.
    let waited = sim.iter().filter(|s| latency(s) > 240_000).count();
    assert!(
        waited > 100,
        "only {waited} frames were promoted while waiting"
    );
    assert!(rearmed > 0, "no promotion came due on the wire");
    assert_eq!(sim.len(), live.len(), "delivery counts differ");
    for (i, (s, l)) in sim.iter().zip(&live).enumerate() {
        assert_eq!(s, l, "delivery {i}");
    }
}

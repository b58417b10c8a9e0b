//! Deterministic cost counts, ratcheted: hot paths whose steady state
//! must not touch the heap (fragment reassembly, trace recording, the
//! conformance monitor), checked with a counting global allocator;
//! the live runtime's lock-step turns per frame, and the simulator's
//! engine events and allocations on a `sim-stack`-shaped bus and its
//! engine events at one E5 load point, pinned exactly.
//!
//! libtest runs tests on parallel threads, so the allocator counts per
//! thread and each test reads only its own thread's count.

use rtec_analysis::admission::{CalendarPlan, PlannedSlot, SlotRequest};
use rtec_baselines::{policy, run_testbed};
use rtec_can::bits::BitTiming;
use rtec_can::NodeId;
use rtec_conformance::{AuditContext, Monitor};
use rtec_core::channel::{ChannelClass, ChannelSpec, HrtSpec, NrtSpec, SrtSpec, SubscribeSpec};
use rtec_core::event::{Event, Subject};
use rtec_core::frag::{fragment, Reassembler};
use rtec_core::network::{Network, NetworkConfig};
use rtec_core::node::{pack_tag, TagKind};
use rtec_live::broker::BrokerStats;
use rtec_live::cluster::{Cluster, ClusterConfig};
use rtec_live::node::{Behavior, NodeCtx};
use rtec_live::Pace;
use rtec_sim::parallel::{run_serial_windows, Envelope, RoutingTable, Segment, WindowConfig};
use rtec_sim::trace::INLINE_FIELDS;
use rtec_sim::{telemetry, Duration, Rng, SourceId, Time, TraceSink};
use rtec_workloads::{scale_load, set_utilization, uniform_srt_set};
use std::collections::HashMap;

/// Allocation-counting wrapper around the system allocator: the only
/// `unsafe` in the workspace. It adds nothing but a thread-local
/// counter bump in front of `System`, so a test can assert — not
/// estimate — that a loop stops allocating once its buffers are warm.
#[allow(unsafe_code)]
mod counted_alloc {
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::cell::Cell;

    thread_local! {
        // Const-initialised and drop-free: touching it never allocates
        // and never fails, even from inside the allocator.
        static ALLOCS: Cell<u64> = const { Cell::new(0) };
    }

    /// Allocation calls (alloc, alloc_zeroed, realloc) made by this
    /// thread so far.
    pub fn allocations() -> u64 {
        ALLOCS.with(Cell::get)
    }

    fn bump() {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
    }

    struct Counting;

    unsafe impl GlobalAlloc for Counting {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            bump();
            unsafe { System.alloc(layout) }
        }
        unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
            bump();
            unsafe { System.alloc_zeroed(layout) }
        }
        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            bump();
            unsafe { System.realloc(ptr, layout, new_size) }
        }
        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            unsafe { System.dealloc(ptr, layout) }
        }
    }

    #[global_allocator]
    static COUNTER: Counting = Counting;
}

/// Allocations this thread makes while running `f`.
fn allocations_in(f: impl FnOnce()) -> u64 {
    let before = counted_alloc::allocations();
    f();
    counted_alloc::allocations() - before
}

/// The counter sees this thread's allocations (so a 0 below is real).
#[test]
fn counter_sees_an_allocation() {
    let n = allocations_in(|| drop(std::hint::black_box(Box::new(7u64))));
    assert_eq!(n, 1);
}

/// After one warm-up transfer fills the reassembler's scratch
/// free-list, 1 000 further bulk transfers through the same stream
/// allocate nothing.
#[test]
fn warm_fragment_reassembly_allocates_nothing() {
    let payload = vec![0xA5u8; 1536]; // a many-fragment bulk transfer
    let frags = fragment(&payload);
    let mut r: Reassembler<u8> = Reassembler::new();
    let transfer = |r: &mut Reassembler<u8>| {
        let mut done = None;
        for f in &frags {
            done = r.push(7, f).expect("well-formed fragment stream");
        }
        let msg = done.expect("transfer completes");
        assert_eq!(msg.len(), payload.len());
        r.recycle(msg);
    };
    transfer(&mut r);
    let n = allocations_in(|| (0..1_000).for_each(|_| transfer(&mut r)));
    assert_eq!(
        n, 0,
        "steady-state reassembly allocated: scratch reuse regressed"
    );
}

/// 10 000 records of 0..=INLINE_FIELDS fields each, from one interned
/// source, cycling through four kinds.
fn emit_burst(sink: &TraceSink) {
    let src = sink.intern("bus");
    let fields = [("cand", 1u64); INLINE_FIELDS];
    for i in 0..10_000usize {
        let kind = ["arb", "tx_start", "tx_end", "rx"][i % 4];
        sink.emit_fields(
            Time::from_ns(i as u64),
            src,
            kind,
            &fields[..i % (INLINE_FIELDS + 1)],
        );
    }
}

/// The trace module's claim: recording into a warm bounded ring is
/// allocation-free while the fields fit inline.
#[test]
fn warm_bounded_trace_ring_allocates_nothing() {
    let sink = TraceSink::enabled_with_capacity(4_096);
    emit_burst(&sink); // intern "bus" and fill the ring
    let n = allocations_in(|| emit_burst(&sink));
    assert_eq!(n, 0, "recording into a warm ring allocated");
    assert_eq!(sink.len(), 4_096);
    assert_eq!(sink.dropped(), 20_000 - 4_096);
}

/// A disabled sink drops every record without touching the heap.
#[test]
fn disabled_trace_sink_allocates_nothing() {
    let sink = TraceSink::disabled();
    let n = allocations_in(|| emit_burst(&sink));
    assert_eq!(n, 0, "a disabled sink allocated");
    assert!(sink.is_empty());
}

/// One 10 ms round of a monitored bus: an HRT frame in its slot and
/// delivered at the slot deadline, and an SRT frame beside it, each
/// with its arbitration, start and end records — 7 records.
fn monitored_round(sink: &TraceSink, src: SourceId, round: u64, slot: &PlannedSlot) {
    let base = round * 10_000_000;
    let lst = base + slot.lst().as_ns();
    let hrt_id = 16u64; // priority 0, node 0, etag 16
    let srt_id = (50u64 << 21) | (3 << 14) | 20;
    let hrt_tag = pack_tag(TagKind::Hrt, 16, round as u32);
    let srt_tag = pack_tag(TagKind::Srt, 20, round as u32);
    let cands = [
        ("cand", hrt_id),
        ("cand", (3 << 32) | srt_id),
        ("win", hrt_id),
    ];
    sink.emit_fields(Time::from_ns(lst), src, "arb", &cands);
    let hrt = [
        ("id", hrt_id),
        ("node", 0),
        ("attempt", 1),
        ("tag", hrt_tag),
    ];
    sink.emit_fields(Time::from_ns(lst), src, "tx_start", &hrt);
    sink.emit_fields(Time::from_ns(lst + 130_000), src, "tx_end", &hrt);
    let srt = [
        ("id", srt_id),
        ("node", 3),
        ("attempt", 1),
        ("tag", srt_tag),
    ];
    sink.emit_fields(Time::from_ns(lst + 130_000), src, "tx_start", &srt);
    sink.emit_fields(Time::from_ns(lst + 260_000), src, "tx_end", &srt);
    let arb = [("cand", (3 << 32) | srt_id), ("win", srt_id)];
    sink.emit_fields(Time::from_ns(lst + 260_000), src, "arb", &arb);
    let deliver = [
        ("etag", 16),
        ("round", round),
        ("slot", 0),
        ("node", 2),
        ("wire", lst + 130_000),
    ];
    let at = base + slot.deadline().as_ns();
    sink.emit_fields(Time::from_ns(at), src, "hrt_deliver", &deliver);
}

/// A warm conformance monitor, fed through a tapped sink, checks every
/// rule on a steady stream without touching the heap — no per-record
/// copy, string or report.
#[test]
fn warm_conformance_monitor_allocates_nothing() {
    let round = Duration::from_ms(10);
    let request = SlotRequest {
        etag: 16,
        publisher: NodeId(0),
        dlc: 8,
        omission_degree: 2,
        period: round,
    };
    let plan = CalendarPlan::plan(round, &[request], BitTiming::MBIT_1, Duration::from_us(40))
        .expect("one slot fits");
    let slot = plan.slots[0];
    let ctx = AuditContext::from_parts(
        plan,
        Time::ZERO,
        HashMap::from([(16, ChannelClass::Hrt), (20, ChannelClass::Srt)]),
        HashMap::from([(16, round)]),
    );
    let sink = TraceSink::tapped(Monitor::new(&ctx));
    let src = sink.intern("bus");
    monitored_round(&sink, src, 0, &slot);
    let n = allocations_in(|| (1..=1_500).for_each(|r| monitored_round(&sink, src, r, &slot)));
    assert_eq!(n, 0, "a warm monitor allocated while checking records");
    assert_eq!(sink.len(), 0);
    let (records, report) = sink
        .with_tap(|m: &mut Monitor| (m.records(), m.report()))
        .expect("the sink holds the monitor");
    assert_eq!(records, 7 * 1_501);
    assert!(report.is_clean(), "{report}");
}

/// A toy segment that relays its tick count every boundary on its one
/// outgoing route and folds what it is handed into a checksum. It
/// never allocates, so an allocation while it runs is the driver's.
struct Relayer {
    route: u32,
    latency: Duration,
    ticks: u64,
    applied: u64,
    sum: u64,
}

impl Segment for Relayer {
    type Relay = u64;
    type Report = (u64, u64, u64);
    fn advance_to(&mut self, _t: Time) {
        self.ticks += 1;
    }
    fn collect(&mut self, now: Time, out: &mut Vec<Envelope<u64>>) {
        out.push(Envelope {
            due: now + self.latency,
            collected_at: now,
            route: self.route,
            payload: self.ticks,
        });
    }
    fn apply(&mut self, env: Envelope<u64>) {
        self.applied += 1;
        self.sum = self.sum.wrapping_mul(31).wrapping_add(env.payload);
    }
    fn finish(self) -> (u64, u64, u64) {
        (self.ticks, self.applied, self.sum)
    }
}

/// Two relayers joined by one route each way, run serially to
/// `until`: this thread's allocations during the run, and the reports.
fn serial_window_run(until: Time) -> (u64, Vec<(u64, u64, u64)>) {
    let mut routing = RoutingTable::new(2);
    routing.add_route(0, 1);
    routing.add_route(1, 0);
    let latency = Duration::from_us(300);
    let cfg = WindowConfig {
        quantum: Duration::from_us(100),
        lookahead: latency,
    };
    let factories: Vec<_> = (0..2u32)
        .map(|route| {
            move || Relayer {
                route,
                latency,
                ticks: 0,
                applied: 0,
                sum: 0,
            }
        })
        .collect();
    let mut reports = Vec::new();
    let n = allocations_in(|| reports = run_serial_windows(factories, &routing, cfg, until));
    (n, reports)
}

/// The serial window driver allocates per run, not per quantum: ten
/// times the bus time costs the same allocations.
#[test]
fn serial_window_driver_allocates_per_run_not_per_quantum() {
    let (short, short_reports) = serial_window_run(Time::from_ms(10));
    let (long, long_reports) = serial_window_run(Time::from_ms(100));
    // One tick per 100 µs quantum; relays due by the horizon applied.
    assert_eq!(short_reports[0].0, 100);
    assert_eq!(long_reports[1].0, 1_000);
    assert_eq!(long_reports[0].1, 997, "relays due at or before 100 ms");
    assert_eq!(
        short, long,
        "allocations grew with the horizon: the driver allocates per quantum"
    );
}

const HRT: Subject = Subject(0xB001);
const SRT: Subject = Subject(0xB100);
const NRT: Subject = Subject(0xB200);
/// First publish of the SRT and NRT sources, off the whole-µs grid.
const PHASE: Duration = Duration::from_ns(73_300);

/// A periodic publisher of deterministic payloads: the HRT source is
/// staged ahead of its calendar slot, the others start at [`PHASE`].
struct Source {
    subject: Subject,
    period: Duration,
    len: usize,
    n: u32,
}

impl Source {
    fn publish(&mut self, ctx: &mut NodeCtx<'_>) {
        let mut bytes = self.n.to_le_bytes().to_vec();
        bytes.resize(self.len, self.n as u8 ^ 0xA5);
        let _ = ctx.publish(Event::new(self.subject, bytes));
        self.n += 1;
    }
}

impl Behavior for Source {
    fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
        let first = if self.subject == HRT {
            self.publish(ctx);
            ctx.hrt_stage_schedule(HRT).expect("HRT slot").0
        } else {
            ctx.now() + PHASE
        };
        ctx.set_timer(first, 0).expect("arm");
    }

    fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, _payload: u64) {
        self.publish(ctx);
        ctx.set_timer(ctx.now() + self.period, 0).expect("arm");
    }
}

struct Subscriber;
impl Behavior for Subscriber {}

/// The shape of the `live-narrow` benchmark workload, for 200 ms of bus
/// time: an HRT channel, one SRT source every 200 µs and one 240-byte
/// NRT bulk source every 30 ms on four nodes, one of them the
/// subscriber, lock-step under virtual pacing.
fn narrow_cluster_run() -> BrokerStats {
    let mut cluster = Cluster::new(ClusterConfig {
        pace: Pace::Virtual,
        nrt_queue_cap: 256,
        ..ClusterConfig::default()
    });
    let sources = [
        (
            HRT,
            Duration::from_ms(10),
            8,
            ChannelSpec::Hrt(HrtSpec::periodic_10ms()),
        ),
        (
            SRT,
            Duration::from_us(200),
            8,
            ChannelSpec::Srt(SrtSpec::default()),
        ),
        (
            NRT,
            Duration::from_ms(30),
            240,
            ChannelSpec::Nrt(NrtSpec::bulk()),
        ),
    ];
    for (subject, period, len, spec) in sources {
        let source = Source {
            subject,
            period,
            len,
            n: 0,
        };
        let node = cluster.add_node(Box::new(source));
        cluster.publish(node, subject, spec);
    }
    let sub = cluster.add_node(Box::new(Subscriber));
    for (subject, _, _, spec) in sources {
        cluster.subscribe(sub, subject, spec);
    }
    let report = cluster.run_for(Duration::from_ms(200)).expect("live run");
    report.broker
}

/// Lock-step turns are a count, not a wall time: a narrow cluster's
/// frames, turns and re-armed promotions are pinned exactly, and equal
/// over three runs. A change that lowers `turns` lowers the pin; one
/// that raises it says why in its own commit.
#[test]
fn narrow_cluster_turns_are_pinned() {
    let runs: Vec<BrokerStats> = (0..3).map(|_| narrow_cluster_run()).collect();
    assert!(runs.windows(2).all(|w| w[0] == w[1]), "{runs:#?}");
    let stats = &runs[0];
    let counts = (stats.frames_ok, stats.turns, stats.promotes_rearmed);
    assert_eq!(
        counts,
        (1354, 4166, 872),
        "(frames_ok, turns, promotes_rearmed)"
    );
}

/// A `sim-stack` source: node, subject, channel, period, payload bytes.
type StackSource = (u8, Subject, ChannelSpec, Duration, usize);

/// Four SRT sources (800 µs, 8 bytes) on nodes 1–4 and two NRT bulk
/// sources (60 ms, 240 bytes) on nodes 5–6.
fn stack_sources() -> Vec<StackSource> {
    let (srt_spec, nrt_spec) = (
        ChannelSpec::Srt(SrtSpec::default()),
        ChannelSpec::Nrt(NrtSpec::bulk()),
    );
    let srt = (1..=4u8).map(|n| (n, SRT, srt_spec, Duration::from_us(800), 8));
    let nrt = (5..=6u8).map(|n| (n, NRT, nrt_spec, Duration::from_ms(60), 240));
    srt.chain(nrt)
        .map(|(n, base, spec, period, len)| (n, Subject(base.0 + u64::from(n)), spec, period, len))
        .collect()
}

/// The shape of the `sim-stack` benchmark workload, run for 500 ms of
/// bus time at a fixed seed with trace off: one HRT channel (10 ms) on
/// node 0 and the [`stack_sources`], all delivered to node 7, whose
/// application drains its queues once a round. The wire is busy 96 %
/// of the horizon (`sim-stack` reads 92 % over 60 s).
fn sim_stack_net() -> Network {
    let mut net = Network::builder().nodes(8).seed(42).build();
    let sources = stack_sources();
    let mut api = net.api();
    api.announce(NodeId(0), HRT, ChannelSpec::Hrt(HrtSpec::periodic_10ms()))
        .expect("announce HRT");
    for &(node, subject, spec, ..) in &sources {
        api.announce(NodeId(node), subject, spec)
            .expect("announce source");
    }
    let queues: Vec<_> = std::iter::once(HRT)
        .chain(sources.iter().map(|s| s.1))
        .map(|subject| {
            api.subscribe(NodeId(7), subject, SubscribeSpec::default())
                .expect("subscribe")
        })
        .collect();
    api.install_calendar().expect("one HRT slot per round");
    for (node, subject, _, period, len) in sources {
        let phase = Duration::from_us(50 + 97 * u64::from(node));
        let mut seq = 0u32;
        net.every(period, phase, move |api| {
            let mut bytes = seq.to_le_bytes().to_vec();
            bytes.resize(len, (seq as u8) ^ node);
            let _ = api.publish(NodeId(node), subject, Event::new(subject, bytes));
            seq += 1;
        });
    }
    let mut seq = 0u32;
    net.every(Duration::from_ms(10), Duration::from_us(100), move |api| {
        let _ = api.publish(NodeId(0), HRT, Event::new(HRT, seq.to_le_bytes().repeat(2)));
        seq += 1;
        for q in &queues {
            while q.pop().is_some() {}
        }
    });
    net.run_for(Duration::from_ms(500));
    net
}

/// [`sim_stack_net`]'s (engine events, frames on the wire, events
/// delivered, bus busy time in µs).
fn sim_stack_run() -> (u64, u64, u64, u64) {
    let net = sim_stack_net();
    let bus = net.world().bus.stats;
    let delivered = net.stats().total_delivered();
    let busy_us = bus.busy.as_ns() / 1_000;
    (net.dispatched(), bus.frames_ok, delivered, busy_us)
}

/// The simulator's cost in engine events is a count, not a wall time:
/// a `sim-stack`-shaped bus dispatches and delivers exactly the pinned
/// numbers, equal over three runs. A change that removes engine events
/// (say, dead SRT timers) lowers the pin and says so.
#[test]
fn sim_stack_counts_are_pinned() {
    let runs: Vec<_> = (0..3).map(|_| sim_stack_run()).collect();
    assert!(runs.windows(2).all(|w| w[0] == w[1]), "{runs:?}");
    assert_eq!(
        runs[0],
        (20_960, 3_374, 2_566, 478_120),
        "(dispatched, frames_ok, delivered, busy_us)"
    );
}

/// Run statistics keep samples only where a reader uses them: on a
/// `sim-stack`-shaped bus that is each channel's delivery and wire
/// latency, and nothing per delivery else. The pin is their sample
/// count, equal over three runs; a statistic that starts keeping
/// samples, or a change in what is delivered, moves it.
#[test]
fn sim_stack_retained_samples_are_pinned() {
    let retained = |net: Network| -> usize {
        let channels = net.stats().channels.values();
        channels
            .map(|c| c.latency_ns.count() + c.wire_latency_ns.count())
            .sum()
    };
    let runs: Vec<_> = (0..3).map(|_| retained(sim_stack_net())).collect();
    assert!(runs.windows(2).all(|w| w[0] == w[1]), "{runs:?}");
    assert_eq!(runs[0], 5_132, "latency plus wire-latency samples");
}

/// The frame path's heap traffic is a count too: building and running
/// a `sim-stack`-shaped bus for its 500 ms makes exactly the pinned
/// number of allocations, equal over three runs. Per frame that is
/// the application's payload and the subscriber's copy of it, plus
/// amortized growth; a change that allocates per frame or per engine
/// event moves the pin by thousands, and one that removes allocations
/// lowers it.
#[test]
fn sim_stack_allocations_are_pinned() {
    let runs: Vec<u64> = (0..3)
        .map(|_| allocations_in(|| drop(sim_stack_net())))
        .collect();
    assert!(runs.windows(2).all(|w| w[0] == w[1]), "{runs:?}");
    assert_eq!(runs[0], 9_355, "allocations building and running the bus");
}

/// One E5 load point, as the `e5` experiment builds it: the
/// EDF+expiry column over the seed-42 stream set scaled to U = 1.2,
/// for 200 ms of bus time — the lightest point where every count below
/// is non-zero (at U = 1.05 nothing misses in 200 ms). Returns
/// (released, completed, missed, dropped, backlog, stale backlog,
/// inversions, engine events).
fn e5_point_run() -> [u64; 8] {
    let mut rng = Rng::seed_from_u64(42);
    let base = uniform_srt_set(12, 6, Duration::from_ms(2), Duration::from_ms(50), &mut rng);
    let set = scale_load(&base, 1.2 / set_utilization(&base, BitTiming::MBIT_1));
    let config = NetworkConfig {
        seed: 42,
        ..NetworkConfig::default()
    };
    telemetry::reset();
    let s = run_testbed(&policy::edf(&set), &set, &config, Duration::from_ms(200));
    let events = telemetry::snapshot().dispatched;
    [
        s.released,
        s.completed,
        s.missed,
        s.dropped,
        s.backlog,
        s.stale_backlog,
        s.inversions,
        events,
    ]
}

/// E5's counts at one load point are pinned like `sim-stack`'s, equal
/// over three runs: a change to how the §4 policies are hosted must
/// leave them equal.
#[test]
fn e5_counts_are_pinned() {
    let runs: Vec<_> = (0..3).map(|_| e5_point_run()).collect();
    assert!(runs.windows(2).all(|w| w[0] == w[1]), "{runs:?}");
    assert_eq!(
        runs[0],
        [1_465, 1_361, 378, 24, 80, 10, 378, 14_094],
        "[released, completed, missed, dropped, backlog, stale, inversions, engine events]"
    );
}

//! Deterministic cost counts, ratcheted: hot paths whose steady state
//! must not touch the heap, checked with a counting global allocator;
//! the live runtime's lock-step turns per frame and the simulator's
//! engine events on a `sim-stack`-shaped bus, pinned exactly.
//!
//! libtest runs tests on parallel threads, so the allocator counts per
//! thread and each test reads only its own thread's count.

use rtec_can::NodeId;
use rtec_core::channel::{ChannelSpec, HrtSpec, NrtSpec, SrtSpec, SubscribeSpec};
use rtec_core::event::{Event, Subject};
use rtec_core::frag::{fragment, Reassembler};
use rtec_core::network::Network;
use rtec_live::broker::BrokerStats;
use rtec_live::cluster::{Cluster, ClusterConfig};
use rtec_live::node::{Behavior, NodeCtx};
use rtec_live::Pace;
use rtec_sim::parallel::{run_serial_windows, Envelope, RoutingTable, Segment, WindowConfig};
use rtec_sim::trace::INLINE_FIELDS;
use rtec_sim::{Duration, Time, TraceSink};

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

/// The shape of the `sim-stack` benchmark workload, for 500 ms of bus
/// time at a fixed seed with trace off: one HRT channel (10 ms) on node
/// 0 and the [`stack_sources`], all delivered to node 7, whose
/// application drains its queues once a round. The wire is busy 96 %
/// of the horizon (`sim-stack` reads 92 % over 60 s).
/// Returns (engine events, frames on the wire, events delivered, bus
/// busy time in µs).
fn sim_stack_run() -> (u64, u64, u64, u64) {
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

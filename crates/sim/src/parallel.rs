//! Deterministic parallel execution of multi-segment simulations.
//!
//! A multi-segment topology (N independent bus simulations joined by
//! store-and-forward gateways) is a textbook conservative
//! parallel-discrete-event-simulation problem: the gateway's minimum
//! store-and-forward latency is a *lookahead* — a relay collected at
//! simulated time `t` can never affect its target segment at or before
//! `t + lookahead − quantum`. Each segment therefore runs on its own
//! named OS thread, advancing through conservative **time windows** of
//! width ≤ lookahead; at every window barrier the threads exchange the
//! relays they collected during the window over bounded channels (an
//! empty batch is the null message carrying the time guarantee).
//!
//! Determinism is not statistical but exact: every envelope is tagged
//! with the boundary instant it was collected at and its global route
//! index, and the receiving thread stable-merges incoming batches by
//! `(collected_at, route)` — reproducing byte-for-byte the relay
//! insertion order the serial lockstep driver ([`run_serial_windows`],
//! the differential oracle) produces. Both drivers then buffer relays
//! in the same due-time order, ties in insertion order, and flush what
//! has come due, so traces, stats and experiment tables are identical
//! regardless of the thread schedule.
//!
//! The module also hosts [`pool_map`], the small hand-rolled worker
//! pool the benchmark harness uses to shard independent experiment
//! runs (`experiments all --jobs N`). All primitives are routed
//! through [`crate::sync`], so the `C1`..`C6` source lints and the
//! vendored loom model checker cover this code (see
//! `crates/sim/tests/loom_model.rs` for the window-barrier handshake
//! model).

use crate::sync::{
    atomic::{AtomicUsize, Ordering},
    mpsc, thread, Arc, Mutex,
};
use crate::time::{Duration, Time};
use std::time::Instant;

/// One relay in flight between segments.
///
/// The three tag fields exist for determinism, not routing: they let
/// the receiving side reconstruct the exact relay-buffer insertion
/// order of the serial driver.
#[derive(Clone, Debug)]
pub struct Envelope<R> {
    /// Instant the relay becomes visible on the target segment.
    pub due: Time,
    /// Boundary instant the relay was collected at (source side).
    pub collected_at: Time,
    /// Global route index (creation order across the whole topology).
    pub route: u32,
    /// The relayed payload.
    pub payload: R,
}

/// One segment of a multi-segment simulation, as seen by the window
/// drivers.
///
/// `advance_to`/`collect`/`apply` are called in a fixed pattern at
/// every boundary `t`: advance the segment to `t`, drain the relays
/// that surfaced on its outgoing routes (stamped `collected_at = t`),
/// then apply whatever buffered envelopes have come due. The
/// implementation must be deterministic given the call sequence. Once
/// the horizon is reached, `finish` turns the segment into its report.
pub trait Segment: Sized {
    /// Payload type relayed between segments.
    type Relay: Send + 'static;
    /// Per-segment result extracted after the run.
    type Report: Send + 'static;
    /// Advance the segment's simulation to absolute time `t`.
    fn advance_to(&mut self, t: Time);
    /// Drain relays collected on this segment's outgoing routes since
    /// the previous collect, appending envelopes stamped with `now`.
    /// Envelopes must be pushed in ascending global route order.
    fn collect(&mut self, now: Time, out: &mut Vec<Envelope<Self::Relay>>);
    /// Apply one due relay to this segment.
    fn apply(&mut self, env: Envelope<Self::Relay>);
    /// Consume the segment and produce its report.
    fn finish(self) -> Self::Report;
}

/// Static route table: which segment each global route leaves from and
/// arrives at.
#[derive(Clone, Debug)]
pub struct RoutingTable {
    segments: usize,
    source: Vec<usize>,
    target: Vec<usize>,
}

impl RoutingTable {
    /// A table over `segments` segments with no routes yet.
    pub fn new(segments: usize) -> Self {
        RoutingTable {
            segments,
            source: Vec::new(),
            target: Vec::new(),
        }
    }

    /// Register a route `from → to`; returns its global route index.
    /// Self-loops are rejected (a gateway never relays onto its own
    /// segment).
    pub fn add_route(&mut self, from: usize, to: usize) -> u32 {
        assert!(from < self.segments && to < self.segments, "segment oob");
        assert_ne!(from, to, "route must cross a segment boundary");
        self.source.push(from);
        self.target.push(to);
        (self.source.len() - 1) as u32
    }

    /// Number of segments.
    pub fn segments(&self) -> usize {
        self.segments
    }

    /// Number of routes.
    pub fn routes(&self) -> usize {
        self.source.len()
    }

    /// Source segment of a route.
    pub fn source(&self, route: u32) -> usize {
        self.source[route as usize]
    }

    /// Target segment of a route.
    pub fn target(&self, route: u32) -> usize {
        self.target[route as usize]
    }

    /// Directed segment pairs `(from, to)` that carry at least one
    /// route, deduplicated, in ascending order. One bounded channel is
    /// created per edge.
    pub fn edges(&self) -> Vec<(usize, usize)> {
        let mut edges: Vec<(usize, usize)> = self
            .source
            .iter()
            .copied()
            .zip(self.target.iter().copied())
            .collect();
        edges.sort_unstable();
        edges.dedup();
        edges
    }
}

/// Conservative window parameters.
#[derive(Clone, Copy, Debug)]
pub struct WindowConfig {
    /// Boundary spacing: segments advance and exchange eligibility is
    /// re-checked every `quantum` of simulated time.
    pub quantum: Duration,
    /// Minimum store-and-forward latency across all routes. Must be
    /// ≥ `quantum`; the window width is `⌊lookahead/quantum⌋·quantum`.
    pub lookahead: Duration,
}

impl WindowConfig {
    /// The conservative window width: the largest multiple of the
    /// quantum not exceeding the lookahead.
    pub fn window(&self) -> Duration {
        let q = self.quantum.as_ns().max(1);
        let w = (self.lookahead.as_ns() / q).max(1) * q;
        Duration::from_ns(w)
    }
}

/// Buffer `env` behind every pending envelope due no later than it,
/// so `pending` stays sorted by due time with ties in insertion order.
fn enqueue<R>(pending: &mut Vec<Envelope<R>>, env: Envelope<R>) {
    let at = pending.partition_point(|e| e.due <= env.due);
    pending.insert(at, env);
}

/// Apply every buffered envelope due at or before `now` to `seg`, in
/// stable due order: the sorted prefix [`enqueue`] maintains.
fn flush_due<S: Segment>(seg: &mut S, pending: &mut Vec<Envelope<S::Relay>>, now: Time) {
    let due = pending.partition_point(|e| e.due <= now);
    for env in pending.drain(..due) {
        seg.apply(env);
    }
}

/// Advance every segment to boundary `t`, collect fresh relays into
/// the per-target pending buffers (global route order), and flush what
/// has come due — one lockstep boundary of the serial driver.
/// `staged` is scratch, empty on entry and on return.
fn step_boundary<S: Segment>(
    segs: &mut [S],
    routing: &RoutingTable,
    pending: &mut [Vec<Envelope<S::Relay>>],
    staged: &mut Vec<Envelope<S::Relay>>,
    t: Time,
) {
    for seg in segs.iter_mut() {
        seg.advance_to(t);
    }
    for seg in segs.iter_mut() {
        seg.collect(t, staged);
    }
    // Per-segment collects emit ascending local route ids; a stable
    // sort by route restores the single global insertion order.
    staged.sort_by_key(|e| e.route);
    for env in staged.drain(..) {
        enqueue(&mut pending[routing.target(env.route)], env);
    }
    for (seg, pending) in segs.iter_mut().zip(pending) {
        flush_due(seg, pending, t);
    }
}

/// Run a topology serially on the calling thread: every segment is
/// built by its factory in index order and all segments advance in
/// lockstep quanta. This is the differential oracle the parallel
/// driver is checked against — byte-identical outputs are the
/// contract.
pub fn run_serial_windows<S, F>(
    factories: Vec<F>,
    routing: &RoutingTable,
    cfg: WindowConfig,
    until: Time,
) -> Vec<S::Report>
where
    S: Segment,
    F: FnOnce() -> S,
{
    assert_eq!(
        factories.len(),
        routing.segments(),
        "one factory per segment"
    );
    assert!(cfg.lookahead >= cfg.quantum, "lookahead below the quantum");
    let mut segments: Vec<S> = factories.into_iter().map(|f| f()).collect();
    let mut pending: Vec<Vec<Envelope<S::Relay>>> =
        (0..segments.len()).map(|_| Vec::new()).collect();
    let mut staged = Vec::new();
    let mut now = Time::ZERO;
    while now < until {
        let t = (now + cfg.quantum).min(until);
        step_boundary(&mut segments, routing, &mut pending, &mut staged, t);
        now = t;
    }
    segments.into_iter().map(|s| s.finish()).collect()
}

/// Wall-clock accounting for one parallel run.
#[derive(Clone, Copy, Debug, Default)]
pub struct ParallelStats {
    /// Segment threads spawned.
    pub threads: usize,
    /// Conservative windows executed (identical on every thread).
    pub windows: u64,
    /// Total wall seconds across all threads (Σ per-thread run time).
    pub busy_s: f64,
    /// Wall seconds spent blocked at window barriers, summed across
    /// threads. `stall_s / busy_s` is the barrier-stall fraction: near
    /// 0 when per-window work dominates, near `(n−1)/n` when one
    /// segment carries all the load and the speedup degrades to 1×.
    pub stall_s: f64,
}

/// Result of [`run_parallel`]: per-segment reports in segment order
/// plus barrier accounting.
#[derive(Debug)]
pub struct ParallelRun<Rep> {
    /// Per-segment reports, in segment index order.
    pub reports: Vec<Rep>,
    /// Thread/barrier accounting.
    pub stats: ParallelStats,
}

/// Depth of the per-edge batch channels. At most one window batch is
/// genuinely in flight between mutually-connected segments (their
/// window indices can never drift further than one apart); a source
/// segment with no incoming edges may run ahead until this bound
/// back-pressures it.
pub const EDGE_CHANNEL_DEPTH: usize = 4;

/// One window's worth of relays crossing one edge. An empty batch is
/// the null message: it still carries the window index, i.e. the
/// guarantee that nothing earlier is coming.
struct WindowBatch<R> {
    window: u64,
    batch: Vec<Envelope<R>>,
}

/// One segment's outgoing edges: `(destination, batch sender)` pairs.
type EdgeSenders<R> = Vec<(usize, mpsc::SyncSender<WindowBatch<R>>)>;
/// One segment's incoming edges: `(source, batch receiver)` pairs,
/// kept sorted by source so merges are schedule-independent.
type EdgeReceivers<R> = Vec<(usize, mpsc::Receiver<WindowBatch<R>>)>;

/// Run a topology with one named OS thread per segment, synchronized
/// by conservative windows (see the module docs). Produces exactly the
/// same per-segment reports as [`run_serial_windows`] over the same
/// factories — the differential proptest in `rtec-core` holds the two
/// drivers to byte equality.
///
/// Panics if any segment thread panics, or if `lookahead < quantum`
/// (the conservative guarantee would be void).
pub fn run_parallel<S, F>(
    factories: Vec<F>,
    routing: &RoutingTable,
    cfg: WindowConfig,
    until: Time,
) -> ParallelRun<S::Report>
where
    S: Segment,
    F: FnOnce() -> S + Send + 'static,
{
    assert_eq!(
        factories.len(),
        routing.segments(),
        "one factory per segment"
    );
    assert!(cfg.lookahead >= cfg.quantum, "lookahead below the quantum");
    let n = factories.len();
    let window = cfg.window();

    // One bounded channel per directed edge that carries routes.
    let edges = routing.edges();
    let mut senders: Vec<EdgeSenders<S::Relay>> = (0..n).map(|_| Vec::new()).collect();
    let mut receivers: Vec<EdgeReceivers<S::Relay>> = (0..n).map(|_| Vec::new()).collect();
    for &(from, to) in &edges {
        let (tx, rx) = mpsc::bounded(EDGE_CHANNEL_DEPTH);
        senders[from].push((to, tx));
        receivers[to].push((from, rx));
    }
    // Receive in ascending source order so the merge below is
    // schedule-independent.
    for ins in &mut receivers {
        ins.sort_by_key(|(src, _)| *src);
    }

    let mut handles = Vec::with_capacity(n);
    for (i, factory) in factories.into_iter().enumerate() {
        let outs = std::mem::take(&mut senders[i]);
        let ins = std::mem::take(&mut receivers[i]);
        let routing = routing.clone();
        let handle = thread::Builder::new()
            .name(format!("rtec-seg-{i}"))
            .spawn(move || segment_thread(i, factory, outs, ins, routing, cfg, window, until))
            .expect("spawn segment thread");
        handles.push(handle);
    }

    let mut reports = Vec::with_capacity(n);
    let mut stats = ParallelStats {
        threads: n,
        ..ParallelStats::default()
    };
    for (i, handle) in handles.into_iter().enumerate() {
        match handle.join() {
            Ok((report, windows, busy_s, stall_s)) => {
                stats.windows = windows;
                stats.busy_s += busy_s;
                stats.stall_s += stall_s;
                reports.push(report);
            }
            Err(payload) => panic!("segment thread {i} panicked: {}", panic_text(&payload)),
        }
    }
    ParallelRun { reports, stats }
}

fn panic_text(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

/// Body of one segment thread: windows of lockstep boundaries, then a
/// barrier exchanging batches on every edge (send first, then receive
/// — with windows bounded by the lookahead this cannot deadlock; the
/// loom model in `crates/sim/tests/loom_model.rs` checks the
/// handshake under every schedule).
#[allow(clippy::too_many_arguments)]
fn segment_thread<S, F>(
    index: usize,
    factory: F,
    outs: EdgeSenders<S::Relay>,
    ins: EdgeReceivers<S::Relay>,
    routing: RoutingTable,
    cfg: WindowConfig,
    window: Duration,
    until: Time,
) -> (S::Report, u64, f64, f64)
where
    S: Segment,
    F: FnOnce() -> S,
{
    let t0 = Instant::now();
    let mut seg = factory();
    let mut pending: Vec<Envelope<S::Relay>> = Vec::new();
    let mut staged: Vec<Envelope<S::Relay>> = Vec::new();
    let mut now = Time::ZERO;
    let mut windows = 0u64;
    let mut stall_s = 0.0f64;
    while now < until {
        let window_end = (now + window).min(until);
        while now < window_end {
            let t = (now + cfg.quantum).min(window_end);
            seg.advance_to(t);
            seg.collect(t, &mut staged);
            flush_due(&mut seg, &mut pending, t);
            now = t;
        }
        // Barrier: ship this window's collections (the serial driver's
        // per-boundary insertion key is (collected_at, route), so sort
        // stably by it before splitting per edge), then merge the
        // peers' batches into the pending buffer in the same key
        // order. Empty batches still flow: they are the null messages.
        staged.sort_by_key(|e| (e.collected_at, e.route));
        let mut per_dst: Vec<Vec<Envelope<S::Relay>>> = outs.iter().map(|_| Vec::new()).collect();
        for env in staged.drain(..) {
            let dst = routing.target(env.route);
            let slot = outs
                .iter()
                .position(|(d, _)| *d == dst)
                .unwrap_or_else(|| panic!("segment {index}: route targets {dst} with no edge"));
            per_dst[slot].push(env);
        }
        for (slot, (_, tx)) in outs.iter().enumerate() {
            let batch = std::mem::take(&mut per_dst[slot]);
            if tx
                .send(WindowBatch {
                    window: windows,
                    batch,
                })
                .is_err()
            {
                panic!("segment {index}: window {windows} batch receiver vanished");
            }
        }
        let mut merged: Vec<Envelope<S::Relay>> = Vec::new();
        for (src, rx) in &ins {
            let wait = Instant::now();
            let got = match rx.recv() {
                Ok(b) => b,
                Err(_) => panic!("segment {index}: window {windows} feed from {src} vanished"),
            };
            stall_s += wait.elapsed().as_secs_f64();
            assert_eq!(got.window, windows, "window indices must stay in lockstep");
            merged.extend(got.batch);
        }
        merged.sort_by_key(|e| (e.collected_at, e.route));
        for env in merged {
            enqueue(&mut pending, env);
        }
        windows += 1;
    }
    let report = seg.finish();
    (report, windows, t0.elapsed().as_secs_f64(), stall_s)
}

/// Run `f(0..n)` across a small pool of named worker threads and
/// return the results in index order. Used by the benchmark harness to
/// shard independent experiment runs (`experiments all --jobs N`);
/// with `workers <= 1` the jobs run inline on the calling thread, so
/// the sharded path can be diffed against the serial one.
pub fn pool_map<T, F>(n: usize, workers: usize, f: F) -> Vec<T>
where
    T: Send + 'static,
    F: Fn(usize) -> T + Send + Sync + 'static,
{
    if workers <= 1 || n <= 1 {
        return (0..n).map(f).collect();
    }
    let f = Arc::new(f);
    let next = Arc::new(AtomicUsize::new(0));
    let slots: Arc<Mutex<Vec<Option<T>>>> = Arc::new(Mutex::new((0..n).map(|_| None).collect()));
    let mut handles = Vec::new();
    for w in 0..workers.min(n) {
        let f = f.clone();
        let next = next.clone();
        let slots = slots.clone();
        let handle = thread::Builder::new()
            .name(format!("rtec-pool-{w}"))
            .spawn(move || loop {
                let i = next.fetch_add(1, Ordering::SeqCst);
                if i >= n {
                    break;
                }
                let out = f(i);
                let mut guard = slots.lock().unwrap_or_else(|e| e.into_inner());
                guard[i] = Some(out);
            })
            .expect("spawn pool worker");
        handles.push(handle);
    }
    for handle in handles {
        if let Err(payload) = handle.join() {
            panic!("pool worker panicked: {}", panic_text(&payload));
        }
    }
    let mut guard = slots.lock().unwrap_or_else(|e| e.into_inner());
    let out: Vec<T> = guard
        .iter_mut()
        .enumerate()
        .map(|(i, slot)| {
            slot.take()
                .unwrap_or_else(|| panic!("job {i} produced no result"))
        })
        .collect();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A toy segment: dispatches one tick per quantum, relays its tick
    /// count on every boundary, and records every applied envelope.
    struct Toy {
        ticks: u64,
        routes_out: Vec<u32>,
        latency: Duration,
        applied: Vec<(Time, u32, u64)>,
    }

    impl Segment for Toy {
        type Relay = u64;
        type Report = (u64, Vec<(Time, u32, u64)>);
        fn advance_to(&mut self, _t: Time) {
            self.ticks += 1;
        }
        fn collect(&mut self, now: Time, out: &mut Vec<Envelope<u64>>) {
            for &route in &self.routes_out {
                out.push(Envelope {
                    due: now + self.latency,
                    collected_at: now,
                    route,
                    payload: self.ticks,
                });
            }
        }
        fn apply(&mut self, env: Envelope<u64>) {
            self.applied.push((env.due, env.route, env.payload));
        }
        fn finish(self) -> Self::Report {
            (self.ticks, self.applied)
        }
    }

    fn toy_factories(
        n: usize,
        routing: &RoutingTable,
        latency: Duration,
    ) -> Vec<impl FnOnce() -> Toy + Send + 'static> {
        (0..n)
            .map(|i| {
                let routes_out: Vec<u32> = (0..routing.routes() as u32)
                    .filter(|&r| routing.source(r) == i)
                    .collect();
                move || Toy {
                    ticks: 0,
                    routes_out,
                    latency,
                    applied: Vec::new(),
                }
            })
            .collect()
    }

    fn ring(n: usize) -> RoutingTable {
        let mut rt = RoutingTable::new(n);
        for i in 0..n {
            rt.add_route(i, (i + 1) % n);
        }
        rt
    }

    #[test]
    fn parallel_matches_serial_on_a_ring() {
        for n in [2usize, 3, 5] {
            let routing = ring(n);
            let cfg = WindowConfig {
                quantum: Duration::from_us(100),
                lookahead: Duration::from_us(300),
            };
            let until = Time::ZERO + Duration::from_us(2_050); // partial final boundary
            let latency = Duration::from_us(300);
            let serial = run_serial_windows::<Toy, _>(
                toy_factories(n, &routing, latency),
                &routing,
                cfg,
                until,
            );
            let par =
                run_parallel::<Toy, _>(toy_factories(n, &routing, latency), &routing, cfg, until);
            assert_eq!(serial, par.reports, "{n}-segment ring diverged");
            assert_eq!(par.stats.threads, n);
            assert!(par.stats.windows > 0);
        }
    }

    #[test]
    fn lookahead_below_quantum_is_rejected() {
        let routing = ring(2);
        let cfg = WindowConfig {
            quantum: Duration::from_us(100),
            lookahead: Duration::from_us(50),
        };
        let r = std::panic::catch_unwind(|| {
            run_serial_windows::<Toy, _>(
                toy_factories(2, &routing, Duration::from_us(50)),
                &routing,
                cfg,
                Time::ZERO + Duration::from_us(500),
            )
        });
        assert!(r.is_err(), "lookahead < quantum must be rejected");
    }

    #[test]
    fn window_width_is_floor_multiple_of_quantum() {
        let cfg = WindowConfig {
            quantum: Duration::from_us(100),
            lookahead: Duration::from_us(250),
        };
        assert_eq!(cfg.window(), Duration::from_us(200));
    }

    #[test]
    fn pool_map_returns_results_in_index_order() {
        let serial = pool_map(17, 1, |i| i * i);
        let sharded = pool_map(17, 4, |i| i * i);
        assert_eq!(serial, sharded);
        assert_eq!(sharded[13], 169);
    }
}

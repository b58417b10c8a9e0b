//! N-segment network topologies with per-edge gateway latency, runnable
//! serially or with one OS thread per segment.
//!
//! The paper assumes "publishers and subscribers are connected by a
//! channel which spans multiple networks, e.g. a field bus, a wireless
//! network and a wired wide area network" (§2.2.1). A [`Topology`]
//! holds any number of bus segments (each an independent deterministic
//! [`Network`]) joined by store-and-forward gateway routes with a
//! per-route latency. The whole topology can then be executed two
//! ways, with **byte-identical** results:
//!
//! * [`Topology::run_serial`] — all segments advance in lockstep
//!   quanta on the calling thread (the differential oracle);
//! * [`Topology::run_parallel`] — one named OS thread per segment,
//!   synchronized by conservative windows whose width is the minimum
//!   gateway latency (the PDES lookahead); see [`rtec_sim::parallel`].
//!
//! Byte identity is the contract, not an aspiration: both drivers feed
//! the same segment factories through the same
//! [`rtec_sim::parallel::Segment`] stepping discipline, and the
//! differential proptest in `crates/core/tests/parallel_vs_serial.rs`
//! holds their traces, delivery logs, and audit verdicts equal over
//! random topologies, seeds, and fault plans.
//!
//! Relays are republished on SRT channels under the gateway's node
//! identity: HRT guarantees stay segment-local (the gateway cannot
//! extend a segment's HRT reservation across the boundary), and a
//! far-side origin filter can exclude the gateway — §2.2.1's "same
//! network" filter.

use crate::channel::{ChannelSpec, SrtSpec, SubscribeSpec};
use crate::event::{Event, EventQueue, Subject};
use crate::network::{Network, NetworkConfig};
use rtec_can::NodeId;
use rtec_sim::parallel::{
    run_parallel, run_serial_windows, Envelope, ParallelStats, RoutingTable, Segment, WindowConfig,
};
use rtec_sim::{Duration, Time, TraceEvent};

/// A delivery crossing a segment boundary: the payload type of the
/// topology's [`Envelope`]s.
struct Relay {
    /// Subject republished on the target segment.
    subject: Subject,
    /// The relayed event. Per-segment timing attributes are stripped
    /// when it is republished (they do not survive the hop).
    event: Event,
}

/// A one-shot setup closure run against a segment's network at build
/// time (announce/subscribe/schedule publishers).
type SetupFn = Box<dyn FnOnce(&mut Network) + Send>;
/// A one-shot probe closure run after the horizon; its bytes go into
/// the segment report verbatim (the drivers must agree on them).
type ProbeFn = Box<dyn FnOnce(&mut Network) -> Vec<u8> + Send>;

/// Per-segment definition collected by the [`Topology`] builder.
struct SegmentDef {
    config: NetworkConfig,
    gateway: NodeId,
    setup: Vec<SetupFn>,
    probe: Option<ProbeFn>,
}

/// One gateway route between two segments. `ingress` is the gateway's
/// node identity on the source segment (it subscribes there); `egress`
/// its identity on the target segment (it announces and republishes
/// there). On a multi-hop segment the two directions must use
/// *different* node identities, because CAN controllers never receive
/// their own frames.
#[derive(Clone)]
struct RouteDef {
    subject: Subject,
    from: usize,
    to: usize,
    ingress: NodeId,
    egress: NodeId,
    latency: Duration,
    spec: SrtSpec,
}

/// Result of running one segment to the horizon.
#[derive(Clone, Debug, PartialEq)]
pub struct SegmentReport {
    /// Engine events dispatched on this segment.
    pub dispatched: u64,
    /// The segment's full structured trace.
    pub trace: Vec<TraceEvent>,
    /// Trace records dropped by the ring (0 in a healthy run).
    pub trace_dropped: u64,
    /// Events forwarded per global route index (0 for routes that do
    /// not originate on this segment).
    pub forwarded: Vec<u64>,
    /// Output of the segment's probe closure (empty if none was set).
    pub probe: Vec<u8>,
}

/// Result of running a whole topology.
#[derive(Debug)]
pub struct TopologyReport {
    /// Per-segment reports, in segment index order.
    pub segments: Vec<SegmentReport>,
    /// Thread/barrier accounting — `None` for serial runs.
    pub parallel: Option<ParallelStats>,
}

impl TopologyReport {
    /// Total engine events dispatched across all segments.
    pub fn total_dispatched(&self) -> u64 {
        self.segments.iter().map(|s| s.dispatched).sum()
    }

    /// Events forwarded on a global route.
    pub fn forwarded(&self, route: u32) -> u64 {
        self.segments
            .iter()
            .map(|s| s.forwarded.get(route as usize).copied().unwrap_or(0))
            .sum()
    }

    /// All segment traces merged on one time axis, each event's source
    /// prefixed with `segN.` — the form the conformance auditor
    /// consumes for multi-segment invariant checks. The merge is a
    /// stable sort by time, so same-instant events keep segment-index
    /// order and the result is identical for serial and parallel runs.
    pub fn merged_trace(&self) -> Vec<TraceEvent> {
        let mut merged: Vec<TraceEvent> = Vec::new();
        for (i, seg) in self.segments.iter().enumerate() {
            merged.extend(seg.trace.iter().map(|ev| {
                let mut ev = ev.clone();
                ev.source = format!("seg{i}.{}", ev.source);
                ev
            }));
        }
        merged.sort_by_key(|ev| ev.time);
        merged
    }
}

/// A live topology segment: a [`Network`] plus its gateway's relay
/// endpoints, stepped by the window drivers of [`rtec_sim::parallel`].
struct GatewaySegment {
    net: Network,
    sink: rtec_sim::TraceSink,
    /// Outgoing routes, ascending global route id.
    out_routes: Vec<OutRoute>,
    /// Egress gateway identity per global route id (used when an
    /// inbound envelope is republished here).
    egress: Vec<NodeId>,
    forwarded: Vec<u64>,
    probe: Option<ProbeFn>,
}

struct OutRoute {
    id: u32,
    subject: Subject,
    queue: EventQueue,
    latency: Duration,
}

impl Segment for GatewaySegment {
    type Relay = Relay;
    type Report = SegmentReport;

    fn advance_to(&mut self, t: Time) {
        self.net.run_until(t);
    }

    fn collect(&mut self, now: Time, out: &mut Vec<Envelope<Relay>>) {
        for route in &mut self.out_routes {
            for delivery in route.queue.drain() {
                out.push(Envelope {
                    due: delivery.wire_completed_at + route.latency,
                    collected_at: now,
                    route: route.id,
                    payload: Relay {
                        subject: route.subject,
                        event: delivery.event,
                    },
                });
                self.forwarded[route.id as usize] += 1;
            }
        }
    }

    fn apply(&mut self, env: Envelope<Relay>) {
        let Relay { subject, mut event } = env.payload;
        event.attributes.deadline = None;
        event.attributes.expiration = None;
        let egress = self.egress[env.route as usize];
        let _ = self.net.api().publish(egress, subject, event);
    }

    fn finish(mut self) -> SegmentReport {
        let probe = match self.probe.take() {
            Some(p) => p(&mut self.net),
            None => Vec::new(),
        };
        SegmentReport {
            dispatched: self.net.dispatched(),
            trace: self.sink.events(),
            trace_dropped: self.sink.dropped(),
            forwarded: self.forwarded,
            probe,
        }
    }
}

/// Builder for an N-segment topology. See the module docs.
///
/// ```
/// use rtec_core::prelude::*;
/// use rtec_core::topology::Topology;
///
/// let mut topo = Topology::new();
/// let field = topo.add_segment(
///     NetworkConfig { nodes: 3, ..NetworkConfig::default() },
///     NodeId(2),
/// );
/// let backbone = topo.add_segment(
///     NetworkConfig { nodes: 2, ..NetworkConfig::default() },
///     NodeId(1),
/// );
/// let speed = Subject::new(0x100);
/// topo.setup(field, move |net| {
///     let mut api = net.api();
///     api.announce(NodeId(0), speed, ChannelSpec::srt(SrtSpec::default()))
///         .unwrap();
/// });
/// topo.forward(speed, field, backbone, Duration::from_us(400), SrtSpec::default());
/// let report = topo.run_parallel(Time::from_ms(50));
/// assert_eq!(report.segments.len(), 2);
/// ```
pub struct Topology {
    quantum: Duration,
    segments: Vec<SegmentDef>,
    routes: Vec<RouteDef>,
}

impl Default for Topology {
    fn default() -> Self {
        Topology::new()
    }
}

impl Topology {
    /// An empty topology with the standard 100 µs lockstep quantum.
    pub fn new() -> Self {
        Topology {
            quantum: Duration::from_us(100),
            segments: Vec::new(),
            routes: Vec::new(),
        }
    }

    /// Add a bus segment; `gateway` is the node identity the topology's
    /// gateway uses on this segment (it must be a valid node index in
    /// `config`). Returns the segment index.
    pub fn add_segment(&mut self, config: NetworkConfig, gateway: NodeId) -> usize {
        self.segments.push(SegmentDef {
            config,
            gateway,
            setup: Vec::new(),
            probe: None,
        });
        self.segments.len() - 1
    }

    /// Register a setup closure for a segment: runs on the segment's
    /// own network (and, under [`Topology::run_parallel`], on the
    /// segment's own thread) before any route endpoints are created.
    /// Closures run in registration order.
    pub fn setup(&mut self, seg: usize, f: impl FnOnce(&mut Network) + Send + 'static) {
        self.segments[seg].setup.push(Box::new(f));
    }

    /// Register the segment's probe: runs once after the horizon is
    /// reached and its byte output lands in
    /// [`SegmentReport::probe`]. Use it to extract delivery logs or
    /// counters that must be compared across serial/parallel runs.
    /// At most one probe per segment; a second registration replaces
    /// the first.
    pub fn probe(&mut self, seg: usize, f: impl FnOnce(&mut Network) -> Vec<u8> + Send + 'static) {
        self.segments[seg].probe = Some(Box::new(f));
    }

    /// Forward `subject` from segment `from` to segment `to` through
    /// the segments' default gateway identities, with the given
    /// store-and-forward `latency` (must be ≥ the 100 µs quantum — it
    /// is the conservative lookahead). Returns the global route index.
    pub fn forward(
        &mut self,
        subject: Subject,
        from: usize,
        to: usize,
        latency: Duration,
        spec: SrtSpec,
    ) -> u32 {
        let ingress = self.segments[from].gateway;
        let egress = self.segments[to].gateway;
        self.forward_via(subject, from, to, ingress, egress, latency, spec)
    }

    /// Like [`Topology::forward`], but with explicit gateway node
    /// identities: `ingress` subscribes on `from`, `egress` announces
    /// and republishes on `to`. Needed when a segment is an
    /// intermediate hop — the node republishing *into* it must differ
    /// from the node subscribing *out* of it, because CAN controllers
    /// never receive their own frames.
    #[allow(clippy::too_many_arguments)]
    pub fn forward_via(
        &mut self,
        subject: Subject,
        from: usize,
        to: usize,
        ingress: NodeId,
        egress: NodeId,
        latency: Duration,
        spec: SrtSpec,
    ) -> u32 {
        assert!(
            from < self.segments.len() && to < self.segments.len(),
            "segment oob"
        );
        assert_ne!(from, to, "route must cross a segment boundary");
        assert!(
            latency >= self.quantum,
            "gateway latency below the lockstep quantum"
        );
        self.routes.push(RouteDef {
            subject,
            from,
            to,
            ingress,
            egress,
            latency,
            spec,
        });
        (self.routes.len() - 1) as u32
    }

    /// The conservative lookahead: the minimum gateway latency over
    /// all routes (unbounded if the topology has no routes — the
    /// segments are then fully independent).
    pub fn lookahead(&self) -> Duration {
        self.routes
            .iter()
            .map(|r| r.latency)
            .min()
            .unwrap_or(Duration::MAX)
    }

    fn window_config(&self) -> WindowConfig {
        WindowConfig {
            quantum: self.quantum,
            lookahead: self.lookahead(),
        }
    }

    fn routing(&self) -> RoutingTable {
        let mut rt = RoutingTable::new(self.segments.len());
        for r in &self.routes {
            rt.add_route(r.from, r.to);
        }
        rt
    }

    /// Consume the builder into one factory closure per segment. Each
    /// factory builds its network, runs the setup closures, then
    /// creates the gateway's route endpoints in global route order —
    /// on whatever thread the driver calls it from.
    fn factories(self) -> Vec<Box<dyn FnOnce() -> GatewaySegment + Send>> {
        let routes = self.routes;
        let n_routes = routes.len();
        self.segments
            .into_iter()
            .enumerate()
            .map(|(i, def)| {
                let SegmentDef {
                    config,
                    gateway: _,
                    setup,
                    probe,
                } = def;
                let routes = routes.clone();
                let factory: Box<dyn FnOnce() -> GatewaySegment + Send> = Box::new(move || {
                    let mut net = Network::with_config(config);
                    let sink = net.enable_trace();
                    for f in setup {
                        f(&mut net);
                    }
                    let mut out_routes = Vec::new();
                    for (id, r) in routes.iter().enumerate() {
                        if r.to == i {
                            let mut api = net.api();
                            api.announce(r.egress, r.subject, ChannelSpec::srt(r.spec))
                                .expect("announce relay channel on target segment");
                        }
                        if r.from == i {
                            let mut api = net.api();
                            let queue = api
                                .subscribe(r.ingress, r.subject, SubscribeSpec::default())
                                .expect("subscribe gateway on source segment");
                            out_routes.push(OutRoute {
                                id: id as u32,
                                subject: r.subject,
                                queue,
                                latency: r.latency,
                            });
                        }
                    }
                    GatewaySegment {
                        net,
                        sink,
                        out_routes,
                        egress: routes.iter().map(|r| r.egress).collect(),
                        forwarded: vec![0; n_routes],
                        probe,
                    }
                });
                factory
            })
            .collect()
    }

    /// Run every segment in lockstep quanta on the calling thread —
    /// the differential oracle for [`Topology::run_parallel`].
    pub fn run_serial(self, until: Time) -> TopologyReport {
        let routing = self.routing();
        let cfg = self.window_config();
        let segments = run_serial_windows(self.factories(), &routing, cfg, until);
        TopologyReport {
            segments,
            parallel: None,
        }
    }

    /// Run one named OS thread per segment, synchronized by
    /// conservative windows. Byte-identical to [`Topology::run_serial`]
    /// (the differential proptest enforces this).
    pub fn run_parallel(self, until: Time) -> TopologyReport {
        let routing = self.routing();
        let cfg = self.window_config();
        let run = run_parallel(self.factories(), &routing, cfg, until);
        TopologyReport {
            segments: run.reports,
            parallel: Some(run.stats),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A three-segment line: field → backbone → wan, one publisher on
    /// the field bus, subscribers at every hop. Serial and parallel
    /// runs must agree byte-for-byte.
    fn line_topology() -> Topology {
        let cfg = |nodes: usize, seed: u64| NetworkConfig {
            nodes,
            seed,
            ..NetworkConfig::default()
        };
        let mut topo = Topology::new();
        let field = topo.add_segment(cfg(3, 7), NodeId(2));
        let backbone = topo.add_segment(cfg(3, 8), NodeId(2));
        let wan = topo.add_segment(cfg(2, 9), NodeId(1));
        let speed = Subject::new(0x100);
        topo.setup(field, move |net| {
            {
                let mut api = net.api();
                api.announce(NodeId(0), speed, ChannelSpec::srt(SrtSpec::default()))
                    .unwrap();
            }
            net.every(Duration::from_ms(2), Duration::from_us(500), move |api| {
                let _ = api.publish(NodeId(0), speed, Event::new(speed, vec![1, 2, 3]));
            });
        });
        topo.setup(backbone, move |net| {
            // The middleware keeps its own handle on the shared queue,
            // so dropping ours does not unsubscribe; deliveries are
            // observed via the trace.
            let _ = net
                .api()
                .subscribe(NodeId(0), speed, SubscribeSpec::default())
                .unwrap();
        });
        topo.probe(wan, move |net| {
            let q = net
                .api()
                .subscribe(NodeId(0), speed, SubscribeSpec::default())
                .unwrap();
            // Probe runs post-horizon: the queue subscribes too late to
            // see traffic; encode the segment's dispatch count instead.
            let mut out = net.dispatched().to_le_bytes().to_vec();
            out.extend((q.len() as u64).to_le_bytes());
            out
        });
        // Backbone is an intermediate hop: the node republishing into
        // it (route 0 egress, node 2) must differ from the node
        // subscribing out of it (route 1 ingress, node 1).
        topo.forward_via(
            speed,
            field,
            backbone,
            NodeId(2),
            NodeId(2),
            Duration::from_us(400),
            SrtSpec::default(),
        );
        topo.forward_via(
            speed,
            backbone,
            wan,
            NodeId(1),
            NodeId(1),
            Duration::from_us(700),
            SrtSpec::default(),
        );
        topo
    }

    #[test]
    fn serial_and_parallel_agree_on_a_line() {
        let until = Time::from_ms(40);
        let serial = line_topology().run_serial(until);
        let parallel = line_topology().run_parallel(until);
        assert_eq!(serial.segments, parallel.segments);
        assert!(serial.total_dispatched() > 0);
        assert!(serial.forwarded(0) > 0, "field→backbone route never fired");
        assert!(serial.forwarded(1) > 0, "backbone→wan route never fired");
        let stats = parallel.parallel.expect("parallel stats");
        assert_eq!(stats.threads, 3);
        assert!(stats.windows > 0);
    }

    #[test]
    fn merged_trace_is_time_ordered_and_prefixed() {
        let report = line_topology().run_serial(Time::from_ms(10));
        let merged = report.merged_trace();
        assert!(!merged.is_empty());
        assert!(merged.windows(2).all(|w| w[0].time <= w[1].time));
        assert!(merged.iter().all(|ev| ev.source.starts_with("seg")));
    }

    #[test]
    fn lookahead_is_min_route_latency() {
        let topo = line_topology();
        assert_eq!(topo.lookahead(), Duration::from_us(400));
    }
}

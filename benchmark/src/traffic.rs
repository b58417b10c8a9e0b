//! Benchmark-owned [`Behavior`]s for the live cluster: seeded periodic
//! publishers and a probing subscriber, shared by the `live-*` and
//! `gw-*` workloads.
//!
//! Each publisher keeps a side table `sequence → bus time of the
//! publish call` (and, in a traced repetition, the wall time too). The
//! consumer side reads the sequence back from the payload, so
//! publish→delivery latency is a join of two benchmark-side tables and
//! nothing but seeded bytes ever crosses the bus.

use crate::inputs::{self, Source, HRT_SUBJECT, RT_PAYLOAD};
use crate::metrics::Metrics;
use crate::spans::Probe;
use crate::stats::{Fnv, Percentiles};
use crate::workloads::Rep;
use rtec_core::channel::{ChannelClass, ChannelSpec, HrtSpec, NrtSpec, SrtSpec};
use rtec_core::event::{Delivery, Event};
use rtec_live::cluster::{Cluster, LiveReport};
use rtec_live::node::{Behavior, NodeCtx};
use rtec_sim::Duration;
use std::sync::{Arc, Mutex};

/// `NodeCtx::publish` calls and probe deliveries are recorded as spans
/// (and publish calls timed) one in this many.
pub const SPAN_SAMPLING: u32 = 16;

/// What one publisher observed, indexed by sequence number.
#[derive(Default)]
pub struct SourceLog {
    /// Bus time of each publish call; `u64::MAX` marks a refused one.
    pub bus_ns: Vec<u64>,
    /// Wall time (tracer clock) of each publish call; traced only.
    pub wall_ns: Vec<u64>,
    /// Durations of the sampled `NodeCtx::publish` calls; traced only.
    pub publish_call_ns: Vec<u64>,
}

/// A log its behavior fills locally and hands over when the node
/// thread drops it — before `Cluster::run_for` returns.
pub type Shared<T> = Arc<Mutex<T>>;

/// Move a behavior's local log into its shared slot (from `Drop`).
pub fn hand_over<T: Default>(shared: &Shared<T>, local: &mut T) {
    *shared.lock().expect("handed over once, by the node thread") = std::mem::take(local);
}

/// The HRT channel every bus workload carries: 8 bytes every 10 ms,
/// tolerating two omissions.
pub const HRT_SOURCE: Source = Source {
    subject: HRT_SUBJECT,
    period: Duration::from_ms(10),
    len: RT_PAYLOAD,
};

/// The channel attributes a source is announced with.
pub fn spec_of(src: &Source) -> ChannelSpec {
    if src.subject == HRT_SUBJECT {
        ChannelSpec::Hrt(HrtSpec::periodic_10ms())
    } else if src.len > RT_PAYLOAD {
        ChannelSpec::Nrt(NrtSpec::bulk())
    } else {
        ChannelSpec::Srt(SrtSpec::default())
    }
}

/// A periodic publisher of seeded payloads.
pub struct Publisher {
    src: Source,
    seed: u64,
    seq: u32,
    probe: Option<Probe>,
    log: SourceLog,
    shared: Shared<SourceLog>,
}

impl Publisher {
    fn publish(&mut self, ctx: &mut NodeCtx<'_>) {
        let s = &self.src;
        let event = Event::new(
            s.subject,
            inputs::payload(self.seed, s.subject, self.seq, s.len),
        );
        let bus_ns = ctx.now().as_ns();
        let accepted = match self.probe {
            None => ctx.publish(event).is_ok(),
            Some(p) => {
                let t0 = p.tracer.now_ns();
                let accepted = ctx.publish(event).is_ok();
                let t1 = p.tracer.now_ns();
                self.log.wall_ns.push(t0);
                if self.seq.is_multiple_of(SPAN_SAMPLING) {
                    let event = Some((s.subject.uid(), self.seq));
                    p.tracer.record("NodeCtx::publish", p.parent, t0, t1, event);
                    self.log.publish_call_ns.push(t1 - t0);
                }
                accepted
            }
        };
        self.log
            .bus_ns
            .push(if accepted { bus_ns } else { u64::MAX });
        self.seq += 1;
    }
}

impl Behavior for Publisher {
    fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
        let first = if self.src.subject == HRT_SUBJECT {
            // Round 0's event is staged at once; later ones just ahead
            // of each slot, as the calendar dictates.
            self.publish(ctx);
            let (at, _) = ctx
                .hrt_stage_schedule(HRT_SUBJECT)
                .expect("the HRT publication has a slot");
            at
        } else {
            ctx.now() + inputs::phase(self.seed, self.src.subject, self.src.period)
        };
        ctx.set_timer(first, 0).expect("arm first publish");
    }

    fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, _payload: u64) {
        self.publish(ctx);
        ctx.set_timer(ctx.now() + self.src.period, 0)
            .expect("arm next publish");
    }
}

impl Drop for Publisher {
    fn drop(&mut self) {
        hand_over(&self.shared, &mut self.log);
    }
}

/// `(origin node, sequence, wall ns)` of each delivery a probing
/// subscriber saw.
pub type DeliveryLog = Vec<(u8, u32, u64)>;

/// A subscriber that stamps the wall time of every delivery (traced
/// repetitions) or does nothing at all (untraced: the cluster's own
/// delivery log carries every bus-time fact).
pub struct Subscriber {
    probe: Option<Probe>,
    log: DeliveryLog,
    shared: Shared<DeliveryLog>,
}

impl Subscriber {
    /// A subscriber and the log it hands over when its node ends.
    pub fn new(probe: Option<Probe>) -> (Subscriber, Shared<DeliveryLog>) {
        let shared = Shared::default();
        let sub = Subscriber {
            probe,
            log: Vec::new(),
            shared: Arc::clone(&shared),
        };
        (sub, shared)
    }
}

impl Behavior for Subscriber {
    fn on_delivery(&mut self, _ctx: &mut NodeCtx<'_>, delivery: &Delivery) {
        let Some(p) = self.probe else { return };
        let origin = delivery.event.attributes.origin.map_or(u8::MAX, |n| n.0);
        if let Some(seq) = inputs::seq_of(&delivery.event.content) {
            self.log.push((origin, seq, p.tracer.now_ns()));
        }
    }
}

impl Drop for Subscriber {
    fn drop(&mut self) {
        hand_over(&self.shared, &mut self.log);
    }
}

/// One publisher node of a built cluster.
pub struct SourceNode {
    /// Its node id.
    pub node: u8,
    /// What it publishes.
    pub src: Source,
    /// Its log, filled when the run ends.
    pub log: Shared<SourceLog>,
}

/// Add one node per source to `cluster` (HRT first), each publishing
/// its subject; returns them in node order.
pub fn add_publishers(
    cluster: &mut Cluster,
    seed: u64,
    sources: &[Source],
    probe: Option<Probe>,
) -> Vec<SourceNode> {
    sources
        .iter()
        .map(|&src| {
            let shared: Shared<SourceLog> = Shared::default();
            let node = cluster.add_node(Box::new(Publisher {
                src,
                seed,
                seq: 0,
                probe,
                log: SourceLog::default(),
                shared: Arc::clone(&shared),
            }));
            cluster.publish(node, src.subject, spec_of(&src));
            SourceNode {
                node,
                src,
                log: shared,
            }
        })
        .collect()
}

/// The bus-time facts of one run, read off the cluster's delivery log
/// at one consumer node.
pub struct BusFacts {
    /// Deliveries the consumer received, all classes.
    pub deliveries: u64,
    /// HRT events among them.
    pub hrt_delivered: u64,
    /// Peak-to-peak spread of the HRT inter-delivery spacing.
    pub hrt_jitter_ns: u64,
    /// Publish→delivery latencies of every SRT delivery, bus ns.
    pub srt: Percentiles,
    /// FNV over every record of the log, all nodes.
    pub digest: Fnv,
}

/// Publish→delivery wall latencies of a traced run, joined by
/// `(origin, sequence)`; every [`SPAN_SAMPLING`]-th one becomes a span.
pub fn wall_latencies(nodes: &[SourceNode], seen: &DeliveryLog, probe: Probe) -> Vec<u64> {
    let mut out = Vec::with_capacity(seen.len());
    for &(origin, seq, at) in seen {
        let Some(n) = nodes.iter().find(|n| n.node == origin) else {
            continue;
        };
        let log = n.log.lock().expect("publisher handed its log over");
        let Some(&published) = log.wall_ns.get(seq as usize) else {
            continue;
        };
        out.push(at.saturating_sub(published));
        if seq % SPAN_SAMPLING == 0 {
            let event = Some((n.src.subject.uid(), seq));
            probe
                .tracer
                .record("publish->on_delivery", probe.parent, published, at, event);
        }
    }
    out
}

impl BusFacts {
    /// The consumer-visible bus-time metrics.
    pub fn report(&self, m: &mut Metrics) {
        m.set("hrt_jitter_ns", self.hrt_jitter_ns as f64);
        m.set("srt_p99_bus_us", self.srt.tail().1 as f64 / 1e3);
        m.set("srt_samples", self.srt.count() as f64);
    }
}

/// Read the log of a `run`-long run at `consumer` and check it: no
/// refused publish, no duplicate, reordered or missing event on any
/// channel, HRT complete up to the horizon.
pub fn bus_facts(
    report: &LiveReport,
    consumer: u8,
    nodes: &[SourceNode],
    run: Duration,
    out: &mut Rep,
) -> BusFacts {
    let mut digest = Fnv::new();
    for r in &report.log {
        for w in [
            u64::from(r.node),
            u64::from(r.etag),
            u64::from(r.origin),
            r.wire_ns,
            r.delivered_ns,
        ] {
            digest.word(w);
        }
        digest.bytes(&r.bytes);
    }
    let mut facts = BusFacts {
        deliveries: 0,
        hrt_delivered: 0,
        hrt_jitter_ns: 0,
        srt: Percentiles::new(Vec::new()),
        digest,
    };
    let mut srt_latency = Vec::new();
    for n in nodes {
        let log = n.log.lock().expect("publisher handed its log over");
        let refused = log.bus_ns.iter().filter(|&&t| t == u64::MAX).count();
        if refused > 0 {
            out.fail(format!("{:?}: {refused} publishes refused", n.src.subject));
        }
        let mut next = 0u32;
        let mut disorder = 0u64;
        let mut last_at = None;
        let (mut gap_lo, mut gap_hi) = (u64::MAX, 0u64);
        for r in report
            .log
            .iter()
            .filter(|r| r.node == consumer && r.origin == n.node)
        {
            let seq = inputs::seq_of(&r.bytes).unwrap_or(u32::MAX);
            if seq != next {
                disorder += 1;
            }
            next = seq.wrapping_add(1);
            facts.deliveries += 1;
            match r.class {
                ChannelClass::Hrt => {
                    facts.hrt_delivered += 1;
                    if let Some(prev) = last_at {
                        gap_lo = gap_lo.min(r.delivered_ns - prev);
                        gap_hi = gap_hi.max(r.delivered_ns - prev);
                    }
                    last_at = Some(r.delivered_ns);
                }
                ChannelClass::Srt => {
                    if let Some(&at) = log.bus_ns.get(seq as usize) {
                        srt_latency.push(r.delivered_ns.saturating_sub(at));
                    }
                }
                ChannelClass::Nrt => {}
            }
        }
        if disorder > 0 {
            out.fail(format!(
                "{:?}: {disorder} deliveries missing, duplicated or out of order",
                n.src.subject
            ));
        }
        // What was published but not delivered may only be the tail
        // still queued or on the wire at the horizon.
        let tail = log.bus_ns.len() as u64 - u64::from(next);
        let allowed = if n.src.len > RT_PAYLOAD { 2 } else { 16 };
        if tail > allowed {
            out.fail(format!(
                "{:?}: {tail} of {} published events undelivered at the horizon",
                n.src.subject,
                log.bus_ns.len()
            ));
        }
        if n.src.subject == HRT_SUBJECT && gap_hi >= gap_lo {
            facts.hrt_jitter_ns = gap_hi - gap_lo;
        }
    }
    facts.srt = Percentiles::new(srt_latency);
    // Round 0's slot may open after the run's first period has begun.
    let rounds = (run.as_ns() / HRT_SOURCE.period.as_ns()).saturating_sub(1);
    if facts.hrt_delivered < rounds {
        out.fail(format!(
            "HRT delivered {} of {rounds} rounds",
            facts.hrt_delivered
        ));
    }
    facts
}

//! `sim-stack`: the paper's own mechanism (`rtec_core::Network`) in
//! clean steady state on a near-saturated wire — no faults, no trace,
//! no audit. One HRT channel (10 ms), four SRT channels (800 µs each,
//! ≈ 70 % of the wire) and two NRT bulk channels (240 B every 60 ms
//! each, ≈ 23 %), eight nodes, 60 s of bus time per repetition.
//!
//! It runs the same layers as `paper-sweep` (sim, can, core) used
//! differently, so a change that speeds this path by slowing the fault
//! or trace path shows there as a regression.

use super::{Rep, RepCfg};
use crate::inputs::{self, Source, HRT_SUBJECT, RT_PAYLOAD};
use crate::kernels::Kernels;
use crate::metrics::Metrics;
use crate::proc::Usage;
use crate::stats::{Fnv, Percentiles};
use crate::traffic::{spec_of, HRT_SOURCE};
use rtec_bench::parallel_perf::cpu_cores;
use rtec_core::prelude::*;
use rtec_core::topology::Topology;
use rtec_sim::telemetry;
use std::time::Instant;

/// Bus time of one full repetition.
const HORIZON: Duration = Duration::from_secs(60);
const SRT_PERIOD: Duration = Duration::from_us(800);
const NRT_PERIOD: Duration = Duration::from_ms(60);
const SRT_COUNT: usize = 4;
const NRT_COUNT: usize = 2;
/// Node 0 publishes HRT, nodes 1..=6 one SRT/NRT source each, node 7
/// subscribes to everything.
const NODES: usize = 2 + SRT_COUNT + NRT_COUNT;
const SUBSCRIBER: NodeId = NodeId((NODES - 1) as u8);
/// The HRT application stages its event this long after each round
/// start — well before the slot's latest ready time. Its timing is
/// dictated by the calendar, not by the seed.
const HRT_STAGE_OFFSET: Duration = Duration::from_us(100);

/// The SRT and NRT sources, in node order (node `1 + index`).
fn sources() -> Vec<Source> {
    let mut s = inputs::srt_sources(SRT_COUNT, SRT_PERIOD);
    s.extend(inputs::nrt_sources(NRT_COUNT, NRT_PERIOD));
    s
}

/// Announce, subscribe and schedule the whole workload on `net`. HRT
/// lives on `hrt_node`, source `i` on `first_source_node + i`, and all
/// are delivered to `subscriber`.
fn install(
    net: &mut Network,
    seed: u64,
    srcs: &[Source],
    hrt_node: Option<NodeId>,
    first_source_node: u8,
    subscriber: NodeId,
) {
    let mut queues = Vec::new();
    {
        let mut api = net.api();
        if let Some(node) = hrt_node {
            api.announce(node, HRT_SUBJECT, spec_of(&HRT_SOURCE))
                .expect("announce HRT");
            queues.push(
                api.subscribe(subscriber, HRT_SUBJECT, SubscribeSpec::default())
                    .expect("subscribe HRT"),
            );
            api.install_calendar()
                .expect("one slot per round is admissible");
        }
        for (i, src) in srcs.iter().enumerate() {
            api.announce(
                NodeId(first_source_node + i as u8),
                src.subject,
                spec_of(src),
            )
            .expect("announce source");
            queues.push(
                api.subscribe(subscriber, src.subject, SubscribeSpec::default())
                    .expect("subscribe source"),
            );
        }
    }
    for (i, src) in srcs.iter().enumerate() {
        let (src, node) = (*src, NodeId(first_source_node + i as u8));
        let mut seq = 0u32;
        net.every(
            src.period,
            inputs::phase(seed, src.subject, src.period),
            move |api| {
                let event = Event::new(
                    src.subject,
                    inputs::payload(seed, src.subject, seq, src.len),
                );
                // A refusal shows as published < expected in the checks.
                let _ = api.publish(node, src.subject, event);
                seq += 1;
            },
        );
    }
    // The application side of the subscriber: take what the middleware
    // queued, once a round, so the queues stay at steady-state depth.
    let mut seq = 0u32;
    net.every(HRT_SOURCE.period, HRT_STAGE_OFFSET, move |api| {
        if let Some(node) = hrt_node {
            let event = Event::new(
                HRT_SUBJECT,
                inputs::payload(seed, HRT_SUBJECT, seq, RT_PAYLOAD),
            );
            let _ = api.publish(node, HRT_SUBJECT, event);
            seq += 1;
        }
        for q in &queues {
            while q.pop().is_some() {}
        }
    });
}

fn build(seed: u64) -> Network {
    let mut net = Network::builder().nodes(NODES).seed(seed).build();
    install(&mut net, seed, &sources(), Some(NodeId(0)), 1, SUBSCRIBER);
    net
}

/// One repetition.
pub fn rep(cfg: &RepCfg) -> Rep {
    let run = cfg.horizon(HORIZON);
    let mut net = build(cfg.seed);
    let sink = cfg.probe.map(|_| net.enable_trace());

    telemetry::reset();
    let before = Usage::now();
    let wall = Instant::now();
    match cfg.probe {
        Some(p) => p
            .tracer
            .span("Network::run_for", p.parent, |_| net.run_for(run)),
        None => net.run_for(run),
    }
    let wall_s = wall.elapsed().as_secs_f64();
    let usage = Usage::now().since(&before);
    let engine = telemetry::snapshot();

    let mut out = Rep {
        wall_s,
        ops: net.dispatched(),
        usage,
        ..Rep::default()
    };
    summarize(&net, cfg.seed, run, engine.peak_pending, &mut out);

    if let (Some(sink), Some(p)) = (sink, cfg.probe) {
        let started = Instant::now();
        let report = p.tracer.span("conformance::check_network", p.parent, |_| {
            rtec_conformance::check_network(&net, &sink)
        });
        let audit_s = started.elapsed().as_secs_f64();
        for e in report.errors() {
            out.fail(format!("audit: {e:?}"));
        }
        out.layer.set("conformance.records", sink.len() as f64);
        out.layer.set("conformance.audit_s", audit_s);
        out.layer.set(
            "conformance.audit_ns_per_record",
            audit_s * 1e9 / sink.len().max(1) as f64,
        );
    }
    out
}

/// Counts, bus-time metrics, the digest and the delivery checks.
fn summarize(net: &Network, seed: u64, run: Duration, peak_queue: usize, out: &mut Rep) {
    let stats = net.stats();
    let bus = net.world().bus.stats;
    let etag = |s: Subject| net.world().registry().etag_of(s).expect("subject bound");

    let hrt = stats.channel(etag(HRT_SUBJECT));
    // The first slot opens one calendar-start delay after t = 0 and
    // delivery happens at the slot deadline, inside the same round.
    let rounds = (run.as_ns() - net.world().config().calendar_start_delay.as_ns())
        / HRT_SOURCE.period.as_ns();
    if hrt.delivered < rounds.saturating_sub(1) || hrt.delivered > rounds + 1 {
        out.fail(format!(
            "HRT delivered {} of ~{rounds} rounds",
            hrt.delivered
        ));
    }
    if hrt.missing_events + hrt.not_ready + hrt.redundancy_exhausted != 0 {
        out.fail(format!(
            "HRT exceptions: {} missing, {} not ready, {} exhausted",
            hrt.missing_events, hrt.not_ready, hrt.redundancy_exhausted
        ));
    }

    let mut srt_latency = Vec::new();
    let mut digest = Fnv::new();
    let mut channels: Vec<u16> = stats.channels.keys().copied().collect();
    channels.sort_unstable();
    for e in &channels {
        let c = &stats.channels[e];
        for w in [
            u64::from(*e),
            c.published,
            c.delivered,
            c.wire_transmissions,
            c.deadline_misses,
            c.expired_drops,
            c.latency_ns.samples().iter().sum::<u64>(),
        ] {
            digest.word(w);
        }
    }
    for src in sources() {
        let c = stats.channel(etag(src.subject));
        let first = inputs::phase(seed, src.subject, src.period).as_ns();
        let expected = run.as_ns().saturating_sub(first) / src.period.as_ns();
        if c.published < expected {
            out.fail(format!(
                "{:?}: published {} of ~{expected}",
                src.subject, c.published
            ));
        }
        // At most the events still queued or on the wire at the
        // horizon are undelivered: SRT within its 10 ms deadline, bulk
        // within a few periods.
        let in_flight = if src.len > RT_PAYLOAD { 4 } else { 16 };
        if c.delivered + in_flight < c.published || c.expired_drops != 0 {
            out.fail(format!(
                "{:?}: delivered {} of {} published, {} expired",
                src.subject, c.delivered, c.published, c.expired_drops
            ));
        }
        if src.len == RT_PAYLOAD {
            srt_latency.extend_from_slice(c.latency_ns.samples());
        }
    }
    for w in [
        bus.frames_ok,
        bus.arbitrations,
        bus.busy.as_ns(),
        bus.bits_ok,
    ] {
        digest.word(w);
    }
    out.digest = digest.0;

    let srt = Percentiles::new(srt_latency);
    let m = &mut out.layer;
    m.set("hrt_jitter_ns", hrt.delivery_jitter_ns() as f64);
    m.set("srt_p99_bus_us", srt.tail().1 as f64 / 1e3);
    m.set("srt_samples", srt.count() as f64);
    m.set("sim.events", out.ops as f64);
    m.set("sim.peak_queue", peak_queue as f64);
    m.set("can.frames", bus.frames_ok as f64);
    m.set("can.bus_util", bus.utilization(run));
    m.set("core.published", stats.total_published() as f64);
    m.set("core.delivered", stats.total_delivered() as f64);
    m.set(
        "core.ns_per_delivery",
        out.wall_s * 1e9 / stats.total_delivered().max(1) as f64,
    );
}

/// Kernels under this workload's shapes, the self-time split they
/// allow, and the two-segment PDES row.
pub fn extras(cfg: &RepCfg, base: &Rep, kernels: &Kernels, out: &mut Metrics) -> Vec<String> {
    let events = base.layer.get("sim.events");
    let frames = base.layer.get("can.frames");
    let dispatch_ns = kernels.sim_dispatch_ns(base.layer.get("sim.peak_queue") as usize);
    let bus_frame_ns = kernels.can_bus_frame_ns(NODES);
    out.set("sim.dispatch_ns", dispatch_ns);
    out.set("sim.trace_record_ns", kernels.sim_trace_record_ns());
    out.set("can.bits_ns", kernels.can_bits_ns());
    out.set("can.bus_frame_ns", bus_frame_ns);
    out.set(
        "core.frag_ns_per_kib",
        kernels.core_frag_ns_per_kib(inputs::BULK_PAYLOAD),
    );
    let below = events * dispatch_ns + frames * bus_frame_ns;
    out.set(
        "core.self_ns_per_delivery",
        (base.wall_s * 1e9 - below) / base.layer.get("core.delivered").max(1.0),
    );
    pdes_row(cfg, out)
}

/// The same traffic split over a two-segment `Topology` (SRT sources
/// on one bus, NRT sources on the other, one SRT subject relayed
/// across), serial against parallel, byte-identity checked. On a host
/// with fewer than two CPUs the ratio measures barrier overhead, not
/// scaling, so it is reported as not measurable (0).
fn pdes_row(cfg: &RepCfg, out: &mut Metrics) -> Vec<String> {
    let probe = cfg.probe.expect("extras only run traced");
    if cpu_cores() < 2 {
        eprintln!("sim.pdes_ratio_2seg not-measurable (nproc < 2)");
        return Vec::new();
    }
    let seed = cfg.seed;
    let until = Time::ZERO + HORIZON / 10;
    let build = move || {
        let mut topo = Topology::new();
        let halves = [
            inputs::srt_sources(SRT_COUNT, SRT_PERIOD),
            inputs::nrt_sources(NRT_COUNT, NRT_PERIOD),
        ];
        for (seg, srcs) in halves.into_iter().enumerate() {
            // Sources on nodes 0.., then the subscriber, then the
            // relay's egress (the default gateway) and ingress nodes.
            let subscriber = NodeId(srcs.len() as u8);
            let config = NetworkConfig {
                nodes: srcs.len() + 3,
                seed: inputs::mix(seed, seg as u64, 0x5e6),
                ..NetworkConfig::default()
            };
            topo.add_segment(config, NodeId(srcs.len() as u8 + 1));
            topo.setup(seg, move |net| {
                install(net, seed, &srcs, None, 0, subscriber)
            });
        }
        topo.forward_via(
            Subject(inputs::SRT_BASE),
            0,
            1,
            NodeId(SRT_COUNT as u8 + 2),
            NodeId(NRT_COUNT as u8 + 1),
            Duration::from_ms(1),
            SrtSpec::default(),
        );
        topo
    };
    let t = Instant::now();
    let serial = probe
        .tracer
        .span("Topology::run_serial", probe.parent, |_| {
            build().run_serial(until)
        });
    let serial_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let parallel = probe
        .tracer
        .span("Topology::run_parallel", probe.parent, |_| {
            build().run_parallel(until)
        });
    let parallel_s = t.elapsed().as_secs_f64();
    out.set("sim.pdes_ratio_2seg", parallel_s / serial_s);
    // Segment reports carry each segment's whole trace, so equal
    // reports mean byte-identical merged traces.
    if serial.segments == parallel.segments {
        Vec::new()
    } else {
        vec!["parallel topology run diverged from the serial oracle".into()]
    }
}

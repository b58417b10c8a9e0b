//! `live-narrow` and `live-wide`: the threaded live runtime
//! (`rtec_live::Cluster`) over loopback under `Pace::Virtual`, trace
//! off, 2 s of bus time per repetition.
//!
//! Both offer the bus the same load — one HRT channel, one SRT event
//! every 200 µs in aggregate (≈ 68 % of the wire) and one 240-byte NRT
//! bulk event every 30 ms in aggregate (≈ 21 %) — delivered to one
//! subscriber. `narrow` packs it into 4 nodes, so per-node middleware
//! work dominates and the broker's turn is short; `wide` spreads it
//! over 32 nodes, so the broker's per-turn sweep over every node
//! dominates. The pair isolates the O(nodes) term the roadmap suspects.

use super::{Rep, RepCfg};
use crate::inputs::{self, Source};
use crate::kernels::Kernels;
use crate::metrics::Metrics;
use crate::proc::Usage;
use crate::stats::Percentiles;
use crate::traffic::{self, Subscriber, HRT_SOURCE};
use rtec_conformance::audit::{audit, AuditContext};
use rtec_live::cluster::{Cluster, ClusterConfig, LiveReport};
use rtec_live::Pace;
use rtec_sim::Duration;
use std::time::Instant;

/// Bus time of one full repetition.
const HORIZON: Duration = Duration::from_ms(2_000);
/// Aggregate SRT publish interval.
const SRT_EVERY: Duration = Duration::from_us(200);
/// Aggregate NRT bulk publish interval.
const NRT_EVERY: Duration = Duration::from_ms(30);

/// How the offered load is spread over nodes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Shape {
    /// 4 nodes: HRT, one SRT source, one NRT source, the subscriber.
    Narrow,
    /// 32 nodes: HRT, 26 SRT sources, 4 NRT sources, the subscriber.
    Wide,
}

impl Shape {
    fn sources(self) -> Vec<Source> {
        let (srt, nrt) = match self {
            Shape::Narrow => (1, 1),
            Shape::Wide => (26, 4),
        };
        let mut s = vec![HRT_SOURCE];
        s.extend(inputs::srt_sources(srt, SRT_EVERY * srt as u64));
        s.extend(inputs::nrt_sources(nrt, NRT_EVERY * nrt as u64));
        s
    }
}

/// Audit a live run's merged trace (T1–T9), timing it; failures land
/// in `out`.
pub fn audit_trace(report: &LiveReport, cfg: &RepCfg, out: &mut Rep) {
    let probe = cfg.probe.expect("audits only run traced");
    if report.trace_dropped > 0 {
        out.fail(format!(
            "trace ring dropped {} records",
            report.trace_dropped
        ));
    }
    let ctx = AuditContext::from_parts(
        (*report.calendar).clone(),
        report.calendar_start,
        report.channels.clone(),
        report.hrt_periods.clone(),
    );
    let started = Instant::now();
    let verdict = probe.tracer.span("conformance::audit", probe.parent, |_| {
        audit(&ctx, &report.trace)
    });
    let audit_s = started.elapsed().as_secs_f64();
    for e in verdict.errors() {
        out.fail(format!("audit: {e:?}"));
    }
    let records = report.trace.len();
    out.layer.set("conformance.records", records as f64);
    out.layer.set("conformance.audit_s", audit_s);
    out.layer.set(
        "conformance.audit_ns_per_record",
        audit_s * 1e9 / records.max(1) as f64,
    );
}

/// The `live.*` counters of a cluster run of `run` bus time.
pub fn live_layer(report: &LiveReport, run: Duration, wall_s: f64, usage: &Usage, m: &mut Metrics) {
    let frames = report.broker.frames_ok.max(1) as f64;
    m.set("live.frames", report.broker.frames_ok as f64);
    m.set("live.arbitrations", report.broker.arbitrations as f64);
    m.set("live.wall_ns_per_frame", wall_s * 1e9 / frames);
    m.set("live.rt_factor", run.as_secs_f64() / wall_s);
    m.set("live.nvcsw_per_frame", usage.nvcsw as f64 / frames);
    m.set("live.cpu_us_per_frame", usage.cpu_s * 1e6 / frames);
}

/// One repetition.
pub fn rep(cfg: &RepCfg, shape: Shape) -> Rep {
    let run = cfg.horizon(HORIZON);
    let mut cluster = Cluster::new(ClusterConfig {
        pace: Pace::Virtual,
        nrt_queue_cap: 256,
        trace: cfg.probe.is_some(),
        ..ClusterConfig::default()
    });
    let sources = shape.sources();
    let nodes = traffic::add_publishers(&mut cluster, cfg.seed, &sources, cfg.probe);
    let (subscriber, seen) = Subscriber::new(cfg.probe);
    let sub = cluster.add_node(Box::new(subscriber));
    for src in &sources {
        cluster.subscribe(sub, src.subject, traffic::spec_of(src));
    }

    let before = Usage::now();
    let wall = Instant::now();
    let report = match cfg.probe {
        Some(p) => p
            .tracer
            .span("Cluster::run_for", p.parent, |_| cluster.run_for(run)),
        None => cluster.run_for(run),
    }
    .expect("live run failed");
    let wall_s = wall.elapsed().as_secs_f64();
    let usage = Usage::now().since(&before);

    let mut out = Rep {
        wall_s,
        usage,
        ..Rep::default()
    };
    let facts = traffic::bus_facts(&report, sub, &nodes, run, &mut out);
    out.ops = facts.deliveries;
    out.digest = facts.digest.0;
    facts.report(&mut out.layer);
    live_layer(&report, run, wall_s, &usage, &mut out.layer);

    if let Some(probe) = cfg.probe {
        audit_trace(&report, cfg, &mut out);
        let seen = seen.lock().expect("subscriber handed its log over");
        let wall = Percentiles::new(traffic::wall_latencies(&nodes, &seen, probe));
        out.layer
            .set("live.pub_to_delivery_us_p50", wall.p50() as f64 / 1e3);
        out.layer
            .set("live.pub_to_delivery_us_p99", wall.tail().1 as f64 / 1e3);
        out.layer
            .set("live.pub_to_delivery_samples", wall.count() as f64);
        let calls: Vec<u64> = nodes
            .iter()
            .flat_map(|n| n.log.lock().expect("handed over").publish_call_ns.clone())
            .collect();
        out.layer
            .set("live.publish_ns", Percentiles::new(calls).p50() as f64);
    }
    out
}

/// Kernels of the layers under the live runtime: the bit-level frame
/// functions and the bus step it shares with the simulator's wire.
pub fn extras(kernels: &Kernels, out: &mut Metrics) -> Vec<String> {
    out.set("can.bits_ns", kernels.can_bits_ns());
    out.set(
        "core.frag_ns_per_kib",
        kernels.core_frag_ns_per_kib(inputs::BULK_PAYLOAD),
    );
    Vec::new()
}

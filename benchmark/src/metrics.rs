//! The metric vocabulary: every name the benchmark can print, with its
//! unit and direction. `BENCHMARK.json` at the repository root is
//! `rtec-benchmark manifest` written to a file; `run.sh` fails
//! when the two drift apart.

use std::collections::BTreeMap;

/// One metric definition.
pub struct Def {
    /// Name as printed.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// `true` when a larger value is better.
    pub higher_is_better: bool,
    /// Largest tolerated worsening of the median, as a share of the
    /// parent's median (end-to-end metrics only).
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, higher: bool, bound: f64) -> Def {
    Def {
        name,
        unit,
        higher_is_better: higher,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, higher: bool) -> Def {
    Def {
        name,
        unit,
        higher_is_better: higher,
        bound: 0.0,
    }
}

/// What a user of the system sees, on every workload.
pub const END_TO_END: &[Def] = &[
    e2e("ops_per_s", "1/s", true, 0.25),
    e2e("peak_rss_mb", "MiB", false, 0.15),
    e2e("setup_s", "s", false, 0.25),
];

/// What single layers do. A metric a workload does not exercise reads 0
/// there.
pub const PER_LAYER: &[Def] = &[
    // Consumer-visible timeliness in *bus time*: a pure function of the
    // seed, compared exactly between repetitions.
    layer("hrt_jitter_ns", "ns", false),
    layer("srt_p99_bus_us", "us", false),
    layer("srt_samples", "count", true),
    layer("shed_ratio", "ratio", false),
    layer("replay_coverage", "ratio", true),
    layer("sim.events", "count", false),
    layer("sim.peak_queue", "count", false),
    layer("sim.dispatch_ns", "ns", false),
    layer("sim.trace_record_ns", "ns", false),
    layer("sim.pdes_ratio_2seg", "ratio", false),
    layer("can.frames", "count", false),
    layer("can.bus_util", "ratio", true),
    layer("can.bits_ns", "ns", false),
    layer("can.bus_frame_ns", "ns", false),
    layer("core.published", "count", true),
    layer("core.delivered", "count", true),
    layer("core.ns_per_delivery", "ns", false),
    layer("core.self_ns_per_delivery", "ns", false),
    layer("core.frag_ns_per_kib", "ns", false),
    layer("bench.e1_s", "s", false),
    layer("bench.e2_s", "s", false),
    layer("bench.e3_s", "s", false),
    layer("bench.e4_s", "s", false),
    layer("bench.e5_s", "s", false),
    layer("bench.e6_s", "s", false),
    layer("bench.e7_s", "s", false),
    layer("bench.e8_s", "s", false),
    layer("bench.e9_s", "s", false),
    layer("bench.e10_s", "s", false),
    layer("bench.e11_s", "s", false),
    layer("bench.e5_events_per_s", "1/s", true),
    layer("conformance.records", "count", false),
    layer("conformance.audit_s", "s", false),
    layer("conformance.audit_ns_per_record", "ns", false),
    layer("live.frames", "count", true),
    layer("live.arbitrations", "count", false),
    layer("live.wall_ns_per_frame", "ns", false),
    layer("live.rt_factor", "ratio", true),
    layer("live.nvcsw_per_frame", "count", false),
    layer("live.cpu_us_per_frame", "us", false),
    layer("live.publish_ns", "ns", false),
    layer("live.pub_to_delivery_us_p50", "us", false),
    layer("live.pub_to_delivery_us_p99", "us", false),
    layer("live.pub_to_delivery_samples", "count", true),
    layer("gateway.ingress", "count", true),
    layer("gateway.fanout", "count", true),
    layer("gateway.delivered_msgs", "count", true),
    layer("gateway.batches", "count", true),
    layer("gateway.fragments", "count", false),
    layer("gateway.lanes_per_event", "count", false),
    layer("gateway.shed_nrt", "count", false),
    layer("gateway.shed_srt_stale", "count", false),
    layer("gateway.shed_srt_cap", "count", false),
    layer("gateway.peak_lane_occupancy", "count", false),
    layer("gateway.worker_balance", "ratio", false),
    layer("gateway.fanout_ns", "ns", false),
    layer("gateway.encode_ns", "ns", false),
    layer("gateway.decode_ns", "ns", false),
    layer("gateway.lane_ns", "ns", false),
    layer("gateway.lane_shed_ns", "ns", false),
    layer("gateway.wire_bytes_per_msg", "B", false),
    layer("gateway.goodput_ratio", "ratio", true),
    layer("gateway.delivery_to_sink_us_p50", "us", false),
    layer("gateway.delivery_to_sink_us_p99", "us", false),
    layer("gateway.delivery_to_sink_samples", "count", true),
    layer("gateway.cluster_cpu_share", "ratio", false),
    layer("gateway.resumes", "count", true),
    layer("gateway.verdict_resumed", "count", true),
    layer("gateway.verdict_gap", "count", false),
    layer("gateway.replayed_frames", "count", true),
    layer("gateway.gap_frames", "count", false),
    layer("gateway.replay_bytes", "B", false),
    layer("gateway.srt_stale_skipped", "count", false),
    layer("gateway.resume_us_p50", "us", false),
    layer("gateway.resume_us_p99", "us", false),
    layer("gateway.resume_samples", "count", true),
    layer("gateway.net_handshake_us", "us", false),
    layer("gateway.net_stream_us_p50", "us", false),
    layer("gateway.net_stream_samples", "count", true),
    layer("proc.cpu_s", "s", false),
    layer("proc.cpu_util", "ratio", false),
    layer("proc.allocs_per_op", "count", false),
    layer("proc.alloc_bytes_per_op", "B", false),
    layer("proc.trace_overhead_pct", "%", false),
    layer("proc.threads_peak", "count", false),
    layer("proc.pinned", "count", true),
];

/// Measured values by metric name.
#[derive(Clone, Debug, Default)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    /// Set `name`; the name must be one of [`PER_LAYER`].
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|d| d.name == name),
            "{name} is not a per-layer metric"
        );
        self.0.insert(name, value);
    }

    /// The value of `name`, 0 when never set.
    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    /// Copy every value of `other` in, overwriting.
    pub fn merge(&mut self, other: &Metrics) {
        for (k, v) in &other.0 {
            self.0.insert(k, *v);
        }
    }
}

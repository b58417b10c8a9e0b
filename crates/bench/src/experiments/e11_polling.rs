//! E11 — event-driven channels vs TTP/A-style polling (§4).
//!
//! "The master always initiates the communication" — so a sporadic
//! event at a TTP/A slave waits for its next polling slot: mean latency
//! ≈ half the round period, worst case a full round, and a dead master
//! silences the bus entirely. The same sporadic traffic on an SRT event
//! channel arbitrates onto the bus immediately.

use super::common::{conformance_arm, conformance_check, SRT_SUBJECT};
use crate::table::{us, Table};
use crate::RunOpts;
use rtec_baselines::{round_wire_time, run_ttpa, TtpaConfig};
use rtec_can::{BusConfig, NodeId};
use rtec_core::prelude::*;
use rtec_sim::Rng;
use std::cell::RefCell;
use std::rc::Rc;

fn rtec_sporadic_latency(opts: &RunOpts, mean_gap: Duration) -> (u64, f64, u64, u64) {
    let mut net = Network::builder().nodes(5).seed(opts.seed).build();
    {
        let mut api = net.api();
        for n in 1..=3u8 {
            let s = Subject::new(0xE110 + u64::from(n));
            api.announce(NodeId(n), s, ChannelSpec::srt(SrtSpec::default()))
                .unwrap();
            api.subscribe(NodeId(0), s, SubscribeSpec::default())
                .unwrap();
        }
    }
    // Poisson sporadic events at random slaves (same process as the
    // TTP/A run).
    let rng = Rc::new(RefCell::new(Rng::seed_from_u64(opts.seed ^ 0xE11)));
    let mean_ns = mean_gap.as_ns() as f64;
    let r2 = rng.clone();
    net.every(Duration::from_us(200), Duration::ZERO, move |api| {
        // Thin the 200 µs tick into a Poisson process.
        let p = 200_000.0 / mean_ns;
        let mut rng = r2.borrow_mut();
        if rng.gen_bool(p) {
            let n = 1 + rng.gen_range_u64(3) as u8;
            let s = Subject::new(0xE110 + u64::from(n));
            let _ = api.publish(NodeId(n), s, Event::new(s, vec![n; 8]));
        }
    });
    let sink = conformance_arm(opts, &mut net);
    net.run_for(opts.horizon(Duration::from_secs(5)));
    conformance_check(&net, &sink, "e11");
    let mut latencies = rtec_sim::Histogram::new();
    for n in 1..=3u8 {
        let etag = net
            .world()
            .registry()
            .etag_of(Subject::new(0xE110 + u64::from(n)))
            .unwrap();
        latencies.merge(&net.stats().channel(etag).wire_latency_ns);
    }
    let _ = SRT_SUBJECT;
    (
        latencies.count() as u64,
        latencies.mean().unwrap_or(0.0),
        latencies.percentile(99.0).unwrap_or(0),
        latencies.max().unwrap_or(0),
    )
}

/// Run E11.
pub fn run(opts: &RunOpts) -> Vec<Table> {
    let mean_gap = Duration::from_ms(5);
    let ttpa_cfg = TtpaConfig {
        bus: BusConfig::default(),
        master: NodeId(0),
        slaves: vec![(NodeId(1), 8), (NodeId(2), 8), (NodeId(3), 8)],
        round_period: Duration::from_ms(2),
        sporadic_mean_gap: mean_gap,
        seed: opts.seed,
        kill_master_at: None,
    };
    let (ttpa_stats, _) = run_ttpa(ttpa_cfg.clone(), opts.horizon(Duration::from_secs(5)));
    let mut tl = ttpa_stats.sporadic_latency_ns.clone();
    let (n_ec, mean_ec, p99_ec, max_ec) = rtec_sporadic_latency(opts, mean_gap);

    let mut t = Table::new(
        "E11: sporadic-event latency — event channels vs TTP/A-style polling",
        &["scheme", "events", "mean (us)", "p99 (us)", "max (us)"],
    );
    t.row(vec![
        "event channel (SRT)".to_string(),
        n_ec.to_string(),
        format!("{:.1}", mean_ec / 1e3),
        us(p99_ec),
        us(max_ec),
    ]);
    t.row(vec![
        "TTP/A polling (2 ms round)".to_string(),
        tl.count().to_string(),
        format!("{:.1}", tl.mean().unwrap_or(0.0) / 1e3),
        us(tl.percentile(99.0).unwrap_or(0)),
        us(tl.max().unwrap_or(0)),
    ]);
    t.note(format!(
        "polling round wire time {:.0} us inside a 2 ms round; mean polled \
         latency ≈ half the round. The event channel's latency is one frame \
         time plus occasional blocking — the paper's case for exploiting \
         CAN's native arbitration instead of a polling master (§4).",
        round_wire_time(&ttpa_cfg).as_us_f64()
    ));
    // Master single-point-of-failure companion row.
    let mut killed_cfg = ttpa_cfg;
    killed_cfg.kill_master_at = Some(Time::from_ms(100));
    let (killed, _) = run_ttpa(killed_cfg, opts.horizon(Duration::from_secs(5)));
    t.note(format!(
        "master killed at 100 ms: {} of {} sporadic events ever served — the \
         master is a single point of failure the P/S protocol avoids.",
        killed.sporadic_served, killed.sporadic_events
    ));
    t.note(format!("seed={}", opts.seed));
    vec![t]
}

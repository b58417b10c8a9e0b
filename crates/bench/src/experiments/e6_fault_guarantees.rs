//! E6 — HRT guarantees hold exactly up to the assumed omission degree.
//!
//! A channel reserved with omission degree k = 2 is hit with a
//! deterministic run of j omissions per activation. For j ≤ k every
//! event is still delivered at its deadline (masked by redundancy
//! inside the slot); for j > k the violation is *detected* on both
//! sides (RedundancyExhausted at the publisher, MissingEvent at the
//! subscriber) rather than silently degrading.

use super::common::{conformance_arm, conformance_check, etag, HRT_SUBJECT};
use crate::table::Table;
use crate::RunOpts;
use rtec_analysis::wctt::wctt;
use rtec_can::bits::BitTiming;
use rtec_can::FaultModel;
use rtec_core::channel::HrtSpec;
use rtec_core::prelude::*;

const K: u32 = 2;

struct Outcome {
    published: u64,
    delivered: u64,
    missing: u64,
    exhausted: u64,
    redundant: u64,
    max_wire_offset_ns: u64,
}

fn run_one(opts: &RunOpts, inject: u32) -> Outcome {
    let mut net = Network::builder()
        .nodes(4)
        .round(Duration::from_ms(10))
        .seed(opts.seed)
        .build();
    let q = {
        let mut api = net.api();
        api.announce(
            NodeId(0),
            HRT_SUBJECT,
            ChannelSpec::hrt(HrtSpec {
                period: Duration::from_ms(10),
                dlc: 8,
                omission_degree: K,
                sporadic: false,
            }),
        )
        .unwrap();
        let q = api
            .subscribe(NodeId(2), HRT_SUBJECT, SubscribeSpec::default())
            .unwrap();
        api.install_calendar().unwrap();
        q
    };
    let tag = etag(&net, HRT_SUBJECT);
    net.world_mut()
        .bus
        .injector_mut()
        .set_model(FaultModel::OmitRun {
            etag: Some(tag),
            run_len: inject,
        });
    net.every(Duration::from_ms(10), Duration::from_us(100), move |api| {
        api.world_mut().bus.injector_mut().reset_runs();
        let _ = api.publish(NodeId(0), HRT_SUBJECT, Event::new(HRT_SUBJECT, vec![7; 8]));
    });
    let sink = conformance_arm(opts, &mut net);
    net.run_for(opts.horizon(Duration::from_secs(2)));
    conformance_check(&net, &sink, "e6");
    let delivered = q.drain().len() as u64;
    let st = net.stats();
    let ch = st.channel(tag);
    Outcome {
        published: ch.published,
        delivered,
        missing: ch.missing_events,
        exhausted: ch.redundancy_exhausted,
        redundant: ch.redundant_transmissions,
        max_wire_offset_ns: st.hrt_wire_offset_ns.max().unwrap_or(0),
    }
}

/// Run E6.
pub fn run(opts: &RunOpts) -> Vec<Table> {
    let analytic = wctt(8, K, BitTiming::MBIT_1);
    let mut t = Table::new(
        "E6: injected omission degree vs guarantee (channel reserved with k = 2)",
        &[
            "injected j",
            "published",
            "delivered",
            "missing",
            "exhausted",
            "redundant tx",
            "max wire offset (us)",
            "guarantee",
        ],
    );
    for j in 0..=4u32 {
        let o = run_one(opts, j);
        let held = o.missing == 0 && o.exhausted == 0;
        t.row(vec![
            j.to_string(),
            o.published.to_string(),
            o.delivered.to_string(),
            o.missing.to_string(),
            o.exhausted.to_string(),
            o.redundant.to_string(),
            format!("{:.1}", o.max_wire_offset_ns as f64 / 1e3),
            if held {
                "held".to_string()
            } else if j <= K {
                "VIOLATED".to_string()
            } else {
                "detected violation (expected)".to_string()
            },
        ]);
    }
    t.note(format!(
        "analytic WCTT(k=2) = {:.0} us after the LST — all successful wire \
         completions must fall at or before it",
        analytic.as_us_f64()
    ));
    t.note(
        "paper claim (§2.2.1/§3.2): properties hold under the stated fault \
         assumption; beyond it the subscriber detects the missing message \
         because the expected reception time is known.",
    );
    t.note(format!("seed={}", opts.seed));
    vec![t]
}

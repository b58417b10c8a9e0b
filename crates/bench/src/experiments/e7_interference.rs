//! E7 — priority-band non-interference: `0 = P_HRT < P_SRT < P_NRT`.
//!
//! Whatever the lower classes do, a pending HRT message wins every
//! arbitration after its LST; the only interference is the single
//! non-preemptible frame that may already occupy the bus (≤ ΔT_wait).
//! Four background scenarios of increasing hostility are thrown at the
//! same HRT channel.

use super::common::{
    conformance_arm, conformance_check, etag, hrt_sensor, srt_background, HRT_SUBJECT, NRT_SUBJECT,
};
use crate::table::{us, Table};
use crate::RunOpts;
use rtec_can::bits::BitTiming;
use rtec_core::prelude::*;

struct Outcome {
    delivered: u64,
    missing: u64,
    max_blocking_ns: u64,
    jitter_ns: u64,
    bus_util: f64,
}

fn run_one(opts: &RunOpts, srt_storm: bool, nrt_bulk: bool) -> Outcome {
    let mut net = Network::builder()
        .nodes(5)
        .round(Duration::from_ms(10))
        .seed(opts.seed)
        .build();
    let q = hrt_sensor(&mut net, Duration::from_ms(10), 1, 1.0, opts.seed);
    if srt_storm {
        let _ = srt_background(&mut net, NodeId(1), NodeId(3), Duration::from_us(125));
    }
    if nrt_bulk {
        {
            let mut api = net.api();
            api.announce(NodeId(4), NRT_SUBJECT, ChannelSpec::nrt(NrtSpec::bulk()))
                .unwrap();
            api.subscribe(NodeId(3), NRT_SUBJECT, SubscribeSpec::default())
                .unwrap();
        }
        // A stream of 4 KiB images back to back.
        net.every(Duration::from_ms(25), Duration::from_us(11), |api| {
            let _ = api.publish(
                NodeId(4),
                NRT_SUBJECT,
                Event::new(NRT_SUBJECT, vec![0xD1u8; 4096]),
            );
        });
    }
    let sink = conformance_arm(opts, &mut net);
    let horizon = opts.horizon(Duration::from_secs(2));
    net.run_for(horizon);
    conformance_check(&net, &sink, "e7");
    let deliveries = q.drain();
    let mut gmin = u64::MAX;
    let mut gmax = 0u64;
    for w in deliveries.windows(2) {
        let g = w[1]
            .delivered_at
            .saturating_since(w[0].delivered_at)
            .as_ns();
        gmin = gmin.min(g);
        gmax = gmax.max(g);
    }
    let st = net.stats();
    Outcome {
        delivered: deliveries.len() as u64,
        missing: st.channel(etag(&net, HRT_SUBJECT)).missing_events,
        max_blocking_ns: st.hrt_lst_blocking_ns.max().unwrap_or(0),
        jitter_ns: gmax.saturating_sub(gmin.min(gmax)),
        bus_util: net.world().bus.stats.utilization(horizon),
    }
}

/// Run E7.
pub fn run(opts: &RunOpts) -> Vec<Table> {
    let bound = BitTiming::MBIT_1.delta_t_wait_tight().as_ns();
    let mut t = Table::new(
        "E7: HRT non-interference under adversarial lower-class background",
        &[
            "background",
            "HRT delivered",
            "missing",
            "max LST blocking (us)",
            "bound ok",
            "delivery jitter (us)",
            "bus util",
        ],
    );
    for (name, srt, nrt) in [
        ("idle bus", false, false),
        ("SRT storm", true, false),
        ("NRT bulk", false, true),
        ("SRT storm + NRT bulk", true, true),
    ] {
        let o = run_one(opts, srt, nrt);
        t.row(vec![
            name.to_string(),
            o.delivered.to_string(),
            o.missing.to_string(),
            us(o.max_blocking_ns),
            if o.max_blocking_ns <= bound {
                "yes"
            } else {
                "NO"
            }
            .to_string(),
            us(o.jitter_ns),
            format!("{:.2}", o.bus_util),
        ]);
    }
    t.note(format!(
        "bound: one non-preemptible frame = {} us (paper quotes 154 us at 1 Mbit/s)",
        us(bound)
    ));
    t.note(
        "paper claim (§3.3): the band assignment prevents NRT and SRT messages \
         from ever gaining the bus against a pending HRT message.",
    );
    t.note(format!("seed={}", opts.seed));
    vec![t]
}

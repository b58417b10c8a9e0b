//! E2 — reclaiming reserved-but-unused HRT bandwidth.
//!
//! In the event-channel scheme an HRT slot whose publisher has nothing
//! to say is simply never contended for: the priority mechanism hands
//! the bus to pending SRT/NRT traffic at once (§3.2). In TTCAN the same
//! exclusive window is *wasted* — no other station may transmit in it.
//! Sweeping the fraction of slots actually used, we measure the
//! background throughput each scheme sustains.

use super::common::{conformance_arm, conformance_check, srt_background, SRT_SUBJECT};
use crate::table::{f, Table};
use crate::RunOpts;
use rtec_baselines::{run_ttcan, TtcanConfig, Window, WindowKind};
use rtec_can::{BusConfig, FaultModel, NodeId};
use rtec_core::channel::HrtSpec;
use rtec_core::prelude::*;
use std::cell::RefCell;
use std::rc::Rc;

/// Five HRT channels, one per publisher node, 5 ms period, k = 1.
const N_HRT: usize = 5;

fn rtec_run(opts: &RunOpts, use_prob: f64) -> (f64, f64) {
    let mut net = Network::builder()
        .nodes(8)
        .round(Duration::from_ms(5))
        .seed(opts.seed)
        .build();
    {
        let mut api = net.api();
        for i in 0..N_HRT {
            let s = Subject::new(0xE100 + i as u64);
            api.announce(
                NodeId(i as u8),
                s,
                ChannelSpec::hrt(HrtSpec {
                    period: Duration::from_ms(5),
                    dlc: 8,
                    omission_degree: 1,
                    sporadic: true,
                }),
            )
            .unwrap();
            api.subscribe(NodeId(6), s, SubscribeSpec::default())
                .unwrap();
        }
    }
    let bg_q = srt_background(&mut net, NodeId(5), NodeId(7), Duration::from_us(120));
    {
        let mut api = net.api();
        api.install_calendar().unwrap();
    }
    // Probabilistic HRT publication.
    let rng = Rc::new(RefCell::new(rtec_sim::Rng::seed_from_u64(opts.seed ^ 0xE2)));
    net.every(Duration::from_ms(5), Duration::from_us(50), move |api| {
        for i in 0..N_HRT {
            if rng.borrow_mut().gen_bool(use_prob) {
                let s = Subject::new(0xE100 + i as u64);
                let _ = api.publish(NodeId(i as u8), s, Event::new(s, vec![i as u8; 8]));
            }
        }
    });
    let sink = conformance_arm(opts, &mut net);
    let horizon = opts.horizon(Duration::from_secs(2));
    net.run_for(horizon);
    conformance_check(&net, &sink, "e2");
    let srt_tput = bg_q.len() as f64 / horizon.as_secs_f64();
    let util = net.world().bus.stats.utilization(horizon);
    let _ = SRT_SUBJECT;
    (srt_tput, util)
}

fn ttcan_run(opts: &RunOpts, use_prob: f64) -> (f64, f64) {
    // Matching matrix: five exclusive windows sized for 2 copies of a
    // worst-case frame (340 µs each) per 5 ms cycle, remainder
    // arbitrating.
    let mut cycle: Vec<Window> = (0..N_HRT)
        .map(|i| Window {
            kind: WindowKind::Exclusive {
                owner: NodeId(i as u8),
                etag: 32 + i as u16,
            },
            len: Duration::from_us(340),
        })
        .collect();
    cycle.push(Window {
        kind: WindowKind::Arbitrating,
        len: Duration::from_ms(5) - Duration::from_us(340 * N_HRT as u64),
    });
    let config = TtcanConfig {
        bus: BusConfig::default(),
        cycle,
        redundancy_k: 1,
        exclusive_use_prob: use_prob,
        background_mean_gap: Some(Duration::from_us(120)),
        background_dlc: 8,
        background_node: NodeId(5),
        seed: opts.seed,
        fault_model: FaultModel::None,
    };
    let horizon = opts.horizon(Duration::from_secs(2));
    let (stats, bus) = run_ttcan(config, horizon);
    let tput = stats.background_completed as f64 / horizon.as_secs_f64();
    (tput, bus.utilization(horizon))
}

/// Run E2.
pub fn run(opts: &RunOpts) -> Vec<Table> {
    let mut t = Table::new(
        "E2: unused-reservation reclamation — background throughput (frames/s) and wire utilization",
        &[
            "HRT slots used",
            "rtec SRT tput",
            "TTCAN bg tput",
            "rtec util",
            "TTCAN util",
            "rtec advantage",
        ],
    );
    for use_prob in [0.0, 0.25, 0.5, 0.75, 1.0] {
        let (rt_tput, rt_util) = rtec_run(opts, use_prob);
        let (tt_tput, tt_util) = ttcan_run(opts, use_prob);
        t.row(vec![
            format!("{:.0}%", use_prob * 100.0),
            f(rt_tput),
            f(tt_tput),
            f(rt_util),
            f(tt_util),
            format!("{:.2}x", rt_tput / tt_tput.max(1.0)),
        ]);
    }
    t.note(
        "paper claim (§3.2/§5): bandwidth reserved but unused by HRT channels is \
         automatically reused by lower-priority traffic; TTCAN wastes it. The rtec \
         background throughput should stay roughly flat across the sweep while \
         TTCAN's is capped by its arbitrating windows.",
    );
    t.note(format!("seed={}", opts.seed));
    vec![t]
}

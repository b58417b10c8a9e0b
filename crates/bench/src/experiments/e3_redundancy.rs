//! E3 — time redundancy costs bandwidth only when faults occur.
//!
//! The HRT publisher stops retransmitting as soon as CAN's consistency
//! mechanism shows every operational node received the frame. Sweeping
//! the omission-fault probability, the *average* number of extra
//! transmissions per event tracks the fault rate (≈ p + p² for k = 2),
//! while a TTCAN-style pre-planned scheme always pays the full k extra
//! copies. This is why "very conservative fault assumptions are
//! possible because the penalty is low in the average" (§3.2).

use super::common::{conformance_arm, conformance_check, etag, hrt_sensor, HRT_SUBJECT};
use crate::table::{f, Table};
use crate::RunOpts;
use rtec_can::{FaultModel, OmissionScope};
use rtec_core::prelude::*;

fn rtec_extra_tx(opts: &RunOpts, omission_p: f64, k: u32) -> (f64, u64, u64) {
    let mut net = Network::builder()
        .nodes(4)
        .round(Duration::from_ms(10))
        .seed(opts.seed)
        .faults(FaultModel::Iid {
            corruption_p: 0.0,
            omission_p,
            omission_scope: OmissionScope::AllReceivers,
        })
        .build();
    let _q = hrt_sensor(&mut net, Duration::from_ms(10), k, 1.0, opts.seed);
    let sink = conformance_arm(opts, &mut net);
    net.run_for(opts.horizon(Duration::from_secs(5)));
    conformance_check(&net, &sink, "e3");
    let ch = net.stats().channel(etag(&net, HRT_SUBJECT));
    let extra = if ch.published == 0 {
        0.0
    } else {
        ch.redundant_transmissions as f64 / ch.published as f64
    };
    (extra, ch.missing_events, ch.redundancy_exhausted)
}

/// Run E3.
pub fn run(opts: &RunOpts) -> Vec<Table> {
    const K: u32 = 2;
    let mut t = Table::new(
        "E3: redundancy cost vs omission-fault rate (k = 2)",
        &[
            "omission p",
            "rtec extra tx/event",
            "expected (p+p^2)",
            "always-k extra tx/event",
            "rtec overhead saved",
            "exhausted",
        ],
    );
    for p in [0.0, 0.01, 0.05, 0.10, 0.20] {
        let (extra, _missing, exhausted) = rtec_extra_tx(opts, p, K);
        let expected = p + p * p;
        let always = K as f64;
        t.row(vec![
            f(p),
            f(extra),
            f(expected),
            f(always),
            format!("{:.0}%", (1.0 - extra / always) * 100.0),
            exhausted.to_string(),
        ]);
    }
    t.note(
        "paper claim (§3.2): time redundancy only costs bandwidth when faults \
         actually occur; pre-planned k-fold retransmission (TTCAN/TTP style) \
         always pays k extra frames.",
    );
    t.note(format!("seed={}", opts.seed));
    vec![t]
}

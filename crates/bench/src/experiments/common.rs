//! Shared scenario builders for the experiments.

use rtec_core::channel::HrtSpec;
use rtec_core::prelude::*;
use std::cell::RefCell;
use std::rc::Rc;

/// Subject used for the primary HRT sensor channel.
pub const HRT_SUBJECT: Subject = Subject::new(0xE001);
/// Subject used for saturating SRT background traffic.
pub const SRT_SUBJECT: Subject = Subject::new(0xE002);
/// Subject used for NRT bulk traffic.
pub const NRT_SUBJECT: Subject = Subject::new(0xE003);

/// Install one periodic HRT channel (publisher node 0, subscriber node
/// 2) and a recurring publisher that stages fresh data every round with
/// probability `publish_prob` (1.0 = every round).
pub fn hrt_sensor(
    net: &mut Network,
    period: Duration,
    k: u32,
    publish_prob: f64,
    seed: u64,
) -> EventQueue {
    let q = {
        let mut api = net.api();
        api.announce(
            NodeId(0),
            HRT_SUBJECT,
            ChannelSpec::hrt(HrtSpec {
                period,
                dlc: 8,
                omission_degree: k,
                // Probabilistic publication means empty slots are
                // legitimate.
                sporadic: publish_prob < 1.0,
            }),
        )
        .unwrap();
        let q = api
            .subscribe(NodeId(2), HRT_SUBJECT, SubscribeSpec::default())
            .unwrap();
        api.install_calendar().unwrap();
        q
    };
    let rng = Rc::new(RefCell::new(rtec_sim::Rng::seed_from_u64(seed ^ 0xABCD)));
    net.every(period, Duration::from_us(100), move |api| {
        if rng.borrow_mut().gen_bool(publish_prob) {
            let stamp = api.now().as_ns().to_le_bytes();
            let _ = api.publish(
                NodeId(0),
                HRT_SUBJECT,
                Event::new(HRT_SUBJECT, stamp.to_vec()),
            );
        }
    });
    q
}

/// Install a saturating SRT channel: publisher `from`, subscriber `to`,
/// one 8-byte event every `gap` with a relaxed deadline, expiring so
/// queues stay bounded.
pub fn srt_background(net: &mut Network, from: NodeId, to: NodeId, gap: Duration) -> EventQueue {
    let q = {
        let mut api = net.api();
        api.announce(
            from,
            SRT_SUBJECT,
            ChannelSpec::srt(SrtSpec {
                default_deadline: Duration::from_ms(20),
                default_expiration: Some(Duration::from_ms(60)),
                ..SrtSpec::default()
            }),
        )
        .unwrap();
        api.subscribe(to, SRT_SUBJECT, SubscribeSpec::default())
            .unwrap()
    };
    net.every(gap, Duration::from_us(7), move |api| {
        let _ = api.publish(from, SRT_SUBJECT, Event::new(SRT_SUBJECT, vec![0x5A; 8]));
    });
    q
}

/// Etag of a subject after binding.
pub fn etag(net: &Network, s: Subject) -> u16 {
    net.world().registry().etag_of(s).expect("subject bound")
}

/// Arm conformance checking on a freshly built network: when the run
/// options ask for it, enable tracing so [`conformance_check`] has a
/// trace to audit after the run.
pub fn conformance_arm(opts: &crate::RunOpts, net: &mut Network) -> Option<rtec_sim::TraceSink> {
    opts.conformance.then(|| net.enable_trace())
}

/// Lint the network's configuration and audit the recorded trace;
/// abort the experiment on any error-severity finding. Warnings are
/// tolerated (sweeps deliberately visit stressed configurations).
pub fn conformance_check(net: &Network, sink: &Option<rtec_sim::TraceSink>, what: &str) {
    let Some(sink) = sink else { return };
    let report = rtec_conformance::check_network(net, sink);
    assert!(report.passes(), "conformance failure in {what}:\n{report}");
}

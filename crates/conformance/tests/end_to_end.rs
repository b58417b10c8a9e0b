//! End-to-end conformance: run real simulations with tracing enabled
//! and require the combined linter + auditor verdict to be clean — and
//! require it to *catch* a sabotaged network.

use rtec_core::channel::HrtSpec;
use rtec_core::prelude::*;
use rtec_sim::Rng;
use std::cell::RefCell;
use std::rc::Rc;

const HRT: Subject = Subject::new(0xC0F0);
const SRT: Subject = Subject::new(0xC0F1);
const NRT: Subject = Subject::new(0xC0F2);

fn mixed_network(seed: u64) -> Network {
    let mut net = Network::builder()
        .nodes(5)
        .round(Duration::from_ms(10))
        .seed(seed)
        .build();
    {
        let mut api = net.api();
        api.announce(
            NodeId(0),
            HRT,
            ChannelSpec::hrt(HrtSpec {
                period: Duration::from_ms(10),
                dlc: 8,
                omission_degree: 2,
                sporadic: false,
            }),
        )
        .unwrap();
        api.subscribe(NodeId(2), HRT, SubscribeSpec::default())
            .unwrap();
        api.announce(NodeId(1), SRT, ChannelSpec::srt(SrtSpec::default()))
            .unwrap();
        api.subscribe(NodeId(3), SRT, SubscribeSpec::default())
            .unwrap();
        api.announce(NodeId(4), NRT, ChannelSpec::nrt(NrtSpec::bulk()))
            .unwrap();
        api.subscribe(NodeId(2), NRT, SubscribeSpec::default())
            .unwrap();
        api.install_calendar().unwrap();
    }
    net.every(Duration::from_ms(10), Duration::from_us(100), |api| {
        let _ = api.publish(NodeId(0), HRT, Event::new(HRT, vec![1; 8]));
    });
    let rng = Rc::new(RefCell::new(Rng::seed_from_u64(seed ^ 0x515)));
    net.every(Duration::from_us(700), Duration::from_us(50), move |api| {
        if rng.borrow_mut().gen_bool(0.8) {
            let _ = api.publish(NodeId(1), SRT, Event::new(SRT, vec![2; 8]));
        }
    });
    net.every(Duration::from_ms(40), Duration::from_ms(1), |api| {
        let _ = api.publish(NodeId(4), NRT, Event::new(NRT, vec![3; 300]));
    });
    net
}

#[test]
fn mixed_workload_simulation_is_conformant() {
    let mut net = mixed_network(7);
    let sink = net.enable_trace();
    net.run_for(Duration::from_secs(2));
    let report = rtec_conformance::check_network(&net, &sink);
    assert!(report.passes(), "{report}");
}

#[test]
fn lint_flags_misconfigured_network() {
    // Announce an SRT channel whose events expire before their deadline:
    // the static linter must refuse the configuration.
    let mut net = Network::builder().nodes(3).seed(1).build();
    net.api()
        .announce(
            NodeId(0),
            SRT,
            ChannelSpec::srt(SrtSpec {
                default_deadline: Duration::from_ms(20),
                default_expiration: Some(Duration::from_ms(5)),
                ..SrtSpec::default()
            }),
        )
        .unwrap();
    let report = rtec_conformance::lint_network(&net);
    assert!(!report.passes());
    assert!(
        report.fired(rtec_conformance::RuleId::SrtHorizonConsistency),
        "{report}"
    );
}

#[test]
fn audit_flags_sabotaged_trace() {
    // Run a clean simulation, then tamper with the recorded trace the
    // way a broken controller would: flip an arbitration outcome.
    let mut net = mixed_network(11);
    let sink = net.enable_trace();
    net.run_for(Duration::from_secs(1));
    let mut events = sink.events();
    let mut tampered = false;
    for ev in events.iter_mut() {
        if ev.kind == "arb" && ev.fields_named("cand").len() >= 2 {
            let worst = ev
                .fields_named("cand")
                .iter()
                .map(|c| c & 0xFFFF_FFFF)
                .max()
                .unwrap();
            for f in ev.fields.iter_mut() {
                if f.0 == "win" {
                    f.1 = worst + 1; // an identifier that did not even contend
                    tampered = true;
                }
            }
            if tampered {
                break;
            }
        }
    }
    assert!(
        tampered,
        "expected at least one multi-contender arbitration"
    );
    let ctx = rtec_conformance::audit_context(&net);
    let report = rtec_conformance::audit(&ctx, &events);
    assert!(
        report.fired(rtec_conformance::RuleId::ArbWinnerOrder),
        "{report}"
    );
}

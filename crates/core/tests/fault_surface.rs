//! Lower-level bus failures surface to channel endpoints: the paper
//! notes that "the lower levels of the communication system may detect
//! a failure ... and propagate this information through the middleware"
//! (§2.2.1). A corruption storm drives the publisher's controller
//! through error-passive towards bus-off; each transition reaches the
//! publisher's exception handler as a `Fault`.

use rtec_can::FaultModel;
use rtec_core::prelude::*;
use std::cell::RefCell;
use std::rc::Rc;

const S: Subject = Subject::new(0xF001);

#[test]
fn error_state_transitions_reach_channel_exception_handlers() {
    let mut net = Network::builder()
        .nodes(2)
        .faults(FaultModel::Iid {
            corruption_p: 1.0,
            omission_p: 0.0,
            omission_scope: rtec_can::OmissionScope::AllReceivers,
        })
        .build();
    let faults: Rc<RefCell<Vec<String>>> = Rc::new(RefCell::new(vec![]));
    let f = faults.clone();
    {
        let mut api = net.api();
        api.announce_with_handler(
            NodeId(0),
            S,
            ChannelSpec::srt(SrtSpec {
                default_deadline: Duration::from_ms(50),
                default_expiration: None,
                ..SrtSpec::default()
            }),
            move |exc| {
                if let rtec_core::ChannelException::Fault { reason, .. } = exc {
                    f.borrow_mut().push(reason.clone());
                }
            },
        )
        .unwrap();
        api.subscribe(NodeId(1), S, SubscribeSpec::default())
            .unwrap();
    }
    net.after(Duration::ZERO, |api| {
        api.publish(NodeId(0), S, Event::new(S, vec![1; 8]))
            .unwrap();
    });
    // Every attempt is corrupted: the controller's TEC climbs to
    // passive (16 attempts) and bus-off (32 attempts).
    net.run_for(Duration::from_ms(20));
    let reasons = faults.borrow();
    assert!(
        reasons.iter().any(|r| r.contains("Passive")),
        "error-passive surfaced: {reasons:?}"
    );
    assert!(
        reasons.iter().any(|r| r.contains("BusOff")),
        "bus-off surfaced: {reasons:?}"
    );
    assert!(net.world().bus.stats.bus_off_events >= 1);
}

#[test]
fn clean_bus_raises_no_fault_exceptions() {
    let mut net = Network::builder().nodes(2).build();
    let count: Rc<RefCell<u32>> = Rc::new(RefCell::new(0));
    let c = count.clone();
    {
        let mut api = net.api();
        api.announce_with_handler(
            NodeId(0),
            S,
            ChannelSpec::srt(SrtSpec::default()),
            move |_| {
                *c.borrow_mut() += 1;
            },
        )
        .unwrap();
        api.subscribe(NodeId(1), S, SubscribeSpec::default())
            .unwrap();
    }
    net.every(Duration::from_ms(1), Duration::ZERO, |api| {
        let _ = api.publish(NodeId(0), S, Event::new(S, vec![2; 8]));
    });
    net.run_for(Duration::from_ms(100));
    assert_eq!(*count.borrow(), 0);
}

//! End-to-end tests of the SRT and NRT channel classes, binding and
//! filtering, driving full networks through simulated time.

use rtec_core::channel::ChannelError;
use rtec_core::prelude::*;
use std::cell::RefCell;
use std::rc::Rc;

const S1: Subject = Subject::new(0x1001);
const S2: Subject = Subject::new(0x1002);

#[test]
fn srt_publish_is_delivered_with_origin_and_content() {
    let mut net = Network::builder().nodes(3).build();
    let q = {
        let mut api = net.api();
        api.announce(NodeId(0), S1, ChannelSpec::srt(SrtSpec::default()))
            .unwrap();
        api.subscribe(NodeId(2), S1, SubscribeSpec::default())
            .unwrap()
    };
    net.after(Duration::from_us(10), |api| {
        api.publish(NodeId(0), S1, Event::new(S1, vec![0xAB, 0xCD]))
            .unwrap();
    });
    net.run_for(Duration::from_ms(2));
    let deliveries = q.drain();
    assert_eq!(deliveries.len(), 1);
    let d = &deliveries[0];
    assert_eq!(d.event.content, vec![0xAB, 0xCD]);
    assert_eq!(d.event.subject, S1);
    assert_eq!(d.event.attributes.origin, Some(NodeId(0)));
    assert!(d.delivered_at > Time::from_us(10));
}

#[test]
fn srt_multiple_subscribers_each_get_a_copy() {
    let mut net = Network::builder().nodes(4).build();
    let (q1, q2, q3) = {
        let mut api = net.api();
        api.announce(NodeId(0), S1, ChannelSpec::srt(SrtSpec::default()))
            .unwrap();
        (
            api.subscribe(NodeId(1), S1, SubscribeSpec::default())
                .unwrap(),
            api.subscribe(NodeId(2), S1, SubscribeSpec::default())
                .unwrap(),
            api.subscribe(NodeId(3), S1, SubscribeSpec::default())
                .unwrap(),
        )
    };
    net.after(Duration::ZERO, |api| {
        api.publish(NodeId(0), S1, Event::new(S1, vec![7])).unwrap();
    });
    net.run_for(Duration::from_ms(1));
    for q in [&q1, &q2, &q3] {
        assert_eq!(q.len(), 1, "every subscriber gets the event");
    }
    assert_eq!(net.stats().channel_etag_of(&net, S1).delivered, 3);
}

// Small helper since tests often need per-subject stats.
trait StatsExt {
    fn channel_etag_of(&self, net: &Network, s: Subject) -> rtec_core::ChannelStats;
}
impl StatsExt for rtec_core::NetStats {
    fn channel_etag_of(&self, net: &Network, s: Subject) -> rtec_core::ChannelStats {
        let etag = net.world().registry().etag_of(s).expect("subject bound");
        self.channel(etag)
    }
}

#[test]
fn srt_publisher_is_not_its_own_subscriber() {
    // CAN controllers do not receive their own frames.
    let mut net = Network::builder().nodes(2).build();
    let q = {
        let mut api = net.api();
        api.announce(NodeId(0), S1, ChannelSpec::srt(SrtSpec::default()))
            .unwrap();
        api.subscribe(NodeId(0), S1, SubscribeSpec::default())
            .unwrap()
    };
    net.after(Duration::ZERO, |api| {
        api.publish(NodeId(0), S1, Event::new(S1, vec![1])).unwrap();
    });
    net.run_for(Duration::from_ms(1));
    assert!(q.is_empty());
}

#[test]
fn srt_edf_orders_same_node_queue_by_deadline() {
    let mut net = Network::builder().nodes(2).build();
    let q = {
        let mut api = net.api();
        api.announce(NodeId(0), S1, ChannelSpec::srt(SrtSpec::default()))
            .unwrap();
        api.subscribe(NodeId(1), S1, SubscribeSpec::default())
            .unwrap()
    };
    // Publish three events in the same instant with inverted deadline
    // order; EDF must transmit closest-deadline first.
    net.after(Duration::ZERO, |api| {
        let base = api.now_global(NodeId(0));
        api.publish(
            NodeId(0),
            S1,
            Event::new(S1, vec![3]).with_deadline(base + Duration::from_ms(30)),
        )
        .unwrap();
        api.publish(
            NodeId(0),
            S1,
            Event::new(S1, vec![1]).with_deadline(base + Duration::from_ms(10)),
        )
        .unwrap();
        api.publish(
            NodeId(0),
            S1,
            Event::new(S1, vec![2]).with_deadline(base + Duration::from_ms(20)),
        )
        .unwrap();
    });
    net.run_for(Duration::from_ms(5));
    let order: Vec<u8> = q.drain().iter().map(|d| d.event.content[0]).collect();
    assert_eq!(order, vec![1, 2, 3]);
}

#[test]
fn srt_edf_orders_across_nodes_via_priorities() {
    let mut net = Network::builder().nodes(4).build();
    let sa = Subject::new(0xA);
    let sb = Subject::new(0xB);
    let sc = Subject::new(0xC);
    let q = {
        let mut api = net.api();
        for (node, s) in [(NodeId(0), sa), (NodeId(1), sb), (NodeId(2), sc)] {
            api.announce(node, s, ChannelSpec::srt(SrtSpec::default()))
                .unwrap();
        }
        let q = api
            .subscribe(NodeId(3), sa, SubscribeSpec::default())
            .unwrap();
        // Same queue object is not shared across subjects; subscribe
        // separately and merge by timestamps instead.
        api.subscribe(NodeId(3), sb, SubscribeSpec::default())
            .unwrap();
        api.subscribe(NodeId(3), sc, SubscribeSpec::default())
            .unwrap();
        q
    };
    let _ = q;
    // Block the bus with one long frame first so all three are queued,
    // then they arbitrate by deadline-derived priority.
    net.after(Duration::ZERO, move |api| {
        let base = api.now_global(NodeId(0));
        api.publish(
            NodeId(0),
            sa,
            Event::new(sa, vec![0xAA; 8]).with_deadline(base + Duration::from_ms(40)),
        )
        .unwrap();
        api.publish(
            NodeId(1),
            sb,
            Event::new(sb, vec![0xBB; 8]).with_deadline(base + Duration::from_ms(5)),
        )
        .unwrap();
        api.publish(
            NodeId(2),
            sc,
            Event::new(sc, vec![0xCC; 8]).with_deadline(base + Duration::from_ms(20)),
        )
        .unwrap();
    });
    net.run_for(Duration::from_ms(3));
    // Inspect wire order through per-channel wire latency counts: the
    // earliest-deadline message must have completed first. Use the
    // stats' wire histograms: every channel has exactly one
    // transmission; compare via bus busy ordering — simplest check:
    // channel B's wire latency < C's < A's.
    let st = net.stats();
    let wl = |s: Subject| {
        let etag = net.world().registry().etag_of(s).unwrap();
        st.channel(etag).wire_latency_ns.samples()[0]
    };
    assert!(wl(sb) < wl(sc), "deadline 5ms beats 20ms");
    assert!(wl(sc) < wl(sa), "deadline 20ms beats 40ms");
}

#[test]
fn srt_deadline_miss_raises_exception_but_still_transmits() {
    let mut net = Network::builder().nodes(2).build();
    let misses: Rc<RefCell<Vec<rtec_core::ChannelException>>> = Rc::new(RefCell::new(vec![]));
    let m = misses.clone();
    let q = {
        let mut api = net.api();
        api.announce_with_handler(
            NodeId(0),
            S1,
            ChannelSpec::srt(SrtSpec {
                default_deadline: Duration::from_us(50), // < one frame time
                default_expiration: Some(Duration::from_ms(50)),
                ..SrtSpec::default()
            }),
            move |exc| m.borrow_mut().push(exc.clone()),
        )
        .unwrap();
        api.subscribe(NodeId(1), S1, SubscribeSpec::default())
            .unwrap()
    };
    net.after(Duration::ZERO, |api| {
        api.publish(NodeId(0), S1, Event::new(S1, vec![0x5A; 8]))
            .unwrap();
    });
    net.run_for(Duration::from_ms(2));
    // A 130+ µs frame cannot meet a 50 µs deadline: miss exception, but
    // best-effort transmission still happens.
    let excs = misses.borrow();
    assert!(
        excs.iter()
            .any(|e| matches!(e, rtec_core::ChannelException::DeadlineMissed { .. })),
        "expected a DeadlineMissed exception, got {excs:?}"
    );
    assert_eq!(q.len(), 1, "message still delivered best-effort");
    assert_eq!(net.stats().channel_etag_of(&net, S1).deadline_misses, 1);
}

#[test]
fn srt_expiration_drops_queued_messages() {
    // Five 8-byte frames (~135 µs each on the wire) but validity ends
    // at 300 µs: only the frames that reach the wire in time survive;
    // the rest are removed from the send queue with an Expired
    // exception (§2.2.2).
    let mut net = Network::builder().nodes(2).build();
    let drops: Rc<RefCell<u32>> = Rc::new(RefCell::new(0));
    let d = drops.clone();
    let q = {
        let mut api = net.api();
        api.announce_with_handler(
            NodeId(0),
            S1,
            ChannelSpec::srt(SrtSpec {
                default_deadline: Duration::from_us(250),
                default_expiration: Some(Duration::from_us(300)),
                ..SrtSpec::default()
            }),
            move |exc| {
                if matches!(exc, rtec_core::ChannelException::Expired { .. }) {
                    *d.borrow_mut() += 1;
                }
            },
        )
        .unwrap();
        api.subscribe(NodeId(1), S1, SubscribeSpec::default())
            .unwrap()
    };
    net.after(Duration::ZERO, |api| {
        for i in 0..5u8 {
            api.publish(NodeId(0), S1, Event::new(S1, vec![i; 8]))
                .unwrap();
        }
    });
    net.run_for(Duration::from_ms(5));
    let delivered = q.len() as u32;
    let dropped = *drops.borrow();
    assert!(dropped >= 2, "most of the queue expires, got {dropped}");
    assert!(delivered >= 2, "the head of the queue gets through");
    assert_eq!(delivered + dropped, 5, "every message delivered or dropped");
    assert_eq!(
        net.stats().channel_etag_of(&net, S1).expired_drops,
        u64::from(dropped)
    );
    assert_eq!(net.world().srt_queue(NodeId(0)).len(), 0, "queue purged");
}

#[test]
fn nrt_single_frame_roundtrip() {
    let mut net = Network::builder().nodes(2).build();
    let q = {
        let mut api = net.api();
        api.announce(NodeId(0), S1, ChannelSpec::nrt(NrtSpec::default()))
            .unwrap();
        api.subscribe(NodeId(1), S1, SubscribeSpec::default())
            .unwrap()
    };
    net.after(Duration::ZERO, |api| {
        api.publish(NodeId(0), S1, Event::new(S1, vec![1, 2, 3, 4]))
            .unwrap();
    });
    net.run_for(Duration::from_ms(1));
    assert_eq!(q.drain()[0].event.content, vec![1, 2, 3, 4]);
}

#[test]
fn nrt_fragmented_bulk_transfer_roundtrip() {
    let mut net = Network::builder().nodes(2).build();
    let q = {
        let mut api = net.api();
        api.announce(NodeId(0), S1, ChannelSpec::nrt(NrtSpec::bulk()))
            .unwrap();
        api.subscribe(NodeId(1), S1, SubscribeSpec::default())
            .unwrap()
    };
    let image: Vec<u8> = (0..2000u32).map(|i| (i % 256) as u8).collect();
    let image_clone = image.clone();
    net.after(Duration::ZERO, move |api| {
        api.publish(NodeId(0), S1, Event::new(S1, image_clone))
            .unwrap();
    });
    net.run_for(Duration::from_secs(1));
    let deliveries = q.drain();
    assert_eq!(deliveries.len(), 1);
    assert_eq!(deliveries[0].event.content, image);
}

#[test]
fn nrt_priority_band_is_enforced() {
    let mut net = Network::builder().nodes(2).build();
    let mut api = net.api();
    let err = api
        .announce(
            NodeId(0),
            S1,
            ChannelSpec::nrt(rtec_core::channel::NrtSpec {
                priority: 100, // SRT band — forbidden
                fragmented: false,
            }),
        )
        .unwrap_err();
    assert_eq!(err, ChannelError::PriorityOutOfBand { priority: 100 });
}

#[test]
fn srt_priority_band_is_enforced() {
    let mut net = Network::builder().nodes(2).build();
    let mut api = net.api();
    let lead = Duration::from_ms(1);
    let refused = [
        (SrtPriority::Fixed(0), 0), // HRT's reserved priority
        (SrtPriority::Fixed(251), 251),
        (
            SrtPriority::Dual {
                low: 251,
                high: 5,
                lead,
            },
            251,
        ),
        (
            SrtPriority::Dual {
                low: 100,
                high: 0,
                lead,
            },
            0,
        ),
        // A promotion that lowers the priority breaks EDF per channel.
        (
            SrtPriority::Dual {
                low: 5,
                high: 9,
                lead,
            },
            9,
        ),
    ];
    for (priority, bad) in refused {
        let spec = ChannelSpec::srt(SrtSpec {
            priority,
            ..SrtSpec::default()
        });
        let err = api.announce(NodeId(0), S1, spec).unwrap_err();
        assert_eq!(err, ChannelError::PriorityOutOfBand { priority: bad });
    }
    let accepted = [
        SrtPriority::Fixed(1),
        SrtPriority::Dual {
            low: 250,
            high: 250,
            lead,
        },
    ];
    for (subject, priority) in [S1, S2].into_iter().zip(accepted) {
        let spec = ChannelSpec::srt(SrtSpec {
            priority,
            ..SrtSpec::default()
        });
        api.announce(NodeId(1), subject, spec).unwrap();
    }
}

#[test]
fn publish_without_announce_fails() {
    let mut net = Network::builder().nodes(2).build();
    let mut api = net.api();
    let err = api
        .publish(NodeId(0), S1, Event::new(S1, vec![1]))
        .unwrap_err();
    assert_eq!(err, ChannelError::NotAnnounced(S1));
}

#[test]
fn double_announce_and_double_subscribe_fail() {
    let mut net = Network::builder().nodes(2).build();
    let mut api = net.api();
    api.announce(NodeId(0), S1, ChannelSpec::srt(SrtSpec::default()))
        .unwrap();
    assert_eq!(
        api.announce(NodeId(0), S1, ChannelSpec::srt(SrtSpec::default())),
        Err(ChannelError::AlreadyAnnounced(S1))
    );
    api.subscribe(NodeId(1), S1, SubscribeSpec::default())
        .unwrap();
    assert!(matches!(
        api.subscribe(NodeId(1), S1, SubscribeSpec::default()),
        Err(ChannelError::AlreadySubscribed(_))
    ));
}

#[test]
fn origin_filter_discards_unwanted_publishers() {
    let mut net = Network::builder().nodes(3).build();
    let q = {
        let mut api = net.api();
        // Two publishers feed the same subject.
        api.announce(NodeId(0), S1, ChannelSpec::srt(SrtSpec::default()))
            .unwrap();
        api.announce(NodeId(1), S1, ChannelSpec::srt(SrtSpec::default()))
            .unwrap();
        // Subscriber only wants node 1's events.
        api.subscribe(NodeId(2), S1, SubscribeSpec::from_origins(vec![NodeId(1)]))
            .unwrap()
    };
    net.after(Duration::ZERO, |api| {
        api.publish(NodeId(0), S1, Event::new(S1, vec![0])).unwrap();
        api.publish(NodeId(1), S1, Event::new(S1, vec![1])).unwrap();
    });
    net.run_for(Duration::from_ms(2));
    let deliveries = q.drain();
    assert_eq!(deliveries.len(), 1);
    assert_eq!(deliveries[0].event.attributes.origin, Some(NodeId(1)));
    assert_eq!(net.stats().channel_etag_of(&net, S1).filtered, 1);
}

#[test]
fn cancel_subscription_stops_deliveries() {
    let mut net = Network::builder().nodes(2).build();
    let q = {
        let mut api = net.api();
        api.announce(NodeId(0), S1, ChannelSpec::srt(SrtSpec::default()))
            .unwrap();
        api.subscribe(NodeId(1), S1, SubscribeSpec::default())
            .unwrap()
    };
    net.after(Duration::ZERO, |api| {
        api.publish(NodeId(0), S1, Event::new(S1, vec![1])).unwrap();
    });
    net.after(Duration::from_ms(1), |api| {
        api.cancel_subscription(NodeId(1), S1).unwrap();
        api.publish(NodeId(0), S1, Event::new(S1, vec![2])).unwrap();
    });
    net.run_for(Duration::from_ms(3));
    let deliveries = q.drain();
    assert_eq!(deliveries.len(), 1, "only the pre-cancel event arrives");
    assert_eq!(deliveries[0].event.content, vec![1]);
}

#[test]
fn notification_handler_fires_on_delivery() {
    let mut net = Network::builder().nodes(2).build();
    let seen: Rc<RefCell<Vec<Vec<u8>>>> = Rc::new(RefCell::new(vec![]));
    let s = seen.clone();
    {
        let mut api = net.api();
        api.announce(NodeId(0), S1, ChannelSpec::srt(SrtSpec::default()))
            .unwrap();
        api.subscribe_with(
            NodeId(1),
            S1,
            SubscribeSpec::default(),
            move |delivery| s.borrow_mut().push(delivery.event.content.clone()),
            |_exc| {},
        )
        .unwrap();
    }
    net.after(Duration::ZERO, |api| {
        api.publish(NodeId(0), S1, Event::new(S1, vec![42]))
            .unwrap();
    });
    net.run_for(Duration::from_ms(1));
    assert_eq!(*seen.borrow(), vec![vec![42]]);
}

#[test]
fn dynamic_binding_assigns_etags_over_the_wire() {
    let mut net = Network::builder().nodes(3).dynamic_binding(true).build();
    let q = {
        let mut api = net.api();
        // Node 1 (not the agent) announces; node 2 subscribes.
        api.announce(NodeId(1), S1, ChannelSpec::srt(SrtSpec::default()))
            .unwrap();
        api.subscribe(NodeId(2), S1, SubscribeSpec::default())
            .unwrap()
    };
    // Publishing while the binding is still in flight must not error:
    // the middleware queues the event. (Whether that early event reaches
    // the subscriber depends on whether the *subscriber's* binding — a
    // separate protocol exchange — completed first, so we only assert
    // delivery for the post-binding publish.)
    net.after(Duration::from_us(1), |api| {
        api.publish(NodeId(1), S1, Event::new(S1, vec![9])).unwrap();
    });
    net.after(Duration::from_ms(3), |api| {
        api.publish(NodeId(1), S1, Event::new(S1, vec![10]))
            .unwrap();
    });
    net.run_for(Duration::from_ms(6));
    assert_eq!(
        net.world().registry().etag_of(S1),
        Some(rtec_core::binding::ETAG_FIRST_DYNAMIC)
    );
    let deliveries = q.drain();
    assert!(!deliveries.is_empty(), "post-binding publish is delivered");
    assert_eq!(deliveries.last().unwrap().event.content, vec![10]);
    // Both publishes went out on the wire once bound.
    assert_eq!(net.stats().channel_etag_of(&net, S1).published, 2);
    // Binding traffic really went over the bus: two requests (node 1 and
    // node 2), two replies, plus the data frames.
    assert!(
        net.world().bus.stats.frames_ok >= 6,
        "requests + replies + data"
    );
}

#[test]
fn dynamic_binding_multiple_subjects_same_node() {
    let mut net = Network::builder().nodes(2).dynamic_binding(true).build();
    let (q1, q2) = {
        let mut api = net.api();
        api.announce(NodeId(1), S1, ChannelSpec::srt(SrtSpec::default()))
            .unwrap();
        api.announce(NodeId(1), S2, ChannelSpec::srt(SrtSpec::default()))
            .unwrap();
        (
            api.subscribe(NodeId(0), S1, SubscribeSpec::default())
                .unwrap(),
            api.subscribe(NodeId(0), S2, SubscribeSpec::default())
                .unwrap(),
        )
    };
    net.after(Duration::from_us(1), |api| {
        api.publish(NodeId(1), S1, Event::new(S1, vec![1])).unwrap();
        api.publish(NodeId(1), S2, Event::new(S2, vec![2])).unwrap();
    });
    net.run_for(Duration::from_ms(10));
    assert_eq!(q1.drain().len(), 1);
    assert_eq!(q2.drain().len(), 1);
    assert_ne!(
        net.world().registry().etag_of(S1),
        net.world().registry().etag_of(S2)
    );
}

#[test]
fn payload_limits_enforced_per_class() {
    let mut net = Network::builder().nodes(2).build();
    let mut api = net.api();
    api.announce(NodeId(0), S1, ChannelSpec::srt(SrtSpec::default()))
        .unwrap();
    let err = api
        .publish(NodeId(0), S1, Event::new(S1, vec![0; 9]))
        .unwrap_err();
    assert!(matches!(
        err,
        ChannelError::PayloadTooLong { len: 9, max: 8 }
    ));

    api.announce(NodeId(0), S2, ChannelSpec::nrt(NrtSpec::default()))
        .unwrap();
    let err2 = api
        .publish(NodeId(0), S2, Event::new(S2, vec![0; 9]))
        .unwrap_err();
    assert!(matches!(err2, ChannelError::PayloadTooLong { .. }));
}

#[test]
fn srt_queue_peak_tracks_buildup() {
    let mut net = Network::builder().nodes(2).build();
    {
        let mut api = net.api();
        api.announce(
            NodeId(0),
            S1,
            ChannelSpec::srt(SrtSpec {
                default_deadline: Duration::from_ms(100),
                default_expiration: None,
                ..SrtSpec::default()
            }),
        )
        .unwrap();
        api.subscribe(NodeId(1), S1, SubscribeSpec::default())
            .unwrap();
    }
    net.after(Duration::ZERO, |api| {
        for i in 0..10u8 {
            api.publish(NodeId(0), S1, Event::new(S1, vec![i])).unwrap();
        }
    });
    net.run_for(Duration::from_ms(50));
    assert_eq!(net.world().srt_queue(NodeId(0)).peak(), 10);
    assert_eq!(net.world().srt_queue(NodeId(0)).len(), 0, "drained");
}

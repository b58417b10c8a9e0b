//! Additional middleware scenarios: many-to-many channels, ordering
//! across announce/subscribe, promotion effects, NRT FIFO and tracing.

use rtec_analysis::edf::{priority_for_deadline, PrioritySlotConfig};
use rtec_core::channel::HrtSpec;
use rtec_core::prelude::*;

const S: Subject = Subject::new(0x9101);

#[test]
fn two_publishers_one_hrt_channel_two_slot_trains() {
    // §3.1: "if multiple publishers provide input to the same channel,
    // multiple slots have to be reserved" — one per publisher.
    let mut net = Network::builder()
        .nodes(4)
        .round(Duration::from_ms(10))
        .build();
    let q = {
        let mut api = net.api();
        let spec = ChannelSpec::hrt(HrtSpec {
            period: Duration::from_ms(10),
            dlc: 8,
            omission_degree: 1,
            sporadic: false,
        });
        api.announce(NodeId(0), S, spec).unwrap();
        api.announce(NodeId(1), S, spec).unwrap();
        let q = api
            .subscribe(NodeId(2), S, SubscribeSpec::default())
            .unwrap();
        api.install_calendar().unwrap();
        q
    };
    // The calendar holds two slot trains for the same etag.
    let plan = net.world().calendar().unwrap().clone();
    let etag = net.world().registry().etag_of(S).unwrap();
    let owners: Vec<_> = plan
        .slots
        .iter()
        .filter(|s| s.etag == etag)
        .map(|s| s.publisher)
        .collect();
    assert_eq!(owners.len(), 2);
    assert!(owners.contains(&NodeId(0)) && owners.contains(&NodeId(1)));

    net.every(Duration::from_ms(10), Duration::from_us(100), |api| {
        let _ = api.publish(NodeId(0), S, Event::new(S, vec![0xA0; 8]));
        let _ = api.publish(NodeId(1), S, Event::new(S, vec![0xB1; 8]));
    });
    net.run_for(Duration::from_ms(105));
    let deliveries = q.drain();
    // Two deliveries per round, one from each publisher.
    assert!(
        (18..=22).contains(&deliveries.len()),
        "{}",
        deliveries.len()
    );
    let from0 = deliveries
        .iter()
        .filter(|d| d.event.attributes.origin == Some(NodeId(0)))
        .count();
    let from1 = deliveries
        .iter()
        .filter(|d| d.event.attributes.origin == Some(NodeId(1)))
        .count();
    assert!(from0 >= 9 && from1 >= 9, "{from0}/{from1}");
    assert_eq!(net.stats().channel(etag).missing_events, 0);
}

#[test]
fn subscribe_before_announce_works() {
    // P/S decouples the two sides: subscription may precede any
    // publisher's announcement.
    let mut net = Network::builder().nodes(3).build();
    let q = {
        let mut api = net.api();
        let q = api
            .subscribe(NodeId(1), S, SubscribeSpec::default())
            .unwrap();
        api.announce(NodeId(0), S, ChannelSpec::srt(SrtSpec::default()))
            .unwrap();
        q
    };
    net.after(Duration::from_us(5), |api| {
        api.publish(NodeId(0), S, Event::new(S, vec![3])).unwrap();
    });
    net.run_for(Duration::from_ms(1));
    assert_eq!(q.drain().len(), 1);
}

#[test]
fn hrt_spec_mismatch_across_publishers_is_rejected() {
    let mut net = Network::builder().nodes(3).build();
    let mut api = net.api();
    api.announce(NodeId(0), S, ChannelSpec::srt(SrtSpec::default()))
        .unwrap();
    // A second publisher must not re-type the channel.
    let err = api
        .announce(NodeId(1), S, ChannelSpec::hrt(HrtSpec::periodic_10ms()))
        .unwrap_err();
    assert_eq!(err, rtec_core::channel::ChannelError::SpecMismatch(S));
}

#[test]
fn nrt_transfers_from_one_node_are_fifo() {
    let mut net = Network::builder().nodes(2).build();
    let q = {
        let mut api = net.api();
        api.announce(NodeId(0), S, ChannelSpec::nrt(NrtSpec::bulk()))
            .unwrap();
        api.subscribe(NodeId(1), S, SubscribeSpec::default())
            .unwrap()
    };
    net.after(Duration::ZERO, |api| {
        for i in 0..3u8 {
            api.publish(NodeId(0), S, Event::new(S, vec![i; 100]))
                .unwrap();
        }
    });
    net.run_for(Duration::from_ms(100));
    let deliveries = q.drain();
    assert_eq!(deliveries.len(), 3);
    for (i, d) in deliveries.iter().enumerate() {
        assert_eq!(d.event.content, vec![i as u8; 100], "FIFO order");
    }
}

#[test]
fn srt_promotion_lets_an_old_message_beat_fresh_urgent_traffic() {
    // Ablation pair: with dynamic promotion, a message that has waited
    // long enough out-prioritizes a newer message with a farther
    // absolute deadline published elsewhere. With promotion off (each
    // channel fixed at its laxity-at-release priority) it keeps losing
    // until the other node's queue empties.
    let run = |promotion: bool| {
        let mut net = Network::builder().nodes(3).build();
        let srt = |deadline: Duration| {
            let priority = if promotion {
                SrtPriority::Slots
            } else {
                let slots = PrioritySlotConfig::paper_default();
                SrtPriority::Fixed(priority_for_deadline(
                    Time::ZERO + deadline,
                    Time::ZERO,
                    &slots,
                ))
            };
            ChannelSpec::srt(SrtSpec {
                default_deadline: deadline,
                default_expiration: None,
                priority,
            })
        };
        let a = Subject::new(1);
        let b = Subject::new(2);
        let qa = {
            let mut api = net.api();
            api.announce(NodeId(0), a, srt(Duration::from_ms(3)))
                .unwrap();
            api.announce(NodeId(1), b, srt(Duration::from_ms(2)))
                .unwrap();
            let qa = api
                .subscribe(NodeId(2), a, SubscribeSpec::default())
                .unwrap();
            api.subscribe(NodeId(2), b, SubscribeSpec::default())
                .unwrap();
            qa
        };
        // B floods beyond bus capacity (a frame every 130 µs vs a
        // ~135 µs wire time) from t = 0 ...
        net.every(Duration::from_us(130), Duration::ZERO, move |api| {
            let _ = api.publish(NodeId(1), b, Event::new(b, vec![0xBB; 8]));
        });
        // ... and one message on A at t = 1 ms with a 3 ms deadline.
        net.at(Time::from_ms(1), move |api| {
            api.publish(NodeId(0), a, Event::new(a, vec![0xAA; 8]))
                .unwrap();
        });
        net.run_for(Duration::from_ms(30));
        // When did A's message reach the wire (MAX = starved)?
        qa.drain()
            .first()
            .map_or(Time::MAX, |d| d.wire_completed_at)
    };
    let with_promo = run(true);
    let without = run(false);
    // With promotion, A's message reaches a more urgent priority than
    // B's fresh 2 ms-deadline messages before its own 3 ms deadline and
    // gets through; without promotion its static laxity-at-enqueue
    // priority loses to the flood indefinitely.
    assert!(
        with_promo < without,
        "promotion speeds A up: {with_promo} !< {without}"
    );
    assert!(
        with_promo <= Time::from_ms(5),
        "promoted message met (roughly) its deadline: {with_promo}"
    );
    assert_eq!(
        without,
        Time::MAX,
        "unpromoted message starves in the flood"
    );
}

#[test]
fn trace_records_slot_and_bus_events() {
    let mut net = Network::builder()
        .nodes(3)
        .round(Duration::from_ms(10))
        .build();
    let sink = net.enable_trace();
    {
        let mut api = net.api();
        api.announce(NodeId(0), S, ChannelSpec::hrt(HrtSpec::periodic_10ms()))
            .unwrap();
        api.subscribe(NodeId(1), S, SubscribeSpec::default())
            .unwrap();
        api.install_calendar().unwrap();
    }
    net.every(Duration::from_ms(10), Duration::from_us(100), |api| {
        let _ = api.publish(NodeId(0), S, Event::new(S, vec![1; 8]));
    });
    net.run_for(Duration::from_ms(25));
    assert!(!sink.is_empty());
    assert!(!sink.events_of_kind("slot_ready").is_empty());
    assert!(!sink.events_of_kind("tx_start").is_empty());
    assert!(!sink.events_of_kind("tx_end").is_empty());
    // Events are timestamped in order.
    let events = sink.events();
    for w in events.windows(2) {
        assert!(w[0].time <= w[1].time);
    }
}

#[test]
fn channel_directory_lists_bound_channels() {
    let mut net = Network::builder().nodes(4).build();
    let a = Subject::new(0xD001);
    let b = Subject::new(0xD002);
    {
        let mut api = net.api();
        api.announce(NodeId(0), a, ChannelSpec::srt(SrtSpec::default()))
            .unwrap();
        api.announce(NodeId(1), b, ChannelSpec::nrt(NrtSpec::bulk()))
            .unwrap();
        api.subscribe(NodeId(2), a, SubscribeSpec::default())
            .unwrap();
        api.subscribe(NodeId(3), a, SubscribeSpec::default())
            .unwrap();
    }
    let dir = net.world().channels();
    assert_eq!(dir.len(), 2);
    assert_eq!(dir[0].1, a);
    assert_eq!(dir[0].2, rtec_core::ChannelClass::Srt);
    assert_eq!(dir[1].2, rtec_core::ChannelClass::Nrt);
    let etag_a = net.world().registry().etag_of(a).unwrap();
    let subs = net.world().subscribers_of(etag_a);
    assert_eq!(subs, vec![NodeId(2), NodeId(3)]);
    assert_eq!(net.world().channel_subject(etag_a), Some(a));
    assert!(net.world().subscribers_of(9999).is_empty());
}

//! End-to-end tests of the hard real-time event channel: calendar
//! reservations, LST priority raising, jitter removal, time redundancy
//! with early stop, and non-interference with lower channel classes.

use rtec_can::bits::BitTiming;
use rtec_can::FaultModel;
use rtec_core::channel::HrtSpec;
use rtec_core::network::CalendarError;
use rtec_core::prelude::*;
use std::cell::RefCell;
use std::rc::Rc;

const SENSOR: Subject = Subject::new(0x2001);
const NOISE: Subject = Subject::new(0x2002);

fn hrt_spec(period_ms: u64, k: u32) -> HrtSpec {
    HrtSpec {
        period: Duration::from_ms(period_ms),
        dlc: 8,
        omission_degree: k,
        sporadic: false,
    }
}

/// Build a 4-node net: node 0 publishes SENSOR on HRT; node 2
/// subscribes; returns (net, queue).
fn hrt_net(k: u32) -> (Network, EventQueue) {
    let mut net = Network::builder()
        .nodes(4)
        .round(Duration::from_ms(10))
        .build();
    let q = {
        let mut api = net.api();
        api.announce(NodeId(0), SENSOR, ChannelSpec::hrt(hrt_spec(10, k)))
            .unwrap();
        let q = api
            .subscribe(NodeId(2), SENSOR, SubscribeSpec::default())
            .unwrap();
        api.install_calendar().unwrap();
        q
    };
    // Publish fresh sensor data every round, well before each slot.
    net.every(Duration::from_ms(10), Duration::from_us(100), |api| {
        let t = api.now().as_ns().to_le_bytes();
        let _ = api.publish(NodeId(0), SENSOR, Event::new(SENSOR, t.to_vec()));
    });
    (net, q)
}

fn etag_of(net: &Network, s: Subject) -> u16 {
    net.world().registry().etag_of(s).expect("bound")
}

#[test]
fn hrt_periodic_delivery_every_round() {
    let (mut net, q) = hrt_net(2);
    net.run_for(Duration::from_ms(105));
    let deliveries = q.drain();
    assert!(
        (9..=11).contains(&deliveries.len()),
        "one delivery per 10 ms round, got {}",
        deliveries.len()
    );
    let st = net.stats().channel(etag_of(&net, SENSOR));
    assert_eq!(st.missing_events, 0);
    assert_eq!(st.redundancy_exhausted, 0);
}

#[test]
fn hrt_delivery_jitter_is_zero_on_a_fault_free_bus() {
    let (mut net, q) = hrt_net(2);
    net.run_for(Duration::from_ms(205));
    let deliveries = q.drain();
    assert!(deliveries.len() >= 18);
    // Deliveries are spaced exactly one period apart: the middleware
    // delivers at the slot deadline regardless of when the frame
    // actually completed (§3.2 — "HRT messages are always delivered by
    // the middleware at the predefined transmission deadline").
    let mut gaps = vec![];
    for w in deliveries.windows(2) {
        gaps.push(w[1].delivered_at.saturating_since(w[0].delivered_at));
    }
    for g in &gaps {
        assert_eq!(*g, Duration::from_ms(10), "zero period jitter");
    }
    let st = net.stats().channel(etag_of(&net, SENSOR));
    assert_eq!(st.delivery_jitter_ns(), 0);
}

#[test]
fn hrt_jitter_removal_hides_wire_jitter_under_background_load() {
    // Saturating SRT background makes the *wire* completion time vary
    // inside the slot (blocking before the LST), but deliveries stay
    // exactly periodic. The ablation (deferred delivery off) exposes
    // the wire jitter to the application.
    let build = |deferred: bool| {
        let mut net = Network::builder()
            .nodes(4)
            .round(Duration::from_ms(10))
            .hrt_deferred_delivery(deferred)
            .seed(7)
            .build();
        let q = {
            let mut api = net.api();
            api.announce(NodeId(0), SENSOR, ChannelSpec::hrt(hrt_spec(10, 1)))
                .unwrap();
            api.announce(NodeId(1), NOISE, ChannelSpec::srt(SrtSpec::default()))
                .unwrap();
            let q = api
                .subscribe(NodeId(2), SENSOR, SubscribeSpec::default())
                .unwrap();
            api.subscribe(NodeId(3), NOISE, SubscribeSpec::default())
                .unwrap();
            api.install_calendar().unwrap();
            q
        };
        net.every(Duration::from_ms(10), Duration::from_us(100), |api| {
            let _ = api.publish(NodeId(0), SENSOR, Event::new(SENSOR, vec![1; 8]));
        });
        // Irregular SRT background that keeps the bus busy.
        net.every(Duration::from_us(137), Duration::ZERO, |api| {
            let base = api.now_global(NodeId(1));
            let _ = api.publish(
                NodeId(1),
                NOISE,
                Event::new(NOISE, vec![0xFF; 8]).with_deadline(base + Duration::from_ms(5)),
            );
        });
        net.run_for(Duration::from_ms(200));
        let deliveries = q.drain();
        let mut spread_min = u64::MAX;
        let mut spread_max = 0u64;
        for w in deliveries.windows(2) {
            let gap = w[1]
                .delivered_at
                .saturating_since(w[0].delivered_at)
                .as_ns();
            spread_min = spread_min.min(gap);
            spread_max = spread_max.max(gap);
        }
        (spread_max - spread_min, deliveries.len())
    };
    let (jitter_deferred, n1) = build(true);
    let (jitter_immediate, n2) = build(false);
    assert!(n1 >= 15 && n2 >= 15);
    assert_eq!(jitter_deferred, 0, "deferred delivery removes all jitter");
    assert!(
        jitter_immediate > 0,
        "without deferral the wire jitter reaches the application"
    );
}

#[test]
fn hrt_blocking_at_lst_is_bounded_by_delta_t_wait() {
    // Even under adversarial background traffic, the HRT frame waits at
    // most one maximal frame after its LST (non-preemption bound).
    let mut net = Network::builder()
        .nodes(4)
        .round(Duration::from_ms(10))
        .build();
    {
        let mut api = net.api();
        api.announce(NodeId(0), SENSOR, ChannelSpec::hrt(hrt_spec(10, 1)))
            .unwrap();
        api.announce(NodeId(1), NOISE, ChannelSpec::srt(SrtSpec::default()))
            .unwrap();
        api.subscribe(NodeId(2), SENSOR, SubscribeSpec::default())
            .unwrap();
        api.subscribe(NodeId(3), NOISE, SubscribeSpec::default())
            .unwrap();
        api.install_calendar().unwrap();
    }
    net.every(Duration::from_ms(10), Duration::from_us(100), |api| {
        let _ = api.publish(NodeId(0), SENSOR, Event::new(SENSOR, vec![1; 8]));
    });
    net.every(Duration::from_us(130), Duration::ZERO, |api| {
        let base = api.now_global(NodeId(1));
        let _ = api.publish(
            NodeId(1),
            NOISE,
            Event::new(NOISE, vec![0xFF; 8]).with_deadline(base + Duration::from_ms(2)),
        );
    });
    net.run_for(Duration::from_ms(300));
    let max_block = net.stats().max_lst_blocking();
    assert!(
        max_block > Duration::ZERO,
        "background traffic does block sometimes"
    );
    assert!(
        max_block <= BitTiming::MBIT_1.delta_t_wait_tight(),
        "blocking {max_block} exceeds ΔT_wait"
    );
}

#[test]
fn hrt_masks_omissions_within_budget_via_redundancy() {
    let (mut net, q) = hrt_net(2);
    // Omit the first 2 transmissions of every activation — exactly the
    // assumed omission degree.
    let etag = etag_of(&net, SENSOR);
    net.world_mut()
        .bus
        .injector_mut()
        .set_model(FaultModel::OmitRun {
            etag: Some(etag),
            run_len: 2,
        });
    // Reset the omission run at each round boundary so every activation
    // suffers the full degree.
    net.every(Duration::from_ms(10), Duration::from_us(50), |api| {
        api.world_mut().bus.injector_mut().reset_runs();
    });
    net.run_for(Duration::from_ms(105));
    let deliveries = q.drain();
    assert!(
        deliveries.len() >= 9,
        "all events delivered despite omissions, got {}",
        deliveries.len()
    );
    let st = net.stats().channel(etag);
    assert!(
        st.redundant_transmissions >= 18,
        "2 extra transmissions per event"
    );
    assert_eq!(st.missing_events, 0);
    assert_eq!(st.redundancy_exhausted, 0);
    // And deliveries are still perfectly periodic (redundancy happens
    // inside the slot).
    for w in deliveries.windows(2) {
        assert_eq!(
            w[1].delivered_at.saturating_since(w[0].delivered_at),
            Duration::from_ms(10)
        );
    }
}

#[test]
fn hrt_fault_assumption_violation_is_detected() {
    // Omission degree 3 > budget k=1: the publisher reports
    // RedundancyExhausted and the subscriber MissingEvent.
    let mut net = Network::builder()
        .nodes(4)
        .round(Duration::from_ms(10))
        .build();
    let pub_exc: Rc<RefCell<u32>> = Rc::new(RefCell::new(0));
    let sub_exc: Rc<RefCell<u32>> = Rc::new(RefCell::new(0));
    let (pe, se) = (pub_exc.clone(), sub_exc.clone());
    let q = {
        let mut api = net.api();
        api.announce_with_handler(
            NodeId(0),
            SENSOR,
            ChannelSpec::hrt(hrt_spec(10, 1)),
            move |exc| {
                if matches!(exc, rtec_core::ChannelException::RedundancyExhausted { .. }) {
                    *pe.borrow_mut() += 1;
                }
            },
        )
        .unwrap();
        let q = api
            .subscribe_with(
                NodeId(2),
                SENSOR,
                SubscribeSpec::default(),
                |_d| {},
                move |exc| {
                    if matches!(exc, rtec_core::ChannelException::MissingEvent { .. }) {
                        *se.borrow_mut() += 1;
                    }
                },
            )
            .unwrap();
        api.install_calendar().unwrap();
        q
    };
    let etag = etag_of(&net, SENSOR);
    net.world_mut()
        .bus
        .injector_mut()
        .set_model(FaultModel::OmitRun {
            etag: Some(etag),
            run_len: 10, // every transmission of the activation omitted
        });
    net.every(Duration::from_ms(10), Duration::from_us(100), |api| {
        let _ = api.publish(NodeId(0), SENSOR, Event::new(SENSOR, vec![1; 8]));
        api.world_mut().bus.injector_mut().reset_runs();
    });
    net.run_for(Duration::from_ms(55));
    assert!(
        q.is_empty(),
        "nothing delivered beyond the fault assumption"
    );
    assert!(
        *pub_exc.borrow() >= 4,
        "publisher exceptions: {}",
        pub_exc.borrow()
    );
    assert!(
        *sub_exc.borrow() >= 4,
        "subscriber exceptions: {}",
        sub_exc.borrow()
    );
}

#[test]
fn hrt_early_stop_reclaims_unused_redundancy_bandwidth() {
    // With k = 2 and a fault-free bus, only ONE transmission per event
    // happens — the redundancy costs bandwidth only when faults occur
    // (§3.2). SRT traffic gets the reclaimed slot time.
    let (mut net, _q) = hrt_net(2);
    net.run_for(Duration::from_ms(105));
    let st = net.stats().channel(etag_of(&net, SENSOR));
    assert_eq!(st.redundant_transmissions, 0);
    assert_eq!(
        st.wire_transmissions,
        st.published.min(st.wire_transmissions)
    );
    // Wire transmissions equal the number of slots served.
    assert!((9..=11).contains(&st.wire_transmissions));
}

#[test]
fn hrt_sporadic_channel_empty_slots_are_silent() {
    let mut net = Network::builder()
        .nodes(3)
        .round(Duration::from_ms(10))
        .build();
    let q = {
        let mut api = net.api();
        api.announce(
            NodeId(0),
            SENSOR,
            ChannelSpec::hrt(HrtSpec {
                sporadic: true,
                ..hrt_spec(10, 1)
            }),
        )
        .unwrap();
        let q = api
            .subscribe(NodeId(1), SENSOR, SubscribeSpec::default())
            .unwrap();
        api.install_calendar().unwrap();
        q
    };
    // Publish only twice over 10 rounds.
    net.after(Duration::from_ms(12), |api| {
        api.publish(NodeId(0), SENSOR, Event::new(SENSOR, vec![1]))
            .unwrap();
    });
    net.after(Duration::from_ms(52), |api| {
        api.publish(NodeId(0), SENSOR, Event::new(SENSOR, vec![2]))
            .unwrap();
    });
    net.run_for(Duration::from_ms(105));
    assert_eq!(q.drain().len(), 2);
    let st = net.stats().channel(etag_of(&net, SENSOR));
    assert_eq!(
        st.missing_events, 0,
        "sporadic: empty slots are not missing"
    );
}

#[test]
fn hrt_periodic_channel_missing_event_detected_when_publisher_stops() {
    let (mut net, q) = hrt_net(1);
    // The recurring publisher publishes forever; run a while, then
    // check that stopping publications would be detected. Simulate the
    // stop by crashing the publisher node's application: cancel is not
    // allowed for HRT, so instead build a second net whose publisher
    // publishes only 3 times.
    net.run_for(Duration::from_ms(45));
    let st0 = net.stats().channel(etag_of(&net, SENSOR)).missing_events;
    assert_eq!(st0, 0);
    drop(q);

    let mut net2 = Network::builder()
        .nodes(3)
        .round(Duration::from_ms(10))
        .build();
    let q2 = {
        let mut api = net2.api();
        api.announce(NodeId(0), SENSOR, ChannelSpec::hrt(hrt_spec(10, 1)))
            .unwrap();
        let q = api
            .subscribe(NodeId(1), SENSOR, SubscribeSpec::default())
            .unwrap();
        api.install_calendar().unwrap();
        q
    };
    for i in 0..3u64 {
        net2.at(Time::from_us(100) + Duration::from_ms(10 * i), move |api| {
            api.publish(NodeId(0), SENSOR, Event::new(SENSOR, vec![i as u8]))
                .unwrap();
        });
    }
    net2.run_for(Duration::from_ms(105));
    assert_eq!(q2.drain().len(), 3);
    let missing = net2.stats().channel(etag_of(&net2, SENSOR)).missing_events;
    assert!(
        (6..=8).contains(&missing),
        "~7 empty periodic slots detected, got {missing}"
    );
}

#[test]
fn hrt_announce_after_calendar_is_rejected() {
    let mut net = Network::builder().nodes(3).build();
    let mut api = net.api();
    api.announce(NodeId(0), SENSOR, ChannelSpec::hrt(hrt_spec(10, 1)))
        .unwrap();
    api.install_calendar().unwrap();
    let err = api
        .announce(NodeId(1), NOISE, ChannelSpec::hrt(hrt_spec(10, 1)))
        .unwrap_err();
    assert!(matches!(
        err,
        rtec_core::channel::ChannelError::CalendarState(_)
    ));
    assert_eq!(api.install_calendar(), Err(CalendarError::AlreadyInstalled));
}

#[test]
fn hrt_publish_requires_calendar() {
    let mut net = Network::builder().nodes(3).build();
    let mut api = net.api();
    api.announce(NodeId(0), SENSOR, ChannelSpec::hrt(hrt_spec(10, 1)))
        .unwrap();
    let err = api
        .publish(NodeId(0), SENSOR, Event::new(SENSOR, vec![1]))
        .unwrap_err();
    assert!(matches!(
        err,
        rtec_core::channel::ChannelError::CalendarState(_)
    ));
}

#[test]
fn hrt_admission_rejects_overload() {
    let mut net = Network::builder()
        .nodes(8)
        .round(Duration::from_ms(1))
        .build();
    let mut api = net.api();
    // Each k=2 slot is ~720 µs; two of them cannot fit in a 1 ms round.
    for (i, s) in [(0u8, 0x3001u64), (1, 0x3002)] {
        api.announce(
            NodeId(i),
            Subject::new(s),
            ChannelSpec::hrt(HrtSpec {
                period: Duration::from_ms(1),
                dlc: 8,
                omission_degree: 2,
                sporadic: false,
            }),
        )
        .unwrap();
    }
    let err = api.install_calendar().unwrap_err();
    assert!(matches!(err, CalendarError::Admission(_)), "{err:?}");
}

#[test]
fn hrt_multiple_channels_coexist() {
    let mut net = Network::builder()
        .nodes(5)
        .round(Duration::from_ms(10))
        .build();
    let s_a = Subject::new(0x4001);
    let s_b = Subject::new(0x4002);
    let (qa, qb) = {
        let mut api = net.api();
        api.announce(NodeId(0), s_a, ChannelSpec::hrt(hrt_spec(10, 1)))
            .unwrap();
        api.announce(NodeId(1), s_b, ChannelSpec::hrt(hrt_spec(5, 1)))
            .unwrap();
        let qa = api
            .subscribe(NodeId(2), s_a, SubscribeSpec::default())
            .unwrap();
        let qb = api
            .subscribe(NodeId(3), s_b, SubscribeSpec::default())
            .unwrap();
        api.install_calendar().unwrap();
        (qa, qb)
    };
    net.every(Duration::from_ms(10), Duration::from_us(100), move |api| {
        let _ = api.publish(NodeId(0), s_a, Event::new(s_a, vec![0xA; 8]));
    });
    net.every(Duration::from_ms(5), Duration::from_us(100), move |api| {
        let _ = api.publish(NodeId(1), s_b, Event::new(s_b, vec![0xB; 8]));
    });
    net.run_for(Duration::from_ms(105));
    let da = qa.drain();
    let db = qb.drain();
    assert!((9..=11).contains(&da.len()), "A: {}", da.len());
    assert!((19..=21).contains(&db.len()), "B: {}", db.len());
    // No cross-talk.
    assert!(da.iter().all(|d| d.event.content[0] == 0xA));
    assert!(db.iter().all(|d| d.event.content[0] == 0xB));
    // Both channels kept their guarantees.
    assert_eq!(net.stats().channel(etag_of(&net, s_a)).missing_events, 0);
    assert_eq!(net.stats().channel(etag_of(&net, s_b)).missing_events, 0);
}

#[test]
fn hrt_latency_bounded_by_slot_deadline_offset() {
    let (mut net, q) = hrt_net(2);
    net.run_for(Duration::from_ms(105));
    drop(q);
    let st = net.stats().channel(etag_of(&net, SENSOR));
    // Latency (slot ready -> delivery) is exactly the slot's deadline
    // offset: ΔT_wait + (k+1)C + k*E. For k=2, dlc=8:
    // 154 + 3*160 + 2*23 = 680 µs.
    let lat = st.latency_ns.clone();
    assert!(lat.count() >= 9);
    assert_eq!(lat.min(), lat.max(), "deterministic latency");
    assert_eq!(lat.min().unwrap(), 680_000);
}

#[test]
fn hrt_latency_is_sampled_for_every_delivery() {
    // Every delivery is accounted against its slot's ready instant:
    // with two subscribers each one's delivery is a sample, and so is
    // an immediate (non-deferred) delivery on reception.
    for deferred in [true, false] {
        let mut net = Network::builder()
            .nodes(4)
            .round(Duration::from_ms(10))
            .hrt_deferred_delivery(deferred)
            .build();
        let _queues = {
            let mut api = net.api();
            api.announce(NodeId(0), SENSOR, ChannelSpec::hrt(hrt_spec(10, 1)))
                .unwrap();
            let qs = [NodeId(2), NodeId(3)]
                .map(|n| api.subscribe(n, SENSOR, SubscribeSpec::default()).unwrap());
            api.install_calendar().unwrap();
            qs
        };
        net.every(Duration::from_ms(10), Duration::from_us(100), |api| {
            let _ = api.publish(NodeId(0), SENSOR, Event::new(SENSOR, vec![1; 8]));
        });
        net.run_for(Duration::from_secs(1));
        let st = net.stats().channel(etag_of(&net, SENSOR));
        assert!(st.delivered >= 198, "deferred {deferred}: {}", st.delivered);
        assert_eq!(
            st.latency_ns.count() as u64,
            st.delivered,
            "deferred {deferred}: one latency sample per delivery"
        );
    }
}

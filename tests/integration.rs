//! Cross-crate integration tests: the facade crate, analytical models
//! versus simulation, and determinism guarantees.

use proptest::prelude::*;
use rtec::analysis::admission::{CalendarPlan, SlotRequest};
use rtec::analysis::npedf::{np_edf_breakdown, np_edf_feasible};
use rtec::analysis::rta::{rta_feasible, total_utilization, MessageSpec};
use rtec::baselines::{policy, run_testbed, TestbedStats};
use rtec::can::bits::BitTiming;
use rtec::clock::ClockParams;
use rtec::prelude::*;
use rtec::sim::Rng;
use rtec::workloads::{
    sae_class_set, uniform_srt_set, ArrivalPattern, StreamSpec, TimelinessClass,
};

#[test]
fn mixed_classes_share_one_bus() {
    let mut net = Network::builder()
        .nodes(6)
        .round(Duration::from_ms(10))
        .build();
    let sink = net.enable_trace();
    let hard = Subject::new(1);
    let soft = Subject::new(2);
    let bulk = Subject::new(3);
    let (hq, sq, bq) = {
        let mut api = net.api();
        api.announce(
            NodeId(0),
            hard,
            ChannelSpec::hrt(HrtSpec {
                period: Duration::from_ms(10),
                dlc: 8,
                omission_degree: 1,
                sporadic: false,
            }),
        )
        .unwrap();
        api.announce(NodeId(1), soft, ChannelSpec::srt(SrtSpec::default()))
            .unwrap();
        api.announce(NodeId(2), bulk, ChannelSpec::nrt(NrtSpec::bulk()))
            .unwrap();
        let hq = api
            .subscribe(NodeId(3), hard, SubscribeSpec::default())
            .unwrap();
        let sq = api
            .subscribe(NodeId(4), soft, SubscribeSpec::default())
            .unwrap();
        let bq = api
            .subscribe(NodeId(5), bulk, SubscribeSpec::default())
            .unwrap();
        api.install_calendar().unwrap();
        (hq, sq, bq)
    };
    net.every(Duration::from_ms(10), Duration::from_us(100), move |api| {
        let _ = api.publish(NodeId(0), hard, Event::new(hard, vec![1; 8]));
    });
    net.every(Duration::from_ms(2), Duration::from_us(333), move |api| {
        let _ = api.publish(NodeId(1), soft, Event::new(soft, vec![2; 8]));
    });
    net.at(Time::from_ms(5), move |api| {
        api.publish(NodeId(2), bulk, Event::new(bulk, vec![3; 3000]))
            .unwrap();
    });
    net.run_for(Duration::from_ms(500));
    let conf = rtec::conformance::check_network(&net, &sink);
    assert!(conf.passes(), "{conf}");
    let h = hq.drain();
    assert!((48..=50).contains(&h.len()), "HRT: {}", h.len());
    assert!(h
        .windows(2)
        .all(|w| { w[1].delivered_at - w[0].delivered_at == Duration::from_ms(10) }));
    assert!((240..=251).contains(&sq.drain().len()));
    let b = bq.drain();
    assert_eq!(b.len(), 1);
    assert_eq!(b[0].event.content.len(), 3000);
}

#[test]
fn same_seed_same_world() {
    let run = || {
        let mut net = Network::builder().nodes(4).seed(1234).build();
        let s = Subject::new(42);
        let q = {
            let mut api = net.api();
            api.announce(NodeId(0), s, ChannelSpec::srt(SrtSpec::default()))
                .unwrap();
            api.subscribe(NodeId(1), s, SubscribeSpec::default())
                .unwrap()
        };
        net.every(Duration::from_us(777), Duration::ZERO, move |api| {
            let _ = api.publish(NodeId(0), s, Event::new(s, vec![9; 8]));
        });
        net.run_for(Duration::from_ms(50));
        let deliveries: Vec<u64> = q.drain().iter().map(|d| d.delivered_at.as_ns()).collect();
        (deliveries, net.world().bus.stats.frames_ok)
    };
    let a = run();
    let b = run();
    assert_eq!(a, b, "identical seeds must replay identically");
}

#[test]
fn rta_verdict_matches_simulation() {
    // A DM-feasible set must run miss-free in the testbed; the analysis
    // is the off-line promise, the simulation the witness.
    let streams: Vec<StreamSpec> = (0..5)
        .map(|i| StreamSpec {
            id: i,
            node: NodeId(i as u8),
            dlc: 8,
            pattern: ArrivalPattern::periodic(Duration::from_ms(2 + u64::from(i) * 2)),
            rel_deadline: Duration::from_ms(2 + u64::from(i) * 2),
            rel_expiration: None,
        })
        .collect();
    let specs: Vec<MessageSpec> = streams
        .iter()
        .enumerate()
        .map(|(rank, s)| MessageSpec {
            priority: rank as u32,
            dlc: s.dlc,
            period: s.pattern.mean_gap(),
            deadline: s.rel_deadline,
            jitter: Duration::ZERO,
        })
        .collect();
    assert!(total_utilization(&specs, BitTiming::MBIT_1) < 0.3);
    let rta = rta_feasible(&specs, BitTiming::MBIT_1);
    assert!(rta.iter().all(|r| r.feasible), "analysis predicts feasible");
    let config = NetworkConfig {
        seed: 7,
        ..NetworkConfig::default()
    };
    let stats = run_testbed(
        &policy::deadline_monotonic(&streams),
        &streams,
        &config,
        Duration::from_secs(1),
    );
    assert_eq!(stats.missed, 0, "simulation confirms the analysis");
    assert!(stats.completed > 900);
}

/// The demand-bound test's view of a stream set.
fn np_edf_specs(set: &[StreamSpec]) -> Vec<MessageSpec> {
    set.iter()
        .map(|s| MessageSpec {
            priority: 0,
            dlc: s.dlc,
            period: s.pattern.mean_gap(),
            deadline: s.rel_deadline,
            jitter: Duration::ZERO,
        })
        .collect()
}

/// `set` through the node machines at the paper's EDF priorities.
fn run_machines_edf(set: Vec<StreamSpec>, seed: u64, horizon: Duration) -> TestbedStats {
    let config = NetworkConfig {
        seed,
        ..NetworkConfig::default()
    };
    run_testbed(&policy::edf(&set), &set, &config, horizon)
}

#[test]
fn np_edf_analysis_matches_the_node_machine() {
    // A set the demand-bound test declares feasible runs miss-free
    // through the node machines at EDF priorities; an infeasible one
    // misses.
    let feasible: Vec<StreamSpec> = (0..4)
        .map(|i| StreamSpec {
            id: i,
            node: NodeId(i as u8),
            dlc: 8,
            pattern: ArrivalPattern::periodic(Duration::from_ms(1 + u64::from(i))),
            rel_deadline: Duration::from_ms(1 + u64::from(i)),
            rel_expiration: None,
        })
        .collect();
    assert!(np_edf_feasible(&np_edf_specs(&feasible), BitTiming::MBIT_1).feasible);
    let stats = run_machines_edf(feasible.clone(), 13, Duration::from_secs(1));
    assert_eq!(
        stats.missed, 0,
        "analysis says feasible, the machines agree"
    );

    // Push the same set into infeasibility.
    let overloaded = rtec::workloads::scale_load(&feasible, 4.0); // U > 1
    assert!(!np_edf_feasible(&np_edf_specs(&overloaded), BitTiming::MBIT_1).feasible);
    let stats2 = run_machines_edf(overloaded, 13, Duration::from_secs(1));
    assert!(
        stats2.miss_ratio() > 0.2,
        "the machines confirm infeasibility"
    );
}

/// Two to six periodic streams on up to three nodes, with constrained
/// deadlines (`D ≤ T`).
fn arb_np_edf_set() -> impl Strategy<Value = Vec<StreamSpec>> {
    let stream = (0u8..=8, 500u64..20_000, 30u64..=100, 0u8..3);
    prop::collection::vec(stream, 2..=6).prop_map(|streams| {
        let set = streams.into_iter().enumerate();
        set.map(|(i, (dlc, period_us, deadline_pct, node))| StreamSpec {
            id: i as u16,
            node: NodeId(node),
            dlc,
            pattern: ArrivalPattern::periodic(Duration::from_us(period_us)),
            rel_deadline: Duration::from_us(period_us * deadline_pct / 100),
            rel_expiration: None,
        })
        .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The analysis as an oracle of the machine: a set whose np-EDF
    /// breakdown load is at least 1.1 times its own (slack for the
    /// quantization of deadlines into priority slots) runs miss-free
    /// for 1 s through the node machines.
    #[test]
    fn np_edf_feasible_sets_run_miss_free_on_the_node_machine(
        set in arb_np_edf_set(),
        seed in any::<u64>(),
    ) {
        let specs = np_edf_specs(&set);
        let load = total_utilization(&specs, BitTiming::MBIT_1);
        prop_assume!(np_edf_breakdown(&specs, BitTiming::MBIT_1) >= 1.1 * load);
        let stats = run_machines_edf(set, seed, Duration::from_secs(1));
        prop_assert_eq!(stats.missed + stats.stale_backlog, 0);
    }
}

#[test]
fn sae_hard_subset_is_admissible() {
    // The 5/10 ms hard messages of the SAE-class set all fit a 10 ms
    // calendar round with k = 1 redundancy.
    let requests: Vec<SlotRequest> = sae_class_set()
        .iter()
        .filter(|m| m.class == TimelinessClass::Hard)
        .enumerate()
        .map(|(i, m)| {
            let ArrivalPattern::Periodic { period, .. } = m.pattern else {
                panic!("hard messages are periodic");
            };
            SlotRequest {
                etag: 16 + i as u16,
                publisher: m.node,
                dlc: m.dlc,
                omission_degree: 1,
                period,
            }
        })
        .collect();
    let plan = CalendarPlan::plan(
        Duration::from_ms(10),
        &requests,
        BitTiming::MBIT_1,
        Duration::from_us(40),
    )
    .expect("SAE hard subset schedulable");
    plan.validate().unwrap();
    // 3 channels at 5 ms (2 slots each) + 4 at 10 ms.
    assert_eq!(plan.slots.len(), 3 * 2 + 4);
    assert!(plan.reserved_utilization() < 0.6);
}

#[test]
fn drifting_clocks_still_meet_slots_within_the_gap() {
    // ±30 ppm drift accumulates ~9 µs over a 300 ms run — well inside
    // the 40 µs inter-slot gap, so the calendar keeps working without
    // resynchronization. (E9 covers the sync protocol itself.)
    let clocks = vec![
        ClockParams::PERFECT,
        ClockParams {
            drift_ppm: 30.0,
            initial_offset_ns: 2_000.0,
        },
        ClockParams {
            drift_ppm: -30.0,
            initial_offset_ns: -1_500.0,
        },
        ClockParams {
            drift_ppm: 15.0,
            initial_offset_ns: 500.0,
        },
    ];
    let mut net = Network::builder()
        .nodes(4)
        .round(Duration::from_ms(10))
        .clocks(clocks)
        .build();
    let sink = net.enable_trace();
    let s = Subject::new(77);
    let q = {
        let mut api = net.api();
        api.announce(
            NodeId(1),
            s,
            ChannelSpec::hrt(HrtSpec {
                period: Duration::from_ms(10),
                dlc: 8,
                omission_degree: 1,
                sporadic: false,
            }),
        )
        .unwrap();
        let q = api
            .subscribe(NodeId(2), s, SubscribeSpec::default())
            .unwrap();
        api.install_calendar().unwrap();
        q
    };
    net.every(Duration::from_ms(10), Duration::from_us(100), move |api| {
        let _ = api.publish(NodeId(1), s, Event::new(s, vec![1; 8]));
    });
    net.run_for(Duration::from_ms(300));
    // Even with drifting clocks the run must audit clean (the auditor
    // widens its windows by a drift tolerance when clocks are enabled).
    let conf = rtec::conformance::check_network(&net, &sink);
    assert!(conf.passes(), "{conf}");
    let deliveries = q.drain();
    assert!(deliveries.len() >= 28, "{}", deliveries.len());
    let etag = net.world().registry().etag_of(s).unwrap();
    assert_eq!(net.stats().channel(etag).missing_events, 0);
    // Deliveries stay near-periodic; the residual wobble is the clock
    // disagreement, bounded far below the gap.
    for w in deliveries.windows(2) {
        let gap = w[1].delivered_at.saturating_since(w[0].delivered_at);
        let err = gap.as_ns() as i64 - 10_000_000i64;
        assert!(err.unsigned_abs() < 40_000, "wobble {err}ns exceeds ΔG_min");
    }
}

#[test]
fn edf_channels_and_testbed_agree_on_light_load() {
    // The same light workload produces zero misses both through the
    // full middleware (SRTEC) and through the policy testbed.
    let mut rng = Rng::seed_from_u64(3);
    let set = uniform_srt_set(6, 3, Duration::from_ms(20), Duration::from_ms(80), &mut rng);
    let config = NetworkConfig {
        seed: 3,
        ..NetworkConfig::default()
    };
    let tb = run_testbed(&policy::edf(&set), &set, &config, Duration::from_secs(1));
    assert_eq!(tb.missed + tb.dropped, 0);

    let mut net = Network::builder().nodes(3).build();
    let s = Subject::new(5);
    {
        let mut api = net.api();
        api.announce(NodeId(0), s, ChannelSpec::srt(SrtSpec::default()))
            .unwrap();
        api.subscribe(NodeId(1), s, SubscribeSpec::default())
            .unwrap();
    }
    net.every(Duration::from_ms(20), Duration::ZERO, move |api| {
        let _ = api.publish(NodeId(0), s, Event::new(s, vec![1; 8]));
    });
    net.run_for(Duration::from_secs(1));
    let etag = net.world().registry().etag_of(s).unwrap();
    let ch = net.stats().channel(etag);
    assert_eq!(ch.deadline_misses, 0);
    assert_eq!(ch.expired_drops, 0);
    // The final publish may still be in flight at the horizon.
    assert!(ch.delivered >= ch.published - 1);
}

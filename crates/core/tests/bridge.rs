//! Multi-network channels over the store-and-forward gateway (§2.2.1),
//! on a two-segment [`Topology`]. Every scenario runs on both drivers:
//! the parallel run's segment reports (full traces included) must equal
//! the serial run's, and the assertions read the serial run.

use rtec_core::channel::HrtSpec;
use rtec_core::event::Delivery;
use rtec_core::prelude::*;
use rtec_core::topology::{Topology, TopologyReport};
use std::sync::{Arc, Mutex};

const TEMP: Subject = Subject::new(0x8001);
const LATENCY: Duration = Duration::from_ms(1);

/// Deliveries recorded by a subscriber's notification handler.
type Log = Arc<Mutex<Vec<Delivery>>>;

/// Subscribe `node` to `subject`, recording every delivery in `log`.
fn record(net: &mut Network, node: NodeId, subject: Subject, spec: SubscribeSpec, log: &Log) {
    let log = log.clone();
    net.api()
        .subscribe_with(
            node,
            subject,
            spec,
            move |d| log.lock().unwrap().push(d.clone()),
            |_| {},
        )
        .unwrap();
}

fn segment(nodes: usize) -> NetworkConfig {
    NetworkConfig {
        nodes,
        ..NetworkConfig::default()
    }
}

/// Segment A (index 0): field bus with `a` nodes, the last one the
/// gateway. Segment B (index 1): backbone with `b` nodes, likewise.
fn bridged(a: NetworkConfig, b: NetworkConfig) -> Topology {
    let mut topo = Topology::new();
    let gateway = |c: &NetworkConfig| NodeId(c.nodes as u8 - 1);
    topo.add_segment(a.clone(), gateway(&a));
    topo.add_segment(b.clone(), gateway(&b));
    topo
}

/// Build `scenario` twice and run it on both drivers; returns the
/// serial run's report and the logs its scenario recorded into.
fn run_both<L>(scenario: impl Fn() -> (Topology, L), until: Time) -> (TopologyReport, L) {
    let (topo, logs) = scenario();
    let serial = topo.run_serial(until);
    let parallel = scenario().0.run_parallel(until);
    assert_eq!(
        serial.segments, parallel.segments,
        "parallel run diverged from the serial oracle"
    );
    (serial, logs)
}

#[test]
fn events_cross_the_gateway_with_latency() {
    let scenario = || {
        let mut topo = bridged(segment(4), segment(3));
        let far = Log::default();
        // Publisher on the field bus, subscriber on the backbone.
        topo.setup(0, |net| {
            net.api()
                .announce(NodeId(0), TEMP, ChannelSpec::srt(SrtSpec::default()))
                .unwrap();
            net.at(Time::from_ms(2), |api| {
                api.publish(NodeId(0), TEMP, Event::new(TEMP, vec![21, 5]))
                    .unwrap();
            });
        });
        let log = far.clone();
        topo.setup(1, move |net| {
            record(net, NodeId(1), TEMP, SubscribeSpec::default(), &log)
        });
        let route = topo.forward(TEMP, 0, 1, LATENCY, SrtSpec::default());
        (topo, (far, route))
    };
    let (report, (far, route)) = run_both(scenario, Time::from_ms(20));
    let deliveries = far.lock().unwrap();
    assert_eq!(deliveries.len(), 1, "event crossed the gateway");
    let d = &deliveries[0];
    assert_eq!(d.event.content, vec![21, 5]);
    // Far-side origin is the gateway's node on segment B.
    assert_eq!(d.event.attributes.origin, Some(NodeId(2)));
    // Store-and-forward latency respected (publish at 2 ms + ~1 ms
    // gateway + two wire hops).
    assert!(d.delivered_at >= Time::from_ms(3));
    assert!(d.delivered_at <= Time::from_ms(6));
    assert_eq!(report.forwarded(route), 1);
}

#[test]
fn origin_filter_separates_local_from_remote_publishers() {
    // The paper's example: a subscriber interested only in events from
    // publishers in its own network filters on origin — remote events
    // arrive with the gateway's TxNode and are dropped.
    let scenario = || {
        let mut topo = bridged(segment(4), segment(5));
        let (open, local) = (Log::default(), Log::default());
        // One remote publication (on A) and one local publication (on B).
        let publish_at_2ms = |byte: u8| {
            move |net: &mut Network| {
                net.api()
                    .announce(NodeId(0), TEMP, ChannelSpec::srt(SrtSpec::default()))
                    .unwrap();
                net.at(Time::from_ms(2), move |api| {
                    api.publish(NodeId(0), TEMP, Event::new(TEMP, vec![byte]))
                        .unwrap();
                });
            }
        };
        topo.setup(0, publish_at_2ms(0xAA));
        topo.setup(1, publish_at_2ms(0xBB));
        let logs = (open.clone(), local.clone());
        topo.setup(1, move |net| {
            record(net, NodeId(1), TEMP, SubscribeSpec::default(), &logs.0);
            // Local publisher only.
            let local_pub = SubscribeSpec::from_origins(vec![NodeId(0)]);
            record(net, NodeId(2), TEMP, local_pub, &logs.1);
        });
        topo.forward(TEMP, 0, 1, LATENCY, SrtSpec::default());
        (topo, (open, local))
    };
    let (_, (open, local)) = run_both(scenario, Time::from_ms(20));
    let open = open.lock().unwrap();
    let local = local.lock().unwrap();
    assert_eq!(open.len(), 2, "open subscriber sees local + remote");
    assert_eq!(local.len(), 1, "filtered subscriber sees only local");
    assert_eq!(local[0].event.content, vec![0xBB]);
}

#[test]
fn hrt_stays_segment_local_while_its_events_cross_as_srt() {
    // A hard real-time sensor on the field bus keeps its guarantees
    // locally; the backbone gets the values best-effort via the gateway.
    let scenario = || {
        let field = NetworkConfig {
            round: Duration::from_ms(10),
            ..segment(4)
        };
        let mut topo = bridged(field, segment(3));
        let (local, far) = (Log::default(), Log::default());
        let log = local.clone();
        topo.setup(0, move |net| {
            let hrt = HrtSpec {
                period: Duration::from_ms(10),
                dlc: 8,
                omission_degree: 1,
                sporadic: false,
            };
            net.api()
                .announce(NodeId(0), TEMP, ChannelSpec::hrt(hrt))
                .unwrap();
            record(net, NodeId(1), TEMP, SubscribeSpec::default(), &log);
            net.api().install_calendar().unwrap();
            net.every(Duration::from_ms(10), Duration::from_us(100), |api| {
                let _ = api.publish(NodeId(0), TEMP, Event::new(TEMP, vec![9; 8]));
            });
        });
        let log = far.clone();
        topo.setup(1, move |net| {
            record(net, NodeId(1), TEMP, SubscribeSpec::default(), &log)
        });
        let route = topo.forward(TEMP, 0, 1, LATENCY, SrtSpec::default());
        (topo, (local, far, route))
    };
    let (report, (local, far, route)) = run_both(scenario, Time::from_ms(205));
    let local = local.lock().unwrap();
    assert!(local.len() >= 19);
    // Segment-local HRT: perfectly periodic.
    for w in local.windows(2) {
        assert_eq!(w[1].delivered_at - w[0].delivered_at, Duration::from_ms(10));
    }
    // Backbone copies arrive best-effort (same count, no jitter bound).
    let far = far.lock().unwrap();
    assert!(far.len() >= 18, "far side got {}", far.len());
    assert_eq!(report.forwarded(route), local.len() as u64);
}

#[test]
fn relays_from_two_field_buses_keep_their_own_latencies() {
    // Two field buses feed one backbone through gateways of different
    // latency, so relays reach the backbone's buffer out of due order.
    let subjects = [
        (Subject::new(0x8101), LATENCY),
        (Subject::new(0x8102), Duration::from_us(300)),
    ];
    let scenario = || {
        let mut topo = Topology::new();
        let backbone = topo.add_segment(segment(4), NodeId(3));
        let mut logs = Vec::new();
        for (bus, (subject, latency)) in subjects.into_iter().enumerate() {
            let field = topo.add_segment(segment(3), NodeId(2));
            let log = Log::default();
            let source = log.clone();
            topo.setup(field, move |net| {
                net.api()
                    .announce(NodeId(0), subject, ChannelSpec::srt(SrtSpec::default()))
                    .unwrap();
                record(net, NodeId(1), subject, SubscribeSpec::default(), &source);
                let mut n = 0u8;
                let period = Duration::from_us(450 + 250 * bus as u64);
                net.every(period, Duration::from_us(60), move |api| {
                    let event = Event::new(subject, vec![bus as u8, n]);
                    api.publish(NodeId(0), subject, event).unwrap();
                    n = n.wrapping_add(1);
                });
            });
            let far = Log::default();
            let sink = far.clone();
            topo.setup(backbone, move |net| {
                record(net, NodeId(0), subject, SubscribeSpec::default(), &sink)
            });
            topo.forward(subject, field, backbone, latency, SrtSpec::default());
            logs.push((log, far, latency));
        }
        (topo, logs)
    };
    let (report, logs) = run_both(scenario, Time::from_ms(60));
    for (route, (source, far, latency)) in logs.iter().enumerate() {
        let source = source.lock().unwrap();
        let far = far.lock().unwrap();
        assert!(far.len() >= 50, "route {route} relayed {}", far.len());
        assert!(report.forwarded(route as u32) >= far.len() as u64);
        for d in far.iter() {
            let sent = source
                .iter()
                .find(|s| s.event.content == d.event.content)
                .expect("every relayed event left its field bus");
            assert!(d.delivered_at >= sent.wire_completed_at + *latency);
        }
    }
}

/// The gateway latency is the conservative lookahead: a route faster
/// than one lockstep quantum is refused when it is declared.
#[test]
#[should_panic(expected = "gateway latency below the lockstep quantum")]
fn a_gateway_latency_below_the_quantum_is_refused() {
    let mut topo = bridged(segment(4), segment(3));
    topo.forward_via(
        TEMP,
        0,
        1,
        NodeId(3),
        NodeId(2),
        Duration::from_us(99),
        SrtSpec::default(),
    );
}

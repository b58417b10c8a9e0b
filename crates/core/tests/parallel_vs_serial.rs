//! Differential test of the parallel execution layer: over random
//! N-segment topologies, seeds, and fault plans, the per-segment-thread
//! driver must produce **byte-identical** results to the serial
//! lockstep oracle — full traces, delivery logs (probes), forward
//! counters, dispatch counts — and identical `T1`..`T9` audit verdicts
//! on every segment's trace.
//!
//! Topologies are random *trees* rooted at segment 0 (relay routes
//! directed away from the root), so relays can chain hops but can
//! never cycle. On an intermediate segment the ingress node of the
//! outgoing route is distinct from the egress node of the incoming
//! route — CAN controllers never receive their own frames, so equal
//! identities would silently break the chain, not bias it.
//!
//! On top of the tree every plan draws one or two *fan-in* routes: each
//! carries a subject of its own from any segment into a non-root
//! segment, at a latency distinct from that segment's tree route, so a
//! segment's relay buffer receives envelopes out of due order and must
//! sort them.

use proptest::prelude::*;
use rtec_can::fault::{FaultModel, OmissionScope};
use rtec_conformance::audit::{audit, AuditContext};
use rtec_core::prelude::*;
use rtec_core::topology::{Topology, TopologyReport};

/// One randomly drawn topology: a tree over `parents` (index i+1's
/// parent), per-segment seeds, publish periods, and a fault plan.
#[derive(Clone, Debug)]
struct Plan {
    /// parents[i] = parent segment of segment i+1; parents[i] <= i.
    parents: Vec<usize>,
    seeds: Vec<u64>,
    /// Publisher period per segment, in microseconds.
    periods_us: Vec<u64>,
    /// Per-route gateway latency, in units of 100 µs (1..).
    latency_q: Vec<u64>,
    /// Fan-in routes `(from, to, latency in 100 µs units)`: `to` is a
    /// non-root segment and the latency differs from its tree route's.
    fan_in: Vec<(usize, usize, u64)>,
    fault: FaultModel,
    fault_seed: u64,
}

fn arb_fault() -> impl Strategy<Value = FaultModel> {
    prop_oneof![
        Just(FaultModel::None),
        Just(FaultModel::None),
        (0.0f64..0.15, 0.0f64..0.15, any::<bool>()).prop_map(|(corruption_p, omission_p, one)| {
            FaultModel::Iid {
                corruption_p,
                omission_p,
                omission_scope: if one {
                    OmissionScope::OneRandomReceiver
                } else {
                    OmissionScope::AllReceivers
                },
            }
        }),
    ]
}

const MAX_SEGS: usize = 4;

fn arb_plan() -> impl Strategy<Value = Plan> {
    // Draw at the maximum width and trim to `n`: the vendored proptest
    // stand-in has no `prop_flat_map`, so sizes can't feed later draws.
    (
        2usize..=MAX_SEGS,
        prop::collection::vec(any::<u64>(), MAX_SEGS - 1),
        prop::collection::vec(any::<u64>(), MAX_SEGS),
        prop::collection::vec(500u64..3000, MAX_SEGS),
        prop::collection::vec(1u64..=8, MAX_SEGS - 1),
        arb_fault(),
        any::<u64>(),
        (
            1usize..=2,
            prop::collection::vec(any::<u64>(), 4),
            prop::collection::vec(1u64..=8, 2),
        ),
    )
        .prop_map(
            |(
                n,
                parents_raw,
                mut seeds,
                mut periods_us,
                mut latency_q,
                fault,
                fault_seed,
                (fan_ins, ends_raw, fan_q),
            )| {
                // Tree shape: parent of segment i+1 is any segment <= i.
                let parents = (0..n - 1)
                    .map(|i| (parents_raw[i] % (i as u64 + 1)) as usize)
                    .collect();
                seeds.truncate(n);
                periods_us.truncate(n);
                latency_q.truncate(n - 1);
                let fan_in = (0..fan_ins)
                    .map(|k| {
                        let to = 1 + (ends_raw[2 * k] % (n as u64 - 1)) as usize;
                        let from = (to + 1 + (ends_raw[2 * k + 1] % (n as u64 - 1)) as usize) % n;
                        let tree_q = latency_q[to - 1];
                        let q = if fan_q[k] == tree_q {
                            fan_q[k] % 8 + 1
                        } else {
                            fan_q[k]
                        };
                        (from, to, q)
                    })
                    .collect();
                Plan {
                    parents,
                    seeds,
                    periods_us,
                    latency_q,
                    fan_in,
                    fault,
                    fault_seed,
                }
            },
        )
}

/// Build the topology a `Plan` describes. Eight nodes per segment:
/// node 0 publishes, node 1 subscribes, node 2 is the egress identity
/// of the inbound tree route, nodes 3..=5 are ingress identities for
/// outbound tree routes — one per child edge, since a node may not
/// subscribe to the same subject twice — and nodes 6 and 7 are the
/// ingress and egress identities of fan-in routes, each of which
/// relays its own subject `0x200 + k`, published by node 0 of its
/// source segment.
fn build(plan: &Plan) -> Topology {
    let n = plan.parents.len() + 1;
    let mut topo = Topology::new();
    for seg in 0..n {
        let config = NetworkConfig {
            nodes: 8,
            seed: plan.seeds[seg],
            fault_model: plan.fault.clone(),
            ..NetworkConfig::default()
        };
        // Every segment gets a fault seed derived from the plan's so
        // segments draw independent fault streams deterministically.
        let config = NetworkConfig {
            seed: config.seed ^ plan.fault_seed.rotate_left(seg as u32),
            ..config
        };
        topo.add_segment(config, NodeId(3));
        let subject = Subject::new(0x100 + seg as u64);
        let period = Duration::from_us(plan.periods_us[seg]);
        topo.setup(seg, move |net| {
            {
                let mut api = net.api();
                api.announce(NodeId(0), subject, ChannelSpec::srt(SrtSpec::default()))
                    .unwrap();
                let _ = api
                    .subscribe(NodeId(1), subject, SubscribeSpec::default())
                    .unwrap();
            }
            let mut k = 0u8;
            net.every(period, Duration::from_us(137), move |api| {
                k = k.wrapping_add(1);
                let _ = api.publish(NodeId(0), subject, Event::new(subject, vec![seg as u8, k]));
            });
        });
        // The probe drains the far-side relay queue: the delivery log
        // the serial and parallel drivers must agree on byte-for-byte.
        topo.probe(seg, move |net| {
            let q = net
                .api()
                .subscribe(NodeId(1), Subject::new(0x100), SubscribeSpec::default());
            let mut out = Vec::new();
            if let Ok(q) = q {
                for d in q.drain() {
                    out.extend(d.delivered_at.as_ns().to_le_bytes());
                    out.extend(d.event.content.iter());
                }
            }
            out.extend(net.dispatched().to_le_bytes());
            out
        });
    }
    // Tree edges: each child's subject 0x100 (the root's) is relayed
    // root-ward → leaf-ward so multi-hop chains exercise re-relay of
    // relayed traffic. Subject 0x100 is announced locally only on
    // segment 0; on every other segment it arrives via the route.
    let root_subject = Subject::new(0x100);
    let mut fanout = vec![0u8; n];
    for (i, &parent) in plan.parents.iter().enumerate() {
        let child = i + 1;
        let latency = Duration::from_us(100 * plan.latency_q[i]);
        // Distinct ingress identity per child edge of this parent.
        let ingress = NodeId(3 + fanout[parent]);
        fanout[parent] += 1;
        topo.forward_via(
            root_subject,
            parent,
            child,
            ingress,
            NodeId(2),
            latency,
            SrtSpec::default(),
        );
    }
    // Fan-in routes, declared after the tree's so their indices follow.
    for (k, &(from, to, q)) in plan.fan_in.iter().enumerate() {
        let subject = Subject::new(0x200 + k as u64);
        let period = Duration::from_us(611 + 97 * k as u64);
        topo.setup(from, move |net| {
            net.api()
                .announce(NodeId(0), subject, ChannelSpec::srt(SrtSpec::default()))
                .unwrap();
            let mut n = 0u8;
            net.every(period, Duration::from_us(59), move |api| {
                n = n.wrapping_add(1);
                let _ = api.publish(NodeId(0), subject, Event::new(subject, vec![k as u8, n]));
            });
        });
        topo.forward_via(
            subject,
            from,
            to,
            NodeId(6),
            NodeId(7),
            Duration::from_us(100 * q),
            SrtSpec::default(),
        );
    }
    topo
}

/// Compare two topology reports field by field with readable failures.
fn assert_identical(serial: &TopologyReport, parallel: &TopologyReport) {
    assert_eq!(serial.segments.len(), parallel.segments.len());
    for (i, (s, p)) in serial
        .segments
        .iter()
        .zip(parallel.segments.iter())
        .enumerate()
    {
        assert_eq!(s.dispatched, p.dispatched, "segment {i} dispatch count");
        assert_eq!(s.forwarded, p.forwarded, "segment {i} forward counters");
        assert_eq!(s.probe, p.probe, "segment {i} probe bytes");
        assert_eq!(s.trace_dropped, p.trace_dropped, "segment {i} trace drops");
        assert_eq!(s.trace.len(), p.trace.len(), "segment {i} trace length");
        for (j, (a, b)) in s.trace.iter().zip(p.trace.iter()).enumerate() {
            assert_eq!(a, b, "segment {i} trace record {j}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn parallel_is_byte_identical_to_serial(plan in arb_plan()) {
        let until = Time::from_ms(25);
        let serial = build(&plan).run_serial(until);
        let parallel = build(&plan).run_parallel(until);
        assert_identical(&serial, &parallel);

        // Not vacuous: the root's traffic really crossed every edge.
        for route in 0..(plan.parents.len() + plan.fan_in.len()) as u32 {
            prop_assert!(
                serial.forwarded(route) > 0,
                "route {} never relayed anything", route
            );
        }

        // Same audit verdicts, segment by segment (the auditor models
        // a single bus, so it runs per segment, not on the merge).
        let ctx = AuditContext::bare();
        for (i, (s, p)) in serial.segments.iter().zip(parallel.segments.iter()).enumerate() {
            let vs = audit(&ctx, &s.trace);
            let vp = audit(&ctx, &p.trace);
            prop_assert_eq!(
                format!("{vs}"), format!("{vp}"),
                "segment {} audit verdicts diverged", i
            );
        }

        // The merged multi-segment traces agree too.
        let ms = serial.merged_trace();
        let mp = parallel.merged_trace();
        prop_assert_eq!(ms.len(), mp.len());
        prop_assert!(ms == mp, "merged traces diverged");
    }

    /// The serial experiment surface itself is seed-stable: the same
    /// plan run twice serially is byte-identical (guards the oracle).
    #[test]
    fn serial_runs_are_seed_stable(plan in arb_plan()) {
        let until = Time::from_ms(10);
        let one = build(&plan).run_serial(until);
        let two = build(&plan).run_serial(until);
        assert_identical(&one, &two);
    }
}

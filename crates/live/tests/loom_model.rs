//! Model-checked interleaving exploration of the broker's lock-step
//! turn protocol (compiled only under `RUSTFLAGS="--cfg loom"`; see
//! the ci.sh model-check job).
//!
//! Each scenario builds a tiny cluster *inside* `loom::explore`: the
//! broker runs `Broker::run` in one model thread and scripted node
//! threads speak the wire protocol directly over the facade-backed
//! loopback transport. The loom stand-in then re-runs the scenario
//! under every thread schedule reachable within its preemption bound
//! — and because the protocol is lock-step (at most one thread is
//! runnable at almost every scheduling point), that bound never
//! prunes, so coverage of the schedule space is complete
//! ([`loom::Stats::pruned`] is asserted `false`).
//!
//! The invariants asserted are the model-checked counterparts of the
//! dynamic T1–T9 trace auditor in `rtec-conformance`:
//!
//! * **arbitration tie order** (T1): when two nodes submit in the same
//!   bus instant, the lower raw 29-bit identifier transmits first —
//!   under every schedule;
//! * **TxDone acknowledgement vs. omission faults** (T6-adjacent): the
//!   sender always learns `all_received = false` when a receiver was
//!   omitted, and omitted receivers never observe a delivery;
//! * **shutdown vs. in-flight frame**: ending the run while a frame
//!   still occupies the wire shuts every node down cleanly — no
//!   deadlock, no phantom completion;
//! * **a turn is one hand-off**: a `Submit, Submit, Abort, Idle` turn
//!   handed over by one `send_turn` is read in order, and the
//!   `AbortResult` the broker answers mid-turn reaches the node before
//!   the surviving frame's `TxDone`.

#![cfg(loom)]

use rtec_can::bits::BitTiming;
use rtec_can::fault::{FaultModel, OmissionScope};
use rtec_can::{CanId, Frame};
use rtec_live::broker::{Broker, BrokerConfig, BrokerStats, FaultPlan, NodeSupervisor, SupKind};
use rtec_live::clock::Pace;
use rtec_live::sync::thread;
use rtec_live::transport::{loopback, NodeTransport};
use rtec_live::wire::{ToBroker, ToNode};
use rtec_live::LiveError;
use rtec_sim::{Time, TraceSink};

const TIMEOUT: std::time::Duration = std::time::Duration::from_secs(60);

/// What a scripted node observed, in arrival order.
#[derive(Clone, Debug, PartialEq, Eq)]
enum Obs {
    /// A frame from another node, by raw identifier.
    Deliver(u32),
    /// Completion of an own transmission.
    TxDone { handle: u32, all_received: bool },
    /// The broker's answer to an own `Abort`.
    AbortResult { handle: u32, aborted: bool },
}

fn broker(
    transport: impl rtec_live::transport::BrokerTransport + 'static,
    fault: FaultPlan,
) -> Broker<impl rtec_live::transport::BrokerTransport> {
    Broker::new(
        BrokerConfig {
            timing: BitTiming::MBIT_1,
            pace: Pace::Virtual,
            fault,
            // Strict: any protocol fault aborts the model — these
            // scenarios assert the healthy lock-step protocol. The
            // restart model below overrides this.
            strict: true,
            ..BrokerConfig::default()
        },
        transport,
        TraceSink::disabled(),
    )
}

/// Every etag a scenario puts on the wire: the first frames use 1 and
/// 2, a scripted retransmission `10 + node`.
const ETAGS: [u16; 4] = [1, 2, 10, 11];

/// Drive one scripted node: on `Welcome` listen to every scenario etag
/// (a completion is addressed by acceptance filter, so a node that
/// never listens is never delivered to) and submit `frames`, resubmit
/// up to `resubmits` times when a `TxDone` reports an omission, stay
/// reactive otherwise, and return everything observed.
fn scripted_node(
    mut t: Box<dyn NodeTransport>,
    node: u8,
    frames: Vec<Frame>,
    mut resubmits: u32,
) -> Vec<Obs> {
    let mut obs = Vec::new();
    let mut next_handle = 1u32;
    let mut frames = Some(frames);
    loop {
        match t.recv(TIMEOUT).expect("node recv") {
            ToNode::Welcome { .. } => {
                for etag in ETAGS {
                    t.send(ToBroker::Listen { etag }).expect("listen");
                }
                for frame in frames.take().into_iter().flatten() {
                    let handle = next_handle;
                    next_handle += 1;
                    t.send(ToBroker::Submit {
                        handle,
                        tag: u64::from(handle),
                        frame,
                    })
                    .expect("submit");
                }
                t.send(ToBroker::Idle).expect("idle");
            }
            ToNode::Deliver { frame, .. } => {
                obs.push(Obs::Deliver(frame.id.raw()));
                t.send(ToBroker::Idle).expect("idle");
            }
            ToNode::TxDone {
                handle,
                all_received,
                ..
            } => {
                obs.push(Obs::TxDone {
                    handle,
                    all_received,
                });
                if !all_received && resubmits > 0 {
                    resubmits -= 1;
                    let handle = next_handle;
                    next_handle += 1;
                    t.send(ToBroker::Submit {
                        handle,
                        tag: u64::from(handle),
                        frame: Frame::new(CanId::new(4, node, 10 + u16::from(node)), &[node]),
                    })
                    .expect("resubmit");
                }
                t.send(ToBroker::Idle).expect("idle");
            }
            ToNode::Timer { .. } | ToNode::AbortResult { .. } | ToNode::Ping { .. } => {
                t.send(ToBroker::Idle).expect("idle");
            }
            ToNode::Shutdown => {
                t.send(ToBroker::Done { node }).expect("done");
                return obs;
            }
        }
    }
}

/// T1 under every schedule: two nodes submit distinct identifiers in
/// the same bus instant; the lower raw id always transmits first, both
/// frames complete acknowledged, and each node sees exactly the other
/// node's frame.
#[test]
fn arbitration_tie_resolves_by_raw_id_under_all_schedules() {
    let stats = loom::explore(|| {
        let (bt, mut nts) = loopback(2);
        let n1_t = nts.pop().expect("node 1 endpoint");
        let n0_t = nts.pop().expect("node 0 endpoint");
        // Node 0's identifier is *higher* (loses), node 1's lower (wins).
        let f0 = Frame::new(CanId::new(5, 0, 1), &[0xA0]);
        let f1 = Frame::new(CanId::new(1, 1, 2), &[0xB1]);
        let raw0 = f0.id.raw();
        let raw1 = f1.id.raw();
        let b = thread::Builder::new()
            .name("model-broker".into())
            .spawn(move || broker(bt, FaultPlan::default()).run(Time::from_ms(1)))
            .expect("spawn broker");
        let h0 = thread::spawn(move || scripted_node(Box::new(n0_t), 0, vec![f0], 0));
        let h1 = thread::spawn(move || scripted_node(Box::new(n1_t), 1, vec![f1], 0));
        let obs0 = h0.join().expect("node 0");
        let obs1 = h1.join().expect("node 1");
        let stats: BrokerStats = b.join().expect("broker thread").expect("broker run");

        assert_eq!(stats.arbitrations, 2, "one arbitration per frame");
        assert_eq!(stats.frames_ok, 2, "both frames fully acknowledged");
        // Node 1 wins the tie: its completion precedes the delivery of
        // node 0's frame, on both sides of the bus.
        assert_eq!(
            obs0,
            vec![
                Obs::Deliver(raw1),
                Obs::TxDone {
                    handle: 1,
                    all_received: true
                }
            ],
            "loser must see the winner's frame before its own TxDone"
        );
        assert_eq!(
            obs1,
            vec![
                Obs::TxDone {
                    handle: 1,
                    all_received: true
                },
                Obs::Deliver(raw0)
            ],
            "winner completes first, then receives the loser's frame"
        );
    });
    assert!(stats.executions >= 2, "exploration must branch: {stats:?}");
    assert!(!stats.pruned, "lock-step scenario must be fully explored");
}

/// Test supervisor: restart node 0 once, over the minted loopback
/// link, with a 1 µs bus-time backoff; any further down is final.
struct ModelSup {
    handle: Option<thread::JoinHandle<Vec<Obs>>>,
    downs: Vec<(u8, u32, &'static str)>,
}

impl NodeSupervisor for ModelSup {
    fn on_down(
        &mut self,
        node: u8,
        incarnation: u32,
        _at_ns: u64,
        reason: &'static str,
    ) -> Option<u64> {
        self.downs.push((node, incarnation, reason));
        (self.downs.len() == 1).then_some(1_000)
    }

    fn respawn(
        &mut self,
        node: u8,
        incarnation: u32,
        _at_ns: u64,
        link: Option<Box<dyn NodeTransport>>,
    ) -> Result<(), LiveError> {
        assert_eq!((node, incarnation), (0, 1), "one restart of node 0");
        let t = link.expect("loopback relink mints the node half");
        self.handle = Some(thread::spawn(move || scripted_node(t, 0, Vec::new(), 0)));
        Ok(())
    }
}

/// Supervisor ↔ node restart handshake under every schedule: the only
/// receiver listens to the sender's first frame and exits right after
/// the initial handshake, so delivering that frame declares it down;
/// the supervisor respawns it over a freshly minted loopback link, the
/// broker re-welcomes incarnation 1, and the sender's scripted
/// retransmission reaches the restarted node — under every
/// interleaving of broker, sender, and both incarnations of node 0.
/// Incarnation 0 never listened to the retransmission's etag and no
/// filter survives a node going down, so it is incarnation 1's own
/// `Listen` that addresses the retransmission to it.
#[test]
fn restart_handshake_rejoins_under_all_schedules() {
    let stats = loom::explore(|| {
        let (bt, mut nts) = loopback(2);
        let n1_t = nts.pop().expect("node 1 endpoint");
        let mut n0_t = nts.pop().expect("node 0 endpoint");
        // Incarnation 0 of node 0: answer the Welcome — listening to
        // the sender's first frame only — then crash (drop the
        // endpoint).
        let h0 = thread::spawn(move || match n0_t.recv(TIMEOUT).expect("welcome") {
            ToNode::Welcome { incarnation, .. } => {
                assert_eq!(incarnation, 0);
                n0_t.send(ToBroker::Listen { etag: 2 }).expect("listen");
                n0_t.send(ToBroker::Idle).expect("idle");
            }
            other => panic!("expected Welcome, got {other:?}"),
        });
        let f1 = Frame::new(CanId::new(3, 1, 2), &[0xB1]);
        // The scripted retransmission frame (see `scripted_node`).
        let retransmit_raw = CanId::new(4, 1, 11).raw();
        let b = thread::Builder::new()
            .name("model-broker".into())
            .spawn(move || {
                let mut sup = ModelSup {
                    handle: None,
                    downs: Vec::new(),
                };
                let mut broker = Broker::new(
                    BrokerConfig {
                        strict: false,
                        ..BrokerConfig::default()
                    },
                    bt,
                    TraceSink::disabled(),
                );
                let result = broker.run_supervised(Time::from_ms(1), Some(&mut sup));
                (result, broker.take_sup_log(), sup)
            })
            .expect("spawn broker");
        // The sender retransmits once when its TxDone reports the
        // receiver was missed.
        let h1 = thread::spawn(move || scripted_node(Box::new(n1_t), 1, vec![f1], 1));
        h0.join().expect("incarnation 0");
        let obs1 = h1.join().expect("sender");
        let (result, sup_log, sup) = b.join().expect("broker thread");
        let stats = result.expect("supervised run must survive the crash");
        let obs0 = sup
            .handle
            .expect("node 0 must have been respawned")
            .join()
            .expect("incarnation 1");

        assert_eq!(sup.downs, vec![(0, 0, "disconnect")]);
        assert_eq!(stats.node_downs, 1);
        assert_eq!(stats.node_restarts, 1);
        let kinds: Vec<(u8, u32, SupKind)> = sup_log
            .iter()
            .map(|e| (e.node, e.incarnation, e.kind))
            .collect();
        assert_eq!(
            kinds,
            vec![(0, 0, SupKind::Down), (0, 1, SupKind::Up)],
            "down, then a completed rejoin handshake: {sup_log:?}"
        );
        assert_eq!(
            obs1,
            vec![
                Obs::TxDone {
                    handle: 1,
                    all_received: false
                },
                Obs::TxDone {
                    handle: 2,
                    all_received: true
                }
            ],
            "sender must see the miss, then a fully acked retransmission"
        );
        assert_eq!(
            obs0,
            vec![Obs::Deliver(retransmit_raw)],
            "the restarted incarnation's own Listen must bring it the retransmission"
        );
    });
    assert!(stats.executions >= 2, "exploration must branch: {stats:?}");
    assert!(!stats.pruned, "restart scenario must be fully explored");
}

/// Omission handling under every schedule: with a fault model that
/// omits the only receiver on every attempt, the sender is always told
/// `all_received = false` (triggering its scripted retransmission) and
/// the victim never observes a delivery.
#[test]
fn omission_fault_acks_false_and_skips_victim_under_all_schedules() {
    let stats = loom::explore(|| {
        let (bt, mut nts) = loopback(2);
        let n1_t = nts.pop().expect("node 1 endpoint");
        let n0_t = nts.pop().expect("node 0 endpoint");
        let fault = FaultPlan {
            model: Some(FaultModel::Iid {
                corruption_p: 0.0,
                omission_p: 1.0,
                omission_scope: OmissionScope::OneRandomReceiver,
            }),
            seed: 11,
        };
        let f0 = Frame::new(CanId::new(3, 0, 1), &[0xA0]);
        let b = thread::Builder::new()
            .name("model-broker".into())
            .spawn(move || broker(bt, fault).run(Time::from_ms(1)))
            .expect("spawn broker");
        // Node 0 publishes and retransmits once on a bad ack; node 1
        // only listens.
        let h0 = thread::spawn(move || scripted_node(Box::new(n0_t), 0, vec![f0], 1));
        let h1 = thread::spawn(move || scripted_node(Box::new(n1_t), 1, Vec::new(), 0));
        let obs0 = h0.join().expect("node 0");
        let obs1 = h1.join().expect("node 1");
        let stats: BrokerStats = b.join().expect("broker thread").expect("broker run");

        assert_eq!(
            stats.frames_with_omission, 2,
            "original + retransmission, both omitted"
        );
        assert_eq!(stats.frames_ok, 0);
        assert_eq!(
            obs0,
            vec![
                Obs::TxDone {
                    handle: 1,
                    all_received: false
                },
                Obs::TxDone {
                    handle: 2,
                    all_received: false
                }
            ],
            "sender must learn of the omission on every attempt"
        );
        assert!(
            obs1.is_empty(),
            "omission victim must never see a delivery: {obs1:?}"
        );
    });
    assert!(stats.executions >= 2, "exploration must branch: {stats:?}");
    assert!(!stats.pruned, "lock-step scenario must be fully explored");
}

/// Shutdown racing an in-flight frame, under every schedule: the run
/// window closes while a frame still occupies the wire. Every node
/// must shut down cleanly (no deadlock, which loom would report) and
/// the unfinished transmission must neither complete nor be
/// acknowledged.
#[test]
fn shutdown_with_inflight_frame_terminates_cleanly_under_all_schedules() {
    let stats = loom::explore(|| {
        let (bt, mut nts) = loopback(2);
        let n1_t = nts.pop().expect("node 1 endpoint");
        let n0_t = nts.pop().expect("node 0 endpoint");
        // An 8-byte frame needs ~130 µs of wire time; the run window
        // is 10 µs, so shutdown always races the transmission.
        let f0 = Frame::new(CanId::new(3, 0, 1), &[0; 8]);
        let b = thread::Builder::new()
            .name("model-broker".into())
            .spawn(move || broker(bt, FaultPlan::default()).run(Time::from_us(10)))
            .expect("spawn broker");
        let h0 = thread::spawn(move || scripted_node(Box::new(n0_t), 0, vec![f0], 0));
        let h1 = thread::spawn(move || scripted_node(Box::new(n1_t), 1, Vec::new(), 0));
        let obs0 = h0.join().expect("node 0");
        let obs1 = h1.join().expect("node 1");
        let result: Result<BrokerStats, LiveError> = b.join().expect("broker thread");
        let stats = result.expect("shutdown must succeed with a frame in flight");

        assert_eq!(stats.arbitrations, 1, "the frame reached the wire");
        assert_eq!(
            stats.frames_ok + stats.frames_with_omission + stats.frames_corrupted,
            0,
            "the in-flight frame must not complete during shutdown"
        );
        assert!(
            obs0.is_empty(),
            "no TxDone for a frame cut off by shutdown: {obs0:?}"
        );
        assert!(obs1.is_empty(), "nothing was delivered: {obs1:?}");
    });
    assert!(stats.executions >= 2, "exploration must branch: {stats:?}");
    assert!(!stats.pruned, "lock-step scenario must be fully explored");
}

/// One whole turn per `send_turn` under every schedule: node 0 answers
/// its `Welcome` with `Listen…, Submit 1, Submit 2, Abort 1, Idle` in a
/// single hand-off. The broker reads it one message at a time, so
/// frame 1 is withdrawn before it ever arbitrates and the
/// `AbortResult` goes out in the middle of the turn; node 0 reads it
/// after its `Idle`, as a turn of its own (answered by a second
/// one-message turn), and only then frame 2's `TxDone`. Node 1 sees
/// frame 2 alone.
#[test]
fn a_turn_handed_over_at_once_keeps_the_abort_round_trip_in_order() {
    let stats = loom::explore(|| {
        let (bt, mut nts) = loopback(2);
        let n1_t = nts.pop().expect("node 1 endpoint");
        let mut n0_t = nts.pop().expect("node 0 endpoint");
        let f1 = Frame::new(CanId::new(3, 0, 1), &[0x01]);
        let f2 = Frame::new(CanId::new(3, 0, 2), &[0x02]);
        let raw2 = f2.id.raw();
        let b = thread::Builder::new()
            .name("model-broker".into())
            .spawn(move || broker(bt, FaultPlan::default()).run(Time::from_ms(1)))
            .expect("spawn broker");
        let h0 = thread::spawn(move || {
            let mut obs = Vec::new();
            let mut turn = Vec::new();
            loop {
                match n0_t.recv(TIMEOUT).expect("node 0 recv") {
                    ToNode::Welcome { .. } => {
                        turn.extend(ETAGS.map(|etag| ToBroker::Listen { etag }));
                        for (handle, frame) in [(1, f1), (2, f2)] {
                            let tag = u64::from(handle);
                            turn.push(ToBroker::Submit { handle, tag, frame });
                        }
                        turn.push(ToBroker::Abort { handle: 1 });
                    }
                    ToNode::AbortResult {
                        handle, aborted, ..
                    } => obs.push(Obs::AbortResult { handle, aborted }),
                    ToNode::TxDone {
                        handle,
                        all_received,
                        ..
                    } => obs.push(Obs::TxDone {
                        handle,
                        all_received,
                    }),
                    ToNode::Deliver { frame, .. } => obs.push(Obs::Deliver(frame.id.raw())),
                    ToNode::Timer { .. } | ToNode::Ping { .. } => {}
                    ToNode::Shutdown => {
                        turn.push(ToBroker::Done { node: 0 });
                        n0_t.send_turn(&mut turn).expect("done");
                        return obs;
                    }
                }
                turn.push(ToBroker::Idle);
                n0_t.send_turn(&mut turn).expect("turn");
                assert!(turn.is_empty(), "send_turn empties the turn");
            }
        });
        let h1 = thread::spawn(move || scripted_node(Box::new(n1_t), 1, Vec::new(), 0));
        let obs0 = h0.join().expect("node 0");
        let obs1 = h1.join().expect("node 1");
        let stats: BrokerStats = b.join().expect("broker thread").expect("broker run");

        assert_eq!(stats.arbitrations, 1, "the aborted frame never arbitrates");
        assert_eq!(stats.frames_ok, 1);
        assert_eq!(
            obs0,
            vec![
                Obs::AbortResult {
                    handle: 1,
                    aborted: true
                },
                Obs::TxDone {
                    handle: 2,
                    all_received: true
                }
            ],
            "the abort is answered first, then the surviving frame completes"
        );
        assert_eq!(
            obs1,
            vec![Obs::Deliver(raw2)],
            "only frame 2 reached the wire"
        );
    });
    assert!(stats.executions >= 2, "exploration must branch: {stats:?}");
    assert!(!stats.pruned, "lock-step scenario must be fully explored");
}

//! Deterministic chaos harness for the live runtime.
//!
//! A [`ChaosPlan`] is a *seeded* fault plan executed by transport
//! wrappers, so every injected fault — node kills, datagram drops,
//! duplicates, delays, a broker stall — is a pure function of the seed
//! and the message stream. Combined with [`crate::clock::Pace::Virtual`]
//! (where wall-clock delays do not move bus time) this makes two
//! same-seed chaos runs produce byte-identical delivery logs, which is
//! the property the determinism regression pins down.
//!
//! The wrappers preserve the lock-step turn protocol exactly:
//!
//! * a **dropped** `Deliver` owes the broker one synthetic `Idle` (the
//!   node never saw the message, so it will not answer) and forces the
//!   sender's next `TxDone` to `all_received = false`, so HRT time
//!   redundancy reacts to the loss exactly as it would to a lossy wire;
//! * a **duplicated** `Deliver` is deduplicated by the node's wire-time
//!   watermark, whose whole turn reply is exactly one `Idle` — the
//!   wrapper swallows one matching `Idle` from the stream (FIFO makes
//!   either one equivalent);
//! * **delays** and the **broker stall** are bounded wall-clock sleeps,
//!   which perturb real thread interleavings without touching bus time;
//! * a **kill** gives one incarnation of a node a finite receive
//!   budget; when it runs out the node observes a disconnect, drains
//!   its state into the crash snapshot, and exits — the broker detects
//!   the dead peer on the next exchange and schedules a supervised
//!   restart.

//!
//! # Gateway faults
//!
//! The same plan kills a *gateway* node (it is an ordinary cluster
//! node, so a `kills` entry for its id exercises the supervised
//! restart path including off-bus session resume), and [`LinkPlan`] /
//! [`LinkChaos`] script faults on the gateway → client links: bounded
//! frame budgets per connection incarnation (sever), an in-flight tail
//! that the gateway counts as sent but the client never receives
//! (drop — what a dying TCP buffer does), and seeded wall-clock
//! delays. The gateway chaos harness in `rtec-bench` drives these
//! through simulated client sinks.

use crate::sync::{thread, Arc, Mutex, MutexGuard};
use crate::transport::{BrokerTransport, NodeTransport, Relink, TransportError};
use crate::wire::{ToBroker, ToNode};
use rtec_sim::Rng;
use std::collections::VecDeque;
use std::time::Duration;

/// A seeded fault plan for one chaos run.
#[derive(Clone, Debug)]
pub struct ChaosPlan {
    /// Seed of the fault decision stream.
    pub seed: u64,
    /// Node kills as `(node, receive budget)`: the node's current
    /// incarnation exits after receiving this many broker messages.
    /// Entries apply per node in order — first the original life, then
    /// each restarted incarnation; a node with no entry left lives
    /// forever. Budgets must be ≥ 1 (the `Welcome` handshake is not
    /// supervised).
    pub kills: Vec<(u8, u64)>,
    /// Probability a `Deliver` datagram is dropped.
    pub drop_rate: f64,
    /// Probability a `Deliver` datagram is duplicated.
    pub dup_rate: f64,
    /// Probability any broker→node datagram is delayed (wall clock).
    pub delay_rate: f64,
    /// Upper bound on one injected delay.
    pub max_delay: Duration,
    /// Stall the broker thread once, just before its Nth datagram send.
    pub stall_at_send: Option<u64>,
    /// Wall-clock length of that stall (roughly one bus window).
    pub stall: Duration,
}

impl Default for ChaosPlan {
    fn default() -> Self {
        ChaosPlan {
            seed: 0xC4A05,
            kills: Vec::new(),
            drop_rate: 0.0,
            dup_rate: 0.0,
            delay_rate: 0.0,
            max_delay: Duration::from_micros(200),
            stall_at_send: None,
            stall: Duration::from_millis(1),
        }
    }
}

/// What the chaos wrappers actually injected during a run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ChaosReport {
    /// Incarnations killed by an exhausted receive budget.
    pub kills: u64,
    /// `Deliver` datagrams dropped.
    pub dropped: u64,
    /// `Deliver` datagrams duplicated.
    pub duplicated: u64,
    /// Datagrams delayed.
    pub delayed: u64,
    /// Broker stalls executed (0 or 1).
    pub broker_stalls: u64,
}

/// Invariants checked over a finished chaos run's [`crate::LiveReport`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ChaosVerdict {
    /// Delivery-log entries whose `(node, wire_ns)` key repeats — a
    /// serial wire delivers each frame to each node at most once, so
    /// any repeat means an event was delivered twice (e.g. across a
    /// rejoin). Must be 0.
    pub duplicate_deliveries: usize,
    /// Total delivery-log entries.
    pub deliveries: usize,
    /// `Down` transitions never resolved by an `Up` or `Off` — the
    /// cluster lost track of a node. Must be 0 for liveness.
    pub unresolved_downs: usize,
    /// Supervised restarts completed.
    pub restarts: u64,
}

impl ChaosVerdict {
    /// Whether the run upheld the chaos invariants: at-most-once
    /// delivery and every downed node either restarted or declared off.
    pub fn ok(&self) -> bool {
        self.duplicate_deliveries == 0 && self.unresolved_downs == 0
    }
}

/// Check the chaos invariants over a finished run.
pub fn verdict(report: &crate::LiveReport) -> ChaosVerdict {
    use crate::broker::SupKind;
    let mut keys: Vec<(u8, u64)> = report.log.iter().map(|r| (r.node, r.wire_ns)).collect();
    keys.sort_unstable();
    let duplicate_deliveries = keys.windows(2).filter(|w| w[0] == w[1]).count();
    // A `Down` is resolved by the next `Up` or `Off` of the same node.
    let mut pending: Vec<u8> = Vec::new();
    for e in &report.supervision.events {
        match e.kind {
            SupKind::Down => pending.push(e.node),
            SupKind::Up | SupKind::Off => pending.retain(|&n| n != e.node),
            _ => {}
        }
    }
    ChaosVerdict {
        duplicate_deliveries,
        deliveries: report.log.len(),
        unresolved_downs: pending.len(),
        restarts: report.supervision.restarts,
    }
}

/// A seeded fault plan for one gateway → client link.
///
/// The link lives through a sequence of connection *incarnations*:
/// incarnation `k` carries `severs[k]` frames, loses the last
/// `lose_tail` of them in flight, and then severs. A link with no
/// budget left (or an empty plan) lives forever. Every decision is a
/// pure function of the plan and the frame sequence, so two same-seed
/// runs fault identically.
#[derive(Clone, Debug)]
pub struct LinkPlan {
    /// Seed of the per-link delay decision stream.
    pub seed: u64,
    /// Frame budgets per connection incarnation: incarnation `k`
    /// accepts `severs[k]` frames, then the link is severed. Entries
    /// apply in order; once exhausted the link lives forever.
    pub severs: Vec<u64>,
    /// How many of each incarnation's final frames are *lost in
    /// flight*: the gateway's write succeeded (they count as sent and
    /// enter the replay accounting) but the client never receives
    /// them — what a dying TCP buffer does to unread bytes.
    pub lose_tail: u64,
    /// Probability a delivered frame is delayed (wall clock; under
    /// `Pace::Virtual` this perturbs thread interleavings without
    /// moving bus time).
    pub delay_rate: f64,
    /// Upper bound on one injected delay.
    pub max_delay: Duration,
}

impl Default for LinkPlan {
    fn default() -> Self {
        LinkPlan {
            seed: 0x11A1,
            severs: Vec::new(),
            lose_tail: 0,
            delay_rate: 0.0,
            max_delay: Duration::from_micros(200),
        }
    }
}

/// What happens to one gateway → client frame on a chaotic link.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LinkFault {
    /// The frame reaches the client.
    Deliver,
    /// The frame reaches the client after a bounded wall-clock delay.
    DeliverDelayed(Duration),
    /// The write succeeds (the frame counts as sent) but the frame
    /// dies in flight — the client must not account for it.
    Lose,
    /// The link is severed: the write fails and the gateway should
    /// observe the sink as gone (parking the session for resume).
    Severed,
}

/// Counters of what one [`LinkChaos`] actually injected.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LinkStats {
    /// Frames delivered (delayed ones included).
    pub delivered: u64,
    /// Frames lost in flight.
    pub lost: u64,
    /// Frames delayed.
    pub delayed: u64,
    /// Severs executed.
    pub severs: u64,
}

/// The per-connection fault state machine of one chaotic client link.
#[derive(Debug)]
pub struct LinkChaos {
    rng: Rng,
    budgets: VecDeque<u64>,
    /// Frames left in this incarnation; `None` = the link lives forever.
    remaining: Option<u64>,
    lose_tail: u64,
    delay_rate: f64,
    max_delay: Duration,
    stats: LinkStats,
}

impl LinkChaos {
    /// Start the link's first incarnation under `plan`.
    pub fn new(plan: LinkPlan) -> Self {
        let mut budgets: VecDeque<u64> = plan.severs.into();
        let remaining = budgets.pop_front();
        LinkChaos {
            rng: Rng::seed_from_u64(plan.seed),
            budgets,
            remaining,
            lose_tail: plan.lose_tail,
            delay_rate: plan.delay_rate,
            max_delay: plan.max_delay,
            stats: LinkStats::default(),
        }
    }

    /// The fate of the next frame written to this link. The caller
    /// applies it: deliver (after sleeping any delay), silently lose,
    /// or fail the write. `Severed` repeats until
    /// [`LinkChaos::reconnected`] starts the next incarnation.
    pub fn on_frame(&mut self) -> LinkFault {
        match self.remaining {
            Some(0) => LinkFault::Severed,
            Some(left) => {
                self.remaining = Some(left - 1);
                if left == 1 {
                    self.stats.severs += 1;
                }
                if left <= self.lose_tail {
                    self.stats.lost += 1;
                    LinkFault::Lose
                } else {
                    self.deliver()
                }
            }
            None => self.deliver(),
        }
    }

    fn deliver(&mut self) -> LinkFault {
        self.stats.delivered += 1;
        if self.delay_rate > 0.0 && self.rng.gen_bool(self.delay_rate) {
            self.stats.delayed += 1;
            let max = self.max_delay.as_nanos().max(1) as u64;
            LinkFault::DeliverDelayed(Duration::from_nanos(self.rng.gen_range_u64(max) + 1))
        } else {
            LinkFault::Deliver
        }
    }

    /// Whether the current incarnation has severed.
    pub fn severed(&self) -> bool {
        self.remaining == Some(0)
    }

    /// The client reconnected: the next incarnation's budget applies
    /// (or the link lives forever if the plan is exhausted).
    pub fn reconnected(&mut self) {
        self.remaining = self.budgets.pop_front();
    }

    /// What this link injected so far.
    pub fn stats(&self) -> LinkStats {
        self.stats
    }
}

/// Shared state of one chaos run: the seeded decision stream, per-node
/// bookkeeping the wrappers need to keep the turn protocol aligned, and
/// the injection counters.
#[derive(Clone)]
pub(crate) struct ChaosCtl {
    inner: Arc<Mutex<CtlInner>>,
}

struct CtlInner {
    plan: ChaosPlan,
    rng: Rng,
    /// Remaining kill budgets per node, one entry per incarnation.
    budgets: Vec<VecDeque<u64>>,
    /// Synthetic `Idle`s owed per node (one per dropped `Deliver`).
    synthetic_idle: Vec<usize>,
    /// Extra `Idle`s to swallow per node (one per duplicated `Deliver`).
    swallow: Vec<usize>,
    /// A `Deliver` of the current completion batch was dropped: rewrite
    /// the sender's `TxDone` so HRT redundancy compensates the loss.
    dropped_in_batch: bool,
    sends: u64,
    stalled: bool,
    report: ChaosReport,
}

impl ChaosCtl {
    pub(crate) fn new(plan: ChaosPlan, nodes: usize) -> Self {
        let mut budgets: Vec<VecDeque<u64>> = vec![VecDeque::new(); nodes];
        for &(node, budget) in &plan.kills {
            if let Some(q) = budgets.get_mut(node as usize) {
                q.push_back(budget.max(1));
            }
        }
        let rng = Rng::seed_from_u64(plan.seed);
        ChaosCtl {
            inner: Arc::new(Mutex::new(CtlInner {
                plan,
                rng,
                budgets,
                synthetic_idle: vec![0; nodes],
                swallow: vec![0; nodes],
                dropped_in_batch: false,
                sends: 0,
                stalled: false,
                report: ChaosReport::default(),
            })),
        }
    }

    pub(crate) fn report(&self) -> ChaosReport {
        self.lock().report.clone()
    }

    fn lock(&self) -> MutexGuard<'_, CtlInner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The receive budget for `node`'s next incarnation, if the plan
    /// kills it.
    fn next_budget(&self, node: u8) -> Option<u64> {
        self.lock()
            .budgets
            .get_mut(node as usize)
            .and_then(|q| q.pop_front())
    }

    fn count_kill(&self) {
        self.lock().report.kills += 1;
    }
}

/// Broker-side chaos wrapper: drops, duplicates, and delays `Deliver`
/// datagrams and executes the one-off broker stall, while keeping the
/// lock-step drain aligned (see the module docs).
pub(crate) struct ChaosBroker<T> {
    inner: T,
    ctl: ChaosCtl,
}

impl<T> ChaosBroker<T> {
    pub(crate) fn new(inner: T, ctl: ChaosCtl) -> Self {
        ChaosBroker { inner, ctl }
    }
}

impl<T: BrokerTransport> BrokerTransport for ChaosBroker<T> {
    fn node_count(&self) -> usize {
        self.inner.node_count()
    }

    fn rendezvous(&mut self, timeout: Duration) -> Result<(), TransportError> {
        self.inner.rendezvous(timeout)
    }

    fn send(&mut self, node: u8, msg: ToNode) -> Result<(), TransportError> {
        let mut msg = msg;
        let mut dup = false;
        let (stall, delay) = {
            let mut c = self.ctl.lock();
            c.sends += 1;
            let stall = match c.plan.stall_at_send {
                Some(n) if !c.stalled && c.sends >= n => {
                    c.stalled = true;
                    c.report.broker_stalls += 1;
                    Some(c.plan.stall)
                }
                _ => None,
            };
            match &mut msg {
                ToNode::Deliver { .. } => {
                    let (drop_rate, dup_rate) = (c.plan.drop_rate, c.plan.dup_rate);
                    if drop_rate > 0.0 && c.rng.gen_bool(drop_rate) {
                        c.report.dropped += 1;
                        c.synthetic_idle[node as usize] += 1;
                        c.dropped_in_batch = true;
                        return Ok(());
                    }
                    if dup_rate > 0.0 && c.rng.gen_bool(dup_rate) {
                        c.report.duplicated += 1;
                        c.swallow[node as usize] += 1;
                        dup = true;
                    }
                }
                ToNode::TxDone { all_received, .. } if c.dropped_in_batch => {
                    *all_received = false;
                    c.dropped_in_batch = false;
                }
                _ => {}
            }
            let delay_rate = c.plan.delay_rate;
            let delay = if delay_rate > 0.0 && c.rng.gen_bool(delay_rate) {
                c.report.delayed += 1;
                let max = c.plan.max_delay.as_nanos().max(1) as u64;
                Some(Duration::from_nanos(c.rng.gen_range_u64(max) + 1))
            } else {
                None
            };
            (stall, delay)
        };
        if let Some(d) = stall {
            thread::sleep(d);
        }
        if let Some(d) = delay {
            thread::sleep(d);
        }
        if dup {
            self.inner.send(node, msg.clone())?;
        }
        self.inner.send(node, msg)
    }

    fn recv_from(&mut self, node: u8, timeout: Duration) -> Result<ToBroker, TransportError> {
        loop {
            {
                let mut c = self.ctl.lock();
                if c.synthetic_idle[node as usize] > 0 {
                    c.synthetic_idle[node as usize] -= 1;
                    return Ok(ToBroker::Idle);
                }
            }
            let msg = self.inner.recv_from(node, timeout)?;
            let mut c = self.ctl.lock();
            if c.swallow[node as usize] > 0 && matches!(msg, ToBroker::Idle) {
                // The duplicated Deliver's whole turn reply is exactly
                // one Idle; by FIFO, eating any one Idle realigns the
                // stream.
                c.swallow[node as usize] -= 1;
                continue;
            }
            return Ok(msg);
        }
    }

    fn unlink(&mut self, node: u8) {
        // The dead incarnation's protocol debts die with it.
        let mut c = self.ctl.lock();
        c.synthetic_idle[node as usize] = 0;
        c.swallow[node as usize] = 0;
        drop(c);
        self.inner.unlink(node);
    }

    fn relink(&mut self, node: u8) -> Result<Relink, TransportError> {
        self.inner.relink(node)
    }

    fn rendezvous_node(&mut self, node: u8, timeout: Duration) -> Result<(), TransportError> {
        self.inner.rendezvous_node(node, timeout)
    }
}

/// Node-side chaos wrapper: enforces the incarnation's receive budget.
/// When it runs out, the node observes a disconnect and crash-exits
/// through the normal snapshot path.
pub(crate) struct ChaosNode {
    inner: Box<dyn NodeTransport>,
    ctl: ChaosCtl,
    /// Remaining receives; `None` = unlimited.
    budget: Option<u64>,
    killed: bool,
}

impl ChaosNode {
    pub(crate) fn new(inner: Box<dyn NodeTransport>, ctl: ChaosCtl, node: u8) -> Self {
        let budget = ctl.next_budget(node);
        ChaosNode {
            inner,
            ctl,
            budget,
            killed: false,
        }
    }
}

impl NodeTransport for ChaosNode {
    fn send(&mut self, msg: ToBroker) -> Result<(), TransportError> {
        if self.killed {
            return Err(TransportError::Disconnected);
        }
        self.inner.send(msg)
    }

    fn send_turn(&mut self, turn: &mut Vec<ToBroker>) -> Result<(), TransportError> {
        if self.killed {
            turn.clear();
            return Err(TransportError::Disconnected);
        }
        self.inner.send_turn(turn)
    }

    fn recv(&mut self, timeout: Duration) -> Result<ToNode, TransportError> {
        if let Some(b) = self.budget {
            if b == 0 {
                if !self.killed {
                    self.killed = true;
                    self.ctl.count_kill();
                }
                return Err(TransportError::Disconnected);
            }
            self.budget = Some(b - 1);
        }
        self.inner.recv(timeout)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A scripted inner transport: records sends, serves a queue of
    /// receives.
    struct Script {
        sent: Vec<(u8, ToNode)>,
        replies: VecDeque<ToBroker>,
    }

    impl BrokerTransport for Script {
        fn node_count(&self) -> usize {
            2
        }
        fn send(&mut self, node: u8, msg: ToNode) -> Result<(), TransportError> {
            self.sent.push((node, msg));
            Ok(())
        }
        fn recv_from(&mut self, _node: u8, _t: Duration) -> Result<ToBroker, TransportError> {
            self.replies.pop_front().ok_or(TransportError::Timeout)
        }
    }

    fn deliver() -> ToNode {
        ToNode::Deliver {
            completed_ns: 100,
            frame: rtec_can::Frame::new(rtec_can::CanId::new(1, 0, 7), &[1, 2]),
        }
    }

    #[test]
    fn dropped_deliver_owes_a_synthetic_idle_and_clears_the_ack() {
        let ctl = ChaosCtl::new(
            ChaosPlan {
                drop_rate: 1.0,
                ..ChaosPlan::default()
            },
            2,
        );
        let mut t = ChaosBroker::new(
            Script {
                sent: Vec::new(),
                replies: VecDeque::new(),
            },
            ctl.clone(),
        );
        t.send(1, deliver()).unwrap();
        assert!(t.inner.sent.is_empty(), "the Deliver must be dropped");
        // The node never saw the Deliver: the drain is answered by a
        // synthetic Idle without touching the inner transport.
        assert_eq!(
            t.recv_from(1, Duration::from_millis(1)).unwrap(),
            ToBroker::Idle
        );
        // The sender's TxDone for the same batch loses its clean ack.
        t.send(
            0,
            ToNode::TxDone {
                handle: 1,
                tag: 2,
                all_received: true,
                completed_ns: 100,
            },
        )
        .unwrap();
        match t.inner.sent.last() {
            Some((0, ToNode::TxDone { all_received, .. })) => assert!(!all_received),
            other => panic!("TxDone must be forwarded, got {other:?}"),
        }
        assert_eq!(ctl.report().dropped, 1);
    }

    #[test]
    fn duplicated_deliver_swallows_exactly_one_idle() {
        let ctl = ChaosCtl::new(
            ChaosPlan {
                dup_rate: 1.0,
                ..ChaosPlan::default()
            },
            2,
        );
        let mut t = ChaosBroker::new(
            Script {
                sent: Vec::new(),
                replies: VecDeque::from([
                    ToBroker::Idle,
                    ToBroker::Idle,
                    ToBroker::Done { node: 1 },
                ]),
            },
            ctl.clone(),
        );
        t.send(1, deliver()).unwrap();
        assert_eq!(t.inner.sent.len(), 2, "the Deliver must be duplicated");
        // Node replies: the dup turn's Idle plus the real turn's Idle.
        // The wrapper eats one; the broker sees one Idle then the next
        // real message.
        assert_eq!(
            t.recv_from(1, Duration::from_millis(1)).unwrap(),
            ToBroker::Idle
        );
        assert_eq!(
            t.recv_from(1, Duration::from_millis(1)).unwrap(),
            ToBroker::Done { node: 1 }
        );
        assert_eq!(ctl.report().duplicated, 1);
    }

    #[test]
    fn kill_budget_disconnects_the_incarnation_exactly_once() {
        struct Echo;
        impl NodeTransport for Echo {
            fn send(&mut self, _m: ToBroker) -> Result<(), TransportError> {
                Ok(())
            }
            fn recv(&mut self, _t: Duration) -> Result<ToNode, TransportError> {
                Ok(ToNode::Shutdown)
            }
        }
        let ctl = ChaosCtl::new(
            ChaosPlan {
                kills: vec![(0, 2), (0, 1)],
                ..ChaosPlan::default()
            },
            1,
        );
        let mut first = ChaosNode::new(Box::new(Echo), ctl.clone(), 0);
        assert!(first.recv(Duration::ZERO).is_ok());
        assert!(first.recv(Duration::ZERO).is_ok());
        assert_eq!(
            first.recv(Duration::ZERO),
            Err(TransportError::Disconnected)
        );
        assert_eq!(
            first.send(ToBroker::Idle),
            Err(TransportError::Disconnected)
        );
        assert_eq!(ctl.report().kills, 1);
        // The next incarnation pops the next budget; the third lives
        // forever.
        let mut second = ChaosNode::new(Box::new(Echo), ctl.clone(), 0);
        assert!(second.recv(Duration::ZERO).is_ok());
        assert_eq!(
            second.recv(Duration::ZERO),
            Err(TransportError::Disconnected)
        );
        assert_eq!(ctl.report().kills, 2);
        let mut third = ChaosNode::new(Box::new(Echo), ctl, 0);
        for _ in 0..100 {
            assert!(third.recv(Duration::ZERO).is_ok());
        }
    }

    /// A scripted link delivers its budget minus the lost tail, loses
    /// the tail, severs, and stays severed until the reconnect pops
    /// the next incarnation's budget.
    #[test]
    fn link_budget_delivers_loses_the_tail_then_severs() {
        let mut link = LinkChaos::new(LinkPlan {
            severs: vec![4, 2],
            lose_tail: 2,
            ..LinkPlan::default()
        });
        assert_eq!(link.on_frame(), LinkFault::Deliver);
        assert_eq!(link.on_frame(), LinkFault::Deliver);
        assert_eq!(link.on_frame(), LinkFault::Lose);
        assert_eq!(link.on_frame(), LinkFault::Lose);
        assert!(link.severed());
        assert_eq!(link.on_frame(), LinkFault::Severed);
        assert_eq!(link.on_frame(), LinkFault::Severed, "severed is sticky");

        link.reconnected();
        assert!(!link.severed());
        assert_eq!(link.on_frame(), LinkFault::Lose, "budget 2 is all tail");
        assert_eq!(link.on_frame(), LinkFault::Lose);
        assert!(link.severed());

        // Plan exhausted: the third incarnation lives forever.
        link.reconnected();
        for _ in 0..100 {
            assert_eq!(link.on_frame(), LinkFault::Deliver);
        }
        let stats = link.stats();
        assert_eq!(stats.delivered, 102);
        assert_eq!(stats.lost, 4);
        assert_eq!(stats.severs, 2);
        assert_eq!(stats.delayed, 0);
    }

    /// Same seed ⇒ the same delay decisions; a nonzero rate actually
    /// delays within the bound.
    #[test]
    fn link_delays_are_seeded_and_bounded() {
        let plan = LinkPlan {
            seed: 7,
            delay_rate: 0.5,
            max_delay: Duration::from_micros(50),
            ..LinkPlan::default()
        };
        let run = |plan: LinkPlan| {
            let mut link = LinkChaos::new(plan);
            (0..64).map(|_| link.on_frame()).collect::<Vec<_>>()
        };
        let a = run(plan.clone());
        let b = run(plan);
        assert_eq!(a, b, "same-seed links must fault identically");
        let delayed: Vec<Duration> = a
            .iter()
            .filter_map(|f| match f {
                LinkFault::DeliverDelayed(d) => Some(*d),
                _ => None,
            })
            .collect();
        assert!(!delayed.is_empty(), "a 50% rate over 64 frames never hit");
        assert!(delayed.iter().all(|d| *d <= Duration::from_micros(50)));
    }
}

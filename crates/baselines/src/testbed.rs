//! The message-scheduling testbed: identical workloads, interchangeable
//! SRT priorities, one shared bus.
//!
//! The testbed is one more host of [`NodeMachine`], beside the
//! simulator's `NetWorld` and the live runtime's `LiveNode`: one machine
//! per node on a [`CanBus`], each stream an SRT channel of its node's
//! machine. A policy is a choice of [`SrtPriority`] per stream (see
//! [`crate::policy`]), so the send queue, the promotion timers and the
//! withdraw-and-resubmit of a more urgent newcomer are the middleware's
//! own. A release is an [`Input::Publish`]; the host arms every timer,
//! answers aborts inline from the bus model and applies identifier
//! rewrites. A stream with `rel_expiration: None` keeps its messages
//! queued best-effort forever (the classic baseline behaviour); one with
//! an expiration has them dropped when it passes. Deadline misses are
//! judged at wire completion: a message whose transmission completes
//! after its absolute deadline missed it.

use rtec_analysis::edf::PrioritySlotConfig;
use rtec_can::{BusConfig, CanBus, CanEvent, FaultInjector, MapScheduler, NodeId, Notification};
use rtec_can::{TxHandle, TxRequest};
use rtec_core::channel::{ChannelException, ChannelSpec, SrtPriority, SrtSpec};
use rtec_core::machine::{Input, MachineConfig, NodeMachine, Output, SrtTimer, SrtTx};
use rtec_core::{Event, Subject};
use rtec_sim::{Ctx, Duration, Engine, Histogram, Model, RngStreams, Time};
use rtec_workloads::{ArrivalGen, StreamSpec};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Offset so testbed etags avoid the reserved protocol range.
const ETAG_BASE: u16 = 16;

/// Testbed configuration.
#[derive(Clone, Debug)]
pub struct TestbedConfig {
    /// Bus parameters.
    pub bus: BusConfig,
    /// The workload.
    pub streams: Vec<StreamSpec>,
    /// Run seed (drives all arrival processes).
    pub seed: u64,
    /// The machines' deadline → priority mapping of
    /// [`SrtPriority::Slots`] channels.
    pub priority_slots: PrioritySlotConfig,
}

/// `set` with every expiration removed: its messages stay queued until
/// they are sent, however late.
pub fn without_expiry(set: &[StreamSpec]) -> Vec<StreamSpec> {
    let keep = |s: &StreamSpec| StreamSpec {
        rel_expiration: None,
        ..*s
    };
    set.iter().map(keep).collect()
}

/// Per-stream outcome counters.
#[derive(Clone, Copy, Debug, Default, Serialize, Deserialize)]
pub struct StreamStats {
    /// Messages released.
    pub released: u64,
    /// Messages whose transmission completed.
    pub completed: u64,
    /// Completed messages that finished after their deadline.
    pub missed: u64,
    /// Messages dropped at expiration without transmission.
    pub dropped: u64,
}

/// Aggregate testbed outcome.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct TestbedStats {
    /// Messages released.
    pub released: u64,
    /// Messages whose transmission completed.
    pub completed: u64,
    /// Completed messages that finished past their deadline.
    pub missed: u64,
    /// Messages dropped at expiration.
    pub dropped: u64,
    /// Messages still queued when the run ended.
    pub backlog: u64,
    /// Queued messages whose deadline had already passed when the run
    /// ended (counted into [`TestbedStats::miss_ratio`] — a policy must
    /// not look good by starving messages forever).
    pub stale_backlog: u64,
    /// Completions that overtook an earlier-deadline message queued
    /// somewhere on the bus — the bounded priority inversions caused by
    /// quantized priorities and non-preemption.
    pub inversions: u64,
    /// Release → completion response times (ns).
    pub response_ns: Histogram,
    /// Per-stream breakdown.
    pub per_stream: HashMap<u16, StreamStats>,
}

impl TestbedStats {
    /// The worst per-stream failure ratio: the fraction of a stream's
    /// released messages that were late, dropped, or never served. A
    /// fixed-priority scheme under overload drives this to 1.0 for its
    /// lowest-priority stream (starvation) while EDF degrades all
    /// streams evenly.
    pub fn worst_stream_failure_ratio(&self) -> f64 {
        self.per_stream
            .values()
            .filter(|s| s.released > 0)
            .map(|s| {
                let unserved = s.released - s.completed - s.dropped;
                (s.missed + s.dropped + unserved) as f64 / s.released as f64
            })
            .fold(0.0, f64::max)
    }

    /// Fraction of messages that failed their deadline: completed late,
    /// dropped at expiration, or still starving in a queue past their
    /// deadline at the end of the run.
    pub fn miss_ratio(&self) -> f64 {
        let finished = self.completed + self.dropped + self.stale_backlog;
        if finished == 0 {
            0.0
        } else {
            (self.missed + self.dropped + self.stale_backlog) as f64 / finished as f64
        }
    }
}

#[derive(Clone, Copy, Debug)]
enum TbEvent {
    /// Bus activity.
    Can(CanEvent),
    /// A stream releases its next message.
    Release(usize),
    /// A timer `node`'s machine armed for message `seq` fired.
    Timer {
        node: NodeId,
        timer: SrtTimer,
        seq: u32,
    },
}

/// The testbed world: a bus and one node machine per node.
struct SchedWorld {
    bus: CanBus,
    machines: Vec<NodeMachine>,
    /// Per node, the bus handle of the machine's submitted SRT frame.
    tx: Vec<Option<TxHandle>>,
    streams: Vec<StreamSpec>,
    gens: Vec<ArrivalGen>,
    /// Scratch buffer the machines push their outputs into.
    out: Vec<Output>,
    stats: TestbedStats,
}

fn wrap(ev: CanEvent) -> TbEvent {
    TbEvent::Can(ev)
}

impl SchedWorld {
    /// Build the engine with initial releases scheduled; `priorities`
    /// holds each stream's, index-aligned with `config.streams`.
    fn engine(priorities: &[SrtPriority], config: TestbedConfig) -> Engine<SchedWorld> {
        assert_eq!(
            priorities.len(),
            config.streams.len(),
            "one priority per stream"
        );
        let num_nodes = config
            .streams
            .iter()
            .map(|s| s.node.index() + 1)
            .max()
            .unwrap_or(1);
        let bus = CanBus::new(config.bus, num_nodes, FaultInjector::none());
        let mut machines: Vec<NodeMachine> = (0..num_nodes)
            .map(|i| {
                NodeMachine::new(MachineConfig {
                    node: NodeId(i as u8),
                    priority_slots: config.priority_slots,
                    timing: config.bus.timing,
                    srt_queue_cap: usize::MAX,
                    nrt_queue_cap: usize::MAX,
                    hrt_deferred_delivery: true,
                })
            })
            .collect();
        for (s, &priority) in config.streams.iter().zip(priorities) {
            let spec = SrtSpec {
                default_deadline: s.rel_deadline,
                default_expiration: s.rel_expiration,
                priority,
            };
            let subject = Subject::new(u64::from(s.id));
            machines[s.node.index()].announce(ETAG_BASE + s.id, subject, ChannelSpec::Srt(spec));
        }
        let streams_rng = RngStreams::new(config.seed);
        let gens: Vec<ArrivalGen> = config
            .streams
            .iter()
            .map(|s| {
                ArrivalGen::new(
                    s.pattern,
                    streams_rng.stream_indexed("arrivals", u64::from(s.id)),
                )
            })
            .collect();
        let n_streams = config.streams.len();
        let world = SchedWorld {
            bus,
            machines,
            tx: vec![None; num_nodes],
            streams: config.streams,
            gens,
            out: Vec::new(),
            stats: TestbedStats::default(),
        };
        let mut engine = Engine::new(world);
        for i in 0..n_streams {
            // First release of each stream.
            let t = engine.model.gens[i].next_release();
            engine.schedule_at(t, TbEvent::Release(i));
        }
        engine
    }

    /// Feed `input` to `node`'s machine and carry out its outputs in
    /// order. An abort is answered inline from the bus model, so its
    /// consequences (submitting the new head) land in the same event.
    fn step(&mut self, ctx: &mut Ctx<TbEvent>, node: NodeId, input: Input) {
        let n = node.index();
        let now = ctx.now();
        let mut out = std::mem::take(&mut self.out);
        let mut input = Some(input);
        while let Some(next) = input.take() {
            self.machines[n]
                .handle(now, next, &mut out)
                .expect("a testbed channel takes every publish");
            for output in out.drain(..) {
                match output {
                    Output::Submit { frame, tag, .. } => {
                        let request = TxRequest {
                            frame,
                            single_shot: false,
                            tag,
                        };
                        let mut sched = MapScheduler::new(ctx, wrap);
                        self.tx[n] = Some(self.bus.submit(&mut sched, node, request));
                    }
                    Output::Abort { class } => {
                        let aborted = self.tx[n].is_some_and(|h| self.bus.abort(node, h));
                        if aborted {
                            self.tx[n] = None;
                        }
                        input = Some(Input::AbortResult { class, aborted });
                    }
                    Output::UpdateId { id } => {
                        if let Some(handle) = self.tx[n] {
                            self.bus.update_id(node, handle, id);
                        }
                    }
                    Output::ArmTimer { at, timer, seq } => {
                        ctx.at(at, TbEvent::Timer { node, timer, seq });
                    }
                    Output::Raise {
                        etag,
                        exc: ChannelException::Expired { .. },
                    } => {
                        self.stats.dropped += 1;
                        self.stream_stats(etag).dropped += 1;
                    }
                    _ => {}
                }
            }
        }
        self.out = out;
    }

    fn stream_stats(&mut self, etag: u16) -> &mut StreamStats {
        self.stats.per_stream.entry(etag - ETAG_BASE).or_default()
    }

    fn on_release(&mut self, ctx: &mut Ctx<TbEvent>, stream_idx: usize) {
        let now = ctx.now();
        let s = self.streams[stream_idx];
        // Schedule the stream's next release first, so same-instant
        // releases keep their order.
        let next = self.gens[stream_idx].next_release();
        ctx.at(
            next.max(now + Duration::from_ns(1)),
            TbEvent::Release(stream_idx),
        );
        let etag = ETAG_BASE + s.id;
        self.stats.released += 1;
        self.stream_stats(etag).released += 1;
        let content = vec![s.id as u8; usize::from(s.dlc)];
        let event = Event::new(Subject::new(u64::from(s.id)), content);
        let publish = Input::Publish {
            etag,
            event,
            stamp: now,
        };
        self.step(ctx, s.node, publish);
    }

    /// Account the completion of `tx`, the message a node had submitted.
    fn on_completed(&mut self, now: Time, tx: SrtTx) {
        // Priority inversion: some other queued message already had an
        // earlier absolute deadline than the one that just completed. A
        // channel's front is its earliest release and deadline, so the
        // fronts decide.
        let overtaken = (self.machines.iter())
            .flat_map(|m| m.srt_queue().fronts())
            .any(|o| o.deadline < tx.deadline && o.stamp < tx.stamp);
        self.stats.inversions += u64::from(overtaken);
        self.stats.completed += 1;
        let response = now.saturating_since(tx.stamp).as_ns();
        self.stats.response_ns.record(response);
        let missed = now > tx.deadline;
        self.stats.missed += u64::from(missed);
        let ps = self.stream_stats(tx.etag);
        ps.completed += 1;
        ps.missed += u64::from(missed);
    }

    fn on_note(&mut self, ctx: &mut Ctx<TbEvent>, note: Notification) {
        if let Notification::TxCompleted {
            node,
            handle,
            tag,
            all_received,
            ..
        } = note
        {
            let n = node.index();
            if self.tx[n].take_if(|h| *h == handle).is_some() {
                let tx = self.machines[n].srt_submitted();
                self.on_completed(ctx.now(), tx.expect("a submitted frame completed"));
            }
            self.step(ctx, node, Input::TxDone { tag, all_received });
        }
    }

    fn finalize(&mut self, horizon_end: Time) {
        let queued = self.machines.iter().flat_map(|m| m.srt_queue().iter());
        let (mut backlog, mut stale) = (0, 0);
        for m in queued {
            backlog += 1;
            stale += u64::from(m.deadline < horizon_end);
        }
        self.stats.backlog = backlog;
        self.stats.stale_backlog = stale;
    }
}

impl Model for SchedWorld {
    type Event = TbEvent;

    fn handle(&mut self, ctx: &mut Ctx<TbEvent>, ev: TbEvent) {
        match ev {
            TbEvent::Can(can_ev) => {
                let notes = {
                    let mut sched = MapScheduler::new(ctx, wrap);
                    self.bus.handle(&mut sched, can_ev)
                };
                for note in notes {
                    self.on_note(ctx, note);
                }
            }
            TbEvent::Release(i) => self.on_release(ctx, i),
            TbEvent::Timer { node, timer, seq } => self.step(ctx, node, timer.input(seq)),
        }
    }
}

/// Run `config`'s workload for `horizon` of simulated time, each stream
/// at its priority in `priorities`, and return the outcome.
pub fn run_testbed(
    priorities: &[SrtPriority],
    config: TestbedConfig,
    horizon: Duration,
) -> TestbedStats {
    let mut engine = SchedWorld::engine(priorities, config);
    engine.run_until(Time::ZERO + horizon);
    engine.model.finalize(Time::ZERO + horizon);
    engine.model.stats.clone()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{deadline_monotonic, dual_priority, edf, no_promotion};
    use proptest::prelude::*;
    use rtec_analysis::edf::{next_promotion_time, priority_for_deadline};
    use rtec_can::bits::BitTiming;
    use rtec_sim::Rng;
    use rtec_workloads::{set_utilization, uniform_srt_set, ArrivalPattern};

    /// A policy as the flat reference consults it: each stream's
    /// [`SrtPriority`], by stream id, evaluated here rather than by the
    /// enum's own methods, so a mistake in those shows as a difference.
    struct Ranks {
        slots: PrioritySlotConfig,
        by_id: HashMap<u16, SrtPriority>,
    }

    impl Ranks {
        fn new(set: &[StreamSpec], priorities: &[SrtPriority], slots: PrioritySlotConfig) -> Self {
            let by_id = set.iter().map(|s| s.id).zip(priorities.iter().copied());
            Ranks {
                slots,
                by_id: by_id.collect(),
            }
        }
        fn priority(&self, stream: &StreamSpec, deadline: Time, now: Time) -> u8 {
            match self.by_id[&stream.id] {
                SrtPriority::Slots => priority_for_deadline(deadline, now, &self.slots),
                SrtPriority::Fixed(p) => p,
                SrtPriority::Dual { low, high, lead } => {
                    if now + lead >= deadline {
                        high
                    } else {
                        low
                    }
                }
            }
        }
        fn next_change(&self, stream: &StreamSpec, deadline: Time, now: Time) -> Option<Time> {
            match self.by_id[&stream.id] {
                SrtPriority::Slots => next_promotion_time(deadline, now, &self.slots),
                SrtPriority::Fixed(_) => None,
                SrtPriority::Dual { lead, .. } => {
                    Some(deadline.saturating_sub(lead)).filter(|&at| at > now)
                }
            }
        }
    }

    /// The flat per-node queue the per-stream FIFOs replaced, kept
    /// verbatim as the reference for `machine_matches_flat_reference`:
    /// every queue question is answered by scanning all queued
    /// messages, with no appeal to stream order or policy monotonicity.
    mod flat {
        use super::super::*;
        use super::Ranks;
        use rtec_can::{CanId, Frame};

        /// Testbed events.
        #[derive(Clone, Copy, Debug)]
        pub(super) enum TbEvent {
            /// Bus activity.
            Can(CanEvent),
            /// A stream releases its next message.
            Release(usize),
            /// Policy-announced priority change for a queued message.
            Promote {
                /// Owning node.
                node: NodeId,
                /// Message sequence number.
                seq: u64,
            },
            /// Expiration check.
            Expire {
                /// Owning node.
                node: NodeId,
                /// Message sequence number.
                seq: u64,
            },
        }

        #[derive(Clone, Debug)]
        struct TbMsg {
            seq: u64,
            stream_idx: usize,
            released: Time,
            deadline: Time,
        }

        /// The testbed world.
        pub(super) struct SchedWorld {
            bus: CanBus,
            policy: Ranks,
            streams: Vec<StreamSpec>,
            gens: Vec<ArrivalGen>,
            queues: Vec<Vec<TbMsg>>,
            inflight: Vec<Option<(u64, TxHandle, u8)>>,
            next_seq: u64,
            /// Outcome counters.
            stats: TestbedStats,
        }

        fn wrap(ev: CanEvent) -> TbEvent {
            TbEvent::Can(ev)
        }

        impl SchedWorld {
            /// Build the engine with initial releases scheduled.
            fn engine(policy: Ranks, config: TestbedConfig) -> Engine<SchedWorld> {
                let num_nodes = config
                    .streams
                    .iter()
                    .map(|s| s.node.index() + 1)
                    .max()
                    .unwrap_or(1);
                let bus = CanBus::new(config.bus, num_nodes, FaultInjector::none());
                let streams_rng = RngStreams::new(config.seed);
                let gens: Vec<ArrivalGen> = config
                    .streams
                    .iter()
                    .map(|s| {
                        ArrivalGen::new(
                            s.pattern,
                            streams_rng.stream_indexed("arrivals", u64::from(s.id)),
                        )
                    })
                    .collect();
                let n_streams = config.streams.len();
                let world = SchedWorld {
                    bus,
                    policy,
                    streams: config.streams,
                    gens,
                    queues: vec![Vec::new(); num_nodes],
                    inflight: vec![None; num_nodes],
                    next_seq: 0,
                    stats: TestbedStats::default(),
                };
                let mut engine = Engine::new(world);
                for i in 0..n_streams {
                    // First release of each stream.
                    let t = engine.model.gens[i].next_release();
                    engine.schedule_at(t, TbEvent::Release(i));
                }
                engine
            }

            fn head_index(&self, node: usize, now: Time) -> Option<usize> {
                (0..self.queues[node].len()).min_by_key(|&i| {
                    let m = &self.queues[node][i];
                    let s = &self.streams[m.stream_idx];
                    (self.policy.priority(s, m.deadline, now), m.deadline, m.seq)
                })
            }

            fn dispatch(&mut self, ctx: &mut Ctx<TbEvent>, node: NodeId) {
                let n = node.index();
                if self.inflight[n].is_some() {
                    return;
                }
                let now = ctx.now();
                let Some(idx) = self.head_index(n, now) else {
                    return;
                };
                let m = &self.queues[n][idx];
                let s = &self.streams[m.stream_idx];
                let prio = self.policy.priority(s, m.deadline, now);
                let etag = ETAG_BASE + s.id;
                let payload = vec![s.id as u8; usize::from(s.dlc)];
                let frame = Frame::new(CanId::new(prio, node.0, etag), &payload);
                let (seq, deadline, stream_idx) = (m.seq, m.deadline, m.stream_idx);
                let mut sched = MapScheduler::new(ctx, wrap);
                let handle = self.bus.submit(
                    &mut sched,
                    node,
                    TxRequest {
                        frame,
                        single_shot: false,
                        tag: seq,
                    },
                );
                self.inflight[n] = Some((seq, handle, prio));
                if let Some(t) = self
                    .policy
                    .next_change(&self.streams[stream_idx], deadline, now)
                {
                    ctx.at(t.max(now), TbEvent::Promote { node, seq });
                }
            }

            fn reconsider(&mut self, ctx: &mut Ctx<TbEvent>, node: NodeId) {
                let n = node.index();
                if let Some((seq, handle, _)) = self.inflight[n] {
                    if let Some(idx) = self.head_index(n, ctx.now()) {
                        if self.queues[n][idx].seq != seq && self.bus.abort(node, handle) {
                            self.inflight[n] = None;
                        }
                    }
                }
                self.dispatch(ctx, node);
            }

            fn on_release(&mut self, ctx: &mut Ctx<TbEvent>, stream_idx: usize) {
                let now = ctx.now();
                let s = self.streams[stream_idx];
                // Schedule the stream's next release.
                let next = self.gens[stream_idx].next_release();
                ctx.at(
                    next.max(now + Duration::from_ns(1)),
                    TbEvent::Release(stream_idx),
                );
                // Enqueue this message.
                let seq = self.next_seq;
                self.next_seq += 1;
                let deadline = now + s.rel_deadline;
                let expiration = s.rel_expiration.map(|e| now + e);
                self.queues[s.node.index()].push(TbMsg {
                    seq,
                    stream_idx,
                    released: now,
                    deadline,
                });
                self.stats.released += 1;
                self.stats.per_stream.entry(s.id).or_default().released += 1;
                if let Some(exp) = expiration {
                    ctx.at(exp, TbEvent::Expire { node: s.node, seq });
                }
                self.reconsider(ctx, s.node);
            }

            fn on_promote(&mut self, ctx: &mut Ctx<TbEvent>, node: NodeId, seq: u64) {
                let n = node.index();
                let Some((cur_seq, handle, cur_prio)) = self.inflight[n] else {
                    return;
                };
                if cur_seq != seq {
                    return;
                }
                let Some(idx) = self.queues[n].iter().position(|m| m.seq == seq) else {
                    return;
                };
                let now = ctx.now();
                let m = &self.queues[n][idx];
                let s = &self.streams[m.stream_idx];
                let new_prio = self.policy.priority(s, m.deadline, now);
                let (etag, deadline, stream_idx) = (ETAG_BASE + s.id, m.deadline, m.stream_idx);
                if new_prio != cur_prio
                    && self
                        .bus
                        .update_id(node, handle, CanId::new(new_prio, node.0, etag))
                {
                    self.inflight[n] = Some((seq, handle, new_prio));
                }
                if let Some(t) = self
                    .policy
                    .next_change(&self.streams[stream_idx], deadline, now)
                {
                    ctx.at(
                        t.max(now + Duration::from_ns(1)),
                        TbEvent::Promote { node, seq },
                    );
                }
            }

            fn on_expire(&mut self, ctx: &mut Ctx<TbEvent>, node: NodeId, seq: u64) {
                let n = node.index();
                let Some(idx) = self.queues[n].iter().position(|m| m.seq == seq) else {
                    return;
                };
                if let Some((cur_seq, handle, _)) = self.inflight[n] {
                    if cur_seq == seq {
                        if !self.bus.abort(node, handle) {
                            return; // on the wire: let it complete
                        }
                        self.inflight[n] = None;
                    }
                }
                let m = self.queues[n].remove(idx);
                let sid = self.streams[m.stream_idx].id;
                self.stats.dropped += 1;
                self.stats.per_stream.entry(sid).or_default().dropped += 1;
                self.dispatch(ctx, node);
            }

            fn on_note(&mut self, ctx: &mut Ctx<TbEvent>, note: Notification) {
                if let Notification::TxCompleted { node, tag, .. } = note {
                    let n = node.index();
                    let now = ctx.now();
                    if let Some(idx) = self.queues[n].iter().position(|m| m.seq == tag) {
                        let m = self.queues[n].remove(idx);
                        // Priority inversion: some other queued message already
                        // had an earlier absolute deadline than the one that
                        // just completed.
                        let overtaken = self
                            .queues
                            .iter()
                            .flatten()
                            .any(|o| o.deadline < m.deadline && o.released < m.released);
                        if overtaken {
                            self.stats.inversions += 1;
                        }
                        let sid = self.streams[m.stream_idx].id;
                        self.stats.completed += 1;
                        self.stats
                            .response_ns
                            .record(now.saturating_since(m.released).as_ns());
                        let ps = self.stats.per_stream.entry(sid).or_default();
                        ps.completed += 1;
                        if now > m.deadline {
                            self.stats.missed += 1;
                            ps.missed += 1;
                        }
                    }
                    if self.inflight[n].is_some_and(|(s, _, _)| s == tag) {
                        self.inflight[n] = None;
                    }
                    self.dispatch(ctx, node);
                }
            }

            fn finalize(&mut self, horizon_end: Time) {
                self.stats.backlog = self.queues.iter().map(|q| q.len() as u64).sum();
                self.stats.stale_backlog = self
                    .queues
                    .iter()
                    .flatten()
                    .filter(|m| m.deadline < horizon_end)
                    .count() as u64;
            }
        }

        impl Model for SchedWorld {
            type Event = TbEvent;

            fn handle(&mut self, ctx: &mut Ctx<TbEvent>, ev: TbEvent) {
                match ev {
                    TbEvent::Can(can_ev) => {
                        let notes = {
                            let mut sched = MapScheduler::new(ctx, wrap);
                            self.bus.handle(&mut sched, can_ev)
                        };
                        for note in notes {
                            self.on_note(ctx, note);
                        }
                    }
                    TbEvent::Release(i) => self.on_release(ctx, i),
                    TbEvent::Promote { node, seq } => self.on_promote(ctx, node, seq),
                    TbEvent::Expire { node, seq } => self.on_expire(ctx, node, seq),
                }
            }
        }

        /// Run `policy` over `config`'s workload for `horizon` of simulated
        /// time and return the outcome.
        pub(super) fn run_testbed(
            policy: Ranks,
            config: TestbedConfig,
            horizon: Duration,
        ) -> TestbedStats {
            let mut engine = SchedWorld::engine(policy, config);
            engine.run_until(Time::ZERO + horizon);
            engine.model.finalize(Time::ZERO + horizon);
            engine.model.stats.clone()
        }
    }

    fn config(streams: Vec<StreamSpec>) -> TestbedConfig {
        TestbedConfig {
            bus: BusConfig::default(),
            streams,
            seed: 11,
            priority_slots: PrioritySlotConfig::paper_default(),
        }
    }

    #[test]
    fn light_load_has_no_misses_under_any_policy() {
        let mut rng = Rng::seed_from_u64(1);
        let set = uniform_srt_set(
            8,
            4,
            Duration::from_ms(10),
            Duration::from_ms(100),
            &mut rng,
        );
        let set = without_expiry(&set);
        assert!(set_utilization(&set, BitTiming::MBIT_1) < 0.2);
        let horizon = Duration::from_secs(2);
        let edf = run_testbed(&edf(&set), config(set.clone()), horizon);
        let dm = run_testbed(&deadline_monotonic(&set), config(set.clone()), horizon);
        assert!(edf.released > 100);
        assert_eq!(edf.missed, 0, "EDF misses at 20% load");
        assert_eq!(dm.missed, 0, "DM misses at 20% load");
        assert_eq!(edf.miss_ratio(), 0.0);
    }

    #[test]
    fn identical_workload_across_policies() {
        let mut rng = Rng::seed_from_u64(2);
        let set = uniform_srt_set(6, 3, Duration::from_ms(5), Duration::from_ms(50), &mut rng);
        let set = without_expiry(&set);
        let horizon = Duration::from_secs(1);
        let a = run_testbed(&edf(&set), config(set.clone()), horizon);
        let b = run_testbed(&deadline_monotonic(&set), config(set.clone()), horizon);
        assert_eq!(a.released, b.released, "same arrivals under both policies");
    }

    #[test]
    fn overload_produces_misses_and_backlog_without_dropping() {
        let set: Vec<StreamSpec> = (0..4)
            .map(|i| StreamSpec {
                id: i,
                node: NodeId(i as u8),
                dlc: 8,
                // Four streams of 160 µs frames every 400 µs: U = 1.6.
                pattern: ArrivalPattern::periodic(Duration::from_us(400)),
                rel_deadline: Duration::from_us(400),
                rel_expiration: None,
            })
            .collect();
        let stats = run_testbed(&edf(&set), config(set), Duration::from_ms(100));
        assert!(stats.missed > 0, "overload must miss deadlines");
        assert!(stats.backlog > 0, "overload builds a backlog");
        assert_eq!(stats.dropped, 0, "no expiration, no drop");
        assert!(stats.miss_ratio() > 0.5);
    }

    #[test]
    fn expiry_dropping_bounds_backlog() {
        let set: Vec<StreamSpec> = (0..4)
            .map(|i| StreamSpec {
                id: i,
                node: NodeId(i as u8),
                dlc: 8,
                pattern: ArrivalPattern::periodic(Duration::from_us(400)),
                rel_deadline: Duration::from_us(400),
                rel_expiration: Some(Duration::from_us(800)),
            })
            .collect();
        let stats = run_testbed(&edf(&set), config(set), Duration::from_ms(100));
        assert!(stats.dropped > 0, "expired messages are dropped");
        assert!(
            stats.backlog <= 8,
            "expiry keeps the queues bounded, backlog {}",
            stats.backlog
        );
    }

    #[test]
    fn edf_beats_fixed_priority_near_saturation() {
        // A mix where DM's static order hurts: a long-deadline stream
        // releases bursts that under DM always lose to shorter-deadline
        // streams even when its absolute deadline is imminent.
        let mut rng = Rng::seed_from_u64(5);
        let base = uniform_srt_set(12, 6, Duration::from_ms(2), Duration::from_ms(40), &mut rng);
        let set =
            rtec_workloads::scale_load(&base, 0.92 / set_utilization(&base, BitTiming::MBIT_1));
        let set = without_expiry(&set);
        let horizon = Duration::from_secs(2);
        let edf = run_testbed(&edf(&set), config(set.clone()), horizon);
        let dm = run_testbed(&deadline_monotonic(&set), config(set.clone()), horizon);
        assert!(
            edf.miss_ratio() <= dm.miss_ratio(),
            "EDF {} vs DM {}",
            edf.miss_ratio(),
            dm.miss_ratio()
        );
    }

    #[test]
    fn response_times_recorded() {
        let set = vec![StreamSpec {
            id: 0,
            node: NodeId(0),
            dlc: 8,
            pattern: ArrivalPattern::periodic(Duration::from_ms(1)),
            rel_deadline: Duration::from_ms(1),
            rel_expiration: None,
        }];
        let stats = run_testbed(&edf(&set), config(set), Duration::from_ms(50));
        assert!(stats.response_ns.count() >= 40);
        // An uncontended 8-byte frame takes its exact wire time.
        assert!(stats.response_ns.min().unwrap() >= 130_000);
        assert!(stats.response_ns.max().unwrap() < 200_000);
    }

    fn us(n: u64) -> Duration {
        Duration::from_us(n)
    }

    /// Release patterns with gaps down to a fraction of a frame time
    /// (67–160 us), so queues build and a message can expire while its
    /// predecessor still occupies the wire.
    fn arb_pattern() -> impl Strategy<Value = ArrivalPattern> {
        prop_oneof![
            (30u64..2_000, 0u64..500, 0u64..400).prop_map(|(period, phase, jitter)| {
                ArrivalPattern::Periodic {
                    period: us(period),
                    phase: us(phase),
                    jitter: us(jitter),
                }
            }),
            (20u64..1_000, 1u64..500).prop_map(|(min_gap, mean_extra)| {
                ArrivalPattern::Sporadic {
                    min_gap: us(min_gap),
                    mean_extra: us(mean_extra),
                }
            }),
            (40u64..2_000).prop_map(|mean_gap| ArrivalPattern::Poisson {
                mean_gap: us(mean_gap),
            }),
        ]
    }

    /// One to three nodes with one to four streams each.
    fn arb_streams() -> impl Strategy<Value = Vec<StreamSpec>> {
        let stream = (
            0u8..=8,
            arb_pattern(),
            100u64..5_000,
            any::<bool>(),
            40u64..3_000,
        );
        prop::collection::vec(prop::collection::vec(stream, 1..=4), 1..=3).prop_map(|nodes| {
            let mut set = Vec::new();
            for (node, streams) in nodes.into_iter().enumerate() {
                for (dlc, pattern, deadline, expires, expiration) in streams {
                    set.push(StreamSpec {
                        id: set.len() as u16,
                        node: NodeId(node as u8),
                        dlc,
                        pattern,
                        rel_deadline: us(deadline),
                        rel_expiration: expires.then_some(us(expiration)),
                    });
                }
            }
            set
        })
    }

    /// Every field of the outcome, in a form that compares.
    fn observable(mut stats: TestbedStats) -> impl PartialEq + std::fmt::Debug {
        let mut per_stream: Vec<_> = stats
            .per_stream
            .drain()
            .map(|(id, s)| (id, s.released, s.completed, s.missed, s.dropped))
            .collect();
        per_stream.sort_unstable();
        (
            (stats.released, stats.completed, stats.missed, stats.dropped),
            (stats.backlog, stats.stale_backlog, stats.inversions),
            stats.response_ns.samples().to_vec(),
            per_stream,
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The machine-hosted testbed reproduces the flat-queue
        /// testbed exactly — inversions and the response histogram
        /// included — under every policy, with and without expiry
        /// dropping.
        #[test]
        fn machine_matches_flat_reference(set in arb_streams(), seed in any::<u64>()) {
            let horizon = Duration::from_ms(20);
            let slots = PrioritySlotConfig::paper_default();
            for expiring in [false, true] {
                let streams = if expiring { set.clone() } else { without_expiry(&set) };
                let cfg = || TestbedConfig {
                    bus: BusConfig::default(),
                    streams: streams.clone(),
                    seed,
                    priority_slots: slots,
                };
                macro_rules! same {
                    ($priorities:expr) => {
                        let priorities = $priorities;
                        prop_assert_eq!(
                            observable(run_testbed(&priorities, cfg(), horizon)),
                            observable(flat::run_testbed(
                                Ranks::new(&streams, &priorities, slots),
                                cfg(),
                                horizon
                            )),
                            "expiring={}", expiring
                        );
                    };
                }
                same!(edf(&set));
                same!(deadline_monotonic(&set));
                same!(dual_priority(&set, BitTiming::MBIT_1));
                same!(no_promotion(&set, &slots));
            }
        }
    }
}

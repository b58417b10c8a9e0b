//! The §4 comparison runner: identical workloads, interchangeable SRT
//! priorities, one shared bus.
//!
//! [`run_testbed`] runs a stream set on the simulator's own host of the
//! node machine, [`Network`]: each stream an SRT channel of its node,
//! announced in stream order, whose releases a [`Source`] publishes. A
//! policy is a choice of [`SrtPriority`] per stream (see
//! [`crate::policy`]), so the send queue, the promotion timers and the
//! withdraw-and-resubmit of a more urgent newcomer are the
//! middleware's own. A stream with `rel_expiration: None` keeps its
//! messages queued best-effort forever (the classic baseline
//! behaviour); one with an expiration has them dropped when it passes.
//! Deadline misses are judged at wire completion
//! ([`rtec_core::ChannelStats::completed_late`]): a message whose
//! transmission completes after its absolute deadline missed it.

use rtec_can::NodeId;
use rtec_core::channel::{ChannelSpec, SrtPriority, SrtSpec};
use rtec_core::network::{Network, NetworkConfig, Source};
use rtec_core::{Event, NetApi, Subject};
use rtec_sim::{Duration, Histogram, RngStreams, Time};
use rtec_workloads::{ArrivalGen, StreamSpec};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

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

/// Aggregate outcome of a run.
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
    /// Release → completion response times (ns), stream by stream.
    pub response_ns: Histogram,
    /// Per-stream breakdown of the streams that released a message.
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

fn subject(s: &StreamSpec) -> Subject {
    Subject::new(u64::from(s.id))
}

/// A stream's releases: each firing publishes one `dlc`-byte message
/// on the stream's channel.
struct Release {
    stream: StreamSpec,
    arrivals: ArrivalGen,
}

impl Source for Release {
    fn next(&mut self, _now: Time) -> Time {
        self.arrivals.next_release()
    }

    fn fire(&mut self, api: &mut NetApi<'_>) {
        let s = &self.stream;
        let event = Event::new(subject(s), vec![s.id as u8; usize::from(s.dlc)]);
        api.publish(s.node, subject(s), event)
            .expect("a stream's channel takes every publish");
    }
}

/// Run `streams` for `horizon` of simulated time on a [`Network`] built
/// from `config` (its `nodes` replaced by the number of nodes the
/// streams name), each stream at its priority in `priorities`, and
/// return the outcome. `config.seed` drives every arrival process.
pub fn run_testbed(
    priorities: &[SrtPriority],
    streams: &[StreamSpec],
    config: &NetworkConfig,
    horizon: Duration,
) -> TestbedStats {
    assert_eq!(priorities.len(), streams.len(), "one priority per stream");
    let nodes = streams.iter().map(|s| s.node.index() + 1).max();
    let mut net = Network::with_config(NetworkConfig {
        nodes: nodes.unwrap_or(1),
        ..config.clone()
    });
    let mut api = net.api();
    for (s, &priority) in streams.iter().zip(priorities) {
        let spec = SrtSpec {
            default_deadline: s.rel_deadline,
            default_expiration: s.rel_expiration,
            priority,
        };
        api.announce(s.node, subject(s), ChannelSpec::Srt(spec))
            .expect("a stream's channel is announced");
    }
    let rng = RngStreams::new(config.seed);
    for &stream in streams {
        let rng = rng.stream_indexed("arrivals", u64::from(stream.id));
        let mut arrivals = ArrivalGen::new(stream.pattern, rng);
        let first = arrivals.next_release();
        net.source(first, Release { stream, arrivals });
    }
    let end = Time::ZERO + horizon;
    net.run_until(end);
    outcome(&net, streams, end)
}

/// Read a finished run's outcome off the network's statistics and its
/// nodes' SRT queues.
fn outcome(net: &Network, streams: &[StreamSpec], end: Time) -> TestbedStats {
    let (world, net_stats) = (net.world(), net.stats());
    let mut stats = TestbedStats {
        inversions: net_stats.srt_inversions,
        ..TestbedStats::default()
    };
    for s in streams {
        let etag = world.registry().etag_of(subject(s));
        let ch = &net_stats.channels[&etag.expect("an announced stream is bound")];
        let ps = StreamStats {
            released: ch.published,
            completed: ch.wire_transmissions,
            missed: ch.completed_late,
            dropped: ch.expired_drops,
        };
        stats.released += ps.released;
        stats.completed += ps.completed;
        stats.missed += ps.missed;
        stats.dropped += ps.dropped;
        stats.response_ns.merge(&ch.wire_latency_ns);
        if ps.released > 0 {
            stats.per_stream.insert(s.id, ps);
        }
    }
    for node in 0..world.config().nodes {
        for m in world.srt_queue(NodeId(node as u8)).iter() {
            stats.backlog += 1;
            stats.stale_backlog += u64::from(m.deadline < end);
        }
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{deadline_monotonic, dual_priority, edf, no_promotion};
    use proptest::prelude::*;
    use rtec_analysis::edf::{next_promotion_time, priority_for_deadline, PrioritySlotConfig};
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
        use rtec_can::{CanBus, CanEvent, CanId, FaultInjector, Frame, MapScheduler, Notification};
        use rtec_can::{TxHandle, TxRequest};
        use rtec_core::binding::ETAG_FIRST_DYNAMIC;
        use rtec_sim::{Ctx, Engine, Model};

        /// The etag of stream `idx`, as the network binds it.
        fn etag_of(idx: usize) -> u16 {
            ETAG_FIRST_DYNAMIC + idx as u16
        }

        /// Reference events.
        #[derive(Clone, Copy, Debug)]
        pub(super) enum FlatEvent {
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

        /// The reference world.
        pub(super) struct FlatWorld {
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

        fn wrap(ev: CanEvent) -> FlatEvent {
            FlatEvent::Can(ev)
        }

        impl FlatWorld {
            /// Build the engine with initial releases scheduled.
            fn engine(
                policy: Ranks,
                streams: Vec<StreamSpec>,
                config: &NetworkConfig,
            ) -> Engine<FlatWorld> {
                let num_nodes = streams
                    .iter()
                    .map(|s| s.node.index() + 1)
                    .max()
                    .unwrap_or(1);
                let bus = CanBus::new(config.bus, num_nodes, FaultInjector::none());
                let streams_rng = RngStreams::new(config.seed);
                let gens: Vec<ArrivalGen> = streams
                    .iter()
                    .map(|s| {
                        ArrivalGen::new(
                            s.pattern,
                            streams_rng.stream_indexed("arrivals", u64::from(s.id)),
                        )
                    })
                    .collect();
                let n_streams = streams.len();
                let world = FlatWorld {
                    bus,
                    policy,
                    streams,
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
                    engine.schedule_at(t, FlatEvent::Release(i));
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

            fn dispatch(&mut self, ctx: &mut Ctx<FlatEvent>, node: NodeId) {
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
                let etag = etag_of(m.stream_idx);
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
                    ctx.at(t.max(now), FlatEvent::Promote { node, seq });
                }
            }

            fn reconsider(&mut self, ctx: &mut Ctx<FlatEvent>, node: NodeId) {
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

            fn on_release(&mut self, ctx: &mut Ctx<FlatEvent>, stream_idx: usize) {
                let now = ctx.now();
                let s = self.streams[stream_idx];
                // Schedule the stream's next release.
                let next = self.gens[stream_idx].next_release();
                ctx.at(
                    next.max(now + Duration::from_ns(1)),
                    FlatEvent::Release(stream_idx),
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
                    ctx.at(exp, FlatEvent::Expire { node: s.node, seq });
                }
                self.reconsider(ctx, s.node);
            }

            fn on_promote(&mut self, ctx: &mut Ctx<FlatEvent>, node: NodeId, seq: u64) {
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
                let (etag, deadline, stream_idx) =
                    (etag_of(m.stream_idx), m.deadline, m.stream_idx);
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
                        FlatEvent::Promote { node, seq },
                    );
                }
            }

            fn on_expire(&mut self, ctx: &mut Ctx<FlatEvent>, node: NodeId, seq: u64) {
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

            fn on_note(&mut self, ctx: &mut Ctx<FlatEvent>, note: Notification) {
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

        impl Model for FlatWorld {
            type Event = FlatEvent;

            fn handle(&mut self, ctx: &mut Ctx<FlatEvent>, ev: FlatEvent) {
                match ev {
                    FlatEvent::Can(can_ev) => {
                        let notes = {
                            let mut sched = MapScheduler::new(ctx, wrap);
                            self.bus.handle(&mut sched, can_ev)
                        };
                        for note in notes {
                            self.on_note(ctx, note);
                        }
                    }
                    FlatEvent::Release(i) => self.on_release(ctx, i),
                    FlatEvent::Promote { node, seq } => self.on_promote(ctx, node, seq),
                    FlatEvent::Expire { node, seq } => self.on_expire(ctx, node, seq),
                }
            }
        }

        /// Run `policy` over `config`'s workload for `horizon` of simulated
        /// time and return the outcome.
        pub(super) fn run_testbed(
            policy: Ranks,
            streams: Vec<StreamSpec>,
            config: &NetworkConfig,
            horizon: Duration,
        ) -> TestbedStats {
            let mut engine = FlatWorld::engine(policy, streams, config);
            engine.run_until(Time::ZERO + horizon);
            engine.model.finalize(Time::ZERO + horizon);
            engine.model.stats.clone()
        }
    }

    fn config() -> NetworkConfig {
        NetworkConfig {
            seed: 11,
            ..NetworkConfig::default()
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
        let edf = run_testbed(&edf(&set), &set, &config(), horizon);
        let dm = run_testbed(&deadline_monotonic(&set), &set, &config(), horizon);
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
        let a = run_testbed(&edf(&set), &set, &config(), horizon);
        let b = run_testbed(&deadline_monotonic(&set), &set, &config(), horizon);
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
        let stats = run_testbed(&edf(&set), &set, &config(), Duration::from_ms(100));
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
        let stats = run_testbed(&edf(&set), &set, &config(), Duration::from_ms(100));
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
        let edf = run_testbed(&edf(&set), &set, &config(), horizon);
        let dm = run_testbed(&deadline_monotonic(&set), &set, &config(), horizon);
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
        let stats = run_testbed(&edf(&set), &set, &config(), Duration::from_ms(50));
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

    /// Every field of the outcome, in a form that compares. The network
    /// records response times per channel, so the samples compare as a
    /// sorted multiset.
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
            {
                let mut samples = stats.response_ns.samples().to_vec();
                samples.sort_unstable();
                samples
            },
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
                let cfg = NetworkConfig {
                    seed,
                    priority_slots: slots,
                    ..NetworkConfig::default()
                };
                macro_rules! same {
                    ($priorities:expr) => {
                        let priorities = $priorities;
                        prop_assert_eq!(
                            observable(run_testbed(&priorities, &streams, &cfg, horizon)),
                            observable(flat::run_testbed(
                                Ranks::new(&streams, &priorities, slots),
                                streams.clone(),
                                &cfg,
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

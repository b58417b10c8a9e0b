//! Layer kernels: each times calls into one crate's `pub` functions in
//! a tight loop, under the shapes the workload at hand produced (queue
//! depth, payload length, lane cap), and reports nanoseconds
//! per operation. They run only in the traced pass; every kernel is a
//! span.
//!
//! Iteration counts are fixed, so the work is the same on every run;
//! inputs and results pass through `black_box`.

use crate::inputs;
use crate::spans::Probe;
use rtec_can::bits::exact_frame_bits;
use rtec_can::{
    BusConfig, CanBus, CanEvent, CanId, FaultInjector, FilterMode, Frame, MapScheduler, NodeId,
    Notification, TxRequest,
};
use rtec_core::frag::{fragment, Reassembler};
use rtec_core::{ChannelClass, Subject};
use rtec_gateway::egress::{EgressEntry, FlushVerdict};
use rtec_gateway::wire::{self, EventMsg, ToClient};
use rtec_gateway::{EgressQueue, SlowConsumerPolicy};
use rtec_sim::{Ctx, Duration, Engine, Model, Rng, Time, TraceSink};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// The kernel runner of one traced pass.
pub struct Kernels {
    seed: u64,
    /// Iterations are divided by this (10 under `--quick`).
    div: u64,
    probe: Probe,
}

/// Replaces every fired event with one a short seeded delay ahead, so
/// the pending queue holds its depth while the engine dispatches.
struct Hold {
    delays: Vec<Duration>,
    next: usize,
}

impl Model for Hold {
    type Event = ();
    fn handle(&mut self, ctx: &mut Ctx<()>, _ev: ()) {
        let d = self.delays[self.next % self.delays.len()];
        self.next += 1;
        ctx.after(d, ());
    }
}

/// Keeps every node of a bare bus saturated: a completed frame is
/// replaced at once.
struct Saturator {
    bus: CanBus,
    seed: u64,
    completed: u64,
}

enum SatEv {
    Can(CanEvent),
    Start,
}

impl Saturator {
    fn submit(&mut self, ctx: &mut Ctx<SatEv>, node: u8) {
        let payload = inputs::payload(
            self.seed,
            Subject(u64::from(node)),
            self.completed as u32,
            inputs::RT_PAYLOAD,
        );
        let frame = Frame::new(
            CanId::new(100 + node, node, 500 + u16::from(node)),
            &payload,
        );
        let mut sched = MapScheduler::new(ctx, SatEv::Can);
        self.bus.submit(
            &mut sched,
            NodeId(node),
            TxRequest {
                frame,
                single_shot: false,
                tag: u64::from(node),
            },
        );
    }
}

impl Model for Saturator {
    type Event = SatEv;
    fn handle(&mut self, ctx: &mut Ctx<SatEv>, ev: SatEv) {
        match ev {
            SatEv::Start => {
                for node in 0..self.bus.num_nodes() as u8 {
                    self.submit(ctx, node);
                }
            }
            SatEv::Can(ev) => {
                let notes = self.bus.handle(&mut MapScheduler::new(ctx, SatEv::Can), ev);
                for note in notes {
                    if let Notification::TxCompleted { node, .. } = note {
                        self.completed += 1;
                        self.submit(ctx, node.0);
                    }
                }
            }
        }
    }
}

impl Kernels {
    /// A runner recording its spans under the probe's parent.
    pub fn new(seed: u64, quick: bool, probe: Probe) -> Self {
        Kernels {
            seed,
            div: if quick { 10 } else { 1 },
            probe,
        }
    }

    /// Time `ops` operations done by `f`, as a span; ns per operation.
    fn time(&self, name: &'static str, ops: u64, f: impl FnOnce()) -> f64 {
        let started = Instant::now();
        self.probe.tracer.span(name, self.probe.parent, |_| f());
        started.elapsed().as_nanos() as f64 / ops as f64
    }

    /// `Engine` schedule + fire with a no-op model, the pending queue
    /// held at `depth` (the workload's observed peak).
    pub fn sim_dispatch_ns(&self, depth: usize) -> f64 {
        let ops = 2_000_000 / self.div;
        let mut rng = Rng::seed_from_u64(self.seed ^ 0xd15);
        // The delay mix of a CAN simulation: within a few frame times.
        let delays = (0..4096)
            .map(|_| Duration::from_ns(1 + rng.gen_range_u64(400_000)))
            .collect();
        let mut engine = Engine::new(Hold { delays, next: 0 });
        for _ in 0..depth.max(1) {
            engine.schedule_after(Duration::from_ns(1 + rng.gen_range_u64(400_000)), ());
        }
        self.time("kernel.sim.dispatch", ops, || {
            for _ in 0..ops {
                black_box(engine.step());
            }
        })
    }

    /// One record into a bounded ring `TraceSink`, four fields.
    pub fn sim_trace_record_ns(&self) -> f64 {
        let ops = 2_000_000 / self.div;
        let sink = TraceSink::enabled_with_capacity(1 << 16);
        let src = sink.intern("kernel");
        self.time("kernel.sim.trace_record", ops, || {
            for i in 0..ops {
                sink.emit_fields(
                    Time::from_ns(i),
                    src,
                    "tx_end",
                    black_box(&[("id", i), ("node", 3), ("dlc", 8), ("bits", 131)]),
                );
            }
        })
    }

    /// `bits::exact_frame_bits` — serialise, CRC-15, stuff, count: what
    /// the bus does once per transmission to learn its length — per
    /// frame, over 8-byte frames (the DLC of every workload's SRT and
    /// HRT frames and of 48 in 49 bulk fragments).
    pub fn can_bits_ns(&self) -> f64 {
        let frames: Vec<Frame> = (0..1024u32)
            .map(|i| {
                let body = inputs::payload(self.seed, Subject(0xb175), i, inputs::RT_PAYLOAD);
                Frame::new(CanId::new(40, 3, 600 + i as u16), &body)
            })
            .collect();
        let ops = 400_000 / self.div;
        self.time("kernel.can.bits", ops, || {
            for i in 0..ops as usize {
                black_box(exact_frame_bits(black_box(&frames[i % frames.len()])));
            }
        })
    }

    /// `CanBus::submit` + `handle` per completed frame on a saturated
    /// `nodes`-node bus under the bare engine.
    pub fn can_bus_frame_ns(&self, nodes: usize) -> f64 {
        let mut bus = CanBus::new(BusConfig::default(), nodes, FaultInjector::none());
        for i in 0..nodes {
            bus.controller_mut(NodeId(i as u8))
                .set_filter_mode(FilterMode::AcceptAll);
        }
        let mut engine = Engine::new(Saturator {
            bus,
            seed: self.seed,
            completed: 0,
        });
        engine.schedule_at(Time::ZERO, SatEv::Start);
        // ≈ 7.4 frames per simulated millisecond at 1 Mbit/s.
        let until = Time::from_ms(20_000 / self.div);
        let started = Instant::now();
        self.probe
            .tracer
            .span("kernel.can.bus_frame", self.probe.parent, |_| {
                engine.run_until(until)
            });
        started.elapsed().as_nanos() as f64 / engine.model.completed.max(1) as f64
    }

    /// `frag::fragment` + `Reassembler::push` of a `len`-byte payload,
    /// per KiB of payload.
    pub fn core_frag_ns_per_kib(&self, len: usize) -> f64 {
        let body = inputs::payload(self.seed, Subject(0xf4a6), 0, len);
        let mut reassembler: Reassembler<u8> = Reassembler::new();
        let ops = 20_000 / self.div;
        let per_transfer = self.time("kernel.core.frag", ops, || {
            for _ in 0..ops {
                let frags = fragment(black_box(&body));
                let mut done = None;
                for f in &frags {
                    done = reassembler.push(7, f).expect("own fragments reassemble");
                }
                reassembler.recycle(black_box(done.expect("transfer completes")));
            }
        });
        per_transfer * 1024.0 / len as f64
    }

    fn srt_event(&self, seq: u32) -> EventMsg {
        EventMsg {
            class: ChannelClass::Srt,
            origin: 1,
            uid: inputs::SRT_BASE,
            seq,
            wire_ns: 1_000_000 + u64::from(seq) * 500_000,
            release_ns: 1_000_000 + u64::from(seq) * 500_000,
            payload: inputs::payload(
                self.seed,
                Subject(inputs::SRT_BASE),
                seq,
                inputs::RT_PAYLOAD,
            ),
        }
    }

    /// `wire::encode_to_client` of an 8-byte SRT `Event`.
    pub fn gateway_encode_ns(&self) -> f64 {
        let msgs: Vec<ToClient> = (0..256)
            .map(|i| ToClient::Event(self.srt_event(i)))
            .collect();
        let ops = 2_000_000 / self.div;
        self.time("kernel.gateway.encode", ops, || {
            for i in 0..ops as usize {
                black_box(wire::encode_to_client(black_box(&msgs[i % msgs.len()])));
            }
        })
    }

    /// `wire::decode_to_client` of the same message.
    pub fn gateway_decode_ns(&self) -> f64 {
        let frames: Vec<Vec<u8>> = (0..256)
            .map(|i| wire::encode_to_client(&ToClient::Event(self.srt_event(i))))
            .collect();
        let ops = 2_000_000 / self.div;
        self.time("kernel.gateway.decode", ops, || {
            for i in 0..ops as usize {
                black_box(wire::decode_to_client(black_box(&frames[i % frames.len()])).is_ok());
            }
        })
    }

    /// `EgressQueue::push` + `flush` per entry on one lane of `cap`
    /// entries under shed-NRT-first, the sink closure accepting
    /// `accept_permille` ‰ of offers (1000: the fast-client path; 250:
    /// the slow-client path, where the queue fills and sheds).
    pub fn gateway_lane_ns(&self, cap: usize, accept_permille: u16) -> f64 {
        let entries: Vec<EgressEntry> = (0..256u32)
            .map(|i| {
                let ev = self.srt_event(i);
                // Every 8th entry is NRT, so shedding has its first
                // victim class to hand, as on the gateway workloads.
                let class = if i % 8 == 7 {
                    ChannelClass::Nrt
                } else {
                    ChannelClass::Srt
                };
                EgressEntry {
                    class,
                    uid: ev.uid,
                    origin: ev.origin,
                    seq: ev.seq,
                    wire_ns: ev.wire_ns,
                    release_ns: ev.release_ns,
                    expiry_ns: None,
                    ingress_wall_ns: 0,
                    payload: Arc::new(ev.payload.clone()),
                    encoded: Arc::new(wire::encode_to_client(&ToClient::Event(ev))),
                    frag: false,
                }
            })
            .collect();
        let mut queue = EgressQueue::new(cap);
        let mut rng = Rng::seed_from_u64(self.seed ^ 0x1a9e);
        let ops = 2_000_000 / self.div;
        let name = if accept_permille >= 1000 {
            "kernel.gateway.lane"
        } else {
            "kernel.gateway.lane_shed"
        };
        self.time(name, ops, || {
            for i in 0..ops as usize {
                let entry = entries[i % entries.len()].clone();
                black_box(queue.push(entry, SlowConsumerPolicy::ShedNrtFirst, 0));
                queue.flush(0, 8, |item| {
                    black_box(&item);
                    if accept_permille >= 1000 || rng.gen_bool(f64::from(accept_permille) / 1000.0)
                    {
                        FlushVerdict::Taken
                    } else {
                        FlushVerdict::Blocked
                    }
                });
            }
        })
    }
}

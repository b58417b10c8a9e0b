//! Master-based clock synchronization over the simulated CAN bus.
//!
//! Follows the scheme of Gergeleit & Streich ("Implementing a
//! distributed high-resolution real-time clock using the CAN-bus",
//! iCC 1994), which the paper cites as its time base [9]:
//!
//! 1. The master broadcasts a **SYNC** frame. Because CAN is a
//!    broadcast medium with bit-synchronous delivery, *all* nodes
//!    observe the completion of this frame at (physically) the same
//!    instant — each latches its own local clock at that event.
//! 2. The master then broadcasts a **FOLLOW-UP** frame carrying its own
//!    latched timestamp of the SYNC completion (it cannot know this
//!    before transmitting the SYNC — queueing and arbitration delays are
//!    unpredictable).
//! 3. Each slave corrects its clock by the difference between the
//!    master timestamp and its own latch.
//!
//! Between synchronizations the clocks diverge again at their relative
//! drift rates, so the achieved precision is `Π ≈ 2·ρ·P + ε` for drift
//! bound ρ and resync period P. The experiment E9 measures Π for swept
//! (ρ, P) and [`required_gap`] turns it into the slot gap `ΔG_min` the
//! calendar must leave between HRT slots — the paper conservatively
//! assumes 40 µs (§3.2).

use crate::local::{ClockParams, LocalClock};
use rtec_can::{
    BusConfig, CanBus, CanEvent, CanId, FaultInjector, FilterMode, Frame, MapScheduler, NodeId,
    Notification, TxRequest,
};
use rtec_sim::{Ctx, Duration, Engine, Extrema, Model, Time};
use serde::{Deserialize, Serialize};

/// Reserved etag for SYNC frames.
pub const ETAG_SYNC: u16 = 0;
/// Reserved etag for FOLLOW-UP frames.
pub const ETAG_FOLLOW_UP: u16 = 1;

/// Configuration of a synchronization experiment.
#[derive(Clone, Debug)]
pub struct SyncConfig {
    /// Per-node oscillator parameters; index 0 is the master whose clock
    /// *defines* global time.
    pub clocks: Vec<ClockParams>,
    /// Resynchronization period (master clock time).
    pub sync_period: Duration,
    /// CAN priority of sync traffic (the paper reserves high SRT
    /// priorities for infrastructure traffic).
    pub priority: u8,
    /// How often the harness samples inter-node clock spread.
    pub sample_period: Duration,
    /// Bus configuration.
    pub bus: BusConfig,
}

impl SyncConfig {
    /// A typical setup: `n` nodes with drifts spread over ±`drift_ppm`,
    /// 50 ms resync, 1 Mbit/s.
    pub fn typical(n: usize, drift_ppm: f64, sync_period: Duration) -> Self {
        assert!(
            n >= 2,
            "synchronization needs a master and at least one slave"
        );
        let clocks = (0..n)
            .map(|i| {
                if i == 0 {
                    ClockParams::PERFECT // master defines global time
                } else {
                    // Deterministic spread of drifts across ±drift_ppm.
                    let frac = i as f64 / (n - 1).max(1) as f64;
                    ClockParams {
                        drift_ppm: drift_ppm * (2.0 * frac - 1.0),
                        initial_offset_ns: (i as f64) * 1_000.0,
                    }
                }
            })
            .collect();
        SyncConfig {
            clocks,
            sync_period,
            priority: 1,
            sample_period: Duration::from_ms(1),
            bus: BusConfig::default(),
        }
    }
}

/// Measured synchronization quality.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct SyncStats {
    /// Extremes of the instantaneous inter-node spread
    /// `max_i read_i − min_i read_i` (ns), sampled every
    /// `sample_period` after the first completed synchronization round.
    pub spread_ns: Extrema,
    /// Number of completed synchronization rounds.
    pub rounds: u64,
}

impl SyncStats {
    /// The achieved precision Π: the worst observed spread.
    pub fn precision(&self) -> Duration {
        Duration::from_ns(self.spread_ns.max().unwrap_or(0))
    }
}

/// The minimal inter-slot gap `ΔG_min` for a measured precision Π:
/// the gap must absorb one node acting early by Π/2 and its successor
/// acting late by Π/2, plus one bit time of latch granularity.
pub fn required_gap(precision: Duration, bit_time: Duration) -> Duration {
    precision + bit_time
}

/// Events of the synchronization world.
#[derive(Clone, Copy, Debug)]
pub enum SyncEvent {
    /// Bus activity.
    Can(CanEvent),
    /// Master emits the next SYNC frame.
    MasterTick,
    /// Harness samples clock spread.
    Sample,
}

/// Simulation world: a bus whose nodes run the sync protocol.
pub struct SyncWorld {
    bus: CanBus,
    clocks: Vec<LocalClock>,
    config: SyncConfig,
    /// Master's latched global timestamp of the last SYNC completion.
    master_latch: Option<Time>,
    /// Each slave's local latch of the last SYNC completion.
    slave_latch: Vec<Option<Time>>,
    /// Next global instant for a master tick.
    next_tick_global: Time,
    synced_once: bool,
    /// Measured quality.
    pub stats: SyncStats,
}

impl SyncWorld {
    /// Build an engine running the synchronization world.
    pub fn engine(config: SyncConfig) -> Engine<SyncWorld> {
        let n = config.clocks.len();
        let mut bus = CanBus::new(config.bus, n, FaultInjector::none());
        for i in 0..n {
            bus.controller_mut(NodeId(i as u8))
                .set_filter_mode(FilterMode::AcceptAll);
        }
        let clocks: Vec<LocalClock> = config.clocks.iter().map(|p| LocalClock::new(*p)).collect();
        let world = SyncWorld {
            bus,
            clocks,
            slave_latch: vec![None; n],
            master_latch: None,
            next_tick_global: Time::ZERO,
            synced_once: false,
            stats: SyncStats::default(),
            config,
        };
        let mut engine = Engine::new(world);
        engine.schedule_at(Time::ZERO, SyncEvent::MasterTick);
        engine.schedule_at(Time::ZERO, SyncEvent::Sample);
        engine
    }

    /// Immutable view of a node's clock.
    pub fn clock(&self, node: NodeId) -> &LocalClock {
        &self.clocks[node.index()]
    }

    /// Current spread between the fastest and slowest node clock at
    /// true instant `true_now` (ns).
    pub fn spread_at(&self, true_now: Time) -> u64 {
        let readings: Vec<u64> = self
            .clocks
            .iter()
            .map(|c| c.read(true_now).as_ns())
            .collect();
        let min = *readings.iter().min().expect("at least one clock");
        let max = *readings.iter().max().expect("at least one clock");
        max - min
    }

    fn on_notification(&mut self, note: Notification, now: Time) {
        match note {
            Notification::TxCompleted { node, frame, .. }
                if node == NodeId(0) && frame.id.etag() == ETAG_SYNC =>
            {
                // Master latches its own (reference) clock at the
                // completion instant.
                self.master_latch = Some(self.clocks[0].read(now));
            }
            Notification::Rx {
                node,
                frame,
                completed_at,
            } => {
                match frame.id.etag() {
                    ETAG_SYNC => {
                        self.slave_latch[node.index()] =
                            Some(self.clocks[node.index()].read(completed_at));
                    }
                    ETAG_FOLLOW_UP => {
                        let mut bytes = [0u8; 8];
                        bytes.copy_from_slice(frame.payload());
                        let master_time = Time::from_ns(u64::from_le_bytes(bytes));
                        if let Some(latch) = self.slave_latch[node.index()].take() {
                            // Correct by the latched difference.
                            let delta = master_time.as_ns() as f64 - latch.as_ns() as f64;
                            self.clocks[node.index()].slew(delta);
                        }
                    }
                    _ => {}
                }
            }
            _ => {}
        }
    }
}

impl Model for SyncWorld {
    type Event = SyncEvent;

    fn handle(&mut self, ctx: &mut Ctx<SyncEvent>, ev: SyncEvent) {
        let now = ctx.now();
        match ev {
            SyncEvent::Can(can_ev) => {
                let notes = {
                    let mut sched = MapScheduler::new(ctx, SyncEvent::Can);
                    self.bus.handle(&mut sched, can_ev)
                };
                let mut follow_up = None;
                for note in notes {
                    // A completed SYNC triggers the FOLLOW-UP carrying
                    // the just-latched master timestamp.
                    if let Notification::TxCompleted { node, frame, .. } = &note {
                        if *node == NodeId(0) && frame.id.etag() == ETAG_SYNC {
                            self.on_notification(note.clone(), now);
                            let stamp = self.master_latch.expect("latched above");
                            follow_up = Some(stamp);
                            continue;
                        }
                    }
                    if let Notification::TxCompleted { node, frame, .. } = &note {
                        if *node == NodeId(0) && frame.id.etag() == ETAG_FOLLOW_UP {
                            self.stats.rounds += 1;
                            self.synced_once = true;
                        }
                    }
                    self.on_notification(note, now);
                }
                if let Some(stamp) = follow_up {
                    let frame = Frame::new(
                        CanId::new(self.config.priority, 0, ETAG_FOLLOW_UP),
                        &stamp.as_ns().to_le_bytes(),
                    );
                    let mut sched = MapScheduler::new(ctx, SyncEvent::Can);
                    self.bus.submit(
                        &mut sched,
                        NodeId(0),
                        TxRequest {
                            frame,
                            single_shot: false,
                            tag: 0,
                        },
                    );
                }
            }
            SyncEvent::MasterTick => {
                let frame = Frame::new(CanId::new(self.config.priority, 0, ETAG_SYNC), &[0u8; 8]);
                {
                    let mut sched = MapScheduler::new(ctx, SyncEvent::Can);
                    self.bus.submit(
                        &mut sched,
                        NodeId(0),
                        TxRequest {
                            frame,
                            single_shot: false,
                            tag: 0,
                        },
                    );
                }
                // Schedule the next tick by the master's clock.
                self.next_tick_global += self.config.sync_period;
                let true_next = self.clocks[0].true_time_when_reads(self.next_tick_global);
                let true_next = true_next.max(now + Duration::from_ns(1));
                ctx.at(true_next, SyncEvent::MasterTick);
            }
            SyncEvent::Sample => {
                if self.synced_once {
                    let spread = self.spread_at(now);
                    self.stats.spread_ns.record(spread);
                }
                ctx.after(self.config.sample_period, SyncEvent::Sample);
            }
        }
    }
}

/// Run a synchronization world for `horizon` and return the measured
/// statistics.
pub fn measure(config: SyncConfig, horizon: Duration) -> SyncStats {
    let mut engine = SyncWorld::engine(config);
    engine.run_until(Time::ZERO + horizon);
    engine.model.stats.clone()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slaves_converge_to_master() {
        let config = SyncConfig::typical(4, 100.0, Duration::from_ms(50));
        let mut engine = SyncWorld::engine(config);
        engine.run_until(Time::from_ms(500));
        let now = engine.now();
        let world = &engine.model;
        assert!(world.stats.rounds >= 9, "rounds {}", world.stats.rounds);
        // After many rounds every slave tracks the master within the
        // drift accumulated over one period (100 ppm * 50 ms = 5 µs)
        // plus protocol granularity.
        for i in 1..4 {
            let err = (world.clocks[i].read(now).as_ns() as i64
                - world.clocks[0].read(now).as_ns() as i64)
                .unsigned_abs();
            assert!(err < 12_000, "node {i} error {err}ns");
        }
    }

    #[test]
    fn unsynced_clocks_diverge() {
        // Sanity check of the experiment itself: with a very long sync
        // period the spread grows with drift.
        let config = SyncConfig::typical(3, 100.0, Duration::from_secs(10));
        let mut engine = SyncWorld::engine(config);
        engine.run_until(Time::from_secs(1));
        let spread = engine.model.spread_at(engine.now());
        // The fastest clock (+100 ppm) gains ~100 µs over the master in
        // the 1 s since the single initial synchronization.
        assert!(spread > 80_000, "spread {spread}ns");
    }

    #[test]
    fn precision_improves_with_faster_resync() {
        let slow = measure(
            SyncConfig::typical(4, 100.0, Duration::from_ms(200)),
            Duration::from_secs(2),
        );
        let fast = measure(
            SyncConfig::typical(4, 100.0, Duration::from_ms(10)),
            Duration::from_secs(2),
        );
        assert!(
            fast.precision() < slow.precision(),
            "fast {} !< slow {}",
            fast.precision(),
            slow.precision()
        );
    }

    #[test]
    fn paper_gap_assumption_is_reachable() {
        // With 100 ppm drifts and a 50 ms resync period the measured
        // precision must stay under the paper's 40 µs gap assumption.
        let stats = measure(
            SyncConfig::typical(8, 100.0, Duration::from_ms(50)),
            Duration::from_secs(2),
        );
        let gap = required_gap(stats.precision(), Duration::from_us(1));
        assert!(
            gap <= Duration::from_us(40),
            "required gap {gap} exceeds the paper's 40 µs assumption"
        );
    }

    #[test]
    fn rounds_counted() {
        let stats = measure(
            SyncConfig::typical(2, 50.0, Duration::from_ms(20)),
            Duration::from_ms(205),
        );
        assert!(stats.rounds >= 10, "rounds {}", stats.rounds);
        assert!(!stats.spread_ns.is_empty());
    }

    #[test]
    #[should_panic(expected = "master and at least one slave")]
    fn typical_requires_two_nodes() {
        let _ = SyncConfig::typical(1, 10.0, Duration::from_ms(10));
    }
}

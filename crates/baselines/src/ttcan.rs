//! A TTCAN-style time-triggered baseline (§4).
//!
//! Time-triggered CAN organizes the bus into a *system matrix* of
//! windows: **exclusive** windows owned by one message (transmitted
//! with automatic retransmission disabled) and **arbitrating** windows
//! where event-driven traffic contends normally. Two properties of this
//! design are what the paper's scheme improves on:
//!
//! * an exclusive window that its owner does not use is **wasted** —
//!   no other traffic may claim it;
//! * redundancy is **pre-planned**: a message with omission tolerance
//!   `k` owns `k + 1` transmissions that are always performed, filling
//!   their reserved time whether or not faults occur.
//!
//! The model enforces the matrix by gating background submissions: a
//! background frame is only handed to the controller when the current
//! arbitrating window has room for its full transmission (this is the
//! role of TTCAN's reference-message-aligned gap).

use rtec_can::bits::exact_frame_bits;
use rtec_can::{
    BusConfig, CanBus, CanEvent, CanId, FaultInjector, FaultModel, Frame, MapScheduler, NodeId,
    Notification, TxRequest, PRIO_HRT,
};
use rtec_sim::{Ctx, Duration, Engine, Model, Rng, RngStreams, Time};
use serde::{Deserialize, Serialize};

/// Kind of a system-matrix window.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum WindowKind {
    /// Owned by one periodic message.
    Exclusive {
        /// The owning node.
        owner: NodeId,
        /// Etag of the owned message.
        etag: u16,
    },
    /// Open to event-driven traffic.
    Arbitrating,
}

/// One window of the basic cycle.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct Window {
    /// Window kind.
    pub kind: WindowKind,
    /// Window length.
    pub len: Duration,
}

/// Configuration of a TTCAN run.
#[derive(Clone, Debug)]
pub struct TtcanConfig {
    /// Bus parameters.
    pub bus: BusConfig,
    /// The basic cycle (repeats indefinitely).
    pub cycle: Vec<Window>,
    /// Extra pre-planned copies per exclusive message (always sent —
    /// no early stop).
    pub redundancy_k: u32,
    /// Probability that the owner actually has data for an exclusive
    /// window (sweeping this measures the wasted-reservation effect).
    pub exclusive_use_prob: f64,
    /// Poisson background offered to arbitrating windows (mean gap), or
    /// `None` for no background.
    pub background_mean_gap: Option<Duration>,
    /// Payload size of background frames.
    pub background_dlc: u8,
    /// Node that generates background traffic.
    pub background_node: NodeId,
    /// Run seed.
    pub seed: u64,
    /// Fault model on the bus.
    pub fault_model: FaultModel,
}

impl TtcanConfig {
    /// Total length of the basic cycle.
    pub fn cycle_len(&self) -> Duration {
        self.cycle
            .iter()
            .map(|w| w.len)
            .fold(Duration::ZERO, |a, b| a + b)
    }
}

/// Measured outcome of a TTCAN run.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct TtcanStats {
    /// Completed basic cycles.
    pub cycles: u64,
    /// Exclusive-window transmissions performed (including pre-planned
    /// redundant copies).
    pub exclusive_tx: u64,
    /// Exclusive windows that went unused (reserved time wasted).
    pub exclusive_unused: u64,
    /// Wall-clock reserved time wasted by unused exclusive windows.
    pub wasted_exclusive: Duration,
    /// Background messages released.
    pub background_released: u64,
    /// Background messages completed.
    pub background_completed: u64,
}

/// TTCAN world events.
#[derive(Clone, Copy, Debug)]
pub enum TtEvent {
    /// Bus activity.
    Can(CanEvent),
    /// A window of the current cycle begins.
    WindowStart(usize),
    /// A new basic cycle begins.
    CycleStart,
    /// Background message release.
    BgRelease,
}

/// Priority used for background frames (arbitrating windows).
const BG_PRIO: u8 = 200;
/// Etag used for background frames.
const BG_ETAG: u16 = 99;

/// The TTCAN baseline world.
pub struct TtcanWorld {
    bus: CanBus,
    config: TtcanConfig,
    rng: Rng,
    bg_gen_rng: Rng,
    bg_inflight: bool,
    bg_frame_time: Duration,
    /// End of the current arbitrating window (background gate).
    arb_until: Option<Time>,
    /// Measured outcome.
    pub stats: TtcanStats,
}

fn wrap(ev: CanEvent) -> TtEvent {
    TtEvent::Can(ev)
}

impl TtcanWorld {
    /// Build the engine with the first cycle and background release
    /// scheduled.
    pub fn engine(config: TtcanConfig) -> Engine<TtcanWorld> {
        let num_nodes = config
            .cycle
            .iter()
            .filter_map(|w| match w.kind {
                WindowKind::Exclusive { owner, .. } => Some(owner.index() + 1),
                WindowKind::Arbitrating => None,
            })
            .chain([config.background_node.index() + 1])
            .max()
            .unwrap_or(1);
        let streams = RngStreams::new(config.seed);
        let injector = FaultInjector::new(config.fault_model.clone(), streams.stream("faults"));
        let bus = CanBus::new(config.bus, num_nodes, injector);
        let bg_frame = Frame::new(
            CanId::new(BG_PRIO, config.background_node.0, BG_ETAG),
            &vec![0u8; usize::from(config.background_dlc)],
        );
        let bg_frame_time = config.bus.timing.duration_of(exact_frame_bits(&bg_frame));
        let has_bg = config.background_mean_gap.is_some();
        let world = TtcanWorld {
            bus,
            rng: streams.stream("exclusive-use"),
            bg_gen_rng: streams.stream("background"),
            config,
            bg_inflight: false,
            bg_frame_time,
            arb_until: None,
            stats: TtcanStats::default(),
        };
        let mut engine = Engine::new(world);
        engine.schedule_at(Time::ZERO, TtEvent::CycleStart);
        if has_bg {
            engine.schedule_at(Time::ZERO, TtEvent::BgRelease);
        }
        engine
    }

    fn on_cycle_start(&mut self, ctx: &mut Ctx<TtEvent>) {
        let now = ctx.now();
        let mut offset = Duration::ZERO;
        for (idx, w) in self.config.cycle.iter().enumerate() {
            ctx.at(now + offset, TtEvent::WindowStart(idx));
            offset += w.len;
        }
        ctx.at(now + offset, TtEvent::CycleStart);
        self.stats.cycles += 1;
    }

    fn on_window_start(&mut self, ctx: &mut Ctx<TtEvent>, idx: usize) {
        let now = ctx.now();
        let w = self.config.cycle[idx];
        match w.kind {
            WindowKind::Exclusive { owner, etag } => {
                self.arb_until = None;
                if self.rng.gen_bool(self.config.exclusive_use_prob) {
                    // Pre-planned redundancy: all k+1 copies are always
                    // transmitted, no early stop.
                    let copies = self.config.redundancy_k + 1;
                    for c in 0..copies {
                        let frame = Frame::new(CanId::new(PRIO_HRT, owner.0, etag), &[c as u8; 8]);
                        let mut sched = MapScheduler::new(ctx, wrap);
                        self.bus.submit(
                            &mut sched,
                            owner,
                            TxRequest {
                                frame,
                                single_shot: true, // TTCAN: no automatic retransmission
                                tag: u64::from(etag),
                            },
                        );
                    }
                } else {
                    // Window wasted: nobody may use the reserved time.
                    self.stats.exclusive_unused += 1;
                    self.stats.wasted_exclusive += w.len;
                }
            }
            WindowKind::Arbitrating => {
                self.arb_until = Some(now + w.len);
                self.pump_background(ctx);
            }
        }
    }

    /// Submit the next background frame if the arbitrating window can
    /// still hold a complete transmission.
    fn pump_background(&mut self, ctx: &mut Ctx<TtEvent>) {
        let queued = self.stats.background_released - self.stats.background_completed;
        if self.bg_inflight || queued == 0 {
            return;
        }
        let now = ctx.now();
        let Some(until) = self.arb_until else { return };
        if now + self.bg_frame_time > until {
            return; // would overrun into the next exclusive window
        }
        let frame = Frame::new(
            CanId::new(BG_PRIO, self.config.background_node.0, BG_ETAG),
            &vec![0u8; usize::from(self.config.background_dlc)],
        );
        let mut sched = MapScheduler::new(ctx, wrap);
        self.bus.submit(
            &mut sched,
            self.config.background_node,
            TxRequest {
                frame,
                single_shot: false,
                tag: u64::from(BG_ETAG),
            },
        );
        self.bg_inflight = true;
    }

    fn on_bg_release(&mut self, ctx: &mut Ctx<TtEvent>) {
        let Some(mean) = self.config.background_mean_gap else {
            return;
        };
        let now = ctx.now();
        self.stats.background_released += 1;
        let gap = Duration::from_ns(self.bg_gen_rng.gen_exp(mean.as_ns() as f64).max(1.0) as u64);
        ctx.at(now + gap, TtEvent::BgRelease);
        self.pump_background(ctx);
    }

    fn on_note(&mut self, ctx: &mut Ctx<TtEvent>, note: Notification) {
        match note {
            Notification::TxCompleted { tag, .. } => {
                if tag == u64::from(BG_ETAG) {
                    self.bg_inflight = false;
                    self.stats.background_completed += 1;
                    self.pump_background(ctx);
                } else {
                    self.stats.exclusive_tx += 1;
                }
            }
            Notification::TxFailed { tag, .. } => {
                // Single-shot exclusive copy destroyed by a fault: TTCAN
                // does not retry; the pre-planned redundancy is the only
                // protection.
                let _ = tag;
            }
            _ => {}
        }
    }

    /// Bus statistics (wire utilization etc.).
    pub fn bus_stats(&self) -> &rtec_can::BusStats {
        &self.bus.stats
    }
}

impl Model for TtcanWorld {
    type Event = TtEvent;

    fn handle(&mut self, ctx: &mut Ctx<TtEvent>, ev: TtEvent) {
        match ev {
            TtEvent::Can(can_ev) => {
                let notes = {
                    let mut sched = MapScheduler::new(ctx, wrap);
                    self.bus.handle(&mut sched, can_ev)
                };
                for note in notes {
                    self.on_note(ctx, note);
                }
            }
            TtEvent::CycleStart => self.on_cycle_start(ctx),
            TtEvent::WindowStart(idx) => self.on_window_start(ctx, idx),
            TtEvent::BgRelease => self.on_bg_release(ctx),
        }
    }
}

/// Run a TTCAN configuration for `horizon`, returning the measured
/// statistics and the bus-level counters.
pub fn run_ttcan(config: TtcanConfig, horizon: Duration) -> (TtcanStats, rtec_can::BusStats) {
    let mut engine = TtcanWorld::engine(config);
    engine.run_until(Time::ZERO + horizon);
    (engine.model.stats.clone(), *engine.model.bus_stats())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exclusive(owner: u8, etag: u16, len_us: u64) -> Window {
        Window {
            kind: WindowKind::Exclusive {
                owner: NodeId(owner),
                etag,
            },
            len: Duration::from_us(len_us),
        }
    }

    fn arbitrating(len_us: u64) -> Window {
        Window {
            kind: WindowKind::Arbitrating,
            len: Duration::from_us(len_us),
        }
    }

    fn base_config() -> TtcanConfig {
        TtcanConfig {
            bus: BusConfig::default(),
            // 1 ms cycle: two exclusive windows sized for k=1 (2 copies
            // of a 160 µs frame) and one arbitrating window.
            cycle: vec![
                exclusive(0, 10, 340),
                exclusive(1, 11, 340),
                arbitrating(320),
            ],
            redundancy_k: 1,
            exclusive_use_prob: 1.0,
            background_mean_gap: None,
            background_dlc: 8,
            background_node: NodeId(2),
            seed: 3,
            fault_model: FaultModel::None,
        }
    }

    #[test]
    fn exclusive_windows_always_send_all_copies() {
        let (stats, bus) = run_ttcan(base_config(), Duration::from_ms(100));
        // 100 cycles × 2 windows × 2 copies.
        assert!(stats.cycles >= 100);
        assert!(
            stats.exclusive_tx >= 100 * 2 * 2,
            "pre-planned redundancy always transmits, got {}",
            stats.exclusive_tx
        );
        assert_eq!(stats.exclusive_unused, 0);
        assert_eq!(bus.frames_corrupted, 0);
    }

    #[test]
    fn unused_exclusive_windows_waste_reserved_time() {
        let mut cfg = base_config();
        cfg.exclusive_use_prob = 0.0;
        cfg.background_mean_gap = Some(Duration::from_us(200));
        let (stats, bus) = run_ttcan(cfg, Duration::from_ms(100));
        assert_eq!(stats.exclusive_tx, 0);
        assert!(stats.exclusive_unused >= 200);
        assert!(stats.wasted_exclusive >= Duration::from_ms(60));
        // Background only ran inside arbitrating windows: utilization is
        // capped well below the offered load.
        let util = bus.utilization(Duration::from_ms(100));
        assert!(
            util < 0.35,
            "background confined to arbitrating windows: {util}"
        );
        assert!(stats.background_completed > 0);
        assert!(
            stats.background_completed < stats.background_released,
            "offered load exceeds the arbitrating capacity"
        );
    }

    #[test]
    fn background_never_overruns_into_exclusive_windows() {
        // With background queued at all times, every exclusive window
        // must still start with an idle bus: exclusive frames are never
        // blocked (their completion count matches full redundancy).
        let mut cfg = base_config();
        cfg.background_mean_gap = Some(Duration::from_us(100)); // heavy
        let (stats, _) = run_ttcan(cfg, Duration::from_ms(50));
        assert!(
            stats.exclusive_tx >= 50 * 2 * 2 - 4,
            "{}",
            stats.exclusive_tx
        );
    }

    #[test]
    fn corruption_in_single_shot_mode_loses_copies() {
        let mut cfg = base_config();
        cfg.fault_model = FaultModel::Iid {
            corruption_p: 0.3,
            omission_p: 0.0,
            omission_scope: rtec_can::OmissionScope::AllReceivers,
        };
        let (stats, bus) = run_ttcan(cfg, Duration::from_ms(100));
        assert!(bus.frames_corrupted > 0);
        // Lost copies are NOT retransmitted (single-shot).
        assert!(
            stats.exclusive_tx < 100 * 2 * 2,
            "corrupted copies are simply lost: {}",
            stats.exclusive_tx
        );
    }

    #[test]
    fn cycle_length_accessor() {
        assert_eq!(base_config().cycle_len(), Duration::from_ms(1));
    }
}

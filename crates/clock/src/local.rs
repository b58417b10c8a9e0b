//! A node's local oscillator: constant drift plus an adjustable offset.
//!
//! The simulation engine runs on *true* time. A node never sees true
//! time — it sees its local clock, which advances at `1 + ρ` the true
//! rate (ρ = drift in parts per million, positive = fast) from some
//! offset. Clock synchronization periodically rewrites the offset so the
//! local reading tracks the master's global time.
//!
//! The two directions a node needs:
//!
//! * [`LocalClock::read`] — "what time do I think it is?" (true → local
//!   estimate of global time), used to timestamp observations.
//! * [`LocalClock::true_time_when_reads`] — "when will my clock show
//!   `g`?" (global target → true instant), used to schedule slot starts:
//!   a node with a fast clock acts *early* in true time, which is
//!   exactly the error the `ΔG_min` gap must absorb.

use rtec_sim::Time;
use serde::{Deserialize, Serialize};

/// Static oscillator parameters.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct ClockParams {
    /// Drift in parts per million; positive clocks run fast. Typical
    /// crystal oscillators: ±50..±100 ppm.
    pub drift_ppm: f64,
    /// Offset of the local clock at true time zero, in nanoseconds
    /// (models power-up phase differences).
    pub initial_offset_ns: f64,
}

impl ClockParams {
    /// A perfect clock (no drift, no offset).
    pub const PERFECT: ClockParams = ClockParams {
        drift_ppm: 0.0,
        initial_offset_ns: 0.0,
    };
}

/// A drifting, adjustable local clock.
#[derive(Clone, Copy, Debug)]
pub struct LocalClock {
    /// Fractional rate error: local advances at `(1 + rate)` per true ns.
    rate: f64,
    /// Current offset in nanoseconds: `local = true·(1+rate) + offset`.
    offset_ns: f64,
    /// Number of offset adjustments applied (observability).
    adjustments: u64,
}

impl LocalClock {
    /// Build a clock from its parameters.
    pub fn new(params: ClockParams) -> Self {
        LocalClock {
            rate: params.drift_ppm * 1e-6,
            offset_ns: params.initial_offset_ns,
            adjustments: 0,
        }
    }

    /// A perfect clock that always reads true time.
    pub fn perfect() -> Self {
        LocalClock::new(ClockParams::PERFECT)
    }

    /// The clock's drift in ppm.
    pub fn drift_ppm(&self) -> f64 {
        self.rate * 1e6
    }

    /// Number of synchronization adjustments applied so far.
    pub fn adjustments(&self) -> u64 {
        self.adjustments
    }

    /// Local reading at true instant `true_now` (the node's estimate of
    /// global time). Readings are clamped at zero — a local clock never
    /// reads negative.
    pub fn read(&self, true_now: Time) -> Time {
        if self.is_exact(true_now) {
            return true_now;
        }
        let local = true_now.as_ns() as f64 * (1.0 + self.rate) + self.offset_ns;
        Time::from_ns(local.max(0.0).round() as u64)
    }

    /// Whether both directions map `t` to itself without the float
    /// arithmetic: no drift, no offset, and `t` below 2^53 ns (104 days),
    /// where an `f64` holds every nanosecond exactly — so the shortcut
    /// returns what the arithmetic would.
    #[inline]
    fn is_exact(&self, t: Time) -> bool {
        self.rate == 0.0 && self.offset_ns == 0.0 && t.as_ns() < 1 << f64::MANTISSA_DIGITS
    }

    /// Signed error of this clock against true/global time at `true_now`
    /// in nanoseconds (positive = clock is ahead).
    pub fn error_ns(&self, true_now: Time) -> f64 {
        true_now.as_ns() as f64 * self.rate + self.offset_ns
    }

    /// Adjust the offset so that `read(true_now) == global`. This is the
    /// primitive the sync protocol uses (rate is not disciplined — the
    /// residual drift between syncs is what bounds precision).
    pub fn set(&mut self, true_now: Time, global: Time) {
        self.offset_ns = global.as_ns() as f64 - true_now.as_ns() as f64 * (1.0 + self.rate);
        self.adjustments += 1;
    }

    /// Slew the clock by a signed amount of nanoseconds (gentler
    /// correction used when the error is small).
    pub fn slew(&mut self, delta_ns: f64) {
        self.offset_ns += delta_ns;
        self.adjustments += 1;
    }

    /// The true instant at which this clock will read the global target
    /// `g`. Returns [`Time::ZERO`] if that instant is already past at
    /// true time zero (callers guard against scheduling in the past).
    pub fn true_time_when_reads(&self, g: Time) -> Time {
        if self.is_exact(g) {
            return g;
        }
        let t = (g.as_ns() as f64 - self.offset_ns) / (1.0 + self.rate);
        Time::from_ns(t.max(0.0).round() as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtec_sim::Duration;

    #[test]
    fn perfect_clock_reads_true_time() {
        let c = LocalClock::perfect();
        for t in [0u64, 1_000, 1_000_000_000, (1 << 53) - 1, 1 << 53] {
            assert_eq!(c.read(Time::from_ns(t)), Time::from_ns(t));
            assert_eq!(c.true_time_when_reads(Time::from_ns(t)), Time::from_ns(t));
        }
        assert_eq!(c.error_ns(Time::from_secs(100)), 0.0);
    }

    #[test]
    fn fast_clock_runs_ahead() {
        let c = LocalClock::new(ClockParams {
            drift_ppm: 100.0,
            initial_offset_ns: 0.0,
        });
        // After 1 s true time, a +100 ppm clock is 100 µs ahead.
        let reading = c.read(Time::from_secs(1));
        assert_eq!(reading, Time::from_ns(1_000_000_000 + 100_000));
        assert!((c.error_ns(Time::from_secs(1)) - 100_000.0).abs() < 1.0);
    }

    #[test]
    fn slow_clock_lags() {
        let c = LocalClock::new(ClockParams {
            drift_ppm: -50.0,
            initial_offset_ns: 0.0,
        });
        let reading = c.read(Time::from_secs(2));
        assert_eq!(reading, Time::from_ns(2_000_000_000 - 100_000));
    }

    #[test]
    fn initial_offset_applies() {
        let c = LocalClock::new(ClockParams {
            drift_ppm: 0.0,
            initial_offset_ns: 5_000.0,
        });
        assert_eq!(c.read(Time::ZERO), Time::from_ns(5_000));
    }

    #[test]
    fn negative_reading_clamps_to_zero() {
        let c = LocalClock::new(ClockParams {
            drift_ppm: 0.0,
            initial_offset_ns: -10_000.0,
        });
        assert_eq!(c.read(Time::ZERO), Time::ZERO);
        assert_eq!(c.read(Time::from_ns(4_000)), Time::ZERO);
        assert_eq!(c.read(Time::from_ns(12_000)), Time::from_ns(2_000));
    }

    #[test]
    fn set_aligns_reading() {
        let mut c = LocalClock::new(ClockParams {
            drift_ppm: 80.0,
            initial_offset_ns: 123_456.0,
        });
        let now = Time::from_ms(500);
        c.set(now, Time::from_ms(600));
        assert_eq!(c.read(now), Time::from_ms(600));
        assert_eq!(c.adjustments(), 1);
        // Drift resumes after the adjustment.
        let later = now + Duration::from_secs(1);
        let err = c.read(later).as_ns() as f64
            - (Time::from_ms(600) + Duration::from_secs(1)).as_ns() as f64;
        assert!((err - 80_000.0).abs() < 1.0, "err {err}");
    }

    #[test]
    fn slew_moves_reading() {
        let mut c = LocalClock::perfect();
        c.slew(250.0);
        assert_eq!(c.read(Time::from_us(1)), Time::from_ns(1_250));
        c.slew(-250.0);
        assert_eq!(c.read(Time::from_us(1)), Time::from_us(1));
    }

    #[test]
    fn true_time_when_reads_inverts_read() {
        let mut c = LocalClock::new(ClockParams {
            drift_ppm: -75.0,
            initial_offset_ns: 9_999.0,
        });
        c.set(Time::from_ms(10), Time::from_ms(11));
        for g_ms in [12u64, 100, 5_000] {
            let g = Time::from_ms(g_ms);
            let t = c.true_time_when_reads(g);
            let roundtrip = c.read(t);
            let err = roundtrip.as_ns() as i64 - g.as_ns() as i64;
            assert!(err.abs() <= 1, "g={g} roundtrip err {err}ns");
        }
    }

    #[test]
    fn fast_clock_schedules_early_in_true_time() {
        // The property ΔG_min must absorb: a fast node fires its slot
        // early by its accumulated error.
        let c = LocalClock::new(ClockParams {
            drift_ppm: 100.0,
            initial_offset_ns: 0.0,
        });
        let g = Time::from_secs(1);
        let t = c.true_time_when_reads(g);
        assert!(t < g, "fast clock acts early");
        let early_by = g.saturating_since(t);
        // ≈ 100 µs early after 1 s of drift.
        assert!(
            (early_by.as_ns() as f64 - 99_990.0).abs() < 100.0,
            "{early_by}"
        );
    }
}

//! E9 — clock-synchronization precision and the `ΔG_min` gap (§3.2).
//!
//! The inter-slot gap must absorb the worst disagreement between any
//! two node clocks. Sweeping oscillator drift and resync period, the
//! measured precision `Π ≈ 2ρP` plus one bit of latch granularity
//! yields the required gap; the paper conservatively assumes 40 µs.
//!
//! Each cell runs the network's own synchronization service
//! ([`ClockSyncConfig`]), the one the HRT calendar relies on: the
//! master's SYNC completion is the instant every node latches, and its
//! FOLLOW-UP carries the master's timestamp of it (Gergeleit &
//! Streich [9]).

use crate::table::Table;
use crate::RunOpts;
use rtec_can::NodeId;
use rtec_clock::ClockParams;
use rtec_core::network::{ClockSyncConfig, Network};
use rtec_sim::{Duration, Extrema};
use std::cell::RefCell;
use std::rc::Rc;

/// Oscillator drift bounds E9 sweeps (±ppm).
pub const DRIFTS_PPM: [f64; 4] = [10.0, 50.0, 100.0, 200.0];
/// Resynchronization periods E9 sweeps (ms).
pub const PERIODS_MS: [u64; 3] = [10, 50, 200];

/// What one E9 cell measures.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SyncCell {
    /// Completed synchronization rounds.
    pub rounds: u64,
    /// Spread samples, one per millisecond once a round has completed.
    pub samples: u64,
    /// The worst sampled spread between any two node clocks (ns): the
    /// achieved precision Π.
    pub precision_ns: u64,
}

/// The minimal inter-slot gap `ΔG_min` for a measured precision Π:
/// the gap must absorb one node acting early by Π/2 and its successor
/// acting late by Π/2, plus one bit time of latch granularity.
pub fn required_gap(precision: Duration, bit_time: Duration) -> Duration {
    precision + bit_time
}

/// The synchronized bus of one E9 cell: `nodes` clocks, node 0 the
/// perfect master that defines global time, the slaves' drifts spread
/// evenly over ±`drift_ppm` and their offsets 1 µs apart,
/// resynchronized every `period`.
pub fn sync_network(nodes: usize, drift_ppm: f64, period: Duration) -> Network {
    let clocks = (0..nodes)
        .map(|i| match i {
            0 => ClockParams::PERFECT,
            _ => {
                let frac = i as f64 / (nodes - 1) as f64;
                ClockParams {
                    drift_ppm: drift_ppm * (2.0 * frac - 1.0),
                    initial_offset_ns: i as f64 * 1_000.0,
                }
            }
        })
        .collect();
    Network::builder()
        .nodes(nodes)
        .clocks(clocks)
        .clock_sync(ClockSyncConfig {
            period,
            master: NodeId(0),
            priority: 1,
        })
        .build()
}

/// Run one cell for `horizon`, sampling the clock spread every
/// millisecond once a round has completed.
pub fn measure(mut net: Network, horizon: Duration) -> SyncCell {
    let spread = Rc::new(RefCell::new(Extrema::new()));
    let sampler = Rc::clone(&spread);
    net.every(Duration::from_ms(1), Duration::ZERO, move |api| {
        if api.stats().sync_rounds > 0 {
            let now = api.now();
            sampler.borrow_mut().record(api.world().clock_spread(now));
        }
    });
    net.run_for(horizon);
    let spread = spread.borrow();
    SyncCell {
        rounds: net.stats().sync_rounds,
        samples: spread.count() as u64,
        precision_ns: spread.max().unwrap_or(0),
    }
}

/// Run E9.
pub fn run(opts: &RunOpts) -> Vec<Table> {
    let mut t = Table::new(
        "E9: measured clock precision Π and required ΔG_min (8 nodes)",
        &[
            "drift (±ppm)",
            "resync period",
            "precision Π (us)",
            "required gap (us)",
            "fits paper's 40 us",
        ],
    );
    let horizon = opts.horizon(Duration::from_secs(5));
    for drift in DRIFTS_PPM {
        for period_ms in PERIODS_MS {
            let net = sync_network(8, drift, Duration::from_ms(period_ms));
            if opts.conformance {
                let report = rtec_conformance::net::lint_network(&net);
                assert!(report.passes(), "e9 lint:\n{report}");
            }
            let cell = measure(net, horizon);
            let precision = Duration::from_ns(cell.precision_ns);
            let gap = required_gap(precision, Duration::from_us(1));
            t.row(vec![
                format!("{drift:.0}"),
                format!("{period_ms} ms"),
                format!("{:.1}", precision.as_us_f64()),
                format!("{:.1}", gap.as_us_f64()),
                if gap <= Duration::from_us(40) {
                    "yes"
                } else {
                    "no"
                }
                .to_string(),
            ]);
        }
    }
    t.note(
        "paper assumption (§3.2): ΔG_min conservatively 40 us, 'depends on the \
         quality and frequency of clock synchronization'. The sweep shows which \
         (drift, resync) combinations honour it — e.g. ±100 ppm needs a resync \
         period of ~50 ms or better.",
    );
    t.note(format!(
        "seed={} (sync protocol itself is deterministic)",
        opts.seed
    ));
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slaves_converge_to_master() {
        let mut net = sync_network(4, 100.0, Duration::from_ms(50));
        net.run_for(Duration::from_ms(500));
        assert!(net.stats().sync_rounds >= 9, "{}", net.stats().sync_rounds);
        // After many rounds every slave tracks the master within the
        // drift accumulated over one period (100 ppm * 50 ms = 5 µs)
        // plus protocol granularity.
        let api = net.api();
        let master = api.now_global(NodeId(0)).as_ns();
        for i in 1..4 {
            let err = api.now_global(NodeId(i)).as_ns().abs_diff(master);
            assert!(err < 12_000, "node {i} error {err}ns");
        }
    }

    #[test]
    fn unsynced_clocks_diverge() {
        // Sanity check of the experiment itself: with a very long sync
        // period the spread grows with drift.
        let mut net = sync_network(3, 100.0, Duration::from_secs(10));
        net.run_for(Duration::from_secs(1));
        let spread = net.world().clock_spread(net.now());
        // The fastest clock (+100 ppm) gains ~100 µs over the master in
        // the 1 s since the single initial synchronization.
        assert!(spread > 80_000, "spread {spread}ns");
    }

    #[test]
    fn precision_improves_with_faster_resync() {
        let horizon = Duration::from_secs(2);
        let slow = measure(sync_network(4, 100.0, Duration::from_ms(200)), horizon);
        let fast = measure(sync_network(4, 100.0, Duration::from_ms(10)), horizon);
        assert!(
            fast.precision_ns < slow.precision_ns,
            "fast {fast:?} !< slow {slow:?}"
        );
    }

    #[test]
    fn paper_gap_assumption_is_reachable() {
        // With 100 ppm drifts and a 50 ms resync period the measured
        // precision must stay under the paper's 40 µs gap assumption.
        let cell = measure(
            sync_network(8, 100.0, Duration::from_ms(50)),
            Duration::from_secs(2),
        );
        let gap = required_gap(Duration::from_ns(cell.precision_ns), Duration::from_us(1));
        assert!(
            gap <= Duration::from_us(40),
            "required gap {gap} exceeds the paper's 40 µs assumption"
        );
    }

    #[test]
    fn rounds_counted() {
        let cell = measure(
            sync_network(2, 50.0, Duration::from_ms(20)),
            Duration::from_ms(205),
        );
        assert!(cell.rounds >= 10, "rounds {}", cell.rounds);
        assert!(cell.samples > 0);
    }
}

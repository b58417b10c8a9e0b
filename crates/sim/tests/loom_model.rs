//! Model-checked interleaving exploration of the conservative
//! window-barrier handshake in `rtec_sim::parallel` (compiled only
//! under `RUSTFLAGS="--cfg loom"`; see the ci.sh model-check job).
//!
//! The scenario is deliberately minimal — two segments, one relay
//! edge, a handful of windows — because the property is about the
//! *synchronization protocol*, not the workload: under **every**
//! thread schedule the parallel driver must produce exactly the
//! result the serial lockstep oracle produces, and must terminate
//! (a barrier deadlock shows up as a loom-reported hang). The sync
//! facade routes the driver's channels, spawns, and atomics through
//! the vendored loom stand-in, so the exploration really exercises
//! the same code paths the std build runs.

#![cfg(loom)]

use rtec_sim::parallel::{
    run_parallel, run_serial_windows, Envelope, RoutingTable, Segment, WindowConfig,
};
use rtec_sim::{Duration, Time};

/// A toy segment mirroring the one in the unit tests: one tick per
/// quantum, relays its tick count on every boundary, records every
/// applied envelope.
struct Toy {
    ticks: u64,
    routes_out: Vec<u32>,
    latency: Duration,
    applied: Vec<(Time, u32, u64)>,
}

impl Segment for Toy {
    type Relay = u64;
    type Report = (u64, Vec<(Time, u32, u64)>);
    fn advance_to(&mut self, _t: Time) {
        self.ticks += 1;
    }
    fn collect(&mut self, now: Time, out: &mut Vec<Envelope<u64>>) {
        for &route in &self.routes_out {
            out.push(Envelope {
                due: now + self.latency,
                collected_at: now,
                route,
                payload: self.ticks,
            });
        }
    }
    fn apply(&mut self, env: Envelope<u64>) {
        self.applied.push((env.due, env.route, env.payload));
    }
    fn finish(self) -> Self::Report {
        (self.ticks, self.applied)
    }
}

fn factories(
    routing: &RoutingTable,
    latency: Duration,
) -> Vec<impl FnOnce() -> Toy + Send + 'static> {
    (0..routing.segments())
        .map(|i| {
            let routes_out: Vec<u32> = (0..routing.routes() as u32)
                .filter(|&r| routing.source(r) == i)
                .collect();
            move || Toy {
                ticks: 0,
                routes_out,
                latency,
                applied: Vec::new(),
            }
        })
        .collect()
}

/// Two segments, one relay edge, two full windows plus a partial
/// boundary: under every schedule the barrier handshake must neither
/// deadlock nor reorder relays — the reports are byte-identical to
/// the serial oracle's.
#[test]
fn window_barrier_matches_serial_under_all_schedules() {
    let routing = || {
        let mut rt = RoutingTable::new(2);
        rt.add_route(0, 1);
        rt
    };
    let cfg = WindowConfig {
        quantum: Duration::from_us(100),
        lookahead: Duration::from_us(200),
    };
    let until = Time::ZERO + Duration::from_us(450);
    let latency = Duration::from_us(200);

    // The oracle is deterministic; compute it once, outside the model.
    let rt = routing();
    let serial = run_serial_windows::<Toy, _>(factories(&rt, latency), &rt, cfg, until);

    let stats = loom::explore(move || {
        let rt = routing();
        let par = run_parallel::<Toy, _>(factories(&rt, latency), &rt, cfg, until);
        assert_eq!(
            serial, par.reports,
            "parallel run diverged from the serial oracle under some schedule"
        );
        assert_eq!(par.stats.threads, 2);
        assert!(par.stats.windows > 0, "at least one window barrier ran");
    });
    assert!(stats.executions >= 2, "exploration must branch: {stats:?}");
    assert!(!stats.pruned, "exploration must be exhaustive: {stats:?}");
}

/// Bidirectional relay (a route each way): both directions cross the
/// same barrier and the handshake still terminates and agrees with
/// the oracle under every schedule.
#[test]
fn bidirectional_relay_agrees_under_all_schedules() {
    let routing = || {
        let mut rt = RoutingTable::new(2);
        rt.add_route(0, 1);
        rt.add_route(1, 0);
        rt
    };
    let cfg = WindowConfig {
        quantum: Duration::from_us(100),
        lookahead: Duration::from_us(100),
    };
    let until = Time::ZERO + Duration::from_us(300);
    let latency = Duration::from_us(100);

    let rt = routing();
    let serial = run_serial_windows::<Toy, _>(factories(&rt, latency), &rt, cfg, until);

    let stats = loom::explore(move || {
        let rt = routing();
        let par = run_parallel::<Toy, _>(factories(&rt, latency), &rt, cfg, until);
        assert_eq!(serial, par.reports, "bidirectional relay diverged");
    });
    assert!(stats.executions >= 2, "exploration must branch: {stats:?}");
    assert!(!stats.pruned, "exploration must be exhaustive: {stats:?}");
}

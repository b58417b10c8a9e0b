//! Property-based tests of the discrete-event engine and statistics.

use proptest::prelude::*;
use rtec_sim::{Ctx, Duration, Engine, Extrema, HeapScheduler, Histogram, Model, Time};

/// A model that records the dispatch order of (time, id) events.
struct Recorder {
    seen: Vec<(Time, u32)>,
}

impl Model for Recorder {
    type Event = (Time, u32);
    fn handle(&mut self, ctx: &mut Ctx<(Time, u32)>, ev: (Time, u32)) {
        assert_eq!(ctx.now(), ev.0, "event fires at its scheduled time");
        self.seen.push(ev);
    }
}

/// One externally-driven scheduler operation for the differential test.
#[derive(Clone, Debug)]
enum SchedOp {
    /// Schedule at `now + delay_ns`.
    Schedule(u64),
    /// Cancel the n-th handle issued so far (mod count) — may already
    /// have fired or been cancelled.
    Cancel(usize),
    /// `run_until(now + delta_ns)` on both schedulers, then compare.
    Run(u64),
}

/// Mix short (same-granule), medium, and far-overflow-level horizons so
/// every wheel level and the imminent heap get exercised.
fn scheduler_op() -> impl Strategy<Value = SchedOp> {
    prop_oneof![
        (0u64..4_096).prop_map(SchedOp::Schedule),
        (0u64..4_096).prop_map(SchedOp::Schedule),
        (0u64..2_000_000).prop_map(SchedOp::Schedule),
        (0u64..1_000_000_000_000).prop_map(SchedOp::Schedule),
        any::<usize>().prop_map(SchedOp::Cancel),
        any::<usize>().prop_map(SchedOp::Cancel),
        (0u64..3_000_000).prop_map(SchedOp::Run),
        (0u64..3_000_000).prop_map(SchedOp::Run),
        (0u64..2_000_000_000_000).prop_map(SchedOp::Run),
    ]
}

proptest! {
    /// Events always dispatch in non-decreasing time order, and
    /// same-time events dispatch in scheduling order.
    #[test]
    fn dispatch_order_is_total(times in prop::collection::vec(0u64..10_000, 1..200)) {
        let mut engine = Engine::new(Recorder { seen: vec![] });
        for (i, &t_us) in times.iter().enumerate() {
            let t = Time::from_us(t_us);
            engine.schedule_at(t, (t, i as u32));
        }
        engine.run();
        let seen = &engine.model.seen;
        prop_assert_eq!(seen.len(), times.len());
        for w in seen.windows(2) {
            prop_assert!(w[0].0 <= w[1].0, "time order");
            if w[0].0 == w[1].0 {
                prop_assert!(w[0].1 < w[1].1, "FIFO among ties");
            }
        }
    }

    /// Cancelling an arbitrary subset removes exactly those events.
    #[test]
    fn cancellation_is_exact(
        times in prop::collection::vec(1u64..5_000, 1..100),
        cancel_mask in prop::collection::vec(any::<bool>(), 1..100),
    ) {
        let mut engine = Engine::new(Recorder { seen: vec![] });
        let mut expect = vec![];
        let mut ids = vec![];
        for (i, &t_us) in times.iter().enumerate() {
            let t = Time::from_us(t_us);
            ids.push((engine.schedule_at(t, (t, i as u32)), i));
        }
        for (idx, &(timer, i)) in ids.iter().enumerate() {
            if cancel_mask.get(idx).copied().unwrap_or(false) {
                engine.ctx().cancel(timer);
            } else {
                expect.push(i as u32);
            }
        }
        engine.run();
        let mut got: Vec<u32> = engine.model.seen.iter().map(|&(_, i)| i).collect();
        got.sort_unstable();
        expect.sort_unstable();
        prop_assert_eq!(got, expect);
    }

    /// run_until never dispatches past the limit and leaves the clock at
    /// exactly the limit.
    #[test]
    fn run_until_respects_limit(
        times in prop::collection::vec(0u64..10_000, 1..100),
        limit_us in 0u64..10_000,
    ) {
        let mut engine = Engine::new(Recorder { seen: vec![] });
        for (i, &t_us) in times.iter().enumerate() {
            engine.schedule_at(Time::from_us(t_us), (Time::from_us(t_us), i as u32));
        }
        let limit = Time::from_us(limit_us);
        engine.run_until(limit);
        prop_assert_eq!(engine.now(), limit);
        let expected = times.iter().filter(|&&t| t <= limit_us).count();
        prop_assert_eq!(engine.model.seen.len(), expected);
        prop_assert!(engine.model.seen.iter().all(|&(t, _)| t <= limit));
    }

    /// Histogram percentiles are order statistics: p0 = min, p100 = max,
    /// and percentiles are monotone in p.
    #[test]
    fn histogram_percentiles_are_order_statistics(
        samples in prop::collection::vec(0u64..1_000_000, 1..300),
    ) {
        let mut h = Histogram::new();
        for &s in &samples {
            h.record(s);
        }
        let min = *samples.iter().min().unwrap();
        let max = *samples.iter().max().unwrap();
        prop_assert_eq!(h.percentile(0.0), Some(min));
        prop_assert_eq!(h.percentile(100.0), Some(max));
        let mut last = min;
        for p in [10.0, 25.0, 50.0, 75.0, 90.0, 99.0] {
            let v = h.percentile(p).unwrap();
            prop_assert!(v >= last, "monotone percentiles");
            prop_assert!(v <= max);
            last = v;
        }
    }

    /// Differential test: `Extrema` answers count, min, max and
    /// spread exactly as a `Histogram` of the same samples does,
    /// including when there are none.
    #[test]
    fn extrema_matches_histogram(samples in prop::collection::vec(any::<u64>(), 0..300)) {
        let (mut e, mut h) = (Extrema::new(), Histogram::new());
        for &s in &samples {
            e.record(s);
            h.record(s);
        }
        prop_assert_eq!(e.count(), h.count());
        prop_assert_eq!(e.is_empty(), h.is_empty());
        prop_assert_eq!(e.min(), h.min());
        prop_assert_eq!(e.max(), h.max());
        prop_assert_eq!(e.spread(), h.spread());
    }

    /// Differential test: the timing-wheel engine and the reference
    /// `BinaryHeap` scheduler (the engine's original implementation,
    /// kept in `rtec_sim::reference`) dispatch the *same sequence* in
    /// the *same order* and agree on the clock after every advance,
    /// under an arbitrary interleaving of schedule / cancel / run_until
    /// operations. Ties at the same instant must break in scheduling
    /// order in both.
    #[test]
    fn wheel_matches_reference_heap(ops in prop::collection::vec(scheduler_op(), 1..120)) {
        let mut engine = Engine::new(Recorder { seen: vec![] });
        let mut heap: HeapScheduler<(Time, u32)> = HeapScheduler::new();
        let mut heap_seen: Vec<(Time, u32)> = Vec::new();
        let mut wheel_ids = Vec::new();
        let mut heap_ids = Vec::new();
        let mut tag = 0u32;
        for op in ops {
            match op {
                SchedOp::Schedule(delay_ns) => {
                    let t = engine.now() + Duration::from_ns(delay_ns);
                    wheel_ids.push(engine.schedule_at(t, (t, tag)));
                    heap_ids.push(heap.at(t, (t, tag)));
                    tag += 1;
                }
                SchedOp::Cancel(nth) => {
                    if !wheel_ids.is_empty() {
                        // May target live, fired, or already-cancelled
                        // timers — all must behave identically.
                        let i = nth % wheel_ids.len();
                        engine.ctx().cancel(wheel_ids[i]);
                        heap.cancel(heap_ids[i]);
                    }
                }
                SchedOp::Run(delta_ns) => {
                    let limit = engine.now() + Duration::from_ns(delta_ns);
                    engine.run_until(limit);
                    while heap.pop_due(limit).map(|(_, ev)| heap_seen.push(ev)).is_some() {}
                    heap.advance_to(limit);
                    prop_assert_eq!(engine.now(), heap.now(), "clock advance diverged");
                    prop_assert_eq!(&engine.model.seen, &heap_seen, "dispatch order diverged");
                }
            }
        }
        // Drain both completely.
        let final_limit = Time::MAX;
        engine.run_until(final_limit);
        while heap.pop_due(final_limit).map(|(_, ev)| heap_seen.push(ev)).is_some() {}
        prop_assert_eq!(&engine.model.seen, &heap_seen);
        prop_assert_eq!(engine.dispatched(), heap.dispatched());
    }

    /// Time arithmetic: round_up/round_down bracket the value on the
    /// granule lattice.
    #[test]
    fn rounding_brackets(value_ns in 0u64..u64::MAX / 4, granule_ns in 1u64..1_000_000) {
        let t = Time::from_ns(value_ns);
        let g = Duration::from_ns(granule_ns);
        let up = t.round_up_to(g);
        let down = t.round_down_to(g);
        prop_assert!(down <= t && t <= up);
        prop_assert_eq!(up.as_ns() % granule_ns, 0);
        prop_assert_eq!(down.as_ns() % granule_ns, 0);
        prop_assert!(up.as_ns() - down.as_ns() <= granule_ns);
    }
}

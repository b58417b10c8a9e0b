//! The [`TxPolicy`] contract the testbed's per-stream FIFOs rest on:
//! for a fixed stream and instant, priority is non-decreasing in the
//! deadline, so a stream's earliest queued message is also its most
//! urgent.

use proptest::prelude::*;
use rtec_baselines::{DualPriorityPolicy, EdfPolicy, FixedPriorityPolicy, NoPromotion, TxPolicy};
use rtec_can::bits::BitTiming;
use rtec_can::NodeId;
use rtec_sim::{Duration, Time};
use rtec_workloads::{ArrivalPattern, StreamSpec};

/// One to eight streams of random deadline, period and size.
fn arb_set() -> impl Strategy<Value = Vec<StreamSpec>> {
    prop::collection::vec((0u8..=8, 200u64..50_000, 100u64..50_000), 1..=8).prop_map(|streams| {
        streams
            .into_iter()
            .enumerate()
            .map(|(i, (dlc, period_us, deadline_us))| StreamSpec {
                id: i as u16,
                node: NodeId((i % 3) as u8),
                dlc,
                pattern: ArrivalPattern::periodic(Duration::from_us(period_us)),
                rel_deadline: Duration::from_us(deadline_us),
                rel_expiration: None,
            })
            .collect()
    })
}

fn monotone(p: &impl TxPolicy, s: &StreamSpec, d1: Time, d2: Time, now: Time) -> bool {
    p.priority(s, d1, now) <= p.priority(s, d2, now)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// `d1 < d2 ⇒ priority(s, d1, now) ≤ priority(s, d2, now)` for every
    /// policy, any stream of the set and any instant — before the
    /// release, between the deadlines and past both.
    #[test]
    fn priority_is_non_decreasing_in_the_deadline(
        set in arb_set(),
        pick in any::<prop::sample::Index>(),
        a_us in 0u64..200_000,
        b_us in 0u64..200_000,
        now_us in 0u64..250_000,
    ) {
        prop_assume!(a_us != b_us);
        let s = &set[pick.index(set.len())];
        let (d1, d2) = (Time::from_us(a_us.min(b_us)), Time::from_us(a_us.max(b_us)));
        let now = Time::from_us(now_us);
        prop_assert!(monotone(&EdfPolicy::default(), s, d1, d2, now), "edf");
        prop_assert!(
            monotone(&FixedPriorityPolicy::deadline_monotonic(&set), s, d1, d2, now),
            "fixed-dm"
        );
        prop_assert!(
            monotone(&DualPriorityPolicy::new(&set, BitTiming::MBIT_1), s, d1, d2, now),
            "dual-priority"
        );
        prop_assert!(monotone(&NoPromotion(EdfPolicy::default()), s, d1, d2, now), "no-promotion");
    }
}

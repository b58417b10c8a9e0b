//! The [`SrtPriority`] contract the machine's per-channel send queues
//! rest on: for one channel and one instant, priority is non-decreasing
//! in the deadline (so a channel's earliest queued message is also its
//! most urgent), and a priority changes only strictly after `now` (so a
//! promotion timer never fires in the past).

use proptest::prelude::*;
use rtec_analysis::edf::PrioritySlotConfig;
use rtec_baselines::policy;
use rtec_can::bits::BitTiming;
use rtec_can::{NodeId, PRIO_SRT_MAX, PRIO_SRT_MIN};
use rtec_core::channel::{validate_srt_priority, SrtSpec};
use rtec_core::SrtPriority;
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

/// Any priority `announce` accepts.
fn arb_priority() -> impl Strategy<Value = SrtPriority> {
    prop_oneof![
        Just(SrtPriority::Slots),
        (PRIO_SRT_MIN..=PRIO_SRT_MAX).prop_map(SrtPriority::Fixed),
        (PRIO_SRT_MIN..=PRIO_SRT_MAX, 0u8..=255, 0u64..100_000).prop_map(|(low, h, lead)| {
            SrtPriority::Dual {
                low,
                high: PRIO_SRT_MIN + h % (low - PRIO_SRT_MIN + 1),
                lead: Duration::from_us(lead),
            }
        }),
    ]
}

/// `d1 < d2 ⇒ priority(d1, now) ≤ priority(d2, now)`, and any change
/// lies strictly after `now`.
fn contract_holds(
    p: SrtPriority,
    slots: &PrioritySlotConfig,
    d1: Time,
    d2: Time,
    now: Time,
) -> bool {
    let after_now = |d| p.next_change(slots, d, now).is_none_or(|t| t > now);
    p.priority(slots, d1, now) <= p.priority(slots, d2, now) && after_now(d1) && after_now(d2)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Every policy's priority for any stream of the set, and any
    /// priority `announce` accepts, at any slot length and any instant
    /// — before the release, between the deadlines and past both.
    #[test]
    fn priority_is_non_decreasing_in_the_deadline_and_changes_later(
        set in arb_set(),
        pick in any::<prop::sample::Index>(),
        any_priority in arb_priority(),
        slot_us in 1u64..20_000,
        a_us in 0u64..200_000,
        b_us in 0u64..200_000,
        now_us in 0u64..250_000,
    ) {
        prop_assume!(a_us != b_us);
        let i = pick.index(set.len());
        let (d1, d2) = (Time::from_us(a_us.min(b_us)), Time::from_us(a_us.max(b_us)));
        let now = Time::from_us(now_us);
        let slots = PrioritySlotConfig {
            slot: Duration::from_us(slot_us),
            ..PrioritySlotConfig::paper_default()
        };
        let policies = [
            ("edf", policy::edf(&set)[i]),
            ("fixed-dm", policy::deadline_monotonic(&set)[i]),
            ("dual-priority", policy::dual_priority(&set, BitTiming::MBIT_1)[i]),
            ("no-promotion", policy::no_promotion(&set, &slots)[i]),
            ("any accepted", any_priority),
        ];
        for (name, p) in policies {
            let spec = SrtSpec { priority: p, ..SrtSpec::default() };
            prop_assert!(validate_srt_priority(&spec).is_ok(), "{} is refused: {:?}", name, p);
            prop_assert!(contract_holds(p, &slots, d1, d2, now), "{}: {:?}", name, p);
        }
    }
}

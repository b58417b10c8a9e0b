//! The §4 priority-assignment policies, as per-channel SRT priorities.
//!
//! A policy decides, for each stream of a set, which
//! [`SrtPriority`] its channel contends with; the node machine does the
//! rest (EDF over the channel fronts, promotion, withdraw-and-resubmit).
//! Each function returns one priority per stream, index-aligned with the
//! set:
//!
//! * [`edf`] — the paper's scheme (§3.4): priority tracks the remaining
//!   time to the transmission deadline, quantized into priority slots,
//!   dynamically promoted as laxity shrinks.
//! * [`deadline_monotonic`] — static priorities (Tindell & Burns [22];
//!   the CanOpen/DeviceNet family): a stream's priority never changes.
//! * [`dual_priority`] — Davis's dual-priority scheme [4]: each message
//!   starts in a low band and is promoted once, to its high-band
//!   priority, at `deadline − R` where `R` is its worst-case response
//!   time in the high band.
//! * [`no_promotion`] — the ablation of §3.4's dynamic promotion: the
//!   slot priority a message has at its release, frozen.

use rtec_analysis::edf::{priority_for_deadline, PrioritySlotConfig};
use rtec_analysis::rta::{rta_feasible, MessageSpec};
use rtec_can::bits::BitTiming;
use rtec_can::{PRIO_SRT_MAX, PRIO_SRT_MIN};
use rtec_core::SrtPriority;
use rtec_sim::{Duration, Time};
use rtec_workloads::StreamSpec;

/// The paper's EDF-by-priority-slots policy for every stream.
pub fn edf(set: &[StreamSpec]) -> Vec<SrtPriority> {
    vec![SrtPriority::Slots; set.len()]
}

/// Each stream's deadline-monotonic rank (0 = shortest deadline, ties
/// by stream id).
fn dm_ranks(set: &[StreamSpec]) -> Vec<u8> {
    let mut order: Vec<usize> = (0..set.len()).collect();
    order.sort_by_key(|&i| (set[i].rel_deadline, set[i].id));
    let mut ranks = vec![0; set.len()];
    for (rank, &i) in order.iter().enumerate() {
        ranks[i] = rank as u8;
    }
    ranks
}

/// Deadline-monotonic static priorities over the SRT band (1..=250).
/// Panics if the set exceeds the band.
pub fn deadline_monotonic(set: &[StreamSpec]) -> Vec<SrtPriority> {
    assert!(
        set.len() <= usize::from(PRIO_SRT_MAX - PRIO_SRT_MIN + 1),
        "more streams than SRT priority levels"
    );
    let ranks = dm_ranks(set).into_iter();
    ranks
        .map(|r| SrtPriority::Fixed(PRIO_SRT_MIN + r))
        .collect()
}

/// Davis's dual priority: DM order in each band, the low band above the
/// high one, and a promotion lead equal to the worst-case response time
/// under the high-band assignment (clamped to the deadline). Panics if
/// the set exceeds one band.
pub fn dual_priority(set: &[StreamSpec], timing: BitTiming) -> Vec<SrtPriority> {
    let half = (PRIO_SRT_MAX - PRIO_SRT_MIN).div_ceil(2); // 125 levels/band
    assert!(
        set.len() <= usize::from(half),
        "more streams than one priority band"
    );
    let ranks = dm_ranks(set);
    // Worst-case response in the high band via Tindell–Burns.
    let specs: Vec<MessageSpec> = set
        .iter()
        .zip(&ranks)
        .map(|(s, &r)| MessageSpec {
            priority: u32::from(PRIO_SRT_MIN + r),
            dlc: s.dlc,
            period: s.pattern.mean_gap(),
            deadline: s.rel_deadline,
            jitter: Duration::ZERO,
        })
        .collect();
    let results = rta_feasible(&specs, timing);
    set.iter()
        .zip(ranks)
        .zip(&results)
        .map(|((s, r), res)| SrtPriority::Dual {
            low: PRIO_SRT_MIN + half + r,
            high: PRIO_SRT_MIN + r,
            lead: res.response.unwrap_or(s.rel_deadline).min(s.rel_deadline),
        })
        .collect()
}

/// The EDF priority of a message at its release, never promoted: "EDF
/// at enqueue time", the §3.4 design choice dynamic promotion exists to
/// fix. The slot mapping depends only on the remaining time, so each
/// stream's frozen priority is its relative deadline's slot.
pub fn no_promotion(set: &[StreamSpec], slots: &PrioritySlotConfig) -> Vec<SrtPriority> {
    let at_release =
        |s: &StreamSpec| priority_for_deadline(Time::ZERO + s.rel_deadline, Time::ZERO, slots);
    set.iter()
        .map(|s| SrtPriority::Fixed(at_release(s)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtec_can::NodeId;
    use rtec_workloads::ArrivalPattern;

    fn stream(id: u16, deadline_ms: u64) -> StreamSpec {
        StreamSpec {
            id,
            node: NodeId((id % 4) as u8),
            dlc: 8,
            pattern: ArrivalPattern::periodic(Duration::from_ms(deadline_ms)),
            rel_deadline: Duration::from_ms(deadline_ms),
            rel_expiration: None,
        }
    }

    fn slots() -> PrioritySlotConfig {
        PrioritySlotConfig::paper_default()
    }

    #[test]
    fn edf_priority_tracks_laxity() {
        let p = edf(&[stream(0, 10)])[0];
        let d = Time::from_ms(50);
        let early = p.priority(&slots(), d, Time::from_ms(10));
        let late = p.priority(&slots(), d, Time::from_ms(49));
        assert!(late < early);
        assert_eq!(p.priority(&slots(), d, d), PRIO_SRT_MIN);
        assert!(p.next_change(&slots(), d, Time::from_ms(10)).is_some());
        assert!(p.next_change(&slots(), d, d).is_none());
    }

    #[test]
    fn fixed_dm_orders_by_deadline_and_never_changes() {
        let set = [stream(0, 50), stream(1, 5), stream(2, 20)];
        let p = deadline_monotonic(&set);
        let pr = |i: usize| p[i].priority(&slots(), Time::MAX, Time::ZERO);
        assert!(pr(1) < pr(2), "5ms beats 20ms");
        assert!(pr(2) < pr(0), "20ms beats 50ms");
        assert_eq!(pr(1), PRIO_SRT_MIN);
        assert!(p[0].next_change(&slots(), Time::MAX, Time::ZERO).is_none());
        // The defining weakness: two messages of the same stream have
        // the same priority regardless of their actual deadlines.
        let near = p[0].priority(&slots(), Time::from_ms(1), Time::ZERO);
        assert_eq!(near, pr(0));
    }

    #[test]
    fn dual_priority_promotes_once() {
        let set = [stream(0, 10), stream(1, 20)];
        let p = dual_priority(&set, BitTiming::MBIT_1)[0];
        let d = Time::from_ms(100);
        let early = p.priority(&slots(), d, Time::from_ms(10));
        let promo = p.next_change(&slots(), d, Time::from_ms(10)).unwrap();
        let late = p.priority(&slots(), d, promo);
        assert!(late < early, "promotion raises urgency: {early} -> {late}");
        // Low band is numerically above the high band.
        assert!(early > 125);
        assert!(late <= 125);
        // After promotion there are no further changes.
        assert!(p.next_change(&slots(), d, promo).is_none());
    }

    #[test]
    fn dual_priority_lead_respects_deadline() {
        let p = dual_priority(&[stream(0, 10)], BitTiming::MBIT_1)[0];
        let d = Time::from_ms(10);
        // Promotion instant is inside [release, deadline].
        let promo = p.next_change(&slots(), d, Time::ZERO).unwrap();
        assert!(promo <= d);
    }

    #[test]
    fn no_promotion_freezes_the_release_priority() {
        let s = stream(0, 10);
        let p = no_promotion(&[s], &slots())[0];
        let d = Time::from_ms(50);
        let at_release = p.priority(&slots(), d, Time::from_ms(40));
        assert_eq!(at_release, p.priority(&slots(), d, Time::from_ms(49)));
        assert!(p.next_change(&slots(), d, Time::from_ms(40)).is_none());
        let dynamic = SrtPriority::Slots.priority(&slots(), d, Time::from_ms(40));
        assert_eq!(at_release, dynamic);
    }

    #[test]
    #[should_panic(expected = "priority levels")]
    fn fixed_dm_rejects_oversized_sets() {
        let set: Vec<StreamSpec> = (0..251).map(|i| stream(i, 10)).collect();
        let _ = deadline_monotonic(&set);
    }
}

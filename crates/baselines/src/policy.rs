//! Priority-assignment policies for soft real-time CAN traffic.
//!
//! A policy decides, for a queued message of a stream, which CAN
//! priority it contends with *now*, and when (if ever) that priority
//! changes. Three policies are provided:
//!
//! * [`EdfPolicy`] — the paper's scheme (§3.4): priority tracks the
//!   remaining time to the transmission deadline, quantized into
//!   priority slots, dynamically promoted as laxity shrinks.
//! * [`FixedPriorityPolicy`] — deadline-monotonic static priorities
//!   (Tindell & Burns [22]; the CanOpen/DeviceNet family): a stream's
//!   priority never changes.
//! * [`DualPriorityPolicy`] — Davis's dual-priority scheme [4]: each
//!   message starts in a low band and is promoted once, to its
//!   high-band priority, at `deadline − R` where `R` is its worst-case
//!   response time in the high band.

use rtec_analysis::edf::{next_promotion_time, priority_for_deadline, PrioritySlotConfig};
use rtec_analysis::rta::{rta_feasible, MessageSpec};
use rtec_can::bits::BitTiming;
use rtec_can::{PRIO_SRT_MAX, PRIO_SRT_MIN};
use rtec_sim::{Duration, Time};
use rtec_workloads::StreamSpec;
use std::collections::HashMap;

/// A priority-assignment policy.
///
/// **Contract.** For a fixed stream and instant a policy never ranks a
/// later deadline ahead of an earlier one: `d1 < d2` implies
/// `priority(s, d1, now) <= priority(s, d2, now)`. The testbed keeps
/// one FIFO per stream and only ever compares their fronts, which is
/// sound exactly because of this; `tests/policy_monotone.rs` checks it
/// for every policy here, and a new policy must join that test.
pub trait TxPolicy {
    /// Short policy name for reports.
    fn name(&self) -> &'static str;

    /// Priority a message of `stream` with absolute deadline `deadline`
    /// contends with at time `now`.
    fn priority(&self, stream: &StreamSpec, deadline: Time, now: Time) -> u8;

    /// The next instant at which [`TxPolicy::priority`] changes for
    /// this message, or `None` if it is final.
    fn next_change(&self, stream: &StreamSpec, deadline: Time, now: Time) -> Option<Time>;
}

/// The paper's EDF-by-priority-slots policy.
#[derive(Clone, Debug)]
pub struct EdfPolicy {
    /// Priority-slot configuration (Δt_p and the SRT band).
    pub cfg: PrioritySlotConfig,
}

impl Default for EdfPolicy {
    fn default() -> Self {
        EdfPolicy {
            cfg: PrioritySlotConfig::paper_default(),
        }
    }
}

impl TxPolicy for EdfPolicy {
    fn name(&self) -> &'static str {
        "edf"
    }
    fn priority(&self, _stream: &StreamSpec, deadline: Time, now: Time) -> u8 {
        priority_for_deadline(deadline, now, &self.cfg)
    }
    fn next_change(&self, _stream: &StreamSpec, deadline: Time, now: Time) -> Option<Time> {
        next_promotion_time(deadline, now, &self.cfg)
    }
}

fn dm_ranks(set: &[StreamSpec]) -> Vec<(u16, usize)> {
    let mut order: Vec<usize> = (0..set.len()).collect();
    order.sort_by_key(|&i| (set[i].rel_deadline, set[i].id));
    order
        .iter()
        .enumerate()
        .map(|(rank, &i)| (set[i].id, rank))
        .collect()
}

/// Deadline-monotonic static priorities over the SRT band.
#[derive(Clone, Debug)]
pub struct FixedPriorityPolicy {
    by_stream: HashMap<u16, u8>,
}

impl FixedPriorityPolicy {
    /// Assign priorities by deadline-monotonic rank, spread over the
    /// SRT band (1..=250). Panics if the set exceeds the band.
    pub fn deadline_monotonic(set: &[StreamSpec]) -> Self {
        assert!(
            set.len() <= usize::from(PRIO_SRT_MAX - PRIO_SRT_MIN + 1),
            "more streams than SRT priority levels"
        );
        let by_stream = dm_ranks(set)
            .into_iter()
            .map(|(id, rank)| (id, PRIO_SRT_MIN + rank as u8))
            .collect();
        FixedPriorityPolicy { by_stream }
    }

    /// The static priority of a stream.
    pub fn priority_of(&self, stream_id: u16) -> Option<u8> {
        self.by_stream.get(&stream_id).copied()
    }
}

impl TxPolicy for FixedPriorityPolicy {
    fn name(&self) -> &'static str {
        "fixed-dm"
    }
    fn priority(&self, stream: &StreamSpec, _deadline: Time, _now: Time) -> u8 {
        *self
            .by_stream
            .get(&stream.id)
            .expect("stream was in the assignment set")
    }
    fn next_change(&self, _stream: &StreamSpec, _deadline: Time, _now: Time) -> Option<Time> {
        None
    }
}

/// Davis's dual-priority scheme: low band first, one promotion to the
/// high band at `deadline − R_high`.
#[derive(Clone, Debug)]
pub struct DualPriorityPolicy {
    high: HashMap<u16, u8>,
    low: HashMap<u16, u8>,
    /// Per-stream promotion lead time (`R` in the high band).
    lead: HashMap<u16, Duration>,
}

impl DualPriorityPolicy {
    /// Build from a stream set: DM order in each band; promotion lead =
    /// worst-case response time under the high-band assignment
    /// (clamped to the deadline).
    pub fn new(set: &[StreamSpec], timing: BitTiming) -> Self {
        let half = (PRIO_SRT_MAX - PRIO_SRT_MIN).div_ceil(2); // 125 levels/band
        assert!(
            set.len() <= usize::from(half),
            "more streams than one priority band"
        );
        let ranks = dm_ranks(set);
        let mut high = HashMap::new();
        let mut low = HashMap::new();
        for &(id, rank) in &ranks {
            high.insert(id, PRIO_SRT_MIN + rank as u8);
            low.insert(id, PRIO_SRT_MIN + half + rank as u8);
        }
        // Worst-case response in the high band via Tindell–Burns.
        let specs: Vec<MessageSpec> = set
            .iter()
            .map(|s| MessageSpec {
                priority: u32::from(high[&s.id]),
                dlc: s.dlc,
                period: s.pattern.mean_gap(),
                deadline: s.rel_deadline,
                jitter: Duration::ZERO,
            })
            .collect();
        let results = rta_feasible(&specs, timing);
        let lead = set
            .iter()
            .zip(&results)
            .map(|(s, r)| {
                let resp = r.response.unwrap_or(s.rel_deadline);
                (s.id, resp.min(s.rel_deadline))
            })
            .collect();
        DualPriorityPolicy { high, low, lead }
    }

    fn promotion_instant(&self, stream: &StreamSpec, deadline: Time) -> Time {
        deadline.saturating_sub(self.lead[&stream.id])
    }
}

impl TxPolicy for DualPriorityPolicy {
    fn name(&self) -> &'static str {
        "dual-priority"
    }
    fn priority(&self, stream: &StreamSpec, deadline: Time, now: Time) -> u8 {
        if now >= self.promotion_instant(stream, deadline) {
            self.high[&stream.id]
        } else {
            self.low[&stream.id]
        }
    }
    fn next_change(&self, stream: &StreamSpec, deadline: Time, now: Time) -> Option<Time> {
        let promo = self.promotion_instant(stream, deadline);
        (now < promo).then_some(promo)
    }
}

/// Ablation wrapper: keep a policy's *initial* priority but disable all
/// later changes. Wrapping [`EdfPolicy`] yields "EDF at enqueue time"
/// — the priority reflects the deadline's distance when the message is
/// first considered and is never promoted, which is exactly the §3.4
/// design choice the dynamic promotion exists to fix.
#[derive(Clone, Debug)]
pub struct NoPromotion<P: TxPolicy>(pub P);

impl<P: TxPolicy> TxPolicy for NoPromotion<P> {
    fn name(&self) -> &'static str {
        "no-promotion"
    }
    fn priority(&self, stream: &StreamSpec, deadline: Time, now: Time) -> u8 {
        // Freeze at the released-instant priority: evaluate the inner
        // policy as if no time had passed since an anchor derived from
        // the deadline and the stream's own deadline offset.
        let release = deadline.saturating_sub(stream.rel_deadline);
        self.0.priority(stream, deadline, release.min(now))
    }
    fn next_change(&self, _stream: &StreamSpec, _deadline: Time, _now: Time) -> Option<Time> {
        None
    }
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

    #[test]
    fn edf_priority_tracks_laxity() {
        let p = EdfPolicy::default();
        let s = stream(0, 10);
        let d = Time::from_ms(50);
        let early = p.priority(&s, d, Time::from_ms(10));
        let late = p.priority(&s, d, Time::from_ms(49));
        assert!(late < early);
        assert_eq!(p.priority(&s, d, d), PRIO_SRT_MIN);
        assert!(p.next_change(&s, d, Time::from_ms(10)).is_some());
        assert!(p.next_change(&s, d, d).is_none());
    }

    #[test]
    fn fixed_dm_orders_by_deadline_and_never_changes() {
        let set = [stream(0, 50), stream(1, 5), stream(2, 20)];
        let p = FixedPriorityPolicy::deadline_monotonic(&set);
        let pr = |i: usize| p.priority(&set[i], Time::MAX, Time::ZERO);
        assert!(pr(1) < pr(2), "5ms beats 20ms");
        assert!(pr(2) < pr(0), "20ms beats 50ms");
        assert_eq!(pr(1), PRIO_SRT_MIN);
        assert!(p.next_change(&set[0], Time::MAX, Time::ZERO).is_none());
    }

    #[test]
    fn fixed_dm_is_deadline_blind_at_runtime() {
        // The defining weakness: two messages of the same stream have
        // the same priority regardless of their actual deadlines.
        let set = [stream(0, 10)];
        let p = FixedPriorityPolicy::deadline_monotonic(&set);
        let a = p.priority(&set[0], Time::from_ms(1), Time::ZERO);
        let b = p.priority(&set[0], Time::from_ms(1000), Time::ZERO);
        assert_eq!(a, b);
    }

    #[test]
    fn dual_priority_promotes_once() {
        let set = [stream(0, 10), stream(1, 20)];
        let p = DualPriorityPolicy::new(&set, BitTiming::MBIT_1);
        let d = Time::from_ms(100);
        let early = p.priority(&set[0], d, Time::from_ms(10));
        let promo = p.next_change(&set[0], d, Time::from_ms(10)).unwrap();
        let late = p.priority(&set[0], d, promo);
        assert!(late < early, "promotion raises urgency: {early} -> {late}");
        // Low band is numerically above the high band.
        assert!(early > 125);
        assert!(late <= 125);
        // After promotion there are no further changes.
        assert!(p.next_change(&set[0], d, promo).is_none());
    }

    #[test]
    fn dual_priority_lead_respects_deadline() {
        let set = [stream(0, 10)];
        let p = DualPriorityPolicy::new(&set, BitTiming::MBIT_1);
        let d = Time::from_ms(10);
        // Promotion instant is inside [release, deadline].
        let promo = p.next_change(&set[0], d, Time::ZERO).unwrap();
        assert!(promo <= d);
    }

    #[test]
    fn no_promotion_freezes_priority() {
        let p = NoPromotion(EdfPolicy::default());
        let s = stream(0, 10);
        let d = Time::from_ms(50);
        let at_release = p.priority(&s, d, Time::from_ms(40));
        let near_deadline = p.priority(&s, d, Time::from_ms(49));
        assert_eq!(at_release, near_deadline, "priority never changes");
        assert!(p.next_change(&s, d, Time::from_ms(40)).is_none());
        // The frozen value equals the dynamic policy's value at release.
        let dynamic = EdfPolicy::default();
        assert_eq!(at_release, dynamic.priority(&s, d, Time::from_ms(40)));
    }

    #[test]
    #[should_panic(expected = "priority levels")]
    fn fixed_dm_rejects_oversized_sets() {
        let set: Vec<StreamSpec> = (0..251).map(|i| stream(i, 10)).collect();
        let _ = FixedPriorityPolicy::deadline_monotonic(&set);
    }
}

//! Reference scheduler: the engine's original `BinaryHeap` + lazy-cancel
//! tombstone design, preserved verbatim as an executable specification.
//!
//! The differential property test (`tests/prop.rs`) keeps this alive:
//! it drives the timing wheel and this heap with the same random
//! schedule/cancel/advance sequence and asserts identical dispatch
//! order and clock advance — the determinism contract (ties fire in
//! scheduling order) must survive any future queue swap.
//!
//! It deliberately keeps the old design's flaw: cancelling an
//! already-fired timer inserts a tombstone that is never reclaimed
//! ([`HeapScheduler::tombstones`] exposes this for the leak regression
//! comparison).

use crate::time::{Duration, Time};
use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashSet};

struct Entry<E> {
    time: Time,
    seq: u64,
    ev: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so earliest (time, seq) pops first.
        (other.time, other.seq).cmp(&(self.time, self.seq))
    }
}

/// Binary-heap scheduler with lazy cancellation, mirroring the engine's
/// pre-wheel implementation operation for operation.
pub struct HeapScheduler<E> {
    now: Time,
    queue: BinaryHeap<Entry<E>>,
    next_seq: u64,
    cancelled: HashSet<u64>,
    dispatched: u64,
}

impl<E> Default for HeapScheduler<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> HeapScheduler<E> {
    /// An empty scheduler at time zero.
    pub fn new() -> Self {
        HeapScheduler {
            now: Time::ZERO,
            queue: BinaryHeap::new(),
            next_seq: 0,
            cancelled: HashSet::new(),
            dispatched: 0,
        }
    }

    /// The current instant (time of the last pop, or the last
    /// [`HeapScheduler::advance_to`] target).
    #[inline]
    pub fn now(&self) -> Time {
        self.now
    }

    /// Events dispatched so far.
    #[inline]
    pub fn dispatched(&self) -> u64 {
        self.dispatched
    }

    /// Queue length *including* lazily-cancelled entries still buried in
    /// the heap.
    #[inline]
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Size of the tombstone set — the structure the timing wheel
    /// eliminates. Grows without bound under cancel-after-fire churn.
    #[inline]
    pub fn tombstones(&self) -> usize {
        self.cancelled.len()
    }

    /// Schedule `ev` at absolute time `t`; returns the sequence-number
    /// handle used for cancellation. Panics if `t` is in the past.
    pub fn at(&mut self, t: Time, ev: E) -> u64 {
        assert!(t >= self.now, "cannot schedule into the past");
        let seq = self.next_seq;
        self.next_seq += 1;
        self.queue.push(Entry { time: t, seq, ev });
        seq
    }

    /// Schedule `ev` after a relative delay.
    #[inline]
    pub fn after(&mut self, d: Duration, ev: E) -> u64 {
        self.at(self.now + d, ev)
    }

    /// Lazily cancel a handle (tombstone inserted unconditionally, as
    /// in the original engine).
    pub fn cancel(&mut self, seq: u64) {
        self.cancelled.insert(seq);
    }

    /// Pop the earliest live entry with `time ≤ limit`, advancing `now`
    /// to its timestamp.
    pub fn pop_due(&mut self, limit: Time) -> Option<(Time, E)> {
        while let Some(head) = self.queue.peek() {
            if head.time > limit {
                return None;
            }
            let entry = self.queue.pop().expect("peeked entry exists");
            if self.cancelled.remove(&entry.seq) {
                continue;
            }
            self.now = entry.time;
            self.dispatched += 1;
            return Some((entry.time, entry.ev));
        }
        None
    }

    /// Advance the clock to `t` without dispatching (mirrors the
    /// engine's `run_until` trailing clock update). No-op if `t` is in
    /// the past.
    pub fn advance_to(&mut self, t: Time) {
        if t > self.now {
            self.now = t;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_then_seq_order_with_cancels() {
        let mut h = HeapScheduler::new();
        let t = Time::from_us(5);
        h.at(t, 'a');
        let b = h.at(t, 'b');
        h.at(t, 'c');
        h.cancel(b);
        let mut got = Vec::new();
        while let Some((_, ev)) = h.pop_due(Time::MAX) {
            got.push(ev);
        }
        assert_eq!(got, vec!['a', 'c']);
        assert_eq!(h.now(), t);
        assert_eq!(h.dispatched(), 2);
    }

    #[test]
    fn cancel_after_fire_leaks_a_tombstone() {
        // Documents the defect the wheel fixes.
        let mut h = HeapScheduler::new();
        for i in 0..100u64 {
            let id = h.at(Time::from_us(i + 1), ());
            assert!(h.pop_due(Time::MAX).is_some());
            h.cancel(id); // after the fact: tombstone never reclaimed
        }
        assert_eq!(h.tombstones(), 100);
    }
}

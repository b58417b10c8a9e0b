//! Hierarchical timing wheel: the engine's priority queue.
//!
//! The wheel replaces a `BinaryHeap` + tombstone `HashSet` with a
//! structure tuned to how discrete-event CAN simulations actually
//! schedule: almost every timer lands within a few bus bit times of the
//! clock, while a small minority (cycle starts, watchdogs, consumer
//! deadlines) sit far out.
//!
//! Layout
//!
//! * Time is binned into **granules** of `2^GRANULE_BITS` ns = 4096 ns,
//!   about four CAN bit times at 1 Mbit/s, a power of two so slot
//!   indexing is a shift, not a division. Level 0 then spans 262 µs,
//!   two maximal frames: a frame's completion, scheduled when it wins
//!   arbitration, is filed straight into its level-0 slot instead of
//!   cascading down from level 1 (DESIGN §4d has the measurement).
//! * Level `k` (`k = 0..LEVELS`) has 64 slots of `2^(GRANULE_BITS +
//!   6k)` ns each; level 0 slots are single granules, level 8 slots
//!   span `2^60` ns. Together the levels cover the full `u64`
//!   nanosecond range, so no timer is ever out of horizon.
//! * Timers inside the *current* granule live in a tiny `imminent`
//!   binary heap ordered by `(time, seq)`, which is what preserves the
//!   engine's deterministic ties-fire-in-scheduling-order contract.
//! * Each level keeps a 64-bit occupancy bitmap; finding the next
//!   non-empty slot is a rotate + `trailing_zeros`, so an idle stretch
//!   of any length costs O(levels), not O(elapsed slots).
//!
//! Timer state lives in a slab indexed by the low 32 bits of
//! [`TimerId`]; the high 32 bits carry a per-cell **generation** that is
//! bumped every time a cell is freed (fire or cancel). Slot vectors and
//! the imminent heap store `(index, generation)` references, so a stale
//! reference — to a timer that was cancelled, fired, or whose cell was
//! since reused — is recognized by generation mismatch and skipped.
//! Cancellation is therefore O(1) (free the cell, bump the generation)
//! and cancelling an already-fired timer is a true no-op: nothing is
//! inserted anywhere, which is what fixes the unbounded tombstone set
//! the old engine accumulated.
//!
//! Invariants (relied on by `pop_due`):
//!
//! 1. `wheel_now` never exceeds the earliest live timer: it only
//!    advances to the start of a slot that contained a *live* entry.
//!    Slots holding only stale references are cleared without advancing.
//! 2. A placed reference never targets the slot `wheel_now` currently
//!    occupies at that level (same-granule timers go to `imminent`), so
//!    the bitmap scan never has to special-case the cursor slot.
//! 3. Every entry at level `k > 0` is strictly later than every entry
//!    at level `k - 1` (it differs from `wheel_now` in a higher bit),
//!    so the lowest occupied level always holds the next due slot.

use crate::engine::TimerId;
use crate::time::Time;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// log2 of the granule size in ns: 4096 ns ≈ four CAN bit times @ 1 Mbit/s.
pub(crate) const GRANULE_BITS: u32 = 12;
/// log2 of the slot count per level.
const LEVEL_BITS: u32 = 6;
/// Slots per level.
const SLOTS: usize = 1 << LEVEL_BITS;
/// Levels needed to cover all 64 time bits: 12 + 9·6 ≥ 64.
const LEVELS: usize = 9;

/// One slab cell. `gen` is bumped on every free, invalidating
/// outstanding references and handles.
struct TimerCell<E> {
    gen: u32,
    data: Option<(Time, u64, E)>,
}

/// One wheel level: a 64-slot ring plus an occupancy bitmap.
struct Level {
    occupied: u64,
    slots: [Vec<(u32, u32)>; SLOTS],
}

impl Level {
    fn new() -> Self {
        Level {
            occupied: 0,
            slots: std::array::from_fn(|_| Vec::new()),
        }
    }
}

/// Hierarchical timing wheel over events of type `E`.
pub(crate) struct TimerWheel<E> {
    cells: Vec<TimerCell<E>>,
    free: Vec<u32>,
    live: usize,
    levels: Vec<Level>,
    /// Min-heap of `(time_ns, seq, idx, gen)` for timers inserted into
    /// the current granule while it is being dispatched.
    imminent: BinaryHeap<Reverse<(u64, u64, u32, u32)>>,
    /// The current granule's pre-sorted entries, descending by
    /// `(time, seq)` so the minimum pops from the back in O(1). Filled
    /// by draining a level-0 slot (one sort instead of per-entry heap
    /// traffic); only entries scheduled *after* the drain go through
    /// `imminent`, and `pop_due` takes the smaller of the two heads.
    due: Vec<(u64, u64, u32, u32)>,
    /// The wheel's own cursor, in ns. Always ≤ the earliest live timer.
    wheel_now: u64,
}

impl<E> TimerWheel<E> {
    pub(crate) fn new() -> Self {
        TimerWheel {
            cells: Vec::new(),
            free: Vec::new(),
            live: 0,
            levels: (0..LEVELS).map(|_| Level::new()).collect(),
            imminent: BinaryHeap::new(),
            due: Vec::new(),
            wheel_now: 0,
        }
    }

    /// Number of live (scheduled, not yet fired or cancelled) timers.
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.live
    }

    /// Number of slab cells ever allocated (capacity watermark). Stays
    /// flat across fire/cancel churn — the regression test for the old
    /// tombstone leak asserts on this.
    #[inline]
    pub(crate) fn allocated(&self) -> usize {
        self.cells.len()
    }

    /// Schedule `ev` at `t` with tie-break sequence `seq`. Returns a
    /// generation-tagged handle.
    pub(crate) fn insert(&mut self, t: Time, seq: u64, ev: E) -> TimerId {
        let idx = match self.free.pop() {
            Some(i) => {
                self.cells[i as usize].data = Some((t, seq, ev));
                i
            }
            None => {
                let i = self.cells.len();
                assert!(i < u32::MAX as usize, "timer slab exhausted");
                self.cells.push(TimerCell {
                    gen: 0,
                    data: Some((t, seq, ev)),
                });
                i as u32
            }
        };
        self.live += 1;
        let gen = self.cells[idx as usize].gen;
        self.place(t.as_ns(), seq, idx, gen);
        TimerId::pack(idx, gen)
    }

    /// Cancel a timer. Returns `true` if it was live. Stale handles
    /// (already fired, already cancelled, or `TimerId::NONE`) are
    /// recognized by generation mismatch and ignored — nothing is
    /// recorded, so repeated stale cancels cannot grow any structure.
    pub(crate) fn cancel(&mut self, id: TimerId) -> bool {
        let Some(cell) = self.cells.get_mut(id.index() as usize) else {
            return false;
        };
        if cell.gen != id.generation() || cell.data.is_none() {
            return false;
        }
        cell.data = None;
        cell.gen = cell.gen.wrapping_add(1);
        self.free.push(id.index());
        self.live -= 1;
        true
    }

    /// File a reference to cell `idx` under the level/slot (or the
    /// imminent heap) appropriate for time `t` relative to `wheel_now`.
    fn place(&mut self, t: u64, seq: u64, idx: u32, gen: u32) {
        let diff = (t ^ self.wheel_now) >> GRANULE_BITS;
        if diff == 0 {
            // Same granule as the cursor: ordered heap keeps ties exact.
            self.imminent.push(Reverse((t, seq, idx, gen)));
            return;
        }
        let level = ((63 - diff.leading_zeros()) / LEVEL_BITS) as usize;
        debug_assert!(level < LEVELS);
        let shift = GRANULE_BITS + LEVEL_BITS * level as u32;
        let slot = ((t >> shift) & (SLOTS as u64 - 1)) as usize;
        debug_assert_ne!(
            slot,
            ((self.wheel_now >> shift) & (SLOTS as u64 - 1)) as usize,
            "placement must never target the cursor slot"
        );
        self.levels[level].slots[slot].push((idx, gen));
        self.levels[level].occupied |= 1u64 << slot;
    }

    /// Lowest occupied (level, slot, slot_start_ns), searching forward
    /// from the cursor. By invariant 3 the lowest occupied level holds
    /// the earliest slot.
    fn next_occupied(&self) -> Option<(usize, usize, u64)> {
        for (level, lv) in self.levels.iter().enumerate() {
            if lv.occupied == 0 {
                continue;
            }
            let shift = GRANULE_BITS + LEVEL_BITS * level as u32;
            let unit = self.wheel_now >> shift;
            let cursor = (unit & (SLOTS as u64 - 1)) as u32;
            let dist = u64::from(lv.occupied.rotate_right(cursor).trailing_zeros());
            let target_unit = unit + dist;
            let slot = (target_unit & (SLOTS as u64 - 1)) as usize;
            debug_assert!(lv.occupied & (1u64 << slot) != 0);
            return Some((level, slot, target_unit << shift));
        }
        None
    }

    /// Pop the earliest timer with `time ≤ limit`, in `(time, seq)`
    /// order. Stale references encountered along the way are discarded
    /// (this is where cancelled timers are garbage-collected).
    pub(crate) fn pop_due(&mut self, limit: Time) -> Option<(Time, u64, E)> {
        let limit_ns = limit.as_ns();
        loop {
            // Drain the current granule first — the smaller of the
            // sorted `due` tail and the `imminent` top; while either is
            // non-empty no wheel slot can hold anything earlier.
            loop {
                let head_due = self.due.last().copied();
                let head_imm = self.imminent.peek().map(|&Reverse(e)| e);
                let (entry, from_due) = match (head_due, head_imm) {
                    (None, None) => break,
                    (Some(d), None) => (d, true),
                    (None, Some(h)) => (h, false),
                    (Some(d), Some(h)) => {
                        if (d.0, d.1) <= (h.0, h.1) {
                            (d, true)
                        } else {
                            (h, false)
                        }
                    }
                };
                let (t, _seq, idx, gen) = entry;
                if t > limit_ns {
                    return None;
                }
                if from_due {
                    self.due.pop();
                } else {
                    self.imminent.pop();
                }
                let cell = &mut self.cells[idx as usize];
                if cell.gen != gen {
                    continue; // cancelled (cell possibly reused since)
                }
                let (time, eseq, ev) = cell.data.take().expect("generation-matched cell is live");
                debug_assert_eq!(time.as_ns(), t);
                cell.gen = cell.gen.wrapping_add(1);
                self.free.push(idx);
                self.live -= 1;
                return Some((time, eseq, ev));
            }
            // Advance to the next occupied slot and cascade it.
            let (level, slot, slot_start) = self.next_occupied()?;
            if slot_start > limit_ns {
                return None;
            }
            // The slot's buffer is lent out while it drains and handed
            // back, capacity kept, so steady-state cascading never
            // allocates. Nothing files into it meanwhile: a live entry
            // moves the cursor onto it first (invariant 2).
            let mut refs = std::mem::take(&mut self.levels[level].slots[slot]);
            self.levels[level].occupied &= !(1u64 << slot);
            let mut advanced = false;
            if level == 0 {
                // A level-0 slot spans exactly one granule, and both
                // granule queues are empty here (drained above): one
                // descending sort arms `due` for O(1) pops. Timers
                // scheduled into this granule *after* the drain go
                // through `imminent`, merged at pop time.
                debug_assert!(self.due.is_empty() && self.imminent.is_empty());
                for &(idx, gen) in &refs {
                    let cell = &self.cells[idx as usize];
                    if cell.gen != gen {
                        continue; // stale reference: drop it
                    }
                    let &(t, seq, _) = cell.data.as_ref().expect("generation-matched cell is live");
                    if !advanced {
                        // Advance only for slots that held a live entry
                        // (invariant 1); all live entries here are ≥
                        // slot_start, so the cursor stays ≤ earliest
                        // timer.
                        self.wheel_now = self.wheel_now.max(slot_start);
                        advanced = true;
                    }
                    self.due.push((t.as_ns(), seq, idx, gen));
                }
                self.due.sort_unstable_by(|a, b| b.cmp(a));
            } else {
                for &(idx, gen) in &refs {
                    if self.cells[idx as usize].gen != gen {
                        continue; // stale reference: drop it
                    }
                    let &(t, seq, _) = self.cells[idx as usize]
                        .data
                        .as_ref()
                        .expect("generation-matched cell is live");
                    if !advanced {
                        self.wheel_now = self.wheel_now.max(slot_start);
                        advanced = true;
                    }
                    self.place(t.as_ns(), seq, idx, gen);
                }
            }
            refs.clear();
            debug_assert!(self.levels[level].slots[slot].is_empty());
            self.levels[level].slots[slot] = refs;
            // Dead-only slot: bit cleared, cursor unmoved; keep looking.
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain<E>(w: &mut TimerWheel<E>) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        while let Some((t, seq, _)) = w.pop_due(Time::MAX) {
            out.push((t.as_ns(), seq));
        }
        out
    }

    #[test]
    fn pops_in_time_then_seq_order() {
        let mut w = TimerWheel::new();
        // Mix of same-granule ties, short and very long horizons.
        let times = [5u64, 5, 1_000_000, 3, 5, 70_000, u64::MAX / 2, 1024, 1023];
        for (seq, &t) in times.iter().enumerate() {
            w.insert(Time::from_ns(t), seq as u64, ());
        }
        let got = drain(&mut w);
        let mut want: Vec<(u64, u64)> = times
            .iter()
            .enumerate()
            .map(|(s, &t)| (t, s as u64))
            .collect();
        want.sort_unstable();
        assert_eq!(got, want);
        assert_eq!(w.len(), 0);
    }

    #[test]
    fn cancel_is_exact_and_reuses_cells() {
        let mut w = TimerWheel::new();
        let a = w.insert(Time::from_ns(100), 0, 'a');
        let b = w.insert(Time::from_ns(200_000), 1, 'b');
        let c = w.insert(Time::from_ns(300), 2, 'c');
        assert!(w.cancel(b));
        assert!(!w.cancel(b), "double cancel is a no-op");
        let allocated = w.allocated();
        // The freed cell is reused; allocation watermark stays flat.
        let d = w.insert(Time::from_ns(400), 3, 'd');
        assert_eq!(w.allocated(), allocated);
        let mut evs = Vec::new();
        while let Some((_, _, ev)) = w.pop_due(Time::MAX) {
            evs.push(ev);
        }
        assert_eq!(evs, vec!['a', 'c', 'd']);
        let _ = (a, c, d);
    }

    #[test]
    fn stale_handle_cannot_cancel_cell_reuser() {
        let mut w = TimerWheel::new();
        let a = w.insert(Time::from_ns(100), 0, 'a');
        assert!(w.cancel(a));
        // 'b' reuses a's cell; a's stale handle must not reach it.
        let _b = w.insert(Time::from_ns(200), 1, 'b');
        assert!(!w.cancel(a));
        assert_eq!(w.len(), 1);
        assert_eq!(w.pop_due(Time::MAX).map(|(_, _, e)| e), Some('b'));
    }

    #[test]
    fn pop_due_respects_limit_across_levels() {
        let mut w = TimerWheel::new();
        w.insert(Time::from_ns(500), 0, ());
        w.insert(Time::from_ns(100_000), 1, ());
        w.insert(Time::from_ns(10_000_000), 2, ());
        assert!(w.pop_due(Time::from_ns(499)).is_none());
        assert!(w.pop_due(Time::from_ns(500)).is_some());
        assert!(w.pop_due(Time::from_ns(99_999)).is_none());
        assert!(w.pop_due(Time::from_ns(100_000)).is_some());
        assert!(w.pop_due(Time::from_ns(9_999_999)).is_none());
        assert!(w.pop_due(Time::MAX).is_some());
        assert!(w.pop_due(Time::MAX).is_none());
    }

    #[test]
    fn far_future_then_near_past_interleave() {
        // Schedule far out, pop nothing, then schedule near: the near
        // timer must still come out first.
        let mut w = TimerWheel::new();
        w.insert(Time::from_secs(10), 0, "far");
        assert!(w.pop_due(Time::from_ns(1)).is_none());
        w.insert(Time::from_ns(2), 1, "near");
        assert_eq!(w.pop_due(Time::MAX).map(|(_, _, e)| e), Some("near"));
        assert_eq!(w.pop_due(Time::MAX).map(|(_, _, e)| e), Some("far"));
    }

    #[test]
    fn dead_only_slots_do_not_advance_cursor() {
        let mut w = TimerWheel::new();
        // A timer far out, cancelled; then a query must not let the
        // cursor jump past a later-scheduled nearer timer.
        let far = w.insert(Time::from_ms(50), 0, ());
        assert!(w.cancel(far));
        assert!(w.pop_due(Time::MAX).is_none()); // GC pass over dead slot
        w.insert(Time::from_ns(100), 1, ());
        w.insert(Time::from_ms(60), 2, ());
        let got = drain(&mut w);
        assert_eq!(got, vec![(100, 1), (60_000_000, 2)]);
    }

    #[test]
    fn max_time_timer_is_representable() {
        let mut w = TimerWheel::new();
        w.insert(Time::MAX, 0, ());
        w.insert(Time::from_ns(1), 1, ());
        assert_eq!(
            w.pop_due(Time::MAX).map(|(t, _, _)| t),
            Some(Time::from_ns(1))
        );
        assert_eq!(w.pop_due(Time::MAX).map(|(t, _, _)| t), Some(Time::MAX));
    }
}

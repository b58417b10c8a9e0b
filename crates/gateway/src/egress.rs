//! Per-lane egress queues: bounded, class-aware, shed-on-pressure.
//!
//! Every client owns one [`EgressQueue`]. The queue
//! preserves the paper's per-class semantics off-bus:
//!
//! * **HRT** (§3.2): released in order at the delivery deadline
//!   already stamped by the live runtime's deferred delivery; never
//!   shed by backpressure — a client that cannot even take its HRT
//!   traffic is disconnected rather than silently degraded.
//! * **SRT** (§2.2.2): events carry a validity end; anything still
//!   queued past it is dropped (*shed as stale*) instead of being
//!   delivered late, exactly as the bus-side queue drops expired
//!   events rather than transmitting them.
//! * **NRT** (§2.2.3): lowest priority, batched when small and
//!   fragment-streamed when large, and the first thing shed when a
//!   slow consumer fills its bounded queue.
//!
//! The queue never blocks and never allocates past its bound, so a
//! slow TCP client cannot exhaust gateway memory — the explicit
//! [`SlowConsumerPolicy`] decides what gives instead.

use rtec_core::ChannelClass;
use rtec_live::sync::Arc;
use std::collections::VecDeque;

/// Byte budget of one NRT `Batch` message (payloads plus per-entry
/// envelopes): keeps every encoded batch comfortably under the wire
/// codec's frame cap regardless of `batch_max` and the fragment
/// threshold.
const MAX_BATCH_BYTES: usize = 32 * 1024;
/// Conservative per-entry envelope inside a `Batch` frame (fixed
/// fields plus the payload length prefix, rounded up).
const BATCH_ENTRY_OVERHEAD: usize = 32;

/// What a lane does when a slow consumer fills its bounded queue.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SlowConsumerPolicy {
    /// Tear the client down: better no subscriber than a stale one.
    Disconnect,
    /// Shed NRT first (oldest first), then SRT; disconnect only when
    /// even the HRT share alone overflows the bound.
    ShedNrtFirst,
    /// Keep only the latest SRT/NRT event per subject (coalescing),
    /// falling back to shed-NRT-first when there is nothing to
    /// coalesce.
    CoalesceToLatest,
}

/// One queued, pre-encoded message awaiting a sink slot.
#[derive(Clone, Debug)]
pub struct EgressEntry {
    /// Timeliness class.
    pub class: ChannelClass,
    /// Subject uid.
    pub uid: u64,
    /// Publishing node id (255 when unknown).
    pub origin: u8,
    /// Per-subject delivery sequence number at the gateway.
    pub seq: u32,
    /// Bus time the frame completed on the wire.
    pub wire_ns: u64,
    /// Bus time the event was released to subscribers (HRT: the slot
    /// deadline).
    pub release_ns: u64,
    /// Validity end in bus time (SRT only).
    pub expiry_ns: Option<u64>,
    /// Always 0. The gateway reads no wall clock; the field stays only
    /// because `benchmark/src/kernels.rs` builds this struct by name and
    /// that directory is frozen — drop it with the next benchmark change.
    pub ingress_wall_ns: u64,
    /// Raw payload bytes (for batch re-encoding), shared across lanes.
    pub payload: Arc<Vec<u8>>,
    /// The encoded [`crate::wire::ToClient`] message, shared across
    /// all subscribed lanes.
    pub encoded: Arc<Vec<u8>>,
    /// Entry is one chunk of a fragment-streamed bulk event (never
    /// batched or coalesced).
    pub frag: bool,
}

/// Per-lane counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LaneStats {
    /// Messages the sink accepted.
    pub delivered_msgs: u64,
    /// HRT events delivered.
    pub delivered_hrt: u64,
    /// SRT events delivered.
    pub delivered_srt: u64,
    /// NRT events (or fragments) delivered.
    pub delivered_nrt: u64,
    /// NRT entries shed under pressure.
    pub shed_nrt: u64,
    /// SRT entries dropped because their validity window closed.
    pub shed_srt_stale: u64,
    /// SRT entries shed under pressure (validity still open).
    pub shed_srt_cap: u64,
    /// Entries replaced in place by a newer same-subject event.
    pub coalesced: u64,
    /// NRT batch messages sent.
    pub batches: u64,
    /// Fragment messages sent.
    pub fragments: u64,
    /// High-water mark of queued entries.
    pub peak: usize,
    /// Shed counts already covered by a `Shed` notice, as
    /// `(shed_nrt, shed_srt_cap, shed_srt_stale)` — lets the notice
    /// path report deltas even across a detach/resume cycle.
    pub shed_notified: [u64; 3],
}

/// Outcome of [`EgressQueue::push`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PushOutcome {
    /// Entry queued (possibly after shedding something older).
    Queued,
    /// Entry (or an older same-subject entry) was dropped; counters
    /// say which class.
    Shed,
    /// The policy demands the client be torn down.
    Disconnect,
}

/// A bounded, class-aware queue for one client's lane.
#[derive(Debug)]
#[cfg_attr(test, derive(Clone))]
pub struct EgressQueue {
    cap: usize,
    hrt: VecDeque<EgressEntry>,
    srt: VecDeque<EgressEntry>,
    nrt: VecDeque<EgressEntry>,
    /// A lower bound on the expiry of every queued SRT entry
    /// (`u64::MAX` when none has one): lowered by every SRT enqueue,
    /// reset to the exact minimum by every sweep.
    srt_floor: u64,
    /// Counters, maintained by `push`/`flush`.
    pub stats: LaneStats,
}

/// What `flush` hands the sink in one offer.
pub enum FlushItem<'a> {
    /// One pre-encoded message (HRT, SRT, NRT fragment, or a lone NRT
    /// event).
    Single(&'a EgressEntry),
    /// Several small NRT entries to coalesce into one batch message
    /// (the closure encodes them).
    Batch(&'a [EgressEntry]),
}

/// Sink verdict on one flush offer (mirrors
/// [`crate::client::SinkStatus`] without depending on it).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FlushVerdict {
    /// Taken; pop the entries and keep flushing.
    Taken,
    /// Sink is busy; stop flushing this lane, entries stay queued.
    Blocked,
    /// Sink is gone; the caller tears the lane down.
    Lost,
}

impl EgressQueue {
    /// An empty queue bounded at `cap` entries (across all classes).
    pub fn new(cap: usize) -> Self {
        EgressQueue {
            cap: cap.max(1),
            hrt: VecDeque::new(),
            srt: VecDeque::new(),
            nrt: VecDeque::new(),
            srt_floor: u64::MAX,
            stats: LaneStats::default(),
        }
    }

    /// Entries currently queued, all classes.
    pub fn len(&self) -> usize {
        self.hrt.len() + self.srt.len() + self.nrt.len()
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drop queued SRT entries whose validity window closed at or
    /// before `watermark` (bus ns). Returns how many were dropped.
    ///
    /// The queue keeps a floor at or below every queued SRT expiry
    /// (every SRT enqueue lowers it; nothing assumes expiries arrive in
    /// order, since subjects have their own validity windows). While
    /// the floor is above `watermark` no entry can be stale, so the
    /// sweep is skipped outright; a sweep resets the floor to the
    /// exact minimum of what it keeps.
    pub fn purge_stale_srt(&mut self, watermark: u64) -> u64 {
        if self.srt_floor > watermark {
            return 0;
        }
        let before = self.srt.len();
        let mut floor = u64::MAX;
        self.srt.retain(|e| match e.expiry_ns {
            Some(x) if x <= watermark => false,
            Some(x) => {
                floor = floor.min(x);
                true
            }
            None => true,
        });
        self.srt_floor = floor;
        let dropped = (before - self.srt.len()) as u64;
        self.stats.shed_srt_stale += dropped;
        dropped
    }

    /// Queue `entry`, applying `policy` under pressure.
    pub fn push(
        &mut self,
        entry: EgressEntry,
        policy: SlowConsumerPolicy,
        watermark: u64,
    ) -> PushOutcome {
        // An SRT event already past its validity end is never queued —
        // delivering it late would violate §2.2.2 off-bus.
        if entry.class == ChannelClass::Srt && entry.expiry_ns.is_some_and(|x| x <= watermark) {
            self.stats.shed_srt_stale += 1;
            return PushOutcome::Shed;
        }
        let mut shed_something = false;
        while self.len() >= self.cap {
            match policy {
                SlowConsumerPolicy::Disconnect => return PushOutcome::Disconnect,
                SlowConsumerPolicy::ShedNrtFirst => {
                    if !self.shed_one_for(&entry) {
                        return PushOutcome::Disconnect;
                    }
                    shed_something = true;
                }
                SlowConsumerPolicy::CoalesceToLatest => {
                    if self.coalesce(&entry) {
                        self.stats.coalesced += 1;
                        return PushOutcome::Queued;
                    }
                    if !self.shed_one_for(&entry) {
                        return PushOutcome::Disconnect;
                    }
                    shed_something = true;
                }
            }
        }
        self.enqueue(entry);
        self.stats.peak = self.stats.peak.max(self.len());
        if shed_something {
            PushOutcome::Shed
        } else {
            PushOutcome::Queued
        }
    }

    /// Whether `entry` may skip the queue: nothing is queued ahead of
    /// it, it is releasable at `watermark` (HRT past its release stamp,
    /// SRT not stale) and it is not a fragment — exactly when `push`
    /// followed by `flush` would queue it and offer it alone at once.
    pub fn is_direct(&self, entry: &EgressEntry, watermark: u64) -> bool {
        self.is_empty()
            && !entry.frag
            && match entry.class {
                ChannelClass::Hrt => entry.release_ns <= watermark,
                ChannelClass::Srt => entry.expiry_ns.is_none_or(|x| x > watermark),
                ChannelClass::Nrt => true,
            }
    }

    /// Offer an entry [`EgressQueue::is_direct`] admits straight to the
    /// sink, counting exactly what `push` + `flush` would. Only an entry
    /// the sink refuses is cloned into the queue, to wait for the next
    /// flush. Returns `false` when the sink is gone.
    pub fn offer_direct<F>(&mut self, entry: &EgressEntry, offer: F) -> bool
    where
        F: FnOnce(FlushItem<'_>) -> FlushVerdict,
    {
        self.stats.peak = self.stats.peak.max(1);
        let verdict = offer(FlushItem::Single(entry));
        if verdict == FlushVerdict::Taken {
            self.stats.delivered_msgs += 1;
            *match entry.class {
                ChannelClass::Hrt => &mut self.stats.delivered_hrt,
                ChannelClass::Srt => &mut self.stats.delivered_srt,
                ChannelClass::Nrt => &mut self.stats.delivered_nrt,
            } += 1;
            return true;
        }
        self.enqueue(entry.clone());
        verdict == FlushVerdict::Blocked
    }

    fn class_queue(&mut self, class: ChannelClass) -> &mut VecDeque<EgressEntry> {
        match class {
            ChannelClass::Hrt => &mut self.hrt,
            ChannelClass::Srt => &mut self.srt,
            ChannelClass::Nrt => &mut self.nrt,
        }
    }

    /// Append `entry` to its class queue, keeping the SRT floor.
    fn enqueue(&mut self, entry: EgressEntry) {
        self.lower_srt_floor(&entry);
        self.class_queue(entry.class).push_back(entry);
    }

    /// Keep the floor at or below `entry`'s expiry if it is queued SRT.
    fn lower_srt_floor(&mut self, entry: &EgressEntry) {
        if let (ChannelClass::Srt, Some(x)) = (entry.class, entry.expiry_ns) {
            self.srt_floor = self.srt_floor.min(x);
        }
    }

    /// Make room by shedding the least valuable queued entry: oldest
    /// NRT, else oldest SRT. Returns `false` when only HRT remains —
    /// HRT is never shed, so a queue full of undeliverable HRT *is*
    /// the disconnect condition.
    fn shed_one_for(&mut self, _incoming: &EgressEntry) -> bool {
        if self.nrt.pop_front().is_some() {
            self.stats.shed_nrt += 1;
            true
        } else if self.srt.pop_front().is_some() {
            self.stats.shed_srt_cap += 1;
            true
        } else {
            false
        }
    }

    /// Replace the oldest queued same-subject, same-class SRT/NRT
    /// entry with `entry`'s content (keeping queue position). HRT and
    /// fragments never coalesce.
    fn coalesce(&mut self, entry: &EgressEntry) -> bool {
        if entry.frag || entry.class == ChannelClass::Hrt {
            return false;
        }
        let q = self.class_queue(entry.class);
        let Some(old) = q.iter_mut().find(|e| e.uid == entry.uid && !e.frag) else {
            return false;
        };
        *old = entry.clone();
        self.lower_srt_floor(entry);
        true
    }

    /// Drain ready entries into the sink closure, HRT before SRT
    /// before NRT, until the sink blocks, dies, or the queue empties.
    ///
    /// `watermark` is the worker's bus-time high-water mark: HRT
    /// entries release only once it passes their deadline stamp, and
    /// stale SRT entries are purged before anything is offered. Small
    /// consecutive NRT entries (up to `batch_max`, within
    /// [`MAX_BATCH_BYTES`]) are offered as one [`FlushItem::Batch`].
    /// Returns `false` when the sink is gone.
    pub fn flush<F>(&mut self, watermark: u64, batch_max: usize, mut offer: F) -> bool
    where
        F: FnMut(FlushItem<'_>) -> FlushVerdict,
    {
        self.purge_stale_srt(watermark);
        loop {
            // HRT: strictly in order, gated on the release stamp.
            if let Some(front) = self.hrt.front() {
                if front.release_ns <= watermark {
                    match offer(FlushItem::Single(front)) {
                        FlushVerdict::Taken => {
                            self.hrt.pop_front();
                            self.stats.delivered_msgs += 1;
                            self.stats.delivered_hrt += 1;
                            continue;
                        }
                        FlushVerdict::Blocked => return true,
                        FlushVerdict::Lost => return false,
                    }
                }
            }
            if let Some(front) = self.srt.front() {
                match offer(FlushItem::Single(front)) {
                    FlushVerdict::Taken => {
                        self.srt.pop_front();
                        self.stats.delivered_msgs += 1;
                        self.stats.delivered_srt += 1;
                        continue;
                    }
                    FlushVerdict::Blocked => return true,
                    FlushVerdict::Lost => return false,
                }
            }
            if !self.nrt.is_empty() {
                // A fragment goes alone; small events batch up, but
                // never past the byte budget — an unbounded batch
                // could encode to a frame the wire cap rejects.
                let mut budget = MAX_BATCH_BYTES;
                let run = self
                    .nrt
                    .make_contiguous()
                    .iter()
                    .take_while(|e| {
                        let cost = e.payload.len() + BATCH_ENTRY_OVERHEAD;
                        !e.frag && cost <= budget && {
                            budget -= cost;
                            true
                        }
                    })
                    .count()
                    .min(batch_max);
                let (item, n) = if run <= 1 {
                    (FlushItem::Single(&self.nrt[0]), 1)
                } else {
                    (FlushItem::Batch(&self.nrt.as_slices().0[..run]), run)
                };
                let frags = u64::from(self.nrt[0].frag);
                match offer(item) {
                    FlushVerdict::Taken => {
                        self.nrt.drain(..n);
                        self.stats.delivered_msgs += 1;
                        self.stats.delivered_nrt += n as u64;
                        self.stats.fragments += frags;
                        if n > 1 {
                            self.stats.batches += 1;
                        }
                        continue;
                    }
                    FlushVerdict::Blocked => return true,
                    FlushVerdict::Lost => return false,
                }
            }
            return true;
        }
    }

    /// Entries still queued (used at shutdown for the undelivered
    /// count).
    pub fn drain_remaining(&mut self) -> usize {
        let n = self.len();
        self.hrt.clear();
        self.srt.clear();
        self.nrt.clear();
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(
        class: ChannelClass,
        uid: u64,
        release_ns: u64,
        expiry_ns: Option<u64>,
    ) -> EgressEntry {
        EgressEntry {
            class,
            uid,
            origin: 0,
            seq: 0,
            wire_ns: 0,
            release_ns,
            expiry_ns,
            ingress_wall_ns: 0,
            payload: Arc::new(vec![uid as u8]),
            encoded: Arc::new(vec![class as u8, uid as u8]),
            frag: false,
        }
    }

    fn drain_all(q: &mut EgressQueue, watermark: u64) -> Vec<(ChannelClass, u64)> {
        let mut seen = Vec::new();
        q.flush(watermark, 8, |item| {
            match item {
                FlushItem::Single(e) => seen.push((e.class, e.uid)),
                FlushItem::Batch(es) => seen.extend(es.iter().map(|e| (e.class, e.uid))),
            }
            FlushVerdict::Taken
        });
        seen
    }

    #[test]
    fn flush_orders_hrt_srt_nrt() {
        let mut q = EgressQueue::new(16);
        q.push(
            entry(ChannelClass::Nrt, 3, 0, None),
            SlowConsumerPolicy::ShedNrtFirst,
            0,
        );
        q.push(
            entry(ChannelClass::Srt, 2, 0, Some(100)),
            SlowConsumerPolicy::ShedNrtFirst,
            0,
        );
        q.push(
            entry(ChannelClass::Hrt, 1, 5, None),
            SlowConsumerPolicy::ShedNrtFirst,
            0,
        );
        assert_eq!(
            drain_all(&mut q, 10),
            vec![
                (ChannelClass::Hrt, 1),
                (ChannelClass::Srt, 2),
                (ChannelClass::Nrt, 3)
            ]
        );
    }

    #[test]
    fn hrt_waits_for_its_release_stamp() {
        let mut q = EgressQueue::new(16);
        q.push(
            entry(ChannelClass::Hrt, 1, 50, None),
            SlowConsumerPolicy::ShedNrtFirst,
            0,
        );
        q.push(
            entry(ChannelClass::Srt, 2, 0, None),
            SlowConsumerPolicy::ShedNrtFirst,
            0,
        );
        // Before the deadline the SRT event goes out, the HRT one holds.
        assert_eq!(drain_all(&mut q, 10), vec![(ChannelClass::Srt, 2)]);
        assert_eq!(drain_all(&mut q, 50), vec![(ChannelClass::Hrt, 1)]);
    }

    #[test]
    fn stale_srt_is_dropped_not_delivered() {
        let mut q = EgressQueue::new(16);
        q.push(
            entry(ChannelClass::Srt, 1, 0, Some(20)),
            SlowConsumerPolicy::ShedNrtFirst,
            0,
        );
        // Watermark passes the validity end before the sink drains.
        assert_eq!(drain_all(&mut q, 30), vec![]);
        assert_eq!(q.stats.shed_srt_stale, 1);
        // Pushing an already-stale event drops it immediately.
        let out = q.push(
            entry(ChannelClass::Srt, 2, 0, Some(20)),
            SlowConsumerPolicy::ShedNrtFirst,
            30,
        );
        assert_eq!(out, PushOutcome::Shed);
        assert_eq!(q.stats.shed_srt_stale, 2);
    }

    #[test]
    fn shed_nrt_first_prefers_nrt_then_srt_never_hrt() {
        let mut q = EgressQueue::new(2);
        q.push(
            entry(ChannelClass::Nrt, 1, 0, None),
            SlowConsumerPolicy::ShedNrtFirst,
            0,
        );
        q.push(
            entry(ChannelClass::Srt, 2, 0, None),
            SlowConsumerPolicy::ShedNrtFirst,
            0,
        );
        // Full: pushing HRT sheds the NRT entry first.
        assert_eq!(
            q.push(
                entry(ChannelClass::Hrt, 3, 0, None),
                SlowConsumerPolicy::ShedNrtFirst,
                0
            ),
            PushOutcome::Shed
        );
        assert_eq!(q.stats.shed_nrt, 1);
        // Full again: next push sheds the SRT entry.
        assert_eq!(
            q.push(
                entry(ChannelClass::Hrt, 4, 0, None),
                SlowConsumerPolicy::ShedNrtFirst,
                0
            ),
            PushOutcome::Shed
        );
        assert_eq!(q.stats.shed_srt_cap, 1);
        // Only HRT left: the lane must disconnect instead of shedding.
        assert_eq!(
            q.push(
                entry(ChannelClass::Hrt, 5, 0, None),
                SlowConsumerPolicy::ShedNrtFirst,
                0
            ),
            PushOutcome::Disconnect
        );
    }

    #[test]
    fn disconnect_policy_disconnects_on_pressure() {
        let mut q = EgressQueue::new(1);
        q.push(
            entry(ChannelClass::Nrt, 1, 0, None),
            SlowConsumerPolicy::Disconnect,
            0,
        );
        assert_eq!(
            q.push(
                entry(ChannelClass::Nrt, 2, 0, None),
                SlowConsumerPolicy::Disconnect,
                0
            ),
            PushOutcome::Disconnect
        );
    }

    #[test]
    fn coalesce_replaces_same_subject_in_place() {
        let mut q = EgressQueue::new(2);
        q.push(
            entry(ChannelClass::Nrt, 7, 0, None),
            SlowConsumerPolicy::CoalesceToLatest,
            0,
        );
        q.push(
            entry(ChannelClass::Srt, 8, 0, None),
            SlowConsumerPolicy::CoalesceToLatest,
            0,
        );
        // Full; a newer event for subject 7 replaces the queued one.
        let mut newer = entry(ChannelClass::Nrt, 7, 0, None);
        newer.encoded = Arc::new(vec![0xff]);
        assert_eq!(
            q.push(newer, SlowConsumerPolicy::CoalesceToLatest, 0),
            PushOutcome::Queued
        );
        assert_eq!(q.stats.coalesced, 1);
        assert_eq!(q.len(), 2);
        let seen = drain_all(&mut q, 10);
        assert_eq!(seen, vec![(ChannelClass::Srt, 8), (ChannelClass::Nrt, 7)]);
        // No same-subject entry to merge into → falls back to shedding.
        q.push(
            entry(ChannelClass::Nrt, 1, 0, None),
            SlowConsumerPolicy::CoalesceToLatest,
            0,
        );
        q.push(
            entry(ChannelClass::Srt, 2, 0, None),
            SlowConsumerPolicy::CoalesceToLatest,
            0,
        );
        assert_eq!(
            q.push(
                entry(ChannelClass::Nrt, 3, 0, None),
                SlowConsumerPolicy::CoalesceToLatest,
                0
            ),
            PushOutcome::Shed
        );
        assert_eq!(q.stats.shed_nrt, 1);
    }

    #[test]
    fn small_nrt_entries_batch_fragments_go_alone() {
        let mut q = EgressQueue::new(16);
        for uid in 1..=3 {
            q.push(
                entry(ChannelClass::Nrt, uid, 0, None),
                SlowConsumerPolicy::ShedNrtFirst,
                0,
            );
        }
        let mut frag = entry(ChannelClass::Nrt, 9, 0, None);
        frag.frag = true;
        q.push(frag, SlowConsumerPolicy::ShedNrtFirst, 0);
        let mut offers = Vec::new();
        q.flush(10, 8, |item| {
            offers.push(match item {
                FlushItem::Single(e) => vec![e.uid],
                FlushItem::Batch(es) => es.iter().map(|e| e.uid).collect(),
            });
            FlushVerdict::Taken
        });
        assert_eq!(offers, vec![vec![1, 2, 3], vec![9]]);
        assert_eq!(q.stats.batches, 1);
        assert_eq!(q.stats.fragments, 1);
    }

    /// Entries whose payloads would blow the batch byte budget go out
    /// as singles — a batch must never encode to a frame the wire cap
    /// rejects.
    #[test]
    fn batch_respects_byte_budget() {
        let mut q = EgressQueue::new(16);
        for uid in 1..=2 {
            let mut e = entry(ChannelClass::Nrt, uid, 0, None);
            e.payload = Arc::new(vec![0u8; MAX_BATCH_BYTES]);
            q.push(e, SlowConsumerPolicy::ShedNrtFirst, 0);
        }
        let mut offers = Vec::new();
        q.flush(10, 8, |item| {
            offers.push(match item {
                FlushItem::Single(e) => vec![e.uid],
                FlushItem::Batch(es) => es.iter().map(|e| e.uid).collect(),
            });
            FlushVerdict::Taken
        });
        assert_eq!(offers, vec![vec![1], vec![2]]);
        assert_eq!(q.stats.batches, 0);
        assert_eq!(q.stats.fragments, 0);
    }

    #[test]
    fn blocked_sink_keeps_entries_queued() {
        let mut q = EgressQueue::new(16);
        q.push(
            entry(ChannelClass::Srt, 1, 0, None),
            SlowConsumerPolicy::ShedNrtFirst,
            0,
        );
        q.flush(10, 8, |_| FlushVerdict::Blocked);
        assert_eq!(q.len(), 1);
        assert_eq!(q.stats.delivered_msgs, 0);
    }

    /// A sink replaying a verdict script (cyclically) and recording the
    /// bytes of every offer, accepted or not.
    struct Script<'a> {
        verdicts: &'a [u8],
        next: usize,
        offered: Vec<Vec<u8>>,
    }

    impl Script<'_> {
        fn offer(&mut self, item: FlushItem<'_>) -> FlushVerdict {
            self.offered.push(match item {
                FlushItem::Single(e) => e.encoded.to_vec(),
                FlushItem::Batch(es) => es.iter().flat_map(|e| e.encoded.to_vec()).collect(),
            });
            let v = self.verdicts[self.next % self.verdicts.len()];
            self.next += 1;
            match v % 8 {
                0 => FlushVerdict::Blocked,
                1 => FlushVerdict::Lost,
                _ => FlushVerdict::Taken,
            }
        }
    }

    fn contents(q: &EgressQueue) -> Vec<(ChannelClass, u64, Vec<u8>)> {
        [&q.hrt, &q.srt, &q.nrt]
            .into_iter()
            .flatten()
            .map(|e| (e.class, e.uid, e.encoded.to_vec()))
            .collect()
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(512))]

        /// The direct offer is an exact shortcut: "offer directly when
        /// `is_direct`, else `push` + `flush`" leaves the same counters
        /// and the same queue, and offers the sink the same bytes, as
        /// "`push` + `flush`" always — across all three classes,
        /// fragments, stale SRT, held HRT, every policy, caps 1..8 and
        /// sinks that block or vanish.
        #[test]
        fn direct_offer_equals_push_then_flush(
            policy in 0u8..3,
            cap in 1usize..=8,
            batch_max in 1usize..=4,
            steps in proptest::collection::vec(
                (0u8..3, 0u64..3, proptest::prelude::any::<bool>(), 0u64..40, 0u64..30),
                1..48,
            ),
            verdicts in proptest::collection::vec(proptest::prelude::any::<u8>(), 1..32),
        ) {
            let policy = [
                SlowConsumerPolicy::Disconnect,
                SlowConsumerPolicy::ShedNrtFirst,
                SlowConsumerPolicy::CoalesceToLatest,
            ][policy as usize];
            let (mut direct, mut queued) = (EgressQueue::new(cap), EgressQueue::new(cap));
            let script = || Script { verdicts: &verdicts, next: 0, offered: Vec::new() };
            let (mut sink_d, mut sink_q) = (script(), script());
            let mut watermark = 0u64;
            for (i, &(class, uid, flag, dt, window)) in steps.iter().enumerate() {
                watermark += dt;
                let class = [ChannelClass::Hrt, ChannelClass::Srt, ChannelClass::Nrt][class as usize];
                // HRT: `flag` holds it past the watermark. SRT: a zero
                // window is stale on arrival. NRT: `flag` fragments it.
                let mut e = entry(
                    class,
                    uid,
                    watermark + u64::from(flag && class == ChannelClass::Hrt) * 10,
                    (class == ChannelClass::Srt).then_some(watermark + window % 8),
                );
                let entries: Vec<EgressEntry> = if flag && class == ChannelClass::Nrt {
                    e.frag = true;
                    (0..2u8)
                        .map(|k| EgressEntry { encoded: Arc::new(vec![i as u8, k, 0xF]), ..e.clone() })
                        .collect()
                } else {
                    e.encoded = Arc::new(vec![i as u8, class as u8]);
                    vec![e]
                };
                let push_all = |q: &mut EgressQueue| {
                    entries
                        .iter()
                        .all(|e| q.push(e.clone(), policy, watermark) != PushOutcome::Disconnect)
                };
                match entries.as_slice() {
                    [e] if direct.is_direct(e, watermark) => {
                        direct.offer_direct(e, |item| sink_d.offer(item));
                    }
                    _ => {
                        if push_all(&mut direct) {
                            direct.flush(watermark, batch_max, |item| sink_d.offer(item));
                        }
                    }
                }
                if push_all(&mut queued) {
                    queued.flush(watermark, batch_max, |item| sink_q.offer(item));
                }
                proptest::prop_assert_eq!(direct.stats, queued.stats);
                proptest::prop_assert_eq!(contents(&direct), contents(&queued));
                proptest::prop_assert_eq!(&sink_d.offered, &sink_q.offered);
            }
        }

        /// The floor-gated sweep is exact: after every step, on a copy
        /// of the queue, `purge_stale_srt(at)` drops exactly the queued
        /// SRT entries a brute-force scan finds expired at `at`, and
        /// leaves none — probed at a random point ahead and at the
        /// earliest queued expiry, where a floor left too high shows
        /// first. Two subjects with different validity windows, plus
        /// per-event jitter, keep expiries out of push order (within a
        /// subject too, so a coalesce replacement can lower the floor);
        /// the steps run every policy at caps 1..4, direct offers the
        /// sink refuses (requeues) and flushes of a mostly busy sink.
        #[test]
        fn stale_sweep_matches_brute_force(
            policy in 0u8..3,
            cap in 1usize..=4,
            steps in proptest::collection::vec(
                (0u8..3, 0u64..2, 0u64..4, 0u64..16, 0u64..24, 0u8..8),
                1..48,
            ),
        ) {
            let policy = [
                SlowConsumerPolicy::Disconnect,
                SlowConsumerPolicy::ShedNrtFirst,
                SlowConsumerPolicy::CoalesceToLatest,
            ][policy as usize];
            let mut q = EgressQueue::new(cap);
            let mut watermark = 0u64;
            for &(class, uid, dt, jitter, probe, verdict) in &steps {
                watermark += dt;
                let class = [ChannelClass::Hrt, ChannelClass::Srt, ChannelClass::Nrt][class as usize];
                let window = [3, 24][uid as usize] + jitter;
                let e = entry(
                    class,
                    uid,
                    watermark,
                    (class == ChannelClass::Srt).then_some(watermark + window),
                );
                // One offer in eight is taken, so queues fill and shed.
                let offer = |_: FlushItem<'_>| {
                    if verdict == 0 { FlushVerdict::Taken } else { FlushVerdict::Blocked }
                };
                if q.is_direct(&e, watermark) {
                    q.offer_direct(&e, offer);
                } else if q.push(e, policy, watermark) != PushOutcome::Disconnect {
                    q.flush(watermark, 4, offer);
                }
                let earliest = q.srt.iter().filter_map(|e| e.expiry_ns).min();
                for at in [Some(watermark + probe), earliest].into_iter().flatten() {
                    let mut p = q.clone();
                    let expired = |e: &EgressEntry| e.expiry_ns.is_some_and(|x| x <= at);
                    let stale = p.srt.iter().filter(|e| expired(e)).count() as u64;
                    proptest::prop_assert_eq!(p.purge_stale_srt(at), stale);
                    proptest::prop_assert_eq!(p.stats.shed_srt_stale - q.stats.shed_srt_stale, stale);
                    proptest::prop_assert!(!p.srt.iter().any(expired));
                }
            }
        }
    }
}

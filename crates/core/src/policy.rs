//! The soft real-time send queue.
//!
//! The SRTEC send queue is EDF-ordered by each channel's
//! [`SrtPriority`](crate::channel::SrtPriority): the head is the entry
//! with the most urgent priority now, then the earliest transmission
//! deadline, then the oldest entry (the lowest sequence number, counted
//! from the oldest queued one).
//! [`crate::machine::NodeMachine`] keeps one such queue per node and
//! submits only its head (§3.4).
//!
//! Entries live in one deadline-ordered queue per channel. A channel's
//! priority never ranks a later deadline ahead of an earlier one, so a
//! channel's front is its most urgent entry and the head is read off
//! the fronts: O(channels), whatever backlog overload piles up.

use std::collections::VecDeque;
use std::num::NonZeroU32;

use rtec_sim::Time;

/// What an [`EdfQueue`] orders its entries by.
pub trait EdfOrder {
    /// Absolute transmission deadline (global time).
    fn deadline(&self) -> Time;
    /// Node-local sequence number: each entry pushed is newer than
    /// every entry queued, counting modulo 2^32.
    fn seq(&self) -> u32;
    /// The channel the entry belongs to.
    fn channel(&self) -> u16;
}

/// An earliest-deadline-first send queue, one deadline-ordered queue per
/// channel. It tracks its own high-water mark for observability.
///
/// Entries are found by sequence number through a ring: slot `i` of
/// `index` describes the entry numbered `base + i`. A node numbers its
/// messages in publication order, so a new entry lands at the back and
/// the oldest queued one sits at the front; slots emptied at either end
/// are trimmed. The ring therefore spans the sequence numbers of the
/// queued entries — oldest to newest, taken ones in between included —
/// and ages compare as `seq − base`, which stays right when the node's
/// counter wraps past `u32::MAX`.
#[derive(Debug, Clone)]
pub struct EdfQueue<M> {
    /// Each channel's entries in deadline order, FIFO among equals.
    channels: Vec<(u16, VecDeque<M>)>,
    /// Per sequence number from `base` on: where the entry is, `None`
    /// once taken.
    index: VecDeque<Option<Slot>>,
    /// The sequence number of `index[0]`.
    base: u32,
    len: usize,
    peak: usize,
}

/// Where a queued entry is: its channel's index (stored plus one, so
/// that `Option<Slot>` is 16 bytes, not 24) and its deadline.
#[derive(Clone, Copy, Debug)]
struct Slot {
    channel: NonZeroU32,
    deadline: Time,
}

const _: () = assert!(std::mem::size_of::<Option<Slot>>() == 16);

impl Slot {
    fn new(channel: usize, deadline: Time) -> Self {
        let channel = u32::try_from(channel + 1).expect("fewer than 2^32 channels");
        Slot {
            channel: NonZeroU32::new(channel).expect("one more than an index"),
            deadline,
        }
    }

    fn get(self) -> (usize, Time) {
        (self.channel.get() as usize - 1, self.deadline)
    }
}

impl<M> Default for EdfQueue<M> {
    fn default() -> Self {
        EdfQueue {
            channels: Vec::new(),
            index: VecDeque::new(),
            base: 0,
            len: 0,
            peak: 0,
        }
    }
}

impl<M: EdfOrder> EdfQueue<M> {
    /// An empty queue.
    pub fn new() -> Self {
        EdfQueue::default()
    }

    /// Enqueue an entry behind its channel's entries of equal or earlier
    /// deadline.
    ///
    /// # Panics
    /// If its sequence number is not newer than every queued entry's
    /// (see [`EdfOrder::seq`]).
    pub fn push(&mut self, m: M) {
        let ch = match self.channels.iter().position(|(c, _)| *c == m.channel()) {
            Some(ch) => ch,
            None => {
                self.channels.push((m.channel(), VecDeque::new()));
                self.channels.len() - 1
            }
        };
        if self.index.is_empty() {
            self.base = m.seq();
        }
        // A number older than `base` wraps to an age past half the
        // counter: refuse it rather than grow the ring towards 2^32.
        let age = self.age(m.seq());
        let slot = age as usize;
        assert!(
            slot >= self.index.len() && age < 1 << 31,
            "sequence numbers must grow"
        );
        self.index.resize(slot, None);
        self.index.push_back(Some(Slot::new(ch, m.deadline())));
        let queue = &mut self.channels[ch].1;
        let at = queue.partition_point(|e| e.deadline() <= m.deadline());
        queue.insert(at, m);
        self.len += 1;
        self.peak = self.peak.max(self.len);
    }

    /// How many sequence numbers `seq` is past the oldest slot.
    fn age(&self, seq: u32) -> u32 {
        seq.wrapping_sub(self.base)
    }

    /// The entry EDF serves first: the minimum of `(rank, deadline,
    /// age)` over the channel fronts, where `rank` is the entry's
    /// priority now.
    pub fn head(&self, rank: impl Fn(&M) -> u8) -> Option<&M> {
        self.fronts()
            .min_by_key(|m| (rank(m), m.deadline(), self.age(m.seq())))
    }

    /// Each channel's earliest-deadline entry.
    pub fn fronts(&self) -> impl Iterator<Item = &M> {
        self.channels.iter().filter_map(|(_, q)| q.front())
    }

    /// Channel index and deadline of sequence number `seq`, if it is
    /// queued.
    fn slot(&self, seq: u32) -> Option<(usize, Time)> {
        self.index.get(self.age(seq) as usize)?.map(Slot::get)
    }

    /// `(channel index, position)` of the entry with sequence number
    /// `seq`.
    fn locate(&self, seq: u32) -> Option<(usize, usize)> {
        let (ch, deadline) = self.slot(seq)?;
        Some((ch, self.position(ch, deadline, seq)?))
    }

    /// Where in channel `ch` the entry `seq` with `deadline` sits: a
    /// binary search for its deadline, then FIFO among equals.
    fn position(&self, ch: usize, deadline: Time, seq: u32) -> Option<usize> {
        let queue = &self.channels[ch].1;
        let from = queue.partition_point(|e| e.deadline() < deadline);
        (from..queue.len()).find(|&i| queue[i].seq() == seq)
    }

    /// The entry with sequence number `seq`.
    pub fn get(&self, seq: u32) -> Option<&M> {
        let (ch, at) = self.locate(seq)?;
        Some(&self.channels[ch].1[at])
    }

    /// The entry with sequence number `seq`, mutably. Its deadline and
    /// sequence number must not change.
    pub fn get_mut(&mut self, seq: u32) -> Option<&mut M> {
        let (ch, at) = self.locate(seq)?;
        Some(&mut self.channels[ch].1[at])
    }

    /// Remove and return the entry with sequence number `seq`.
    pub fn take(&mut self, seq: u32) -> Option<M> {
        let (ch, at) = self.locate(seq)?;
        let slot = self.age(seq) as usize;
        self.index[slot] = None;
        while let Some(None) = self.index.front() {
            self.index.pop_front();
            self.base = self.base.wrapping_add(1);
        }
        while let Some(None) = self.index.back() {
            self.index.pop_back();
        }
        self.len -= 1;
        self.channels[ch].1.remove(at)
    }

    /// Number of queued entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// High-water mark of the queue length since creation.
    pub fn peak(&self) -> usize {
        self.peak
    }

    /// Iterate entries oldest first (in sequence-number order).
    pub fn iter(&self) -> impl Iterator<Item = &M> {
        (self.index.iter().enumerate()).filter_map(|(i, slot)| {
            let (ch, deadline) = slot.map(Slot::get)?;
            let seq = self.base.wrapping_add(i as u32);
            Some(&self.channels[ch].1[self.position(ch, deadline, seq)?])
        })
    }

    /// The entry an overflow policy drops: the *latest* deadline, newest
    /// among equals (the entry EDF would serve last).
    pub fn overflow_victim(&self) -> Option<&M> {
        let backs = self.channels.iter().filter_map(|(_, q)| q.back());
        backs.max_by_key(|m| (m.deadline(), self.age(m.seq())))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, PartialEq)]
    struct E {
        seq: u32,
        channel: u16,
        deadline: Time,
    }
    impl EdfOrder for E {
        fn deadline(&self) -> Time {
            self.deadline
        }
        fn seq(&self) -> u32 {
            self.seq
        }
        fn channel(&self) -> u16 {
            self.channel
        }
    }
    fn e(seq: u32, channel: u16, us: u64) -> E {
        E {
            seq,
            channel,
            deadline: Time::from_us(us),
        }
    }
    fn by_deadline(_: &E) -> u8 {
        0
    }

    #[test]
    fn head_is_earliest_deadline_fifo_on_ties() {
        let mut q = EdfQueue::new();
        q.push(e(0, 1, 300));
        q.push(e(1, 2, 100));
        q.push(e(2, 1, 100));
        assert_eq!(q.head(by_deadline).unwrap().seq, 1);
        assert_eq!(q.take(1).unwrap().seq, 1);
        assert_eq!(q.head(by_deadline).unwrap().seq, 2);
        assert_eq!(q.get(0).unwrap().seq, 0);
        assert!(q.get(9).is_none());
        assert!(q.take(9).is_none());
    }

    #[test]
    fn rank_comes_before_the_deadline() {
        let mut q = EdfQueue::new();
        q.push(e(0, 1, 100));
        q.push(e(1, 2, 900));
        let head = q.head(|m| if m.channel == 2 { 1 } else { 5 });
        assert_eq!(head.unwrap().seq, 1);
    }

    #[test]
    fn a_channel_keeps_deadline_order_whatever_the_arrival_order() {
        let mut q = EdfQueue::new();
        q.push(e(0, 1, 500));
        q.push(e(1, 1, 200));
        q.push(e(2, 1, 500));
        let fronts: Vec<u32> = q.fronts().map(|m| m.seq).collect();
        assert_eq!(fronts, vec![1]);
        assert_eq!(q.take(1).unwrap().seq, 1);
        assert_eq!(q.head(by_deadline).unwrap().seq, 0, "FIFO among equals");
        assert_eq!(q.take(0).unwrap().seq, 0);
        assert_eq!(q.get_mut(2).unwrap().seq, 2);
    }

    #[test]
    fn peak_tracks_high_water_mark() {
        let mut q = EdfQueue::new();
        q.push(e(0, 1, 1));
        q.push(e(1, 1, 2));
        q.take(0);
        q.push(e(2, 1, 3));
        assert_eq!(q.len(), 2);
        assert_eq!(q.peak(), 2);
        q.push(e(3, 1, 4));
        assert_eq!(q.peak(), 3);
    }

    #[test]
    fn overflow_victim_is_latest_deadline_newest_on_ties() {
        let mut q = EdfQueue::new();
        assert!(q.overflow_victim().is_none());
        q.push(e(0, 1, 300));
        q.push(e(1, 1, 500));
        q.push(e(2, 2, 500));
        assert_eq!(q.overflow_victim().unwrap().seq, 2);
        q.take(2);
        assert_eq!(q.overflow_victim().unwrap().seq, 1);
    }

    #[test]
    fn iteration_is_in_sequence_order() {
        let mut q = EdfQueue::new();
        q.push(e(7, 2, 10));
        q.push(e(8, 1, 20));
        q.push(e(9, 2, 5));
        let seqs: Vec<u32> = q.iter().map(|m| m.seq).collect();
        assert_eq!(seqs, vec![7, 8, 9]);
        assert!(!q.is_empty());
    }

    #[test]
    #[should_panic(expected = "sequence numbers must grow")]
    fn an_older_sequence_number_is_refused() {
        let mut q = EdfQueue::new();
        q.push(e(10, 1, 100));
        q.push(e(9, 1, 100));
    }

    #[test]
    fn order_survives_the_sequence_counter_wrapping() {
        // Four entries of one deadline, numbered across u32::MAX: the
        // oldest is served first, the newest dropped first, and
        // iteration runs oldest to newest.
        let seqs = [u32::MAX - 1, u32::MAX, 0, 1];
        let mut q = EdfQueue::new();
        for (i, &seq) in seqs.iter().enumerate() {
            q.push(e(seq, 1 + (i % 2) as u16, 100));
        }
        assert_eq!(q.head(by_deadline).unwrap().seq, u32::MAX - 1);
        assert_eq!(q.overflow_victim().unwrap().seq, 1);
        let order: Vec<u32> = q.iter().map(|m| m.seq).collect();
        assert_eq!(order, seqs);
        assert_eq!(q.take(u32::MAX - 1).unwrap().seq, u32::MAX - 1);
        assert_eq!(q.head(by_deadline).unwrap().seq, u32::MAX);
        assert_eq!(q.get(0).unwrap().seq, 0);
    }
}

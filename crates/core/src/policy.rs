//! The soft real-time send queue.
//!
//! The SRTEC send queue is EDF-ordered by each channel's
//! [`SrtPriority`](crate::channel::SrtPriority): the head is the entry
//! with the most urgent priority now, then the earliest transmission
//! deadline, then the lowest sequence number.
//! [`crate::machine::NodeMachine`] keeps one such queue per node and
//! submits only its head (§3.4).
//!
//! Entries live in one deadline-ordered queue per channel. A channel's
//! priority never ranks a later deadline ahead of an earlier one, so a
//! channel's front is its most urgent entry and the head is read off
//! the fronts: O(channels), whatever backlog overload piles up.

use std::collections::{BTreeMap, VecDeque};

use rtec_sim::Time;

/// What an [`EdfQueue`] orders its entries by.
pub trait EdfOrder {
    /// Absolute transmission deadline (global time).
    fn deadline(&self) -> Time;
    /// Node-local sequence number (monotonic at enqueue).
    fn seq(&self) -> u32;
    /// The channel the entry belongs to.
    fn channel(&self) -> u16;
}

/// An earliest-deadline-first send queue, one deadline-ordered queue per
/// channel. It tracks its own high-water mark for observability.
#[derive(Debug, Clone)]
pub struct EdfQueue<M> {
    /// Each channel's entries in deadline order, FIFO among equals.
    channels: Vec<(u16, VecDeque<M>)>,
    /// Where each queued entry is: sequence number → (channel index,
    /// deadline).
    index: BTreeMap<u32, (usize, Time)>,
    peak: usize,
}

impl<M> Default for EdfQueue<M> {
    fn default() -> Self {
        EdfQueue {
            channels: Vec::new(),
            index: BTreeMap::new(),
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
    pub fn push(&mut self, m: M) {
        let ch = match self.channels.iter().position(|(c, _)| *c == m.channel()) {
            Some(ch) => ch,
            None => {
                self.channels.push((m.channel(), VecDeque::new()));
                self.channels.len() - 1
            }
        };
        let queue = &mut self.channels[ch].1;
        let at = queue.partition_point(|e| e.deadline() <= m.deadline());
        self.index.insert(m.seq(), (ch, m.deadline()));
        queue.insert(at, m);
        self.peak = self.peak.max(self.index.len());
    }

    /// The entry EDF serves first: the minimum of `(rank, deadline,
    /// seq)` over the channel fronts, where `rank` is the entry's
    /// priority now.
    pub fn head(&self, rank: impl Fn(&M) -> u8) -> Option<&M> {
        self.fronts()
            .min_by_key(|m| (rank(m), m.deadline(), m.seq()))
    }

    /// Each channel's earliest-deadline entry.
    pub fn fronts(&self) -> impl Iterator<Item = &M> {
        self.channels.iter().filter_map(|(_, q)| q.front())
    }

    /// `(channel index, position)` of the entry with sequence number
    /// `seq`.
    fn locate(&self, seq: u32) -> Option<(usize, usize)> {
        let &(ch, deadline) = self.index.get(&seq)?;
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
        let (ch, deadline) = self.index.remove(&seq)?;
        let at = self.position(ch, deadline, seq)?;
        self.channels[ch].1.remove(at)
    }

    /// Number of queued entries.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// `true` when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// High-water mark of the queue length since creation.
    pub fn peak(&self) -> usize {
        self.peak
    }

    /// Iterate entries in sequence-number order.
    pub fn iter(&self) -> impl Iterator<Item = &M> {
        self.index.keys().filter_map(|&seq| self.get(seq))
    }

    /// The entry an overflow policy drops: the *latest* deadline, newest
    /// among equals (the entry EDF would serve last).
    pub fn overflow_victim(&self) -> Option<&M> {
        let backs = self.channels.iter().filter_map(|(_, q)| q.back());
        backs.max_by_key(|m| (m.deadline(), m.seq()))
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
}

//! The EDF ordering policy of the soft real-time send queue.
//!
//! The SRTEC send queue is EDF-ordered: the head is the entry with the
//! earliest transmission deadline, FIFO among equal deadlines (lowest
//! sequence number wins). [`crate::machine::NodeMachine`] keeps one
//! such queue per node and submits only its head (§3.4).

use std::ops::{Index, IndexMut};

use rtec_sim::Time;

/// Ordering key for entries in an [`EdfQueue`]: an absolute deadline
/// plus a node-local sequence number that breaks ties FIFO.
pub trait EdfOrder {
    /// Absolute transmission deadline (global time).
    fn deadline(&self) -> Time;
    /// Node-local sequence number (monotonic at enqueue).
    fn seq(&self) -> u32;
}

/// An earliest-deadline-first send queue.
///
/// Entries stay at stable indices between mutations (the backing store
/// is a plain `Vec`), so callers may hold an index across inspection
/// calls; [`EdfQueue::head_index`] recomputes the EDF head on demand.
/// The queue tracks its own high-water mark for observability.
#[derive(Debug, Clone)]
pub struct EdfQueue<M> {
    items: Vec<M>,
    peak: usize,
}

impl<M> Default for EdfQueue<M> {
    fn default() -> Self {
        EdfQueue {
            items: Vec::new(),
            peak: 0,
        }
    }
}

impl<M: EdfOrder> EdfQueue<M> {
    /// An empty queue.
    pub fn new() -> Self {
        EdfQueue::default()
    }

    /// Enqueue an entry (position is insertion order; EDF order is
    /// imposed by [`EdfQueue::head_index`], not by the storage).
    pub fn push(&mut self, m: M) {
        self.items.push(m);
        self.peak = self.peak.max(self.items.len());
    }

    /// Index of the earliest-deadline entry, FIFO among equals.
    pub fn head_index(&self) -> Option<usize> {
        (0..self.items.len()).min_by_key(|&i| (self.items[i].deadline(), self.items[i].seq()))
    }

    /// The earliest-deadline entry, FIFO among equals.
    pub fn head(&self) -> Option<&M> {
        self.head_index().map(|i| &self.items[i])
    }

    /// Find an entry by sequence number.
    pub fn find(&self, seq: u32) -> Option<usize> {
        self.items.iter().position(|m| m.seq() == seq)
    }

    /// Remove and return an entry by sequence number.
    pub fn take(&mut self, seq: u32) -> Option<M> {
        self.find(seq).map(|i| self.items.remove(i))
    }

    /// Remove and return the entry at `idx` (panics when out of range,
    /// like `Vec::remove`).
    pub fn remove(&mut self, idx: usize) -> M {
        self.items.remove(idx)
    }

    /// Number of queued entries.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// `true` when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// High-water mark of the queue length since creation.
    pub fn peak(&self) -> usize {
        self.peak
    }

    /// Iterate entries in storage (insertion) order.
    pub fn iter(&self) -> impl Iterator<Item = &M> {
        self.items.iter()
    }

    /// Among queued entries, the index of the one that would be dropped
    /// by an overflow policy: the *latest* deadline, newest among equals
    /// (the entry EDF would serve last).
    pub fn overflow_victim(&self) -> Option<usize> {
        (0..self.items.len()).max_by_key(|&i| (self.items[i].deadline(), self.items[i].seq()))
    }
}

impl<M> Index<usize> for EdfQueue<M> {
    type Output = M;
    fn index(&self, idx: usize) -> &M {
        &self.items[idx]
    }
}

impl<M> IndexMut<usize> for EdfQueue<M> {
    fn index_mut(&mut self, idx: usize) -> &mut M {
        &mut self.items[idx]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, PartialEq)]
    struct E {
        seq: u32,
        deadline: Time,
    }
    impl EdfOrder for E {
        fn deadline(&self) -> Time {
            self.deadline
        }
        fn seq(&self) -> u32 {
            self.seq
        }
    }
    fn e(seq: u32, us: u64) -> E {
        E {
            seq,
            deadline: Time::from_us(us),
        }
    }

    #[test]
    fn head_is_earliest_deadline_fifo_on_ties() {
        let mut q = EdfQueue::new();
        q.push(e(0, 300));
        q.push(e(1, 100));
        q.push(e(2, 100));
        assert_eq!(q.head_index(), Some(1));
        assert_eq!(q.head().unwrap().seq, 1);
        assert_eq!(q.take(1).unwrap().seq, 1);
        assert_eq!(q.head_index(), Some(1)); // seq=2 shifted to index 1
        assert_eq!(q.find(0), Some(0));
        assert_eq!(q.find(9), None);
        assert!(q.take(9).is_none());
    }

    #[test]
    fn peak_tracks_high_water_mark() {
        let mut q = EdfQueue::new();
        q.push(e(0, 1));
        q.push(e(1, 2));
        q.take(0);
        q.push(e(2, 3));
        assert_eq!(q.len(), 2);
        assert_eq!(q.peak(), 2);
        q.push(e(3, 4));
        assert_eq!(q.peak(), 3);
    }

    #[test]
    fn overflow_victim_is_latest_deadline_newest_on_ties() {
        let mut q = EdfQueue::new();
        assert_eq!(q.overflow_victim(), None);
        q.push(e(0, 300));
        q.push(e(1, 500));
        q.push(e(2, 500));
        assert_eq!(q.overflow_victim(), Some(2));
        q.remove(2);
        assert_eq!(q.overflow_victim(), Some(1));
    }

    #[test]
    fn indexing_and_iteration() {
        let mut q = EdfQueue::new();
        q.push(e(7, 10));
        q.push(e(8, 20));
        assert_eq!(q[0].seq, 7);
        q[1].deadline = Time::from_us(5);
        assert_eq!(q.head_index(), Some(1));
        let seqs: Vec<u32> = q.iter().map(|m| m.seq).collect();
        assert_eq!(seqs, vec![7, 8]);
        assert!(!q.is_empty());
    }
}

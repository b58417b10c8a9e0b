//! Fragmentation and reassembly for NRT bulk transfers (§2.2.3).
//!
//! CAN frames carry at most 8 payload bytes, so configuration and
//! maintenance data (memory images, electronic data sheets, test
//! patterns) must be chained over many frames. Fragmentation is an
//! inherent attribute of an NRT channel, fixed at announcement.
//!
//! Wire format of one fragment (CAN payload):
//!
//! ```text
//!   byte 0      flags: bit7 = FIRST, bit6 = LAST
//!   bytes 1..3  fragment index (u16 LE)
//!   FIRST:      bytes 3..5 = total message length (u16 LE), bytes 5.. data
//!   otherwise:  bytes 3..  data
//! ```
//!
//! A reassembler keyed by `(TxNode, etag)` rebuilds messages; because
//! CAN delivers one sender's frames in order, a sequence gap means a
//! frame was lost (possible on NRT channels, which have no redundancy)
//! and the partial message is discarded with an error.

use serde::{Deserialize, Serialize};
use std::collections::HashMap;

const FLAG_FIRST: u8 = 0x80;
const FLAG_LAST: u8 = 0x40;
/// Data bytes carried by a FIRST fragment.
pub const FIRST_FRAGMENT_DATA: usize = 3;
/// Data bytes carried by a non-first fragment.
pub const LATER_FRAGMENT_DATA: usize = 5;
/// Largest message the u16 length field can describe.
pub const MAX_MESSAGE_LEN: usize = u16::MAX as usize;

/// Split a message into CAN payloads, rejecting messages the u16
/// length field cannot describe.
pub fn try_fragment(data: &[u8]) -> Result<Vec<Vec<u8>>, FragError> {
    if data.len() > MAX_MESSAGE_LEN {
        return Err(FragError::MessageTooLong { len: data.len() });
    }
    Ok(fragment_unchecked(data))
}

/// Split a message into CAN payloads.
///
/// # Panics
/// If `data` exceeds [`MAX_MESSAGE_LEN`]; use [`try_fragment`] for a
/// fallible variant.
pub fn fragment(data: &[u8]) -> Vec<Vec<u8>> {
    match try_fragment(data) {
        Ok(frags) => frags,
        Err(e) => panic!("{e}"),
    }
}

fn fragment_unchecked(data: &[u8]) -> Vec<Vec<u8>> {
    let mut out = Vec::new();
    let total = data.len() as u16;
    let first_take = data.len().min(FIRST_FRAGMENT_DATA);
    let mut payload = Vec::with_capacity(8);
    let last_in_first = first_take == data.len();
    payload.push(FLAG_FIRST | if last_in_first { FLAG_LAST } else { 0 });
    payload.extend_from_slice(&0u16.to_le_bytes());
    payload.extend_from_slice(&total.to_le_bytes());
    payload.extend_from_slice(&data[..first_take]);
    out.push(payload);
    let mut offset = first_take;
    let mut index: u16 = 1;
    while offset < data.len() {
        let take = (data.len() - offset).min(LATER_FRAGMENT_DATA);
        let last = offset + take == data.len();
        let mut p = Vec::with_capacity(3 + take);
        p.push(if last { FLAG_LAST } else { 0 });
        p.extend_from_slice(&index.to_le_bytes());
        p.extend_from_slice(&data[offset..offset + take]);
        out.push(p);
        offset += take;
        index = index
            .checked_add(1)
            .expect("message length bound keeps the index in range");
    }
    out
}

/// Number of fragments a message of `len` bytes produces.
pub fn fragment_count(len: usize) -> usize {
    if len <= FIRST_FRAGMENT_DATA {
        1
    } else {
        1 + (len - FIRST_FRAGMENT_DATA).div_ceil(LATER_FRAGMENT_DATA)
    }
}

/// Fragmentation or reassembly failure.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum FragError {
    /// The message exceeds [`MAX_MESSAGE_LEN`] and cannot be described
    /// by the u16 length field.
    MessageTooLong {
        /// Offending message length.
        len: usize,
    },
    /// A non-first fragment arrived with no transfer in progress.
    NoTransferInProgress,
    /// Fragment index skipped — a frame was lost; the partial message
    /// was discarded.
    SequenceGap {
        /// Index that was expected next.
        expected: u16,
        /// Index that arrived.
        got: u16,
    },
    /// Payload malformed (too short, bad flags).
    Malformed,
    /// More data arrived than the announced total length.
    Overflow,
    /// The LAST fragment completed a message whose length disagrees
    /// with the announced total.
    LengthMismatch {
        /// Announced total length.
        announced: u16,
        /// Actually received byte count.
        received: usize,
    },
}

impl std::fmt::Display for FragError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FragError::MessageTooLong { len } => write!(
                f,
                "NRT message of {len} bytes exceeds the 64 KiB fragmentation limit"
            ),
            FragError::NoTransferInProgress => {
                write!(f, "non-first fragment with no transfer in progress")
            }
            FragError::SequenceGap { expected, got } => {
                write!(f, "fragment index gap: expected {expected}, got {got}")
            }
            FragError::Malformed => write!(f, "malformed fragment payload"),
            FragError::Overflow => write!(f, "more data than the announced total length"),
            FragError::LengthMismatch {
                announced,
                received,
            } => write!(
                f,
                "reassembled {received} byte(s) but {announced} were announced"
            ),
        }
    }
}

impl std::error::Error for FragError {}

#[derive(Clone, Debug)]
struct Partial {
    total: u16,
    next_index: u16,
    data: Vec<u8>,
}

/// Retired transfer buffers kept for reuse. A handful is plenty: the
/// live set is bounded by concurrent transfers, and anything beyond
/// the limit is genuinely surplus and returned to the allocator.
const SCRATCH_LIMIT: usize = 32;

/// Stateful reassembler for concurrent transfers from many senders.
///
/// Reassembly is allocation-free in steady state: each transfer grows
/// into a scratch buffer whose full capacity is reserved up front from
/// the FIRST fragment's announced total (so later fragments never
/// reallocate), and finished buffers can be handed back with
/// [`Reassembler::recycle`] for the next transfer to reuse (buffers of
/// failed transfers are reclaimed internally). The bench crate's
/// `cost_ratchet` test asserts the zero-allocation property with a
/// counting allocator.
#[derive(Clone, Debug, Default)]
pub struct Reassembler<K: std::hash::Hash + Eq + Clone> {
    partials: HashMap<K, Partial>,
    scratch: Vec<Vec<u8>>,
}

impl<K: std::hash::Hash + Eq + Clone> Reassembler<K> {
    /// An empty reassembler.
    pub fn new() -> Self {
        Reassembler {
            partials: HashMap::new(),
            scratch: Vec::new(),
        }
    }

    /// Take a scratch buffer with at least `cap` bytes of capacity.
    fn take_buf(&mut self, cap: usize) -> Vec<u8> {
        let mut buf = self.scratch.pop().unwrap_or_default();
        buf.clear();
        buf.reserve(cap);
        buf
    }

    /// Hand a completed message's buffer back for reuse by later
    /// transfers. Optional: skipping it only costs a fresh allocation
    /// per transfer, never correctness.
    pub fn recycle(&mut self, mut buf: Vec<u8>) {
        if self.scratch.len() < SCRATCH_LIMIT && buf.capacity() > 0 {
            buf.clear();
            self.scratch.push(buf);
        }
    }

    /// Discard a partial transfer, reclaiming its buffer.
    fn discard(&mut self, key: &K) {
        if let Some(partial) = self.partials.remove(key) {
            self.recycle(partial.data);
        }
    }

    /// Feed one fragment for stream `key`. Returns the completed
    /// message when the LAST fragment arrives.
    pub fn push(&mut self, key: K, payload: &[u8]) -> Result<Option<Vec<u8>>, FragError> {
        if payload.len() < 3 {
            return Err(FragError::Malformed);
        }
        let flags = payload[0];
        let index = u16::from_le_bytes([payload[1], payload[2]]);
        let first = flags & FLAG_FIRST != 0;
        let last = flags & FLAG_LAST != 0;
        if first {
            if payload.len() < 5 {
                return Err(FragError::Malformed);
            }
            let total = u16::from_le_bytes([payload[3], payload[4]]);
            let body = &payload[5..];
            if body.len() > total as usize {
                return Err(FragError::Overflow);
            }
            if last {
                if body.len() != total as usize {
                    return Err(FragError::LengthMismatch {
                        announced: total,
                        received: body.len(),
                    });
                }
                self.discard(&key);
                let mut data = self.take_buf(total as usize);
                data.extend_from_slice(body);
                return Ok(Some(data));
            }
            // A new FIRST silently replaces any stale partial transfer
            // (the sender restarted); reserving the announced total up
            // front means later fragments never reallocate.
            self.discard(&key);
            let mut data = self.take_buf(total as usize);
            data.extend_from_slice(body);
            self.partials.insert(
                key,
                Partial {
                    total,
                    next_index: 1,
                    data,
                },
            );
            return Ok(None);
        }
        let Some(partial) = self.partials.get_mut(&key) else {
            return Err(FragError::NoTransferInProgress);
        };
        if index != partial.next_index {
            let expected = partial.next_index;
            self.discard(&key);
            return Err(FragError::SequenceGap {
                expected,
                got: index,
            });
        }
        partial.next_index += 1;
        partial.data.extend_from_slice(&payload[3..]);
        if partial.data.len() > partial.total as usize {
            self.discard(&key);
            return Err(FragError::Overflow);
        }
        if last {
            let partial = self.partials.remove(&key).expect("checked above");
            if partial.data.len() != partial.total as usize {
                let announced = partial.total;
                let received = partial.data.len();
                self.recycle(partial.data);
                return Err(FragError::LengthMismatch {
                    announced,
                    received,
                });
            }
            return Ok(Some(partial.data));
        }
        Ok(None)
    }

    /// Number of in-progress transfers.
    pub fn in_progress(&self) -> usize {
        self.partials.len()
    }

    /// Discard an in-progress transfer (e.g. the sender crashed). Its
    /// buffer is reclaimed for later transfers.
    pub fn reset(&mut self, key: &K) {
        self.discard(key);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(data: &[u8]) -> Vec<u8> {
        let mut r: Reassembler<u8> = Reassembler::new();
        let mut result = None;
        for frag in fragment(data) {
            result = r.push(0, &frag).unwrap();
        }
        assert_eq!(r.in_progress(), 0);
        result.expect("last fragment completes the message")
    }

    #[test]
    fn roundtrip_various_sizes() {
        for len in [0usize, 1, 2, 3, 4, 7, 8, 9, 13, 100, 1000, 4096] {
            let data: Vec<u8> = (0..len).map(|i| (i % 251) as u8).collect();
            assert_eq!(roundtrip(&data), data, "len={len}");
        }
    }

    #[test]
    fn fragment_count_matches() {
        for len in [0usize, 3, 4, 8, 9, 100, 65_535] {
            let data: Vec<u8> = vec![0xA5; len];
            assert_eq!(fragment(&data).len(), fragment_count(len), "len={len}");
        }
        assert_eq!(fragment_count(0), 1);
        assert_eq!(fragment_count(3), 1);
        assert_eq!(fragment_count(4), 2);
        assert_eq!(fragment_count(8), 2);
        assert_eq!(fragment_count(9), 3);
    }

    #[test]
    fn payloads_fit_in_can_frames() {
        let data = vec![7u8; 1234];
        for p in fragment(&data) {
            assert!(p.len() <= 8, "fragment of {} bytes", p.len());
            assert!(p.len() >= 3);
        }
    }

    #[test]
    #[should_panic(expected = "64 KiB")]
    fn oversized_message_panics() {
        let _ = fragment(&vec![0u8; MAX_MESSAGE_LEN + 1]);
    }

    #[test]
    fn interleaved_senders_reassemble_independently() {
        let a: Vec<u8> = (0..50).collect();
        let b: Vec<u8> = (100..180).collect();
        let fa = fragment(&a);
        let fb = fragment(&b);
        let mut r: Reassembler<u8> = Reassembler::new();
        let mut done_a = None;
        let mut done_b = None;
        for i in 0..fa.len().max(fb.len()) {
            if let Some(f) = fa.get(i) {
                if let Some(msg) = r.push(1, f).unwrap() {
                    done_a = Some(msg);
                }
            }
            if let Some(f) = fb.get(i) {
                if let Some(msg) = r.push(2, f).unwrap() {
                    done_b = Some(msg);
                }
            }
        }
        assert_eq!(done_a.unwrap(), a);
        assert_eq!(done_b.unwrap(), b);
    }

    #[test]
    fn lost_fragment_is_detected() {
        let data = vec![9u8; 40];
        let frags = fragment(&data);
        let mut r: Reassembler<u8> = Reassembler::new();
        r.push(0, &frags[0]).unwrap();
        r.push(0, &frags[1]).unwrap();
        // Skip fragment 2.
        let err = r.push(0, &frags[3]).unwrap_err();
        assert_eq!(
            err,
            FragError::SequenceGap {
                expected: 2,
                got: 3
            }
        );
        // Transfer was discarded.
        assert_eq!(r.in_progress(), 0);
        assert_eq!(
            r.push(0, &frags[4]).unwrap_err(),
            FragError::NoTransferInProgress
        );
    }

    #[test]
    fn restart_replaces_partial_transfer() {
        let first = vec![1u8; 40];
        let second = vec![2u8; 10];
        let mut r: Reassembler<u8> = Reassembler::new();
        let f1 = fragment(&first);
        r.push(0, &f1[0]).unwrap();
        r.push(0, &f1[1]).unwrap();
        // Sender restarts with a new message.
        let f2 = fragment(&second);
        let mut done = None;
        for f in &f2 {
            done = r.push(0, f).unwrap();
        }
        assert_eq!(done.unwrap(), second);
    }

    #[test]
    fn malformed_payloads_rejected() {
        let mut r: Reassembler<u8> = Reassembler::new();
        assert_eq!(r.push(0, &[0x80]).unwrap_err(), FragError::Malformed);
        assert_eq!(
            r.push(0, &[0x80, 0, 0, 5]).unwrap_err(),
            FragError::Malformed
        );
        assert_eq!(
            r.push(0, &[0x00, 0, 0, 1, 2]).unwrap_err(),
            FragError::NoTransferInProgress
        );
    }

    #[test]
    fn reset_discards_partial() {
        let data = vec![3u8; 40];
        let frags = fragment(&data);
        let mut r: Reassembler<u8> = Reassembler::new();
        r.push(0, &frags[0]).unwrap();
        assert_eq!(r.in_progress(), 1);
        r.reset(&0);
        assert_eq!(r.in_progress(), 0);
    }

    #[test]
    fn single_fragment_message_has_both_flags() {
        let frags = fragment(&[1, 2, 3]);
        assert_eq!(frags.len(), 1);
        assert_eq!(frags[0][0] & FLAG_FIRST, FLAG_FIRST);
        assert_eq!(frags[0][0] & FLAG_LAST, FLAG_LAST);
    }

    #[test]
    fn empty_message_roundtrips() {
        assert_eq!(roundtrip(&[]), Vec::<u8>::new());
    }

    #[test]
    fn recycled_buffers_are_reused_without_regrowing() {
        let data = vec![0x5Au8; 1000];
        let frags = fragment(&data);
        let mut r: Reassembler<u8> = Reassembler::new();
        // Warm-up transfer allocates the one buffer the loop reuses.
        let mut done = None;
        for f in &frags {
            done = r.push(0, f).unwrap();
        }
        let buf = done.unwrap();
        let warm_ptr = buf.as_ptr();
        let warm_cap = buf.capacity();
        r.recycle(buf);
        for round in 0..50 {
            let mut done = None;
            for f in &frags {
                done = r.push(0, f).unwrap();
            }
            let buf = done.unwrap();
            assert_eq!(buf, data, "round {round}");
            assert_eq!(
                (buf.as_ptr(), buf.capacity()),
                (warm_ptr, warm_cap),
                "round {round}: transfer did not reuse the recycled buffer"
            );
            r.recycle(buf);
        }
    }

    #[test]
    fn failed_transfers_reclaim_their_buffers() {
        let data = vec![9u8; 40];
        let frags = fragment(&data);
        let mut r: Reassembler<u8> = Reassembler::new();
        r.push(0, &frags[0]).unwrap();
        r.push(0, &frags[1]).unwrap();
        r.push(0, &frags[3]).unwrap_err(); // gap discards the partial
        assert_eq!(r.in_progress(), 0);
        // The reclaimed buffer serves the next transfer.
        let mut done = None;
        for f in &frags {
            done = r.push(0, f).unwrap();
        }
        assert_eq!(done.unwrap(), data);
    }
}

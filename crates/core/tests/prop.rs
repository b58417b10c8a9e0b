//! Property-based tests of the middleware's pure kernels:
//! fragmentation, tag packing, the binding wire formats, the SRT
//! promotion chain and the SRT send queue.

use proptest::prelude::*;
use rtec_analysis::edf::PrioritySlotConfig;
use rtec_core::binding::{BindReply, BindRequest, BindStatus, SubjectRegistry};
use rtec_core::channel::SrtPriority;
use rtec_core::event::Subject;
use rtec_core::frag::{fragment, fragment_count, Reassembler};
use rtec_core::node::{pack_tag, unpack_tag, TagKind};
use rtec_core::policy::{EdfOrder, EdfQueue};
use rtec_sim::{Duration, Time};
use std::collections::BTreeMap;

fn arb_kind() -> impl Strategy<Value = TagKind> {
    prop_oneof![
        Just(TagKind::Hrt),
        Just(TagKind::Srt),
        Just(TagKind::Nrt),
        Just(TagKind::Bind),
        Just(TagKind::Sync),
    ]
}

proptest! {
    /// Fragmentation round-trips for arbitrary message bodies.
    #[test]
    fn fragment_reassemble_roundtrip(data in prop::collection::vec(any::<u8>(), 0..3000)) {
        let frags = fragment(&data);
        prop_assert_eq!(frags.len(), fragment_count(data.len()));
        let mut r: Reassembler<u8> = Reassembler::new();
        let mut out = None;
        for f in &frags {
            prop_assert!(f.len() <= 8, "fragment exceeds a CAN payload");
            out = r.push(0, f).unwrap();
        }
        prop_assert_eq!(out.expect("message completes"), data);
        prop_assert_eq!(r.in_progress(), 0);
    }

    /// Interleaving fragments of two senders never cross-contaminates.
    #[test]
    fn fragment_streams_are_isolated(
        a in prop::collection::vec(any::<u8>(), 1..500),
        b in prop::collection::vec(any::<u8>(), 1..500),
    ) {
        let fa = fragment(&a);
        let fb = fragment(&b);
        let mut r: Reassembler<u8> = Reassembler::new();
        let (mut got_a, mut got_b) = (None, None);
        for i in 0..fa.len().max(fb.len()) {
            if let Some(f) = fa.get(i) {
                if let Some(m) = r.push(1, f).unwrap() { got_a = Some(m); }
            }
            if let Some(f) = fb.get(i) {
                if let Some(m) = r.push(2, f).unwrap() { got_b = Some(m); }
            }
        }
        prop_assert_eq!(got_a.unwrap(), a);
        prop_assert_eq!(got_b.unwrap(), b);
    }

    /// Dropping any single non-final fragment is always detected (no
    /// silent corruption).
    #[test]
    fn dropped_fragment_never_reassembles_silently(
        data in prop::collection::vec(any::<u8>(), 20..400),
        drop_idx in any::<prop::sample::Index>(),
    ) {
        let frags = fragment(&data);
        prop_assume!(frags.len() >= 3);
        let drop = 1 + drop_idx.index(frags.len() - 2); // never the FIRST
        let mut r: Reassembler<u8> = Reassembler::new();
        let mut completed = None;
        let mut errored = false;
        for (i, f) in frags.iter().enumerate() {
            if i == drop {
                continue;
            }
            match r.push(0, f) {
                Ok(Some(m)) => completed = Some(m),
                Ok(None) => {}
                Err(_) => { errored = true; break; }
            }
        }
        prop_assert!(errored, "gap must be detected");
        prop_assert!(completed.is_none());
    }

    /// Tag packing round-trips over the full field ranges.
    #[test]
    fn tag_roundtrip(kind in arb_kind(), etag in 0u16..(1 << 14), seq in any::<u32>()) {
        prop_assert_eq!(unpack_tag(pack_tag(kind, etag, seq)), Some((kind, etag, seq)));
    }

    /// Binding wire formats round-trip.
    #[test]
    fn bind_wire_roundtrip(
        seq in any::<u16>(),
        uid in any::<u64>(),
        requester in 0u8..128,
        etag in 0u16..(1 << 14),
        ok in any::<bool>(),
    ) {
        let req = BindRequest::new(seq, Subject::new(uid));
        prop_assert_eq!(BindRequest::decode(&req.encode()), Some(req));
        let rep = BindReply {
            requester,
            seq,
            etag,
            status: if ok { BindStatus::Ok } else { BindStatus::Exhausted },
        };
        prop_assert_eq!(BindReply::decode(&rep.encode()), Some(rep));
    }

    /// The registry gives distinct subjects distinct etags and is
    /// idempotent under arbitrary bind orders.
    #[test]
    fn registry_injective(uids in prop::collection::hash_set(0u64..0xFFFF_FFFF_FFFF, 1..100)) {
        let mut reg = SubjectRegistry::new();
        let mut etags = std::collections::HashSet::new();
        for &uid in &uids {
            let etag = reg.bind(Subject::new(uid)).unwrap();
            prop_assert!(etags.insert(etag), "etag reused");
            // Idempotent.
            prop_assert_eq!(reg.bind(Subject::new(uid)).unwrap(), etag);
        }
        prop_assert_eq!(reg.len(), uids.len());
    }

    /// The promotion chain is the machine's own re-arm sequence: from
    /// a promotion instant `at`, iterating `SrtPriority::next_change`
    /// visits exactly `at, at + every, …, last` — for random slot
    /// lengths and level counts, deadlines inside one slot and beyond
    /// the horizon ΔH, and random start instants. From an instant the
    /// priority does not change at there is no chain, unless iterating
    /// from it still follows one.
    #[test]
    fn promote_chain_is_the_next_change_sequence(
        slot_ns in 1_000u64..500_000,
        levels in 1u8..=250,
        now_ns in 0u64..1_000_000_000,
        // In slots; the horizon ΔH is `levels` slots.
        ahead in 0.0f64..600.0,
        dual in any::<bool>(),
        lead_frac in 0.0f64..1.5,
        fixed in any::<bool>(),
        off_grid_ns in 0u64..1_000_000,
    ) {
        let slots = PrioritySlotConfig { slot: Duration::from_ns(slot_ns), p_min: 1, p_max: levels };
        let now = Time::from_ns(now_ns);
        let span = (ahead * slot_ns as f64) as u64;
        let deadline = now + Duration::from_ns(span);
        let policy = if fixed {
            SrtPriority::Fixed(levels)
        } else if dual {
            let lead = Duration::from_ns((lead_frac * span as f64) as u64);
            SrtPriority::Dual { low: levels, high: 1, lead }
        } else {
            SrtPriority::Slots
        };
        let visits = |from: Time| {
            let mut seen = vec![from];
            while let Some(t) = policy.next_change(&slots, deadline, *seen.last().unwrap()) {
                seen.push(t);
            }
            seen
        };
        let follows = |from: Time, chain: rtec_core::channel::PromoteChain| {
            let mut seen = vec![from];
            while let Some(t) = chain.after(*seen.last().unwrap()) {
                seen.push(t);
            }
            prop_assert_eq!(*seen.last().unwrap(), chain.last);
            Ok(seen)
        };
        if let Some(at) = policy.next_change(&slots, deadline, now) {
            let chain = policy.promote_chain(&slots, deadline, at);
            prop_assert!(chain.is_some(), "no chain from promotion instant {:?}", at);
            let chain = chain.unwrap();
            prop_assert_eq!(follows(at, chain)?, visits(at));
            if policy == SrtPriority::Slots {
                prop_assert_eq!(chain.every, slots.slot);
                prop_assert_eq!(chain.last, deadline.saturating_sub(slots.slot));
            }
        }
        prop_assert!(!fixed || policy.promote_chain(&slots, deadline, now).is_none());
        // Any instant: a chain, where there is one, is still exact.
        let any = now + Duration::from_ns(off_grid_ns);
        if let Some(chain) = policy.promote_chain(&slots, deadline, any) {
            prop_assert_eq!(follows(any, chain)?, visits(any));
        }
    }
}

/// A queued entry: what the queue orders by, plus a payload `get_mut`
/// may change.
#[derive(Clone, Debug, PartialEq)]
struct Entry {
    seq: u32,
    channel: u16,
    deadline: Time,
    payload: u32,
}

impl EdfOrder for Entry {
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

#[derive(Clone, Debug)]
enum QueueOp {
    Push { channel: u16, deadline_us: u64 },
    Take(usize),
    Get(usize),
    GetMut(usize, u32),
    Head(u8),
    Victim,
    Iter,
}

fn queue_op() -> impl Strategy<Value = QueueOp> {
    prop_oneof![
        (0u16..4, 0u64..40).prop_map(|(channel, deadline_us)| QueueOp::Push {
            channel,
            deadline_us
        }),
        (0u16..4, 0u64..40).prop_map(|(channel, deadline_us)| QueueOp::Push {
            channel,
            deadline_us
        }),
        any::<usize>().prop_map(QueueOp::Take),
        any::<usize>().prop_map(QueueOp::Get),
        (any::<usize>(), any::<u32>()).prop_map(|(i, v)| QueueOp::GetMut(i, v)),
        any::<u8>().prop_map(QueueOp::Head),
        Just(QueueOp::Victim),
        Just(QueueOp::Iter),
    ]
}

/// Where a node's SRT sequence counter starts: anywhere, or a few
/// pushes short of wrapping past `u32::MAX`.
fn first_seq() -> impl Strategy<Value = u32> {
    prop_oneof![any::<u32>(), (u32::MAX - 40)..=u32::MAX]
}

proptest! {
    /// The ring-indexed `EdfQueue` against a reference kept in a
    /// `BTreeMap` by push order, which is what `seq − base` stands
    /// for: the head is the least `(rank, deadline, age)`, the overflow
    /// victim the greatest `(deadline, age)`, iteration runs oldest
    /// first, and look-ups by sequence number find exactly the queued
    /// entries — also while the counter wraps and while a starved
    /// entry (a far deadline on a channel of its own, never taken)
    /// holds the front so the ring spans every number pushed since.
    #[test]
    fn edf_queue_matches_a_btreemap_reference(
        first in first_seq(),
        starve in any::<bool>(),
        ops in prop::collection::vec(queue_op(), 1..200),
    ) {
        let mut queue: EdfQueue<Entry> = EdfQueue::new();
        // Push order → entry: an entry's age is its key.
        let mut reference: BTreeMap<u64, Entry> = BTreeMap::new();
        let mut pushed = 0u64;
        let mut ops = ops;
        if starve {
            ops.insert(0, QueueOp::Push { channel: 9, deadline_us: 1_000_000 });
        }
        let starved = starve.then_some(first);
        for op in ops {
            // A queued sequence number other than the starved one, or
            // (one draw in five) one that is not queued.
            let next = first.wrapping_add(pushed as u32);
            let pick = |i: usize| -> u32 {
                let live: Vec<u32> = (reference.values().map(|e| e.seq))
                    .filter(|&s| Some(s) != starved)
                    .collect();
                if live.is_empty() || i.is_multiple_of(5) {
                    next.wrapping_add(i as u32 % 3).wrapping_sub(i as u32 % 7)
                } else {
                    live[i % live.len()]
                }
            };
            match op {
                QueueOp::Push { channel, deadline_us } => {
                    let entry = Entry { seq: next, channel, deadline: Time::from_us(deadline_us), payload: 0 };
                    queue.push(entry.clone());
                    reference.insert(pushed, entry);
                    pushed += 1;
                }
                QueueOp::Take(i) => {
                    let seq = pick(i);
                    let age = reference.iter().find(|(_, e)| e.seq == seq).map(|(&age, _)| age);
                    let want = age.and_then(|age| reference.remove(&age));
                    prop_assert_eq!(queue.take(seq), want);
                }
                QueueOp::Get(i) => {
                    let seq = pick(i);
                    prop_assert_eq!(queue.get(seq), reference.values().find(|e| e.seq == seq));
                }
                QueueOp::GetMut(i, payload) => {
                    let seq = pick(i);
                    let want = reference.values_mut().find(|e| e.seq == seq);
                    let got = queue.get_mut(seq);
                    prop_assert_eq!(got.is_some(), want.is_some());
                    if let (Some(got), Some(want)) = (got, want) {
                        got.payload = payload;
                        want.payload = payload;
                    }
                }
                QueueOp::Head(salt) => {
                    // Any rank that is constant per channel keeps each
                    // channel's front its most urgent entry.
                    let rank = |e: &Entry| (e.channel as u8).wrapping_mul(salt) % 3;
                    let want = reference.iter().min_by_key(|(age, e)| (rank(e), e.deadline, **age));
                    prop_assert_eq!(queue.head(rank), want.map(|(_, e)| e));
                }
                QueueOp::Victim => {
                    let want = reference.iter().max_by_key(|(age, e)| (e.deadline, **age));
                    prop_assert_eq!(queue.overflow_victim(), want.map(|(_, e)| e));
                }
                QueueOp::Iter => {
                    let got: Vec<&Entry> = queue.iter().collect();
                    let want: Vec<&Entry> = reference.values().collect();
                    prop_assert_eq!(got, want);
                }
            }
            prop_assert_eq!(queue.len(), reference.len());
            prop_assert_eq!(queue.is_empty(), reference.is_empty());
        }
        prop_assert!(queue.peak() >= queue.len());
    }
}

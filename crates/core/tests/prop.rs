//! Property-based tests of the middleware's pure kernels:
//! fragmentation, tag packing, the binding wire formats and the SRT
//! promotion chain.

use proptest::prelude::*;
use rtec_analysis::edf::PrioritySlotConfig;
use rtec_core::binding::{BindReply, BindRequest, BindStatus, SubjectRegistry};
use rtec_core::channel::SrtPriority;
use rtec_core::event::Subject;
use rtec_core::frag::{fragment, fragment_count, Reassembler};
use rtec_core::node::{pack_tag, unpack_tag, TagKind};
use rtec_sim::{Duration, Time};

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

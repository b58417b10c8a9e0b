//! Property-based tests for the bit-level CAN model.

use proptest::prelude::*;
use rtec_can::bits::{
    crc15, destuff, exact_frame_bits, stuff, unstuffed_bits, worst_case_frame_bits, TAIL_BITS,
};
use rtec_can::{CanId, Frame};

fn arb_frame() -> impl Strategy<Value = Frame> {
    (
        0u8..=255,
        0u8..128,
        0u16..(1 << 14),
        prop::collection::vec(any::<u8>(), 0..=8),
    )
        .prop_map(|(prio, tx, etag, payload)| Frame::new(CanId::new(prio, tx, etag), &payload))
}

fn reference_frame_bits(frame: &Frame) -> u32 {
    stuff(&unstuffed_bits(frame)).len() as u32 + TAIL_BITS
}

/// Fixed corners of the streaming count: empty and full payloads of
/// maximal, minimal and no stuffing.
#[test]
fn exact_frame_bits_matches_reference_at_corners() {
    for id in [
        CanId::from_raw(0),
        CanId::from_raw((1 << 29) - 1),
        CanId::new(3, 1, 2),
    ] {
        for fill in [0x00u8, 0xFF, 0x55] {
            for dlc in [0usize, 8] {
                let f = Frame::new(id, &[fill; 8][..dlc]);
                assert_eq!(
                    exact_frame_bits(&f),
                    reference_frame_bits(&f),
                    "id={:#x} fill={fill:#x} dlc={dlc}",
                    id.raw()
                );
            }
        }
    }
}

/// An identifier ending in `1000` with DLC 0 puts two runs of five
/// dominant bits back to back (ID2..r1, then r0..DLC0), so the second
/// stuff bit sits exactly between the DLC and the first CRC bit — the
/// hand-over from the data walk to the CRC walk in the streaming count.
#[test]
fn exact_frame_bits_with_stuff_bit_on_crc_boundary() {
    let f = Frame::new(CanId::from_raw(0x0AAA_AAA8), &[]);
    let bits = unstuffed_bits(&f);
    let before_crc = stuff(&bits[..bits.len() - 15]);
    assert!(before_crc.ends_with(&[false, false, false, false, false, true]));
    assert_eq!(exact_frame_bits(&f), reference_frame_bits(&f));
}

proptest! {
    // Enough cases to visit every entry of the count's byte tables.
    #![proptest_config(ProptestConfig::with_cases(8192))]

    /// The table-driven count equals the materialized reference:
    /// serialize, CRC, stuff, measure (the stuffing rule as the FocusST
    /// CAN specification, arXiv 1811.08128, states it).
    #[test]
    fn exact_frame_bits_matches_reference(frame in arb_frame()) {
        prop_assert_eq!(exact_frame_bits(&frame), reference_frame_bits(&frame));
    }
}

proptest! {
    /// Stuffing round-trips for arbitrary bit patterns.
    #[test]
    fn stuff_destuff_roundtrip(bits in prop::collection::vec(any::<bool>(), 0..300)) {
        prop_assert_eq!(destuff(&stuff(&bits)).unwrap(), bits);
    }

    /// A stuffed stream never contains six equal consecutive bits.
    #[test]
    fn stuffed_stream_has_no_run_of_six(bits in prop::collection::vec(any::<bool>(), 0..300)) {
        let stuffed = stuff(&bits);
        let mut run = 0u32;
        let mut prev = None;
        for &b in &stuffed {
            if Some(b) == prev { run += 1; } else { prev = Some(b); run = 1; }
            prop_assert!(run <= 5);
        }
    }

    /// Stuffing adds at most one bit per four input bits after the
    /// first five (the tight worst case).
    #[test]
    fn stuffing_overhead_bounded(bits in prop::collection::vec(any::<bool>(), 1..400)) {
        let stuffed = stuff(&bits);
        let max_stuff = (bits.len() - 1) / 4;
        prop_assert!(stuffed.len() <= bits.len() + max_stuff);
    }

    /// Exact on-wire frame length is bracketed by the unstuffed length
    /// and the published worst-case formula.
    #[test]
    fn exact_frame_bits_within_bounds(frame in arb_frame()) {
        let exact = exact_frame_bits(&frame);
        let unstuffed_len = unstuffed_bits(&frame).len() as u32 + TAIL_BITS;
        prop_assert!(exact >= unstuffed_len);
        prop_assert!(exact <= worst_case_frame_bits(frame.dlc()));
    }

    /// The serialized identifier bits survive a parse: two different
    /// identifiers never serialize to the same stuffed-region prefix.
    #[test]
    fn distinct_ids_distinct_bits(a_raw in 0u32..(1 << 29), b_raw in 0u32..(1 << 29)) {
        prop_assume!(a_raw != b_raw);
        let a = Frame::new(CanId::from_raw(a_raw), &[]);
        let b = Frame::new(CanId::from_raw(b_raw), &[]);
        prop_assert_ne!(unstuffed_bits(&a), unstuffed_bits(&b));
    }

    /// CRC detects any single-bit error.
    #[test]
    fn crc_detects_single_bit_flips(
        bits in prop::collection::vec(any::<bool>(), 1..120),
        flip in any::<prop::sample::Index>(),
    ) {
        let mut corrupted = bits.clone();
        let idx = flip.index(bits.len());
        corrupted[idx] = !corrupted[idx];
        prop_assert_ne!(crc15(&bits), crc15(&corrupted));
    }

    /// CRC detects burst errors up to 15 bits long (the guarantee of a
    /// degree-15 generator polynomial).
    #[test]
    fn crc_detects_burst_errors(
        bits in prop::collection::vec(any::<bool>(), 20..200),
        start in any::<prop::sample::Index>(),
        pattern in 1u16..(1 << 15),
    ) {
        let mut corrupted = bits.clone();
        let start = start.index(bits.len().saturating_sub(15));
        let mut changed = false;
        for i in 0..15 {
            if (pattern >> i) & 1 == 1 {
                let idx = start + i;
                if idx < corrupted.len() {
                    corrupted[idx] = !corrupted[idx];
                    changed = true;
                }
            }
        }
        prop_assume!(changed);
        prop_assert_ne!(crc15(&bits), crc15(&corrupted));
    }

    /// Identifier field packing round-trips.
    #[test]
    fn id_roundtrip(prio in 0u8..=255, tx in 0u8..128, etag in 0u16..(1 << 14)) {
        let id = CanId::new(prio, tx, etag);
        prop_assert_eq!(id.priority(), prio);
        prop_assert_eq!(id.txnode(), tx);
        prop_assert_eq!(id.etag(), etag);
        prop_assert_eq!(CanId::from_raw(id.raw()), id);
    }

    /// Priority ordering dominates the other identifier fields in
    /// arbitration.
    #[test]
    fn priority_dominates(
        pa in 0u8..=255, pb in 0u8..=255,
        ta in 0u8..128, tb in 0u8..128,
        ea in 0u16..(1 << 14), eb in 0u16..(1 << 14),
    ) {
        prop_assume!(pa < pb);
        let a = CanId::new(pa, ta, ea);
        let b = CanId::new(pb, tb, eb);
        prop_assert!(a.wins_against(b));
    }

    /// with_priority never touches TxNode or etag.
    #[test]
    fn with_priority_preserves(id_raw in 0u32..(1 << 29), p in 0u8..=255) {
        let id = CanId::from_raw(id_raw);
        let q = id.with_priority(p);
        prop_assert_eq!(q.priority(), p);
        prop_assert_eq!(q.txnode(), id.txnode());
        prop_assert_eq!(q.etag(), id.etag());
    }
}

proptest! {
    /// 29-bit packing round-trip: the three protocol fields survive
    /// encode → decode exactly (§3.5).
    #[test]
    fn id_pack_unpack_identity(p in 0u8..=255, t in 0u8..128, e in 0u16..(1 << 14)) {
        let id = CanId::new(p, t, e);
        prop_assert_eq!(id.priority(), p);
        prop_assert_eq!(id.txnode(), t);
        prop_assert_eq!(id.etag(), e);
        // The raw value round-trips too, through both constructors.
        prop_assert_eq!(CanId::from_raw(id.raw()), id);
        prop_assert_eq!(CanId::try_new(p, t, e), Ok(id));
        prop_assert_eq!(CanId::try_from_raw(id.raw()), Ok(id));
        prop_assert!(id.raw() < (1 << 29));
    }

    /// Field-width violations are rejected by the fallible
    /// constructors instead of panicking.
    #[test]
    fn id_try_new_rejects_oversized_fields(
        p in 0u8..=255,
        bad_t in 128u8..=255,
        bad_e in (1u16 << 14)..=u16::MAX,
        raw_hi in (1u32 << 29)..=u32::MAX,
    ) {
        prop_assert!(CanId::try_new(p, bad_t, 0).is_err());
        prop_assert!(CanId::try_new(p, 0, bad_e).is_err());
        prop_assert!(CanId::try_from_raw(raw_hi).is_err());
    }

    /// The priority field alone decides band membership: exactly one
    /// of HRT / SRT / NRT, matching the §3.3 partition.
    #[test]
    fn id_band_membership_partition(p in 0u8..=255, t in 0u8..128, e in 0u16..(1 << 14)) {
        let id = CanId::new(p, t, e);
        let bands = [id.is_hrt(), id.is_srt(), id.is_nrt()];
        prop_assert_eq!(bands.iter().filter(|&&b| b).count(), 1);
        prop_assert_eq!(id.is_hrt(), p == rtec_can::PRIO_HRT);
        prop_assert_eq!(
            id.is_srt(),
            (rtec_can::PRIO_SRT_MIN..=rtec_can::PRIO_SRT_MAX).contains(&p)
        );
        prop_assert_eq!(id.is_nrt(), p >= rtec_can::PRIO_NRT_MIN);
    }

    /// Cross-node uniqueness: two nodes encoding the same (priority,
    /// etag) still produce distinct identifiers — the TxNode field
    /// makes encodings system-wide unique (§3.5).
    #[test]
    fn id_cross_node_uniqueness(
        p in 0u8..=255,
        e in 0u16..(1 << 14),
        ta in 0u8..128,
        tb in 0u8..128,
    ) {
        prop_assume!(ta != tb);
        prop_assert_ne!(CanId::new(p, ta, e), CanId::new(p, tb, e));
    }

    /// Packing is injective over the full field product: distinct
    /// field triples never collide.
    #[test]
    fn id_packing_injective(
        pa in 0u8..=255, ta in 0u8..128, ea in 0u16..(1 << 14),
        pb in 0u8..=255, tb in 0u8..128, eb in 0u16..(1 << 14),
    ) {
        prop_assume!((pa, ta, ea) != (pb, tb, eb));
        prop_assert_ne!(CanId::new(pa, ta, ea), CanId::new(pb, tb, eb));
    }
}

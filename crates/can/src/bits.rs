//! Bit-accurate CAN 2.0B frame timing: serialization, bit stuffing and
//! CRC-15.
//!
//! All bandwidth and blocking-time arguments in the paper reduce to "how
//! many bit times does this frame occupy the bus". We answer that
//! exactly from the frame's on-wire bit pattern:
//!
//! ```text
//!  stuffed region:  SOF | ID28..18 | SRR IDE | ID17..0 | RTR r1 r0 | DLC | data | CRC15
//!  fixed tail:      CRC-delimiter | ACK slot | ACK delimiter | EOF(7) | IFS(3)
//! ```
//!
//! Bit stuffing inserts a complement bit after every run of five equal
//! bits in the stuffed region (the stuff bits themselves participate in
//! subsequent runs). The fixed tail is transmitted unstuffed.
//!
//! [`exact_frame_bits`], called once per simulated frame, counts that
//! pattern a byte at a time without building it; [`unstuffed_bits`],
//! [`crc15`] and [`stuff`] do build it, as the reference the count is
//! tested against (`tests/prop.rs`).
//!
//! Two closed-form bounds are also provided:
//!
//! * [`worst_case_frame_bits`] — the tight worst case with a stuff bit
//!   every 4 bits after the first 5 (`⌊(S−1)/4⌋` stuff bits for a
//!   stuffed-region length `S`), giving **160 bits** for an 8-byte
//!   extended frame.
//! * [`PAPER_LONGEST_FRAME_BITS`] = **154** — the figure the paper
//!   quotes ("154 µs at 1 Mbit/s", §3.2), which corresponds to the
//!   common `⌊S/5⌋` stuffing estimate. We keep it as the default
//!   `ΔT_wait` basis so reproduced numbers line up with the paper, and
//!   verify in tests that real frames (exact stuffing of actual
//!   payloads) stay below it in practice while the adversarial pattern
//!   can exceed it — see `EXPERIMENTS.md` for the discussion.

use crate::frame::Frame;
use rtec_sim::{Duration, Time};
use serde::{Deserialize, Serialize};

/// Bits in the unstuffed fixed tail: CRC delimiter (1) + ACK slot (1) +
/// ACK delimiter (1) + end-of-frame (7) + interframe space (3).
pub const TAIL_BITS: u32 = 13;

/// The longest-frame figure used by the paper for `ΔT_wait`
/// (154 bit times = 154 µs at 1 Mbit/s).
pub const PAPER_LONGEST_FRAME_BITS: u32 = 154;

/// Worst-case length in bits of the error signalling sequence that
/// follows a corrupted frame: error flag (6, up to 12 with
/// superposition) + error delimiter (8) + intermission (3). We use the
/// conservative 12 + 8 + 3 = 23.
pub const ERROR_FRAME_BITS: u32 = 23;

/// CRC-15 generator polynomial for CAN: x^15+x^14+x^10+x^8+x^7+x^4+x^3+1.
const CRC15_POLY: u16 = 0x4599;

/// Shift one bit into a CAN CRC-15 register.
const fn crc15_step(crc: u16, bit: bool) -> u16 {
    let feedback = bit ^ (crc >> 14 == 1);
    ((crc << 1) & 0x7FFF) ^ if feedback { CRC15_POLY } else { 0 }
}

/// Compute the CAN CRC-15 over a bit sequence.
pub fn crc15(bits: &[bool]) -> u16 {
    bits.iter().fold(0, |crc, &bit| crc15_step(crc, bit))
}

fn push_bits(out: &mut Vec<bool>, value: u32, width: u32) {
    for i in (0..width).rev() {
        out.push((value >> i) & 1 == 1);
    }
}

/// Serialize the stuffed region of an extended data frame (before
/// stuffing): SOF through CRC inclusive.
pub fn unstuffed_bits(frame: &Frame) -> Vec<bool> {
    let raw = frame.id.raw();
    let mut bits = Vec::with_capacity(100);
    bits.push(false); // SOF (dominant)
    push_bits(&mut bits, raw >> 18, 11); // ID28..18
    bits.push(true); // SRR (recessive)
    bits.push(true); // IDE (recessive: extended format)
    push_bits(&mut bits, raw & 0x3FFFF, 18); // ID17..0
    bits.push(false); // RTR (dominant: data frame)
    bits.push(false); // r1
    bits.push(false); // r0
    push_bits(&mut bits, u32::from(frame.dlc()), 4);
    for &byte in frame.payload() {
        push_bits(&mut bits, u32::from(byte), 8);
    }
    let crc = crc15(&bits);
    push_bits(&mut bits, u32::from(crc), 15);
    bits
}

/// Apply CAN bit stuffing: after every run of five equal bits, insert
/// the complement. Stuff bits participate in subsequent run counting.
pub fn stuff(bits: &[bool]) -> Vec<bool> {
    let mut out = Vec::with_capacity(bits.len() + bits.len() / 4);
    let mut run_bit = None;
    let mut run_len = 0u32;
    for &b in bits {
        out.push(b);
        if Some(b) == run_bit {
            run_len += 1;
        } else {
            run_bit = Some(b);
            run_len = 1;
        }
        if run_len == 5 {
            let stuffed = !b;
            out.push(stuffed);
            run_bit = Some(stuffed);
            run_len = 1;
        }
    }
    out
}

/// Error from [`destuff`]: six consecutive equal bits are a stuff error
/// on a real bus.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StuffError {
    /// Bit index (in the stuffed stream) where the violation occurred.
    pub at: usize,
}

/// Remove stuffing: drop the complement bit after each run of five.
/// Returns an error on a run of six equal bits.
pub fn destuff(bits: &[bool]) -> Result<Vec<bool>, StuffError> {
    let mut out = Vec::with_capacity(bits.len());
    let mut run_bit = None;
    let mut run_len = 0u32;
    let mut skip_next_check = false;
    let mut iter = bits.iter().copied().enumerate().peekable();
    while let Some((i, b)) = iter.next() {
        if skip_next_check {
            // This is a stuff bit: it must differ from the run it ends.
            if Some(b) == run_bit {
                return Err(StuffError { at: i });
            }
            run_bit = Some(b);
            run_len = 1;
            skip_next_check = false;
            continue;
        }
        out.push(b);
        if Some(b) == run_bit {
            run_len += 1;
        } else {
            run_bit = Some(b);
            run_len = 1;
        }
        if run_len == 5 && iter.peek().is_some() {
            skip_next_check = true;
        }
    }
    Ok(out)
}

/// `CRC15_BYTE[b]` is byte `b` shifted into an empty CRC-15 register;
/// the CRC being linear, shifting `b` into `crc` gives
/// `(crc << 8) ^ CRC15_BYTE[(crc >> 7) ^ b]`.
const CRC15_BYTE: [u16; 256] = {
    let mut table = [0; 256];
    let mut entry = 0;
    while entry < 256 * 8 {
        let (byte, i) = (entry >> 3, 7 - (entry & 7));
        table[byte] = crc15_step(table[byte], (byte >> i) & 1 == 1);
        entry += 1;
    }
    table
};

/// The stuffing rule as an automaton stepped a byte at a time. A state
/// is the last wire bit and its run length 1..=4, packed `bit << 2 |
/// (run - 1)`: a fifth equal bit emits its stuff bit at once, leaving
/// the complement at run 1. `STUFF_BYTE[state][byte]` packs
/// `stuff_bits << 3 | next_state`.
const STUFF_BYTE: [[u8; 256]; 8] = {
    let mut table = [[0; 256]; 8];
    let mut entry = 0;
    while entry < 8 * 256 {
        let (state, byte) = (entry >> 8, entry & 0xFF);
        let (mut stuffed, mut last, mut run) = (0, state >> 2, (state & 3) + 1);
        let mut i = 8;
        while i > 0 {
            i -= 1;
            let bit = (byte >> i) & 1;
            run = if bit == last { run + 1 } else { 1 };
            last = bit;
            if run == 5 {
                (stuffed, last, run) = (stuffed + 1, bit ^ 1, 1);
            }
        }
        table[state][byte] = (stuffed << 3 | last << 2 | (run - 1)) as u8;
        entry += 1;
    }
    table
};

/// Exact on-wire length in bits of a frame, including stuffing and the
/// unstuffed tail (EOF + interframe space): the length of
/// `stuff(&unstuffed_bits(frame))` plus [`TAIL_BITS`], built by neither.
pub fn exact_frame_bits(frame: &Frame) -> u32 {
    let (raw, payload) = (u128::from(frame.id.raw()), frame.payload());
    let len = payload.len();
    // SOF | ID28..18 | SRR IDE | ID17..0 | RTR r1 r0 | DLC — 39 bits, SOF
    // the leading zero — then the payload.
    let header = (raw >> 18) << 27 | 0b11 << 25 | (raw & 0x3FFFF) << 7 | len as u128;
    let mut bytes = [0u8; 16];
    bytes[16 - len..].copy_from_slice(payload);
    let data = header << (8 * len) | u128::from_be_bytes(bytes);
    // `01` in front rounds the 54 + 8·len bits of the stuffed region up
    // to bytes and leaves the automaton where a frame starts: before
    // SOF, after one recessive bit. All but the last two of those bytes
    // precede the CRC, so they are stuffed in the same pass that
    // computes it (a zero-initialised CRC ignores leading zeros: round
    // up to bytes); the two dependency chains then run side by side.
    let (crc_in, framed) = (data.to_be_bytes(), (1 << (39 + 8 * len) | data));
    let head = (framed >> 1).to_be_bytes();
    let (mut crc, mut state, mut stuff_bits) = (0u16, 0, 0);
    let mut feed = |byte: u8| {
        let step = STUFF_BYTE[state][usize::from(byte)];
        (state, stuff_bits) = (usize::from(step & 7), stuff_bits + u32::from(step >> 3));
    };
    for i in 11 - len..16 {
        crc = ((crc << 8) & 0x7FFF) ^ CRC15_BYTE[usize::from((crc >> 7) as u8 ^ crc_in[i])];
        feed(head[i]);
    }
    for byte in ((framed as u16 & 1) << 15 | crc).to_be_bytes() {
        feed(byte);
    }
    54 + 8 * len as u32 + stuff_bits + TAIL_BITS
}

/// Tight worst-case on-wire length in bits for an extended data frame
/// with `dlc` payload bytes: `67 + 8·dlc` protocol bits plus
/// `⌊(54 + 8·dlc − 1)/4⌋` stuff bits.
pub fn worst_case_frame_bits(dlc: u8) -> u32 {
    assert!(dlc <= 8);
    let n = u32::from(dlc);
    let stuffable = 54 + 8 * n;
    stuffable + TAIL_BITS + (stuffable - 1) / 4
}

/// Bus bit timing: how long one bit occupies the wire.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct BitTiming {
    /// Duration of a single bit time.
    pub bit_time: Duration,
}

impl BitTiming {
    /// 1 Mbit/s — the rate used throughout the paper (1 bit = 1 µs).
    pub const MBIT_1: BitTiming = BitTiming {
        bit_time: Duration::from_ns(1_000),
    };

    /// Construct from a bit rate in kbit/s (e.g. 125, 250, 500, 1000).
    pub fn from_kbps(kbps: u64) -> Self {
        assert!(kbps > 0, "bit rate must be positive");
        BitTiming {
            bit_time: Duration::from_ns(1_000_000_000 / (kbps * 1_000)),
        }
    }

    /// Wire time of `bits` bit times.
    #[inline]
    pub fn duration_of(&self, bits: u32) -> Duration {
        self.bit_time * u64::from(bits)
    }

    /// Exact wire time of a frame.
    #[inline]
    pub fn frame_duration(&self, frame: &Frame) -> Duration {
        self.duration_of(exact_frame_bits(frame))
    }

    /// `ΔT_wait`: the longest time a newly ready highest-priority
    /// message can be blocked by an ongoing non-preemptible
    /// transmission. Based on the paper's 154-bit longest frame.
    #[inline]
    pub fn delta_t_wait(&self) -> Duration {
        self.duration_of(PAPER_LONGEST_FRAME_BITS)
    }

    /// Tight (adversarial-stuffing) `ΔT_wait` based on
    /// [`worst_case_frame_bits`]`(8)` = 160 bits.
    #[inline]
    pub fn delta_t_wait_tight(&self) -> Duration {
        self.duration_of(worst_case_frame_bits(8))
    }

    /// How many whole bit times fit between two instants.
    pub fn bits_between(&self, from: Time, to: Time) -> u64 {
        to.saturating_since(from) / self.bit_time
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::id::CanId;

    fn frame(prio: u8, payload: &[u8]) -> Frame {
        Frame::new(CanId::new(prio, 1, 2), payload)
    }

    #[test]
    fn unstuffed_length_matches_spec() {
        // SOF(1)+IDA(11)+SRR(1)+IDE(1)+IDB(18)+RTR(1)+r1(1)+r0(1)+DLC(4)
        // + 8*dlc + CRC(15) = 54 + 8*dlc
        for dlc in 0..=8u8 {
            let f = frame(3, &vec![0x55; dlc as usize]);
            assert_eq!(
                unstuffed_bits(&f).len() as u32,
                54 + 8 * u32::from(dlc),
                "dlc={dlc}"
            );
        }
    }

    #[test]
    fn crc15_known_properties() {
        // CRC of the empty sequence is zero.
        assert_eq!(crc15(&[]), 0);
        // CRC is 15 bits.
        let bits: Vec<bool> = (0..64).map(|i| i % 3 == 0).collect();
        assert!(crc15(&bits) < (1 << 15));
        // A single-bit flip changes the CRC (error detection).
        let mut flipped = bits.clone();
        flipped[10] = !flipped[10];
        assert_ne!(crc15(&bits), crc15(&flipped));
    }

    #[test]
    fn stuffing_breaks_long_runs() {
        let bits = vec![false; 10];
        let stuffed = stuff(&bits);
        // 5 zeros, stuff 1, 5 zeros, stuff 1 => 12 bits
        assert_eq!(stuffed.len(), 12);
        let mut run = 0;
        let mut prev = None;
        for &b in &stuffed {
            if Some(b) == prev {
                run += 1;
            } else {
                prev = Some(b);
                run = 1;
            }
            assert!(run <= 5, "stuffed stream has a run longer than 5");
        }
    }

    #[test]
    fn stuff_destuff_roundtrip() {
        let patterns: Vec<Vec<bool>> = vec![
            vec![],
            vec![true],
            vec![false; 25],
            vec![true; 25],
            (0..100).map(|i| i % 2 == 0).collect(),
            (0..100).map(|i| (i / 3) % 2 == 0).collect(),
        ];
        for p in patterns {
            assert_eq!(destuff(&stuff(&p)).unwrap(), p);
        }
    }

    #[test]
    fn destuff_rejects_run_of_six() {
        let bad = vec![true; 6];
        assert!(destuff(&bad).is_err());
    }

    #[test]
    fn alternating_pattern_needs_no_stuffing() {
        let bits: Vec<bool> = (0..60).map(|i| i % 2 == 0).collect();
        assert_eq!(stuff(&bits).len(), bits.len());
    }

    #[test]
    fn worst_case_formula_values() {
        // Classic literature values for extended data frames.
        assert_eq!(worst_case_frame_bits(0), 67 + 13);
        assert_eq!(worst_case_frame_bits(8), 67 + 64 + 29);
        assert_eq!(worst_case_frame_bits(8), 160);
    }

    #[test]
    fn exact_never_exceeds_worst_case() {
        for dlc in 0..=8u8 {
            for fill in [0x00u8, 0xFF, 0x55, 0xAA, 0x0F] {
                let f = frame(7, &vec![fill; dlc as usize]);
                let exact = exact_frame_bits(&f);
                assert!(
                    exact <= worst_case_frame_bits(dlc),
                    "dlc={dlc} fill={fill:#x}: {exact} > bound"
                );
                // And at least the unstuffed length.
                assert!(exact >= 54 + 8 * u32::from(dlc) + TAIL_BITS);
            }
        }
    }

    #[test]
    fn all_zero_payload_hits_heavy_stuffing() {
        let f = frame(0, &[0u8; 8]);
        let exact = exact_frame_bits(&f);
        // Long dominant runs force many stuff bits.
        assert!(exact > 131 + 10, "expected heavy stuffing, got {exact}");
    }

    #[test]
    fn paper_longest_frame_is_154_us_at_1mbit() {
        let t = BitTiming::MBIT_1;
        assert_eq!(t.delta_t_wait(), Duration::from_us(154));
        assert_eq!(t.delta_t_wait_tight(), Duration::from_us(160));
    }

    #[test]
    fn bit_timing_rates() {
        assert_eq!(BitTiming::from_kbps(1000), BitTiming::MBIT_1);
        assert_eq!(BitTiming::from_kbps(125).bit_time, Duration::from_ns(8_000));
        assert_eq!(BitTiming::MBIT_1.duration_of(100), Duration::from_us(100));
    }

    #[test]
    fn frame_duration_scales_with_payload() {
        let t = BitTiming::MBIT_1;
        let short = t.frame_duration(&frame(1, &[]));
        let long = t.frame_duration(&frame(1, &[0x12; 8]));
        assert!(long > short);
        assert!(long >= Duration::from_us(131));
    }

    #[test]
    fn bits_between() {
        let t = BitTiming::MBIT_1;
        assert_eq!(t.bits_between(Time::from_us(10), Time::from_us(25)), 15);
        assert_eq!(t.bits_between(Time::from_us(25), Time::from_us(10)), 0);
    }
}

//! Everything a workload feeds the program is generated here, from
//! the seed and nothing else: payload bytes, source phases, client
//! subscriptions, slow-client placement, sever schedules.
//!
//! Payload bytes are a pure function of `(seed, subject, sequence)`.
//! That matters on a CAN bus: payload bits decide bit stuffing, hence
//! frame length, hence every later bus-time instant — a wall-clock
//! stamp in a payload would make the bus-time results differ from run
//! to run. Wall stamps live in benchmark-side tables keyed by the
//! `(subject, sequence)` a payload carries.

use rtec_core::Subject;
use rtec_sim::Duration;

/// The one HRT subject every bus workload publishes.
pub const HRT_SUBJECT: Subject = Subject(0xB001);
/// SRT subjects are `SRT_BASE + i`.
pub const SRT_BASE: u64 = 0xB100;
/// NRT subjects are `NRT_BASE + j`.
pub const NRT_BASE: u64 = 0xB200;
/// Payload of an HRT or SRT event (one CAN frame).
pub const RT_PAYLOAD: usize = 8;
/// Payload of an NRT bulk event (49 CAN fragments).
pub const BULK_PAYLOAD: usize = 240;

/// splitmix64 finalizer over three words: the benchmark's only source
/// of seeded values besides `rtec_sim::Rng`.
pub fn mix(seed: u64, a: u64, b: u64) -> u64 {
    let mut z =
        seed ^ a.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ b.wrapping_mul(0xd1b5_4a32_d192_ed03);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The payload of event number `seq` on `subject`: the sequence number
/// in the first four bytes (so the consumer side can join a delivery
/// to its publish record), seeded noise after it.
pub fn payload(seed: u64, subject: Subject, seq: u32, len: usize) -> Vec<u8> {
    assert!(len >= 4, "a payload carries its sequence number");
    let mut out = Vec::with_capacity(len);
    out.extend_from_slice(&seq.to_le_bytes());
    let mut word = 0u64;
    while out.len() < len {
        if (out.len() - 4) % 8 == 0 {
            word = mix(
                seed,
                subject.uid(),
                (u64::from(seq) << 16) | out.len() as u64,
            );
        }
        out.push(word as u8);
        word >>= 8;
    }
    out
}

/// The sequence number [`payload`] wrote.
pub fn seq_of(payload: &[u8]) -> Option<u32> {
    Some(u32::from_le_bytes(payload.get(..4)?.try_into().ok()?))
}

/// A source's first-publish offset: seeded, in `[50 µs, 50 µs + period)`.
pub fn phase(seed: u64, subject: Subject, period: Duration) -> Duration {
    Duration::from_us(50) + Duration::from_ns(mix(seed, subject.uid(), 0x9a5e) % period.as_ns())
}

/// One periodic publisher of a bus workload.
#[derive(Clone, Copy, Debug)]
pub struct Source {
    /// What it publishes on.
    pub subject: Subject,
    /// Publish period.
    pub period: Duration,
    /// Payload length in bytes.
    pub len: usize,
}

/// `count` SRT sources (`SRT_BASE..`) of one `period` each.
pub fn srt_sources(count: usize, period: Duration) -> Vec<Source> {
    (0..count)
        .map(|i| Source {
            subject: Subject(SRT_BASE + i as u64),
            period,
            len: RT_PAYLOAD,
        })
        .collect()
}

/// `count` NRT bulk sources (`NRT_BASE..`) of one `period` each.
pub fn nrt_sources(count: usize, period: Duration) -> Vec<Source> {
    (0..count)
        .map(|j| Source {
            subject: Subject(NRT_BASE + j as u64),
            period,
            len: BULK_PAYLOAD,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn payload_is_a_pure_function_and_carries_its_sequence() {
        let a = payload(7, Subject(0xB100), 300, RT_PAYLOAD);
        assert_eq!(a, payload(7, Subject(0xB100), 300, RT_PAYLOAD));
        assert_ne!(a, payload(8, Subject(0xB100), 300, RT_PAYLOAD));
        assert_ne!(a, payload(7, Subject(0xB101), 300, RT_PAYLOAD));
        assert_eq!(a.len(), RT_PAYLOAD);
        assert_eq!(seq_of(&a), Some(300));
        let bulk = payload(7, Subject(0xB200), 9, BULK_PAYLOAD);
        assert_eq!(bulk.len(), BULK_PAYLOAD);
        assert_eq!(seq_of(&bulk), Some(9));
    }

    #[test]
    fn phases_stay_inside_one_period() {
        let period = Duration::from_us(800);
        for s in 0..64 {
            let p = phase(s, Subject(SRT_BASE), period);
            assert!(p >= Duration::from_us(50) && p < Duration::from_us(50) + period);
        }
    }
}

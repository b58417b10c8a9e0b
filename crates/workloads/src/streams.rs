//! Message-stream specifications and synthetic set constructors.

use crate::arrival::ArrivalPattern;
use rtec_can::bits::{worst_case_frame_bits, BitTiming};
use rtec_can::NodeId;
use rtec_sim::{Duration, Rng};
use serde::{Deserialize, Serialize};

/// One soft-real-time message stream of the §4 policy comparison: an
/// SRT channel of its node.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct StreamSpec {
    /// Stream identity (stable across policies; also used to derive the
    /// stream's RNG and its subject).
    pub id: u16,
    /// Publishing node.
    pub node: NodeId,
    /// Payload bytes per message (0..=8).
    pub dlc: u8,
    /// Release process.
    pub pattern: ArrivalPattern,
    /// Relative transmission deadline of each message.
    pub rel_deadline: Duration,
    /// Relative expiration (validity), if messages may be dropped.
    pub rel_expiration: Option<Duration>,
}

impl StreamSpec {
    /// Long-run wire utilization of this stream (worst-case stuffing).
    pub fn utilization(&self, timing: BitTiming) -> f64 {
        let frame = timing.duration_of(worst_case_frame_bits(self.dlc));
        frame.as_ns() as f64 / self.pattern.mean_gap().as_ns() as f64
    }
}

/// Total wire utilization of a set.
pub fn set_utilization(set: &[StreamSpec], timing: BitTiming) -> f64 {
    set.iter().map(|s| s.utilization(timing)).sum()
}

/// Scale a set's offered load by `factor` (periods divided by the
/// factor; deadlines kept): `factor > 1` increases load.
pub fn scale_load(set: &[StreamSpec], factor: f64) -> Vec<StreamSpec> {
    assert!(factor > 0.0);
    set.iter()
        .map(|s| {
            let scale = |d: Duration| {
                Duration::from_ns(((d.as_ns() as f64 / factor).round() as u64).max(1))
            };
            let pattern = match s.pattern {
                ArrivalPattern::Periodic {
                    period,
                    phase,
                    jitter,
                } => ArrivalPattern::Periodic {
                    period: scale(period),
                    phase,
                    jitter,
                },
                ArrivalPattern::Sporadic {
                    min_gap,
                    mean_extra,
                } => ArrivalPattern::Sporadic {
                    min_gap: scale(min_gap),
                    mean_extra: scale(mean_extra),
                },
                ArrivalPattern::Poisson { mean_gap } => ArrivalPattern::Poisson {
                    mean_gap: scale(mean_gap),
                },
            };
            StreamSpec { pattern, ..*s }
        })
        .collect()
}

/// Construct a synthetic SRT set: `n` streams spread over `nodes`
/// nodes, periods drawn log-uniformly from `[min_period, max_period]`,
/// deadline equal to the period, 8-byte payloads. Deterministic for a
/// given `rng`.
pub fn uniform_srt_set(
    n: usize,
    nodes: usize,
    min_period: Duration,
    max_period: Duration,
    rng: &mut Rng,
) -> Vec<StreamSpec> {
    assert!(nodes >= 1 && n >= 1);
    assert!(min_period <= max_period && !min_period.is_zero());
    (0..n)
        .map(|i| {
            let lo = (min_period.as_ns() as f64).ln();
            let hi = (max_period.as_ns() as f64).ln();
            let period_ns = (lo + rng.gen_f64() * (hi - lo)).exp() as u64;
            let period = Duration::from_ns(period_ns.max(1));
            StreamSpec {
                id: i as u16,
                node: NodeId((i % nodes) as u8),
                dlc: 8,
                pattern: ArrivalPattern::Periodic {
                    period,
                    phase: Duration::from_ns(rng.gen_range(0, period_ns.max(2))),
                    jitter: Duration::ZERO,
                },
                rel_deadline: period,
                rel_expiration: Some(period * 2),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn utilization_of_known_stream() {
        let s = StreamSpec {
            id: 0,
            node: NodeId(0),
            dlc: 8,
            pattern: ArrivalPattern::periodic(Duration::from_us(1_600)),
            rel_deadline: Duration::from_us(1_600),
            rel_expiration: None,
        };
        // 160 µs frame every 1.6 ms -> 10%.
        let u = s.utilization(BitTiming::MBIT_1);
        assert!((u - 0.1).abs() < 1e-9, "u={u}");
    }

    #[test]
    fn scale_load_doubles_utilization() {
        let mut rng = Rng::seed_from_u64(1);
        let set = uniform_srt_set(10, 4, Duration::from_ms(5), Duration::from_ms(50), &mut rng);
        let base = set_utilization(&set, BitTiming::MBIT_1);
        let scaled = scale_load(&set, 2.0);
        let after = set_utilization(&scaled, BitTiming::MBIT_1);
        assert!((after / base - 2.0).abs() < 0.01, "{base} -> {after}");
        // Deadlines unchanged.
        for (a, b) in set.iter().zip(&scaled) {
            assert_eq!(a.rel_deadline, b.rel_deadline);
        }
    }

    #[test]
    fn uniform_set_is_deterministic_and_in_range() {
        let mk = || {
            let mut rng = Rng::seed_from_u64(77);
            uniform_srt_set(
                20,
                6,
                Duration::from_ms(2),
                Duration::from_ms(100),
                &mut rng,
            )
        };
        let a = mk();
        let b = mk();
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.pattern, y.pattern);
            assert_eq!(x.node, y.node);
        }
        for s in &a {
            let ArrivalPattern::Periodic { period, .. } = s.pattern else {
                panic!("periodic expected")
            };
            assert!(period >= Duration::from_ms(2) && period <= Duration::from_ms(100));
            assert!(s.node.0 < 6);
        }
        // Streams land on all nodes.
        let mut nodes: Vec<u8> = a.iter().map(|s| s.node.0).collect();
        nodes.sort_unstable();
        nodes.dedup();
        assert_eq!(nodes.len(), 6);
    }

    #[test]
    #[should_panic]
    fn scale_load_rejects_nonpositive() {
        let _ = scale_load(&[], 0.0);
    }
}

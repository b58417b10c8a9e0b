//! An SAE-class automotive control message set.
//!
//! The classic SAE benchmark (as used by Tindell & Burns for CAN
//! response-time analysis) mixes short-period control signals between
//! the battery, vehicle controller, motor controller, brakes and
//! driver-interface stations with sporadic driver inputs and slow
//! status traffic. The exact proprietary table is not reproduced here;
//! this module encodes a set with the same *shape* — message counts,
//! period spectrum (5 ms .. 1 s), sporadic minimum inter-arrival times
//! (20/50 ms) and payload sizes (1..=8 bytes) — and tags each message
//! with the timeliness class it maps to in the event-channel model.

use crate::arrival::ArrivalPattern;
use crate::streams::StreamSpec;
use rtec_can::NodeId;
use rtec_sim::Duration;
use serde::{Deserialize, Serialize};

/// Which event-channel class a message belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum TimelinessClass {
    /// Safety-critical periodic control loop → HRTEC.
    Hard,
    /// Deadline-sensitive but overload-tolerant → SRTEC.
    Soft,
    /// Status / diagnostics → NRTEC.
    NonRt,
}

/// One message of the automotive set.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct SaeMessage {
    /// Signal name.
    pub name: &'static str,
    /// Source station (node).
    pub node: NodeId,
    /// Payload bytes.
    pub dlc: u8,
    /// Release process.
    pub pattern: ArrivalPattern,
    /// Relative deadline.
    pub deadline: Duration,
    /// The channel class the signal maps to.
    pub class: TimelinessClass,
}

impl SaeMessage {
    /// Convert to a stream spec of the §4 policy comparison (SRT
    /// semantics).
    pub fn to_stream(&self, id: u16) -> StreamSpec {
        StreamSpec {
            id,
            node: self.node,
            dlc: self.dlc,
            pattern: self.pattern,
            rel_deadline: self.deadline,
            rel_expiration: Some(self.deadline * 4),
        }
    }
}

const fn ms(v: u64) -> Duration {
    Duration::from_ms(v)
}

/// The SAE-class set: 7 stations, 24 signals.
///
/// Stations: 0 = battery, 1 = vehicle controller, 2 = motor
/// controller, 3 = brakes, 4 = driver interface, 5 = instrument
/// cluster, 6 = diagnostics gateway.
pub fn sae_class_set() -> Vec<SaeMessage> {
    use TimelinessClass::*;
    let periodic = |period: Duration| ArrivalPattern::Periodic {
        period,
        phase: Duration::ZERO,
        jitter: Duration::ZERO,
    };
    let sporadic = |mit: Duration| ArrivalPattern::Sporadic {
        min_gap: mit,
        mean_extra: mit * 2,
    };
    vec![
        // --- 5 ms control loop (hard) ---
        SaeMessage {
            name: "traction_torque_cmd",
            node: NodeId(1),
            dlc: 8,
            pattern: periodic(ms(5)),
            deadline: ms(5),
            class: Hard,
        },
        SaeMessage {
            name: "motor_speed_fb",
            node: NodeId(2),
            dlc: 8,
            pattern: periodic(ms(5)),
            deadline: ms(5),
            class: Hard,
        },
        SaeMessage {
            name: "brake_pressure_fb",
            node: NodeId(3),
            dlc: 4,
            pattern: periodic(ms(5)),
            deadline: ms(5),
            class: Hard,
        },
        // --- 10 ms control loop (hard) ---
        SaeMessage {
            name: "battery_current",
            node: NodeId(0),
            dlc: 4,
            pattern: periodic(ms(10)),
            deadline: ms(10),
            class: Hard,
        },
        SaeMessage {
            name: "battery_voltage",
            node: NodeId(0),
            dlc: 4,
            pattern: periodic(ms(10)),
            deadline: ms(10),
            class: Hard,
        },
        SaeMessage {
            name: "accel_position",
            node: NodeId(4),
            dlc: 2,
            pattern: periodic(ms(10)),
            deadline: ms(10),
            class: Hard,
        },
        SaeMessage {
            name: "brake_position",
            node: NodeId(4),
            dlc: 2,
            pattern: periodic(ms(10)),
            deadline: ms(10),
            class: Hard,
        },
        // --- sporadic driver inputs (soft, 20 ms MIT) ---
        SaeMessage {
            name: "gear_select",
            node: NodeId(4),
            dlc: 1,
            pattern: sporadic(ms(20)),
            deadline: ms(20),
            class: Soft,
        },
        SaeMessage {
            name: "cruise_toggle",
            node: NodeId(4),
            dlc: 1,
            pattern: sporadic(ms(20)),
            deadline: ms(20),
            class: Soft,
        },
        SaeMessage {
            name: "regen_level",
            node: NodeId(4),
            dlc: 1,
            pattern: sporadic(ms(50)),
            deadline: ms(50),
            class: Soft,
        },
        SaeMessage {
            name: "wiper_request",
            node: NodeId(4),
            dlc: 1,
            pattern: sporadic(ms(50)),
            deadline: ms(50),
            class: Soft,
        },
        // --- 50/100 ms soft periodic signals ---
        SaeMessage {
            name: "motor_temp",
            node: NodeId(2),
            dlc: 2,
            pattern: periodic(ms(50)),
            deadline: ms(50),
            class: Soft,
        },
        SaeMessage {
            name: "battery_temp",
            node: NodeId(0),
            dlc: 2,
            pattern: periodic(ms(50)),
            deadline: ms(50),
            class: Soft,
        },
        SaeMessage {
            name: "inverter_status",
            node: NodeId(2),
            dlc: 8,
            pattern: periodic(ms(100)),
            deadline: ms(100),
            class: Soft,
        },
        SaeMessage {
            name: "vc_status",
            node: NodeId(1),
            dlc: 8,
            pattern: periodic(ms(100)),
            deadline: ms(100),
            class: Soft,
        },
        SaeMessage {
            name: "brake_wear",
            node: NodeId(3),
            dlc: 2,
            pattern: periodic(ms(100)),
            deadline: ms(100),
            class: Soft,
        },
        SaeMessage {
            name: "speedometer",
            node: NodeId(5),
            dlc: 4,
            pattern: periodic(ms(100)),
            deadline: ms(100),
            class: Soft,
        },
        SaeMessage {
            name: "odometer",
            node: NodeId(5),
            dlc: 4,
            pattern: periodic(ms(500)),
            deadline: ms(500),
            class: Soft,
        },
        // --- slow status / diagnostics (non-RT) ---
        SaeMessage {
            name: "soc_estimate",
            node: NodeId(0),
            dlc: 2,
            pattern: periodic(ms(1000)),
            deadline: ms(1000),
            class: NonRt,
        },
        SaeMessage {
            name: "hv_isolation",
            node: NodeId(0),
            dlc: 2,
            pattern: periodic(ms(1000)),
            deadline: ms(1000),
            class: NonRt,
        },
        SaeMessage {
            name: "cabin_temp",
            node: NodeId(5),
            dlc: 1,
            pattern: periodic(ms(1000)),
            deadline: ms(1000),
            class: NonRt,
        },
        SaeMessage {
            name: "diag_heartbeat",
            node: NodeId(6),
            dlc: 8,
            pattern: periodic(ms(1000)),
            deadline: ms(1000),
            class: NonRt,
        },
        SaeMessage {
            name: "fault_log_page",
            node: NodeId(6),
            dlc: 8,
            pattern: periodic(ms(500)),
            deadline: ms(500),
            class: NonRt,
        },
        SaeMessage {
            name: "config_echo",
            node: NodeId(6),
            dlc: 8,
            pattern: periodic(ms(1000)),
            deadline: ms(1000),
            class: NonRt,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::streams::set_utilization;
    use rtec_can::bits::BitTiming;

    #[test]
    fn set_shape() {
        let set = sae_class_set();
        assert_eq!(set.len(), 24);
        let hard = set
            .iter()
            .filter(|m| m.class == TimelinessClass::Hard)
            .count();
        let soft = set
            .iter()
            .filter(|m| m.class == TimelinessClass::Soft)
            .count();
        let nrt = set
            .iter()
            .filter(|m| m.class == TimelinessClass::NonRt)
            .count();
        assert_eq!(hard, 7);
        assert_eq!(soft, 11);
        assert_eq!(nrt, 6);
        // Seven distinct stations.
        let mut nodes: Vec<u8> = set.iter().map(|m| m.node.0).collect();
        nodes.sort_unstable();
        nodes.dedup();
        assert_eq!(nodes.len(), 7);
    }

    #[test]
    fn names_unique_and_payloads_valid() {
        let set = sae_class_set();
        let mut names: Vec<&str> = set.iter().map(|m| m.name).collect();
        names.sort_unstable();
        let n = names.len();
        names.dedup();
        assert_eq!(names.len(), n, "duplicate names");
        assert!(set.iter().all(|m| m.dlc <= 8 && m.dlc >= 1));
    }

    #[test]
    fn total_load_fits_a_1mbit_bus() {
        let set = sae_class_set();
        let streams: Vec<_> = set
            .iter()
            .enumerate()
            .map(|(i, m)| m.to_stream(i as u16))
            .collect();
        let u = set_utilization(&streams, BitTiming::MBIT_1);
        // The SAE-class mix is a moderate load, leaving headroom for the
        // overload-scaling sweeps.
        assert!(u > 0.05 && u < 0.5, "u = {u}");
    }

    #[test]
    fn hard_messages_have_short_periods() {
        for m in sae_class_set() {
            if m.class == TimelinessClass::Hard {
                assert!(m.deadline <= Duration::from_ms(10), "{}", m.name);
            }
        }
    }
}

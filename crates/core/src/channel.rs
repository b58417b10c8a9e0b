//! Channel classes, their attribute lists and exceptions (§2.2).
//!
//! An event channel is an instance of
//!
//! ```text
//!   event_channel := <subject, attribute_list>
//! ```
//!
//! where the attributes describe the dissemination properties (class,
//! period, reliability, priority, fragmentation...). Announcing a
//! publication or subscribing creates the channel's local data
//! structures and triggers the subject → etag binding.

use crate::event::Subject;
use rtec_analysis::edf::{next_promotion_time, priority_for_deadline, PrioritySlotConfig};
use rtec_can::{NodeId, PRIO_NRT_MAX, PRIO_NRT_MIN, PRIO_SRT_MAX, PRIO_SRT_MIN};
use rtec_sim::{Duration, Time};
use serde::{Deserialize, Serialize};
use std::fmt;

/// The three timeliness classes of §2.2.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ChannelClass {
    /// Hard real-time: reservation-based, guaranteed under the fault
    /// assumption.
    Hrt,
    /// Soft real-time: EDF-scheduled by transmission deadline,
    /// best-effort under overload.
    Srt,
    /// Non real-time: fixed low priority, bulk transfers.
    Nrt,
}

/// Attributes of a hard real-time channel (per publisher).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct HrtSpec {
    /// Slot period: one reserved slot per period for this publisher.
    pub period: Duration,
    /// Payload length the channel transports (0..=8 bytes).
    pub dlc: u8,
    /// Assumed omission degree `k`: up to `k` transmissions of an event
    /// may be lost and it is still delivered in time.
    pub omission_degree: u32,
    /// `true` for sporadic channels: slots are reserved (worst case) but
    /// may legitimately go unused, and the subscriber raises no
    /// missing-event exception for an empty slot. Periodic channels
    /// (`false`) expect an event every slot.
    pub sporadic: bool,
}

impl HrtSpec {
    /// A typical sensor channel: 8-byte payload every 10 ms, tolerating
    /// 2 omissions.
    pub fn periodic_10ms() -> Self {
        HrtSpec {
            period: Duration::from_ms(10),
            dlc: 8,
            omission_degree: 2,
            sporadic: false,
        }
    }

    /// A sporadic alarm channel with the same reservation shape.
    pub fn sporadic_10ms() -> Self {
        HrtSpec {
            sporadic: true,
            ..HrtSpec::periodic_10ms()
        }
    }
}

/// Attributes of a soft real-time channel.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct SrtSpec {
    /// Default relative transmission deadline applied when a published
    /// event carries none.
    pub default_deadline: Duration,
    /// Default relative expiration applied when an event carries none
    /// (measured from publication; `None` = never expires, the event
    /// stays queued best-effort).
    pub default_expiration: Option<Duration>,
    /// How the channel's messages rank on the bus.
    pub priority: SrtPriority,
}

impl Default for SrtSpec {
    fn default() -> Self {
        SrtSpec {
            default_deadline: Duration::from_ms(10),
            default_expiration: Some(Duration::from_ms(50)),
            priority: SrtPriority::Slots,
        }
    }
}

/// The CAN priority an SRT channel's queued message contends with.
///
/// **Contract.** For one channel and one instant, a later deadline never
/// ranks ahead of an earlier one: `d1 < d2` implies
/// `priority(d1, now) <= priority(d2, now)`. The node's send queue keeps
/// one deadline-ordered queue per channel and compares only their
/// fronts, which is sound exactly because of this;
/// `rtec-baselines/tests/policy_monotone.rs` checks it for every
/// variant.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum SrtPriority {
    /// The paper's mapping (§3.4): the remaining time to the deadline,
    /// quantized by the node's priority slots and promoted as it
    /// shrinks.
    #[default]
    Slots,
    /// One static priority (deadline-monotonic, or the laxity-at-release
    /// ablation).
    Fixed(u8),
    /// Davis's dual priority: `low` until `deadline − lead`, then
    /// `high` (numerically `high <= low`).
    Dual {
        /// Priority before the promotion.
        low: u8,
        /// Priority from the promotion on.
        high: u8,
        /// How long before the deadline the promotion happens.
        lead: Duration,
    },
}

impl SrtPriority {
    /// The priority of a message with absolute `deadline` at `now`.
    pub fn priority(self, slots: &PrioritySlotConfig, deadline: Time, now: Time) -> u8 {
        match self {
            SrtPriority::Slots => priority_for_deadline(deadline, now, slots),
            SrtPriority::Fixed(p) => p,
            SrtPriority::Dual { low, high, lead } => {
                if now >= deadline.saturating_sub(lead) {
                    high
                } else {
                    low
                }
            }
        }
    }

    /// The next instant after `now` at which [`SrtPriority::priority`]
    /// changes, or `None` if it is final.
    pub fn next_change(
        self,
        slots: &PrioritySlotConfig,
        deadline: Time,
        now: Time,
    ) -> Option<Time> {
        match self {
            SrtPriority::Slots => next_promotion_time(deadline, now, slots),
            SrtPriority::Fixed(_) => None,
            SrtPriority::Dual { lead, .. } => {
                let promotion = deadline.saturating_sub(lead);
                (now < promotion).then_some(promotion)
            }
        }
    }

    /// The instants a promotion due at `at` is followed by: iterating
    /// [`SrtPriority::next_change`] from `at` visits exactly `at`,
    /// `at + every`, …, `last` ([`PromoteChain::after`]). `None` if `at`
    /// is not an instant the priority changes at — a host then has no
    /// chain to follow and must fire the timer — and for `Fixed`, which
    /// arms no promotion.
    pub fn promote_chain(
        self,
        slots: &PrioritySlotConfig,
        deadline: Time,
        at: Time,
    ) -> Option<PromoteChain> {
        match self {
            // Every Δt_p, up to the start of the final slot.
            SrtPriority::Slots => {
                let remaining = deadline.saturating_since(at);
                remaining
                    .as_ns()
                    .is_multiple_of(slots.slot.as_ns())
                    .then(|| PromoteChain {
                        every: slots.slot,
                        last: deadline.saturating_sub(slots.slot).max(at),
                    })
            }
            SrtPriority::Fixed(_) => None,
            // One instant.
            SrtPriority::Dual { lead, .. } => {
                (at == deadline.saturating_sub(lead)).then_some(PromoteChain {
                    every: lead,
                    last: at,
                })
            }
        }
    }
}

/// The promotion instants of one submitted SRT message from some
/// instant on, every `every` up to and including `last`
/// ([`SrtPriority::promote_chain`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PromoteChain {
    /// Distance between two promotions.
    pub every: Duration,
    /// The last promotion.
    pub last: Time,
}

impl PromoteChain {
    /// The promotion after the one due at `at`: `at + every` unless
    /// that lies past `last` (or does not lie after `at`).
    pub fn after(self, at: Time) -> Option<Time> {
        let next = Time::from_ns(at.as_ns().checked_add(self.every.as_ns())?);
        (at < next && next <= self.last).then_some(next)
    }
}

/// Attributes of a non real-time channel.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct NrtSpec {
    /// Fixed CAN priority; must lie in the NRT band (251..=255). The
    /// middleware rigorously enforces the band (§3.3).
    pub priority: u8,
    /// Whether events may exceed 8 bytes and are fragmented (§2.2.3).
    /// Fragmentation is a channel attribute fixed at announcement.
    pub fragmented: bool,
}

impl Default for NrtSpec {
    fn default() -> Self {
        NrtSpec {
            priority: PRIO_NRT_MIN,
            fragmented: false,
        }
    }
}

impl NrtSpec {
    /// A fragmented bulk-transfer channel at the lowest priority.
    pub fn bulk() -> Self {
        NrtSpec {
            priority: PRIO_NRT_MAX,
            fragmented: true,
        }
    }
}

/// The attribute list passed to `announce()`: the channel class plus
/// its class-specific parameters.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum ChannelSpec {
    /// Hard real-time channel.
    Hrt(HrtSpec),
    /// Soft real-time channel.
    Srt(SrtSpec),
    /// Non real-time channel.
    Nrt(NrtSpec),
}

impl ChannelSpec {
    /// Shorthand constructor.
    pub fn hrt(spec: HrtSpec) -> Self {
        ChannelSpec::Hrt(spec)
    }
    /// Shorthand constructor.
    pub fn srt(spec: SrtSpec) -> Self {
        ChannelSpec::Srt(spec)
    }
    /// Shorthand constructor.
    pub fn nrt(spec: NrtSpec) -> Self {
        ChannelSpec::Nrt(spec)
    }

    /// The channel class of this spec.
    pub fn class(&self) -> ChannelClass {
        match self {
            ChannelSpec::Hrt(_) => ChannelClass::Hrt,
            ChannelSpec::Srt(_) => ChannelClass::Srt,
            ChannelSpec::Nrt(_) => ChannelClass::Nrt,
        }
    }
}

/// Subscription attribute list: used for resource allocation and
/// event filtering (§2.2.1).
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SubscribeSpec {
    /// Accept only events originating from these nodes (`None` = any).
    /// The paper's example filter — "a subscriber may be interested in
    /// receiving events only from publishers in the same network"; the
    /// origin is read from the identifier's TxNode field, so the filter
    /// costs nothing on the wire.
    pub origin_allow: Option<Vec<NodeId>>,
}

impl SubscribeSpec {
    /// Restrict to events from the given origins.
    pub fn from_origins(origins: impl Into<Vec<NodeId>>) -> Self {
        SubscribeSpec {
            origin_allow: Some(origins.into()),
        }
    }

    /// `true` if an event with the given origin passes the filter.
    pub fn passes(&self, origin: Option<NodeId>) -> bool {
        if let Some(allow) = &self.origin_allow {
            match origin {
                Some(o) if allow.contains(&o) => {}
                _ => return false,
            }
        }
        true
    }
}

/// Exceptional situations reported to the local exception handlers
/// (§2.2: "this local notification allows the application to react and
/// adapt").
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ChannelException {
    /// SRT: the transmission deadline passed before the event was sent;
    /// transmission continues best-effort until expiration.
    DeadlineMissed {
        /// Subject of the affected channel.
        subject: Subject,
        /// The missed deadline.
        deadline: Time,
    },
    /// SRT: the event's validity expired; it was removed from the send
    /// queue without being transmitted.
    Expired {
        /// Subject of the affected channel.
        subject: Subject,
        /// The expiration instant.
        expiration: Time,
    },
    /// HRT subscriber: no event arrived in a slot where one was
    /// expected (detectable because reservation times are known).
    MissingEvent {
        /// Subject of the affected channel.
        subject: Subject,
        /// The delivery deadline of the empty slot.
        expected_at: Time,
    },
    /// HRT publisher: the event was still not received by all
    /// operational nodes when the slot's redundancy budget was
    /// exhausted — the fault assumption was violated.
    RedundancyExhausted {
        /// Subject of the affected channel.
        subject: Subject,
        /// Transmission attempts spent.
        attempts: u32,
    },
    /// HRT publisher: `publish()` arrived too late to be staged for the
    /// upcoming slot (the message was not ready at the slot's latest
    /// ready time).
    NotReady {
        /// Subject of the affected channel.
        subject: Subject,
        /// The slot's ready instant that was missed.
        slot_ready_at: Time,
    },
    /// The middleware propagated a lower-level failure (e.g. a crashed
    /// binding agent).
    Fault {
        /// Subject of the affected channel.
        subject: Subject,
        /// Human-readable description.
        reason: String,
    },
}

impl ChannelException {
    /// The subject the exception concerns.
    pub fn subject(&self) -> Subject {
        match self {
            ChannelException::DeadlineMissed { subject, .. }
            | ChannelException::Expired { subject, .. }
            | ChannelException::MissingEvent { subject, .. }
            | ChannelException::RedundancyExhausted { subject, .. }
            | ChannelException::NotReady { subject, .. }
            | ChannelException::Fault { subject, .. } => *subject,
        }
    }
}

impl fmt::Display for ChannelException {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChannelException::DeadlineMissed { subject, deadline } => {
                write!(f, "{subject}: transmission deadline {deadline} missed")
            }
            ChannelException::Expired {
                subject,
                expiration,
            } => {
                write!(
                    f,
                    "{subject}: expired at {expiration}, dropped from send queue"
                )
            }
            ChannelException::MissingEvent {
                subject,
                expected_at,
            } => {
                write!(f, "{subject}: no event in slot delivering at {expected_at}")
            }
            ChannelException::RedundancyExhausted { subject, attempts } => {
                write!(
                    f,
                    "{subject}: redundancy exhausted after {attempts} attempts"
                )
            }
            ChannelException::NotReady {
                subject,
                slot_ready_at,
            } => {
                write!(
                    f,
                    "{subject}: publish missed slot ready time {slot_ready_at}"
                )
            }
            ChannelException::Fault { subject, reason } => {
                write!(f, "{subject}: {reason}")
            }
        }
    }
}

/// Errors returned synchronously by the channel API.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ChannelError {
    /// `announce` for a subject this node already publishes.
    AlreadyAnnounced(Subject),
    /// Operation on a subject this node never announced/subscribed.
    NotAnnounced(Subject),
    /// Duplicate subscription by the same node.
    AlreadySubscribed(Subject),
    /// Not subscribed.
    NotSubscribed(Subject),
    /// An NRT priority, or an SRT channel's own `Fixed`/`Dual` one,
    /// outside its class's band — the middleware enforces
    /// `P_HRT < P_SRT < P_NRT` (§3.3).
    PriorityOutOfBand {
        /// The rejected priority value.
        priority: u8,
    },
    /// Payload too long for a non-fragmented channel.
    PayloadTooLong {
        /// Offending payload length.
        len: usize,
        /// Maximum allowed.
        max: usize,
    },
    /// Publishing on an HRT channel before the calendar was installed,
    /// or announcing an HRT channel after it.
    CalendarState(&'static str),
    /// The class of the operation does not match the announced channel.
    WrongClass {
        /// The channel's class.
        expected: ChannelClass,
    },
    /// The etag space is exhausted (14-bit field).
    EtagsExhausted,
    /// A different node already publishes this subject with an
    /// incompatible spec.
    SpecMismatch(Subject),
}

impl fmt::Display for ChannelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChannelError::AlreadyAnnounced(s) => write!(f, "{s}: already announced"),
            ChannelError::NotAnnounced(s) => write!(f, "{s}: not announced"),
            ChannelError::AlreadySubscribed(s) => write!(f, "{s}: already subscribed"),
            ChannelError::NotSubscribed(s) => write!(f, "{s}: not subscribed"),
            ChannelError::PriorityOutOfBand { priority } => {
                write!(f, "priority {priority} outside its class's band")
            }
            ChannelError::PayloadTooLong { len, max } => {
                write!(f, "payload of {len} bytes exceeds {max}")
            }
            ChannelError::CalendarState(msg) => write!(f, "calendar: {msg}"),
            ChannelError::WrongClass { expected } => {
                write!(f, "operation does not match channel class {expected:?}")
            }
            ChannelError::EtagsExhausted => write!(f, "no free etags"),
            ChannelError::SpecMismatch(s) => {
                write!(f, "{s}: conflicting channel spec from another publisher")
            }
        }
    }
}

impl std::error::Error for ChannelError {}

/// Validate an NRT spec against the priority-band partition.
pub fn validate_nrt_priority(spec: &NrtSpec) -> Result<(), ChannelError> {
    if (PRIO_NRT_MIN..=PRIO_NRT_MAX).contains(&spec.priority) {
        Ok(())
    } else {
        Err(ChannelError::PriorityOutOfBand {
            priority: spec.priority,
        })
    }
}

/// Validate the priorities an SRT channel names itself against the SRT
/// band (1..=250); a `Dual` promotion must not lower the priority.
pub fn validate_srt_priority(spec: &SrtSpec) -> Result<(), ChannelError> {
    let (low, high) = match spec.priority {
        SrtPriority::Slots => return Ok(()),
        SrtPriority::Fixed(p) => (p, p),
        SrtPriority::Dual { low, high, .. } => (low, high),
    };
    // The promoted priority's band ends at the unpromoted one.
    for (p, band) in [
        (low, PRIO_SRT_MIN..=PRIO_SRT_MAX),
        (high, PRIO_SRT_MIN..=low),
    ] {
        if !band.contains(&p) {
            return Err(ChannelError::PriorityOutOfBand { priority: p });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_classes() {
        assert_eq!(
            ChannelSpec::hrt(HrtSpec::periodic_10ms()).class(),
            ChannelClass::Hrt
        );
        assert_eq!(
            ChannelSpec::srt(SrtSpec::default()).class(),
            ChannelClass::Srt
        );
        assert_eq!(
            ChannelSpec::nrt(NrtSpec::default()).class(),
            ChannelClass::Nrt
        );
    }

    #[test]
    fn nrt_band_enforced() {
        assert!(validate_nrt_priority(&NrtSpec {
            priority: 251,
            fragmented: false
        })
        .is_ok());
        assert!(validate_nrt_priority(&NrtSpec {
            priority: 255,
            fragmented: true
        })
        .is_ok());
        // An NRT channel must never be able to claim an SRT or HRT
        // priority — that would break P_HRT < P_SRT < P_NRT.
        let err = validate_nrt_priority(&NrtSpec {
            priority: 250,
            fragmented: false,
        });
        assert_eq!(err, Err(ChannelError::PriorityOutOfBand { priority: 250 }));
        let err0 = validate_nrt_priority(&NrtSpec {
            priority: 0,
            fragmented: false,
        });
        assert!(err0.is_err());
    }

    #[test]
    fn subscribe_filter_origin() {
        let spec = SubscribeSpec::from_origins(vec![NodeId(1), NodeId(2)]);
        assert!(spec.passes(Some(NodeId(1))));
        assert!(!spec.passes(Some(NodeId(3))));
        assert!(!spec.passes(None), "unknown origin rejected when filtering");
    }

    #[test]
    fn subscribe_filter_default_accepts_all() {
        let spec = SubscribeSpec::default();
        assert!(spec.passes(None));
        assert!(spec.passes(Some(NodeId(9))));
    }

    #[test]
    fn hrt_spec_sporadic_variant() {
        let p = HrtSpec::periodic_10ms();
        let s = HrtSpec::sporadic_10ms();
        assert!(!p.sporadic);
        assert!(s.sporadic);
        assert_eq!(p.period, s.period);
    }

    #[test]
    fn exception_subject_and_display() {
        let exc = ChannelException::Expired {
            subject: Subject::new(0xAB),
            expiration: Time::from_ms(3),
        };
        assert_eq!(exc.subject(), Subject::new(0xAB));
        assert!(format!("{exc}").contains("expired"));
        let exc2 = ChannelException::MissingEvent {
            subject: Subject::new(1),
            expected_at: Time::ZERO,
        };
        assert!(format!("{exc2}").contains("no event"));
    }

    #[test]
    fn error_display() {
        let e = ChannelError::PayloadTooLong { len: 12, max: 8 };
        assert!(format!("{e}").contains("12"));
    }
}

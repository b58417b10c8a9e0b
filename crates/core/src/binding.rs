//! Subject → etag binding (dynamic binding, §2.1 and [13]).
//!
//! Content-based routing is reduced to subject-based addressing, and
//! subjects are *bound* to short network-level tags (the 14-bit etag
//! field of the CAN identifier) so that the CAN controllers' hardware
//! acceptance filters perform the subject filtering — no protocol work
//! on the host CPU of a smart sensor.
//!
//! Two binding modes are supported:
//!
//! * **static** (default for experiments): the registry assigns etags
//!   deterministically when channels are created, standing in for an
//!   out-of-band configuration tool;
//! * **dynamic**: a binding agent on a designated node answers
//!   BIND_REQUEST frames with BIND_REPLY frames over reserved etags, as
//!   in the configuration/binding protocol of [13]. Channel operations
//!   that arrive before the reply are queued by the middleware.
//!
//! Wire formats (8-byte CAN payloads):
//!
//! ```text
//!   BIND_REQUEST: [seq: u16 LE][subject_lo48: 6 bytes LE]
//!   BIND_REPLY:   [requester: u8][seq: u16 LE][etag: u16 LE][status: u8]
//! ```
//!
//! Replies are broadcast; the `requester` byte (the TxNode of the
//! request frame) disambiguates, since sequence numbers are only unique
//! per requester.
//!
//! Subjects are identified on the wire by the low 48 bits of their UID;
//! the registry rejects subject sets that collide in those bits.

use crate::event::Subject;
use rtec_sim::IntMap;
use serde::{Deserialize, Serialize};

/// Reserved etag: clock sync (see `rtec-clock`).
pub const ETAG_SYNC: u16 = 0;
/// Reserved etag: clock sync follow-up.
pub const ETAG_FOLLOW_UP: u16 = 1;
/// Reserved etag: binding requests (any node → agent).
pub const ETAG_BIND_REQUEST: u16 = 2;
/// Reserved etag: binding replies (agent → all).
pub const ETAG_BIND_REPLY: u16 = 3;
/// First etag available for dynamic assignment to subjects.
pub const ETAG_FIRST_DYNAMIC: u16 = 4;
/// Largest etag (14-bit field).
pub const ETAG_LAST: u16 = (1 << 14) - 1;

/// Status codes carried in BIND_REPLY.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum BindStatus {
    /// Binding succeeded; the etag field is valid.
    Ok,
    /// The agent ran out of etags.
    Exhausted,
}

impl BindStatus {
    fn to_byte(self) -> u8 {
        match self {
            BindStatus::Ok => 0,
            BindStatus::Exhausted => 1,
        }
    }
    fn from_byte(b: u8) -> Option<Self> {
        match b {
            0 => Some(BindStatus::Ok),
            1 => Some(BindStatus::Exhausted),
            _ => None,
        }
    }
}

/// A decoded BIND_REQUEST.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BindRequest {
    /// Requester-local sequence number echoed in the reply.
    pub seq: u16,
    /// Low 48 bits of the subject UID.
    pub subject48: u64,
}

impl BindRequest {
    /// Build a request for a subject.
    pub fn new(seq: u16, subject: Subject) -> Self {
        BindRequest {
            seq,
            subject48: subject.uid() & 0xFFFF_FFFF_FFFF,
        }
    }

    /// Encode to a CAN payload.
    pub fn encode(&self) -> [u8; 8] {
        let mut out = [0u8; 8];
        out[..2].copy_from_slice(&self.seq.to_le_bytes());
        out[2..8].copy_from_slice(&self.subject48.to_le_bytes()[..6]);
        out
    }

    /// Decode from a CAN payload.
    pub fn decode(payload: &[u8]) -> Option<Self> {
        if payload.len() != 8 {
            return None;
        }
        let seq = u16::from_le_bytes([payload[0], payload[1]]);
        let mut sub = [0u8; 8];
        sub[..6].copy_from_slice(&payload[2..8]);
        Some(BindRequest {
            seq,
            subject48: u64::from_le_bytes(sub),
        })
    }
}

/// A decoded BIND_REPLY.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BindReply {
    /// TxNode of the node whose request is being answered.
    pub requester: u8,
    /// Echoed request sequence number.
    pub seq: u16,
    /// Assigned etag (valid when `status == Ok`).
    pub etag: u16,
    /// Outcome.
    pub status: BindStatus,
}

impl BindReply {
    /// Encode to a CAN payload.
    pub fn encode(&self) -> [u8; 6] {
        let mut out = [0u8; 6];
        out[0] = self.requester;
        out[1..3].copy_from_slice(&self.seq.to_le_bytes());
        out[3..5].copy_from_slice(&self.etag.to_le_bytes());
        out[5] = self.status.to_byte();
        out
    }

    /// Decode from a CAN payload.
    pub fn decode(payload: &[u8]) -> Option<Self> {
        if payload.len() != 6 {
            return None;
        }
        Some(BindReply {
            requester: payload[0],
            seq: u16::from_le_bytes([payload[1], payload[2]]),
            etag: u16::from_le_bytes([payload[3], payload[4]]),
            status: BindStatus::from_byte(payload[5])?,
        })
    }
}

/// The etag registry: the state behind both the static binding mode and
/// the dynamic binding agent.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct SubjectRegistry {
    by_subject48: IntMap<u64, u16>,
    by_etag: IntMap<u16, u64>,
    next: u16,
}

impl SubjectRegistry {
    /// An empty registry starting at the first dynamic etag.
    pub fn new() -> Self {
        SubjectRegistry {
            by_subject48: IntMap::default(),
            by_etag: IntMap::default(),
            next: ETAG_FIRST_DYNAMIC,
        }
    }

    /// Bind a subject, returning its etag. Idempotent: rebinding an
    /// already-bound subject returns the existing etag.
    pub fn bind(&mut self, subject: Subject) -> Result<u16, BindStatus> {
        let key = subject.uid() & 0xFFFF_FFFF_FFFF;
        if let Some(&etag) = self.by_subject48.get(&key) {
            return Ok(etag);
        }
        if self.next > ETAG_LAST {
            return Err(BindStatus::Exhausted);
        }
        let etag = self.next;
        self.next += 1;
        self.by_subject48.insert(key, etag);
        self.by_etag.insert(etag, key);
        Ok(etag)
    }

    /// Look up a subject's etag without binding.
    pub fn etag_of(&self, subject: Subject) -> Option<u16> {
        self.by_subject48
            .get(&(subject.uid() & 0xFFFF_FFFF_FFFF))
            .copied()
    }

    /// Reverse lookup: the subject (low 48 bits) bound to an etag.
    pub fn subject48_of(&self, etag: u16) -> Option<u64> {
        self.by_etag.get(&etag).copied()
    }

    /// Number of bound subjects.
    pub fn len(&self) -> usize {
        self.by_subject48.len()
    }

    /// `true` when nothing is bound.
    pub fn is_empty(&self) -> bool {
        self.by_subject48.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_roundtrip() {
        let req = BindRequest::new(42, Subject::new(0xDEAD_BEEF_CAFE));
        let decoded = BindRequest::decode(&req.encode()).unwrap();
        assert_eq!(decoded, req);
        assert_eq!(decoded.subject48, 0xDEAD_BEEF_CAFE);
    }

    #[test]
    fn request_truncates_to_48_bits() {
        let req = BindRequest::new(1, Subject::new(0xFFFF_0000_0000_0001));
        assert_eq!(req.subject48, 0x0000_0000_0001);
    }

    #[test]
    fn reply_roundtrip() {
        for status in [BindStatus::Ok, BindStatus::Exhausted] {
            let rep = BindReply {
                requester: 17,
                seq: 9,
                etag: 1234,
                status,
            };
            assert_eq!(BindReply::decode(&rep.encode()).unwrap(), rep);
        }
    }

    #[test]
    fn decode_rejects_bad_lengths_and_status() {
        assert!(BindRequest::decode(&[0; 7]).is_none());
        assert!(BindReply::decode(&[0; 8]).is_none());
        let mut bad = BindReply {
            requester: 0,
            seq: 0,
            etag: 0,
            status: BindStatus::Ok,
        }
        .encode();
        bad[5] = 99;
        assert!(BindReply::decode(&bad).is_none());
    }

    #[test]
    fn registry_assigns_sequential_etags() {
        let mut reg = SubjectRegistry::new();
        let a = reg.bind(Subject::new(10)).unwrap();
        let b = reg.bind(Subject::new(20)).unwrap();
        assert_eq!(a, ETAG_FIRST_DYNAMIC);
        assert_eq!(b, ETAG_FIRST_DYNAMIC + 1);
        assert_eq!(reg.len(), 2);
    }

    #[test]
    fn registry_is_idempotent() {
        let mut reg = SubjectRegistry::new();
        let a1 = reg.bind(Subject::new(10)).unwrap();
        let a2 = reg.bind(Subject::new(10)).unwrap();
        assert_eq!(a1, a2);
        assert_eq!(reg.len(), 1);
        assert_eq!(reg.etag_of(Subject::new(10)), Some(a1));
        assert_eq!(reg.etag_of(Subject::new(11)), None);
        assert_eq!(reg.subject48_of(a1), Some(10));
    }

    #[test]
    fn registry_exhaustion() {
        let mut reg = SubjectRegistry::new();
        // Fast-forward next to the end of the space.
        for i in 0..(ETAG_LAST - ETAG_FIRST_DYNAMIC + 1) {
            reg.bind(Subject::new(u64::from(i) + 1_000_000)).unwrap();
        }
        assert_eq!(reg.bind(Subject::new(5)), Err(BindStatus::Exhausted));
    }

    #[test]
    fn reserved_etags_below_dynamic_range() {
        const {
            assert!(ETAG_SYNC < ETAG_FIRST_DYNAMIC);
            assert!(ETAG_FOLLOW_UP < ETAG_FIRST_DYNAMIC);
            assert!(ETAG_BIND_REQUEST < ETAG_FIRST_DYNAMIC);
            assert!(ETAG_BIND_REPLY < ETAG_FIRST_DYNAMIC);
        }
    }
}

//! Per-node host-side middleware state of the simulator.
//!
//! The channel-class decisions of a node live in
//! [`crate::machine::NodeMachine`]; what the simulator keeps beside it
//! per node is defined here: the application-facing endpoints (event
//! queue, notification and exception handlers), the local clock, the
//! dynamic-binding and clock-sync protocol state, and the handles of
//! the machine's outstanding transmissions on the simulated bus. The
//! module also defines the transmit-tag encoding that routes bus
//! completions back to the right state machine.

use crate::channel::{ChannelClass, ChannelException, ChannelSpec, SubscribeSpec};
use crate::event::{Delivery, Event, EventQueue, Subject};
use crate::machine::{MachineConfig, NodeMachine, TxSlots};
use rtec_can::{NodeId, TxHandle};
use rtec_clock::LocalClock;
use rtec_sim::Time;
use std::collections::{HashMap, VecDeque};

/// Callback invoked on event delivery (the paper's `not_handler`).
pub type NotifyHandler = Box<dyn FnMut(&Delivery)>;
/// Callback invoked on channel exceptions (the paper's
/// `exception_handler`).
pub type ExcHandler = Box<dyn FnMut(&ChannelException)>;

/// What kind of middleware message a transmit request belonged to —
/// packed into the controller's opaque tag so completions route back.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TagKind {
    /// A hard real-time slot transmission.
    Hrt,
    /// A soft real-time queued message.
    Srt,
    /// A non real-time frame (possibly one fragment of a bulk message).
    Nrt,
    /// Binding protocol traffic.
    Bind,
    /// Clock-synchronization traffic.
    Sync,
}

impl TagKind {
    fn to_byte(self) -> u8 {
        match self {
            TagKind::Hrt => 1,
            TagKind::Srt => 2,
            TagKind::Nrt => 3,
            TagKind::Bind => 4,
            TagKind::Sync => 5,
        }
    }
    /// The channel class whose transmission slot a frame tagged with
    /// this kind occupies; `None` for protocol traffic.
    pub fn class(self) -> Option<ChannelClass> {
        match self {
            TagKind::Hrt => Some(ChannelClass::Hrt),
            TagKind::Srt => Some(ChannelClass::Srt),
            TagKind::Nrt => Some(ChannelClass::Nrt),
            TagKind::Bind | TagKind::Sync => None,
        }
    }
    fn from_byte(b: u8) -> Option<Self> {
        match b {
            1 => Some(TagKind::Hrt),
            2 => Some(TagKind::Srt),
            3 => Some(TagKind::Nrt),
            4 => Some(TagKind::Bind),
            5 => Some(TagKind::Sync),
            _ => None,
        }
    }
}

/// Pack `(kind, etag, seq)` into a 64-bit transmit tag.
pub fn pack_tag(kind: TagKind, etag: u16, seq: u32) -> u64 {
    (u64::from(kind.to_byte()) << 56) | (u64::from(etag) << 32) | u64::from(seq)
}

/// Inverse of [`pack_tag`].
pub fn unpack_tag(tag: u64) -> Option<(TagKind, u16, u32)> {
    let kind = TagKind::from_byte((tag >> 56) as u8)?;
    let etag = ((tag >> 32) & 0x3FFF) as u16;
    let seq = tag as u32;
    Some((kind, etag, seq))
}

/// A publisher endpoint of a channel on one node.
pub struct PublisherState {
    /// The channel's subject.
    pub subject: Subject,
    /// Announced attributes.
    pub spec: ChannelSpec,
    /// Bound etag (`None` while a dynamic binding is outstanding).
    pub etag: Option<u16>,
    /// Local exception handler.
    pub exception: Option<ExcHandler>,
    /// Events published before the binding completed (flushed on bind).
    pub pending_publishes: VecDeque<Event>,
}

impl PublisherState {
    /// Fresh endpoint for an announced channel.
    pub fn new(subject: Subject, spec: ChannelSpec, exception: Option<ExcHandler>) -> Self {
        PublisherState {
            subject,
            spec,
            etag: None,
            exception,
            pending_publishes: VecDeque::new(),
        }
    }

    /// Raise an exception on this channel's handler (if installed).
    pub fn raise(&mut self, exc: &ChannelException) {
        if let Some(h) = &mut self.exception {
            h(exc);
        }
    }
}

/// A subscription endpoint of a channel on one node.
pub struct SubscriptionState {
    /// The channel's subject.
    pub subject: Subject,
    /// Subscription attributes (filters), handed to the machine on bind.
    pub spec: SubscribeSpec,
    /// Bound etag (`None` while a dynamic binding is outstanding).
    pub etag: Option<u16>,
    /// Queue the application drains.
    pub queue: EventQueue,
    /// Asynchronous notification handler.
    pub notify: Option<NotifyHandler>,
    /// Local exception handler.
    pub exception: Option<ExcHandler>,
    /// Last delivery instant (true time) for inter-delivery jitter.
    pub last_delivery: Option<Time>,
}

impl SubscriptionState {
    /// Fresh endpoint for a subscription.
    pub fn new(
        subject: Subject,
        spec: SubscribeSpec,
        notify: Option<NotifyHandler>,
        exception: Option<ExcHandler>,
    ) -> Self {
        SubscriptionState {
            subject,
            spec,
            etag: None,
            queue: EventQueue::new(),
            notify,
            exception,
            last_delivery: None,
        }
    }

    /// Raise an exception on this subscription's handler.
    pub fn raise(&mut self, exc: &ChannelException) {
        if let Some(h) = &mut self.exception {
            h(exc);
        }
    }
}

/// An outstanding dynamic-binding request.
#[derive(Clone, Copy, Debug)]
pub struct PendingBind {
    /// Request sequence number.
    pub seq: u16,
    /// Subject being bound.
    pub subject: Subject,
}

/// Everything the simulator keeps for one node.
pub struct NodeState {
    /// The node's bus identity (doubles as the TxNode field).
    pub id: NodeId,
    /// The node's view of global time.
    pub clock: LocalClock,
    /// The channel-class state machine.
    pub machine: NodeMachine,
    /// Bus handles of the machine's outstanding transmissions.
    pub tx: TxSlots<TxHandle>,
    /// Publisher endpoints by subject uid.
    pub publishers: HashMap<u64, PublisherState>,
    /// Subscription endpoints by subject uid.
    pub subscriptions: HashMap<u64, SubscriptionState>,
    /// Outstanding dynamic-binding requests (head is on the wire).
    pub bind_pending: VecDeque<PendingBind>,
    /// Binding request sequence counter.
    pub bind_seq: u16,
    /// Local clock reading latched at the completion of the last SYNC
    /// frame (clock-synchronization protocol).
    pub sync_latch: Option<Time>,
}

impl NodeState {
    /// Fresh middleware state for a node.
    pub fn new(clock: LocalClock, machine: MachineConfig) -> Self {
        NodeState {
            id: machine.node,
            clock,
            machine: NodeMachine::new(machine),
            tx: TxSlots::default(),
            publishers: HashMap::new(),
            subscriptions: HashMap::new(),
            bind_pending: VecDeque::new(),
            bind_seq: 0,
            sync_latch: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtec_sim::Duration;

    #[test]
    fn tag_roundtrip() {
        for kind in [
            TagKind::Hrt,
            TagKind::Srt,
            TagKind::Nrt,
            TagKind::Bind,
            TagKind::Sync,
        ] {
            let tag = pack_tag(kind, 0x3FFF, u32::MAX);
            assert_eq!(unpack_tag(tag), Some((kind, 0x3FFF, u32::MAX)));
            let tag2 = pack_tag(kind, 0, 0);
            assert_eq!(unpack_tag(tag2), Some((kind, 0, 0)));
        }
    }

    #[test]
    fn tag_rejects_unknown_kind() {
        assert_eq!(unpack_tag(0), None);
        assert_eq!(unpack_tag(0xFF << 56), None);
    }

    #[test]
    fn exception_handlers_fire() {
        use std::cell::RefCell;
        use std::rc::Rc;
        let hits = Rc::new(RefCell::new(0));
        let h = hits.clone();
        let mut p = PublisherState::new(
            Subject::new(1),
            ChannelSpec::srt(crate::channel::SrtSpec::default()),
            Some(Box::new(move |_exc| *h.borrow_mut() += 1)),
        );
        p.raise(&ChannelException::DeadlineMissed {
            subject: Subject::new(1),
            deadline: Time::ZERO + Duration::from_us(5),
        });
        p.raise(&ChannelException::Expired {
            subject: Subject::new(1),
            expiration: Time::ZERO,
        });
        assert_eq!(*hits.borrow(), 2);

        // No handler installed: raise is a no-op.
        let mut q = PublisherState::new(
            Subject::new(2),
            ChannelSpec::srt(crate::channel::SrtSpec::default()),
            None,
        );
        q.raise(&ChannelException::Expired {
            subject: Subject::new(2),
            expiration: Time::ZERO,
        });
    }
}

//! Transport abstraction between nodes and the bus broker.
//!
//! The broker and the nodes only ever talk through these two traits, so
//! the same runtime runs over an in-process loopback (deterministic,
//! used by the tests and benchmarks) or over real sockets
//! ([`crate::udp`]). The protocol is strictly request/response-shaped
//! from the broker's point of view — the broker always knows which node
//! it is waiting on — so the broker-side trait only needs a *targeted*
//! receive, never a select over all nodes.
//!
//! A node answers each broker message with one *turn*: its requests
//! followed by `Idle` (or `Done`). [`NodeTransport::send_turn`] hands a
//! whole turn over at once; the loopback makes that one push and one
//! wake-up, so a lock-step exchange costs one hand-off each way however
//! many requests the turn carries. The broker still receives the turn
//! one message at a time.

use crate::sync::{Arc, Condvar, Mutex, MutexGuard, DEFAULT_DEPTH};
use crate::wire::{ToBroker, ToNode, WireError};
use std::collections::VecDeque;
use std::time::Duration;

/// A transport operation failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TransportError {
    /// No message arrived within the allowed wait.
    Timeout,
    /// The peer is gone (channel closed, socket shut down).
    Disconnected,
    /// A datagram arrived but did not decode as a protocol message.
    Malformed(WireError),
    /// An I/O error from the underlying socket.
    Io(String),
}

impl core::fmt::Display for TransportError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            TransportError::Timeout => write!(f, "transport timeout"),
            TransportError::Disconnected => write!(f, "peer disconnected"),
            TransportError::Malformed(e) => write!(f, "malformed datagram: {e}"),
            TransportError::Io(e) => write!(f, "transport i/o error: {e}"),
        }
    }
}

impl std::error::Error for TransportError {}

impl From<WireError> for TransportError {
    fn from(e: WireError) -> Self {
        TransportError::Malformed(e)
    }
}

/// A node's endpoint of the transport.
pub trait NodeTransport: Send {
    /// Send a message to the broker, now.
    fn send(&mut self, msg: ToBroker) -> Result<(), TransportError>;
    /// Wait up to `timeout` for the next message from the broker.
    fn recv(&mut self, timeout: Duration) -> Result<ToNode, TransportError>;
    /// Send `turn`'s messages to the broker, in order, and leave `turn`
    /// empty (also on error). The default sends them one by one, so a
    /// transport that frames each message (UDP: one datagram each)
    /// keeps its wire format; the loopback hands the turn over at once.
    fn send_turn(&mut self, turn: &mut Vec<ToBroker>) -> Result<(), TransportError> {
        turn.drain(..).try_for_each(|msg| self.send(msg))
    }
}

/// How a restarted node re-attaches to the broker's transport, the
/// result of [`BrokerTransport::relink`].
pub enum Relink {
    /// The transport minted a fresh node endpoint (loopback); the
    /// supervisor hands it to the new node thread directly.
    Link(Box<dyn NodeTransport>),
    /// The node side must dial back in itself (UDP: the restarted node
    /// opens a new socket and re-runs the `Hello` handshake); the
    /// broker must call [`BrokerTransport::rendezvous_node`] before
    /// sending it anything.
    Reconnect,
}

/// The broker's endpoint of the transport, addressing nodes by index.
pub trait BrokerTransport: Send {
    /// Number of node endpoints this transport serves.
    fn node_count(&self) -> usize;
    /// Block until every node endpoint is reachable (e.g. the UDP
    /// transport has learned all source addresses from `Hello`
    /// datagrams). Transports that are connected by construction — the
    /// loopback — return immediately.
    fn rendezvous(&mut self, _timeout: Duration) -> Result<(), TransportError> {
        Ok(())
    }
    /// Send a message to node `node`.
    fn send(&mut self, node: u8, msg: ToNode) -> Result<(), TransportError>;
    /// Wait up to `timeout` for the next message *from node `node`*.
    fn recv_from(&mut self, node: u8, timeout: Duration) -> Result<ToBroker, TransportError>;
    /// Sever the link to node `node`: drop the broker-side endpoint so
    /// a quarantined or crashed peer observes a disconnect instead of
    /// blocking on a full channel forever. Idempotent; a no-op for
    /// transports without per-node teardown.
    fn unlink(&mut self, _node: u8) {}
    /// Replace the link to node `node` ahead of a supervised restart,
    /// discarding any queued messages from the dead incarnation.
    /// Transports that do not support restart return an error.
    fn relink(&mut self, _node: u8) -> Result<Relink, TransportError> {
        Err(TransportError::Disconnected)
    }
    /// Block until a relinked node has dialed back in (see
    /// [`Relink::Reconnect`]). Immediate for transports whose
    /// [`relink`](BrokerTransport::relink) already returned a live link.
    fn rendezvous_node(&mut self, _node: u8, _timeout: Duration) -> Result<(), TransportError> {
        Ok(())
    }
}

/// One direction of a loopback link: a FIFO of at most
/// [`DEFAULT_DEPTH`] messages, with one writer and one reader. A reader
/// with nothing to read, or a writer with no room, parks on the condvar
/// at once; the other side wakes it when it changes what the parked
/// side waits for, and only then.
struct Mailbox<T> {
    slots: Mutex<Slots<T>>,
    changed: Condvar,
}

struct Slots<T> {
    queue: VecDeque<T>,
    /// An endpoint is gone: pushes fail, pops drain what is queued and
    /// then report `Disconnected`.
    closed: bool,
    /// The reader (or the writer) waits on `changed`. The other side
    /// notifies only then: a notify costs a system call even when
    /// nobody waits.
    reader_parked: bool,
    writer_parked: bool,
}

impl<T> Mailbox<T> {
    fn new() -> Self {
        Mailbox {
            slots: Mutex::new(Slots {
                queue: VecDeque::new(),
                closed: false,
                reader_parked: false,
                writer_parked: false,
            }),
            changed: Condvar::new(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, Slots<T>> {
        self.slots.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Queue every message of `batch` in order, waiting for room when
    /// the mailbox is full, and wake a parked reader once. The wake-up
    /// comes after the unlock, so the woken reader does not run into
    /// a held lock.
    fn push(&self, batch: impl Iterator<Item = T>) -> Result<(), TransportError> {
        let mut slots = self.lock();
        for msg in batch {
            if slots.queue.len() >= DEFAULT_DEPTH {
                if slots.reader_parked {
                    self.changed.notify_one();
                }
                slots.writer_parked = true;
                let full = |s: &mut Slots<T>| s.queue.len() >= DEFAULT_DEPTH && !s.closed;
                slots = self
                    .changed
                    .wait_while(slots, full)
                    .unwrap_or_else(|e| e.into_inner());
                slots.writer_parked = false;
            }
            if slots.closed {
                return Err(TransportError::Disconnected);
            }
            slots.queue.push_back(msg);
        }
        let wake = slots.reader_parked;
        drop(slots);
        if wake {
            self.changed.notify_one();
        }
        Ok(())
    }

    /// Take the oldest message, parking up to `timeout` for one.
    fn pop(&self, timeout: Duration) -> Result<T, TransportError> {
        let mut slots = self.lock();
        if slots.queue.is_empty() && !slots.closed {
            slots.reader_parked = true;
            let empty = |s: &mut Slots<T>| s.queue.is_empty() && !s.closed;
            let waited = self.changed.wait_timeout_while(slots, timeout, empty);
            slots = waited.unwrap_or_else(|e| e.into_inner()).0;
            slots.reader_parked = false;
        }
        let popped = match slots.queue.pop_front() {
            Some(msg) => Ok(msg),
            None if slots.closed => Err(TransportError::Disconnected),
            None => Err(TransportError::Timeout),
        };
        // A writer parks only on a full mailbox, so it has room now.
        let wake = slots.writer_parked && popped.is_ok();
        drop(slots);
        if wake {
            self.changed.notify_one();
        }
        popped
    }

    fn close(&self) {
        self.lock().closed = true;
        self.changed.notify_all();
    }
}

/// Both directions of one node's loopback link.
struct Link {
    to_node: Mailbox<ToNode>,
    to_broker: Mailbox<ToBroker>,
}

/// One end of a [`Link`]; dropping either end closes both directions,
/// as dropping a channel's sender and receiver together would.
struct End(Arc<Link>);

impl Drop for End {
    fn drop(&mut self) {
        self.0.to_node.close();
        self.0.to_broker.close();
    }
}

/// Node endpoint of the in-process loopback transport.
pub struct LoopbackNode {
    link: End,
}

/// Broker endpoint of the in-process loopback transport. A severed
/// (`unlink`ed) slot holds `None` and reports `Disconnected`.
pub struct LoopbackBroker {
    links: Vec<Option<End>>,
}

/// Build a loopback transport for `nodes` node endpoints.
///
/// Messages pass through bounded in-process mailboxes as values — no
/// encoding, no loss, FIFO per direction — which makes loopback runs
/// bit-for-bit deterministic under [`crate::clock::Pace::Virtual`].
/// The lock-step turn protocol keeps at most a turn in flight per
/// link, so the [`DEFAULT_DEPTH`] bound is slack; it turns a protocol
/// bug into backpressure instead of unbounded growth.
pub fn loopback(nodes: usize) -> (LoopbackBroker, Vec<LoopbackNode>) {
    let (links, endpoints) = (0..nodes).map(|_| loopback_pair()).unzip();
    (LoopbackBroker { links }, endpoints)
}

/// One broker-side link plus its matching node endpoint.
fn loopback_pair() -> (Option<End>, LoopbackNode) {
    let link = Arc::new(Link {
        to_node: Mailbox::new(),
        to_broker: Mailbox::new(),
    });
    let node = LoopbackNode {
        link: End(Arc::clone(&link)),
    };
    (Some(End(link)), node)
}

impl NodeTransport for LoopbackNode {
    fn send(&mut self, msg: ToBroker) -> Result<(), TransportError> {
        self.link.0.to_broker.push(std::iter::once(msg))
    }

    fn recv(&mut self, timeout: Duration) -> Result<ToNode, TransportError> {
        self.link.0.to_node.pop(timeout)
    }

    fn send_turn(&mut self, turn: &mut Vec<ToBroker>) -> Result<(), TransportError> {
        self.link.0.to_broker.push(turn.drain(..))
    }
}

impl LoopbackBroker {
    fn link(&self, node: u8) -> Result<&Link, TransportError> {
        let end = self.links.get(node as usize).and_then(|l| l.as_ref());
        end.map(|e| &*e.0).ok_or(TransportError::Disconnected)
    }
}

impl BrokerTransport for LoopbackBroker {
    fn node_count(&self) -> usize {
        self.links.len()
    }

    fn send(&mut self, node: u8, msg: ToNode) -> Result<(), TransportError> {
        self.link(node)?.to_node.push(std::iter::once(msg))
    }

    fn recv_from(&mut self, node: u8, timeout: Duration) -> Result<ToBroker, TransportError> {
        self.link(node)?.to_broker.pop(timeout)
    }

    fn unlink(&mut self, node: u8) {
        if let Some(slot) = self.links.get_mut(node as usize) {
            *slot = None;
        }
    }

    fn relink(&mut self, node: u8) -> Result<Relink, TransportError> {
        let slot = self
            .links
            .get_mut(node as usize)
            .ok_or(TransportError::Disconnected)?;
        let (link, endpoint) = loopback_pair();
        *slot = link;
        Ok(Relink::Link(Box::new(endpoint)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loopback_round_trips_messages() {
        let (mut broker, mut nodes) = loopback(2);
        nodes[1]
            .send(ToBroker::Hello {
                node: 1,
                incarnation: 0,
            })
            .unwrap();
        assert_eq!(
            broker.recv_from(1, Duration::from_secs(1)).unwrap(),
            ToBroker::Hello {
                node: 1,
                incarnation: 0
            }
        );
        broker
            .send(
                1,
                ToNode::Welcome {
                    now_ns: 7,
                    incarnation: 0,
                },
            )
            .unwrap();
        assert_eq!(
            nodes[1].recv(Duration::from_secs(1)).unwrap(),
            ToNode::Welcome {
                now_ns: 7,
                incarnation: 0
            }
        );
        // The other node's mailbox is independent.
        assert_eq!(
            broker.recv_from(0, Duration::from_millis(10)),
            Err(TransportError::Timeout)
        );
    }

    /// `unlink` severs the pair (the node side sees a disconnect) and
    /// `relink` mints a fresh endpoint that works, discarding anything
    /// the dead incarnation had queued.
    #[test]
    fn unlink_then_relink_replaces_the_pair() {
        let (mut broker, mut nodes) = loopback(1);
        nodes[0].send(ToBroker::Idle).unwrap(); // stale message
        broker.unlink(0);
        assert_eq!(
            nodes[0].recv(Duration::from_millis(10)),
            Err(TransportError::Disconnected)
        );
        assert_eq!(
            broker.recv_from(0, Duration::from_millis(10)),
            Err(TransportError::Disconnected)
        );
        let Ok(Relink::Link(mut fresh)) = broker.relink(0) else {
            panic!("loopback relink must mint a link");
        };
        fresh.send(ToBroker::Done { node: 0 }).unwrap();
        // The stale pre-unlink message is gone; the fresh one arrives.
        assert_eq!(
            broker.recv_from(0, Duration::from_secs(1)).unwrap(),
            ToBroker::Done { node: 0 }
        );
        broker.send(0, ToNode::Shutdown).unwrap();
        assert_eq!(
            fresh.recv(Duration::from_secs(1)).unwrap(),
            ToNode::Shutdown
        );
    }

    /// A turn longer than the mailbox holds crosses in parts: the node
    /// waits for room while the broker drains, and every message
    /// arrives once, in order, closed by the turn's `Idle`.
    #[test]
    fn a_turn_longer_than_the_mailbox_arrives_whole_and_in_order() {
        let (mut broker, mut nodes) = loopback(1);
        let mut node = nodes.pop().expect("one endpoint");
        let len = DEFAULT_DEPTH as u64 * 2 + 7;
        let sender = crate::sync::thread::Builder::new()
            .name("turn-sender".into())
            .spawn(move || {
                let mut turn: Vec<ToBroker> = (0..len)
                    .map(|token| ToBroker::TimerReq { at_ns: 0, token })
                    .collect();
                turn.push(ToBroker::Idle);
                let sent = node.send_turn(&mut turn);
                (sent, turn.is_empty(), node)
            })
            .expect("spawn the node side");
        for token in 0..len {
            let got = broker.recv_from(0, Duration::from_secs(10));
            assert_eq!(got, Ok(ToBroker::TimerReq { at_ns: 0, token }));
        }
        assert_eq!(
            broker.recv_from(0, Duration::from_secs(10)),
            Ok(ToBroker::Idle)
        );
        let (sent, emptied, _node) = sender.join().expect("node side");
        assert_eq!(sent, Ok(()));
        assert!(emptied, "send_turn leaves the turn empty");
        assert_eq!(
            broker.recv_from(0, Duration::from_millis(10)),
            Err(TransportError::Timeout)
        );
    }

    #[test]
    fn dropped_peer_reports_disconnected() {
        let (mut broker, nodes) = loopback(1);
        drop(nodes);
        assert_eq!(
            broker.recv_from(0, Duration::from_millis(10)),
            Err(TransportError::Disconnected)
        );
        assert_eq!(
            broker.send(0, ToNode::Shutdown),
            Err(TransportError::Disconnected)
        );
    }
}
